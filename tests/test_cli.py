import pytest

from dgal.cli import main


@pytest.fixture
def doc(tmp_path):
    path = tmp_path / "sys.txt"
    path.write_text("n: 1\nA[1][1]: 1\n")
    return str(path)


def refused(capsys, argv):
    """Exit code and the stderr lines of a run that must not print a
    result or a traceback."""
    code = main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    assert "Traceback" not in err
    return code, err.splitlines()


@pytest.mark.parametrize("command", ["relations", "protogroup", "characters"])
@pytest.mark.parametrize("flags", [
    ["--degree", "1", "--order", "-3"],
    ["--degree", "1", "--coeff-degree", "-1"],
    ["--degree", "0"],
    ["--degree", "1", "--stabilize", "0"],
])
def test_meaningless_caps_exit_2(capsys, doc, command, flags):
    code, lines = refused(capsys, [command, "--system", doc,
                                   "--point", "0"] + flags)
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")


@pytest.mark.parametrize("flags", [
    ["--degree-override", "1", "--coeff-degree", "-1"],
    ["--degree-override", "1", "--order", "-3"],
    ["--degree-override", "0", "--order", "5"],
])
def test_galois_meaningless_caps_exit_2(capsys, doc, flags):
    code, lines = refused(capsys, ["galois", "--system", doc,
                                   "--point", "0"] + flags)
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")


def test_missing_system_file(capsys, tmp_path):
    missing = str(tmp_path / "absent.txt")
    code, lines = refused(capsys, ["relations", "--system", missing,
                                   "--degree", "1"])
    assert code == 2 and len(lines) == 1 and missing in lines[0]


def test_malformed_point(capsys, doc):
    code, lines = refused(capsys, ["relations", "--system", doc,
                                   "--degree", "1", "--point", "abc"])
    assert code == 2 and lines == [
        "error: expansion point 'abc' is not a rational number"]


def test_valid_relations_run(capsys, doc):
    assert main(["relations", "--system", doc, "--degree", "1",
                 "--point", "0", "--order", "12"]) == 0
    assert capsys.readouterr().out == "order_used: 12\nrigorous: yes\n"


@pytest.mark.parametrize("text", ["n: x\n", "n: 1\nA[1]: 1\n"])
def test_malformed_document(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, lines = refused(capsys, ["relations", "--system", str(path),
                                   "--degree", "1"])
    assert code == 1 and len(lines) == 1 and "malformed line" in lines[0]
