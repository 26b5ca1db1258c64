"""The `dgal galois` documents of the six README worked examples, byte
for byte.  Each `golden/<name>.sys` is run with its flags and the output
must equal `golden/<name>.out`."""

from pathlib import Path

import pytest

from dgal.cli import main

GOLDEN = Path(__file__).parent / "golden"

EXAMPLES = [
    ("mu2", ["--degree-override", "2"]),
    ("exp", ["--degree-override", "3", "--point", "0"]),
    ("t", ["--degree-override", "1"]),
    ("harmonic", ["--degree-override", "2", "--point", "0"]),
    ("airy", ["--degree-override", "2"]),
    ("diag23", ["--degree-override", "3"]),
]


@pytest.mark.parametrize("name,flags", EXAMPLES, ids=[e[0] for e in EXAMPLES])
def test_worked_example_document(capsys, name, flags):
    code = main(["galois", "--system", str(GOLDEN / (name + ".sys"))] + flags)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (GOLDEN / (name + ".out")).read_text()
