"""The output documents of the README worked examples, byte for byte.

`dgal galois` on each of the six `golden/<name>.sys` must print
`golden/<name>.out`; `dgal relations`, `protogroup` and `characters` on
five of them, and `protogroup` and `characters` on Airy, must print
`golden/<name>.<command>.out`."""

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

SUBCOMMAND_EXAMPLES = [
    ("mu2", ["--degree", "2"]),
    ("exp", ["--degree", "3", "--point", "0"]),
    ("t", ["--degree", "1"]),
    ("harmonic", ["--degree", "2", "--point", "0"]),
    ("diag23", ["--degree", "3"]),
]

# (name, flags, commands): Airy pins the SL2 character path
SUBCOMMANDS = [(name, flags, ["relations", "protogroup", "characters"])
               for name, flags in SUBCOMMAND_EXAMPLES] + [
    ("airy", ["--degree", "2"], ["protogroup", "characters"])]

CASES = [pytest.param("galois", name, flags, name + ".out", id=name)
         for name, flags in EXAMPLES] + [
    pytest.param(command, name, flags, "%s.%s.out" % (name, command),
                 id="%s-%s" % (name, command))
    for name, flags, commands in SUBCOMMANDS
    for command in commands]


@pytest.mark.parametrize("command,name,flags,golden", CASES)
def test_worked_example_document(capsys, command, name, flags, golden):
    code = main([command, "--system", str(GOLDEN / (name + ".sys"))] + flags)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert out == (GOLDEN / golden).read_text()
