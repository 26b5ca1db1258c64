import json
import os
import re
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest

import dgal
from dgal.cli import COMMANDS, _point, main, parse_args
from dgal.errors import InputError
from dgal.systems import OdeSystem


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


RELATION_CAPS = [
    ["--degree", "1", "--order", "-3"],
    ["--degree", "1", "--coeff-degree", "-1"],
    ["--degree", "0"],
]


@pytest.mark.parametrize("command,flags", [
    pytest.param(command, flags, id="flags%d-%s" % (i, command))
    for command in ["relations", "protogroup", "characters"]
    for i, flags in enumerate(RELATION_CAPS)
] + [pytest.param("series", ["--order", "-3"], id="series-order")])
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


def usage_exit(capsys, argv):
    """Exit code, stdout and stderr lines of a command line that ends the
    process before any run: its help or a usage error."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    return exc.value.code, out, err.splitlines()


@pytest.mark.parametrize("name", list(COMMANDS))
def test_subcommand_help_lists_every_option(capsys, name):
    for flag in ["--help", "-h"]:
        code, out, err = usage_exit(capsys, [name, flag])
        assert (code, err) == (0, [])
        assert out.startswith("usage: dgal %s [-h] " % name)
        for option, dest, _type, _default, _required, text in \
                COMMANDS[name][2]:
            assert text and re.search(r"^ +%s %s +%s$" % (
                option, dest.upper(), re.escape(text)), out, re.M)


@pytest.mark.parametrize("argv,token", [
    pytest.param(["galois", "--system", "sys.txt", "--bogus"], "--bogus",
                 id="unknown-flag"),
    pytest.param(["galois", "--system", "sys.txt", "extra"], "extra",
                 id="stray-positional"),
    pytest.param(["relations", "--system", "sys.txt"], "--degree",
                 id="missing-required"),
    pytest.param(["bounds", "--n", "two"], "'two'", id="bad-int"),
    pytest.param(["galois", "--system", "sys.txt", "--degree-o", "2"],
                 "--degree-o", id="prefix-abbreviation"),
    pytest.param(["relations", "--degree", "1", "--system"], "--system",
                 id="flag-without-value"),
])
def test_usage_errors_exit_2(capsys, argv, token):
    code, out, err = usage_exit(capsys, argv)
    assert (code, out, len(err)) == (2, "", 2)
    assert err[0].startswith("usage: dgal %s [-h] " % argv[0])
    assert err[1].startswith("dgal: error: ") and token in err[1]


COMMON_DEFAULTS = {"point": None, "coeff_degree": 2, "order": None}


@pytest.mark.parametrize("argv,options", [
    pytest.param(["relations", "--system", "s", "--degree", "1",
                  "--point", "-1/2"],
                 dict(COMMON_DEFAULTS, system="s", degree=1, point="-1/2"),
                 id="relations"),
    pytest.param(["galois", "--system", "s", "--order", "3", "--order", "4"],
                 dict(COMMON_DEFAULTS, system="s", order=4,
                      degree_override=None), id="galois-last-counts"),
    pytest.param(["bounds", "--exact-bit-cap", "8"],
                 {"n": 1, "exact_bit_cap": 8}, id="bounds"),
])
def test_flag_equals_value_reads_as_flag_then_value(argv, options):
    joined = argv[:1] + ["%s=%s" % pair
                         for pair in zip(argv[1::2], argv[2::2])]
    for line in [argv, joined]:
        func, args = parse_args(line)
        assert func is COMMANDS[argv[0]][1] and vars(args) == options


@pytest.mark.parametrize("argv", [[], ["--help"], ["gal"]])
def test_full_parser_lists_every_subcommand(capsys, argv):
    with pytest.raises(SystemExit):
        main(argv)
    out, err = capsys.readouterr()
    listing = out or err
    assert "{%s}" % ",".join(COMMANDS) in listing
    if argv == ["--help"]:
        for name, (text, _func, _args) in COMMANDS.items():
            assert re.search(r"^ +%s +%s$" % (name, re.escape(text)), out,
                             re.M)


def test_missing_system_file(capsys, tmp_path):
    missing = str(tmp_path / "absent.txt")
    code, lines = refused(capsys, ["relations", "--system", missing,
                                   "--degree", "1"])
    assert code == 2 and len(lines) == 1 and missing in lines[0]


POINT_SYSTEM = OdeSystem.from_document("n: 1\nA[1][1]: 1\n")


@pytest.mark.parametrize("text", [
    "0", "-3", "+7", "1/2", "-2/6", " 2 ", "0.5", "-1e-3", "1.", ".5",
    "1.e2", "1E+2", "1_000", "1_0.2_5e1_0", "\t3/4\n", "\u0663/4",
    "abc", "", " ", ".", "-", "1/0", "0/0", "1/-2", "1 /2", "1/ 2", "1/2.5",
    "1e", "e5", "1..2", "1__0", "_1", "1_", "1.5_", "1.d", "0x10", "1e2/3",
    "inf", "nan", "1/2/3", "--1", "\u00bd",
])
def test_point_reads_what_fraction_reads(text):
    """--point takes the strings fractions.Fraction takes, as the same
    numbers, and refuses the others."""
    try:
        want = Fraction(text)
    except (ValueError, ZeroDivisionError):
        with pytest.raises(InputError):
            _point(POINT_SYSTEM, text)
    else:
        got = _point(POINT_SYSTEM, text)
        assert Fraction(got.numerator, got.denominator) == want


def test_malformed_point(capsys, doc):
    code, lines = refused(capsys, ["relations", "--system", doc,
                                   "--degree", "1", "--point", "abc"])
    assert code == 2 and lines == [
        "error: expansion point 'abc' is not a rational number"]


def test_valid_relations_run(capsys, doc):
    assert main(["relations", "--system", doc, "--degree", "1",
                 "--point", "0", "--order", "12"]) == 0
    assert capsys.readouterr().out == "order_used: 12\nrigorous: yes\n"


def test_constant_relation_is_not_rigorous(capsys, doc):
    """At a low order the truncated kernel of y' = y holds the constant 1,
    which cannot vanish at F = exp(t): that basis is not proved."""
    assert main(["relations", "--system", doc, "--degree", "1",
                 "--point", "0", "--order", "6"]) == 0
    assert capsys.readouterr().out == (
        "order_used: 6\nrigorous: no\nrelation: x_1_1\nrelation: 1\n")


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv", [["galois", "--degree-override", "1"],
                                  ["protogroup", "--degree", "1"]])
def test_constant_relation_is_refused(capsys, argv):
    """At order 0 the truncated kernel of the Airy system holds the
    constant 1, which cannot vanish at F: the group commands refuse that
    basis (exit 2) and name the order, where they once answered with the
    full group."""
    code, lines = refused(capsys, argv + [
        "--system", str(GOLDEN / "airy.sys"), "--order", "0"])
    assert code == 2
    assert lines == ["error: the relations found at truncation order 0 "
                     "include a nonzero constant, which cannot vanish at "
                     "the fundamental matrix; that order is too low"]


def test_pade_approximant_is_not_rigorous(capsys):
    """At order 7 the truncated kernel of y' = y holds x_1_1 minus a Pade
    approximant of exp(t), a false relation that the certificate
    rejects."""
    assert main(["relations", "--system", str(GOLDEN / "exp.sys"),
                 "--degree", "1", "--point", "0", "--order", "7"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["order_used: 7", "rigorous: no"]
    assert lines[2].startswith("relation: x_1_1 + ((-1*t^4 + -20*t^3")


def test_spurious_airy_relations_are_not_rigorous(capsys):
    """At order 20 the truncated kernel of the Airy system spans all 15
    monomials of degree <= 2, where only the determinant relation is
    true."""
    assert main(["relations", "--system", str(GOLDEN / "airy.sys"),
                 "--degree", "2", "--order", "20"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:2] == ["order_used: 20", "rigorous: no"]
    assert len(lines) == 2 + 15


def test_refusal_names_an_uncertified_order(capsys):
    """At order 8 the relation basis of y' = y/(2t) is not certified, and
    the finite part cannot be read off it."""
    code, lines = refused(capsys, ["galois", "--system",
                                   str(GOLDEN / "mu2.sys"),
                                   "--degree-override", "2", "--order", "8"])
    assert code == 2 and len(lines) == 1
    assert lines[0].startswith("error: F_bar is not in k(t)(gamma)")
    assert lines[0].endswith(
        "; the relation basis at order 8 is not certified")


@pytest.mark.parametrize("text", [
    "n: x\n", "n: 1\nA[1]: 1\n", "n: 0\n", "n: -1\n",
    "n: 1\nA[1][1]: 1/0\n", "n: 1\nA[1][1]: 1/(t-t)\n",
    "n: 1\nA[1][1]: foo\n", "n: 1\nA[1][1]: 1\nA[2][1]: 1\n",
    "n: 1\nB: 2\n", "n: 1\nfield: g^2 - 1\nA[1][1]: 1\n",
])
def test_malformed_document(capsys, tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, lines = refused(capsys, ["relations", "--system", str(path),
                                   "--degree", "1"])
    assert code == 2 and len(lines) == 1 and "malformed line" in lines[0]


@pytest.mark.parametrize("text,message", [
    ("n: 1\n", "error: missing entry A[1][1]"),
    ("A[1][1]: 1\n", "error: system document lacks the dimension line 'n:'"),
])
def test_incomplete_document(capsys, tmp_path, text, message):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    code, lines = refused(capsys, ["relations", "--system", str(path),
                                   "--degree", "1"])
    assert code == 2 and lines == [message]


def tower_exponents(line):
    """(lo, hi) of a "log2(log2(value)) in [2^(2^lo), 2^(2^hi)]" line."""
    got = re.fullmatch(r"log2\(log2\(value\)\) in "
                       r"\[2\^\(2\^([0-9.]+)\), 2\^\(2\^([0-9.]+)\)\]", line)
    assert got, line
    return float(got.group(1)), float(got.group(2))


def test_bounds_brackets_the_tower(capsys):
    """The default run and every exact-bit cap end cleanly, in seconds,
    and a smaller cap gives a bracket around the default one."""
    brackets = {}
    for cap in [None, "1", "8", "64"]:
        t0 = time.perf_counter()
        code = main(["bounds"] + (["--exact-bit-cap", cap] if cap else []))
        elapsed = time.perf_counter() - t0
        out, err = capsys.readouterr()
        lines = out.splitlines()
        assert (code, err) == (0, "") and elapsed < 20
        assert lines[0].startswith("degree_bound(n=1) = ")
        assert [line.split(" = ")[0] for line in lines[2:]] == \
            ["kappa1", "kappa2", "kappa3", "iterations"]
        brackets[cap] = tower_exponents(lines[1])
    lo, hi = brackets[None]
    assert lo <= hi
    for cap in ["1", "8", "64"]:
        assert brackets[cap][0] <= lo and hi <= brackets[cap][1]


@pytest.mark.parametrize("n,expected", [("0", 2), ("-1", 2)])
def test_bounds_refusals(capsys, n, expected):
    t0 = time.perf_counter()
    code, lines = refused(capsys, ["bounds", "--n", n])
    assert time.perf_counter() - t0 < 20
    assert code == expected and len(lines) == 1 and lines[0].startswith("error:")


# an end of the bracket: 2^(2^(...2^z)), nested as deep as it needs
_NESTED_END = r"(?:2\^\()*2\^[0-9.]+\)*"


@pytest.mark.parametrize("n,seconds", [
    pytest.param(n, seconds, id=n)
    for n, seconds in [("2", 2), ("3", 2), ("300", 2), ("3000", 10)]])
def test_bounds_brackets_every_n(capsys, n, seconds):
    """The tower has no level cap: every n gets a bracket, in seconds."""
    t0 = time.perf_counter()
    code = main(["bounds", "--n", n])
    elapsed = time.perf_counter() - t0
    out, err = capsys.readouterr()
    assert (code, err) == (0, "") and elapsed < seconds
    assert re.fullmatch(r"log2\(log2\(value\)\) in \[%s, %s\]"
                        % (_NESTED_END, _NESTED_END), out.splitlines()[1])


def test_bounds_top_index_is_as_tight_for_n_3(capsys):
    """The binomial's lower end (a - k + 1)^k / k! shares the upper end's
    k!, so the n = 3 top index bracket is no wider than those of n = 1
    and n = 2; (a/k)^k left it about 10 wide."""
    widths = {}
    for n in ["1", "2", "3"]:
        assert main(["bounds", "--n", n]) == 0
        line = capsys.readouterr()[0].splitlines()[1]
        lo, hi = re.findall(r"2\^([0-9.]+)\)*[,\]]", line)
        widths[n] = Decimal(hi) - Decimal(lo)
    assert 0 <= widths["3"] <= min(widths["1"], widths["2"])


def test_three_radical_diagonal_prints_the_ideal_generators(capsys,
                                                             tmp_path):
    """diag(1/(2t), 1/(3t), 1/(5t)) at degree 5 has 1976 basis relations,
    of which 9 generate the ideal; the proto-group is read off those 9,
    and the group is still cyclic of order 30."""
    path = tmp_path / "diag235.txt"
    diagonal = ["1/(2*t)", "1/(3*t)", "1/(5*t)"]
    path.write_text("n: 3\n" + "".join(
        "A[%d][%d]: %s\n" % (i + 1, j + 1, diagonal[i] if i == j else "0")
        for i in range(3) for j in range(3)))
    code = main(["galois", "--system", str(path), "--degree-override", "5"])
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert (code, err) == (0, "")
    assert "order: 30" in lines and "rigorous: yes" in lines
    assert [line for line in lines if line.startswith("proto_generator:")] \
        == ["proto_generator: " + g for g in [
            "x_3_3^5 + -1", "x_2_2^3 + -1", "x_1_1^2 + -1", "x_1_2", "x_1_3",
            "x_2_1", "x_2_3", "x_3_1", "x_3_2"]]


def test_degree_one_character_run(capsys):
    """Degree-1 relations stop at order 8, below the 4 * ell + 3 that the
    logarithmic derivative of a character needs at ell = 2; the
    character path expands F_bar far enough on its own."""
    exp = Path(__file__).parent / "golden" / "exp.sys"
    code = main(["galois", "--system", str(exp), "--degree-override", "1",
                 "--point", "0"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    assert "dimension: 1" in out.splitlines()


@pytest.fixture
def pole_doc(tmp_path):
    path = tmp_path / "pole.txt"
    path.write_text("n: 1\nA[1][1]: 1/(2*t)\n")
    return str(path)


RUN_FLAGS = {
    "series": [],
    "relations": ["--degree", "1"],
    "protogroup": ["--degree", "1"],
    "characters": ["--degree", "1"],
    "galois": ["--degree-override", "2"],
}


@pytest.mark.parametrize("command", sorted(RUN_FLAGS))
def test_pole_exits_4(capsys, pole_doc, command):
    code, lines = refused(capsys, [command, "--system", pole_doc,
                                   "--point", "0"] + RUN_FLAGS[command])
    assert code == 4 and lines == ["error: pole of (1/2)/(t) at t = 0"]


@pytest.mark.parametrize("command", sorted(RUN_FLAGS))
def test_caps_checked_before_the_point(capsys, pole_doc, command):
    code, lines = refused(capsys, [command, "--system", pole_doc,
                                   "--point", "0", "--order", "-3"]
                          + RUN_FLAGS[command])
    assert code == 2 and len(lines) == 1 and lines[0].startswith("error:")


# imports the CLI, then runs galois on each system with its flags in
# the same interpreter; prints the exit codes and, after the import and
# after the runs, the modules loaded of those a run must not pay for
_IMPORTS_DURING_RUNS = """
import json, sys

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in (
        "sympy", "mpmath", "argparse", "gettext", "fractions", "decimal"))

from dgal.cli import main
after_import = loaded()
codes = [main(["galois", "--system", path] + flags)
         for path, flags in json.loads(sys.argv[1])]
print(json.dumps([after_import, codes, loaded()]))
"""


def test_galois_runs_import_no_sympy():
    """dgal does its own arithmetic: importing the CLI and running
    galois on the six worked examples loads no sympy module and no
    mpmath.  Nor does a run pay for a cold argparse (which loads
    gettext) or for fractions and decimal: the CLI reads its arguments
    and the expansion point itself."""
    from test_golden import EXAMPLES, GOLDEN
    runs = [[str(GOLDEN / (name + ".sys")), flags] for name, flags in EXAMPLES]
    env = dict(os.environ,
               PYTHONPATH=str(Path(dgal.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _IMPORTS_DURING_RUNS,
                          json.dumps(runs)], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    after_import, codes, loaded = json.loads(run.stdout.splitlines()[-1])
    assert codes == [0] * len(EXAMPLES)
    assert after_import == [] and loaded == []


# runs bounds for each n in one interpreter and prints the exit codes and
# the mpmath and fractions modules loaded
_IMPORTS_DURING_BOUNDS = """
import json, sys
from dgal.cli import main

codes = [main(["bounds", "--n", n]) for n in sys.argv[1:]]
loaded = [m for m in sys.modules if m.split(".")[0] in ("mpmath", "fractions")]
print(json.dumps([codes, sorted(loaded)]))
"""


def test_bounds_runs_import_no_mpmath():
    """The bound tower runs on dgal's own rationals: no mpmath, no
    fractions."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(dgal.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _IMPORTS_DURING_BOUNDS,
                          "1", "2", "3"], capture_output=True, text=True,
                         env=env, timeout=120, check=True)
    assert json.loads(run.stdout.splitlines()[-1]) == [[0, 0, 0], []]


# runs galois and fails when it loaded any sympy module, the only source
# of symbolic roots (radicals, CRootOf) the package could reach
_NO_SYMBOLIC_ROOT = """
import sys
from dgal.cli import main

code = main(["galois", "--system", sys.argv[1]] + sys.argv[2:])
if any(m.split(".")[0] == "sympy" for m in sys.modules):
    sys.exit("a sympy module was loaded")
sys.exit(code)
"""


@pytest.mark.parametrize("name,flags", [
    ("harmonic", ["--degree-override", "2", "--point", "0"]),
    ("diag23", ["--degree-override", "3"]),
])
def test_galois_run_builds_no_symbolic_root(name, flags):
    """Number fields on the solve path are their minimal polynomials: the
    runs that split x^2 + 1 and x^6 - 1 never form a radical."""
    golden = Path(__file__).parent / "golden"
    env = dict(os.environ,
               PYTHONPATH=str(Path(dgal.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _NO_SYMBOLIC_ROOT,
                          str(golden / (name + ".sys"))] + flags,
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    assert run.stdout == (golden / (name + ".out")).read_text()


@pytest.mark.parametrize("name,flags,order", [
    ("mu2", ["--degree-override", "2", "--point", "2"], 2),
    ("diag23", ["--degree-override", "3", "--point", "8"], 6),
    ("diag23", ["--degree-override", "3", "--point", "2"], 6),
])
def test_radical_run_at_a_point_without_rational_root(capsys, name, flags, order):
    """t^(1/2) at t = 2 is irrational, but gamma^M = t/2 has gamma(2) =
    1: the run needs no root of 2 and keeps its order."""
    system = Path(__file__).parent / "golden" / (name + ".sys")
    code = main(["galois", "--system", str(system)] + flags)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "order: %d" % order in lines and "sandwich_checked: yes" in lines


def test_radical_run_over_a_tower_builds_no_symbolic_root():
    """At t = 2 the finite part needs only the roots of x^6 - 1, since
    gamma^6 = t/2 has the rational root gamma(2) = 1; they lie in a
    number field made by Trager's norm, with no symbolic root."""
    system = Path(__file__).parent / "golden" / "diag23.sys"
    env = dict(os.environ,
               PYTHONPATH=str(Path(dgal.__file__).resolve().parents[1]))
    run = subprocess.run([sys.executable, "-c", _NO_SYMBOLIC_ROOT, str(system),
                          "--degree-override", "3", "--point", "2"],
                         capture_output=True, text=True, env=env, timeout=120)
    assert (run.returncode, run.stderr) == (0, "")
    lines = run.stdout.splitlines()
    assert "order: 6" in lines and "sandwich_checked: yes" in lines


def test_group_does_not_depend_on_the_point(capsys):
    """diag(1/(2t), 1/(3t)) at t = 1, 2 and 8 prints the same mu6, point
    for point."""
    system = str(Path(__file__).parent / "golden" / "diag23.sys")
    seen = []
    for point in ["1", "2", "8"]:
        code = main(["galois", "--system", system, "--degree-override", "3",
                     "--point", point])
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        seen.append([line for line in out.splitlines()
                     if line.startswith(("order:", "point:"))])
    assert len(seen[0]) == 7 and seen[0] == seen[1] == seen[2]


def _system(tmp_path, rows):
    path = tmp_path / "system.txt"
    lines = ["n: %d" % len(rows)]
    for i, row in enumerate(rows):
        for j, entry in enumerate(row):
            lines.append("A[%d][%d]: %s" % (i + 1, j + 1, entry))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.mark.parametrize("rows", [
    pytest.param([["1/(2*t)", "-1/(6*t)"], ["0", "1/(3*t)"]], id="P11"),
    pytest.param([["2/(3*t)", "-1/(6*t)"], ["1/(3*t)", "1/(6*t)"]],
                 id="P12"),
])
def test_gauge_transformed_radical_systems_answer(capsys, tmp_path, rows):
    """diag(1/(2t), 1/(3t)) after the constant gauges P = [[1, 1], [0, 1]]
    and [[1, 1], [1, 2]]: F_bar = P diag(gamma^3, gamma^2) P^-1 with
    gamma^6 = t, so the group is mu6 in non-diagonal form."""
    code = main(["galois", "--system", _system(tmp_path, rows),
                 "--degree-override", "3"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "order: 6" in lines and "sandwich_checked: yes" in lines


@pytest.mark.parametrize("point,reason", [
    pytest.param("2", "F_bar is not in k(t)(gamma), gamma^2 = t/a, at "
                 "coefficient degree <= 4", id="point2"),
    pytest.param("0", "gamma^2 = t/a has no expansion at the branch point "
                 "a = 0", id="point0"),
])
def test_radical_of_another_polynomial_refuses_with_exit_2(
        capsys, tmp_path, point, reason):
    """y' = y/(2t - 2) has the solution (t - 1)^(1/2), which is not in
    k(t)(gamma) for gamma^2 = t/a: the finite part is refused as
    unsupported, not as an internal error, and so is the point a = 0,
    where gamma has no expansion."""
    system = _system(tmp_path, [["1/(2*t - 2)"]])
    code, lines = refused(capsys, ["galois", "--system", system,
                                   "--degree-override", "2",
                                   "--point", point])
    assert (code, lines) == (2, ["error: " + reason])


def test_finite_part_over_a_torus_is_refused_before_alpha(capsys, tmp_path):
    """diag(1/(2t), 1) has the group mu2 x G_m: its proto-group's reduced
    basis is diagonal binomial with a one-dimensional component, and the
    finite part over it is the refusal."""
    system = _system(tmp_path, [["1/(2*t)", "0"], ["0", "1"]])
    code, lines = refused(capsys, ["galois", "--system", system,
                                   "--degree-override", "2"])
    assert (code, lines) == (2, [
        "error: finite part over a positive dimensional component is "
        "outside the supported class"])


def test_relation_between_independent_characters_cuts_the_torus(
        capsys, tmp_path):
    """y1 y2 = sqrt(t) e^t sqrt(t) e^(-t) = t is rational, although
    neither y1 nor y2 alone has a rational power: the relation lattice
    holds (1, 1), so G lies in {x_1_1 x_2_2 = 1}, a proper cut of the
    diagonal torus H, and the run refuses instead of answering
    dimension 2."""
    system = _system(tmp_path, [["1/(2*t) + 1", "0"], ["0", "1/(2*t) - 1"]])
    code, lines = refused(capsys, ["galois", "--system", system,
                                   "--degree-override", "1"])
    assert (code, lines) == (2, [
        "error: the character relations cut the component properly; the "
        "finite part over a positive dimensional component is outside the "
        "supported class"])


@pytest.mark.parametrize("rows,dimension", [
    pytest.param([["0", "1"], ["-4", "0"]], 1, id="conic"),
    pytest.param([["1", "1"], ["0", "2"]], 1, id="triangular-torus"),
    pytest.param([["0", "1/t"], ["0", "0"]], 1, id="Ga-log"),
    pytest.param([["0", "1"], ["0", "-1/t"]], 1, id="Ga-companion"),
    pytest.param([["1", "1/t"], ["0", "0"]], 2, id="affine"),
])
def test_prime_graph_groups_answer(capsys, tmp_path, rows, dimension):
    """Each proto-group here is the graph of its degree-1 basis elements
    over at most one polynomial irreducible over QQ: y'' = -4y (a conic
    x_2_1^2 + 4 x_2_2^2 = 4), a torus in a triangular basis, G_a twice
    (solutions 1 and log t) and {[[a, b], [0, 1]]}.  Its ideal is prime,
    so the group is connected and of dimension n^2 minus the basis
    length."""
    code = main(["galois", "--system", _system(tmp_path, rows),
                 "--degree-override", "2"])
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert "dimension: %d" % dimension in lines
    assert "components: 1" in lines and "sandwich_checked: yes" in lines
