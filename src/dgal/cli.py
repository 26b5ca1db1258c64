"""Command line interface: ``dgal <subcommand> [options]``.

Subcommands: bounds, series, relations, protogroup, characters, galois,
with the options in ``COMMANDS``: ``--flag value`` or ``--flag=value``,
never abbreviated.  ``-h``/``--help`` exits 0, a usage error exits 2;
a run exits 0 on success, 1 on an internal error, 2 on an unsupported
instance, 3 at a resource cap and 4 at a singular expansion point.

The galois subcommand refuses to run without --degree-override: the
unconditional degree bound is astronomically large by construction, so
it is printed symbolically instead of being executed, and results under
an override are labeled relative to that degree.
"""

import re
import sys
from types import SimpleNamespace

from .errors import DgalError, InputError
from .groups import characters_generators, identity_component
from .pipeline import PipelineConfig, galois_group, proto_galois
from .rational import Rational
from .relations import find_relations
from .systems import OdeSystem


def _load_system(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as err:
        raise InputError("cannot read system document %s: %s"
                         % (path, err.strerror or err)) from None
    return OdeSystem.from_document(text)


# the strings the standard Fraction type reads: an integer, p/q or a decimal
_RATIONAL = re.compile(r"\s*([-+]?)(?=\d|\.\d)(\d*|\d+(?:_\d+)*)"
                       r"(?:/(\d+(?:_\d+)*)|(?:\.(\d+(?:_\d+)*)?)?"
                       r"(?:[eE]([-+]?\d+(?:_\d+)*))?)\s*")


def _point(sys_, text):
    """The expansion point given on the command line, or t = 1."""
    if text is None:
        return sys_.R.const.one
    got = _RATIONAL.fullmatch(text)
    try:
        if got is None:
            raise ValueError(text)
        sign, whole, den, decimal, exp = got.groups()
        decimal = (decimal or "").replace("_", "")
        num = int(whole or "0") * 10 ** len(decimal) + int(decimal or "0")
        e = int(exp or "0") - len(decimal)
        value = Rational((-num if sign == "-" else num) * 10 ** max(e, 0),
                         int(den or "1") * 10 ** max(-e, 0))
    except (ValueError, ZeroDivisionError):
        raise InputError("expansion point %r is not a rational number"
                         % text) from None
    return sys_.R.const.from_fraction(value)


def _setup(args, degree):
    """The system and the pipeline settings of a relation-based run."""
    sys_ = _load_system(args.system)
    return sys_, PipelineConfig(degree=degree, a=_point(sys_, args.point),
                                ell=args.coeff_degree, order=args.order)


def cmd_bounds(args):
    from . import bounds as B
    n = args.n
    if n < 1:
        raise InputError("system dimension must be >= 1, got %d" % n)
    expr = B.proto_galois_degree_bound(n)
    mag = B.evaluate(expr, bit_cap=args.exact_bit_cap) \
        if args.exact_bit_cap is not None else B.evaluate(expr)
    print("degree_bound(n=%d) = %s" % (n, B.render(expr)))
    print("log2(log2(value)) in %s" % B.format_bracket(mag.loglog2()))
    k1, k2, k3 = B.kappas(n)
    for name, e in [("kappa1", k1), ("kappa2", k2), ("kappa3", k3),
                    ("iterations", B.iteration_bound(n))]:
        print("%s = %s" % (name, B.render(e)))
    return 0


def cmd_series(args):
    if args.order < 0:
        raise InputError("truncation order must be >= 0, got %d" % args.order)
    sys_ = _load_system(args.system)
    G = sys_.fundamental_series(_point(sys_, args.point), args.order)
    k = G.field
    for i in range(G.n):
        for j in range(G.n):
            s = G.entry(i, j)
            print("Gamma[%d][%d]: %s" % (
                i + 1, j + 1, ", ".join(k.format(c) for c in s.coeffs)))
    return 0


def cmd_relations(args):
    sys_, cfg = _setup(args, args.degree)
    rel = find_relations(sys_, cfg.a, cfg.degree, cfg.ell, cfg.order)
    print("order_used: %d" % rel.order_used)
    print("rigorous: %s" % ("yes" if rel.rigorous else "no"))
    for P in rel.basis:
        print("relation: %s" % rel.ring.format(P))
    return 0


def cmd_protogroup(args):
    H, _rel = proto_galois(*_setup(args, args.degree))
    print("verified: yes")
    for g in H.generators:
        print("generator: %s" % H.ring.format(g))
    if not H.generators:
        print("generator-free: full group")
    return 0


def cmd_characters(args):
    H, _rel = proto_galois(*_setup(args, args.degree))
    chars = characters_generators(identity_component(H), args.degree)
    print("rank: %d" % len(chars))
    for ch in chars:
        print("character: %s" % ch.ring.format(ch.poly))
    return 0


def cmd_galois(args):
    if args.degree_override is None:
        from . import bounds as B
        expr = B.proto_galois_degree_bound(_load_system(args.system).n)
        print("refusing to run: the unconditional degree bound is not "
              "executable at desk scale.")
        print("symbolic degree bound: %s" % B.render(expr))
        print("pass --degree-override D to run relative to degree D.")
        return 2
    desc = galois_group(*_setup(args, args.degree_override))
    sys.stdout.write(desc.to_document())
    return 0


# (flag, dest, type, default, required, help) of every subcommand that
# expands the system at a point and solves for its relations; a required
# option's default is None
_COMMON = (
    ("--system", "system", str, None, True, "system document file"),
    ("--point", "point", str, None, False,
     "expansion point (a rational number)"),
    ("--coeff-degree", "coeff_degree", int, 2, False,
     "rational coefficient degree cap"),
    ("--order", "order", int, None, False,
     "explicit truncation order (default: the first certified one)"),
)
_DEGREE = ("--degree", "degree", int, None, True, "relation degree cap")

# name -> (help line, handler, option specs), in the order of the listing
COMMANDS = {
    "bounds": ("print the symbolic degree bound tower", cmd_bounds, (
        ("--n", "n", int, 1, False, "system dimension"),
        ("--exact-bit-cap", "exact_bit_cap", int, None, False,
         "bit cap for exact bound evaluation"))),
    "series": ("truncated fundamental matrix", cmd_series, _COMMON[:2] + (
        ("--order", "order", int, 10, False, "truncation order"),)),
    "relations": ("relation ideal basis", cmd_relations, _COMMON + (_DEGREE,)),
    "protogroup": ("stabilizer of the relation ideal", cmd_protogroup,
                   _COMMON + (_DEGREE,)),
    "characters": ("character lattice of the identity component",
                   cmd_characters, _COMMON + (_DEGREE,)),
    "galois": ("full Galois group computation", cmd_galois, _COMMON + (
        ("--degree-override", "degree_override", int, None, False,
         "run relative to this relation degree"),)),
}


def _exit(name, code, text):
    """End the process with the help (code 0, on stdout) or as a usage
    error (code 2, on stderr), after the usage line of ``name``."""
    usage = ("usage: dgal [-h] {%s} ...\n" % ",".join(COMMANDS) if name is None
             else "usage: dgal %s [-h] %s\n" % (name, " ".join(
                 ("%s %s" if req else "[%s %s]") % (flag, dest.upper())
                 for flag, dest, _, _, req, _ in COMMANDS[name][2])))
    if code:
        sys.stderr.write(usage + "dgal: error: %s\n" % text)
    else:
        sys.stdout.write(usage + text)
    raise SystemExit(code)


def _help(name):
    """End the process with the help of dgal, or of its subcommand
    ``name``: what it does, then one aligned row per command or option."""
    if name is None:
        text, title = ("differential Galois groups of linear ODE systems "
                       "over the rational functions, in exact arithmetic",
                       "commands")
        rows = [(cmd, spec[0]) for cmd, spec in COMMANDS.items()]
    else:
        text, title = COMMANDS[name][0], "options"
        rows = [("-h, --help", "show this help message and exit")] + [
            ("%s %s" % (flag, dest.upper()), hint)
            for flag, dest, _, _, _, hint in COMMANDS[name][2]]
    width = max(len(row) for row, _ in rows)
    _exit(name, 0, "\n%s\n\n%s:\n%s\n" % (text, title, "\n".join(
        "  %-*s  %s" % (width, row, hint) for row, hint in rows)))


def parse_args(argv):
    """The handler and the options of a command line, read off COMMANDS:
    ``--flag value`` or ``--flag=value``, the last given counts, with no
    abbreviation.  ``-h``/``--help`` and usage errors end the process."""
    name = argv[0] if argv else None
    if name in ("-h", "--help"):
        _help(None)
    if name not in COMMANDS:
        _exit(None, 2, "argument command: invalid choice: %r (choose from %s)"
              % (name, ", ".join(map(repr, COMMANDS))) if argv else
              "the following arguments are required: command")
    specs = {spec[0]: spec for spec in COMMANDS[name][2]}
    args = {dest: default for _, dest, _, default, _, _ in specs.values()}
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(name)
        flag, eq, value = token.partition("=")
        if flag not in specs:
            _exit(name, 2, "unrecognized arguments: %s" % token)
        if not eq:
            value = next(tokens, None)
            if value is None or value.startswith("--"):
                _exit(name, 2, "argument %s: expected one argument" % flag)
        _, dest, kind, _, _, _ = specs[flag]
        try:
            args[dest] = kind(value)
        except ValueError:
            _exit(name, 2, "argument %s: invalid %s value: %r"
                  % (flag, kind.__name__, value))
    missing = [flag for flag, dest, _, _, req, _ in specs.values()
               if req and args[dest] is None]
    if missing:
        _exit(name, 2, "the following arguments are required: %s"
              % ", ".join(missing))
    return COMMANDS[name][1], SimpleNamespace(**args)


def main(argv=None):
    func, args = parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        return func(args)
    except DgalError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
