"""Command line interface.

Subcommands: bounds, series, relations, protogroup, characters, galois.
Exit codes: 0 success, 1 internal error, 2 unsupported instance,
3 resource cap, 4 singular expansion point.

The galois subcommand refuses to run without --degree-override: the
unconditional degree bound is astronomically large by construction, so
it is printed symbolically instead of being executed, and results under
an override are labeled relative to that degree.
"""

import argparse
import sys
from fractions import Fraction

from .errors import DgalError, InputError
from .groups import characters_generators, identity_component
from .pipeline import PipelineConfig, galois_group, proto_galois
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


def _point(sys_, text):
    """The expansion point given on the command line, or t = 1."""
    if text is None:
        return sys_.R.const.one
    try:
        value = Fraction(text)
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
    if mag.is_exact:
        print("value = %s" % mag.exact_int())
    else:
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


def _add_common(p):
    """The options of every subcommand that expands the system at a point
    and solves for its relations."""
    p.add_argument("--system", required=True, help="system document file")
    p.add_argument("--point", help="expansion point (a rational number)")
    p.add_argument("--coeff-degree", type=int, default=2, dest="coeff_degree",
                   help="rational coefficient degree cap")
    p.add_argument("--order", type=int,
                   help="explicit truncation order (default: the first "
                        "order whose relation basis is certified)")


def _bounds_args(p):
    p.add_argument("--n", type=int, default=1, help="system dimension")
    p.add_argument("--exact-bit-cap", type=int, default=None,
                   dest="exact_bit_cap",
                   help="bit cap for exact bound evaluation")


def _series_args(p):
    p.add_argument("--system", required=True)
    p.add_argument("--point")
    p.add_argument("--order", type=int, default=10)


def _degree_args(p):
    _add_common(p)
    p.add_argument("--degree", type=int, required=True,
                   help="relation degree cap")


def _galois_args(p):
    _add_common(p)
    p.add_argument("--degree-override", type=int, default=None,
                   dest="degree_override",
                   help="run relative to this relation degree")


# name -> (help line, handler, options), in the order of the listing
COMMANDS = {
    "bounds": ("print the symbolic degree bound tower", cmd_bounds,
               _bounds_args),
    "series": ("truncated fundamental matrix", cmd_series, _series_args),
    "relations": ("relation ideal basis", cmd_relations, _degree_args),
    "protogroup": ("stabilizer of the relation ideal", cmd_protogroup,
                   _degree_args),
    "characters": ("character lattice of the identity component",
                   cmd_characters, _degree_args),
    "galois": ("full Galois group computation", cmd_galois, _galois_args),
}


def build_parser(only=None):
    """The dgal argument parser.  With ``only`` set to a subcommand name,
    the other subcommands' parsers are not built, and the usage line
    still lists them all, so that subcommand's help and errors read as
    under the full parser."""
    parser = argparse.ArgumentParser(
        prog="dgal",
        description="differential Galois groups of linear ODE systems "
                    "over the rational functions, in exact arithmetic")
    # argparse names the subcommand argument by its metavar in errors,
    # so the full parser keeps the default one
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{%s}" % ",".join(COMMANDS))
    for name, (text, func, add_args) in COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=text)
            add_args(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None):
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the parser of the subcommand asked for; no subcommand, --help
    # or an unknown name gets the full parser and its listing
    only = argv[0] if argv and argv[0] in COMMANDS else None
    args = build_parser(only).parse_args(argv)
    try:
        return args.func(args)
    except DgalError as err:
        print("error: %s" % err, file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
