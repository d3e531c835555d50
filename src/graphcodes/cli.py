"""Command-line front end.

Subcommands: bounds, construct, verify, encode, decode, demo-paper-example.
Exit codes: 0 success, 1 usage/parse error, 2 infeasible construction,
3 search guard exceeded, 4 verification mismatch or decoding failure.
All artifacts are JSON; field elements are serialized as plain ints in
[0, q) next to the field descriptor.

Every command but ``bounds`` imports numpy: ``construct`` and ``verify``
are imported inside the commands that use them, so ``bounds`` loads only
the pure-Python layers.  The commands decide no verdict: ``verify`` and
``demo-paper-example`` print ``verify.verdict``'s problems as MISMATCH
lines and pick the exit code.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bounds import MODES, bounds_report
from .errors import (DecodingError, GuardExceededError, InconsistentCodeError,
                     InfeasibleError)
from .field import GF, smallest_prime_at_least
from .graph import ConstraintGraph, matched_adjacency

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_GUARD = 3
EXIT_MISMATCH = 4

# Bundled 3x7 demo instance over GF(7) with its known-good construction.
DEMO_ADJACENCY = (
    (1, 0, 0, 1, 1, 1, 1),
    (1, 1, 1, 0, 1, 1, 1),
    (0, 0, 1, 1, 1, 1, 1),
)
DEMO_MATCHED = (
    (1, 0, 0, 1, 1, 1, 1),
    (0, 1, 0, 0, 1, 1, 1),
    (0, 0, 1, 1, 1, 1, 1),
)
DEMO_T = (
    (1, 1, 5, 0),
    (0, 3, 1, 4),
    (0, 1, 6, 0),
)
DEMO_G = (
    (1, 0, 0, 2, 5, 1, 5),
    (0, 1, 0, 0, 1, 4, 1),
    (0, 0, 1, 5, 5, 2, 1),
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _csv_ints(text: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise _UsageError("expected comma-separated integers, got %r" % text)


def _load_graph(path) -> ConstraintGraph:
    try:
        return ConstraintGraph.load(path)
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError("cannot read graph file %s: %s" % (path, exc))


def _load_spec(path) -> CodeSpec:
    from .construct import CodeSpec

    try:
        return CodeSpec.load(path)
    except InconsistentCodeError:
        raise  # only `verify` reads such a file, to report it
    except (OSError, json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise _UsageError("cannot read code file %s: %s" % (path, exc))


def _emit(payload, out=None):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _field_for(args, n: int) -> GF:
    p = args.p if args.p is not None else smallest_prime_at_least(n)
    gf = GF(p, args.m, alpha=args.alpha)
    if gf.q < n:
        raise _UsageError("field order %d is smaller than the code length %d" % (gf.q, n))
    return gf


def cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    _emit(bounds_report(g, max_exact_s=args.max_exact_s).to_dict(), args.out)
    return EXIT_OK


def cmd_construct(args) -> int:
    from .construct import (generic_subcode, rs_nullspace_construct, systematic_dmin,
                            systematic_dsys)

    if args.k is not None and args.mode not in ("generic", "mds-nullspace"):
        raise _UsageError("--k applies only to --mode generic and --mode mds-nullspace")
    g = _load_graph(args.graph)
    gf = _field_for(args, g.n)
    nodes = tuple(_csv_ints(args.defining_set)) if args.defining_set else None
    limit = args.max_exact_s

    if args.mode == "generic":
        spec = generic_subcode(g, gf, nodes=nodes, k=args.k, max_exact_s=limit)
    elif args.mode == "systematic-dmin":
        spec = systematic_dmin(g, gf, nodes=nodes, max_exact_s=limit)
    elif args.mode == "systematic-dsys":
        spec = systematic_dsys(g, gf, nodes=nodes, max_exact_s=limit)
    else:  # mds-nullspace
        spec = rs_nullspace_construct(g, gf, k=args.k, nodes=nodes, max_exact_s=limit)

    _emit(spec.to_dict(), args.out)
    print("mode=%s [n=%d, s=%d] k=%d claimed_distance=%d%s systematic_columns=%s"
          % (spec.mode, spec.n, spec.s, spec.rs.k, spec.claimed_distance,
             " (exact)" if spec.distance_exact else " (lower bound)",
             list(spec.matching) if spec.matching is not None else None),
          file=sys.stderr)
    return EXIT_OK


def _exit_for(problems) -> int:
    for p in problems:
        print("MISMATCH: %s" % p, file=sys.stderr)
    return EXIT_MISMATCH if problems else EXIT_OK


def cmd_verify(args) -> int:
    from .verify import verdict, verification_report

    problems = []
    try:
        spec = _load_spec(args.code)
    except InconsistentCodeError as exc:
        spec = exc.spec
        problems.append(str(exc))
    g = _load_graph(args.graph)
    report = verification_report(spec, g)
    _emit(report, args.out)
    return _exit_for(problems + verdict(spec, report))


def cmd_encode(args) -> int:
    from .verify import subcode_encode

    spec = _load_spec(args.code)
    _emit(subcode_encode(spec, _csv_ints(args.message)), args.out)
    return EXIT_OK


def cmd_decode(args) -> int:
    from .verify import subcode_decode

    spec = _load_spec(args.code)
    erasures = _csv_ints(args.erasures) if args.erasures else []
    _emit(subcode_decode(spec, _csv_ints(args.received), erasures), args.out)
    return EXIT_OK


def cmd_demo(args) -> int:
    from .construct import systematic_dsys
    from .verify import verdict, verification_report

    g = ConstraintGraph.from_rows(DEMO_ADJACENCY)
    gf = _field_for(args, g.n)
    # Comparable whenever the field itself is the bundled GF(7) with default
    # nodes; a non-canonical alpha still compares and reports the mismatch.
    reference = gf.p == 7 and gf.m == 1 and not args.defining_set

    print("constraint graph: s=%d, n=%d" % (g.s, g.n))
    for row in g.adjacency:
        print("  %s" % list(row))
    rep = bounds_report(g)
    print("d_min = %d  (witness subset %s)" % (rep.d_min, list(rep.witness_subset)))
    print("k_sys = %d, d_sys = %d  (witness matching %s)"
          % (rep.k_sys, rep.d_sys, list(rep.witness_matching)))
    print("thm2_feasible = %s (a=%d, r_M=%d, k_min=%d)"
          % (rep.thm2_feasible, rep.a, rep.r_m, rep.k_min))

    nodes = tuple(_csv_ints(args.defining_set)) if args.defining_set else None
    spec = systematic_dsys(g, gf, nodes=nodes)
    matched = matched_adjacency(g, spec.matching)
    print("matched adjacency:")
    for row in matched:
        print("  %s" % list(row))
    print("transform rows (polynomial coefficients, ascending):")
    for row in spec.T:
        print("  %s" % list(row))
    print("generator matrix:")
    for row in spec.G:
        print("  %s" % list(row))

    report = verification_report(spec, g)
    print("exhaustive distance: %d (claimed %d)" % (report["distance"], spec.claimed_distance))
    problems = verdict(spec, report)
    if problems:
        return _exit_for(problems)

    if not reference:
        print("reference comparison skipped (non-default field or defining set)")
        return EXIT_OK

    checks = [
        ("bounds", (rep.d_min, rep.d_sys) == (5, 4)),
        ("matched adjacency", matched == DEMO_MATCHED),
        ("transform rows", tuple(tuple(r) for r in spec.T) == DEMO_T),
        ("generator matrix", tuple(tuple(r) for r in spec.G) == DEMO_G),
    ]
    ok = True
    for name, good in checks:
        print("%s matches the built-in reference: %s" % (name, "OK" if good else "MISMATCH"))
        ok = ok and good
    return EXIT_OK if ok else EXIT_MISMATCH


def build_parser() -> _Parser:
    parser = _Parser(prog="graphcodes",
                     description="Distance bounds and Reed-Solomon subcode "
                                 "constructions for encoding-constraint graphs.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_field_opts(p):
        p.add_argument("--p", type=int, default=None, help="field characteristic")
        p.add_argument("--m", type=int, default=1, help="extension degree (p=2 only)")
        p.add_argument("--alpha", type=int, default=None,
                       help="primitive element override")
        p.add_argument("--defining-set", default=None,
                       help="comma-separated evaluation points")

    def add_guard_opt(p):
        p.add_argument("--max-exact-s", type=int, default=None,
                       help="raise the exhaustive-search guards (subsets and matchings); "
                            "the k_sys search has no work budget, so a limit above 12 can "
                            "run for minutes on ordinary graphs and the default can on "
                            "dense ones (a 10x20 graph with d_min 11 ran past 10 minutes; "
                            "ROADMAP items 1 and 16 plan the mend)")

    p = sub.add_parser("bounds", help="distance bounds and witnesses for a graph")
    p.add_argument("graph")
    add_guard_opt(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("construct", help="build a code file for a graph")
    p.add_argument("graph")
    p.add_argument("--mode", choices=MODES, default="systematic-dsys")
    add_field_opts(p)
    p.add_argument("--k", type=int, default=None,
                   help="RS dimension override (generic and mds-nullspace only)")
    add_guard_opt(p)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify", help="exhaustively audit a code file against a graph")
    p.add_argument("code")
    p.add_argument("graph")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("encode", help="encode a message with a code file")
    p.add_argument("code")
    p.add_argument("message", help="comma-separated field elements")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_encode)

    p = sub.add_parser("decode", help="decode a received word with a code file")
    p.add_argument("code")
    p.add_argument("received", help="comma-separated field elements")
    p.add_argument("--erasures", default=None, help="comma-separated erased positions")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_decode)

    p = sub.add_parser("demo-paper-example",
                       help="run the bundled 3x7 example end to end and check it "
                            "against the built-in reference matrices")
    add_field_opts(p)
    p.set_defaults(func=cmd_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except GuardExceededError as exc:
        hint = " (raise it with --max-exact-s)" if "max_exact_s" in vars(args) else ""
        print("error: %s%s" % (exc, hint), file=sys.stderr)
        return EXIT_GUARD
    except InfeasibleError as exc:
        hint = "; use --mode systematic-dsys" if "k_min >= r_M" in str(exc) else ""
        print("error: %s%s" % (exc, hint), file=sys.stderr)
        return EXIT_INFEASIBLE
    except DecodingError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
