"""Command line front end.

Exit codes: 0 on success, 1 when a verification finds a mismatch, 2 on usage
errors, a malformed UTHOPF_BUDGET setting, or when an enumeration budget is
exceeded.  All output is
deterministic: JSON is emitted with sorted keys and collections are sorted
before printing.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .combinatorics import BudgetError, Nuio, enumeration_budget, \
    natural_unit_interval_orders
from .group_engine import _check_gl_budget, _check_prime, _check_ut_budget
from .hopf_core import (
    ScfElement,
    axiom_cases,
    coproduct_oracle_cases,
    noncocommutativity_cases,
    product_oracle_cases,
    specialize,
    verify_reports,
)
from . import gl_bridge


def _prime(text):
    p = int(text)
    try:
        _check_prime(p)
    except (ValueError, BudgetError) as err:
        raise argparse.ArgumentTypeError(str(err)) from None
    return p


def _nonnegative(text):
    n = int(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"{n} is negative")
    return n


def _positive(text):
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"{n} is not positive")
    return n


def _add_operand_args(parser):
    """--poset and --input append to one operand list, each value tagged
    with its flag, so the operands keep their command-line order."""
    parser.add_argument(
        "--poset", action="append", dest="operands", metavar="JSON",
        type=lambda text: ("--poset", text),
        help="inline operand, e.g. '{\"n\": 2, \"strict\": [[1, 2]]}'",
    )
    parser.add_argument(
        "--input", action="append", dest="operands", metavar="FILE",
        type=lambda text: ("--input", text),
        help="operand from a JSON file holding either a poset or a combination",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")


def _load_operands(parser, args, count):
    raw = args.operands or []
    if len(raw) != count:
        parser.error(f"expected {count} operand(s), got {len(raw)}")
    out = []
    for kind, value in raw:
        try:
            if kind == "--poset":
                data = json.loads(value)
            else:
                with open(value) as fh:
                    data = json.load(fh)
            if not isinstance(data, dict):
                raise ValueError("operand must be a JSON object")
            if "terms" in data:
                out.append(ScfElement.from_dict(data))
            else:
                out.append(ScfElement.basis(Nuio.from_dict(data)))
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError,
                RecursionError) as exc:
            parser.error(f"bad operand {value!r}: {exc}")
    return out


def _emit(obj):
    print(json.dumps(obj, sort_keys=True))


def _cmd_nuio_list(parser, args):
    rows = []
    for pi in natural_unit_interval_orders(args.n):
        row = pi.to_dict()
        if args.dyck:
            row["dyck"] = pi.to_dyck()
        rows.append(row)
    if args.format == "json":
        _emit(rows)
    else:
        for row in rows:
            bits = ["n=%d" % row["n"]]
            bits.append("strict=" + ";".join("%d<%d" % tuple(p) for p in row["strict"]))
            if args.dyck:
                bits.append("dyck=" + row["dyck"])
            print(" ".join(bits))
    return 0


def _print_result(result, fmt):
    if fmt == "json":
        _emit(result.to_dict())
    else:
        print(repr(result))
    return 0


def _cmd_scf(parser, args):
    if args.verb == "product":
        x, y = _load_operands(parser, args, 2)
        result = x * y
    else:
        (x,) = _load_operands(parser, args, 1)
        if args.verb == "coproduct":
            result = x.coproduct()
        elif args.verb == "antipode":
            result = x.antipode()
        else:
            result = x.dagger()
    return _print_result(result, args.format)


def _cmd_realize(parser, args):
    """ut specialize, and gl induce: the specialization induced up to GL;
    every group's budget is checked first, as a fresh process would."""
    (x,) = _load_operands(parser, args, 1)
    for check in [_check_ut_budget] + [_check_gl_budget] * (args.command == "gl"):
        for n in dict.fromkeys(pi.n for pi in x.terms):
            check(n, args.q)
    result = specialize(x, args.q)
    if args.command == "gl":
        result = gl_bridge.induce_to_gl(result)
    return _print_result(result, args.format)


def _print_reports(reports, fmt):
    failures = sum(1 for r in reports if r["status"] != "ok")
    if fmt == "json":
        _emit({"reports": reports, "failures": failures, "total": len(reports)})
    else:
        for r in reports:
            line = "%s %s %s lhs=%s rhs=%s" % (
                r["status"], r["check"], r["instance"], r["lhs_hash"], r["rhs_hash"]
            )
            if "diff" in r:
                d = r["diff"]
                line += " at=%s lhs_value=%s rhs_value=%s" % (
                    json.dumps(d["at"], separators=(",", ":")), d["lhs"], d["rhs"])
            print(line)
        print("%d checks, %d failures" % (len(reports), failures))
    return 1 if failures else 0


def _cmd_verify(parser, args):
    """Pick the suites by name; none runs until the driver draws from it."""
    if args.what == "induction-hom" and args.n >= 4 and not args.extended:
        parser.error("degree 4 and up needs --extended")
    n, q = args.n, args.q
    suites = {
        "monoid-axioms": [axiom_cases(n, q, samples=args.samples,
                                      sample_size=args.size, seed=args.seed)],
        "oracle": [product_oracle_cases(n, q), coproduct_oracle_cases(n, q)],
        "induction-hom": [gl_bridge.product_hom_cases(n, q),
                          gl_bridge.coproduct_hom_cases(n, q),
                          gl_bridge.dagger_invariance_cases(n, q)],
        "noncocommutativity": [noncocommutativity_cases()],
    }[args.what]
    return _print_reports(verify_reports(*suites), args.format)


@functools.lru_cache(maxsize=None)
def build_parser():
    """The parser of the command line, built once per process."""
    parser = argparse.ArgumentParser(
        prog="uthopf",
        description="Exact Hopf algebra computations on unit interval orders "
        "and their unitriangular and general linear realizations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    nuio = sub.add_parser("nuio", help="enumerate unit interval orders")
    nuio_sub = nuio.add_subparsers(dest="verb", required=True)
    lst = nuio_sub.add_parser("list")
    lst.add_argument("--n", type=_nonnegative, required=True)
    lst.add_argument("--dyck", action="store_true")
    lst.add_argument("--format", choices=("json", "text"), default="text")

    scf = sub.add_parser("scf", help="symbolic operations")
    scf_sub = scf.add_subparsers(dest="verb", required=True)
    for verb in ("product", "coproduct", "antipode", "dagger"):
        p = scf_sub.add_parser(verb)
        _add_operand_args(p)

    ut = sub.add_parser("ut", help="unitriangular realization")
    ut_sub = ut.add_subparsers(dest="verb", required=True)
    spec_p = ut_sub.add_parser("specialize")
    spec_p.add_argument("--q", type=_prime, required=True)
    _add_operand_args(spec_p)

    gl = sub.add_parser("gl", help="general linear side")
    gl_sub = gl.add_subparsers(dest="verb", required=True)
    ind_p = gl_sub.add_parser("induce")
    ind_p.add_argument("--q", type=_prime, required=True)
    _add_operand_args(ind_p)

    ver = sub.add_parser("verify", help="run verification suites")
    ver.add_argument(
        "what",
        choices=("monoid-axioms", "oracle", "induction-hom", "noncocommutativity"),
    )
    ver.add_argument("--n", type=_nonnegative, default=3)
    ver.add_argument("--q", type=_prime, default=2)
    ver.add_argument("--samples", type=_nonnegative, default=0)
    ver.add_argument("--size", type=_positive, default=4)
    ver.add_argument("--seed", type=int, default=0)
    ver.add_argument("--extended", action="store_true")
    ver.add_argument("--format", choices=("json", "text"), default="text")

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        enumeration_budget()
    except ValueError as exc:
        print("%s: error: %s" % (parser.prog, exc), file=sys.stderr)
        return 2
    try:
        if args.command == "nuio":
            return _cmd_nuio_list(parser, args)
        if args.command == "scf":
            return _cmd_scf(parser, args)
        if args.command in ("ut", "gl"):
            return _cmd_realize(parser, args)
        return _cmd_verify(parser, args)
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
