"""Command line front end.

Exit codes: 0 on success, 1 when a verification finds a mismatch, 2 on usage
errors or when an enumeration budget is exceeded.  All output is
deterministic: JSON is emitted with sorted keys and collections are sorted
before printing.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .combinatorics import BudgetError, Nuio, natural_unit_interval_orders
from .hopf_core import (
    ScfElement,
    axiom_reports,
    coproduct_oracle_reports,
    product_oracle_reports,
    specialize,
)
from . import gl_bridge


def _prime(text):
    p = int(text)
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise argparse.ArgumentTypeError(f"{p} is not prime")
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


class _OperandAction(argparse.Action):
    """Collect --poset and --input operands in the order they appear."""

    def __call__(self, parser, namespace, values, option_string=None):
        items = getattr(namespace, "operands", None)
        if items is None:
            items = []
            namespace.operands = items
        items.append((option_string, values))


def _add_operand_args(parser):
    parser.add_argument(
        "--poset", action=_OperandAction, dest="operands", metavar="JSON",
        help="inline operand, e.g. '{\"n\": 2, \"strict\": [[1, 2]]}'",
    )
    parser.add_argument(
        "--input", action=_OperandAction, dest="operands", metavar="FILE",
        help="operand from a JSON file holding either a poset or a combination",
    )
    parser.add_argument("--format", choices=("json", "text"), default="text")


def _load_operands(parser, args, count):
    raw = getattr(args, "operands", None) or []
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
        except (OSError, ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
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
    if args.format == "json":
        _emit(result.to_dict())
    else:
        print(repr(result))
    return 0


def _cmd_ut_specialize(parser, args):
    (x,) = _load_operands(parser, args, 1)
    result = specialize(x, args.q)
    if args.format == "json":
        _emit(result.to_dict())
    else:
        print(repr(result))
    return 0


def _cmd_gl_induce(parser, args):
    (x,) = _load_operands(parser, args, 1)
    result = gl_bridge.induce_to_gl(specialize(x, args.q))
    if args.format == "json":
        _emit(result.to_dict())
    else:
        print(repr(result))
    return 0


def _print_reports(reports, fmt):
    failures = sum(1 for r in reports if r["status"] != "ok")
    if fmt == "json":
        _emit({"reports": reports, "failures": failures, "total": len(reports)})
    else:
        for r in reports:
            print(
                "%s %s %s lhs=%s rhs=%s"
                % (r["status"], r["check"], r["instance"], r["lhs_hash"], r["rhs_hash"])
            )
        print("%d checks, %d failures" % (len(reports), failures))
    return 1 if failures else 0


def _cmd_verify(parser, args):
    if args.what == "monoid-axioms":
        reports = axiom_reports(
            args.n, args.q, samples=args.samples, sample_size=args.size,
            seed=args.seed,
        )
    elif args.what == "oracle":
        reports = product_oracle_reports(args.n, args.q)
        reports += coproduct_oracle_reports(args.n, args.q)
    elif args.what == "induction-hom":
        if args.n >= 4 and not args.extended:
            parser.error("degree 4 and up needs --extended")
        reports = gl_bridge.product_hom_reports(args.n, args.q)
        reports += gl_bridge.coproduct_hom_reports(args.n, args.q)
        reports += gl_bridge.dagger_invariance_reports(args.n, args.q)
    else:
        reports = _noncocommutativity_reports()
    return _print_reports(reports, args.format)


def _noncocommutativity_reports():
    from .hopf_core import short_hash

    pi = Nuio(4, [(1, 4), (2, 4)])
    split = ScfElement.basis(pi).coproduct()
    lhs = split.component(3, 1)
    rhs = split.component(1, 3).swap()
    point = ScfElement.basis(Nuio(1))
    pair = ScfElement.basis(Nuio(2))
    left = point * pair
    right = pair * point
    return [
        {
            "check": "noncocommutativity",
            "instance": "pi=%s" % (list(pi.strict),),
            "status": "ok" if lhs != rhs else "fail",
            "lhs_hash": short_hash(repr(lhs)),
            "rhs_hash": short_hash(repr(rhs)),
        },
        {
            "check": "noncommutativity",
            "instance": "point,antichain",
            "status": "ok" if left != right else "fail",
            "lhs_hash": short_hash(repr(left)),
            "rhs_hash": short_hash(repr(right)),
        },
    ]


def build_parser():
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
        if args.command == "nuio":
            return _cmd_nuio_list(parser, args)
        if args.command == "scf":
            return _cmd_scf(parser, args)
        if args.command == "ut":
            return _cmd_ut_specialize(parser, args)
        if args.command == "gl":
            return _cmd_gl_induce(parser, args)
        return _cmd_verify(parser, args)
    except BudgetError as exc:
        print("budget exceeded: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
