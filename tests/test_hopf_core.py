"""Symbolic Hopf structure and its realization on unitriangular groups.

The witness coproduct is pinned term by term from a hand computation; the
algebra and coalgebra laws are checked symbolically; the coproduct and
antipode, which the library reads off connected pieces, are compared with
the subset sum and the counit recursion kept here as references; the group
realization is compared against the symbolic side through the oracle
reports, and the oracle's numerator sums (parabolic_coproduct,
specialize_tensor) against the collect sums they replaced.
"""

import collections
import itertools
import json
import math
import operator
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from uthopf.class_functions import ClassFunction, Combination, TensorFunction, _exact, \
    deflate_cf, straighten_cf
from uthopf import combinatorics, hopf_core
from uthopf.combinatorics import Nuio, SetComposition, \
    natural_unit_interval_orders
from uthopf import gl_bridge
from uthopf.gl_bridge import coproduct_hom_cases, dagger_invariance_cases, \
    gl_coproduct, induce_to_gl, product_hom_cases
from uthopf.group_engine import gl_table, kernel, ut_table
from uthopf.hopf_core import (
    GradedClassFunction,
    GradedTensor,
    LaurentT,
    ScfElement,
    TensorScf,
    _fubini,
    _report,
    axiom_cases,
    coproduct_oracle_cases,
    frac_str,
    monoid_deflate,
    monoid_inflate,
    monoid_relabel,
    pattern_indicator,
    product_oracle_cases,
    short_hash,
    specialize,
    specialize_tensor,
    ut_coproduct,
    ut_product,
    verify_reports,
)

from test_class_functions import assert_exact_form, indicators, subgroup_indicator, \
    trivial
from test_combinatorics import from_strict, ref_ascent_count, ref_shifted_restrict

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# Prints, as canonical JSON, every order of degree at most 7 in ascending
# key order with its coproduct and, to degree 6, its antipode, having
# computed them in the order named by its argument.
CALL_ORDER_SWEEP = """
import json, sys
from uthopf import Nuio, ScfElement, natural_unit_interval_orders
orders = sorted((pi for n in range(8) for pi in natural_unit_interval_orders(n)),
                key=Nuio.key, reverse=sys.argv[1] == "descending")
values = {}
for pi in orders:
    x = ScfElement.basis(pi)
    values[pi] = [x.coproduct().to_dict(), x.antipode().to_dict() if pi.n <= 6 else None]
sys.stdout.write(json.dumps(
    [[pi.to_dict(), *values[pi]] for pi in sorted(values, key=Nuio.key)], sort_keys=True))
"""

PT = Nuio(1, [])
A2 = Nuio(2, [])
C2 = Nuio(2, [(1, 2)])
A3 = Nuio(3, [])
V3 = Nuio(3, [(1, 3)])
J3 = Nuio(3, [(1, 3), (2, 3)])
W4 = Nuio(4, [(1, 4), (2, 4)])


def map_factors(tensor, f):
    """Apply f to both factors of every term of a TensorScf."""
    return TensorScf.collect(
        ((f(l), f(r)), c) for (l, r), c in tensor.terms.items()
    )


def t_power(k=1):
    """The monomial t^k."""
    return LaurentT({k: 1})


ONE = t_power(0)
T = t_power(1)
T2 = t_power(2)


def basis(pi):
    return ScfElement.basis(pi)


_REFERENCE_COPRODUCTS = {}
_REFERENCE_ANTIPODES = {}


def reference_coproduct_basis(pi):
    """Reference coproduct of one basis element: the sum over every subset
    of its labels, with no split into connected pieces, each restriction
    and ascent count read off the strict pairs."""
    if pi not in _REFERENCE_COPRODUCTS:
        labels = range(1, pi.n + 1)

        def splits():
            for k in range(pi.n + 1):
                for inside in itertools.combinations(labels, k):
                    chosen = set(inside)
                    outside = tuple(j for j in labels if j not in chosen)
                    key = (ref_shifted_restrict(pi, inside),
                           ref_shifted_restrict(pi, outside))
                    yield key, t_power(ref_ascent_count(pi, inside))

        _REFERENCE_COPRODUCTS[pi] = TensorScf.collect(splits())
    return _REFERENCE_COPRODUCTS[pi]


def reference_antipode_basis(pi):
    """Reference antipode of one basis element: the graded recursion from
    the counit identity, run on every order, connected or not."""
    if pi not in _REFERENCE_ANTIPODES:
        if pi.n == 0:
            value = ScfElement.unit()
        else:
            value = -ScfElement.collect(itertools.chain(
                [(pi, 1)],
                (
                    (rho, c * v)
                    for (left, right), c in reference_coproduct_basis(pi).terms.items()
                    if left.n != pi.n and right.n != pi.n
                    for rho, v in (
                        reference_antipode_basis(left) * ScfElement.basis(right)
                    ).terms.items()
                ),
            ))
        _REFERENCE_ANTIPODES[pi] = value
    return _REFERENCE_ANTIPODES[pi]


def reference_parabolic_coproduct(a, ambient, splits):
    """Reference parabolic coproduct: each component deflated over every
    split and straightened, a Fraction per deflated value, the pieces
    summed by collect with a tensor addition per piece."""
    q = a.q

    def pieces():
        for n, psi in a.terms.items():
            for inside, levi, radical in splits(n, q):
                k = len(inside)
                on_levi = deflate_cf(psi, levi, radical)
                yield (k, n - k), straighten_cf(on_levi, inside, ambient(k, q),
                                                ambient(n - k, q))

    return GradedTensor.collect(pieces(), q)


def loop_evaluate(a, x):
    """Reference value of the LaurentT a at x: a Fraction sum over its
    terms, one power of x each."""
    x = Fraction(x)
    total = Fraction(0)
    for k, v in a.terms.items():
        total += v * x ** k
    return total


def reference_specialize_tensor(tx, q):
    """Reference tensor specialization: the outer product of each pair of
    indicators scaled by the coefficient at 1/q, summed by collect."""
    point = Fraction(1, q)
    values = ((key, loop_evaluate(c, point)) for key, c in tx.terms.items())
    return GradedTensor.collect((
        ((l.n, r.n), TensorFunction.outer(
            pattern_indicator(l, q), pattern_indicator(r, q)).scale(v))
        for (l, r), v in values if v), q)


def reference_specialize(x, q):
    """Reference specialization: each indicator scaled by its coefficient
    at 1/q, summed by collect."""
    point = Fraction(1, q)
    values = ((pi, loop_evaluate(c, point)) for pi, c in x.terms.items())
    return GradedClassFunction.collect(
        ((pi.n, pattern_indicator(pi, q).scale(v)) for pi, v in values if v), q)


class TestLaurentT:
    def test_ring_laws(self):
        assert (ONE + T) * (ONE - T) == ONE - T2
        assert T * t_power(-1) == ONE
        assert LaurentT.scalar(Fraction(1, 2)) + LaurentT.scalar(Fraction(1, 2)) == ONE
        assert -(T - T) == LaurentT.zero()
        assert not LaurentT.zero()

    def test_zero_coefficients_are_dropped(self):
        x = T + ONE - T
        assert x == ONE
        assert x.terms == {0: Fraction(1)}

    def test_evaluate(self):
        x = T2 + T + ONE
        assert x.evaluate(Fraction(1, 2)) == Fraction(7, 4)
        assert t_power(-2).evaluate(Fraction(1, 3)) == 9

    def test_dict_round_trip(self):
        x = LaurentT({2: Fraction(1), -1: Fraction(-3, 2)})
        assert LaurentT.from_dict(x.to_dict()) == x

    def test_integral_coefficients_are_ints(self):
        x = LaurentT({0: Fraction(6, 2), 1: Fraction(1, 2), 2: 4})
        assert [type(x.terms[k]) for k in (0, 1, 2)] == [int, Fraction, int]
        assert x.terms[0] == 3
        half = LaurentT.scalar(Fraction(1, 2))
        assert type((half + half).terms[0]) is int
        assert type((T * half * 2).terms[1]) is int
        assert repr(x) == "3 + 1/2*t + 4*t^2"

    def test_integral_coefficients_print_as_fractions(self):
        x = LaurentT.from_dict({"0": "3/1"})
        assert type(x.terms[0]) is int and x.terms[0] == 3
        assert x.to_dict() == {"0": "3/1"}
        assert repr(LaurentT({0: 3, -1: Fraction(-2)})) == "-2*t^-1 + 3"

    def test_evaluate_returns_a_fraction(self):
        got = (T + ONE).evaluate(Fraction(1, 2))
        assert type(got) is Fraction and got == Fraction(3, 2)
        assert type(ONE.evaluate(1)) is Fraction

    def test_inexact_scalars_raise(self):
        # JSON fraction strings are parsed by from_dict, never here
        for make in (
            lambda: LaurentT({0: 0.5}),
            lambda: LaurentT.scalar("1/2"),
            lambda: LaurentT({0: True}),
            lambda: T * 0.5,
            lambda: basis(PT).scale(0.1),
            lambda: 0.5 * basis(PT),
            lambda: ScfElement({PT: 1.0}),
            lambda: T.evaluate(0.1),
            lambda: T.evaluate(True),
        ):
            with pytest.raises(TypeError):
                make()
        assert LaurentT.from_dict({"0": "1/2"}) == LaurentT.scalar(Fraction(1, 2))

    @staticmethod
    def collect_product(a, b):
        # the product as it was first written: every pair of terms through
        # collect, which coerces each coefficient before __init__ does again
        return LaurentT.collect(
            (k1 + k2, v1 * v2)
            for k1, v1 in a.terms.items()
            for k2, v2 in b.terms.items()
        )

    def test_product_matches_the_collect_reference(self):
        rng = random.Random(17)
        coeffs = [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-1, 2),
                  Fraction(2, 3), Fraction(-5, 6), Fraction(7, 4)]
        polys = [
            LaurentT({rng.randrange(-3, 4): rng.choice(coeffs)
                      for _ in range(rng.randrange(5))})
            for _ in range(60)
        ]
        # cancelling terms, and Fraction sums that are integral
        polys += [ONE + T, ONE - T, T - t_power(-1),
                  LaurentT({0: Fraction(1, 2), 1: Fraction(1, 2)}),
                  LaurentT({0: Fraction(1, 3), 1: Fraction(2, 3), 2: Fraction(-1, 3)}),
                  LaurentT.zero()]
        assert ((ONE + T) * (ONE - T)).terms == {0: 1, 2: -1}
        assert (LaurentT({0: Fraction(1, 2), 1: Fraction(1, 2)}) * (ONE + T)).terms \
            == {0: Fraction(1, 2), 1: 1, 2: Fraction(1, 2)}
        for a in polys:
            for b in polys:
                got = a * b
                assert got.terms == self.collect_product(a, b).terms
                assert all(v and type(v) is (int if v.denominator == 1 else Fraction)
                           for v in got.terms.values())
        for k in (0, 3, -2, Fraction(3, 2), Fraction(4, 2)):
            for a in polys[:10]:
                want = self.collect_product(a, LaurentT.scalar(k)).terms
                assert (a * k).terms == (k * a).terms == want

    @staticmethod
    def loop_product(a, b):
        # the plain double loop, with no fast path
        out = {}
        for k1, v1 in a.terms.items():
            for k2, v2 in b.terms.items():
                out[k1 + k2] = out.get(k1 + k2, 0) + v1 * v2
        return {k: _exact(v) for k, v in out.items() if v}

    def test_fast_paths_match_the_double_loop(self):
        rng = random.Random(5)
        coeffs = [1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]

        def poly(size):
            return LaurentT({rng.randrange(-4, 5): rng.choice(coeffs)
                             for _ in range(size)})

        units = [ONE, LaurentT({0: Fraction(2, 2)}), LaurentT.scalar(1)]
        monomials = [poly(1) for _ in range(30)] + [t_power(-2), T2]
        general = [poly(rng.randrange(2, 6)) for _ in range(30)]
        values = units + monomials + general + [LaurentT.zero()]
        for a in values:
            frozen = dict(a.terms)
            for b in values:
                got = a * b
                assert got.terms == self.loop_product(a, b)
                assert all(_exact(v) is v for v in got.terms.values())
            for one in units:
                assert a * one == one * a == a
            assert a.terms == frozen
        # a monomial product of Fractions that is integral is held as an int
        got = LaurentT({1: Fraction(2, 3)}) * LaurentT({-1: Fraction(3, 2)})
        assert got.terms == {0: 1} and type(got.terms[0]) is int
        got = LaurentT({0: Fraction(1, 2), 2: Fraction(1, 2)}) * LaurentT({1: 4})
        assert got.terms == {1: 2, 3: 2} and {type(v) for v in got.terms.values()} == {int}

    def test_evaluate_matches_the_fraction_loop(self):
        # evaluate, and _value at n/d, which it calls: ints over
        # n^-lo d^hi, lo and hi the exponent bounds capped at 0, for int
        # coefficients, and a zero denominator at 0 past a negative
        # exponent, where evaluate raises
        rng = random.Random(23)
        coeffs = [1, -1, 3, -7, Fraction(1, 2), Fraction(-2, 3), Fraction(7, 4)]
        polys = [LaurentT({rng.randrange(-5, 6): rng.choice(coeffs)
                           for _ in range(rng.randrange(6))}) for _ in range(80)]
        # only negative, only positive, and only zero exponents
        polys += [LaurentT({-2: Fraction(1, 2), -1: 3}), LaurentT({2: 1, 3: Fraction(-1, 2)}),
                  t_power(-3), t_power(4), ONE, LaurentT.scalar(Fraction(-5, 3)),
                  LaurentT.zero()]
        points = [Fraction(1, 2), Fraction(1, 3), Fraction(-2, 5), Fraction(7, 3),
                  Fraction(-1, 7), 1, -1, 2, 5]
        for a in polys:
            integral = all(type(v) is int for v in a.terms.values())
            lo, hi = min([0, *a.terms]), max([0, *a.terms])
            for x in map(Fraction, points):
                got = a.evaluate(x)
                assert type(got) is Fraction and got == loop_evaluate(a, x)
                n, d = x.numerator, x.denominator
                num, den = hopf_core._value(a, n, d)
                assert type(num) is int and type(den) is int
                assert Fraction(num, den) == got
                assert den == n ** -lo * d ** hi or not integral
            if any(k < 0 for k in a.terms):
                assert hopf_core._value(a, 0, 1)[1] == 0
                for evaluate in (a.evaluate, lambda x: loop_evaluate(a, x)):
                    with pytest.raises(ZeroDivisionError):
                        evaluate(0)
            else:
                assert a.evaluate(0) == loop_evaluate(a, 0) == a.terms.get(0, 0)
                assert Fraction(*hopf_core._value(a, 0, 1)) == a.terms.get(0, 0)

    def test_frac_str_of_an_int_matches_its_fraction(self):
        for k in (0, 1, -1, 7, -12, 10 ** 30, -(10 ** 30) - 1):
            assert frac_str(k) == frac_str(Fraction(k)) == "%d/1" % k
        assert frac_str(Fraction(-3, 6)) == "-1/2"

    def test_from_dict_rejects_float_and_bool_coefficients(self):
        assert LaurentT.from_dict({"0": 3, "1": "-1/2"}) == LaurentT(
            {0: Fraction(3), 1: Fraction(-1, 2)})
        for coeff in (0.1, 1.0, True):
            with pytest.raises(ValueError):
                LaurentT.from_dict({"0": coeff})

    @pytest.mark.parametrize("data, exponent", [
        ({"0": "1/1", "00": "2/1"}, 0),
        ({"1": "1/1", " 1": "5/1", "+1": "7/1"}, 1),
        ({"-2": 3, "-02": 3}, -2),
    ])
    def test_from_dict_rejects_two_keys_of_one_exponent(self, data, exponent):
        # read into one dict, all but the last coefficient would be lost
        with pytest.raises(ValueError, match="exponent %d$" % exponent):
            LaurentT.from_dict(data)

    def test_equal_values_hash_equal(self):
        # built in different key orders and by different paths
        built = [LaurentT({1: 2, 0: Fraction(1, 2)}), LaurentT({0: Fraction(1, 2), 1: 2}),
                 LaurentT.from_dict({"1": "2/1", "0": "1/2"}),
                 T.scale(2) + LaurentT.scalar(Fraction(1, 2))]
        assert all(x == built[0] for x in built)
        assert len({hash(x) for x in built}) == 1
        assert len({x: None for x in built}) == 1
        assert hash(hopf_core._ONE) == hash(ONE) == hash(LaurentT.from_dict({"0": "2/2"}))


class TestAddition:
    """Combinations add only to their own type; their keys would mix."""

    def test_other_types_raise(self):
        # explicit comparisons, so that python -O checks them too
        x = ScfElement.basis(A2)
        table = ut_table(1, 2)
        graded = GradedClassFunction(2, {1: trivial(table)})
        tensor = specialize_tensor(ScfElement.basis(PT).coproduct(), 2)
        cf = trivial(table)
        pairs = [
            (x, x.coproduct()), (x.coproduct(), x), (graded, tensor),
            (tensor, graded), (T, x), (x, T), (cf, TensorFunction(table, table)),
            (x, 1), (T, 1), (graded, 0), (cf, Fraction(1, 2)),
        ]
        for a, b in pairs:
            for op in (operator.add, operator.sub):
                try:
                    op(a, b)
                except TypeError as err:
                    if str(err) != "cannot add %s to %s" % (
                            type(b).__name__, type(a).__name__):
                        raise AssertionError("%r + %r: %s" % (a, b, err))
                else:
                    raise AssertionError("%r %s %r did not raise" % (a, op, b))

    def test_other_contexts_raise_value_error(self):
        graded = GradedClassFunction(2, {1: trivial(ut_table(1, 2))})
        for a, b in [(graded, GradedClassFunction(3, {1: trivial(ut_table(1, 3))})),
                     (trivial(ut_table(1, 2)), trivial(ut_table(2, 2)))]:
            try:
                a + b
            except ValueError:
                continue
            raise AssertionError("%r + %r did not raise" % (a, b))


class TestProduct:
    def test_basis_product_is_the_shifted_sum(self):
        assert basis(PT) * basis(PT) == basis(C2)
        assert basis(A2) * basis(PT) == basis(J3)
        assert basis(PT) * basis(A2) == basis(Nuio(3, [(1, 2), (1, 3)]))

    def test_noncommutative(self):
        assert basis(PT) * basis(A2) != basis(A2) * basis(PT)

    def test_unit_laws(self):
        one = ScfElement.unit()
        for pi in natural_unit_interval_orders(3):
            assert one * basis(pi) == basis(pi)
            assert basis(pi) * one == basis(pi)

    def test_associative(self):
        elems = [basis(p) for n in range(3) for p in natural_unit_interval_orders(n)]
        for x in elems:
            for y in elems:
                for z in elems:
                    assert (x * y) * z == x * (y * z)

    def test_bilinear(self):
        x = basis(PT) + basis(A2).scale(T)
        y = basis(C2) - basis(A2)
        lhs = x * y
        rhs = (
            basis(PT) * basis(C2)
            - basis(PT) * basis(A2)
            + (basis(A2) * basis(C2)).scale(T)
            - (basis(A2) * basis(A2)).scale(T)
        )
        assert lhs == rhs

    def test_graded(self):
        prod = basis(A2) * basis(J3)
        assert {pi.n for pi in prod.terms} == {5}


EXPECTED_W4_COPRODUCT = {
    (Nuio(0, []), W4): ONE,
    (W4, Nuio(0, [])): ONE,
    (PT, V3): T2 + T,
    (PT, J3): T,
    (PT, A3): ONE,
    (A2, A2): T2 + ONE,
    (A2, C2): T2 + T,
    (C2, A2): T2 + T,
    (A3, PT): T,
    (J3, PT): T2,
    (V3, PT): T + ONE,
}


class TestCoproduct:
    def test_point(self):
        empty = Nuio(0, [])
        assert basis(PT).coproduct().terms == {
            (empty, PT): ONE,
            (PT, empty): ONE,
        }

    def test_witness_expansion_is_pinned(self):
        cop = basis(W4).coproduct()
        assert cop.terms == EXPECTED_W4_COPRODUCT
        # sixteen subset terms before collection
        assert sum(c.evaluate(1) for c in cop.terms.values()) == 16

    def test_witness_is_not_cocommutative(self):
        cop = basis(W4).coproduct()
        assert cop.component(3, 1).swap() != cop.component(1, 3)

    def test_counit_laws(self):
        for n in range(5):
            for pi in natural_unit_interval_orders(n):
                cop = basis(pi).coproduct()
                left = ScfElement.zero()
                right = ScfElement.zero()
                for (a, b), c in cop.terms.items():
                    left = left + basis(b).scale(c * basis(a).counit())
                    right = right + basis(a).scale(c * basis(b).counit())
                assert left == basis(pi)
                assert right == basis(pi)

    def test_coassociative(self):
        for n in range(5):
            for pi in natural_unit_interval_orders(n):
                first = {}
                second = {}
                cop = basis(pi).coproduct()
                for (a, b), c in cop.terms.items():
                    for (a1, a2), c2 in basis(a).coproduct().terms.items():
                        key = (a1, a2, b)
                        first[key] = first.get(key, LaurentT.zero()) + c * c2
                    for (b1, b2), c2 in basis(b).coproduct().terms.items():
                        key = (a, b1, b2)
                        second[key] = second.get(key, LaurentT.zero()) + c * c2
                first = {k: v for k, v in first.items() if v}
                second = {k: v for k, v in second.items() if v}
                assert first == second

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_subset_sum(self, n):
        for pi in natural_unit_interval_orders(n):
            assert basis(pi).coproduct() == reference_coproduct_basis(pi)

    @pytest.mark.parametrize("n", range(8))
    def test_basis_value_is_the_cached_one(self, n):
        # the sum through collect that served every element before basis
        # elements got the cached value itself is kept here as the reference
        for pi in natural_unit_interval_orders(n):
            cached = hopf_core._coproduct_basis(pi)
            got = basis(pi).coproduct()
            assert got is cached
            assert got == TensorScf.collect(
                (key, ONE * v) for key, v in cached.terms.items())
            # any other coefficient, or a second term, still sums
            scaled = basis(pi).scale(T).coproduct()
            assert scaled is not cached and scaled == cached.scale(T)
            assert scaled == TensorScf.collect(
                (key, T * v) for key, v in cached.terms.items())
            assert basis(pi).scale(2).coproduct() == cached.scale(2)
            assert (basis(pi) + basis(PT)).coproduct() == cached + basis(PT).coproduct()
        assert ScfElement.zero().coproduct() == TensorScf.zero()

    def test_serializing_a_result_leaves_the_cache_intact(self):
        for pi in [pi for n in range(6) for pi in natural_unit_interval_orders(n)]:
            data = basis(pi).coproduct().to_dict()
            for term in data["terms"]:
                term["left"]["n"] = term["right"]["strict"] = None
                term["coeff"].clear()
            data["terms"].clear()
            fresh = hopf_core._coproduct_basis.__wrapped__(pi)
            assert hopf_core._coproduct_basis(pi) == fresh == reference_coproduct_basis(pi)
            assert basis(pi).coproduct().to_dict() == fresh.to_dict()

    def test_compatible_with_product(self):
        for n1 in range(4):
            for n2 in range(4 - n1):
                for p1 in natural_unit_interval_orders(n1):
                    for p2 in natural_unit_interval_orders(n2):
                        x, y = basis(p1), basis(p2)
                        assert (x * y).coproduct() == x.coproduct() * y.coproduct()


class TestSharedCoefficients:
    """Coefficients of every basis coproduct and antipode are interned: one
    LaurentT per value, printed once when it is interned."""

    @staticmethod
    def all_orders(top=7):
        return [pi for n in range(top + 1) for pi in natural_unit_interval_orders(n)]

    def test_interned_values_equal_their_counts(self):
        for pi in self.all_orders():
            basis(pi).coproduct()
        assert len(hopf_core._INTERNED) >= 152
        for key, value in hopf_core._INTERNED.items():
            counts = dict(key)
            assert value == LaurentT._trusted((), counts) and value.terms == counts
            assert value.to_dict() == LaurentT._trusted((), counts).to_dict()

    def test_connected_coproducts_hold_interned_values(self):
        # connected or not: a connected order interns its sums, any other
        # order multiplies and sums interned values of its pieces (_product)
        for pi in self.all_orders():
            for c in basis(pi).coproduct().terms.values():
                assert c is hopf_core._INTERNED[tuple(sorted(c.terms.items()))]

    def test_antipodes_hold_interned_values(self):
        # connected or not: a connected order interns its sums, any other
        # order multiplies interned values of its pieces (_times)
        for pi in self.all_orders(6):
            for c in basis(pi).antipode().terms.values():
                assert c is hopf_core._INTERNED[tuple(sorted(c.terms.items()))]

    def test_antipode_to_dict_hands_out_fresh_dicts(self):
        for pi in self.all_orders(6):
            data = basis(pi).antipode().to_dict()
            for term in data["terms"]:
                term["n"] = None
                term["coeff"]["0"] = "9/1"
                term["coeff"].clear()
            data["terms"].clear()
            fresh = hopf_core._antipode_basis.__wrapped__(pi)
            assert hopf_core._antipode_basis(pi) == fresh == reference_antipode_basis(pi)
            assert basis(pi).antipode().to_dict() == fresh.to_dict()

    def test_coproduct_to_dict_hands_out_fresh_dicts(self):
        for pi in self.all_orders():
            data = basis(pi).coproduct().to_dict()
            again = basis(pi).coproduct().to_dict()
            assert data == again
            for term, other in zip(data["terms"], again["terms"]):
                assert term["coeff"] is not other["coeff"]
                term["left"]["n"] = term["right"]["strict"] = None
                term["coeff"]["0"] = "9/1"
                term["coeff"].clear()
            data["terms"].clear()
            fresh = hopf_core._coproduct_basis.__wrapped__(pi)
            assert hopf_core._coproduct_basis(pi) == fresh == reference_coproduct_basis(pi)
            assert basis(pi).coproduct().to_dict() == fresh.to_dict() == again

    def test_products_of_interned_values_are_interned(self):
        values = [c for pi in self.all_orders(4)
                  for c in basis(pi).coproduct().terms.values()]
        interned = list({id(c): c for c in values
                         if c is hopf_core._INTERNED.get(tuple(sorted(c.terms.items())))
                         }.values())
        assert len(interned) > 5
        for a in interned:
            for b in interned:
                c = hopf_core._times(a, b)
                assert c == a * b
                assert c is hopf_core._times(a, b)
                assert c is hopf_core._INTERNED[tuple(sorted(c.terms.items()))]
        # a factor that is not interned gives a plain product, not kept
        # (the unit is left out: a product by it is the other factor)
        x, y = [c for c in interned if c is not hopf_core._ONE][:2]
        for a, b in [(T + ONE, x), (y, T + ONE), (T, T2)]:
            c = hopf_core._times(a, b)
            assert c == a * b and c is not hopf_core._times(a, b)

    def test_the_basis_unit_coefficient_is_shared(self):
        assert basis(PT).terms[PT] is basis(W4).terms[W4] is hopf_core._ONE
        assert hopf_core._ONE == ONE and (T * hopf_core._ONE) is T

    def test_to_dict_hands_out_a_fresh_copy(self):
        for c in list(hopf_core._INTERNED.values()) + [T + ONE, LaurentT.zero()]:
            first, second = c.to_dict(), c.to_dict()
            assert first == second and first is not second
            first["0"] = "9/1"
            first.clear()
            assert c.to_dict() == second == {
                str(k): frac_str(v) for k, v in sorted(c.terms.items())}

    def test_tensor_product_matches_the_pair_sum(self):
        # shared and distinct coefficient objects, equal in value or not,
        # against one product per pair of terms
        rng = random.Random(11)
        orders = self.all_orders(3)
        shared = [ONE, T, ONE + T, hopf_core._ONE, LaurentT({0: 2, -1: Fraction(1, 2)})]

        def tensor():
            return TensorScf.collect(
                ((rng.choice(orders), rng.choice(orders)),
                 rng.choice(shared) if rng.random() < 0.7 else T + ONE)
                for _ in range(rng.randrange(1, 8)))

        for _ in range(60):
            x, y = tensor(), tensor()
            assert x * y == TensorScf.collect(
                ((l1.shifted_sum(l2), r1.shifted_sum(r2)), a * b)
                for (l1, r1), a in x.terms.items()
                for (l2, r2), b in y.terms.items())


class TestProductSums:
    """ScfElement and TensorScf products sum in place (_product): against
    collect, with no zero kept, and a sum interned exactly when both of its
    summands are."""

    @staticmethod
    def interned(c):
        return id(c) in hopf_core._PRINTED

    def operands(self, rng, cls, keys):
        # interned values and their interned negatives, mostly; else values
        # that are not interned, equal to interned ones or not, Fraction
        # coefficients among them
        interned = [hopf_core._interned(dict(terms)) for terms in [
            {0: 1}, {0: -1}, {0: 1, 1: 2}, {0: -1, 1: -2}, {1: 1}, {1: -1}]]
        plain = [-interned[2], LaurentT({1: 1}), T + ONE,
                 LaurentT({0: Fraction(1, 2), 2: -1}), LaurentT({0: Fraction(-1, 2), 2: 1})]
        return cls._adopt((), {
            rng.choice(keys): rng.choice(interned if rng.random() < 0.75 else plain)
            for _ in range(rng.randrange(1, 6))})

    def expected(self, x, y, join):
        """(value, interned) per key, folded over the products in the order
        _product meets them, with collect's sum as the reference value."""
        state = {}
        for k1, a in x.terms.items():
            for k2, b in y.terms.items():
                key, c = join(k1, k2), hopf_core._times(a, b)
                if key in state:
                    total, both = state.pop(key)
                    total = total + c
                    if total:
                        state[key] = total, both and self.interned(c)
                else:
                    state[key] = c, self.interned(c)
        return state

    @pytest.mark.parametrize("cls", [ScfElement, TensorScf])
    def test_sums_against_collect(self, cls):
        rng = random.Random(3)
        orders = [pi for n in range(3) for pi in natural_unit_interval_orders(n)]
        if cls is ScfElement:
            keys, join = orders, Nuio.shifted_sum
        else:
            keys = list(itertools.product(orders[:3], orders[:3]))

            def join(k1, k2):
                return k1[0].shifted_sum(k2[0]), k1[1].shifted_sum(k2[1])

        seen = {"cancelled": 0, "plain": 0, "interned": 0}
        for _ in range(1000):
            x, y = self.operands(rng, cls, keys), self.operands(rng, cls, keys)
            got = x * y
            want = cls.collect((join(k1, k2), a * b) for k1, a in x.terms.items()
                               for k2, b in y.terms.items())
            assert got == want
            assert_trusted_form(got)
            assert all(c.terms for c in got.terms.values())
            state = self.expected(x, y, join)
            assert {key: self.interned(c) for key, c in got.terms.items()} == {
                key: both for key, (_, both) in state.items()}
            products = collections.Counter(
                join(k1, k2) for k1 in x.terms for k2 in y.terms)
            seen["cancelled"] += len(products.keys() - got.terms.keys())
            for key, c in got.terms.items():
                if products[key] > 1:
                    seen["interned" if self.interned(c) else "plain"] += 1
        assert min(seen.values()) >= 10, seen


class TestAntipode:
    def test_point_and_antichain(self):
        assert basis(PT).antipode() == -basis(PT)
        expected = -basis(A2) + basis(C2).scale(ONE + T)
        assert basis(A2).antipode() == expected

    def test_unit(self):
        assert ScfElement.unit().antipode() == ScfElement.unit()

    @pytest.mark.parametrize("n", range(8))
    def test_convolution_identities(self, n):
        for pi in natural_unit_interval_orders(n):
            x = basis(pi)
            expect = ScfElement.unit().scale(x.counit())
            cop = x.coproduct().terms.items()
            left = ScfElement.collect(
                (rho, c * v) for (a, b), c in cop
                for rho, v in (basis(a).antipode() * basis(b)).terms.items())
            right = ScfElement.collect(
                (rho, c * v) for (a, b), c in cop
                for rho, v in (basis(a) * basis(b).antipode()).terms.items())
            assert left == expect
            assert right == expect

    @pytest.mark.parametrize("n", range(8))
    def test_equals_the_counit_recursion(self, n):
        for pi in natural_unit_interval_orders(n):
            assert basis(pi).antipode() == reference_antipode_basis(pi)

    @pytest.mark.parametrize("n", range(7))
    def test_basis_value_is_the_cached_one(self, n):
        for pi in natural_unit_interval_orders(n):
            cached = hopf_core._antipode_basis(pi)
            got = basis(pi).antipode()
            assert got is cached
            assert got == ScfElement.collect(
                (rho, ONE * v) for rho, v in cached.terms.items())
            scaled = basis(pi).scale(T).antipode()
            assert scaled is not cached and scaled == cached.scale(T)
            assert scaled == ScfElement.collect(
                (rho, T * v) for rho, v in cached.terms.items())
            assert (basis(pi) + basis(PT)).antipode() == cached + basis(PT).antipode()
        assert ScfElement.zero().antipode() == ScfElement.zero()

    def test_antihomomorphism(self):
        # Against the reference recursion: the library reads the antipode
        # of a shifted sum off its pieces in reverse order, so its own
        # y.antipode() * x.antipode() would restate that rule.
        for n1 in range(7):
            for n2 in range(7 - n1):
                for p1 in natural_unit_interval_orders(n1):
                    for p2 in natural_unit_interval_orders(n2):
                        x, y = basis(p1), basis(p2)
                        expect = (reference_antipode_basis(p2)
                                  * reference_antipode_basis(p1))
                        assert reference_antipode_basis(p1.shifted_sum(p2)) == expect
                        assert (x * y).antipode() == expect


class TestDagger:
    def test_involution(self):
        for n in range(5):
            for pi in natural_unit_interval_orders(n):
                assert basis(pi).dagger().dagger() == basis(pi)

    def test_reverses_products(self):
        for n1 in range(4):
            for n2 in range(4 - n1):
                for p1 in natural_unit_interval_orders(n1):
                    for p2 in natural_unit_interval_orders(n2):
                        x, y = basis(p1), basis(p2)
                        assert (x * y).dagger() == y.dagger() * x.dagger()

    def test_flips_coproducts(self):
        # The library reads the coproduct of the order of each pair with
        # the larger key off its flip's by this very rule, so for half of
        # the pairs this restates it; the subset sum in
        # TestCoproduct::test_equals_the_subset_sum is the independent
        # referee, on every order of degree at most 7.
        for n in range(8):
            for pi in natural_unit_interval_orders(n):
                x = basis(pi)
                flipped = map_factors(x.coproduct().swap(), lambda e: e.dagger())
                assert x.dagger().coproduct() == flipped

    def test_commutes_with_antipode(self):
        # The library reads the antipode of the order of each pair with the
        # larger key off its flip's by this very rule, so for half of the
        # pairs this restates it; the counit recursion in
        # TestAntipode::test_equals_the_counit_recursion is the independent
        # referee, on every order of degree at most 7.
        for n in range(8):
            for pi in natural_unit_interval_orders(n):
                x = basis(pi)
                assert x.antipode().dagger() == x.dagger().antipode()

    def test_values_do_not_depend_on_the_call_order(self):
        # Each of two fresh interpreters computes every coproduct to degree
        # 7 and every antipode to degree 6, one walking the orders by
        # ascending key, so each flip's partner is cached first, and one by
        # descending key, so each mirror is asked for first.
        outputs = []
        for walk in ("ascending", "descending"):
            proc = subprocess.run(
                [sys.executable, *["-O"] * sys.flags.optimize,
                 "-c", CALL_ORDER_SWEEP, walk],
                env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                    filter(None, [SRC, os.environ.get("PYTHONPATH")]))),
                capture_output=True, text=True, timeout=120)
            if proc.returncode != 0:
                raise AssertionError(proc.stderr[-3000:])
            outputs.append(proc.stdout)
        if outputs[0] != outputs[1]:
            raise AssertionError("the two walks printed different values")
        rows = json.loads(outputs[0])
        orders = sorted((pi for n in range(8) for pi in natural_unit_interval_orders(n)),
                        key=Nuio.key)
        assert len(rows) == len(orders) == 626
        for pi, row in zip(orders, rows):
            want = [pi.to_dict(), reference_coproduct_basis(pi).to_dict(),
                    reference_antipode_basis(pi).to_dict() if pi.n <= 6 else None]
            assert row == json.loads(json.dumps(want))

    @pytest.mark.parametrize("image", ["_coproduct_basis", "_antipode_basis"])
    def test_budget_is_checked_before_the_flip(self, image, monkeypatch):
        # an order of degree 9 whose flip has the smaller key
        canonical = Nuio.from_profile((3,) + (10,) * 8)
        pi = canonical.dagger()
        assert canonical.key() < pi.key() and pi.dagger() is canonical
        cached = getattr(hopf_core, image)
        before = cached.cache_info().currsize

        def refuse(self):
            raise AssertionError("the flip was looked up before the budget check")

        monkeypatch.setattr(Nuio, "dagger", refuse)
        monkeypatch.setenv("UTHOPF_BUDGET", str(2 ** 9 - 1))
        with pytest.raises(combinatorics.BudgetError, match="needs 512 elements"):
            cached(pi)
        assert cached.cache_info().currsize == before


class TestSerialization:
    def test_element_round_trip(self):
        x = basis(W4).antipode() + basis(PT).scale(t_power(-1))
        assert ScfElement.from_dict(x.to_dict()) == x

    def test_tensor_sorted_terms(self):
        cop = basis(A2).coproduct()
        keys = [(l.n, r.n) for (l, r), _ in cop.sorted_terms()]
        assert keys == sorted(keys)
        # key() sorts by n first, so the order is the one that sorted on
        # (left n, left key, right key)
        for pi in [pi for n in range(7) for pi in natural_unit_interval_orders(n)]:
            cop = basis(pi).coproduct()
            assert cop.sorted_terms() == sorted(
                cop.terms.items(), key=lambda kv: (kv[0][0].n, kv[0][0].key(),
                                                   kv[0][1].key()))


def assert_trusted_form(x):
    """x equals its rebuild through the validating constructor, and so does
    every coefficient that is a combination; every rational is already in
    _exact form."""
    assert type(x)(*x.context, x.terms) == x
    for v in x.terms.values():
        if isinstance(v, Combination):
            assert_trusted_form(v)
        else:
            assert _exact(v) is v, "%r holds %r" % (x, v)


class TestTrustedConstruction:
    """collect and the linear operations build without validating; every
    result must pass the validating constructor unchanged."""

    def test_symbolic_sweep(self):
        orders = [pi for n in range(7) for pi in natural_unit_interval_orders(n)]
        for pi in orders:
            x = basis(pi)
            for y in (x.coproduct(), x.antipode(), x.dagger(), x.coproduct().swap(),
                      x.antipode() - x.scale(Fraction(3, 2) * T), -x.coproduct()):
                assert_trusted_form(y)
        for a in orders:
            for b in orders:
                if a.n + b.n <= 6:
                    assert_trusted_form((basis(a) * basis(b)).dagger())

    def test_adopts_its_dict_like_the_comprehension(self):
        # _trusted normalizes the dict it is given in place; the copying
        # comprehension it replaced is the reference for values, key order
        # and int / Fraction types
        def reference(terms):
            return {key: c.numerator if type(c) is Fraction and c.denominator == 1
                    else c for key, c in terms.items() if c}

        rng = random.Random(5)
        table = ut_table(2, 2)
        orders = [pi for n in range(4) for pi in natural_unit_interval_orders(n)]
        rationals = [0, Fraction(0), 1, -3, Fraction(4), Fraction(-6, 3),
                     Fraction(1, 2), Fraction(-5, 3)]
        kinds = [
            (LaurentT, (), lambda: rng.randrange(-4, 5), lambda: rng.choice(rationals)),
            (ScfElement, (), lambda: rng.choice(orders), lambda: rng.choice(
                [LaurentT.zero(), ONE, T + ONE, hopf_core._ONE, t_power(-2)])),
            (GradedClassFunction, (2,), lambda: rng.randrange(6), lambda: rng.choice(
                [ClassFunction(table), trivial(table),
                 ClassFunction.class_indicator(table, 1)])),
        ]
        for cls, context, key, value in kinds:
            for _ in range(200):
                terms = {key(): value() for _ in range(rng.randrange(8))}
                want = reference(terms)
                x = cls._trusted(context, terms)
                assert x.terms is terms
                assert list(x.terms.items()) == list(want.items())
                assert [type(v) for v in x.terms.values()] == [
                    type(v) for v in want.values()]
                assert x.context == context

    def test_mutating_a_result_leaves_the_caches_intact(self):
        # every result owns the dict it adopted: clearing it, and the
        # class functions it holds, changes no cached value
        def clear(x):
            for v in x.terms.values():
                if isinstance(v, (ClassFunction, TensorFunction)):
                    v.terms.clear()
            x.terms.clear()

        orders = [pi for n in range(6) for pi in natural_unit_interval_orders(n)]
        for pi in orders:
            x = basis(pi)
            cop, anti = x.coproduct(), x.antipode()
            results = [cop + cop, -cop, cop.scale(T), cop.swap(),
                       cop.component(1, pi.n - 1), cop * basis(PT).coproduct(),
                       x.scale(2).coproduct(),
                       anti + anti, -anti, anti.scale(T), anti * x, anti.dagger(),
                       (x + basis(PT)).antipode(), x * x, ScfElement.collect([(pi, ONE)])]
            if pi.n <= 3:
                results += [specialize(x, 2), specialize(anti, 2),
                            specialize_tensor(cop, 2)]
            for y in results:
                assert y is not cop and y is not anti
                clear(y)
        for pi in orders:
            assert hopf_core._coproduct_basis(pi) == \
                hopf_core._coproduct_basis.__wrapped__(pi) == reference_coproduct_basis(pi)
            assert hopf_core._antipode_basis(pi) == \
                hopf_core._antipode_basis.__wrapped__(pi) == reference_antipode_basis(pi)
            if pi.n <= 3:
                assert pattern_indicator(pi, 2) == pattern_indicator.__wrapped__(pi, 2)

    def test_oracle_sides(self):
        for case in itertools.chain(product_oracle_cases(3, 2),
                                    coproduct_oracle_cases(3, 2)):
            assert_trusted_form(case[2])
            assert_trusted_form(case[3])

    def test_axiom_and_induction_sides_check_no_derived_order(self, monkeypatch):
        # the split tables are cached by order, so clear them: every Levi
        # and radical pattern is derived again while the check refuses
        def refuse(pairs):
            raise AssertionError("a derived order ran the relation check")

        hopf_core.pattern_split.cache_clear()
        hopf_core.split_tables.cache_clear()
        monkeypatch.setattr(combinatorics, "_relation_axioms", refuse)
        cases = list(itertools.chain(axiom_cases(3, 2), product_hom_cases(2, 2),
                                     coproduct_hom_cases(2, 2)))
        assert len(cases) > 1000
        for _, _, lhs, rhs in cases:
            assert lhs == rhs
            assert_trusted_form(lhs)
            assert_trusted_form(rhs)


class TestSpecialize:
    @pytest.mark.parametrize("q", [2, 3])
    def test_pattern_indicator_matches_induced_trivial(self, q):
        from uthopf.class_functions import ClassFunction, induce_cf
        from uthopf.group_engine import pattern_group

        for n in range(4):
            big = ut_table(n, q)
            for pi in natural_unit_interval_orders(n):
                order = from_strict(range(1, n + 1), pi.strict)
                sub = pattern_group(order, q)
                induced = induce_cf(trivial(sub), big)
                index = Fraction(big.order, sub.order)
                assert induced == pattern_indicator(pi, q) * index

    @pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3, 5) for n in range(5)])
    def test_pattern_indicator_against_the_predicate(self, n, q):
        # the flag certificate against the per-element predicate it replaced
        table = ut_table(n, q)
        for pi in natural_unit_interval_orders(n):
            off = kernel(q, n).mask([(i - 1, j - 1) for i, j in
                                     itertools.combinations(range(1, n + 1), 2)
                                     if (i, j) not in pi.strict])
            want = subgroup_indicator(table, lambda m: not m.code & off)
            assert pattern_indicator.__wrapped__(pi, q) == want

    @pytest.mark.parametrize("q", [2, 3, 5])
    @pytest.mark.parametrize("n, cells", [
        (3, [(1, 2)]), (3, [(2, 3)]), (4, [(1, 2), (1, 3), (1, 4), (2, 3)]),
    ], ids=["12-in-ut3", "23-in-ut3", "24-missing-in-ut4"])
    def test_flag_certificate_rejects_a_pattern_that_is_not_normal(self, n, cells, q):
        off = kernel(q, n).mask([(i - 1, j - 1) for i, j in
                                 itertools.combinations(range(1, n + 1), 2)
                                 if (i, j) not in cells])
        with pytest.raises(ValueError, match="not a union of its classes"):
            hopf_core._vanishing_indicator(ut_table(n, q), off)

    def test_linear(self):
        x = basis(A2) + basis(C2).scale(T)
        got = specialize(x, 2)
        expect = specialize(basis(A2), 2) + specialize(basis(C2), 2).scale(
            Fraction(1, 2)
        )
        assert got == expect

    @pytest.mark.parametrize("q", [2, 3])
    def test_values_hold_ints_when_integral(self, q):
        forms = set()
        for n in range(4):
            for pi in natural_unit_interval_orders(n):
                for c in (ONE, T, LaurentT.scalar(Fraction(1, 2)), T2 + ONE):
                    for f in specialize(basis(pi).scale(c), q).terms.values():
                        assert_exact_form(f)
                        forms.update(map(type, f.terms.values()))
                        assert all(type(v) is Fraction for v in f.values)
        assert forms == {int, Fraction}

    @pytest.mark.parametrize("q", [2, 3])
    def test_unit_coefficients_skip_evaluate_and_scale(self, q, monkeypatch):
        # the unit path against the scale path, on unit coefficients
        # interned or not; it evaluates and scales nothing, and each result
        # owns the dict of its indicator
        orders = [pi for n in range(4) for pi in natural_unit_interval_orders(n)]
        units = [basis(pi) for pi in orders]
        units += [ScfElement({pi: LaurentT({0: 1})}) for pi in orders]
        mixed = [x + basis(C2).scale(LaurentT({0: 1, -1: 2})) + basis(PT).scale(T)
                 for x in units]
        want = [reference_specialize(x, q) for x in units + mixed]
        calls = []
        for owner, name in ((hopf_core, "_value"), (ClassFunction, "scale")):
            monkeypatch.setattr(owner, name, lambda *args, f=getattr(owner, name):
                                calls.append(args[0]) or f(*args))
        assert [specialize(x, q) for x in units] == want[:len(units)]
        assert calls == []
        assert [specialize(x, q) for x in mixed] == want[len(units):]
        assert calls
        for x in units:
            (pi,) = x.terms
            got, cached = specialize(x, q).terms[pi.n], pattern_indicator(pi, q)
            assert got is not cached and got.terms is not cached.terms

    def test_unit(self):
        one = specialize(ScfElement.unit(), 2)
        assert list(one.terms) == [0]

    @pytest.mark.parametrize("q", [2, 3])
    def test_product_oracle_small(self, q):
        reports = verify_reports(product_oracle_cases(3, q))
        assert reports and all(r["status"] == "ok" for r in reports)

    @pytest.mark.parametrize("q", [2, 3])
    def test_coproduct_oracle_small(self, q):
        reports = verify_reports(coproduct_oracle_cases(3, q))
        assert reports and all(r["status"] == "ok" for r in reports)

    def test_ut_product_matches_symbolic(self):
        x, y = basis(A2), basis(PT)
        lhs = ut_product(specialize(x, 2), specialize(y, 2))
        assert lhs == specialize(x * y, 2)

    def test_ut_product_rejects_mixed_primes(self):
        with pytest.raises(ValueError):
            ut_product(specialize(basis(A2), 2), specialize(basis(A2), 3))

    def test_ut_coproduct_matches_symbolic(self):
        x = basis(J3)
        assert ut_coproduct(specialize(x, 2)) == specialize_tensor(
            x.coproduct(), 2
        )

    def test_ut_dagger_matches_symbolic(self):
        x = basis(W4)
        assert specialize(x, 2).dagger() == specialize(x.dagger(), 2)


class TestOracleSums:
    """parabolic_coproduct and specialize_tensor add int numerators over one
    denominator and divide once per class pair; the collect sums they
    replaced are the references, and every result is in trusted form."""

    @pytest.mark.parametrize("family,top,q", [("ut", 4, 2), ("ut", 4, 3), ("gl", 3, 2)])
    def test_parabolic_coproduct(self, family, top, q):
        ambient, splits, coproduct = {
            "ut": (ut_table, hopf_core._ut_splits, ut_coproduct),
            "gl": (gl_table, gl_bridge._gl_splits, gl_coproduct),
        }[family]

        def support(x):
            return {(key, pair) for key, t in x.terms.items() for pair in t.terms}

        cancelled, forms = 0, set()
        for n in range(top + 1):
            # indicators; induced inputs: the pattern indicators, which are
            # normalized induced trivial characters, scaled by t = 1/q so
            # that they are Fraction-valued, and on GL induced up once more;
            # and two-term differences, whose contributions can cancel
            ones = [GradedClassFunction(q, {n: f}) for f in indicators(ambient(n, q))]
            induced = [specialize(basis(pi).scale(T), q)
                       for pi in natural_unit_interval_orders(n)]
            if family == "gl":
                induced = [induce_to_gl(x) for x in induced]
            forms.update(type(v) for x in induced for v in x.terms[n].terms.values())
            pairs = list(zip(ones, ones[1:])) + [(ones[0], g) for g in ones[2:]]
            for a in ones + induced + [f - g for f, g in pairs]:
                got = coproduct(a)
                assert got == reference_parabolic_coproduct(a, ambient, splits)
                assert_trusted_form(got)
            for f, g in pairs:
                both = support(coproduct(f)) | support(coproduct(g))
                cancelled += not both <= support(coproduct(f - g))
        assert cancelled and Fraction in forms

    @pytest.mark.parametrize("q", [2, 3, 5, 11])
    def test_value_at_one_over_q_matches_the_fraction_loop(self, q, monkeypatch):
        # _value(c, 1, q): int coefficients, negative exponents among them,
        # are summed as ints over q^hi, hi = max(0, top exponent); Fraction
        # coefficients, alone or among ints, by the same sum; neither it
        # nor specialize nor specialize_tensor calls evaluate
        rng = random.Random(q)
        ints = [LaurentT({}), ONE, T, t_power(-2), ONE - T, T2 - t_power(-1)]
        ints += [LaurentT({rng.randrange(-4, 5): rng.randrange(-3, 4) for _ in range(4)})
                 for _ in range(40)]
        fractions = [LaurentT({1: Fraction(1, 2)}),
                     LaurentT({-1: Fraction(2, 3), 2: 5}), ONE.scale(Fraction(q, q + 1))]
        fractions += [LaurentT({rng.randrange(-5, 4): rng.choice([
            rng.randrange(-6, 7), Fraction(rng.randrange(-9, 10), rng.randrange(1, 8))])
            for _ in range(rng.randrange(1, 6))}) for _ in range(200)]
        evaluate, evaluated = LaurentT.evaluate, []
        monkeypatch.setattr(LaurentT, "evaluate", lambda c, x: evaluated.append(c) or
                            evaluate(c, x))
        for c in ints + fractions:
            num, den = hopf_core._value(c, 1, q)
            assert type(num) is int and type(den) is int and den > 0
            assert Fraction(num, den) == loop_evaluate(c, Fraction(1, q))
        for c in ints:
            assert hopf_core._value(c, 1, q)[1] == q ** max([0, *c.terms])
        x = basis(A2).scale(T2 - t_power(-1)) + basis(PT).scale(Fraction(2, 3))
        specialize(x, q)
        specialize_tensor(x.coproduct(), q)
        assert evaluated == []

    @pytest.mark.parametrize("q", [2, 3])
    def test_specialize_tensor(self, q):
        orders = [pi for n in range(5) for pi in natural_unit_interval_orders(n)]
        inputs = [basis(pi).coproduct() for pi in orders]
        inputs += [(basis(pi) + basis(PT).scale(Fraction(2, 3) * T2 - T)).coproduct()
                   for pi in orders]
        # the identity class pair cancels; A2 and C2 differ at another class
        cancelling = TensorScf({(A2, PT): ONE, (C2, PT): -ONE})
        for tx in inputs + [cancelling, cancelling.scale(T)]:
            got = specialize_tensor(tx, q)
            assert got == reference_specialize_tensor(tx, q)
            assert_trusted_form(got)
        got = specialize_tensor(cancelling, q).terms[2, 1]
        assert got.terms and (0, 0) not in got.terms


class TestMonoidLevel:
    def test_inflate_then_deflate(self):
        from uthopf.class_functions import ClassFunction
        from uthopf.combinatorics import chain_order, levi_pattern
        from uthopf.group_engine import pattern_group

        ambient = chain_order((1, 2, 3))
        comp = SetComposition([(1,), (2, 3)])
        levi = pattern_group(levi_pattern(ambient, comp), 2)
        for c in range(len(levi.class_reps)):
            psi = ClassFunction.class_indicator(levi, c)
            up = monoid_inflate(ambient, comp, psi)
            assert monoid_deflate(ambient, comp, up) == psi

    def test_inflate_needs_the_parabolic_to_be_everything(self):
        from uthopf.class_functions import ClassFunction
        from uthopf.combinatorics import chain_order, levi_pattern
        from uthopf.group_engine import pattern_group

        # 3 below 1 descends against the blocks (1,), (2, 3)
        ambient = chain_order((3, 1, 2))
        comp = SetComposition([(1,), (2, 3)])
        levi = pattern_group(levi_pattern(ambient, comp), 2)
        with pytest.raises(ValueError):
            monoid_inflate(ambient, comp, trivial(levi))

    def test_relabel_round_trip(self):
        from uthopf.class_functions import ClassFunction
        from uthopf.group_engine import pattern_group

        order = from_strict((1, 2, 3), [(1, 3)])
        table = pattern_group(order, 2)
        sigma = {1: 2, 2: 1, 3: 3}
        back = {v: k for k, v in sigma.items()}
        psi = ClassFunction.class_indicator(table, 1)
        assert monoid_relabel(monoid_relabel(psi, sigma), back) == psi

    def test_relabel_moves_values_along_the_mapping(self):
        # a 3-cycle, so that the mapping and its inverse differ
        from uthopf.group_engine import pattern_group

        order = from_strict((1, 2, 3), [(1, 3), (2, 3)])
        table = pattern_group(order, 3)
        sigma = {1: 2, 2: 3, 3: 1}
        for c in range(len(table.class_reps)):
            psi = ClassFunction.class_indicator(table, c)
            moved = monoid_relabel(psi, sigma)
            for m in table.elements:
                assert moved.at_matrix(m.relabel(sigma)) == psi.at_matrix(m)

    def test_axiom_reports_small(self):
        reports = verify_reports(axiom_cases(2, 2))
        assert reports and all(r["status"] == "ok" for r in reports)

    def test_fubini_counts_set_compositions(self):
        from uthopf.combinatorics import set_compositions

        for n in range(6):
            assert _fubini(n) == sum(1 for _ in set_compositions(range(1, n + 1)))

    def test_fubini_equals_the_binomial_recurrence(self):
        # the recurrence a(m) = sum_k C(m, k) a(m - k) it replaced, which
        # multiplies big numbers by big numbers
        a = [1]
        for m in range(1, 61):
            a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
        assert [_fubini(n) for n in range(61)] == a

    def test_sampled_reports_are_deterministic(self):
        a = verify_reports(axiom_cases(1, 2, samples=6, sample_size=3, seed=9))
        b = verify_reports(axiom_cases(1, 2, samples=6, sample_size=3, seed=9))
        assert [r["instance"] for r in a] == [r["instance"] for r in b]
        assert all(r["status"] == "ok" for r in a)


class TestFailureDiff:
    """A failing equality report names its first differing coordinate."""

    def test_perturbed_class_function(self):
        lhs = specialize(basis(W4), 2)
        table = lhs.terms[4].group
        c = len(table.class_reps) - 1
        bump = GradedClassFunction(2, {4: ClassFunction.class_indicator(table, c)})
        report = _report("check", "instance", lhs, lhs + bump)
        assert report["status"] == "fail"
        value = lhs.terms[4].at_class(c)
        assert report["diff"] == {"at": [4, c], "lhs": "%d/%d" % (
            value.numerator, value.denominator), "rhs": "%d/%d" % (
            (value + 1).numerator, (value + 1).denominator)}

    def test_perturbed_tensor_reads_a_missing_key_as_zero(self):
        lhs = ut_coproduct(specialize(basis(J3), 2))
        left, right = ut_table(1, 2), ut_table(2, 2)
        bump = GradedTensor(2, {(1, 2): TensorFunction(left, right, {(0, 1): 3})})
        report = _report("check", "instance", lhs, lhs + bump)
        before = lhs.terms[(1, 2)].terms.get((0, 1), Fraction(0))
        assert report["diff"]["at"] == [[1, 2], [0, 1]]
        assert Fraction(report["diff"]["rhs"]) - Fraction(report["diff"]["lhs"]) == 3
        assert Fraction(report["diff"]["lhs"]) == before
        # a degree present on one side only reads as the zero family
        only = _report("check", "instance", GradedTensor(2), bump)
        assert only["diff"] == {"at": [[1, 2], [0, 1]], "lhs": "0/1", "rhs": "3/1"}

    def test_different_groups_differ_in_context(self):
        a = trivial(ut_table(2, 2))
        b = trivial(ut_table(2, 3))
        assert _report("check", "instance", a, b)["diff"]["at"] == ["context"]

    def test_success_and_inequality_carry_no_diff(self):
        x = specialize(basis(V3), 3)
        assert "diff" not in _report("check", "instance", x, x)
        assert "diff" not in _report("check", "instance", x, x, operator.ne)


class TestReportHashes:
    """A holding equality hashes its left side for both sides, which is
    sound only because equal values print alike."""

    def test_equal_sides_print_alike(self):
        suites = [
            axiom_cases(3, 2),
            axiom_cases(2, 3, samples=20, sample_size=3, seed=1),
            product_oracle_cases(3, 2),
            coproduct_oracle_cases(3, 2),
            *(cases(n, q) for n, q in ((3, 2), (2, 3)) for cases in (
                product_hom_cases, coproduct_hom_cases, dagger_invariance_cases)),
        ]
        equal = 0
        for check, instance, lhs, rhs, *relation in itertools.chain(*suites):
            if relation == [operator.ne] or lhs != rhs:
                continue
            assert repr(lhs) == repr(rhs), (check, instance)
            equal += 1
        assert equal == 5007

    def test_class_function_reprs_match_the_dense_text(self):
        # the reprs as they were written before they printed from terms:
        # through the dense values tuple, one Fraction per class
        def dense(x):
            if isinstance(x, ClassFunction):
                return "ClassFunction(%s, %s)" % (x.group.name, list(x.values))
            return "GradedClassFunction(q=%d, %s)" % (
                x.q, {n: list(f.values) for n, f in sorted(x.terms.items())})

        suites = [
            axiom_cases(3, 2),
            axiom_cases(2, 3, samples=20, sample_size=3, seed=1),
            product_oracle_cases(3, 2),
            coproduct_oracle_cases(3, 2),
            *(cases(n, q) for n, q in ((3, 2), (2, 3)) for cases in (
                product_hom_cases, coproduct_hom_cases, dagger_invariance_cases)),
        ]
        seen = {ClassFunction: 0, GradedClassFunction: 0}
        sparse = 0
        for _, _, lhs, rhs, *_ in itertools.chain(*suites):
            for x in (lhs, rhs):
                pieces = x.terms.values() if type(x) is GradedClassFunction else ()
                for f in (x, *pieces):
                    if type(f) in seen:
                        assert repr(f) == dense(f)
                        seen[type(f)] += 1
                        sparse += type(f) is ClassFunction and \
                            len(f.terms) < len(f.group.class_reps)
        assert min(seen.values()) > 100 and sparse > 100
        empty = GradedClassFunction(2)
        assert repr(empty) == dense(empty) == "GradedClassFunction(q=2, {})"
        zero = ClassFunction(ut_table(2, 3))
        assert repr(zero) == dense(zero)

    def test_only_a_holding_equality_shares_its_hash(self):
        x = specialize(basis(V3), 3)
        ok = _report("check", "instance", x, specialize(basis(V3), 3))
        assert ok["lhs_hash"] == ok["rhs_hash"] == short_hash(repr(x))
        for lhs, rhs, relation in ((x, x + x, operator.eq), (x, x + x, operator.ne),
                                   (x, x, operator.ne)):
            report = _report("check", "instance", lhs, rhs, relation)
            assert report["lhs_hash"] == short_hash(repr(lhs))
            assert report["rhs_hash"] == short_hash(repr(rhs))
