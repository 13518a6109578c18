"""Symbolic Hopf structure and its realization on unitriangular groups.

The witness coproduct is pinned term by term from a hand computation; the
algebra and coalgebra laws are checked symbolically; the group realization
is compared against the symbolic side through the oracle reports.
"""

from fractions import Fraction

import pytest

from uthopf.combinatorics import Nuio, SetComposition, natural_unit_interval_orders
from uthopf.group_engine import ut_table
from uthopf.hopf_core import (
    LaurentT,
    ScfElement,
    TensorScf,
    axiom_reports,
    coproduct_oracle_reports,
    monoid_deflate,
    monoid_inflate,
    monoid_relabel,
    pattern_indicator,
    product_oracle_reports,
    specialize,
    specialize_tensor,
    ut_coproduct,
    ut_dagger,
    ut_product,
)

PT = Nuio(1, [])
A2 = Nuio(2, [])
C2 = Nuio(2, [(1, 2)])
A3 = Nuio(3, [])
V3 = Nuio(3, [(1, 3)])
J3 = Nuio(3, [(1, 3), (2, 3)])
W4 = Nuio(4, [(1, 4), (2, 4)])

ONE = LaurentT.one()
T = LaurentT.t(1)
T2 = LaurentT.t(2)


def basis(pi):
    return ScfElement.basis(pi)


class TestLaurentT:
    def test_ring_laws(self):
        assert (ONE + T) * (ONE - T) == ONE - T2
        assert T * LaurentT.t(-1) == ONE
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
        assert LaurentT.t(-2).evaluate(Fraction(1, 3)) == 9

    def test_dict_round_trip(self):
        x = LaurentT({2: Fraction(1), -1: Fraction(-3, 2)})
        assert LaurentT.from_dict(x.to_dict()) == x


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
        assert set(prod.degrees()) == {5}


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

    def test_compatible_with_product(self):
        for n1 in range(4):
            for n2 in range(4 - n1):
                for p1 in natural_unit_interval_orders(n1):
                    for p2 in natural_unit_interval_orders(n2):
                        x, y = basis(p1), basis(p2)
                        assert (x * y).coproduct() == x.coproduct() * y.coproduct()


class TestAntipode:
    def test_point_and_antichain(self):
        assert basis(PT).antipode() == -basis(PT)
        expected = -basis(A2) + basis(C2).scale(ONE + T)
        assert basis(A2).antipode() == expected

    def test_unit(self):
        assert ScfElement.unit().antipode() == ScfElement.unit()

    @pytest.mark.parametrize("n", [0, 1, 2, 3])
    def test_convolution_identities(self, n):
        for pi in natural_unit_interval_orders(n):
            x = basis(pi)
            expect = ScfElement.unit().scale(x.counit())
            left = ScfElement.zero()
            right = ScfElement.zero()
            for (a, b), c in x.coproduct().terms.items():
                left = left + (basis(a).antipode() * basis(b)).scale(c)
                right = right + (basis(a) * basis(b).antipode()).scale(c)
            assert left == expect
            assert right == expect

    def test_antihomomorphism(self):
        for n1 in range(3):
            for n2 in range(3 - n1):
                for p1 in natural_unit_interval_orders(n1):
                    for p2 in natural_unit_interval_orders(n2):
                        x, y = basis(p1), basis(p2)
                        assert (x * y).antipode() == y.antipode() * x.antipode()


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
        for n in range(5):
            for pi in natural_unit_interval_orders(n):
                x = basis(pi)
                flipped = x.coproduct().swap().map_factors(lambda e: e.dagger())
                assert x.dagger().coproduct() == flipped

    def test_commutes_with_antipode(self):
        for n in range(4):
            for pi in natural_unit_interval_orders(n):
                x = basis(pi)
                assert x.antipode().dagger() == x.dagger().antipode()


class TestSerialization:
    def test_element_round_trip(self):
        x = basis(W4).antipode() + basis(PT).scale(LaurentT.t(-1))
        assert ScfElement.from_dict(x.to_dict()) == x

    def test_tensor_sorted_terms(self):
        cop = basis(A2).coproduct()
        keys = [(l.n, r.n) for (l, r), _ in cop.sorted_terms()]
        assert keys == sorted(keys)


class TestSpecialize:
    @pytest.mark.parametrize("q", [2, 3])
    def test_pattern_indicator_matches_induced_trivial(self, q):
        from uthopf.class_functions import ClassFunction, induce_cf
        from uthopf.group_engine import pattern_group

        for n in range(4):
            big = ut_table(n, q)
            for pi in natural_unit_interval_orders(n):
                sub = pattern_group(pi.order, q)
                induced = induce_cf(ClassFunction.trivial(sub), big)
                index = Fraction(big.order, sub.order)
                assert induced == pattern_indicator(pi, q) * index

    def test_linear(self):
        x = basis(A2) + basis(C2).scale(T)
        got = specialize(x, 2)
        expect = specialize(basis(A2), 2) + specialize(basis(C2), 2).scale(
            Fraction(1, 2)
        )
        assert got == expect

    def test_unit(self):
        one = specialize(ScfElement.unit(), 2)
        assert list(one.terms) == [0]

    @pytest.mark.parametrize("q", [2, 3])
    def test_product_oracle_small(self, q):
        reports = product_oracle_reports(3, q)
        assert reports and all(r["status"] == "ok" for r in reports)

    @pytest.mark.parametrize("q", [2, 3])
    def test_coproduct_oracle_small(self, q):
        reports = coproduct_oracle_reports(3, q)
        assert reports and all(r["status"] == "ok" for r in reports)

    def test_ut_product_matches_symbolic(self):
        x, y = basis(A2), basis(PT)
        lhs = ut_product(specialize(x, 2), specialize(y, 2))
        assert lhs == specialize(x * y, 2)

    def test_ut_coproduct_matches_symbolic(self):
        x = basis(J3)
        assert ut_coproduct(specialize(x, 2)) == specialize_tensor(
            x.coproduct(), 2
        )

    def test_ut_dagger_matches_symbolic(self):
        x = basis(W4)
        assert ut_dagger(specialize(x, 2)) == specialize(x.dagger(), 2)


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

    def test_relabel_round_trip(self):
        from uthopf.class_functions import ClassFunction
        from uthopf.group_engine import pattern_group
        from uthopf.combinatorics import PartialOrder

        order = PartialOrder.from_strict((1, 2, 3), [(1, 3)])
        table = pattern_group(order, 2)
        sigma = {1: 2, 2: 1, 3: 3}
        back = {v: k for k, v in sigma.items()}
        psi = ClassFunction.class_indicator(table, 1)
        assert monoid_relabel(monoid_relabel(psi, sigma), back) == psi

    def test_axiom_reports_small(self):
        reports = axiom_reports(2, 2)
        assert reports and all(r["status"] == "ok" for r in reports)

    def test_sampled_reports_are_deterministic(self):
        a = axiom_reports(1, 2, samples=6, sample_size=3, seed=9)
        b = axiom_reports(1, 2, samples=6, sample_size=3, seed=9)
        assert [r["instance"] for r in a] == [r["instance"] for r in b]
        assert all(r["status"] == "ok" for r in a)
