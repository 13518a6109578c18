"""Class functions and their transport maps, checked against first principles.

Inductions are computed two ways (classwise binning and the textbook
conjugation sum), adjunctions are checked as literal inner product
identities, and straightening is checked as a round trip.
"""

from fractions import Fraction

import pytest

from uthopf.class_functions import (
    ClassFunction,
    TensorFunction,
    dagger_cf,
    deflate_cf,
    induce_cf,
    inflate_cf,
    pullback_cf,
    restrict_cf,
    straighten_cf,
    unstraighten_cf,
)
from uthopf.combinatorics import (
    PartialOrder,
    SetComposition,
    chain_order,
    levi_pattern,
    parabolic_pattern,
    radical_pattern,
)
from uthopf.group_engine import gl_table, pattern_group, ut_table


def split_tables(n, blocks, q):
    chain = chain_order(range(1, n + 1))
    comp = SetComposition(blocks)
    para = pattern_group(parabolic_pattern(chain, comp), q)
    levi = pattern_group(levi_pattern(chain, comp), q)
    radical = pattern_group(radical_pattern(chain, comp), q)
    return para, levi, radical


class TestClassFunction:
    def test_arithmetic_is_pointwise(self):
        g = ut_table(3, 2)
        a = ClassFunction.class_indicator(g, 0)
        b = ClassFunction.class_indicator(g, 1)
        s = a + b
        assert s.at_class(0) == 1 and s.at_class(1) == 1
        assert (s - b) == a
        assert (-a).at_class(0) == -1
        assert (a * Fraction(3, 2)).at_class(0) == Fraction(3, 2)
        assert (a * b).at_class(0) == 0

    def test_from_function_check_rejects_non_class_function(self):
        # the corner entry moves under conjugation once a superdiagonal
        # entry is set; the superdiagonal entries themselves stay fixed
        g = ut_table(3, 2)
        with pytest.raises(AssertionError):
            ClassFunction.from_function(g, lambda m: m.entry(1, 3), check=True)
        ClassFunction.from_function(g, lambda m: m.entry(1, 2), check=True)

    def test_indicator_inner_products(self):
        g = gl_table(2, 3)
        n = len(g.class_reps)
        for c in range(n):
            ind = ClassFunction.class_indicator(g, c)
            assert ind.inner(ind) == Fraction(g.class_sizes[c], g.order)
            other = ClassFunction.class_indicator(g, (c + 1) % n)
            assert ind.inner(other) == 0
        triv = ClassFunction.trivial(g)
        assert triv.inner(triv) == 1

    def test_subgroup_indicator_requires_normality(self):
        g = ut_table(3, 2)
        # entries above the diagonal in column 3 only: normal
        normal = ClassFunction.subgroup_indicator(
            g, lambda m: m.entry(1, 2) == 0
        )
        assert normal.at_matrix(g.elements[g.identity_index]) == 1
        # entry (2, 3) only: conjugation leaks into the corner, not normal
        with pytest.raises(AssertionError):
            ClassFunction.subgroup_indicator(
                g, lambda m: m.entry(1, 2) == 0 and m.entry(1, 3) == 0
            )


class TestInduction:
    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
    def test_classwise_equals_naive(self, n, q):
        ut = ut_table(n, q)
        gl = gl_table(n, q)
        for c in range(len(ut.class_reps)):
            psi = ClassFunction.class_indicator(ut, c)
            fast = induce_cf(psi, gl, method="classwise")
            slow = induce_cf(psi, gl, method="naive")
            assert fast == slow

    def test_induced_trivial_at_identity_is_the_index(self):
        ut = ut_table(3, 2)
        gl = gl_table(3, 2)
        ind = induce_cf(ClassFunction.trivial(ut), gl)
        assert ind.at_matrix(gl.elements[gl.identity_index]) == Fraction(
            gl.order, ut.order
        )

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
    def test_frobenius_reciprocity(self, n, q):
        ut = ut_table(n, q)
        gl = gl_table(n, q)
        for c_small in range(len(ut.class_reps)):
            psi = ClassFunction.class_indicator(ut, c_small)
            up = induce_cf(psi, gl)
            for c_big in range(len(gl.class_reps)):
                phi = ClassFunction.class_indicator(gl, c_big)
                assert up.inner(phi) == psi.inner(restrict_cf(phi, ut))

    def test_restrict_after_induce_dominates(self):
        # Res Ind psi - psi is a nonnegative combination at the identity
        ut = ut_table(2, 2)
        gl = gl_table(2, 2)
        psi = ClassFunction.trivial(ut)
        back = restrict_cf(induce_cf(psi, gl), ut)
        e = ut.elements[ut.identity_index]
        assert back.at_matrix(e) >= psi.at_matrix(e)


class TestInflationDeflation:
    @pytest.mark.parametrize("blocks", [((1, 2), (3, 4)), ((1,), (2, 3, 4))])
    def test_deflate_inverts_inflate(self, blocks):
        para, levi, radical = split_tables(4, blocks, 2)
        for c in range(len(levi.class_reps)):
            psi = ClassFunction.class_indicator(levi, c)
            assert deflate_cf(inflate_cf(psi, para, levi, radical), levi, radical) == psi

    def test_inflate_deflate_adjoint(self):
        para, levi, radical = split_tables(4, ((1, 2), (3, 4)), 2)
        for c1 in range(len(levi.class_reps)):
            psi = ClassFunction.class_indicator(levi, c1)
            up = inflate_cf(psi, para, levi, radical)
            for c2 in range(len(para.class_reps)):
                phi = ClassFunction.class_indicator(para, c2)
                assert up.inner(phi) == psi.inner(deflate_cf(phi, levi, radical))

    def test_deflate_from_overgroup(self):
        # deflating a function on the ambient group only reads the coset
        # products, so restricting to the parabolic first changes nothing
        para, levi, radical = split_tables(3, ((1,), (2, 3)), 2)
        big = ut_table(3, 2)
        for c in range(len(big.class_reps)):
            psi = ClassFunction.class_indicator(big, c)
            assert deflate_cf(psi, levi, radical) == deflate_cf(
                restrict_cf(psi, para), levi, radical
            )


class TestDagger:
    def test_involution_and_inner_product(self):
        g = ut_table(3, 3)
        for c in range(len(g.class_reps)):
            psi = ClassFunction.class_indicator(g, c)
            assert dagger_cf(dagger_cf(psi)) == psi
        a = ClassFunction.class_indicator(g, 1)
        b = ClassFunction.class_indicator(g, 2)
        assert dagger_cf(a).inner(dagger_cf(b)) == a.inner(b)

    def test_permutes_class_indicators(self):
        g = ut_table(3, 2)
        for c in range(len(g.class_reps)):
            image = dagger_cf(ClassFunction.class_indicator(g, c))
            assert sorted(image.values) == sorted(
                ClassFunction.class_indicator(g, c).values
            )

    def test_pullback_along_identity(self):
        g = ut_table(2, 3)
        psi = ClassFunction.class_indicator(g, 1)
        assert pullback_cf(psi, g, lambda m: m) == psi


class TestStraightening:
    def test_round_trip_from_levi(self):
        _, levi, _ = split_tables(4, ((1, 2), (3, 4)), 2)
        left, right = ut_table(2, 2), ut_table(2, 2)
        for c in range(len(levi.class_reps)):
            psi = ClassFunction.class_indicator(levi, c)
            tensor = straighten_cf(psi, (1, 2), left, right)
            assert unstraighten_cf(tensor, (1, 2), levi) == psi

    def test_round_trip_from_tensor(self):
        _, levi, _ = split_tables(3, ((1,), (2, 3)), 2)
        left, right = ut_table(1, 2), ut_table(2, 2)
        for c1 in range(len(left.class_reps)):
            for c2 in range(len(right.class_reps)):
                tensor = TensorFunction.outer(
                    ClassFunction.class_indicator(left, c1),
                    ClassFunction.class_indicator(right, c2),
                )
                back = straighten_cf(
                    unstraighten_cf(tensor, (1,), levi), (1,), left, right
                )
                assert back == tensor

    def test_straighten_non_initial_subset(self):
        # blocks {1, 3} and {2}: the levi is a pattern group on [3]
        chain = chain_order((1, 2, 3))
        comp = SetComposition([(1, 3), (2,)])
        levi = pattern_group(levi_pattern(chain, comp), 2)
        left, right = ut_table(2, 2), ut_table(1, 2)
        for c in range(len(levi.class_reps)):
            psi = ClassFunction.class_indicator(levi, c)
            tensor = straighten_cf(psi, (1, 3), left, right)
            assert unstraighten_cf(tensor, (1, 3), levi) == psi


class TestTensorFunction:
    def test_outer_values(self):
        g1, g2 = ut_table(2, 2), ut_table(2, 2)
        a = ClassFunction.trivial(g1)
        b = ClassFunction.class_indicator(g2, 0)
        t = TensorFunction.outer(a, b)
        assert t.terms == {(0, 0): 1, (1, 0): 1}

    def test_addition_drops_zeros(self):
        g1, g2 = ut_table(2, 2), ut_table(2, 2)
        a = TensorFunction.outer(
            ClassFunction.class_indicator(g1, 0),
            ClassFunction.class_indicator(g2, 0),
        )
        z = a + a.scale(-1)
        assert not z
        assert z.terms == {}

    def test_inexact_coefficient_raises(self):
        g = ut_table(2, 2)
        with pytest.raises(TypeError):
            TensorFunction(g, g, {(0, 0): 0.5})
