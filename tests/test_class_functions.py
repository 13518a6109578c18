"""Class functions and their transport maps, checked against first principles.

Inductions are computed two ways (along the class fusion map and by the
textbook conjugation sum), restriction along the fusion is checked against
evaluation at elements, adjunctions are checked as literal inner product
identities, and straightening is checked as a round trip.  Deflation,
inflation and (un)straightening read class maps built once per split; the
per-call loops they replaced are kept here as references, and so are the
products that inflated through GroupTable.factorization and, on the general
linear side, induced up from a built parabolic table.
"""

import itertools
from fractions import Fraction

import pytest

from uthopf.class_functions import (
    ClassFunction,
    TensorFunction,
    _fusion,
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
    standardize,
)
from uthopf.gl_bridge import gl_product, levi_table, parabolic_table, radical_table
from uthopf.group_engine import gl_table, pattern_group, ut_table
from uthopf.hopf_core import GradedClassFunction, ut_product
from uthopf.hopf_core import split_tables as ut_split_tables

from test_group_engine import direct_sum


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

    def test_caller_errors_raise(self):
        g, h = ut_table(3, 2), ut_table(2, 2)
        with pytest.raises(ValueError):
            ClassFunction(g, [1])
        a = ClassFunction.trivial(g)
        b = ClassFunction.trivial(h)
        for op in (a.__add__, a.__sub__, a.__mul__, a.inner):
            with pytest.raises(ValueError):
                op(b)

    def test_from_function_check_rejects_non_class_function(self):
        # the corner entry moves under conjugation once a superdiagonal
        # entry is set; the superdiagonal entries themselves stay fixed
        g = ut_table(3, 2)
        with pytest.raises(ValueError):
            ClassFunction.from_function(g, lambda m: m.entry(1, 3))
        ClassFunction.from_function(g, lambda m: m.entry(1, 2))

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
        with pytest.raises(ValueError):
            ClassFunction.subgroup_indicator(
                g, lambda m: m.entry(1, 2) == 0 and m.entry(1, 3) == 0
            )


def naive_induce_cf(psi, big):
    """Reference induction: the textbook sum over conjugators."""
    small = psi.group
    inverses = [m.inverse() for m in big.elements]
    values = []
    for r in big.class_reps:
        g = big.elements[r]
        total = Fraction(0)
        for x, xinv in zip(big.elements, inverses):
            conj = x * g * xinv
            if conj in small.index:
                total += psi.at_matrix(conj)
        values.append(total / small.order)
    return ClassFunction(big, values)


def elementwise_restrict_cf(psi, sub):
    """Reference restriction: psi evaluated at each class representative."""
    return ClassFunction(
        sub, [psi.at_matrix(sub.elements[r]) for r in sub.class_reps]
    )


class TestInduction:
    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2), (2, 5)])
    def test_classwise_equals_naive(self, n, q):
        ut = ut_table(n, q)
        gl = gl_table(n, q)
        for c in range(len(ut.class_reps)):
            psi = ClassFunction.class_indicator(ut, c)
            assert induce_cf(psi, gl) == naive_induce_cf(psi, gl)

    @pytest.mark.parametrize("n,i,q", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_fusion_equals_naive_on_ut_levi_and_parabolic(self, n, i, q):
        gl = gl_table(n, q)
        for sub in (ut_table(n, q), levi_table(n, i, q), parabolic_table(n, i, q)):
            for c in range(len(sub.class_reps)):
                psi = ClassFunction.class_indicator(sub, c)
                assert induce_cf(psi, gl) == naive_induce_cf(psi, gl)
            for c in range(len(gl.class_reps)):
                phi = ClassFunction.class_indicator(gl, c)
                assert restrict_cf(phi, sub) == elementwise_restrict_cf(phi, sub)

    def test_fusion_rejects_a_non_subgroup(self):
        # the lower unitriangular group of degree 2 is not inside the upper one
        ut = ut_table(2, 2)
        lower = pattern_group(chain_order((2, 1)), 2)
        with pytest.raises(ValueError):
            _fusion(lower, ut)
        with pytest.raises(ValueError):
            induce_cf(ClassFunction.trivial(lower), ut)
        with pytest.raises(ValueError):
            restrict_cf(ClassFunction.trivial(ut), lower)

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

    def test_inflate_requires_a_function_on_the_levi(self):
        para, levi, radical = split_tables(4, ((1, 2), (3, 4)), 2)
        with pytest.raises(ValueError):
            inflate_cf(ClassFunction.trivial(para), para, levi, radical)

    def test_inflate_deflate_adjoint(self):
        para, levi, radical = split_tables(4, ((1, 2), (3, 4)), 2)
        for c1 in range(len(levi.class_reps)):
            psi = ClassFunction.class_indicator(levi, c1)
            up = inflate_cf(psi, para, levi, radical)
            for c2 in range(len(para.class_reps)):
                phi = ClassFunction.class_indicator(para, c2)
                assert up.inner(phi) == psi.inner(deflate_cf(phi, levi, radical))

    @pytest.mark.parametrize("i", [1, 2])
    def test_parabolic_induction_deflate_adjoint(self, i):
        # GL_3 is strictly bigger than the parabolic levi * radical, so
        # inflate_cf induces up from it
        gl, levi, radical = gl_table(3, 2), levi_table(3, i, 2), radical_table(3, i, 2)
        assert gl.order > levi.order * radical.order
        for psi in indicators(levi):
            up = inflate_cf(psi, gl, levi, radical)
            for chi in indicators(gl):
                assert up.inner(chi) == psi.inner(deflate_cf(chi, levi, radical))

    def test_levi_and_radical_must_lie_in_the_group(self):
        # the lower unitriangular group of degree 2 is not inside UT_2,
        # although the orders multiply and the two meet only in 1
        big = ut_table(2, 2)
        levi = pattern_group(PartialOrder((1, 2), [(1, 1), (2, 2)]), 2)
        lower = pattern_group(chain_order((2, 1)), 2)
        with pytest.raises(ValueError):
            inflate_cf(ClassFunction.trivial(levi), big, levi, lower)
        with pytest.raises(ValueError):
            deflate_cf(ClassFunction.trivial(big), levi, lower)

    def test_levi_and_radical_must_meet_only_in_the_identity(self):
        big = ut_table(3, 2)
        radical = ut_split_tables(3, (1,), 2)[1]
        with pytest.raises(ValueError):
            inflate_cf(ClassFunction.trivial(big), big, big, radical)
        with pytest.raises(ValueError):
            deflate_cf(ClassFunction.trivial(big), big, radical)

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


def reference_deflate_cf(psi, levi, radical):
    """Reference deflation: psi summed over the products levi * radical."""
    scale = Fraction(1, radical.order)
    values = []
    for r in levi.class_reps:
        l = levi.elements[r]
        total = Fraction(0)
        for x in radical.elements:
            total += psi.at_matrix(l * x)
        values.append(scale * total)
    return ClassFunction(levi, values)


def reference_inflate_cf(psi, group, levi, radical):
    """Reference inflation onto group = levi * radical: psi at the Levi
    factor of each class representative, read off group.factorization."""
    fact = group.factorization(levi, radical)
    return ClassFunction(group, [
        psi.values[levi.class_of[fact[r][0]]] for r in group.class_reps
    ])


def reference_ut_product_component(fa, fb):
    """Reference unitriangular product of two components: the join on the
    Levi of the initial segment split, inflated by reference_inflate_cf."""
    q, i = fa.group.p, len(fa.group.ground)
    n = i + len(fb.group.ground)
    levi, radical = ut_split_tables(n, tuple(range(1, i + 1)), q)
    on_levi = unstraighten_cf(TensorFunction.outer(fa, fb), range(1, i + 1), levi)
    return reference_inflate_cf(on_levi, ut_table(n, q), levi, radical)


def reference_gl_product_component(fa, fb):
    """Reference general linear product of two components: the join on the
    block Levi, inflated onto the built parabolic table by
    reference_inflate_cf, then induced up to GL along the class fusion."""
    q, i = fa.group.p, len(fa.group.ground)
    n = i + len(fb.group.ground)
    levi = levi_table(n, i, q)
    on_levi = unstraighten_cf(TensorFunction.outer(fa, fb), range(1, i + 1), levi)
    on_parabolic = reference_inflate_cf(
        on_levi, parabolic_table(n, i, q), levi, radical_table(n, i, q)
    )
    return induce_cf(on_parabolic, gl_table(n, q))


def reference_straighten_cf(psi, inside, left_table, right_table):
    """Reference straightening: psi at the direct sum of every pair of class
    representatives, moved onto inside and its complement."""
    ground = psi.group.ground
    inside = tuple(sorted(inside))
    outside = tuple(sorted(set(ground) - set(inside)))
    into_inside = {v: k for k, v in standardize(inside).items()}
    into_outside = {v: k for k, v in standardize(outside).items()}
    terms = {}
    for c1, r1 in enumerate(left_table.class_reps):
        m1 = left_table.elements[r1].relabel(into_inside)
        for c2, r2 in enumerate(right_table.class_reps):
            m2 = right_table.elements[r2].relabel(into_outside)
            v = psi.at_matrix(direct_sum(m1, m2))
            if v:
                terms[(c1, c2)] = v
    return TensorFunction(left_table, right_table, terms)


def reference_unstraighten_cf(tensor, inside, levi_table):
    """Reference unstraightening: the tensor read at the classes of the two
    standardized blocks of each levi class representative."""
    ground = levi_table.ground
    inside = tuple(sorted(inside))
    outside = tuple(sorted(set(ground) - set(inside)))
    std_in = standardize(inside)
    std_out = standardize(outside)
    values = []
    for r in levi_table.class_reps:
        m = levi_table.elements[r]
        c1 = tensor.left_group.class_of_matrix(m.block(inside).relabel(std_in))
        c2 = tensor.right_group.class_of_matrix(m.block(outside).relabel(std_out))
        values.append(tensor.terms.get((c1, c2), Fraction(0)))
    return ClassFunction(levi_table, values)


def coproduct_splits(family, top, q):
    """(ambient, levi, radical, inside, left, right) for every split that
    ut_coproduct ("ut") or gl_coproduct ("gl") deflates and straightens
    along, in every degree up to top; the products unstraighten along the
    initial segment splits among them."""
    for n in range(top + 1):
        if family == "gl":
            for i in range(n + 1):
                yield (gl_table(n, q), levi_table(n, i, q), radical_table(n, i, q),
                       tuple(range(1, i + 1)), gl_table(i, q), gl_table(n - i, q))
        else:
            for k in range(n + 1):
                for inside in itertools.combinations(range(1, n + 1), k):
                    yield (ut_table(n, q), *ut_split_tables(n, inside, q), inside,
                           ut_table(k, q), ut_table(n - k, q))


SPLIT_FAMILIES = [("ut", 4, 2), ("ut", 3, 3), ("gl", 3, 2)]


def indicators(group):
    return [ClassFunction.class_indicator(group, c) for c in range(len(group.classes))]


class TestClassMapsAgainstReference:
    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_deflate(self, family, top, q):
        for ambient, levi, radical, _, _, _ in coproduct_splits(family, top, q):
            for psi in indicators(ambient):
                assert deflate_cf(psi, levi, radical) == reference_deflate_cf(
                    psi, levi, radical
                )

    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_straighten(self, family, top, q):
        for _, levi, _, inside, left, right in coproduct_splits(family, top, q):
            for psi in indicators(levi):
                assert straighten_cf(psi, inside, left, right) == (
                    reference_straighten_cf(psi, inside, left, right)
                )

    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_unstraighten(self, family, top, q):
        for _, levi, _, inside, left, right in coproduct_splits(family, top, q):
            for f, g in itertools.product(indicators(left), indicators(right)):
                tensor = TensorFunction.outer(f, g)
                assert unstraighten_cf(tensor, inside, levi) == (
                    reference_unstraighten_cf(tensor, inside, levi)
                )

    @pytest.mark.parametrize("family,top,q", [
        ("ut", 4, 2), ("ut", 3, 3), ("gl", 3, 2), ("gl", 3, 3),
    ])
    def test_product(self, family, top, q):
        product, ambient, reference = {
            "ut": (ut_product, ut_table, reference_ut_product_component),
            "gl": (gl_product, gl_table, reference_gl_product_component),
        }[family]
        for n in range(top + 1):
            for i in range(n + 1):
                for f, g in itertools.product(
                    indicators(ambient(i, q)), indicators(ambient(n - i, q))
                ):
                    got = product(GradedClassFunction(q, {i: f}),
                                  GradedClassFunction(q, {n - i: g}))
                    assert got == GradedClassFunction(q, {n: reference(f, g)})

    def test_straightening_needs_a_block_product(self):
        # UT_3 is not UT_1 x UT_2: its entries (1, 2) and (1, 3) join the blocks
        g = ut_table(3, 2)
        left, right = ut_table(1, 2), ut_table(2, 2)
        with pytest.raises(ValueError):
            straighten_cf(ClassFunction.trivial(g), (1,), left, right)
        tensor = TensorFunction.outer(
            ClassFunction.trivial(left), ClassFunction.trivial(right)
        )
        with pytest.raises(ValueError):
            unstraighten_cf(tensor, (1,), g)


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
