"""Class functions and their transport maps, checked against first principles.

Restriction and induction are deflation and inflation over the trivial
group.  Inductions are computed two ways (by inflation and by the textbook
conjugation sum), restriction is checked against evaluation at elements and
against the pullback along the inclusion, adjunctions are checked as literal
inner product identities, and straightening is checked as a round trip.
Deflation, inflation, (un)straightening and pullback read class maps built
once per split or per move; the per-call loops they replaced are kept here
as references, and so are the products that inflated through
GroupTable.factorization and, on the general linear side, induced up from a
built parabolic table.
"""

import collections
import itertools
from fractions import Fraction

import pytest

from uthopf import class_functions
from uthopf.class_functions import (
    ClassFunction,
    _block_classes,
    _deflation,
    _exact,
    _inflation,
    _ratio,
    TensorFunction,
    dagger_cf,
    deflate_cf,
    induce_cf,
    induce_tensor,
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
    radical_pattern,
)
from uthopf import hopf_core
from uthopf.gl_bridge import gl_product, levi_table, parabolic_table, radical_table
from uthopf.group_engine import gl_table, pattern_group, pick_move, ut_table
from uthopf.hopf_core import GradedClassFunction, _all_squares, monoid_relabel, \
    ut_product
from uthopf.hopf_core import split_tables as ut_split_tables

from test_combinatorics import parabolic_pattern, standardize
from test_group_engine import _standard_block, block, direct_sum, matrix_class_map, \
    rows_dagger, rows_relabel


def from_function(group, fn):
    """Reference class function: fn at the class representatives; a
    ValueError is raised unless fn, evaluated at every element, is
    constant on classes."""
    values = [_exact(fn(group.elements[r])) for r in group.class_reps]
    for m, c in zip(group.elements, group.class_of):
        if fn(m) != values[c]:
            raise ValueError(f"not constant on classes at {m!r}")
    return ClassFunction(group, {c: v for c, v in enumerate(values) if v})


def subgroup_indicator(group, member):
    """Reference indicator of a subset given by a membership predicate on
    matrices, checked for class constancy, so this only succeeds on unions
    of conjugacy classes (for subgroups: exactly the normal ones)."""
    return from_function(group, lambda m: int(bool(member(m))))


def trivial(group):
    """The constant class function 1 on group."""
    return ClassFunction(group, dict.fromkeys(range(len(group.class_reps)), 1))


def assert_exact_form(*combinations):
    """Each coefficient is an int, or a Fraction that is not integral."""
    for x in combinations:
        for v in x.terms.values():
            assert type(v) is int or (type(v) is Fraction and v.denominator > 1), (
                "%r holds %r" % (x, v))


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
            ClassFunction(g, {len(g.class_reps): 1})
        a = trivial(g)
        b = trivial(h)
        for op in (a.__add__, a.__sub__, a.__mul__, a.inner):
            with pytest.raises(ValueError):
                op(b)

    def test_repr_lists_every_class(self):
        # _report hashes this repr, so its zeros stay in it
        g = ut_table(2, 2)
        assert repr(ClassFunction.class_indicator(g, 1)) == (
            "ClassFunction(UT[1,2|1<2]q2, [Fraction(0, 1), Fraction(1, 1)])"
        )

    def test_values_are_dense(self):
        g = ut_table(3, 2)
        f = ClassFunction(g, {2: Fraction(1, 2)})
        assert f.terms == {2: Fraction(1, 2)}
        assert len(f.values) == len(g.class_reps)
        assert f.values[2] == Fraction(1, 2)
        assert all(type(v) is Fraction for v in f.values)
        assert f.at_class(0) == Fraction(0) and type(f.at_class(0)) is Fraction
        assert f.at_matrix(g.elements[g.identity_index]) == 0

    def test_zero_values_are_dropped(self):
        g = ut_table(2, 2)
        z = ClassFunction(g, {0: 0})
        assert z == ClassFunction(g, {})
        assert z.terms == {}
        assert not z
        a = ClassFunction.class_indicator(g, 0)
        assert not (a - a)

    def test_class_keys_must_be_class_indices(self):
        g = ut_table(2, 2)
        for key in (2, -1, "0", True, 0.0, (0,)):
            with pytest.raises(ValueError):
                ClassFunction(g, {key: 1})
        with pytest.raises(ValueError):
            ClassFunction.class_indicator(g, 2)
        with pytest.raises(TypeError):
            ClassFunction(g, {0: 0.5})

    def test_inexact_values_raise(self):
        # one rule for every coefficient: ints and Fractions only, no bool
        g = ut_table(2, 2)
        one = trivial(g)
        for bad in (True, 0.5, 1.0, "1/2"):
            with pytest.raises(TypeError):
                ClassFunction(g, {0: bad})
            with pytest.raises(TypeError):
                one.scale(bad)
        with pytest.raises(TypeError):
            0.5 * one
        with pytest.raises(TypeError):
            one * 0.1

    def test_from_function_check_rejects_non_class_function(self):
        # the corner entry moves under conjugation once a superdiagonal
        # entry is set; the superdiagonal entries themselves stay fixed
        g = ut_table(3, 2)
        with pytest.raises(ValueError):
            from_function(g, lambda m: m.entry(1, 3))
        from_function(g, lambda m: m.entry(1, 2))

    def test_indicator_inner_products(self):
        g = gl_table(2, 3)
        n = len(g.class_reps)
        for c in range(n):
            ind = ClassFunction.class_indicator(g, c)
            assert ind.inner(ind) == Fraction(g.class_sizes[c], g.order)
            other = ClassFunction.class_indicator(g, (c + 1) % n)
            assert ind.inner(other) == 0
        triv = trivial(g)
        assert triv.inner(triv) == 1

    def test_subgroup_indicator_requires_normality(self):
        g = ut_table(3, 2)
        # entries above the diagonal in column 3 only: normal
        normal = subgroup_indicator(
            g, lambda m: m.entry(1, 2) == 0
        )
        assert normal.at_matrix(g.elements[g.identity_index]) == 1
        # entry (2, 3) only: conjugation leaks into the corner, not normal
        with pytest.raises(ValueError):
            subgroup_indicator(
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
            if conj in small:
                total += psi.at_matrix(conj)
        values.append(total / small.order)
    return ClassFunction(big, dict(enumerate(values)))


def elementwise_restrict_cf(psi, sub):
    """Reference restriction: psi evaluated at each class representative."""
    return ClassFunction(
        sub, dict(enumerate(psi.at_matrix(sub.elements[r]) for r in sub.class_reps))
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
                # the pullback along the inclusion reads the same values
                assert restrict_cf(phi, sub) == pullback_cf(phi, sub)

    def test_fusion_rejects_a_non_subgroup(self):
        # the lower unitriangular group of degree 2 is not inside the upper one
        ut = ut_table(2, 2)
        lower = pattern_group(chain_order((2, 1)), 2)
        with pytest.raises(ValueError):
            induce_cf(trivial(lower), ut)
        with pytest.raises(ValueError):
            restrict_cf(trivial(ut), lower)

    def test_same_codes_on_another_ground_are_not_a_subgroup(self):
        # UT_3 on the labels 2 < 3 < 4 packs its elements to the codes of
        # UT_3 on 1 < 2 < 3, but none of them is an element of it
        ut = ut_table(3, 2)
        moved = pattern_group(chain_order((2, 3, 4)), 2)
        assert [m.code for m in moved.elements] == [m.code for m in ut.elements]
        with pytest.raises(ValueError):
            induce_cf(trivial(moved), ut)
        with pytest.raises(KeyError):
            trivial(ut).at_matrix(moved.elements[0])

    def test_induced_trivial_at_identity_is_the_index(self):
        ut = ut_table(3, 2)
        gl = gl_table(3, 2)
        ind = induce_cf(trivial(ut), gl)
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
        psi = trivial(ut)
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
            inflate_cf(trivial(para), para, levi, radical)

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
            inflate_cf(trivial(levi), big, levi, lower)
        with pytest.raises(ValueError):
            deflate_cf(trivial(big), levi, lower)

    def test_levi_and_radical_on_another_ground_do_not_lie_in_the_group(self):
        # the split of UT_3 on 1 < 2 < 3 has the codes of a split of UT_3
        # on 2 < 3 < 4, but does not lie in it
        moved = pattern_group(chain_order((2, 3, 4)), 2)
        levi, radical = ut_split_tables(3, (1,), 2)
        with pytest.raises(ValueError):
            deflate_cf(trivial(moved), levi, radical)
        with pytest.raises(ValueError):
            inflate_cf(trivial(levi), moved, levi, radical)

    def test_levi_and_radical_must_meet_only_in_the_identity(self):
        big = ut_table(3, 2)
        radical = ut_split_tables(3, (1,), 2)[1]
        with pytest.raises(ValueError):
            inflate_cf(trivial(big), big, big, radical)
        with pytest.raises(ValueError):
            deflate_cf(trivial(big), big, radical)

    def test_deflation_validates_before_inflation_reads(self, monkeypatch):
        # on fresh caches deflation reads first, by column; both splits are
        # refused before any product, and nothing is cached for them
        fresh_coset_counts(monkeypatch)

        def refuse(*args):
            raise AssertionError("a product was made before the split was checked")

        monkeypatch.setattr(class_functions, "kernel", refuse)
        big = ut_table(2, 2)
        levi = pattern_group(PartialOrder((1, 2), [(1, 1), (2, 2)]), 2)
        lower = pattern_group(chain_order((2, 1)), 2)
        with pytest.raises(ValueError, match="do not both lie"):
            deflate_cf(trivial(big), levi, lower)
        with pytest.raises(ValueError, match="do not both lie"):
            inflate_cf(trivial(levi), big, levi, lower)
        big = ut_table(3, 2)
        radical = ut_split_tables(3, (1,), 2)[1]
        with pytest.raises(ValueError, match="meet only in the identity"):
            deflate_cf(trivial(big), big, radical)
        with pytest.raises(ValueError, match="meet only in the identity"):
            inflate_cf(trivial(big), big, big, radical)
        assert not class_functions._ROWS and not class_functions._COLUMNS

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
        assert pullback_cf(psi, g) == psi

    def test_pullback_needs_the_moved_classes_in_the_group(self):
        # swapping labels 1 and 2 moves the entry (1, 2) below the diagonal
        g = ut_table(3, 2)
        with pytest.raises(KeyError):
            pullback_cf(trivial(g), g, pick_move(2, g.ground, (2, 1, 3)))


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
    return ClassFunction(levi, dict(enumerate(values)))


def reference_pullback_cf(psi, target, matrix_map):
    """Reference pullback: psi at the image of each decoded class
    representative of target under matrix_map, looked up in psi.group on
    every call."""
    return ClassFunction(target, {
        c: psi.at_matrix(matrix_map(target.elements[r]))
        for c, r in enumerate(target.class_reps)
    })


def reference_monoid_relabel(psi, mapping):
    """Reference relabelling: reference_pullback_cf along the inverse
    relabelling, onto the pattern group of the relabelled order."""
    target = pattern_group(psi.group.pattern.relabel(mapping), psi.group.p)
    inverse = {v: k for k, v in mapping.items()}
    return reference_pullback_cf(psi, target, lambda m: rows_relabel(m, inverse))


def reference_inflate_cf(psi, group, levi, radical):
    """Reference inflation onto group = levi * radical: psi at the Levi
    factor of each class representative, read off group.factorization."""
    fact = group.factorization(levi, radical)
    return ClassFunction(group, dict(enumerate(
        psi.values[levi.class_of[fact[r][0]]] for r in group.class_reps
    )))


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
    reference_inflate_cf, then induced up to GL by induce_cf."""
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
        m1 = rows_relabel(left_table.elements[r1], into_inside)
        for c2, r2 in enumerate(right_table.class_reps):
            m2 = rows_relabel(right_table.elements[r2], into_outside)
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
        c1 = tensor.left_group.class_of_matrix(rows_relabel(block(m, inside), std_in))
        c2 = tensor.right_group.class_of_matrix(rows_relabel(block(m, outside), std_out))
        values.append(tensor.terms.get((c1, c2), Fraction(0)))
    return ClassFunction(levi_table, dict(enumerate(values)))


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


def functions(group):
    """The indicators, and a Fraction-valued function with distinct values,
    some integral and some negative."""
    return indicators(group) + [ClassFunction(group, {
        c: Fraction((-1) ** c * (c + 1), 3) for c in range(len(group.classes))})]


def fresh_coset_counts(monkeypatch):
    """Empty row and column caches of the coset class counts, for one test."""
    monkeypatch.setattr(class_functions, "_ROWS", {})
    monkeypatch.setattr(class_functions, "_COLUMNS", {})


def cancelling_difference(ambient, levi, radical):
    """A difference of two scaled class indicators of ambient whose
    deflation cancels at a Levi class l, and l; read off reference_deflate_cf
    of the indicators.  None when no Levi class meets two classes of ambient."""
    down = [reference_deflate_cf(psi, levi, radical) for psi in indicators(ambient)]
    for l in range(len(levi.classes)):
        hit = [b for b, f in enumerate(down) if l in f.terms]
        if len(hit) > 1:
            b1, b2 = hit[:2]
            return ClassFunction(ambient, {b1: down[b2].terms[l],
                                           b2: -down[b1].terms[l]}), l
    return None


class TestClassMapsAgainstReference:
    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_deflate(self, family, top, q):
        # signed Fraction values and a difference that cancels at a Levi
        # class as well as the indicators; a column with two Levi classes
        # tells a walk that reads every pair from one that stops early
        cancelled = shared = 0
        for ambient, levi, radical, _, _, _ in coproduct_splits(family, top, q):
            fs = functions(ambient)
            difference = cancelling_difference(ambient, levi, radical)
            if difference is not None:
                fs.append(difference[0])
            for psi in fs:
                got = deflate_cf(psi, levi, radical)
                assert got == reference_deflate_cf(psi, levi, radical)
                assert_exact_form(got)
                assert all(got.terms.values())
                assert list(got.terms) == sorted(got.terms)
            if difference is not None:
                assert difference[1] not in deflate_cf(difference[0], levi, radical).terms
                cancelled += 1
            shared += any(len(column) > 1 for column in _deflation(ambient, levi, radical))
        assert cancelled and shared

    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_straighten(self, family, top, q):
        for _, levi, _, inside, left, right in coproduct_splits(family, top, q):
            for psi in functions(levi):
                assert straighten_cf(psi, inside, left, right) == (
                    reference_straighten_cf(psi, inside, left, right)
                )

    @pytest.mark.parametrize("family,top,q", [
        ("ut", 4, 2), ("ut", 4, 3), ("ut", 4, 5), ("gl", 3, 2), ("gl", 3, 3),
    ])
    def test_block_classes_against_the_matrix_blocks(self, family, top, q):
        # the blocks picked off the codes against the blocks read off the
        # decoded class representatives, on every split of the coproducts
        for _, levi, _, inside, left, right in coproduct_splits(family, top, q):
            outside = tuple(k for k in levi.ground if k not in inside)
            want = tuple(zip(
                matrix_class_map(left, levi, lambda m: _standard_block(m, inside)),
                matrix_class_map(right, levi, lambda m: _standard_block(m, outside))))
            assert _block_classes.__wrapped__(levi, inside, left, right) == want

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
                    functions(ambient(i, q)), functions(ambient(n - i, q))
                ):
                    got = product(GradedClassFunction(q, {i: f}),
                                  GradedClassFunction(q, {n - i: g}))
                    assert got == GradedClassFunction(q, {n: reference(f, g)})

    def test_relabel_on_every_naturality_square(self, monkeypatch):
        # every relabelling on either side of a square is checked as it
        # runs; a square relabels from at most its two source tables
        relabelled = []

        def checked(psi, mapping, moves):
            got = monoid_relabel(psi, mapping, moves)
            assert got == reference_monoid_relabel(psi, mapping)
            assert psi.group in moves and len(moves) <= 2
            relabelled.append(mapping)
            return got

        monkeypatch.setattr(hopf_core, "monoid_relabel", checked)
        for check, _, source, sides in _all_squares(3):
            if check.startswith("naturality"):
                for psi in indicators(pattern_group(source, 2)):
                    lhs, rhs = sides(psi)
                    assert lhs == rhs
        assert len(relabelled) > 1000

    @pytest.mark.parametrize("n,q", [(n, q) for q in (2, 3) for n in range(4)])
    def test_dagger(self, n, q):
        g = ut_table(n, q)
        for psi in indicators(g):
            assert dagger_cf(psi) == reference_pullback_cf(psi, g, rows_dagger)

    def test_straightening_needs_a_block_product(self):
        # UT_3 is not UT_1 x UT_2: its entries (1, 2) and (1, 3) join the blocks
        g = ut_table(3, 2)
        left, right = ut_table(1, 2), ut_table(2, 2)
        with pytest.raises(ValueError):
            straighten_cf(trivial(g), (1,), left, right)
        tensor = TensorFunction.outer(
            trivial(left), trivial(right)
        )
        with pytest.raises(ValueError):
            unstraighten_cf(tensor, (1,), g)

    def test_straightening_needs_tables_on_the_initial_segments(self):
        # the blocks are read as codes, so a factor table on other labels
        # or over another field is refused rather than read
        levi = ut_split_tables(3, (1,), 2)[0]
        moved = pattern_group(chain_order((2, 3)), 2)
        for left, right in ((ut_table(1, 2), moved), (ut_table(1, 3), ut_table(2, 2))):
            with pytest.raises(ValueError, match="not the block product"):
                straighten_cf(trivial(levi), (1,), left, right)
            tensor = TensorFunction.outer(trivial(left), trivial(right))
            with pytest.raises(ValueError, match="not the block product"):
                unstraighten_cf(tensor, (1,), levi)

    @pytest.mark.parametrize("inside", [(1, 5), (1, 1), (0,)])
    def test_straightening_needs_labels_of_the_ground(self, inside):
        # _block_classes checks the labels once, before it picks any block
        levi = ut_split_tables(3, (1,), 2)[0]
        left, right = ut_table(1, 2), ut_table(2, 2)
        tensor = straighten_cf(trivial(levi), (1,), left, right)
        assert unstraighten_cf(tensor, (1,), levi) == trivial(levi)
        with pytest.raises(ValueError, match="not sorted distinct labels"):
            straighten_cf(trivial(levi), inside, left, right)
        with pytest.raises(ValueError, match="not sorted distinct labels"):
            unstraighten_cf(tensor, inside, levi)


class TestCosetCountOrientations:
    """The coset class counts of a split, read by Levi class (inflation)
    and by group class (deflation), come from one product pass."""

    @pytest.mark.parametrize("first", ["rows", "columns"])
    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_columns_hold_the_triples_of_the_rows(self, monkeypatch, family, top, q,
                                                  first):
        fresh_coset_counts(monkeypatch)
        passes = collections.Counter()
        products = class_functions._products

        def spy(*split):
            passes[split] += 1
            return products(*split)

        monkeypatch.setattr(class_functions, "_products", spy)
        splits = list(dict.fromkeys(
            split[:3] for split in coproduct_splits(family, top, q)))
        for split in splits:
            group, levi, radical = split
            if first == "rows":
                rows = _inflation(*split)
                columns = _deflation(*split)
            else:
                columns = _deflation(*split)
                assert split not in class_functions._ROWS
                rows = _inflation(*split)
            assert (len(rows), len(columns)) == (len(levi.classes), len(group.classes))
            by_rows = [(l, b, k) for l, row in enumerate(rows) for b, k in row]
            by_columns = [(l, b, k) for b, column in enumerate(columns) for l, k in column]
            assert sorted(by_rows) == sorted(by_columns)
            assert len(set(by_rows)) == len(by_rows)
            assert all(sum(k for _, k in row) == radical.order for row in rows)
            assert all(k > 0 for _, _, k in by_rows)
            assert all([l for l, _ in column] == sorted(l for l, _ in column)
                       for column in columns)
            assert _inflation(*split) is rows and _deflation(*split) is columns
        assert passes == collections.Counter(dict.fromkeys(splits, 1))


class TestExactForm:
    """Transport results hold integral values as ints, the rest as Fractions,
    whichever form their arguments held."""

    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_deflation_inflation_and_straightening(self, family, top, q):
        forms = set()
        for group, levi, radical, inside, left, right in coproduct_splits(
                family, top, q):
            for f in indicators(group) + [trivial(group)]:
                down = deflate_cf(f.scale(Fraction(1, q)), levi, radical)
                assert_exact_form(down, straighten_cf(down, inside, left, right))
                forms.update(map(type, down.terms.values()))
            for f in indicators(levi):
                up = inflate_cf(f, group, levi, radical)
                assert_exact_form(up, deflate_cf(up, levi, radical))
                forms.update(map(type, up.terms.values()))
        assert forms == {int, Fraction}

    def test_ratio_is_an_int_exactly_when_the_division_is_exact(self):
        numerators = list(range(-40, 41)) + [Fraction(n, 3) for n in range(-12, 13)]
        for num, den in itertools.product(numerators, range(1, 13)):
            want = Fraction(num) / den
            got = _ratio(num, den)
            assert got == want
            assert (type(got) is int) == (want.denominator == 1)

    @pytest.mark.parametrize("n,q", [(2, 2), (2, 3), (3, 2)])
    def test_induction(self, n, q):
        forms = set()
        ut, gl = ut_table(n, q), gl_table(n, q)
        for f in indicators(ut) + [trivial(ut)]:
            for psi in (f, f.scale(Fraction(1, gl.order))):
                up = induce_cf(psi, gl)
                assert_exact_form(up, restrict_cf(up, ut))
                forms.update(map(type, up.terms.values()))
        tensor = TensorFunction.outer(trivial(ut), indicators(ut)[-1])
        assert_exact_form(tensor, induce_tensor(tensor, gl, gl))
        assert forms == {int, Fraction}


class TestTrustedTransports:
    """Every transport builds its result unchecked, its keys class indices
    by construction: none runs the constructors' checks, and each result
    equals its rebuild through the validating constructor."""

    @pytest.mark.parametrize("family,top,q", SPLIT_FAMILIES)
    def test_transports_skip_the_index_check(self, monkeypatch, family, top, q):
        splits = [(s, indicators(s[0]) + [trivial(s[0])], indicators(s[1]),
                   indicators(s[4]), indicators(s[5]))
                  for s in coproduct_splits(family, top, q)]

        def refuse(*args, **kwargs):
            raise AssertionError("a transport ran a validating constructor")

        monkeypatch.setattr(ClassFunction, "__init__", refuse)
        monkeypatch.setattr(TensorFunction, "__init__", refuse)
        results = []
        for (group, levi, radical, inside, left, right), fs, ls, lefts, rights in splits:
            results.append(hopf_core._vanishing_indicator(group, 0))
            for f in fs:
                results += [deflate_cf(f, levi, radical), restrict_cf(f, levi),
                            dagger_cf(f), pullback_cf(f, group)]
            for f in ls:
                results += [inflate_cf(f, group, levi, radical), induce_cf(f, group),
                            straighten_cf(f, inside, left, right)]
            for f, g in itertools.product(lefts, rights):
                tensor = TensorFunction.outer(f, g)
                results += [tensor, unstraighten_cf(tensor, inside, levi)]
        monkeypatch.undo()
        for x in results:
            assert type(x)(*x.context, x.terms) == x
        assert_exact_form(*results)


class TestTensorFunction:
    def test_outer_values(self):
        g1, g2 = ut_table(2, 2), ut_table(2, 2)
        a = trivial(g1)
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
        for bad in (0.5, True):
            with pytest.raises(TypeError):
                TensorFunction(g, g, {(0, 0): bad})
