"""General linear realization: parabolic structure and the induction bridge.

The cross checks below (Mackey decomposition, Bruhat double cosets, Levi
conjugation and two straightening compatibilities) are suites of cases kept
here and run through the library's one driver, verify_reports; the library
itself needs none of them.  The parabolic row slice and
the fused tensor induction are compared with the cell-by-cell filter and
the factorwise outer product of induced indicators they replace; the Levi
slice and the generator recipe with the block direct sums they replace.
"""

import itertools

import pytest

from uthopf.class_functions import ClassFunction, TensorFunction, induce_cf, \
    induce_tensor, restrict_cf, straighten_cf
from uthopf.combinatorics import Nuio, chain_order, split_composition
from uthopf.gl_bridge import (
    _levi_generators,
    coproduct_hom_cases,
    dagger_invariance_cases,
    gl_coproduct,
    gl_product,
    induce_to_gl,
    levi_table,
    parabolic_table,
    product_hom_cases,
    radical_table,
)
from uthopf.group_engine import FqMatrix, GroupTable, _gl_generators, gl_order, \
    gl_table, pattern_group, permutation_matrix, primitive_root, ut_table
from uthopf.hopf_core import ScfElement, specialize, split_tables, ut_coproduct, \
    verify_reports

from test_class_functions import reference_pullback_cf
from test_combinatorics import parabolic_pattern
from test_group_engine import coset_rep_permutation, cover_generators, direct_sum, \
    identity, search_generators


def block_predicate(n, i):
    """Reference parabolic membership: every cell of the lower left
    (n-i) x i block is zero, read with entry()."""
    low = range(i + 1, n + 1)
    high = range(1, i + 1)

    def pred(m):
        for r in low:
            for c in high:
                if m.entry(r, c):
                    return False
        return True

    return pred


def listed_gl_generators(n, p):
    """Reference generators of GL_n(F_p), listed for the whole group: the
    transvection at (1, 2) for n >= 2, then for n >= 2 or p > 2 the monomial
    matrix sending e_k to e_(k+1) (k + 1 read mod n), scaled at k = 1 by
    s = r (-1)^(n-1), r the primitive root, so that its determinant is r."""
    ground = tuple(range(1, n + 1))
    gens = []
    if n >= 2:
        gens.append(FqMatrix.one_off(p, ground, 1, 2, 1))
    if n >= 2 or p > 2:
        s = primitive_root(p) * (-1) ** (n - 1) % p
        gens.append(FqMatrix(p, ground, [
            [(s if c == 0 else 1) if r == (c + 1) % n else 0 for c in range(n)]
            for r in range(n)
        ]))
    return gens


def three_generator_reference(p, ground, block):
    """The generators of the invertible matrices on block, embedded into the
    identity on ground, that gl_table and levi_table were built from before
    two sufficed: the transvection at the first two labels and the cycle
    through block for two labels or more, then for p > 2 the diagonal matrix
    scaling the first label by the primitive root (the identity when block
    is empty)."""
    gens = []
    if len(block) >= 2:
        gens.append(FqMatrix.one_off(p, ground, block[0], block[1], 1))
        cycle = dict(zip(ground, ground))
        cycle.update(zip(block, block[1:] + block[:1]))
        gens.append(permutation_matrix(cycle, p, ground))
    if p > 2:
        gens.append(FqMatrix.one_off(
            p, ground, block[0], block[0], primitive_root(p) - 1
        ) if block else identity(p, ground))
    return gens


def monomial_determinant(m):
    """The determinant of a matrix with one nonzero entry in each row and
    column: the sign of its permutation times the product of the entries."""
    n = len(m.ground)
    image, scale = {}, 1
    for r, row in enumerate(m.rows):
        (c,) = [c for c in range(n) if row[c]]
        image[c] = r
        scale *= row[c]
    assert sorted(image) == list(range(n))
    sign, seen = 1, set()
    for start in range(n):
        c, length = start, 0
        while c not in seen:
            seen.add(c)
            c, length = image[c], length + 1
        sign *= (-1) ** max(length - 1, 0)
    return sign * scale % m.p


def parabolic_generators(n, i, q):
    """The generators parabolic_table(n, i, q) is built from, for 0 < i < n:
    the Levi generators and the elementary matrix at (i, i + 1)."""
    corner = FqMatrix.one_off(q, tuple(range(1, n + 1)), i, i + 1, 1)
    return _levi_generators(n, i, q) + [corner]


def direct_sum_levi(n, i, q):
    """Reference block Levi: the direct sums of the elements of GL_i and of
    GL_(n-i) moved onto i+1, ..., n, and the block embeddings of their
    listed generators."""
    shift = {k: k + i for k in range(1, n - i + 1)}
    low, high = gl_table(i, q), gl_table(n - i, q)
    one_low = low.elements[low.identity_index]
    one_high = high.elements[high.identity_index].relabel(shift)
    elements = [direct_sum(a, b.relabel(shift))
                for a in low.elements for b in high.elements]
    gens = [direct_sum(g, one_high) for g in listed_gl_generators(i, q)] + [
        direct_sum(one_low, g.relabel(shift)) for g in listed_gl_generators(n - i, q)
    ]
    return elements, gens


def factorwise_induce_tensor(tensor, left, right):
    """Reference tensor induction: the outer product of the induced class
    indicators of each pair of classes."""
    up_left = [
        induce_cf(ClassFunction.class_indicator(tensor.left_group, c), left)
        for c in range(len(tensor.left_group.class_reps))
    ]
    up_right = [
        induce_cf(ClassFunction.class_indicator(tensor.right_group, c), right)
        for c in range(len(tensor.right_group.class_reps))
    ]
    pairs = (
        (key, v * a)
        for (c1, c2), v in tensor.terms.items()
        for key, a in TensorFunction.outer(up_left[c1], up_right[c2]).terms.items()
    )
    return TensorFunction.collect(pairs, left, right)


def assert_all_ok(*suites):
    reports = verify_reports(*suites)
    assert reports
    bad = [r for r in reports if r["status"] != "ok"]
    assert not bad, bad[:3]


def mackey_cases(n, i, q):
    """Restriction to a parabolic of an induced class function, against the
    sum over subset shaped double coset contributions."""
    gl = gl_table(n, q)
    ut = ut_table(n, q)
    parabolic = parabolic_table(n, i, q)
    for c in range(len(ut.class_reps)):
        psi = ClassFunction.class_indicator(ut, c)
        lhs = restrict_cf(induce_cf(psi, gl), parabolic)
        rhs = ClassFunction.zero(parabolic)
        for labels in itertools.combinations(range(1, n + 1), i):
            sub_parabolic = pattern_group(parabolic_pattern(
                chain_order(range(1, n + 1)), split_composition(n, labels)
            ), q)
            w = coset_rep_permutation(n, labels)
            wmat = permutation_matrix(w, q, gl.ground)
            winv = wmat.inverse()
            conjugated = GroupTable(
                sorted(
                    (winv * u * wmat for u in sub_parabolic.elements),
                    key=lambda m: m.to_digits(),
                ),
                [winv * g * wmat for g in cover_generators(sub_parabolic.pattern, q)],
                name="w*UP[%s]w/%d/%d" % (",".join(map(str, labels)), n, q),
            )
            pulled = reference_pullback_cf(psi, conjugated, lambda m: wmat * m * winv)
            rhs = rhs + induce_cf(pulled, parabolic)
        yield "mackey", "n=%d;i=%d;q=%d;basis=%d" % (n, i, q, c), lhs, rhs


def bruhat_cases(n, i, q):
    """The subset permutations hit every double coset exactly once."""
    gl = gl_table(n, q)
    ut = ut_table(n, q)
    parabolic = parabolic_table(n, i, q)
    ut_gens = cover_generators(ut.pattern, q)
    p_gens = parabolic_generators(n, i, q)
    seen = [False] * gl.order
    cosets = []
    for start in range(gl.order):
        if seen[start]:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            new = []
            for k in frontier:
                m = gl.elements[k]
                for u in ut_gens:
                    idx = gl.position(u * m)
                    if idx not in orbit:
                        orbit.add(idx)
                        new.append(idx)
                for p in p_gens:
                    idx = gl.position(m * p)
                    if idx not in orbit:
                        orbit.add(idx)
                        new.append(idx)
            frontier = new
        for k in orbit:
            seen[k] = True
        cosets.append(orbit)
    rep_indices = set()
    for labels in itertools.combinations(range(1, n + 1), i):
        w = coset_rep_permutation(n, labels)
        rep_indices.add(gl.position(permutation_matrix(w, q, gl.ground)))
    hits = [len(coset & rep_indices) for coset in cosets]
    instance = "n=%d;i=%d;q=%d;cosets=%d" % (n, i, q, len(cosets))
    yield "bruhat-cosets", instance, sorted(hits), [1] * len(cosets)


def levi_conjugation_cases(n, labels, q):
    """Conjugating the block Levi onto an arbitrary subset picks out the
    same pattern subgroups inside the unitriangular group."""
    labels = tuple(sorted(labels))
    i = len(labels)
    ut = ut_table(n, q)
    w = coset_rep_permutation(n, labels)
    sub_parabolic = pattern_group(parabolic_pattern(
        chain_order(range(1, n + 1)), split_composition(n, labels)
    ), q)
    for kind, big, target in (
        ("levi", levi_table(n, i, q), split_tables(n, labels, q)[0]),
        ("parabolic", parabolic_table(n, i, q), sub_parabolic),
    ):
        moved = {m.relabel(w) for m in big.elements}
        yield ("levi-conjugation", "n=%d;I=%s;q=%d;%s" % (n, list(labels), q, kind),
               sorted(m.to_digits() for m in moved if m in ut),
               sorted(m.to_digits() for m in target.elements))


def straighten_transport_cases(n, labels, q):
    """Straightening over a subset agrees with conjugating onto the initial
    segment and straightening there."""
    labels = tuple(sorted(labels))
    i = len(labels)
    levi_sub, _ = split_tables(n, labels, q)
    levi_init, _ = split_tables(n, tuple(range(1, i + 1)), q)
    w = coset_rep_permutation(n, labels)
    wmat = permutation_matrix(w, q, tuple(range(1, n + 1)))
    winv = wmat.inverse()
    for c in range(len(levi_sub.class_reps)):
        psi = ClassFunction.class_indicator(levi_sub, c)
        lhs = straighten_cf(psi, labels, ut_table(i, q), ut_table(n - i, q))
        pulled = reference_pullback_cf(psi, levi_init, lambda m: wmat * m * winv)
        rhs = straighten_cf(
            pulled, range(1, i + 1), ut_table(i, q), ut_table(n - i, q)
        )
        instance = "n=%d;I=%s;q=%d;basis=%d" % (n, list(labels), q, c)
        yield "straighten-transport", instance, lhs, rhs


def straighten_induction_cases(n, i, q):
    """Straightening commutes with induction up the two block factors."""
    ul, _ = split_tables(n, tuple(range(1, i + 1)), q)
    levi = levi_table(n, i, q)
    for c in range(len(ul.class_reps)):
        psi = ClassFunction.class_indicator(ul, c)
        lifted = induce_cf(psi, levi)
        lhs = straighten_cf(
            lifted, range(1, i + 1), gl_table(i, q), gl_table(n - i, q)
        )
        rhs = induce_tensor(
            straighten_cf(psi, range(1, i + 1), ut_table(i, q), ut_table(n - i, q)),
            gl_table(i, q), gl_table(n - i, q),
        )
        yield "straighten-induction", "n=%d;i=%d;q=%d;basis=%d" % (n, i, q, c), lhs, rhs


class TestParabolicTables:
    @pytest.mark.parametrize("n,i,q", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_orders_multiply(self, n, i, q):
        para = parabolic_table(n, i, q)
        levi = levi_table(n, i, q)
        radical = radical_table(n, i, q)
        assert para.order == levi.order * radical.order
        assert levi.order == gl_order(i, q) * gl_order(n - i, q)
        assert radical.order == q ** (i * (n - i))

    def test_extreme_splits_are_the_whole_group(self):
        assert parabolic_table(2, 0, 2).order == gl_order(2, 2)
        assert parabolic_table(2, 2, 2).order == gl_order(2, 2)
        for n, q in [(2, 2), (3, 2), (2, 3)]:
            for i in (0, n):
                assert levi_table(n, i, q) is gl_table(n, q)
                assert parabolic_table(n, i, q) is gl_table(n, q)

    @pytest.mark.parametrize("n,i,q", [(2, 1, 3), (3, 1, 2), (3, 2, 2)])
    def test_known_generators_are_kept(self, n, i, q):
        # the generators each table is built from generate it, and the
        # classes match those found under a searched generating set
        for table, given in (
            (levi_table(n, i, q), _levi_generators(n, i, q)),
            (parabolic_table(n, i, q), parabolic_generators(n, i, q)),
        ):
            searched = search_generators(table.elements)
            assert table.classes == GroupTable(table.elements, given).classes
            assert table.classes == GroupTable(table.elements, searched).classes

    @pytest.mark.parametrize("n,i,q", [(2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 3)])
    def test_row_slice_equals_cell_filter(self, n, i, q):
        pred = block_predicate(n, i)
        kept = [m for m in gl_table(n, q).elements if pred(m)]
        assert parabolic_table(n, i, q).elements == kept

    @pytest.mark.parametrize("n,q", [
        (0, 3), (1, 2), (1, 3), (2, 2), (2, 3), (3, 2), (3, 3), (2, 5),
    ])
    def test_gl_generators_are_the_listed_ones(self, n, q):
        ground = tuple(range(1, n + 1))
        assert _gl_generators(q, ground, ground) == listed_gl_generators(n, q)

    @pytest.mark.parametrize("n,i,q", [
        (1, 1, 3), (2, 2, 3), (3, 3, 3), (1, 1, 5), (2, 2, 5), (2, 2, 7),
        (2, 2, 11), (3, 1, 3), (3, 2, 3),
    ])
    def test_two_generators_give_the_three_generator_classes(self, n, i, q):
        # i = n is gl_table(n, q) itself; the classes the construction pass
        # joins under the two generators of each block are those under the
        # three of the old list and under a searched generating set
        table = levi_table(n, i, q)
        ground = table.ground
        old = three_generator_reference(q, ground, ground[:i])
        if i < n:
            old += three_generator_reference(q, ground, ground[i:])
        searched = search_generators(table.elements)
        assert table.classes == GroupTable(table.elements, old).classes
        assert table.classes == GroupTable(table.elements, searched).classes

    @pytest.mark.parametrize("p", [3, 5, 7, 13])
    @pytest.mark.parametrize("k", [1, 2, 3, 4])
    def test_monomial_generator_has_the_primitive_root_as_determinant(self, k, p):
        ground = tuple(range(1, 6))
        block = ground[1:k + 1]
        gens = _gl_generators(p, ground, block)
        assert len(gens) == min(k, 2)
        assert monomial_determinant(gens[-1]) == primitive_root(p)

    @pytest.mark.parametrize("n,i,q", [
        (2, 1, 2), (2, 1, 3), (3, 1, 2), (3, 2, 2), (3, 1, 3), (4, 2, 2),
    ])
    def test_levi_slice_equals_direct_sums(self, n, i, q):
        elements, gens = direct_sum_levi(n, i, q)
        assert levi_table(n, i, q).elements == elements
        assert _levi_generators(n, i, q) == gens

    def test_levi_blocks(self):
        levi = levi_table(3, 1, 2)
        for m in levi.elements:
            assert m.entry(1, 2) == 0 and m.entry(1, 3) == 0
            assert m.entry(2, 1) == 0 and m.entry(3, 1) == 0


class TestInduction:
    @pytest.mark.parametrize("n,q", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_fused_tensor_induction_equals_factorwise(self, n, q):
        for pi in (Nuio(n, []), Nuio(n, [(1, n)])):
            x = specialize(ScfElement.basis(pi), q)
            for (i, j), tensor in ut_coproduct(x).terms.items():
                left, right = gl_table(i, q), gl_table(j, q)
                assert induce_tensor(tensor, left, right) == \
                    factorwise_induce_tensor(tensor, left, right)

    def test_unit_and_point_products(self):
        q = 2
        x = specialize(ScfElement.basis(Nuio(1, [])), q)
        ind = induce_to_gl(x)
        doubled = gl_product(ind, ind)
        direct = induce_to_gl(
            specialize(ScfElement.basis(Nuio(1, [])) * ScfElement.basis(Nuio(1, [])), q)
        )
        assert doubled == direct

    def test_product_rejects_mixed_primes(self):
        pt = ScfElement.basis(Nuio(1, []))
        with pytest.raises(ValueError):
            gl_product(induce_to_gl(specialize(pt, 2)), induce_to_gl(specialize(pt, 3)))

    def test_product_is_commutative_on_induced_elements(self):
        # induction products on the general linear tower commute even
        # though the unitriangular product does not
        q = 2
        pt = induce_to_gl(specialize(ScfElement.basis(Nuio(1, [])), q))
        a2 = induce_to_gl(specialize(ScfElement.basis(Nuio(2, [])), q))
        assert gl_product(pt, a2) == gl_product(a2, pt)

    def test_coproduct_counit_component(self):
        q = 2
        a2 = induce_to_gl(specialize(ScfElement.basis(Nuio(2, [])), q))
        cop = gl_coproduct(a2)
        # the (2, 0) component tensors the original with the empty group
        part = cop.terms[(2, 0)]
        assert part.left_group is gl_table(2, q)
        back = ClassFunction(
            part.left_group,
            dict(enumerate(
                sum(
                    (v for (c1, c2), v in part.terms.items() if c1 == c),
                    start=0,
                )
                for c in range(len(part.left_group.class_reps))
            )),
        )
        assert back == a2.terms[2]

    def test_dagger_fixes_inductions(self):
        q = 2
        for pi in (Nuio(2, []), Nuio(3, [(1, 3)])):
            ind = induce_to_gl(specialize(ScfElement.basis(pi), q))
            assert ind.dagger() == induce_to_gl(
                specialize(ScfElement.basis(pi.dagger()), q)
            )


class TestReportSuites:
    @pytest.mark.parametrize("q", [2, 3])
    def test_product_homomorphism_small(self, q):
        assert_all_ok(product_hom_cases(2, q))

    @pytest.mark.parametrize("q", [2, 3])
    def test_coproduct_homomorphism_small(self, q):
        assert_all_ok(coproduct_hom_cases(2, q))

    def test_dagger_invariance_small(self):
        assert_all_ok(dagger_invariance_cases(3, 2))

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
    def test_mackey(self, n, i):
        assert_all_ok(mackey_cases(n, i, 2))

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
    def test_bruhat_double_cosets(self, n, i):
        assert_all_ok(bruhat_cases(n, i, 2))

    @pytest.mark.parametrize("labels", [(2,), (1, 3), (2, 3)])
    def test_levi_conjugation(self, labels):
        assert_all_ok(levi_conjugation_cases(3, labels, 2))

    @pytest.mark.parametrize("labels", [(2,), (1, 3), (2, 3)])
    def test_straighten_transport(self, labels):
        assert_all_ok(straighten_transport_cases(3, labels, 2))

    @pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
    def test_straighten_induction(self, n, i):
        assert_all_ok(straighten_induction_cases(n, i, 2))
