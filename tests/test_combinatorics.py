"""Set compositions, partial orders, and unit interval orders.

Everything here is small enough to check against brute-force alternatives:
statistics of the Tits product against its blockwise definition, the unit
interval enumeration against the closure characterization of their strict
pair sets, Dyck words against pinned examples.
"""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uthopf.combinatorics import (
    Nuio,
    PartialOrder,
    SetComposition,
    all_partial_orders,
    ascent_pairs,
    chain_order,
    equal_pairs,
    levi_pattern,
    natural_unit_interval_orders,
    parabolic_pattern,
    radical_pattern,
    refinements,
    set_compositions,
    standardize,
    total_orders,
)


def strict_set(order):
    return frozenset(order.strict_pairs)


def comp(*blocks):
    return SetComposition(blocks)


def inversion_pairs(comp):
    """All pairs (i, j) with the block of i strictly after the block of j."""
    return frozenset((j, i) for i, j in ascent_pairs(comp))


def refines(fine, coarse):
    """Whether fine arises by composing each block of coarse in place.

    Equivalently, fine equals the concatenation of its restrictions to
    the blocks of coarse, taken in order.
    """
    assert fine.ground == coarse.ground
    stitched = SetComposition([])
    for b in coarse.blocks:
        stitched = stitched.concat(fine.restrict(b))
    return stitched == fine


def tits(a, b):
    """Concatenate the restrictions of b to the blocks of a.

    This is the usual associative action on faces: the result refines
    a, and equals b when b already refines a.
    """
    assert a.ground == b.ground
    out = SetComposition([])
    for block in a.blocks:
        out = out.concat(b.restrict(block))
    return out


def is_total(order):
    n = len(order.ground)
    return len(order.pairs) == n * (n + 1) // 2


@st.composite
def compositions(draw, labels=(1, 2, 3, 4)):
    ground = tuple(sorted(draw(st.sets(st.sampled_from(labels), max_size=4))))
    blocks = []
    rest = list(ground)
    while rest:
        k = draw(st.integers(min_value=1, max_value=len(rest)))
        block = draw(
            st.lists(st.sampled_from(rest), min_size=k, max_size=k, unique=True)
        )
        blocks.append(tuple(block))
        rest = [i for i in rest if i not in set(block)]
    return SetComposition(blocks)


@st.composite
def nuios(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    profile = []
    lo = 2
    for i in range(1, n + 1):
        lo = max(lo, i + 1)
        c = draw(st.integers(min_value=lo, max_value=n + 1))
        profile.append(c)
        lo = c
    strict = [(i, j) for i, c in enumerate(profile, 1) for j in range(c, n + 1)]
    return Nuio(n, strict)


class TestSetComposition:
    def test_blocks_are_normalized(self):
        a = SetComposition([(2, 1), (3,)])
        assert a.blocks == ((1, 2), (3,))
        assert a.ground == (1, 2, 3)

    def test_rejects_repeated_labels(self):
        with pytest.raises(ValueError):
            SetComposition([(1, 2), (2, 3)])

    def test_concat_requires_disjoint_grounds(self):
        with pytest.raises(ValueError):
            comp((1,)).concat(comp((1, 2)))

    def test_concat(self):
        assert comp((1, 3)).concat(comp((2,))) == comp((1, 3), (2,))

    def test_restrict_drops_empty_blocks(self):
        a = comp((1, 4), (3,), (2,))
        assert a.restrict((1, 2, 4)) == comp((1, 4), (2,))
        assert a.restrict(()) == comp()

    def test_refines(self):
        fine = comp((2,), (1,), (3,))
        coarse = comp((1, 2), (3,))
        assert refines(fine, coarse)
        assert not refines(coarse, fine)
        assert refines(comp((1, 3), (2,)), comp((1, 3), (2,)))
        # same blocks in a different order is not a refinement
        assert not refines(comp((3,), (1, 2)), coarse)

    def test_counts(self):
        # ordered set partitions: 1, 1, 3, 13, 75
        for n, expect in [(0, 1), (1, 1), (2, 3), (3, 13), (4, 75)]:
            assert sum(1 for _ in set_compositions(range(1, n + 1))) == expect

    def test_refinements_match_brute_filter(self):
        a = comp((1, 3), (2, 4))
        fine = sorted(r.blocks for r in refinements(a))
        brute = sorted(
            b.blocks for b in set_compositions(a.ground) if refines(b, a)
        )
        assert fine == brute

    def test_statistics_partition_the_square(self):
        a = comp((1, 4), (2,), (3,))
        square = set(itertools.product(a.ground, a.ground))
        eq, asc, inv = equal_pairs(a), ascent_pairs(a), inversion_pairs(a)
        assert eq | asc | inv == square
        assert not (eq & asc) and not (eq & inv) and not (asc & inv)
        assert (1, 4) in eq and (4, 1) in eq
        assert (1, 2) in asc and (2, 1) in inv
        assert (4, 3) in asc

    def test_tits_example(self):
        a = SetComposition([[1, 2, 3], [4]])
        b = SetComposition([[2, 3, 4], [1]])
        assert tits(a, b).blocks == ((2, 3), (1,), (4,))

    def test_tits_pinned(self):
        a = comp((1, 2, 3), (4,))
        b = comp((2, 4), (1, 3))
        assert tits(a, b) == comp((2,), (1, 3), (4,))
        assert tits(b, a) == comp((2,), (4,), (1, 3))

    def test_tits_identity_element(self):
        a = comp((2, 3), (1,))
        one = comp((1, 2, 3))
        assert tits(one, a) == a
        assert tits(a, one) == a


@settings(max_examples=150, deadline=None)
@given(compositions(), compositions())
def test_tits_statistics(a, b):
    """Blockwise description of the Tits product, stated on pair statistics."""
    if a.ground != b.ground:
        return
    ab = tits(a, b)
    assert equal_pairs(ab) == equal_pairs(a) & equal_pairs(b)
    assert ascent_pairs(ab) == ascent_pairs(a) | (
        equal_pairs(a) & ascent_pairs(b)
    )
    assert refines(ab, a)


@settings(max_examples=100, deadline=None)
@given(compositions(), compositions(), compositions())
def test_tits_is_associative(a, b, c):
    if not (a.ground == b.ground == c.ground):
        return
    assert tits(tits(a, b), c) == tits(a, tits(b, c))


@settings(max_examples=100, deadline=None)
@given(compositions(), compositions())
def test_tits_band_laws(a, b):
    if a.ground != b.ground:
        return
    assert tits(a, a) == a
    assert tits(tits(a, b), b) == tits(a, b)
    # the product only depends on b through its fibers over a
    assert tits(tits(a, b), a) == tits(a, b)


class TestPartialOrder:
    def test_from_strict_takes_transitive_closure(self):
        p = PartialOrder.from_strict((1, 2, 3), [(1, 2), (2, 3)])
        assert p.less(1, 3)
        assert strict_set(p) == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            PartialOrder.from_strict((1, 2), [(1, 2), (2, 1)])

    def test_rejects_non_transitive_pairs(self):
        diag = {(i, i) for i in (1, 2, 3)}
        with pytest.raises(ValueError):
            PartialOrder((1, 2, 3), frozenset(diag | {(1, 2), (2, 3)}))

    def test_restrict(self):
        p = chain_order((1, 2, 3, 4))
        assert p.restrict((2, 4)) == chain_order((2, 4))

    def test_relabel_pushforward(self):
        p = PartialOrder.from_strict((1, 2, 3), [(1, 3)])
        sigma = {1: 2, 2: 3, 3: 1}
        assert strict_set(p.relabel(sigma)) == frozenset({(2, 1)})

    def test_ordinal_sum_and_disjoint_union(self):
        a = chain_order((1, 2))
        b = chain_order((3, 4))
        d = a.disjoint_union(b)
        o = a.ordinal_sum(b)
        assert strict_set(d) == frozenset({(1, 2), (3, 4)})
        assert strict_set(o) == frozenset(
            {(1, 2), (3, 4), (1, 3), (1, 4), (2, 3), (2, 4)}
        )
        assert is_total(o)
        assert not is_total(d)

    def test_total_orders_count(self):
        assert sum(1 for _ in total_orders((1, 2, 3))) == 6
        assert all(is_total(t) for t in total_orders((1, 2, 3)))

    def test_all_partial_orders_counts(self):
        # labeled posets: 1, 1, 3, 19, 219
        for n, expect in [(0, 1), (1, 1), (2, 3), (3, 19)]:
            assert len(list(all_partial_orders(range(1, n + 1)))) == expect

    def test_all_partial_orders_distinct_and_valid(self):
        seen = {p.pairs for p in all_partial_orders((1, 2, 3))}
        assert len(seen) == 19


class TestSplitPatterns:
    def test_levi_radical_parabolic_partition(self):
        order = chain_order((1, 2, 3, 4))
        a = comp((1, 2), (3, 4))
        levi = levi_pattern(order, a)
        rad = radical_pattern(order, a)
        para = parabolic_pattern(order, a)
        assert strict_set(levi) == frozenset({(1, 2), (3, 4)})
        assert strict_set(rad) == frozenset(
            {(1, 3), (1, 4), (2, 3), (2, 4)}
        )
        assert strict_set(para) == strict_set(levi) | strict_set(rad)

    def test_one_block_split_is_trivial(self):
        order = chain_order((1, 2, 3))
        a = comp((1, 2, 3))
        assert levi_pattern(order, a) == order
        assert parabolic_pattern(order, a) == order
        assert strict_set(radical_pattern(order, a)) == frozenset()

    def test_subset_split(self):
        order = chain_order((1, 2, 3))
        a = comp((1, 3), (2,))
        assert strict_set(levi_pattern(order, a)) == frozenset({(1, 3)})
        assert strict_set(radical_pattern(order, a)) == frozenset({(1, 2)})
        # (2, 3) is an inversion of the split, so the parabolic drops it
        assert strict_set(parabolic_pattern(order, a)) == frozenset(
            {(1, 2), (1, 3)}
        )


def test_standardize():
    assert standardize((3, 5, 9)) == {3: 1, 5: 2, 9: 3}
    assert standardize(()) == {}


def brute_nuio_strict_sets(n):
    """All strict sets closed under shrinking i and growing j.

    Independent of the profile-based enumeration: filter every subset of the
    upper triangle by the closure property directly.
    """
    cells = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    out = []
    for bits in itertools.product((0, 1), repeat=len(cells)):
        chosen = {c for c, b in zip(cells, bits) if b}
        ok = all(
            (i2, j2) in chosen
            for (i, j) in chosen
            for i2 in range(1, i + 1)
            for j2 in range(j, n + 1)
        )
        if ok:
            out.append(frozenset(chosen))
    return set(out)


class TestNuio:
    def test_catalan_counts(self):
        counts = [len(natural_unit_interval_orders(n)) for n in range(8)]
        assert counts == [1, 1, 2, 5, 14, 42, 132, 429]

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_enumeration_matches_closure_characterization(self, n):
        enumerated = {frozenset(pi.strict) for pi in natural_unit_interval_orders(n)}
        assert enumerated == brute_nuio_strict_sets(n)

    def test_rejects_non_closed_order(self):
        # 2 < 3 forces 1 < 3
        with pytest.raises(ValueError):
            Nuio(3, [(2, 3)])

    def test_rejects_backwards_pair(self):
        with pytest.raises(ValueError):
            Nuio(2, [(2, 1)])

    def test_profile(self):
        assert Nuio(4, [(1, 4), (2, 4)]).profile() == (4, 4, 5, 5)
        assert Nuio(3, []).profile() == (4, 4, 4)
        assert Nuio(3, [(1, 2), (1, 3), (2, 3)]).profile() == (2, 3, 4)

    def test_dyck_pins(self):
        assert Nuio(3, [(1, 2), (1, 3), (2, 3)]).to_dyck() == "ESESES"
        assert Nuio(3, []).to_dyck() == "EEESSS"
        assert Nuio(4, [(1, 4), (2, 4)]).to_dyck() == "EEESSESS"
        assert Nuio(0, []).to_dyck() == ""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5])
    def test_dyck_round_trip(self, n):
        for pi in natural_unit_interval_orders(n):
            assert Nuio.from_dyck(pi.to_dyck()) == pi

    def test_from_dyck_rejects_bad_words(self):
        for word in ("ES" * 2 + "E", "SE", "EESS ", "EXSS"):
            with pytest.raises(ValueError):
                Nuio.from_dyck(word)

    def test_dagger_pin(self):
        pi = Nuio(4, [(1, 4), (2, 4)])
        assert pi.dagger() == Nuio(4, [(1, 3), (1, 4)])

    def test_shifted_sum(self):
        pt = Nuio(1, [])
        assert pt.shifted_sum(pt) == Nuio(2, [(1, 2)])
        a2 = Nuio(2, [])
        assert a2.shifted_sum(pt) == Nuio(3, [(1, 3), (2, 3)])
        assert pt.shifted_sum(a2) == Nuio(3, [(1, 2), (1, 3)])

    def test_shifted_restrict(self):
        pi = Nuio(4, [(1, 4), (2, 4)])
        assert pi.shifted_restrict((1, 2, 4)) == Nuio(3, [(1, 3), (2, 3)])
        assert pi.shifted_restrict((3,)) == Nuio(1, [])
        assert pi.shifted_restrict(()) == Nuio(0, [])

    def test_ascent_count(self):
        pi = Nuio(4, [(1, 4), (2, 4)])
        # (1,2) and (1,3) are incomparable going up; (1,4) is not
        assert pi.ascent_count((1,)) == 2
        assert pi.ascent_count((1, 2, 3, 4)) == 0
        assert pi.ascent_count(()) == 0
        assert Nuio(2, []).ascent_count((1,)) == 1
        assert Nuio(2, [(1, 2)]).ascent_count((1,)) == 0

    def test_dict_round_trip(self):
        pi = Nuio(4, [(1, 4), (2, 4)])
        assert Nuio.from_dict(pi.to_dict()) == pi


@settings(max_examples=100, deadline=None)
@given(nuios())
def test_nuio_dagger_is_an_involution(pi):
    assert pi.dagger().dagger() == pi


@settings(max_examples=100, deadline=None)
@given(nuios(max_n=4), nuios(max_n=4))
def test_shifted_sum_dagger_antihomomorphism(a, b):
    assert a.shifted_sum(b).dagger() == b.dagger().shifted_sum(a.dagger())


@settings(max_examples=60, deadline=None)
@given(nuios(max_n=3), nuios(max_n=3), nuios(max_n=3))
def test_shifted_sum_associative(a, b, c):
    assert a.shifted_sum(b).shifted_sum(c) == a.shifted_sum(b.shifted_sum(c))


@settings(max_examples=100, deadline=None)
@given(nuios(max_n=5), st.data())
def test_shifted_restrict_is_a_nuio_and_complement_splits_ascents(pi, data):
    labels = tuple(
        sorted(
            data.draw(st.sets(st.sampled_from(range(1, pi.n + 1)), max_size=pi.n))
        )
    ) if pi.n else ()
    left = pi.shifted_restrict(labels)
    rest = tuple(j for j in range(1, pi.n + 1) if j not in set(labels))
    right = pi.shifted_restrict(rest)
    assert left.n + right.n == pi.n
    assert pi.ascent_count(labels) <= len(labels) * len(rest)
