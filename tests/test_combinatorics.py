"""Set compositions, partial orders, and unit interval orders.

Everything here is small enough to check against brute-force alternatives:
statistics of the Tits product against its blockwise definition, the unit
interval enumeration against the closure characterization of their strict
pair sets, the profile formulas against their strict-pair definitions, Dyck
words against pinned examples.
"""

import itertools
import json
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from uthopf import combinatorics
from uthopf.combinatorics import (
    Nuio,
    PartialOrder,
    SetComposition,
    _relation_axioms,
    chain_order,
    levi_pattern,
    natural_unit_interval_orders,
    radical_pattern,
    refinements,
    set_compositions,
    total_orders,
)


def standardize(labels):
    """Map the k-th smallest label to k, as a dict.

    >>> standardize((2, 5, 3))
    {2: 1, 3: 2, 5: 3}
    """
    return {s: r for r, s in enumerate(sorted(labels), start=1)}


def equal_pairs(comp):
    """All pairs (i, j) with i and j in the same block, including i == j."""
    out = set()
    for b in comp.blocks:
        out.update(itertools.product(b, b))
    return frozenset(out)


def ascent_pairs(comp):
    """All pairs (i, j) with the block of i strictly before the block of j."""
    out = set()
    for r, br in enumerate(comp.blocks):
        for bs in comp.blocks[r + 1:]:
            out.update(itertools.product(br, bs))
    return frozenset(out)


def parabolic_pattern(order, comp):
    """The part of the order not pointing from later blocks into earlier
    ones: the pattern of the parabolic of the split."""
    if set(comp.ground) != set(order.ground):
        raise ValueError("composition and order on different grounds")
    keep = equal_pairs(comp) | ascent_pairs(comp)
    return PartialOrder(order.ground, order.pairs & keep)


def strict_set(order):
    return frozenset(order.strict_pairs)


def from_strict(ground, strict):
    """The partial order generated by the given strict pairs: their
    reflexive transitive closure."""
    ground = tuple(sorted(int(i) for i in ground))
    pairs = {(i, i) for i in ground}
    pairs.update((int(i), int(j)) for i, j in strict)
    changed = True
    while changed:
        changed = False
        for i, j in list(pairs):
            for k, l in list(pairs):
                if k == j and (i, l) not in pairs:
                    pairs.add((i, l))
                    changed = True
    return PartialOrder(ground, pairs)


def assert_checked(order):
    """order, built unchecked, equals its rebuild through the validating
    constructor, and holds its ground and pairs as a tuple and a frozenset."""
    rebuilt = PartialOrder(order.ground, order.pairs)
    assert (type(order.ground), type(order.pairs)) == (tuple, frozenset)
    assert (order, order.strict_pairs) == (rebuilt, rebuilt.strict_pairs)


def less(order, i, j):
    return i != j and (i, j) in order.pairs


def all_partial_orders(ground):
    """Every partial order on the ground set, by brute filtering.

    Quadratic in the number of candidate relations per candidate; meant for
    tiny ground sets only.
    """
    ground = tuple(sorted(ground))
    diag = {(i, i) for i in ground}
    offdiag = sorted((i, j) for i in ground for j in ground if i != j)
    for bits in itertools.product((0, 1), repeat=len(offdiag)):
        pairs = frozenset(diag | {p for p, b in zip(offdiag, bits) if b})
        try:
            _relation_axioms(pairs)
        except ValueError:
            continue
        yield PartialOrder(ground, pairs)


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

    def test_rejects_empty_blocks(self):
        for blocks in ([[1], []], [[]], [[], [2]]):
            with pytest.raises(ValueError, match="nonempty"):
                SetComposition(blocks)

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
        p = from_strict((1, 2, 3), [(1, 2), (2, 3)])
        assert less(p, 1, 3)
        assert strict_set(p) == frozenset({(1, 2), (2, 3), (1, 3)})

    def test_rejects_cycles(self):
        with pytest.raises(ValueError):
            from_strict((1, 2), [(1, 2), (2, 1)])

    def test_rejects_non_transitive_pairs(self):
        diag = {(i, i) for i in (1, 2, 3)}
        with pytest.raises(ValueError):
            PartialOrder((1, 2, 3), frozenset(diag | {(1, 2), (2, 3)}))

    def test_rejects_non_reflexive_pairs(self):
        for ground, pairs in [((1, 2), [(1, 2)]), ((1, 2), [(1, 1), (1, 2)]),
                              ((1, 2, 3), [(1, 1), (2, 2), (1, 2)])]:
            with pytest.raises(ValueError, match="reflexive"):
                PartialOrder(ground, pairs)

    def test_restrict(self):
        p = chain_order((1, 2, 3, 4))
        assert p.restrict((2, 4)) == chain_order((2, 4))

    def test_restrict_needs_labels_in_the_ground(self):
        with pytest.raises(ValueError):
            chain_order((1, 2, 3)).restrict((2, 4))

    def test_relabel_pushforward(self):
        p = from_strict((1, 2, 3), [(1, 3)])
        sigma = {1: 2, 2: 3, 3: 1}
        assert strict_set(p.relabel(sigma)) == frozenset({(2, 1)})

    def test_relabel_needs_a_bijection_on_the_ground(self):
        p = chain_order((1, 2, 3))
        for mapping in ({1: 2, 2: 3}, {1: 2, 2: 3, 4: 1}, {1: 2, 2: 2, 3: 1}):
            with pytest.raises(ValueError):
                p.relabel(mapping)

    @pytest.mark.parametrize("build", [
        lambda: PartialOrder((1.5, 2), [(1.5, 1.5), (2, 2), (1.7, 2)]),
        lambda: PartialOrder((1, 2), [(1, 1), (2, 2), (1.0, 2)]),
        lambda: PartialOrder((True, 2), [(True, True), (2, 2)]),
        lambda: chain_order((1, 2, 3)).relabel({1: "4", 2: 5.9, 3: 6}),
        lambda: chain_order((1, 2.0)),
        lambda: chain_order([False]),
        lambda: SetComposition([[1.9], [3]]),
        lambda: SetComposition([[True], [3]]),
    ])
    def test_labels_must_be_ints(self, build):
        # int() would truncate 1.5 and 5.9 and read "4" and True as ints
        with pytest.raises(ValueError):
            build()

    def test_disjoint_union_rejects_overlapping_grounds(self):
        with pytest.raises(ValueError):
            chain_order((1, 2)).disjoint_union(chain_order((2, 3)))

    def test_ordinal_sum_rejects_overlapping_grounds(self):
        with pytest.raises(ValueError):
            chain_order((1, 2)).ordinal_sum(chain_order((2, 3)))

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


class TestTrustedOrders:
    """Every order derived from built orders is built unchecked; over every
    order on up to 3 labels, each one passes the validating constructor."""

    ORDERS = [order for n in range(4) for order in all_partial_orders(range(1, n + 1))]

    def test_restrict_to_every_subset(self):
        for order in self.ORDERS:
            for k in range(len(order.ground) + 1):
                for labels in itertools.combinations(order.ground, k):
                    assert_checked(order.restrict(labels))

    def test_relabel_along_every_permutation_and_shift(self):
        for order in self.ORDERS:
            ground = order.ground
            for perm in itertools.permutations(ground):
                assert_checked(order.relabel(dict(zip(ground, perm))))
            assert_checked(order.relabel({i: i + 10 for i in ground}))

    def test_joins_with_a_shifted_copy(self):
        for order in self.ORDERS:
            shifted = order.relabel({i: i + len(order.ground) for i in order.ground})
            for joined in (order.disjoint_union(shifted), order.ordinal_sum(shifted),
                           shifted.ordinal_sum(order)):
                assert_checked(joined)

    def test_levi_and_radical_along_every_composition(self):
        for order in self.ORDERS:
            diag = frozenset((i, i) for i in order.ground)
            for c in set_compositions(order.ground):
                levi, radical = levi_pattern(order, c), radical_pattern(order, c)
                assert_checked(levi)
                assert_checked(radical)
                assert levi.pairs == order.pairs & equal_pairs(c)
                assert radical.pairs == order.pairs & ascent_pairs(c) | diag

    def test_total_orders(self):
        for n in range(5):
            for order in total_orders(range(1, n + 1)):
                assert_checked(order)


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

    @pytest.mark.parametrize(
        "split", [levi_pattern, radical_pattern, parabolic_pattern]
    )
    def test_split_needs_the_ground_of_the_order(self, split):
        # a composition of a larger ground; without the check each split
        # of this order returns a valid PartialOrder
        with pytest.raises(ValueError):
            split(chain_order((1, 2, 3)), comp((1, 2), (3, 4)))

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


def upper_cells(n):
    """The pairs i <= j of labels in {1, ..., n}; the constructor ignores
    the pairs (i, i)."""
    return [(i, j) for i in range(1, n + 1) for j in range(i, n + 1)]


def reference_closure_profile(n, strict):
    """The profile that Nuio(n, strict) read off the transitive closure
    before its closed form: each row's set grown by the sets of the rows
    it holds, top row first, then checked to be an upper interval; or the
    message of the ValueError that it, or the profile check, raised."""
    above = {i: set() for i in range(1, n + 1)}
    for i, j in strict:
        if i < j:
            above[i].add(j)
    prof = [n + 1] * n
    for i in range(n, 0, -1):
        row = above[i]
        for j in list(row):
            row |= above[j]
        prof[i - 1] = min(row, default=n + 1)
        if row != set(range(prof[i - 1], n + 1)):
            return "row %d is not an upper interval" % i
    try:
        return Nuio.from_profile(prof).profile()
    except ValueError as err:
        return str(err)


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


def natural_profiles(n):
    """Every nondecreasing profile c with i < c(i) <= n + 1; there are
    Catalan(n) of them."""
    out = [c for c in itertools.combinations_with_replacement(range(2, n + 2), n)
           if all(i < ci for i, ci in enumerate(c, start=1))]
    assert len(out) == math.comb(2 * n, n) // (n + 1)
    return out


def ref_dagger(pi):
    """The flip on strict pairs, rebuilt through the validating constructor."""
    n = pi.n
    return Nuio(n, [(n + 1 - j, n + 1 - i) for i, j in pi.strict])


def ref_shifted_sum(a, b):
    shift = a.n
    strict = list(a.strict)
    strict.extend((i + shift, j + shift) for i, j in b.strict)
    strict.extend(
        (i, j + shift) for i in range(1, a.n + 1) for j in range(1, b.n + 1)
    )
    return Nuio(a.n + b.n, strict)


def ref_shifted_restrict(pi, labels):
    labels = tuple(sorted(labels))
    std = standardize(labels)
    inside = set(labels)
    strict = [
        (std[i], std[j]) for i, j in pi.strict if i in inside and j in inside
    ]
    return Nuio(len(labels), strict)


def ref_ascent_count(pi, labels):
    inside = set(labels)
    related = set(pi.strict)
    return sum(
        1
        for i in inside
        for j in range(i + 1, pi.n + 1)
        if j not in inside and (i, j) not in related
    )


def mask_labels(mask, n):
    """The labels i in 1, ..., n whose bit i is set in mask."""
    return tuple(i for i in range(1, n + 1) if mask >> i & 1)


def split_of(pi, labels):
    """(left, right, ascents) of the split of pi with the labels inside."""
    mask = sum(1 << i for i in labels)
    (found,) = [s[1:] for s in pi.splits() if s[0] == mask]
    return found


class TestProfileAgainstStrictPairs:
    """The closed profile formulas against their strict-pair definitions."""

    ORDERS = [pi for n in range(7) for pi in natural_unit_interval_orders(n)]

    def test_dagger(self):
        for pi in self.ORDERS:
            assert pi.dagger().key() == ref_dagger(pi).key()

    def test_shifted_sum(self):
        for a in self.ORDERS:
            for b in self.ORDERS:
                if a.n + b.n <= 6:
                    got = a.shifted_sum(b)
                    assert got.key() == ref_shifted_sum(a, b).key()

    def test_shifted_restrict_and_ascent_count(self):
        # every split of the one-pass walk: one per subset of the labels,
        # each side the restriction rebuilt from strict pairs
        for pi in self.ORDERS:
            full = (1 << pi.n + 1) - 2
            masks = []
            for inside, left, right, ascents in pi.splits():
                masks.append(inside)
                labels = mask_labels(inside, pi.n)
                rest = mask_labels(full ^ inside, pi.n)
                assert left.key() == ref_shifted_restrict(pi, labels).key()
                assert right.key() == ref_shifted_restrict(pi, rest).key()
                assert ascents == ref_ascent_count(pi, labels)
            assert sorted(masks) == list(range(0, full + 1, 2))

    def test_top_piece(self):
        # a cut is a k < n with every i <= k strictly below every j > k:
        # top has none, and rest ends at the highest cut of pi
        def cuts(pi):
            strict = set(pi.strict)
            return [k for k in range(1, pi.n) if all(
                (i, j) in strict for i in range(1, k + 1)
                for j in range(k + 1, pi.n + 1))]

        for pi in self.ORDERS:
            rest, top = pi.top_piece()
            assert rest.shifted_sum(top) == pi and top.n >= min(pi.n, 1)
            assert cuts(top) == []
            assert rest.n == max(cuts(pi), default=0)

    def test_key_sorts_like_the_strict_pairs(self):
        # the profile key against the (n, strict) key it replaced, on all
        # 2,056 orders of degree <= 8 in a shuffled order
        orders = [pi for n in range(9) for pi in natural_unit_interval_orders(n)]
        assert len(orders) == len({pi.key() for pi in orders}) == 2056
        random.Random(0).shuffle(orders)
        assert sorted(orders, key=Nuio.key) == sorted(
            orders, key=lambda pi: (pi.n, pi.strict)
        )

    def test_int_key_sorts_like_the_profile_tuple(self):
        # the int key against the (n, rows) tuple it replaced, an empty row
        # read as 0, on all 2,056 orders of degree <= 8 in a shuffled order
        orders = [pi for n in range(9) for pi in natural_unit_interval_orders(n)]
        keys = {pi.key() for pi in orders}
        assert len(keys) == len(orders) == 2056
        assert all(type(k) is int for k in keys)
        random.Random(1).shuffle(orders)
        assert sorted(orders, key=Nuio.key) == sorted(orders, key=lambda pi: (
            pi.n, tuple(c if c <= pi.n else 0 for c in pi.profile())))

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 4])
    def test_constructor_accepts_exactly_closures_that_are_nuios(self, n):
        # every set of off-diagonal pairs: accepted exactly when its
        # transitive closure is a unit interval order, then stored closed
        accepted = brute_nuio_strict_sets(n)
        ground = range(1, n + 1)
        cells = [(i, j) for i in ground for j in ground if i != j]
        for bits in itertools.product((0, 1), repeat=len(cells)):
            chosen = [c for c, b in zip(cells, bits) if b]
            try:
                closure = from_strict(ground, chosen).strict_pairs
            except ValueError:
                closure = None
            if closure is None or frozenset(closure) not in accepted:
                with pytest.raises(ValueError):
                    Nuio(n, chosen)
            else:
                assert Nuio(n, chosen).strict == closure


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

    def test_rejects_sizes_and_labels_that_are_not_ints(self):
        for n, strict in [(2.5, []), (True, []), ("2", []), (2, [(1.9, 2)]),
                          (2, [("1", "2")]), (2, [(True, 2)])]:
            with pytest.raises(ValueError):
                Nuio(n, strict)

    def test_from_profile_stores_a_tuple(self):
        pi = Nuio.from_profile([2, 3])
        assert pi == Nuio(2, [(1, 2)])
        assert hash(pi) == hash(Nuio(2, [(1, 2)]))
        assert pi.profile() == (2, 3) and type(pi.profile()) is tuple
        # interned: an equal profile, list or tuple, gives the same order,
        # whose tuple may be one an earlier call stored
        prof = (4, 4, 5, 5)
        assert Nuio.from_profile(prof) is Nuio.from_profile(list(prof))
        assert Nuio.from_profile(prof).profile() == prof

    @pytest.mark.parametrize("n", range(8))
    def test_interned_orders_match_the_validating_constructor(self, n):
        for prof in natural_profiles(n):
            pi = Nuio.from_profile(prof)
            strict = [(i, j) for i, j in itertools.combinations(range(1, n + 1), 2)
                      if j >= prof[i - 1]]
            assert pi.strict == tuple(strict)
            checked = Nuio(n, strict)
            assert pi == checked and hash(pi) == hash(checked)
            assert pi.key() == checked.key()
            assert Nuio.from_dict(pi.to_dict()) == pi
            assert repr(pi) == "Nuio(%d, %s)" % (n, strict)

    def test_each_profile_is_checked_once(self, monkeypatch):
        checked = []
        assign = Nuio._assign

        def counted(self, prof):
            checked.append(prof)
            assign(self, prof)

        monkeypatch.setattr(combinatorics, "_INTERNED", {})
        monkeypatch.setattr(combinatorics, "_SUMS", {})
        monkeypatch.setattr(Nuio, "_assign", counted)
        orders = [pi for n in range(6) for pi in natural_unit_interval_orders(n)]
        for pi in orders:
            pi.dagger()
            for _ in pi.splits():
                pass
        for pi in orders:
            for rho in orders:
                pi.shifted_sum(rho).top_piece()
        assert len(checked) == len(set(checked)) == len(combinatorics._INTERNED)
        assert len(checked) > len(orders)

    def test_bad_profile_is_never_interned(self, monkeypatch):
        monkeypatch.setattr(combinatorics, "_INTERNED", {})
        for bad in [(1,), (2, 2), (3, 2, 4), (4, 3, 4), (5, 5, 5), (2.0,),
                    (True,), ("2",), (2, 3.0, 4)]:
            for _ in range(2):
                with pytest.raises(ValueError):
                    Nuio.from_profile(bad)
                with pytest.raises(ValueError):
                    Nuio.from_profile(list(bad))
        assert combinatorics._INTERNED == {}
        # only int profiles are interned; an equal float profile then
        # finds the int order
        pi = Nuio.from_profile((2,))
        assert combinatorics._INTERNED == {(2,): pi}
        assert Nuio.from_profile((2.0,)) is pi and type(pi.profile()[0]) is int

    def test_closed_form_profile_against_the_closure(self):
        rng = random.Random(11)
        cases = [(n, chosen) for n in range(5)
                 for k in range(len(upper_cells(n)) + 1)
                 for chosen in itertools.combinations(upper_cells(n), k)]
        for _ in range(4000):
            n = rng.randrange(5, 10)
            cells = upper_cells(n)
            cases.append((n, rng.sample(cells, rng.randrange(len(cells) + 1))))
        for n, chosen in cases:
            want = reference_closure_profile(n, chosen)
            try:
                got = Nuio(n, chosen).profile()
            except ValueError as err:
                got = str(err)
            if got != want:
                raise AssertionError("Nuio(%d, %s) gave %r, not %r" % (n, chosen, got, want))

    def test_strict_pairs_past_the_budget_are_refused(self, monkeypatch):
        # explicit comparisons, so that python -O checks them too
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        monkeypatch.setattr(combinatorics, "_INTERNED", {})
        monkeypatch.setattr(combinatorics, "_SUMS", {})
        # 399 covering pairs whose closure has 79,800 pairs
        chain = [(i, i + 1) for i in range(1, 400)]
        half = Nuio(200, chain[:199])  # 19,900 pairs
        for build in (lambda: Nuio(400, chain),
                      lambda: Nuio.from_profile(range(2, 402)),
                      lambda: half.shifted_sum(half)):
            try:
                build()
            except combinatorics.BudgetError as err:
                if "79800" not in str(err):
                    raise AssertionError(str(err))
            else:
                raise AssertionError("a 400-label chain was built")
        if combinatorics._INTERNED or combinatorics._SUMS:
            raise AssertionError("a refused profile was interned")
        if len(half.strict) != 19900:
            raise AssertionError("the 200-label chain has %d pairs" % len(half.strict))

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
        assert split_of(pi, (1, 2, 4))[:2] == (Nuio(3, [(1, 3), (2, 3)]), Nuio(1, []))
        assert split_of(pi, (3,))[:2] == (Nuio(1, []), Nuio(3, [(1, 3), (2, 3)]))
        assert split_of(pi, ())[:2] == (Nuio(0, []), pi)

    def test_ascent_count(self):
        pi = Nuio(4, [(1, 4), (2, 4)])
        # (1,2) and (1,3) are incomparable going up; (1,4) is not
        assert split_of(pi, (1,))[2] == 2
        assert split_of(pi, (1, 2, 3, 4))[2] == 0
        assert split_of(pi, ())[2] == 0
        assert split_of(Nuio(2, []), (1,))[2] == 1
        assert split_of(Nuio(2, [(1, 2)]), (1,))[2] == 0

    def test_dict_round_trip(self):
        pi = Nuio(4, [(1, 4), (2, 4)])
        assert Nuio.from_dict(pi.to_dict()) == pi

    @pytest.mark.parametrize("n", range(8))
    def test_dict_shares_the_pairs_and_prints_the_list_form(self, n):
        for pi in natural_unit_interval_orders(n):
            data = pi.to_dict()
            # the stored pairs themselves, immutable all the way down
            assert data["strict"] is pi.strict
            assert all(type(p) is tuple for p in data["strict"])
            listed = {"n": n, "strict": [list(p) for p in pi.strict]}
            assert json.dumps(data, sort_keys=True) == json.dumps(listed, sort_keys=True)
            assert Nuio.from_dict(data) == pi
            # a caller that adds to or replaces keys of its dict, as
            # `nuio list --dyck` adds "dyck", changes no later call
            data["dyck"] = pi.to_dyck()
            data["strict"], data["n"] = [], -1
            assert pi.to_dict() == {"n": n, "strict": pi.strict}

    @pytest.mark.parametrize("n", range(8))
    def test_memoized_sum_is_the_interned_concatenation(self, n, monkeypatch):
        # every pair of total degree n, summed into fresh tables twice:
        # each call gives the interned order of the shifted concatenation
        monkeypatch.setattr(combinatorics, "_INTERNED", {})
        monkeypatch.setattr(combinatorics, "_SUMS", {})
        pairs = [(a, b) for k in range(n + 1)
                 for a in natural_unit_interval_orders(k)
                 for b in natural_unit_interval_orders(n - k)]
        for _ in range(2):
            for a, b in pairs:
                prof = a.profile() + tuple(c + a.n for c in b.profile())
                got = a.shifted_sum(b)
                assert got is Nuio.from_profile(prof)
                assert got is combinatorics._INTERNED[prof]
                # an equal order from the validating constructor, not
                # interned, sums to the same interned order
                assert Nuio(a.n, a.strict).shifted_sum(Nuio(b.n, b.strict)) is got
        assert len(combinatorics._SUMS) == len(pairs)


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
    left, right, ascents = split_of(pi, labels)
    rest = tuple(j for j in range(1, pi.n + 1) if j not in set(labels))
    assert (left.n, right.n) == (len(labels), len(rest))
    assert ascents <= len(labels) * len(rest)
    # the complement split swaps the sides
    assert split_of(pi, rest)[:2] == (right, left)
