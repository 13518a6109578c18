"""Finite matrix groups over prime fields: enumeration, conjugacy, budgets."""

import itertools
import random

import pytest

from uthopf.combinatorics import (
    SetComposition,
    chain_order,
    levi_pattern,
    parabolic_pattern,
    radical_pattern,
    split_composition,
)
from uthopf.gl_bridge import levi_table, parabolic_table, radical_table
from uthopf.group_engine import (
    BudgetError,
    FqMatrix,
    GroupTable,
    enumeration_budget,
    gl_order,
    gl_table,
    pattern_group,
    permutation_matrix,
    primitive_root,
    ut_table,
)
from uthopf.hopf_core import split_tables

from test_combinatorics import all_partial_orders, from_strict


def rank(m):
    """Rank by row reduction."""
    return m._echelon([list(row) for row in m.rows])[0]


def is_invertible(m):
    return rank(m) == len(m.rows)


def from_digits(digits, p, ground):
    """Parse the row-major entries that FqMatrix.to_digits writes: a digit
    string for p < 11, comma-separated entries for p >= 11."""
    n = len(tuple(ground))
    vals = [int(e) for e in (digits.split(",") if p >= 11 else digits)]
    assert len(vals) == n * n
    assert all(v < p for v in vals), "digit out of range for the field"
    rows = [vals[r * n:(r + 1) * n] for r in range(n)]
    return FqMatrix(p, tuple(ground), rows)


def coset_rep_permutation(n, labels):
    """The permutation pushing 1..k onto sorted(labels), k+1..n onto the rest.

    >>> coset_rep_permutation(4, (2, 4))
    {1: 2, 2: 4, 3: 1, 4: 3}
    """
    labels = sorted(labels)
    rest = sorted(set(range(1, n + 1)) - set(labels))
    seq = labels + rest
    return {k: seq[k - 1] for k in range(1, n + 1)}


def scan_gl_elements(n, p):
    """Reference general linear group: every matrix in lexicographic
    row-major order, kept when it has full rank."""
    ground = tuple(range(1, n + 1))
    out = []
    for entries in itertools.product(range(p), repeat=n * n):
        m = FqMatrix(p, ground, [entries[r * n:(r + 1) * n] for r in range(n)])
        if is_invertible(m):
            out.append(m)
    return out


def direct_sum(a, b):
    """Block diagonal join on the disjoint union of the grounds."""
    assert a.p == b.p and not set(a.ground) & set(b.ground)
    ground = tuple(sorted(a.ground + b.ground))
    pos = {label: k for k, label in enumerate(ground)}
    out = [[0] * len(ground) for _ in ground]
    for m in (a, b):
        for r, i in enumerate(m.ground):
            for c, j in enumerate(m.ground):
                out[pos[i]][pos[j]] = m.rows[r][c]
    return FqMatrix(a.p, ground, out)


def random_matrix(rng, p, n):
    ground = tuple(range(1, n + 1))
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(n)]
    return FqMatrix(p, ground, rows)


def brute_product(a, b):
    p, ground = a.p, a.ground
    n = len(ground)
    rows = [
        [sum(a.rows[i][k] * b.rows[k][j] for k in range(n)) % p for j in range(n)]
        for i in range(n)
    ]
    return FqMatrix(p, ground, rows)


class TestFqMatrix:
    def test_multiplication_against_brute_force(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(20):
                a = random_matrix(rng, p, 4)
                b = random_matrix(rng, p, 4)
                assert a * b == brute_product(a, b)

    def test_identity_and_one_off(self):
        e = FqMatrix.identity(3, (1, 2, 3))
        m = FqMatrix.one_off(3, (1, 2, 3), 1, 3, 2)
        assert e * m == m and m * e == m
        assert m.entry(1, 3) == 2 and m.entry(1, 1) == 1 and m.entry(2, 3) == 0

    def test_inverse(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            e = FqMatrix.identity(p, (1, 2, 3))
            found = 0
            while found < 10:
                m = random_matrix(rng, p, 3)
                if not is_invertible(m):
                    continue
                found += 1
                assert m * m.inverse() == e
                assert m.inverse() * m == e
        singular = FqMatrix(3, (1, 2), [[1, 2], [2, 1]])
        with pytest.raises(ValueError):
            singular.inverse()

    def test_rank(self):
        g = (1, 2, 3)
        assert rank(FqMatrix.identity(2, g)) == 3
        assert rank(FqMatrix(2, g, [[1, 1, 0], [1, 1, 0], [0, 0, 1]])) == 2
        assert rank(FqMatrix(3, g, [[0] * 3] * 3)) == 0

    def test_dagger_pin(self):
        m = FqMatrix(5, (1, 2, 3), [[1, 2, 3], [0, 1, 4], [0, 0, 1]])
        assert m.dagger() == FqMatrix(
            5, (1, 2, 3), [[1, 4, 3], [0, 1, 2], [0, 0, 1]]
        )

    def test_dagger_is_an_involutive_antiautomorphism(self):
        rng = random.Random(13)
        for _ in range(25):
            a = random_matrix(rng, 3, 4)
            b = random_matrix(rng, 3, 4)
            assert a.dagger().dagger() == a
            assert (a * b).dagger() == b.dagger() * a.dagger()

    def test_relabel_pushforward(self):
        m = FqMatrix.one_off(2, (1, 2, 3), 1, 2, 1)
        sigma = {1: 3, 2: 1, 3: 2}
        moved = m.relabel(sigma)
        assert moved.entry(3, 1) == 1
        assert moved == FqMatrix.one_off(2, (1, 2, 3), 3, 1, 1)

    def test_relabel_composes(self):
        rng = random.Random(17)
        ground = (1, 2, 3, 4)
        sigma = {1: 2, 2: 3, 3: 4, 4: 1}
        tau = {1: 3, 2: 1, 3: 4, 4: 2}
        compose = {i: sigma[tau[i]] for i in ground}
        for _ in range(10):
            m = random_matrix(rng, 5, 4)
            assert m.relabel(tau).relabel(sigma) == m.relabel(compose)

    def test_block_and_direct_sum(self):
        a = FqMatrix(3, (1, 2), [[1, 2], [0, 1]])
        b = FqMatrix(3, (3,), [[2]])
        s = direct_sum(a, b)
        assert s.ground == (1, 2, 3)
        assert s.block((1, 2)) == a
        assert s.block((3,)) == b
        assert s.entry(1, 3) == 0 and s.entry(3, 1) == 0

    def test_relabel_needs_a_bijection_from_the_ground(self):
        m = FqMatrix.one_off(2, (1, 2), 1, 2, 1)
        for mapping in ({1: 2}, {1: 2, 2: 3, 3: 1}, {1: 3, 2: 3}):
            with pytest.raises(ValueError):
                m.relabel(mapping)

    def test_block_needs_labels_in_the_ground(self):
        with pytest.raises(ValueError):
            FqMatrix.identity(2, (1, 2)).block((1, 3))

    def test_digit_round_trip(self):
        rng = random.Random(19)
        for p in (2, 5, 11, 13):
            m = random_matrix(rng, p, 3)
            assert from_digits(m.to_digits(), p, m.ground) == m

    def test_class_reps_are_unambiguous_at_large_primes(self):
        # one digit per entry would print 1101 and 11001 for q = 11
        g = ut_table(2, 11)
        reps = [g.elements[r] for r in g.class_reps]
        digits = [m.to_digits() for m in reps]
        assert len(set(digits)) == len(reps) == 11
        assert [from_digits(d, 11, (1, 2)) for d in digits] == reps

    def test_product_needs_one_field_and_ground(self):
        # an F_2 matrix times an F_3 matrix on the same ground, and two
        # grounds of the same size over one field
        a = FqMatrix.one_off(2, (1, 2), 1, 2, 1)
        with pytest.raises(ValueError):
            a * FqMatrix.one_off(3, (1, 2), 1, 2, 1)
        with pytest.raises(ValueError):
            a * FqMatrix.one_off(2, (1, 3), 1, 3, 1)

    def test_prime_field_required(self):
        with pytest.raises(ValueError):
            FqMatrix.identity(4, (1, 2))
        with pytest.raises(ValueError):
            FqMatrix.identity(9, (1, 2))

    def test_rows_must_match_the_ground(self):
        with pytest.raises(ValueError):
            FqMatrix(2, (1, 2), [[1, 0]])
        with pytest.raises(ValueError):
            FqMatrix(2, (1, 2), [[1, 0], [0]])

    def test_ground_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError):
            FqMatrix(2, (2, 1), [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            FqMatrix(2, (1, 1), [[1, 0], [0, 1]])


def search_generators(elements):
    """Reference generating set: starting from none, append the first element
    outside the closure of the generators so far until nothing is outside."""
    ident = FqMatrix.identity(elements[0].p, elements[0].ground)
    gens = []
    while True:
        seen = {ident}
        frontier = [ident]
        while frontier:
            new = []
            for m in frontier:
                for g in gens:
                    h = m * g
                    if h not in seen:
                        seen.add(h)
                        new.append(h)
            frontier = new
        missing = [m for m in elements if m not in seen]
        if not missing:
            return gens
        gens.append(missing[0])


def brute_conjugacy(table):
    """Partition by conjugating with every group element."""
    seen = set()
    classes = []
    for i, g in enumerate(table.elements):
        if i in seen:
            continue
        orbit = {table.index[h * g * h.inverse()] for h in table.elements}
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


class TestGroupTable:
    def test_ut_orders(self):
        for q, orders in [(2, [1, 1, 2, 8, 64]), (3, [1, 1, 3, 27, 729])]:
            for n, expect in enumerate(orders):
                assert ut_table(n, q).order == expect

    def test_pattern_group_order_formula(self):
        for n in range(4):
            ground = range(1, n + 1)
            for order in all_partial_orders(ground):
                for q in (2, 3):
                    g = pattern_group(order, q)
                    cells = len(order.strict_pairs)
                    assert g.order == q ** cells

    def test_pattern_group_needs_a_partial_order(self):
        with pytest.raises(TypeError):
            pattern_group(((1, 2), ((1, 2),)), 2)

    def test_enumeration_is_lexicographic(self):
        g = ut_table(3, 3)
        digits = [m.to_digits() for m in g.elements]
        assert digits == sorted(digits)

    def test_closure(self):
        g = ut_table(3, 2)
        for a in g.elements:
            for b in g.elements:
                assert a * b in g.index

    def test_conjugacy_against_full_conjugation(self):
        for table in (ut_table(3, 2), ut_table(3, 3), gl_table(2, 2), gl_table(2, 3)):
            greedy = {frozenset(c) for c in table.classes}
            assert greedy == brute_conjugacy(table)

    def test_class_counts(self):
        assert len(ut_table(3, 2).classes) == 5
        assert len(ut_table(3, 3).classes) == 11
        assert len(gl_table(2, 2).classes) == 3
        # q^2 - 1 classes for the 2x2 general linear group
        assert len(gl_table(2, 3).classes) == 8
        assert len(gl_table(3, 2).classes) == 6

    def test_class_equation(self):
        for table in (ut_table(4, 2), gl_table(3, 2)):
            assert sum(table.class_sizes) == table.order
            assert all(table.order % s == 0 for s in table.class_sizes)

    def test_class_of_matrix_consistent(self):
        g = gl_table(2, 3)
        for c, members in enumerate(g.classes):
            for i in members:
                assert g.class_of_matrix(g.elements[i]) == c

    def test_factorization_recomposes(self):
        q = 2
        chain = chain_order((1, 2, 3, 4))
        split = SetComposition([(1, 2), (3, 4)])
        big = pattern_group(parabolic_pattern(chain, split), q)
        levi = pattern_group(levi_pattern(chain, split), q)
        radical = pattern_group(radical_pattern(chain, split), q)
        pairs = big.factorization(levi, radical)
        assert len(pairs) == big.order == levi.order * radical.order
        for g, (i, j) in zip(big.elements, pairs):
            assert levi.elements[i] * radical.elements[j] == g

    def test_subtable_keeps_order(self):
        g = ut_table(3, 2)
        kept = [m for m in g.elements if all(m * x == x * m for x in g.elements)]
        center = GroupTable(kept, search_generators(kept), name="Z")
        assert center.order == 2

    def test_generators_are_required(self):
        with pytest.raises(TypeError):
            GroupTable(ut_table(2, 2).elements)

    def test_bad_element_lists_raise(self):
        ident = FqMatrix.identity(2, (1, 2))
        x = FqMatrix.one_off(2, (1, 2), 1, 2, 1)
        with pytest.raises(ValueError):
            GroupTable([], [])
        with pytest.raises(ValueError):
            GroupTable([ident, x, x], [x])
        with pytest.raises(ValueError):
            GroupTable([x], [x])
        # a generator outside the list
        with pytest.raises(ValueError):
            GroupTable([ident], [x])
        # not closed: (I + e12)^2 = I + 2 e12 over F_3
        ident3 = FqMatrix.identity(3, (1, 2))
        x3 = FqMatrix.one_off(3, (1, 2), 1, 2, 1)
        with pytest.raises(ValueError):
            GroupTable([ident3, x3], [x3])

    def test_generators_that_do_not_generate_raise(self):
        g = ut_table(3, 2)
        corner = FqMatrix.one_off(2, g.ground, 1, 3, 1)
        with pytest.raises(ValueError):
            GroupTable(g.elements, [])
        with pytest.raises(ValueError):
            GroupTable(g.elements, [corner])
        gens = [g.elements[i] for i in g.generators()]
        assert GroupTable(g.elements, gens).order == g.order

    def test_generators_generate(self):
        g = gl_table(2, 3)
        gens = [g.elements[i] for i in g.generators()]
        span = {g.identity_index}
        frontier = [g.identity_index]
        while frontier:
            nxt = []
            for i in frontier:
                for h in gens:
                    j = g.index[g.elements[i] * h]
                    if j not in span:
                        span.add(j)
                        nxt.append(j)
            frontier = nxt
        assert len(span) == g.order


def search_factorization(big, levi, radical):
    """Reference factorization: for each g, search the radical for the r
    with g * r^-1 in levi."""
    rad_inv = [(j, m.inverse()) for j, m in enumerate(radical.elements)]
    out = []
    for g in big.elements:
        for j, rinv in rad_inv:
            li = levi.index.get(g * rinv)
            if li is not None:
                out.append((li, j))
                break
        else:
            raise AssertionError("%r does not factor" % (g,))
    return out


def strict_pattern_group(strict, q):
    return pattern_group(from_strict((1, 2, 3), strict), q)


class TestFactorization:
    @pytest.mark.parametrize("n,i,q", [(2, 1, 3), (3, 1, 2), (3, 2, 3), (3, 0, 2)])
    def test_gl_split_matches_search(self, n, i, q):
        big = parabolic_table(n, i, q)
        levi = levi_table(n, i, q)
        radical = radical_table(n, i, q)
        got = big.factorization(levi, radical)
        assert got == search_factorization(big, levi, radical)

    def test_subset_split_matches_search(self):
        # {1, 3} is not an initial segment of the chain on 4 labels
        chain = chain_order((1, 2, 3, 4))
        big = pattern_group(parabolic_pattern(chain, split_composition(4, (1, 3))), 2)
        levi, radical = split_tables(4, (1, 3), 2)
        got = big.factorization(levi, radical)
        assert got == search_factorization(big, levi, radical)

    def test_order_mismatch_raises(self):
        big = ut_table(3, 2)
        with pytest.raises(ValueError):
            big.factorization(big, big)

    def test_overlap_raises(self):
        levi = strict_pattern_group([(1, 2), (1, 3)], 2)
        radical = strict_pattern_group([(1, 3)], 2)
        with pytest.raises(ValueError):
            ut_table(3, 2).factorization(levi, radical)

    def test_complement_that_is_not_a_levi_raises(self):
        # {1, x} meets the radical trivially and the orders multiply, so the
        # search factors every element; but the part of I + e13 on the
        # support of {1, x} is I + e13 itself, which is not in {1, x}
        big = ut_table(3, 2)
        ident = FqMatrix.identity(2, (1, 2, 3))
        x = FqMatrix(2, (1, 2, 3), [[1, 1, 1], [0, 1, 0], [0, 0, 1]])
        fake = GroupTable([ident, x], [x], name="fake")
        radical = strict_pattern_group([(1, 3), (2, 3)], 2)
        assert len(search_factorization(big, fake, radical)) == big.order
        with pytest.raises(ValueError):
            big.factorization(fake, radical)


class TestGl:
    def test_gl_order_formula(self):
        assert gl_order(2, 2) == 6
        assert gl_order(2, 3) == 48
        assert gl_order(3, 2) == 168
        assert gl_order(3, 3) == 11232
        assert gl_order(4, 2) == 20160

    def test_gl_tables_match_formula(self):
        for n, q in [(1, 2), (1, 3), (2, 2), (2, 3), (3, 2)]:
            assert gl_table(n, q).order == gl_order(n, q)

    def test_all_elements_invertible(self):
        assert all(is_invertible(m) for m in gl_table(2, 3).elements)

    @pytest.mark.parametrize("n,q", [
        (0, 2), (1, 2), (2, 2), (3, 2), (4, 2), (0, 3), (1, 3), (2, 3), (3, 3),
        (2, 5),
    ])
    def test_row_built_elements_equal_the_scan(self, n, q):
        assert gl_table(n, q).elements == scan_gl_elements(n, q)

    def test_primitive_root(self):
        for p in (2, 3, 5, 7, 11, 13):
            r = primitive_root(p)
            powers = {pow(r, k, p) for k in range(1, p)}
            assert powers == set(range(1, p))


class TestPermutations:
    def test_permutation_matrix_convention(self):
        w = {1: 2, 2: 3, 3: 1}
        m = permutation_matrix(w, 2, (1, 2, 3))
        for i in (1, 2, 3):
            assert m.entry(w[i], i) == 1

    def test_permutation_matrices_compose(self):
        ground = (1, 2, 3)
        w = {1: 2, 2: 3, 3: 1}
        v = {1: 1, 2: 3, 3: 2}
        wv = {i: w[v[i]] for i in ground}
        lhs = permutation_matrix(w, 5, ground) * permutation_matrix(v, 5, ground)
        assert lhs == permutation_matrix(wv, 5, ground)

    def test_permutation_matrix_needs_a_permutation_of_the_ground(self):
        for perm in ({1: 2}, {1: 2, 2: 1, 3: 3}, {1: 1, 2: 1}):
            with pytest.raises(ValueError):
                permutation_matrix(perm, 2, (1, 2))

    def test_conjugation_is_relabelling(self):
        p = 3
        ground = (1, 2, 3)
        w = {1: 2, 2: 3, 3: 1}
        pw = permutation_matrix(w, p, ground)
        rng = random.Random(23)
        for _ in range(10):
            m = random_matrix(rng, p, 3)
            assert pw * m * pw.inverse() == m.relabel(w)

    def test_coset_rep_permutation_pin(self):
        assert coset_rep_permutation(4, (2, 4)) == {1: 2, 2: 4, 3: 1, 4: 3}
        assert coset_rep_permutation(3, (1, 2)) == {1: 1, 2: 2, 3: 3}


class TestBudget:
    def test_default_budget(self, monkeypatch):
        monkeypatch.delenv("UTHOPF_BUDGET", raising=False)
        assert enumeration_budget() == 25000

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("UTHOPF_BUDGET", "123")
        assert enumeration_budget() == 123

    def test_pattern_group_respects_budget(self, monkeypatch):
        monkeypatch.setenv("UTHOPF_BUDGET", "4")
        order = chain_order((1, 2, 3))
        with pytest.raises(BudgetError):
            pattern_group.__wrapped__(order, 2)

    def test_gl_table_respects_budget(self, monkeypatch):
        monkeypatch.setenv("UTHOPF_BUDGET", "100")
        with pytest.raises(BudgetError):
            gl_table.__wrapped__(3, 2)
