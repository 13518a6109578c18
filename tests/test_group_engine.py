"""Finite matrix groups over prime fields: enumeration, conjugacy, budgets."""

import itertools
import math
import random
import re
import tracemalloc

import pytest

from uthopf import gl_bridge, group_engine
from uthopf.combinatorics import (
    BudgetError,
    SetComposition,
    chain_order,
    enumeration_budget,
    levi_pattern,
    natural_unit_interval_orders,
    radical_pattern,
    split_composition,
)
from uthopf.gl_bridge import levi_table, parabolic_table, radical_table
from uthopf.group_engine import (
    Codes,
    FqMatrix,
    GroupTable,
    _check_prime,
    _gl_generators,
    _width,
    cell_move,
    flip_move,
    gl_order,
    gl_table,
    kernel,
    pattern_group,
    permutation_matrix,
    pick_move,
    primitive_root,
    ut_table,
)
from uthopf.hopf_core import _fubini, axiom_cases, product_oracle_cases, split_tables

from test_combinatorics import all_partial_orders, from_strict, parabolic_pattern


def rank(m):
    """Rank by row reduction."""
    return m._echelon([list(row) for row in m.rows])[0]


def is_invertible(m):
    return rank(m) == len(m.rows)


def identity(p, ground):
    """The identity matrix on ground, through the validating constructor."""
    n = len(tuple(ground))
    return FqMatrix(p, ground, [[int(r == c) for c in range(n)] for r in range(n)])


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


def block(m, labels):
    """Square submatrix of m on the given labels, keeping those labels."""
    labels = tuple(sorted(labels))
    if len(set(labels).intersection(m.ground)) != len(labels):
        raise ValueError("block labels must be distinct labels of the ground")
    pos = {label: k for k, label in enumerate(m.ground)}
    return FqMatrix(m.p, labels, [[m.rows[pos[i]][pos[j]] for j in labels]
                                  for i in labels])


def _standard_block(m, labels):
    """The block of m on labels, a sorted tuple of labels of its ground,
    moved onto an initial segment and read off the decoded rows: the matrix
    reference for the block picks of class_functions._block_classes."""
    return FqMatrix(m.p, tuple(range(1, len(labels) + 1)),
                    [[m.entry(i, j) for j in labels] for i in labels])


def rows_relabel(m, mapping):
    """Reference relabelling read off the decoded rows: entry (i, j) of m
    moves to (mapping[i], mapping[j])."""
    back = {v: k for k, v in mapping.items()}
    ground = tuple(sorted(back))
    return FqMatrix(m.p, ground, [[m.entry(back[i], back[j]) for j in ground]
                                  for i in ground])


def rows_dagger(m):
    """Reference transpose-flip read off the decoded rows."""
    n, rows = len(m.ground), m.rows
    return FqMatrix(m.p, m.ground, [[rows[n - 1 - c][n - 1 - r] for c in range(n)]
                                    for r in range(n)])


def matrix_class_map(source, target, move):
    """Reference class map: the class in source of move(m) for each decoded
    class representative m of target; KeyError if one is not in source."""
    return tuple(source.class_of_matrix(move(target.element(r)))
                 for r in target.class_reps)


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


def reference_mul(a, b):
    """The tuple product that FqMatrix.__mul__ computed before the packed
    kernel: each entry a row of a dotted with a column of b, mod p."""
    p = a.p
    cols = tuple(zip(*b.rows))
    rows = tuple(
        tuple(sum(x * y for x, y in zip(row, col)) % p for col in cols)
        for row in a.rows
    )
    return FqMatrix(p, a.ground, rows)


def pack(rows, w):
    """Entries row-major in fields of w bits, entry i at bit i w, unreduced."""
    return sum(e << i * w for i, e in enumerate(itertools.chain(*rows)))


def reference_reduce(acc, p, n, w):
    """The per-field reduction every odd-p kernel product ran before the
    byte table: each of the n^2 fields of w bits taken mod p in place."""
    field = (1 << w) - 1
    out = 0
    for s in range(0, n * n * w, w):
        out |= (acc >> s & field) % p << s
    return out


class TestFqMatrix:
    def test_multiplication_against_brute_force(self):
        rng = random.Random(7)
        for p in (2, 3, 5):
            for _ in range(20):
                a = random_matrix(rng, p, 4)
                b = random_matrix(rng, p, 4)
                assert a * b == reference_mul(a, b)

    def test_identity_and_one_off(self):
        e = identity(3, (1, 2, 3))
        m = FqMatrix.one_off(3, (1, 2, 3), 1, 3, 2)
        assert e * m == m and m * e == m
        assert m.entry(1, 3) == 2 and m.entry(1, 1) == 1 and m.entry(2, 3) == 0

    def test_inverse(self):
        rng = random.Random(11)
        for p in (2, 3, 5):
            e = identity(p, (1, 2, 3))
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
        assert rank(identity(2, g)) == 3
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
        assert block(s, (1, 2)) == a
        assert block(s, (3,)) == b
        assert s.entry(1, 3) == 0 and s.entry(3, 1) == 0

    def test_relabel_needs_a_bijection_from_the_ground(self):
        m = FqMatrix.one_off(2, (1, 2), 1, 2, 1)
        for mapping in ({1: 2}, {1: 2, 2: 3, 3: 1}, {1: 3, 2: 3}):
            with pytest.raises(ValueError):
                m.relabel(mapping)

    def test_block_needs_labels_in_the_ground(self):
        with pytest.raises(ValueError):
            block(identity(2, (1, 2)), (1, 3))
        with pytest.raises(ValueError):
            block(identity(2, (1, 2)), (1, 1))

    # the tables are built in the test, so a kernel fault fails it by name
    # rather than erroring the collection of the module
    @pytest.mark.parametrize("build, n, q", [(ut_table, 3, 3), (gl_table, 2, 3)],
                             ids=["ut3q3", "gl2q3"])
    def test_transports_match_the_validating_constructor(self, build, n, q):
        # relabel, dagger, the picked block and inverse build their codes
        # unchecked
        table = build(n, q)
        p, ground = table.p, table.ground
        shift = {i: 2 * n + 1 - i for i in ground}
        pick = pick_move(p, ground, ground[1:])
        for m in table.elements:
            expect = [
                (m.relabel(shift), rows_relabel(m, shift)),
                (m.dagger(), rows_dagger(m)),
                (FqMatrix._from_code(p, tuple(range(1, n)), pick(m.code)),
                 _standard_block(m, ground[1:])),
                (m.inverse(), FqMatrix(p, ground, m.inverse().rows)),
            ]
            for got, want in expect:
                assert got == want and got.ground == want.ground
            assert m.inverse() * m == identity(p, ground)

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
            identity(4, (1, 2))
        with pytest.raises(ValueError):
            identity(9, (1, 2))

    def test_rows_must_match_the_ground(self):
        with pytest.raises(ValueError):
            FqMatrix(2, (1, 2), [[1, 0]])
        with pytest.raises(ValueError):
            FqMatrix(2, (1, 2), [[1, 0], [0]])

    def test_equal_rows_over_two_fields_are_unequal(self):
        rows = [[1, 1], [0, 1]]
        a, b = FqMatrix(2, (1, 2), rows), FqMatrix(3, (1, 2), rows)
        assert a.rows == b.rows and a != b
        assert FqMatrix(2, (2, 3), rows) != a
        assert len({a, b, FqMatrix(2, (2, 3), rows)}) == 3

    def test_ground_must_be_sorted_and_distinct(self):
        with pytest.raises(ValueError):
            FqMatrix(2, (2, 1), [[1, 0], [0, 1]])
        with pytest.raises(ValueError):
            FqMatrix(2, (1, 1), [[1, 0], [0, 1]])

    def test_entries_must_be_ints(self):
        # coercing with int() would read 1.7 as 1, "2" as 2 and True as 1
        for bad in (1.7, "2", True):
            with pytest.raises(ValueError):
                FqMatrix(3, (1, 2), [[1, bad], [0, 1]])
        assert FqMatrix(3, (1, 2), [[4, -1], [0, 1]]).rows == ((1, 2), (0, 1))


class TestCellMove:
    """Cell moves against the decoded rows, on both sides of every switch of
    field width: one bit at p = 2, four bits at p = 3 up to n = 3 and five
    at n = 4, seven at p = 5, n = 4 and six at n = 2, six to eight at p = 7."""

    @pytest.mark.parametrize("p, n, m, w, v", [
        (2, 3, 2, 1, 1), (2, 2, 4, 1, 1), (3, 3, 2, 4, 4), (3, 3, 4, 4, 5),
        (3, 4, 3, 5, 4), (3, 4, 4, 5, 5), (5, 4, 2, 7, 6), (5, 2, 4, 6, 7),
        (7, 1, 4, 6, 8), (7, 4, 2, 8, 7),
    ])
    def test_moves_against_the_decoded_rows(self, p, n, m, w, v):
        # random partial maps of cells, so fields move up and down and some drop
        assert (_width(p, n), _width(p, m)) == (w, v)
        rng = random.Random(1000 * p + 10 * n + m)
        source, target = kernel(p, n), kernel(p, m)
        cells_n = list(itertools.product(range(n), repeat=2))
        cells_m = list(itertools.product(range(m), repeat=2))
        for _ in range(20):
            k = rng.randint(1, min(len(cells_n), len(cells_m)))
            pairs = tuple(zip(rng.sample(cells_n, k), rng.sample(cells_m, k)))
            rows = random_matrix(rng, p, n).rows
            want = [[0] * m for _ in range(m)]
            for (r, c), (s, t) in pairs:
                want[s][t] = rows[r][c]
            got = cell_move(p, n, m, pairs)(source.encode(rows))
            assert target.decode(got) == tuple(map(tuple, want))

    @pytest.mark.parametrize("p, n", [(2, 4), (3, 3), (3, 4), (5, 4), (7, 3)])
    def test_picks_against_the_decoded_rows(self, p, n):
        # labels in any order, from none to all; p = 5 picks 7-bit fields
        # into 6-bit ones at two labels
        rng = random.Random(2000 + 10 * p + n)
        ground = tuple(range(1, n + 1))
        for size in range(n + 1):
            for _ in range(6):
                labels = rng.sample(ground, size)
                a = random_matrix(rng, p, n)
                got = kernel(p, size).decode(pick_move(p, ground, labels)(a.code))
                assert got == tuple(tuple(a.entry(i, j) for j in labels) for i in labels)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_flip_against_the_rows_and_twice_the_identity(self, p):
        rng = random.Random(3000 + p)
        for n in range(6):
            flip = flip_move(p, n)
            for _ in range(6):
                a = random_matrix(rng, p, n)
                assert flip(a.code) == rows_dagger(a).code
                assert flip(flip(a.code)) == a.code

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_relabellings_compose_and_match_the_rows(self, p):
        rng = random.Random(4000 + p)
        ground = (1, 2, 3, 4)
        for _ in range(10):
            tau = dict(zip(ground, rng.sample(ground, 4)))
            sigma = dict(zip(ground, rng.sample(range(1, 9), 4)))
            compose = {i: sigma[tau[i]] for i in ground}
            m = random_matrix(rng, p, 4)
            assert m.relabel(tau) == rows_relabel(m, tau)
            assert m.relabel(tau).relabel(sigma) == m.relabel(compose)
            assert m.relabel(compose) == rows_relabel(m, compose)

def random_invertible(rng, p, n):
    while True:
        m = random_matrix(rng, p, n)
        if is_invertible(m):
            return m


class TestKernel:
    """The packed product against the tuple product, on random matrices."""

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_kernel_against_the_tuple_product(self, p):
        rng = random.Random(p)
        for n in range(6):
            k = kernel(p, n)
            ground = tuple(range(1, n + 1))
            top = FqMatrix(p, ground, [[p - 1] * n] * n)  # largest unreduced sums
            pairs = [(top, top)] + [
                (random_matrix(rng, p, n), random_matrix(rng, p, n)) for _ in range(30)
            ]
            for a, b in pairs:
                assert k.decode(k.encode(a.rows)) == a.rows
                assert k.encode(a.rows) == a.code
                want = reference_mul(a, b)
                assert k.mul(a.code, b.code) == want.code
                assert k.decode(k.mul(a.code, b.code)) == want.rows
                got = a * b
                assert got == want and got.rows == want.rows
                assert got.to_digits() == want.to_digits() and repr(got) == repr(want)

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_inverse_gives_the_identity(self, p):
        rng = random.Random(100 + p)
        for n in range(6):
            ident = identity(p, tuple(range(1, n + 1)))
            assert kernel(p, n).one == ident.code
            for _ in range(10):
                m = random_invertible(rng, p, n)
                assert m * m.inverse() == ident == m.inverse() * m

    def test_empty_matrix(self):
        for p in (2, 3, 13):
            (m,) = gl_table(0, p).elements
            assert m.rows == () and m.code == 0 and m * m == m == m.inverse()
            assert kernel(p, 0).decode(0) == ()

    # (p, n, w) on both sides of the switch: n (p - 1)^2 in 4 bits takes the
    # byte table, a wider sum keeps the field loop
    @pytest.mark.parametrize("p, n, w", [(3, 3, 4), (3, 4, 5)])
    def test_width_boundaries_against_the_field_loop(self, p, n, w):
        # explicit comparisons, so that python -O checks them too
        k = kernel(p, n)
        if k.mask([(0, 0)]) != (1 << w) - 1:
            raise AssertionError("kernel(%d, %d) does not use %d-bit fields" % (p, n, w))
        rng = random.Random(300 + p * n)
        top = FqMatrix(p, tuple(range(1, n + 1)), [[p - 1] * n] * n)
        pairs = [(top, top)] + [
            (random_matrix(rng, p, n), random_matrix(rng, p, n)) for _ in range(10)
        ]
        for a, b in pairs:
            if a.code != pack(a.rows, w):
                raise AssertionError("%r is not packed in %d-bit fields" % (a, w))
            unreduced = [[sum(x * y for x, y in zip(row, col)) for col in zip(*b.rows)]
                         for row in a.rows]
            got = k.mul(a.code, b.code)
            want = reference_mul(a, b).code
            if not got == want == reference_reduce(pack(unreduced, w), p, n, w):
                raise AssertionError("%r * %r gave code %d, not %d" % (a, b, got, want))

    def test_three_by_three_over_f3_keeps_four_bit_fields(self):
        # one hex digit per entry, entry (0, 0) lowest
        m = ((1, 2, 0), (0, 1, 2), (2, 0, 1))
        assert kernel(3, 3).encode(m) == 0x102210021
        assert FqMatrix(3, (1, 2, 3), m).code == 0x102210021

    def test_commas_at_large_primes(self):
        a = FqMatrix(13, (1, 2), [[12, 11], [0, 10]])
        assert (a * a).to_digits() == "1,8,0,9"
        assert (a * a).to_digits() == reference_mul(a, a).to_digits()

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_mask_reads_the_named_entries(self, p):
        rng = random.Random(200 + p)
        for n in range(5):
            mask = kernel(p, n).mask
            cells = list(itertools.product(range(n), repeat=2))
            for _ in range(40):
                # sparse matrices, so that some masked entries all vanish
                m = FqMatrix(p, tuple(range(1, n + 1)), [
                    [rng.randrange(p) if rng.random() < 0.3 else 0 for _ in range(n)]
                    for _ in range(n)
                ])
                named = rng.sample(cells, rng.randrange(len(cells) + 1))
                vanish = all(m.rows[r][c] == 0 for r, c in named)
                assert (m.code & mask(named) == 0) == vanish

    @pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13])
    def test_batches_against_the_single_product(self, p):
        rng = random.Random(400 + p)
        for n in range(6):
            check_batches(rng, p, n)

    # codes wider than one 64-bit word take two words of a batch each
    @pytest.mark.parametrize("p, n, bits", [(3, 4, 80), (2, 9, 81)])
    def test_batches_of_two_word_codes(self, p, n, bits):
        k = kernel(p, n)
        if k.mask(itertools.product(range(n), repeat=2)).bit_length() != bits:
            raise AssertionError("kernel(%d, %d) codes are not %d bits" % (p, n, bits))
        check_batches(random.Random(500 + p * n), p, n)


def check_batches(rng, p, n):
    """left and right against mul and reference_mul on random n x n matrices
    over F_p, the all-(p - 1) matrix (the largest unreduced sums) among
    them, right also on a batch that left returned, and on empty batches;
    explicit comparisons, so that python -O checks them too."""
    k = kernel(p, n)
    top = FqMatrix(p, tuple(range(1, n + 1)), [[p - 1] * n] * n)
    ms = [top] + [random_matrix(rng, p, n) for _ in range(12)]
    codes = [m.code for m in ms]
    for a in ms[:4]:
        got = list(k.left(a.code, codes))
        if not got == [k.mul(a.code, c) for c in codes] == \
                [reference_mul(a, b).code for b in ms]:
            raise AssertionError("left(%r, ...) over F_%d gave %s" % (a, p, got))
        got = list(k.right(codes, a.code))
        if not got == [k.mul(c, a.code) for c in codes] == \
                [reference_mul(b, a).code for b in ms]:
            raise AssertionError("right(..., %r) over F_%d gave %s" % (a, p, got))
        got = list(k.right(k.left(a.code, codes), top.code))
        if got != [k.mul(k.mul(a.code, c), top.code) for c in codes]:
            raise AssertionError("right of a left batch over F_%d gave %s" % (p, got))
        if list(k.left(a.code, [])) or list(k.right([], a.code)):
            raise AssertionError("an empty batch over F_%d is not empty" % p)


def reference_pattern_elements(order, p):
    """The element list pattern_group built before codes: for each value
    vector in product order, the identity rows with the values at the
    strict cells, through the validating constructor."""
    pos = {label: k for k, label in enumerate(order.ground)}
    n = len(order.ground)
    out = []
    for values in itertools.product(range(p), repeat=len(order.strict_pairs)):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        for (i, j), v in zip(order.strict_pairs, values):
            rows[pos[i]][pos[j]] = v
        out.append(FqMatrix(p, order.ground, rows))
    return out


def reference_gl_elements(n, p):
    """The element list gl_table built before codes: each row outside the
    span of the rows before it, through the validating constructor."""
    ground = tuple(range(1, n + 1))
    vectors = list(itertools.product(range(p), repeat=n))
    level = [((), {(0,) * n})]
    for _ in range(n - 1):
        level = [
            (rows + (v,), {
                tuple((x + a * y) % p for x, y in zip(w, v))
                for w in span for a in range(p)
            })
            for rows, span in level for v in vectors if v not in span
        ]
    if not n:
        return [FqMatrix(p, ground, ())]
    return [FqMatrix(p, ground, rows + (v,))
            for rows, span in level for v in vectors if v not in span]


class TestElementBuildersAgainstReference:
    """pattern_group and gl_table build codes directly; the element lists
    equal the row-by-row builders, in order and code for code."""

    @staticmethod
    def check(table, want):
        got = table.elements
        assert [m.code for m in got] == [m.code for m in want]
        assert got == want
        for m in got:
            assert FqMatrix(m.p, m.ground, m.rows) == m

    @pytest.mark.parametrize("q", [2, 3, 5])
    def test_pattern_groups_on_three_labels(self, q):
        for n in range(4):
            for order in all_partial_orders(range(1, n + 1)):
                self.check(pattern_group(order, q), reference_pattern_elements(order, q))

    def test_unitriangular_groups_at_two(self):
        for n in range(6):
            self.check(ut_table(n, 2),
                       reference_pattern_elements(chain_order(range(1, n + 1)), 2))

    @pytest.mark.parametrize("n, p", [(0, 2), (1, 2), (2, 2), (3, 2), (0, 3), (1, 3),
                                      (2, 3), (0, 5), (1, 5), (2, 5), (3, 3), (4, 2),
                                      (2, 7)])
    def test_general_linear_groups(self, n, p):
        self.check(gl_table(n, p), reference_gl_elements(n, p))


def cover_generators(order, p):
    """The elementary matrices at the covering pairs of order, the
    generators that pattern_group is documented to pass."""
    strict = set(order.strict_pairs)
    return [FqMatrix.one_off(p, order.ground, i, j, 1) for i, j in order.strict_pairs
            if not any((i, k) in strict and (k, j) in strict for k in order.ground)]


def search_generators(elements):
    """Reference generating set: starting from none, append the first element
    outside the closure of the generators so far until nothing is outside."""
    ident = identity(elements[0].p, elements[0].ground)
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
        orbit = {table.position(h * g * h.inverse()) for h in table.elements}
        seen |= orbit
        classes.append(frozenset(orbit))
    return set(classes)


def reference_conjugacy(table):
    """Reference (classes, class_of): the orbit search that GroupTable ran
    on first read before its construction pass joined the conjugacy
    classes, here under a searched generating set of the elements."""
    gen_pairs = [(gm, gm.inverse()) for gm in search_generators(table.elements)]
    class_of = [None] * table.order
    classes = []
    for i in range(table.order):
        if class_of[i] is not None:
            continue
        label = len(classes)
        class_of[i] = label
        orbit = [i]
        frontier = [i]
        while frontier:
            new = []
            for j in frontier:
                mj = table.elements[j]
                for gm, gminv in gen_pairs:
                    k = table.position(gm * mj * gminv)
                    if class_of[k] is None:
                        class_of[k] = label
                        orbit.append(k)
                        new.append(k)
            frontier = new
        classes.append(tuple(sorted(orbit)))
    return tuple(classes), tuple(class_of)


def reference_conjugacy_tables():
    for n in range(4):
        for order in all_partial_orders(range(1, n + 1)):
            for q in (2, 3):
                yield pattern_group(order, q)
    yield from (ut_table(n, 2) for n in range(6))
    yield from (ut_table(n, 3) for n in range(4))
    yield from (gl_table(n, 2) for n in range(4))
    yield gl_table(2, 3)
    for i in range(4):
        yield levi_table(3, i, 2)
        yield parabolic_table(3, i, 2)
    for k in range(5):
        for inside in itertools.combinations(range(1, 5), k):
            yield split_tables(4, inside, 2)[1]


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
                assert a * b in g

    def test_conjugacy_against_full_conjugation(self):
        for table in (ut_table(3, 2), ut_table(3, 3), gl_table(2, 2), gl_table(2, 3)):
            greedy = {frozenset(c) for c in table.classes}
            assert greedy == brute_conjugacy(table)

    def test_conjugacy_equals_the_orbit_search(self):
        for table in reference_conjugacy_tables():
            assert (table.classes, table.class_of) == reference_conjugacy(table)

    def test_cover_generators_give_the_all_cell_classes(self):
        # pattern_group passes only the covering cells; they must generate,
        # and the group of every strict cell must come out with the same
        # classes, in the same order
        tables = [pattern_group(order, q)
                  for n in range(4) for order in all_partial_orders(range(1, n + 1))
                  for q in (2, 3)]
        tables += [ut_table(n, 2) for n in range(6)]
        for table in tables:
            gens = [FqMatrix.one_off(table.p, table.ground, i, j, 1)
                    for i, j in table.pattern.strict_pairs]
            full = GroupTable(table.elements, gens, name="all cells")
            covers = GroupTable(table.elements, cover_generators(table.pattern, table.p))
            assert (table.classes, table.class_of) == (full.classes, full.class_of)
            assert (covers.classes, covers.class_of) == (full.classes, full.class_of)
        assert len(cover_generators(ut_table(5, 2).pattern, 2)) == 4

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

    def test_membership_reads_field_and_ground(self):
        # a matrix with the code of an element, over another field or
        # ground, is not an element
        g = ut_table(3, 2)
        ident = g.elements[g.identity_index]
        over_f3 = FqMatrix(3, g.ground, kernel(3, 3).decode(ident.code))
        moved = FqMatrix(2, (2, 3, 4), ident.rows)
        for m in (over_f3, moved):
            assert m.code == ident.code
            assert m not in g and g.position(m) is None
            with pytest.raises(KeyError):
                g.class_of_matrix(m)
        assert ident in g and g.position(ident) == g.identity_index

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
        ident = identity(2, (1, 2))
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
        ident3 = identity(3, (1, 2))
        x3 = FqMatrix.one_off(3, (1, 2), 1, 2, 1)
        with pytest.raises(ValueError):
            GroupTable([ident3, x3], [x3])
        # one list over two fields or two grounds
        with pytest.raises(ValueError):
            GroupTable([ident, ident3], [ident])
        with pytest.raises(ValueError):
            GroupTable([ident, identity(2, (1, 3))], [ident])

    def test_singular_generator_raises(self):
        ident = identity(2, (1, 2))
        zero = FqMatrix(2, (1, 2), [[0, 0], [0, 0]])
        with pytest.raises(ValueError):
            GroupTable([ident, zero], [zero])

    def test_generators_that_do_not_generate_raise(self):
        g = ut_table(3, 2)
        corner = FqMatrix.one_off(2, g.ground, 1, 3, 1)
        with pytest.raises(ValueError):
            GroupTable(g.elements, [])
        with pytest.raises(ValueError):
            GroupTable(g.elements, [corner])
        gens = cover_generators(g.pattern, 2)
        assert GroupTable(g.elements, gens).order == g.order

    def test_generators_generate(self):
        g = gl_table(2, 3)
        gens = _gl_generators(3, g.ground, g.ground)
        span = {g.identity_index}
        frontier = [g.identity_index]
        while frontier:
            nxt = []
            for i in frontier:
                for h in gens:
                    j = g.position(g.elements[i] * h)
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
            li = levi.position(g * rinv)
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
        ident = identity(2, (1, 2, 3))
        x = FqMatrix(2, (1, 2, 3), [[1, 1, 1], [0, 1, 0], [0, 0, 1]])
        fake = GroupTable([ident, x], [x], name="fake")
        radical = strict_pattern_group([(1, 3), (2, 3)], 2)
        assert len(search_factorization(big, fake, radical)) == big.order
        with pytest.raises(ValueError):
            big.factorization(fake, radical)


def built_with_generators(monkeypatch, build, *args):
    """A fresh build.__wrapped__(*args) and the generators it passed to
    GroupTable, seen from group_engine and gl_bridge."""
    passed = []

    class Spy(GroupTable):
        def __init__(self, elements, generators, name=""):
            passed.append(list(generators))
            super().__init__(elements, generators, name)

    with monkeypatch.context() as patch:
        patch.setattr(group_engine, "GroupTable", Spy)
        patch.setattr(gl_bridge, "GroupTable", Spy)
        table = build.__wrapped__(*args)
    return table, passed[-1]


def nuio_patterns(n):
    return [from_strict(range(1, n + 1), pi.strict)
            for pi in natural_unit_interval_orders(n)]


class TestTablesFromCodes:
    """pattern_group takes each cell's unit code from the kernel's mask and
    GroupTable reads each generator's inverse from its left products; both
    against the paths they replaced, FqMatrix.one_off and FqMatrix.inverse."""

    @pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3, 5) for n in range(5)])
    def test_nuio_pattern_tables_against_one_off(self, monkeypatch, n, q):
        for order in nuio_patterns(n):
            table, gens = built_with_generators(monkeypatch, pattern_group, order, q)
            want_gens = cover_generators(order, q)
            assert [g.code for g in gens] == [g.code for g in want_gens]
            assert gens == want_gens
            want = GroupTable(reference_pattern_elements(order, q), want_gens)
            assert table.elements == want.elements
            assert [m.code for m in table.elements] == [m.code for m in want.elements]
            assert table.classes == want.classes
            assert table.class_of == want.class_of

    @pytest.mark.parametrize("build, args", [
        (pattern_group, (chain_order((1, 2, 3)), 3)),
        (pattern_group, (chain_order((1, 2, 3, 4)), 2)),
        (pattern_group, (from_strict((1, 2, 3, 4), [(1, 3), (1, 4), (2, 4)]), 5)),
        (gl_table, (2, 3)),
        (gl_table, (3, 2)),
    ], ids=["ut3q3", "ut4q2", "nuio4q5", "gl2q3", "gl3q2"])
    def test_generator_inverses_read_from_the_left_products(self, monkeypatch, build,
                                                            args):
        # the conjugation pass multiplies on the right by each inverse
        table, gens = built_with_generators(monkeypatch, build, *args)
        k = kernel(table.p, len(table.ground))
        used = []

        def right(codes, b):
            used.append(b)
            return k.right(codes, b)

        with monkeypatch.context() as patch:
            patch.setattr(group_engine, "kernel", lambda p, n: k._replace(right=right))
            again = GroupTable(table.elements, gens)
        assert used == [g.inverse().code for g in gens]
        assert len(gens) >= 2
        assert (again.classes, again.class_of) == (table.classes, table.class_of)

    @pytest.mark.parametrize("p, rows", [(2, [[0, 0], [0, 0]]), (3, [[0, 0], [0, 0]]),
                                         (3, [[1, 0], [0, 0]])],
                             ids=["zero-f2", "zero-f3", "idempotent-f3"])
    def test_generator_without_an_inverse_raises(self, p, rows):
        # g * {1, g} = {g}: closed, but no left product is the identity
        ident, g = identity(p, (1, 2)), FqMatrix(p, (1, 2), rows)
        with pytest.raises(ValueError, match="no inverse"):
            GroupTable([ident, g], [g])


def assert_equals_the_matrix_table(table, gens):
    """table, built from codes, against GroupTable of its matrices and gens."""
    assert table._elements is None  # no matrix is built before this read
    want = GroupTable(table.elements, gens)
    ident = identity(table.p, table.ground)
    assert table.codes == want.codes == [m.code for m in want.elements]
    assert all((m.p, m.ground) == (table.p, table.ground) for m in table.elements)
    assert table.index == want.index
    assert table.identity_index == want.identity_index == want.position(ident)
    assert table.classes == want.classes
    assert table.class_of == want.class_of


def block_cells(n, i, parabolic):
    """The cells off the two diagonal blocks of sizes i and n - i, or for a
    parabolic only those below them."""
    return [(r, c) for r in range(1, n + 1) for c in range(1, n + 1)
            if (r <= i) != (c <= i) and (r > i or not parabolic)]


class TestCodesAgainstMatrices:
    """Every table the library builds from Codes equals the table built from
    its matrices; the containment filters of levi_table and parabolic_table
    against entries read one by one."""

    @pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3) for n in range(4)]
                             + [(n, q) for q in (5, 7) for n in (1, 2)])
    def test_gl_tables(self, monkeypatch, n, q):
        table, gens = built_with_generators(monkeypatch, gl_table, n, q)
        assert_equals_the_matrix_table(table, gens)

    @pytest.mark.parametrize("build, parabolic", [(levi_table, False),
                                                  (parabolic_table, True)],
                             ids=["levi", "parabolic"])
    @pytest.mark.parametrize("n, i, q", [(n, i, q) for q in (2, 3) for n in (2, 3)
                                         for i in range(1, n)])
    def test_split_tables(self, monkeypatch, build, parabolic, n, i, q):
        table, gens = built_with_generators(monkeypatch, build, n, i, q)
        assert_equals_the_matrix_table(table, gens)
        cells = block_cells(n, i, parabolic)
        assert table.elements == [m for m in gl_table(n, q).elements
                                  if not any(m.entry(r, c) for r, c in cells)]

    @pytest.mark.parametrize("n, q", [(n, q) for q in (2, 3) for n in range(5)])
    def test_nuio_pattern_tables(self, monkeypatch, n, q):
        for order in nuio_patterns(n):
            table, gens = built_with_generators(monkeypatch, pattern_group, order, q)
            assert_equals_the_matrix_table(table, gens)

    def test_gl_table_builds_no_matrix_per_element(self, monkeypatch):
        made = []
        from_code = FqMatrix._from_code.__func__

        def spy(cls, p, ground, code):
            made.append(code)
            return from_code(cls, p, ground, code)

        monkeypatch.setattr(FqMatrix, "_from_code", classmethod(spy))
        table = gl_table.__wrapped__(3, 3)
        assert len(table.classes) == 24 and table.order == 11232
        # the one scaled cycle among the generators, and no element
        assert len(made) == 1 and table._elements is None

    def test_one_by_one_tables_hold_no_square_of_p(self):
        # a table of sums or multiples at n = 1 would hold p^2 = 1,018,081 entries
        gl_table(1, 5)  # the modules' one-off caches are filled first
        tracemalloc.start()
        try:
            table = gl_table.__wrapped__(1, 1009)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.order == 1008
        assert peak < 1 << 20, peak

    @pytest.mark.parametrize("p, ground, codes, gens, match", [
        (2, (1, 2), [9, 11, 11], [(2, (1, 2), 11)], "repeated elements"),
        (2, (1, 2), [11], [(2, (1, 2), 11)], "identity missing"),
        (3, (1,), [1, 2], [(5, (1,), 2)], "not in its element list"),
        (2, (1, 2), [9, 11], [(2, (1, 3), 11)], "not in its element list"),
    ], ids=["repeated", "identity-missing", "generator-over-f5", "generator-on-1-3"])
    def test_bad_code_lists_raise_as_matrix_lists_do(self, p, ground, codes, gens,
                                                     match):
        # over F_2 on (1, 2) the identity has code 9 and I + e12 code 11; a
        # generator's code is in the list, but over another field or ground
        gens = [FqMatrix._from_code(*g) for g in gens]
        with pytest.raises(ValueError, match=match) as from_codes:
            GroupTable(Codes(p, ground, codes), gens)
        with pytest.raises(ValueError) as from_matrices:
            GroupTable([FqMatrix._from_code(p, ground, c) for c in codes], gens)
        assert str(from_codes.value) == str(from_matrices.value)


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
        (1, 5), (2, 5), (1, 7), (2, 7),
    ])
    def test_row_built_elements_equal_the_scan(self, n, q):
        assert gl_table(n, q).elements == scan_gl_elements(n, q)

    def test_primitive_root(self):
        for p in (2, 3, 5, 7, 11, 13):
            r = primitive_root(p)
            powers = {pow(r, k, p) for k in range(1, p)}
            assert powers == set(range(1, p))

    def test_primitive_root_refuses_composites(self):
        # fewer than p - 1 units, though those mod 4 and 9 form cyclic groups
        for p in (4, 8, 9):
            with pytest.raises(ValueError):
                primitive_root(p)


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

    def test_pattern_group_refused_at_once(self, monkeypatch):
        # 10007^C(300, 2) has about 596,000 bits; the refusal shows the
        # lower bound 2^(13 C(300, 2)), read off the cell count alone
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        with pytest.raises(BudgetError, match=r"needs at least 2\^%d " % (
                13 * math.comb(300, 2))):
            pattern_group.__wrapped__(chain_order(range(1, 301)), 10007)

    def test_prime_check_respects_budget(self, monkeypatch):
        # trial division of 10^18 + 3, a prime, would run to 10^9 divisors
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        with pytest.raises(BudgetError):
            _check_prime(10 ** 18 + 3)
        with pytest.raises(BudgetError):
            identity(10 ** 18 + 3, (1,))
        monkeypatch.setenv("UTHOPF_BUDGET", "4")
        _check_prime.__wrapped__(23)
        with pytest.raises(BudgetError):
            _check_prime.__wrapped__(29)

    def test_gl_table_respects_budget(self, monkeypatch):
        monkeypatch.setenv("UTHOPF_BUDGET", "100")
        with pytest.raises(BudgetError):
            gl_table.__wrapped__(3, 2)

    @pytest.mark.parametrize("refuse,size,degrees", [
        (natural_unit_interval_orders,
         lambda n: math.comb(2 * n, n) // (n + 1), range(505, 540)),
        (lambda n: gl_table.__wrapped__(n, 3), lambda n: gl_order(n, 3), range(20, 40)),
        (lambda n: next(product_oracle_cases(n, 5)), lambda n: 5 ** math.comb(n, 2),
         range(20, 40)),
        (lambda n: next(axiom_cases(n, 2)),
         lambda n: math.factorial(n) ** 2 * _fubini(n), range(60, 140)),
        (lambda n: pattern_group.__wrapped__(chain_order(range(1, n + 1)), 10007),
         lambda n: 10007 ** math.comb(n, 2), range(8, 30)),
    ], ids=["catalan", "gl", "ut-oracle", "axiom-squares", "pattern"])
    def test_refusal_shows_the_size_or_a_lower_bound(self, monkeypatch, refuse,
                                                     size, degrees):
        # below 2^1024 the exact size; from there on 2^k with 2^k <= size,
        # read either off the size or, past the crossing, off a bound alone
        monkeypatch.setenv("UTHOPF_BUDGET", "25000")
        exact_shown = set()
        for n in degrees:
            with pytest.raises(BudgetError) as err:
                refuse(n)
            exact = size(n)
            if exact < 2 ** 1024:
                assert " needs %d elements" % exact in str(err.value)
            else:
                k = int(re.search(r" needs at least 2\^(\d+) ", str(err.value))[1])
                assert 2 ** 1024 <= 2 ** k <= exact
            exact_shown.add(exact < 2 ** 1024)
        assert exact_shown == {True, False}
