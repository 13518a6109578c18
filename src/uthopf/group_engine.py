"""Brute-force matrix groups over prime fields.

Groups are explicit sorted lists of immutable matrices; products, inverses
and conjugacy classes are found by lookup in that list, and each Levi factor
of a Levi-radical factorization is read off its element before the lookup.
Matrices carry a sorted ground set of row/column labels, so a matrix on
ground (2, 4) is 2x2 with label pairs drawn from {2, 4}.

Enumeration order is always lexicographic on the row-major entry vector,
and the enumeration budget (combinatorics.enumeration_budget) is enforced
before any scan starts.
"""

from __future__ import annotations

import functools
import itertools

from .combinatorics import BudgetError, PartialOrder, _check_budget, \
    chain_order, enumeration_budget

PRODUCT_CACHE_CAP = 4096


@functools.lru_cache(maxsize=None)
def _assert_prime(p):
    assert p >= 2 and all(p % d for d in range(2, p)), f"{p} is not prime"


@functools.lru_cache(maxsize=None)
def _positions(ground):
    return {label: k for k, label in enumerate(ground)}


class FqMatrix:
    """Immutable matrix over a prime field, rows and columns labelled."""

    __slots__ = ("p", "ground", "rows", "_hash")

    def __init__(self, p, ground, rows):
        _assert_prime(p)
        ground = tuple(ground)
        rows = tuple(tuple(int(e) % p for e in row) for row in rows)
        n = len(ground)
        assert len(rows) == n and all(len(r) == n for r in rows)
        assert ground == tuple(sorted(set(ground))), "ground must be sorted"
        self.p = p
        self.ground = ground
        self.rows = rows
        self._hash = hash((p, ground, rows))

    @classmethod
    def identity(cls, p, ground):
        n = len(tuple(ground))
        return cls(p, ground, tuple(
            tuple(int(r == c) for c in range(n)) for r in range(n)
        ))

    @classmethod
    def one_off(cls, p, ground, i, j, value):
        """Identity plus value in the labelled cell (i, j)."""
        pos = _positions(tuple(ground))
        rows = [[int(r == c) for c in range(len(pos))] for r in range(len(pos))]
        rows[pos[i]][pos[j]] = (rows[pos[i]][pos[j]] + value) % p
        return cls(p, tuple(ground), rows)

    def entry(self, i, j):
        pos = _positions(self.ground)
        return self.rows[pos[i]][pos[j]]

    def __mul__(self, other):
        assert self.p == other.p and self.ground == other.ground
        p = self.p
        cols = tuple(zip(*other.rows))
        rows = tuple(
            tuple(sum(a * b for a, b in zip(row, col)) % p for col in cols)
            for row in self.rows
        )
        return FqMatrix(p, self.ground, rows)

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.p == other.p
            and self.ground == other.ground
            and self.rows == other.rows
        )

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "FqMatrix(p=%d, ground=%s, %s)" % (
            self.p, self.ground, self.to_digits()
        )

    def to_digits(self):
        return "".join(str(e) for row in self.rows for e in row)

    @classmethod
    def from_digits(cls, digits, p, ground):
        n = len(tuple(ground))
        assert len(digits) == n * n
        vals = [int(ch) for ch in digits]
        assert all(v < p for v in vals), "digit out of range for the field"
        rows = [vals[r * n:(r + 1) * n] for r in range(n)]
        return cls(p, tuple(ground), rows)

    def _echelon(self, augmented):
        """Row reduce; returns (rank, reduced rows).  Destroys its argument."""
        p = self.p
        n = len(self.rows)
        rank = 0
        for col in range(n):
            piv = next(
                (r for r in range(rank, n) if augmented[r][col]), None
            )
            if piv is None:
                continue
            augmented[rank], augmented[piv] = augmented[piv], augmented[rank]
            inv = pow(augmented[rank][col], p - 2, p)
            augmented[rank] = [x * inv % p for x in augmented[rank]]
            for r in range(n):
                if r != rank and augmented[r][col]:
                    f = augmented[r][col]
                    augmented[r] = [
                        (x - f * y) % p
                        for x, y in zip(augmented[r], augmented[rank])
                    ]
            rank += 1
        return rank, augmented

    def rank(self):
        rank, _ = self._echelon([list(row) for row in self.rows])
        return rank

    def is_invertible(self):
        return self.rank() == len(self.rows)

    def inverse(self):
        n = len(self.rows)
        aug = [
            list(row) + [int(r == c) for c in range(n)]
            for r, row in enumerate(self.rows)
        ]
        rank, aug = self._echelon(aug)
        assert rank == n, "matrix is singular"
        return FqMatrix(self.p, self.ground, tuple(
            tuple(row[n:]) for row in aug
        ))

    def transpose(self):
        return FqMatrix(self.p, self.ground, tuple(zip(*self.rows)))

    def relabel(self, mapping):
        """Push forward along a bijection of labels: entry (i, j) moves to
        (mapping[i], mapping[j])."""
        assert set(mapping) == set(self.ground)
        new_ground = tuple(sorted(mapping.values()))
        assert len(new_ground) == len(self.ground), "relabelling must be injective"
        pos_old = _positions(self.ground)
        pos_new = _positions(new_ground)
        n = len(new_ground)
        out = [[0] * n for _ in range(n)]
        for i in self.ground:
            for j in self.ground:
                out[pos_new[mapping[i]]][pos_new[mapping[j]]] = (
                    self.rows[pos_old[i]][pos_old[j]]
                )
        return FqMatrix(self.p, new_ground, out)

    def dagger(self):
        """Transpose composed with the order-reversing relabelling of the ground."""
        n = len(self.ground)
        rows = tuple(
            tuple(self.rows[n - 1 - c][n - 1 - r] for c in range(n))
            for r in range(n)
        )
        return FqMatrix(self.p, self.ground, rows)

    def block(self, labels):
        """Square submatrix on the given labels, keeping those labels."""
        labels = tuple(sorted(labels))
        assert set(labels) <= set(self.ground)
        pos = _positions(self.ground)
        rows = tuple(
            tuple(self.rows[pos[i]][pos[j]] for j in labels) for i in labels
        )
        return FqMatrix(self.p, labels, rows)

    def direct_sum(self, other):
        """Block diagonal join on the disjoint union of the grounds."""
        assert self.p == other.p
        assert not set(self.ground) & set(other.ground)
        ground = tuple(sorted(self.ground + other.ground))
        pos = _positions(ground)
        n = len(ground)
        out = [[0] * n for _ in range(n)]
        for m in (self, other):
            mpos = _positions(m.ground)
            for i in m.ground:
                for j in m.ground:
                    out[pos[i]][pos[j]] = m.rows[mpos[i]][mpos[j]]
        return FqMatrix(self.p, ground, out)


class GroupTable:
    """A finite matrix group held as an explicit element list.

    The element list order is preserved as given; constructors in this
    module always supply lexicographic row-major order.  Conjugacy data is
    computed on demand by orbit search under a verified generating set, and
    the product table is memoized only up to PRODUCT_CACHE_CAP elements.
    """

    def __init__(self, elements, generators=None, name=""):
        self.elements = list(elements)
        assert self.elements, "a group needs at least the identity"
        self.index = {m: i for i, m in enumerate(self.elements)}
        assert len(self.index) == len(self.elements), "repeated elements"
        self.order = len(self.elements)
        self.p = self.elements[0].p
        self.ground = self.elements[0].ground
        self.name = name or "group/%d/%d" % (self.p, self.order)
        ident = FqMatrix.identity(self.p, self.ground)
        assert ident in self.index, "identity missing"
        self.identity_index = self.index[ident]
        self._inverses = [None] * self.order
        self._product_cache = {} if self.order <= PRODUCT_CACHE_CAP else None
        self._generators = None
        self._classes = None
        self._factorizations = {}
        if generators is not None:
            gens = [self.index[g] for g in generators]
            self._generators = self._ensure_generating(gens)

    def __repr__(self):
        return "GroupTable(%s, order=%d)" % (self.name, self.order)

    def __contains__(self, matrix):
        return matrix in self.index

    def mult(self, i, j):
        cache = self._product_cache
        if cache is not None:
            got = cache.get((i, j))
            if got is not None:
                return got
        k = self.index[self.elements[i] * self.elements[j]]
        if cache is not None:
            cache[(i, j)] = k
        return k

    def inverse(self, i):
        got = self._inverses[i]
        if got is None:
            got = self.index[self.elements[i].inverse()]
            self._inverses[i] = got
        return got

    def _closure(self, gens):
        seen = {self.identity_index}
        frontier = [self.identity_index]
        while frontier:
            new = []
            for i in frontier:
                for g in gens:
                    j = self.mult(i, g)
                    if j not in seen:
                        seen.add(j)
                        new.append(j)
            frontier = new
        return seen

    def _ensure_generating(self, gens):
        """Extend gens until they generate the whole table."""
        gens = list(gens)
        seen = self._closure(gens)
        while len(seen) < self.order:
            missing = min(i for i in range(self.order) if i not in seen)
            gens.append(missing)
            seen = self._closure(gens)
        return gens

    def generators(self):
        if self._generators is None:
            self._generators = self._ensure_generating([])
        return self._generators

    def _conjugacy(self):
        if self._classes is not None:
            return self._classes
        gen_pairs = []
        for g in self.generators():
            gm = self.elements[g]
            gen_pairs.append((gm, gm.inverse()))
        class_of = [None] * self.order
        classes = []
        for i in range(self.order):
            if class_of[i] is not None:
                continue
            label = len(classes)
            class_of[i] = label
            orbit = [i]
            frontier = [i]
            while frontier:
                new = []
                for j in frontier:
                    mj = self.elements[j]
                    for gm, gminv in gen_pairs:
                        k = self.index[gm * mj * gminv]
                        if class_of[k] is None:
                            class_of[k] = label
                            orbit.append(k)
                            new.append(k)
                frontier = new
            classes.append(tuple(sorted(orbit)))
        self._classes = (tuple(classes), tuple(class_of))
        return self._classes

    @property
    def classes(self):
        return self._conjugacy()[0]

    @property
    def class_of(self):
        return self._conjugacy()[1]

    @property
    def class_reps(self):
        return tuple(c[0] for c in self.classes)

    @property
    def class_sizes(self):
        return tuple(len(c) for c in self.classes)

    def class_of_matrix(self, m):
        return self.class_of[self.index[m]]

    def subtable(self, predicate, name=""):
        """Subgroup table of all elements satisfying the predicate, in order."""
        kept = [m for m in self.elements if predicate(m)]
        return GroupTable(kept, name=name)

    def factorization(self, levi, radical):
        """For each element g return (i, j) with g = levi[i] * radical[j].

        The Levi factor l is g with the cells outside the support of levi
        zeroed, its block diagonal part (Diaconis-Isaacs); l is looked up in
        levi and l^-1 * g in radical.  Raises ValueError unless the orders
        multiply, levi and radical meet only in the identity (so the
        factorization is unique) and both lookups succeed for every g.
        """
        key = (levi.name, radical.name)
        got = self._factorizations.get(key)
        if got is not None:
            return got
        if levi.order * radical.order != self.order:
            raise ValueError("levi and radical orders must multiply to %d" % self.order)
        overlap = sum(1 for m in radical.elements if m in levi.index)
        if overlap != 1:
            raise ValueError("levi and radical must meet only in the identity")
        n = len(self.ground)
        support = [
            [any(m.rows[r][c] for m in levi.elements) for c in range(n)]
            for r in range(n)
        ]
        out = []
        for g in self.elements:
            l = FqMatrix(self.p, self.ground, [
                [e if keep else 0 for e, keep in zip(row, mask)]
                for row, mask in zip(g.rows, support)
            ])
            li = levi.index.get(l)
            if li is None:
                raise ValueError("levi part of %r is not in levi" % (g,))
            rj = radical.index.get(levi.elements[levi.inverse(li)] * g)
            if rj is None:
                raise ValueError("%r does not factor through levi" % (g,))
            out.append((li, rj))
        self._factorizations[key] = out
        return out

    def to_dict(self):
        return {
            "name": self.name,
            "order": self.order,
            "generators": [self.elements[g].to_digits() for g in self.generators()],
            "class_sizes": list(self.class_sizes),
            "class_reps": [self.elements[r].to_digits() for r in self.class_reps],
        }


@functools.lru_cache(maxsize=None)
def pattern_group(order, p):
    """All matrices with unit diagonal supported on the strict cells.

    The order must be a PartialOrder; transitivity of its relation is what
    makes the matrix set a group.
    """
    _assert_prime(p)
    assert isinstance(order, PartialOrder)
    ground = order.ground
    cells = list(order.strict_pairs)
    _check_budget(p ** len(cells), f"pattern group on {len(cells)} cells")
    elements = []
    pos = _positions(ground)
    n = len(ground)
    for values in itertools.product(range(p), repeat=len(cells)):
        rows = [[int(r == c) for c in range(n)] for r in range(n)]
        for (i, j), v in zip(cells, values):
            rows[pos[i]][pos[j]] = v
        elements.append(FqMatrix(p, ground, rows))
    gens = [FqMatrix.one_off(p, ground, i, j, 1) for i, j in cells]
    name = "UT[%s|%s]q%d" % (
        ",".join(map(str, ground)),
        ";".join("%d<%d" % c for c in cells),
        p,
    )
    table = GroupTable(elements, generators=gens, name=name)
    table.pattern = order
    return table


@functools.lru_cache(maxsize=None)
def ut_table(n, p):
    """The full unitriangular group on {1, ..., n}."""
    return pattern_group(chain_order(range(1, n + 1)), p)


def gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def primitive_root(p):
    for r in range(2, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * r % p
            seen.add(x)
        if len(seen) == p - 1:
            return r
    assert p == 2
    return 1


@functools.lru_cache(maxsize=None)
def gl_table(n, p):
    """The full general linear group on {1, ..., n}, by scanning all matrices."""
    _assert_prime(p)
    _check_budget(gl_order(n, p), f"general linear group of degree {n}")
    ground = tuple(range(1, n + 1))
    elements = []
    for entries in itertools.product(range(p), repeat=n * n):
        rows = tuple(entries[r * n:(r + 1) * n] for r in range(n))
        m = FqMatrix(p, ground, rows)
        if m.is_invertible():
            elements.append(m)
    gens = []
    if n >= 2:
        gens.append(FqMatrix.one_off(p, ground, 1, 2, 1))
        cycle = {k: (k % n) + 1 for k in ground}
        gens.append(permutation_matrix(cycle, p, ground))
    if p > 2:
        r = primitive_root(p)
        scalar = [[0] * n for _ in range(n)]
        for k in range(n):
            scalar[k][k] = r if k == 0 else 1
        gens.append(FqMatrix(p, ground, scalar))
    return GroupTable(elements, generators=gens, name="GL%dq%d" % (n, p))


def permutation_matrix(perm, p, ground):
    """Matrix acting as the relabelling by perm under conjugation."""
    ground = tuple(ground)
    assert set(perm) == set(ground)
    pos = _positions(ground)
    n = len(ground)
    rows = [[0] * n for _ in range(n)]
    for i in ground:
        rows[pos[perm[i]]][pos[i]] = 1
    return FqMatrix(p, ground, rows)


def coset_rep_permutation(n, labels):
    """The permutation pushing 1..k onto sorted(labels), k+1..n onto the rest.

    >>> coset_rep_permutation(4, (2, 4))
    {1: 2, 2: 4, 3: 1, 4: 3}
    """
    labels = sorted(labels)
    rest = sorted(set(range(1, n + 1)) - set(labels))
    seq = labels + rest
    return {k: seq[k - 1] for k in range(1, n + 1)}
