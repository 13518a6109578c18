"""Brute-force matrix groups over prime fields.

Groups are explicit sorted lists of immutable matrices, each built from
given generators that are checked to generate it.  Products (never cached)
and conjugacy classes are found by lookup in that list.  Matrices carry a
sorted ground set of row/column labels, so a matrix on ground (2, 4) is 2x2
with label pairs drawn from {2, 4}.

The library does not read GroupTable.factorization: inflation reads the
coset class counts of class_functions._deflation.  It is a reference for
the tests, and perfbench/tracer.py wraps it by name.

Enumeration order is always lexicographic on the row-major entry vector,
and the enumeration budget (combinatorics.enumeration_budget) is enforced
before any element is built.
"""

from __future__ import annotations

import functools
import itertools
import math

from .combinatorics import BudgetError, PartialOrder, _check_budget, \
    chain_order, enumeration_budget


@functools.lru_cache(maxsize=None)
def _check_prime(p):
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


@functools.lru_cache(maxsize=None)
def _positions(ground):
    return {label: k for k, label in enumerate(ground)}


class FqMatrix:
    """Immutable matrix over a prime field, rows and columns labelled."""

    __slots__ = ("p", "ground", "rows", "_hash")

    def __init__(self, p, ground, rows):
        _check_prime(p)
        ground = tuple(ground)
        rows = tuple(tuple(int(e) % p for e in row) for row in rows)
        n = len(ground)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("rows must form a %dx%d matrix" % (n, n))
        if ground != tuple(sorted(set(ground))):
            raise ValueError("ground must be sorted")
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
        if self.p != other.p or self.ground != other.ground:
            raise ValueError("factors over different fields or grounds")
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
        """Row-major entries: digits for p < 11, comma-separated for p >= 11."""
        sep = "," if self.p >= 11 else ""
        return sep.join(str(e) for row in self.rows for e in row)

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

    def inverse(self):
        n = len(self.rows)
        aug = [
            list(row) + [int(r == c) for c in range(n)]
            for r, row in enumerate(self.rows)
        ]
        rank, aug = self._echelon(aug)
        if rank != n:
            raise ValueError("matrix is singular")
        return FqMatrix(self.p, self.ground, tuple(
            tuple(row[n:]) for row in aug
        ))

    def relabel(self, mapping):
        """Push forward along a bijection of labels: entry (i, j) moves to
        (mapping[i], mapping[j])."""
        new_ground = tuple(sorted(set(mapping.values())))
        if set(mapping) != set(self.ground) or len(new_ground) != len(self.ground):
            raise ValueError("relabelling must be a bijection from the ground")
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
        if not set(labels) <= set(self.ground):
            raise ValueError("block labels must lie in the ground")
        pos = _positions(self.ground)
        rows = tuple(
            tuple(self.rows[pos[i]][pos[j]] for j in labels) for i in labels
        )
        return FqMatrix(self.p, labels, rows)


class GroupTable:
    """A finite matrix group held as an explicit element list.

    The element list order is preserved as given; constructors in this
    module always supply lexicographic row-major order.  The generators are
    given and checked to generate the whole list; there is no product cache.
    Conjugacy data is computed on demand by orbit search under them.
    """

    def __init__(self, elements, generators, name=""):
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("a group needs at least the identity")
        self.index = {m: i for i, m in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("repeated elements")
        self.order = len(self.elements)
        self.p = self.elements[0].p
        self.ground = self.elements[0].ground
        self.name = name or "group/%d/%d" % (self.p, self.order)
        ident = FqMatrix.identity(self.p, self.ground)
        if ident not in self.index:
            raise ValueError("identity missing")
        self.identity_index = self.index[ident]
        self._classes = None
        self._factorizations = {}
        try:
            gens = [self.index[g] for g in generators]
        except KeyError:
            raise ValueError("a generator of %s is not in its element list"
                             % self.name) from None
        self._generators = self._ensure_generating(gens)

    def __repr__(self):
        return "GroupTable(%s, order=%d)" % (self.name, self.order)

    def __contains__(self, matrix):
        return matrix in self.index

    def _ensure_generating(self, gens):
        """Return gens after one closure under right products by them;
        raises ValueError unless the closure stays in the table and is all
        of it."""
        seen = {self.identity_index}
        frontier = [self.identity_index]
        while frontier:
            new = []
            for i in frontier:
                for g in gens:
                    j = self.index.get(self.elements[i] * self.elements[g])
                    if j is None:
                        raise ValueError("%s is not closed under products"
                                         % self.name)
                    if j not in seen:
                        seen.add(j)
                        new.append(j)
            frontier = new
        if len(seen) < self.order:
            raise ValueError("the generators of %s reach %d of its %d elements"
                             % (self.name, len(seen), self.order))
        return gens

    def generators(self):
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
            rj = radical.index.get(l.inverse() * g)
            if rj is None:
                raise ValueError("%r does not factor through levi" % (g,))
            out.append((li, rj))
        self._factorizations[key] = out
        return out


@functools.lru_cache(maxsize=None)
def pattern_group(order, p):
    """All matrices with unit diagonal supported on the strict cells.

    The order must be a PartialOrder; transitivity of its relation is what
    makes the matrix set a group.
    """
    _check_prime(p)
    if not isinstance(order, PartialOrder):
        raise TypeError("a pattern group needs a PartialOrder, got %r" % (order,))
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
    """The full general linear group on {1, ..., n}, built row by row.

    Each row is a vector outside the span of the rows before it.  Prefixes
    grow one level at a time through the candidates in lexicographic order,
    so the elements come out in lexicographic row-major order.  A prefix
    keeps its span only while more rows remain: the last row completes each
    matrix directly.  For n = 0 the group is the one empty matrix.
    """
    _check_prime(p)
    _check_budget(gl_order(n, p), f"general linear group of degree {n}")
    ground = tuple(range(1, n + 1))
    vectors = list(itertools.product(range(p), repeat=n))
    level = [((), {(0,) * n})]
    for k in range(n - 1):
        level = [
            (rows + (v,), {
                tuple((x + a * y) % p for x, y in zip(w, v))
                for w in span for a in range(p)
            })
            for rows, span in level for v in vectors if v not in span
        ]
    elements = [
        FqMatrix(p, ground, rows + (v,))
        for rows, span in level for v in vectors if v not in span
    ] if n else [FqMatrix(p, ground, ())]
    return GroupTable(elements, generators=_gl_generators(p, ground, ground),
                      name="GL%dq%d" % (n, p))


def _gl_generators(p, ground, block):
    """Generators of the invertible matrices on the labels of block, a
    tuple, embedded into the identity on ground: the transvection at the
    first two labels, the matrix of the cycle through block in order, and
    for p > 2 the primitive root scaling the first label (the identity
    when block is empty)."""
    gens = []
    if len(block) >= 2:
        gens.append(FqMatrix.one_off(p, ground, block[0], block[1], 1))
        cycle = dict(zip(ground, ground))
        cycle.update(zip(block, block[1:] + block[:1]))
        gens.append(permutation_matrix(cycle, p, ground))
    if p > 2:
        gens.append(FqMatrix.one_off(
            p, ground, block[0], block[0], primitive_root(p) - 1
        ) if block else FqMatrix.identity(p, ground))
    return gens


def permutation_matrix(perm, p, ground):
    """Matrix acting as the relabelling by perm under conjugation."""
    ground = tuple(ground)
    if set(perm) != set(ground) or set(perm.values()) != set(ground):
        raise ValueError("perm must be a permutation of the ground")
    pos = _positions(ground)
    n = len(ground)
    rows = [[0] * n for _ in range(n)]
    for i in ground:
        rows[pos[perm[i]]][pos[i]] = 1
    return FqMatrix(p, ground, rows)
