"""Brute-force matrix groups over prime fields.

Groups are explicit sorted lists of immutable matrices with given
generators.  A matrix is its packed code, the entries of an n x n matrix
over F_p in one int, decoded on read by the kernel of (p, n), which also
multiplies codes.  Every product is a batched one, one matrix times many
codes packed into one int; a single product is a batch of one.  At odd p
a batch reduces its fields mod p with one byte-table translate when the
unreduced sum fits in 4 bits (F_3 up to n = 3), and field by field when
it does not.  Tables build the codes of their elements directly and are
indexed by them.  At construction each generator takes two batched
products over the whole table, its left products and its conjugates,
read back as element indices (products are never cached): a walk from
the identity along the left products proves that the generators generate
the list, and the orbits of the conjugation lists, walked on first read,
are its conjugacy classes.  Matrices carry a sorted ground set of
row/column labels, so a matrix on ground (2, 4) is 2x2 with label pairs
drawn from {2, 4}; a code names a matrix only together with its field
and ground.

The library does not read GroupTable.factorization: inflation reads the
coset class counts of class_functions._deflation.  It is a reference for
the tests, and perfbench/tracer.py wraps it by name.

Enumeration order is always lexicographic on the row-major entry vector,
and the enumeration budget (combinatorics.enumeration_budget) is enforced
before any element is built.
"""

from __future__ import annotations

import array
import collections
import functools
import itertools
import math
import sys

from .combinatorics import PartialOrder, _check_budget, chain_order


@functools.lru_cache(maxsize=None)
def _check_prime(p):
    _check_budget(math.isqrt(max(p, 0)),
                  "trial division of a %d-bit number" % p.bit_length())
    if p < 2 or any(p % d == 0 for d in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"{p} is not prime")


@functools.lru_cache(maxsize=None)
def _positions(ground):
    return {label: k for k, label in enumerate(ground)}


Kernel = collections.namedtuple("Kernel", "encode decode mul mask left right")


@functools.lru_cache(maxsize=None)
def kernel(p, n):
    """Products of n x n matrices over F_p packed into ints.

    Entry (r, c) sits in a field of w bits at bit (r n + c) w, row-major.
    With rows B_k of b and columns A_k of a (entry A[r][k] at bit r n w), the
    product is the sum over k of A_k * B_k: each term places copies of row
    k of b, scaled by A[r][k], at the rows r.  At p = 2, w = 1 and the sum is
    an XOR, the rows of b selected by the bits of a (M4RI; Albrecht, Bard
    and Hart, ACM TOMS 2010).  At odd p, w holds n (p - 1)^2, the largest
    unreduced sum, and is at least 4; the fields are then reduced mod p.

    Every product runs as a batch, the same sum once over many codes: each
    code takes its own slot of ceil(n^2 w / 64) 64-bit words in one int,
    and the row or column masks are repeated in every slot, so each term
    stays inside its slot.  Each field width has one reduction of a batch:
    at w = 4 one pass of bytes.translate through a 256-byte table reduces
    the two fields of every byte (a SWAR table step; Warren, Hacker's
    Delight, ch. 2); wider fields are reduced one by one, slot by slot.

    Returns Kernel(encode(rows) -> code, decode(code) -> rows, mul(a, b) ->
    code, mask(cells) -> the bits of the entries at the (row, column) cells,
    left(a, codes) -> the codes a * b for b in codes, right(codes, b) -> the
    codes a * b for a in codes); encode expects entries already reduced mod
    p, so an entry at a cell is 0 exactly when code & mask([cell]) is.

    Over F_3, x = ((1, 2), (0, 1)) has code 4129 and the identity 4097:

    >>> k, m = kernel(2, 2), kernel(3, 2)
    >>> k.encode(((1, 0), (1, 1))), k.decode(13), 13 & k.mask([(0, 1)])
    (13, ((1, 0), (1, 1)), 0)
    >>> m.encode(((1, 2), (0, 1))), m.decode(4129), 4129 & m.mask([(0, 1)])
    (4129, ((1, 2), (0, 1)), 32)
    >>> list(m.left(4129, [4129, 4097])), list(m.right([4097, 4113], 4129))
    ([4113, 4129], [4129, 4097])
    """
    w = 1 if p == 2 else max(4, (n * (p - 1) ** 2).bit_length())
    field = (1 << w) - 1
    row = (1 << n * w) - 1
    column = sum(field << r * n * w for r in range(n))
    steps = [(k * w, k * n * w) for k in range(n)]
    shifts = [[(r * n + c) * w for c in range(n)] for r in range(n)]
    flat = [s for line in shifts for s in line]
    slot = 8 * max(1, -(-n * n * w // 64))  # bytes per code in a batch
    order = sys.byteorder

    def encode(rows):
        return sum(e << s for e, s in zip(itertools.chain(*rows), flat))

    def decode(code):
        return tuple([tuple([code >> s & field for s in line]) for line in shifts])

    def mask(cells):
        return sum(field << shifts[r][c] for r, c in cells)

    def words(data):
        """The codes in the slots of data, the bytes of a batch."""
        if slot == 8:
            return memoryview(data).cast("Q")
        return [int.from_bytes(data[i:i + slot], order)
                for i in range(0, len(data), slot)]

    if p == 2:
        def dot(a, b, column=column, row=row):
            out = 0
            for ka, kb in steps:
                out ^= (a >> ka & column) * (b >> kb & row)
            return out

        reduce = words
    else:
        def dot(a, b, column=column, row=row):
            acc = 0
            for ka, kb in steps:
                acc += (a >> ka & column) * (b >> kb & row)
            return acc

        if w == 4:
            table = bytes((b >> 4) % p << 4 | (b & 15) % p for b in range(256))

            def reduce(data):
                return words(data.translate(table))
        else:
            def reduce(data):
                return [sum((acc >> s & field) % p << s for s in flat)
                        for acc in words(data)]

    def pack(codes):
        if slot == 8:
            return int.from_bytes(array.array("Q", codes), order)
        return int.from_bytes(b"".join(c.to_bytes(slot, order) for c in codes), order)

    def repeat(bits, count):
        return int.from_bytes(bits.to_bytes(slot, order) * count, order)

    def left(a, codes):
        acc = dot(a, pack(codes), row=repeat(row, len(codes)))
        return reduce(acc.to_bytes(slot * len(codes), order))

    def right(codes, b):
        acc = dot(pack(codes), b, column=repeat(column, len(codes)))
        return reduce(acc.to_bytes(slot * len(codes), order))

    def mul(a, b):
        return left(a, (b,))[0]

    return Kernel(encode, decode, mul, mask, left, right)


class FqMatrix:
    """Immutable matrix over a prime field, rows and columns labelled, held
    as its code for kernel(p, len(ground)); rows are decoded on read."""

    __slots__ = ("p", "ground", "code")

    def __init__(self, p, ground, rows):
        _check_prime(p)
        ground = tuple(ground)
        rows = tuple(map(tuple, rows))
        n = len(ground)
        if len(rows) != n or any(len(r) != n for r in rows):
            raise ValueError("rows must form a %dx%d matrix" % (n, n))
        if any(type(e) is not int for row in rows for e in row):
            raise ValueError("matrix entries must be ints")
        if ground != tuple(sorted(set(ground))):
            raise ValueError("ground must be sorted")
        self.p = p
        self.ground = ground
        self.code = kernel(p, n).encode([[e % p for e in row] for row in rows])

    @classmethod
    def _from_code(cls, p, ground, code):
        """The matrix of a code built over a checked prime: not validated."""
        m = object.__new__(cls)
        m.p, m.ground, m.code = p, ground, code
        return m

    @property
    def rows(self):
        return kernel(self.p, len(self.ground)).decode(self.code)

    @classmethod
    def identity(cls, p, ground):
        n = len(tuple(ground))
        return cls(p, ground, [[int(r == c) for c in range(n)] for r in range(n)])

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
        mul = kernel(self.p, len(self.ground)).mul
        return FqMatrix._from_code(self.p, self.ground, mul(self.code, other.code))

    def __eq__(self, other):
        return (
            isinstance(other, FqMatrix)
            and self.code == other.code
            and self.p == other.p
            and self.ground == other.ground
        )

    def __hash__(self):
        return hash((self.p, self.ground, self.code))

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
        n = len(self.ground)
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
        n = len(self.ground)
        rank, aug = self._echelon([list(row) + [int(r == c) for c in range(n)]
                                   for r, row in enumerate(self.rows)])
        if rank != n:
            raise ValueError("matrix is singular")
        return FqMatrix._from_code(self.p, self.ground,
                                   kernel(self.p, n).encode([row[n:] for row in aug]))

    def relabel(self, mapping):
        """Push forward along a bijection of labels, a dict or its (label,
        image) pairs: entry (i, j) moves to (mapping[i], mapping[j])."""
        mapping = dict(mapping)
        new_ground = tuple(sorted(set(mapping.values())))
        if set(mapping) != set(self.ground) or len(new_ground) != len(self.ground):
            raise ValueError("relabelling must be a bijection from the ground")
        back = {v: k for k, v in mapping.items()}
        return self._pick(new_ground, [back[v] for v in new_ground])

    def dagger(self):
        """Transpose composed with the order-reversing relabelling of the ground."""
        n = len(self.ground)
        rows = self.rows[::-1]
        return FqMatrix._from_code(self.p, self.ground, kernel(self.p, n).encode(
            [[row[-1 - r] for row in rows] for r in range(n)]))

    def block(self, labels):
        """Square submatrix on the given labels, keeping those labels."""
        labels = tuple(sorted(labels))
        if len(set(labels).intersection(self.ground)) != len(labels):
            raise ValueError("block labels must be distinct labels of the ground")
        return self._pick(labels, labels)

    def _pick(self, ground, labels):
        """The matrix on ground, a sorted tuple, whose entry (k, l) is this
        one's at (labels[k], labels[l]): not validated."""
        pos, rows = _positions(self.ground), self.rows
        at = [pos[i] for i in labels]
        return FqMatrix._from_code(self.p, ground, kernel(self.p, len(at)).encode(
            [[rows[a][b] for b in at] for a in at]))


def _orbit(start, steps, seen, label):
    """The indices reached from start along the index lists in steps,
    start first, each marked seen[i] = label; seen holds None where unseen."""
    seen[start] = label
    orbit = [start]
    for i in orbit:
        for step in steps:
            j = step[i]
            if seen[j] is None:
                seen[j] = label
                orbit.append(j)
    return orbit


class GroupTable:
    """A finite matrix group held as an explicit element list.

    The element list order is preserved as given; constructors in this
    module always supply lexicographic row-major order.  The generators are
    given; two batched products per generator at construction check that
    they generate the whole list and give each element's conjugate under
    it.  The classes, the orbits of those conjugates, are walked on first
    read.  There is no product cache.
    """

    def __init__(self, elements, generators, name=""):
        self.elements = list(elements)
        if not self.elements:
            raise ValueError("a group needs at least the identity")
        self.p = self.elements[0].p
        self.ground = self.elements[0].ground
        if any(m.p != self.p or m.ground != self.ground for m in self.elements):
            raise ValueError("elements over different fields or grounds")
        self.index = {m.code: i for i, m in enumerate(self.elements)}
        if len(self.index) != len(self.elements):
            raise ValueError("repeated elements")
        self.order = len(self.elements)
        self.name = name or "group/%d/%d" % (self.p, self.order)
        self.identity_index = self.position(FqMatrix.identity(self.p, self.ground))
        if self.identity_index is None:
            raise ValueError("identity missing")
        self._classes = None
        self._factorizations = {}
        gens = [self.position(g) for g in generators]
        if None in gens:
            raise ValueError("a generator of %s is not in its element list"
                             % self.name)
        self._ensure_generating(gens)

    def __repr__(self):
        return "GroupTable(%s, order=%d)" % (self.name, self.order)

    def position(self, matrix):
        """Index of matrix in the element list, or None when it is not an
        element (a code is read only over the field and ground of the table)."""
        if matrix.p != self.p or matrix.ground != self.ground:
            return None
        return self.index.get(matrix.code)

    def __contains__(self, matrix):
        return self.position(matrix) is not None

    def _ensure_generating(self, gens):
        """Two batched products per generator g (element indices) on the
        codes of every element m: the left products g * m, then those times
        g^-1 on the right, the conjugates g * m * g^-1, each read back as
        element indices.  Raises ValueError unless every product lies in the
        table and the walk from the identity along the left products reaches
        all of it; the conjugation lists are kept for _conjugacy."""
        index = self.index
        k = kernel(self.p, len(self.ground))
        codes = [m.code for m in self.elements]
        lefts, self._conjugates = [], []
        for g in gens:
            moved = k.left(self.elements[g].code, codes)
            conjugated = k.right(moved, self.elements[g].inverse().code)
            lefts.append(list(map(index.get, moved)))
            self._conjugates.append(list(map(index.get, conjugated)))
            if None in lefts[-1] or None in self._conjugates[-1]:
                raise ValueError("%s is not closed under products" % self.name)
        reached = len(_orbit(self.identity_index, lefts, [None] * self.order, 0))
        if reached < self.order:
            raise ValueError("the generators of %s reach %d of its %d elements"
                             % (self.name, reached, self.order))

    def _conjugacy(self):
        """Label the orbits of the conjugation lists on first read: classes
        in order of their least element, members ascending; returns
        (classes, class_of, class_reps, class_sizes)."""
        if self._classes is None:
            class_of = [None] * self.order
            classes = []
            for i in range(self.order):
                if class_of[i] is None:
                    orbit = _orbit(i, self._conjugates, class_of, len(classes))
                    classes.append(tuple(sorted(orbit)))
            self._classes = (tuple(classes), tuple(class_of),
                             tuple(c[0] for c in classes), tuple(map(len, classes)))
            del self._conjugates
        return self._classes

    @property
    def classes(self):
        return self._conjugacy()[0]

    @property
    def class_of(self):
        return self._conjugacy()[1]

    @property
    def class_reps(self):
        return self._conjugacy()[2]

    @property
    def class_sizes(self):
        return self._conjugacy()[3]

    def class_of_matrix(self, m):
        """Class index of m; raises KeyError unless m is an element."""
        i = self.position(m)
        if i is None:
            raise KeyError(m)
        return self.class_of[i]

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
        overlap = sum(1 for m in radical.elements if m in levi)
        if overlap != 1:
            raise ValueError("levi and radical must meet only in the identity")
        n = len(self.ground)
        mask = kernel(self.p, n).mask
        support = mask([cell for cell in itertools.product(range(n), repeat=2)
                        if any(m.code & mask([cell]) for m in levi.elements)])
        out = []
        for g in self.elements:
            l = FqMatrix._from_code(self.p, self.ground, g.code & support)
            li = levi.position(l)
            if li is None:
                raise ValueError("levi part of %r is not in levi" % (g,))
            rj = radical.position(l.inverse() * g)
            if rj is None:
                raise ValueError("%r does not factor through levi" % (g,))
            out.append((li, rj))
        self._factorizations[key] = out
        return out


@functools.lru_cache(maxsize=None)
def pattern_group(order, p):
    """All matrices with unit diagonal supported on the strict cells, each
    code the identity's plus v times the unit code of each cell, v < p.

    The order must be a PartialOrder; transitivity of its relation is what
    makes the matrix set a group.  It is generated by the elementary
    matrices at the covering pairs, as the commutator of x_ij(a) and x_jk(b)
    is x_ik(ab); the construction pass proves it.
    """
    _check_prime(p)
    if not isinstance(order, PartialOrder):
        raise TypeError("a pattern group needs a PartialOrder, got %r" % (order,))
    ground = order.ground
    cells = list(order.strict_pairs)
    _check_budget(lambda: p ** len(cells), f"pattern group on {len(cells)} cells",
                  bits=len(cells) * (p.bit_length() - 1))
    ident = FqMatrix.identity(p, ground).code
    codes = [ident]
    for i, j in cells:
        unit = FqMatrix.one_off(p, ground, i, j, 1).code - ident
        codes = [c + v * unit for c in codes for v in range(p)]
    elements = [FqMatrix._from_code(p, ground, c) for c in codes]
    strict = set(cells)
    gens = [FqMatrix.one_off(p, ground, i, j, 1) for i, j in cells
            if not any((i, k) in strict and (k, j) in strict for k in ground)]
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
    """The full unitriangular group on {1, ..., n}; the budget is checked
    before the chain order is built."""
    _check_ut_budget(n, p)
    return pattern_group(chain_order(range(1, n + 1)), p)


def _check_ut_budget(n, q):
    """_check_budget for the q^C(n, 2) elements of the unitriangular group."""
    cells = math.comb(n, 2)
    _check_budget(lambda: q ** cells, "unitriangular group of degree %d" % n,
                  bits=cells * (q.bit_length() - 1))


def gl_order(n, q):
    out = 1
    for i in range(n):
        out *= q ** n - q ** i
    return out


def _check_gl_budget(n, q):
    """_check_budget for gl_order(n, q) >= q^(n(n-1)), as q^n - q^i >= q^(n-1)."""
    _check_budget(lambda: gl_order(n, q), f"general linear group of degree {n}",
                  bits=n * (n - 1) * (q.bit_length() - 1))


def primitive_root(p):
    for r in range(1, p):
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * r % p
            seen.add(x)
        if len(seen) == p - 1:
            return r
    raise ValueError(f"{p} has no primitive root")


@functools.lru_cache(maxsize=None)
def gl_table(n, p):
    """The full general linear group on {1, ..., n}, built row by row.

    Each row is a vector outside the span of the rows before it.  Prefixes
    grow one level at a time through the candidates in lexicographic order,
    so the elements come out in lexicographic row-major order.  A prefix
    carries its code, the sum of the codes of its rows, each read from a
    table of the codes of the p^n vectors at that row; the last row
    completes each matrix by one more addition, so no element is encoded
    from its entries.  A prefix keeps its span only while more rows remain.
    For n = 0 the group is the one empty matrix.
    """
    _check_prime(p)
    _check_gl_budget(n, p)
    ground = tuple(range(1, n + 1))
    zero = (0,) * n
    vectors = list(itertools.product(range(p), repeat=n))
    encode = kernel(p, n).encode
    at_row = [[encode([v if r == k else zero for r in range(n)]) for v in vectors]
              for k in range(n)]
    level = [(0, {zero})]
    for k in range(n - 1):
        level = [
            (code + c, {
                tuple((x + a * y) % p for x, y in zip(w, v))
                for w in span for a in range(p)
            })
            for code, span in level for v, c in zip(vectors, at_row[k])
            if v not in span
        ]
    codes = [code + c for code, span in level
             for v, c in zip(vectors, at_row[-1]) if v not in span] if n else [0]
    del level  # the last spans are not needed while the table is built
    elements = [FqMatrix._from_code(p, ground, c) for c in codes]
    return GroupTable(elements, generators=_gl_generators(p, ground, ground),
                      name="GL%dq%d" % (n, p))


def _gl_generators(p, ground, block):
    """Generators of the invertible matrices on the labels of block, a
    tuple, embedded into the identity on ground (Waterhouse, Linear and
    Multilinear Algebra 24, 1989): for two labels or more the transvection
    at the first two, then for two labels or more, or for p > 2, the matrix
    w of the cycle through block in order with the column of its first
    label scaled by s = r (-1)^(k-1), r the primitive root and k the number
    of labels (the identity when block is empty).  As p is prime the
    transvection gives every x_12(a), its conjugates under w give SL, and
    det w = (-1)^(k-1) s = r generates the determinants.  At p = 2, s = 1
    and w is the cycle.

    >>> t, w = _gl_generators(3, (1, 2), (1, 2))
    >>> t.rows, w.rows, primitive_root(3)
    (((1, 1), (0, 1)), ((0, 1), (1, 0)), 2)
    >>> [(a * d - b * c) % 3 for (a, b), (c, d) in (t.rows, w.rows)]
    [1, 2]
    """
    k = len(block)
    gens = [FqMatrix.one_off(p, ground, block[0], block[1], 1)] if k >= 2 else []
    if k >= 2 or p > 2:
        cycle = dict(zip(ground, ground))
        cycle.update(zip(block, block[1:] + block[:1]))
        w = permutation_matrix(cycle, p, ground)
        if block:
            pos = _positions(ground)
            one = w.code & kernel(p, len(ground)).mask(
                [(pos[cycle[block[0]]], pos[block[0]])])
            s = primitive_root(p) * (-1) ** (k - 1) % p
            w = FqMatrix._from_code(p, ground, w.code + (s - 1) * one)
        gens.append(w)
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
