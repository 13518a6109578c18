"""Exact class functions on enumerated groups, and transport between them.

A class function is a Combination of the class indices of its group;
evaluation at an element goes through the class map of the owning
GroupTable.  All transport maps (restriction, induction, inflation,
deflation, pullback along a group isomorphism) return class functions on
explicitly enumerated targets.
Among them is one adjoint pair, deflation and inflation, both read off the
coset class counts K of a Levi and a radical inside a group, in opposite
orientations: inflation by Levi class (_inflation, the rows), deflation by
group class (_deflation, the columns), so a deflation walks only the
classes its input is nonzero on.  One batched product pass per split makes
the orientation read first; the other is transposed from it when first
read.  Deflation lands on the Levi as a complement rather than on a
quotient; inflation is parabolic induction, plain inflation when the group
is Levi * radical.  Restriction and induction are the pair over the trivial
radical (_trivial).  Straightening, the flip and relabelling read class
maps (_class_map), the codes of one table's class representatives moved by
a cell move of group_engine and looked up in another, no matrix decoded;
(un)straightening reads two of them, Levi = left x right (_block_classes).
Each map is built once and cached, keyed on the identity of its tables
like the tables themselves and on its move, cached by value: the class
maps with lru_cache, the two orientations of K in one dict each.

Sparse data is a Combination: a finite linear combination held in its
`terms` dict from keys to nonzero coefficients.  The base class owns the
zero-dropping, the accumulation of (key, coefficient) pairs, the linear
operations and equality; a subclass supplies coefficient coercion, its
context (one group, or two tensor factor groups; the prime of a graded
family in hopf_core), products and printing.  ClassFunction and
TensorFunction are defined here; hopf_core builds its Laurent polynomials,
symbolic combinations and graded families on the same class.  Rational
coefficients, here and in hopf_core's LaurentT, have one coercion, _exact:
stored as an int when integral and as a Fraction otherwise, anything
inexact refused.  Every division here goes through _ratio: an exact
quotient stays an int, and only an inexact one builds a Fraction.
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction

from .group_engine import Codes, GroupTable, flip_move, kernel, pick_move


def _exact(x):
    """The one coefficient rule: an int (not a bool) is kept, a Fraction is
    held as its numerator when integral, anything else raises TypeError."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise TypeError(f"inexact scalar {x!r}")
    return x.numerator if x.denominator == 1 else x


def _ratio(num, den):
    """num / den for an int den > 0: the int quotient when the division is
    exact, a Fraction otherwise; one rule for every division here."""
    quotient, rest = divmod(num, den)
    return Fraction(num, den) if rest else quotient


class Combination:
    """Finite linear combination: `terms` maps keys to nonzero coefficients.

    Zero coefficients are dropped on construction, so equality of the dicts
    is equality of the combinations.  `context` is the tuple of leading
    constructor arguments, the attributes named by `_fields`, that two
    combinations of one type must share to be added or equal; `_coerce`
    turns a coefficient or scalar into coefficient form.  The constructor
    validates; collect, linear operations and transports use _trusted.
    """

    __slots__ = ("terms",)

    context = ()
    _fields = ()

    def __init__(self, terms=None):
        coerce = self._coerce
        coerced = ((key, coerce(c)) for key, c in (terms or {}).items())
        self.terms = {key: c for key, c in coerced if c}

    @staticmethod
    def _coerce(c):
        return c

    @classmethod
    def zero(cls, *context):
        return cls(*context)

    @classmethod
    def collect(cls, pairs, *context):
        """Sum (key, coefficient) pairs; equal keys add their coefficients."""
        coerce = cls._coerce
        out = {}
        for key, c in pairs:
            c = coerce(c)
            out[key] = out[key] + c if key in out else c
        return cls._trusted(context, out)

    @classmethod
    def _trusted(cls, context, terms):
        """Build from coerced coefficients, with neither the context nor the
        keys checked.  The new value adopts the dict terms, which every
        caller has just built and hands over: zeros are deleted from it and
        an integral Fraction (a sum or product of Fractions can be one) is
        replaced by its int, in place, so no key is hashed again unless it
        changes; the other keys keep their order."""
        self = cls.__new__(cls)
        for name, value in zip(cls._fields, context):
            setattr(self, name, value)
        for key, c in [(key, c) for key, c in terms.items()
                       if not c or type(c) is Fraction and c.denominator == 1]:
            if c:
                terms[key] = c.numerator
            else:
                del terms[key]
        self.terms = terms
        return self

    def _like(self, terms):
        return self._trusted(self.context, terms)

    def __add__(self, other):
        if type(other) is not type(self):
            raise TypeError("cannot add %s to %s"
                            % (type(other).__name__, type(self).__name__))
        if self.context != other.context:
            raise ValueError("cannot add combinations in different contexts")
        out = dict(self.terms)
        for key, c in other.terms.items():
            out[key] = out[key] + c if key in out else c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({key: -c for key, c in self.terms.items()})

    def scale(self, c):
        c = self._coerce(c)
        return self._like({key: c * v for key, v in self.terms.items()})

    __rmul__ = scale

    def __eq__(self, other):
        return (
            type(self) is type(other)
            and self.context == other.context
            and self.terms == other.terms
        )

    def __bool__(self):
        return bool(self.terms)


class ClassFunction(Combination):
    """Rational values on the class indices of group, its context, held by
    _exact; every read returns a Fraction, and `values` lists every class."""

    __slots__ = _fields = ("group",)

    _coerce = staticmethod(_exact)
    context = property(lambda self: (self.group,))

    def __init__(self, group, terms=None):
        size = len(group.class_reps)
        for c in terms or ():
            if type(c) is not int or not 0 <= c < size:
                raise ValueError("%r is not a class index of %s" % (c, group.name))
        self.group = group
        super().__init__(terms)

    @classmethod
    def class_indicator(cls, group, c):
        return cls(group, {c: 1})

    @property
    def values(self):
        return tuple(map(self.at_class, range(len(self.group.class_reps))))

    def at_class(self, c):
        return Fraction(self.terms.get(c, 0))

    def at_matrix(self, m):
        return self.at_class(self.group.class_of_matrix(m))

    def __mul__(self, other):
        if not isinstance(other, ClassFunction):
            return self.scale(other)
        if self.group is not other.group:
            raise ValueError("class functions on different groups")
        return self._like({c: v * other.terms[c]
                           for c, v in self.terms.items() if c in other.terms})

    __rmul__ = __mul__

    def _values_repr(self):
        """The text of list(self.values), written from terms without a
        dense copy: Fraction(0, 1) at a class that terms leave out."""
        parts = ["Fraction(0, 1)"] * len(self.group.class_reps)
        for c, v in self.terms.items():
            parts[c] = "Fraction(%d, %d)" % (v.numerator, v.denominator)
        return "[%s]" % ", ".join(parts)

    def __repr__(self):
        return "ClassFunction(%s, %s)" % (self.group.name, self._values_repr())

    def inner(self, other):
        """Averaged pairing; values here are rational, so no conjugation."""
        sizes = self.group.class_sizes
        total = sum(sizes[c] * v for c, v in (self * other).terms.items())
        return Fraction(total, self.group.order)


class TensorFunction(Combination):
    """Element of the tensor square of two class function spaces.

    A combination over pairs of class labels; its context is the two groups.
    """

    __slots__ = _fields = ("left_group", "right_group")

    _coerce = staticmethod(_exact)
    context = property(lambda self: (self.left_group, self.right_group))

    def __init__(self, left_group, right_group, terms=None):
        self.left_group = left_group
        self.right_group = right_group
        super().__init__(terms)

    @classmethod
    def outer(cls, f, g):
        return cls._trusted((f.group, g.group), {
            (c1, c2): a * b
            for c1, a in f.terms.items() for c2, b in g.terms.items()
        })

    def __repr__(self):
        body = ", ".join(
            "%s: %s" % (k, v) for k, v in sorted(self.terms.items())
        )
        return "TensorFunction(%s (x) %s, {%s})" % (
            self.left_group.name, self.right_group.name, body
        )


@functools.lru_cache(maxsize=None)
def _class_map(source, target, move=None):
    """The class in source of the code of each class representative of
    target, moved by the code map move if given; KeyError if not in source."""
    codes = map(target.codes.__getitem__, target.class_reps)
    at, class_of = source.index, source.class_of
    return tuple(class_of[at[c]] for c in (map(move, codes) if move else codes))


_ROWS, _COLUMNS = {}, {}


def _products(group, levi, radical):
    """The one batched product pass of a split: for each class
    representative l of levi, the (class in group, count) pairs of the
    products l * x as x runs over radical, one batched product on codes per
    l, made as they are read.
    Raises ValueError, before any product, unless levi and radical lie in
    group and meet only in the identity; a factor that is group itself is
    not scanned."""
    index = group.index
    if not all((f.p, f.ground) == (group.p, group.ground)
               and index.keys() >= set(f.codes)
               for f in (levi, radical) if f is not group):
        raise ValueError("%s and %s do not both lie in %s"
                         % (levi.name, radical.name, group.name))
    if len(levi.index.keys() & radical.codes) != 1:
        raise ValueError("%s and %s must meet only in the identity"
                         % (levi.name, radical.name))
    left = kernel(group.p, len(group.ground)).left
    at, class_at, xs = index.__getitem__, group.class_of.__getitem__, radical.codes
    return (tuple(collections.Counter(
        map(class_at, map(at, left(levi.codes[r], xs)))).items())
        for r in levi.class_reps)


def _transpose(lines, size):
    """The pairs (j, k) of each lines[i] regrouped by j: the size lines of
    the result hold the pairs (i, k), i ascending."""
    out = [[] for _ in range(size)]
    for i, line in enumerate(lines):
        for j, k in line:
            out[j].append((i, k))
    return tuple(map(tuple, out))


def _inflation(group, levi, radical):
    """The coset class counts K of a split by Levi class, the rows that
    inflation reads: for each class l of levi, the pairs (class b of group,
    count k) of the products l * x, x in radical, that land in b.  Built
    once per split (_ROWS): transposed from the columns if deflation read
    them first, otherwise made by the product pass (_products)."""
    key = group, levi, radical
    rows = _ROWS.get(key)
    if rows is None:
        columns = _COLUMNS.get(key)
        rows = _ROWS[key] = (tuple(_products(*key)) if columns is None
                             else _transpose(columns, len(levi.classes)))
    return rows


def _deflation(group, levi, radical):
    """The same counts K by group class, the columns that deflation reads:
    for each class b of group, the pairs (class l of levi, count k), l
    ascending.  Built once per split (_COLUMNS): transposed from the rows
    if inflation read them first, otherwise straight from the product pass,
    so a split that only deflation reads keeps no rows."""
    key = group, levi, radical
    columns = _COLUMNS.get(key)
    if columns is None:
        rows = _ROWS.get(key)
        columns = _COLUMNS[key] = _transpose(
            _products(*key) if rows is None else rows, len(group.classes))
    return columns


def inflate_cf(psi, group, levi, radical):
    """Parabolic induction: inflate psi from levi over radical, then induce
    up to group; plain inflation when group is levi * radical.  The adjoint
    of deflate_cf, read off the rows of the same counts K: the value at a
    class b of group is |group| / (|levi| |radical| |b|) sum_c |c| K[c][b]
    psi(c), the sum added first and divided once per b."""
    if psi.group is not levi:
        raise ValueError("%s is not the levi %s" % (psi.group.name, levi.name))
    rows, sizes, sums = _inflation(group, levi, radical), levi.class_sizes, {}
    for c, v in psi.terms.items():
        for b, k in rows[c]:
            sums[b] = sums.get(b, 0) + sizes[c] * k * v
    parts, big = levi.order * radical.order, group.class_sizes
    return ClassFunction._trusted((group,), {
        b: _ratio(group.order * s, parts * big[b]) for b, s in sums.items()})


def deflate_cf(psi, levi, radical):
    """Average psi over radical cosets, landing on the complement levi.

    psi may live on the semidirect product itself or on any enumerated
    overgroup of it; only the products levi * radical are read, by column:
    each nonzero class c of psi adds k psi(c) to the Levi class l of each
    pair (l, k) of its column, and each sum is divided once.
    """
    columns, sums = _deflation(psi.group, levi, radical), [0] * len(levi.classes)
    for c, v in psi.terms.items():
        for l, k in columns[c]:
            sums[l] += k * v
    return ClassFunction._trusted((levi,), {
        l: _ratio(s, radical.order) for l, s in enumerate(sums) if s})


@functools.lru_cache(maxsize=None)
def _trivial(p, ground):
    """The one-element group on ground over F_p: the radical over which
    deflation is restriction and inflation is induction."""
    return GroupTable(Codes(p, ground, [kernel(p, len(ground)).one]), (),
                      name="1[%s]q%d" % (",".join(map(str, ground)), p))


def restrict_cf(psi, sub):
    """Restriction to a subgroup: deflation onto sub over the trivial group,
    psi read at each class of sub; the adjoint of induce_cf."""
    return deflate_cf(psi, sub, _trivial(sub.p, sub.ground))


def induce_cf(psi, big):
    """Induction from the group of psi up to big: inflation over the trivial
    group, with weight |big| |c| / (|psi.group| |b|) from c to its class b.
    The textbook sum over conjugators is the reference it is tested against."""
    small = psi.group
    return inflate_cf(psi, big, small, _trivial(small.p, small.ground))


def induce_tensor(tensor, left, right):
    """Induce both factors of a tensor, up to left and right: each pair of
    classes goes to the outer product of its induced indicators, each class
    of a factor induced once."""
    @functools.lru_cache(maxsize=None)
    def up(group, big, c):
        return induce_cf(ClassFunction.class_indicator(group, c), big)

    return TensorFunction.collect((
        (pair, v * w) for (c1, c2), v in tensor.terms.items()
        for pair, w in TensorFunction.outer(
            up(tensor.left_group, left, c1), up(tensor.right_group, right, c2)
        ).terms.items()
    ), left, right)


def pullback_cf(psi, target, move=None):
    """Pull back along the isomorphism of codes move, target -> psi.group."""
    terms, classes = psi.terms, _class_map(psi.group, target, move)
    return ClassFunction._trusted((target,), {c: terms[b] for c, b in enumerate(classes)
                                             if b in terms})


def dagger_cf(psi):
    """Precompose with the transpose-flip antiautomorphism."""
    return pullback_cf(psi, psi.group, flip_move(psi.group.p, len(psi.group.ground)))


@functools.lru_cache(maxsize=None)
def _block_classes(levi, inside, left, right):
    """For each class of levi, the pair (class in left of its inside block,
    class in right of its outside block), the zip of two class maps along
    picks onto initial segments.  Raises ValueError unless inside is a sorted
    tuple of distinct labels of the ground, unless left and right are on the
    initial segments over the field of levi, and unless this is a bijection
    onto all class pairs (levi is the product of the two blocks); KeyError
    if a block is not in its table."""
    p, ground = levi.p, levi.ground
    if tuple(sorted(set(inside).intersection(ground))) != inside:
        raise ValueError("%r are not sorted distinct labels of %s" % (inside, levi.name))
    outside = tuple(k for k in ground if k not in inside)
    sides = ((left, inside), (right, outside))
    if any((table.p, table.ground) != (p, tuple(range(1, len(labels) + 1)))
           for table, labels in sides):
        raise ValueError("%s is not the block product of %s and %s"
                         % (levi.name, left.name, right.name))
    pairs = tuple(zip(*(_class_map(table, levi, pick_move(p, ground, labels))
                        for table, labels in sides)))
    if not len(set(pairs)) == len(pairs) == len(left.classes) * len(right.classes):
        raise ValueError("%s is not the block product of %s and %s"
                         % (levi.name, left.name, right.name))
    return pairs


def straighten_cf(psi, inside, left_table, right_table):
    """Split a block diagonal class function into a two factor tensor on the
    canonical tables, along the bijection of _block_classes."""
    pairs = _block_classes(psi.group, tuple(sorted(inside)), left_table, right_table)
    return TensorFunction._trusted(
        (left_table, right_table), {pairs[c]: v for c, v in psi.terms.items()}
    )


def unstraighten_cf(tensor, inside, levi_table):
    """Inverse of straighten_cf, read along the same bijection."""
    pairs = _block_classes(levi_table, tuple(sorted(inside)), *tensor.context)
    return ClassFunction._trusted((levi_table,), {
        c: tensor.terms[pair] for c, pair in enumerate(pairs) if pair in tensor.terms
    })
