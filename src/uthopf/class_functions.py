"""Exact class functions on enumerated groups, and transport between them.

A class function is a Combination of the class indices of its group;
evaluation at an element goes through the class map of the owning
GroupTable.  All transport maps (restriction, induction, inflation,
deflation, pullback along a group isomorphism) return class functions on
explicitly enumerated targets.
Among them is one adjoint pair, deflation and inflation, both read off the
coset class counts of a Levi and a radical inside a group (_deflation).
Deflation lands on the Levi as a complement rather than on a quotient;
inflation is parabolic induction, plain inflation when the group is
Levi * radical.  Restriction and induction are the pair over the trivial
radical (_trivial).  Straightening and unstraightening read the block
bijection Levi = left x right (_block_classes) both ways.  Straightening,
the flip and relabelling read one class map (_class_map).  Each map is
built once and cached with lru_cache, keyed on the identity of its tables
like the tables themselves; a class map also on its module-level move and
arg.

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
inexact refused.  Every division here builds its Fraction explicitly.
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction

from .combinatorics import standardize
from .group_engine import FqMatrix, GroupTable, kernel


def _exact(x):
    """The one coefficient rule: an int (not a bool) is kept, a Fraction is
    held as its numerator when integral, anything else raises TypeError."""
    if type(x) is int:
        return x
    if type(x) is not Fraction:
        raise TypeError(f"inexact scalar {x!r}")
    return x.numerator if x.denominator == 1 else x


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
        keys checked: only zeros are dropped, and an integral Fraction (a
        sum or product of Fractions can be one) is held as its int."""
        self = cls.__new__(cls)
        for name, value in zip(cls._fields, context):
            setattr(self, name, value)
        self.terms = {key: c.numerator if type(c) is Fraction and c.denominator == 1
                      else c for key, c in terms.items() if c}
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
    def from_function(cls, group, fn):
        """Evaluate fn at class representatives; a ValueError is raised
        unless fn, evaluated at every element, is constant on classes."""
        values = [_exact(fn(group.elements[r])) for r in group.class_reps]
        for m, c in zip(group.elements, group.class_of):
            if fn(m) != values[c]:
                raise ValueError(f"not constant on classes at {m!r}")
        return cls._trusted((group,), dict(enumerate(values)))

    @classmethod
    def class_indicator(cls, group, c):
        return cls(group, {c: 1})

    @classmethod
    def subgroup_indicator(cls, group, member):
        """Indicator of a subset given by a membership predicate on matrices.

        Checked for class constancy, so this only succeeds on unions of
        conjugacy classes (for subgroups: exactly the normal ones).
        """
        return cls.from_function(group, lambda m: int(bool(member(m))))

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

    def __repr__(self):
        return "ClassFunction(%s, %s)" % (self.group.name, list(self.values))

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
def _class_map(source, target, move=None, arg=()):
    """The class in source of each class representative m of target, moved
    to move(m, *arg) unless move is None; KeyError if one is not in source.
    arg is a tuple of hashable values, compared by value in the cache key."""
    reps = [target.elements[r] for r in target.class_reps]
    return tuple(source.class_of_matrix(move(m, *arg) if move else m) for m in reps)


@functools.lru_cache(maxsize=None)
def _deflation(group, levi, radical):
    """For each class representative l of levi, the (class in group, count)
    pairs of the products l * x as x runs over radical, one batched product
    on codes per l.
    Raises ValueError unless levi and radical lie in group and meet only in
    the identity; a factor that is group itself is not scanned."""
    if not all(m in group for factor in (levi, radical) if factor is not group
               for m in factor.elements):
        raise ValueError("%s and %s do not both lie in %s"
                         % (levi.name, radical.name, group.name))
    if sum(1 for m in radical.elements if m in levi) != 1:
        raise ValueError("%s and %s must meet only in the identity"
                         % (levi.name, radical.name))
    left = kernel(group.p, len(group.ground)).left
    class_of, index = group.class_of, group.index
    xs = [x.code for x in radical.elements]
    return tuple(
        tuple(collections.Counter(
            class_of[index[lx]] for lx in left(l, xs)
        ).items())
        for l in (levi.elements[r].code for r in levi.class_reps)
    )


def inflate_cf(psi, group, levi, radical):
    """Parabolic induction: inflate psi from levi over radical, then induce
    up to group; plain inflation when group is levi * radical.  The adjoint
    of deflate_cf, read off the same counts K: the value at a class b of
    group is |group| / (|levi| |radical| |b|) sum_c |c| K[c][b] psi(c)."""
    if psi.group is not levi:
        raise ValueError("%s is not the levi %s" % (psi.group.name, levi.name))
    rows = _deflation(group, levi, radical)
    parts = levi.order * radical.order
    return ClassFunction.collect((
        (b, Fraction(group.order * levi.class_sizes[c] * k * v,
                     parts * group.class_sizes[b]))
        for c, v in psi.terms.items() for b, k in rows[c]
    ), group)


def deflate_cf(psi, levi, radical):
    """Average psi over radical cosets, landing on the complement levi.

    psi may live on the semidirect product itself or on any enumerated
    overgroup of it; only the products levi * radical are read.
    """
    terms, rows = psi.terms, _deflation(psi.group, levi, radical)
    sums = (sum(k * terms[c] for c, k in row if c in terms) for row in rows)
    return ClassFunction.collect(
        ((l, Fraction(s, radical.order)) for l, s in enumerate(sums) if s), levi)


@functools.lru_cache(maxsize=None)
def _trivial(p, ground):
    """The one-element group on ground over F_p: the radical over which
    deflation is restriction and inflation is induction."""
    return GroupTable([FqMatrix.identity(p, ground)], (),
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


def pullback_cf(psi, target, move=None, arg=()):
    """Pull back along the isomorphism m -> move(m, *arg), target -> psi.group."""
    terms, classes = psi.terms, _class_map(psi.group, target, move, arg)
    return ClassFunction._trusted((target,), {c: terms.get(b, 0)
                                             for c, b in enumerate(classes)})


def dagger_cf(psi):
    """Precompose with the transpose-flip antiautomorphism."""
    return pullback_cf(psi, psi.group, FqMatrix.dagger)


def _standard_block(m, labels):
    """The block of m on labels, moved onto an initial segment."""
    return m.block(labels).relabel(standardize(labels))


@functools.lru_cache(maxsize=None)
def _block_classes(levi, inside, left, right):
    """For each class of levi, the pair (class in left of its inside block,
    class in right of its outside block), each block standardized onto an
    initial segment.  Raises ValueError unless this is a bijection onto all
    class pairs, that is unless levi is the product of the two blocks."""
    outside = tuple(k for k in levi.ground if k not in inside)
    pairs = tuple(zip(_class_map(left, levi, _standard_block, (inside,)),
                      _class_map(right, levi, _standard_block, (outside,))))
    if not len(set(pairs)) == len(pairs) == len(left.classes) * len(right.classes):
        raise ValueError("%s is not the block product of %s and %s"
                         % (levi.name, left.name, right.name))
    return pairs


def straighten_cf(psi, inside, left_table, right_table):
    """Split a block diagonal class function into a two factor tensor on the
    canonical tables, along the bijection of _block_classes."""
    pairs = _block_classes(psi.group, tuple(inside), left_table, right_table)
    return TensorFunction._trusted(
        (left_table, right_table), {pairs[c]: v for c, v in psi.terms.items()}
    )


def unstraighten_cf(tensor, inside, levi_table):
    """Inverse of straighten_cf, read along the same bijection."""
    pairs = _block_classes(levi_table, tuple(inside), *tensor.context)
    return ClassFunction._trusted((levi_table,), {
        c: tensor.terms[pair] for c, pair in enumerate(pairs) if pair in tensor.terms
    })
