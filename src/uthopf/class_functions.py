"""Exact class functions on enumerated groups, and transport between them.

Values are Fractions indexed by conjugacy class; evaluation at an element
goes through the class map of the owning GroupTable.  All transport maps
(restriction, induction, inflation, deflation, pullback along a group
isomorphism) return class functions on explicitly enumerated targets.
They form two adjoint pairs: restriction and induction read the class
fusion (_fusion), and deflation and inflation read the coset class counts
of a Levi and a radical inside a group (_deflation).  Deflation lands on
the Levi as a complement rather than on a quotient; inflation is
parabolic induction, plain inflation when the group is Levi * radical.
Straightening and unstraightening read the block bijection Levi = left x
right (_block_classes) both ways.  Each map is built once and cached with
lru_cache, keyed on the identity of its tables like the tables themselves.

Sparse data is a Combination: a finite linear combination held in its
`terms` dict from keys to nonzero coefficients.  The base class owns the
zero-dropping, the accumulation of (key, coefficient) pairs, the linear
operations and equality; a subclass supplies coefficient coercion, its
context (the two tensor factor groups here; the prime of a graded family in
hopf_core), products and printing.  TensorFunction is the one defined here;
hopf_core builds its Laurent polynomials, symbolic combinations and graded
families on the same class.
"""

from __future__ import annotations

import collections
import functools
from fractions import Fraction

from .combinatorics import standardize


def _as_fraction(x):
    if not isinstance(x, (int, Fraction)):
        raise TypeError(f"inexact scalar {x!r}")
    return Fraction(x)


class Combination:
    """Finite linear combination: `terms` maps keys to nonzero coefficients.

    Zero coefficients are dropped on construction, so equality of the dicts
    is equality of the combinations.  `context` is the tuple of leading
    constructor arguments that two combinations must share to be added or
    equal; `_coerce` turns a given coefficient or scalar into coefficient
    form.
    """

    __slots__ = ("terms",)

    context = ()

    def __init__(self, terms=None):
        coerce = self._coerce
        clean = {}
        for key, c in (terms or {}).items():
            c = coerce(c)
            if c:
                clean[key] = c
        self.terms = clean

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
        return cls(*context, out)

    def _like(self, terms):
        return type(self)(*self.context, terms)

    def __add__(self, other):
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


class ClassFunction:

    __slots__ = ("group", "values")

    def __init__(self, group, values):
        values = tuple(_as_fraction(v) for v in values)
        if len(values) != len(group.class_reps):
            raise ValueError("one value per class of %s is needed" % group.name)
        self.group = group
        self.values = values

    @classmethod
    def from_function(cls, group, fn):
        """Evaluate fn at class representatives.

        fn is evaluated at every element, and a ValueError is raised unless
        it is constant on classes.
        """
        values = [_as_fraction(fn(group.elements[r])) for r in group.class_reps]
        for i, m in enumerate(group.elements):
            if fn(m) != values[group.class_of[i]]:
                raise ValueError(f"not constant on classes at {m!r}")
        return cls(group, values)

    @classmethod
    def trivial(cls, group):
        return cls(group, [1] * len(group.class_reps))

    @classmethod
    def class_indicator(cls, group, c):
        return cls(group, [int(k == c) for k in range(len(group.class_reps))])

    @classmethod
    def subgroup_indicator(cls, group, member):
        """Indicator of a subset given by a membership predicate on matrices.

        Checked for class constancy, so this only succeeds on unions of
        conjugacy classes (for subgroups: exactly the normal ones).
        """
        return cls.from_function(group, lambda m: int(bool(member(m))))

    def at_class(self, c):
        return self.values[c]

    def at_matrix(self, m):
        return self.values[self.group.class_of[self.group.index[m]]]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and self.values == other.values
        )

    def _same_group(self, other):
        if self.group is not other.group:
            raise ValueError("class functions on different groups")

    def __add__(self, other):
        self._same_group(other)
        return ClassFunction(
            self.group, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        self._same_group(other)
        return ClassFunction(
            self.group, [a - b for a, b in zip(self.values, other.values)]
        )

    def __neg__(self):
        return ClassFunction(self.group, [-v for v in self.values])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            self._same_group(other)
            return ClassFunction(
                self.group, [a * b for a, b in zip(self.values, other.values)]
            )
        return ClassFunction(self.group, [v * _as_fraction(other) for v in self.values])

    __rmul__ = __mul__

    def __bool__(self):
        return any(self.values)

    def __repr__(self):
        return "ClassFunction(%s, %s)" % (self.group.name, list(self.values))

    def inner(self, other):
        """Averaged pairing; values here are rational, so no conjugation."""
        self._same_group(other)
        total = Fraction(0)
        for size, a, b in zip(self.group.class_sizes, self.values, other.values):
            total += size * a * b
        return total / self.group.order


class TensorFunction(Combination):
    """Element of the tensor square of two class function spaces.

    A combination over pairs of class labels; its context is the two groups.
    """

    __slots__ = ("left_group", "right_group")

    _coerce = staticmethod(_as_fraction)

    def __init__(self, left_group, right_group, terms=None):
        self.left_group = left_group
        self.right_group = right_group
        super().__init__(terms)

    @property
    def context(self):
        return (self.left_group, self.right_group)

    @classmethod
    def outer(cls, f, g):
        terms = {}
        for c1, a in enumerate(f.values):
            if not a:
                continue
            for c2, b in enumerate(g.values):
                if b:
                    terms[(c1, c2)] = a * b
        return cls(f.group, g.group, terms)

    def __repr__(self):
        body = ", ".join(
            "%s: %s" % (k, v) for k, v in sorted(self.terms.items())
        )
        return "TensorFunction(%s (x) %s, {%s})" % (
            self.left_group.name, self.right_group.name, body
        )


@functools.lru_cache(maxsize=None)
def _fusion(small, big):
    """Where each class of small lands in big, with its induction weight.

    For each class c of small, the pair (b, w): b is the class of big that
    contains c, and w = |big| |c| / (|small| |b|) is the value at b of the
    indicator of c induced up to big (zero at every other class).  Raises
    ValueError unless every element of small is in big.
    """
    if not all(m in big.index for m in small.elements):
        raise ValueError("%s is not a subgroup of %s" % (small.name, big.name))
    out = []
    for r, size in zip(small.class_reps, small.class_sizes):
        b = big.class_of_matrix(small.elements[r])
        out.append((b, Fraction(big.order * size, small.order * big.class_sizes[b])))
    return tuple(out)


def restrict_cf(psi, sub):
    """Restriction to a subgroup, read off the class fusion; the adjoint of
    induce_cf."""
    return ClassFunction(sub, [psi.values[b] for b, _ in _fusion(sub, psi.group)])


def induce_cf(psi, big):
    """Induction from the group of psi up to big, summed along the class
    fusion.  The textbook sum over conjugators is the reference it is tested
    against."""
    values = [Fraction(0)] * len(big.class_reps)
    for v, (b, w) in zip(psi.values, _fusion(psi.group, big)):
        values[b] += w * v
    return ClassFunction(big, values)


def induce_tensor(tensor, left, right):
    """Induce both factors of a tensor, up to left and right, along the class
    fusions: each class indicator goes to its weighted fused indicator."""
    into_left = _fusion(tensor.left_group, left)
    into_right = _fusion(tensor.right_group, right)
    return TensorFunction.collect(
        (
            ((into_left[c1][0], into_right[c2][0]),
             v * into_left[c1][1] * into_right[c2][1])
            for (c1, c2), v in tensor.terms.items()
        ),
        left, right,
    )


@functools.lru_cache(maxsize=None)
def _deflation(group, levi, radical):
    """For each class representative l of levi, the (class in group, count)
    pairs of the products l * x as x runs over radical.  Raises ValueError
    unless levi and radical lie in group and meet only in the identity."""
    if not all(m in group.index for m in levi.elements + radical.elements):
        raise ValueError("%s and %s do not both lie in %s"
                         % (levi.name, radical.name, group.name))
    if sum(1 for m in radical.elements if m in levi.index) != 1:
        raise ValueError("%s and %s must meet only in the identity"
                         % (levi.name, radical.name))
    return tuple(
        tuple(collections.Counter(
            group.class_of_matrix(levi.elements[r] * x) for x in radical.elements
        ).items())
        for r in levi.class_reps
    )


def inflate_cf(psi, group, levi, radical):
    """Parabolic induction: inflate psi from levi over radical, then induce
    up to group; plain inflation when group is levi * radical.  The adjoint
    of deflate_cf, read off the same counts K: the value at a class b of
    group is |group| / (|levi| |radical| |b|) sum_c |c| K[c][b] psi(c)."""
    if psi.group is not levi:
        raise ValueError("%s is not the levi %s" % (psi.group.name, levi.name))
    totals = [Fraction(0)] * len(group.class_reps)
    for v, size, row in zip(psi.values, levi.class_sizes,
                            _deflation(group, levi, radical)):
        for b, k in row:
            totals[b] += size * k * v
    scale = Fraction(group.order, levi.order * radical.order)
    return ClassFunction(group, [
        scale * t / size for t, size in zip(totals, group.class_sizes)
    ])


def deflate_cf(psi, levi, radical):
    """Average psi over radical cosets, landing on the complement levi.

    psi may live on the semidirect product itself or on any enumerated
    overgroup of it; only the products levi * radical are read.
    """
    return ClassFunction(levi, [
        Fraction(sum(k * psi.values[c] for c, k in row), radical.order)
        for row in _deflation(psi.group, levi, radical)
    ])


def pullback_cf(psi, target, matrix_map):
    """Pull back along an isomorphism target -> psi.group given on matrices."""
    return ClassFunction(
        target,
        [psi.at_matrix(matrix_map(target.elements[r])) for r in target.class_reps],
    )


def dagger_cf(psi):
    """Precompose with the transpose-flip antiautomorphism."""
    return pullback_cf(psi, psi.group, lambda m: m.dagger())


@functools.lru_cache(maxsize=None)
def _block_classes(levi, inside, left, right):
    """For each class of levi, the pair (class in left of its inside block,
    class in right of its outside block), each block standardized onto an
    initial segment.  Raises ValueError unless this is a bijection onto all
    class pairs, that is unless levi is the product of the two blocks."""
    outside = tuple(k for k in levi.ground if k not in inside)
    std_in, std_out = standardize(inside), standardize(outside)
    pairs = tuple(
        (left.class_of_matrix(m.block(inside).relabel(std_in)),
         right.class_of_matrix(m.block(outside).relabel(std_out)))
        for m in (levi.elements[r] for r in levi.class_reps)
    )
    if not len(set(pairs)) == len(pairs) == len(left.classes) * len(right.classes):
        raise ValueError("%s is not the block product of %s and %s"
                         % (levi.name, left.name, right.name))
    return pairs


def straighten_cf(psi, inside, left_table, right_table):
    """Split a block diagonal class function into a two factor tensor on the
    canonical tables, along the bijection of _block_classes."""
    pairs = _block_classes(psi.group, tuple(inside), left_table, right_table)
    return TensorFunction(left_table, right_table, dict(zip(pairs, psi.values)))


def unstraighten_cf(tensor, inside, levi_table):
    """Inverse of straighten_cf, read along the same bijection."""
    pairs = _block_classes(levi_table, tuple(inside), *tensor.context)
    return ClassFunction(levi_table, [tensor.terms.get(pair, 0) for pair in pairs])
