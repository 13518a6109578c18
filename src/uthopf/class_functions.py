"""Exact class functions on enumerated groups, and transport between them.

Values are Fractions indexed by conjugacy class; evaluation at an element
goes through the class map of the owning GroupTable.  All transport maps
(restriction, induction, inflation, deflation, pullback along a group
isomorphism) return class functions on explicitly enumerated targets, and
deflation is realized on a complement subgroup rather than on a quotient.

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

from fractions import Fraction


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
        assert len(values) == len(group.class_reps)
        self.group = group
        self.values = values

    @classmethod
    def from_function(cls, group, fn, check=False):
        """Evaluate fn at class representatives.

        With check=True, fn is evaluated at every element and constancy on
        classes is asserted; use this when fn is not known to be a class
        function in advance.
        """
        values = [_as_fraction(fn(group.elements[r])) for r in group.class_reps]
        if check:
            for i, m in enumerate(group.elements):
                assert fn(m) == values[group.class_of[i]], (
                    f"not constant on classes at {m!r}"
                )
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
        return cls.from_function(group, lambda m: int(bool(member(m))), check=True)

    def at_class(self, c):
        return self.values[c]

    def at_index(self, i):
        return self.values[self.group.class_of[i]]

    def at_matrix(self, m):
        return self.values[self.group.class_of[self.group.index[m]]]

    def __eq__(self, other):
        return (
            isinstance(other, ClassFunction)
            and self.group is other.group
            and self.values == other.values
        )

    def __add__(self, other):
        assert self.group is other.group
        return ClassFunction(
            self.group, [a + b for a, b in zip(self.values, other.values)]
        )

    def __sub__(self, other):
        assert self.group is other.group
        return ClassFunction(
            self.group, [a - b for a, b in zip(self.values, other.values)]
        )

    def __neg__(self):
        return ClassFunction(self.group, [-v for v in self.values])

    def __mul__(self, other):
        if isinstance(other, ClassFunction):
            assert self.group is other.group
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
        assert self.group is other.group
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


def restrict_cf(psi, sub):
    """Restriction along an inclusion of element sets."""
    return ClassFunction(
        sub, [psi.at_matrix(sub.elements[r]) for r in sub.class_reps]
    )


def induce_cf(psi, big, method="classwise"):
    """Induction from the group of psi up to big.

    classwise: walk the subgroup once, binning its elements by their class
    in big; the conjugation sum collapses since every member of a class c is
    hit equally often, |big| / |c| times.
    naive: the textbook sum over conjugators, kept as an independent check.
    """
    small = psi.group
    if method == "classwise":
        sums = [Fraction(0)] * len(big.class_reps)
        for i, m in enumerate(small.elements):
            sums[big.class_of[big.index[m]]] += psi.at_index(i)
        values = []
        for c, s in enumerate(sums):
            values.append(Fraction(big.order, small.order * big.class_sizes[c]) * s)
        return ClassFunction(big, values)
    assert method == "naive"
    inverses = [m.inverse() for m in big.elements]
    values = []
    for r in big.class_reps:
        g = big.elements[r]
        total = Fraction(0)
        for x, xinv in zip(big.elements, inverses):
            conj = x * g * xinv
            if conj in small.index:
                total += psi.at_matrix(conj)
        values.append(total / small.order)
    return ClassFunction(big, values)


def inflate_cf(psi, group, levi, radical):
    """Pull back along the projection killing the radical factor."""
    fact = group.factorization(levi, radical)
    values = []
    for r in group.class_reps:
        values.append(psi.at_index(fact[r][0]))
    return ClassFunction(group, values)


def deflate_cf(psi, levi, radical):
    """Average psi over radical cosets, landing on the complement levi.

    psi may live on the semidirect product itself or on any enumerated
    overgroup of it; only the products levi * radical are evaluated.
    """
    scale = Fraction(1, radical.order)
    values = []
    for r in levi.class_reps:
        l = levi.elements[r]
        total = Fraction(0)
        for x in radical.elements:
            total += psi.at_matrix(l * x)
        values.append(scale * total)
    return ClassFunction(levi, values)


def pullback_cf(psi, target, matrix_map):
    """Pull back along an isomorphism target -> psi.group given on matrices."""
    return ClassFunction(
        target,
        [psi.at_matrix(matrix_map(target.elements[r])) for r in target.class_reps],
    )


def dagger_cf(psi):
    """Precompose with the transpose-flip antiautomorphism."""
    return pullback_cf(psi, psi.group, lambda m: m.dagger())


def straighten_cf(psi, inside, left_table, right_table):
    """Split a block diagonal class function into a two factor tensor.

    psi lives on a group of block matrices supported on inside and its
    complement; each factor is standardized onto an initial segment so the
    tensor factors live on the canonical tables.
    """
    from .combinatorics import standardize

    ground = psi.group.ground
    inside = tuple(sorted(inside))
    outside = tuple(sorted(set(ground) - set(inside)))
    into_inside = {v: k for k, v in standardize(inside).items()}
    into_outside = {v: k for k, v in standardize(outside).items()}
    terms = {}
    for c1, r1 in enumerate(left_table.class_reps):
        m1 = left_table.elements[r1].relabel(into_inside)
        for c2, r2 in enumerate(right_table.class_reps):
            m2 = right_table.elements[r2].relabel(into_outside)
            v = psi.at_matrix(m1.direct_sum(m2))
            if v:
                terms[(c1, c2)] = v
    return TensorFunction(left_table, right_table, terms)


def unstraighten_cf(tensor, inside, levi_table):
    """Inverse of straighten_cf, evaluated blockwise."""
    from .combinatorics import standardize

    ground = levi_table.ground
    inside = tuple(sorted(inside))
    outside = tuple(sorted(set(ground) - set(inside)))
    std_in = standardize(inside)
    std_out = standardize(outside)
    values = []
    for r in levi_table.class_reps:
        m = levi_table.elements[r]
        c1 = tensor.left_group.class_of_matrix(m.block(inside).relabel(std_in))
        c2 = tensor.right_group.class_of_matrix(m.block(outside).relabel(std_out))
        values.append(tensor.terms.get((c1, c2), Fraction(0)))
    return ClassFunction(levi_table, values)
