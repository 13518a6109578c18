"""The Hopf algebra of unit interval orders and its unitriangular realization.

Symbolic side: finite Laurent-coefficient combinations of natural unit
interval orders, with shifted ordinal sum as product and subset splitting as
coproduct; the coefficient of a splitting is t to the number of upward
noncomparabilities leaving the chosen subset.  The algebra is free on the
connected orders, and every other order is the shifted sum of the order
below its top connected piece and that piece (Nuio.top_piece).  As the
coproduct is multiplicative and the antipode an anti-homomorphism, such an
order multiplies the two cached results, the antipodes in reverse order;
only a connected order runs the counit recursion or sums over its splits,
all read off one walk over its labels (Nuio.splits).  Both check the budget
against the 2^n subsets of the whole order on entry.  Each is computed
once per pair of an order and its flip (Nuio.dagger): the one with the
smaller key takes the path above, the other reads the mirror of its
value, as reversing the labels maps pi restricted to S onto the flip
restricted to the reversed S and an ascent leaving S to one leaving the
reversed complement, so the coproduct of the flip is that of pi with its
factors swapped and flipped, and the antipode of the flip is the flip of
the antipode.  The side is chosen by key, not by which value is cached
first, so no value depends on the order of the calls.  Coefficients
follow class_functions._exact: an int when integral, a Fraction
otherwise, inexact input refused.
Setting t = 1/q turns a basis element into the normalized indicator of its
pattern subgroup inside the full unitriangular group, and the symbolic
operations match inflation and parabolic deflation of those indicators; that
match is what the oracle checks in this module verify.  Its group side
reads codes and ints: a unit coefficient takes its own copy of the cached
indicator, neither evaluated nor scaled (specialize), a coefficient is
evaluated at 1/q by the formula of every evaluation, one sum over a power
of q, an int when its coefficients are (_value), the pattern certificate
compares flag lists, and every division keeps an exact quotient as an int
(class_functions._ratio).

Species side: the same operations before quotienting by relabelling,
realized on explicit pattern groups over a composition of the ground set.
`pattern_split` is the one builder of their Levi and radical tables;
`parabolic_product` and `parabolic_coproduct` serve both towers; a
relabelling is a pullback along a pick of codes (monoid_relabel).  The
associativity, coassociativity, compatibility and naturality squares, five
families declared once, run on class function bases.  Every verify suite,
here and in gl_bridge, is a generator of cases (check, instance, lhs,
rhs[, relation]) checking its own budget first, run by verify_reports.

Every sparse value here (LaurentT, ScfElement, TensorScf,
GradedClassFunction, GradedTensor) is a class_functions.Combination: its
`terms` dict maps exponents, orders, pairs of orders, degrees or bidegrees
to nonzero coefficients.  Sums of many pieces go through one `collect`
call; the oracle's graded tensor sums (parabolic_coproduct,
specialize_tensor) add int numerators over one denominator, one dict per
bidegree, the coproduct's by column of the coset class counts
(class_functions._deflation), and divide once per class pair.
Values are never changed in place, so results are shared: a LaurentT
product by the unit is the other factor, and basis(pi) with the unit
coefficient gets the cached coproduct or antipode itself
(ScfElement._extend).  Coefficients are interned where they are made
(_interned): one LaurentT per distinct value, its printed dict built once.
A connected order interns its coproduct and antipode coefficients.  An
ScfElement or TensorScf product (_product) makes each term through one
memo (_times), which interns the product of two interned values, and sums
in place, interning a sum of two interned values, so every basis
coproduct and antipode holds interned values only.  A value that carries
its coefficients over unchanged, or makes them interned, adopts its dict
with no rescan (Combination._adopt).
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import random
import sys
from fractions import Fraction

from .combinatorics import (
    Nuio,
    PartialOrder,
    SetComposition,
    chain_order,
    levi_pattern,
    natural_unit_interval_orders,
    radical_pattern,
    set_compositions,
    split_composition,
    refinements,
    total_orders,
    _check_budget,
)
from .group_engine import _check_ut_budget, kernel, pattern_group, pick_move, ut_table
from .class_functions import (
    ClassFunction,
    Combination,
    TensorFunction,
    _block_classes,
    _deflation,
    _exact,
    _ratio,
    dagger_cf,
    deflate_cf,
    inflate_cf,
    pullback_cf,
    unstraighten_cf,
)


def short_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def frac_str(x):
    return "%d/%d" % (x.numerator, x.denominator)


def _value(c, n, d):
    """The value of the LaurentT c at n/d, d > 0, as (numerator,
    denominator), not reduced: with coefficients a_k, lo = min(0, least
    exponent) and hi = max(0, top exponent), v = sum a_k n^(k - lo)
    d^(hi - k) over n^-lo d^hi.  v is an int sum when every a_k is an
    int, and at n/d = 1/q the denominator is q^hi."""
    terms = c.terms
    lo, hi = min([0, *terms]), max([0, *terms])
    v = sum(a * n ** (k - lo) * d ** (hi - k) for k, a in terms.items())
    return v.numerator, v.denominator * n ** -lo * d ** hi


class LaurentT(Combination):
    """Laurent polynomial in one variable t over the rationals: a
    combination of exponents with rational coefficients, held by _exact.
    A product by the unit {0: 1} is the other factor, as values are never
    changed in place; any other product sums into one dict."""

    __slots__ = ()

    _coerce = staticmethod(_exact)
    _UNIT = {0: 1}

    @classmethod
    def scalar(cls, x):
        return cls({0: x})

    __add__ = Combination.__add__

    def __mul__(self, other):
        other = _laurent(other)
        left, right = self.terms, other.terms
        if right == self._UNIT or not left:
            return self
        if left == self._UNIT or not right:
            return other
        out = {}
        for k1, v1 in left.items():
            for k2, v2 in right.items():
                k = k1 + k2
                out[k] = out[k] + v1 * v2 if k in out else v1 * v2
        return LaurentT._trusted((), out)

    __rmul__ = __mul__

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def evaluate(self, x):
        """The value at x as a Fraction (_value).  A negative exponent at
        x = 0 raises ZeroDivisionError."""
        x = _exact(x)
        return Fraction(*_value(self, x.numerator, x.denominator))

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for k in sorted(self.terms):
            v = self.terms[k]
            if k == 0:
                bits.append(str(v))
            elif k == 1:
                bits.append("%s*t" % v)
            else:
                bits.append("%s*t^%d" % (v, k))
        return " + ".join(bits)

    def to_dict(self):
        """{exponent: "num/den"} in exponent order; an interned value hands
        out a copy of the dict printed when it was interned."""
        printed = _PRINTED.get(id(self))
        if printed is not None:
            return dict(printed)
        return {str(k): frac_str(v) for k, v in sorted(self.terms.items())}

    @classmethod
    def from_dict(cls, data):
        """Inverse of to_dict; coefficients may also be ints.  A non-dict,
        a float (inexact), bool or exponent-notation coefficient, or two keys
        naming one exponent ("1", " 1" and "+1" all read as 1) raise
        ValueError; an exponent past the budget raises BudgetError, as
        specializing t^k builds a number of |k| digits."""
        if not isinstance(data, dict):
            raise ValueError("coefficients must be a JSON object, got %r" % (data,))
        if any(isinstance(v, (bool, float)) or isinstance(v, str) and "e" in v.lower()
               for v in data.values()):
            raise ValueError("coefficients must be ints or fraction strings")
        terms = {}
        for k, v in data.items():
            k = int(k)
            if k in terms:
                raise ValueError("two keys name the exponent %d" % k)
            terms[k] = Fraction(v)
        _check_budget(max(map(abs, terms), default=0), "a power of t")
        return cls(terms)


# The interned coefficients: one LaurentT per distinct value, keyed by its
# sorted (exponent, coefficient) items, and the printed dict of each, keyed
# by its id, which stays its own as the table keeps every value alive.  The
# printed dicts share their few distinct texts (sys.intern).
_INTERNED = {}
_PRINTED = {}


def _interned(terms):
    """The one shared LaurentT with these nonzero int coefficients; the
    first call with a value builds it on terms, which it adopts, and its
    printed dict, once."""
    key = tuple(sorted(terms.items()))
    value = _INTERNED.get(key)
    if value is None:
        value = _INTERNED[key] = LaurentT._adopt((), terms)
        _PRINTED[id(value)] = {
            sys.intern(str(k)): sys.intern(frac_str(v)) for k, v in key}
    return value


_ONE = _interned({0: 1})

# The product of each pair of interned values that has been multiplied,
# keyed by both ids, which stay theirs as interned values never die.
_PRODUCTS = {}


def _times(a, b):
    """a * b; when both are interned, their product is interned too, made
    once per process.  Only interned pairs are kept, so a hit on the ids of
    a pair is that pair."""
    key = id(a), id(b)
    c = _PRODUCTS.get(key)
    if c is None:
        c = a * b
        if id(a) in _PRINTED and id(b) in _PRINTED:
            c = _PRODUCTS[key] = _interned(c.terms)
    return c


def _product(x, y, join):
    """x * y summed in place: the product of the terms (k1, a) and (k2, b),
    made by _times, adds into the key join(k1, k2).  A key met again holds
    the sum, interned when both summands are, or is dropped where the sum is
    zero: the only place a zero can arise, as the product of two nonzero
    Laurent polynomials is nonzero, so the dict is adopted as it is."""
    out = {}
    for k1, a in x.terms.items():
        for k2, b in y.terms.items():
            key, c = join(k1, k2), _times(a, b)
            old = out.get(key)
            if old is not None:
                both = id(old) in _PRINTED and id(c) in _PRINTED
                c = old + c
                if not c.terms:
                    del out[key]
                    continue
                if both:
                    c = _interned(c.terms)
            out[key] = c
    return x._adopt((), out)


def _laurent(c):
    return c if isinstance(c, LaurentT) else LaurentT.scalar(c)


class ScfElement(Combination):
    """Laurent-coefficient combination of natural unit interval orders."""

    __slots__ = ()

    _coerce = staticmethod(_laurent)

    @classmethod
    def basis(cls, pi):
        return cls._adopt((), {pi: _ONE})

    @classmethod
    def unit(cls):
        return cls.basis(Nuio(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0]._key)

    def __mul__(self, other):
        return _product(self, other, Nuio.shifted_sum)

    def __repr__(self):
        bits = ["(%s) * %r" % (c, pi) for pi, c in self.sorted_terms()]
        return "ScfElement(%s)" % (" + ".join(bits) if bits else "0")

    def counit(self):
        return self.terms.get(Nuio(0), LaurentT.zero())

    def _extend(self, image, cls):
        """The linear map of class cls with basis values image(pi): of
        basis(pi), the cached value itself, which nobody changes in place;
        of any other element, one sum of the scaled cached values."""
        if len(self.terms) == 1:
            (pi, c), = self.terms.items()
            if c.terms == LaurentT._UNIT:
                return image(pi)
        return cls.collect(
            (key, c * v)
            for pi, c in self.terms.items()
            for key, v in image(pi).terms.items()
        )

    def coproduct(self):
        return self._extend(_coproduct_basis, TensorScf)

    def antipode(self):
        return self._extend(_antipode_basis, ScfElement)

    def dagger(self):
        return self._adopt((), {pi.dagger(): c for pi, c in self.terms.items()})

    def to_dict(self):
        return {
            "terms": [
                dict(pi.to_dict(), coeff=c.to_dict())
                for pi, c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_dict(cls, data):
        return cls.collect(
            (Nuio.from_dict(term), LaurentT.from_dict(term.get("coeff", {"0": "1/1"})))
            for term in data.get("terms", [])
        )


class TensorScf(Combination):
    """Combination of ordered pairs of unit interval orders."""

    __slots__ = ()

    _coerce = staticmethod(_laurent)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0]._key, kv[0][1]._key),
        )

    def __mul__(self, other):
        return _product(self, other, lambda x, y: (
            x[0].shifted_sum(y[0]), x[1].shifted_sum(y[1])))

    def swap(self):
        return self._adopt((), {(r, l): c for (l, r), c in self.terms.items()})

    def component(self, i, j):
        return self._adopt((), {k: c for k, c in self.terms.items()
                                if k[0].n == i and k[1].n == j})

    def __repr__(self):
        bits = [
            "(%s) * %r (x) %r" % (c, l, r)
            for (l, r), c in self.sorted_terms()
        ]
        return "TensorScf(%s)" % (" + ".join(bits) if bits else "0")

    def to_dict(self):
        return {
            "terms": [
                {
                    "left": l.to_dict(),
                    "right": r.to_dict(),
                    "coeff": c.to_dict(),
                }
                for (l, r), c in self.sorted_terms()
            ]
        }


@functools.lru_cache(maxsize=None)
def _coproduct_basis(pi):
    """Coproduct of one basis element, the budget checked against 2^n
    first.  When the flip of pi has the smaller key, it is the mirror of
    the flip's: a term (l, r, c) becomes (r.dagger(), l.dagger(), c), with
    the same coefficient object.  Otherwise a shifted sum multiplies the
    cached coproducts of the order below its top piece and of that piece;
    a connected order sums t^ascents over its splits, read off one walk
    (Nuio.splits), into interned coefficients."""
    _check_budget(2 ** pi.n, "splitting a degree %d order" % pi.n)
    dual = pi.dagger()
    if dual.key() < pi.key():
        return TensorScf._adopt((), {
            (r.dagger(), l.dagger()): c
            for (l, r), c in _coproduct_basis(dual).terms.items()})
    rest, top = pi.top_piece()
    if rest.n:
        return _coproduct_basis(rest) * _coproduct_basis(top)
    exponents = {}
    for _, left, right, ascents in pi.splits():
        counts = exponents.setdefault((left, right), {})
        counts[ascents] = counts.get(ascents, 0) + 1
    return TensorScf._adopt((), {
        key: _interned(counts) for key, counts in exponents.items()})


@functools.lru_cache(maxsize=None)
def _antipode_basis(pi):
    """Antipode of one basis element, past degree 0 the budget checked
    against 2^n first.  When the flip of pi has the smaller key, it is the
    flip of the flip's: a term (rho, c) becomes (rho.dagger(), c), with the
    same coefficient object.  Otherwise a shifted sum multiplies the cached
    antipodes of its top piece and of the order below it; a connected order
    runs the counit recursion S(pi) = -pi - sum c S(left) right over the
    proper splits, subtracting each product's terms in place from one
    exponent dict per result order, and interns each nonzero sum."""
    if pi.n == 0:
        return ScfElement.unit()
    _check_budget(2 ** pi.n, "splitting a degree %d order" % pi.n)
    dual = pi.dagger()
    if dual.key() < pi.key():
        return _antipode_basis(dual).dagger()
    rest, top = pi.top_piece()
    if rest.n:
        return _antipode_basis(top) * _antipode_basis(rest)
    sums = {pi: {0: -1}}
    for (left, right), c in _coproduct_basis(pi).terms.items():
        if left.n and right.n:
            for rho, v in _antipode_basis(left).terms.items():
                exponents = sums.setdefault(rho.shifted_sum(right), {})
                for k, x in (c * v).terms.items():
                    exponents[k] = exponents.get(k, 0) - x
    return ScfElement._adopt((), {
        rho: _interned(nonzero) for rho, exponents in sums.items()
        if (nonzero := {k: x for k, x in exponents.items() if x})})


class _AtPrime(Combination):
    """A combination whose context is one prime q."""

    __slots__ = _fields = ("q",)

    context = property(lambda self: (self.q,))

    def __init__(self, q, terms=None):
        self.q = q
        super().__init__(terms)


class GradedClassFunction(_AtPrime):
    """Finitely supported graded family of class functions at one prime: a
    combination of degrees with ClassFunction coefficients."""

    __slots__ = ()

    def __repr__(self):
        return "GradedClassFunction(q=%d, {%s})" % (self.q, ", ".join(
            "%d: %s" % (n, f._values_repr()) for n, f in sorted(self.terms.items())))

    def to_dict(self):
        comps = []
        for n in sorted(self.terms):
            f = self.terms[n]
            comps.append({
                "n": n,
                "group": f.group.name,
                "values": [
                    {
                        "class_rep": f.group.element(r).to_digits(),
                        "value": frac_str(v),
                    }
                    for r, v in zip(f.group.class_reps, f.values)
                ],
            })
        return {"q": self.q, "components": comps}

    def dagger(self):
        return self._like({n: dagger_cf(f) for n, f in self.terms.items()})


class GradedTensor(_AtPrime):
    """Graded family of two factor tensors at one prime: a combination of
    bidegrees (i, j) with TensorFunction coefficients."""

    __slots__ = ()

    def __repr__(self):
        return "GradedTensor(q=%d, %s)" % (self.q, sorted(self.terms.items()))


@functools.lru_cache(maxsize=None)
def pattern_indicator(pi, q):
    """Indicator of the pattern subgroup inside the full unitriangular group,
    the elements whose codes vanish at the cells (i, j), i < j < c(i), off
    the strict pairs.  Built through the flag certificate of
    _vanishing_indicator, so constructing it certifies that the pattern
    subgroup is normal."""
    table = ut_table(pi.n, q)
    prof = pi.profile()
    mask = kernel(q, pi.n).mask(
        (i - 1, j - 1) for i, j in itertools.combinations(table.ground, 2)
        if j < prof[i - 1])
    return _vanishing_indicator(table, mask)


def _vanishing_indicator(table, mask):
    """Indicator of the elements of table whose codes vanish under mask.

    A flag certificate: the member flags are read once from the codes, and
    each element's flag must equal its class representative's, else
    ValueError; so for a subgroup this succeeds exactly when it is normal.
    """
    member = [not c & mask for c in table.codes]
    at_rep = [member[r] for r in table.class_reps]
    if list(map(at_rep.__getitem__, table.class_of)) != member:
        raise ValueError("the elements of %s vanishing under %#x are not a union "
                         "of its classes" % (table.name, mask))
    return ClassFunction._trusted((table,), {c: 1 for c, f in enumerate(at_rep) if f})


def specialize(x, q):
    """Evaluate coefficients at t = 1/q (_value, _ratio) and realize basis
    elements as indicators; a unit coefficient takes its own copy of the
    cached indicator, neither evaluated nor scaled."""

    def piece(pi, c):
        f = pattern_indicator(pi, q)
        if c.terms == LaurentT._UNIT:
            return f._like(dict(f.terms))
        return f.scale(_ratio(*_value(c, 1, q)))

    return GradedClassFunction.collect(
        ((pi.n, piece(pi, c)) for pi, c in x.terms.items()), q)


@functools.lru_cache(maxsize=None)
def pattern_split(ambient, comp, q):
    """Levi and radical pattern tables of the pattern group of ambient,
    split along the set composition comp."""
    return (
        pattern_group(levi_pattern(ambient, comp), q),
        pattern_group(radical_pattern(ambient, comp), q),
    )


@functools.lru_cache(maxsize=None)
def split_tables(n, inside, q):
    """Levi and radical pattern tables of the unitriangular group on
    {1, ..., n}, split into the labels inside (a tuple) and the rest."""
    return pattern_split(
        chain_order(range(1, n + 1)), split_composition(n, inside), q
    )


def parabolic_product(a, b, ambient, levi_table):
    """The product of ambient(n, q), the unitriangular or general linear
    tower: each pair of components, of degrees i and j, is unstraightened
    onto the block Levi levi_table(i + j, i, q) and parabolically induced
    over the initial segment radical up to ambient(i + j, q)."""
    if a.q != b.q:
        raise ValueError("factors at different primes %d and %d" % (a.q, b.q))
    q = a.q

    def component(i, fa, j, fb):
        inside = tuple(range(1, i + 1))
        levi = levi_table(i + j, i, q)
        on_levi = unstraighten_cf(TensorFunction.outer(fa, fb), inside, levi)
        radical = split_tables(i + j, inside, q)[1]
        return inflate_cf(on_levi, ambient(i + j, q), levi, radical)

    return GradedClassFunction.collect((
        (i + j, component(i, fa, j, fb))
        for i, fa in a.terms.items() for j, fb in b.terms.items()
    ), q)


def _ut_levi(n, i, q):
    return split_tables(n, tuple(range(1, i + 1)), q)[0]


def ut_product(a, b):
    return parabolic_product(a, b, ut_table, _ut_levi)


def _graded_tensor(q, ambient, sums, d):
    """The graded tensor at q whose (i, j) component, on ambient(i, q) and
    ambient(j, q), holds the numerators sums[i, j] over d: one division per
    class pair, an int where it is exact (_ratio), zeros and empty components
    dropped."""
    return GradedTensor._trusted((q,), {
        (i, j): TensorFunction._trusted((ambient(i, q), ambient(j, q)), {
            key: _ratio(s, d) for key, s in out.items()})
        for (i, j), out in sums.items()})


def parabolic_coproduct(a, ambient, splits):
    """The coproduct of ambient(n, q): each component psi of degree n is
    deflated over every split (inside, levi, radical) in splits(n, q) and
    straightened onto ambient(k, q) and ambient(n - k, q), k = len(inside),
    read off the cached _deflation columns and _block_classes pairs.  With D
    the common denominator of the values and d the lcm of the radical
    orders, each nonzero class c of psi adds m D psi(c) d / |radical|, as
    an int, for each pair (l, m) of its column into the sum at the class
    pair of l, one dict per bidegree, divided by D d once per class pair
    (_graded_tensor)."""
    q, sums = a.q, {}
    cuts = {n: list(splits(n, q)) for n in a.terms}
    d = math.lcm(*(radical.order for cut in cuts.values() for *_, radical in cut))
    D = math.lcm(*(v.denominator for psi in a.terms.values() for v in psi.terms.values()))
    for n, psi in a.terms.items():
        nums = {c: v.numerator * (D // v.denominator) for c, v in psi.terms.items()}
        tables = [ambient(k, q) for k in range(n + 1)]
        for inside, levi, radical in cuts[n]:
            k, w = len(inside), d // radical.order
            pairs = _block_classes(levi, inside, tables[k], tables[n - k])
            out = sums.setdefault((k, n - k), {})
            columns = _deflation(psi.group, levi, radical)
            for c, v in nums.items():
                v *= w
                for l, m in columns[c]:
                    key = pairs[l]
                    out[key] = out.get(key, 0) + m * v
    return _graded_tensor(q, ambient, sums, D * d)


def _ut_splits(n, q):
    for k in range(n + 1):
        for inside in itertools.combinations(range(1, n + 1), k):
            yield (inside, *split_tables(n, inside, q))


def ut_coproduct(a):
    """Parabolic deflations over all subsets, straightened and graded."""
    return parabolic_coproduct(a, ut_table, _ut_splits)


def specialize_tensor(tx, q):
    """Evaluate coefficients at t = 1/q (_value) and realize each pair of
    orders as the outer product of their indicators; with d the lcm of
    the values' denominators, each product adds into one dict of int
    numerators per bidegree, divided by d once per class pair
    (_graded_tensor)."""
    values = [(key, *_value(c, 1, q)) for key, c in tx.terms.items()]
    d, sums = math.lcm(*(den for *_, den in values)), {}
    for (l, r), num, den in values:
        w, out = num * (d // den), sums.setdefault((l.n, r.n), {})
        right = pattern_indicator(r, q).terms.items()
        for c1, x in pattern_indicator(l, q).terms.items():
            for c2, y in right:
                out[c1, c2] = out.get((c1, c2), 0) + x * y * w
    return _graded_tensor(q, ut_table, sums, d)


def _report(check, instance, lhs, rhs, relation=operator.eq):
    """One report line: ok when relation(lhs, rhs) holds.  A failing
    equality also carries the first difference of the two sides; a holding
    one hashes its left side for both, as equal values print alike."""
    ok = relation(lhs, rhs)
    lhs_hash = short_hash(repr(lhs))
    report = {
        "check": check,
        "instance": instance,
        "status": "ok" if ok else "fail",
        "lhs_hash": lhs_hash,
        "rhs_hash": lhs_hash if ok and relation is operator.eq
        else short_hash(repr(rhs)),
    }
    if not ok and relation is operator.eq:
        report["diff"] = _first_difference(lhs, rhs)
    return report


def _first_difference(lhs, rhs, at=()):
    """{"at": coordinate, "lhs": value, "rhs": value} at the first place two
    unequal values differ.  Nested Combinations are walked through their
    terms in sorted key order (degree, class index, tensor key), a missing
    key reading as zero; the coordinate is the list of keys on the way, and
    "context" when the two combinations live on different groups or primes."""
    if isinstance(lhs, Combination) and type(lhs) is type(rhs):
        if lhs.context != rhs.context:
            return _first_difference(lhs.context, rhs.context, at + ("context",))
        for key in sorted(lhs.terms.keys() | rhs.terms.keys()):
            a, b = lhs.terms.get(key), rhs.terms.get(key)
            if a != b:
                return _first_difference(
                    _zero_like(b) if a is None else a,
                    _zero_like(a) if b is None else b, at + (key,))
    return {"at": [_coordinate(k) for k in at],
            "lhs": _value_text(lhs), "rhs": _value_text(rhs)}


def _zero_like(c):
    return c._like({}) if isinstance(c, Combination) else type(c)()


def _coordinate(key):
    return [_coordinate(k) for k in key] if isinstance(key, tuple) else key


def _value_text(v):
    return frac_str(v) if isinstance(v, (Fraction, int)) else repr(v)


def _ordinal_fold(orders):
    return functools.reduce(PartialOrder.ordinal_sum, orders, chain_order(()))


def _disjoint_fold(orders):
    return functools.reduce(PartialOrder.disjoint_union, orders, chain_order(()))


def monoid_inflate(ambient, comp, psi):
    """Inflation from the blockwise diagonal up the whole pattern group.

    Raises ValueError unless ambient has no pairs descending against comp,
    which is exactly when the parabolic of the pair is the whole group.
    """
    q = psi.group.p
    group = pattern_group(ambient, q)
    levi, radical = pattern_split(ambient, comp, q)
    if levi.order * radical.order != group.order:
        raise ValueError("%s is not the parabolic %s * %s"
                         % (group.name, levi.name, radical.name))
    return inflate_cf(psi, group, levi, radical)


def monoid_deflate(ambient, comp, psi):
    """Parabolic restriction then radical averaging, blockwise over comp."""
    return deflate_cf(psi, *pattern_split(ambient, comp, psi.group.p))


def monoid_relabel(psi, mapping, moves=None):
    """Push a pattern group class function forward along a relabelling.
    moves, a dict kept by a caller that relabels along one mapping only,
    holds (target table, code move) by source table, each built once."""
    moves = {} if moves is None else moves
    source = psi.group
    if source not in moves:
        target = pattern_group(source.pattern.relabel(mapping), source.p)
        moves[source] = target, pick_move(source.p, target.ground,
                                          [mapping[i] for i in source.ground])
    return pullback_cf(psi, *moves[source])


# Each square family returns (check, instance, source, sides): the square is
# checked on class functions psi of pattern_group(source, q), and sides(psi)
# is the pair (lhs, rhs) that it says are equal.

def _associativity(A, B, taus):
    """taus: one total order per block of B, in block order; B refines A."""
    top = _ordinal_fold(taus)
    mid = _disjoint_fold(
        _ordinal_fold([t for blk, t in zip(B.blocks, taus) if set(blk) <= set(part)])
        for part in A.blocks
    )
    instance = "A=%s;B=%s;taus=%s" % (
        A.blocks, B.blocks, [t.strict_pairs for t in taus]
    )
    return "associativity", instance, _disjoint_fold(taus), lambda psi: (
        monoid_inflate(top, B, psi),
        monoid_inflate(top, A, monoid_inflate(mid, B, psi)),
    )


def _coassociativity(tau, A, B):
    """tau: total order on the ground; B refines A."""
    split = _disjoint_fold([tau.restrict(part) for part in A.blocks])
    instance = "tau=%s;A=%s;B=%s" % (tau.strict_pairs, A.blocks, B.blocks)
    return "coassociativity", instance, tau, lambda psi: (
        monoid_deflate(tau, B, psi),
        monoid_deflate(split, B, monoid_deflate(tau, A, psi)),
    )


def _compatibility(A, taus, B):
    """taus: one total order per block of A; A and B arbitrary."""
    top, source = _ordinal_fold(taus), _disjoint_fold(taus)
    pieces = _disjoint_fold(
        _ordinal_fold([t.restrict(set(bp) & set(ap)) for ap, t in zip(A.blocks, taus)])
        for bp in B.blocks
    )
    instance = "A=%s;taus=%s;B=%s" % (
        A.blocks, [t.strict_pairs for t in taus], B.blocks
    )
    return "compatibility", instance, source, lambda psi: (
        monoid_deflate(top, B, monoid_inflate(top, A, psi)),
        monoid_inflate(pieces, A, monoid_deflate(source, B, psi)),
    )


def _naturality(sigma, A, op, order):
    """Both sides of relabelling op(order, A, psi) along sigma."""
    moved = SetComposition([[sigma[i] for i in b] for b in A.blocks])
    image, moves = order.relabel(sigma), {}
    return lambda psi: (
        monoid_relabel(op(order, A, psi), sigma, moves),
        op(image, moved, monoid_relabel(psi, sigma, moves)),
    )


def _product_naturality(sigma, A, taus):
    instance = "sigma=%s;A=%s;taus=%s" % (
        sorted(sigma.items()), A.blocks, [t.strict_pairs for t in taus]
    )
    return "naturality-product", instance, _disjoint_fold(taus), _naturality(
        sigma, A, monoid_inflate, _ordinal_fold(taus)
    )


def _coproduct_naturality(sigma, A, tau):
    instance = "sigma=%s;A=%s;tau=%s" % (
        sorted(sigma.items()), A.blocks, tau.strict_pairs
    )
    return "naturality-coproduct", instance, tau, _naturality(
        sigma, A, monoid_deflate, tau
    )


def _square_cases(squares, classes, q, prefix=""):
    """One case per square and class index; classes maps the class count
    of the square's source group to the indices whose indicators to check."""
    for check, instance, source, sides in squares:
        table = pattern_group(source, q)
        for c in classes(len(table.class_reps)):
            yield (check, "%s%s;basis=%d" % (prefix, instance, c),
                   *sides(ClassFunction.class_indicator(table, c)))


def _fubini(n):
    """Number of set compositions of an n-set.  row[k] counts those into k
    blocks: a new label is a singleton block in one of k places or joins
    one of k blocks, which multiplies by small numbers only."""
    row = [1]
    for m in range(1, n + 1):
        row = [0] + [k * (row[k - 1] + (row[k] if k < m else 0))
                     for k in range(1, m + 1)]
    return sum(row)


def _all_squares(n_max):
    """Every square on the ground sets {1, ..., n} for n up to n_max."""
    for n in range(1, n_max + 1):
        ground = tuple(range(1, n + 1))
        comps = list(set_compositions(ground))
        orders = {b: list(total_orders(b)) for c in comps for b in c.blocks}

        def blockwise(comp):
            return itertools.product(*[orders[b] for b in comp.blocks])

        for A in comps:
            for B in refinements(A):
                for taus in blockwise(B):
                    yield _associativity(A, B, taus)
        for tau in orders[ground]:
            for A in comps:
                for B in refinements(A):
                    yield _coassociativity(tau, A, B)
        for A in comps:
            for taus in blockwise(A):
                for B in comps:
                    yield _compatibility(A, taus, B)
        for perm in itertools.permutations(ground):
            sigma = dict(zip(ground, perm))
            for A in comps:
                for taus in blockwise(A):
                    yield _product_naturality(sigma, A, taus)
            for tau in orders[ground]:
                for A in comps:
                    yield _coproduct_naturality(sigma, A, tau)


def _random_composition(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    blocks = []
    i = 0
    while i < len(labels):
        k = rng.randint(1, len(labels) - i)
        blocks.append(labels[i:i + k])
        i += k
    return SetComposition(blocks)


def _random_total(rng, labels):
    labels = list(labels)
    rng.shuffle(labels)
    return chain_order(labels)


def _random_refinement(rng, comp):
    out = SetComposition([])
    for b in comp.blocks:
        out = out.concat(_random_composition(rng, b))
    return out


def _sampled_squares(rng, samples, n):
    """samples squares on {1, ..., n}, each drawn as a family, then A, then
    the family's own choices."""
    ground = tuple(range(1, n + 1))
    for _ in range(samples):
        family = rng.randrange(5)
        A = _random_composition(rng, ground)
        if family == 0:
            B = _random_refinement(rng, A)
            yield _associativity(A, B, [_random_total(rng, b) for b in B.blocks])
        elif family == 1:
            B = _random_refinement(rng, A)
            yield _coassociativity(_random_total(rng, ground), A, B)
        elif family == 2:
            B = _random_composition(rng, ground)
            yield _compatibility(A, [_random_total(rng, b) for b in A.blocks], B)
        else:
            perm = list(ground)
            rng.shuffle(perm)
            sigma = dict(zip(ground, perm))
            if family == 3:
                taus = [_random_total(rng, b) for b in A.blocks]
                yield _product_naturality(sigma, A, taus)
            else:
                yield _coproduct_naturality(sigma, A, _random_total(rng, ground))


def axiom_cases(n_max, q, samples=0, sample_size=4, seed=0):
    """The suite of the five axiom square families.

    All instances with ground size up to n_max are checked over full class
    indicator bases; on top of that, `samples` random instances of ground
    size sample_size are drawn with the seeded generator, each checked on
    one drawn class indicator.  Before any group is built, the budget is
    checked against the largest family, the n!^2 Fubini(n) coproduct
    naturality squares at n = n_max, at least n!^3 >= h^(3h) for h = n // 2,
    and when sampling against the number of samples and the unitriangular
    group every sample builds.
    """
    _check_budget(lambda: math.factorial(n_max) ** 2 * _fubini(n_max),
                  "coproduct naturality squares on %d labels" % n_max,
                  bits=3 * (n_max // 2) * ((n_max // 2).bit_length() - 1))
    if samples:
        _check_budget(samples, "sampled squares")
        _check_ut_budget(sample_size, q)
    rng = random.Random(seed)
    yield from _square_cases(_all_squares(n_max), range, q)
    if samples:
        yield from _square_cases(_sampled_squares(rng, samples, sample_size),
                                 lambda k: [rng.randrange(k)], q, prefix="sample;")


def _pair_instances(max_total_degree, q):
    """(instance, pi, rho) for the ordered pairs of natural unit interval
    orders of total degree at most max_total_degree."""
    by_degree = [natural_unit_interval_orders(n) for n in range(max_total_degree + 1)]
    for i, left in enumerate(by_degree):
        for right in by_degree[:len(by_degree) - i]:
            for pi, rho in itertools.product(left, right):
                instance = "pi=%s;rho=%s;q=%d" % (list(pi.strict), list(rho.strict), q)
                yield instance, pi, rho


def _order_instances(max_degree, q):
    """(instance, pi) for the natural unit interval orders of degree at most
    max_degree."""
    for n in range(max_degree + 1):
        for pi in natural_unit_interval_orders(n):
            yield "pi=%s;n=%d;q=%d" % (list(pi.strict), n, q), pi


def product_oracle_cases(max_total_degree, q):
    """Symbolic shifted ordinal sums against brute-force inflation."""
    _check_ut_budget(max_total_degree, q)
    for instance, pi, rho in _pair_instances(max_total_degree, q):
        yield ("product-oracle", instance,
               specialize(ScfElement.basis(pi) * ScfElement.basis(rho), q),
               ut_product(specialize(ScfElement.basis(pi), q),
                          specialize(ScfElement.basis(rho), q)))


def coproduct_oracle_cases(max_degree, q):
    """Symbolic subset splitting against brute-force parabolic deflation."""
    _check_ut_budget(max_degree, q)
    for instance, pi in _order_instances(max_degree, q):
        x = ScfElement.basis(pi)
        yield ("coproduct-oracle", instance, specialize_tensor(x.coproduct(), q),
               ut_coproduct(specialize(x, q)))


def noncocommutativity_cases():
    """The witness order whose coproduct is not cocommutative, and two
    orders whose product does not commute."""
    pi = Nuio(4, [(1, 4), (2, 4)])
    split = ScfElement.basis(pi).coproduct()
    yield ("noncocommutativity", "pi=%s" % (list(pi.strict),),
           split.component(3, 1), split.component(1, 3).swap(), operator.ne)
    point, pair = ScfElement.basis(Nuio(1)), ScfElement.basis(Nuio(2))
    yield "noncommutativity", "point,antichain", point * pair, pair * point, operator.ne


def verify_reports(*suites):
    """A report per case of each suite in turn; cases are drawn one at a
    time, so each case's sides are dropped once reported."""
    return [_report(*case) for case in itertools.chain(*suites)]
