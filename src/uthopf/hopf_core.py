"""The Hopf algebra of unit interval orders and its unitriangular realization.

Symbolic side: finite Laurent-coefficient combinations of natural unit
interval orders, with shifted ordinal sum as product and subset splitting as
coproduct; the coefficient of a splitting is t to the number of upward
noncomparabilities leaving the chosen subset.  Setting t = 1/q turns a basis
element into the normalized indicator of its pattern subgroup inside the full
unitriangular group, and the symbolic operations match inflation and
parabolic deflation of those indicators; that match is what the oracle
checks in this module verify.

Species side: the same operations before quotienting by relabelling,
realized on explicit pattern groups over a composition of the ground set.
`pattern_split` is the one builder of their Levi and radical tables.  The
axiom checks run the associativity, coassociativity, compatibility and
naturality squares on concrete class function bases.  Each of the five
square families is declared once; one driver checks the exhaustive stream
of squares and the seeded sampled stream alike.

Every sparse value here (LaurentT, ScfElement, TensorScf,
GradedClassFunction, GradedTensor) is a class_functions.Combination: its
`terms` dict maps exponents, orders, pairs of orders, degrees or bidegrees to
nonzero coefficients, and sums of many pieces go through one `collect` call.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import math
import operator
import random
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
from .group_engine import pattern_group, ut_table
from .class_functions import (
    ClassFunction,
    Combination,
    TensorFunction,
    dagger_cf,
    deflate_cf,
    inflate_cf,
    pullback_cf,
    straighten_cf,
    unstraighten_cf,
)


def short_hash(text):
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def frac_str(x):
    x = Fraction(x)
    return "%d/%d" % (x.numerator, x.denominator)


class LaurentT(Combination):
    """Laurent polynomial in one variable t over the rationals: a
    combination of exponents with Fraction coefficients."""

    __slots__ = ()

    @staticmethod
    def _coerce(v):
        return v if type(v) is Fraction else Fraction(v)

    @classmethod
    def one(cls):
        return cls({0: 1})

    @classmethod
    def t(cls, k=1):
        return cls({k: 1})

    @classmethod
    def scalar(cls, x):
        return cls({0: Fraction(x)})

    __add__ = Combination.__add__

    def __mul__(self, other):
        if not isinstance(other, LaurentT):
            other = LaurentT.scalar(other)
        return LaurentT.collect(
            (k1 + k2, v1 * v2)
            for k1, v1 in self.terms.items()
            for k2, v2 in other.terms.items()
        )

    __rmul__ = __mul__

    def __hash__(self):
        return hash(tuple(sorted(self.terms.items())))

    def evaluate(self, x):
        x = Fraction(x)
        total = Fraction(0)
        for k, v in self.terms.items():
            total += v * x ** k
        return total

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
        return {str(k): frac_str(v) for k, v in sorted(self.terms.items())}

    @classmethod
    def from_dict(cls, data):
        return cls({int(k): Fraction(v) for k, v in data.items()})


def _laurent(c):
    return c if isinstance(c, LaurentT) else LaurentT.scalar(c)


class ScfElement(Combination):
    """Laurent-coefficient combination of natural unit interval orders."""

    __slots__ = ()

    _coerce = staticmethod(_laurent)

    @classmethod
    def basis(cls, pi):
        return cls({pi: LaurentT.one()})

    @classmethod
    def unit(cls):
        return cls.basis(Nuio(0))

    def sorted_terms(self):
        return sorted(self.terms.items(), key=lambda kv: kv[0].key())

    def __mul__(self, other):
        return ScfElement.collect(
            (pi.shifted_sum(rho), a * b)
            for pi, a in self.terms.items()
            for rho, b in other.terms.items()
        )

    def __repr__(self):
        if not self.terms:
            return "ScfElement(0)"
        bits = [
            "(%s) * %r" % (c, pi) for pi, c in self.sorted_terms()
        ]
        return "ScfElement(%s)" % " + ".join(bits)

    def degrees(self):
        return sorted({pi.n for pi in self.terms})

    def counit(self):
        return self.terms.get(Nuio(0), LaurentT.zero())

    def coproduct(self):
        return TensorScf.collect(
            (key, c * v)
            for pi, c in self.terms.items()
            for key, v in _coproduct_basis(pi).terms.items()
        )

    def antipode(self):
        return ScfElement.collect(
            (rho, c * v)
            for pi, c in self.terms.items()
            for rho, v in _antipode_basis(pi).terms.items()
        )

    def dagger(self):
        return ScfElement({pi.dagger(): c for pi, c in self.terms.items()})

    def to_dict(self):
        return {
            "terms": [
                {
                    "n": pi.n,
                    "strict": [list(p) for p in pi.strict],
                    "coeff": c.to_dict(),
                }
                for pi, c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_dict(cls, data):
        return cls.collect(
            (
                Nuio(term["n"], [tuple(p) for p in term.get("strict", [])]),
                LaurentT.from_dict(term.get("coeff", {"0": "1/1"})),
            )
            for term in data.get("terms", [])
        )


class TensorScf(Combination):
    """Combination of ordered pairs of unit interval orders."""

    __slots__ = ()

    _coerce = staticmethod(_laurent)

    def sorted_terms(self):
        return sorted(
            self.terms.items(),
            key=lambda kv: (kv[0][0].n, kv[0][0].key(), kv[0][1].key()),
        )

    def __mul__(self, other):
        return TensorScf.collect(
            ((l1.shifted_sum(l2), r1.shifted_sum(r2)), a * b)
            for (l1, r1), a in self.terms.items()
            for (l2, r2), b in other.terms.items()
        )

    def swap(self):
        return TensorScf({(r, l): c for (l, r), c in self.terms.items()})

    def component(self, i, j):
        return TensorScf(
            {k: c for k, c in self.terms.items() if k[0].n == i and k[1].n == j}
        )

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
    _check_budget(2 ** pi.n, "splitting a degree %d order" % pi.n)
    labels = range(1, pi.n + 1)

    def splits():
        for k in range(pi.n + 1):
            for inside in itertools.combinations(labels, k):
                chosen = set(inside)
                outside = tuple(j for j in labels if j not in chosen)
                key = (pi.shifted_restrict(inside), pi.shifted_restrict(outside))
                yield key, LaurentT.t(pi.ascent_count(inside))

    return TensorScf.collect(splits())


@functools.lru_cache(maxsize=None)
def _antipode_basis(pi):
    """Graded recursion from the counit identity; memoized per basis element."""
    if pi.n == 0:
        return ScfElement.unit()
    return -ScfElement.collect(itertools.chain(
        [(pi, 1)],
        (
            (rho, c * v)
            for (left, right), c in _coproduct_basis(pi).terms.items()
            if left.n != pi.n and right.n != pi.n
            for rho, v in (
                _antipode_basis(left) * ScfElement.basis(right)
            ).terms.items()
        ),
    ))


class _AtPrime(Combination):
    """A combination whose context is one prime q."""

    __slots__ = ("q",)

    def __init__(self, q, terms=None):
        self.q = q
        super().__init__(terms)

    @property
    def context(self):
        return (self.q,)


class GradedClassFunction(_AtPrime):
    """Finitely supported graded family of class functions at one prime: a
    combination of degrees with ClassFunction coefficients."""

    __slots__ = ()

    def __repr__(self):
        return "GradedClassFunction(q=%d, %s)" % (
            self.q,
            {n: list(f.values) for n, f in sorted(self.terms.items())},
        )

    def to_dict(self):
        comps = []
        for n in sorted(self.terms):
            f = self.terms[n]
            comps.append({
                "n": n,
                "group": f.group.name,
                "values": [
                    {
                        "class_rep": f.group.elements[r].to_digits(),
                        "value": frac_str(v),
                    }
                    for r, v in zip(f.group.class_reps, f.values)
                ],
            })
        return {"q": self.q, "components": comps}

    def dagger(self):
        return GradedClassFunction(
            self.q, {n: dagger_cf(f) for n, f in self.terms.items()}
        )


class GradedTensor(_AtPrime):
    """Graded family of two factor tensors at one prime: a combination of
    bidegrees (i, j) with TensorFunction coefficients."""

    __slots__ = ()

    def __repr__(self):
        return "GradedTensor(q=%d, %s)" % (self.q, sorted(self.terms.items()))


@functools.lru_cache(maxsize=None)
def pattern_indicator(pi, q):
    """Indicator of the pattern subgroup inside the full unitriangular group.

    Built with a class constancy check, so constructing it doubles as a
    certificate that the pattern subgroup is normal.
    """
    table = ut_table(pi.n, q)
    prof = pi.profile()
    cells = [(i - 1, j - 1) for i, j in itertools.combinations(table.ground, 2)
             if j < prof[i - 1]]
    return ClassFunction.subgroup_indicator(
        table, lambda m: not any(m.rows[r][c] for r, c in cells)
    )


def specialize(x, q):
    """Evaluate coefficients at t = 1/q and realize basis elements as indicators."""
    point = Fraction(1, q)
    values = ((pi, c.evaluate(point)) for pi, c in x.terms.items())
    return GradedClassFunction.collect(
        ((pi.n, pattern_indicator(pi, q) * v) for pi, v in values if v), q
    )


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


def ut_coproduct(a):
    """Parabolic deflations over all subsets, straightened and graded."""

    def pieces():
        for n, psi in a.terms.items():
            for k in range(n + 1):
                for inside in itertools.combinations(range(1, n + 1), k):
                    levi, radical = split_tables(n, inside, a.q)
                    on_levi = deflate_cf(psi, levi, radical)
                    yield (k, n - k), straighten_cf(
                        on_levi, inside, ut_table(k, a.q), ut_table(n - k, a.q)
                    )

    return GradedTensor.collect(pieces(), a.q)


def specialize_tensor(tx, q):
    point = Fraction(1, q)
    values = ((key, c.evaluate(point)) for key, c in tx.terms.items())
    return GradedTensor.collect(
        (
            (
                (l.n, r.n),
                TensorFunction.outer(
                    pattern_indicator(l, q), pattern_indicator(r, q)
                ).scale(v),
            )
            for (l, r), v in values
            if v
        ),
        q,
    )


def _report(check, instance, lhs, rhs, relation=operator.eq):
    """One report line: ok when relation(lhs, rhs) holds."""
    return {
        "check": check,
        "instance": instance,
        "status": "ok" if relation(lhs, rhs) else "fail",
        "lhs_hash": short_hash(repr(lhs)),
        "rhs_hash": short_hash(repr(rhs)),
    }


def _ordinal_fold(orders):
    out = PartialOrder((), ())
    for o in orders:
        out = out.ordinal_sum(o)
    return out


def _disjoint_fold(orders):
    out = PartialOrder((), ())
    for o in orders:
        out = out.disjoint_union(o)
    return out


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


def monoid_relabel(psi, mapping):
    """Push a pattern group class function forward along a relabelling."""
    src = psi.group.pattern
    target = pattern_group(src.relabel(mapping), psi.group.p)
    inverse = {v: k for k, v in mapping.items()}
    return pullback_cf(psi, target, lambda m: m.relabel(inverse))


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
    return lambda psi: (
        monoid_relabel(op(order, A, psi), sigma),
        op(order.relabel(sigma), moved, monoid_relabel(psi, sigma)),
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


def _square_reports(squares, classes, q, prefix=""):
    """One report per square and class index; classes maps the class count
    of the square's source group to the indices whose indicators to check."""
    reports = []
    for check, instance, source, sides in squares:
        table = pattern_group(source, q)
        for c in classes(len(table.class_reps)):
            lhs, rhs = sides(ClassFunction.class_indicator(table, c))
            text = "%s%s;basis=%d" % (prefix, instance, c)
            reports.append(_report(check, text, lhs, rhs))
    return reports


def _fubini(n):
    """Number of set compositions of an n-set, by a(m) = sum C(m, k) a(m - k)."""
    a = [1]
    for m in range(1, n + 1):
        a.append(sum(math.comb(m, k) * a[m - k] for k in range(1, m + 1)))
    return a[n]


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


def axiom_reports(n_max, q, samples=0, sample_size=4, seed=0):
    """Run the four axiom square families.

    All instances with ground size up to n_max are checked over full class
    indicator bases; on top of that, `samples` random instances of ground
    size sample_size are drawn with the seeded generator, each checked on
    one drawn class indicator.  Before any group is built, the budget is
    checked against the largest family, the n!^2 Fubini(n) coproduct
    naturality squares at n = n_max.
    """
    size = math.factorial(n_max) ** 2 * _fubini(n_max)
    _check_budget(size, "coproduct naturality squares on %d labels" % n_max)
    rng = random.Random(seed)
    return _square_reports(_all_squares(n_max), range, q) + _square_reports(
        _sampled_squares(rng, samples, sample_size),
        lambda k: [rng.randrange(k)], q, prefix="sample;",
    )


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


def product_oracle_reports(max_total_degree, q):
    """Symbolic shifted ordinal sums against brute-force inflation."""
    reports = []
    for instance, pi, rho in _pair_instances(max_total_degree, q):
        lhs = specialize(ScfElement.basis(pi) * ScfElement.basis(rho), q)
        rhs = ut_product(
            specialize(ScfElement.basis(pi), q), specialize(ScfElement.basis(rho), q)
        )
        reports.append(_report("product-oracle", instance, lhs, rhs))
    return reports


def coproduct_oracle_reports(max_degree, q):
    """Symbolic subset splitting against brute-force parabolic deflation."""
    reports = []
    for instance, pi in _order_instances(max_degree, q):
        x = ScfElement.basis(pi)
        lhs = specialize_tensor(x.coproduct(), q)
        rhs = ut_coproduct(specialize(x, q))
        reports.append(_report("coproduct-oracle", instance, lhs, rhs))
    return reports
