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
The axiom checks run the associativity, coassociativity, compatibility and
naturality squares on concrete class function bases.

Every sparse value here (LaurentT, ScfElement, TensorScf,
GradedClassFunction, GradedTensor) is a class_functions.Combination: its
`terms` dict maps exponents, orders, pairs of orders, degrees or bidegrees to
nonzero coefficients, and sums of many pieces go through one `collect` call.
"""

from __future__ import annotations

import functools
import hashlib
import itertools
import random
from fractions import Fraction

from .combinatorics import (
    Nuio,
    PartialOrder,
    SetComposition,
    chain_order,
    levi_pattern,
    natural_unit_interval_orders,
    parabolic_pattern,
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

    def graded_component(self, n):
        return ScfElement({pi: c for pi, c in self.terms.items() if pi.n == n})

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

    def map_factors(self, f):
        return TensorScf.collect(
            ((f(l), f(r)), c) for (l, r), c in self.terms.items()
        )

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
                outside = tuple(j for j in labels if j not in set(inside))
                key = (pi.shifted_restrict(inside), pi.shifted_restrict(outside))
                yield key, LaurentT.t(pi.ascent_count(inside))

    return TensorScf.collect(splits())


_ANTIPODE_CACHE = {}


def _antipode_basis(pi):
    """Graded recursion from the counit identity; memoized per basis element."""
    got = _ANTIPODE_CACHE.get(pi)
    if got is not None:
        return got
    if pi.n == 0:
        out = ScfElement.unit()
    else:
        out = -ScfElement.collect(itertools.chain(
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
    _ANTIPODE_CACHE[pi] = out
    return out


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
    allowed = set(pi.strict)

    def member(m):
        for i in table.ground:
            for j in table.ground:
                if i != j and m.entry(i, j) and (i, j) not in allowed:
                    return False
        return True

    return ClassFunction.subgroup_indicator(table, member)


def specialize(x, q):
    """Evaluate coefficients at t = 1/q and realize basis elements as indicators."""
    point = Fraction(1, q)
    values = ((pi, c.evaluate(point)) for pi, c in x.terms.items())
    return GradedClassFunction.collect(
        ((pi.n, pattern_indicator(pi, q) * v) for pi, v in values if v), q
    )


@functools.lru_cache(maxsize=None)
def split_tables(n, inside, q):
    """Levi and radical pattern tables of the unitriangular group on
    {1, ..., n}, split into the labels inside (a tuple) and the rest."""
    chain = chain_order(range(1, n + 1))
    comp = split_composition(n, inside)
    return (
        pattern_group(levi_pattern(chain, comp), q),
        pattern_group(radical_pattern(chain, comp), q),
    )


def ut_product_component(psi_a, psi_b):
    """Inflation of the block diagonal join up the initial segment split."""
    q = psi_a.group.p
    i = len(psi_a.group.ground)
    j = len(psi_b.group.ground)
    n = i + j
    big = ut_table(n, q)
    levi, radical = split_tables(n, tuple(range(1, i + 1)), q)
    tensor = TensorFunction.outer(psi_a, psi_b)
    on_levi = unstraighten_cf(tensor, range(1, i + 1), levi)
    return inflate_cf(on_levi, big, levi, radical)


def ut_product(a, b):
    assert a.q == b.q
    return GradedClassFunction.collect(
        (
            (i + j, ut_product_component(fa, fb))
            for i, fa in a.terms.items()
            for j, fb in b.terms.items()
        ),
        a.q,
    )


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


def ut_dagger(a):
    from .class_functions import dagger_cf

    return GradedClassFunction(
        a.q, {n: dagger_cf(f) for n, f in a.terms.items()}
    )


def _report(check, instance, lhs, rhs):
    return {
        "check": check,
        "instance": instance,
        "status": "ok" if lhs == rhs else "fail",
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

    ambient must have no pairs descending against comp, which is exactly
    when the parabolic of the pair is the whole group.
    """
    q = psi.group.p
    assert parabolic_pattern(ambient, comp) == ambient
    big = pattern_group(ambient, q)
    levi = pattern_group(levi_pattern(ambient, comp), q)
    radical = pattern_group(radical_pattern(ambient, comp), q)
    assert psi.group is levi
    return inflate_cf(psi, big, levi, radical)


def monoid_deflate(ambient, comp, psi):
    """Parabolic restriction then radical averaging, blockwise over comp."""
    q = psi.group.p
    levi = pattern_group(levi_pattern(ambient, comp), q)
    radical = pattern_group(radical_pattern(ambient, comp), q)
    return deflate_cf(psi, levi, radical)


def monoid_relabel(psi, mapping):
    """Push a pattern group class function forward along a relabelling."""
    src = psi.group.pattern
    target = pattern_group(src.relabel(mapping), psi.group.p)
    inverse = {v: k for k, v in mapping.items()}
    return pullback_cf(psi, target, lambda m: m.relabel(inverse))


def _relabel_comp(comp, mapping):
    return SetComposition([[mapping[i] for i in b] for b in comp.blocks])


def check_product_associativity(A, B, taus, class_idx, q):
    """taus: one total order per block of B, in block order; B refines A."""
    source = pattern_group(_disjoint_fold(taus), q)
    psi = ClassFunction.class_indicator(source, class_idx)
    lhs = monoid_inflate(_ordinal_fold(taus), B, psi)
    mid_orders = []
    for part in A.blocks:
        pieces = [t for blk, t in zip(B.blocks, taus) if set(blk) <= set(part)]
        mid_orders.append(_ordinal_fold(pieces))
    mid = monoid_inflate(_disjoint_fold(mid_orders), B, psi)
    rhs = monoid_inflate(_ordinal_fold(taus), A, mid)
    instance = "A=%s;B=%s;taus=%s;basis=%d" % (
        A.blocks, B.blocks, [t.strict_pairs for t in taus], class_idx
    )
    return _report("associativity", instance, lhs, rhs)


def check_coproduct_coassociativity(tau, A, B, class_idx, q):
    """tau: total order on the ground; B refines A."""
    source = pattern_group(tau, q)
    psi = ClassFunction.class_indicator(source, class_idx)
    lhs = monoid_deflate(tau, B, psi)
    mid = monoid_deflate(tau, A, psi)
    split = _disjoint_fold([tau.restrict(part) for part in A.blocks])
    rhs = monoid_deflate(split, B, mid)
    instance = "tau=%s;A=%s;B=%s;basis=%d" % (
        tau.strict_pairs, A.blocks, B.blocks, class_idx
    )
    return _report("coassociativity", instance, lhs, rhs)


def check_compatibility(A, taus, B, class_idx, q):
    """taus: one total order per block of A; A and B arbitrary."""
    source = pattern_group(_disjoint_fold(taus), q)
    psi = ClassFunction.class_indicator(source, class_idx)
    merged = monoid_inflate(_ordinal_fold(taus), A, psi)
    lhs = monoid_deflate(_ordinal_fold(taus), B, merged)
    step1 = monoid_deflate(_disjoint_fold(taus), B, psi)
    piece_orders = []
    for bpart in B.blocks:
        inner = [
            t.restrict(set(bpart) & set(apart))
            for apart, t in zip(A.blocks, taus)
        ]
        piece_orders.append(_ordinal_fold(inner))
    rhs = monoid_inflate(_disjoint_fold(piece_orders), A, step1)
    assert lhs.group is rhs.group
    instance = "A=%s;taus=%s;B=%s;basis=%d" % (
        A.blocks, [t.strict_pairs for t in taus], B.blocks, class_idx
    )
    return _report("compatibility", instance, lhs, rhs)


def check_product_naturality(sigma, A, taus, class_idx, q):
    source = pattern_group(_disjoint_fold(taus), q)
    psi = ClassFunction.class_indicator(source, class_idx)
    lhs = monoid_relabel(monoid_inflate(_ordinal_fold(taus), A, psi), sigma)
    rhs = monoid_inflate(
        _ordinal_fold(taus).relabel(sigma),
        _relabel_comp(A, sigma),
        monoid_relabel(psi, sigma),
    )
    instance = "sigma=%s;A=%s;taus=%s;basis=%d" % (
        sorted(sigma.items()), A.blocks, [t.strict_pairs for t in taus], class_idx
    )
    return _report("naturality-product", instance, lhs, rhs)


def check_coproduct_naturality(sigma, A, tau, class_idx, q):
    source = pattern_group(tau, q)
    psi = ClassFunction.class_indicator(source, class_idx)
    lhs = monoid_relabel(monoid_deflate(tau, A, psi), sigma)
    rhs = monoid_deflate(
        tau.relabel(sigma), _relabel_comp(A, sigma), monoid_relabel(psi, sigma)
    )
    instance = "sigma=%s;A=%s;tau=%s;basis=%d" % (
        sorted(sigma.items()), A.blocks, tau.strict_pairs, class_idx
    )
    return _report("naturality-coproduct", instance, lhs, rhs)


def axiom_reports(n_max, q, samples=0, sample_size=4, seed=0):
    """Run the four axiom square families.

    All instances with ground size up to n_max are checked over full class
    indicator bases; on top of that, `samples` random instances of ground
    size sample_size are drawn with the seeded generator.
    """
    reports = []
    for n in range(1, n_max + 1):
        ground = tuple(range(1, n + 1))
        comps = list(set_compositions(ground))
        orders = {b: list(total_orders(b)) for c in comps for b in c.blocks}
        for A in comps:
            for B in refinements(A):
                for taus in itertools.product(*[orders[b] for b in B.blocks]):
                    source = pattern_group(_disjoint_fold(taus), q)
                    for c in range(len(source.class_reps)):
                        reports.append(
                            check_product_associativity(A, B, list(taus), c, q)
                        )
        for tau in total_orders(ground):
            table = pattern_group(tau, q)
            for A in comps:
                for B in refinements(A):
                    for c in range(len(table.class_reps)):
                        reports.append(
                            check_coproduct_coassociativity(tau, A, B, c, q)
                        )
        for A in comps:
            for taus in itertools.product(*[orders[b] for b in A.blocks]):
                source = pattern_group(_disjoint_fold(taus), q)
                for B in comps:
                    for c in range(len(source.class_reps)):
                        reports.append(
                            check_compatibility(A, list(taus), B, c, q)
                        )
        for perm in itertools.permutations(ground):
            sigma = {k: perm[k - 1] for k in ground}
            for A in comps:
                for taus in itertools.product(*[orders[b] for b in A.blocks]):
                    source = pattern_group(_disjoint_fold(taus), q)
                    for c in range(len(source.class_reps)):
                        reports.append(
                            check_product_naturality(sigma, A, list(taus), c, q)
                        )
            for tau in total_orders(ground):
                table = pattern_group(tau, q)
                for A in comps:
                    for c in range(len(table.class_reps)):
                        reports.append(
                            check_coproduct_naturality(sigma, A, tau, c, q)
                        )
    if samples:
        rng = random.Random(seed)
        reports.extend(_sampled_reports(rng, samples, sample_size, q))
    return reports


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


def _sampled_reports(rng, samples, n, q):
    ground = tuple(range(1, n + 1))
    reports = []
    while len(reports) < samples:
        family = rng.randrange(5)
        A = _random_composition(rng, ground)
        if family == 0:
            B = _random_refinement(rng, A)
            taus = [_random_total(rng, b) for b in B.blocks]
            source = pattern_group(_disjoint_fold(taus), q)
            c = rng.randrange(len(source.class_reps))
            reports.append(check_product_associativity(A, B, taus, c, q))
        elif family == 1:
            B = _random_refinement(rng, A)
            tau = _random_total(rng, ground)
            table = pattern_group(tau, q)
            c = rng.randrange(len(table.class_reps))
            reports.append(check_coproduct_coassociativity(tau, A, B, c, q))
        elif family == 2:
            B = _random_composition(rng, ground)
            taus = [_random_total(rng, b) for b in A.blocks]
            source = pattern_group(_disjoint_fold(taus), q)
            c = rng.randrange(len(source.class_reps))
            reports.append(check_compatibility(A, taus, B, c, q))
        elif family == 3:
            perm = list(ground)
            rng.shuffle(perm)
            sigma = {k: perm[k - 1] for k in ground}
            taus = [_random_total(rng, b) for b in A.blocks]
            source = pattern_group(_disjoint_fold(taus), q)
            c = rng.randrange(len(source.class_reps))
            reports.append(check_product_naturality(sigma, A, taus, c, q))
        else:
            perm = list(ground)
            rng.shuffle(perm)
            sigma = {k: perm[k - 1] for k in ground}
            tau = _random_total(rng, ground)
            table = pattern_group(tau, q)
            c = rng.randrange(len(table.class_reps))
            reports.append(check_coproduct_naturality(sigma, A, tau, c, q))
        reports[-1]["instance"] = "sample;" + reports[-1]["instance"]
    return reports


def product_oracle_reports(max_total_degree, q):
    """Symbolic shifted ordinal sums against brute-force inflation."""
    reports = []
    by_degree = {
        n: natural_unit_interval_orders(n) for n in range(max_total_degree + 1)
    }
    for i in range(max_total_degree + 1):
        for j in range(max_total_degree + 1 - i):
            for pi in by_degree[i]:
                for rho in by_degree[j]:
                    lhs = specialize(
                        ScfElement.basis(pi) * ScfElement.basis(rho), q
                    )
                    rhs = ut_product(
                        specialize(ScfElement.basis(pi), q),
                        specialize(ScfElement.basis(rho), q),
                    )
                    instance = "pi=%s;rho=%s;q=%d" % (
                        list(pi.strict), list(rho.strict), q
                    )
                    reports.append(_report("product-oracle", instance, lhs, rhs))
    return reports


def coproduct_oracle_reports(max_degree, q):
    """Symbolic subset splitting against brute-force parabolic deflation."""
    reports = []
    for n in range(max_degree + 1):
        for pi in natural_unit_interval_orders(n):
            x = ScfElement.basis(pi)
            lhs = specialize_tensor(x.coproduct(), q)
            rhs = ut_coproduct(specialize(x, q))
            instance = "pi=%s;n=%d;q=%d" % (list(pi.strict), n, q)
            reports.append(_report("coproduct-oracle", instance, lhs, rhs))
    return reports
