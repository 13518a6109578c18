"""Set compositions and labelled partial orders.

Ground sets are finite sets of ints, always carried as sorted tuples.  A set
composition is an ordered tuple of disjoint nonempty blocks.  A partial order
is stored as its full relation, reflexive and transitively closed, with a
pair (i, j) meaning i is weakly below j.  Relabelling along a bijection sigma
always pushes structure forward: (i, j) becomes (sigma(i), sigma(j)).

Natural unit interval orders live on {1, ..., n}: every strict relation
points numerically upward, and whenever i is strictly below j, every i' <= i
is strictly below every j' >= j.  They are counted by the Catalan numbers,
and they are exactly the patterns whose unitriangular groups are normal in
the full unitriangular group.  Each one is held as its row profile, the
nondecreasing list of the least label strictly above each row, which is its
Dyck path; sums, restrictions and the flip are closed formulas on profiles.

The enumeration budget (default 25000 items, overridable through the
UTHOPF_BUDGET environment variable) lives here so that every module can
check it before an enumeration starts.
"""

from __future__ import annotations

import bisect
import itertools
import math
import os


class BudgetError(RuntimeError):
    """Raised when an enumeration would exceed the configured budget."""


def enumeration_budget():
    raw = os.environ.get("UTHOPF_BUDGET", "25000")
    try:
        value = int(raw)
    except ValueError:
        raise BudgetError(f"UTHOPF_BUDGET must be an integer, got {raw!r}")
    if value < 1:
        raise BudgetError(f"UTHOPF_BUDGET must be positive, got {value}")
    return value


def _check_budget(size, what):
    cap = enumeration_budget()
    if size > cap:
        raise BudgetError(f"{what} needs {size} elements, budget is {cap}")


def _relation_axioms(pairs):
    """Check antisymmetry and transitivity; reflexivity is checked separately."""
    for i, j in pairs:
        if i != j and (j, i) in pairs:
            return False, f"antisymmetry fails at {(i, j)}"
    for i, j in pairs:
        for k, l in pairs:
            if k == j and (i, l) not in pairs:
                return False, f"transitivity fails at {(i, j)}, {(k, l)}"
    return True, ""


class SetComposition:
    """Ordered tuple of disjoint nonempty blocks of ints.

    >>> SetComposition([[3, 1], [2]]).blocks
    ((1, 3), (2,))
    >>> SetComposition([[1, 3], [2]]).ground
    (1, 2, 3)
    """

    __slots__ = ("blocks", "ground")

    def __init__(self, blocks):
        blocks = tuple(tuple(sorted(int(i) for i in b)) for b in blocks)
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        seen = [i for b in blocks for i in b]
        if len(set(seen)) != len(seen):
            raise ValueError("blocks must be disjoint")
        self.blocks = blocks
        self.ground = tuple(sorted(seen))

    def __len__(self):
        return len(self.blocks)

    def __iter__(self):
        return iter(self.blocks)

    def __getitem__(self, k):
        return self.blocks[k]

    def __eq__(self, other):
        return isinstance(other, SetComposition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return "SetComposition(%s)" % (list(map(list, self.blocks)),)

    def concat(self, other):
        """Place the blocks of other after the blocks of self.

        The ground sets must be disjoint.

        >>> SetComposition([[1]]).concat(SetComposition([[2, 3]])).blocks
        ((1,), (2, 3))
        """
        return SetComposition(self.blocks + other.blocks)

    def restrict(self, labels):
        """Intersect each block with labels and drop the empty intersections."""
        labels = set(labels)
        kept = [tuple(i for i in b if i in labels) for b in self.blocks]
        return SetComposition([b for b in kept if b])


def equal_pairs(comp):
    """All pairs (i, j) with i and j in the same block, including i == j."""
    out = set()
    for b in comp.blocks:
        out.update(itertools.product(b, b))
    return frozenset(out)


def ascent_pairs(comp):
    """All pairs (i, j) with the block of i strictly before the block of j."""
    out = set()
    for r, br in enumerate(comp.blocks):
        for bs in comp.blocks[r + 1:]:
            out.update(itertools.product(br, bs))
    return frozenset(out)


def set_compositions(ground):
    """All set compositions of the ground set, first block chosen first.

    >>> sum(1 for _ in set_compositions((1, 2, 3)))
    13
    """
    ground = tuple(sorted(ground))
    if not ground:
        yield SetComposition([])
        return
    for k in range(1, len(ground) + 1):
        for first in itertools.combinations(ground, k):
            chosen = set(first)
            rest = tuple(i for i in ground if i not in chosen)
            for tail in set_compositions(rest):
                yield SetComposition((first,) + tail.blocks)


def refinements(comp):
    """All compositions refining comp, block by block."""
    pools = [list(set_compositions(b)) for b in comp.blocks]
    for choice in itertools.product(*pools):
        out = SetComposition([])
        for piece in choice:
            out = out.concat(piece)
        yield out


def split_composition(n, inside):
    """The labels inside, then the rest of {1, ..., n}; empty blocks dropped.

    >>> split_composition(4, (1, 3)).blocks
    ((1, 3), (2, 4))
    """
    outside = [j for j in range(1, n + 1) if j not in inside]
    return SetComposition([b for b in (inside, outside) if b])


class PartialOrder:
    """A partial order held as its full reflexive, transitive relation."""

    __slots__ = ("ground", "pairs", "_strict")

    def __init__(self, ground, pairs):
        ground = tuple(sorted(int(i) for i in ground))
        if len(set(ground)) != len(ground):
            raise ValueError("repeated labels")
        pairs = frozenset((int(i), int(j)) for i, j in pairs)
        labels = set(ground)
        if not all(i in labels and j in labels for i, j in pairs):
            raise ValueError("stray label")
        if not all((i, i) in pairs for i in ground):
            raise ValueError("relation must be reflexive")
        ok, reason = _relation_axioms(pairs)
        if not ok:
            raise ValueError(reason)
        self.ground = ground
        self.pairs = pairs
        self._strict = tuple(sorted((i, j) for i, j in pairs if i != j))

    @property
    def strict_pairs(self):
        return self._strict

    def __eq__(self, other):
        return (
            isinstance(other, PartialOrder)
            and self.ground == other.ground
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.ground, self.pairs))

    def __repr__(self):
        return "PartialOrder(%s, strict=%s)" % (list(self.ground), list(self._strict))

    def key(self):
        return (self.ground, self._strict)

    def restrict(self, labels):
        labels = set(labels)
        if not labels <= set(self.ground):
            raise ValueError("restriction labels must lie in the ground")
        return PartialOrder(
            sorted(labels),
            {(i, j) for i, j in self.pairs if i in labels and j in labels},
        )

    def relabel(self, mapping):
        """Push forward along a bijection given as a dict on the ground set."""
        images = list(mapping.values())
        if set(mapping) != set(self.ground) or len(set(images)) != len(images):
            raise ValueError("relabelling must be a bijection on the ground")
        return PartialOrder(images, {(mapping[i], mapping[j]) for i, j in self.pairs})

    def disjoint_union(self, other):
        """Raises ValueError, as a repeated label, if the grounds overlap."""
        return PartialOrder(self.ground + other.ground, self.pairs | other.pairs)

    def ordinal_sum(self, other):
        """Disjoint union with every label of self placed below every label of
        other; raises ValueError, as a repeated label, if the grounds overlap."""
        cross = set(itertools.product(self.ground, other.ground))
        return PartialOrder(
            self.ground + other.ground, self.pairs | other.pairs | cross
        )


def chain_order(seq):
    """The total order listing seq from bottom to top.

    >>> chain_order([2, 1, 3]).strict_pairs
    ((1, 3), (2, 1), (2, 3))
    """
    seq = [int(i) for i in seq]
    pairs = [(seq[a], seq[b]) for a in range(len(seq)) for b in range(a, len(seq))]
    return PartialOrder(seq, pairs)


def total_orders(ground):
    """All total orders on the ground set, bottom label varying slowest."""
    for perm in itertools.permutations(sorted(ground)):
        yield chain_order(perm)


def levi_pattern(order, comp):
    """The part of the order lying within single blocks of the composition."""
    if set(comp.ground) != set(order.ground):
        raise ValueError("composition and order on different grounds")
    eq = equal_pairs(comp)
    return PartialOrder(order.ground, order.pairs & eq)


def radical_pattern(order, comp):
    """The part of the order pointing from earlier blocks into later ones."""
    if set(comp.ground) != set(order.ground):
        raise ValueError("composition and order on different grounds")
    asc = ascent_pairs(comp)
    diag = {(i, i) for i in order.ground}
    return PartialOrder(order.ground, (order.pairs & asc) | diag)


def parabolic_pattern(order, comp):
    """The part of the order not pointing from later blocks into earlier ones."""
    if set(comp.ground) != set(order.ground):
        raise ValueError("composition and order on different grounds")
    keep = equal_pairs(comp) | ascent_pairs(comp)
    return PartialOrder(order.ground, order.pairs & keep)


def standardize(labels):
    """Map the k-th smallest label to k, as a dict.

    >>> standardize((2, 5, 3))
    {2: 1, 3: 2, 5: 3}
    """
    return {s: r for r, s in enumerate(sorted(labels), start=1)}


class Nuio:
    """Natural unit interval order on {1, ..., n}, held as its row profile.

    Row i is strictly below exactly the labels c(i), c(i) + 1, ..., n, where
    the profile c is nondecreasing with i < c(i) <= n + 1; it is the Dyck
    path of the order, and the sorted strict pairs are derived from it on
    each read.  Every operation computes the profile of its result directly
    and builds it with from_profile; Nuio(n, strict) is the validating entry
    for outside input.
    """

    __slots__ = ("n", "_profile")

    def __init__(self, n, strict=()):
        """Accept strict pairs whose transitive closure is such an order.

        >>> Nuio(3, [(1, 2), (2, 3)]).strict
        ((1, 2), (1, 3), (2, 3))
        """
        n = int(n)
        if n < 0:
            raise ValueError("size must be nonnegative, got %d" % n)
        above = {i: set() for i in range(1, n + 1)}
        for i, j in strict:
            i, j = int(i), int(j)
            if i not in above or j not in above:
                raise ValueError("stray label in %s" % ((i, j),))
            if i > j:
                raise ValueError("strict pairs must point numerically upward")
            if i < j:
                above[i].add(j)
        prof = [n + 1] * n
        # Every pair points upward, so the rows above i are closed before
        # row i is: one downward pass takes the transitive closure.
        for i in range(n, 0, -1):
            row = above[i]
            for j in list(row):
                row |= above[j]
            prof[i - 1] = min(row, default=n + 1)
            if row != set(range(prof[i - 1], n + 1)):
                raise ValueError("row %d is not an upper interval" % i)
        self._assign(tuple(prof))

    @classmethod
    def from_profile(cls, prof):
        """The order with the given profile tuple, checked in O(n).

        >>> Nuio.from_profile((4, 4, 5, 5)).strict
        ((1, 4), (2, 4))
        """
        self = cls.__new__(cls)
        self._assign(prof)
        return self

    def _assign(self, prof):
        n = len(prof)
        for i, c in enumerate(prof, start=1):
            if not i < c <= n + 1:
                raise ValueError("row %d has minimum %d, outside (%d, %d]"
                                 % (i, c, i, n + 1))
        if any(a > b for a, b in zip(prof, prof[1:])):
            raise ValueError("row minima must be nondecreasing")
        self.n = n
        self._profile = prof

    @property
    def strict(self):
        n = self.n
        return tuple((i, j) for i, c in enumerate(self._profile, start=1)
                     for j in range(c, n + 1))

    def profile(self):
        return self._profile

    def key(self):
        return (self.n, self.strict)

    def __eq__(self, other):
        return isinstance(other, Nuio) and self._profile == other._profile

    def __hash__(self):
        return hash(self._profile)

    def __repr__(self):
        return "Nuio(%d, %s)" % (self.n, list(self.strict))

    def to_dyck(self):
        """Lattice-path word over E and S; the strict cells sit above the path.

        >>> Nuio(4, [(1, 4), (2, 4)]).to_dyck()
        'EEESSESS'
        >>> Nuio(1).to_dyck()
        'ES'
        """
        out = []
        prev = 1
        for c in self._profile:
            out.append("E" * (c - prev))
            out.append("S")
            prev = c
        return "".join(out)

    @classmethod
    def from_dyck(cls, word):
        """Inverse of to_dyck.

        >>> Nuio.from_dyck("EEESSESS").strict
        ((1, 4), (2, 4))
        """
        if not set(word) <= {"E", "S"}:
            raise ValueError("word must use letters E and S only")
        if word.count("E") != word.count("S"):
            raise ValueError("needs equally many E and S steps")
        prof = []
        seen = 0
        for ch in word:
            if ch == "E":
                seen += 1
            else:
                prof.append(seen + 1)
        return cls.from_profile(tuple(prof))

    def dagger(self):
        """Reverse both coordinates through i -> n + 1 - i.

        >>> Nuio(4, [(1, 4), (2, 4)]).dagger().strict
        ((1, 3), (1, 4))
        """
        n, prof = self.n, self._profile
        return Nuio.from_profile(tuple(
            n + 1 - bisect.bisect_right(prof, n + 1 - i) for i in range(1, n + 1)
        ))

    def shifted_sum(self, other):
        """Ordinal sum with the labels of other shifted up past self."""
        return Nuio.from_profile(
            self._profile + tuple(c + self.n for c in other._profile)
        )

    def shifted_restrict(self, labels):
        """Restrict to labels, then standardize down to an initial segment."""
        labels = self._labels(labels)
        return Nuio.from_profile(tuple(
            bisect.bisect_left(labels, self._profile[i - 1]) + 1 for i in labels
        ))

    def ascent_count(self, labels):
        """Number of upward noncomparabilities from labels to the complement."""
        inside = set(self._labels(labels))
        return sum(
            1
            for i in inside
            for j in range(i + 1, self._profile[i - 1])
            if j not in inside
        )

    def _labels(self, labels):
        labels = tuple(sorted(labels))
        if labels and not (1 <= labels[0] and labels[-1] <= self.n):
            raise ValueError("labels must lie in 1, ..., %d" % self.n)
        return labels

    def to_dict(self):
        return {"n": self.n, "strict": [list(p) for p in self.strict]}

    @classmethod
    def from_dict(cls, data):
        return cls(data["n"], [tuple(p) for p in data.get("strict", [])])


def natural_unit_interval_orders(n):
    """All such orders on {1, ..., n}, sorted by their strict pair lists.

    There are Catalan(n) of them; that count is checked against the
    enumeration budget first.

    >>> [len(natural_unit_interval_orders(k)) for k in range(5)]
    [1, 1, 2, 5, 14]
    """
    catalan = math.comb(2 * n, n) // (n + 1)
    _check_budget(catalan, "listing the orders of degree %d" % n)
    profiles = []

    def grow(prefix):
        i = len(prefix) + 1
        if i > n:
            profiles.append(prefix)
            return
        low = max(i + 1, prefix[-1] if prefix else 2)
        for c in range(low, n + 2):
            grow(prefix + (c,))

    grow(())
    return sorted(map(Nuio.from_profile, profiles), key=Nuio.key)
