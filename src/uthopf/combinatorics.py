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
the full unitriangular group.
"""

from __future__ import annotations

import itertools


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
        assert all(blocks), "blocks must be nonempty"
        seen = [i for b in blocks for i in b]
        assert len(set(seen)) == len(seen), "blocks must be disjoint"
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
        assert not set(self.ground) & set(other.ground)
        return SetComposition(self.blocks + other.blocks)

    def restrict(self, labels):
        """Intersect each block with labels and drop the empty intersections."""
        labels = set(labels)
        kept = [tuple(i for i in b if i in labels) for b in self.blocks]
        return SetComposition([b for b in kept if b])

    def refines(self, other):
        """Whether self arises by composing each block of other in place.

        Equivalently, self equals the concatenation of its restrictions to
        the blocks of other, taken in order.
        """
        assert self.ground == other.ground
        stitched = SetComposition([])
        for b in other.blocks:
            stitched = stitched.concat(self.restrict(b))
        return stitched == self

    def tits(self, other):
        """Concatenate the restrictions of other to the blocks of self.

        This is the usual associative action on faces: the result refines
        self, and equals other when other already refines self.

        >>> a = SetComposition([[1, 2, 3], [4]])
        >>> b = SetComposition([[2, 3, 4], [1]])
        >>> a.tits(b).blocks
        ((2, 3), (1,), (4,))
        """
        assert self.ground == other.ground
        out = SetComposition([])
        for b in self.blocks:
            out = out.concat(other.restrict(b))
        return out


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


def inversion_pairs(comp):
    """All pairs (i, j) with the block of i strictly after the block of j."""
    return frozenset((j, i) for i, j in ascent_pairs(comp))


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
            rest = tuple(i for i in ground if i not in set(first))
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
        assert len(set(ground)) == len(ground), "repeated labels"
        pairs = frozenset((int(i), int(j)) for i, j in pairs)
        labels = set(ground)
        assert all(i in labels and j in labels for i, j in pairs), "stray label"
        assert all((i, i) in pairs for i in ground), "relation must be reflexive"
        ok, reason = _relation_axioms(pairs)
        assert ok, reason
        self.ground = ground
        self.pairs = pairs
        self._strict = tuple(sorted((i, j) for i, j in pairs if i != j))

    @classmethod
    def from_strict(cls, ground, strict):
        """Reflexive transitive closure of the given strict pairs."""
        ground = tuple(sorted(int(i) for i in ground))
        pairs = {(i, i) for i in ground}
        pairs.update((int(i), int(j)) for i, j in strict)
        changed = True
        while changed:
            changed = False
            for i, j in list(pairs):
                for k, l in list(pairs):
                    if k == j and (i, l) not in pairs:
                        pairs.add((i, l))
                        changed = True
        return cls(ground, pairs)

    @property
    def strict_pairs(self):
        return self._strict

    def less(self, i, j):
        return i != j and (i, j) in self.pairs

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
        assert labels <= set(self.ground)
        return PartialOrder(
            sorted(labels),
            {(i, j) for i, j in self.pairs if i in labels and j in labels},
        )

    def relabel(self, mapping):
        """Push forward along a bijection given as a dict on the ground set."""
        assert set(mapping) == set(self.ground)
        images = list(mapping.values())
        assert len(set(images)) == len(images), "relabelling must be injective"
        return PartialOrder(images, {(mapping[i], mapping[j]) for i, j in self.pairs})

    def disjoint_union(self, other):
        assert not set(self.ground) & set(other.ground)
        return PartialOrder(self.ground + other.ground, self.pairs | other.pairs)

    def ordinal_sum(self, other):
        """Disjoint union with every label of self placed below every label of other."""
        assert not set(self.ground) & set(other.ground)
        cross = set(itertools.product(self.ground, other.ground))
        return PartialOrder(
            self.ground + other.ground, self.pairs | other.pairs | cross
        )

    def is_total(self):
        n = len(self.ground)
        return len(self.pairs) == n * (n + 1) // 2


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


def all_partial_orders(ground):
    """Every partial order on the ground set, by brute filtering.

    Quadratic in the number of candidate relations per candidate; meant for
    tiny ground sets only.
    """
    ground = tuple(sorted(ground))
    diag = {(i, i) for i in ground}
    offdiag = sorted((i, j) for i in ground for j in ground if i != j)
    for bits in itertools.product((0, 1), repeat=len(offdiag)):
        pairs = frozenset(diag | {p for p, b in zip(offdiag, bits) if b})
        ok, _ = _relation_axioms(pairs)
        if ok:
            yield PartialOrder(ground, pairs)


def levi_pattern(order, comp):
    """The part of the order lying within single blocks of the composition."""
    assert set(comp.ground) == set(order.ground)
    eq = equal_pairs(comp)
    return PartialOrder(order.ground, order.pairs & eq)


def radical_pattern(order, comp):
    """The part of the order pointing from earlier blocks into later ones."""
    assert set(comp.ground) == set(order.ground)
    asc = ascent_pairs(comp)
    diag = {(i, i) for i in order.ground}
    return PartialOrder(order.ground, (order.pairs & asc) | diag)


def parabolic_pattern(order, comp):
    """The part of the order not pointing from later blocks into earlier ones."""
    assert set(comp.ground) == set(order.ground)
    keep = equal_pairs(comp) | ascent_pairs(comp)
    return PartialOrder(order.ground, order.pairs & keep)


def standardize(labels):
    """Map the k-th smallest label to k, as a dict.

    >>> standardize((2, 5, 3))
    {2: 1, 3: 2, 5: 3}
    """
    return {s: r for r, s in enumerate(sorted(labels), start=1)}


class Nuio:
    """Natural unit interval order on {1, ..., n}.

    Stored through the row profile view: row i is strictly below exactly
    the labels c(i), c(i) + 1, ..., n, where the profile c is nondecreasing
    and c(i) > i.  Construction validates this shape after taking the
    reflexive transitive closure of the given strict pairs.
    """

    __slots__ = ("n", "order", "strict")

    def __init__(self, n, strict=()):
        n = int(n)
        assert n >= 0
        self.n = n
        self.order = PartialOrder.from_strict(range(1, n + 1), strict)
        self.strict = self.order.strict_pairs
        for i, j in self.strict:
            assert i < j, "strict pairs must point numerically upward"
        prof = self.profile()
        for i in range(1, n + 1):
            ups = {j for a, j in self.strict if a == i}
            assert ups == set(range(prof[i - 1], n + 1)), (
                "row %d is not an upper interval" % i
            )
        assert all(a <= b for a, b in zip(prof, prof[1:])), (
            "row minima must be nondecreasing"
        )

    def profile(self):
        out = []
        for i in range(1, self.n + 1):
            ups = [j for a, j in self.strict if a == i]
            out.append(min(ups) if ups else self.n + 1)
        return tuple(out)

    def key(self):
        return (self.n, self.strict)

    def __eq__(self, other):
        return isinstance(other, Nuio) and self.key() == other.key()

    def __hash__(self):
        return hash(self.key())

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
        for c in self.profile():
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
        assert set(word) <= {"E", "S"}, "word must use letters E and S only"
        n = word.count("S")
        assert word.count("E") == n, "needs equally many E and S steps"
        prof = []
        seen = 0
        for ch in word:
            if ch == "E":
                seen += 1
            else:
                prof.append(seen + 1)
        for i, c in enumerate(prof, start=1):
            assert c > i, "path dips below the staircase at step %d" % i
        strict = [
            (i, j) for i in range(1, n + 1) for j in range(prof[i - 1], n + 1)
        ]
        return cls(n, strict)

    def dagger(self):
        """Reverse both coordinates through i -> n + 1 - i.

        >>> Nuio(4, [(1, 4), (2, 4)]).dagger().strict
        ((1, 3), (1, 4))
        """
        n = self.n
        return Nuio(n, [(n + 1 - j, n + 1 - i) for i, j in self.strict])

    def shifted_sum(self, other):
        """Ordinal sum with the labels of other shifted up past self."""
        shift = self.n
        strict = list(self.strict)
        strict.extend((i + shift, j + shift) for i, j in other.strict)
        strict.extend(
            (i, j + shift)
            for i in range(1, self.n + 1)
            for j in range(1, other.n + 1)
        )
        return Nuio(self.n + other.n, strict)

    def shifted_restrict(self, labels):
        """Restrict to labels, then standardize down to an initial segment."""
        labels = tuple(sorted(labels))
        assert set(labels) <= set(range(1, self.n + 1))
        std = standardize(labels)
        inside = set(labels)
        strict = [
            (std[i], std[j]) for i, j in self.strict if i in inside and j in inside
        ]
        return Nuio(len(labels), strict)

    def ascent_count(self, labels):
        """Number of upward noncomparabilities from labels to the complement."""
        inside = set(labels)
        assert inside <= set(range(1, self.n + 1))
        count = 0
        for i in inside:
            for j in range(i + 1, self.n + 1):
                if j not in inside and (i, j) not in self.order.pairs:
                    count += 1
        return count

    def to_dict(self):
        return {"n": self.n, "strict": [list(p) for p in self.strict]}

    @classmethod
    def from_dict(cls, data):
        return cls(data["n"], [tuple(p) for p in data.get("strict", [])])


def natural_unit_interval_orders(n):
    """All such orders on {1, ..., n}, sorted by their strict pair lists.

    >>> [len(natural_unit_interval_orders(k)) for k in range(5)]
    [1, 1, 2, 5, 14]
    """
    if n == 0:
        return [Nuio(0)]
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
    out = []
    for prof in profiles:
        strict = [
            (i, j) for i in range(1, n + 1) for j in range(prof[i - 1], n + 1)
        ]
        out.append(Nuio(n, strict))
    out.sort(key=lambda x: x.key())
    return out
