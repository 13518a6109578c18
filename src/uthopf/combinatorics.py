"""Set compositions and labelled partial orders.

Ground sets are finite sets of ints, always carried as sorted tuples.  A set
composition is an ordered tuple of disjoint nonempty blocks.  A partial order
is stored as its full relation, reflexive and transitively closed, with a
pair (i, j) meaning i is weakly below j.  Relabelling along a bijection sigma
always pushes structure forward: (i, j) becomes (sigma(i), sigma(j)).

Each value is checked once, where it enters: a public constructor checks
outside input, labels must be ints, and a result derived from built values
checks only its own arguments and builds through its type's trusted
constructor, PartialOrder._trusted or Nuio.from_profile.

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
    """The setting UTHOPF_BUDGET, 25000 when unset; a malformed or
    non-positive setting raises ValueError, not BudgetError."""
    raw = os.environ.get("UTHOPF_BUDGET", "25000")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"UTHOPF_BUDGET must be an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"UTHOPF_BUDGET must be positive, got {value}")
    return value


def _check_budget(size, what, bits=0):
    """Refuse size elements, or size() if callable, past the budget.  When
    bits, a lower bound on log2 of the size, is 1024 or more and past the
    budget, size() is not run: it can have billions of bits."""
    cap = enumeration_budget()
    if bits >= max(1024, cap.bit_length()):
        raise BudgetError(f"{what} needs at least 2^{bits} elements, budget is {cap}")
    if callable(size):
        size = size()
    if size > cap:
        # str refuses ints of more than 4300 digits; give those as a power of 2
        bits = size.bit_length()
        shown = size if bits <= 1024 else "at least 2^%d" % (bits - 1)
        raise BudgetError(f"{what} needs {shown} elements, budget is {cap}")


def _labels(labels):
    """The labels sorted; ValueError unless they are distinct ints, not bools."""
    labels = tuple(labels)
    if not all(type(i) is int for i in labels) or len(set(labels)) < len(labels):
        raise ValueError("labels must be distinct ints, got %r" % (labels,))
    return tuple(sorted(labels))


def _relation_axioms(pairs):
    """Raise ValueError unless pairs is antisymmetric and transitive;
    reflexivity is checked separately."""
    for i, j in pairs:
        if i != j and (j, i) in pairs:
            raise ValueError(f"antisymmetry fails at {(i, j)}")
    for i, j in pairs:
        for k, l in pairs:
            if k == j and (i, l) not in pairs:
                raise ValueError(f"transitivity fails at {(i, j)}, {(k, l)}")


class SetComposition:
    """Ordered tuple of disjoint nonempty blocks of ints.

    >>> SetComposition([[3, 1], [2]]).blocks
    ((1, 3), (2,))
    >>> SetComposition([[1, 3], [2]]).ground
    (1, 2, 3)
    """

    __slots__ = ("blocks", "ground")

    def __init__(self, blocks):
        blocks = tuple(map(_labels, blocks))
        if not all(blocks):
            raise ValueError("blocks must be nonempty")
        self.ground = _labels(i for b in blocks for i in b)
        self.blocks = blocks

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
    """A partial order held as its full reflexive, transitive relation; the
    constructor checks it, and every order derived here builds unchecked."""

    __slots__ = ("ground", "pairs")

    def __init__(self, ground, pairs):
        ground = _labels(ground)
        pairs = frozenset((i, j) for i, j in pairs)
        labels = set(ground)
        if not all(type(i) is int and i in labels for pair in pairs for i in pair):
            raise ValueError("pairs must join labels of the ground")
        if not all((i, i) in pairs for i in ground):
            raise ValueError("relation must be reflexive")
        _relation_axioms(pairs)
        self.ground, self.pairs = ground, pairs

    @classmethod
    def _trusted(cls, ground, pairs):
        """The order of pairs, a frozenset, on ground, sorted ints: unchecked."""
        self = cls.__new__(cls)
        self.ground, self.pairs = ground, pairs
        return self

    @property
    def strict_pairs(self):
        return tuple(sorted((i, j) for i, j in self.pairs if i != j))

    def __eq__(self, other):
        return (
            isinstance(other, PartialOrder)
            and self.ground == other.ground
            and self.pairs == other.pairs
        )

    def __hash__(self):
        return hash((self.ground, self.pairs))

    def __repr__(self):
        return "PartialOrder(%s, strict=%s)" % (list(self.ground), [*self.strict_pairs])

    def restrict(self, labels):
        labels = set(labels)
        ground = tuple(i for i in self.ground if i in labels)
        if len(ground) != len(labels):
            raise ValueError("restriction labels must lie in the ground")
        return PartialOrder._trusted(ground, frozenset(
            (i, j) for i, j in self.pairs if i in labels and j in labels))

    def relabel(self, mapping):
        """Push forward along a bijection, a dict from the ground to ints."""
        ground = _labels(mapping.values())
        if set(mapping) != set(self.ground):
            raise ValueError("relabelling must be a bijection on the ground")
        return PartialOrder._trusted(ground, frozenset(
            (mapping[i], mapping[j]) for i, j in self.pairs))

    def disjoint_union(self, other):
        """Raises ValueError, as a repeated label, if the grounds overlap."""
        return PartialOrder._trusted(_labels(self.ground + other.ground),
                                     self.pairs | other.pairs)

    def ordinal_sum(self, other):
        """Disjoint union with every label of self placed below every label of
        other; raises ValueError, as a repeated label, if the grounds overlap."""
        return PartialOrder._trusted(
            _labels(self.ground + other.ground), self.pairs | other.pairs
            | frozenset(itertools.product(self.ground, other.ground)))


def chain_order(seq):
    """The total order listing seq, distinct ints, from bottom to top.

    >>> chain_order([2, 1, 3]).strict_pairs
    ((1, 3), (2, 1), (2, 3))
    """
    seq = tuple(seq)
    return PartialOrder._trusted(_labels(seq), frozenset(
        (i, j) for a, i in enumerate(seq) for j in seq[a:]))


def total_orders(ground):
    """All total orders on the ground set, bottom label varying slowest."""
    for perm in itertools.permutations(sorted(ground)):
        yield chain_order(perm)


def _block_index(order, comp):
    """{label: block number} of comp, a composition of the ground of order."""
    if comp.ground != order.ground:
        raise ValueError("composition and order on different grounds")
    return {i: k for k, b in enumerate(comp.blocks) for i in b}


def levi_pattern(order, comp):
    """The part of the order lying within single blocks of the composition."""
    block = _block_index(order, comp)
    return PartialOrder._trusted(order.ground, frozenset(
        (i, j) for i, j in order.pairs if block[i] == block[j]))


def radical_pattern(order, comp):
    """The part of the order pointing from earlier blocks into later ones."""
    block = _block_index(order, comp)
    return PartialOrder._trusted(order.ground, frozenset(
        (i, j) for i, j in order.pairs if block[i] < block[j] or i == j))


# Every order built by Nuio.from_profile, keyed by its profile tuple.
_INTERNED = {}
# Every shifted sum taken, keyed by the profiles of its two summands; the
# sums are interned orders.
_SUMS = {}


class Nuio:
    """Natural unit interval order on {1, ..., n}, held as its row profile.

    Row i is strictly below exactly the labels c(i), c(i) + 1, ..., n, where
    the profile c is nondecreasing with i < c(i) <= n + 1; it is the Dyck
    path of the order.  The sorted strict pairs, the hash and the sort key
    are derived from it once, when the profile is checked, and stored; the
    number of pairs, the sum of n + 1 - c(i), is held to the budget first.
    Every operation computes the profile of its result directly and builds
    it with from_profile, which interns: each profile is checked and built
    once per process.
    """

    __slots__ = ("n", "_profile", "_strict", "_hash", "_key", "_dagger")

    def __init__(self, n, strict=()):
        """Accept strict pairs whose transitive closure is such an order.

        >>> Nuio(3, [(1, 2), (2, 3)]).strict
        ((1, 2), (1, 3), (2, 3))
        """
        if type(n) is not int or n < 0:
            raise ValueError("size must be a nonnegative int, got %r" % (n,))
        _check_budget(n, "the labels of a unit interval order")
        above = {i: set() for i in range(1, n + 1)}
        for i, j in strict:
            if type(i) is not int or type(j) is not int:
                raise ValueError("labels must be ints, got %r" % ((i, j),))
            if i not in above or j not in above:
                raise ValueError("stray label in %s" % ((i, j),))
            if i > j:
                raise ValueError("strict pairs must point numerically upward")
            if i < j:
                above[i].add(j)
        prof = [n + 1] * n
        # Rows are read top down: row i's closure is every label from low,
        # the least row minimum of its direct successors, and those of them
        # below low, which must then be exactly c(i), ..., low - 1.
        for i in range(n, 0, -1):
            row = above[i]
            low = min((prof[j - 1] for j in row), default=n + 1)
            c = prof[i - 1] = min(row, default=low)
            if sum(j < low for j in row) != low - c:
                raise ValueError("row %d is not an upper interval" % i)
        self._assign(tuple(prof))

    @classmethod
    def from_profile(cls, prof):
        """The order with the given profile, as a tuple.  The first call
        with a profile checks it in O(n) and interns the order; every later
        call with an equal profile returns that same order.  A profile that
        fails the check raises ValueError and is not interned.

        >>> Nuio.from_profile((4, 4, 5, 5)).strict
        ((1, 4), (2, 4))
        >>> Nuio.from_profile([4, 4, 5, 5]) is Nuio.from_profile((4, 4, 5, 5))
        True
        """
        prof = tuple(prof)
        self = _INTERNED.get(prof)
        if self is None:
            self = cls.__new__(cls)
            self._assign(prof)
            _INTERNED[prof] = self
        return self

    def _assign(self, prof):
        n = len(prof)
        for i, c in enumerate(prof, start=1):
            if type(c) is not int:
                raise ValueError("row %d has minimum %r, not an int" % (i, c))
            if not i < c <= n + 1:
                raise ValueError("row %d has minimum %d, outside (%d, %d]"
                                 % (i, c, i, n + 1))
        if any(a > b for a, b in zip(prof, prof[1:])):
            raise ValueError("row minima must be nondecreasing")
        _check_budget(n * (n + 1) - sum(prof), "the strict pairs of an order")
        self.n = n
        self._profile = prof
        self._hash = hash(prof)
        self._strict = tuple((i, j) for i, c in enumerate(prof, start=1)
                             for j in range(c, n + 1))
        # sorts like (n, strict): an empty row, c = n + 1 read as 0, ends
        # the strict pairs, as every later row is empty too
        self._key = (n, tuple(c if c <= n else 0 for c in prof))
        self._dagger = None

    @property
    def strict(self):
        return self._strict

    def profile(self):
        return self._profile

    def key(self):
        return self._key

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Nuio) and self._profile == other._profile)

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return "Nuio(%d, %s)" % (self.n, list(self._strict))

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
        """Reverse both coordinates through i -> n + 1 - i.  The interned
        result is kept on the order at the first call, so each order finds
        its flip once.

        >>> Nuio(4, [(1, 4), (2, 4)]).dagger().strict
        ((1, 3), (1, 4))
        >>> pi = Nuio.from_profile((4, 4, 5, 5))
        >>> pi.dagger().dagger() is pi
        True
        >>> Nuio(4, [(1, 4), (2, 4)]).dagger() is pi.dagger()
        True
        """
        dual = self._dagger
        if dual is None:
            n, prof = self.n, self._profile
            dual = self._dagger = Nuio.from_profile(tuple(
                n + 1 - bisect.bisect_right(prof, n + 1 - i) for i in range(1, n + 1)
            ))
        return dual

    def shifted_sum(self, other):
        """Ordinal sum with the labels of other shifted up past self; each
        pair of profiles is summed once per process.

        >>> Nuio(1).shifted_sum(Nuio(2)) is Nuio.from_profile((2, 4, 4))
        True
        """
        key = self._profile, other._profile
        out = _SUMS.get(key)
        if out is None:
            out = _SUMS[key] = Nuio.from_profile(
                self._profile + tuple(c + self.n for c in other._profile))
        return out

    def top_piece(self):
        """(rest, top): the top connected piece and the order below it,
        whose shifted sum is this one; rest is Nuio(0) when this order is
        connected.  A piece ends at row k exactly when c(k) = k + 1: then
        row k, and every row before it as c is nondecreasing, is below
        every later label.

        >>> [p.profile() for p in Nuio(3, [(1, 2), (1, 3)]).top_piece()]
        [(2,), (3, 3)]
        >>> Nuio(0).top_piece() == (Nuio(0), Nuio(0))
        True
        """
        prof = self._profile
        k = next((k for k in range(self.n - 1, 0, -1) if prof[k - 1] == k + 1), 0)
        return Nuio.from_profile(prof[:k]), Nuio.from_profile(c - k for c in prof[k:])

    def splits(self):
        """(inside, left, right, ascents) for each subset inside of the
        labels, a bit mask with bit i for label i: left and right are the
        restrictions to inside and to the rest, standardized, and ascents
        counts the pairs i < j < c(i) with i inside and j not.  One walk
        places the labels top down, so the labels above i are placed with
        it: those on its side that are >= c(i) fix its row (side size + 1
        minus their count), and the rest ones in (i, c(i)) its ascents.
        Each side order is built once per walk, from its tuple of counts.

        >>> [(s[0], s[1].profile(), s[2].profile(), s[3])
        ...  for s in Nuio(2).splits()]
        [(6, (3, 3), (), 0), (4, (2,), (2,), 0), (2, (2,), (2,), 1), (0, (), (3, 3), 0)]
        """
        prof, get, sides = self._profile, Nuio.from_profile, {}

        def side(rows):
            order = sides.get(rows)
            if order is None:
                order = sides[rows] = get(map((len(rows) + 1).__sub__, rows))
            return order

        stack = [(self.n, 0, 0, (), (), 0)]
        while stack:
            i, inside, rest, ins, outs, ascents = stack.pop()
            if i:
                c, bit = prof[i - 1], 1 << i
                stack.append((i - 1, inside, rest | bit, ins,
                              ((rest >> c).bit_count(),) + outs, ascents))
                stack.append((i - 1, inside | bit, rest,
                              ((inside >> c).bit_count(),) + ins, outs,
                              ascents + (rest & (1 << c) - (bit << 1)).bit_count()))
            else:
                yield inside, side(ins), side(outs), ascents

    def to_dict(self):
        """{"n": n, "strict": pairs}, the pairs being the order's own stored
        tuple of pair tuples, which nothing changes; json writes them as
        lists.

        >>> Nuio(2, [(1, 2)]).to_dict()
        {'n': 2, 'strict': ((1, 2),)}
        """
        return {"n": self.n, "strict": self._strict}

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
    # Catalan(n) >= 4^n / ((2n + 1)(n + 1)), as C(2n, n) is the largest C(2n, k)
    _check_budget(lambda: math.comb(2 * n, n) // (n + 1),
                  "listing the orders of degree %d" % n,
                  bits=2 * n - ((2 * n + 1) * (n + 1)).bit_length())
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
