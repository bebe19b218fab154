"""Preference orders on objects and the two context flavours built on them.

A preferential context pairs a formal context with a strict partial order
on its objects, lower meaning more typical. It satisfies ``phi |~ psi``
when every minimal object of phi's extension lies in psi's extension.
A ranked context replaces the order with a convex rank assignment; the
order it induces (smaller rank first) is always modular.
"""

import sys
from itertools import compress

from . import bitsets
from .errors import ModularityError, StructureError
from .formula import DEFEASIBLE, extension


class StrictOrder:
    """A strict partial order on indices 0..size-1.

    Built from generating pairs ``(lower, upper)``, closed transitively;
    construction fails if the closure puts any element below itself.

    The order keeps its height layers: layer k holds the elements whose
    longest chain of predecessors has k links, so an element's
    predecessors all sit in lower layers. Minimisation walks these layers
    instead of the members. In the order a ranking induces, the layers are
    the ranking's strata.
    """

    __slots__ = ("_size", "_succ", "_pred", "_layers")

    def __init__(self, size, pairs=()):
        if size < 0:
            raise StructureError(f"order size must be non-negative, got {size}")
        # direct successors of each element, and the direct predecessors
        above = [[] for _ in range(size)]
        below = [[] for _ in range(size)]
        for lower, upper in pairs:
            if not 0 <= lower < size:
                raise StructureError(f"index {lower} out of range for size {size}")
            if not 0 <= upper < size:
                raise StructureError(f"index {upper} out of range for size {size}")
            above[lower].append(upper)
            below[upper].append(lower)
        # Kahn's algorithm, one layer at a time: an element's predecessor row
        # is closed once the rows of all its direct predecessors are, and is
        # then their union plus those predecessors, one union per direct
        # pair; an element with none keeps the row 0. The elements whose
        # last direct predecessor closes in layer k form layer k + 1. A sum
        # of distinct powers of two is their union, so each layer's bitset
        # costs O(size) bits per shift at most, as one union of rows does.
        # The successor rows are then one transposition of size² digits.
        waiting = [len(direct) for direct in below]
        layer = [i for i in range(size) if not waiting[i]]
        pred = [0] * size
        layers = []
        placed = 0
        while layer:
            layers.append(sum(map((1).__lshift__, layer)))
            placed += len(layer)
            next_layer = []
            for j in layer:
                row = 0
                for k in below[j]:
                    row |= pred[k] | 1 << k
                pred[j] = row
                for i in above[j]:
                    waiting[i] -= 1
                    if not waiting[i]:
                        next_layer.append(i)
            layer = next_layer
        if placed < size:
            raise StructureError(
                "order pairs close to a cycle through index "
                f"{_first_on_cycle(above, waiting)}"
            )
        self._size = size
        self._pred = tuple(pred)
        self._succ = bitsets._transpose(pred, size)
        self._layers = tuple(layers)

    @classmethod
    def _closed(cls, size, succ, pred, layers):
        """An order from closed rows and their height layers as bitsets."""
        order = cls.__new__(cls)
        order._size = size
        order._succ = succ
        order._pred = pred
        order._layers = layers
        return order

    @property
    def size(self):
        return self._size

    def precedes(self, lower, upper):
        self._check(lower)
        self._check(upper)
        return bool(self._succ[lower] >> upper & 1)

    def successors(self, i):
        self._check(i)
        return self._succ[i]

    def pairs(self):
        """All (lower, upper) pairs of the closed relation, sorted."""
        return [
            (i, j)
            for i in range(self._size)
            for j in bitsets.iter_indices(self._succ[i])
        ]

    def minimise(self, members):
        """Members with no strictly smaller member: the most typical ones.

        Walks the height layers upward. The members met in a layer are
        minimal: a smaller member would sit in a lower layer, and it, or a
        minimal member below it, would already have removed them with its
        successor row. The walk stops once no member is left, so it costs
        one intersection per layer up to the highest minimal member plus
        one successor row per minimal member, O(height + |minimal|) row
        operations whatever the number of members.
        """
        if members < 0 or members >> self._size:
            raise StructureError("member set out of range for this order")
        minimal = 0
        for layer in self._layers:
            if not members:
                break
            found = members & layer
            if found:
                minimal |= found
                members ^= found
                for i in bitsets.iter_indices(found):
                    members &= ~self._succ[i]
        return minimal

    def is_modular(self):
        """True when incomparable elements sit below exactly the same elements.

        Exactly then does some ranking induce the order, which is what
        ``ranks_from_order`` checks against the strata.
        """
        try:
            ranks_from_order(self)
        except ModularityError:
            return False
        return True

    def _check(self, i):
        if not 0 <= i < self._size:
            raise StructureError(f"index {i} out of range for size {self._size}")

    def __eq__(self, other):
        if not isinstance(other, StrictOrder):
            return NotImplemented
        return self._size == other._size and self._succ == other._succ

    def __hash__(self):
        return hash((self._size, self._succ))

    def __repr__(self):
        return f"StrictOrder({self._size}, {self.pairs()!r})"


def _first_on_cycle(above, waiting):
    """Smallest element that reaches itself through the direct successors.

    Only elements the closure left waiting can lie on a cycle. This walk
    costs O(size * pairs) and runs only to name the cycle in an error.
    """
    for start, count in enumerate(waiting):
        if not count:
            continue
        seen = set()
        stack = list(above[start])
        while stack:
            j = stack.pop()
            if j == start:
                return start
            if waiting[j] and j not in seen:
                seen.add(j)
                stack.extend(above[j])


# the unsigned C integer of each width in bytes, as a memoryview names it
_UNSIGNED = {2: "H", 4: "I", 8: "Q"}


class RankingFunction:
    """A convex rank per index: rank 0 occupied (when nonempty), no gaps.

    The ranking is held as its strata, one bitset per rank from 0 up, and
    read through ``strata`` and ``least``. The rank tuple is built from
    them on the first read of ``ranks`` or ``repr`` and kept.
    """

    __slots__ = ("_size", "_strata", "_ranks")

    def __init__(self, ranks):
        ranks = tuple(ranks)
        self._size = len(ranks)
        self._strata = tuple(
            bitsets.from_indices(layer, len(ranks))
            for layer in _rank_layers(enumerate(ranks))
        )
        self._ranks = ranks

    @classmethod
    def _from_strata(cls, strata, size):
        """A ranking from nonempty, disjoint strata covering 0..size-1.

        Package-internal: the ranking loop and an order's height layers
        hand over their bitsets, checked with one intersection and one
        union per stratum.
        """
        union = 0
        for stratum in strata:
            if not stratum:
                raise StructureError("ranking strata must be nonempty")
            if union & stratum:
                raise StructureError("ranking strata overlap")
            union |= stratum
        if union != bitsets.universe(size):
            raise StructureError(f"ranking strata do not cover 0..{size - 1}")
        ranking = cls.__new__(cls)
        ranking._size = size
        ranking._strata = tuple(strata)
        ranking._ranks = None
        return ranking

    @property
    def ranks(self):
        """The rank of each index, built from the strata on first read.

        The ranks are built a bit at a time. One walk up the strata
        gathers, for each bit, the members whose rank has it: ``below``
        holds the members of every lower rank, and where a bit of the
        level turns on or off, a run of ranks that have it starts or ends,
        so XOR with ``below`` at both ends adds the run's members (the
        strata are disjoint). That is one union and about two symmetric
        differences per stratum. ``bitsets.planes`` then writes the member
        sets of each eight bits out as that byte of every rank, one
        ``translate`` of binary digits per bit. So each bit of the top
        rank costs one C-level pass over the size,
        where each stratum used to cost a pass. Past 256 strata each rank
        takes two bytes or more, which a ``memoryview`` reads as one C
        integer per member. No Python step runs per member.
        """
        if self._ranks is None:
            size, strata = self._size, self._strata
            top = len(strata) - 1
            top_bits = top.bit_length()
            unions = [0] * top_bits
            below = 0
            for level, stratum in enumerate(strata):
                # level ^ level - 1 holds the bits that change at this level
                for bit in range((level ^ level - 1).bit_length() if level else 0):
                    unions[bit] ^= below
                below |= stratum
            # a run still open at the top rank ends past every member
            for bit in range(top_bits):
                if top >> bit & 1:
                    unions[bit] ^= below
            # a power of two bytes per rank, the widths a memoryview reads
            width = 1 << (max(top_bits - 1, 0) // 8).bit_length()
            cells = bytearray(size * width)
            for low in range(0, top_bits, 8):
                byte = low // 8 if sys.byteorder == "little" else width - 1 - low // 8
                cells[byte::width] = bitsets.planes(unions[low:low + 8], size)
            if width > 1:
                cells = memoryview(cells).cast(_UNSIGNED[width])
            self._ranks = tuple(cells)
        return self._ranks

    @property
    def size(self):
        return self._size

    @property
    def strata(self):
        """Bitsets per rank, ascending."""
        return self._strata

    def least(self, members):
        """(k, members & S_k) for the first stratum S_k that meets the members.

        These are the members of least rank, the ones a ranked context
        checks a conditional against; (None, 0) when no stratum meets them.
        A member set that is negative or holds an index past the ranking's
        size raises StructureError. One intersection per stratum up to the
        first that meets the members, none per member.
        """
        if members < 0 or members >> self._size:
            raise StructureError("member set out of range for this ranking")
        for level, stratum in enumerate(self._strata):
            least = members & stratum
            if least:
                return level, least
        return None, 0

    def __eq__(self, other):
        if not isinstance(other, RankingFunction):
            return NotImplemented
        return self._strata == other._strata

    def __hash__(self):
        return hash(self._strata)

    def __repr__(self):
        return f"RankingFunction({list(self.ranks)!r})"


def _rank_layers(indexed):
    """The indices of each rank, rank 0 first, from (index, rank) pairs.

    Every rank must be a non-negative int, and the ranks present must
    leave no gap.
    """
    members = {}
    for i, r in indexed:
        if not isinstance(r, int) or r < 0:
            raise StructureError(f"ranks must be non-negative ints, got {r!r}")
        members.setdefault(r, []).append(i)
    if members.keys() != set(range(len(members))):
        raise StructureError(
            f"ranking is not convex: ranks {sorted(members)} leave gaps"
        )
    return [members[k] for k in range(len(members))]


def ranks_from_order(order):
    """Canonical stratification of a modular order by iterated minima.

    Stratum 0 holds the minima of the whole universe, stratum k+1 the
    minima of what remains. Fails with ModularityError when the induced
    smaller-rank-first order disagrees with the input, which happens
    exactly for non-modular input.

    Iterated minima are the order's height layers, so they are the
    ranking's strata. In a modular order the predecessors of an element
    are exactly the layers below its own; checking that for every element
    rejects every non-modular input.
    """
    layers = order._layers
    below = 0
    for layer in layers:
        for i in bitsets.iter_indices(layer):
            if order._pred[i] != below:
                raise ModularityError("order is not modular: no ranking induces it")
        below |= layer
    return RankingFunction._from_strata(layers, order.size)


def order_from_ranks(ranking):
    """The strict order a ranking induces: smaller rank strictly first.

    Each element's successors are the strata above its rank and its
    predecessors the strata below, so the rows are closed by construction
    and the strata are the height layers.
    """
    strata = ranking.strata
    above = [0] * len(strata)
    below = [0] * len(strata)
    for k in range(1, len(strata)):
        below[k] = below[k - 1] | strata[k - 1]
        above[-1 - k] = above[-k] | strata[-k]
    return StrictOrder._closed(
        ranking.size,
        tuple(above[r] for r in ranking.ranks),
        tuple(below[r] for r in ranking.ranks),
        strata,
    )


def _satisfies(context, minimise, conditional):
    """Do the antecedent objects that ``minimise`` keeps all satisfy the consequent?

    The preferential and the ranked context differ only in how they pick
    the most typical objects.
    """
    if conditional.kind != DEFEASIBLE:
        raise StructureError(
            "preference satisfaction is defined for defeasible conditionals; "
            "check classical implications against extensions directly"
        )
    minimal = minimise(extension(context, conditional.antecedent))
    return bitsets.is_subset(minimal, extension(context, conditional.consequent))


class PreferentialContext:
    """A formal context with a strict preference order on its objects."""

    __slots__ = ("_context", "_order")

    def __init__(self, context, order):
        if order.size != context.n_objects:
            raise StructureError(
                f"order covers {order.size} elements, context has "
                f"{context.n_objects} objects"
            )
        self._context = context
        self._order = order

    @property
    def context(self):
        return self._context

    @property
    def order(self):
        return self._order

    def minimise_objects(self, members):
        return self._order.minimise(members)

    def satisfies(self, conditional):
        """Do the most typical antecedent objects all satisfy the consequent?"""
        return _satisfies(self._context, self.minimise_objects, conditional)

    def __eq__(self, other):
        if not isinstance(other, PreferentialContext):
            return NotImplemented
        return self._context == other._context and self._order == other._order

    def __hash__(self):
        return hash((self._context, self._order))

    def __repr__(self):
        return f"{type(self).__name__}({self._context!r}, {self._order!r})"


class RankedContext:
    """A formal context with a convex object ranking.

    The induced order (smaller rank strictly preferred), which
    ``order_from_ranks`` builds, is modular by construction. Satisfaction
    minimises by rank: the antecedent objects of least rank must all
    satisfy the consequent.
    """

    __slots__ = ("_context", "_ranking")

    def __init__(self, context, ranking):
        if ranking.size != context.n_objects:
            raise StructureError(
                f"ranking covers {ranking.size} elements, context has "
                f"{context.n_objects} objects"
            )
        self._context = context
        self._ranking = ranking

    @property
    def context(self):
        return self._context

    @property
    def ranking(self):
        return self._ranking

    def minimise_objects(self, members):
        """The members of least rank.

        One walk lists the members. Their ranks are read, compared and
        selected at C level by ``map``, ``min`` and ``compress``, and
        ``from_indices`` sets the bits of the least ones.
        """
        if members < 0 or members >> self._context.n_objects:
            raise StructureError("member set out of range for this context")
        if members == 0:
            return 0
        indices = list(bitsets.iter_indices(members))
        member_ranks = list(map(self._ranking.ranks.__getitem__, indices))
        least = min(member_ranks)
        return bitsets.from_indices(
            compress(indices, map(least.__eq__, member_ranks)),
            self._context.n_objects,
        )

    def satisfies(self, conditional):
        """Do the antecedent objects of least rank all satisfy the consequent?"""
        return _satisfies(self._context, self.minimise_objects, conditional)

    def __eq__(self, other):
        if not isinstance(other, RankedContext):
            return NotImplemented
        return self._context == other._context and self._ranking == other._ranking

    def __hash__(self):
        return hash((self._context, self._ranking))

    def __repr__(self):
        return f"{type(self).__name__}({self._context!r}, {self._ranking!r})"
