"""Preference orders on objects and the two context flavours built on them.

A preferential context pairs a formal context with a strict partial order
on its objects, lower meaning more typical. It satisfies ``phi |~ psi``
when every minimal object of phi's extension lies in psi's extension.
A ranked context replaces the order with a convex rank assignment; the
order it induces (smaller rank first) is always modular.
"""

from . import bitsets
from .errors import ModularityError, StructureError
from .formula import DEFEASIBLE, extension


class StrictOrder:
    """A strict partial order on indices 0..size-1.

    Built from generating pairs ``(lower, upper)``, closed transitively;
    construction fails if the closure puts any element below itself.
    """

    __slots__ = ("_size", "_succ", "_pred")

    def __init__(self, size, pairs=()):
        if size < 0:
            raise StructureError(f"order size must be non-negative, got {size}")
        succ = [0] * size
        for lower, upper in pairs:
            if not 0 <= lower < size:
                raise StructureError(f"index {lower} out of range for size {size}")
            if not 0 <= upper < size:
                raise StructureError(f"index {upper} out of range for size {size}")
            succ[lower] |= 1 << upper
        changed = True
        while changed:
            changed = False
            for i in range(size):
                acc = succ[i]
                for j in bitsets.iter_indices(succ[i]):
                    acc |= succ[j]
                if acc != succ[i]:
                    succ[i] = acc
                    changed = True
        for i in range(size):
            if succ[i] >> i & 1:
                raise StructureError(
                    f"order pairs close to a cycle through index {i}"
                )
        pred = [0] * size
        for i in range(size):
            for j in bitsets.iter_indices(succ[i]):
                pred[j] |= 1 << i
        self._size = size
        self._succ = tuple(succ)
        self._pred = tuple(pred)

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

    def predecessors(self, i):
        self._check(i)
        return self._pred[i]

    def pairs(self):
        """All (lower, upper) pairs of the closed relation, sorted."""
        return [
            (i, j)
            for i in range(self._size)
            for j in bitsets.iter_indices(self._succ[i])
        ]

    def minimise(self, members):
        """Members with no strictly smaller member: the most typical ones."""
        if members < 0 or members & ~bitsets.universe(self._size):
            raise StructureError("member set out of range for this order")
        result = 0
        for i in bitsets.iter_indices(members):
            if self._pred[i] & members == 0:
                result |= 1 << i
        return result

    def is_modular(self):
        """True when incomparable elements sit below exactly the same elements."""
        for i in range(self._size):
            for j in range(i + 1, self._size):
                comparable = (self._succ[i] >> j | self._succ[j] >> i) & 1
                if not comparable and self._pred[i] != self._pred[j]:
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


class RankingFunction:
    """A convex rank per index: rank 0 occupied (when nonempty), no gaps."""

    __slots__ = ("_ranks",)

    def __init__(self, ranks):
        ranks = tuple(ranks)
        for r in ranks:
            if not isinstance(r, int) or r < 0:
                raise StructureError(f"ranks must be non-negative ints, got {r!r}")
        if ranks:
            present = set(ranks)
            if present != set(range(max(present) + 1)):
                raise StructureError(
                    f"ranking is not convex: ranks {sorted(present)} leave gaps"
                )
        self._ranks = ranks

    @property
    def ranks(self):
        return self._ranks

    @property
    def size(self):
        return len(self._ranks)

    @property
    def max_rank(self):
        if not self._ranks:
            raise StructureError("empty ranking has no ranks")
        return max(self._ranks)

    def rank_of(self, i):
        if not 0 <= i < len(self._ranks):
            raise StructureError(f"index {i} out of range")
        return self._ranks[i]

    def stratum(self, level):
        """Bitset of indices at the given rank."""
        bits = 0
        for i, r in enumerate(self._ranks):
            if r == level:
                bits |= 1 << i
        return bits

    def strata(self):
        """Bitsets per rank, ascending."""
        if not self._ranks:
            return ()
        return tuple(self.stratum(level) for level in range(self.max_rank + 1))

    def __eq__(self, other):
        if not isinstance(other, RankingFunction):
            return NotImplemented
        return self._ranks == other._ranks

    def __hash__(self):
        return hash(self._ranks)

    def __repr__(self):
        return f"RankingFunction({list(self._ranks)!r})"


def ranks_from_order(order):
    """Canonical stratification of a modular order by iterated minima.

    Stratum 0 holds the minima of the whole universe, stratum k+1 the
    minima of what remains. Fails with ModularityError when the induced
    smaller-rank-first order disagrees with the input, which happens
    exactly for non-modular input.
    """
    remaining = bitsets.universe(order.size)
    ranks = [0] * order.size
    level = 0
    while remaining:
        stratum = order.minimise(remaining)
        for i in bitsets.iter_indices(stratum):
            ranks[i] = level
        remaining &= ~stratum
        level += 1
    below = 0
    expected_pred = [0] * order.size
    for current in range(level):
        for i in range(order.size):
            if ranks[i] == current:
                expected_pred[i] = below
        stratum_bits = bitsets.from_indices(
            (i for i in range(order.size) if ranks[i] == current), order.size
        )
        below |= stratum_bits
    for i in range(order.size):
        if order.predecessors(i) != expected_pred[i]:
            raise ModularityError(
                "order is not modular: no ranking induces it"
            )
    return RankingFunction(ranks)


def order_from_ranks(ranking):
    """The strict order a ranking induces: smaller rank strictly first."""
    n = ranking.size
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if ranking.ranks[i] < ranking.ranks[j]
    ]
    return StrictOrder(n, pairs)


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
        if conditional.kind != DEFEASIBLE:
            raise StructureError(
                "preference satisfaction is defined for defeasible conditionals; "
                "check classical implications against extensions directly"
            )
        antecedent_objects = extension(self._context, conditional.antecedent)
        minimal = self._order.minimise(antecedent_objects)
        return bitsets.is_subset(
            minimal, extension(self._context, conditional.consequent)
        )

    def __eq__(self, other):
        if not isinstance(other, PreferentialContext):
            return NotImplemented
        return self._context == other._context and self._order == other._order

    def __hash__(self):
        return hash((self._context, self._order))

    def __repr__(self):
        return f"PreferentialContext({self._context!r}, {self._order!r})"


class RankedContext:
    """A formal context with a convex object ranking.

    The induced order (smaller rank strictly preferred) is modular by
    construction. Satisfaction minimises by rank: the antecedent objects
    of least rank must all satisfy the consequent.
    """

    __slots__ = ("_context", "_ranking", "_order")

    def __init__(self, context, ranking):
        if ranking.size != context.n_objects:
            raise StructureError(
                f"ranking covers {ranking.size} elements, context has "
                f"{context.n_objects} objects"
            )
        self._context = context
        self._ranking = ranking
        self._order = None

    @property
    def context(self):
        return self._context

    @property
    def ranking(self):
        return self._ranking

    @property
    def order(self):
        if self._order is None:
            self._order = order_from_ranks(self._ranking)
        return self._order

    def rank_of(self, i):
        return self._ranking.rank_of(i)

    def as_preferential(self):
        return PreferentialContext(self._context, self.order)

    def minimise_objects(self, members):
        if members < 0 or members & ~self._context.object_universe:
            raise StructureError("member set out of range for this context")
        if members == 0:
            return 0
        least = min(self._ranking.ranks[i] for i in bitsets.iter_indices(members))
        result = 0
        for i in bitsets.iter_indices(members):
            if self._ranking.ranks[i] == least:
                result |= 1 << i
        return result

    def satisfies(self, conditional):
        if conditional.kind != DEFEASIBLE:
            raise StructureError(
                "preference satisfaction is defined for defeasible conditionals; "
                "check classical implications against extensions directly"
            )
        antecedent_objects = extension(self._context, conditional.antecedent)
        minimal = self.minimise_objects(antecedent_objects)
        return bitsets.is_subset(
            minimal, extension(self._context, conditional.consequent)
        )

    def __eq__(self, other):
        if not isinstance(other, RankedContext):
            return NotImplemented
        return self._context == other._context and self._ranking == other._ranking

    def __hash__(self):
        return hash((self._context, self._ranking))

    def __repr__(self):
        return f"RankedContext({self._context!r}, {self._ranking!r})"
