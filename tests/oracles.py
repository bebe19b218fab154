"""Slow reference procedures that the library's fast paths replaced.

Each one is the library's earlier implementation, kept verbatim apart from
being lifted out of its class or module, so that differential tests can
check the fast path against it on random and edge-case inputs. They cost
O(universe) per member or per pair and must not move back into ``src/``.
"""

from dfca import RankingFunction
from dfca.errors import FileFormatError, ModularityError, StructureError


# --- bitsets ---------------------------------------------------------------


def iter_indices(bits):
    """Yield member indices in ascending order, peeling the lowest bit each step."""
    if bits < 0:
        raise StructureError("bitsets must be non-negative ints")
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def from_indices(indices, size):
    """Build a set from indices, rejecting anything outside 0..size-1."""
    bits = 0
    for i in indices:
        if not 0 <= i < size:
            raise StructureError(f"index {i} out of range for size {size}")
        bits |= 1 << i
    return bits


# --- contexts and .cxt rows ------------------------------------------------


def columns(rows, n_attributes):
    """Attribute columns of a context, one incidence at a time."""
    cols = [0] * n_attributes
    for i, row in enumerate(rows):
        for j in iter_indices(row):
            cols[j] |= 1 << i
    return tuple(cols)


def parse_cxt_row(line, path, line_no):
    """One ``X``/``.`` incidence row of a .cxt file, one cell at a time."""
    row = 0
    for j, cell in enumerate(line):
        if cell == "X":
            row |= 1 << j
        elif cell != ".":
            raise FileFormatError(
                f"illegal cell {cell!r}, expected 'X' or '.'",
                path,
                line_no,
            )
    return row


# --- strict orders and rankings --------------------------------------------


def closure(size, pairs=()):
    """Successor and predecessor rows of the transitive closure, by fixed point."""
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
            for j in iter_indices(succ[i]):
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
        for j in iter_indices(succ[i]):
            pred[j] |= 1 << i
    return tuple(succ), tuple(pred)


def minimise(order, members):
    """Members with no strictly smaller member, built one bit at a time."""
    result = 0
    for i in iter_indices(members):
        if order.predecessors(i) & members == 0:
            result |= 1 << i
    return result


def stratum(ranks, level):
    """Bitset of indices at the given rank."""
    bits = 0
    for i, r in enumerate(ranks):
        if r == level:
            bits |= 1 << i
    return bits


def order_from_ranks(ranking):
    """Closed successor and predecessor rows from every ranked pair."""
    n = ranking.size
    pairs = [
        (i, j)
        for i in range(n)
        for j in range(n)
        if ranking.ranks[i] < ranking.ranks[j]
    ]
    return closure(n, pairs)


def ranks_from_order(order):
    """Canonical stratification of a modular order by iterated minima."""
    remaining = (1 << order.size) - 1
    ranks = [0] * order.size
    level = 0
    while remaining:
        stratum_bits = minimise(order, remaining)
        for i in iter_indices(stratum_bits):
            ranks[i] = level
        remaining &= ~stratum_bits
        level += 1
    below = 0
    expected_pred = [0] * order.size
    for current in range(level):
        for i in range(order.size):
            if ranks[i] == current:
                expected_pred[i] = below
        stratum_bits = from_indices(
            (i for i in range(order.size) if ranks[i] == current), order.size
        )
        below |= stratum_bits
    for i in range(order.size):
        if order.predecessors(i) != expected_pred[i]:
            raise ModularityError(
                "order is not modular: no ranking induces it"
            )
    return RankingFunction(ranks)
