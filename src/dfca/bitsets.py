"""Index sets encoded as Python ints, bit i standing for element i.

Cost model: a Python int is an array of machine words, so every set
operation (``&``, ``|``, ``^``, ``~``, shifts, comparison, ``bit_count``)
costs O(universe/64) words whatever the set's size, and ``iter_indices``
costs O(universe) per walk. Growing a set one ``bits |= 1 << i`` at a
time therefore costs O(universe) per member, which is quadratic over a
whole universe. Build sets with ``from_indices`` instead: it fills a
byte string and converts it once. Walk them with ``iter_indices``. A
dense set (at least one member per 16 bits of its length) has its
members picked out of its binary digits by ``itertools.compress`` in one
C-level pass, about 30 ns per bit. A sparser set is walked with
``str.rfind`` from member to member, about 0.3 µs per member, so its
walk costs Python time only per member. Either way a walk costs
O(universe + members) with a small constant. To pick the items of a
sequence (names, say) at a set's members, ``select`` runs the same
C-level ``compress`` over the sequence itself, so no index is ever
produced in Python.
"""

from itertools import compress, count

from .errors import StructureError

# rows per slice of a transposition; bounds the strings alive at once
_CHUNK_ROWS = 1024

_ONE = ord("1")

# binary digits as bytes to byte values, b"0" to 0 and b"1" to 1 << k in
# table k; the first maps digits to compress() selectors
_PLANES = [bytes.maketrans(b"01", bytes([0, 1 << k])) for k in range(8)]
_SELECTORS = _PLANES[0]

# a set is walked as dense from one member per this many bits of its length
_DENSE = 16


def universe(size):
    """The full set over ``size`` indices."""
    if size < 0:
        raise StructureError(f"universe size must be non-negative, got {size}")
    return (1 << size) - 1


def from_indices(indices, size):
    """Build a set from indices, rejecting anything outside 0..size-1.

    One byte of a digit string is set per index, a fixed number of Python
    steps per index, and the string is converted once.
    """
    # digits most significant first: index i sits at position size - 1 - i
    digits = bytearray(b"0") * size
    top = size - 1
    for i in indices:
        if not 0 <= i < size:
            raise StructureError(f"index {i} out of range for size {size}")
        digits[top - i] = _ONE
    return int(digits, 2) if digits else 0


def iter_indices(bits):
    """Yield member indices in ascending order."""
    if bits < 0:
        raise StructureError("bitsets must be non-negative ints")
    if bits.bit_count() * _DENSE >= bits.bit_length():
        yield from select(count(), bits)
        return
    digits = bin(bits)
    # bit 0 is the last digit; digits[:2] is the "0b" prefix
    top = len(digits) - 1
    pos = digits.rfind("1", 2)
    while pos >= 0:
        yield top - pos
        pos = digits.rfind("1", 2, pos)


def select(items, bits):
    """The items at the member indices of a non-negative set, in order.

    One ``itertools.compress`` over the set's binary digits, least
    significant first, as 0/1 selectors: a C-level pass of about 30 ns per
    bit of the set's length, whatever its density. Items past the highest
    member are never read.
    """
    return compress(items, bin(bits)[:1:-1].encode("ascii").translate(_SELECTORS))


def planes(sets, size):
    """One byte per index 0..size-1 for up to eight sets within the size:
    bit k of byte i is bit i of ``sets[k]``.

    Each set's binary digits become bytes 0 or ``1 << k`` in one
    ``translate``, read back as an int; the OR of these ints, written least
    significant byte first, is in index order. That is one C-level pass
    per set and no Python step per index.
    """
    spec = f"0{size}b"
    value = 0
    for table, bits in zip(_PLANES, sets):
        value |= int.from_bytes(format(bits, spec).encode().translate(table), "big")
    return value.to_bytes(size, "little")


def _transpose(rows, width):
    """Columns of a bit matrix: bit i of column j is bit j of ``rows[i]``.

    Each row is rendered as a ``width``-digit string, ``_CHUNK_ROWS`` rows
    at a time, and each column is cut out of the joined strings with one
    strided slice, so the cost is one pass of C-level string work over
    the matrix. Package-internal: strict orders build their successor
    rows with it.
    """
    if width == 0:
        # format(row, "00b") is "0", one digit too many
        return ()
    spec = f"0{width}b"
    columns = [0] * width
    for start in range(0, len(rows), _CHUNK_ROWS):
        # the chunk's rows, highest first, as one row-major digit string;
        # digit k of a row is bit width - 1 - k, so every width-th digit
        # from k on is that bit's column slice, highest row first
        block = "".join(
            [format(row, spec) for row in reversed(rows[start:start + _CHUNK_ROWS])]
        )
        for k in range(width):
            columns[width - 1 - k] |= int(block[k::width], 2) << start
    return tuple(columns)


def is_subset(a, b):
    return a & ~b == 0

