"""Formal contexts and classical attribute implications.

A formal context is a table: a finite set of objects, a finite set of
attributes, and an incidence relation saying which object has which
attribute. Object and attribute sets are bitsets (ints) over the index
universes fixed by declaration order; all outputs list indices ascending.
"""

from itertools import repeat

from . import bitsets
from .errors import BindingError, StructureError
from .record import Record

# incidence cells to binary digits: .cxt's X and . become 1 and 0, and
# the digits of .csv and of FormalContext's own block stay as they are
_CELL_DIGITS = bytes.maketrans(b"X.", b"10")


class FormalContext:
    """An immutable object/attribute incidence table.

    ``intent`` and ``extent`` are the two derivation operators: the
    attributes shared by a set of objects, and the objects having every
    attribute of a set. Both map the empty set to the opposite universe,
    and together they form a Galois connection.
    """

    __slots__ = (
        "_objects",
        "_attributes",
        "_cols",
        "_cells",
        "_stride",
        "_uncut",
        "_oindex",
        "_aindex",
    )

    def __init__(self, objects, attributes, incidence):
        """Check the rows and keep them as one cell block, no Python step per object."""
        objects = tuple(objects)
        attributes = tuple(attributes)
        _check_names(objects, "object")
        _check_names(attributes, "attribute")
        rows = tuple(incidence)
        if len(rows) != len(objects):
            raise StructureError(
                f"expected {len(objects)} incidence rows, got {len(rows)}"
            )
        m = len(attributes)
        full = bitsets.universe(m)
        # plain ints fit exactly when they lie in 0..full; anything else
        # (another type, or an int out of range) is walked row by row
        if rows and not (
            set(map(type, rows)) == {int} and min(rows) >= 0 and max(rows) <= full
        ):
            for i, row in enumerate(rows):
                if not isinstance(row, int) or row < 0 or row & ~full:
                    raise StructureError(
                        f"incidence row {i} does not fit {m} attributes"
                    )
        # a row's digits run from bit m - 1 down: joined from the last row and
        # read backwards, they put row i's bit j at i * m + j, as a parser does
        cells = "".join(map(format, reversed(rows), repeat(f"0{m}b")))[::-1]
        self._hold(objects, attributes, [None] * m, cells.encode("ascii"), m)

    @classmethod
    def _from_columns(cls, objects, attributes, cols):
        """A context from name tuples and one in-range column per attribute.

        Package-internal: a propositional interpretation builds one column
        per atom from its valuations, and a derived context takes its
        interpretation's columns under new object names. The names are
        still checked for duplicates.
        """
        _check_names(objects, "object")
        _check_names(attributes, "attribute")
        context = cls.__new__(cls)
        context._hold(objects, attributes, cols)
        return context

    @classmethod
    def _from_cells(cls, objects, attributes, cells, stride):
        """A context over a checked block of cells, cut into columns on first read.

        Package-internal: the ``.cxt`` and ``.csv`` parsers hand over the
        cells they have checked as one bytes block, row i's ``m`` cells
        (``X``/``.`` or ``1``/``0``) starting at ``i * stride``. Column j is
        cut the first time it is read (``_cut``) and kept; the block is
        dropped once every column has been cut. The names are checked for
        duplicates here; nothing else can fail later.
        """
        context = cls._from_columns(objects, attributes, [None] * len(attributes))
        context._cells = cells
        context._stride = stride
        return context

    def _hold(self, objects, attributes, cols, cells=None, stride=0):
        """Keep the names and the columns; a None column is cut from ``cells``."""
        self._objects = objects
        self._attributes = attributes
        self._cols = cols
        self._cells = cells
        self._stride = stride
        self._uncut = len(cols)
        self._oindex = None
        self._aindex = None

    @classmethod
    def from_pairs(cls, objects, attributes, pairs):
        """Build a context from (object name, attribute name) incidences."""
        objects = tuple(objects)
        attributes = tuple(attributes)
        oindex = {name: i for i, name in enumerate(objects)}
        aindex = {name: j for j, name in enumerate(attributes)}
        rows = [0] * len(objects)
        for obj, attr in pairs:
            if obj not in oindex:
                raise BindingError(f"unknown object {obj!r}")
            if attr not in aindex:
                raise BindingError(f"unknown attribute {attr!r}")
            rows[oindex[obj]] |= 1 << aindex[attr]
        return cls(objects, attributes, rows)

    @property
    def objects(self):
        return self._objects

    @property
    def attributes(self):
        return self._attributes

    @property
    def n_objects(self):
        return len(self._objects)

    @property
    def n_attributes(self):
        return len(self._attributes)

    @property
    def object_universe(self):
        return bitsets.universe(len(self._objects))

    @property
    def attribute_universe(self):
        return bitsets.universe(len(self._attributes))

    def object_index(self, name):
        if self._oindex is None:
            self._oindex = dict(zip(self._objects, range(len(self._objects))))
        try:
            return self._oindex[name]
        except KeyError:
            raise BindingError(f"unknown object {name!r}") from None

    def attribute_index(self, name):
        if self._aindex is None:
            self._aindex = dict(zip(self._attributes, range(len(self._attributes))))
        try:
            return self._aindex[name]
        except KeyError:
            raise BindingError(f"unknown attribute {name!r}") from None

    def object_set(self, names):
        """Bitset of the named objects."""
        return bitsets.from_indices(
            map(self.object_index, names), len(self._objects)
        )

    def attribute_set(self, names):
        """Bitset of the named attributes."""
        return bitsets.from_indices(
            map(self.attribute_index, names), len(self._attributes)
        )

    def object_names(self, bits):
        """Names of the member objects, in declaration order."""
        self._check_objects(bits)
        return tuple(bitsets.select(self._objects, bits))

    def attribute_names(self, bits):
        """Names of the member attributes, in declaration order."""
        self._check_attributes(bits)
        return tuple(bitsets.select(self._attributes, bits))

    def row(self, i):
        """Attributes of object i, as a bitset: m column operations, none per object."""
        if not 0 <= i < len(self._objects):
            raise StructureError(f"object index {i} out of range")
        cols = self._columns()
        held = [j for j, col in enumerate(cols) if col >> i & 1]
        return bitsets.from_indices(held, len(cols))

    def column(self, j):
        """Objects having attribute j, as a bitset."""
        if not 0 <= j < len(self._attributes):
            raise StructureError(f"attribute index {j} out of range")
        col = self._cols[j]
        return self._cut(j) if col is None else col

    def intent(self, object_bits):
        """Attributes common to every object in the set (all of M for the empty set).

        A containment test per column: m column operations, none per object.
        """
        self._check_objects(object_bits)
        cols = self._columns()
        shared = [j for j, col in enumerate(cols) if not object_bits & ~col]
        return bitsets.from_indices(shared, len(cols))

    def extent(self, attribute_bits):
        """Objects having every attribute in the set (all of G for the empty set)."""
        self._check_attributes(attribute_bits)
        result = self.object_universe
        for j in bitsets.iter_indices(attribute_bits):
            result &= self.column(j)
        return result

    def _cut(self, j):
        """Cut column j out of the cell block and keep it.

        Column j of the last row sits at ``(n - 1) * stride + j``; slicing
        back from there in steps of ``stride`` reads the column from the
        last row to the first, which as binary digits puts row i at bit i.
        """
        stride = self._stride
        cells = self._cells[(len(self._objects) - 1) * stride + j::-stride]
        # with no object the slice is empty, and the column is 0
        col = self._cols[j] = int(cells.translate(_CELL_DIGITS) or b"0", 2)
        self._uncut -= 1
        if not self._uncut:
            self._cols = tuple(self._cols)
            self._cells = None
        return col

    def _columns(self):
        """Every column, as a tuple, cutting those not read yet."""
        if self._cells is not None:
            self._cols = tuple(map(self.column, range(len(self._attributes))))
            self._cells = None
        return self._cols

    def _check_objects(self, bits):
        if bits < 0 or bits >> len(self._objects):
            raise StructureError("object set out of range for this context")

    def _check_attributes(self, bits):
        if bits < 0 or bits >> len(self._attributes):
            raise StructureError("attribute set out of range for this context")

    def __eq__(self, other):
        if other is self:
            # entailment_diff compares a context with itself: cut no column
            return True
        if not isinstance(other, FormalContext):
            return NotImplemented
        return (
            self._objects == other._objects
            and self._attributes == other._attributes
            and self._columns() == other._columns()
        )

    def __hash__(self):
        return hash((self._objects, self._attributes, self._columns()))

    def __repr__(self):
        return (
            f"FormalContext({len(self._objects)} objects, "
            f"{len(self._attributes)} attributes)"
        )


def _check_names(names, what):
    """Raise a StructureError for the first repeated name.

    One C-level ``set`` build answers the common case. Only when it comes
    out short (a repeat) or fails (an unhashable name) are the names walked
    in order, so the error names the first repeat as a per-name check would.
    """
    try:
        if len(set(names)) == len(names):
            return
    except TypeError:
        pass
    seen = set()
    for name in names:
        if name in seen:
            raise StructureError(f"duplicate {what} name {name!r}")
        seen.add(name)


class AttributeImplication(Record):
    """A -> B over one context's attribute universe, both sides bitsets."""

    __slots__ = ("premise", "conclusion")

    def __init__(self, premise, conclusion):
        if premise < 0 or conclusion < 0:
            raise StructureError("implication sides must be non-negative bitsets")
        _set_premise(self, premise)
        _set_conclusion(self, conclusion)


_set_premise = AttributeImplication.premise.__set__
_set_conclusion = AttributeImplication.conclusion.__set__


def implication_holds(context, implication):
    """Does A -> B hold in the context, i.e. is extent(A) contained in extent(B)?"""
    return bitsets.is_subset(
        context.extent(implication.premise), context.extent(implication.conclusion)
    )
