"""Reading and writing contexts, conditional sets, and orders.

Context formats:

* Burmeister ``.cxt``: line 1 is ``B``, line 2 blank, lines 3 and 4 the
  object and attribute counts, line 5 blank, then one object name per
  line, one attribute name per line, and one row of ``X``/``.`` cells per
  object. Names are taken verbatim (UTF-8, spaces allowed, no trimming);
  the reader takes CRLF and a lone CR as LF, the writer emits LF with a
  final newline. A count is ASCII digits after an optional ``-``.
  ``load_context`` and ``parse_cxt`` share one reader over UTF-8 bytes:
  it takes the counts from the header and the cell block from the end,
  checks both and the names with a fixed number of C-level passes, and
  decodes only the names; the cells go to the context undecoded. When a
  check fails, ``_cxt_fault``, the one fault reporter, walks the text and
  reports the first fault at its line, or an undecodable byte.
* ``.csv``: first row is the attribute names (the leading cell is
  ignored), the first column the object names, cells ``1``/``x``/``X``
  for incident and ``0``/empty for not, surrounding whitespace ignored.
  Empty records are skipped. Names are taken verbatim and, as in
  ``.cxt``, may not be empty or hold a line break. The text is read with
  ``newline=""``, as the ``csv`` module asks: a lone CR ends a record, as
  in ``.cxt`` and statement files, and a quoted field keeps its line
  breaks. The loader checks the attribute names first, then walks the
  records once, raising the first fault at its line; a per-text table
  strips and looks up each distinct cell text once.

Every check is made at load. The checked cells are then handed to the
context as one block, and each column is cut out of it (one reversed
strided slice, mapped to binary digits) the first time it is read, so a
command pays only for the attributes it reads; the block is kept until
every column has been cut.

Conditional files are UTF-8 text, one statement per line; ``#`` starts a
comment and blank lines are skipped. Order files hold ``a < b`` lines
(a strictly below b, names trimmed of surrounding whitespace). In both
kinds of file, as in a ``.cxt``, only a line break (``\\n``,
``\\r\\n`` or ``\\r``) ends a line: a form feed, NEL or U+2028 LINE
SEPARATOR is part of the line it is on.
"""

import csv
import io
import os
import re

from .context import FormalContext
from .errors import BindingError, FileFormatError, FormulaSyntaxError, StructureError
from .formula import parse_conditional, parse_prop_statement
from .order import StrictOrder


# .cxt incidence cells: deleting the legal ones leaves the illegal ones in
# order; mapping binary digits to cells writes a column in one C-level pass
_DROP_CELLS = str.maketrans("", "", "X.")
_DIGIT_CELLS = bytes.maketrans(b"10", b"X.")
# what a .cxt name cannot hold: a line break, or a code point UTF-8 cannot encode
_UNWRITABLE = re.compile("[\n\r\ud800-\udfff]")
# .csv incidence cells, stripped, and their binary digits
_CSV_DIGITS = {"1": b"1", "x": b"1", "X": b"1", "0": b"0", "": b"0"}


def parse_cxt(text, path=None):
    """Parse Burmeister context text as ``load_context`` reads its UTF-8 bytes.

    A lone surrogate, which has no UTF-8 encoding, is "not valid UTF-8".
    """
    return _read_cxt(text.encode("utf-8", "surrogatepass"), path)


def _read_cxt(data, path):
    """The context in a .cxt file's bytes, checked in bulk.

    Line ends become LF, the counts are read from the header, and the cell
    block is the last n * (m + 1) bytes, which must hold nothing but
    ``X``/``.`` cells and a line break after every ``m``. What comes
    before it must be exactly n + m nonempty name lines, and only they are
    decoded. A failed check hands the bytes as given to ``_cxt_fault``.
    """
    given = data
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    if data[-1:] != b"\n":
        data += b"\n"
    head = data.split(b"\n", 5)
    # a count is ASCII digits after an optional "-", as in the line walk
    if (
        len(head) < 6
        or head[:2] != [b"B", b""]
        or head[4]
        or not all(count.removeprefix(b"-").isdigit() for count in head[2:4])
    ):
        return _cxt_fault(given, path)
    try:
        n, m = map(int, head[2:4])
    except ValueError:  # more digits than int() converts
        return _cxt_fault(given, path)
    rest = head[5]
    start = len(rest) - n * (m + 1)
    if min(n, m, start) < 0:
        return _cxt_fault(given, path)
    names, cells = rest[:start], rest[start:]
    breaks = b"\n" * n
    # every name line ends in a line break, and none is empty
    if (
        names[-1:] not in (b"", b"\n")
        or names[:1] == b"\n"
        or b"\n\n" in names
        or cells.translate(None, b"X.") != breaks
        or cells[m::m + 1] != breaks
    ):
        return _cxt_fault(given, path)
    try:
        # the last item is the empty text after the last line break
        names = tuple(names.decode("utf-8").split("\n"))
    except UnicodeDecodeError:
        return _cxt_fault(given, path)
    if len(names) != n + m + 1:
        return _cxt_fault(given, path)
    try:
        return FormalContext._from_cells(names[:n], names[n:-1], cells, m + 1)
    except StructureError as exc:
        raise FileFormatError(str(exc), path) from exc


def _cxt_fault(data, path):
    """Raise for the first fault in .cxt bytes that ``_read_cxt`` refused.

    An undecodable byte is the fault; otherwise the text is walked line by
    line: the header, the counts, the names, then the rows.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not valid UTF-8: {exc}", path) from exc
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if text and text[-1] != "\n":
        text += "\n"
    # the text is empty or ends in a line break, so ``rest`` is too
    *head, rest = text.split("\n", 5)

    def header(k, what):
        if k >= len(head):
            raise FileFormatError(f"file ends before {what}", path, k + 1)
        return head[k]

    if header(0, "the format header") != "B":
        raise FileFormatError("expected header 'B'", path, 1)
    if header(1, "the blank line after the header") != "":
        raise FileFormatError("expected a blank line after the header", path, 2)
    counts = []
    for offset, what in ((2, "object count"), (3, "attribute count")):
        raw = header(offset, f"the {what}")
        # ASCII digits after an optional "-": int() alone would also take
        # "+1", " 1", "1_0" and other scripts' digits
        digits = raw[1:] if raw[:1] == "-" else raw
        if not (digits.isascii() and digits.isdigit()):
            raise FileFormatError(f"expected the {what}, got {raw!r}", path, offset + 1)
        try:
            value = int(raw)
        except ValueError:
            # more digits than int() converts (sys.get_int_max_str_digits)
            raise FileFormatError(f"{what} too large", path, offset + 1) from None
        if value < 0:
            raise FileFormatError(f"negative {what}", path, offset + 1)
        counts.append(value)
    n, m = counts
    if header(4, "the blank line after the counts") != "":
        raise FileFormatError("expected a blank line after the counts", path, 5)

    # each name takes at least one line break, so no more than len(rest)
    # cuts are ever needed, and a count past sys.maxsize never reaches split
    *names, block = rest.split("\n", min(n + m, len(rest)))
    if "" in names:
        k = names.index("")
        raise FileFormatError(
            f"empty {'object' if k < n else 'attribute'} name", path, 6 + k
        )
    if len(names) < n + m:
        k = len(names)
        what, count, index = ("object", n, k) if k < n else ("attribute", m, k - n)
        raise FileFormatError(
            f"file ends before {what} name {index + 1} of {count}", path, 6 + k
        )
    rows = block.split("\n")[:-1]
    for k in range(n):
        line_no = 6 + n + m + k
        if k == len(rows):
            raise FileFormatError(
                f"file ends before incidence row {k + 1} of {n}", path, line_no
            )
        if len(rows[k]) != m:
            raise FileFormatError(
                f"row has {len(rows[k])} cells, expected {m}", path, line_no
            )
        illegal = rows[k].translate(_DROP_CELLS)
        if illegal:
            raise FileFormatError(
                f"illegal cell {illegal[0]!r}, expected 'X' or '.'", path, line_no
            )
    raise FileFormatError(
        "unexpected content after the incidence rows", path, 6 + n + m + n
    )


def format_cxt(context):
    """Canonical Burmeister text for a context; parse_cxt inverts it byte for byte.

    Column j's digits fill every (m + 1)-th cell from j on in one slice, the
    inverse of the parse's cut. No Python step runs per object.
    """
    names = context.objects + context.attributes
    # an empty name would be a blank line, which parse_cxt refuses, and a
    # lone surrogate has no UTF-8 encoding
    if "" in names or _UNWRITABLE.search("".join(names)):
        for name in names:
            if name == "" or _UNWRITABLE.search(name):
                raise StructureError(f"name {name!r} cannot be written to .cxt")
    n, m = context.n_objects, context.n_attributes
    head = "\n".join(["B", "", str(n), str(m), "", *names]) + "\n"
    cells = bytearray(b"\n") * (n * (m + 1))
    if n:
        spec = f"0{n}b"
        for j in range(m):
            digits = format(context.column(j), spec)[::-1].encode("ascii")
            cells[j::m + 1] = digits.translate(_DIGIT_CELLS)
    return head + cells.decode("ascii")


def parse_csv_context(text, path=None):
    """Parse CSV context text, read as ``load_context`` reads a file.

    The ``csv`` module reads it through ``io.StringIO(text, newline="")``,
    so a lone ``\\r`` ends a record and a quoted field keeps its line
    breaks. The attribute names are checked first, on line 1: none empty,
    none holding a line break. One walk then decides each record, in this
    order: its length, an empty object name, a line break in the object
    name, an illegal cell, and raises the first fault at its line. Line
    numbers count records, the header being line 1; empty records are
    skipped. A ``_CsvDigits`` table strips and looks up each distinct cell
    text once, so the walk runs a fixed number of Python steps per record
    and none per cell. The cells become one block of binary digits, cut
    into columns on first read as ``parse_cxt``'s are. Text the reader
    refuses (a field over its size limit) is a fault on the line where
    the reader stopped.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        table = list(reader)
    except csv.Error as exc:
        raise FileFormatError(str(exc), path, reader.line_num) from exc
    if not table:
        raise FileFormatError("empty file", path, 1)
    attributes = tuple(table[0][1:])
    if "" in attributes:
        raise FileFormatError("empty attribute name", path, 1)
    for name in attributes:
        if "\n" in name or "\r" in name:
            raise FileFormatError(f"line break in attribute name {name!r}", path, 1)
    m = len(attributes)
    digit = _CsvDigits().__getitem__
    objects, rows = [], []
    for line_no, record in enumerate(table[1:], start=2):
        if not record:
            continue
        name = record[0]
        if len(record) != m + 1:
            fault = f"row has {len(record) - 1} cells, expected {m}"
        elif not name:
            fault = "empty object name"
        # .cxt holds a name on one line, so neither format takes a line break
        elif "\n" in name or "\r" in name:
            fault = f"line break in object name {name!r}"
        else:
            try:
                # digits run row by row, m to a row
                rows.append(b"".join(map(digit, record[1:])))
                objects.append(name)
                continue
            except KeyError as exc:
                fault = f"illegal cell {exc.args[0]!r}, expected 1, 0, x, or empty"
        raise FileFormatError(fault, path, line_no)
    try:
        return FormalContext._from_cells(tuple(objects), attributes, b"".join(rows), m)
    except StructureError as exc:
        raise FileFormatError(str(exc), path) from exc


class _CsvDigits(dict):
    """The binary digit of each .csv cell text, worked out on its first lookup.

    A file spells its cells a few ways, so a text is stripped and looked up
    once; one that is not a legal cell raises ``KeyError`` with the
    stripped text.
    """

    __slots__ = ()

    def __missing__(self, cell):
        self[cell] = digit = _CSV_DIGITS[cell.strip()]
        return digit


def load_context(path):
    """Load a context from a .cxt or .csv file (format inferred from the suffix).

    A ``.cxt`` file is read once, as bytes, and checked by a fixed number
    of C-level passes; only its names are decoded (``_read_cxt``).
    """
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix == ".cxt":
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            raise FileFormatError(str(exc), path) from exc
        return _read_cxt(data, path)
    if suffix == ".csv":
        # as parse_csv_context reads its text: line ends kept as written
        return parse_csv_context(_read_text(path, newline=""), path)
    raise FileFormatError(
        f"cannot infer context format from suffix {suffix!r}; "
        "expected '.cxt' or '.csv'",
        path,
    )


def save_context(context, path):
    """Write a context as canonical Burmeister text."""
    text = format_cxt(context)
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)


def _read_text(path, newline=None):
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as handle:
            return handle.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not valid UTF-8: {exc}", path) from exc


def _statement_lines(path):
    # the read turned "\r\n" and "\r" into "\n"; str.splitlines() would
    # also break at a form feed, NEL or U+2028
    for line_no, line in enumerate(_read_text(path).split("\n"), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, line


def _load_statements(path, parse):
    statements = []
    for line_no, line in _statement_lines(path):
        try:
            statements.append(parse(line))
        except FormulaSyntaxError as exc:
            raise FileFormatError(str(exc), path, line_no) from exc
    return statements


def load_conditionals(path):
    """Load compound-attribute statements, one ``phi |~ psi`` or ``phi -> psi`` per line."""
    return _load_statements(path, parse_conditional)


def load_prop_statements(path):
    """Load propositional statements, one ``phi |~ psi`` or bare formula per line."""
    return _load_statements(path, parse_prop_statement)


def load_order(path, context):
    """Load ``a < b`` lines into a strict order over the context's objects."""
    pairs = []
    for line_no, line in _statement_lines(path):
        parts = line.split("<")
        if len(parts) != 2:
            raise FileFormatError(
                "expected exactly one '<' between two object names", path, line_no
            )
        names = [part.strip() for part in parts]
        if "" in names:
            raise FileFormatError("missing object name beside '<'", path, line_no)
        try:
            pairs.append(
                (context.object_index(names[0]), context.object_index(names[1]))
            )
        except BindingError as exc:
            raise FileFormatError(str(exc), path, line_no) from exc
    return StrictOrder(context.n_objects, pairs)

