"""Reading and writing contexts, conditional sets, orders, and rankings.

Context formats:

* Burmeister ``.cxt``: line 1 is ``B``, line 2 blank, lines 3 and 4 the
  object and attribute counts, line 5 blank, then one object name per
  line, one attribute name per line, and one row of ``X``/``.`` cells per
  object. Names are taken verbatim (UTF-8, spaces allowed, no trimming);
  the loader tolerates CRLF, the writer emits LF with a final newline.
  The loader checks the header, the counts and the names as it splits
  them off, and reports each fault at its line. It keeps the rows as one
  block, which a fixed number of C-level passes check (ASCII, its length,
  nothing but ``n`` line breaks besides the ``X``/``.`` cells, a line
  break after every ``m`` cells). Only when a check fails are the rows
  walked one by one, to report the first fault and its line number.
* ``.csv``: first row is the attribute names (the leading cell is
  ignored), the first column the object names, cells ``1``/``x``/``X``
  for incident and ``0``/empty for not, surrounding whitespace ignored.
  Empty records are skipped. Names are taken verbatim and, as in
  ``.cxt``, may not be empty or hold a line break. The loader checks the
  attribute names first, then the records in bulk, and walks the records
  only to report the first fault and its line number.

Every check is made at load. The checked cells are then handed to the
context as one block, and each column is cut out of it (one reversed
strided slice, mapped to binary digits) the first time it is read, so a
command pays only for the attributes it reads; the block is kept until
every column has been cut.

Conditional files are UTF-8 text, one statement per line; ``#`` starts a
comment and blank lines are skipped. Order files hold ``a < b`` lines
(a strictly below b, names trimmed of surrounding whitespace). Rank files
hold ``<rank> <object name>`` lines and must cover every object. In
these three kinds of file, as in a ``.cxt``, only a line break (``\\n``,
``\\r\\n`` or ``\\r``) ends a line: a form feed, NEL or U+2028 LINE
SEPARATOR is part of the line it is on.
"""

import csv
import io
import itertools
import os

from .context import FormalContext
from .errors import BindingError, FileFormatError, FormulaSyntaxError, StructureError
from .formula import parse_conditional, parse_prop_statement
from .order import RankingFunction, StrictOrder


# .cxt incidence cells: deleting the legal ones leaves the illegal ones in
# order; mapping binary digits to cells writes a row in one C-level pass
_DROP_CELLS = str.maketrans("", "", "X.")
_DIGIT_CELLS = str.maketrans("10", "X.")
# .csv incidence cells, stripped, and their binary digits
_CSV_DIGITS = {"1": b"1", "x": b"1", "X": b"1", "0": b"0", "": b"0"}


def parse_cxt(text, path=None):
    """Parse Burmeister context text, raising each fault at its line."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
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
        try:
            value = int(raw)
        except ValueError:
            raise FileFormatError(
                f"expected the {what}, got {raw!r}", path, offset + 1
            ) from None
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

    # the rows stay one block, checked in bulk; a non-ASCII character
    # encodes as "?", which the cell check refuses
    cells = block.encode("ascii", "replace")
    breaks = b"\n" * n
    if (
        len(cells) != n * (m + 1)
        or cells.translate(None, b"X.") != breaks
        or cells[m::m + 1] != breaks
    ):
        # a check failed: walk the rows to the first fault
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
    try:
        return FormalContext._from_cells(
            tuple(names[:n]), tuple(names[n:]), cells, m + 1
        )
    except StructureError as exc:
        raise FileFormatError(str(exc), path) from exc


def format_cxt(context):
    """Canonical Burmeister text for a context; parse_cxt inverts it byte for byte."""
    # an empty name would be a blank line, which parse_cxt refuses
    for name in context.objects + context.attributes:
        if name == "" or "\n" in name or "\r" in name:
            raise StructureError(f"name {name!r} cannot be written to .cxt")
    lines = ["B", "", str(context.n_objects), str(context.n_attributes), ""]
    lines.extend(context.objects)
    lines.extend(context.attributes)
    rows = map(context.row, range(context.n_objects))
    if context.n_attributes:
        # the inverse of the parse: row i's digits, cell 0 first
        spec = f"0{context.n_attributes}b"
        lines.extend(format(row, spec)[::-1].translate(_DIGIT_CELLS) for row in rows)
    else:
        lines.extend("" for _ in rows)
    return "\n".join(lines) + "\n"


def parse_csv_context(text, path=None):
    """Parse CSV context text.

    The records are read with the ``csv`` module. The attribute names are
    checked first, on line 1: none empty, none holding a line break. The
    records are then checked in bulk: row lengths, empty object names,
    line breaks in object names, and one lookup of each distinct cell
    text. The cells become one block of binary digits, cut into columns on
    first read as ``parse_cxt``'s are. Only when a bulk check fails does
    ``_locate_csv_fault`` walk the records to report the first fault. Text
    the reader refuses (a field over its size limit, or a line break
    inside an unquoted field) is a fault on the line where the reader
    stopped.
    """
    reader = csv.reader(io.StringIO(text))
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
        _refuse_line_break(name, "attribute", path, 1)
    width = len(attributes) + 1
    records = list(filter(None, table[1:]))
    if not set(map(len, records)) <= {width}:
        _locate_csv_fault(table, width, path)
    # row-major fields: every width-th one from 0 on is an object name,
    # the rest are the cells
    fields = list(itertools.chain.from_iterable(records))
    objects = tuple(fields[::width])
    del fields[::width]
    # a file spells its cells a few ways; an illegal one reads "?"
    digit = {cell: _CSV_DIGITS.get(cell.strip(), b"?") for cell in set(fields)}
    # .cxt holds a name on one line, so neither format takes a line break
    names = "".join(objects)
    if "" in objects or b"?" in digit.values() or "\n" in names or "\r" in names:
        _locate_csv_fault(table, width, path)
    # digits run row by row, m to a row
    digits = b"".join(map(digit.__getitem__, fields))
    try:
        return FormalContext._from_cells(objects, attributes, digits, len(attributes))
    except StructureError as exc:
        raise FileFormatError(str(exc), path) from exc


def _locate_csv_fault(table, width, path):
    """Raise for the first faulty record of a CSV table, header excepted.

    ``parse_csv_context`` calls this only when a bulk check of the records
    failed, so a fault is there. Line numbers count CSV records, the
    header being line 1; empty records are skipped. Within a record, in
    this order, the faults are: the wrong length, an empty object name, a
    line break in the object name, an illegal cell.
    """
    for line_no, record in enumerate(table[1:], start=2):
        if not record:
            continue
        if len(record) != width:
            raise FileFormatError(
                f"row has {len(record) - 1} cells, expected {width - 1}",
                path,
                line_no,
            )
        if record[0] == "":
            raise FileFormatError("empty object name", path, line_no)
        _refuse_line_break(record[0], "object", path, line_no)
        for cell in record[1:]:
            cell = cell.strip()
            if cell not in _CSV_DIGITS:
                raise FileFormatError(
                    f"illegal cell {cell!r}, expected 1, 0, x, or empty",
                    path,
                    line_no,
                )


def _refuse_line_break(name, what, path, line_no):
    if "\n" in name or "\r" in name:
        raise FileFormatError(f"line break in {what} name {name!r}", path, line_no)


def load_context(path):
    """Load a context from a .cxt or .csv file (format inferred from the suffix)."""
    suffix = os.path.splitext(str(path))[1].lower()
    if suffix == ".cxt":
        return parse_cxt(_read_text(path), path)
    if suffix == ".csv":
        return parse_csv_context(_read_text(path), path)
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


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
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


def load_ranks(path, context):
    """Load ``<rank> <object name>`` lines into a ranking of the context's objects."""
    assigned = {}
    for line_no, line in _statement_lines(path):
        parts = line.strip().split(None, 1)
        if len(parts) != 2:
            raise FileFormatError(
                "expected '<rank> <object name>'", path, line_no
            )
        raw_rank, name = parts
        try:
            rank = int(raw_rank)
        except ValueError:
            raise FileFormatError(
                f"expected an integer rank, got {raw_rank!r}", path, line_no
            ) from None
        if rank < 0:
            raise FileFormatError(
                f"expected a non-negative rank, got {raw_rank!r}", path, line_no
            )
        try:
            index = context.object_index(name)
        except BindingError as exc:
            raise FileFormatError(str(exc), path, line_no) from exc
        if index in assigned:
            raise FileFormatError(f"object {name!r} ranked twice", path, line_no)
        assigned[index] = rank
    missing = [
        context.objects[i] for i in range(context.n_objects) if i not in assigned
    ]
    if missing:
        raise FileFormatError(f"objects never ranked: {missing!r}", path)
    return RankingFunction(tuple(assigned[i] for i in range(context.n_objects)))
