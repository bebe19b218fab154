"""Reading and writing contexts, conditional sets, orders, and rankings.

Context formats:

* Burmeister ``.cxt``: line 1 is ``B``, line 2 blank, lines 3 and 4 the
  object and attribute counts, line 5 blank, then one object name per
  line, one attribute name per line, and one row of ``X``/``.`` cells per
  object. Names are taken verbatim (UTF-8, spaces allowed, no trimming);
  the loader tolerates CRLF, the writer emits LF with a final newline.
* ``.csv``: first row is the attribute names (the leading cell is
  ignored), the first column the object names, cells ``1``/``x`` for
  incident and ``0``/empty for not.

Conditional files are UTF-8 text, one statement per line; ``#`` starts a
comment and blank lines are skipped. Order files hold ``a < b`` lines
(a strictly below b, names trimmed of surrounding whitespace). Rank files
hold ``<rank> <object name>`` lines and must cover every object.
"""

import csv
import io
import os
from dataclasses import dataclass
from typing import Optional

from .context import FormalContext
from .errors import BindingError, FileFormatError, FormulaSyntaxError, StructureError
from .formula import parse_conditional, parse_prop_statement
from .order import RankingFunction, StrictOrder


def parse_cxt(text, path=None):
    """Parse Burmeister context text."""
    text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()

    def need(index, description):
        if index >= len(lines):
            raise FileFormatError(
                f"file ends before {description}", path, len(lines) + 1
            )
        return lines[index]

    if need(0, "the format header") != "B":
        raise FileFormatError("expected header 'B'", path, 1)
    if need(1, "the blank line after the header") != "":
        raise FileFormatError("expected a blank line after the header", path, 2)
    counts = []
    for offset, what in ((2, "object count"), (3, "attribute count")):
        raw = need(offset, f"the {what}")
        try:
            value = int(raw)
        except ValueError:
            raise FileFormatError(
                f"expected the {what}, got {raw!r}", path, offset + 1
            ) from None
        if value < 0:
            raise FileFormatError(f"negative {what}", path, offset + 1)
        counts.append(value)
    n_objects, n_attributes = counts
    if need(4, "the blank line after the counts") != "":
        raise FileFormatError("expected a blank line after the counts", path, 5)

    def read_names(start, count, what):
        names = []
        for k in range(count):
            name = need(start + k, f"{what} name {k + 1} of {count}")
            if name == "":
                raise FileFormatError(f"empty {what} name", path, start + k + 1)
            names.append(name)
        return names

    objects = read_names(5, n_objects, "object")
    attributes = read_names(5 + n_objects, n_attributes, "attribute")
    rows = []
    row_start = 5 + n_objects + n_attributes
    for k in range(n_objects):
        line = need(row_start + k, f"incidence row {k + 1} of {n_objects}")
        if len(line) != n_attributes:
            raise FileFormatError(
                f"row has {len(line)} cells, expected {n_attributes}",
                path,
                row_start + k + 1,
            )
        row = 0
        for j, cell in enumerate(line):
            if cell == "X":
                row |= 1 << j
            elif cell != ".":
                raise FileFormatError(
                    f"illegal cell {cell!r}, expected 'X' or '.'",
                    path,
                    row_start + k + 1,
                )
        rows.append(row)
    if len(lines) > row_start + n_objects:
        raise FileFormatError(
            "unexpected content after the incidence rows",
            path,
            row_start + n_objects + 1,
        )
    try:
        return FormalContext(objects, attributes, rows)
    except StructureError as exc:
        raise FileFormatError(str(exc), path) from exc


def format_cxt(context):
    """Canonical Burmeister text for a context; parse_cxt inverts it byte for byte."""
    for name in context.objects + context.attributes:
        if "\n" in name or "\r" in name:
            raise StructureError(f"name {name!r} cannot be written to .cxt")
    lines = ["B", "", str(context.n_objects), str(context.n_attributes), ""]
    lines.extend(context.objects)
    lines.extend(context.attributes)
    for i in range(context.n_objects):
        row = context.row(i)
        lines.append(
            "".join("X" if row >> j & 1 else "." for j in range(context.n_attributes))
        )
    return "\n".join(lines) + "\n"


def parse_csv_context(text, path=None):
    """Parse CSV context text."""
    reader = csv.reader(io.StringIO(text))
    table = list(reader)
    if not table:
        raise FileFormatError("empty file", path, 1)
    attributes = table[0][1:]
    objects = []
    rows = []
    for line_no, record in enumerate(table[1:], start=2):
        if not record:
            continue
        if len(record) - 1 != len(attributes):
            raise FileFormatError(
                f"row has {len(record) - 1} cells, expected {len(attributes)}",
                path,
                line_no,
            )
        objects.append(record[0])
        row = 0
        for j, cell in enumerate(record[1:]):
            cell = cell.strip()
            if cell in ("1", "x", "X"):
                row |= 1 << j
            elif cell not in ("0", ""):
                raise FileFormatError(
                    f"illegal cell {cell!r}, expected 1, 0, x, or empty",
                    path,
                    line_no,
                )
        rows.append(row)
    try:
        return FormalContext(objects, attributes, rows)
    except StructureError as exc:
        raise FileFormatError(str(exc), path) from exc


def load_context(path, fmt=None):
    """Load a context from a .cxt or .csv file (format inferred from the suffix)."""
    if fmt is None:
        suffix = os.path.splitext(str(path))[1].lower()
        if suffix == ".cxt":
            fmt = "cxt"
        elif suffix == ".csv":
            fmt = "csv"
        else:
            raise FileFormatError(
                f"cannot infer context format from suffix {suffix!r}; "
                "pass fmt='cxt' or fmt='csv'",
                path,
            )
    text = _read_text(path)
    if fmt == "cxt":
        return parse_cxt(text, path)
    if fmt == "csv":
        return parse_csv_context(text, path)
    raise FileFormatError(f"unknown context format {fmt!r}", path)


def save_context(context, path):
    """Write a context as canonical Burmeister text."""
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(format_cxt(context))


def _read_text(path):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except OSError as exc:
        raise FileFormatError(str(exc), path) from exc
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"not valid UTF-8: {exc}", path) from exc


def _statement_lines(path):
    for line_no, line in enumerate(_read_text(path).splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield line_no, line


def load_conditionals(path):
    """Load compound-attribute statements, one ``phi |~ psi`` or ``phi -> psi`` per line."""
    statements = []
    for line_no, line in _statement_lines(path):
        try:
            statements.append(parse_conditional(line))
        except FormulaSyntaxError as exc:
            raise FileFormatError(str(exc), path, line_no) from exc
    return statements


def load_prop_statements(path):
    """Load propositional statements, one ``phi |~ psi`` or bare formula per line."""
    statements = []
    for line_no, line in _statement_lines(path):
        try:
            statements.append(parse_prop_statement(line))
        except FormulaSyntaxError as exc:
            raise FileFormatError(str(exc), path, line_no) from exc
    return statements


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


@dataclass(frozen=True)
class ContextDocument:
    """A loaded context plus at most one preference block."""

    context: FormalContext
    order: Optional[StrictOrder] = None
    ranking: Optional[RankingFunction] = None

    def __post_init__(self):
        if self.order is not None and self.ranking is not None:
            raise StructureError(
                "a document carries an order or a ranking, never both"
            )


def load_document(context_path, *, order_path=None, ranks_path=None, fmt=None):
    """Load a context and, optionally, exactly one of an order or a ranking."""
    if order_path is not None and ranks_path is not None:
        raise StructureError("pass order_path or ranks_path, never both")
    context = load_context(context_path, fmt=fmt)
    order = load_order(order_path, context) if order_path is not None else None
    ranking = load_ranks(ranks_path, context) if ranks_path is not None else None
    return ContextDocument(context, order, ranking)
