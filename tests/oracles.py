"""Slow reference procedures that the library's fast paths replaced.

Each one is the library's earlier implementation, kept verbatim apart from
being lifted out of its class or module, so that differential tests can
check the fast path against it on random and edge-case inputs. They cost
O(universe) per member or per pair, or walk every subset or rank vector,
and must not move back into ``src/``.
"""

import csv
import io
import itertools
import re

from dfca import (
    FormalContext,
    KnowledgeBase,
    PreferenceComparison,
    RankedContext,
    RankingFunction,
    bitsets,
)
from dfca.errors import (
    BindingError,
    CapacityError,
    FileFormatError,
    FormulaSyntaxError,
    ModularityError,
    StructureError,
    ValidityError,
)
from dfca.formula import (
    END,
    IDENT,
    QUOTED,
    And,
    Atom,
    Bot,
    Iff,
    Implies,
    Not,
    Or,
    Top,
    atom_names,
    bind,
    evaluate,
    extension,
)
from dfca.limits import enumeration_cap
from dfca.propositional import INFINITE_RANK, base_rank
from dfca.ranking import _bound_extents


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


def select(items, bits):
    """The items at a set's members, looked up one member index at a time.

    ``FormalContext.object_names`` and ``attribute_names`` walked names
    this way before they selected them with ``bitsets.select``.
    """
    return tuple(map(items.__getitem__, bitsets.iter_indices(bits)))


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


def context_checks(objects, attributes, incidence):
    """Name indexes and rows of a context, checking one name and row at a time."""
    objects = tuple(objects)
    attributes = tuple(attributes)
    oindex = {}
    for i, name in enumerate(objects):
        if name in oindex:
            raise StructureError(f"duplicate object name {name!r}")
        oindex[name] = i
    aindex = {}
    for j, name in enumerate(attributes):
        if name in aindex:
            raise StructureError(f"duplicate attribute name {name!r}")
        aindex[name] = j
    rows = tuple(incidence)
    if len(rows) != len(objects):
        raise StructureError(
            f"expected {len(objects)} incidence rows, got {len(rows)}"
        )
    full = (1 << len(attributes)) - 1
    for i, row in enumerate(rows):
        if not isinstance(row, int) or row < 0 or row & ~full:
            raise StructureError(
                f"incidence row {i} does not fit {len(attributes)} attributes"
            )
    return oindex, aindex, rows


_DROP_CELLS = str.maketrans("", "", "X.")
_CELL_DIGITS = str.maketrans("X.", "10")


def parse_cxt(text, path=None):
    """Parse Burmeister context text, walking it one line at a time."""
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
        illegal = line.translate(_DROP_CELLS)
        if illegal:
            raise FileFormatError(
                f"illegal cell {illegal[0]!r}, expected 'X' or '.'",
                path,
                row_start + k + 1,
            )
        # cell j is bit j, so the reversed row reads as a binary numeral
        rows.append(int(line[::-1].translate(_CELL_DIGITS), 2) if line else 0)
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
    """Canonical Burmeister text for a context, rendered one cell at a time."""
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
    """Parse CSV context text, checking each cell and OR-ing ``1 << j`` into its row.

    Accepts empty object and attribute names, which the library now refuses.
    """
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


# --- formula text, one character at a time --------------------------------

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")


def tokenize(text):
    """Token triples for a formula or statement, ending with an END token."""
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch == "#":
            break
        if ch in "!&()":
            tokens.append((ch, ch, pos))
            pos += 1
        elif ch == "|":
            if text.startswith("|~", pos):
                tokens.append(("|~", "|~", pos))
                pos += 2
            else:
                tokens.append((ch, ch, pos))
                pos += 1
        elif ch == "-":
            if text.startswith("->", pos):
                tokens.append(("->", "->", pos))
                pos += 2
            else:
                raise FormulaSyntaxError(
                    f"unexpected character {ch!r}", pos, expected="'->'"
                )
        elif ch == "<":
            if text.startswith("<->", pos):
                tokens.append(("<->", "<->", pos))
                pos += 3
            else:
                raise FormulaSyntaxError(
                    f"unexpected character {ch!r}", pos, expected="'<->'"
                )
        elif ch == '"':
            start = pos
            value, pos = _scan_quoted(text, start)
            tokens.append((QUOTED, value, start))
        else:
            match = IDENT_RE.match(text, pos)
            if match is None:
                raise FormulaSyntaxError(
                    f"unexpected character {ch!r}",
                    pos,
                    expected="an attribute name, operator, or parenthesis",
                )
            end = match.end()
            # back off a trailing '-' so "a->b" lexes as a, ->, b
            if end < n and text[end] == ">" and text[end - 1] == "-" and end - 1 > pos:
                end -= 1
            tokens.append((IDENT, text[pos:end], pos))
            pos = end
    tokens.append((END, "", n))
    return tokens


def _scan_quoted(text, start):
    pos = start + 1
    parts = []
    while pos < len(text):
        ch = text[pos]
        if ch == '"':
            return "".join(parts), pos + 1
        if ch == "\\":
            if pos + 1 >= len(text) or text[pos + 1] not in ('"', "\\"):
                raise FormulaSyntaxError(
                    "bad escape in quoted name", pos, expected="'\\\"' or '\\\\'"
                )
            parts.append(text[pos + 1])
            pos += 2
        else:
            parts.append(ch)
            pos += 1
    raise FormulaSyntaxError("unterminated quoted name", start, expected="closing '\"'")


# --- attribute implications -----------------------------------------------


def set_satisfies(attribute_bits, implication):
    """Does an attribute set respect A -> B (A not contained, or B contained)?"""
    if not bitsets.is_subset(implication.premise, attribute_bits):
        return True
    return bitsets.is_subset(implication.conclusion, attribute_bits)


def closure_under(implications, attribute_bits):
    """Smallest superset of the attribute set closed under every implication."""
    result = attribute_bits
    changed = True
    while changed:
        changed = False
        for impl in implications:
            if bitsets.is_subset(impl.premise, result) and not bitsets.is_subset(
                impl.conclusion, result
            ):
                result |= impl.conclusion
                changed = True
    return result


def implication_follows(implications, implication):
    """Does the implication hold in every attribute set satisfying the others?"""
    closed = closure_under(implications, implication.premise)
    return bitsets.is_subset(implication.conclusion, closed)


# --- rankings and the CLI's rank table ---------------------------------------


def object_ranks(context, kb):
    """The rank list of ``object_rank``'s loop, settling one object at a time.

    The loop rewritten over object and conditional indices, so that it
    shares no code with ``_stratify`` beyond the bound extents. Each round gives the current rank to every remaining object violating
    no active material form, then drops every active conditional whose
    antecedent one of them meets; a round that drops none raises.
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    mats, ants = _bound_extents(context, kb)
    ranks = [None] * context.n_objects
    remaining = list(range(context.n_objects))
    active = list(range(len(kb)))
    level = 0
    while active:
        settled = [i for i in remaining if all(mats[k] >> i & 1 for k in active)]
        kept = [k for k in active if not any(ants[k] >> i & 1 for i in settled)]
        if len(kept) == len(active):
            raise ValidityError(
                "no ranking of this context satisfies the conditional set: "
                f"it stopped shrinking at rank {level}"
            )
        for i in settled:
            ranks[i] = level
        remaining = [i for i in remaining if ranks[i] is None]
        active = kept
        level += 1
    for i in remaining:
        ranks[i] = level
    return ranks


def context_preference(first, second):
    """Pointwise rank comparison of two ranked contexts, one object at a time."""
    if first.context != second.context:
        raise StructureError("cannot compare rankings of different contexts")
    a = first.ranking.ranks
    b = second.ranking.ranks
    return PreferenceComparison(
        le=all(x <= y for x, y in zip(a, b)),
        ge=all(x >= y for x, y in zip(a, b)),
    )


def antecedent_rank(ranked, antecedent):
    """Least rank among the antecedent objects, one member at a time."""
    if not antecedent:
        return None
    return min(ranked.ranking.rank_of(i) for i in bitsets.iter_indices(antecedent))


def closing_check(ranked, kb):
    """Raise for the first conditional the ranked context fails to satisfy."""
    for c in kb:
        if not ranked.satisfies(c):
            raise ValidityError(
                "no ranking of this context satisfies the conditional set: "
                f"the result violates '{c}'"
            )


def rank_table(context, strata):
    """The CLI's rank table, padding one cell at a time."""
    header = ["rank", "object"] + list(context.attributes)
    table = [header]
    for level, stratum in enumerate(strata):
        label = str(level)
        for i in bitsets.iter_indices(stratum):
            row = context.row(i)
            cells = [
                "×" if row >> j & 1 else "" for j in range(context.n_attributes)
            ]
            table.append([label, context.objects[i]] + cells)
            label = ""
    widths = [
        max(len(row[col]) for row in table) for col in range(len(header))
    ]
    lines = [
        "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()
        for row in table
    ]
    return "\n".join(lines)


# --- validity and ranked models, by exhaustion ------------------------------


def delta_valid(context, kb):
    """Can every nonempty subset of the conditionals be answered plausibly?

    True when each such subset has an object satisfying all its material
    forms and at least one of its antecedents. Walks all subsets, so the
    size of the conditional set is capped (see the limits module).
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    cap = enumeration_cap()
    if len(kb) > cap:
        raise CapacityError(
            f"validity check enumerates 2**{len(kb)} subsets, cap is 2**{cap}"
        )
    mats, ants = _bound_extents(context, kb)

    def check(idx, satisfying, antecedents, any_included):
        if idx == len(mats):
            return not any_included or satisfying & antecedents != 0
        if not check(idx + 1, satisfying, antecedents, any_included):
            return False
        return check(
            idx + 1, satisfying & mats[idx], antecedents | ants[idx], True
        )

    return check(0, context.object_universe, 0, False)


def _convex_vectors(n):
    if n == 0:
        yield ()
        return
    for vector in itertools.product(range(n), repeat=n):
        highest = max(vector)
        if set(vector) == set(range(highest + 1)):
            yield vector


def enumerate_ranked_models(context, kb, *, max_objects=6):
    """All convex rankings of the context satisfying every conditional.

    Walks every convex rank vector over the objects, so the object count
    is capped (default 6). Output is deterministic: ascending by rank
    vector read left to right.
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    n = context.n_objects
    if n > max_objects:
        raise CapacityError(
            f"model enumeration walks {n}**{n} rank vectors, cap is "
            f"{max_objects} objects"
        )
    pairs = []
    for c in kb:
        bind(context, c.antecedent)
        bind(context, c.consequent)
        pairs.append(
            (extension(context, c.antecedent), extension(context, c.consequent))
        )
    results = []
    for vector in _convex_vectors(n):
        ok = True
        for ant, cons in pairs:
            if ant == 0:
                continue
            least = min(vector[i] for i in bitsets.iter_indices(ant))
            for i in bitsets.iter_indices(ant):
                if vector[i] == least and not cons >> i & 1:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            results.append(RankedContext(context, RankingFunction(vector)))
    return results


def interpretation_satisfies(interpretation, conditional):
    """Do the least-ranked antecedent states all satisfy the consequent?

    ``RankedInterpretation.satisfies``, listing the antecedent's states and
    taking the least of their ranks.
    """
    antecedent_states = interpretation.state_bits(conditional.antecedent)
    if antecedent_states == 0:
        return True
    members = [
        i for i in range(len(interpretation.states)) if antecedent_states >> i & 1
    ]
    least = min(interpretation.ranks[i] for i in members)
    consequent_states = interpretation.state_bits(conditional.consequent)
    return all(
        consequent_states >> i & 1
        for i in members
        if interpretation.ranks[i] == least
    )


# --- interpretations, held as lists of valuation dicts ----------------------


class Interpretation:
    """``propositional._Interpretation`` before it held a formal context.

    ``state_bits`` sums ``1 << i`` over every state for each atom it reads,
    O(states) per state and atom.
    """

    __slots__ = ("_atoms", "_states", "_valuations")

    def __init__(self, atoms, states, valuations):
        atoms = tuple(atoms)
        if len(set(atoms)) != len(atoms):
            raise StructureError("duplicate atom names")
        states = tuple(states)
        if len(set(states)) != len(states):
            raise StructureError("duplicate state labels")
        valuations = tuple(dict(v) for v in valuations)
        if len(valuations) != len(states):
            raise StructureError(
                f"expected {len(states)} valuations, got {len(valuations)}"
            )
        for label, v in zip(states, valuations):
            if set(v) != set(atoms):
                raise StructureError(
                    f"state {label!r} must value exactly the declared atoms"
                )
        self._atoms = atoms
        self._states = states
        self._valuations = valuations

    @property
    def atoms(self):
        return self._atoms

    @property
    def states(self):
        return self._states

    @property
    def valuations(self):
        return self._valuations

    def state_bits(self, formula):
        """Bitset of states whose valuation satisfies the formula."""

        def column(name):
            try:
                return sum(1 << i for i, v in enumerate(self._valuations) if v[name])
            except KeyError:
                raise BindingError(f"valuation has no atom {name!r}") from None

        return evaluate(formula, column, (1 << len(self._valuations)) - 1)


class PreferentialInterpretation(Interpretation):
    """``propositional.PreferentialInterpretation`` on the list-held valuations."""

    __slots__ = ("_order",)

    def __init__(self, atoms, states, valuations, order):
        super().__init__(atoms, states, valuations)
        if order.size != len(self._states):
            raise StructureError(
                f"order covers {order.size} elements, interpretation has "
                f"{len(self._states)} states"
            )
        self._order = order

    @property
    def order(self):
        return self._order


class RankedInterpretation(Interpretation):
    """``propositional.RankedInterpretation`` with its own rank checks and
    strata build: a convexity check over the finite ranks, then one list of
    members per rank, the infinite-rank states last (an empty last stratum
    when there are none)."""

    __slots__ = ("_ranks", "_strata")

    def __init__(self, atoms, states, valuations, ranks):
        super().__init__(atoms, states, valuations)
        ranks = tuple(ranks)
        if len(ranks) != len(self._states):
            raise StructureError(
                f"expected {len(self._states)} ranks, got {len(ranks)}"
            )
        finite = []
        for r in ranks:
            if r == INFINITE_RANK:
                continue
            if not isinstance(r, int) or r < 0:
                raise StructureError(
                    f"ranks must be non-negative ints or INFINITE_RANK, got {r!r}"
                )
            finite.append(r)
        if finite and set(finite) != set(range(max(finite) + 1)):
            raise StructureError(
                f"finite ranks {sorted(set(finite))} leave gaps"
            )
        self._ranks = ranks
        # the finite strata in rank order, then the infinite-rank states
        top = max(finite) + 1 if finite else 0
        members = [[] for _ in range(top + 1)]
        for i, r in enumerate(ranks):
            members[top if r == INFINITE_RANK else r].append(i)
        self._strata = [bitsets.from_indices(m, len(ranks)) for m in members]

    @property
    def ranks(self):
        return self._ranks

    def satisfies(self, conditional):
        """Do the least-ranked antecedent states all satisfy the consequent?"""
        antecedent_states = self.state_bits(conditional.antecedent)
        least = next((antecedent_states & s for s in self._strata if antecedent_states & s), 0)
        return not least or least & ~self.state_bits(conditional.consequent) == 0


def derived_parts(interpretation):
    """The context of ``derive_*_context``, OR-ing one cell at a time."""
    objects = tuple(str(s) for s in interpretation.states)
    if len(set(objects)) != len(objects):
        raise StructureError("state labels collide once written out as names")
    rows = []
    for v in interpretation.valuations:
        row = 0
        for j, atom in enumerate(interpretation.atoms):
            if v[atom]:
                row |= 1 << j
        rows.append(row)
    return FormalContext(objects, interpretation.atoms, rows)


# --- propositional entailment and rational closure --------------------------


def prop_eval(valuation, formula):
    """Truth value under a total valuation (a mapping atom name -> bool)."""
    if isinstance(formula, Top):
        return True
    if isinstance(formula, Bot):
        return False
    if isinstance(formula, Atom):
        try:
            return bool(valuation[formula.name])
        except KeyError:
            raise BindingError(f"valuation has no atom {formula.name!r}") from None
    if isinstance(formula, Not):
        return not prop_eval(valuation, formula.operand)
    if isinstance(formula, And):
        return prop_eval(valuation, formula.left) and prop_eval(
            valuation, formula.right
        )
    if isinstance(formula, Or):
        return prop_eval(valuation, formula.left) or prop_eval(
            valuation, formula.right
        )
    if isinstance(formula, Implies):
        return not prop_eval(valuation, formula.left) or prop_eval(
            valuation, formula.right
        )
    if isinstance(formula, Iff):
        return prop_eval(valuation, formula.left) == prop_eval(
            valuation, formula.right
        )
    raise TypeError(f"not a propositional formula: {formula!r}")


def all_valuations(names):
    """Yield every valuation over the given atom names, counting binary."""
    names = list(names)
    for mask in range(1 << len(names)):
        yield {
            name: bool(mask >> (len(names) - 1 - i) & 1)
            for i, name in enumerate(names)
        }


def prop_entails(premises, conclusion):
    """Classical entailment by exhausting valuations over the mentioned atoms.

    ``propositional.prop_entails`` as it was before it swept valuations as
    ints through ``formula.evaluate``.
    """
    premises = list(premises)
    names = set(atom_names(conclusion))
    for p in premises:
        names |= atom_names(p)
    names = sorted(names)
    cap = enumeration_cap()
    if len(names) > cap:
        raise CapacityError(
            f"entailment check enumerates 2**{len(names)} valuations, "
            f"cap is 2**{cap}"
        )
    for valuation in all_valuations(names):
        if all(prop_eval(valuation, p) for p in premises) and not prop_eval(
            valuation, conclusion
        ):
            return False
    return True


def rc_decision(statements, query):
    """``propositional.rc_decision`` as a full ranking, then a walk over it.

    Ranks the whole base, then removes the lowest remaining stratum while
    the leftover material forms make the query's antecedent impossible, and
    checks whether they entail the query's material form. The rank is the
    number of strata removed, or None when no finite rank makes the
    antecedent possible.
    """
    ranked = base_rank(statements)
    fixed = [s.material() for s in ranked.infinite]
    live = [[s.material() for s in level] for level in ranked.strata]
    negated = Not(query.antecedent)
    dropped = 0
    while live and prop_entails(fixed + [m for level in live for m in level], negated):
        live.pop(0)
        dropped += 1
    premises = fixed + [m for level in live for m in level]
    verdict = prop_entails(premises, query.material())
    if not live and prop_entails(fixed, negated):
        return verdict, None
    return verdict, dropped


# --- strict orders and rankings --------------------------------------------


def is_modular(order):
    """True when incomparable elements have the same predecessors, pair by pair."""
    for i in range(order.size):
        for j in range(i + 1, order.size):
            comparable = (order.successors(i) >> j | order.successors(j) >> i) & 1
            if not comparable and order.predecessors(i) != order.predecessors(j):
                return False
    return True



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


def ranked_minimise(ranked, members):
    """``RankedContext.minimise_objects`` walking the members twice in Python.

    The walks use this module's lowest-bit ``iter_indices``, so the oracle
    does not share the library's walk.
    """
    if members < 0 or members & ~ranked.context.object_universe:
        raise StructureError("member set out of range for this context")
    if members == 0:
        return 0
    least = min(ranked.ranking.ranks[i] for i in iter_indices(members))
    result = 0
    for i in iter_indices(members):
        if ranked.ranking.ranks[i] == least:
            result |= 1 << i
    return result


def member_minimise(order, members):
    """``StrictOrder.minimise`` testing the predecessor row of every member."""
    if members < 0 or members & ~bitsets.universe(order.size):
        raise StructureError("member set out of range for this order")
    return bitsets.from_indices(
        (
            i
            for i in bitsets.iter_indices(members)
            if order.predecessors(i) & members == 0
        ),
        order.size,
    )


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
