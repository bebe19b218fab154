"""The formula language: compound attributes and propositional formulas.

One grammar serves both:

    formula := iff ;
    iff     := impl { "<->" impl } ;
    impl    := disj [ "->" impl ] ;
    disj    := conj { "|" conj } ;
    conj    := neg { "&" neg } ;
    neg     := "!" neg | atom ;
    atom    := IDENT | QUOTED | "TOP" | "BOT" | "(" formula ")" .

The lexical grammar is the token table of the lexer below: the operators,
IDENT (``[A-Za-z_]`` then ``[A-Za-z0-9_.-]``, ending before a ``->``),
QUOTED (any name in double quotes, with ``\\"`` and ``\\\\`` escapes) and a
``#`` comment running to the end of the input. Each rule binds tighter
than the one above it; ``->`` associates to the right, the other binary
connectives to the left. A formula nests at most 100 connectives deep
(each link of a chain such as ``a & b & c`` counts) and at most 100
parentheses deep; deeper text is a syntax error, which keeps the
recursive printer and evaluators inside Python's recursion limit.

It is read in two dialects:

* Compound attributes (``parse_formula``, ``format_formula``) are the
  negation-conjunction-disjunction fragment over attribute names. A formula
  starts at ``disj``, so ``->`` and ``<->`` never occur inside one, and
  ``TOP`` and ``BOT`` are plain attribute names. A statement
  (``parse_conditional``) pairs two formulas: ``phi |~ psi`` is a
  defeasible conditional, ``phi -> psi`` a classical implication.
* Propositional formulas (``parse_prop_formula``, ``format_prop_formula``)
  use the whole grammar; ``TOP`` and ``BOT`` are the constants, so atoms
  with those names must be quoted. A statement (``parse_prop_statement``)
  is either ``phi |~ psi`` (a defeasible conditional) or a bare formula (a
  classical assertion; ``phi -> psi`` is one such formula). A classical
  assertion of ``alpha`` is carried as the conditional ``!alpha |~ BOT``,
  whose material form is equivalent to ``alpha``: exceptionality then files
  it above every finite rank, which is exactly where non-negotiable
  knowledge belongs.

Both printers emit the fewest parentheses their parser needs, except that
propositional text wraps a doubled negation: ``!(!a)`` where compound text
has ``!!a``. ``str()`` of a bare formula node prints compound text; ``str()``
of a statement prints its own dialect.
"""

import re

from .errors import FormulaSyntaxError, StructureError
from .record import Record


class Formula(Record):
    """The base of every formula node.

    A node is hashed when built, from its children's kept hashes, and
    keeps that hash: a knowledge base hashes whole trees each time a set
    or dict takes its statements, and hashing a tree of any depth then
    costs one step. The constants and the binary connectives mix their
    class's ``_tag`` into the hash, so ``Top`` and ``Bot``, and ``And``,
    ``Or``, ``Implies`` and ``Iff`` over the same operands, hash apart.
    """

    __slots__ = ("_hash",)

    def __init__(self):
        _set_hash(self, hash((self._tag,)))

    def __hash__(self):
        return self._hash

    def __str__(self):
        return format_formula(self)


class Top(Formula):
    """The constant true."""

    __slots__ = ()
    _tag = "Top"


class Bot(Formula):
    """The constant false."""

    __slots__ = ()
    _tag = "Bot"


class Atom(Formula):
    __slots__ = ("name",)

    def __init__(self, name):
        _set_name(self, name)
        _set_hash(self, hash(name))


class Not(Formula):
    __slots__ = ("operand",)

    def __init__(self, operand):
        _set_operand(self, operand)
        _set_hash(self, hash((operand._hash,)))


class _Binary(Formula):
    """The layout of the binary connectives; each compares as its own class."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        _set_left(self, left)
        _set_right(self, right)
        _set_hash(self, hash((self._tag, left._hash, right._hash)))


class And(_Binary):
    __slots__ = ()
    _tag = "And"


class Or(_Binary):
    __slots__ = ()
    _tag = "Or"


class Implies(_Binary):
    __slots__ = ()
    _tag = "Implies"


class Iff(_Binary):
    __slots__ = ()
    _tag = "Iff"


_set_hash = Formula._hash.__set__
_set_name = Atom.name.__set__
_set_operand = Not.operand.__set__
_set_left = _Binary.left.__set__
_set_right = _Binary.right.__set__

_BINARY = (And, Or, Implies, Iff)

DEFEASIBLE = "defeasible"
CLASSICAL = "classical"


class _Statement(Record):
    """The body both dialects' statements share: two formulas and a kind.

    Each dialect subclasses it, so equality, hashing and ``repr`` stay per
    class: a ``Conditional`` never equals a ``PropConditional`` with the
    same fields.
    """

    __slots__ = ("antecedent", "consequent", "kind")

    def __init__(self, antecedent, consequent, kind=DEFEASIBLE):
        if kind not in (DEFEASIBLE, CLASSICAL):
            raise ValueError(f"unknown statement kind {kind!r}")
        _set_antecedent(self, antecedent)
        _set_consequent(self, consequent)
        _set_kind(self, kind)

    @classmethod
    def defeasible(cls, antecedent, consequent):
        return cls(antecedent, consequent, DEFEASIBLE)

    def material(self):
        """The material implication: antecedent -> consequent."""
        return Implies(self.antecedent, self.consequent)


_set_antecedent = _Statement.antecedent.__set__
_set_consequent = _Statement.consequent.__set__
_set_kind = _Statement.kind.__set__


class Conditional(_Statement):
    """phi |~ psi (defeasible) or phi -> psi (classical), over attributes."""

    __slots__ = ()

    @classmethod
    def classical(cls, antecedent, consequent):
        return cls(antecedent, consequent, CLASSICAL)

    def __str__(self):
        arrow = "|~" if self.kind == DEFEASIBLE else "->"
        return (
            f"{format_formula(self.antecedent)} {arrow} "
            f"{format_formula(self.consequent)}"
        )


class PropConditional(_Statement):
    """A defeasible ``phi |~ psi`` or an encoded classical assertion."""

    __slots__ = ()

    @classmethod
    def assertion(cls, statement):
        """Encode a classical assertion of ``statement``."""
        return cls(Not(statement), Bot(), CLASSICAL)

    def asserted(self):
        """The plain formula behind a classical assertion."""
        if self.kind != CLASSICAL:
            raise StructureError("only classical statements assert a formula")
        if isinstance(self.antecedent, Not) and isinstance(self.consequent, Bot):
            return self.antecedent.operand
        return self.material()

    def __str__(self):
        if self.kind == CLASSICAL:
            return format_prop_formula(self.asserted())
        return (
            f"{format_prop_formula(self.antecedent)} |~ "
            f"{format_prop_formula(self.consequent)}"
        )


# --- lexer ----------------------------------------------------------------
#
# These tables are the lexical grammar. Each operator's text is its token
# kind; IDENT, QUOTED and END are the only other kinds. A token is a
# (kind, value, offset) triple. The infix operators carry the node they
# build and their precedence, a larger one binding tighter.

_INFIX_TOKEN = {"<->": (Iff, 1), "->": (Implies, 2), "|": (Or, 3), "&": (And, 4)}
_OPERATORS = ("|~", "!", "(", ")", *_INFIX_TOKEN)

IDENT = "IDENT"
QUOTED = "QUOTED"
END = "END"
# an error message names a token by its text, or the end of input
_LABEL = {END: "end of input"}

# the longest operator first, so "|~" is not read as "|"
_OPERATOR = "|".join(map(re.escape, sorted(_OPERATORS, key=len, reverse=True)))
# a name runs on through '-' unless '->' follows, so "a->b" reads a, ->, b
_NAME = r"[A-Za-z_][A-Za-z0-9_.]*(?:-(?!>)[A-Za-z0-9_.]*)*"
# the inside of a quoted name, with \" and \\ escapes
_QUOTED_BODY = r'(?:[^"\\]|\\["\\])*'
_NAME_RE = re.compile(_NAME)
_QUOTED_BODY_RE = re.compile(_QUOTED_BODY)
_ESCAPE_RE = re.compile(r"\\(.)")

# any whitespace, then one token: a comment running to the end of the
# input, a name, an operator, a quoted name, one stray character, or the
# end; a match is (whitespace, name, operator, quoted name, stray), with
# the empty string for each part it did not read
_TOKEN_RE = re.compile(
    rf"(\s*)(?:#.*|({_NAME})|({_OPERATOR})|(\"{_QUOTED_BODY}\")|(.)|\Z)",
    re.DOTALL,
)


def tokenize(text):
    """Token list for a formula or statement, ending with an END token."""
    tokens = []
    offset = 0
    for space, name, op, quoted, stray in _TOKEN_RE.findall(text):
        offset += len(space)
        if name:
            tokens.append((IDENT, name, offset))
            offset += len(name)
        elif op:
            tokens.append((op, op, offset))
            offset += len(op)
        elif quoted:
            tokens.append((QUOTED, _ESCAPE_RE.sub(r"\1", quoted[1:-1]), offset))
            offset += len(quoted)
        elif stray:
            raise _stray(text, offset)
        # a comment, or the end, reads no token
    tokens.append((END, "", len(text)))
    return tokens


def _stray(text, pos):
    """The syntax error for a character at which no token starts."""
    char = text[pos]
    if char == '"':
        # the quoted name stops short at a bad escape or at the end
        end = _QUOTED_BODY_RE.match(text, pos + 1).end()
        if end == len(text):
            return FormulaSyntaxError(
                "unterminated quoted name", pos, expected="closing '\"'"
            )
        return FormulaSyntaxError(
            "bad escape in quoted name", end, expected="'\\\"' or '\\\\'"
        )
    # a '-' or '<' that starts no operator
    started = [repr(op) for op in _OPERATORS if op[0] == char]
    expected = started[0] if started else "an attribute name, operator, or parenthesis"
    return FormulaSyntaxError(f"unexpected character {char!r}", pos, expected=expected)


# --- parsing --------------------------------------------------------------
#
# ``prop`` selects the dialect: True for propositional formulas, False for
# compound attributes. The parser passes an index into the token list; it
# recurses only into parentheses and into the right operand of a tighter
# connective, and reads negations and '->' chains in loops. Each step
# returns the formula, its height (the most connectives on a path from its
# root down to an atom) and the index of the first token it did not read.

_MAX_DEPTH = 100

_CONSTANTS = {"TOP": Top(), "BOT": Bot()}

# the infix operators of each dialect: compound text has no '->' or '<->'
_DIALECT_INFIX = {
    True: _INFIX_TOKEN,
    False: {op: _INFIX_TOKEN[op] for op in ("|", "&")},
}


def _unexpected(token, expected):
    kind, value, offset = token
    found = _LABEL.get(kind, repr(value))
    return FormulaSyntaxError(f"unexpected {found}", offset, expected=expected)


def _too_deep(token):
    """Refuse a connective that lifts a formula above _MAX_DEPTH.

    The printer, the evaluators and the nodes' own equality and hashing
    recurse once or a few times per level, so the cap keeps every formula
    the parser accepts well inside Python's recursion limit.
    """
    return FormulaSyntaxError(
        f"formula nests more than {_MAX_DEPTH} connectives deep", token[2]
    )


def _parse(tokens, i, prop, floor, parens):
    """The formula from ``tokens[i]`` whose infix connectives bind at least
    as tightly as ``floor``, inside ``parens`` open parentheses."""
    first = i
    while tokens[i][0] == "!":
        i += 1
    # tokens[first:last] are the negations
    last = i
    kind, value, offset = tokens[i]
    if kind == IDENT or kind == QUOTED:
        if prop and kind == IDENT and value in _CONSTANTS:
            left = _CONSTANTS[value]
        else:
            left = Atom(value)
        height = 0
        i += 1
    elif kind == "(":
        if parens == _MAX_DEPTH:
            raise FormulaSyntaxError(
                f"parentheses nest deeper than {_MAX_DEPTH} levels", offset
            )
        left, height, i = _parse(tokens, i + 1, prop, 1, parens + 1)
        if tokens[i][0] != ")":
            raise _unexpected(tokens[i], "')'")
        i += 1
    elif prop:
        raise _unexpected(tokens[i], "an atom, constant, '!', or '('")
    else:
        raise _unexpected(tokens[i], "an attribute name, '!', or '('")
    # the negations apply innermost first
    while last > first:
        last -= 1
        left = Not(left)
        height += 1
        if height > _MAX_DEPTH:
            raise _too_deep(tokens[last])
    infix = _DIALECT_INFIX[prop]
    while True:
        token = tokens[i]
        entry = infix.get(token[0])
        if entry is None or entry[1] < floor:
            return left, height, i
        node, prec = entry
        if node is not Implies:
            # '<->', '|' and '&' associate to the left
            right, right_height, i = _parse(tokens, i + 1, prop, prec + 1, parens)
            left = node(left, right)
            height = max(height, right_height) + 1
            if height > _MAX_DEPTH:
                raise _too_deep(token)
            continue
        # '->' associates to the right: read the chain, then fold it from
        # its end; an operand holds only connectives binding tighter
        operands = [(left, height)]
        arrows = []
        while tokens[i][0] == "->":
            arrows.append(tokens[i])
            right, right_height, i = _parse(tokens, i + 1, prop, prec + 1, parens)
            operands.append((right, right_height))
        left, height = operands.pop()
        for arrow, (first, first_height) in zip(reversed(arrows), reversed(operands)):
            left = Implies(first, left)
            height = max(first_height, height) + 1
            if height > _MAX_DEPTH:
                raise _too_deep(arrow)


def _parse_whole(text, prop):
    tokens = tokenize(text)
    result, _, i = _parse(tokens, 0, prop, 1, 0)
    if tokens[i][0] != END:
        raise _unexpected(tokens[i], "end of input")
    return result


def parse_formula(text):
    """Parse one compound attribute."""
    return _parse_whole(text, False)


def parse_prop_formula(text):
    """Parse one propositional formula."""
    return _parse_whole(text, True)


def parse_conditional(text):
    """Parse ``phi |~ psi`` or ``phi -> psi`` over compound attributes."""
    tokens = tokenize(text)
    antecedent, _, i = _parse(tokens, 0, False, 1, 0)
    arrow = tokens[i][0]
    if arrow == "|~":
        kind = DEFEASIBLE
    elif arrow == "->":
        kind = CLASSICAL
    else:
        raise _unexpected(tokens[i], "'|~' or '->'")
    consequent, _, i = _parse(tokens, i + 1, False, 1, 0)
    if tokens[i][0] != END:
        raise _unexpected(tokens[i], "end of input")
    return Conditional(antecedent, consequent, kind)


def parse_prop_statement(text):
    """Parse ``phi |~ psi`` or a bare formula (a classical assertion)."""
    tokens = tokenize(text)
    first, _, i = _parse(tokens, 0, True, 1, 0)
    if tokens[i][0] == "|~":
        second, _, i = _parse(tokens, i + 1, True, 1, 0)
        if tokens[i][0] != END:
            raise _unexpected(tokens[i], "end of input")
        return PropConditional.defeasible(first, second)
    if tokens[i][0] == END:
        return PropConditional.assertion(first)
    raise _unexpected(tokens[i], "'|~' or end of statement")


# --- printing -------------------------------------------------------------

# binary node -> (precedence, symbol): the lexer's table inverted
_INFIX = {node: (prec, symbol) for symbol, (node, prec) in _INFIX_TOKEN.items()}
_NOT_PREC = 5
_ATOM_PREC = 6


def format_formula(formula):
    """Canonical compound text; parse_formula inverts it."""
    return _format(formula, False)[0]


def format_prop_formula(formula):
    """Canonical propositional text; parse_prop_formula inverts it."""
    return _format(formula, True)[0]


def _wrap(child, parent_prec, prop, *, equal_ok):
    text, prec = _format(child, prop)
    if prec < parent_prec or (prec == parent_prec and not equal_ok):
        return f"({text})"
    return text


def _format(formula, prop):
    """Text in one dialect, and the precedence of the top connective."""
    if isinstance(formula, Atom):
        name = formula.name
        if _NAME_RE.fullmatch(name) and not (prop and name in _CONSTANTS):
            return name, _ATOM_PREC
        escaped = name.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"', _ATOM_PREC
    if isinstance(formula, Top):
        return "TOP", _ATOM_PREC
    if isinstance(formula, Bot):
        return "BOT", _ATOM_PREC
    if isinstance(formula, Not):
        # a doubled negation is !(!a) in propositional text, !!a in compound
        operand = _wrap(formula.operand, _NOT_PREC, prop, equal_ok=not prop)
        return "!" + operand, _NOT_PREC
    if not isinstance(formula, _BINARY):
        raise TypeError(f"not a formula: {formula!r}")
    prec, symbol = _INFIX[type(formula)]
    # '->' associates to the right, so only its right operand may repeat it
    right_nested = isinstance(formula, Implies)
    left = _wrap(formula.left, prec, prop, equal_ok=not right_nested)
    right = _wrap(formula.right, prec, prop, equal_ok=right_nested)
    return f"{left} {symbol} {right}", prec


# --- semantics ------------------------------------------------------------


def atom_names(formula):
    """Set of atom (attribute) names the formula mentions."""
    if isinstance(formula, Atom):
        return {formula.name}
    if isinstance(formula, Not):
        return atom_names(formula.operand)
    if isinstance(formula, _BINARY):
        return atom_names(formula.left) | atom_names(formula.right)
    if isinstance(formula, (Top, Bot)):
        return set()
    raise TypeError(f"not a formula: {formula!r}")


def evaluate(formula, column, universe):
    """Bitset of the elements satisfying the formula.

    ``column(name)`` gives the bitset of elements having the atom ``name``;
    ``universe`` is the bitset of every element.
    """
    if isinstance(formula, Atom):
        return column(formula.name)
    if isinstance(formula, Not):
        return universe ^ evaluate(formula.operand, column, universe)
    if isinstance(formula, _BINARY):
        left = evaluate(formula.left, column, universe)
        right = evaluate(formula.right, column, universe)
        if isinstance(formula, And):
            return left & right
        if isinstance(formula, Or):
            return left | right
        if isinstance(formula, Implies):
            return (universe ^ left) | right
        return universe ^ (left ^ right)
    if isinstance(formula, Top):
        return universe
    if isinstance(formula, Bot):
        return 0
    raise TypeError(f"not a formula: {formula!r}")


def bind(context, formula):
    """Check every atom names an attribute of the context; return the formula.

    The atoms are checked in the order the text names them, so the error
    names the first unknown one, as ``extension`` does.
    """
    # evaluate visits the atoms left to right; the indices it combines are
    # thrown away
    evaluate(formula, context.attribute_index, 0)
    return formula


def extension(context, formula):
    """Objects satisfying the formula, as a bitset over the context.

    One column read and one set operation per node of the formula, none
    per object.
    """
    return evaluate(
        formula,
        lambda name: context.column(context.attribute_index(name)),
        context.object_universe,
    )
