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
from dataclasses import dataclass
from typing import Union

from .errors import FormulaSyntaxError, StructureError


class _Node:
    __slots__ = ()

    def __str__(self):
        return format_formula(self)


@dataclass(frozen=True)
class Top(_Node):
    """The constant true."""


@dataclass(frozen=True)
class Bot(_Node):
    """The constant false."""


@dataclass(frozen=True)
class Atom(_Node):
    name: str


@dataclass(frozen=True)
class Not(_Node):
    operand: "Formula"


@dataclass(frozen=True)
class And(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Implies(_Node):
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Iff(_Node):
    left: "Formula"
    right: "Formula"


Formula = Union[Top, Bot, Atom, Not, And, Or, Implies, Iff]

_BINARY = (And, Or, Implies, Iff)

DEFEASIBLE = "defeasible"
CLASSICAL = "classical"


@dataclass(frozen=True)
class _Statement:
    """The body both dialects' statements share: two formulas and a kind.

    Each dialect subclasses it as a dataclass of its own, so equality,
    hashing and ``repr`` stay per class: a ``Conditional`` never equals a
    ``PropConditional`` with the same fields.
    """

    antecedent: Formula
    consequent: Formula
    kind: str = DEFEASIBLE

    def __post_init__(self):
        if self.kind not in (DEFEASIBLE, CLASSICAL):
            raise ValueError(f"unknown statement kind {self.kind!r}")

    @classmethod
    def defeasible(cls, antecedent, consequent):
        return cls(antecedent, consequent, DEFEASIBLE)

    def material(self):
        """The material implication: antecedent -> consequent."""
        return Implies(self.antecedent, self.consequent)


@dataclass(frozen=True)
class Conditional(_Statement):
    """phi |~ psi (defeasible) or phi -> psi (classical), over attributes."""

    @classmethod
    def classical(cls, antecedent, consequent):
        return cls(antecedent, consequent, CLASSICAL)

    def __str__(self):
        arrow = "|~" if self.kind == DEFEASIBLE else "->"
        return (
            f"{format_formula(self.antecedent)} {arrow} "
            f"{format_formula(self.consequent)}"
        )


@dataclass(frozen=True)
class PropConditional(_Statement):
    """A defeasible ``phi |~ psi`` or an encoded classical assertion."""

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
_NAME = r"[A-Za-z_](?:[A-Za-z0-9_.]|-(?!>))*"
# the inside of a quoted name, with \" and \\ escapes
_QUOTED_BODY = r'(?:[^"\\]|\\["\\])*'
_NAME_RE = re.compile(_NAME)
_QUOTED_BODY_RE = re.compile(_QUOTED_BODY)
_ESCAPE_RE = re.compile(r"\\(.)")

# one token after any whitespace: a comment running to the end of the
# input, an operator, a quoted name, a name, one stray character, or the
# end; a group is named after the kind of token it reads
_TOKEN_RE = re.compile(
    rf"\s*(?:#.*|(?P<op>{_OPERATOR})|(?P<QUOTED>\"{_QUOTED_BODY}\")"
    rf"|(?P<IDENT>{_NAME})|(?P<stray>.)|\Z)",
    re.DOTALL,
)


def tokenize(text):
    """Token list for a formula or statement, ending with an END token."""
    tokens = []
    for match in _TOKEN_RE.finditer(text):
        kind = match.lastgroup
        if kind is None:  # a comment, or the end
            continue
        value = match[kind]
        offset = match.start(kind)
        if kind == "stray":
            raise _stray(text, offset)
        if kind == QUOTED:
            value = _ESCAPE_RE.sub(r"\1", value[1:-1])
        elif kind == "op":
            kind = value
        tokens.append((kind, value, offset))
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


class TokenStream:
    """Cursor over a token list with error-reporting helpers."""

    def __init__(self, tokens):
        self._tokens = tokens
        self._pos = 0
        self.parens = 0  # parentheses open at the cursor

    def peek(self):
        return self._tokens[self._pos]

    def advance(self):
        token = self._tokens[self._pos]
        if token[0] != END:
            self._pos += 1
        return token

    def expect(self, kind):
        token = self.peek()
        if token[0] != kind:
            raise self.error(token, _LABEL.get(kind, repr(kind)))
        return self.advance()

    @staticmethod
    def error(token, expected):
        kind, value, offset = token
        found = _LABEL.get(kind, repr(value))
        return FormulaSyntaxError(f"unexpected {found}", offset, expected=expected)


# --- parsing --------------------------------------------------------------
#
# ``prop`` selects the dialect: True for propositional formulas, False for
# compound attributes. The parser recurses only into parentheses and into
# the right operand of a tighter connective; negations and '->' chains are
# read in loops. Each step returns the formula and its height, the most
# connectives on a path from its root down to an atom.

_MAX_DEPTH = 100

_CONSTANTS = {"TOP": Top(), "BOT": Bot()}

_COMPOUND_INFIX = ("|", "&")


def _parse_formula(stream, prop):
    return _parse_infix(stream, prop, 1)[0]


def _parse_infix(stream, prop, floor):
    """A formula whose infix connectives all bind at least as tightly as ``floor``."""
    left, height = _parse_neg(stream, prop)
    while True:
        token = stream.peek()
        if token[0] not in (_INFIX_TOKEN if prop else _COMPOUND_INFIX):
            return left, height
        node, prec = _INFIX_TOKEN[token[0]]
        if prec < floor:
            return left, height
        if node is Implies:
            left, height = _parse_implications(stream, left, height)
            continue
        stream.advance()
        # '<->', '|' and '&' associate to the left
        right, right_height = _parse_infix(stream, prop, prec + 1)
        left = node(left, right)
        height = _checked_height(max(height, right_height) + 1, token)


def _parse_implications(stream, first, first_height):
    """Fold ``first -> b -> c ...`` to the right: first -> (b -> (c ...))."""
    operands = [(first, first_height)]
    arrows = []
    while stream.peek()[0] == "->":
        arrows.append(stream.advance())
        # an operand holds only connectives binding tighter than '->'
        operands.append(_parse_infix(stream, True, _INFIX_TOKEN["->"][1] + 1))
    result, height = operands.pop()
    for arrow, (left, left_height) in zip(reversed(arrows), reversed(operands)):
        result = Implies(left, result)
        height = _checked_height(max(left_height, height) + 1, arrow)
    return result, height


def _parse_neg(stream, prop):
    bangs = []
    while stream.peek()[0] == "!":
        bangs.append(stream.advance())
    result, height = _parse_atom(stream, prop)
    for bang in reversed(bangs):
        result = Not(result)
        height = _checked_height(height + 1, bang)
    return result, height


def _parse_atom(stream, prop):
    token = kind, value, offset = stream.peek()
    if kind in (IDENT, QUOTED):
        stream.advance()
        if prop and kind == IDENT and value in _CONSTANTS:
            return _CONSTANTS[value], 0
        return Atom(value), 0
    if kind == "(":
        if stream.parens == _MAX_DEPTH:
            raise FormulaSyntaxError(
                f"parentheses nest deeper than {_MAX_DEPTH} levels", offset
            )
        stream.advance()
        stream.parens += 1
        inner = _parse_infix(stream, prop, 1)
        stream.expect(")")
        stream.parens -= 1
        return inner
    if prop:
        raise stream.error(token, "an atom, constant, '!', or '('")
    raise stream.error(token, "an attribute name, '!', or '('")


def _checked_height(height, token):
    """Refuse a connective that lifts a formula above _MAX_DEPTH.

    The printer, the evaluators and the nodes' own equality and hashing
    recurse once or a few times per level, so the cap keeps every formula
    the parser accepts well inside Python's recursion limit.
    """
    if height > _MAX_DEPTH:
        raise FormulaSyntaxError(
            f"formula nests more than {_MAX_DEPTH} connectives deep", token[2]
        )
    return height


def _parse_whole(text, prop):
    stream = TokenStream(tokenize(text))
    result = _parse_formula(stream, prop)
    stream.expect(END)
    return result


def parse_formula(text):
    """Parse one compound attribute."""
    return _parse_whole(text, False)


def parse_prop_formula(text):
    """Parse one propositional formula."""
    return _parse_whole(text, True)


def parse_conditional(text):
    """Parse ``phi |~ psi`` or ``phi -> psi`` over compound attributes."""
    stream = TokenStream(tokenize(text))
    antecedent = _parse_formula(stream, False)
    token = stream.peek()
    if token[0] == "|~":
        kind = DEFEASIBLE
    elif token[0] == "->":
        kind = CLASSICAL
    else:
        raise stream.error(token, "'|~' or '->'")
    stream.advance()
    consequent = _parse_formula(stream, False)
    stream.expect(END)
    return Conditional(antecedent, consequent, kind)


def parse_prop_statement(text):
    """Parse ``phi |~ psi`` or a bare formula (a classical assertion)."""
    stream = TokenStream(tokenize(text))
    first = _parse_formula(stream, True)
    token = stream.peek()
    if token[0] == "|~":
        stream.advance()
        second = _parse_formula(stream, True)
        stream.expect(END)
        return PropConditional.defeasible(first, second)
    if token[0] == END:
        return PropConditional.assertion(first)
    raise stream.error(token, "'|~' or end of statement")


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
    """Objects satisfying the formula, as a bitset over the context."""
    return evaluate(
        formula,
        lambda name: context.column(context.attribute_index(name)),
        context.object_universe,
    )
