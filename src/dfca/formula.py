"""The formula language: compound attributes and propositional formulas.

One grammar serves both:

    formula := iff ;
    iff     := impl { "<->" impl } ;
    impl    := disj [ "->" impl ] ;
    disj    := conj { "|" conj } ;
    conj    := neg { "&" neg } ;
    neg     := "!" neg | atom ;
    atom    := IDENT | QUOTED | "TOP" | "BOT" | "(" formula ")" .

IDENT matches ``[A-Za-z_][A-Za-z0-9_.-]*``; any other name goes in double
quotes, with ``\\"`` and ``\\\\`` escapes. Each rule binds tighter than the
one above it; ``->`` associates to the right, the other binary connectives
to the left. A ``#`` outside quotes starts a comment running to the end of
the input. A formula nests at most 100 connectives deep (each link of a
chain such as ``a & b & c`` counts) and at most 100 parentheses deep;
deeper text is a syntax error, which keeps the recursive printer and
evaluators inside Python's recursion limit.

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
class Conditional:
    """phi |~ psi (defeasible) or phi -> psi (classical), over attributes."""

    antecedent: Formula
    consequent: Formula
    kind: str = DEFEASIBLE

    def __post_init__(self):
        if self.kind not in (DEFEASIBLE, CLASSICAL):
            raise ValueError(f"unknown conditional kind {self.kind!r}")

    @classmethod
    def defeasible(cls, antecedent, consequent):
        return cls(antecedent, consequent, DEFEASIBLE)

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
class PropConditional:
    """A defeasible ``phi |~ psi`` or an encoded classical assertion."""

    antecedent: Formula
    consequent: Formula
    kind: str = DEFEASIBLE

    def __post_init__(self):
        if self.kind not in (DEFEASIBLE, CLASSICAL):
            raise ValueError(f"unknown statement kind {self.kind!r}")

    @classmethod
    def defeasible(cls, antecedent, consequent):
        return cls(antecedent, consequent, DEFEASIBLE)

    @classmethod
    def assertion(cls, statement):
        """Encode a classical assertion of ``statement``."""
        return cls(Not(statement), Bot(), CLASSICAL)

    def material(self):
        """The material implication: antecedent -> consequent."""
        return Implies(self.antecedent, self.consequent)

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

IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*")

IDENT = "IDENT"
QUOTED = "QUOTED"
BANG = "BANG"
AMP = "AMP"
PIPE = "PIPE"
LPAREN = "LPAREN"
RPAREN = "RPAREN"
ARROW = "ARROW"
DARROW = "DARROW"
SQUIGGLE = "SQUIGGLE"
END = "END"

_TOKEN_LABEL = {
    IDENT: "an attribute name",
    QUOTED: "a quoted name",
    BANG: "'!'",
    AMP: "'&'",
    PIPE: "'|'",
    LPAREN: "'('",
    RPAREN: "')'",
    ARROW: "'->'",
    DARROW: "'<->'",
    SQUIGGLE: "'|~'",
    END: "end of input",
}


@dataclass(frozen=True)
class Token:
    kind: str
    value: str
    offset: int


def tokenize(text):
    """Token list for a formula or statement, ending with an END token."""
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
        if ch == "!":
            tokens.append(Token(BANG, ch, pos))
            pos += 1
        elif ch == "&":
            tokens.append(Token(AMP, ch, pos))
            pos += 1
        elif ch == "(":
            tokens.append(Token(LPAREN, ch, pos))
            pos += 1
        elif ch == ")":
            tokens.append(Token(RPAREN, ch, pos))
            pos += 1
        elif ch == "|":
            if text.startswith("|~", pos):
                tokens.append(Token(SQUIGGLE, "|~", pos))
                pos += 2
            else:
                tokens.append(Token(PIPE, ch, pos))
                pos += 1
        elif ch == "-":
            if text.startswith("->", pos):
                tokens.append(Token(ARROW, "->", pos))
                pos += 2
            else:
                raise FormulaSyntaxError(
                    f"unexpected character {ch!r}", pos, expected="'->'"
                )
        elif ch == "<":
            if text.startswith("<->", pos):
                tokens.append(Token(DARROW, "<->", pos))
                pos += 3
            else:
                raise FormulaSyntaxError(
                    f"unexpected character {ch!r}", pos, expected="'<->'"
                )
        elif ch == '"':
            start = pos
            value, pos = _scan_quoted(text, start)
            tokens.append(Token(QUOTED, value, start))
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
            tokens.append(Token(IDENT, text[pos:end], pos))
            pos = end
    tokens.append(Token(END, "", n))
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
        if token.kind != END:
            self._pos += 1
        return token

    def expect(self, kind):
        token = self.peek()
        if token.kind != kind:
            raise self.error(token, _TOKEN_LABEL[kind])
        return self.advance()

    @staticmethod
    def error(token, expected):
        found = _TOKEN_LABEL.get(token.kind, repr(token.value))
        if token.kind in (IDENT, QUOTED):
            found = repr(token.value)
        return FormulaSyntaxError(
            f"unexpected {found}", token.offset, expected=expected
        )


# --- parsing --------------------------------------------------------------
#
# ``prop`` selects the dialect: True for propositional formulas, False for
# compound attributes. The parser recurses only into parentheses and into
# the right operand of a tighter connective; negations and '->' chains are
# read in loops. Each step returns the formula and its height, the most
# connectives on a path from its root down to an atom.

_MAX_DEPTH = 100

_CONSTANTS = {"TOP": Top(), "BOT": Bot()}

# infix token -> (node, precedence); a larger precedence binds tighter
_INFIX_TOKEN = {DARROW: (Iff, 1), ARROW: (Implies, 2), PIPE: (Or, 3), AMP: (And, 4)}
_COMPOUND_INFIX = (PIPE, AMP)


def _parse_formula(stream, prop):
    return _parse_infix(stream, prop, 1)[0]


def _parse_infix(stream, prop, floor):
    """A formula whose infix connectives all bind at least as tightly as ``floor``."""
    left, height = _parse_neg(stream, prop)
    while True:
        token = stream.peek()
        if token.kind not in (_INFIX_TOKEN if prop else _COMPOUND_INFIX):
            return left, height
        node, prec = _INFIX_TOKEN[token.kind]
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
    while stream.peek().kind == ARROW:
        arrows.append(stream.advance())
        # an operand holds only connectives binding tighter than '->'
        operands.append(_parse_infix(stream, True, _INFIX_TOKEN[ARROW][1] + 1))
    result, height = operands.pop()
    for arrow, (left, left_height) in zip(reversed(arrows), reversed(operands)):
        result = Implies(left, result)
        height = _checked_height(max(left_height, height) + 1, arrow)
    return result, height


def _parse_neg(stream, prop):
    bangs = []
    while stream.peek().kind == BANG:
        bangs.append(stream.advance())
    result, height = _parse_atom(stream, prop)
    for bang in reversed(bangs):
        result = Not(result)
        height = _checked_height(height + 1, bang)
    return result, height


def _parse_atom(stream, prop):
    token = stream.peek()
    if token.kind in (IDENT, QUOTED):
        stream.advance()
        if prop and token.kind == IDENT and token.value in _CONSTANTS:
            return _CONSTANTS[token.value], 0
        return Atom(token.value), 0
    if token.kind == LPAREN:
        if stream.parens == _MAX_DEPTH:
            raise FormulaSyntaxError(
                f"parentheses nest deeper than {_MAX_DEPTH} levels", token.offset
            )
        stream.advance()
        stream.parens += 1
        inner = _parse_infix(stream, prop, 1)
        stream.expect(RPAREN)
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
            f"formula nests more than {_MAX_DEPTH} connectives deep", token.offset
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
    if token.kind == SQUIGGLE:
        kind = DEFEASIBLE
    elif token.kind == ARROW:
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
    if token.kind == SQUIGGLE:
        stream.advance()
        second = _parse_formula(stream, True)
        stream.expect(END)
        return PropConditional.defeasible(first, second)
    if token.kind == END:
        return PropConditional.assertion(first)
    raise stream.error(token, "'|~' or end of statement")


# --- printing -------------------------------------------------------------

# binary node -> (precedence, symbol); a larger precedence binds tighter
_INFIX = {Iff: (1, "<->"), Implies: (2, "->"), Or: (3, "|"), And: (4, "&")}
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
        if IDENT_RE.fullmatch(name) and not (prop and name in _CONSTANTS):
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
    """Check every atom names an attribute of the context; return the formula."""
    for name in atom_names(formula):
        context.attribute_index(name)
    return formula


def extension(context, formula):
    """Objects satisfying the formula, as a bitset over the context."""
    return evaluate(
        formula,
        lambda name: context.column(context.attribute_index(name)),
        context.object_universe,
    )


def materialise(conditional):
    """The material form: not antecedent, or consequent."""
    return Or(Not(conditional.antecedent), conditional.consequent)
