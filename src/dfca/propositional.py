"""Propositional defeasible reasoning, the classical baseline.

Formulas and statements are those of the propositional dialect of the
formula language (see ``dfca.formula``); the names below re-export them.
Statements are ranked by exceptionality under classical entailment, and
queries are answered by rational closure.

Interpretations hold their valuations as a formal context, the states as
objects and the atoms as attributes, and order the states by a
``StrictOrder`` or by a ``RankingFunction`` whose last stratum holds the
infinite-rank states. Both answer a conditional by one rule: the most
typical antecedent states must all satisfy the consequent. Every
finitely-ranked interpretation turns into a ranked context on the same
skeleton and ranking, which is what ties this module to the rest of the
package.
"""

import math
from dataclasses import dataclass
from itertools import compress
from operator import itemgetter

from . import bitsets
from .context import FormalContext
from .errors import (
    BindingError,
    CapacityError,
    StructureError,
    UnsupportedStateError,
)
from .formula import (
    CLASSICAL,
    DEFEASIBLE,
    And,
    Atom,
    Bot,
    Iff,
    Implies,
    Not,
    Or,
    PropConditional,
    Top,
    atom_names,
    evaluate,
    format_prop_formula,
    parse_prop_formula,
    parse_prop_statement,
)
from .limits import enumeration_cap
from .order import PreferentialContext, RankedContext, RankingFunction, _rank_layers


# --- semantics --------------------------------------------------------------


def prop_entails(premises, conclusion):
    """Classical entailment by exhausting valuations over the mentioned atoms.

    A valuation of the n atoms is an int below 2**n, the i-th name in
    sorted order at bit n - 1 - i, and ``evaluate`` decides each formula
    at it over one-bit columns. Only a valuation that falsifies the
    conclusion can be a counter-model, so the premises are evaluated at
    those valuations alone.
    """
    premises = list(premises)
    names = set(atom_names(conclusion))
    for p in premises:
        names |= atom_names(p)
    names = sorted(names)
    n = len(names)
    cap = enumeration_cap()
    if n > cap:
        raise CapacityError(
            f"entailment check enumerates 2**{n} valuations, cap is 2**{cap}"
        )
    shift = {name: n - 1 - i for i, name in enumerate(names)}

    def column(name):
        # the atom's bit in the valuation the loop below is at
        return valuation >> shift[name] & 1

    for valuation in range(1 << n):
        if not evaluate(conclusion, column, 1) and all(
            evaluate(p, column, 1) for p in premises
        ):
            return False
    return True


# --- interpretations --------------------------------------------------------

INFINITE_RANK = math.inf


class _Interpretation:
    """Distinct states, each labelled with a valuation of the same atoms.

    The valuations are held as a formal context: the states are its
    objects, the atoms its attributes, and a state has an atom exactly
    when its valuation makes the atom true. A subclass orders the states
    by supplying ``_typical``, the most typical of a set of states.
    """

    __slots__ = ("_context",)

    def __init__(self, atoms, states, valuations):
        atoms = tuple(atoms)
        states = tuple(states)
        valuations = [dict(v) for v in valuations]
        if len(valuations) != len(states):
            raise StructureError(
                f"expected {len(states)} valuations, got {len(valuations)}"
            )
        declared = set(atoms)
        for label, v in zip(states, valuations):
            if v.keys() != declared:
                raise StructureError(
                    f"state {label!r} must value exactly the declared atoms"
                )
        # column j: the states whose valuation makes atom j true
        indices = range(len(states))
        columns = tuple(
            bitsets.from_indices(
                compress(indices, map(itemgetter(atom), valuations)), len(states)
            )
            for atom in atoms
        )
        self._context = FormalContext._from_columns(states, atoms, columns)

    @property
    def atoms(self):
        return self._context.attributes

    @property
    def states(self):
        return self._context.objects

    def state_bits(self, formula):
        """Bitset of states whose valuation satisfies the formula."""
        return evaluate(formula, self._column, self._context.object_universe)

    def _column(self, name):
        # ``extension``'s column lookup, its error naming the valuation's atom
        context = self._context
        try:
            return context.column(context.attribute_index(name))
        except BindingError:
            raise BindingError(f"valuation has no atom {name!r}") from None

    def satisfies(self, conditional):
        """Do the most typical antecedent states all satisfy the consequent?

        True, without reading the consequent, when no state is typical.
        """
        typical = self._typical(self.state_bits(conditional.antecedent))
        return not typical or typical & ~self.state_bits(conditional.consequent) == 0


class PreferentialInterpretation(_Interpretation):
    """States labelled with valuations, plus a strict preference order."""

    __slots__ = ("_order",)

    def __init__(self, atoms, states, valuations, order):
        super().__init__(atoms, states, valuations)
        if order.size != len(self.states):
            raise StructureError(
                f"order covers {order.size} elements, interpretation has "
                f"{len(self.states)} states"
            )
        self._order = order

    @property
    def order(self):
        return self._order

    def _typical(self, states):
        return self._order.minimise(states)


class RankedInterpretation(_Interpretation):
    """States labelled with valuations, plus ranks from 0 upward or infinite.

    The finite ranks must be convex. A state is strictly preferred to
    another exactly when its rank is smaller; infinite-rank states are the
    least preferred of all, held as one stratum above the finite ones.
    """

    __slots__ = ("_ranks", "_ranking")

    def __init__(self, atoms, states, valuations, ranks):
        super().__init__(atoms, states, valuations)
        ranks = tuple(ranks)
        if len(ranks) != len(self.states):
            raise StructureError(f"expected {len(self.states)} ranks, got {len(ranks)}")
        # the finite strata in rank order, then the infinite-rank states
        layers = _rank_layers((i, r) for i, r in enumerate(ranks) if r != INFINITE_RANK)
        infinite = [i for i, r in enumerate(ranks) if r == INFINITE_RANK]
        if infinite:
            layers.append(infinite)
        strata = [bitsets.from_indices(layer, len(ranks)) for layer in layers]
        self._ranks = ranks
        self._ranking = RankingFunction._from_strata(strata, len(ranks))

    @property
    def ranks(self):
        return self._ranks

    def _typical(self, states):
        return self._ranking.least(states)[1]


# --- base rank and rational closure ------------------------------------------


@dataclass(frozen=True)
class BaseRankResult:
    """Statements stratified by exceptionality, plus the never-recovering ones."""

    strata: tuple
    infinite: tuple


def _exceptionality_rounds(statements):
    """Yield, round by round, the statements still active and their material forms.

    Round k holds the statements of rank k or more, the last round those
    exceptional forever. A statement is exceptional for a round when the
    round's material forms entail the negation of its antecedent; the
    exceptional ones make up the next round. Each round is worked out only
    when the caller asks for it, so a caller that stops early pays for no
    later round.
    """
    current = list(dict.fromkeys(statements))
    while True:
        materials = [s.material() for s in current]
        yield current, materials
        nxt = [s for s in current if prop_entails(materials, Not(s.antecedent))]
        if len(nxt) == len(current):
            return
        current = nxt


def base_rank(statements):
    """Stratify statements by iterated exceptionality.

    A statement is exceptional for a set when the set's material forms
    entail the negation of its antecedent. Rank 0 keeps the never
    exceptional statements, each next rank those that stop being
    exceptional once earlier ranks are removed; statements exceptional
    forever are reported separately (classical assertions end up there).
    """
    rounds = [current for current, _ in _exceptionality_rounds(statements)]
    strata = []
    for current, nxt in zip(rounds, rounds[1:]):
        exceptional = set(nxt)
        strata.append(tuple(s for s in current if s not in exceptional))
    return BaseRankResult(tuple(strata), tuple(rounds[-1]))


def rc_decision(statements, query):
    """Rational-closure verdict for a query, with the rank of its antecedent.

    Walks the exceptionality rounds up to the first whose material forms
    leave the query's antecedent possible, and checks whether they entail
    the query's material form. The second component is that round's rank,
    or None when even the statements exceptional forever rule the
    antecedent out (the verdict is then True).
    """
    negated = Not(query.antecedent)
    rounds = _exceptionality_rounds(statements)
    for rank, (_, materials) in enumerate(rounds):
        try:
            possible = not prop_entails(materials, negated)
        except CapacityError:
            # name the enumeration a full ranking of the base would refuse
            # first: the base's own, which the next round raises, or, when
            # no statement has a finite rank, the verdict's
            if next(rounds, None) is None:
                prop_entails(materials, query.material())
            raise
        if possible:
            return prop_entails(materials, query.material()), rank
    return prop_entails(materials, query.material()), None


# --- derived contexts ---------------------------------------------------------


def _derived_parts(interpretation):
    context = interpretation._context
    objects = tuple(map(str, context.objects))
    if len(set(objects)) != len(objects):
        raise StructureError("state labels collide once written out as names")
    columns = tuple(map(context.column, range(context.n_attributes)))
    return FormalContext._from_columns(objects, context.attributes, columns)


def derive_preferential_context(interpretation):
    """One object per state, one attribute per atom, the order carried over."""
    context = _derived_parts(interpretation)
    return PreferentialContext(context, interpretation.order)


def derive_ranked_context(interpretation):
    """Ranked variant; every state must carry a finite rank."""
    for label, r in zip(interpretation.states, interpretation.ranks):
        if r == INFINITE_RANK:
            raise UnsupportedStateError(
                f"state {label!r} has infinite rank and no place in a "
                "ranked context"
            )
    context = _derived_parts(interpretation)
    # with no infinite rank, the interpretation's ranking is the context's
    return RankedContext(context, interpretation._ranking)
