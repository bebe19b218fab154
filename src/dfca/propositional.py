"""Propositional defeasible reasoning, the classical baseline.

Formulas and statements are those of the propositional dialect of the
formula language (see ``dfca.formula``); the names below re-export them.
Statements are ranked by exceptionality under classical entailment, and
queries are answered by rational closure.

Interpretations attach valuations to preference-ordered states. Every
finitely-ranked interpretation turns into a ranked context on the same
skeleton, which is what ties this module to the rest of the package.
"""

import math
from dataclasses import dataclass

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
from .order import PreferentialContext, RankedContext, RankingFunction


# --- semantics --------------------------------------------------------------


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


def prop_entails(premises, conclusion, *, max_atoms=None):
    """Classical entailment by exhausting valuations over the mentioned atoms."""
    premises = list(premises)
    names = set(atom_names(conclusion))
    for p in premises:
        names |= atom_names(p)
    names = sorted(names)
    cap = enumeration_cap(max_atoms)
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


# --- interpretations --------------------------------------------------------

INFINITE_RANK = math.inf


class _Interpretation:
    """Distinct states, each labelled with a valuation of the same atoms."""

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


class PreferentialInterpretation(_Interpretation):
    """States labelled with valuations, plus a strict preference order."""

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

    def satisfies(self, conditional):
        """Do the most preferred antecedent states all satisfy the consequent?"""
        antecedent_states = self.state_bits(conditional.antecedent)
        minimal = self._order.minimise(antecedent_states)
        consequent_states = self.state_bits(conditional.consequent)
        return minimal & ~consequent_states == 0


class RankedInterpretation(_Interpretation):
    """States labelled with valuations, plus ranks from 0 upward or infinite.

    The finite ranks must be convex. A state is strictly preferred to
    another exactly when its rank is smaller; infinite-rank states are the
    least preferred of all.
    """

    __slots__ = ("_ranks",)

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

    @property
    def ranks(self):
        return self._ranks

    def satisfies(self, conditional):
        """Do the least-ranked antecedent states all satisfy the consequent?"""
        antecedent_states = self.state_bits(conditional.antecedent)
        if antecedent_states == 0:
            return True
        members = [i for i in range(len(self._states)) if antecedent_states >> i & 1]
        least = min(self._ranks[i] for i in members)
        consequent_states = self.state_bits(conditional.consequent)
        return all(
            consequent_states >> i & 1
            for i in members
            if self._ranks[i] == least
        )


# --- base rank and rational closure ------------------------------------------


@dataclass(frozen=True)
class BaseRankResult:
    """Statements stratified by exceptionality, plus the never-recovering ones."""

    strata: tuple
    infinite: tuple

    @property
    def height(self):
        return len(self.strata)


def _unique(statements):
    items = []
    seen = set()
    for s in statements:
        if s not in seen:
            seen.add(s)
            items.append(s)
    return items


def base_rank(statements, *, max_atoms=None):
    """Stratify statements by iterated exceptionality.

    A statement is exceptional for a set when the set's material forms
    entail the negation of its antecedent. Rank 0 keeps the never
    exceptional statements, each next rank those that stop being
    exceptional once earlier ranks are removed; statements exceptional
    forever are reported separately (classical assertions end up there).
    """
    current = _unique(statements)
    strata = []
    while True:
        materials = [s.material() for s in current]
        nxt = [
            s
            for s in current
            if prop_entails(materials, Not(s.antecedent), max_atoms=max_atoms)
        ]
        if len(nxt) == len(current):
            break
        strata.append(tuple(s for s in current if s not in set(nxt)))
        current = nxt
    return BaseRankResult(tuple(strata), tuple(current))


def rc_decision(statements, query, *, max_atoms=None):
    """Rational-closure verdict for a query, with the rank of its antecedent.

    Removes the lowest remaining stratum while the leftover material forms
    make the query's antecedent impossible, then checks whether they entail
    the query's material form. The second component counts the strata
    removed: the rank where the antecedent stops being exceptional, or None
    when no finite rank makes it possible (the verdict is then True).
    """
    ranked = base_rank(statements, max_atoms=max_atoms)
    fixed = [s.material() for s in ranked.infinite]
    live = [[s.material() for s in level] for level in ranked.strata]
    negated = Not(query.antecedent)
    dropped = 0
    while live and prop_entails(
        fixed + [m for level in live for m in level], negated, max_atoms=max_atoms
    ):
        live.pop(0)
        dropped += 1
    premises = fixed + [m for level in live for m in level]
    verdict = prop_entails(premises, query.material(), max_atoms=max_atoms)
    if not live and prop_entails(fixed, negated, max_atoms=max_atoms):
        return verdict, None
    return verdict, dropped


def rc_entails(statements, query, *, max_atoms=None):
    """Is the query in the rational closure of the statements?"""
    verdict, _ = rc_decision(statements, query, max_atoms=max_atoms)
    return verdict


# --- derived contexts ---------------------------------------------------------


def _derived_parts(interpretation):
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
    return RankedContext(context, RankingFunction(interpretation.ranks))
