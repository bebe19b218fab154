"""Ranking objects by how exceptional they are for a set of conditionals.

The central procedure stratifies a context's objects against defeasible
conditionals: rank 0 keeps the objects violating no material form, each
following rank keeps the objects that stopped violating once the
conditionals answered on earlier ranks were set aside. The result is the
least ranked context satisfying the whole set, when any exists.
"""

from dataclasses import dataclass
from itertools import zip_longest

from .errors import StructureError, ValidityError
from .formula import DEFEASIBLE, extension
from .order import RankedContext, RankingFunction


class KnowledgeBase:
    """An ordered, duplicate-free set of defeasible conditionals."""

    __slots__ = ("_conditionals",)

    def __init__(self, conditionals=()):
        items = []
        seen = set()
        for c in conditionals:
            if c.kind != DEFEASIBLE:
                raise StructureError(
                    f"cannot rank with the classical statement '{c}': "
                    "only defeasible conditionals participate"
                )
            if c not in seen:
                seen.add(c)
                items.append(c)
        self._conditionals = tuple(items)

    def with_conditional(self, conditional):
        """A new knowledge base extended by one conditional (no-op on duplicates)."""
        if conditional in self._conditionals:
            return self
        return KnowledgeBase(self._conditionals + (conditional,))

    def __iter__(self):
        return iter(self._conditionals)

    def __len__(self):
        return len(self._conditionals)

    def __contains__(self, conditional):
        return conditional in self._conditionals

    def __eq__(self, other):
        if not isinstance(other, KnowledgeBase):
            return NotImplemented
        return set(self._conditionals) == set(other._conditionals)

    def __hash__(self):
        return hash(frozenset(self._conditionals))

    def __repr__(self):
        return f"KnowledgeBase({list(map(str, self._conditionals))!r})"


@dataclass(frozen=True)
class PreferenceComparison:
    """Pointwise comparison of two rankings of the same context."""

    le: bool
    ge: bool


def _bound_extents(context, kb):
    mats = []
    ants = []
    for c in kb:
        # the material form names the antecedent's atoms, then the
        # consequent's, so an unknown one is reported in text order
        mats.append(extension(context, c.material()))
        ants.append(extension(context, c.antecedent))
    return mats, ants


def delta_valid(context, kb):
    """Can every nonempty subset of the conditionals be answered plausibly?

    True when each such subset has an object satisfying all its material
    forms and at least one of its antecedents. This is the test that the
    ranking loop of ``object_rank`` answers in one pass (Pearl's System Z
    partition, tolerance in the sense of Goldszmidt and Pearl), so it holds
    exactly when that loop never stops shrinking:

    - If every subset has a witness, take the conditionals still active at
      rank k. Their witness satisfies every active material form, and no
      earlier rank holds it, since that rank would have discarded the
      conditional whose antecedent it meets. So it settles at rank k and
      discards at least one of them.
    - If the loop runs to the end, take any nonempty subset and the first
      rank that discards one of its members. The whole subset is still
      active there, so the object settled at that rank that discards the
      member satisfies all the subset's material forms and meets one of
      its antecedents: a witness.
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    mats, ants = _bound_extents(context, kb)
    _, stalled = _stratify(context.object_universe, mats, ants)
    return stalled is None


def _stratify(universe, mats, ants):
    """(strata, stalled) for the ranking loop over one universe.

    Rank k settles the members violating no active material form and
    discards every active conditional whose antecedent meets them.
    ``stalled`` is the rank where no conditional was discarded, with the
    strata settled below it, or None when the loop ran to the end; the
    members violating the last active forms then make one more stratum.
    """
    active = list(range(len(mats)))
    remaining = universe
    strata = []
    while active:
        violators = 0
        for k in active:
            violators |= remaining & ~mats[k]
        settled = remaining & ~violators
        next_active = [k for k in active if ants[k] & settled == 0]
        if len(next_active) == len(active):
            return strata, len(strata)
        strata.append(settled)
        remaining = violators
        active = next_active
    if remaining:
        strata.append(remaining)
    return strata, None


def object_rank(context, kb):
    """Stratify the context's objects against the conditional set.

    Returns the resulting ranked context together with its ranking.
    Iteration i settles the objects violating no remaining material form
    and then discards every conditional some settled object answers
    non-vacuously; the remaining objects move up one rank. The conditional
    set must shrink every iteration and the result must satisfy it, else
    the set is unsatisfiable over this context and a ValidityError is
    raised. The loop stops shrinking exactly when some nonempty subset of
    the conditionals has no plausible witness (see ``delta_valid``); the
    conditionals still active there form such a subset. When it runs to
    the end, the first rank whose settled objects meet an antecedent also
    satisfies that conditional's material form, so the closing check only
    guards against a fault in the loop.
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    mats, ants = _bound_extents(context, kb)
    strata, stalled = _stratify(context.object_universe, mats, ants)
    if stalled is not None:
        raise ValidityError(
            "no ranking of this context satisfies the conditional set: "
            f"it stopped shrinking at rank {stalled}"
        )
    ranking = RankingFunction._from_strata(strata, context.n_objects)
    for c, mat, ant in zip(kb, mats, ants):
        if ranking.least(ant)[1] & ~mat:
            raise ValidityError(
                "no ranking of this context satisfies the conditional set: "
                f"the result violates '{c}'"
            )
    return RankedContext(context, ranking), ranking


def context_preference(first, second):
    """Pointwise rank comparison of two ranked contexts over one context.

    Every object ranks no higher in the first than in the second exactly
    when, for each k, the objects of rank at most k in the second all have
    rank at most k in the first. So the prefix unions of the strata are
    compared, a ranking's union staying whole past its top rank.
    """
    if first.context != second.context:
        raise StructureError("cannot compare rankings of different contexts")
    le = ge = True
    a = b = 0
    pairs = zip_longest(first.ranking.strata, second.ranking.strata, fillvalue=0)
    for x, y in pairs:
        a |= x
        b |= y
        le = le and b & ~a == 0
        ge = ge and a & ~b == 0
    return PreferenceComparison(le=le, ge=ge)
