"""Ranking objects by how exceptional they are for a set of conditionals.

The central procedure stratifies a context's objects against defeasible
conditionals: rank 0 keeps the objects violating no material form, each
following rank keeps the objects that stopped violating once the
conditionals answered on earlier ranks were set aside. The result is the
least ranked context satisfying the whole set, when any exists.
"""

import itertools
from dataclasses import dataclass

from . import bitsets
from .errors import CapacityError, StructureError, ValidityError
from .formula import DEFEASIBLE, bind, extension, materialise
from .limits import enumeration_cap
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

    @property
    def conditionals(self):
        return self._conditionals

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
class RankPartition:
    """Ascending strata of object bitsets produced by ranking."""

    strata: tuple

    @property
    def top_rank(self):
        if not self.strata:
            raise StructureError("empty partition has no ranks")
        return len(self.strata) - 1


@dataclass(frozen=True)
class PreferenceComparison:
    """Pointwise comparison of two rankings of the same context."""

    le: bool
    ge: bool


def _bound_extents(context, kb):
    mats = []
    ants = []
    for c in kb:
        bind(context, c.antecedent)
        bind(context, c.consequent)
        mats.append(extension(context, materialise(c)))
        ants.append(extension(context, c.antecedent))
    return mats, ants


def delta_valid(context, kb, *, max_conditionals=None):
    """Can every nonempty subset of the conditionals be answered plausibly?

    True when each such subset has an object satisfying all its material
    forms and at least one of its antecedents. Walks all subsets, so the
    size of the conditional set is capped (see the limits module).
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    cap = enumeration_cap(max_conditionals)
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


def object_rank(context, kb, *, precheck=False):
    """Stratify the context's objects against the conditional set.

    Returns the resulting ranked context together with its partition.
    Iteration i settles the objects violating no remaining material form
    and then discards every conditional some settled object answers
    non-vacuously; the remaining objects move up one rank. The conditional
    set must shrink every iteration and the result must satisfy it, else
    the set is unsatisfiable over this context and a ValidityError is
    raised. ``precheck=True`` runs the exhaustive subset check first.
    """
    kb = kb if isinstance(kb, KnowledgeBase) else KnowledgeBase(kb)
    if precheck and not delta_valid(context, kb):
        raise ValidityError(
            "no ranking of this context satisfies the conditional set: "
            "some subset has no plausible witness"
        )
    mats, ants = _bound_extents(context, kb)
    active = list(range(len(mats)))
    remaining = context.object_universe
    strata = []
    iteration = 0
    while active:
        violators = 0
        for k in active:
            violators |= remaining & ~mats[k]
        settled = remaining & ~violators
        next_active = [k for k in active if ants[k] & settled == 0]
        if len(next_active) == len(active):
            raise ValidityError(
                "no ranking of this context satisfies the conditional set: "
                f"it stopped shrinking at rank {iteration}"
            )
        strata.append(settled)
        remaining = violators
        active = next_active
        iteration += 1
    if remaining:
        strata.append(remaining)
    ranks = [0] * context.n_objects
    for level, stratum in enumerate(strata):
        for i in bitsets.iter_indices(stratum):
            ranks[i] = level
    ranked = RankedContext(context, RankingFunction(ranks))
    for c, mat, ant in zip(kb, mats, ants):
        _, least = _least_stratum(strata, ant)
        if least & ~mat:
            raise ValidityError(
                "no ranking of this context satisfies the conditional set: "
                f"the result violates '{c}'"
            )
    return ranked, RankPartition(tuple(strata))


def _least_stratum(strata, members):
    """(k, members & S_k) for the first stratum S_k that meets the members.

    These are the members of least rank, the ones a ranked context checks
    a conditional against; (None, 0) when no stratum meets the members.
    """
    for level, stratum in enumerate(strata):
        least = members & stratum
        if least:
            return level, least
    return None, 0


def context_preference(first, second):
    """Pointwise rank comparison of two ranked contexts over one context."""
    if first.context != second.context:
        raise StructureError("cannot compare rankings of different contexts")
    a = first.ranking.ranks
    b = second.ranking.ranks
    return PreferenceComparison(
        le=all(x <= y for x, y in zip(a, b)),
        ge=all(x >= y for x, y in zip(a, b)),
    )


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
