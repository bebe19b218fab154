"""Shared builders, samplers, and law checkers for the test suite."""

from pathlib import Path

import pytest

from oracles import all_valuations, prop_eval, set_satisfies
from dfca import (
    FormalContext,
    PreferentialContext,
    RankedContext,
    RankingFunction,
    StrictOrder,
    StructureError,
)
from dfca import bitsets
from dfca.formula import And, Atom, Conditional, Not, Or, extension

DATA_DIR = Path(__file__).resolve().parent.parent / "data"
TEST_DATA_DIR = Path(__file__).resolve().parent / "data"
CORPUS_DIR = TEST_DATA_DIR / "corpus"


# --- worked examples -------------------------------------------------------


def build_weather():
    return FormalContext.from_pairs(
        ["Day 1", "Day 2", "Day 3", "Day 4"],
        ["Sun", "Rain", "Wind", "Cold"],
        [
            ("Day 1", "Sun"),
            ("Day 2", "Wind"),
            ("Day 2", "Cold"),
            ("Day 3", "Rain"),
            ("Day 3", "Cold"),
            ("Day 4", "Cold"),
        ],
    )


def build_elements():
    return FormalContext(
        ["Helium", "Hydrogen", "Carbon"],
        ["Gas", "Non-metal", "Reactive", "Essential", "Solid", "Abundant"],
        [0b100011, 0b101111, 0b011010],
    )


def elements_order():
    # only Helium is strictly more typical than Carbon
    return StrictOrder(3, [(0, 2)])


def build_friends():
    return FormalContext(
        ["bob", "eva", "charlie", "frank", "alice", "david"],
        ["fw. alice", "fw. bob", "fw. charlie", "fw. david", "fw. eva", "fw. frank"],
        [0b001110, 0b010010, 0b000100, 0b000111, 0b110101, 0b111001],
    )


def friends_delta():
    return [
        Conditional.defeasible(Atom("fw. alice"), Atom("fw. bob")),
        Conditional.defeasible(Atom("fw. charlie"), Atom("fw. david")),
    ]


@pytest.fixture
def weather():
    return build_weather()


@pytest.fixture
def elements():
    return build_elements()


@pytest.fixture
def friends():
    return build_friends()


# --- random instances ------------------------------------------------------


def random_context(rng, max_objects=5, max_attributes=5, min_objects=0):
    n = rng.randint(min_objects, max_objects)
    m = rng.randint(1, max_attributes)
    rows = [rng.getrandbits(m) for _ in range(n)]
    return FormalContext(
        [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
    )


def random_formula(rng, names, max_depth):
    if max_depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    roll = rng.random()
    if roll < 0.3:
        return Not(random_formula(rng, names, max_depth - 1))
    left = random_formula(rng, names, max_depth - 1)
    right = random_formula(rng, names, max_depth - 1)
    return And(left, right) if roll < 0.65 else Or(left, right)


def random_order(rng, n, density=None):
    if density is None:
        density = rng.uniform(0.1, 0.6)
    permutation = rng.sample(range(n), n)
    pairs = [
        (permutation[i], permutation[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return StrictOrder(n, pairs)


def random_ranking(rng, n):
    if n == 0:
        return RankingFunction(())
    levels = rng.randint(1, n)
    cut_points = sorted(rng.sample(range(1, n), levels - 1))
    permutation = rng.sample(range(n), n)
    ranks = [0] * n
    level = 0
    for position, index in enumerate(permutation):
        if level < len(cut_points) and position == cut_points[level]:
            level += 1
        ranks[index] = level
    return RankingFunction(ranks)


def random_preferential_context(rng, max_objects=5, max_attributes=5):
    context = random_context(rng, max_objects, max_attributes)
    return PreferentialContext(context, random_order(rng, context.n_objects))


def random_ranked_context(rng, max_objects=5, max_attributes=5):
    context = random_context(rng, max_objects, max_attributes)
    return RankedContext(context, random_ranking(rng, context.n_objects))


def random_conditional(rng, names, max_depth=2):
    return Conditional.defeasible(
        random_formula(rng, names, max_depth), random_formula(rng, names, max_depth)
    )


# --- rationality postulates --------------------------------------------------

PREFERENTIAL_POSTULATES = ("REF", "LLE", "RW", "AND", "OR", "CUT", "CM")


def preferential_postulate_violations(pc, phi, psi, gamma):
    """Names of the seven preferential postulates the triple violates, if any."""
    context = pc.context

    def sat(antecedent, consequent):
        return pc.satisfies(Conditional.defeasible(antecedent, consequent))

    def ext(formula):
        return extension(context, formula)

    failures = []
    if not sat(phi, phi):
        failures.append("REF")
    if ext(phi) == ext(psi) and sat(psi, gamma) and not sat(phi, gamma):
        failures.append("LLE")
    if (
        bitsets.is_subset(ext(psi), ext(gamma))
        and sat(phi, psi)
        and not sat(phi, gamma)
    ):
        failures.append("RW")
    if sat(phi, psi) and sat(phi, gamma) and not sat(phi, And(psi, gamma)):
        failures.append("AND")
    if sat(phi, gamma) and sat(psi, gamma) and not sat(Or(phi, psi), gamma):
        failures.append("OR")
    if sat(And(phi, psi), gamma) and sat(phi, psi) and not sat(phi, gamma):
        failures.append("CUT")
    if sat(phi, psi) and sat(phi, gamma) and not sat(And(phi, psi), gamma):
        failures.append("CM")
    return failures


def rm_violated(rc, phi, psi, gamma):
    """Does the triple violate rational monotonicity on this ranked context?"""

    def sat(antecedent, consequent):
        return rc.satisfies(Conditional.defeasible(antecedent, consequent))

    if sat(phi, psi) and not sat(phi, Not(gamma)):
        return not sat(And(phi, gamma), psi)
    return False


# --- exhaustive enumerations and oracles -------------------------------------


def all_strict_orders(n):
    """Every strict partial order on n labelled elements, as StrictOrder values."""
    seen = {StrictOrder(n)}
    frontier = list(seen)
    while frontier:
        order = frontier.pop()
        for i in range(n):
            for j in range(n):
                if i == j or order.precedes(i, j) or order.precedes(j, i):
                    continue
                try:
                    bigger = StrictOrder(n, order.pairs() + [(i, j)])
                except StructureError:
                    continue
                if bigger not in seen:
                    seen.add(bigger)
                    frontier.append(bigger)
    return seen


def brute_closure(implications, base, m):
    """Least superset closed under the implications, by full subset scan."""
    best = bitsets.universe(m)
    for candidate in range(1 << m):
        if base & ~candidate:
            continue
        if candidate != closure_probe(implications, candidate):
            continue
        best &= candidate
    return best


def closure_probe(implications, bits):
    for impl in implications:
        if bitsets.is_subset(impl.premise, bits) and not bitsets.is_subset(
            impl.conclusion, bits
        ):
            return bits | impl.conclusion
    return bits


def brute_follows(implications, implication, m):
    """Semantic consequence by scanning every attribute subset."""
    for candidate in range(1 << m):
        if all(set_satisfies(candidate, impl) for impl in implications):
            if not set_satisfies(candidate, implication):
                return False
    return True


# --- exhaustive ranked-model oracle over valuations ---------------------------


def enumerate_valuation_models(statements, atom_list):
    """Every ranked assignment of all valuations over the atoms satisfying the statements.

    States are the full valuation space; ranks are 0..k plus infinity for a
    possibly empty trailing set. Satisfaction is checked on the minimal
    antecedent states under the usual order on naturals with infinity on top.
    Yields rank vectors aligned with the valuation enumeration order.
    """
    from dfca.propositional import INFINITE_RANK

    valuations = list(all_valuations(atom_list))
    n = len(valuations)
    everything = (1 << n) - 1
    ants = []
    cons = []
    for s in statements:
        ants.append(
            sum(1 << i for i, v in enumerate(valuations) if prop_eval(v, s.antecedent))
        )
        cons.append(
            sum(1 << i for i, v in enumerate(valuations) if prop_eval(v, s.consequent))
        )
    results = []

    def minima_ok(stratum, seen_before):
        # statements whose antecedent first meets this stratum are decided here
        for a, c in zip(ants, cons):
            if a & seen_before or not a & stratum:
                continue
            if a & stratum & ~c:
                return False
        return True

    def dfs(remaining, assigned, ranks, level):
        # close the model here: the rest, if any, drops to infinite rank
        if minima_ok(remaining, assigned):
            vector = list(ranks)
            for i in range(n):
                if remaining >> i & 1:
                    vector[i] = INFINITE_RANK
            results.append(tuple(vector))
        if not remaining:
            return
        # or pick the next stratum among the remaining states
        members = [i for i in range(n) if remaining >> i & 1]
        for pick in range(1, 1 << len(members)):
            stratum = 0
            for j, i in enumerate(members):
                if pick >> j & 1:
                    stratum |= 1 << i
            if not minima_ok(stratum, assigned):
                continue
            nxt = list(ranks)
            for i in members:
                if stratum >> i & 1:
                    nxt[i] = level
            dfs(remaining & ~stratum, assigned | stratum, nxt, level + 1)

    dfs(everything, 0, [None] * n, 0)
    return valuations, results


def pointwise_minimum(vectors):
    """The pointwise least of the rank vectors if it is attained, else None."""
    floor = tuple(min(column) for column in zip(*vectors))
    return floor if floor in set(vectors) else None
