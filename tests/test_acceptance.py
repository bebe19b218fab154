"""The acceptance gate: every headline capability checked end to end.

Each test re-derives its expected values from scratch, either against an
independent enumeration oracle or on contexts small enough to verify by
hand, and reports one ``acceptance: <capability>: PASS`` line. Run with
``pytest tests/test_acceptance.py -s`` to watch the lines go by.
"""

import functools
import itertools
import random
import time

import oracles
from conftest import (
    build_elements,
    build_friends,
    build_weather,
    CORPUS_DIR,
    DATA_DIR,
    elements_order,
    enumerate_valuation_models,
    friends_delta,
    pointwise_minimum,
    preferential_postulate_violations,
    random_conditional,
    random_context,
    random_formula,
    random_preferential_context,
    random_ranked_context,
    random_ranking,
    rm_violated,
)
from dfca import (
    AttributeImplication,
    ClosureSession,
    Conditional,
    KnowledgeBase,
    PreferentialContext,
    StrictOrder,
    entailment_diff,
    extension,
    format_cxt,
    implication_holds,
    object_rank,
    order_from_ranks,
    parse_cxt,
)
from dfca import propositional as prop
from dfca.formula import And, Atom, Not, Or, parse_conditional, parse_formula


def gate(name):
    """Report one pass or fail line for the capability, then let pytest judge."""

    def wrap(test):
        @functools.wraps(test)
        def run(*args, **kwargs):
            try:
                test(*args, **kwargs)
            except BaseException:
                print(f"acceptance: {name}: FAIL", flush=True)
                raise
            print(f"acceptance: {name}: PASS", flush=True)

        return run

    return wrap


# --- compound attributes over a context ---------------------------------------


@gate("compound extension and implication")
def test_rainy_or_windy_days_are_cold():
    """A disjunction picks out exactly the right days and implies Cold, instantly."""
    context = build_weather()
    rain_or_wind = parse_formula("Rain | Wind")
    cold = parse_formula("Cold")

    def answer():
        days = extension(context, rain_or_wind)
        return days, days & ~extension(context, cold) == 0

    answer()
    started = time.perf_counter()
    days, implied = answer()
    elapsed = time.perf_counter() - started
    assert context.object_names(days) == ("Day 2", "Day 3")
    assert implied
    assert elapsed < 0.001
    implication = Conditional.classical(rain_or_wind, cold)
    assert extension(context, implication.material()) == context.object_universe


# --- typicality rescues what classical implication rejects --------------------


@gate("defeasible conditional on a non-modular order")
def test_nonmetal_gas_needs_the_preference_order():
    """Non-metal -> Gas fails outright but holds defeasibly, and the order defeats RM."""
    context = build_elements()
    order = elements_order()
    non_metal = Atom("Non-metal")
    gas = Atom("Gas")
    essential = Atom("Essential")

    nm = 1 << context.attribute_index("Non-metal")
    g = 1 << context.attribute_index("Gas")
    assert not implication_holds(context, AttributeImplication(nm, g))
    assert extension(context, non_metal) & ~extension(context, gas) != 0

    pc = PreferentialContext(context, order)
    assert pc.satisfies(Conditional.defeasible(non_metal, gas))
    assert not order.is_modular()

    # rational monotonicity fails here: Gas survives among typical non-metals,
    # Essential is not atypically absent, yet adding it defeats the conclusion
    assert not pc.satisfies(Conditional.defeasible(non_metal, Not(essential)))
    assert not pc.satisfies(Conditional.defeasible(And(non_metal, essential), gas))


# --- ranking a context against its conditionals -------------------------------


@gate("friendship ranking and entailment")
def test_friendship_ranking_and_its_two_verdicts():
    """The friendship conditionals stratify the six friends and answer two queries."""
    context = build_friends()
    kb = KnowledgeBase(friends_delta())
    david_charlie = parse_conditional('"fw. david" |~ "fw. charlie"')
    david_and_eva = parse_conditional('"fw. david" & "fw. eva" |~ "fw. charlie"')

    object_rank(context, kb)
    started = time.perf_counter()
    ranked, ranking = object_rank(context, kb)
    verdicts = (ranked.satisfies(david_charlie), ranked.satisfies(david_and_eva))
    elapsed = time.perf_counter() - started

    assert ranking.strata == (0b000011, 0b001100, 0b110000)
    assert context.object_names(ranking.strata[0]) == ("bob", "eva")
    assert context.object_names(ranking.strata[1]) == ("charlie", "frank")
    assert context.object_names(ranking.strata[2]) == ("alice", "david")
    assert verdicts == (True, False)
    assert elapsed < 0.010

    session = ClosureSession(context, kb)
    assert session.entails(david_charlie) is True
    assert session.entails(david_and_eva) is False


@gate("nonmonotonic update")
def test_new_conditional_moves_eva_and_flips_two_verdicts():
    """Adding one conditional re-ranks exactly eva and reverses two entailments."""
    context = build_friends()
    before = ClosureSession(context, friends_delta())
    after = before.add_conditional(parse_conditional('"fw. eva" |~ "fw. frank"'))

    moved = [
        name
        for name, was, now in zip(
            context.objects, before.ranked.ranking.ranks, after.ranked.ranking.ranks
        )
        if was != now
    ]
    assert moved == ["eva"]
    eva = context.object_index("eva")
    assert after.ranked.ranking.rank_of(eva) == 3
    assert len(after.ranked.ranking.strata) == 4

    eva_bob = parse_conditional('"fw. eva" |~ "fw. bob"')
    eva_alice = parse_conditional('"fw. eva" |~ "fw. alice"')
    assert entailment_diff(before, after, [eva_bob, eva_alice]) == [
        (eva_bob, True, False),
        (eva_alice, False, True),
    ]


@gate("least ranked model")
def test_object_ranking_is_the_unique_least_model():
    """On random consistent inputs the computed ranking is the pointwise minimum."""
    started = time.perf_counter()
    seed = 0
    collected = 0
    while collected < 200:
        rng = random.Random(seed)
        seed += 1
        context = random_context(rng, min_objects=1)
        kb = KnowledgeBase(
            random_conditional(rng, context.attributes)
            for _ in range(rng.randint(1, 3))
        )
        if not oracles.delta_valid(context, kb):
            continue
        collected += 1
        ranked, _ = object_rank(context, kb)
        got = ranked.ranking.ranks
        vectors = [
            m.ranking.ranks for m in oracles.enumerate_ranked_models(context, kb)
        ]
        assert all(ranked.satisfies(c) for c in kb)
        assert got in vectors
        for vector in vectors:
            assert all(x <= y for x, y in zip(got, vector))
            if all(y <= x for x, y in zip(got, vector)):
                assert vector == got
    assert collected == 200
    assert time.perf_counter() - started < 60.0


# --- the reasoning is preferential, and rational when ranked ------------------


@gate("rationality postulates")
def test_preferential_postulates_and_rational_monotonicity():
    """Seven postulates hold on preference orders; rankings add rational monotonicity."""
    started = time.perf_counter()
    for seed in range(500):
        rng = random.Random(seed)
        pc = random_preferential_context(rng)
        names = pc.context.attributes
        for _ in range(20):
            phi = random_formula(rng, names, 3)
            psi = random_formula(rng, names, 3)
            gamma = random_formula(rng, names, 3)
            assert preferential_postulate_violations(pc, phi, psi, gamma) == []
    for seed in range(500):
        rng = random.Random(10_000 + seed)
        rc = random_ranked_context(rng)
        names = rc.context.attributes
        for _ in range(20):
            phi = random_formula(rng, names, 3)
            psi = random_formula(rng, names, 3)
            gamma = random_formula(rng, names, 3)
            assert not rm_violated(rc, phi, psi, gamma)
            assert preferential_postulate_violations(
                PreferentialContext(rc.context, order_from_ranks(rc.ranking)), phi, psi, gamma
            ) == []
    assert time.perf_counter() - started < 120.0


@gate("minimisation characterisation")
def test_satisfaction_agrees_with_minimisation():
    """phi |~ psi holds exactly when minimise(phi) and minimise(phi and psi) coincide."""
    for seed in range(500):
        rng = random.Random(20_000 + seed)
        pc = random_preferential_context(rng)
        names = pc.context.attributes
        for _ in range(20):
            phi = random_formula(rng, names, 3)
            psi = random_formula(rng, names, 3)
            holds = pc.satisfies(Conditional.defeasible(phi, psi))
            phi_down = extension(pc.context, phi)
            both = phi_down & extension(pc.context, psi)
            assert holds == (
                pc.order.minimise(phi_down) == pc.order.minimise(both)
            )


# --- states-as-objects bridge --------------------------------------------------


ATOM_POOL = ("p", "q", "r", "s")


def semantic_classes(atoms, valuations):
    """One representative formula per distinct behaviour reachable by depth 3.

    Masks are closed under the three connectives level by level, so every
    negation-conjunction-disjunction formula of depth at most three shares
    its satisfaction pattern with some representative here.
    """
    full = (1 << len(valuations)) - 1

    def mask_of(formula):
        bits = 0
        for i, v in enumerate(valuations):
            if oracles.prop_eval(v, formula):
                bits |= 1 << i
        return bits

    reps = {}
    for name in atoms:
        reps.setdefault(mask_of(prop.Atom(name)), prop.Atom(name))
    for _ in range(3):
        pool = list(reps.items())
        fresh = {}
        for mask, formula in pool:
            flipped = full & ~mask
            if flipped not in reps and flipped not in fresh:
                fresh[flipped] = prop.Not(formula)
        for (m1, f1), (m2, f2) in itertools.combinations(pool, 2):
            if m1 & m2 not in reps and m1 & m2 not in fresh:
                fresh[m1 & m2] = prop.And(f1, f2)
            if m1 | m2 not in reps and m1 | m2 not in fresh:
                fresh[m1 | m2] = prop.Or(f1, f2)
        reps.update(fresh)
    return reps


def to_compound(formula):
    if isinstance(formula, prop.Atom):
        return Atom(formula.name)
    if isinstance(formula, prop.Not):
        return Not(to_compound(formula.operand))
    if isinstance(formula, prop.And):
        return And(to_compound(formula.left), to_compound(formula.right))
    return Or(to_compound(formula.left), to_compound(formula.right))


@functools.lru_cache(maxsize=None)
def syntactic_pool(atoms):
    """Every formula of height at most two, paired with its compound twin."""
    level0 = [prop.Atom(name) for name in atoms]
    level1 = list(level0) + [prop.Not(f) for f in level0]
    for f, g in itertools.product(level0, level0):
        level1.append(prop.And(f, g))
        level1.append(prop.Or(f, g))
    level2 = list(level1) + [prop.Not(f) for f in level1]
    for f, g in itertools.product(level1, level1):
        level2.append(prop.And(f, g))
        level2.append(prop.Or(f, g))
    return tuple((f, to_compound(f)) for f in level2)


def random_fragment(rng, names, max_depth):
    if max_depth == 0 or rng.random() < 0.3:
        return prop.Atom(rng.choice(names))
    roll = rng.random()
    if roll < 0.3:
        return prop.Not(random_fragment(rng, names, max_depth - 1))
    left = random_fragment(rng, names, max_depth - 1)
    right = random_fragment(rng, names, max_depth - 1)
    return prop.And(left, right) if roll < 0.65 else prop.Or(left, right)


def random_states(rng, atoms):
    count = rng.randint(1, 8)
    states = tuple(f"s{i}" for i in range(count))
    valuations = tuple(
        {a: rng.random() < 0.5 for a in atoms} for _ in range(count)
    )
    return states, valuations


def assert_bridge_faithful(model, valuations, derived, rng):
    # every distinct behaviour reachable by depth 3, through both engines
    reps = semantic_classes(model.atoms, valuations)
    for mask, formula in reps.items():
        assert model.state_bits(formula) == mask
        assert extension(derived.context, to_compound(formula)) == mask
    for fa, fb in itertools.product(reps.values(), repeat=2):
        stated = model.satisfies(prop.PropConditional.defeasible(fa, fb))
        mirrored = derived.satisfies(
            Conditional.defeasible(to_compound(fa), to_compound(fb))
        )
        assert stated == mirrored
    # every syntax tree to depth 2, whatever behaviour it repeats
    for formula, twin in syntactic_pool(model.atoms):
        assert model.state_bits(formula) == extension(derived.context, twin)
    # random depth-3 trees, for shapes the class representatives never take
    for _ in range(25):
        formula = random_fragment(rng, model.atoms, 3)
        assert model.state_bits(formula) == extension(
            derived.context, to_compound(formula)
        )
    for _ in range(10):
        fa = random_fragment(rng, model.atoms, 3)
        fb = random_fragment(rng, model.atoms, 3)
        stated = model.satisfies(prop.PropConditional.defeasible(fa, fb))
        mirrored = derived.satisfies(
            Conditional.defeasible(to_compound(fa), to_compound(fb))
        )
        assert stated == mirrored


def dense_valuations():
    patterns = (1, 2, 4, 8, 7, 11, 13, 14)
    return tuple(
        {a: bool(bits >> j & 1) for j, a in enumerate(ATOM_POOL)}
        for bits in patterns
    )


@gate("derived-context correspondence")
def test_interpretations_match_their_derived_contexts():
    """Formula and conditional verdicts carry across the state-to-object bridge."""
    started = time.perf_counter()
    for seed in range(100):
        rng = random.Random(seed)
        atoms = ATOM_POOL[: rng.randint(1, 4)]
        states, valuations = random_states(rng, atoms)
        ranks = random_ranking(rng, len(states)).ranks
        model = prop.RankedInterpretation(atoms, states, valuations, ranks)
        assert_bridge_faithful(
            model, valuations, prop.derive_ranked_context(model), rng
        )
    for seed in range(100):
        rng = random.Random(30_000 + seed)
        atoms = ATOM_POOL[: rng.randint(1, 4)]
        states, valuations = random_states(rng, atoms)
        pairs = [
            (i, j)
            for i in range(len(states))
            for j in range(len(states))
            if i < j and rng.random() < 0.4
        ]
        model = prop.PreferentialInterpretation(
            atoms, states, valuations, StrictOrder(len(states), pairs)
        )
        assert_bridge_faithful(
            model, valuations, prop.derive_preferential_context(model), rng
        )

    # two handmade worst cases: eight pairwise distinct valuations
    rng = random.Random(60_000)
    states = tuple(f"s{i}" for i in range(8))
    dense = dense_valuations()
    ranked = prop.RankedInterpretation(
        ATOM_POOL, states, dense, (0, 0, 1, 1, 2, 2, 3, 3)
    )
    assert_bridge_faithful(ranked, dense, prop.derive_ranked_context(ranked), rng)
    tangle = StrictOrder(8, [(0, 2), (0, 3), (1, 3), (2, 4), (3, 5), (4, 6), (5, 7)])
    preferential = prop.PreferentialInterpretation(ATOM_POOL, states, dense, tangle)
    assert_bridge_faithful(
        preferential, dense, prop.derive_preferential_context(preferential), rng
    )
    assert time.perf_counter() - started < 60.0


# --- propositional baseline -----------------------------------------------------


@gate("propositional rational closure")
def test_penguin_triad_matches_the_exhaustive_minimum():
    """Base ranks and all three closure verdicts equal the least model's answers."""
    bird_flies = prop.parse_prop_statement("bird |~ flies")
    penguin_bird = prop.parse_prop_statement("penguin |~ bird")
    penguin_grounded = prop.parse_prop_statement("penguin |~ !flies")
    kb = [bird_flies, penguin_bird, penguin_grounded]

    result = prop.base_rank(kb)
    assert result.strata == ((bird_flies,), (penguin_bird, penguin_grounded))
    assert result.infinite == ()

    atoms = ("bird", "flies", "penguin")
    valuations, models = enumerate_valuation_models(kb, atoms)
    assert models
    floor = pointwise_minimum(models)
    assert floor is not None
    assert prop.INFINITE_RANK not in floor
    minimum = prop.RankedInterpretation(
        atoms, tuple(range(len(valuations))), valuations, floor
    )

    queries = (
        prop.parse_prop_statement("bird |~ flies"),
        prop.parse_prop_statement("penguin |~ !flies"),
        prop.parse_prop_statement("penguin |~ flies"),
    )
    oracle = tuple(minimum.satisfies(q) for q in queries)
    assert oracle == (True, True, False)
    assert tuple(prop.rc_decision(kb, q)[0] for q in queries) == oracle


# --- storage --------------------------------------------------------------------


@gate("context file round-trip")
def test_canonical_context_files_reprint_byte_identical():
    """Loading and re-printing a canonical context file changes nothing."""
    files = sorted(CORPUS_DIR.glob("*.cxt"))
    files += [DATA_DIR / "elements.cxt", DATA_DIR / "friends.cxt"]
    assert len(files) == 10
    for path in files:
        raw = path.read_bytes()
        context = parse_cxt(raw.decode("utf-8"), path=str(path))
        assert format_cxt(context).encode("utf-8") == raw, path.name
