import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import enumerate_valuation_models, pointwise_minimum, random_ranking
from dfca import (
    BindingError,
    CapacityError,
    FormulaSyntaxError,
    StrictOrder,
    StructureError,
    UnsupportedStateError,
)
from dfca import formula as fca
from dfca.propositional import (
    INFINITE_RANK,
    And,
    Atom,
    BaseRankResult,
    Bot,
    Iff,
    Implies,
    Not,
    Or,
    PreferentialInterpretation,
    PropConditional,
    RankedInterpretation,
    Top,
    all_valuations,
    atom_names,
    base_rank,
    derive_preferential_context,
    derive_ranked_context,
    format_prop_formula,
    parse_prop_formula,
    parse_prop_statement,
    prop_entails,
    prop_eval,
    rc_decision,
    rc_entails,
)

seeds = st.integers(min_value=0, max_value=10**6)

prop_formulas = st.recursive(
    st.one_of(
        st.builds(Top),
        st.builds(Bot),
        st.builds(Atom, st.sampled_from(["p", "q", "TOP", "weird name"])),
    ),
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
    ),
    max_leaves=10,
)


def penguin_statements():
    return [
        parse_prop_statement("bird |~ flies"),
        parse_prop_statement("penguin |~ bird"),
        parse_prop_statement("penguin |~ !flies"),
    ]


def random_prop_formula(rng, names, max_depth):
    if max_depth == 0 or rng.random() < 0.25:
        roll = rng.random()
        if roll < 0.1:
            return Top()
        if roll < 0.2:
            return Bot()
        return Atom(rng.choice(names))
    roll = rng.random()
    if roll < 0.25:
        return Not(random_prop_formula(rng, names, max_depth - 1))
    left = random_prop_formula(rng, names, max_depth - 1)
    right = random_prop_formula(rng, names, max_depth - 1)
    if roll < 0.5:
        return And(left, right)
    if roll < 0.75:
        return Or(left, right)
    return Implies(left, right)


class TestEvaluation:
    def test_connective_tables(self):
        p, q = Atom("p"), Atom("q")
        rows = list(all_valuations(["p", "q"]))
        assert [prop_eval(v, And(p, q)) for v in rows] == [False, False, False, True]
        assert [prop_eval(v, Or(p, q)) for v in rows] == [False, True, True, True]
        assert [prop_eval(v, Implies(p, q)) for v in rows] == [True, True, False, True]
        assert [prop_eval(v, Iff(p, q)) for v in rows] == [True, False, False, True]
        assert [prop_eval(v, Not(p)) for v in rows] == [True, True, False, False]
        assert all(prop_eval(v, Top()) for v in rows)
        assert not any(prop_eval(v, Bot()) for v in rows)

    def test_valuation_enumeration_order(self):
        rows = list(all_valuations(["p", "q"]))
        assert rows[0] == {"p": False, "q": False}
        assert rows[1] == {"p": False, "q": True}
        assert rows[3] == {"p": True, "q": True}
        assert len(list(all_valuations([]))) == 1

    def test_missing_atom_rejected(self):
        with pytest.raises(BindingError):
            prop_eval({"p": True}, Atom("q"))

    def test_atom_names(self):
        formula = parse_prop_formula("p -> (q <-> !p) | BOT")
        assert atom_names(formula) == {"p", "q"}


class TestParsing:
    def test_precedence_ladder(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert parse_prop_formula("p | q & r") == Or(p, And(q, r))
        assert parse_prop_formula("p -> q | r") == Implies(p, Or(q, r))
        assert parse_prop_formula("p <-> q -> r") == Iff(p, Implies(q, r))
        assert parse_prop_formula("!p & q") == And(Not(p), q)

    def test_implication_associates_right(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert parse_prop_formula("p -> q -> r") == Implies(p, Implies(q, r))

    def test_iff_associates_left(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        assert parse_prop_formula("p <-> q <-> r") == Iff(Iff(p, q), r)

    def test_constants(self):
        assert parse_prop_formula("TOP") == Top()
        assert parse_prop_formula("BOT") == Bot()
        assert parse_prop_formula('"TOP"') == Atom("TOP")

    def test_statement_forms(self):
        defeasible = parse_prop_statement("penguin |~ !flies")
        assert defeasible.kind == "defeasible"
        assert defeasible.consequent == Not(Atom("flies"))
        assertion = parse_prop_statement("penguin -> bird")
        assert assertion.kind == "classical"
        assert assertion.asserted() == Implies(Atom("penguin"), Atom("bird"))
        assert assertion.antecedent == Not(Implies(Atom("penguin"), Atom("bird")))
        assert assertion.consequent == Bot()

    def test_statement_errors(self):
        with pytest.raises(FormulaSyntaxError):
            parse_prop_statement("p |~")
        with pytest.raises(FormulaSyntaxError):
            parse_prop_statement("p |~ q |~ r")
        with pytest.raises(FormulaSyntaxError):
            parse_prop_formula("p ->")


class TestPrinting:
    def test_minimal_parentheses(self):
        assert format_prop_formula(parse_prop_formula("p -> q -> r")) == "p -> q -> r"
        assert (
            format_prop_formula(Implies(Implies(Atom("p"), Atom("q")), Atom("r")))
            == "(p -> q) -> r"
        )
        assert (
            format_prop_formula(Iff(Atom("p"), Iff(Atom("q"), Atom("r"))))
            == "p <-> (q <-> r)"
        )
        assert format_prop_formula(Not(Implies(Atom("p"), Atom("q")))) == "!(p -> q)"
        assert format_prop_formula(Atom("TOP")) == '"TOP"'

    def test_statement_strings(self):
        assert str(parse_prop_statement("penguin |~ !flies")) == "penguin |~ !flies"
        assert str(parse_prop_statement("penguin -> bird")) == "penguin -> bird"

    @given(prop_formulas)
    def test_round_trip(self, formula):
        """parse_prop_formula inverts format_prop_formula on arbitrary trees."""
        assert parse_prop_formula(format_prop_formula(formula)) == formula


class TestEntailment:
    def test_modus_ponens(self):
        premises = [parse_prop_formula("p"), parse_prop_formula("p -> q")]
        assert prop_entails(premises, parse_prop_formula("q"))
        assert not prop_entails(premises, parse_prop_formula("!q"))

    def test_tautology_needs_no_premises(self):
        assert prop_entails([], parse_prop_formula("p | !p"))
        assert not prop_entails([], parse_prop_formula("p"))

    def test_contradictory_premises_entail_anything(self):
        premises = [parse_prop_formula("p & !p")]
        assert prop_entails(premises, parse_prop_formula("q"))

    def test_capacity_cap(self):
        premises = [parse_prop_formula("a1 & a2 & a3")]
        assert prop_entails(premises, parse_prop_formula("a2"), max_atoms=3)
        with pytest.raises(CapacityError):
            prop_entails(premises, parse_prop_formula("a2"), max_atoms=2)

    @given(seeds)
    def test_agrees_with_satisfiability_scan(self, seed):
        """Entailment holds iff premises plus negated conclusion are unsatisfiable."""
        rng = random.Random(seed)
        names = ["p", "q", "r"]
        premises = [random_prop_formula(rng, names, 2) for _ in range(rng.randint(0, 3))]
        conclusion = random_prop_formula(rng, names, 2)
        satisfiable = any(
            all(prop_eval(v, f) for f in premises) and prop_eval(v, Not(conclusion))
            for v in all_valuations(names)
        )
        assert prop_entails(premises, conclusion) == (not satisfiable)


class TestPropConditional:
    def test_assertion_material_is_the_statement(self):
        statement = parse_prop_formula("p -> q")
        assertion = PropConditional.assertion(statement)
        for v in all_valuations(["p", "q"]):
            assert prop_eval(v, assertion.material()) == prop_eval(v, statement)

    def test_asserted_requires_classical(self):
        with pytest.raises(StructureError):
            PropConditional.defeasible(Atom("p"), Atom("q")).asserted()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            PropConditional(Atom("p"), Atom("q"), "chaotic")


def penguin_interpretation(third_rank=2):
    atoms = ("bird", "flies", "penguin")
    states = ("s0", "s1", "s2")
    valuations = (
        {"bird": True, "flies": True, "penguin": False},
        {"bird": True, "flies": False, "penguin": True},
        {"bird": False, "flies": False, "penguin": True},
    )
    return RankedInterpretation(atoms, states, valuations, (0, 1, third_rank))


class TestInterpretations:
    def test_ranked_satisfaction(self):
        model = penguin_interpretation()
        assert model.satisfies(parse_prop_statement("bird |~ flies"))
        assert model.satisfies(parse_prop_statement("penguin |~ !flies"))
        assert not model.satisfies(parse_prop_statement("penguin |~ flies"))
        assert model.satisfies(parse_prop_statement("BOT |~ flies"))

    def test_infinite_rank_states_are_least_preferred(self):
        model = penguin_interpretation(third_rank=INFINITE_RANK)
        # the only non-bird state sits at infinity yet still answers queries
        assert model.satisfies(parse_prop_statement("!bird |~ penguin"))
        assert not model.satisfies(parse_prop_statement("!bird |~ flies"))
        assert model.ranks == (0, 1, INFINITE_RANK)

    def test_preferential_satisfaction(self):
        model = penguin_interpretation()
        pref = PreferentialInterpretation(
            model.atoms,
            model.states,
            model.valuations,
            StrictOrder(3, [(0, 1), (1, 2)]),
        )
        assert pref.satisfies(parse_prop_statement("bird |~ flies"))
        assert not pref.satisfies(parse_prop_statement("penguin |~ flies"))
        assert pref.satisfies(parse_prop_statement("penguin |~ !flies"))

    def test_state_bits(self):
        model = penguin_interpretation()
        assert model.state_bits(parse_prop_formula("penguin")) == 0b110
        assert model.state_bits(parse_prop_formula("TOP")) == 0b111

    def test_state_bits_rejects_unknown_atoms(self):
        model = penguin_interpretation()
        pref = PreferentialInterpretation(
            model.atoms, model.states, model.valuations, StrictOrder(3)
        )
        for interpretation in (model, pref):
            with pytest.raises(BindingError):
                interpretation.state_bits(parse_prop_formula("bird & wings"))

    @given(seeds)
    def test_state_bits_agree_with_pointwise_evaluation(self, seed):
        """The bitset evaluator matches prop_eval state by state on every connective."""
        rng = random.Random(seed)
        atoms = ("p", "q", "r")
        states, valuations = random_states(rng, atoms)
        model = RankedInterpretation(atoms, states, valuations, [0] * len(states))
        formula = Iff(
            random_prop_formula(rng, atoms, 3), random_prop_formula(rng, atoms, 2)
        )
        expected = sum(
            1 << i for i, v in enumerate(valuations) if prop_eval(v, formula)
        )
        assert model.state_bits(formula) == expected

    def test_validation(self):
        atoms = ("p",)
        vals = ({"p": True}, {"p": False})
        with pytest.raises(StructureError):
            RankedInterpretation(("p", "p"), ("a",), ({"p": True},), (0,))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "a"), vals, (0, 0))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "b"), ({"p": True},), (0, 0))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "b"), ({"p": True}, {"q": True}), (0, 0))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "b"), vals, (0,))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "b"), vals, (0, 2))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "b"), vals, (1, 1))
        with pytest.raises(StructureError):
            RankedInterpretation(atoms, ("a", "b"), vals, (0, -1))
        with pytest.raises(StructureError):
            PreferentialInterpretation(atoms, ("a", "b"), vals, StrictOrder(3))

    def test_all_infinite_ranks_allowed(self):
        model = RankedInterpretation(
            ("p",),
            ("a", "b"),
            ({"p": True}, {"p": False}),
            (INFINITE_RANK, INFINITE_RANK),
        )
        assert model.satisfies(parse_prop_statement("p |~ p"))
        assert not model.satisfies(parse_prop_statement("TOP |~ p"))


class TestBaseRank:
    def test_penguin_strata(self):
        statements = penguin_statements()
        result = base_rank(statements)
        assert result.strata == (
            (statements[0],),
            (statements[1], statements[2]),
        )
        assert result.infinite == ()
        assert result.height == 2

    def test_empty_input(self):
        assert base_rank([]) == BaseRankResult((), ())
        assert base_rank([]).height == 0

    def test_single_statement(self):
        statement = parse_prop_statement("p |~ q")
        assert base_rank([statement]).strata == ((statement,),)

    def test_duplicates_collapse(self):
        statement = parse_prop_statement("p |~ q")
        assert base_rank([statement, statement]).strata == ((statement,),)

    def test_classical_assertions_never_drop(self):
        statements = [
            parse_prop_statement("penguin -> bird"),
            parse_prop_statement("bird |~ flies"),
            parse_prop_statement("penguin |~ !flies"),
        ]
        result = base_rank(statements)
        assert result.strata == ((statements[1],), (statements[2],))
        assert result.infinite == (statements[0],)

    def test_contradictory_conditional_is_infinite(self):
        statement = parse_prop_statement("p |~ BOT")
        result = base_rank([statement])
        assert result.strata == ()
        assert result.infinite == (statement,)

    @given(seeds)
    def test_strata_partition_the_statements(self, seed):
        """base_rank splits the distinct statements into disjoint nonempty layers."""
        rng = random.Random(seed)
        names = ["p", "q", "r"]
        statements = [
            PropConditional.defeasible(
                random_prop_formula(rng, names, 2), random_prop_formula(rng, names, 2)
            )
            for _ in range(rng.randint(0, 4))
        ]
        result = base_rank(statements)
        flattened = [s for level in result.strata for s in level]
        assert all(level for level in result.strata)
        combined = flattened + list(result.infinite)
        assert len(combined) == len(set(combined))
        assert set(combined) == set(statements)


class TestRationalClosure:
    def test_penguin_verdicts(self):
        statements = penguin_statements()
        assert rc_decision(statements, parse_prop_statement("bird |~ flies")) == (
            True,
            0,
        )
        assert rc_decision(statements, parse_prop_statement("penguin |~ !flies")) == (
            True,
            1,
        )
        assert rc_decision(statements, parse_prop_statement("penguin |~ flies")) == (
            False,
            1,
        )
        assert rc_entails(statements, parse_prop_statement("bird |~ flies"))

    def test_assertions_join_every_check(self):
        statements = [
            parse_prop_statement("penguin -> bird"),
            parse_prop_statement("bird |~ flies"),
            parse_prop_statement("penguin |~ !flies"),
        ]
        assert rc_decision(statements, parse_prop_statement("penguin |~ !flies")) == (
            True,
            1,
        )
        assert rc_decision(statements, parse_prop_statement("penguin |~ bird")) == (
            True,
            1,
        )
        assert not rc_entails(statements, parse_prop_statement("penguin |~ flies"))

    def test_empty_base_answers_tautologies(self):
        assert rc_decision([], parse_prop_statement("p |~ p")) == (True, 0)
        assert not rc_entails([], parse_prop_statement("p |~ q"))

    def test_contradictory_assertions_entail_anything(self):
        statements = [
            parse_prop_statement("p"),
            parse_prop_statement("!p"),
        ]
        assert rc_entails(statements, parse_prop_statement("q |~ r"))

    def test_antecedent_rank(self):
        """The rank counts dropped strata; None when no rank allows the antecedent."""
        statements = [parse_prop_statement("p |~ q")]
        query = parse_prop_statement("p & !q |~ r")
        assert rc_decision(statements, query) == (False, 1)
        statements = [parse_prop_statement("p |~ BOT")]
        assert rc_decision(statements, parse_prop_statement("p |~ q")) == (True, None)

    def test_capacity_cap(self):
        statements = penguin_statements()
        query = parse_prop_statement("penguin |~ flies")
        with pytest.raises(CapacityError):
            rc_decision(statements, query, max_atoms=2)

    @settings(max_examples=40, deadline=None)
    @given(seeds)
    def test_agrees_with_minimal_model_oracle(self, seed):
        """rc verdicts match satisfaction in the least ranked model over all valuations."""
        rng = random.Random(seed)
        names = ["p", "q"]
        statements = [
            PropConditional.defeasible(
                random_prop_formula(rng, names, 2), random_prop_formula(rng, names, 2)
            )
            for _ in range(rng.randint(0, 3))
        ]
        _niladic, models = enumerate_valuation_models(statements, names)
        result = base_rank(statements)
        # never-recovering statements block all models unless they are vacuous
        harmless = all(
            not any(prop_eval(v, s.antecedent) for v in all_valuations(names))
            for s in result.infinite
        )
        assert bool(models) == harmless
        if not models:
            return
        floor = pointwise_minimum(models)
        assert floor is not None
        valuations = list(all_valuations(names))
        minimum = RankedInterpretation(
            tuple(names),
            tuple(range(len(valuations))),
            valuations,
            floor,
        )
        for _ in range(4):
            query = PropConditional.defeasible(
                random_prop_formula(rng, names, 2), random_prop_formula(rng, names, 2)
            )
            assert rc_entails(statements, query) == minimum.satisfies(query)


def to_compound(formula):
    if isinstance(formula, Atom):
        return fca.Atom(formula.name)
    if isinstance(formula, Not):
        return fca.Not(to_compound(formula.operand))
    if isinstance(formula, And):
        return fca.And(to_compound(formula.left), to_compound(formula.right))
    if isinstance(formula, Or):
        return fca.Or(to_compound(formula.left), to_compound(formula.right))
    raise TypeError(f"outside the negation-conjunction-disjunction fragment: {formula!r}")


def random_fragment_formula(rng, names, max_depth):
    if max_depth == 0 or rng.random() < 0.3:
        return Atom(rng.choice(names))
    roll = rng.random()
    if roll < 0.3:
        return Not(random_fragment_formula(rng, names, max_depth - 1))
    left = random_fragment_formula(rng, names, max_depth - 1)
    right = random_fragment_formula(rng, names, max_depth - 1)
    return And(left, right) if roll < 0.65 else Or(left, right)


def random_states(rng, atoms, max_states=5):
    count = rng.randint(1, max_states)
    states = tuple(f"s{i}" for i in range(count))
    valuations = tuple(
        {a: rng.random() < 0.5 for a in atoms} for _ in range(count)
    )
    return states, valuations


class TestDerivedContexts:
    def test_ranked_derivation_golden(self):
        model = penguin_interpretation()
        derived = derive_ranked_context(model)
        assert derived.context.objects == ("s0", "s1", "s2")
        assert derived.context.attributes == ("bird", "flies", "penguin")
        assert derived.ranking.ranks == (0, 1, 2)
        assert derived.satisfies(
            fca.Conditional.defeasible(fca.Atom("penguin"), fca.Not(fca.Atom("flies")))
        )

    def test_preferential_derivation_golden(self):
        model = penguin_interpretation()
        pref = PreferentialInterpretation(
            model.atoms, model.states, model.valuations, StrictOrder(3, [(0, 1), (1, 2)])
        )
        derived = derive_preferential_context(pref)
        assert derived.order == pref.order
        assert derived.context.row(1) == 0b101

    def test_infinite_rank_blocks_derivation(self):
        model = penguin_interpretation(third_rank=INFINITE_RANK)
        with pytest.raises(UnsupportedStateError):
            derive_ranked_context(model)

    def test_colliding_state_labels_rejected(self):
        model = RankedInterpretation(
            ("p",), ("0", 0), ({"p": True}, {"p": False}), (0, 1)
        )
        with pytest.raises(StructureError):
            derive_ranked_context(model)

    @settings(max_examples=80)
    @given(seeds)
    def test_ranked_correspondence(self, seed):
        """A ranked interpretation and its derived context satisfy the same conditionals."""
        rng = random.Random(seed)
        atoms = ("p", "q", "r")[: rng.randint(1, 3)]
        states, valuations = random_states(rng, atoms)
        ranks = random_ranking(rng, len(states)).ranks
        model = RankedInterpretation(atoms, states, valuations, ranks)
        derived = derive_ranked_context(model)
        for _ in range(5):
            antecedent = random_fragment_formula(rng, atoms, 2)
            consequent = random_fragment_formula(rng, atoms, 2)
            stated = model.satisfies(PropConditional.defeasible(antecedent, consequent))
            mirrored = derived.satisfies(
                fca.Conditional.defeasible(to_compound(antecedent), to_compound(consequent))
            )
            assert stated == mirrored
            assert model.state_bits(antecedent) == fca.extension(
                derived.context, to_compound(antecedent)
            )

    @settings(max_examples=80)
    @given(seeds)
    def test_preferential_correspondence(self, seed):
        """A preferential interpretation and its derived context satisfy the same conditionals."""
        rng = random.Random(seed)
        atoms = ("p", "q", "r")[: rng.randint(1, 3)]
        states, valuations = random_states(rng, atoms)
        order_pairs = [
            (i, j)
            for i in range(len(states))
            for j in range(len(states))
            if i < j and rng.random() < 0.4
        ]
        model = PreferentialInterpretation(
            atoms, states, valuations, StrictOrder(len(states), order_pairs)
        )
        derived = derive_preferential_context(model)
        for _ in range(5):
            antecedent = random_fragment_formula(rng, atoms, 2)
            consequent = random_fragment_formula(rng, atoms, 2)
            stated = model.satisfies(PropConditional.defeasible(antecedent, consequent))
            mirrored = derived.satisfies(
                fca.Conditional.defeasible(to_compound(antecedent), to_compound(consequent))
            )
            assert stated == mirrored
