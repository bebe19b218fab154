import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    build_elements,
    build_friends,
    friends_delta,
    random_conditional,
    random_context,
)
from dfca import (
    BindingError,
    CapacityError,
    FormalContext,
    KnowledgeBase,
    StructureError,
    ValidityError,
)
from dfca.formula import extension, parse_conditional
from dfca.ranking import (
    PreferenceComparison,
    context_preference,
    delta_valid,
    object_rank,
)

seeds = st.integers(min_value=0, max_value=10**6)


def extended_delta():
    return friends_delta() + [parse_conditional('"fw. eva" |~ "fw. frank"')]


def build_blocked():
    # both objects answer one conditional and violate the other
    context = FormalContext(["g1", "g2"], ["a", "b", "c"], [0b111, 0b011])
    delta = [parse_conditional("a |~ c"), parse_conditional("b |~ !c")]
    return context, delta


class TestKnowledgeBase:
    def test_deduplicates_preserving_first_occurrence(self):
        c1 = parse_conditional("a |~ b")
        c2 = parse_conditional("b |~ a")
        kb = KnowledgeBase([c1, c2, c1])
        assert tuple(kb) == (c1, c2)
        assert len(kb) == 2
        assert c2 in kb

    def test_rejects_classical_conditionals(self):
        with pytest.raises(StructureError) as err:
            KnowledgeBase([parse_conditional("a -> b")])
        assert "classical" in str(err.value)

    def test_the_first_classical_statement_is_named(self):
        first = parse_conditional("a -> b")
        second = parse_conditional("b -> a")
        plain = parse_conditional("a |~ b")
        with pytest.raises(StructureError, match="statement 'a -> b'"):
            KnowledgeBase([plain, first, plain, second, first])

    def test_with_conditional_is_pure(self):
        c1 = parse_conditional("a |~ b")
        c2 = parse_conditional("b |~ a")
        kb = KnowledgeBase([c1])
        grown = kb.with_conditional(c2)
        assert tuple(kb) == (c1,)
        assert tuple(grown) == (c1, c2)
        assert tuple(grown.with_conditional(c1)) == (c1, c2)

    def test_equality_is_order_insensitive(self):
        c1 = parse_conditional("a |~ b")
        c2 = parse_conditional("b |~ a")
        assert KnowledgeBase([c1, c2]) == KnowledgeBase([c2, c1])
        assert hash(KnowledgeBase([c1, c2])) == hash(KnowledgeBase([c2, c1]))
        assert KnowledgeBase([c1]) != KnowledgeBase([c2])


class TestDeltaValid:
    def test_friendship_delta_is_valid(self, friends):
        assert delta_valid(friends, friends_delta())
        assert delta_valid(friends, extended_delta())

    def test_empty_delta_is_valid(self, friends):
        assert delta_valid(friends, [])

    def test_unwitnessed_antecedent_invalidates(self, elements):
        # nothing is both a gas and a solid, so the lone subset has no witness
        assert not delta_valid(elements, [parse_conditional("Gas & Solid |~ Essential")])

    def test_singleton_without_plausible_witness(self, weather):
        assert not delta_valid(weather, [parse_conditional("Rain |~ Sun")])

    def test_pair_can_fail_where_singletons_pass(self):
        context, delta = build_blocked()
        assert delta_valid(context, [delta[0]])
        assert delta_valid(context, [delta[1]])
        assert not delta_valid(context, delta)

    def test_unknown_attribute_rejected(self, weather):
        with pytest.raises(Exception) as err:
            delta_valid(weather, [parse_conditional("Snow |~ Sun")])
        assert "Snow" in str(err.value)

    def test_the_first_unknown_attribute_in_the_text_is_named(self, weather):
        """The antecedent's atoms come before the consequent's, left to right."""
        for text, first in [
            ("Rain |~ yy & ww & qq & pp", "yy"),
            ("Rain & (ss | tt) |~ aa", "ss"),
        ]:
            with pytest.raises(BindingError, match=f"unknown attribute '{first}'"):
                delta_valid(weather, [parse_conditional(text)])
            with pytest.raises(BindingError, match=f"unknown attribute '{first}'"):
                object_rank(weather, KnowledgeBase([parse_conditional(text)]))


class TestObjectRank:
    def test_friendship_strata(self, friends):
        ranked, ranking = object_rank(friends, friends_delta())
        # bob, eva first; charlie, frank above them; alice, david on top
        assert ranking.strata == (0b000011, 0b001100, 0b110000)
        assert ranked.ranking.ranks == (0, 0, 1, 1, 2, 2)

    def test_friendship_verdicts(self, friends):
        ranked, _ = object_rank(friends, friends_delta())
        assert ranked.satisfies(parse_conditional('"fw. david" |~ "fw. charlie"'))
        assert not ranked.satisfies(
            parse_conditional('"fw. david" & "fw. eva" |~ "fw. charlie"')
        )

    def test_friendship_update_moves_only_eva(self, friends):
        ranked, ranking = object_rank(friends, extended_delta())
        assert ranked.ranking.ranks == (0, 3, 1, 1, 2, 2)
        assert ranking.strata == (0b000001, 0b001100, 0b110000, 0b000010)

    def test_elements_strata(self, elements):
        ranked, ranking = object_rank(
            elements, [parse_conditional("Non-metal |~ Gas")]
        )
        assert ranking.strata == (0b011, 0b100)
        assert ranked.ranking.ranks == (0, 0, 1)

    def test_empty_delta_flattens(self, weather):
        ranked, ranking = object_rank(weather, [])
        assert ranking.strata == (0b1111,)
        assert ranked.ranking.ranks == (0, 0, 0, 0)

    def test_blocked_delta_raises(self):
        context, delta = build_blocked()
        with pytest.raises(ValidityError) as err:
            object_rank(context, delta)
        assert "stopped shrinking" in str(err.value)

    def test_blocked_delta_has_no_witness(self):
        context, delta = build_blocked()
        assert not delta_valid(context, delta)

    def test_accepts_knowledge_base_instances(self, friends):
        ranked, _ = object_rank(friends, KnowledgeBase(friends_delta()))
        assert ranked.ranking.ranks == (0, 0, 1, 1, 2, 2)

    @given(seeds)
    def test_result_is_a_model_partitioned_by_rank(self, seed):
        """When ranking succeeds its strata partition G and satisfy the conditionals."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=5, max_attributes=4)
        delta = [
            random_conditional(rng, context.attributes) for _ in range(rng.randint(0, 3))
        ]
        try:
            ranked, ranking = object_rank(context, delta)
        except ValidityError:
            return
        combined = 0
        for stratum in ranking.strata:
            assert stratum != 0
            assert combined & stratum == 0
            combined |= stratum
        assert combined == context.object_universe
        assert ranking is ranked.ranking
        for conditional in delta:
            assert ranked.satisfies(conditional)

    @settings(max_examples=60, deadline=None)
    @given(seeds)
    def test_agrees_with_exhaustive_enumeration(self, seed):
        """object_rank succeeds exactly on the valid sets and returns the least model."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=4, max_attributes=3, min_objects=1)
        delta = [
            random_conditional(rng, context.attributes) for _ in range(rng.randint(1, 3))
        ]
        models = oracles.enumerate_ranked_models(context, delta)
        valid = delta_valid(context, delta)
        # validity is model existence plus every antecedent being witnessed;
        # an unwitnessed antecedent holds in every model but counts as invalid
        witnessed = all(
            extension(context, c.antecedent) != 0 for c in delta
        )
        assert valid == (bool(models) and witnessed)
        try:
            ranked, _ = object_rank(context, delta)
        except ValidityError:
            assert not valid
            return
        assert valid
        assert ranked in models
        for model in models:
            comparison = context_preference(ranked, model)
            assert comparison.le
            if comparison.ge:
                assert model == ranked


class TestContextPreference:
    def test_equal_rankings_compare_both_ways(self, friends):
        ranked, _ = object_rank(friends, friends_delta())
        assert context_preference(ranked, ranked) == PreferenceComparison(True, True)

    def test_update_only_raises_ranks(self, friends):
        before, _ = object_rank(friends, friends_delta())
        after, _ = object_rank(friends, extended_delta())
        assert context_preference(before, after) == PreferenceComparison(True, False)

    def test_different_contexts_rejected(self, friends, elements):
        first, _ = object_rank(friends, [])
        second, _ = object_rank(elements, [])
        with pytest.raises(StructureError):
            context_preference(first, second)


class TestEnumerateRankedModels:
    def test_two_objects_without_constraints(self):
        context = FormalContext(["g1", "g2"], ["a"], [0b1, 0b0])
        models = oracles.enumerate_ranked_models(context, [])
        assert [m.ranking.ranks for m in models] == [(0, 0), (0, 1), (1, 0)]

    def test_elements_models(self, elements):
        models = oracles.enumerate_ranked_models(
            elements, [parse_conditional("Non-metal |~ Gas")]
        )
        assert [m.ranking.ranks for m in models] == [
            (0, 0, 1),
            (0, 1, 1),
            (0, 1, 2),
            (0, 2, 1),
            (1, 0, 1),
            (1, 0, 2),
            (2, 0, 1),
        ]

    def test_blocked_delta_has_no_models(self):
        context, delta = build_blocked()
        assert oracles.enumerate_ranked_models(context, delta) == []

    def test_object_cap(self, friends):
        assert oracles.enumerate_ranked_models(friends, [], max_objects=6)
        with pytest.raises(CapacityError):
            oracles.enumerate_ranked_models(friends, [], max_objects=5)
