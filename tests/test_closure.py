import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    friends_delta,
    preferential_postulate_violations,
    random_conditional,
    random_context,
    random_formula,
)
from dfca import BindingError, StructureError, ValidityError
from dfca.closure import ClosureSession, entailment_diff
from dfca.formula import parse_conditional

seeds = st.integers(min_value=0, max_value=10**6)

PROBES = [
    parse_conditional('"fw. eva" |~ "fw. bob"'),
    parse_conditional('"fw. eva" |~ "fw. alice"'),
    parse_conditional('"fw. david" |~ "fw. charlie"'),
    parse_conditional('"fw. david" & "fw. eva" |~ "fw. charlie"'),
]


def friends_session(friends):
    return ClosureSession(friends, friends_delta())


class TestSession:
    def test_entailment_verdicts(self, friends):
        session = friends_session(friends)
        assert session.entails(PROBES[2])
        assert not session.entails(PROBES[3])
        assert session.entails(PROBES[0])
        assert not session.entails(PROBES[1])

    def test_entails_every_base_conditional(self, friends):
        session = friends_session(friends)
        for conditional in friends_delta():
            assert session.entails(conditional)

    def test_update_recomputes_ranking(self, friends):
        session = friends_session(friends)
        updated = session.add_conditional(parse_conditional('"fw. eva" |~ "fw. frank"'))
        assert updated.ranked.ranking.ranks == (0, 3, 1, 1, 2, 2)
        # the new conditional flips both eva probes
        assert not updated.entails(PROBES[0])
        assert updated.entails(PROBES[1])

    def test_sessions_are_immutable(self, friends):
        session = friends_session(friends)
        before = session.ranked.ranking.ranks
        session.add_conditional(parse_conditional('"fw. eva" |~ "fw. frank"'))
        assert session.ranked.ranking.ranks == before
        assert len(session.kb) == 2

    def test_adding_known_conditional_changes_nothing(self, friends):
        session = friends_session(friends)
        again = session.add_conditional(friends_delta()[0])
        assert again.kb == session.kb
        assert again.ranked == session.ranked

    def test_unsatisfiable_base_rejected_at_construction(self, weather):
        with pytest.raises(ValidityError):
            ClosureSession(weather, [parse_conditional("Rain |~ Sun")])

    def test_unknown_probe_attribute_rejected(self, friends):
        session = friends_session(friends)
        with pytest.raises(BindingError):
            session.entails(parse_conditional("penguin |~ bird"))

    def test_kb_presentation_order_is_irrelevant(self, friends):
        forward = ClosureSession(friends, friends_delta())
        backward = ClosureSession(friends, list(reversed(friends_delta())))
        assert forward.ranked == backward.ranked
        for probe in PROBES:
            assert forward.entails(probe) == backward.entails(probe)


class TestEntailmentDiff:
    def test_update_diff(self, friends):
        before = friends_session(friends)
        after = before.add_conditional(parse_conditional('"fw. eva" |~ "fw. frank"'))
        diff = entailment_diff(before, after, PROBES)
        assert diff == [
            (PROBES[0], True, False),
            (PROBES[1], False, True),
            (PROBES[2], True, True),
            (PROBES[3], False, False),
        ]

    def test_identity_diff(self, friends):
        session = friends_session(friends)
        diff = entailment_diff(session, session, PROBES[:1])
        assert diff == [(PROBES[0], True, True)]

    def test_context_mismatch_rejected(self, friends, elements):
        first = ClosureSession(friends, [])
        second = ClosureSession(elements, [])
        with pytest.raises(StructureError):
            entailment_diff(first, second, [])


class TestEntailmentLaws:
    @given(seeds)
    def test_base_conditionals_are_entailed(self, seed):
        """Whenever a session exists it entails every conditional it was built from."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=5, max_attributes=4)
        delta = [
            random_conditional(rng, context.attributes)
            for _ in range(rng.randint(0, 3))
        ]
        try:
            session = ClosureSession(context, delta)
        except ValidityError:
            return
        for conditional in delta:
            assert session.entails(conditional)

    @settings(max_examples=80)
    @given(seeds)
    def test_entailment_is_preferential(self, seed):
        """Session entailment inherits the seven postulates from its ranking."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=5, max_attributes=4)
        delta = [
            random_conditional(rng, context.attributes)
            for _ in range(rng.randint(0, 2))
        ]
        try:
            session = ClosureSession(context, delta)
        except ValidityError:
            return
        pc = session.ranked.as_preferential()
        names = context.attributes
        phi = random_formula(rng, names, 2)
        psi = random_formula(rng, names, 2)
        gamma = random_formula(rng, names, 2)
        assert preferential_postulate_violations(pc, phi, psi, gamma) == []

    @given(seeds)
    def test_growth_keeps_or_raises_ranks(self, seed):
        """Adding a conditional never lowers any object's rank."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=5, max_attributes=4)
        delta = [
            random_conditional(rng, context.attributes)
            for _ in range(rng.randint(0, 2))
        ]
        try:
            session = ClosureSession(context, delta)
            grown = session.add_conditional(
                random_conditional(rng, context.attributes)
            )
        except ValidityError:
            return
        pairs = zip(session.ranked.ranking.ranks, grown.ranked.ranking.ranks)
        assert all(old <= new for old, new in pairs)
