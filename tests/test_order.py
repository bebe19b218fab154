import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    PREFERENTIAL_POSTULATES,
    all_strict_orders,
    build_elements,
    build_friends,
    elements_order,
    preferential_postulate_violations,
    random_conditional,
    random_formula,
    random_order,
    random_preferential_context,
    random_ranked_context,
    random_ranking,
    rm_violated,
)
from dfca import (
    FormalContext,
    ModularityError,
    PreferentialContext,
    RankedContext,
    RankingFunction,
    StrictOrder,
    StructureError,
)
from dfca.formula import Atom, Conditional, extension, parse_conditional
from dfca.order import order_from_ranks, ranks_from_order

seeds = st.integers(min_value=0, max_value=10**6)

# Both context kinds refuse a classical implication with this one message.
CLASSICAL_REFUSAL = "preference satisfaction is defined for defeasible conditionals"


class TestStrictOrder:
    def test_transitive_closure(self):
        order = StrictOrder(3, [(0, 1), (1, 2)])
        assert order.precedes(0, 2)
        assert order.pairs() == [(0, 1), (0, 2), (1, 2)]

    def test_cycle_rejected(self):
        with pytest.raises(StructureError):
            StrictOrder(2, [(0, 1), (1, 0)])
        with pytest.raises(StructureError):
            StrictOrder(3, [(0, 1), (1, 2), (2, 0)])

    def test_reflexive_pair_rejected(self):
        with pytest.raises(StructureError):
            StrictOrder(2, [(1, 1)])

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(StructureError):
            StrictOrder(2, [(0, 2)])
        with pytest.raises(StructureError):
            StrictOrder(2, [(-1, 0)])

    def test_index_at_the_size_is_out_of_range(self):
        out_of_range = "index 2 out of range for size 2"
        for pairs in ([(2, 0)], [(0, 2)]):
            with pytest.raises(StructureError, match=out_of_range):
                StrictOrder(2, pairs)
        order = StrictOrder(2, [(0, 1)])
        with pytest.raises(StructureError, match=out_of_range):
            order.successors(2)
        with pytest.raises(StructureError, match=out_of_range):
            order.precedes(0, 2)

    def test_neighbourhoods_are_bitsets(self):
        order = StrictOrder(4, [(0, 1), (1, 2)])
        assert order.successors(0) == 0b0110
        assert order._pred[2] == 0b0011
        assert order._pred[3] == 0

    def test_equality_ignores_pair_presentation(self):
        assert StrictOrder(3, [(0, 1), (1, 2)]) == StrictOrder(
            3, [(1, 2), (0, 1), (0, 2)]
        )
        assert StrictOrder(3) != StrictOrder(2)
        assert StrictOrder(2) != StrictOrder(2, [(0, 1)])

    def test_empty_order(self):
        order = StrictOrder(0)
        assert order.pairs() == []
        assert order.minimise(0) == 0

    @given(seeds)
    def test_closure_is_transitive_and_irreflexive(self, seed):
        """Constructed orders contain no i < i and close i < j < k to i < k."""
        rng = random.Random(seed)
        order = random_order(rng, rng.randint(0, 6))
        for i in range(order.size):
            assert not order.precedes(i, i)
            for j in range(order.size):
                for k in range(order.size):
                    if order.precedes(i, j) and order.precedes(j, k):
                        assert order.precedes(i, k)


class TestMinimise:
    def test_chain(self):
        order = StrictOrder(3, [(0, 1), (1, 2)])
        assert order.minimise(0b111) == 0b001
        assert order.minimise(0b110) == 0b010

    def test_antichain_is_fixed(self):
        assert StrictOrder(3).minimise(0b101) == 0b101

    def test_empty_member_set(self):
        assert StrictOrder(3, [(0, 1)]).minimise(0) == 0

    def test_out_of_range_members_rejected(self):
        with pytest.raises(StructureError):
            StrictOrder(2).minimise(0b100)

    @given(seeds)
    def test_minimal_means_no_smaller_member(self, seed):
        """minimise keeps exactly the members no other member precedes."""
        rng = random.Random(seed)
        n = rng.randint(1, 6)
        order = random_order(rng, n)
        members = rng.getrandbits(n)
        minimal = order.minimise(members)
        for i in range(n):
            expected = bool(members >> i & 1) and not any(
                members >> j & 1 and order.precedes(j, i) for j in range(n)
            )
            assert bool(minimal >> i & 1) == expected


class TestModularity:
    def test_goldens(self):
        assert StrictOrder(3).is_modular()
        assert StrictOrder(3, [(0, 1), (1, 2)]).is_modular()
        # two tiers with both top elements above both bottom elements
        assert StrictOrder(4, [(0, 2), (0, 3), (1, 2), (1, 3)]).is_modular()
        # 1 floats: it is incomparable with 0 and 2 yet they are comparable
        assert not elements_order().is_modular()

    def test_exhaustive_counts_small_sizes(self):
        # strict partial orders on n labelled points: 19, 219
        # modular ones coincide with rankings, counted by ordered set partitions
        orders3 = all_strict_orders(3)
        orders4 = all_strict_orders(4)
        assert len(orders3) == 19
        assert len(orders4) == 219
        assert sum(order.is_modular() for order in orders3) == 13
        assert sum(order.is_modular() for order in orders4) == 75

    def test_modular_iff_incomparables_share_predecessors(self):
        for order in all_strict_orders(4):
            pred = oracles.predecessor_rows(order)
            expected = all(
                pred[i] == pred[j]
                for i in range(4)
                for j in range(4)
                if i != j
                and not order.precedes(i, j)
                and not order.precedes(j, i)
            )
            assert order.is_modular() == expected


class TestRankingFunction:
    def test_accepts_convex_ranks(self):
        assert len(RankingFunction([0, 0, 1]).strata) == 2
        assert RankingFunction([2, 0, 1]).ranks == (2, 0, 1)
        assert RankingFunction(()).size == 0

    def test_rejects_gap(self):
        with pytest.raises(StructureError):
            RankingFunction([0, 2])

    def test_rejects_missing_bottom_rank(self):
        with pytest.raises(StructureError):
            RankingFunction([1, 1])

    def test_rejects_bad_values(self):
        with pytest.raises(StructureError):
            RankingFunction([-1, 0])
        with pytest.raises(StructureError):
            RankingFunction([0.5])

    def test_strata_must_cover_every_index(self):
        with pytest.raises(StructureError, match=r"ranking strata do not cover 0\.\.1"):
            RankingFunction._from_strata((0b01,), 2)

    def test_strata(self):
        ranking = RankingFunction([0, 1, 0, 2])
        assert ranking.strata == (0b0101, 0b0010, 0b1000)
        # built once: later reads and the induced order share the tuple
        assert ranking.strata is ranking.strata
        assert order_from_ranks(ranking)._layers is ranking.strata
        assert RankingFunction(()).strata == ()

    def test_least_reads_the_first_stratum_met(self):
        ranking = RankingFunction([0, 1, 0, 2])
        assert ranking.least(0b1110) == (0, 0b0100)
        assert ranking.least(0b1010) == (1, 0b0010)
        assert ranking.least(0b1000) == (2, 0b1000)
        assert ranking.least(0) == (None, 0)
        for ranks, members in [((), 0b1), ((0, 1), -1), ((0, 1), 0b110)]:
            with pytest.raises(StructureError, match="out of range for this ranking"):
                RankingFunction(ranks).least(members)

    @given(seeds)
    def test_strata_partition_the_objects(self, seed):
        """The strata of a ranking are disjoint and cover every index."""
        rng = random.Random(seed)
        n = rng.randint(1, 7)
        ranking = random_ranking(rng, n)
        combined = 0
        for stratum in ranking.strata:
            assert combined & stratum == 0
            combined |= stratum
        assert combined == (1 << n) - 1


class TestOrderRankConversion:
    def test_chain_ranks(self):
        assert ranks_from_order(StrictOrder(3, [(0, 1), (1, 2)])).ranks == (0, 1, 2)

    def test_antichain_ranks(self):
        assert ranks_from_order(StrictOrder(3)).ranks == (0, 0, 0)

    def test_two_tier_ranks(self):
        order = StrictOrder(4, [(0, 2), (0, 3), (1, 2), (1, 3)])
        assert ranks_from_order(order).ranks == (0, 0, 1, 1)

    def test_non_modular_order_rejected(self):
        with pytest.raises(ModularityError):
            ranks_from_order(elements_order())

    def test_order_from_ranks(self):
        order = order_from_ranks(RankingFunction([0, 1, 0]))
        assert order.pairs() == [(0, 1), (2, 1)]

    def test_round_trip_through_ranks_exhaustive(self):
        for order in all_strict_orders(4):
            if not order.is_modular():
                with pytest.raises(ModularityError):
                    ranks_from_order(order)
                continue
            assert order_from_ranks(ranks_from_order(order)) == order

    @given(seeds)
    def test_round_trip_through_orders(self, seed):
        """order_from_ranks then ranks_from_order reproduces any ranking."""
        rng = random.Random(seed)
        ranking = random_ranking(rng, rng.randint(0, 7))
        assert ranks_from_order(order_from_ranks(ranking)) == ranking


class TestPreferentialContext:
    def test_size_mismatch_rejected(self, elements):
        with pytest.raises(StructureError):
            PreferentialContext(elements, StrictOrder(2))

    def test_equality_reads_the_context_and_the_order(self, elements):
        pc = PreferentialContext(elements, elements_order())
        twin = PreferentialContext(build_elements(), StrictOrder(3, [(0, 2)]))
        assert twin is not pc
        assert twin == pc
        assert hash(twin) == hash(pc)
        assert pc != PreferentialContext(elements, StrictOrder(3))
        rows = list(map(elements.row, range(3)))
        renamed = FormalContext(["He", "H", "C"], elements.attributes, rows)
        assert pc != PreferentialContext(renamed, elements_order())

    def test_satisfaction_goldens(self, elements):
        pc = PreferentialContext(elements, elements_order())
        assert pc.minimise_objects(extension(elements, Atom("Non-metal"))) == 0b011
        assert pc.satisfies(parse_conditional("Non-metal |~ Gas"))
        assert not pc.satisfies(parse_conditional("Non-metal & Essential |~ Gas"))
        assert not pc.satisfies(parse_conditional("Non-metal |~ !Essential"))

    def test_vacuous_antecedent_is_satisfied(self, elements):
        pc = PreferentialContext(elements, elements_order())
        assert pc.satisfies(parse_conditional("Gas & Solid |~ Essential"))

    def test_classical_conditional_rejected(self, elements):
        pc = PreferentialContext(elements, elements_order())
        with pytest.raises(StructureError, match=CLASSICAL_REFUSAL):
            pc.satisfies(parse_conditional("Non-metal -> Gas"))

    @given(seeds)
    def test_minimal_antecedent_characterisation(self, seed):
        """phi |~ psi holds iff minimising phi's extension equals minimising its psi part."""
        rng = random.Random(seed)
        pc = random_preferential_context(rng)
        if pc.context.n_objects == 0:
            return
        names = pc.context.attributes
        phi = random_formula(rng, names, 2)
        psi = random_formula(rng, names, 2)
        phi_down = extension(pc.context, phi)
        psi_down = extension(pc.context, psi)
        stated = pc.satisfies(Conditional.defeasible(phi, psi))
        assert stated == (
            pc.minimise_objects(phi_down)
            == pc.minimise_objects(phi_down & psi_down)
        )

    @settings(max_examples=150)
    @given(seeds)
    def test_preferential_postulates(self, seed):
        """Every preference order satisfies the seven preferential postulates."""
        rng = random.Random(seed)
        pc = random_preferential_context(rng)
        names = pc.context.attributes
        for _ in range(5):
            phi = random_formula(rng, names, 2)
            psi = random_formula(rng, names, 2)
            gamma = random_formula(rng, names, 2)
            assert preferential_postulate_violations(pc, phi, psi, gamma) == []

    def test_rational_monotonicity_can_fail(self, elements):
        # the seven postulates allow this, a ranking would not
        pc = PreferentialContext(elements, elements_order())
        assert rm_violated(
            pc, Atom("Non-metal"), Atom("Gas"), Atom("Essential")
        )


class TestRankedContext:
    def build_friends_ranked(self):
        return RankedContext(build_friends(), RankingFunction([0, 0, 1, 1, 2, 2]))

    def test_size_mismatch_rejected(self, friends):
        with pytest.raises(StructureError):
            RankedContext(friends, RankingFunction([0, 0]))

    def test_rank_lookup(self):
        rc = self.build_friends_ranked()
        assert rc.ranking.ranks[0] == 0
        assert rc.ranking.ranks[5] == 2

    def test_equality_reads_the_context_and_the_ranking(self, friends):
        rc = self.build_friends_ranked()
        assert rc == self.build_friends_ranked()
        assert rc != RankedContext(friends, RankingFunction([0] * 6))
        renamed = FormalContext(
            [f"friend {i}" for i in range(6)],
            friends.attributes,
            list(map(friends.row, range(6))),
        )
        assert rc != RankedContext(renamed, rc.ranking)

    def test_minimise_keeps_lowest_rank(self):
        rc = self.build_friends_ranked()
        # charlie (rank 1), alice and david (rank 2)
        assert rc.minimise_objects(0b110100) == 0b000100

    def test_satisfaction_goldens(self):
        rc = self.build_friends_ranked()
        assert rc.satisfies(parse_conditional('"fw. david" |~ "fw. charlie"'))
        assert not rc.satisfies(
            parse_conditional('"fw. david" & "fw. eva" |~ "fw. charlie"')
        )

    def test_classical_conditional_rejected(self):
        rc = self.build_friends_ranked()
        with pytest.raises(StructureError, match=CLASSICAL_REFUSAL):
            rc.satisfies(parse_conditional('"fw. david" -> "fw. charlie"'))

    def test_induced_order_is_modular(self):
        rc = self.build_friends_ranked()
        order = order_from_ranks(rc.ranking)
        assert order.is_modular()
        assert order.precedes(0, 2)
        assert not order.precedes(2, 3)

    @given(seeds)
    def test_agrees_with_preferential_reading(self, seed):
        """A ranked context and its induced preference order satisfy the same conditionals."""
        rng = random.Random(seed)
        rc = random_ranked_context(rng)
        if rc.context.n_objects == 0:
            return
        pc = PreferentialContext(rc.context, order_from_ranks(rc.ranking))
        for _ in range(5):
            conditional = random_conditional(rng, rc.context.attributes)
            assert rc.satisfies(conditional) == pc.satisfies(conditional)

    @settings(max_examples=150)
    @given(seeds)
    def test_rational_monotonicity(self, seed):
        """Rankings never violate rational monotonicity."""
        rng = random.Random(seed)
        rc = random_ranked_context(rng)
        names = rc.context.attributes
        for _ in range(5):
            phi = random_formula(rng, names, 2)
            psi = random_formula(rng, names, 2)
            gamma = random_formula(rng, names, 2)
            assert not rm_violated(rc, phi, psi, gamma)

    @given(seeds)
    def test_postulates_hold_for_rankings_too(self, seed):
        """Rankings satisfy the preferential postulates through their induced order."""
        rng = random.Random(seed)
        rc = random_ranked_context(rng)
        pc = PreferentialContext(rc.context, order_from_ranks(rc.ranking))
        names = rc.context.attributes
        phi = random_formula(rng, names, 2)
        psi = random_formula(rng, names, 2)
        gamma = random_formula(rng, names, 2)
        assert preferential_postulate_violations(pc, phi, psi, gamma) == []

    def test_postulate_names_are_stable(self):
        assert PREFERENTIAL_POSTULATES == (
            "REF",
            "LLE",
            "RW",
            "AND",
            "OR",
            "CUT",
            "CM",
        )
