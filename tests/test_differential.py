"""Each fast bitset path against the slow procedure it replaced (see oracles.py)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import random_order, random_ranking
from dfca import FormalContext, StrictOrder, bitsets
from dfca.errors import FileFormatError, ModularityError, StructureError
from dfca.fileio import parse_cxt
from dfca.order import order_from_ranks, ranks_from_order

seeds = st.integers(min_value=0, max_value=10**6)


def outcome(procedure, *args):
    """The result, or the type and text of the error, so both can be compared."""
    try:
        return "ok", procedure(*args)
    except Exception as exc:  # the error itself is under test
        return type(exc), str(exc)


def random_bits(rng, size):
    """A set over ``size`` indices: empty, full, sparse or dense."""
    density = rng.choice([0.0, 0.02, 0.5, 0.98, 1.0])
    return sum(1 << i for i in range(size) if rng.random() < density)


# --- bitsets ---------------------------------------------------------------


class TestBitsets:
    @given(seeds, st.integers(0, 3000))
    def test_iter_indices_matches_lowest_bit_walk(self, seed, size):
        bits = random_bits(random.Random(seed), size)
        assert list(bitsets.iter_indices(bits)) == list(oracles.iter_indices(bits))

    @given(st.integers(-(2**70), -1))
    def test_iter_indices_rejects_negative_ints(self, bits):
        assert outcome(bitsets.to_indices, bits) == outcome(
            list, oracles.iter_indices(bits)
        )
        with pytest.raises(StructureError):
            next(bitsets.iter_indices(bits))

    @given(st.lists(st.integers(-3, 70)), st.integers(-2, 70))
    def test_from_indices_matches_bit_by_bit_builder(self, indices, size):
        """Duplicates, size 0 and out-of-range indices included."""
        assert outcome(bitsets.from_indices, indices, size) == outcome(
            oracles.from_indices, indices, size
        )

    @given(st.lists(st.integers(0, 2999), unique=True), st.integers(0, 2999))
    def test_from_indices_over_a_large_universe(self, indices, extra):
        size = max(indices, default=0) + 1 + extra
        assert bitsets.from_indices(iter(indices), size) == oracles.from_indices(
            indices, size
        )


# --- contexts and .cxt rows ------------------------------------------------


def random_rows(rng, n, m):
    density = rng.choice([0.0, 0.1, 0.5, 1.0])
    return [
        sum(1 << j for j in range(m) if rng.random() < density) for _ in range(n)
    ]


class TestContextColumns:
    @given(seeds, st.integers(0, 2100), st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_columns_match_per_incidence_build(self, seed, n, m):
        """Object counts cross the transposition's 1024-row chunks."""
        rows = random_rows(random.Random(seed), n, m)
        context = FormalContext(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
        )
        assert tuple(context.column(j) for j in range(m)) == oracles.columns(rows, m)

    @pytest.mark.parametrize("n", [0, 1, 1024, 1025, 3000])
    def test_zero_attributes(self, n):
        context = FormalContext([f"g{i}" for i in range(n)], [], [0] * n)
        assert context.n_attributes == 0
        assert context.extent(0) == context.object_universe == bitsets.universe(n)

    @pytest.mark.parametrize("m", [0, 1, 40])
    def test_zero_objects(self, m):
        context = FormalContext([], [f"m{j}" for j in range(m)], [])
        assert [context.column(j) for j in range(m)] == [0] * m
        assert context.intent(0) == context.attribute_universe

    @given(seeds, st.lists(st.sampled_from(["a", "b", "c", "d", "zz"]), max_size=8))
    def test_name_sets_match_bit_by_bit_builder(self, seed, names):
        context = FormalContext(
            ["a", "b", "c", "d"], ["a", "b", "c"], random_rows(random.Random(seed), 4, 3)
        )
        for build, index, size in (
            (context.object_set, context.object_index, 4),
            (context.attribute_set, context.attribute_index, 3),
        ):
            expected = outcome(lambda: oracles.from_indices(map(index, names), size))
            assert outcome(build, names) == expected


def cxt_text(rows):
    m = max((len(row) for row in rows), default=0)
    return "\n".join(
        ["B", "", str(len(rows)), str(m), ""]
        + [f"g{i}" for i in range(len(rows))]
        + [f"m{j}" for j in range(m)]
        + rows
    ) + "\n"


def parse_cxt_oracle(rows):
    """parse_cxt with each row read by the per-cell oracle."""
    m = max((len(row) for row in rows), default=0)
    start = 5 + len(rows) + m
    parsed = [
        oracles.parse_cxt_row(row, "t.cxt", start + k + 1) for k, row in enumerate(rows)
    ]
    return tuple(parsed)


class TestCxtRows:
    @given(
        st.integers(0, 70).flatmap(
            lambda m: st.lists(st.text("X.", min_size=m, max_size=m), max_size=12)
        )
    )
    def test_rows_match_per_cell_parse(self, rows):
        context = parse_cxt(cxt_text(rows), "t.cxt")
        parsed = tuple(context.row(i) for i in range(context.n_objects))
        assert parsed == parse_cxt_oracle(rows)

    @given(
        st.integers(1, 12).flatmap(
            lambda m: st.lists(
                st.text("X.X.x _1é\t", min_size=m, max_size=m), min_size=1, max_size=6
            )
        )
    )
    def test_illegal_cells_give_the_same_error(self, rows):
        """The error names the first illegal cell of the first bad row, and its line."""
        assert outcome(
            lambda: tuple(
                parse_cxt(cxt_text(rows), "t.cxt").row(i) for i in range(len(rows))
            )
        ) == outcome(parse_cxt_oracle, rows)

    def test_first_illegal_cell_is_named(self):
        with pytest.raises(FileFormatError) as info:
            parse_cxt(cxt_text(["X.", "x_"]), "t.cxt")
        assert str(info.value) == "t.cxt:11: illegal cell 'x', expected 'X' or '.'"


# --- strict orders ---------------------------------------------------------


def order_rows(order):
    return (
        tuple(order.successors(i) for i in range(order.size)),
        tuple(order.predecessors(i) for i in range(order.size)),
    )


def random_pairs(rng, n):
    """Generating pairs over 0..n-1, acyclic or not, with duplicates and self-loops."""
    permutation = rng.sample(range(n), n)
    pairs = []
    for _ in range(rng.randint(0, 3 * n)):
        a, b = sorted(rng.sample(range(n), 2)) if n > 1 else (0, 0)
        pairs.append((permutation[a], permutation[b]))
    if pairs and rng.random() < 0.5:
        pairs.append(rng.choice(pairs))
    if n and rng.random() < 0.3:
        lower, upper = rng.randrange(n), rng.randrange(n)
        pairs.insert(rng.randint(0, len(pairs)), (lower, upper))
    return pairs


class TestOrderClosure:
    @given(seeds, st.integers(0, 40))
    @settings(max_examples=300)
    def test_closure_matches_fixed_point(self, seed, n):
        """Same rows, or the same cycle error naming the same smallest index."""
        pairs = random_pairs(random.Random(seed), n)
        assert outcome(lambda: order_rows(StrictOrder(n, pairs))) == outcome(
            oracles.closure, n, pairs
        )

    @given(seeds, st.integers(1, 12), st.integers(0, 5))
    def test_cycles_name_the_smallest_index_on_them(self, seed, n, extra):
        """A cycle through chosen elements, plus pairs into and out of it."""
        rng = random.Random(seed)
        ring = rng.sample(range(n), rng.randint(1, n))
        pairs = list(zip(ring, ring[1:] + ring[:1]))
        pairs += [(rng.randrange(n), rng.randrange(n)) for _ in range(extra)]
        rng.shuffle(pairs)
        expected = outcome(oracles.closure, n, pairs)
        assert expected[0] is StructureError
        assert outcome(StrictOrder, n, pairs) == expected

    @pytest.mark.parametrize(
        "n, pairs",
        [
            (0, []),
            (0, [(0, 0)]),
            (3, [(1, 1)]),
            (3, [(0, 3)]),
            (3, [(-1, 0)]),
            (3, [(0, 1), (1, 5), (2, 2)]),
            (3, [(2, 2), (0, 7)]),
            (4, [(0, 1), (0, 1), (1, 2), (1, 2)]),
            (4, [(3, 2), (2, 1), (1, 3), (0, 0)]),
            (-1, []),
        ],
    )
    def test_edge_cases_match(self, n, pairs):
        assert outcome(lambda: order_rows(StrictOrder(n, pairs))) == outcome(
            oracles.closure, n, pairs
        )

    @given(seeds, st.integers(0, 30))
    def test_minimise_matches_bit_by_bit_builder(self, seed, n):
        rng = random.Random(seed)
        order = random_order(rng, n)
        members = random_bits(rng, n)
        assert order.minimise(members) == oracles.minimise(order, members)


class TestRankings:
    @given(seeds, st.integers(0, 40))
    def test_strata_match_bit_by_bit_builder(self, seed, n):
        ranking = random_ranking(random.Random(seed), n)
        levels = range(-1, (ranking.max_rank if n else 0) + 2)
        assert [ranking.stratum(k) for k in levels] == [
            oracles.stratum(ranking.ranks, k) for k in levels
        ]
        assert ranking.strata() == tuple(
            oracles.stratum(ranking.ranks, k) for k in range(len(ranking.strata()))
        )
        assert sum(ranking.strata()) == bitsets.universe(n)

    @given(seeds, st.integers(0, 40))
    def test_order_from_ranks_matches_pairwise_build(self, seed, n):
        ranking = random_ranking(random.Random(seed), n)
        assert order_rows(order_from_ranks(ranking)) == oracles.order_from_ranks(
            ranking
        )

    @given(seeds, st.integers(0, 25))
    @settings(max_examples=200)
    def test_ranks_from_order_matches_iterated_minima(self, seed, n):
        """Modular orders give the same ranking; non-modular ones the same error."""
        rng = random.Random(seed)
        roll = rng.random()
        if roll < 0.4:
            order = order_from_ranks(random_ranking(rng, n))
        elif roll < 0.5:
            order = StrictOrder(n, [(i, i + 1) for i in range(n - 1)])
        else:
            order = random_order(rng, n)
        assert outcome(ranks_from_order, order) == outcome(
            oracles.ranks_from_order, order
        )

    @pytest.mark.parametrize(
        "n, pairs",
        [
            (0, []),
            (1, []),
            (3, []),
            (3, [(0, 1)]),  # 2 is incomparable to both but 0 and 1 differ
            (4, [(0, 2), (1, 3)]),  # two disjoint chains
            (4, [(0, 1), (0, 2), (0, 3), (1, 3), (2, 3)]),  # modular diamond
        ],
    )
    def test_edge_cases_match(self, n, pairs):
        order = StrictOrder(n, pairs)
        result = outcome(ranks_from_order, order)
        assert result == outcome(oracles.ranks_from_order, order)
        modular = result[0] == "ok"
        assert modular == order.is_modular()
        if not modular:
            assert result[0] is ModularityError
