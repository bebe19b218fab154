"""Each fast bitset path against the slow procedure it replaced (see oracles.py)."""

import csv
import functools
import io
import itertools
import json
import math
import os
import random
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    random_conditional,
    random_context,
    random_formula,
    random_order,
    random_ranked_context,
    random_ranking,
)
from dfca import (
    ClosureSession,
    FormalContext,
    KnowledgeBase,
    RankedContext,
    RankingFunction,
    StrictOrder,
    bitsets,
)
from dfca.cli import _dump_json, _rank_table
from dfca.errors import (
    BindingError,
    FileFormatError,
    ModularityError,
    StructureError,
    ValidityError,
)
from dfca.fileio import format_cxt, parse_csv_context, parse_cxt
from dfca.formula import (
    And,
    Atom,
    Bot,
    Conditional,
    Iff,
    Implies,
    Not,
    Or,
    PropConditional,
    Top,
    atom_names,
    evaluate,
    extension,
    format_prop_formula,
    parse_conditional,
)
from dfca.order import order_from_ranks, ranks_from_order
from dfca.propositional import (
    INFINITE_RANK,
    PreferentialInterpretation,
    RankedInterpretation,
    derive_preferential_context,
    derive_ranked_context,
    prop_entails,
    rc_decision,
)
from dfca.ranking import (
    context_preference,
    delta_valid,
    object_rank,
)

seeds = st.integers(min_value=0, max_value=10**6)


def outcome(procedure, *args):
    """The result, or the type and text of the error, so both can be compared."""
    try:
        return "ok", procedure(*args)
    except Exception as exc:  # the error itself is under test
        return type(exc), str(exc)


def random_bits(rng, size):
    """A set over ``size`` indices: empty, full, sparse or dense.

    0.02 is walked member by member, 0.1 and up as dense digits.
    """
    density = rng.choice([0.0, 0.02, 0.1, 0.5, 0.98, 1.0])
    return sum(1 << i for i in range(size) if rng.random() < density)


# --- bitsets ---------------------------------------------------------------


class TestBitsets:
    @given(seeds, st.integers(0, 3000))
    def test_iter_indices_matches_lowest_bit_walk(self, seed, size):
        bits = random_bits(random.Random(seed), size)
        assert list(bitsets.iter_indices(bits)) == list(oracles.iter_indices(bits))

    @given(seeds, st.integers(1, 4000), st.integers(-2, 2))
    def test_iter_indices_at_the_density_switch(self, seed, length, offset):
        """Sets of ``length`` bits with about one member per 16 bits.

        ``offset`` 0 puts the member count exactly at the switch to the
        dense walk, negative offsets just below it, positive just above.
        """
        rng = random.Random(seed)
        k = min(max(1, -(-length // 16) + offset), length)
        bits = 1 << length - 1
        for i in rng.sample(range(length - 1), k - 1):
            bits |= 1 << i
        assert bits.bit_length() == length and bits.bit_count() == k
        assert list(bitsets.iter_indices(bits)) == list(oracles.iter_indices(bits))

    @given(st.integers(-(2**70), -1))
    def test_iter_indices_rejects_negative_ints(self, bits):
        assert outcome(list, bitsets.iter_indices(bits)) == outcome(
            list, oracles.iter_indices(bits)
        )
        with pytest.raises(StructureError):
            next(bitsets.iter_indices(bits))

    @given(seeds, st.integers(0, 3000))
    def test_select_matches_member_index_walk(self, seed, size):
        """Empty, full, sparse and dense sets over a sequence of names."""
        bits = random_bits(random.Random(seed), size)
        names = tuple(f"g{i}" for i in range(size))
        assert tuple(bitsets.select(names, bits)) == oracles.select(names, bits)

    @pytest.mark.parametrize("size", [0, 1, 7, 8, 64, 1000])
    def test_select_at_the_ends(self, size):
        names = tuple(range(size))
        full = bitsets.universe(size)
        for bits in (0, full, full & 1, full >> 1, full & ~(full >> 1), full & 0x5555):
            assert tuple(bitsets.select(names, bits)) == oracles.select(names, bits)

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


def order_shape(rng, n):
    """A random order, a shuffled chain, an antichain, or the order a ranking
    induces (its layers are the ranking's strata, not the closure's)."""
    roll = rng.random()
    if roll < 0.4:
        return random_order(rng, n, density=rng.choice([0.05, 0.3, 0.9]))
    if roll < 0.55:
        chain = rng.sample(range(n), n)
        return StrictOrder(n, list(zip(chain, chain[1:])))
    if roll < 0.65:
        return StrictOrder(n)
    return order_from_ranks(random_ranking(rng, n))


def iterated_minima(order):
    """Minima of the whole universe, then of what remains, and so on."""
    remaining = bitsets.universe(order.size)
    strata = []
    while remaining:
        strata.append(oracles.minimise(order, remaining))
        remaining &= ~strata[-1]
    return strata


class TestLayeredMinimise:
    @given(seeds, st.integers(0, 30))
    @settings(max_examples=300)
    def test_layers_are_the_iterated_minima(self, seed, n):
        order = order_shape(random.Random(seed), n)
        assert list(order._layers) == iterated_minima(order)

    @given(seeds, st.integers(0, 30))
    @settings(max_examples=500)
    def test_matches_member_walk(self, seed, n):
        """Empty, full, random and out-of-range member sets: the same minimal
        members, or the same error type and text."""
        rng = random.Random(seed)
        order = order_shape(rng, n)
        full = bitsets.universe(n)
        for members in (
            0,
            full,
            random_bits(rng, n),
            random_bits(rng, n) | 1 << n + rng.randrange(3),
            -1 - rng.randrange(3),
        ):
            expected = outcome(oracles.member_minimise, order, members)
            assert outcome(order.minimise, members) == expected
            if expected[0] == "ok":
                assert expected[1] == oracles.minimise(order, members)


class TestRankings:
    @given(seeds, st.integers(0, 40))
    def test_strata_match_bit_by_bit_builder(self, seed, n):
        ranking = random_ranking(random.Random(seed), n)
        assert ranking.strata == tuple(
            oracles.stratum(ranking.ranks, k) for k in range(len(ranking.strata))
        )
        assert sum(ranking.strata) == bitsets.universe(n)

    @given(seeds, st.integers(0, 40))
    @example(0, 0)
    def test_strata_built_ranking_matches_ranks_built(self, seed, n):
        by_ranks = random_ranking(random.Random(seed), n)
        by_strata = RankingFunction._from_strata(by_ranks.strata, n)
        assert by_strata.ranks == by_ranks.ranks
        assert by_strata.strata == by_ranks.strata
        assert by_strata.size == n
        for i in range(-1, n + 1):
            assert outcome(by_strata.rank_of, i) == outcome(by_ranks.rank_of, i)
        assert by_strata == by_ranks
        assert hash(by_strata) == hash(by_ranks)
        assert repr(by_strata) == repr(by_ranks)

    @given(seeds, st.integers(1, 40))
    def test_bad_strata_are_refused(self, seed, n):
        """An empty stratum, two strata sharing a member, a member missing
        or one past the size."""
        rng = random.Random(seed)
        strata = list(random_ranking(rng, n).strata)
        k = rng.randrange(len(strata))
        roll = rng.random()
        if roll < 0.25:
            strata.insert(rng.randrange(len(strata) + 1), 0)
        elif roll < 0.5:
            strata.append(strata[k] & -strata[k])
        elif roll < 0.75:
            strata[k] &= strata[k] - 1
            strata = [stratum for stratum in strata if stratum]
        else:
            strata[k] |= 1 << n + rng.randrange(3)
        with pytest.raises(StructureError):
            RankingFunction._from_strata(strata, n)

    @given(seeds)
    @settings(max_examples=300)
    def test_object_rank_matches_the_rank_list(self, seed):
        """Up to 40 objects, so both member walks of the strata occur."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=40, max_attributes=4)
        kb = [
            random_conditional(rng, list(context.attributes))
            for _ in range(rng.randint(0, 5))
        ]
        result = outcome(object_rank, context, kb)
        expected = outcome(oracles.object_ranks, context, kb)
        if expected[0] != "ok":
            assert result == expected
            return
        ranked, ranking = result[1]
        assert ranked.ranking.ranks == tuple(expected[1])
        assert ranked.ranking == RankingFunction(expected[1])
        assert ranking is ranked.ranking

    @given(seeds, st.integers(0, 30))
    def test_context_preference_matches_pointwise_walk(self, seed, n):
        """Random rankings, often of different heights, and a ranking with itself."""
        rng = random.Random(seed)
        context = FormalContext([f"g{i}" for i in range(n)], [], [0] * n)
        first = RankedContext(context, random_ranking(rng, n))
        second = RankedContext(context, random_ranking(rng, n))
        for a, b in [(first, second), (second, first), (first, first)]:
            assert context_preference(a, b) == oracles.context_preference(a, b)

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

    @given(seeds, st.integers(0, 25))
    @settings(max_examples=300)
    def test_ranks_from_order_reads_the_layers_of_any_order(self, seed, n):
        """Orders a ranking induces, the same orders closed from their pairs,
        and those with one pair removed or one pair added (mostly non-modular)."""
        rng = random.Random(seed)
        order = order_shape(rng, n)
        pairs = order.pairs()
        roll = rng.random()
        if roll < 0.3:
            order = StrictOrder(n, pairs)
        elif roll < 0.5 and pairs:
            pairs.remove(rng.choice(pairs))
            order = StrictOrder(n, pairs)
        elif roll < 0.7 and n > 1:
            lower, upper = sorted(rng.sample(range(n), 2))
            extended = outcome(StrictOrder, n, pairs + [(lower, upper)])
            if extended[0] == "ok":
                order = extended[1]
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


# --- .cxt parsing and writing, whole files -----------------------------------


def context_view(context):
    """Everything a context answers, through its public API."""
    return (
        context.objects,
        context.attributes,
        tuple(context.row(i) for i in range(context.n_objects)),
        tuple(context.column(j) for j in range(context.n_attributes)),
        context.intent(context.object_universe),
        {name: context.object_index(name) for name in context.objects},
        {name: context.attribute_index(name) for name in context.attributes},
    )


def parse_outcome(parse, text):
    """The parsed context, or the error's text and line."""
    try:
        return "ok", context_view(parse(text, "t.cxt"))
    except FileFormatError as exc:
        return str(exc), exc.line


NAMES = ["g", "m", "a b", "Köln", " x ", "X", ".", "0", "1"]


def random_cxt_lines(rng):
    n, m = rng.randint(0, 5), rng.randint(0, 5)
    names = [rng.choice(NAMES) + str(k) for k in range(n + m)]
    if n + m and rng.random() < 0.2:
        names[rng.randrange(n + m)] = rng.choice(names)  # a duplicate
    rows = ["".join(rng.choice("X.") for _ in range(m)) for _ in range(n)]
    return ["B", "", str(n), str(m), ""] + names + rows


def mutate(rng, lines):
    """Text of the lines after zero, one or two random faults."""
    lines = list(lines)
    for _ in range(rng.choice([0, 1, 1, 2])):
        k = rng.randrange(len(lines) + 1)
        roll = rng.randrange(9)
        if roll == 0:
            del lines[k:]  # truncation
        elif roll == 1 and k < len(lines):
            lines[k] = ""  # empty name or row
        elif roll == 2 and k < len(lines):
            lines[k] = lines[k][:-1]  # short
        elif roll == 3 and k < len(lines):
            lines[k] += rng.choice("X.")  # long
        elif roll == 4 and k < len(lines):
            cell = rng.choice("x_?1é\t ")
            p = rng.randint(0, len(lines[k]))
            lines[k] = lines[k][:p] + cell + lines[k][p + 1:]  # illegal cell
        elif roll == 5:
            lines.insert(k, rng.choice(["", "X.", "junk"]))  # extra line
        elif roll == 6 and k < len(lines):
            del lines[k]
        elif roll == 7 and 2 <= k < 4 and k < len(lines):
            lines[k] = rng.choice(["-1", "x", "10", " 2"])  # bad count
        elif roll == 8:
            lines.append(rng.choice(["", "trailing"]))
    text = "\n".join(lines)
    roll = rng.random()
    if roll < 0.6:
        text += "\n"
    elif roll < 0.7:
        text += "\r\n"
    if rng.random() < 0.2:
        text = text.replace("\n", "\r\n")
    elif rng.random() < 0.1:
        text = text.replace("\n", "\r\n", rng.randint(1, 6))
    return text


class TestCxtFiles:
    @given(seeds)
    @example(seed=28196)  # a truncation, then a bad count past the last line
    @settings(max_examples=1000)
    def test_malformed_text_matches_line_walk(self, seed):
        """The same context, or the same error text and line."""
        rng = random.Random(seed)
        text = mutate(rng, random_cxt_lines(rng))
        assert parse_outcome(parse_cxt, text) == parse_outcome(oracles.parse_cxt, text)

    @pytest.mark.parametrize("n, m", [(2, 3), (0, 2), (2, 0), (0, 0)])
    def test_every_truncation_matches_line_walk(self, n, m):
        """Cut at every character: inside the header, a name or a row."""
        context = FormalContext(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], [m // 2] * n
        )
        text = format_cxt(context)
        for end in range(len(text) + 1):
            cut = text[:end]
            assert parse_outcome(parse_cxt, cut) == parse_outcome(oracles.parse_cxt, cut)

    @pytest.mark.parametrize(
        "text",
        [
            "B\n\n2\n1\n\n\ng2\nm\nX\n",  # an empty name before a truncation
            "B\n\n2\n1\n\ng1\n\nm\nX\n",  # an empty name, then the file ends
            "B\n\n1\n2\n\ng\nm1\n\nXX\n",  # an empty attribute name
            "B\n\n1\n2\n\ng\na\nb\nX\n",  # short row
            "B\n\n1\n2\n\ng\na\nb\nXXX\n",  # long row
            "B\n\n2\n2\n\ng\nh\na\nb\nX?\nX\n",  # illegal cell before a short row
            "B\n\n1\n2\n\ng\na\nb\nXX\n\n",  # trailing blank line
            "B\n\n1\n1\n\ng\nm\nX.\r\n",  # CRLF on a long last row
            "B\r\n\r\n1\r\n1\r\n\r\ng\r\nm\r\nX\r",  # a stray CR in a row
            "B\n\n2\n1\n\ng\ng\nm\n.\nX\n",  # duplicate object names
            "B\n\n99999999999\n1\n\ng\n",  # a count far past the file
            "B\n\n99999999999999999999\n1\n\ng\n",  # a count past sys.maxsize
            "B\n\n2\n0\n\ng\nh\n\n",  # no attributes and no final newline: a row short
            "B\n\n1\n0\n\ng\n",  # no attributes, the only row missing
            "B\n\n2\n2\n\ng\nh\na\nb\nX.\n×.\n",  # a non-ASCII cell
            "B\n\n2\n2\n\ng\nh\na\nb\nX.\n\nX\n",  # a line break inside the rows' span
            "B\n\n2\n2\n\ng\nh\na\nb\nX.\nX.X\n",  # rows run into each other
            "B\n\n2\n2\n\ng\nh\na\nb\nX.\n.X\r",  # a stray CR in the last row
        ],
    )
    def test_fault_order_matches_line_walk(self, text):
        assert parse_outcome(parse_cxt, text) == parse_outcome(oracles.parse_cxt, text)
        assert parse_outcome(parse_cxt, text)[0] != "ok"

    @pytest.mark.parametrize(
        "text",
        [
            "B\n\n2\n2\n\ng\nh\na\nb\nX.\n.X",  # no final newline
            "B\r\n\r\n2\r\n2\r\n\r\ng\r\nh\r\na\r\nb\r\nX.\r\n.X\r\n",  # CRLF
            "B\n\n2\n0\n\ng\nh\n\n\n",  # no attributes
            "B\n\n0\n2\n\na\nb\n",  # no objects
            "B\n\n0\n2\n\na\nb",  # no objects, no final newline
            "B\n\n0\n0\n\n",
            "B\n\n2\n1\n\nKöln\n北京\ngrößer\nX\n.\n",  # non-ASCII names
        ],
    )
    def test_edges_of_the_format_match_line_walk(self, text):
        assert parse_outcome(parse_cxt, text) == parse_outcome(oracles.parse_cxt, text)
        assert parse_outcome(parse_cxt, text)[0] == "ok"

    def test_a_repeated_object_name_reports_the_first_repeat(self):
        text = "B\n\n4\n1\n\ng\nh\nh\ng\nm\nX\n.\nX\n.\n"
        outcome = parse_outcome(parse_cxt, text)
        assert outcome == parse_outcome(oracles.parse_cxt, text)
        assert outcome == ("t.cxt: duplicate object name 'h'", None)

    @given(seeds, st.integers(0, 2100), st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_columns_cut_from_the_cells_match(self, seed, n, m):
        """Parse and write back, at sizes crossing the 1024-row chunks."""
        rows = random_rows(random.Random(seed), n, m)
        context = FormalContext(
            [f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows
        )
        text = oracles.format_cxt(context)
        assert format_cxt(context) == text
        assert context_view(parse_cxt(text)) == context_view(context)


# --- .csv parsing, whole files -----------------------------------------------------


CSV_NAMES = ["g", "m", "a b", "Köln", " x ", "1", "x", "0", "c,d", 'q"t']
CSV_CELLS = ["1", "0", "x", "X", "", " 1", "0 ", " X\t", " "]
CSV_ILLEGAL = ["2", "y", "xx", "-", "1 1", "10", "\t0\t0"]


def random_csv_records(rng):
    """A header and up to 5 records."""
    n, m = rng.randint(0, 5), rng.randint(0, 4)
    header = [rng.choice(["name", "", " "])]
    header += [rng.choice(CSV_NAMES) + str(j) for j in range(m)]
    objects = [rng.choice(CSV_NAMES) + str(i) for i in range(n)]
    if n and rng.random() < 0.15:
        objects[rng.randrange(n)] = rng.choice(objects)  # a duplicate
    return [header] + [[g] + rng.choices(CSV_CELLS, k=m) for g in objects]


def mutate_csv(rng, records):
    """CSV text of the records after zero, one or two random faults."""
    records = [list(record) for record in records]
    for _ in range(rng.choice([0, 1, 1, 2])):
        if not records:
            break
        k = rng.randrange(len(records))
        record = records[k]
        roll = rng.randrange(8)
        if roll == 0 and record:
            record[rng.randrange(len(record))] = ""  # an empty name or cell
        elif roll == 1 and record:
            record[0] = ""  # an empty name
        elif roll == 2 and record:
            del record[rng.randrange(len(record))]  # short
        elif roll == 3:
            record.append(rng.choice(CSV_CELLS))  # long
        elif roll == 4 and len(record) > 1:
            record[rng.randrange(1, len(record))] = rng.choice(CSV_ILLEGAL)
        elif roll == 5:
            records.insert(k, [])  # a blank line
        elif roll == 6:
            del records[k:]  # truncation, maybe to an empty file
        elif roll == 7 and record and len(records) > 2:
            other = records[rng.randrange(1, len(records))]
            record[0] = other[0] if other else record[0]  # a duplicate name
    out = io.StringIO()
    csv.writer(out, lineterminator=rng.choice(["\n", "\r\n"])).writerows(records)
    text = out.getvalue()
    if rng.random() < 0.1:
        cut = rng.randint(0, len(text))
        # a lone CR outside quotes is a csv.Error for the oracle (the
        # parser's FileFormatError for it is tested in test_fileio.py)
        text = text[:cut].rstrip("\r")
    return text


def csv_outcome(parse, text):
    """The parsed context, or the error's text and line."""
    try:
        return "ok", context_view(parse(text, "t.csv"))
    except FileFormatError as exc:
        return str(exc), exc.line


def csv_expected(text):
    """The earlier parser's outcome, under the rule that no name is empty.

    An empty attribute name is the first fault. An empty object name in a
    record of the right length comes before a fault in that record's cells
    and before any fault in a later record or among the names as a whole.
    """
    table = list(csv.reader(io.StringIO(text)))
    if table and "" in table[0][1:]:
        return "t.csv:1: empty attribute name", 1
    width = len(table[0][1:]) + 1 if table else 1
    empty = next(
        (
            line
            for line, record in enumerate(table[1:], start=2)
            if len(record) == width and record[0] == ""
        ),
        None,
    )
    result = csv_outcome(oracles.parse_csv_context, text)
    if empty is not None and (
        result[0] == "ok" or result[1] is None or empty <= result[1]
    ):
        return f"t.csv:{empty}: empty object name", empty
    return result


class TestCsvFiles:
    @given(seeds)
    @settings(max_examples=1000)
    def test_malformed_text_matches_cell_walk(self, seed):
        """The same context, or the same error text and line."""
        rng = random.Random(seed)
        text = mutate_csv(rng, random_csv_records(rng))
        assert csv_outcome(parse_csv_context, text) == csv_expected(text)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "\n",
            "name\n",
            "name\ng\n\n",
            ",a,b\n",  # no objects
            "name,a\ng,1\ng,0\n",  # duplicate object names
            "name,a,a\ng,1,0\n",  # duplicate attribute names
            "name,a\ng,2\nh,1,1\n",  # illegal cell before a long row
            "name,a\ng,1,1\nh,2\n",  # long row before an illegal cell
            "name,a\n\n\ng,1\n,1\n",  # blank records still count as lines
            'name,a\ng,"1\n"\n,1\n',  # a quoted newline in a cell is one record
            "name,a\ng,1\n,2\n",  # empty name before an illegal cell in its record
            "name,a,b\ng,1,x\nh,X,\n\nk,0,\n",
            ",a\ng,1",  # no final newline, an empty leading cell
            "name,a\ng, 1\n",  # a padded cell
            'name,"a"\ng,1\n',  # quotes
            "name,a\r\ng,1\r\n",
            "name,a\ng,2\n",
            "name\ng\n",  # no attributes
            "name,a\n",  # no objects
            "name,a\n,1,1\nh,1\n",  # a long row with an empty name
            "name,,a\ng,2,1\n",  # empty attribute name before anything else
        ],
    )
    def test_fault_order_matches_cell_walk(self, text):
        assert csv_outcome(parse_csv_context, text) == csv_expected(text)

    @given(seeds, st.integers(0, 2100), st.integers(0, 70))
    @settings(max_examples=40, deadline=None)
    def test_columns_cut_from_the_cells_match(self, seed, n, m):
        """Every legal cell spelling, at sizes crossing 1024 rows."""
        rng = random.Random(seed)
        records = [["name"] + [f"m{j}" for j in range(m)]] + [
            [f"g{i}"] + rng.choices(CSV_CELLS, k=m) for i in range(n)
        ]
        out = io.StringIO()
        csv.writer(out).writerows(records)
        text = out.getvalue()
        assert csv_outcome(parse_csv_context, text) == csv_outcome(
            oracles.parse_csv_context, text
        )


# --- context construction checks ------------------------------------------------


def built(objects, attributes, rows):
    context = FormalContext(objects, attributes, rows)
    view = context_view(context)
    return view[5], view[6], view[2]


class TestContextChecks:
    ROWS = st.one_of(
        st.integers(-3, 20), st.booleans(), st.sampled_from([1.0, None, "1", 2**70])
    )

    @given(st.data())
    def test_matches_per_item_checks(self, data):
        """Same indexes and rows, or the same error text for the same offender."""
        unique = data.draw(st.booleans())
        objects = data.draw(
            st.lists(
                st.sampled_from(["a", "b", "c", 1, 1.0, True, ("t",)]),
                max_size=5,
                unique=unique,
            )
        )
        attributes = data.draw(
            st.lists(st.sampled_from(["a", "b", "x", 0, False]), max_size=4, unique=unique)
        )
        if data.draw(st.booleans()):
            rows = data.draw(st.lists(self.ROWS, max_size=6))
        else:
            # as many rows as objects, each up to one past the attribute universe
            top = (1 << len(attributes)) + 1
            rows = data.draw(
                st.lists(
                    st.one_of(st.integers(-1, top), self.ROWS),
                    min_size=len(objects),
                    max_size=len(objects),
                )
            )
        assert outcome(built, objects, attributes, rows) == outcome(
            oracles.context_checks, objects, attributes, rows
        )

    @pytest.mark.parametrize(
        "objects, attributes, rows",
        [
            (["a", "a", []], ["m"], [0, 0, 0]),  # a repeat before an unhashable name
            (["a", [], "a"], ["m"], [0, 0, 0]),  # an unhashable name first
            (["a", "b"], ["m", "m"], [0, 5]),  # both a duplicate attribute and a bad row
            (["a", "b", "c"], ["m"], [1, -1, 2]),
            (["a", "b"], ["m"], [1, 2]),  # one past the universe
            (["a"], [], [1]),
            (["a", "b"], ["m"], [True, False]),  # bools are ints and fit
            (["a"], [], [0]),
            ([], [], []),
        ],
    )
    def test_edge_cases_match(self, objects, attributes, rows):
        assert outcome(built, objects, attributes, rows) == outcome(
            oracles.context_checks, objects, attributes, rows
        )


# --- ranking checks read off the strata -------------------------------------------


class TestLeastStratum:
    @given(seeds)
    @settings(max_examples=300)
    def test_matches_member_walk_and_satisfaction(self, seed):
        """Any convex ranking, so violated conditionals occur too."""
        rng = random.Random(seed)
        ranked = random_ranked_context(rng, max_objects=8)
        context = ranked.context
        names = list(context.attributes)
        for _ in range(4):
            c = random_conditional(rng, names)
            ant = extension(context, c.antecedent)
            level, least = ranked.ranking.least(ant)
            assert level == oracles.antecedent_rank(ranked, ant)
            assert least == ranked.minimise_objects(ant)
            mat = extension(context, c.material())
            assert (least & ~mat == 0) == ranked.satisfies(c)

    @given(seeds, st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_minimise_matches_member_walk_on_large_antecedents(self, seed, n):
        """Empty, sparse, dense and full antecedents, and out-of-range sets."""
        rng = random.Random(seed)
        context = FormalContext([f"g{i}" for i in range(n)], [], [0] * n)
        ranked = RankedContext(context, random_ranking(rng, n))
        for members in [random_bits(rng, n) for _ in range(4)] + [
            bitsets.universe(n),
            bitsets.universe(n + 1),
            -1,
        ]:
            assert outcome(ranked.minimise_objects, members) == outcome(
                oracles.ranked_minimise, ranked, members
            )

    @given(seeds)
    @settings(max_examples=200)
    def test_object_rank_result_passes_the_satisfaction_check(self, seed):
        rng = random.Random(seed)
        context = random_context(rng, max_objects=6, max_attributes=4)
        kb = [
            random_conditional(rng, list(context.attributes))
            for _ in range(rng.randint(0, 4))
        ]
        try:
            ranked, ranking = object_rank(context, kb)
        except ValidityError:
            return
        assert ranking is ranked.ranking
        oracles.closing_check(ranked, KnowledgeBase(kb))


# --- validity decided by the ranking loop ------------------------------------------


class TestDeltaValid:
    @given(seeds)
    @settings(max_examples=500)
    def test_matches_subset_walk(self, seed):
        """Unwitnessed antecedents and duplicates included; 0-7 objects."""
        rng = random.Random(seed)
        context = random_context(rng, max_objects=7, max_attributes=4)
        names = list(context.attributes)
        kb = []
        for _ in range(rng.randint(0, 6)):
            roll = rng.random()
            if roll < 0.1 and kb:
                kb.append(rng.choice(kb))  # a duplicate
            elif roll < 0.2:
                never = And(Atom(names[0]), Not(Atom(names[0])))
                kb.append(Conditional.defeasible(never, random_formula(rng, names, 1)))
            else:
                kb.append(random_conditional(rng, names))
        valid = oracles.delta_valid(context, kb)
        assert delta_valid(context, kb) == valid
        try:
            object_rank(context, kb)
        except ValidityError:
            assert not valid
        else:
            assert valid


# --- ranked interpretations: the least antecedent states ----------------------------


def minterm(valuation, atoms):
    """The formula true exactly under the valuation."""
    literals = [Atom(a) if valuation[a] else Not(Atom(a)) for a in atoms]
    formula = literals[0]
    for literal in literals[1:]:
        formula = And(formula, literal)
    return formula


def covering(states, valuations, atoms):
    """The formula true exactly at the given states (their valuations differ)."""
    formula = Bot()
    for i in states:
        formula = Or(formula, minterm(valuations[i], atoms))
    return formula


class TestRankedInterpretation:
    ATOMS = ("a", "b", "c")

    @given(seeds)
    @settings(max_examples=500)
    def test_matches_member_walk(self, seed):
        """Empty antecedents, antecedents of infinite-rank states only, and
        models with no finite state among the cases."""
        rng = random.Random(seed)
        atoms = self.ATOMS
        n = rng.randint(0, 8)
        # distinct valuations, so a set of states is the extension of a formula
        valuations = [
            dict(zip(atoms, map(bool, bits)))
            for bits in rng.sample(list(itertools.product((0, 1), repeat=3)), n)
        ]
        infinite_share = rng.choice([0.0, 0.3, 1.0])
        infinite = [i for i in range(n) if rng.random() < infinite_share]
        finite = [i for i in range(n) if i not in infinite]
        ranks = [INFINITE_RANK] * n
        for i, r in zip(finite, random_ranking(rng, len(finite)).ranks):
            ranks[i] = r
        model = RankedInterpretation(atoms, range(n), valuations, ranks)
        names = list(atoms)
        for _ in range(6):
            roll = rng.random()
            if roll < 0.15:
                antecedent = And(Atom("a"), Not(Atom("a")))
            elif roll < 0.4:
                picked = [i for i in infinite if rng.random() < 0.6]
                antecedent = covering(picked, valuations, atoms)
            elif roll < 0.7:
                picked = [i for i in range(n) if rng.random() < 0.4]
                antecedent = covering(picked, valuations, atoms)
            else:
                antecedent = random_formula(rng, names, 2)
            if rng.random() < 0.5:
                picked = [i for i in range(n) if rng.random() < 0.5]
                consequent = covering(picked, valuations, atoms)
            else:
                consequent = random_formula(rng, names, 2)
            query = PropConditional.defeasible(antecedent, consequent)
            assert model.satisfies(query) == oracles.interpretation_satisfies(
                model, query
            )

    def test_empty_antecedent_reads_no_consequent(self):
        """An unknown consequent atom goes unread when no state meets the antecedent."""
        model = RankedInterpretation(("a",), (0,), ({"a": True},), (INFINITE_RANK,))
        query = PropConditional.defeasible(Not(Atom("a")), Atom("zzz"))
        assert model.satisfies(query) == oracles.interpretation_satisfies(model, query)


class TestPreferentialInterpretation:
    ATOMS = ("a", "b", "c")

    @given(seeds)
    @settings(max_examples=500)
    def test_matches_member_walk(self, seed):
        """A state is among the least antecedent states when no antecedent
        state precedes it; all of those must meet the consequent."""
        rng = random.Random(seed)
        atoms = self.ATOMS
        n = rng.randint(0, 8)
        # distinct valuations, so a set of states is the extension of a formula
        valuations = [
            dict(zip(atoms, map(bool, bits)))
            for bits in rng.sample(list(itertools.product((0, 1), repeat=3)), n)
        ]
        order = order_shape(rng, n)
        model = PreferentialInterpretation(atoms, range(n), valuations, order)
        for _ in range(6):
            picked = [i for i in range(n) if rng.random() < rng.choice([0.0, 0.5, 1.0])]
            antecedent = covering(picked, valuations, atoms)
            if rng.random() < 0.5:
                kept = [i for i in range(n) if rng.random() < 0.7]
                consequent = covering(kept, valuations, atoms)
            else:
                consequent = random_formula(rng, list(atoms), 2)
            satisfying = model.state_bits(consequent)
            least = [
                i
                for i in picked
                if not any(order.precedes(j, i) for j in picked)
            ]
            expected = all(satisfying >> i & 1 for i in least)
            query = PropConditional.defeasible(antecedent, consequent)
            assert model.satisfies(query) == expected


# --- interpretations held as contexts ------------------------------------------------


def random_interpretation_parts(rng):
    """0-4 atoms and 0-9 states: repeated valuations, int or str labels, and
    truth values that are bools, the ints 0 and 1, or other objects read by
    their truth."""
    atoms = tuple(f"p{j}" for j in range(rng.randint(0, 4)))
    n = rng.choice([0, rng.randint(1, 9)])
    labels = tuple(range(n)) if rng.random() < 0.5 else tuple(f"s{i}" for i in range(n))
    values = rng.choice([(False, True), (0, 1), (None, 2, "", "yes", 0.0)])
    pool = [{a: rng.choice(values) for a in atoms} for _ in range(rng.randint(1, 3))]
    return atoms, labels, [dict(rng.choice(pool)) for _ in range(n)]


def random_rank_vector(rng, n):
    """All finite, all infinite or mixed; the finite ranks are convex."""
    infinite = [rng.random() < rng.choice([0.0, 0.4, 1.0]) for _ in range(n)]
    finite = iter(random_ranking(rng, n - sum(infinite)).ranks)
    return [INFINITE_RANK if inf else next(finite) for inf in infinite]


def random_prop_formula(rng, atoms, depth):
    """Every connective, TOP and BOT; the atoms may be none."""
    if depth == 0 or rng.random() < 0.3:
        return rng.choice([Top(), Bot(), *map(Atom, atoms)])
    kind = rng.choice([Not, And, Or, Implies, Iff])
    if kind is Not:
        return Not(random_prop_formula(rng, atoms, depth - 1))
    return kind(
        random_prop_formula(rng, atoms, depth - 1),
        random_prop_formula(rng, atoms, depth - 1),
    )


def ranked_pair(rng):
    """The same random ranked interpretation, as held now and by the oracle."""
    atoms, labels, valuations = random_interpretation_parts(rng)
    ranks = random_rank_vector(rng, len(labels))
    return (
        RankedInterpretation(atoms, labels, valuations, ranks),
        oracles.RankedInterpretation(atoms, labels, valuations, ranks),
    )


def trimmed(strata):
    """The strata without trailing empty ones."""
    strata = list(strata)
    while strata and not strata[-1]:
        strata.pop()
    return strata


MALFORMED_VALUATIONS = ({"p": True}, {"p": False})


class TestInterpretationContext:
    @given(seeds)
    @settings(max_examples=500)
    def test_state_bits_match_column_sum(self, seed):
        rng = random.Random(seed)
        model, oracle = ranked_pair(rng)
        assert (model.atoms, model.states) == (oracle.atoms, oracle.states)
        for _ in range(5):
            formula = random_prop_formula(rng, model.atoms, 3)
            assert model.state_bits(formula) == oracle.state_bits(formula)
        if model.states:
            # an undeclared atom is named after the formula's left part is read
            unknown = And(random_prop_formula(rng, model.atoms, 2), Atom("zz"))
            assert outcome(model.state_bits, unknown) == outcome(
                oracle.state_bits, unknown
            )

    @given(seeds)
    @settings(max_examples=500)
    def test_strata_and_satisfaction_match(self, seed):
        """The oracle ends on an empty infinite-rank stratum when no state has
        infinite rank; it holds no member, so it is trimmed before comparing."""
        rng = random.Random(seed)
        model, oracle = ranked_pair(rng)
        assert trimmed(model._ranking.strata) == trimmed(oracle._strata)
        for _ in range(6):
            query = PropConditional.defeasible(
                random_prop_formula(rng, model.atoms, 2),
                random_prop_formula(rng, model.atoms, 2),
            )
            assert model.satisfies(query) == oracle.satisfies(query)

    @given(seeds)
    @settings(max_examples=300)
    def test_derived_contexts_match_per_cell_build(self, seed):
        """Including labels 1 and "1", which collide once written out."""
        rng = random.Random(seed)
        atoms, labels, valuations = random_interpretation_parts(rng)
        if len(labels) >= 2 and rng.random() < 0.2:
            labels = (1, "1") + labels[2:]
        ranks = random_ranking(rng, len(labels)).ranks
        order = random_order(rng, len(labels))
        ranked = outcome(
            derive_ranked_context,
            RankedInterpretation(atoms, labels, valuations, ranks),
        )
        preferential = outcome(
            derive_preferential_context,
            PreferentialInterpretation(atoms, labels, valuations, order),
        )
        expected = outcome(
            oracles.derived_parts,
            oracles.RankedInterpretation(atoms, labels, valuations, ranks),
        )
        if expected[0] != "ok":
            assert ranked == preferential == expected
            return
        context = expected[1]
        assert ranked[1].context == preferential[1].context == context
        assert context_view(ranked[1].context) == context_view(context)
        assert ranked[1].ranking.ranks == ranks
        assert preferential[1].order == order

    @pytest.mark.parametrize(
        "kind, args",
        [
            ("ranked", (("p", "p"), ("a",), ({"p": True},), (0,))),
            ("ranked", (("p",), ("a", "a"), MALFORMED_VALUATIONS, (0, 0))),
            ("ranked", (("p",), ("a", "b"), ({"p": True},), (0, 0))),
            ("ranked", (("p",), ("a", "b"), ({"p": True}, {"q": True}), (0, 0))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (0,))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (0, 2))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (1, 1))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (0, -1))),
            ("preferential", (("p",), ("a", "b"), MALFORMED_VALUATIONS, StrictOrder(3))),
            # beyond the unit test: odd ranks and unhashable names
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (0, "x"))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (0, 0.5))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (math.nan, 0))),
            ("ranked", (("p",), ("a", "b"), MALFORMED_VALUATIONS, (INFINITE_RANK, 1))),
            ("ranked", (("p",), (["a"],), ({"p": True},), (0,))),
            ("ranked", ((["p"],), ("a",), ({"p": True},), (0,))),
        ],
    )
    def test_malformed_input_raises_the_same_type(self, kind, args):
        build = {
            "ranked": (RankedInterpretation, oracles.RankedInterpretation),
            "preferential": (
                PreferentialInterpretation,
                oracles.PreferentialInterpretation,
            ),
        }[kind]
        now, before = (outcome(cls, *args)[0] for cls in build)
        assert now == before
        assert now in (StructureError, TypeError)


# --- the CLI's rank table -----------------------------------------------------------


class TestInterpretationClasses:
    """A ranked interpretation and a preferential one over the order its
    ranks induce, the infinite-rank states one rank above the finite ones,
    answer alike."""

    @staticmethod
    def twins(rng):
        atoms, labels, valuations = random_interpretation_parts(rng)
        ranks = random_rank_vector(rng, len(labels))
        top = max((r for r in ranks if r != INFINITE_RANK), default=-1)
        finite = [top + 1 if r == INFINITE_RANK else r for r in ranks]
        order = order_from_ranks(RankingFunction(finite))
        return (
            RankedInterpretation(atoms, labels, valuations, ranks),
            PreferentialInterpretation(atoms, labels, valuations, order),
        )

    @given(seeds)
    @settings(max_examples=500)
    def test_both_satisfy_the_same_conditionals(self, seed):
        rng = random.Random(seed)
        ranked, preferential = self.twins(rng)
        for _ in range(8):
            query = PropConditional.defeasible(
                random_prop_formula(rng, ranked.atoms, 2),
                random_prop_formula(rng, ranked.atoms, 2),
            )
            assert ranked.satisfies(query) == preferential.satisfies(query)

    @given(seeds)
    @settings(max_examples=200)
    def test_both_refuse_an_unknown_antecedent_atom(self, seed):
        rng = random.Random(seed)
        ranked, preferential = self.twins(rng)
        bare = PropConditional.defeasible(Atom("zz"), Top())
        for model in (ranked, preferential):
            with pytest.raises(BindingError, match="valuation has no atom 'zz'"):
                model.satisfies(bare)
        query = PropConditional.defeasible(
            Or(random_prop_formula(rng, ranked.atoms, 2), Atom("zz")),
            random_prop_formula(rng, ranked.atoms, 2),
        )
        assert outcome(ranked.satisfies, query) == outcome(
            preferential.satisfies, query
        )

    @given(seeds)
    @settings(max_examples=200)
    def test_an_empty_antecedent_reads_no_consequent(self, seed):
        """No state is typical, so the unknown consequent atom goes unread."""
        rng = random.Random(seed)
        ranked, preferential = self.twins(rng)
        formula = random_prop_formula(rng, ranked.atoms, 2)
        for antecedent in (Bot(), And(formula, Not(formula))):
            query = PropConditional.defeasible(antecedent, Atom("zzz"))
            assert ranked.satisfies(query) is True
            assert preferential.satisfies(query) is True



class TestRankTable:
    @given(seeds)
    @settings(max_examples=300)
    def test_matches_cell_by_cell_padding(self, seed):
        """Empty, wide and non-ASCII names; columns that no shown object has."""
        rng = random.Random(seed)
        n, m = rng.randint(0, 7), rng.choice([0, 1, 3, 8, 9, 17])
        pool = ["", "a", "Wind", "fw. alice", "Köln", " pad ", "a-much-longer-name"]
        objects = [rng.choice(pool) + str(i) for i in range(n)]
        if n and rng.random() < 0.3:
            objects[rng.randrange(n)] = "x \t"
        attributes = [rng.choice(pool) + "#" * (j + 1) for j in range(m)]
        if m and rng.random() < 0.5:
            attributes[rng.randrange(m)] = ""
        density = rng.choice([0.0, 0.3, 1.0])
        rows = [
            sum(1 << j for j in range(m) if rng.random() < density) for _ in range(n)
        ]
        context = FormalContext(objects, attributes, rows)
        ranking = random_ranking(rng, n)
        strata = list(ranking.strata)
        if rng.random() < 0.3:
            strata.insert(rng.randint(0, len(strata)), 0)  # an empty stratum
        if n and rng.random() < 0.3:
            strata[-1] &= ~1  # an object left out of the table
        assert _rank_table(context, strata) == oracles.rank_table(context, strata)


# --- the CLI's JSON writer ----------------------------------------------------------


# any text (control characters and non-ASCII letters included) in nested
# lists and dicts, and lists of text alone, as the CLI's name lists are
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda children: st.lists(children, max_size=4)
    | st.lists(st.text(), max_size=4)
    | st.dictionaries(st.text(), children, max_size=4),
    max_leaves=20,
)


class TestJsonWriter:
    @given(json_values)
    @settings(max_examples=200, deadline=None)
    def test_matches_the_json_module(self, value):
        assert _dump_json(value) == json.dumps(value, ensure_ascii=False, indent=2)

    @pytest.mark.parametrize(
        "value",
        [
            {},
            [],
            {"": []},
            [[], {}, [[]], ""],
            {"objects": ["a\nb", "Köln", '"q"', "\\"], "count": 4, "holds": None},
            {"strata": [{"rank": 0, "objects": []}, {"rank": 1, "objects": ["x"]}]},
            [True, False, None, -1, 2**70],
            ['"', "\\", "/", "\b\f\n\r\t", "\x00\x1f\x7f", "\u2028é€😀", "\ud800"],
            {"\n": {"\x00": ["\t"]}, "é": "\udfff"},
        ],
    )
    def test_edges_match_the_json_module(self, value):
        assert _dump_json(value) == json.dumps(value, ensure_ascii=False, indent=2)


# --- strict orders: modularity ------------------------------------------------------


class TestIsModular:
    @given(seeds, st.integers(0, 25))
    @settings(max_examples=300)
    def test_matches_pairwise_check(self, seed, n):
        rng = random.Random(seed)
        roll = rng.random()
        if roll < 0.4:
            order = order_from_ranks(random_ranking(rng, n))
        elif roll < 0.5:
            order = StrictOrder(n, [(i, i + 1) for i in range(n - 1)])
        elif roll < 0.7 and n:
            # a modular order with one pair added or one element moved
            ranking = random_ranking(rng, n)
            pairs = order_from_ranks(ranking).pairs()
            if pairs and rng.random() < 0.5:
                pairs.remove(rng.choice(pairs))
            order = StrictOrder(n, pairs)
        else:
            order = random_order(rng, n, density=rng.choice([0.05, 0.3, 0.9]))
        assert order.is_modular() == oracles.is_modular(order)


# --- propositional rational closure: the rounds up to the query's rank --------------


def random_literal(rng, atoms):
    atom = Atom(rng.choice(atoms))
    return Not(atom) if rng.random() < 0.4 else atom


def random_rc_base(rng):
    """A base over 3-6 atoms, and queries over its atoms and one it never mentions.

    The base mixes an exception chain (each link's premise an exception to
    the link before), random defeasible statements, classical assertions,
    a pair of statements exceptional forever and statements whose
    antecedent is impossible. The queries include the chain's links, so
    their antecedents reach the chain's upper ranks, and impossible
    antecedents.
    """
    atoms = [f"p{i}" for i in range(rng.randint(3, 6))]
    chain = [Atom(name) for name in rng.sample(atoms, rng.randint(2, len(atoms)))]
    base = []
    for low, high in zip(chain, chain[1:]):
        base += [
            PropConditional.defeasible(low, high),
            PropConditional.defeasible(high, Not(low)),
        ]
    for _ in range(rng.randint(0, 3)):
        base.append(
            PropConditional.defeasible(
                random_prop_formula(rng, atoms, 1), random_literal(rng, atoms)
            )
        )
    if rng.random() < 0.3:
        base.append(PropConditional.assertion(random_prop_formula(rng, atoms, 2)))
    if rng.random() < 0.3:
        a, b = rng.sample(atoms, 2)
        base += [
            PropConditional.defeasible(Atom(a), Atom(b)),
            PropConditional.defeasible(Atom(a), Not(Atom(b))),
        ]
    if rng.random() < 0.2:
        a = Atom(rng.choice(atoms))
        never = rng.choice([And(a, Not(a)), Bot()])
        base.append(PropConditional.defeasible(never, random_literal(rng, atoms)))
    rng.shuffle(base)
    mentioned = atoms + ["z"]
    a = Atom(rng.choice(atoms))
    queries = [
        PropConditional.defeasible(chain[0], random_literal(rng, mentioned)),
        PropConditional.defeasible(rng.choice(chain), random_literal(rng, mentioned)),
        PropConditional.defeasible(
            random_prop_formula(rng, mentioned, 2), random_prop_formula(rng, mentioned, 1)
        ),
        PropConditional.defeasible(Atom("z"), random_literal(rng, atoms)),
        PropConditional.defeasible(
            rng.choice([And(a, Not(a)), Bot()]), random_literal(rng, mentioned)
        ),
    ]
    return base, queries


class TestRationalClosure:
    @given(seeds)
    @settings(max_examples=150, deadline=None)
    def test_matches_full_ranking(self, seed):
        base, queries = random_rc_base(random.Random(seed))
        for query in queries:
            assert rc_decision(base, query) == oracles.rc_decision(base, query)

    @given(seeds, st.integers(0, 6))
    @settings(max_examples=150, deadline=None)
    def test_refuses_the_enumeration_a_full_ranking_refuses(self, seed, cap):
        """Under a lowered cap the same enumeration, and so the same text, is refused."""
        base, queries = random_rc_base(random.Random(seed))
        with mock.patch.dict(os.environ, DFCA_MAX_ATOMS=str(cap)):
            for query in queries:
                assert outcome(rc_decision, base, query) == outcome(
                    oracles.rc_decision, base, query
                )

    def test_the_bases_reach_rank_0_2_and_none(self):
        ranks = set()
        for seed in range(60):
            base, queries = random_rc_base(random.Random(seed))
            for query in queries:
                decision = rc_decision(base, query)
                assert decision == oracles.rc_decision(base, query)
                ranks.add(decision[1])
        assert 0 in ranks
        assert None in ranks
        assert any(rank is not None and rank >= 2 for rank in ranks)


# --- classical entailment: valuations as ints, decided by formula.evaluate ----------


def random_entailment(rng):
    """Premises and a conclusion over 0-6 atoms and every kind of node.

    The premise list may be empty, and the premises may leave out atoms
    that the conclusion mentions.
    """
    atoms = [f"p{i}" for i in range(rng.randint(0, 6))]
    shared = atoms[: rng.randint(0, len(atoms))]
    premises = [
        random_prop_formula(rng, shared, rng.randint(0, 3))
        for _ in range(rng.choice([0, 0, 1, 2, 3]))
    ]
    conclusion = random_prop_formula(rng, atoms, rng.randint(0, 3))
    if rng.random() < 0.3:
        # random formulas seldom name all six atoms; this one names each
        every = functools.reduce(rng.choice([And, Or, Iff]), map(Atom, atoms), Top())
        conclusion = rng.choice([And, Or, Implies])(conclusion, every)
    return premises, conclusion


def node_kinds(formula):
    kinds = {type(formula)}
    for child in ("operand", "left", "right"):
        if hasattr(formula, child):
            kinds |= node_kinds(getattr(formula, child))
    return kinds


ENTAILMENT_EDGES = [
    ([], Top()),
    ([], Bot()),
    ([Bot()], Atom("q")),
    ([Atom("p")], Atom("q")),
    ([Atom("p"), Not(Atom("p"))], Atom("q")),
    ([Iff(Atom("p"), Atom("q")), Atom("q")], Atom("p")),
]


class TestPropEntails:
    @given(seeds)
    @settings(max_examples=400)
    def test_matches_the_sweep_over_valuation_dicts(self, seed):
        premises, conclusion = random_entailment(random.Random(seed))
        assert prop_entails(premises, conclusion) == oracles.prop_entails(
            premises, conclusion
        )

    @pytest.mark.parametrize("premises, conclusion", ENTAILMENT_EDGES)
    def test_edges_match(self, premises, conclusion):
        assert prop_entails(premises, conclusion) == oracles.prop_entails(
            premises, conclusion
        )

    @given(seeds, st.integers(0, 2))
    @settings(max_examples=200)
    def test_refuses_with_the_same_text(self, seed, cap):
        premises, conclusion = random_entailment(random.Random(seed))
        with mock.patch.dict(os.environ, DFCA_MAX_ATOMS=str(cap)):
            assert outcome(prop_entails, premises, conclusion) == outcome(
                oracles.prop_entails, premises, conclusion
            )

    def test_the_inputs_reach_every_edge(self):
        """Every node kind, both verdicts, 0 and 6 atoms, no premises, and
        atoms that only the conclusion mentions."""
        kinds, verdicts, sizes = set(), set(), set()
        no_premises = conclusion_only = 0
        for seed in range(300):
            premises, conclusion = random_entailment(random.Random(seed))
            for formula in [*premises, conclusion]:
                kinds |= node_kinds(formula)
            verdicts.add(prop_entails(premises, conclusion))
            mentioned = set().union(*map(atom_names, premises))
            sizes.add(len(mentioned | atom_names(conclusion)))
            no_premises += not premises
            conclusion_only += bool(atom_names(conclusion) - mentioned)
        assert kinds == {Top, Bot, Atom, Not, And, Or, Implies, Iff}
        assert verdicts == {True, False}
        assert {0, 6} <= sizes
        assert no_premises and conclusion_only


def counted_evaluations(premises, conclusion):
    """``prop_entails``'s verdict and the ``evaluate`` calls it made, in order.

    Each call is (formula, valuation, value), the valuation as the bits of
    the mentioned atoms in sorted name order.
    """
    names = sorted(atom_names(conclusion).union(*map(atom_names, premises)))
    calls = []

    def counted(formula, column, universe):
        value = evaluate(formula, column, universe)
        calls.append((formula, tuple(column(name) for name in names), value))
        return value

    with mock.patch("dfca.propositional.evaluate", counted):
        verdict = prop_entails(premises, conclusion)
    return verdict, calls


class TestPropEntailsPruning:
    """The premises are evaluated only at valuations that falsify the conclusion."""

    def test_a_fixed_entailment(self):
        p, q, r = Atom("p"), Atom("q"), Atom("r")
        conclusion = Or(p, r)
        verdict, calls = counted_evaluations([p, q], conclusion)
        assert verdict is True
        assert [valuation for f, valuation, _ in calls if f is conclusion] == list(
            itertools.product((0, 1), repeat=3)
        )
        # p | r is false at 000 and 010; p fails there, so q is never evaluated
        assert [call for call in calls if call[0] is not conclusion] == [
            (p, (0, 0, 0), 0),
            (p, (0, 1, 0), 0),
        ]

    def test_a_fixed_counter_model(self):
        p, q = Atom("p"), Atom("q")
        verdict, calls = counted_evaluations([p], q)
        assert verdict is False
        assert calls == [
            (q, (0, 0), 0),
            (p, (0, 0), 0),
            (q, (0, 1), 1),
            (q, (1, 0), 0),
            (p, (1, 0), 1),
        ]

    def test_random_entailments(self):
        evaluated = 0
        for seed in range(200):
            premises, conclusion = random_entailment(random.Random(seed))
            verdict, calls = counted_evaluations(premises, conclusion)
            assert verdict == oracles.prop_entails(premises, conclusion)
            falsified = set()
            for formula, valuation, value in calls:
                if formula is conclusion:
                    if not value:
                        falsified.add(valuation)
                else:
                    assert valuation in falsified
                    evaluated += 1
        assert evaluated


# --- the bridge: a context of valuations answers as rational closure -----------------


def random_bridge_base(rng):
    """Defeasible statements over 3-6 atoms in the fragment both dialects share.

    The base holds an exception chain, random statements over atoms, ``!``,
    ``&`` and ``|``, and now and then a pair that no ranking of a context
    with their antecedent accepts. The queries take the chain's links,
    random formulas and an atom ``z`` the base never mentions, which is
    also returned as the last of the atoms.
    """
    atoms = [f"p{i}" for i in range(rng.randint(3, 6))]
    chain = [Atom(name) for name in rng.sample(atoms, rng.randint(2, len(atoms)))]
    base = []
    for low, high in zip(chain, chain[1:]):
        base += [
            PropConditional.defeasible(low, high),
            PropConditional.defeasible(high, Not(low)),
        ]
    for _ in range(rng.randint(0, 3)):
        antecedent = random_formula(rng, atoms, 1)
        # a consequent over the antecedent's atoms could contradict it
        others = [a for a in atoms if a not in atom_names(antecedent)]
        base.append(
            PropConditional.defeasible(antecedent, random_literal(rng, others))
        )
    if rng.random() < 0.15:
        a, b = rng.sample(atoms, 2)
        base += [
            PropConditional.defeasible(Atom(a), Atom(b)),
            PropConditional.defeasible(Atom(a), Not(Atom(b))),
        ]
    rng.shuffle(base)
    mentioned = atoms + ["z"]
    queries = [
        PropConditional.defeasible(rng.choice(chain), random_literal(rng, mentioned)),
        PropConditional.defeasible(
            random_literal(rng, atoms), random_literal(rng, mentioned)
        ),
        PropConditional.defeasible(
            random_formula(rng, mentioned, 2), random_formula(rng, mentioned, 1)
        ),
        PropConditional.defeasible(Atom("z"), random_literal(rng, atoms)),
    ]
    return mentioned, base, queries


def as_conditional(statement):
    """A defeasible propositional statement, read as a conditional over attributes."""
    return parse_conditional(
        f"{format_prop_formula(statement.antecedent)} |~ "
        f"{format_prop_formula(statement.consequent)}"
    )


def valuation_context(atoms, rows):
    """One object per valuation, atom j true where bit j of its row is set."""
    return FormalContext([f"w{row}" for row in rows], atoms, rows)


def rows_assertion(atoms, rows):
    """The classical assertion that the valuation is one of the rows.

    It is the disjunction of the rows' full conjunctions or, when fewer
    valuations are left out than kept, the equivalent and shorter
    conjunction of the left-out ones' negations.
    """

    def minterm(row):
        literals = [
            Atom(a) if row >> j & 1 else Not(Atom(a)) for j, a in enumerate(atoms)
        ]
        return functools.reduce(And, literals)

    missing = sorted(set(range(1 << len(atoms))) - set(rows))
    if len(missing) < len(rows):
        kept = functools.reduce(And, [Not(minterm(row)) for row in missing], Top())
    else:
        kept = functools.reduce(Or, map(minterm, rows))
    return PropConditional.assertion(kept)


def context_verdicts(context, base, queries):
    """The context engine's verdicts, or None when no ranking of it accepts the base."""
    try:
        session = ClosureSession(context, [as_conditional(s) for s in base])
    except ValidityError:
        return None
    return [session.entails(as_conditional(q)) for q in queries]


def random_valuation_rows(rng, atoms):
    """A random nonempty set of valuations, each kept with the same chance."""
    keep = rng.choice([0.2, 0.5, 0.8, 0.95])
    rows = [row for row in range(1 << len(atoms)) if rng.random() < keep]
    return rows or [rng.randrange(1 << len(atoms))]


class TestRationalClosureBridge:
    """``ClosureSession`` over contexts of valuations against ``rc_decision``."""

    @given(seeds)
    @settings(max_examples=80, deadline=None)
    def test_the_context_of_every_valuation_answers_as_the_base(self, seed):
        atoms, base, queries = random_bridge_base(random.Random(seed))
        context = valuation_context(atoms, range(1 << len(atoms)))
        verdicts = context_verdicts(context, base, queries)
        if verdicts is not None:
            assert verdicts == [rc_decision(base, q)[0] for q in queries]

    @given(seeds)
    @settings(max_examples=60, deadline=None)
    def test_any_context_answers_as_the_base_asserting_its_rows(self, seed):
        rng = random.Random(seed)
        atoms, base, queries = random_bridge_base(rng)
        rows = random_valuation_rows(rng, atoms)
        verdicts = context_verdicts(valuation_context(atoms, rows), base, queries)
        if verdicts is not None:
            asserted = [*base, rows_assertion(atoms, rows)]
            assert verdicts == [rc_decision(asserted, q)[0] for q in queries]

    def test_both_verdicts_and_a_more_contextual_answer_occur(self):
        full, subsets, contextual = set(), set(), 0
        for seed in range(60):
            rng = random.Random(seed)
            atoms, base, queries = random_bridge_base(rng)
            every = valuation_context(atoms, range(1 << len(atoms)))
            full.update(context_verdicts(every, base, queries) or ())
            rows = random_valuation_rows(rng, atoms)
            verdicts = context_verdicts(valuation_context(atoms, rows), base, queries)
            if verdicts is not None:
                subsets.update(verdicts)
                contextual += sum(
                    verdict != rc_decision(base, q)[0]
                    for verdict, q in zip(verdicts, queries)
                )
        assert full == subsets == {True, False}
        assert contextual
