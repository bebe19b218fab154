"""Coarse wall-clock guards against quadratic and exponential costs.

The caps are several times what linear code needs, so they hold on a slow
or loaded machine, and well below what a per-member ``1 << i`` build or
walk, a fixed-point order closure and a pairwise modularity check cost at
these sizes. On a 2-core Intel Xeon VM under Python 3.11.7 the linear
code takes 0.39 s, 0.04 s, 0.05 s and 0.002 s, the quadratic code 7.9 s,
1.7 s, 3.1 s and 0.58 s, against caps of 3 s, 0.5 s, 1 s and 0.1 s.

Validity of a conditional set is decided by one ranking pass: 0.001 s for
31 conditionals over 20k objects, against a cap of 0.5 s. A walk over
every subset of the conditionals took 0.55 s for 20 of them on the same
machine and would take about 2000 times as long for 31.

A random 200k-bit set is walked in 0.014-0.017 s: half its bits are
members, so ``iter_indices`` picks them out of the binary digits in one
C-level pass. Walking it with ``str.rfind`` from member to member took
0.036-0.042 s on the same machine. The cap is 0.5 s.

``ClosureSession.entails`` over a 200k-object exception chain of 11
levels answers 19 random queries over its classes and ``f`` in a median
of 0.023-0.032 s each (max 0.12-0.19 s, for the first query, which builds
the rank tuple from the strata; 0.53-0.77 s in all, six rounds): it lists
the antecedent's members once and reads their ranks at C level. Walking the members twice in Python and adding the least ones
by ``|= 1 << i`` took a median of 0.118-0.140 s (max 0.27-0.42 s,
2.5-2.9 s in all) on the same machine, against a cap of 2 s for all 19.

A ``ClosureSession`` over a 200k-object exception chain of 11 levels, with
the 11 conditionals on ``f`` and 10 more ``c_j |~ c_{j-1}``, builds in
0.009-0.010 s: the ranking keeps the loop's strata. Turning them into a
rank list and checking it rank by rank took 0.13-0.15 s on the same
machine, against a cap of 0.05 s.

A ranked interpretation of 100k states over 10 atoms holds its valuations
as a context's columns: it builds in 0.26-0.31 s and then answers 10
``state_bits`` and 10 ``satisfies`` calls in under 0.001 s, against a cap
of 2 s for all of it. Summing ``1 << i`` over every state for each atom
read, it built in 0.15 s but took 0.22 s per ``state_bits`` and 0.50 s per
``satisfies``, 6.1 s in all, on the same machine.

A strict order minimises by walking its height layers. On the
2000-element order of 200 layers, 200 calls (all members, then random
members, in turn) take 0.0013-0.0023 s, the layers' first build included,
against 0.083-0.135 s for a walk over the members and a cap of 0.04 s.
The walk's worst case, the top member of a 2000-chain alone, meets one
empty intersection per layer: 0.0002-0.0003 s, against 0.00002-0.00007 s
for the member walk and a cap of 0.005 s.

A 200k x 40 CSV file of ``x`` and empty cells parses, every column
read, in 1.3-1.8 s: the ``csv`` module's reader takes 0.7-1.2 s of it,
the bulk checks and the cut of the columns the rest. A check and
``1 << j`` per cell took 2.6-3.2 s on the same machine. Both are linear;
the cap of 4 s guards against a superlinear parse, not against the
per-cell walk.

A 200k x 40 ``.cxt`` file parses in a median of 0.07 s (0.07-0.09 s over
seven runs): lines are split only up to the names, and the rows are
checked as one block. Columns are cut from that block on their first
read, and the parse with a read of every column, which both parse tests
time, takes 0.14 s (0.12-0.15 s), as the earlier parse did that cut every
column at load (0.14 s, 0.12-0.16 s). Splitting every line and checking
the rows as a list took a median of 0.26 s (0.25-0.28 s) on the same
machine. All are linear; the cap of 1.5 s guards against a superlinear
parse or cut.

Rational closure answers a query from the exceptionality rounds up to its
antecedent's rank. On a 12-atom exception chain (``a_i |~ a_{i+1}`` and
``a_{i+1} |~ !a_i``, 22 statements, 11 strata) a query at rank 0 takes
0.02-0.04 s, against 1.2-1.4 s when every query ranked the whole base
first, on the same machine; the cap is 0.25 s. A query at the top rank
still pays for every round, 1.2-1.4 s either way, and is not capped.
"""

import random
import time

from dfca import (
    ClosureSession,
    Conditional,
    FormalContext,
    RankingFunction,
    StrictOrder,
    bitsets,
)
from dfca.fileio import format_cxt, parse_csv_context, parse_cxt
from dfca.formula import And, Atom, Not, Or, PropConditional
from dfca.order import order_from_ranks
from dfca.propositional import RankedInterpretation, rc_decision
from dfca.ranking import delta_valid


def timed(procedure, *args):
    start = time.perf_counter()
    result = procedure(*args)
    return time.perf_counter() - start, result


def parse_and_cut(parse, text):
    """Parse a context file and read every column, which cuts it from the cells."""
    context = parse(text)
    for j in range(context.n_attributes):
        context.column(j)
    return context


def layered_pairs(n, width, rng):
    """Each element above two random elements of the layer below it."""
    return [
        ((layer - 1) * width + rng.randrange(width), layer * width + k)
        for layer in range(1, n // width)
        for k in range(width)
        for _ in range(2)
    ]


def test_building_a_200k_by_40_context_is_linear():
    rng = random.Random(0)
    n, m = 200_000, 40
    rows = [rng.getrandbits(m) for _ in range(n)]
    objects = [f"g{i}" for i in range(n)]
    attributes = [f"m{j}" for j in range(m)]
    seconds, context = timed(FormalContext, objects, attributes, rows)
    assert seconds < 3.0
    assert context.column(0) >> (n - 1) & 1 == rows[-1] & 1


def test_parsing_a_200k_by_40_csv_is_linear():
    rng = random.Random(6)
    n, m = 200_000, 40
    rows = [rng.getrandbits(m) for _ in range(n)]
    lines = ["name," + ",".join(f"m{j}" for j in range(m))]
    lines += [
        f"g{i}," + ",".join("x" if row >> j & 1 else "" for j in range(m))
        for i, row in enumerate(rows)
    ]
    seconds, context = timed(parse_and_cut, parse_csv_context, "\n".join(lines) + "\n")
    assert seconds < 4.0
    assert context.row(n - 1) == rows[-1]


def test_parsing_a_200k_by_40_cxt_is_linear():
    rng = random.Random(7)
    n, m = 200_000, 40
    rows = [rng.getrandbits(m) for _ in range(n)]
    text = format_cxt(
        FormalContext([f"g{i}" for i in range(n)], [f"m{j}" for j in range(m)], rows)
    )
    seconds, context = timed(parse_and_cut, parse_cxt, text)
    assert seconds < 1.5
    assert context.row(n - 1) == rows[-1]
    assert context.object_index(f"g{n - 1}") == n - 1


def test_walking_a_random_200k_bit_set_is_linear():
    bits = random.Random(1).getrandbits(200_000)
    seconds, members = timed(list, bitsets.iter_indices(bits))
    assert seconds < 0.5
    assert len(members) == bits.bit_count()


def test_closing_a_2000_element_layered_order_takes_one_pass():
    n, width = 2000, 10
    pairs = layered_pairs(n, width, random.Random(2))
    seconds, order = timed(StrictOrder, n, pairs)
    assert seconds < 1.0
    # the last element sits above at least one element of every lower layer
    assert order.predecessors(n - 1).bit_count() >= n // width - 1


def test_minimising_in_a_2000_element_layered_order_walks_its_layers():
    n, width = 2000, 10
    order = StrictOrder(n, layered_pairs(n, width, random.Random(2)))
    full = bitsets.universe(n)
    rng = random.Random(5)
    members = [full if k % 2 else rng.getrandbits(n) for k in range(200)]
    seconds, minimal = timed(list, map(order.minimise, members))
    assert seconds < 0.04
    # all members: the bottom layer, the first ten elements
    assert minimal[1] == bitsets.universe(width)


def test_minimising_the_top_of_a_2000_chain_takes_one_pass_over_the_layers():
    n = 2000
    chain = StrictOrder(n, [(i, i + 1) for i in range(n - 1)])
    chain.minimise(0)  # the first call turns the layers into bitsets
    seconds, minimal = timed(chain.minimise, 1 << n - 1)
    assert seconds < 0.005
    assert minimal == 1 << n - 1


def test_checking_a_2000_element_order_for_modularity_is_linear():
    n = 2000
    modular = order_from_ranks(RankingFunction([i % 50 for i in range(n)]))
    seconds, verdict = timed(modular.is_modular)
    assert seconds < 0.1
    assert verdict


def exception_chain(n, levels, rng):
    """Objects at random depths of a chain c0 ⊇ c1 ⊇ ..., flying at even depths.

    ``c_j |~ f`` for even j and ``c_j |~ !f`` for odd j: each depth is the
    exception to the one above it, so the set is satisfiable with one rank
    per depth.
    """
    attributes = [f"c{j}" for j in range(levels)] + ["f"]
    depths = [rng.randrange(levels) for _ in range(n)]
    # c0..c_d, and f when d is even
    rows = [(1 << d + 1) - 1 | (d % 2 == 0) << levels for d in depths]
    context = FormalContext([f"g{i}" for i in range(n)], attributes, rows)
    flies = Atom("f")
    kb = [
        Conditional.defeasible(Atom(f"c{j}"), flies if j % 2 == 0 else Not(flies))
        for j in range(levels)
    ]
    return context, kb


def test_deciding_validity_of_31_conditionals_takes_one_ranking_pass():
    context, kb = exception_chain(20_000, 31, random.Random(3))
    seconds, verdict = timed(delta_valid, context, kb)
    assert seconds < 0.5
    assert verdict


def random_query_formula(rng, names, connectives):
    formula = Atom(rng.choice(names))
    for _ in range(connectives):
        other = Atom(rng.choice(names))
        if rng.random() < 0.3:
            other = Not(other)
        formula = (And if rng.random() < 0.6 else Or)(formula, other)
    return formula


def test_entailment_over_200k_objects_lists_the_members_once():
    rng = random.Random(7)
    context, kb = exception_chain(200_000, 11, rng)
    session = ClosureSession(context, kb)
    names = list(context.attributes)
    queries = [
        Conditional.defeasible(
            random_query_formula(rng, names, rng.randint(0, 2)),
            random_query_formula(rng, names, rng.randint(0, 1)),
        )
        for _ in range(19)
    ]
    seconds, verdicts = timed(list, map(session.entails, queries))
    assert seconds < 2.0
    # the lowest stratum holds the objects of depth 0, which fly
    assert session.entails(Conditional.defeasible(Atom("c0"), Atom("f")))
    assert len(verdicts) == 19


def test_a_200k_object_session_builds_from_the_loop_strata():
    context, kb = exception_chain(200_000, 11, random.Random(8))
    kb += [
        Conditional.defeasible(Atom(f"c{j}"), Atom(f"c{j - 1}")) for j in range(1, 11)
    ]
    seconds, session = timed(ClosureSession, context, kb)
    assert seconds < 0.05
    assert len(session.ranked.ranking.strata) == 11


def test_a_100k_state_interpretation_reads_its_columns():
    rng = random.Random(4)
    n, atoms = 100_000, [f"p{j}" for j in range(10)]
    valuations = [{a: rng.random() < 0.5 for a in atoms} for _ in range(n)]
    ranks = [i % 7 for i in range(n)]
    queries = [
        PropConditional.defeasible(
            And(Atom(atoms[j]), Not(Atom(atoms[j - 1]))),
            Or(Atom(atoms[j - 2]), Atom(atoms[j - 3])),
        )
        for j in range(10)
    ]

    def build_and_ask():
        model = RankedInterpretation(atoms, range(n), valuations, ranks)
        bits = [model.state_bits(q.antecedent) for q in queries]
        return bits, [model.satisfies(q) for q in queries]

    seconds, (bits, verdicts) = timed(build_and_ask)
    assert seconds < 2.0
    # p0 & !p9 holds at a state exactly when its valuation says so
    assert bits[0] >> 17 & 1 == (valuations[17]["p0"] and not valuations[17]["p9"])
    assert verdicts == [False] * 10


def test_a_rank_0_query_on_a_12_atom_chain_reads_one_round():
    names = [f"a{i}" for i in range(12)]
    kb = []
    for low, high in zip(names, names[1:]):
        kb += [
            PropConditional.defeasible(Atom(low), Atom(high)),
            PropConditional.defeasible(Atom(high), Not(Atom(low))),
        ]
    query = PropConditional.defeasible(Atom("a11"), Not(Atom("a10")))
    seconds, decision = timed(rc_decision, kb, query)
    assert seconds < 0.25
    assert decision == (True, 0)
