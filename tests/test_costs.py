"""Cost contracts: the Python steps an operation runs inside the package.

A step is one ``line`` event of ``sys.settrace`` in code under
``src/dfca``. Unlike a wall-clock time, the count does not depend on the
host, so a path whose cost note says it runs no Python step per object
is held to exactly that: its count at 4n objects equals its count at n,
up to ``SLACK``. Each contract cites the cost note it checks, and the
note must still be in that docstring, so the claim and the test change
together. A step counter misses C-level work that grows faster than
linear; ``tests/test_scaling.py`` times that.

A linear contract is for a path whose note says it runs a fixed number of
steps per item: at 4n items it may run at most 4 times its steps at n,
plus ``SLACK``, so one step per pair of items shows.

Run ``python tests/test_costs.py`` to print each contract's step counts at
n and 4n and their ratio, the figures a change to a cost can cite.
"""

import inspect
import os
import random
import sys
import tempfile
from pathlib import Path

import pytest

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import dfca
from dfca import (
    ClosureSession,
    FormalContext,
    RankingFunction,
    StrictOrder,
    bitsets,
    cli,
)
from dfca import fileio
from dfca.fileio import (
    format_cxt,
    load_context,
    parse_csv_context,
    parse_cxt,
    save_context,
)
from dfca.formula import And, Atom, Formula, extension, parse_conditional, parse_formula
from dfca.ranking import KnowledgeBase, object_rank

# code objects carry the path their module was imported from
PACKAGE = os.path.dirname(dfca.__file__) + os.sep

# steps a flat path may differ by between n and 4n objects
SLACK = 8

N = 1024
M = 40
# the rows repeat a block of 64, so at n and 4n objects every row read,
# every intent below and every column's density are the same
_rng = random.Random(26)
BLOCK = [_rng.getrandbits(M) for _ in range(64)]


def steps(fn, limit=None):
    """The number of lines run in the package's code while ``fn()`` runs.

    Past ``limit`` lines the count stops and ``fn`` runs on untraced, so a
    path far over its contract fails in about the time the contract allows.
    """
    count = 0

    def in_package(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
            if limit is not None and count > limit:
                sys.settrace(None)
        return in_package

    def on_call(frame, event, arg):
        if frame.f_code.co_filename.startswith(PACKAGE):
            return in_package
        return None

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        fn()
    finally:
        sys.settrace(previous)
    return count


def parts(n):
    rows = BLOCK * (n // len(BLOCK))
    return [f"g{i}" for i in range(n)], [f"m{j}" for j in range(M)], rows


def built(n):
    return FormalContext(*parts(n))


# each operation takes the object count, prepares its input, and returns
# the call whose steps are counted
def build(n):
    args = parts(n)
    return lambda: FormalContext(*args)


def read_last_row(n):
    context = built(n)
    return lambda: context.row(n - 1)


def intent_of_every_eighth(n):
    context = built(n)
    members = sum(1 << i for i in range(0, n, 8))
    return lambda: context.intent(members)


def write_cxt(n):
    context = built(n)
    return lambda: format_cxt(context)


def parse_and_cut(n):
    text = format_cxt(built(n))

    def run():
        context = parse_cxt(text)
        for j in range(M):
            context.column(j)

    return run


def saved(n):
    """A folder holding the context of n objects as ``context.cxt`` and
    ``KB`` as ``kb.txt``; it is removed once dropped."""
    folder = tempfile.TemporaryDirectory()
    save_context(built(n), os.path.join(folder.name, "context.cxt"))
    with open(os.path.join(folder.name, "kb.txt"), "w", encoding="utf-8") as kb:
        kb.write("\n".join(KB) + "\n")
    return folder


def load_cxt_file(n):
    folder = saved(n)
    path = os.path.join(folder.name, "context.cxt")

    def run():
        load_context(path)

    # the folder lives as long as the call
    run.folder = folder
    return run


def strata_of(n):
    """Seven strata, object i in stratum i % 7."""
    return [sum(1 << i for i in range(k, n, 7)) for k in range(7)]


def first_read_of_ranks(n):
    strata = strata_of(n)
    return lambda: RankingFunction._from_strata(strata, n).ranks


def least_in_the_last_stratum(n):
    ranking = RankingFunction._from_strata(strata_of(n), n)
    members = 1 << (n - 1)
    return lambda: ranking.least(members)


def extension_of_four_columns(n):
    context = built(n)
    formula = parse_formula("m0 & !m1 | !(m2 | m39)")
    return lambda: extension(context, formula)


# the rows of BLOCK admit this ranking: m0 objects normally have m1,
# m0 & m2 objects are exceptions, and m3 objects normally lack m4
KB = ("m0 |~ m1", "m0 & m2 |~ !m1", "m3 |~ !m4")


def session_build(n):
    context = built(n)
    # parsed afresh, so each count includes the first hash of each statement
    kb = [parse_conditional(text) for text in KB]
    return lambda: ClosureSession(context, kb)


def rank_objects(n):
    context = built(n)
    kb = [parse_conditional(text) for text in KB]
    return lambda: object_rank(context, kb)


def hash_a_knowledge_base(n):
    """``KB`` with each antecedent nested n // 64 connectives deeper."""
    conditionals = []
    for text in KB:
        conditional = parse_conditional(text)
        antecedent = conditional.antecedent
        for j in range(n // 64):
            antecedent = And(antecedent, Atom(f"m{j % M}"))
        conditionals.append(
            conditional.defeasible(antecedent, conditional.consequent)
        )
    return lambda: hash(KnowledgeBase(conditionals))


def cli_run(*argv):
    """The operation that runs ``dfca`` with ``argv``, where "{context}"
    and "{kb}" name the saved files."""

    def operation(n):
        folder = saved(n)
        args = [arg.format(context=os.path.join(folder.name, "context.cxt"),
                           kb=os.path.join(folder.name, "kb.txt")) for arg in argv]
        # the first run builds the argument parser, which later runs reuse
        assert cli.run(args).exit_code in (0, 1)

        def run():
            cli.run(args)

        run.folder = folder
        return run

    operation.__name__ = "cli_" + argv[0] + "_json" * ("--json" in argv)
    return operation


# (operation, the object whose docstring holds the cost note, the note)
CONTRACTS = [
    (build, FormalContext.__init__, "no Python step per object"),
    (read_last_row, FormalContext.row, "m column operations, none per object"),
    (
        intent_of_every_eighth,
        FormalContext.intent,
        "m column operations, none per object",
    ),
    (write_cxt, format_cxt, "No Python step runs per object."),
    (parse_and_cut, fileio, "a fixed number of C-level passes"),
    (load_cxt_file, fileio.load_context, "a fixed number of C-level passes"),
    (first_read_of_ranks, RankingFunction.ranks, "No Python step runs per member"),
    (least_in_the_last_stratum, RankingFunction.least, "none per member"),
    (extension_of_four_columns, extension, "none per object"),
    (session_build, ClosureSession.__init__, "none per object"),
    (
        rank_objects,
        object_rank,
        "set operations per conditional and rank, none per object",
    ),
    (hash_a_knowledge_base, Formula, "hashing a tree of any depth then costs one step"),
    (cli_run("validate", "{context}", "{kb}"), cli, "no Python step per object"),
    (
        cli_run("entail", "{context}", "{kb}", "m0 & m3 |~ m1"),
        cli,
        "no Python step per object",
    ),
    (cli_run("rank", "{context}", "{kb}", "--json"), cli, "no Python step per object"),
    (
        cli_run("extension", "{context}", "m0 & !m1 | !(m2 | m39)"),
        cli,
        "no Python step per object",
    ),
    (cli_run("holds", "{context}", "m0 & m2 -> m1"), cli, "no Python step per object"),
]


def indices_to_a_set(n):
    indices = list(range(0, 2 * n, 2))
    return lambda: bitsets.from_indices(indices, 2 * n)


def minimise_the_top_of_a_chain(n):
    """The top element alone meets one empty intersection per layer."""
    order = StrictOrder(n, [(i, i + 1) for i in range(n - 1)])
    members = 1 << (n - 1)
    return lambda: order.minimise(members)


def parse_csv(n):
    rows = BLOCK * (n // len(BLOCK))
    lines = ["name," + ",".join(f"m{j}" for j in range(M))]
    lines += [
        f"g{i}," + ",".join("x" if row >> j & 1 else "" for j in range(M))
        for i, row in enumerate(rows)
    ]
    text = "\n".join(lines) + "\n"
    return lambda: parse_csv_context(text)


# (operation, the object whose docstring holds the cost note, the note), for
# paths that run a fixed number of steps per index, layer or record
LINEAR_CONTRACTS = [
    (
        indices_to_a_set,
        bitsets.from_indices,
        "a fixed number of Python steps per index",
    ),
    (minimise_the_top_of_a_chain, StrictOrder.minimise, "one intersection per layer"),
    (parse_csv, parse_csv_context, "a fixed number of Python steps per record"),
]


@pytest.mark.parametrize(
    "operation, owner, note",
    CONTRACTS,
    ids=[operation.__name__ for operation, _, _ in CONTRACTS],
)
def test_flat_paths_run_as_many_steps_at_4n_as_at_n(operation, owner, note):
    assert note in " ".join(inspect.getdoc(owner).split())
    small = steps(operation(N))
    large = steps(operation(4 * N))
    assert small > 0
    assert abs(large - small) <= SLACK, (small, large)


@pytest.mark.parametrize(
    "operation, owner, note",
    LINEAR_CONTRACTS,
    ids=[operation.__name__ for operation, _, _ in LINEAR_CONTRACTS],
)
def test_linear_paths_run_at_most_four_times_the_steps_at_4n(operation, owner, note):
    assert note in " ".join(inspect.getdoc(owner).split())
    small = steps(operation(N))
    large = steps(operation(4 * N), limit=4 * small + SLACK)
    assert small >= N
    assert large <= 4 * small + SLACK, (small, large)


def test_the_counter_sees_a_walk_per_object():
    """The counter itself: a path that walks the objects grows with them."""
    small = steps(lambda: dfca.bitsets.from_indices(range(N), N))
    large = steps(lambda: dfca.bitsets.from_indices(range(4 * N), 4 * N))
    assert large - small >= 3 * N


if __name__ == "__main__":
    for operation, _, _ in CONTRACTS + LINEAR_CONTRACTS:
        small, large = steps(operation(N)), steps(operation(4 * N))
        print(f"{operation.__name__}  n={N}: {small}  4n={4 * N}: {large}  "
              f"4n/n: {large / small:.3f}")
