"""The four workloads: inputs, the operations of one cycle, and their answers.

Each workload builds its inputs from the seed in ``setup`` and then hands
out operations one at a time. An operation carries the timed call, a
``digest`` that reduces the raw result to a comparable tuple outside the
timed region, and a ``key`` from which ``Checker.expected`` computes the
same tuple with the reference code. Every workload is a closed loop with
one client: the next operation starts when the previous one returns.

The package is reached only through its public modules, always as
``module.attribute`` at call time, so the tracer's wrappers see every call.
"""

import json
import os
import re
from dataclasses import dataclass
from types import SimpleNamespace as State
from typing import Callable

import gen
import reference

SIZES = {
    "full": {
        "cli_objects": 2500,
        "session_objects": 10000,
        "pref_objects": 700,
        "pref_layers": 100,
        "prop_atoms": 8,
    },
    "tiny": {
        "cli_objects": 300,
        "session_objects": 400,
        "pref_objects": 150,
        "pref_layers": 20,
        "prop_atoms": 5,
    },
}


@dataclass
class Op:
    category: str  # "query" (a read) or "update" (a write or re-rank)
    key: tuple
    call: Callable
    digest: Callable


def write(path, text):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write(text)
    return path


def fingerprint(items):
    """A compact stand-in for a long sequence, comparable within one process."""
    return hash(tuple(items))


# --- reading CLI results --------------------------------------------------------


def _rank_in(text):
    match = re.search(r"rank (\d+)", text)
    return int(match.group(1)) if match else None


def _verdict(text):
    if text.startswith("holds"):
        return True
    if text.startswith("does not hold"):
        return False
    return None


def digest_cli(command, as_json, result):
    """The semantic content of a CLI answer, in the form ``expected`` builds."""
    code, text = result.exit_code, result.text
    if code not in (0, 1):
        return (code, None)
    if as_json:
        doc = json.loads(text)
        if command == "extension":
            return (code, fingerprint(doc["objects"]), doc["count"])
        if command == "holds":
            return (code, doc["holds"], fingerprint(doc["counterexamples"]))
        if command in ("entail", "rcprop"):
            return (code, doc["holds"], doc["antecedent_rank"])
        if command == "validate":
            return (code, doc["valid"])
        if command == "rank":
            return (code, fingerprint(
                (s["rank"], name) for s in doc["strata"] for name in s["objects"]
            ))
        if command == "diff":
            return (code, tuple(
                (p["query"], p["before"], p["after"], p["change"] or "")
                for p in doc["probes"]
            ))
        if command == "baserank":
            return (
                code,
                tuple(tuple(s) for s in doc["strata"]),
                tuple(doc["infinite"]),
                doc["height"],
            )
    if command == "extension":
        names = text.split("\n") if text else []
        return (code, fingerprint(names), len(names))
    if command == "holds":
        prefix = "does not hold; counterexamples: "
        if text == "holds":
            return (code, True, fingerprint(()))
        if text.startswith(prefix):
            return (code, False, fingerprint(text[len(prefix):].split(", ")))
        return (code, "unreadable", text[:80])
    if command == "entail":
        never = text.endswith("(antecedent never satisfied)")
        return (code, _verdict(text), None if never else _rank_in(text))
    if command == "rcprop":
        impossible = text.endswith("(antecedent impossible at every rank)")
        return (code, _verdict(text), None if impossible else _rank_in(text))
    if command == "validate":
        if text == "valid" or text.startswith("invalid"):
            return (code, text == "valid")
        return (code, "unreadable", text[:80])
    if command == "rank":
        return (code, fingerprint(_rank_rows(text)))
    if command == "diff":
        return (code, _diff_rows(text))
    if command == "baserank":
        return _baserank_digest(code, text)
    raise ValueError(f"no digest for {command!r}")


def _rank_rows(text):
    """(rank, object) per table row; a blank rank cell repeats the one above."""
    current = None
    for line in text.split("\n")[1:]:
        cells = line.split()
        if not line.startswith(" "):
            current = int(cells[0])
            cells = cells[1:]
        yield current, cells[0]


def _diff_rows(text):
    lines = text.split("\n")
    header = lines[0]
    starts = [0] + [header.index(word) for word in ("before", "after", "change")]
    rows = []
    for line in lines[1:]:
        cells = [
            line[a:b].strip() for a, b in zip(starts, starts[1:] + [len(line) + 1])
        ]
        rows.append((cells[0], cells[1] == "yes", cells[2] == "yes", cells[3]))
    return tuple(rows)


def _baserank_digest(code, text):
    strata, infinite, height = [], (), None
    for line in text.split("\n"):
        label, _, rest = line.partition(": ")
        if label == "height":
            height = int(rest)
        elif label == "infinite":
            infinite = tuple(rest.split("; "))
        else:
            strata.append(tuple(rest.split("; ")))
    return (code, tuple(strata), infinite, height)


def cli_op(category, key, argv, as_json, run):
    command = argv[0]
    argv = argv + ["--json"] if as_json else argv
    return Op(
        category,
        key,
        lambda: run(argv),
        lambda result: digest_cli(command, as_json, result),
    )


def diff_label(before, after):
    if before == after:
        return ""
    return "gained" if after else "retracted"


# --- cli-context ----------------------------------------------------------------


class CliContext:
    """One-shot CLI calls on a planted-hierarchy context file."""

    name = "cli-context"
    FORMULAS = 8
    # (command, knowledge base, formula, --json); None means "varies with
    # the cycle": the knowledge base alternates base/extended, the formula
    # steps through the pool and --json is on in odd cycles. Every cycle
    # runs the same mix. Sorted by cost the 31 operations form four groups:
    # 21 cheap ones (extension, holds, `validate --exhaustive` on the small
    # KB), 5 that load and rank (validate, entail), 4 `rank` with their
    # 2.5k-row table and 1 `diff`. The median of all operations and of the
    # reads fall inside the cheap group, the median of the writes in the
    # middle of the validate group (5 cheaper writes below it, 5 dearer
    # above) and the 90th percentile of all operations in the middle of
    # the rank group, each away from the edges between groups, where a
    # little noise would move them from one to the next.
    CYCLE = (
        tuple(("extension", None, i, i % 2 == 1) for i in range(FORMULAS))
        + tuple(("holds", None, i, i % 2 == 0) for i in range(FORMULAS))
        + (("entail", None, None, None),)
        + (("validate", "conflict", None, False),) * 5  # with --exhaustive
        + (("validate", "base", None, False), ("validate", "base", None, True)) * 2
        + (
            ("rank", "base", None, False),
            ("rank", "base", None, True),
            ("rank", "extended", None, False),
            ("rank", "extended", None, True),
            ("diff", None, None, None),
        )
    )
    reads = ("extension", "holds", "entail")
    cycle = len(CYCLE)
    trace_ops = cycle
    PROBES = 20

    def setup(self, dfca, workdir, seed, size):
        rng = gen.make_rng(seed, self.name)
        h = gen.hierarchy(rng, size["cli_objects"])
        base = gen.hierarchy_kb()
        kbs = {
            "base": base,
            "extended": base + [gen.random_update(rng, h, i) for i in range(3)],
            # unsatisfiable, and small enough for `validate --exhaustive`
            "conflict": gen.hierarchy_kb(levels=6) + [gen.conflict_conditional()],
        }
        formulas = gen.template_queries(rng, h, self.name, self.FORMULAS)
        probes = [gen.random_probe(rng, h, i) for i in range(self.PROBES)]
        paths = {
            name: write(os.path.join(workdir, f"{name}.kb"), gen.conditional_lines(kb))
            for name, kb in kbs.items()
        }
        paths["context"] = write(os.path.join(workdir, "context.cxt"), h.cxt_text())
        paths["probes"] = write(
            os.path.join(workdir, "probes.kb"), gen.conditional_lines(probes)
        )
        # the initial load and rank a user's first command would pay for
        context = dfca.fileio.load_context(paths["context"])
        dfca.ranking.object_rank(context, dfca.fileio.load_conditionals(paths["base"]))
        return State(h=h, kbs=kbs, formulas=formulas, probes=probes, paths=paths)

    def prepare(self, dfca, state, k):
        n = k // self.cycle
        command, kb, i, as_json = self.CYCLE[k % self.cycle]
        if kb is None:
            kb = ("base", "extended")[n % 2]
        if i is None:
            i = n % self.FORMULAS
        if as_json is None:
            as_json = n % 2 == 1
        category = "query" if command in self.reads else "update"
        p = state.paths
        ant, cons = state.formulas[i]
        if command == "extension":
            argv = ["extension", p["context"], gen.render(ant)]
            key = ("extension", i)
        elif command == "holds":
            argv = ["holds", p["context"], f"{gen.render(ant)} -> {gen.render(cons)}"]
            key = ("holds", i)
        elif command == "entail":
            argv = ["entail", p["context"], p[kb], gen.render_conditional(ant, cons)]
            key = ("entail", kb, i)
        elif command == "validate":
            argv = ["validate", p["context"], p[kb]]
            if kb == "conflict":
                argv.append("--exhaustive")
            key = ("validate", kb)
        elif command == "rank":
            argv = ["rank", p["context"], p[kb]]
            key = ("rank", kb)
        else:
            argv = ["diff", p["context"], p["base"], p["extended"], "--probe", p["probes"]]
            key = ("diff",)
        return cli_op(category, key + (as_json,), argv, as_json, dfca.cli.run)

    def checker(self, state):
        return CliContextChecker(state)


class CliContextChecker:
    def __init__(self, state):
        self.state = state
        self.model = reference.context_model(state.h.attributes, state.h.rows)
        self.rankings = {}

    def ranking(self, kb):
        if kb not in self.rankings:
            self.rankings[kb] = reference.rank_context(self.model, self.state.kbs[kb])
        return self.rankings[kb]

    def names(self, members):
        return [self.state.h.objects[i] for i in sorted(members)]

    def expected(self, key):
        command = key[0]
        state, model = self.state, self.model
        if command == "extension":
            names = self.names(model.ext(state.formulas[key[1]][0]))
            return (0, fingerprint(names), len(names))
        if command == "holds":
            ant, cons = state.formulas[key[1]]
            counter = self.names(model.violators(ant, cons))
            return (0 if not counter else 1, not counter, fingerprint(counter))
        if command == "entail":
            ant, cons = state.formulas[key[2]]
            verdict, rank = reference.entails(model, self.ranking(key[1]), ant, cons)
            return (0 if verdict else 1, verdict, rank)
        if command == "validate":
            valid = self.ranking(key[1]) is not None
            return (0 if valid else 1, valid)
        if command == "rank":
            strata = self.ranking(key[1]).strata
            return (0, fingerprint(
                (r, name) for r, s in enumerate(strata) for name in self.names(s)
            ))
        rows = []
        for ant, cons in state.probes:
            before, _ = reference.entails(model, self.ranking("base"), ant, cons)
            after, _ = reference.entails(model, self.ranking("extended"), ant, cons)
            rows.append(
                (gen.render_conditional(ant, cons), before, after, diff_label(before, after))
            )
        return (0, tuple(rows))


# --- ctx-session ----------------------------------------------------------------


class CtxSession:
    """Library queries and updates against one loaded ClosureSession."""

    name = "ctx-session"
    # A cycle is BLOCKS blocks of 19 reads and one write. The reads step
    # through the whole query pool once per cycle and the writes step
    # through the updates, so every cycle has the same mix.
    BLOCK = 20
    BLOCKS = 4
    QUERIES = BLOCKS * (BLOCK - 1)
    UPDATES = 16
    PROBES = 20
    cycle = BLOCKS * BLOCK
    trace_ops = cycle

    def setup(self, dfca, workdir, seed, size):
        rng = gen.make_rng(seed, self.name)
        h = gen.hierarchy(rng, size["session_objects"])
        kb = gen.hierarchy_kb()
        queries = gen.template_queries(rng, h, self.name, self.QUERIES)
        updates = [gen.random_update(rng, h, i) for i in range(self.UPDATES)]
        probes = [gen.random_probe(rng, h, i) for i in range(self.PROBES)]
        cxt = write(os.path.join(workdir, "context.cxt"), h.cxt_text())
        context = dfca.fileio.load_context(cxt)
        parse = dfca.formula.parse_conditional
        base = dfca.closure.ClosureSession(
            context, [parse(gen.render_conditional(*c)) for c in kb]
        )
        return State(
            h=h,
            kb=kb,
            queries=queries,
            query_texts=[gen.render_conditional(*q) for q in queries],
            updates=updates,
            update_texts=[gen.render_conditional(*u) for u in updates],
            probes=probes,
            parsed_probes=[parse(gen.render_conditional(*p)) for p in probes],
            base=base,
        )

    def prepare(self, dfca, state, k):
        parse = dfca.formula.parse_conditional
        block, step = divmod(k, self.BLOCK)
        if step < self.BLOCK - 1:
            i = (block * (self.BLOCK - 1) + step) % self.QUERIES
            text = state.query_texts[i]
            return Op(
                "query",
                ("entails", i),
                lambda: state.base.entails(parse(text)),
                lambda verdict: verdict,
            )
        j = block % self.UPDATES
        text = state.update_texts[j]

        def update():
            after = state.base.add_conditional(parse(text))
            return after, dfca.closure.entailment_diff(state.base, after, state.parsed_probes)

        def digest(result):
            after, triples = result
            return (
                fingerprint(after.ranked.ranking.ranks),
                tuple((before, now) for _, before, now in triples),
            )

        return Op("update", ("update", j), update, digest)

    def checker(self, state):
        return CtxSessionChecker(state)


class CtxSessionChecker:
    def __init__(self, state):
        self.state = state
        self.model = reference.context_model(state.h.attributes, state.h.rows)
        self.base = reference.rank_context(self.model, state.kb)

    def expected(self, key):
        state, model = self.state, self.model
        if key[0] == "entails":
            verdict, _ = reference.entails(model, self.base, *state.queries[key[1]])
            return verdict
        after = reference.rank_context(model, state.kb + [state.updates[key[1]]])
        return (
            fingerprint(after.rank_list(model.n)),
            tuple(
                (
                    reference.entails(model, self.base, *p)[0],
                    reference.entails(model, after, *p)[0],
                )
                for p in state.probes
            ),
        )


# --- ctx-preferential -----------------------------------------------------------


class CtxPreferential:
    """Satisfaction against a layered partial order, with order rebuilds."""

    name = "ctx-preferential"
    # A cycle is, for each of the ORDERS orders in turn, BLOCK reads on the
    # current order and a reload of the next one, then one round trip. The
    # reads step through the whole query pool, so every cycle has the same
    # mix. Reads are 80% of operations, so the median of all operations
    # falls inside them; reloads are four of the five writes, so the
    # median of the writes and the 90th percentile of all operations fall
    # inside the reloads.
    ORDERS = 4
    BLOCK = 5
    QUERIES = ORDERS * BLOCK
    SAMPLE = 16
    cycle = ORDERS * (BLOCK + 1) + 1
    trace_ops = 2 * cycle

    def setup(self, dfca, workdir, seed, size):
        rng = gen.make_rng(seed, self.name)
        n = size["pref_objects"]
        h = gen.hierarchy(rng, n)
        kb = gen.hierarchy_kb()
        orders = [gen.layered_order(rng, n, size["pref_layers"]) for _ in range(self.ORDERS)]
        queries = gen.template_queries(rng, h, self.name, self.QUERIES)
        cxt = write(os.path.join(workdir, "context.cxt"), h.cxt_text())
        order_paths = [
            write(os.path.join(workdir, f"order{i}.txt"), gen.order_text(h.objects, pairs))
            for i, pairs in enumerate(orders)
        ]
        context = dfca.fileio.load_context(cxt)
        order = dfca.fileio.load_order(order_paths[0], context)
        parse = dfca.formula.parse_conditional
        session = dfca.closure.ClosureSession(
            context, [parse(gen.render_conditional(*c)) for c in kb]
        )
        return State(
            h=h,
            kb=kb,
            orders=orders,
            order_paths=order_paths,
            queries=queries,
            query_texts=[gen.render_conditional(*q) for q in queries],
            context=context,
            current=0,
            preferential=dfca.order.PreferentialContext(context, order),
            session=session,
        )

    def prepare(self, dfca, state, k):
        position = k % self.cycle
        block, step = divmod(position, self.BLOCK + 1)
        if block < self.ORDERS and step == self.BLOCK:
            target = (state.current + 1) % self.ORDERS

            def reload():
                order = dfca.fileio.load_order(state.order_paths[target], state.context)
                state.preferential = dfca.order.PreferentialContext(state.context, order)
                state.current = target
                return order

            return Op(
                "update",
                ("reload", target),
                reload,
                lambda order: fingerprint(order.successors(i) for i in range(order.size)),
            )
        if block == self.ORDERS:

            def round_trip():
                order = dfca.order.order_from_ranks(state.session.ranked.ranking)
                return order, dfca.order.ranks_from_order(order)

            def digest(result):
                order, ranking = result
                return (
                    fingerprint(ranking.ranks),
                    tuple(order.successors(i) for i in range(self.SAMPLE)),
                )

            return Op("update", ("round-trip",), round_trip, digest)
        i = block * self.BLOCK + step
        text = state.query_texts[i]
        parse = dfca.formula.parse_conditional
        return Op(
            "query",
            ("satisfies", state.current, i),
            lambda: state.preferential.satisfies(parse(text)),
            lambda verdict: verdict,
        )

    def checker(self, state):
        return CtxPreferentialChecker(state)


class CtxPreferentialChecker:
    def __init__(self, state):
        self.state = state
        self.model = reference.context_model(state.h.attributes, state.h.rows)
        self.below = {}

    def predecessors(self, which):
        if which not in self.below:
            self.below[which] = reference.layered_predecessors(
                self.model.n, self.state.orders[which]
            )
        return self.below[which]

    def expected(self, key):
        model = self.model
        if key[0] == "satisfies":
            ant, cons = self.state.queries[key[2]]
            return reference.preferential_satisfies(
                model, self.predecessors(key[1]), ant, cons
            )
        if key[0] == "reload":
            return fingerprint(reference.successor_masks(self.predecessors(key[1])))
        ranks = reference.rank_context(model, self.state.kb).rank_list(model.n)
        sample = tuple(
            sum(1 << j for j in range(model.n) if ranks[j] > ranks[i])
            for i in range(CtxPreferential.SAMPLE)
        )
        return (fingerprint(ranks), sample)


# --- prop-closure ---------------------------------------------------------------


class PropClosureWorkload:
    """CLI base ranking and rational-closure queries over statement files."""

    name = "prop-closure"
    RANDOM_BASES = 4
    # Every cycle asks the same queries. Costs are set mostly by the base,
    # so the operations sort into groups: every baserank and the queries of
    # the two cheapest bases form one spread of similar costs, the other
    # queries cost a third more and up. Ranking each base twice (text, then
    # --json) makes that cheap spread 16 of the 25 operations, so the median
    # of all operations falls inside it rather than at its top edge, and the
    # median of the 10 writes falls on the middle base's pair.
    QUERIES = 3  # per base
    PER_FILE = 2 + QUERIES  # baserank, the rcprop queries, baserank --json
    cycle = PER_FILE * (1 + RANDOM_BASES)
    trace_ops = 2 * cycle

    def setup(self, dfca, workdir, seed, size):
        rng = gen.make_rng(seed, self.name)
        n = size["prop_atoms"]
        bases, queries = gen.prop_bases(rng, n, self.RANDOM_BASES, self.QUERIES)
        paths = [
            write(os.path.join(workdir, f"base{i}.txt"), gen.statement_lines(b))
            for i, b in enumerate(bases)
        ]
        # the initial load and ranking of every base
        for path in paths:
            dfca.propositional.base_rank(dfca.fileio.load_prop_statements(path))
        return State(n=n, bases=bases, queries=queries, paths=paths)

    def prepare(self, dfca, state, k):
        which, step = divmod(k % self.cycle, self.PER_FILE)
        path = state.paths[which]
        if step in (0, self.PER_FILE - 1):
            as_json = step > 0
            return cli_op(
                "update", ("baserank", which, as_json), ["baserank", path], as_json,
                dfca.cli.run,
            )
        as_json = step == 2
        i = step - 1
        query = gen.render_conditional(*state.queries[which][i])
        return cli_op(
            "query", ("rcprop", which, i, as_json), ["rcprop", path, query], as_json,
            dfca.cli.run,
        )

    def checker(self, state):
        return PropClosureChecker(state)


class PropClosureChecker:
    def __init__(self, state):
        self.state = state
        self.model = reference.world_model(gen.prop_atoms(state.n))
        self.closures = {}

    def closure(self, which):
        if which not in self.closures:
            statements = self.state.bases[which]
            self.closures[which] = reference.PropClosure(
                self.model, statements, [gen.statement_text(s) for s in statements]
            )
        return self.closures[which]

    def expected(self, key):
        closure = self.closure(key[1])
        if key[0] == "baserank":
            return (0, closure.strata, closure.infinite, len(closure.strata))
        verdict, rank = closure.decide(*self.state.queries[key[1]][key[2]])
        return (0 if verdict else 1, verdict, rank)


WORKLOADS = {
    w.name: w for w in (CliContext(), CtxSession(), CtxPreferential(), PropClosureWorkload())
}
