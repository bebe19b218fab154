"""Run-time spans around the package's public functions, for the traced run.

``Tracer.install`` replaces each listed function or method with a wrapper
in every ``dfca`` module namespace that holds it (a function imported with
``from . import`` lives in several) and on its class for methods;
``uninstall`` puts the originals back. A span records its name, start,
end, parent span and operation id, and stays in memory until the run
ends. A call made while a span of the same name is open (recursion, or
one minimisation delegating to another) joins that span.

Self time is a span's duration minus the durations of its child spans.
The package is single-threaded, so children never overlap.
"""

import json
import os
import sys
import time
from collections import Counter, defaultdict

# (span name, dotted target inside the package)
SPANS = [
    ("fileio.load_context", "fileio.load_context"),
    ("fileio.load_statements", "fileio.load_conditionals"),
    ("fileio.load_statements", "fileio.load_prop_statements"),
    ("fileio.load_order", "fileio.load_order"),
    ("context.build", "context.FormalContext.__init__"),
    ("formula.parse", "formula.parse_formula"),
    ("formula.parse", "formula.parse_conditional"),
    ("formula.bind", "formula.bind"),
    ("formula.extension", "formula.extension"),
    ("order.minimise", "order.StrictOrder.minimise"),
    ("order.minimise", "order.PreferentialContext.minimise_objects"),
    ("order.minimise", "order.RankedContext.minimise_objects"),
    ("order.satisfies", "order.PreferentialContext.satisfies"),
    ("order.satisfies", "order.RankedContext.satisfies"),
    ("order.closure", "order.StrictOrder.__init__"),
    ("order.from_ranks", "order.order_from_ranks"),
    ("order.ranks_from_order", "order.ranks_from_order"),
    ("ranking.object_rank", "ranking.object_rank"),
    ("ranking.delta_valid", "ranking.delta_valid"),
    ("closure.session", "closure.ClosureSession.__init__"),
    ("closure.entails", "closure.ClosureSession.entails"),
    ("closure.diff", "closure.entailment_diff"),
    ("propositional.base_rank", "propositional.base_rank"),
    ("propositional.rc_decision", "propositional.rc_decision"),
    ("propositional.prop_entails", "propositional.prop_entails"),
    ("cli.run", "cli.run"),
]

# counted on every call, without a span
COUNTED = [
    ("bitsets.iter_indices", "bitsets.iter_indices"),
    ("bitsets.from_indices", "bitsets.from_indices"),
]

S, COUNT, BYTES = "s", "count", "bytes"

# per-layer metric name -> unit, in report order
METRICS = {
    "fileio.load_context.s": S,
    "fileio.load_context.calls": COUNT,
    "fileio.load_statements.s": S,
    "fileio.load_order.s": S,
    "fileio.bytes_read": BYTES,
    "context.build.s": S,
    "context.build.calls": COUNT,
    "context.incidences": COUNT,
    "formula.parse.s": S,
    "formula.bind.s": S,
    "formula.extension.s": S,
    "formula.extension.calls": COUNT,
    "order.minimise.s": S,
    "order.minimise.calls": COUNT,
    "order.minimise.members": COUNT,
    "order.satisfies.s": S,
    "order.closure.s": S,
    "order.closure.pairs_in": COUNT,
    "order.from_ranks.s": S,
    "order.ranks_from_order.s": S,
    "ranking.object_rank.s": S,
    "ranking.object_rank.calls": COUNT,
    "ranking.strata": COUNT,
    "ranking.delta_valid.s": S,
    "closure.session.s": S,
    "closure.session.calls": COUNT,
    "closure.entails.s": S,
    "closure.entails.calls": COUNT,
    "closure.diff.s": S,
    "propositional.base_rank.s": S,
    "propositional.base_rank.calls": COUNT,
    "propositional.rc_decision.s": S,
    "propositional.prop_entails.s": S,
    "propositional.prop_entails.calls": COUNT,
    "propositional.valuations": COUNT,
    "bitsets.iter_indices.calls": COUNT,
    "bitsets.iter_indices.items": COUNT,
    "bitsets.from_indices.calls": COUNT,
    "cli.run.s": S,
    "cli.output_bytes": BYTES,
}

COMPUTED = {
    "propositional.valuations": "2**(atoms mentioned) summed over prop_entails "
    "calls, computed from the call arguments",
}


def _resolve(dfca, dotted):
    """(owner, attribute name, original) for a dotted path below the package."""
    parts = dotted.split(".")
    owner = getattr(dfca, parts[0])
    for part in parts[1:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1], getattr(owner, parts[-1])


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.stack = []
        self.op = None
        self.counts = Counter()
        self.entailment_args = []
        self._patched = []
        # counters read from a span's arguments before the call, or from its result
        self._before = {
            "fileio.load_context": self._count_bytes,
            "fileio.load_statements": self._count_bytes,
            "fileio.load_order": self._count_bytes,
            "context.build": self._count_incidences,
            "order.minimise": self._count_members,
            "order.closure": self._count_pairs,
            "propositional.prop_entails": self._keep_entailment,
        }
        self._after = {
            "ranking.object_rank": self._count_strata,
            "cli.run": self._count_output,
        }

    # --- recording -----------------------------------------------------------

    def open(self, name):
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(index)
        return index

    def close(self, index):
        self.spans[index][2] = time.perf_counter()
        self.stack.pop()

    def _span_wrapper(self, name, fn):
        tracer = self
        before = self._before.get(name)
        after = self._after.get(name)

        def wrapper(*args, **kwargs):
            if tracer.stack and tracer.spans[tracer.stack[-1]][0] == name:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(result)
            return result

        return wrapper

    def _count_wrapper(self, name, fn):
        counts = self.counts
        calls = name + ".calls"
        items = name + ".items"

        def wrapper(*args, **kwargs):
            counts[calls] += 1
            if isinstance(args[0], int):
                counts[items] += args[0].bit_count()
            return fn(*args, **kwargs)

        return wrapper

    # --- per-span counters -----------------------------------------------------

    def _count_bytes(self, args, kwargs):
        try:
            self.counts["fileio.bytes_read"] += os.path.getsize(args[0])
        except OSError:
            pass  # the loader itself reports the missing file
        return args, kwargs

    def _count_incidences(self, args, kwargs):
        # FormalContext(self, objects, attributes, incidence)
        rows = tuple(args[3])
        self.counts["context.incidences"] += sum(r.bit_count() for r in rows)
        return args[:3] + (rows,) + args[4:], kwargs

    def _count_members(self, args, kwargs):
        self.counts["order.minimise.members"] += args[1].bit_count()
        return args, kwargs

    def _count_pairs(self, args, kwargs):
        # StrictOrder(self, size, pairs=())
        if len(args) > 2:
            pairs = list(args[2])
            args = args[:2] + (pairs,) + args[3:]
        else:
            pairs = kwargs["pairs"] = list(kwargs.get("pairs", ()))
        self.counts["order.closure.pairs_in"] += len(pairs)
        return args, kwargs

    def _keep_entailment(self, args, kwargs):
        premises = list(args[0])
        self.entailment_args.append((premises, args[1]))
        return (premises,) + args[1:], kwargs

    def _count_strata(self, result):
        self.counts["ranking.strata"] += len(result[1].strata)

    def _count_output(self, result):
        self.counts["cli.output_bytes"] += len(result.text.encode("utf-8"))

    # --- patching --------------------------------------------------------------

    def install(self, dfca):
        modules = [m for n, m in sys.modules.items() if n == "dfca" or n.startswith("dfca.")]
        targets = [(name, path, self._span_wrapper) for name, path in SPANS]
        targets += [(name, path, self._count_wrapper) for name, path in COUNTED]
        for name, path, make in targets:
            owner, attr, original = _resolve(dfca, path)
            wrapper = make(name, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)

    def _patch(self, owner, attr, wrapper):
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # --- results ---------------------------------------------------------------

    def metrics(self, dfca):
        """Every per-layer metric: self times per span name, and the counters."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_time = defaultdict(float)
        calls = Counter()
        for index, (name, start, end, _, _) in enumerate(self.spans):
            self_time[name] += end - start - child[index]
            calls[name] += 1
        names = {}
        valuations = 0
        for premises, conclusion in self.entailment_args:
            atoms = set()
            for formula in premises + [conclusion]:
                key = id(formula)
                if key not in names:
                    names[key] = dfca.propositional.atom_names(formula)
                atoms |= names[key]
            valuations += 2 ** len(atoms)
        values = dict(self.counts)
        values["propositional.valuations"] = valuations
        out = {}
        for metric, unit in METRICS.items():
            stem, _, what = metric.rpartition(".")
            if what == "s":
                out[metric] = self_time.get(stem, 0.0)
            elif what == "calls" and stem in calls:
                out[metric] = calls[stem]
            else:
                out[metric] = values.get(metric, 0)
        return out

    def write(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")
