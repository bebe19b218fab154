"""Seeded end-to-end and per-layer benchmark for the dfca package.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload ctx-session --seed 1 --seconds 25 --trace 0

The package is imported from ``src/`` of that checkout and nothing else.
Inputs are generated from ``--seed`` into ``.perfbench/`` under the
checkout and removed afterwards. Each workload is a closed loop with one
client in one thread.

``--trace 0`` sets up the workload several times (reporting the median
set-up time), then runs whole cycles of operations until ``--seconds`` of
operation time have passed, and reports the end-to-end metrics: operation
times scaled to a reference host (see REFERENCE_LOOP_S), and by the wall
clock.
``--trace 1`` runs a fixed number of whole cycles three times over the same
inputs (plain, with spans around every public layer, plain again) and
reports the per-layer metrics and the tracing overhead; the spans go to
``.perfbench/traces/``.

Every answer is checked against the independent reference in
``reference.py`` after the timed loop. The last line of standard output is
a JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from collections import namedtuple

import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK_ROOT = os.path.join(ROOT, ".perfbench")

SETUP_REPEATS = 5
MIN_OPS = 120  # at least 12 samples beyond the 90th percentile
LOOP_WALL_CAP_S = 110.0

# The host's speed drifts by a third over minutes (other tenants, clock
# changes), and the drift slows every operation alike. So each operation,
# and each set-up, is also timed against a fixed pure-Python loop
# (``calibration_loop``) run just before and just after it, and its time
# is scaled to a reference host on which that loop takes REFERENCE_LOOP_S
# (about its time on a 2-vCPU Xeon (Sapphire Rapids) VM). A ref-ms is a
# millisecond on that reference host. Scaled times change when the program
# does, not when the host does; the bounded metrics use them, and the
# wall-clock figures are printed beside them.
REFERENCE_LOOP_S = 0.0008
CALIBRATION_ITERATIONS = 1_500

END_TO_END = {
    "setup_s": "s",
    "ops_per_ref_s": "ops/ref-s",
    "latency_p50_ref_ms": "ref-ms",
    "latency_p90_ref_ms": "ref-ms",
    "query_p50_ref_ms": "ref-ms",
    "update_p50_ref_ms": "ref-ms",
    "peak_rss_mb": "MB",
}
WALL_CLOCK = {
    "ops_per_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "query_p50_ms": "ms",
    "update_p50_ms": "ms",
    "setup_wall_s": "s",
}

# one timed operation; ``ref_ms`` is its time in ref-ms, ``loop_s`` the
# calibration loop's time measured after it
Record = namedtuple("Record", "category seconds ref_ms loop_s key digest")


def import_package():
    """Import dfca from this checkout's src/, refusing any other copy."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        dfca = importlib.import_module("dfca")
        for module in ("cli", "closure", "fileio", "formula", "order", "propositional",
                       "ranking", "bitsets", "context"):
            importlib.import_module(f"dfca.{module}")
    except ImportError as exc:
        sys.exit(f"cannot import dfca from {src}: {exc}")
    if not os.path.abspath(dfca.__file__).startswith(src + os.sep):
        sys.exit(f"dfca was imported from {dfca.__file__}, not from {src}")
    return dfca


def run_ops(workload, dfca, state, *, budget_s=None, count=None, tracer=None):
    """Execute operations in a closed loop; records hold the timing and the digest.

    Stops after ``count`` operations, or at the end of the first cycle by
    which ``budget_s`` of operation time has passed and MIN_OPS have run.
    The operation sequence depends only on the workload and its inputs.
    """
    # Objects alive now (inputs, sessions, the benchmark's own state) are
    # moved out of the collector's reach, so a full collection during an
    # operation costs about the same whatever the benchmark holds.
    gc.collect()
    gc.freeze()
    try:
        return _loop(workload, dfca, state, budget_s, count, tracer)
    finally:
        gc.unfreeze()


def _loop(workload, dfca, state, budget_s, count, tracer):
    records = []
    busy = 0.0
    wall_start = time.perf_counter()
    loop_before = calibration_loop()
    for k in itertools.count():
        if count is not None:
            if k >= count:
                break
        elif busy >= budget_s and k >= MIN_OPS and k % workload.cycle == 0:
            break
        if time.perf_counter() - wall_start > LOOP_WALL_CAP_S:
            break
        op = workload.prepare(dfca, state, k)
        if tracer is not None:
            tracer.op = k
            span = tracer.open("bench.op")
        start = time.perf_counter()
        try:
            raw, error = op.call(), None
        except Exception as exc:  # an unexpected exception is a failed op
            raw, error = None, exc
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.close(span)
        busy += elapsed
        if error is not None:
            digest = ("exception", repr(error))
        else:
            try:
                digest = op.digest(raw)
            except Exception as exc:  # an unreadable answer is a failed op
                digest = ("unreadable", repr(exc))
        raw = None
        loop_after = calibration_loop()
        ref_ms = 1000.0 * to_reference(elapsed, loop_before, loop_after)
        records.append(Record(op.category, elapsed, ref_ms, loop_after, op.key, digest))
        loop_before = loop_after
    return records, busy


def verify(workload, state, records):
    """Count records whose digest differs from the reference's; report a few."""
    checker = workload.checker(state)
    expected = {}
    failed = 0
    for r in records:
        if r.key not in expected:
            expected[r.key] = checker.expected(r.key)
        if r.digest != expected[r.key]:
            failed += 1
            if failed <= 5:
                print(
                    f"mismatch on {r.key}: got {r.digest!r}, expected {expected[r.key]!r}",
                    file=sys.stderr,
                )
    return failed


def calibration_loop():
    """Seconds a fixed pure-Python loop takes: the host's speed at this moment.

    The loop mixes the kinds of interpreter work the package does (big
    integer shifts and masks, string formatting, dict and set updates,
    sorting), so a slower host slows it about as much as an operation; a
    plain arithmetic loop slowed less than the operations did.
    """
    start = time.perf_counter()
    seen, counts = set(), {}
    bits = (1 << 2000) - 12345
    for i in range(CALIBRATION_ITERATIONS):
        name = f"x{i % 97}"
        counts[name] = counts.get(name, 0) + ((bits >> (i % 300)) & 0xFFFF)
        seen.add(i & 255)
        if i % 100 == 0:
            sorted(seen)
    return time.perf_counter() - start


def to_reference(seconds, loop_before, loop_after):
    """``seconds`` measured between two calibration loops, scaled to the reference host."""
    return seconds * 2.0 * REFERENCE_LOOP_S / (loop_before + loop_after)


def timing(records, millis):
    """Operations per 1000 time units, and latency percentiles, of per-op times."""
    queries = [t for r, t in zip(records, millis) if r.category == "query"]
    updates = [t for r, t in zip(records, millis) if r.category == "update"]
    return (
        1000.0 * len(millis) / sum(millis),
        statistics.median(millis),
        statistics.quantiles(millis, n=10, method="inclusive")[8],
        statistics.median(queries),
        statistics.median(updates),
    )


def end_to_end(records, setup_times):
    """The bounded metrics, in reference-host units, and the same by the wall clock.

    ``setup_times`` holds (wall-clock seconds, reference seconds) pairs.
    """
    ref = timing(records, [r.ref_ms for r in records])
    wall = timing(records, [1000.0 * r.seconds for r in records])
    names = ("ops_per_ref_s", "latency_p50_ref_ms", "latency_p90_ref_ms",
             "query_p50_ref_ms", "update_p50_ref_ms")
    bounded = dict(zip(names, ref))
    bounded["setup_s"] = statistics.median(ref_s for _, ref_s in setup_times)
    bounded["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wall_clock = dict(zip(("ops_per_s", "latency_p50_ms", "latency_p90_ms",
                           "query_p50_ms", "update_p50_ms"), wall))
    wall_clock["setup_wall_s"] = statistics.median(wall_s for wall_s, _ in setup_times)
    return bounded, wall_clock


def timed_setup(workload, dfca, seed, size, workdir, tracer=None):
    path = tempfile.mkdtemp(dir=workdir)
    if tracer is not None:
        tracer.op = "setup"
        span = tracer.open("bench.setup")
    start = time.perf_counter()
    state = workload.setup(dfca, path, seed, size)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(span)
    return state, elapsed


def measure(workload, dfca, args, size, workdir):
    """End-to-end metrics: median set-up time, then a timed closed loop."""
    setup_times = []
    state = None
    for _ in range(SETUP_REPEATS):
        state = None  # free the previous copy before building the next
        loop_before = calibration_loop()
        state, elapsed = timed_setup(workload, dfca, args.seed, size, workdir)
        reference_s = to_reference(elapsed, loop_before, calibration_loop())
        setup_times.append((elapsed, reference_s))
    records, busy = run_ops(workload, dfca, state, budget_s=args.seconds)
    metrics, wall_clock = end_to_end(records, setup_times)
    failed = verify(workload, state, records)
    n_query = sum(1 for r in records if r.category == "query")
    loops = statistics.quantiles([1000.0 * r.loop_s for r in records], n=4)
    print(f"workload: {workload.name} (closed loop, 1 client, seed {args.seed})")
    print(
        f"samples: {len(records)} ops ({n_query} queries, {len(records) - n_query} "
        f"updates) in {busy:.2f} s of operation time; set-up x{SETUP_REPEATS}"
    )
    print(
        f"calibration loop: median {loops[1]:.3f} ms, quartiles {loops[0]:.3f} "
        f"and {loops[2]:.3f} ms; times are scaled to {1000 * REFERENCE_LOOP_S:.1f} ms"
    )
    for name, unit in END_TO_END.items():
        print(f"{name}: {metrics[name]:.6g} {unit}")
    for name, unit in WALL_CLOCK.items():
        print(f"{name}: {wall_clock[name]:.6g} {unit}  (wall clock, not bounded)")
    print(f"fail_frac: {failed / len(records):.6g} ratio")
    return len(records), failed, {
        name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END.items()
    }


def trace(workload, dfca, args, size, workdir):
    """Per-layer metrics from one traced set-up and a fixed number of operations.

    The same operations also run untraced just before and just after the
    traced pass; their mean time is the base for the tracing overhead.
    """
    count = workload.trace_ops

    def plain_pass():
        state, _ = timed_setup(workload, dfca, args.seed, size, workdir)
        return run_ops(workload, dfca, state, count=count)

    before, _ = plain_pass()
    tracer = spans.Tracer()
    tracer.install(dfca)
    try:
        state, _ = timed_setup(workload, dfca, args.seed, size, workdir, tracer)
        traced, _ = run_ops(workload, dfca, state, count=count, tracer=tracer)
    finally:
        tracer.uninstall()
    after, _ = plain_pass()
    # in reference-host seconds, so that a drift of host speed between the
    # passes does not show as overhead
    traced_busy = sum(r.ref_ms for r in traced) / 1000.0
    plain_busy = sum(r.ref_ms for r in before + after) / 2000.0
    metrics = tracer.metrics(dfca)
    records = before + traced + after
    failed = verify(workload, state, records)
    tracer.write(os.path.join(WORK_ROOT, "traces", f"{workload.name}-seed{args.seed}.jsonl"))
    print(f"workload: {workload.name} (traced, {count} ops, seed {args.seed})")
    for name, unit in spans.METRICS.items():
        note = f"  (computed: {spans.COMPUTED[name]})" if name in spans.COMPUTED else ""
        print(f"{name}: {metrics[name]:.6g} {unit}{note}")
    print(
        f"tracing overhead: {100.0 * (traced_busy / plain_busy - 1.0):+.1f}% "
        f"({traced_busy:.3f} s traced against {plain_busy:.3f} s untraced, scaled, "
        f"the mean of a pass before and after, {count} ops each)"
    )
    print(f"fail_frac: {failed / len(records):.6g} ratio")
    return len(records), failed, {
        name: {"value": metrics[name], "unit": unit} for name, unit in spans.METRICS.items()
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--tiny", action="store_true", help="tiny inputs, for the smoke test"
    )
    args = parser.parse_args(argv)
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    dfca = import_package()
    size = workloads.SIZES["tiny" if args.tiny else "full"]
    os.makedirs(WORK_ROOT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=WORK_ROOT)
    try:
        run = trace if args.trace else measure
        attempted, failed, metrics = run(workload, dfca, args, size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))


if __name__ == "__main__":
    main()
