"""Smoke test of the benchmark at tiny sizes.

Runs every workload once untraced and once traced, as the benchmark
command would be run, and checks that every metric named in
BENCHMARK.json, and every wall-clock figure, is printed with its unit and
that every answer was right.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
    SPEC = json.load(handle)

WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace):
    command = SPEC["command"] + [
        "--workload", workload, "--seed", "7", "--seconds", "0.2",
        "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(
        command, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True
    )
    return done.stdout.strip().splitlines()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_failures(workload, trace):
    lines = run(workload, trace)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert any(
            line.startswith(f"{metric['name']}: ") and f" {metric['unit']}" in line
            for line in lines[:-1]
        ), metric["name"]
    assert "fail_frac: 0 ratio" in lines
    if not trace:
        for name in ("ops_per_s", "latency_p50_ms", "latency_p90_ms", "query_p50_ms",
                     "update_p50_ms", "setup_wall_s"):
            assert any(line.startswith(f"{name}: ") for line in lines), name
    if trace:
        assert any(line.startswith("tracing overhead: ") for line in lines)
        if workload == "prop-closure":
            untouched = ("bitsets.", "context.", "order.")
            for name, reported in result["metrics"].items():
                if name.startswith(untouched):
                    assert reported["value"] == 0, name
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_same_seed_same_inputs_and_other_seed_other_inputs():
    sys.path.insert(0, HERE)
    import gen

    def context_text(seed):
        return gen.hierarchy(gen.make_rng(seed, "cli-context"), 300).cxt_text()

    assert context_text(1) == context_text(1)
    assert context_text(1) != context_text(2)
    assert len(context_text(1)) == len(context_text(2))


def test_refuses_to_run_without_the_package(tmp_path):
    bare = tmp_path / "bare"
    (bare / "perfbench").mkdir(parents=True)
    for name in os.listdir(HERE):
        if name.endswith(".py"):
            with open(os.path.join(HERE, name), encoding="utf-8") as src:
                (bare / "perfbench" / name).write_text(src.read(), encoding="utf-8")
    (bare / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    done = subprocess.run(
        SPEC["command"] + ["--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert done.stdout == ""
