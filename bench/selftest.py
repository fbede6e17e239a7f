"""Self-test of the benchmark harness (not of the program):

    python -m pytest bench/selftest.py -q

Every workload at toy size, the ``BENCHMARK.json`` schema, exact
repeatability of counts and simulated values, and that the span
wrappers leave every object as they found it.
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import compare  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from spans import SpanRecorder  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}\Z")
NAMES = [name for name, _ in spec.WORKLOADS]


@pytest.fixture(scope="session", autouse=True)
def leave_no_process_behind():
    yield
    run.stop_children()


def test_benchmark_json_matches_the_contract():
    committed = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert committed == spec.benchmark_json()
    assert list(committed) == ["command", "paths", "run_seconds",
                               "workloads", "end_to_end", "per_layer"]
    assert committed["paths"] == ["bench"]
    assert isinstance(committed["run_seconds"], int)
    assert 1 <= committed["run_seconds"] <= 60
    assert 2 <= len(committed["workloads"]) <= 8
    assert 1 <= len(committed["end_to_end"]) <= 16
    assert 1 <= len(committed["per_layer"]) <= 128
    for w in committed["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in committed["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in committed["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = [m for m in committed["end_to_end"] if m["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(m["bound"]
                                   for m in committed["end_to_end"])}]
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer")
             for x in committed[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for m in committed["end_to_end"] + committed["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    assert set(workloads.WORKLOADS) == set(NAMES)


def test_driver_passes_no_tuning_knob():
    source = (run.BENCH_DIR / "workloads.py").read_text()
    code = source.split('"""', 2)[2]
    for knob in ("wire", "kernel", "layout", "autotune", "sparse_threshold",
                 "max_workers", "overlap", "compression", "decomposition",
                 "cuts"):
        assert not re.search(rf"[(,]\s*{knob}\s*=(?!=)", code), knob


@pytest.mark.parametrize("name", NAMES)
def test_toy_untraced(name):
    record = run.run_untraced(name, seed=7, seconds=60.0, toy=True, max_ops=2)
    assert record["correct"], record
    assert record["attempted"] == 2 and record["failed"] == 0
    assert set(record["metrics"]) == {n for n, *_ in spec.END_TO_END}
    assert all(m["value"] > 0 for m in record["metrics"].values())


@pytest.mark.parametrize("name", NAMES)
def test_toy_traced_counts_repeat_exactly(name):
    first = run.run_traced(name, seed=7, seconds=0.2, toy=True)
    second = run.run_traced(name, seed=7, seconds=0.2, toy=True)
    assert first["correct"] and second["correct"]
    assert list(first["metrics"]) == [n for n, *_ in spec.PER_LAYER]
    for metric, unit, _ in spec.PER_LAYER:
        if unit in compare.EXACT_UNITS or metric.startswith("sim_"):
            assert (first["metrics"][metric]["value"]
                    == second["metrics"][metric]["value"]), metric


def test_span_wrappers_restore_the_original_methods():
    w = workloads.StrongSerial(7, toy=True)
    w.setup()
    try:
        cluster = w.cluster
        objects = [cluster, cluster.switch]
        for node in cluster.nodes:
            objects += [node, node.solver]
        before = [set(vars(obj)) for obj in objects]
        original_step = cluster.step
        rec = SpanRecorder()
        rec.install_cluster(cluster)
        assert "step" in vars(cluster) and cluster.step != original_step
        cluster.step(1)
        assert {s[0] for s in rec.spans} >= {"cluster.step",
                                             "solver.collide_boundary",
                                             "node.read_packed"}
        rec.restore()
        assert [set(vars(obj)) for obj in objects] == before
        assert cluster.step == original_step
    finally:
        w.teardown()


def test_compare_verdicts():
    a = {"value": 10.0, "rounds": [9.9, 10.0, 10.1]}
    assert compare.verdict(a, {"value": 9.5, "rounds": [9.4, 9.5, 9.6]},
                           "higher", 0.10)[0] == "within"
    assert compare.verdict(a, {"value": 8.0, "rounds": [7.9, 8.0, 8.1]},
                           "higher", 0.10)[0] == "worse"
    assert compare.verdict(a, {"value": 9.5, "rounds": [7.0, 9.5, 12.0]},
                           "higher", 0.10)[0] == "unresolved"
    assert compare.verdict({"value": 316.66}, {"value": 316.67},
                           "lower", None)[0] == "worse"
