#!/usr/bin/env python3
"""The repo benchmark: whole-cluster-step throughput, six workloads.

    python bench/run.py                      every workload: 3 interleaved
                                             rounds + a traced pass, each
                                             in a fresh process
    python bench/run.py --workload NAME      the same for one workload
    python bench/run.py --compare A.json B.json
    python bench/run.py --regen-golden

    python bench/run.py --workload NAME --seed N --seconds S --trace 0|1
        one run in this process — the form the driver calls and the
        form the suite spawns for every round; the last stdout line is
        the result object.

See README.md for what every metric means.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"          # before numpy is imported

import argparse
import json
import multiprocessing
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

_IMPORT_T0 = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import compare  # noqa: E402
import probes  # noqa: E402
import spec  # noqa: E402
import workloads  # noqa: E402
from repro.core import leaked_segments  # noqa: E402

IMPORT_S = time.perf_counter() - _IMPORT_T0
OUT_DIR = BENCH_DIR / "out"
#: Suite shape: rounds per workload, seconds per round, child time limit.
ROUNDS = 3
ROUND_SECONDS = 6
CHILD_TIMEOUT_S = 180


def fastest(samples: list[float], pair: bool) -> float:
    """Seconds per operation that ``mlups`` is computed from: the fastest.

    Consecutive steps are averaged in pairs first, so a kernel whose
    even and odd steps cost differently (the AA pattern) is charged for
    both.  Then the minimum is taken, as ``timeit`` advises and STREAM
    does: a co-tenant of the reference host only ever adds time, in
    bursts of tens of seconds, which spread a 10-second run's *median*
    by 4-45 % over runs of the same code and its fastest pair by
    2-20 % (baseline/RESULTS.md).  The suite still prints the median
    and p90; this is the number that is gated.
    """
    if pair and len(samples) >= 4:
        samples = [(a + b) / 2 for a, b in zip(samples[::2], samples[1::2])]
    return min(samples)


def leak_count() -> int:
    """Shared segments left in /dev/shm plus worker processes still alive."""
    return len(leaked_segments()) + len(multiprocessing.active_children())


def stop_children() -> None:
    """Stop every process this one started and wait until each has ended.

    ``teardown`` joins the rank workers; this is the net under it for
    the paths that never reach a teardown.  What a clean run still owns
    is multiprocessing's resource tracker, started behind the first
    shared-memory segment: left alone it only notices this process's
    exit afterwards, and lives on as an orphan for a moment after the
    result line is out.  Every segment is unlinked by now, so nothing
    restarts it.
    """
    for proc in multiprocessing.active_children():
        proc.terminate()
        proc.join(5.0)
        if proc.is_alive():
            proc.kill()
            proc.join()
    from multiprocessing import resource_tracker
    tracker = resource_tracker._resource_tracker
    if getattr(tracker, "_pid", None) is None:
        return                      # never started
    if hasattr(tracker, "_stop"):
        tracker._stop()             # closes its pipe, then waitpid()
        return
    pid, fd = tracker._pid, tracker._fd
    tracker._pid = tracker._fd = None
    os.close(fd)
    os.waitpid(pid, 0)


def one_setup(name: str, seed: int, toy: bool, use=None):
    """Build a fresh instance, time its set-up, hand it to ``use``, tear
    it down.  Returns (setup parts, use's result, leaks after teardown)."""
    w = workloads.WORKLOADS[name](seed, toy)
    try:
        parts = w.setup()
        result = use(w) if use is not None else None
    finally:
        w.teardown()
    return parts, result, leak_count()


def closed_loop(w, seconds: float, max_ops: int | None):
    """One client calling ``op`` back to back; a raising op ends the loop."""
    samples: list[float] = []
    failed = 0
    deadline = time.perf_counter() + seconds
    while not samples or (time.perf_counter() < deadline
                          and (max_ops is None or len(samples) < max_ops)):
        t0 = time.perf_counter()
        try:
            w.op()
        except Exception:
            traceback.print_exc()
            failed = 1
            break
        samples.append(time.perf_counter() - t0)
    return samples, failed


def verify(w) -> tuple[float, list[float]]:
    return w.verify(), w.reference_step_s


def run_untraced(name: str, seed: int, seconds: float, toy: bool = False,
                 max_ops: int | None = None) -> dict:
    """End-to-end numbers: timed instance, verification instance, then
    the remaining set-ups.  Memory is read before the verification
    reference exists so it is the program's, not the harness's."""
    def timed(w):
        samples, failed = closed_loop(w, seconds, max_ops)
        rss = probes.peak_rss_mb()
        return samples, failed, rss, w.finite(), w.sim(), w.cells_per_op

    cls = workloads.WORKLOADS[name]
    parts, (samples, failed, rss, finite, sim, cells), leaked = one_setup(
        name, seed, toy, timed)
    setups = [sum(parts.values())]
    parts, (err, _), leaks = one_setup(name, seed, toy, verify)
    setups.append(sum(parts.values()))
    leaked += leaks
    while len(setups) < (2 if toy else cls.setups):
        parts, _, leaks = one_setup(name, seed, toy)
        setups.append(sum(parts.values()))
        leaked += leaks

    attempted = len(samples) + failed
    correct = bool(samples) and not failed and finite \
        and err <= cls.tolerance and not leaked
    step_s = fastest(samples, cls.pair_steps) if samples else float("nan")
    values = {"mlups": cells / step_s / 1e6,
              "setup_s": min(setups),
              "peak_rss_mb": rss}
    return {
        "workload": name, "seed": seed, "trace": 0, "correct": correct,
        "attempted": attempted, "failed": 0 if correct else attempted,
        "metrics": metric_objects(values),
        "samples": samples, "setup_samples": setups, "cells_per_op": cells,
        "pair_steps": cls.pair_steps,
        "ref_max_abs_err": err, "finite": finite, "leaked": leaked,
        "sim": sim,
    }


def run_traced(name: str, seed: int, seconds: float,
               toy: bool = False) -> dict:
    """Per-layer numbers: verification instance first (its reference
    steps time the single-domain baseline), then the traced instance."""
    noise = probes.NoiseProbe()
    noise.burst()
    copy = (probes.copy_bandwidth() if not toy else
            {"copy_gbs": 0.0, "array_mb": 0.0, "llc_mb": probes.llc_mb()})
    _, (err, reference_step_s), leaked = one_setup(name, seed, toy, verify)
    noise.burst()
    context = {"copy_gbs": copy["copy_gbs"],
               "reference_step_s": reference_step_s}
    ops = [0]

    def traced(w):
        inner = w.op

        def counted():
            ops[0] += 1
            inner()
        w.op = counted
        layers = w.layers(seconds, context)
        recorder = getattr(w, "recorder", None)
        if recorder is not None:
            OUT_DIR.mkdir(exist_ok=True)
            recorder.write_jsonl(OUT_DIR / f"trace-{name}.jsonl")
        return layers, w.finite(), w.sim()

    parts, (layers, finite, sim), leaks = one_setup(name, seed, toy, traced)
    leaked += leaks
    noise.burst()

    values = dict.fromkeys((n for n, *_ in spec.PER_LAYER), 0.0)
    known = {**parts, **sim, **layers,
             "core.shm.leaked_segments": leaked,
             "host.copy_gbs": copy["copy_gbs"],
             "host.copy_array_mb": copy["array_mb"],
             "host.llc_mb": copy["llc_mb"],
             "host.nproc": os.cpu_count(),
             "host.import_s": IMPORT_S,
             "host.noise_frac": noise.frac()}
    values.update({k: v for k, v in known.items() if k in values})
    correct = (finite and err <= workloads.WORKLOADS[name].tolerance
               and not leaked)
    attempted = max(ops[0], 1)
    return {
        "workload": name, "seed": seed, "trace": 1, "correct": correct,
        "attempted": attempted, "failed": 0 if correct else attempted,
        "metrics": metric_objects(values),
        "ref_max_abs_err": err, "finite": finite, "leaked": leaked,
    }


def metric_objects(values: dict) -> dict:
    return {name: {"value": float(value), "unit": spec.UNITS[name]}
            for name, value in values.items()}


def print_metrics(metrics: dict, indent: str = "") -> None:
    for name, m in metrics.items():
        extra = "".join(f"  {k}={m[k]:.6g}" if isinstance(m[k], float)
                        else f"  {k}={m[k]}"
                        for k in ("median", "p90", "n") if k in m)
        print(f"{indent}{name:<40} {m['value']:>14.6g} {m['unit']}{extra}")


def contract_run(args) -> int:
    """One workload, one process, result object on the last line."""
    if args.trace:
        record = run_traced(args.workload, args.seed, args.seconds)
    else:
        record = run_untraced(args.workload, args.seed, args.seconds)
    if args.record:
        Path(args.record).write_text(json.dumps(record))
    print_metrics(record["metrics"])
    print(json.dumps({k: record[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if record["correct"] else 1


# -- the suite -----------------------------------------------------------
def child(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    """One round in a fresh process (isolates RSS, imports, segments)."""
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"round-{name}-{trace}.json"
    path.unlink(missing_ok=True)
    # Its own process group: a round that hangs is killed with its rank
    # workers, which a kill of the round alone would orphan.
    done = subprocess.Popen(
        [sys.executable, str(Path(__file__).resolve()),
         "--workload", name, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace),
         "--record", str(path)],
        stdout=subprocess.DEVNULL, start_new_session=True)
    try:
        done.wait(CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(done.pid, signal.SIGKILL)
        done.wait()
        print(f"  {name}: no result within {CHILD_TIMEOUT_S} s")
        return None
    if not path.exists():
        print(f"  {name}: exit code {done.returncode}, no result")
        return None
    record = json.loads(path.read_text())
    path.unlink()
    return record


def pool(name: str, rounds: list[dict | None], traced: dict | None) -> dict:
    """Pool the rounds' step samples; only the pooled median is gated."""
    done = [r for r in rounds if r is not None]
    samples = [s for r in done for s in r["samples"]]
    attempted = sum(r["attempted"] for r in done) + (len(rounds) - len(done))
    failed = sum(r["failed"] for r in done) + (len(rounds) - len(done))
    end_to_end: dict = {}
    if samples:
        cells = done[0]["cells_per_op"]
        mlups = {"value": cells / fastest(samples,
                                          done[0]["pair_steps"]) / 1e6,
                 "rounds": [r["metrics"]["mlups"]["value"] for r in done],
                 "median": cells / statistics.median(samples) / 1e6,
                 "n": len(samples)}
        if len(samples) >= 100:
            # At the p90 step time: the rate the slowest tenth falls to.
            mlups["p90"] = cells / float(np.percentile(samples, 90)) / 1e6
        end_to_end["mlups"] = mlups
        setups = [s for r in done for s in r["setup_samples"]]
        end_to_end["setup_s"] = {
            "value": min(setups), "median": statistics.median(setups),
            "n": len(setups),
            "rounds": [r["metrics"]["setup_s"]["value"] for r in done]}
        rss = [r["metrics"]["peak_rss_mb"]["value"] for r in done]
        end_to_end["peak_rss_mb"] = {"value": max(rss), "rounds": rss}
        end_to_end["ref_max_abs_err"] = {
            "value": max(r["ref_max_abs_err"] for r in done)}
        for sim_name in ("sim_step_ms", "sim_paper_err"):
            seen = {r["sim"][sim_name] for r in done if sim_name in r["sim"]}
            if seen:
                end_to_end[sim_name] = {"value": max(seen),
                                        "exact": len(seen) == 1}
    end_to_end["failed_frac"] = {"value": failed / attempted,
                                 "failed": failed, "attempted": attempted}
    for metric, m in end_to_end.items():
        m["unit"] = spec.UNITS[metric]
    per_layer = traced["metrics"] if traced is not None else {}
    ok = (len(done) == len(rounds) and traced is not None and not failed
          and traced["correct"]
          and all(m.get("exact", True) for m in end_to_end.values()))
    return {"ok": ok, "end_to_end": end_to_end, "per_layer": per_layer}


def suite(names: list[str], seed: int) -> int:
    print(f"{len(names)} workloads x {ROUNDS} rounds x {ROUND_SECONDS} s "
          f"interleaved, then a traced pass; seed {seed}")
    rounds: dict[str, list] = {name: [] for name in names}
    for index in range(ROUNDS):
        for name in names:
            print(f"round {index + 1}/{ROUNDS}  {name}", flush=True)
            rounds[name].append(child(name, seed, ROUND_SECONDS, 0))
    traced = {}
    for name in names:
        print(f"traced  {name}", flush=True)
        traced[name] = child(name, seed, spec.RUN_SECONDS, 1)

    record = {**probes.fingerprint(), "seed": seed, "rounds": ROUNDS,
              "round_seconds": ROUND_SECONDS, "workloads": {}}
    for name in names:
        record["workloads"][name] = pool(name, rounds[name], traced[name])
    results = record["workloads"]
    if "city_procs" in results and "city_single" in results:
        try:
            procs, single = (results[n]["end_to_end"]["mlups"]["value"]
                             for n in ("city_procs", "city_single"))
            ranks = int(np.prod(workloads.CityProcs.arrangement))
            results["city_procs"]["per_layer"]["core.parallel_efficiency"] = {
                "value": procs / (ranks * single), "unit": "fraction"}
        except KeyError:
            pass

    for name in names:
        print(f"\n== {name}  [{'ok' if results[name]['ok'] else 'FAILED'}]")
        print("  end to end")
        print_metrics(results[name]["end_to_end"], "    ")
        print("  per layer (traced pass)")
        print_metrics(results[name]["per_layer"], "    ")
    stamp = record["date"].replace(":", "").replace("-", "")[:15]
    path = OUT_DIR / f"run-{stamp}.json"
    path.write_text(json.dumps(record, indent=1))
    (ROOT / "BENCHMARK.json").write_text(
        json.dumps(spec.benchmark_json(), indent=2) + "\n")
    failed = [name for name in names if not results[name]["ok"]]
    print(f"\nrecord: {path.relative_to(ROOT)}"
          + (f"\nFAILED: {', '.join(failed)}" if failed else ""))
    return 1 if failed else 0


def regen_golden() -> int:
    golden = {}
    for key, toy in (("full", False), ("toy", True)):
        w = workloads.CitySingle(workloads.GOLDEN_SEED, toy)
        w.setup()
        golden[key] = w.golden_probe()
    workloads.GOLDEN_PATH.parent.mkdir(exist_ok=True)
    workloads.GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {workloads.GOLDEN_PATH.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float,
                        help="measure one run of --workload in this process")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", help="also write the run's full record")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--regen-golden", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare)
    if args.regen_golden:
        return regen_golden()
    if args.seconds is not None:
        if args.workload is None:
            parser.error("--seconds needs --workload")
        return contract_run(args)
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    return suite(names, args.seed)


if __name__ == "__main__":
    try:
        code = main()
    finally:
        stop_children()
    sys.exit(code)
