"""Kernel-throughput regression guard.

Runs a fresh benchmark sweep and compares every ``mcells_per_s`` entry
against the committed ``BENCH_kernels.json`` baseline.  Exits non-zero
if any kernel regressed by more than the threshold (default 25%), so
the guard is a single command::

    PYTHONPATH=src python benchmarks/check_regression.py

Options::

    --baseline PATH   baseline JSON (default: repo-root BENCH_kernels.json)
    --threshold F     allowed fractional drop, e.g. 0.25 (default)
    --suite NAME      which recording suites to run: ``kernels`` (the
                      bench_fused sweep: split reference + cluster
                      backends), ``aa`` (the AA-pattern kernel sweep),
                      ``exchange`` (the halo exchange of the serial
                      cluster step), or ``all`` (default: kernels)
    --update          merge the fresh numbers into the baseline and exit 0

Baseline entries the selected suite did not measure are *skipped*, not
failed: the baseline accumulates entries from several recording suites
(``bench_fused``/``bench_procpool``/``bench_aa``/``bench_exchange``),
and a partial run must only guard what it actually re-measured.  Use
``--suite all`` to opt into the full sweep that covers every entry.
``--update`` likewise merges into the existing baseline instead of
overwriting it, so refreshing one suite keeps the others' entries.

The converse is an error: a throughput entry the suite *measured* that
has no baseline key in ``BENCH_kernels.json`` fails the guard with the
missing keys listed (run ``--update`` once to record them) — a stale
baseline must not silently stop guarding new kernels.

The baseline is machine-specific: refresh it with ``--update`` when the
benchmark host changes, and commit the result so the perf trajectory
stays reviewable PR over PR.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

REPO_ROOT = Path(__file__).resolve().parent.parent

try:  # allow `python benchmarks/check_regression.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(REPO_ROOT / "src"))

SUITES = ("kernels", "aa", "exchange", "all")


def run_suites(suite: str, steps: int, repeats: int) -> dict:
    """Run the selected recording suite(s); returns a bench-kernels dict."""
    results: dict[str, dict] = {}
    meta: dict = {"schema": "bench-kernels/1", "steps": steps,
                  "repeats": repeats}
    if suite in ("kernels", "all"):
        from bench_fused import run_benchmarks
        data = run_benchmarks(steps=steps, repeats=repeats)
        results.update(data["results"])
        meta.update({k: v for k, v in data.items() if k != "results"})
    if suite in ("aa", "all"):
        from bench_aa import run_aa_benchmarks
        results.update(run_aa_benchmarks(steps=steps, repeats=repeats))
    if suite in ("exchange", "all"):
        from bench_exchange import run_exchange_benchmarks
        results.update(run_exchange_benchmarks(steps=steps, repeats=repeats))
    meta["results"] = results
    return meta


def compare(baseline: dict, fresh: dict, threshold: float) -> list[str]:
    """Return a list of regression messages (empty = pass).

    Only the *intersection* of baseline and fresh entries is compared;
    baseline entries the fresh run did not measure are reported as
    skipped (other suites own them), never failed.  Fresh throughput
    entries with *no* baseline key fail with the missing keys listed
    (``--update`` records them) — never with a raw ``KeyError``.
    """
    failures = []
    skipped = []
    base_results = baseline.get("results", {})
    fresh_results = fresh.get("results", {})
    for name, base_entry in sorted(base_results.items()):
        base_v = base_entry.get("mcells_per_s")
        if base_v is None:
            continue  # ratios and other non-throughput entries
        fresh_entry = fresh_results.get(name)
        if fresh_entry is None:
            skipped.append(name)
            continue
        fresh_v = fresh_entry.get("mcells_per_s")
        if fresh_v is None:
            failures.append(
                f"{name}: fresh run recorded no 'mcells_per_s' (got keys "
                f"{sorted(fresh_entry)})")
            continue
        drop = (base_v - fresh_v) / base_v if base_v > 0 else 0.0
        status = "FAIL" if drop > threshold else "ok"
        print(f"  {name:36s} base {base_v:9.3f}  fresh {fresh_v:9.3f} "
              f"Mcells/s  ({-drop:+.1%})  {status}")
        if drop > threshold:
            failures.append(
                f"{name}: {base_v:.3f} -> {fresh_v:.3f} Mcells/s "
                f"({drop:.1%} drop > {threshold:.0%} threshold)")
    missing = [name for name in sorted(set(fresh_results) - set(base_results))
               if fresh_results[name].get("mcells_per_s") is not None]
    if missing:
        print(f"  missing baseline keys: {', '.join(missing)}")
        failures.append(
            f"baseline has no entry for measured kernel(s): "
            f"{', '.join(missing)} — run with --update to record them")
    if skipped:
        print(f"  skipped (not measured by this suite): {', '.join(skipped)}")
    return failures


def merge_baseline(baseline_path: Path, fresh: dict) -> None:
    """Fold the fresh entries into the baseline file (create if absent)."""
    if baseline_path.exists():
        data = json.loads(baseline_path.read_text())
        data.setdefault("results", {}).update(fresh.get("results", {}))
        for key, value in fresh.items():
            if key != "results":
                data[key] = value
    else:
        data = fresh
    baseline_path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", default=str(REPO_ROOT / "BENCH_kernels.json"))
    ap.add_argument("--threshold", type=float, default=0.25)
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--suite", default="kernels", choices=SUITES,
                    help="recording suites to run (default: kernels; "
                         "'all' covers every baseline entry)")
    ap.add_argument("--update", action="store_true",
                    help="merge fresh numbers into the baseline "
                         "instead of comparing")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")

    print(f"measuring fresh kernel throughput (suite: {args.suite}) ...")
    fresh = run_suites(args.suite, steps=args.steps, repeats=args.repeats)

    baseline_path = Path(args.baseline)
    if args.update or not baseline_path.exists():
        merge_baseline(baseline_path, fresh)
        print(f"baseline updated at {baseline_path}")
        return 0

    baseline = json.loads(baseline_path.read_text())
    print(f"comparing against {baseline_path} "
          f"(threshold {args.threshold:.0%}):")
    failures = compare(baseline, fresh, args.threshold)
    if failures:
        print("\nREGRESSIONS DETECTED:")
        for msg in failures:
            print(f"  - {msg}")
        return 1
    print("no kernel regressions.")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
