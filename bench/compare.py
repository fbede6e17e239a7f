"""``run.py --compare A.json B.json``: is B no worse than A?

One row per workload x end-to-end metric: both medians, the relative
change, the bound, and a verdict —

``within``      B is not worse than A by more than the bound
``worse``       it is
``unresolved``  the round-to-round spread is wider than the bound, so
                the change cannot be told from noise (unless every
                round of B reads better than every round of A)

Simulated statistics, counts, ``failed_frac`` and ``ref_max_abs_err``
have no tolerance: they must repeat to the last digit.
"""

from __future__ import annotations

import json
import statistics

import spec

EXACT_UNITS = ("count", "B", "sim_ms")


def spread(rounds) -> float:
    """IQR / median of the per-round values (0 with fewer than two)."""
    if len(rounds or ()) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(rounds, n=4)
    return (q3 - q1) / statistics.median(rounds)


def verdict(a: dict, b: dict, better: str, bound) -> tuple[str, float]:
    va, vb = a["value"], b["value"]
    if bound is None:
        return ("within" if vb == va else "worse"), vb - va
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (vb - va) / va
    ra, rb = a.get("rounds", []), b.get("rounds", [])
    if max(spread(ra), spread(rb)) > bound:
        all_better = ra and rb and (
            max(rb) < min(ra) if better == "lower" else min(rb) > max(ra))
        return ("within" if all_better else "unresolved"), worse_by
    return ("worse" if worse_by > bound else "within"), worse_by


def main(path_a: str, path_b: str) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        rec_a, rec_b = json.load(fa), json.load(fb)
    print(f"A: {path_a}  commit {rec_a['commit'][:12]}  {rec_a['date']}")
    print(f"B: {path_b}  commit {rec_b['commit'][:12]}  {rec_b['date']}")
    header = (f"{'workload':<14} {'metric':<16} {'A':>12} {'B':>12} "
              f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict")
    print(header)
    bad = 0
    for name, _ in spec.WORKLOADS:
        wa = rec_a["workloads"].get(name)
        wb = rec_b["workloads"].get(name)
        if wa is None or wb is None:
            continue
        for metric, _, better, bound in spec.SUITE_END_TO_END:
            a, b = wa["end_to_end"].get(metric), wb["end_to_end"].get(metric)
            if a is None or b is None:
                continue
            word, worse_by = verdict(a, b, better, bound)
            bad += word == "worse"
            noise = max(spread(a.get("rounds")), spread(b.get("rounds")))
            print(f"{name:<14} {metric:<16} {a['value']:>12.6g} "
                  f"{b['value']:>12.6g} "
                  + (f"{worse_by:>+9.1%} {bound:>6.2f} {noise:>7.1%}"
                     if bound is not None else
                     f"{worse_by:>+9.3g} {'exact':>6} {'':>7}")
                  + f"  {word}")
        same = differ = 0
        for metric, unit, _ in spec.PER_LAYER:
            a, b = wa["per_layer"].get(metric), wb["per_layer"].get(metric)
            if unit not in EXACT_UNITS or a is None or b is None:
                continue
            if a["value"] == b["value"]:
                same += 1
            else:
                differ += 1
                print(f"{name:<14} {metric:<40} {a['value']!r} != "
                      f"{b['value']!r}  worse (exact)")
        bad += differ
        print(f"{name:<14} exact per-layer counts and simulated values: "
              f"{same} identical, {differ} differ")
    print("no metric is worse" if not bad else f"{bad} worse")
    return 1 if bad else 0
