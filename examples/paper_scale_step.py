#!/usr/bin/env python
"""The paper-scale numeric GPU cluster's wall-clock step.

Builds ``DispersionScenario().make_cluster((6, 5, 1))`` — 480x400x80
on 30 simulated GPU ranks of 80^3, every rank stepping its numerics —
takes one warm-up step, then times ``--steps`` steps one by one and
prints each, their median and the modeled step (``StepTiming``; the
paper reports 0.31 s a step on its 30-node cluster, Sec 5).

Usage:  python examples/paper_scale_step.py [--steps 10]
"""

from __future__ import annotations

import argparse
import statistics
import time

from repro.urban import DispersionScenario


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--steps", type=int, default=10, help="timed steps")
    args = ap.parse_args()
    t0 = time.perf_counter()
    scenario = DispersionScenario()
    cluster = scenario.make_cluster((6, 5, 1))
    built = time.perf_counter() - t0
    timing = cluster.step(1)
    seconds = []
    for _ in range(args.steps):
        t0 = time.perf_counter()
        timing = cluster.step(1)
        seconds.append(time.perf_counter() - t0)
    print(f"shape {scenario.shape} on {len(cluster.nodes)} ranks, built in {built:.1f} s")
    print("wall s/step: " + " ".join(f"{s:.3f}" for s in seconds))
    print(f"median {statistics.median(seconds):.4f} s/step (paper: 0.31); "
          f"modeled step {timing.total_s * 1e3:.3f} ms")


if __name__ == "__main__":
    main()
