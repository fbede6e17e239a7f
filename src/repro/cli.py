"""Command-line interface: regenerate any paper artifact from a shell.

::

    python -m repro table1            # Table 1 rows vs published
    python -m repro table2            # Table 2 + supercomputer context
    python -m repro fig8|fig9|fig10   # the figures as ASCII series
    python -m repro strong            # Sec 4.4 fixed-problem scaling
    python -m repro whatif            # Sec 4.4 enhancements
    python -m repro cost              # Sec 3 accounting
    python -m repro dispersion        # Sec 5 headline (0.31 s/step)
    python -m repro trace             # traced cluster step -> Perfetto JSON + analytics
    python -m repro check [SLICE ...] # equivalence gate: every driver vs the reference
    python -m repro doctor            # shm leak audit + procpool smoke + compiled units
    python -m repro verify            # tier-1 tests, then check

All output comes from the same row generators the benchmark harness
uses (`repro.perf.model`), so the CLI and `pytest benchmarks/` always
agree.
"""

from __future__ import annotations

import argparse
import sys


def _cmd_table1(args) -> None:
    from repro.perf.model import PAPER_TABLE1, table1_rows
    print(f"{'nodes':>5} {'CPU':>6} {'GPUcmp':>7} {'AGP':>5} {'net':>6} "
          f"{'novl':>5} {'GPUtot':>7} {'spd':>6}   paper(tot/spd)")
    for r in table1_rows(args.nodes):
        ref = PAPER_TABLE1.get(r.nodes)
        p = f"{ref[4]}/{ref[5]:.2f}" if ref else "-"
        print(f"{r.nodes:>5} {r.cpu_total:>6.0f} {r.gpu_compute:>7.0f} "
              f"{r.gpu_agp:>5.0f} {r.net_total:>6.0f} "
              f"{r.net_nonoverlap:>5.0f} {r.gpu_total:>7.0f} "
              f"{r.speedup:>6.2f}   {p}")


def _cmd_table2(args) -> None:
    from repro.perf.comparisons import SUPERCOMPUTER_RESULTS
    from repro.perf.model import PAPER_TABLE2, table2_rows
    print(f"{'nodes':>5} {'Mcells/s':>9} {'speedup':>8} {'eff':>7}   paper")
    for r in table2_rows(args.nodes):
        ref = PAPER_TABLE2.get(r.nodes)
        sp = f"{r.speedup:.2f}" if r.speedup else "-"
        ef = f"{r.efficiency * 100:.1f}%" if r.efficiency else "-"
        print(f"{r.nodes:>5} {r.cells_per_s / 1e6:>9.2f} {sp:>8} {ef:>7}"
              f"   {ref[0] if ref else '-'}")
    print("\ncontext:")
    for s in SUPERCOMPUTER_RESULTS:
        print(f"  {s.mcells_per_s:>6.1f} Mcells/s  {s.system}")


def _cmd_fig(args, which: str) -> None:
    from repro.perf.model import cluster_timings, table2_rows
    if which == "fig8":
        print("nodes  net(ms)  overlapped  remainder")
        for n in args.nodes:
            if n < 2:
                continue
            gpu, _ = cluster_timings(n)
            ovl = min(gpu.net_total_s, gpu.overlap_window_s) * 1e3
            print(f"{n:>5} {gpu.net_total_s * 1e3:>8.0f} "
                  f"{'#' * int(ovl / 3):<32} {'!' * int(gpu.net_nonoverlap_s * 1e3 / 3)}")
    elif which == "fig9":
        from repro.perf.model import table1_rows
        for r in table1_rows(args.nodes):
            print(f"{r.nodes:>5} {r.speedup:5.2f} " + "*" * int(r.speedup * 8))
    else:
        for r in table2_rows(args.nodes):
            if r.efficiency:
                print(f"{r.nodes:>5} {r.efficiency * 100:5.1f}% "
                      + "=" * int(r.efficiency * 50))


def _cmd_strong(args) -> None:
    from repro.perf.model import strong_scaling_rows
    for r in strong_scaling_rows():
        print(f"{r['nodes']:>3} nodes {str(r['sub_shape']):>14}: "
              f"GPU {r['gpu_total_ms']:6.0f} ms, CPU {r['cpu_total_ms']:6.0f} ms, "
              f"speedup {r['speedup']:.2f}")


def _cmd_whatif(args) -> None:
    from repro.perf.whatif import enhancement_speedups
    for label, v in enhancement_speedups().items():
        print(f"  {label:<40s} {v:5.2f}x")


def _cmd_cost(args) -> None:
    from repro.perf.cost import paper_cluster_cost
    c = paper_cluster_cost()
    print(f"GPU peak added:  {c.gpu_peak_gflops:6.1f} GFlops")
    print(f"cluster peak:    {c.total_peak_gflops:6.1f} GFlops")
    print(f"GPU price:      ${c.gpu_price_usd:,.0f}")
    print(f"MFlops/$:        {c.gpu_mflops_per_dollar:.1f}")


def _kernel_report_lines(cluster) -> list[str]:
    """Per-rank kernel choice / occupancy / reason rows for timing output."""
    *rows, resolved = cluster.kernel_report(cluster=True)
    lines = []
    for row in rows:
        line = (f"  rank {row['rank']:>3}: kernel {row['kernel']:<9} "
                f"solid {row['solid_fraction']:.1%}")
        if row.get("reason"):
            line += f"  ({row['reason']})"
        lines.append(line)
    lines.append(f"  cluster : kernel {resolved['kernel']:<9} "
                 f"({resolved['reason']})")
    return lines


def _cmd_dispersion(args) -> None:
    from repro.urban import DispersionScenario
    scenario = DispersionScenario(shape=tuple(args.shape))
    cluster = scenario.make_cluster(tuple(args.arrangement), timing_only=True)
    tracer = cluster.enable_tracing() if args.trace else None
    session = status = None
    if args.live or args.telemetry_jsonl:
        from repro.perf.telemetry import StatusLine
        session = cluster.enable_telemetry(
            jsonl_path=args.telemetry_jsonl)
        if args.live:
            status = StatusLine()
    t = None
    for _ in range(max(1, args.steps)):
        t = cluster.step()
        if status is not None:
            status.update(session.status_text())
    if status is not None:
        status.update(session.status_text(), force=True)
        status.close()
    print(f"{scenario.shape} on {cluster.decomp.n_nodes} GPU nodes: "
          f"{t.total_s:.3f} s/step (paper: 0.31)")
    for k, v in t.ms().items():
        print(f"  {k:>14}: {v:7.1f} ms")
    print("per-rank kernels:")
    for line in _kernel_report_lines(cluster):
        print(line)
    if session is not None:
        print(cluster.recorder.report())
        print(session.check_health().summary())
        if args.telemetry_jsonl:
            session.close()
            print(f"wrote telemetry snapshots to {args.telemetry_jsonl}")
    if tracer is not None:
        tracer.write_chrome(args.trace)
        print(f"wrote Chrome trace ({len(tracer.events)} spans, incl. the "
              f"simulated Fig-7 schedule) to {args.trace}")


def _cmd_trace(args) -> None:
    """Run one traced cluster/dispersion segment and export the spans.

    Steps a small voxelized-city cluster on the chosen backend with
    tracing on, then replays the same
    decomposition as an SPMD SimMPI program so the network track also
    carries executed per-message events (src/dst/tag/bytes on the
    simulated clock).  The replay records on its own recorder and only
    its network events join the trace, so the step, rank and overlap
    analytics describe the cluster run alone.  Writes Chrome-trace
    JSON + JSONL and prints the derived analytics.
    """
    import os

    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.core.decomposition import BlockDecomposition
    from repro.core.spmd import SPMDClusterLBM
    from repro.net.simmpi import SimCluster
    from repro.perf.recorder import NETWORK_RANK, Tracer
    from repro.perf.report import format_trace_analytics
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city

    shape = tuple(args.shape)
    arrangement = tuple(args.arrangement)
    solid = voxelize_city(times_square_like(seed=7), shape,
                          resolution_m=24.0, ground_layers=1)
    sub = tuple(s // a for s, a in zip(shape, arrangement))
    cfg = ClusterConfig(sub_shape=sub, arrangement=arrangement, tau=0.6,
                        solid=solid, backend=args.backend)
    import numpy as np

    from repro.lbm.solver import LBMSolver

    ref = LBMSolver(shape, tau=0.6, solid=solid)
    rng = np.random.default_rng(11)
    ref.initialize(rho=np.ones(shape, np.float32),
                   u=(0.02 * rng.standard_normal((3,) + shape)
                      ).astype(np.float32))
    with CPUClusterLBM(cfg) as cluster:
        cluster.load_global_distributions(ref.f)
        tracer = cluster.enable_tracing()
        cluster.step(args.steps)
    # Executed SimMPI pass over the same decomposition: per-message
    # events on the network track (the coordinator backends model the
    # schedule; this records the Fig-7 message pattern for real).
    decomp = BlockDecomposition(shape, arrangement,
                                periodic=(True, True, True))
    replay = Tracer()
    sim = SimCluster(decomp.n_nodes, recorder=replay)
    SPMDClusterLBM(decomp, tau=0.6, solid=solid).run(1, cluster=sim)
    tracer.extend(e for e in replay.events if e.rank == NETWORK_RANK)

    os.makedirs(args.out, exist_ok=True)
    chrome_path = os.path.join(args.out, "repro-trace.json")
    jsonl_path = os.path.join(args.out, "repro-trace.jsonl")
    tracer.write_chrome(chrome_path)
    tracer.write_jsonl(jsonl_path)
    print(f"{shape} on {decomp.n_nodes} ranks, backend={args.backend}, "
          f"{args.steps} traced steps: {len(tracer.events)} spans")
    print(f"  wrote {chrome_path} (open in Perfetto / chrome://tracing)")
    print(f"  wrote {jsonl_path}")
    print()
    print(format_trace_analytics(tracer))


def _cmd_check(args) -> int:
    """The equivalence gate: every row of :data:`repro.check.ROWS` in
    the named slices (all rows when none is named) against the
    single-domain reference, after every step."""
    from repro import check

    try:
        rows = check.run(args.slices)
    except ValueError as exc:      # an unknown slice
        print(exc)
        return 2
    print(f"check OK: {len(rows)} row(s)")
    return 0


def _cmd_doctor(args) -> int:
    """Environment health audit: leaked shared-memory segments from any
    previous run, a procpool spawn/step/teardown smoke check, and the
    compiled AA sweep and GPU step passes (cache, key, flags,
    loaded or why not).  Exits nonzero on leaks or a failed smoke
    check."""
    import os
    from pathlib import Path

    from repro.core.shm import SEGMENT_PREFIX, shm_root

    failures = 0
    root = shm_root()
    if root is None:
        print("shm audit: /dev/shm not inspectable on this platform "
              "(skipped)")
        stale = []
    else:
        stale = sorted(p.name for p in Path(root).iterdir()
                       if p.name.startswith(f"{SEGMENT_PREFIX}-"))
    if stale:
        # Segments from *any* pid: doctor audits the whole machine
        # state, not just this process (dead creators leak forever).
        print(f"shm audit: {len(stale)} stale segment(s) "
              f"with the {SEGMENT_PREFIX!r} prefix:")
        for name in stale:
            print(f"  /dev/shm/{name}")
        failures += 1
    else:
        print("shm audit: no stale segments")

    print("procpool smoke: the check table's city_procs row ...")
    try:
        from repro import check
        check.run(["city_procs"])
    except Exception as exc:  # noqa: BLE001 - reported, not re-raised
        print(f"procpool smoke FAILED: {type(exc).__name__}: {exc}")
        failures += 1
    else:
        print("procpool smoke: spawn/step/teardown OK, bit-identical to "
              "the reference, no leaks, no orphans")
    # The compiled units are accelerators, not requirements: without
    # them the numpy bodies run, so they are reported, not failed.
    import numpy as np

    from repro.gpu.lbm_gpu import UNIT
    from repro.lbm import D3Q19, native
    for unit, what, fallback in (
            (native.AA, "AA sweep", "the kernel rules resolve split"),
            (UNIT, "GPU fragment programs", "macro/collide run numpy")):
        lib, missing = native.load(D3Q19, np.float32, unit)
        info = lib.info if lib is not None else native.describe(D3Q19, np.float32, unit)
        print(f"compiled {what} (D3Q19 float32): cache {info['cache']}")
        print(f"  compiler {info['compiler']}  flags {info['flags']}")
        print(f"  key {info['key']}  object {info['path']}")
        print("  loaded" if lib is not None else
              f"  not loaded: {missing}; {fallback}")
    if failures:
        print(f"doctor: {failures} problem(s) found")
        return 1
    print("doctor: healthy")
    return 0


def _cmd_verify(args) -> int:
    """The repo's single verification gate: tier-1 pytest, then the
    equivalence gate (``check``).  Performance is measured by
    ``bench/run.py``'s paired runs, not here."""
    import os
    import subprocess
    from pathlib import Path

    root = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(root / "src") + os.pathsep
                         + env["PYTHONPATH"]) if env.get("PYTHONPATH") \
        else str(root / "src")
    stages = (
        ("tier-1 tests", [sys.executable, "-m", "pytest", "-x", "-q"]),
        ("equivalence gate", [sys.executable, "-m", "repro", "check"]),
    )
    for label, cmd in stages:
        print(f"== {label} ==")
        rc = subprocess.call(cmd, cwd=str(root), env=env)
        if rc != 0:
            print(f"verify FAILED at {label} (exit {rc})")
            return rc
    print("verify OK")
    return 0


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="repro", description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="command", required=True)
    default_nodes = "1,2,4,8,12,16,20,24,28,30,32"
    for name in ("table1", "table2", "fig8", "fig9", "fig10"):
        sp = sub.add_parser(name)
        sp.add_argument("--nodes", type=_int_list, default=_int_list(default_nodes))
    sub.add_parser("strong")
    sub.add_parser("whatif")
    sub.add_parser("cost")
    sp = sub.add_parser("dispersion")
    sp.add_argument("--shape", type=_int_list, default=(480, 400, 80))
    sp.add_argument("--arrangement", type=_int_list, default=(6, 5, 1))
    sp.add_argument("--steps", type=int, default=1,
                    help="steps to run (default 1)")
    sp.add_argument("--live", action="store_true",
                    help="live TTY status line (step rate, MLUPS, "
                         "imbalance, comm share) plus a telemetry "
                         "summary at the end")
    sp.add_argument("--telemetry-jsonl", default=None, metavar="PATH",
                    help="stream per-step telemetry snapshots (JSONL) "
                         "to PATH")
    sp.add_argument("--trace", default=None, metavar="PATH",
                    help="write a Chrome trace-event JSON of the step "
                         "(incl. the simulated network schedule) to PATH")
    sp = sub.add_parser("trace",
                        help="run a traced cluster step on any backend; "
                             "write Perfetto-loadable trace artifacts "
                             "and print the derived analytics")
    sp.add_argument("--backend", default="serial",
                    choices=("serial", "processes"))
    sp.add_argument("--steps", type=int, default=3)
    sp.add_argument("--shape", type=_int_list, default=(24, 20, 8))
    sp.add_argument("--arrangement", type=_int_list, default=(2, 2, 1))
    sp.add_argument("--out", default=".",
                    help="directory for repro-trace.json / .jsonl "
                         "(default: current directory)")
    sp = sub.add_parser("report")
    sp.add_argument("--out", default=None,
                    help="write markdown to a file instead of stdout")
    sp = sub.add_parser("check",
                        help="equivalence gate: every driver, node, "
                             "faces, cuts and observer row against the "
                             "single-domain reference after every step")
    sp.add_argument("slices", nargs="*", metavar="SLICE",
                    help="run only the rows in these slices (a driver, "
                         "node, faces, cuts, observer or workload name)")
    sub.add_parser("doctor",
                   help="audit /dev/shm for stale segments, smoke-"
                        "test procpool spawn/step/teardown and report "
                        "the compiled units; exits nonzero on leaks")
    sub.add_parser("verify",
                   help="run the tier-1 tests, then the equivalence "
                        "gate, as one gate")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cmd = args.command
    if cmd == "table1":
        _cmd_table1(args)
    elif cmd == "table2":
        _cmd_table2(args)
    elif cmd in ("fig8", "fig9", "fig10"):
        _cmd_fig(args, cmd)
    elif cmd == "strong":
        _cmd_strong(args)
    elif cmd == "whatif":
        _cmd_whatif(args)
    elif cmd == "cost":
        _cmd_cost(args)
    elif cmd == "dispersion":
        _cmd_dispersion(args)
    elif cmd == "trace":
        _cmd_trace(args)
    elif cmd == "check":
        return _cmd_check(args)
    elif cmd == "doctor":
        return _cmd_doctor(args)
    elif cmd == "verify":
        return _cmd_verify(args)
    elif cmd == "report":
        from repro.perf.report import generate_report
        text = generate_report()
        if args.out:
            with open(args.out, "w") as fh:
                fh.write(text)
            print(f"wrote {args.out}")
        else:
            print(text)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
