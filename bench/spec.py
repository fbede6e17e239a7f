"""The benchmark's contract: workload names, metric names, units, bounds.

Single source for ``BENCHMARK.json`` (``benchmark_json()``), for what
``run.py`` prints, and for what ``compare.py`` gates.  Names are the
contract; see README.md for the definitions.
"""

from __future__ import annotations

#: How long one contract run measures (``--seconds``), whole seconds.
RUN_SECONDS = 10

WORKLOADS = [
    ("city_procs",
     "Sec-5 city at 2/5 scale on 2 process ranks: big blocks, so lbm "
     "kernel and core.procpool (barrier, shm, pipe) share the step"),
    ("city_single",
     "same lattice on the default single-domain solver, one thread: "
     "the plain baseline; a cluster-side change must not move it"),
    ("strong_serial",
     "Sec-4.4 fixed-size regime: 32 serial ranks of 12^3, periodic; "
     "shell collide, pack/unpack and the coordinator loop dominate"),
    ("gpu_city",
     "the paper's system at 1/5 scale: numeric GPUClusterLBM (2,2,1); "
     "simulated fragment pipeline plus gpu_node readback/upload"),
    ("spmd_pair",
     "SPMDClusterLBM on 2 SimMPI rank threads: third copy of the halo "
     "protocol and the only user of net.simmpi"),
    ("paper_model",
     "timing-only Table 1/2, strong scaling and the 30-node step: no "
     "numerics, pins the modelled design's simulated statistics"),
]

#: End-to-end metrics gated by the driver (``--trace 0``).  Every one is
#: defined, and never 0, on every workload.  (name, unit, better, bound)
END_TO_END = [
    ("mlups", "Mcells/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

#: End-to-end metrics the suite additionally prints and ``--compare``
#: gates: they are 0, constant or undefined on some workloads, which
#: the driver's contract does not admit, so ``BENCHMARK.json`` carries
#: ``failed_frac``/``ref_max_abs_err`` as ``failed``/``correct`` and the
#: simulated ones among the per-layer metrics.  bound None = exact.
SUITE_END_TO_END = END_TO_END + [
    ("failed_frac", "fraction", "lower", None),
    ("ref_max_abs_err", "abs", "lower", None),
    ("sim_step_ms", "sim_ms", "lower", None),
    ("sim_paper_err", "fraction", "lower", None),
]

#: Per-layer metrics (``--trace 1``).  A layer a workload never enters
#: reports 0 there.  (name, unit, better)
PER_LAYER = [
    ("sim_step_ms", "sim_ms", "lower"),
    ("sim_paper_err", "fraction", "lower"),
    ("lbm.collide_ms", "ms", "lower"),
    ("lbm.collide_boundary_ms", "ms", "lower"),
    ("lbm.stream_ms", "ms", "lower"),
    ("lbm.boundary_ms", "ms", "lower"),
    ("lbm.sweep_ms", "ms", "lower"),
    ("lbm.kernel_mlups", "Mcells/s", "higher"),
    ("lbm.bytes_per_cell", "B", "lower"),
    ("lbm.roofline_frac", "fraction", "higher"),
    ("core.wire.pack_us", "us", "lower"),
    ("core.wire.unpack_us", "us", "lower"),
    ("core.cluster_lbm.exchange_ms", "ms", "lower"),
    ("core.cluster_lbm.coordinator_ms", "ms", "lower"),
    ("core.cluster_lbm.overlap_hidden_frac", "fraction", "higher"),
    ("core.halo.msgs_per_step", "count", "lower"),
    ("core.halo.bytes_per_step", "B", "lower"),
    ("net.switch.sim_net_ms", "sim_ms", "lower"),
    ("net.switch.sim_nonoverlap_ms", "sim_ms", "lower"),
    ("net.switch.host_ms", "ms", "lower"),
    ("core.procpool.step_overhead_ms", "ms", "lower"),
    ("core.procpool.wait_frac", "fraction", "lower"),
    ("core.procpool.batch_ratio", "ratio", "lower"),
    ("core.procpool.spawn_s", "s", "lower"),
    ("core.procpool.first_step_s", "s", "lower"),
    ("core.decomposition.imbalance", "ratio", "lower"),
    ("core.shm.leaked_segments", "count", "lower"),
    ("core.parallel_efficiency", "fraction", "higher"),
    ("core.spmd.host_ms_per_step", "ms", "lower"),
    ("net.simmpi.sim_clock_ms_per_step", "sim_ms", "lower"),
    ("urban.voxelize_s", "s", "lower"),
    ("gpu.collide_ms", "ms", "lower"),
    ("gpu.stream_ms", "ms", "lower"),
    ("gpu.transfer_ms", "ms", "lower"),
    ("gpu.sim_compute_ms", "sim_ms", "lower"),
    ("gpu.sim_agp_ms", "sim_ms", "lower"),
    ("gpu.bytes_up_per_step", "B", "lower"),
    ("gpu.bytes_down_per_step", "B", "lower"),
    ("perf.model.tables_ms", "ms", "lower"),
    ("perf.model.dispersion_ms", "ms", "lower"),
    ("perf.trace.enabled_overhead_frac", "fraction", "lower"),
    ("perf.attributed_frac", "fraction", "higher"),
    ("perf.bench_trace_overhead_frac", "fraction", "lower"),
    ("host.copy_gbs", "GB/s", "higher"),
    ("host.copy_array_mb", "MB", "higher"),
    ("host.llc_mb", "MB", "higher"),
    ("host.nproc", "count", "higher"),
    ("host.import_s", "s", "lower"),
    ("host.noise_frac", "fraction", "lower"),
]

UNITS = {name: unit for name, unit, *_ in SUITE_END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """``BENCHMARK.json`` in exactly the shape the builder's contract fixes."""
    return {
        "command": ["python3", "bench/run.py"],
        "paths": ["bench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b in PER_LAYER],
    }
