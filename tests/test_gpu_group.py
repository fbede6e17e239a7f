"""A serial cluster's compiled GPU ranks stepped as one group.

:class:`~repro.core.gpu_node.GPURankGroup` runs every rank's collide as
one ``gpu_collide`` call and every rank's sweep as one ``gpu_sweep``
call over the ranks' rows, split across the host's cores inside the
unit.  Its oracle is the per-pass engine, rank by rank (the twin
``python -m repro check`` steps), and a group on one thread: every
texel, charge and :class:`StepTiming` must be theirs, step by step.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

from repro.core import (BlockDecomposition, ClusterConfig, CPUClusterLBM,
                        GPUClusterLBM, SPMDClusterLBM, leaked_segments)
from repro.core.gpu_node import GPURankGroup
from repro.gpu import lbm_gpu
from repro.gpu.lbm_gpu import F32, GPULBMSolver
from repro.lbm import native
from repro.lbm.lattice import D3Q19

STEPS = 4
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def _same_rank(a, b, where) -> None:
    """Every texel of every bound stack (rims included) and every charge."""
    for (name, x), y in zip(a.solver.bindings().items(), b.solver.bindings().values()):
        assert np.array_equal(_bits(x.data), _bits(y.data)), (where, name)
    assert (a.device.clock_s, a.device.pass_seconds, a.device.pass_counts) == (
        b.device.clock_s, b.device.pass_seconds, b.device.pass_counts), where
    assert (a.compute_s, a.agp_s, a.overlap_window_s) == (
        b.compute_s, b.agp_s, b.overlap_window_s), where


def _one_cpu(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})


def _stepped_together(clusters) -> None:
    """Step every cluster from the same perturbed state; compare each
    with the first after every step."""
    rng = np.random.default_rng(7)
    f = clusters[0].gather_distributions()
    f = f + (0.01 * rng.random(f.shape)).astype(F32)
    for c in clusters:
        c.load_global_distributions(f)
    for step in range(1, STEPS + 1):
        with np.errstate(all="raise"):
            timings = [c.step(1) for c in clusters]
        assert all(t == timings[0] for t in timings), step
        for other in clusters[1:]:
            for a, b in zip(clusters[0].nodes, other.nodes):
                _same_rank(a, b, (step, a.rank))
        assert all(np.array_equal(clusters[0].gather_distributions(),
                                  c.gather_distributions()) for c in clusters[1:])


def _solids(shape, seed=3, p=0.15):
    return np.random.default_rng(seed).random(shape) < p


CASES = {
    "uneven_cuts": dict(sub_shape=(6, 5, 4), arrangement=(3, 2, 1),
                        cuts=((4, 9, 5), (3, 7), (4,)),
                        periodic=(False, True, False), solid=_solids((18, 10, 4))),
    "solids_inlet_outflow_force": dict(
        sub_shape=(8, 6, 5), arrangement=(2, 2, 1), periodic=(False, True, False),
        solid=_solids((16, 12, 5)), force=(1e-5, 0.0, -1e-5),
        inlet=(0, "low", (0.03, 0.0, 0.0), 1.0), outflow=(0, "high")),
    "torus": dict(sub_shape=(5, 4, 3), arrangement=(2, 2, 2)),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_group_matches_the_per_pass_engine_and_one_thread(case, monkeypatch):
    """The group (one call per phase, split across the host's CPUs),
    the per-pass twin and a one-thread group: the same texels, charges
    and timings at every step, with every FP exception raised."""
    cfg = ClusterConfig(tau=0.7, **CASES[case])
    group = GPUClusterLBM(cfg)
    twin = GPUClusterLBM(cfg)
    for node in twin.nodes:
        node.solver._lib = None
    with monkeypatch.context() as mp:
        _one_cpu(mp)
        single = GPUClusterLBM(cfg)
    assert isinstance(group._ranks, GPURankGroup)
    assert group._ranks.threads == lbm_gpu.threads(cfg.n_nodes) >= 1
    assert single._ranks.threads == 1
    if case == "uneven_cuts":
        assert len({n.sub_shape for n in group.nodes}) > 1
    with group, twin, single:
        _stepped_together([group, twin, single])
        assert group._ranks._lib is not None and single._ranks._lib is not None
        assert twin._ranks._lib is None                  # stepped node by node


def test_wrap_mode_standalone_solver_runs_a_table_of_one():
    """A standalone solver calls the same entries with a one-row table."""
    shape = (6, 5, 4)
    kw = dict(shape=shape, tau=0.7, mode="wrap", solid=_solids(shape, p=0.25),
              force=(1e-5, 0.0, -1e-5))
    a, b = GPULBMSolver(**kw), GPULBMSolver(**kw)
    assert a._lib is not None
    b._lib = None
    for step in range(1, STEPS + 1):
        with np.errstate(all="raise"):
            a.step(1)
            b.step(1)
        for x, y in zip(a.bindings().values(), b.bindings().values()):
            assert np.array_equal(_bits(x.data), _bits(y.data)), step
        assert (a.device.clock_s, a.device.pass_seconds, a.device.pass_counts) == (
            b.device.clock_s, b.device.pass_seconds, b.device.pass_counts), step


def test_group_records_a_cell_share_slice_per_rank():
    cfg = ClusterConfig(tau=0.7, **CASES["uneven_cuts"])
    with GPUClusterLBM(cfg) as cluster:
        cluster.step(2)
        rows = cluster.recorder.summary(by_rank=True)
        tracer = cluster.enable_tracing()
        cluster.step(1)
    for rank in range(cfg.n_nodes):
        for name in ("cluster.collide", "cluster.finish"):
            assert rows[rank][name]["calls"] == 2, (rank, name)
    events = [e for e in tracer.events if e.name == "cluster.collide"]
    assert sorted(e.rank for e in events) == list(range(cfg.n_nodes))
    assert all(e.meta.get("apportioned") for e in events)


class TestThreadRule:
    def test_one_thread_per_rank_at_most_one_per_cpu(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert [lbm_gpu.threads(n) for n in (1, 2, 3, 30)] == [1, 2, 3, 3]
        _one_cpu(monkeypatch)
        assert [lbm_gpu.threads(n) for n in (1, 4, 30)] == [1, 1, 1]

    @pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                        reason="counts the threads in /proc/self/task")
    def test_one_cpu_starts_no_thread(self):
        """Under a one-CPU affinity set a grouped step runs on the
        calling thread: a fresh process has as many threads after
        stepping as before."""
        code = textwrap.dedent("""
            import os
            os.sched_getaffinity = lambda pid: {0}
            from repro.core import ClusterConfig, GPUClusterLBM
            c = GPUClusterLBM(ClusterConfig(sub_shape=(6, 5, 4), arrangement=(2, 2, 1),
                                            tau=0.7))
            before = len(os.listdir("/proc/self/task"))
            c.step(3)
            assert c._ranks._lib is not None and c._ranks.threads == 1
            print(before, len(os.listdir("/proc/self/task")))
        """)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=120,
                              env={**os.environ, "PYTHONPATH": SRC})
        assert done.returncode == 0, done.stderr
        before, after = map(int, done.stdout.split())
        assert after == before


def test_unit_built_without_openmp_is_exact(tmp_path, monkeypatch):
    """A compiler that refuses the unit's own flags builds it with
    :data:`native.FLAGS` alone, where the rank loop runs in order: the
    same texels and charges as the per-pass engine."""
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native, "_LOADED", {})
    refused = lbm_gpu.UNIT._replace(flags=("-fno-such-option-anywhere",))
    monkeypatch.setattr(lbm_gpu, "UNIT", refused)
    lib, missing = native.load(D3Q19, F32, refused)
    assert lib is not None and missing is None
    assert lib.info["flags"] == " ".join(native.FLAGS)
    assert lib.info["key"] != native.describe(D3Q19, F32, refused)["key"]
    cfg = ClusterConfig(tau=0.7, **CASES["solids_inlet_outflow_force"])
    group, twin = GPUClusterLBM(cfg), GPUClusterLBM(cfg)
    assert group.nodes[0].solver._lib is lib
    for node in twin.nodes:
        node.solver._lib = None
    with group, twin:
        _stepped_together([group, twin])


def test_unit_flags_key_only_their_unit():
    """The GPU unit's own flags are in its key; the AA unit has none,
    so its flags and key are what they were."""
    aa = native.describe(D3Q19, F32, native.AA)
    assert aa["flags"] == " ".join(native.FLAGS)
    gpu = native.describe(D3Q19, F32, lbm_gpu.UNIT)
    assert gpu["flags"] == " ".join((*native.FLAGS, *lbm_gpu.UNIT.flags))
    plain = native.describe(D3Q19, F32, lbm_gpu.UNIT, native.FLAGS)
    assert gpu["key"] != plain["key"]


def test_fork_after_the_unit_has_run_threads():
    """The processes backend forks its workers, and libgomp's thread
    team does not survive a fork: a worker steps CPU ranks only and
    never enters the GPU unit.  After a grouped GPU step in this
    process, a processes-backend CPU cluster and an SPMD run still
    match the serial backend and leave no segment behind."""
    gpu = GPUClusterLBM(ClusterConfig(tau=0.7, **CASES["solids_inlet_outflow_force"]))
    with gpu:
        gpu.step(3)
        assert gpu._ranks._lib is not None
    shape, sub = (12, 8, 6), (6, 8, 6)
    rng = np.random.default_rng(5)
    cfg = dict(sub_shape=sub, arrangement=(2, 1, 1), tau=0.7, periodic=(False, True, True),
               solid=rng.random(shape) < 0.1)
    with CPUClusterLBM(ClusterConfig(**cfg)) as serial, \
            CPUClusterLBM(ClusterConfig(backend="processes", **cfg)) as procs:
        assert procs.step(3) == serial.step(3)
        want = serial.gather_distributions()
        assert np.array_equal(procs.gather_distributions(), want)
    assert leaked_segments() == []
    out, _ = SPMDClusterLBM(BlockDecomposition(shape, (2, 1, 1), periodic=(False, True, True)),
                            tau=0.7, solid=cfg["solid"]).run(3)
    assert np.array_equal(out, want)
    assert leaked_segments() == []


def test_kernel_report_before_any_step_is_the_same_on_both_backends():
    """A worker reports its rank's kernel when it is ready."""
    cfg = dict(sub_shape=(4, 4, 4), arrangement=(2, 1, 1), tau=0.7)
    with CPUClusterLBM(ClusterConfig(**cfg)) as serial, \
            CPUClusterLBM(ClusterConfig(backend="processes", **cfg)) as procs:
        rows = serial.kernel_report(cluster=True)
        assert procs.kernel_report(cluster=True) == rows
        assert [r["kernel"] for r in rows[:-1]] == ["aa", "aa"]
