"""Cluster-wide kernel resolution by rule.

The coordinator resolves ``aa`` for every CPU rank iff the configured
kernel is ``"auto"`` or ``"aa"`` and the run is numeric, body force or
not; otherwise every rank runs ``split``.  Each rank is built with
its ``halo_faces`` (or None) accordingly and resolves the same kernel
again by the solver's rule.  Nothing is measured, so no assertion here
depends on timing.
"""

from __future__ import annotations

import dataclasses
import time

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.lbm import AAStepKernel, LBMSolver
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19
from repro.urban.city import times_square_like
from repro.urban.voxelize import voxelize_city

INLET = (0, "low", (0.04, 0.0, 0.0), 1.0)
OUTFLOW = (0, "high")
FORCE = (1e-5, 0.0, 0.0)


def _successor(cluster, cuts):
    """Carry ``cluster``'s state into a fresh driver cut by ``cuts``:
    gather, build, load, then set the step count (the load re-bases an
    AA successor's phase at any parity)."""
    f, time_step = cluster.gather_distributions(), cluster.time_step
    traced = cluster.recorder.tracing
    cluster.shutdown()
    successor = CPUClusterLBM(dataclasses.replace(cluster.config, cuts=cuts))
    successor.load_global_distributions(f)
    successor.time_step = time_step
    if traced:
        successor.enable_tracing()
    return successor


def _spy_collides(monkeypatch) -> list:
    """Record every ``collide`` call on any :class:`LBMSolver`."""
    calls = []
    orig = LBMSolver.collide

    def spy(self, *a, **kw):
        calls.append("collide")
        return orig(self, *a, **kw)
    monkeypatch.setattr(LBMSolver, "collide", spy)
    return calls


# -- cluster wiring --------------------------------------------------------
def _city(shape, resolution_m=24.0):
    return voxelize_city(times_square_like(seed=7), shape,
                         resolution_m=resolution_m, ground_layers=1)


def _problem(kind, shape=(16, 12, 6), force=None):
    """(reference solver at a random state, ClusterConfig kwargs)."""
    rng = np.random.default_rng(5)
    solid = _city(shape)
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0
    if kind == "bounded":
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                        periodic=False, force=force,
                        boundaries=[EquilibriumVelocityInlet(D3Q19, *INLET),
                                    OutflowBoundary(D3Q19, *OUTFLOW)])
        kwargs = dict(periodic=(False, False, False), inlet=INLET,
                      outflow=OUTFLOW, solid=solid, force=force)
    else:
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                        force=force)
        kwargs = dict(solid=solid, force=force)
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    return ref, kwargs


class TestAutoResolvedBitIdentity:
    """Rule-resolved clusters against the single-domain reference."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("kind", ["bounded", "periodic"])
    @pytest.mark.parametrize("winner", ["aa", "split"])
    def test_every_step_count(self, backend, kind, winner):
        """The default resolves ``aa``; ``kernel="split"`` (here with a
        body force) runs ``split``."""
        ref, kwargs = _problem(kind,
                               force=None if winner == "aa" else FORCE)
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, backend=backend,
                            kernel="auto" if winner == "aa" else "split",
                            **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == winner
            assert cluster.aa_protocol == (winner == "aa")
            cluster.load_global_distributions(ref.f)
            for step in range(1, 6):        # odd and even gathers
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), (backend, kind, step)
            rows = cluster.kernel_report()
        assert {r["kernel"] for r in rows} == {winner}
        assert all(r["reason"].startswith(
            "rule:" if winner == "aa" else "forced kernel='split'")
            for r in rows)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_unequal_cuts(self, backend):
        ref, kwargs = _problem("bounded", shape=(24, 12, 6))
        cuts = ((4, 6, 14), (12,), (6,))
        cfg = ClusterConfig(sub_shape=(8, 12, 6), arrangement=(3, 1, 1),
                            tau=0.7, backend=backend, cuts=cuts, **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "aa"
            cluster.load_global_distributions(ref.f)
            ref.step(3)
            cluster.step(3)
            assert np.array_equal(cluster.gather_distributions(), ref.f)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_odd_step_load_then_more_steps(self, backend):
        """A default-config caller never asked for AA: loading at any
        step count must just work."""
        ref, kwargs = _problem("bounded")
        f0 = ref.f.copy()
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, backend=backend, **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.aa_protocol
            cluster.load_global_distributions(f0)
            cluster.step(3)                      # odd step count
            cluster.load_global_distributions(f0)
            for n in range(1, 4):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), (backend, n)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_recut_successor_at_odd_step_count(self, backend):
        ref, kwargs = _problem("bounded", shape=(24, 12, 6))
        cfg = ClusterConfig(sub_shape=(8, 12, 6), arrangement=(3, 1, 1),
                            tau=0.7, backend=backend, **kwargs)
        cluster = CPUClusterLBM(cfg)
        try:
            assert cluster.aa_protocol
            cluster.load_global_distributions(ref.f)
            cluster.step(3)
            ref.step(3)
            cluster = _successor(cluster, ((4, 6, 14), (12,), (6,)))
            assert cluster.time_step == 3 and cluster.aa_protocol
            cluster.step(2)
            ref.step(2)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
        finally:
            cluster.shutdown()


class TestSerialRanksCollideWhole:
    def test_no_shell_phase_no_comm_thread(self, monkeypatch):
        """Serial CPU ranks step collide -> exchange -> finish like
        process ranks, one whole collide per rank and step.  AA ranks
        collide as one stacked lattice, one whole phase per step; split
        ranks one after another."""
        calls = _spy_collides(monkeypatch)
        phases = []
        for name in ("even_phase", "odd_phase"):
            orig = getattr(AAStepKernel, name)

            def spy(self, _orig=orig, _name=name):
                phases.append((_name, len(self.members)))
                return _orig(self)
            monkeypatch.setattr(AAStepKernel, name, spy)
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.stacked
            cluster.step(3)
        assert calls == []
        assert phases == [("even_phase", 2), ("odd_phase", 2),
                          ("even_phase", 2)]     # 3 steps, 2 ranks
        with CPUClusterLBM(dataclasses.replace(cfg, kernel="split")) as cluster:
            assert not cluster.stacked
            cluster.step(3)
        assert calls == ["collide"] * 6    # 2 ranks x 3 steps

    def test_strong_serial_toy_resolves_aa_without_a_clock(self,
                                                         monkeypatch):
        """The fixed-size problem's toy shape, (4,4,2) periodic ranks of
        4^3 (where aa and split tie), resolves ``aa`` while every clock
        the coordinator could read raises."""
        def no_clock():
            raise AssertionError("kernel resolution read a clock")
        for name in ("perf_counter", "perf_counter_ns", "monotonic",
                     "process_time", "thread_time", "time"):
            monkeypatch.setattr(time, name, no_clock)
        cfg = ClusterConfig(sub_shape=(4, 4, 4), arrangement=(4, 4, 2),
                            tau=0.6)
        cluster = CPUClusterLBM(cfg)
        monkeypatch.undo()
        with cluster:
            assert cluster.resolved_kernel == "aa" and cluster.aa_protocol
            cluster.step(1)
            rows = cluster.kernel_report()
        assert {r["kernel"] for r in rows} == {"aa"}

    @pytest.mark.parametrize("busy", ["injected", "real"])
    def test_strong_serial_shape_matches_reference(self, busy):
        """The toy shape matches the reference at every step, across an
        odd-parity load and a mid-pair successor driver.  The successor
        takes unequal cuts (those an x-low column twice as slow as the
        rest would ask for) or, on a traced run, the equal ones (stacked
        ranks' traced busy time is apportioned by cell share)."""
        sub, arr = (4, 4, 4), (4, 4, 2)
        shape = tuple(s * a for s, a in zip(sub, arr))
        rng = np.random.default_rng(3)
        ref = LBMSolver(shape, tau=0.6, kernel="split")
        ref.initialize(1.0, (0.02 * rng.standard_normal((3,) + shape))
                       .astype(np.float32))
        cluster = CPUClusterLBM(ClusterConfig(sub_shape=sub,
                                              arrangement=arr, tau=0.6))
        try:
            assert cluster.resolved_kernel == "aa"
            if busy == "real":
                cluster.enable_tracing()
            cluster.load_global_distributions(ref.f.copy())
            for step in range(1, 6):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
            cluster.load_global_distributions(ref.f.copy())   # odd parity
            ref.step(1)
            cluster.step(1)                                   # mid-pair
            cuts = (((3, 4, 5, 4), (4, 4, 4, 4), (4, 4))
                    if busy == "injected" else cluster.decomp.cuts)
            cluster = _successor(cluster, cuts)
            assert cluster.stacked and cluster.decomp.cuts == cuts
            for step in range(7, 10):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
        finally:
            cluster.shutdown()


class TestResolutionScope:
    @pytest.mark.parametrize("kwargs, kernel", [
        ({"kernel": "split"}, "split"), ({"kernel": "aa"}, "aa"),
        ({"force": FORCE}, "aa"), ({"kernel": "aa", "force": FORCE},
                                   "aa"),
        ({"kernel": "aa", "timing_only": True}, "split")],
        ids=[f"kwargs{i}" for i in range(5)])
    def test_nothing_to_resolve(self, kwargs, kernel):
        """Nothing is measured: every configuration resolves by the
        rule alone, and ranks follow the cluster's answer (a forced
        ``"aa"`` the cluster cannot run falls back to ``"split"``)."""
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == kernel
            assert cluster.aa_protocol == (kernel == "aa")
            if not cfg.timing_only:
                cluster.step(1)
                assert {r["kernel"] for r in cluster.kernel_report()} \
                    == {kernel}
            row = cluster.kernel_report(cluster=True)[-1]
            assert row["rank"] == "cluster" and row["kernel"] == kernel
            assert set(row) == {"rank", "kernel", "reason", "cells"}

    def test_gpu_cluster_never_resolves(self):
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "auto"
            assert not cluster.aa_protocol

    def test_body_force_under_configured_split(self):
        """``kernel="split"`` with a body force runs ``split`` on every
        rank, whatever the ranks' occupancy, and stays bit-identical to
        the reference."""
        shape = (12, 6, 4)
        solid = np.zeros(shape, bool)
        solid[:6] = True
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                        force=FORCE)
        ref.initialize(1.0)
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, force=FORCE, solid=solid,
                            kernel="split")
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "split"
            assert not cluster.aa_protocol
            assert cluster.kernel_reason == "configured kernel='split'"
            cluster.load_global_distributions(ref.f)
            ref.step(3)
            cluster.step(3)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
            rows = cluster.kernel_report()
        assert [r["kernel"] for r in rows] == ["split", "split"]

    def test_cluster_row_reports_the_rule(self):
        cfg = ClusterConfig(sub_shape=(10, 10, 10), arrangement=(2, 1, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as cluster:
            *ranks, row = cluster.kernel_report(cluster=True)
        assert len(ranks) == 2
        assert row["kernel"] == "aa"
        assert row["reason"].startswith("rule:")
        assert row["cells"] == 2000

    def test_process_ranks_resolve_by_the_rule(self):
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, backend="processes")
        with CPUClusterLBM(cfg) as cluster:
            cluster.step(2)
            rows = cluster.kernel_report()
        for row in rows:
            assert row["reason"].startswith("rule:")
            assert row["kernel"] == cluster.resolved_kernel == "aa"
