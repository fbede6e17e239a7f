"""Coordinator bookkeeping around the halo exchange.

What survived the ``backend="threads"`` node pool (deleted with its
``max_workers`` knob and the per-face wire): per-phase counters, an
idempotent shutdown, a steady-state exchange that allocates nothing —
asserted through the public counters — and the removed options now
being rejected outright.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.lbm.solver import LBMSolver

SUB, ARR = (8, 6, 4), (2, 2, 1)
SHAPE = tuple(s * a for s, a in zip(SUB, ARR))


def _initial_state(rng):
    ref = LBMSolver(SHAPE, tau=0.7)
    u0 = (0.02 * rng.standard_normal((3,) + SHAPE)).astype(np.float32)
    ref.initialize(rho=np.ones(SHAPE, np.float32), u=u0)
    return ref.f.copy()


class TestExchangeBuffers:
    def test_wire_buffers_allocated_once(self, rng):
        """One outbox per neighbour message plus one scratch buffer per
        self-wrapping axis, allocated by the first exchange and never
        again."""
        f0 = _initial_state(rng)
        for periodic in ((True, True, True), (False, True, False)):
            cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                                periodic=periodic, kernel="split")
            with CPUClusterLBM(cfg) as cluster:
                cluster.load_global_distributions(f0)
                cluster.step(1)
                counters = cluster.counters
                bufs = counters.stats["exchange.wire_bufs"].allocs
                total = counters.total_allocs()
                # Per rank: one message per axis with neighbours (extent
                # 2: both-sides when periodic, single-side when bounded),
                # plus the z self-wrap scratch when z is periodic.
                assert bufs == len(cluster.nodes) * (2 + int(periodic[2]))
                cluster.step(3)
                assert counters.stats["exchange.wire_bufs"].allocs == bufs
                assert counters.total_allocs() == total

    def test_cluster_counters_record_phases(self, rng):
        f0 = _initial_state(rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(2)
            stats = cluster.counters.stats
            # Collide and finish once per rank per step, the exchange
            # once per step.
            ranks = len(cluster.nodes)
            assert stats["cluster.collide"].calls == 2 * ranks
            assert stats["cluster.exchange"].calls == 2
            assert stats["cluster.finish"].calls == 2 * ranks

    def test_sequential_protocol_records_legacy_phases(self, rng):
        """Every driver steps collide -> exchange -> finish, on CPU and
        GPU ranks alike, and records no other ``cluster.*`` phase."""
        f0 = _initial_state(rng)
        for cls in (CPUClusterLBM, GPUClusterLBM):
            cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7)
            with cls(cfg) as cluster:
                cluster.load_global_distributions(f0)
                cluster.step(2)
                stats = cluster.counters.stats
                assert stats["cluster.collide"].calls == 2 * len(cluster.nodes)
                assert stats["cluster.exchange"].calls == 2
                assert stats["cluster.step"].calls == 2
                assert {k for k in stats if k.startswith("cluster.")} == {
                    "cluster.collide", "cluster.exchange", "cluster.finish",
                    "cluster.step"}


class TestConfigValidation:
    def test_removed_options_rejected(self):
        """``max_workers``, ``wire``, ``layout``, ``sparse_threshold``,
        ``autotune``, ``decomposition``, ``overlap``, ``compression``,
        ``use_sse``, ``gpu_spec``, ``cpu_spec``, ``backend_timeout_s``,
        ``backend="threads"`` and ``kernel="fused"`` / ``"sparse"``
        selected code or settings that no longer exist; passing them
        must fail loudly."""
        base = dict(sub_shape=(8, 8, 8), arrangement=(1, 1, 1))
        for removed in ({"max_workers": 2}, {"wire": "merged"},
                        {"wire": "perface"}, {"layout": "soa"},
                        {"sparse_threshold": 0.5},
                        {"autotune": "measured"},
                        {"decomposition": "weighted"}, {"overlap": True},
                        {"compression": "off"}, {"use_sse": True},
                        {"gpu_spec": None}, {"cpu_spec": None},
                        {"backend_timeout_s": 30.0}):
            with pytest.raises(TypeError, match=next(iter(removed))):
                ClusterConfig(**base, **removed)
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(**base, backend="threads")
        for kernel in ("fused", "sparse", "aa"):
            with pytest.raises(ValueError, match="'auto' or 'split'"):
                ClusterConfig(**base, kernel=kernel)
        assert [f.name for f in dataclasses.fields(ClusterConfig)] == [
            "sub_shape", "arrangement", "tau", "periodic", "timing_only",
            "solid", "inlet", "outflow", "force", "bus", "switch",
            "backend", "kernel", "cuts"]

    def test_backend_must_be_known(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(sub_shape=(8, 8, 8), arrangement=(1, 1, 1),
                          backend="mpi")

    def test_shutdown_idempotent(self):
        for backend in ("serial", "processes"):
            cfg = ClusterConfig(sub_shape=(4, 4, 4), arrangement=(2, 1, 1),
                                tau=0.7, backend=backend)
            cluster = CPUClusterLBM(cfg)
            cluster.step(1)
            cluster.shutdown()
            cluster.shutdown()
        # a serial driver keeps stepping after shutdown
        cluster = CPUClusterLBM(dataclasses.replace(cfg, backend="serial"))
        cluster.step(1)
        cluster.shutdown()
        cluster.step(1)
        cluster.shutdown()
