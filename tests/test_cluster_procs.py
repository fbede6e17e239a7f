"""Process-backend cluster stepping: equivalence, lifecycle, teardown.

``ClusterConfig.backend = "processes"`` runs one persistent worker
process per rank with all bulk data in shared memory.  The gathered
result must match the serial backend bit for bit, counters must
aggregate across ranks, and — mirroring ``test_simmpi_robustness`` —
a killed worker must surface as one clear error from ``step()``
(never a hang), with the driver still cleanly closable and no shared
segments or worker processes left behind.  The backend steps CPU ranks
only; a simulated-GPU cluster refuses it before any worker exists.
"""

import multiprocessing
import os
import re
import signal
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM, leaked_segments
from repro.lbm.solver import LBMSolver

SUB, ARR = (8, 6, 4), (2, 2, 1)
SHAPE = tuple(s * a for s, a in zip(SUB, ARR))
N_RANKS = int(np.prod(ARR))


def _initial_state(rng, solid=None):
    ref = LBMSolver(SHAPE, tau=0.7, solid=solid)
    u0 = (0.02 * rng.standard_normal((3,) + SHAPE)).astype(np.float32)
    if solid is not None:
        u0[:, solid] = 0
    ref.initialize(rho=np.ones(SHAPE, np.float32), u=u0)
    return ref.f.copy()


def _run(cls, f0, steps=4, solid=None, **cfg_kw):
    cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                        solid=solid, **cfg_kw)
    cluster = cls(cfg)
    try:
        cluster.load_global_distributions(f0)
        timing = cluster.step(steps)
        f = cluster.gather_distributions().copy()
    finally:
        cluster.shutdown()
    return f, timing


def _assert_all_dead(pids):
    deadline = time.monotonic() + 5.0
    for pid in pids:
        if pid is None:
            continue
        while time.monotonic() < deadline:
            try:
                os.kill(pid, 0)
            except (ProcessLookupError, PermissionError):
                break
            time.sleep(0.02)
        else:
            pytest.fail(f"worker pid {pid} survived shutdown")


class TestProcessesEqualsSerial:
    def test_gather_bit_identical_with_solid(self, rng):
        solid = np.zeros(SHAPE, bool)
        solid[3:6, 4:7, 1:3] = True
        f0 = _initial_state(rng, solid=solid)
        f_serial, _ = _run(CPUClusterLBM, f0, solid=solid, backend="serial")
        f_procs, _ = _run(CPUClusterLBM, f0, solid=solid,
                          backend="processes")
        assert np.array_equal(f_serial, f_procs)

    def test_step_timing_decomposition_identical(self, rng):
        f0 = _initial_state(rng)
        _, t_serial = _run(CPUClusterLBM, f0, backend="serial")
        _, t_procs = _run(CPUClusterLBM, f0, backend="processes")
        assert t_serial.nodes == t_procs.nodes
        assert t_serial.compute_s == t_procs.compute_s
        assert t_serial.agp_s == t_procs.agp_s
        assert t_serial.net_total_s == t_procs.net_total_s


class TestProcessesMatchesReference:
    def test_process_cpu_cluster_matches_reference(self, rng):
        ref = LBMSolver(SHAPE, tau=0.7)
        u0 = (0.02 * rng.standard_normal((3,) + SHAPE)).astype(np.float32)
        ref.initialize(rho=np.ones(SHAPE, np.float32), u=u0)
        f0 = ref.f.copy()
        ref.step(5)
        f, _ = _run(CPUClusterLBM, f0, steps=5, backend="processes")
        assert np.array_equal(f, ref.f)

    def test_counters_aggregate_across_ranks(self, rng):
        f0 = _initial_state(rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(2)
            cluster.step(1)
            stats = cluster.counters.stats
            # Worker-side phases merged back: one call per rank per step.
            assert stats["cluster.collide"].calls == 3 * N_RANKS
            assert stats["cluster.exchange"].calls == 3 * N_RANKS
            assert stats["cluster.finish"].calls == 3 * N_RANKS
            # Coordinator-side envelope: one record per step() call.
            assert stats["cluster.proc_step"].calls == 2


class TestLifecycle:
    def test_shutdown_leaves_nothing_behind(self, rng):
        f0 = _initial_state(rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        cluster = CPUClusterLBM(cfg)
        pids = cluster._proc_backend.worker_pids()
        assert len(pids) == N_RANKS
        cluster.load_global_distributions(f0)
        cluster.step(2)
        assert leaked_segments()  # live driver owns segments
        cluster.shutdown()
        assert leaked_segments() == []
        _assert_all_dead(pids)

    def test_shutdown_idempotent_and_step_after_raises(self, rng):
        f0 = _initial_state(rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        cluster = CPUClusterLBM(cfg)
        cluster.load_global_distributions(f0)
        cluster.step(1)
        cluster.shutdown()
        cluster.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            cluster.step(1)

    def test_context_manager_shuts_down(self, rng):
        f0 = _initial_state(rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(1)
            pids = cluster._proc_backend.worker_pids()
        assert leaked_segments() == []
        _assert_all_dead(pids)


class TestKilledWorker:
    def test_killed_worker_raises_not_hangs(self, rng):
        f0 = _initial_state(rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        cluster = CPUClusterLBM(cfg)
        try:
            cluster.load_global_distributions(f0)
            cluster.step(1)
            backend = cluster._proc_backend
            pids = backend.worker_pids()
            os.kill(pids[1], signal.SIGKILL)
            t0 = time.monotonic()
            with pytest.raises(RuntimeError,
                               match=r"process backend failed.*rank 1"):
                cluster.step(2)
            # Liveness detection + barrier abort, not a timeout wait.
            assert time.monotonic() - t0 < 10.0
            with pytest.raises(RuntimeError, match="broken"):
                cluster.step(1)
        finally:
            cluster.shutdown()
        assert leaked_segments() == []
        _assert_all_dead(pids)


class TestConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="backend"):
            ClusterConfig(sub_shape=(8, 8, 8), arrangement=(1, 1, 1),
                          backend="gpu-direct")

    def test_processes_with_timing_only_rejected(self):
        with pytest.raises(ValueError, match="timing_only"):
            ClusterConfig(sub_shape=(8, 8, 8), arrangement=(2, 1, 1),
                          timing_only=True, backend="processes")

    def test_gpu_cluster_refuses_processes(self):
        """Simulated-GPU ranks run on the serial backend only: the
        refusal names it and comes before any segment or worker."""
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        with pytest.raises(ValueError, match="backend='serial'"):
            GPUClusterLBM(cfg)
        assert leaked_segments() == []
        assert multiprocessing.active_children() == []


class TestMailboxLayout:
    def test_both_sides_message_is_one_contiguous_block(self):
        """A slot's two directions are adjacent: the both-sides message
        of a periodic extent-2 axis is the slot's whole block, a
        single-side message its half, and the two slots never alias."""
        from repro.core.shm import MAIL_LINKS, RankSegments, unique_token
        sub = (4, 3, 2)
        seg = RankSegments.create(0, sub, 19, unique_token())
        try:
            for axis in range(3):
                face = int(np.prod([s + 2 for a, s in enumerate(sub)
                                    if a != axis]))
                for slot in (0, 1):
                    both = seg.mailbox(axis, slot, (-1, 1))
                    assert both.size == 2 * MAIL_LINKS * face
                    assert both.flags.c_contiguous
                    both[:] = 10 * axis + slot
                    lo = seg.mailbox(axis, slot, (-1,))
                    hi = seg.mailbox(axis, slot, (1,))
                    assert lo.size == hi.size == MAIL_LINKS * face
                    assert np.shares_memory(lo, both[:lo.size])
                    assert np.shares_memory(hi, both[lo.size:])
                    hi[:] = -1.0
                    assert (both[lo.size:] == -1.0).all()
                    assert (both[:lo.size] == 10 * axis + slot).all()
                assert not np.shares_memory(seg.mailbox(axis, 0, (-1, 1)),
                                            seg.mailbox(axis, 1, (-1, 1)))
            del both, lo, hi
        finally:
            seg.close()
        assert leaked_segments() == []

    def test_specs_and_segments_take_no_wire(self):
        """The per-face mailbox sizing went with the wire option."""
        import dataclasses

        from repro.core.procpool import WorkerSpec
        from repro.core.shm import RankSegments
        assert "wire" not in {f.name for f in dataclasses.fields(WorkerSpec)}
        with pytest.raises(TypeError, match="wire"):
            RankSegments.create(0, (4, 4, 4), 19, "tok", wire="merged")
        with pytest.raises(TypeError, match="wire"):
            RankSegments.attach({}, (4, 4, 4), 19, wire="merged")


def _bounded_city(shape):
    """A voxelized city with an inlet and an outflow face."""
    from repro.urban import DispersionScenario, times_square_like
    return DispersionScenario(shape, resolution_m=38.0, tau=0.55,
                              city=times_square_like(seed=3))


def _bounded_city_config(sc, **kw):
    return ClusterConfig(
        sub_shape=(sc.shape[0] // 2,) + sc.shape[1:], arrangement=(2, 1, 1),
        tau=sc.tau, periodic=(False, False, False), solid=sc.solid,
        inlet=sc.inlet, outflow=sc.outflow, backend="processes", **kw)


class TestFreshSegments:
    def test_read_zero_without_a_fill(self):
        """Ghosts and mailboxes rely on a new segment's zero pages;
        nothing on the coordinator writes them."""
        from repro.core.shm import RankSegments, unique_token
        seg = RankSegments.create(0, (5, 4, 3), 19, unique_token())
        try:
            assert set(seg.names) == {"fg", "mail", "health"}
            views = list(seg.fg_bufs) + list(seg.mail) + [seg.health]
            for view in views:
                assert view.size and not view.any()
            del views, view
        finally:
            seg.close()
        assert leaked_segments() == []


class TestOneRankDescription:
    def test_every_driver_builds_the_same_ranks(self, monkeypatch,
                                                tmp_path):
        """Serial ranks, worker processes and SPMD ranks are built from
        one rank description: each rank's node receives the same block,
        neighbour slots, boundary handlers and halo face row.  A forked
        worker records its node in a file, since its memory is its
        own."""
        import pickle

        from repro.core import cpu_node
        from repro.core.procpool import _mp_context
        from repro.core.spmd import SPMDClusterLBM
        if _mp_context().get_start_method() != "fork":
            pytest.skip("a spawned worker does not inherit the spy")
        sc = _bounded_city((16, 12, 8))
        cfg = ClusterConfig(
            sub_shape=(8, 6, 8), arrangement=(2, 2, 1), tau=sc.tau,
            periodic=(False, False, False), solid=sc.solid,
            inlet=sc.inlet, outflow=sc.outflow)
        driver = ["serial"]
        build = cpu_node.CPUNode.__init__

        def spy(node, *args, **kwargs):
            build(node, *args, **kwargs)
            solver = node.solver
            row = (node.sub_shape, node.face_dirs, node.edge_dirs,
                   [(type(b).__name__, b.axis, b.side)
                    for b in solver.boundaries], solver.halo_faces)
            path = tmp_path / f"{driver[0]}-{node.rank}.pkl"
            path.write_bytes(pickle.dumps(row))
        monkeypatch.setattr(cpu_node.CPUNode, "__init__", spy)
        serial = CPUClusterLBM(cfg)
        driver[0] = "processes"
        CPUClusterLBM(replace(cfg, backend="processes")).shutdown()
        driver[0] = "spmd"
        decomp = serial.decomp
        SPMDClusterLBM(decomp, sc.tau, solid=sc.solid, inlet=sc.inlet,
                       outflow=sc.outflow).run(1)

        def rows(name):
            return [pickle.loads((tmp_path / f"{name}-{r}.pkl").read_bytes())
                    for r in range(decomp.n_nodes)]
        serial = rows("serial")
        assert rows("processes") == serial
        assert rows("spmd") == serial
        handlers = {h for row in serial for h in row[3]}
        assert {h[0] for h in handlers} == {"EquilibriumVelocityInlet",
                                            "OutflowBoundary"}
        assert all(row[4] is not None for row in serial)


def _proc_status_kb(pid) -> dict:
    text = Path(f"/proc/{pid}/status").read_text()
    return {k: int(v) for k, v in re.findall(r"^(\w+):\s+(\d+) kB", text,
                                             re.M)}


@pytest.mark.skipif(not os.path.isdir("/proc/self"),
                    reason="needs Linux /proc accounting")
class TestResidentPages:
    def test_each_rank_lattice_is_resident_once(self):
        """The coordinator faults in no lattice page, and a worker's
        private build copy never coexists with its shared one."""
        sc = _bounded_city((64, 48, 24))
        cfg = _bounded_city_config(sc)
        with CPUClusterLBM(cfg) as cluster:
            backend = cluster._proc_backend
            pids = backend.worker_pids()
            # The fg segment holds two buffers.
            one_fg_kb = backend.segments[0]._nbytes("fg") / 2 / 1024
            small_kb = sum(seg._nbytes("mail") + seg._nbytes("health")
                           for seg in backend.segments) / 1024
            for when in ("built", "stepped"):
                if when == "stepped":
                    cluster.step(2)
                coord = _proc_status_kb("self")
                assert coord["RssShmem"] < small_kb + 4096, when
                for pid in pids:
                    st = _proc_status_kb(pid)
                    assert st["VmHWM"] - st["VmRSS"] < one_fg_kb / 2, \
                        (when, st)


class TestForcedSplitRanks:
    def test_split_ranks_match_reference_from_the_built_state(self):
        """A forced ``split`` rank streams into the second shared buffer
        after adopting it; step from the constructor's state (no load),
        through both buffer parities."""
        sc = _bounded_city((16, 12, 8))
        ref = sc.make_single_solver(kernel="split")
        with CPUClusterLBM(_bounded_city_config(sc, kernel="split")) as cl:
            for step in range(1, 5):
                ref.step(1)
                cl.step(1)
                assert np.array_equal(cl.gather_distributions(), ref.f), step
            rows = cl.kernel_report()
        assert {r["kernel"] for r in rows} == {"split"}
