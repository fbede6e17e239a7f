"""Serial CPU ranks swept as one stacked lattice (:mod:`repro.core.stack`).

* the rank-axis exchange against the per-message engine
  (:func:`~repro.core.exchange.exchange_all` over per-rank
  :class:`~repro.core.exchange.SolverPort`\\ s) on random arenas: both
  AA manifest modes (a pull exchange is refused: only AA ranks stack),
  periodic / bounded / mixed domains with axis extents 1, 2 and 3,
  uniform and unequal cuts — identical arrays, identical ``comm.*``
  counters, no arena-sized temporary;
* stacked clusters against the single-domain reference at every step:
  solids plus inlet/outflow, an odd-parity load, unequal cuts, a
  ``rebalance()`` successor, a codec on;
* the arena itself (adoption, the batch solid mask) and what
  observability sees of a batch (per-rank spans, ``rank.busy_seconds``).
"""

from __future__ import annotations

import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core import BlockDecomposition, ClusterConfig, CPUClusterLBM
from repro.core.exchange import (RankAxisExchange, SolverPort, exchange_all,
                                 local_engines)
from repro.core.stack import carve_arenas
from repro.lbm import LBMSolver
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19
from repro.perf.recorder import Recorder

INLET = (0, "low", (0.04, 0.0, 0.0), 1.0)
OUTFLOW = (0, "high")
#: Axis extents 3, 2 and 1; unequal cuts give four block shapes, one of
#: them 2 cells thick along y (the reverse fold's inner layer is then
#: the border a peer wrote).
ARRANGEMENT = (3, 2, 1)
CUTS = ((3, 4, 3), (2, 3), (4,))
GLOBAL = (10, 5, 4)


def _slot_arrays(decomp, rng):
    """Random arenas and an identical second set."""
    a = carve_arenas(decomp, D3Q19.Q, np.float32)
    b = carve_arenas(decomp, D3Q19.Q, np.float32)
    arenas = {id(arena): arena for arena, _ in a.values()}
    flat = next(iter(arenas.values())).base
    flat[...] = rng.standard_normal(flat.size)
    next(iter(b.values()))[0].base[...] = flat
    return a, b, flat


@pytest.mark.parametrize("mode", ["aa_forward", "aa_reverse", "pull"])
@pytest.mark.parametrize("periodic", [(True, True, True),
                                      (False, False, False),
                                      (True, False, True)],
                         ids=["periodic", "bounded", "mixed"])
@pytest.mark.parametrize("cuts", [None, CUTS], ids=["uniform", "unequal"])
def test_rank_axis_exchange_matches_the_engine(mode, periodic, cuts, rng):
    shape = GLOBAL if cuts else (9, 6, 4)
    decomp = BlockDecomposition(shape, ARRANGEMENT, periodic=periodic,
                                cuts=cuts)
    engine_slots, stacked_slots, flat = _slot_arrays(decomp, rng)
    groups = {id(arena) for arena, _ in stacked_slots.values()}
    assert len(groups) == (4 if cuts else 1)
    if mode == "pull":
        # Only AA ranks stack; a pull rank's wraps and edges close in
        # the engine.
        with pytest.raises(ValueError, match="only AA ranks stack"):
            RankAxisExchange(decomp, stacked_slots).run(mode)
        return
    odd = mode == "aa_reverse"
    ports = [SolverPort(SimpleNamespace(fg=arena[:, slot], lattice=D3Q19,
                                        aa_odd=odd),
                        decomp.block_shape(rank))
             for rank, (arena, slot) in sorted(engine_slots.items())]
    oracle = Recorder()
    engines = local_engines(decomp, ports, aa=mode != "pull",
                            recorder=oracle)
    assert engines[0].mode == mode
    counters = Recorder()
    executor = RankAxisExchange(decomp, stacked_slots, counters)
    for _ in range(2):
        exchange_all(engines, oracle)
        executor.run(mode)
        for rank in range(decomp.n_nodes):
            arena, slot = stacked_slots[rank]
            assert np.array_equal(arena[:, slot], ports[rank].solver.fg), rank

    def comm(c):
        return {k: v for k, v in c.summary().items() if k.startswith("comm.")}
    assert comm(counters) == comm(oracle)
    assert comm(counters)["comm.msgs"]["value"] == 2 * executor.msgs
    # Steady state: the copies' gathers are halo-sized.
    tracemalloc.start()
    executor.run(mode)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    assert peak < flat.nbytes // 4


def _bounded(shape, rng):
    """A split reference with solids, inlet and outflow, and the
    matching cluster kwargs."""
    solid = np.zeros(shape, bool)
    solid[3:6, 2:5, :2] = True
    solid[9:11, 6:8, 1:4] = True
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0
    ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                    periodic=False,
                    boundaries=[EquilibriumVelocityInlet(D3Q19, *INLET),
                                OutflowBoundary(D3Q19, *OUTFLOW)])
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    return ref, dict(periodic=(False, False, False), inlet=INLET,
                     outflow=OUTFLOW, solid=solid, tau=0.7)


class TestStackedCluster:
    SHAPE = (16, 12, 6)

    @pytest.mark.parametrize("cuts", [None, ((5, 11), (7, 5), (6,))],
                             ids=["uniform", "unequal"])
    def test_every_step_with_solids_and_handlers(self, rng, cuts):
        ref, kw = _bounded(self.SHAPE, rng)
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            cuts=cuts, **kw)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.stacked
            cluster.load_global_distributions(ref.f)
            for step in range(1, 7):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
            rows = cluster.kernel_report()
        assert {r["kernel"] for r in rows} == {"aa"}
        assert all(r["reason"].startswith("rule:") for r in rows)

    def test_odd_parity_load_and_rebalance(self, rng):
        ref, kw = _bounded(self.SHAPE, rng)
        f0 = ref.f.copy()
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1), **kw)
        cluster = CPUClusterLBM(cfg)
        try:
            cluster.load_global_distributions(f0)
            cluster.step(3)
            cluster.load_global_distributions(f0)     # re-based mid-pair
            for step in range(1, 4):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
            # Three steps after the load: a mid-pair (rotated) gather.
            assert cluster.nodes[0].solver.aa_odd
            cluster, info = cluster.rebalance(
                busy_s={0: 3.0, 1: 3.0, 2: 1.0, 3: 1.0})
            assert info["changed"] and cluster.stacked
            assert cluster.time_step == 6
            for step in range(4, 7):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
        finally:
            cluster.shutdown()

    def test_ranks_adopt_their_arena_slots(self):
        cfg = ClusterConfig(sub_shape=(4, 4, 4), arrangement=(4, 4, 2),
                            tau=0.6)
        with CPUClusterLBM(cfg) as cluster:
            stack = cluster._stack
            (kernel,) = stack.kernels
            arena = kernel._stack
            assert arena.shape == (19, 32, 6, 6, 6)
            for rank, node in enumerate(cluster.nodes):
                assert node.solver.fg.base is not None
                assert np.shares_memory(node.solver.fg, arena)
                assert node.solver.fg.shape == (19, 6, 6, 6)
                assert np.array_equal(node.solver.fg, arena[:, rank])
            cluster.step(2)
            assert all(node.solver._fg_next_buf is None
                       for node in cluster.nodes)

    def test_construction_never_holds_a_second_copy(self):
        """Each rank moves into its slot as soon as it is built, so
        building the cluster peaks well below two arenas."""
        cfg = ClusterConfig(sub_shape=(8, 8, 8), arrangement=(2, 2, 2),
                            tau=0.6)
        CPUClusterLBM(cfg)              # imports and caches warm
        tracemalloc.start()
        cluster = CPUClusterLBM(cfg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        (kernel,) = cluster._stack.kernels
        assert peak < 1.6 * kernel._stack.nbytes

    def test_batch_scratch_is_one_chunk_of_whole_ranks(self):
        """The batch kernel's only workspace, the solid mask, is one
        batch box of whole padded ranks (32 of 14^3, or the single
        rank's box); the ranks' own kernels are never swept."""
        for arrangement, ranks in (((4, 4, 2), 32), ((1, 1, 1), 1)):
            cfg = ClusterConfig(sub_shape=(12, 12, 12),
                                arrangement=arrangement, tau=0.6)
            with CPUClusterLBM(cfg) as cluster:
                cluster.step(2)
                (kernel,) = cluster._stack.kernels
                assert kernel._solid.shape == (ranks, 14, 14, 14)
                assert all(node.solver._aa_kernel._solid is None
                           for node in cluster.nodes)

    def test_traced_ranks_tile_the_batch(self):
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7, cuts=((5, 11), (6, 6), (4,)))
        with CPUClusterLBM(cfg) as cluster:
            tracer = cluster.enable_tracing()
            cluster.step(2)
        cells = [b.cells for b in cluster.decomp.blocks]
        for name in ("cluster.collide", "cluster.finish"):
            for step in (0, 1):
                spans = sorted((e for e in tracer.events
                                if e.name == name and e.step == step),
                               key=lambda e: e.rank)
                assert [e.rank for e in spans] == [0, 1, 2, 3]
                for a, b in zip(spans, spans[1:]):
                    assert a.t1 == b.t0
                # Slices of one interval, up to perf_counter's float
                # resolution at its magnitude.
                durations = np.array([e.duration_s for e in spans])
                np.testing.assert_allclose(
                    durations, durations.sum() * np.array(cells) / sum(cells),
                    rtol=0, atol=1e-9)
                assert all(e.meta["kernel"] == "aa" for e in spans)

    def test_busy_seconds_cover_every_rank_by_cell_share(self):
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7, cuts=((5, 11), (6, 6), (4,)))
        with CPUClusterLBM(cfg) as cluster:
            session = cluster.enable_telemetry()
            cluster.step(3)
            busy = [session.busy_seconds()[r] for r in range(4)]
        cells = np.array([b.cells for b in cluster.decomp.blocks], float)
        assert all(b > 0 for b in busy)
        np.testing.assert_allclose(np.array(busy) / sum(busy),
                                   cells / cells.sum())
