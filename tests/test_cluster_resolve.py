"""Cluster-wide measured kernel resolution (``kernel="auto"`` +
``autotune="measured"``, the cluster default).

The decision rule is tested as a pure function over injected rates —
no timing in any assertion.  Cluster tests that need a particular
outcome inject the probe's rates too (``_probe_rates`` is patched in
the coordinator; forked workers never probe), so they are
deterministic; the few that run the real probe use configurations
whose margin is an order of magnitude, or assert only what holds
whichever kernel it picks — never a timing race.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.lbm import LBMSolver, autotune, clear_autotune_cache
from repro.lbm.autotune import (MARGIN, PROBE_MAX_CELLS, ProbeSpec,
                                decide_cluster, resolve_cluster)
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19
from repro.urban.city import times_square_like
from repro.urban.voxelize import voxelize_city

INLET = (0, "low", (0.04, 0.0, 0.0), 1.0)
OUTFLOW = (0, "high")


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_autotune_cache()
    yield
    clear_autotune_cache()


def _inject(monkeypatch, **mlups):
    """Make every probe report ``mlups[kernel]`` (default 1.0)."""
    monkeypatch.setattr(
        autotune, "_probe_rates",
        lambda spec, cands: {k: mlups.get(k, 1.0) for k in cands})


# -- (a) the decision rule, pure ----------------------------------------
class TestDecisionRule:
    def test_aa_wins_when_faster_on_every_rank(self):
        wins, picks, aa_ms, best_ms = decide_cluster(
            [100_000, 100_000], [{"aa": 8.0, "split": 4.0}] * 2)
        assert wins and picks == ["aa"] * 2
        assert aa_ms == pytest.approx(12.5) and best_ms == pytest.approx(25.0)

    def test_aa_loses_on_the_slowest_rank(self):
        # Rank 1 loves AA, but rank 0 sets the step and is 2x slower
        # under it: the cluster stays on each rank's best non-AA kernel.
        wins, picks, aa_ms, best_ms = decide_cluster(
            [200_000, 100_000],
            [{"aa": 2.0, "split": 4.0}, {"aa": 10.0, "split": 3.0}])
        assert not wins and picks == ["split"] * 2
        assert aa_ms == pytest.approx(100.0)
        assert best_ms == pytest.approx(50.0)

    def test_aa_may_lose_on_a_rank_that_does_not_set_the_step(self):
        wins, picks, aa_ms, best_ms = decide_cluster(
            [200_000, 10_000],
            [{"aa": 8.0, "split": 4.0}, {"aa": 1.0, "split": 2.0}])
        assert wins and set(picks) == {"aa"}
        assert aa_ms == pytest.approx(25.0) and best_ms == pytest.approx(50.0)

    def test_one_ineligible_rank_vetoes(self):
        # No "aa" rate: the rank could not be probed for it (body force,
        # unsupported boundary handler, GPU node, ...).
        wins, picks, aa_ms, best_ms = decide_cluster(
            [100_000, 100_000],
            [{"aa": 50.0, "split": 1.0}, {"sparse": 6.0, "split": 2.0}])
        assert not wins and aa_ms is None
        assert picks == ["split", "sparse"]
        assert best_ms == pytest.approx(100.0)

    def test_ties_inside_margin_keep_priority_order(self):
        cells = [100_000]
        inside = [{"aa": 10.0 * (MARGIN + 0.01), "split": 10.0}]
        outside = [{"aa": 10.0 * (MARGIN - 0.01), "split": 10.0}]
        assert decide_cluster(cells, inside)[0]
        assert not decide_cluster(cells, outside)[0]
        # Per rank too: sparse precedes split inside the margin.
        _, picks, _, _ = decide_cluster(
            cells, [{"sparse": 9.5, "split": 10.0}])
        assert picks == ["sparse"]


def _spy_collides(monkeypatch) -> list:
    """Record every ``collide`` / ``collide_boundary`` / ``collide_inner``
    call on any :class:`LBMSolver`, by name."""
    calls = []
    for name in ("collide", "collide_boundary", "collide_inner"):
        orig = getattr(LBMSolver, name)

        def spy(self, *a, _orig=orig, _name=name, **kw):
            calls.append(_name)
            return _orig(self, *a, **kw)
        monkeypatch.setattr(LBMSolver, name, spy)
    return calls


def _spec(**kwargs):
    base = dict(shape=(8, 8, 8), tau=0.7, dtype=np.dtype(np.float32),
                solid=None, solid_fraction=0.0,
                runnable=("aa", "sparse", "split"), periodic=False,
                halo_managed=True)
    base.update(kwargs)
    return ProbeSpec(**base)


class TestResolveCluster:
    def test_veto_drops_aa_from_every_probe(self, monkeypatch):
        probed = []

        def fake(spec, cands):
            probed.append(cands)
            return {k: 1.0 for k in cands}
        monkeypatch.setattr(autotune, "_probe_rates", fake)
        specs = [_spec(solid_fraction=0.6),
                 _spec(runnable=("sparse", "split"))]
        choice = resolve_cluster(specs, [512, 512])
        # AA is all-or-nothing: nobody is probed for it, and the rank
        # left with one candidate is not probed at all.
        assert probed == [("sparse", "split")]
        assert choice.kernel == "sparse" + "+split"
        assert choice.aa_ms is None and choice.best_ms is None
        assert [c.kernel for c in choice.choices] == ["sparse", "split"]
        assert not choice.choices[1].probed

    def test_same_signature_probes_once(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            autotune, "_probe_rates",
            lambda spec, cands: calls.append(1) or
            {k: 2.0 for k in cands})
        choice = resolve_cluster([_spec()] * 6, [512] * 6)
        assert len(calls) == 1
        assert choice.kernel == "aa" and len(choice.choices) == 6

    def test_cache_key_separates_halo(self):
        spec = _spec()
        cands = autotune._candidates(spec)
        key = autotune._cache_key(spec, cands)
        assert key != autotune._cache_key(replace(spec, halo_managed=False),
                                          cands)

    def test_probe_runs_whole_collide(self, monkeypatch):
        """A probe steps the calls a cluster rank issues: one whole
        collide per step, never the shell/core split."""
        calls = _spy_collides(monkeypatch)
        autotune._probe_rates(_spec(), ("aa", "split"))
        assert set(calls) == {"collide"}


# -- cluster wiring --------------------------------------------------------
def _city(shape, resolution_m=24.0):
    return voxelize_city(times_square_like(seed=7), shape,
                         resolution_m=resolution_m, ground_layers=1)


def _problem(kind, shape=(16, 12, 6)):
    """(reference solver at a random state, ClusterConfig kwargs)."""
    rng = np.random.default_rng(5)
    solid = _city(shape)
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0
    if kind == "bounded":
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                        periodic=False,
                        boundaries=[EquilibriumVelocityInlet(D3Q19, *INLET),
                                    OutflowBoundary(D3Q19, *OUTFLOW)])
        kwargs = dict(periodic=(False, False, False), inlet=INLET,
                      outflow=OUTFLOW, solid=solid)
    else:
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split")
        kwargs = dict(solid=solid)
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    return ref, kwargs


class TestAutoResolvedBitIdentity:
    """(b) auto-resolved clusters against the single-domain reference."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    @pytest.mark.parametrize("kind", ["bounded", "periodic"])
    @pytest.mark.parametrize("winner", ["aa", "split"])
    def test_every_step_count(self, monkeypatch, backend, kind, winner):
        _inject(monkeypatch, **{winner: 10.0})
        ref, kwargs = _problem(kind)
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, backend=backend, **kwargs)
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
        assert all(r["reason"].startswith("cluster-resolved") for r in rows)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_weighted_cuts(self, monkeypatch, backend):
        _inject(monkeypatch, aa=10.0)
        ref, kwargs = _problem("bounded", shape=(24, 12, 6))
        cfg = ClusterConfig(sub_shape=(8, 12, 6), arrangement=(3, 1, 1),
                            tau=0.7, backend=backend,
                            decomposition="weighted", **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "aa"
            cluster.load_global_distributions(ref.f)
            ref.step(3)
            cluster.step(3)
            assert np.array_equal(cluster.gather_distributions(), ref.f)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_odd_step_load_then_more_steps(self, monkeypatch, backend):
        """A default-config caller never asked for AA: loading at any
        step count must just work."""
        _inject(monkeypatch, aa=10.0)
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

    def test_rebalance_at_odd_step_count(self, monkeypatch):
        _inject(monkeypatch, aa=10.0)
        ref, kwargs = _problem("bounded", shape=(24, 12, 6))
        cfg = ClusterConfig(sub_shape=(8, 12, 6), arrangement=(3, 1, 1),
                            tau=0.7, **kwargs)
        cluster = CPUClusterLBM(cfg)
        try:
            cluster.load_global_distributions(ref.f)
            cluster.step(3)
            ref.step(3)
            cluster, info = cluster.rebalance(
                busy_s={0: 3.0, 1: 1.0, 2: 1.0})
            assert info["changed"] and cluster.time_step == 3
            cluster.step(2)
            ref.step(2)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
        finally:
            cluster.shutdown()


class TestSerialRanksCollideWhole:
    @pytest.mark.parametrize("kwargs", [{}, {"overlap": True}],
                             ids=["default", "overlap"])
    def test_no_shell_phase_no_comm_thread(self, monkeypatch, kwargs):
        """Serial CPU ranks step collide -> exchange -> finish like
        process ranks: ``overlap`` is the GPU driver's switch."""
        calls = _spy_collides(monkeypatch)
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            calls.clear()                  # the coordinator's probes
            timing = cluster.step(3)
            assert cluster._comm_executor is None
        assert calls == ["collide"] * 6    # 2 ranks x 3 steps
        assert timing.measured_window_s == 0.0

    @pytest.mark.parametrize("probe", ["injected", "real"])
    def test_strong_serial_shape_matches_reference(self, monkeypatch,
                                                   probe):
        """The fixed-size problem's shape, (4,4,2) periodic ranks of
        4^3: with AA the faster kernel in the probe it resolves ``aa``.
        Under the real probe 4^3 ranks sit on the margin, so the pick
        is not asserted; whichever kernel runs, every step matches the
        reference, across an odd-parity load and a mid-pair
        rebalance."""
        if probe == "injected":
            _inject(monkeypatch, aa=10.0)
        sub, arr = (4, 4, 4), (4, 4, 2)
        shape = tuple(s * a for s, a in zip(sub, arr))
        rng = np.random.default_rng(3)
        ref = LBMSolver(shape, tau=0.6, kernel="split")
        ref.initialize(1.0, (0.02 * rng.standard_normal((3,) + shape))
                       .astype(np.float32))
        cluster = CPUClusterLBM(ClusterConfig(sub_shape=sub,
                                              arrangement=arr, tau=0.6))
        try:
            assert cluster.resolved_kernel in ("aa", "split")
            if probe == "injected":
                assert cluster.resolved_kernel == "aa"
            cluster.load_global_distributions(ref.f.copy())
            for step in range(1, 6):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
            cluster.load_global_distributions(ref.f.copy())   # odd parity
            ref.step(1)
            cluster.step(1)                                   # mid-pair
            heavy = {r: 2.0 if cluster.decomp.coords_of(r)[0] == 0 else 1.0
                     for r in range(cluster.decomp.n_nodes)}
            cluster, info = cluster.rebalance(busy_s=heavy)
            assert info["changed"]
            for step in range(7, 10):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
        finally:
            cluster.shutdown()


class TestResolutionScope:
    @pytest.mark.parametrize("kwargs", [
        {"kernel": "split"}, {"kernel": "aa"}, {"kernel": "sparse"},
        {"autotune": "heuristic"}, {"timing_only": True}])
    def test_nothing_to_resolve(self, monkeypatch, kwargs):
        monkeypatch.setattr(autotune, "_probe_rates", None)   # must not run
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, **kwargs)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.kernel_choice is None
            assert cluster.resolved_kernel == cfg.kernel
            row = cluster.kernel_report(cluster=True)[-1]
            assert row["rank"] == "cluster" and row["aa_ms"] is None

    def test_gpu_cluster_never_resolves(self, monkeypatch):
        monkeypatch.setattr(autotune, "_probe_rates", None)
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            assert cluster.kernel_choice is None and not cluster.aa_protocol

    def test_body_force_vetoes_aa(self, monkeypatch):
        _inject(monkeypatch, aa=100.0)
        solid = np.zeros((12, 6, 4), bool)
        solid[:6] = True          # gives rank 0 a sparse-vs-split probe
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, force=(1e-5, 0.0, 0.0), solid=solid)
        with CPUClusterLBM(cfg) as cluster:
            assert not cluster.aa_protocol
            assert cluster.kernel_choice.aa_ms is None
            assert all("aa" not in c.rates
                       for c in cluster.kernel_choice.choices)

    def test_cluster_row_reports_the_prediction(self, monkeypatch):
        _inject(monkeypatch, aa=4.0, split=2.0)
        cfg = ClusterConfig(sub_shape=(10, 10, 10), arrangement=(2, 1, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as cluster:
            *ranks, row = cluster.kernel_report(cluster=True)
        assert len(ranks) == 2
        assert row["kernel"] == "aa"
        assert row["aa_ms"] == pytest.approx(0.25)
        assert row["best_ms"] == pytest.approx(0.5)
        assert row["cells"] == 2000


class TestMixedCluster:
    def test_solid_rank_sparse_fluid_rank_split(self):
        """(c) real probes, decisive margins: a body force keeps the
        cluster off AA, so an all-solid rank (sparse wins ~10x) next to
        an open one (split, the only candidate below 25 % solid)
        resolves today's per-rank sparse/split report."""
        shape = (32, 32, 8)
        force = (1e-5, 0.0, 0.0)
        solid = np.zeros(shape, bool)
        solid[:16] = True
        rng = np.random.default_rng(1)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                        force=force)
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        cfg = ClusterConfig(sub_shape=(16, 32, 8), arrangement=(2, 1, 1),
                            tau=0.7, solid=solid, force=force)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "sparse+split"
            cluster.load_global_distributions(ref.f)
            ref.step(3)
            cluster.step(3)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
            rows = cluster.kernel_report()
        assert [r["kernel"] for r in rows] == ["sparse", "split"]
        assert rows[0]["rates"]["sparse"] == max(rows[0]["rates"].values())


class TestProbeHygiene:
    def test_second_construction_probes_nothing(self):
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as first:
            summary = first.counters.summary()
            # Two ranks, one signature: one probe, one cache hit.
            assert summary["autotune.probe"]["calls"] == 1
            assert summary["autotune.cached"]["calls"] == 1
        with CPUClusterLBM(cfg) as second:
            summary = second.counters.summary()
            assert "autotune.probe" not in summary
            assert summary["autotune.cached"]["calls"] == 2
            assert second.kernel_choice == first.kernel_choice

    def test_workers_never_probe(self):
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, backend="processes")
        with CPUClusterLBM(cfg) as cluster:
            before = cluster.counters.summary()
            cluster.step(2)
            after = cluster.counters.summary()   # worker counters merged
            rows = cluster.kernel_report()
        for name in ("autotune.probe", "autotune.cached"):
            assert after[name]["calls"] == before[name]["calls"]
        for row in rows:
            assert row["reason"].startswith("cluster-resolved")
            assert row["kernel"] == cluster.resolved_kernel

    def test_coordinator_builds_crop_sized_probes_only(self, monkeypatch):
        built = []
        orig = LBMSolver.__init__

        def spy(self, shape, *a, **kw):
            built.append(tuple(shape))
            orig(self, shape, *a, **kw)
        monkeypatch.setattr(LBMSolver, "__init__", spy)
        sub = (64, 32, 32)                       # 65k cells > probe budget
        assert int(np.prod(sub)) > PROBE_MAX_CELLS
        cfg = ClusterConfig(sub_shape=sub, arrangement=(2, 1, 1), tau=0.7,
                            backend="processes")
        with CPUClusterLBM(cfg):
            pass
        assert built, "the coordinator never probed"
        assert all(int(np.prod(s)) <= PROBE_MAX_CELLS for s in built)
