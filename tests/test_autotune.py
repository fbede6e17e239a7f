"""The kernel rule's threshold and the coordinator's measured probe.

Covers the ``kernel="auto"`` selection boundaries ISSUE 6 pins: a solid
fraction *exactly* at ``sparse_threshold`` (the rule is ``>=``),
all-fluid and all-solid sub-domains, the deterministic margin/priority
tie-break of the measured probe, and the rate cache that keeps a
many-rank cluster from probing once per rank.  The probe belongs to the
cluster coordinator (:func:`repro.lbm.autotune.resolve_cluster`); rank
sub-domains are described with :class:`ProbeSpec`.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lbm import LBMSolver, clear_autotune_cache
from repro.lbm import autotune
from repro.lbm.autotune import (MARGIN, PRIORITY, ProbeSpec, _active_faces,
                                _candidates, _measured_rates, _pick,
                                _probe_shape, resolve_cluster)
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19
from repro.perf.counters import KernelCounters

SHAPE = (10, 10, 4)  # 400 cells: exact halves are representable


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_autotune_cache()
    yield
    clear_autotune_cache()


def _solid(n_solid: int, shape=SHAPE):
    solid = np.zeros(shape, bool)
    solid.reshape(-1)[:n_solid] = True
    return solid


def _solver(n_solid: int = 0, shape=SHAPE, **kwargs):
    return LBMSolver(shape, tau=0.7, solid=_solid(n_solid, shape), **kwargs)


def _spec(n_solid: int = 0, shape=SHAPE, **kwargs):
    """A rank description as the coordinator builds it."""
    solid = _solid(n_solid, shape)
    base = dict(shape=shape, tau=0.7, dtype=np.dtype(np.float32),
                solid=solid, solid_fraction=float(solid.mean()),
                runnable=("aa", "sparse", "split"), periodic=False,
                halo_managed=True)
    base.update(kwargs)
    return ProbeSpec(**base)


def _inlet_outflow():
    return (EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0, 0), 1.0),
            OutflowBoundary(D3Q19, 0, "high"))


class TestHeuristicBoundary:
    def test_exactly_at_threshold_picks_sparse(self):
        s = _solver(n_solid=200, kernel="auto", sparse_threshold=0.5)
        assert s.solid_fraction == 0.5
        s.step(1)
        assert s.kernel_used == "sparse"
        assert ">= sparse_threshold" in s.kernel_reason

    def test_just_below_threshold_picks_split(self, post_stream_only):
        # A handler with no face rules the in-place kernel out
        # (tests/test_default_kernel.py covers the eligible case): the
        # dense choice is then the split reference.
        s = _solver(n_solid=199, kernel="auto", sparse_threshold=0.5,
                    boundaries=[post_stream_only()])
        s.step(1)
        assert s.kernel_used == "split"
        assert "< sparse_threshold" in s.kernel_reason

    def test_invalid_autotune_rejected(self):
        from repro.core import ClusterConfig
        with pytest.raises(ValueError, match="autotune"):
            ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                          autotune="fastest")


class TestOccupancyExtremes:
    def test_all_fluid_excludes_sparse_candidate(self):
        assert _candidates(_spec(n_solid=0)) == ("aa", "split")
        assert _candidates(_spec(n_solid=200)) == ("aa", "sparse", "split")

    def test_all_solid_probe_picks_sparse(self):
        # With every site solid the compacted kernel does (almost) no
        # work while the dense candidates sweep every cell; at this size
        # the probe's verdict is decisive, not a timing race.
        shape = (32, 32, 16)
        spec = _spec(n_solid=int(np.prod(shape)), shape=shape)
        assert spec.solid_fraction == 1.0
        choice = resolve_cluster([spec], [int(np.prod(shape))])
        assert choice.kernel == "sparse"
        rates = choice.choices[0].rates
        assert rates["sparse"] == max(rates.values())

    def test_all_solid_choice_agrees_across_backends(self):
        from repro.core.balance import rate_for_row
        from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
        shape = (32, 32, 8)
        solid = np.ones(shape, bool)
        per_backend = {}
        for backend in ("serial", "processes"):
            clear_autotune_cache()
            cfg = ClusterConfig(sub_shape=(16, 32, 8), arrangement=(2, 1, 1),
                                tau=0.7, solid=solid, backend=backend,
                                kernel="auto", autotune="measured")
            with CPUClusterLBM(cfg) as cluster:
                cluster.step(2)
                rows = cluster.kernel_report()
            per_backend[backend] = [r["kernel"] for r in rows]
            for row in rows:
                # Measured once in the coordinator, handed to the rank.
                assert row["reason"].startswith("cluster-resolved")
                assert row["rates"]["sparse"] == max(row["rates"].values())
                # What balance_report() sizes the rank's share with.
                assert rate_for_row(row) == row["rates"]["sparse"]
        assert per_backend["serial"] == per_backend["processes"]
        assert set(per_backend["serial"]) == {"sparse"}


class TestMeasuredDeterminism:
    """Pin the margin/priority rule with injected rates."""

    def test_margin_keeps_earlier_priority_kernel(self):
        # sparse is within 8% of the best rate, so priority wins the tie.
        assert _pick({"sparse": 9.3, "split": 10.0}) == "sparse"

    def test_decisive_win_displaces_priority(self, monkeypatch):
        rates = {"aa": 5.0, "sparse": 3.0, "split": 10.0}
        assert _pick(rates) == "split"
        monkeypatch.setattr(autotune, "_probe_rates",
                            lambda spec, cands: dict(rates))
        choice = resolve_cluster([_spec(n_solid=200)], [400])
        assert choice.kernel == "split"
        assert choice.choices[0].probed
        assert "MLUPS" in choice.choices[0].reason

    def test_same_domain_same_choice_across_runs(self):
        shape = (32, 32, 16)
        chosen = {}
        for run in range(2):
            clear_autotune_cache()
            spec = _spec(n_solid=int(np.prod(shape)), shape=shape)
            chosen[run] = resolve_cluster([spec], [spec.solid.size]).kernel
        assert chosen[0] == chosen[1] == "sparse"

    def test_priority_and_margin_constants(self):
        assert PRIORITY == ("aa", "sparse", "split")
        assert 0.9 <= MARGIN < 1.0


class TestCacheAndProbeShape:
    def test_second_same_shaped_solver_hits_cache(self):
        """A second rank of the same description costs no probe."""
        cands = ("sparse", "split")
        rec_a, rec_b = KernelCounters(), KernelCounters()
        a = _measured_rates(_spec(n_solid=400), cands, rec_a)
        assert "autotune.probe" in rec_a.summary()
        b = _measured_rates(_spec(n_solid=400), cands, rec_b)
        summary = rec_b.summary()
        assert "autotune.cached" in summary
        assert "autotune.probe" not in summary
        assert b == a

    def test_single_candidate_skips_probe(self, monkeypatch):
        # A low-occupancy rank that cannot run AA has only the split
        # path: the coordinator must not pay for a probe with nothing
        # to decide.
        monkeypatch.setattr(autotune, "_probe_rates", None)   # must not run
        spec = _spec(n_solid=0, runnable=("sparse", "split"))
        assert _candidates(spec) == ("split",)
        choice = resolve_cluster([spec], [400])
        assert choice.kernel == "split"
        assert not choice.choices[0].probed
        assert "unprobed" in choice.choices[0].reason

    def test_probe_shape_crops_to_budget(self):
        assert _probe_shape((64, 64, 64)) == (32, 32, 32)
        assert _probe_shape((24, 20, 4)) == (24, 20, 4)
        nx, ny, nz = _probe_shape((512, 8, 8))
        assert nx * ny * nz <= autotune.PROBE_MAX_CELLS

    def test_probe_shape_never_crops_away_boundary_faces(self):
        # Free axes absorb the whole crop; the inlet/outflow axis keeps
        # its full extent so both handlers stay inside the probe.
        both = ((0, "low"), (0, "high"))
        shape = _probe_shape((256, 32, 32), both)
        assert shape[0] == 256
        assert int(np.prod(shape)) <= autotune.PROBE_MAX_CELLS
        # With a face on only one side the axis may shrink (the crop is
        # anchored to that side), but only after the free axes are
        # exhausted.
        shape = _probe_shape((65536, 2, 2), ((0, "low"),))
        assert shape == (8192, 2, 2)
        # Faces on both sides of the only croppable axis: the budget is
        # unreachable and the shape is returned whole rather than a
        # face being sliced off.
        assert _probe_shape((65536, 2, 2), both) == (65536, 2, 2)

    def test_active_faces_and_probe_crop_keep_handlers(self, post_stream_only):
        spec = _spec(shape=(64, 64, 16),
                     boundaries=_inlet_outflow() + (post_stream_only(),))
        # Only face-resident handlers have a face to keep.
        assert _active_faces(spec) == ((0, "low"), (0, "high"))
        pshape = _probe_shape(spec.shape, _active_faces(spec))
        assert pshape[0] == 64  # the bounded axis survives the crop
        assert int(np.prod(pshape)) <= autotune.PROBE_MAX_CELLS

    def test_bc_signature_separates_cached_decisions(self):
        # Same shape and occupancy, different boundary configuration:
        # the bounded rank must probe for itself, not inherit the open
        # box's cached rates.
        cands = ("aa", "split")
        rec = KernelCounters()
        _measured_rates(_spec(), cands, rec)
        assert rec.summary()["autotune.probe"]["calls"] == 1
        _measured_rates(_spec(boundaries=_inlet_outflow()), cands, rec)
        summary = rec.summary()
        assert summary["autotune.probe"]["calls"] == 2
        assert "autotune.cached" not in summary

    def test_measured_auto_bit_identical_to_split(self):
        from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
        from repro.urban.city import times_square_like
        from repro.urban.voxelize import voxelize_city
        shape = (16, 12, 6)
        solid = voxelize_city(times_square_like(seed=7), shape,
                              resolution_m=24.0, ground_layers=2)
        rng = np.random.default_rng(3)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split")
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        cfg = ClusterConfig(sub_shape=(8, 12, 6), arrangement=(2, 1, 1),
                            tau=0.7, solid=solid, kernel="auto",
                            autotune="measured")
        with CPUClusterLBM(cfg) as auto:
            auto.load_global_distributions(ref.f)
            ref.step(6)
            auto.step(6)
            assert np.array_equal(auto.gather_distributions(), ref.f)
