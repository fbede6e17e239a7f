"""Measured/heuristic kernel autotuning: boundary and determinism tests.

Covers the ``kernel="auto"`` selection boundaries ISSUE 6 pins: a solid
fraction *exactly* at ``sparse_threshold`` (the heuristic rule is
``>=``), all-fluid and all-solid sub-domains, the deterministic
margin/priority tie-break of the measured probe, and the decision cache
that keeps a many-rank cluster from probing once per rank.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lbm import (LBMSolver, choose_kernel, clear_autotune_cache)
from repro.lbm import autotune
from repro.lbm.autotune import (MARGIN, PRIORITY, candidate_kernels,
                                candidate_pairs, rate_key,
                                _active_faces, _probe_shape)
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19

SHAPE = (10, 10, 4)  # 400 cells: exact halves are representable


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_autotune_cache()
    yield
    clear_autotune_cache()


def _solver(n_solid: int = 0, shape=SHAPE, **kwargs):
    solid = np.zeros(shape, bool)
    solid.reshape(-1)[:n_solid] = True
    return LBMSolver(shape, tau=0.7, solid=solid, **kwargs)


class TestHeuristicBoundary:
    def test_exactly_at_threshold_picks_sparse(self):
        s = _solver(n_solid=200, kernel="auto", sparse_threshold=0.5)
        assert s.solid_fraction == 0.5
        s.step(1)
        assert s.kernel_used == "sparse"
        assert ">= sparse_threshold" in s.kernel_reason

    def test_just_below_threshold_picks_fused(self, post_stream_only):
        # A handler the rotated closure does not know rules the
        # in-place kernel out (tests/test_default_kernel.py covers the
        # eligible case): the dense choice is then the fused sweep.
        s = _solver(n_solid=199, kernel="auto", sparse_threshold=0.5,
                    boundaries=[post_stream_only()])
        s.step(1)
        assert s.kernel_used == "fused"
        assert "< sparse_threshold" in s.kernel_reason

    def test_invalid_autotune_rejected(self):
        with pytest.raises(ValueError, match="autotune"):
            LBMSolver(SHAPE, tau=0.7, autotune="fastest")


class TestOccupancyExtremes:
    def test_all_fluid_excludes_sparse_candidate(self):
        s = _solver(n_solid=0, kernel="auto", autotune="measured")
        assert "sparse" not in candidate_kernels(s)
        s.step(2)
        assert s.kernel_used in ("aa", "fused", "split")
        assert s.kernel_reason.startswith("measured:")

    def test_all_solid_probe_picks_sparse(self):
        # With every site solid the compacted kernel does (almost) no
        # work while the dense candidates sweep every cell; at this size
        # the probe's verdict is decisive, not a timing race.
        shape = (32, 32, 16)
        s = _solver(n_solid=int(np.prod(shape)), shape=shape,
                    kernel="auto", autotune="measured")
        assert s.solid_fraction == 1.0
        s.step(2)
        assert s.kernel_used == "sparse"
        assert s.kernel_rates["sparse"] == max(s.kernel_rates.values())

    def test_all_solid_choice_agrees_across_backends(self):
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
        assert per_backend["serial"] == per_backend["processes"]
        assert set(per_backend["serial"]) == {"sparse"}


class TestMeasuredDeterminism:
    """Pin the margin/priority rule with a deterministic fake probe."""

    def _measured(self, rates, monkeypatch):
        monkeypatch.setattr(autotune, "_probe_rates",
                            lambda solver, cands: dict(rates))
        s = _solver(n_solid=0, kernel="auto", autotune="measured")
        return choose_kernel(s)

    def test_margin_keeps_earlier_priority_kernel(self, monkeypatch):
        # aa is within 8% of the best rate, so priority wins the tie.
        choice = self._measured({"aa": 9.3, "fused": 10.0}, monkeypatch)
        assert choice.kernel == "aa"
        assert choice.probed

    def test_decisive_win_displaces_priority(self, monkeypatch):
        choice = self._measured({"aa": 5.0, "fused": 10.0, "split": 3.0},
                                monkeypatch)
        assert choice.kernel == "fused"
        assert "MLUPS" in choice.reason

    def test_same_domain_same_choice_across_runs(self):
        shape = (32, 32, 16)
        chosen = {}
        for run in range(2):
            clear_autotune_cache()
            s = _solver(n_solid=int(np.prod(shape)), shape=shape,
                        kernel="auto", autotune="measured")
            s.step(1)
            chosen[run] = s.kernel_used
        assert chosen[0] == chosen[1] == "sparse"

    def test_priority_and_margin_constants(self):
        assert PRIORITY == ("aa", "fused", "sparse", "split")
        assert 0.9 <= MARGIN < 1.0


class TestCacheAndProbeShape:
    def test_second_same_shaped_solver_hits_cache(self):
        a = _solver(n_solid=400, kernel="auto", autotune="measured")
        a.step(1)
        assert "autotune.probe" in a.counters.summary()
        b = _solver(n_solid=400, kernel="auto", autotune="measured")
        b.step(1)
        summary = b.counters.summary()
        assert "autotune.cached" in summary
        assert "autotune.probe" not in summary
        assert b.kernel_used == a.kernel_used
        assert b.kernel_reason == a.kernel_reason
        assert b.kernel_rates == a.kernel_rates

    def test_single_candidate_skips_probe(self):
        # A phase-driven, low-occupancy rank has only the split path:
        # the autotuner must not pay for a probe with nothing to decide.
        s = _solver(n_solid=0, kernel="auto", autotune="measured")
        s.phase_driven = True
        assert candidate_kernels(s) == ("split",)
        choice = choose_kernel(s)
        assert choice.kernel == "split"
        assert not choice.probed
        assert "only candidate" in choice.reason

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

    def test_active_faces_and_probe_crop_keep_handlers(self):
        bcs = [EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0, 0), 1.0),
               OutflowBoundary(D3Q19, 0, "high")]
        s = LBMSolver((64, 64, 16), tau=0.7, periodic=False, boundaries=bcs,
                      kernel="auto", autotune="measured")
        assert _active_faces(s) == ((0, "low"), (0, "high"))
        pshape = _probe_shape(s.shape, _active_faces(s))
        assert pshape[0] == 64  # the bounded axis survives the crop
        assert int(np.prod(pshape)) <= autotune.PROBE_MAX_CELLS

    def test_bc_signature_separates_cached_decisions(self):
        # Same shape and occupancy, different boundary configuration:
        # the bounded solver must probe for itself, not inherit the
        # periodic box's cached decision.
        a = _solver(n_solid=0, kernel="auto", autotune="measured")
        a.step(1)
        assert "autotune.probe" in a.counters.summary()
        bcs = [EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0, 0), 1.0),
               OutflowBoundary(D3Q19, 0, "high")]
        b = LBMSolver(SHAPE, tau=0.7, periodic=False, boundaries=bcs,
                      kernel="auto", autotune="measured")
        b.step(1)
        summary = b.counters.summary()
        assert "autotune.probe" in summary
        assert "autotune.cached" not in summary

    def test_measured_auto_bit_identical_to_split(self):
        from repro.urban.city import times_square_like
        from repro.urban.voxelize import voxelize_city
        shape = (16, 12, 6)
        solid = voxelize_city(times_square_like(seed=7), shape,
                              resolution_m=24.0, ground_layers=2)
        rng = np.random.default_rng(3)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split")
        auto = LBMSolver(shape, tau=0.7, solid=solid, kernel="auto",
                         autotune="measured")
        for s in (ref, auto):
            s.initialize(rho=np.ones(shape, np.float32), u=u0)
        ref.step(6)
        auto.step(6)
        assert np.array_equal(auto.f, ref.f)


class TestLayoutAxis:
    """The SoA/AoS layout as a second autotune axis."""

    def test_candidate_pairs_expand_layouts_only_on_auto(self):
        s = _solver(n_solid=0, kernel="auto", autotune="measured",
                    layout="auto")
        pairs = candidate_pairs(s)
        for k in autotune.LAYOUT_KERNELS:
            if k in candidate_kernels(s):
                assert (k, "soa") in pairs and (k, "aos") in pairs
        fixed = _solver(n_solid=0, kernel="auto", autotune="measured")
        assert all(layout == "soa" for _, layout in candidate_pairs(fixed))

    def test_rate_key_convention(self):
        assert rate_key("aa", "soa") == "aa"
        assert rate_key("fused", "aos") == "fused/aos"

    def test_aos_win_switches_layout(self, monkeypatch):
        monkeypatch.setattr(autotune, "_probe_rates",
                            lambda solver, cands: {"aa": 5.0, "aa/aos": 10.0,
                                                   "fused": 4.0, "split": 1.0})
        s = _solver(n_solid=0, kernel="auto", autotune="measured",
                    layout="auto")
        s.step(2)
        assert s.kernel_used == "aa"
        assert s.layout == "aos"
        assert "aa/aos" in s.kernel_reason

    def test_layout_auto_bit_identical_to_split(self):
        rng = np.random.default_rng(11)
        shape = (12, 10, 6)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        ref = LBMSolver(shape, tau=0.7, kernel="split")
        auto = LBMSolver(shape, tau=0.7, kernel="auto", autotune="measured",
                         layout="auto")
        for s in (ref, auto):
            s.initialize(rho=np.ones(shape, np.float32), u=u0)
        ref.step(6)
        auto.step(6)
        assert np.array_equal(auto.f, ref.f)

    def test_cluster_layout_auto_flows_into_reports(self):
        from repro.core.balance import rate_for_row
        from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 1, 1),
                            tau=0.7, kernel="aa", layout="auto",
                            autotune="measured")
        with CPUClusterLBM(cfg) as cluster:
            cluster.step(2)
            rows = cluster.kernel_report()
            report = cluster.balance_report()
        for row in rows:
            assert row["layout"] in ("soa", "aos")
            # The forced-kernel layout probe measured both variants.
            assert set(row["rates"]) == {"aa", "aa/aos"}
            assert rate_for_row(row) == row["rates"][
                rate_key(row["kernel"], row["layout"])]
        # balance_report refines predicted cost from the pair rate.
        for row in report["rows"]:
            assert row["predicted_cost"] == pytest.approx(
                row["cells"] / (rate_for_row(row) * 1e6))

    def test_rate_for_row_pair_lookup_and_fallback(self):
        from repro.core.balance import rate_for_row
        row = {"kernel": "aa", "layout": "aos",
               "rates": {"aa": 5.0, "aa/aos": 8.0}}
        assert rate_for_row(row) == 8.0
        assert rate_for_row({**row, "layout": "soa"}) == 5.0
        # Pre-layout reports (no pair key) fall back to the bare kernel.
        assert rate_for_row({"kernel": "aa", "layout": "aos",
                             "rates": {"aa": 5.0}}) == 5.0
        assert rate_for_row({"kernel": "aa", "rates": {}}) is None
