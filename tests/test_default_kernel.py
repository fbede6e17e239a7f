"""The default single-domain solver runs the in-place kernel.

``LBMSolver(...)`` with no kernel named resolves ``aa`` by rule when it
is stepped through ``step()`` and nothing rules the kernel out; every
other configuration, and every solver driven through its phase entry
points, resolves as before.  These tests pin the rule, its fallbacks,
and what happens when eligibility changes in the middle of a run: the
array is handed between the in-place and the two-array paths in
canonical form, at either parity.  The oracle throughout is a
``kernel="split"`` twin, compared bit for bit after *every* step.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.lbm import LBMSolver
from repro.lbm.boundaries import (BouzidiCurvedBoundary,
                                  EquilibriumVelocityInlet, OutflowBoundary)
from repro.lbm.collision import BGKCollision
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.les import SmagorinskyBGK
from repro.lbm.zou_he import ZouHeVelocity2D

SHAPE = (12, 10, 6)


def _city_like(shape, seed=3):
    """~10 % solids: random blocks plus a ground layer, so solids sit
    on the domain border too."""
    rng = np.random.default_rng(seed)
    solid = rng.random(shape) < 0.06
    solid[..., 0] |= rng.random(shape[:-1]) < 0.5
    solid[0, :2] = True
    assert 0.05 < solid.mean() < 0.2
    return solid


def _inlet_outflow(lattice=D3Q19):
    velocity = (0.04,) + (0.0,) * (lattice.D - 1)
    return [EquilibriumVelocityInlet(lattice, 0, "low", velocity, 1.0),
            OutflowBoundary(lattice, 0, "high")]


def _seed(solvers, seed=0):
    """Same perturbed rest state in every solver."""
    first = solvers[0]
    rng = np.random.default_rng(seed)
    u0 = 0.03 * rng.standard_normal((first.lattice.D,) + first.shape)
    u0[:, first.solid] = 0
    for s in solvers:
        s.initialize(rho=np.ones(s.shape, s.dtype), u=u0.astype(s.dtype))


def _twins(**config):
    """A default-constructed solver and its ``kernel="split"`` twin.

    ``boundaries`` / ``solid`` given as callables are built once per
    solver (handlers can hold state)."""
    def build():
        kw = {k: v() if callable(v) and k in ("boundaries", "solid") else v
              for k, v in config.items()}
        kw.setdefault("shape", SHAPE)
        kw.setdefault("tau", 0.7)
        return kw

    default, split = LBMSolver(**build()), LBMSolver(kernel="split", **build())
    _seed([default, split])
    return default, split


def _assert_same_state(got, ref, when):
    assert np.array_equal(got.f, ref.f), f"f diverged {when}"
    for a, b in zip(got.macroscopic(), ref.macroscopic()):
        assert np.array_equal(a, b), f"macroscopic diverged {when}"


CONFIGS = {
    "periodic_open": {},
    "bounded_inlet_outflow": {"periodic": False,
                              "boundaries": _inlet_outflow},
    "city_solids": {"periodic": False, "boundaries": _inlet_outflow,
                    "solid": lambda: _city_like(SHAPE)},
    "body_force": {"force": (1e-5, 0.0, 0.0),
                   "solid": lambda: _city_like(SHAPE, seed=5)},
    "float64": {"dtype": np.float64, "solid": lambda: _city_like(SHAPE)},
    "d2q9": {"shape": (16, 12), "lattice": D2Q9, "periodic": False,
             "boundaries": lambda: _inlet_outflow(D2Q9),
             "solid": lambda: _city_like((16, 12))},
}


class TestDefaultResolvesAA:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_step_picks_aa_and_matches_split_every_step(self, name):
        default, split = _twins(**CONFIGS[name])
        for t in range(1, 6):
            default.step(1)
            split.step(1)
            assert default.kernel_used == "aa"
            _assert_same_state(default, split, f"at step {t} ({name})")
        assert default._fg_next_buf is None
        assert default.kernel_reason.startswith("heuristic:")

    def test_multi_step_call_matches_single_steps(self):
        default, split = _twins(solid=lambda: _city_like(SHAPE))
        default.step(5)
        split.step(5)
        _assert_same_state(default, split, "after step(5)")

    def test_no_new_constructor_argument(self):
        import inspect
        assert list(inspect.signature(LBMSolver.__init__).parameters) == [
            "self", "shape", "tau", "lattice", "collision", "solid",
            "boundaries", "force", "periodic", "dtype", "fused", "kernel",
            "sparse_threshold", "autotune", "layout"]


class TestFallbacks:
    """Everything the rule does not send to ``aa`` resolves as the
    ``LBMSolver`` docstring lists."""

    def _used(self, steps=2, **kw):
        kw.setdefault("shape", (8, 8, 8))
        s = LBMSolver(tau=0.7, **kw)
        s.step(steps)
        assert s._aa_kernel is None
        return s.kernel_used

    def test_mrt_runs_split(self):
        assert self._used(collision="mrt") == "split"

    def test_smagorinsky_runs_split(self):
        assert self._used(collision=SmagorinskyBGK(D3Q19, 0.7)) == "split"

    def test_bgk_subclass_is_not_aa(self):
        class Tweaked(BGKCollision):
            pass

        assert self._used(collision=Tweaked(D3Q19, 0.7)) != "aa"

    def test_bouzidi_runs_split(self):
        bb = BouzidiCurvedBoundary(D3Q19, [((2, 2, 2), 1, 0.5)], (8, 8, 8))
        assert self._used(boundaries=[bb]) == "split"

    def test_zou_he_runs_fused(self):
        lid = ZouHeVelocity2D(1, "high", (0.05, 0.0))
        assert self._used(shape=(12, 12), lattice=D2Q9, periodic=False,
                          boundaries=[lid]) == "fused"

    def test_unknown_post_stream_handler_runs_fused(self, post_stream_only):
        assert self._used(boundaries=[post_stream_only()]) == "fused"

    def test_half_solid_runs_sparse(self):
        solid = np.zeros((8, 8, 8), bool)
        solid[:4] = True
        assert self._used(solid=solid) == "sparse"

    def test_fused_false_runs_split(self):
        assert self._used(fused=False) == "split"

    def test_phase_driven_never_aa(self):
        s = LBMSolver((8, 8, 8), tau=0.7)
        s.phase_driven = True
        assert s._select_kernel(whole_step=True) == "fused"
        assert s._select_kernel() == "fused"

    def test_forced_and_measured_paths_untouched(self, monkeypatch):
        assert self._used(kernel="fused") == "fused"
        assert self._used(kernel="split") == "split"
        from repro.lbm import autotune, clear_autotune_cache
        monkeypatch.setattr(
            autotune, "_probe_rates",
            lambda spec, cands: {autotune.rate_key(k, lay): (
                9.0 if k == "fused" else 1.0) for k, lay in cands})
        clear_autotune_cache()
        try:
            assert self._used(autotune="measured") == "fused"
        finally:
            clear_autotune_cache()


class TestHandDrivenPhases:
    """The rule is reachable from ``step()`` only: a bare solver driven
    phase by phase (the SPMD rank-program pattern) runs split."""

    @pytest.mark.parametrize("advance", [True, False],
                             ids=["time_step_advanced", "time_step_frozen"])
    def test_fresh_default_solver_runs_split_and_matches(self, advance):
        hand, split = _twins(solid=lambda: _city_like(SHAPE))
        for t in range(1, 5):
            hand.collide()
            hand.fill_ghosts()
            hand.stream()
            hand.post_stream()
            if advance:
                hand.time_step += 1
            split.step(1)
            assert hand.kernel_used == "split"
            assert hand._aa_kernel is None
            assert np.array_equal(hand.f, split.f), f"step {t}"

    def test_shell_split_phases_run_split(self):
        hand, split = _twins()
        for _ in range(3):
            hand.collide_boundary()
            hand.collide_inner()
            hand.fill_ghosts()
            hand.stream()
            hand.post_stream()
            split.step(1)
            assert hand.kernel_used == "split"
            assert np.array_equal(hand.f, split.f)

    def test_spmd_and_thermal_solvers_are_marked_phase_driven(self):
        from repro.core.decomposition import BlockDecomposition
        from repro.core.thermal_cluster import DistributedThermalLBM
        from repro.lbm.autotune import ProbeSpec
        decomp = BlockDecomposition((8, 4, 4), (2, 1, 1))
        thermal = DistributedThermalLBM(decomp, tau=0.7)
        for m in thermal.models:
            assert m.flow.phase_driven
            assert ProbeSpec.of_solver(m.flow).schedule == "collide"


class TestEnterAndLeaveMidRun:
    """Eligibility drifting mid-run hands the array over canonical, in
    both directions and at both parities."""

    @pytest.mark.parametrize("aa_steps", [1, 2, 3],
                             ids=["odd", "even", "odd_again"])
    @pytest.mark.parametrize("how", ["handler", "fused_flag", "hand_phase"])
    def test_leaving_aa(self, aa_steps, how, post_stream_only):
        default, split = _twins(solid=lambda: _city_like(SHAPE))
        for _ in range(aa_steps):
            default.step(1)
            split.step(1)
        assert default.kernel_used == "aa"
        if how == "handler":
            default.boundaries.append(post_stream_only())
        elif how == "fused_flag":
            default.fused = False
        for t in range(4):
            if how == "hand_phase":
                default.collide()
                default.fill_ghosts()
                default.stream()
                default.post_stream()
                default.time_step += 1
            else:
                default.step(1)
            split.step(1)
            assert default.kernel_used == ("fused" if how == "handler"
                                           else "split")
            assert default._aa_kernel is None
            _assert_same_state(default, split,
                               f"{t + 1} steps after leaving AA at "
                               f"step {aa_steps} ({how})")
        # The live view is writable again at any parity.
        default.f[...] = split.f

    @pytest.mark.parametrize("other_steps", [1, 2, 3],
                             ids=["odd", "even", "odd_again"])
    def test_entering_aa(self, other_steps, post_stream_only):
        blocker = post_stream_only()
        default, split = _twins(solid=lambda: _city_like(SHAPE),
                                boundaries=[blocker])
        for _ in range(other_steps):
            default.step(1)
            split.step(1)
        assert default.kernel_used == "fused"
        default.boundaries.remove(blocker)
        for t in range(4):
            default.step(1)
            split.step(1)
            assert default.kernel_used == "aa"
            _assert_same_state(default, split,
                               f"{t + 1} steps after entering AA at "
                               f"step {other_steps}")

    def test_there_and_back_again(self):
        default, split = _twins(solid=lambda: _city_like(SHAPE),
                                periodic=False, boundaries=_inlet_outflow)
        used = []
        for t in range(9):
            default.fused = t % 3 != 1      # out at t = 1, 4, 7
            default.step(1)
            split.step(1)
            used.append(default.kernel_used)
            _assert_same_state(default, split, f"at step {t + 1}")
        assert used == ["aa", "split", "aa"] * 3

    def test_forced_aa_fallback_mid_pair_is_canonical(self):
        """The case that bit before the rule existed: forced
        ``kernel="aa"`` losing eligibility at odd parity."""
        aa = LBMSolver(SHAPE, tau=0.7, kernel="aa")
        split = LBMSolver(SHAPE, tau=0.7, kernel="split")
        _seed([aa, split])
        aa.step(1)
        split.step(1)
        for s in (aa, split):
            s.boundaries.append(BouzidiCurvedBoundary(
                D3Q19, [((2, 2, 2), 1, 0.5)], SHAPE))
        for t in range(3):
            aa.step(1)
            split.step(1)
            assert aa.kernel_used == "split"
            assert "ineligible" in aa.kernel_reason
            _assert_same_state(aa, split, f"{t + 1} steps after fallback")
