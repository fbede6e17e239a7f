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

import repro.lbm
from repro.lbm import LBMSolver
from repro.lbm.boundaries import (Boundary, EquilibriumVelocityInlet,
                                  OutflowBoundary)
from repro.lbm.collision import BGKCollision
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.zou_he import ZouHePressure2D, ZouHeVelocity2D

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


CAVITY = (17, 17)


def _cavity_walls():
    """The walled box of ``examples/lid_driven_cavity.py``: solid on
    three sides, the fourth (y-high) is the lid's face."""
    solid = np.zeros(CAVITY, bool)
    solid[0, :] = solid[-1, :] = True
    solid[:, 0] = True
    return solid


def _cavity_lid():
    return [ZouHeVelocity2D(1, "high", (0.05, 0.0),
                            exclude=_cavity_walls()[:, -1])]


def _pressure_channel():
    return [ZouHeVelocity2D(0, "low", (0.04, 0.0)),
            ZouHePressure2D(0, "high", 1.0)]


class InnerLayerRelax(Boundary):
    """A custom 3D face handler that reads the layer inside its face:
    the face becomes the mean of itself and that layer, the five
    inbound links excepted."""

    def __init__(self, axis, side):
        self.axis, self.side = axis, side
        self.keep = np.flatnonzero(
            D3Q19.c[:, axis] != (1 if side == "low" else -1))

    def apply(self, fg):
        face: list = [slice(None)] + [slice(1, -1)] * 3
        inner = list(face)
        low = self.side == "low"
        face[1 + self.axis] = 1 if low else fg.shape[1 + self.axis] - 2
        inner[1 + self.axis] = 2 if low else fg.shape[1 + self.axis] - 3
        face[0] = inner[0] = self.keep
        half = fg.dtype.type(0.5)
        fg[tuple(face)] = half * (fg[tuple(face)] + fg[tuple(inner)])


def _solids_on_faces():
    """Solids on both handler face layers, the inner layers and an
    edge shared with a handler-free face."""
    solid = _city_like(SHAPE)
    solid[0, 2:5, 1:3] = True
    solid[-1, :3, :] = True
    solid[1, 4, 2] = solid[-2, 5, 3] = True
    return solid


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
    # The generic face closure: any face-resident handler runs under
    # ``aa`` on a canonical stub of its two layers.
    "zou_he_cavity": {"shape": CAVITY, "lattice": D2Q9, "periodic": False,
                      "dtype": np.float64, "solid": _cavity_walls,
                      "boundaries": _cavity_lid},
    "zou_he_pressure_outlet": {"shape": (16, 12), "lattice": D2Q9,
                               "periodic": False,
                               "boundaries": _pressure_channel},
    "custom_face_reads_inner": {
        "periodic": False,
        "boundaries": lambda: [InnerLayerRelax(2, "low"),
                               InnerLayerRelax(0, "high")]},
    "two_handlers_one_face": {
        "periodic": False,
        "boundaries": lambda: [
            EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0.0, 0.0), 1.0),
            InnerLayerRelax(0, "low"), OutflowBoundary(D3Q19, 0, "high"),
            InnerLayerRelax(0, "high")]},
    "solids_on_face_layers": {
        "periodic": False, "solid": _solids_on_faces,
        "boundaries": lambda: _inlet_outflow() + [InnerLayerRelax(0, "high"),
                                                  InnerLayerRelax(1, "low")]},
}


class TestDefaultResolvesAA:
    @pytest.mark.parametrize("name", CONFIGS)
    def test_step_picks_aa_and_matches_split_every_step(self, name):
        default, split = _twins(**CONFIGS[name])
        for t in range(1, 7):
            default.step(1)
            split.step(1)
            assert default.kernel_used == "aa"
            _assert_same_state(default, split, f"at step {t} ({name})")
        assert default._fg_next_buf is None
        assert default.kernel_reason.startswith("rule:")

    def test_multi_step_call_matches_single_steps(self):
        default, split = _twins(solid=lambda: _city_like(SHAPE))
        default.step(5)
        split.step(5)
        _assert_same_state(default, split, "after step(5)")

    def test_handler_order_on_one_face_matters(self):
        """The ``two_handlers_one_face`` case can tell the orders
        apart: swapping the two x-low handlers changes the state."""
        cfg = CONFIGS["two_handlers_one_face"]
        default, _ = _twins(**cfg)
        swapped, _ = _twins(**{**cfg, "boundaries": lambda: [
            cfg["boundaries"]()[i] for i in (1, 0, 2, 3)]})
        default.step(3)
        swapped.step(3)
        assert not np.array_equal(default.f, swapped.f)

    def test_no_new_constructor_argument(self):
        import inspect
        assert list(inspect.signature(LBMSolver.__init__).parameters) == [
            "self", "shape", "tau", "lattice", "collision", "solid",
            "boundaries", "force", "periodic", "dtype", "kernel"]

    def test_public_names(self):
        assert sorted(repro.lbm.__all__) == sorted([
            "Lattice", "D2Q9", "D3Q19", "equilibrium", "macroscopic",
            "density", "momentum", "BGKCollision", "MRTCollision",
            "mrt_matrix", "viscosity_to_tau", "tau_to_viscosity",
            "stream_periodic", "stream_pull", "pull_slice_table",
            "AAStepKernel", "BounceBackNodes", "EquilibriumVelocityInlet", "OutflowBoundary", "box_walls",
            "LBMSolver", "HybridThermalLBM", "TracerCloud",
            "ZouHeVelocity2D", "ZouHePressure2D"])

    @pytest.mark.parametrize("kwargs", [{"layout": "soa"},
                                        {"autotune": "heuristic"},
                                        {"fused": True},
                                        {"sparse_threshold": 0.5}])
    def test_removed_arguments_rejected(self, kwargs):
        """(``ClusterConfig``'s removed names are pinned in
        tests/test_cluster_threaded.py.)"""
        from repro.urban.dispersion import DispersionScenario
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            LBMSolver(SHAPE, tau=0.7, **kwargs)
        scenario = DispersionScenario((16, 12, 6), resolution_m=24.0, tau=0.7)
        with pytest.raises(TypeError, match=next(iter(kwargs))):
            scenario.make_single_solver(**kwargs)

    def test_removed_kernel_value_rejected(self):
        for kernel in ("fused", "sparse"):
            with pytest.raises(ValueError, match="'auto', 'split' or 'aa'"):
                LBMSolver(SHAPE, tau=0.7, kernel=kernel)


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
        s = LBMSolver((8, 8, 8), tau=0.7, collision="mrt")
        s.step(1)
        assert s.kernel_reason == "rule: non-BGK collision"

    def test_bgk_subclass_is_not_aa(self):
        class Tweaked(BGKCollision):
            pass

        assert self._used(collision=Tweaked(D3Q19, 0.7)) != "aa"

    def test_handler_without_a_face_runs_split(self, post_stream_only):
        s = LBMSolver((8, 8, 8), tau=0.7, boundaries=[post_stream_only()])
        s.step(2)
        assert s.kernel_used == "split" and s._aa_kernel is None
        assert "not face-resident" in s.kernel_reason

    def test_half_solid_runs_aa(self):
        """Occupancy plays no part in the rule: a solid site costs
        either kernel what a fluid one does."""
        for n in (4, 8):
            solid = np.zeros((8, 8, 8), bool)
            solid[:n] = True
            s = LBMSolver((8, 8, 8), tau=0.7, solid=solid)
            s.step(2)
            assert s.kernel_used == "aa"

    def test_phase_driven_never_aa(self):
        s = LBMSolver((8, 8, 8), tau=0.7)
        s.phase_driven = True
        assert s._select_kernel(whole_step=True) == "split"
        assert s._select_kernel() == "split"
        assert s.kernel_reason.endswith("driven phase by phase")

    def test_forced_paths_untouched(self, post_stream_only):
        """A named kernel is forced while the kernel's own ``eligible``
        holds; a handler with no face sends a forced ``aa`` to
        ``split``."""
        assert self._used(kernel="split") == "split"
        s = LBMSolver((8, 8, 8), tau=0.7, kernel="aa")
        s.phase_driven = True
        assert s._select_kernel() == "aa"
        assert s.kernel_reason == "forced kernel='aa'"
        s.boundaries.append(post_stream_only())
        assert s._select_kernel() == "split"
        assert "ineligible" in s.kernel_reason

    def test_halo_managed_phase_driven_runs_aa(self, post_stream_only):
        """The rule's AA line for a rank whose driver closes the halo."""
        s = LBMSolver((8, 8, 8), tau=0.7, periodic=False)
        s.phase_driven = True
        s.halo_faces = ("zero",) * 6
        assert s._select_kernel() == "aa"
        assert s.kernel_reason == "rule: AA halo closed by the cluster driver"
        s.boundaries.append(post_stream_only())
        assert s._select_kernel() == "split"

    def test_auto_cluster_bit_identical_to_split(self):
        """A default city cluster resolves ``aa`` by rule and matches a
        ``kernel="split"`` reference."""
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
                            tau=0.7, solid=solid)
        with CPUClusterLBM(cfg) as auto:
            assert auto.resolved_kernel == "aa"
            auto.load_global_distributions(ref.f)
            ref.step(6)
            auto.step(6)
            assert np.array_equal(auto.gather_distributions(), ref.f)


class TestHandDrivenPhases:
    """The rule is reachable from ``step()`` only: a bare solver driven
    phase by phase runs split unless its driver closes the AA halo
    (the SPMD rank program does)."""

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

    def test_spmd_solvers_are_marked_phase_driven(self, monkeypatch):
        from repro.core import cpu_node
        from repro.core.decomposition import BlockDecomposition
        from repro.core.spmd import SPMDClusterLBM
        decomp = BlockDecomposition((8, 4, 4), (2, 1, 1))
        nodes = []
        build = cpu_node.CPUNode.__init__

        def spy(node, *args, **kwargs):
            build(node, *args, **kwargs)
            nodes.append(node)
        monkeypatch.setattr(cpu_node.CPUNode, "__init__", spy)
        SPMDClusterLBM(decomp, tau=0.7).run(2)
        assert len(nodes) == decomp.n_nodes
        for node in nodes:
            assert node.solver.phase_driven
            assert node.solver.halo_faces is not None
            assert node.kernel_used == "aa"
            assert node.kernel_reason == (
                "rule: AA halo closed by the cluster driver")


class TestEnterAndLeaveMidRun:
    """Eligibility drifting mid-run hands the array over canonical, in
    both directions and at both parities."""

    @pytest.mark.parametrize("aa_steps", [1, 2, 3],
                             ids=["odd", "even", "odd_again"])
    @pytest.mark.parametrize("how", ["handler", "load", "hand_phase"])
    def test_leaving_aa(self, aa_steps, how, post_stream_only):
        default, split = _twins(solid=lambda: _city_like(SHAPE))
        for _ in range(aa_steps):
            default.step(1)
            split.step(1)
        assert default.kernel_used == "aa"
        if how == "handler":
            default.boundaries.append(post_stream_only())
        elif how == "load":
            # A canonical load is legal at either parity; the handler
            # appended with it then runs on a canonical array.
            default.load_distributions(split.f)
            default.boundaries.append(post_stream_only())
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
            assert default.kernel_used == "split"
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
        assert default.kernel_used == "split"
        default.boundaries.remove(blocker)
        for t in range(4):
            default.step(1)
            split.step(1)
            assert default.kernel_used == "aa"
            _assert_same_state(default, split,
                               f"{t + 1} steps after entering AA at "
                               f"step {other_steps}")

    def test_there_and_back_again(self, post_stream_only):
        default, split = _twins(solid=lambda: _city_like(SHAPE),
                                periodic=False, boundaries=_inlet_outflow)
        used = []
        blocker = post_stream_only()
        for t in range(9):
            if t % 3 == 1:                  # out at t = 1, 4, 7
                default.boundaries.append(blocker)
            elif blocker in default.boundaries:
                default.boundaries.remove(blocker)
            default.step(1)
            split.step(1)
            used.append(default.kernel_used)
            _assert_same_state(default, split, f"at step {t + 1}")
        assert used == ["aa", "split", "aa"] * 3

    def test_forced_aa_fallback_mid_pair_is_canonical(self, post_stream_only):
        """The case that bit before the rule existed: forced
        ``kernel="aa"`` losing eligibility at odd parity."""
        aa = LBMSolver(SHAPE, tau=0.7, kernel="aa")
        split = LBMSolver(SHAPE, tau=0.7, kernel="split")
        _seed([aa, split])
        aa.step(1)
        split.step(1)
        for s in (aa, split):
            s.boundaries.append(post_stream_only())
        for t in range(3):
            aa.step(1)
            split.step(1)
            assert aa.kernel_used == "split"
            assert "ineligible" in aa.kernel_reason
            _assert_same_state(aa, split, f"{t + 1} steps after fallback")
