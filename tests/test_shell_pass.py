"""The depth-1 shell pass through every collision operator, and the
whole collide through every re-binding of the distribution array.

Colliding ``shell_partition``'s slabs, then its core, through the
solver's own operator must equal the whole collide *bit for bit* — for
every operator the solver accepts, with solids on the shell, on thin
domains with an empty core: the Sec-4.3 rectangles a simulated-GPU
rank is charged for describe the same per-cell work as its one render.
The whole collide every executed rank runs must follow every ``fg``
re-binding and keep one equilibrium buffer.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClusterConfig, CPUClusterLBM
from repro.lbm.solver import LBMSolver
from tests.test_split_collide import _collide_by_pieces

shapes = st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 7))

OPERATORS = {
    "bgk": lambda: {},
    "bgk_force": lambda: {"force": (1e-4, -2e-5, 3e-5)},
    "mrt": lambda: {"collision": "mrt"},
}


def _perturbed(shape, seed, **kw):
    """A split-kernel solver in a random off-equilibrium state."""
    s = LBMSolver(shape, tau=0.8, kernel="split", **kw)
    rng = np.random.default_rng(seed)
    rho = (1 + 0.05 * rng.standard_normal(shape)).astype(np.float32)
    u = (0.04 * rng.standard_normal((3,) + tuple(shape))).astype(np.float32)
    s.initialize(rho, u)
    s.f[...] += (0.01 * rng.standard_normal(s.f.shape)).astype(np.float32)
    return s


class TestShellPassEqualsCollide:
    @given(shape=shapes, op=st.sampled_from(sorted(OPERATORS)),
           solid_frac=st.sampled_from([0.0, 0.3, 1.0]),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=120, deadline=None)
    def test_boundary_then_inner_is_collide(self, shape, op, solid_frac,
                                            seed):
        # Solids are drawn over the whole box, so they land *in* the
        # shell (every cell is shell on a thin axis).
        solid = np.random.default_rng(seed + 1).random(shape) < solid_frac
        whole = _perturbed(shape, seed, solid=solid, **OPERATORS[op]())
        split = _perturbed(shape, seed, solid=solid, **OPERATORS[op]())
        before = whole.f.copy()
        whole.collide()
        _collide_by_pieces(split)
        assert np.array_equal(whole.fg, split.fg)
        if not solid.all():
            assert not np.array_equal(split.f, before)
        # Solid cells keep their pre-collision populations.
        assert np.array_equal(split.f[:, solid], before[:, solid])

    def test_steps_through_split_phases_match_step(self):
        ref = _perturbed((7, 6, 5), 3, periodic=False)
        ph = _perturbed((7, 6, 5), 3, periodic=False)
        ref.step(4)
        for _ in range(4):
            _collide_by_pieces(ph)
            ph.fill_ghosts()
            ph.stream()
            ph.post_stream()
        assert np.array_equal(ref.fg, ph.fg)


class TestRebinding:
    """No view of an old ``fg`` may survive a re-binding: the collide
    after it works on the live array."""

    def _check(self, s):
        ref = _perturbed(s.shape, 0)
        ref.load_distributions(s.f)
        ref.collide()
        s.collide()
        assert np.array_equal(s.f, ref.f)

    def test_stream_swaps_the_double_buffer(self):
        s = _perturbed((6, 5, 4), 2)
        for _ in range(3):
            self._check(s)
            old = s.fg
            s.fill_ghosts()
            s.stream()
            s.post_stream()
            assert s.fg is not old

    def test_load_distributions(self):
        s = _perturbed((6, 5, 4), 3)
        self._check(s)
        s.load_distributions(_perturbed((6, 5, 4), 4).f.copy())
        self._check(s)

    def test_external_rebind_like_shared_memory_adoption(self):
        # What procpool's _adopt_shared_fg does: copy into a foreign
        # buffer and re-point ``fg`` at it.
        s = _perturbed((6, 5, 4), 5)
        self._check(s)
        adopted = np.empty_like(s.fg)
        adopted[...] = s.fg
        stale = s.fg
        s.fg = adopted
        stale[...] = np.nan
        self._check(s)
        assert np.isfinite(s.fg).all()

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_cluster_pair_after_reload(self, backend):
        sub, arr = (6, 6, 5), (2, 1, 1)
        shape = tuple(n * a for n, a in zip(sub, arr))
        ref = _perturbed(shape, 6)
        f0, f1 = ref.f.copy(), _perturbed(shape, 7).f.copy()
        cfg = ClusterConfig(sub_shape=sub, arrangement=arr, tau=0.8,
                            kernel="split", backend=backend)
        with CPUClusterLBM(cfg) as cluster:
            for f in (f0, f1):
                ref.load_distributions(f)
                cluster.load_global_distributions(f)
                ref.step(3)
                cluster.step(3)
                assert np.array_equal(cluster.gather_distributions(), ref.f)
            assert {row["kernel"] for row in cluster.kernel_report()} == {
                "split"}


class TestSteadyStateAllocations:
    def test_one_equilibrium_buffer_per_pass(self):
        # One operator call per whole collide: one buffer, reused.
        s = _perturbed((8, 7, 6), 9)
        for _ in range(3):
            s.collide()
            s.fill_ghosts()
            s.stream()
        assert len(s.collision._feq_bufs) == 1
