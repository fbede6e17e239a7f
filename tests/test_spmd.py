"""Tests for the SPMD-over-SimMPI cluster LBM (the paper's MPI shape)."""

import tracemalloc

import numpy as np
import pytest

from repro.core.cluster_lbm import ClusterConfig, GPUClusterLBM
from repro.core.decomposition import BlockDecomposition
from repro.core.spmd import SPMDClusterLBM
from repro.lbm.solver import LBMSolver
from repro.net.simmpi import SimCluster


def _initial(rng, shape, solid=None):
    ref = LBMSolver(shape, tau=0.8, solid=solid)
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    if solid is not None:
        u0[:, solid] = 0
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    return ref.f.copy()


@pytest.mark.parametrize("arrangement,sub", [
    ((2, 1, 1), (6, 8, 4)),
    ((2, 2, 1), (6, 6, 4)),
    ((3, 2, 1), (4, 6, 4)),
    ((2, 2, 2), (4, 4, 4)),
])
def test_spmd_matches_reference_periodic(rng, arrangement, sub):
    shape = tuple(s * a for s, a in zip(sub, arrangement))
    solid = np.zeros(shape, bool)
    solid[1:3, 2:4, 1:3] = True
    f0 = _initial(rng, shape, solid)
    ref = LBMSolver(shape, tau=0.8, solid=solid)
    ref.f[...] = f0
    ref.step(5)
    decomp = BlockDecomposition(shape, arrangement)
    spmd = SPMDClusterLBM(decomp, tau=0.8, solid=solid, f0=f0)
    out, clocks = spmd.run(5)
    assert np.array_equal(out, ref.f)
    assert len(clocks) == decomp.n_nodes


def test_spmd_matches_reference_bounded(rng):
    """Non-periodic global domain (zero-gradient edges)."""
    sub, arrangement = (6, 4, 4), (2, 2, 1)
    shape = (12, 8, 4)
    f0 = _initial(rng, shape)
    ref = LBMSolver(shape, tau=0.7, periodic=False)
    ref.f[...] = f0
    ref.step(4)
    decomp = BlockDecomposition(shape, arrangement,
                                periodic=(False, False, False))
    out, _ = SPMDClusterLBM(decomp, tau=0.7, f0=f0).run(4)
    assert np.array_equal(out, ref.f)


def test_spmd_refuses_a_boundary_on_a_periodic_axis():
    decomp = BlockDecomposition((8, 4, 4), (2, 1, 1),
                                periodic=(True, False, False))
    with pytest.raises(ValueError, match="periodic axis"):
        SPMDClusterLBM(decomp, tau=0.7, outflow=(0, "high"))


def test_spmd_matches_coordinator_path(rng):
    """The two parallel architectures (coordinator vs SPMD) agree."""
    sub, arrangement = (6, 6, 4), (2, 2, 1)
    shape = (12, 12, 4)
    f0 = _initial(rng, shape)
    cfg = ClusterConfig(sub_shape=sub, arrangement=arrangement, tau=0.8)
    coord = GPUClusterLBM(cfg)
    coord.load_global_distributions(f0)
    coord.step(4)
    decomp = BlockDecomposition(shape, arrangement)
    out, _ = SPMDClusterLBM(decomp, tau=0.8, f0=f0).run(4)
    assert np.array_equal(out, coord.gather_distributions())


def test_spmd_clocks_include_communication(rng):
    """Ranks accumulate simulated network time (more than compute-free
    zero) and stay loosely synchronized by the exchange pattern."""
    sub, arrangement = (6, 6, 4), (2, 2, 1)
    shape = (12, 12, 4)
    f0 = _initial(rng, shape)
    decomp = BlockDecomposition(shape, arrangement)
    cluster = SimCluster(4)
    _, clocks = SPMDClusterLBM(decomp, tau=0.8, f0=f0).run(3, cluster=cluster)
    assert all(c > 0 for c in clocks)
    assert max(clocks) < 10.0   # sane magnitude (simulated seconds)


def test_spmd_single_rank_degenerates_to_reference(rng):
    shape = (8, 8, 4)
    f0 = _initial(rng, shape)
    ref = LBMSolver(shape, tau=0.9)
    ref.f[...] = f0
    ref.step(6)
    decomp = BlockDecomposition(shape, (1, 1, 1))
    out, _ = SPMDClusterLBM(decomp, tau=0.9, f0=f0).run(6)
    assert np.array_equal(out, ref.f)


@pytest.mark.parametrize("periodic", [True, False],
                         ids=["periodic", "bounded"])
@pytest.mark.parametrize("arrangement,sub", [
    ((2, 2, 1), (6, 4, 4)),
    ((3, 1, 1), (4, 8, 4)),
])
@pytest.mark.parametrize("steps", [1, 2, 3])
def test_aa_ranks_match_reference_at_every_parity(rng, steps, arrangement,
                                                  sub, periodic):
    """The ranks run the in-place AA kernel; an odd step count ends on
    the reverse exchange and a reconstructed gather."""
    shape = tuple(s * a for s, a in zip(sub, arrangement))
    solid = np.zeros(shape, bool)
    solid[1:3, 2:5, 1:3] = True
    f0 = _initial(rng, shape, solid)
    ref = LBMSolver(shape, tau=0.8, solid=solid, periodic=periodic,
                    kernel="split")
    ref.f[...] = f0
    ref.step(steps)
    decomp = BlockDecomposition(shape, arrangement, periodic=(periodic,) * 3)
    out, _ = SPMDClusterLBM(decomp, tau=0.8, solid=solid, f0=f0).run(steps)
    assert np.array_equal(out, ref.f)


def test_repeated_runs_are_identical(rng):
    shape = (12, 8, 4)
    solid = np.zeros(shape, bool)
    solid[4:7, 2:4, 1:3] = True
    f0 = _initial(rng, shape, solid)
    spmd = SPMDClusterLBM(BlockDecomposition(shape, (2, 1, 1)), tau=0.8,
                          solid=solid, f0=f0)
    out1, clocks1 = spmd.run(3)
    out2, clocks2 = spmd.run(3)
    assert np.array_equal(out1, out2)
    assert clocks1 == clocks2


def test_repeated_runs_hold_no_memory(rng):
    """A run's ranks are freed by refcount when it returns, so traced
    memory stays flat from the second run on."""
    shape = (48, 16, 16)
    solid = np.zeros(shape, bool)
    solid[10:14, 4:8, 4:8] = True
    spmd = SPMDClusterLBM(BlockDecomposition(shape, (2, 1, 1)), tau=0.8,
                          solid=solid, f0=_initial(rng, shape, solid))
    sizes = []
    tracemalloc.start()
    try:
        for _ in range(6):
            out, _ = spmd.run(3)
            del out
            sizes.append(tracemalloc.get_traced_memory()[0])
    finally:
        tracemalloc.stop()
    assert abs(sizes[-1] - sizes[1]) <= 1 << 20, sizes
