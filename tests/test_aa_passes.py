"""The compiled in-place AA sweep, pinned against what it replaced.

* the even phase's relaxation against ``BGKCollision`` link by link,
  bit for bit (unsigned views, so signed zeros count);
* zero density, negative density and ``-0.0`` populations at fluid
  sites, stepped through the solver against ``split`` bit for bit;
* cluster ranks stepped whole against the split reference;
* the five-slot zero-gradient ghost fill against the split reference,
  with a mutation check that every slot it keeps is needed;
* the odd phase's flat spans: ghost sites inside a span keep the bits
  of every location they own, and row tails of every length, one-row
  spans and arenas of two shapes stay on ``split``'s bits;
* a steady-state step allocates nothing;
* the ghost closure each single-domain phase runs behind its sweep
  (fill after even, fold and solid swap after odd, one plane behind):
  both lattices and dtypes, periodic and bounded, handlers, solids on
  the border layers and on the first and last two planes, first-axis
  interior extents 1 to 4, by hand and by ``step()``, with no second
  swap and no allocation.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.lbm import BGKCollision, LBMSolver
from repro.lbm.aa import AAStepKernel, face_kinds
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.streaming import interior

GRID = (3, 4, 2)
_ZEROS = st.sampled_from([0.0, -0.0])


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _field(lo, hi, lead=()):
    """Finite values in ``[lo, hi]``, salted with signed zeros."""
    return hnp.arrays(np.float64, lead + GRID,
                      elements=st.one_of(_ZEROS, st.floats(lo, hi, width=32)))


class TestPairSharedRelax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("force", [None, (1e-4, -2e-5, 3e-5)])
    @given(f=_field(-0.125, 0.625, (19,)))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_per_link_equilibrium(self, dtype, force, f):
        """The even phase stores ``g_i`` in slot ``opp(i)``: every
        ``g_i`` must carry the bits ``BGKCollision`` computes (densities
        here reach zero and below, so the guarded divide is covered)."""
        f = f.astype(dtype)
        solver = LBMSolver(GRID, tau=0.7, dtype=dtype, force=force)
        expect = f.copy()
        BGKCollision(D3Q19, 0.7, force=force)(expect)
        solver.load_distributions(f)
        with np.errstate(all="ignore"):
            solver._aa_kernel.even_phase()
        got = solver.fg[(D3Q19.opp,) + interior(3)]
        assert np.array_equal(_bits(got), _bits(expect))


class TestEdgeValues:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_negative_density_and_negative_zero(self, dtype):
        """Fluid sites with all-zero populations (``rho = 0``), negative
        populations (``rho < 0``) and ``-0.0`` populations, stepped
        through the solver: the compiled kernel keeps ``split``'s bits
        at every fluid site after every step, both parities."""
        shape = (8, 6, 5)
        solid = np.zeros(shape, bool)
        solid[4, 2:4, 1:3] = True
        twins = []
        for kernel in ("split", "auto"):
            s = LBMSolver(shape, tau=0.7, solid=solid, dtype=dtype,
                          kernel=kernel)
            f = s.f.copy()
            f[:, 1, 1, 1] = 0.0                  # rho = 0
            f[:, 6, 4, 3] = -0.01                # rho < 0
            f[3:9, 2, 5, 0] = -0.0
            f[:, 0, 0, 4] = -0.0                 # rho = -0.0
            s.load_distributions(f)
            twins.append(s)
        ref, aa = twins
        for step in range(1, 7):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(_bits(aa.f[:, ~solid]),
                                  _bits(ref.f[:, ~solid])), step


def _bounded_box(shape, kernel, seed=0, handlers=True, **kwargs):
    """Fully bounded box: inlet at x-low, outflow at x-high, solids
    touching faces, edges and corners."""
    solid = np.zeros(shape, bool)
    solid[0, 0, 0] = solid[-1, -1, -1] = solid[0, -1, 0] = True   # corners
    solid[2:4, 0, 0] = solid[-1, 2:4, -1] = True                   # edges
    solid[3:5, 2:4, 0] = solid[2:4, -1, 1:3] = True                # faces
    solid[shape[0] // 2, 2:5, 1:3] = True                          # inside
    bcs = ([EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0.0, 0.0)),
            OutflowBoundary(D3Q19, 0, "high")] if handlers else [])
    s = LBMSolver(shape, tau=0.7, solid=solid, periodic=False,
                  boundaries=bcs, kernel=kernel, **kwargs)
    rng = np.random.default_rng(seed)
    u0 = (0.03 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0
    s.initialize(rho=np.ones(shape, np.float32), u=u0)
    return s


class TestRegionCalls:
    SHAPE = (9, 8, 6)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_cluster_ranks_chunk_their_regions(self, backend):
        """Ranks collided whole on either backend stay on the
        reference's bits at both parities."""
        shape = (16, 12, 6)
        ref = _bounded_box(shape, "split", handlers=False)
        f0 = ref.f.copy()
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, solid=ref.solid, backend=backend,
                            periodic=(False, False, False))
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            for step in range(1, 5):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), (backend, step)


class TestFiveSlotGhostFill:
    SHAPE = (10, 7, 6)

    def test_bounded_box_matches_split_every_step(self):
        ref = _bounded_box(self.SHAPE, "split")
        aa = _bounded_box(self.SHAPE, "auto")
        for step in range(1, 9):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(aa.f, ref.f), step

    def test_each_face_fills_five_slots(self):
        k = _bounded_box(self.SHAPE, "auto")._aa_kernel
        assert all(len(s) == 5 for s in k._face_slots.values())

    # Faces with a handler are overwritten whole after the stream, so
    # what their ghosts held is dead; every other face needs all five.
    @pytest.mark.parametrize("face", [(1, -1), (1, 1), (2, -1), (2, 1)])
    def test_dropping_any_slot_diverges(self, face):
        for drop in range(5):
            ref = _bounded_box(self.SHAPE, "split")
            aa = _bounded_box(self.SHAPE, "auto")
            k = aa._aa_kernel
            k._face_slots[face] = np.delete(k._face_slots[face], drop)
            ref.step(6)
            aa.step(6)
            assert not np.array_equal(aa.f, ref.f), (face, drop)


def _span_ghost_locations(lat, pshape):
    """``(slots, cells)`` of every location owned by a ghost site that
    an odd-phase span crosses, ``cells`` flat in the padded box.

    A span runs flat over one interior plane of the last two axes, from
    its first interior site to its last; site ``n`` owns ``(p, n +
    c_p)`` for every slot ``p``."""
    coords = np.indices(pshape).reshape(len(pshape), -1)
    inner = (coords >= 1) & (coords <= np.array(pshape)[:, None] - 2)
    ny, nz = pshape[-2:]
    flat = coords[-2] * nz + coords[-1]
    spanned = (inner[:-2].all(axis=0) & (flat >= nz + 1)
               & (flat <= (ny - 1) * nz - 2))
    sites = np.flatnonzero(spanned & ~inner.all(axis=0))
    offsets = lat.c @ np.cumprod((1,) + tuple(pshape)[:0:-1])[::-1]
    return (np.repeat(np.arange(lat.Q), sites.size),
            (offsets[:, None] + sites).ravel())


def _poison(rng, size, dtype):
    """Random bit patterns, every other one a NaN with a random
    payload (quiet or signalling)."""
    bits = _bits(np.empty(0, dtype)).dtype
    raw = rng.integers(0, np.iinfo(bits).max, size, dtype=bits,
                       endpoint=True)
    mantissa = np.finfo(dtype).nmant
    exponent = bits.type(((1 << (8 * bits.itemsize - 1)) - 1)
                         ^ ((1 << mantissa) - 1))
    raw[::2] |= exponent | bits.type(1)
    return raw.view(dtype)


def _closure_writes(lat, pshape, solid, kinds):
    """Locations a closing odd phase writes after its sweep: each
    closed face's inward slots on its border layer (the first axis's
    over the whole plane, the others' on the interior planes of the
    first axis and on the ghost plane of a first-axis message face)
    and, with no message face, every slot of a solid site (the swap)."""
    out = np.zeros((lat.Q,) + pshape, bool)
    planes = np.arange(pshape[0])
    planes = planes[(planes > 0) & (planes < pshape[0] - 1)
                    | (planes == 0) & (kinds[0] == "message")
                    | (planes == pshape[0] - 1) & (kinds[1] == "message")]
    for a in range(lat.D):
        for hi, (sign, layer) in enumerate(((1, 1), (-1, pshape[a] - 2))):
            if kinds[2 * a + hi] == "message":
                continue
            where = [planes] + [slice(None)] * (lat.D - 1)
            where[a] = layer
            for q in np.flatnonzero(lat.c[:, a] == sign):
                out[q][tuple(where)] = True
    if "message" not in kinds:
        out[(slice(None),) + interior(lat.D)][:, solid] = True
    return out


def _poisoning_odd_phase(kernel, rng):
    """Wrap ``kernel``'s odd phase: poison what the span's ghost sites
    own in every rank, sweep, and assert it came back bit for bit —
    where a rank that closes its own ghost shell does not overwrite it
    by design (its folds and swap run inside the same call)."""
    sweep = kernel.odd_phase
    pshape = kernel._bshape[1:]
    slots, cells = _span_ghost_locations(kernel.lattice, pshape)
    assert slots.size
    where = np.unravel_index(cells, pshape)
    kept = [~_closure_writes(kernel.lattice, pshape, m.solid,
                             face_kinds(m))[(slots,) + where]
            for m in kernel.members]
    assert all(k.sum() > slots.size // 4 for k in kept)

    def odd_phase():
        fg = (kernel._stack if kernel._stack is not None
              else kernel.solver.fg[:, None])
        poison = [_poison(rng, slots.size, fg.dtype) for _ in fg[0]]
        for r, values in enumerate(poison):
            fg[(slots, r) + where] = values
        with np.errstate(all="ignore"):
            sweep()
        for r, values in enumerate(poison):
            assert np.array_equal(_bits(fg[(slots, r) + where][kept[r]]),
                                  _bits(values[kept[r]])), r
    kernel.odd_phase = odd_phase


def _flow(shape, kernel, seed, periodic=True, dtype=np.float32):
    """A small random flow with a few solid sites."""
    rng = np.random.default_rng(seed)
    solid = rng.random(shape) < 0.15
    s = LBMSolver(shape, tau=0.7, solid=solid, periodic=periodic,
                  dtype=dtype, kernel=kernel)
    u = 0.03 * rng.standard_normal((len(shape),) + shape)
    u[:, solid] = 0
    s.initialize(rho=np.ones(shape, dtype), u=u.astype(dtype))
    return s


def _stacked(solvers):
    """Independent AA solvers stacked in one arena, the first one's
    phase sweeping the whole batch (as :mod:`repro.core.stack` does for
    a cluster's ranks); each solver still closes its own ghosts."""
    kernels = [s._aa_kernel for s in solvers]
    arena = np.empty((solvers[0].lattice.Q, len(solvers))
                     + solvers[0].fg.shape[1:], solvers[0].dtype)
    for r, s in enumerate(solvers):
        arena[:, r] = s.fg
        s.fg = arena[:, r]
    batch = AAStepKernel(solvers[0], arena=arena, members=solvers)
    kernels[0].even_phase = batch.even_phase
    kernels[0].odd_phase = batch.odd_phase
    for k in kernels[1:]:
        k.even_phase = k.odd_phase = lambda: None
    return batch


class TestGhostSitesInTheSpan:
    """A ghost site inside a span relaxes, then keeps its bits like a
    solid site: by location ownership it reads and writes only what it
    owns, so whatever those locations hold — NaN payloads, any bits —
    comes back unchanged, and the interior stays on ``split``."""

    SHAPE = (5, 6, 7)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("periodic", [True, False])
    def test_single_solver(self, dtype, periodic):
        ref = _flow(self.SHAPE, "split", 1, periodic, dtype)
        aa = _flow(self.SHAPE, "auto", 1, periodic, dtype)
        _poisoning_odd_phase(aa._aa_kernel, np.random.default_rng(2))
        for step in range(1, 7):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(aa.f, ref.f), step

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_stacked_arena(self, dtype):
        refs = [_flow(self.SHAPE, "split", seed, dtype=dtype)
                for seed in range(3)]
        members = [_flow(self.SHAPE, "auto", seed, dtype=dtype)
                   for seed in range(3)]
        _poisoning_odd_phase(_stacked(members), np.random.default_rng(3))
        for step in range(1, 7):
            for ref, aa in zip(refs, members):
                ref.step(1)
                aa.step(1)
                assert np.array_equal(aa.f, ref.f), step


def _owned_by_interior(lat, pshape):
    """Per location of a padded box, whether an interior site owns it
    in the odd phase (site ``n`` owns ``(p, n + c_p)``)."""
    own = np.zeros((lat.Q,) + pshape, bool)
    for q in range(lat.Q):
        own[(q,) + tuple(slice(1 + c, n - 1 + c)
                         for c, n in zip(lat.c[q], pshape))] = True
    return own


class TestAllMessageRanks:
    """A rank whose every face is a message (``strong_serial``'s ranks)
    gets no closure work: the even phase leaves its ghost shell as the
    rate-0 relaxation of its ghost sites, and the odd phase leaves
    every location no interior site owns — the ghost shell past the
    sweep's reach and each face's inward slots on its border layer,
    which the reverse messages then write — bit for bit."""

    def test_phases_write_only_what_the_sweep_owns(self):
        ref = _flow((8, 8, 8), "split", 7)
        cfg = ClusterConfig(sub_shape=(4, 4, 4), arrangement=(2, 2, 2),
                            tau=0.7, solid=ref.solid)
        rng = np.random.default_rng(8)
        with CPUClusterLBM(cfg) as cluster:
            (kernel,) = cluster._stack.kernels
            assert all(set(face_kinds(m)) == {"message"}
                       for m in kernel.members)
            lat, pshape = kernel.lattice, kernel._bshape[1:]
            ghost = np.ones(pshape, bool)
            ghost[interior(lat.D)] = False
            unowned = ~_owned_by_interior(lat, pshape)
            even, odd = kernel.even_phase, kernel.odd_phase
            ranks = range(len(kernel.members))

            def poisoned_even():
                # Finite positive populations: a rate-0 relaxation
                # stores each back, reversed, bit for bit.
                poison = [rng.uniform(0.5, 1.5, (lat.Q, ghost.sum()))
                          .astype(np.float32) for _ in ranks]
                for r in ranks:
                    kernel._stack[:, r][:, ghost] = poison[r]
                even()
                for r in ranks:
                    got = kernel._stack[:, r][:, ghost][lat.opp]
                    assert np.array_equal(_bits(got), _bits(poison[r])), r

            def poisoned_odd():
                poison = [_poison(rng, unowned.sum(), np.float32)
                          for _ in ranks]
                for r in ranks:
                    kernel._stack[:, r][unowned] = poison[r]
                with np.errstate(all="ignore"):
                    odd()
                for r in ranks:
                    got = kernel._stack[:, r][unowned]
                    assert np.array_equal(_bits(got), _bits(poison[r])), r

            kernel.even_phase, kernel.odd_phase = poisoned_even, poisoned_odd
            cluster.load_global_distributions(ref.f)
            for step in range(1, 7):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step


class TestSpanTails:
    """A span is ``(n_y - 2) n_z - 2`` sites: vector lanes and scalar
    tails fall anywhere, across the ghost sites too.  Every last-axis
    extent, a one-row span (``n_y`` interior 1) and two arenas of
    different shapes keep ``split``'s bits at both parities."""

    EXTENTS = (1, 2, 3, 5, 7, 12, 13, 17)
    SHAPES = [(4, 3, nz) for nz in EXTENTS] + [(4, 1, 7), (3, 1, 13)]

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_single_domain(self, shape, periodic):
        ref = _flow(shape, "split", 4, periodic)
        aa = _flow(shape, "auto", 4, periodic)
        for step in range(1, 5):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(aa.f, ref.f), step

    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_stacked_arena(self, shape, periodic):
        refs = [_flow(shape, "split", seed, periodic) for seed in (4, 5)]
        members = [_flow(shape, "auto", seed, periodic) for seed in (4, 5)]
        _stacked(members)
        for step in range(1, 5):
            for ref, aa in zip(refs, members):
                ref.step(1)
                aa.step(1)
                assert np.array_equal(aa.f, ref.f), step

    # Cluster blocks are at least 2 sites on every axis.
    @pytest.mark.parametrize("periodic", [True, False])
    @pytest.mark.parametrize("nz", [nz for nz in EXTENTS if nz > 1])
    def test_stacked_cluster(self, nz, periodic):
        ref = _flow((8, 6, nz), "split", 5, periodic)
        cfg = ClusterConfig(sub_shape=(4, 3, nz), arrangement=(2, 2, 1),
                            tau=0.7, solid=ref.solid,
                            periodic=(periodic,) * 3)
        self._against(cfg, ref)

    def test_uneven_cuts_sweep_two_arenas(self):
        ref = _flow((8, 6, 19), "split", 6)
        cfg = ClusterConfig(sub_shape=(4, 6, 19), arrangement=(2, 1, 1),
                            tau=0.7, solid=ref.solid,
                            cuts=((3, 5), (6,), (19,)))
        assert len(self._against(cfg, ref)) == 2

    @staticmethod
    def _against(cfg, ref):
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.stacked
            cluster.load_global_distributions(ref.f)
            for step in range(1, 5):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), step
            return cluster._stack.kernels


class TestSolidSitesInTheEvenPhase:
    def test_negative_zero_and_non_finite_at_a_solid_site(self):
        """Rate-0 relaxation: ``-0.0`` comes back ``+0.0`` (equal, other
        bits), a non-finite population turns the site NaN, and neither
        reaches a fluid neighbour's arithmetic as anything but the
        value the split reference bounces too."""
        shape = (6, 5, 4)
        solid = np.zeros(shape, bool)
        solid[2, 2, 1] = solid[4, 1, 2] = True
        pair = []
        for kernel in ("split", "auto"):
            s = LBMSolver(shape, tau=0.7, solid=solid, kernel=kernel)
            f = s.f.copy()
            f[3, 2, 2, 1] = -0.0
            s.load_distributions(f)
            pair.append(s)
        ref, aa = pair
        for step in range(1, 5):
            ref.step(1)
            aa.step(1)
            assert np.array_equal(aa.f, ref.f), step
        aa = LBMSolver(shape, tau=0.7, solid=solid)
        f = aa.f.copy()
        f[5, 4, 1, 2] = np.inf
        aa.load_distributions(f)
        with np.errstate(invalid="ignore"):
            aa._aa_kernel.even_phase()
        assert np.isnan(aa.fg[:, 5, 2, 3]).all()         # padded coords
        assert np.isfinite(aa.f[:, ~solid]).all()


class TestWorkspace:
    def test_steady_state_step_allocates_nothing(self):
        s = _bounded_box((24, 40, 16), "auto", handlers=False)
        s.step(4)                   # kernel, index lists, bounce scratch
        tracemalloc.start()
        s.step(2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < s.fg[0].nbytes      # less than one population plane

    def test_compiled_phases_allocate_nothing(self):
        """Each compiled call — even, odd, solid swap, and a stacked
        cluster's batch phase — allocates no array: what tracemalloc
        sees is the call's few argument objects, far below the
        smallest population plane here (78 KB)."""
        s = _bounded_box((24, 40, 16), "auto", handlers=False)
        s.step(4)
        k = s._aa_kernel
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as cluster:
            cluster.step(2)
            (batch,) = cluster._stack.kernels
            for call in (k.even_phase, k.odd_phase, lambda: k.bounce(s.fg),
                         batch.even_phase, batch.odd_phase):
                call()
                tracemalloc.start()
                call()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                assert peak < 4096, call


def _closure_case(shape, kernel, lattice=D3Q19, dtype=np.float32,
                  periodic=False, handlers=False, seed=0):
    """A random flow whose solids sit on the first and last two planes
    of the first axis and, bounded, on the whole ground layer (the last
    axis's low border) — where the folds and the swap meet."""
    rng = np.random.default_rng(seed)
    solid = rng.random(shape) < 0.1
    n = shape[0]
    for plane in {0, min(1, n - 1), max(n - 2, 0), n - 1}:
        solid[plane] |= rng.random(shape[1:]) < 0.4
    if not periodic:
        solid[..., 0] = True
    velocity = (0.04,) + (0.0,) * (lattice.D - 1)
    bcs = ([EquilibriumVelocityInlet(lattice, 0, "low", velocity),
            OutflowBoundary(lattice, 0, "high")] if handlers else [])
    s = LBMSolver(shape, tau=0.7, lattice=lattice, solid=solid,
                  periodic=periodic, dtype=dtype, boundaries=bcs,
                  kernel=kernel)
    u = 0.03 * rng.standard_normal((lattice.D,) + shape)
    u[:, solid] = 0
    s.initialize(rho=np.ones(shape, dtype), u=u.astype(dtype))
    return s


def _hand_step(s):
    s.collide()
    s.fill_ghosts()
    s.stream()
    s.post_stream()
    s.time_step += 1


def _assert_on_split(aa, ref, steps, advance=None):
    """Step both; ``macroscopic()`` and the canonical state equal every
    step — the raw interior after every pair, the reconstruction
    mid-pair."""
    for t in range(1, steps + 1):
        ref.step(1)
        advance(aa) if advance else aa.step(1)
        assert aa.kernel_used == "aa"
        for got, want in zip(aa.macroscopic(), ref.macroscopic()):
            assert np.array_equal(got, want), t
        state = (aa._aa_kernel.reconstruct() if t % 2
                 else aa.fg[(slice(None),) + interior(aa.lattice.D)])
        assert np.array_equal(state, ref.f), t


def _rest(lattice):
    return (5, 4) if lattice.D == 3 else (7,)


class TestSweepClosure:
    """Single-domain phases close their own ghost shell one plane
    behind the sweep; the result stays on ``split``'s bits."""

    @pytest.mark.parametrize("nx", [1, 2, 3, 4])
    @pytest.mark.parametrize("periodic", [True, False],
                             ids=["periodic", "bounded"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lattice", [D3Q19, D2Q9], ids=["D3Q19", "D2Q9"])
    def test_first_axis_extents(self, lattice, dtype, periodic, nx):
        shape = (nx,) + _rest(lattice)
        _assert_on_split(
            _closure_case(shape, "auto", lattice, dtype, periodic),
            _closure_case(shape, "split", lattice, dtype, periodic), 8)

    @pytest.mark.parametrize("nx", [2, 3, 4, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lattice", [D3Q19, D2Q9], ids=["D3Q19", "D2Q9"])
    def test_inlet_outflow_handlers(self, lattice, dtype, nx):
        shape = (nx,) + _rest(lattice)
        _assert_on_split(
            _closure_case(shape, "auto", lattice, dtype, handlers=True),
            _closure_case(shape, "split", lattice, dtype, handlers=True), 8)

    @pytest.mark.parametrize("periodic", [True, False],
                             ids=["periodic", "bounded"])
    @pytest.mark.parametrize("lattice", [D3Q19, D2Q9], ids=["D3Q19", "D2Q9"])
    def test_hand_driven_phases(self, lattice, periodic):
        """``collide -> fill_ghosts -> stream -> post_stream`` on a
        default (AA) solver: ``fill_ghosts`` is a no-op, ``post_stream``
        skips the swap the odd sweep did, the bits are ``split``'s."""
        shape = (6,) + _rest(lattice)
        kw = dict(lattice=lattice, periodic=periodic,
                  handlers=not periodic)
        _assert_on_split(_closure_case(shape, "auto", **kw),
                         _closure_case(shape, "split", **kw), 8,
                         advance=_hand_step)

    @pytest.mark.parametrize("drive", ["step", "hand"])
    def test_no_second_swap(self, drive):
        """``post_stream`` swaps no solid site of a single-domain AA
        solver's array (the odd sweep did; a reconstruction swaps its
        own copy), but does on a managed rank."""
        s = _closure_case((6, 5, 4), "auto", handlers=True)
        ref = _closure_case((6, 5, 4), "split", handlers=True)
        calls = []
        k = s._aa_kernel
        for owner, name in ((k, "bounce"), (s._bounce, "apply")):
            method = getattr(owner, name)
            setattr(owner, name, lambda fg, m=method: (
                calls.append(fg is s.fg), m(fg)))
        _assert_on_split(s, ref, 6,
                         advance=_hand_step if drive == "hand" else None)
        assert calls and not any(calls)
        calls.clear()
        cfg = ClusterConfig(sub_shape=(3, 5, 4), arrangement=(2, 1, 1),
                            tau=0.7, solid=ref.solid)
        with CPUClusterLBM(cfg) as cluster:
            cluster.step(1)
            for rank in cluster._stack.solvers:
                rank._aa_kernel.bounce = lambda fg, m=rank._aa_kernel.bounce: (
                    calls.append(1), m(fg))
            cluster.step(4)
        assert len(calls) == 2 * 2      # two odd steps, two ranks

    @pytest.mark.parametrize("periodic", [True, False],
                             ids=["periodic", "bounded"])
    def test_each_fused_call_allocates_under_4kb(self, periodic):
        """A closing phase call, single and stacked rank by rank,
        allocates no array: tracemalloc sees only argument objects."""
        s = _closure_case((12, 10, 8), "auto", periodic=periodic)
        s.step(2)
        members = [_closure_case((6, 5, 4), "auto", seed=seed)
                   for seed in (1, 2)]
        batch = _stacked(members)
        for call in (s._aa_kernel.even_phase, s._aa_kernel.odd_phase,
                     batch.even_phase, batch.odd_phase):
            call()
            tracemalloc.start()
            call()
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            assert peak < 4096, call
