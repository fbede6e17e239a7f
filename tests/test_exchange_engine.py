"""The halo-exchange engine (:mod:`repro.core.exchange`).

* the route table, case by case;
* one rank's SimMPI call sequence, pinned with a recording fake comm
  (per-rank simulated clocks cannot pin it on more than two ranks: the
  switch serialises contending senders in host-thread arrival order);
* one configuration matrix — arrangement x periodicity x cuts x kernel
  x backend x step count — bit-identical to the
  single-domain solver, with ``comm.msgs`` equal to the route table's
  count;
* ranks that close a self-wrap and a bounded edge in their own sweep
  and message their other faces, with an inlet/outflow pair and a
  solid block across the cuts: every driver on the single-domain
  solver's bits after every step.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.core import BlockDecomposition, ClusterConfig, CPUClusterLBM
from repro.core.exchange import (AxisRoute, HaloExchange, LocalTransport,
                                 SolverPort, build_routes, mirrored)
from repro.core.spmd import SPMDClusterLBM
from repro.check import route_messages
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19
from repro.lbm.solver import LBMSolver
from repro.net.simmpi import SimCluster
from repro.perf.recorder import Tracer


def _routes(arrangement, periodic, rank=0):
    shape = tuple(4 * a for a in arrangement)
    decomp = BlockDecomposition(shape, arrangement, periodic=periodic)
    return build_routes(decomp.neighbors(rank), decomp.periodic)


class TestRouteTable:
    def test_periodic_extent_one_is_one_both_sides_self_wrap(self):
        route = _routes((1, 1, 1), (True,) * 3)[0]
        assert route == AxisRoute(sends=(), wraps=(-1, 1), zeros=())

    def test_periodic_extent_two_is_one_both_sides_message(self):
        route = _routes((2, 1, 1), (True,) * 3)[0]
        assert route == AxisRoute(sends=((1, (-1, 1)),), wraps=(), zeros=())

    def test_periodic_extent_three_is_two_messages(self):
        route = _routes((3, 1, 1), (True,) * 3)[0]
        # direction order: low neighbour (the wrap image) first
        assert route == AxisRoute(sends=((2, (-1,)), (1, (1,))),
                                  wraps=(), zeros=())

    def test_bounded_edges_are_zeros(self):
        lo, mid, hi = (_routes((3, 1, 1), (False,) * 3, rank=r)[0]
                       for r in range(3))
        assert lo == AxisRoute(sends=((1, (1,)),), wraps=(), zeros=(-1,))
        assert mid == AxisRoute(sends=((0, (-1,)), (2, (1,))), wraps=(),
                                zeros=())
        assert hi == AxisRoute(sends=((1, (-1,)),), wraps=(), zeros=(1,))
        assert _routes((1, 1, 1), (False,) * 3)[0] == AxisRoute(
            sends=(), wraps=(), zeros=(-1, 1))

    def test_mixed_periodicity_is_per_axis(self):
        x, y, z = _routes((2, 2, 1), (True, False, True), rank=0)
        assert x == AxisRoute(sends=((1, (-1, 1)),), wraps=(), zeros=())
        assert y == AxisRoute(sends=((2, (1,)),), wraps=(), zeros=(-1,))
        assert z == AxisRoute(sends=(), wraps=(-1, 1), zeros=())

    def test_every_send_has_a_mirrored_send_at_the_peer(self):
        arrangement, periodic = (3, 2, 2), (True, False, True)
        decomp = BlockDecomposition((6, 4, 4), arrangement, periodic=periodic)
        tables = [build_routes(decomp.neighbors(r), periodic)
                  for r in range(decomp.n_nodes)]
        for rank, routes in enumerate(tables):
            for axis, route in enumerate(routes):
                for peer, sides in route.sends:
                    assert (rank, mirrored(sides)) in tables[peer][axis].sends
        assert route_messages(decomp) == sum(
            len(route.sends) for routes in tables for route in routes)

    def test_engine_against_a_fake_port(self):
        """The engine needs nothing from a rank but the port methods,
        looked up at every call."""
        calls = []

        class Port:
            sub_shape = (2, 2, 2)
            aa_odd = True

            def __getattr__(self, name):
                def method(*args):
                    calls.append(name)
                    return args[-1]
                return method

        ex = HaloExchange(0, Port(), {k: None for k in
                                      [(a, d) for a in range(3)
                                       for d in (-1, 1)]},
                          (True, False, False), LocalTransport(0, {}),
                          aa=True)
        assert ex.mode == "aa_reverse"
        assert [ex.post(axis, ex.mode) for axis in range(3)] == [0, 0, 0]
        for axis in range(3):
            ex.complete(axis, ex.mode)
        # An AA rank's sweep closes its wrap and edges itself; a pull
        # rank's engine closes them.
        assert calls == []
        for axis in range(3):
            ex.complete(axis, "pull")
        assert calls == (["read_packed", "write_packed"]
                         + ["fill_ghost_zero_gradient"] * 4)


# -- the SimMPI binding's call sequence --------------------------------
class RecordingComm:
    """Stands in for one rank's ``SimComm``: logs every call and
    answers a receive with zeros of the size this rank sent the same
    peer on the same axis (blocks are uniform, so the sizes match)."""

    def __init__(self, rank: int, log: list) -> None:
        self.rank = rank
        self.clock_s = 0.0
        self.log = log
        self._floats: dict[tuple, int] = {}

    def Isend(self, array, dest, tag=0):
        self.log.append(("Isend", dest, tag, array.dtype.name, array.nbytes))
        self._floats[(dest, tag // 10)] = array.nbytes // 4

    def _payload(self, source, tag):
        return np.zeros(self._floats[(source, tag // 10)], np.float32)

    def Recv(self, source, tag=0):
        self.log.append(("Recv", source, tag))
        return self._payload(source, tag)

    def Irecv(self, source, tag=0):
        self.log.append(("Irecv", source, tag))
        comm = self

        class Req:
            def wait(self):
                comm.log.append(("wait", source, tag))
                return comm._payload(source, tag)
        return Req()


def _periodic_problem(sub, arrangement, rng):
    """A periodic decomposition and a reference solver at a random
    state on its global lattice."""
    shape = tuple(s * a for s, a in zip(sub, arrangement))
    decomp = BlockDecomposition(shape, arrangement,
                                periodic=(True, True, True))
    ref = LBMSolver(shape, tau=0.7)
    ref.initialize(rho=np.ones(shape, np.float32), u=(
        0.02 * rng.standard_normal((3,) + shape)).astype(np.float32))
    return decomp, ref


def _channels(tracer) -> dict:
    """``(src, dst, tag) -> [bytes, ...]`` of the traced messages."""
    channels: dict = {}
    for e in tracer.events:
        if e.name == "mpi.msg":
            key = (e.meta["src"], e.meta["dst"], e.meta["tag"])
            channels.setdefault(key, []).append(e.meta["bytes"])
    return channels


class TestSimMPISequence:
    SUB, ARRANGEMENT = (4, 3, 2), (3, 2, 1)

    def _run_rank(self, monkeypatch, rank, steps=2):
        shape = tuple(s * a for s, a in zip(self.SUB, self.ARRANGEMENT))
        decomp = BlockDecomposition(shape, self.ARRANGEMENT,
                                    periodic=(True, True, True))
        log: list = []
        for phase in ("collide", "stream"):
            inner = getattr(LBMSolver, phase)

            def logged(solver, _inner=inner, _phase=phase):
                log.append((_phase,))
                return _inner(solver)
            monkeypatch.setattr(LBMSolver, phase, logged)
        spmd = SPMDClusterLBM(decomp, tau=0.7)
        spmd._rank_main(RecordingComm(rank, log), steps, [])
        return log

    def test_rank_zero_call_sequence(self, monkeypatch):
        nx, ny, nz = self.SUB
        x_bytes = 5 * (ny + 2) * (nz + 2) * 4         # one side
        y_bytes = 2 * 5 * (nx + 2) * (nz + 2) * 4     # both sides
        # Rank 0 = coords (0, 0, 0): x-low wraps to rank 2, x-high is
        # rank 1; both y neighbours are rank 3; z self-wraps locally.
        step = [
            ("collide",),
            ("Isend", 2, 100, "float32", x_bytes), ("Irecv", 2, 101),
            ("Isend", 1, 101, "float32", x_bytes), ("Irecv", 1, 100),
            ("wait", 2, 101), ("wait", 1, 100),
            ("Isend", 3, 112, "float32", y_bytes), ("Recv", 3, 112),
            ("stream",),
        ]
        assert self._run_rank(monkeypatch, rank=0) == step * 2

    def test_two_rank_clocks_are_exact(self):
        """Two ranks never share a switch port, so every simulated clock
        repeats to the last bit; the rank program charges its clock no
        collide time, so the values follow from the messages alone."""
        decomp, ref = _periodic_problem((6, 6, 4), (2, 1, 1),
                                        np.random.default_rng(11))
        spmd = SPMDClusterLBM(decomp, tau=0.7, f0=ref.f.copy())
        got, clocks_s = spmd.run(3)
        ref.step(3)
        assert np.array_equal(got, ref.f)
        assert clocks_s == [0.01146, 0.01146]

    def test_three_ranks_repeat_numerics_and_messages(self, rng):
        """From three ranks on, senders can contend for a port and the
        clocks vary from run to run, so they are not asserted; the
        numerics and every channel's messages, in order, repeat."""
        decomp, ref = _periodic_problem((4, 4, 3), (3, 1, 1), rng)
        f0 = ref.f.copy()
        ref.step(2)
        runs = []
        for _ in range(2):
            tracer = Tracer(enabled=True)
            spmd = SPMDClusterLBM(decomp, tau=0.7, f0=f0)
            got, _ = spmd.run(2, SimCluster(decomp.n_nodes, recorder=tracer))
            assert np.array_equal(got, ref.f)
            runs.append(_channels(tracer))
        assert runs[0] == runs[1]
        assert all(len(sizes) == 2 for sizes in runs[0].values())
        assert len(runs[0]) == route_messages(decomp) == 3 * 2

    def test_channels_on_a_real_cluster(self, rng):
        """Every (src, dst, tag) channel of a contended 12-rank run
        carries exactly one message per step, of the manifest's size."""
        sub, arrangement, steps = (3, 3, 2), (3, 2, 2), 2
        decomp, ref = _periodic_problem(sub, arrangement, rng)
        tracer = Tracer(enabled=True)
        spmd = SPMDClusterLBM(decomp, tau=0.7, f0=ref.f.copy())
        got, _ = spmd.run(steps, SimCluster(decomp.n_nodes, recorder=tracer))
        ref.step(steps)
        assert np.array_equal(got, ref.f)
        channels = _channels(tracer)
        face = {axis: 5 * 4 * int(np.prod([s + 2 for a, s in enumerate(sub)
                                           if a != axis]))
                for axis in range(3)}
        want = {}
        for rank in range(decomp.n_nodes):
            routes = build_routes(decomp.neighbors(rank), decomp.periodic)
            for axis, route in enumerate(routes):
                for peer, sides in route.sends:
                    tag = (100 + 10 * axis
                           + (2 if len(sides) == 2 else (sides[0] + 1) // 2))
                    want[(rank, peer, tag)] = [len(sides) * face[axis]] * steps
        assert channels == want
        assert len(want) == route_messages(decomp) == 12 * 4


# -- the configuration matrix ------------------------------------------
#: Per-axis block extents for an arrangement extent, all summing to
#: 3 x extent (``sub_shape`` 3): the uniform one first.
CUTS = {1: [(3,)], 2: [(3, 3), (2, 4), (4, 2)],
        3: [(3, 3, 3), (2, 3, 4), (4, 3, 2), (2, 5, 2), (4, 2, 3)]}


def _fill_ghosts(fg, periodic):
    """Single-domain ghost closure with per-axis periodicity: wrap or
    zero-gradient, axis by axis over the full padded extent (what
    ``fill_ghosts_periodic`` / ``fill_ghosts_zero_gradient`` do when
    all axes agree)."""
    for ax, wrap in enumerate(periodic, start=1):
        n = fg.shape[ax]
        for ghost, source in ((0, n - 2 if wrap else 1),
                              (n - 1, 1 if wrap else n - 2)):
            dst = [slice(None)] * fg.ndim
            src = [slice(None)] * fg.ndim
            dst[ax], src[ax] = ghost, source
            fg[tuple(dst)] = fg[tuple(src)]


def _reference(shape, periodic, seed, steps):
    """(f0, f after ``steps``) of the single-domain phase-split solver."""
    rng = np.random.default_rng(seed)
    ref = LBMSolver(shape, tau=0.7, periodic=False, kernel="split")
    ref.initialize(rho=np.ones(shape, np.float32), u=(
        0.02 * rng.standard_normal((3,) + shape)).astype(np.float32))
    f0 = ref.f.copy()
    for _ in range(steps):
        ref.collide()
        _fill_ghosts(ref.fg, periodic)
        ref.stream()
        ref.post_stream()
        ref.time_step += 1
    return f0, ref.f.copy()


@pytest.mark.parametrize("periodic", [True, False])
def test_matrix_reference_is_the_single_domain_solver(periodic):
    shape = (5, 4, 3)
    f0, want = _reference(shape, (periodic,) * 3, seed=3, steps=3)
    ref = LBMSolver(shape, tau=0.7, periodic=periodic)
    ref.f[...] = f0
    ref.step(3)
    assert np.array_equal(ref.f, want)


@given(arrangement=st.tuples(*[st.integers(1, 3)] * 3),
       periodic=st.tuples(*[st.booleans()] * 3),
       cut_picks=st.tuples(*[st.integers(0, 4)] * 3),
       kernel=st.sampled_from(["split", "auto"]),
       backend=st.sampled_from(["serial", "processes"]),
       steps=st.integers(1, 5), seed=st.integers(0, 10 ** 6))
@settings(max_examples=40, deadline=None)
def test_matrix_bit_identical_with_route_table_message_count(
        arrangement, periodic, cut_picks, kernel, backend, steps, seed):
    # Worker processes are real: keep them few.
    assume(backend == "serial" or int(np.prod(arrangement)) <= 4)
    cuts = tuple(CUTS[a][pick % len(CUTS[a])]
                 for a, pick in zip(arrangement, cut_picks))
    shape = tuple(3 * a for a in arrangement)
    f0, want = _reference(shape, periodic, seed, steps)
    cfg = ClusterConfig(sub_shape=(3, 3, 3), arrangement=arrangement,
                        tau=0.7, periodic=periodic, cuts=cuts, kernel=kernel,
                        backend=backend)
    with CPUClusterLBM(cfg) as cluster:
        cluster.load_global_distributions(f0)
        cluster.step(steps)
        got = cluster.gather_distributions().copy()
        msgs = cluster.counters.stats["comm.msgs"]
        per_exchange = route_messages(cluster.decomp)
    assert np.array_equal(got, want)
    assert msgs.value == per_exchange * steps
    if backend == "serial":
        assert msgs.calls == steps        # one record per exchange


#: x and z periodic, y bounded: on (2, 2, 1) a rank's x faces are both
#: messages to one peer, one y face a message and one a bounded edge,
#: and z wraps onto itself; on (1, 2, 2) the first axis wraps.
MIXED = (True, False, True)
INLET_Y = (1, "low", (0.01, 0.04, 0.0), 1.0)
OUTFLOW_Y = (1, "high")


def _mixed_reference(shape, seed=5):
    """A phase-split single domain with :data:`MIXED` ghosts, a solid
    block across the middle of every axis (so across every cut) and
    the inlet/outflow pair on y."""
    rng = np.random.default_rng(seed)
    solid = np.zeros(shape, bool)
    solid[tuple(slice(n // 2 - 1, n // 2 + 1) for n in shape)] = True
    bcs = [EquilibriumVelocityInlet(D3Q19, *INLET_Y),
           OutflowBoundary(D3Q19, *OUTFLOW_Y)]
    ref = LBMSolver(shape, tau=0.7, solid=solid, periodic=False,
                    boundaries=bcs, kernel="split")
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    return ref


def _mixed_step(ref):
    ref.collide()
    _fill_ghosts(ref.fg, MIXED)
    ref.stream()
    ref.post_stream()
    ref.time_step += 1


@pytest.mark.parametrize("driver", ["serial", "processes", "spmd"])
@pytest.mark.parametrize("arrangement", [(2, 2, 1), (1, 2, 2)])
def test_mixed_faces_every_step(arrangement, driver):
    """Every driver's AA ranks close their wraps and edges inside the
    sweep, apply their share of the inlet/outflow pair and ship only
    messages: the single domain's bits after every step (a
    reconstructed gather at odd parity)."""
    shape = tuple(6 * a for a in arrangement)
    ref = _mixed_reference(shape)
    f0 = ref.f.copy()
    if driver == "spmd":
        decomp = BlockDecomposition(shape, arrangement, periodic=MIXED)
        spmd = SPMDClusterLBM(decomp, tau=0.7, solid=ref.solid, f0=f0,
                              inlet=INLET_Y, outflow=OUTFLOW_Y)
        for step in range(1, 5):
            _mixed_step(ref)
            got, _ = spmd.run(step)
            assert np.array_equal(got, ref.f), step
        return
    cfg = ClusterConfig(sub_shape=(6, 6, 6), arrangement=arrangement,
                        tau=0.7, periodic=MIXED, solid=ref.solid,
                        inlet=INLET_Y, outflow=OUTFLOW_Y, backend=driver)
    with CPUClusterLBM(cfg) as cluster:
        assert cluster.resolved_kernel == "aa"
        assert cluster.stacked == (driver == "serial")
        cluster.load_global_distributions(f0)
        for step in range(1, 7):
            _mixed_step(ref)
            cluster.step(1)
            assert np.array_equal(cluster.gather_distributions(),
                                  ref.f), step


def test_solver_port_binds_a_bare_solver(rng):
    """Two bare solvers exchanged through the engine equal one periodic
    solver of the joined domain (what SPMD ranks and thermal do)."""
    sub, arrangement = (4, 3, 3), (2, 1, 1)
    decomp = BlockDecomposition((8, 3, 3), arrangement)
    ref = LBMSolver((8, 3, 3), tau=0.8, kernel="split")
    ref.initialize(rho=np.ones((8, 3, 3), np.float32), u=(
        0.02 * rng.standard_normal((3, 8, 3, 3))).astype(np.float32))
    parts = decomp.scatter_field(ref.f)
    solvers = [LBMSolver(sub, tau=0.8, periodic=False, kernel="split")
               for _ in parts]
    from repro.core.exchange import exchange_all, local_engines
    engines = local_engines(decomp, [SolverPort(s) for s in solvers])
    for solver, part in zip(solvers, parts):
        solver.f[...] = part
    for _ in range(3):
        for solver in solvers:
            solver.collide()
        exchange_all(engines)
        for solver in solvers:
            solver.stream()
            solver.post_stream()
            solver.time_step += 1
    ref.step(3)
    assert np.array_equal(
        decomp.gather_field([s.f.copy() for s in solvers]), ref.f)
