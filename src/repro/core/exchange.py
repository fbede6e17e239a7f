"""The halo-exchange engine: the paper's one protocol, written once.

Secs 4.3-4.4 describe a single halo protocol: per axis, everything
bound for one neighbour is gathered into one message (the five
streaming links over the full padded cross-section, rims included);
diagonal traffic is relayed in two hops because each later axis
forwards the rims the earlier ones received; and the first axis is
overlapped with the inner-cell collide — a modelled overlap: every
executed rank collides whole, then exchanges, and the nodes charge the
window (:class:`~repro.core.cpu_node.CPUNode`,
:class:`~repro.core.gpu_node.GPUNode`).  This module holds that
protocol and nothing about *how* a message travels — following
Feichtinger et al. (arXiv:1007.1388), the process-local, shared-memory
and MPI paths are bindings of one pack -> transport -> unpack concept:

* :func:`build_routes` — the route table, from a rank's six
  ``(axis, direction) -> rank | None`` slots and the periodicity, and
  :func:`halo_faces`, the face row an AA rank's sweep closes by;
* :class:`HaloExchange` — one rank's :meth:`~HaloExchange.post` (pack
  and send one axis) and :meth:`~HaloExchange.complete` (receive and
  unpack; a pull-mode rank's self-wraps and domain edges are closed
  there too, an AA rank's in its sweep).  What a caller does
  *between* the two is all that differs between drivers: the
  coordinator lets every rank post before any completes
  (:func:`exchange_all`); a rank that owns its process or thread runs
  :meth:`~HaloExchange.run` — a worker process waits on its barrier
  there, an SPMD rank on its receives;
* :func:`step_rank` — such a rank's whole time step around the
  exchange (begin, collide, exchange, charge, finish), shared by the
  worker processes and the SPMD ranks;
* a **transport** of three calls — ``outbox(peer, axis, sides, floats)
  -> buffer to pack into``, ``send(peer, axis, sides, buf)``,
  ``recv(peer, axis, sender_sides) -> buffer``; every message is the
  packed float32 buffer itself.  :class:`LocalTransport` lives here;
  the shm mailboxes and SimMPI bind the same calls in
  :mod:`repro.core.procpool` / ``spmd``;
* :class:`SolverPort` — the array operations the engine needs
  from a rank: inherited by :class:`~repro.core.cpu_node.CPUNode` and
  implemented over textures by :class:`~repro.core.gpu_node.GPUNode`;
* :class:`RankAxisExchange` — the same route table and manifests
  executed for ranks whose arrays are slots of stacked arenas
  (:mod:`repro.core.stack`): no messages, one fancy-index copy per
  route kind along the rank axis, and :func:`exchange_all`'s order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.halo import HaloPlan
from repro.core.wire import layer_index, pack_halo, unpack_halo
from repro.lbm.streaming import fill_face_zero_gradient
from repro.perf.recorder import NULL_RECORDER, Recorder


@dataclass(frozen=True)
class AxisRoute:
    """What one rank does along one axis in every exchange.

    ``sends`` are ``(peer, sides)`` messages in direction order; both
    directions merge into one ``(-1, 1)`` message when they reach the
    same peer (periodic extent-2 axes).  Every send has a mirrored
    receive from the same peer.  ``wraps`` are the sides that wrap onto
    this rank itself (periodic extent-1 axes: always both), ``zeros``
    the sides on a true domain edge, closed locally.
    """

    sends: tuple[tuple[int, tuple[int, ...]], ...]
    wraps: tuple[int, ...]
    zeros: tuple[int, ...]


def build_routes(neighbors: dict, periodic) -> tuple[AxisRoute, ...]:
    """The per-axis route table of one rank.

    ``neighbors`` maps ``(axis, direction)`` to the neighbouring rank
    or ``None`` (:meth:`BlockDecomposition.neighbors`).
    """
    routes = []
    for axis in range(3):
        peers: dict[int, list[int]] = {}
        wraps: list[int] = []
        zeros: list[int] = []
        for direction in (-1, 1):
            peer = neighbors[(axis, direction)]
            if peer is not None:
                peers.setdefault(peer, []).append(direction)
            elif periodic[axis]:
                wraps.append(direction)
            else:
                zeros.append(direction)
        routes.append(AxisRoute(
            sends=tuple((peer, tuple(dirs)) for peer, dirs in peers.items()),
            wraps=tuple(wraps), zeros=tuple(zeros)))
    return tuple(routes)


def halo_faces(neighbors: dict, periodic) -> tuple[str, ...]:
    """An AA rank's face row (:func:`repro.lbm.aa.face_kinds`): per face
    ``(0, -1), (0, +1), ...`` of its route table, ``"message"`` (a
    send), ``"wrap"`` or ``"zero"``."""
    kinds = []
    for route in build_routes(neighbors, periodic):
        sent = {side for _, sides in route.sends for side in sides}
        kinds += ["message" if d in sent else "wrap" if d in route.wraps
                  else "zero" for d in (-1, 1)]
    return tuple(kinds)


def mirrored(sides: tuple[int, ...]) -> tuple[int, ...]:
    """The sides the *peer* packed for a message this rank sends as
    ``sides`` (its facing sides are this rank's opposite ones)."""
    return tuple(-s for s in reversed(sides))


class SolverPort:
    """The engine's view of a rank whose state is a ghost-padded
    ``(Q, nx+2, ny+2, nz+2)`` array ``solver.fg``."""

    def __init__(self, solver, sub_shape=None) -> None:
        self.solver = solver
        self.sub_shape = tuple(int(s) for s in (
            solver.shape if sub_shape is None else sub_shape))

    @property
    def aa_odd(self) -> bool:
        """Whether the rank's next AA phase is the odd one (so this
        step's exchange is the reverse scatter)."""
        return self.solver is not None and self.solver.aa_odd

    def read_packed(self, manifest, out: np.ndarray) -> np.ndarray:
        """Pack one neighbour's payload into ``out`` (border layer for
        the forward modes, ghost shell for ``aa_reverse``)."""
        return pack_halo(self.solver.fg, self.sub_shape, manifest, out)

    def write_packed(self, manifest, buf: np.ndarray) -> None:
        """Unpack a neighbour's payload: its side-``s`` segment lands
        on this rank's side ``-s`` (ghost layer for the forward modes,
        border-layer crossing fold for ``aa_reverse``)."""
        unpack_halo(self.solver.fg, self.sub_shape, manifest, buf)

    def fill_ghost_zero_gradient(self, axis: int, direction: int) -> None:
        """True domain edge of a pull-mode rank: copy the border layer
        outward over the full padded cross-section.  The exchange
        follows the collide, so a ghost plane is only ever streamed
        out of: the ten slots with ``c[axis] != 0`` (either sign,
        whichever layout the rank's kernel keeps) are all any reader
        can reach, and an edge ghost is read only by slots that cross
        both of its faces, so the later axes still relay it."""
        slots = np.flatnonzero(self.solver.lattice.c[:, axis])
        fill_face_zero_gradient(self.solver.fg, axis, direction, slots)


class Transport:
    """Base of the bindings that own their send buffers: one
    preallocated float32 outbox per ``(peer, axis, sides)``, so the
    steady-state exchange allocates nothing, and no modelled clock."""

    def __init__(self, recorder: Recorder = NULL_RECORDER) -> None:
        self._outboxes: dict[tuple, np.ndarray] = {}
        self._recorder = recorder

    def outbox(self, peer: int, axis: int, sides, floats: int) -> np.ndarray:
        key = (peer, axis, sides)
        buf = self._outboxes.get(key)
        if buf is None:
            buf = self._outboxes[key] = np.empty(floats, dtype=np.float32)
            self._recorder.alloc("exchange.wire_bufs")
        return buf


class LocalTransport(Transport):
    """In-process binding: ranks of one process hand each other their
    buffers through a shared dict (serial coordinator, simulated-GPU
    nodes).  A receive is valid once the sender has posted,
    which :func:`exchange_all` guarantees."""

    def __init__(self, rank: int, mail: dict,
                 recorder: Recorder = NULL_RECORDER) -> None:
        super().__init__(recorder)
        self.rank = rank
        self.mail = mail

    def send(self, peer, axis, sides, buf) -> None:
        self.mail[(self.rank, peer, axis, sides)] = buf

    def recv(self, peer, axis, sender_sides) -> np.ndarray:
        return self.mail[(peer, self.rank, axis, sender_sides)]


class HaloExchange:
    """One rank's side of the halo protocol.

    ``port`` is the rank's :class:`SolverPort` (or a node offering the
    same methods); they are looked up at every call, so spans wrapped
    over a node after construction still fire.  ``aa`` says the rank
    runs the in-place AA kernel: forward exchange after even phases,
    reverse ghost-scatter exchange after odd ones.  ``recorder``
    receives ``comm.bytes_wire`` per neighbour message.
    """

    def __init__(self, rank: int, port, neighbors: dict, periodic,
                 transport, aa: bool = False,
                 recorder: Recorder = NULL_RECORDER) -> None:
        self.rank = rank
        self.port = port
        self.plan = HaloPlan(port.sub_shape)
        self.routes = build_routes(neighbors, periodic)
        self.transport = transport
        self.aa = bool(aa)
        self.recorder = recorder

    @property
    def mode(self) -> str:
        """The manifest mode of this step's exchange: the rank's own AA
        cadence (re-based by every canonical load) picks the half of
        the pair."""
        if not self.aa:
            return "pull"
        return "aa_reverse" if self.port.aa_odd else "aa_forward"

    def post(self, axis: int, mode: str) -> int:
        """Pack and send this axis's neighbour messages; returns how
        many were sent.  Touches only this rank's own arrays."""
        transport = self.transport
        sends = self.routes[axis].sends
        for peer, sides in sends:
            m = self.plan.neighbor_manifest(axis, sides, mode)
            buf = self.port.read_packed(
                m, transport.outbox(peer, axis, sides, m.total_floats))
            self.recorder.metric("comm.bytes_wire", buf.nbytes)
            transport.send(peer, axis, sides, buf)
        return len(sends)

    def complete(self, axis: int, mode: str) -> None:
        """Receive and unpack this axis's messages; a pull-mode rank
        then closes the sides that have no neighbour: periodic
        self-wrap, or the zero-gradient ghost fill at a true domain
        edge.  An AA rank's sweep closes those itself."""
        transport, port = self.transport, self.port
        route = self.routes[axis]
        for peer, sides in route.sends:
            theirs = mirrored(sides)
            m = self.plan.neighbor_manifest(axis, theirs, mode)
            port.write_packed(m, transport.recv(peer, axis, theirs))
        if mode != "pull":
            return
        if route.wraps:
            # A message to itself: packed into its own outbox (free on
            # this axis — a wrapping axis has no sends), never sent.
            m = self.plan.neighbor_manifest(axis, route.wraps, mode)
            buf = transport.outbox(self.rank, axis, route.wraps,
                                   m.total_floats)
            port.write_packed(m, port.read_packed(m, buf))
        for direction in route.zeros:
            port.fill_ghost_zero_gradient(axis, direction)

    def run(self, sync=None) -> None:
        """One whole exchange of this rank: per axis post, ``sync()``,
        complete (the sequential axis order relays the diagonal
        traffic through the rims).  ``sync`` makes every peer's post of
        the axis visible before this rank completes it (a worker
        process's barrier); without it the transport's receive waits
        for the message (SimMPI).  Records ``comm.msgs``."""
        mode = self.mode
        msgs = 0
        for axis in range(3):
            msgs += self.post(axis, mode)
            if sync is not None:
                sync()
            self.complete(axis, mode)
        self.recorder.metric("comm.msgs", msgs)


def attach_recorder(node, recorder: Recorder) -> None:
    """Give a rank's node, and its solver, the rank's recorder handle."""
    node.recorder = recorder
    solver = getattr(node, "solver", None)
    if solver is not None and hasattr(solver, "recorder"):
        solver.recorder = recorder


def step_rank(node, halo: HaloExchange, sync=None) -> None:
    """One time step of a rank that owns its process or thread (a
    worker process's, an SPMD rank's): begin, collide, the halo
    exchange (:meth:`HaloExchange.run` with ``sync``, recorded as
    ``cluster.exchange``), charge the transfers, finish.  The node
    records its collide and finish.  The collide is whole: the Sec-4.4
    overlap is modelled by the node's charges, never executed."""
    node.begin_step()
    node.collide_phase()
    with node.recorder.phase("cluster.exchange"):
        halo.run(sync)
    node.charge_transfers()
    node.finish_step()


def local_engines(decomp, ports, aa: bool = False,
                  recorder: Recorder = NULL_RECORDER) -> list[HaloExchange]:
    """One engine per in-process rank over a shared :class:`LocalTransport`."""
    mail: dict = {}
    return [HaloExchange(rank, port, decomp.neighbors(rank), decomp.periodic,
                         LocalTransport(rank, mail, recorder), aa=aa,
                         recorder=recorder)
            for rank, port in enumerate(ports)]


def exchange_all(engines: list[HaloExchange],
                 recorder: Recorder = NULL_RECORDER) -> None:
    """One whole exchange of in-process ranks.

    Per axis every rank posts before any rank completes, so no ghost is
    written before every border has been read (snapshot semantics); the
    sequential axis order relays edge and corner data through the rims
    (the paper's two-hop diagonal routing).  Records ``comm.msgs`` once
    per exchange.
    """
    mode = engines[0].mode
    msgs = 0
    for axis in range(3):
        for ex in engines:
            msgs += ex.post(axis, mode)
        for ex in engines:
            ex.complete(axis, mode)
    recorder.metric("comm.msgs", msgs)


def _layer_index(axis: int, links, ranks, layer: int) -> tuple:
    """``arena[links, ranks]`` at padded ``layer`` of ``axis``, over the
    full padded cross-section (rims included).  Both ends of a copy
    index alike, so their broadcast ``(links, ranks)`` axes line up
    wherever numpy places them."""
    idx: list = [np.asarray(links, np.intp)[:, None],
                 np.asarray(ranks, np.intp)[None, :],
                 slice(None), slice(None), slice(None)]
    idx[2 + axis] = int(layer)
    return tuple(idx)


class RankAxisExchange:
    """:func:`exchange_all` for ranks stacked in arenas, run along the
    rank axis.

    ``slots`` maps every rank to ``(arena, index)``: its padded array is
    ``arena[:, index]`` of a ``(Q, R) + padded`` arena (one per block
    shape, :func:`repro.core.stack.carve_arenas`).  The route table
    (:func:`build_routes`), the manifests
    (:meth:`HaloPlan.neighbor_manifest`) and the layers
    (:func:`~repro.core.wire.layer_index`) are the engine's own; only
    their execution differs.  Only AA ranks stack, and an AA rank's
    sweep closes its wraps and domain edges itself, so per axis there
    is one stage: every neighbour manifest segment — the sender's layer
    of the carried slots lands on the receiver's opposite layer (pack,
    then unpack).

    It runs as one fancy-index copy per route kind (the arenas, the
    side, hence the slots and layers) over all ranks of that kind.
    Within an axis the copies read layers no copy of that axis writes —
    border to ghost forward, ghost to border in reverse — so running
    the kinds in turn keeps the engine's post-everything-then-complete
    snapshot.  A copy's gather is halo-sized; no arena-sized temporary
    is made.  ``comm.msgs`` and ``comm.bytes_wire`` are recorded as the
    engine records them.
    """

    def __init__(self, decomp, slots: dict,
                 recorder: Recorder = NULL_RECORDER) -> None:
        self.slots = slots
        self.recorder = recorder
        self.routes = [build_routes(decomp.neighbors(rank), decomp.periodic)
                       for rank in range(decomp.n_nodes)]
        self._plans: dict[tuple, HaloPlan] = {}
        self._programs: dict[str, list] = {}
        #: Neighbour messages per exchange, and their float32 bytes.
        self.msgs = sum(len(route.sends) for routes in self.routes
                        for route in routes)
        self.bytes = sum(
            self._plan(rank).neighbor_manifest(axis, sides).nbytes
            for rank, routes in enumerate(self.routes)
            for axis, route in enumerate(routes)
            for _, sides in route.sends)

    def _plan(self, rank: int) -> HaloPlan:
        arena = self.slots[rank][0]
        shape = tuple(n - 2 for n in arena.shape[2:])
        plan = self._plans.get(shape)
        if plan is None:
            plan = self._plans[shape] = HaloPlan(shape)
        return plan

    def _compile(self, mode: str) -> list:
        """The ``(dst, dst_index, src, src_index)`` copies of one
        exchange, in execution order: per axis, one copy per route kind
        (the arenas, layers and slots) over its ranks."""
        if mode not in ("aa_forward", "aa_reverse"):
            raise ValueError(f"only AA ranks stack; no {mode!r} exchange")
        reverse = mode == "aa_reverse"
        program = []
        for axis in range(3):
            kinds: dict[tuple, tuple] = {}
            for rank, routes in enumerate(self.routes):
                plan, (src, i) = self._plan(rank), self.slots[rank]
                for peer, sides in routes[axis].sends:
                    peer_sub = self._plan(peer).sub_shape
                    dst, j = self.slots[peer]
                    for seg in plan.neighbor_manifest(axis, sides,
                                                      mode).segments:
                        key = (id(src), id(dst), seg.links,
                               layer_index(plan.sub_shape, axis, seg.side,
                                           reverse),
                               layer_index(peer_sub, axis, -seg.side,
                                           not reverse))
                        kind = kinds.setdefault(key, (src, dst, [], []))
                        kind[2].append(i)
                        kind[3].append(j)
            for (_, _, links, s_layer, d_layer), (src, dst, si, di) in (
                    kinds.items()):
                program.append((dst, _layer_index(axis, links, di, d_layer),
                                src, _layer_index(axis, links, si, s_layer)))
        return program

    def run(self, mode: str) -> None:
        """One whole exchange of every stacked rank in manifest ``mode``
        (``aa_forward`` or ``aa_reverse``)."""
        program = self._programs.get(mode)
        if program is None:
            program = self._programs[mode] = self._compile(mode)
        for dst, dst_index, src, src_index in program:
            dst[dst_index] = src[src_index]
        if self.msgs:
            self.recorder.metric("comm.bytes_wire", self.bytes,
                                 calls=self.msgs)
        self.recorder.metric("comm.msgs", self.msgs)
