"""The halo-exchange engine: the paper's one protocol, written once.

Secs 4.3-4.4 describe a single halo protocol: per axis, everything
bound for one neighbour is gathered into one message (the five
streaming links over the full padded cross-section, rims included);
diagonal traffic is relayed in two hops because each later axis
forwards the rims the earlier ones received; and the first axis is
overlapped with the inner-cell collide.  This module holds that
protocol and nothing about *how* a message travels — following
Feichtinger et al. (arXiv:1007.1388), the process-local, shared-memory
and MPI paths are bindings of one pack -> transport -> unpack concept:

* :func:`build_routes` — the route table, from a rank's six
  ``(axis, direction) -> rank | None`` slots and the periodicity;
* :class:`HaloExchange` — one rank's :meth:`~HaloExchange.post` (pack,
  encode, send one axis) and :meth:`~HaloExchange.complete` (receive,
  decode, unpack, close the axis locally).  What a caller does
  *between* the two is all that differs between drivers: coordinator
  and thermal let every rank post before any completes
  (:func:`exchange_all`), a worker process waits on its barrier, the
  SPMD rank collides its inner cells;
* a **transport** of three calls — ``outbox(peer, axis, sides, floats)
  -> buffer to pack into``, ``send(peer, axis, sides, buf, meta)``,
  ``recv(peer, axis, sender_sides) -> buffer`` — plus
  ``compute(seconds)``, a no-op except on SimMPI (modelled codec CPU).
  :class:`LocalTransport` lives here; the shm mailboxes and SimMPI
  bind the same calls in :mod:`repro.core.procpool` / ``spmd``;
* :class:`SolverPort` — the four array operations the engine needs
  from a rank: inherited by :class:`~repro.core.cpu_node.CPUNode`,
  bound to a bare solver by SPMD ranks and the thermal models, and
  implemented over textures by :class:`~repro.core.gpu_node.GPUNode`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.halo import HaloPlan
from repro.core.wire import pack_halo, unpack_halo
from repro.lbm.streaming import (fill_face_zero_gradient,
                                 fold_face_zero_gradient)
from repro.perf.counters import KernelCounters

_NO_COUNTERS = KernelCounters(enabled=False)


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
        """True domain edge, forward modes: copy the border layer
        outward over the full padded cross-section.  The exchange
        follows the collide, so a ghost plane is only ever streamed
        out of: the ten slots with ``c[axis] != 0`` (either sign,
        whichever layout the rank's kernel keeps) are all any reader
        can reach, and an edge ghost is read only by slots that cross
        both of its faces, so the later axes still relay it."""
        slots = np.flatnonzero(self.solver.lattice.c[:, axis])
        fill_face_zero_gradient(self.solver.fg, axis, direction, slots)

    def fold_border_zero_gradient(self, axis: int, direction: int) -> None:
        """True domain edge after an AA odd scatter: there is no
        neighbour to ship the outward-pushed crossing populations to,
        so they fold back onto the border layer locally, exactly as
        the single-domain AA kernel's ghost fold does."""
        fold_face_zero_gradient(self.solver.lattice, self.solver.fg,
                                axis, direction)


class Transport:
    """Base of the bindings that own their send buffers: one
    preallocated float32 outbox per ``(peer, axis, sides)``, so the
    steady-state exchange allocates nothing, and no modelled clock."""

    def __init__(self, counters: KernelCounters = _NO_COUNTERS) -> None:
        self._outboxes: dict[tuple, np.ndarray] = {}
        self._counters = counters

    def outbox(self, peer: int, axis: int, sides, floats: int) -> np.ndarray:
        key = (peer, axis, sides)
        buf = self._outboxes.get(key)
        if buf is None:
            buf = self._outboxes[key] = np.empty(floats, dtype=np.float32)
            self._counters.alloc("exchange.wire_bufs")
        return buf

    def compute(self, seconds: float) -> None:
        pass


class LocalTransport(Transport):
    """In-process binding: ranks of one process hand each other their
    buffers through a shared dict (serial coordinator, simulated-GPU
    nodes, thermal).  A receive is valid once the sender has posted,
    which :func:`exchange_all` guarantees."""

    def __init__(self, rank: int, mail: dict,
                 counters: KernelCounters = _NO_COUNTERS) -> None:
        super().__init__(counters)
        self.rank = rank
        self.mail = mail

    def send(self, peer, axis, sides, buf, meta=None) -> None:
        self.mail[(self.rank, peer, axis, sides)] = buf

    def recv(self, peer, axis, sender_sides) -> np.ndarray:
        return self.mail[(peer, self.rank, axis, sender_sides)]


class HaloExchange:
    """One rank's side of the halo protocol.

    ``port`` is the rank's :class:`SolverPort` (or a node offering the
    same methods); they are looked up at every call, so spans wrapped
    over a node after construction still fire.  ``aa`` says the rank
    runs the in-place AA kernel: forward exchange after even phases,
    reverse ghost-scatter exchange after odd ones.  ``codec`` is an
    optional :class:`~repro.core.wire.AdaptiveCompressionController`
    for neighbour messages (never local self-wraps).  ``counters``
    receives ``comm.bytes_wire`` per raw message (the codec records its
    own byte metrics).
    """

    def __init__(self, rank: int, port, neighbors: dict, periodic,
                 transport, aa: bool = False, codec=None,
                 counters: KernelCounters = _NO_COUNTERS) -> None:
        self.rank = rank
        self.port = port
        self.plan = HaloPlan(port.sub_shape)
        self.routes = build_routes(neighbors, periodic)
        self.transport = transport
        self.aa = bool(aa)
        self.codec = codec
        self.counters = counters

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
        transport, codec = self.transport, self.codec
        sends = self.routes[axis].sends
        for peer, sides in sends:
            m = self.plan.neighbor_manifest(axis, sides, mode)
            buf = self.port.read_packed(
                m, transport.outbox(peer, axis, sides, m.total_floats))
            meta = None
            if codec is None:
                self.counters.metric("comm.bytes_wire", buf.nbytes)
            else:
                payload = codec.encode((self.rank, peer, axis), buf)
                if payload.compress_s:
                    transport.compute(payload.compress_s)
                buf = payload.data
                if payload.compressed:
                    meta = {"raw_bytes": payload.raw_bytes}
            transport.send(peer, axis, sides, buf, meta)
        return len(sends)

    def complete(self, axis: int, mode: str) -> None:
        """Receive and unpack this axis's messages, then close the
        sides that have no neighbour: periodic self-wrap, or the
        zero-gradient ghost fill (border fold after an AA odd scatter)
        at a true domain edge."""
        transport, codec, port = self.transport, self.codec, self.port
        route = self.routes[axis]
        for peer, sides in route.sends:
            theirs = mirrored(sides)
            m = self.plan.neighbor_manifest(axis, theirs, mode)
            buf = transport.recv(peer, axis, theirs)
            if codec is not None:
                if buf.dtype == np.uint8:
                    transport.compute(codec.decompress_seconds(m.nbytes))
                buf = codec.decode((peer, self.rank, axis), buf,
                                   (m.total_floats,))
            port.write_packed(m, buf)
        if route.wraps:
            # A message to itself: packed into its own outbox (free on
            # this axis — a wrapping axis has no sends), never sent.
            m = self.plan.neighbor_manifest(axis, route.wraps, mode)
            buf = transport.outbox(self.rank, axis, route.wraps,
                                   m.total_floats)
            port.write_packed(m, port.read_packed(m, buf))
        for direction in route.zeros:
            if mode == "aa_reverse":
                port.fold_border_zero_gradient(axis, direction)
            else:
                port.fill_ghost_zero_gradient(axis, direction)


def local_engines(decomp, ports, aa: bool = False, codec=None,
                  counters: KernelCounters = _NO_COUNTERS,
                  ) -> list[HaloExchange]:
    """One engine per in-process rank over a shared :class:`LocalTransport`."""
    mail: dict = {}
    return [HaloExchange(rank, port, decomp.neighbors(rank), decomp.periodic,
                         LocalTransport(rank, mail, counters), aa=aa,
                         codec=codec, counters=counters)
            for rank, port in enumerate(ports)]


def exchange_all(engines: list[HaloExchange],
                 counters: KernelCounters = _NO_COUNTERS) -> None:
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
    counters.metric("comm.msgs", msgs)
