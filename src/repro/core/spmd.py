"""SPMD parallel LBM over SimMPI — the paper's actual software shape.

The coordinator-driven :class:`~repro.core.cluster_lbm.GPUClusterLBM`
is deterministic and convenient for timing sweeps, but the real system
"use[s] MPI for data transfer across the network during execution"
(Sec 3): every node runs the same program and exchanges halos with
point-to-point messages in the Fig-7 step order.  This module
implements that faithfully on :class:`~repro.net.SimCluster` threads:

* each rank owns one sub-domain (a :class:`~repro.core.cpu_node.CPUNode`
  whose solver runs the in-place AA kernel, like every executed CPU
  rank) and one :class:`~repro.core.exchange.HaloExchange` bound to
  SimMPI (:class:`SimMPITransport`) that runs the AA halo protocol:
  the forward exchange after even phases, the reverse one after odd
  phases;
* per time step it runs the rank step the process workers run
  (:func:`~repro.core.exchange.step_rank`): collide, post and complete
  axes 0, 1 and 2, then finish (boundaries; streaming happened in
  place);
* the diagonal (second-nearest) traffic crosses in two hops exactly as
  Sec 4.3 describes, because each axis phase forwards the ghost rims
  received from the previous axis.

Every rank writes its canonical block straight into its own slices of
the run's one global output array, so a run holds each rank's lattice
once plus that array.  The result is asserted identical to the
single-domain reference (and hence to the coordinator path).  Every
message is the rank's packed float32 halo buffer, raw, so the per-rank
simulated clocks expose the communication costs the switch model
assigns to the real message pattern and its real bytes — including
contention if the schedule is violated.  Every manifest mode (pull,
AA forward, AA reverse) carries five links per face over the padded
cross-section, so the messages' sizes, tags and order — and the
clocks — do not depend on the kernel.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core.decomposition import BlockDecomposition
from repro.core.exchange import (HaloExchange, Transport, attach_recorder,
                                 halo_faces, mirrored, step_rank)
from repro.core.procpool import WorkerSpec, build_node
from repro.lbm.aa import unavailable
from repro.lbm.lattice import D3Q19
from repro.net.simmpi import SimCluster
from repro.perf.recorder import NULL_RECORDER, Recorder

def _tag(axis: int, sides) -> int:
    """One tag per axis and message kind, so concurrent phases never
    cross-match: 1x0 low face, 1x1 high face, 1x2 both faces in one
    buffer (periodic extent-2 axes, where the low and high neighbour
    are the same rank)."""
    return 100 + 10 * axis + (2 if len(sides) == 2 else (sides[0] + 1) // 2)


class SimMPITransport(Transport):
    """SimMPI binding of the halo engine's transport.

    A send is an ``Isend``.  On axis 0 the matching ``Irecv`` is posted
    with it and completed by :meth:`recv` (the Sec-4.3 message pattern
    of a nonblocking first axis, which the rank's simulated clock is
    charged for); later axes forward rims just received and use
    blocking ``Recv``.
    """

    def __init__(self, comm) -> None:
        super().__init__()
        self.comm = comm
        self._pending: dict[tuple, object] = {}

    def send(self, peer, axis, sides, buf) -> None:
        self.comm.Isend(buf, dest=peer, tag=_tag(axis, sides))
        if axis == 0:
            theirs = mirrored(sides)
            self._pending[(peer, theirs)] = self.comm.Irecv(
                source=peer, tag=_tag(axis, theirs))

    def recv(self, peer, axis, sender_sides) -> np.ndarray:
        if axis == 0:
            return self._pending.pop((peer, sender_sides)).wait()
        return self.comm.Recv(source=peer, tag=_tag(axis, sender_sides))


class SPMDClusterLBM:
    """Run the decomposed LBM as an SPMD program on simulated ranks.

    Parameters
    ----------
    decomp:
        Block decomposition (defines ranks, neighbours, periodicity).
    tau:
        BGK relaxation time.
    solid:
        Optional global obstacle mask.
    f0:
        Optional global initial distributions.
    inlet / outflow:
        Optional global boundary conditions, as
        :class:`~repro.core.cluster_lbm.ClusterConfig` takes them; each
        lands on the ranks that own that global face.
    """

    def __init__(self, decomp: BlockDecomposition, tau: float,
                 solid: np.ndarray | None = None,
                 f0: np.ndarray | None = None,
                 inlet: tuple | None = None,
                 outflow: tuple | None = None) -> None:
        if decomp.sub_shape is None:
            raise ValueError(
                "SPMDClusterLBM requires uniform cuts; use the "
                "coordinator drivers for non-uniform cuts")
        self.decomp = decomp
        self.tau = float(tau)
        self.solids = (decomp.scatter_field(solid)
                       if solid is not None else [None] * decomp.n_nodes)
        self.f0_parts = decomp.scatter_field(f0) if f0 is not None else None
        for bc in (inlet, outflow):
            if bc is not None and decomp.periodic[bc[0]]:
                raise ValueError(f"{bc} lies on a periodic axis")
        self.inlet, self.outflow = inlet, outflow
        self._out_lock = threading.Lock()

    # -- the per-rank program ------------------------------------------------
    def _rank_main(self, comm, steps: int, out: list,
                   recorder: Recorder = NULL_RECORDER):
        """The program every rank runs: build its AA node and halo
        engine on the rank's view of the run's ``recorder``, take
        ``steps`` rank steps, write its canonical
        distributions into its own block of the run's global array and
        return its simulated clock.

        ``out`` holds that global array: the first rank to finish
        allocates it, shaped ``(Q,) + global_shape`` from its solver's
        Q and dtype (``np.empty``; each page faults in when its owner
        writes it).  No rank copies its block anywhere else.

        The node is built by the process worker's builder
        (:func:`~repro.core.procpool.build_node`) from the spec a worker
        gets under the default configuration (its ``halo_faces``, its
        share of the inlet/outflow, kernel ``"auto"``): an SPMD rank is
        never timing-only, so the cluster rule says ``aa`` unless the
        compiled sweep does not load (then ``split``, as on a
        cluster).  The node and its solver are freed by refcount
        when the rank returns.
        """
        decomp = self.decomp
        rank = comm.rank
        aa = unavailable(D3Q19, np.dtype(np.float32)) is None
        neighbors = decomp.neighbors(rank)
        node = build_node(WorkerSpec(
            rank=rank, n_ranks=decomp.n_nodes, node_kind="cpu",
            sub_shape=decomp.sub_shape, tau=self.tau,
            periodic=decomp.periodic, neighbors=neighbors,
            face_dirs=tuple(decomp.face_neighbors(rank)),
            edge_dirs=tuple(decomp.edge_neighbors(rank)),
            solid=self.solids[rank],
            halo_faces=(halo_faces(neighbors, decomp.periodic)
                        if aa else None),
            **decomp.owned_boundaries(rank, self.inlet, self.outflow)))
        if self.f0_parts is not None:
            node.solver.f[...] = self.f0_parts[rank]
        view = recorder.for_rank(rank)
        attach_recorder(node, view)
        halo = HaloExchange(rank, node, neighbors, decomp.periodic,
                            SimMPITransport(comm), aa=aa, recorder=view)
        for _ in range(steps):
            step_rank(node, halo)
        f = node.solver.f
        with self._out_lock:
            if not out:
                out.append(np.empty(f.shape[:1] + decomp.global_shape,
                                    dtype=f.dtype))
        out[0][(slice(None),) + decomp.blocks[rank].slices] = f
        return comm.clock_s

    # -- driver ---------------------------------------------------------------
    def run(self, steps: int, cluster: SimCluster | None = None
            ) -> tuple[np.ndarray, list[float]]:
        """Execute ``steps`` on all ranks; returns (global f, clocks).

        The clocks are each rank's simulated time.  They are exact and
        repeatable when no two senders share an ingress port at the
        same simulated time (any 2-rank arrangement); otherwise
        :meth:`GigabitSwitch.reserve` serialises the contenders in
        host-thread arrival order, so per-rank clocks vary from run to
        run by the contended transfers (the numerics, the message
        count, and every message's tag and size do not).
        """
        cl = cluster if cluster is not None else SimCluster(
            self.decomp.n_nodes)
        out: list = []
        clocks = cl.run(self._rank_main, steps, out, cl.recorder)
        return out[0], clocks
