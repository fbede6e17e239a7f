"""Process-parallel execution backend for the cluster drivers.

``ClusterConfig.backend = "processes"`` replaces the coordinator's
in-process node loop with one persistent OS process per cluster rank —
the shape of the paper's real cluster, where every node steps its
sub-domain concurrently.  The compiled sweep drops the GIL, and threads scaled
like processes on separate boxes (ROADMAP probe A); item 3(0) decides.
Its ranks are CPU ranks only: a simulated GPU's time is modelled, so a
:class:`~repro.core.cluster_lbm.GPUClusterLBM` runs on the serial
backend.

Protocol (see DESIGN.md §5c):

* **Spawn once.**  The driver creates the shared segments
  (:mod:`repro.core.shm`), builds one picklable :class:`WorkerSpec`
  per rank, and forks/spawns the workers at construction.  Workers
  build their own :class:`~repro.core.cpu_node.CPUNode` from the
  spec's node arguments, the rank description every driver builds its
  node from, and rebind its distributions onto their shared ``fg``
  segment — the coordinator holds only lightweight
  :class:`RankProxy` stand-ins.
* **Zero-copy stepping.**  A step command is a tiny tuple on a pipe.
  Inside the step, each worker runs the rank step it shares with the
  SPMD ranks (:func:`repro.core.exchange.step_rank`) over the shared
  mailboxes: per axis it posts (packing into its own mailbox slot
  ``t % 2`` *is* the send), waits on the shared barrier, then
  completes (a receive is a view of the neighbour's mailbox).  The
  double-buffered slots make one barrier per axis sufficient: a rank
  may already pack step ``t+1`` (parity ``t+1 & 1``) while a slower
  neighbour still reads step ``t``'s slot.
* **Aggregated observability.**  Each step reply carries the rank's
  modeled timing buckets (``compute_s``/``agp_s``/``overlap_window_s``)
  and its :class:`~repro.perf.recorder.Recorder` drain (aggregates,
  and events while tracing); the driver absorbs them under the rank so
  ``StepTiming`` and the recorder look the same as under the serial
  backend.  Workers heartbeat into their shared ``health`` strip at
  every step boundary, which is what the telemetry watchdog reads.
* **Fail loudly, clean up always.**  A killed or hung worker breaks
  the shared barrier; the coordinator aborts it, drains the surviving
  ranks' error replies, and raises one aggregated ``RuntimeError``
  (mirroring ``SimCluster.run``).  ``shutdown()`` — also reachable via
  the driver's context manager — terminates workers and unlinks every
  segment; a :mod:`weakref` finalizer covers drivers that were never
  shut down.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
import weakref
from dataclasses import dataclass, field
from threading import BrokenBarrierError

import numpy as np

from repro.core.cpu_node import CPUNode
from repro.core.exchange import HaloExchange, attach_recorder, step_rank
from repro.core.shm import RankSegments, segment_name, unique_token, unlink_segment_names
from repro.lbm.lattice import D3Q19
from repro.perf.recorder import Recorder, estimate_clock_offset
from repro.perf.telemetry import rss_bytes

#: Fallback start method order: fork is cheap and keeps tests fast on
#: Linux; spawn is the portable fallback.
_START_METHODS = ("fork", "spawn")

#: Seconds a worker waits on the halo barrier, and the coordinator on a
#: reply, before calling a rank hung.  A dead worker is caught sooner,
#: by process liveness (:meth:`ProcessBackend._await_all`).
TIMEOUT_S = 60.0


def _mp_context():
    for method in _START_METHODS:
        if method in mp.get_all_start_methods():
            return mp.get_context(method)
    return mp.get_context()


@dataclass(frozen=True)
class WorkerSpec:
    """Everything one rank needs to rebuild its node and halo engine.

    Pickled exactly once, at spawn; per-step traffic is scalars only.
    """

    rank: int
    node_args: dict                     # CPUNode keyword arguments
    neighbors: dict                     # (axis, direction) -> rank | None
    periodic: tuple[bool, bool, bool]
    seg_names: dict                     # own segment names by kind
    mail_names: tuple                   # every rank's mailbox segment name
    peer_sub_shapes: tuple              # every rank's block shape (may differ)


class RankProxy:
    """Coordinator-side stand-in for a node running in a worker.

    Exposes exactly the per-step timing attributes the driver's
    ``StepTiming`` assembly reads from real nodes.
    """

    __slots__ = ("rank", "compute_s", "agp_s", "overlap_window_s",
                 "kernel_used", "solid_fraction", "kernel_reason")

    def __init__(self, rank: int) -> None:
        self.rank = rank
        self.compute_s = 0.0
        self.agp_s = 0.0
        self.overlap_window_s = 0.0
        # The worker's kernel report comes with its "ready" message.
        self.kernel_used = "n/a"
        self.solid_fraction = 0.0
        self.kernel_reason: str | None = None


class _MailboxTransport:
    """Shared-memory binding of the halo engine's transport: packing
    into this rank's own mailbox slot *is* the send, and a receive is a
    view of the peer's mailbox — valid once the worker's barrier
    between ``post`` and ``complete`` has passed.  ``slot`` is the step
    parity addressing the double-buffered mailboxes."""

    def __init__(self, own: RankSegments, peers: dict) -> None:
        self.own = own
        self.peers = peers
        self.slot = 0

    def outbox(self, peer, axis, sides, floats) -> np.ndarray:
        return self.own.mailbox(axis, self.slot, sides)

    def send(self, peer, axis, sides, buf) -> None:
        pass

    def recv(self, peer, axis, sender_sides) -> np.ndarray:
        return self.peers[peer].mailbox(axis, self.slot, sender_sides)


class _Worker:
    """The persistent per-rank loop executed inside the worker process."""

    def __init__(self, spec: WorkerSpec, conn, barrier) -> None:
        self.spec = spec
        self.conn = conn
        self.barrier = barrier
        #: The rank's recorder; tracing follows the coordinator's
        #: ("trace", flag) command.  Drained into every step reply.
        self.recorder = Recorder(rank=spec.rank)
        self.broken: str | None = None
        self.step_count = 0
        self.node = CPUNode(spec.rank, **spec.node_args)
        attach_recorder(self.node, self.recorder)
        # Attach own segments, then every peer's mailbox for unpacking.
        # Peer mailbox layouts follow the *peer's* block shape — equal
        # to ours only under uniform cuts.
        self.segs = RankSegments.attach(spec.seg_names,
                                        spec.peer_sub_shapes[spec.rank],
                                        D3Q19.Q)
        self.peer_mail: dict[int, RankSegments] = {}
        for peer in sorted({p for p in spec.neighbors.values()
                            if p is not None}):
            self.peer_mail[peer] = RankSegments.attach(
                {"mail": spec.mail_names[peer]},
                spec.peer_sub_shapes[peer], D3Q19.Q)
        self.transport = _MailboxTransport(self.segs, self.peer_mail)
        # The AA halo protocol, if the rank's solver runs AA.
        self.aa = self.node.kernel_used == "aa"
        self.exchange = HaloExchange(
            spec.rank, self.node, spec.neighbors, spec.periodic,
            self.transport, aa=self.aa, recorder=self.recorder)
        self._adopt_shared_fg()

    def _adopt_shared_fg(self) -> None:
        """Rebind the solver's distributions onto the shared segment.

        After this the interior of the current buffer *is* the shared
        page set, so coordinator-side gather/load are plain memory
        reads/writes with no worker round-trip.  The private array is
        dropped *before* the first shared write and the constructor's
        default state is rebuilt in place, so private and shared
        copies never coexist: the worker's high-water mark is its
        steady state.  The fresh segment's zero pages are the ghosts.
        """
        fg0, fg1 = self.segs.fg_bufs
        solver = self.node.solver
        solver.fg = fg0
        solver.initialize()
        if not self.aa:
            # The split kernel streams into the second buffer; a
            # just-built solver has no back buffer to carry over, and
            # the zero pages are what a lazy one would start as.  The
            # AA kernel is single-array: its lazy back buffer stays
            # unallocated (asserted by ``python -m repro check``) and buffer 1
            # only stages odd-parity gathers.
            solver._fg_next = fg1

    def _barrier_wait(self) -> None:
        if len(self.spec.mail_names) < 2:
            return
        try:
            self.barrier.wait(timeout=TIMEOUT_S)
        except BrokenBarrierError:
            self.broken = ("halo barrier broken (a peer died or timed out "
                           f"after {TIMEOUT_S:g}s)")
            raise

    def _heartbeat(self, busy: bool, stepped: bool = False) -> None:
        """Write the shared health strip (see shm.HEALTH_SLOTS), which
        the coordinator's watchdog reads live, mid-step included; a
        step's seconds are the time since the previous heartbeat."""
        health, now = self.segs.health, time.perf_counter()
        health[1] = float(self.step_count)
        health[2] = float(busy)
        if stepped:
            health[3] = now - health[0]
        if not busy:
            health[4] = float(rss_bytes())
        health[0] = now

    def _step(self, n: int) -> dict:
        node, rec = self.node, self.recorder
        # Mark busy *before* work starts; refresh at every step boundary.
        self._heartbeat(True)
        for _ in range(int(n)):
            rec.begin_step(self.step_count)
            # The step parity addresses the double-buffered mailboxes.
            self.transport.slot = self.step_count & 1
            step_rank(node, self.exchange, sync=self._barrier_wait)
            self.step_count += 1
            self._heartbeat(True, stepped=True)
        self._heartbeat(False)
        reply = {
            "compute_s": node.compute_s,
            "agp_s": node.agp_s,
            "overlap_window_s": node.overlap_window_s,
            "recorder": rec.drain(),
        }
        return reply

    def _live_buf(self) -> int:
        """Index of the shared fg buffer the rank's array lives on.
        The double-buffered kernels swap every step; the single AA
        array never leaves buffer 0."""
        if self.aa:
            return 0
        return self.step_count & 1

    def _gather(self) -> dict:
        """Make the canonical interior readable in a shared buffer;
        replies which one (``cur``) and which one a load must fill."""
        live = cur = self._live_buf()
        solver = self.node.solver
        if solver.aa_odd and self.aa:
            # Mid-pair AA: the single shared array holds the rotated
            # layout.  Stage the canonical read-only reconstruction
            # into the (otherwise unused) spare buffer so the
            # coordinator reads ordinary distributions.
            cur = 1
            self.segs.interior(cur)[...] = solver.f
        # else: the distributions already live in the shared buffer.
        return {"cur": cur, "live": live}

    def _load(self) -> dict:
        """Take over the interior the coordinator just wrote in place
        through shared memory: only the AA phase origin needs re-basing
        onto the canonical state."""
        self.node.solver.mark_canonical()
        return {}

    def _trace(self, enabled: bool) -> dict:
        """Set the recorder's tracing flag; replies with this process's
        clock.

        The coordinator timestamps the command round-trip and uses the
        returned ``perf_counter`` reading to estimate this worker's one
        clock offset (midpoint method, ``ProcessBackend.clock_offset``),
        so absorbed events and heartbeats land on the coordinator
        timeline.  On Linux ``perf_counter`` is the shared
        ``CLOCK_MONOTONIC``, making the offset ~0; the handshake keeps
        the re-basing correct where it is not.  A baseline heartbeat
        goes out too, so the watchdog never sees an all-zero strip.
        """
        self.recorder.tracing = bool(enabled)
        self._heartbeat(False)
        return {"now": time.perf_counter()}

    def run(self) -> None:
        parent = os.getppid()
        try:
            node = self.node
            self.conn.send(("ready", self.spec.rank, {
                "kernel_used": node.kernel_used, "kernel_reason": node.kernel_reason,
                "solid_fraction": float(node.solid_fraction)}))
            while True:
                # Poll so an orphaned worker notices its coordinator
                # vanished instead of blocking on the pipe forever.
                if not self.conn.poll(1.0):
                    if os.getppid() != parent:
                        return
                    continue
                try:
                    msg = self.conn.recv()
                except EOFError:
                    return
                cmd = msg[0]
                if cmd == "shutdown":
                    self.conn.send(("bye", self.spec.rank))
                    return
                try:
                    if self.broken and cmd == "step":
                        raise RuntimeError(
                            f"worker rank {self.spec.rank} is broken: "
                            f"{self.broken}")
                    if cmd == "step":
                        payload = self._step(msg[1])
                    elif cmd == "gather":
                        payload = self._gather()
                    elif cmd == "load":
                        payload = self._load()
                    elif cmd == "trace":
                        payload = self._trace(msg[1])
                    else:
                        raise ValueError(f"unknown command {cmd!r}")
                except BrokenBarrierError:
                    self.conn.send(("error", self.spec.rank, self.broken))
                except Exception as exc:  # noqa: BLE001 - forwarded whole
                    self.conn.send(("error", self.spec.rank,
                                    f"{type(exc).__name__}: {exc}"))
                else:
                    self.conn.send(("done", self.spec.rank, payload))
        finally:
            for segs in self.peer_mail.values():
                segs.close(unlink=False)
            self.segs.close(unlink=False)
            try:
                self.conn.close()
            except Exception:
                pass


def _worker_main(spec: WorkerSpec, conn, barrier) -> None:
    """Module-level entry point (picklable under the spawn method)."""
    _Worker(spec, conn, barrier).run()


@dataclass
class _Failure:
    rank: int
    reason: str


class ProcessBackend:
    """Coordinator handle for the persistent worker pool.

    The driver owns exactly one of these when
    ``ClusterConfig.backend == "processes"``; all methods are
    synchronous (a command is sent to every worker and all replies are
    awaited), so shared buffers are never read or written concurrently
    by both sides.
    """

    def __init__(self, decomp, node_args: list[dict]) -> None:
        """Spawn one worker per rank of ``decomp``; rank ``r``'s worker
        builds its :class:`~repro.core.cpu_node.CPUNode` from
        ``node_args[r]``."""
        self.n_ranks = decomp.n_nodes
        self.broken: str | None = None
        self._closed = False
        self.token = unique_token()
        ctx = _mp_context()
        self.barrier = ctx.Barrier(self.n_ranks)
        self.segments: list[RankSegments] = []
        self.procs: list[mp.Process] = []
        self.conns = []
        self.proxies = [RankProxy(r) for r in range(self.n_ranks)]
        self._clock_offsets = [0.0] * self.n_ranks
        #: The tracing flag last sent to the workers.
        self.tracing = False
        # Per-rank block shapes: equal boxes by default, but non-uniform
        # cuts size each rank's segments independently.
        sub_shapes = tuple(a["sub_shape"] for a in node_args)
        mail_names = tuple(segment_name(self.token, "mail", r)
                           for r in range(self.n_ranks))
        try:
            for rank in range(self.n_ranks):
                self.segments.append(RankSegments.create(
                    rank, sub_shapes[rank], D3Q19.Q, self.token))
            all_names = [name for seg in self.segments
                         for name in seg.names.values()]
            self._finalizer = weakref.finalize(
                self, _crash_cleanup, list(self.procs), all_names)
            for rank, args in enumerate(node_args):
                spec = WorkerSpec(
                    rank=rank, node_args=args,
                    neighbors=decomp.neighbors(rank),
                    periodic=decomp.periodic,
                    seg_names=self.segments[rank].names,
                    mail_names=mail_names, peer_sub_shapes=sub_shapes)
                parent_conn, child_conn = ctx.Pipe()
                proc = ctx.Process(target=_worker_main,
                                   args=(spec, child_conn, self.barrier),
                                   name=f"lbm-rank{rank}", daemon=True)
                proc.start()
                child_conn.close()
                self.conns.append(parent_conn)
                self.procs.append(proc)
            # The finalizer captured an empty proc list above; refresh.
            self._finalizer.detach()
            self._finalizer = weakref.finalize(
                self, _crash_cleanup, list(self.procs), all_names)
            # Each rank's kernel is fixed at construction: reported once.
            for proxy, ready in zip(self.proxies, self._await_all()):
                for name, value in ready.items():
                    setattr(proxy, name, value)
        except Exception:
            self.shutdown()
            raise

    # -- low-level messaging --------------------------------------------
    def _require_usable(self) -> None:
        if self._closed:
            raise RuntimeError(
                "process backend has been shut down; create a new driver")
        if self.broken:
            raise RuntimeError(
                f"process backend is broken ({self.broken}); "
                "shut the driver down and create a new one")

    def _broadcast(self, msg: tuple) -> None:
        for rank, conn in enumerate(self.conns):
            try:
                conn.send(msg)
            except (BrokenPipeError, OSError):
                self._fail_fast([_Failure(rank, "pipe closed (worker died)")])

    def _await_all(self) -> list[dict]:
        """Collect one reply per rank; abort loudly if any rank dies.

        A dead worker is detected by process liveness, not by waiting
        out the barrier timeout: the coordinator aborts the shared
        barrier so surviving ranks fail fast, then aggregates every
        rank's failure into one error (the ``SimCluster.run`` shape).
        """
        payloads: list[dict | None] = [None] * self.n_ranks
        pending = set(range(self.n_ranks))
        failures: list[_Failure] = []
        aborted = False
        deadline = time.monotonic() + TIMEOUT_S
        while pending:
            progressed = False
            for rank in sorted(pending):
                conn = self.conns[rank]
                try:
                    has_msg = conn.poll(0.02)
                except (OSError, EOFError):
                    has_msg = False
                if has_msg:
                    try:
                        msg = conn.recv()
                    except (EOFError, OSError):
                        failures.append(_Failure(
                            rank, "connection lost (worker died)"))
                        pending.discard(rank)
                        progressed = True
                        continue
                    kind = msg[0]
                    if kind == "error":
                        failures.append(_Failure(rank, msg[2]))
                    elif kind in ("done", "ready", "bye"):
                        payloads[rank] = msg[2] if len(msg) > 2 else {}
                    pending.discard(rank)
                    progressed = True
                elif not self.procs[rank].is_alive():
                    code = self.procs[rank].exitcode
                    failures.append(_Failure(
                        rank, f"worker died (exit code {code})"))
                    pending.discard(rank)
                    progressed = True
            if failures and not aborted:
                # Release peers blocked on the shared barrier so they
                # report instead of hanging out their full timeout.
                aborted = True
                try:
                    self.barrier.abort()
                except Exception:
                    pass
                deadline = time.monotonic() + 5.0
            if pending and not progressed and time.monotonic() > deadline:
                for rank in sorted(pending):
                    failures.append(_Failure(
                        rank, f"no reply within {TIMEOUT_S:g}s (hung)"))
                pending.clear()
        if failures:
            self._fail_fast(failures)
        return payloads  # type: ignore[return-value]

    def _fail_fast(self, failures: list[_Failure]) -> None:
        self.broken = "; ".join(f"rank {f.rank}: {f.reason}"
                                for f in failures)
        raise RuntimeError(f"process backend failed: {self.broken}")

    def _command(self, msg: tuple) -> list[dict]:
        self._require_usable()
        self._broadcast(msg)
        return self._await_all()

    # -- driver-facing API ----------------------------------------------
    def step(self, n: int) -> list[dict]:
        """Advance all ranks ``n`` steps; returns per-rank reply dicts."""
        payloads = self._command(("step", int(n)))
        for proxy, payload in zip(self.proxies, payloads):
            proxy.compute_s = payload["compute_s"]
            proxy.agp_s = payload["agp_s"]
            proxy.overlap_window_s = payload["overlap_window_s"]
        return payloads

    def gather_parts(self) -> list[np.ndarray]:
        """Per-rank interior distribution blocks, read straight out of
        the shared ``fg`` buffers (zero-copy views — consume before
        ``shutdown``)."""
        payloads = self._command(("gather",))
        return [seg.interior(p["cur"])
                for seg, p in zip(self.segments, payloads)]

    def load_parts(self, parts: list[np.ndarray]) -> None:
        """Scatter per-rank interior blocks into the workers' solvers.

        Workers are idle between commands, so writing the shared
        interior directly is race-free and copy-free; every rank then
        takes the new state over (AA ranks re-base their phase).
        """
        payloads = self._command(("gather",))
        for seg, part, p in zip(self.segments, parts, payloads):
            seg.interior(p["live"])[...] = part
        self._command(("load",))

    def set_tracing(self, enabled: bool) -> None:
        """Set every worker recorder's tracing flag and sync the clocks.

        Each worker replies with its own ``perf_counter`` reading; the
        midpoint of the command round-trip estimates its clock offset
        (error bounded by half the round-trip).  Every call refreshes
        the one per-worker offset that :meth:`clock_offset` serves.
        """
        t_send = time.perf_counter()
        payloads = self._command(("trace", bool(enabled)))
        t_recv = time.perf_counter()
        self._clock_offsets = [estimate_clock_offset(t_send, t_recv, p["now"])
                               for p in payloads]
        self.tracing = bool(enabled)

    def clock_offset(self, rank: int) -> float:
        """Coordinator-clock offset of ``rank``'s worker: re-bases its
        drained events and its shared-memory heartbeat timestamps
        (:meth:`read_health`) onto the coordinator timeline, so spans
        and watchdog ages are comparable across processes."""
        return self._clock_offsets[rank]

    def read_health(self) -> list[dict]:
        """Live per-rank heartbeat rows, re-based to the coordinator clock.

        Reads the shared health strips directly — no pipe traffic and
        no worker cooperation required, so this is safe to call from
        any thread while a step command is outstanding (the whole point
        of a watchdog).  Ranks that never heartbeat are omitted.
        """
        rows = []
        for rank, seg in enumerate(self.segments):
            strip = seg.health
            if strip is None or strip[0] == 0.0:
                continue
            rows.append({
                "rank": rank,
                "hb_time": float(strip[0]) + self.clock_offset(rank),
                "step": int(strip[1]),
                "busy": bool(strip[2]),
                "step_seconds": float(strip[3]),
                "rss_bytes": int(strip[4]),
            })
        return rows

    def worker_pids(self) -> list[int | None]:
        return [p.pid for p in self.procs]

    # -- lifecycle -------------------------------------------------------
    def shutdown(self) -> None:
        """Stop workers and unlink every shared segment (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for rank, conn in enumerate(self.conns):
            if self.procs[rank].is_alive():
                try:
                    conn.send(("shutdown",))
                except Exception:
                    pass
        deadline = time.monotonic() + 5.0
        for proc in self.procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=5.0)
        for conn in self.conns:
            try:
                conn.close()
            except Exception:
                pass
        for seg in self.segments:
            seg.close(unlink=True)
        if getattr(self, "_finalizer", None) is not None:
            self._finalizer.detach()


def _crash_cleanup(procs, segment_names) -> None:
    """Finalizer: last-resort teardown for never-shut-down backends."""
    for proc in procs:
        try:
            if proc.is_alive():
                proc.terminate()
        except Exception:
            pass
    unlink_segment_names(segment_names)
