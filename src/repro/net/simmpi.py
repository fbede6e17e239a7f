"""SimMPI — an in-process, thread-per-rank message-passing layer.

The paper "use[s] MPI for data transfer across the network during
execution" (Sec 3).  With no multi-host cluster available, SimMPI runs
each rank as a thread and carries numpy buffers through in-memory
mailboxes, while a :class:`~repro.net.switch.GigabitSwitch` advances
per-rank *simulated clocks* so communication costs match the modeled
network.

The API follows the mpi4py idioms the guides recommend: upper-case
``Send``/``Recv`` take numpy arrays (buffer-like, copied exactly once
at the send side, as a real MPI would serialize them), and collectives
(`barrier`, `allreduce`, `gather`, `bcast`, `alltoall`) synchronise the
simulated clocks the way a real implementation's semantics would.

Example
-------
>>> from repro.net import SimCluster
>>> def main(comm):
...     import numpy as np
...     data = np.full(4, comm.rank, dtype=np.float64)
...     right = (comm.rank + 1) % comm.size
...     left = (comm.rank - 1) % comm.size
...     got = comm.sendrecv(data, dest=right, source=left)
...     return float(got[0])
>>> SimCluster(4).run(main)
[3.0, 0.0, 1.0, 2.0]
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.net.switch import GigabitSwitch
from repro.perf import calibration as cal
from repro.perf.recorder import NULL_RECORDER, Recorder

#: Per-rank cost of one barrier (flat-tree MPI over TCP), multiplied by
#: log2(size); small against the calibrated message costs.
BARRIER_BASE_S = 0.5e-3


@dataclass
class _Envelope:
    payload: np.ndarray
    arrival_s: float


class _Mailboxes:
    """Tag- and peer-addressed mailboxes shared by all ranks.

    A plain dict keyed by ``(src, dst, tag)``: probing a key never
    materialises a mailbox, and a deque drained to empty is dropped, so
    the table stays bounded by the number of in-flight messages (a
    ``defaultdict`` here grows by one empty deque per key ever probed).
    """

    def __init__(self) -> None:
        self._boxes: dict[tuple[int, int, int], deque] = {}
        self._cond = threading.Condition()

    def put(self, src: int, dst: int, tag: int, env: _Envelope) -> None:
        with self._cond:
            self._boxes.setdefault((src, dst, tag), deque()).append(env)
            self._cond.notify_all()

    def probe(self, src: int, dst: int, tag: int) -> bool:
        """True if a message is waiting (never allocates a mailbox)."""
        with self._cond:
            return bool(self._boxes.get((src, dst, tag)))

    def get(self, src: int, dst: int, tag: int, timeout: float) -> _Envelope:
        key = (src, dst, tag)
        with self._cond:
            ok = self._cond.wait_for(lambda: self._boxes.get(key), timeout=timeout)
            if not ok:
                raise TimeoutError(
                    f"rank {dst} timed out receiving from {src} (tag {tag})")
            box = self._boxes[key]
            env = box.popleft()
            if not box:
                del self._boxes[key]
            return env


class Request:
    """Handle for a nonblocking SimMPI operation (mpi4py-style).

    For a receive, :meth:`wait` blocks for the message, advances the
    owner's simulated clock to the arrival time priced by the switch,
    and returns the payload — so any ``compute`` the rank performed
    between ``Irecv`` and ``wait`` genuinely hides network time, which
    is exactly the paper's Sec-4.4 overlap.  Send requests complete
    immediately (the NIC drains in the background) and ``wait`` returns
    None.
    """

    __slots__ = ("_comm", "_source", "_tag", "_done", "_payload")

    def __init__(self, comm: "SimComm", source: int | None = None,
                 tag: int = 0) -> None:
        self._comm = comm
        self._source = source
        self._tag = tag
        self._done = source is None
        self._payload = None

    def test(self) -> bool:
        """True if :meth:`wait` would not block."""
        if self._done:
            return True
        return self._comm._cluster.mail.probe(self._source, self._comm.rank,
                                              self._tag)

    def wait(self):
        """Complete the operation; returns the payload (None for sends)."""
        if self._done:
            return self._payload
        comm = self._comm
        env = comm._cluster.mail.get(self._source, comm.rank, self._tag,
                                     timeout=comm._cluster.timeout_s)
        comm.clock_s = max(comm.clock_s, env.arrival_s)
        self._payload = env.payload
        self._done = True
        return self._payload


class SimComm:
    """Per-rank communicator handle (one per thread)."""

    def __init__(self, cluster: "SimCluster", rank: int) -> None:
        self._cluster = cluster
        self.rank = rank
        self.size = cluster.size
        self.clock_s = 0.0

    # -- local time -------------------------------------------------------
    def compute(self, seconds: float) -> None:
        """Advance this rank's simulated clock by modeled work."""
        if seconds < 0:
            raise ValueError("negative compute time")
        self.clock_s += seconds

    # -- point to point -----------------------------------------------------
    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Blocking buffer send; advances the sender past the transfer."""
        arr = np.ascontiguousarray(array)
        start, end = self._cluster.switch.reserve(dest, self.clock_s, arr.nbytes)
        self.clock_s = end
        self._cluster.recorder.message(self.rank, dest, tag, arr.nbytes,
                                     start, end)
        self._cluster.mail.put(self.rank, dest, tag,
                               _Envelope(arr.copy(), arrival_s=end))

    def Recv(self, source: int, tag: int = 0) -> np.ndarray:
        """Blocking receive; the receiver's clock advances to arrival."""
        env = self._cluster.mail.get(source, self.rank, tag,
                                     timeout=self._cluster.timeout_s)
        self.clock_s = max(self.clock_s, env.arrival_s)
        return env.payload

    def Isend(self, array: np.ndarray, dest: int, tag: int = 0) -> Request:
        """Non-blocking send: the payload leaves now, the sender only
        pays the envelope overhead (the NIC DMAs in the background)."""
        arr = np.ascontiguousarray(array)
        start, end = self._cluster.switch.reserve(dest, self.clock_s, arr.nbytes)
        self.clock_s += cal.NET_STEP_OVERHEAD_S
        self._cluster.recorder.message(self.rank, dest, tag, arr.nbytes,
                                     start, end)
        self._cluster.mail.put(self.rank, dest, tag,
                               _Envelope(arr.copy(), arrival_s=end))
        return Request(self)

    def Irecv(self, source: int, tag: int = 0) -> Request:
        """Non-blocking receive: posting is free; the clock only
        advances to the switch-priced arrival at ``Request.wait``, so
        compute performed in between overlaps the transfer."""
        return Request(self, source=source, tag=tag)

    def Waitall(self, requests) -> list:
        """Complete every request; returns their payloads in order."""
        return [req.wait() for req in requests]

    def sendrecv(self, array: np.ndarray, dest: int, source: int | None = None,
                 tag: int = 0) -> np.ndarray:
        """Simultaneous exchange (the Fig-7 pairwise primitive).

        Full duplex: the send and the receive overlap, so the cost is a
        single message time, not two.
        """
        if source is None:
            source = dest
        arr = np.ascontiguousarray(array)
        start, end = self._cluster.switch.reserve(dest, self.clock_s, arr.nbytes)
        self._cluster.recorder.message(self.rank, dest, tag, arr.nbytes,
                                     start, end)
        self._cluster.mail.put(self.rank, dest, tag, _Envelope(arr.copy(), end))
        env = self._cluster.mail.get(source, self.rank, tag,
                                     timeout=self._cluster.timeout_s)
        self.clock_s = max(end, env.arrival_s)
        return env.payload

    # -- collectives ----------------------------------------------------
    def _coll_hops(self) -> int:
        """Tree depth of a collective: 0 on a single rank (a collective
        with no peers touches no wire and must cost no network time)."""
        return int(np.ceil(np.log2(self.size))) if self.size > 1 else 0

    def barrier(self) -> None:
        """Synchronise all ranks; clocks advance to the global maximum
        plus the modeled barrier cost."""
        cost = BARRIER_BASE_S * max(1, self._coll_hops()) if self.size > 1 else 0.0
        t, _ = self._cluster._collective_sync(self.clock_s)
        self.clock_s = t + cost

    def allreduce(self, value, op=np.add):
        """Reduce a scalar/array across ranks; everyone gets the result."""
        t, vals = self._cluster._collective_sync(self.clock_s,
                                                 payload=(self.rank, value))
        ordered = [v for _, v in sorted(vals, key=lambda p: p[0])]
        out = ordered[0]
        for v in ordered[1:]:
            out = op(out, v)
        self.clock_s = t + self._msg_cost_for(out) * self._coll_hops()
        return out

    def gather(self, value, root: int = 0):
        """Gather per-rank values to ``root`` (None elsewhere)."""
        t, vals = self._cluster._collective_sync(self.clock_s,
                                                 payload=(self.rank, value))
        self.clock_s = t + (self._msg_cost_for(value) if self.size > 1 else 0.0)
        if self.rank == root:
            return [v for _, v in sorted(vals, key=lambda p: p[0])]
        return None

    def allgather(self, value):
        """Gather per-rank values everywhere."""
        t, vals = self._cluster._collective_sync(self.clock_s,
                                                 payload=(self.rank, value))
        self.clock_s = t + self._msg_cost_for(value) * self._coll_hops()
        return [v for _, v in sorted(vals, key=lambda p: p[0])]

    def bcast(self, value, root: int = 0):
        """Broadcast ``value`` from ``root``."""
        t, vals = self._cluster._collective_sync(self.clock_s,
                                                 payload=(self.rank, value))
        out = dict(vals)[root]
        self.clock_s = t + self._msg_cost_for(out) * self._coll_hops()
        return out

    def _msg_cost_for(self, value) -> float:
        nbytes = value.nbytes if hasattr(value, "nbytes") else 8
        return self._cluster.switch.message_time(nbytes)


class SimCluster:
    """Run an SPMD function on ``size`` simulated ranks.

    Parameters
    ----------
    size:
        Number of ranks (nodes).
    switch:
        Shared :class:`GigabitSwitch`; a fresh one by default.
    timeout_s:
        Wall-clock receive timeout — turns deadlocks into errors.
    """

    def __init__(self, size: int, switch: GigabitSwitch | None = None,
                 timeout_s: float = 60.0,
                 recorder: Recorder | None = None) -> None:
        if size < 1:
            raise ValueError("size must be >= 1")
        self.size = size
        self.switch = switch if switch is not None else GigabitSwitch()
        #: Recorder of the run: while it traces, every Send/Isend/
        #: sendrecv records a simulated-clock message event (src, dst,
        #: tag, bytes, switch-priced start/end); SPMD rank programs
        #: record their regions on per-rank views of it.
        self.recorder = recorder if recorder is not None else NULL_RECORDER
        self.mail = _Mailboxes()
        self.timeout_s = timeout_s
        self._barrier = threading.Barrier(size)
        self._sync_lock = threading.Lock()
        self._sync_max = 0.0
        self._payloads: list = []

    def _collective_sync(self, clock_s: float, payload=None) -> tuple[float, list]:
        """Internal rendezvous: accumulate clocks/payloads, wait for all
        ranks, snapshot, then reset for the next collective.  Returns
        ``(max_clock, payload_snapshot)``."""
        with self._sync_lock:
            self._sync_max = max(self._sync_max, clock_s)
            if payload is not None:
                self._payloads.append(payload)
        self._barrier.wait()
        t = self._sync_max
        vals = list(self._payloads)
        self._barrier.wait()
        # Every thread resets (idempotent); the barriers around the reset
        # guarantee no thread is still reading / already accumulating.
        with self._sync_lock:
            self._sync_max = 0.0
            self._payloads = []
        self._barrier.wait()
        return t, vals

    def run(self, main, *args) -> list:
        """Execute ``main(comm, *args)`` on every rank; returns a list
        of per-rank results.

        Failure semantics: *every* rank's real exception (anything but
        the ``BrokenBarrierError`` fallout of another rank's abort) is
        collected into one aggregated :class:`RuntimeError`, chained
        from the first of them; ranks that neither return nor raise
        within the join deadline raise instead of leaving ``None``
        results behind silently.  The cluster resets its barrier, sync
        and mailbox state on entry, so it remains usable after a failed
        run.
        """
        # A failed run leaves the barrier aborted and possibly stale
        # sync/mailbox state behind; reset so the cluster is reusable.
        self._barrier = threading.Barrier(self.size)
        self._sync_max = 0.0
        self._payloads = []
        self.mail = _Mailboxes()

        results: list = [None] * self.size
        errors: list = [None] * self.size
        comms = [SimComm(self, r) for r in range(self.size)]
        barrier = self._barrier

        def runner(r: int) -> None:
            try:
                results[r] = main(comms[r], *args)
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors[r] = exc
                # Unblock peers waiting on this rank.
                barrier.abort()

        threads = [threading.Thread(target=runner, args=(r,), daemon=True)
                   for r in range(self.size)]
        for t in threads:
            t.start()
        deadline = time.monotonic() + self.timeout_s * 2
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
        hung = [r for r, t in enumerate(threads) if t.is_alive()]
        real = [(r, e) for r, e in enumerate(errors)
                if e is not None and not isinstance(e, threading.BrokenBarrierError)]
        broken = [(r, e) for r, e in enumerate(errors) if e is not None]
        failed = real or broken
        if failed:
            parts = [f"rank {r} failed: {err!r}" for r, err in failed]
            if hung:
                parts.append(f"ranks {hung} still running at join deadline")
            raise RuntimeError("; ".join(parts)) from failed[0][1]
        if hung:
            raise RuntimeError(
                f"ranks {hung} hung: no result or exception within "
                f"{self.timeout_s * 2:.1f}s join deadline")
        self.clocks = [c.clock_s for c in comms]
        return results
