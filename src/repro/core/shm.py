"""Shared-memory layout for the process-parallel cluster backend.

The ``backend="processes"`` driver (``repro.core.procpool``) runs one
persistent worker process per cluster rank.  Bulk lattice data never
crosses a pipe: every rank's distribution arrays and per-neighbour halo
mailboxes live in :mod:`multiprocessing.shared_memory` segments, and
both sides work on zero-copy :class:`numpy.ndarray` views of the same
pages.  Pipes carry only small control tuples (step commands, timing
scalars, counter summaries).

Every rank is a CPU rank and gets three segments, ``fg``, ``mail``
and ``health`` (:meth:`RankSegments.create`); every page a rank owns
is one its worker writes.

``fg`` (float32)
    Two ghost-padded distribution buffers, shape
    ``(2, Q, nx+2, ny+2, nz+2)`` — the worker rebinds its solver's
    distributions onto views of this segment, so the coordinator can
    gather the interior without any worker round-trip.  Buffer 0 holds
    the live array; buffer 1 is the ``split`` kernel's streaming
    target, or the AA kernel's odd-parity gather stage.

``mail`` (float32)
    The halo mailboxes: for each axis, ``(2 slots, 2 dirs, L, *face)``
    where ``face`` is the padded cross-section perpendicular to the
    axis and ``L`` is :data:`MAIL_LINKS` (5): a mailbox *is* the
    neighbor's single message, and only the links streaming across
    the face travel.  ``dirs`` indexes the outgoing face (-1 -> 0,
    +1 -> 1); a slot's two directions are adjacent, so a both-sides
    message (periodic extent-2 axes) is the slot's whole contiguous
    block and a single-side message is its half
    (:meth:`RankSegments.mailbox`).  ``slots`` is double buffering by
    step parity: a rank may pack its step-``t`` borders into slot
    ``t % 2`` while a slower neighbour is still unpacking slot
    ``(t - 1) % 2``, which is what lets the exchange run with a single
    barrier per axis (between pack and unpack) and none between steps.

``health``
    A tiny float64 heartbeat strip of :data:`HEALTH_SLOTS` scalars
    (``hb_time, step, busy, step_seconds, rss_bytes``) the worker
    updates at step boundaries and the coordinator's
    telemetry watchdog reads *at any time* — including while a step
    command is outstanding, which is what makes live stall detection
    possible over a synchronous pipe protocol.  Single writer, aligned
    8-byte scalar slots: a torn read is at worst one transiently stale
    value, never corruption.

A new segment reads all-zero without being written: POSIX shared
memory is sized by ``ftruncate``, which zero-fills (and the Windows
pagefile mapping is zero-initialised too).  The ghosts of a fresh
``fg`` buffer and the mailboxes rely on that, so the coordinator
writes nothing at creation and faults in none of these pages; each
page becomes resident only when its owner first writes it.

Segment names carry the creating process id
(``reproshm-<pid>-<token>-<kind><rank>``) so tests and the
``python -m repro check`` gate can assert that a driver's
shutdown left nothing behind in ``/dev/shm`` (:func:`leaked_segments`).
"""

from __future__ import annotations

import os
import secrets
from multiprocessing import shared_memory
from pathlib import Path

import numpy as np

#: Prefix of every segment this module creates.
SEGMENT_PREFIX = "reproshm"

#: dtype of all shared lattice data (matches the solvers).
SHM_DTYPE = np.dtype(np.float32)

#: Links per mailbox: only the five D3Q19 distributions streaming
#: across a face travel.
MAIL_LINKS = 5

#: Scalar slots in the per-rank health segment (see module docstring):
#: ``hb_time, step, busy, step_seconds, rss_bytes``.
HEALTH_SLOTS = 5

#: dtype of the health heartbeat strip — float64 so perf_counter
#: timestamps keep full precision and each slot is one aligned 8-byte
#: store.
HEALTH_DTYPE = np.dtype(np.float64)


def unique_token() -> str:
    """A short collision-resistant token for one driver's segments."""
    return secrets.token_hex(4)


def segment_name(token: str, kind: str, rank: int) -> str:
    """Canonical segment name (also the /dev/shm file name on Linux)."""
    return f"{SEGMENT_PREFIX}-{os.getpid()}-{token}-{kind}{rank}"


def shm_root() -> Path | None:
    """Directory where POSIX shared memory appears, if inspectable."""
    root = Path("/dev/shm")
    return root if root.is_dir() else None


def leaked_segments(pid: int | None = None) -> list[str]:
    """Names of this module's segments still present in /dev/shm.

    With ``pid`` (default: current process) only segments created by
    that process are reported, so concurrent runs don't cross-talk.
    Returns ``[]`` on platforms without an inspectable shm directory.
    """
    root = shm_root()
    if root is None:
        return []
    prefix = f"{SEGMENT_PREFIX}-{os.getpid() if pid is None else pid}-"
    return sorted(p.name for p in root.iterdir() if p.name.startswith(prefix))


def _attach_untracks() -> bool:
    """Whether an attaching process must unregister from its tracker.

    Fork children share the coordinator's resource tracker, where
    registration is set-idempotent and the creator's ``unlink`` must
    remain the only unregister.  Spawn children run their *own*
    tracker, which would otherwise unlink segments it does not own
    when the child exits — those must untrack after attaching.
    """
    import multiprocessing as mp
    try:
        return mp.get_start_method(allow_none=True) == "spawn"
    except Exception:  # pragma: no cover - defensive
        return False


def attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without tracker double-accounting.

    Only the creating coordinator owns the segment lifetime; see
    :func:`_attach_untracks` for why spawn children unregister.
    """
    seg = shared_memory.SharedMemory(name=name)
    if _attach_untracks():
        try:  # pragma: no cover - tracker internals vary across versions
            from multiprocessing import resource_tracker
            resource_tracker.unregister(seg._name, "shared_memory")
        except Exception:
            pass
    return seg


# ---------------------------------------------------------------------------
# layout


def padded_shape(sub_shape, q: int) -> tuple[int, ...]:
    """Ghost-padded distribution shape ``(Q, nx+2, ny+2, nz+2)``."""
    return (q,) + tuple(int(s) + 2 for s in sub_shape)


def mail_shape(sub_shape, axis: int) -> tuple[int, ...]:
    """One axis's mailboxes: ``(2 slots, 2 dirs, MAIL_LINKS, *face)``
    over the padded cross-section."""
    return ((2, 2, MAIL_LINKS)
            + tuple(int(s) + 2 for a, s in enumerate(sub_shape) if a != axis))


class RankSegments:
    """One rank's shared segments plus the ndarray views into them.

    Create on the coordinator with :meth:`create` (which owns unlink),
    attach inside the worker with :meth:`attach` using the published
    ``names`` (a peer attaches only the ``mail`` one).  Views:

    ``fg_bufs``
        ``(buf0, buf1)`` padded distribution buffers.
    ``mail``
        ``[axis] -> array(2 slots, 2 dirs, MAIL_LINKS, *face)``.
    ``health``
        ``(HEALTH_SLOTS,)`` float64 heartbeat strip.
    """

    def __init__(self, sub_shape, q: int, names: dict[str, str],
                 owner: bool) -> None:
        self.sub_shape = tuple(int(s) for s in sub_shape)
        self.q = int(q)
        self.names = dict(names)
        self.owner = bool(owner)
        self._segs: dict[str, shared_memory.SharedMemory] = {}
        self._closed = False
        try:
            for kind, name in self.names.items():
                if owner:
                    # Zero-filled by the OS (module docstring): no
                    # write here, so no page is faulted in.
                    self._segs[kind] = shared_memory.SharedMemory(
                        name=name, create=True, size=self._nbytes(kind))
                else:
                    self._segs[kind] = attach_segment(name)
        except Exception:
            self.close(unlink=owner)
            raise
        self.fg_bufs = self._fg_views()
        self.mail = self._mail_views()
        self.health = self._health_view()

    # -- sizes and views -------------------------------------------------
    def _nbytes(self, kind: str) -> int:
        if kind == "fg":
            return 2 * int(np.prod(padded_shape(self.sub_shape, self.q))) \
                * SHM_DTYPE.itemsize
        if kind == "mail":
            return sum(int(np.prod(mail_shape(self.sub_shape, axis)))
                       for axis in range(3)) * SHM_DTYPE.itemsize
        if kind == "health":
            return HEALTH_SLOTS * HEALTH_DTYPE.itemsize
        raise ValueError(f"unknown segment kind {kind!r}")

    def _fg_views(self) -> tuple[np.ndarray, np.ndarray] | None:
        seg = self._segs.get("fg")
        if seg is None:
            return None
        arr = np.ndarray((2,) + padded_shape(self.sub_shape, self.q),
                         dtype=SHM_DTYPE, buffer=seg.buf)
        return arr[0], arr[1]

    def _mail_views(self) -> list[np.ndarray]:
        seg = self._segs["mail"]
        out = []
        offset = 0
        for axis in range(3):
            shape = mail_shape(self.sub_shape, axis)
            out.append(np.ndarray(shape, dtype=SHM_DTYPE, buffer=seg.buf,
                                  offset=offset))
            offset += int(np.prod(shape)) * SHM_DTYPE.itemsize
        return out

    def mailbox(self, axis: int, slot: int, sides) -> np.ndarray:
        """Flat view of one message's mailbox: the slot's whole block
        for a both-sides message, one direction's half otherwise."""
        box = self.mail[axis][slot]
        if len(sides) == 1:
            box = box[(sides[0] + 1) // 2]
        return box.reshape(-1)

    def _health_view(self) -> np.ndarray | None:
        seg = self._segs.get("health")
        if seg is None:
            return None
        return np.ndarray((HEALTH_SLOTS,), dtype=HEALTH_DTYPE,
                          buffer=seg.buf)

    def interior(self, buf_index: int) -> np.ndarray:
        """Interior (unpadded) view of one fg buffer."""
        fg = self.fg_bufs[buf_index]
        return fg[(slice(None),) + (slice(1, -1),) * 3]

    # -- lifecycle -------------------------------------------------------
    def close(self, unlink: bool | None = None) -> None:
        """Drop the views and close (and, for the owner, unlink) segments."""
        if self._closed:
            return
        self._closed = True
        # Views hold exported buffers; releasing them first lets close()
        # succeed without BufferError.
        self.fg_bufs = None
        self.mail = []
        self.health = None
        do_unlink = self.owner if unlink is None else unlink
        for seg in self._segs.values():
            try:
                seg.close()
            except Exception:
                pass
            if do_unlink:
                try:
                    seg.unlink()
                except FileNotFoundError:
                    pass
                except Exception:
                    pass
        self._segs = {}

    @classmethod
    def create(cls, rank: int, sub_shape, q: int,
               token: str) -> "RankSegments":
        """A rank's ``fg``, ``mail`` and ``health`` segments."""
        names = {kind: segment_name(token, kind, rank)
                 for kind in ("fg", "mail", "health")}
        return cls(sub_shape, q, names, owner=True)

    @classmethod
    def attach(cls, names: dict[str, str], sub_shape,
               q: int) -> "RankSegments":
        return cls(sub_shape, q, names, owner=False)


def unlink_segment_names(names) -> None:
    """Best-effort unlink of segments by name (crash-path cleanup).

    Used by the backend's :mod:`weakref` finalizer so that a driver
    that was never shut down still does not leak /dev/shm entries at
    interpreter exit.
    """
    for name in names:
        try:
            seg = shared_memory.SharedMemory(name=name)
        except FileNotFoundError:
            continue
        except Exception:
            continue
        try:
            seg.close()
            seg.unlink()
        except Exception:
            pass
