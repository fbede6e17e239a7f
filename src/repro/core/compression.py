"""Lossless compression of halo traffic — the Sec 4.3 open idea.

"Another idea that we have not yet studied is to employ lossless
compression of transferred data by exploiting space coherence or data
coherence between computation steps."

This module implements and evaluates exactly that:

* **temporal delta prediction** — the border distributions change
  slowly between steps, so transmitting the difference against the
  previous step concentrates the float32 bit patterns (data coherence
  between computation steps).  The difference is taken between the raw
  *bit patterns* (uint32, mod-2^32 wrap), not between float values:
  float subtraction ``(a - p) + p`` is only bit-exact under
  Sterbenz-like conditions, while the integer form round-trips exactly
  for every input — a wire codec must never depend on the data being
  friendly;
* **spatial transposition** — grouping the 4 bytes of each float by
  significance across the face (space coherence) so the entropy coder
  sees long runs of near-identical exponent bytes;
* a **DEFLATE** entropy stage (zlib, the natural 2004-era choice).

:class:`HaloCompressor` is a real codec (compress/decompress round-trip
is exact and tested); :func:`compression_whatif` feeds the *measured*
ratio and the modeled compression CPU cost back into the cluster
timing model to answer the paper's open question — including the catch
that 2004-era DEFLATE throughput can eat the bandwidth it saves.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

#: Modeled single-core DEFLATE throughput on the cluster's Xeon 2.4 GHz
#: (level-1 zlib, ~2004): compression ~40 MB/s, decompression ~120 MB/s.
COMPRESS_BYTES_PER_S = 40e6
DECOMPRESS_BYTES_PER_S = 120e6

#: Wire-format sequence header on delta payloads (little-endian u64).
_SEQ_HEADER_BYTES = 8


class DeltaDesyncError(RuntimeError):
    """Sender/receiver delta histories no longer match.

    Delta mode is stateful: payload ``t`` decodes correctly only
    against the reconstruction of payload ``t-1``.  A dropped,
    duplicated or reordered message would otherwise corrupt every
    subsequent field *silently* — the arithmetic keeps working on the
    wrong base.  Each delta payload therefore carries a per-channel
    sequence number and a mismatch raises this error instead.
    """


def _byte_transpose(raw: bytes) -> bytes:
    """Group float32 bytes by significance position (space coherence)."""
    arr = np.frombuffer(raw, dtype=np.uint8)
    if arr.size % 4:
        return raw
    return arr.reshape(-1, 4).T.tobytes()


def _byte_untranspose(raw: bytes) -> bytes:
    arr = np.frombuffer(raw, dtype=np.uint8)
    if arr.size % 4:
        return raw
    return arr.reshape(4, -1).T.tobytes()


@dataclass
class CompressionStats:
    """Aggregate codec statistics."""

    raw_bytes: int = 0
    compressed_bytes: int = 0
    messages: int = 0

    @property
    def ratio(self) -> float:
        """compressed / raw (smaller is better)."""
        return (self.compressed_bytes / self.raw_bytes
                if self.raw_bytes else 1.0)


class HaloCompressor:
    """Per-channel lossless codec for halo messages.

    Parameters
    ----------
    mode:
        ``"delta"`` (temporal prediction + byte transpose + DEFLATE,
        the full Sec-4.3 idea), ``"plain"`` (transpose + DEFLATE only)
        or ``"none"``.
    level:
        zlib level (1 = the 2004-realistic fast setting).
    """

    MODES = ("delta", "plain", "none")

    def __init__(self, mode: str = "delta", level: int = 1) -> None:
        if mode not in self.MODES:
            raise ValueError(f"mode must be one of {self.MODES}")
        self.mode = mode
        self.level = int(level)
        self._previous: dict = {}
        self._tx_seq: dict = {}
        self._rx_seq: dict = {}
        self.stats = CompressionStats()

    def compress(self, key, array: np.ndarray) -> bytes:
        """Encode one halo message; ``key`` identifies the channel
        (sender, axis, side) so temporal deltas track each face."""
        arr = np.ascontiguousarray(array, dtype=np.float32)
        raw = arr.tobytes()
        self.stats.raw_bytes += len(raw)
        self.stats.messages += 1
        if self.mode == "none":
            self.stats.compressed_bytes += len(raw)
            return raw
        if self.mode == "delta":
            prev = self._previous.get(key)
            if prev is not None and prev.shape == arr.shape:
                # Bit-space delta: exact for any floats (incl. inf/NaN).
                payload_arr = arr.view(np.uint32) - prev.view(np.uint32)
            else:
                payload_arr = arr
            self._previous[key] = arr.copy()
            seq = self._tx_seq.get(key, 0)
            self._tx_seq[key] = seq + 1
            header = seq.to_bytes(_SEQ_HEADER_BYTES, "little")
            raw_payload = payload_arr.tobytes()
            out = header + zlib.compress(_byte_transpose(raw_payload),
                                         self.level)
        else:
            out = zlib.compress(_byte_transpose(raw), self.level)
        self.stats.compressed_bytes += len(out)
        return out

    def decompress(self, key, payload: bytes, shape) -> np.ndarray:
        """Decode one halo message (must mirror the sender's history)."""
        if self.mode == "none":
            return np.frombuffer(payload, dtype=np.float32).reshape(shape).copy()
        if self.mode == "delta":
            seq = int.from_bytes(payload[:_SEQ_HEADER_BYTES], "little")
            expected = self._rx_seq.get(key, 0)
            if seq != expected:
                raise DeltaDesyncError(
                    f"delta channel {key!r}: received sequence {seq}, "
                    f"expected {expected} — a halo message was "
                    "dropped, duplicated or reordered; the decoded "
                    "field would silently diverge")
            self._rx_seq[key] = expected + 1
            payload = payload[_SEQ_HEADER_BYTES:]
        raw = _byte_untranspose(zlib.decompress(payload))
        arr = np.frombuffer(raw, dtype=np.float32).reshape(shape).copy()
        if self.mode == "delta":
            rx_key = ("rx", key)
            prev = self._previous.get(rx_key)
            if prev is not None and prev.shape == arr.shape:
                bits = arr.view(np.uint32) + prev.view(np.uint32)
                arr = bits.view(np.float32)
            self._previous[rx_key] = arr.copy()
        return arr

    def resync(self, key=None) -> None:
        """Recover a delta channel after a :class:`DeltaDesyncError`.

        Drops the temporal-prediction base and re-keys the sequence
        numbers (both directions) so the next payload is a full frame
        with sequence 0 again.  Both endpoints must resync the same
        channel — the protocol's recovery handshake is simply "on
        desync, both sides call ``resync(key)`` and retransmit".  With
        ``key=None`` every channel is reset (a full re-key, e.g. after
        reconnecting a transport).
        """
        if key is None:
            self._previous.clear()
            self._tx_seq.clear()
            self._rx_seq.clear()
            return
        self._previous.pop(key, None)
        self._previous.pop(("rx", key), None)
        self._tx_seq.pop(key, None)
        self._rx_seq.pop(key, None)

    def cpu_seconds(self, nbytes_raw: int) -> float:
        """Modeled compress+decompress CPU cost for one message."""
        if self.mode == "none":
            return 0.0
        return (nbytes_raw / COMPRESS_BYTES_PER_S
                + nbytes_raw / DECOMPRESS_BYTES_PER_S)


def measure_flow_halo_ratio(steps: int = 8, sub=(12, 12, 8),
                            mode: str = "delta") -> CompressionStats:
    """Run a real decomposed flow and compress its actual halo traffic.

    Uses the numeric GPU-cluster driver on a small obstacle flow and
    feeds every border layer of every step through the codec, so the
    reported ratio reflects genuine LBM data, not synthetic arrays.
    """
    from repro.core.cluster_lbm import ClusterConfig, GPUClusterLBM

    arrangement = (2, 2, 1)
    shape = tuple(s * a for s, a in zip(sub, arrangement))
    solid = np.zeros(shape, bool)
    solid[shape[0] // 3:shape[0] // 3 + 3, shape[1] // 2:, 1:4] = True
    cfg = ClusterConfig(sub_shape=sub, arrangement=arrangement, tau=0.7,
                        solid=solid, force=(5e-6, 0, 0))
    cluster = GPUClusterLBM(cfg)
    codec = HaloCompressor(mode=mode)
    for _ in range(steps):
        cluster.step(1)
        for rank, node in enumerate(cluster.nodes):
            for axis in range(2):
                for side in ("low", "high"):
                    border = node.solver.get_border_layer(axis, side)
                    payload = codec.compress((rank, axis, side), border)
                    out = codec.decompress((rank, axis, side), payload,
                                           border.shape)
                    if not np.array_equal(out, border):
                        raise AssertionError("codec round-trip failed")
    return codec.stats


def compression_whatif(nodes: int = 32, sub_shape=(80, 80, 80),
                       ratio: float | None = None,
                       mode: str = "delta") -> dict:
    """Answer the paper's open question with the timing model.

    Network payloads shrink by the measured ``ratio``; each node pays
    the modeled DEFLATE CPU cost per face message.  Because the CPU is
    idle while the GPU computes (the same observation that enables
    overlap), the codec cost only matters when it exceeds the leftover
    CPU idle time — we conservatively charge it against the overlap
    window.
    """
    from repro.core.decomposition import BlockDecomposition, arrange_nodes_2d
    from repro.core.halo import HaloPlan
    from repro.core.schedule import CommSchedule
    from repro.net.switch import GigabitSwitch
    from repro.perf.model import cluster_timings

    if ratio is None:
        ratio = measure_flow_halo_ratio(mode=mode).ratio
    arrangement = arrange_nodes_2d(nodes)
    shape = tuple(s * a for s, a in zip(sub_shape, arrangement))
    decomp = BlockDecomposition(shape, arrangement,
                                periodic=(False, False, False))
    plan = HaloPlan(sub_shape)
    schedule = CommSchedule(decomp, plan)
    sw = GigabitSwitch()
    base_rounds = schedule.round_bytes()
    comp_rounds = [[max(64, int(b * ratio)) for b in r] for r in base_rounds]
    net_base = sw.phase_time(base_rounds, nodes)
    net_comp = sw.phase_time(comp_rounds, nodes)
    # Worst node: 4 face messages in/out.
    codec = HaloCompressor(mode=mode)
    cpu_cost = 4 * codec.cpu_seconds(plan.face_bytes(0))
    gpu, cpu = cluster_timings(nodes, sub_shape)
    window = gpu.overlap_window_s - cpu_cost
    nonoverlap_base = max(0.0, net_base - gpu.overlap_window_s)
    nonoverlap_comp = max(0.0, net_comp - max(0.0, window))
    total_base = gpu.compute_s + gpu.agp_s + nonoverlap_base
    total_comp = gpu.compute_s + gpu.agp_s + nonoverlap_comp
    return {
        "nodes": nodes,
        "ratio": ratio,
        "net_base_ms": net_base * 1e3,
        "net_compressed_ms": net_comp * 1e3,
        "codec_cpu_ms": cpu_cost * 1e3,
        "total_base_ms": total_base * 1e3,
        "total_compressed_ms": total_comp * 1e3,
        "worth_it": total_comp < total_base,
    }
