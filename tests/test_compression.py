"""Tests for the Sec-4.3 halo-compression extension."""

import numpy as np
import pytest

from repro.core.compression import (CompressionStats, DeltaDesyncError,
                                    HaloCompressor,
                                    compression_whatif,
                                    measure_flow_halo_ratio)


class TestCodec:
    def test_round_trip_plain(self, rng):
        codec = HaloCompressor(mode="plain")
        a = rng.random((19, 10, 8)).astype(np.float32)
        out = codec.decompress("k", codec.compress("k", a), a.shape)
        assert np.array_equal(out, a)

    def test_round_trip_delta_sequence(self, rng):
        """The delta codec must reconstruct a whole evolving sequence."""
        codec = HaloCompressor(mode="delta")
        a = rng.random((19, 6, 6)).astype(np.float32)
        for step in range(6):
            a = a + (0.001 * rng.standard_normal(a.shape)).astype(np.float32)
            out = codec.decompress("face", codec.compress("face", a), a.shape)
            assert np.array_equal(out, a), step

    def test_none_mode_is_identity(self, rng):
        codec = HaloCompressor(mode="none")
        a = rng.random((5, 4)).astype(np.float32)
        payload = codec.compress("k", a)
        assert len(payload) == a.nbytes
        assert np.array_equal(codec.decompress("k", payload, a.shape), a)
        assert codec.cpu_seconds(1000) == 0.0

    def test_independent_channels(self, rng):
        codec = HaloCompressor(mode="delta")
        a = rng.random((4, 4)).astype(np.float32)
        b = rng.random((4, 4)).astype(np.float32)
        pa = codec.compress("a", a)
        pb = codec.compress("b", b)
        assert np.array_equal(codec.decompress("a", pa, a.shape), a)
        assert np.array_equal(codec.decompress("b", pb, b.shape), b)

    def test_smooth_data_compresses_well(self):
        codec = HaloCompressor(mode="plain")
        a = np.full((19, 80, 80), 1 / 19, dtype=np.float32)
        payload = codec.compress("k", a)
        assert len(payload) < a.nbytes / 20

    def test_random_data_compresses_poorly(self, rng):
        codec = HaloCompressor(mode="plain")
        a = rng.random((19, 40, 40)).astype(np.float32)
        payload = codec.compress("k", a)
        assert len(payload) > a.nbytes / 3     # float noise is incompressible

    def test_stats_accumulate(self, rng):
        codec = HaloCompressor(mode="plain")
        a = rng.random((8, 8)).astype(np.float32)
        codec.compress("k", a)
        codec.compress("k", a)
        assert codec.stats.messages == 2
        assert codec.stats.raw_bytes == 2 * a.nbytes
        assert 0 < codec.stats.ratio

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            HaloCompressor(mode="lossy")

    def test_cpu_cost_positive(self):
        codec = HaloCompressor(mode="delta")
        assert codec.cpu_seconds(128_000) > 0


class TestMeasuredRatio:
    def test_real_flow_halo_compresses(self):
        """Genuine LBM border data (near-equilibrium flow) is highly
        coherent: the measured ratio beats 2:1 easily."""
        stats = measure_flow_halo_ratio(steps=4, sub=(8, 8, 6))
        assert stats.messages > 0
        assert stats.ratio < 0.5

    def test_whatif_reports_both_sides(self):
        w = compression_whatif(nodes=32, ratio=0.15)
        assert w["net_compressed_ms"] < w["net_base_ms"]
        assert w["codec_cpu_ms"] > 0
        assert isinstance(w["worth_it"], (bool, np.bool_))

    def test_compression_useless_when_network_already_hidden(self):
        """Below the 28-node knee the network is fully overlapped, so
        compression cannot improve the step time."""
        w = compression_whatif(nodes=16, ratio=0.15)
        assert w["total_compressed_ms"] == pytest.approx(w["total_base_ms"])

    def test_compression_helps_at_32_nodes(self):
        w = compression_whatif(nodes=32, ratio=0.15)
        assert w["worth_it"]


class TestDeltaDesync:
    """Dropped / duplicated / reordered delta messages must raise, not
    silently decode against the wrong temporal base."""

    def _payloads(self, rng, n=4):
        codec = HaloCompressor(mode="delta")
        arrays, payloads = [], []
        a = rng.random((19, 6, 6)).astype(np.float32)
        for _ in range(n):
            a = a + (0.001 * rng.standard_normal(a.shape)).astype(np.float32)
            arrays.append(a)
            payloads.append(codec.compress("face", a))
        return arrays, payloads

    def test_skip_raises(self, rng):
        arrays, payloads = self._payloads(rng)
        codec = HaloCompressor(mode="delta")
        assert np.array_equal(
            codec.decompress("face", payloads[0], arrays[0].shape),
            arrays[0])
        with pytest.raises(DeltaDesyncError, match="expected 1"):
            codec.decompress("face", payloads[2], arrays[2].shape)

    def test_replay_raises(self, rng):
        arrays, payloads = self._payloads(rng)
        codec = HaloCompressor(mode="delta")
        codec.decompress("face", payloads[0], arrays[0].shape)
        codec.decompress("face", payloads[1], arrays[1].shape)
        with pytest.raises(DeltaDesyncError, match="dropped, duplicated"):
            codec.decompress("face", payloads[1], arrays[1].shape)

    def test_reorder_raises(self, rng):
        arrays, payloads = self._payloads(rng)
        codec = HaloCompressor(mode="delta")
        with pytest.raises(DeltaDesyncError):
            codec.decompress("face", payloads[1], arrays[1].shape)

    def test_channels_sequence_independently(self, rng):
        codec = HaloCompressor(mode="delta")
        rx = HaloCompressor(mode="delta")
        state = {k: rng.random((4, 4)).astype(np.float32)
                 for k in ("a", "b")}
        for step in range(3):
            for key in ("a", "b"):
                arr = state[key] = state[key] + (
                    0.001 * rng.standard_normal((4, 4))).astype(np.float32)
                out = rx.decompress(key, codec.compress(key, arr), arr.shape)
                assert np.array_equal(out, arr), (key, step)

    def test_plain_mode_has_no_sequencing(self, rng):
        codec = HaloCompressor(mode="plain")
        a = rng.random((4, 4)).astype(np.float32)
        p = codec.compress("k", a)
        for _ in range(2):     # replay is fine: the codec is stateless
            assert np.array_equal(codec.decompress("k", p, a.shape), a)


class TestResyncRecovery:
    """DeltaDesyncError must be recoverable: both ends call resync()
    and the channel keeps working with exact round-trips."""

    def _stream(self, rng, tx, rx, key, n=3, start=None):
        a = rng.random((5, 6)).astype(np.float32) if start is None else start
        for step in range(n):
            a = a + (0.001 * rng.standard_normal(a.shape)).astype(np.float32)
            out = rx.decompress(key, tx.compress(key, a), a.shape)
            assert np.array_equal(out, a), step
        return a

    def test_resync_recovers_after_skip(self, rng):
        tx = HaloCompressor(mode="delta")
        rx = HaloCompressor(mode="delta")
        a = self._stream(rng, tx, rx, "face")
        tx.compress("face", a + 1)            # dropped on the floor
        with pytest.raises(DeltaDesyncError):
            rx.decompress("face", tx.compress("face", a + 2), a.shape)
        tx.resync("face")
        rx.resync("face")
        self._stream(rng, tx, rx, "face", start=a + 3)

    def test_resync_single_channel_leaves_others(self, rng):
        tx = HaloCompressor(mode="delta")
        rx = HaloCompressor(mode="delta")
        a = self._stream(rng, tx, rx, "a")
        b = self._stream(rng, tx, rx, "b")
        tx.resync("a")
        rx.resync("a")
        # Channel b's sequence numbers and delta base must be intact.
        self._stream(rng, tx, rx, "b", start=b)
        self._stream(rng, tx, rx, "a", start=a)

    def test_resync_all_channels(self, rng):
        tx = HaloCompressor(mode="delta")
        rx = HaloCompressor(mode="delta")
        for key in ("a", "b"):
            self._stream(rng, tx, rx, key)
        tx.resync()
        rx.resync()
        for key in ("a", "b"):
            self._stream(rng, tx, rx, key)

    def test_resync_restarts_sequence_at_zero(self, rng):
        codec = HaloCompressor(mode="delta")
        a = rng.random((4, 4)).astype(np.float32)
        codec.compress("k", a)
        codec.compress("k", a)
        codec.resync("k")
        payload = codec.compress("k", a)
        rx = HaloCompressor(mode="delta")   # fresh receiver expects seq 0
        assert np.array_equal(rx.decompress("k", payload, a.shape), a)


class TestBitSpaceDelta:
    """The delta stage differences uint32 bit patterns, so the round
    trip is exact for *any* floats — including values where float
    subtraction would not be."""

    def test_special_values_round_trip(self, rng):
        tx = HaloCompressor(mode="delta")
        rx = HaloCompressor(mode="delta")
        a = rng.random((4, 8)).astype(np.float32)
        a[0, 0] = np.inf
        a[1, 2] = -np.inf
        a[2, 4] = np.nan
        a[3, 6] = np.float32(1e-45)   # subnormal
        rx.decompress("k", tx.compress("k", a), a.shape)
        b = a * np.float32(1.5)
        out = rx.decompress("k", tx.compress("k", b), b.shape)
        assert np.array_equal(out.view(np.uint32), b.view(np.uint32))

    def test_extreme_magnitude_gap_is_exact(self, rng):
        """(a - p) + p in float space would lose bits here; bit-space
        deltas cannot."""
        tx = HaloCompressor(mode="delta")
        rx = HaloCompressor(mode="delta")
        a = np.full((6, 6), 1e30, dtype=np.float32)
        rx.decompress("k", tx.compress("k", a), a.shape)
        b = np.full((6, 6), 1e-30, dtype=np.float32)
        out = rx.decompress("k", tx.compress("k", b), b.shape)
        assert np.array_equal(out, b)
