"""Tests for the per-neighbor halo messages.

Covers the packing manifests (:mod:`repro.core.halo`), the pack/unpack
runtime (:mod:`repro.core.wire`),
the schedule/switch envelope accounting, exchange bit-identity on
weighted cuts on both backends, the AA forward/reverse protocol, and
the executed SPMD message counts.  The engine itself (route table,
call sequence, configuration matrix) is in ``test_exchange_engine.py``;
the end-to-end sweep is ``python -m repro check``.
"""

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM
from repro.core.decomposition import BlockDecomposition, uniform_cuts
from repro.core.halo import HaloPlan, PACK_MODES
from repro.core.schedule import CommSchedule
from repro.check import route_messages
from repro.core.wire import pack_halo, unpack_halo
from repro.lbm.solver import LBMSolver
from repro.net.switch import GigabitSwitch

SUB = (6, 6, 4)
ARRANGEMENT = (2, 2, 1)
SHAPE = tuple(s * a for s, a in zip(SUB, ARRANGEMENT))


def _reference(shape, tau, rng, solid=None, steps=4):
    ref = LBMSolver(shape, tau=tau, solid=solid)
    ref.initialize(rho=np.ones(shape, np.float32),
                   u=(0.02 * rng.standard_normal((3,) + shape)
                      ).astype(np.float32))
    f0 = ref.f.copy()
    ref.step(steps)
    return ref.f.copy(), f0


class TestNeighborManifest:
    def setup_method(self):
        self.plan = HaloPlan(SUB)

    def test_segment_layout_is_deterministic(self):
        m = self.plan.neighbor_manifest(0, (1, -1), "pull")
        assert m.sides == (-1, 1)                  # side -1 always first
        offset = 0
        for seg in m.segments:
            assert seg.offset == offset
            assert seg.links == tuple(sorted(seg.links))
            assert seg.floats == len(seg.links) * int(
                np.prod(m.plane_shape))
            offset += seg.floats
        assert m.total_floats == offset
        assert m.nbytes == 4 * offset

    def test_plane_spans_padded_cross_section(self):
        for axis in range(3):
            m = self.plan.neighbor_manifest(axis, (1,), "pull")
            want = tuple(s + 2 for a, s in enumerate(SUB) if a != axis)
            assert m.plane_shape == want

    def test_five_links_per_segment(self):
        for axis in range(3):
            for mode in PACK_MODES:
                m = self.plan.neighbor_manifest(axis, (-1, 1), mode)
                assert all(len(seg.links) == 5 for seg in m.segments)

    def test_mode_link_selection(self):
        # pull / aa_reverse carry the links streaming *out* of the
        # side; aa_forward mirrors (reversed-slot layout).
        for axis in range(3):
            pull = set(self.plan.pack_links(axis, 1, "pull"))
            rev = set(self.plan.pack_links(axis, 1, "aa_reverse"))
            fwd = set(self.plan.pack_links(axis, 1, "aa_forward"))
            assert pull == rev
            assert fwd == set(self.plan.face_links(axis, -1))
            assert pull.isdisjoint(fwd)

    def test_manifests_are_cached(self):
        a = self.plan.neighbor_manifest(1, (1,), "pull")
        b = self.plan.neighbor_manifest(1, (1,), "pull")
        assert a is b

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="mode"):
            self.plan.neighbor_manifest(0, (1,), "push")
        with pytest.raises(ValueError, match="sides"):
            self.plan.neighbor_manifest(0, (), "pull")
        with pytest.raises(ValueError, match="sides"):
            self.plan.neighbor_manifest(0, (2,), "pull")


class TestPackUnpack:
    def _fg(self, rng):
        padded = (19,) + tuple(s + 2 for s in SUB)
        return rng.random(padded).astype(np.float32)

    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("side", [-1, 1])
    def test_pull_round_trip(self, rng, axis, side):
        plan = HaloPlan(SUB)
        sender = self._fg(rng)
        receiver = self._fg(rng)
        m = plan.neighbor_manifest(axis, (side,), "pull")
        buf = np.empty(m.total_floats, np.float32)
        pack_halo(sender, SUB, m, buf)
        unpack_halo(receiver, SUB, m, buf)
        border = 1 if side == -1 else SUB[axis]       # sender border layer
        ghost = SUB[axis] + 1 if side == -1 else 0    # receiver ghost at -side
        for q in m.segments[0].links:
            src = np.take(sender[q], border, axis=axis)
            dst = np.take(receiver[q], ghost, axis=axis)
            assert np.array_equal(dst, src), q

    def test_aa_reverse_writes_only_carried_links(self, rng):
        plan = HaloPlan(SUB)
        sender = self._fg(rng)
        receiver = self._fg(rng)
        before = receiver.copy()
        m = plan.neighbor_manifest(0, (1,), "aa_reverse")
        buf = np.empty(m.total_floats, np.float32)
        pack_halo(sender, SUB, m, buf)    # reads the sender's ghost shell
        unpack_halo(receiver, SUB, m, buf)
        carried = set(m.segments[0].links)
        for q in range(19):
            src = np.take(sender[q], SUB[0] + 1, axis=0)   # sender ghost
            dst = np.take(receiver[q], 1, axis=0)          # receiver border
            old = np.take(before[q], 1, axis=0)
            if q in carried:
                assert np.array_equal(dst, src), q
            else:
                # Uncarried border slots hold this rank's own scatter
                # and must survive the fold.
                assert np.array_equal(dst, old), q

    def test_both_sides_message_round_trips(self, rng):
        plan = HaloPlan(SUB)
        fg = self._fg(rng)
        m = plan.neighbor_manifest(2, (-1, 1), "pull")
        buf = np.empty(m.total_floats, np.float32)
        pack_halo(fg, SUB, m, buf)
        out = self._fg(rng)
        unpack_halo(out, SUB, m, buf)
        for seg in m.segments:
            border = 1 if seg.side == -1 else SUB[2]
            ghost = SUB[2] + 1 if seg.side == -1 else 0
            for q in seg.links:
                assert np.array_equal(np.take(out[q], ghost, axis=2),
                                      np.take(fg[q], border, axis=2))


class TestMergedBitIdentity:
    """The exchange must reproduce the single-domain bits on every
    backend — including unequal cuts and the AA
    forward/reverse protocol."""

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_unequal_cuts(self, rng, backend):
        solid = np.zeros(SHAPE, bool)
        solid[:SHAPE[0] // 3] = True      # x-low third all obstacle
        ref_f, f0 = _reference(SHAPE, 0.8, rng, solid=solid)
        cuts = ((8, 4), (6, 6), (4,))
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARRANGEMENT, tau=0.8,
                            solid=solid, cuts=cuts, backend=backend)
        with CPUClusterLBM(cfg) as cluster:
            assert (cluster.decomp.cuts[0]
                    != uniform_cuts(SHAPE[0], ARRANGEMENT[0]))
            cluster.load_global_distributions(f0)
            cluster.step(4)
            assert np.array_equal(cluster.gather_distributions(), ref_f)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_aa_forward_reverse(self, rng, backend):
        ref_f, f0 = _reference(SHAPE, 0.7, rng)
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARRANGEMENT, tau=0.7,
                            backend=backend)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "aa"
            cluster.load_global_distributions(f0)
            cluster.step(4)
            assert np.array_equal(cluster.gather_distributions(), ref_f)

    def test_wire_validation(self):
        """There is one wire, raw float32: the options that selected
        another wire or a codec are gone."""
        for wire in ("merged", "perface"):
            with pytest.raises(TypeError, match="wire"):
                ClusterConfig(sub_shape=SUB, arrangement=ARRANGEMENT,
                              tau=0.7, wire=wire)
        for compression in ("off", "adaptive", "always"):
            with pytest.raises(TypeError, match="compression"):
                ClusterConfig(sub_shape=SUB, arrangement=ARRANGEMENT,
                              tau=0.7, compression=compression)


class TestScheduleEnvelopes:
    def _schedule(self):
        decomp = BlockDecomposition(SHAPE, ARRANGEMENT,
                                    periodic=(True, True, True))
        return CommSchedule(decomp, HaloPlan(SUB))

    def test_merged_is_one_envelope_per_pair(self):
        sched = self._schedule()
        assert all(m == 1 for rnd in sched.round_messages() for m in rnd)

    def test_unaggregated_counts_piggybacked_edges(self):
        sched = self._schedule()
        # 2D arrangement: each face message forwards 2 edge lines.
        assert all(m == 3 for rnd in sched.round_messages(aggregated=False)
                   for m in rnd)

    def test_round_messages_parallel_to_round_bytes(self):
        sched = self._schedule()
        for aggregated in (True, False):
            assert [len(r) for r in sched.round_messages(aggregated)] \
                == [len(r) for r in sched.round_bytes()]

    def test_switch_single_message_expression_unchanged(self):
        sw = GigabitSwitch()
        assert sw.message_time(4096) == sw.message_time(4096, messages=1)
        assert sw.message_time(4096, messages=3) > sw.message_time(4096)

    def test_merged_phase_is_cheaper(self):
        """Sec 4.4's what-if: the same bytes, unaggregated, cost more."""
        sw = GigabitSwitch()
        sched = self._schedule()
        t_merged = sw.phase_time(sched.round_bytes(), 4,
                                 round_messages=sched.round_messages())
        t_unaggregated = sw.phase_time(
            sched.round_bytes(), 4,
            round_messages=sched.round_messages(aggregated=False))
        assert t_merged < t_unaggregated

    def test_invalid_wire_rejected(self):
        """The envelope model is a query, not a constructor option."""
        decomp = BlockDecomposition(SHAPE, ARRANGEMENT,
                                    periodic=(True, True, True))
        for wire in ("merged", "perface"):
            with pytest.raises(TypeError, match="wire"):
                CommSchedule(decomp, HaloPlan(SUB), wire=wire)


class TestSPMDWire:
    def _run(self, rng, steps=2):
        from repro.core.spmd import SPMDClusterLBM
        from repro.net.simmpi import SimCluster
        from repro.perf.recorder import Tracer

        decomp = BlockDecomposition(SHAPE, ARRANGEMENT,
                                    periodic=(True, True, True))
        ref_f, f0 = _reference(SHAPE, 0.7, rng, steps=steps)
        tracer = Tracer(enabled=True)
        spmd = SPMDClusterLBM(decomp, tau=0.7, f0=f0)
        got, _ = spmd.run(steps, cluster=SimCluster(decomp.n_nodes,
                                                    recorder=tracer))
        assert np.array_equal(got, ref_f)
        return [e for e in tracer.events if e.name == "mpi.msg"], spmd

    def test_merged_sends_one_message_per_neighbor(self, rng):
        msgs, _ = self._run(rng)
        # (2,2,1) periodic: 4 ranks x 2 active axes x 1 both-sides
        # message = 8 per step.
        assert len(msgs) == 8 * 2
        per_channel: dict = {}
        for e in msgs:
            ch = (e.meta["src"], e.meta["dst"], e.meta["tag"])
            per_channel[ch] = per_channel.get(ch, 0) + 1
        assert all(n == 2 for n in per_channel.values())

    def test_merged_undercuts_unaggregated_envelopes(self, rng):
        """Executed messages equal the route table's count and the
        schedule's aggregated envelopes (one per pair and direction),
        and undercut the modelled unaggregated count."""
        steps = 2
        msgs, spmd = self._run(rng, steps=steps)
        sched = CommSchedule(spmd.decomp, HaloPlan(SUB))
        envelopes = {agg: 2 * sum(sum(r) for r in sched.round_messages(agg))
                     for agg in (True, False)}
        assert len(msgs) == route_messages(spmd.decomp) * steps
        assert len(msgs) == envelopes[True] * steps
        assert envelopes[True] < envelopes[False]

    def test_spmd_validation(self):
        from repro.core.spmd import SPMDClusterLBM
        decomp = BlockDecomposition(SHAPE, ARRANGEMENT,
                                    periodic=(True, True, True))
        with pytest.raises(TypeError, match="wire"):
            SPMDClusterLBM(decomp, tau=0.7, wire="merged")
        for compression in ("off", "adaptive", "always"):
            with pytest.raises(TypeError, match="compression"):
                SPMDClusterLBM(decomp, tau=0.7, compression=compression)
