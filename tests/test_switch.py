"""Tests for the gigabit-switch timing model (Sec 4.3 findings)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.switch import GigabitSwitch
from repro.perf import calibration as cal

FACE = 5 * 80 * 80 * 4   # the paper's 5 N^2 face message at N = 80


@pytest.fixture
def switch():
    return GigabitSwitch()


class TestMessageTime:
    def test_monotone_in_bytes(self, switch):
        assert switch.message_time(2 * FACE) > switch.message_time(FACE)

    @given(a=st.integers(0, 10 ** 7), b=st.integers(0, 10 ** 7))
    @settings(max_examples=30, deadline=None)
    def test_monotonicity_property(self, a, b):
        sw = GigabitSwitch()
        if a <= b:
            assert sw.message_time(a) <= sw.message_time(b)

    def test_overhead_dominates_small_messages(self, switch):
        """Sec 4.3 finding 2: many small messages cost more than their
        bytes — fixed costs dominate."""
        one_big = switch.message_time(10 * FACE)
        ten_small = 10 * switch.message_time(FACE)
        assert ten_small > one_big


class TestRounds:
    def test_empty_round_is_free(self, switch):
        assert switch.round_time([]).seconds == 0.0

    def test_round_grows_with_pairs(self, switch):
        t1 = switch.round_time([FACE]).seconds
        t8 = switch.round_time([FACE] * 8).seconds
        assert t8 > t1

    def test_round_set_by_slowest_pair(self, switch):
        t = switch.round_time([FACE, 4 * FACE, FACE])
        assert t.max_bytes == 4 * FACE
        assert t.seconds > switch.message_time(4 * FACE)

    def test_phase_includes_fixed_overhead(self, switch):
        t = switch.phase_time([[FACE]], nodes=2)
        assert t > cal.NET_PHASE_OVERHEAD_S

    def test_phase_empty_rounds_skipped(self, switch):
        t1 = switch.phase_time([[FACE], [], [], []], nodes=2)
        t2 = switch.phase_time([[FACE]], nodes=2)
        assert t1 == pytest.approx(t2)

    def test_drift_penalty_only_past_free_zone(self, switch):
        rounds = [[FACE] * 12] * 4
        below = switch.phase_time(rounds, nodes=cal.NET_DRIFT_FREE_NODES)
        above = switch.phase_time(rounds, nodes=cal.NET_DRIFT_FREE_NODES + 6)
        assert above > below
        assert above - below == pytest.approx(
            cal.drift_penalty_s(cal.NET_DRIFT_FREE_NODES + 6))


class TestNaiveBaseline:
    def _sends(self, fan_out, nodes=8):
        """Every node sends to `fan_out` distinct destinations."""
        return {src: [((src + k + 1) % nodes, FACE) for k in range(fan_out)]
                for src in range(nodes)}

    def test_scheduled_beats_naive(self, switch):
        """The central Sec 4.3 claim: the scheduled pairwise pattern is
        faster than everyone firing at once."""
        naive = switch.naive_time(self._sends(4), nodes=8)
        rounds = [[FACE] * 4] * 4   # 4 disjoint-pair steps
        sched = switch.phase_time(rounds, nodes=8)
        assert sched < naive

    def test_more_neighbors_cost_more_at_equal_volume(self, switch):
        """Finding 2: equal total bytes, more destinations -> slower."""
        few = switch.naive_time(
            {s: [((s + 1) % 8, 4 * FACE)] for s in range(8)}, nodes=8)
        many = switch.naive_time(self._sends(4), nodes=8)
        assert many > few

    def test_interruptions_hurt(self, switch):
        """Finding 1: a third node sending to a busy port delays it."""
        two_pair = switch.naive_time({0: [(1, FACE)], 2: [(3, FACE)]}, nodes=4)
        third_interrupts = switch.naive_time(
            {0: [(1, FACE)], 2: [(1, FACE)]}, nodes=4)
        assert third_interrupts > two_pair

    def test_empty(self, switch):
        assert switch.naive_time({}, nodes=4) == 0.0


class TestPortReservation:
    def test_disjoint_ports_overlap(self, switch):
        s1 = switch.reserve(1, ready_s=0.0, nbytes=FACE)
        s2 = switch.reserve(2, ready_s=0.0, nbytes=FACE)
        assert s1[0] == s2[0] == 0.0
        assert switch.contention_events == 0

    def test_same_port_serializes(self, switch):
        a = switch.reserve(1, ready_s=0.0, nbytes=FACE)
        b = switch.reserve(1, ready_s=0.0, nbytes=FACE)
        assert b[0] == pytest.approx(a[1])
        assert switch.contention_events == 1

    def test_reset(self, switch):
        switch.reserve(1, 0.0, FACE)
        switch.reserve(1, 0.0, FACE)
        switch.reset()
        assert switch.contention_events == 0
        s = switch.reserve(1, 0.0, FACE)
        assert s[0] == 0.0


class TestDriftPenalty:
    def test_zero_below_threshold(self):
        for n in (2, 8, 16, 24):
            assert cal.drift_penalty_s(n) == 0.0

    def test_monotone_above(self):
        assert (cal.drift_penalty_s(32) > cal.drift_penalty_s(30)
                > cal.drift_penalty_s(28) > 0)


class TestMyrinetSwitch:
    """The Myrinet what-if is a re-parameterised GigabitSwitch: same
    timing structure, same tracing (it used to bypass both)."""

    def _myrinet(self):
        from repro.perf.whatif import MyrinetSwitch
        return MyrinetSwitch()

    def test_scales_shrink_fixed_overheads(self):
        sw = self._myrinet()
        assert sw.message_overhead_scale == pytest.approx(0.1)
        assert sw.phase_overhead_scale == pytest.approx(0.1)
        assert sw.drift_scale == pytest.approx(0.1)
        assert sw.message_time(FACE) < GigabitSwitch().message_time(FACE)

    def test_no_overrides_left(self):
        """The refactor's point: Myrinet must inherit the base methods,
        so tracing and future timing changes apply to both fabrics."""
        from repro.perf.whatif import MyrinetSwitch
        for name in ("message_time", "phase_time", "round_time",
                     "naive_time"):
            assert name not in vars(MyrinetSwitch)

    def test_traced_phase_emits_rounds_and_advances_clock(self):
        from repro.perf.recorder import SIM_CLOCK, Tracer
        sw = self._myrinet()
        sw.recorder = Tracer()
        rounds = [[FACE, FACE], [FACE]]
        t = sw.phase_time(rounds, nodes=4)
        assert t > 0.0
        names = [e.name for e in sw.recorder.events]
        assert names.count("net.round") == 2
        assert names.count("net.phase") == 1
        assert all(e.clock == SIM_CLOCK for e in sw.recorder.events)
        assert sw._trace_clock_s == pytest.approx(t)
        phase = [e for e in sw.recorder.events if e.name == "net.phase"][0]
        assert phase.t1 - phase.t0 == pytest.approx(t)
        # A second phase starts where the first ended.
        sw.phase_time(rounds, nodes=4)
        assert sw._trace_clock_s == pytest.approx(2 * t)

    def test_untraced_time_unchanged_by_tracing(self):
        from repro.perf.recorder import Tracer
        rounds = [[FACE, 2 * FACE], [FACE]]
        quiet = self._myrinet().phase_time(rounds, nodes=8)
        traced_sw = self._myrinet()
        traced_sw.recorder = Tracer()
        assert traced_sw.phase_time(rounds, nodes=8) == quiet

    def test_gbe_scales_default_to_unity(self):
        sw = GigabitSwitch()
        assert (sw.message_overhead_scale, sw.phase_overhead_scale,
                sw.drift_scale) == (1.0, 1.0, 1.0)
