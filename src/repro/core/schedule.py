"""The contention-aware communication schedule (Sec 4.3, Fig 7).

"the communication is scheduled in multiple steps and in each step
certain pairs of nodes exchange data ... In the first step, all nodes
in the (2i)th columns exchange data with their neighbors to the left.
In the second step, these nodes exchange data with neighbors to the
right.  In the third and fourth steps, nodes in the (2i)th rows
exchange data with their neighbors above and below ...  we do not
allow direct data exchange diagonally between second-nearest
neighbors.  Instead, we transfer those data indirectly in a two-step
process."

:class:`CommSchedule` builds the per-axis pairwise steps for any 1D /
2D / 3D node arrangement (2 steps per axis for paths and even cycles,
3 for odd cycles — a proper matching decomposition, so no node talks
to two partners in the same step), computes each pair's message bytes
including the piggybacked diagonal traffic, and provides the byte
lists the :class:`~repro.net.switch.GigabitSwitch` prices.

:func:`naive_schedule` is the unscheduled baseline: every node fires
all its face *and* direct diagonal messages at once.

Pairs exist only where two blocks actually share a face: on a
non-periodic axis the wraparound pairing between the first and last
node is absent, so bounded domains schedule (and price) strictly fewer
exchanges — the boundary faces are closed locally by the drivers and
never touch the switch.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.decomposition import BlockDecomposition
from repro.core.halo import HaloPlan


@dataclass(frozen=True)
class ExchangePair:
    """One bidirectional face exchange: ``lo`` owns the lower-coordinate
    block; bytes are per direction (symmetric for uniform blocks) and
    travel as one message (face, rims and piggybacked edge lines in one
    contiguous buffer)."""

    axis: int
    lo: int
    hi: int
    nbytes: int


@dataclass
class ScheduleStep:
    """One synchronised step: disjoint pairs exchanging simultaneously."""

    axis: int
    pairs: list[ExchangePair] = field(default_factory=list)

    def validate_disjoint(self) -> None:
        seen: set[int] = set()
        for p in self.pairs:
            for r in (p.lo, p.hi):
                if r in seen:
                    raise ValueError(
                        f"node {r} appears twice in one schedule step")
                seen.add(r)


def _axis_matchings(n: int, periodic: bool) -> list[list[tuple[int, int]]]:
    """Decompose the adjacency of a 1D chain/cycle of ``n`` positions
    into matchings: the paper's even/odd steps, plus a third step for
    the odd-cycle wrap pair."""
    if n < 2:
        return []
    # The paper's convention: step A = even positions exchanging with the
    # lower neighbour, step B = even positions with the upper neighbour.
    step_a = [(i, i + 1) for i in range(1, n - 1, 2)]
    step_b = [(i, i + 1) for i in range(0, n - 1, 2)]
    steps = [s for s in (step_a, step_b) if s]
    if periodic and n > 2:
        wrap = (0, n - 1)
        placed = False
        for s in steps:
            used = {r for p in s for r in p}
            if not (wrap[0] in used or wrap[1] in used):
                s.append(wrap)
                placed = True
                break
        if not placed:
            steps.append([wrap])
    return steps


class CommSchedule:
    """Pairwise exchange schedule for a block decomposition.

    Parameters
    ----------
    decomp:
        The node arrangement / lattice partition.
    plan:
        Halo plan giving per-face and per-edge message sizes.
    indirect_diagonal:
        If True (the paper's design), diagonal traffic is piggybacked on
        axial messages (two hops); if False the naive direct pattern is
        produced by :func:`naive_schedule` instead.
    """

    def __init__(self, decomp: BlockDecomposition, plan: HaloPlan,
                 indirect_diagonal: bool = True) -> None:
        if not indirect_diagonal:
            raise ValueError("use naive_schedule() for the direct pattern")
        self.decomp = decomp
        self.plan = plan
        self._plans: dict[tuple[int, int, int], HaloPlan] = {
            plan.sub_shape: plan}
        self.steps: list[ScheduleStep] = []
        self._build()
        for s in self.steps:
            s.validate_disjoint()

    def _plan_for(self, shape: tuple[int, int, int]) -> HaloPlan:
        """Halo plan for one block shape (cached; non-uniform cuts make
        message sizes pair-specific)."""
        cached = self._plans.get(shape)
        if cached is None:
            cached = HaloPlan(shape, lattice=self.plan.lattice)
            self._plans[shape] = cached
        return cached

    def _piggyback_count(self, axis: int) -> int:
        """Edge lines piggybacked per face message along ``axis``.

        An edge between axes (a, b), a < b, rides the axis-``a`` hop
        first and is forwarded on the axis-``b`` hop; each face message
        therefore carries the edge lines of every such route through
        it.  For a full 2D arrangement this is the paper's c in
        {1, 2}; for 3D up to 4.
        """
        arr = self.decomp.arrangement
        count = 0
        for other in range(3):
            if other == axis or arr[other] == 1:
                continue
            count += 2  # both signs of the other axis
        return count

    def _build(self) -> None:
        arr = self.decomp.arrangement
        uniform = self.decomp.uniform
        for axis in range(3):
            n = arr[axis]
            if n == 1:
                continue
            piggy = self._piggyback_count(axis)
            # Uniform decompositions keep the caller-supplied plan (one
            # message size per axis); non-uniform cuts price each pair
            # from the lower block's shape — the face cross-section is
            # shared with its neighbour by the per-axis cut positions.
            msg = (self.plan.face_message(axis, +1, piggyback_edges=piggy)
                   if uniform else None)
            for matching in _axis_matchings(n, self.decomp.periodic[axis]):
                step = ScheduleStep(axis=axis)
                for (ia, ib) in matching:
                    for coords_rest in self._perpendicular_coords(axis):
                        ca = self._insert(coords_rest, axis, ia)
                        cb = self._insert(coords_rest, axis, ib)
                        lo = self.decomp.rank_of(ca)
                        hi = self.decomp.rank_of(cb)
                        if msg is not None:
                            nbytes = msg.nbytes
                        else:
                            plan = self._plan_for(
                                self.decomp.block_shape(lo))
                            nbytes = plan.face_message(
                                axis, +1, piggyback_edges=piggy).nbytes
                        step.pairs.append(ExchangePair(
                            axis=axis, lo=lo, hi=hi, nbytes=nbytes))
                if step.pairs:
                    self.steps.append(step)

    def _perpendicular_coords(self, axis: int):
        arr = self.decomp.arrangement
        others = [a for a in range(3) if a != axis]
        for i in range(arr[others[0]]):
            for j in range(arr[others[1]]):
                yield {others[0]: i, others[1]: j}

    @staticmethod
    def _insert(rest: dict, axis: int, value: int) -> tuple[int, int, int]:
        c = dict(rest)
        c[axis] = value
        return tuple(c[a] for a in range(3))

    # ------------------------------------------------------------------
    @property
    def n_steps(self) -> int:
        return len(self.steps)

    def total_pairs(self) -> int:
        return sum(len(s.pairs) for s in self.steps)

    def round_bytes(self) -> list[list[int]]:
        """Per-step list of per-pair message sizes, for the switch model."""
        return [[p.nbytes for p in s.pairs] for s in self.steps]

    def round_messages(self, aggregated: bool = True) -> list[list[int]]:
        """Per-step list of per-pair envelope counts (parallel to
        :meth:`round_bytes`); the switch charges per-message overhead
        on these.  The executed protocol sends one message per pair and
        direction.  ``aggregated=False`` answers Sec 4.4's what-if
        instead: the same bytes with the face and every piggybacked
        edge line in an envelope of its own."""
        return [[1 if aggregated else 1 + self._piggyback_count(s.axis)
                 for _ in s.pairs] for s in self.steps]

    def pairs_for_axis(self, axis: int) -> list[ExchangePair]:
        """All exchanges along one axis, in schedule order."""
        return [p for s in self.steps if s.axis == axis for p in s.pairs]


def naive_schedule(decomp: BlockDecomposition, plan: HaloPlan) -> dict[int, list[tuple[int, int]]]:
    """The unscheduled direct pattern: sender -> [(dest, nbytes), ...].

    Every node fires all its face messages *and* direct diagonal
    messages simultaneously — the pattern whose interruptions Sec 4.3
    measured to be "considerably larger" at equal volume.  Feed to
    :meth:`GigabitSwitch.naive_time`.
    """
    sends: dict[int, list[tuple[int, int]]] = {}
    for rank in range(decomp.n_nodes):
        out: list[tuple[int, int]] = []
        for (axis, _), nb in decomp.face_neighbors(rank).items():
            out.append((nb, plan.face_bytes(axis)))
        for (aa, _, ab, _), nb in decomp.edge_neighbors(rank).items():
            out.append((nb, plan.edge_bytes(aa, ab)))
        sends[rank] = out
    return sends
