"""Block domain decomposition (Sec 4.3, Fig 6).

"To scale LBM onto the GPU cluster, we choose to decompose the LBM
lattice space into sub-domains, each of which is a 3D block ...  each
GPU node computes one sub-domain."

The paper arranges nodes in 2D for the Table-1 study (e.g. 32 nodes as
8x4) and notes the implementation also supports 3D arrangements.  The
paper also observes that cube-shaped sub-domains minimise the
boundary-surface-to-volume ratio — :func:`surface_to_volume` supports
the sub-domain-shape ablation bench.

Beyond the paper's equal 80^3 boxes, the decomposition is
*rectilinear*: each axis may be cut into unequal extents (``cuts``),
so per-rank block sizes can follow a cost model instead of the
uniform grid (Feichtinger et al., arXiv:1007.1388 — patch-based load
balancing).  Because the cut positions are shared per axis across the
whole grid (a tensor-product partition), any two face neighbours still
have identical face cross-sections, which is what keeps the halo
exchange, mailbox layout and two-hop diagonal routing untouched.
:func:`partition_axis` computes a deterministic minimise-max
contiguous partition of a per-slab cost profile; the cost profiles
themselves come from :mod:`repro.core.balance`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def arrange_nodes_2d(n: int) -> tuple[int, int, int]:
    """The paper's 2D arrangement: ``W x H x 1`` with H the largest
    divisor of n at most sqrt(n) (reproduces 8x4 for 32, 6x5 for 30,
    7x4 for 28, ...)."""
    if n < 1:
        raise ValueError("need at least one node")
    h = max(d for d in range(1, int(math.isqrt(n)) + 1) if n % d == 0)
    return (n // h, h, 1)


def arrange_nodes_3d(n: int) -> tuple[int, int, int]:
    """Near-cubic 3D arrangement ``W x H x D`` (W >= H >= D)."""
    if n < 1:
        raise ValueError("need at least one node")
    best = (n, 1, 1)
    best_cost = float("inf")
    for d in range(1, int(round(n ** (1 / 3))) + 1):
        if n % d:
            continue
        m = n // d
        for h in range(d, int(math.isqrt(m)) + 1):
            if m % h:
                continue
            w = m // h
            if w < h:
                continue
            cost = (w - h) ** 2 + (h - d) ** 2 + (w - d) ** 2
            if cost < best_cost:
                best_cost = cost
                best = (w, h, d)
    return best


def surface_to_volume(shape: tuple[int, int, int]) -> float:
    """Boundary-surface-area to volume ratio of a block sub-domain."""
    nx, ny, nz = shape
    if min(nx, ny, nz) < 1:
        raise ValueError("degenerate sub-domain")
    return 2.0 * (nx * ny + ny * nz + nx * nz) / (nx * ny * nz)


def uniform_cuts(extent: int, parts: int) -> tuple[int, ...]:
    """Near-equal contiguous cuts of ``extent`` into ``parts`` chunks.

    Exact division reproduces the historic equal boxes; otherwise the
    remainder cells go to the first chunks (deterministic).
    """
    extent, parts = int(extent), int(parts)
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if extent < parts:
        raise ValueError(
            f"cannot cut extent {extent} into {parts} non-empty chunks")
    q, r = divmod(extent, parts)
    return tuple(q + 1 if i < r else q for i in range(parts))


def partition_axis(costs, parts: int, min_extent: int = 2) -> tuple[int, ...]:
    """Minimise-max contiguous partition of a 1D cost profile.

    Cuts ``costs`` (one entry per lattice plane along the axis) into
    ``parts`` contiguous chunks of at least ``min_extent`` planes so
    that the most expensive chunk is as cheap as possible.  Found by
    binary search on the max-chunk cost with a greedy feasibility
    check, so the result is deterministic for a fixed cost profile.

    A small uniform epsilon is added to every plane so zero-cost
    regions (e.g. all-solid slabs with zero modeled weight) are split
    near-equally instead of degenerating into minimum-width chunks.
    """
    costs = np.asarray(costs, dtype=np.float64).ravel()
    n = costs.size
    parts = int(parts)
    min_extent = int(min_extent)
    if parts < 1:
        raise ValueError(f"parts must be >= 1, got {parts}")
    if min_extent < 1:
        raise ValueError(f"min_extent must be >= 1, got {min_extent}")
    if n < parts * min_extent:
        raise ValueError(
            f"cannot cut {n} planes into {parts} chunks of >= "
            f"{min_extent}: axis too short for the arrangement")
    if np.any(costs < 0):
        raise ValueError("plane costs must be non-negative")
    if parts == 1:
        return (n,)
    total = float(costs.sum())
    costs = costs + (total / n) * 1e-6 + 1e-12
    total = float(costs.sum())
    prefix = np.concatenate(([0.0], np.cumsum(costs)))

    def greedy(limit: float) -> tuple[int, ...] | None:
        """Largest-feasible chunks under ``limit``; None if infeasible."""
        cuts: list[int] = []
        start = 0
        for k in range(parts - 1):
            remaining = parts - 1 - k
            lo = start + min_extent
            hi = n - remaining * min_extent
            # Largest end with chunk cost <= limit, clamped to [lo, hi].
            end = int(np.searchsorted(prefix, prefix[start] + limit,
                                      side="right")) - 1
            end = min(end, hi)
            if end < lo:
                return None
            cuts.append(end - start)
            start = end
        if prefix[n] - prefix[start] > limit:
            return None
        cuts.append(n - start)
        return tuple(cuts)

    lo, hi = total / parts, total
    best = greedy(hi)
    assert best is not None  # the whole-cost limit is always feasible
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        cand = greedy(mid)
        if cand is None:
            lo = mid
        else:
            best, hi = cand, mid
    return best


def weighted_cuts(cost_field: np.ndarray, arrangement,
                  min_extent: int = 2) -> tuple[tuple[int, ...], ...]:
    """Per-axis cuts from a per-cell cost field (marginal sums).

    Each axis is partitioned independently on the field's marginal
    cost profile along that axis — the tensor-product restriction that
    keeps neighbour face shapes matched (see the module docstring).
    """
    cost = np.asarray(cost_field, dtype=np.float64)
    if cost.ndim != 3:
        raise ValueError(f"cost field must be 3D, got shape {cost.shape}")
    arrangement = tuple(int(a) for a in arrangement)
    cuts = []
    for axis in range(3):
        other = tuple(a for a in range(3) if a != axis)
        cuts.append(partition_axis(cost.sum(axis=other), arrangement[axis],
                                   min_extent=min_extent))
    return tuple(cuts)


@dataclass(frozen=True)
class NodeBlock:
    """One node's sub-domain: grid coordinates and lattice slab."""

    rank: int
    coords: tuple[int, int, int]
    lo: tuple[int, int, int]   # inclusive lattice start
    shape: tuple[int, int, int]

    @property
    def slices(self) -> tuple[slice, slice, slice]:
        return tuple(slice(l, l + s) for l, s in zip(self.lo, self.shape))

    @property
    def cells(self) -> int:
        return int(np.prod(self.shape))


class BlockDecomposition:
    """Partition a global lattice over a grid of nodes.

    Parameters
    ----------
    global_shape:
        Lattice shape (nx, ny, nz).  The paper uses uniform 80^3
        sub-domains; extents that do not divide the arrangement get
        near-equal default cuts instead of an error.
    arrangement:
        Node grid (W, H, D).
    periodic:
        Per-axis global periodicity (affects neighbour wrap).
    cuts:
        Optional per-axis chunk extents, three sequences whose lengths
        match the arrangement and whose sums match the global extents
        (e.g. from :func:`weighted_cuts`).  Default: :func:`uniform_cuts`
        per axis, which reproduces the historic equal boxes whenever
        the extents divide.
    """

    def __init__(self, global_shape, arrangement, periodic=(True, True, True),
                 cuts=None) -> None:
        self.global_shape = tuple(int(s) for s in global_shape)
        self.arrangement = tuple(int(a) for a in arrangement)
        if len(self.global_shape) != 3 or len(self.arrangement) != 3:
            raise ValueError("3D shapes required")
        for s, a in zip(self.global_shape, self.arrangement):
            if a < 1 or s < a:
                raise ValueError(
                    f"global shape {global_shape} too small for "
                    f"arrangement {arrangement}")
        self.periodic = tuple(bool(p) for p in periodic)
        if cuts is None:
            cuts = tuple(uniform_cuts(s, a) for s, a in
                         zip(self.global_shape, self.arrangement))
        self.cuts = self._validate_cuts(cuts)
        #: Per-axis block start offsets (len = arrangement[axis] + 1).
        self.offsets = tuple(
            tuple(np.concatenate(([0], np.cumsum(c))).astype(int))
            for c in self.cuts)
        #: Equal boxes on every axis?  (The historic layout.)
        self.uniform = all(len(set(c)) == 1 for c in self.cuts)
        #: The common block shape under uniform cuts, else None —
        #: callers that assume equal boxes must check.
        self.sub_shape = (tuple(c[0] for c in self.cuts)
                          if self.uniform else None)
        self.n_nodes = int(np.prod(self.arrangement))
        self.blocks = [self._make_block(r) for r in range(self.n_nodes)]

    def _validate_cuts(self, cuts) -> tuple[tuple[int, ...], ...]:
        if len(cuts) != 3:
            raise ValueError(f"cuts must have one sequence per axis, "
                             f"got {len(cuts)}")
        out = []
        for axis, (c, s, a) in enumerate(zip(cuts, self.global_shape,
                                             self.arrangement)):
            c = tuple(int(x) for x in c)
            if len(c) != a:
                raise ValueError(
                    f"axis {axis}: {len(c)} cuts for {a} node columns")
            if any(x < 1 for x in c):
                raise ValueError(f"axis {axis}: empty block in cuts {c}")
            if sum(c) != s:
                raise ValueError(
                    f"axis {axis}: cuts {c} sum to {sum(c)}, expected {s}")
            out.append(c)
        return tuple(out)

    # ------------------------------------------------------------------
    def block_shape(self, rank: int) -> tuple[int, int, int]:
        """The (possibly rank-specific) block shape of ``rank``."""
        return self.blocks[rank].shape

    def max_block_shape(self) -> tuple[int, int, int]:
        """Per-axis maximum block extents (buffer sizing bound)."""
        return tuple(max(c) for c in self.cuts)

    def cells_per_rank(self) -> list[int]:
        """Lattice cells owned by each rank."""
        return [b.cells for b in self.blocks]

    # ------------------------------------------------------------------
    def rank_of(self, coords: tuple[int, int, int]) -> int:
        """Node rank from grid coordinates (x fastest)."""
        w, h, d = self.arrangement
        cx, cy, cz = coords
        if not (0 <= cx < w and 0 <= cy < h and 0 <= cz < d):
            raise ValueError(f"coords {coords} outside arrangement {self.arrangement}")
        return cx + w * (cy + h * cz)

    def coords_of(self, rank: int) -> tuple[int, int, int]:
        """Grid coordinates of a rank."""
        w, h, _ = self.arrangement
        if not 0 <= rank < self.n_nodes:
            raise ValueError(f"rank {rank} out of range")
        return (rank % w, (rank // w) % h, rank // (w * h))

    def _make_block(self, rank: int) -> NodeBlock:
        coords = self.coords_of(rank)
        lo = tuple(self.offsets[axis][c] for axis, c in enumerate(coords))
        shape = tuple(self.cuts[axis][c] for axis, c in enumerate(coords))
        return NodeBlock(rank, coords, lo, shape)

    # ------------------------------------------------------------------
    def neighbor(self, rank: int, axis: int, direction: int) -> int | None:
        """Face neighbour rank along ``axis`` (+1/-1); None at a
        non-periodic global edge."""
        coords = list(self.coords_of(rank))
        coords[axis] += direction
        n = self.arrangement[axis]
        if not 0 <= coords[axis] < n:
            if not self.periodic[axis] or n == 1:
                return None
            coords[axis] %= n
        return self.rank_of(tuple(coords))

    def neighbors(self, rank: int) -> dict[tuple[int, int], int | None]:
        """All six neighbour slots: (axis, direction) -> rank | None (the
        halo route table's input)."""
        return {(axis, direction): self.neighbor(rank, axis, direction)
                for axis in range(3) for direction in (-1, 1)}

    def rank_args(self, rank: int, inlet=None, outflow=None) -> dict:
        """The rank's node description, the one every driver builds its
        node from: ``sub_shape`` (its block), ``face_dirs`` and
        ``edge_dirs`` (its face and diagonal neighbour slots) and which
        of the global ``inlet`` ``(axis, side, velocity, rho)`` and
        ``outflow`` ``(axis, side)`` land on its block (each the global
        spec or None)."""
        coords = self.coords_of(rank)

        def owned(spec):
            if spec is None:
                return None
            axis, side = spec[0], spec[1]
            edge = 0 if side == "low" else self.arrangement[axis] - 1
            return spec if coords[axis] == edge else None
        return {"sub_shape": self.block_shape(rank),
                "face_dirs": tuple(self.face_neighbors(rank)),
                "edge_dirs": tuple(self.edge_neighbors(rank)),
                "inlet": owned(inlet), "outflow": owned(outflow)}

    def face_neighbors(self, rank: int) -> dict[tuple[int, int], int]:
        """All face neighbours: (axis, direction) -> rank."""
        out = {}
        for axis in range(3):
            if self.arrangement[axis] == 1:
                continue
            for direction in (-1, 1):
                nb = self.neighbor(rank, axis, direction)
                if nb is not None and nb != rank:
                    out[(axis, direction)] = nb
        return out

    def edge_neighbors(self, rank: int) -> dict[tuple[int, int, int, int], int]:
        """Diagonal (second-nearest) neighbours:
        (axis_a, dir_a, axis_b, dir_b) -> rank, axis_a < axis_b."""
        out = {}
        coords = self.coords_of(rank)
        for aa in range(3):
            for ab in range(aa + 1, 3):
                if self.arrangement[aa] == 1 or self.arrangement[ab] == 1:
                    continue
                for da in (-1, 1):
                    for db in (-1, 1):
                        c = list(coords)
                        c[aa] += da
                        c[ab] += db
                        ok = True
                        for ax in (aa, ab):
                            n = self.arrangement[ax]
                            if not 0 <= c[ax] < n:
                                if not self.periodic[ax]:
                                    ok = False
                                    break
                                c[ax] %= n
                        if not ok:
                            continue
                        nb = self.rank_of(tuple(c))
                        if nb != rank:
                            out[(aa, da, ab, db)] = nb
        return out

    def scatter_field(self, field: np.ndarray) -> list[np.ndarray]:
        """Split a global (per-cell) field into per-node blocks."""
        if field.shape[-3:] != self.global_shape:
            raise ValueError("field does not match global shape")
        return [np.ascontiguousarray(field[..., b.slices[0], b.slices[1], b.slices[2]])
                for b in self.blocks]

    def gather_field(self, parts: list[np.ndarray]) -> np.ndarray:
        """Reassemble per-node blocks into the global field."""
        if len(parts) != self.n_nodes:
            raise ValueError("wrong number of parts")
        lead = parts[0].shape[:-3]
        out = np.empty(lead + self.global_shape, dtype=parts[0].dtype)
        for b, part in zip(self.blocks, parts):
            out[..., b.slices[0], b.slices[1], b.slices[2]] = part
        return out
