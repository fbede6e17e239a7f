"""Tests for block domain decomposition (Sec 4.3, Fig 6)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.decomposition import (BlockDecomposition, arrange_nodes_2d,
                                      arrange_nodes_3d, surface_to_volume)


class TestArrangements:
    @pytest.mark.parametrize("n,expect", [
        (1, (1, 1, 1)), (2, (2, 1, 1)), (4, (2, 2, 1)), (8, (4, 2, 1)),
        (12, (4, 3, 1)), (16, (4, 4, 1)), (20, (5, 4, 1)), (24, (6, 4, 1)),
        (28, (7, 4, 1)), (30, (6, 5, 1)), (32, (8, 4, 1)),
    ])
    def test_paper_2d_arrangements(self, n, expect):
        """The exact node grids of Table 1 (e.g. 32 = 8x4)."""
        assert arrange_nodes_2d(n) == expect

    @given(n=st.integers(1, 64))
    @settings(max_examples=40, deadline=None)
    def test_2d_product_property(self, n):
        w, h, d = arrange_nodes_2d(n)
        assert w * h * d == n and d == 1 and w >= h

    @pytest.mark.parametrize("n,expect", [(8, (2, 2, 2)), (27, (3, 3, 3)),
                                          (12, (3, 2, 2))])
    def test_3d_arrangements(self, n, expect):
        assert arrange_nodes_3d(n) == expect

    def test_cube_minimizes_surface_to_volume(self):
        cube = surface_to_volume((80, 80, 80))
        for shape in [(160, 80, 40), (320, 80, 20), (640, 40, 20)]:
            assert surface_to_volume(shape) > cube


class TestBlocks:
    def _decomp(self, periodic=(True, True, True)):
        return BlockDecomposition((16, 12, 8), (4, 3, 2), periodic=periodic)

    def test_partition_covers_lattice_exactly(self):
        d = self._decomp()
        counts = np.zeros((16, 12, 8), dtype=int)
        for b in d.blocks:
            counts[b.slices] += 1
        assert (counts == 1).all()

    @given(w=st.integers(1, 4), h=st.integers(1, 3), dd=st.integers(1, 2))
    @settings(max_examples=30, deadline=None)
    def test_partition_property(self, w, h, dd):
        shape = (w * 3, h * 2, dd * 4)
        d = BlockDecomposition(shape, (w, h, dd))
        counts = np.zeros(shape, dtype=int)
        for b in d.blocks:
            counts[b.slices] += 1
        assert (counts == 1).all()

    def test_rank_coords_round_trip(self):
        d = self._decomp()
        for r in range(d.n_nodes):
            assert d.rank_of(d.coords_of(r)) == r

    def test_indivisible_shape_gets_near_equal_cuts(self):
        """Non-divisible extents no longer hard-fail: the default cut
        profile is near-equal with the remainder on the first blocks."""
        d = BlockDecomposition((10, 10, 10), (3, 1, 1))
        assert d.cuts[0] == (4, 3, 3)
        assert d.sub_shape is None and not d.uniform
        counts = np.zeros((10, 10, 10), dtype=int)
        for b in d.blocks:
            counts[b.slices] += 1
        assert (counts == 1).all()

    def test_too_small_shape_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            BlockDecomposition((2, 10, 10), (3, 1, 1))

    def test_scatter_gather_round_trip(self, rng):
        d = self._decomp()
        field = rng.random((5, 16, 12, 8))
        parts = d.scatter_field(field)
        assert len(parts) == 24
        assert np.array_equal(d.gather_field(parts), field)


class TestNeighbors:
    def test_periodic_wrap(self):
        d = BlockDecomposition((8, 8, 4), (4, 2, 1))
        assert d.neighbor(0, 0, -1) == 3      # wraps in x
        assert d.neighbor(3, 0, +1) == 0

    def test_non_periodic_edge_is_none(self):
        d = BlockDecomposition((8, 8, 4), (4, 2, 1),
                               periodic=(False, False, False))
        assert d.neighbor(0, 0, -1) is None
        assert d.neighbor(3, 0, +1) is None
        assert d.neighbor(1, 0, +1) == 2

    def test_singleton_axis_has_no_neighbors(self):
        d = BlockDecomposition((8, 8, 4), (4, 2, 1))
        assert d.neighbor(0, 2, 1) is None

    def test_neighbors_is_the_six_slot_table(self):
        """Every (axis, direction) slot, ``None`` included — the halo
        route table's input."""
        d = BlockDecomposition((8, 8, 4), (4, 2, 1),
                               periodic=(True, False, True))
        assert d.neighbors(0) == {(0, -1): 3, (0, 1): 1,
                                  (1, -1): None, (1, 1): 4,
                                  (2, -1): None, (2, 1): None}
        for rank in range(d.n_nodes):
            assert d.neighbors(rank) == {
                (axis, direction): d.neighbor(rank, axis, direction)
                for axis in range(3) for direction in (-1, 1)}

    def test_face_neighbor_counts_interior_vs_corner(self):
        d = BlockDecomposition((16, 12, 4), (4, 3, 1),
                               periodic=(False, False, False))
        corner = d.rank_of((0, 0, 0))
        interior = d.rank_of((1, 1, 0))
        assert len(d.face_neighbors(corner)) == 2
        assert len(d.face_neighbors(interior)) == 4

    def test_edge_neighbors_2d(self):
        d = BlockDecomposition((16, 12, 4), (4, 3, 1),
                               periodic=(False, False, False))
        interior = d.rank_of((1, 1, 0))
        assert len(d.edge_neighbors(interior)) == 4
        corner = d.rank_of((0, 0, 0))
        assert len(d.edge_neighbors(corner)) == 1

    def test_edge_neighbors_3d(self):
        d = BlockDecomposition((8, 8, 8), (2, 2, 2))
        # Fully periodic 2^3: every node has edge neighbours on all
        # 3 axis pairs x 4 sign combinations = 12 of Sec 4.3.
        assert len(d.edge_neighbors(0)) == 12

    def test_neighbor_symmetry(self):
        d = BlockDecomposition((16, 12, 8), (4, 3, 2))
        for r in range(d.n_nodes):
            for (axis, direction), nb in d.face_neighbors(r).items():
                back = d.face_neighbors(nb).get((axis, -direction))
                assert back == r
