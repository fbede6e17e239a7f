"""Obstacle-mask helpers for flow setups.

The paper's geometry enters the solver as voxel masks; these
constructors build the common shapes used by tests.
"""

from __future__ import annotations

import numpy as np


def sphere(shape, center, radius: float) -> np.ndarray:
    """Solid ball (voxelized)."""
    grids = np.ogrid[tuple(slice(0, s) for s in shape)]
    r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
    return r2 < radius ** 2


def cylinder(shape, center_xy, radius: float, axis: int = 2) -> np.ndarray:
    """Solid cylinder along ``axis``."""
    if len(shape) != 3:
        raise ValueError("cylinder expects a 3D shape")
    other = [a for a in range(3) if a != axis]
    grids = np.ogrid[tuple(slice(0, s) for s in shape)]
    r2 = ((grids[other[0]] - center_xy[0]) ** 2
          + (grids[other[1]] - center_xy[1]) ** 2)
    return np.broadcast_to(r2 < radius ** 2, shape).copy()


def backward_facing_step(shape, step_height: int, step_length: int) -> np.ndarray:
    """The classic separating-flow geometry: a solid step on the floor
    at the inlet end."""
    solid = np.zeros(shape, dtype=bool)
    solid[:step_length, :, :step_height] = True
    return solid
