"""No occupancy threshold in the kernel rule, no measured probe in the
cluster.

The rule once switched to a sparse kernel at ``solid_fraction >= 0.5``
and the cluster coordinator could time candidate kernels
(``autotune=``).  Both are gone: the solid fraction on either side of
the old threshold resolves the same kernel, and the option that chose
the probe is refused.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ClusterConfig
from repro.lbm import LBMSolver

SHAPE = (10, 10, 4)  # 400 cells: exact halves are representable


def _solver(n_solid: int, **kwargs):
    solid = np.zeros(SHAPE, bool)
    solid.reshape(-1)[:n_solid] = True
    return LBMSolver(SHAPE, tau=0.7, solid=solid, **kwargs)


class TestHeuristicBoundary:
    def test_just_below_threshold_picks_split(self, post_stream_only):
        """A handler with no face rules the in-place kernel out just
        below the old threshold and at it alike; without one, both
        occupancies resolve ``aa``."""
        for n_solid in (199, 200):
            s = _solver(n_solid, boundaries=[post_stream_only()])
            s.step(1)
            assert s.kernel_used == "split", n_solid
            assert "not face-resident" in s.kernel_reason
            s = _solver(n_solid)
            s.step(1)
            assert s.kernel_used == "aa", n_solid

    def test_invalid_autotune_rejected(self):
        with pytest.raises(TypeError, match="autotune"):
            ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                          autotune="fastest")
