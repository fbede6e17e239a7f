"""Kernel selection on the solid-heavy city mask.

The fluid-compacted ``sparse`` kernel is gone and occupancy plays no
part in the rule, so a solid-heavy domain resolves exactly as an empty
one.  These tests pin the fallbacks on that mask (a forced ``"aa"`` the
solver cannot run steps ``split``) and the rejection of kernel names
that select no code.
"""

import numpy as np
import pytest

from repro.lbm import LBMSolver

CITY_SHAPE = (24, 20, 4)


def _city_solid(shape=CITY_SHAPE):
    """Solid-heavy (~55%) voxelization of the procedural city."""
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city
    return voxelize_city(times_square_like(seed=7), shape,
                         resolution_m=24.0, ground_layers=2)


class TestKernelSelection:
    def test_mrt_falls_back_to_split(self):
        s = LBMSolver(CITY_SHAPE, tau=0.7, solid=_city_solid(),
                      collision="mrt", kernel="aa")
        assert s.solid_fraction > 0.5
        s.step(2)
        assert s.kernel_used == "split"
        assert s._aa_kernel is None
        assert "fell back to split" in s.kernel_reason

    def test_invalid_kernel_name_rejected(self):
        for kernel in ("dense", "sparse"):
            with pytest.raises(ValueError, match="kernel"):
                LBMSolver((8, 8, 8), tau=0.7, kernel=kernel)
