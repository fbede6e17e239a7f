"""Wall-clock benchmarks of the real numeric kernels.

These are not paper numbers — they measure this reproduction's own
substrate (vectorized numpy) so regressions in the hot loops are
caught: collision, streaming, the full reference step, the texture-path
step, the distributed cluster step, and the tracer update.
"""

import numpy as np
import pytest

from repro.core import ClusterConfig, GPUClusterLBM
from repro.gpu.lbm_gpu import GPULBMSolver
from repro.lbm import BGKCollision, D3Q19, LBMSolver, MRTCollision, TracerCloud
from repro.lbm.streaming import stream_periodic

SHAPE = (48, 48, 48)


@pytest.fixture(scope="module")
def f48(request):
    rng = np.random.default_rng(0)
    base = D3Q19.w.astype(np.float32).reshape(19, 1, 1, 1)
    return (base * (1 + 0.01 * rng.standard_normal((19,) + SHAPE))
            ).astype(np.float32)


def test_bgk_collision_kernel(benchmark, f48):
    op = BGKCollision(D3Q19, tau=0.7)
    f = f48.copy()
    benchmark(lambda: op(f))
    cells = np.prod(SHAPE)
    benchmark.extra_info["Mcells/s"] = round(
        cells / benchmark.stats["mean"] / 1e6, 1)


def test_mrt_collision_kernel(benchmark, f48):
    op = MRTCollision(D3Q19, tau=0.7)
    f = f48.copy()
    benchmark(lambda: op(f))


def test_streaming_kernel(benchmark, f48):
    out = np.empty_like(f48)
    benchmark(lambda: stream_periodic(D3Q19, f48, out=out))


def test_reference_full_step(benchmark):
    solver = LBMSolver(SHAPE, tau=0.7, kernel="split")
    benchmark(lambda: solver.step(1))
    benchmark.extra_info["Mcells/s"] = round(
        np.prod(SHAPE) / benchmark.stats["mean"] / 1e6, 1)


def test_texture_path_full_step(benchmark):
    solver = GPULBMSolver((24, 24, 24), tau=0.7)
    benchmark(lambda: solver.step(1))


def test_cluster_numeric_step(benchmark):
    cfg = ClusterConfig(sub_shape=(16, 16, 16), arrangement=(2, 2, 1),
                        tau=0.7)
    cluster = GPUClusterLBM(cfg)
    benchmark(lambda: cluster.step(1))


def test_cluster_timing_model_sweep(benchmark):
    """Cost of evaluating the whole Table-1 timing model once."""
    from repro.perf.model import table1_row
    benchmark(lambda: table1_row(32))


def test_tracer_update(benchmark, f48):
    cloud = TracerCloud(D3Q19, np.full((20000, 3), 24), SHAPE,
                        periodic=True, rng=0)
    benchmark(lambda: cloud.step(f48))
    benchmark.extra_info["Mtracers/s"] = round(
        len(cloud) / benchmark.stats["mean"] / 1e6, 2)
