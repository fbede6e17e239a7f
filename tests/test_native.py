"""Building and loading the compiled AA sweep (:mod:`repro.lbm.native`).

Every test points the on-disk cache at its own ``tmp_path`` and clears
the per-process memo, so nothing here reads or writes the user cache:

* two processes starting on an empty cache build one object and step
  bit-identically;
* a truncated cached object is rebuilt, not crashed on;
* with no compiler on ``PATH`` the solver, a serial cluster and an SPMD
  run resolve ``split``, say why, and still match the reference;
* a warm load runs no subprocess;
* under GCC, every sweep loop of ``aa_even``/``aa_odd`` vectorises,
  for the host and (on x86-64) for ``-march=x86-64-v2``.
"""

from __future__ import annotations

import hashlib
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.core.decomposition import BlockDecomposition
from repro.core.spmd import SPMDClusterLBM
from repro.lbm import D2Q9, LBMSolver, native

SRC = Path(__file__).resolve().parents[1] / "src"

#: Steps a small random D2Q9 float64 problem (the cheapest unit to
#: compile) and prints the kernel it ran and a digest of ``f``.
STEP_SCRIPT = """
import hashlib, sys
from pathlib import Path
import numpy as np
from repro.lbm import native
native.CACHE_DIR = Path(sys.argv[1])
from tests.test_native import stepped
s = stepped(sys.argv[2])
print(s.kernel_used, hashlib.sha256(s.f.tobytes()).hexdigest())
"""


def stepped(kernel: str) -> LBMSolver:
    shape = (12, 10)
    solid = np.zeros(shape, bool)
    solid[5:7, 3:6] = True
    s = LBMSolver(shape, tau=0.7, lattice=D2Q9, dtype=np.float64,
                  solid=solid, kernel=kernel)
    u = 0.03 * np.random.default_rng(3).standard_normal((2,) + shape)
    u[:, solid] = 0
    s.initialize(rho=np.ones(shape), u=u)
    s.step(5)
    return s


@pytest.fixture
def cache(tmp_path, monkeypatch):
    monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
    monkeypatch.setattr(native, "_LOADED", {})
    return tmp_path


def _digest(s: LBMSolver) -> str:
    return hashlib.sha256(s.f.tobytes()).hexdigest()


def test_two_processes_on_an_empty_cache_build_one_object(cache):
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([str(SRC), str(SRC.parent)]))
    procs = [subprocess.Popen([sys.executable, "-c", STEP_SCRIPT, str(cache),
                               "auto"], stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env)
             for _ in range(2)]
    outs = [p.communicate(timeout=300) for p in procs]
    assert [p.returncode for p in procs] == [0, 0], [err for _, err in outs]
    expect = f"aa {_digest(stepped('split'))}"
    assert [out.strip() for out, _ in outs] == [expect, expect]
    assert [p.suffix for p in cache.iterdir()] == [".so"]


def test_truncated_object_is_rebuilt(cache):
    info = native.describe(D2Q9, np.float64)
    # What a writer killed mid-copy would leave: an ELF header, no body.
    Path(info["path"]).write_bytes(b"\x7fELF\x02\x01\x01" + bytes(57))
    lib, missing = native.load(D2Q9, np.float64)
    assert lib is not None and missing is None
    assert Path(info["path"]).stat().st_size > 64
    s = stepped("auto")
    assert s.kernel_used == "aa"
    assert _digest(s) == _digest(stepped("split"))


def test_no_compiler_resolves_split_and_says_why(cache, monkeypatch):
    monkeypatch.setenv("PATH", "")
    s = stepped("auto")
    assert s.kernel_used == "split" and "no C compiler" in s.kernel_reason
    assert _digest(s) == _digest(stepped("split"))

    shape = (8, 6, 4)
    ref = LBMSolver(shape, tau=0.7, kernel="split")
    u = 0.02 * np.random.default_rng(0).standard_normal((3,) + shape)
    ref.initialize(rho=np.ones(shape, np.float32), u=u.astype(np.float32))
    f0 = ref.f.copy()
    ref.step(3)
    cfg = ClusterConfig(sub_shape=(4, 3, 4), arrangement=(2, 2, 1), tau=0.7)
    with CPUClusterLBM(cfg) as cluster:
        assert cluster.resolved_kernel == "split"
        row = cluster.kernel_report(cluster=True)[-1]
        assert "no C compiler" in row["reason"]
        cluster.load_global_distributions(f0)
        cluster.step(3)
        assert np.array_equal(cluster.gather_distributions(), ref.f)
    spmd = SPMDClusterLBM(BlockDecomposition(shape, (2, 1, 1),
                                             periodic=(True, True, True)),
                          tau=0.7, f0=f0)
    f, _ = spmd.run(3)
    assert np.array_equal(f, ref.f)


def test_warm_load_runs_no_subprocess(cache, monkeypatch):
    assert native.load(D2Q9, np.float64)[0] is not None     # cold: builds
    monkeypatch.setattr(native, "_LOADED", {})

    def no_subprocess(*args, **kwargs):
        raise AssertionError("a warm load ran a subprocess")
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    lib, missing = native.load(D2Q9, np.float64)
    assert lib is not None and missing is None


def test_every_sweep_loop_vectorizes(tmp_path):
    """The phases' site loops (``for (long i ...``: the even phase's
    chunks, the odd phase's spans; with and without a force) are
    reported vectorised, for the host's ``-march=native`` build and for
    ``-march=x86-64-v2`` (no AVX2, so no masked stores: the odd phase's
    keep-select is a bit blend).  Built into ``tmp_path``, not the
    cache."""
    cc = shutil.which(native.COMPILER)
    if cc is None or "Free Software Foundation" not in subprocess.run(
            [cc, "--version"], capture_output=True, text=True).stdout:
        pytest.skip("the vectoriser report read here is GCC's")
    src = native.source(D2Q9, np.float64)
    c_file = tmp_path / "aa.c"
    c_file.write_text(src)
    lines = src.splitlines()
    loops = {n + 1 for n, line in enumerate(lines)
             if line.startswith("for (long i = 0; ")}
    assert len(loops) == 4
    baseline = [f for f in native.FLAGS if not f.startswith("-march=")]
    builds = [native.FLAGS]
    if platform.machine() == "x86_64":
        builds.append(baseline + ["-march=x86-64-v2"])
    for flags in builds:
        done = subprocess.run([native.COMPILER, *flags,
                               "-fopt-info-vec-optimized", str(c_file),
                               "-o", str(tmp_path / "aa.so")],
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        vectorized = {int(line.split(":")[1])
                      for line in done.stderr.splitlines()
                      if line.startswith(str(c_file))
                      and "loop vectorized" in line}
        assert loops <= vectorized, (flags, sorted(loops - vectorized))
