"""Host probes: memory-bandwidth ceiling, noise floor, memory, fingerprint."""

from __future__ import annotations

import datetime
import multiprocessing
import os
import platform
import re
import resource
import statistics
import subprocess
import time
from pathlib import Path

import numpy as np

#: First-touch page faults cost seconds per GiB on small VMs, so the
#: copy arrays stop growing here even when 4x the reported LLC is more;
#: the cap is itself larger than any LLC this repo has met and both
#: sizes are reported so a reader can tell which rule set the size.
COPY_ARRAY_CAP_MB = 320
#: LLC size assumed when neither lscpu nor sysfs reports one.
ASSUMED_LLC_MB = 32.0


def llc_mb() -> float:
    """Last-level cache in MiB as ``lscpu`` reports it (sysfs fallback)."""
    try:
        out = subprocess.run(["lscpu"], capture_output=True, text=True,
                             timeout=10).stdout
    except (OSError, subprocess.SubprocessError):
        out = ""
    best = 0.0
    for level, size, unit in re.findall(
            r"^L(\d)\w* cache:\s+([\d.]+) (KiB|MiB|GiB)", out, re.M):
        if int(level) >= 2:
            best = max(best, float(size) * {"KiB": 1 / 1024, "MiB": 1.0,
                                            "GiB": 1024.0}[unit])
    if best:
        return best
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        text = index.read_text().strip()
        if text.endswith("K"):
            best = max(best, float(text[:-1]) / 1024)
        elif text.endswith("M"):
            best = max(best, float(text[:-1]))
    return best or ASSUMED_LLC_MB


def copy_bandwidth(passes: int = 5) -> dict:
    """STREAM-style copy: bytes read plus bytes written per second.

    Each array is 4x the LLC (capped, see ``COPY_ARRAY_CAP_MB``); the
    first pass faults the destination in and is dropped.
    """
    llc = llc_mb()
    array_mb = min(4.0 * llc, COPY_ARRAY_CAP_MB)
    n = int(array_mb * (1 << 20)) // 4
    src = np.ones(n, dtype=np.float32)
    dst = np.empty_like(src)
    times = []
    for _ in range(passes + 1):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        times.append(time.perf_counter() - t0)
    gbs = 2.0 * src.nbytes / statistics.median(times[1:]) / 1e9
    return {"copy_gbs": gbs, "array_mb": src.nbytes / (1 << 20), "llc_mb": llc}


class NoiseProbe:
    """A fixed numpy kernel timed in bursts spread over the run."""

    def __init__(self) -> None:
        self._a = np.full((19, 48, 48, 24), 0.5, dtype=np.float32)
        self._b = np.empty_like(self._a)
        self.samples: list[float] = []

    def burst(self, n: int = 15) -> None:
        for _ in range(n):
            t0 = time.perf_counter()
            np.multiply(self._a, 1.0001, out=self._b)
            self._b += self._a
            self.samples.append(time.perf_counter() - t0)

    def frac(self) -> float:
        """IQR / median of every sample so far."""
        if len(self.samples) < 4:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / statistics.median(self.samples)


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its live worker processes."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    for child in multiprocessing.active_children():
        try:
            status = Path(f"/proc/{child.pid}/status").read_text()
        except OSError:
            continue
        found = re.search(r"^VmHWM:\s+(\d+) kB", status, re.M)
        if found:
            kb += int(found.group(1))
    return kb / 1024.0


def fingerprint() -> dict:
    """Who measured, where, on what commit (commit is 'unknown' outside git)."""
    root = Path(__file__).resolve().parent.parent
    try:
        commit = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        commit = ""
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "commit": commit or "unknown",
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"),
        "host": {"cpu": model, "nproc": os.cpu_count(),
                 "machine": platform.machine(),
                 "kernel": platform.release(),
                 "python": platform.python_version(),
                 "numpy": np.__version__},
    }
