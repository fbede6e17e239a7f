"""Hardware datasheets, with the paper's published numbers as provenance.

Every constant that the performance model depends on is defined here
with a comment naming the paper section (or the calibration experiment)
it comes from, so the reproduction's assumptions are auditable in one
place.  Derived throughputs (e.g. ns/cell for an 80^3 LBM step) live in
``repro.perf.calibration``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

MB = 1_000_000          # decimal MB, as GPU marketing (and the paper) use
MiB = 1 << 20
GB = 1_000_000_000


@dataclass(frozen=True)
class GPUSpec:
    """A graphics card, as seen by the simulator.

    Attributes
    ----------
    name:
        Marketing name.
    fragment_pipes:
        Parallel fragment processors ("up to 16 fragments ... processed
        in parallel", Sec 2).
    core_clock_hz:
        Fragment-pipeline clock.
    fragment_gflops:
        Peak 4-wide MAD throughput of the fragment stage; the paper
        quotes 16 GFlops for the FX 5800 Ultra (Sec 3) and ~40 GFlops
        observed for the 6800 Ultra (Sec 1).
    texture_memory_bytes:
        On-board memory (128 MB for the FX 5800 Ultra).
    usable_lattice_bytes:
        Portion actually allocatable for lattice data; the paper
        measured "at most 86 MB" on the 128 MB FX 5800 Ultra, yielding
        a 92^3 maximum lattice (Sec 2).  Calibrated so that exactly
        92^3 fits under the packed-layout footprint of 112 B/cell
        (see ``repro.gpu.packing``).
    memory_bandwidth_gbps:
        On-board texture memory bandwidth (35.2 GB/s quoted for the
        6800 Ultra; 16 GB/s datasheet for the FX 5800 Ultra).
    lbm_throughput_scale:
        Relative LBM fragment throughput vs the FX 5800 Ultra; used to
        derive per-pass timing for the other cards (5900 Ultra treated
        as equal-generation ~1.0; 6800 Ultra "at least 2.5 times
        faster", Sec 4.4).
    price_usd:
        Street price the paper quotes ($399 in April 2003 for the
        FX 5800 Ultra).
    """

    name: str
    fragment_pipes: int
    core_clock_hz: float
    fragment_gflops: float
    texture_memory_bytes: int
    usable_lattice_bytes: int
    memory_bandwidth_gbps: float
    lbm_throughput_scale: float
    price_usd: float


@dataclass(frozen=True)
class CPUSpec:
    """A host CPU for the software LBM baseline.

    ``lbm_ns_per_cell`` is the calibrated single-thread D3Q19 BGK cost
    (no SSE, as in the paper's comparison): the Xeon 2.4 GHz value is
    fixed by Table 1 (1420 ms for an 80^3 sub-domain = 2773 ns/cell);
    the P4 2.53 GHz value is fixed by the Sec 4.2 single-GPU result
    (FX 5900 Ultra about 8x faster).
    """

    name: str
    clock_hz: float
    peak_gflops: float
    lbm_ns_per_cell: float
    sse_speedup: float = 2.5   # Sec 4.4: SSE "about 2 to 3 times faster"


@dataclass(frozen=True)
class BusSpec:
    """GPU <-> host bus with asymmetric bandwidth (Sec 3).

    ``overhead_s`` is the fixed per-transfer initialisation cost (the
    paper minimises the number of read operations precisely because
    this overhead is large).
    """

    name: str
    downstream_bytes_per_s: float   # host -> GPU
    upstream_bytes_per_s: float     # GPU -> host (readback)
    overhead_s: float

    def downstream_time(self, nbytes: int) -> float:
        """Seconds to push ``nbytes`` to the GPU."""
        return self.overhead_s + nbytes / self.downstream_bytes_per_s

    def upstream_time(self, nbytes: int) -> float:
        """Seconds to read ``nbytes`` back from the GPU."""
        return self.overhead_s + nbytes / self.upstream_bytes_per_s


# --------------------------------------------------------------------------
# GPUs
# --------------------------------------------------------------------------

#: The cluster's GPU: nVIDIA GeForce FX 5800 Ultra ($399, April 2003).
GEFORCE_FX_5800_ULTRA = GPUSpec(
    name="GeForce FX 5800 Ultra",
    fragment_pipes=8,               # 4x2 architecture
    core_clock_hz=500e6,
    fragment_gflops=16.0,           # Sec 3: "theoretical peak of 16 Gflops"
    texture_memory_bytes=128 * MB,
    usable_lattice_bytes=87_300_000,  # "at most 86 MB" measured; see class doc
    memory_bandwidth_gbps=16.0,
    lbm_throughput_scale=1.0,
    price_usd=399.0,
)

#: Used for the Sec 4.2 single-GPU comparison (8x over a P4 2.53 GHz).
GEFORCE_FX_5900_ULTRA = GPUSpec(
    name="GeForce FX 5900 Ultra",
    fragment_pipes=8,
    core_clock_hz=450e6,
    fragment_gflops=16.0,
    texture_memory_bytes=256 * MB,
    usable_lattice_bytes=180_000_000,
    memory_bandwidth_gbps=27.2,
    lbm_throughput_scale=1.0,       # same generation; see CPUSpec doc
    price_usd=499.0,
)

#: Sec 1/4.4: "observed to reach 40 GFlops", "at least 2.5 times faster".
GEFORCE_6800_ULTRA = GPUSpec(
    name="GeForce 6800 Ultra",
    fragment_pipes=16,
    core_clock_hz=400e6,
    fragment_gflops=40.0,
    texture_memory_bytes=256 * MB,
    usable_lattice_bytes=180_000_000,
    memory_bandwidth_gbps=35.2,     # Sec 1
    lbm_throughput_scale=2.5,
    price_usd=499.0,
)

# --------------------------------------------------------------------------
# CPUs
# --------------------------------------------------------------------------

#: Cluster node CPU (one of the two Xeons used for the CPU baseline).
#: 1420 ms per 80^3 step (Table 1) -> 1420e6 ns / 512000 cells.
XEON_2_4 = CPUSpec(
    name="Pentium Xeon 2.4 GHz",
    clock_hz=2.4e9,
    peak_gflops=5.0,                # Sec 3: the dual "reaches approximately
                                    # 10 Gflops" -> 5 per processor
    lbm_ns_per_cell=1420e6 / (80 ** 3),
)

#: The same Xeon running the SSE build of the software LBM (Sec 4.4:
#: "about 2 to 3 times faster"): only the per-cell cost changes.
XEON_2_4_SSE = replace(XEON_2_4, lbm_ns_per_cell=XEON_2_4.lbm_ns_per_cell
                       / XEON_2_4.sse_speedup)

#: Sec 4.2 baseline: "Pentium IV 2.53GHz without using SSE instructions".
#: Calibrated so FX 5900 Ultra / P4 = 8x.
PENTIUM4_2_53 = CPUSpec(
    name="Pentium 4 2.53 GHz",
    clock_hz=2.53e9,
    peak_gflops=5.06,
    lbm_ns_per_cell=8.0 * 417.97,   # 8 x the FX-class per-cell cost
)

# --------------------------------------------------------------------------
# Buses
# --------------------------------------------------------------------------

#: Sec 3: "2.1GB/sec peak for downstream and 133MB/sec peak for upstream".
#: The per-transfer overhead is calibrated (with the gather-pass cost in
#: ``repro.perf.calibration``) against the Table 1 "GPU and CPU
#: Communication" column (13 ms with one neighbour, ~50 ms plateau).
AGP_8X = BusSpec(
    name="AGP 8x",
    downstream_bytes_per_s=2.1e9,
    upstream_bytes_per_s=133e6,
    overhead_s=1.0e-3,
)

#: Sec 3: "a graphics card can communicate with the system at 4GB/sec in
#: both upstream and downstream directions" — the what-if of Sec 4.4.
PCIE_X16 = BusSpec(
    name="PCI-Express x16",
    downstream_bytes_per_s=4.0e9,
    upstream_bytes_per_s=4.0e9,
    overhead_s=0.2e-3,
)
