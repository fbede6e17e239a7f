"""The Sec 4.4 "three enhancements" and other what-if studies.

"Three enhancements can further improve this speedup factor ...
(1) Using a faster network, such as Myrinet.  (2) Using the
PCI-Express bus ...  (3) Using GPUs with larger texture memories ...
so that each GPU can compute a larger sub-domain of the lattice and
thereby increase the computation/communication ratio."

Plus: the sub-domain shape study (cube vs slab — "the cube has the
smallest ratio between boundary surface area and volume", Sec 4.3) and
the MPI_Barrier trade-off ("synchronizing the nodes by calling
MPI_barrier() at each scheduled step improves the network performance
[below 16 nodes]; ... [above,] the overhead of the synchronization
overwhelms the performance gained", Sec 4.3).
"""

from __future__ import annotations

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.core.decomposition import arrange_nodes_2d, surface_to_volume
from repro.gpu.specs import GEFORCE_FX_5800_ULTRA, PCIE_X16
from repro.net.switch import GigabitSwitch
from repro.perf import calibration as cal

#: Myrinet (2004): ~2 Gb/s links, microsecond latencies, OS-bypass.
#: Modeled as 8x the effective per-flow throughput and 1/10 the fixed
#: overheads of the TCP/GbE stack.
MYRINET_EFFECTIVE_BYTES_PER_S = 8 * cal.NET_EFFECTIVE_BYTES_PER_S

#: OS-bypass shrinks the fixed envelope/phase/drift overheads ~10x.
MYRINET_OVERHEAD_SCALE = 0.1


class MyrinetSwitch(GigabitSwitch):
    """A low-latency SAN in place of the gigabit Ethernet switch.

    Purely a re-parameterisation of :class:`GigabitSwitch` — the base
    class owns the timing structure *and* the span tracing, so a traced
    Myrinet what-if emits the same ``net.round``/``net.phase`` spans
    (and advances the simulated network clock) as the GbE baseline.
    """

    def __init__(self) -> None:
        super().__init__(effective_bytes_per_s=MYRINET_EFFECTIVE_BYTES_PER_S,
                         message_overhead_scale=MYRINET_OVERHEAD_SCALE,
                         phase_overhead_scale=MYRINET_OVERHEAD_SCALE,
                         drift_scale=MYRINET_OVERHEAD_SCALE)


def enhancement_speedups(nodes: int = 32, sub_shape=(80, 80, 80)) -> dict[str, float]:
    """GPU/CPU speedup under each Sec-4.4 enhancement (and baseline)."""
    out: dict[str, float] = {}

    def run(label: str, **cfg_kwargs) -> None:
        arrangement = cfg_kwargs.pop("arrangement", arrange_nodes_2d(nodes))
        shape = cfg_kwargs.pop("sub_shape", sub_shape)
        cfg = ClusterConfig(sub_shape=shape, arrangement=arrangement,
                            timing_only=True, periodic=(False, False, False),
                            **cfg_kwargs)
        gpu = GPUClusterLBM(cfg).step()
        cpu_cfg = ClusterConfig(sub_shape=shape, arrangement=arrangement,
                                timing_only=True, periodic=(False, False, False))
        cpu = CPUClusterLBM(cpu_cfg).step()
        out[label] = cpu.total_s / gpu.total_s

    run("baseline (GbE + AGP 8x + 128MB)")
    run("(1) Myrinet network", switch=MyrinetSwitch())
    run("(2) PCI-Express x16 bus", bus=PCIE_X16)
    # (3) 256 MB GPUs: the largest cubic sub-domain that fits doubles
    # the compute/communication ratio.  104^3 fits 2x the 5800's budget.
    big = largest_cube_for_memory(2 * GEFORCE_FX_5800_ULTRA.usable_lattice_bytes)
    big -= big % 2
    run(f"(3) 256MB GPUs ({big}^3 sub-domains)", sub_shape=(big, big, big))
    run("all three",
        switch=MyrinetSwitch(), bus=PCIE_X16, sub_shape=(big, big, big))
    return out


def largest_cube_for_memory(usable_bytes: int) -> int:
    """Largest cubic sub-domain fitting the packed layout (Sec 2)."""
    from repro.gpu.packing import max_cubic_lattice
    return max_cubic_lattice(usable_bytes)


def subdomain_shape_study(cells: int = 80 ** 3, nodes: int = 8) -> list[dict]:
    """Cube vs slab sub-domains at equal volume (Sec 4.3).

    Equal cells per node, different block shapes, in a 3D node
    arrangement (so every face is a communicated face, as the paper's
    argument assumes): the cube minimises surface/volume and hence
    communication bytes, so its step time is the smallest.
    """
    from repro.core.decomposition import arrange_nodes_3d

    shapes = []
    n = round(cells ** (1 / 3))
    shapes.append((n, n, n))                        # cube
    shapes.append((n * 2, n, n // 2))               # brick
    shapes.append((n * 4, n, n // 4))               # slab-ish
    shapes.append((n * 4, n * 2, n // 8))           # thin slab
    rows = []
    arrangement = arrange_nodes_3d(nodes)
    for shape in shapes:
        cfg = ClusterConfig(sub_shape=shape, arrangement=arrangement,
                            timing_only=True, periodic=(False, False, False))
        t = GPUClusterLBM(cfg).step()
        rows.append({
            "sub_shape": shape,
            "surface_to_volume": surface_to_volume(shape),
            "net_total_ms": t.net_total_s * 1e3,
            "total_ms": t.total_s * 1e3,
        })
    return rows


# ---------------------------------------------------------------------------
# MPI_Barrier trade-off (Sec 4.3)
# ---------------------------------------------------------------------------
#: Modeled per-step barrier cost: a TCP-tree barrier whose straggler
#: tail grows superlinearly with participants on a non-dedicated OS.
BARRIER_STEP_COEF_S = 0.09e-3
BARRIER_STEP_EXPONENT = 1.5

#: Modeled desynchronisation cost when steps free-run: drift between
#: schedule steps lets a third sender interrupt a busy port; grows
#: sublinearly (stalls partially overlap).
DESYNC_COEF_S = 4.4e-3
DESYNC_EXPONENT = 0.62


def barrier_tradeoff(nodes: int, n_steps: int = 4) -> dict[str, float]:
    """Per-phase extra cost (s) with and without per-step barriers.

    Calibrated so the crossover sits at the paper's 16 nodes: below it
    the barrier is cheaper than the desync it prevents, above it the
    barrier overhead overwhelms the gain.
    """
    barrier = n_steps * BARRIER_STEP_COEF_S * nodes ** BARRIER_STEP_EXPONENT
    desync = DESYNC_COEF_S * nodes ** DESYNC_EXPONENT
    return {
        "nodes": nodes,
        "barrier_cost_s": barrier,
        "desync_cost_s": desync,
        "barrier_wins": barrier < desync,
    }


def barrier_crossover() -> int:
    """Smallest node count at which barriers stop paying off."""
    for n in range(2, 65):
        if not barrier_tradeoff(n)["barrier_wins"]:
            return n
    return 65
