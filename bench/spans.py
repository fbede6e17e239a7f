"""Spans recorded from outside the program.

``SpanRecorder.wrap`` sets a timing closure as an *instance attribute*
over a public method of an object the drivers already expose, so
nothing under ``src/`` changes and ``restore()`` puts every object
back exactly as it was.  A span is
``(name, t0, t1, parent, step, rank, thread)``: ``parent`` indexes the
enclosing span on the same thread (-1 for none), ``step`` is the id of
the root call (``cluster.step`` / ``solver.step``) in flight — the
request id every span of one time step shares, including those the
driver's communication thread records.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from collections import defaultdict

NAME, T0, T1, PARENT, STEP, RANK, THREAD = range(7)

#: Cluster-node methods the drivers call once or more per step.
NODE_METHODS = ("collide_phase", "collide_boundary_phase",
                "collide_inner_phase", "read_packed", "write_packed",
                "fill_ghost_zero_gradient", "finish_step")
#: ``read_packed(manifest, out)`` / ``write_packed(manifest, buf)``: the
#: wire buffer is the second argument.
PAYLOAD_ARG = {"read_packed": 1, "write_packed": 1}
#: Reference-solver phases (CPU ranks and the single-domain solver).
SOLVER_METHODS = ("collide", "collide_boundary", "collide_inner",
                  "fill_ghosts", "stream", "post_stream")
#: Whole-step kernels the solver may delegate to: (holder attribute,
#: method).  The holder is looked up defensively — a solver without it
#: simply records no sweep span.
SWEEP_KERNELS = (("_fused_kernel", "relax_stream"),
                 ("_aa_kernel", "step_once"))
#: Spans that make up the halo exchange (its extent, its per-call cost).
EXCHANGE_SPANS = ("node.read_packed", "node.write_packed",
                  "node.fill_ghost_zero_gradient")
_MISSING = object()


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        #: Bytes through counted boundaries, by span name (exact).
        self.bytes: dict[str, int] = defaultdict(int)
        self.step = -1
        self._stack = threading.local()
        self._installed: list[tuple] = []

    # -- installing ------------------------------------------------------
    def wrap(self, obj, attr: str, name: str, rank: int = -1,
             root: bool = False, payload: int | None = None) -> None:
        """Span every call of ``obj.attr``; ``root`` calls open a new step.

        ``payload`` is the position of an ndarray argument whose size is
        added to ``bytes[name]`` — the count taken at the same boundary
        as the time.
        """
        inner = getattr(obj, attr)
        own = vars(obj).get(attr, _MISSING)
        spans, stack_of, counted = self.spans, self._stack, self.bytes

        def spanned(*args, **kwargs):
            stack = stack_of.__dict__.setdefault("s", [])
            if root:
                self.step += 1
            if payload is not None:
                counted[name] += args[payload].nbytes
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[index] = (name, t0, t1, parent, self.step, rank,
                                threading.current_thread().name)

        setattr(obj, attr, spanned)
        self._installed.append((obj, attr, own))

    def restore(self) -> None:
        """Remove every wrapper, leaving each object as it was found."""
        for obj, attr, own in reversed(self._installed):
            if own is _MISSING:
                delattr(obj, attr)
            else:
                setattr(obj, attr, own)
        self._installed.clear()

    def install_solver(self, solver, rank: int = -1,
                       root: bool = False) -> None:
        if root:
            self.wrap(solver, "step", "solver.step", rank, root=True)
        for attr in SOLVER_METHODS:
            if callable(getattr(solver, attr, None)):
                self.wrap(solver, attr, f"solver.{attr}", rank)
        for boundary in getattr(solver, "boundaries", ()):
            self.wrap(boundary, "pre_stream", "solver.pre_stream", rank)
        for holder, attr in SWEEP_KERNELS:
            kernel = getattr(solver, holder, None)
            if kernel is not None:
                self.wrap(kernel, attr, f"kernel.{attr}", rank)

    def install_cluster(self, cluster) -> None:
        """Span a coordinator-driven cluster and every in-process node.

        On the processes backend the nodes are slotted proxies of ranks
        living elsewhere: only ``cluster.step`` can be spanned.
        """
        self.wrap(cluster, "step", "cluster.step", root=True)
        self.wrap(cluster.switch, "phase_time", "switch.phase_time")
        for rank, node in enumerate(cluster.nodes):
            if not hasattr(node, "__dict__"):
                continue
            for attr in NODE_METHODS:
                if callable(getattr(node, attr, None)):
                    self.wrap(node, attr, f"node.{attr}", rank,
                              payload=PAYLOAD_ARG.get(attr))
            solver = getattr(node, "solver", None)
            if solver is not None:
                self.install_solver(solver, rank)

    # -- reading ---------------------------------------------------------
    def self_times(self) -> list[float]:
        """Each span's duration minus the part its children cover.

        Children share the parent's thread and run one after another,
        so their summed durations are the covered interval.
        """
        covered = [0.0] * len(self.spans)
        for s in self.spans:
            if s[PARENT] >= 0:
                covered[s[PARENT]] += s[T1] - s[T0]
        return [s[T1] - s[T0] - c for s, c in zip(self.spans, covered)]

    def write_jsonl(self, path) -> None:
        keys = ("name", "t0", "t1", "parent", "step", "rank", "thread")
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(keys, s))) + "\n")


def layer_budget(rec: SpanRecorder, layer_of) -> dict:
    """Per-step layer budget of the traced steps, as medians over steps.

    ``layer_of(name)`` maps a span name to the per-layer metric its
    self time belongs to, or ``None`` for driver glue (the root span
    and thin node methods), which is what is left of the step after the
    layers are taken out: the coordinator's own time.

    A layer's number is its self time summed over every thread, but
    only spans on the root's thread add up to the step: what the
    communication thread records runs concurrently with the inner
    collide, so it is left out of the coordinator's remainder and also
    reported as the exchange's extent and as per-call medians.
    """
    selfs = rec.self_times()
    roots = {s[STEP]: s for s in rec.spans if s[PARENT] < 0
             and s[NAME] in ("cluster.step", "solver.step")}
    layers: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    inside: dict[int, float] = defaultdict(float)
    extent: dict[int, list[float]] = {}
    calls: dict[str, list[float]] = defaultdict(list)
    for s, own in zip(rec.spans, selfs):
        root = roots.get(s[STEP])
        if root is None:
            continue
        layer = layer_of(s[NAME])
        if s[NAME] in EXCHANGE_SPANS:
            lo_hi = extent.setdefault(s[STEP], [s[T0], s[T1]])
            lo_hi[0] = min(lo_hi[0], s[T0])
            lo_hi[1] = max(lo_hi[1], s[T1])
            calls[s[NAME]].append(s[T1] - s[T0])
        if layer is not None:
            layers[s[STEP]][layer] += own
            if s[THREAD] == root[THREAD]:
                inside[s[STEP]] += own
    walls = {step: r[T1] - r[T0] for step, r in roots.items()}
    names = sorted({k for per in layers.values() for k in per})
    out = {name: _median([layers[step].get(name, 0.0) for step in walls])
           for name in names}
    out["coordinator"] = _median([walls[s] - inside[s] for s in walls])
    out["exchange_extent"] = _median([hi - lo for lo, hi in extent.values()])
    out["wall"] = _median(list(walls.values()))
    total = sum(walls.values())
    out["attributed_frac"] = sum(inside.values()) / total if total else 0.0
    out["steps"] = len(walls)
    for name, durations in calls.items():
        out[f"call:{name}"] = _median(durations)
    return out


def _median(values) -> float:
    return statistics.median(values) if values else 0.0
