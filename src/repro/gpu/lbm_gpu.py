"""The D3Q19 LBM step as fragment programs on the simulated GPU (Sec 4.2).

"The LBM operations (e.g., streaming, collision, and boundary
conditions) are translated into fragment programs to be executed in the
rendering passes.  For each fragment in a given pass, the fragment
program fetches any required current lattice state information from the
appropriate textures, computes the LBM equations to evaluate the new
lattice states, and renders the results to a pixel buffer."

Pass suite per time step (declared per-fragment costs feed the timing
model; their totals are the anchors in ``repro.perf.calibration``):

=========  ======  =====  ========================================
pass       ALU     fetch  role
=========  ======  =====  ========================================
macro       40       5    rho, u from the 5 distribution stacks
collide x5  50       3    BGK relaxation for 4 links (+flags)
stream  x5   4       4    pull-propagation, per-channel offsets
bounce  x5   8       6    bounce-back at solid flags
=========  ======  =====  ========================================

Two layouts are supported:

* ``mode="wrap"`` — unpadded textures, toroidal fetches: the layout of
  the paper's single-GPU solver, whose memory ceiling reproduces the
  92^3 maximum lattice of Sec 2.
* ``mode="padded"`` — one ghost texel of padding per axis: the cluster
  layout of Sec 4.3, where ghost layers are written from data received
  over the network and border layers are gathered for readback.

The device is charged what each pass costs; the host makes the same
texels however is fastest (DESIGN §5k).  With a C compiler a step is
two calls into :data:`UNIT`, ``macro`` fused with ``collide0..4`` and
one sweep that streams in place plane by plane and, while each plane is
in cache, bounces it back and applies the inlet and the outflow, plus
one strided-plane call per face copy; charged from data
(:meth:`GPULBMSolver.pass_plan`).  Without one, every pass renders its
numpy body through the per-pass engine and is charged pass by pass.
"""

from __future__ import annotations

import ctypes
import os

import numpy as np

from repro.gpu.device import SimulatedGPU
from repro.gpu.fragment import FragmentProgram, Rect, span_of
from repro.gpu.packing import D3Q19Packing, N_DISTRIBUTION_STACKS, link_location, stack_links
from repro.gpu.texture import flat_planes
from repro.lbm import native
from repro.lbm.lattice import D3Q19
from repro.lbm.equilibrium import equilibrium_site

F32 = np.float32
#: The passes one collide renders, in order.
COLLIDE = ["macro"] + [f"collide{s}" for s in range(N_DISTRIBUTION_STACKS)]
#: Every link, in order.
LINKS = tuple(range(19))
#: ``gpu_face``'s plane (``4 * stack + channel``) of each link, then of
#: the unused channel.
PLANES = tuple(4 * s + ch for s, ch in map(link_location, LINKS)) + (19,)
#: Per axis, the links that cross its faces (``c[axis] != 0``).
CROSSING = tuple(tuple(int(q) for q in np.flatnonzero(D3Q19.c[:, a])) for a in range(3))
#: The C types of a rank row of ``gpu_collide`` and of ``gpu_sweep``
#: (:func:`_source`): addresses, NULL where absent.
COLLIDE_ROW = ("T *const *", "const long *", "const T *", "const T *", "const T *")
SWEEP_ROW = ("T *const *", "const long *", "T *", "const long *", "const T *",
             "const long *", "const long *")


def _source(lat, dtype) -> str:
    """The step's compiled passes as C, generated from the lattice tables
    and the texture packing (DESIGN §5k).  ``tex`` holds the texel
    addresses of ``f0..f4`` and ``macro``; link ``q`` is plane ``q`` of
    ``f0..f4``, planes ``ps`` floats apart; ``g`` is a ``long`` table.

    ``gpu_collide`` and ``gpu_sweep`` each run ``n`` ranks' phase, a
    row of ``rows`` each (:data:`COLLIDE_ROW`, :data:`SWEEP_ROW`), split
    across ``nt`` threads by OpenMP (built without it, in rank order).

    * ``gpu_collide``: ``macro`` fused with ``collide0..4``, in place,
      over ``n0`` x ``n1`` rows of ``len`` texels (``s0``, ``s1`` apart)
      from texel ``at``, in the numpy bodies' op order at rate ``*om``;
      ``flags`` / ``add`` (the force) NULL when absent, one loop per
      variant.
    * ``gpu_sweep``: plane ``z`` by plane of the ``d`` x ``h`` x ``w``
      stacks (shell ``p`` = 0 or 1), each channel pulled in place over
      the interior (wrapped toroidally) from the stack's plane ``z + 1``,
      plane ``z`` (padded: in place, reading each texel before writing
      it) and the copies ``ring`` slot ``z % 2`` keeps (slot 2: plane 0,
      for wrap mode's last plane); the shell is never written, the
      unused channel is zeroed.  Then plane ``z``'s solid texels (of the
      ``n`` sorted ``runs``) bounce back, and the inlet ``in`` (with
      ``feq``) and outflow ``out`` run: ``gpu_face`` tables after the
      plane they run on (-1: each plane, its row of the face), or NULL.
    * ``gpu_face``: ``np`` planes (``4 * stack + channel``, after the
      geometry) of ``n1`` x ``n2`` texels at ``to``, strides ``t1``,
      ``t2``; the other side at ``bo``, strides ``b1``, ``b2``, is the
      same plane (``how`` 0: copied onto the first), or ``buf + k * bk``
      for the ``k``-th (1: gathered into, 2: scattered from), or
      ``buf[k]`` (3: filled with it).
    """
    Q = lat.Q
    loc = [link_location(q) for q in range(Q)]
    loop = "#pragma GCC ivdep\nfor (long i = 0; i < len; i++) {{\n{}\n}}\n"
    links = "".join(f"T *L{q} = tex[{s}] + {ch} * ps;\n" for q, (s, ch) in enumerate(loc))

    def unpack(names):
        return "".join(f"const long {n} = g[{k}];\n" for k, n in enumerate(names.split()))

    def body(flags, force):
        fluid = "(G[i] == 0)" if flags else "1"
        # Each population is stored as soon as it is relaxed (and
        # forced), so few stay live at once.
        relax = []
        for line in native.relax_lines(lat, dtype, native.collide_groups(lat, range(Q)),
                                       "rate"):
            relax.append(line)
            if line.startswith("T h"):
                q = line.split()[1][1:]
                if force:
                    relax.append(f"h{q} = (k{q} & {fluid}) ? h{q} + a{q} : h{q};")
                relax.append(f"F{q}[i] = h{q};")
        return loop.format("\n".join(
            [f"T v{q} = F{q}[i];" for q in range(Q)] + native.moment_lines(lat)
            + ["T safe = rho > 0 ? rho : ((T)1);", "O0[i] = rho;"]
            + [f"T u{a} = j{a} / safe; O{1 + a}[i] = u{a};" for a in range(3)]
            + [f"T rate = {fluid} ? omega : ((T)0);"] + relax))

    collide = (
        "static void collide(T *const *tex, const long *g, const T *flags, "
        "const T *om, const T *add) {\n" + unpack("n0 s0 n1 s1 len ps at")
        + "const T omega = *om;\n"
        + "".join(f"const T a{q} = add ? add[{q}] : 0; const int k{q} = a{q} != 0;\n"
                  for q in range(Q))
        + "for (long z = 0; z < n0; z++)\nfor (long y = 0; y < n1; y++) {\n"
        "const long b = at + z * s0 + y * s1;\n"
        + "".join(f"T *O{k} = tex[{N_DISTRIBUTION_STACKS}] + b + {k} * ps;\n"
                  for k in range(4))
        + "".join(f"T *F{q} = tex[{s}] + b + {ch} * ps;\n" for q, (s, ch) in enumerate(loc))
        + "const T *G = flags ? flags + b : 0;\n"
        + "if (G && add) {\n" + body(True, True) + "} else if (G) {\n"
        + body(True, False) + "} else if (add) {\n" + body(False, True)
        + "} else {\n" + body(False, False) + "}\n}\n}\n")

    # Bounce-back over the run of ``len`` solid texels from ``t``: each
    # opposite pair swapped.
    swap = "#pragma GCC ivdep\nfor (long i = t; i < t + len; i++) {\n" + "".join(
        f"const T v{q} = L{q}[i]; L{q}[i] = L{o}[i]; L{o}[i] = v{q};\n"
        for q, o in enumerate(map(int, lat.opp)) if q < o) + "}\n"
    face = (
        "static void face(T *const *tex, T *buf, const long *g, long row) {\n"
        + unpack("np ps n1 n2 to t1 t2 bo bk b1 b2 how")
        + "for (long k = 0; k < np; k++) {\n"
        "T *const p = tex[g[12 + k] / 4] + g[12 + k] % 4 * ps;\n"
        "T *const o = (how == 0 ? p : buf + k * bk) + bo;\n"
        "for (long a = row < 0 ? 0 : row; a < (row < 0 ? n1 : row + 1); a++) {\n"
        "T *const t = p + to + a * t1; T *const r = o + a * b1;\n"
        "if (how == 1) for (long i = 0; i < n2; i++) r[i * b2] = t[i * t2];\n"
        "else if (how == 3) for (long i = 0; i < n2; i++) t[i * t2] = buf[k];\n"
        "else for (long i = 0; i < n2; i++) t[i * t2] = r[i * b2];\n"
        "}\n}\n}\n"
        "void gpu_face(T *const *tex, T *buf, const long *g) { face(tex, buf, g, -1); }\n")

    pull = [[[-int(v) for v in lat.c[q]] for q in stack_links(s)]
            for s in range(N_DISTRIBUTION_STACKS)]
    table = ", ".join("{" + ", ".join("{%d, %d, %d}" % tuple(o) for o in offs) + "}"
                      for offs in pull)
    sweep = (
        "static void sweep(T *const *tex, const long *g, T *ring, const long *runs, "
        "const T *feq, const long *in, const long *out) {\n"
        + unpack("d h w ps p n") + "const long hw = h * w, x1 = w - p, rs = "
        f"{4 * N_DISTRIBUTION_STACKS} * hw;\n"
        f"static const long off[{N_DISTRIBUTION_STACKS}][4][3] = {{{table}}};\n"
        f"static const long used[] = {{{', '.join(str(len(o)) for o in pull)}}};\n"
        + links + "long k = 0;\n"
        "for (long z = p; z < d - p; z++) {\n"
        "T *const cur = ring + (z ? z % 2 : 2) * rs;\n"
        "const T *const prev = ring + (z - 1 ? (z - 1) % 2 : 2) * rs;\n"
        f"for (long s = 0; s < {N_DISTRIBUTION_STACKS}; s++)\n"
        "for (long c = 0; c < 4; c++) {\n"
        "const long dx = off[s][c][0], dy = off[s][c][1], dz = off[s][c][2];\n"
        "const int pulled = c < used[s];\n"
        "if (pulled && !(dx | dy | dz)) continue;\n"
        "T *const O = tex[s] + c * ps + z * hw, *const F = cur + (4 * s + c) * hw;\n"
        # Padded, a link within the plane streams in place, ordered so
        # that it reads each texel before writing it.  What is read
        # again is saved: the whole plane (for plane z + 1, wrap mode's
        # in-plane wrap and its last plane), else only the rim.
        "const int own = p && dz == 0;\n"
        "if (pulled && !own && (dz <= 0 || z == 0))\n"
        "for (long i = 0; i < hw; i++) F[i] = O[i];\n"
        "else if (p) for (long y = p; y < h - p; y++) { F[y * w] = O[y * w]; "
        "F[y * w + w - 1] = O[y * w + w - 1]; }\n"
        # Plane z - 1: saved, or (first plane) the ghost plane or wrap
        # mode's last plane, itself when that is plane z.
        "const long zb = (z - 1 + d) % d;\n"
        "const T *S = dz == 0 ? (own ? O : F) : dz < 0 ? (z > p ? prev + (4 * s + c) * hw\n"
        ": zb == z ? F : O + (zb - z) * hw) : (p == 0 && z == d - 1 ? ring + 2 * rs\n"
        "+ (4 * s + c) * hw : O + hw);\n"
        # Runs of rows whose source rows follow on: one span each, the
        # texels pulled across a row end then restored or wrapped.
        "for (long ya = p, yb; ya < h - p; ya = yb) {\n"
        "const long ys = (ya + dy + h) % h;\n"
        "yb = ya + h - ys < h - p ? ya + h - ys : h - p;\n"
        "T *o = O + ya * w; const T *r = S + ys * w;\n"
        "const long n = (yb - ya) * w, i0 = dx < 0, i1 = n - (dx > 0);\n"
        "if (!pulled) for (long i = 0; i < n; i++) o[i] = 0;\n"
        "else if (own && dy * w + dx < 0) {\n#pragma GCC ivdep\n"
        "for (long i = i1 - 1; i >= i0; i--) o[i] = r[i + dx];\n}\n"
        "else {\n#pragma GCC ivdep\nfor (long i = i0; i < i1; i++) o[i] = r[i + dx];\n}\n"
        "for (long y = 0; y < yb - ya; y++) {\n"
        "T *oy = o + y * w; const T *fy = F + (ya + y) * w, *sy = r + y * w;\n"
        "if (p) { oy[0] = fy[0]; oy[w - 1] = fy[w - 1]; }\n"
        "if (pulled && p + dx < 0) oy[p] = sy[p + dx + w];\n"
        "if (pulled && x1 - 1 + dx >= w) oy[x1 - 1] = sy[x1 - 1 + dx - w];\n"
        "}\n}\n}\n"
        "for (; runs && k < n && runs[2 * k] < (z + 1) * hw; k++) {\n"
        "const long t = runs[2 * k], len = runs[2 * k + 1];\n" + swap + "}\n"
        "if (in && (in[0] < 0 || in[0] == z)) "
        "face(tex, (T *)feq, in + 1, in[0] < 0 ? z - p : -1);\n"
        "if (out && (out[0] < 0 || out[0] == z)) "
        "face(tex, 0, out + 1, out[0] < 0 ? z - p : -1);\n"
        "}\n}\n")

    # One call per phase over a table of rank rows, the ranks split
    # across ``nt`` threads (ignored without OpenMP: they run in order).
    group = "".join(
        f"void gpu_{name}(const long *rows, long n, long nt) {{\n"
        "#pragma omp parallel for schedule(static) num_threads(nt)\n"
        f"for (long r = 0; r < n; r++) {{\nconst long *a = rows + {len(args)} * r;\n"
        f"{name}(" + ", ".join(f"({t})a[{k}]" for k, t in enumerate(args))
        + ");\n}\n}\n"
        for name, args in (("collide", COLLIDE_ROW), ("sweep", SWEEP_ROW)))
    return "typedef float T;\n" + collide + face + sweep + group


def _entries(t) -> dict:
    P, L = ctypes.c_void_p, ctypes.c_long
    return {"gpu_collide": [P, L, L], "gpu_sweep": [P, L, L], "gpu_face": [P] * 3}


#: The compiled passes, built and cached like the AA sweep; with OpenMP
#: where the compiler has it.
UNIT = native.Unit("gpu", _source, _entries, ("-fopenmp",))


def threads(n_ranks: int) -> int:
    """The threads one call over ``n_ranks`` ranks runs on: one per
    rank, at most one per CPU this process may run on."""
    getaffinity = getattr(os, "sched_getaffinity", None)    # Linux only
    return min(n_ranks, len(getaffinity(0)) if getaffinity else os.cpu_count() or 1)


def _longs(*values) -> tuple:
    """A C ``long`` table of ``values`` and its address."""
    table = np.array(values, dtype=np.int64)
    return table, table.ctypes.data


class GPULBMSolver:
    """BGK D3Q19 LBM executing entirely through texture render passes.

    Parameters
    ----------
    shape:
        Lattice shape (nx, ny, nz).
    tau:
        BGK relaxation time.
    device:
        A :class:`SimulatedGPU`; a fresh FX 5800 Ultra by default.
    mode:
        ``"wrap"`` (periodic, unpadded) or ``"padded"`` (ghost shell,
        for cluster sub-domains).
    solid:
        Optional bool obstacle mask (nx, ny, nz).
    force:
        Optional constant body force.
    inlet:
        Optional ``(axis, side, velocity, rho)`` equilibrium inlet.
    outflow:
        Optional ``(axis, side)`` zero-gradient outlet.
    """

    def __init__(self, shape, tau: float, device: SimulatedGPU | None = None,
                 mode: str = "wrap", solid=None, force=None,
                 inlet=None, outflow=None) -> None:
        if len(shape) != 3:
            raise ValueError("GPULBMSolver is 3D (D3Q19)")
        if mode not in ("wrap", "padded"):
            raise ValueError(f"unknown mode {mode!r}")
        if tau <= 0.5:
            raise ValueError("tau must be > 0.5")
        self.lattice = D3Q19
        self.shape = tuple(int(s) for s in shape)
        self.tau = float(tau)
        self.omega = F32(1.0 / tau)
        self.mode = mode
        self.device = device if device is not None else SimulatedGPU()
        self.packing = D3Q19Packing()
        self.force = None if force is None else np.asarray(force, dtype=np.float64)
        c, w = self.lattice.c.astype(F32), self.lattice.w.astype(F32)
        #: Per-link body-force increments (None without a force).
        self._force_term = (None if force is None else
                            ((c @ self.force.astype(F32)) * (F32(3.0) * w)).astype(F32))
        self.inlet = inlet
        self.outflow = outflow

        nx, ny, nz = self.shape
        self.pad = 0 if mode == "wrap" else 1
        p = self.pad
        tw, th, td = nx + 2 * p, ny + 2 * p, nz + 2 * p
        dev = self.device
        self.f_stacks = [dev.new_stack(tw, th, td, name=f"f{s}")
                         for s in range(N_DISTRIBUTION_STACKS)]
        self.macro_stack = dev.new_stack(tw, th, td, name="macro")
        # The pixel buffer the passes render into before the copy-back
        # (counted against texture memory, per the paper's accounting).
        self.pbuffer = dev.new_stack(tw, th, td, name="pbuffer")
        self.solid = (np.zeros(self.shape, dtype=bool) if solid is None
                      else np.asarray(solid, dtype=bool))
        if self.solid.shape != self.shape:
            raise ValueError("solid mask shape mismatch")
        self.has_solid = bool(self.solid.any())
        # Boundary flags only exist when there are obstacles, so
        # obstacle-free lattices pay no flag memory (the 92^3 maximum of
        # Sec 2).
        if self.has_solid:
            self.flags_stack = dev.new_stack(tw, th, td, name="flags")
            self.flags_stack.data[p:td - p, p:th - p, p:tw - p, 0] = (
                self.solid.transpose(2, 1, 0).astype(F32))
        else:
            self.flags_stack = None

        self._rect = (Rect(0, th, 0, tw) if mode == "wrap"
                      else Rect(1, th - 1, 1, tw - 1))
        self._z_range = range(td) if mode == "wrap" else range(1, td - 1)
        self._wrap = mode == "wrap"
        self._split_pieces: tuple[list, list] | None = None
        #: The compiled step passes (:data:`UNIT`), or None and why; None
        #: runs every pass through the per-pass engine, as its numpy body.
        self._lib, self.kernel_reason = native.load(self.lattice, F32, UNIT)
        self._programs = self._build_programs()
        # The compiled passes' tables (:func:`_source`): ``tex``, the
        # interior box, each face call's geometry, the sweep's ring.
        self._bound = self.f_stacks + [self.macro_stack]
        self._swaps = -1                    # the device's swaps ``tex`` has seen
        self._tex = _longs(*[0] * len(self._bound))
        self._ps = td * th * tw
        self._collide_g = _longs(td - 2 * p, th * tw, th - 2 * p, tw, tw - 2 * p,
                                 self._ps, (p * th + p) * tw + p)
        self._ring = np.zeros((2 + self._wrap, 4 * N_DISTRIBUTION_STACKS, th * tw), F32)
        self._faces: dict[tuple, tuple] = {}
        self._omega = np.array([self.omega], F32)
        self._solid_runs = self._inlet_feq = None
        #: The collide's and :meth:`finish`'s charges, as data.
        stacks = range(N_DISTRIBUTION_STACKS)
        self._plan = {"collide": self.pass_plan(COLLIDE), "finish": self.pass_plan(
            [f"stream{s}" for s in stacks] + [f"bounce{s}" for s in stacks if self.has_solid])}
        if self.has_solid:
            # The solid texels (fixed after construction) as runs within
            # a plane: (first texel, length) pairs.
            texels = np.flatnonzero(np.pad(self.solid.transpose(2, 1, 0), p))
            cut = np.flatnonzero((np.diff(texels) != 1)
                                 | (np.diff(texels // (th * tw)) != 0)) + 1
            self._solid_runs = np.column_stack(
                [texels[np.r_[0, cut]], np.diff(np.r_[0, cut, len(texels)])])
        # Per-step constants of the boundary-layer passes.
        if inlet is not None:
            self._inlet_feq = equilibrium_site(self.lattice, inlet[3],
                                               inlet[2]).astype(F32)
            self._inlet_s = self._layer_pass_s("inlet", inlet[0], tex_fetches=0)
            self._plan["finish"].append(("inlet", self._inlet_s, False))
        if outflow is not None:
            self._outflow_s = self._layer_pass_s("outflow", outflow[0],
                                                 tex_fetches=1)
            self._plan["finish"].append(("outflow", self._outflow_s, False))
        # :meth:`finish`'s sweep: the solid runs, the inlet fill of every
        # link, the outflow copy of every channel.
        self._sweep_g = _longs(td, th, tw, self._ps, p,
                               len(self._solid_runs) if self.has_solid else 0)

        def face_op(how, axis, slots, at, src=None):
            # The plane it runs on (along z the later one; -1: on each
            # plane, its row of the face), then an inner face table.
            table = self._face_g(how, axis, at + p, slots,
                                 None if src is None else src + p, inner=True)[0]
            return _longs(max(at, src or 0) + p if axis == 2 else -1, *table)

        self._ops = [inlet and face_op(3, inlet[0], LINKS, self._layer(*inlet[:2])),
                     outflow and face_op(0, outflow[0], LINKS + (19,),
                                         self._layer(*outflow), self._layer(*outflow, 1))]

        def at(array):
            return 0 if array is None else array.ctypes.data

        #: This rank's rows of the compiled phases (:func:`_source`).
        self._collide_row = _longs(
            self._tex[1], self._collide_g[1],
            at(self.flags_stack and self.flags_stack.data), at(self._omega),
            at(self._force_term))
        self._sweep_row = _longs(
            self._tex[1], self._sweep_g[1], at(self._ring), at(self._solid_runs),
            at(self._inlet_feq), *(op[1] if op else 0 for op in self._ops))
        self.time_step = 0
        self.initialize()

    # ------------------------------------------------------------------
    def initialize(self, rho: float = 1.0, u=None) -> None:
        """Load equilibrium distributions at (rho, u) into the textures."""
        uvec = np.zeros(3) if u is None else np.asarray(u, dtype=np.float64)
        feq = equilibrium_site(self.lattice, rho, uvec).astype(F32)
        f = np.broadcast_to(feq.reshape(19, 1, 1, 1), (19,) + self.shape).copy()
        self.load_distributions(f)
        self.time_step = 0

    def load_distributions(self, f: np.ndarray) -> None:
        """Pack a (19, nx, ny, nz) field into the distribution stacks."""
        if f.shape != (19,) + self.shape:
            raise ValueError(f"bad distribution shape {f.shape}")
        off = (self.pad,) * 3
        self.packing.pack_distributions(np.asarray(f, dtype=F32), self.f_stacks,
                                        offset=off)

    def distributions(self) -> np.ndarray:
        """Unpack the current distributions (host-side copy, untimed)."""
        return self.packing.unpack_distributions(self.f_stacks, self.shape,
                                                 offset=(self.pad,) * 3)

    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """(rho, u) as of the last macro pass (host-side copy, untimed)."""
        return self.packing.unpack_macroscopic(self.macro_stack, self.shape,
                                               offset=(self.pad,) * 3)

    # -- fragment programs ----------------------------------------------
    def _pixel_buffer(self, ctx) -> np.ndarray:
        """The ``pbuffer`` texels of this render: ``(n, 4)`` for a span,
        ``(d, h, w, 4)`` for a batched z range, ``(h, w, 4)`` for one
        slice, so pending slices never alias one another
        (:meth:`SimulatedGPU.run_pass`)."""
        z, r = ctx.z, ctx.rect
        if ctx.span:
            pb = self.pbuffer
            return flat_planes(pb.data)[:, span_of(r, z, pb.height, pb.width)].T
        zs = slice(z.start, z.stop) if isinstance(z, range) else z
        return self.pbuffer.data[zs, r.y0:r.y1, r.x0:r.x1]

    def _build_programs(self) -> dict:
        """The pass suite (DESIGN.md §5k has the host-side spelling).

        ``macro``, ``collide`` and ``stream`` render into
        :attr:`pbuffer`, which :meth:`SimulatedGPU.run_pass` then swaps
        with the target texture (or copies, slice by slice); ``bounce``
        is the shader of a pass group (each renders into a copy of its
        own).  These numpy bodies run without a C compiler; the compiled
        passes (:data:`UNIT`) spell the same ops in the same order and
        are charged as these programs.
        """
        lat = self.lattice
        w = lat.w.astype(F32)
        omega = self.omega
        n_stacks = N_DISTRIBUTION_STACKS
        pixel_buffer = self._pixel_buffer
        locations = [link_location(i) for i in range(19)]
        #: Per axis, ``(link, sign)`` of its momentum links, slot order.
        jterms = [[(int(q), int(lat.c[q, a])) for q in np.flatnonzero(lat.c[:, a])]
                  for a in range(3)]

        def macro_kernel(ctx):
            out = pixel_buffer(ctx)
            texs = [ctx.fetch(f"f{s}") for s in range(n_stacks)]
            # Slot-order accumulation: c * v is v or -v (exact), and
            # m + (-v) is m - v.
            col = [texs[s][..., ch] for s, ch in locations]
            rho = col[0]
            for v in col[1:]:
                rho = rho + v
            out[..., 0] = rho
            safe = np.where(rho > 0, rho, F32(1.0))     # 1 where rho <= 0 or NaN
            for a, ((q0, sign0), *more) in enumerate(jterms):
                ja = col[q0] if sign0 > 0 else -col[q0]
                for q, sign in more:
                    ja = ja + col[q] if sign > 0 else ja - col[q]
                out[..., 1 + a] = ja / safe
            return out

        programs = {"macro": FragmentProgram("macro", macro_kernel, alu_ops=40,
                                             tex_fetches=5, batchable=True)}

        has_solid = self.has_solid

        def make_collide(s):
            links = stack_links(s)
            groups = native.collide_groups(lat, links)
            add = None if self._force_term is None else self._force_term[links]

            def collide_kernel(ctx):
                f = ctx.fetch(f"f{s}")
                mac = ctx.fetch("macro")
                flags = ctx.fetch("flags", channels=0) if has_solid else None
                out = pixel_buffer(ctx)
                rho = mac[..., 0]
                u = [mac[..., 1 + a] for a in range(3)]
                usq = (u[0] * u[0] + u[1] * u[1] + u[2] * u[2]) * F32(1.5)
                # Rate field: omega at fluid sites, 0 at solid ones,
                # where the relaxation then hands f back (DESIGN.md §5k).
                fluid = True if flags is None else flags == 0.0
                rate = omega if flags is None else np.where(fluid, omega, F32(0.0))
                for members, terms in groups:
                    if terms:
                        # x = +/-c.u: a velocity component or one signed add.
                        (a, _), *second = terms
                        x = u[a]
                        for b, sign in second:
                            x = x + u[b] if sign > 0 else x - u[b]
                        q = (x * F32(4.5)) * x        # even in c.u
                        t = x * F32(3.0)
                    for ch, link, sign in members:
                        if not terms:                 # rest link: c.u = 0
                            e = F32(1.0) - usq
                        else:                         # c.u = sign * x
                            e = ((t + F32(1.0) if sign > 0 else F32(1.0) - t)
                                 + q) - usq
                        fch = f[..., ch]
                        h = (e * (rho * w[link]) - fch) * rate + fch
                        if add is not None and add[ch] != 0.0:
                            h = np.where(fluid, h + add[ch], h)
                        out[..., ch] = h
                out[..., len(links):] = f[..., len(links):]
                return out

            return FragmentProgram(f"collide{s}", collide_kernel, alu_ops=50,
                                   tex_fetches=3 if has_solid else 2,
                                   batchable=True)

        def make_stream(s):
            links = stack_links(s)
            offsets = [tuple(-int(v) for v in lat.c[link]) for link in links]

            def stream_kernel(ctx):
                out = pixel_buffer(ctx)
                for ch, (dx, dy, dz) in enumerate(offsets):
                    np.copyto(out[..., ch],
                              ctx.fetch(f"f{s}", dx=dx, dy=dy, dz=dz, channels=ch))
                out[..., len(links):] = 0.0
                return out

            return FragmentProgram(f"stream{s}", stream_kernel, alu_ops=4,
                                   tex_fetches=len(links), batchable=True)

        def make_bounce(s):
            opp = [locations[int(lat.opp[link])] for link in stack_links(s)]

            def bounce_kernel(ctx):
                out = ctx.fetch(f"f{s}").copy(order="K")    # stays planar
                solid = ctx.fetch("flags", channels=0) != 0.0
                for ch, (os_, och) in enumerate(opp):
                    np.copyto(out[..., ch], ctx.fetch(f"f{os_}", channels=och),
                              where=solid)
                return out

            return FragmentProgram(f"bounce{s}", bounce_kernel, alu_ops=8,
                                   tex_fetches=2 + len(opp), batchable=True)

        for s in range(n_stacks):
            programs[f"collide{s}"] = make_collide(s)
            programs[f"stream{s}"] = make_stream(s)
            programs[f"bounce{s}"] = make_bounce(s)
        return programs

    # -- compiled passes --------------------------------------------------
    def _texels(self) -> int:
        """The address of ``tex`` (:func:`_source`), refreshed when a
        per-pass render's swap commit has moved the arrays
        (:attr:`SimulatedGPU.swaps`)."""
        if self._swaps != self.device.swaps:
            self._swaps = self.device.swaps
            self._tex[0][:] = [t.data.ctypes.data for t in self._bound]
        return self._tex[1]

    def _face_g(self, how: int, axis: int, at: int, slots: tuple,
                src: int | None = None, inner: bool = False) -> tuple:
        """The ``gpu_face`` table over the ``axis`` plane ``at`` (its
        padded cross-section, or with ``inner`` the interior's) of each
        of ``slots`` (links; 19 is the unused channel): ``how`` 0 copies
        plane ``src`` onto it; 1 gathers it into, 2 scatters it from the
        address ``buf``, a :meth:`get_border_layer` block per slot; 3
        fills slot ``k`` with the float at ``buf + 4 k``."""
        key = (how, axis, at, src, inner, slots)
        args = self._faces.get(key)
        if args is None:
            d, h, w = self.macro_stack.data.shape[:3]
            ext, step = (w, h, d), (1, w, h * w)
            i, j = (a for a in range(3) if a != axis)
            lo = self.pad if inner else 0
            ni, nj = ext[i] - 2 * lo, ext[j] - 2 * lo
            corner = lo * (step[i] + step[j])
            # Rows along j, runs along i; a block is (i, j) row-major.
            tex = (nj, ni, at * step[axis] + corner, step[j], step[i])
            other = ((0 if src is None else src * step[axis] + corner, 0,
                      step[j], step[i]) if how == 0 else (0, ni * nj, 1, nj))
            args = self._faces[key] = _longs(len(slots), d * h * w, *tex, *other,
                                             how, *(PLANES[q] for q in slots))
        return args

    # -- ghost-layer management (padded mode) -----------------------------
    def _check_padded(self) -> None:
        if self.mode != "padded":
            raise RuntimeError("ghost operations require mode='padded'")

    def set_ghost_layer(self, f_ghost: np.ndarray, axis: int, side: str,
                        links=None) -> None:
        """Write a ghost face received from a neighbour: ``f_ghost`` is
        ``(L,)`` + the full padded cross-section (edge and corner ghost
        texels included), its rows the slots ``links`` (default: all
        19; the wire ships the five streaming links per face).
        """
        self._check_padded()
        nx, ny, nz = self.shape
        full = {0: (ny + 2, nz + 2), 1: (nx + 2, nz + 2), 2: (nx + 2, ny + 2)}[axis]
        link_ids = range(19) if links is None else list(links)
        if f_ghost.shape != (len(link_ids),) + full:
            raise ValueError(f"ghost face shape {f_ghost.shape} != "
                             f"{(len(link_ids),) + full}")
        plane = [slice(None)] * 3
        plane[2 - axis] = 0 if side == "low" else (self.shape[axis] + 1)
        for row, i in enumerate(link_ids):
            s, ch = link_location(int(i))
            self.f_stacks[s].data[(*plane, ch)] = f_ghost[row].T

    def get_border_layer(self, axis: int, side: str,
                         out: np.ndarray | None = None,
                         links=None) -> np.ndarray:
        """The outermost interior layer's post-collision distributions,
        ``(L,)`` + the full padded cross-section as
        :meth:`set_ghost_layer` takes it, into ``out`` if given, for the
        slots ``links`` (default: all 19).
        """
        self._check_padded()
        nx, ny, nz = self.shape
        full = {0: (ny + 2, nz + 2), 1: (nx + 2, nz + 2), 2: (nx + 2, ny + 2)}[axis]
        link_ids = range(19) if links is None else list(links)
        if out is None:
            out = np.empty((len(link_ids),) + full,
                           dtype=self.f_stacks[0].data.dtype)
        elif out.shape != (len(link_ids),) + full:
            raise ValueError(f"border face shape {out.shape} != "
                             f"{(len(link_ids),) + full}")
        plane = [slice(None)] * 3
        plane[2 - axis] = 1 if side == "low" else self.shape[axis]
        for row, i in enumerate(link_ids):
            s, ch = link_location(int(i))
            out[row] = self.f_stacks[s].data[(*plane, ch)].T
        return out

    # -- boundary-layer passes --------------------------------------------
    def _layer_pass_s(self, name: str, axis: int, tex_fetches: int) -> float:
        """Modeled cost of a boundary-layer pass: one per stack."""
        nx, ny, nz = self.shape
        face = {0: ny * nz, 1: nx * nz, 2: nx * ny}[axis]
        prog = FragmentProgram(name, None, alu_ops=2, tex_fetches=tex_fetches)
        return 5 * self.device.pass_time_s(prog, face)

    def _interior(self, stack, axis: int) -> np.ndarray:
        """``stack``'s interior texels, ``axis`` leading."""
        (x, y, z), p = self.shape, self.pad
        return stack.data[p:z + p, p:y + p, p:x + p].swapaxes(0, 2 - axis)

    def _layer(self, axis: int, side: str, depth: int = 0) -> int:
        """The interior plane ``depth`` in from the ``side`` face."""
        return depth if side == "low" else self.shape[axis] - 1 - depth

    def _apply_inlet(self) -> None:
        axis, side, _, _ = self.inlet
        at = self._layer(axis, side)
        for i, (s, ch) in enumerate(map(link_location, LINKS)):
            self._interior(self.f_stacks[s], axis)[at, ..., ch] = self._inlet_feq[i]
        self.device.charge("inlet", self._inlet_s)

    def _apply_outflow(self) -> None:
        axis, side = self.outflow
        dst, src = self._layer(axis, side), self._layer(axis, side, 1)
        for stack in self.f_stacks:
            face = self._interior(stack, axis)
            face[dst] = face[src]
        self.device.charge("outflow", self._outflow_s)

    # -- the step -----------------------------------------------------------
    def bindings(self) -> dict:
        b = {f"f{s}": self.f_stacks[s] for s in range(N_DISTRIBUTION_STACKS)}
        b["macro"] = self.macro_stack
        if self.flags_stack is not None:
            b["flags"] = self.flags_stack
        return b

    def pass_plan(self, names, rect=None, z_range=None) -> list:
        """``(name, seconds, counted)`` of passes ``names`` over ``rect``
        x ``z_range`` (the interior by default): what rendering them
        there charges and counts, as data (:meth:`SimulatedGPU.apply`)."""
        rect = rect or self._rect
        n = len(self._z_range if z_range is None else z_range) * rect.fragments
        return [(name, self.device.pass_time_s(self._programs[name], n), True)
                for name in names]

    def collide(self, charge: bool = True) -> None:
        """``macro`` + ``collide0..4`` over the interior: one in-place
        ``gpu_collide`` call, or the six passes through the per-pass
        engine.  With ``charge=False`` nothing is charged or counted."""
        lib = self._lib
        if lib is None:
            self.run_macro_pass(charge=charge)
            self.run_collide_passes(charge=charge)
            return
        self._texels()
        lib.gpu_collide(self._collide_row[1], 1, 1)
        if charge:
            self.device.apply(self._plan["collide"])

    def finish(self) -> None:
        """Stream, bounce-back, inlet and outflow, each charged.
        Compiled, one ``gpu_sweep`` does all four plane by plane."""
        if self._lib is not None:
            self._texels()
            self._lib.gpu_sweep(self._sweep_row[1], 1, 1)
            self.device.apply(self._plan["finish"])
            return
        self.run_stream_passes()
        if self.has_solid:
            self.run_bounce_passes()
        if self.inlet is not None:
            self._apply_inlet()
        if self.outflow is not None:
            self._apply_outflow()

    def run_macro_pass(self, rect=None, z_range=None, charge: bool = True) -> None:
        self.device.run_pass(self._programs["macro"], self.macro_stack,
                             self.bindings(), rect or self._rect,
                             z_range if z_range is not None else self._z_range,
                             wrap=self._wrap, charge=charge, pbuffer=self.pbuffer)

    # -- boundary/inner split (padded mode) -------------------------------
    def split_pieces(self) -> tuple[list, list]:
        """``(shell, inner)``: the depth-1 shell's and the inner core's
        ``(rect, z_range)`` pieces, together tiling the interior; the
        Sec-4.3 render rectangles the device is charged for, the
        shell's "multiple small rectangles" first, then the core, whose
        device time is the overlap window.  Empty pieces are dropped.
        """
        self._check_padded()
        if self._split_pieces is None:
            from repro.lbm.streaming import shell_partition
            slabs, core = shell_partition(self.shape, depth=1)
            p = self.pad
            self._split_pieces = tuple(
                [(Rect(sy.start + p, sy.stop + p, sx.start + p, sx.stop + p),
                  range(sz.start + p, sz.stop + p)) for sx, sy, sz in regions
                 if all(r.stop > r.start for r in (sx, sy, sz))]
                for regions in (slabs, [core]))
        return self._split_pieces

    def run_collide_passes(self, z_range=None, rect=None, charge: bool = True) -> None:
        """The five collision passes over ``rect`` x ``z_range`` (the
        interior by default)."""
        for s in range(N_DISTRIBUTION_STACKS):
            self.device.run_pass(self._programs[f"collide{s}"], self.f_stacks[s],
                                 self.bindings(), rect or self._rect,
                                 z_range if z_range is not None else self._z_range,
                                 wrap=self._wrap, charge=charge, pbuffer=self.pbuffer)

    def charge_collide_passes(self, rect, z_range) -> None:
        """Charge and count macro + collide0..4 over ``rect`` x
        ``z_range`` as rendering them there would, rendering nothing."""
        n = len(z_range) * rect.fragments
        self.device.account(self._programs["macro"], n)
        for s in range(N_DISTRIBUTION_STACKS):
            self.device.account(self._programs[f"collide{s}"], n)

    def run_stream_passes(self) -> None:
        """The five ``stream`` passes (compiled, :meth:`finish` streams
        in its sweep)."""
        for s in range(N_DISTRIBUTION_STACKS):
            self.device.run_pass(self._programs[f"stream{s}"], self.f_stacks[s],
                                 self.bindings(), self._rect, self._z_range,
                                 wrap=self._wrap, pbuffer=self.pbuffer)

    def run_bounce_passes(self) -> None:
        """The ``bounce`` pass group: every link at a solid texel takes
        its opposite's pre-group value (compiled, :meth:`finish` swaps
        them in its sweep)."""
        b = self.bindings()
        self.device.run_pass_group(
            [(self._programs[f"bounce{s}"], self.f_stacks[s], b)
             for s in range(N_DISTRIBUTION_STACKS)],
            self._rect, self._z_range, wrap=self._wrap)

    def fill_ghosts_periodic(self) -> None:
        """Padded-mode periodic wrap (used when no cluster is attached)."""
        self._check_padded()
        for stack in self.f_stacks + [self.flags_stack] * self.has_solid:
            for ax in range(3):
                d = stack.data.swapaxes(0, ax)
                d[0], d[-1] = d[-2], d[1]

    def step(self, n: int = 1) -> None:
        """Advance ``n`` time steps through the full pass suite."""
        for _ in range(n):
            self.collide()
            if self.mode == "padded":
                self.fill_ghosts_periodic()
            self.finish()
            self.time_step += 1
