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
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.gpu.device import SimulatedGPU
from repro.gpu.fragment import FragmentProgram, Rect, span_of
from repro.gpu.packing import D3Q19Packing, N_DISTRIBUTION_STACKS, link_location, stack_links
from repro.gpu.texture import flat_planes
from repro.lbm import native
from repro.lbm.lattice import D3Q19
from repro.lbm.equilibrium import equilibrium_site

F32 = np.float32


def _source(lat, dtype) -> str:
    """The ``macro`` and ``collide{s}`` fragment programs as C, in the
    op order of their numpy bodies (DESIGN §5k).

    A render is ``n0`` x ``n1`` rows of ``len`` texels, rows ``s1`` and
    planes ``s0`` apart, channels ``ps`` apart (in floats); the output
    and every fetched texture share that layout (:func:`_box`).
    ``gpu_collide{s}`` takes ``flags`` and the per-channel force
    increments ``add`` as NULL when the solver has none, and has one
    loop per (flags?, force?) variant, so each vectorises.
    """
    box = "long n0, long s0, long n1, long s1, long len, long ps"
    rows = ("for (long z = 0; z < n0; z++)\nfor (long y = 0; y < n1; y++) {\n"
            "const long b = z * s0 + y * s1;\n")
    loop = "#pragma GCC ivdep\nfor (long i = 0; i < len; i++) {{\n{}\n}}\n"
    outs = "".join(f"T *O{k} = out + b + {k} * ps;\n" for k in range(4))
    macro = (f"void gpu_macro(const T *f0, const T *f1, const T *f2, "
             f"const T *f3, const T *f4, T *out, {box}) {{\n" + rows + outs
             + "".join(f"const T *L{q} = f{s} + b + {ch} * ps;\n"
                       for q, (s, ch) in enumerate(map(link_location, range(lat.Q))))
             + loop.format("\n".join(
                 [f"T v{q} = L{q}[i];" for q in range(lat.Q)]
                 + native.moment_lines(lat)
                 + ["T safe = rho > 0 ? rho : ((T)1);", "O0[i] = rho;"]
                 + [f"O{1 + a}[i] = j{a} / safe;" for a in range(3)]))
             + "}\n}\n")

    def collide(s):
        links = stack_links(s)
        groups = native.collide_groups(lat, links)
        ks = range(len(links))

        def body(flags, force):
            fluid = "(G[i] == 0)" if flags else "1"
            return loop.format("\n".join(
                [f"T v{k} = F{k}[i];" for k in ks]
                + ["T rho = M0[i];"] + [f"T u{a} = M{1 + a}[i];" for a in range(3)]
                + [f"T rate = {fluid} ? omega : ((T)0);"]
                + native.relax_lines(lat, dtype, groups, "rate")
                + [f"h{k} = (k{k} & {fluid}) ? h{k} + a{k} : h{k};"
                   for k in ks if force]
                + [f"O{k}[i] = h{k};" for k in ks]
                + [f"O{k}[i] = F{k}[i];" for k in range(len(links), 4)]))

        return (f"void gpu_collide{s}(const T *f, const T *mac, const T *flags, "
                f"T *out, {box}, T omega, const T *add) {{\n"
                + "".join(f"const T a{k} = add ? add[{k}] : 0; "
                          f"const int k{k} = a{k} != 0;\n" for k in ks)
                + rows + outs
                + "".join(f"const T *F{k} = f + b + {k} * ps; "
                          f"const T *M{k} = mac + b + {k} * ps;\n" for k in range(4))
                + "const T *G = flags ? flags + b : 0;\n"
                + "if (G && add) {\n" + body(True, True)
                + "} else if (G) {\n" + body(True, False)
                + "} else if (add) {\n" + body(False, True)
                + "} else {\n" + body(False, False) + "}\n}\n}\n")

    return "typedef float T;\n" + macro + "".join(
        collide(s) for s in range(N_DISTRIBUTION_STACKS))


def _entries(t) -> dict:
    P, L = ctypes.c_void_p, ctypes.c_long
    box = [L] * 6
    return {"gpu_macro": [P] * 6 + box,
            **{f"gpu_collide{s}": [P] * 4 + box + [t, P]
               for s in range(N_DISTRIBUTION_STACKS)}}


#: The compiled fragment programs, built and cached like the AA sweep.
UNIT = native.Unit("gpu", _source, _entries)


def _box(out: np.ndarray, fetched) -> tuple | None:
    """``(n0, s0, n1, s1, len, ps)`` of a render (:func:`_source`): the
    texels of ``out`` as at most two levels of rows of unit-stride runs,
    when every ``fetched`` texture shares its layout; None otherwise."""
    lead = out.ndim - 1
    if any(a.dtype != F32 or a.shape != out.shape[:a.ndim]
           or a.strides[:lead] != out.strides[:lead]
           or (a.ndim > lead and a.strides[-1] != out.strides[-1])
           for a in fetched):
        return None
    n = list(out.shape[:-1])
    *s, ps = (v // out.itemsize for v in out.strides)
    while len(n) > 1 and s[-2] == n[-1] * s[-1]:        # merge runs
        n[-2:], s[-2:] = [n[-2] * n[-1]], [s[-1]]
    if s[-1] != 1 or len(n) > 3:
        return None
    n, s = [1] * (3 - len(n)) + n, [0] * (3 - len(s)) + s
    return n[0], s[0], n[1], s[1], n[2], ps


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
        # Boundary flags only exist when there are obstacles.  (The
        # paper stores boundary-link data in small per-slice rectangles
        # — see repro.gpu.boundary_rects — so obstacle-free lattices pay
        # no flag memory; this is what makes the 92^3 maximum of Sec 2.)
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
        #: The compiled ``macro``/``collide`` programs, or None and why.
        self._lib, self.kernel_reason = native.load(self.lattice, F32, UNIT)
        self._programs = self._build_programs()
        if self.has_solid:
            # Flat texel indices of the solid sites (the flags texels
            # rendered passes read, fixed after construction).
            self._solid_texels = np.flatnonzero(np.pad(self.solid.transpose(2, 1, 0), p))
        # Per-step constants of the boundary-layer passes.
        if inlet is not None:
            self._inlet_feq = equilibrium_site(self.lattice, inlet[3],
                                               inlet[2]).astype(F32)
            self._inlet_s = self._layer_pass_s("inlet", inlet[0], tex_fetches=0)
        if outflow is not None:
            self._outflow_s = self._layer_pass_s("outflow", outflow[0],
                                                 tex_fetches=1)
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
        slice.  Distinct slices of a slice-by-slice pass land in
        distinct texels, so outputs still pending commit never alias
        one another.  Between renders the ``pbuffer`` holds the texels
        of the last target a render was swapped into, not that render
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
        with the target texture (or copies, slice by slice).  ``bounce``
        is the shader of a pass group (all five read one snapshot, so
        each renders into a copy of its own); :meth:`run_bounce_passes`
        executes it as an index-list swap and charges these programs.
        Every program reads only its fetches and keeps only its own
        uniforms.  ``macro`` and ``collide`` run as one call into
        :data:`UNIT` when it loaded and the render's texels are rows of
        unit-stride runs (:func:`_box`, every render the solver makes);
        their numpy bodies, the same ops in the same order, are the
        fallback without a C compiler.
        """
        lat = self.lattice
        c = lat.c.astype(F32)
        w = lat.w.astype(F32)
        omega = self.omega
        n_stacks = N_DISTRIBUTION_STACKS
        force_term = None
        if self.force is not None:
            force_term = ((c @ self.force.astype(F32)) * (F32(3.0) * w)).astype(F32)
        pixel_buffer = self._pixel_buffer
        lib = self._lib
        locations = [link_location(i) for i in range(19)]
        #: Per axis, ``(link, sign)`` of its momentum links, slot order.
        jterms = [[(int(q), int(lat.c[q, a])) for q in np.flatnonzero(lat.c[:, a])]
                  for a in range(3)]

        def macro_kernel(ctx):
            out = pixel_buffer(ctx)
            texs = [ctx.fetch(f"f{s}") for s in range(n_stacks)]
            box = lib and _box(out, texs)
            if box:
                lib.gpu_macro(*(t.ctypes.data for t in texs), out.ctypes.data, *box)
                return out
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
            add = None if force_term is None else force_term[links]
            program = getattr(lib, f"gpu_collide{s}", None)

            def collide_kernel(ctx):
                f = ctx.fetch(f"f{s}")
                mac = ctx.fetch("macro")
                flags = ctx.fetch("flags", channels=0) if has_solid else None
                out = pixel_buffer(ctx)
                box = program and _box(out, [f, mac] if flags is None
                                       else [f, mac, flags])
                if box:
                    program(f.ctypes.data, mac.ctypes.data,
                            None if flags is None else flags.ctypes.data,
                            out.ctypes.data, *box, omega,
                            None if add is None else add.ctypes.data)
                    return out
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

    # -- ghost-layer management (padded mode) -----------------------------
    def _check_padded(self) -> None:
        if self.mode != "padded":
            raise RuntimeError("ghost operations require mode='padded'")

    def set_ghost_layer(self, f_ghost: np.ndarray, axis: int, side: str,
                        links=None) -> None:
        """Write a ghost face received from a neighbour.

        ``f_ghost`` has the shape of the corresponding face of the
        *padded* array excluding the two ghost rims of the other axes
        being set separately — i.e. exactly ``(L,) + face_shape`` with
        face_shape the full padded cross-section, allowing edge/corner
        ghost texels to be included by the caller.  ``links`` selects
        which distribution slots the rows of ``f_ghost`` carry (default:
        all 19 in order) — the merged wire protocol ships only the five
        streaming links per face.
        """
        self._check_padded()
        nx, ny, nz = self.shape
        full = {0: (ny + 2, nz + 2), 1: (nx + 2, nz + 2), 2: (nx + 2, ny + 2)}[axis]
        link_ids = range(19) if links is None else list(links)
        if f_ghost.shape != (len(link_ids),) + full:
            raise ValueError(f"ghost face shape {f_ghost.shape} != "
                             f"{(len(link_ids),) + full}")
        idx_along = 0 if side == "low" else (self.shape[axis] + 1)
        for row, i in enumerate(link_ids):
            s, ch = link_location(int(i))
            data = self.f_stacks[s].data
            if axis == 0:
                data[:, :, idx_along, ch] = f_ghost[row].transpose(1, 0)
            elif axis == 1:
                data[:, idx_along, :, ch] = f_ghost[row].transpose(1, 0)
            else:
                data[idx_along, :, :, ch] = f_ghost[row].transpose(1, 0)

    def get_border_layer(self, axis: int, side: str,
                         out: np.ndarray | None = None,
                         links=None) -> np.ndarray:
        """Read the interior border face (L, full padded cross-section).

        Returns the post-collision distributions of the outermost
        interior layer, padded cross-section orientation matching
        :meth:`set_ghost_layer` so a neighbour can consume it directly.
        With ``out`` the face is gathered into the provided buffer
        (allocation-free exchange path); ``links`` restricts the gather
        to a subset of distribution slots (merged wire protocol).
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
        idx_along = 1 if side == "low" else self.shape[axis]
        for row, i in enumerate(link_ids):
            s, ch = link_location(int(i))
            data = self.f_stacks[s].data
            if axis == 0:
                out[row] = data[:, :, idx_along, ch].transpose(1, 0)
            elif axis == 1:
                out[row] = data[:, idx_along, :, ch].transpose(1, 0)
            else:
                out[row] = data[idx_along, :, :, ch].transpose(1, 0)
        return out

    # -- boundary-layer passes --------------------------------------------
    def _layer_pass_s(self, name: str, axis: int, tex_fetches: int) -> float:
        """Modeled cost of a boundary-layer pass on an ``axis`` face:
        one small pass per stack."""
        nx, ny, nz = self.shape
        face = {0: ny * nz, 1: nx * nz, 2: nx * ny}[axis]
        prog = FragmentProgram(name, None, alu_ops=2, tex_fetches=tex_fetches)
        return 5 * self.device.pass_time_s(prog, face)

    def _apply_inlet(self) -> None:
        axis, side, _, _ = self.inlet
        p = self.pad
        nx, ny, nz = self.shape
        idx_along = p if side == "low" else (self.shape[axis] - 1 + p)
        for i in range(19):
            s, ch = link_location(i)
            data = self.f_stacks[s].data
            sl = [slice(p, nz + p), slice(p, ny + p), slice(p, nx + p), ch]
            sl[2 - axis] = idx_along
            data[tuple(sl)] = self._inlet_feq[i]
        self.device.charge("inlet", self._inlet_s)

    def _apply_outflow(self) -> None:
        axis, side = self.outflow
        p = self.pad
        nx, ny, nz = self.shape
        if side == "low":
            dst, src = p, p + 1
        else:
            dst, src = self.shape[axis] - 1 + p, self.shape[axis] - 2 + p
        for s in range(N_DISTRIBUTION_STACKS):
            data = self.f_stacks[s].data
            sl_d = [slice(p, nz + p), slice(p, ny + p), slice(p, nx + p), slice(None)]
            sl_s = list(sl_d)
            sl_d[2 - axis] = dst
            sl_s[2 - axis] = src
            data[tuple(sl_d)] = data[tuple(sl_s)]
        self.device.charge("outflow", self._outflow_s)

    # -- the step -----------------------------------------------------------
    def bindings(self) -> dict:
        b = {f"f{s}": self.f_stacks[s] for s in range(N_DISTRIBUTION_STACKS)}
        b["macro"] = self.macro_stack
        if self.flags_stack is not None:
            b["flags"] = self.flags_stack
        return b

    def run_macro_pass(self, rect=None, z_range=None, charge: bool = True) -> None:
        self.device.run_pass(self._programs["macro"], self.macro_stack,
                             self.bindings(), rect or self._rect,
                             z_range if z_range is not None else self._z_range,
                             wrap=self._wrap, charge=charge, pbuffer=self.pbuffer)

    # -- boundary/inner split (padded mode) -------------------------------
    def split_pieces(self) -> tuple[list, list]:
        """Texture-space pieces of the depth-1 shell and inner core.

        Returns ``(shell, inner)``, each a list of ``(rect, z_range)``
        covering the sub-domain interior; together they tile it exactly.
        They are the Sec-4.3 render rectangles the device is charged
        for — the shell's "multiple small rectangles" first, then the
        inner core, whose device time is the overlap window (see
        :meth:`charge_collide_passes`).  Empty pieces (thin domains) are
        dropped, so either list may be empty.
        """
        self._check_padded()
        if self._split_pieces is None:
            from repro.lbm.streaming import shell_partition
            slabs, core = shell_partition(self.shape, depth=1)
            p = self.pad

            def piece(region):
                sx, sy, sz = region
                if sx.stop <= sx.start or sy.stop <= sy.start or sz.stop <= sz.start:
                    return None
                return (Rect(sy.start + p, sy.stop + p, sx.start + p, sx.stop + p),
                        range(sz.start + p, sz.stop + p))

            shell = [pc for pc in map(piece, slabs) if pc is not None]
            inner = [pc for pc in (piece(core),) if pc is not None]
            self._split_pieces = (shell, inner)
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
        """Charge the device for macro + collide0..4 over ``rect`` x
        ``z_range`` without rendering: exactly what rendering those
        passes there charges and counts.  The passes are elementwise,
        so one uncharged render over the interior followed by one
        charge per piece leaves the texels and the clock of rendering
        piece by piece."""
        n = len(z_range) * rect.fragments
        self.device.account(self._programs["macro"], n)
        for s in range(N_DISTRIBUTION_STACKS):
            self.device.account(self._programs[f"collide{s}"], n)

    def run_stream_passes(self) -> None:
        for s in range(N_DISTRIBUTION_STACKS):
            self.device.run_pass(self._programs[f"stream{s}"], self.f_stacks[s],
                                 self.bindings(), self._rect, self._z_range,
                                 wrap=self._wrap, pbuffer=self.pbuffer)

    def run_bounce_passes(self) -> None:
        """The ``bounce`` pass group: every link at a solid texel takes
        its opposite's pre-group value.  A fluid texel's output is its
        input, so only the solid texels are touched — a snapshot of the
        19 links there, then one scatter per link — and the five
        programs are charged over the whole render."""
        planes = [flat_planes(stack.data) for stack in self.f_stacks]
        idx = self._solid_texels
        locations = [link_location(i) for i in range(19)]
        held = [planes[s][ch][idx] for s, ch in locations]
        for (s, ch), opp in zip(locations, self.lattice.opp):
            planes[s][ch][idx] = held[opp]
        n = len(self._z_range) * self._rect.fragments
        for s in range(N_DISTRIBUTION_STACKS):
            self.device.account(self._programs[f"bounce{s}"], n)

    def fill_ghosts_periodic(self) -> None:
        """Padded-mode periodic wrap (used when no cluster is attached)."""
        self._check_padded()
        stacks_to_wrap = [self.f_stacks[s] for s in range(N_DISTRIBUTION_STACKS)]
        if self.flags_stack is not None:
            stacks_to_wrap.append(self.flags_stack)
        for stacks in stacks_to_wrap:
            d = stacks.data
            for ax in range(3):
                n = d.shape[ax]
                lo = [slice(None)] * 4
                hi = [slice(None)] * 4
                lo[ax], hi[ax] = 0, n - 2
                d[tuple(lo)] = d[tuple(hi)]
                lo[ax], hi[ax] = n - 1, 1
                d[tuple(lo)] = d[tuple(hi)]

    def step(self, n: int = 1) -> None:
        """Advance ``n`` time steps through the full pass suite."""
        for _ in range(n):
            self.run_macro_pass()
            self.run_collide_passes()
            if self.mode == "padded":
                self.fill_ghosts_periodic()
            self.run_stream_passes()
            if self.has_solid:
                self.run_bounce_passes()
            if self.inlet is not None:
                self._apply_inlet()
            if self.outflow is not None:
                self._apply_outflow()
            self.time_step += 1
