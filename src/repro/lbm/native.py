"""Compiled C units generated from the ``Lattice`` tables: the in-place
AA sweep, and the build path every unit shares.

:func:`source` writes one translation unit per ``(lattice, dtype)`` with
the entry points :class:`~repro.lbm.aa.AAStepKernel` calls: ``aa_even``
(collide every site of a batch box, reversed-direction writes; masked
sites relax at rate 0), ``aa_odd`` (gather at ``n - c_q`` from slot
``opp(q)``, collide, scatter to ``n + c_q`` in slot ``q``; one flat span
per interior plane of the last two axes) and ``aa_bounce`` (the
:class:`~repro.lbm.boundaries.BounceBackNodes` swap over a flat index
list).  Masked sites — solids and the ghost shell — keep the bits of
the locations they own (a bit blend, so no masked store is needed), so
a span may cross the ghosts between rows: a site reads and writes only
what it owns, inside its rank's padded box.
Each site's arithmetic is the reference's, op for op and in order
(DESIGN §5a; the identities it rests on are in :mod:`repro.lbm.aa`);
the compiler vectorises across the sites of a span and, under
:data:`FLAGS`, never reorders or fuses an operation.
:func:`collide_groups`, :func:`moment_lines` and :func:`relax_lines` are
the pieces of that spelling the simulated GPU's fragment programs share
(:mod:`repro.gpu.lbm_gpu`, DESIGN §5k).

**The ghost closure.**  Each box closes its ghost shell by its face row
(:data:`FACE_KINDS`) one plane of the first axis behind its sweep,
while the plane is in cache: ``aa_even`` copies each swept plane's
outward face slots into its ghost rows (zero gradient, or the wrap);
``aa_odd`` folds the inward crossing slots back onto the border, then
swaps the solid sites it is given, row by row.  A message face is the
exchange's, but the closed faces of a first-axis message face's ghost
plane are folded too, as the reverse exchange ships it rims and all; a
box with only message faces sweeps its even phase as one flat loop.  The
result is the unfused order's, bit for bit (DESIGN §5i).  Fills are
clamp (or wrap) copies along different axes and commute, and so do
folds; a location of plane ``p`` is owned by a site of plane ``p - 1``,
``p`` or ``p + 1``, so plane ``p`` is final once plane ``p + 1`` is
swept (the lag).  What must stay ordered is each fold before the swap
of a cell it reads or writes: plane 1's x fold reads plane 2 and runs
when plane 1 closes, plane ``n - 2``'s reads plane ``n - 3`` and runs
when that one closes.  A wrapping first axis (whose folds read the
ghost planes the last sweep writes) closes planes 1 and ``n - 2`` at
the end, after its x wraps, as does D2Q9 (one odd span).

:func:`load` builds a :class:`Unit` with the system ``cc`` and loads it with
:mod:`ctypes` (which releases the GIL for the call).  Objects are cached
on disk under :data:`CACHE_DIR`, keyed by the source, the flags, the
compiler and the host CPU, so a ``-march=native`` object never loads on
another CPU; a build runs under a file lock and lands by atomic rename,
so concurrent processes build once, and a warm load runs no subprocess.
"""

from __future__ import annotations

import ctypes
import fcntl
import hashlib
import os
import platform
import shutil
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from repro.lbm.lattice import Lattice

#: ``-ffp-contract=off``: no fused multiply-add, every product rounds.
#: ``-fno-trapping-math``: lets the guarded divide if-convert (both arms
#: computed, one selected); values are unchanged, only FP exception
#: flags differ, and nothing reads them.
FLAGS = ("-O3", "-ffp-contract=off", "-fno-trapping-math", "-march=native",
         "-shared", "-fPIC")
COMPILER = "cc"
#: Shared on-disk object cache (the XDG default location); the system
#: temp directory when it cannot be created.
CACHE_DIR = Path(os.path.expanduser("~/.cache/repro"))

#: A face row's kinds as the closure numbers them: the exchange ships a
#: message face, the sweep closes a zero-gradient one or a self-wrap.
FACE_KINDS = {"message": 0, "zero": 1, "wrap": 2}

_CTYPES = {np.dtype(np.float32): ("float", ctypes.c_float),
           np.dtype(np.float64): ("double", ctypes.c_double)}
#: (unit, lattice tables, dtype) -> (library or None, why it is None).
_LOADED: dict[tuple, tuple[ctypes.CDLL | None, str | None]] = {}
_LOCK = threading.Lock()       # rank threads may ask at once


def _lit(x, dtype) -> str:
    """``x`` rounded to ``dtype``, as an exact C literal of type ``T``."""
    return f"((T){float(dtype.type(x)).hex()})"


def _signed_sum(terms) -> str:
    """``[(sign, expr)]`` summed left to right (a leading ``-`` is a
    negation of the first term, as in the reference)."""
    return " ".join(("+ " if sign > 0 else "- ") + expr
                    for sign, expr in terms).removeprefix("+ ")


def collide_groups(lat: Lattice, links) -> list:
    """``links`` as a collision visits them: one group per link or per
    opposite pair (``+`` member first) sharing ``x``.

    Each group is ``(members, terms)``.  ``members`` lists ``(pos, link,
    sign)``, ``pos`` the link's place in ``links`` and ``c_link . u =
    sign * x``; ``terms`` are the ``(axis, sign)`` of ``x = u_a +/- u_b``,
    first sign ``+``, and empty for the rest link.
    """
    links = list(links)
    groups, seen = [], set()
    for link in links:
        if link in seen:
            continue
        comps = [(a, int(v)) for a, v in enumerate(lat.c[link]) if v]
        sign = comps[0][1] if comps else 1
        members = [(links.index(link), link, sign)]
        opp = int(lat.opp[link])
        if comps and opp in links:
            members.append((links.index(opp), opp, -sign))
            members.sort(key=lambda m: -m[2])
            seen.add(opp)
        groups.append((members, [(a, v * sign) for a, v in comps]))
    return groups


def moment_lines(lat: Lattice) -> list[str]:
    """C for ``rho`` and ``j{a}`` from the populations ``v{q}``, summed
    in slot order by signed adds (``c * v`` is ``v`` or ``-v``, exact)."""
    return (["T rho = " + " + ".join(f"v{q}" for q in range(lat.Q)) + ";"]
            + [f"T j{a} = " + _signed_sum([(int(lat.c[q, a]), f"v{q}")
                                          for q in range(lat.Q) if lat.c[q, a]])
               + ";" for a in range(lat.D)])


def relax_lines(lat: Lattice, dtype, groups, rate: str) -> list[str]:
    """C for one site's BGK relaxation of ``groups`` (:func:`collide_groups`)
    from ``rho``, ``u{a}`` and the populations ``v{pos}``, at ``rate``:
    ``T h{pos} = f + ω(feq − f)`` with ``feq = wρ·(((1 ± 3x) + (4.5x)x)
    − 1.5u·u)``, one C expression per reference operation (DESIGN §5a)."""
    one = "((T)1)"
    usq = " + ".join(f"u{a} * u{a}" for a in range(lat.D))
    lines = [f"T usq = ({usq}) * {_lit(0.5 / lat.cs2, dtype)};"]
    for members, terms in groups:
        p = members[0][0]
        if terms:
            # c_m.u = -(c_p.u) exactly: 1 - 3cu is the sign-flipped bracket.
            lines += [f"T cu{p} = {_signed_sum([(v, f'u{a}') for a, v in terms])};",
                      f"T qq{p} = (cu{p} * {_lit(0.5 / lat.cs2 ** 2, dtype)}) * cu{p};",
                      f"T t{p} = cu{p} * {_lit(1.0 / lat.cs2, dtype)};"]
        for pos, link, sign in members:
            head = f"t{p} + {one}" if sign > 0 else f"{one} - t{p}"
            e = f"(({head}) + qq{p}) - usq" if terms else f"{one} - usq"
            rw = f"(rho * {_lit(lat.w[link], dtype)})"   # common: the compiler CSEs it
            lines.append(f"T h{pos} = (({e}) * {rw} - v{pos}) * {rate} + v{pos};")
    return lines


def _site(lat: Lattice, dtype, load, store, om: str, fluid: str) -> list[str]:
    """One site's collision: ``load(q)`` reads population ``q``,
    ``store(q, h)`` writes its post-collision value ``h``."""
    Q, D = lat.Q, lat.D
    lines = [f"T v{q} = {load(q)};" for q in range(Q)] + moment_lines(lat)
    # The reference's spelling: divide by ``rho`` where positive, by 1
    # elsewhere, then zero where ``rho <= 0`` (a NaN ``rho`` keeps ``j``).
    lines.append("T safe = rho > 0 ? rho : ((T)1);")
    lines += [f"T u{a} = rho <= 0 ? ((T)0) : j{a} / safe;" for a in range(D)]
    lines += relax_lines(lat, dtype, collide_groups(lat, range(Q)), om)
    if fluid == "1":
        lines += [f"h{q} = h{q} + a{q};" for q in range(Q)]
    elif fluid is not None:
        lines += [f"h{q} = {fluid} ? h{q} + a{q} : h{q};" for q in range(Q)]
    return lines + [store(q, f"h{q}") for q in range(Q)]


def _closure(lat: Lattice) -> str:
    """C for the ghost closure (module docstring).

    ``faces`` has a row of ``Q + 1`` per face ``(a, -1), (a, +1)``: a
    count, then the slots pointing out of it; ``kind`` the box's
    :data:`FACE_KINDS` in that order.  ``aa_face`` fills a ghost layer
    with the outward slots from the border (or the far border), or
    folds the inward ones back, along axis ``a < D - 1`` of the slab at
    ``b`` (not a message face); ``aa_plane`` does the last axis row by
    row."""
    return (
        "static void aa_face(T *g, long sq, const long *n, const long *s,\n"
        "    const long *faces, const long *kind, long b, long a, int hi,\n"
        "    int fold) {\n"
        "const long k = kind[2 * a + hi];\nif (!k) return;\n"
        "const long d = hi ? n[a] - 1 - fold : fold;\n"
        "const long e = d + (hi ? -1 : 1) * (k == 2 ? n[a] - 2 : 1);\n"
        f"const long *sl = faces + (2 * a + (hi != fold)) * {lat.Q + 1};\n"
        "for (long j = 1; j <= sl[0]; j++) {\nT *F = g + sl[j] * sq + b;\n"
        "memcpy(F + d * s[a], F + e * s[a], s[a] * sizeof(T));\n}}\n"
        "static void aa_swap(T *f, long sq, const long *idx, long lo,\n"
        "    long hi) {\n"
        "for (long k = lo; k < hi; k++) {\nconst long c = idx[k];\n"
        + "".join(f"{{ T t = f[{q} * sq + c]; f[{q} * sq + c] = f[{o} * sq + c]; "
                  f"f[{o} * sq + c] = t; }}\n"
                  for q, o in enumerate(int(o) for o in lat.opp) if q < o)
        + "}}\n"
        # Plane p's own faces (fill or fold), the last axis row by row,
        # each row's solid sites swapped right after its folds.
        "static void aa_plane(T *g, long sq, const long *n, const long *s,\n"
        "    const long *faces, const long *kind, long p, int fold,\n"
        "    const long *bidx, const long *boff) {\n"
        "const long b = p * s[0], l = n[D - 1];\n"
        "const long kl = kind[2 * D - 2], ku = kind[2 * D - 1];\n"
        "const long wl = kl == 2 ? l - 2 : 1, wu = ku == 2 ? l - 2 : 1;\n"
        f"const long *lo = faces + (2 * D - 2 + fold) * {lat.Q + 1}, "
        f"*up = lo + (1 - 2 * fold) * {lat.Q + 1};\n"
        "long k = bidx ? boff[p] : 0;\n"
        "for (long a = 1; a < D - 1; a++) for (int hi = 0; hi < 2; hi++)\n"
        "  aa_face(g, sq, n, s, faces, kind, b, a, hi, fold);\n"
        # The last axis's two faces of each row: aa_face, hoisted.
        "for (long row = b; row < b + s[0]; row += l) {\n"
        "T *r = g + row + fold, *t = g + row + l - 1 - fold;\n"
        "for (long j = 1; kl && j <= lo[0]; j++) r[lo[j] * sq] = r[lo[j] * sq + wl];\n"
        "for (long j = 1; ku && j <= up[0]; j++) t[up[j] * sq] = t[up[j] * sq - wu];\n"
        "const long k0 = k;\n"
        "while (bidx && k < boff[p + 1] && bidx[k] < row + l) k++;\n"
        "aa_swap(g, sq, bidx, k0, k);\n}}\n"
        # Close plane p after the odd sweep: first the bounded x folds
        # that read or write it (plane 1's reads plane 2, plane N's
        # plane N - 1), then its own; a message face's ghost plane next
        # to it is folded too, as the exchange ships it rims and all.
        "static void aa_close(T *g, long sq, const long *n, const long *s,\n"
        "    const long *faces, const long *kind, const long *bidx,\n"
        "    const long *boff, long p) {\n"
        "const long N = n[0] - 2;\n"
        "if (kind[0] == 1 && p == 1)\n"
        "  aa_face(g, sq, n, s, faces, kind, 0, 0, 0, 1);\n"
        "if (kind[1] == 1 && p == (N > 1 ? N - 1 : 1))\n"
        "  aa_face(g, sq, n, s, faces, kind, 0, 0, 1, 1);\n"
        "aa_plane(g, sq, n, s, faces, kind, p, 1, bidx, boff);\n"
        "for (int hi = 0; hi < 2; hi++) if (!kind[hi] && p == (hi ? N : 1))\n"
        "  aa_plane(g, sq, n, s, faces, kind, hi ? N + 1 : 0, 1, NULL, NULL);\n}\n")


def source(lat: Lattice, dtype) -> str:
    """The C translation unit for ``lat`` in ``dtype`` (module docstring).

    Populations are ``T`` at link stride ``sq``; the batch box is ``nr``
    padded boxes at rank stride ``sr``, each C-contiguous with ``cells``
    cells, extents ``n[]`` and axis strides ``s[]``; ``solid`` is the
    batch-box keep mask (solids and the ghost shell), one byte per cell;
    ``add`` the force increment or NULL; ``faces`` the closure's slot
    table, ``kinds`` each box's :data:`FACE_KINDS` row; ``bidx`` the
    solid sites each box swaps behind its odd sweep (flat in the box,
    ascending, box after box) or NULL, and ``boff[r * (n[0] + 1) + p]``
    the first of box ``r``'s in plane ``p`` of the first axis.
    """
    dtype = np.dtype(dtype)
    Q, D = lat.Q, lat.D
    opp = [int(o) for o in lat.opp]

    def loops(head, first, load, store, om, fluid):
        # Twice: with the force increment at ``fluid`` sites, and without.
        # ``ivdep``: no loop-carried dependence, each site reads and
        # writes only the locations it owns.
        return "".join(
            f"if ({cond}) {{\n#pragma GCC ivdep\n{head} {{\n{first}\n"
            + "\n".join(_site(lat, dtype, load, store, om, force))
            + "\n}}\n" for cond, force in (("add", fluid), ("!add", None)))

    head = ("void aa_{}(T *f, long sq, long nr, long sr, long cells, "
            "const long *n, const long *s,\n"
            "  const unsigned char *solid, T omega, const T *add,\n"
            "  const long *faces, const long *kinds, const long *bidx, "
            "const long *boff) {{\n"
            "const long N = n[0] - 2;\n"
            "for (long r = 0; r < nr; r++) {{\n"
            "T *g = f + r * sr;\n"
            "const unsigned char *m = solid + r * cells;\n"
            "const long *kind = kinds + r * 2 * D;\n"
            "const long *bo = bidx ? boff + r * (N + 3) : NULL;\n"
            "int closes = 0;\nfor (long j = 0; j < 2 * D; j++) closes |= kind[j];\n"
            "const int xw = kind[0] == 2;\n"
            + "".join(f"const T a{q} = add ? add[{q}] : 0;\n"
                      for q in range(Q)))
    # Even phase: pointwise, reversed-direction writes; one chunk, the
    # whole box, or on a box that closes a face one plane of the first
    # axis at a time, each plane's ghost rows filled while it is in cache.
    even = ("const long chunk = closes ? s[0] : cells;\n"
            "for (long p = 0; p < cells / chunk; p++) {\n"
            "const unsigned char *mp = m + p * chunk;\n"
            + "".join(f"T *F{q} = g + {q} * sq + p * chunk;\n" for q in range(Q))
            + loops("for (long i = 0; i < chunk; i++)",
                    "const int s = mp[i]; const T om = s ? ((T)0) : omega;",
                    lambda q: f"F{q}[i]", lambda q, h: f"F{opp[q]}[i] = {h};",
                    "om", "!s")
            + "if (closes && p > 0 && p <= N)\n"
            "  aa_plane(g, sq, n, s, faces, kind, p, 0, NULL, NULL);\n}\n"
            "for (int hi = 0; closes && hi < 2; hi++)\n"
            "  aa_face(g, sq, n, s, faces, kind, 0, 0, hi, 0);\n")
    # Odd phase: one span per interior plane of the last two axes, flat
    # from its first interior site (1, 1) to its last.  The keep-select
    # is a bit blend (a masked site stores back what it loaded), which
    # vectorises without masked stores.
    strides = [f"s[{a}]" for a in range(D - 1)] + ["1"]
    lag = ("if (closes && x0 >= 2 && (!xw || x0 >= 3))\n"
           "  aa_close(g, sq, n, s, faces, kind, bidx, bo, x0 - 1);\n"
           if D >= 3 else "")
    odd = ("".join(f"for (long x{a} = 1; x{a} < n[{a}] - 1; x{a}++)\n"
                   for a in range(D - 2))
           + "{\nconst long b = " + " + ".join(
               [f"x{a} * s[{a}]" for a in range(D - 2)] + [f"s[{D - 2}] + 1"])
           + f";\nconst long span = (n[{D - 2}] - 2) * s[{D - 2}] - 2;\n"
           + "".join(f"T *L{q} = g + {q} * sq + b + " + " + ".join(
               f"({int(v)}) * {st}" for v, st in zip(lat.c[q], strides))
                     + ";\n" for q in range(Q))
           + loops("for (long i = 0; i < span; i++)",
                   "const int s = m[b + i]; const U k = (U)0 - (U)s;",
                   lambda q: f"L{opp[q]}[i]",
                   lambda q, h: (f"{{ U x, y; memcpy(&x, &v{opp[q]}, sizeof x); "
                                 f"memcpy(&y, &{h}, sizeof y); "
                                 f"x = (x & k) | (y & ~k); "
                                 f"memcpy(L{q} + i, &x, sizeof x); }}"),
                   "omega", "1")
           + lag + "}\n"
           # What the lag left open: the last plane, and with a
           # wrapping first axis its first plane, after the x wraps.
           "if (closes) {\n"
           "for (int hi = 0; xw && hi < 2; hi++)\n"
           "  aa_face(g, sq, n, s, faces, kind, 0, 0, hi, 1);\n"
           "for (long p = 1; p <= N; p++)\n"
           + ("if (p == N || (xw && p == 1))\n" if D >= 3 else "")
           + "aa_close(g, sq, n, s, faces, kind, bidx, bo, p);\n}\n")
    bits = {4: "uint32_t", 8: "uint64_t"}[dtype.itemsize]
    return ("#include <stdint.h>\n#include <string.h>\n"
            f"typedef {_CTYPES[dtype][0]} T;\ntypedef {bits} U;\n"
            f"enum {{ D = {D} }};\n"
            + _closure(lat)
            + head.format("even") + even + "}}\n"
            + head.format("odd") + odd + "}}\n"
            "void aa_bounce(T *f, long sq, const long *idx, long count) {\n"
            "aa_swap(f, sq, idx, 0, count);\n}\n")


def _cpu_flags() -> str:
    """The host's first ``/proc/cpuinfo`` flags line ("" elsewhere)."""
    try:
        with open("/proc/cpuinfo") as info:
            return next((line.strip() for line in info
                         if line.startswith(("flags", "Features"))), "")
    except OSError:
        return ""


def _cache_dir() -> Path:
    try:
        CACHE_DIR.mkdir(parents=True, exist_ok=True)
        return CACHE_DIR
    except OSError:
        fallback = Path(tempfile.gettempdir()) / "repro-cache"
        fallback.mkdir(exist_ok=True)
        return fallback


class Unit(NamedTuple):
    """A generated translation unit: its object-name prefix, its
    ``source(lat, dtype)``, its entry points ``entries(T)`` ->
    ``{name: argtypes}`` (``T`` the ctypes scalar; every entry returns
    void) and its own compile flags, after :data:`FLAGS` and part of
    its key; a compiler that refuses them builds the unit without them.
    :data:`AA` is the in-place sweep; the simulated GPU's fragment
    programs are another (:mod:`repro.gpu.lbm_gpu`)."""

    name: str
    source: Callable
    entries: Callable
    flags: tuple = ()


def _aa_entries(t) -> dict:
    P, L = ctypes.c_void_p, ctypes.c_long
    phase = [P, L, L, L, L, P, P, P, t, P, P, P, P, P]
    return {"aa_even": phase, "aa_odd": phase, "aa_bounce": [P, L, P, L]}


AA = Unit("aa", source, _aa_entries)


def describe(lat: Lattice, dtype, unit: Unit = AA, flags=None) -> dict:
    """Where ``unit``'s object for ``(lat, dtype)`` built with ``flags``
    (default: :data:`FLAGS` and the unit's own) lives and what keys it:
    ``{"cache", "compiler", "flags", "key", "path"}`` (``key``/``path``
    None without a compiler).  Runs no subprocess."""
    dtype = np.dtype(dtype)
    cc = shutil.which(COMPILER)
    flags = (*FLAGS, *unit.flags) if flags is None else flags
    info = {"cache": str(_cache_dir()), "compiler": cc,
            "flags": " ".join(flags), "key": None, "path": None}
    if cc is None or dtype not in _CTYPES:
        return info
    digest = hashlib.sha256("\0".join([
        unit.source(lat, dtype), info["flags"], os.path.realpath(cc),
        str(os.stat(cc).st_mtime_ns), platform.machine(), _cpu_flags(),
    ]).encode()).hexdigest()[:16]
    info["key"] = digest
    info["path"] = str(Path(info["cache"])
                       / f"{unit.name}-{lat.name}-{dtype.name}-{digest}.so")
    return info


def _open(path: Path, unit: Unit, dtype) -> ctypes.CDLL | None:
    """The object at ``path`` with ``unit``'s entry points typed, or
    None if it is missing or does not load (a truncated write, say)."""
    try:
        lib = ctypes.CDLL(str(path))
        for name, argtypes in unit.entries(_CTYPES[dtype][1]).items():
            fn = getattr(lib, name)
            fn.argtypes, fn.restype = argtypes, None
    except (OSError, AttributeError):
        return None
    return lib


def _build(lat: Lattice, dtype, unit: Unit, info: dict) -> ctypes.CDLL:
    """Compile into the cache under its lock; returns the loaded object.
    Raises ``RuntimeError`` naming what failed."""
    path = Path(info["path"])
    lock = os.open(path.parent, os.O_RDONLY)    # the cache directory
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)        # released by the close
        lib = _open(path, unit, dtype)          # built while we waited?
        if lib is not None:
            return lib
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            c_file = Path(tmp) / f"{unit.name}.c"
            c_file.write_text(unit.source(lat, dtype))
            so = Path(tmp) / f"{unit.name}.so"
            done = subprocess.run([info["compiler"], *info["flags"].split(), str(c_file),
                                   "-o", str(so)], capture_output=True,
                                  text=True, timeout=300)
            if done.returncode != 0:
                raise RuntimeError(f"{COMPILER} failed: "
                                   f"{done.stderr.strip()[-300:]}")
            os.replace(so, path)
        lib = _open(path, unit, dtype)
        if lib is None:
            raise RuntimeError(f"built {path} but it does not load")
        return lib
    finally:
        os.close(lock)


def load(lat: Lattice, dtype, unit: Unit = AA
         ) -> tuple[ctypes.CDLL | None, str | None]:
    """``(library, None)``, or ``(None, reason)`` when ``unit`` cannot
    serve ``(lat, dtype)``.  Cached per process; a warm object on disk
    loads without a subprocess, a missing or unloadable one is
    (re)built: with the unit's own flags, else without them.  The
    library's ``info`` is :func:`describe`'s row of the object loaded."""
    dtype = np.dtype(dtype)
    memo = (unit.name, unit.flags, lat.c.tobytes(), lat.w.tobytes(), lat.cs2,
            dtype.str)
    with _LOCK:
        if memo in _LOADED:
            return _LOADED[memo]
        lib, missing = None, f"no compiled {unit.name} unit for dtype {dtype.name}"
        if dtype in _CTYPES and shutil.which(COMPILER) is None:
            missing = f"no C compiler ({COMPILER!r} not on PATH)"
        elif dtype in _CTYPES:
            for flags in [(*FLAGS, *unit.flags)] + [FLAGS] * bool(unit.flags):
                try:
                    info = describe(lat, dtype, unit, flags)
                    lib = (_open(Path(info["path"]), unit, dtype)
                           or _build(lat, dtype, unit, info))
                    lib.info, missing = info, None
                    break
                except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                    missing = f"compiled {unit.name} unit unavailable: {exc}"
        _LOADED[memo] = lib, missing
        return lib, missing
