"""The in-place AA sweep as C, generated from the ``Lattice`` tables.

:func:`source` writes one translation unit per ``(lattice, dtype)`` with
the entry points :class:`~repro.lbm.aa.AAStepKernel` calls: ``aa_even``
(collide every site of a batch box, reversed-direction writes; solid
sites and their ghost images relax at rate 0), ``aa_odd`` (gather at
``n - c_q`` from slot ``opp(q)``, collide, scatter to ``n + c_q`` in
slot ``q``; solid-owned locations keep their bits) and ``aa_bounce``
(the :class:`~repro.lbm.boundaries.BounceBackNodes` swap over a flat
index list).  Each site's arithmetic is the reference's, op for op and
in order (DESIGN §5a; the identities it rests on are in
:mod:`repro.lbm.aa`); the compiler vectorises across the sites of a
row and, under :data:`FLAGS`, never reorders or fuses an operation.

:func:`load` builds the unit with the system ``cc`` and loads it with
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

_CTYPES = {np.dtype(np.float32): ("float", ctypes.c_float),
           np.dtype(np.float64): ("double", ctypes.c_double)}
#: (lattice tables, dtype) -> (library or None, reason it is None).
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


def _site(lat: Lattice, dtype, load, store, om: str, fluid: str) -> list[str]:
    """One site's collision: ``load(q)`` reads population ``q``,
    ``store(q, h)`` writes its post-collision value ``h``."""
    Q, D = lat.Q, lat.D
    one = "((T)1)"
    lines = [f"T v{q} = {load(q)};" for q in range(Q)]
    lines.append("T rho = " + " + ".join(f"v{q}" for q in range(Q)) + ";")
    for a in range(D):
        lines.append(f"T j{a} = " + _signed_sum(
            [(int(lat.c[q, a]), f"v{q}") for q in range(Q) if lat.c[q, a]]) + ";")
    # The reference's spelling: divide by ``rho`` where positive, by 1
    # elsewhere, then zero where ``rho <= 0`` (a NaN ``rho`` keeps ``j``).
    lines.append(f"T safe = rho > 0 ? rho : {one};")
    for a in range(D):
        lines.append(f"T u{a} = rho <= 0 ? ((T)0) : j{a} / safe;")
    usq = " + ".join(f"u{a} * u{a}" for a in range(D))
    lines.append(f"T usq = ({usq}) * {_lit(0.5 / lat.cs2, dtype)};")

    def relax(q, e):
        rw = f"(rho * {_lit(lat.w[q], dtype)})"     # common: the compiler CSEs it
        lines.append(f"T h{q} = (({e}) * {rw} - v{q}) * {om} + v{q};")
        if fluid == "1":
            lines.append(f"h{q} = h{q} + a{q};")
        elif fluid is not None:
            lines.append(f"h{q} = {fluid} ? h{q} + a{q} : h{q};")

    for p in range(Q):
        terms = [(int(v), f"u{a}") for a, v in enumerate(lat.c[p]) if v]
        if not terms or terms[0][0] < 0:
            continue            # rest link, or the negative half of a pair
        m = int(lat.opp[p])
        # c_m.u = -(c_p.u) exactly: 1 - 3cu is the sign-flipped bracket.
        lines += [f"T cu{p} = {_signed_sum(terms)};",
                  f"T qq{p} = (cu{p} * {_lit(0.5 / lat.cs2 ** 2, dtype)}) * cu{p};",
                  f"T t{p} = cu{p} * {_lit(1.0 / lat.cs2, dtype)};"]
        relax(p, f"((t{p} + {one}) + qq{p}) - usq")
        relax(m, f"(({one} - t{p}) + qq{p}) - usq")
    for r in range(Q):
        if int(lat.opp[r]) == r:
            relax(r, f"{one} - usq")
    lines += [store(q, f"h{q}") for q in range(Q)]
    return lines


def source(lat: Lattice, dtype) -> str:
    """The C translation unit for ``lat`` in ``dtype`` (module docstring).

    Populations are ``T`` at link stride ``sq``; the batch box is ``nr``
    padded boxes at rank stride ``sr``, each C-contiguous with ``cells``
    cells, extents ``n[]`` and axis strides ``s[]``; ``solid`` is the
    batch-box mask, one byte per cell; ``add`` the force increment or
    NULL.
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
            "  const unsigned char *solid, T omega, const T *add) {{\n"
            "for (long r = 0; r < nr; r++) {{\n"
            "T *g = f + r * sr;\n"
            "const unsigned char *m = solid + r * cells;\n"
            + "".join(f"const T a{q} = add ? add[{q}] : 0;\n"
                      for q in range(Q)))
    # Even phase: pointwise over whole boxes, reversed-direction writes.
    even = "".join(f"T *F{q} = g + {q} * sq;\n" for q in range(Q)) + loops(
        "for (long i = 0; i < cells; i++)",
        "const int s = m[i]; const T om = s ? ((T)0) : omega;",
        lambda q: f"F{q}[i]", lambda q, h: f"F{opp[q]}[i] = {h};", "om", "!s")
    # Odd phase: row by row over the interior of every box.
    strides = [f"s[{a}]" for a in range(D - 1)] + ["1"]
    odd = ("".join(f"for (long x{a} = 1; x{a} < n[{a}] - 1; x{a}++)\n"
                   for a in range(D - 1))
           + "{\nconst long b = "
           + " + ".join(f"x{a} * s[{a}]" for a in range(D - 1)) + ";\n"
           + "".join(f"T *L{q} = g + {q} * sq + b + " + " + ".join(
               f"({int(v)}) * {st}" for v, st in zip(lat.c[q], strides))
                     + ";\n" for q in range(Q))
           + loops(f"for (long z = 1; z < n[{D - 1}] - 1; z++)",
                   "const int s = m[b + z];", lambda q: f"L{opp[q]}[z]",
                   lambda q, h: f"L{q}[z] = s ? v{opp[q]} : {h};", "omega",
                   "1") + "}")
    swaps = "".join(
        f"{{ T t = f[{q} * sq + c]; f[{q} * sq + c] = f[{o} * sq + c]; "
        f"f[{o} * sq + c] = t; }}\n" for q, o in enumerate(opp) if q < o)
    return (f"typedef {_CTYPES[dtype][0]} T;\n"
            + head.format("even") + even + "}}\n"
            + head.format("odd") + odd + "}}\n"
            "void aa_bounce(T *f, long sq, const long *idx, long count) {\n"
            "for (long k = 0; k < count; k++) {\nconst long c = idx[k];\n"
            + swaps + "}}\n")


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


def describe(lat: Lattice, dtype) -> dict:
    """Where the object for ``(lat, dtype)`` lives and what keys it:
    ``{"cache", "compiler", "flags", "key", "path"}`` (``key``/``path``
    None without a compiler).  Runs no subprocess."""
    dtype = np.dtype(dtype)
    cc = shutil.which(COMPILER)
    info = {"cache": str(_cache_dir()), "compiler": cc,
            "flags": " ".join(FLAGS), "key": None, "path": None}
    if cc is None or dtype not in _CTYPES:
        return info
    digest = hashlib.sha256("\0".join([
        source(lat, dtype), info["flags"], os.path.realpath(cc),
        str(os.stat(cc).st_mtime_ns), platform.machine(), _cpu_flags(),
    ]).encode()).hexdigest()[:16]
    info["key"] = digest
    info["path"] = str(Path(info["cache"]) / f"aa-{lat.name}-{dtype.name}-{digest}.so")
    return info


def _open(path: Path, dtype) -> ctypes.CDLL | None:
    """The object at ``path`` with its entry points typed, or None if
    it is missing or does not load (a truncated write, say)."""
    try:
        lib = ctypes.CDLL(str(path))
        phases = (lib.aa_even, lib.aa_odd)
        bounce = lib.aa_bounce
    except (OSError, AttributeError):
        return None
    P, L = ctypes.c_void_p, ctypes.c_long
    for fn in phases:
        fn.argtypes = [P, L, L, L, L, P, P, P, _CTYPES[dtype][1], P]
        fn.restype = None
    bounce.argtypes = [P, L, P, L]
    bounce.restype = None
    return lib


def _build(lat: Lattice, dtype, info: dict) -> ctypes.CDLL:
    """Compile into the cache under its lock; returns the loaded object.
    Raises ``RuntimeError`` naming what failed."""
    path = Path(info["path"])
    lock = os.open(path.parent, os.O_RDONLY)    # the cache directory
    try:
        fcntl.flock(lock, fcntl.LOCK_EX)        # released by the close
        lib = _open(path, dtype)                # built while we waited?
        if lib is not None:
            return lib
        with tempfile.TemporaryDirectory(dir=path.parent) as tmp:
            c_file = Path(tmp) / "aa.c"
            c_file.write_text(source(lat, dtype))
            so = Path(tmp) / "aa.so"
            done = subprocess.run([info["compiler"], *FLAGS, str(c_file),
                                   "-o", str(so)], capture_output=True,
                                  text=True, timeout=300)
            if done.returncode != 0:
                raise RuntimeError(f"{COMPILER} failed: "
                                   f"{done.stderr.strip()[-300:]}")
            os.replace(so, path)
        lib = _open(path, dtype)
        if lib is None:
            raise RuntimeError(f"built {path} but it does not load")
        return lib
    finally:
        os.close(lock)


def load(lat: Lattice, dtype) -> tuple[ctypes.CDLL | None, str | None]:
    """``(library, None)``, or ``(None, reason)`` when no compiled sweep
    can serve ``(lat, dtype)``.  Cached per process; a warm object on
    disk loads without a subprocess, a missing or unloadable one is
    (re)built."""
    dtype = np.dtype(dtype)
    memo = (lat.c.tobytes(), lat.w.tobytes(), lat.cs2, dtype.str)
    with _LOCK:
        if memo in _LOADED:
            return _LOADED[memo]
        lib, missing = None, f"no compiled sweep for dtype {dtype.name}"
        if dtype in _CTYPES:
            try:
                info = describe(lat, dtype)
                if info["compiler"] is None:
                    missing = f"no C compiler ({COMPILER!r} not on PATH)"
                else:
                    lib = (_open(Path(info["path"]), dtype)
                           or _build(lat, dtype, info))
                    missing = None
            except (OSError, RuntimeError, subprocess.SubprocessError) as exc:
                missing = f"compiled sweep unavailable: {exc}"
        _LOADED[memo] = lib, missing
        return lib, missing
