"""Multiple-Relaxation-Time (MRT) collision for D3Q19.

Sec 4.1 of the paper notes that the hybrid thermal LBM abandons BGK for
the more stable MRT collision model of d'Humieres et al. [8].  The MRT
operator transforms distributions to 19 moments, relaxes each moment
toward its equilibrium at its own rate, and transforms back::

    f <- f - M^-1 S (M f - m_eq)

The moment basis and equilibria follow d'Humieres, Ginzburg, Krafczyk,
Lallemand & Luo, "Multiple-relaxation-time lattice Boltzmann models in
three dimensions" (2002).  When every relaxation rate equals ``1/tau``
the operator reduces exactly to BGK with the same tau (tested).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import D3Q19, Lattice
from repro.lbm.macroscopic import density, momentum

#: Names of the 19 moments in basis order.
MOMENT_NAMES = (
    "rho", "e", "epsilon",
    "jx", "qx", "jy", "qy", "jz", "qz",
    "3pxx", "3pixx", "pww", "piww",
    "pxy", "pyz", "pxz",
    "mx", "my", "mz",
)

#: Indices of the conserved moments (density and momentum).
CONSERVED = (0, 3, 5, 7)


def mrt_matrix(lattice: Lattice = D3Q19) -> np.ndarray:
    """The 19x19 moment transform matrix ``M`` (integer entries).

    Rows are the Gram-Schmidt polynomial basis of d'Humieres et al.
    evaluated on the link velocities.
    """
    if lattice.name != "D3Q19":
        raise ValueError("MRT basis implemented for D3Q19 only")
    c = lattice.c.astype(np.float64)
    cx, cy, cz = c[:, 0], c[:, 1], c[:, 2]
    c2 = cx * cx + cy * cy + cz * cz
    rows = [
        np.ones_like(cx),                       # rho
        19.0 * c2 - 30.0,                       # e (energy)
        (21.0 * c2 * c2 - 53.0 * c2 + 24.0) / 2.0,  # epsilon (energy^2)
        cx,                                     # jx
        (5.0 * c2 - 9.0) * cx,                  # qx (energy flux)
        cy,                                     # jy
        (5.0 * c2 - 9.0) * cy,                  # qy
        cz,                                     # jz
        (5.0 * c2 - 9.0) * cz,                  # qz
        3.0 * cx * cx - c2,                     # 3 p_xx
        (3.0 * c2 - 5.0) * (3.0 * cx * cx - c2),  # 3 pi_xx
        cy * cy - cz * cz,                      # p_ww
        (3.0 * c2 - 5.0) * (cy * cy - cz * cz),   # pi_ww
        cx * cy,                                # p_xy
        cy * cz,                                # p_yz
        cx * cz,                                # p_xz
        (cy * cy - cz * cz) * cx,               # m_x
        (cz * cz - cx * cx) * cy,               # m_y
        (cx * cx - cy * cy) * cz,               # m_z
    ]
    return np.array(rows)


def default_rates(tau: float) -> np.ndarray:
    """Standard relaxation-rate vector for viscosity-setting ``tau``.

    Shear-viscosity moments (p_xx, p_ww, p_xy, p_yz, p_xz) relax at
    ``1/tau``; conserved moments at 0; the remaining kinetic moments use
    the stability-optimised rates of d'Humieres et al. (2002).
    """
    s_nu = 1.0 / tau
    s = np.zeros(19)
    s[1] = 1.19        # e
    s[2] = 1.4         # epsilon
    s[4] = s[6] = s[8] = 1.2   # q
    s[9] = s[11] = s[13] = s[14] = s[15] = s_nu
    s[10] = s[12] = 1.4        # pi
    s[16] = s[17] = s[18] = 1.98
    return s


def moment_equilibrium(lattice: Lattice, rho: np.ndarray, j: np.ndarray,
                       rho0: float = 1.0) -> np.ndarray:
    """Equilibrium moments ``m_eq`` (shape ``(19,) + grid``).

    Uses the constants (w_e = 3, w_ej = -11/2, w_xx = -1/2) that make
    ``m_eq == M f_eq^BGK`` with ``j = rho u`` and the ``1/rho0``
    linearisation replaced by ``1/rho`` (so the identity is exact; see
    tests).  ``rho0`` is retained for the incompressible variant.
    """
    jx, jy, jz = j[0], j[1], j[2]
    j2 = jx * jx + jy * jy + jz * jz
    inv = 1.0 / np.where(rho > 0, rho, rho.dtype.type(rho0))
    meq = np.zeros((19,) + rho.shape, dtype=rho.dtype)
    meq[0] = rho
    meq[1] = -11.0 * rho + 19.0 * inv * j2
    meq[2] = 3.0 * rho - 5.5 * inv * j2
    meq[3] = jx
    meq[4] = (-2.0 / 3.0) * jx
    meq[5] = jy
    meq[6] = (-2.0 / 3.0) * jy
    meq[7] = jz
    meq[8] = (-2.0 / 3.0) * jz
    meq[9] = inv * (2.0 * jx * jx - (jy * jy + jz * jz))
    meq[10] = -0.5 * meq[9]
    meq[11] = inv * (jy * jy - jz * jz)
    meq[12] = -0.5 * meq[11]
    meq[13] = inv * (jx * jy)
    meq[14] = inv * (jy * jz)
    meq[15] = inv * (jx * jz)
    # m_x, m_y, m_z equilibria are zero.
    return meq


#: Cells per block of :func:`_transform` (keeps the two (19, block)
#: operands of each accumulation pass cache-resident).
_BLOCK = 4096


def _transform(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
    """``mat @ x`` for ``x`` of shape ``(19, N)``, accumulated column of
    ``mat`` by column with elementwise ufuncs.

    BLAS picks its kernel (gemv for ``N == 1``, a gemm tile otherwise)
    and hence its accumulation order from the width and strides of
    ``x``, so ``mat @ x`` may round one cell differently depending on
    which other cells are collided with it.  Collision has to be
    pointwise to the last bit — the cluster decomposition hands the
    operator different batches of the same cells — so every cell gets
    the same
    fixed sequence of float multiplies and adds here.
    """
    out = np.empty(x.shape, dtype=x.dtype)
    n = x.shape[1]
    tmp = np.empty((mat.shape[0], min(n, _BLOCK)), dtype=x.dtype)
    cols = [mat[:, k, None] for k in range(mat.shape[1])]
    for lo in range(0, n, _BLOCK):
        xb, ob = x[:, lo:lo + _BLOCK], out[:, lo:lo + _BLOCK]
        tb = tmp[:, :xb.shape[1]]
        np.multiply(cols[0], xb[0], out=ob)
        for k in range(1, len(cols)):
            np.multiply(cols[k], xb[k], out=tb)
            ob += tb
    return out


class MRTCollision:
    """MRT collision operator for D3Q19.

    Parameters
    ----------
    lattice:
        Must be D3Q19.
    tau:
        Relaxation time controlling shear viscosity.
    rates:
        Optional explicit 19-vector of relaxation rates ``s``; overrides
        the default stability-optimised set.
    energy_source:
        Optional callable ``grid -> array`` returning an energy source
        term added to the ``e`` moment after relaxation; this is the
        coupling hook the hybrid thermal LBM uses ("coupled to the MRT
        LBM via an energy term", Sec 4.1).
    """

    def __init__(self, lattice: Lattice, tau: float,
                 rates: np.ndarray | None = None,
                 energy_source=None) -> None:
        if lattice.name != "D3Q19":
            raise ValueError("MRTCollision supports D3Q19 only")
        if tau <= 0.5:
            raise ValueError(f"tau must be > 0.5, got {tau}")
        self.lattice = lattice
        self.tau = float(tau)
        self.M = mrt_matrix(lattice)
        self.Minv = np.linalg.inv(self.M)
        s = default_rates(tau) if rates is None else np.asarray(rates, dtype=np.float64)
        if s.shape != (19,):
            raise ValueError("rates must be a 19-vector")
        if np.abs(s[list(CONSERVED)]).max() > 0:
            raise ValueError("conserved moments must have zero relaxation rate")
        self.s = s
        self.energy_source = energy_source
        # Precompute M^-1 diag(s) M for a single matmul per step.
        self._relax = self.Minv @ np.diag(self.s) @ self.M

    @property
    def viscosity(self) -> float:
        """Shear viscosity set by the p_xx/p_xy relaxation rate."""
        return (1.0 / 3.0) * (self.tau - 0.5)

    def __call__(self, f: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Collide in place (same contract as :class:`BGKCollision`)."""
        lat = self.lattice
        dtype = f.dtype
        grid = f.shape[1:]
        fw = f.reshape(19, -1)
        rho = density(f).reshape(-1)
        j = momentum(lat, f).reshape(3, -1)
        meq = moment_equilibrium(lat, rho, j)
        # f <- f - M^-1 S (M f - meq)
        dm = _transform(self.M.astype(dtype), fw) - meq
        delta = _transform(self.Minv.astype(dtype),
                           self.s.astype(dtype)[:, None] * dm)
        if mask is None:
            fw -= delta
        else:
            flat = mask.reshape(-1)
            fw[:, flat] -= delta[:, flat]
        if self.energy_source is not None:
            src = np.asarray(self.energy_source(grid), dtype=dtype).reshape(-1)
            # Inject into the energy moment: f += M^-1 e_1 src
            col = self.Minv[:, 1].astype(dtype)[:, None]
            if mask is None:
                fw += col * src[None, :]
            else:
                flat = mask.reshape(-1)
                fw[:, flat] += col * src[None, flat]
        if not np.may_share_memory(fw, f):
            # ``reshape`` had to copy (a strided view, e.g. the solver's
            # padded interior): the update above went to the copy.
            f[...] = fw.reshape(f.shape)
        return f
