"""Hamilton-Jacobi plane-wave residuals and the correspondence ratio.

The principal function S(q, t) = W(q) - E t is sampled on a uniform grid;
substituting psi = psi0 * e^{iS/hbar} into the Schrodinger form turns it
into

    (1/2m)(dS/dq)^2 + V + dS/dt  =  (i hbar / 2m) d^2S/dq^2,

whose left side is the classical Hamilton-Jacobi expression and whose
right side is the quantum correction, exactly linear in hbar.  Both sides
are evaluated by central differences on the interior grid only, keeping
the order-(dq^2) convergence claim clean.  The correspondence ratio
(lambda/p)(dp/dq) classifies where that correction is negligible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phasor import TWO_PI

CLASSICAL_FRACTION = 0.01  # |ratio| below this fraction of 2*pi is classical
# |d2W| h^2 within this times max|W| is round-off: each W sample carries up to ~2 eps
# and the stencil weights sum to 4 (free-particle linspace grids measured <= 4.4 eps)
CURVATURE_ROUNDOFF = 8.0 * np.finfo(float).eps


class GridTooSmallError(ValueError):
    """Fewer than five grid points; no interior for central stencils."""


class GridTooCoarseError(ValueError):
    """Estimated curvature error exceeds the requested tolerance."""


class TurningPointError(RuntimeError):
    """Momentum vanishes on the interior grid; the ratio is undefined there."""


@dataclass(frozen=True)
class PrincipalFunctionGrid:
    """Sampled characteristic function W with S = W - E t.

    The grid must be uniform up to float64 round-off of its coordinates
    (spacing spread at most 4 eps max|q|); the time dependence is carried
    analytically, so S(q, t2) - S(q, t1) is exactly -E (t2 - t1) by
    construction.
    """

    q: np.ndarray
    w: np.ndarray
    energy: float
    time: float = 0.0

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("grid must be 1-D with at least two points")
        d = np.diff(q)
        if np.any(d <= 0):
            raise ValueError("grid must be strictly increasing")
        # linspace round-off spreads the spacing by up to ~2.3 eps max|q| at any size
        if np.max(d) - np.min(d) > 4.0 * np.finfo(float).eps * max(abs(q[0]), abs(q[-1])):
            raise ValueError("grid spacing must be uniform")
        if w.shape != q.shape:
            raise ValueError("W values must match the grid")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)

    @property
    def spacing(self) -> float:
        return float(self.q[1] - self.q[0])

    @property
    def s_values(self) -> np.ndarray:
        return self.w - self.energy * self.time

    def at_time(self, t: float) -> "PrincipalFunctionGrid":
        return PrincipalFunctionGrid(self.q, self.w, self.energy, t)


@dataclass(frozen=True)
class MechanicalSystem:
    """Mass, sampled potential, and the action scale hbar."""

    mass: float
    potential: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        if self.mass <= 0.0:
            raise ValueError("mass must be positive")
        if self.hbar <= 0.0:
            raise ValueError("hbar must be positive")
        v = np.asarray(self.potential, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite on the grid")
        object.__setattr__(self, "potential", v)


def free_particle_S(p: float, m: float, q: np.ndarray,
                    t: float = 0.0) -> PrincipalFunctionGrid:
    """W = p q with E = p^2 / 2m; wavefronts move at u = E/p.

    S = p q - E t is constant along q = (S + E t) / p, so the front speed is
    E/p = p/2m exactly: half the particle velocity p/m.
    """
    if m <= 0.0:
        raise ValueError("mass must be positive")
    q = np.asarray(q, dtype=float)
    return PrincipalFunctionGrid(q, p * q, p * p / (2.0 * m), t)


def linear_potential_S(alpha: float, energy: float, m: float, q: np.ndarray,
                       t: float = 0.0) -> PrincipalFunctionGrid:
    """Characteristic function for V = alpha q at fixed total energy.

    W(q) = int sqrt(2m(E - alpha q)) dq = -(2m(E - alpha q))^{3/2} / (3 m alpha),
    valid while E - alpha q stays positive on the whole grid.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero; use free_particle_S instead")
    if m <= 0.0:
        raise ValueError("mass must be positive")
    q = np.asarray(q, dtype=float)
    gap = energy - alpha * q
    if np.any(gap <= 0.0):
        raise ValueError("E - alpha q must stay positive on the grid")
    w = -((2.0 * m * gap) ** 1.5) / (3.0 * m * alpha)
    return PrincipalFunctionGrid(q, w, energy, t)


def _central_diffs(grid: PrincipalFunctionGrid) -> tuple[np.ndarray, np.ndarray]:
    """(dS/dq, d2S/dq2) on the interior points, central stencils only.

    S = W - E t differs from W by a constant in q, so W is differenced: at
    large E t the constant would swamp W's digits.
    """
    s = grid.w
    h = grid.spacing
    ds = (s[2:] - s[:-2]) / (2.0 * h)
    d2s = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / (h * h)
    return ds, d2s


@dataclass(frozen=True)
class ResidualFields:
    """Both sides of the plane-wave substitution identity on the interior."""

    q: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    max_discrepancy: float


def hjs_residual(grid: PrincipalFunctionGrid, system: MechanicalSystem,
                 curvature_tol: float | None = None) -> ResidualFields:
    """Evaluate lhs = (1/2m)(dS/dq)^2 + V + dS/dt and rhs = (i hbar/2m) d2S/dq2.

    dS/dt is exactly -E by construction.  With ``curvature_tol`` set, the
    second derivative is re-estimated on the 2x-coarsened grid and the
    Richardson error estimate must stay below the tolerance, otherwise
    :class:`GridTooCoarseError` is raised.
    """
    if grid.q.size < 5:
        raise GridTooSmallError("need at least 5 grid points")
    if system.potential.shape != grid.q.shape:
        raise ValueError("potential must be sampled on the same grid")

    ds, d2s = _central_diffs(grid)
    if curvature_tol is not None:
        coarse = PrincipalFunctionGrid(grid.q[::2], grid.w[::2], grid.energy, grid.time)
        _, d2_coarse = _central_diffs(coarse)
        # fine interior index of coarse interior point i is 2i + 1
        shared_fine = d2s[1::2][:d2_coarse.size]
        err = np.max(np.abs(shared_fine - d2_coarse[:shared_fine.size])) / 3.0
        if err > curvature_tol:
            raise GridTooCoarseError(
                f"estimated curvature error {err:g} exceeds {curvature_tol:g}")

    two_m = 2.0 * system.mass
    lhs = ds * ds / two_m + system.potential[1:-1] - grid.energy
    rhs = 1j * system.hbar / two_m * d2s
    return ResidualFields(grid.q[1:-1], lhs, rhs,
                          float(np.max(np.abs(lhs - rhs))))


@dataclass(frozen=True)
class CorrespondenceField:
    """Dimensionless (lambda/p)(dp/dq) ratio with its classical-regime flags."""

    q: np.ndarray
    ratio: np.ndarray
    classical: np.ndarray


def bcp_ratio(grid: PrincipalFunctionGrid, system: MechanicalSystem) -> CorrespondenceField:
    """Bohr-correspondence ratio (lambda/p)(dp/dq) with lambda = 2 pi hbar / p.

    p = dS/dq by central differences; an interior |p| at most 1e-12 of the
    grid's largest is a hard turning-point error naming the grid location.
    Where d2W is within round-off (``CURVATURE_ROUNDOFF``) the ratio is 0.
    Points where |ratio| < 0.01 * 2 pi are flagged as classical.
    """
    if grid.q.size < 5:
        raise GridTooSmallError("need at least 5 grid points")
    p, dpdq = _central_diffs(grid)
    dead = np.abs(p) <= 1e-12 * np.max(np.abs(p))
    if np.any(dead):
        i = int(np.argmax(dead))
        raise TurningPointError(
            f"momentum vanishes at q = {grid.q[1:-1][i]:.9g} (interior index {i})")
    flat = np.abs(dpdq) <= CURVATURE_ROUNDOFF * np.max(np.abs(grid.w)) / grid.spacing ** 2
    ratio = np.where(flat, 0.0, TWO_PI * system.hbar * dpdq / np.where(flat, 1.0, p * p))
    classical = np.abs(ratio) < CLASSICAL_FRACTION * TWO_PI
    return CorrespondenceField(grid.q[1:-1], ratio, classical)
