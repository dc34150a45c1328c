"""Hamilton-Jacobi plane-wave residuals and the correspondence ratio.

The characteristic function W(q) is sampled on a uniform grid, and the
principal function S = W - E t is carried by the energy alone;
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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

CLASSICAL_FRACTION = 0.01  # |ratio| below this fraction of 2*pi is classical
# |d2W| h^2 within this times max|W| is round-off: each W sample carries up to ~2 eps
# and the stencil weights sum to 4 (free-particle linspace grids measured <= 4.4 eps)
CURVATURE_ROUNDOFF = 8.0 * np.finfo(float).eps
# a |d2W| above that floor but within this factor of it is refused; a kept d2W then carries
# under 1e-3 relative round-off (linear-system grids measured at most 6.5e-4)
CURVATURE_RESOLUTION = 1e3


@dataclass(frozen=True)
class PrincipalFunctionGrid:
    """Sampled characteristic function W with S = W - E t.

    The grid must be uniform up to float64 round-off of its coordinates
    (spacing spread at most 4 eps max|q|, and never less than four
    subnormal steps).  S differs from W by -E t, a constant in q, so no
    q-derivative depends on t and only W is stored.
    """

    q: np.ndarray
    w: np.ndarray
    energy: float

    def __post_init__(self):
        q = np.asarray(self.q, dtype=float)
        w = np.asarray(self.w, dtype=float)
        if q.ndim != 1 or q.size < 2:
            raise ValueError("grid must be 1-D with at least two points")
        d = np.diff(q)
        if not np.all(d > 0):  # NaN included
            raise ValueError("grid must be strictly increasing")
        # linspace round-off spreads the spacing by up to ~2.3 eps max|q|, or a subnormal step
        ulp = max(np.finfo(float).eps * max(abs(q[0]), abs(q[-1])), math.ulp(0.0))
        if np.max(d) - np.min(d) > 4.0 * ulp:
            raise ValueError("grid spacing must be uniform")
        if w.shape != q.shape:
            raise ValueError("W values must match the grid")
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "w", w)

    @property
    def spacing(self) -> float:
        return float(self.q[1] - self.q[0])

    @cached_property
    def central_diffs(self) -> tuple[np.ndarray, np.ndarray]:
        """(dS/dq, d2S/dq2) on the interior points, central stencils only, once per grid.

        S = W - E t differs from W by a constant in q, so W is differenced.
        d2S/dq2 is exactly 0 where it is within round-off (``CURVATURE_ROUNDOFF``),
        and one above that floor but within ``CURVATURE_RESOLUTION`` times it
        raises ValueError.  Fewer than 5 points, or a spacing whose square leaves
        the float range, raise ValueError.  Both arrays are read-only.
        """
        if self.q.size < 5:
            raise ValueError("need at least 5 grid points")
        s = self.w
        h = self.spacing
        if not 0.0 < (h2 := h * h) < math.inf:
            raise ValueError(f"grid spacing {h:g} squared leaves the float range")
        ds = (s[2:] - s[:-2]) / (2.0 * h)
        d2s = (s[2:] - 2.0 * s[1:-1] + s[:-2]) / h2
        size, floor = np.abs(d2s), CURVATURE_ROUNDOFF * np.max(np.abs(s)) / h2
        d2s[size <= floor] = 0.0
        if np.any(unresolved := (size > floor) & (size <= CURVATURE_RESOLUTION * floor)):
            # the floor scales as 1/h^2, so the weakest such row clears the band at this many
            most = 1 + int((self.q.size - 1) * math.sqrt(np.min(size[unresolved])
                                                         / (CURVATURE_RESOLUTION * floor)))
            raise ValueError(f"d2W is within {CURVATURE_RESOLUTION:g} times its round-off on"
                             f" {self.q.size} points; the span resolves at most {most} points")
        ds.flags.writeable = d2s.flags.writeable = False
        return ds, d2s


@dataclass(frozen=True)
class MechanicalSystem:
    """Mass, sampled potential, and the action scale hbar."""

    mass: float
    potential: np.ndarray
    hbar: float = 1.0

    def __post_init__(self):
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        if not self.hbar > 0.0:
            raise ValueError("hbar must be positive")
        v = np.asarray(self.potential, dtype=float)
        if not np.all(np.isfinite(v)):
            raise ValueError("potential must be finite on the grid")
        object.__setattr__(self, "potential", v)


def free_particle_S(p: float, m: float, q: np.ndarray) -> PrincipalFunctionGrid:
    """W = p q with E = p^2 / 2m.

    S = p q - E t is constant along q = (S + E t) / p, so wavefronts move at
    E/p = p/2m: half the particle velocity p/m.
    """
    if not m > 0.0:
        raise ValueError("mass must be positive")
    if not math.isfinite(p):
        raise ValueError(f"momentum must be finite, got {p:g}")
    q = np.asarray(q, dtype=float)
    return PrincipalFunctionGrid(q, p * q, p * p / (2.0 * m))


def linear_potential_S(alpha: float, energy: float, m: float,
                       q: np.ndarray) -> PrincipalFunctionGrid:
    """Characteristic function for V = alpha q at fixed total energy.

    W(q) = int sqrt(2m(E - alpha q)) dq = -(2m(E - alpha q))^{3/2} / (3 m alpha),
    valid while E - alpha q stays positive on the whole grid.  The 3/2 power is
    g sqrt(g), two correctly rounded operations, so its bits do not depend on
    which SIMD kernel numpy dispatches for ``**`` on the CPU at hand.
    """
    if alpha == 0.0:
        raise ValueError("alpha must be nonzero; use free_particle_S instead")
    if not m > 0.0:
        raise ValueError("mass must be positive")
    q = np.asarray(q, dtype=float)
    gap = energy - alpha * q
    if not np.all(gap > 0.0):  # NaN included
        raise ValueError("E - alpha q must stay positive on the grid")
    g = 2.0 * m * gap
    w = -(g * np.sqrt(g)) / (3.0 * m * alpha)
    return PrincipalFunctionGrid(q, w, energy)


def _interior_diffs(grid: PrincipalFunctionGrid,
                    system: MechanicalSystem) -> tuple[np.ndarray, np.ndarray]:
    """``grid.central_diffs``; as W'' = -m V'/p, an all-zero d2W where V varies is refused."""
    if system.potential.shape != grid.q.shape:
        raise ValueError("potential must be sampled on the same grid")
    ds, d2s = grid.central_diffs
    v = system.potential
    if not d2s.any() and np.any(v != v[0]):
        raise ValueError(f"d2W is within its round-off on all {grid.q.size} points,"
                         " yet the potential is not constant")
    return ds, d2s


@dataclass(frozen=True)
class ResidualFields:
    """Both sides of the plane-wave substitution identity on the interior."""

    q: np.ndarray
    lhs: np.ndarray
    rhs: np.ndarray
    max_discrepancy: float


def hjs_residual(grid: PrincipalFunctionGrid, system: MechanicalSystem) -> ResidualFields:
    """Evaluate lhs = (1/2m)(dS/dq)^2 + V + dS/dt and rhs = (i hbar/2m) d2S/dq2.

    dS/dt is exactly -E by construction.
    """
    ds, d2s = _interior_diffs(grid, system)
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
    p, dpdq = _interior_diffs(grid, system)
    dead = np.abs(p) <= 1e-12 * np.max(np.abs(p))
    if np.any(dead):
        i = int(np.argmax(dead))
        raise ValueError(
            f"momentum vanishes at q = {grid.q[1:-1][i]:.9g} (interior index {i})")
    flat = dpdq == 0.0  # no curvature: 0 even where p * p underflows
    ratio = np.where(flat, 0.0, math.tau * system.hbar * dpdq / np.where(flat, 1.0, p * p))
    classical = np.abs(ratio) < CLASSICAL_FRACTION * math.tau
    return CorrespondenceField(grid.q[1:-1], ratio, classical)
