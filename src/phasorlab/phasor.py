"""Phasor arithmetic, plane waves, and oscillatory-integral machinery.

Complex amplitudes are plain Python/numpy complex numbers.  A plane wave
is a pair of polarization components riding e^{ikz}; sampled fields hold
such phasors on a shared z grid.  The inner products here are windowed
averages: cross terms between distinct wavenumbers decay like
1/(dk * window) and vanish in the infinite-window (symbolic) limit, which
is the orthogonality rule every engine above this module relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# cesaro_inner_product averages partial integrals over this many sub-windows,
# each CESARO_RATIO times longer than the one before
CESARO_LEVELS = 4
CESARO_RATIO = 2.0


@dataclass(frozen=True)
class PolarizationPhasor:
    """Two complex field components (ex, ey) of a transverse wave."""

    ex: complex
    ey: complex

    def dot(self, other: "PolarizationPhasor") -> complex:
        """Hermitian dot product <self|other> (conjugates self)."""
        return self.ex.conjugate() * other.ex + self.ey.conjugate() * other.ey


@dataclass(frozen=True)
class SampledField:
    """Polarized phasor field on an ascending z grid: (n, 2) values, one column a component."""

    z: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("grid must be 1-D with at least two points")
        if not np.all(np.diff(z) > 0):  # NaN included
            raise ValueError("grid must be strictly ascending")
        if v.shape != (z.size, 2):
            raise ValueError(f"values must be ({z.size}, 2) on this grid, got {v.shape}")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "values", v)


def plane_wave(wavenumber: float, z: np.ndarray, amplitude: PolarizationPhasor) -> SampledField:
    """Plane wave amplitude * e^{ikz} on a grid, the traveling wave at t = 0: (n, 2) values."""
    z = np.asarray(z, dtype=float)
    carrier = np.exp(1j * (wavenumber * z))
    return SampledField(z, np.stack([amplitude.ex * carrier, amplitude.ey * carrier], -1))


def cesaro_inner_product(f: SampledField, g: SampledField, window: float) -> complex:
    """Cesaro-averaged inner product (1/w) * int conj(f) . g dz.

    The partial integrals are taken over ``CESARO_LEVELS`` sub-windows of
    geometrically growing size (``window / CESARO_RATIO**(CESARO_LEVELS-1)``
    up to ``window``) and
    averaged, so oscillatory cross terms decay while matched plane-wave
    terms are reproduced exactly as the product of their amplitudes.

    Raises
    ------
    ValueError
        If the two fields are not sampled on the same grid, or the grid
        does not span the requested window.
    """
    if f.z.shape != g.z.shape or not np.array_equal(f.z, g.z):
        raise ValueError("fields must be sampled on the same grid")
    if not window > 0.0:
        raise ValueError("window must be positive")
    if f.z[-1] - f.z[0] < window * (1.0 - 1e-12):
        raise ValueError("grid span is smaller than the averaging window")

    integrand = (np.conj(f.values) * g.values).sum(axis=1)

    z0 = f.z[0]
    partials = []
    for i in range(CESARO_LEVELS):
        w = window / CESARO_RATIO ** (CESARO_LEVELS - 1 - i)
        stop = np.searchsorted(f.z, z0 + w, side="right")
        if stop < 2:
            raise ValueError("sub-window contains fewer than two samples")
        zs = f.z[:stop]
        actual = zs[-1] - z0
        partials.append(np.trapezoid(integrand[:stop], zs) / actual)
    return complex(np.mean(partials))
