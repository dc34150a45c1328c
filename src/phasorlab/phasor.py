"""Phasor arithmetic, traveling waves, and oscillatory-integral machinery.

Complex amplitudes are plain Python/numpy complex numbers.  A traveling
mode is a pair of polarization components riding e^{i(kz - wt + alpha)};
sampled fields hold such phasors on a shared z grid.  The inner products
here are windowed averages: cross terms between distinct wavenumbers decay
like 1/(dk * window) and vanish in the infinite-window (symbolic) limit,
which is the orthogonality rule every engine above this module relies on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class PolarizationPhasor:
    """Two complex field components (ex, ey) of a transverse wave."""

    ex: complex
    ey: complex

    @property
    def norm_sq(self) -> float:
        return abs(self.ex) ** 2 + abs(self.ey) ** 2

    def normalized(self) -> "PolarizationPhasor":
        n = math.sqrt(self.norm_sq)
        if n == 0.0:
            raise ValueError("cannot normalize a zero phasor")
        return PolarizationPhasor(self.ex / n, self.ey / n)

    def scaled(self, factor: complex) -> "PolarizationPhasor":
        return PolarizationPhasor(self.ex * factor, self.ey * factor)

    def dot(self, other: "PolarizationPhasor") -> complex:
        """Hermitian dot product <self|other> (conjugates self)."""
        return self.ex.conjugate() * other.ex + self.ey.conjugate() * other.ey


@dataclass(frozen=True)
class TravelingMode:
    """Plane wave moving along +z: amplitude * e^{i(kz - wt + alpha)}.

    The angular frequency is tied to the wavenumber through the configured
    propagation speed (natural units by default); the phase offset is
    stored reduced to [0, 2*pi).
    """

    wavenumber: float
    phase_offset: float
    amplitude: PolarizationPhasor
    speed: float = 1.0

    def __post_init__(self):
        if self.wavenumber <= 0.0:
            raise ValueError("wavenumber must be positive")
        if self.speed <= 0.0:
            raise ValueError("propagation speed must be positive")
        object.__setattr__(self, "phase_offset", self.phase_offset % TWO_PI)

    @property
    def angular_frequency(self) -> float:
        return self.speed * self.wavenumber

    @property
    def wavelength(self) -> float:
        return TWO_PI / self.wavenumber

    def sample(self, z: np.ndarray, t: float = 0.0) -> np.ndarray:
        """Sample both components on a z grid; returns shape (n, 2)."""
        phase = np.exp(
            1j * (self.wavenumber * np.asarray(z, dtype=float)
                  - self.angular_frequency * t + self.phase_offset)
        )
        return np.stack([self.amplitude.ex * phase, self.amplitude.ey * phase], axis=-1)


@dataclass(frozen=True)
class SampledField:
    """Phasor field sampled on an ascending z grid.

    ``values`` is (n,) for a scalar field or (n, 2) for a polarized one.
    """

    z: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        z = np.asarray(self.z, dtype=float)
        v = np.asarray(self.values, dtype=complex)
        if z.ndim != 1 or z.size < 2:
            raise ValueError("grid must be 1-D with at least two points")
        if np.any(np.diff(z) <= 0):
            raise ValueError("grid must be strictly ascending")
        if v.shape[0] != z.size:
            raise ValueError("values and grid lengths differ")
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "values", v)

    @property
    def span(self) -> float:
        return float(self.z[-1] - self.z[0])


def plane_wave(wavenumber: float, z: np.ndarray, amplitude: complex = 1.0,
               phase: float = 0.0) -> SampledField:
    """Scalar unit-speed plane wave amplitude * e^{i(kz + phase)} on a grid."""
    z = np.asarray(z, dtype=float)
    return SampledField(z, amplitude * np.exp(1j * (wavenumber * z + phase)))


def plane_wave_overlap(k1: float, k2: float, window: float | None = None) -> complex:
    """Windowed average of e^{i(k1 - k2)z}, or its infinite-window limit.

    Parameters
    ----------
    k1, k2 : float
        Wavenumbers of the two plane waves.
    window : float or None
        Averaging length.  ``None`` selects the symbolic rule: exactly 1
        for equal wavenumbers, exactly 0 otherwise.  A positive window
        returns (1/L) * int_0^L e^{i dk z} dz, whose modulus decays like
        O(1/(|dk| * L)).
    """
    if window is None:
        return 1.0 + 0.0j if k1 == k2 else 0.0 + 0.0j
    if window <= 0.0:
        raise ValueError("window must be positive in numeric mode")
    dk = k1 - k2
    if dk == 0.0:
        return 1.0 + 0.0j
    theta = dk * window
    return (np.exp(1j * theta) - 1.0) / (1j * theta)


def cesaro_inner_product(f: SampledField, g: SampledField, window: float,
                         levels: int = 4, ratio: float = 2.0) -> complex:
    """Cesaro-averaged inner product (1/w) * int conj(f) . g dz.

    The partial integrals are taken over sub-windows of geometrically
    growing size (``window / ratio**(levels-1)`` up to ``window``) and
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
    if f.values.shape != g.values.shape:
        raise ValueError("field component shapes differ")
    if window <= 0.0:
        raise ValueError("window must be positive")
    if f.span < window * (1.0 - 1e-12):
        raise ValueError("grid span is smaller than the averaging window")
    if levels < 1 or ratio <= 1.0:
        raise ValueError("need levels >= 1 and ratio > 1")

    integrand = np.conj(f.values) * g.values
    if integrand.ndim == 2:
        integrand = integrand.sum(axis=1)

    z0 = f.z[0]
    partials = []
    for i in range(levels):
        w = window / ratio ** (levels - 1 - i)
        stop = np.searchsorted(f.z, z0 + w, side="right")
        if stop < 2:
            raise ValueError("sub-window contains fewer than two samples")
        zs = f.z[:stop]
        actual = zs[-1] - z0
        partials.append(np.trapezoid(integrand[:stop], zs) / actual)
    return complex(np.mean(partials))
