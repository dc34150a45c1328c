"""Coincidence amplitudes of an entangled photon pair from classical phasors.

The parity-tagged pair state is r1.r2 +/- l1.l2 built from circular
polarization phasors; a detection at analyzer angle theta projects each
photon onto the unit linear phasor (cos theta, sin theta).  The joint
amplitude factorizes into per-detector inner products, evaluated either
symbolically (plane-wave orthogonality) or numerically as Cesaro-averaged
integrals of sampled plane-wave fields.  Amplitudes are taken at unit
field: with unit analyzers the joint table over x/y outcomes is
{0, i, 1, 0} across the two parities, and at field E every amplitude
scales as E^2.  The grid kernel :func:`joint_probabilities` evaluates the
closed form for two cells per angle pair and mirrors the other two.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .phasor import PolarizationPhasor, cesaro_inner_product, plane_wave

SQRT_HALF = 1.0 / math.sqrt(2.0)
# circular polarization states as classical phasors (x +/- i y)/sqrt(2)
RIGHT_CIRCULAR = PolarizationPhasor(SQRT_HALF, 1j * SQRT_HALF)
LEFT_CIRCULAR = PolarizationPhasor(SQRT_HALF, -1j * SQRT_HALF)

PARITIES = ("plus", "minus")
MODES = ("symbolic", "numeric")
# grid density of the numeric path's sampled fields
SAMPLES_PER_WAVELENGTH = 8
# wavenumber of the numeric path's plane waves; a whole-wavelength projection does not see it
WAVENUMBER = 1.0
# Cesaro window of the numeric path, in wavelengths
WINDOW_WAVELENGTHS = 1e4


@dataclass(frozen=True)
class PhotonPairState:
    """Entangled pair r1.r2 + parity * l1.l2 of unit-field photons."""

    parity: str

    def __post_init__(self):
        if self.parity not in PARITIES:
            raise ValueError(f"parity must be one of {PARITIES}")

    @property
    def parity_sign(self) -> float:
        return 1.0 if self.parity == "plus" else -1.0


@dataclass(frozen=True)
class AnalyzerSetting:
    """Linear analyzer at one detector; the angle is axis-valued (mod pi)."""

    detector_index: int
    angle: float

    def __post_init__(self):
        if self.detector_index not in (1, 2):
            raise ValueError("detector_index must be 1 or 2")
        object.__setattr__(self, "angle", self.angle % math.pi)


def analyzer_phasor(angle: float) -> PolarizationPhasor:
    """Unit linear-polarization phasor along the analyzer axis."""
    return PolarizationPhasor(math.cos(angle), math.sin(angle))


def _numeric_projection(bra: PolarizationPhasor, ket: PolarizationPhasor,
                        window_wavelengths: float) -> complex:
    """<bra|ket> by Cesaro integration of both plane-wave fields sampled from z = 0."""
    if window_wavelengths <= 0.0:
        raise ValueError("numeric mode needs a positive window")
    window = window_wavelengths * (math.tau / WAVENUMBER)
    n = max(int(window_wavelengths * SAMPLES_PER_WAVELENGTH), 16)
    z = np.linspace(0.0, window, n + 1)
    return cesaro_inner_product(plane_wave(WAVENUMBER, z, bra),
                                plane_wave(WAVENUMBER, z, ket), window)


def pair_amplitude(outcome1: AnalyzerSetting, outcome2: AnalyzerSetting,
                   pair: PhotonPairState, mode: str = "symbolic", *,
                   window_wavelengths: float = WINDOW_WAVELENGTHS) -> complex:
    """Joint amplitude <theta1 theta2 | pair> for one analyzer outcome each.

    ``mode`` selects symbolic plane-wave orthogonality or the numeric
    Cesaro-integration path over ``window_wavelengths`` of sampled field;
    the two agree within the windowed-average decay bound.
    """
    if outcome1.detector_index == outcome2.detector_index:
        raise ValueError("outcomes must come from two distinct detectors")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")

    total = 0.0 + 0.0j
    for ket, weight in ((RIGHT_CIRCULAR, 1.0), (LEFT_CIRCULAR, pair.parity_sign)):
        a1, a2 = (analyzer_phasor(o.angle).dot(ket) if mode == "symbolic" else
                  _numeric_projection(analyzer_phasor(o.angle), ket, window_wavelengths)
                  for o in (outcome1, outcome2))
        total += weight * a1 * a2
    return total


def joint_probabilities(theta1, theta2, pair: PhotonPairState,
                        mode: str = "symbolic") -> np.ndarray:
    """Coincidence probability tables over (along, perpendicular) outcomes per detector.

    Each angle may be a number or an array; the result has shape
    shape(theta1) + shape(theta2) + (2, 2), one table per grid point.  Entry
    [..., i, j] is the probability that detector 1 fires along theta1 + i*pi/2
    and detector 2 along theta2 + j*pi/2.  With the angles a, b reduced mod
    pi, :func:`pair_amplitude` is the closed form (1/2)(e^{i(a+b)} +
    s e^{-i(a+b)}): cos(a+b) or i sin(a+b).  It depends on a+b alone, and
    turning both analyzers a quarter turn adds pi to it, so only the (x,x)
    and (x,y) cells are evaluated; (y,y) and (y,x) are their copies.  This is
    the sum convention; a caller mirrors detector 2 (the difference one, the
    handedness the correlation sign leaves open) with -theta2.  ``numeric`` mode
    scales every amplitude by the carrier's squared self-overlap over
    ``WINDOW_WAVELENGTHS``.  That factor, like a field scale E^2, cancels here.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    t1, t2 = np.asarray(theta1, dtype=float), np.asarray(theta2, dtype=float)
    b = np.mod(t2.reshape(-1, 1) + [0.0, math.pi / 2], math.pi)
    # (n1, n2, 2) phases: detector 1 along theta1, detector 2 along and across theta2.
    # ``cells`` is rebound at each step, so one intermediate at a time is alive.
    cells = np.mod(t1, math.pi).reshape(-1, 1, 1) + b
    cells = np.cos(cells) if pair.parity == "plus" else 1j * np.sin(cells)
    if mode == "numeric":
        # the projection is linear in the phasor components: each numeric detector
        # amplitude is the symbolic one times the unit carrier's self-overlap at z = 0
        unit = analyzer_phasor(0.0)
        overlap = _numeric_projection(unit, unit, WINDOW_WAVELENGTHS)
        cells = overlap * overlap * cells
    cells = np.abs(cells) ** 2
    cells /= 2.0 * (cells[..., :1] + cells[..., 1:])
    return cells[..., [[0, 1], [1, 0]]].reshape(t1.shape + t2.shape + (2, 2))


def correlation_E(theta1, theta2, pair: PhotonPairState):
    """Coincidence correlation P(same outcome) - P(different outcome), sum convention.

    Broadcasts like :func:`joint_probabilities`: shape(theta1) + shape(theta2).
    For the plus-parity pair this equals cos(2(theta1 + theta2)).
    """
    p = joint_probabilities(theta1, theta2, pair)
    return p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]


def detector1_marginal(theta1: float, theta2: float, pair: PhotonPairState) -> float:
    """P(detector 1 fires along its axis), summed over detector-2 outcomes (sum convention)."""
    p = joint_probabilities(theta1, theta2, pair)
    return float(p[0, 0] + p[0, 1])


def chsh_S(a: float, a_prime: float, b: float, b_prime: float, pair: PhotonPairState) -> float:
    """CHSH combination E(a,b) - E(a,b') + E(a',b) + E(a',b') from one 2x2 grid, sum convention."""
    e = correlation_E([a, a_prime], [b, b_prime], pair)
    return float(e[0, 0] - e[0, 1] + e[1, 0] + e[1, 1])


# Angles maximizing chsh_S for the plus pair under the sum convention,
# derived from the cos(2(theta1 + theta2)) correlation: S = 2*sqrt(2).
CHSH_OPTIMAL_ANGLES = (0.0, math.pi / 4, -math.pi / 8, -3 * math.pi / 8)
