"""1-bit holographic localization by alias-set intersection.

A detection at position z with phase offset alpha fixes one parity bit:
which half-wavelength interval from the source the detector sits in.  A
bit carries its channel and alpha, so it inverts on its own into a
lambda-periodic union of length-lambda/2 intervals of candidate source
positions; ``localize(bits, domain)`` intersects those of several channels
and detectors, shrinking the candidate measure without excluding the source.

Intervals are half-open [lo, hi); parity flips exactly at interval edges,
so containment queries honor an edge tolerance (1e-9 * min(lambda, domain
length), widened at large phases to cover round-off) to keep boundary
tie-breaking deterministic; past ``MAX_BIT_PHASE`` a bit is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

EDGE_TOL_FACTOR = 1e-9
EPS = float(np.finfo(float).eps)
# one bit's alias set may hold at most this many intervals (~1 s and 0.7 GB at the limit)
MAX_ALIAS_INTERVALS = 10 ** 7
# fl(u/pi) is within 1.97 eps (|k dz| + |alpha|)/pi of u/pi (measured over 2e5 random
# harmonic bits), and rounding each decimal position adds eps/2 |k z|/pi: forward_bit puts
# u/pi on an integer within EDGE_SNAP_FACTOR eps (k |z_d| + k |z_s| + |alpha|)/pi of it
EDGE_SNAP_FACTOR = 4.0
# largest phase k(|z_d| + max|domain|) + |alpha| of a bit: a sweep first lost the true source
# at 5.8e12 rad (uniform sources) and 1e13 rad (sources a few ulps from an edge), and the
# interval budget allows 2 pi 1e7 rad on a domain starting at the origin
MAX_BIT_PHASE = 1e9
# alias_density's reference source sits this far into the domain (golden-ratio fraction)
REFERENCE_SOURCE_FRACTION = 0.61803398875


@dataclass(frozen=True)
class FrequencyChannel:
    """One query frequency: index j and wavenumber k_j."""

    index: int
    wavenumber: float

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("channel index must be >= 1")
        if not self.wavenumber > 0.0:
            raise ValueError("wavenumber must be positive")

    @property
    def wavelength(self) -> float:
        return math.tau / self.wavenumber

    @classmethod
    def harmonic(cls, index: int, base_wavelength: float) -> "FrequencyChannel":
        """Channel j of the harmonic ladder built on a base wavelength."""
        return cls(index, index * math.tau / base_wavelength)


@dataclass(frozen=True)
class DetectionBit:
    """Parity bit measured at one detector on one channel with phase offset alpha."""

    detector_position: float
    channel: FrequencyChannel
    alpha: float
    parity: int

    def __post_init__(self):
        if self.parity not in (0, 1):
            raise ValueError("parity must be 0 (even) or 1 (odd)")


@dataclass(frozen=True, eq=False)
class AliasSet:
    """Disjoint ascending half-open intervals, one (lo, hi) row each."""

    intervals: np.ndarray
    edge_tol: float
    granularity: float

    @property
    def measure(self) -> float:
        return math.fsum(self.intervals[:, 1] - self.intervals[:, 0])

    def contains(self, z: float) -> bool:
        lo, hi = self.intervals.T
        return bool(np.any((lo - self.edge_tol <= z) & (z <= hi + self.edge_tol)))

    def intersect(self, other: "AliasSet") -> "AliasSet":
        tol = max(self.edge_tol, other.edge_tol)
        a, b = self.intervals, other.intervals
        # both sets ascend, so row i of a overlaps the counts[i] rows of b from first[i]
        first = np.searchsorted(b[:, 1], a[:, 0], side="right")
        counts = np.maximum(np.searchsorted(b[:, 0], a[:, 1]) - first, 0)
        i = np.repeat(np.arange(len(a)), counts)
        j = np.arange(counts.sum()) + np.repeat(first + counts - np.cumsum(counts), counts)
        x, y = a[i], b[j]
        # where() fixes which of two equal zeros of opposite sign is kept; maximum() does not
        lo = np.where(y[:, 0] > x[:, 0], y[:, 0], x[:, 0])
        hi = np.where(y[:, 1] < x[:, 1], y[:, 1], x[:, 1])
        return AliasSet(np.column_stack([lo, hi])[hi - lo > tol], tol,
                        min(self.granularity, other.granularity))


def _check_phase(channel: FrequencyChannel, phase: float) -> None:
    if not phase <= MAX_BIT_PHASE:
        raise ValueError(f"channel {channel.index} reaches a phase of {phase:.3g} rad, above"
                         f" the limit of {MAX_BIT_PHASE:.0e} rad where round-off moves the"
                         " alias edges")


def forward_bit(z_source: float, z_detector: float, channel: FrequencyChannel,
                alpha: float = 0.0) -> DetectionBit:
    """Parity of the half-wavelength interval containing the detector.

    p = floor((k * (z_detector - z_source) + alpha) / pi) mod 2, so p = 0
    marks an even interval from the source and p = 1 an odd one; the bit
    is invariant under whole-wavelength shifts of either position.  For a
    source on an interval edge u/pi lands a few ulps either side of an
    integer; it is snapped onto it (``EDGE_SNAP_FACTOR``), so every bit of
    an edge source puts the source on the same side.  A bit whose phase
    k(|z_detector| + |z_source|) + |alpha| passes ``MAX_BIT_PHASE`` is refused.
    """
    k = channel.wavenumber
    phase = k * abs(z_detector) + k * abs(z_source) + abs(alpha)
    _check_phase(channel, phase)
    x = (k * (z_detector - z_source) + alpha) / math.pi
    m = round(x)
    if abs(x - m) <= EDGE_SNAP_FACTOR * EPS * phase / math.pi:
        x = m
    return DetectionBit(z_detector, channel, alpha, int(math.floor(x)) % 2)


def alias_intervals(bit: DetectionBit, domain: tuple[float, float]) -> AliasSet:
    """All source positions in the domain consistent with one bit.

    A lambda-periodic union of length-lambda/2 intervals clipped to the
    domain, with the observed parity selecting every other interval.
    """
    lo_d, hi_d = domain
    if not (hi_d > lo_d):
        raise ValueError("domain must have positive length")
    channel, alpha, z_d = bit.channel, bit.alpha, bit.detector_position
    k = channel.wavenumber
    lam = channel.wavelength

    # source z = z_d + (alpha - u)/k with u in [m*pi, (m+1)*pi), m parity-matched
    u_lo = (alpha - k * (hi_d - z_d)) / math.pi
    u_hi = (alpha - k * (lo_d - z_d)) / math.pi
    count = (u_hi - u_lo) / 2.0
    if not count <= MAX_ALIAS_INTERVALS:
        raise ValueError(f"channel {channel.index} has about {count:.3g} alias intervals"
                         f" in the domain, above the limit of {MAX_ALIAS_INTERVALS:.0e}")
    phase = k * abs(z_d) + k * max(abs(lo_d), abs(hi_d)) + abs(alpha)
    _check_phase(channel, phase)
    # an edge may sit forward_bit's snap window plus its own round-off from the source
    tol = max(EDGE_TOL_FACTOR * min(lam, hi_d - lo_d), 2 * EDGE_SNAP_FACTOR * EPS * phase / k)
    m_lo = math.floor(u_lo) - 2
    m_hi = math.ceil(u_hi) + 2
    # descending m gives ascending intervals
    m = np.arange(m_hi - (m_hi - bit.parity) % 2, m_lo - 1, -2, dtype=float)
    lo = z_d + (alpha - (m + 1) * math.pi) / k
    hi = z_d + (alpha - m * math.pi) / k
    lo = np.where(lo_d > lo, lo_d, lo)
    hi = np.where(hi_d < hi, hi_d, hi)
    return AliasSet(np.column_stack([lo, hi])[hi - lo > tol], tol, lam / 2.0)


def localize_prefixes(bits: Sequence[DetectionBit], domain: tuple[float, float],
                      group: int) -> Iterator[AliasSet]:
    """Yield ``localize(bits[:k * group], ...)`` for every k with k * group <= len(bits).

    One running intersection builds each bit's alias set once; the first
    empty yield point raises ValueError.
    """
    if not bits:
        raise ValueError("need at least one detection bit")
    result = None
    for count, bit in enumerate(bits, start=1):
        cell = alias_intervals(bit, domain)
        result = cell if result is None else result.intersect(cell)
        if count % group == 0:
            if not len(result.intervals):
                raise ValueError("inconsistent bits: no common source position")
            yield result


def localize(bits: Sequence[DetectionBit], domain: tuple[float, float]) -> AliasSet:
    """Intersect the alias sets of every bit across channels and detectors.

    The result contains the true source whenever the bits came from one;
    its granularity is half the shortest wavelength involved.  Raises
    ValueError when the intersection is empty, which signals bits that
    cannot share a source.
    """
    *_, result = localize_prefixes(bits, domain, len(bits))
    return result


def alias_density(channels: Sequence[FrequencyChannel], domain: tuple[float, float]) -> float:
    """Fraction of the domain still aliased after using every channel.

    Bits are generated with alpha = 0 for a reference source placed
    ``REFERENCE_SOURCE_FRACTION`` of the way into the domain and a single
    detector at the domain end.  One channel leaves exactly half the
    domain whenever it spans whole wavelengths; more channels never
    increase the density.
    """
    lo_d, hi_d = domain
    z_s = lo_d + REFERENCE_SOURCE_FRACTION * (hi_d - lo_d)
    bits = [forward_bit(z_s, hi_d, c) for c in channels]
    result = localize(bits, domain)
    return result.measure / (hi_d - lo_d)
