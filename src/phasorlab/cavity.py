"""Thermalization of harmonic mode families under wall jitter.

A mode family is the harmonic ladder {f, 2f, 3f, ...} with exactly one
member energized at a time; wall displacements move the family between
adjacent members (one antinode at a time), so the occupancy performs a
+-1 Metropolis walk with stationary weights e^{-n h f / k_B T}.  The
equilibrium mean energy then reproduces the Planck form
hf / (e^{hf/k_B T} - 1), with the antinodal lobe energy h*f independent
of the wavelength.

Every step takes one uniform u: u < q/2 moves up, u >= 1/2 moves down
(refused at n = 0), anything else stays, with q = e^{-hf/k_B T}.
``equilibrate`` runs the walk vectorized through the reflected-walk
(Lindley) recursion, which is step-for-step identical to looping
``jitter_step`` over the same uniforms.  ``spectrum_sweep`` runs the
same recursion in chunks of ``CHUNK`` steps, carrying the last
occupancy.  A burn-in chunk keeps only its last occupancy and its move
count; a kept chunk adds its occupancies to exact integer sums.  So the
sweep's statistics equal ``equilibrate``'s bit for bit in O(CHUNK)
memory, and only ``equilibrate`` keeps the chain and its histogram.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .seeding import derive_rng

# e^{-x} underflows past this point; the closed form is reported as 0.
PLANCK_UNDERFLOW_X = 700.0
# steps per streamed chunk: a sweep's work memory is O(CHUNK), not O(steps)
CHUNK = 2 ** 16
# a sweep runs at most this many steps over all its chains (about 20 s at 20 ns/step)
MAX_SWEEP_STEPS = 10 ** 9
# geometric_chi_square merges the bins whose expected count is below this into one tail
CHI_SQUARE_MIN_EXPECTED = 5.0


@dataclass(frozen=True)
class ThermalBath:
    """Equilibrium context: temperature plus the two scale constants."""

    temperature: float
    boltzmann_k: float = 1.0
    planck_h: float = 1.0

    def __post_init__(self):
        if not all(x > 0.0 for x in (self.temperature, self.boltzmann_k, self.planck_h)):
            raise ValueError("temperature, k_B and h must all be positive")

    def beta_hf(self, frequency: float) -> float:
        """Dimensionless lobe energy hf / k_B T."""
        return self.planck_h * frequency / (self.boltzmann_k * self.temperature)


@dataclass(frozen=True)
class ModeFamily:
    """Harmonic family with member ``occupancy`` energized (0 = none)."""

    base_frequency: float
    occupancy: int = 0
    lobe_energy: float | None = None

    def __post_init__(self):
        if not self.base_frequency > 0.0:
            raise ValueError("base frequency must be positive")
        if self.occupancy < 0:
            raise ValueError("occupancy must be non-negative")
        if self.lobe_energy is None:
            object.__setattr__(self, "lobe_energy", self.base_frequency)
        if not self.lobe_energy > 0.0:
            raise ValueError("lobe energy must be positive")

    @classmethod
    def in_bath(cls, frequency: float, bath: ThermalBath,
                occupancy: int = 0) -> "ModeFamily":
        return cls(frequency, occupancy, bath.planck_h * frequency)


class PlanckEnergy(NamedTuple):
    energy: float
    underflowed: bool


def planck_expectation(frequency: float, bath: ThermalBath) -> PlanckEnergy:
    """Closed-form equilibrium energy hf / (e^{hf/k_B T} - 1).

    Overflow-safe: past hf/k_B T = 700 the value underflows to 0 and the
    flag is set instead of raising.
    """
    if not frequency > 0.0:
        raise ValueError("frequency must be positive")
    x = bath.beta_hf(frequency)
    hf = bath.planck_h * frequency
    if x > PLANCK_UNDERFLOW_X:
        return PlanckEnergy(0.0, True)
    return PlanckEnergy(hf / math.expm1(x), False)


def acceptance_probability(family: ModeFamily, bath: ThermalBath,
                           delta: int) -> float:
    """Metropolis acceptance min(1, e^{-dE/k_B T}) for occupancy += delta."""
    if delta not in (-1, 1):
        raise ValueError("only single-antinode moves are proposed")
    if delta == -1 and family.occupancy == 0:
        return 0.0
    d_energy = delta * family.lobe_energy
    return min(1.0, math.exp(-d_energy / (bath.boltzmann_k * bath.temperature)))


def jitter_step(family: ModeFamily, bath: ThermalBath,
                rng: np.random.Generator) -> ModeFamily:
    """One wall-jitter move from one uniform u: propose n -> n +- 1, accept per Metropolis.

    u < 1/2 proposes n + 1 with 2u as its Metropolis uniform; u >= 1/2
    proposes n - 1 with 2u - 1, so downhill moves always pass and the
    n -> -1 proposal is rejected outright, leaving the family unchanged.
    """
    u = rng.random()
    delta, metropolis_u = (1, 2.0 * u) if u < 0.5 else (-1, 2.0 * u - 1.0)
    if metropolis_u < acceptance_probability(family, bath, delta):
        return ModeFamily(family.base_frequency, family.occupancy + delta,
                          family.lobe_energy)
    return family


@dataclass
class ChainStatistics:
    """Post-burn-in summary of one occupancy chain.

    ``occupancies`` and ``occupancy_histogram`` (``np.bincount`` of the
    occupancies) hold the kept chain when ``equilibrate`` made it; the
    streamed chains of ``spectrum_sweep`` keep neither, so both are None.
    """

    steps: int
    occupancy_histogram: np.ndarray | None
    mean_occupancy: float
    mean_energy: float
    mean_energy_stderr: float
    acceptance_rate: float
    occupancies: np.ndarray | None = None


class _ChainBuffers:
    """Work arrays for up to ``size`` steps, written in place by every chunk."""

    def __init__(self, size: int):
        self.uniforms = np.empty(size)
        self.up = np.empty(size, dtype=bool)
        self.down = np.empty(size, dtype=bool)
        self.walk = np.empty(size, dtype=np.int64)
        self.low = np.empty(size, dtype=np.int64)


def _free_walk(q: float, steps: int, rng: np.random.Generator,
               buf: _ChainBuffers) -> tuple[np.ndarray, int]:
    """The unfloored walk S_t over ``steps`` fresh uniforms, and its nonzero increments.

    Increments: +1 where u < q/2 (uphill accepted), -1 where u >= 1/2
    (downhill proposal), else 0.  S is ``buf.walk[:steps]``.
    """
    u = rng.random(out=buf.uniforms[:steps])
    up = np.less(u, 0.5 * q, out=buf.up[:steps]).view(np.int8)
    down = np.greater_equal(u, 0.5, out=buf.down[:steps]).view(np.int8)
    increments = np.subtract(up, down, out=up)
    # widened in the walk buffer and summed in place: cumsum(..., dtype=int64)
    # would widen into a fresh temporary of 8 bytes a step on every chunk
    s = buf.walk[:steps]
    np.copyto(s, increments)
    return np.cumsum(s, out=s), np.count_nonzero(increments)


def _run_occupancies(n0: int, q: float, steps: int, rng: np.random.Generator,
                     buf: _ChainBuffers) -> tuple[np.ndarray, int]:
    """Vectorized +-1 Metropolis walk floored at 0, started from ``n0``.

    Flooring at zero is the reflected-walk (Lindley) recursion
    n_t = max(n0 + S_t, S_t - min_{j<=t} S_j) = S_t - min(-n0, min_{j<=t} S_j).
    Returns the occupancies, which are ``buf.walk[:steps]``, and the
    number of accepted moves, the steps at which the occupancy changes.
    """
    s, nonzero = _free_walk(q, steps, rng, buf)
    low = np.minimum.accumulate(s, out=buf.low[:steps])
    np.minimum(low, -n0, out=low)
    # each -1 refused at the floor lowers min(-n0, min S) by one below -n0
    refused = -n0 - int(low[-1])
    return np.subtract(s, low, out=s), nonzero - refused


def _burn_in(n0: int, q: float, steps: int, rng: np.random.Generator,
             buf: _ChainBuffers) -> tuple[int, int]:
    """``_run_occupancies`` reduced to what a burn-in keeps: the last occupancy and the moves."""
    s, nonzero = _free_walk(q, steps, rng, buf)
    low = min(int(s.min()), -n0)
    return int(s[-1]) - low, nonzero - (-n0 - low)


def _kept_steps(steps: int, burn_in: int) -> int:
    if burn_in < 0 or steps <= burn_in:
        raise ValueError("need steps > burn_in >= 0")
    return steps - burn_in


class _ChainTally:
    """Exact integer sums over a chain's kept occupancies, fed in order.

    The mean, the 32 batch means and the acceptance rate are quotients of
    these sums, so they do not depend on how the chain was cut up.
    ``moves`` also counts the burn-in's moves, which the caller adds.
    """

    def __init__(self, steps: int, burn_in: int):
        self.steps, self.kept = steps, _kept_steps(steps, burn_in)
        self.n_batches = min(32, self.kept)
        self.batch_len = self.kept // self.n_batches
        self.batch_sums = np.zeros(self.n_batches, dtype=np.int64)
        self.total = 0
        self.moves = 0
        self.seen = 0

    def add(self, occ: np.ndarray, moves: int) -> None:
        self.moves += moves
        start = self.seen  # kept index of occ[0]
        self.seen += occ.size
        self.total += int(occ.sum())
        b = self.batch_len
        in_batches = occ[:max(0, b * self.n_batches - start)]
        if in_batches.size:
            cuts = np.arange(-start % b, in_batches.size, b)
            sums = np.add.reduceat(in_batches, np.concatenate(([0], cuts[cuts > 0])))
            self.batch_sums[start // b:start // b + sums.size] += sums

    def statistics(self, lobe: float) -> ChainStatistics:
        mean_occ = self.total / self.kept
        batches = self.batch_sums / self.batch_len
        stderr = (float(batches.std(ddof=1) / math.sqrt(self.n_batches))
                  if self.n_batches > 1 else math.inf)
        return ChainStatistics(
            steps=self.steps, occupancy_histogram=None,
            mean_occupancy=mean_occ, mean_energy=mean_occ * lobe,
            mean_energy_stderr=stderr * lobe, acceptance_rate=self.moves / self.steps,
        )


def equilibrate(family: ModeFamily, bath: ThermalBath, steps: int,
                burn_in: int, rng: np.random.Generator) -> ChainStatistics:
    """Run the jitter chain and summarize its equilibrium statistics.

    The occupancy histogram converges to the geometric law
    P(n) = (1 - q) q^n with q = e^{-hf/k_B T}; the standard error of the
    mean energy comes from 32 batch means.  The burn-in and the kept
    steps each run as one chunk in a buffer of max(burn_in, steps -
    burn_in), which keeps the kept chain whole.
    """
    kept = _kept_steps(steps, burn_in)
    buf = _ChainBuffers(max(burn_in, kept))
    chain = _stream_chain(family, bath, steps, burn_in, rng, buf)
    chain.occupancies = buf.walk[:kept]
    chain.occupancy_histogram = np.bincount(chain.occupancies)
    return chain


def _stream_chain(family: ModeFamily, bath: ThermalBath, steps: int, burn_in: int,
                  rng: np.random.Generator, buf: _ChainBuffers) -> ChainStatistics:
    """The jitter chain on ``rng``, in chunks of ``buf``'s size, without the occupancies.

    Chunks are cut at ``burn_in``: a burn-in chunk carries only its last
    occupancy and its moves on.  The chain draws ``steps`` uniforms in
    order whatever the chunk size, so the statistics equal
    ``equilibrate``'s on the same stream bit for bit.
    """
    tally = _ChainTally(steps, burn_in)
    # the uphill acceptance of the scalar reference, not a re-derivation of it
    q = acceptance_probability(family, bath, 1)
    occupancy, chunk = family.occupancy, buf.walk.size
    for start in range(0, burn_in, chunk):
        occupancy, moves = _burn_in(occupancy, q, min(chunk, burn_in - start), rng, buf)
        tally.moves += moves
    for start in range(burn_in, steps, chunk):
        occ, moves = _run_occupancies(occupancy, q, min(chunk, steps - start), rng, buf)
        tally.add(occ, moves)
        occupancy = int(occ[-1])
    return tally.statistics(family.lobe_energy)


class SweepRow(NamedTuple):
    frequency: float
    mc_mean_energy: float
    mc_stderr: float
    closed_form: float
    relative_error: float
    acceptance_rate: float


def spectrum_sweep(frequencies: Sequence[float], bath: ThermalBath, steps: int,
                   burn_in: int, master_seed: int) -> list[SweepRow]:
    """One equilibrated chain per frequency, compared to the closed form.

    Chains are independent: replica i draws from the stream keyed by
    (master seed, "cavity", i), so duplicated frequencies give
    independent estimates of the same mean.  Each chain is streamed in
    chunks of ``CHUNK`` steps through one set of work buffers, so memory
    does not grow with ``steps``.  A sweep of more than ``MAX_SWEEP_STEPS``
    steps in all, or with a frequency that is not positive (NaN
    included), is refused before any chain starts.
    """
    if len(frequencies) * steps > MAX_SWEEP_STEPS:
        raise ValueError(f"a sweep of {len(frequencies)} x {steps} steps exceeds the budget"
                         f" of {MAX_SWEEP_STEPS:.0e} steps")
    if not all(f > 0.0 for f in frequencies):
        raise ValueError("frequencies must be positive")
    buf = _ChainBuffers(CHUNK)
    rows = []
    for i, f in enumerate(frequencies):
        family = ModeFamily.in_bath(f, bath)
        chain = _stream_chain(family, bath, steps, burn_in,
                              derive_rng(master_seed, "cavity", i), buf)
        closed = planck_expectation(f, bath).energy
        rel = abs(chain.mean_energy - closed) / closed if closed > 0.0 else math.inf
        rows.append(SweepRow(f, chain.mean_energy, chain.mean_energy_stderr,
                             closed, rel, chain.acceptance_rate))
    return rows


class FlowRatio(NamedTuple):
    level: int
    ratio: float
    log_sigma: float
    up_count: int
    down_count: int


def transition_flow_ratios(occupancies: np.ndarray, min_count: int = 25) -> list[FlowRatio]:
    """Empirical detailed-balance check per adjacent occupancy pair.

    For each level n, the ratio of the measured conditional rates
    P(n -> n+1) / P(n+1 -> n); in equilibrium this is e^{-hf/k_B T}.
    ``log_sigma`` is the delta-method error of log(ratio); levels with
    fewer than ``min_count`` transitions either way are skipped.
    """
    occ = np.asarray(occupancies)
    prev, nxt = occ[:-1], occ[1:]
    levels = int(occ.max()) + 1
    # one pass: per level, the transitions by jump clipped to -2..2, so the
    # table is 5 columns wide however many levels there are
    jumps = np.bincount(5 * prev + np.clip(nxt - prev, -2, 2) + 2,
                        minlength=5 * levels).reshape(levels, 5)
    visits = jumps.sum(axis=1)
    out = []
    for n in range(levels - 1):
        ups, downs = int(jumps[n, 3]), int(jumps[n + 1, 1])
        if min(ups, downs) < min_count:
            continue
        p_up = ups / int(visits[n])
        p_down = downs / int(visits[n + 1])
        sigma = math.sqrt((1.0 - p_up) / ups + (1.0 - p_down) / downs)
        out.append(FlowRatio(n, p_up / p_down, sigma, ups, downs))
    return out


def geometric_chi_square(histogram: np.ndarray, q: float) -> tuple[float, float, int]:
    """Chi-square goodness of fit of occupancy counts vs (1-q) q^n.

    Pearson's statistic presumes independent draws, so counts taken from
    a Metropolis chain must be thinned by a few autocorrelation times
    before binning or the statistic is inflated.  Bins past the point
    where the expected count drops under ``CHI_SQUARE_MIN_EXPECTED`` are
    merged into one tail bin.  Returns (statistic, p-value, degrees of
    freedom); q is fixed a priori, so dof = bins - 1.
    """
    counts = np.asarray(histogram, dtype=float)
    total = counts.sum()
    if total <= 0:
        raise ValueError("empty histogram")
    expected = total * np.array([(1 - q) * q ** n for n in range(counts.size)])

    cut = counts.size
    while cut > 1 and (expected[cut - 1] < CHI_SQUARE_MIN_EXPECTED
                       or total * q ** cut < CHI_SQUARE_MIN_EXPECTED):
        cut -= 1
    obs = np.concatenate([counts[:cut], [counts[cut:].sum()]])
    exp = np.concatenate([expected[:cut], [total * q ** cut]])
    if obs.size < 2:
        raise ValueError("too few occupancy levels for a chi-square test")
    statistic = float(np.sum((obs - exp) ** 2 / exp))
    dof = obs.size - 1
    return statistic, _chi_square_sf(statistic, dof), dof


def _chi_square_sf(statistic: float, dof: int) -> float:
    """Chi-square survival function Q(dof/2, h), h = statistic/2, in closed form.

    Abramowitz & Stegun 26.4.4-26.4.5: erfc(sqrt h) for odd dof, plus the
    Poisson weights h^s e^-h / Gamma(s + 1) for s = 1/2 or 0 up to dof/2 - 1.
    The largest weight is taken in log space and the rest by ratios outward
    from it, so no weight that counts underflows, whatever the dof.
    """
    h = statistic / 2.0
    s0, p = (0.5, math.erfc(math.sqrt(h))) if dof % 2 else (0.0, 0.0)
    top = dof / 2.0 - 1.0
    peak = min(top, s0 + math.floor(max(h - s0, 0.0)))
    if h == 0.0 or peak < s0:
        return 1.0 if h == 0.0 else p
    if peak < 50.0:
        log_peak = peak * math.log(h) - h - math.lgamma(peak + 1.0)
    else:  # Stirling's series, with the deviance peak log(peak/h) + h - peak by log1p
        log_peak = (peak - h - peak * math.log1p((peak - h) / h) - 0.5 * math.log(math.tau * peak)
                    - (1 / 12 - (1 / 360 - 1 / (1260 * peak ** 2)) / peak ** 2) / peak)
    peak_term = math.exp(log_peak)
    for step in (-1.0, 1.0):  # down to s0, then up to top
        term, s = peak_term, peak
        while term > 0.0 and s0 <= s + step <= top:
            term *= s / h if step < 0 else h / (s + 1.0)
            s += step
            p += term
    return p + peak_term


@dataclass(frozen=True)
class ConjugatePairCheck:
    """Commutator scales of two independent conjugate pairs."""

    k1: complex
    k2: complex
    agreement: float
    pattern_residual: float


def _quadrature_pair(dim: int, hbar: float, rotation: float,
                     scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated ladder-built canonical pair (u, v) = (s*X_phi, P_phi/s)."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    x = math.sqrt(hbar / 2.0) * (a * np.exp(-1j * rotation)
                                 + a.conj().T * np.exp(1j * rotation))
    p = math.sqrt(hbar / 2.0) * (-1j * a * np.exp(-1j * rotation)
                                 + 1j * a.conj().T * np.exp(1j * rotation))
    return scale * x, p / scale


def commutator_scale_check(dim: int, hbar: float = 1.0,
                           rotations: tuple[float, float] = (0.0, 0.6),
                           scales: tuple[float, float] = (1.0, 1.0)) -> ConjugatePairCheck:
    """Compare the commutator scale of two independent conjugate pairs.

    Each pair is built from an N-truncated ladder; uv - vu equals
    K * identity on the leading (N-1)-dimensional block (the truncation
    corrupts only the last diagonal entry), and both pairs share the same
    K = i*hbar regardless of rotation or inverse rescaling of (u, v).
    """
    if dim < 3:
        raise ValueError("need dimension >= 3")
    ks, residuals = [], []
    for rotation, scale in zip(rotations, scales):
        u, v = _quadrature_pair(dim, hbar, rotation, scale)
        comm = u @ v - v @ u
        block = comm[:dim - 1, :dim - 1]
        k = np.trace(block) / (dim - 1)
        residuals.append(float(np.max(np.abs(block - k * np.eye(dim - 1)))))
        ks.append(complex(k))
    agreement = abs(ks[0] - ks[1]) / max(abs(ks[0]), abs(ks[1]))
    return ConjugatePairCheck(ks[0], ks[1], agreement, max(residuals))
