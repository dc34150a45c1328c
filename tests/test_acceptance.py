"""Acceptance suite: one test per criterion, at the stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line
per criterion.  Monte Carlo criteria use the frozen master seed 1; the
RNG streams are counter-based and stable across runs and platforms.
"""

import hashlib
import math
import time

import numpy as np
import pytest

import oracles
from phasorlab import cavity, cli, epr, hj, holography, statespace
from phasorlab.seeding import derive_rng

MASTER_SEED = 1
CAVITY_RATIOS = (0.5, 1.0, 2.0, 5.0)


def report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


@pytest.fixture(scope="module")
def cavity_chains():
    start = time.monotonic()
    chains = {}
    for i, x in enumerate(CAVITY_RATIOS):
        chains[x] = cavity.equilibrate(x, 10 ** 6, 10 ** 4, derive_rng(MASTER_SEED, "cavity", i))
    return chains, time.monotonic() - start


def test_criterion_1_amplitude_table():
    start = time.monotonic()
    plus, minus = epr.PhotonPairState("plus"), epr.PhotonPairState("minus")
    x1 = epr.AnalyzerSetting(1, 0.0)
    x2 = epr.AnalyzerSetting(2, 0.0)
    y2 = epr.AnalyzerSetting(2, math.pi / 2)

    cases = [
        (x1, y2, plus, 0.0 + 0.0j),
        (x1, y2, minus, 1.0j),
        (x1, x2, plus, 1.0 + 0.0j),
        (x1, x2, minus, 0.0 + 0.0j),
    ]
    for o1, o2, pair, expected in cases:
        symbolic = epr.pair_amplitude(o1, o2, pair)
        assert abs(symbolic - expected) <= 1e-12
        numeric = epr.pair_amplitude(o1, o2, pair, "numeric",
                                     window_wavelengths=1e4)
        assert abs(numeric - symbolic) < 1e-2
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(1, f"x/y amplitude table exact, numeric path within 1e-2 ({elapsed:.2f}s)")


def test_criterion_2_correlation_and_chsh():
    start = time.monotonic()
    pair = epr.PhotonPairState("plus")
    thetas = np.linspace(0.0, math.pi, 50)
    worst = 0.0
    for t1 in thetas:
        for t2 in thetas:
            got = epr.correlation_E(t1, t2, pair)
            worst = max(worst, abs(got - math.cos(2.0 * (t1 + t2))))
    assert worst <= 1e-9

    s = epr.chsh_S(*epr.CHSH_OPTIMAL_ANGLES, pair)
    assert abs(s - 2.0 * math.sqrt(2.0)) <= 1e-6
    elapsed = time.monotonic() - start
    assert elapsed < 10.0
    report(2, f"correlation oracle worst dev {worst:.2e}, CHSH = 2*sqrt(2) "
              f"({elapsed:.2f}s)")


def test_criterion_3_no_signaling():
    pair = epr.PhotonPairState("plus")
    thetas = np.linspace(0.0, math.pi, 50)
    worst = 0.0
    for t1 in thetas:
        reference = epr.detector1_marginal(t1, thetas[0], pair)
        for t2 in thetas:
            worst = max(worst, abs(epr.detector1_marginal(t1, t2, pair)
                                   - reference))
    assert worst <= 1e-9
    report(3, f"detector-1 marginal independent of theta2 (worst {worst:.2e})")


def test_criterion_4_planck_reproduction(cavity_chains):
    start = time.monotonic()
    chains, equilibration_time = cavity_chains
    for x in CAVITY_RATIOS:
        chain = chains[x]
        closed = cavity.planck_energy(x)
        rel = abs(chain.mean_energy - closed) / closed
        assert rel < 0.02, f"ratio {x}: relative error {rel:.4f}"
        # Pearson needs near-independent draws: thin by ~3 correlation times
        thinned = np.bincount(chain.occupancies[::8])
        _, p_value, _ = oracles.geometric_chi_square(thinned, math.exp(-x))
        assert p_value >= 0.01, f"ratio {x}: chi-square p {p_value:.4f}"
    elapsed = equilibration_time + (time.monotonic() - start)
    assert elapsed < 60.0
    report(4, f"MC energies within 2% and geometric chi-square passes "
              f"({elapsed:.2f}s incl. equilibration)")


def test_criterion_5_detailed_balance(cavity_chains):
    chains, _ = cavity_chains
    for x in CAVITY_RATIOS:
        ratios = oracles.transition_flow_ratios(chains[x].occupancies)
        assert ratios, f"ratio {x}: no occupancy pair with enough transitions"
        for level in ratios:
            dev = abs(math.log(level.ratio) - (-x))
            assert dev < 3.0 * level.log_sigma, (
                f"ratio {x}, level {level.level}: {dev / level.log_sigma:.2f} sigma")
    report(5, "empirical flow ratios within 3 sigma of e^{-hf/k_B T}")


def test_criterion_6_holography():
    start = time.monotonic()
    rng = derive_rng(MASTER_SEED, "holo-acceptance", 0)
    domain = (0.0, 10.0)

    # soundness over 1e3 random (source, detectors, channels) trials
    for _ in range(1000):
        z_s = float(rng.uniform(0.05, 9.95))
        detectors = rng.uniform(-5.0, 5.0, size=int(rng.integers(1, 4)))
        indices = sorted(set(map(int, rng.integers(1, 8, size=int(rng.integers(1, 5))))))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        channels = [holography.FrequencyChannel.harmonic(j, 1.0) for j in indices]
        bits = [holography.forward_bit(z_s, float(d), c, alpha)
                for c in channels for d in detectors]
        result = holography.localize(bits, domain)
        assert result.contains(z_s)

    # alias measure never grows as channels accumulate
    z_s = 2.3
    channels = [holography.FrequencyChannel.harmonic(j, 1.0) for j in (1, 2, 3, 5)]
    previous = math.inf
    for k in range(1, len(channels) + 1):
        subset = channels[:k]
        bits = [holography.forward_bit(z_s, 0.0, c, 0.0) for c in subset]
        measure = holography.localize(bits, domain).measure
        assert measure <= previous + 1e-12
        previous = measure

    # a single parity bit halves the domain exactly
    one = holography.alias_density([channels[0]], domain)
    assert abs(one - 0.5) <= 1e-12

    # membership agrees with a lambda/1000 grid oracle on 100 random cases
    for _ in range(100):
        z_s = float(rng.uniform(0.05, 9.95))
        indices = sorted(set(map(int, rng.integers(1, 6, size=2))))
        alpha = float(rng.uniform(0.0, 2.0 * math.pi))
        chans = [holography.FrequencyChannel.harmonic(j, 1.0) for j in indices]
        bits = [holography.forward_bit(z_s, 0.0, c, alpha) for c in chans]
        result = holography.localize(bits, domain)

        lam_min = min(c.wavelength for c in chans)
        z = np.arange(domain[0], domain[1], lam_min / 1000.0)
        ok = np.ones(z.size, dtype=bool)
        for bit, c in zip(bits, chans):
            parity = np.floor((c.wavenumber * (bit.detector_position - z) + alpha)
                              / math.pi).astype(np.int64) % 2
            ok &= parity == bit.parity
        member = np.zeros(z.size, dtype=bool)
        boundary = np.zeros(z.size, dtype=bool)
        for lo, hi in result.intervals:
            member |= (z >= lo) & (z < hi)
            boundary |= (np.abs(z - lo) < 1e-6) | (np.abs(z - hi) < 1e-6)
        assert np.array_equal(member[~boundary], ok[~boundary])

    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(6, f"soundness x1000, monotone refinement, exact half-density, "
              f"grid oracle x100 ({elapsed:.2f}s)")


def test_criterion_7_state_space():
    rng = np.random.default_rng(MASTER_SEED)

    # companion-root residuals on random polynomials up to degree 12
    # (root moduli <= 2; larger roots push the bound under evaluation
    # round-off, where no residual criterion is meaningful in float64)
    for _ in range(200):
        degree = int(rng.integers(1, 13))
        true_roots = (2.0 * rng.uniform(0.1, 1.0, degree)
                      * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, degree)))
        lead = complex(rng.standard_normal(), rng.standard_normal()) + 0.5
        coeffs = tuple((lead * np.poly(true_roots))[::-1])
        roots = statespace.characteristic_roots(statespace.EvolutionSpec(coeffs))
        assert roots.shape == (degree,)
        bound = 1e-8 * np.max(np.abs(coeffs))
        for s in roots:
            assert abs(statespace.characteristic_value(coeffs, s)) < bound

    # norm drift under the exact propagator, 1e3 steps, d <= 16
    for _ in range(5):
        dim = int(rng.integers(2, 17))
        raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        h = statespace.HamiltonianOperator((raw + raw.conj().T) / 2)
        psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        psi0 /= np.linalg.norm(psi0)
        psi = statespace.schrodinger_propagate(h, psi0, 0.02, 1000)
        assert abs(np.linalg.norm(psi) - 1.0) < 1e-12

    # Rabi flip closed form
    omega = 2.0
    h = statespace.HamiltonianOperator(omega / 2.0 * np.array([[0.0, 1.0], [1.0, 0.0]]))
    psi = statespace.schrodinger_propagate(h, np.array([1.0, 0.0]),
                                           math.pi / omega / 400, 400)
    assert abs(abs(psi[1]) ** 2 - 1.0) <= 1e-9
    report(7, "root residuals < 1e-8, norm drift < 1e-12, Rabi flip exact")


def test_criterion_8_commutator_transitivity():
    check = statespace.commutator_scale_check(16)
    assert check.agreement <= 1e-12
    assert check.pattern_residual <= 1e-12

    rescaled = statespace.commutator_scale_check(16, scales=(2.0, 0.5))
    assert abs(rescaled.k1 - check.k1) <= 1e-12
    assert abs(rescaled.k2 - check.k2) <= 1e-12
    report(8, "K1 = K2 on the leading block; invariant under inverse rescaling")


def test_criterion_9_hamilton_jacobi():
    q = np.linspace(0.0, 1.0, 201)

    # free particle: both sides of the substitution identity vanish
    grid = hj.free_particle_S(1.0, 1.0, q)
    system = hj.MechanicalSystem(1.0, np.zeros_like(q), 1.0)
    res = hj.hjs_residual(grid, system)
    assert res.max_discrepancy < 1e-8

    # linear potential: rhs converges to the analytic curvature at order 2
    errors = []
    shared = None
    for n in (21, 41, 81):
        qn = np.linspace(0.0, 1.0, n)
        grid_n = hj.linear_potential_S(1.5, 2.0, 1.0, qn)
        system_n = hj.MechanicalSystem(1.0, 1.5 * qn, 1.0)
        res_n = hj.hjs_residual(grid_n, system_n)
        p = np.sqrt(2.0 * (2.0 - 1.5 * res_n.q))
        exact = 1j / 2.0 * (-1.5 / p)
        if shared is None:
            shared = res_n.q
        mask = np.isin(np.round(res_n.q, 12), np.round(shared, 12))
        errors.append(np.max(np.abs(res_n.rhs - exact)[mask]))
    orders = [math.log2(a / b) for a, b in zip(errors, errors[1:])]
    assert min(orders) >= 1.9

    # correspondence ratio equals 2 pi hbar m alpha / p^3 (sign from dp/dq)
    grid_l = hj.linear_potential_S(0.5, 10.0, 1.0, q)
    system_l = hj.MechanicalSystem(1.0, 0.5 * q, 1.0)
    field = hj.bcp_ratio(grid_l, system_l)
    p = np.sqrt(2.0 * (10.0 - 0.5 * field.q))
    closed = -2.0 * math.pi * 0.5 / p ** 3
    assert np.max(np.abs(field.ratio - closed)) <= 1e-6
    report(9, f"free residual < 1e-8, fd order {min(orders):.2f}, "
              f"ratio matches closed form")


def test_criterion_10_cli_determinism(tmp_path):
    cases = [
        ["epr", "--theta1", "0:90:5", "--theta2", "15", "--parity", "minus"],
        ["holo", "--channels", "1,2,3", "--source", "2.3"],
        ["holo", "--channels", "1,2", "--source", "2.3", "--format", "json"],
        ["cavity", "--hf-over-kt", "0.5,1,2,5", "--steps", "100000",
         "--burn-in", "5000", "--seed", "42"],
        ["evolve", "--coefficients", "1,0,1", "--initial", "1,0",
         "--t-final", "6.283", "--step", "0.001", "--every", "100"],
        ["hj", "--system", "linear", "--points", "101"],
    ]
    for i, argv in enumerate(cases):
        digests = []
        for attempt in ("a", "b"):
            out = tmp_path / f"run{i}{attempt}"
            assert cli.run(argv + ["--out", str(out)]) == 0
            digests.append(hashlib.sha256(out.read_bytes()).hexdigest())
        assert digests[0] == digests[1], f"non-deterministic output: {argv}"
    report(10, "double-run hashes identical for every subcommand")
