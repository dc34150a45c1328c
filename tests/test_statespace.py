import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorlab import statespace as ss
from phasorlab.statespace import commutator_scale_check


# --- characteristic roots ----------------------------------------------------

def test_harmonic_roots():
    omega = 2.5
    roots = ss.characteristic_roots(ss.EvolutionSpec((omega ** 2, 0.0, 1.0)))
    assert sorted(np.round(roots.imag, 10)) == pytest.approx([-omega, omega])
    assert np.max(np.abs(roots.real)) < 1e-10


def test_quadratic_roots_match_formula():
    # oracle: quadratic formula for s^2 + 3s + 2
    a, b, c = 1.0, 3.0, 2.0
    disc = math.sqrt(b * b - 4 * a * c)
    expected = sorted([(-b - disc) / (2 * a), (-b + disc) / (2 * a)])
    roots = sorted(ss.characteristic_roots(ss.EvolutionSpec((c, b, a))).real)
    assert roots == pytest.approx(expected, abs=1e-10)


def test_constant_solution_root():
    roots = ss.characteristic_roots(ss.EvolutionSpec((0.0, 1.0)))
    assert roots == pytest.approx([0.0])


def test_root_count_with_multiplicity():
    # (s + 1)^3 = s^3 + 3 s^2 + 3 s + 1
    roots = ss.characteristic_roots(ss.EvolutionSpec((1.0, 3.0, 3.0, 1.0)))
    assert roots.shape == (3,)
    assert roots == pytest.approx([-1.0, -1.0, -1.0], abs=1e-4)


def test_degenerate_order_rejected():
    with pytest.raises(ValueError, match="leading coefficient must be nonzero"):
        ss.EvolutionSpec((1.0, 2.0, 0.0))
    with pytest.raises(ValueError):
        ss.EvolutionSpec((1.0,))


@settings(deadline=None, max_examples=60)
@given(st.integers(1, 12), st.integers(0, 10 ** 6))
def test_random_polynomial_residuals(degree, seed):
    # random polynomials with root moduli <= 2: past |s| ~ 3.5 at degree 12
    # the absolute residual bound sinks below float64 evaluation round-off
    rng = np.random.default_rng(seed)
    true_roots = (2.0 * rng.uniform(0.1, 1.0, degree)
                  * np.exp(2j * math.pi * rng.uniform(0.0, 1.0, degree)))
    lead = complex(rng.standard_normal(), rng.standard_normal()) + 0.5
    coeffs = tuple((lead * np.poly(true_roots))[::-1])
    spec = ss.EvolutionSpec(coeffs)
    roots = ss.characteristic_roots(spec)
    assert roots.shape == (degree,)
    bound = 1e-8 * np.max(np.abs(coeffs))
    for s in roots:
        assert abs(ss.characteristic_value(coeffs, s)) < bound


# --- linear evolution ----------------------------------------------------------

def test_evolve_cosine():
    traj = ss.evolve_linear(ss.EvolutionSpec((1.0, 0.0, 1.0)), [1.0, 0.0],
                            math.pi, 1e-3)
    assert abs(traj.states[-1, 0] - (-1.0)) < 1e-6
    assert traj.times[-1] == pytest.approx(math.pi)


def test_evolve_exponential_decay():
    traj = ss.evolve_linear(ss.EvolutionSpec((1.0, 1.0)), [1.0], 1.0, 1e-3)
    assert abs(traj.states[-1, 0] - math.exp(-1.0)) < 1e-8


def test_evolve_zero_everything_stays_zero():
    traj = ss.evolve_linear(ss.EvolutionSpec((1.0, 0.0, 1.0)), [0.0, 0.0], 2.0, 1e-2)
    assert np.max(np.abs(traj.states)) == 0.0


def test_evolve_stability_guard():
    with pytest.raises(ValueError, match="exceeds stability bound"):
        ss.evolve_linear(ss.EvolutionSpec((100.0 ** 2, 0.0, 1.0)), [1.0, 0.0],
                         10.0, 0.5)
    with pytest.raises(ValueError):
        ss.evolve_linear(ss.EvolutionSpec((1.0, 1.0)), [1.0], 1.0, -0.1)
    with pytest.raises(ValueError):
        ss.evolve_linear(ss.EvolutionSpec((1.0, 1.0)), [1.0, 0.0], 1.0, 0.1)


@pytest.mark.parametrize("every", [0, -1])
def test_evolve_refuses_every_below_1_by_name(every):
    # once ended in ZeroDivisionError; the CLI refuses the same value as a config error
    with pytest.raises(ValueError, match="every must be at least 1"):
        ss.evolve_linear(ss.EvolutionSpec((1.0, 0.0, 1.0)), [1.0, 0.0], 1.0, 0.1, every)


def test_evolve_matches_root_superposition():
    # oracle: psi(t) = sum c_j e^{s_j t} with c from the Vandermonde system
    spec = ss.EvolutionSpec((2.0, 3.0, 1.0))  # roots -1, -2
    roots = ss.characteristic_roots(spec)
    initial = np.array([1.0, 0.5], dtype=complex)
    vander = np.vander(roots, 2, increasing=True).T
    c = np.linalg.solve(vander, initial)
    traj = ss.evolve_linear(spec, initial, 3.0, 1e-3)
    for idx in (0, 700, 1500, 3000):
        t = traj.times[idx]
        want = np.sum(c * np.exp(roots * t))
        assert abs(traj.states[idx, 0] - want) < 1e-6


def test_transients_decay():
    # all roots in the left half-plane: solution decays like e^{-alpha t}
    spec = ss.EvolutionSpec((4.0, 4.0, 1.0))  # (s+2)^2
    traj = ss.evolve_linear(spec, [1.0, 0.0], 6.0, 1e-3)
    assert abs(traj.states[-1, 0]) < 1e-4


# --- Schrodinger propagation ------------------------------------------------------

def test_zero_hamiltonian_is_identity():
    h = ss.HamiltonianOperator(np.zeros((3, 3)))
    psi0 = np.array([0.2, 0.5j, -0.7])
    psi = ss.schrodinger_propagate(h, psi0, 0.1, 25)
    np.testing.assert_allclose(psi, psi0, atol=1e-14)


def test_diagonal_phase_advance():
    # energies 0.7 and -1.3 at hbar = 2 are 0.35 and -0.65 in units of hbar
    e1, e2 = 0.7, -1.3
    h = ss.HamiltonianOperator(np.diag([e1 / 2.0, e2 / 2.0]).astype(complex))
    psi = ss.schrodinger_propagate(h, np.array([1.0, 1.0]) / math.sqrt(2), 0.05, 40)
    t = 0.05 * 40
    expected = np.array([np.exp(-1j * e1 * t / 2.0), np.exp(-1j * e2 * t / 2.0)])
    np.testing.assert_allclose(psi, expected / math.sqrt(2), atol=1e-12)


def test_rabi_full_population_transfer():
    omega = 3.0
    h = ss.HamiltonianOperator(omega / 2 * np.array([[0, 1], [1, 0]]))
    t_flip = math.pi / omega
    psi = ss.schrodinger_propagate(h, np.array([1.0, 0.0]), t_flip / 500, 500)
    assert abs(abs(psi[1]) ** 2 - 1.0) < 1e-9
    assert abs(psi[0]) < 1e-9


@settings(deadline=None, max_examples=15)
@given(st.integers(2, 16), st.integers(0, 10 ** 6))
def test_unitarity_and_energy_conservation(dim, seed):
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    h = ss.HamiltonianOperator((raw + raw.conj().T) / 2)
    psi0 = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    psi0 /= np.linalg.norm(psi0)
    def energy(psi):  # <psi|H|psi>, real for Hermitian H
        return (psi.conj() @ h.matrix @ psi).real
    psi = ss.schrodinger_propagate(h, psi0, 0.01, 1000)
    assert abs(np.linalg.norm(psi) - 1.0) < 1e-12
    assert abs(energy(psi) - energy(psi0)) < 1e-10


def test_non_hermitian_rejected():
    # a tolerance floored at 1 let the second through, to an identity propagator
    for matrix in ([[0.0, 1.0], [0.0, 0.0]], [[0.0, 1e-14], [0.0, 0.0]]):
        with pytest.raises(ValueError, match="Hermitian"):
            ss.HamiltonianOperator(np.array(matrix))


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_hamiltonian_rejected(value):
    with pytest.raises(ValueError, match="finite"):
        ss.HamiltonianOperator(np.array([[value, 0.0], [0.0, 0.0]]))


@pytest.mark.parametrize("exponent", [-300, -100, 0, 100, 300])
def test_hermiticity_tolerance_scales_with_max_abs_h(exponent):
    # a tolerance of 1e-12 max(1, max|H|) let every matrix below scale 1e-12 through
    rng = np.random.default_rng(exponent + 300)
    raw = 10.0 ** exponent * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    hermitian = (raw + raw.conj().T) / 2
    ss.HamiltonianOperator(hermitian)
    skew = np.zeros((4, 4))
    skew[0, 1] = np.max(np.abs(hermitian))
    ss.HamiltonianOperator(hermitian + 1e-14 * skew)
    with pytest.raises(ValueError, match="Hermitian"):
        ss.HamiltonianOperator(hermitian + 1e-10 * skew)


def test_state_dimension_checked():
    h = ss.HamiltonianOperator(np.eye(2))
    with pytest.raises(ValueError):
        ss.schrodinger_propagate(h, np.array([1.0, 0.0, 0.0]), 0.1, 1)


def rk4_reference(spec, initial, t_final, step):
    """Step-by-step classical RK4 on the companion form, one row per step."""
    n_steps = max(1, round(t_final / step))
    h = t_final / n_steps
    m = ss.companion_matrix(spec)
    y = np.asarray(initial, dtype=complex)
    rows = [y]
    for _ in range(n_steps):
        k1 = m @ y
        k2 = m @ (y + h / 2 * k1)
        k3 = m @ (y + h / 2 * k2)
        k4 = m @ (y + h * k3)
        y = y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        rows.append(y)
    return np.array(rows)


def random_spec(order, seed):
    """A stable order-n evolution with complex coefficients and complex initial data."""
    rng = np.random.default_rng(seed)
    roots = rng.uniform(-1.0, 0.2, order) + 1j * rng.uniform(-3.0, 3.0, order)
    lead = rng.uniform(0.5, 2.0) * np.exp(1j * rng.uniform(0.0, 2 * math.pi))
    return (ss.EvolutionSpec(tuple(lead * np.poly(roots)[::-1])),
            rng.normal(size=order) + 1j * rng.normal(size=order))


@pytest.mark.parametrize("order", [1, 2, 3, 4])
@pytest.mark.parametrize("n_steps", [1, 2, 10, 4001])
def test_blocked_evolve_matches_stepwise_rk4(order, n_steps):
    spec, initial = random_spec(order, order)
    t_final = 0.01 * n_steps
    traj = ss.evolve_linear(spec, initial, t_final, 0.01)
    want = rk4_reference(spec, initial, t_final, 0.01)
    assert traj.states.shape == want.shape
    assert np.array_equal(traj.times, np.arange(n_steps + 1) * (t_final / n_steps))
    rel = np.linalg.norm(traj.states - want, axis=1) / np.linalg.norm(want, axis=1)
    assert np.max(rel) <= 1e-9


@pytest.mark.parametrize("order", [1, 2, 3])
@pytest.mark.parametrize("n_steps, every", [
    (1, 1), (1, 2), (2, 2), (10, 3), (97, 7), (97, 97), (97, 98), (97, 10 ** 6),
    (4001, 63), (4001, 64), (4001, 500), (4001, 4000), (4001, 4001)])
def test_every_th_rows_equal_full_trajectory_bit_for_bit(order, n_steps, every):
    # B = isqrt(N): 4001 steps cut into blocks of 63, so every = 63, 64 and 500 land on,
    # beside and across the block ends; 10 and 97 do not divide by 3 or 7
    spec, initial = random_spec(order, n_steps + every)
    full = ss.evolve_linear(spec, initial, 0.01 * n_steps, 0.01)
    some = ss.evolve_linear(spec, initial, 0.01 * n_steps, 0.01, every)
    assert some.states.shape == full.states[::every].shape
    assert some.states.tobytes() == full.states[::every].tobytes()
    assert some.times.tobytes() == full.times[::every].tobytes()


def test_sparse_rows_do_not_hold_the_trajectory():
    # 6.3e7 steps printed every 1e5: 629 rows.  A full trajectory holds 2.0 GB of states
    # and 0.5 GB of times, 150 times the bound; the block walk peaks at 2.3 MiB
    spec = ss.EvolutionSpec((1.0, 0.0, 1.0))
    tracemalloc.start()
    try:
        traj = ss.evolve_linear(spec, [1.0, 0.0], 6.283185307179586, 1e-7, 10 ** 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.states.shape == (629, 2)
    assert peak < 16 * 2 ** 20


# --- commutator transitivity ----------------------------------------------------------

def test_commutator_scales_agree_at_dim_16():
    check = commutator_scale_check(16)
    assert check.agreement < 1e-12
    assert check.pattern_residual < 1e-12
    assert check.k1 == pytest.approx(1j, abs=1e-12)


def test_commutator_invariant_under_inverse_rescaling():
    base = commutator_scale_check(12, scales=(1.0, 1.0))
    scaled = commutator_scale_check(12, scales=(2.0, 1.0))
    assert scaled.k1 == pytest.approx(base.k1, abs=1e-12)
    assert scaled.agreement < 1e-12


def test_commutator_minimal_dimension():
    check = commutator_scale_check(3)
    assert check.agreement < 1e-12
    assert check.pattern_residual < 1e-12
    with pytest.raises(ValueError):
        commutator_scale_check(2)


@settings(deadline=None, max_examples=20)
@given(st.integers(3, 24), st.tuples(*[st.floats(0.1, 5.0, allow_nan=False)] * 2))
def test_commutator_property_random_builds(dim, scales):
    check = commutator_scale_check(dim, scales=scales)
    assert check.agreement < 1e-10
    assert abs(check.k1 - 1j) < 1e-10
    assert abs(check.k2 - 1j) < 1e-10
