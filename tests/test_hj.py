import math

import numpy as np
import pytest

from phasorlab import hj

Q = np.linspace(0.0, 1.0, 201)


def linear_case(alpha=0.5, energy=10.0, m=1.0, hbar=1.0, q=Q):
    grid = hj.linear_potential_S(alpha, energy, m, q)
    system = hj.MechanicalSystem(m, alpha * q, hbar)
    return grid, system


# --- principal function construction -----------------------------------------

def test_free_particle_at_rest():
    grid = hj.free_particle_S(0.0, 1.0, Q)
    assert grid.energy == 0.0
    np.testing.assert_array_equal(grid.w, np.zeros_like(Q))


def test_grid_must_be_uniform_and_increasing():
    with pytest.raises(ValueError):
        hj.PrincipalFunctionGrid(np.array([0.0, 1.0, 1.5]), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        hj.PrincipalFunctionGrid(np.array([1e9, 1e9 + 1.0, 1e9 + 1.5]), np.zeros(3), 1.0)
    with pytest.raises(ValueError):
        hj.PrincipalFunctionGrid(np.array([0.0, -1.0, -2.0]), np.zeros(3), 1.0)


@pytest.mark.parametrize("lo, hi, n", [(0.0, 1.0, 10 ** 5), (1000.0, 1001.0, 201),
                                       (-1e9, 1e9 + 7.0, 10 ** 4)])
def test_linspace_grids_pass_uniformity(lo, hi, n):
    # the spacing tolerance scales with max|q|, so large and offset grids pass
    q = np.linspace(lo, hi, n)
    grid = hj.PrincipalFunctionGrid(q, np.zeros(n), 1.0)
    assert grid.spacing == q[1] - q[0]


def test_linear_potential_requires_positive_gap():
    with pytest.raises(ValueError):
        hj.linear_potential_S(2.0, 1.0, 1.0, Q)  # E - alpha q < 0 at q = 1
    with pytest.raises(ValueError):
        hj.linear_potential_S(0.0, 1.0, 1.0, Q)


def test_linear_potential_momentum_is_wkb_form():
    grid, _ = linear_case()
    p_fd = (grid.w[2:] - grid.w[:-2]) / (2 * grid.spacing)
    p_exact = np.sqrt(2.0 * 1.0 * (10.0 - 0.5 * Q[1:-1]))
    np.testing.assert_allclose(p_fd, p_exact, rtol=1e-7)


# --- plane-wave substitution residual -------------------------------------------

def test_free_particle_residual_vanishes():
    grid = hj.free_particle_S(1.0, 1.0, Q)
    system = hj.MechanicalSystem(1.0, np.zeros_like(Q), 1.0)
    res = hj.hjs_residual(grid, system)
    assert res.max_discrepancy < 1e-8
    assert np.max(np.abs(res.lhs)) < 1e-8
    assert np.max(np.abs(res.rhs)) < 1e-8


@pytest.mark.parametrize("n", [21, 10001, 100001, 1000001])
@pytest.mark.parametrize("p", [1.0, -3.7, 1e-12, 1e150])
def test_free_particle_rhs_is_exactly_zero(n, p):
    # W = p q has no curvature: every second difference is W's round-off, inside the
    # floor, so no grid is too fine for a free particle
    q = np.linspace(0.0, 1.0, n)
    res = hj.hjs_residual(hj.free_particle_S(p, 1.0, q), hj.MechanicalSystem(1.0, np.zeros(n)))
    assert np.count_nonzero(res.rhs) == 0


def test_linear_potential_rhs_matches_analytic_curvature():
    # oracle: d2S/dq2 = dp/dq = -m alpha / p differentiated in closed form
    grid, system = linear_case()
    res = hj.hjs_residual(grid, system)
    p = np.sqrt(2.0 * (10.0 - 0.5 * res.q))
    rhs_exact = 1j * 1.0 / 2.0 * (-0.5 / p)
    np.testing.assert_allclose(res.rhs, rhs_exact, rtol=1e-5)
    assert res.max_discrepancy == pytest.approx(np.max(np.abs(rhs_exact)), rel=1e-4)


def test_residual_converges_at_second_order():
    # nested grids share the coarse interior points; measuring the error
    # there keeps the comparison domain fixed while the spacing halves
    errors = []
    shared_q = None
    for n in (21, 41, 81):
        q = np.linspace(0.0, 1.0, n)
        grid, system = linear_case(alpha=1.5, energy=2.0, q=q)
        res = hj.hjs_residual(grid, system)
        p = np.sqrt(2.0 * (2.0 - 1.5 * res.q))
        exact = 1j / 2.0 * (-1.5 / p)
        if shared_q is None:
            shared_q = res.q
        mask = np.isin(np.round(res.q, 12), np.round(shared_q, 12))
        errors.append(np.max(np.abs(res.rhs - exact)[mask]))
    order1 = math.log2(errors[0] / errors[1])
    order2 = math.log2(errors[1] / errors[2])
    assert order1 >= 1.9
    assert order2 >= 1.9


def test_rhs_exactly_linear_in_hbar():
    grid, system1 = linear_case(hbar=1.0)
    _, system2 = linear_case(hbar=2.0)
    res1 = hj.hjs_residual(grid, system1)
    res2 = hj.hjs_residual(grid, system2)
    np.testing.assert_array_equal(res2.rhs, 2.0 * res1.rhs)
    np.testing.assert_array_equal(res2.lhs, res1.lhs)


def test_residual_grid_guards():
    q = np.linspace(0.0, 1.0, 4)
    grid = hj.free_particle_S(1.0, 1.0, q)
    system = hj.MechanicalSystem(1.0, np.zeros(4), 1.0)
    with pytest.raises(ValueError, match="need at least 5 grid points"):
        hj.hjs_residual(grid, system)


def linear_ratio_error(alpha, energy, m, q):
    """Largest relative error of bcp_ratio against -2 pi m alpha / p^3 (hbar = 1)."""
    ratio = hj.bcp_ratio(*linear_case(alpha, energy, m, q=q)).ratio
    # the closed form in extended precision, so its own round-off does not count
    p = np.sqrt(2 * m * (np.longdouble(energy) - np.longdouble(alpha) * q[1:-1]))
    return ratio, float(np.max(np.abs(ratio / (-2 * np.pi * m * alpha / p ** 3) - 1)))


@pytest.mark.parametrize("n", [201, 32483])  # the default, and the most the span resolves
def test_default_linear_grids_within_the_stated_error(n):
    _, error = linear_ratio_error(0.5, 10.0, 1.0, np.linspace(0.0, 1.0, n))
    assert error <= 1e-3


def test_accepted_linear_grids_within_the_stated_error():
    # the README's bound: every grid the engine accepts keeps bcp_ratio within 1e-3 of the
    # closed form, while E and alpha q are at most 4 times the gap
    # E - alpha q (W keeps its digits) and the stencil's own O(h^2) error is below 1e-6.
    # A grid whose every |d2W| is inside the floor is refused: W'' = -m alpha / p is never 0.
    rng = np.random.default_rng(24)
    outcomes = {"refused": 0, "within": 0}
    while sum(outcomes.values()) < 300:
        m, alpha = 10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-5, 3) * rng.choice([-1, 1])
        q0, span = rng.uniform(-50, 50) * rng.integers(2), 10 ** rng.uniform(-3, 2)
        q = np.linspace(q0, q0 + span, int(10 ** rng.uniform(0.8, 5)))
        energy = max(alpha * q0, alpha * (q0 + span)) + abs(alpha) * span * 10 ** rng.uniform(-1, 4)
        gap = energy - alpha * q
        p_squared = 2 * m * gap
        if (np.max(np.maximum(abs(energy), np.abs(alpha * q)) / gap) > 4
                or 0.6 * np.max(((q[1] - q[0]) * m * alpha / p_squared) ** 2) > 1e-6):
            continue
        try:
            _, error = linear_ratio_error(alpha, energy, m, q)
        except ValueError:
            outcomes["refused"] += 1
            continue
        assert error <= 1e-3, (m, alpha, q0, span, q.size, energy)
        outcomes["within"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_potential_shape_checked():
    grid = hj.free_particle_S(1.0, 1.0, Q)
    with pytest.raises(ValueError):
        hj.hjs_residual(grid, hj.MechanicalSystem(1.0, np.zeros(7), 1.0))


# --- correspondence ratio --------------------------------------------------------

def test_bcp_ratio_free_particle_is_zero():
    # the second difference of p q is pure round-off: the ratio is exactly 0,
    # also where p^2 underflows
    system = hj.MechanicalSystem(1.0, np.zeros_like(Q), 1.0)
    for p in (1.0, 1e-12, 1e-100, 1e-200):
        field = hj.bcp_ratio(hj.free_particle_S(p, 1.0, Q), system)
        assert np.array_equal(field.ratio, np.zeros_like(field.q))
        assert np.all(field.classical)


def test_bcp_ratio_linear_potential_closed_form():
    # (lambda/p)(dp/dq) with p = sqrt(2m(E - alpha q)): -2 pi hbar m alpha / p^3
    grid, system = linear_case()
    field = hj.bcp_ratio(grid, system)
    p = np.sqrt(2.0 * (10.0 - 0.5 * field.q))
    closed = -2.0 * math.pi * 1.0 * 1.0 * 0.5 / p ** 3
    np.testing.assert_allclose(field.ratio, closed, atol=1e-6)


def test_bcp_ratio_doubles_with_hbar():
    grid, system1 = linear_case(hbar=1.0)
    _, system2 = linear_case(hbar=2.0)
    r1 = hj.bcp_ratio(grid, system1)
    r2 = hj.bcp_ratio(grid, system2)
    np.testing.assert_array_equal(r2.ratio, 2.0 * r1.ratio)


def test_bcp_ratio_translation_invariant():
    shift = 17.25
    grid1, system1 = linear_case()
    grid2 = hj.linear_potential_S(0.5, 10.0 + 0.5 * shift, 1.0, Q + shift)
    system2 = hj.MechanicalSystem(1.0, 0.5 * (Q + shift) - 0.5 * shift, 1.0)
    r1 = hj.bcp_ratio(grid1, system1)
    r2 = hj.bcp_ratio(grid2, system2)
    np.testing.assert_allclose(r2.ratio, r1.ratio, atol=1e-12)


def test_bcp_classical_flag_threshold():
    grid, system = linear_case()
    field = hj.bcp_ratio(grid, system)
    np.testing.assert_array_equal(
        field.classical, np.abs(field.ratio) < 0.01 * 2 * math.pi)


def test_bcp_turning_point_error_names_location():
    # W with an interior momentum zero: W = (q - 0.5)^2 has dW/dq = 0 at 0.5
    w = (Q - 0.5) ** 2
    grid = hj.PrincipalFunctionGrid(Q, w, 1.0)
    system = hj.MechanicalSystem(1.0, np.zeros_like(Q), 1.0)
    with pytest.raises(ValueError, match="momentum vanishes") as err:
        hj.bcp_ratio(grid, system)
    assert "0.5" in str(err.value)


def test_bcp_grid_guard():
    q = np.linspace(0.0, 1.0, 3)
    grid = hj.free_particle_S(1.0, 1.0, q)
    with pytest.raises(ValueError, match="need at least 5 grid points"):
        hj.bcp_ratio(grid, hj.MechanicalSystem(1.0, np.zeros(3), 1.0))
