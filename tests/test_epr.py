import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from phasorlab import epr

PLUS = epr.PhotonPairState("plus")
MINUS = epr.PhotonPairState("minus")

X1 = epr.AnalyzerSetting(1, 0.0)
X2 = epr.AnalyzerSetting(2, 0.0)
Y2 = epr.AnalyzerSetting(2, math.pi / 2)

angles = st.floats(-math.pi, math.pi, allow_nan=False)


def oracle_amplitude(theta1, theta2, pair):
    """Independent route: expand the pair state in the linear basis.

    r.r + l.l = x.x - y.y and r.r - l.l = i(x.y + y.x); contract the
    resulting 2x2 tensor with the two analyzer unit vectors.
    """
    if pair.parity == "plus":
        tensor = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    else:
        tensor = np.array([[0.0, 1.0j], [1.0j, 0.0]], dtype=complex)
    e1 = np.array([math.cos(theta1), math.sin(theta1)])
    e2 = np.array([math.cos(theta2), math.sin(theta2)])
    return e1 @ tensor @ e2


# --- amplitude table of the canonical x/y cases -----------------------------

def test_amplitude_table_symbolic():
    # joint table over the two parities at unit field: {0, i, 1, 0}
    assert abs(epr.pair_amplitude(X1, Y2, PLUS)) <= 1e-12
    assert abs(epr.pair_amplitude(X1, Y2, MINUS) - 1j) <= 1e-12
    assert abs(epr.pair_amplitude(X1, X2, PLUS) - 1.0) <= 1e-12
    assert abs(epr.pair_amplitude(X1, X2, MINUS)) <= 1e-12


def test_amplitude_rotated_analyzers():
    # analytic expansion: cos(theta1 + theta2) for the plus pair
    o1 = epr.AnalyzerSetting(1, math.pi / 6)
    o2 = epr.AnalyzerSetting(2, math.pi / 6)
    assert epr.pair_amplitude(o1, o2, PLUS) == pytest.approx(0.5, abs=1e-12)
    numeric = epr.pair_amplitude(o1, o2, PLUS, "numeric", window_wavelengths=200)
    assert abs(numeric - 0.5) < 1e-2


@settings(deadline=None, max_examples=60)
@given(angles, angles, st.sampled_from(["plus", "minus"]))
def test_amplitude_matches_linear_basis_oracle(theta1, theta2, parity):
    pair = epr.PhotonPairState(parity)
    o1 = epr.AnalyzerSetting(1, theta1)
    o2 = epr.AnalyzerSetting(2, theta2)
    got = epr.pair_amplitude(o1, o2, pair)
    # the analyzer angle is axis-valued; reduction may flip both signs
    want = oracle_amplitude(o1.angle, o2.angle, pair)
    assert abs(got - want) <= 1e-12


def test_numeric_mode_agrees_for_canonical_cases():
    for outcome2, pair in [(Y2, PLUS), (Y2, MINUS), (X2, PLUS), (X2, MINUS)]:
        symbolic = epr.pair_amplitude(X1, outcome2, pair)
        numeric = epr.pair_amplitude(X1, outcome2, pair, "numeric",
                                     window_wavelengths=1e4)
        assert abs(numeric - symbolic) < 1e-2


def test_same_detector_rejected():
    with pytest.raises(ValueError, match="two distinct detectors"):
        epr.pair_amplitude(X1, epr.AnalyzerSetting(1, 1.0), PLUS)


def test_invalid_mode_rejected():
    with pytest.raises(ValueError):
        epr.pair_amplitude(X1, X2, PLUS, mode="guess")


def test_numeric_mode_requires_positive_window():
    with pytest.raises(ValueError):
        epr.pair_amplitude(X1, X2, PLUS, "numeric", window_wavelengths=0.0)


# --- probabilities ----------------------------------------------------------

def test_coincidence_probability_crossed_and_aligned():
    crossed = epr.joint_probabilities(X1.angle, Y2.angle, PLUS)[0, 0]
    assert crossed == pytest.approx(0.0, abs=1e-12)
    # |1|^2 / (|1|^2 + |-1|^2) over the four-outcome table
    aligned = epr.joint_probabilities(X1.angle, X2.angle, PLUS)[0, 0]
    assert aligned == pytest.approx(0.5, abs=1e-12)


@settings(deadline=None, max_examples=40)
@given(angles, angles, st.sampled_from(["plus", "minus"]))
def test_probabilities_sum_to_one(theta1, theta2, parity):
    probs = epr.joint_probabilities(theta1, theta2, epr.PhotonPairState(parity))
    assert probs.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(probs >= 0.0)


@settings(deadline=None, max_examples=40)
@given(angles, angles)
def test_parity_orthogonality(theta1, theta2):
    a_plus = oracle_tables([theta1], [theta2], PLUS, "symbolic", "sum").ravel()
    a_minus = oracle_tables([theta1], [theta2], MINUS, "symbolic", "sum").ravel()
    assert abs(np.vdot(a_plus, a_minus)) <= 1e-12


@settings(deadline=None, max_examples=40)
@given(angles, angles, angles)
def test_no_signaling_marginal(theta1, theta2a, theta2b):
    m_a = epr.detector1_marginal(theta1, theta2a, PLUS)
    m_b = epr.detector1_marginal(theta1, theta2b, PLUS)
    assert abs(m_a - m_b) <= 1e-9


# --- correlations and CHSH --------------------------------------------------

def test_correlation_analytic_oracle():
    assert epr.correlation_E(0.0, 0.0, PLUS) == pytest.approx(1.0, abs=1e-12)
    assert epr.correlation_E(0.0, math.pi / 2, PLUS) == pytest.approx(-1.0, abs=1e-12)
    assert epr.correlation_E(math.pi / 8, math.pi / 8, PLUS) == pytest.approx(0.0, abs=1e-12)


@settings(deadline=None, max_examples=60)
@given(angles, angles)
def test_correlation_matches_cosine(theta1, theta2):
    got = epr.correlation_E(theta1, theta2, PLUS)
    assert abs(got - math.cos(2 * (theta1 + theta2))) <= 1e-9


@settings(deadline=None, max_examples=30)
@given(angles, angles)
def test_correlation_difference_convention(theta1, theta2):
    # detector 2 mirrored, as the CLI applies --convention difference
    p = epr.joint_probabilities(theta1, -theta2, PLUS)
    got = p[0, 0] + p[1, 1] - p[0, 1] - p[1, 0]
    assert abs(got - math.cos(2 * (theta1 - theta2))) <= 1e-9


def test_chsh_at_derived_optimal_angles():
    s = epr.chsh_S(*epr.CHSH_OPTIMAL_ANGLES, PLUS)
    assert s == pytest.approx(2 * math.sqrt(2), abs=1e-6)


def test_chsh_all_angles_zero():
    assert epr.chsh_S(0.0, 0.0, 0.0, 0.0, PLUS) == pytest.approx(2.0, abs=1e-12)


def test_correlation_grid_and_chsh_match_scalar_calls():
    a, a_prime, b, b_prime = 0.1, 0.7, -0.3, 1.9
    for pair in (PLUS, MINUS):
        grid = epr.correlation_E([a, a_prime], [b, b_prime], pair)
        scalar = [[epr.correlation_E(t1, t2, pair) for t2 in (b, b_prime)]
                  for t1 in (a, a_prime)]
        np.testing.assert_allclose(grid, scalar, rtol=0, atol=1e-15)
        s = epr.chsh_S(a, a_prime, b, b_prime, pair)
        assert s == pytest.approx(scalar[0][0] - scalar[0][1] + scalar[1][0]
                                  + scalar[1][1], abs=1e-14)


def test_circular_ket_phasors():
    right = epr.RIGHT_CIRCULAR
    left = epr.LEFT_CIRCULAR
    inv = 1 / math.sqrt(2)
    assert abs(right.ex - inv) <= 1e-12 and abs(right.ey - 1j * inv) <= 1e-12
    assert abs(left.ex - inv) <= 1e-12 and abs(left.ey + 1j * inv) <= 1e-12
    assert abs(right.dot(right) - 1.0) <= 1e-12
    assert abs(left.dot(left) - 1.0) <= 1e-12


def test_analyzer_angle_reduced_mod_pi():
    setting = epr.AnalyzerSetting(1, math.pi + 0.25)
    assert setting.angle == pytest.approx(0.25)
    with pytest.raises(ValueError):
        epr.AnalyzerSetting(3, 0.0)


def test_pair_state_validation():
    with pytest.raises(ValueError):
        epr.PhotonPairState("sideways")


# --- grid kernel against the scalar oracle -------------------------------------

# the sign of detector 2's analyzer angles under each correlation convention
THETA2_SIGN = {"sum": 1.0, "difference": -1.0}


def oracle_tables(theta1, theta2, pair, mode, convention, field=1.0, **numeric_options):
    """Amplitude tables from four scalar pair_amplitude calls per grid point.

    The pair is built at unit field; at field amplitude E every entry scales as E^2.
    """
    sign = THETA2_SIGN[convention]
    out = np.empty((len(theta1), len(theta2), 2, 2), dtype=complex)
    for p, t1 in enumerate(theta1):
        for q, t2 in enumerate(theta2):
            for i in range(2):
                for j in range(2):
                    o1 = epr.AnalyzerSetting(1, t1 + i * math.pi / 2)
                    o2 = epr.AnalyzerSetting(2, sign * t2 + j * math.pi / 2)
                    out[p, q, i, j] = field ** 2 * epr.pair_amplitude(o1, o2, pair, mode,
                                                                      **numeric_options)
    return out


@pytest.mark.parametrize("mode, numeric_options",
                         [("symbolic", {}), ("numeric", {"window_wavelengths": 200})])
@pytest.mark.parametrize("parity", epr.PARITIES)
@pytest.mark.parametrize("convention", THETA2_SIGN)
@pytest.mark.parametrize("field_scale", [1e-3, 1.0, 7.5, 1e20])
def test_grid_kernel_matches_scalar_oracle(mode, numeric_options, parity, convention,
                                           field_scale):
    # the kernel works at unit field; the oracle's amplitudes at field E scale as E^2,
    # which cancels in the probabilities.  The kernel is sum-convention only: a caller
    # mirrors detector 2 by negating theta2
    rng = np.random.default_rng(len(parity) + 10 * len(convention))
    theta1 = rng.uniform(-2 * math.pi, 2 * math.pi, 4)
    theta2 = rng.uniform(-2 * math.pi, 2 * math.pi, 3)
    pair = epr.PhotonPairState(parity)
    want = oracle_tables(theta1, theta2, pair, mode, convention, field_scale, **numeric_options)
    weights = np.abs(want) ** 2
    probs = epr.joint_probabilities(theta1, THETA2_SIGN[convention] * theta2, pair, mode)
    assert np.max(np.abs(probs - weights / weights.sum(axis=(2, 3), keepdims=True))) <= 1e-12


def test_numeric_grid_integrates_one_carrier(monkeypatch):
    calls = []
    cesaro = epr.cesaro_inner_product
    monkeypatch.setattr(epr, "cesaro_inner_product",
                        lambda *args: calls.append(args) or cesaro(*args))
    probs = epr.joint_probabilities(np.linspace(0.0, 1.0, 5), np.linspace(0.0, 1.0, 3),
                                    PLUS, "numeric")
    assert probs.shape == (5, 3, 2, 2)
    assert len(calls) == 1


ANY_ANGLE = st.floats(-1e308, 1e308, allow_nan=False)
ANGLE_LISTS = st.lists(ANY_ANGLE, min_size=1, max_size=4)
SPECIAL_ANGLES = [0.0, math.pi / 4, math.pi / 2, math.pi, 3 * math.pi / 2, 1e-300, 5e-324]


@settings(deadline=None, max_examples=200, derandomize=True)
@given(ANGLE_LISTS, ANGLE_LISTS, st.sampled_from(epr.PARITIES))
def test_table_is_symmetric_bit_for_bit(theta1, theta2, parity):
    # both cells of a pair are cos^2 or sin^2 of the same a+b, so they are equal exactly;
    # numeric mode prints the same bytes (test_numeric_table_is_the_symbolic_one)
    p = epr.joint_probabilities(theta1, theta2, epr.PhotonPairState(parity), "symbolic")
    assert p[..., 0, 0].tobytes() == p[..., 1, 1].tobytes()
    assert p[..., 0, 1].tobytes() == p[..., 1, 0].tobytes()


@settings(deadline=None, max_examples=30, derandomize=True)
@given(ANGLE_LISTS, ANGLE_LISTS, st.sampled_from(epr.PARITIES))
@example(SPECIAL_ANGLES, SPECIAL_ANGLES, "plus")
@example(SPECIAL_ANGLES, [-a for a in SPECIAL_ANGLES], "minus")
def test_numeric_table_is_the_symbolic_one(theta1, theta2, parity):
    # numeric mode scales every amplitude by o^2, the carrier's self-overlap squared; at
    # WINDOW_WAVELENGTHS |o^2|^2 is exactly 1.0 in float64, so the normalized tables agree
    pair = epr.PhotonPairState(parity)
    symbolic = epr.joint_probabilities(theta1, theta2, pair, "symbolic")
    numeric = epr.joint_probabilities(theta1, theta2, pair, "numeric")
    assert numeric.tobytes() == symbolic.tobytes()
