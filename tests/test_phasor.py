import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorlab.phasor import (
    CESARO_LEVELS,
    CESARO_RATIO,
    PolarizationPhasor,
    SampledField,
    cesaro_inner_product,
    plane_wave,
)

finite_complex = st.builds(
    complex,
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
    st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False),
)


@given(finite_complex, finite_complex, finite_complex)
def test_multiplication_associative_commutative(a, b, c):
    left = (a * b) * c
    right = a * (b * c)
    scale = max(abs(left), abs(right), 1e-30)
    assert abs(left - right) <= 1e-12 * scale
    assert abs(a * b - b * a) <= 1e-12 * max(abs(a * b), 1e-30)


@given(finite_complex, finite_complex)
def test_modulus_finite_nonnegative(a, b):
    assert abs(a) >= 0.0
    assert math.isfinite(abs(a * b))


def wave(wavenumber, z, amplitude=1.0):
    """Plane wave polarized along x: ``amplitude`` in the first component, 0 in the second."""
    return plane_wave(wavenumber, z, PolarizationPhasor(amplitude, 0.0))


def test_plane_wave_polarized_sampling():
    z = np.linspace(0.0, 4.0, 11)
    field = plane_wave(1.5, z, PolarizationPhasor(2.0, 1.0j))
    carrier = np.exp(1j * 1.5 * z)
    assert field.values.shape == (11, 2)
    np.testing.assert_allclose(field.values[:, 0], 2.0 * carrier, atol=1e-14)
    np.testing.assert_allclose(field.values[:, 1], 1.0j * carrier, atol=1e-14)
    # each column is the wave of that component alone, bit for bit
    assert np.array_equal(field.values[:, 1], wave(1.5, z, 1.0j).values[:, 0])
    assert not wave(1.5, z, 1.0j).values[:, 1].any()


@pytest.mark.parametrize("shape", [(11,), (11, 1), (11, 3), (10, 2)])
def test_sampled_field_holds_two_components_a_sample(shape):
    with pytest.raises(ValueError, match="values must be"):
        SampledField(np.linspace(0.0, 4.0, 11), np.zeros(shape, dtype=complex))


# --- windowed overlap of two plane waves -------------------------------------

def window_average(dk, window):
    """(1/L) int_0^L e^{i dk z} dz in closed form: (e^{i theta} - 1)/(i theta), theta = dk L."""
    theta = dk * window
    return (np.exp(1j * theta) - 1.0) / (1j * theta)


def cesaro_closed_form(dk, z, window):
    """The closed form averaged over the sub-windows cesaro_inner_product cuts from grid z."""
    ends = [z[np.searchsorted(z, window / CESARO_RATIO ** i, side="right") - 1]
            for i in range(CESARO_LEVELS)]
    return np.mean([window_average(dk, end) for end in ends])


def test_overlap_numeric_matches_bruteforce_quadrature():
    # the closed form against a trapezoid of the windowed integral itself
    window = 1e4
    z = np.linspace(0.0, window, 4_000_001)
    oracle = np.trapezoid(np.exp(1j * (1.0 - 1.5) * z), z) / window
    assert abs(window_average(1.0 - 1.5, window) - oracle) < 1e-9
    # and cesaro_inner_product against the closed form on each of its sub-windows, within
    # the trapezoid's relative error (dk h)^2 / 12 = 3.6e-4 at 32 samples a wavelength
    z = _grid(window, wavenumber=1.5)
    got = cesaro_inner_product(wave(1.5, z), wave(1.0, z), window)
    assert got == pytest.approx(cesaro_closed_form(1.0 - 1.5, z, window), rel=1e-3)


def test_overlap_decay_rate():
    # |window_average| <= 2/(dk L) on each sub-window, L = window/8 .. window: on average
    # (8 + 4 + 2 + 1)/4 * 2/(dk * window)
    for dk, window in [(0.5, 1e4), (2.0, 5e3), (0.1, 1e4)]:
        z = _grid(window, wavenumber=1.0 + dk)
        value = cesaro_inner_product(wave(1.0, z), wave(1.0 + dk, z), window)
        assert abs(value) <= 7.5 / (dk * window)


def test_overlap_numeric_rejects_bad_window():
    f = wave(1.0, np.linspace(0.0, 10.0, 101))
    with pytest.raises(ValueError):
        cesaro_inner_product(f, f, 0.0)
    with pytest.raises(ValueError):
        cesaro_inner_product(f, f, -3.0)


# --- cesaro_inner_product --------------------------------------------------

def _grid(window, per_wavelength=32, wavenumber=1.0):
    lam = 2 * math.pi / wavenumber
    n = int(window / lam * per_wavelength)
    return np.linspace(0.0, window, n + 1)


def test_cesaro_self_overlap_is_amplitude_product():
    z = _grid(50.0)
    f = wave(1.0, z, 0.5 + 0.25j)
    assert cesaro_inner_product(f, f, 50.0) == pytest.approx(abs(0.5 + 0.25j) ** 2)


def test_cesaro_cross_term_decay():
    # dk * window = 200*pi; closed-form ladder mean modulus is 6.366e-3
    window = 200 * math.pi
    z = _grid(window, per_wavelength=64)
    f = wave(1.0, z)
    g = wave(2.0, z)
    value = cesaro_inner_product(f, g, window)
    assert abs(value) < 1e-2
    assert abs(value) == pytest.approx(0.006366197723675813, abs=2e-4)


def test_cesaro_zero_field():
    z = _grid(20.0)
    f = wave(1.0, z)
    zero = SampledField(z, np.zeros((z.size, 2), dtype=complex))
    assert cesaro_inner_product(f, zero, 20.0) == 0.0


def test_cesaro_mismatched_grids_rejected():
    f = wave(1.0, np.linspace(0, 10, 101))
    g = wave(1.0, np.linspace(0, 10, 102))
    with pytest.raises(ValueError):
        cesaro_inner_product(f, g, 10.0)
    h = wave(1.0, np.linspace(0, 5, 101))
    with pytest.raises(ValueError):
        cesaro_inner_product(f, h, 10.0)


def test_cesaro_window_larger_than_grid_rejected():
    z = np.linspace(0, 10, 101)
    f = wave(1.0, z)
    with pytest.raises(ValueError):
        cesaro_inner_product(f, f, 20.0)


@settings(deadline=None, max_examples=25)
@given(finite_complex, finite_complex, st.floats(0.1, 3.0), st.floats(0.1, 3.0))
def test_cesaro_conjugate_symmetry(a, b, k1, k2):
    z = np.linspace(0.0, 40.0, 2001)
    f = wave(k1, z, a)
    g = wave(k2, z, b)
    fg = cesaro_inner_product(f, g, 40.0)
    gf = cesaro_inner_product(g, f, 40.0)
    assert abs(fg - gf.conjugate()) <= 1e-12 * max(1.0, abs(fg))


@settings(deadline=None, max_examples=25)
@given(finite_complex, finite_complex)
def test_cesaro_linear_in_second_argument(alpha, beta):
    z = np.linspace(0.0, 30.0, 1501)
    f = wave(1.0, z)
    g1 = wave(1.7, z)
    g2 = wave(0.4, z)
    combo = SampledField(z, alpha * g1.values + beta * g2.values)
    lhs = cesaro_inner_product(f, combo, 30.0)
    rhs = (alpha * cesaro_inner_product(f, g1, 30.0)
           + beta * cesaro_inner_product(f, g2, 30.0))
    assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs))


def test_cesaro_symbolic_numeric_agreement():
    # dk * window >= 1e3 must bring the numeric value within 1e-2 of symbolic
    for dk in (0.5, 1.0, 2.5):
        window = 1e3 / dk
        z = _grid(window, per_wavelength=32, wavenumber=1.0 + dk)
        f = wave(1.0, z)
        g = wave(1.0 + dk, z)
        # symbolically, distinct wavenumbers are orthogonal: the overlap is exactly 0
        assert abs(cesaro_inner_product(f, g, window)) < 1e-2


def test_cesaro_vector_fields():
    z = _grid(40.0)
    carrier = np.exp(1j * z)
    f = SampledField(z, np.stack([carrier, 1j * carrier], axis=-1))
    g = SampledField(z, np.stack([2.0 * carrier, 0.0 * carrier], axis=-1))
    # conj(f) . g = 2 per sample
    assert cesaro_inner_product(f, g, 40.0) == pytest.approx(2.0)
