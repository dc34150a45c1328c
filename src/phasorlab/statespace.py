"""General linear evolution, characteristic roots, and unitary propagation.

An order-n linear evolution sum(a_k d^k/dt^k) psi = 0 is represented by
its coefficient sequence; its characteristic polynomial sum(a_k s^k) has
exactly n complex roots (eigenvalues of the companion matrix), which is
why the complex plane suffices to represent every evolution pattern.
Hermitian generators, in units of hbar, evolve states through the exact
one-step propagator exp(-i H dt), preserving norm and energy to round-off.
Two independent conjugate pairs, built from truncated ladders, share the
commutator scale i in units of hbar (``commutator_scale_check``).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

# RK4 stays stable for |root * step| below roughly 2.8 on the imaginary
# axis; reject steps beyond this to fail loudly instead of blowing up.
RK4_STABILITY_LIMIT = 2.5
# an evolution takes at most this many RK4 steps: at the limit, building P^1..P^B
# and walking the block starts of an order-2 run take about 1.7 s and 120 MB
MAX_EVOLVE_STEPS = 10 ** 11


@dataclass(frozen=True)
class EvolutionSpec:
    """Coefficients a_0..a_n (ascending) of the unforced evolution."""

    coefficients: tuple[complex, ...]

    def __post_init__(self):
        coeffs = tuple(complex(c) for c in self.coefficients)
        if len(coeffs) < 2:
            raise ValueError("need at least order 1 (two coefficients)")
        if coeffs[-1] == 0:
            raise ValueError("leading coefficient must be nonzero")
        object.__setattr__(self, "coefficients", coeffs)

    @property
    def order(self) -> int:
        return len(self.coefficients) - 1


def companion_matrix(spec: EvolutionSpec) -> np.ndarray:
    """First-order form of the evolution; eigenvalues = characteristic roots.

    A ratio a_k / a_n that overflows raises ValueError naming both coefficients.
    """
    n = spec.order
    a = np.asarray(spec.coefficients, dtype=complex)
    m = np.zeros((n, n), dtype=complex)
    m[:-1, 1:] = np.eye(n - 1)
    m[-1, :] = -a[:-1] / a[-1]
    if not np.all(np.isfinite(m[-1])):
        k = int(np.argmin(np.isfinite(m[-1])))
        raise ValueError(f"coefficients a_{k} / a_{n} = {complex(a[k])} / {complex(a[-1])}"
                         " leaves the float range")
    return m


def characteristic_roots(spec: EvolutionSpec) -> np.ndarray:
    """All n roots of sum(a_k s^k), with multiplicity."""
    return np.linalg.eigvals(companion_matrix(spec))


def characteristic_value(coefficients, s: complex) -> complex:
    """Evaluate sum(a_k s^k) at s (Horner form)."""
    acc = 0.0 + 0.0j
    for c in reversed(list(coefficients)):
        acc = acc * s + complex(c)
    return acc


@dataclass(frozen=True)
class Trajectory:
    """Sampled companion-state history; column k is the k-th derivative."""

    times: np.ndarray
    states: np.ndarray


def evolve_linear(spec: EvolutionSpec, initial: np.ndarray, t_final: float,
                  step: float, every: int = 1) -> Trajectory:
    """Integrate the order-n evolution with fixed-step classical RK4.

    ``initial`` holds (psi, psi', ..., psi^(n-1)) at t = 0.  The requested
    step is rounded to the nearest count that divides ``t_final`` evenly,
    so the trajectory lands exactly on the end time; only the states of
    steps 0, every, 2*every, ... are built.  Roots with negative real part
    decay as transients e^{-alpha t}; a step too large for the spectral
    radius raises ValueError up front, as do more than ``MAX_EVOLVE_STEPS``
    steps and an ``every`` below 1.
    """
    if step <= 0.0:
        raise ValueError("step must be positive")
    if t_final <= 0.0:
        raise ValueError("t_final must be positive")
    if every < 1:
        raise ValueError("every must be at least 1")
    y = np.asarray(initial, dtype=complex)
    if y.shape != (spec.order,):
        raise ValueError(f"initial data must have length {spec.order}")
    if not np.all(np.isfinite(y)):
        raise ValueError("initial data must be finite")

    count = t_final / step
    if not math.isfinite(count):
        raise ValueError(f"t_final / step = {count:g} is not a finite step count")
    n_steps = max(1, round(count))
    if n_steps > MAX_EVOLVE_STEPS:
        raise ValueError(f"{n_steps:.3g} steps are above the limit of {MAX_EVOLVE_STEPS:.0e}")
    step = t_final / n_steps

    m = companion_matrix(spec)
    rho = float(np.max(np.abs(np.linalg.eigvals(m))))
    if rho * step > RK4_STABILITY_LIMIT:
        raise ValueError(
            f"step {step:g} exceeds stability bound {RK4_STABILITY_LIMIT:g}/rho"
            f" = {RK4_STABILITY_LIMIT / rho:g}")

    states = np.empty((n_steps // every + 1, spec.order), dtype=complex)
    states[0] = y
    # RK4 on y' = My is y_{i+1} = P y_i, P = sum_{k<=4} (hM)^k / k! (the stability polynomial);
    # with B = isqrt(N), P^B walks each block start y_s and one batched P^k y_s prints its rows.
    # Every product is an einsum with optimize=False, a loop in a fixed order; optimize=True
    # hands it through tensordot to BLAS, whose kernel, and so whose bits, depend on the CPU
    product = functools.partial(np.einsum, optimize=False)
    eye, hm = np.eye(spec.order), step * m
    p = eye + product("ij,jk->ik", hm, eye + product("ij,jk->ik", hm / 2, eye + product(
        "ij,jk->ik", hm / 3, eye + hm / 4)))
    powers = [p]
    for _ in range(math.isqrt(n_steps) - 1):
        powers.append(product("ij,jk->ik", p, powers[-1]))
    powers = np.array(powers)
    for start in range(0, (len(states) - 1) * every, len(powers)):
        stop = min(start + len(powers), n_steps)
        first, last = start // every + 1, stop // every + 1
        if first < last:  # the block prints a row
            product("kij,j->ki", powers[first * every - start - 1:stop - start:every], y,
                    out=states[first:last])
        y = product("ij,j->i", powers[-1], y)
    return Trajectory(np.arange(0, n_steps + 1, every) * step, states)


@dataclass(frozen=True)
class HamiltonianOperator:
    """Hermitian generator H in units of hbar (energies over hbar, per unit time).

    A finite H, Hermitian within 1e-12 of max|H| at any scale, is enforced at
    construction, so everything downstream may assume a real spectrum and a
    unitary propagator.
    """

    matrix: np.ndarray

    def __post_init__(self):
        h = np.asarray(self.matrix, dtype=complex)
        if h.ndim != 2 or h.shape[0] != h.shape[1]:
            raise ValueError("Hamiltonian must be a square matrix")
        if not np.all(np.isfinite(h)):
            raise ValueError("Hamiltonian must be finite")
        if np.max(np.abs(h - h.conj().T)) > 1e-12 * np.max(np.abs(h)):
            raise ValueError("Hamiltonian must be Hermitian within 1e-12 of max|H|")
        object.__setattr__(self, "matrix", h)


def schrodinger_propagate(hamiltonian: HamiltonianOperator, psi0: np.ndarray,
                          dt: float, steps: int) -> np.ndarray:
    """Apply the exact one-step propagator exp(-i H dt), H in units of hbar, repeatedly.

    The repeated product is evaluated in the eigenbasis of H with the
    step phases accumulated, which is the same operator applied ``steps``
    times but without per-step round-off build-up, so the norm of the
    state is preserved to machine precision regardless of step count.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    if steps < 0:
        raise ValueError("steps must be non-negative")
    psi = np.asarray(psi0, dtype=complex)
    if psi.shape != hamiltonian.matrix.shape[:1]:
        raise ValueError("state dimension does not match the Hamiltonian")
    if steps == 0:
        return psi
    w, v = np.linalg.eigh(hamiltonian.matrix)
    phases = np.exp(-1j * w * dt * steps)
    return v @ (phases * (v.conj().T @ psi))


@dataclass(frozen=True)
class ConjugatePairCheck:
    """Commutator scales of two independent conjugate pairs."""

    k1: complex
    k2: complex
    agreement: float
    pattern_residual: float


def _quadrature_pair(dim: int, rotation: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """Truncated ladder-built canonical pair (u, v) = (s*X_phi, P_phi/s), in units of hbar."""
    a = np.diag(np.sqrt(np.arange(1, dim)), k=1)
    x = math.sqrt(0.5) * (a * np.exp(-1j * rotation) + a.conj().T * np.exp(1j * rotation))
    p = math.sqrt(0.5) * (-1j * a * np.exp(-1j * rotation)
                          + 1j * a.conj().T * np.exp(1j * rotation))
    return scale * x, p / scale


def commutator_scale_check(dim: int,
                           scales: tuple[float, float] = (1.0, 1.0)) -> ConjugatePairCheck:
    """Compare the commutator scale of two independent conjugate pairs.

    Each pair is built from an N-truncated ladder, at rotations 0 and 0.6;
    uv - vu equals K * identity on the leading (N-1)-dimensional block (the
    truncation corrupts only the last diagonal entry), and both pairs share
    the same K = i, in units of hbar, regardless of rotation or inverse
    rescaling of (u, v).
    """
    if dim < 3:
        raise ValueError("need dimension >= 3")
    ks, residuals = [], []
    for rotation, scale in zip((0.0, 0.6), scales):
        u, v = _quadrature_pair(dim, rotation, scale)
        comm = u @ v - v @ u
        block = comm[:dim - 1, :dim - 1]
        k = np.trace(block) / (dim - 1)
        residuals.append(float(np.max(np.abs(block - k * np.eye(dim - 1)))))
        ks.append(complex(k))
    agreement = abs(ks[0] - ks[1]) / max(abs(ks[0]), abs(ks[1]))
    return ConjugatePairCheck(ks[0], ks[1], agreement, max(residuals))
