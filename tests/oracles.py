"""Closed-form oracles for the tables the CLI prints, the scalar cavity move and the
checks of a cavity chain's stationary law.

Test-only, and independent of the package: built on the stdlib (and numpy, where an
engine's closed form needs it, and scipy for a chi-square p-value).  Each table oracle takes a run's resolved options
(``cli.resolve_options``) and its stdout, and returns the worst deviation of the
printed numbers from a closed form that does not share the engine's code, in the
units its docstring names.  ``jitter_loop`` is the paper's wall-jitter move one step
at a time, against which the cavity kernel is tested.  ``transition_flow_ratios``
(detailed balance per level) and ``geometric_chi_square`` (Pearson's fit to the
geometric law, its p-value from ``scipy.stats.chi2``) hold a chain to its law.
"""

import itertools
import json
import math
from typing import NamedTuple

import numpy as np


def printed_rows(opts, stdout):
    """The rows of a printed table as {column: float}, from its CSV or JSON form."""
    if opts["format"] == "json":
        return json.loads(stdout)
    header, *lines = stdout.splitlines()
    keys = header.split(",")
    return [dict(zip(keys, map(float, line.split(",")))) for line in lines]


def epr_deviation(opts, stdout):
    """Worst |P - closed form| and |E - closed form| over the rows of an epr table.

    The closed form takes each row's printed degrees (17 digits, so the exact floats)
    through an exact ``math.fmod(., 360)`` and ``math.radians``, with s = a + b under
    the sum convention and a - b under the difference one.  The plus pair has
    P_xx = P_yy = cos^2(s)/2, P_xy = P_yx = sin^2(s)/2 and E = cos(2s); the minus pair
    swaps cos^2 and sin^2 and negates E.  Rows whose angles are not the options' grid,
    theta1 major, deviate by inf.
    """
    rows = printed_rows(opts, stdout)
    grid = [(float(a), float(b)) for a, b in itertools.product(opts["theta1"], opts["theta2"])]
    if [(row["theta1_deg"], row["theta2_deg"]) for row in rows] != grid:
        return math.inf
    sign = 1.0 if opts["parity"] == "plus" else -1.0
    worst = 0.0
    for row in rows:
        a, b = (math.radians(math.fmod(row[key], 360.0)) for key in ("theta1_deg", "theta2_deg"))
        s = a + b if opts["convention"] == "sum" else a - b
        along, across = math.cos(s) ** 2 / 2.0, math.sin(s) ** 2 / 2.0
        if sign < 0.0:
            along, across = across, along
        want = {"E": sign * math.cos(2.0 * s), "P_xx": along, "P_yy": along,
                "P_xy": across, "P_yx": across}
        worst = max(worst, *(abs(row[key] - value) for key, value in want.items()))
    return worst


# an hj row's round-off allowance is this many eps of its terms' scale |E| + |alpha q| + p^2/2m,
# times the stencil's gain 1 + (max|q| + |W|/|p|)/dq; calibrated as logged in CHANGES.md
HJ_ROUNDOFF = 4.0


def _over(deviation, tolerance):
    """``deviation`` in multiples of ``tolerance``: 0 when it is 0, inf when only the tolerance is."""
    if deviation == 0.0:
        return 0.0
    return deviation / tolerance if tolerance > 0.0 else math.inf


def hj_deviation(opts, stdout):
    """Worst deviation of an hj table, each check in multiples of its own tolerance (<= 1 holds).

    The q column must be the interior of ``linspace(q-min, q-max, points)``, ``rhs_re``
    0 and ``regime_flag`` |bcp_ratio| < 0.01 * 2 pi, exactly.  A free particle
    (E = p^2/2m) has ``rhs_im`` and ``bcp_ratio`` exactly 0.  On the linear system,
    with gap = E - alpha q = p^2/2m, ``lhs_re`` stays within twice the central
    difference's leading term m alpha^2 dq^2 / (6 p^2) = alpha^2 dq^2 / (12 gap); and
    where E and alpha q are at most 4 times the gap and the stencil's own relative
    error (7/12)(dq m alpha / p^2)^2 is at most 1e-6, ``bcp_ratio`` is within 1e-3 of
    -2 pi hbar m alpha / p^3.  Both systems' ``lhs_re`` may add ``HJ_ROUNDOFF`` eps
    times the row's scale |E| + |alpha q| + gap, and times the gain
    1 + (max|q| + |W|/|p|)/dq with which the first difference passes the round-off of
    q and W on: |W|/|p| is |q| for a free particle and p^2 / (3 m |alpha|) on the
    linear system.  An exact check that fails deviates by inf.
    """
    rows = printed_rows(opts, stdout)
    q_min, q_max, points = opts["q-min"], opts["q-max"], opts["points"]
    if [row["q"] for row in rows] != np.linspace(q_min, q_max, points)[1:-1].tolist():
        return math.inf
    m, dq, eps = opts["mass"], (q_max - q_min) / (points - 1), 2.0 ** -52
    reach = max(abs(q_min), abs(q_max))
    free = opts["system"] == "free"
    worst = 0.0
    for row in rows:
        q, ratio = row["q"], row["bcp_ratio"]
        if row["rhs_re"] != 0.0 or row["regime_flag"] != (abs(ratio) < 0.01 * math.tau):
            return math.inf
        if free:
            if row["rhs_im"] != 0.0 or ratio != 0.0:
                return math.inf
            energy = gap = opts["momentum"] * opts["momentum"] / (2.0 * m)
            v, w_over_p, truncation = 0.0, abs(q), 0.0
        else:
            alpha, energy = opts["alpha"], opts["energy"]
            v = alpha * q
            gap = energy - v
            drop = alpha * dq / gap  # the gap's relative change over one step, 2 dq m alpha / p^2
            w_over_p, truncation = 2.0 * gap / (3.0 * abs(alpha)), alpha * dq * drop / 6.0
            if max(abs(energy), abs(v)) <= 4.0 * gap and 7.0 / 48.0 * drop * drop <= 1e-6:
                p_squared = 2.0 * m * gap
                closed = -math.tau * opts["hbar"] * m * alpha / (p_squared * math.sqrt(p_squared))
                worst = max(worst, _over(abs(ratio - closed), 1e-3 * abs(closed)))
        gain = 1.0 + (reach + w_over_p) / dq
        roundoff = HJ_ROUNDOFF * eps * (abs(energy) + abs(v) + gap) * gain
        worst = max(worst, _over(abs(row["lhs_re"]), truncation + roundoff))
    return worst


def jitter_loop(n0, q, uniforms):
    """Occupancy after each step of the wall-jitter walk from ``n0``, one uniform u a step.

    u < 1/2 proposes n + 1 with 2u as its Metropolis uniform, accepted below the uphill
    acceptance q = e^{-hf/k_B T}; u >= 1/2 proposes n - 1 with 2u - 1, accepted below
    min(1, 1/q) = 1 downhill and below 0 at n = 0, so the n -> -1 proposal is refused.
    """
    n, occupancies = n0, []
    for u in uniforms:
        delta, metropolis_u = (1, 2.0 * u) if u < 0.5 else (-1, 2.0 * u - 1.0)
        acceptance = q if delta == 1 else 1.0 if n > 0 else 0.0
        if metropolis_u < acceptance:
            n += delta
        occupancies.append(n)
    return occupancies


# transition_flow_ratios skips a level with fewer transitions than this either way
FLOW_RATIO_MIN_COUNT = 25
# geometric_chi_square merges the bins whose expected count is below this into one tail
CHI_SQUARE_MIN_EXPECTED = 5.0


class FlowRatio(NamedTuple):
    level: int
    ratio: float
    log_sigma: float


def transition_flow_ratios(occupancies):
    """Empirical detailed-balance check per adjacent occupancy pair, one scan of the chain a level.

    For each level n, the ratio of the measured conditional rates
    P(n -> n+1) / P(n+1 -> n); in equilibrium this is e^{-hf/k_B T}.
    ``log_sigma`` is the delta-method error of log(ratio); levels with
    fewer than ``FLOW_RATIO_MIN_COUNT`` transitions either way are skipped.
    """
    occ = np.asarray(occupancies)
    prev, nxt = occ[:-1], occ[1:]
    out = []
    for n in range(int(occ.max())):
        visits_n = int(np.sum(prev == n))
        visits_n1 = int(np.sum(prev == n + 1))
        ups = int(np.sum((prev == n) & (nxt == n + 1)))
        downs = int(np.sum((prev == n + 1) & (nxt == n)))
        if min(ups, downs) < FLOW_RATIO_MIN_COUNT:
            continue
        p_up = ups / visits_n
        p_down = downs / visits_n1
        sigma = math.sqrt((1.0 - p_up) / ups + (1.0 - p_down) / downs)
        out.append(FlowRatio(n, p_up / p_down, sigma))
    return out


def geometric_chi_square(histogram, q):
    """Chi-square goodness of fit of occupancy counts vs (1-q) q^n.

    Pearson's statistic presumes independent draws, so counts taken from
    a Metropolis chain must be thinned by a few autocorrelation times
    before binning or the statistic is inflated.  Bins past the point
    where the expected count drops under ``CHI_SQUARE_MIN_EXPECTED`` are
    merged into one tail bin.  Returns (statistic, p-value, degrees of
    freedom); q is fixed a priori, so dof = bins - 1, and the p-value is
    ``scipy.stats.chi2``'s survival function.
    """
    from scipy import stats

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
    return statistic, float(stats.chi2.sf(statistic, dof)), dof
