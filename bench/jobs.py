"""Workload job lists for the phasorlab benchmark, and their output checks.

A workload is a fixed list of ``phasorlab`` CLI invocations.  The
benchmark seed picks the cavity ``--seed``, the holography source
position and small offsets of the epr start angles; the program sees
only the generated argv.  Every job carries a check of its stdout against
closed forms at the tolerances ``tests/test_acceptance.py`` uses, so an
optimisation that moves bits by round-off still passes while a wrong
answer does not.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

T_FINAL = 6.283185307179586  # default --t-final of ``phasorlab evolve``


@dataclass(frozen=True)
class Job:
    """One CLI invocation: argv after ``phasorlab``, expected exit code, check."""

    name: str
    argv: tuple[str, ...]
    check: Callable[[bytes], list[str]] = field(repr=False)
    exit_code: int = 0


# ---------------------------------------------------------------------------
# output parsing

def _csv_table(out: bytes, header: list[str]) -> np.ndarray:
    rows = list(csv.reader(io.StringIO(out.decode("utf-8"))))
    if not rows or rows[0] != header:
        raise ValueError(f"header {rows[0] if rows else None} != {header}")
    return np.array([[float(x) for x in r] for r in rows[1:]], dtype=float).reshape(-1, len(header))


def _json_table(out: bytes, header: list[str]) -> np.ndarray:
    payload = json.loads(out)
    if payload and list(payload[0]) != header:
        raise ValueError(f"keys {list(payload[0])} != {header}")
    return np.array([[r[k] for k in header] for r in payload], dtype=float).reshape(-1, len(header))


def _table(out: bytes, header: list[str], fmt: str) -> np.ndarray:
    return _json_table(out, header) if fmt == "json" else _csv_table(out, header)


def _checked(fn):
    """Turn a check that raises or returns problems into one that returns them."""
    def check(out: bytes) -> list[str]:
        try:
            return fn(out)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            return [f"unparsable output: {exc}"]
    return check


def _worst(name: str, dev: np.ndarray, tol: float) -> list[str]:
    worst = float(np.max(np.abs(dev))) if dev.size else 0.0
    if not math.isfinite(worst) or worst > tol:
        return [f"{name}: worst deviation {worst:.3g} > {tol:g}"]
    return []


def _sweep(start: float, span: float, count: int) -> tuple[str, np.ndarray]:
    """A 'start:stop:count' degree sweep argument and the angles it denotes."""
    lo, hi = "%.6f" % start, "%.6f" % (start + span)
    return f"{lo}:{hi}:{count}", np.linspace(float(lo), float(hi), count)


# ---------------------------------------------------------------------------
# checks per subcommand

EPR_HEADER = ["theta1_deg", "theta2_deg", "E", "P_xx", "P_xy", "P_yx", "P_yy"]


def check_epr(theta1: np.ndarray, theta2: np.ndarray, fmt: str,
              convention: str = "sum", tol: float = 1e-9):
    """Plus-parity table: E = cos 2s, P_xx = P_yy = cos^2(s)/2, P_xy = P_yx = sin^2(s)/2.

    s = theta1 + theta2 (sum convention) or theta1 - theta2 (difference).
    ``tol`` is 1e-9 for the symbolic path and 1e-2 for the numeric one.
    """
    def check(out: bytes) -> list[str]:
        t = _table(out, EPR_HEADER, fmt)
        t1, t2 = np.meshgrid(theta1, theta2, indexing="ij")
        if t.shape[0] != t1.size:
            return [f"{t.shape[0]} rows, expected {t1.size}"]
        problems = _worst("theta grid", np.concatenate(
            [t[:, 0] - t1.ravel(), t[:, 1] - t2.ravel()]), 1e-9)
        s = np.radians(t[:, 0]) + (1 if convention == "sum" else -1) * np.radians(t[:, 1])
        c2, s2 = np.cos(s) ** 2 / 2, np.sin(s) ** 2 / 2
        problems += _worst("E vs cos 2(theta1+-theta2)", t[:, 2] - np.cos(2 * s), tol)
        problems += _worst("P vs closed form", np.concatenate(
            [t[:, 3] - c2, t[:, 4] - s2, t[:, 5] - s2, t[:, 6] - c2]), tol)
        problems += _worst("sum of P", t[:, 3:].sum(axis=1) - 1.0, 1e-9)
        return problems
    return _checked(check)


def check_evolve(t_final: float, step: float, every: int):
    """Harmonic oscillator psi'' + psi = 0 from (1, 0): psi = cos t, psi' = -sin t."""
    n_steps = max(1, round(t_final / step))
    n_rows = len(range(0, n_steps + 1, every))

    def check(out: bytes) -> list[str]:
        t = _csv_table(out, ["t", "re_0", "im_0", "re_1", "im_1", "norm"])
        if t.shape[0] != n_rows:
            return [f"{t.shape[0]} rows, expected {n_rows}"]
        time = t[:, 0]
        return (_worst("re_0 vs cos t", t[:, 1] - np.cos(time), 1e-8)
                + _worst("re_1 vs -sin t", t[:, 3] + np.sin(time), 1e-8)
                + _worst("imaginary parts", t[:, [2, 4]], 1e-12)
                + _worst("norm", t[:, 5] - 1.0, 1e-8)
                + _worst("time grid", time - np.arange(0, n_steps + 1, every) * (t_final / n_steps),
                         1e-9))
    return _checked(check)


CAVITY_HEADER = ["f", "T", "mc_mean_energy", "mc_stderr", "closed_form",
                 "rel_error", "acceptance_rate", "steps", "seed"]


def check_cavity(ratios: list[str], steps: int, seed: int, planck: bool):
    """Rows echo the inputs; the closed form is x / (e^x - 1) with h = k_B = T = 1.

    With ``planck`` set the chains are long enough to demand a Monte Carlo
    energy within 2% of the closed form.  A chain whose own batch-means
    error is too wide to resolve 2% (hf/kT = 5 at a few million steps)
    must instead lie within 5 standard errors.  Short chains get finite
    and range checks only.
    """
    x = np.array([float(r) for r in ratios])

    def check(out: bytes) -> list[str]:
        t = _csv_table(out, CAVITY_HEADER)
        if t.shape[0] != x.size:
            return [f"{t.shape[0]} rows, expected {x.size}"]
        if not np.all(np.isfinite(t)):
            return ["non-finite value in cavity table"]
        f, temp, mc, err, closed, rel, acc, n, sd = t.T
        problems = _worst("f echoes input", f - x, 0.0)
        problems += _worst("T", temp - 1.0, 0.0)
        problems += _worst("steps", n - steps, 0.0)
        problems += _worst("seed", sd - float(seed), 0.0)
        problems += _worst("closed form", closed / (x / np.expm1(x)) - 1.0, 1e-12)
        problems += _worst("rel_error", rel - np.abs(mc - closed) / closed, 1e-9)
        if np.any(mc < 0) or np.any(err < 0) or np.any(acc <= 0) or np.any(acc > 1):
            problems.append("energy, stderr or acceptance rate out of range")
        if planck:
            bad = (rel >= 0.02) & (np.abs(mc - closed) >= 5 * err)
            for i in np.flatnonzero(bad):
                problems.append(f"hf/kT={x[i]:g}: relative error {rel[i]:.4f} "
                                f"({abs(mc[i] - closed[i]) / err[i]:.1f} stderr)")
        return problems
    return _checked(check)


def check_holo_csv(n_channels: int, domain: tuple[float, float]):
    """Density = measure / |domain|, non-increasing over channels, final set non-empty."""
    length = domain[1] - domain[0]

    def check(out: bytes) -> list[str]:
        t = _csv_table(out, ["n_channels", "alias_measure", "density"])
        if t.shape[0] != n_channels:
            return [f"{t.shape[0]} rows, expected {n_channels}"]
        problems = _worst("n_channels", t[:, 0] - np.arange(1, n_channels + 1), 0.0)
        problems += _worst("density = measure / length", t[:, 2] - t[:, 1] / length, 1e-12)
        if np.any(np.diff(t[:, 2]) > 1e-12):
            problems.append("density increases with more channels")
        if not t[-1, 1] > 0.0:
            problems.append("final alias set is empty")
        return problems
    return _checked(check)


def check_holo_json(domain: tuple[float, float], source: float):
    """Non-empty alias set inside the domain that contains the true source."""
    length = domain[1] - domain[0]

    def check(out: bytes) -> list[str]:
        p = json.loads(out)
        iv = np.array(p["intervals"], dtype=float).reshape(-1, 2)
        problems = []
        if iv.shape[0] == 0 or not p["measure"] > 0.0:
            problems.append("alias set is empty")
        if p["contains_source"] is not True:
            problems.append("alias set excludes the source")
        if np.any(iv[:, 1] <= iv[:, 0]) or np.any(iv < domain[0]) or np.any(iv > domain[1]):
            problems.append("intervals malformed or outside the domain")
        problems += _worst("measure", np.array([p["measure"] - math.fsum(iv[:, 1] - iv[:, 0])]),
                           1e-9)
        problems += _worst("density", np.array([p["density"] - p["measure"] / length]), 1e-12)
        problems += _worst("source", np.array([p["source"] - source]), 0.0)
        return problems
    return _checked(check)


HJ_HEADER = ["q", "lhs_re", "rhs_re", "rhs_im", "bcp_ratio", "regime_flag"]


def check_hj(system: str, points: int, mass: float = 1.0, alpha: float = 0.5,
             energy: float = 10.0):
    """Interior residual lhs_re - rhs_re at O(dq^2) on the default [0, 1] grid.

    Free particle: S is linear in q, so the residual is round-off (< 1e-8,
    as in the acceptance test).  Linear potential: the central difference
    of W' = p leaves lhs = -m alpha^2 dq^2 / (6 p^2) at leading order, so
    the residual must stay within twice that plus round-off.
    """
    h = 1.0 / (points - 1)

    def check(out: bytes) -> list[str]:
        t = _csv_table(out, HJ_HEADER)
        if t.shape[0] != points - 2:
            return [f"{t.shape[0]} rows, expected {points - 2} interior points"]
        q = t[:, 0]
        problems = _worst("interior grid", q - np.linspace(0.0, 1.0, points)[1:-1], 1e-12)
        resid = t[:, 1] - t[:, 2]
        if system == "free":
            return problems + _worst("free residual", resid, 1e-8)
        p2 = 2.0 * mass * (energy - alpha * q)
        bound = 2.0 * mass * alpha ** 2 * h ** 2 / (6.0 * p2) + 1e-9
        if not np.all(np.abs(resid) <= bound):
            worst = float(np.max(np.abs(resid) / bound))
            problems.append(f"linear residual exceeds 2x its O(dq^2) term (x{worst:.2f})")
        return problems
    return _checked(check)


def check_empty(out: bytes) -> list[str]:
    """A failing job writes nothing to stdout."""
    return [] if out == b"" else [f"{len(out)} bytes on stdout of a failing job"]


# ---------------------------------------------------------------------------
# workloads

def _startup_batch(rng: random.Random, work: Path) -> list[Job]:
    """Small jobs where interpreter start-up and import are ~90% of the wall."""
    cav_seed = rng.getrandbits(64)
    off = rng.uniform(0.0, 1.0)
    # centre of a 1/12 cell: at least 1/24 from every parity edge of channels 1-3
    source = (rng.randrange(12, 108) + 0.5) / 12.0
    sweep_arg, t1 = _sweep(off, 90.0, 19)
    cfg_arg, cfg_t1 = _sweep(off, 45.0, 7)
    config = work / "epr-config.txt"
    config.write_text(f"# generated by bench/jobs.py\ntheta1 = {cfg_arg}\n"
                      f"theta2 = 30\nparity = plus\nconvention = difference\n", encoding="utf-8")
    domain = (0.0, 10.0)
    ratios = ["0.5", "1", "2", "5"]
    # shifting each channel's source by whole wavelengths leaves its bits unchanged
    sources = [source, source + 0.5, source + 2.0 / 3.0]
    return [
        Job("epr-sweep", ("epr", "--theta1", sweep_arg, "--theta2", "0"),
            check_epr(t1, np.array([0.0]), "csv")),
        Job("epr-config-json", ("epr", "--config", str(config), "--format", "json"),
            check_epr(cfg_t1, np.array([30.0]), "json", convention="difference")),
        Job("holo-csv", ("holo", "--channels", "1,2,3", "--source", repr(source)),
            check_holo_csv(3, domain)),
        Job("holo-json", ("holo", "--channels", "1,2,3", "--source", repr(source),
                          "--format", "json"),
            check_holo_json(domain, source)),
        Job("holo-sources", ("holo", "--channels", "1,2,3",
                             "--sources", ",".join(repr(s) for s in sources)),
            check_holo_csv(3, domain)),
        Job("cavity-small", ("cavity", "--hf-over-kt", ",".join(ratios), "--steps", "100000",
                             "--seed", str(cav_seed)),
            check_cavity(ratios, 100000, cav_seed, planck=False)),
        Job("evolve", ("evolve", "--step", "0.001"), check_evolve(T_FINAL, 0.001, 1)),
        Job("hj-free", ("hj", "--points", "201"), check_hj("free", 201)),
        Job("hj-linear", ("hj", "--system", "linear", "--points", "201"),
            check_hj("linear", 201)),
        Job("bad-value", ("epr", "--theta1", "abc"), check_empty, exit_code=2),
        Job("unstable-step", ("evolve", "--step", "10"), check_empty, exit_code=1),
    ]


def _epr_grid(rng: random.Random, work: Path) -> list[Job]:
    """The epr kernel, both renderers and the numeric Cesaro path."""
    arg1, t1 = _sweep(rng.uniform(0.0, 1.0), 180.0, 120)
    arg2, t2 = _sweep(rng.uniform(0.0, 1.0), 180.0, 120)
    grid = ("epr", "--theta1", arg1, "--theta2", arg2)
    arg3, t3 = _sweep(rng.uniform(0.0, 1.0), 90.0, 6)
    return [
        Job("epr-grid-csv", grid, check_epr(t1, t2, "csv")),
        Job("epr-grid-json", grid + ("--format", "json"), check_epr(t1, t2, "json")),
        Job("epr-numeric", ("epr", "--mode", "numeric", "--theta1", arg3),
            check_epr(t3, np.array([0.0]), "csv", tol=1e-2)),
    ]


def _long_chains(rng: random.Random, work: Path) -> list[Job]:
    """statespace, cavity (one long and many short chains) and holography."""
    cav_seed = rng.getrandbits(64)
    long_ratios = ["0.5", "1", "2", "5"]
    long_steps = 4_000_000
    short_ratios = ["%.6g" % x for x in np.geomspace(0.5, 5.0, 1000)]
    short_steps = 20_000
    domain = (0.0, 1000.0)
    source = rng.uniform(1.0, 999.0)
    return [
        Job("evolve-long", ("evolve", "--step", "0.00005", "--every", "500"),
            check_evolve(T_FINAL, 0.00005, 500)),
        Job("cavity-long", ("cavity", "--hf-over-kt", ",".join(long_ratios),
                            "--steps", str(long_steps), "--seed", str(cav_seed)),
            check_cavity(long_ratios, long_steps, cav_seed, planck=True)),
        Job("cavity-short-chains", ("cavity", "--hf-over-kt", ",".join(short_ratios),
                                    "--steps", str(short_steps), "--seed", str(cav_seed)),
            check_cavity(short_ratios, short_steps, cav_seed, planck=False)),
        Job("holo-channels", ("holo", "--channels", "1,2,3,5,8,13,21,34",
                              "--detectors", "0,0.3,0.7", "--source", repr(source),
                              "--domain", "0:1000"),
            check_holo_csv(8, domain)),
    ]


WORKLOADS = {
    "startup-batch": _startup_batch,
    "epr-grid": _epr_grid,
    "long-chains": _long_chains,
}


def build(workload: str, seed: int, work: Path) -> list[Job]:
    """The job list of ``workload`` for benchmark seed ``seed``."""
    return WORKLOADS[workload](random.Random(seed), work)
