"""Exit 0 means right: properties that hold each fuzzed run's printed table to the
closed-form oracle of its engine (``oracles``), and the oracles' own edge cases."""

import ast
import contextlib
import io
from pathlib import Path

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from phasorlab import cavity, cli
from phasorlab.seeding import derive_rng

ANGLE = st.floats(-1e308, 1e308, allow_nan=False)
# one angle, or a small start:stop:count sweep; a sweep whose span overflows exits 2
ANGLE_ARG = st.one_of(ANGLE.map(repr), st.tuples(ANGLE, ANGLE, st.integers(1, 4)).map(
    lambda sweep: "%r:%r:%d" % sweep))


def run_cli(argv):
    """(exit code, stdout, resolved options) of one in-process run; options only on exit 0."""
    with contextlib.redirect_stdout(io.StringIO()) as out, \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.run(argv)
    opts = cli.resolve_options(argv[0], cli.parse_argv(argv)[1]) if code == 0 else None
    return code, out.getvalue(), opts


def test_epr_oracle_sees_swapped_columns():
    code, stdout, opts = run_cli(["epr", "--theta1", "0:170:5", "--theta2", "25",
                                  "--parity", "minus"])
    assert code == 0
    assert oracles.epr_deviation(opts, stdout) <= 1e-12
    rows = [line.split(",") for line in stdout.splitlines()]
    for cells in rows[1:]:
        cells[3], cells[4] = cells[4], cells[3]  # P_xx and P_xy
    assert oracles.epr_deviation(opts, "\n".join(map(",".join, rows))) > 1e-12


@settings(deadline=None, max_examples=150, derandomize=True)
@given(ANGLE_ARG, ANGLE_ARG, st.sampled_from(["plus", "minus"]),
       st.sampled_from(["sum", "difference"]), st.sampled_from(["csv", "json"]))
def test_epr_exit_0_prints_the_closed_form(theta1, theta2, parity, convention, fmt):
    argv = ["epr", "--theta1", theta1, "--theta2", theta2, "--parity", parity,
            "--convention", convention, "--format", fmt]
    code, stdout, opts = run_cli(argv)
    assume(code == 0)
    assert oracles.epr_deviation(opts, stdout) <= 1e-12


def power(low, high):
    """10 to a power drawn from [low, high]."""
    return st.floats(low, high).map(lambda exponent: 10.0 ** exponent)


@st.composite
def hj_argv(draw):
    """An hj argv over the physically typical ranges: both systems, both formats."""
    system = draw(st.sampled_from(["free", "linear"]))
    q0, span = draw(st.sampled_from([0.0, 1.0]) | st.floats(-50, 50)), draw(power(-3, 2))
    argv = ["hj", "--system", system, "--mass", repr(draw(power(-3, 3))),
            "--hbar", repr(draw(power(-3, 3))), "--q-min", repr(q0), "--q-max", repr(q0 + span),
            "--points", str(draw(st.integers(5, 2000))),
            "--format", draw(st.sampled_from(["csv", "json"]))]
    sign = draw(st.sampled_from([-1.0, 1.0]))
    if system == "free":
        return argv + ["--momentum", repr(sign * draw(power(-3, 3)))]
    alpha = sign * draw(power(-5, 3))
    energy = max(alpha * q0, alpha * (q0 + span)) + abs(alpha) * span * draw(power(-2, 4))
    return argv + ["--alpha", repr(alpha), "--energy", repr(energy)]


def test_hj_oracle_sees_a_scaled_bcp_ratio():
    code, stdout, opts = run_cli(["hj", "--system", "linear"])
    assert code == 0
    assert oracles.hj_deviation(opts, stdout) <= 1.0
    rows = [line.split(",") for line in stdout.splitlines()]
    for cells in rows[1:]:
        cells[4] = repr(1.01 * float(cells[4]))
    assert oracles.hj_deviation(opts, "\n".join(map(",".join, rows))) > 1.0


@settings(deadline=None, max_examples=120, derandomize=True)
@given(hj_argv())
def test_hj_exit_0_holds_to_the_closed_forms(argv):
    code, stdout, opts = run_cli(argv)
    assume(code == 0)
    assert oracles.hj_deviation(opts, stdout) <= 1.0


def test_oracles_import_nothing_from_the_package():
    # an oracle that shared the engines' code would agree with their faults
    tree = ast.parse(Path(oracles.__file__).read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += ["." * node.level + (node.module or "") for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom)]
    assert [name for name in imported if name.split(".")[0] in ("phasorlab", "")] == []


def test_flow_ratios_skip_rare_levels_and_a_stuck_chain():
    walk = cavity.equilibrate(0.5, 200_000, 0, derive_rng(8, "cavity", 0)).occupancies
    # the walk's rare top levels fall under the minimum count and are skipped
    kept = {r.level for r in oracles.transition_flow_ratios(walk)}
    assert kept and kept != set(range(int(walk.max())))
    assert oracles.transition_flow_ratios(np.zeros(1000, dtype=np.int64)) == []
