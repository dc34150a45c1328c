"""Exit 0 means right: properties that hold each fuzzed run's printed table to the
closed-form oracle of its engine (``oracles``)."""

import contextlib
import io

from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from phasorlab import cli

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
