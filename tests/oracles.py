"""Closed-form oracles for the tables the CLI prints.

Test-only, and independent of the package: built on the stdlib (and numpy, where an
engine's closed form needs it).  Each oracle takes a run's resolved options
(``cli.resolve_options``) and its stdout, and returns the worst deviation of the
printed numbers from a closed form that does not share the engine's code.
"""

import itertools
import json
import math


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
