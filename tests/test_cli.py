import contextlib
import gc
import hashlib
import io
import json
import math
import os
import platform
import shlex
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy._core._multiarray_umath import __cpu_dispatch__

from phasorlab import cavity, cli, epr, hj, holography, phasor, statespace
from phasorlab.seeding import derive_rng, philox_key
from test_golden import GOLDEN


# the epr --convention choices; the CLI, not the kernel, applies the difference one
EPR_CONVENTIONS = ("sum", "difference")


def run_to_file(tmp_path, name, argv):
    out = tmp_path / name
    code = cli.run(argv + ["--out", str(out)])
    return code, out


# --- seeding ------------------------------------------------------------------

def test_philox_key_is_frozen():
    # the derivation is part of the output contract; pin it
    key = philox_key(42, "cavity", 0)
    assert key.dtype == np.uint64
    assert key.shape == (2,)
    again = philox_key(42, "cavity", 0)
    assert np.array_equal(key, again)
    assert not np.array_equal(key, philox_key(42, "cavity", 1))
    assert not np.array_equal(key, philox_key(42, "epr", 0))
    assert not np.array_equal(key, philox_key(43, "cavity", 0))


def test_derive_rng_streams_reproducible():
    a = derive_rng(7, "cavity", 3).random(5)
    b = derive_rng(7, "cavity", 3).random(5)
    c = derive_rng(7, "cavity", 4).random(5)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_seed_bounds_checked():
    with pytest.raises(ValueError):
        philox_key(-1, "cavity", 0)
    with pytest.raises(ValueError):
        philox_key(2 ** 64, "cavity", 0)


# --- epr subcommand --------------------------------------------------------------

def test_epr_crossed_analyzers_row(tmp_path):
    code, out = run_to_file(tmp_path, "epr.csv",
                            ["epr", "--theta1", "0", "--theta2", "90",
                             "--parity", "plus"])
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    assert header == "theta1_deg,theta2_deg,E,P_xx,P_xy,P_yx,P_yy"
    cells = dict(zip(header.split(","), row.split(",")))
    # the x1 y2 joint event (both photons along their set axes) is forbidden
    assert abs(float(cells["P_xx"])) < 1e-12
    assert float(cells["E"]) == pytest.approx(-1.0, abs=1e-12)
    assert float(cells["P_xy"]) == pytest.approx(0.5, abs=1e-12)


def test_epr_sweep_row_count(tmp_path):
    code, out = run_to_file(tmp_path, "sweep.csv",
                            ["epr", "--theta1", "0:90:4", "--theta2", "0:45:3"])
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 1 + 4 * 3


def test_epr_csv_json_value_parity(tmp_path):
    argv = ["epr", "--theta1", "10:80:5", "--theta2", "15"]
    code_c, out_c = run_to_file(tmp_path, "a.csv", argv + ["--format", "csv"])
    code_j, out_j = run_to_file(tmp_path, "a.json", argv + ["--format", "json"])
    assert code_c == 0 and code_j == 0
    header, *rows = out_c.read_text().strip().split("\n")
    keys = header.split(",")
    parsed_csv = [dict(zip(keys, map(float, r.split(",")))) for r in rows]
    parsed_json = json.loads(out_j.read_text())
    assert len(parsed_csv) == len(parsed_json)
    for rc, rj in zip(parsed_csv, parsed_json):
        for k in keys:
            assert rc[k] == pytest.approx(rj[k], abs=1e-15)


@pytest.mark.parametrize("parity", epr.PARITIES)
@pytest.mark.parametrize("theta1, reduced", [("1e17", "280"), ("1e308", "296")])
def test_epr_huge_angle_keeps_the_quarter_turn(theta1, reduced, parity, capsys):
    # radians(theta) + pi/2 once lost the quarter turn: at 1e17 the plus pair printed
    # P_xx = 0.01359 and P_yy = 0.00448, and at 1e308 E = 1.6e-17 where cos 2 theta is due
    rows = []
    for value in (theta1, reduced):  # reduced is theta1 mod 360
        assert cli.run(["epr", "--theta1", value, "--parity", parity]) == 0
        rows.append(capsys.readouterr().out.splitlines()[1].split(","))
    assert float(rows[0][0]) == float(theta1)
    assert rows[0][1:] == rows[1][1:]
    corr, p_xx, _, _, p_yy = map(float, rows[0][2:])
    assert p_xx == p_yy
    sign = 1.0 if parity == "plus" else -1.0
    assert corr == pytest.approx(sign * math.cos(2 * math.radians(float(reduced))), abs=1e-15)


def assert_printed_table_symmetric(out):
    header, *rows = out.splitlines()
    for row in rows:
        cells = dict(zip(header.split(","), row.split(",")))
        assert cells["P_xx"] == cells["P_yy"] and cells["P_xy"] == cells["P_yx"], cells


@settings(deadline=None, max_examples=60, derandomize=True)
@given(st.floats(-1e308, 1e308, allow_nan=False), st.floats(-1e308, 1e308, allow_nan=False),
       st.sampled_from(epr.PARITIES), st.sampled_from(EPR_CONVENTIONS))
def test_epr_printed_table_is_symmetric(theta1, theta2, parity, convention):
    # degrees up to 1e308: P_xx and P_yy print the same string, and so do P_xy and P_yx
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(["epr", "--theta1", repr(theta1), "--theta2", repr(theta2),
                        "--parity", parity, "--convention", convention]) == 0
    assert_printed_table_symmetric(out.getvalue())


# the per-cell reduction once printed P_xy 1.69e-32 against P_yx 1.87e-33 on the first,
# and P_xx 7.5e-33 against P_yy 0 on the second
@pytest.mark.parametrize("argv", [
    ["epr", "--theta1", "1e308", "--theta2", "-1e308"],
    ["epr", "--theta1", "90", "--theta2", "90", "--convention", "difference", "--parity", "minus"],
], ids=["opposite-huge-angles", "crossed-minus-difference"])
def test_epr_regression_prints_a_symmetric_table(argv, capsys):
    assert cli.run(argv) == 0
    assert_printed_table_symmetric(capsys.readouterr().out)


# --- cavity subcommand -------------------------------------------------------------

def test_cavity_double_run_byte_identical(tmp_path):
    argv = ["cavity", "--hf-over-kt", "1", "--steps", "200000", "--seed", "42"]
    _, out1 = run_to_file(tmp_path, "c1.csv", argv)
    _, out2 = run_to_file(tmp_path, "c2.csv", argv)
    h1 = hashlib.sha256(out1.read_bytes()).hexdigest()
    h2 = hashlib.sha256(out2.read_bytes()).hexdigest()
    assert h1 == h2


def test_cavity_schema_has_nine_columns(tmp_path):
    code, out = run_to_file(tmp_path, "c.csv",
                            ["cavity", "--hf-over-kt", "1", "--steps", "50000",
                             "--burn-in", "1000", "--seed", "1"])
    assert code == 0
    header, row = out.read_text().strip().split("\n")
    assert header.split(",") == ["f", "T", "mc_mean_energy", "mc_stderr",
                                 "closed_form", "rel_error", "acceptance_rate",
                                 "steps", "seed"]
    assert len(row.split(",")) == 9


def test_cavity_requires_hf_over_kt(capsys):
    # --hf-over-kt has no default: a cavity run without it names the key
    assert_config_error(["cavity"], "key 'hf-over-kt' must list at least one value", capsys)


@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_cavity_empty_frequency_list_exit_2(via_config, tmp_path, capsys):
    argv = ["cavity", "--hf-over-kt="]
    if via_config:
        config = tmp_path / "empty.cfg"
        config.write_text("hf-over-kt =\n", encoding="utf-8")
        argv = ["cavity", "--config", str(config)]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "'hf-over-kt' must list at least one value" in captured.err


@pytest.mark.parametrize("key", ["planck-h", "boltzmann-k", "frequencies", "temperature"])
def test_cavity_scale_constants_are_not_keys_exit_2(key, tmp_path, capsys):
    # Planck's law depends on f and T only through hf/k_B T, which --hf-over-kt takes itself
    assert_config_error(["cavity", "--hf-over-kt", "1", f"--{key}", "2"],
                        f"unknown option '--{key}' for subcommand 'cavity'", capsys)
    config = tmp_path / "scale.cfg"
    config.write_text(f"hf-over-kt = 1\n{key} = 2\n", encoding="utf-8")
    assert_config_error(["cavity", "--config", str(config)],
                        f"unknown config key '{key}' for subcommand 'cavity'", capsys)


# --- holo subcommand ----------------------------------------------------------------

def test_holo_json_description(tmp_path):
    code, out = run_to_file(tmp_path, "h.json",
                            ["holo", "--channels", "1,2", "--source", "2.3",
                             "--format", "json"])
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["contains_source"] is True
    assert payload["granularity"] == pytest.approx(0.25)
    assert payload["measure"] == pytest.approx(
        sum(hi - lo for lo, hi in payload["intervals"]))
    los = [lo for lo, _ in payload["intervals"]]
    assert los == sorted(los)


def test_holo_density_table(tmp_path):
    code, out = run_to_file(tmp_path, "h.csv",
                            ["holo", "--channels", "1,2,3", "--source", "4.1"])
    assert code == 0
    header, *rows = out.read_text().strip().split("\n")
    assert header == "n_channels,alias_measure,density"
    densities = [float(r.split(",")[2]) for r in rows]
    assert len(densities) == 3
    assert all(b <= a + 1e-12 for a, b in zip(densities, densities[1:]))
    assert densities[0] == pytest.approx(0.5, abs=1e-9)


def test_holo_inconsistent_bits_exit_code(tmp_path, capsys):
    # channel-1 bits from source 2.3, channel-2 bits from a source whose
    # alias cells avoid 2.3's: detectors a quarter-wavelength apart disagree
    code = cli.run(["holo", "--channels", "1,1", "--detectors", "0.0",
                    "--sources", "2.3,2.55", "--source", "2.3"])
    err = capsys.readouterr().err
    assert code == 1
    assert "inconsistent bits" in err


def test_holo_json_refuses_sources(capsys):
    # the JSON checks its one --source: with --sources 5.6,5.6,5.6 it printed "source": 2.3
    # and "contains_source": false, though the alias set holds 5.6, where the bits came from
    argv = ["holo", "--channels", "1,2,3", "--sources", "5.6,5.6,5.6", "--format", "json"]
    assert cli.run(argv) == 2
    assert capsys.readouterr() == ("", "phasorlab: config error: key 'sources' applies only"
                                   " with format 'csv'; the JSON result checks one 'source'\n")
    assert cli.run(argv[:-2]) == 0  # CSV keeps the key


def holo_opts(*argv):
    return cli.resolve_options(*cli.parse_argv(["holo", *argv]))


def per_prefix_columns(opts):
    """Reference: localize every channel prefix from scratch."""
    bits = cli._holo_setup(opts)
    per_channel = len(opts["detectors"])
    length = opts["domain"][1] - opts["domain"][0]
    rows = []
    for k in range(1, len(opts["channels"]) + 1):
        result = holography.localize(bits[:k * per_channel], opts["domain"])
        rows.append([k, result.measure, result.measure / length])
    return [np.array(column) for column in zip(*rows)]


@pytest.mark.parametrize("argv", [
    ("--channels", "1,2,3", "--source", "4.1"),
    ("--channels", "1,2,3,5,8", "--detectors", "0,0.3,0.7", "--source", "37.7",
     "--domain", "0:100", "--alpha", "0.4"),
    ("--channels", "3,1,2", "--detectors=0.1,-2", "--sources", "2.3,3.3,1.3",
     "--domain=-5:5"),
])
def test_holo_running_intersection_matches_per_prefix_localize(argv):
    opts = holo_opts(*argv)
    header, columns = cli.run_holo_csv(opts)
    reference = per_prefix_columns(opts)
    assert len(columns) == len(reference) == len(header)
    for column, expected in zip(columns, reference):
        assert np.array_equal(column, expected)


def test_holo_running_intersection_fails_at_same_prefix():
    opts = holo_opts("--channels", "1,2,1,3", "--detectors", "0",
                     "--sources", "2.3,2.3,2.55,2.3")
    bits = cli._holo_setup(opts)
    kept = []
    with pytest.raises(ValueError, match="inconsistent bits"):
        for alias_set in holography.localize_prefixes(bits, opts["domain"], 1):
            kept.append(alias_set)
    assert len(kept) == 2
    for k, alias_set in enumerate(kept, start=1):
        reference = holography.localize(bits[:k], opts["domain"])
        assert np.array_equal(alias_set.intervals, reference.intervals)
        assert alias_set.measure == reference.measure
        assert alias_set.granularity == reference.granularity
    with pytest.raises(ValueError, match="inconsistent bits"):
        holography.localize(bits[:3], opts["domain"])
    with pytest.raises(ValueError, match="inconsistent bits"):
        cli.run_holo_csv(opts)


# --- evolve subcommand ---------------------------------------------------------------

def test_evolve_trajectory_columns(tmp_path):
    code, out = run_to_file(tmp_path, "e.csv",
                            ["evolve", "--coefficients", "1,0,1",
                             "--initial", "1,0", "--t-final", "3.141592653589793",
                             "--step", "0.001", "--every", "500"])
    assert code == 0
    header, *rows = out.read_text().strip().split("\n")
    assert header == "t,re_0,im_0,re_1,im_1,norm"
    last = [float(x) for x in rows[-1].split(",")]
    assert last[1] == pytest.approx(math.cos(last[0]), abs=1e-9)
    assert last[5] == pytest.approx(math.hypot(last[1], last[3]), abs=1e-12)


def test_evolve_complex_coefficients(tmp_path):
    code, out = run_to_file(tmp_path, "e2.csv",
                            ["evolve", "--coefficients", "1j,1",
                             "--initial", "1", "--t-final", "1", "--step", "0.01"])
    assert code == 0
    # psi' = -i psi: norm is conserved
    rows = out.read_text().strip().split("\n")[1:]
    norms = [float(r.split(",")[-1]) for r in rows]
    assert norms[-1] == pytest.approx(1.0, abs=1e-10)


def test_evolve_unstable_step_fails(capsys):
    code = cli.run(["evolve", "--coefficients", "10000,0,1", "--initial", "1,0",
                    "--t-final", "10", "--step", "0.5"])
    assert code == 1
    assert "stability" in capsys.readouterr().err


@pytest.mark.parametrize("every", ["0", "-3"])
def test_evolve_every_below_one_exit_2(every, capsys):
    code = cli.run(["evolve", "--every", every])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "'every' must be at least 1" in captured.err


# --- hj subcommand --------------------------------------------------------------------

def test_hj_free_particle_output(tmp_path):
    code, out = run_to_file(tmp_path, "hj.csv", ["hj", "--system", "free"])
    assert code == 0
    header, *rows = out.read_text().strip().split("\n")
    assert header == "q,lhs_re,rhs_re,rhs_im,bcp_ratio,regime_flag"
    for row in rows[:5]:
        cells = [float(x) for x in row.split(",")]
        assert abs(cells[1]) < 1e-8
        assert abs(cells[4]) < 1e-10
        assert cells[5] == 1


def test_hj_linear_system(tmp_path):
    code, out = run_to_file(tmp_path, "hj2.csv",
                            ["hj", "--system", "linear", "--alpha", "0.5",
                             "--energy", "10", "--points", "101"])
    assert code == 0
    rows = out.read_text().strip().split("\n")[1:]
    assert len(rows) == 99  # interior only
    ratios = [float(r.split(",")[4]) for r in rows]
    assert all(r < 0 for r in ratios)


@pytest.mark.parametrize("argv, n_rows", [
    (["hj", "--mass", "1e150"], 199),
    (["hj", "--points", "10001"], 9999),
    (["hj", "--q-min", "1000", "--q-max", "1001"], 199),
    (["hj", "--momentum", "1e150"], 199),
    (["hj", "--momentum", "1e-12"], 199),
    (["hj", "--momentum", "1e-100"], 199),
])
def test_hj_late_time_and_large_grids_exit_0(argv, n_rows, capsys):
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, *rows = captured.out.strip().split("\n")
    assert len(rows) == n_rows
    assert all(math.isfinite(float(x)) for row in rows for x in row.split(","))


@pytest.mark.parametrize("momentum", ["1e-12", "1e-100", "1e-200"])
def test_hj_tiny_momentum_prints_zero_ratio(momentum, capsys):
    # a free particle's ratio is exactly 0; round-off over a tiny p^2 is not physics
    assert cli.run(["hj", "--momentum", momentum]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 199
    assert all(row.split(",")[4:] == ["0", "1"] for row in rows)


def test_hj_zero_momentum_is_a_turning_point(capsys):
    assert_engine_failure(["hj", "--momentum", "0"], "momentum vanishes", capsys)


@pytest.mark.parametrize("extra", [[], ["--system", "linear"]])
def test_hj_differences_w_once_per_run(extra, monkeypatch, capsys):
    # hjs_residual and bcp_ratio share the grid's cached central differences
    diffs = hj.PrincipalFunctionGrid.central_diffs
    difference, grids = diffs.func, []

    def counted(grid):
        grids.append(grid)
        return difference(grid)
    monkeypatch.setattr(diffs, "func", counted)
    assert cli.run(["hj", *extra]) == 0
    assert capsys.readouterr().err == ""
    assert len(grids) == 1


# --- config handling -------------------------------------------------------------------

def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("theta1 = 0\ntheta2 = 90  # crossed\nparity = plus\n")
    out = tmp_path / "o.csv"
    code = cli.run(["epr", "--config", str(cfg), "--out", str(out)])
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(-1.0)

    # flag overrides the file value
    code = cli.run(["epr", "--config", str(cfg), "--theta2", "0",
                    "--out", str(out)])
    assert code == 0
    row = out.read_text().strip().split("\n")[1].split(",")
    assert float(row[2]) == pytest.approx(1.0)


def test_unknown_config_key_exit_2(tmp_path, capsys):
    # field-scale and time were keys once, and seed a key of every command; none changed
    # these commands' output
    for command, key in [("epr", "thetaX"), ("epr", "field-scale"), ("hj", "time"),
                         *((command, "seed") for command in ("epr", "holo", "evolve", "hj"))]:
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(f"{key} = 12\n")
        code = cli.run([command, "--config", str(cfg)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"unknown config key '{key}'" in err and len(err.splitlines()) == 1


def test_bad_config_value_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad2.cfg"
    cfg.write_text("theta1 = north\n")
    code = cli.run(["epr", "--config", str(cfg)])
    assert code == 2
    assert "theta1" in capsys.readouterr().err


def test_malformed_config_line_exit_2(tmp_path, capsys):
    cfg = tmp_path / "bad3.cfg"
    cfg.write_text("just some words\n")
    code = cli.run(["epr", "--config", str(cfg)])
    assert code == 2


def test_non_utf8_config_file_exit_2(tmp_path, capsys):
    cfg = tmp_path / "latin.cfg"
    cfg.write_bytes(b"theta1 = \xff\n")
    code = cli.run(["epr", "--config", str(cfg)])
    assert code == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1


def test_config_round_trip():
    text = "b = 2\na = 1\n# comment\nc = x y\n"
    assert cli.parse_config_text(text) == {"b": "2", "a": "1", "c": "x y"}


def test_missing_subcommand_exit_2(capsys):
    assert cli.run([]) == 2


@pytest.mark.parametrize("argv", [
    [],
    ["nosuch"],
    ["epr", "--thetaX", "1"],
    ["evolve", "--t", "5"],      # keys match exactly: no abbreviation of --t-final
    ["epr", "--theta2", "0", "--theta1"],
    ["epr", "theta1", "0"],
    ["epr", "--field-scale", "1"],  # removed keys: none changed any output
    ["hj", "--time", "1"],
    *([command, "--seed", "3"] for command in ("epr", "holo", "evolve", "hj")),
], ids=["no-argv", "unknown-subcommand", "unknown-key", "abbreviated-key", "no-value",
        "bare-word", "removed-field-scale", "removed-time", "seed-epr", "seed-holo",
        "seed-evolve", "seed-hj"])
def test_usage_error_is_one_line(argv, capsys):
    assert cli.run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("phasorlab: usage error: ")
    assert len(captured.err.splitlines()) == 1


# a value that starts with '-' is the value of the key before it; the digests are the
# stdout of each argv's --key=value spelling before the CLI had its own parser
DASH_VALUES = [
    (["holo", "--alpha", "-1e-3"],
     "a56da46138f1cb7d8ade6d6cba8c836afb893b5a6ccacb82510ab8613549603e"),
    (["epr", "--theta1", "-90:90:3"],
     "8da3dbd8c99a149fe4f40bf33727842289aaa245f159c62c9af1e1afe95834f2"),
    (["holo", "--domain", "-5:5"],
     "ba111c6deced63404505ef9a17b8dba214efd48f26323e0b2c993e27fc9c8f02"),
    (["evolve", "--coefficients", "-1,0,1"],
     "ee6dfebfd126219389ebd5bc6deaca4aa1f9eb20b65c6328702d05f8b3b07fd4"),
]


@pytest.mark.parametrize("argv, digest", DASH_VALUES, ids=[" ".join(a) for a, _ in DASH_VALUES])
def test_dash_leading_value_prints_its_equals_spelling(argv, digest, capsys):
    outs = []
    for spelled in (argv, [argv[0], argv[1] + "=" + argv[2]]):
        assert cli.run(spelled) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert hashlib.sha256(outs[0].encode("utf-8")).hexdigest() == digest


def test_repeated_key_keeps_its_last_value():
    assert cli.parse_argv(["hj", "--points", "5", "--points=7", "--mass", "-2"]) == (
        "hj", {"points": "7", "mass": "-2"})


def test_program_help_lists_every_subcommand(capsys):
    assert cli.run(["--help"]) == 0
    out = capsys.readouterr().out
    for command in cli.SUBCOMMAND_OPTIONS:
        assert f"usage: phasorlab {command} " in out


def test_out_of_range_seed_exit_2(capsys):
    code = cli.run(["cavity", "--hf-over-kt", "1", "--seed", "-5"])
    assert code == 2
    assert "seed" in capsys.readouterr().err


def test_unknown_flag_exit_2(capsys):
    assert cli.run(["epr", "--thetaX", "1"]) == 2


def test_unwritable_output_exit_1(tmp_path, capsys):
    code = cli.run(["epr", "--theta1", "0", "--theta2", "0",
                    "--out", str(tmp_path / "no" / "such" / "dir" / "f.csv")])
    assert code == 1


def test_help_lists_every_key(capsys):
    assert cli.run(["cavity", "--help"]) == 0
    text = capsys.readouterr().out
    for key in [*cli.SUBCOMMAND_OPTIONS["cavity"], *cli.COMMON_OPTIONS, "config"]:
        assert f"--{key} " in text


# the value of every --out in OPTION_CHANGES, a file in the test's working directory
OUT = "option-gate.out"
COMMON_CHANGES = {"format": "json", "out": OUT}
# per subcommand, a base argv and an alternate value for each key; a key bound to one mode
# (hj's system) is changed under the base where that mode is on
OPTION_CHANGES = [
    (["epr", "--theta1", "10", "--theta2", "20"],
     {"theta1": "11", "theta2": "21", "parity": "minus", "convention": "difference",
      "mode": "numeric", **COMMON_CHANGES}),
    (["holo", "--channels", "1,2", "--detectors", "0,0.3"],
     {"base-wavelength": "1.5", "channels": "1,3", "detectors": "0,0.4", "source": "2.2",
      "sources": "2.3,2.2", "alpha": "0.1", "domain": "0:9", **COMMON_CHANGES}),
    (["cavity", "--hf-over-kt", "1", "--steps", "200", "--burn-in", "100"],
     {"hf-over-kt": "2", "steps": "300", "burn-in": "50", "seed": "1", **COMMON_CHANGES}),
    (["evolve", "--step", "0.01"],
     {"coefficients": "1,0,2", "initial": "0,1", "t-final": "3", "step": "0.02", "every": "2",
      **COMMON_CHANGES}),
    (["hj"], {"system": "linear", "momentum": "2", "mass": "2", "q-min": "0.5", "q-max": "2",
              "points": "101", **COMMON_CHANGES}),
    (["hj", "--system", "linear"], {"alpha": "0.4", "energy": "11", "hbar": "2"}),
]
# the carrier overlap cancels in the normalization, so at this base the numeric table
# is byte for byte the symbolic one; the key stays while a benchmark job still sets it
SAME_OUTPUT = {("epr", "mode")}


def test_every_option_changes_the_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    listed = {command: set() for command in cli.SUBCOMMAND_OPTIONS}
    for base, changes in OPTION_CHANGES:
        assert cli.run(base) == 0
        before = capsys.readouterr().out
        for key, value in changes.items():
            assert cli.run([*base, "--" + key, value]) == 0
            changed = capsys.readouterr().out != before
            assert changed != ((base[0], key) in SAME_OUTPUT), (base, key)
            listed[base[0]].add(key)
        if "out" in changes:  # --out moved the table from stdout to the file, byte for byte
            assert Path(OUT).read_text(encoding="utf-8") == before
    # a listed key the command does not take exits 2 above; here no key it takes is unlisted
    unlisted = {command: {*options, *cli.COMMON_OPTIONS} - listed[command]
                for command, options in cli.SUBCOMMAND_OPTIONS.items()}
    assert unlisted == {command: set() for command in cli.SUBCOMMAND_OPTIONS}


# values the grammar must carry through unchanged in either spelling
ODD_VALUES = ["", "-", "--", "-h", "--help", "--seed", "=", "a=b", "-1e-3", "-90:90:3",
              "-5:5", "-1,0,1", "1,,2", "-0", "nan", "-inf", "1e308", "-1e999", "1+2j",
              " 3 ", "0:1:0", "2:-2:5", "5:-5", "18446744073709551616", "json", "linear"]
NUMBERS = st.one_of(st.floats().map(repr), st.integers(-10 ** 20, 10 ** 20).map(str))


@st.composite
def grammar_cases(draw):
    """A subcommand and (key, value) pairs, with an occasional unknown or abbreviated key."""
    command = draw(st.sampled_from(list(cli.SUBCOMMAND_OPTIONS)))
    keys = st.sampled_from([*cli.SUBCOMMAND_OPTIONS[command], *cli.COMMON_OPTIONS, "t", "nope"])
    values = st.one_of(
        st.sampled_from(ODD_VALUES), NUMBERS, st.text(max_size=6),
        st.tuples(NUMBERS, NUMBERS).map(":".join),
        st.tuples(NUMBERS, NUMBERS, st.integers(-2, 40).map(str)).map(":".join),
        st.lists(st.one_of(NUMBERS, st.sampled_from(ODD_VALUES)), max_size=4).map(",".join))
    return command, draw(st.lists(st.tuples(keys, values), max_size=5))


@settings(max_examples=400, derandomize=True, deadline=None)
@given(grammar_cases())
def test_grammar_resolves_both_spellings_alike(case):
    """Parse plus resolve returns or raises UsageError/ConfigError, the same in both spellings."""
    command, pairs = case

    def resolve(argv):
        try:
            return cli.resolve_options(*cli.parse_argv(argv))
        except (cli.UsageError, cli.ConfigError) as exc:
            return type(exc).__name__, str(exc)

    spaced = [command, *(token for key, value in pairs for token in ("--" + key, value))]
    joined = [command, *("--%s=%s" % pair for pair in pairs)]
    if all(key in cli.SUBCOMMAND_OPTIONS[command] or key in cli.COMMON_OPTIONS
           for key, _ in pairs):
        assert cli.parse_argv(spaced) == cli.parse_argv(joined) == (command, dict(pairs))
    assert resolve(spaced) == resolve(joined)


# physical scalars may be extreme; sizes (sweep counts, points, steps, t-final/step,
# channels x domain) stay far below the engine budgets, so every case runs in milliseconds
TINY_TO_HUGE = ["5e-324", "1e-300", "1e-12", "1", "1e12", "1e300", "1.7976931348623157e+308"]
POSITIVE = st.one_of(st.sampled_from(["0", "-1", *TINY_TO_HUGE]), st.floats(1e-3, 1e3).map(repr),
                     st.floats(0.0, exclude_min=True, allow_infinity=False).map(repr))
SCALAR = st.one_of(POSITIVE, POSITIVE.map(lambda x: "-" + x),
                   st.floats(allow_nan=False, allow_infinity=False).map(repr))
COMPLEX = st.one_of(SCALAR, st.tuples(SCALAR, POSITIVE, st.sampled_from("+-")).map(
    lambda p: f"{p[0]}{p[2]}{p[1]}j"))


def ints(lo, hi):
    return st.integers(lo, hi).map(str)


def listed(items, max_size, min_size=0):
    return st.lists(items, min_size=min_size, max_size=max_size).map(",".join)


def choice(*values):
    """One of ``values``, or now and then a value that none of them is."""
    return st.sampled_from([*values * 4, "bad"])


SWEEP = st.one_of(SCALAR, st.tuples(SCALAR, SCALAR, ints(-1, 4)).map(":".join))
# hf/k_B T just above the symmetric band, accepted, and three in it, refused; in this order
# the 200 derandomized cases draw each of them
SYMMETRIC_BAND = ["1.67e-16", "1e-16", "1e-300", "5e-324"]
# each key's values; evolve's other keys are drawn together
ENGINE_VALUES = {
    "epr": {"theta1": SWEEP, "theta2": SWEEP, "parity": choice(*epr.PARITIES),
            "convention": choice(*EPR_CONVENTIONS), "mode": choice(*epr.MODES)},
    "holo": {"base-wavelength": st.one_of(st.sampled_from(["0", "-1", "1e-300", "1e-12", "1e300"]),
                                          st.floats(0.1, 100.0).map(repr)),
             "channels": listed(ints(-1, 30), 4, 1), "detectors": listed(SCALAR, 3, 1),
             "source": SCALAR, "sources": listed(SCALAR, 4), "alpha": SCALAR,
             "domain": st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)).map(
                 lambda d: "%r:%r" % tuple(sorted(d)))},
    "cavity": {"hf-over-kt": listed(POSITIVE | st.sampled_from(SYMMETRIC_BAND), 3, 1),
               "steps": ints(-1, 2000), "burn-in": ints(-1, 2000), "seed": ints(0, 2 ** 64)},
    "evolve": {"every": ints(-1, 50)},
    "hj": {"system": choice("free", "linear"), "points": ints(-1, 200), "mass": POSITIVE,
           "hbar": POSITIVE, **{key: SCALAR for key in ("momentum", "alpha", "energy", "q-min",
                                                         "q-max")}},
}
PAIRED_KEYS = {"evolve": {"coefficients", "initial", "step", "t-final"}}
# --out is left out: the cases print to stdout
COMMON_VALUES = {"format": choice("csv", "json")}


def test_engine_cases_draw_every_key():
    assert {*COMMON_VALUES, "out"} == set(cli.COMMON_OPTIONS)
    for command, options in cli.SUBCOMMAND_OPTIONS.items():
        assert {*ENGINE_VALUES[command], *PAIRED_KEYS.get(command, ())} == set(options)


@st.composite
def engine_cases(draw):
    """A subcommand with some of its keys, each spelled '--key value' or '--key=value'."""
    command = draw(st.sampled_from(list(cli.SUBCOMMAND_OPTIONS)))
    values = {**ENGINE_VALUES[command], **COMMON_VALUES}
    keys = draw(st.lists(st.sampled_from(list(values)), unique=True, max_size=5))
    if command == "cavity" and "hf-over-kt" not in keys:  # so that most runs get going
        keys = [*keys, "hf-over-kt"]
    pairs = [(key, draw(values[key], label=key)) for key in keys]
    if command == "evolve":  # an order-n equation; t-final a multiple of the step, <= 300 steps
        order, step = draw(st.integers(1, 3)), draw(POSITIVE, label="step")
        pairs += [("coefficients", draw(listed(COMPLEX, order + 1, order + 1))),
                  ("initial", draw(listed(COMPLEX, order, order))), ("step", step),
                  ("t-final", repr(float(step) * draw(st.integers(-3, 300))))]
    argv = [command]
    for key, value in pairs:
        argv += draw(st.sampled_from([["--" + key, value], [f"--{key}={value}"]]))
    return argv


def non_finite_cells(out: str) -> list[str]:
    """Cells of a CSV or JSON result that are NaN, or infinite outside ``MAY_BE_INFINITE``."""
    if out.startswith(("[", "{")):
        found = []

        def walk(value, key=None):
            if isinstance(value, dict):
                for k, v in value.items():
                    walk(v, k)
            elif isinstance(value, list):
                for v in value:
                    walk(v, key)
            elif isinstance(value, float) and not math.isfinite(value) and (
                    math.isnan(value) or key not in cli.MAY_BE_INFINITE):
                found.append(f"{key}={value}")
        walk(json.loads(out))
        return found
    header, *rows = (line.split(",") for line in out.splitlines())
    return [f"{key}={cell}" for row in rows for key, cell in zip(header, row)
            if "nan" in cell or ("inf" in cell and key not in cli.MAY_BE_INFINITE)]


class CaseTimeout(BaseException):
    """Raised by the per-case alarm; not an Exception, so no handler in the CLI catches it."""


CASE_SECONDS = 5.0


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs a POSIX interval timer")
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(engine_cases())
def test_every_accepted_argv_ends_in_exit_0_1_or_2(argv):
    """The run ends in 0, 1 or 2; a failure prints one line, a success no NaN or stray inf."""
    def alarm(signum, frame):
        raise CaseTimeout

    previous = signal.signal(signal.SIGALRM, alarm)
    out, err = io.StringIO(), io.StringIO()
    signal.setitimer(signal.ITIMER_REAL, CASE_SECONDS)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except CaseTimeout:
        raise AssertionError(f"{argv} ran past {CASE_SECONDS} s") from None
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert code in (0, 1, 2)
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and "Traceback" not in err.getvalue()
    else:
        assert err.getvalue() == ""
        assert non_finite_cells(out.getvalue()) == []


def readme_cli_commands():
    """The argv of each command in the code block under README's ``## CLI`` heading."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line) for line in block.splitlines() if line.strip()]


def test_readme_cli_block_runs_every_subcommand():
    commands = readme_cli_commands()
    assert all(argv[0] == cli.PROG for argv in commands)
    assert sorted(argv[1] for argv in commands) == sorted(cli.SUBCOMMAND_OPTIONS)


@pytest.mark.parametrize("argv", readme_cli_commands(), ids=lambda argv: argv[1])
def test_readme_cli_command_exits_0(argv, capsys):
    # the documented commands stay runnable as the options change
    assert cli.run(argv[1:]) == 0
    assert capsys.readouterr().err == ""


# --- non-finite inputs ----------------------------------------------------------------

def assert_rejected_non_finite(argv, key, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"'{key}'" in captured.err and "finite" in captured.err


def test_epr_nan_theta1_exit_2(capsys):
    assert_rejected_non_finite(["epr", "--theta1", "nan"], "theta1", capsys)


def test_cavity_nan_hf_over_kt_exit_2(capsys):
    assert_rejected_non_finite(["cavity", "--hf-over-kt", "nan"], "hf-over-kt", capsys)


def test_hj_nan_mass_exit_2(capsys):
    assert_rejected_non_finite(["hj", "--mass", "nan"], "mass", capsys)


def test_holo_inf_source_exit_2(capsys):
    assert_rejected_non_finite(["holo", "--source", "inf"], "source", capsys)


def test_evolve_inf_t_final_exit_2(capsys):
    assert_rejected_non_finite(["evolve", "--t-final", "inf"], "t-final", capsys)


@pytest.mark.parametrize("argv, key", [
    (["epr", "--theta1", "0:nan:3"], "theta1"),
    (["epr", "--theta2", "1e308:-1e308:3"], "theta2"),
    (["holo", "--domain", "0:inf"], "domain"),
    (["holo", "--detectors", "0,-inf"], "detectors"),
    (["evolve", "--coefficients", "1,nan"], "coefficients"),
    (["evolve", "--initial", "inf+1j,0"], "initial"),
])
def test_non_finite_sweeps_intervals_lists_exit_2(argv, key, capsys):
    assert_rejected_non_finite(argv, key, capsys)


def assert_engine_failure(argv, fragment, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert fragment in captured.err


@pytest.mark.parametrize("argv", [
    ["hj", "--system", "linear", "--alpha", "-1e300", "--q-min", "1", "--q-max", "2"],
    ["hj", "--momentum", "1e160"],
    ["hj", "--system", "linear", "--energy", "1e307"],
])
def test_nan_result_exit_1(argv, capsys):
    assert_engine_failure(argv, "is NaN", capsys)


def test_evolve_step_count_overflow_exit_1(capsys):
    assert_engine_failure(["evolve", "--t-final", "1e300", "--step", "1e-300"],
                          "finite step count", capsys)


def test_evolve_step_budget_exit_1(capsys):
    # 1e15 steps: refused before anything is allocated or any power of P is built
    start = time.monotonic()
    assert_engine_failure(["evolve", "--t-final", "1e15", "--step", "1"],
                          "1e+15 steps are above the limit of 1e+11", capsys)
    assert time.monotonic() - start < 1.0


def test_evolve_step_budget_message_is_short(capsys):
    # 6.3e300 steps: the count was printed as a 301-digit integer, 355 bytes in all
    assert cli.run(["evolve", "--coefficients", "1,1", "--initial", "1", "--step", "1e-300"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and len(captured.err) < 80
    assert "6.28e+300 steps are above the limit of 1e+11" in captured.err


def test_evolve_unallocatable_grid_exit_1(capsys):
    # 1e11 steps are within the budget, but printing every one needs 2.9 TiB of states,
    # which the allocator refuses before any row is computed
    assert_engine_failure(["evolve", "--t-final", "1e11", "--step", "1"],
                          "allocate", capsys)


def test_holo_alias_budget_exit_1(capsys):
    # about 1e13 alias intervals per bit: refused before any is enumerated; source and
    # detector at 0 keep the bit's own phase at 0, so the bit itself is accepted
    start = time.monotonic()
    assert_engine_failure(["holo", "--base-wavelength", "1e-12", "--domain", "0:10",
                           "--source", "0"], "alias intervals", capsys)
    assert time.monotonic() - start < 5.0


@pytest.mark.parametrize("argv", [
    ["holo", "--channels", "1,2,3", "--detectors", "0,1e14", "--format", "json"],
    ["holo", "--channels", "1,2,3", "--detectors", "0,1e15"],
    ["holo", "--alpha", "1e14"],
    ["holo", "--alpha", "1e15"],
    ["holo", "--alpha", "1e16"],
    ["holo", "--alpha", "1e17"],
])
def test_holo_phase_past_round_off_exit_1(argv, capsys):
    # round-off at these phases excluded the source or faked inconsistent bits under exit 0/1
    assert_engine_failure(argv, "channel 1 reaches a phase of", capsys)


def test_holo_fine_channel_at_the_interval_budget_is_accepted(capsys):
    # holo --channels 1000000 --detectors 1e-12 reaches 6.3e7 rad at the domain end 10; the
    # same channel, detector and far end on a short domain keeps the run small
    assert holography.MAX_BIT_PHASE > 2 * math.pi * 1e6 * (10.0 + 1e-12)
    assert cli.run(["holo", "--channels", "1000000", "--detectors", "1e-12",
                    "--domain", "9.99999:10", "--source", "9.999995", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["contains_source"] is True


def test_holo_source_ulps_from_an_edge_is_kept(capsys):
    # phase 2.5e7 rad: the 1e-9 wavelength edge tolerance alone lost this source
    assert cli.run(["holo", "--channels", "2", "--detectors", "1000000",
                    "--domain", "1000000:1000010", "--source", "1000000.2500000006",
                    "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["contains_source"] is True


@pytest.mark.parametrize("argv", [
    ["holo", "--domain", "0:1e-9", "--source", "5e-10"],
    ["holo", "--base-wavelength", "1e10"],
])
def test_holo_domain_shorter_than_tolerance_scale_keeps_its_interval(argv, capsys):
    # 1e-9 of the wavelength reaches the domain length: a wavelength-only tolerance
    # dropped every interval and exited 1 with "inconsistent bits"
    assert cli.run(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.split("\n")[1].split(",")[2] == "1"


def test_holo_overflowing_phase_exit_1(capsys):
    assert_engine_failure(["holo", "--domain=-1e308:1e308", "--detectors", "1e308"],
                          "channel 1 reaches a phase of inf rad", capsys)


def test_evolve_overflowing_norm_exit_1(capsys):
    assert_engine_failure(["evolve", "--initial", "1,1e308", "--step", "0.5",
                           "--t-final", "1"], "'norm' is not finite", capsys)


def test_hj_overflowing_bcp_ratio_exit_1(capsys):
    assert_engine_failure(["hj", "--system", "linear", "--hbar", "1e308", "--points", "5"],
                          "'bcp_ratio' is not finite", capsys)


@pytest.mark.parametrize("value", ["0", "-1"])
def test_holo_non_positive_base_wavelength_exit_2(value, capsys):
    code = cli.run(["holo", f"--base-wavelength={value}"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert "'base-wavelength' must be positive" in captured.err


@pytest.mark.parametrize("key", ["channels", "detectors"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_holo_empty_channels_or_detectors_exit_2(key, fmt, capsys):
    code = cli.run(["holo", f"--{key}=", "--format", fmt])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"'{key}' must list at least one value" in captured.err


@pytest.mark.parametrize("source", ["500", "1.5", "998.2"])
def test_holo_edge_source_is_kept(source, capsys):
    # k dz / pi lands a few ulps off an integer here; the bit must not flip
    argv = ["holo", "--channels", "1,2,3,5,8,13,21,34", "--detectors", "0,0.3,0.7",
            "--domain", "0:1000", "--source", source]
    assert cli.run(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["contains_source"] is True
    assert cli.run(argv) == 0
    assert capsys.readouterr().out.count("\n") == 9


@pytest.mark.xfail(strict=True, reason="alias_intervals clips the source's interval, which lies"
                   " below the domain, to the point [0, 0], and its length filter drops it")
def test_holo_source_on_the_domain_start_at_an_alias_edge_is_kept(capsys):
    assert cli.run(["holo", "--channels", "1", "--source", "0", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["contains_source"] is True


def test_cavity_step_budget_exit_1(capsys):
    # 1e11 steps would run for about an hour; refused before the first chunk
    start = time.monotonic()
    assert_engine_failure(["cavity", "--hf-over-kt", "1", "--steps", "100000000000"],
                          "budget", capsys)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("extra", [["--steps", "0"], ["--burn-in", "-1"],
                                   ["--steps", "5", "--burn-in", "5"]])
def test_cavity_empty_or_negative_window_exit_1(extra, capsys):
    # checked before the sweep sizes its blocks: a width of 0 steps would divide by zero
    assert_engine_failure(["cavity", "--hf-over-kt", "1,2", *extra], "need steps > burn_in >= 0",
                          capsys)


@pytest.mark.parametrize("extra, fragment", [
    (["--hf-over-kt", "1e-310"], "hf/k_B T = 1e-310 is too small"),
], ids=["hf/k_B T underflow"])
def test_cavity_inputs_outside_float_range_exit_1(extra, fragment, capsys):
    # each once ended in "float division by zero" or a NaN column
    assert_engine_failure(["cavity", *extra, "--steps", "100", "--burn-in", "10"], fragment,
                          capsys)


def test_cavity_symmetric_walk_exit_1(capsys):
    # e^-x rounds to 1 and to 1 - 2^-53: both walks move up as often as down, and once
    # printed rel_error 1 and 0.99999999999992 under exit 0
    assert_engine_failure(["cavity", "--hf-over-kt", "1e-300,1e-16", "--steps", "1000000",
                           "--burn-in", "10"], "hf/k_B T = 1e-300 is too small", capsys)


def symmetric_band_edge():
    """The largest x whose up-word bound ceil(fl(e^-x / 2) 2^53) 2^11 reaches the down bound 2^63.

    exp(-x) falls as x grows, so bisect over the bit patterns of the positive floats,
    which order them, from 5e-324 (symmetric) to 1e-15 (not).
    """
    def symmetric(bits):
        q = math.exp(-struct.unpack("<d", struct.pack("<Q", bits))[0])
        return math.ceil(math.ldexp(0.5 * q, 53)) << 11 >= 2 ** 63

    lo, hi = 1, struct.unpack("<Q", struct.pack("<d", 1e-15))[0]
    assert symmetric(lo) and not symmetric(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if symmetric(mid) else (lo, mid)
    return struct.unpack("<d", struct.pack("<Q", lo))[0]


def test_cavity_symmetric_band_edge(capsys):
    # the last ratio of the band is refused and the next float up runs
    edge = symmetric_band_edge()
    argv = ["--steps", "1000", "--burn-in", "10"]
    assert_engine_failure(["cavity", "--hf-over-kt", repr(edge), *argv], "too small", capsys)
    above = math.nextafter(edge, math.inf)
    assert cli.run(["cavity", "--hf-over-kt", repr(above), *argv]) == 0
    assert capsys.readouterr().out.split("\n")[1].startswith(f"{above:.17g},1,")


@pytest.mark.parametrize("q_min, q_max, spacing", [("1e308", "1.7e308", "1.75e+307"),
                                                   ("0", "1e-200", "2.5e-201"),
                                                   ("0", "1e-310", "2.5e-311")],
                         ids=["overflow", "underflow", "subnormal"])
def test_hj_spacing_whose_square_leaves_the_float_range_exit_1(q_min, q_max, spacing, capsys):
    # h ** 2 once raised OverflowError, printed as "(34, 'Numerical result out of range')",
    # a square that underflowed to 0 made the column 'rhs_re' NaN, and a subnormal spacing
    # was refused as non-uniform, its tolerance 4 eps max|q| having underflowed to 0
    assert_engine_failure(["hj", "--points", "5", "--q-min", q_min, "--q-max", q_max],
                          f"grid spacing {spacing} squared leaves the float range", capsys)


@pytest.mark.parametrize("argv, most", [
    # the first two once exited 0, printing at 10^6 points a median error of 12% in
    # bcp_ratio, and with --alpha 1e-4 90 of 199 rows as 0
    (["hj", "--system", "linear", "--points", "1000001"], 31722),
    (["hj", "--system", "linear", "--alpha", "1e-4"], 7),
    (["hj", "--system", "linear", "--alpha", "0.003"], 195),
])
def test_hj_unresolved_curvature_exit_1(argv, most, capsys):
    assert_engine_failure(argv, f"the span resolves at most {most} points", capsys)
    # the count the message names is a grid the engine accepts
    assert cli.run([*argv, "--points", str(most)]) == 0


@pytest.mark.parametrize("alpha", ["1e-5", "1e-6", "1e-8", "1e-12"])
def test_hj_curvature_all_round_off_exit_1(alpha, capsys):
    # each once printed 199 rows of rhs_im and bcp_ratio 0 under exit 0, yet W'' = -m alpha / p
    assert_engine_failure(["hj", "--system", "linear", "--alpha", alpha],
                          "d2W is within its round-off on all 201 points", capsys)


def test_hj_span_that_overflows_exit_1(capsys):
    # the span once overflowed to inf inside linspace: "grid must be strictly increasing"
    assert_engine_failure(["hj", "--points", "5", "--q-min", "-1e308", "--q-max", "1e308"],
                          "grid span q-max - q-min = inf leaves the float range", capsys)


def test_evolve_coefficient_ratio_that_overflows_exit_1(capsys):
    # a_0 / a_2 once put inf in the companion matrix: "Array must not contain infs or NaNs"
    assert_engine_failure(["evolve", "--coefficients", "1e308,0,1e-308"],
                          "coefficients a_0 / a_2 = (1e+308+0j) / (1e-308+0j) leaves the float"
                          " range", capsys)


@pytest.mark.parametrize("argv, fragment", [
    (["epr", "--theta1", "0:1:2000", "--theta2", "0:1:1000"], "angle grid is above the limit"),
    (["evolve", "--step", "10"], "stability"),
    (["hj", "--momentum", "0"], "momentum vanishes"),
    (["holo", "--channels", "1,1", "--detectors", "0", "--sources", "2.3,2.55"],
     "inconsistent bits"),
])
def test_engine_value_errors_exit_1(argv, fragment, capsys):
    # engine failures are plain ValueErrors, so ENGINE_ERRORS needs no engine class
    assert_engine_failure(argv, fragment, capsys)


@pytest.mark.parametrize("module, name, argv, error", [
    (statespace, "evolve_linear", ["evolve"], OverflowError),
    (cavity, "spectrum_sweep", ["cavity", "--hf-over-kt", "1"], MemoryError),
], ids=["OverflowError", "MemoryError"])
def test_engine_arithmetic_and_memory_errors_exit_1(module, name, argv, error, monkeypatch,
                                                    capsys):
    # no argv the fuzz gate draws raises these any more, so they are raised from the engine
    def fail(*args, **kwargs):
        raise error(f"{name} raised {error.__name__}")
    monkeypatch.setattr(module, name, fail)
    assert_engine_failure(argv, f"{name} raised {error.__name__}", capsys)


def test_cavity_block_error_exits_1_with_one_line(monkeypatch, capsys):
    # raised in a sweep's kernel, on its second block: run prints one line
    run_chains, blocks = cavity._run_chains, []

    def fail_on_the_second_block(*args):
        blocks.append(args)
        if len(blocks) == 2:
            raise MemoryError("a block ran out of memory")
        return run_chains(*args)
    monkeypatch.setattr(cavity, "_run_chains", fail_on_the_second_block)
    monkeypatch.setattr(cavity, "CHUNK", 64)
    assert_engine_failure(["cavity", "--hf-over-kt", "0.5,1,1.5,2,3", "--steps", "200",
                           "--burn-in", "150"], "error: a block ran out of memory", capsys)
    assert len(blocks) == 2


NAN = float("nan")
GRID = np.linspace(0.0, 1.0, 5)
UNIT_H = statespace.HamiltonianOperator(np.eye(2))


@pytest.mark.parametrize("build, message", [
    (lambda: cavity.planck_energy(NAN), "positive"),
    (lambda: cavity.equilibrate(NAN, 100, 10, derive_rng(0, "cavity", 0)), "positive"),
    (lambda: cavity.spectrum_sweep([1.0, NAN], 100, 10, 0), "positive"),
    (lambda: holography.FrequencyChannel(1, NAN), "positive"),
    (lambda: hj.MechanicalSystem(NAN, np.zeros(5)), "positive"),
    (lambda: hj.MechanicalSystem(1.0, np.zeros(5), NAN), "positive"),
    (lambda: hj.free_particle_S(1.0, NAN, GRID), "positive"),
    (lambda: hj.linear_potential_S(0.5, 10.0, NAN, GRID), "positive"),
    (lambda: statespace.schrodinger_propagate(UNIT_H, np.ones(2), NAN, 1), "positive"),
    (lambda: phasor.cesaro_inner_product(
        *[phasor.plane_wave(1.0, GRID, phasor.PolarizationPhasor(1.0, 0.0))] * 2, NAN),
     "positive"),
    (lambda: hj.PrincipalFunctionGrid(np.array([0.0, NAN, 1.0]), np.zeros(3), 1.0),
     "strictly increasing"),
    (lambda: hj.linear_potential_S(NAN, 10.0, 1.0, GRID), "stay positive"),
    (lambda: hj.linear_potential_S(0.5, NAN, 1.0, GRID), "stay positive"),
    (lambda: hj.free_particle_S(NAN, 1.0, GRID), "momentum must be finite"),
    (lambda: phasor.SampledField(np.array([0.0, NAN, 1.0]), np.zeros((3, 2))),
     "strictly ascending"),
    (lambda: statespace.evolve_linear(statespace.EvolutionSpec((1, 0, 1)), [NAN, 0.0], 1.0,
                                      0.1), "initial data must be finite"),
], ids=["planck-ratio", "equilibrate-ratio", "sweep-ratio", "channel-wavenumber",
        "system-mass", "system-hbar", "free-mass", "linear-mass", "propagate-dt", "cesaro-window",
        "grid-q", "linear-alpha", "linear-energy", "free-momentum", "field-z", "evolve-initial"])
def test_engine_positivity_checks_refuse_nan(build, message):
    # the CLI refuses NaN before any engine runs; each engine refuses it on its own too
    with pytest.raises(ValueError, match=message):
        build()


def assert_config_error(argv, fragment, capsys):
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert fragment in captured.err


def test_oversized_sweep_exit_2(capsys):
    # refused before the sweep is built; were it not, 1e15 angles would fail at once to
    # allocate 7 PiB, so this test never allocates much whatever the code does
    start = time.monotonic()
    assert_config_error(["epr", "--theta1", "0:1:1000000000000000"],
                        "sweep count 1000000000000000 is above the limit of 1e+06", capsys)
    assert time.monotonic() - start < 5.0


def test_overflowing_sweep_span_names_itself(capsys):
    assert_config_error(["epr", "--theta1", "-1e308:1e308:3"], "bad value for key 'theta1':"
                        " sweep span stop - start = inf is not finite\n", capsys)


@pytest.mark.parametrize("value", ["1:2", "0:1:2:3", ":"])
def test_malformed_sweep_names_start_stop_count(value, capsys):
    assert_config_error(["epr", "--theta1", value], "bad value for key 'theta1': expected"
                        f" start:stop:count, got {value}\n", capsys)


@pytest.mark.parametrize("value", ["1:2:3", "5", "::"])
def test_malformed_interval_names_lo_hi(value, capsys):
    assert_config_error(["holo", "--domain", value], "bad value for key 'domain': expected"
                        f" lo:hi, got {value}\n", capsys)


def test_epr_sweep_count_limit_is_sharp(monkeypatch, capsys):
    monkeypatch.setattr(cli, "MAX_EPR_POINTS", 12)
    assert cli.run(["epr", "--theta2", "0:1:12"]) == 0
    assert capsys.readouterr().out.count("\n") == 13
    assert_config_error(["epr", "--theta2", "0:1:13"], "'theta2'", capsys)


def test_epr_grid_point_limit_exit_1(monkeypatch, capsys):
    # each sweep fits, their product does not: refused before the grid is built
    monkeypatch.setattr(cli, "MAX_EPR_POINTS", 12)
    assert cli.run(["epr", "--theta1", "0:1:4", "--theta2", "0:1:3"]) == 0
    assert capsys.readouterr().out.count("\n") == 13
    assert_engine_failure(["epr", "--theta1", "0:1:4", "--theta2", "0:1:4"],
                          "a 4 x 4 angle grid is above the limit of 1e+01 points", capsys)


def test_cavity_single_kept_sample_prints_inf_stderr(capsys):
    # an infinite cell is a meaningful result and still prints under exit 0
    assert cli.run(["cavity", "--hf-over-kt", "1", "--steps", "11", "--burn-in", "10"]) == 0
    row = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert row[3] == "inf"


def test_cavity_underflowed_closed_form_prints_json_infinity(capsys):
    # exp(-800) underflows the closed form to 0, so the relative error is infinite
    argv = ["cavity", "--hf-over-kt", "800", "--steps", "1000", "--burn-in", "10",
            "--format", "json"]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    assert '  "rel_error": Infinity,\n' in out
    assert json.loads(out)[0]["rel_error"] == math.inf


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cavity_closed_form_past_hf_over_kt_700_is_not_cut_to_0(fmt, capsys):
    # 705 e^-705 is a normal float; a fixed cut at hf/k_B T = 700 printed 0 and an inf error
    argv = ["cavity", "--hf-over-kt", "705", "--steps", "1000", "--burn-in", "100",
            "--format", fmt]
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    if fmt == "csv":
        header, line = out.splitlines()
        row = dict(zip(header.split(","), line.split(",")))
        assert (row["closed_form"], row["rel_error"]) == ("4.6835954475885559e-304", "1")
    else:
        row, = json.loads(out)
        assert (row["closed_form"], row["rel_error"]) == (4.6835954475885559e-304, 1.0)


# --- fresh interpreters ---------------------------------------------------------------

def fresh_env(drop=cli.BLAS_THREAD_VARS, **env_vars) -> dict[str, str]:
    """This environment without the ``drop`` variables, importing this checkout."""
    env = {k: v for k, v in os.environ.items() if k not in drop}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    env.update(env_vars)
    return env


def fresh_python(*args, **env_vars) -> str:
    """Stdout of a new interpreter on this checkout, started without BLAS thread variables."""
    return subprocess.run([sys.executable, *args], check=True, env=fresh_env(**env_vars),
                          capture_output=True, text=True).stdout


# --- the process entry point ---------------------------------------------------------

def test_main_runs_without_collection_and_exits_frozen():
    # read as the interpreter exits, after main's sys.exit
    code = ("import atexit, gc, os, sys; from phasorlab import cli; "
            "atexit.register(lambda: print(gc.isenabled(), gc.get_freeze_count() > 0)); "
            "sys.argv = ['phasorlab', 'hj', '--points', '21', '--out', os.devnull]; cli.main()")
    assert fresh_python("-c", code).split() == ["False", "True"]


@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_run_leaves_the_collector_as_it_found_it(enabled, capsys):
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.run(["hj", "--points", "21"]) == 0
        assert (gc.isenabled(), gc.get_freeze_count()) == (enabled, frozen)
    finally:
        (gc.enable if was_enabled else gc.disable)()


def assert_cannot_write(**popen_kwargs):
    """``python -m phasorlab.cli hj`` with a buffered stdout exits 1 with one stderr line."""
    # under PYTHONUNBUFFERED the text is written through at once, so it would fail
    # inside run even without the flush, and nothing would be left for exit to write
    env = fresh_env(drop=("PYTHONUNBUFFERED", *cli.BLAS_THREAD_VARS))
    result = subprocess.run([sys.executable, "-m", "phasorlab.cli", "hj", "--points", "21"],
                            env=env, stderr=subprocess.PIPE, text=True, **popen_kwargs)
    assert (result.returncode, result.stderr.count("\n")) == (1, 1), result.stderr
    assert result.stderr.startswith(f"{cli.PROG}: cannot write output: ")
    return result.stderr


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_stdout_exit_1_with_one_line():
    with open("/dev/full", "w") as full:
        assert "No space left on device" in assert_cannot_write(stdout=full)


@pytest.mark.skipif(os.name != "posix", reason="closes the child's fd 1 before exec")
def test_closed_stdout_exit_1_with_one_line():
    assert "Bad file descriptor" in assert_cannot_write(preexec_fn=lambda: os.close(1))


# --- import hygiene -------------------------------------------------------------------

def test_cli_import_does_not_load_scipy_stats():
    # nor does any engine: no phasorlab module imports scipy
    fresh_python("-c", "import importlib, phasorlab, phasorlab.cli, sys; "
                       "[importlib.import_module(f'phasorlab.{m}') for m in phasorlab.__all__]; "
                       "assert 'scipy' not in sys.modules")


def test_cli_import_loads_no_engine():
    # nor numpy, json or argparse: numpy loads when a run computes
    code = ("import phasorlab.cli, sys; print(*sorted(m for m in sys.modules"
            " if 'phasorlab' in m or m in ('numpy', 'json', 'argparse')))")
    assert fresh_python("-c", code).split() == ["phasorlab", "phasorlab.cli"]


# every phasorlab module a subcommand loads besides cli; holo and hj define their own 2π
LOADS = {"epr": {"epr", "phasor"}, "holo": {"holography"}, "cavity": {"cavity", "seeding"},
         "evolve": {"statespace"}, "hj": {"hj"}}
# the first golden argv of each subcommand, with its pinned stdout hash
GOLDEN_PER_COMMAND = [next(g for g in GOLDEN if g[0][0] == command) for command in LOADS]


@pytest.mark.parametrize("argv, digest", GOLDEN_PER_COMMAND,
                         ids=[argv[0] for argv, _ in GOLDEN_PER_COMMAND])
def test_subcommand_loads_only_its_own_engine(argv, digest):
    code = ("import os, sys; from phasorlab import cli; "
            f"code = cli.run({argv!r} + ['--out', os.devnull]); "
            "print(code, *sorted(m for m in sys.modules if m.startswith('phasorlab.')))")
    code, *loaded = fresh_python("-c", code).split()
    assert code == "0"
    loaded = {m.removeprefix("phasorlab.") for m in loaded}
    assert loaded == {"cli", *LOADS[argv[0]]}


@pytest.mark.parametrize("argv", [
    ["epr", "--theta1", "abc"],
    ["epr", "--theta1", "1:abc:3"],
    ["epr", "--theta1", "1:2"],
    ["epr", "--parity", "bad"],
    ["epr", "--convention", "bad"],
    ["epr", "--mode", "bad"],
], ids=["abc", "1:abc:3", "1:2", "parity", "convention", "mode"])
def test_bad_value_exits_2_without_loading_numpy(argv):
    code = ("import sys; from phasorlab import cli; "
            f"print(cli.run({argv!r}), 'numpy' in sys.modules)")
    assert fresh_python("-c", code).split() == ["2", "False"]


@pytest.mark.parametrize("key, choices", [("parity", epr.PARITIES),
                                          ("convention", EPR_CONVENTIONS),
                                          ("mode", epr.MODES)])
def test_epr_choice_keys_accept_exactly_the_engine_choices(key, choices):
    # the CLI resolves the convention itself (difference: theta2 -> -theta2), so its
    # choices are its own, not an engine's
    convert = cli.SUBCOMMAND_OPTIONS["epr"][key][0]
    assert [convert(value) for value in choices] == list(choices)
    with pytest.raises(ValueError) as refused:
        convert("bad")
    assert str(refused.value) == "must be one of " + ", ".join(choices)


@pytest.mark.parametrize("argv, digest", GOLDEN_PER_COMMAND,
                         ids=[argv[0] for argv, _ in GOLDEN_PER_COMMAND])
def test_golden_stdout_from_a_fresh_process(argv, digest):
    out = fresh_python("-m", "phasorlab.cli", *argv)
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


# the features the child disables read as off; then the name of the kernel numpy's bundled
# OpenBLAS chose, or an empty line where it reports none, and each argv's stdout hash, one a line
SETTING_CHILD = """
import contextlib, ctypes, glob, hashlib, io, json, os, sys
import numpy
from numpy._core._multiarray_umath import __cpu_features__
from phasorlab import cli
disabled = os.environ.get("NPY_DISABLE_CPU_FEATURES", "").split()
assert not any(__cpu_features__[feature] for feature in disabled), disabled
libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs",
                              "*openblas*"))
corename = getattr(ctypes.CDLL(libs[0]), "scipy_openblas_get_corename64_", None) if libs else None
if corename:
    corename.restype = ctypes.c_char_p
print(corename().decode() if corename else "")
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        assert cli.run(argv) == 0, argv
    print(hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest())
"""
REDUCED_SETTINGS = (
    [pytest.param({"NPY_DISABLE_CPU_FEATURES": " ".join(cut)}, id="+".join(cut))
     for cut in (__cpu_dispatch__[i:] for i in range(len(__cpu_dispatch__)))]
    + [pytest.param({"OPENBLAS_CORETYPE": core}, id=f"OPENBLAS_CORETYPE={core}")
       for core in ("Haswell", "Prescott")])


@pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                    reason="the reduced settings are x86-64 dispatch levels and BLAS kernels;"
                           " other hosts are out of the byte-identity claim")
@pytest.mark.parametrize("setting", REDUCED_SETTINGS)
def test_goldens_hold_under_reduced_dispatch(setting):
    """Every golden prints its hash with numpy's SIMD or OpenBLAS's kernel set below the host's.

    numpy's settings come from its own dispatch list, each level disabled with every
    level above it, so no hard-coded feature name can silently test nothing on another
    numpy build.  The OpenBLAS settings name older x86-64 kernels; each must change the
    kernel name the bundled OpenBLAS reports, or the case is skipped.  The variables
    must be set before numpy loads, so each setting runs in a new interpreter.
    """
    core, *digests = fresh_python("-c", SETTING_CHILD, json.dumps([argv for argv, _ in GOLDEN]),
                                  **setting).splitlines()
    if "OPENBLAS_CORETYPE" in setting:
        if not core:
            pytest.skip("numpy's OpenBLAS reports no kernel name, so the setting cannot be"
                        " shown to act")
        default = fresh_python("-c", SETTING_CHILD, "[]",
                               drop=(*cli.BLAS_THREAD_VARS, "OPENBLAS_CORETYPE")).strip()
        if core == default:
            pytest.skip(f"the setting leaves OpenBLAS on this host's own kernel, {core}")
    assert digests == [digest for _, digest in GOLDEN]


THREADS = ("import os, {module}; "
           "status = open('/proc/self/status').read().split('Threads:')[1].split()[0]; "
           "print(os.environ['OPENBLAS_NUM_THREADS'], status)")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_import_starts_one_blas_thread():
    # numpy loaded after the CLI module: the cap must still be set when it starts
    assert fresh_python("-c", THREADS.format(module="phasorlab.cli, numpy")).split() == ["1", "1"]


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_cli_import_keeps_the_callers_blas_thread_count():
    # as many threads as numpy alone starts under the same setting
    alone = fresh_python("-c", THREADS.format(module="numpy"), OPENBLAS_NUM_THREADS="2")
    via_cli = fresh_python("-c", THREADS.format(module="phasorlab.cli, numpy"),
                           OPENBLAS_NUM_THREADS="2")
    assert via_cli.split() == alone.split()
    assert via_cli.split()[0] == "2"


def test_engines_load_on_attribute_access():
    code = ("import sys, phasorlab; before = 'phasorlab.cavity' in sys.modules; "
            "print(before, 'numpy' in sys.modules, phasorlab.cavity.CHUNK == 2 ** 16, "
            "hasattr(phasorlab, 'no_such_engine'))")
    assert fresh_python("-c", code).split() == ["False", "False", "True", "False"]


# --- emission helpers ---------------------------------------------------------------

def test_empty_table_renders_header_only():
    text = cli.render_table(["a", "b"], [], "csv")
    assert text == "a,b\n"


def test_real_formatting_round_trips():
    values = [1.0, math.pi, 1e-17, -0.0, 2.0 / 3.0]
    cells = cli.render_table(["x"], [np.array(values)], "csv").splitlines()[1:]
    assert len(cells) == len(values)
    for cell, x in zip(cells, values):
        assert float(cell) == x


def reference_cell(key, v):
    """The per-cell renderer that the columnar one replaced, kept as its oracle."""
    if isinstance(v, (bool, int, np.integer)):
        return int(v)
    x = float(v)
    if x != x:
        raise ValueError(f"result column '{key}' is NaN")
    return x


def reference_format_cell(key, v):
    v = reference_cell(key, v)
    return str(v) if isinstance(v, int) else "%.17g" % v


def reference_render_table(header, rows, fmt):
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(reference_format_cell(k, v) for k, v in zip(header, row))
                  for row in rows]
        return "\n".join(lines) + "\n"
    payload = [{k: reference_cell(k, v) for k, v in zip(header, row)} for row in rows]
    return json.dumps(payload, indent=1) + "\n"


FLOAT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
               1e308, -1e308, 1.7976931348623157e308, math.inf, -math.inf]


@st.composite
def result_tables(draw):
    """Header plus 1-D columns of float, int64, bool and uint64 kind, 0-6 rows."""
    n_rows = draw(st.integers(0, 6))
    header = draw(st.lists(st.sampled_from(["a", "b", "c", "mc_stderr", "rel_error"]),
                           max_size=5, unique=True))
    cells = {
        "f": st.one_of(st.sampled_from(FLOAT_EDGES), st.floats(allow_nan=False)),
        "i": st.integers(-2 ** 63, 2 ** 63 - 1),
        "b": st.booleans(),
        "u": st.integers(0, 2 ** 64 - 1),
    }
    dtypes = {"f": np.float64, "i": np.int64, "b": np.bool_, "u": np.uint64}
    columns = []
    for _ in header:
        kind = draw(st.sampled_from("fibu"))
        values = draw(st.lists(cells[kind], min_size=n_rows, max_size=n_rows))
        columns.append(np.array(values, dtype=dtypes[kind]))
    return header, columns


@settings(deadline=None, max_examples=300, derandomize=True)
@given(result_tables(), st.sampled_from(["csv", "json"]))
def test_columnar_render_matches_per_cell_reference(table, fmt):
    header, columns = table
    refused = [k for k, c in zip(header, columns)
               if c.dtype.kind == "f" and np.isinf(c).any() and k not in cli.MAY_BE_INFINITE]
    if refused:
        with pytest.raises(ValueError, match=f"'{refused[0]}' is not finite"):
            cli.render_table(header, columns, fmt)
        return
    rows = [list(row) for row in zip(*(c.tolist() for c in columns))]
    assert cli.render_table(header, columns, fmt) == reference_render_table(header, rows, fmt)


CHUNK_EDGE_ROWS = [0, 1, cli.JSON_CHUNK_ROWS - 1, cli.JSON_CHUNK_ROWS,
                   cli.JSON_CHUNK_ROWS + 1, 2 * cli.JSON_CHUNK_ROWS + 3]


@st.composite
def repeating_tables(draw):
    """Like ``result_tables``, but each column draws its rows from a pool of 1-6 values.

    Float pools always hold 0.0 and -0.0, and may hold ±inf in ``MAY_BE_INFINITE``
    columns only.  Rows go up to two JSON chunks and three rows.
    """
    n_rows = draw(st.sampled_from(CHUNK_EDGE_ROWS) | st.integers(0, CHUNK_EDGE_ROWS[-1]))
    header = draw(st.lists(st.sampled_from(["a", "b", "mc_stderr", "rel_error"]),
                           min_size=1, max_size=4, unique=True))
    finite = st.sampled_from(FLOAT_EDGES[:-2]) | st.floats(allow_nan=False,
                                                           allow_infinity=False)
    cells = {"i": st.integers(-2 ** 63, 2 ** 63 - 1), "b": st.booleans(),
             "u": st.integers(0, 2 ** 64 - 1)}
    dtypes = {"f": np.float64, "i": np.int64, "b": np.bool_, "u": np.uint64}
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32)))
    columns = []
    for key in header:
        kind = draw(st.sampled_from("fibu"))
        if kind == "f":
            pool = [0.0, -0.0] + draw(st.lists(finite, max_size=3))
            if key in cli.MAY_BE_INFINITE:
                pool += draw(st.lists(st.sampled_from([math.inf, -math.inf]), max_size=2))
        else:
            pool = draw(st.lists(cells[kind], min_size=1, max_size=6))
        columns.append(np.array(pool, dtype=dtypes[kind])[rng.integers(0, len(pool), n_rows)])
    return header, columns


@settings(deadline=None, max_examples=40, derandomize=True)
@given(repeating_tables(), st.sampled_from(["csv", "json"]))
def test_repeating_columns_render_like_the_per_cell_reference(table, fmt):
    # each distinct value is spelled once and gathered back: the rows must not notice
    header, columns = table
    rows = [list(row) for row in zip(*(c.tolist() for c in columns))]
    text = cli.render_table(header, columns, fmt)
    assert text.split("\n") == reference_render_table(header, rows, fmt).split("\n")


def test_signed_zeros_keep_their_spellings():
    # 0.0 and -0.0 compare equal but differ in their bits, which key the distinct values
    column = np.array([0.0, -0.0, -0.0, 0.0])
    assert cli.render_table(["x"], [column], "csv") == "x\n0\n-0\n-0\n0\n"
    text = cli.render_table(["x"], [column], "json")
    assert text == json.dumps([{"x": x} for x in column.tolist()], indent=1) + "\n"
    assert [line.strip() for line in text.split("\n") if '"x"' in line] == [
        '"x": 0.0', '"x": -0.0', '"x": -0.0', '"x": 0.0']


@pytest.mark.parametrize("n_rows", [0, 1, cli.JSON_CHUNK_ROWS - 1, cli.JSON_CHUNK_ROWS,
                                    cli.JSON_CHUNK_ROWS + 1, 2 * cli.JSON_CHUNK_ROWS + 3])
def test_chunked_json_rows_match_json_dumps(n_rows):
    # the intervals' path: rows converted and joined one chunk at a time
    intervals = derive_rng(3, "test", n_rows).random((n_rows, 2))
    text = cli._json_list(cli._json_template(["%r", "%r"], 1), cli._row_chunks(intervals), 0)
    assert text.split("\n") == json.dumps(intervals.tolist(), indent=1).split("\n")


def test_all_subcommands_double_run_identical(tmp_path):
    cases = [
        ["epr", "--theta1", "0:90:3", "--theta2", "22.5"],
        ["holo", "--channels", "1,2", "--source", "3.3"],
        ["cavity", "--hf-over-kt", "0.5,2", "--steps", "50000",
         "--burn-in", "1000", "--seed", "9"],
        ["evolve", "--coefficients", "1,1", "--initial", "1",
         "--t-final", "1", "--step", "0.01"],
        ["hj", "--system", "linear", "--points", "51"],
    ]
    for fmt in ("csv", "json"):
        for i, argv in enumerate(cases):
            _, o1 = run_to_file(tmp_path, f"{fmt}{i}a", argv + ["--format", fmt])
            _, o2 = run_to_file(tmp_path, f"{fmt}{i}b", argv + ["--format", fmt])
            assert o1.read_bytes() == o2.read_bytes()
