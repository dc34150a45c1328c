import hashlib
import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from phasorlab import cli, epr, hj, holography, statespace
from phasorlab.seeding import derive_rng, philox_key


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


def test_cavity_requires_exactly_one_frequency_spec(tmp_path):
    code = cli.run(["cavity"])
    assert code == 2
    code = cli.run(["cavity", "--hf-over-kt", "1", "--frequencies", "2"])
    assert code == 2


@pytest.mark.parametrize("key", ["hf-over-kt", "frequencies"])
@pytest.mark.parametrize("via_config", [False, True], ids=["flag", "config"])
def test_cavity_empty_frequency_list_exit_2(key, via_config, tmp_path, capsys):
    argv = ["cavity", f"--{key}="]
    if via_config:
        config = tmp_path / "empty.cfg"
        config.write_text(f"{key} =\n", encoding="utf-8")
        argv = ["cavity", "--config", str(config)]
    code = cli.run(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert f"'{key}' must list at least one value" in captured.err


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


def holo_opts(*argv):
    return cli.resolve_options("holo", cli.build_parser().parse_args(["holo", *argv]))


def per_prefix_columns(opts):
    """Reference: localize every channel prefix from scratch."""
    channels, bits = cli._holo_setup(opts)
    per_channel = len(opts["detectors"])
    length = opts["domain"][1] - opts["domain"][0]
    rows = []
    for k in range(1, len(channels) + 1):
        result = holography.localize(bits[:k * per_channel], channels[:k],
                                     opts["alpha"], opts["domain"])
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
    channels, bits = cli._holo_setup(opts)
    kept = []
    with pytest.raises(holography.InconsistentBitsError):
        for alias_set in holography.localize_prefixes(bits, channels, 0.0,
                                                      opts["domain"], 1):
            kept.append(alias_set)
    assert len(kept) == 2
    for k, alias_set in enumerate(kept, start=1):
        reference = holography.localize(bits[:k], channels[:k], 0.0, opts["domain"])
        assert np.array_equal(alias_set.intervals, reference.intervals)
        assert alias_set.measure == reference.measure
        assert alias_set.granularity == reference.granularity
    with pytest.raises(holography.InconsistentBitsError):
        holography.localize(bits[:3], channels[:3], 0.0, opts["domain"])
    with pytest.raises(holography.InconsistentBitsError):
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
    (["hj", "--time", "1e7"], 199),
    (["hj", "--points", "10001"], 9999),
    (["hj", "--q-min", "1000", "--q-max", "1001"], 199),
    (["hj", "--momentum", "1e150", "--time", "1"], 199),
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


@pytest.mark.parametrize("extra", [[], ["--system", "linear"]])
def test_hj_time_leaves_residual_and_ratio_unchanged(extra, capsys):
    # S = W - E t shifts by a constant in q: no output column depends on t
    assert cli.run(["hj", *extra]) == 0
    at_zero = capsys.readouterr().out
    assert cli.run(["hj", *extra, "--time", "1e7"]) == 0
    assert capsys.readouterr().out == at_zero


@pytest.mark.parametrize("momentum", ["1e-12", "1e-100", "1e-200"])
def test_hj_tiny_momentum_prints_zero_ratio(momentum, capsys):
    # a free particle's ratio is exactly 0; round-off over a tiny p^2 is not physics
    assert cli.run(["hj", "--momentum", momentum]) == 0
    header, *rows = capsys.readouterr().out.strip().split("\n")
    assert len(rows) == 199
    assert all(row.split(",")[4:] == ["0", "1"] for row in rows)


def test_hj_zero_momentum_is_a_turning_point(capsys):
    assert_engine_failure(["hj", "--momentum", "0"], "momentum vanishes", capsys)


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
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("thetaX = 12\n")
    code = cli.run(["epr", "--config", str(cfg)])
    assert code == 2
    assert "thetaX" in capsys.readouterr().err


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
    parsed = cli.parse_config_text(text)
    assert cli.parse_config_text(cli.serialize_config(parsed)) == parsed


def test_missing_subcommand_exit_2(capsys):
    assert cli.run([]) == 2


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
    with pytest.raises(SystemExit):
        cli.build_parser().parse_args(["cavity", "--help"])
    text = capsys.readouterr().out
    for key in cli.SUBCOMMAND_OPTIONS["cavity"]:
        assert f"--{key}" in text
    for key in cli.COMMON_OPTIONS:
        assert f"--{key}" in text


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
    ["epr", "--field-scale", "1e200"],
    ["hj", "--momentum", "1e160"],
    ["hj", "--system", "linear", "--energy", "1e307"],
])
def test_nan_result_exit_1(argv, capsys):
    assert_engine_failure(argv, "is NaN", capsys)


def test_evolve_step_count_overflow_exit_1(capsys):
    assert_engine_failure(["evolve", "--t-final", "1e300", "--step", "1e-300"],
                          "finite step count", capsys)


def test_evolve_unallocatable_grid_exit_1(capsys):
    # 1e15 steps need a 7 PiB time grid, beyond the address space: fails at once
    assert_engine_failure(["evolve", "--t-final", "1e15", "--step", "1"],
                          "allocate", capsys)


def test_holo_alias_budget_exit_1(capsys):
    # about 1e13 alias intervals per bit: refused before any is enumerated
    start = time.monotonic()
    assert_engine_failure(["holo", "--base-wavelength", "1e-12", "--domain", "0:10"],
                          "alias intervals", capsys)
    assert time.monotonic() - start < 5.0


def test_holo_overflowing_phase_exit_1(capsys):
    assert_engine_failure(["holo", "--domain=-1e308:1e308", "--detectors", "1e308"],
                          "infinity", capsys)


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


def test_cavity_step_budget_exit_1(capsys):
    # 1e11 steps would run for about an hour; refused before the first chunk
    start = time.monotonic()
    assert_engine_failure(["cavity", "--hf-over-kt", "1", "--steps", "100000000000"],
                          "budget", capsys)
    assert time.monotonic() - start < 1.0


@pytest.mark.parametrize("argv, fragment, error", [
    (["epr", "--field-scale", "1e-200"], "zero total outcome weight",
     epr.DegenerateStateError),
    (["evolve", "--step", "10"], "stability", statespace.StabilityError),
    (["hj", "--momentum", "0"], "momentum vanishes", hj.TurningPointError),
    (["holo", "--channels", "1,1", "--detectors", "0", "--sources", "2.3,2.55"],
     "inconsistent bits", holography.InconsistentBitsError),
])
def test_engine_value_errors_exit_1(argv, fragment, error, capsys):
    # engine failures are ValueErrors, so ENGINE_ERRORS needs no engine class
    assert issubclass(error, ValueError)
    assert_engine_failure(argv, fragment, capsys)


def test_unallocatable_sweep_exit_1(capsys):
    # 1e15 angles need a 7 PiB array, beyond the address space: fails at once
    assert_engine_failure(["epr", "--theta1", "0:1:1000000000000000"], "allocate", capsys)


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


# --- import hygiene -------------------------------------------------------------------

def test_cli_import_does_not_load_scipy_stats():
    code = "import phasorlab.cli, sys; assert 'scipy.stats' not in sys.modules"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


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
