"""Batch front-end: seeded runs of each engine with bit-exact emission.

Subcommands ``epr``, ``holo``, ``cavity``, ``evolve`` and ``hj`` share the
flags ``--config``, ``--seed``, ``--out`` and ``--format``.  A config file
is flat UTF-8 text, one ``key = value`` per line with ``#`` comments; keys
are the long flag names and flags override the file.  Identical
(config, seed) pairs produce byte-identical output: reals are printed
with 17 significant digits, CSV uses '.' decimals and '\\n' newlines, and
every RNG stream is derived from the master seed (see ``seeding``).

Exit codes: 0 success, 1 engine or I/O failure, 2 usage/config errors.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import cavity, epr, hj, holography, statespace

PROG = "phasorlab"


class ConfigError(ValueError):
    """Bad or unknown configuration key/value; maps to exit code 2."""


# ---------------------------------------------------------------------------
# option schemas: key -> (converter name, default string, help)

def _float(s: str, parse=float):
    """Parse one number (``parse=complex`` for complex); nan and inf are rejected."""
    x = parse(s)
    if not cmath.isfinite(x):
        raise ValueError(f"must be finite, got {s}")
    return x


def _list(convert):
    """Comma-separated values, each parsed by ``convert``; blank items are skipped."""
    return lambda s: [convert(x) for x in s.split(",") if x.strip() != ""]


_floats, _ints = _list(_float), _list(int)
_complexes = _list(lambda x: _float(x.replace(" ", ""), complex))


def _sweep(s: str) -> list[float]:
    """Either a single number or an inclusive 'start:stop:count' sweep."""
    if ":" in s:
        start, stop, count = s.split(":")
        n = int(count)
        if n < 1:
            raise ValueError("sweep count must be >= 1")
        with np.errstate(all="ignore"):  # an overflowing span is rejected below
            return [_float(x) for x in np.linspace(_float(start), _float(stop), n)]
    return [_float(s)]


def _interval(s: str) -> tuple[float, float]:
    lo, hi = s.split(":")
    return _float(lo), _float(hi)


def _choice(*options: str):
    def convert(s: str) -> str:
        if s not in options:
            raise ValueError(f"must be one of {', '.join(options)}")
        return s
    return convert


def _u64(s: str) -> int:
    value = int(s)
    if not (0 <= value < 2 ** 64):
        raise ValueError("must fit in an unsigned 64-bit integer")
    return value


COMMON_OPTIONS = {
    "seed": (_u64, "0", "master seed (unsigned 64-bit)"),
    "out": (str, None, "output path (default: stdout)"),
    "format": (_choice("csv", "json"), "csv", "output format"),
}

SUBCOMMAND_OPTIONS = {
    "epr": {
        "theta1": (_sweep, "0", "detector-1 analyzer angle(s), degrees; N or start:stop:count"),
        "theta2": (_sweep, "0", "detector-2 analyzer angle(s), degrees; N or start:stop:count"),
        "parity": (_choice(*epr.PARITIES), "plus", "pair parity"),
        "field-scale": (_float, "1.0", "per-photon field amplitude E"),
        "convention": (_choice(*epr.CONVENTIONS), "sum",
                       "correlation angle convention (detector-2 handedness)"),
        "mode": (_choice(*epr.MODES), "symbolic", "amplitude evaluation path"),
    },
    "holo": {
        "base-wavelength": (_float, "1.0", "wavelength of harmonic channel 1"),
        "channels": (_ints, "1", "harmonic channel indices, comma separated"),
        "detectors": (_floats, "0.0", "detector positions, comma separated"),
        "source": (_float, "2.3", "true source position"),
        "sources": (_floats, None, "per-channel source override (bit generation)"),
        "alpha": (_float, "0.0", "shared phase offset, radians"),
        "domain": (_interval, "0:10", "search domain lo:hi"),
    },
    "cavity": {
        "hf-over-kt": (_floats, None, "dimensionless lobe energies (h=k_B=T=1)"),
        "frequencies": (_floats, None, "mode family base frequencies, Hz"),
        "temperature": (_float, "1.0", "bath temperature"),
        "planck-h": (_float, "1.0", "Planck constant"),
        "boltzmann-k": (_float, "1.0", "Boltzmann constant"),
        "steps": (int, "100000", "Metropolis steps per chain"),
        "burn-in": (int, "10000", "discarded leading steps"),
    },
    "evolve": {
        "coefficients": (_complexes, "1,0,1", "a_0..a_n, ascending"),
        "initial": (_complexes, "1,0", "psi, psi', ... at t=0"),
        "t-final": (_float, "6.283185307179586", "integration end time"),
        "step": (_float, "0.001", "fixed RK4 step"),
        "every": (int, "1", "emit every Nth sample"),
    },
    "hj": {
        "system": (_choice("free", "linear"), "free", "principal-function family"),
        "momentum": (_float, "1.0", "free-particle momentum"),
        "mass": (_float, "1.0", "particle mass"),
        "hbar": (_float, "1.0", "action scale"),
        "alpha": (_float, "0.5", "linear potential slope"),
        "energy": (_float, "10.0", "total energy (linear system)"),
        "q-min": (_float, "0.0", "grid start"),
        "q-max": (_float, "1.0", "grid end"),
        "points": (int, "201", "grid size"),
        "time": (_float, "0.0", "evaluation time"),
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG, description="classical-wave simulation batch runner")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, schema in SUBCOMMAND_OPTIONS.items():
        sub = subs.add_parser(name, help=f"run the {name} engine")
        sub.add_argument("--config", default=None, metavar="PATH",
                         help="flat 'key = value' config file; flags override it")
        for key, (_, default, help_text) in {**schema, **COMMON_OPTIONS}.items():
            shown = f" (default: {default})" if default is not None else ""
            sub.add_argument(f"--{key}", default=None, metavar="V",
                             help=help_text + shown)
    return parser


# ---------------------------------------------------------------------------
# config handling

def parse_config_text(text: str) -> dict[str, str]:
    """Flat 'key = value' lines; '#' starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = line.split("=", 1)
        out[key.strip()] = value.strip()
    return out


def serialize_config(values: dict[str, str]) -> str:
    return "".join(f"{k} = {v}\n" for k, v in sorted(values.items()))


def resolve_options(command: str, namespace: argparse.Namespace) -> dict:
    """Merge config file and flags into typed values (flags win)."""
    schema = {**SUBCOMMAND_OPTIONS[command], **COMMON_OPTIONS}
    file_values: dict[str, str] = {}
    if namespace.config is not None:
        try:
            with open(namespace.config, "r", encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for key in file_values:
            if key not in schema:
                raise ConfigError(f"unknown config key '{key}' for subcommand '{command}'")

    resolved = {}
    for key, (convert, default, _) in schema.items():
        raw = getattr(namespace, key.replace("-", "_"))
        if raw is None:
            raw = file_values.get(key, default)
        if raw is None:
            resolved[key] = None
            continue
        try:
            resolved[key] = convert(raw)
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"bad value for key '{key}': {exc}") from exc
    return resolved


# ---------------------------------------------------------------------------
# emission

# the only columns that may print inf: cavity stderr from a single kept
# sample, and the relative error against an underflowed closed form
MAY_BE_INFINITE = frozenset({"mc_stderr", "rel_error"})


def _json_template(cells: list[str], depth: int, keys: list[str] | None = None) -> str:
    """``%``-template of a fixed-shape JSON array, or object given ``keys``.

    The text is what ``json.dumps(..., indent=1)`` prints for such a value at
    nesting ``depth``: one cell spec per member, keys quoted by json.
    """
    pad = " " * depth
    if keys is not None:
        cells = [json.dumps(k).replace("%", "%%") + ": " + c for k, c in zip(keys, cells)]
    members = ",\n".join(pad + " " + c for c in cells)
    return ("[\n%s\n%s]" if keys is None else "{\n%s\n%s}") % (members, pad)


def _json_list(item: str, rows, depth: int) -> str:
    """A JSON array at nesting ``depth`` as ``json.dumps(..., indent=1)`` prints it.

    Each row is printed by the ``item`` template (``_json_template`` or a
    single cell spec); ``[]`` when there are no rows.  Cells must already be
    spelled as json spells them: ``%r`` only for finite floats.
    """
    pad = " " * depth
    body = ",\n".join(map((pad + " " + item).__mod__, rows))
    return "[\n%s\n%s]" % (body, pad) if body else "[]"


def render_table(header: list[str], columns: list[np.ndarray], fmt: str) -> str:
    """CSV (17-significant-digit reals, '\\n' newlines) or mirrored JSON.

    ``columns`` holds one 1-D array per header key; the kind and the finite
    check are decided once per column.  Float columns print as reals, bool
    and integer columns as integers.  A NaN, or an infinity outside
    ``MAY_BE_INFINITE``, raises ValueError (exit 1).  Both formats apply one
    row template over the zipped columns; the JSON is byte for byte
    ``json.dumps(rows, indent=1)``, whose reals are ``float.__repr__``.
    """
    cells, values = [], []
    for key, col in zip(header, columns):
        if col.dtype.kind != "f":
            cells.append("%d")
            values.append((col.astype(np.uint8) if col.dtype.kind == "b" else col).tolist())
            continue
        finite = np.isfinite(col).all()
        if not finite:
            if np.isnan(col).any():
                raise ValueError(f"result column '{key}' is NaN")
            if key not in MAY_BE_INFINITE:
                raise ValueError(f"result column '{key}' is not finite")
        if fmt == "json" and not finite:  # json spells them Infinity and -Infinity
            cells.append("%s")
            values.append(list(map(json.dumps, col.tolist())))
        else:
            cells.append("%.17g" if fmt == "csv" else "%r")
            values.append(col.tolist())
    rows = zip(*values)
    if fmt == "csv":
        row = ",".join(cells) + "\n"
        return ",".join(header) + "\n" + "".join(map(row.__mod__, rows))
    return _json_list(_json_template(cells, 1, header), rows, 0) + "\n"


def write_output(text: str, path: str | None) -> int:
    """Write UTF-8 bytes to the path or stdout; returns bytes written."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    # isascii() is O(1) in CPython; only other text needs encoding to be counted
    return len(text) if text.isascii() else len(text.encode("utf-8"))


# ---------------------------------------------------------------------------
# engine glue

def run_epr(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    pair = epr.PhotonPairState(opts["parity"], opts["field-scale"])
    header = ["theta1_deg", "theta2_deg", "E", "P_xx", "P_xy", "P_yx", "P_yy"]
    t1_deg, t2_deg = np.meshgrid(opts["theta1"], opts["theta2"], indexing="ij")
    p = epr.joint_probabilities(np.radians(opts["theta1"]), np.radians(opts["theta2"]),
                                pair, mode=opts["mode"], convention=opts["convention"])
    corr = p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]
    grids = [t1_deg, t2_deg, corr, p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]]
    return header, [g.ravel() for g in grids]


def _holo_setup(opts: dict):
    if opts["base-wavelength"] <= 0.0:
        raise ConfigError("key 'base-wavelength' must be positive")
    for key in ("channels", "detectors"):
        if not opts[key]:
            raise ConfigError(f"key '{key}' must list at least one value")
    channels = [holography.FrequencyChannel.harmonic(j, opts["base-wavelength"])
                for j in opts["channels"]]
    sources = opts["sources"]
    if sources is not None and len(sources) != len(channels):
        raise ConfigError("key 'sources' must list one position per channel")
    bits = []
    for ci, channel in enumerate(channels):
        z_s = opts["source"] if sources is None else sources[ci]
        for z_d in opts["detectors"]:
            bits.append(holography.forward_bit(z_s, z_d, channel, opts["alpha"]))
    return channels, bits


def run_holo_csv(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    channels, bits = _holo_setup(opts)
    length = opts["domain"][1] - opts["domain"][0]
    # one row per channel prefix; bits are ordered channel by channel
    prefixes = holography.localize_prefixes(bits, channels, opts["alpha"], opts["domain"],
                                            len(opts["detectors"]))
    measure = np.fromiter((s.measure for s in prefixes), float)
    return (["n_channels", "alias_measure", "density"],
            [np.arange(1, measure.size + 1), measure, measure / length])


def run_holo_json(opts: dict) -> str:
    channels, bits = _holo_setup(opts)
    domain = opts["domain"]
    result = holography.localize(bits, channels, opts["alpha"], domain)
    # every listed real is finite: config values and intervals clipped to the domain
    bit_item = _json_template(["%r", "%d", "%d"], 2, ["detector", "channel", "parity"])
    fields = {
        "domain": _json_list("%r", domain, 1),
        "alpha": json.dumps(opts["alpha"]),
        "channels": _json_list("%d", [c.index for c in channels], 1),
        "detectors": _json_list("%r", opts["detectors"], 1),
        "source": json.dumps(opts["source"]),
        "bits": _json_list(bit_item, [(b.detector_position, b.channel_index, b.parity)
                                      for b in bits], 1),
        "intervals": _json_list(_json_template(["%r", "%r"], 2),
                                zip(*result.intervals.T.tolist()), 1),
        "measure": json.dumps(result.measure),
        "density": json.dumps(result.measure / (domain[1] - domain[0])),
        "granularity": json.dumps(result.granularity),
        "contains_source": json.dumps(result.contains(opts["source"])),
    }
    return (_json_template(["%s"] * len(fields), 0, list(fields)) + "\n") % tuple(fields.values())


def run_cavity(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    ratios, freqs = opts["hf-over-kt"], opts["frequencies"]
    if (ratios is None) == (freqs is None):
        raise ConfigError("provide exactly one of keys 'hf-over-kt' and 'frequencies'")
    key = "frequencies" if ratios is None else "hf-over-kt"
    if not opts[key]:
        raise ConfigError(f"key '{key}' must list at least one value")
    if ratios is not None:
        bath = cavity.ThermalBath(1.0, 1.0, 1.0)
        freqs = ratios
    else:
        bath = cavity.ThermalBath(opts["temperature"], opts["boltzmann-k"],
                                  opts["planck-h"])
    rows_out = cavity.spectrum_sweep(freqs, bath, opts["steps"], opts["burn-in"],
                                     opts["seed"])
    header = ["f", "T", "mc_mean_energy", "mc_stderr", "closed_form",
              "rel_error", "acceptance_rate", "steps", "seed"]
    n = len(rows_out)
    f, mean, stderr, closed, rel, acc = np.array(
        rows_out, dtype=float).reshape(n, len(cavity.SweepRow._fields)).T
    return header, [f, np.full(n, bath.temperature), mean, stderr, closed, rel, acc,
                    np.full(n, opts["steps"]), np.full(n, opts["seed"], dtype=np.uint64)]


def run_evolve(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    spec = statespace.EvolutionSpec(tuple(opts["coefficients"]))
    initial = np.asarray(opts["initial"], dtype=complex)
    every = opts["every"]
    if every < 1:
        raise ConfigError("key 'every' must be at least 1")
    traj = statespace.evolve_linear(spec, initial, opts["t-final"], opts["step"])
    states = traj.states[::every]
    re, im = states.real, states.imag
    header = ["t"] + [f"{part}_{k}" for k in range(spec.order) for part in ("re", "im")]
    columns = [traj.times[::every]] + [part[:, k] for k in range(spec.order)
                                       for part in (re, im)]
    # per row, the sums np.linalg.norm takes of one state; norm(axis=1) rounds differently
    columns.append(np.sqrt(np.vecdot(re, re) + np.vecdot(im, im)))
    return header + ["norm"], columns


def run_hj(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    q = np.linspace(opts["q-min"], opts["q-max"], opts["points"])
    m, hbar = opts["mass"], opts["hbar"]
    if opts["system"] == "free":
        grid = hj.free_particle_S(opts["momentum"], m, q, opts["time"])
        potential = np.zeros_like(q)
    else:
        grid = hj.linear_potential_S(opts["alpha"], opts["energy"], m, q, opts["time"])
        potential = opts["alpha"] * q
    system = hj.MechanicalSystem(m, potential, hbar)
    res = hj.hjs_residual(grid, system)
    bcp = hj.bcp_ratio(grid, system)
    header = ["q", "lhs_re", "rhs_re", "rhs_im", "bcp_ratio", "regime_flag"]
    return header, [res.q, res.lhs, res.rhs.real, res.rhs.imag, bcp.ratio, bcp.classical]


# every engine exception derives from ValueError; OverflowError is an ArithmeticError
ENGINE_ERRORS = (ValueError, ArithmeticError, MemoryError)


def run(argv=None) -> int:
    parser = build_parser()
    try:
        namespace = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0

    try:
        opts = resolve_options(namespace.command, namespace)
        # float warnings would add stderr lines; a NaN result is caught by render_table
        with np.errstate(all="ignore"):
            if namespace.command == "holo" and opts["format"] == "json":
                text = run_holo_json(opts)
            else:
                runner = {"epr": run_epr, "holo": run_holo_csv, "cavity": run_cavity,
                          "evolve": run_evolve, "hj": run_hj}[namespace.command]
                header, columns = runner(opts)
                text = render_table(header, columns, opts["format"])
    except ConfigError as exc:
        print(f"{PROG}: config error: {exc}", file=sys.stderr)
        return 2
    except ENGINE_ERRORS as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1

    try:
        write_output(text, opts["out"])
    except OSError as exc:
        print(f"{PROG}: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
