"""Batch front-end: seeded runs of each engine with bit-exact emission.

Subcommands ``epr``, ``holo``, ``cavity``, ``evolve`` and ``hj`` share the flags
``--config``, ``--out`` and ``--format``; ``cavity`` needs ``--hf-over-kt``, the
ratio hf/k_B T of each mode family itself (h = k_B = T = 1), and adds ``--seed``;
``holo`` positions and domains are in units of channel 1's wavelength.
Each flag takes one value (``parse_argv``).  A config file is flat UTF-8 text, one
``key = value`` per line with ``#`` comments; keys are the long flag names and
flags override the file.  Identical (config, seed) pairs produce byte-identical
output: reals print with 17 significant digits, CSV uses '.' decimals and '\\n'
newlines, and every RNG stream is derived from the seed (see ``seeding``).

Exit codes: 0 success, 1 engine or I/O failure, 2 usage/config errors.

A run loads only the engine its subcommand runs, and numpy only once it
computes.  numpy starts one BLAS thread: no printed number goes through BLAS,
only evolve's stability check (``eigvals`` of a small matrix) does, and an
idle thread pool costs CPU time in every process.  A thread count the caller
sets in the environment still wins.  A run starts no thread of its own: a
cavity sweep runs on the calling thread.  ``main``, the process entry point,
runs with the cyclic garbage collector off and freezes the heap before it
exits, so exit skips collecting what numpy loaded; ``run`` leaves the
collector as it found it.
"""

from __future__ import annotations

import cmath
import errno
import gc
import os
import sys
from itertools import islice

# thread counts read by OpenBLAS, MKL and OpenMP builds of numpy as it loads
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ.setdefault(_var, "1")

PROG = "phasorlab"


class ConfigError(ValueError):
    """Bad or unknown configuration key/value; maps to exit code 2."""


class UsageError(ConfigError):
    """Unknown subcommand or flag, or a flag with no value; exit code 2."""


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


# an epr grid holds at most this many (theta1, theta2) points: at the limit a sweep of
# distinct angles (every cell distinct) peaks at 0.83 GB RSS in CSV and 0.97 GB in JSON
MAX_EPR_POINTS = 10 ** 6


def _fields(s: str, shape: str) -> list[str]:
    """``s`` cut at each ':' into the fields that ``shape`` (such as 'lo:hi') names."""
    fields = s.split(":")
    if len(fields) != shape.count(":") + 1:
        raise ValueError(f"expected {shape}, got {s}")
    return fields


def _sweep(s: str):
    """Either a single number or an inclusive 'start:stop:count' sweep (an array)."""
    if ":" in s:
        start, stop, count = _fields(s, "start:stop:count")
        lo, hi, n = _float(start), _float(stop), int(count)
        if n < 1:
            raise ValueError("sweep count must be >= 1")
        if n > MAX_EPR_POINTS:
            raise ValueError(f"sweep count {n} is above the limit of {MAX_EPR_POINTS:.0e}")
        import numpy as np
        with np.errstate(all="ignore"):  # an overflowing span is rejected below
            angles = np.linspace(lo, hi, n)
        if not np.isfinite(angles).all():
            raise ValueError(f"sweep span stop - start = {hi - lo:g} is not finite")
        return angles
    return [_float(s)]


def _interval(s: str) -> tuple[float, float]:
    lo, hi = _fields(s, "lo:hi")
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
    "out": (str, None, "output path (default: stdout)"),
    "format": (_choice("csv", "json"), "csv", "output format"),
}

SUBCOMMAND_OPTIONS = {
    "epr": {
        "theta1": (_sweep, "0", "detector-1 analyzer angle(s), degrees; N or start:stop:count"),
        "theta2": (_sweep, "0", "detector-2 analyzer angle(s), degrees; N or start:stop:count"),
        "parity": (_choice("plus", "minus"), "plus", "pair parity"),
        "convention": (_choice("sum", "difference"), "sum",
                       "correlation angle convention (detector-2 handedness)"),
        "mode": (_choice("symbolic", "numeric"), "symbolic", "amplitude evaluation path"),
    },
    "holo": {
        "channels": (_ints, "1", "harmonic channel indices j (wavelength 1/j), comma separated"),
        "detectors": (_floats, "0.0", "detector positions, comma separated"),
        "source": (_float, "2.3", "true source position"),
        "sources": (_floats, None, "per-channel source override (bit generation)"),
        "alpha": (_float, "0.0", "shared phase offset, radians"),
        "domain": (_interval, "0:10", "search domain lo:hi"),
    },
    "cavity": {
        "hf-over-kt": (_floats, None, "hf/k_B T per mode family (h=k_B=T=1), each > 1.5*2^-53"),
        "steps": (int, "100000", "Metropolis steps per chain"),
        "burn-in": (int, "10000", "discarded leading steps"),
        "seed": (_u64, "0", "master seed (unsigned 64-bit)"),
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
    },
}


def parse_argv(argv) -> tuple[str | None, dict[str, str] | None]:
    """``SUB`` then ``--key value`` or ``--key=value`` pairs, as (SUB, {key: value}).

    The token after a key is its value, even one that starts with '-'.  Keys
    match exactly and a repeated key keeps its last value.  ``-h`` or
    ``--help`` gives (SUB, None) in a key's place and (None, None) in SUB's.
    """
    if argv and argv[0] in ("-h", "--help"):
        return None, None
    if not argv or argv[0] not in SUBCOMMAND_OPTIONS:
        got = f"unknown subcommand '{argv[0]}'" if argv else "missing subcommand"
        raise UsageError(f"{got}; choose one of {', '.join(SUBCOMMAND_OPTIONS)}")
    command, tokens = argv[0], iter(argv[1:])
    keys = {"config", *SUBCOMMAND_OPTIONS[command], *COMMON_OPTIONS}
    values: dict[str, str] = {}
    for token in tokens:
        if token in ("-h", "--help"):
            return command, None
        flag, eq, value = token.partition("=")
        if not flag.startswith("--") or flag[2:] not in keys:
            raise UsageError(f"unknown option '{flag}' for subcommand '{command}'")
        if not eq and (value := next(tokens, None)) is None:
            raise UsageError(f"option '{flag}' expects a value")
        values[flag[2:]] = value
    return command, values


def usage(command: str) -> str:
    """The help text of one subcommand: every key it takes, with its default."""
    keys = {"config": (str, None, "flat 'key = value' config file; flags override it"),
            **SUBCOMMAND_OPTIONS[command], **COMMON_OPTIONS}
    return f"usage: {PROG} {command} [--key value | --key=value] ...\n" + "".join(
        f"  --{key:<16}{text}{'' if default is None else f' (default: {default})'}\n"
        for key, (_, default, text) in keys.items())


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


def resolve_options(command: str, values: dict[str, str]) -> dict:
    """Merge config file and ``parse_argv`` values into typed values (flags win)."""
    schema = {**SUBCOMMAND_OPTIONS[command], **COMMON_OPTIONS}
    file_values: dict[str, str] = {}
    if "config" in values:
        try:
            with open(values["config"], "r", encoding="utf-8") as fh:
                file_values = parse_config_text(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        for key in file_values:
            if key not in schema:
                raise ConfigError(f"unknown config key '{key}' for subcommand '{command}'")

    resolved = {}
    for key, (convert, default, _) in schema.items():
        raw = values.get(key, file_values.get(key, default))
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
# sample, and the relative error against a closed form that underflows to 0
MAY_BE_INFINITE = frozenset({"mc_stderr", "rel_error"})
# how json spells the two infinities that float.__repr__ spells inf and -inf
JSON_INFINITIES = {"inf": "Infinity", "-inf": "-Infinity"}
# rows of a JSON array formatted and joined per chunk: only one chunk's row strings live at once
JSON_CHUNK_ROWS = 4096


def _json_template(cells: list[str], depth: int, keys: list[str] | None = None) -> str:
    """``%``-template of a fixed-shape JSON array, or object given ``keys``.

    The text is what ``json.dumps(..., indent=1)`` prints for such a value at
    nesting ``depth``: one cell spec per member, keys quoted by json.
    """
    import json
    pad = " " * depth
    if keys is not None:
        cells = [json.dumps(k).replace("%", "%%") + ": " + c for k, c in zip(keys, cells)]
    members = ",\n".join(pad + " " + c for c in cells)
    return ("[\n%s\n%s]" if keys is None else "{\n%s\n%s}") % (members, pad)


def _json_list(item: str, rows, depth: int) -> str:
    """A JSON array at nesting ``depth`` as ``json.dumps(..., indent=1)`` prints it.

    Each row is printed by the ``item`` template (``_json_template`` or a
    single cell spec); ``[]`` when there are no rows.  Cells must already be
    spelled as json spells them: ``%r`` only for finite floats.  Rows are
    formatted and joined ``JSON_CHUNK_ROWS`` at a time, so the text is held
    as chunks, never as one string per row.
    """
    pad = " " * depth
    line, rows = (pad + " " + item).__mod__, iter(rows)
    chunks = iter(lambda: ",\n".join(map(line, islice(rows, JSON_CHUNK_ROWS))), "")
    body = ",\n".join(chunks)
    return "[\n%s\n%s]" % (body, pad) if body else "[]"


def _row_chunks(array: np.ndarray):
    """The rows of a 2-D array as tuples, ``tolist()`` one chunk at a time."""
    for start in range(0, len(array), JSON_CHUNK_ROWS):
        yield from map(tuple, array[start:start + JSON_CHUNK_ROWS].tolist())


def _column_cells(key: str, col: np.ndarray, fmt: str) -> list[str]:
    """The cell text of every row of one column, each distinct value spelled once.

    Reals are keyed on their bit pattern, so 0.0 and -0.0 keep their own
    spellings: ``%.17g`` in CSV, ``%r`` (json's ``float.__repr__``) in JSON,
    where the infinities of a ``MAY_BE_INFINITE`` column read ``Infinity``
    and ``-Infinity``.  The column is checked before any text is made.
    """
    import numpy as np
    real = col.dtype.kind == "f"
    spec = "%d"
    if real:
        finite = np.isfinite(col).all()
        if not finite:
            if np.isnan(col).any():
                raise ValueError(f"result column '{key}' is NaN")
            if key not in MAY_BE_INFINITE:
                raise ValueError(f"result column '{key}' is not finite")
        col, spec = col.view(np.uint64), "%.17g" if fmt == "csv" else "%r"
    elif col.dtype.kind == "b":
        col = col.astype(np.uint8)
    distinct, inverse = np.unique(col, return_inverse=True)
    values = (distinct.view(np.float64) if real else distinct).tolist()
    # one % over all the distinct values (about 10% faster than a call per value on
    # all-distinct columns), split at a character no number contains
    spelled = ("\0".join([spec] * len(values)) % tuple(values)).split("\0")
    if fmt == "json" and real and not finite:
        spelled = [JSON_INFINITIES.get(s, s) for s in spelled]
    return np.array(spelled, dtype=object).take(inverse).tolist()


def render_table(header: list[str], columns: list[np.ndarray], fmt: str) -> str:
    """CSV (17-significant-digit reals, '\\n' newlines) or mirrored JSON.

    ``columns`` holds one 1-D array per header key.  Float columns print as
    reals, bool and integer columns as integers.  A NaN, or an infinity
    outside ``MAY_BE_INFINITE``, raises ValueError (exit 1).  Each column's
    distinct values are spelled once (``_column_cells``) and the rows are
    joined from those strings; the JSON is byte for byte
    ``json.dumps(rows, indent=1)``.
    """
    rows = zip(*(_column_cells(key, col, fmt) for key, col in zip(header, columns)))
    if fmt == "csv":
        return "\n".join([",".join(header), *map(",".join, rows)]) + "\n"
    return _json_list(_json_template(["%s"] * len(header), 1, header), rows, 0) + "\n"


def write_output(text: str, path: str | None) -> int:
    """Write the (all-ASCII) text to the path or stdout; returns bytes written.

    Stdout is flushed here, so a failed write raises OSError to the caller
    instead of at interpreter exit.  After a failure stdout is closed: the
    text it still buffers would otherwise fail again as the process exits.
    """
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return len(text)
    stdout = sys.stdout
    if stdout is None:  # the process started with its stdout closed
        raise OSError(errno.EBADF, os.strerror(errno.EBADF), "<stdout>")
    try:
        stdout.write(text)
        stdout.flush()
    except OSError:
        try:
            stdout.close()  # flushes, fails again, and closes all the same
        except OSError:
            pass
        raise
    return len(text)


# ---------------------------------------------------------------------------
# engine glue

def run_epr(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    shape = len(opts["theta1"]), len(opts["theta2"])
    if shape[0] * shape[1] > MAX_EPR_POINTS:
        raise ValueError(f"a {shape[0]} x {shape[1]} angle grid is above the limit of"
                         f" {MAX_EPR_POINTS:.0e} points")
    import numpy as np
    from . import epr
    header = ["theta1_deg", "theta2_deg", "E", "P_xx", "P_xy", "P_yx", "P_yy"]
    t1_deg, t2_deg = np.meshgrid(opts["theta1"], opts["theta2"], indexing="ij")
    # fmod is exact; from |theta| = 1e17 degrees the quarter turn vanishes in radians' round-off
    t1, t2 = (np.radians(np.fmod(opts[key], 360.0)) for key in ("theta1", "theta2"))
    if opts["convention"] == "difference":  # detector 2 mirrored; negation is exact
        t2 = -t2
    p = epr.joint_probabilities(t1, t2, epr.PhotonPairState(opts["parity"]), mode=opts["mode"])
    corr = p[..., 0, 0] + p[..., 1, 1] - p[..., 0, 1] - p[..., 1, 0]
    grids = [t1_deg, t2_deg, corr, p[..., 0, 0], p[..., 0, 1], p[..., 1, 0], p[..., 1, 1]]
    return header, [g.ravel() for g in grids]


def _holo_setup(opts: dict):
    from . import holography
    for key in ("channels", "detectors"):
        if not opts[key]:
            raise ConfigError(f"key '{key}' must list at least one value")
    channels = [holography.FrequencyChannel(j) for j in opts["channels"]]
    sources = opts["sources"]
    if sources is not None and len(sources) != len(channels):
        raise ConfigError("key 'sources' must list one position per channel")
    return [holography.forward_bit(z_s, z_d, channel, opts["alpha"])
            for channel, z_s in zip(channels, sources or [opts["source"]] * len(channels))
            for z_d in opts["detectors"]]


def run_holo_csv(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    import numpy as np
    from . import holography
    length = opts["domain"][1] - opts["domain"][0]
    # one row per channel prefix; bits are ordered channel by channel
    prefixes = holography.localize_prefixes(_holo_setup(opts), opts["domain"],
                                            len(opts["detectors"]))
    measure = np.fromiter((s.measure for s in prefixes), float)
    return (["n_channels", "alias_measure", "density"],
            [np.arange(1, measure.size + 1), measure, measure / length])


def run_holo_json(opts: dict) -> str:
    if opts["sources"] is not None:
        raise ConfigError("key 'sources' applies only with format 'csv';"
                          " the JSON result checks one 'source'")
    import json
    from . import holography
    bits = _holo_setup(opts)
    domain = opts["domain"]
    result = holography.localize(bits, domain)
    # every listed real is finite: config values and intervals clipped to the domain
    bit_item = _json_template(["%r", "%d", "%d"], 2, ["detector", "channel", "parity"])
    fields = {
        "domain": _json_list("%r", domain, 1),
        "alpha": json.dumps(opts["alpha"]),
        "channels": _json_list("%d", opts["channels"], 1),
        "detectors": _json_list("%r", opts["detectors"], 1),
        "source": json.dumps(opts["source"]),
        "bits": _json_list(bit_item, [(b.detector_position, b.channel.index, b.parity)
                                      for b in bits], 1),
        "intervals": _json_list(_json_template(["%r", "%r"], 2),
                                _row_chunks(result.intervals), 1),
        "measure": json.dumps(result.measure),
        "density": json.dumps(result.measure / (domain[1] - domain[0])),
        "granularity": json.dumps(result.granularity),
        "contains_source": json.dumps(result.contains(opts["source"])),
    }
    return (_json_template(["%s"] * len(fields), 0, list(fields)) + "\n") % tuple(fields.values())


def run_cavity(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    import numpy as np
    from . import cavity
    ratios = opts["hf-over-kt"]
    if not ratios:  # unset, or set to no value
        raise ConfigError("key 'hf-over-kt' must list at least one value")
    sweep = cavity.spectrum_sweep(ratios, opts["steps"], opts["burn-in"], opts["seed"])
    header = ["f", "T", "mc_mean_energy", "mc_stderr", "closed_form",
              "rel_error", "acceptance_rate", "steps", "seed"]
    n = sweep.ratio.size
    return header, [sweep.ratio, np.ones(n), sweep.mc_mean_energy,
                    sweep.mc_stderr, sweep.closed_form, sweep.relative_error,
                    sweep.acceptance_rate, np.full(n, opts["steps"]),
                    np.full(n, opts["seed"], dtype=np.uint64)]


def run_evolve(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    import numpy as np
    from . import statespace
    spec = statespace.EvolutionSpec(tuple(opts["coefficients"]))
    if opts["every"] < 1:
        raise ConfigError("key 'every' must be at least 1")
    traj = statespace.evolve_linear(spec, opts["initial"], opts["t-final"], opts["step"],
                                    opts["every"])
    re, im = traj.states.real, traj.states.imag
    header = ["t"] + [f"{part}_{k}" for k in range(spec.order) for part in ("re", "im")]
    columns = [traj.times] + [part[:, k] for k in range(spec.order) for part in (re, im)]
    # per row, the sums np.linalg.norm takes of one state, in a fixed order without BLAS
    squares = [np.einsum("ij,ij->i", part, part, optimize=False) for part in (re, im)]
    columns.append(np.sqrt(squares[0] + squares[1]))
    return header + ["norm"], columns


def run_hj(opts: dict) -> tuple[list[str], list[np.ndarray]]:
    import numpy as np
    from . import hj
    if not cmath.isfinite(span := opts["q-max"] - opts["q-min"]):
        raise ValueError(f"grid span q-max - q-min = {span:g} leaves the float range")
    q = np.linspace(opts["q-min"], opts["q-max"], opts["points"])
    m, hbar = opts["mass"], opts["hbar"]
    if opts["system"] == "free":
        grid = hj.free_particle_S(opts["momentum"], m, q)
        potential = np.zeros_like(q)
    else:
        grid = hj.linear_potential_S(opts["alpha"], opts["energy"], m, q)
        potential = opts["alpha"] * q
    system = hj.MechanicalSystem(m, potential, hbar)
    res = hj.hjs_residual(grid, system)
    bcp = hj.bcp_ratio(grid, system)
    header = ["q", "lhs_re", "rhs_re", "rhs_im", "bcp_ratio", "regime_flag"]
    return header, [res.q, res.lhs, res.rhs.real, res.rhs.imag, bcp.ratio, bcp.classical]


# every engine exception derives from ValueError; OverflowError is an ArithmeticError
ENGINE_ERRORS = (ValueError, ArithmeticError, MemoryError)


def emit(text: str, path: str | None) -> int:
    """``write_output``, with a failed write as one stderr line; the exit code."""
    try:
        write_output(text, path)
    except OSError as exc:
        print(f"{PROG}: cannot write output: {exc}", file=sys.stderr)
        return 1
    return 0


def run(argv=None) -> int:
    try:
        command, values = parse_argv(sys.argv[1:] if argv is None else argv)
        if values is None:  # help: of one subcommand, or of all of them
            return emit("\n".join(map(usage, [command] if command else SUBCOMMAND_OPTIONS)), None)
        opts = resolve_options(command, values)
        import numpy as np
        # float warnings would add stderr lines; a NaN result is caught by render_table
        with np.errstate(all="ignore"):
            if command == "holo" and opts["format"] == "json":
                text = run_holo_json(opts)
            else:
                runner = {"epr": run_epr, "holo": run_holo_csv, "cavity": run_cavity,
                          "evolve": run_evolve, "hj": run_hj}[command]
                header, columns = runner(opts)
                text = render_table(header, columns, opts["format"])
    except ConfigError as exc:
        kind = "usage" if isinstance(exc, UsageError) else "config"
        print(f"{PROG}: {kind} error: {exc}", file=sys.stderr)
        return 2
    except ENGINE_ERRORS as exc:
        print(f"{PROG}: error: {exc}", file=sys.stderr)
        return 1
    return emit(text, opts["out"])


def main():
    # the process ends with the run, so collecting cycles during it only costs time,
    # and the collections the interpreter makes as it exits skip a frozen heap
    gc.disable()
    code = run()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    main()
