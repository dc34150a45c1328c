"""Benchmark of the phasorlab batch CLI, end to end and per layer.

Usage:
    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; the program is imported from its
``src/``.  Each workload (see ``jobs.py``) is a fixed list of
``python -m phasorlab.cli ...`` jobs run one after another as child
processes: a closed loop with one client and one child at a time.

``--trace 0`` times ``import phasorlab.cli`` in fresh interpreters
(``setup_s``), then runs the job list in passes for about ``--seconds``
seconds (at least two, so every job's stdout can be compared with its
re-run) and reports the end-to-end metrics.  ``--trace 1`` profiles the
import with ``-X importtime``, runs one plain pass and one pass under
``shim.py``, and reports per-layer metrics from the shim's spans plus the
tracing overhead (traced minus plain wall time).

Every job's exit code, stderr and stdout are checked; a failed check, a
traceback or a re-run whose stdout differs counts as a failed job.  The
last stdout line is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
machine facts, every job's argv, per-pass timings and the metrics with
their units.  A full record is written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import jobs as workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

SETUP_PER_PASS = 3         # fresh-interpreter imports per pass, median reported
IMPORTTIME_REPEATS = 3     # -X importtime profiles per traced run
RUN_CAP_S = 150.0          # no pass starts that would end past this
RUN_DEADLINE_S = 170.0     # a child still running then is killed and its job fails
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


@dataclass
class Child:
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    stdout: bytes
    stderr: str


@dataclass
class JobRun:
    job: str
    traced: bool
    wall: float
    cpu: float
    rss_mb: float
    exit_code: int
    digest: str
    problems: list[str] = field(default_factory=list)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def run_child(cmd: list[str], env: dict[str, str], tag: str, timeout: float) -> Child:
    """Run one child to completion; wall clock plus its own rusage from wait4."""
    out_path, err_path = WORK / f"{tag}.out", WORK / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=ROOT)
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                 proc.returncode, out_path.read_bytes(),
                 err_path.read_text(encoding="utf-8", errors="replace"))


class Runner:
    """Runs jobs, checks their output and keeps first-run digests for re-run checks."""

    def __init__(self, job_list: list[workloads.Job], deadline: float):
        self.jobs = job_list
        self.env = child_env()
        self.deadline = deadline
        self.first_digest: dict[str, str] = {}
        self.check_cache: dict[tuple[str, str], list[str]] = {}
        self.spans: list[dict] = []

    def child(self, cmd: list[str], tag: str) -> Child:
        return run_child(cmd, self.env, tag, max(1.0, self.deadline - time.perf_counter()))

    def command(self, job: workloads.Job, traced: bool) -> list[str]:
        if traced:
            return [sys.executable, str(BENCH / "shim.py"), str(WORK / f"{job.name}.spans.json"),
                    job.name, *job.argv]
        return [sys.executable, "-m", "phasorlab.cli", *job.argv]

    def run_job(self, job: workloads.Job, traced: bool) -> JobRun:
        spans_path = WORK / f"{job.name}.spans.json"
        spans_path.unlink(missing_ok=True)
        child = self.child(self.command(job, traced), job.name)
        digest = hashlib.sha256(child.stdout).hexdigest()
        problems = []
        if child.exit_code != job.exit_code:
            problems.append(f"exit code {child.exit_code}, expected {job.exit_code}")
        if "Traceback" in child.stderr:
            problems.append("traceback on stderr: " + child.stderr.strip().splitlines()[-1])
        if job.exit_code != 0 and not (child.stderr.startswith("phasorlab:")
                                       and child.stderr.count("\n") == 1):
            problems.append(f"expected a one-line 'phasorlab:' message, got {child.stderr!r}")
        key = (job.name, digest)
        if key not in self.check_cache:
            self.check_cache[key] = job.check(child.stdout)
        problems += self.check_cache[key]
        first = self.first_digest.setdefault(job.name, digest)
        if digest != first:
            problems.append("stdout differs from the job's first run")
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    self.spans.append(json.load(fh))
            except (OSError, ValueError) as exc:
                problems.append(f"no spans from the shim: {exc}")
        return JobRun(job.name, traced, child.wall, child.cpu, child.rss_mb,
                      child.exit_code, digest, problems)

    def run_pass(self, traced: bool) -> list[JobRun]:
        return [self.run_job(job, traced) for job in self.jobs]


def run_import(runner: Runner, *flags: str) -> Child:
    """A fresh interpreter that only runs ``import phasorlab.cli``."""
    child = runner.child([sys.executable, *flags, "-c", "import phasorlab.cli"], "import")
    if child.exit_code != 0:
        raise RuntimeError(f"import phasorlab.cli failed (exit {child.exit_code}): "
                           + child.stderr.strip()[-500:])
    return child


def import_profile(runner: Runner) -> tuple[float, float]:
    """(total, scipy.stats) cumulative import seconds from ``-X importtime``.

    The total sums the top-level ``phasorlab*`` entries.  ``scipy.stats``
    sums every ``scipy.stats*`` entry whose importer is outside that
    package, so it covers what loading it pulls in, and reads 0 once
    nothing on the import path loads it.
    """
    child = run_import(runner, "-X", "importtime")
    entries = []
    for line in child.stderr.splitlines():
        parts = line.split("|")
        if len(parts) == 3 and parts[1].strip().isdigit():
            label = parts[2][1:]
            name = label.lstrip()
            entries.append(((len(label) - len(name)) // 2, name, int(parts[1])))
    total = scipy_stats = 0
    # importtime lists a module after everything it imported, one indent deeper
    importer_at_depth: dict[int, str] = {}
    for depth, name, cumulative in reversed(entries):
        importer_at_depth[depth] = name
        importer = importer_at_depth.get(depth - 1, "") if depth else ""
        if depth == 0 and name.startswith("phasorlab"):
            total += cumulative
        elif name.startswith("scipy.stats") and not importer.startswith("scipy.stats"):
            scipy_stats += cumulative
    return total / 1e6, scipy_stats / 1e6


def machine_facts() -> dict:
    def version(dist):
        try:
            return importlib.metadata.version(dist)
        except importlib.metadata.PackageNotFoundError:
            return None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "platform": platform.platform(),
        "loadavg": list(os.getloadavg()),
    }


# ---------------------------------------------------------------------------
# per-layer metrics from spans

def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Inclusive and self seconds per span name, counters and gauges over all jobs."""
    incl: dict[str, float] = defaultdict(float)
    self_t: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    counts: dict[str, float] = defaultdict(float)
    gauges: dict[str, float] = defaultdict(float)
    n_spans = 0
    for record in spans:
        rows = record["spans"]
        n_spans += len(rows)
        child_time = [0.0] * len(rows)
        for name, start, end, parent in rows:
            if parent >= 0:
                child_time[parent] += end - start
        for (name, start, end, parent), kids in zip(rows, child_time):
            incl[name] += end - start
            self_t[name] += end - start - kids
            calls[name] += 1
        for key, value in record["counts"].items():
            counts[key] += value
        for key, value in record["gauges"].items():
            gauges[key] = max(gauges[key], value)

    def per(num, den, scale):
        return scale * num / den if den else 0.0

    m = {
        "cli.parse_s": self_t["cli.run"],
        "cli.resolve_s": incl["cli.resolve"],
        "cli.glue_s": self_t["cli.glue"],
        "cli.render_s": self_t["cli.render"],
        "cli.render_bytes": counts["cli.render_bytes"],
        "cli.write_s": incl["cli.write"],
        "epr.points": counts["epr.points"],
        "epr.engine_s": self_t["epr.symbolic"] + self_t["epr.numeric"],
        "epr.us_per_point": per(self_t["epr.symbolic"], counts["epr.symbolic_points"], 1e6),
        "phasor.cesaro_calls": counts["phasor.cesaro_calls"],
        "phasor.cesaro_samples": counts["phasor.cesaro_samples"],
        "phasor.cesaro_s": incl["phasor.cesaro"],
        "statespace.steps": counts["statespace.steps"],
        "statespace.evolve_s": incl["statespace.evolve"],
        "statespace.us_per_step": per(incl["statespace.evolve"], counts["statespace.steps"], 1e6),
        "statespace.stability_margin": gauges["statespace.stability_margin"],
        "cavity.chains": counts["cavity.chains"],
        "cavity.steps": counts["cavity.steps"],
        "cavity.equilibrate_s": incl["cavity.equilibrate"],
        "cavity.ns_per_step": per(incl["cavity.equilibrate"], counts["cavity.steps"], 1e9),
        "cavity.peak_alloc_mb": gauges["cavity.peak_alloc_bytes"] / 2 ** 20,
        "cavity.bytes_computed": counts["cavity.bytes_computed"],
        "seeding.derive_calls": counts["seeding.derive_calls"],
        "seeding.derive_s": incl["seeding.derive"],
        "holography.localize_calls": calls["holography.localize"],
        "holography.localize_s": incl["holography.localize"],
        "holography.intervals_enumerated": counts["holography.intervals_enumerated"],
        "holography.intervals_kept": counts["holography.intervals_kept"],
        "holography.kept_ratio": per(counts["holography.intervals_kept"],
                                     counts["holography.intervals_enumerated"], 1.0),
        "hj.points": counts["hj.points"],
        "hj.engine_s": incl["hj"],
        "trace.spans": n_spans,
    }
    return m


# ---------------------------------------------------------------------------

def declared_units(kind: str) -> dict[str, str]:
    """Metric name -> unit as BENCHMARK.json declares them ("end_to_end" or "per_layer")."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def measure(runner: Runner, seconds: float, t_start: float) -> tuple[dict, list, dict]:
    # set-up imports are spread through each pass, so they sample the
    # machine over the whole run rather than over one stretch of it
    stride = -(-len(runner.jobs) // SETUP_PER_PASS)
    setup: list[float] = []
    passes: list[list[JobRun]] = []
    loop_start = time.perf_counter()
    while True:
        current = []
        for i, job in enumerate(runner.jobs):
            if i % stride == 0:
                setup.append(run_import(runner).wall)
            current.append(runner.run_job(job, traced=False))
        passes.append(current)
        elapsed = time.perf_counter() - loop_start
        per_pass = elapsed / len(passes)
        if len(passes) >= 2 and elapsed + per_pass > seconds:
            break
        if time.perf_counter() - t_start + per_pass > RUN_CAP_S:
            if len(passes) < 2:
                print("bench: no time for a second pass; re-runs not compared", file=sys.stderr)
            break
    runs = [r for p in passes for r in p]
    failed = sum(1 for r in runs if r.problems)
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(sum(r.wall for r in p) for p in passes),
        "job_p50_s": statistics.median(r.wall for r in runs),
        "cpu_s": statistics.median(sum(r.cpu for r in p) for p in passes),
        "peak_rss_mb": max(r.rss_mb for r in runs),
        "ok_ratio": (len(runs) - failed) / len(runs),
    }
    notes = {"setup_runs_s": setup,
             "pass_wall_s": [sum(r.wall for r in p) for p in passes],
             "pass_cpu_s": [sum(r.cpu for r in p) for p in passes]}
    return metrics, passes, notes


def trace(runner: Runner) -> tuple[dict, list, dict]:
    profiles = [import_profile(runner) for _ in range(IMPORTTIME_REPEATS)]
    plain = runner.run_pass(traced=False)
    traced = runner.run_pass(traced=True)
    metrics = {
        "import.total_s": statistics.median(p[0] for p in profiles),
        "import.scipy_stats_s": statistics.median(p[1] for p in profiles),
        **layer_metrics(runner.spans),
        "trace.overhead_s": sum(r.wall for r in traced) - sum(r.wall for r in plain),
    }
    notes = {"importtime_s": profiles,
             "pass_wall_s": [sum(r.wall for r in p) for p in (plain, traced)]}
    return metrics, [plain, traced], notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    t_start = time.perf_counter()

    if not (SRC / "phasorlab" / "cli.py").is_file():
        print(f"bench: {SRC / 'phasorlab' / 'cli.py'} not found; run from a full checkout",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    units = declared_units("per_layer" if args.trace else "end_to_end")
    facts = machine_facts()
    runner = Runner(workloads.build(args.workload, args.seed, WORK), t_start + RUN_DEADLINE_S)
    print("# machine " + json.dumps(facts, sort_keys=True))
    for job in runner.jobs:
        shown = [a if len(a) <= 80 else f"{a[:40]}...[{len(a)} chars]" for a in job.argv]
        print(f"# job {job.name}: phasorlab {' '.join(shown)}  (exit {job.exit_code})")

    try:
        if args.trace:
            metrics, passes, notes = trace(runner)
        else:
            metrics, passes, notes = measure(runner, args.seconds, t_start)
    except RuntimeError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} differ from BENCHMARK.json")
    facts["loadavg_end"] = list(os.getloadavg())

    runs = [r for p in passes for r in p]
    failed = [r for r in runs if r.problems]
    for i, p in enumerate(passes, 1):
        kind = "traced" if p[0].traced else "plain"
        print(f"# pass {i} ({kind}): wall {sum(r.wall for r in p):.3f} s, "
              f"cpu {sum(r.cpu for r in p):.3f} s, {len(p)} jobs")
    for r in failed:
        print(f"# FAILED {r.job} ({'traced' if r.traced else 'plain'}): {'; '.join(r.problems)}")
    for key, value in notes.items():
        print(f"# {key}: {json.dumps(value)}")

    if not args.trace:
        print(f"fail_ratio = {len(failed) / len(runs):.6g} 1")
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")

    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": facts, "argv": {j.name: list(j.argv) for j in runner.jobs},
              "runs": [vars(r) for r in runs], "notes": notes, "metrics": metrics}
    with open(WORK / f"record-{args.workload}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    result = {
        "correct": not failed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
