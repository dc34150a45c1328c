"""Run one ``phasorlab`` CLI job with spans around each layer's public calls.

Usage: python bench/shim.py SPANS_JSON JOB_ID ARG...

Behaves like ``python -m phasorlab.cli ARG...`` (same stdout, stderr and
exit code) but first wraps the public functions each layer exposes.
Every wrapped call records a span (name, start, end, parent span) and
may bump counters; spans stay in memory and are written to SPANS_JSON as
the job ends.  A tracemalloc window around ``cavity.spectrum_sweep``
gives the sweep's peak Python-visible allocation.  Nothing under
``src/`` is modified: the wrappers replace module attributes in this
process only.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import tracemalloc
from collections import Counter


class Tracer:
    """In-memory span recorder; spans of one job share its job id."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[list] = []   # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.gauges: dict[str, float] = {}

    def span(self, name, fn, count=None):
        """Wrap ``fn`` so each call records a span, then calls ``count``.

        ``name`` is a string or a function of the call's (args, kwargs).
        """
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.spans)
            label = name if isinstance(name, str) else name(args, kwargs)
            self.spans.append([label, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.stack.pop()
                self.spans[idx][2] = time.perf_counter()
            if count is not None:
                count(self, args, kwargs, result)
            return result
        return traced

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"job": self.job, "spans": self.spans,
                       "counts": dict(self.counts), "gauges": self.gauges}, fh)


def _patch(tracer: Tracer, name, owners, attr: str, count=None):
    """Replace ``attr`` on every owner (module or class) with one traced wrapper."""
    wrapped = tracer.span(name, getattr(owners[0], attr), count)
    for owner in owners:
        setattr(owner, attr, wrapped)
    return wrapped


def _bump(key: str, amount=lambda args, kwargs, result: 1):
    def count(tracer, args, kwargs, result):
        tracer.counts[key] += amount(args, kwargs, result)
    return count


def install(tracer: Tracer) -> None:
    from phasorlab import cavity, cli, epr, hj, holography, phasor, seeding, statespace
    import numpy as np

    # cli: run's self time is argv parsing and dispatch
    _patch(tracer, "cli.resolve", [cli], "resolve_options")
    for glue in ("run_epr", "run_holo_csv", "run_cavity", "run_evolve", "run_hj"):
        _patch(tracer, "cli.glue", [cli], glue)
    _patch(tracer, "cli.render", [cli], "render_table")
    _patch(tracer, "cli.render", [cli], "run_holo_json")
    _patch(tracer, "cli.write", [cli], "write_output",
           _bump("cli.render_bytes", lambda a, k, r: int(r)))

    def epr_mode(args, kwargs):
        return "epr." + kwargs.get("mode", args[3] if len(args) > 3 else "symbolic")

    def count_epr(tracer, args, kwargs, result):
        tracer.counts["epr.points"] += 1
        tracer.counts[epr_mode(args, kwargs) + "_points"] += 1
    _patch(tracer, epr_mode, [epr], "joint_probabilities", count_epr)

    def count_cesaro(tracer, args, kwargs, result):
        tracer.counts["phasor.cesaro_calls"] += 1
        tracer.counts["phasor.cesaro_samples"] += int(args[0].z.size)
    _patch(tracer, "phasor.cesaro", [phasor, epr], "cesaro_inner_product", count_cesaro)

    def count_evolve(tracer, args, kwargs, result):
        steps = int(result.times.size) - 1
        tracer.counts["statespace.steps"] += steps
        rho = float(np.max(np.abs(np.linalg.eigvals(statespace.companion_matrix(args[0])))))
        margin = rho * float(result.times[1] - result.times[0]) / statespace.RK4_STABILITY_LIMIT
        tracer.gauges["statespace.stability_margin"] = max(
            margin, tracer.gauges.get("statespace.stability_margin", 0.0))
    _patch(tracer, "statespace.evolve", [statespace], "evolve_linear", count_evolve)

    def count_chain(tracer, args, kwargs, result):
        tracer.counts["cavity.chains"] += 1
        tracer.counts["cavity.steps"] += int(result.steps)
        # computed from the sizes of the arrays each chain hands back
        tracer.counts["cavity.bytes_computed"] += int(
            result.occupancies.nbytes + result.occupancy_histogram.nbytes)
    _patch(tracer, "cavity.equilibrate", [cavity], "equilibrate", count_chain)
    sweep = _patch(tracer, "cavity.sweep", [cavity], "spectrum_sweep")

    @functools.wraps(sweep)
    def sweep_with_peak(*args, **kwargs):
        tracemalloc.start()
        try:
            return sweep(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            tracer.gauges["cavity.peak_alloc_bytes"] = max(
                peak, tracer.gauges.get("cavity.peak_alloc_bytes", 0))
    cavity.spectrum_sweep = sweep_with_peak

    _patch(tracer, "seeding.derive", [seeding, cavity], "derive_rng",
           _bump("seeding.derive_calls"))

    _patch(tracer, "holography.localize", [holography], "localize",
           _bump("holography.intervals_kept", lambda a, k, r: len(r.intervals)))
    _patch(tracer, "holography.alias_intervals", [holography], "alias_intervals",
           _bump("holography.intervals_enumerated", lambda a, k, r: len(r.intervals)))
    _patch(tracer, "holography.intersect", [holography.AliasSet], "intersect")

    _patch(tracer, "hj", [hj], "hjs_residual",
           _bump("hj.points", lambda a, k, r: int(a[0].q.size)))
    for fn in ("bcp_ratio", "free_particle_S", "linear_potential_S"):
        _patch(tracer, "hj", [hj], fn)


def main(argv: list[str]) -> int:
    spans_path, job, cli_argv = argv[0], argv[1], argv[2:]
    tracer = Tracer(job)
    t0 = time.perf_counter()
    from phasorlab import cli
    tracer.spans.append(["import", t0, time.perf_counter(), -1])
    install(tracer)
    try:
        return tracer.span("cli.run", cli.run)(cli_argv)
    finally:
        sys.stdout.flush()
        tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
