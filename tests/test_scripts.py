"""Smoke tests: every script under scripts/ runs on small arguments, the
benchmark's trace shim reproduces the CLI on every subcommand, every
benchmark job passes its own output check, every public name of the
package is reached from outside its unit tests, and every parameter or
field with a default is passed by some call outside them (the parameter
gate)."""

import ast
import hashlib
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import phasorlab

ROOT = Path(__file__).parents[1]
SCRIPTS = ROOT / "scripts"


def run_python(*args):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(phasorlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, env=env,
                          timeout=120)


@pytest.mark.parametrize("script, args, header", [
    ("planck_sweep.py", ["--steps", "20000", "--points", "3"],
     "hf_over_kt,mc_mean_energy,mc_stderr,closed_form,rel_error,"
     "equipartition_kt,acceptance_rate"),
    ("chsh_scan.py", ["--points", "5"], "offset_deg,S"),
    ("holography_channels.py", ["--channels", "1,2,3"],
     "n_channels,highest_harmonic,measure,density,granularity"),
])
def test_script_runs(script, args, header):
    result = run_python(str(SCRIPTS / script), *args)
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines()[0] == header


def test_planck_sweep_prints_the_pinned_table():
    # the whole table, not only its header, as recorded when the sweep still returned one
    # record per chain
    result = run_python(str(SCRIPTS / "planck_sweep.py"), "--steps", "20000", "--points", "3")
    assert result.returncode == 0, result.stderr
    assert hashlib.sha256(result.stdout.encode()).hexdigest() == (
        "afaeddd1b690d1ecffbfdb4f3dcbd9c820126056a86e92f670d9305b2193f754")


@pytest.mark.parametrize("argv", [
    ["epr", "--theta1", "0:90:4", "--theta2", "15"],
    ["epr", "--mode", "numeric", "--theta1", "0:90:3"],
    ["holo", "--channels", "1,2,3", "--source", "2.3"],
    ["holo", "--channels", "1,2", "--source", "2.3", "--format", "json"],
    ["cavity", "--hf-over-kt", "0.5,2", "--steps", "20000", "--burn-in", "2000"],
    ["evolve", "--step", "0.01", "--every", "10"],
    ["hj", "--points", "21"],
    ["epr", "--theta1", "0.3:90.3:7", "--theta2", "0.7:45.7:4", "--format", "json"],
    # many chains whose burn-in ends mid-chunk, past the first chunk edge
    ["cavity", "--hf-over-kt", ",".join("%.6g" % (0.5 * 1.06 ** k) for k in range(40)),
     "--steps", "80000", "--burn-in", "70000"],
])
def test_trace_shim_matches_cli(argv, tmp_path):
    # the shim wraps module attributes by name, so a renamed or removed one breaks it
    spans = tmp_path / "spans.json"
    traced = run_python(str(ROOT / "bench" / "shim.py"), str(spans), "j", *argv)
    plain = run_python("-m", "phasorlab.cli", *argv)
    assert traced.returncode == 0, traced.stderr
    assert traced.stdout == plain.stdout
    record = json.loads(spans.read_text())
    assert record["spans"]
    # the output reaches stdout through the wrapped write_output, once
    assert record["counts"]["cli.render_bytes"] == len(traced.stdout)
    if argv[0] == "holo":
        # alias_intervals and localize are wrapped by name; a rename would zero these
        assert record["counts"]["holography.intervals_enumerated"] > 0
        if "json" in argv:
            kept = len(json.loads(traced.stdout)["intervals"])
            assert record["counts"]["holography.intervals_kept"] == kept
    if argv[0] == "cavity":
        assert "cavity.sweep" in {span[0] for span in record["spans"]}
        # the bound of test_spectrum_sweep_memory_does_not_grow_with_steps
        assert record["gauges"]["cavity.peak_alloc_bytes"] < 8 * 2 ** 20


def load_bench_jobs():
    spec = importlib.util.spec_from_file_location("bench_jobs", ROOT / "bench" / "jobs.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


BENCH_JOBS = load_bench_jobs()


@pytest.mark.parametrize("workload", sorted(BENCH_JOBS.WORKLOADS))
def test_bench_jobs_pass_their_checks(workload, tmp_path):
    # each job's check holds its stdout to closed forms, so the cavity chains are checked
    # against the Planck law and not only against pinned bytes
    for job in BENCH_JOBS.build(workload, 1, tmp_path):
        result = run_python("-m", "phasorlab.cli", *job.argv)
        assert result.returncode == job.exit_code, (job.name, result.stderr)
        assert job.check(result.stdout.encode("utf-8")) == [], job.name


# the nodes through which code uses a name, each with the field that holds the name
USES = {ast.Name: "id", ast.Attribute: "attr", ast.alias: "name", ast.keyword: "arg"}
TOP_LEVEL_USES = (ast.Name, ast.Attribute, ast.alias)
MEMBER_USES = (ast.Attribute, ast.keyword)


def public_definitions(tree):
    """(name, uses, first line, last line) of each public name that ``tree`` defines.

    A top-level name is used through a name, an attribute or an import alias; a method,
    property or annotated field of a public class (dataclass and NamedTuple fields
    alike) through an attribute or a keyword, and it is reported as ``Class.name``.
    """
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("_"):
                yield name, TOP_LEVEL_USES, node.lineno, node.end_lineno
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for member in node.body:
                if isinstance(member, ast.FunctionDef):
                    name = member.name
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    name = member.target.id
                else:
                    continue
                if not name.startswith("_"):
                    yield f"{node.name}.{name}", MEMBER_USES, member.lineno, member.end_lineno


PACKAGE = Path(phasorlab.__file__).parent
# the code that stands for a real caller: the package, a script, the benchmark and the
# acceptance tests, not the unit tests
REACH_SOURCES = [*PACKAGE.glob("*.py"), *SCRIPTS.glob("*.py"), *(ROOT / "bench").glob("*.py"),
                 ROOT / "tests" / "test_acceptance.py"]


@pytest.fixture(scope="module")
def reach_trees():
    """One parse of each of ``REACH_SOURCES``, which both gates read."""
    return {path: ast.parse(path.read_text()) for path in REACH_SOURCES}


def test_every_public_name_is_reached(reach_trees):
    # a name is reached when code outside its own definition uses it; a docstring or a
    # comment that names it is not a use
    uses = {}
    for path, tree in reach_trees.items():
        for node in ast.walk(tree):
            if type(node) in USES:
                uses.setdefault(getattr(node, USES[type(node)]), []).append((path, node))
    unreached = []
    for module in sorted(PACKAGE.glob("*.py")):
        for name, kinds, first, last in public_definitions(reach_trees[module]):
            if not any(isinstance(node, kinds)
                       and not (path == module and first <= node.lineno <= last)
                       for path, node in uses.get(name.rsplit(".", 1)[-1], [])):
                unreached.append(f"{module.stem}.{name}")
    assert unreached == []


def defaulted_parameters(body, prefix=""):
    """(callable, parameter, position, node) of each parameter or field with a default.

    Covers every function, method, dataclass and NamedTuple under ``body``, public and
    private alike, but no dunder method and no ``self`` or ``cls``.  ``position`` is
    the parameter's place among the positional arguments of a call, or None when it
    can only be passed by keyword.
    """
    for node in body:
        if isinstance(node, ast.FunctionDef) and not re.fullmatch(r"__\w+__", node.name):
            args = node.args
            positional = [a.arg for a in args.posonlyargs + args.args]
            defaults = positional[len(positional) - len(args.defaults):]
            skip = 1 if positional[:1] in (["self"], ["cls"]) else 0
            for name in defaults:
                yield prefix + node.name, name, positional.index(name) - skip, node
            for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                if default is not None:
                    yield prefix + node.name, arg.arg, None, node
            yield from defaulted_parameters(node.body, f"{prefix}{node.name}.")
        elif isinstance(node, ast.ClassDef):
            decorators = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
            if any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
                    isinstance(b, ast.Name) and b.id == "NamedTuple" for b in node.bases):
                position = 0
                for member in node.body:
                    if not isinstance(member, ast.AnnAssign):
                        continue
                    value = member.value
                    keywords = ({k.arg for k in value.keywords} if isinstance(value, ast.Call)
                                and getattr(value.func, "id", None) == "field" else {"default"})
                    keyword_only = "kw_only" in keywords
                    if value is not None and keywords & {"default", "default_factory"}:
                        yield (prefix + node.name, member.target.id,
                               None if keyword_only else position, node)
                    position += not keyword_only
            yield from defaulted_parameters(node.body, f"{prefix}{node.name}.")


def passes(call, parameter, position):
    """Whether ``call`` names ``parameter``, reaches its position, or spreads into it."""
    if any(k.arg in (parameter, None) for k in call.keywords):
        return True
    return position is not None and (
        position < len(call.args) or any(isinstance(a, ast.Starred) for a in call.args))


def test_every_defaulted_parameter_is_passed(reach_trees):
    # a default that no real caller overrides is a constant in disguise: each parameter or
    # field with a default is passed by some call outside its own definition, matched by
    # the callee's name as the name gate matches it
    callees = {}
    for path, tree in reach_trees.items():
        for call in ast.walk(tree):
            if isinstance(call, ast.Call):
                name = getattr(call.func, "id", getattr(call.func, "attr", None))
                callees.setdefault(name, []).append((path, call))
    unpassed = []
    for module in sorted(PACKAGE.glob("*.py")):
        for qualified, parameter, position, node in defaulted_parameters(
                reach_trees[module].body):
            name = qualified.rsplit(".", 1)[-1]
            if not any(passes(call, parameter, position)
                       for path, call in callees.get(name, [])
                       if not (path == module and node.lineno <= call.lineno <= node.end_lineno)):
                unpassed.append(f"{module.stem}.{qualified}({parameter})")
    assert unpassed == []
