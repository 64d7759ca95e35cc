"""Static structure: import direction between modules, the benchmark
tracer's view of the package, and what the solve path imports."""

import ast
import functools
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from sqeig import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "sqeig"
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _imported_modules(path):
    names = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0 and not module.startswith("sqeig"):
                continue
            module = module.removeprefix("sqeig").lstrip(".")
            if module:
                names.add(module.split(".")[0])
            else:  # from . import x, y
                names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("sqeig."):
                    names.add(alias.name.split(".")[1])
    return names


#: the package's modules from the bottom layer up
LAYERS = [
    "densela",
    "matpoly",
    "construct",
    "corpus",
    "probfile",
    "linearize",
    "condition",
    "solver",
    "verify",
    "cli",
]


#: the data model: importing a problem must not pull in the solver, the
#: experiment harness or the CLI
DATA_MODEL = ["matpoly", "construct", "corpus", "probfile"]


def test_imports_point_down_the_layer_order():
    # each module imports only modules listed before it, so imports point
    # one way; a new module has to take a place in the order, and the data
    # model stays below the solver, verify and the CLI
    assert sorted(LAYERS) == sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
    assert max(map(LAYERS.index, DATA_MODEL)) < min(map(LAYERS.index, ["solver", "verify", "cli"]))
    upward = {
        module: sorted(_imported_modules(SRC / f"{module}.py") - set(LAYERS[:i]))
        for i, module in enumerate(LAYERS)
    }
    assert {m: up for m, up in upward.items() if up} == {}


def test_no_private_cross_module_import():
    # an underscore-prefixed name belongs to its module; the rest of the
    # package reaches it through a public function
    private = [
        f"{path.stem}: {node.module}.{alias.name}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and (node.level or (node.module or "").startswith("sqeig"))
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_tracer_patch_table_resolves(monkeypatch):
    # the benchmark tracer patches module attributes by name; each one it
    # lists must still exist on the package
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    missing = [
        f"{namespace.__name__}.{attr}"
        for namespace, attr, _, _ in tracing.patch_table()
        if not hasattr(namespace, attr)
    ]
    assert missing == []


def test_trial_calls_the_tracer_patch_points(monkeypatch):
    # the traced benchmark times a Monte Carlo trial's stages through these
    # module attributes, so a trial must call each of them, once: a stage
    # folded into its caller would pass the name check above unseen
    from sqeig import corpus, solver, verify

    calls = {}

    def counted(namespace, attr):
        real = getattr(namespace, attr)

        def wrapper(*args, **kwargs):
            calls[attr] += 1
            return real(*args, **kwargs)

        calls[attr] = 0
        monkeypatch.setattr(namespace, attr, wrapper)

    for namespace, attr in (
        (solver, "sample_perturbation"),
        (solver, "first_companion"),
        (solver, "generalized_eig"),
        (verify, "match_accepted"),
    ):
        counted(namespace, attr)
    poly, truth = corpus.builtin("ex4", seed=1)
    verify.empirical_probability(poly, truth, solver.SolverConfig(seed=2), 3)
    assert calls == {
        "sample_perturbation": 3,
        "first_companion": 3,
        "generalized_eig": 3,
        "match_accepted": 3,
    }


def _public_functions():
    # (qualified name, function) for each public function of the package's
    # modules and each public method of their public classes
    for stem in LAYERS:
        module = importlib.import_module(f"sqeig.{stem}")
        for name, obj in vars(module).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{stem}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if not attr.startswith("_") and inspect.isfunction(member):
                        yield f"{stem}.{name}.{attr}", member


def test_no_rng_defaults_to_fresh_entropy():
    # rng=None would draw from the operating system's entropy and make the
    # call irreproducible; every caller passes a generator or a seed
    defaulted = [
        qualname
        for qualname, func in _public_functions()
        if "rng" in (params := inspect.signature(func).parameters)
        and params["rng"].default is None
    ]
    assert defaulted == []


#: scipy subpackages that only the studies use (quadrature, log-beta, the KS
#: test and the assignment that matches Monte Carlo trials)
STUDY_SUBPACKAGES = ("scipy.integrate", "scipy.special", "scipy.stats", "scipy.optimize")


def _fresh_study_imports(code):
    # the study subpackages in sys.modules after running code in a new
    # interpreter that imports sqeig from this checkout
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent), env.get("PYTHONPATH")]))
    report = f"import json, sys; print(json.dumps([m for m in {STUDY_SUBPACKAGES!r} if m in sys.modules]))"
    proc = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


@functools.cache
def _linalg_baseline():
    # what numpy and scipy.linalg load by themselves (an older scipy.linalg
    # may import scipy.special, say); the solve path may load no more
    return _fresh_study_imports("import numpy, scipy.linalg")


def test_import_leaves_study_subpackages_unloaded():
    # the study-only subpackages load on first use inside the functions
    # that need them
    assert _fresh_study_imports("import sqeig") - _linalg_baseline() == set()


@pytest.mark.parametrize("source", ["builtin", "projected"])
def test_solve_leaves_study_subpackages_unloaded(source, tmp_path):
    # sqeig solve perturbs (or projects), runs QZ and thresholds kappa_bar,
    # none of which needs a study subpackage
    if source == "builtin":
        argv = ["solve", "--builtin", "ex1", "--json"]
    else:
        # an order-60 pencil of nullity 30, which the solver projects
        large = str(tmp_path / "large.json")
        assert cli.main(["synth-pencil", "--size", "60", "--rank", "30", "--seed", "1", "--output", large]) == 0
        argv = ["solve", "--input", large, "--json"]
    code = (
        "import contextlib, io, sqeig.cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    status = sqeig.cli.main({argv!r})\n"
        "if status:\n"
        "    raise SystemExit(status)"
    )
    assert _fresh_study_imports(code) - _linalg_baseline() == set()
