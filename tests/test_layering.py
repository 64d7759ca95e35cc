"""Static structure: import direction between modules and the benchmark
tracer's view of the package."""

import ast
import importlib
from pathlib import Path

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
