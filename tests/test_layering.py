"""Static structure: import direction between modules and the benchmark
tracer's view of the package."""

import ast
import importlib
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("module", ["matpoly", "construct", "corpus", "probfile"])
def test_data_model_imports_no_upper_layer(module):
    # the data model sits below the solver; importing a problem must not
    # pull in the solver, the experiment harness or the CLI
    assert not _imported_modules(SRC / f"{module}.py") & {"solver", "verify", "cli"}


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
