"""The names `bench/tracer.py` patches must still exist in the program.

The tracer looks each binding up by name when a traced benchmark run
starts, so a rename in `src/` would only show there.  These tests read the
tracer's table without running the benchmark."""

import ast
import pathlib

import pytest

import teamsem

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRACER = ROOT / "bench" / "tracer.py"
SOURCES = ROOT / "src" / "teamsem"


def _patches():
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["PATCHES"]:
            return [(module, attr) for module, attr, _ in ast.literal_eval(node.value)]
    raise AssertionError("bench/tracer.py defines no PATCHES table")


@pytest.mark.parametrize("module, attr", _patches())
def test_every_patched_binding_resolves(module, attr):
    assert callable(getattr(getattr(teamsem, module), attr))


@pytest.mark.parametrize(
    "module, cls, attr",
    [
        ("evaluator", "Evaluator", "evaluate"),
        ("evaluator", "Evaluator", "__init__"),
        ("atoms", "AtomRegistry", "register_custom"),
    ],
)
def test_every_wrapped_method_resolves(module, cls, attr):
    assert callable(getattr(getattr(getattr(teamsem, module), cls), attr))


def _unused_imports(tree):
    """The names a module binds by import and never reads."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.add((alias.asname or alias.name).split(".")[0])
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return imported - read


@pytest.mark.parametrize(
    "path", sorted(p for p in SOURCES.glob("*.py") if p.name != "__init__.py"), ids=lambda p: p.stem
)
def test_every_unused_import_is_a_patched_binding(path):
    # an import only the tracer looks up stays; any other unused one is stale
    patched = {attr for module, attr in _patches() if module == path.stem}
    assert _unused_imports(ast.parse(path.read_text())) <= patched
