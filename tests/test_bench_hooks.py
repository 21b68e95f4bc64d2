"""The names `bench/tracer.py` patches must still exist in the program.

The tracer looks each binding up by name when a traced benchmark run
starts, so a rename in `src/` would only show there.  This test reads the
tracer's table without running the benchmark."""

import ast
import pathlib

import pytest

import teamsem

TRACER = pathlib.Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


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
