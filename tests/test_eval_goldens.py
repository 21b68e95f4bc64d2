"""Byte-level goldens for `teamsem eval --stats --witness --json`.

Every formula of `FORMULAS` is evaluated in the three modes on one
3-element model and one 4-row team; the golden file
`goldens/eval_cli.json` holds the exact stdout of each run.  It pins
verdicts, witnesses and every `EvalStats` counter (`tarski_rows`
included), so any change to how the evaluator or the first-order engine
searches shows up here.

Regenerate the golden file, only when an output is meant to change, with

    PYTHONPATH=src python3 tests/test_eval_goldens.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import tempfile

import pytest

from teamsem import Model, Relation, Team
from teamsem.cli import main

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "eval_cli.json"
MODES = ("naive", "oracle", "fast")

MODEL = Model(
    ("a", "b", "c"),
    {
        "P": Relation(1, frozenset({("a",), ("c",)})),
        "R": Relation(2, frozenset({("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")})),
    },
    {"c0": "a"},
)
TEAM = Team(("x", "y"), frozenset({("a", "b"), ("b", "c"), ("c", "a"), ("a", "a")}))

# splits, existentials, poss, constancy, a restriction guard, and the
# one-point and relation-guard shapes the first-order engine rewrites
FORMULAS = (
    "P(x) \\/ R(x, y)",
    "dep(x; y) \\/ P(y)",
    "E z. R(x, z) /\\ dep(y; z)",
    "E z. const(z) /\\ R(y, z)",
    "poss(P(x) /\\ x = y)",
    "restrict(dep(x; y); P(x))",
    "A z. (R(x, z) /\\ P(x))",
    "restrict(dep(x; y); A z. (!R(x, z) \\/ z != y \\/ P(z)))",
    "const(x) \\/ const(y)",
    "E z. (z = x /\\ incl(z; y))",
    "NE /\\ (P(x) \\/ !P(x)) /\\ (x = c0 \\/ x != c0)",
)


def run(formula: str, mode: str) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        model_path = pathlib.Path(tmp) / "model.json"
        team_path = pathlib.Path(tmp) / "team.json"
        model_path.write_text(MODEL.to_json())
        team_path.write_text(TEAM.to_json())
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(
                [
                    "eval", formula,
                    "--model", str(model_path),
                    "--team", str(team_path),
                    "--mode", mode,
                    "--stats", "--witness", "--json",
                ]
            )
    assert code == 0
    return out.getvalue()


def render() -> dict[str, dict[str, str]]:
    return {f: {mode: run(f, mode) for mode in MODES} for f in FORMULAS}


@pytest.mark.parametrize("formula", FORMULAS)
def test_eval_stats_witness_bytes(formula):
    golden = json.loads(GOLDEN.read_text())
    assert {mode: run(formula, mode) for mode in MODES} == golden[formula]


def test_golden_covers_exactly_the_formula_set():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(FORMULAS)


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(render(), indent=2, sort_keys=True) + "\n")
