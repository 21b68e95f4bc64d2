"""Byte-level goldens for all eight theorem suites at a micro grid.

For each suite at `GRID` the golden file `goldens/sweeps_micro.json` holds
the non-verbose summary lines, the sha256 of the verbose JSON-lines stream
(every record, several megabytes in total), and the sha256 of the report
lines produced when `harness.Evaluator` is replaced by `LyingEvaluator`.
The lie makes every suite report mismatches, so the mismatch records are
pinned too, not only the clean path.  Every check runs with one and with
two worker processes, which pins jobs invariance for every suite.

Regenerate the golden file, only when a report is meant to change, with

    PYTHONPATH=src python3 tests/make_sweep_goldens.py
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import pathlib

import pytest

from teamsem import harness
from teamsem.evaluator import Evaluator
from teamsem.harness import SWEEPS, GridConfig, run_suite
from teamsem.model import Team, subsets
from teamsem.syntax import DepAtom, Possibly

GRID = GridConfig((2,), 2, max_depth=1)
GOLDEN = pathlib.Path(__file__).parent / "goldens" / "sweeps_micro.json"


class LyingEvaluator(Evaluator):
    """Negates the verdict on one-row teams whenever the formula is an
    atom or a possibility, or the model's `P` holds of `a`.

    The one-sided suites notice any lie on one-row teams.  The two-sided
    ones compare two evaluations on the same team size, so the lie must
    depend on the formula (possibility and definability: the operator
    against its expansion) or on the model (isomorphism: `P` holds of `a`
    in a model but of `b` in its renaming)."""

    def evaluate(self, phi, team):
        verdict = super().evaluate(phi, team)
        p = self.model.relations.get("P")
        if len(team.rows) == 1 and (
            isinstance(phi, (DepAtom, Possibly)) or (p is not None and ("a",) in p.tuples)
        ):
            return not verdict
        return verdict

    def first_subteam(self, phi, team, high):
        # the search on masks would bypass `evaluate`: try each subteam
        # through it instead, so the lie reaches the height witnesses too
        for rows in subsets(team.rows, high=high):
            if self.evaluate(phi, Team(team.vars, rows)):
                return Team(team.vars, rows)
        return None


@contextlib.contextmanager
def lying_evaluator():
    saved = harness.Evaluator
    harness.Evaluator = LyingEvaluator
    try:
        yield
    finally:
        harness.Evaluator = saved


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def render(name: str, jobs: int) -> dict:
    """The golden entry of one suite, computed now."""
    summary = [line for r in run_suite(name, grid=GRID, jobs=jobs) for line in r.json_lines()]
    verbose = run_suite(name, grid=GRID, jobs=jobs, verbose=True)
    with lying_evaluator():
        lying = run_suite(name, grid=GRID, jobs=jobs)
    return {
        "summary": summary,
        "verbose_sha256": _sha256(line for r in verbose for line in r.json_lines(verbose=True)),
        "lying_sha256": _sha256(line for r in lying for line in r.json_lines()),
        "lying_mismatches": sum(len(r.mismatches) for r in lying),
    }


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_suite_reports_match_golden(name, jobs):
    golden = json.loads(GOLDEN.read_text())[name]
    got = render(name, jobs)
    assert got["summary"] == golden["summary"]
    assert got["verbose_sha256"] == golden["verbose_sha256"]
    assert got["lying_sha256"] == golden["lying_sha256"]
    assert got["lying_mismatches"] == golden["lying_mismatches"] > 0


# `sweeps_micro.json` has two-element models only.  At this grid the
# locality and isomorphism suites cap teams on three-element models at two
# rows (`Tier.wide_rows`) and keep three rows on two-element ones.
WIDE_GRID = GridConfig((2, 3), 3, max_depth=1, max_vars=1)


WIDE_PINS = {
    "locality": (
        [("oracle", 10776, 0), ("naive", 1168, 0)],
        "ec6a607fb6c04c85f6f9b9f26ae89672779c6b293d26a9252cb27ac18b01a0da",
    ),
    "isomorphism": (
        [("fast", 2928, 0)],
        "1afed77144a05da79efc0adc4cfee1d6e28b61b62124fb7c96d99e8e174b6e96",
    ),
}


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("name", sorted(WIDE_PINS))
def test_wide_rows_cap_teams_on_three_element_models(name, jobs):
    counts, summary_sha256 = WIDE_PINS[name]
    reports = run_suite(name, grid=WIDE_GRID, jobs=jobs)
    assert [(r.params["tier"], r.checked, r.skipped) for r in reports] == counts
    assert _sha256(line for r in reports for line in r.json_lines()) == summary_sha256
