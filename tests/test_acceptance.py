"""The ten acceptance gates, one printed PASS/FAIL line each.

These run the exhaustive sweeps at full default scale; the rest of the
suite exercises the same machinery on micro grids. Expect a few minutes
of wall time, dominated by the translation sweep.
"""

import contextlib
import itertools
import json
import pathlib
import time

import pytest

from teamsem import Team, parse, pretty
from teamsem.analysis import totality_unboundedness_witness
from teamsem.atoms import (
    DEFAULT_REGISTRY,
    check_boundedness,
    check_downwards_closed,
    check_upwards_closed,
    fo_definition_agrees,
)
from teamsem.evaluator import Evaluator
from teamsem.harness import (
    DEFAULT_GRID,
    run_definability_suite,
    run_flatness_suite,
    run_height_suite,
    run_locality_suite,
    run_possibility_suite,
    run_translation_suite,
    run_upflat_suite,
)
from teamsem.translator import translate

GOLDENS = pathlib.Path(__file__).parent / "goldens" / "translations.json"


@pytest.fixture
def verdict(capsys):
    """One console line per criterion, with its wall time, printed through
    the capture."""

    @contextlib.contextmanager
    def gate(number, label):
        start = time.monotonic()
        try:
            yield
        except BaseException:
            _emit(capsys, number, label, "FAIL", start)
            raise
        _emit(capsys, number, label, "PASS", start)

    return gate


def _emit(capsys, number, label, outcome, start):
    elapsed = time.monotonic() - start
    with capsys.disabled():
        print(f"[criterion {number:02d}] {label}: {outcome} ({elapsed:.1f} s)", flush=True)


def assert_clean(reports):
    for report in reports:
        assert report.ok, report.summary()
        assert report.mismatches == []
        assert report.checked > 0


def test_01_translation_soundness(verdict):
    with verdict(1, "compiled sentences agree with team evaluation"):
        start = time.monotonic()
        reports = run_translation_suite(grid=DEFAULT_GRID)
        elapsed = time.monotonic() - start
        assert_clean(reports)
        assert reports[0].params["atoms"] == [
            "NE", "intersect", "inconst", "big(2)", "total", "nondep", "nonexcl", "const",
        ]
        assert elapsed < 600.0


def test_02_flatness(verdict):
    with verdict(2, "first-order formulas are flat"):
        assert_clean(run_flatness_suite(grid=DEFAULT_GRID))


def test_03_locality(verdict):
    with verdict(3, "satisfaction only reads free-variable columns"):
        assert_clean(run_locality_suite(grid=DEFAULT_GRID))


def test_04_flattening_and_upward_closure(verdict):
    with verdict(4, "flattening weakens; upward-closed formulas transfer upward"):
        reports = run_upflat_suite(grid=DEFAULT_GRID)
        assert len(reports) == 2  # the implication half and the closure half
        assert_clean(reports)


def test_05_possibility_desugaring(verdict):
    with verdict(5, "the possibility operator matches its rewrite"):
        assert_clean(run_possibility_suite(grid=DEFAULT_GRID))


def test_06_negated_atom_definability(verdict):
    with verdict(6, "negated-atom macros agree with their atoms"):
        assert_clean(run_definability_suite(grid=DEFAULT_GRID))


def test_07_height_bound(verdict):
    with verdict(7, "satisfying teams shrink to height-bounded witnesses"):
        reports = run_height_suite(grid=DEFAULT_GRID)
        assert_clean(reports)
        # Unbounded formulas (those using totality) are skipped, not checked.
        assert reports[0].skipped > 0


def test_08_totality_unboundedness(verdict):
    with verdict(8, "totality has no finite witness bound"):
        total = parse("total(x)")
        for n in range(1, 6):
            model, team = totality_unboundedness_witness(n)
            ev = Evaluator(model)
            assert ev.evaluate(total, team)
            rows = team.sorted_rows
            for size in range(n + 1):
                for combo in itertools.combinations(rows, size):
                    assert not ev.evaluate(total, Team(team.vars, frozenset(combo)))


def test_09_atom_registry_integrity(verdict):
    with verdict(9, "atom catalog declarations hold at desk scale"):
        registry = DEFAULT_REGISTRY
        rows = registry.catalog()
        assert len(rows) == 15
        for row in rows:
            widths = tuple([1] * row["groups"])
            param = 2 if row["parameterized"] else None
            d = registry.resolve(row["name"], widths, param)
            if d.fo_definition is not None:
                assert fo_definition_agrees(d, max_dom=3, max_rel=4) is None, d.name
            if d.upwards_closed:
                assert check_upwards_closed(d) is None, d.name
            if d.downwards_closed:
                assert check_downwards_closed(d) is None, d.name
            if d.bound is not None:
                assert check_boundedness(d, d.bound) is None, d.name
        # Expected failure: functional dependence is not upwards closed, and
        # the checker must produce a concrete counterexample saying so.
        dep = registry.resolve("dep", (1, 1), None)
        ce = check_upwards_closed(dep)
        assert ce is not None
        assert ce.relation < ce.superset
        assert dep.direct(ce.model, ce.relation) is True
        assert dep.direct(ce.model, ce.superset) is False


def test_10_determinism_and_goldens(verdict):
    with verdict(10, "translation output is deterministic and pinned"):

        def render(rows_in):
            out = []
            for row in rows_in:
                res = translate(parse(row["formula"]), tuple(row["vars"]))
                out.append(
                    {
                        "formula": row["formula"],
                        "vars": list(row["vars"]),
                        "sentence": pretty(res.sentence),
                        "relation": res.relation,
                        "prefix_vars": list(res.prefix_vars),
                        "atoms_used": list(res.atoms_used),
                    }
                )
            return json.dumps(out, indent=2, sort_keys=True) + "\n"

        disk = GOLDENS.read_text()
        rows = json.loads(disk)
        assert len(rows) == 10
        assert render(rows) == disk  # byte-identical to the pinned file
        assert render(rows) == render(rows)  # and stable across repeated runs
