"""Grid enumeration, formula generation, and the equivalence checkers."""

import gc
import hashlib
import json
import os

import pytest

from teamsem import Model, Relation, Team, parse, pretty
from teamsem.harness import (
    DEFAULT_GRID,
    DEFAULT_TRANSLATION_ATOMS,
    GRID_ENV_VAR,
    GridConfig,
    HarnessError,
    SWEEPS,
    check_formula_equivalence,
    check_translation_equivalence,
    enumerate_models,
    enumerate_teams,
    eval_cost_estimate,
    generate_formulas,
    grid_from_env,
    permute_model,
    permute_team,
    run_suite,
)

MICRO = GridConfig((2,), 2)


# --- grids ---------------------------------------------------------------------


def test_default_grid():
    assert DEFAULT_GRID == GridConfig(doms=(2, 3), max_rows=4, max_depth=3, max_vars=2)


def test_grid_parse_round_trip():
    g = GridConfig.parse("doms=2,3;max_rows=3;max_depth=2;max_vars=1")
    assert g == GridConfig((2, 3), 3, 2, 1)
    assert g.as_dict() == {
        "doms": [2, 3],
        "max_rows": 3,
        "max_depth": 2,
        "max_vars": 1,
    }
    # Partial strings keep the remaining defaults.
    assert GridConfig.parse("doms=2") == GridConfig((2,), 4, 3, 2)


@pytest.mark.parametrize("bad", ["doms=1", "doms=9", "nope=3", "doms=", "max_vars=3"])
def test_grid_parse_errors(bad):
    with pytest.raises(HarnessError):
        GridConfig.parse(bad)


def test_grid_from_env(monkeypatch):
    monkeypatch.delenv(GRID_ENV_VAR, raising=False)
    assert grid_from_env() == DEFAULT_GRID
    monkeypatch.setenv(GRID_ENV_VAR, "doms=2;max_rows=2")
    assert grid_from_env() == GridConfig((2,), 2)


# --- model and team enumeration ----------------------------------------------------


def test_enumerate_models_counts():
    # One unary relation over two elements: 2^2 interpretations.
    assert sum(1 for _ in enumerate_models({"P": 1}, 2)) == 4
    assert sum(1 for _ in enumerate_models({}, 2)) == 1
    assert sum(1 for _ in enumerate_models({}, 3)) == 2  # sizes 2 and 3
    assert sum(1 for _ in enumerate_models({"R": 2}, 2)) == 16


def test_enumerate_models_are_valid():
    for m in enumerate_models({"P": 1, "R": 2}, 2):
        assert m.relations["P"].arity == 1
        assert m.relations["R"].arity == 2
        assert len(m.domain) == 2


def test_enumerate_teams_counts(m2_bare):
    assert sum(1 for _ in enumerate_teams(m2_bare, ("x", "y"), 4)) == 16
    assert sum(1 for _ in enumerate_teams(m2_bare, ("x",), 4)) == 4
    got = [t.rows for t in enumerate_teams(m2_bare, (), 4)]
    assert got == [frozenset(), frozenset({()})]
    # The empty team comes first so degenerate cases are hit early.
    first = next(enumerate_teams(m2_bare, ("x",), 2))
    assert first.rows == frozenset()


def test_permutation_helpers(m2):
    swap = {"a": "b", "b": "a"}
    m = permute_model(m2, swap)
    assert m.domain == ("a", "b")
    assert m.relations["P"].tuples == {("b",)}
    X = Team(("x",), frozenset({("a",)}))
    assert permute_team(X, swap).rows == {("b",)}


# --- formula generation ----------------------------------------------------------------


def test_generated_corpus_is_pinned():
    corpus = generate_formulas(DEFAULT_TRANSLATION_ATOMS, {"P": 1}, 3, ("x", "y"))
    texts = [pretty(f) for f in corpus]
    assert len(corpus) == 219
    assert len(set(texts)) == 219  # no duplicates
    assert "P(x)" in texts
    assert "NE" in texts
    assert "intersect(x; y)" in texts


def test_generated_corpus_is_deterministic():
    a = generate_formulas(DEFAULT_TRANSLATION_ATOMS, {"P": 1}, 3, ("x", "y"))
    b = generate_formulas(DEFAULT_TRANSLATION_ATOMS, {"P": 1}, 3, ("x", "y"))
    assert a == b


def test_generated_corpus_respects_depth_and_vars():
    from teamsem.syntax import free_variables

    corpus = generate_formulas(("NE", "dep"), {}, 2, ("x",))
    for phi in corpus:
        assert free_variables(phi) <= {"x"}


def test_generated_custom_atom_instances_have_the_registered_width(m2):
    from teamsem.atoms import AtomRegistry
    from teamsem.evaluator import Evaluator
    from teamsem.syntax import DepAtom

    reg = AtomRegistry()
    reg.register_custom("pair", 2, parse("E u. E v. R(u, v)"), upwards_closed=True, bound=1)
    corpus = [
        phi
        for phi in generate_formulas(("pair",), {}, 0, ("x", "y"), registry=reg)
        if isinstance(phi, DepAtom)
    ]
    assert [pretty(phi) for phi in corpus] == [
        "pair(x, x)", "pair(x, y)", "pair(y, x)", "pair(y, y)",
    ]
    ev = Evaluator(m2, registry=reg)
    X = Team(("x", "y"), frozenset({("a", "b")}))
    assert all(ev.evaluate(phi, X) for phi in corpus)


def test_generate_formulas_unknown_atom():
    with pytest.raises(HarnessError, match="nosuch"):
        generate_formulas(("nosuch",), {}, 1, ("x",))


# --- cost model -----------------------------------------------------------------------


def test_cost_estimate_grows_with_rows():
    phi = parse("E x. E y. NE")
    assert eval_cost_estimate(phi, 2, 1) < eval_cost_estimate(phi, 2, 3)
    assert eval_cost_estimate(phi, 2, 2) < eval_cost_estimate(phi, 3, 2)


def test_cost_estimate_mode_sensitivity():
    phi = parse("E x. NE \\/ NE")
    assert eval_cost_estimate(phi, 2, 3, mode="fast") <= eval_cost_estimate(
        phi, 2, 3, mode="naive"
    )


def test_cost_estimate_leaves_no_cycles():
    # its recursive walk must not leave work for the cycle collector
    phi = parse("poss(dep(x; y) /\\ NE)")
    gc.disable()
    try:
        gc.collect()
        eval_cost_estimate(phi, 2, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


# --- pairwise equivalence checking -------------------------------------------------------


def test_equivalence_pass():
    rep = check_formula_equivalence(
        parse("NE"), parse("NE /\\ T"), MICRO, signature={}, vars=("x",)
    )
    assert rep.ok
    assert rep.checked == 4  # one bare model, teams of size <= 2 over x
    assert rep.mismatches == []


def test_equivalence_mismatch_records_are_replayable():
    rep = check_formula_equivalence(
        parse("NE"), parse("T"), MICRO, signature={}, vars=("x",)
    )
    assert not rep.ok
    # NE and T differ exactly on the empty team.
    assert len(rep.mismatches) == 1
    record = rep.mismatches[0]
    m = Model.from_json(json.dumps(record["model"]))
    X = Team.from_json(json.dumps(record["team"]))
    from teamsem import evaluate

    assert evaluate(m, X, parse(record["left"])) == record["verdicts"]["left"]
    assert evaluate(m, X, parse(record["right"])) == record["verdicts"]["right"]


def test_equivalence_signature_conflict():
    with pytest.raises(HarnessError):
        check_formula_equivalence(
            parse("P(x)"), parse("P(x, y)"), MICRO, vars=("x", "y")
        )


def test_equivalence_budget_skips_are_counted():
    rep = check_formula_equivalence(
        parse("E x. E y. NE"),
        parse("E x. E y. NE"),
        MICRO,
        signature={},
        vars=("x",),
        mode="naive",
        budget=1.0,
    )
    assert rep.skipped > 0
    assert rep.ok  # skipping is not failure; it is reported


def test_budget_never_gates_fast_sides():
    # the oracle estimate of this formula is over the budget, but neither
    # check evaluates it on the oracle path, so neither skips it; the one
    # skip of the translation check is the empty team, which a sentence
    # over the empty tuple does not speak for
    phi = parse("E y. NE")
    same = check_formula_equivalence(phi, phi, MICRO, signature={}, budget=1.0)
    compiled = check_translation_equivalence(phi, (), MICRO, signature={}, budget=1.0)
    assert (same.checked, same.skipped) == (2, 0)
    assert (compiled.checked, compiled.skipped) == (1, 1)
    assert compiled.ok


def test_translation_equivalence_pass():
    rep = check_translation_equivalence(parse("NE"), ("x",), MICRO, signature={})
    assert rep.ok and rep.checked > 0


def test_translation_equivalence_mutation_is_caught():
    # Feeding a corrupted target sentence must surface mismatches; this
    # guards the checker itself against vacuous passes.
    rep = check_translation_equivalence(
        parse("NE"), ("x",), MICRO, signature={}, sentence=parse("F"), relation="R"
    )
    assert not rep.ok
    assert len(rep.mismatches) == 3  # NE holds on the three nonempty teams


# --- reports -------------------------------------------------------------------------------


def test_report_summary_excludes_timing():
    rep = check_formula_equivalence(parse("NE"), parse("NE"), MICRO, signature={}, vars=("x",))
    summary = rep.summary()
    assert "elapsed" not in summary
    assert summary["ok"] is True
    for line in rep.json_lines():
        json.loads(line)


def test_report_verbose_streams_records():
    rep = check_formula_equivalence(
        parse("NE"), parse("NE"), MICRO, signature={}, vars=("x",), verbose=True
    )
    assert len(rep.records) == rep.checked


def test_reports_are_byte_deterministic():
    def render():
        reps = run_suite("isomorphism", grid=MICRO)
        return "\n".join(line for r in reps for line in r.json_lines())

    assert render() == render()


PIN_GRID = GridConfig((2, 3), 2)

# Each one-formula check with the sha256 of its summary line and of its
# verbose stream: a pass, a mismatch, a budget that skips the 3-element
# models only, a corrupted sentence, and the skipped empty team of a
# sentence over the empty tuple.
ONE_FORMULA_CHECKS = {
    "equivalence": (
        lambda **kw: check_formula_equivalence(
            parse("NE"), parse("NE /\\ T"), PIN_GRID, signature={"P": 1}, vars=("x",), **kw
        ),
        "4c4cfd551245d7642e31287efe7c5fe7aaf13965721de8dc591370818da20763",
        "757963f891fad1a3a27d24d4576d7638319dbe8ca42db287d80c4d43b05efbe7",
    ),
    "equivalence-mismatch": (
        lambda **kw: check_formula_equivalence(parse("P(x)"), parse("T"), PIN_GRID, **kw),
        "4e388306e9497f5c7c610eb8fc806abf3db5600928788342b7fa6a12cbd02e1f",
        "9d6dd42352261a17428128d293394afd7b9d888bcb068c1323710db34edcdf47",
    ),
    "equivalence-budget-skip": (
        lambda **kw: check_formula_equivalence(
            parse("E x. E y. NE"), parse("E x. E y. NE"), PIN_GRID,
            signature={}, vars=("x",), mode="naive", budget=1e5, **kw,
        ),
        "94e22aa7357f455e2a9a466612eea68da8069c50a2b9a30540ada0c0df90d354",
        "6b95fd69b0431d6539b2a3afc77f52bb5b2100cd16e8a5caeb6c328b657667a3",
    ),
    "translation": (
        lambda **kw: check_translation_equivalence(parse("P(x) \\/ NE"), ("x",), PIN_GRID, **kw),
        "3590e85c3768920cfa4d0367f4c883ea9978303f6b51562911dc707b29ddb200",
        "2f433bc8d49ab668c4e74ebe2826ce2ff88bcfd9b72bc12861881cfd4f32b34a",
    ),
    "translation-corrupted": (
        lambda **kw: check_translation_equivalence(
            parse("NE"), ("x",), PIN_GRID, signature={}, sentence=parse("F"), relation="R", **kw
        ),
        "34edbc5fed4c75aa3773fd5ef9bb1e32c918f6b425eb453e1e78da85e6a9eed2",
        "cd8cf4b8605f9a27bd05196ba03bc04f18282689f338f3f09c5ba07d4e9e801a",
    ),
    "translation-empty-tuple": (
        lambda **kw: check_translation_equivalence(
            parse("E y. NE"), (), PIN_GRID, signature={}, budget=1.0, **kw
        ),
        "4c032fe80d3f191fb28c9662f18d0307a09c6de5cfa91e55216029946eb3ec75",
        "d55599b25142d2380d3a7206461d7634166be69aa07358f38e67617732b59372",
    ),
}


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(ONE_FORMULA_CHECKS))
def test_reports_invariant_under_jobs(case):
    run, summary_sha256, verbose_sha256 = ONE_FORMULA_CHECKS[case]
    for jobs in (1, 2):
        assert _sha256(run(jobs=jobs).json_lines()) == summary_sha256
        assert _sha256(run(jobs=jobs, verbose=True).json_lines(verbose=True)) == verbose_sha256


def test_jobs_are_capped_at_the_cpu_count(monkeypatch):
    import multiprocessing

    def no_pool(*args, **kwargs):
        raise AssertionError("a worker pool was started")

    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    kw = dict(grid=MICRO, signature={"P": 1}, vars=("x",), verbose=True)  # four models
    capped = check_formula_equivalence(parse("NE"), parse("NE /\\ T"), **kw, jobs=10**6)
    serial = check_formula_equivalence(parse("NE"), parse("NE /\\ T"), **kw, jobs=1)
    assert list(capped.json_lines(verbose=True)) == list(serial.json_lines(verbose=True))


@pytest.mark.parametrize("jobs", [0, -2])
def test_jobs_below_one_are_rejected(jobs):
    with pytest.raises(HarnessError, match="jobs must be at least 1"):
        run_suite("isomorphism", grid=MICRO, jobs=jobs)


# --- suites ----------------------------------------------------------------------------------


def test_theorem_suite_names():
    assert sorted(SWEEPS) == [
        "definability",
        "flatness",
        "height",
        "isomorphism",
        "locality",
        "possibility",
        "translation",
        "upflat",
    ]


def test_flatness_suite_micro_grid():
    reports = run_suite("flatness", grid=GridConfig((2,), 2, max_depth=2, max_vars=1))
    assert all(r.ok for r in reports)
    assert all(r.mismatches == [] for r in reports)
    assert sum(r.checked for r in reports) > 0


def test_isomorphism_suite_micro_grid():
    reports = run_suite("isomorphism", grid=MICRO)
    assert all(r.ok for r in reports)
