"""Height, small witnesses, and the unboundedness witnesses for totality."""

import itertools

import pytest

from teamsem import (
    Model,
    Team,
    analyze,
    compute_height,
    evaluate,
    find_small_witness,
    min_atom_instances_lower_bound,
    parse,
    totality_unboundedness_witness,
)
from teamsem.analysis import AnalysisError
from teamsem.atoms import AtomError, AtomRegistry
from teamsem.syntax import And, DepAtom


def team(vars, *rows):
    return Team(tuple(vars), frozenset(tuple(r) for r in rows))


# --- height -------------------------------------------------------------------


def test_height_of_first_order_formulas():
    for text in ["P(x)", "A x. E y. x != y", "T"]:
        h = compute_height(parse(text))
        assert h.value == 0
        assert h.contributions == ()


def test_height_sums_atom_bounds():
    h = compute_height(parse("NE /\\ inconst(x)"))
    assert h.value == 3  # 1 + 2
    assert h.contributions == (("NE", 1), ("inconst(x)", 2))


def test_height_counts_instances_not_kinds():
    assert compute_height(parse("NE \\/ NE")).value == 2
    assert compute_height(parse("E x. big(2; x) /\\ nondep(x; x)")).value == 4


def test_height_constancy_contributes_zero():
    assert compute_height(parse("const(x) /\\ const(y)")).value == 0


def test_height_unbounded_marker():
    h = compute_height(parse("total(x)"))
    assert h.value is None
    assert h.contributions == (("total(x)", None),)
    assert compute_height(parse("NE /\\ total(x)")).value is None


def test_height_restriction_is_its_body():
    assert compute_height(parse("restrict(NE ; P(x))")).value == 1


def test_height_out_of_scope_atoms():
    with pytest.raises(AnalysisError):
        compute_height(parse("dep(x; y)"))
    with pytest.raises(AnalysisError):
        compute_height(parse("poss(NE)"))


def test_height_quantifiers_preserve():
    assert compute_height(parse("E x. A y. inconst(x)")).value == 2


def test_height_is_cached_per_registry():
    phi = And(DepAtom("some", (("x",),)), parse("NE"))
    heights = []
    for bound in (1, 2):
        reg = AtomRegistry()
        reg.register_custom("some", 1, parse("E x. R(x)"), upwards_closed=True, bound=bound)
        heights.append(compute_height(phi, reg).value)
    assert heights == [2, 3]


def test_height_failure_is_not_cached():
    phi = DepAtom("some", (("x",),))
    reg = AtomRegistry()
    with pytest.raises(AtomError, match="unknown atom some"):
        compute_height(phi, reg)
    reg.register_custom("some", 1, parse("E x. R(x)"), upwards_closed=True, bound=1)
    assert compute_height(phi, reg).value == 1


# --- small witnesses --------------------------------------------------------------


def test_small_witness_for_nonemptiness(m2_bare):
    X = team("x", ("a",), ("b",))
    Y = find_small_witness(m2_bare, X, parse("NE"))
    assert len(Y.rows) <= 1
    assert Y.rows <= X.rows
    assert evaluate(m2_bare, Y, parse("NE"))


def test_small_witness_for_first_order_is_empty(m2):
    X = team("x", ("a",))
    Y = find_small_witness(m2, X, parse("P(x)"))
    assert len(Y.rows) == 0


def test_small_witness_nondep_two_rows(m2_bare):
    X = team("xy", ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    phi = parse("nondep(x; y)")
    Y = find_small_witness(m2_bare, X, phi)
    assert len(Y.rows) <= 2
    assert evaluate(m2_bare, Y, phi)


def test_small_witness_respects_height_bound(m2_bare):
    # An exhaustive spot check over every satisfying team at small scale.
    phi = parse("NE /\\ inconst(x)")
    bound = compute_height(phi).value
    pool = [("a",), ("b",)]
    for size in range(len(pool) + 1):
        for combo in itertools.combinations(pool, size):
            X = Team(("x",), frozenset(combo))
            if evaluate(m2_bare, X, phi):
                Y = find_small_witness(m2_bare, X, phi)
                assert len(Y.rows) <= bound
                assert evaluate(m2_bare, Y, phi)


def test_small_witness_preconditions(m2_bare):
    with pytest.raises(AnalysisError):
        find_small_witness(m2_bare, team("x"), parse("NE"))  # not satisfied
    with pytest.raises(AnalysisError):
        find_small_witness(
            m2_bare, team("x", ("a",), ("b",)), parse("total(x)")
        )  # unbounded


# --- totality unboundedness --------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_totality_witness(n):
    m, X = totality_unboundedness_witness(n)
    assert len(m.domain) == n + 1
    phi = parse("total(x)")
    assert evaluate(m, X, phi)
    rows = sorted(X.rows)
    assert len(rows) == n + 1
    # No subteam of size <= n still covers the domain.
    for size in range(n + 1):
        for combo in itertools.combinations(rows, size):
            assert not evaluate(m, Team(("x",), frozenset(combo)), phi)


def test_totality_witness_rejects_nonpositive():
    with pytest.raises(AnalysisError):
        totality_unboundedness_witness(0)


# --- the instance-count lower bound ---------------------------------------------------


def test_min_atom_instances_lower_bound():
    assert min_atom_instances_lower_bound(5, 2) == 3
    assert min_atom_instances_lower_bound(1, 1) == 1
    assert min_atom_instances_lower_bound(3, 3) == 1
    assert min_atom_instances_lower_bound(0, 2) == 0
    with pytest.raises(AnalysisError):
        min_atom_instances_lower_bound(5, 0)


# --- the aggregate report ----------------------------------------------------------------


def test_analyze_without_a_model():
    report = analyze(parse("NE /\\ inconst(x)"))
    assert report["height"] == 3
    assert report["free_variables"] == ["x"]
    assert report["contributions"] == [
        {"atom": "NE", "bound": 1},
        {"atom": "inconst(x)", "bound": 2},
    ]
    assert "witness" not in report


def test_analyze_with_model_and_team(m2_bare):
    X = team("x", ("a",), ("b",))
    report = analyze(parse("NE"), m2_bare, X)
    assert report["satisfied"] is True
    assert report["witness_size"] == 1
    assert report["witness"]["rows"] == [["a"]]


def test_analyze_unsatisfied(m2_bare):
    report = analyze(parse("NE"), m2_bare, team("x"))
    assert report["satisfied"] is False
    assert "witness" not in report or report["witness"] is None
