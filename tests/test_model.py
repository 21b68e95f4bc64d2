"""Structures, teams, the team algebra, and the per-assignment evaluator."""

import itertools
import json

from hypothesis import given
from hypothesis import strategies as st

import pytest

from teamsem import Model, Relation, Team, parse
from teamsem.model import (
    EvalError,
    ModelError,
    SINGLETON_EMPTY_TEAM,
    compile_fo,
    duplicate,
    enumerate_choice_functions,
    enumerate_covers,
    subsets,
    supplement,
    tarski_eval,
    team_project,
    team_restrict,
)

def team(vars, *rows):
    return Team(tuple(vars), frozenset(tuple(r) for r in rows))


# --- construction invariants -------------------------------------------------


def test_model_requires_two_elements():
    with pytest.raises(ModelError):
        Model(("a",), {}, {})


def test_model_rejects_out_of_domain_values():
    with pytest.raises(ModelError):
        Model(("a", "b"), {"P": Relation(1, frozenset({("z",)}))}, {})
    with pytest.raises(ModelError):
        Model(("a", "b"), {}, {"c": "z"})
    with pytest.raises(ModelError):
        Model(("a", "b"), {"P": Relation(1, frozenset({("a", "b")}))}, {})


def test_team_rows_must_match_width():
    with pytest.raises(ModelError):
        Team(("x", "y"), frozenset({("a",)}))


def test_empty_team_and_singleton_empty_team_differ():
    empty = Team((), frozenset())
    assert empty != SINGLETON_EMPTY_TEAM
    assert len(SINGLETON_EMPTY_TEAM.rows) == 1
    assert len(empty.rows) == 0


# --- team algebra ------------------------------------------------------------


def test_team_restrict():
    X = team("xy", ("a", "b"), ("a", "c"))
    assert team_restrict(X, ("x",)) == team("x", ("a",))  # duplicates merge
    assert team_restrict(X, ("x", "y")) == X
    assert team_restrict(team("xy"), ("x",)) == team("x")
    with pytest.raises(EvalError):
        team_restrict(X, ("z",))


def test_team_project():
    assert team_project(team("x", ("a",), ("b",)), ("x",)) == {("a",), ("b",)}
    assert team_project(team("x"), ("x",)) == frozenset()
    # Repetition in the projection tuple is allowed.
    assert team_project(team("xy", ("a", "b")), ("x", "x", "y")) == {("a", "a", "b")}
    with pytest.raises(EvalError):
        team_project(team("x", ("a",)), ("y",))


def test_duplicate(m2_bare):
    assert duplicate(m2_bare, SINGLETON_EMPTY_TEAM, "x") == team("x", ("a",), ("b",))
    assert duplicate(m2_bare, Team(("x",), frozenset()), "y") == Team(
        ("x", "y"), frozenset()
    )
    # Duplicating an already-bound variable overwrites its column.
    X = team("x", ("a",))
    assert duplicate(m2_bare, X, "x") == team("x", ("a",), ("b",))


def test_supplement_constant_choice():
    X = team("x", ("a",), ("b",))
    H = {row: frozenset({("a",)}) for row in X.rows}
    assert supplement(X, H, ("y",)) == team("xy", ("a", "a"), ("b", "a"))


def test_supplement_mixed_choice():
    # H maps one row to one value and the other to two: 3 result rows.
    X = team("x", ("a",), ("b",))
    H = {("a",): frozenset({("a",)}), ("b",): frozenset({("a",), ("b",)})}
    assert supplement(X, H, ("y",)) == team(
        "xy", ("a", "a"), ("b", "a"), ("b", "b")
    )


def test_supplement_rejects_partial_or_empty_choice():
    X = team("x", ("a",), ("b",))
    with pytest.raises(EvalError):
        supplement(X, {("a",): frozenset({("a",)})}, ("y",))
    with pytest.raises(EvalError):
        supplement(
            X,
            {("a",): frozenset({("a",)}), ("b",): frozenset()},
            ("y",),
        )


def test_enumerate_covers_counts():
    assert list(enumerate_covers(team("x"))) == [(team("x"), team("x"))]
    assert len(list(enumerate_covers(team("x", ("a",))))) == 3
    pairs = list(enumerate_covers(team("x", ("a",), ("b",))))
    assert len(pairs) == 9
    assert len(set(pairs)) == 9
    for left, right in pairs:
        assert left.rows | right.rows == {("a",), ("b",)}


@given(st.integers(min_value=0, max_value=3))
def test_enumerate_covers_is_exhaustive(n):
    rows = [(str(i),) for i in range(n)]
    X = Team(("x",), frozenset(rows))
    assert len(list(enumerate_covers(X))) == 3 ** n


def test_enumerate_choice_functions_counts(m2_bare):
    one = team("x", ("a",))
    assert len(list(enumerate_choice_functions(one, m2_bare, 1))) == 3  # 2^2 - 1
    empty = Team(("x",), frozenset())
    assert list(enumerate_choice_functions(empty, m2_bare, 1)) == [{}]
    two = team("x", ("a",), ("b",))
    assert len(list(enumerate_choice_functions(two, m2_bare, 1))) == 9
    with pytest.raises(EvalError):
        next(enumerate_choice_functions(one, m2_bare, 0))


def test_subsets_order_and_caps():
    # unsorted input comes out sorted: by size, then in combinations order
    assert [sorted(s) for s in subsets("cab")] == [
        [], ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"], ["a", "b", "c"],
    ]
    assert all(isinstance(s, frozenset) for s in subsets("ab"))
    assert [sorted(s) for s in subsets("cab", low=1, high=2)] == [
        ["a"], ["b"], ["c"], ["a", "b"], ["a", "c"], ["b", "c"],
    ]
    assert [sorted(s) for s in subsets("ba", low=2)] == [["a", "b"]]
    assert list(subsets("ab", high=9)) == list(subsets("ab"))
    assert list(subsets("abc", high=-1)) == []
    assert list(subsets([])) == [frozenset()]
    assert list(subsets([], low=1)) == []


@given(st.integers(min_value=0, max_value=2), st.integers(min_value=1, max_value=2))
def test_choice_function_count_formula(rows, width):
    m = Model(("a", "b"), {}, {})
    X = Team(("x",), frozenset(("a" if i == 0 else "b",) for i in range(rows)))
    # (2^(|dom|^width) - 1)^|X| nonempty value sets per row.
    expected = (2 ** (len(m.domain) ** width) - 1) ** rows
    assert sum(1 for _ in enumerate_choice_functions(X, m, width)) == expected


# --- the per-assignment evaluator ---------------------------------------------


def test_tarski_eval_basics(m2):
    assert tarski_eval(m2, {"x": "a"}, parse("P(x)"))
    assert not tarski_eval(m2, {"x": "b"}, parse("P(x)"))
    assert tarski_eval(m2, {"x": "a"}, parse("E y. y != x"))
    assert tarski_eval(m2, {}, parse("A x. E y. y != x"))


def test_tarski_eval_binary_relation(m3):
    # R = {(a,b),(b,c),(c,a)} is a 3-cycle: every node has a successor.
    assert tarski_eval(m3, {}, parse("A x. E y. R(x, y)"))
    assert not tarski_eval(m3, {}, parse("E x. R(x, x)"))
    assert tarski_eval(m3, {"x": "a"}, parse("x = c0", constants=("c0",)))


def test_tarski_eval_errors(m2):
    with pytest.raises(EvalError):
        tarski_eval(m2, {}, parse("P(x)"))  # unbound variable
    with pytest.raises(EvalError):
        tarski_eval(m2, {"x": "a"}, parse("Q(x)"))  # unknown relation


_fo_texts = st.sampled_from(
    [
        "P(x)",
        "!P(x) \\/ x = y",
        "P(x) /\\ P(y)",
        "E z. z != x /\\ z != y",
        "A z. P(z) \\/ z = x \\/ z = y",
        "x = y \\/ (P(x) /\\ !P(y))",
    ]
)


@given(_fo_texts, st.sampled_from(["a", "b"]), st.sampled_from(["a", "b"]))
def test_compile_fo_matches_tarski(text, vx, vy):
    m = Model(("a", "b"), {"P": Relation(1, frozenset({("a",)}))}, {})
    phi = parse(text)
    fn = compile_fo(m, phi, {"x": 0, "y": 1}, 2)
    assert fn([vx, vy], {}) == tarski_eval(m, {"x": vx, "y": vy}, phi)


# --- serialization -----------------------------------------------------------


def test_model_json_round_trip(m3):
    blob = m3.to_json()
    assert Model.from_json(blob) == m3
    data = json.loads(blob)
    assert set(data) == {"domain", "constants", "relations"}
    assert data["relations"]["R"]["arity"] == 2


def test_team_json_round_trip():
    X = team("xy", ("a", "b"), ("b", "b"))
    assert Team.from_json(X.to_json()) == X
    data = json.loads(X.to_json())
    assert data["vars"] == ["x", "y"]
    assert sorted(data["rows"]) == [["a", "b"], ["b", "b"]]


def test_team_json_is_canonical():
    # Serialization sorts rows, so equal teams serialize identically.
    a = team("x", ("a",), ("b",))
    b = team("x", ("b",), ("a",))
    assert a.to_json() == b.to_json()


# --- cross-operation properties ------------------------------------------------


@given(st.sets(st.sampled_from(["a", "b", "c"]), max_size=3))
def test_project_commutes_with_restrict(values):
    X = Team(("x", "y"), frozenset((v, "a") for v in values))
    assert team_project(X, ("x",)) == team_project(team_restrict(X, ("x",)), ("x",))


def test_duplicate_then_restrict_recovers_projection(m2_bare):
    X = team("x", ("a",))
    Y = duplicate(m2_bare, X, "y")
    assert team_restrict(Y, ("x",)) == X
