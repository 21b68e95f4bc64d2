"""Structures, teams, the team algebra, and the first-order engine."""

import itertools
import json

from hypothesis import given
from hypothesis import strategies as st

import pytest

from fo_reference import reference_eval
from teamsem import Model, Relation, Team, parse
from teamsem.harness import (
    DEFAULT_TRANSLATION_ATOMS,
    enumerate_models,
    enumerate_teams,
    generate_formulas,
)
from teamsem.model import (
    EvalError,
    ModelError,
    SINGLETON_EMPTY_TEAM,
    _prepared,
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
from teamsem.syntax import (
    FALSE,
    TRUE,
    And,
    Const,
    DepAtom,
    EqLit,
    Exists,
    Forall,
    Or,
    RelLit,
    Var,
    free_variables,
    subformulas,
)
from teamsem.translator import translate

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


# --- the first-order engine ----------------------------------------------------


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


def test_both_entry_points_reject_an_unbound_variable_before_rewriting(m2):
    # x = x simplifies to T, which would hide z if the check came later
    phi = parse("x = x \\/ z = x")
    with pytest.raises(EvalError, match="^unbound variable z$"):
        tarski_eval(m2, {"x": "a"}, phi)
    with pytest.raises(EvalError, match="^unbound variable z$"):
        compile_fo(m2, phi, ("x",))
    with pytest.raises(EvalError, match="^unknown constant c9$"):
        tarski_eval(m2, {}, parse("c9 = c9", constants=("c9",)))


def test_both_entry_points_raise_an_unknown_relation_when_run(m2):
    phi = parse("P(x) \\/ Q(x)")
    assert tarski_eval(m2, {"x": "a"}, phi)  # P(a) holds, Q is never reached
    with pytest.raises(EvalError, match="^unknown relation Q$"):
        tarski_eval(m2, {"x": "b"}, phi)
    run = compile_fo(m2, phi, ("x",))  # compiling does not look Q up
    assert run(["b"], {"Q": frozenset({("b",)})})
    with pytest.raises(EvalError, match="^unknown relation Q$"):
        run(["b"])


def test_an_unknown_relation_raises_at_the_guard_that_loops_over_it(m2):
    # neither guard's relation exists: each run raises when its block
    # starts, before the rest of the spine could answer
    for text in ("E y. (Q(x, y) /\\ P(y))", "E y. ((E z. Q(z, y)) /\\ P(y))", "A y. (!Q(y, x) \\/ F)"):
        run = compile_fo(m2, parse(text), ("x",))
        with pytest.raises(EvalError, match="^unknown relation Q$"):
            run(["a"])
        pairs = frozenset({("a", "a"), ("b", "a")})
        assert run(["a"], {"Q": pairs}) == reference_eval(m2, {"x": "a"}, parse(text), {"Q": pairs})


def test_one_compiled_formula_serves_every_model_over_its_domain():
    # the closures are kept per domain: each run must read its own model's
    # relations and constants, never those of the model compiled first
    phi = parse("E y. (R(c0, y) /\\ P(y) /\\ y != x) /\\ (A y. (A z. !R(z, y)) \\/ y != c0 \\/ !P(y))", constants=("c0",))
    r = Relation(2, frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
    left = Model(("a", "b", "c"), {"P": Relation(1, frozenset({("b",)})), "R": r}, {"c0": "a"})
    right = Model(("a", "b", "c"), {"P": Relation(1, frozenset({("a",), ("c",)})), "R": r}, {"c0": "b"})
    runs = [(model, compile_fo(model, phi, ("x",))) for model in (left, right, left)]
    assert len(_prepared(phi)[4]) == 1  # one domain, one set of closures
    answers = []
    for model, run in runs:
        answers.append([run([x]) for x in model.domain])
        assert answers[-1] == [reference_eval(model, {"x": x}, phi) for x in model.domain]
    assert answers == [[True, False, True], [True, True, False], [True, False, True]]


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
    fn = compile_fo(m, phi, ("x", "y"))
    assert fn([vx, vy], {}) == reference_eval(m, {"x": vx, "y": vy}, phi)


def test_compile_fo_keeps_constant_and_quantifier_slots_apart(m3):
    # the constant's slot follows x's: the quantifier must not share it
    phi = parse("E y. y != c0 /\\ R(x, y) /\\ x = c0", constants=("c0",))
    run = compile_fo(m3, phi, ("x",))
    for x in m3.domain:
        assert run([x]) == reference_eval(m3, {"x": x}, phi)
    assert run(["a"])


# The engine against the reference on random formulas over a 3-element
# model: binder names x, y, z are reused (so capture matters), and the
# one-point and guard shapes the engine rewrites are drawn on purpose, over
# the static relations R and Q and the supplied relation S.
M3 = Model(
    ("a", "b", "c"),
    {
        "P": Relation(1, frozenset({("a",), ("c",)})),
        "R": Relation(2, frozenset({("a", "b"), ("b", "c"), ("c", "a"), ("b", "b")})),
        "Q": Relation(3, frozenset({("a", "a", "b"), ("b", "a", "c"), ("c", "b", "b"), ("a", "c", "c")})),
    },
    {"c0": "a"},
)
_VARS = ("x", "y", "z")
_var = st.sampled_from(_VARS)
_terms = st.one_of(st.builds(Var, _var), st.just(Const("c0")))
_binary = st.sampled_from(("R", "S"))
_leaves = st.one_of(
    st.sampled_from((TRUE, FALSE)),
    st.builds(lambda sign, t: RelLit("P", sign, (t,)), st.booleans(), _terms),
    st.builds(lambda n, sign, a, b: RelLit(n, sign, (a, b)), _binary, st.booleans(), _terms, _terms),
    st.builds(EqLit, st.booleans(), _terms, _terms),
)


def _compound(inner):
    return st.one_of(
        st.builds(Or, inner, inner),
        st.builds(And, inner, inner),
        st.builds(Exists, _var, inner),
        st.builds(Forall, _var, inner),
        st.builds(lambda v, t, b: Forall(v, Or(b, EqLit(False, Var(v), t))), _var, _terms, inner),
        st.builds(lambda v, t, b: Exists(v, And(EqLit(True, t, Var(v)), b)), _var, _terms, inner),
        st.builds(lambda v, w, t, b: Exists(v, Exists(w, And(b, EqLit(True, Var(v), t)))), _var, _var, _terms, inner),
        st.builds(lambda v, w, t, b: Forall(v, Forall(w, Or(EqLit(False, t, Var(v)), b))), _var, _var, _terms, inner),
        st.builds(
            lambda n, v, w, b: Forall(v, Forall(w, Or(RelLit(n, False, (Var(v), Var(w))), b))),
            _binary, _var, _var, inner,
        ),
        st.builds(
            lambda n, v, w, b: Exists(v, Exists(w, And(b, RelLit(n, True, (Var(w), Var(v)))))),
            _binary, _var, _var, inner,
        ),
        # bound-argument guards: the other argument is an outer variable,
        # c0, or the bound variable itself (a repeated variable guards nothing)
        st.builds(lambda n, v, t, b: Exists(v, And(RelLit(n, True, (t, Var(v))), b)), _binary, _var, _terms, inner),
        st.builds(lambda n, v, t, b: Forall(v, Or(b, RelLit(n, False, (Var(v), t)))), _binary, _var, _terms, inner),
        # semi-join guards: E w. S(w, v) under E, A w. !S(v, w) under A
        st.builds(
            lambda n, v, w, b: Exists(v, And(b, Exists(w, RelLit(n, True, (Var(w), Var(v)))))),
            _binary, _var, _var, inner,
        ),
        st.builds(
            lambda n, v, w, b: Forall(v, Or(Forall(w, RelLit(n, False, (Var(v), Var(w)))), b)),
            _binary, _var, _var, inner,
        ),
        st.builds(
            lambda v, w, t, b: Exists(v, Exists(w, And(Exists(w, RelLit("Q", True, (Var(v), t, Var(w)))), b))),
            _var, _var, _terms, inner,
        ),
    )


_fo_formulas = st.recursive(_leaves, _compound, max_leaves=10)
_pairs = st.frozensets(st.tuples(st.sampled_from(M3.domain), st.sampled_from(M3.domain)))


def assert_engine_matches_reference(model, phi, rels):
    xs = tuple(sorted(free_variables(phi)))
    run = compile_fo(model, phi, xs)
    for values in itertools.product(model.domain, repeat=len(xs)):
        want = reference_eval(model, dict(zip(xs, values)), phi, rels)
        assert run(list(values), rels) == want, (str(phi), values)


@given(_fo_formulas, _pairs)
def test_engine_matches_the_reference_on_random_formulas(phi, s):
    assert_engine_matches_reference(M3, phi, {"S": s})


@pytest.mark.parametrize(
    "text",
    [
        "A y. (y != x \\/ (E x. R(x, y)))",  # substituting x for y renames the inner x
        "E y. (y = x /\\ (A x. !R(y, x) \\/ P(x)))",
        "A x. A y. (x != y \\/ !R(x, y) \\/ (A y. R(y, x)))",
        "E x. E y. (R(y, x) /\\ S(x, y) /\\ (E x. x = y))",
        "A x. A x. (!S(x, x) \\/ P(x))",  # a repeated binder ends the block
        "A z. (!R(x, z) \\/ z != y \\/ P(z))",
        "A x. A y. (!S(x, y) \\/ F)",  # an empty guarded block
        "E x. E y. (x = y /\\ R(x, y))",  # one point: E x. E y. x = y is E y
        "E y. E x. (y = x /\\ (E x. R(y, x)))",  # ... and substituting x renames the inner x
        "A y. A z. (y != z \\/ !R(z, y) \\/ P(y))",
        "A y. A y. (y != x \\/ P(y))",  # the inner y is another variable
        "E y. (R(x, y) /\\ !P(y))",  # a bound argument: an outer variable
        "A y. (!R(y, c0) \\/ P(y))",  # a bound argument: a constant
        "A z. (!Q(x, z, x) \\/ z = y)",  # a bound argument twice
        "E y. (R(y, y) /\\ P(y))",  # a repeated variable guards nothing
        "E y. E z. (S(z, z) /\\ R(y, z))",  # ... but another literal may
        "E y. ((E z. S(z, y)) /\\ P(y))",  # a semi-join under E
        "A y. ((A z. !S(y, z)) \\/ !P(y))",  # a semi-join under A
        "E y. E z. ((E x. R(x, y)) /\\ (E x. R(x, z)) /\\ y != z)",  # inconst's shape
        "E y. ((E y. R(y, x)) /\\ P(y))",  # the part rebinds y: no guard
        "E y. ((E z. R(z, z)) /\\ P(y))",  # binds no chain variable
        "E y. E z. ((E x. Q(x, y, c0)) /\\ S(y, z))",  # the literal binds more
        "E y. E z. ((E x. Q(x, z, y)) /\\ S(z, x))",  # semi-join binds two, S fixes x
        "A y. A z. ((A w. A w. !Q(w, y, z)) \\/ P(y))",  # a repeated inner binder
        "E y. ((E z. Q(z, x, y)) /\\ !P(y))",  # a semi-join with an outer variable
        "A y. ((A z. !Q(y, c0, z)) \\/ !P(y) \\/ y = c0)",  # a semi-join with a constant
    ],
)
def test_engine_capture_and_guard_cases(text):
    s = frozenset({("a", "b"), ("c", "c")})
    assert_engine_matches_reference(M3, parse(text, constants=("c0",)), {"S": s})


def test_engine_matches_the_reference_on_the_translation_corpus():
    # the raw criterion-01 sentences on 2-element models, teams of at most
    # one row, the team relation supplied per team
    corpus = generate_formulas(DEFAULT_TRANSLATION_ATOMS, {"P": 1}, 3, ("x", "y"))
    assert len(corpus) == 219
    for phi in corpus:
        xs = tuple(sorted(free_variables(phi))) or ("x",)
        result = translate(phi, xs)
        for model in enumerate_models({"P": 1}, 2):
            run = compile_fo(model, result.sentence, ())
            for team in enumerate_teams(model, xs, 1):
                rels = {result.relation: team_project(team, xs)}
                assert run([], rels) == reference_eval(model, {}, result.sentence, rels), (
                    str(phi), model.relations, team.rows,
                )


def test_engine_matches_the_reference_where_the_translation_corpus_guards():
    # the criterion-01 sentences with the atoms that translate to "k
    # distinct tuples of the team relation", where semi-join and
    # bound-argument guards fire, at the benchmark's scale: 3-element
    # models, teams of up to two rows.  The reference reads the rewritten
    # sentence (the raw one costs it seconds each); the test above checks
    # the engine, rewrite included, against the raw sentences.
    corpus = generate_formulas(DEFAULT_TRANSLATION_ATOMS, {"P": 1}, 3, ("x", "y"))
    guarded = [
        phi for phi in corpus
        if any(isinstance(n, DepAtom) and n.name in ("inconst", "big", "nondep", "nonexcl") for n in subformulas(phi))
    ]
    assert len(guarded) == 154
    for phi in guarded:
        xs = tuple(sorted(free_variables(phi))) or ("x",)
        result = translate(phi, xs)
        rewritten = _prepared(result.sentence)[3]
        for model in enumerate_models({"P": 1}, 3):
            run = compile_fo(model, result.sentence, ())
            for team in enumerate_teams(model, xs, 2):
                rels = {result.relation: team_project(team, xs)}
                assert run([], rels) == reference_eval(model, {}, rewritten, rels), (
                    str(phi), model.relations, team.rows,
                )


def test_the_rewrite_simplifies_before_the_one_point_rule_sees_a_parent():
    # the translation of big(2; y) under a dead E x leaves, per witness,
    # E y. E _v0. _dg00 = y /\ (R(y) /\ T): the dead _v0 hides the equality
    # unless it goes first
    result = translate(parse("E x. big(2; y)"), ("y",))
    assert str(_prepared(result.sentence)[3]) == "E _dg00. E _dg10. R(_dg00) /\\ R(_dg10) /\\ _dg00 != _dg10"
    # the rule sees an equality through the block: the projection of total(x)
    result = translate(parse("total(x)"), ("x", "y"))
    assert str(result.sentence) == "A _da0. E x. E y. _da0 = x /\\ R(x, y)"
    assert str(_prepared(result.sentence)[3]) == "A _da0. E y. R(_da0, y)"


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
