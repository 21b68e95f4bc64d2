"""The lax team-semantics evaluator, in all three modes."""

import gc
import itertools
import sys
import weakref

from hypothesis import given
from hypothesis import strategies as st

import pytest

from teamsem import Model, Relation, Team, evaluate, evaluator, harness, parse, sentence_true, syntax
from teamsem.atoms import AtomRegistry, DEFAULT_REGISTRY
from teamsem.evaluator import EvalStats, Evaluator, MODES, downward_closed, upward_fragment
from teamsem.model import EvalError, SINGLETON_EMPTY_TEAM, tarski_eval
from teamsem.syntax import And, count_nodes, free_variables
from teamsem.translator import desugar_possibility


def team(vars, *rows):
    return Team(tuple(vars), frozenset(tuple(r) for r in rows))


def all_teams(model, vars, max_rows):
    pool = list(itertools.product(model.domain, repeat=len(vars)))
    for size in range(min(max_rows, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            yield Team(tuple(vars), frozenset(combo))


# --- sentences ----------------------------------------------------------------


def test_two_elements_force_an_unequal_pair(m2, m3):
    phi = parse("E x. E y. x != y")
    for m in (m2, m3):
        assert sentence_true(m, phi)


def test_sentence_examples(m2):
    assert sentence_true(m2, parse("E x. P(x)"))
    assert not sentence_true(m2, parse("A x. P(x)"))
    assert sentence_true(m2, parse("NE"))  # the singleton empty team is nonempty
    assert sentence_true(m2, parse("A x. total(x)"))


def test_sentence_true_rejects_free_variables(m2):
    with pytest.raises(EvalError):
        sentence_true(m2, parse("P(x)"))


# --- the empty team and degenerate teams ----------------------------------------


def test_empty_team_satisfies_all_first_order(m2):
    empty = Team(("x",), frozenset())
    for text in ["P(x)", "!P(x)", "x != x", "F", "A y. P(y)", "E y. x = y"]:
        assert evaluate(m2, empty, parse(text))


def test_empty_team_atoms(m2):
    empty = Team(("x", "y"), frozenset())
    assert not evaluate(m2, empty, parse("NE"))
    assert evaluate(m2, empty, parse("dep(x; y)"))
    assert evaluate(m2, empty, parse("const(x)"))
    assert not evaluate(m2, empty, parse("inconst(x)"))
    assert not evaluate(m2, empty, parse("poss(T)"))  # no nonempty subteam


def test_empty_team_differs_from_singleton_empty(m2):
    assert evaluate(m2, SINGLETON_EMPTY_TEAM, parse("NE"))
    assert not evaluate(m2, Team((), frozenset()), parse("NE"))


# --- frozen verdicts -------------------------------------------------------------


@pytest.mark.parametrize("mode", MODES)
def test_inclusion_with_reversed_noninclusion(mode, m2_bare):
    # X(x) = {a,b}, X(y) = {a}: inclusion of x in y already fails, and
    # {a} is included in {a,b} so its non-inclusion fails too.
    X = team("xy", ("a", "a"), ("b", "a"))
    assert not evaluate(m2_bare, X, parse("incl(x; y)"), mode=mode)
    assert not evaluate(m2_bare, X, parse("nonincl(y; x)"), mode=mode)
    assert not evaluate(
        m2_bare, X, parse("incl(x; y) /\\ nonincl(y; x)"), mode=mode
    )


@pytest.mark.parametrize("mode", MODES)
def test_disjunction_splits_the_team(mode, m2):
    # Neither disjunct holds on the whole team, but the split works.
    X = team("x", ("a",), ("b",))
    assert evaluate(m2, X, parse("P(x) \\/ !P(x)"), mode=mode)
    assert not evaluate(m2, X, parse("P(x)"), mode=mode)
    assert not evaluate(m2, X, parse("dep(x; x) /\\ P(x)"), mode=mode)


@pytest.mark.parametrize("mode", MODES)
def test_existential_uses_nonempty_value_sets(mode, m2):
    X = team("x", ("a",), ("b",))
    assert evaluate(m2, X, parse("E y. P(y)"), mode=mode)
    assert evaluate(m2, X, parse("E y. dep(x; y)"), mode=mode)
    assert not evaluate(m2, X, parse("E y. y != x /\\ P(y)"), mode=mode)


def test_possibility_direct_rule(m2):
    X = team("x", ("a",), ("b",))
    assert evaluate(m2, X, parse("poss(P(x))"))
    assert not evaluate(m2, team("x", ("b",)), parse("poss(P(x))"))
    # A possible subteam may be strict: total(x) needs both rows.
    assert evaluate(m2, X, parse("poss(total(x))"))


def test_restriction_direct_rule(m2):
    X = team("x", ("a",), ("b",))
    assert evaluate(m2, X, parse("restrict(NE ; P(x))"))
    assert not evaluate(m2, team("x", ("b",)), parse("restrict(NE ; P(x))"))
    assert evaluate(m2, X, parse("restrict(dep(x; x) ; P(x))"))


# --- flatness ---------------------------------------------------------------------


_fo_corpus = [
    "P(x)",
    "!P(x) \\/ x = y",
    "P(x) /\\ (P(y) \\/ x != y)",
    "E z. z != x /\\ z != y",
    "A z. z = x \\/ z = y \\/ !P(z)",
]


@given(
    st.sampled_from(_fo_corpus),
    st.sets(st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=4),
)
def test_first_order_formulas_are_flat(text, rows):
    m = Model(("a", "b"), {"P": Relation(1, frozenset({("a",)}))}, {})
    X = Team(("x", "y"), frozenset(rows))
    phi = parse(text)
    pointwise = all(tarski_eval(m, s, phi) for s in X.assignments())
    for mode in MODES:
        assert evaluate(m, X, phi, mode=mode) == pointwise


# --- mode agreement -----------------------------------------------------------------


_mixed_corpus = [
    "NE \\/ P(x)",
    "dep(x; y) \\/ dep(y; x)",
    "incl(x; y) /\\ nonincl(y; x)",
    "E z. dep(z; x) /\\ inconst(y)",
    "A z. incl(z; x) \\/ NE",
    "poss(P(x) /\\ NE)",
    "restrict(inconst(x) ; P(x))",
    "E z. const(z) /\\ nonexcl(x; z)",
    "total(x) \\/ total(y)",
    "big(2; x) /\\ excl(x; y)",
    "indep(x; y) \\/ noncindep(x; y | x)",
]


@pytest.mark.parametrize("text", _mixed_corpus)
def test_three_modes_agree(text, m2):
    phi = parse(text)
    for X in all_teams(m2, ("x", "y"), 3):
        verdicts = {mode: evaluate(m2, X, phi, mode=mode) for mode in MODES}
        assert len(set(verdicts.values())) == 1, (text, sorted(X.rows), verdicts)


def test_possibility_desugar_equivalence(m2):
    for text in ["P(x)", "NE", "dep(x; y)", "P(x) /\\ inconst(y)"]:
        phi = parse(f"poss({text})")
        expanded = desugar_possibility(phi)
        for X in all_teams(m2, ("x", "y"), 3):
            assert evaluate(m2, X, phi) == evaluate(m2, X, expanded), (
                text,
                sorted(X.rows),
            )


# --- downwards closure of the dependence fragment -------------------------------------


@given(st.sets(st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=4))
def test_dependence_fragment_downwards_closed(rows):
    m = Model(("a", "b"), {"P": Relation(1, frozenset({("a",)}))}, {})
    X = Team(("x", "y"), frozenset(rows))
    for text in ["dep(x; y)", "const(x) \\/ dep(y; x)", "E z. dep(x; z) /\\ P(z)"]:
        phi = parse(text)
        if evaluate(m, X, phi):
            for size in range(len(rows)):
                for sub in itertools.combinations(rows, size):
                    assert evaluate(m, Team(("x", "y"), frozenset(sub)), phi)


# --- statistics and witnesses ------------------------------------------------------------


def test_stats_literal_explores_no_covers(m2):
    ev = Evaluator(m2)
    ok, stats = ev.evaluate_with_stats(parse("P(x)"), team("x", ("a",)))
    assert ok
    assert stats["covers"] == 0
    assert stats["tarski_rows"] >= 1


@pytest.mark.parametrize("mode", MODES)
def test_stats_disjunction_cover_bound(mode, m2):
    ev = Evaluator(m2, mode=mode)
    ok, stats = ev.evaluate_with_stats(parse("T \\/ T"), team("x", ("a",), ("b",)))
    assert ok
    assert stats["covers"] <= 9  # 3^2 ordered covers of a 2-row team


def test_stats_agree_with_plain_eval(m2):
    for text in _mixed_corpus[:4]:
        phi = parse(text)
        X = team("xy", ("a", "a"), ("b", "a"))
        ok, _ = Evaluator(m2).evaluate_with_stats(phi, X)
        assert ok == evaluate(m2, X, phi)


def test_evaluate_with_stats_zeroes_the_one_stats_object(m2):
    ev, phi, X = Evaluator(m2), parse("P(x) \\/ !P(x)"), team("x", ("a",), ("b",))
    stats = ev.stats
    _, first = ev.evaluate_with_stats(phi, X)
    assert first["nodes"] > 0
    # the second call only reads the root's memo, and reports that alone
    _, second = ev.evaluate_with_stats(phi, X)
    assert second == dict.fromkeys(first, 0) | {"memo_hits": 1}
    assert ev.stats is stats and stats.as_dict() == second
    with pytest.raises(AttributeError):
        ev.stats = EvalStats()


def test_witness_kinds(m2):
    ev = Evaluator(m2)
    X = team("x", ("a",), ("b",))
    assert ev.witness(parse("P(x)"), team("x", ("a",)))["kind"] == "holds"
    assert ev.witness(parse("NE \\/ P(x)"), X)["kind"] == "split"
    assert ev.witness(parse("E y. P(y)"), X)["kind"] == "choice"
    assert ev.witness(parse("poss(P(x))"), X)["kind"] == "subteam"
    assert ev.witness(parse("F"), X) is None


def test_witness_split_parts_cover_team(m2):
    X = team("x", ("a",), ("b",))
    wit = Evaluator(m2).witness(parse("P(x) \\/ !P(x)"), X)
    rows = {tuple(r) for r in wit["left"]} | {tuple(r) for r in wit["right"]}
    assert rows == X.rows


# --- fast-mode gate ------------------------------------------------------------------------


def test_upward_fragment_gate():
    reg = DEFAULT_REGISTRY
    assert upward_fragment(parse("NE /\\ total(x)"), reg)
    assert upward_fragment(parse("E y. inconst(y) \\/ P(x)"), reg)
    assert not upward_fragment(parse("dep(x; y)"), reg)
    assert not upward_fragment(parse("NE /\\ incl(x; y)"), reg)
    # Possibility passes as a unit regardless of its body.
    assert upward_fragment(parse("poss(dep(x; y))"), reg)
    # Restriction is judged by its body alone.
    assert upward_fragment(parse("restrict(NE ; P(x))"), reg)
    assert not upward_fragment(parse("restrict(dep(x; y) ; P(x))"), reg)


def test_downward_closed_gate():
    reg = DEFAULT_REGISTRY
    assert downward_closed(parse("P(x) /\\ (E y. (dep(x; y) \\/ const(y)))"), reg)
    assert downward_closed(parse("A y. restrict(excl(x; y) ; P(y))"), reg)
    assert not downward_closed(parse("dep(x; y) /\\ NE"), reg)
    assert not downward_closed(parse("incl(x; y)"), reg)
    # possibility does not keep the property, even over a first-order body
    assert not downward_closed(parse("poss(P(x))"), reg)


# each rule for a split off the upward fragment, with theta (the first-order
# or downwards closed side) on either side, and splits nested under other nodes
_DOWNWARD_SPLITS = [
    # theta first-order, psi downwards closed: one evaluation
    "dep(x; y) \\/ P(y)",
    "x = y \\/ excl(x; y)",
    "const(x) \\/ (P(x) /\\ x != y)",
    # theta first-order, psi not downwards closed: a search
    "(NE /\\ dep(x; y)) \\/ P(x)",
    "x != y \\/ incl(x; y)",
    # theta downwards closed but not first-order
    "excl(x; y) \\/ NE",
    "NE \\/ dep(y; x)",
    "const(x) \\/ const(y)",
    "incl(y; x) \\/ dep(x; y)",
    "poss(x = y) \\/ excl(x; y)",
    # neither side downwards closed: subteam tables
    "incl(x; y) \\/ incl(y; x)",
    "(NE /\\ dep(x; y)) \\/ incl(y; x)",
    # nested
    "E z. (dep(x; z) \\/ P(z))",
    "E z. (z != y /\\ (NE \\/ excl(x; z)))",
    "A z. (z = x \\/ dep(y; z))",
    "A z. (incl(z; x) \\/ dep(x; z))",
    "restrict(P(y) \\/ dep(x; y) ; x != y)",
    "restrict(const(y) \\/ const(x) ; P(x))",
    "(dep(x; y) \\/ P(y)) \\/ (excl(x; y) \\/ NE)",
]


@pytest.mark.parametrize("text", _DOWNWARD_SPLITS)
def test_splits_with_a_downwards_closed_side_agree_with_oracle(text, m3):
    # every team of at most 4 rows over a 3-element domain
    phi = parse(text)
    fast, oracle = Evaluator(m3, mode="fast"), Evaluator(m3, mode="oracle")
    for X in all_teams(m3, "xy", 4):
        assert fast.evaluate(phi, X) == oracle.evaluate(phi, X), sorted(X.rows)


def test_a_split_with_a_first_order_side_is_decided_on_40_rows():
    model = Model(tuple(f"e{i:02}" for i in range(40)), {"P": Relation(1, frozenset({("e00",)}))}, {})
    # e00 with 20 values of y, and 20 other values of x with one y each
    rows = [("e00", f"e{j:02}") for j in range(20)] + [(f"e{i:02}", "e00") for i in range(1, 21)]
    phi, ev = parse("dep(x; y) \\/ P(x)"), Evaluator(model)
    # one evaluation of dep on the rows where P fails
    assert ev.evaluate(phi, team("xy", *rows))
    assert (ev.stats.nodes, ev.stats.subsets) == (2, 0)
    # a second value of y for e01 breaks the dependence
    assert not ev.evaluate(phi, team("xy", *rows[:-1], ("e01", "e01")))


def test_a_split_with_a_downwards_closed_side_stops_at_its_first_candidate_on_40_rows():
    model = Model(tuple(f"e{i:02}" for i in range(40)), {}, {})
    rows = [(f"e{i:02}", f"e{i % 7:02}") for i in range(40)]
    # the first candidate keeps every row on the left: NE holds there and
    # excl on the empty rest
    ev = Evaluator(model)
    assert ev.evaluate(parse("excl(x; y) \\/ NE"), team("xy", *rows))
    assert ev.stats.subsets == 1


# --- errors ----------------------------------------------------------------------------------


def test_eval_errors(m2):
    with pytest.raises(EvalError):
        evaluate(m2, team("x", ("a",)), parse("P(y)"))  # y not in the team
    with pytest.raises(EvalError):
        evaluate(m2, team("x", ("a",)), parse("Q(x)"))  # unknown relation
    with pytest.raises(ValueError):
        evaluate(m2, team("x", ("a",)), parse("P(x)"), mode="psychic")


@pytest.mark.parametrize("mode", MODES)
def test_repeated_evaluation_compiles_the_root_once(m2, mode):
    # the compiled root keeps its node alive, so its id stays its key
    ev = Evaluator(m2, mode=mode)
    compiled, compile_node = [], ev._compile
    ev._compile = lambda node, vars: compiled.append((node, vars)) or compile_node(node, vars)
    phi = parse("NE \\/ dep(x; y)")
    for X in all_teams(m2, "xy", 2):
        ev.evaluate(phi, X)
        ev.evaluate(phi, X)
    ev.witness(phi, team("xy", ("a", "a"), ("b", "a")))
    assert [vars for node, vars in compiled if node is phi] == [("x", "y")]


@pytest.mark.parametrize("mode", MODES)
def test_dropped_formulas_leave_nothing_for_their_reused_ids(m2, mode):
    # each formula is parsed afresh and dropped after use, so later nodes
    # take over its ids; those with y free fail on a team over x alone
    texts = [
        "P(x) \\/ P(y)",
        "P(x) /\\ NE",
        "E y. (P(y) \\/ x = y)",
        "dep(x; y) \\/ !P(x)",
        "A y. (P(x) \\/ !P(y))",
        "poss(P(x) /\\ x != y)",
        "restrict(NE ; P(x))",
    ]
    X = team("x", ("a",), ("b",))

    def outcome(ev, text):
        try:
            return ev.evaluate(parse(text), X)
        except EvalError as err:
            return str(err)

    ev = Evaluator(m2, mode=mode)
    for i in range(200):
        text = texts[i % len(texts)]
        assert outcome(ev, text) == outcome(Evaluator(m2, mode=mode), text), (i, text)


def test_compiling_asks_syntax_once_per_node(m2):
    # every node of a deep conjunction is compiled, each with its free
    # variables; they come from the children's, not from a walk of the subtree
    phi = parse(" /\\ ".join(["P(x)", "P(y)"] * 25))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename == syntax.__file__:
            calls += 1

    ev = Evaluator(m2)
    sys.setprofile(count)
    try:
        ev.evaluate(phi, team("xy", ("a", "b"), ("b", "b")))
    finally:
        sys.setprofile(None)
    assert count_nodes(phi) == 99
    assert calls <= 8 * count_nodes(phi)


def test_memoization_is_stable(m2):
    ev = Evaluator(m2)
    phi = parse("NE \\/ dep(x; y)")
    X = team("xy", ("a", "a"), ("b", "a"))
    first = ev.evaluate(phi, X)
    assert ev.evaluate(phi, X) == first == evaluate(m2, X, phi, mode="naive")


@pytest.mark.parametrize(
    "mode, text",
    [
        ("oracle", "A u. A v. (v = u \\/ dep(u; v))"),
        # fast mode splits off a first-order side without tables, but
        # incl is neither upwards nor downwards closed
        ("fast", "A u. A v. (incl(u; v) \\/ incl(v; u))"),
    ],
    ids=["oracle", "fast"],
)
def test_a_split_over_too_many_rows_is_an_eval_error(mode, text):
    # 1600 rows would need a table of 2^1600 entries
    model = Model(tuple(f"e{i}" for i in range(40)), {}, {})
    with pytest.raises(EvalError, match="split over 1600 rows .* limit is 20 rows"):
        Evaluator(model, mode=mode).sentence_true(parse(text))
    if mode == "fast":
        # one evaluation of dep on the 1560 rows where v = u fails
        assert not Evaluator(model, mode=mode).sentence_true(parse("A u. A v. (v = u \\/ dep(u; v))"))


def test_the_split_limit_counts_the_rows_of_the_split(m2, monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 2)
    phi = parse("P(x) \\/ dep(y; x)")
    ev = Evaluator(m2, mode="oracle")
    assert ev.evaluate(phi, team("xy", ("a", "a"), ("b", "a")))
    with pytest.raises(EvalError, match="split over 3 rows"):
        ev.evaluate(phi, team("xy", ("a", "a"), ("b", "a"), ("b", "b")))


def test_a_split_search_counts_its_candidates_against_the_limit(m2, monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 2)
    # no subteam satisfies the left side, so every removal is tried
    phi, ev = parse("(NE /\\ F) \\/ dep(x; y)"), Evaluator(m2)
    assert not ev.evaluate(phi, team("xy", ("a", "a"), ("b", "a")))
    assert ev.stats.subsets == 4
    with pytest.raises(EvalError, match="tried 2\\^2 splits"):
        ev.evaluate(phi, team("xy", ("a", "a"), ("b", "a"), ("b", "b")))


@pytest.mark.parametrize("mode", ["oracle", "fast"])
def test_a_possibility_search_counts_its_candidates_against_the_limit(mode, m2, monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 2)
    # dep is not upwards closed, so fast mode searches as well; no nonempty
    # subteam satisfies the body, so every one is tried
    phi, ev = parse("poss(dep(x; y) /\\ F)"), Evaluator(m2, mode=mode)
    assert not ev.evaluate(phi, team("xy", ("a", "a"), ("b", "a")))
    assert ev.stats.subsets == 3
    with pytest.raises(EvalError, match="tried 2\\^2 subteams"):
        ev.evaluate(phi, team("xy", ("a", "a"), ("b", "a"), ("b", "b")))


@pytest.mark.parametrize("mode", ["oracle", "fast"])
def test_an_existential_search_counts_its_candidates_against_the_limit(mode, m2, monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 2)
    # off the upward fragment, its flattening keeps every duplicated row,
    # and only the empty team satisfies the body, so every candidate is tried
    phi = parse("E y. (incl(x; y) /\\ excl(x; y))")
    ev = Evaluator(m2, mode=mode)
    assert not ev.evaluate(phi, team("x", ("a",)))
    assert ev.stats.subsets == 3
    with pytest.raises(EvalError, match="an existential search tried 2\\^2 subteams"):
        Evaluator(m2, mode=mode).evaluate(phi, team("x", ("a",), ("b",)))


def test_an_existential_search_draws_the_same_candidates_from_cut_lists(monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 2)
    # two assignments with seven value sets each; the first five candidates
    # take the first five sets of x = a and the first set of x = b
    m = Model(("a", "b", "c"), {"R": Relation(2, frozenset({("a", "c"), ("b", "a")}))}, {"c0": "c"})
    X = team("x", ("a",), ("b",))
    ev = Evaluator(m, mode="oracle")
    assert ev.evaluate(parse("E y. R(x, y)"), X)  # {ac, ba} is the fourth
    assert ev.stats.subsets == 4
    with pytest.raises(EvalError, match="tried 2\\^2 subteams"):
        ev.evaluate(parse("E y. (R(x, y) /\\ y != c0)", m.constants), X)


def test_an_existential_over_a_large_domain_answers_at_its_first_candidate():
    # each assignment duplicates to 2^30 - 1 or 2^40 - 1 value sets, past the
    # limit; the first team tried, each assignment's first value, holds
    m30 = Model(tuple(f"e{i:02}" for i in range(30)), {}, {})
    ev = Evaluator(m30, mode="oracle")
    assert ev.evaluate(parse("E y. x = x"), team("x", *[(e,) for e in m30.domain]))
    assert ev.stats.subsets == 1
    m40 = Model(tuple(f"e{i:02}" for i in range(40)), {}, {})
    ev = Evaluator(m40, mode="oracle")
    assert ev.evaluate(parse("E y. y = x"), team("x", ("e00",)))
    assert ev.stats.subsets == 1


def test_an_upwards_closed_atom_failing_on_the_kept_rows_ends_the_search(m2):
    # the flattening keeps (a, a) alone, where inconst(y) fails, so no
    # candidate can satisfy it; on {a, b} it holds and the search runs
    phi = parse("E y. (y = x /\\ inconst(y) /\\ dep(x; y))")
    ev = Evaluator(m2)
    assert not ev.evaluate(phi, team("x", ("a",)))
    assert ev.stats.subsets == 0
    assert not evaluate(m2, team("x", ("a",)), phi, mode="oracle")
    assert ev.evaluate(phi, team("x", ("a",), ("b",)))
    assert ev.stats.subsets == 1


def test_a_downwards_closed_atom_failing_on_the_kept_rows_decides_each_candidate(m3):
    # excl(x; y) fails on all three duplicated rows but holds on {ab, ac},
    # the sixth candidate; dropped, it would let {aa, ab}, the third, pass
    phi, X = parse("E y. (inconst(y) /\\ excl(x; y))"), team("x", ("a",))
    ev = Evaluator(m3)
    assert ev.evaluate(phi, X)
    assert ev.stats.subsets == 6
    assert evaluate(m3, X, phi, mode="oracle")


def test_an_atom_rejecting_each_candidate_spares_the_later_parts(m2, monkeypatch):
    # const(x) fails on every candidate; taken in spine order, the split
    # before it would need tables over the six rows of the last candidate
    phi = parse("E y. ((incl(x; y) \\/ incl(z; y)) /\\ const(x))")
    X = team("xz", ("a", "a"), ("a", "b"), ("b", "a"))
    assert not evaluate(m2, X, phi, mode="oracle")
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 5)
    ev = Evaluator(m2)
    assert not ev.evaluate(phi, X)
    assert ev.stats.subsets == 27


def test_a_searching_existential_over_a_long_conjunction(m2):
    # the body's spine is split by a loop, and the flattening's engine keeps
    # its prepared form on the node, so no cache hashes the deep formula:
    # 500 conjuncts evaluate on a fresh evaluator and again on a second one
    X = team("x", ("a",))
    body = lambda n: " /\\ ".join(["dep(x; y)"] + ["P(x)"] * (n - 1))  # noqa: E731
    ev = Evaluator(m2)
    assert ev.evaluate(parse(f"E y. ({body(450)})"), X)
    assert ev.stats.subsets == 1
    assert evaluate(m2, X, parse(f"E y. ({body(450)})"), mode="oracle")
    phi = parse(f"E y. ({body(500)})")
    for ev in Evaluator(m2), Evaluator(m2):
        assert ev.evaluate(phi, X)
        assert ev.stats.subsets == 1


@pytest.mark.parametrize("sizes", [(), (5,), (1, 5, 2), (2, 5), (1, 1, 2, 2), (3, 1, 3)])
def test_supplements_are_the_first_joins_of_the_whole_product(sizes, monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 3)
    # each group's unions in ascending local mask, the first group varying fastest
    bits = iter(1 << k for k in range(sum(sizes)))
    groups = [[next(bits) for _ in range(n)] for n in sizes]
    unions = [[sum(b for k, b in enumerate(g) if m >> k & 1) for m in range(1, 1 << len(g))] for g in groups]
    whole = map(sum, itertools.product(*reversed(unions)))
    assert list(itertools.islice(evaluator._supplements(groups), 9)) == list(itertools.islice(whole, 9))


def test_naive_searches_count_their_candidates_against_the_limit(m2, monkeypatch):
    monkeypatch.setattr(evaluator, "SPLIT_ROWS_LIMIT", 2)
    ev = Evaluator(m2, mode="naive")
    # 3 covers of one row and 3 choice functions of it; 9 of two rows
    assert not ev.evaluate(parse("F \\/ F"), team("x", ("a",)))
    assert not ev.evaluate(parse("E y. F"), team("x", ("a",)))
    assert (ev.stats.covers, ev.stats.choices) == (3, 3)
    with pytest.raises(EvalError, match="a split search tried 2\\^2 covers"):
        ev.evaluate(parse("F \\/ F"), team("x", ("a",), ("b",)))
    with pytest.raises(EvalError, match="an existential search tried 2\\^2 choice functions"):
        ev.evaluate(parse("E y. F"), team("x", ("a",), ("b",)))


@pytest.mark.parametrize("mode", MODES)
def test_an_evaluator_is_freed_without_the_cycle_collector(mode, m2, monkeypatch):
    # the compiled functions must not refer back to their evaluator: a
    # cycle would keep its memo and tables alive until a full collection.
    # The domain's shared images must not either, and must serve the next
    # evaluator after the one that built them is gone.
    monkeypatch.setattr(evaluator, "_layouts", {})
    monkeypatch.setattr(evaluator, "_image_entries", [0])
    X = team("xy", ("a", "a"), ("b", "a"))
    wider = team("xy", ("a", "a"), ("a", "b"), ("b", "a"), ("b", "b"))
    texts = [
        "T /\\ P(x)",
        "A z. (P(z) \\/ dep(x; z))",
        "NE \\/ NE",
        "excl(x; y) \\/ NE",
        "E z. (dep(x; z) /\\ P(z))",
        "E z. (const(z) /\\ nonexcl(x; z))",
        "E z. incl(z; x)",
        "poss(dep(x; y) /\\ NE)",
        "poss(NE)",
        "restrict(dep(x; y) ; P(x))",
    ]
    phis = [parse(text) for text in texts]
    if mode == "fast":  # restriction in front of narrower nodes, memo lookups inline
        phis.append(desugar_possibility(parse("poss(P(x) /\\ incl(y; x))")))
    gc.disable()
    try:
        for phi in phis:
            ev = Evaluator(m2, mode=mode)
            answers = ev.evaluate(phi, X), ev.witness(phi, X)
            ref, layout = weakref.ref(ev), ev._layout
            del ev
            assert ref() is None, str(phi)
            built = len(layout.images), evaluator._image_entries[0]
            again = Evaluator(m2, mode=mode)
            assert again._layout is layout
            assert (again.evaluate(phi, X), again.witness(phi, X)) == answers, str(phi)
            assert (len(layout.images), evaluator._image_entries[0]) == built, str(phi)
            # rows the dead evaluator never met go through its image functions
            apart = Evaluator(Model(m2.domain[::-1], m2.relations, m2.constants), mode=mode)
            assert again.evaluate(phi, wider) == apart.evaluate(phi, wider), str(phi)
            del again, apart
    finally:
        gc.enable()


@pytest.mark.parametrize("mode", MODES)
def test_a_conjunction_700_deep_costs_one_frame_per_level(mode, m2):
    phi = parse(" /\\ ".join(["P(x)"] * 700))
    ev = Evaluator(m2, mode=mode)
    assert ev.evaluate(phi, team("x", ("a",)))
    assert not ev.evaluate(phi, team("x", ("a",), ("b",)))
    assert ev.witness(phi, team("xy", ("a", "b"))) == {"kind": "holds"}
    with pytest.raises(EvalError, match="too deeply"):
        ev.evaluate(parse(" /\\ ".join(["P(x)"] * 2000)), team("x", ("a",)))


@pytest.mark.parametrize("mode", MODES)
def test_a_disjunction_450_deep_costs_two_frames_per_level(mode, m2):
    # the node's function, then its split body, in every mode
    phi = parse(" \\/ ".join(["dep(x; x)"] * 450))
    assert Evaluator(m2, mode=mode).evaluate(phi, team("x", ("a",)))


@pytest.mark.parametrize("mode", MODES)
def test_a_subformula_shared_by_many_parents_is_compiled_once(mode, m2):
    # 41 distinct nodes but 2^40 paths from the root down to the leaf
    phi = parse("P(x)")
    for _ in range(40):
        phi = And(phi, phi)
    ev = Evaluator(m2, mode=mode)
    assert ev.evaluate(phi, team("x", ("a",)))
    assert not ev.evaluate(phi, team("x", ("a",), ("b",)))
    assert ev.stats.nodes == 2 * 41


# --- forced-constant existentials: one value per class of interchangeable values ---


def _isolated_sort_items():
    """(fast formula, oracle formula) pairs whose forced-constant existentials
    have an isolated sort or are refused one, over a fresh registry with
    `pair` (some row differs in its two columns) and `diag` (every row
    agrees), custom atoms that the sorts reach."""
    registry = AtomRegistry()
    registry.register_custom("pair", 2, parse("E u. E v. (R(u, v) /\\ u != v)"), upwards_closed=True, bound=1)
    registry.register_custom(
        "diag", 2, parse("A u. A v. (!R(u, v) \\/ u = v)"), upwards_closed=False, downwards_closed=True
    )
    read = lambda text: parse(text, atom_names=registry.known_names())  # noqa: E731
    items = [item[:2][::-1] for item in harness._possibility_corpus(harness.DEFAULT_GRID, {"P": 1})]
    for body in ("P(x)", "dep(x; y) /\\ P(y)", "NE", "NE \\/ P(x)"):
        phi = read(f"poss(poss({body}))")
        items.append((desugar_possibility(phi), phi))
    for text in (
        "E z. (const(z) /\\ NE)",
        "E z. (const(z) /\\ (NE \\/ z = x))",
        "E z. (const(z) /\\ incl(z; x))",
        "E z. (const(z) /\\ z != y /\\ incl(x; z))",
        "E z. (const(z) /\\ pair(z, x))",
        "E z. (const(z) /\\ diag(z, y))",
        "E z. (const(z) /\\ (E w. (const(w) /\\ diag(w, z) /\\ pair(x, w))))",
        "E z. (const(z) /\\ P(z))",
        "E z. (const(z) /\\ z = x /\\ P(x))",
        "E z. (const(z) /\\ restrict(NE ; P(z)))",
    ):
        items.append((read(text),) * 2)
    return registry, items


def test_forced_constant_existentials_agree_with_oracle_on_domains_up_to_4():
    # domain 4 is the first where the inner witness of an expansion skips two
    # or more values; every team of at most 2 rows on every P-model
    registry, items = _isolated_sort_items()
    for model in harness.enumerate_models({"P": 1}, 4):
        fast, oracle = Evaluator(model, registry), Evaluator(model, registry, "oracle")
        for X in harness.enumerate_teams(model, ("x", "y"), 2):
            for psi, phi in items:
                case = (syntax.pretty(phi), model.domain, sorted(model.relations["P"].tuples), sorted(X.rows))
                assert fast.evaluate(psi, X) == oracle.evaluate(phi, X), case


M4 = Model(
    ("a", "b", "c", "d"),
    {"P": Relation(1, frozenset({("d",)})), "R": Relation(2, frozenset({("a", "b"), ("b", "c")}))},
    {"c0": "d"},
)


@pytest.mark.parametrize(
    "text, verdict",
    [
        ("E z. (const(z) /\\ R(y, z))", False),
        ("E z. (const(z) /\\ z = c0)", True),
        ("E z. (const(z) /\\ z = x /\\ P(x))", False),
        ("E z. (const(z) /\\ restrict(NE ; P(z)))", True),
    ],
)
def test_a_sort_meeting_a_relation_or_a_constant_tries_every_value(text, verdict):
    # the sort reaches a relation literal or a constant, directly, through
    # an equality or in a guard, so no two values are interchangeable: the
    # true ones hold only at d, the last value
    phi, X = parse(text, M4.constants), team("xy", ("b", "a"), ("b", "b"))
    ok, stats = Evaluator(M4).evaluate_with_stats(phi, X)
    assert ok == verdict == evaluate(M4, X, phi, mode="oracle")
    assert stats["choices"] == len(M4.domain)


def test_the_possibility_expansion_tries_one_unused_value_per_witness():
    # u0 tries a alone and u1 tries a and b, of the 4 + 4 * 4 values and pairs
    m = Model(("a", "b", "c", "d"), {"P": Relation(1, frozenset({("a",)}))}, {})
    ok, stats = Evaluator(m).evaluate_with_stats(desugar_possibility(parse("poss(P(x))")), team("x", ("b",)))
    assert not ok and stats["choices"] == 3
    # a team column in the sort: z tries b, the one value x holds, and a
    ok, stats = Evaluator(m).evaluate_with_stats(parse("E z. (const(z) /\\ incl(z; x) /\\ z != x)"), team("x", ("b",)))
    assert not ok and stats["choices"] == 2


def test_the_criterion_05_expansions_try_a_pinned_number_of_values():
    # guards against the rule silently ceasing to fire: trying every value
    # of every witness makes 67,158 tries
    total, corpus = 0, harness._possibility_corpus(harness.DEFAULT_GRID, {"P": 1})
    for model in harness.enumerate_models({"P": 1}, 3):
        if len(model.domain) == 3:
            ev = Evaluator(model)
            for X in harness.enumerate_teams(model, ("x", "y"), 2):
                for _, psi, _ in corpus:
                    ev.evaluate(psi, X)
            total += ev.stats.choices
    assert total == 33_496
