"""Differential tests of the team evaluator against `evaluator_reference`,
its earlier `Team`-based form: verdicts, the full `EvalStats` and
`witness()` must match in every mode, on random formulas and teams."""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

import evaluator_reference
from teamsem import Model, Relation, Team, evaluator, harness, parse
from teamsem.atoms import AtomRegistry
from teamsem.evaluator import Evaluator, MODES
from teamsem.model import EvalError
from teamsem.syntax import desugar_possibility, pretty

VARS = ("x", "y", "z")
M2 = Model(("a", "b"), {"P": Relation(1, frozenset({("a",)}))}, {})
M3 = Model(("a", "b", "c"), {"P": Relation(1, frozenset({("a",), ("c",)}))}, {})
UNSORTED = Model(("c", "a", "b"), {"P": Relation(1, frozenset({("c",), ("b",)}))}, {})
WIDE = Model(tuple(f"e{i}" for i in range(10)), {"P": Relation(1, frozenset({("e3",), ("e7",)}))}, {})

_var = st.sampled_from(VARS)
_literals = st.one_of(
    st.builds("P({})".format, _var),
    st.builds("!P({})".format, _var),
    st.builds("{} = {}".format, _var, _var),
    st.builds("{} != {}".format, _var, _var),
)
_guards = st.recursive(
    _literals, lambda inner: st.builds("({} \\/ {})".format, inner, inner), max_leaves=2
)
_leaves = st.one_of(
    st.sampled_from(("T", "F", "NE")),
    _literals,
    st.builds("const({})".format, _var),
    st.builds(
        "{}({}; {})".format,
        st.sampled_from(("dep", "excl", "incl", "nondep", "nonexcl")),
        _var,
        _var,
    ),
)


def _connectives(inner):
    return st.one_of(
        st.builds("({} \\/ {})".format, inner, inner),
        st.builds("({} /\\ {})".format, inner, inner),
        st.builds("poss({})".format, inner),
        st.builds("restrict({} ; {})".format, inner, _guards),
    )


# quantifiers do not nest, which keeps naive mode's choice functions affordable
_bodies = st.recursive(_leaves, _connectives, max_leaves=4)
_quantified = st.builds("({} {}. {})".format, st.sampled_from("EA"), _var, _bodies)
_formulas = st.recursive(st.one_of(_leaves, _quantified), _connectives, max_leaves=4).map(parse)


@st.composite
def _cases(draw):
    model = draw(st.sampled_from((M2, M3, UNSORTED)))
    pool = list(itertools.product(model.domain, repeat=len(VARS)))
    rows = draw(st.lists(st.sampled_from(pool), max_size=3, unique=True))
    return model, Team(VARS, frozenset(rows))


def assert_matches_reference(model, phi, teams, mode, registry=None):
    """Evaluate `phi` on each team in turn with one evaluator per side, so
    that memo reuse across calls is compared too; then ask both for the
    witness on the last team."""
    new = Evaluator(model, registry, mode)
    ref = evaluator_reference.Evaluator(model, registry, mode)
    for team in teams:
        got = new.evaluate_with_stats(phi, team)
        assert got == ref.evaluate_with_stats(phi, team), (str(phi), sorted(team.rows), mode)
    assert new.witness(phi, teams[-1]) == ref.witness(phi, teams[-1]), (str(phi), mode)
    assert new.stats.as_dict() == ref.stats.as_dict()
    return got[0]


@settings(max_examples=300)
@given(_formulas, _cases())
def test_evaluator_matches_the_reference_on_random_formulas(phi, case):
    model, team = case
    verdicts = {mode: assert_matches_reference(model, phi, [team], mode) for mode in MODES}
    assert len(set(verdicts.values())) == 1, (str(phi), sorted(team.rows), verdicts)


@pytest.mark.parametrize("mode", MODES)
def test_evaluator_matches_the_reference_across_a_sequence(mode):
    # subteams of one team against one formula, as a witness search asks
    phi = parse("(E z. (dep(x; z) /\\ (P(z) \\/ nonexcl(y; z)))) \\/ poss(incl(x; y))")
    rows = sorted(itertools.product(M2.domain, repeat=3))[:4]
    teams = [Team(VARS, frozenset(c)) for k in range(5) for c in itertools.combinations(rows, k)]
    assert_matches_reference(M2, phi, teams, mode)


@pytest.mark.parametrize("mode", MODES)
def test_row_outside_the_domain_is_an_eval_error(mode):
    team = Team(("x",), frozenset({("a",), ("q",)}))
    for phi in (parse("P(x)"), parse("dep(x; x) \\/ (E y. P(y))")):
        with pytest.raises(EvalError, match="leaves the model domain"):
            Evaluator(M2, mode=mode).evaluate(phi, team)


@pytest.mark.parametrize("mode", MODES)
def test_unsorted_domain_keeps_sorted_row_order(mode):
    # witnesses and counters follow sorted rows, not the listed domain order
    rows = [("c", "a"), ("a", "b"), ("b", "c")]
    for text in [
        "P(x) \\/ dep(y; x)",
        "E z. (const(z) /\\ nonexcl(x; z))",
        "E z. (incl(z; x) /\\ P(z))",
        "poss(dep(x; y) /\\ NE)",
        "A z. (P(z) \\/ excl(x; z))",
    ]:
        for k in range(len(rows) + 1):
            for combo in itertools.combinations(rows, k):
                team = Team(("x", "y"), frozenset(combo))
                assert_matches_reference(UNSORTED, parse(text), [team], mode)


@pytest.mark.parametrize("mode", MODES)
def test_a_full_memo_matches_the_reference_under_the_same_limit(mode, monkeypatch):
    monkeypatch.setattr(evaluator, "MEMO_LIMIT", 3)
    monkeypatch.setattr(evaluator_reference, "MEMO_LIMIT", 3)
    phi = parse("(dep(x; y) \\/ P(x)) /\\ (E z. (incl(z; y) \\/ nondep(z; x)))")
    rows = sorted(itertools.product(M2.domain, repeat=3))[1:4]
    teams = [Team(VARS, frozenset(c)) for k in range(4) for c in itertools.combinations(rows, k)]
    assert_matches_reference(M2, phi, teams, mode)


@pytest.mark.parametrize(
    "phi, modes",
    [
        # oracle mode duplicates this one three times over, to 27 rows
        (desugar_possibility(parse("poss(P(x) /\\ incl(y; x))")), ("fast",)),
        (parse("E z. (incl(z; x) /\\ nonexcl(y; z))"), ("oracle", "fast")),
    ],
    ids=["desugared-poss", "exists"],
)
def test_covering_jumps_over_nine_duplicated_rows(phi, modes):
    # three rows duplicated over three elements: of the 512 subteams, the
    # search tries only the 7^3 that keep a row of every original
    # assignment, as the product of each assignment's value sets
    rows = sorted(itertools.product(M3.domain, repeat=2))
    teams = [Team(("x", "y"), frozenset(c)) for c in itertools.combinations(rows, 3)]
    for mode in modes:
        assert_matches_reference(M3, phi, teams, mode)


CRITERION_05 = harness._possibility_corpus(harness.DEFAULT_GRID, {"P": 1})


@pytest.mark.parametrize(
    "psi", [item[1] for item in CRITERION_05], ids=[pretty(item[0].body) for item in CRITERION_05]
)
def test_criterion_05_expansions_match_the_reference(psi):
    # the hot path of the possibility sweep: restriction in front of nodes
    # narrower than their team, memo lookups, chains of conjunctions
    rows = sorted(itertools.product(M3.domain, repeat=2))
    teams = [Team(("x", "y"), frozenset(c)) for k in range(3) for c in itertools.combinations(rows, k)]
    assert_matches_reference(M3, psi, teams, "fast")


P_MODELS = list(harness.enumerate_models({"P": 1}, 3))
SWEEP_ITEMS = [item[:2] for item in CRITERION_05] + [
    (parse(text),) * 2
    for text in (
        "dep(x; y) \\/ incl(y; x)",
        "E z. (const(z) /\\ incl(z; x))",
        "A z. (dep(x; z) \\/ P(z))",
        "poss(const(y) /\\ dep(x; y))",
    )
]


def test_evaluators_made_in_sweep_order_match_fresh_references():
    # one evaluator per (item, model) in a sweep's order, the modes mixed:
    # each meets rows and images that earlier evaluators over its domain
    # numbered and built, and must count and answer as a fresh reference
    # does.  As in the sweep's tiers, oracle mode takes the possibility and
    # fast mode its expansion; naive mode takes one-row teams, and the
    # expansion only of a quantifier-free body.
    for i, (phi, psi) in enumerate(SWEEP_ITEMS):
        for j, model in enumerate(P_MODELS):
            mode = MODES[(i + j) % len(MODES)]
            naive_psi = mode == "naive" and harness._quantifier_free(phi)
            chi = psi if mode == "fast" or naive_psi else phi
            teams = list(harness.enumerate_teams(model, ("x", "y"), 1 if mode == "naive" else 2))
            new, ref = Evaluator(model, mode=mode), evaluator_reference.Evaluator(model, mode=mode)
            for team in teams:
                case = (pretty(chi), model.domain, sorted(model.relations["P"].tuples), mode, sorted(team.rows))
                assert new.evaluate_with_stats(chi, team) == ref.evaluate_with_stats(chi, team), case
                assert new.witness(chi, team) == ref.witness(chi, team), case


def test_layouts_are_kept_apart_by_domain():
    # a row numbered over a three-element domain is still outside M2's
    m3 = Evaluator(M3)
    assert m3.evaluate(parse("P(x)"), Team(("x",), frozenset({("a",), ("c",)})))
    for mode in MODES:
        with pytest.raises(EvalError, match="leaves the model domain"):
            Evaluator(M2, mode=mode).evaluate(parse("NE"), Team(("x",), frozenset({("a",), ("c",)})))
    # the same elements listed in another order: a layout of its own, and
    # sorted-row order after sorted-domain evaluators have run on the rows
    rows = [("c", "a"), ("a", "b"), ("b", "c")]
    team = Team(("x", "y"), frozenset(rows))
    for mode in MODES:
        assert_matches_reference(M3, parse("E z. (const(z) /\\ nonexcl(x; z))"), [team], mode)
        assert_matches_reference(UNSORTED, parse("E z. (const(z) /\\ nonexcl(x; z))"), [team], mode)
        assert_matches_reference(UNSORTED, parse("P(x) \\/ dep(y; x)"), [team], mode)
    assert Evaluator(UNSORTED)._row_of is not m3._row_of


def _table_entries(layouts) -> int:
    """The entries of every image table of `layouts`, read off the closures."""
    total = 0
    for layout in layouts.values():
        for apply in layout.images.values():
            cells = dict(zip(apply.__code__.co_freevars, apply.__closure__))
            total += len(cells["table"].cell_contents)
    return total


@pytest.mark.parametrize("mode", MODES)
def test_the_shared_image_tables_stay_within_the_memo_limit(mode, monkeypatch):
    monkeypatch.setattr(evaluator, "MEMO_LIMIT", 40)
    monkeypatch.setattr(evaluator_reference, "MEMO_LIMIT", 40)
    monkeypatch.setattr(evaluator, "_layouts", {})
    monkeypatch.setattr(evaluator, "_image_entries", [0])
    texts = ("E z. (dep(x; z) /\\ P(z))", "A z. (incl(z; x) \\/ nondep(y; z))", "poss(NE /\\ incl(x; y))")
    registries = []
    for model in (M2, M3, M2, M3):
        rows = sorted(itertools.product(model.domain, repeat=2))[:3]
        teams = [Team(("x", "y"), frozenset(c)) for k in range(3) for c in itertools.combinations(rows, k)]
        for text in texts:
            assert_matches_reference(model, parse(text), teams, mode)
            if not any(evaluator._layouts is seen for seen in registries):
                registries.append(evaluator._layouts)
            assert _table_entries(evaluator._layouts) == evaluator._image_entries[0] <= 40
    # the tables filled, and later evaluators started fresh registries
    assert len(registries) > 1


@pytest.fixture(scope="module")
def pairs():
    """A registry with `pair`, a custom atom of width 2: some row differs in its two columns."""
    registry = AtomRegistry()
    registry.register_custom("pair", 2, parse("E u. E v. (R(u, v) /\\ u != v)"), upwards_closed=True, bound=1)
    return registry


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "text",
    [
        "dep(x, y; z) \\/ incl(x, y; y, x)",
        "E z. (dep(x, y; z) /\\ incl(x, z; y, x))",
        "A z. (incl(x, y; y, x) \\/ dep(x, y; z))",
        "poss(dep(x, x; z) /\\ NE)",
        "pair(x, y) \\/ pair(y, y)",
        "E z. (pair(x, z) /\\ dep(y; z))",
    ],
)
def test_atoms_with_wide_groups_and_custom_atoms_match_the_reference(text, mode, pairs):
    rows = sorted(itertools.product(M2.domain, repeat=3))
    teams = [Team(VARS, frozenset(c)) for k in range(4) for c in itertools.combinations(rows, k)][::5]
    assert_matches_reference(M2, parse(text, atom_names=pairs.known_names()), teams, mode, pairs)


@pytest.mark.parametrize("mode", MODES)
def test_a_full_atom_verdict_table_matches_the_reference(mode, monkeypatch, pairs):
    # more projections than the table holds, each met more than once
    monkeypatch.setattr(evaluator, "MEMO_LIMIT", 3)
    monkeypatch.setattr(evaluator_reference, "MEMO_LIMIT", 3)
    phi = parse("(dep(x; y) /\\ incl(x, y; y, x)) \\/ pair(x, y)", atom_names=pairs.known_names())
    rows = sorted(itertools.product(M2.domain, repeat=3))[:5]
    teams = [Team(VARS, frozenset(c)) for k in range(4) for c in itertools.combinations(rows, k)]
    assert_matches_reference(M2, phi, teams + teams, mode, pairs)


@pytest.mark.parametrize(
    "text, modes",
    [
        ("E s. (s = x /\\ dep(y; s))", {"fast": {2: 4, 3: 20, 6: 2}}),
        ("E s. (const(s) /\\ incl(s; z))", {"fast": {1: 4, 2: 6, 6: 2}}),
        (
            "A s. (s = s /\\ dep(x; y))",
            {"naive": {2: 2, 6: 2, 7: 20}, "oracle": {2: 2, 6: 2, 7: 20}, "fast": {1: 10, 2: 2, 3: 20, 6: 2}},
        ),
        # the bound column sorts first, so fast mode's body over (a, x, y)
        # needs no column permutation of the duplicated rows
        ("E a. (a != x /\\ nondep(y; a))", {"oracle": {2: 3, 6: 2, 7: 20}, "fast": {2: 50, 3: 20, 6: 2}}),
    ],
)
def test_masks_grow_with_rows_met_not_with_the_row_space(text, modes, monkeypatch):
    # two rows of six columns, then a seventh: a bit per point of the row
    # space would make every mask 10^7 bits wide; each mode, on a fresh
    # layout of the domain, maps to the rows it numbers per width
    team = Team(("x", "y", "z", "u", "v", "w"), frozenset({WIDE.domain[:6], WIDE.domain[4:]}))
    for mode, numbered in modes.items():
        monkeypatch.setattr(evaluator, "_layouts", {})
        monkeypatch.setattr(evaluator, "_image_entries", [0])
        new = Evaluator(WIDE, mode=mode)
        ref = evaluator_reference.Evaluator(WIDE, mode=mode)
        assert new.evaluate_with_stats(parse(text), team) == ref.evaluate_with_stats(parse(text), team)
        # the rows of each width are numbered apart from the others
        assert {width: len(rows) for width, rows in new._row_of.items()} == numbered
        # a second evaluator over the domain reuses the numbering, and numbers no new row
        again = Evaluator(WIDE, mode=mode)
        assert again.evaluate_with_stats(parse(text), team) == ref.evaluate_with_stats(parse(text), team)
        assert again._row_of is new._row_of
        assert {width: len(rows) for width, rows in again._row_of.items()} == numbered


def _outcome(ev, phi, team):
    try:
        return ev.evaluate_with_stats(phi, team)
    except EvalError as e:
        return "EvalError", str(e)


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize(
    "text",
    [
        "x = y \\/ Q(x)",
        "restrict(Q(x) ; x = y)",
        "poss(x = y /\\ Q(x))",
        "(x != y /\\ Q(x)) \\/ !P(y)",
        "E z. (z = x /\\ (x != y \\/ Q(z)))",
    ],
)
def test_a_relation_missing_on_some_rows_fails_where_the_reference_does(text, mode):
    # Q is not in the model, so the engine raises on exactly the rows that
    # reach it; rows whose truth is already known must not hide or add one
    phi = parse(text)
    rows = sorted(itertools.product(M2.domain, repeat=2))
    teams = [Team(("x", "y"), frozenset(c)) for k in range(5) for c in itertools.combinations(rows, k)]
    new, ref = Evaluator(M2, mode=mode), evaluator_reference.Evaluator(M2, mode=mode)
    outcomes = [_outcome(new, phi, team) for team in teams]
    assert outcomes == [_outcome(ref, phi, team) for team in teams]
    assert {out[0] == "EvalError" for out in outcomes} == {True, False}
