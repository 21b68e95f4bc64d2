"""The compilation pipeline from team formulas to first-order sentences."""

import gc
import itertools
import json
import pathlib

import pytest

from teamsem import Model, Relation, Team, evaluate, parse, pretty, translate
from teamsem.harness import GridConfig, check_translation_equivalence
from teamsem.model import compile_fo, tarski_eval, team_project
from teamsem.syntax import (
    DepAtom,
    Possibly,
    RestrictedBy,
    Var,
    free_variables,
    is_clean,
    is_first_order,
    subformulas,
    substitute_vars,
)
from teamsem.translator import (
    FreshNames,
    TranslationError,
    build_fo_sentence,
    desugar_negated_atoms,
    desugar_possibility,
    eliminate_constancy,
    simplify,
    to_clean,
)

GOLDENS = pathlib.Path(__file__).parent / "goldens" / "translations.json"

M2 = Model(("a", "b"), {"P": Relation(1, frozenset({("a",)}))}, {})


def all_teams(model, vars, max_rows):
    pool = list(itertools.product(model.domain, repeat=len(vars)))
    for size in range(min(max_rows, len(pool)) + 1):
        for combo in itertools.combinations(pool, size):
            yield Team(tuple(vars), frozenset(combo))


def teams_equivalent(phi, psi, vars, max_rows=3, model=M2):
    for X in all_teams(model, vars, max_rows):
        if evaluate(model, X, phi) != evaluate(model, X, psi):
            return (X, evaluate(model, X, phi), evaluate(model, X, psi))
    return None


# --- desugaring -------------------------------------------------------------


def test_desugar_negated_atoms_identity():
    phi = parse("NE \\/ dep(x; y)")
    assert desugar_negated_atoms(phi) == phi


def test_desugar_nonincl_shape():
    # A constant witness value that intersects the x column but differs
    # from every y; the possibility operator appears as its intersection
    # atom form.
    out = desugar_negated_atoms(parse("nonincl(x; y)"))
    names = {f.name for f in subformulas(out) if isinstance(f, DepAtom)}
    assert "nonincl" not in names
    assert {"const", "intersect"} <= names
    assert free_variables(out) == {"x", "y"}


@pytest.mark.parametrize("text,vars", [("nonincl(x; y)", ("x", "y")), ("noncindep(x; y | z)", ("x", "y", "z"))])
def test_desugar_negated_atoms_equivalence(text, vars):
    phi = parse(text)
    out = desugar_negated_atoms(phi)
    rows = 3 if len(vars) == 2 else 2
    assert teams_equivalent(phi, out, vars, max_rows=rows) is None


def test_desugar_possibility_equivalence():
    phi = parse("poss(P(x) /\\ NE)")
    out = desugar_possibility(phi)
    assert not any(isinstance(f, Possibly) for f in subformulas(out))
    assert teams_equivalent(phi, out, ("x",), max_rows=4) is None


# --- constancy elimination -----------------------------------------------------


def test_eliminate_constancy_identity():
    phi = parse("NE /\\ P(x)")
    body, prefix = eliminate_constancy(phi, FreshNames(["x"]))
    assert prefix == ()
    assert body == phi


def test_eliminate_constancy_single_atom():
    body, prefix = eliminate_constancy(parse("const(x) /\\ NE"), FreshNames(["x"]))
    assert len(prefix) == 1
    v = prefix[0]
    assert v.startswith("_")
    assert pretty(body) == f"x = {v} /\\ NE"


def rebuild_constancy_form(body, prefix):
    # The lemma form: existentially choose constant fresh values.
    out = body
    for v in reversed(prefix):
        from teamsem.syntax import And, DepAtom, Exists

        out = Exists(v, And(DepAtom("const", ((v,),), None), out))
    return out


@pytest.mark.parametrize(
    "text",
    [
        "const(x) /\\ NE",
        "const(x) \\/ const(x)",
        "E y. const(y) /\\ P(x)",
        "A y. const(x) \\/ P(y)",
        "const(x) /\\ (NE \\/ const(y))",
    ],
)
def test_eliminate_constancy_equivalence(text):
    phi = parse(text)
    body, prefix = eliminate_constancy(phi, FreshNames(free_variables(phi)))
    names = {f.name for f in subformulas(body) if isinstance(f, DepAtom)}
    assert "const" not in names
    assert teams_equivalent(phi, rebuild_constancy_form(body, prefix), ("x", "y")) is None


def test_eliminate_constancy_counts_atoms():
    # One fresh variable per constancy instance, other atoms preserved.
    body, prefix = eliminate_constancy(
        parse("const(x) \\/ const(x)"), FreshNames(["x"])
    )
    assert len(prefix) == 2
    ne_before = sum(
        1 for f in subformulas(parse("const(x) /\\ (NE \\/ NE)")) if isinstance(f, DepAtom) and f.name == "NE"
    )
    body2, _ = eliminate_constancy(parse("const(x) /\\ (NE \\/ NE)"), FreshNames(["x"]))
    ne_after = sum(1 for f in subformulas(body2) if isinstance(f, DepAtom) and f.name == "NE")
    assert ne_before == ne_after == 2


# --- clean rewriting -------------------------------------------------------------


def test_to_clean_leaves_first_order_alone():
    phi = parse("A x. P(x) \\/ x = y")
    assert to_clean(phi) == phi


def test_to_clean_disjunction_shape():
    out = to_clean(parse("NE \\/ P(x)"))
    assert is_clean(out)
    assert pretty(out) == "(T \\/ P(x)) /\\ restrict(NE ; T) /\\ restrict(P(x) ; P(x))"


@pytest.mark.parametrize(
    "text",
    [
        "NE \\/ P(x)",
        "E v. P(v) /\\ NE",
        "inconst(x) \\/ inconst(y)",
        "E v. nondep(v; x)",
        "A v. NE \\/ P(v)",
    ],
)
def test_to_clean_equivalence(text):
    phi = parse(text)
    out = to_clean(phi)
    assert is_clean(out)
    assert teams_equivalent(phi, out, ("x", "y")) is None


def test_to_clean_rejects_non_upward_atoms():
    with pytest.raises(TranslationError, match="dep"):
        to_clean(parse("E v. dep(v; x)"))


# --- sentence construction ----------------------------------------------------------


def test_build_fo_sentence_is_a_sentence():
    for text, vars in [("P(x)", ("x",)), ("NE", ("x",)), ("A v. NE", ("x",))]:
        out = build_fo_sentence(to_clean(parse(text)), vars)
        assert is_first_order(out)
        assert free_variables(out) == frozenset()


# --- the full pipeline -----------------------------------------------------------------


@pytest.mark.parametrize(
    "text,vars",
    [
        ("NE", ("x",)),
        ("P(x)", ("x",)),
        ("NE \\/ P(x)", ("x",)),
        ("const(x) /\\ NE", ("x",)),
        ("total(x)", ("x",)),
        ("nondep(x; y)", ("x", "y")),
        ("poss(P(x))", ("x",)),
        ("nonincl(x; y)", ("x", "y")),
        ("E y. inconst(y) /\\ P(x)", ("x", "y")),
    ],
)
def test_translate_biconditional(text, vars):
    # Team satisfaction must match first-order truth with R := X(vars).
    phi = parse(text)
    res = translate(phi, vars)
    assert is_first_order(res.sentence)
    assert free_variables(res.sentence) == frozenset()
    for X in all_teams(M2, vars, 3):
        probe = M2.with_relation(res.relation, len(vars), team_project(X, vars))
        assert evaluate(M2, X, phi) == tarski_eval(probe, {}, res.sentence), sorted(
            X.rows
        )


def test_translate_sentence_nullary_convention(m2):
    # Sentences translate with an empty tuple; the team relation drops out.
    res = translate(parse("E x. P(x)"), ())
    assert res.relation == ""
    assert is_first_order(res.sentence)
    assert tarski_eval(m2, {}, res.sentence)
    no = translate(parse("A x. P(x)"), ())
    assert not tarski_eval(m2, {}, no.sentence)


@pytest.mark.parametrize(
    "text",
    [
        "poss(P(x))",
        "poss(poss(P(x)))",
        "poss(const(x) /\\ NE)",
        "restrict(NE /\\ const(y) ; P(x))",
        "restrict(inconst(x) ; E z. (P(z) /\\ z != x))",
        "A y. restrict(nondep(x; y) ; x != y)",
        "E y. (const(y) /\\ poss(inconst(x)))",
        "nonincl(x; y)",
        "noncindep(x; y | z)",
    ],
)
def test_translate_agrees_on_constructs_the_corpus_lacks(text):
    # nested possibility, restriction under a universal, constancy over
    # possibility and the definable negative atoms: the translation
    # sweep's corpus builds none of them
    phi = parse(text)
    rep = check_translation_equivalence(
        phi, tuple(sorted(free_variables(phi))), GridConfig(doms=(2,), max_rows=2)
    )
    assert rep.ok
    assert rep.checked > 0


@pytest.mark.parametrize("text", ["dep(x; y)", "incl(x; y)", "excl(x; y)", "indep(x; y)", "cindep(x; y | x)"])
def test_translate_rejects_non_upward_atoms(text):
    with pytest.raises(TranslationError) as exc:
        translate(parse(text), ("x", "y"))
    msg = str(exc.value)
    assert text.split("(")[0] in msg
    assert "upwards" in msg


def test_translate_rejects_reserved_input_names():
    with pytest.raises(TranslationError, match="reserved"):
        translate(parse("const(_z)"), ("_z",))


def test_translate_requires_covering_tuple():
    with pytest.raises(TranslationError):
        translate(parse("P(x)"), ())


def test_translate_is_deterministic():
    a = translate(parse("poss(P(x)) \\/ inconst(y)"), ("x", "y"))
    b = translate(parse("poss(P(x)) \\/ inconst(y)"), ("x", "y"))
    assert pretty(a.sentence) == pretty(b.sentence)
    assert a.prefix_vars == b.prefix_vars


def test_translate_fresh_names_are_reserved():
    res = translate(parse("const(x) /\\ poss(P(x))"), ("x",))
    assert all(v.startswith("_") for v in res.prefix_vars)
    for f in subformulas(res.sentence):
        for v in free_variables(f):
            assert v.startswith("_") or v in ("x",)


def test_simplify_preserves_equivalence():
    for text, vars in [("NE \\/ P(x)", ("x",)), ("total(x)", ("x",))]:
        phi = parse(text)
        plain = translate(phi, vars)
        slim = translate(phi, vars, simplify_output=True)
        for X in all_teams(M2, vars, 3):
            probe = M2.with_relation(plain.relation, len(vars), team_project(X, vars))
            assert tarski_eval(probe, {}, plain.sentence) == tarski_eval(
                probe, {}, slim.sentence
            )


def test_translate_renames_the_team_relation_past_the_atom_relation():
    # the input uses R, so the team relation is R0 while the atom's
    # definition still speaks about R
    phi = parse("R(x) /\\ nonexcl(x; y)")
    assert translate(phi, ("x", "y")).relation == "R0"
    report = check_translation_equivalence(phi, ("x", "y"), GridConfig((2,), 2))
    assert report.ok and report.checked == 44


def test_compiling_substituting_and_translating_leave_no_cycles(m2):
    # recursive walks must not leave work for the cycle collector
    calls = [
        lambda: compile_fo(m2, parse("A x. E y. x = y \\/ x != y"), ()),
        lambda: substitute_vars(
            parse("A y. P(x) /\\ (E x. x = y)"), {"x": Var("y")}, FreshNames({"x", "y"})
        ),
        lambda: translate(parse("poss(P(x))"), ("x",)),
    ]
    gc.disable()
    try:
        gc.collect()
        for call in calls:
            call()
            assert gc.collect() == 0
    finally:
        gc.enable()


# --- golden outputs ---------------------------------------------------------------------


def test_translation_goldens_are_stable():
    rows = json.loads(GOLDENS.read_text())
    assert len(rows) == 10
    for row in rows:
        res = translate(parse(row["formula"]), tuple(row["vars"]))
        assert pretty(res.sentence) == row["sentence"], row["formula"]
        assert res.relation == row["relation"]
        assert list(res.prefix_vars) == row["prefix_vars"]
        assert list(res.atoms_used) == row["atoms_used"]
