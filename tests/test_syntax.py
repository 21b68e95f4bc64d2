"""Parser, pretty-printer, and formula-rewriting helpers."""

import dataclasses
import itertools
import pickle
import sys

from hypothesis import given
from hypothesis import strategies as st

import pytest

from teamsem import ParseError, parse, pretty
from teamsem.atoms import AtomError, AtomRegistry, BUILTIN_ATOM_NAMES, DEFAULT_REGISTRY
from teamsem.syntax import (
    And,
    BoolLit,
    Const,
    DepAtom,
    EqLit,
    Exists,
    Forall,
    FreshNames,
    Or,
    Possibly,
    RelLit,
    RestrictedBy,
    SyntaxViolation,
    TRUE,
    Var,
    _MAX_NESTING,
    _children,
    _rebuilt,
    ands,
    count_nodes,
    desugar_possibility,
    flatten,
    formula_signature,
    free_variables,
    is_clean,
    is_first_order,
    map_formula,
    negate_fo,
    sorted_free_variables,
    subformulas,
    substitute_vars,
)
from teamsem.translator import to_clean, translate
from syntax_reference import reference_free_variables, reference_is_first_order
from test_model import _fo_formulas as _engine_formulas
from test_rewrite_goldens import corpora


# --- parsing ---------------------------------------------------------------


def test_parse_literals():
    assert parse("P(x)") == RelLit("P", True, (Var("x"),))
    assert parse("!P(x)") == RelLit("P", False, (Var("x"),))
    assert parse("x = y") == EqLit(True, Var("x"), Var("y"))
    assert parse("x != y") == EqLit(False, Var("x"), Var("y"))
    assert parse("T") == BoolLit(True)
    assert parse("F") == BoolLit(False)


def test_parse_constants_are_declared():
    # "a" is only a constant symbol if the caller declares it; otherwise
    # it is an ordinary variable.
    assert parse("x = a", constants=("a",)) == EqLit(True, Var("x"), Const("a"))
    assert parse("x = a") == EqLit(True, Var("x"), Var("a"))


def test_parse_atom_groups():
    assert parse("dep(x; y)").groups == (("x",), ("y",))
    assert parse("dep(x, y; z)").groups == (("x", "y"), ("z",))
    # One group of width three, not three groups.
    assert parse("const(p, q, r)").groups == (("p", "q", "r"),)
    assert parse("cindep(x; y | z)").groups == (("x",), ("y",), ("z",))
    big = parse("big(2; x)")
    assert (big.groups, big.param) == ((("x",),), 2)
    assert parse("NE") == DepAtom("NE", (), None)


def test_parse_precedence_and_scope():
    assert parse("P(x) \\/ P(y) /\\ NE") == Or(
        parse("P(x)"), And(parse("P(y)"), parse("NE"))
    )
    # Quantifier scope extends as far right as possible.
    assert parse("E x. P(x) \\/ NE") == Exists("x", Or(parse("P(x)"), parse("NE")))
    assert parse("(E x. P(x)) \\/ NE") == Or(Exists("x", parse("P(x)")), parse("NE"))
    assert parse("A x. E y. x != y") == Forall("x", Exists("y", parse("x != y")))


def test_parse_derived_forms():
    assert parse("poss(P(x))") == Possibly(parse("P(x)"))
    assert parse("restrict(NE ; P(x))") == RestrictedBy(parse("NE"), parse("P(x)"))


def test_parse_unknown_callable_is_a_relation():
    # Only names the caller lists as atoms are dependency atoms; anything
    # else applied to a term tuple is an ordinary relation symbol.  Custom
    # atoms take a single argument group.
    assert isinstance(parse("edge(x, y)"), RelLit)
    atom = parse("edge(x, y)", atom_names=("edge",))
    assert isinstance(atom, DepAtom)
    assert atom.groups == (("x", "y"),)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "P(x",
        "x =",
        "dep(;y)",
        "const()",
        "big(x; y)",  # parameter must be an integer
        "E. P(x)",
        "P(x) \\/",
        "poss(P(x)",
    ],
)
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize("opening, closing", [("(", ")"), ("poss(", ")"), ("restrict(", " ; T)")])
def test_parse_bounds_the_nesting(opening, closing):
    def nest(depth):
        return opening * depth + "P(x)" + closing * depth

    assert free_variables(parse(nest(_MAX_NESTING))) == {"x"}
    with pytest.raises(ParseError, match="nests deeper"):
        parse(nest(_MAX_NESTING + 1))


def test_parse_leaves_quantifier_prefixes_unbounded():
    assert free_variables(parse("E y. " * (2 * _MAX_NESTING) + "P(x)")) == {"x"}


def _atom_text(name, groups, param):
    """Concrete syntax for an atom occurrence of any shape, valid or not."""
    if name == "NE" and not groups and param is None:
        return "NE"
    rendered = [", ".join(g) for g in groups]
    inner = "; ".join(rendered[:2]) + "".join(f" | {r}" for r in rendered[2:])
    return f"{name}({'' if param is None else f'{param}; '}{inner})"


def _table_accepts(name, groups, param):
    try:
        DepAtom(name, groups, param)
        DEFAULT_REGISTRY.resolve(name, tuple(len(g) for g in groups), param)
    except (AtomError, SyntaxViolation):
        return False
    return True


@pytest.mark.parametrize("name", BUILTIN_ATOM_NAMES)
def test_parser_accepts_exactly_the_atom_table_shapes(name):
    # Zero to three groups of width one or two, with and without a
    # parameter: the parser rejects a shape exactly when the atom table
    # does, and what it accepts prints back to itself.
    for count in range(4):
        for widths in itertools.product((1, 2), repeat=count):
            groups = tuple(
                tuple(f"{'xyz'[i]}{j}" for j in range(w)) for i, w in enumerate(widths)
            )
            for param in (None, 0, 1, 2):
                text = _atom_text(name, groups, param)
                if not _table_accepts(name, groups, param):
                    with pytest.raises(ParseError):
                        parse(text)
                    continue
                atom = parse(text)
                assert atom == DepAtom(name, groups, param), text
                assert parse(pretty(atom)) == atom


def test_custom_atoms_parse_with_one_group_only():
    reg = AtomRegistry()
    reg.register_custom("pair", 2, parse("E x. E y. R(x, y)"), upwards_closed=True)
    names = reg.known_names()
    atom = parse("pair(x, y)", atom_names=names)
    assert atom == DepAtom("pair", (("x", "y"),))
    assert parse(pretty(atom), atom_names=names) == atom
    for bad in ("pair(x; y)", "pair(x; y | z)", "pair(2; x, y)", "pair()", "pair"):
        with pytest.raises(ParseError):
            parse(bad, atom_names=names)


def test_reserved_names_parse():
    # The reserved "_" namespace must survive a parse/pretty round trip so
    # translated sentences can be re-read; rejecting them is the
    # translator's job, not the parser's.
    assert parse("_v0 = x") == EqLit(True, Var("_v0"), Var("x"))


# --- pretty-printing -------------------------------------------------------


@pytest.mark.parametrize(
    "text",
    [
        "P(x)",
        "!P(x) \\/ x = y",
        "P(x) \\/ P(y) /\\ NE",
        "(P(x) \\/ P(y)) /\\ NE",
        "E x. A y. dep(x; y)",
        "const(p, q, r)",
        "cindep(x; y | z)",
        "big(3; x, y)",
        "restrict(poss(NE) ; P(x))",
        "incl(x; y) /\\ nonincl(y; x)",
    ],
)
def test_pretty_round_trip(text):
    phi = parse(text)
    assert parse(pretty(phi)) == phi


_VARS = st.sampled_from(["x", "y", "z"])
_terms = _VARS.map(Var)
_leaves = st.one_of(
    st.builds(RelLit, st.just("P"), st.booleans(), st.tuples(_terms)),
    st.builds(RelLit, st.just("R"), st.booleans(), st.tuples(_terms, _terms)),
    st.builds(EqLit, st.booleans(), _terms, _terms),
    st.builds(BoolLit, st.booleans()),
    st.builds(lambda g: DepAtom("dep", g, None), st.tuples(st.tuples(_VARS), st.tuples(_VARS))),
    st.builds(lambda g: DepAtom("const", (g,), None), st.tuples(_VARS, _VARS)),
    st.just(DepAtom("NE", (), None)),
)
_fo_formulas = st.recursive(
    st.one_of(
        st.builds(RelLit, st.just("P"), st.booleans(), st.tuples(_terms)),
        st.builds(EqLit, st.booleans(), _terms, _terms),
        st.builds(BoolLit, st.booleans()),
    ),
    lambda sub: st.one_of(
        st.builds(Or, sub, sub), st.builds(And, sub, sub), st.builds(Exists, _VARS, sub)
    ),
    max_leaves=4,
)
_formulas = st.recursive(
    _leaves,
    lambda sub: st.one_of(
        st.builds(Or, sub, sub),
        st.builds(And, sub, sub),
        st.builds(Exists, _VARS, sub),
        st.builds(Forall, _VARS, sub),
        st.builds(Possibly, sub),
        # Restriction guards must be first-order by construction.
        st.builds(RestrictedBy, sub, _fo_formulas),
    ),
    max_leaves=12,
)


@given(_formulas)
def test_pretty_parse_inverse(phi):
    assert parse(pretty(phi)) == phi


# --- the facts each node keeps ----------------------------------------------


def assert_facts_match_the_reference(phi):
    for node in subformulas(phi):
        want = reference_free_variables(node)
        assert free_variables(node) == want, pretty(node)
        assert sorted_free_variables(node) == tuple(sorted(want)), pretty(node)
        assert is_first_order(node) == reference_is_first_order(node), pretty(node)


@given(st.one_of(_formulas, _engine_formulas))
def test_kept_facts_match_the_reference(phi):
    assert_facts_match_the_reference(phi)


def test_kept_facts_match_the_reference_on_the_rewrite_corpora():
    for formulas in corpora().values():
        for phi in formulas:
            for form in (phi, flatten(phi), desugar_possibility(phi)):
                assert_facts_match_the_reference(form)


def test_kept_facts_stay_out_of_the_fields():
    phi = parse("(E y. (restrict(dep(x; y) ; P(x)) \\/ poss(NE /\\ y = c))) /\\ (A z. T)", constants=("c",))
    nodes = list(subformulas(phi))

    def views():
        return [(repr(n), hash(n), pretty(n), [f.name for f in dataclasses.fields(n)]) for n in nodes]

    before = views()
    for node in nodes:
        free_variables(node), is_first_order(node)
    assert views() == before
    assert [f.name for f in dataclasses.fields(phi)] == ["left", "right"]
    copy = pickle.loads(pickle.dumps(phi))
    assert copy == phi and sorted_free_variables(copy) == ("x",) and not is_first_order(copy)


def test_kept_facts_are_computed_once_per_shared_node():
    # 41 distinct nodes but 2^40 paths from the root down to the leaf
    tower = parse("P(x)")
    for _ in range(40):
        tower = And(tower, tower)
    assert free_variables(tower) == {"x"} and is_first_order(tower)
    # a node met first as a child of the root and then below a sibling of it
    shared = parse("E y. P(y)")
    phi = And(And(shared, parse("const(z)")), shared)
    assert_facts_match_the_reference(phi)


# --- the one walk: `_children` and its inverse ------------------------------------


def _identity(node):
    return node


def assert_rebuilds(phi):
    for node in subformulas(phi):
        parts = _children(node)
        assert _rebuilt(node, parts) == node, pretty(node)
        assert map_formula(node, _identity) == node, pretty(node)
        if not parts:  # a leaf comes back as itself, not as a copy
            assert _rebuilt(node, parts) is node
            assert map_formula(node, _identity) is node


@given(st.one_of(_formulas, _engine_formulas))
def test_rebuilding_from_the_children_round_trips(phi):
    assert_rebuilds(phi)


def test_rebuilding_from_the_children_round_trips_on_the_rewrite_corpora():
    for formulas in corpora().values():
        for phi in formulas:
            assert_rebuilds(phi)


@pytest.mark.parametrize(
    "walk, leaf",
    [
        (flatten, "P(x)"),
        (lambda phi: substitute_vars(phi, {"x": Var("y")}, FreshNames()), "P(x)"),
        (is_clean, "NE"),
        (to_clean, "NE"),
        (lambda phi: translate(phi, ()), "NE"),
    ],
    ids=["flatten", "substitute_vars", "is_clean", "to_clean", "translate"],
)
def test_walks_take_one_frame_per_level(walk, leaf):
    # a comprehension, `map` or `all` in a walker adds a frame per level
    assert sys.getrecursionlimit() == 1000
    assert walk(ands([parse(leaf)] * 950)) is not None


def test_equal_free_variables_are_one_tuple():
    phi = parse("(E y. (P(x) /\\ x = x)) \\/ poss(P(x))")
    other = parse("A z. (z = x \\/ P(x))")
    assert sorted_free_variables(phi) is sorted_free_variables(phi.left.body.right)
    assert sorted_free_variables(phi) is sorted_free_variables(other) == ("x",)


# --- structural helpers ----------------------------------------------------


def test_free_variables():
    assert free_variables(parse("E x. R(x, y)")) == {"y"}
    assert free_variables(parse("dep(x; y) /\\ const(z)")) == {"x", "y", "z"}
    assert free_variables(parse("NE")) == frozenset()
    assert free_variables(parse("restrict(P(x) ; P(y))")) == {"x", "y"}


def test_first_order_and_clean_flags():
    assert is_first_order(parse("A x. P(x) \\/ x = y"))
    assert not is_first_order(parse("NE"))
    assert not is_first_order(parse("poss(P(x))"))
    # The restriction operator is an abbreviation, never first-order as a node.
    assert not is_first_order(parse("restrict(P(x) ; P(y))"))
    assert is_clean(parse("P(x) \\/ P(y)"))
    assert is_clean(parse("restrict(NE ; P(x))"))
    assert not is_clean(parse("NE \\/ P(x)"))
    assert not is_clean(parse("E x. NE"))


def test_flatten():
    # Non-first-order atoms become T; first-order material is untouched.
    assert flatten(parse("NE")) == TRUE
    assert flatten(parse("P(x)")) == parse("P(x)")
    assert flatten(parse("dep(x; y) /\\ P(x)")) == parse("T /\\ P(x)")
    assert flatten(parse("poss(P(x))")) == TRUE
    assert is_first_order(flatten(parse("restrict(NE ; P(x))")))


@given(_formulas)
def test_flatten_is_first_order_and_idempotent(phi):
    flat = flatten(phi)
    assert is_first_order(flat)
    assert flatten(flat) == flat


def test_substitute_capture_avoidance():
    fresh = FreshNames(["x", "y"])
    got = substitute_vars(parse("E y. x = y"), {"x": Var("y")}, fresh)
    # The binder must be renamed so the substituted y stays free.
    assert free_variables(got) == {"y"}
    assert got != parse("E y. y = y")


def test_substitute_renames_a_binder_inside_possibility():
    fresh = FreshNames(["x", "y"])
    got = substitute_vars(parse("poss(E y. x = y)"), {"x": Var("y")}, fresh)
    assert got == parse("poss(E _v0. y = _v0)")
    assert free_variables(got) == {"y"}


def test_negate_fo():
    assert negate_fo(parse("P(x) /\\ x = y")) == parse("!P(x) \\/ x != y")
    assert negate_fo(parse("A x. P(x)")) == parse("E x. !P(x)")
    with pytest.raises(Exception):
        negate_fo(parse("NE"))


def test_formula_signature_and_counts():
    assert formula_signature(parse("P(x) \\/ R(x, y)")) == {"P": 1, "R": 2}
    assert count_nodes(parse("P(x) /\\ NE")) == 3
    kinds = {type(f).__name__ for f in subformulas(parse("E x. P(x) \\/ NE"))}
    assert kinds == {"Exists", "Or", "RelLit", "DepAtom"}
