"""The dependency-atom registry: direct semantics, flags, bounds, customs."""

import dataclasses
import itertools

from hypothesis import given
from hypothesis import strategies as st

import pytest

from teamsem import Model, Relation, Team, parse
from teamsem.atoms import (
    AtomError,
    AtomRegistry,
    DEFAULT_REGISTRY,
    RegistrationError,
    check_boundedness,
    check_downwards_closed,
    check_upwards_closed,
    eval_atom,
    fo_definition_agrees,
)

M2 = Model(("a", "b"), {}, {})


def rel(*rows):
    return frozenset(tuple(r) for r in rows)


def resolve(name, widths, param=None):
    return DEFAULT_REGISTRY.resolve(name, widths, param)


# --- catalog shape -----------------------------------------------------------


def test_catalog_has_fifteen_builtins():
    rows = DEFAULT_REGISTRY.catalog()
    assert len(rows) == 15
    assert [r["name"] for r in rows] == [
        "dep",
        "const",
        "excl",
        "incl",
        "indep",
        "cindep",
        "NE",
        "intersect",
        "inconst",
        "big",
        "total",
        "nondep",
        "nonexcl",
        "nonincl",
        "noncindep",
    ]


# Declared closure flags and bounds, by atom (unit widths, big at parameter 2).
FLAG_TABLE = {
    # name: (widths, param, upwards, downwards, bound)
    "dep": ((1, 1), None, False, True, None),
    "const": ((1,), None, False, True, 0),
    "excl": ((1, 1), None, False, True, None),
    "incl": ((1, 1), None, False, False, None),
    "indep": ((1, 1), None, False, False, None),
    "cindep": ((1, 1, 1), None, False, False, None),
    "NE": ((), None, True, False, 1),
    "intersect": ((1, 1), None, True, False, 1),
    "inconst": ((1,), None, True, False, 2),
    "big": ((1,), 2, True, False, 2),
    "total": ((1,), None, True, False, None),
    "nondep": ((1, 1), None, True, False, 2),
    "nonexcl": ((1, 1), None, True, False, 2),
    "nonincl": ((1, 1), None, False, False, 1),
    "noncindep": ((1, 1, 1), None, False, False, 2),
}


@pytest.mark.parametrize("name", sorted(FLAG_TABLE))
def test_declared_flags(name):
    widths, param, up, down, bound = FLAG_TABLE[name]
    d = resolve(name, widths, param)
    assert (d.upwards_closed, d.downwards_closed, d.bound) == (up, down, bound)


# --- direct semantics, one true and one false relation per atom ---------------

DIRECT_CASES = [
    # (name, widths, param, relation, expected)
    ("dep", (1, 1), None, rel(("a", "a"), ("a", "b")), False),
    ("dep", (1, 1), None, rel(("a", "a"), ("b", "b")), True),
    ("dep", (1, 1), None, rel(), True),
    ("const", (1,), None, rel(("a",)), True),
    ("const", (1,), None, rel(("a",), ("b",)), False),
    ("const", (1,), None, rel(), True),
    ("excl", (1, 1), None, rel(("a", "b")), True),
    ("excl", (1, 1), None, rel(("a", "a")), False),
    ("incl", (1, 1), None, rel(("a", "a")), True),
    ("incl", (1, 1), None, rel(("a", "b")), False),
    ("indep", (1, 1), None, rel(("a", "a"), ("a", "b"), ("b", "a"), ("b", "b")), True),
    ("indep", (1, 1), None, rel(("a", "a"), ("b", "b")), False),
    ("indep", (1, 1), None, rel(("a", "b")), True),
    ("cindep", (1, 1, 1), None, rel(("a", "a", "a")), True),
    ("cindep", (1, 1, 1), None, rel(("a", "a", "a"), ("b", "b", "a")), False),
    ("NE", (), None, rel(), False),
    ("NE", (), None, rel(()), True),
    # Intersection is witnessed by a single row whose two halves agree;
    # cross-row value sharing is the weaker nonexcl.
    ("intersect", (1, 1), None, rel(("a", "a")), True),
    ("intersect", (1, 1), None, rel(("a", "b")), False),
    ("intersect", (1, 1), None, rel(("a", "b"), ("b", "a")), False),
    ("intersect", (1, 1), None, rel(("a", "b"), ("b", "b")), True),
    ("inconst", (1,), None, rel(("a",), ("b",)), True),
    ("inconst", (1,), None, rel(("a",)), False),
    ("inconst", (1,), None, rel(), False),
    ("big", (1,), 2, rel(("a",), ("b",)), True),
    ("big", (1,), 2, rel(("a",)), False),
    ("total", (1,), None, rel(("a",), ("b",)), True),
    ("total", (1,), None, rel(("a",)), False),
    ("nondep", (1, 1), None, rel(("a", "a"), ("a", "b")), True),
    ("nondep", (1, 1), None, rel(("a", "a")), False),
    ("nonexcl", (1, 1), None, rel(("a", "a")), True),
    ("nonexcl", (1, 1), None, rel(("a", "b")), False),
    ("nonexcl", (1, 1), None, rel(("a", "b"), ("b", "a")), True),
    ("nonincl", (1, 1), None, rel(("a", "b")), True),
    ("nonincl", (1, 1), None, rel(("a", "a")), False),
    ("nonincl", (1, 1), None, rel(), False),
    ("noncindep", (1, 1, 1), None, rel(("a", "a", "a"), ("b", "b", "a")), True),
    ("noncindep", (1, 1, 1), None, rel(("a", "a", "a")), False),
]


@pytest.mark.parametrize("name,widths,param,relation,expected", DIRECT_CASES)
def test_direct_semantics(name, widths, param, relation, expected):
    d = resolve(name, widths, param)
    assert d.direct(M2, relation) is expected


def test_eval_atom_projects_the_team():
    X = Team(("x", "y"), frozenset({("a", "a"), ("a", "b")}))
    assert not eval_atom(M2, X, parse("dep(x; y)"))
    assert eval_atom(M2, X, parse("dep(y; x)"))
    assert eval_atom(M2, X, parse("const(x)"))
    # Extra team columns are irrelevant: only the projected relation counts.
    Y = Team(("x", "y", "z"), frozenset({("a", "a", "a"), ("a", "b", "b")}))
    assert not eval_atom(M2, Y, parse("dep(x; y)"))


def test_total_smells_the_whole_domain():
    m3 = Model(("a", "b", "c"), {}, {})
    d = resolve("total", (1,))
    assert not d.direct(m3, rel(("a",), ("b",)))  # proper subset of dom
    assert d.direct(m3, rel(("a",), ("b",), ("c",)))


# --- first-order definitions ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(FLAG_TABLE))
def test_fo_definition_agrees_with_direct(name):
    widths, param, *_ = FLAG_TABLE[name]
    d = resolve(name, widths, param)
    assert d.fo_definition is not None
    # Small scale keeps the three-group atoms fast here; the acceptance
    # suite re-runs this at the full declared scale.
    scale = dict(max_dom=2, max_rel=3) if len(widths) == 3 else dict(max_dom=3, max_rel=4)
    assert fo_definition_agrees(d, **scale) is None


def test_fo_definition_agrees_finds_a_wrong_direct_evaluator():
    always = dataclasses.replace(resolve("dep", (1, 1)), direct=lambda model, rel: True)
    ce = fo_definition_agrees(always, max_dom=2, max_rel=2)
    assert ce is not None
    assert not resolve("dep", (1, 1)).direct(ce.model, ce.relation)


# The independence kernels slice each tuple by group width, which unit
# widths alone cannot tell from a slice at the wrong offset.
WIDE_INDEPENDENCE = [
    ("cindep", (2, 1, 1)),
    ("cindep", (1, 2, 1)),
    ("cindep", (1, 1, 2)),
    ("noncindep", (2, 1, 1)),
    ("noncindep", (1, 2, 1)),
    ("noncindep", (1, 1, 2)),
    ("indep", (2, 1)),
    ("indep", (1, 2)),
]


@pytest.mark.parametrize("scale", [dict(max_dom=2, max_rel=4), dict(max_dom=3, max_rel=2)])
@pytest.mark.parametrize("name,widths", WIDE_INDEPENDENCE)
def test_independence_kernels_agree_beyond_unit_widths(name, widths, scale):
    assert fo_definition_agrees(resolve(name, widths), **scale) is None


def test_fo_definition_on_empty_relation():
    # With a first-order definition the empty team is just R = {}.  A
    # zero-group atom reads a nullary relation.
    from teamsem.model import tarski_eval

    probe = Model(("a", "b"), {"R": Relation(0, frozenset())}, {})
    assert not tarski_eval(probe, {}, resolve("NE", ()).fo_definition)
    probe2 = Model(("a", "b"), {"R": Relation(2, frozenset())}, {})
    assert tarski_eval(probe2, {}, resolve("dep", (1, 1)).fo_definition)


# --- closure checkers ----------------------------------------------------------


def test_upwards_closure_verdicts():
    assert check_upwards_closed(resolve("total", (1,))) is None
    assert check_upwards_closed(resolve("NE", ())) is None
    cx = check_upwards_closed(resolve("dep", (1, 1)))
    assert cx is not None
    d = resolve("dep", (1, 1))
    # The counterexample must be genuine: satisfied below, refuted above.
    assert cx.relation < cx.superset
    assert d.direct(cx.model, cx.relation)
    assert not d.direct(cx.model, cx.superset)


def test_downwards_closure_verdicts():
    assert check_downwards_closed(resolve("dep", (1, 1))) is None
    assert check_downwards_closed(resolve("const", (1,))) is None
    cx = check_downwards_closed(resolve("NE", ()))
    assert cx is not None


@pytest.mark.parametrize(
    "name,widths,param",
    [(n, w, p) for n, (w, p, up, *_rest) in FLAG_TABLE.items() if up],
)
def test_declared_upward_flags_hold(name, widths, param):
    assert check_upwards_closed(resolve(name, widths, param)) is None


# --- boundedness -----------------------------------------------------------------


def test_bound_verdicts():
    assert check_boundedness(resolve("NE", ()), 1) is None
    assert check_boundedness(resolve("intersect", (1, 1)), 1) is None
    assert check_boundedness(resolve("inconst", (1,)), 2) is None
    assert check_boundedness(resolve("const", (1,)), 0) is None
    assert check_boundedness(resolve("nondep", (1, 1)), 2) is None
    assert check_boundedness(resolve("nonexcl", (1, 1)), 2) is None
    assert check_boundedness(resolve("big", (1,), 2), 2) is None


def test_totality_is_not_bounded():
    cx = check_boundedness(resolve("total", (1,)), 3)
    assert cx is not None
    # The witness is the full domain on a model with more than 3 elements.
    assert len(cx.model.domain) == 4
    assert cx.relation == frozenset((d,) for d in cx.model.domain)


def test_inconstancy_is_not_one_bounded():
    cx = check_boundedness(resolve("inconst", (1,)), 1)
    assert cx is not None
    assert len(cx.relation) >= 2


def test_least_bounds_of_negated_inclusion_and_independence():
    # Fixed empirically: 0 fails / 1 passes, and 1 fails / 2 passes.
    nonincl = resolve("nonincl", (1, 1))
    assert check_boundedness(nonincl, 0) is not None
    assert check_boundedness(nonincl, 1) is None
    noncindep = resolve("noncindep", (1, 1, 1))
    assert check_boundedness(noncindep, 1, max_dom=2, max_rel=3) is not None
    assert check_boundedness(noncindep, 2, max_dom=2, max_rel=3) is None


# --- the checkers' calls and scales ------------------------------------------------


def counting(d):
    """`d` with a direct evaluator that records each relation it is handed."""
    calls = []

    def counted(model, relation):
        calls.append(relation)
        return d.direct(model, relation)

    return dataclasses.replace(d, direct=counted), calls


def test_the_checkers_hand_every_relation_to_direct():
    # One call per relation the search reaches, none cached or skipped: the
    # benchmark's catalog points are these calls.
    proxy, calls = counting(resolve("noncindep", (1, 1, 1)))
    assert check_boundedness(proxy, 2) is None
    assert len(calls) == 124_976
    # The upward growth step adds a relation's one missing tuple in both of
    # its rounds, and that repeated call counts too.
    proxy, calls = counting(resolve("nondep", (1, 1)))
    assert check_upwards_closed(proxy) is None
    assert len(calls) == 3_625


def test_the_checkers_refuse_a_scale_with_no_probe():
    always = dataclasses.replace(resolve("dep", (1, 1)), direct=lambda model, rel: True)
    with pytest.raises(AtomError, match="got max_dom=1, max_rel=4"):
        check_upwards_closed(resolve("dep", (1, 1)), max_dom=1)
    with pytest.raises(AtomError, match="got max_dom=1, max_rel=4"):
        fo_definition_agrees(always, max_dom=1)
    with pytest.raises(AtomError, match="got max_dom=3, max_rel=-1"):
        fo_definition_agrees(always, max_rel=-1)
    with pytest.raises(AtomError, match="got max_dom=1, max_rel=4"):
        check_boundedness(resolve("total", (1,)), 1, max_dom=1)
    # Past eight elements there are no more names to give them.
    with pytest.raises(AtomError, match="got max_dom=9, max_rel=4"):
        check_downwards_closed(resolve("const", (1,)), max_dom=9)
    with pytest.raises(AtomError, match="got max_dom=9, max_rel=9"):
        check_boundedness(resolve("total", (1,)), 8)


def test_the_checkers_refuse_a_runaway_scale_before_the_first_probe():
    proxy, calls = counting(resolve("noncindep", (2, 1, 1)))
    with pytest.raises(AtomError, match="arity 4 at max_dom=3, max_rel=4 tries 1,754,899"):
        check_boundedness(proxy, 2)
    proxy, more = counting(resolve("dep", (3, 3)))
    with pytest.raises(AtomError, match="arity 6 at max_dom=3, max_rel=4"):
        check_upwards_closed(proxy)
    assert calls == more == []


# --- isomorphism invariance -------------------------------------------------------


@given(
    st.sampled_from(sorted(FLAG_TABLE)),
    st.sets(
        st.tuples(st.sampled_from("ab"), st.sampled_from("ab")), max_size=4
    ),
)
def test_direct_semantics_iso_invariant(name, pairs):
    widths, param, *_ = FLAG_TABLE[name]
    total_width = sum(widths)
    base = frozenset(
        tuple((r * ((total_width + 1) // 2))[:total_width]) for r in pairs
    )
    swap = {"a": "b", "b": "a"}
    mapped = frozenset(tuple(swap[v] for v in row) for row in base)
    d = resolve(name, widths, param)
    assert d.direct(M2, base) == d.direct(M2, mapped)


# --- resolution errors --------------------------------------------------------------


def test_resolve_errors():
    with pytest.raises(AtomError):
        resolve("nosuch", (1,))
    with pytest.raises(AtomError):
        resolve("dep", (1,))  # needs two groups
    with pytest.raises(AtomError):
        resolve("excl", (1, 2))  # equal widths required
    with pytest.raises(AtomError):
        resolve("big", (1,))  # missing parameter
    with pytest.raises(AtomError):
        resolve("NE", (), 2)  # unexpected parameter
    with pytest.raises(AtomError):
        resolve("const", (0,))  # empty group


# --- custom atoms ---------------------------------------------------------------------


def test_register_custom_accepted():
    reg = AtomRegistry()
    d = reg.register_custom(
        "atmost1",
        1,
        parse("A x. A y. !R(x) \\/ !R(y) \\/ x = y"),
        upwards_closed=False,
        downwards_closed=True,
    )
    assert d.group_widths == (1,)
    assert d.verified
    assert not d.direct(M2, rel(("a",), ("b",)))
    assert d.direct(M2, rel(("a",)))
    assert "atmost1" in reg.known_names()


def test_register_custom_same_as_ne():
    reg = AtomRegistry()
    d = reg.register_custom(
        "NE2", 1, parse("E x. R(x)"), upwards_closed=True, bound=1
    )
    assert d.direct(M2, rel(("a",)))
    assert not d.direct(M2, rel())


def test_register_custom_false_bound_rejected():
    reg = AtomRegistry()
    with pytest.raises(RegistrationError) as exc:
        reg.register_custom("total2", 1, parse("A x. R(x)"), upwards_closed=True, bound=3)
    cx = exc.value.counterexample
    # Refuting a declared bound of 3 takes a four-element domain.
    assert cx is not None
    assert len(cx.model.domain) == 4


def test_register_custom_false_flag_rejected():
    reg = AtomRegistry()
    with pytest.raises(RegistrationError) as exc:
        reg.register_custom(
            "alldiag", 1, parse("A x. R(x)"), upwards_closed=False, downwards_closed=True
        )
    assert exc.value.counterexample is not None


def test_register_custom_input_validation():
    reg = AtomRegistry()
    with pytest.raises(RegistrationError):
        reg.register_custom("bad", 1, parse("R(x)"), upwards_closed=False)  # free var
    with pytest.raises(RegistrationError):
        reg.register_custom("bad", 1, parse("NE"), upwards_closed=False)  # not FO
    with pytest.raises(RegistrationError):
        reg.register_custom("bad", 1, parse("E x. S(x)"), upwards_closed=False)
    with pytest.raises(RegistrationError):
        reg.register_custom("dep", 1, parse("E x. R(x)"), upwards_closed=False)
    with pytest.raises(RegistrationError):
        reg.register_custom("_bad", 1, parse("E x. R(x)"), upwards_closed=False)


def test_register_unchecked_is_marked_unverified():
    reg = AtomRegistry()
    d = reg.register_custom(
        "claim", 1, parse("A x. R(x)"), upwards_closed=True, bound=3, check=False
    )
    assert not d.verified
