"""The benchmark's four workloads.

Each workload builds its corpus of requests from the loaded program
(`setup`) and answers one request at a time (`request`).  A request is one
call into a public check of teamsem, issued after the previous one
returned; the outcome carries the points the program reports and whether
its verdict is the known answer.  Point counts are compared against
`expected.json`, measured at the seed commit, by the runner.

Why these four:

* translate-verify -- sentence evaluation through the `compile_fo`
  closures dominates it (criterion 01); domain 3 is what makes it so.
* possibility-sweep -- deep `evaluator` search and team operations, with
  no translator and no `compile_fo` (criterion 05).
* atom-catalog -- the other first-order path: `tarski_eval` on the catalog
  definitions and on custom atoms' `direct`; no evaluator (criterion 09).
* height-witness -- the only workload that reaches `analysis`: many
  shallow `evaluate` calls with heavy memo reuse (criterion 07).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Callable

SIGNATURE = {"P": 1}
VARS = ("x", "y")
# fo_definition_agrees scale for atom-catalog: at max_rel=3 cindep and
# noncindep alone take ~16 s, more than a pass may.
CATALOG_MAX_REL = 2
FO_COPIES = ("nondep", "nonexcl", "intersect")


@dataclass
class Outcome:
    points: int  # grid points checked (see each workload for the unit)
    skipped: int  # points the cost budget left undecided
    ok: bool  # the verdict is the known answer


@dataclass(frozen=True)
class Workload:
    name: str
    decks: int  # the corpus is dealt into this many cost-balanced decks
    setup: Callable  # ts -> list of (key, args)
    request: Callable  # (ts, args, wrap) -> Outcome


def _grid(ts, doms, max_rows):
    return ts.harness.GridConfig(doms=doms, max_rows=max_rows)


# ---------------------------------------------------------------------------
# translate-verify: `teamsem translate --verify` on the criterion-01 corpus


def translate_setup(ts):
    corpus = ts.harness.generate_formulas(
        ts.harness.DEFAULT_TRANSLATION_ATOMS, SIGNATURE, 3, VARS
    )
    grid = _grid(ts, (2, 3), 2)
    return [(ts.syntax.pretty(phi), (phi, grid)) for phi in corpus]


def translate_request(ts, args, wrap, sentence=None, relation=None):
    """Points are `Report.checked`; `sentence`/`relation` override the
    compiled sentence (the gate test feeds a corrupted one)."""
    phi, grid = args
    report = ts.harness.check_translation_equivalence(
        phi,
        tuple(sorted(ts.syntax.free_variables(phi))),
        grid=grid,
        mode="fast",
        sentence=sentence,
        relation=relation,
    )
    return Outcome(report.checked, report.skipped, report.ok)


# ---------------------------------------------------------------------------
# possibility-sweep: one criterion-05 body through the suite's three tiers


def possibility_setup(ts):
    syntax = ts.syntax
    bodies = ts.harness.generate_formulas(
        ts.harness.POSSIBILITY_ATOMS, SIGNATURE, 2, VARS,
        binary_cap=3, mix_cap=2, quant_cap=2,
    )
    grid = _grid(ts, (2, 3), 2)
    naive_grid = _grid(ts, (2,), 1)
    items = []
    for body in bodies:
        phi = syntax.Possibly(body)
        quantifier_free = not any(
            isinstance(node, (syntax.Exists, syntax.Forall, syntax.Possibly))
            for node in syntax.subformulas(body)
        )
        tiers = [
            ("fast", grid, None),
            (("oracle", "fast"), grid, ts.harness.DEFAULT_COST_BUDGET),
        ]
        if quantifier_free:
            tiers.append(("naive", naive_grid, None))
        items.append((syntax.pretty(body), (phi, syntax.desugar_possibility(phi), tiers)))
    return items


def possibility_request(ts, args, wrap):
    """Points are `Report.checked` summed over the tiers."""
    phi, psi, tiers = args
    points = skipped = 0
    ok = True
    for mode, grid, budget in tiers:
        report = ts.harness.check_formula_equivalence(
            phi, psi, grid=grid, mode=mode, budget=budget
        )
        points += report.checked
        skipped += report.skipped
        ok = ok and report.ok
    return Outcome(points, skipped, ok)


# ---------------------------------------------------------------------------
# atom-catalog: the criterion-09 checks, one per request


def catalog_setup(ts):
    atoms = ts.atoms
    registry = atoms.DEFAULT_REGISTRY
    items = []
    for row in registry.catalog():
        widths = tuple([1] * row["groups"])
        d = registry.resolve(row["name"], widths, 2 if row["parameterized"] else None)
        if d.fo_definition is not None:
            items.append((f"fo_definition_agrees:{d.name}", ("fo", d)))
        if d.upwards_closed:
            items.append((f"upwards_closed:{d.name}", ("up", d)))
        if d.downwards_closed:
            items.append((f"downwards_closed:{d.name}", ("down", d)))
        if d.bound is not None:
            items.append((f"bound:{d.name}", ("bound", d)))
    items.append(("dep_not_upwards_closed", ("dep", registry.resolve("dep", (1, 1)))))
    for name in FO_COPIES:
        items.append((f"register_custom:{name}", ("register", registry.resolve(name, (1, 1)))))
    return items


def catalog_request(ts, args, wrap):
    """Points are the relations the check hands to the atom's direct
    evaluator, counted through a proxied definition; a registration
    builds its own evaluator and counts none."""
    atoms = ts.atoms
    kind, d = args
    if kind == "register":
        registered = atoms.AtomRegistry().register_custom(
            f"fo_{d.name}", d.arity, d.fo_definition, upwards_closed=True, bound=d.bound
        )
        return Outcome(0, 0, registered.verified)
    examined = 0

    def counted(model, rel):
        nonlocal examined
        examined += 1
        return d.direct(model, rel)

    proxy = dataclasses.replace(d, direct=wrap(counted, "atoms.direct"))
    if kind == "fo":
        ok = atoms.fo_definition_agrees(proxy, max_dom=3, max_rel=CATALOG_MAX_REL) is None
    elif kind == "up":
        ok = atoms.check_upwards_closed(proxy) is None
    elif kind == "down":
        ok = atoms.check_downwards_closed(proxy) is None
    elif kind == "bound":
        ok = atoms.check_boundedness(proxy, d.bound) is None
    else:
        # functional dependence is not upwards closed: the known answer is
        # a concrete counterexample
        ce = atoms.check_upwards_closed(proxy)
        ok = (
            ce is not None
            and ce.relation < ce.superset
            and d.direct(ce.model, ce.relation)
            and not d.direct(ce.model, ce.superset)
        )
    return Outcome(examined, 0, ok)


# ---------------------------------------------------------------------------
# height-witness: one criterion-07 (formula, model) pair per request


def height_setup(ts):
    harness = ts.harness
    corpus = harness.generate_formulas(harness.BOUNDED_ATOMS, SIGNATURE, 3, VARS)
    models = [
        model
        for size in (2, 3)
        for model in harness.enumerate_models(SIGNATURE, size)
        if len(model.domain) == size
    ]
    items = []
    for phi in corpus:
        height = ts.analysis.compute_height(phi).value
        if height is None:
            continue
        xs = tuple(sorted(ts.syntax.free_variables(phi)))
        text = ts.syntax.pretty(phi)
        for j, model in enumerate(models):
            items.append((f"{text} @model{j}", (phi, xs, height, model)))
    return items


def height_request(ts, args, wrap):
    """Points are witnesses extracted; each must be a subteam within the
    height bound."""
    phi, xs, height, model = args
    ev = ts.evaluator.Evaluator(model)
    found = 0
    ok = True
    for team in ts.harness.enumerate_teams(model, xs, 3):
        if not ev.evaluate(phi, team):
            continue
        witness = ts.analysis.find_small_witness(model, team, phi, evaluator=ev)
        ok = ok and witness.rows <= team.rows and len(witness.rows) <= height
        found += 1
    return Outcome(found, 0, ok)


WORKLOADS = {
    w.name: w
    for w in (
        Workload("translate-verify", 6, translate_setup, translate_request),
        Workload("possibility-sweep", 2, possibility_setup, possibility_request),
        Workload("atom-catalog", 1, catalog_setup, catalog_request),
        Workload("height-witness", 3, height_setup, height_request),
    )
}
