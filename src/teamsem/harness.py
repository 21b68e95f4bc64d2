"""Exhaustive small-scale checking: model and team enumeration, formula
corpora, and the equivalence sweeps that stand in for proofs.

The sweep layer has three parts.  `SWEEPS` is the table of the eight
theorem suites, and `run_suite(name)` runs one: each `Sweep` entry names
its corpus builder, its comparison, its tiers and its model signature,
and each `Tier` is one report with its own mode (or pair of modes),
grid, cost budget and item filter.  The seven comparisons
(`_equivalence`, `_translation`, `_flatness`, `_locality`, `_upflat`,
`_isomorphism`, `_height`) only say how to evaluate the teams of one
(item, model) pair and what the verdicts are; the last five share one
prologue, `_one_formula`.  One runner, `_sweep`, owns the rest: it builds
the report, enumerates the grid models, caps the team rows (tighter on
models of three or more elements when a tier asks), applies the
cost-budget gate, keeps the checked and skipped counts and the mismatch
and verbose records, and runs the tasks on the worker pool, merging them
in task order.  `run_suite` calls it once per tier, and
`check_formula_equivalence` and `check_translation_equivalence` once each.

Tiers keep the evidence independent.  The broad tier walks the whole
grid with the fast evaluator; the independence tiers re-run a reduced
grid with the pruning-disabled evaluator paths (`oracle` or `naive`), so
the evidence does not rest on the very rewrites the theorems justify.
Tasks whose exhaustive cost estimate is out of budget are skipped and
counted.

Everything is deterministic: models, teams, and formulas come out in a
fixed construction order, reports list failures in encounter order, and
the JSON serializations sort their keys, so identical parameters give
byte-identical reports, whatever the number of workers.  Wall-clock
numbers are kept off the reports for the same reason.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import re
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Mapping, NamedTuple, Sequence

from .analysis import InvariantBreach, compute_height, find_small_witness
from .atoms import AtomError, AtomRegistry, DEFAULT_REGISTRY
from .evaluator import Evaluator, upward_fragment
from .model import (
    Model,
    Relation,
    SINGLETON_EMPTY_TEAM,
    Team,
    compile_fo,
    letters,
    subsets,
    team_project,  # noqa: F401  (bench/tracer.py patches it by name)
    team_restrict,
)
from .syntax import (
    And,
    BoolLit,
    DepAtom,
    EqLit,
    Exists,
    Forall,
    Formula,
    Or,
    Possibly,
    RelLit,
    RestrictedBy,
    Var,
    desugar_possibility,
    flatten,
    formula_signature,
    free_variables,
    pretty,
    subformulas,
)
from .translator import desugar_negated_atoms, translate


class HarnessError(Exception):
    pass


# ---------------------------------------------------------------------------
# Grid configuration

GRID_ENV_VAR = "TEAMSEM_GRID"


@dataclass(frozen=True)
class GridConfig:
    """Size knobs for the exhaustive sweeps.

    The defaults keep the worst corpus shapes under a few minutes: domains
    of two and three elements, teams of at most four assignments, formula
    depth three, two team variables.
    """

    doms: tuple[int, ...] = (2, 3)
    max_rows: int = 4
    max_depth: int = 3
    max_vars: int = 2

    def __post_init__(self) -> None:
        if not self.doms or any(d < 2 for d in self.doms):
            raise HarnessError("domains need at least two elements")
        if any(d > 8 for d in self.doms):
            raise HarnessError("domains are capped at eight elements")
        if self.max_rows < 0 or self.max_depth < 0 or self.max_vars < 1:
            raise HarnessError("grid sizes must be nonnegative (and at least one variable)")
        if self.max_vars > 2:
            raise HarnessError("corpora are capped at two variables")

    @staticmethod
    def parse(text: str) -> "GridConfig":
        """Parse 'doms=2,3;max_rows=4;max_depth=3;max_vars=2' (any subset
        of the keys, semicolon separated)."""
        kwargs: dict = {}
        for part in text.split(";"):
            part = part.strip()
            if not part:
                continue
            key, eq, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if not eq:
                raise HarnessError(f"grid entry {part!r} is not key=value")
            try:
                if key == "doms":
                    kwargs["doms"] = tuple(int(v) for v in value.split(","))
                elif key in ("max_rows", "max_depth", "max_vars"):
                    kwargs[key] = int(value)
                else:
                    raise HarnessError(f"unknown grid key {key!r}")
            except ValueError:
                raise HarnessError(f"bad grid value {value!r} for {key!r}") from None
        return GridConfig(**kwargs)

    def as_dict(self) -> dict:
        return {
            "doms": list(self.doms),
            "max_rows": self.max_rows,
            "max_depth": self.max_depth,
            "max_vars": self.max_vars,
        }


DEFAULT_GRID = GridConfig()


def grid_from_env() -> GridConfig:
    """The default grid, overridden by the TEAMSEM_GRID environment
    variable when set (for CI sizing)."""
    text = os.environ.get(GRID_ENV_VAR)
    if text:
        return GridConfig.parse(text)
    return DEFAULT_GRID


# ---------------------------------------------------------------------------
# Model and team enumeration

def permute_model(model: Model, mapping: Mapping[str, str]) -> Model:
    """Rename domain elements; the domain stays sorted."""
    return Model(
        tuple(sorted(mapping[d] for d in model.domain)),
        {
            name: Relation(
                rel.arity,
                frozenset(tuple(mapping[e] for e in t) for t in rel.tuples),
            )
            for name, rel in model.relations.items()
        },
        {name: mapping[v] for name, v in model.constants.items()},
    )


def permute_team(team: Team, mapping: Mapping[str, str]) -> Team:
    return Team(
        team.vars, frozenset(tuple(mapping[e] for e in r) for r in team.rows)
    )


def enumerate_models(signature: Mapping[str, int], max_dom: int) -> Iterator[Model]:
    """All models over the signature with 2..max_dom elements, in a fixed
    order (domain size, then relation tables by size and contents)."""
    if max_dom < 2:
        raise HarnessError("teams need at least two domain elements to matter")
    if max_dom > 8:
        raise HarnessError("model enumeration is capped at eight elements")
    names = sorted(signature)
    for n in range(2, max_dom + 1):
        dom = letters(n)
        per_relation = [
            list(subsets(itertools.product(dom, repeat=signature[name])))
            for name in names
        ]
        for combo in itertools.product(*per_relation):
            yield Model(
                dom,
                {
                    name: Relation(signature[name], rel)
                    for name, rel in zip(names, combo)
                },
                {},
            )


def enumerate_teams(
    model: Model, vars: tuple[str, ...], max_rows: int
) -> Iterator[Team]:
    """All duplicate-free teams over `vars` with at most `max_rows`
    assignments, the empty team first, then by size and row order."""
    for rows in subsets(itertools.product(model.domain, repeat=len(vars)), high=max_rows):
        yield Team(vars, rows)


def _grid_models(signature: Mapping[str, int], grid: GridConfig) -> list[Model]:
    """Exactly one pass per requested domain size (enumerate_models ranges
    from two upward, so smaller sizes must be filtered back out)."""
    return [
        model
        for d in grid.doms
        for model in enumerate_models(signature, d)
        if len(model.domain) == d
    ]


# ---------------------------------------------------------------------------
# Formula corpora

_ATOM_SPEC = re.compile(r"([A-Za-z_]\w*)(?:\((\d+)\))?\Z")

# the corpus for the translation sweep: every upwards closed built-in that
# the compiler accepts directly, plus constancy
DEFAULT_TRANSLATION_ATOMS = (
    "NE",
    "intersect",
    "inconst",
    "big(2)",
    "total",
    "nondep",
    "nonexcl",
    "const",
)
UPWARD_ATOMS = ("NE", "intersect", "inconst", "big(2)", "total", "nondep", "nonexcl")
BOUNDED_ATOMS = ("NE", "intersect", "inconst", "big(2)", "nondep", "nonexcl", "total", "const")
LOCALITY_ATOMS = ("NE", "const", "inconst", "dep", "incl", "nonexcl", "total")
POSSIBILITY_ATOMS = ("NE", "const", "inconst", "dep", "incl")


def _spread(items: Sequence, cap: int) -> list:
    """At most `cap` items, spaced evenly through the sequence (always
    including the ends) -- the deterministic sampling used to keep the
    corpus from exploding combinatorially."""
    if cap <= 0 or len(items) <= cap:
        return list(items)
    if cap == 1:
        return [items[0]]
    last = len(items) - 1
    picked = [items[round(i * last / (cap - 1))] for i in range(cap)]
    return list(dict.fromkeys(picked))


def _atom_instances(
    spec: str, vars: tuple[str, ...], registry: AtomRegistry
) -> list[DepAtom]:
    m = _ATOM_SPEC.match(spec)
    if not m:
        raise HarnessError(f"bad atom spec {spec!r} (expected name or name(k))")
    name, param_text = m.group(1), m.group(2)
    param = int(param_text) if param_text else None
    try:
        widths = registry.unit(name).group_widths
        registry.resolve(name, widths, param)  # judges the parameter
    except AtomError as err:
        raise HarnessError(f"bad atom spec {spec!r}: {err}") from None
    groups = len(widths)
    if groups == 0:
        return [DepAtom(name, (), param)]
    if groups == 1:
        return [
            DepAtom(name, (group,), param)
            for group in itertools.product(vars, repeat=widths[0])
        ]
    if groups == 2:
        pairs = [(u, w) for u in vars for w in vars if u != w] or [
            (v, v) for v in vars
        ]
        return [DepAtom(name, ((u,), (w,)), param) for u, w in pairs]
    if groups == 3:
        triples = [
            (u, w, z)
            for u in vars
            for w in vars
            for z in vars
            if u != w
        ] or [(v, v, v) for v in vars]
        return [
            DepAtom(name, ((u,), (w,), (z,)), param)
            for u, w, z in _spread(triples, 6)
        ]
    raise HarnessError(f"atom {name} has unsupported group count {groups}")


def generate_formulas(
    atoms: Sequence[str],
    signature: Mapping[str, int],
    max_depth: int,
    vars: tuple[str, ...],
    registry: AtomRegistry | None = None,
    binary_cap: int = 5,
    mix_cap: int = 3,
    quant_cap: int = 4,
) -> list[Formula]:
    """A deterministic negation-normal-form corpus.

    Depth 0 is every literal over the signature plus every atom instance
    over `vars`.  Each further depth combines evenly spaced samples of the
    previous layer (`binary_cap` left operands against `mix_cap` samples
    each of the leaves and the previous layer) under disjunction and
    conjunction, and quantifies `quant_cap` sampled bodies by each
    variable.  Quantifiers only wrap bodies whose atoms are all upwards
    closed (first-order bodies always qualify): existentials over other
    bodies have no subexponential evaluation path, and the caps exist
    precisely to keep every emitted formula checkable.  Results are
    deduplicated structurally; the count at fixed parameters is pinned by
    the test suite.
    """
    if len(set(vars)) != len(vars) or not vars:
        raise HarnessError("corpus variables must be distinct and nonempty")
    reg = registry or DEFAULT_REGISTRY
    leaves: list[Formula] = []
    for name in sorted(signature):
        for tup in itertools.product(vars, repeat=signature[name]):
            args = tuple(Var(v) for v in tup)
            leaves.append(RelLit(name, True, args))
            leaves.append(RelLit(name, False, args))
    for i, u in enumerate(vars):
        for w in vars[i + 1 :]:
            leaves.append(EqLit(True, Var(u), Var(w)))
            leaves.append(EqLit(False, Var(u), Var(w)))
    for spec in atoms:
        leaves.extend(_atom_instances(spec, vars, reg))

    seen: dict[Formula, None] = dict.fromkeys(leaves)
    layer = list(seen)
    gate_cache: dict[int, bool] = {}
    for _ in range(max_depth):
        lefts = _spread(layer, binary_cap)
        rights = list(
            dict.fromkeys(_spread(leaves, mix_cap) + _spread(layer, mix_cap))
        )
        fresh: list[Formula] = []
        for a in lefts:
            for b in rights:
                fresh.append(Or(a, b))
                fresh.append(And(a, b))
        bodies = _spread(
            [f for f in layer if upward_fragment(f, reg, gate_cache)], quant_cap
        )
        for v in vars:
            for body in bodies:
                fresh.append(Exists(v, body))
                fresh.append(Forall(v, body))
        layer = []
        for f in fresh:
            if f not in seen:
                seen[f] = None
                layer.append(f)
    return list(seen)


# ---------------------------------------------------------------------------
# Cost estimation for the exhaustive modes

def eval_cost_estimate(
    phi: Formula, dom_size: int, n_rows: int, mode: str = "oracle"
) -> float:
    """A deliberately pessimistic count of the basic steps the `oracle`
    or `naive` evaluator would take.  Used only to decide which grid
    points the independence tiers can afford; skipped points are counted,
    never silently dropped."""
    cap = 1e18

    def go(node: Formula, n: int) -> float:
        n = max(n, 1)
        if isinstance(node, (BoolLit, RelLit, EqLit, DepAtom)):
            return n
        if isinstance(node, And):
            return go(node.left, n) + go(node.right, n)
        if isinstance(node, Or):
            branches = 3.0**n if mode == "naive" else 2.0**n
            return min(cap, branches * (go(node.left, n) + go(node.right, n) + n))
        if isinstance(node, Exists):
            if mode == "naive":
                return min(cap, (2.0**dom_size - 1) ** n * go(node.body, n * dom_size))
            m = n * dom_size
            return min(cap, 2.0**m * (4 + go(node.body, m)))
        if isinstance(node, Forall):
            return n + go(node.body, n * dom_size)
        if isinstance(node, Possibly):
            return min(cap, 2.0**n * (1 + go(node.body, n)))
        if isinstance(node, RestrictedBy):
            branches = 3.0**n if mode == "naive" else 2.0**n
            return min(cap, branches * (n + go(node.body, n)))
        raise HarnessError(f"cannot estimate {node!r}")

    try:
        return go(phi, n_rows)
    finally:
        del go  # a self-referring closure would leave a cycle for the collector


DEFAULT_COST_BUDGET = 2e6


# ---------------------------------------------------------------------------
# Reports

@dataclass
class Report:
    """Outcome of one sweep: how many grid points were compared, which
    disagreed (with full reproduction data), and how many were skipped by
    the cost budget.  Serializations exclude wall-clock so identical
    parameters give identical bytes."""

    name: str
    params: dict
    checked: int = 0
    skipped: int = 0
    mismatches: list[dict] = field(default_factory=list)
    records: list[dict] | None = None

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def summary(self) -> dict:
        return {
            "name": self.name,
            "ok": self.ok,
            "checked": self.checked,
            "skipped": self.skipped,
            "mismatch_count": len(self.mismatches),
            "mismatches": self.mismatches,
            "params": self.params,
        }

    def json_lines(self, verbose: bool = False) -> Iterator[str]:
        if verbose and self.records is not None:
            for record in self.records:
                yield json.dumps(record, sort_keys=True)
        yield json.dumps(self.summary(), sort_keys=True)


def _point(model: Model, team: Team, verdicts: dict, extra: dict) -> dict:
    """A report record; formulas among the `extra` fields are printed here,
    so points that are never recorded cost no printing."""
    data = {
        "model": json.loads(model.to_json()),
        "team": json.loads(team.to_json()),
        "verdicts": verdicts,
        "ok": len(set(verdicts.values())) <= 1,
    }
    data.update((k, pretty(v) if isinstance(v, Formula) else v) for k, v in extra.items())
    return data


def _free(phi: Formula) -> tuple[str, ...]:
    return tuple(sorted(free_variables(phi)))


# ---------------------------------------------------------------------------
# Comparisons
#
# A comparison walks the teams of one (item, model) pair, given the tier's
# row cap, its pair of modes and the atom registry.  It is a generator: the
# first yield lists the (formula, mode) pairs it evaluates, and the runner
# stops it there when the cost estimate of a side not in `fast` mode is over
# budget.  Every later yield is a Point.  The five one-formula comparisons
# are `check(phi, xs, ev, model, rows)` under the adapter `_one_formula`,
# which yields their one side, `phi` in the first mode, and builds `ev` on
# that mode and the registry; `xs` is the free variables of `phi`.

class Point(NamedTuple):
    """What one comparison step adds to its report.  `record` holds the
    arguments of `_point` for its verbose record, built only when asked
    for."""

    checked: int = 1
    skipped: int = 0
    mismatch: dict | None = None
    record: tuple | None = None


def _pair(model: Model, team: Team, verdicts: dict, extra: dict) -> Point:
    """A point with two verdicts: a mismatch when they differ, recorded
    the same way either way."""
    record = (model, team, verdicts, extra)
    left, right = verdicts.values()
    return Point(1, 0, None if left == right else _point(*record), record)


def _equivalence(item, model, rows, modes, registry):
    """Two formulas, each on its own mode, agree on every team over the
    item's variables."""
    phi, psi, vars = item
    mode_l, mode_r = modes
    yield [(phi, mode_l), (psi, mode_r)]
    ev_l = Evaluator(model, registry=registry, mode=mode_l)
    ev_r = ev_l if mode_r == mode_l else Evaluator(model, registry=registry, mode=mode_r)
    extra = {"left": phi, "right": psi, "modes": [mode_l, mode_r]}
    for team in enumerate_teams(model, vars, rows):
        a = ev_l.evaluate(phi, team)
        yield _pair(model, team, {"left": a, "right": ev_r.evaluate(psi, team)}, extra)


def _translation(item, model, rows, modes, registry):
    """Team satisfaction of a formula agrees with ordinary satisfaction of
    its compiled sentence, the team relation set to the team's projection:
    its rows, as the teams range over the distinct tuple variables."""
    phi, tuple_vars, sentence, relation = item
    mode = modes[0]
    yield [(phi, mode)]
    ev = Evaluator(model, registry=registry, mode=mode)
    compiled = compile_fo(model, sentence, ())
    extra = {
        "formula": phi,
        "tuple": list(tuple_vars),
        "sentence": sentence,
        "relation": relation,
        "mode": mode,
    }
    if tuple_vars:
        teams: Iterable[Team] = enumerate_teams(model, tuple_vars, rows)
    else:
        # a team over the empty tuple is empty or the lone empty assignment;
        # the compiled sentence only speaks for the nonempty one
        teams = [SINGLETON_EMPTY_TEAM]
        yield Point(checked=0, skipped=1)
    for team in teams:
        a = ev.evaluate(phi, team)
        b = compiled([], {relation: team.rows} if tuple_vars else {})
        yield _pair(model, team, {"team_eval": a, "tarski": b}, extra)


def _one_formula(check: Callable) -> Callable:
    """The comparison whose one side is `phi` in the first mode, checked
    by `check` with an evaluator `ev` on that mode."""

    @functools.wraps(check)
    def compare(phi, model, rows, modes, registry):
        yield [(phi, modes[0])]
        ev = Evaluator(model, registry=registry, mode=modes[0])
        yield from check(phi, _free(phi), ev, model, rows)

    return compare


@_one_formula
def _flatness(phi, xs, ev, model, rows):
    compiled = compile_fo(model, phi, xs)
    extra = {"formula": phi, "mode": ev.mode}
    for team in enumerate_teams(model, xs, rows):
        a = ev.evaluate(phi, team)
        b = all(compiled(row) for row in team.sorted_rows)
        yield _pair(model, team, {"team_eval": a, "pointwise": b}, extra)


@_one_formula
def _locality(phi, xs, ev, model, rows):
    dropped = next(v for v in ("z", "w", "u", "t", "s") if v not in xs)
    extra = {"formula": phi, "dropped": dropped, "mode": ev.mode}
    for team in enumerate_teams(model, xs + (dropped,), rows):
        a = ev.evaluate(phi, team)
        b = ev.evaluate(phi, team_restrict(team, xs))
        yield _pair(model, team, {"padded": a, "restricted": b}, extra)


@_one_formula
def _upflat(phi, xs, ev, model, rows):
    """A team accounts for itself and its 2^rows subteams."""
    compiled = compile_fo(model, flatten(phi), xs)
    for big_team in enumerate_teams(model, xs, rows):
        team_rows = sorted(big_team.rows)
        flat_ok = all(compiled(row) for row in team_rows)
        big_sat = ev.evaluate(phi, big_team)
        verdicts = {"satisfied": big_sat, "flattening_pointwise": flat_ok}
        if big_sat and not flat_ok:
            extra = {"formula": phi, "kind": "flattening-implication", "mode": ev.mode}
            yield Point(checked=0, mismatch=_point(model, big_team, verdicts, extra))
        # closure: every satisfying subteam of a pointwise-flat superteam
        # forces the superteam.  When the superteam already satisfies (or
        # is not pointwise flat) the implication holds for all 2^|rows|
        # subteams at once; only the remaining case needs evaluations.
        n_subteams = 2 ** len(team_rows)
        if flat_ok and not big_sat:
            for sub_rows in subsets(team_rows):
                sub = Team(big_team.vars, sub_rows)
                if ev.evaluate(phi, sub):
                    extra = {
                        "formula": phi,
                        "subteam": json.loads(sub.to_json()),
                        "kind": "upward-flat-closure",
                        "mode": ev.mode,
                    }
                    closure = {"subteam_satisfied": True, **verdicts}
                    yield Point(checked=0, mismatch=_point(model, big_team, closure, extra))
        extra = {"formula": phi, "subteams": n_subteams, "mode": ev.mode}
        yield Point(checked=1 + n_subteams, record=(model, big_team, verdicts, extra))


@_one_formula
def _isomorphism(phi, xs, ev, model, rows):
    """One point per team and nontrivial renaming."""
    others = []
    for perm in itertools.permutations(model.domain):
        mapping = dict(zip(model.domain, perm))
        if all(k == v for k, v in mapping.items()):
            continue
        renamed = Evaluator(permute_model(model, mapping), registry=ev.registry, mode=ev.mode)
        extra = {"formula": phi, "renaming": dict(sorted(mapping.items())), "mode": ev.mode}
        others.append((mapping, renamed, extra))
    for team in enumerate_teams(model, xs, rows):
        a = ev.evaluate(phi, team)
        for mapping, renamed, extra in others:
            b = renamed.evaluate(phi, permute_team(team, mapping))
            yield _pair(model, team, {"original": a, "renamed": b}, extra)


@_one_formula
def _height(phi, xs, ev, model, rows):
    """One point per satisfying team."""
    for team in enumerate_teams(model, xs, rows):
        if not ev.evaluate(phi, team):
            continue
        try:
            witness = find_small_witness(model, team, phi, registry=ev.registry, evaluator=ev)
        except InvariantBreach as breach:
            yield Point(mismatch=dict(breach.repro, kind="height-witness"))
            continue
        yield Point(record=(model, team, {"witness_size": len(witness.rows)}, {"formula": phi}))


# ---------------------------------------------------------------------------
# The runner

# The tasks of the sweep running on a worker pool.  Workers are forked after
# it is filled and receive task indices only, so a task may hold what cannot
# be pickled: closures in comparisons and corpora, or a custom atom's
# evaluator in the registry.
_TASKS: list[Callable[[], tuple]] = []


def _run_task(index: int) -> tuple:
    return _TASKS[index]()


def _map(tasks: list[Callable[[], tuple]], jobs: int) -> list[tuple]:
    """Every task's result, in task order, on at most `jobs` processes
    and never more than the machine has CPUs."""
    global _TASKS
    if jobs < 1:
        raise HarnessError(f"jobs must be at least 1, got {jobs}")
    workers = min(jobs, len(tasks), os.cpu_count() or 1)
    if workers < 2:
        return [task() for task in tasks]
    import multiprocessing

    _TASKS = tasks
    try:
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            return pool.map(_run_task, range(len(tasks)), chunksize=1)
    finally:
        _TASKS = []


def _sweep(
    name: str,
    params: dict,
    compare: Callable,
    items: Sequence,
    signature: Mapping[str, int],
    grid: GridConfig,
    mode: str | Sequence[str],
    budget: float | None,
    registry: AtomRegistry | None,
    jobs: int,
    verbose: bool,
    wide_rows: int | None = None,
) -> Report:
    """Run `compare` on every item against every grid model over
    `signature` (items outer, models inner) and return the report `name`
    with `params`, its counts and records merged in task order whatever
    the number of workers.  Teams have at most `grid.max_rows` rows, and
    at most `wide_rows` on models of three or more elements.  A task whose
    cost estimate is over `budget` counts as one skipped point; sides
    evaluated in `fast` mode are never gated."""
    modes = (mode, mode) if isinstance(mode, str) else tuple(mode)
    wide = grid.max_rows if wide_rows is None else min(wide_rows, grid.max_rows)

    def run(item, model: Model) -> tuple:
        rows = wide if len(model.domain) > 2 else grid.max_rows
        points = compare(item, model, rows, modes, registry)
        sides = next(points)
        if budget is not None and budget < max(
            (eval_cost_estimate(f, len(model.domain), rows, m) for f, m in sides if m != "fast"),
            default=0.0,
        ):
            return 0, 1, [], []
        checked, skipped, mismatches, records = 0, 0, [], []
        for point in points:
            checked += point.checked
            skipped += point.skipped
            if point.mismatch is not None:
                mismatches.append(point.mismatch)
            if verbose and point.record is not None:
                records.append(_point(*point.record))
        return checked, skipped, mismatches, records

    models = _grid_models(signature, grid)
    tasks = [functools.partial(run, item, model) for item in items for model in models]
    report = Report(name, params, records=[] if verbose else None)
    for checked, skipped, mismatches, records in _map(tasks, jobs):
        report.checked += checked
        report.skipped += skipped
        report.mismatches.extend(mismatches)
        if report.records is not None:
            report.records.extend(records)
    return report


# ---------------------------------------------------------------------------
# Public checks

def check_formula_equivalence(
    phi: Formula,
    psi: Formula,
    grid: GridConfig | None = None,
    signature: Mapping[str, int] | None = None,
    vars: tuple[str, ...] | None = None,
    registry: AtomRegistry | None = None,
    mode: str = "fast",
    budget: float | None = None,
    jobs: int = 1,
    verbose: bool = False,
) -> Report:
    """Pointwise comparison of two formulas over every model and team of
    the grid."""
    grid = grid or DEFAULT_GRID
    if signature is None:
        sig_a = formula_signature(phi)
        sig_b = formula_signature(psi)
        for name in sig_a.keys() & sig_b.keys():
            if sig_a[name] != sig_b[name]:
                raise HarnessError(f"relation {name} used at two arities")
        signature = {**sig_a, **sig_b}
    if vars is None:
        vars = tuple(sorted(free_variables(phi) | free_variables(psi)))
    params = {
        "left": pretty(phi),
        "right": pretty(psi),
        "vars": list(vars),
        "signature": dict(sorted(signature.items())),
        "grid": grid.as_dict(),
        "mode": mode,
    }
    return _sweep(
        "formula-equivalence", params, _equivalence, [(phi, psi, vars)],
        signature, grid, mode, budget, registry, jobs, verbose,
    )


def check_translation_equivalence(
    phi: Formula,
    tuple_vars: tuple[str, ...],
    grid: GridConfig | None = None,
    signature: Mapping[str, int] | None = None,
    registry: AtomRegistry | None = None,
    mode: str = "fast",
    budget: float | None = None,
    jobs: int = 1,
    verbose: bool = False,
    sentence: Formula | None = None,
    relation: str | None = None,
) -> Report:
    """Compare team satisfaction of `phi` against ordinary satisfaction of
    its compiled sentence, with the team relation set to the team's
    projection, at every grid point.

    `sentence`/`relation` override the compiler output; that exists so the
    tests can feed a deliberately corrupted sentence and watch the sweep
    catch it."""
    grid = grid or DEFAULT_GRID
    if sentence is None:
        result = translate(phi, tuple_vars, registry)
        sentence, relation = result.sentence, result.relation
    if relation is None:
        raise HarnessError("a sentence override needs its team relation name")
    if signature is None:
        signature = formula_signature(phi)
    params = {
        "formula": pretty(phi),
        "tuple": list(tuple_vars),
        "sentence": pretty(sentence),
        "relation": relation,
        "signature": dict(sorted(signature.items())),
        "grid": grid.as_dict(),
        "mode": mode,
    }
    return _sweep(
        "translation-equivalence", params, _translation, [(phi, tuple_vars, sentence, relation)],
        signature, grid, mode, budget, registry, jobs, verbose,
    )


# ---------------------------------------------------------------------------
# Theorem suites

class Tier(NamedTuple):
    """One report of a suite: a label, the evaluator mode (or the pair of
    modes of a two-sided comparison), a grid, a budget and item filters.

    `rows` None keeps the suite's grid; a number k reduces it to
    two-element models and teams of at most k rows.  `wide_rows` caps the
    teams on models of three or more elements.  `only` keeps the items the
    tier checks (the others are not part of its corpus); `skip` marks
    items of its corpus it cannot check, each counted skipped once."""

    label: str
    mode: str | tuple[str, str]
    rows: int | None = None
    wide_rows: int | None = None
    budget: float | None = None
    only: Callable[[object], bool] | None = None
    skip: Callable[[object], bool] | None = None


class Sweep(NamedTuple):
    """A theorem suite: `corpus(grid, signature)` builds its items,
    `compare` checks one (item, model) pair on the models over
    `signature`, and each tier yields one report, with `params` echoed
    in it as lists."""

    name: str
    corpus: Callable[[GridConfig, Mapping[str, int]], list]
    compare: Callable
    tiers: tuple[Tier, ...]
    signature: Mapping[str, int] = {"P": 1}
    params: Mapping[str, Sequence] = {}


def _vars(grid: GridConfig) -> tuple[str, ...]:
    return ("x", "y")[: grid.max_vars]


def _formulas(atoms: Sequence[str], **caps) -> Callable[..., list[Formula]]:
    """The corpus builder of `generate_formulas` over `atoms` at the
    suite grid's depth."""

    def build(grid, signature):
        return generate_formulas(atoms, signature, grid.max_depth, _vars(grid), **caps)

    return build


def _translation_corpus(grid, signature):
    items = []
    for phi in generate_formulas(DEFAULT_TRANSLATION_ATOMS, signature, grid.max_depth, _vars(grid)):
        xs = _free(phi) or ("x",)
        result = translate(phi, xs)
        items.append((phi, xs, result.sentence, result.relation))
    return items


def _possibility_corpus(grid, signature):
    """Possibility of every body of a depth-two corpus, with its
    two-constant-witness expansion."""
    bodies = generate_formulas(
        POSSIBILITY_ATOMS, signature, min(2, grid.max_depth), _vars(grid),
        binary_cap=3, mix_cap=2, quant_cap=2,
    )
    phis = [Possibly(body) for body in bodies]
    return [(phi, desugar_possibility(phi), _free(phi)) for phi in phis]


def _quantifier_free(phi: Formula) -> bool:
    return not any(
        isinstance(node, (Exists, Forall, Possibly)) for node in subformulas(phi)
    )


def _definability_corpus(grid, signature):
    """Unit-width instances of the two definable negative atoms, including
    collapsed variable patterns, with their expansions."""
    instances = [
        DepAtom("nonincl", (("x",), ("y",))),
        DepAtom("nonincl", (("y",), ("x",))),
        DepAtom("noncindep", (("x",), ("y",), ("z",))),
        DepAtom("noncindep", (("x",), ("y",), ("y",))),
        DepAtom("noncindep", (("x",), ("y",), ("x",))),
        DepAtom("noncindep", (("x",), ("x",), ("y",))),
    ]
    return [(atom, desugar_negated_atoms(atom), _free(atom)) for atom in instances]


def _isomorphism_corpus(grid, signature):
    formulas = generate_formulas(
        LOCALITY_ATOMS, signature, min(2, grid.max_depth), _vars(grid),
        binary_cap=3, mix_cap=2, quant_cap=2,
    )
    return _spread(formulas, 12)


def _unbounded(phi: Formula) -> bool:
    return compute_height(phi).value is None


SWEEPS: dict[str, Sweep] = {
    sweep.name: sweep
    for sweep in (
        # team satisfaction against compiled sentences over the whole
        # corpus; the oracle tier re-runs the affordable points
        Sweep("translation", _translation_corpus, _translation, (
            Tier("fast", "fast"),
            Tier("oracle", "oracle", rows=2, budget=DEFAULT_COST_BUDGET),
        ), params={"atoms": DEFAULT_TRANSLATION_ATOMS}),
        # first-order formulas hold on a team iff on each of its assignments
        Sweep("flatness", _formulas(()), _flatness, (
            Tier("fast", "fast"),
            Tier("oracle", "oracle", rows=3, budget=DEFAULT_COST_BUDGET),
        )),
        # the fast evaluator restricts teams itself, which would make this
        # check circular, so both tiers run pruning-disabled modes; the
        # three-element models cap teams at two rows for cost
        Sweep("locality", _formulas(LOCALITY_ATOMS, binary_cap=4, mix_cap=2, quant_cap=3), _locality, (
            Tier("oracle", "oracle", wide_rows=2, budget=DEFAULT_COST_BUDGET),
            Tier("naive", "naive", rows=2, budget=DEFAULT_COST_BUDGET),
        )),
        # over upwards closed atoms: satisfaction forces the flattening
        # pointwise, and a satisfying subteam of a pointwise-flat team
        # forces the team (every subteam is enumerated)
        Sweep("upflat", _formulas(UPWARD_ATOMS), _upflat, (
            Tier("fast", "fast"),
            Tier("oracle", "oracle", rows=3, budget=DEFAULT_COST_BUDGET),
        )),
        # formulas containing totality have no height bound and are counted
        # skipped
        Sweep("height", _formulas(BOUNDED_ATOMS), _height, (
            Tier("fast", "fast", skip=_unbounded),
        )),
        # the oracle-vs-fast tier runs the operator on the subset-enumerating
        # path against the expansion on the fast path, so the two shortcuts
        # are never trusted jointly; exhaustion makes the fully naive tier
        # affordable only for quantifier-free bodies on one-row teams
        Sweep("possibility", _possibility_corpus, _equivalence, (
            Tier("fast", "fast"),
            Tier("oracle-vs-fast", ("oracle", "fast"), budget=DEFAULT_COST_BUDGET),
            Tier("naive-1row", "naive", rows=1, only=lambda item: _quantifier_free(item[0].body)),
        )),
        # the two-row naive tier affords the single-quantifier expansion but
        # not the triple-quantifier one (whose points it skips by estimate);
        # on one-row teams exhaustion is cheap enough to run everything
        # ungated.  The atoms mention no relation, so the models have none.
        Sweep("definability", _definability_corpus, _equivalence, (
            Tier("fast", "fast"),
            Tier("naive-2rows", "naive", rows=2, budget=DEFAULT_COST_BUDGET),
            Tier("naive-1row", "naive", rows=1),
        ), signature={}),
        # three-element models are spot-checked at two rows, two-element
        # models in full
        Sweep("isomorphism", _isomorphism_corpus, _isomorphism, (
            Tier("fast", "fast", wide_rows=2),
        )),
    )
}


def run_suite(
    name: str, grid: GridConfig | None = None, jobs: int = 1, verbose: bool = False
) -> list[Report]:
    """One report per tier of the theorem suite `name` in `SWEEPS`."""
    sweep = SWEEPS.get(name)
    if sweep is None:
        raise HarnessError(f"unknown theorem suite {name!r}; known: {', '.join(sorted(SWEEPS))}")
    grid = grid or DEFAULT_GRID
    corpus = sweep.corpus(grid, sweep.signature)
    reports = []
    for tier in sweep.tiers:
        tier_grid = grid
        if tier.rows is not None:
            tier_grid = replace(grid, doms=(2,), max_rows=min(tier.rows, grid.max_rows))
        items = [item for item in corpus if tier.only is None or tier.only(item)]
        checkable = [item for item in items if tier.skip is None or not tier.skip(item)]
        params = {
            "tier": tier.label,
            "grid": tier_grid.as_dict(),
            "corpus_size": len(items),
            "mode": tier.mode if isinstance(tier.mode, str) else "/".join(tier.mode),
            **{key: list(value) for key, value in sweep.params.items()},
        }
        report = _sweep(
            sweep.name, params, sweep.compare, checkable, sweep.signature, tier_grid,
            tier.mode, tier.budget, DEFAULT_REGISTRY, jobs, verbose, tier.wide_rows,
        )
        report.skipped += len(items) - len(checkable)
        reports.append(report)
    return reports
