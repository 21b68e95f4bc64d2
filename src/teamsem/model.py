"""First-order models, assignments, teams, and the team algebra.

Teams are duplicate-free sets of assignments over an ordered variable
domain.  The empty team over variables V and the one-assignment team over
no variables are distinct objects, and both are routinely meaningful.
"""

from __future__ import annotations

import functools
import itertools
import json
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping

from .syntax import (
    And,
    BoolLit,
    Const,
    EqLit,
    Exists,
    Forall,
    Formula,
    FreshNames,
    Or,
    RelLit,
    Term,
    Var,
    all_variable_names,
    ands,
    constant_names,
    free_variables,
    is_first_order,
    map_formula,
    ors,
    simplify,
    subformulas,
    substitute_vars,
)


class ModelError(Exception):
    pass


class EvalError(Exception):
    pass


Row = tuple[str, ...]


@dataclass(frozen=True)
class Relation:
    arity: int
    tuples: frozenset[Row]

    def __post_init__(self) -> None:
        for t in self.tuples:
            if len(t) != self.arity:
                raise ModelError(f"tuple {t} does not match arity {self.arity}")


@dataclass(frozen=True)
class Model:
    """A finite model: ordered domain of at least two elements, named
    relations, and named constants."""

    domain: tuple[str, ...]
    relations: Mapping[str, Relation] = field(default_factory=dict)
    constants: Mapping[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.domain) < 2:
            raise ModelError("models must have at least two elements")
        if len(set(self.domain)) != len(self.domain):
            raise ModelError("domain elements must be distinct")
        dom = set(self.domain)
        for name, rel in self.relations.items():
            for t in rel.tuples:
                if any(e not in dom for e in t):
                    raise ModelError(f"relation {name} mentions elements outside the domain")
        for name, e in self.constants.items():
            if e not in dom:
                raise ModelError(f"constant {name} = {e} is outside the domain")

    def with_relation(self, name: str, arity: int, tuples: Iterable[Row]) -> "Model":
        rels = dict(self.relations)
        rels[name] = Relation(arity, frozenset(tuple(t) for t in tuples))
        return Model(self.domain, rels, dict(self.constants))

    # -- JSON contract ------------------------------------------------------

    @staticmethod
    def from_json(text: str) -> "Model":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ModelError(f"bad model JSON: {e}") from e
        if not isinstance(raw, dict) or not isinstance(raw.get("domain"), list):
            raise ModelError("model JSON needs a 'domain' list")
        constants, relations = raw.get("constants", {}), raw.get("relations", {})
        if not isinstance(constants, dict) or not isinstance(relations, dict):
            raise ModelError("model JSON 'constants' and 'relations' must be objects")
        domain = tuple(str(e) for e in raw["domain"])
        rels = {}
        for name, body in relations.items():
            if not isinstance(body, dict) or type(body.get("arity")) is not int:
                raise ModelError(f"relation {name} needs an integer 'arity'")
            tuples = _json_rows(body.get("tuples", []), f"relation {name} tuples")
            rels[str(name)] = Relation(body["arity"], tuples)
        return Model(domain, rels, {str(k): str(v) for k, v in constants.items()})

    def to_json(self) -> str:
        return json.dumps(
            {
                "domain": list(self.domain),
                "constants": {k: self.constants[k] for k in sorted(self.constants)},
                "relations": {
                    name: {
                        "arity": rel.arity,
                        "tuples": [list(t) for t in sorted(rel.tuples)],
                    }
                    for name, rel in sorted(self.relations.items())
                },
            },
            indent=2,
        )


@dataclass(frozen=True)
class Team:
    """A set of assignments, each a row aligned with `vars`."""

    vars: tuple[str, ...]
    rows: frozenset[Row]

    def __post_init__(self) -> None:
        if len(set(self.vars)) != len(self.vars):
            raise ModelError("team variables must be distinct")
        for r in self.rows:
            if len(r) != len(self.vars):
                raise ModelError(f"row {r} does not match team variables {self.vars}")

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def sorted_rows(self) -> list[Row]:
        return sorted(self.rows)

    def assignments(self) -> Iterator[dict[str, str]]:
        for r in self.sorted_rows:
            yield dict(zip(self.vars, r))

    # -- JSON contract ------------------------------------------------------

    @staticmethod
    def from_json(text: str) -> "Team":
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as e:
            raise ModelError(f"bad team JSON: {e}") from e
        if not isinstance(raw, dict) or not isinstance(raw.get("vars"), list) or "rows" not in raw:
            raise ModelError("team JSON needs a 'vars' list and 'rows'")
        return Team(tuple(str(v) for v in raw["vars"]), _json_rows(raw["rows"], "team rows"))

    def to_json(self) -> str:
        return json.dumps(
            {"vars": list(self.vars), "rows": [list(r) for r in self.sorted_rows]},
            indent=2,
        )


SINGLETON_EMPTY_TEAM = Team((), frozenset({()}))   # the single empty assignment


def _json_rows(value, what: str) -> frozenset[Row]:
    """The rows of a JSON list of lists, each entry read as a string."""
    if not isinstance(value, list) or not all(isinstance(r, list) for r in value):
        raise ModelError(f"{what} must be a list of lists")
    return frozenset(tuple(str(e) for e in r) for r in value)


# ---------------------------------------------------------------------------
# Team algebra


def team_restrict(team: Team, vars: tuple[str, ...]) -> Team:
    """Restrict every assignment to `vars` (dropping duplicates)."""
    return Team(vars, team_project(team, vars))


def team_project(team: Team, vars: tuple[str, ...]) -> frozenset[Row]:
    """The relation {s(vars) : s in team}; repeated variables are allowed."""
    idx = []
    for v in vars:
        try:
            idx.append(team.vars.index(v))
        except ValueError:
            raise EvalError(f"variable {v} is not in the team domain {team.vars}")
    return frozenset(tuple(r[i] for i in idx) for r in team.rows)


def duplicate(model: Model, team: Team, var: str) -> Team:
    """X[M/var]: every assignment extended with every domain element;
    a bound occurrence of `var` is overwritten in place."""
    if var in team.vars:
        i = team.vars.index(var)
        rows = frozenset(
            r[:i] + (m,) + r[i + 1 :] for r in team.rows for m in model.domain
        )
        return Team(team.vars, rows)
    rows = frozenset(r + (m,) for r in team.rows for m in model.domain)
    return Team(team.vars + (var,), rows)


def supplement(team: Team, choice: Mapping[Row, frozenset[tuple[str, ...]]], vars: tuple[str, ...]) -> Team:
    """X[H/vars]: extend (or overwrite) each assignment with every tuple the
    choice function assigns to it.  H must be total with nonempty values."""
    width = len(vars)
    positions: list[int | None] = []
    new_vars = list(team.vars)
    for v in vars:
        if v in team.vars:
            positions.append(team.vars.index(v))
        else:
            positions.append(None)
            new_vars.append(v)
    rows = set()
    for r in team.rows:
        if r not in choice:
            raise EvalError(f"choice function misses assignment {r}")
        values = choice[r]
        if not values:
            raise EvalError(f"choice function assigns the empty set to {r}")
        for val in values:
            if len(val) != width:
                raise EvalError(f"choice value {val} does not match width {width}")
            new_row = list(r) + [""] * (len(new_vars) - len(r))
            for k, (v, pos) in enumerate(zip(vars, positions)):
                if pos is None:
                    new_row[new_vars.index(v)] = val[k]
                else:
                    new_row[pos] = val[k]
            rows.add(tuple(new_row))
    return Team(tuple(new_vars), frozenset(rows))


def letters(n: int) -> tuple[str, ...]:
    """The element names of an enumerated n-element domain: a, b, ... (n <= 8)."""
    return tuple("abcdefgh"[:n])


def subsets(items: Iterable, low: int = 0, high: int | None = None) -> Iterator[frozenset]:
    """The subsets of `items` with `low` to `high` members, smallest first
    and, within one size, in `itertools.combinations` order over the
    sorted items.  This is the order every brute-force search relies on
    for its first witness or counterexample."""
    pool = sorted(items)
    top = len(pool) if high is None else min(high, len(pool))
    for size in range(low, top + 1):
        for combo in itertools.combinations(pool, size):
            yield frozenset(combo)


def cover_parts(items: list) -> Iterator[tuple[list, list]]:
    """All ordered pairs of parts whose union is `items`: each item lands in
    the left part only, the right only, or both (3^n pairs, in a fixed
    order over the listed items)."""
    for trits in itertools.product((0, 1, 2), repeat=len(items)):
        yield [r for r, t in zip(items, trits) if t != 1], [r for r, t in zip(items, trits) if t != 0]


def enumerate_covers(team: Team) -> Iterator[tuple[Team, Team]]:
    """All ordered pairs (Y, Z) of subteams with Y ∪ Z = X, as `cover_parts`
    of the sorted rows."""
    for left, right in cover_parts(team.sorted_rows):
        yield Team(team.vars, frozenset(left)), Team(team.vars, frozenset(right))


def enumerate_choice_functions(
    team: Team, model: Model, width: int
) -> Iterator[dict[Row, frozenset[tuple[str, ...]]]]:
    """All functions from assignments of X to nonempty sets of `width`-tuples
    over the domain: (2^(|dom|^width) - 1)^|X| of them, in a fixed order."""
    if width <= 0:
        raise EvalError("choice function width must be positive")
    rows = team.sorted_rows
    tuples = sorted(itertools.product(model.domain, repeat=width))
    nonempty_subsets = []
    for mask in range(1, 1 << len(tuples)):
        nonempty_subsets.append(
            frozenset(t for i, t in enumerate(tuples) if mask >> i & 1)
        )
    for combo in itertools.product(nonempty_subsets, repeat=len(rows)):
        yield dict(zip(rows, combo))


# ---------------------------------------------------------------------------
# The first-order engine: each formula is checked and rewritten once, then
# compiled per model into closures over a slot environment.


def tarski_eval(model: Model, assignment: Mapping[str, str], phi: Formula) -> bool:
    """Classical satisfaction of first-order `phi` by one assignment: the
    engine's one-shot entry point (compile, then run)."""
    names = tuple(assignment)
    return compile_fo(model, phi, names)([assignment[v] for v in names])


def compile_fo(model: Model, phi: Formula, vars: tuple[str, ...]) -> Callable[..., bool]:
    """Compile first-order `phi` on `model` into `run(env, rels={})`: `env`
    holds the values of `vars`, in order, and `rels` supplies or overrides
    named relations per call (such as a translated sentence's team
    relation) with tuples over the domain.

    One-point bindings are substituted away and `simplify` runs; a block of
    like quantifiers guarded by a relation loops over the relation's tuples,
    not over dom^k, as in the guarded fragment.  Non-first-order input,
    unbound variables, unknown constants and arity clashes with the model
    raise `EvalError` here, before any rewrite can hide them; a relation
    neither in the model nor supplied raises when a run reaches it."""
    free, constants, arities, rewritten = _prepared(phi)
    unbound = sorted(free - set(vars))
    if unbound:
        raise EvalError(f"unbound variable {unbound[0]}")
    for name in constants:
        if name not in model.constants:
            raise EvalError(f"unknown constant {name}")
    for name, arity in arities:
        rel = model.relations.get(name)
        if rel is not None and rel.arity != arity:
            raise EvalError(f"relation {name} has arity {rel.arity}, got {arity} arguments")
    domain = model.domain
    # slots: the variables', then one per constant, then the quantifiers'
    top: dict[Term, int] = {Var(v): i for i, v in enumerate(vars)}
    top.update({Const(c): len(vars) + i for i, c in enumerate(constants)})
    width = first = len(vars) + len(constants)

    def comp(node: Formula, depth: int, slots: dict[Term, int]) -> Callable[..., bool]:
        nonlocal width
        if isinstance(node, BoolLit):
            value = node.value
            return lambda env, rels: value
        if isinstance(node, RelLit):
            name, idx, pos = node.name, [slots[t] for t in node.args], node.positive
            if len(idx) == 1:
                i = idx[0]
                return lambda env, rels: ((env[i],) in rels[name]) == pos
            key = operator.itemgetter(*idx) if idx else lambda env: ()
            return lambda env, rels: (key(env) in rels[name]) == pos
        if isinstance(node, EqLit):
            i, j = slots[node.left], slots[node.right]
            if node.positive:
                return lambda env, rels: env[i] == env[j]
            return lambda env, rels: env[i] != env[j]
        if isinstance(node, (Or, And)):
            fa, fb = comp(node.left, depth, slots), comp(node.right, depth, slots)
            if isinstance(node, Or):
                return lambda env, rels: fa(env, rels) or fb(env, rels)
            return lambda env, rels: fa(env, rels) and fb(env, rels)
        # a block of like quantifiers: loop over a guard's tuples, or dom^k
        exists, chain, body = isinstance(node, Exists), [], node
        while isinstance(body, type(node)) and body.var not in chain:
            chain.append(body.var)
            body = body.body
        parts = _spine(body, And if exists else Or)
        g = _guard(parts, chain, exists)
        if g is None:
            bound, tuples = chain, lambda rels: itertools.product(domain, repeat=len(chain))
        else:
            guard, bound = parts[g].name, [t.name for t in parts[g].args]
            body = (ands if exists else ors)(parts[:g] + parts[g + 1 :])
            for v in reversed([v for v in chain if v not in bound]):
                body = type(node)(v, body)
            tuples = lambda rels: rels[guard]
        lo, hi = depth, depth + len(bound)
        width = max(width, hi)
        fb = comp(body, hi, {**slots, **{Var(v): lo + k for k, v in enumerate(bound)}})

        def block(env, rels):
            for t in tuples(rels):
                env[lo:hi] = t
                if fb(env, rels) == exists:
                    return exists
            return not exists

        return block

    try:
        fn = comp(rewritten, first, top)
    finally:
        del comp  # a self-referring closure would leave a cycle for the collector
    tail = [model.constants[c] for c in constants] + [None] * (width - first)
    static = {name: rel.tuples for name, rel in model.relations.items()}

    def run(env, rels: Mapping[str, frozenset[Row]] = {}) -> bool:
        try:
            return fn([*env, *tail] if tail else env, {**static, **rels} if rels else static)
        except KeyError as e:  # only relation lookups index by name
            raise EvalError(f"unknown relation {e.args[0]}") from None

    return run


# Bounded, since it keeps its formulas alive; callers run one formula on
# several models in a row, so the latest few are the ones asked for again.
@functools.lru_cache(maxsize=128)
def _prepared(phi: Formula) -> tuple[frozenset[str], tuple[str, ...], tuple, Formula]:
    """What the engine needs of `phi` that no model changes."""
    if not is_first_order(phi):
        raise EvalError(f"not a first-order formula: {phi}")
    arities = sorted({(n.name, len(n.args)) for n in subformulas(phi) if isinstance(n, RelLit)})
    constants = tuple(sorted(constant_names(phi)))
    return free_variables(phi), constants, tuple(arities), simplify(_one_point(phi))


def _one_point(phi: Formula) -> Formula:
    """Replace, bottom-up, `A v. (... \\/ v != t \\/ ...)` and
    `E v. (... /\\ v = t /\\ ...)` by the rest of the spine with t for v."""
    fresh = FreshNames(all_variable_names(phi))

    def rule(node: Formula) -> Formula:
        if isinstance(node, (Exists, Forall)):
            exists, v = isinstance(node, Exists), Var(node.var)
            parts = _spine(node.body, And if exists else Or)
            for i, lit in enumerate(parts):
                if isinstance(lit, EqLit) and lit.positive == exists and lit.left != lit.right:
                    if v in (lit.left, lit.right):
                        t = lit.right if lit.left == v else lit.left
                        rest = (ands if exists else ors)(parts[:i] + parts[i + 1 :])
                        return substitute_vars(rest, {node.var: t}, fresh)
        return node

    return map_formula(phi, rule)


def _spine(phi: Formula, kind: type) -> list[Formula]:
    """The parts of the maximal `kind` (And or Or) tree at `phi`, left to right."""
    return _spine(phi.left, kind) + _spine(phi.right, kind) if isinstance(phi, kind) else [phi]


def _guard(parts: list[Formula], chain: list[str], exists: bool) -> int | None:
    """The index in `parts` of the first relation literal (positive under E,
    negative under A) over the most distinct variables, all bound by `chain`."""
    found = [
        i
        for i, p in enumerate(parts)
        if isinstance(p, RelLit) and p.positive == exists and p.args
        and len({t.name for t in p.args if t.name in chain and isinstance(t, Var)}) == len(p.args)
    ]
    return max(found, key=lambda i: len(parts[i].args), default=None)
