"""First-order models, assignments, teams, and the team algebra.

Teams are duplicate-free sets of assignments over an ordered variable
domain.  The empty team over variables V and the one-assignment team over
no variables are distinct objects, and both are routinely meaningful.
"""

from __future__ import annotations

import itertools
import json
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
    Or,
    RelLit,
    Term,
    count_nodes,
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
        if not isinstance(raw, dict) or "domain" not in raw:
            raise ModelError("model JSON needs a 'domain' list")
        domain = tuple(str(e) for e in raw["domain"])
        constants = {str(k): str(v) for k, v in raw.get("constants", {}).items()}
        relations = {}
        for name, body in raw.get("relations", {}).items():
            if not isinstance(body, dict) or "arity" not in body:
                raise ModelError(f"relation {name} needs an 'arity'")
            tuples = frozenset(tuple(str(e) for e in t) for t in body.get("tuples", []))
            relations[str(name)] = Relation(int(body["arity"]), tuples)
        return Model(domain, relations, constants)

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
        if not isinstance(raw, dict) or "vars" not in raw or "rows" not in raw:
            raise ModelError("team JSON needs 'vars' and 'rows'")
        vars_ = tuple(str(v) for v in raw["vars"])
        rows = frozenset(tuple(str(e) for e in r) for r in raw["rows"])
        return Team(vars_, rows)

    def to_json(self) -> str:
        return json.dumps(
            {"vars": list(self.vars), "rows": [list(r) for r in self.sorted_rows]},
            indent=2,
        )


SINGLETON_EMPTY_TEAM = Team((), frozenset({()}))   # the single empty assignment


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


def enumerate_covers(team: Team) -> Iterator[tuple[Team, Team]]:
    """All ordered pairs (Y, Z) of subteams with Y ∪ Z = X.

    Each row lands in Y only, Z only, or both: 3^|X| pairs, in a fixed
    order over the sorted rows.
    """
    rows = team.sorted_rows
    for trits in itertools.product((0, 1, 2), repeat=len(rows)):
        left = frozenset(r for r, t in zip(rows, trits) if t != 1)
        right = frozenset(r for r, t in zip(rows, trits) if t != 0)
        yield Team(team.vars, left), Team(team.vars, right)


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
# Single-assignment (Tarski) evaluation of first-order formulas


def resolve_term(model: Model, assignment: Mapping[str, str], term: Term) -> str:
    if isinstance(term, Const):
        try:
            return model.constants[term.name]
        except KeyError:
            raise EvalError(f"unknown constant {term.name}")
    try:
        return assignment[term.name]
    except KeyError:
        raise EvalError(f"unbound variable {term.name}")


def tarski_eval(model: Model, assignment: Mapping[str, str], phi: Formula) -> bool:
    """Classical satisfaction by a single assignment; first-order input only."""
    if isinstance(phi, BoolLit):
        return phi.value
    if isinstance(phi, RelLit):
        rel = model.relations.get(phi.name)
        if rel is None:
            raise EvalError(f"unknown relation {phi.name}")
        if rel.arity != len(phi.args):
            raise EvalError(
                f"relation {phi.name} has arity {rel.arity}, got {len(phi.args)} arguments"
            )
        row = tuple(resolve_term(model, assignment, t) for t in phi.args)
        return (row in rel.tuples) == phi.positive
    if isinstance(phi, EqLit):
        same = resolve_term(model, assignment, phi.left) == resolve_term(
            model, assignment, phi.right
        )
        return same == phi.positive
    if isinstance(phi, Or):
        return tarski_eval(model, assignment, phi.left) or tarski_eval(
            model, assignment, phi.right
        )
    if isinstance(phi, And):
        return tarski_eval(model, assignment, phi.left) and tarski_eval(
            model, assignment, phi.right
        )
    if isinstance(phi, Exists):
        for m in model.domain:
            if tarski_eval(model, {**assignment, phi.var: m}, phi.body):
                return True
        return False
    if isinstance(phi, Forall):
        for m in model.domain:
            if not tarski_eval(model, {**assignment, phi.var: m}, phi.body):
                return False
        return True
    raise EvalError(f"not a first-order formula: {phi}")


def compile_fo(
    model: Model, phi: Formula, var_slots: Mapping[str, int], n_slots: int
) -> Callable[[list[str | None], Mapping[str, frozenset[Row]]], bool]:
    """Compile a first-order formula into nested closures.

    The compiled function takes a slot environment (a mutable list indexed
    by `var_slots` plus quantifier slots) and a relation override map used
    to rebind named relations (e.g. the fresh team relation) per call.
    Agrees with `tarski_eval`; it exists because theorem sweeps evaluate
    the same sentence at many points.
    """
    slots = dict(var_slots)
    domain = model.domain

    def comp(node: Formula, depth: int) -> Callable:
        if isinstance(node, BoolLit):
            v = node.value
            return lambda env, rels: v
        if isinstance(node, RelLit):
            name = node.name
            static = model.relations.get(name)
            arity_known = static.arity if static is not None else None
            getters = []
            for t in node.args:
                if isinstance(t, Const):
                    try:
                        e = model.constants[t.name]
                    except KeyError:
                        raise EvalError(f"unknown constant {t.name}")
                    getters.append(lambda env, e=e: e)
                else:
                    if t.name not in slots:
                        raise EvalError(f"unbound variable {t.name}")
                    i = slots[t.name]
                    getters.append(lambda env, i=i: env[i])
            if arity_known is not None and arity_known != len(node.args):
                raise EvalError(
                    f"relation {name} has arity {arity_known}, got {len(node.args)} arguments"
                )
            pos = node.positive
            static_tuples = static.tuples if static is not None else None

            def rel_fn(env, rels, name=name, getters=getters, pos=pos, static=static_tuples):
                table = rels.get(name, static)
                if table is None:
                    raise EvalError(f"unknown relation {name}")
                return (tuple(g(env) for g in getters) in table) == pos

            return rel_fn
        if isinstance(node, EqLit):
            gs = []
            for t in (node.left, node.right):
                if isinstance(t, Const):
                    e = model.constants.get(t.name)
                    if e is None:
                        raise EvalError(f"unknown constant {t.name}")
                    gs.append(lambda env, e=e: e)
                else:
                    if t.name not in slots:
                        raise EvalError(f"unbound variable {t.name}")
                    i = slots[t.name]
                    gs.append(lambda env, i=i: env[i])
            ga, gb = gs
            pos = node.positive
            return lambda env, rels: (ga(env) == gb(env)) == pos
        if isinstance(node, Or):
            fa, fb = comp(node.left, depth), comp(node.right, depth)
            return lambda env, rels: fa(env, rels) or fb(env, rels)
        if isinstance(node, And):
            fa, fb = comp(node.left, depth), comp(node.right, depth)
            return lambda env, rels: fa(env, rels) and fb(env, rels)
        if isinstance(node, (Exists, Forall)):
            old = slots.get(node.var)
            slot = depth
            slots[node.var] = slot
            fb = comp(node.body, depth + 1)
            if old is None:
                del slots[node.var]
            else:
                slots[node.var] = old
            if isinstance(node, Exists):

                def ex_fn(env, rels, fb=fb, slot=slot, domain=domain):
                    for m in domain:
                        env[slot] = m
                        if fb(env, rels):
                            return True
                    return False

                return ex_fn

            def all_fn(env, rels, fb=fb, slot=slot, domain=domain):
                for m in domain:
                    env[slot] = m
                    if not fb(env, rels):
                        return False
                return True

            return all_fn
        raise EvalError(f"not a first-order formula: {node}")

    max_depth = n_slots + count_nodes(phi)  # loose upper bound on quantifier depth
    fn = comp(phi, n_slots)

    def run(env: list, rels: Mapping[str, frozenset[Row]] = {}) -> bool:
        if len(env) < max_depth:
            env = list(env) + [None] * (max_depth - len(env))
        return fn(env, rels)

    return run
