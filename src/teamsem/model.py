"""First-order models, assignments, teams, and the team algebra.

Teams are duplicate-free sets of assignments over an ordered variable
domain.  The empty team over variables V and the one-assignment team over
no variables are distinct objects, and both are routinely meaningful.
"""

from __future__ import annotations

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
    _spine,
    all_variable_names,
    ands,
    exists_chain,
    forall_chain,
    free_variables,
    is_first_order,
    map_formula,
    ors,
    simplify,
    simplify_node,
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
        domain = tuple(_json_scalar(e, "domain elements") for e in raw["domain"])
        rels = {}
        for name, body in relations.items():
            if not isinstance(body, dict) or type(body.get("arity")) is not int:
                raise ModelError(f"relation {name} needs an integer 'arity'")
            tuples = _json_rows(body.get("tuples", []), f"relation {name} tuples")
            rels[str(name)] = Relation(body["arity"], tuples)
        return Model(domain, rels, {k: _json_scalar(v, "constant values") for k, v in constants.items()})

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
        vars = tuple(_json_scalar(v, "team vars") for v in raw["vars"])
        return Team(vars, _json_rows(raw["rows"], "team rows"))

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
    return frozenset(tuple(_json_scalar(e, f"entries of {what}") for e in r) for r in value)


def _json_scalar(value, what: str) -> str:
    """A JSON string or number, read as a string; anything else, booleans
    included, is a `ModelError`."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float)):
        raise ModelError(f"{what} must be strings or numbers, got {json.dumps(value)}")
    return str(value)


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
# The first-order engine: each formula is checked and rewritten once,
# compiled once per domain into closures over a slot environment, and run
# per model with that model's relations and constants.


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

    One-point bindings are substituted away and `simplify` runs, in one
    pass.  The closures are compiled per domain and kept on the formula;
    each run binds the model's relations and constants.  A block of like
    quantifiers loops over a guard's tuples, not over dom^k, as in the
    guarded fragment.  A bound-argument guard is a relation literal of the
    block's spine (positive under E, negative under A) whose arguments are
    the block's variables or bound outside it: the block loops over the
    tuples that match the outside values.  A semi-join guard is a spine
    part `E ys. R(args)` (under A, `A ys. !R(args)`): the block loops over
    the distinct values of those tuples at its own variables.
    Non-first-order input, unbound variables, unknown constants and arity
    clashes with the model raise `EvalError` here, before any rewrite can
    hide them; a relation neither in the model nor supplied raises when a
    run reaches it."""
    free, constants, arities, rewritten, compiled = _prepared(phi)
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
    key = (vars, model.domain)
    got = compiled.get(key)
    if got is None:
        got = compiled[key] = _closures(rewritten, vars, constants, model.domain)
    fn, width = got
    first = len(vars) + len(constants)
    tail = [model.constants[c] for c in constants] + [None] * (width - first)
    static = {name: rel.tuples for name, rel in model.relations.items()}

    def run(env, rels: Mapping[str, frozenset[Row]] = {}) -> bool:
        try:
            return fn([*env, *tail] if tail else env, {**static, **rels} if rels else static)
        except KeyError as e:  # only relation lookups index by name
            raise EvalError(f"unknown relation {e.args[0]}") from None

    return run


def _closures(
    phi: Formula, vars: tuple[str, ...], constants: tuple[str, ...], domain: tuple[str, ...]
) -> tuple[Callable[..., bool], int]:
    """Rewritten `phi` as one function of (env, rels) over the domain, and
    the width of the env it needs; the closures hold no model's relations
    or constants."""
    # slots: the variables', then one per constant, then the quantifiers'
    top: dict[Term, int] = {Var(v): i for i, v in enumerate(vars)}
    top.update({Const(c): len(vars) + i for i, c in enumerate(constants)})
    first = width = len(vars) + len(constants)

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
        exists, (chain, body) = isinstance(node, Exists), _block(node)
        parts = _spine(body, And if exists else Or)
        g = _guard(parts, chain, exists)
        if g is None:
            bound, tuples = chain, lambda env, rels: itertools.product(domain, repeat=len(chain))
        else:
            g, lit, inner = g
            body = (ands if exists else ors)(parts[:g] + parts[g + 1 :])
            own = [isinstance(t, Var) and (t.name in chain or t.name in inner) for t in lit.args]
            picks = [k for k, t in enumerate(lit.args) if own[k] and t.name not in inner]
            fixed = [(k, slots[t]) for k, t in enumerate(lit.args) if not own[k]]
            tuples = _matches(lit.name, picks, fixed, bool(inner), len(lit.args))
            bound = [lit.args[k].name for k in picks]
            body = (exists_chain if exists else forall_chain)([v for v in chain if v not in bound], body)
        lo, hi = depth, depth + len(bound)
        width = max(width, hi)
        fb = comp(body, hi, {**slots, **{Var(v): lo + k for k, v in enumerate(bound)}})

        def block(env, rels):
            for t in tuples(env, rels):
                env[lo:hi] = t
                if fb(env, rels) == exists:
                    return exists
            return not exists

        return block

    try:
        return comp(phi, first, top), width
    finally:
        del comp  # a self-referring closure would leave a cycle for the collector


def _matches(
    name: str, picks: list[int], fixed: list[tuple[int, int]], project: bool, arity: int
) -> Callable[..., Iterable[Row]]:
    """The values a guard over relation `name` binds, per (env, rels): the
    tuples whose `fixed` positions hold the env's values at the paired
    slots, taken at positions `picks`, without repeats when `project`
    drops positions."""
    if not fixed and not project and len(picks) == arity:
        return lambda env, rels: rels[name]
    pick = operator.itemgetter(*picks) if len(picks) > 1 else operator.itemgetter(slice(picks[0], picks[0] + 1))
    if not fixed:
        return lambda env, rels: {pick(t) for t in rels[name]}
    at, want = (operator.itemgetter(*side) for side in zip(*fixed))

    def matches(env, rels):
        w = want(env)
        return {pick(t) for t in rels[name] if at(t) == w} if project else [pick(t) for t in rels[name] if at(t) == w]

    return matches


def _prepared(phi: Formula) -> tuple[frozenset[str], tuple[str, ...], tuple, Formula, dict]:
    """What the engine needs of `phi` that no model changes, kept on the
    node, so that no cache hashes or compares a deeply nested formula: its
    free variables, constants, relation arities, rewritten form, and its
    closures per (vars, domain), filled by `compile_fo`."""
    out = getattr(phi, "_prepared", None)
    if out is None:
        if not is_first_order(phi):
            raise EvalError(f"not a first-order formula: {phi}")
        arities, constants = set(), set()
        for n in subformulas(phi):
            if isinstance(n, (RelLit, EqLit)):
                terms = n.args if isinstance(n, RelLit) else (n.left, n.right)
                constants.update(t.name for t in terms if isinstance(t, Const))
                if isinstance(n, RelLit):
                    arities.add((n.name, len(n.args)))
        out = free_variables(phi), tuple(sorted(constants)), tuple(sorted(arities)), _rewritten(phi), {}
        object.__setattr__(phi, "_prepared", out)
    return out


def _rewritten(phi: Formula) -> Formula:
    """`phi` simplified, with `A v. A ys. (... \\/ v != t \\/ ...)` and
    `E v. E ys. (... /\\ v = t /\\ ...)` replaced by the block over ys of
    the rest of the spine with t for v, in one bottom-up pass: each node is
    simplified before the one-point rule sees it, and so before its parent
    is rewritten."""
    fresh = None

    def rule(node: Formula) -> Formula:
        nonlocal fresh
        out = simplify_node(node)
        if out is node and isinstance(node, (Exists, Forall)):
            exists, v = isinstance(node, Exists), Var(node.var)
            chain, body = _block(node)
            parts = _spine(body, And if exists else Or)
            for i, lit in enumerate(parts):
                if isinstance(lit, EqLit) and lit.positive == exists and v in (lit.left, lit.right):
                    t = lit.right if lit.left == v else lit.left
                    rest = (ands if exists else ors)(parts[:i] + parts[i + 1 :])
                    fresh = fresh or FreshNames(all_variable_names(phi))
                    under = exists_chain if exists else forall_chain
                    return simplify(under(chain[1:], substitute_vars(rest, {node.var: t}, fresh)))
        return out

    return map_formula(phi, rule)


def _block(node: Exists | Forall) -> tuple[list[str], Formula]:
    """The variables of the block of like quantifiers at `node`, up to the
    first one repeated, and the body below them."""
    chain, body = [], node
    while isinstance(body, type(node)) and body.var not in chain:
        chain.append(body.var)
        body = body.body
    return chain, body


def _guard(parts: list[Formula], chain: list[str], exists: bool) -> tuple[int, RelLit, list[str]] | None:
    """The guard of a block of like quantifiers over `chain` whose spine
    has `parts`: the index of the first part that binds the most chain
    variables, its literal, and the variables bound inside the part.  A
    part is a relation literal (positive under E, negative under A) under
    a block `ys` of the same quantifier, every one of which occurs in the
    literal; no variable of the chain or of `ys` occurs twice in it, and
    its other arguments are bound outside the block."""
    best, most = None, 0
    for i, part in enumerate(parts):
        inner, lit = _block(part) if isinstance(part, Exists if exists else Forall) else ([], part)
        if not isinstance(lit, RelLit) or lit.positive != exists:
            continue
        names = [t.name for t in lit.args if isinstance(t, Var) and (t.name in chain or t.name in inner)]
        if len(set(names)) == len(names) and set(inner) <= set(names) and len(names) - len(inner) > most:
            best, most = (i, lit, inner), len(names) - len(inner)
    return best
