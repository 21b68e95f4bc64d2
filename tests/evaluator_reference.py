"""The team evaluator as it was before teams became bitmasks inside it:
every subteam a validated `Team`, every restriction a `team_restrict`.

It is the slow, literal other side of the differential tests of
`teamsem.evaluator`, which must match it in verdicts, `EvalStats` and
witnesses, as `fo_reference` is for the first-order engine.  Apart from
this docstring, absolute imports, the fast-mode split rules added since
(`downward_closed`, `_split_down`), the existential's search as a product
of each assignment's value sets and, in fast mode, that search's split of
the body's conjunction spine by closure (`_conjuncts`) it is the evaluator
verbatim.  It has no search limit: the tests keep to teams whose searches
stay below the evaluator's."""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import Callable

from teamsem.atoms import AtomRegistry, DEFAULT_REGISTRY, eval_atom
from teamsem.model import (
    EvalError,
    Model,
    Row,
    SINGLETON_EMPTY_TEAM,
    Team,
    compile_fo,
    duplicate,
    enumerate_choice_functions,
    enumerate_covers,
    subsets,
    supplement,
    tarski_eval,  # noqa: F401  (bench/tracer.py patches it by this name)
    team_restrict,
)
from teamsem.syntax import (
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
    flatten,
    free_variables,
    is_first_order,
    restrict,
)

MODES = ("naive", "oracle", "fast")
MEMO_LIMIT = 200_000


def upward_fragment(
    phi: Formula, registry: AtomRegistry, cache: dict[int, bool] | None = None
) -> bool:
    """True when every dependency atom in `phi` is upwards closed.

    This is the syntactic gate for the flattening-guided rewrites.
    Possibility subformulas pass as units (possibility is upwards
    closed whatever its body does); restriction is judged by its body,
    since the guard is first-order.
    """
    if cache is None:
        cache = {}
    got = cache.get(id(phi))
    if got is not None:
        return got
    if isinstance(phi, (BoolLit, RelLit, EqLit)):
        out = True
    elif isinstance(phi, DepAtom):
        out = registry.resolve_atom(phi).upwards_closed
    elif isinstance(phi, (Or, And)):
        out = upward_fragment(phi.left, registry, cache) and upward_fragment(
            phi.right, registry, cache
        )
    elif isinstance(phi, (Exists, Forall)):
        out = upward_fragment(phi.body, registry, cache)
    elif isinstance(phi, Possibly):
        out = True
    elif isinstance(phi, RestrictedBy):
        out = upward_fragment(phi.body, registry, cache)
    else:
        raise EvalError(f"unknown node {phi!r}")
    cache[id(phi)] = out
    return out


def downward_closed(
    phi: Formula, registry: AtomRegistry, cache: dict[int, bool] | None = None
) -> bool:
    """True when every dependency atom in `phi` is downwards closed and no
    possibility occurs: first-order parts are flat, and conjunction,
    disjunction, both quantifiers and restriction keep the property."""
    if cache is None:
        cache = {}
    got = cache.get(id(phi))
    if got is not None:
        return got
    if isinstance(phi, (BoolLit, RelLit, EqLit)):
        out = True
    elif isinstance(phi, DepAtom):
        out = registry.resolve_atom(phi).downwards_closed
    elif isinstance(phi, (Or, And)):
        out = downward_closed(phi.left, registry, cache) and downward_closed(
            phi.right, registry, cache
        )
    elif isinstance(phi, (Exists, Forall, RestrictedBy)):
        out = downward_closed(phi.body, registry, cache)
    elif isinstance(phi, Possibly):
        out = False
    else:
        raise EvalError(f"unknown node {phi!r}")
    cache[id(phi)] = out
    return out


def _forces_constant(node: Exists) -> bool:
    """Does the body contain, on a conjunction spine reachable without
    rebinding the variable, a constancy atom whose group mentions it?

    Such a body makes every lax witness degenerate: a satisfying
    supplemented team has all rows agreeing on the variable, so the
    choice function may as well be one shared domain element.  The walk
    may cross quantifiers over other variables: supplementing or
    duplicating keeps at least one descendant of every row, with the
    inherited columns intact, so a column forced constant below is
    constant above as well.  It must not cross disjunctions, restriction,
    or possibility (those hold only on parts of the team)."""
    stack = [node.body]
    while stack:
        cur = stack.pop()
        if isinstance(cur, And):
            stack.append(cur.left)
            stack.append(cur.right)
        elif isinstance(cur, (Exists, Forall)):
            if cur.var != node.var:
                stack.append(cur.body)
        elif isinstance(cur, DepAtom) and cur.name == "const":
            if any(node.var in group for group in cur.groups):
                return True
    return False


def _isolated_sort(node: Exists) -> set[str] | None:
    """The names reachable from the bound variable through equalities of two
    variables and shared dependency atoms anywhere in the body, or None if
    one of them meets a relation literal or a constant."""
    edges: dict[str, set[str]] = {}
    pinned: set[str] = set()

    def link(names: list[str]) -> None:
        for a in names:
            edges.setdefault(a, set()).update(names)

    def walk(phi: Formula) -> None:
        if isinstance(phi, DepAtom):
            link(list(phi.args))
        elif isinstance(phi, EqLit):
            if isinstance(phi.left, Var) and isinstance(phi.right, Var):
                link([phi.left.name, phi.right.name])
            else:
                pinned.update(t.name for t in (phi.left, phi.right) if isinstance(t, Var))
        elif isinstance(phi, RelLit):
            pinned.update(t.name for t in phi.args if isinstance(t, Var))
        elif isinstance(phi, (And, Or)):
            walk(phi.left)
            walk(phi.right)
        elif isinstance(phi, (Exists, Forall, Possibly)):
            walk(phi.body)
        elif isinstance(phi, RestrictedBy):
            walk(phi.body)
            walk(phi.guard)

    walk(node.body)
    sort, todo = {node.var}, [node.var]
    while todo:
        for b in edges.get(todo.pop(), ()):
            if b not in sort:
                sort.add(b)
                todo.append(b)
    return None if sort & pinned else sort


def _conjuncts(phi: Formula) -> list[Formula]:
    """The parts of the conjunction spine at `phi`, left to right."""
    if isinstance(phi, And):
        return _conjuncts(phi.left) + _conjuncts(phi.right)
    return [phi]


def _assign_constant(team: Team, var: str, value: str) -> Team:
    """The team with `var` set to `value` on every row (overwriting)."""
    if var in team.vars:
        i = team.vars.index(var)
        return Team(
            team.vars, frozenset(r[:i] + (value,) + r[i + 1 :] for r in team.rows)
        )
    return Team(team.vars + (var,), frozenset(r + (value,) for r in team.rows))


@dataclass
class EvalStats:
    nodes: int = 0
    memo_hits: int = 0
    covers: int = 0
    choices: int = 0
    subsets: int = 0
    tarski_rows: int = 0
    max_team_rows: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "nodes": self.nodes,
            "memo_hits": self.memo_hits,
            "covers": self.covers,
            "choices": self.choices,
            "subsets": self.subsets,
            "tarski_rows": self.tarski_rows,
            "max_team_rows": self.max_team_rows,
        }


class Evaluator:
    """Evaluates formulas on teams over a fixed model.

    One instance per (model, strategy); memoization is keyed by subformula
    identity and team, so sweeping many teams against one formula reuses
    work.  The memo stops growing at `MEMO_LIMIT` entries.
    """

    def __init__(
        self,
        model: Model,
        registry: AtomRegistry | None = None,
        mode: str = "fast",
    ):
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
        self.model = model
        self.registry = registry or DEFAULT_REGISTRY
        self.mode = mode
        self.stats = EvalStats()
        self._memo: dict[tuple, bool] = {}
        # per-node caches; they keep derived nodes alive so ids stay valid
        self._fv: dict[int, tuple[str, ...]] = {}
        self._flat: dict[int, Formula] = {}
        self._expansion: dict[int, Formula] = {}
        self._upward: dict[int, bool] = {}
        self._downward: dict[int, bool] = {}
        self._roots: dict[int, Formula] = {}
        self._fo: dict[tuple[int, tuple[str, ...]], tuple[Callable, Formula]] = {}

    # -- public API ---------------------------------------------------------

    def evaluate(self, phi: Formula, team: Team) -> bool:
        fv = free_variables(phi)
        missing = fv - set(team.vars)
        if missing:
            raise EvalError(f"team does not cover free variables {sorted(missing)}")
        dom = set(self.model.domain)
        for r in team.rows:
            if any(e not in dom for e in r):
                raise EvalError(f"team row {r} leaves the model domain")
        self._roots.setdefault(id(phi), phi)  # pin subformula ids for the memo's lifetime
        return self._eval(phi, team)

    def sentence_true(self, phi: Formula) -> bool:
        """Truth of a sentence: evaluation on the team of the single empty
        assignment (truth on the empty team is trivial and not this)."""
        fv = free_variables(phi)
        if fv:
            raise EvalError(f"not a sentence: free variables {sorted(fv)}")
        return self.evaluate(phi, SINGLETON_EMPTY_TEAM)

    def evaluate_with_stats(self, phi: Formula, team: Team) -> tuple[bool, dict[str, int]]:
        self.stats = EvalStats()
        out = self.evaluate(phi, team)
        return out, self.stats.as_dict()

    # -- node caches ---------------------------------------------------------

    def _free(self, node: Formula) -> tuple[str, ...]:
        got = self._fv.get(id(node))
        if got is None:
            got = tuple(sorted(free_variables(node)))
            self._fv[id(node)] = got
        return got

    def _flattening(self, node: Formula) -> Formula:
        got = self._flat.get(id(node))
        if got is None:
            got = flatten(node)
            self._flat[id(node)] = got
        return got

    def _expand_restriction(self, node: RestrictedBy) -> Formula:
        got = self._expansion.get(id(node))
        if got is None:
            got = restrict(node.body, node.guard)
            self._expansion[id(node)] = got
        return got

    def _all_upward(self, node: Formula) -> bool:
        return upward_fragment(node, self.registry, self._upward)

    def _all_downward(self, node: Formula) -> bool:
        return downward_closed(node, self.registry, self._downward)

    # -- core recursion ------------------------------------------------------

    def _eval(self, node: Formula, team: Team) -> bool:
        if self.mode == "fast":
            fv = self._free(node)
            if fv != team.vars:
                team = team_restrict(team, fv)
        key = (id(node), team)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        self.stats.nodes += 1
        if len(team.rows) > self.stats.max_team_rows:
            self.stats.max_team_rows = len(team.rows)
        out = self._dispatch(node, team)
        if len(self._memo) < MEMO_LIMIT:
            self._memo[key] = out
        return out

    def _dispatch(self, node: Formula, team: Team) -> bool:
        if isinstance(node, BoolLit):
            return node.value or not team.rows
        if isinstance(node, (RelLit, EqLit)):
            return self._pointwise(node, team)
        if isinstance(node, DepAtom):
            return eval_atom(self.model, team, node, self.registry)
        if isinstance(node, And):
            return self._eval(node.left, team) and self._eval(node.right, team)
        if isinstance(node, Forall):
            return self._eval(node.body, duplicate(self.model, team, node.var))
        if isinstance(node, Or):
            return self._split(node, team)
        if isinstance(node, Exists):
            return self._exists(node, team)
        if isinstance(node, Possibly):
            return self._possibly(node, team)
        if isinstance(node, RestrictedBy):
            if self.mode == "fast":
                return self._eval(node.body, self._satisfying(team, node.guard))
            return self._split(self._expand_restriction(node), team)
        raise EvalError(f"cannot evaluate node {node!r}")

    def _tarski_row(self, vars: tuple[str, ...], row: Row, phi: Formula) -> bool:
        """Classical truth of first-order `phi` at one row, through the
        engine compiled once per (node, vars); the entry pins the node."""
        self.stats.tarski_rows += 1
        got = self._fo.get((id(phi), vars))
        if got is None:
            got = (compile_fo(self.model, phi, vars), phi)
            self._fo[(id(phi), vars)] = got
        return got[0](row)

    def _pointwise(self, node: Formula, team: Team) -> bool:
        return all(self._tarski_row(team.vars, r, node) for r in team.sorted_rows)

    def _satisfying(self, team: Team, phi: Formula) -> Team:
        """The subteam of the rows that satisfy first-order `phi`."""
        return Team(
            team.vars,
            frozenset(r for r in team.rows if self._tarski_row(team.vars, r, phi)),
        )

    # -- disjunction ----------------------------------------------------------

    def _split(self, node: Or, team: Team) -> bool:
        if self.mode == "naive":
            for left_team, right_team in enumerate_covers(team):
                self.stats.covers += 1
                if self._eval(node.left, left_team) and self._eval(node.right, right_team):
                    return True
            return False
        if self.mode == "fast" and self._all_upward(node):
            flat_l = self._flattening(node.left)
            flat_r = self._flattening(node.right)
            left_rows, right_rows = set(), set()
            for r in team.sorted_rows:
                in_l = self._tarski_row(team.vars, r, flat_l)
                in_r = self._tarski_row(team.vars, r, flat_r)
                if not (in_l or in_r):
                    return False
                if in_l:
                    left_rows.add(r)
                if in_r:
                    right_rows.add(r)
            return self._eval(node.left, Team(team.vars, frozenset(left_rows))) and self._eval(
                node.right, Team(team.vars, frozenset(right_rows))
            )
        if self.mode == "fast":
            # theta: a first-order side if there is one, else a downwards
            # closed one, the right side first
            sides = [(node.right, node.left), (node.left, node.right)]
            for theta, psi in [p for p in sides if is_first_order(p[0])] + sides:
                if self._all_downward(theta):
                    return self._split_down(theta, psi, team)
        return self._split_by_tables(node, team)

    def _split_down(self, theta: Formula, psi: Formula, team: Team) -> bool:
        """X satisfies the split into psi and a downwards closed theta iff
        some L within X satisfies psi and theta holds on X minus L.  For a
        first-order theta, X minus L must keep to the rows where theta
        holds; a downwards closed psi then needs only the rows where
        theta fails.  Otherwise rows are removed from X, fewest first."""
        if is_first_order(theta):
            removable = self._satisfying(team, theta)
            if self._all_downward(psi):
                return self._eval(psi, Team(team.vars, team.rows - removable.rows))
        else:
            removable = team
        for removed in subsets(removable.rows):
            self.stats.subsets += 1
            if self._eval(psi, Team(team.vars, team.rows - removed)) and (
                is_first_order(theta) or self._eval(theta, Team(team.vars, removed))
            ):
                return True
        return False

    def _split_by_tables(self, node: Or, team: Team) -> bool:
        rows = team.sorted_rows
        n = len(rows)
        sat_left = []
        sat_right_closed = [False] * (1 << n)
        for mask in range(1 << n):
            self.stats.subsets += 1
            sub = Team(team.vars, frozenset(rows[i] for i in range(n) if mask >> i & 1))
            if self._eval(node.left, sub):
                sat_left.append(mask)
            if self._eval(node.right, sub):
                sat_right_closed[mask] = True
        # downward closure: membership of X \ Y asks whether some superset
        # of the complement satisfies the right disjunct
        for mask in range((1 << n) - 1, -1, -1):
            if sat_right_closed[mask]:
                m = mask
                while m:
                    bit = m & -m
                    sat_right_closed[mask ^ bit] = True
                    m ^= bit
        full = (1 << n) - 1
        return any(sat_right_closed[full ^ m] for m in sat_left)

    # -- existential ------------------------------------------------------------

    def _exists(self, node: Exists, team: Team) -> bool:
        if self.mode == "naive":
            for choice in enumerate_choice_functions(team, self.model, 1):
                self.stats.choices += 1
                if self._eval(node.body, supplement(team, choice, (node.var,))):
                    return True
            return False
        if self.mode != "fast":
            return self._exists_by_subsets(node, team, duplicate(self.model, team, node.var))
        upward = self._all_upward(node.body)
        if not upward and _forces_constant(node):
            # with an isolated sort, of the values that no free column of
            # the sort holds, only the first is tried
            sort, free = _isolated_sort(node), self._free(node)
            used = set()
            if sort is not None:
                for i, v in enumerate(team.vars):
                    if v in sort and v in free:
                        used.update(r[i] for r in team.rows)
            spare_tried = False
            for value in self.model.domain:
                if sort is not None and value not in used:
                    if spare_tried:
                        continue
                    spare_tried = True
                self.stats.choices += 1
                if self._eval(node.body, _assign_constant(team, node.var, value)):
                    return True
            return False
        # no witness can use a duplicated row that fails the flattening,
        # and every original assignment must still be extendable
        kept = self._satisfying(
            duplicate(self.model, team, node.var), self._flattening(node.body)
        )
        if not self._covers(team, kept, node.var):
            return False
        if upward:
            return self._eval(node.body, kept)
        return self._exists_by_subsets(node, team, kept)

    def _covers(self, team: Team, sub: Team, var: str) -> bool:
        """Does every assignment of `team` survive, for some value of `var`,
        into `sub` (a subteam of the duplicated team)?"""
        i = sub.vars.index(var)
        origins = {r[:i] + r[i + 1 :] for r in sub.rows}
        if var in team.vars:
            j = team.vars.index(var)
            return all(r[:j] + r[j + 1 :] in origins for r in team.rows)
        return all(r in origins for r in team.rows)

    def _exists_by_subsets(self, node: Exists, team: Team, doubled: Team) -> bool:
        """The product over the original assignments of the nonempty sets
        of each one's duplicated rows, the assignment with the lowest
        sorted rows varying fastest and each one's sets in ascending local
        mask; each team tried counts.  In fast mode `doubled` holds the rows
        where the body's flattening holds, and the body's conjunction spine
        splits by closure: first-order parts are dropped, an upwards closed
        atom failing on `doubled` ends the search, a downwards closed atom
        holding on it is dropped, and each team tried checks the upwards
        closed atoms, the remaining downwards closed ones, then the other
        parts in spine order."""
        if self.mode == "fast":
            ups, downs, rest = [], [], []
            for part in _conjuncts(node.body):
                if isinstance(part, DepAtom):
                    atom = self.registry.resolve_atom(part)
                    if atom.upwards_closed:
                        ups.append(part)
                    elif atom.downwards_closed:
                        downs.append(part)
                    else:
                        rest.append(part)
                elif not is_first_order(part):
                    rest.append(part)
            if not all(self._eval(up, doubled) for up in ups):
                return False
            checks = ups + [down for down in downs if not self._eval(down, doubled)] + rest
        else:
            checks = [node.body]
        i = doubled.vars.index(node.var)
        # group the duplicated rows by originating assignment
        groups: dict[Row, list[Row]] = {}
        for r in doubled.sorted_rows:
            groups.setdefault(r[:i] + r[i + 1 :], []).append(r)
        choices = []
        for rows in reversed(groups.values()):
            sets = [frozenset()]
            for r in rows:
                sets += [s | {r} for s in sets]
            choices.append(sets[1:])
        for pick in product(*choices):
            self.stats.subsets += 1
            sub = Team(doubled.vars, frozenset().union(*pick))
            if all(self._eval(check, sub) for check in checks):
                return True
        return False

    # -- possibility ------------------------------------------------------------

    def _possibly(self, node: Possibly, team: Team) -> bool:
        if self.mode == "fast" and self._all_upward(node.body):
            kept = self._satisfying(team, self._flattening(node.body))
            return bool(kept.rows) and self._eval(node.body, kept)
        for rows in subsets(team.rows, low=1):
            self.stats.subsets += 1
            if self._eval(node.body, Team(team.vars, rows)):
                return True
        return False

    # -- witnesses ---------------------------------------------------------------

    def witness(self, phi: Formula, team: Team) -> dict | None:
        """A one-level explanation of why `phi` holds on `team` (None when
        it does not hold, or when the node carries no choice to report)."""
        if not self.evaluate(phi, team):
            return None
        if isinstance(phi, Or):
            for left_team, right_team in enumerate_covers(team):
                if self._eval(phi.left, left_team) and self._eval(phi.right, right_team):
                    return {
                        "kind": "split",
                        "left": [list(r) for r in left_team.sorted_rows],
                        "right": [list(r) for r in right_team.sorted_rows],
                    }
        if isinstance(phi, Exists):
            doubled = duplicate(self.model, team, phi.var)
            for rows in subsets(doubled.rows):
                sub = Team(doubled.vars, rows)
                if self._covers(team, sub, phi.var) and self._eval(phi.body, sub):
                    return {
                        "kind": "choice",
                        "vars": list(doubled.vars),
                        "rows": [list(r) for r in sub.sorted_rows],
                    }
        if isinstance(phi, Possibly):
            for rows in subsets(team.rows, low=1):
                sub = Team(team.vars, rows)
                if self._eval(phi.body, sub):
                    return {"kind": "subteam", "rows": [list(r) for r in sub.sorted_rows]}
        if isinstance(phi, DepAtom):
            from teamsem.model import team_project

            rel = team_project(team, phi.args)
            return {"kind": "projection", "columns": list(phi.args), "rows": [list(r) for r in sorted(rel)]}
        return {"kind": "holds"}


def evaluate(
    model: Model,
    team: Team,
    phi: Formula,
    registry: AtomRegistry | None = None,
    mode: str = "fast",
) -> bool:
    """One-shot evaluation (a fresh Evaluator; see the class for sweeps)."""
    return Evaluator(model, registry, mode).evaluate(phi, team)


def sentence_true(
    model: Model,
    phi: Formula,
    registry: AtomRegistry | None = None,
    mode: str = "fast",
) -> bool:
    return Evaluator(model, registry, mode).sentence_true(phi)
