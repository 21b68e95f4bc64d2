"""Team evaluation of formulas with dependency atoms.

Three interchangeable strategies:

* ``naive``  -- the defining clauses, enumerated literally: disjunction
  tries all 3^|X| ordered covers, an existential tries every choice
  function.  Exponential in everything; the ground truth at tiny scale.
* ``oracle`` -- exact set reformulations of the same clauses (satisfying
  subteam tables for splits, covering subsets of the duplicated team for
  existentials).  Still exponential in the team, but with memoization and
  no reliance on any structural theory.
* ``fast``   -- restricts every subformula to its free variables and,
  wherever all dependency atoms in sight are upwards closed, evaluates
  splits, existentials, and possibility through their flattening-guided
  rewrites, which replace subset searches with single recursions.  Falls
  back to oracle behaviour node by node when the gate fails.

The fast gate deliberately excludes constancy atoms: the rewrites are
unsound for them (an existential over a constancy atom is the canonical
counterexample), even though constancy is harmless in other pipelines.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .atoms import AtomRegistry, DEFAULT_REGISTRY, eval_atom
from .model import (
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
    flatten,
    free_variables,
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
            slots = {v: i for i, v in enumerate(vars)}
            got = (compile_fo(self.model, phi, slots, len(vars)), phi)
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
        return self._split_by_tables(node, team)

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
            for value in self.model.domain:
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
        rows = doubled.sorted_rows
        n = len(rows)
        i = doubled.vars.index(node.var)
        # group the duplicated rows by originating assignment
        groups: dict[Row, list[int]] = {}
        for k, r in enumerate(rows):
            groups.setdefault(r[:i] + r[i + 1 :], []).append(k)
        group_masks = []
        for ks in groups.values():
            m = 0
            for k in ks:
                m |= 1 << k
            group_masks.append(m)
        for mask in range(0, 1 << n):
            self.stats.subsets += 1
            if any(not mask & g for g in group_masks):
                continue
            sub = Team(doubled.vars, frozenset(rows[k] for k in range(n) if mask >> k & 1))
            if self._eval(node.body, sub):
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
            from .model import team_project

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
