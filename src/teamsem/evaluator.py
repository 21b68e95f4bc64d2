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

Inside an `Evaluator` a team is `(vars, mask)`: each row gets the next
free bit when the evaluator first meets it, so a mask is as wide as the
rows seen so far, not |dom|^|vars|; searches walk the set bits in sorted-row
order.  `Team`s are built only for `evaluate`, `witness`, dependency atoms
and naive mode's choice functions.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from .atoms import AtomRegistry, DEFAULT_REGISTRY, eval_atom
from .model import (
    EvalError,
    Model,
    Row,
    SINGLETON_EMPTY_TEAM,
    Team,
    compile_fo,
    cover_parts,
    duplicate,  # noqa: F401  (bench/tracer.py patches these four by name)
    enumerate_choice_functions,
    enumerate_covers,  # noqa: F401
    subsets,
    supplement,
    tarski_eval,  # noqa: F401
    team_project,
    team_restrict,  # noqa: F401
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


def _subteam_masks(bits: list[int]) -> Iterator[int]:
    """The union of the bits picked by each local mask 0, 1, ..., 2^n - 1 in
    turn, in memory linear in n: local mask m sets its lowest bit k and
    clears the k bits below it, so its union follows from that of m - 1."""
    below = [0]
    for b in bits:
        below.append(below[-1] | b)
    sub = 0
    yield sub
    for local in range(1, 1 << len(bits)):
        k = (local & -local).bit_length() - 1
        sub = sub & ~below[k] | bits[k]
        yield sub


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
        return asdict(self)


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
        self._constant: dict[int, bool] = {}
        self._roots: dict[int, Formula] = {}
        self._fo: dict[tuple[int, tuple[str, ...]], tuple[Callable, Formula]] = {}
        # row indexing: row <-> bit, and per-row images
        self._domain = set(model.domain)
        self._bit_of: dict[Row, int] = {}
        self._row_of: dict[int, Row] = {}
        self._images: dict[tuple, dict[int, int]] = {}

    # -- public API ---------------------------------------------------------

    def evaluate(self, phi: Formula, team: Team) -> bool:
        self._roots.setdefault(id(phi), phi)  # pin subformula ids for the memo's lifetime
        missing = [v for v in self._free(phi) if v not in team.vars]
        if missing:
            raise EvalError(f"team does not cover free variables {missing}")
        return self._eval(phi, team.vars, self._mask(team.rows))

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

    def _cached(self, cache: dict, node: Formula, build: Callable):
        got = cache.get(id(node))
        if got is None:
            got = cache[id(node)] = build(node)
        return got

    def _flattening(self, node: Formula) -> Formula:
        return self._cached(self._flat, node, flatten)

    def _all_upward(self, node: Formula) -> bool:
        return upward_fragment(node, self.registry, self._upward)

    # -- rows and masks ------------------------------------------------------

    def _bit(self, row: Row) -> int:
        """The bit of `row`, the next free one when `row` is new."""
        got = self._bit_of.get(row)
        if got is None:
            if not self._domain.issuperset(row):
                raise EvalError(f"team row {row} leaves the model domain")
            got = self._bit_of[row] = 1 << len(self._bit_of)
            self._row_of[got] = row
        return got

    def _mask(self, rows) -> int:
        return sum(map(self._bit, rows))

    def _bits(self, mask: int) -> list[int]:
        """The set bits of `mask`, in sorted-row order."""
        out = []
        while mask:
            out.append(mask & -mask)
            mask &= mask - 1
        out.sort(key=self._row_of.__getitem__)
        return out

    def _rows(self, mask: int) -> list[Row]:
        return [self._row_of[b] for b in self._bits(mask)]

    def _image(self, key: tuple, mask: int, image: Callable[[Row], int]) -> int:
        """The union of `image(row)` over the rows of `mask`, each row's
        image cached under `key`."""
        table = self._images.get(key)
        if table is None:
            table = self._images[key] = {}
        out = 0
        while mask:
            b = mask & -mask
            mask ^= b
            got = table.get(b)
            if got is None:
                got = table[b] = image(self._row_of[b])
            out |= got
        return out

    def _restrict(self, vars: tuple[str, ...], mask: int, to: tuple[str, ...]) -> int:
        """X restricted to the columns `to`."""
        return self._image((vars, to), mask, lambda row: self._bit(tuple(row[vars.index(v)] for v in to)))

    def _assign(self, vars: tuple[str, ...], mask: int, var: str, values) -> tuple[tuple[str, ...], int]:
        """X[values/var]: every row extended with, or overwritten by, each value."""
        i = vars.index(var) if var in vars else len(vars)
        image = lambda row: sum({self._bit(row[:i] + (m,) + row[i + 1 :]) for m in values})  # noqa: E731
        return vars[:i] + (var,) + vars[i + 1 :], self._image((vars, var, tuple(values)), mask, image)

    # -- core recursion ------------------------------------------------------

    def _eval(self, node: Formula, vars: tuple[str, ...], mask: int) -> bool:
        if self.mode == "fast":
            fv = self._free(node)
            if fv != vars:
                vars, mask = fv, self._restrict(vars, mask, fv)
        key = (id(node), vars, mask)
        hit = self._memo.get(key)
        if hit is not None:
            self.stats.memo_hits += 1
            return hit
        self.stats.nodes += 1
        rows = mask.bit_count()
        if rows > self.stats.max_team_rows:
            self.stats.max_team_rows = rows
        out = self._dispatch(node, vars, mask)
        if len(self._memo) < MEMO_LIMIT:
            self._memo[key] = out
        return out

    def _dispatch(self, node: Formula, vars: tuple[str, ...], mask: int) -> bool:
        if isinstance(node, BoolLit):
            return node.value or not mask
        if isinstance(node, (RelLit, EqLit)):
            return all(self._tarski_row(vars, b, node) for b in self._bits(mask))
        if isinstance(node, DepAtom):
            return eval_atom(self.model, Team(vars, frozenset(self._rows(mask))), node, self.registry)
        if isinstance(node, And):
            return self._eval(node.left, vars, mask) and self._eval(node.right, vars, mask)
        if isinstance(node, Forall):
            return self._eval(node.body, *self._assign(vars, mask, node.var, self.model.domain))
        if isinstance(node, Or):
            return self._split(node, vars, mask)
        if isinstance(node, Exists):
            return self._exists(node, vars, mask)
        if isinstance(node, Possibly):
            return self._possibly(node, vars, mask)
        if isinstance(node, RestrictedBy):
            if self.mode == "fast":
                return self._eval(node.body, vars, self._satisfying(vars, mask, node.guard))
            expansion = self._cached(self._expansion, node, lambda n: restrict(n.body, n.guard))
            return self._split(expansion, vars, mask)
        raise EvalError(f"cannot evaluate node {node!r}")

    def _tarski_row(self, vars: tuple[str, ...], bit: int, phi: Formula) -> bool:
        """Classical truth of first-order `phi` at the row of `bit`, through
        the engine compiled once per (node, vars); the entry pins the node."""
        self.stats.tarski_rows += 1
        got = self._fo.get((id(phi), vars))
        if got is None:
            got = (compile_fo(self.model, phi, vars), phi)
            self._fo[(id(phi), vars)] = got
        return got[0](self._row_of[bit])

    def _satisfying(self, vars: tuple[str, ...], mask: int, phi: Formula) -> int:
        """The subteam of the rows that satisfy first-order `phi`."""
        return sum(b for b in self._bits(mask) if self._tarski_row(vars, b, phi))

    # -- disjunction ----------------------------------------------------------

    def _split(self, node: Or, vars: tuple[str, ...], mask: int) -> bool:
        if self.mode == "naive":
            for left, right in cover_parts(self._bits(mask)):
                self.stats.covers += 1
                if self._eval(node.left, vars, sum(left)) and self._eval(node.right, vars, sum(right)):
                    return True
            return False
        if self.mode == "fast" and self._all_upward(node):
            flat_l = self._flattening(node.left)
            flat_r = self._flattening(node.right)
            left = right = 0
            for b in self._bits(mask):
                in_l = self._tarski_row(vars, b, flat_l)
                in_r = self._tarski_row(vars, b, flat_r)
                if not (in_l or in_r):
                    return False
                if in_l:
                    left |= b
                if in_r:
                    right |= b
            return self._eval(node.left, vars, left) and self._eval(node.right, vars, right)
        return self._split_by_tables(node, vars, mask)

    def _split_by_tables(self, node: Or, vars: tuple[str, ...], mask: int) -> bool:
        n = mask.bit_count()
        sat_left = []
        sat_right_closed = [False] * (1 << n)
        for local, sub in enumerate(_subteam_masks(self._bits(mask))):
            self.stats.subsets += 1
            if self._eval(node.left, vars, sub):
                sat_left.append(local)
            if self._eval(node.right, vars, sub):
                sat_right_closed[local] = True
        # downward closure: membership of X \ Y asks whether some superset
        # of the complement satisfies the right disjunct
        for local in range((1 << n) - 1, -1, -1):
            if sat_right_closed[local]:
                m = local
                while m:
                    bit = m & -m
                    sat_right_closed[local ^ bit] = True
                    m ^= bit
        full = (1 << n) - 1
        return any(sat_right_closed[full ^ m] for m in sat_left)

    # -- existential ------------------------------------------------------------

    def _exists(self, node: Exists, vars: tuple[str, ...], mask: int) -> bool:
        if self.mode == "naive":
            team = Team(vars, frozenset(self._rows(mask)))
            for choice in enumerate_choice_functions(team, self.model, 1):
                self.stats.choices += 1
                extended = supplement(team, choice, (node.var,))
                if self._eval(node.body, extended.vars, self._mask(extended.rows)):
                    return True
            return False
        if self.mode != "fast":
            return self._exists_by_subsets(node, *self._assign(vars, mask, node.var, self.model.domain))
        upward = self._all_upward(node.body)
        if not upward and self._cached(self._constant, node, _forces_constant):
            for value in self.model.domain:
                self.stats.choices += 1
                if self._eval(node.body, *self._assign(vars, mask, node.var, (value,))):
                    return True
            return False
        # no witness can use a duplicated row that fails the flattening,
        # and every original assignment must still be extendable
        doubled_vars, doubled = self._assign(vars, mask, node.var, self.model.domain)
        kept = self._satisfying(doubled_vars, doubled, self._flattening(node.body))
        if not self._covers(vars, mask, doubled_vars, kept, node.var):
            return False
        if upward:
            return self._eval(node.body, doubled_vars, kept)
        return self._exists_by_subsets(node, doubled_vars, kept)

    def _covers(self, vars: tuple[str, ...], mask: int, sub_vars: tuple[str, ...], sub: int, var: str) -> bool:
        """Does every assignment of the team survive, for some value of
        `var`, into `sub` (a subteam of the duplicated team)?"""
        rest = tuple(v for v in vars if v != var)
        return not self._restrict(vars, mask, rest) & ~self._restrict(sub_vars, sub, rest)

    def _exists_by_subsets(self, node: Exists, vars: tuple[str, ...], doubled: int) -> bool:
        bits = self._bits(doubled)
        # group the duplicated rows, as local bits, by originating assignment
        rest = tuple(v for v in vars if v != node.var)
        groups: dict[int, int] = {}
        for k, b in enumerate(bits):
            origin = self._restrict(vars, b, rest)
            groups[origin] = groups.get(origin, 0) | 1 << k
        for local, sub in enumerate(_subteam_masks(bits)):
            self.stats.subsets += 1
            if any(not local & g for g in groups.values()):
                continue
            if self._eval(node.body, vars, sub):
                return True
        return False

    # -- possibility ------------------------------------------------------------

    def _possibly(self, node: Possibly, vars: tuple[str, ...], mask: int) -> bool:
        if self.mode == "fast" and self._all_upward(node.body):
            kept = self._satisfying(vars, mask, self._flattening(node.body))
            return bool(kept) and self._eval(node.body, vars, kept)
        for rows in subsets(self._rows(mask), low=1):
            self.stats.subsets += 1
            if self._eval(node.body, vars, self._mask(rows)):
                return True
        return False

    # -- witnesses ---------------------------------------------------------------

    def witness(self, phi: Formula, team: Team) -> dict | None:
        """A one-level explanation of why `phi` holds on `team` (None when
        it does not hold, or when the node carries no choice to report)."""
        if not self.evaluate(phi, team):
            return None
        vars, mask = team.vars, self._mask(team.rows)
        listed = lambda rows: [list(r) for r in sorted(rows)]  # noqa: E731
        if isinstance(phi, Or):
            for left, right in cover_parts(self._rows(mask)):
                if self._eval(phi.left, vars, self._mask(left)) and self._eval(phi.right, vars, self._mask(right)):
                    return {"kind": "split", "left": listed(left), "right": listed(right)}
        if isinstance(phi, Exists):
            doubled_vars, doubled = self._assign(vars, mask, phi.var, self.model.domain)
            for rows in subsets(self._rows(doubled)):
                sub = self._mask(rows)
                if self._covers(vars, mask, doubled_vars, sub, phi.var) and self._eval(phi.body, doubled_vars, sub):
                    return {"kind": "choice", "vars": list(doubled_vars), "rows": listed(rows)}
        if isinstance(phi, Possibly):
            for rows in subsets(self._rows(mask), low=1):
                if self._eval(phi.body, vars, self._mask(rows)):
                    return {"kind": "subteam", "rows": listed(rows)}
        if isinstance(phi, DepAtom):
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
