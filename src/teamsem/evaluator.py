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
  rewrites, which replace subset searches with single recursions.  A
  split off that fragment with a downwards closed side theta (see
  `downward_closed`) builds no subteam tables either: X satisfies it iff
  some L within X satisfies the other side psi while theta holds on the
  rest.  For a first-order theta and a downwards closed psi that is one
  evaluation of psi on the rows where theta fails; otherwise a search
  removes rows from X, fewest first.  Falls back to oracle behaviour node
  by node when neither gate holds.

The fast gate deliberately excludes constancy atoms: the rewrites are
unsound for them (an existential over a constancy atom is the canonical
counterexample), even though constancy is harmless in other pipelines.

Inside an `Evaluator` a team is `(vars, mask)`: each row gets the next
free bit among the rows of its width when an evaluator over its domain
first meets it, so a mask is as wide as the rows of its width seen so far,
not |dom|^|vars|; searches walk the set bits in sorted-row order, while
restriction and duplication images are unions taken in bit order.  The
numbering and the images depend on the domain alone, so every evaluator
over one domain shares them, in any mode and for any model, and a sweep
that builds an evaluator per model renumbers nothing; verdicts, witnesses
and counters do not depend on which bit a row has.  No `Team` is built past
`evaluate`, `witness` and `first_subteam`: a dependency atom runs its
direct evaluator on the rows of its projected mask, once per projection,
naive mode's choice functions are unions of row images, and every search
of a team's subteams by size (possibility, witnesses, `first_subteam`,
the split's removals) takes `itertools.combinations` of a mask's bits.

Each node is compiled on first use, once per `(node, vars)`, into one
function of masks that reads and fills the node's own memo, keeps the
counters and calls its children's functions directly, a conjunction both
of them, so a chain of conjunctions costs one stack frame per level; the
strategy is settled then, not per call.  In fast mode a node over more
columns than its free variables restricts the mask and calls the node
over its free variables, and a team's columns stay sorted: X[F/var] puts
the new column where sorted order puts it, so a body over all of those
columns is called on the supplemented mask itself, with no column
permutation between.  An existential's search still takes the
assignments in the order they would have with that column last, and a
witness, run on the evaluation's own nodes, tries the rows in those
turns and lists the column last; `oracle` and `naive` append it.  A
restriction onto all of a team's columns, in their order, is the mask
itself and builds no table.  Other restriction and duplication images
are cached per whole mask, in tables shared like the numbering, and a
first-order node keeps a mask of the rows whose truth is known and one of
those where it holds, so the engine runs once per row.  An existential
off the flattening-guided rewrite tries the teams X[F/var] as the
product, over X's assignments, of the nonempty unions of each one's
duplicated rows.  Fast mode runs that search only on the duplicated rows
where the body's flattening holds, and splits the body's conjunction
spine by closure: first-order parts are dropped, an upwards closed atom
that fails on those rows ends the search, a downwards closed one that
holds on them is dropped, and each team tried checks the upwards closed
atoms, the remaining downwards closed ones and then the other parts.  An
existential whose body forces its variable constant tries one value at a
time; when the variable's sort (`_isolated_sort`) meets no relation and no
constant, fast mode tries only the values the sort's columns of the team
hold and the first value they do not, the rest being renamings of it.
That assumes every atom evaluator is invariant under renaming elements.
A split by subteam tables over more than `SPLIT_ROWS_LIMIT` rows is an
`EvalError`, and so are a search that tries 2^`SPLIT_ROWS_LIMIT`
candidates without success (naive mode's covers and choice functions, a
split's removals, an existential's supplemented teams, the subteams of a
possibility, a witness or `first_subteam`), named in its message, and a
formula too deep for the interpreter's stack.
"""

from __future__ import annotations

import bisect
import itertools
import weakref
from collections import defaultdict
from dataclasses import asdict, dataclass, fields
from typing import Callable, Collection, Iterator

from .atoms import AtomRegistry, DEFAULT_REGISTRY, eval_atom  # noqa: F401  (bench/tracer.py patches it by name)
from .model import (
    EvalError,
    Model,
    Row,
    SINGLETON_EMPTY_TEAM,
    Team,
    compile_fo,
    cover_parts,
    duplicate,  # noqa: F401  (bench/tracer.py patches these six by name)
    enumerate_choice_functions,  # noqa: F401
    enumerate_covers,  # noqa: F401
    supplement,  # noqa: F401
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
    Var,
    _children,
    _spine,
    flatten,
    free_variables,
    is_first_order,
    restrict,
    sorted_free_variables,
    subformulas,
)

MODES = ("naive", "oracle", "fast")
MEMO_LIMIT = 200_000
SPLIT_ROWS_LIMIT = 20  # the subteam tables of a split hold 2^rows entries
_TOO_DEEP = "the formula nests too deeply to evaluate"


def upward_fragment(phi: Formula, registry: AtomRegistry) -> bool:
    """True when every dependency atom in `phi` is upwards closed.

    This is the syntactic gate for the flattening-guided rewrites.
    Possibility subformulas pass as units (possibility is upwards
    closed whatever its body does); restriction is judged by its body,
    since the guard is first-order.
    """
    if isinstance(phi, DepAtom):
        return registry.resolve_atom(phi).upwards_closed
    if isinstance(phi, Possibly):
        return True
    for part in _children(phi):  # a loop, so one frame per level
        if not upward_fragment(part, registry):
            return False
    return True


def downward_closed(phi: Formula, registry: AtomRegistry) -> bool:
    """True when `phi` is downwards closed by its syntax: every dependency
    atom in it is, and no possibility occurs.  First-order parts are
    flat, so downwards closed, and conjunction, disjunction, both
    quantifiers and restriction keep the property."""
    if isinstance(phi, DepAtom):
        return registry.resolve_atom(phi).downwards_closed
    if isinstance(phi, Possibly):
        return False
    for part in _children(phi):  # a loop, so one frame per level
        if not downward_closed(part, registry):
            return False
    return True


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
    stack = list(_children(node))
    while stack:
        cur = stack.pop()
        if isinstance(cur, DepAtom):
            if cur.name == "const" and any(node.var in group for group in cur.groups):
                return True
        elif isinstance(cur, And) or (isinstance(cur, (Exists, Forall)) and cur.var != node.var):
            stack.extend(_children(cur))
    return False


def _isolated_sort(node: Exists) -> frozenset[str] | None:
    """The sort of the bound variable: the names linked to it in the body
    (guards and possibility bodies included) by an equality of two variables
    or by one dependency atom's arguments; None when one of them occurs in a
    relation literal or in an equality with a constant.  Names are global,
    which shadowing only makes conservative.  Swapping two values that no
    column of an isolated sort holds in X, on those columns alone, fixes X,
    takes X[a/var] to X[b/var] and keeps the body's truth, since atom
    evaluators read only their relation and the domain's size."""
    links, pinned = [], set()
    for cur in subformulas(node.body):
        if isinstance(cur, DepAtom):
            links.append(set(cur.args))
        elif isinstance(cur, EqLit) and isinstance(cur.left, Var) and isinstance(cur.right, Var):
            links.append({cur.left.name, cur.right.name})
        elif isinstance(cur, (RelLit, EqLit)):
            terms = cur.args if isinstance(cur, RelLit) else (cur.left, cur.right)
            pinned.update(t.name for t in terms if isinstance(t, Var))
    sort, grown = {node.var}, True
    while grown:
        grown = False
        for link in links:
            if link & sort and not link <= sort:
                sort |= link
                grown = True
    return None if sort & pinned else frozenset(sort)


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


def _subteams(bits: list[int], low: int = 0, high: int | None = None) -> Iterator[int]:
    """The unions of `low` to `high` of `bits`, fewest first and, within one
    size, in `itertools.combinations` order: over bits in sorted-row order
    that is the order of `subsets` over the rows."""
    for size in range(low, len(bits) + 1 if high is None else min(high, len(bits)) + 1):
        for picked in itertools.combinations(bits, size):
            yield sum(picked)


def _bits(mask: int, row_of: dict[int, Row]) -> list[int]:
    """The set bits of `mask`, in sorted-row order; `row_of` maps the bits
    of the rows of one width to the rows."""
    if not mask & (mask - 1):
        return [mask] if mask else []
    out = []
    while mask:
        out.append(mask & -mask)
        mask &= mask - 1
    out.sort(key=row_of.__getitem__)
    return out


def _supplements(groups: Collection[list[int]]) -> Iterator[int]:
    """The joins of one nonempty union of each of `groups`, the product of
    each group's unions in ascending local mask with the first varying
    fastest, in order up to the 2^`SPLIT_ROWS_LIMIT` + 1st.  A group of over
    `SPLIT_ROWS_LIMIT` rows after one-row groups alone varies in those."""
    room, lists = (1 << SPLIT_ROWS_LIMIT) + 1, []
    for bits in groups:
        if len(bits) > 1:  # a one-row group is its own list
            if len(bits) > SPLIT_ROWS_LIMIT and room > 1 << SPLIT_ROWS_LIMIT:
                base = sum(g[0] for g in groups) - bits[0]
                return map(base.__add__, itertools.islice(_subteam_masks(bits), 1, None))
            sets = bits[:1]
            for b in bits[1 : room.bit_length()]:
                sets += [b, *map(b.__or__, sets)]
            bits, room = sets[:room], -(-room // len(sets))
        lists.append(bits)
    return map(sum, itertools.product(*reversed(lists)))


def _past_limit(search: str, what: str) -> EvalError:
    """The error of `search` drawing a candidate past the 2^`SPLIT_ROWS_LIMIT`
    it may try; each search counts its candidates k from 0 and raises it
    once `k >> SPLIT_ROWS_LIMIT` is nonzero."""
    return EvalError(f"{search} tried 2^{SPLIT_ROWS_LIMIT} {what}, the limit, and found none")


def _first_union(
    bits: list[int], holds: Callable[[int], bool], low: int = 0, high: int | None = None,
    search: str = "a witness search", stats: EvalStats | None = None,
) -> int | None:
    """The first of the `_subteams` of `bits` on which `holds` is true, else
    None, after at most 2^`SPLIT_ROWS_LIMIT` tries, each counted if `stats`."""
    for k, sub in enumerate(_subteams(bits, low, high)):
        if k >> SPLIT_ROWS_LIMIT:
            raise _past_limit(search, "subteams")
        if stats is not None:
            stats.subsets += 1
        if holds(sub):
            return sub
    return None


@dataclass(slots=True)
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

    def reset(self) -> None:
        for field in fields(self):
            setattr(self, field.name, 0)


class _Layout:
    """The rows met over one domain, numbered per width, and the team images
    over them: shared by every `Evaluator` over the domain, in any mode and
    for any model, since neither depends on the model's relations.  `bit`
    gives a new row the next free bit among the rows of its width.  No
    function kept here refers to an evaluator or to the layout, so an image
    built for one evaluator serves the next, and a dead evaluator is freed."""

    __slots__ = ("bit_of", "row_of", "bit", "images", "entries")

    def __init__(self, domain: tuple[str, ...], entries: list[int]):
        elements, bit_of, row_of = set(domain), {}, defaultdict(dict)

        def bit(row: Row) -> int:
            got = bit_of.get(row)
            if got is None:
                if not elements.issuperset(row):
                    raise EvalError(f"team row {row} leaves the model domain")
                of_width = row_of[len(row)]
                got = bit_of[row] = 1 << len(of_width)
                of_width[got] = row
            return got

        self.bit_of: dict[Row, int] = bit_of
        self.row_of: defaultdict[int, dict[int, Row]] = row_of
        self.bit = bit
        self.images: dict[tuple, Callable[[int], int]] = {}
        self.entries = entries  # image table entries over all layouts of one registry

    def image(self, key: tuple, width: int, image: Callable[[Row], int]) -> Callable[[int], int]:
        """The map from a mask over rows of `width` to the union of
        `image(row)` over its rows, kept once per `key`; its table holds
        whole masks, and a row's image under the row's own bit, until the
        tables of the registry hold `MEMO_LIMIT` entries.  A union does not
        depend on order, so the rows are taken in bit order, unsorted."""
        got = self.images.get(key)
        if got is not None:
            return got
        row_of, entries, table = self.row_of[width], self.entries, {}

        def apply(mask: int) -> int:
            out = table.get(mask)
            if out is None:
                out, rest = 0, mask
                while rest:
                    b = rest & -rest
                    rest ^= b
                    one = table.get(b)
                    if one is None:
                        one = image(row_of[b])
                        if entries[0] < MEMO_LIMIT:
                            table[b] = one
                            entries[0] += 1
                    out |= one
                if mask & (mask - 1) and entries[0] < MEMO_LIMIT:
                    table[mask] = out
                    entries[0] += 1
            return out

        self.images[key] = apply
        return apply


# the layouts by exact domain, and their image table entries together
_layouts: dict[tuple[str, ...], _Layout] = {}
_image_entries = [0]


def _layout(domain: tuple[str, ...]) -> _Layout:
    """The shared layout of `domain`.  Once the layouts together hold
    `MEMO_LIMIT` image entries, a fresh registry starts here; an evaluator
    keeps the layout it holds, whose tables stop growing."""
    global _layouts, _image_entries
    if _image_entries[0] >= MEMO_LIMIT:
        _layouts, _image_entries = {}, [0]
    got = _layouts.get(domain)
    if got is None:
        got = _layouts[domain] = _Layout(domain, _image_entries)
    return got


class Evaluator:
    """Evaluates formulas on teams over a fixed model.

    One instance per (model, strategy); each compiled node keeps a memo
    keyed by mask, so sweeping many teams against one formula reuses work.
    Node ids key a table only at or below a compiled node, which its entry
    keeps alive.  The memos of all nodes together stop growing at
    `MEMO_LIMIT` entries, and so does each table of atom verdicts.  Memos,
    first-order rows and verdicts depend on the model's relations and stay
    with the evaluator; the row numbering and the team images depend on the
    domain alone and come from its `_Layout`, shared with every evaluator
    over the same domain (see `_layout` for their bound).  The compiled
    functions count into `stats`, one object for the evaluator's life, and
    reach the evaluator only through a weak proxy.
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
        self._stats = EvalStats()
        self._entries = [0]  # memo entries over all nodes
        # per (node id, vars): the compiled node and a first-order node's rows
        self._compiled: dict[tuple, Callable[[int], bool]] = {}
        self._truths: dict[tuple, Callable[[int], int]] = {}
        # the rows and team images of the domain, shared with every
        # evaluator over it
        self._layout = layout = _layout(model.domain)
        self._row_of, self._bit = layout.row_of, layout.bit
        # what the compiled functions use of the evaluator: a strong
        # reference would make a cycle that only the collector frees
        self._me = weakref.proxy(self)

    @property
    def stats(self) -> EvalStats:
        return self._stats

    # -- public API ---------------------------------------------------------

    def evaluate(self, phi: Formula, team: Team) -> bool:
        try:
            return self._at(phi, team.vars)(self._mask(team.rows))
        except RecursionError:
            raise EvalError(_TOO_DEEP) from None

    def sentence_true(self, phi: Formula) -> bool:
        """Truth of a sentence: evaluation on the team of the single empty
        assignment (truth on the empty team is trivial and not this)."""
        fv = free_variables(phi)
        if fv:
            raise EvalError(f"not a sentence: free variables {sorted(fv)}")
        return self.evaluate(phi, SINGLETON_EMPTY_TEAM)

    def evaluate_with_stats(self, phi: Formula, team: Team) -> tuple[bool, dict[str, int]]:
        self._stats.reset()
        out = self.evaluate(phi, team)
        return out, self._stats.as_dict()

    # -- rows and masks ------------------------------------------------------

    def _mask(self, rows) -> int:
        return sum(map(self._bit, rows))

    def _rows(self, mask: int, width: int) -> list[Row]:
        row_of = self._row_of[width]
        return [row_of[b] for b in _bits(mask, row_of)]

    def _restrict(self, vars: tuple[str, ...], to: tuple[str, ...]) -> Callable[[int], int]:
        """X restricted to the columns `to`; onto all of `vars`, in their
        order, the mask itself, with no table."""
        if to == vars:
            return int  # an int's int() is itself
        bit_of, bit, idx = self._layout.bit_of, self._bit, [vars.index(v) for v in to]

        def image(row: Row) -> int:
            sub = tuple([row[i] for i in idx])
            return bit_of.get(sub) or bit(sub)

        return self._layout.image((vars, to), len(vars), image)

    def _assign(self, vars: tuple[str, ...], var: str, values) -> tuple[tuple[str, ...], Callable[[int], int]]:
        """X[values/var]: every row extended with, or overwritten by, each
        value.  A new column goes where sorted order puts it in fast mode,
        so X[F/var] over sorted columns stays sorted, and last otherwise."""
        bit, over = self._bit, var in vars  # as an int, the columns it replaces
        i = vars.index(var) if over else bisect.bisect(vars, var) if self.mode == "fast" else len(vars)
        image = lambda row: sum({bit(row[:i] + (m,) + row[i + over :]) for m in values})  # noqa: E731
        return vars[:i] + (var,) + vars[i + over :], self._layout.image((vars, var, i, tuple(values)), len(vars), image)

    # -- first-order nodes -------------------------------------------------------

    def _satisfying(self, phi: Formula, vars: tuple[str, ...]) -> Callable[[int], int]:
        """The map from a mask to its rows where first-order `phi` holds,
        kept once per (node, vars); each row counts as looked at.  Two
        masks hold the rows whose truth is known and the rows where it is
        true; the engine, compiled on first use, runs only on rows not yet
        known, in sorted-row order."""
        stats, model, row_of, run, masks = self._stats, self.model, self._row_of[len(vars)], None, [0, 0]

        def satisfying(mask: int) -> int:  # its closure pins `phi`
            nonlocal run
            stats.tarski_rows += mask.bit_count()
            if mask & ~masks[0]:
                run = run or compile_fo(model, phi, vars)
                for b in _bits(mask & ~masks[0], row_of):
                    masks[1] |= b if run(row_of[b]) else 0
                    masks[0] |= b
            return mask & masks[1]

        return self._truths.setdefault((id(phi), vars), satisfying)

    # -- compiled nodes ----------------------------------------------------------

    def _at(self, node: Formula, vars: tuple[str, ...]) -> Callable[[int], bool]:
        """`node` compiled to one function of masks over `vars`, once per
        (node, vars).  Only a root can fail to cover its free variables."""
        got = self._compiled.get((id(node), vars))
        if got is None:
            missing = [v for v in sorted_free_variables(node) if v not in vars]
            if missing:
                raise EvalError(f"team does not cover free variables {missing}")
            got = self._compiled[id(node), vars] = self._compile(node, vars)
        return got

    def _compile(self, node: Formula, vars: tuple[str, ...]) -> Callable[[int], bool]:
        """In fast mode a node over more columns than its free variables
        restricts the mask and calls the node over its free variables.  Any
        other node reads and fills its own memo and counts, and on a miss
        runs its body, built on first use; a conjunction calls its children
        from here, so a chain of conjunctions costs one frame per level."""
        stats, fv = self._stats, sorted_free_variables(node) if self.mode == "fast" else vars
        if fv != vars:
            inner, restricted = self._at(node, fv), self._restrict(vars, fv)
            return lambda mask: inner(restricted(mask))
        me, entries, memo, first, second = self._me, self._entries, {}, None, None

        def run(mask: int) -> bool:
            nonlocal first, second
            hit = memo.get(mask)
            if hit is not None:
                stats.memo_hits += 1
                return hit
            stats.nodes += 1
            if (n := mask.bit_count()) > stats.max_team_rows:
                stats.max_team_rows = n
            if first is None:
                if isinstance(node, And):
                    first, second = me._at(node.left, vars), me._at(node.right, vars)
                else:
                    first = me._body(node, vars)
            out = first(mask) and (second is None or second(mask))
            if entries[0] < MEMO_LIMIT:
                memo[mask] = out
                entries[0] += 1
            return out

        return run

    def _body(self, node: Formula, vars: tuple[str, ...]) -> Callable[[int], bool]:
        """`node`, other than a conjunction, on masks over `vars`, past the memo."""
        me, row_of = self._me, self._row_of[len(vars)]
        if isinstance(node, BoolLit):
            return lambda mask: node.value or not mask
        if isinstance(node, (RelLit, EqLit)):
            # row by row in sorted order, stopping at the first false one
            satisfying = self._satisfying(node, vars)
            return lambda mask: all(satisfying(b) for b in _bits(mask, row_of))
        if isinstance(node, DepAtom):
            # the direct evaluator on the projection, decided once per projection;
            # the verdict table pays on locality's padded oracle teams
            direct, model, verdicts = self.registry.resolve_atom(node).direct, self.model, {}
            project, width = self._restrict(vars, node.args), len(node.args)

            def atom(mask: int) -> bool:
                rel = project(mask)
                out = verdicts.get(rel)
                if out is None:
                    out = direct(model, frozenset(me._rows(rel, width)))
                    if len(verdicts) < MEMO_LIMIT:
                        verdicts[rel] = out
                return out

            return atom
        if isinstance(node, Forall):
            body_vars, duplicated = self._assign(vars, node.var, self.model.domain)
            body = self._at(node.body, body_vars)
            return lambda mask: body(duplicated(mask))
        if isinstance(node, Or):
            return self._split(node, vars)
        if isinstance(node, Exists):
            return self._exists(node, vars)
        if isinstance(node, Possibly):
            return self._possibly(node, vars)
        if isinstance(node, RestrictedBy):
            if self.mode == "fast":
                body, satisfying = self._at(node.body, vars), self._satisfying(node.guard, vars)
                return lambda mask: body(satisfying(mask))
            return self._split(restrict(node.body, node.guard), vars)
        raise EvalError(f"cannot evaluate node {node!r}")

    # -- disjunction ----------------------------------------------------------

    def _split(self, node: Or, vars: tuple[str, ...]) -> Callable[[int], bool]:
        stats, row_of, registry = self._stats, self._row_of[len(vars)], self.registry
        left, right = self._at(node.left, vars), self._at(node.right, vars)
        if self.mode == "naive":

            def covers(mask: int) -> bool:
                for k, (part_l, part_r) in enumerate(cover_parts(_bits(mask, row_of))):
                    if k >> SPLIT_ROWS_LIMIT:
                        raise _past_limit("a split search", "covers")
                    stats.covers += 1
                    if left(sum(part_l)) and right(sum(part_r)):
                        return True
                return False

            return covers
        if self.mode == "fast" and upward_fragment(node, registry):
            sat_l = self._satisfying(flatten(node.left), vars)
            sat_r = self._satisfying(flatten(node.right), vars)

            def guided(mask: int) -> bool:
                # row by row in sorted order, so the scan stops (and an
                # engine error surfaces) where it always did
                parts_l = parts_r = 0
                for b in _bits(mask, row_of):
                    in_l, in_r = sat_l(b), sat_r(b)
                    if not (in_l or in_r):
                        return False
                    parts_l |= in_l
                    parts_r |= in_r
                return left(parts_l) and right(parts_r)

            return guided
        if self.mode == "fast":
            # theta: a first-order side if any, else a downwards closed one, the right side first
            sides = [(node.right, node.left), (node.left, node.right)]
            for theta, psi in sorted(sides, key=lambda side: not is_first_order(side[0])):
                if downward_closed(theta, registry):
                    return self._split_down(theta, psi, vars)

        def tables(mask: int) -> bool:
            bits = _bits(mask, row_of)
            n = len(bits)
            if n > SPLIT_ROWS_LIMIT:
                raise EvalError(
                    f"a split over {n} rows needs tables of 2^{n} subteams; the limit is {SPLIT_ROWS_LIMIT} rows"
                )
            sat_left, sat_right_closed = [], bytearray(1 << n)
            for local, sub in enumerate(_subteam_masks(bits)):
                stats.subsets += 1
                if left(sub):
                    sat_left.append(local)
                if right(sub):
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

        return tables

    def _split_down(self, theta: Formula, psi: Formula, vars: tuple[str, ...]) -> Callable[[int], bool]:
        """The split of a team X into psi and a downwards closed theta: some
        L within X satisfies psi while theta holds on the rest.  A
        first-order theta holds on exactly the subteams of its rows, so a
        downwards closed psi need only hold on the rows where theta fails.
        Otherwise rows are removed from X, fewest first, each removal
        tried counting in `stats.subsets`."""
        stats, row_of, on_psi = self._stats, self._row_of[len(vars)], self._at(psi, vars)
        if is_first_order(theta):
            removable, on_theta = self._satisfying(theta, vars), None
            if downward_closed(psi, self.registry):
                return lambda mask: on_psi(mask & ~removable(mask))
        else:
            removable, on_theta = (lambda mask: mask), self._at(theta, vars)

        def search(mask: int) -> bool:
            for k, removed in enumerate(_subteams(_bits(removable(mask), row_of))):
                if k >> SPLIT_ROWS_LIMIT:
                    raise _past_limit("a split search", "splits")
                stats.subsets += 1
                if on_psi(mask ^ removed) and (on_theta is None or on_theta(removed)):
                    return True
            return False

        return search

    # -- existential ------------------------------------------------------------

    def _exists(self, node: Exists, vars: tuple[str, ...]) -> Callable[[int], bool]:
        stats, row_of = self._stats, self._row_of[len(vars)]
        body_vars, duplicated = self._assign(vars, node.var, self.model.domain)
        body = self._at(node.body, body_vars)
        if self.mode == "naive":
            # X[S/var] for each nonempty value set S, in the order of
            # `enumerate_choice_functions`: a bitmask over the sorted domain
            domain = sorted(self.model.domain)
            images = [
                self._assign(vars, node.var, [m for k, m in enumerate(domain) if s >> k & 1])[1]
                for s in range(1, 1 << len(domain))
            ]

            def choices(mask: int) -> bool:
                # a choice function picks one image per row, rows in sorted order
                picks = itertools.product(*([image(b) for image in images] for b in _bits(mask, row_of)))
                for k, pick in enumerate(picks):
                    if k >> SPLIT_ROWS_LIMIT:
                        raise _past_limit("an existential search", "choice functions")
                    stats.choices += 1
                    sub = 0
                    for one in pick:
                        sub |= one
                    if body(sub):
                        return True
                return False

            return choices
        if self.mode != "fast":
            search = self._exists_by_subsets(node, body_vars)
            return lambda mask: search(duplicated(mask))
        upward = upward_fragment(node.body, self.registry)
        if not upward and _forces_constant(node):
            constants = [(value, self._assign(vars, node.var, (value,))[1]) for value in self.model.domain]
            sort = _isolated_sort(node)
            cols = tuple(v for v in vars if sort and v in sort)
            project, of_cols = (self._restrict(vars, cols), self._row_of[len(cols)]) if cols else (None, None)

            def constant(mask: int) -> bool:
                # with an isolated sort, the values its columns do not hold
                # are interchangeable, so only the first of them is tried
                used = {m for b in _bits(project(mask), of_cols) for m in of_cols[b]} if cols else ()
                spare = True
                for value, assigned in constants:
                    if value not in used:
                        if not spare:
                            continue
                        spare = sort is None
                    stats.choices += 1
                    if body(assigned(mask)):
                        return True
                return False

            return constant
        # no witness can use a duplicated row that fails the flattening, and
        # every original assignment must still be extendable (the columns
        # are the node's free variables, so `var` is a new one)
        satisfying, origin = self._satisfying(flatten(node.body), body_vars), self._restrict(body_vars, vars)
        search = body if upward else self._exists_by_subsets(node, body_vars)

        def guided(mask: int) -> bool:
            kept = satisfying(duplicated(mask))
            return origin(kept) == mask and search(kept)

        return guided

    def _exists_by_subsets(self, node: Exists, vars: tuple[str, ...]) -> Callable[[int], bool]:
        """Search the supplemented teams X[F/var] for one that satisfies the
        body: the `_supplements` of the duplicated rows grouped by assignment.

        Fast mode searches only the duplicated rows where the body's
        flattening holds, so every candidate is a subteam of them and the
        parts of the body's conjunction spine split by closure: a first-order
        part holds on every candidate by flatness, an upwards closed atom that
        fails on those rows fails on every candidate, and a downwards closed
        atom that holds on them holds on every candidate.  A candidate checks
        the upwards closed atoms, then the downwards closed ones that failed
        on those rows, then the other parts in spine order."""
        stats, turns = self._stats, self._turns(vars, node.var)
        ups, downs, rest = [], [], []
        if self.mode == "fast":
            for part in _spine(node.body, And):
                atom = self.registry.resolve_atom(part) if isinstance(part, DepAtom) else None
                if atom and atom.upwards_closed:
                    ups.append(self._at(part, vars))
                elif atom and atom.downwards_closed:
                    downs.append(self._at(part, vars))
                elif atom or not is_first_order(part):
                    rest.append(self._at(part, vars))
        else:
            rest.append(self._at(node.body, vars))

        def search(doubled: int) -> bool:
            for up in ups:
                if not up(doubled):
                    return False
            checks = [*ups, *(down for down in downs if not down(doubled)), *rest]
            for k, sub in enumerate(_supplements(turns(doubled))):
                if k >> SPLIT_ROWS_LIMIT:
                    raise _past_limit("an existential search", "subteams")
                stats.subsets += 1
                for check in checks:
                    if not check(sub):
                        break
                else:
                    return True
            return False

        return search

    def _turns(self, vars: tuple[str, ...], var: str) -> Callable[[int], Collection[list[int]]]:
        """The turns of an existential's search: a mask's rows grouped by the
        assignment they supplement, each group in sorted-row order, and the
        groups in their assignments' sorted order, as with `var` last."""
        row_of, i, origin_row = self._row_of[len(vars)], vars.index(var), self._row_of[len(vars) - 1].__getitem__
        origin, resort = self._restrict(vars, vars[:i] + vars[i + 1 :]), self.mode == "fast" and i < len(vars) - 1

        def turns(mask: int) -> Collection[list[int]]:
            groups: dict[int, list[int]] = {}
            for b in _bits(mask, row_of):
                groups.setdefault(origin(b), []).append(b)
            if resort and len(groups) > 1:
                return [groups[o] for o in sorted(groups, key=origin_row)]
            return groups.values()

        return turns

    # -- possibility ------------------------------------------------------------

    def _possibly(self, node: Possibly, vars: tuple[str, ...]) -> Callable[[int], bool]:
        stats, row_of, body = self._stats, self._row_of[len(vars)], self._at(node.body, vars)
        if self.mode == "fast" and upward_fragment(node.body, self.registry):
            satisfying = self._satisfying(flatten(node.body), vars)
            return lambda mask: bool(kept := satisfying(mask)) and body(kept)
        return lambda mask: _first_union(_bits(mask, row_of), body, 1, None, "a possibility search", stats) is not None

    # -- witnesses ---------------------------------------------------------------

    def witness(self, phi: Formula, team: Team) -> dict | None:
        """A one-level explanation of why `phi` holds on `team` (None when
        it does not hold, or when the node carries no choice to report).
        A search that tries 2^`SPLIT_ROWS_LIMIT` splits or subteams and
        finds none is an `EvalError`."""
        try:
            return self._witness(phi, team)
        except RecursionError:
            raise EvalError(_TOO_DEEP) from None

    def _witness(self, phi: Formula, team: Team) -> dict | None:
        if not self.evaluate(phi, team):
            return None
        vars, mask, row_of = team.vars, self._mask(team.rows), self._row_of[len(team.vars)]
        listed = lambda rows: [list(r) for r in sorted(rows)]  # noqa: E731
        if isinstance(phi, Or):
            left, right = self._at(phi.left, vars), self._at(phi.right, vars)
            for k, (part_l, part_r) in enumerate(cover_parts(_bits(mask, row_of))):
                if k >> SPLIT_ROWS_LIMIT:
                    raise _past_limit("a witness search", "splits")
                if left(sum(part_l)) and right(sum(part_r)):
                    part_l, part_r = [row_of[b] for b in part_l], [row_of[b] for b in part_r]
                    return {"kind": "split", "left": listed(part_l), "right": listed(part_r)}
        if isinstance(phi, Exists):
            # on the evaluation's nodes, the rows in its search's turns; a choice keeps every assignment
            body_vars, duplicated = self._assign(vars, phi.var, self.model.domain)
            body, doubled, rebound = self._at(phi.body, body_vars), duplicated(mask), phi.var in vars
            origin = self._restrict(body_vars, tuple(v for v in vars if v != phi.var))
            turns = [_bits(doubled, row_of)] if rebound else self._turns(body_vars, phi.var)(doubled)
            need, bits = origin(doubled), [b for turn in turns for b in turn]
            sub = _first_union(bits, lambda sub: origin(sub) == need and body(sub))
            if sub is not None:  # listed with a new bound column last, a rebound one in its place
                at = [body_vars.index(v) for v in (vars if rebound else (*vars, phi.var))]
                rows = [[row[k] for k in at] for row in self._rows(sub, len(body_vars))]
                return {"kind": "choice", "vars": [body_vars[k] for k in at], "rows": listed(rows)}
        if isinstance(phi, Possibly):
            sub = _first_union(_bits(mask, row_of), self._at(phi.body, vars), 1)
            if sub is not None:
                return {"kind": "subteam", "rows": listed(self._rows(sub, len(vars)))}
        if isinstance(phi, DepAtom):
            rel = team_project(team, phi.args)
            return {"kind": "projection", "columns": list(phi.args), "rows": [list(r) for r in sorted(rel)]}
        return {"kind": "holds"}

    def first_subteam(self, phi: Formula, team: Team, high: int) -> Team | None:
        """The first subteam of `team` with at most `high` rows on which
        `phi` holds, in the order of `subsets` (None if there is none).
        The search runs on masks; only the answer becomes a `Team`.  It may
        try 2^`SPLIT_ROWS_LIMIT` subteams, as `witness` may."""
        try:
            vars, mask = team.vars, self._mask(team.rows)
            sub = _first_union(_bits(mask, self._row_of[len(vars)]), self._at(phi, vars), 0, high)
            return None if sub is None else Team(vars, frozenset(self._rows(sub, len(vars))))
        except RecursionError:
            raise EvalError(_TOO_DEEP) from None


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
