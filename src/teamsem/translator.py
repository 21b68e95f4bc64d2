"""Compilation of team formulas to ordinary first-order sentences.

For a formula whose dependency atoms are upwards closed (plus constancy,
possibility, restriction, and the two definable negative atoms), the
pipeline produces a single first-order sentence over the original
signature extended by one relation symbol naming the team:

    team X over variables (x1, ..., xn) satisfies phi
        <=>
    the model expanded with R := { s(x1..xn) : s in X } satisfies phi*

The stages, each independently testable:

1. desugar the two non-upwards-closed negative atoms into their
   constancy/intersection definitions;
2. desugar possibility operators into their two-witness expansion;
3. eliminate constancy atoms in favour of fresh prefix variables that are
   pinned by equations and existentially quantified at the very end;
4. rewrite to clean form, where disjunction and existential quantification
   only ever apply to first-order parts, using the flattening of each
   subformula as a guard;
5. recurse over the clean form once, case by case (first-order part /
   atom / conjunction / universal / restriction), building the sentence
   about R directly, and quantify the prefix.  The recursion carries the
   team literal, the formula saying that given terms form a row of the
   current team: R's literal with the prefix pinned at the top, the
   outer literal with the last argument dropped under a universal, and
   the outer literal conjoined with the guard under a restriction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .atoms import AtomRegistry, DEFAULT_REGISTRY
from .syntax import (
    And,
    DepAtom,
    Exists,
    Forall,
    Formula,
    FreshNames,
    Or,
    Possibly,
    RelLit,
    RESERVED_PREFIX,
    RestrictedBy,
    Var,
    _children,
    _rebuilt,
    all_variable_names,
    ands,
    constant_names,
    desugar_possibility,
    eq_tuple,
    exists_chain,
    flatten,
    forall_chain,
    formula_signature,
    free_variables,
    is_clean,
    is_first_order,
    map_formula,
    negate_fo,
    neq_tuple,
    simplify,
    subformulas,
    substitute_vars,
)

class TranslationError(Exception):
    pass


@dataclass(frozen=True)
class TranslationResult:
    """A first-order sentence equivalent to the input formula.

    `sentence` is closed and mentions `relation` (arity = len(tuple_vars))
    for the team; when `tuple_vars` is empty the team relation is folded
    away entirely and the sentence captures truth of the input *as a
    sentence* (on the team of the single empty assignment).
    """

    sentence: Formula
    relation: str
    tuple_vars: tuple[str, ...]
    prefix_vars: tuple[str, ...]
    clean_formula: Formula
    atoms_used: tuple[str, ...]
    verified: bool


# ---------------------------------------------------------------------------
# Stage 1: the two definable negative atoms


def desugar_negated_atoms(phi: Formula, fresh: FreshNames | None = None) -> Formula:
    """Replace non-inclusion and conditional non-independence by their
    definitions through constancy and intersection witnesses."""
    if fresh is None:
        fresh = FreshNames(all_variable_names(phi))

    def expand(node: Formula) -> Formula:
        if isinstance(node, DepAtom) and node.name == "nonincl":
            xs, ys = node.groups
            zs = fresh.fresh_many(len(xs))
            body = ands(
                [
                    DepAtom("const", (zs,)),
                    DepAtom("intersect", (zs, xs)),
                    neq_tuple([Var(z) for z in zs], [Var(y) for y in ys]),
                ]
            )
            return exists_chain(zs, body)
        if isinstance(node, DepAtom) and node.name == "noncindep":
            xs, ys, zs = node.groups
            ps = fresh.fresh_many(len(xs))
            qs = fresh.fresh_many(len(ys))
            rs = fresh.fresh_many(len(zs))
            body = ands(
                [
                    DepAtom("const", (ps + qs + rs,)),
                    DepAtom("intersect", (ps + rs, xs + zs)),
                    DepAtom("intersect", (qs + rs, ys + zs)),
                    neq_tuple(
                        [Var(v) for v in ps + qs + rs],
                        [Var(v) for v in xs + ys + zs],
                    ),
                ]
            )
            return exists_chain(ps + qs + rs, body)
        return node

    return map_formula(phi, expand)


# ---------------------------------------------------------------------------
# Stage 3: constancy elimination


def eliminate_constancy(
    phi: Formula, fresh: FreshNames
) -> tuple[Formula, tuple[str, ...]]:
    """Replace every constancy atom =(y1..yk) by equations y_i = v_i
    against fresh variables, returning (result, all fresh variables).

    The result has no constancy atoms and satisfies: X |= phi iff for some
    values c of the fresh variables, X extended by constant columns v := c
    satisfies the result.  Fresh columns commute with duplication,
    supplementation, splits, and restriction, which is what makes the
    per-connective descent sound.  Possibility must be desugared first.
    """
    prefix: list[str] = []

    def pin(node: Formula) -> Formula:
        if isinstance(node, Possibly):
            raise TranslationError("possibility must be desugared before constancy elimination")
        if isinstance(node, DepAtom) and node.name == "const":
            vs = fresh.fresh_many(len(node.args))
            prefix.extend(vs)
            return eq_tuple([Var(y) for y in node.args], [Var(v) for v in vs])
        return node

    return map_formula(phi, pin), tuple(prefix)


# ---------------------------------------------------------------------------
# Stage 4: clean form


def to_clean(phi: Formula, registry: AtomRegistry | None = None) -> Formula:
    """Push every disjunction and existential into first-order territory.

    Requires all dependency atoms upwards closed (constancy eliminated,
    possibility desugared) — the guarded rewrites below are unsound
    otherwise, so anything else is rejected up front.  Non-first-order
    disjunctions become guarded conjunctions; non-first-order
    existentials become a first-order existential plus a guarded
    universal."""
    reg = registry or DEFAULT_REGISTRY
    for node in subformulas(phi):
        if isinstance(node, DepAtom):
            d = reg.resolve_atom(node)
            if not d.upwards_closed:
                raise TranslationError(
                    f"atom {d.name} is not upwards closed; clean rewriting "
                    "requires upwards closure"
                )
    return _clean(phi)


def _clean(phi: Formula) -> Formula:
    if is_first_order(phi) or isinstance(phi, DepAtom):
        return phi
    if isinstance(phi, (And, Forall, RestrictedBy)):
        # a restriction's guard is first-order, so it cleans to itself
        parts = []
        for part in _children(phi):  # a loop, so one frame per level
            parts.append(_clean(part))
        return _rebuilt(phi, parts)
    if isinstance(phi, Or):
        left, right = _children(phi)
        guard_l, guard_r = flatten(left), flatten(right)
        return ands(
            [
                Or(guard_l, guard_r),
                RestrictedBy(_clean(left), guard_l),
                RestrictedBy(_clean(right), guard_r),
            ]
        )
    if isinstance(phi, Exists):
        (body,) = _children(phi)
        guard = flatten(body)
        return And(
            Exists(phi.var, guard),
            Forall(phi.var, RestrictedBy(_clean(body), guard)),
        )
    if isinstance(phi, Possibly):
        raise TranslationError("possibility must be desugared before cleaning")
    raise TranslationError(f"cannot clean {phi!r}")


# ---------------------------------------------------------------------------
# Stage 5: the sentence


def build_fo_sentence(
    phi: Formula,
    tuple_vars: tuple[str, ...],
    registry: AtomRegistry | None = None,
    fresh: FreshNames | None = None,
    relation: str = "R",
    prefix_vars: tuple[str, ...] = (),
) -> Formula:
    """For clean `phi` with free variables among `tuple_vars` and
    `prefix_vars`, build a first-order sentence over the signature plus
    `relation` (arity len(tuple_vars)) such that a team X over tuple_vars
    satisfies phi, with some constant column for each prefix variable,
    exactly when the sentence holds with `relation` := X's rows.

    One recursion carries the team literal: a function from argument
    terms (one per column: the team's, the prefix's, then one per
    enclosing universal) and a sign to the formula saying that the terms
    form a row of the current team.  At the top that is `relation` of the
    team part /\\ prefix part = prefix variables; a universal drops its
    column; a restriction conjoins its guard.  Each first-order part and
    atom projection quantifies its own copy of the columns, the prefix
    columns under fresh names so that the prefix variables stay free
    there.

    Binders in `phi` must be distinct from the columns and from each other
    along any path (see translate, which normalizes first)."""
    reg = registry or DEFAULT_REGISTRY
    columns = tuple(tuple_vars) + tuple(prefix_vars)
    if fresh is None:
        fresh = FreshNames(all_variable_names(phi) | set(columns))
    if not is_clean(phi):
        raise TranslationError("sentence construction needs a clean formula")
    missing = free_variables(phi) - set(columns)
    if missing:
        raise TranslationError(f"free variables {sorted(missing)} not in the team tuple")
    n, k = len(tuple_vars), len(prefix_vars)
    pinned = tuple(Var(v) for v in prefix_vars)

    def top(args: tuple, positive: bool) -> Formula:
        parts: list[Formula] = [RelLit(relation, True, args[:n])] if n else []
        if k:
            parts.append(eq_tuple(args[n:], pinned))
        core = ands(parts)
        return core if positive else negate_fo(core)

    def copy(tup: tuple[str, ...]) -> tuple[tuple[str, ...], tuple, dict[str, Var]]:
        # the columns under their own names, the prefix's under fresh ones
        names = tup[:n] + fresh.fresh_many(k) + tup[n + k :]
        row = tuple(Var(v) for v in names)
        return names, row, dict(zip(prefix_vars, row[n:]))

    def build(
        node: Formula, tup: tuple[str, ...], team: Callable[[tuple, bool], Formula]
    ) -> Formula:
        if is_first_order(node):
            # every team row satisfies the first-order part
            names, row, renamed = copy(tup)
            return forall_chain(
                names, Or(team(row, False), substitute_vars(node, renamed, fresh))
            )
        if isinstance(node, DepAtom):
            def project(lit: Formula) -> Formula:
                if not isinstance(lit, RelLit):
                    return lit
                # the definition's relation holds of the arguments iff
                # some team row projects onto them
                names, row, renamed = copy(tup)
                zs = tuple(renamed.get(z, Var(z)) for z in node.args)
                core = exists_chain(names, ands([eq_tuple(lit.args, zs), team(row, True)]))
                return core if lit.positive else negate_fo(core)

            return map_formula(reg.resolve_atom(node).fo_definition, project)
        if isinstance(node, And):
            return And(build(node.left, tup, team), build(node.right, tup, team))
        if isinstance(node, Forall):
            if node.var in tup:
                raise TranslationError(
                    f"binder {node.var} collides with the team tuple (normalize first)"
                )
            return build(
                node.body, tup + (node.var,), lambda args, positive: team(args[:-1], positive)
            )
        if isinstance(node, RestrictedBy):
            guard = node.guard

            def kept(args: tuple, positive: bool) -> Formula:
                row = And(team(args, True), substitute_vars(guard, dict(zip(tup, args)), fresh))
                return row if positive else negate_fo(row)

            return build(node.body, tup, kept)
        raise TranslationError(f"not a clean node: {node!r}")

    try:
        return exists_chain(prefix_vars, build(phi, columns, top))
    finally:
        del build  # a self-referring closure would leave a cycle for the collector


# ---------------------------------------------------------------------------
# Binder normalization


def _distinct_binders(
    phi: Formula, protected: Iterable[str], fresh: FreshNames
) -> Formula:
    """Rename binders so that no binder name repeats along a path or
    collides with `protected` (or any free variable)."""
    taken = set(protected) | free_variables(phi)

    def clash(binder: str, mapping) -> bool:
        seen = binder in taken
        taken.add(binder)
        return seen

    return substitute_vars(phi, {}, fresh, clash)


# ---------------------------------------------------------------------------
# The pipeline


def _pick_relation_name(phi: Formula) -> str:
    used = set(formula_signature(phi))
    if "R" not in used:
        return "R"
    i = 0
    while f"R{i}" in used:
        i += 1
    return f"R{i}"


def translate(
    phi: Formula,
    tuple_vars: tuple[str, ...],
    registry: AtomRegistry | None = None,
    simplify_output: bool = False,
) -> TranslationResult:
    """Compile `phi`, read as a property of teams over `tuple_vars`, to a
    first-order sentence over the signature plus one team relation.

    Accepts dependency atoms that are upwards closed, constancy, the two
    definable negative atoms, possibility, and restriction.  Rejects
    anything else, reserved-prefix names, and free variables outside
    `tuple_vars`."""
    reg = registry or DEFAULT_REGISTRY

    if len(set(tuple_vars)) != len(tuple_vars):
        raise TranslationError("team tuple variables must be distinct")
    for v in tuple_vars:
        if v.startswith(RESERVED_PREFIX):
            raise TranslationError(f"tuple variable {v!r} uses the reserved prefix")
    for name in all_variable_names(phi) | set(formula_signature(phi)) | constant_names(phi):
        if name.startswith(RESERVED_PREFIX):
            raise TranslationError(f"input name {name!r} uses the reserved prefix")
    missing = free_variables(phi) - set(tuple_vars)
    if missing:
        raise TranslationError(f"free variables {sorted(missing)} not in the team tuple")

    atoms_used: set[str] = set()
    verified = True
    for node in subformulas(phi):
        if isinstance(node, DepAtom):
            d = reg.resolve_atom(node)
            atoms_used.add(d.name)
            verified = verified and d.verified
            if d.name in ("const", "nonincl", "noncindep"):
                continue
            if not d.upwards_closed:
                raise TranslationError(
                    f"atom {d.name} is not upwards closed and has no definable rewrite"
                )

    fresh = FreshNames(all_variable_names(phi) | set(tuple_vars))

    step = desugar_negated_atoms(phi, fresh)
    step = desugar_possibility(step, fresh)
    step, prefix_vars = eliminate_constancy(step, fresh)
    clean = to_clean(step, reg)
    clean = _distinct_binders(clean, tuple_vars + prefix_vars, fresh)

    relation = _pick_relation_name(phi)
    sentence = build_fo_sentence(clean, tuple_vars, reg, fresh, relation, prefix_vars)
    if simplify_output:
        sentence = simplify(sentence)

    return TranslationResult(
        sentence=sentence,
        relation=relation if tuple_vars else "",
        tuple_vars=tuple_vars,
        prefix_vars=tuple(prefix_vars),
        clean_formula=clean,
        atoms_used=tuple(sorted(atoms_used)),
        verified=verified,
    )
