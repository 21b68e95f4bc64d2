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
5. recurse over the clean form, building a sentence about an internal
   team symbol, case by case (first-order part / atom / conjunction /
   universal / restriction);
6. re-express the internal team symbol through R and the prefix
   variables, and quantify the prefix.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .atoms import ATOM_REL, AtomRegistry, DEFAULT_REGISTRY
from .syntax import (
    And,
    BoolLit,
    DepAtom,
    EqLit,
    Exists,
    FALSE,
    Forall,
    Formula,
    FreshNames,
    Or,
    Possibly,
    RelLit,
    RESERVED_PREFIX,
    RestrictedBy,
    TRUE,
    Var,
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
    subformulas,
    substitute_vars,
)

TEAM_SYMBOL = "_S"  # internal; never survives into the final sentence


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
    if is_first_order(phi):
        return phi
    if isinstance(phi, DepAtom):
        return phi
    if isinstance(phi, And):
        return And(_clean(phi.left), _clean(phi.right))
    if isinstance(phi, Forall):
        return Forall(phi.var, _clean(phi.body))
    if isinstance(phi, RestrictedBy):
        return RestrictedBy(_clean(phi.body), phi.guard)
    if isinstance(phi, Or):
        guard_l = flatten(phi.left)
        guard_r = flatten(phi.right)
        return ands(
            [
                Or(guard_l, guard_r),
                RestrictedBy(_clean(phi.left), guard_l),
                RestrictedBy(_clean(phi.right), guard_r),
            ]
        )
    if isinstance(phi, Exists):
        guard = flatten(phi.body)
        return And(
            Exists(phi.var, guard),
            Forall(phi.var, RestrictedBy(_clean(phi.body), guard)),
        )
    if isinstance(phi, Possibly):
        raise TranslationError("possibility must be desugared before cleaning")
    raise TranslationError(f"cannot clean {phi!r}")


# ---------------------------------------------------------------------------
# Relation-literal surgery


def replace_relation(
    phi: Formula,
    name: str,
    builder: Callable[[tuple, bool], Formula],
    avoid: frozenset[str] = frozenset(),
    fresh: FreshNames | None = None,
) -> Formula:
    """Replace every literal of relation `name` by builder(args, positive).

    Builder output may mention variables listed in `avoid` free; binders in
    `phi` with those names are renamed so they cannot capture them.
    Replacements are not re-scanned."""
    if fresh is None:
        fresh = FreshNames(all_variable_names(phi) | set(avoid))

    def replace(lit: RelLit) -> Formula:
        return builder(lit.args, lit.positive) if lit.name == name else lit

    return substitute_vars(phi, {}, fresh, lambda v, m: v in avoid, replace)


# ---------------------------------------------------------------------------
# Stage 5: sentence construction over the internal team symbol


def build_fo_sentence(
    phi: Formula,
    tuple_vars: tuple[str, ...],
    registry: AtomRegistry | None = None,
    fresh: FreshNames | None = None,
) -> Formula:
    """For clean `phi` with free variables among `tuple_vars`, build a
    closed first-order sentence over the signature plus TEAM_SYMBOL
    (arity len(tuple_vars)) such that a team X over tuple_vars satisfies
    phi exactly when the sentence holds with TEAM_SYMBOL := X's rows.

    Binders in `phi` must be distinct from tuple_vars and from each other
    along any path (see translate, which normalizes first)."""
    reg = registry or DEFAULT_REGISTRY
    if fresh is None:
        fresh = FreshNames(all_variable_names(phi) | set(tuple_vars))
    if not is_clean(phi):
        raise TranslationError("sentence construction needs a clean formula")
    missing = free_variables(phi) - set(tuple_vars)
    if missing:
        raise TranslationError(f"free variables {sorted(missing)} not in the team tuple")

    def team_lit(tup: tuple[str, ...]) -> Formula:
        return RelLit(TEAM_SYMBOL, True, tuple(Var(v) for v in tup))

    def build(node: Formula, tup: tuple[str, ...]) -> Formula:
        if is_first_order(node):
            # every team row satisfies the first-order part
            return forall_chain(
                tup, Or(RelLit(TEAM_SYMBOL, False, tuple(Var(v) for v in tup)), node)
            )
        if isinstance(node, DepAtom):
            d = reg.resolve_atom(node)
            if d.fo_definition is None:
                raise TranslationError(f"atom {node.name} has no first-order definition")
            zs = node.args

            def atom_builder(args: tuple, positive: bool, zs=zs, tup=tup) -> Formula:
                # args belongs to the atom definition's projected relation:
                # it holds iff some team row projects onto it
                core = exists_chain(
                    tup,
                    ands([eq_tuple(args, tuple(Var(z) for z in zs)), team_lit(tup)]),
                )
                return core if positive else negate_fo(core)

            return replace_relation(d.fo_definition, ATOM_REL, atom_builder, frozenset(), fresh)
        if isinstance(node, And):
            return And(build(node.left, tup), build(node.right, tup))
        if isinstance(node, Forall):
            if node.var in tup:
                raise TranslationError(
                    f"binder {node.var} collides with the team tuple (normalize first)"
                )
            inner = build(node.body, tup + (node.var,))

            def drop_last(args: tuple, positive: bool) -> Formula:
                return RelLit(TEAM_SYMBOL, positive, args[:-1])

            return replace_relation(inner, TEAM_SYMBOL, drop_last, frozenset(), fresh)
        if isinstance(node, RestrictedBy):
            inner = build(node.body, tup)
            guard = node.guard

            def filter_guard(args: tuple, positive: bool, guard=guard, tup=tup) -> Formula:
                mapping = dict(zip(tup, args))
                shifted = substitute_vars(guard, mapping, fresh)
                kept = And(RelLit(TEAM_SYMBOL, True, args), shifted)
                return kept if positive else negate_fo(kept)

            return replace_relation(inner, TEAM_SYMBOL, filter_guard, frozenset(), fresh)
        raise TranslationError(f"not a clean node: {node!r}")

    return build(phi, tuple_vars)


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
# Local simplification (optional, semantics-preserving)


def simplify(phi: Formula) -> Formula:
    """Cheap bottom-up cleanup of translator output: boolean units, trivial
    equalities between identical terms, and quantifiers over dead or
    constant bodies.  Sound on models with nonempty domains."""
    return map_formula(phi, _simplify_node)


def _simplify_node(phi: Formula) -> Formula:
    if isinstance(phi, EqLit) and phi.left == phi.right:
        return TRUE if phi.positive else FALSE
    if isinstance(phi, Or):
        if TRUE in (phi.left, phi.right):
            return TRUE
        if phi.left == FALSE:
            return phi.right
        if phi.right == FALSE:
            return phi.left
    if isinstance(phi, And):
        if FALSE in (phi.left, phi.right):
            return FALSE
        if phi.left == TRUE:
            return phi.right
        if phi.right == TRUE:
            return phi.left
    if isinstance(phi, (Exists, Forall)):
        if isinstance(phi.body, BoolLit) or phi.var not in free_variables(phi.body):
            return phi.body
    return phi


# ---------------------------------------------------------------------------
# Stage 6 + the pipeline


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
            if d.fo_definition is None:
                raise TranslationError(f"atom {d.name} has no first-order definition")

    fresh = FreshNames(all_variable_names(phi) | set(tuple_vars))

    step = desugar_negated_atoms(phi, fresh)
    step = desugar_possibility(step, fresh)
    step, prefix_vars = eliminate_constancy(step, fresh)
    clean = to_clean(step, reg)
    full_tuple = tuple_vars + prefix_vars
    clean = _distinct_binders(clean, full_tuple, fresh)

    sentence = build_fo_sentence(clean, full_tuple, reg, fresh)

    relation = _pick_relation_name(phi)
    n = len(tuple_vars)
    prefix_terms = tuple(Var(v) for v in prefix_vars)

    def final_builder(args: tuple, positive: bool) -> Formula:
        team_part, prefix_part = args[:n], args[n:]
        parts: list[Formula] = []
        if n:
            parts.append(RelLit(relation, True, team_part))
        if prefix_part:
            parts.append(eq_tuple(prefix_part, prefix_terms))
        core = ands(parts)
        return core if positive else negate_fo(core)

    sentence = replace_relation(
        sentence, TEAM_SYMBOL, final_builder, frozenset(prefix_vars), fresh
    )
    sentence = exists_chain(prefix_vars, sentence)
    if simplify_output:
        sentence = simplify(sentence)

    sig = formula_signature(sentence)
    if TEAM_SYMBOL in sig:
        raise TranslationError("internal team symbol leaked into the output")

    return TranslationResult(
        sentence=sentence,
        relation=relation if n else "",
        tuple_vars=tuple_vars,
        prefix_vars=tuple(prefix_vars),
        clean_formula=clean,
        atoms_used=tuple(sorted(atoms_used)),
        verified=verified,
    )
