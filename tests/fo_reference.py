"""The reference first-order evaluator: Tarski's truth definition written
out recursively, one assignment dictionary per quantifier step.

It is slow and obviously right, and it is the other side of the
differential tests of the compiled engine (`teamsem.model.compile_fo`)."""

from __future__ import annotations

from typing import Mapping

from teamsem.model import EvalError, Model
from teamsem.syntax import And, BoolLit, Const, EqLit, Exists, Forall, Formula, Or, RelLit, Term


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


def reference_eval(
    model: Model,
    assignment: Mapping[str, str],
    phi: Formula,
    rels: Mapping[str, frozenset] = {},
) -> bool:
    """Classical satisfaction by a single assignment; `rels` supplies or
    overrides named relations, as the engine's relation map does."""
    if isinstance(phi, BoolLit):
        return phi.value
    if isinstance(phi, RelLit):
        if phi.name in rels:
            tuples = rels[phi.name]
        else:
            rel = model.relations.get(phi.name)
            if rel is None:
                raise EvalError(f"unknown relation {phi.name}")
            tuples = rel.tuples
        row = tuple(resolve_term(model, assignment, t) for t in phi.args)
        return (row in tuples) == phi.positive
    if isinstance(phi, EqLit):
        same = resolve_term(model, assignment, phi.left) == resolve_term(
            model, assignment, phi.right
        )
        return same == phi.positive
    if isinstance(phi, Or):
        return reference_eval(model, assignment, phi.left, rels) or reference_eval(
            model, assignment, phi.right, rels
        )
    if isinstance(phi, And):
        return reference_eval(model, assignment, phi.left, rels) and reference_eval(
            model, assignment, phi.right, rels
        )
    if isinstance(phi, Exists):
        return any(
            reference_eval(model, {**assignment, phi.var: m}, phi.body, rels)
            for m in model.domain
        )
    if isinstance(phi, Forall):
        return all(
            reference_eval(model, {**assignment, phi.var: m}, phi.body, rels)
            for m in model.domain
        )
    raise EvalError(f"not a first-order formula: {phi}")
