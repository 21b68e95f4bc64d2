"""The reference syntactic facts: free variables and first-order-ness
written out recursively, walking the whole subtree on every call.

They are slow and obviously right, and they are the other side of the
tests of the facts each node keeps (`teamsem.syntax.free_variables`,
`sorted_free_variables` and `is_first_order`)."""

from __future__ import annotations

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
)


def reference_free_variables(phi: Formula) -> frozenset[str]:
    if isinstance(phi, BoolLit):
        return frozenset()
    if isinstance(phi, RelLit):
        return frozenset(t.name for t in phi.args if isinstance(t, Var))
    if isinstance(phi, EqLit):
        return frozenset(t.name for t in (phi.left, phi.right) if isinstance(t, Var))
    if isinstance(phi, DepAtom):
        return frozenset(phi.args)
    if isinstance(phi, (Or, And)):
        return reference_free_variables(phi.left) | reference_free_variables(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return reference_free_variables(phi.body) - {phi.var}
    if isinstance(phi, Possibly):
        return reference_free_variables(phi.body)
    if isinstance(phi, RestrictedBy):
        return reference_free_variables(phi.body) | reference_free_variables(phi.guard)
    raise TypeError(f"unknown node {phi!r}")


def reference_is_first_order(phi: Formula) -> bool:
    if isinstance(phi, (DepAtom, Possibly, RestrictedBy)):
        return False
    if isinstance(phi, (BoolLit, RelLit, EqLit)):
        return True
    if isinstance(phi, (Or, And)):
        return reference_is_first_order(phi.left) and reference_is_first_order(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return reference_is_first_order(phi.body)
    raise TypeError(f"unknown node {phi!r}")
