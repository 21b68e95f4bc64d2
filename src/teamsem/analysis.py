"""Height bounds and small satisfying subteams.

Every upwards closed dependency atom with a verified bound admits a
witness guarantee: if a team satisfies a formula built from such atoms
(constancy allowed), some subteam no larger than the sum of the atom
bounds already satisfies it.  This module computes that sum, extracts a
witness by size-ordered search, and reproduces the two counting facts
that fall out of the bound: totality forces arbitrarily large witnesses,
and expressing an n-row requirement with k-bounded atoms takes at least
ceil(n/k) atom instances.
"""

from __future__ import annotations

import functools
import json
from dataclasses import dataclass

from .atoms import AtomRegistry, DEFAULT_REGISTRY
from .evaluator import Evaluator
from .model import Model, SINGLETON_EMPTY_TEAM, Team, duplicate, letters
from .syntax import DepAtom, Formula, Possibly, free_variables, pretty, subformulas


class AnalysisError(Exception):
    pass


class InvariantBreach(AnalysisError):
    """A guaranteed witness was not found.

    This cannot happen if the evaluator and the registered atom bounds
    are correct, so the failure carries everything needed to replay it.
    """

    def __init__(self, message: str, repro: dict):
        super().__init__(f"{message}\nreproduction data: {json.dumps(repro, sort_keys=True)}")
        self.repro = repro


@dataclass(frozen=True)
class Height:
    """Sum of atom bounds over a formula, with the per-atom breakdown.

    `value` is None when some atom instance has no finite bound (totality
    is the built-in example); `contributions` lists one (atom text, bound)
    pair per dependency-atom instance, in syntactic order.
    """

    value: int | None
    contributions: tuple[tuple[str, int | None], ...]

    def __str__(self) -> str:
        return "unbounded" if self.value is None else str(self.value)


# Bounded, since it keeps its formulas and registries alive; a witness
# search asks again for the formula it just scored.  A failure is not
# cached, so an atom registered after it resolves.
@functools.lru_cache(maxsize=128)
def compute_height(phi: Formula, registry: AtomRegistry | None = None) -> Height:
    """Add up the verified bounds of the dependency atoms in `phi`.

    Literals contribute nothing, conjunction and disjunction add, and
    quantifiers pass through.  Restriction is scored by its body: the
    expansion (not theta) or (theta and body) adds a first-order disjunct,
    which contributes zero.  Only constancy and upwards closed atoms are
    in scope -- the witness guarantee backing the number fails for the
    others -- and possibility must be desugared first (its expansion
    through two constant witnesses scores the body plus two).
    """
    reg = registry or DEFAULT_REGISTRY
    parts: list[tuple[str, int | None]] = []
    for node in subformulas(phi):
        if isinstance(node, Possibly):
            raise AnalysisError(
                "height is not defined on possibility directly; desugar it first"
            )
        if isinstance(node, DepAtom):
            d = reg.resolve_atom(node)
            if d.name != "const" and not d.upwards_closed:
                raise AnalysisError(
                    f"height is only defined over constancy and upwards closed "
                    f"atoms; {pretty(node)} is neither"
                )
            parts.append((pretty(node), d.bound))
    if any(b is None for _, b in parts):
        return Height(None, tuple(parts))
    return Height(sum(b for _, b in parts), tuple(parts))


def _repro(model: Model, team: Team, phi: Formula, **extra) -> dict:
    data = {
        "formula": pretty(phi),
        "model": json.loads(model.to_json()),
        "team": json.loads(team.to_json()),
    }
    data.update(extra)
    return data


def find_small_witness(
    model: Model,
    team: Team,
    phi: Formula,
    registry: AtomRegistry | None = None,
    evaluator: Evaluator | None = None,
) -> Team:
    """A smallest subteam of `team` satisfying `phi`, searched in size
    order up to the height bound.

    Requires that `team` itself satisfies `phi` and that the height is
    finite; the bound then guarantees the search succeeds, and a failure
    is raised as an InvariantBreach with replay data rather than a plain
    error.  Sweeps that extract many witnesses against one model can pass
    a shared `evaluator` to keep its memo warm.
    """
    reg = registry or DEFAULT_REGISTRY
    height = compute_height(phi, reg)
    if height.value is None:
        raise AnalysisError("the formula contains an unbounded atom; no witness bound exists")
    ev = evaluator or Evaluator(model, registry=reg)
    if not ev.evaluate(phi, team):
        raise AnalysisError("the team does not satisfy the formula; nothing to shrink")
    sub = ev.first_subteam(phi, team, height.value)
    if sub is not None:
        return sub
    raise InvariantBreach(
        "no satisfying subteam within the height bound",
        _repro(model, team, phi, height=height.value),
    )


def totality_unboundedness_witness(
    n: int, registry: AtomRegistry | None = None
) -> tuple[Model, Team]:
    """A model and team where total(x) holds but no subteam of at most
    n rows does: n+1 elements, with x running over all of them.

    Both clauses are verified exhaustively before returning, so a result
    from this function is a checked witness that no finite bound works
    for totality.
    """
    if n < 1:
        raise AnalysisError("need n >= 1")
    if n + 1 <= 8:
        domain = letters(n + 1)
    else:
        domain = tuple(f"e{i}" for i in range(n + 1))
    model = Model(domain, {}, {})
    team = duplicate(model, SINGLETON_EMPTY_TEAM, "x")
    atom = DepAtom("total", (("x",),))
    ev = Evaluator(model, registry=registry, mode="fast")
    if not ev.evaluate(atom, team):
        raise InvariantBreach(
            "the full team does not satisfy totality", _repro(model, team, atom)
        )
    sub = ev.first_subteam(atom, team, n)
    if sub is not None:
        raise InvariantBreach("a small subteam satisfies totality", _repro(model, sub, atom))
    return model, team


def min_atom_instances_lower_bound(n: int, bound: int) -> int:
    """ceil(n / bound): how many instances of a `bound`-bounded atom any
    formula needs before it can force witnesses of n rows.

    A formula with fewer instances has height below n, so every
    satisfying team would shrink to a satisfying subteam of fewer than
    n rows.
    """
    if n < 0:
        raise AnalysisError("need n >= 0")
    if bound < 1:
        if n == 0:
            return 0
        raise AnalysisError("a 0-bounded atom never forces nonempty witnesses")
    return -(-n // bound)


def analyze(
    phi: Formula,
    model: Model | None = None,
    team: Team | None = None,
    registry: AtomRegistry | None = None,
) -> dict:
    """The height report backing the command line: height and breakdown,
    plus (when a model and team are supplied and the formula is satisfied
    and bounded) the extracted witness and its size."""
    height = compute_height(phi, registry)
    report: dict = {
        "formula": pretty(phi),
        "height": height.value,
        "contributions": [
            {"atom": name, "bound": bound} for name, bound in height.contributions
        ],
        "free_variables": sorted(free_variables(phi)),
    }
    if model is not None and team is not None:
        ev = Evaluator(model, registry=registry, mode="fast")
        satisfied = ev.evaluate(phi, team)
        report["satisfied"] = satisfied
        if satisfied and height.value is not None:
            witness = find_small_witness(model, team, phi, registry, evaluator=ev)
            report["witness"] = json.loads(witness.to_json())
            report["witness_size"] = len(witness.rows)
    return report
