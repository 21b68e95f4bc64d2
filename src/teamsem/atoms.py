"""The dependency-atom catalog.

Every atom is a condition on a pair (domain, relation): truth of the atom
on a team only ever depends on the projection of the team onto the atom's
argument tuple.  Each definition carries a direct evaluator over that
projected relation, an optional defining first-order sentence over a
single relation symbol R, and its closure/boundedness metadata.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

from .model import Model, Row, Team, compile_fo, letters, subsets, team_project
from .model import tarski_eval  # noqa: F401  (bench/tracer.py patches it by this name)
from .syntax import (
    DepAtom,
    Formula,
    Or,
    RelLit,
    Var,
    ands,
    constant_names,
    eq_tuple,
    exists_chain,
    forall_chain,
    formula_signature,
    free_variables,
    is_first_order,
    negate_fo,
    neq_tuple,
    ors,
)

ATOM_REL = "R"  # the relation symbol used by defining sentences

class AtomError(Exception):
    pass


class RegistrationError(AtomError):
    def __init__(self, message: str, counterexample: "Counterexample | None" = None):
        super().__init__(message)
        self.counterexample = counterexample


@dataclass(frozen=True)
class Counterexample:
    """A (model, relation(s)) witness refuting a closure or bound claim."""

    model: Model
    relation: frozenset[Row]
    superset: frozenset[Row] | None = None

    def describe(self) -> str:
        def rel(r: frozenset[Row]) -> str:
            return "{" + ", ".join(str(t) for t in sorted(r)) + "}"

        parts = [f"domain={list(self.model.domain)}", f"relation={rel(self.relation)}"]
        if self.superset is not None:
            parts.append(f"superset={rel(self.superset)}")
        return ", ".join(parts)


@dataclass(frozen=True)
class AtomDefinition:
    name: str
    group_widths: tuple[int, ...]
    param: int | None
    upwards_closed: bool
    downwards_closed: bool
    bound: int | None
    direct: Callable[[Model, frozenset[Row]], bool]
    fo_definition: Formula
    verified: bool = True

    @property
    def arity(self) -> int:
        return sum(self.group_widths)


# ---------------------------------------------------------------------------
# Direct evaluators (over the projected relation)


def _direct_dep(widths):
    n = widths[0]

    def run(model: Model, rel: frozenset[Row]) -> bool:
        seen: dict[Row, Row] = {}
        for t in rel:
            key, val = t[:n], t[n:]
            if seen.setdefault(key, val) != val:
                return False
        return True

    return run


def _direct_const(widths):
    def run(model: Model, rel: frozenset[Row]) -> bool:
        return len(rel) <= 1

    return run


def _direct_excl(widths):
    n = widths[0]

    def run(model: Model, rel: frozenset[Row]) -> bool:
        left = {t[:n] for t in rel}
        right = {t[n:] for t in rel}
        return not (left & right)

    return run


def _direct_incl(widths):
    n = widths[0]

    def run(model: Model, rel: frozenset[Row]) -> bool:
        left = {t[:n] for t in rel}
        right = {t[n:] for t in rel}
        return left <= right

    return run


def _direct_indep(widths):
    n, m = widths

    def run(model: Model, rel: frozenset[Row]) -> bool:
        left = {t[:n] for t in rel}
        right = {t[n:] for t in rel}
        # rel lies within left x right, so the count alone makes it the product
        return len(rel) == len(left) * len(right)

    return run


def _direct_cindep(widths):
    n, m, k = widths

    def run(model: Model, rel: frozenset[Row]) -> bool:
        if len(rel) < 2:
            return True
        slices: dict[Row, list[Row]] = {}
        for t in rel:
            slices.setdefault(t[n + m :], []).append(t)
        if len(slices) == len(rel):
            return True
        # Distinct tuples: a slice is a product when it holds |left| x |right| of them.
        for ts in slices.values():
            if len(ts) > 1 and len(ts) != len({t[:n] for t in ts}) * len({t[n : n + m] for t in ts}):
                return False
        return True

    return run


def _direct_ne(widths):
    def run(model: Model, rel: frozenset[Row]) -> bool:
        return bool(rel)

    return run


def _direct_intersect(widths):
    n = widths[0]

    def run(model: Model, rel: frozenset[Row]) -> bool:
        return any(t[:n] == t[n:] for t in rel)

    return run


def _direct_inconst(widths):
    def run(model: Model, rel: frozenset[Row]) -> bool:
        return len(rel) > 1

    return run


def _direct_big(widths, param):
    def run(model: Model, rel: frozenset[Row]) -> bool:
        return len(rel) >= param

    return run


def _direct_total(widths):
    n = widths[0]

    def run(model: Model, rel: frozenset[Row]) -> bool:
        return len(rel) == len(model.domain) ** n

    return run


def _direct_not(direct):
    """The direct evaluator of the negation of `direct`'s atom."""

    def build(widths):
        positive = direct(widths)
        return lambda model, rel: not positive(model, rel)

    return build


# ---------------------------------------------------------------------------
# Defining first-order sentences over R


def _vars(prefix: str, n: int) -> tuple[Var, ...]:
    return tuple(Var(f"_d{prefix}{i}") for i in range(n))


def _names(vs: tuple[Var, ...]) -> tuple[str, ...]:
    return tuple(v.name for v in vs)


def _rel(args: Iterable[Var], positive: bool = True) -> Formula:
    return RelLit(ATOM_REL, positive, tuple(args))


def _fo_dep(widths):
    n, m = widths
    a, b, c = _vars("a", n), _vars("b", m), _vars("c", m)
    body = ors([_rel(a + b, False), _rel(a + c, False), eq_tuple(b, c)])
    return forall_chain(_names(a + b + c), body)


def _fo_const(widths):
    (n,) = widths
    a, b = _vars("a", n), _vars("b", n)
    return forall_chain(_names(a + b), ors([_rel(a, False), _rel(b, False), eq_tuple(a, b)]))


def _fo_excl(widths):
    n = widths[0]
    a, b, c, d = _vars("a", n), _vars("b", n), _vars("c", n), _vars("d", n)
    body = ors([_rel(a + b, False), _rel(c + d, False), neq_tuple(a, d)])
    return forall_chain(_names(a + b + c + d), body)


def _fo_incl(widths):
    n = widths[0]
    a, b, c, d = _vars("a", n), _vars("b", n), _vars("c", n), _vars("d", n)
    inner = exists_chain(_names(c + d), ands([_rel(c + d), eq_tuple(d, a)]))
    return forall_chain(_names(a + b), Or(_rel(a + b, False), inner))


def _fo_indep(widths):
    n, m = widths
    a, b, c, d = _vars("a", n), _vars("b", m), _vars("c", n), _vars("d", m)
    body = ors([_rel(a + b, False), _rel(c + d, False), _rel(a + d)])
    return forall_chain(_names(a + b + c + d), body)


def _fo_cindep(widths):
    n, m, k = widths
    a, b, e = _vars("a", n), _vars("b", m), _vars("e", k)
    c, d, f = _vars("c", n), _vars("d", m), _vars("f", k)
    body = ors(
        [_rel(a + b + e, False), _rel(c + d + f, False), neq_tuple(e, f), _rel(a + d + e)]
    )
    return forall_chain(_names(a + b + e + c + d + f), body)


def _fo_ne(widths):
    return _rel(())


def _fo_intersect(widths):
    n = widths[0]
    a, b = _vars("a", n), _vars("b", n)
    return exists_chain(_names(a + b), ands([_rel(a + b), eq_tuple(a, b)]))


def _fo_inconst(widths):
    (n,) = widths
    a, b = _vars("a", n), _vars("b", n)
    return exists_chain(_names(a + b), ands([_rel(a), _rel(b), neq_tuple(a, b)]))


def _fo_big(widths, param):
    (n,) = widths
    groups = [_vars(f"g{i}", n) for i in range(param)]
    parts: list[Formula] = [_rel(g) for g in groups]
    for i in range(param):
        for j in range(i + 1, param):
            parts.append(neq_tuple(groups[i], groups[j]))
    return exists_chain([v.name for g in groups for v in g], ands(parts))


def _fo_total(widths):
    (n,) = widths
    a = _vars("a", n)
    return forall_chain(_names(a), _rel(a))


def _fo_not(fo):
    """The defining sentence of the negation of `fo`'s atom."""
    return lambda widths: negate_fo(fo(widths))


# Written out, not derived from `_fo_cindep`: its dual is a different
# sentence, and this one is the definition the catalog prints and checks.
def _fo_noncindep(widths):
    n, m, k = widths
    a, b, e = _vars("a", n), _vars("b", m), _vars("e", k)
    c, d, f = _vars("c", n), _vars("d", m), _vars("f", k)
    p, q, r = _vars("p", n), _vars("q", m), _vars("r", k)
    no_match = forall_chain(
        _names(p + q + r),
        ors([_rel(p + q + r, False), neq_tuple(p, a), neq_tuple(q, d), neq_tuple(r, e)]),
    )
    body = ands([_rel(a + b + e), _rel(c + d + f), eq_tuple(e, f), no_match])
    return exists_chain(_names(a + b + e + c + d + f), body)


# ---------------------------------------------------------------------------
# Family table

# name -> (group count, equal-width groups required, upwards, downwards, bound rule)
@dataclass(frozen=True)
class _Family:
    group_count: int
    equal_widths: bool
    upwards: bool
    downwards: bool
    bound: Callable[[int | None], int | None]
    direct: Callable
    fo: Callable
    takes_param: bool = False


_FAMILIES: dict[str, _Family] = {
    "dep": _Family(2, False, False, True, lambda p: None, _direct_dep, _fo_dep),
    "const": _Family(1, False, False, True, lambda p: 0, _direct_const, _fo_const),
    "excl": _Family(2, True, False, True, lambda p: None, _direct_excl, _fo_excl),
    "incl": _Family(2, True, False, False, lambda p: None, _direct_incl, _fo_incl),
    "indep": _Family(2, False, False, False, lambda p: None, _direct_indep, _fo_indep),
    "cindep": _Family(3, False, False, False, lambda p: None, _direct_cindep, _fo_cindep),
    "NE": _Family(0, False, True, False, lambda p: 1, _direct_ne, _fo_ne),
    "intersect": _Family(2, True, True, False, lambda p: 1, _direct_intersect, _fo_intersect),
    "inconst": _Family(1, False, True, False, lambda p: 2, _direct_inconst, _fo_inconst),
    "big": _Family(1, False, True, False, lambda p: p, _direct_big, _fo_big, takes_param=True),
    "total": _Family(1, False, True, False, lambda p: None, _direct_total, _fo_total),
    "nondep": _Family(2, False, True, False, lambda p: 2, _direct_not(_direct_dep), _fo_not(_fo_dep)),
    "nonexcl": _Family(2, True, True, False, lambda p: 2, _direct_not(_direct_excl), _fo_not(_fo_excl)),
    # The negations of inclusion and conditional independence are NOT
    # upwards closed; their small bounds below are fixed empirically by
    # check_boundedness (see the registry self-test).
    "nonincl": _Family(2, True, False, False, lambda p: 1, _direct_not(_direct_incl), _fo_not(_fo_incl)),
    "noncindep": _Family(3, False, False, False, lambda p: 2, _direct_not(_direct_cindep), _fo_noncindep),
}

BUILTIN_ATOM_NAMES = tuple(_FAMILIES)


class AtomRegistry:
    """Resolves atom occurrences to definitions; holds custom atoms."""

    def __init__(self) -> None:
        self._custom: dict[str, AtomDefinition] = {}
        self._cache: dict[tuple, AtomDefinition] = {}

    def known_names(self) -> frozenset[str]:
        return frozenset(BUILTIN_ATOM_NAMES) | frozenset(self._custom)

    def is_builtin(self, name: str) -> bool:
        return name in _FAMILIES

    def resolve(self, name: str, group_widths: tuple[int, ...], param: int | None = None) -> AtomDefinition:
        key = (name, group_widths, param)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        if name in self._custom:
            d = self._custom[name]
            if group_widths != d.group_widths or param is not None:
                raise AtomError(f"atom {name} takes one group of width {d.arity} and no parameter")
            return d
        fam = _FAMILIES.get(name)
        if fam is None:
            raise AtomError(f"unknown atom {name}")
        if len(group_widths) != fam.group_count:
            raise AtomError(
                f"atom {name} takes {fam.group_count} argument groups, got {len(group_widths)}"
            )
        if fam.equal_widths and len(set(group_widths)) > 1:
            raise AtomError(f"atom {name} needs equal-width groups, got {group_widths}")
        if any(w < 1 for w in group_widths):
            raise AtomError(f"atom {name} has an empty argument group")
        if fam.takes_param:
            if param is None or param < 1:
                raise AtomError(f"atom {name} needs a parameter >= 1")
            direct = fam.direct(group_widths, param)
            fo = fam.fo(group_widths, param)
        else:
            if param is not None:
                raise AtomError(f"atom {name} takes no parameter")
            direct = fam.direct(group_widths)
            fo = fam.fo(group_widths)
        d = AtomDefinition(
            name=name,
            group_widths=group_widths,
            param=param,
            upwards_closed=fam.upwards,
            downwards_closed=fam.downwards,
            bound=fam.bound(param),
            direct=direct,
            fo_definition=fo,
            verified=True,
        )
        self._cache[key] = d
        return d

    def resolve_atom(self, atom: DepAtom) -> AtomDefinition:
        return self.resolve(atom.name, tuple(len(g) for g in atom.groups), atom.param)

    def unit(self, name: str, param: int | None = None) -> AtomDefinition:
        """The catalog instance of atom `name`: one variable per argument
        group (a custom atom at its registered arity), with parameter 2
        when the atom takes one and none is given."""
        custom = self._custom.get(name)
        if custom is not None:
            return self.resolve(name, custom.group_widths, param)
        fam = _FAMILIES.get(name)
        if fam is None:
            raise AtomError(f"unknown atom {name}")
        if fam.takes_param and param is None:
            param = 2
        return self.resolve(name, (1,) * fam.group_count, param)

    def catalog(self) -> list[dict]:
        """One descriptive row per built-in, then custom, atom (unit instances)."""
        rows = []
        for name in BUILTIN_ATOM_NAMES + tuple(sorted(self._custom)):
            d = self.unit(name)
            row = {
                "name": name,
                "groups": len(d.group_widths),
                "parameterized": d.param is not None,
                "upwards_closed": d.upwards_closed,
                "downwards_closed": d.downwards_closed,
                "bound": d.bound,
                "first_order_definition": str(d.fo_definition),
            }
            if name in self._custom:
                row["verified"] = d.verified
            rows.append(row)
        return rows

    def register_custom(
        self,
        name: str,
        arity: int,
        definition: Formula,
        upwards_closed: bool,
        bound: int | None = None,
        downwards_closed: bool = False,
        check: bool = True,
    ) -> AtomDefinition:
        """Register an atom given by a first-order sentence over R.

        Declared closure flags and bound are brute-force checked before
        activation unless `check` is False (in which case the definition
        is marked unverified and translation results will say so).
        """
        if name in self.known_names():
            raise RegistrationError(f"atom name {name} is taken")
        if not name.isidentifier() or name[0] == "_":
            raise RegistrationError(f"bad atom name {name!r}")
        if arity < 1:
            raise RegistrationError("custom atoms need arity >= 1")
        if bound is not None and (type(bound) is not int or bound < 0):
            raise RegistrationError(f"bound must be a nonnegative integer or null, got {bound!r}")
        if not is_first_order(definition):
            raise RegistrationError("atom definitions must be first-order")
        if free_variables(definition):
            raise RegistrationError("atom definitions must be sentences over R")
        sig = formula_signature(definition)
        if set(sig) - {ATOM_REL}:
            raise RegistrationError(f"atom definitions may only use relation {ATOM_REL}")
        if sig.get(ATOM_REL, arity) != arity:
            raise RegistrationError(
                f"definition uses {ATOM_REL} at arity {sig[ATOM_REL]}, expected {arity}"
            )
        if constant_names(definition):
            raise RegistrationError("atom definitions may not use constants")

        d = AtomDefinition(
            name=name,
            group_widths=(arity,),
            param=None,
            upwards_closed=upwards_closed,
            downwards_closed=downwards_closed,
            bound=bound,
            direct=_truth_of(definition),
            fo_definition=definition,
            verified=check,
        )
        if check:
            claims = (
                (upwards_closed, "upwards closed", check_upwards_closed),
                (downwards_closed, "downwards closed", check_downwards_closed),
                (bound is not None, f"{bound}-bounded", lambda atom: check_boundedness(atom, bound)),
            )
            for declared, wording, checker in claims:
                ce = checker(d) if declared else None
                if ce is not None:
                    raise RegistrationError(
                        f"atom {name} is declared {wording} but is not: {ce.describe()}", ce
                    )
        self._custom[name] = d
        return d


DEFAULT_REGISTRY = AtomRegistry()


def eval_atom(model: Model, team: Team, atom: DepAtom, registry: AtomRegistry | None = None) -> bool:
    """Truth of a dependency atom on a team: the direct evaluator applied
    to the projection of the team onto the atom's arguments."""
    reg = registry or DEFAULT_REGISTRY
    d = reg.resolve_atom(atom)
    rel = team_project(team, atom.args)
    return d.direct(model, rel)


# ---------------------------------------------------------------------------
# Brute-force checkers


PROBE_LIMIT = 1 << 20  # the most relations one brute-force check may try


def _probes(arity: int, max_dom: int, max_rel: int) -> Iterator[tuple[Model, frozenset[Row]]]:
    """The (model, relation) pairs every brute-force checker tries: for each
    domain a.. of 2 to `max_dom` elements, a model with no relations and
    each relation of `arity` with at most `max_rel` tuples, in size order.
    A scale with no pair, past 8 elements or over `PROBE_LIMIT` is refused."""
    if not (2 <= max_dom <= 8 and max_rel >= 0):
        raise AtomError(
            f"brute-force checks need 2 <= max_dom <= 8 and max_rel >= 0, got max_dom={max_dom}, max_rel={max_rel}"
        )
    count = 0
    for n in range(2, max_dom + 1):
        for size in range(min(n**arity, max_rel) + 1):
            count += math.comb(n**arity, size)
            if count > PROBE_LIMIT:
                raise AtomError(
                    f"a brute-force check of arity {arity} at max_dom={max_dom}, max_rel={max_rel} "
                    f"tries {count:,} relations or more, over the limit of {PROBE_LIMIT:,}"
                )
    for n in range(2, max_dom + 1):
        model = Model(letters(n), {}, {})
        for rel in subsets(itertools.product(model.domain, repeat=arity), high=max_rel):
            yield model, rel


def check_upwards_closed(
    definition: AtomDefinition, max_dom: int = 3, max_rel: int = 4
) -> Counterexample | None:
    """Search for R ⊆ S with the atom true on R and false on S."""
    arity = definition.arity
    tuples: dict[tuple[str, ...], list[Row]] = {}
    for model, rel in _probes(arity, max_dom, max_rel):
        if not definition.direct(model, rel):
            continue
        if model.domain not in tuples:
            tuples[model.domain] = sorted(itertools.product(model.domain, repeat=arity))
        extra = [t for t in tuples[model.domain] if t not in rel]
        # grow one or two tuples at a time; enough to refute at this scale.
        # With one tuple missing both rounds add it, and the benchmark's
        # catalog point counts include that repeated call.
        for k in (1, min(2, len(extra))):
            for added in subsets(extra, k, k):
                sup = rel | added
                if added and not definition.direct(model, sup):
                    return Counterexample(model, rel, sup)
    return None


def check_downwards_closed(
    definition: AtomDefinition, max_dom: int = 3, max_rel: int = 4
) -> Counterexample | None:
    """Search for R ⊆ S with the atom true on S and false on R."""
    for model, rel in _probes(definition.arity, max_dom, max_rel):
        if not definition.direct(model, rel):
            continue
        for sub in subsets(rel, high=len(rel) - 1):
            if not definition.direct(model, sub):
                return Counterexample(model, sub, rel)
    return None


def check_boundedness(
    definition: AtomDefinition,
    kappa: int,
    max_dom: int | None = None,
    max_rel: int | None = None,
) -> Counterexample | None:
    """Search for (M, R) satisfying the atom with no satisfying subrelation
    of size <= kappa.  Subteams realize exactly the subrelations, so the
    search runs over relations.

    The default scales grow with kappa so that unbounded atoms (totality)
    are refuted rather than vacuously passed.
    """
    if kappa < 0:
        raise AtomError("bound must be >= 0")
    if max_dom is None:
        max_dom = max(3, kappa + 1)
    if max_rel is None:
        max_rel = max(4, kappa + 1, max_dom)
    for model, rel in _probes(definition.arity, max_dom, max_rel):
        if not definition.direct(model, rel):
            continue
        for sub in subsets(rel, high=kappa):
            if definition.direct(model, sub):
                break
        else:
            return Counterexample(model, rel)
    return None


def _truth_of(sentence: Formula) -> Callable[[Model, frozenset[Row]], bool]:
    """Truth of a sentence over R on the model's domain with R := rel,
    compiled once per domain."""
    runs: dict[tuple[str, ...], Callable] = {}

    def truth(model: Model, rel: frozenset[Row]) -> bool:
        run = runs.get(model.domain)
        if run is None:
            run = runs[model.domain] = compile_fo(Model(model.domain), sentence, ())
        return run([], {ATOM_REL: rel})

    return truth


def fo_definition_agrees(
    definition: AtomDefinition, max_dom: int = 3, max_rel: int = 4
) -> Counterexample | None:
    """Check the direct evaluator against Tarski truth of the defining
    sentence over all relations of size <= max_rel at small scale."""
    truth = _truth_of(definition.fo_definition)
    for model, rel in _probes(definition.arity, max_dom, max_rel):
        if definition.direct(model, rel) != truth(model, rel):
            return Counterexample(model, rel)
    return None
