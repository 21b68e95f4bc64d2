"""Formula AST, concrete grammar, and syntactic transformations.

Formulas are kept in negation normal form: negation never appears as a
node, only as a sign on relation and equality literals.  Dependency atoms
are positive by construction; `poss(...)` and `restrict(... ; ...)` are
first-class nodes so that they can be desugared or compiled later.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping


class SyntaxViolation(Exception):
    """An AST was built that breaks a structural invariant."""


class ParseError(Exception):
    def __init__(self, message: str, pos: int | None = None):
        self.pos = pos
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)


# ---------------------------------------------------------------------------
# Terms


@dataclass(frozen=True)
class Var:
    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Const:
    name: str

    def __str__(self) -> str:
        return self.name


Term = Var | Const


# ---------------------------------------------------------------------------
# Formula nodes


@dataclass(frozen=True)
class Formula:
    def __str__(self) -> str:
        return pretty(self)


@dataclass(frozen=True)
class BoolLit(Formula):
    value: bool


TRUE = BoolLit(True)
FALSE = BoolLit(False)


@dataclass(frozen=True)
class RelLit(Formula):
    """A (possibly negated) relation literal R(t1, ..., tk)."""

    name: str
    positive: bool
    args: tuple[Term, ...]


@dataclass(frozen=True)
class EqLit(Formula):
    """t = t' when positive, t != t' otherwise."""

    positive: bool
    left: Term
    right: Term


@dataclass(frozen=True)
class DepAtom(Formula):
    """A dependency atom applied to groups of variables.

    `groups` keeps the argument structure, e.g. dep(x, y; z) has groups
    ((x, y), (z)).  `param` is the numeric parameter of parameterized
    atoms (only `big` uses it).
    """

    name: str
    groups: tuple[tuple[str, ...], ...]
    param: int | None = None

    def __post_init__(self) -> None:
        for g in self.groups:
            for v in g:
                if not isinstance(v, str):
                    raise SyntaxViolation("dependency atom arguments must be variable names")
        if self.param is not None and self.param < 1:
            raise SyntaxViolation("atom parameter must be >= 1")

    @property
    def args(self) -> tuple[str, ...]:
        return tuple(v for g in self.groups for v in g)


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Exists(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Forall(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class Possibly(Formula):
    body: Formula


@dataclass(frozen=True)
class RestrictedBy(Formula):
    """`body` evaluated on the subteam where the first-order `guard` holds."""

    body: Formula
    guard: Formula

    def __post_init__(self) -> None:
        if not is_first_order(self.guard):
            raise SyntaxViolation("restriction guard must be first-order")


def ands(parts: Iterable[Formula]) -> Formula:
    """Left fold a conjunction; empty yields T."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else And(out, p)
    return TRUE if out is None else out


def ors(parts: Iterable[Formula]) -> Formula:
    """Left fold a disjunction; empty yields F."""
    out: Formula | None = None
    for p in parts:
        out = p if out is None else Or(out, p)
    return FALSE if out is None else out


def eq_tuple(left: Iterable[Term], right: Iterable[Term]) -> Formula:
    """Componentwise equality of two equal-length tuples (T when empty)."""
    return ands(EqLit(True, a, b) for a, b in zip(tuple(left), tuple(right), strict=True))


def neq_tuple(left: Iterable[Term], right: Iterable[Term]) -> Formula:
    """Negation of tuple equality: disjunction of componentwise != (F when empty)."""
    return ors(EqLit(False, a, b) for a, b in zip(tuple(left), tuple(right), strict=True))


def exists_chain(names: Iterable[str], body: Formula) -> Formula:
    out = body
    for v in reversed(tuple(names)):
        out = Exists(v, out)
    return out


def forall_chain(names: Iterable[str], body: Formula) -> Formula:
    out = body
    for v in reversed(tuple(names)):
        out = Forall(v, out)
    return out


# ---------------------------------------------------------------------------
# Walks and simple queries


def subformulas(phi: Formula) -> Iterator[Formula]:
    yield phi
    if isinstance(phi, (Or, And)):
        yield from subformulas(phi.left)
        yield from subformulas(phi.right)
    elif isinstance(phi, (Exists, Forall)):
        yield from subformulas(phi.body)
    elif isinstance(phi, Possibly):
        yield from subformulas(phi.body)
    elif isinstance(phi, RestrictedBy):
        yield from subformulas(phi.body)
        yield from subformulas(phi.guard)


def map_formula(phi: Formula, fn: Callable[[Formula], Formula]) -> Formula:
    """Rebuild `phi` bottom-up and left to right, handing every node to
    `fn` once its parts are rebuilt; `fn`'s result takes the node's place.
    Rewrites that draw fresh names from `fn` draw them in that order."""
    if isinstance(phi, (Or, And)):
        phi = type(phi)(map_formula(phi.left, fn), map_formula(phi.right, fn))
    elif isinstance(phi, (Exists, Forall)):
        phi = type(phi)(phi.var, map_formula(phi.body, fn))
    elif isinstance(phi, Possibly):
        phi = Possibly(map_formula(phi.body, fn))
    elif isinstance(phi, RestrictedBy):
        phi = RestrictedBy(map_formula(phi.body, fn), map_formula(phi.guard, fn))
    return fn(phi)


def count_nodes(phi: Formula) -> int:
    return sum(1 for _ in subformulas(phi))


def free_variables(phi: Formula) -> frozenset[str]:
    """Free variables; all arguments of a dependency atom count as free."""
    if isinstance(phi, BoolLit):
        return frozenset()
    if isinstance(phi, RelLit):
        return frozenset(t.name for t in phi.args if isinstance(t, Var))
    if isinstance(phi, EqLit):
        return frozenset(t.name for t in (phi.left, phi.right) if isinstance(t, Var))
    if isinstance(phi, DepAtom):
        return frozenset(phi.args)
    if isinstance(phi, (Or, And)):
        return free_variables(phi.left) | free_variables(phi.right)
    if isinstance(phi, (Exists, Forall)):
        return free_variables(phi.body) - {phi.var}
    if isinstance(phi, Possibly):
        return free_variables(phi.body)
    if isinstance(phi, RestrictedBy):
        return free_variables(phi.body) | free_variables(phi.guard)
    raise SyntaxViolation(f"unknown node {phi!r}")


def all_variable_names(phi: Formula) -> frozenset[str]:
    """Every variable name occurring anywhere, bound or free (for freshness)."""
    names: set[str] = set()
    for node in subformulas(phi):
        if isinstance(node, RelLit):
            names.update(t.name for t in node.args if isinstance(t, Var))
        elif isinstance(node, EqLit):
            names.update(t.name for t in (node.left, node.right) if isinstance(t, Var))
        elif isinstance(node, DepAtom):
            names.update(node.args)
        elif isinstance(node, (Exists, Forall)):
            names.add(node.var)
    return frozenset(names)


def formula_signature(phi: Formula) -> dict[str, int]:
    """Relation names with arities used by literals of `phi`."""
    sig: dict[str, int] = {}
    for node in subformulas(phi):
        if isinstance(node, RelLit):
            arity = len(node.args)
            if sig.setdefault(node.name, arity) != arity:
                raise SyntaxViolation(f"relation {node.name} used with two arities")
    return sig


def constant_names(phi: Formula) -> frozenset[str]:
    names: set[str] = set()
    for node in subformulas(phi):
        if isinstance(node, RelLit):
            names.update(t.name for t in node.args if isinstance(t, Const))
        elif isinstance(node, EqLit):
            names.update(t.name for t in (node.left, node.right) if isinstance(t, Const))
    return frozenset(names)


def is_first_order(phi: Formula) -> bool:
    """True when no dependency atom, possibility, or restriction occurs."""
    return not any(
        isinstance(node, (DepAtom, Possibly, RestrictedBy)) for node in subformulas(phi)
    )


def is_clean(phi: Formula) -> bool:
    """A formula is clean when every disjunction and every existential
    subformula is first-order, with restriction nodes (over clean bodies)
    as the only sanctioned non-first-order disjunctive shape."""
    if is_first_order(phi):
        return True
    if isinstance(phi, DepAtom):
        return True
    if isinstance(phi, And):
        return is_clean(phi.left) and is_clean(phi.right)
    if isinstance(phi, Forall):
        return is_clean(phi.body)
    if isinstance(phi, RestrictedBy):
        return is_clean(phi.body)
    # non-first-order Or, Exists, Possibly, literals are covered above
    return False


# ---------------------------------------------------------------------------
# Fresh names


RESERVED_PREFIX = "_"


class FreshNames:
    """Deterministic fresh-variable source over the reserved `_v` namespace.

    Never returns a name in `used`; every produced name is recorded.
    """

    def __init__(self, used: Iterable[str] = (), prefix: str = "_v"):
        self._used = set(used)
        self._prefix = prefix
        self._counter = 0
        self.produced: list[str] = []

    def fresh(self) -> str:
        while True:
            name = f"{self._prefix}{self._counter}"
            self._counter += 1
            if name not in self._used:
                self._used.add(name)
                self.produced.append(name)
                return name

    def fresh_many(self, k: int) -> tuple[str, ...]:
        return tuple(self.fresh() for _ in range(k))

    def reserve(self, names: Iterable[str]) -> None:
        self._used.update(names)


# ---------------------------------------------------------------------------
# Negation (first-order only), flattening, restriction


def negate_fo(phi: Formula) -> Formula:
    """Dualize a first-order formula, keeping negation normal form."""
    if isinstance(phi, BoolLit):
        return BoolLit(not phi.value)
    if isinstance(phi, RelLit):
        return RelLit(phi.name, not phi.positive, phi.args)
    if isinstance(phi, EqLit):
        return EqLit(not phi.positive, phi.left, phi.right)
    if isinstance(phi, Or):
        return And(negate_fo(phi.left), negate_fo(phi.right))
    if isinstance(phi, And):
        return Or(negate_fo(phi.left), negate_fo(phi.right))
    if isinstance(phi, Exists):
        return Forall(phi.var, negate_fo(phi.body))
    if isinstance(phi, Forall):
        return Exists(phi.var, negate_fo(phi.body))
    raise SyntaxViolation(f"cannot negate non-first-order formula: {phi}")


def flatten(phi: Formula) -> Formula:
    """The first-order flattening: dependency atoms and possibility nodes
    become T; restriction nodes flatten through their expansion."""

    def flat(node: Formula) -> Formula:
        if isinstance(node, (DepAtom, Possibly)):
            return TRUE
        if isinstance(node, RestrictedBy):
            return restrict(node.body, node.guard)
        return node

    return map_formula(phi, flat)


def restrict(phi: Formula, theta: Formula) -> Formula:
    """The explicit expansion of restriction: (!theta) \\/ (theta /\\ phi)."""
    if not is_first_order(theta):
        raise SyntaxViolation("restriction guard must be first-order")
    return Or(negate_fo(theta), And(theta, phi))


def desugar_possibility(phi: Formula, fresh: FreshNames | None = None) -> Formula:
    """Replace every possibility node, innermost first, by its definable
    expansion with two fresh constant witnesses and a fresh selector."""
    if fresh is None:
        fresh = FreshNames(all_variable_names(phi))

    def expand(node: Formula) -> Formula:
        if not isinstance(node, Possibly):
            return node
        u0, u1, v = fresh.fresh(), fresh.fresh(), fresh.fresh()
        inner = ands(
            [
                DepAtom("const", ((u0,),)),
                DepAtom("const", ((u1,),)),
                Or(EqLit(True, Var(v), Var(u0)), EqLit(True, Var(v), Var(u1))),
                RestrictedBy(node.body, EqLit(True, Var(v), Var(u1))),
                DepAtom("inconst", ((v,),)),
            ]
        )
        return exists_chain((u0, u1, v), inner)

    return map_formula(phi, expand)


# ---------------------------------------------------------------------------
# Local simplification (semantics-preserving)


def simplify(phi: Formula) -> Formula:
    """Cheap bottom-up cleanup of first-order formulas (the translator's
    optional output pass and the first-order engine's rewrite): boolean
    units, trivial equalities between identical terms, and quantifiers
    over dead or constant bodies.  Sound on models with nonempty domains."""
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
# Capture-avoiding substitution


def _captures(binder: str, mapping: Mapping[str, Term]) -> bool:
    return any(isinstance(t, Var) and t.name == binder for t in mapping.values())


def substitute_vars(
    phi: Formula,
    mapping: Mapping[str, Term],
    fresh: FreshNames,
    clash: Callable[[str, Mapping[str, Term]], bool] | None = None,
    literal: Callable[[RelLit], Formula] | None = None,
) -> Formula:
    """Simultaneous substitution of free variable occurrences.

    A binder is renamed to a fresh name when `clash(binder, mapping below
    it)` holds; by default, when it would capture a substituted variable.
    `literal`, when given, replaces each relation literal once its
    arguments are substituted.  Fresh names are drawn in pre-order, left
    to right."""
    # Under the default rule nothing below an empty mapping changes.
    lazy = clash is None and literal is None
    clash = clash or _captures

    def term(t: Term, m: Mapping[str, Term]) -> Term:
        return m.get(t.name, t) if isinstance(t, Var) else t

    def atom_var(v: str, m: Mapping[str, Term]) -> str:
        t = m.get(v, Var(v))
        if not isinstance(t, Var):
            raise SyntaxViolation("cannot substitute a constant into a dependency atom")
        return t.name

    def walk(node: Formula, m: dict[str, Term]) -> Formula:
        if lazy and not m:
            return node
        if isinstance(node, BoolLit):
            return node
        if isinstance(node, RelLit):
            lit = RelLit(node.name, node.positive, tuple(term(t, m) for t in node.args))
            return lit if literal is None else literal(lit)
        if isinstance(node, EqLit):
            return EqLit(node.positive, term(node.left, m), term(node.right, m))
        if isinstance(node, DepAtom):
            groups = tuple(tuple(atom_var(v, m) for v in g) for g in node.groups)
            return DepAtom(node.name, groups, node.param)
        if isinstance(node, (Or, And)):
            return type(node)(walk(node.left, m), walk(node.right, m))
        if isinstance(node, (Exists, Forall)):
            below = {k: v for k, v in m.items() if k != node.var}
            var = node.var
            if clash(var, below):
                var = fresh.fresh()
                below[node.var] = Var(var)
            return type(node)(var, walk(node.body, below))
        if isinstance(node, Possibly):
            return Possibly(walk(node.body, m))
        if isinstance(node, RestrictedBy):
            return RestrictedBy(walk(node.body, m), walk(node.guard, m))
        raise SyntaxViolation(f"unknown node {node!r}")

    return walk(phi, dict(mapping))


# ---------------------------------------------------------------------------
# Concrete grammar
#
#   formula  := 'E' IDENT '.' formula | 'A' IDENT '.' formula | disj
#   disj     := conj ('\/' conj)*
#   conj     := atomic ('/\' atomic)*
#   atomic   := '(' formula ')' | 'T' | 'F' | 'NE'
#             | 'poss' '(' formula ')'
#             | 'restrict' '(' formula ';' formula ')'
#             | ATOM '(' [NUM ';'] group (';' group)* ['|' group] ')'
#             | ['!'] IDENT '(' terms? ')'
#             | term '=' term | term '!=' term
#
# Quantifier bodies extend as far right as possible.  `\/` binds loosest,
# then `/\`.  Identifiers are [A-Za-z_][A-Za-z0-9_]*; E, A, T, F, NE,
# poss, restrict and the atom names are reserved.

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<or>\\/)
  | (?P<and>/\\)
  | (?P<neq>!=)
  | (?P<bang>!)
  | (?P<lpar>\()
  | (?P<rpar>\))
  | (?P<comma>,)
  | (?P<semi>;)
  | (?P<bar>\|)
  | (?P<dot>\.)
  | (?P<eq>=)
  | (?P<num>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"E", "A", "T", "F", "poss", "restrict"}


@dataclass
class _Token:
    kind: str
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    out = []
    i = 0
    while i < len(text):
        m = _TOKEN_RE.match(text, i)
        if m is None:
            raise ParseError(f"unexpected character {text[i]!r}", i)
        kind = m.lastgroup
        assert kind is not None
        if kind != "ws":
            out.append(_Token(kind, m.group(), i))
        i = m.end()
    out.append(_Token("eof", "", len(text)))
    return out


class _Parser:
    def __init__(self, text: str, constants: frozenset[str], atom_names: frozenset[str]):
        self.tokens = _tokenize(text)
        self.i = 0
        self.constants = constants
        self.atom_names = atom_names

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.next()
        if tok.kind != kind:
            raise ParseError(f"expected {kind!r}, found {tok.text!r}", tok.pos)
        return tok

    def parse(self) -> Formula:
        phi = self.formula()
        tok = self.peek()
        if tok.kind != "eof":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return phi

    def formula(self) -> Formula:
        tok = self.peek()
        if tok.kind == "ident" and tok.text in ("E", "A"):
            self.next()
            var = self.variable()
            self.expect("dot")
            body = self.formula()
            return Exists(var, body) if tok.text == "E" else Forall(var, body)
        return self.disj()

    def disj(self) -> Formula:
        phi = self.conj()
        while self.peek().kind == "or":
            self.next()
            phi = Or(phi, self.conj())
        return phi

    def conj(self) -> Formula:
        phi = self.atomic()
        while self.peek().kind == "and":
            self.next()
            phi = And(phi, self.atomic())
        return phi

    def atomic(self) -> Formula:
        tok = self.peek()
        if tok.kind == "lpar":
            self.next()
            phi = self.formula()
            self.expect("rpar")
            return phi
        if tok.kind == "bang":
            self.next()
            name = self.expect("ident")
            if name.text in self.atom_names or name.text in _KEYWORDS:
                raise ParseError(f"cannot negate {name.text!r}", name.pos)
            self.expect("lpar")
            args = self.term_list()
            self.expect("rpar")
            return RelLit(name.text, False, args)
        if tok.kind != "ident":
            raise ParseError(f"unexpected token {tok.text!r}", tok.pos)

        if tok.text == "T":
            self.next()
            return TRUE
        if tok.text == "F":
            self.next()
            return FALSE
        if tok.text == "NE":
            self.next()
            return DepAtom("NE", ())
        if tok.text == "poss":
            self.next()
            self.expect("lpar")
            body = self.formula()
            self.expect("rpar")
            return Possibly(body)
        if tok.text == "restrict":
            self.next()
            self.expect("lpar")
            body = self.formula()
            self.expect("semi")
            guard = self.formula()
            rp = self.expect("rpar")
            if not is_first_order(guard):
                raise ParseError("restriction guard must be first-order", rp.pos)
            return RestrictedBy(body, guard)
        if tok.text in self.atom_names:
            return self.dep_atom()
        # plain relation literal or equality
        self.next()
        if self.peek().kind == "lpar":
            self.next()
            args = self.term_list()
            self.expect("rpar")
            return RelLit(tok.text, True, args)
        left = self.classify(tok)
        nxt = self.next()
        if nxt.kind == "eq":
            return EqLit(True, left, self.term())
        if nxt.kind == "neq":
            return EqLit(False, left, self.term())
        raise ParseError(f"expected '=', '!=', or '(' after {tok.text!r}", nxt.pos)

    def dep_atom(self) -> Formula:
        """The bar comes only before a third group; the atom table (for a
        built-in) judges the shape, and a custom atom takes one group."""
        from .atoms import DEFAULT_REGISTRY, AtomError  # local: atoms imports this module

        tok = self.next()
        self.expect("lpar")
        param: int | None = None
        if self.peek().kind == "num":
            param = int(self.next().text)
            self.expect("semi")
        groups = [self.var_group()]
        while self.peek().kind in ("semi", "bar"):
            sep = self.next()
            want = "bar" if len(groups) == 2 else "semi"
            if sep.kind != want:
                raise ParseError(f"expected {want!r}, found {sep.text!r}", sep.pos)
            groups.append(self.var_group())
        self.expect("rpar")
        try:
            atom = DepAtom(tok.text, tuple(groups), param)
            if DEFAULT_REGISTRY.is_builtin(tok.text):
                DEFAULT_REGISTRY.resolve_atom(atom)
            elif len(groups) != 1 or param is not None:
                raise SyntaxViolation(f"custom atom {tok.text} takes one group and no parameter")
        except (AtomError, SyntaxViolation) as err:
            raise ParseError(str(err), tok.pos) from None
        return atom

    def var_group(self) -> tuple[str, ...]:
        out = [self.variable()]
        while self.peek().kind == "comma":
            self.next()
            out.append(self.variable())
        return tuple(out)

    def variable(self) -> str:
        tok = self.expect("ident")
        if tok.text in _KEYWORDS or tok.text in self.atom_names:
            raise ParseError(f"{tok.text!r} is reserved", tok.pos)
        if tok.text in self.constants:
            raise ParseError(
                f"{tok.text!r} is a declared constant; atom and quantifier "
                "positions take variables",
                tok.pos,
            )
        return tok.text

    def term(self) -> Term:
        tok = self.expect("ident")
        if tok.text in _KEYWORDS or tok.text in self.atom_names:
            raise ParseError(f"{tok.text!r} is reserved", tok.pos)
        return self.classify(tok)

    def classify(self, tok: _Token) -> Term:
        return Const(tok.text) if tok.text in self.constants else Var(tok.text)

    def term_list(self) -> tuple[Term, ...]:
        if self.peek().kind == "rpar":
            return ()
        out = [self.term()]
        while self.peek().kind == "comma":
            self.next()
            out.append(self.term())
        return tuple(out)


def parse(
    text: str,
    constants: Iterable[str] = (),
    atom_names: Iterable[str] | None = None,
) -> Formula:
    """Parse a formula.  `constants` are the model-declared constant names;
    `atom_names` extends the built-in atom vocabulary (for custom atoms)."""
    from .atoms import BUILTIN_ATOM_NAMES  # local: atoms imports this module

    names = frozenset(BUILTIN_ATOM_NAMES if atom_names is None else atom_names)
    return _Parser(text, frozenset(constants), names).parse()


# ---------------------------------------------------------------------------
# Pretty printer (parse(pretty(phi)) round trips)

_PREC_QUANT = 0
_PREC_OR = 1
_PREC_AND = 2


def pretty(phi: Formula) -> str:
    return _pp(phi, _PREC_QUANT)


def _pp(phi: Formula, ctx: int) -> str:
    if isinstance(phi, BoolLit):
        return "T" if phi.value else "F"
    if isinstance(phi, RelLit):
        sign = "" if phi.positive else "!"
        return f"{sign}{phi.name}({', '.join(str(t) for t in phi.args)})"
    if isinstance(phi, EqLit):
        op = "=" if phi.positive else "!="
        return f"{phi.left} {op} {phi.right}"
    if isinstance(phi, DepAtom):
        return _pp_atom(phi)
    if isinstance(phi, Or):
        s = f"{_pp(phi.left, _PREC_OR)} \\/ {_pp(phi.right, _PREC_OR + 1)}"
        return f"({s})" if ctx > _PREC_OR else s
    if isinstance(phi, And):
        s = f"{_pp(phi.left, _PREC_AND)} /\\ {_pp(phi.right, _PREC_AND + 1)}"
        return f"({s})" if ctx > _PREC_AND else s
    if isinstance(phi, (Exists, Forall)):
        q = "E" if isinstance(phi, Exists) else "A"
        s = f"{q} {phi.var}. {_pp(phi.body, _PREC_QUANT)}"
        return f"({s})" if ctx > _PREC_QUANT else s
    if isinstance(phi, Possibly):
        return f"poss({_pp(phi.body, _PREC_QUANT)})"
    if isinstance(phi, RestrictedBy):
        return f"restrict({_pp(phi.body, _PREC_QUANT)} ; {_pp(phi.guard, _PREC_QUANT)})"
    raise SyntaxViolation(f"unknown node {phi!r}")


def _pp_atom(atom: DepAtom) -> str:
    if atom.name == "NE":
        return "NE"
    rendered = [", ".join(g) for g in atom.groups]
    if len(rendered) == 3:
        inner = f"{rendered[0]}; {rendered[1]} | {rendered[2]}"
    else:
        inner = "; ".join(rendered)
    if atom.param is not None:
        inner = f"{atom.param}; {inner}"
    return f"{atom.name}({inner})"
