"""Command-line entry point: parse, evaluate, translate, check, analyze,
and atom management, wired to explicit file paths and flags.

Exit codes are a stable contract: 0 for success or a passing check, 1 for
a semantic counterexample (a failed equivalence sweep, a refuted closure
or bound declaration, a breached invariant), 2 for usage, parse, or input
errors.  All output is deterministic given identical inputs and flags;
reports are JSON lines as produced by the sweep harness.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Sequence

from .analysis import AnalysisError, InvariantBreach, analyze
from .atoms import (
    AtomError,
    AtomRegistry,
    Counterexample,
    DEFAULT_REGISTRY,
    RegistrationError,
    check_boundedness,
    check_downwards_closed,
    check_upwards_closed,
)
from .evaluator import EvalError, Evaluator, MODES
from .harness import (
    DEFAULT_COST_BUDGET,
    GridConfig,
    HarnessError,
    check_formula_equivalence,
    check_translation_equivalence,
    eval_cost_estimate,
    grid_from_env,
    run_suite,
)
from .model import SINGLETON_EMPTY_TEAM, Model, ModelError, Team
from .syntax import (
    And,
    BoolLit,
    Const,
    DepAtom,
    EqLit,
    Exists,
    Forall,
    Formula,
    Or,
    ParseError,
    Possibly,
    RelLit,
    RestrictedBy,
    SyntaxViolation,
    Var,
    formula_signature,
    free_variables,
    is_clean,
    is_first_order,
    parse,
    pretty,
)
from .translator import TranslationError, translate


def _emit(data: dict) -> None:
    print(json.dumps(data, sort_keys=True))


def _load_text(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _load_model(path: str) -> Model:
    return Model.from_json(_load_text(path))


def _load_team(path: str) -> Team:
    return Team.from_json(_load_text(path))


def _registry_from_files(paths: Sequence[str] | None) -> AtomRegistry:
    """A per-process registry with the given atom files applied; custom
    atoms never persist beyond the run."""
    if not paths:
        return DEFAULT_REGISTRY
    registry = AtomRegistry()
    for path in paths:
        _register_file(registry, path)
    return registry


def _register_file(registry: AtomRegistry, path: str) -> None:
    spec = json.loads(_load_text(path))
    if not isinstance(spec, dict):
        raise AtomError(f"{path}: atom files hold one JSON object")
    try:
        name = spec["name"]
        arity = spec["arity"]
        definition_text = spec["definition"]
        upwards = spec["upwards_closed"]
    except KeyError as missing:
        raise AtomError(f"{path}: missing atom field {missing}") from None
    if not (isinstance(name, str) and isinstance(definition_text, str) and type(arity) is int):
        raise AtomError(f"{path}: 'name' and 'definition' must be strings, 'arity' an integer")
    flags = {
        "upwards_closed": upwards,
        "downwards_closed": spec.get("downwards_closed", False),
        "check": spec.get("check", True),
    }
    for flag, value in flags.items():
        if type(value) is not bool:
            raise AtomError(f"{path}: '{flag}' must be true or false, got {json.dumps(value)}")
    definition = parse(definition_text)
    registry.register_custom(name, arity, definition, bound=spec.get("bound"), **flags)


def _parse_formula(text: str, registry: AtomRegistry, model: Model | None = None) -> Formula:
    constants = tuple(sorted(model.constants)) if model is not None else ()
    return parse(text, constants=constants, atom_names=registry.known_names())


def _grid(args: argparse.Namespace) -> GridConfig:
    if getattr(args, "grid", None):
        return GridConfig.parse(args.grid)
    return grid_from_env()


_AST_TAGS = {
    BoolLit: "bool",
    RelLit: "relation",
    EqLit: "equality",
    DepAtom: "atom",
    Or: "or",
    And: "and",
    Exists: "exists",
    Forall: "forall",
    Possibly: "possibly",
    RestrictedBy: "restricted",
}


def _ast_dict(value):
    """A formula as JSON data: each node's fields plus its tag under "node"."""
    if isinstance(value, (Var, Const)):
        return {"var" if isinstance(value, Var) else "const": value.name}
    if isinstance(value, tuple):
        return [_ast_dict(v) for v in value]
    if isinstance(value, Formula):
        out = {f.name: _ast_dict(getattr(value, f.name)) for f in dataclasses.fields(value)}
        out["node"] = _AST_TAGS[type(value)]
        return out
    return value


# ---------------------------------------------------------------------------
# Subcommands

def cmd_parse(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    phi = _parse_formula(args.formula, registry)
    info = {
        "pretty": pretty(phi),
        "free_variables": sorted(free_variables(phi)),
        "first_order": is_first_order(phi),
        "clean": is_clean(phi),
        "signature": formula_signature(phi),
    }
    if args.json:
        _emit(dict(info, ast=_ast_dict(phi)))
        return 0
    print(info["pretty"])
    print(f"free variables: {', '.join(info['free_variables']) or '(none)'}")
    print(f"first-order: {'yes' if info['first_order'] else 'no'}")
    print(f"clean: {'yes' if info['clean'] else 'no'}")
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    model = _load_model(args.model)
    phi = _parse_formula(args.formula, registry, model)
    evaluator = Evaluator(model, registry=registry, mode=args.mode)
    if args.sentence:
        if free_variables(phi):
            raise EvalError(
                f"--sentence needs a sentence; free variables: {sorted(free_variables(phi))}"
            )
        team = SINGLETON_EMPTY_TEAM
    else:
        if args.team is None:
            raise EvalError("provide a --team file or pass --sentence")
        team = _load_team(args.team)
    verdict, stats = evaluator.evaluate_with_stats(phi, team)
    out: dict = {"verdict": verdict}
    if args.stats:
        out["stats"] = stats
    if args.witness:
        out["witness"] = evaluator.witness(phi, team)
    if args.json:
        _emit(out)
    else:
        print("true" if verdict else "false")
        if args.stats:
            print(json.dumps(stats, sort_keys=True))
        if args.witness:
            print(json.dumps(out["witness"], sort_keys=True))
    return 0


def cmd_translate(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    phi = _parse_formula(args.formula, registry)
    if args.vars is not None:
        tuple_vars = tuple(v for v in args.vars.split(",") if v)
    else:
        tuple_vars = tuple(sorted(free_variables(phi)))
    result = translate(phi, tuple_vars, registry, simplify_output=args.simplify)
    if args.verify:
        grid = _grid(args)
        _within_budget([phi], grid, args.mode, "verifying", "verify")
        report = check_translation_equivalence(
            phi,
            tuple_vars,
            grid=grid,
            registry=registry,
            mode=args.mode,
            jobs=args.jobs,
            sentence=result.sentence,
            relation=result.relation,
        )
        if not report.ok:
            for line in report.json_lines():
                print(line)
            return 1
    payload = {
        "sentence": pretty(result.sentence),
        "relation": result.relation,
        "tuple": list(result.tuple_vars),
        "prefix_vars": list(result.prefix_vars),
        "atoms_used": list(result.atoms_used),
        "verified_atoms": result.verified,
        "clean_formula": pretty(result.clean_formula),
    }
    if args.json:
        _emit(payload)
        return 0
    print(payload["sentence"])
    print(f"relation: {payload['relation']}")
    print(f"tuple: {', '.join(payload['tuple']) or '(empty)'}")
    print(f"atoms used: {', '.join(payload['atoms_used']) or '(none)'}")
    return 0


def _within_budget(formulas: list[Formula], grid: GridConfig, mode: str, doing: str, do: str) -> None:
    """Refuse, as a usage error, a sweep outside fast mode that some grid
    domain would take over `DEFAULT_COST_BUDGET` steps to evaluate: the
    sweep's own budget gate would leave those points undecided, and with
    no budget it could run for hours."""
    if mode == "fast":
        return
    worst = max(eval_cost_estimate(phi, d, grid.max_rows, mode) for phi in formulas for d in grid.doms)
    if worst > DEFAULT_COST_BUDGET:
        raise HarnessError(
            f"{doing} in {mode} mode would cost an estimated {worst:.3g} steps, over the "
            f"budget of {DEFAULT_COST_BUDGET:.3g}; {do} in fast mode or on a smaller grid"
        )


def _resolve_for_check(args: argparse.Namespace, registry: AtomRegistry):
    definition = registry.unit(args.atom, args.param)
    if args.widths:
        widths = tuple(int(w) for w in args.widths.split(","))
        definition = registry.resolve(args.atom, widths, definition.param)
    return definition


def _counterexample_dict(ce: Counterexample) -> dict:
    data = {
        "model": json.loads(ce.model.to_json()),
        "relation": sorted(list(t) for t in ce.relation),
    }
    if ce.superset is not None:
        data["superset"] = sorted(list(t) for t in ce.superset)
    return data


def cmd_check_closure(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    definition = _resolve_for_check(args, registry)
    directions = (
        [args.direction]
        if args.direction
        else ["up", "down"]
    )
    failures = []
    results = {}
    for direction in directions:
        checker = check_upwards_closed if direction == "up" else check_downwards_closed
        declared = (
            definition.upwards_closed if direction == "up" else definition.downwards_closed
        )
        ce = checker(definition)
        observed_closed = ce is None
        entry: dict = {"declared": declared, "counterexample_found": not observed_closed}
        if ce is not None:
            entry["counterexample"] = _counterexample_dict(ce)
        if args.direction:
            # direct question: is the atom closed this way?
            if not observed_closed:
                failures.append((direction, ce))
        elif declared and not observed_closed:
            # declaration refuted by evidence
            failures.append((direction, ce))
        results[direction] = entry
    _emit({"atom": args.atom, "directions": results, "ok": not failures})
    return 1 if failures else 0


def cmd_check_bound(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    definition = _resolve_for_check(args, registry)
    ce = check_boundedness(definition, args.kappa)
    out: dict = {"atom": args.atom, "kappa": args.kappa, "ok": ce is None}
    if ce is not None:
        out["counterexample"] = _counterexample_dict(ce)
    _emit(out)
    return 0 if ce is None else 1


def cmd_check_equiv(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    phi = _parse_formula(args.left, registry)
    psi = _parse_formula(args.right, registry)
    grid = _grid(args)
    _within_budget([phi, psi], grid, args.mode, "checking", "check")
    report = check_formula_equivalence(
        phi,
        psi,
        grid=grid,
        registry=registry,
        mode=args.mode,
        jobs=args.jobs,
        verbose=args.verbose,
    )
    for line in report.json_lines(verbose=args.verbose):
        print(line)
    return 0 if report.ok else 1


def cmd_check_theorem(args: argparse.Namespace) -> int:
    reports = run_suite(args.name, _grid(args), args.jobs, args.verbose)
    ok = True
    for report in reports:
        ok = ok and report.ok
        for line in report.json_lines(verbose=args.verbose):
            print(line)
    return 0 if ok else 1


def cmd_atoms_list(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    rows = registry.catalog()
    if args.json:
        print(json.dumps(rows, sort_keys=True))
        return 0
    for row in rows:
        bound = "none" if row["bound"] is None else str(row["bound"])
        flags = []
        if row["upwards_closed"]:
            flags.append("up")
        if row["downwards_closed"]:
            flags.append("down")
        if row["parameterized"]:
            flags.append("parameterized")
        print(
            f"{row['name']:<12} groups={row['groups']} bound={bound:<9} "
            f"{','.join(flags) or '-'}"
        )
    return 0


def cmd_atoms_register(args: argparse.Namespace) -> int:
    registry = AtomRegistry()
    _register_file(registry, args.file)
    _emit({"registered": registry.catalog()[-1]})  # the one custom row comes last
    return 0


def cmd_analyze(args: argparse.Namespace) -> int:
    registry = _registry_from_files(args.atoms)
    model = _load_model(args.model) if args.model else None
    if (args.team is None) != (model is None):
        raise AnalysisError("witness extraction needs both --model and --team")
    team = _load_team(args.team) if args.team else None
    phi = _parse_formula(args.formula, registry, model)
    _emit(analyze(phi, model=model, team=team, registry=registry))
    return 0


# ---------------------------------------------------------------------------
# Wiring

def _add_atoms_option(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--atoms",
        action="append",
        metavar="FILE",
        help="register the custom atom in FILE for this run (repeatable)",
    )


def _add_grid_options(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--grid",
        metavar="SPEC",
        help="sweep grid, e.g. 'doms=2,3;max_rows=4;max_depth=3;max_vars=2' "
        "(default: TEAMSEM_GRID or built-in)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="parallel worker processes (at least 1; capped at the CPU count)",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="teamsem",
        description="Team-semantics workbench: evaluate, translate, and check.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse a formula and describe it")
    p.add_argument("formula")
    p.add_argument("--json", action="store_true")
    _add_atoms_option(p)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("eval", help="evaluate a formula on a team")
    p.add_argument("formula")
    p.add_argument("--model", required=True, metavar="FILE")
    p.add_argument("--team", metavar="FILE")
    p.add_argument(
        "--sentence",
        action="store_true",
        help="evaluate a sentence (team of one empty assignment)",
    )
    p.add_argument("--mode", choices=MODES, default="fast")
    p.add_argument("--stats", action="store_true")
    p.add_argument("--witness", action="store_true")
    p.add_argument("--json", action="store_true")
    _add_atoms_option(p)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("translate", help="compile to a first-order sentence")
    p.add_argument("formula")
    p.add_argument("--vars", metavar="X,Y", help="team tuple (default: free variables)")
    p.add_argument("--simplify", action="store_true")
    p.add_argument("--verify", action="store_true", help="sweep-check before printing")
    p.add_argument("--mode", choices=MODES, default="fast")
    p.add_argument("--json", action="store_true")
    _add_grid_options(p)
    _add_atoms_option(p)
    p.set_defaults(func=cmd_translate)

    p = sub.add_parser("check", help="run a checker")
    check_sub = p.add_subparsers(dest="check_command", required=True)

    c = check_sub.add_parser("closure", help="brute-force closure properties of an atom")
    c.add_argument("atom")
    c.add_argument("--direction", choices=("up", "down"))
    c.add_argument("--widths", metavar="W,W", help="argument group widths (default 1 each)")
    c.add_argument("--param", type=int)
    _add_atoms_option(c)
    c.set_defaults(func=cmd_check_closure)

    c = check_sub.add_parser("bound", help="brute-force a boundedness claim")
    c.add_argument("atom")
    c.add_argument("kappa", type=int)
    c.add_argument("--widths", metavar="W,W")
    c.add_argument("--param", type=int)
    _add_atoms_option(c)
    c.set_defaults(func=cmd_check_bound)

    c = check_sub.add_parser("equiv", help="exhaustive equivalence of two formulas")
    c.add_argument("left")
    c.add_argument("right")
    c.add_argument("--mode", choices=MODES, default="fast")
    c.add_argument("--verbose", action="store_true")
    _add_grid_options(c)
    _add_atoms_option(c)
    c.set_defaults(func=cmd_check_equiv)

    c = check_sub.add_parser("theorem", help="run a named invariant suite")
    c.add_argument("name")
    c.add_argument("--verbose", action="store_true")
    _add_grid_options(c)
    c.set_defaults(func=cmd_check_theorem)

    p = sub.add_parser("atoms", help="atom catalog and registration")
    atoms_sub = p.add_subparsers(dest="atoms_command", required=True)

    a = atoms_sub.add_parser("list", help="list known atoms")
    a.add_argument("--json", action="store_true")
    _add_atoms_option(a)
    a.set_defaults(func=cmd_atoms_list)

    a = atoms_sub.add_parser("register", help="verify and register a custom atom")
    a.add_argument("file")
    a.set_defaults(func=cmd_atoms_register)

    p = sub.add_parser("analyze", help="height, boundedness, and witness report")
    p.add_argument("formula")
    p.add_argument("--model", metavar="FILE")
    p.add_argument("--team", metavar="FILE")
    p.add_argument("--json", action="store_true", help="(reports are always JSON)")
    _add_atoms_option(p)
    p.set_defaults(func=cmd_analyze)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except InvariantBreach as err:
        print(f"invariant breached: {err}", file=sys.stderr)
        return 1
    except RegistrationError as err:
        print(f"registration rejected: {err}", file=sys.stderr)
        return 1 if err.counterexample is not None else 2
    except (
        ParseError,
        SyntaxViolation,
        AtomError,
        TranslationError,
        EvalError,
        AnalysisError,
        HarnessError,
        ModelError,
    ) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, KeyError, ValueError) as err:
        print(f"input error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: the formula nests too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
