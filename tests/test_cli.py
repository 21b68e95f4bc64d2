"""End-to-end command-line tests, run in process via cli.main."""

import json
import os
import pathlib
import subprocess
import sys
import time

import pytest

import teamsem
from teamsem import Model, Relation, Team, parse
from teamsem.analysis import InvariantBreach
from teamsem.cli import _ast_dict, main
from teamsem.harness import DEFAULT_COST_BUDGET, SWEEPS, eval_cost_estimate
from teamsem.model import cover_parts

MICRO_GRID = "doms=2;max_rows=2"


@pytest.fixture
def model_file(tmp_path):
    m = Model(("a", "b"), {"P": Relation(1, frozenset({("a",)}))}, {})
    path = tmp_path / "m.json"
    path.write_text(m.to_json())
    return str(path)


@pytest.fixture
def team_file(tmp_path):
    X = Team(("x",), frozenset({("a",), ("b",)}))
    path = tmp_path / "t.json"
    path.write_text(X.to_json())
    return str(path)


def atom_file(tmp_path, name, spec):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(spec))
    return str(path)


# --- parse ------------------------------------------------------------------


def test_parse_plain(capsys):
    assert main(["parse", "dep(x; y) /\\ NE"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "dep(x; y) /\\ NE"
    assert out[1] == "free variables: x, y"
    assert out[2] == "first-order: no"


def test_parse_json_ast(capsys):
    assert main(["parse", "E x. P(x)", "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["free_variables"] == []
    assert info["first_order"] is True
    assert info["ast"]["node"] == "exists"
    assert info["ast"]["body"]["node"] == "relation"


# Every node kind, both literal signs, a parameterized and a three-group atom.
_EVERY_NODE = (
    "A x. E y. (P(x, y) \\/ !Q(x)) /\\ x = y /\\ x != z /\\ T /\\ (F \\/ NE) "
    "/\\ poss(dep(x; y)) /\\ restrict(big(3; x, y) ; P(x, z)) /\\ cindep(x; y | z)"
)
_EVERY_NODE_JSON = (
    '{"ast": {"body": {"body": {"left": {"left": {"left": {"left": {"left": {'
    '"left": {"left": {"left": {"args": [{"var": "x"}, {"var": "y"}], '
    '"name": "P", "node": "relation", "positive": true}, "node": "or", '
    '"right": {"args": [{"var": "x"}], "name": "Q", "node": "relation", '
    '"positive": false}}, "node": "and", "right": {"left": {"var": "x"}, '
    '"node": "equality", "positive": true, "right": {"var": "y"}}}, '
    '"node": "and", "right": {"left": {"var": "x"}, "node": "equality", '
    '"positive": false, "right": {"var": "z"}}}, "node": "and", '
    '"right": {"node": "bool", "value": true}}, "node": "and", '
    '"right": {"left": {"node": "bool", "value": false}, "node": "or", '
    '"right": {"groups": [], "name": "NE", "node": "atom", "param": null}}}, '
    '"node": "and", "right": {"body": {"groups": [["x"], ["y"]], '
    '"name": "dep", "node": "atom", "param": null}, "node": "possibly"}}, '
    '"node": "and", "right": {"body": {"groups": [["x", "y"]], '
    '"name": "big", "node": "atom", "param": 3}, '
    '"guard": {"args": [{"var": "x"}, {"var": "z"}], "name": "P", '
    '"node": "relation", "positive": true}, "node": "restricted"}}, '
    '"node": "and", "right": {"groups": [["x"], ["y"], ["z"]], '
    '"name": "cindep", "node": "atom", "param": null}}, "node": "exists", '
    '"var": "y"}, "node": "forall", "var": "x"}, "clean": false, '
    '"first_order": false, "free_variables": ["z"], '
    '"pretty": "A x. E y. (P(x, y) \\\\/ !Q(x)) /\\\\ x = y /\\\\ x != z /\\\\ T '
    '/\\\\ (F \\\\/ NE) /\\\\ poss(dep(x; y)) /\\\\ restrict(big(3; x, y) ; P(x, z)) '
    '/\\\\ cindep(x; y | z)", '
    '"signature": {"P": 2, "Q": 1}}\n'
)


def test_parse_json_bytes(capsys):
    assert main(["parse", _EVERY_NODE, "--json"]) == 0
    assert capsys.readouterr().out == _EVERY_NODE_JSON


def test_ast_dict_constants():
    # The parse command reads no model, so constants reach the AST only
    # through `parse(..., constants=...)`.
    phi = parse("E y. R(c, y) /\\ c != y /\\ const(y)", constants=("c",))
    assert json.dumps(_ast_dict(phi), sort_keys=True) == (
        '{"body": {"left": {"left": {"args": [{"const": "c"}, {"var": "y"}], '
        '"name": "R", "node": "relation", "positive": true}, "node": "and", '
        '"right": {"left": {"const": "c"}, "node": "equality", '
        '"positive": false, "right": {"var": "y"}}}, "node": "and", '
        '"right": {"groups": [["y"]], "name": "const", "node": "atom", '
        '"param": null}}, "node": "exists", "var": "y"}'
    )


def test_parse_error_exit_code(capsys):
    assert main(["parse", "(("]) == 2
    assert "error:" in capsys.readouterr().err


def test_parse_too_deeply_nested_is_an_error_not_a_crash(capsys):
    # past about 245 levels the parser's recursion would overflow the stack
    assert main(["parse", "(" * 246 + "P(x)" + ")" * 246]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "nests deeper" in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["parse", "translate", "analyze"])
def test_a_chain_too_deep_for_the_stack_is_an_error_not_a_crash(command, capsys):
    # the parser takes the chain in a loop, but the walks after it recurse
    assert main([command, " /\\ ".join(["NE"] * 1200)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error: the formula nests too deeply\n"


def test_a_usage_error_exits_2(capsys):
    assert main(["eval"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: teamsem eval") and "required: formula, --model" in err


# --- eval -------------------------------------------------------------------


def test_eval_team_file(capsys, model_file, team_file):
    assert main(["eval", "P(x)", "--model", model_file, "--team", team_file]) == 0
    assert capsys.readouterr().out.strip() == "false"


def test_eval_sentence_flag(capsys, model_file):
    assert main(["eval", "E x. P(x)", "--model", model_file, "--sentence"]) == 0
    assert capsys.readouterr().out.strip() == "true"


def test_eval_sentence_rejects_free_variables(capsys, model_file):
    assert main(["eval", "P(x)", "--model", model_file, "--sentence"]) == 2
    assert "free variables" in capsys.readouterr().err


def test_eval_requires_a_team(capsys, model_file):
    assert main(["eval", "P(x)", "--model", model_file]) == 2
    assert "--team" in capsys.readouterr().err


def test_eval_rejects_malformed_model_and_team_files(capsys, tmp_path, model_file):
    # exit 1 is kept for refuted claims; a bad input file is a usage error
    one_element = atom_file(tmp_path, "m1", {"domain": ["a"]})
    assert main(["eval", "NE", "--model", one_element, "--sentence"]) == 2
    assert capsys.readouterr().err == "error: models must have at least two elements\n"
    wide_row = atom_file(tmp_path, "t2", {"vars": ["x"], "rows": [["a", "b"]]})
    assert main(["eval", "NE", "--model", model_file, "--team", wide_row]) == 2
    assert "does not match team variables" in capsys.readouterr().err
    # files of the wrong shape are input errors too, not crashes
    bad_models = [
        ({"domain": 5}, "needs a 'domain' list"),
        ({"domain": ["a", "b"], "relations": []}, "must be objects"),
        ({"domain": ["a", "b"], "relations": {"P": {"arity": "1"}}}, "integer 'arity'"),
        ({"domain": ["a", "b"], "relations": {"P": {"arity": 1, "tuples": 5}}}, "list of lists"),
        # entries must be JSON strings or numbers, not lists, objects or booleans
        ({"domain": [["a"], {"b": 1}]}, 'domain elements must be strings or numbers, got ["a"]'),
        ({"domain": ["a", True]}, "domain elements must be strings or numbers, got true"),
        ({"domain": ["a", "b"], "constants": {"c": ["a"]}}, 'constant values must be strings or numbers, got ["a"]'),
        (
            {"domain": ["a", "b"], "relations": {"P": {"arity": 1, "tuples": [[{"a": 1}]]}}},
            'entries of relation P tuples must be strings or numbers, got {"a": 1}',
        ),
    ]
    for i, (spec, message) in enumerate(bad_models):
        path = atom_file(tmp_path, f"bad_model{i}", spec)
        assert main(["eval", "NE", "--model", path, "--sentence"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err
    bad_teams = [
        ({"vars": ["x"], "rows": 5}, "team rows must be a list of lists"),
        ({"vars": ["x"], "rows": ["a"]}, "team rows must be a list of lists"),
        ({"vars": 5, "rows": []}, "team JSON needs a 'vars' list and 'rows'"),
        ({"vars": [["x"]], "rows": []}, 'team vars must be strings or numbers, got ["x"]'),
        ({"vars": ["x"], "rows": [[False]]}, "entries of team rows must be strings or numbers, got false"),
    ]
    for i, (spec, message) in enumerate(bad_teams):
        path = atom_file(tmp_path, f"bad_team{i}", spec)
        assert main(["eval", "NE", "--model", model_file, "--team", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


def test_eval_json_with_stats_and_witness(capsys, model_file, team_file):
    code = main(
        [
            "eval", "incl(x; x)", "--model", model_file, "--team", team_file,
            "--json", "--stats", "--witness",
        ]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is True
    assert sorted(out["stats"]) == [
        "choices", "covers", "max_team_rows", "memo_hits",
        "nodes", "subsets", "tarski_rows",
    ]
    assert out["witness"]["kind"] == "projection"


def test_eval_witness_for_failed_formula_is_null(capsys, model_file, team_file):
    code = main(
        ["eval", "P(x)", "--model", model_file, "--team", team_file, "--json", "--witness"]
    )
    assert code == 0
    assert json.loads(capsys.readouterr().out)["witness"] is None


def test_eval_split_witness(capsys, model_file, team_file):
    code = main(["eval", "NE \\/ NE", "--model", model_file, "--team", team_file, "--witness"])
    assert code == 0
    verdict, witness = capsys.readouterr().out.splitlines()
    assert verdict == "true"
    assert json.loads(witness)["kind"] == "split"


def test_eval_of_a_formula_too_deep_to_evaluate_is_an_error_not_a_crash(capsys, model_file, team_file):
    # one frame per conjunction level; 2000 levels pass the recursion limit
    formula = " /\\ ".join(["P(x)"] * 2000)
    assert main(["eval", formula, "--model", model_file, "--team", team_file, "--witness"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "too deeply" in err and "Traceback" not in err


def _alternating(tmp_path, n):
    """A model of n elements with P on every other one, and the team of all of them over x."""
    domain = tuple(f"e{i:02}" for i in range(n))
    model = Model(domain, {"P": Relation(1, frozenset((e,) for e in domain[::2]))}, {})
    paths = tmp_path / "m.json", tmp_path / "t.json"
    paths[0].write_text(model.to_json())
    paths[1].write_text(Team(("x",), frozenset((e,) for e in domain)).to_json())
    return domain, [str(p) for p in paths]


def test_eval_witness_tries_at_most_two_to_the_limit_covers(capsys, tmp_path, monkeypatch):
    # the split of an alternating team is cover 66,431 of 3^12 and cover
    # 199,291 of 3^13, both within 2^20 tries and both as they always were
    for n in (12, 13):
        domain, (model, team) = _alternating(tmp_path, n)
        assert main(["eval", "P(x) \\/ !P(x)", "--model", model, "--team", team, "--witness"]) == 0
        verdict, witness = capsys.readouterr().out.splitlines()
        assert verdict == "true"
        assert json.loads(witness) == {
            "kind": "split", "left": [[e] for e in domain[::2]], "right": [[e] for e in domain[1::2]],
        }

    drawn = 0

    def counted(items):
        nonlocal drawn
        for pair in cover_parts(items):
            drawn += 1
            yield pair

    monkeypatch.setattr(teamsem.evaluator, "cover_parts", counted)
    monkeypatch.setattr(teamsem.evaluator, "SPLIT_ROWS_LIMIT", 10)
    assert main(["eval", "P(x) \\/ !P(x)", "--model", model, "--team", team]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["eval", "P(x) \\/ !P(x)", "--model", model, "--team", team, "--witness"]) == 2
    assert capsys.readouterr().err == "error: a witness search tried 2^10 splits, the limit, and found none\n"
    assert drawn == 2**10 + 1


def test_eval_witness_tries_at_most_two_to_the_limit_subteams(capsys, tmp_path, monkeypatch):
    # P fails on the last of 21 elements only: the witnesses are the 21st
    # nonempty subteam of the team and the 22nd subteam of it duplicated over x
    domain = tuple(f"e{i:02}" for i in range(21))
    model, team = tmp_path / "m.json", tmp_path / "t.json"
    model.write_text(Model(domain, {"P": Relation(1, frozenset((e,) for e in domain[:-1]))}, {}).to_json())
    team.write_text(Team(("x",), frozenset((e,) for e in domain)).to_json())
    for formula, witness in [
        ("poss(!P(x))", {"kind": "subteam", "rows": [["e20"]]}),
        ("E x. !P(x)", {"kind": "choice", "vars": ["x"], "rows": [["e20"]]}),
    ]:
        args = ["eval", formula, "--model", str(model), "--team", str(team), "--witness"]
        assert main(args) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[1]) == witness
        monkeypatch.setattr(teamsem.evaluator, "SPLIT_ROWS_LIMIT", 4)
        assert main(args) == 2
        assert capsys.readouterr().err == "error: a witness search tried 2^4 subteams, the limit, and found none\n"
        monkeypatch.undo()


def test_eval_names_the_search_that_reached_the_limit(capsys, tmp_path, monkeypatch):
    # no nonempty subteam satisfies the body: 7 of 3 rows, past 2^2
    _, (model, team) = _alternating(tmp_path, 3)
    monkeypatch.setattr(teamsem.evaluator, "SPLIT_ROWS_LIMIT", 2)
    assert main(["eval", "poss(dep(x; x) /\\ F)", "--model", model, "--team", team]) == 2
    assert capsys.readouterr().err == "error: a possibility search tried 2^2 subteams, the limit, and found none\n"


def test_eval_witness_of_a_one_row_team_duplicated_over_a_large_domain(capsys, tmp_path):
    # one row doubles to 21 rows, 2^21 subteams; the witness is the second tried
    _, (model, _) = _alternating(tmp_path, 21)
    team = tmp_path / "one.json"
    team.write_text(Team(("x",), frozenset({("e00",)})).to_json())
    assert main(["eval", "E y. y = x", "--model", model, "--team", str(team), "--witness"]) == 0
    verdict, witness = capsys.readouterr().out.splitlines()
    assert verdict == "true"
    assert json.loads(witness) == {"kind": "choice", "vars": ["x", "y"], "rows": [["e00", "e00"]]}


@pytest.mark.parametrize("mode", ["naive", "oracle", "fast"])
def test_eval_stats_do_not_depend_on_the_hash_seed(tmp_path, mode):
    # Team rows are frozensets of strings; the evaluator's short-circuiting
    # loops must visit them in one order whatever the string-hash seed.
    m = Model(("a", "b", "c"), {"P": Relation(1, frozenset({("a",)}))}, {})
    X = Team(("x", "y"), frozenset({("a", "a"), ("b", "c"), ("c", "b"), ("a", "c")}))
    (tmp_path / "m.json").write_text(m.to_json())
    (tmp_path / "t.json").write_text(X.to_json())
    src = str(pathlib.Path(teamsem.__file__).parents[1])
    outputs = set()
    for seed in range(6):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=str(seed))
        run = subprocess.run(
            [
                sys.executable, "-m", "teamsem.cli", "eval", "P(x) \\/ (x = y /\\ NE)",
                "--model", "m.json", "--team", "t.json", "--mode", mode, "--stats",
            ],
            cwd=tmp_path, env=env, capture_output=True, text=True, check=True,
        )
        outputs.add(run.stdout)
    assert len(outputs) == 1, sorted(outputs)


# --- translate --------------------------------------------------------------


def test_translate_plain_output(capsys):
    assert main(["translate", "nondep(x; y)"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "relation: R"
    assert out[2] == "tuple: x, y"
    assert out[3] == "atoms used: nondep"


def test_translate_json_and_verify(capsys):
    code = main(
        ["translate", "poss(P(x))", "--vars", "x", "--verify", "--grid", MICRO_GRID, "--json"]
    )
    assert code == 0
    out = json.loads(capsys.readouterr().out)
    assert out["relation"] == "R"
    assert out["verified_atoms"] is True
    assert sorted(out) == [
        "atoms_used", "clean_formula", "prefix_vars",
        "relation", "sentence", "tuple", "verified_atoms",
    ]


def test_translate_verify_outside_fast_mode_is_gated_by_the_cost_budget(capsys):
    text, grid = "E y. E z. (nondep(x; y) /\\ nondep(x; z))", "doms=2,3;max_rows=4"
    worst = max(eval_cost_estimate(parse(text), d, 4, "oracle") for d in (2, 3))
    assert worst > DEFAULT_COST_BUDGET
    assert main(["translate", text, "--verify", "--mode", "oracle", "--grid", grid]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"an estimated {worst:.3g} steps" in captured.err


def test_translate_verify_outside_fast_mode_checks_a_formula_in_budget(capsys):
    for mode in ("oracle", "naive"):
        argv = ["translate", "poss(P(x))", "--vars", "x", "--verify", "--mode", mode, "--grid", MICRO_GRID]
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines()[1] == "relation: R"


def test_translate_verify_outside_fast_mode_estimates_a_restriction(capsys):
    # a restriction costs as a split over the rows: 2^n (3^n naive) times its rows and body
    phi = parse("restrict(NE; P(x))")
    assert [eval_cost_estimate(phi, 2, 2, mode) for mode in ("oracle", "naive")] == [16, 36]
    argv = ["translate", "restrict(NE; P(x))", "--verify", "--mode", "oracle", "--grid", MICRO_GRID]
    assert main(argv) == 0
    assert capsys.readouterr().out.splitlines()[1:3] == ["relation: R", "tuple: x"]


def test_translate_rejects_downward_atoms(capsys):
    assert main(["translate", "dep(x; y)"]) == 2
    err = capsys.readouterr().err
    assert "dep" in err and "upwards closed" in err


# --- check closure / bound ---------------------------------------------------


def test_check_closure_direct_question_fails(capsys):
    # dep is not upwards closed, and asking the direct question finds proof.
    assert main(["check", "closure", "dep", "--direction", "up"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    ce = report["directions"]["up"]["counterexample"]
    assert set(ce) >= {"model", "relation", "superset"}


def test_check_closure_declarations_hold(capsys):
    # Without --direction only the *declared* closures are on trial.
    assert main(["check", "closure", "dep"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is True
    assert sorted(report["directions"]) == ["down", "up"]


def test_check_bound_refutes_false_claim(capsys):
    assert main(["check", "bound", "total", "3"]) == 1
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False
    # The smallest refutation needs four elements: a full four-row relation.
    assert len(report["counterexample"]["model"]["domain"]) == 4
    assert len(report["counterexample"]["relation"]) == 4


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "bound", "inconst", "2"],
        ["check", "bound", "big", "2", "--param", "2"],
        ["check", "closure", "NE"],
    ],
)
def test_check_verdicts_that_hold(capsys, argv):
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["ok"] is True


@pytest.mark.parametrize(
    "argv,scale",
    [
        (["check", "bound", "noncindep", "2", "--widths", "2,1,1"], "arity 4 at max_dom=3, max_rel=4"),
        (["check", "closure", "dep", "--widths", "3,3"], "arity 6 at max_dom=3, max_rel=4"),
        # a bound of 8 needs a nine-element domain to refute
        (["check", "bound", "total", "8"], "got max_dom=9, max_rel=9"),
    ],
)
def test_check_refuses_a_scale_it_cannot_search(capsys, argv, scale):
    start = time.perf_counter()
    assert main(argv) == 2
    assert time.perf_counter() - start < 1.0
    assert scale in capsys.readouterr().err


# --- check equiv / theorem ---------------------------------------------------


def test_check_equiv_pass(capsys):
    assert main(["check", "equiv", "NE", "NE /\\ T", "--grid", MICRO_GRID]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert all(json.loads(line)["ok"] for line in lines)


def test_check_equiv_fail(capsys):
    assert main(["check", "equiv", "NE", "T", "--grid", MICRO_GRID]) == 1
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["ok"] is False
    assert summary["mismatch_count"] == 1


def test_check_equiv_outside_fast_mode_is_gated_by_the_cost_budget(capsys):
    left, right, grid = "E y. E z. (nondep(x; y) /\\ nondep(x; z))", "E y. nondep(x; y)", "doms=2,3;max_rows=4"
    for mode in ("oracle", "naive"):
        worst = max(eval_cost_estimate(parse(t), d, 4, mode) for t in (left, right) for d in (2, 3))
        assert worst > DEFAULT_COST_BUDGET
        assert main(["check", "equiv", left, right, "--mode", mode, "--grid", grid]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"checking in {mode} mode would cost an estimated {worst:.3g} steps" in captured.err


def test_check_equiv_outside_fast_mode_checks_formulas_in_budget(capsys):
    for mode in ("oracle", "naive"):
        assert main(["check", "equiv", "NE", "NE /\\ T", "--mode", mode, "--grid", MICRO_GRID]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[0])["ok"] is True


def test_check_equiv_reads_grid_from_env(capsys, monkeypatch):
    monkeypatch.setenv("TEAMSEM_GRID", MICRO_GRID)
    assert main(["check", "equiv", "NE", "NE"]) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[0])
    assert summary["params"]["grid"]["doms"] == [2]
    assert summary["params"]["grid"]["max_rows"] == 2


def _stdout_per_jobs(capsys, argv):
    """Exit code and stdout of `argv` with one and with two workers."""
    runs = []
    for jobs in ("1", "2"):
        runs.append((main(argv + ["--jobs", jobs]), capsys.readouterr().out))
    return runs


def test_translate_verify_in_parallel_matches_serial(capsys):
    # the default registry holds closures, which workers could not be sent
    argv = ["translate", "NE", "--verify", "--grid", "doms=2,3;max_rows=2"]
    (serial_code, serial_out), (parallel_code, parallel_out) = _stdout_per_jobs(capsys, argv)
    assert serial_code == parallel_code == 0
    assert parallel_out == serial_out


def test_check_equiv_with_custom_atom_in_parallel_matches_serial(capsys, tmp_path):
    path = atom_file(
        tmp_path,
        "has_pair",
        {
            "name": "has_pair",
            "arity": 2,
            "definition": "E u. E w. R(u, w) /\\ u != w",
            "upwards_closed": True,
        },
    )
    argv = [
        "check", "equiv", "has_pair(x, y)", "has_pair(x, y) /\\ T",
        "--atoms", path, "--grid", MICRO_GRID, "--verbose",
    ]
    (serial_code, serial_out), (parallel_code, parallel_out) = _stdout_per_jobs(capsys, argv)
    assert serial_code == parallel_code == 0
    assert parallel_out == serial_out
    assert len(serial_out.splitlines()) > 1  # the verbose records came through


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_is_a_usage_error(capsys, jobs):
    assert main(["check", "equiv", "NE", "T", "--jobs", jobs]) == 2
    assert "jobs must be at least 1" in capsys.readouterr().err


SWEEP_GOLDENS = json.loads(
    (pathlib.Path(__file__).parent / "goldens" / "sweeps_micro.json").read_text()
)


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_check_theorem_micro_grid(capsys, name):
    # the grid of the sweep goldens (test_sweep_goldens.GRID)
    grid = "doms=2;max_rows=2;max_depth=1"
    assert main(["check", "theorem", name, "--grid", grid]) == 0
    assert capsys.readouterr().out.splitlines() == SWEEP_GOLDENS[name]["summary"]


def test_check_theorem_unknown_name(capsys):
    assert main(["check", "theorem", "nosuch"]) == 2
    err = capsys.readouterr().err
    assert "unknown theorem suite" in err
    assert "translation" in err  # the known suites are listed


# --- atoms --------------------------------------------------------------------


def test_atoms_list_plain(capsys):
    assert main(["atoms", "list"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 15
    assert lines[0].startswith("dep")
    assert "bound=none" in lines[0]
    assert "down" in lines[0]


def test_atoms_list_json(capsys):
    assert main(["atoms", "list", "--json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert [r["name"] for r in rows][:4] == ["dep", "const", "excl", "incl"]
    assert len(rows) == 15


def test_atoms_register_accepted(capsys, tmp_path):
    path = atom_file(
        tmp_path,
        "has_pair",
        {
            "name": "has_pair",
            "arity": 2,
            "definition": "E u. E w. R(u, w) /\\ u != w",
            "upwards_closed": True,
            "bound": 1,
        },
    )
    assert main(["atoms", "register", path]) == 0
    row = json.loads(capsys.readouterr().out)["registered"]
    assert row["name"] == "has_pair"
    assert row["bound"] == 1
    assert row["verified"] is True


def test_atoms_register_refutes_closure_claim(capsys, tmp_path):
    path = atom_file(
        tmp_path,
        "alldiag",
        {
            "name": "alldiag",
            "arity": 1,
            "definition": "A x. R(x)",
            "upwards_closed": True,
            "downwards_closed": True,  # false: the empty subrelation fails
        },
    )
    assert main(["atoms", "register", path]) == 1
    err = capsys.readouterr().err
    assert "registration rejected" in err
    assert "downwards closed" in err


def test_atoms_register_refutes_bound_claim(capsys, tmp_path):
    path = atom_file(
        tmp_path,
        "total2",
        {
            "name": "total2",
            "arity": 1,
            "definition": "A x. R(x)",
            "upwards_closed": True,
            "bound": 3,
        },
    )
    assert main(["atoms", "register", path]) == 1
    assert "3-bounded" in capsys.readouterr().err


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("arity", "1", "'arity' an integer"),
        ("definition", 5, "'definition' must be strings"),
        ("name", 5, "'name' and 'definition' must be strings"),
        ("bound", -1, "bound must be a nonnegative integer or null, got -1"),
        ("bound", "2", "bound must be a nonnegative integer or null, got '2'"),
        ("upwards_closed", "false", "malformed.json: 'upwards_closed' must be true or false, got \"false\""),
        ("upwards_closed", 1, "'upwards_closed' must be true or false, got 1"),
        ("downwards_closed", "false", "'downwards_closed' must be true or false, got \"false\""),
        ("check", "false", "'check' must be true or false, got \"false\""),
        ("check", None, "'check' must be true or false, got null"),
    ],
)
def test_atoms_register_rejects_malformed_fields(capsys, tmp_path, field, value, message):
    # unchecked registrations too: an unchecked bound of -1 would reach
    # the height analysis as a breached invariant
    spec = {
        "name": "has_pair",
        "arity": 2,
        "definition": "E u. E w. R(u, w) /\\ u != w",
        "upwards_closed": True,
        "check": False,
        field: value,
    }
    assert main(["atoms", "register", atom_file(tmp_path, "malformed", spec)]) == 2
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err


def test_atoms_register_missing_field(capsys, tmp_path):
    path = atom_file(tmp_path, "oops", {"name": "oops", "arity": 1})
    assert main(["atoms", "register", path]) == 2
    assert "missing atom field" in capsys.readouterr().err


def test_atoms_register_malformed_json(capsys, tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["atoms", "register", str(path)]) == 2
    assert "input error" in capsys.readouterr().err


def test_atoms_option_extends_the_parser(capsys, tmp_path, model_file, team_file):
    path = atom_file(
        tmp_path,
        "has_pair",
        {
            "name": "has_pair",
            "arity": 2,
            "definition": "E u. E w. R(u, w) /\\ u != w",
            "upwards_closed": True,
        },
    )
    assert main(["parse", "has_pair(x, y)", "--atoms", path]) == 0
    assert capsys.readouterr().out.splitlines()[0] == "has_pair(x, y)"
    # And the atom evaluates: the two-row team projects to {(a,a),(b,b)},
    # which holds no pair of distinct coordinates.
    code = main(
        ["eval", "has_pair(x, x)", "--model", model_file, "--team", team_file,
         "--atoms", path]
    )
    assert code == 0
    assert capsys.readouterr().out.strip() == "false"


# --- analyze ------------------------------------------------------------------


def test_analyze_static(capsys):
    assert main(["analyze", "NE /\\ inconst(x)"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["height"] == 3
    assert report["contributions"] == [
        {"atom": "NE", "bound": 1},
        {"atom": "inconst(x)", "bound": 2},
    ]
    assert sorted(report) == ["contributions", "formula", "free_variables", "height"]


def test_analyze_with_witness(capsys, model_file, team_file):
    code = main(["analyze", "NE /\\ inconst(x)", "--model", model_file, "--team", team_file])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["satisfied"] is True
    assert report["witness_size"] == 2
    assert report["witness"] == {"rows": [["a"], ["b"]], "vars": ["x"]}


def test_analyze_tries_at_most_two_to_the_limit_subteams(capsys, tmp_path, monkeypatch):
    # the witness is the 7th subteam tried: the empty one, five single rows, then the first pair
    _, (model, team) = _alternating(tmp_path, 5)
    args = ["analyze", "NE /\\ inconst(x)", "--model", model, "--team", team]
    monkeypatch.setattr(teamsem.evaluator, "SPLIT_ROWS_LIMIT", 3)
    assert main(args) == 0
    assert json.loads(capsys.readouterr().out)["witness"] == {"rows": [["e00"], ["e01"]], "vars": ["x"]}
    monkeypatch.setattr(teamsem.evaluator, "SPLIT_ROWS_LIMIT", 2)
    assert main(args) == 2
    assert capsys.readouterr().err == "error: a witness search tried 2^2 subteams, the limit, and found none\n"


def test_a_breached_invariant_exits_1(capsys, monkeypatch):
    def breach(*args, **kwargs):
        raise InvariantBreach("no witness within the height", {"formula": "NE"})

    monkeypatch.setattr(teamsem.cli, "analyze", breach)
    assert main(["analyze", "NE"]) == 1
    err = capsys.readouterr().err
    assert err == 'invariant breached: no witness within the height\nreproduction data: {"formula": "NE"}\n'


def test_analyze_needs_model_and_team_together(capsys, model_file):
    assert main(["analyze", "NE", "--model", model_file]) == 2
    assert "both --model and --team" in capsys.readouterr().err


def test_eval_refuses_a_split_too_wide_to_tabulate(capsys, tmp_path):
    model = atom_file(tmp_path, "m40", {"domain": [f"e{i}" for i in range(40)]})
    args = ["eval", "A u. A v. (v = u \\/ dep(u; v))", "--model", model, "--sentence", "--mode", "oracle"]
    assert main(args) == 2
    assert "split over 1600 rows" in capsys.readouterr().err
