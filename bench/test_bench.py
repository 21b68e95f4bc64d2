"""The benchmark's own tests, at micro scale (a few seconds each).

    python3 -m pytest -q bench/test_bench.py

Micro scale means more decks, so each pass runs a handful of requests;
the requests themselves, their grids and their known answers are the
benchmark's own.
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import workloads
from run import END_TO_END, PER_LAYER, ROOT, Run, deal, load_program
from workloads import WORKLOADS

MICRO_DECKS = {
    "translate-verify": 40,
    "possibility-sweep": 20,
    "atom-catalog": 12,
    "height-witness": 300,
}


def test_benchmark_json_names_what_the_code_emits():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == PER_LAYER
    assert spec["command"] == ["python3", "bench/run.py"]
    assert run.CATALOG_ATOMS == load_program().atoms.BUILTIN_ATOM_NAMES


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_traced_micro_run_emits_every_layer_metric_and_repeats_counts(workload):
    counts = []
    for _ in range(2):
        bench = Run(workload, seed=0, decks=MICRO_DECKS[workload])
        metrics, notes = bench.measure_traced(0, None)
        assert bench.failed == 0, bench.failures
        assert set(metrics) == set(PER_LAYER)
        assert all(isinstance(v, (int, float)) for v in metrics.values())
        assert metrics["harness.points_checked"] > 0
        counts.append({k: v for k, v in metrics.items() if PER_LAYER[k] in ("count", "rows")})
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_untraced_micro_run_on_a_second_seed_is_clean(workload):
    bench = Run(workload, seed=1, decks=MICRO_DECKS[workload])
    metrics, notes = bench.measure(0)
    assert bench.failed == 0, bench.failures
    assert set(metrics) == set(END_TO_END)
    assert all(v > 0 for v in metrics.values())
    assert notes["failed_share"] == 0


def test_trace_points_at_the_bottlenecks():
    bench = Run("atom-catalog", seed=0)
    metrics, _ = bench.measure_traced(0, None)
    per_atom = {k: v for k, v in metrics.items() if k.startswith("atoms.fo_definition_agrees_s.")}
    top_two = sorted(per_atom, key=per_atom.get)[-2:]
    assert {k.rsplit(".", 1)[1] for k in top_two} == {"cindep", "noncindep"}


def test_gate_fires_on_a_corrupted_sentence(monkeypatch, capsys):
    ts = load_program()
    phi, grid = next(
        args for _, args in workloads.translate_setup(ts) if ts.syntax.free_variables(args[0])
    )
    compiled = ts.translator.translate(phi, tuple(sorted(ts.syntax.free_variables(phi))))
    broken = ts.syntax.negate_fo(compiled.sentence)
    outcome = workloads.translate_request(
        ts, (phi, grid), None, sentence=broken, relation=compiled.relation
    )
    assert not outcome.ok

    def corrupted(ts, args, wrap):
        phi, _ = args
        result = ts.translator.translate(phi, tuple(sorted(ts.syntax.free_variables(phi))))
        return workloads.translate_request(
            ts, args, wrap, sentence=ts.syntax.negate_fo(result.sentence), relation=result.relation
        )

    workload = dataclasses.replace(WORKLOADS["translate-verify"], decks=40, request=corrupted)
    monkeypatch.setitem(WORKLOADS, "translate-verify", workload)
    code = run.main(["--workload", "translate-verify", "--seed", "0", "--seconds", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] > 0


def test_gate_fires_on_a_point_count_that_differs():
    bench = Run("atom-catalog", seed=0, decks=38)
    key, _ = bench.decks[0][0]
    bench.expected[key][1] += 1
    bench.run_pass(bench.decks[0])
    assert bench.failed == 1


def test_deal_balances_decks_and_depends_on_the_seed():
    items = [(f"item{i}", None) for i in range(100)]
    known = {key: [float(i % 17 + 1), i % 5, 0] for i, (key, _) in enumerate(items)}
    decks = deal(items, known, 7, seed=3)
    assert sorted(key for deck in decks for key, _ in deck) == sorted(known)
    sizes = [len(d) for d in decks]
    assert max(sizes) - min(sizes) <= 1
    totals = [sum(known[k][0] for k, _ in d) for d in decks]
    assert max(totals) - min(totals) <= 17
    assert deal(items, known, 7, seed=3) == decks
    assert deal(items, known, 7, seed=4) != decks


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("traces"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "atom-catalog", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 2
    assert "correct" not in done.stdout
