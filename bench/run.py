"""teamsem benchmark: time to verdict on four sweep workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from `src/`.
Load model: a closed loop, one client in one process, `jobs=1`; each
request is one call into a public check, issued after the previous one
returned.

The seed deals the workload's corpus into cost-balanced decks (costs
measured at the seed commit, in `expected.json`) and orders each deck.
A pass runs one deck; passes cycle through the decks until `--seconds`
would be exceeded.  Untraced times are scaled by the host's speed during
the pass, measured with an interleaved reference loop.  Every verdict and point count is checked against the
known answers in `expected.json`; a wrong one fails the request, and any
failure makes the exit code 1.  With `--trace 1` the run alternates
untraced and traced passes over the first deck and reports per-layer
metrics instead (see README.md).  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Exit code 2 means
the program could not be loaded, and nothing is reported.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import math
import random
import resource
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

MODULES = ("syntax", "model", "atoms", "evaluator", "translator", "analysis", "harness")
SETUP_REPEATS = 9
COST_JITTER = 0.03  # seeded relative noise on costs before dealing decks
# The host slows this process at random, by up to 2x for seconds at a time.
# Untraced passes sample a fixed reference loop between requests, and their
# times are scaled by REFERENCE_NOMINAL / (the pass's median sample), so a
# slow spell of the host does not read as a slow program.
REFERENCE_EVERY = 0.05  # s between reference samples
REFERENCE_NOMINAL = 0.0008  # s: the reference's median on the baseline machine

END_TO_END = {
    "setup_s": "s",
    "verdict_s": "s",
    "points_per_s": "1/s",
    "request_p50_s": "s",
    "request_tail_s": "s",
    "peak_rss_mb": "MB",
}
# shown in the human-readable table; zero on most workloads, so the JSON
# line carries them as `attempted`/`failed` and `harness.points_skipped`
SHARES = {"failed_share": "ratio", "undecided_share": "ratio"}
CATALOG_ATOMS = (
    "dep", "const", "excl", "incl", "indep", "cindep", "NE", "intersect",
    "inconst", "big", "total", "nondep", "nonexcl", "nonincl", "noncindep",
)
PER_LAYER = {
    "syntax.free_variables_s": "s",
    "syntax.free_variables_calls": "count",
    "model.sentence_eval_s": "s",
    "model.sentence_evals": "count",
    "model.compile_fo_s": "s",
    "model.tarski_eval_s": "s",
    "model.tarski_calls": "count",
    "model.team_ops_s": "s",
    "model.team_ops_calls": "count",
    "atoms.eval_atom_s": "s",
    "atoms.eval_atom_calls": "count",
    "atoms.direct_s": "s",
    "atoms.direct_calls": "count",
    **{f"atoms.fo_definition_agrees_s.{a}": "s" for a in CATALOG_ATOMS},
    "evaluator.self_s": "s",
    "evaluator.evaluate_calls": "count",
    "evaluator.nodes": "count",
    "evaluator.memo_hits": "count",
    "evaluator.memo_hit_ratio": "ratio",
    "evaluator.subsets": "count",
    "evaluator.covers": "count",
    "evaluator.choices": "count",
    "evaluator.tarski_rows": "count",
    "evaluator.max_team_rows": "rows",
    "translator.translate_s": "s",
    "translator.sentence_nodes": "count",
    "translator.max_quantifier_depth": "count",
    "analysis.self_s": "s",
    "analysis.witness_calls": "count",
    "analysis.subteams_tried": "count",
    "analysis.witness_yield": "ratio",
    "harness.self_s": "s",
    "harness.points_checked": "count",
    "harness.points_skipped": "count",
    "trace.overhead_s": "s",
}


class ProgramMissing(Exception):
    pass


REFERENCE_ROWS = tuple(itertools.product("abc", repeat=2))


def reference_sample() -> float:
    """Time one run of a fixed loop shaped like the program's inner work:
    enumerate small teams as frozensets of rows and memoise a verdict per
    (node, team)."""
    started = perf_counter()
    memo: dict = {}
    for size in range(4):
        for combo in itertools.combinations(REFERENCE_ROWS, size):
            team = frozenset(combo)
            for node in range(8):
                key = (node, team)
                if key not in memo:
                    memo[key] = len({row[node % 2] for row in team}) > 1
    return perf_counter() - started


def load_program(root: Path = ROOT) -> SimpleNamespace:
    """Import teamsem afresh from `root/src` and return its modules."""
    for name in [m for m in sys.modules if m == "teamsem" or m.startswith("teamsem.")]:
        del sys.modules[name]
    src = root / "src"
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    importlib.invalidate_caches()
    try:
        modules = {m: importlib.import_module(f"teamsem.{m}") for m in MODULES}
    except ImportError as exc:
        raise ProgramMissing(f"cannot import teamsem from {src}: {exc}") from None
    package = Path(sys.modules["teamsem"].__file__).resolve()
    if src.resolve() not in package.parents:
        raise ProgramMissing(f"teamsem was imported from {package}, not from {src}")
    return SimpleNamespace(**modules)


def load_expected() -> dict:
    return json.loads((BENCH_DIR / "expected.json").read_text())


def deal(items: list, known: dict, decks: int, seed: int) -> list[list]:
    """Deal items into `decks` decks of near-equal size, cost and points.

    `known` maps an item's key to its seed-commit [cost, points, ...].
    Items go in descending (seed-jittered) cost, one round of `decks` at a
    time, so every deck holds one item of each cost stratum, which keeps
    its median and tail close to every other deck's.  Two rounds in three
    give their costliest item to the deck lightest in cost so far, and the
    third gives its richest item to the deck poorest in points, so that
    totals and points per second match too.  The seed picks the starting
    deck and each deck's order.
    """
    rng = random.Random(seed)

    def cost(item):
        return known.get(item[0], [0.0])[0]

    def points(item):
        return known.get(item[0], [0.0, 0])[1]

    ranked = sorted(
        items, key=lambda item: cost(item) * rng.uniform(1 - COST_JITTER, 1 + COST_JITTER), reverse=True
    )
    loads = [[0.0, 0] for _ in range(decks)]
    dealt: list[list] = [[] for _ in range(decks)]
    for n, start in enumerate(range(0, len(ranked), decks)):
        measure = 1 if n % 3 == 2 else 0  # 0: cost, 1: points
        chunk = sorted(ranked[start : start + decks], key=(cost, points)[measure], reverse=True)
        lightest = sorted(range(decks), key=lambda k: (loads[k][measure], rng.random()))
        for item, k in zip(chunk, lightest):
            loads[k][0] += cost(item)
            loads[k][1] += points(item)
            dealt[k].append(item)
    first = rng.randrange(decks)
    dealt = dealt[first:] + dealt[:first]
    for deck in dealt:
        rng.shuffle(deck)
    return dealt


def tail_percentile(deck_size: int) -> int:
    """The highest whole percentile with at least ten requests of one pass
    beyond it (the median for decks of ten or fewer)."""
    if deck_size <= 10:
        return 50
    return math.floor(100 * (deck_size - 10) / deck_size)


def percentile(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


class Run:
    """One benchmark run: set-up, passes, gate and metrics."""

    def __init__(self, workload: str, seed: int, decks: int | None = None):
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.n_decks = decks or self.workload.decks
        self.expected = load_expected()[workload]
        setup_times: list[float] = []
        samples: list[float] = []
        for _ in range(SETUP_REPEATS):
            samples.extend(reference_sample() for _ in range(5))
            started = perf_counter()
            self.ts = load_program()
            items = self.workload.setup(self.ts)
            self.decks = deal(items, self.expected, self.n_decks, seed)
            setup_times.append(perf_counter() - started)
        self.setup_s = statistics.median(setup_times) * REFERENCE_NOMINAL / statistics.median(samples)
        keys = [key for key, _ in items]
        # corpus items without a known answer, or known answers the corpus
        # no longer produces: work added or dropped since the seed commit.
        # Each counts as one attempted and failed request.
        self.corpus_drift = sorted(set(keys) ^ set(self.expected)) + sorted(
            k for k, n in Counter(keys).items() if n > 1
        )
        self.attempted = len(self.corpus_drift)
        self.failures: list[str] = []
        self.latencies: dict[str, list[float]] = {}
        # the discarded set-ups leave cyclic garbage that no real caller
        # has; collect it now rather than inside some request
        gc.collect()

    def run_pass(self, deck: list, tracer: Tracer | None = None) -> dict:
        """One pass over a deck.  Returns its time (the sum of its request
        latencies), its point totals, and the host's speed factor: how much
        faster the reference loop ran than REFERENCE_NOMINAL (1.0 traced)."""
        wrap = tracer.wrap if tracer else (lambda fn, name: fn)
        points = skipped = 0
        elapsed = 0.0
        samples: list[float] = []
        last_sample = -math.inf
        pass_latencies = []
        for key, args in deck:
            if tracer is None and perf_counter() - last_sample >= REFERENCE_EVERY:
                samples.append(reference_sample())
                last_sample = perf_counter()
            self.attempted += 1
            t0 = perf_counter()
            try:
                if tracer:
                    tracer.request_id = self.attempted
                    with tracer.span("request"):
                        outcome = self.workload.request(self.ts, args, wrap)
                else:
                    outcome = self.workload.request(self.ts, args, wrap)
            except Exception:
                pass_latencies.append((key, perf_counter() - t0))
                self.failures.append(f"{key}: raised\n{traceback.format_exc()}")
                continue
            pass_latencies.append((key, perf_counter() - t0))
            known = self.expected.get(key)
            points += outcome.points
            skipped += outcome.skipped
            if not outcome.ok:
                self.failures.append(f"{key}: wrong verdict")
            elif known is None or [outcome.points, outcome.skipped] != known[1:]:
                self.failures.append(
                    f"{key}: {outcome.points} points, {outcome.skipped} skipped; "
                    f"expected {known[1:] if known else 'no such item'}"
                )
        speed = REFERENCE_NOMINAL / statistics.median(samples) if samples else 1.0
        for key, latency in pass_latencies:
            self.latencies.setdefault(key, []).append(latency * speed)
            elapsed += latency
        return {"time": elapsed, "speed": speed, "points": points, "skipped": skipped}

    @property
    def failed(self) -> int:
        return len(self.failures) + len(self.corpus_drift)

    def measure(self, seconds: float) -> tuple[dict, dict]:
        """Untraced passes cycling through the decks.  Times are scaled by
        each pass's speed factor; the table also shows the raw ones."""
        passes: list[dict] = []
        started = perf_counter()
        while True:
            passes.append(self.run_pass(self.decks[len(passes) % self.n_decks]))
            median_pass = statistics.median(p["time"] for p in passes)
            if perf_counter() - started + median_pass > seconds:
                break
        scaled_time = sum(p["time"] * p["speed"] for p in passes)
        points = sum(p["points"] for p in passes)
        skipped = sum(p["skipped"] for p in passes)
        deck_size = min(len(d) for d in self.decks)
        tail_p = tail_percentile(deck_size)
        # one latency per request item, its median over the passes that ran
        # it, so that items a run repeats weigh no more than the others
        per_item = [statistics.median(v) for v in self.latencies.values()]
        metrics = {
            "setup_s": self.setup_s,
            "verdict_s": scaled_time / len(passes),
            "points_per_s": points / scaled_time,
            "request_p50_s": statistics.median(per_item),
            "request_tail_s": percentile(per_item, tail_p),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        notes = {
            "passes": len(passes),
            "decks": f"{self.n_decks}, {deck_size}+ requests each",
            "request_items": len(per_item),
            "tail_percentile": tail_p,
            "verdict_s_unscaled": sum(p["time"] for p in passes) / len(passes),
            "host_speed": statistics.median(p["speed"] for p in passes),
            "failed_share": self.failed / max(1, self.attempted),
            "undecided_share": skipped / max(1, points + skipped),
        }
        return metrics, notes

    def measure_traced(self, seconds: float, trace_path: Path | None) -> tuple[dict, dict]:
        """Untraced and traced passes over the first deck, alternating."""
        tracer = Tracer()
        deck = self.decks[0]
        plain: list[float] = []
        traced: list[dict] = []
        started = perf_counter()
        while True:
            plain.append(self.run_pass(deck)["time"])
            tracer.reset_counts()
            with tracer.patched(self.ts):
                result = self.run_pass(deck, tracer)
            traced.append(layer_values(self.ts, tracer, result))
            pair = statistics.median(plain) + statistics.median(t["time"] for t in traced)
            if perf_counter() - started + pair > seconds:
                break
        # counts repeat exactly from pass to pass; times take the median
        metrics = {
            name: traced[0][name] if PER_LAYER[name] in ("count", "rows")
            else statistics.median(values[name] for values in traced)
            for name in PER_LAYER if name != "trace.overhead_s"
        }
        metrics["trace.overhead_s"] = (
            statistics.median(t["time"] for t in traced) - statistics.median(plain)
        )
        counts = [{k: v for k, v in t.items() if PER_LAYER.get(k) in ("count", "rows")} for t in traced]
        notes = {
            "passes": len(traced),
            "deck_size": len(deck),
            "verdict_s_untraced": statistics.median(plain),
            "verdict_s_traced": statistics.median(t["time"] for t in traced),
            "counts_repeat": all(c == counts[0] for c in counts),
        }
        if trace_path is not None:
            tracer.write(
                trace_path,
                {"workload": self.workload.name, "seed": self.seed, "passes": len(traced)},
            )
            notes["trace_file"] = str(trace_path.relative_to(ROOT))
        return metrics, notes


def quantifier_depth(syntax, node) -> int:
    if isinstance(node, (syntax.Exists, syntax.Forall)):
        return 1 + quantifier_depth(syntax, node.body)
    if isinstance(node, (syntax.And, syntax.Or)):
        return max(quantifier_depth(syntax, node.left), quantifier_depth(syntax, node.right))
    return 0


def layer_values(ts, tracer: Tracer, result: dict) -> dict:
    """The per-layer metrics of one traced pass."""
    total, calls, self_time = tracer.total, tracer.calls, tracer.self_time
    stats = {
        key: sum(getattr(s, key) for s in tracer.stats)
        for key in ("nodes", "memo_hits", "subsets", "covers", "choices", "tarski_rows")
    }
    looked_up = stats["nodes"] + stats["memo_hits"]
    subteams = tracer.by_caller[("analysis.find_small_witness", "evaluator.evaluate")]
    witnesses = calls["analysis.find_small_witness"]
    values = {
        "time": result["time"],
        "syntax.free_variables_s": total["syntax.free_variables"],
        "syntax.free_variables_calls": calls["syntax.free_variables"],
        "model.sentence_eval_s": total["model.sentence_eval"],
        "model.sentence_evals": calls["model.sentence_eval"],
        "model.compile_fo_s": total["model.compile_fo"],
        "model.tarski_eval_s": total["model.tarski_eval"],
        "model.tarski_calls": calls["model.tarski_eval"],
        "model.team_ops_s": total["model.team_ops"],
        "model.team_ops_calls": calls["model.team_ops"],
        "atoms.eval_atom_s": total["atoms.eval_atom"],
        "atoms.eval_atom_calls": calls["atoms.eval_atom"],
        "atoms.direct_s": total["atoms.direct"],
        "atoms.direct_calls": calls["atoms.direct"],
        **{
            f"atoms.fo_definition_agrees_s.{a}": total[f"atoms.fo_definition_agrees.{a}"]
            for a in CATALOG_ATOMS
        },
        "evaluator.self_s": self_time["evaluator.evaluate"],
        "evaluator.evaluate_calls": calls["evaluator.evaluate"],
        **{f"evaluator.{key}": value for key, value in stats.items()},
        "evaluator.memo_hit_ratio": stats["memo_hits"] / looked_up if looked_up else 0.0,
        "evaluator.max_team_rows": max((s.max_team_rows for s in tracer.stats), default=0),
        "translator.translate_s": total["translator.translate"],
        "translator.sentence_nodes": sum(ts.syntax.count_nodes(s) for s in tracer.sentences),
        "translator.max_quantifier_depth": max(
            (quantifier_depth(ts.syntax, s) for s in tracer.sentences), default=0
        ),
        "analysis.self_s": self_time["analysis.find_small_witness"],
        "analysis.witness_calls": witnesses,
        "analysis.subteams_tried": subteams,
        "analysis.witness_yield": witnesses / subteams if subteams else 0.0,
        "harness.self_s": self_time["request"],
        "harness.points_checked": result["points"],
        "harness.points_skipped": result["skipped"],
    }
    return values


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        run = Run(args.workload, args.seed)
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.trace:
        path = BENCH_DIR / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
        metrics, notes = run.measure_traced(args.seconds, path)
        units = PER_LAYER
    else:
        metrics, notes = run.measure(args.seconds)
        units = END_TO_END
    for failure in run.failures[:5] + run.corpus_drift[:5]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    table = dict(metrics)
    if not args.trace:
        table.update({key: notes.pop(key) for key in SHARES})
    for key, value in notes.items():
        print(f"  {key}: {value}")
    for name, value in table.items():
        print(f"  {name:44s} {value:>16.6g} {units.get(name) or SHARES[name]}")
    correct = run.failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]} for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
