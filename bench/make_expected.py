"""Regenerate `expected.json`: the known point counts of every request, and
the cost of each request, used to deal cost-balanced decks.

    python3 bench/make_expected.py [WORKLOAD ...]

Run it only on the commit whose counts are the reference (the benchmark
fails any run whose counts differ), and only when a workload's corpus is
meant to change.  Each request must give its known verdict; the script
stops at the first that does not.  A request's cost is its fastest of
three runs, since the host slows single runs at random.
"""

from __future__ import annotations

import json
import sys
from time import perf_counter

from run import BENCH_DIR, load_program
from workloads import WORKLOADS

REPEATS = 3


def measure(name: str) -> dict:
    workload = WORKLOADS[name]
    ts = load_program()
    table = {}
    for key, args in workload.setup(ts):
        runs = []
        for _ in range(REPEATS):
            started = perf_counter()
            outcome = workload.request(ts, args, lambda fn, span: fn)
            runs.append(perf_counter() - started)
        cost = min(runs)
        if not outcome.ok:
            raise SystemExit(f"{name} {key}: wrong verdict")
        table[key] = [round(cost, 5), outcome.points, outcome.skipped]
    return table


def main(argv: list[str]) -> None:
    path = BENCH_DIR / "expected.json"
    expected = json.loads(path.read_text()) if path.exists() else {}
    for name in argv or sorted(WORKLOADS):
        started = perf_counter()
        expected[name] = measure(name)
        print(f"{name}: {len(expected[name])} requests, {perf_counter() - started:.1f} s")
    lines = []
    for name in sorted(expected):
        rows = [f"    {json.dumps(k)}: {json.dumps(v)}" for k, v in expected[name].items()]
        lines.append(f"  {json.dumps(name)}: {{\n" + ",\n".join(rows) + "\n  }")
    path.write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main(sys.argv[1:])
