"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/stability.py --seconds 25 --seeds 1-10 [--workloads a,b] [--trace] [--out FILE]

For every workload and end-to-end metric it prints the median of the
per-run values and their spread: the distance between the first and third
quartiles (`statistics.quantiles(values, n=4)`) as a share of the median,
which is what the bounds in BENCHMARK.json are held against.  With
`--trace` it also makes one traced run per workload, on the first seed.
`--out` writes everything, with machine notes, as JSON (the committed
baseline is BENCH_seed.json).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from workloads import WORKLOADS  # noqa: E402


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH_DIR / "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} exited {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def seeds_of(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else float("inf"),
        "values": values,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--out")
    args = parser.parse_args()
    bounds = {
        m["name"]: m["bound"]
        for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    }
    seeds = seeds_of(args.seeds)
    report = {
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "seconds": args.seconds,
        "seeds": seeds,
        "workloads": {},
    }
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        entry = {
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                name: dict(summarise([r["metrics"][name]["value"] for r in runs]), unit=unit)
                for name, unit in ((n, m["unit"]) for n, m in runs[0]["metrics"].items())
            },
        }
        print(f"{workload}: {entry['attempted']} requests, {entry['failed']} failed")
        for name, s in entry["end_to_end"].items():
            flag = "" if s["spread"] <= bounds[name] / 3 else "  (above a third of its bound)"
            print(f"  {name:16s} median {s['median']:<12.6g} spread {s['spread']:.4f}{flag}")
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            entry["per_layer"] = {n: m["value"] for n, m in traced["metrics"].items()}
        report["workloads"][workload] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
