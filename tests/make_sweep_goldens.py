"""Regenerate `goldens/sweeps_micro.json`, the byte-level reports of the
eight theorem suites at the micro grid of `test_sweep_goldens.py`.

    PYTHONPATH=src python3 tests/make_sweep_goldens.py

Run it only when a sweep report is meant to change: the golden test fails
on any byte that differs.  Every suite must report at least one mismatch
under the lying evaluator; the script stops if one does not.
"""

from __future__ import annotations

import json

from test_sweep_goldens import GOLDEN, render
from teamsem.harness import SWEEPS


def main() -> None:
    goldens = {}
    for name in sorted(SWEEPS):
        goldens[name] = render(name, jobs=1)
        if goldens[name]["lying_mismatches"] == 0:
            raise SystemExit(f"{name}: the lying evaluator caused no mismatch")
        print(f"{name}: {goldens[name]['lying_mismatches']} lying mismatches")
    GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
