"""Regenerate `goldens/rewrites.json`, the rendered rewrites of the four
corpora of `test_rewrite_goldens.py`, the atom catalog and the atom
definitions.

    PYTHONPATH=src python3 tests/make_rewrite_goldens.py

Run it only when a rewrite is meant to change: the golden test fails on
any byte that differs.
"""

from __future__ import annotations

import json

from test_rewrite_goldens import GOLDEN, corpora, render, render_catalog, render_definitions


def main() -> None:
    goldens = {
        "catalog_sha256": render_catalog(),
        "definitions_sha256": render_definitions(),
        "corpora": {name: render(formulas) for name, formulas in corpora().items()},
    }
    for name, entry in goldens["corpora"].items():
        print(f"{name}: {entry['count']} formulas")
    GOLDEN.write_text(json.dumps(goldens, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
