"""Byte-level goldens for the syntactic rewrites over four corpora.

The corpora are the translation sweep's (the translation atoms at depth
three), possibility over every body of the possibility sweep's corpus,
the six definability instances of the two definable negative atoms, and
`nested`: the constructs the translation sweep never builds (nested
possibility, restrictions under universals, constancy over possibility)
around depth-two bodies that also use the definable negative atoms.
For each corpus `goldens/rewrites.json` holds the formula count and, per
view, the sha256 of the `pretty` lines of that view over the corpus:
`translate` (its sentence, clean form and prefix, raw and simplified),
`flatten`, `desugar_possibility` and `desugar_negated_atoms`.  A formula
the translator rejects contributes its error message instead.  The file
also pins the atom catalog and the defining sentence of every built-in
atom at every group width of one or two.  Fresh names appear in the
printed output, so the order in which every rewrite draws them is pinned
as well.

Regenerate the golden file, only when a rewrite is meant to change, with

    PYTHONPATH=src python3 tests/make_rewrite_goldens.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
import pathlib

import pytest

from teamsem.atoms import DEFAULT_REGISTRY, AtomError
from teamsem.harness import (
    DEFAULT_TRANSLATION_ATOMS,
    POSSIBILITY_ATOMS,
    generate_formulas,
)
from teamsem.syntax import (
    And,
    DepAtom,
    Exists,
    Forall,
    Possibly,
    RestrictedBy,
    desugar_possibility,
    flatten,
    free_variables,
    parse,
    pretty,
)
from teamsem.translator import TranslationError, desugar_negated_atoms, translate

GOLDEN = pathlib.Path(__file__).parent / "goldens" / "rewrites.json"
SIGNATURE = {"P": 1}
VARS = ("x", "y")
DEFINABILITY = (
    "nonincl(x; y)",
    "nonincl(y; x)",
    "noncindep(x; y | z)",
    "noncindep(x; y | y)",
    "noncindep(x; y | x)",
    "noncindep(x; x | y)",
)
GUARDS = ("x = y", "P(x)", "E z. (P(z) /\\ z != x)")


def corpora() -> dict[str, list]:
    bodies = generate_formulas(
        POSSIBILITY_ATOMS, SIGNATURE, 2, VARS, binary_cap=3, mix_cap=2, quant_cap=2
    )
    return {
        "translation": generate_formulas(DEFAULT_TRANSLATION_ATOMS, SIGNATURE, 3, VARS),
        "possibility": [Possibly(body) for body in bodies],
        "definability": [parse(text) for text in DEFINABILITY],
        "nested": nested(),
    }


def nested() -> list:
    """Restrictions, plain and under a universal, around every fourth
    depth-two body; `poss(b)`, `poss(poss(b))` and `E y. (const(y) /\\
    poss(b))` around every eighth, since possibility is what makes a
    translation slow."""
    bodies = generate_formulas(
        DEFAULT_TRANSLATION_ATOMS + ("nonincl", "noncindep"),
        SIGNATURE, 2, VARS, binary_cap=3, mix_cap=2, quant_cap=2,
    )
    guards = [parse(text) for text in GUARDS]
    out = []
    for b in bodies[::4]:
        out.extend(RestrictedBy(b, g) for g in guards)
        out.extend(Forall("y", RestrictedBy(b, g)) for g in guards)
    const_y = DepAtom("const", (("y",),))
    for b in bodies[::8]:
        out += [Possibly(b), Possibly(Possibly(b)), Exists("y", And(const_y, Possibly(b)))]
    return out


def _translated(phi, simplify_output: bool) -> dict[str, str]:
    try:
        res = translate(phi, tuple(sorted(free_variables(phi))), simplify_output=simplify_output)
    except TranslationError as err:
        return dict.fromkeys(("sentence", "clean", "prefix"), f"error: {err}")
    return {
        "sentence": pretty(res.sentence),
        "clean": pretty(res.clean_formula),
        "prefix": " ".join(res.prefix_vars),
    }


def views(phi) -> dict[str, str]:
    """Every pinned rendering of one formula, by view name."""
    out = {"formula": pretty(phi)}
    for label, simplify_output in (("translate", False), ("translate_simplified", True)):
        for key, text in _translated(phi, simplify_output).items():
            out[f"{label}.{key}"] = text
    out["flatten"] = pretty(flatten(phi))
    out["desugar_possibility"] = pretty(desugar_possibility(phi))
    out["desugar_negated_atoms"] = pretty(desugar_negated_atoms(phi))
    return out


def _sha256(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def render(formulas: list) -> dict:
    """The golden entry of one corpus, computed now."""
    rows = [views(phi) for phi in formulas]
    return {
        "count": len(rows),
        "views": {name: _sha256(row[name] for row in rows) for name in rows[0]},
    }


def render_catalog() -> str:
    return _sha256([json.dumps(DEFAULT_REGISTRY.catalog(), sort_keys=True)])


def render_definitions() -> str:
    lines = []
    for row in DEFAULT_REGISTRY.catalog():
        for widths in itertools.product((1, 2), repeat=row["groups"]):
            try:
                d = DEFAULT_REGISTRY.resolve(
                    row["name"], widths, 2 if row["parameterized"] else None
                )
            except AtomError:  # groups that must have equal widths
                continue
            lines.append(f"{d.name}{widths}: {pretty(d.fo_definition)}")
    return _sha256(lines)


@pytest.mark.parametrize("name", ["translation", "possibility", "definability", "nested"])
def test_corpus_rewrites_match_golden(name):
    golden = json.loads(GOLDEN.read_text())["corpora"][name]
    got = render(corpora()[name])
    assert got["count"] == golden["count"]
    assert got["views"] == golden["views"]


def test_atom_catalog_and_definitions_match_golden():
    golden = json.loads(GOLDEN.read_text())
    assert render_catalog() == golden["catalog_sha256"]
    assert render_definitions() == golden["definitions_sha256"]
