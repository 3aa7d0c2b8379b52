"""The mask route of formulas and scenario runs against the frozenset route.

``model_mask`` must agree with per-world ``evaluate`` and with the set
algebra of ``reference_core.models`` on seeded random formulas at 1-5
atoms.  ``run_scenario``, which steps through the pipeline's mask entry
and answers queries on masks, must give the entries of
``reference_core.scenario_entries``, which steps through
``revise_worlds``/``contract_worlds`` on frozensets, on seeded 4-atom
documents.  The ``FormulaSet`` and ``apply`` entry points must give the
orders, culprit labels and typed errors of their frozenset versions over
a language of the order's width, and the width error over a wider one.
"""

import json
import random

import pytest

import reference_core as ref
from revforge import (NATURAL, NATURAL_CONTRACT, REVISION_OPERATORS, STRATEGIES, TPO,
                      Aggregator, FormulaSet, Language, LanguageError,
                      ParallelContractionOperator, ParallelRevisionOperator,
                      PartitionError, Scenario,
                      entails, evaluate, format_formula, is_consistent, model_mask, models,
                      run_scenario)
from revforge.logic import BOTTOM, TOP, And, Atom, Iff, Implies, Not, Or
from revforge.tpo import worlds_of

ATOMS = ("A", "B", "C", "D", "E")


def random_formula(rng: random.Random, atoms, depth: int):
    if depth == 0 or rng.random() < 0.25:
        return rng.choice([Atom(a) for a in atoms] + [TOP, BOTTOM])
    kind = rng.choice((Not, And, Or, Implies, Iff))
    if kind is Not:
        return Not(random_formula(rng, atoms, depth - 1))
    return kind(random_formula(rng, atoms, depth - 1), random_formula(rng, atoms, depth - 1))


def outcome(call):
    """What ``call()`` returns, or the type and message of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


# --- formulas ---

@pytest.mark.parametrize("count", range(1, 6))
def test_model_mask_agrees_with_evaluate_and_the_set_algebra(count):
    lang = Language(ATOMS[:count])
    rng = random.Random(800 + count)
    for _ in range(300):
        f = random_formula(rng, lang.atoms, 4)
        mask = model_mask(f, lang)
        expected = ref.models(f, lang)
        assert worlds_of(mask) == expected == models(f, lang)
        assert mask == sum(1 << w for w in lang.worlds() if evaluate(f, w, lang))
        g = random_formula(rng, lang.atoms, 3)
        assert entails(f, g, lang) == (expected <= ref.models(g, lang))
        assert is_consistent(f, lang) == bool(expected)


def test_unknown_atoms_raise_language_error():
    lang = Language(("A", "B"))
    for f in (Atom("C"), Not(Atom("C")), And(Atom("A"), Or(TOP, Atom("C")))):
        with pytest.raises(LanguageError, match="unknown atom 'C'"):
            model_mask(f, lang)
        with pytest.raises(LanguageError, match="unknown atom 'C'"):
            models(f, lang)


def test_atom_masks_of_the_widest_language():
    lang = Language(tuple(f"p{i}" for i in range(16)))
    for name in ("p0", "p7", "p15"):
        shift = 15 - lang.atom_index(name)
        mask = lang.atom_mask(name)
        assert mask.bit_count() == 1 << 15
        assert all(mask >> w & 1 == w >> shift & 1 for w in range(0, 1 << 16, 997))


# --- the FormulaSet and apply entry points ---

def test_formula_set_entry_points_match_their_frozenset_versions():
    """Orders, culprit labels and typed errors, including inconsistent
    families.  A family over a wider language than the order raises the
    width error from every formula entry, whatever its worlds."""
    rng = random.Random(815)
    lang2, lang3 = Language(ATOMS[:2]), Language(ATOMS[:3])
    wider = (PartitionError, "language has 8 worlds, preorder has 4")
    for _ in range(300):
        t = TPO.from_ranks([rng.randrange(3) for _ in range(4)])
        lang = lang3 if rng.random() < 0.2 else lang2
        s = FormulaSet(lang, (random_formula(rng, lang.atoms, 2)
                              for _ in range(rng.randrange(4))))
        sets = tuple(ref.models(m, lang) for m in s)
        prev = ParallelRevisionOperator(rng.choice(list(REVISION_OPERATORS.values())),
                                        NATURAL, Aggregator(rng.choice(list(STRATEGIES.values()))))
        pcon = ParallelContractionOperator(NATURAL_CONTRACT, prev.aggregator)

        def expect(call):
            return (lambda: wider) if lang is lang3 else call

        assert outcome(lambda: prev.revise(t, s)) == outcome(expect(
            lambda: prev.revise_worlds(t, sets, labels=[str(m) for m in s])))
        assert outcome(lambda: pcon.contract(t, s)) == outcome(expect(
            lambda: pcon.contract_worlds(t, sets)))
        for m, sat in zip(s, sets):
            assert outcome(lambda: prev.base.apply(t, m, lang)) == outcome(expect(
                lambda: prev.base.revise(t, sat)))
            assert outcome(lambda: NATURAL_CONTRACT.apply(t, m, lang)) == outcome(expect(
                lambda: NATURAL_CONTRACT.contract(t, sat)))


# --- scenario runs ---

def random_document(rng: random.Random) -> dict:
    atoms = list(ATOMS[:4])
    names = [format(w, "04b") for w in range(16)]

    def sentence():
        return format_formula(random_formula(rng, atoms, 3))

    def queries():
        out = []
        for kind in rng.sample(("believes", "conditional", "compare", "show-tpo"), 2):
            if kind == "believes":
                out.append({"type": kind, "sentence": sentence()})
            elif kind == "conditional":
                out.append({"type": kind, "given": sentence(), "then": sentence()})
            elif kind == "compare":
                out.append({"type": kind, "left": rng.choice(names), "right": rng.choice(names)})
            else:
                out.append({"type": kind})
        return out

    doc = {"version": 1, "atoms": atoms,
           "operators": {"base": rng.choice(list(REVISION_OPERATORS)),
                         "finisher": rng.choice(list(REVISION_OPERATORS)),
                         "agg": rng.choice(list(STRATEGIES))},
           "initial_queries": queries(), "steps": []}
    if rng.random() < 0.7:
        ranks = [rng.randrange(4) for _ in names]
        doc["initial"] = [[n for n, r in zip(names, ranks) if r == level]
                          for level in sorted(set(ranks))]
    for _ in range(rng.randrange(3, 7)):
        op = rng.choice(("revise-set", "contract-set", "serial-revise", "serial-contract"))
        step = {"op": op, "queries": queries()}
        if op.endswith("-set"):
            step["sentences"] = [sentence() for _ in range(rng.randrange(1, 4))]
        else:
            step["sentence"] = sentence()
        doc["steps"].append(step)
    return doc


def test_mask_run_matches_the_frozenset_run_on_four_atom_documents():
    rng = random.Random(821)
    completed = 0
    for _ in range(150):
        scenario = Scenario.from_dict(random_document(rng))
        want = outcome(lambda: ref.scenario_entries(scenario))
        got = outcome(lambda: run_scenario(scenario))
        if isinstance(want, list):
            completed += 1
            assert got.to_json_dict()["entries"] == want
            assert got.to_json() == json.dumps(got.to_json_dict(), indent=2)
        else:
            assert got == want
    # most documents run to the end, so the comparison covers every step kind
    assert completed >= 75
