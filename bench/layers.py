"""Per-call timings of single layer functions, on the workload's own inputs.

Each function is timed alone, in a loop over a seeded sample of inputs
drawn from the workload itself, at the workload's world count: 4 worlds
for ``exhaustive-2atom``, 8 for ``sampled-3atom`` and 16 for
``scenario-4atom``.  Conditional tables stop at 8 worlds, so on
``scenario-4atom`` those two rows use seeded 8-world preorders instead.

Every callable is looked up by name; one that no longer exists is
reported as missing and its row is left out.
"""

from __future__ import annotations

import json
import random
import statistics
import time

import oracle

SAMPLE = 256
CLOSURE_SAMPLE = 48
BUDGET_S = 0.04
REPEATS = 5
# the 4-world table in ROADMAP.md, in microseconds per call
ROADMAP_4_WORLDS = {"tpo.TPO.us": 6.8, "serial.natural.us": 9.4, "serial.lex.us": 16.6,
                    "serial.restrained.us": 20.7, "aggregation.stq.us": 15.7,
                    "parallel.revise_worlds.us": 44.0, "tpo.conditional_set.us": 25.0}


def per_call_us(fn, cases: list[tuple]) -> float:
    """Median over REPEATS of the mean time per call, in microseconds."""
    start = time.perf_counter()
    for args in cases:
        fn(*args)
    once = time.perf_counter() - start
    loops = max(1, int(BUDGET_S / max(once, 1e-9)))
    samples = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        for _ in range(loops):
            for args in cases:
                fn(*args)
        samples.append((time.perf_counter() - start) / (loops * len(cases)) * 1e6)
    return statistics.median(samples)


def _tpo(rf, ranks: list[int]):
    return rf.TPO(tuple(frozenset(block) for block in oracle.blocks_of(ranks)))


def _worlds(mask: int) -> frozenset[int]:
    return frozenset(w for w in range(mask.bit_length()) if (mask >> w) & 1)


def _inputs(rf, workload: str, seed: int, plan) -> dict:
    """Seeded samples of (preorder, input family) pairs, preorder pairs
    for conditional tables, and sentences."""
    rng = random.Random(seed)
    if workload == "exhaustive-2atom":
        space = rf.InstanceSpace(atoms=2)
        families = rng.sample(list(space.instances("pset")), SAMPLE)
        profiles = rng.sample(list(space.instances("profile2")), CLOSURE_SAMPLE)
    elif workload == "sampled-3atom":
        def draws(shape: str, count: int) -> list:
            return list(rf.InstanceSpace(atoms=3, mode="sampled", sample_count=count,
                                         seed=seed).instances(shape))
        families = draws("pset", SAMPLE)
        profiles = draws("profile2", CLOSURE_SAMPLE)
    else:
        families, texts = [], []
        for text in plan.documents:
            doc = json.loads(text)
            for step in doc["steps"]:
                texts.extend(step.get("sentences", [step.get("sentence")]))
            for ranks, masks in oracle.expected_entries(doc)[1]:
                families.append((_tpo(rf, ranks), tuple(_worlds(m) for m in masks)))
            if len(families) >= SAMPLE:
                break
        profiles = [((_tpo(rf, oracle.random_ranks(rng, 8)),
                      _tpo(rf, oracle.random_ranks(rng, 8))),) for _ in range(CLOSURE_SAMPLE)]
        return {"families": families[:SAMPLE], "texts": texts[:SAMPLE],
                "lang": rf.Language(oracle.ATOMS[:4]), "profiles": profiles}
    lang = rf.Language(oracle.ATOMS[:families[0][0].num_worlds.bit_length() - 1])
    texts = [rf.format_formula(rf.canonical_formula(member, lang))
             for _, family in families for member in family][:SAMPLE]
    return {"families": families, "texts": texts, "lang": lang, "profiles": profiles}


def measure(rf, workload: str, seed: int, plan) -> tuple[dict, list[str], dict]:
    """Rows in microseconds per call, notes, and the sample sizes used."""
    data = _inputs(rf, workload, seed, plan)
    families = data["families"]
    lang = data["lang"]
    members = [(t, m) for t, family in families for m in family]
    multi = [(t, family) for t, family in families if len(family) > 1]
    preorders = [(t,) for t, _ in families]
    rows: dict[str, float] = {}
    notes: list[str] = []

    def row(name: str, fn_name: str, make) -> None:
        parts = fn_name.split(".")
        target = rf
        for part in parts:
            target = getattr(target, part, None)
            if target is None:
                notes.append(f"{name}: revforge.{fn_name} is gone; row left out")
                return
        fn, cases = make(target)
        rows[name] = per_call_us(fn, cases)

    row("tpo.TPO.us", "TPO", lambda TPO: (lambda t: TPO(t.blocks), preorders))
    row("tpo.min_of.us", "TPO.min_of", lambda min_of: (min_of, members))
    for name in ("natural", "lex", "restrained"):
        row(f"serial.{name}.us", "get_revision_operator",
            lambda get, name=name: (get(name).revise, members))
    row("serial.natural-contract.us", "get_contraction_operator",
        lambda get: (get("natural-contract").contract, members))
    natural = rf.get_revision_operator("natural")
    profiles = [(tuple(natural.revise(t, m) for m in family),) for t, family in multi]
    for name in ("stq", "round-robin", "first-then-full"):
        row(f"aggregation.{name}.us", "make_strategy",
            lambda make, name=name: (rf.Aggregator(make(name)).aggregate, profiles))
    row("parallel.revise_worlds.us", "default_parallel_revision",
        lambda make: (make().revise_worlds, multi))
    row("parallel.contract_worlds.us", "default_parallel_contraction",
        lambda make: (make().contract_worlds, multi))

    pairs = data["profiles"]
    row("tpo.conditional_set.us", "conditional_set",
        lambda cs: (cs, [(t,) for (profile,) in pairs for t in profile]))
    row("tpo.rational_closure.us", "rational_closure",
        lambda rc: (rc, [(rf.conditional_set(a).intersect(rf.conditional_set(b)),)
                         for ((a, b),) in pairs]))
    if workload == "scenario-4atom":
        notes.append("tpo.conditional_set.us, tpo.rational_closure.us: timed at 8 worlds, "
                     "the largest size conditional tables support")

    texts = [(text, lang) for text in data["texts"]]
    row("logic.parse_formula.us", "parse_formula", lambda parse: (parse, texts))
    formulas = [(rf.parse_formula(text, lang), lang) for text, _ in texts]
    row("logic.models.us", "models", lambda models: (models, formulas))

    sizes = {"families": len(families), "multi_member_families": len(multi),
             "members": len(members), "closure_profiles": len(pairs), "sentences": len(texts)}
    return rows, notes, sizes


def compare_with_roadmap(rows: dict, worlds: int) -> list[dict]:
    """Measured 4-world rows against the table in ROADMAP.md."""
    if worlds != 4:
        return []
    out = []
    for name, reference in ROADMAP_4_WORLDS.items():
        if name in rows:
            ratio = rows[name] / reference
            out.append({"metric": name, "measured_us": rows[name], "roadmap_us": reference,
                        "ratio": ratio, "large_disagreement": not 0.5 <= ratio <= 2.0})
    return out
