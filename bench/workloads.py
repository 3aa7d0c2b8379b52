"""The three workloads: seeded inputs, the closed loop, and output checks.

Every workload is one process and one caller that waits for each result
before sending the next request.  A request is one verdict on the two
sweeps and one scenario document on ``scenario-4atom``.

revforge is imported inside functions, never at module level, so that
set-up can be timed from a fresh import several times in one process.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable, Optional

import oracle

OPERATORS = ("natural", "lex", "restrained")
STRATEGIES = ("stq", "round-robin", "first-then-full")
SOUND_IDS = ("Conj-star", "PC3", "PC4", "C-star-1", "C-star-2", "C-star-3", "C-star-4",
             "S-star", "GR-star")
CONTRACTION_IDS = ("C-con-1", "C-con-2", "C-con-3", "C-con-4")
# (semantic, syntactic) agreement pairs, as the catalog lists them
PAIRS = (("C-star-1", "C-star-1-b"), ("C-star-2", "C-star-2-b"), ("C-star-3", "C-star-3-b"),
         ("C-star-4", "C-star-4-b"), ("PC3", "PC3-b"), ("PC4", "PC4-b"))
# share of the 75 prior orders over 4 worlds that the exhaustive block
# sweeps, taken from each stratum of orders with the same block sizes
PRIOR_SHARE = 0.25
# the rest of the exhaustive block counts every instance it generates;
# S-star and GR-star count those in their domain, which the benchmark
# works out itself with oracle.counted_by_domain
DOMAIN_LIMITED = ("S-star", "GR-star")
# seeded 3-atom draws per verdict, about half of criterion 3's; S-star and
# GR-star draw more because they skip instances outside their domain
SAMPLED_DRAWS = {**{pid: 4_800 for pid in SOUND_IDS}, "S-star": 7_200, "GR-star": 5_280}
IND_DRAWS = 4_800
RC_PROFILES = 96
# documents per second of --seconds; fixed, so the same arguments
# always give the same inputs
DOCS_PER_SECOND = 400
WORKLOADS = ("exhaustive-2atom", "sampled-3atom", "scenario-4atom")
WORLDS = {"exhaustive-2atom": 4, "sampled-3atom": 8, "scenario-4atom": 16}


def transversal(seed: int) -> list[tuple[str, str, str]]:
    """Three of the 27 base x finisher x strategy combinations.

    Each base, finisher and strategy appears exactly once, so every run
    covers every operator at nearly the same cost; the cost of one
    combination depends mostly on its base operator.  Each of the 27
    combinations belongs to 4 of the 36 possible triples.  The order is
    fixed by base so that runs differ only in which combinations they make.
    """
    choices = [(f, s) for f in permutations(OPERATORS) for s in permutations(STRATEGIES)]
    finishers, strategies = random.Random(seed).choice(choices)
    return [(OPERATORS[i], finishers[i], strategies[i]) for i in range(3)]


# --- sweeps ---------------------------------------------------------------

@dataclass
class Verdict:
    """One request of a sweep: a catalog check, an agreement pair or rc-identity."""

    name: str                     # metric-safe id
    call: str                     # "check", "pair" or "rc"
    postulate: str
    space: object
    group: Optional[int] = None   # index of the shared CheckContext, if any
    companion: str = ""           # syntactic form of a pair
    expect_checked: Optional[int] = None   # filled in by expect_domain_counts when None
    shape: str = "pset"


@dataclass
class SweepPlan:
    verdicts: list[Verdict]
    configs: list                 # OperatorConfig per context group
    contexts: list                # CheckContext per group, consumed by the run
    combos: list = field(default_factory=list)


def prior_sample(tpos: list, seed: int) -> list:
    """A seeded PRIOR_SHARE of ``tpos``, at least one from each stratum of
    orders with the same block sizes, in enumeration order.

    Orders with the same block sizes are relabelings of one another's
    worlds, so sweeping one costs about what sweeping another does, and
    every seed's sample costs about the same.
    """
    strata: dict = {}
    for i, t in enumerate(tpos):
        strata.setdefault(tuple(len(block) for block in t.blocks), []).append(i)
    rng = random.Random(seed)
    keep: list[int] = []
    for key in sorted(strata):
        members = strata[key]
        keep += rng.sample(members, max(1, round(len(members) * PRIOR_SHARE)))
    return [tpos[i] for i in sorted(keep)]


def _prior_sample_space(rf, seed: int):
    """A factory of exhaustive 2-atom spaces over a seeded sample of prior orders.

    For the sampled prior orders, each space yields what
    ``InstanceSpace(atoms=2)`` yields, in the same order: the prior order
    outermost, then every input family, or every second order of a
    profile.  The orders and families are read off the package's streams.
    """
    full = rf.InstanceSpace(atoms=2)
    tpos = list(dict.fromkeys(t for t, _ in full.instances("pset")))
    first = tpos[0]
    psets = [s for t, s in full.instances("pset") if t == first]
    csets = [s for t, s in full.instances("cset") if t == first]
    priors = prior_sample(tpos, seed)
    streams = {
        "pset": lambda: ((t, s) for t in priors for s in psets),
        "cset": lambda: ((t, s) for t in priors for s in csets),
        "pset2": lambda: ((t, a, b) for t in priors for a in psets for b in psets),
        "profile2": lambda: (((a, b),) for a in priors for b in tpos),
    }

    class PriorSample(rf.InstanceSpace):
        """InstanceSpace(atoms=2) limited to the sampled prior orders."""

        def describe(self) -> dict:
            return {**super().describe(), "prior_orders": len(priors)}

        def instances(self, shape: str):
            return streams[shape]()

    sizes = {"pset": len(priors) * len(psets), "cset": len(priors) * len(csets),
             "profile2": len(priors) * len(tpos)}
    return PriorSample, sizes


def _exhaustive_plan(rf, seed: int) -> SweepPlan:
    verdicts: list[Verdict] = []
    configs = []
    combos = transversal(seed)
    space_of, sizes = _prior_sample_space(rf, seed)
    for group, (base, finisher, strategy) in enumerate(combos):
        config = rf.OperatorConfig(base=base, finisher=finisher, strategy=strategy)
        space = space_of(atoms=2, operators=config)
        configs.append(config)
        for pid in SOUND_IDS:
            shape = "pset2" if pid == "S-star" else "pset"
            expect = None if pid in DOMAIN_LIMITED else sizes[shape]
            verdicts.append(Verdict(pid, "check", pid, space, group, shape=shape,
                                    expect_checked=expect))
        for semantic, syntactic in PAIRS:
            verdicts.append(Verdict(f"{semantic}-pair", "pair", semantic, space, group,
                                    companion=syntactic, expect_checked=sizes["pset"]))
        if base in ("lex", "restrained") and finisher in ("lex", "restrained"):
            verdicts.append(Verdict("Ind-star", "check", "Ind-star", space, group,
                                    expect_checked=sizes["pset"]))
        for pid in CONTRACTION_IDS:
            verdicts.append(Verdict(pid, "check", pid, space, group, shape="cset",
                                    expect_checked=sizes["cset"]))
    verdicts.append(Verdict("rc-identity", "rc", "rc-identity", space_of(atoms=2),
                            shape="profile2", expect_checked=sizes["profile2"]))
    contexts = [rf.CheckContext(verdicts[0].space.lang, c) for c in configs]
    return SweepPlan(verdicts, configs, contexts, combos)


def _sampled_plan(rf, seed: int) -> SweepPlan:
    verdicts: list[Verdict] = []
    configs = []

    def add(pid: str, draws: int, config, **expect) -> None:
        space = rf.InstanceSpace(atoms=3, mode="sampled", sample_count=draws, seed=seed,
                                 operators=config)
        shape = "pset2" if pid == "S-star" else "pset"
        verdicts.append(Verdict(pid, "check", pid, space, len(configs), shape=shape, **expect))
        configs.append(config)

    # criterion 3 checks each postulate with a context of its own
    for pid, draws in SAMPLED_DRAWS.items():
        add(pid, draws, rf.OperatorConfig(),
            expect_checked=None if pid in DOMAIN_LIMITED else draws)
    add("Ind-star", IND_DRAWS, rf.OperatorConfig(base="lex", finisher="lex"),
        expect_checked=IND_DRAWS)
    rc_space = rf.InstanceSpace(atoms=3, mode="sampled", sample_count=RC_PROFILES, seed=seed)
    verdicts.append(Verdict("rc-identity", "rc", "rc-identity", rc_space, shape="profile2",
                            expect_checked=RC_PROFILES))
    contexts = [rf.CheckContext(verdicts[0].space.lang, c) for c in configs]
    return SweepPlan(verdicts, configs, contexts)


def expect_domain_counts(plan: SweepPlan) -> None:
    """Set the count each S-star and GR-star verdict must report.

    The benchmark iterates the verdict's instance stream itself and
    applies the postulate's domain condition, so the expected count does
    not come from the engine.  Spaces that generate the same stream share
    one count.
    """
    known: dict = {}
    for v in plan.verdicts:
        if v.postulate not in DOMAIN_LIMITED:
            continue
        s = v.space
        key = (v.postulate, type(s), s.atoms, s.mode, s.seed, s.sample_count, s.max_set_size)
        if key not in known:
            known[key] = sum(1 for inst in s.instances(v.shape)
                             if oracle.counted_by_domain(v.postulate, inst, s.num_worlds))
        v.expect_checked = known[key]


@dataclass
class Outcome:
    """One request: how long it took, a comparable form of its result, and
    what was wrong with it."""

    name: str
    seconds: float
    output: object = None
    checked: int = 0
    steps: int = 0
    problems: list = field(default_factory=list)


def _no_span(name: str, request: int):
    return nullcontext()


def _report_key(report) -> dict:
    data = report.to_json_dict()
    data.pop("elapsed_ms", None)
    data.update(kind=report.kind, expected=report.expected, total_hits=report.total_hits,
                holds=report.holds, matches_expected=report.matches_expected())
    return data


def _verdict_problems(v: Verdict, report) -> list[str]:
    """The verdict must be the documented one, over the known instance count."""
    problems = []
    if not report.matches_expected():
        problems.append(f"{v.name}: outcome {report.outcome}, expected {report.expected}")
    if report.checked != v.expect_checked:
        problems.append(f"{v.name}: checked {report.checked} != {v.expect_checked}")
    return problems


def run_sweep(rf, plan: SweepPlan, span: Callable = _no_span) -> list[Outcome]:
    """Run every verdict in order; a context is dropped after its last use."""
    last_use = {v.group: i for i, v in enumerate(plan.verdicts) if v.group is not None}
    outcomes = []
    for i, v in enumerate(plan.verdicts):
        ctx = plan.contexts[v.group] if v.group is not None else None
        start = time.perf_counter()
        try:
            with span(f"catalog.{v.name}", i):
                if v.call == "check":
                    report = rf.check(v.postulate, v.space, first=True, ctx=ctx)
                elif v.call == "pair":
                    report = rf.check_equivalence_pair(v.postulate, v.companion, v.space, ctx=ctx)
                else:
                    report = rf.verify_rc_identity(v.space)
        except Exception as exc:  # a raising verdict is a failed request, not a crash
            outcomes.append(Outcome(v.name, time.perf_counter() - start,
                                    problems=[f"{v.name}: raised {exc!r}"]))
        else:
            outcomes.append(Outcome(v.name, time.perf_counter() - start,
                                    output=_report_key(report), checked=report.checked,
                                    problems=_verdict_problems(v, report)))
        if v.group is not None and last_use[v.group] == i:
            plan.contexts[v.group] = None
    return outcomes


# --- scenarios ------------------------------------------------------------

@dataclass
class ScenarioPlan:
    documents: list[str]


def documents(seed: int, seconds: float) -> list[str]:
    """The workload's JSON documents; generating them is not revforge's set-up."""
    return oracle.generate_documents(seed, max(20, round(seconds * DOCS_PER_SECOND)))


def _document_problems(i: int, text: str, rendered: str, replayed: str) -> list[str]:
    """Every entry against the rank oracle; replay must reproduce the JSON."""
    problems = []
    if replayed != rendered:
        problems.append(f"document {i}: replay differs from to_json")
    doc = json.loads(text)
    data = json.loads(rendered)
    if data.get("scenario") != doc:
        problems.append(f"document {i}: trace does not embed its document")
    want, _ = oracle.expected_entries(doc)
    got = data.get("entries", [])
    if len(got) != len(want):
        problems.append(f"document {i}: {len(got)} entries, expected {len(want)}")
    for j, (g, w) in enumerate(zip(got, want)):
        if g != w:
            problems.append(f"document {i} entry {j}: {g} != oracle {w}")
            break
    return problems


def run_scenarios(rf, plan: ScenarioPlan, span: Callable = _no_span,
                  prepare: Callable = None) -> list[Outcome]:
    """loads -> run -> to_json -> replay for every document, in order.

    Each document is checked after its timed request and before the next
    one.  ``prepare`` may swap the parsed scenario for an equivalent one,
    which is how the traced run slots in timed operators.
    """
    outcomes = []
    for i, text in enumerate(plan.documents):
        start = time.perf_counter()
        try:
            with span("document", i):
                with span("scenario.loads", i):
                    scenario = rf.loads_scenario(text)
                if prepare:
                    scenario = prepare(scenario)
                with span("scenario.run", i):
                    trace = rf.run_scenario(scenario)
                with span("scenario.to_json", i):
                    rendered = trace.to_json()
                with span("scenario.replay", i):
                    replayed = trace.replay().to_json()
        except Exception as exc:  # a raising document is a failed request
            outcomes.append(Outcome("document", time.perf_counter() - start,
                                    problems=[f"document {i}: raised {exc!r}"]))
            continue
        seconds = time.perf_counter() - start
        outcomes.append(Outcome("document", seconds, output=hash(rendered),
                                steps=len(scenario.steps),
                                problems=_document_problems(i, text, rendered, replayed)))
    return outcomes


# --- dispatch -------------------------------------------------------------

def build(rf, workload: str, seed: int, texts: list[str]):
    """Everything revforge needs before a workload's first timed call.

    The sweeps build their spaces and contexts; documents arrive as text
    and are parsed inside each timed request.
    """
    if workload == "exhaustive-2atom":
        return _exhaustive_plan(rf, seed)
    if workload == "sampled-3atom":
        return _sampled_plan(rf, seed)
    return ScenarioPlan(texts)


def run(rf, workload: str, plan, **hooks) -> list[Outcome]:
    if workload == "scenario-4atom":
        return run_scenarios(rf, plan, **hooks)
    return run_sweep(rf, plan, **hooks)
