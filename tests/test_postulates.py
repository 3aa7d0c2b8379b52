"""Catalog, instance spaces, and the checking engine."""

import functools
import gc
import hashlib
import itertools
import json
import operator
import random
import re
import tracemalloc
import weakref
from dataclasses import replace

import pytest

from revforge import (CATALOG, Aggregator, CheckContext, CheckReport,
                      EQUIVALENCE_PAIRS, InconsistentInputError, InstanceSpace,
                      Language, NATURAL_CONTRACT, OperatorConfig,
                      ParallelContractionOperator, ParallelRevisionOperator,
                      REVISION_OPERATORS, RevforgeError, STQ_STRATEGY, SelectionStrategy,
                      SerialContractionOperator, SerialRevisionOperator, SpaceError, TPO,
                      UnknownOperatorError, UnknownPostulateError, check, check_equivalence_pair,
                      default_parallel_revision, find_countermodel,
                      get_revision_operator, make_strategy, replay_witness,
                      verify_rc_identity)
from revforge.aggregation import _team_round_robin
from revforge.postulates import (all_propositions, catalog, engine, enumerate_tpos,
                                 formula_set_tuples, random_tpo)
from revforge.postulates.catalog import PAIR_CHECKS, SYNTACTIC_FORMS
from revforge.postulates.engine import render_value
from revforge.postulates.spaces import (DEFAULT_SEED, MAX_EXHAUSTIVE_ATOMS, SHAPES,
                                        decode_instance, encode_instance, language)
from revforge.serial import natural_revise
from revforge.logic import models
from revforge.tpo import conditional_set, mask_of

from conftest import tpo


def member_masks(s, n=4):
    """The member masks of the family ``s`` over ``n`` worlds, as
    ``ctx.previse`` and ``ctx.pcontract`` take them."""
    return tuple(mask_of(m, n) for m in s)

SERIAL_IDS = {"K1", "K2", "K3", "K4", "K5", "K6",
              "CR1", "CR2", "CR3", "CR4", "Ind", "LI-serial", "HI-serial"}
SERIAL2_IDS = {"K7", "K8"}
SERCON_IDS = {"CC1", "CC2", "CC3", "CC4"}
PACKAGE_IDS = {"Conj-star", "K-star-1", "K-star-2", "K-star-3", "K-star-4",
               "K-star-5", "K-star-6", "K-star-6-minus",
               "C-star-1", "C-star-2", "C-star-2-plus", "C-star-3", "C-star-4",
               "PC3", "PC4", "Ind-star", "GR-star", "LI-star"}
PSET2_IDS = {"K-star-7", "K-star-8", "S-star", "P-star"}
CSET_IDS = {"C-con-1", "C-con-2", "C-con-3", "C-con-4", "DiP", "HI-star"}
PROFILE_IDS = {"UB", "LB", "SPU", "WPU", "Factoring", "Parity"}

ALL_IDS = (SERIAL_IDS | SERIAL2_IDS | SERCON_IDS | PACKAGE_IDS | PSET2_IDS
           | CSET_IDS | PROFILE_IDS)


# --- catalog shape ---

def test_catalog_is_exactly_the_documented_family():
    assert set(CATALOG) == ALL_IDS
    assert len(CATALOG) == 53


def test_catalog_shapes_and_kinds():
    for pid in SERIAL_IDS:
        assert CATALOG[pid].shape == "serial"
    for pid in SERIAL2_IDS:
        assert CATALOG[pid].shape == "serial2"
    for pid in SERCON_IDS:
        assert CATALOG[pid].shape == "sercon"
    for pid in PACKAGE_IDS:
        assert CATALOG[pid].shape == "pset"
    for pid in PSET2_IDS:
        assert CATALOG[pid].shape == "pset2"
    for pid in CSET_IDS:
        assert CATALOG[pid].shape == "cset"
    for pid in PROFILE_IDS:
        assert CATALOG[pid].shape == "profile2"
    existential = {pid for pid in CATALOG if CATALOG[pid].kind == "existential"}
    assert existential == {"DiP"}


def test_equivalence_pairs_have_syntactic_forms():
    assert set(EQUIVALENCE_PAIRS) == {"C-star-1", "C-star-2", "C-star-3",
                                      "C-star-4", "PC3", "PC4"}
    assert set(EQUIVALENCE_PAIRS.values()) == set(SYNTACTIC_FORMS)


def test_expected_statuses():
    natural = OperatorConfig()
    lexical = OperatorConfig(revision="lex", base="lex", finisher="lex")
    assert CATALOG["Ind"].expected_for(natural) == "violated"
    assert CATALOG["Ind"].expected_for(lexical) == "sound"
    assert CATALOG["C-star-2-plus"].expected_for(natural) == "violated"
    assert CATALOG["P-star"].expected_for(lexical) == "violated"
    assert CATALOG["Ind-star"].expected_for(lexical) == "sound"
    assert CATALOG["Ind-star"].expected_for(natural) != "sound"
    assert CATALOG["Parity"].expected_for(natural) == "sound"
    rr = OperatorConfig(strategy="round-robin")
    assert CATALOG["Parity"].expected_for(rr) == "exploratory"
    # Parity's expectation goes by the teams, not the strategy's name
    assert CATALOG["Parity"].expected_for(OperatorConfig(strategy=IMPOSTOR)) == "exploratory"
    assert CATALOG["Parity"].expected_for(OperatorConfig(strategy=RENAMED_STQ)) == "sound"
    assert CATALOG["K2"].expected_for(natural) == "sound"


# --- instance spaces ---

def test_all_propositions_counts_and_order():
    props = all_propositions(4)
    assert len(props) == 15
    assert props[0] == frozenset({0})
    assert frozenset() not in props
    assert props[-1] == frozenset({0, 1, 2, 3})


def test_propositions_are_one_shared_table():
    props = all_propositions(8)
    assert all_propositions(8) is props
    assert [mask_of(p, 8) for p in props] == list(range(1, 256))


def test_sampled_stream_is_pinned():
    """The sampled stream draws the same instances, in the same order, as
    when each proposition was read from a table of every world set."""
    space = InstanceSpace(atoms=3, mode="sampled", sample_count=400, seed=5, max_set_size=3)
    stream = repr(list(space.instances("pset2")))
    assert hashlib.sha256(stream.encode()).hexdigest() == (
        "dbb31c1489471ecb9ba4250569d081f700abe50d4b4d6ad611bf87be6bae1c42")


def test_a_four_atom_sweep_builds_no_table_of_world_sets():
    """A context and a sampled sweep hold only the world sets they meet:
    a 4-atom context and 200 C-star-3 instances stay under 5 MB, where a
    table of all 65,536 world sets took about 52 MB."""
    space = InstanceSpace(atoms=4, mode="sampled", sample_count=200, seed=5, max_set_size=3)
    tracemalloc.start()
    try:
        report = check("C-star-3", space, ctx=CheckContext.from_space(space))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == 200 and report.holds
    assert peak < 5_000_000


def test_the_checker_builds_no_table_of_world_sets():
    """Plans turn a family into masks and the syntactic forms range over
    masks, so a sampled sweep never fills ``all_propositions``."""
    all_propositions.cache_clear()
    space = InstanceSpace(atoms=3, mode="sampled", sample_count=5, seed=19, max_set_size=3)
    ctx = CheckContext.from_space(space)
    for pid in ("PC3-pair", "C-star-3-pair"):
        assert check(pid, space, ctx=ctx).checked == 5
    assert all_propositions.cache_info().currsize == 0


def test_k6_builds_the_canonical_formula_of_each_input(monkeypatch):
    """K6 revises by variants of the canonical formula of its input's
    mask, which it builds itself, once per instance: the context keeps no
    table of formulas."""
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    built, shipped = [], catalog.canonical_formula

    def recording(worlds, lang):
        built.append(worlds)
        formula = shipped(worlds, lang)
        assert models(formula, lang) == worlds
        return formula

    monkeypatch.setattr(catalog, "canonical_formula", recording)
    assert check("K6", space, ctx=ctx).holds
    assert len(built) == 75 * 15 and set(built) == set(all_propositions(4))
    assert not hasattr(ctx, "canonical")


class _Fields(list):
    """A plan's fields in an object a weak reference can follow."""


def _counted(monkeypatch, pid: str, calls: dict, kept: list | None = None) -> None:
    """Put in ``CATALOG`` a copy of entry ``pid`` whose plan and body count
    their calls in ``calls``; given ``kept``, the plan hands the body its
    fields in a ``_Fields`` and keeps a weak reference to each."""
    entry = CATALOG[pid]
    calls.update(plan=0, body=0)

    def plan(full, *inputs):
        calls["plan"] += 1
        fields = entry.plan(full, *inputs)
        if kept is None or fields is None:
            return fields
        fields = _Fields(fields)
        kept.append(weakref.ref(fields))
        return fields

    def body(ctx, t, *fields):
        calls["body"] += 1
        return entry.body(ctx, t, *fields)

    monkeypatch.setitem(CATALOG, pid, replace(entry, plan=plan, body=body))


def test_memo_remembers_none_results(monkeypatch):
    """The sweep's plan table keeps a None plan too: a plan that puts
    every two-atom family outside the domain runs once per family, and
    no instance reaches the body, which is not callable here."""
    planned = []
    monkeypatch.setitem(CATALOG, "Conj-star", replace(
        CATALOG["Conj-star"], plan=lambda full, s: planned.append(s), body=None))
    report = check("Conj-star", InstanceSpace(atoms=2))
    assert (report.generated, report.checked, report.skipped) == (7125, 0, 7125)
    assert len(planned) == len(set(planned)) == 95


def test_each_sweep_plans_each_family_once(monkeypatch):
    """Entries that read the same facts of a family share one plan
    function, and each sweep calls its plan once per two-atom family,
    however many sweeps share the context, which keeps no plan.  GR-star's
    plan is None on the 2,475 instances whose negations clash, and their
    bodies are not called."""
    assert CATALOG["LI-star"].plan is catalog._negation_plan
    assert CATALOG["GR-star"].plan is CATALOG["HI-star"].plan is catalog._refutable_negations
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    for pid, bodies in (("LI-star", 7125), ("GR-star", 4650), ("LI-star", 7125)):
        calls = {}
        _counted(monkeypatch, pid, calls)
        check(pid, space, ctx=ctx)
        assert calls == {"plan": 95, "body": bodies}
    planned = []
    pair = PAIR_CHECKS["C-star-3-pair"]
    monkeypatch.setitem(PAIR_CHECKS, "C-star-3-pair", replace(
        pair, plan=lambda full, s: planned.append(s) or pair.plan(full, s)))
    assert check("C-star-3-pair", space, ctx=ctx).checked == 7125
    assert len(planned) == len(set(planned)) == 95


@pytest.mark.parametrize("pid, plans, bodies, skipped", [
    ("S-star", 9_025, 216_000, 460_875),
    ("Conj-star", 95, 7_125, 0),
    ("GR-star", 95, 4_650, 2_475),
])
def test_plans_belong_to_the_sweep(monkeypatch, pid, plans, bodies, skipped):
    """Over 2 atoms a sweep calls a check's plan once per distinct input
    and its body once per instance inside the plan's domain; the plans
    it made are freed when it returns, with the context still alive, so
    no table the context can reach holds one."""
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    calls, kept = {}, []
    _counted(monkeypatch, pid, calls, kept)
    report = check(pid, space, ctx=ctx)
    assert report.holds and report.skipped == skipped
    assert calls == {"plan": plans, "body": bodies}
    assert kept and all(ref() is None for ref in kept)
    assert not hasattr(ctx, "derived")


@pytest.mark.parametrize("pid, exhaustive, sampled", [
    ("K7", (16_875, 13_125, 3_750, 0), (2_000, 1_844, 156, 0)),
    ("K-star-7", (676_875, 346_425, 330_450, 0), (2_000, 1_468, 532, 0)),
    ("HI-serial", (1_125, 1_050, 75, 0), (2_000, 1_990, 10, 0)),
    ("GR-star", (7_125, 4_650, 2_475, 0), (2_000, 1_898, 102, 0)),
    ("P-star", (676_875, 405_300, 271_575, 14_544), (2_000, 1_509, 491, 346)),
    ("DiP", (9_000, 7_125, 1_875, 2_703), (2_000, 1_911, 89, 227)),
    ("HI-star", (9_000, 6_000, 3_000, 1_326), (2_000, 1_911, 89, 294)),
])
def test_a_domain_of_the_inputs_alone_is_the_plans(monkeypatch, pid, exhaustive, sampled):
    """Where an entry's domain depends on the inputs alone, its plan is
    None outside it, so no body call returns None: over every two-atom
    instance and 2,000 seeded three-atom draws, each body call counts as
    checked, and ``(generated, checked, skipped, total_hits)`` are what
    they were when the bodies returned None themselves."""
    entry = CATALOG[pid]
    results = []

    def body(ctx, t, *fields):
        results.append(entry.body(ctx, t, *fields))
        return results[-1]

    monkeypatch.setitem(CATALOG, pid, replace(entry, body=body))
    for space, counts in ((InstanceSpace(atoms=2), exhaustive),
                          (InstanceSpace(atoms=3, mode="sampled", sample_count=2000, seed=5),
                           sampled)):
        results.clear()
        report = check(pid, space)
        assert (report.generated, report.checked, report.skipped, report.total_hits) == counts
        assert None not in results and len(results) == report.checked


def test_a_sampled_sweep_plans_every_draw(monkeypatch):
    """Over more worlds than an exhaustive space enumerates, inputs almost
    never repeat, so each draw makes its own plan."""
    space = InstanceSpace(atoms=3, mode="sampled", sample_count=500, seed=27)
    calls = {}
    _counted(monkeypatch, "S-star", calls)
    report = check("S-star", space)
    assert report.generated == 500 and calls["plan"] == 500
    assert calls["body"] == report.checked


def test_a_full_plan_table_is_cleared(monkeypatch):
    """The sweep keeps at most ``_MEMO`` plans: with the bound at 500, a
    sampled 2-atom S-star sweep over families of up to 15 members, which
    meets more distinct pairs than that, plans some pair again after the
    table was cleared, and reports what the unbounded sweep reports."""
    space = InstanceSpace(atoms=2, mode="sampled", sample_count=5000, seed=1, max_set_size=15)
    distinct = len({(s1, s2) for _, s1, s2 in space.instances("pset2")})
    calls = {}
    _counted(monkeypatch, "S-star", calls)
    unbounded = check("S-star", space)
    assert calls["plan"] == distinct > 500
    monkeypatch.setattr(engine, "_MEMO", 500)
    calls["plan"] = 0
    bounded = check("S-star", space)
    assert calls["plan"] > distinct
    assert ([(r.generated, r.checked, r.skipped, r.total_hits) for r in (bounded, unbounded)]
            == [(5000, unbounded.checked, unbounded.skipped, unbounded.total_hits)] * 2)


def test_formula_set_tuples_sizes_and_consistency():
    props = all_propositions(4)
    joint = list(formula_set_tuples(props, 2, jointly_consistent=True))
    loose = list(formula_set_tuples(props, 2, jointly_consistent=False))
    assert len(loose) == 15 + 105
    assert len(joint) == 95
    assert all(frozenset.intersection(*s) for s in joint)
    singles = [s for s in joint if len(s) == 1]
    assert len(singles) == 15


def test_random_tpo_is_valid_and_seeded():
    rng = random.Random(7)
    draws = [random_tpo(rng, 8) for _ in range(25)]
    assert all(t.num_worlds == 8 for t in draws)
    again = random.Random(7)
    assert [random_tpo(again, 8) for _ in range(25)] == draws


@pytest.mark.parametrize("num_worlds", [0, -1, 2.0, True, "4", None])
def test_random_tpo_needs_an_int_of_at_least_one_world(num_worlds):
    rng = random.Random(7)
    with pytest.raises(SpaceError, match=re.escape(f"an int of at least 1, got {num_worlds!r}")):
        random_tpo(rng, num_worlds)
    assert rng.getstate() == random.Random(7).getstate()


@pytest.mark.parametrize("num_worlds, message", [
    (0, "exhaustive enumeration supports 1..8 worlds"),
    (9, "exhaustive enumeration supports 1..8 worlds"),
    (2.0, "the world count must be an int of at least 1, got 2.0"),
    (True, "the world count must be an int of at least 1, got True"),
    ("4", "the world count must be an int of at least 1, got '4'"),
    (None, "the world count must be an int of at least 1, got None"),
])
def test_enumerate_tpos_checks_its_world_count_when_called(num_worlds, message):
    """The call itself raises, so a caller that never iterates still sees
    a bad world count."""
    with pytest.raises(SpaceError, match=re.escape(message)):
        enumerate_tpos(num_worlds)
    assert [len(tuple(enumerate_tpos(n))) for n in (1, 2, 4)] == [1, 3, 75]


@pytest.mark.parametrize("lang, config, message", [
    ({"atoms": 2}, OperatorConfig(), "lang must be a Language, got {'atoms': 2}"),
    ("AB", OperatorConfig(), "lang must be a Language, got 'AB'"),
    (None, OperatorConfig(), "lang must be a Language, got None"),
    (language(2), {"base": "lex"}, "operators must be an OperatorConfig, got {'base': 'lex'}"),
    (language(2), "lex", "operators must be an OperatorConfig, got 'lex'"),
    (language(2), None, "operators must be an OperatorConfig, got None"),
])
def test_a_context_needs_a_language_and_an_operator_config(lang, config, message):
    with pytest.raises(SpaceError, match=re.escape(message)):
        CheckContext(lang, config)


def test_instance_space_validation():
    with pytest.raises(SpaceError):
        InstanceSpace(atoms=3)  # exhaustive beyond two atoms
    with pytest.raises(SpaceError):
        InstanceSpace(atoms=2, mode="sampled", sample_count=10)  # no seed
    with pytest.raises(SpaceError):
        InstanceSpace(atoms=2, mode="sampled", sample_count=0, seed=1)
    with pytest.raises(SpaceError):
        InstanceSpace(atoms=5, mode="sampled", sample_count=10, seed=1)
    with pytest.raises(SpaceError):
        InstanceSpace(atoms=2, mode="guess")
    with pytest.raises(SpaceError):
        InstanceSpace(atoms=2, violation_cap=-3)
    # counts must be real ints: a float or a bool would pass the range
    # checks and fail, or be echoed into the report, later
    for field, value in (("max_set_size", 2.5), ("max_set_size", True), ("violation_cap", 1.5),
                         ("atoms", True), ("sample_count", 2.5)):
        fields = {"atoms": 2, "mode": "sampled", "sample_count": 10, "seed": 1, field: value}
        with pytest.raises(SpaceError, match=f"{field} must be an int, got {value!r}"):
            InstanceSpace(**fields)
    # a seed other than an int draws another stream than the int it names
    for value in ("7", True, 7.0):
        with pytest.raises(SpaceError, match=re.escape(f"seed must be an int or None, got {value!r}")):
            InstanceSpace(atoms=2, mode="sampled", sample_count=10, seed=value)


@pytest.mark.parametrize("fields", [
    {"seed": 5}, {"seed": 0}, {"sample_count": 3}, {"sample_count": -1},
])
def test_an_exhaustive_space_takes_no_seed_or_sample_count(fields):
    """An exhaustive space draws nothing, so a seed or a sample count
    given to it would only be echoed into its reports."""
    given = {"seed": None, "sample_count": 0, **fields}
    with pytest.raises(SpaceError, match=re.escape(
            f"take no seed or sample_count; got seed={given['seed']!r}, "
            f"sample_count={given['sample_count']!r}")):
        InstanceSpace(atoms=1, **fields)


def test_operators_must_be_an_operator_config():
    """A mapping of names is what ``OperatorConfig.from_names`` reads; as
    a space's ``operators`` it would fail inside the sweep."""
    with pytest.raises(SpaceError, match="operators must be an OperatorConfig, got"):
        InstanceSpace(atoms=1, operators={"base": "lex"})


def test_max_set_size_is_at_most_the_consistent_propositions():
    """A family holds distinct consistent propositions, so a larger
    ``max_set_size`` only makes the exhaustive stream try empty sizes and
    the sampled stream draw more than it can keep."""
    assert InstanceSpace(atoms=1, max_set_size=3).max_set_size == 3
    with pytest.raises(SpaceError, match="max_set_size must be at most 3"):
        InstanceSpace(atoms=1, max_set_size=4)
    with pytest.raises(SpaceError, match="max_set_size must be at most 255"):
        InstanceSpace(atoms=3, mode="sampled", sample_count=1, seed=1, max_set_size=256)


def test_instance_space_describe():
    space = InstanceSpace(atoms=2)
    d = space.describe()
    assert d["atoms"] == 2 and d["mode"] == "exhaustive"
    sampled = InstanceSpace(atoms=3, mode="sampled", sample_count=50, seed=11)
    assert sampled.describe()["sample_count"] == 50
    assert sampled.seed == 11


def test_instance_space_rejects_unknown_shape():
    space = InstanceSpace(atoms=2)
    with pytest.raises(SpaceError):
        list(space.instances("matrix"))


def test_operator_config_accepts_names_and_objects():
    from revforge import LEX, NATURAL_CONTRACT, STQ_STRATEGY
    byname = OperatorConfig(revision="lex", strategy="stq")
    assert byname.resolved("revision") is LEX
    assert byname.resolved("strategy") is STQ_STRATEGY
    byobj = OperatorConfig(revision=LEX, contraction=NATURAL_CONTRACT)
    assert byobj.resolved("revision") is LEX
    assert byobj.resolved("contraction") is NATURAL_CONTRACT
    d = byobj.describe()
    assert list(d) == ["revision", "contraction", "base", "finisher", "strategy"]
    assert d["revision"] == "lex"


# --- the check loop ---

def test_clean_sweep_report_fields():
    space = InstanceSpace(atoms=2)
    report = check("CR1", space)
    assert report.holds and report.outcome == "holds"
    assert report.checked == 75 * 15
    assert report.violations == [] and report.total_hits == 0
    assert report.kind == "universal" and report.expected == "sound"
    assert report.matches_expected()
    tiny = InstanceSpace(atoms=1)
    vacuous = check("S-star", tiny)
    for each in (report, check_equivalence_pair("PC3", "PC3-b", tiny), verify_rc_identity(tiny),
                 vacuous):
        assert list(each.to_json_dict()) == ["postulate", "space", "checked", "violations",
                                             "seed", "elapsed_ms", "generated", "skipped"]
        assert each.generated == each.checked + each.skipped
    assert (report.generated, report.skipped) == (75 * 15, 0)
    # 3 one-atom orders x 5 x 5 family pairs, most of them outside S-star's domain
    assert (vacuous.generated, vacuous.checked, vacuous.skipped) == (75, 18, 57)
    json.loads(report.to_json())  # serializes cleanly
    assert "CR1" in report.summary_line()


def test_rc_identity_report_names_the_aggregator_that_ran():
    space = InstanceSpace(atoms=1, operators=OperatorConfig(strategy="round-robin"))
    operators = check("rc-identity", space).to_json_dict()["space"]["operators"]
    assert operators["strategy"] == "stq"
    assert list(operators) == ["revision", "contraction", "base", "finisher", "strategy"]
    # entries that aggregate with the configured strategy still report it
    assert check("UB", space).space["operators"]["strategy"] == "round-robin"
    assert space.describe()["operators"]["strategy"] == "round-robin"


def test_unknown_postulate():
    with pytest.raises(UnknownPostulateError):
        check("K99", InstanceSpace(atoms=2))


@pytest.mark.parametrize("call, error", [
    (lambda space: check(5, space), UnknownPostulateError),
    (lambda space: replay_witness(None, _ind_witness(), 1), UnknownPostulateError),
    (lambda space: check_equivalence_pair(["a"], "b", space), UnknownPostulateError),
    (lambda space: make_strategy({}), UnknownOperatorError),
    (lambda space: get_revision_operator(["x"]), UnknownOperatorError),
], ids=["int-id", "none-id", "list-pair-id", "dict-strategy", "list-operator"])
def test_ids_and_names_that_are_not_strings_are_unknown(call, error):
    """An id or a registry name that is not a string, or cannot key a
    registry, names nothing: it raises the typed error of an unknown one,
    not a bare ``AttributeError`` or ``TypeError``."""
    with pytest.raises(error, match="unknown|must be a string|not a recognized"):
        call(InstanceSpace(atoms=2))


def test_find_countermodel_none_for_sound_postulates():
    assert find_countermodel("CR1", InstanceSpace(atoms=2)) is None


def test_ind_countermodel_found_and_replayable():
    space = InstanceSpace(atoms=2)
    witness = find_countermodel("Ind", space)
    assert witness is not None
    assert witness["operators"]["revision"] == "natural"
    hits = replay_witness("Ind", witness, atoms=2)
    assert hits and hits[0] == witness["detail"]


def test_find_countermodel_returns_the_witness_whatever_the_cap():
    space = InstanceSpace(atoms=2, violation_cap=0)
    report = check("P-star", space, first=True)
    assert report.total_hits == 1 and report.violations == []
    witness = find_countermodel("P-star", space)
    assert witness == find_countermodel("P-star", InstanceSpace(atoms=2))
    assert witness is not None and replay_witness("P-star", witness, atoms=2)


def test_violation_cap_and_total_count():
    space = InstanceSpace(atoms=2, violation_cap=3)
    report = check("C-star-2-plus", space)
    assert len(report.violations) == 3
    assert report.total_hits > 3
    assert not report.holds
    assert report.matches_expected()  # expected status is violated


def test_first_stops_early():
    space = InstanceSpace(atoms=2)
    full = check("C-star-2-plus", space)
    quick = check("C-star-2-plus", space, first=True)
    assert quick.checked < full.checked
    assert quick.total_hits >= 1


def test_shared_context_reuses_operators():
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    a = check("K-star-2", space, ctx=ctx)
    b = check("K-star-3", space, ctx=ctx)
    assert a.holds and b.holds
    # the warm context answers from memory: the very object it computed
    # before, equal to what a fresh shipped operator computes now
    fresh = default_parallel_revision()
    for t, s in space.instances("pset"):
        first = ctx.previse(t, member_masks(s))
        assert ctx.previse(t, member_masks(s)) is first
        assert first == fresh.revise_worlds(t, s)


@pytest.mark.parametrize("base, finisher, strategy", [
    ("natural", "lex", "stq"),
    ("lex", "restrained", "round-robin"),
    ("restrained", "natural", "first-then-full"),
])
def test_memoized_context_matches_fresh_operators(base, finisher, strategy):
    """The context's memo tables are transparent: a warm, shared context
    agrees with unmemoized shipped operators on every 2-atom instance."""
    config = OperatorConfig(base=base, finisher=finisher, strategy=strategy)
    space = InstanceSpace(atoms=2, operators=config)
    ctx = CheckContext.from_space(space)
    prev = ParallelRevisionOperator(get_revision_operator(base), get_revision_operator(finisher),
                                    Aggregator(make_strategy(strategy)))
    pcon = ParallelContractionOperator(NATURAL_CONTRACT, Aggregator(make_strategy(strategy)))
    psets = list(space.instances("pset"))
    csets = list(space.instances("cset"))
    for _ in range(2):  # cold, then warm
        for t, s in psets:
            assert ctx.previse(t, member_masks(s)) == prev.revise_worlds(t, s)
        for t, s in csets:
            assert ctx.pcontract(t, member_masks(s)) == pcon.contract_worlds(t, s)

    clash = (frozenset({2, 3}), frozenset({1, 3}), frozenset({0}))
    t = psets[0][0]
    with pytest.raises(InconsistentInputError) as shipped:
        prev.revise_worlds(t, clash)
    with pytest.raises(InconsistentInputError) as memoized:
        ctx.previse(t, member_masks(clash))
    assert memoized.value.culprits == shipped.value.culprits == ("member 1", "member 2")
    assert str(memoized.value) == str(shipped.value)


# a strategy named like stq but ordered like round-robin: not set-keyed
IMPOSTOR = SelectionStrategy("stq", _team_round_robin)
# stq's teams under another name: set-keyed
RENAMED_STQ = replace(STQ_STRATEGY, name="sync")


@pytest.mark.parametrize("base, finisher, strategy", [
    ("natural", "natural", "stq"),
    ("lex", "restrained", "round-robin"),
    pytest.param("natural", "lex", IMPOSTOR, id="natural-lex-stq-impostor"),
])
def test_rows_match_the_shipped_operators(monkeypatch, base, finisher, strategy):
    """The per-prior rows are transparent, including for a prior whose row
    was evicted: a context with room for eight rows per table answers every
    2-atom (prior, family) as the shipped operators do, first prior-major,
    then family-major, which revisits every evicted prior, then with each
    family followed by its members reversed, which under stq reads the
    result its set just filled.  Only a synchronous strategy keys by set: a strategy that
    merely shares stq's name is keyed by the listed family."""
    monkeypatch.setattr(engine, "_ROWS", 8)
    config = OperatorConfig(base=base, finisher=finisher, strategy=strategy)
    space = InstanceSpace(atoms=2, operators=config)
    ctx = CheckContext.from_space(space)
    merge = Aggregator(config.resolved("strategy"))
    prev = ParallelRevisionOperator(get_revision_operator(base), get_revision_operator(finisher),
                                    merge)
    pcon = ParallelContractionOperator(NATURAL_CONTRACT, merge)
    psets = list(space.instances("pset"))
    csets = list(space.instances("cset"))
    reversing = lambda pairs: [(t, f) for t, s in pairs for f in (s, s[::-1])]
    for order in (lambda pairs: pairs, lambda pairs: sorted(pairs, key=lambda p: p[1]), reversing):
        for t, s in order(psets):
            assert ctx.previse(t, member_masks(s)) == prev.revise_worlds(t, s)
        for t, s in order(csets):
            assert ctx.pcontract(t, member_masks(s)) == pcon.contract_worlds(t, s)
    rows = ctx.parallel_rev.base
    assert 0 < rows.find.cache_info().currsize <= 8 and rows.intern.cache_info().currsize <= 8
    if strategy is IMPOSTOR:
        # reversing matters to this strategy, so set keys would have failed above
        assert any(prev.revise_worlds(t, s) != prev.revise_worlds(t, s[::-1]) for t, s in psets)

    clash = (frozenset({2, 3}), frozenset({1, 3}), frozenset({0}))
    for t in (psets[0][0], psets[-1][0]):
        for family, culprits in ((clash[::-1], ("member 0", "member 2")),
                                 (clash, ("member 1", "member 2"))):
            with pytest.raises(InconsistentInputError) as shipped:
                prev.revise_worlds(t, family)
            with pytest.raises(InconsistentInputError) as rowed:
                ctx.previse(t, member_masks(family))
            assert rowed.value.culprits == shipped.value.culprits == culprits
            assert str(rowed.value) == str(shipped.value)


@pytest.mark.parametrize("strategy, runs", [
    (STQ_STRATEGY, 95), (RENAMED_STQ, 95),
    (replace(STQ_STRATEGY, team=lambda n, i: STQ_STRATEGY.team(n, i)), 95),
    (IMPOSTOR, 175),
], ids=["stq", "renamed-stq", "wrapped-stq", "stq-named-round-robin"])
def test_rows_key_by_set_under_any_synchronous_strategy(monkeypatch, strategy, runs):
    """A copy of stq, renamed or with its team wrapped as a tracer wraps
    it, keys its rows by member set as stq does: the 95 families of the
    first 2-atom prior, each listed both ways, make 95 pipeline runs.  A
    strategy that only shares stq's name makes one per listed family."""
    calls = []
    shipped = ParallelRevisionOperator.revise_masks

    def counting(self, t, masks, labels=None):
        calls.append(1)
        return shipped(self, t, masks, labels)

    monkeypatch.setattr(ParallelRevisionOperator, "revise_masks", counting)
    space = InstanceSpace(atoms=2, operators=OperatorConfig(strategy=strategy))
    ctx = CheckContext.from_space(space)
    psets = list(space.instances("pset"))
    families = [s for t, s in psets if t is psets[0][0]]
    assert len(families) == 95
    for s in families:
        ctx.previse(psets[0][0], member_masks(s))
        ctx.previse(psets[0][0], member_masks(s[::-1]))
    assert len(calls) == runs


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_only_contexts_whose_priors_repeat_keep_rows(atoms):
    """Rows and the aggregator memo exist only up to the worlds an
    exhaustive space enumerates, and ``rowed`` says so, which the sweep
    reads to keep plans; a larger context binds the shipped serial
    operators and aggregator themselves, and ``conditional_set`` too.
    The follow-up memo, which sampled sweeps hit, stays at every size.
    No context keeps a plan."""
    ctx = CheckContext(language(atoms), OperatorConfig())
    rowed = atoms <= MAX_EXHAUSTIVE_ATOMS
    assert ctx.rowed is rowed
    assert isinstance(ctx.parallel_rev.base, engine._Rows) is rowed
    assert hasattr(ctx._aggregate, "cache_info") is rowed
    assert hasattr(ctx.conditionals, "cache_info") is rowed
    assert hasattr(ctx._follow_ups, "cache_info")
    assert not hasattr(ctx, "derived") and not hasattr(ctx, "canonical")
    if not rowed:
        assert ctx.conditionals is conditional_set
        assert ctx.parallel_rev.aggregator is ctx.aggregator
        assert ctx.revise is get_revision_operator("natural").transform
        assert ctx.contract is NATURAL_CONTRACT.transform


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("strategy", ["stq", "round-robin"])
def test_no_context_memo_is_unbounded(monkeypatch, atoms, strategy):
    """Every ``lru_cache`` a context builds keeps at most ``_MEMO`` entries,
    and ``memo_info`` reports each of them: a table added later cannot
    grow without limit, or unseen."""
    made = []
    real = engine.lru_cache

    def recording(*args, **kwargs):
        if args and callable(args[0]):
            made.append(real(*args, **kwargs))
            return made[-1]
        decorate = real(*args, **kwargs)

        def wrap(fn):
            made.append(decorate(fn))
            return made[-1]
        return wrap

    monkeypatch.setattr(engine, "lru_cache", recording)
    config = OperatorConfig(base="lex", finisher="restrained", strategy=strategy)
    ctx = CheckContext(language(atoms), config)
    sizes = sorted(table.cache_info().maxsize for table in made)
    assert sizes and all(size is not None and 0 < size <= engine._MEMO for size in sizes)
    assert sorted(info.maxsize for info in ctx.memo_info().values()) == sizes


@pytest.mark.parametrize("atoms, names", [
    (2, {"aggregate", "follow_ups", "conditionals", "set_keys",
         "revision+base+finisher.find", "revision+base+finisher.intern",
         "contraction.find", "contraction.intern"}),
    (3, {"follow_ups"}),
])
def test_memo_info_names_every_table(atoms, names):
    """``memo_info`` reports each table's ``cache_info()`` by name; one row
    table serves every role one operator fills.  Above 4 worlds only the
    follow-up memo, the one table kept at every size, remains.  No table
    holds plans or formulas."""
    ctx = CheckContext(language(atoms), OperatorConfig())
    info = ctx.memo_info()
    assert set(info) == names
    if atoms == 2:
        assert info["conditionals"] == ctx.conditionals.cache_info()
    space = (InstanceSpace(atoms=2) if atoms == 2
             else InstanceSpace(atoms=atoms, mode="sampled", sample_count=50, seed=1))
    check("C-star-3-pair", space, ctx=ctx)
    after = ctx.memo_info()
    assert after["follow_ups"].misses > 0
    if atoms == 2:
        assert after["set_keys"].currsize == 95
        assert after["revision+base+finisher.find"].currsize == 75


def test_aggregator_memo_is_a_window_of_rows(monkeypatch):
    """The aggregator memo keeps the ``_ROWS`` profiles used last."""
    assert CheckContext(language(2), OperatorConfig()).memo_info()["aggregate"].maxsize == 4096
    monkeypatch.setattr(engine, "_ROWS", 8)
    assert CheckContext(language(2), OperatorConfig()).memo_info()["aggregate"].maxsize == 8


def test_a_bounded_aggregator_memo_keeps_most_hits(monkeypatch):
    """Sweeps are prior-major, so a profile's repeats come soon after it:
    over a default 2-atom S-star sweep the window of ``_ROWS`` profiles
    keeps at least 90% of the hits an unbounded memo makes, while holding
    fewer profiles than that memo does."""
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    assert check("S-star", space, ctx=ctx).holds
    bounded = ctx.memo_info()["aggregate"]
    monkeypatch.setattr(engine, "_ROWS", engine._MEMO)
    ctx = CheckContext.from_space(space)
    check("S-star", space, ctx=ctx)
    unbounded = ctx.memo_info()["aggregate"]
    assert unbounded.maxsize == engine._MEMO
    assert bounded.currsize == 4096 < unbounded.currsize
    assert bounded.hits >= 0.9 * unbounded.hits


def test_s_star_plan_is_none_outside_its_domain():
    """S-star's plan is None for each of the 6,145 two-atom pairs outside
    its domain, and for the 2,880 inside it holds ``_mixed_plan``'s mixed
    family and the families' joint conjunction."""
    families = [s for t, s in InstanceSpace(atoms=2).instances("pset") if t == tpo({0, 1, 2, 3})]
    assert len(families) == 95
    assert catalog._s_star_plan(15, (frozenset({0, 1}),), (frozenset({0, 1, 2, 3}),)) is None
    inside = 0
    for s1 in families:
        for s2 in families:
            mixed, first, second = catalog._mixed_plan(15, s1, s2)
            plan = catalog._s_star_plan(15, s1, s2)
            if mixed is None:
                assert plan is None
            else:
                inside += 1
                assert plan == (mixed, first & second)
    assert inside == 2_880


def test_a_k_star_7_sweep_merges_once_per_plan(monkeypatch):
    """K-star-7 reads no mixed family, so its plan merges only the two
    families' union: a two-atom sweep merges once per plan, where a plan
    that built the mixed family too merged 2,880 more times."""
    merges = []
    merge = catalog._merge
    monkeypatch.setattr(catalog, "_merge", lambda s1, s2: merges.append(s1) or merge(s1, s2))
    calls = {}
    _counted(monkeypatch, "K-star-7", calls)
    assert check("K-star-7", InstanceSpace(atoms=2)).holds
    assert calls["plan"] == len(merges) == 9_025


@pytest.mark.parametrize("strategy", ["stq", "round-robin"])
def test_rows_share_one_key_per_member_set(strategy):
    """Under a synchronous strategy the rows of every prior hold one
    object per member set, however the family was listed; other
    strategies key by the family tuple the plan made."""
    space = InstanceSpace(atoms=2, operators=OperatorConfig(strategy=strategy))
    ctx = CheckContext.from_space(space)
    families = [member_masks(s) for t, s in space.instances("pset") if t == tpo({0, 1, 2, 3})]
    priors = (tpo({0}, {1}, {2}, {3}), tpo({3}, {0, 1, 2}))
    for t in priors:
        for masks in families:
            ctx.previse(t, masks)
            ctx.previse(t, masks[::-1])
    rows = ctx.parallel_rev.base
    first, second = ({key: key for key in rows.find(t.masks) if not isinstance(key, int)}
                     for t in priors)
    assert first.keys() == second.keys()
    if strategy == "stq":
        assert len(first) == 95 and all(isinstance(key, frozenset) for key in first)
        assert all(second[key] is key for key in first)
    else:
        assert len(first) == 175 and ctx.memo_info().keys().isdisjoint({"set_keys"})


@pytest.mark.parametrize("atoms, bound", [(1, 4096), (2, 4096), (3, 1024), (4, 4)])
def test_follow_up_memo_holds_at_most_2_18_masks(atoms, bound):
    """Each follow-up entry holds one mask per consistent mask, so the
    memo keeps fewer orders the more worlds there are: at most ``_ROWS``,
    and at most about 2^18 masks in all."""
    ctx = CheckContext(language(atoms), OperatorConfig())
    assert ctx.memo_info()["follow_ups"].maxsize == bound
    assert bound * ((1 << (1 << atoms)) - 1) < 1 << 18


def test_a_context_after_an_s_star_sweep_holds_little():
    """A fresh context holds about 5.1 MB after a full default 2-atom
    S-star sweep (16.1 MB when its aggregator memo kept every profile,
    every pair of families held a ``_pair_plan`` and each prior's row its
    own copy of each member set)."""
    space = InstanceSpace(atoms=2)
    check("K2", space)
    tracemalloc.start()
    try:
        ctx = CheckContext.from_space(space)
        report = check("S-star", space, ctx=ctx)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == 216_000 and report.holds
    assert held < 6_000_000


def test_a_sampled_rc_identity_sweep_leaves_nothing_in_its_context():
    """Sampled 3-atom orders almost never repeat, so a kept context holds
    no conditional table after an rc-identity sweep: under 1 MB after
    2,000 profiles, where a memo of every table held 8,756,168 bytes."""
    space = InstanceSpace(atoms=3, mode="sampled", sample_count=2000, seed=1)
    ctx = CheckContext.from_space(space)
    check("rc-identity", replace(space, sample_count=1), ctx=ctx)
    # the shared stream keeps its profiles; read it first, so that the
    # bound counts what the sweep leaves, not the stream
    assert sum(1 for _ in space.instances("profile2")) == 2000
    tracemalloc.start()
    try:
        report = check("rc-identity", space, ctx=ctx)
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.checked == 2000 and report.holds
    assert held < 1_000_000


@pytest.mark.parametrize("atoms", [3, 4])
@pytest.mark.parametrize("base, finisher, strategy", [
    ("natural", "natural", "stq"),
    ("lex", "restrained", "round-robin"),
    ("restrained", "lex", "first-then-full"),
])
def test_direct_context_matches_the_shipped_operators(atoms, base, finisher, strategy):
    """A context over more worlds than an exhaustive space enumerates keeps
    no rows: on a seeded sample it answers ``previse``, ``pcontract``,
    ``revise``, ``contract`` and ``aggregate`` as fresh operators do,
    twice over, the second time from the results its orders keep, and an
    inconsistent family names the same culprits."""
    config = OperatorConfig(revision=finisher, base=base, finisher=finisher, strategy=strategy)
    space = InstanceSpace(atoms=atoms, mode="sampled", sample_count=120, seed=18,
                          max_set_size=3, operators=config)
    ctx = CheckContext.from_space(space)
    merge = Aggregator(make_strategy(strategy))
    serial = get_revision_operator(finisher)
    prev = ParallelRevisionOperator(get_revision_operator(base), serial, merge)
    pcon = ParallelContractionOperator(NATURAL_CONTRACT, merge)
    n = space.num_worlds
    psets = list(space.instances("pset"))
    csets = list(space.instances("cset"))
    profiles = [profile + (t,) for (profile,), (t, _) in zip(space.instances("profile2"), psets)]
    for _ in range(2):
        for t, s in psets:
            assert ctx.previse(t, member_masks(s, n)) == prev.revise_worlds(t, s)
            for mask in member_masks(s, n):
                assert ctx.revise(t, mask) == serial.transform(t, mask)
                assert ctx.contract(t, mask) == NATURAL_CONTRACT.transform(t, mask)
        for t, s in csets:
            assert ctx.pcontract(t, member_masks(s, n)) == pcon.contract_worlds(t, s)
        for profile in profiles:
            assert ctx.aggregate(profile) == merge.aggregate(profile)
            assert ctx.aggregate(profile[:2]) == merge.aggregate(profile[:2])

    clash = (frozenset({2, 3}), frozenset({1, 3}), frozenset({0}))
    for t in (psets[0][0], psets[-1][0]):
        for family, culprits in ((clash[::-1], ("member 0", "member 2")),
                                 (clash, ("member 1", "member 2"))):
            with pytest.raises(InconsistentInputError) as shipped:
                prev.revise_worlds(t, family)
            with pytest.raises(InconsistentInputError) as direct:
                ctx.previse(t, member_masks(family, n))
            assert direct.value.culprits == shipped.value.culprits == culprits
            assert str(direct.value) == str(shipped.value)


def test_revision_and_contraction_by_one_operator_keep_their_rows_apart():
    """One operator object may fill both ``base`` and ``contraction``; a
    family's set contraction is still its contraction after the context
    has revised by the same family."""
    op = SerialRevisionOperator("x", natural_revise)
    ctx = CheckContext(language(2), OperatorConfig(base=op, contraction=op))
    pcon = ParallelContractionOperator(op, Aggregator(STQ_STRATEGY))
    for t, s in InstanceSpace(atoms=2).instances("pset"):
        ctx.previse(t, member_masks(s))
        assert ctx.pcontract(t, member_masks(s)) == pcon.contract_worlds(t, s)


@pytest.mark.parametrize("strategy, misses", [
    ("stq", 1_566), ("round-robin", 2_922), ("first-then-full", 2_922),
])
def test_s_star_pipeline_work_is_pinned(monkeypatch, strategy, misses):
    """S-star runs the pipeline only for a family whose joint conjunction
    has worlds, and under stq once per member set: over the first three
    2-atom priors (27,075 pset2 instances) a fresh restrained/natural
    context makes exactly these pipeline misses, against 5,286 under each
    strategy when every listed family ran."""
    calls = []
    shipped = ParallelRevisionOperator.revise_masks

    def counting(self, t, masks, labels=None):
        calls.append(1)
        return shipped(self, t, masks, labels)

    monkeypatch.setattr(ParallelRevisionOperator, "revise_masks", counting)
    space = InstanceSpace(atoms=2, operators=OperatorConfig(
        base="restrained", finisher="natural", strategy=strategy))
    ctx = CheckContext.from_space(space)
    instances = list(itertools.islice(space.instances("pset2"), 27_075))
    assert len({inst[0] for inst in instances}) == 3
    for instance in instances:
        CATALOG["S-star"].evaluate(ctx, *instance)
    assert len(calls) == misses


def test_s_star_with_an_empty_joint_revises_nothing():
    """An S-star instance in the domain whose two conjunctions share no
    world holds whatever the posterior is, so it makes no ``previse`` call,
    and still counts as checked."""
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    shipped, calls = ctx.previse, []

    def counting(t, masks):
        calls.append((t, masks))
        return shipped(t, masks)

    ctx.previse = counting
    t = next(iter(space.instances("pset")))[0]
    s1, s2 = (frozenset({0, 1}),), (frozenset({2}),)
    assert CATALOG["S-star"].evaluate(ctx, t, s1, s2) == []
    assert calls == []
    assert CATALOG["S-star"].evaluate(ctx, t, s1, (frozenset({0}),)) == []
    assert len(calls) == 1


def test_follow_ups_go_through_the_previse_seam():
    """A stand-in ``previse`` set on a context, as a tracer sets one, sees
    the follow-up revisions the syntactic forms make."""
    space = InstanceSpace(atoms=2)
    ctx = CheckContext.from_space(space)
    shipped, calls = ctx.previse, []

    def counting(t, masks):
        calls.append((t, masks))
        return shipped(t, masks)

    ctx.previse = counting
    t, s = next(iter(space.instances("pset")))
    assert PAIR_CHECKS["PC3-pair"].evaluate(ctx, t, s) == []
    after = shipped(t, member_masks(s))
    for x in range(1, 16):
        assert (t, (x,)) in calls and (after, (x,)) in calls


@pytest.mark.parametrize("ctx_lang, ctx_config", [
    (("A", "B"), OperatorConfig(revision="lex")),
    (("A", "B", "C"), OperatorConfig()),
], ids=["operators", "atoms"])
def test_check_rejects_a_context_for_another_space(ctx_lang, ctx_config):
    """A context answers with its own operators over its own worlds, so a
    sweep through a context built for another space would report on it."""
    ctx = CheckContext(Language(ctx_lang), ctx_config)
    with pytest.raises(SpaceError, match="does not match the space"):
        check("K2", InstanceSpace(atoms=2), ctx=ctx)


@pytest.mark.parametrize("call", [
    lambda: check("K1", None),
    lambda: check("K1", {"atoms": 1}),
    lambda: check("K1", InstanceSpace(atoms=1), ctx="x"),
    lambda: check("K1", InstanceSpace(atoms=1), ctx=InstanceSpace(atoms=1)),
    lambda: find_countermodel("P-star", None),
    lambda: verify_rc_identity(None),
    lambda: check_equivalence_pair("PC3", "PC3-b", None),
], ids=["none-space", "dict-space", "str-ctx", "space-as-ctx", "countermodel-none-space",
        "rc-identity-none-space", "pair-none-space"])
def test_check_takes_a_space_and_a_context_or_none(call):
    """``check`` and the calls to it test their space and context where
    they enter, so a wrong one raises ``SpaceError``, not a bare
    ``AttributeError`` or ``TypeError`` from inside the sweep."""
    with pytest.raises(SpaceError, match="InstanceSpace"):
        call()


def test_check_accepts_a_context_with_the_same_operator_names():
    """Contexts are matched by operator names, so a stand-in operator that
    keeps its registry name (a timed wrapper, say) is accepted."""
    lex = get_revision_operator("lex")
    stand_in = SerialRevisionOperator(lex.name, lex.transform)
    space = InstanceSpace(atoms=2, operators=OperatorConfig(revision="lex"))
    ctx = CheckContext(space.lang, OperatorConfig(revision=stand_in))
    assert check("Ind", space, ctx=ctx).holds


@pytest.mark.parametrize("space", [
    InstanceSpace(atoms=2),
    InstanceSpace(atoms=3, mode="sampled", sample_count=300, seed=18),
], ids=["rows", "direct"])
def test_dropped_context_is_freed_without_the_cycle_collector(space):
    """Nothing a context builds refers back to it, so its memo tables go
    as soon as the last reference does, not at the next cyclic collection."""
    gc.disable()
    try:
        ctx = CheckContext.from_space(space)
        for pid in ("K6", "K-star-2", "C-con-1", "UB"):
            check(pid, space, ctx=ctx)
        ref = weakref.ref(ctx)
        del ctx
        assert ref() is None
    finally:
        gc.enable()


def test_existential_postulate_reports_witnesses_as_success():
    report = check("DiP", InstanceSpace(atoms=2))
    assert report.kind == "existential"
    assert report.total_hits > 0
    assert report.holds and report.matches_expected()


def test_broken_operator_is_caught():
    """The evaluators must drive the configured operator, so an operator
    that ignores its input fails the success postulate immediately."""
    noop = SerialRevisionOperator("noop", lambda t, sat: t)
    space = InstanceSpace(atoms=2, operators=OperatorConfig(revision=noop))
    report = check("K2", space)
    assert not report.holds
    witness = report.violations[0]
    assert witness["operators"]["revision"] == "noop"


def test_broken_finisher_breaks_package_success():
    noop = SerialRevisionOperator("noop", lambda t, sat: t)
    space = InstanceSpace(atoms=2, operators=OperatorConfig(finisher=noop))
    assert not check("K-star-2", space).holds


def test_sampled_sweeps_are_deterministic():
    def run():
        space = InstanceSpace(atoms=3, mode="sampled", sample_count=400, seed=99)
        return check("C-star-2-plus", space)
    a, b = run(), run()
    assert a.checked == b.checked
    assert a.total_hits == b.total_hits
    assert a.violations == b.violations
    assert a.seed == 99


def test_equivalence_pair_sweep_clean_and_validated():
    space = InstanceSpace(atoms=2)
    report = check_equivalence_pair("PC3", "PC3-b", space)
    assert report.holds
    assert report.postulate == "PC3~PC3-b"
    with pytest.raises(UnknownPostulateError):
        check_equivalence_pair("PC3", "PC4-b", space)


def test_rc_identity_runs_and_holds_small():
    space = InstanceSpace(atoms=2)
    report = verify_rc_identity(space)
    assert report.holds
    assert report.checked == 75 * 75
    assert report.postulate == "rc-identity"


# Under a base operator that reverses the prior, the four pairs below
# disagree on this many of the 7,125 exhaustive 2-atom pset instances.
REVERSE_BASE_DISAGREEMENTS = {"C-star-1": 0, "C-star-2": 0, "C-star-3": 4066,
                              "C-star-4": 4616, "PC3": 922, "PC4": 956}


@pytest.fixture
def reverse_base(monkeypatch):
    op = SerialRevisionOperator("reverse", lambda t, sat: TPO(tuple(reversed(t.blocks))))
    monkeypatch.setitem(REVISION_OPERATORS, "reverse", op)  # witnesses replay it by name
    return OperatorConfig(base="reverse")


def test_disagreeing_pairs_report_and_replay(reverse_base):
    space = InstanceSpace(atoms=2, operators=reverse_base, violation_cap=3)
    ctx = CheckContext.from_space(space)
    for semantic, syntactic in sorted(EQUIVALENCE_PAIRS.items()):
        report = check_equivalence_pair(semantic, syntactic, space, ctx=ctx)
        assert report.checked == 7125
        assert report.total_hits == REVERSE_BASE_DISAGREEMENTS[semantic]
        assert report.holds == (report.total_hits == 0)
        assert len(report.violations) == min(3, report.total_hits)
        first = check(f"{semantic}-pair", space, first=True, ctx=ctx)
        assert len(first.violations) == min(1, report.total_hits)
        assert first.violations == report.violations[:1]
        for witness in report.violations:
            assert list(witness) == ["instance", "operators", "detail"]
            assert witness["operators"] == reverse_base.describe()
            detail = witness["detail"]
            assert list(detail) == ["semantic_holds", "syntactic_holds"]
            assert detail["semantic_holds"] != detail["syntactic_holds"]
            replayed = replay_witness(f"{semantic}-pair", json.loads(json.dumps(witness)), atoms=2)
            assert replayed == [detail]


@pytest.mark.parametrize("base", ["natural", "reverse"])
def test_every_witness_replays(reverse_base, base):
    """Every witness of every check, found by a sweep that keeps its plans
    in its own table, replays through ``Postulate.evaluate`` after a JSON
    round trip to a list holding its detail: under the default operators
    and under a base operator that reverses the prior."""
    space = InstanceSpace(atoms=2, operators=OperatorConfig(base=base), violation_cap=3)
    ctx = CheckContext.from_space(space)
    found = set()
    for pid in (*CATALOG, *PAIR_CHECKS, "rc-identity"):
        for witness in check(pid, space, first=True, ctx=ctx).violations:
            replayed = replay_witness(pid, json.loads(json.dumps(witness)), atoms=2)
            assert witness["detail"] in replayed, pid
            found.add(pid)
    # the paths that build witnesses run: 7 ids find some under the
    # default operators, 22 under the reversed base, S-star, P-star and
    # each pair whose forms can disagree among them
    assert len(found) == {"natural": 7, "reverse": 22}[base]
    if base == "reverse":
        assert PSET2_IDS - found == {"K-star-7", "K-star-8"}
        assert set(PAIR_CHECKS) - found == {"C-star-1-pair", "C-star-2-pair"}


def test_rc_identity_witnesses_record_stq_and_replay(lang2, monkeypatch):
    profile = (tpo({0}, {1, 2, 3}), tpo({3}, {0, 1, 2}))
    witness = {"instance": encode_instance("profile2", (profile,), lang2),
               "operators": {"strategy": "stq"}}
    assert replay_witness("rc-identity", witness, atoms=2) == []
    # with a broken synchronous aggregator the identity fails; witnesses
    # name the strategy the identity uses, not the space's
    monkeypatch.setattr(catalog, "stq", lambda p: TPO(tuple(reversed(p[0].blocks))))
    space = InstanceSpace(atoms=2, operators=OperatorConfig(strategy="round-robin"),
                          violation_cap=2)
    report = verify_rc_identity(space)
    assert report.total_hits > 2 and len(report.violations) == 2
    for bad in report.violations:
        assert bad["operators"] == {"strategy": "stq"}
        assert list(bad["detail"]) == ["aggregated", "closure_of_intersection"]
        assert replay_witness("rc-identity", bad, atoms=2) == [bad["detail"]]


_DROP = object()


def _ind_witness() -> dict:
    return json.loads(json.dumps(find_countermodel("Ind", InstanceSpace(atoms=2))))


@pytest.mark.parametrize("bad, error, fragment", [
    ({"operators": {"revision": "natural", "blender": "stq"}}, UnknownOperatorError,
     "unknown keys ['blender']"),
    ({"operators": {"revision": 3}}, UnknownOperatorError,
     "'revision' must be an operator name, got 3"),
    ({"atoms": 5}, SpaceError, "spaces support 1..4 atoms, got 5"),
    ({"instance": {"input": ["11"]}}, SpaceError, "a 'serial' instance needs the keys ['tpo']"),
    ({"instance": {"tpo": [["00"]], "input": ["11"]}}, SpaceError,
     "the order places 1 worlds, the language has 4"),
    ({"operators": _DROP}, SpaceError, "a witness must be an object holding an 'operators'"),
    ({"instance": _DROP}, SpaceError, "a 'serial' instance needs the keys ['tpo', 'input']"),
    ([], SpaceError, "a witness must be an object holding an 'operators'"),
    ({"operators": None}, SpaceError, "a witness must be an object holding an 'operators'"),
    ({"instance": {"tpo": [["00", "01", "10", "11"]], "input": 3}}, SpaceError,
     "a 'serial' instance holds a value of the wrong type"),
    ({"instance": None}, SpaceError, "a 'serial' instance needs the keys ['tpo', 'input']"),
    ({"instance": {"tpo": [["00", "01", "10", "11"]], "input": [3]}}, SpaceError,
     "world name 3 is not a 2-bit string"),
    # a string or an object where a list belongs would read as a list of
    # its characters or keys
    ({"postulate": "Conj-star", "atoms": 1, "instance": {"tpo": [["0", "1"]], "inputs": ["1"]}},
     SpaceError, "a 'pset' instance holds a value of the wrong type: expected a list, got '1'"),
    ({"atoms": 1, "instance": {"tpo": {"0": 1, "1": 2}, "input": ["1"]}}, SpaceError,
     "a 'serial' instance holds a value of the wrong type: expected a list, got {'0': 1"),
    ({"atoms": 1, "instance": {"tpo": ["0", "1"], "input": ["1"]}}, SpaceError,
     "a 'serial' instance holds a value of the wrong type: expected a list, got '0'"),
    ({"instance": {"tpo": [["00", "01", "10", "11"]], "input": "11"}}, SpaceError,
     "a 'serial' instance holds a value of the wrong type: expected a list, got '11'"),
    # no stream names a world twice in one block or input, or repeats a
    # member of a family
    ({"instance": {"tpo": [["00", "00", "01"], ["10", "11"]], "input": ["11"]}}, SpaceError,
     "world '00' is listed twice in one block or input"),
    ({"instance": {"tpo": [["00", "01", "10", "11"]], "input": ["11", "01", "11"]}}, SpaceError,
     "world '11' is listed twice in one block or input"),
    ({"postulate": "Conj-star", "instance": {"tpo": [["00", "01", "10", "11"]],
                                             "inputs": [["00"], ["00"]]}},
     SpaceError, "a family lists the member ['00'] twice"),
    ({"postulate": "C-con-1", "instance": {"tpo": [["00", "01", "10", "11"]],
                                           "inputs": [["01", "00"], ["11"], ["00", "01"]]}},
     SpaceError, "a family lists the member ['00', '01'] twice"),
    # nor an empty input, family or member, a pset or pset2 family whose
    # members share no world, or a profile of other than two orders
    ({"instance": {"tpo": [["00", "01", "10", "11"]], "input": []}}, SpaceError,
     "an input or family member must hold at least one world"),
    ({"postulate": "Conj-star", "instance": {"tpo": [["00", "01", "10", "11"]], "inputs": []}},
     SpaceError, "a family needs at least one member"),
    ({"postulate": "P-star", "instance": {"tpo": [["00", "01", "10", "11"]],
                                          "inputs": [["00"]], "inputs2": [[]]}},
     SpaceError, "an input or family member must hold at least one world"),
    ({"postulate": "Conj-star", "instance": {"tpo": [["00", "01", "10", "11"]],
                                             "inputs": [["01"], ["10"]]}},
     SpaceError, "the members of a jointly consistent family share no world"),
    ({"postulate": "P-star", "instance": {"tpo": [["00", "01", "10", "11"]],
                                          "inputs": [["00"]], "inputs2": [["01"], ["10"]]}},
     SpaceError, "the members of a jointly consistent family share no world"),
    ({"postulate": "UB", "instance": {"profile": [[["00", "01", "10", "11"]]]}},
     SpaceError, "a profile must hold 2 orders, this one holds 1"),
    ({"postulate": "UB", "instance": {"profile": [[["00", "01", "10", "11"]]] * 3}},
     SpaceError, "a profile must hold 2 orders, this one holds 3"),
], ids=["unknown-role", "non-string-name", "atoms", "missing-key", "partial-preorder",
        "no-operators", "no-instance", "list-witness", "null-operators", "input-not-a-list",
        "null-instance", "non-string-world", "string-member", "object-preorder",
        "string-block", "string-input", "world-twice-in-block", "world-twice-in-input",
        "member-twice", "member-twice-in-other-order", "empty-input", "empty-family",
        "empty-member", "inconsistent-pset-family", "inconsistent-pset2-family",
        "one-order-profile", "three-order-profile"])
def test_replay_rejects_witnesses_from_outside_the_program(bad, error, fragment):
    """``bad`` updates a real witness (``_DROP`` deletes a key; ``atoms`` and
    ``postulate`` set the replay's arguments), or, when it is not a dict,
    is the witness itself."""
    witness = _ind_witness()
    atoms, postulate = 2, "Ind"
    if isinstance(bad, dict):
        atoms, postulate = bad.get("atoms", 2), bad.get("postulate", "Ind")
        witness.update({k: v for k, v in bad.items() if k not in ("atoms", "postulate")})
        witness = {k: v for k, v in witness.items() if v is not _DROP}
    else:
        witness = bad + [witness]
    with pytest.raises(error) as err:
        replay_witness(postulate, witness, atoms=atoms)
    assert fragment in str(err.value)
    assert isinstance(err.value, RevforgeError)


# operators that leave their input unbelieved: a finisher that returns the
# aggregate, and a revision that revises by every world whatever the input
NOOP_FINISHER = OperatorConfig(finisher=SerialRevisionOperator("noop", lambda t, m: t))
STALE_REVISION = OperatorConfig(revision=SerialRevisionOperator(
    "stale", lambda t, m: natural_revise(t, m if m == 0 else (1 << t.num_worlds) - 1)))


@pytest.mark.parametrize("pid, operators", [("K-star-8", NOOP_FINISHER), ("K8", STALE_REVISION)],
                         ids=["K-star-8", "K8"])
def test_k8_skips_an_inconsistent_union_under_an_operator_that_disbelieves_its_input(
        pid, operators):
    """Beliefs outside the first input can meet the second where the two
    share no world; revising by their inconsistent union is undefined, so
    such an instance is skipped and the operator still gets a verdict."""
    report = check(pid, InstanceSpace(atoms=2, operators=operators))
    assert isinstance(report, CheckReport)
    assert report.skipped and report.violations
    # under the shipped operators the beliefs lie inside the first input,
    # so nothing is skipped
    assert check(pid, InstanceSpace(atoms=2)).skipped == 0


def test_default_seed_value():
    assert DEFAULT_SEED == 1729


# --- witness rendering ---

def test_render_value_types(lang2):
    assert render_value(True, lang2) is True
    assert render_value(2, lang2) == "10"
    assert render_value(frozenset({0, 3}), lang2) == ["00", "11"]
    assert render_value(tpo({1}, {0, 2, 3}), lang2) == "[{01} < {00,10,11}]"
    nested = render_value({"x": 1, "flag": False, "items": (0, 1)}, lang2)
    assert nested == {"x": "01", "flag": False, "items": ["00", "01"]}


def test_witness_payloads_are_json_serializable():
    for pid in ("Ind", "C-star-2-plus", "P-star"):
        report = check(pid, InstanceSpace(atoms=2, violation_cap=2), first=True)
        json.dumps(report.to_json_dict())


def test_replay_round_trip_for_package_witnesses():
    space = InstanceSpace(atoms=2, violation_cap=1)
    for pid in ("C-star-2-plus", "P-star"):
        witness = find_countermodel(pid, space)
        assert witness is not None
        hits = replay_witness(pid, witness, atoms=2)
        assert witness["detail"] in hits


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_shapes_round_trip_through_their_payloads(shape):
    spaces = (InstanceSpace(atoms=1),
              InstanceSpace(atoms=3, mode="sampled", sample_count=200, seed=5, max_set_size=3))
    for space in spaces:
        lang = space.lang
        count = 0
        for instance in space.instances(shape):
            payload = json.loads(json.dumps(encode_instance(shape, instance, lang)))
            assert list(payload) == [key for key, _ in SHAPES[shape]]
            assert decode_instance(shape, payload, lang) == instance
            count += 1
        assert count > 0


def test_set_witnesses_replay_their_detail():
    space = InstanceSpace(atoms=2, violation_cap=50)
    for pid in ("C-star-2-plus", "P-star"):
        report = check(pid, space, first=True)
        assert 0 < report.total_hits <= space.violation_cap
        details = [w["detail"] for w in report.violations]
        for witness in report.violations:
            assert replay_witness(pid, json.loads(json.dumps(witness)), atoms=2) == details


def _is_raw_hit_value(key: str, value) -> bool:
    """The values an evaluator may put in a hit, as ``render_value`` and
    replay read them: a world set, a list of world sets, a world under
    ``x`` or ``y``, a comparison symbol, a flag or an order."""
    if isinstance(value, list):
        return all(type(member) is frozenset for member in value)
    if type(value) is int:
        return key in ("x", "y")
    return type(value) in (frozenset, str, bool, TPO)


def _broken(space: InstanceSpace) -> tuple[InstanceSpace, CheckContext]:
    """``space`` under operators that break most sound entries, and its
    context: serial stages that reverse the prior whatever the input, and
    an aggregate, through the context's seam, that reverses the first
    member."""
    reverse = SerialRevisionOperator("reverse", lambda t, mask: TPO(tuple(reversed(t.blocks))))
    retract = SerialContractionOperator("reverse", lambda t, mask: TPO(tuple(reversed(t.blocks))))
    broken = replace(space, operators=OperatorConfig(revision=reverse, base=reverse,
                                                     contraction=retract,
                                                     strategy="round-robin"))
    ctx = CheckContext.from_space(broken)
    ctx.aggregate = lambda profile: TPO(tuple(reversed(profile[0].blocks)))
    return broken, ctx


def test_every_catalog_entry_executes_on_a_small_sample():
    space = InstanceSpace(atoms=2, mode="sampled", sample_count=25, seed=5)
    for pid in sorted(CATALOG):
        report = check(pid, space)
        assert isinstance(report, CheckReport)
        assert report.checked <= 25
    # Sound entries never hit under the shipped operators, so their hits
    # are built only under broken ones
    broken, ctx = _broken(space)
    entries = {**CATALOG, **PAIR_CHECKS, "rc-identity": engine.RC_IDENTITY}
    silent = set(entries)
    for pid, postulate in entries.items():
        for instance in broken.instances(postulate.shape):
            for hit in postulate.evaluate(ctx, *instance) or ():
                silent.discard(pid)
                assert all(_is_raw_hit_value(key, value) for key, value in hit.items()), (pid, hit)
    # what stays silent: closure and consistency hold of any order, K6 is
    # structural, rc-identity aggregates with stq itself, the C-star-1 and
    # C-star-2 forms fail together, and the rest need a finisher that
    # leaves the conjunction unbelieved
    assert silent == {"K1", "K-star-1", "K5", "K-star-5", "K6", "K7", "K-star-2", "K-star-6",
                      "K-star-6-minus", "K-star-7", "K-star-8", "S-star", "rc-identity",
                      "C-star-1-pair", "C-star-2-pair"}


def test_hits_turn_masks_into_world_sets():
    """``_hit`` turns each mask into its world set and a tuple of masks into
    a list of them, keeping the keys in order."""
    hit = catalog._hit(inputs=(0b0011, 0b0100), beliefs=0b1001)
    assert list(hit) == ["inputs", "beliefs"]
    assert hit == {"inputs": [frozenset({0, 1}), frozenset({2})], "beliefs": frozenset({0, 3})}


# (serial postulate, set twin): the set postulate restated for a family
TWINS = (("K1", "K-star-1"), ("K2", "K-star-2"), ("K3", "K-star-3"), ("K4", "K-star-4"),
         ("CR1", "C-star-1"), ("CC2", "C-con-2"), ("CR2", "C-star-2"), ("CC1", "C-con-1"),
         ("CR3", "C-star-3"), ("CC3", "C-con-3"), ("CR4", "C-star-4"), ("CC4", "C-con-4"),
         ("Ind", "Ind-star"), ("CR2", "C-star-2-plus"))
# (serial2 postulate, pset2 twin): the same, restated for two families
PAIR_TWINS = (("K7", "K-star-7"), ("K8", "K-star-8"))
# the key a set twin's hit writes where its serial postulate's writes another
TWIN_WORDS = {"input": "conjunction", "conjunction_beliefs": "union_beliefs"}


def _as_twin(hits):
    """A serial postulate's ``hits`` under the keys its set twin writes."""
    return hits and [{TWIN_WORDS.get(key, key): value for key, value in hit.items()}
                     for hit in hits]


def _reversing(name: str) -> OperatorConfig:
    def reverse(t, mask):
        return TPO(tuple(reversed(t.blocks)))
    return OperatorConfig(revision=SerialRevisionOperator(name, reverse),
                          contraction=SerialContractionOperator(name, reverse))


each_serial_operator = pytest.mark.parametrize(
    "operators", [OperatorConfig(), OperatorConfig(revision="lex"),
                  OperatorConfig(revision="restrained"), _reversing("reverse")],
    ids=["natural", "lex", "restrained", "reverse"])


@each_serial_operator
def test_set_twins_agree_with_their_serial_postulates(operators):
    """Under parallel operators that revise and contract by a one-member
    family as the serial ones do by its member, each set twin finds
    exactly the hits of its serial postulate on every two-atom serial
    instance; under operators that reverse the prior, every pair but
    K1's, which cannot fail, finds some."""
    space = InstanceSpace(atoms=2, operators=operators)
    ctx, view = CheckContext.from_space(space), CheckContext.from_space(space)
    view.previse = lambda t, masks: view.revise(t, masks[0])
    view.pcontract = lambda t, masks: view.contract(t, masks[0])
    hits = dict.fromkeys(TWINS, 0)
    for t, a in space.instances("serial"):
        for serial, twin in TWINS:
            expected = _as_twin(CATALOG[serial].evaluate(ctx, t, a))
            assert CATALOG[twin].evaluate(view, t, (a,)) == expected, (serial, twin, t, a)
            hits[serial, twin] += len(expected or ())
    if operators.describe()["revision"] == "reverse":
        assert [pair for pair, count in hits.items() if not count] == [("K1", "K-star-1")]


@each_serial_operator
def test_pair_twins_agree_with_their_serial_postulates(operators):
    """Under a parallel operator that revises by a family as the serial
    one does by its conjunction, K-star-7 and K-star-8 find exactly the
    hits of K7 and K8 on every two-atom serial2 instance ``(t, a, b)``,
    read as the families ``(a,)`` and ``(b,)``; under an operator that
    reverses the prior, K8's pair finds some and K7's none, since both
    sides of K7 revise to the same reversed order."""
    space = InstanceSpace(atoms=2, operators=operators)
    ctx, view = CheckContext.from_space(space), CheckContext.from_space(space)
    view.previse = lambda t, masks: view.revise(t, functools.reduce(operator.and_, masks))
    hits = dict.fromkeys(PAIR_TWINS, 0)
    for t, a, b in space.instances("serial2"):
        for serial, twin in PAIR_TWINS:
            expected = _as_twin(CATALOG[serial].evaluate(ctx, t, a, b))
            assert CATALOG[twin].evaluate(view, t, (a,), (b,)) == expected, (serial, twin, t, a, b)
            hits[serial, twin] += len(expected or ())
    if operators.describe()["revision"] == "reverse":
        assert [pair for pair, count in hits.items() if not count] == [("K7", "K-star-7")]


@pytest.mark.parametrize("atoms", [1, 2, 3])
def test_the_sweep_loop_agrees_with_evaluate_on_each_path(atoms):
    """``check`` composes each instance itself: through the sweep's plan
    table where the context keeps rows (1 and 2 atoms), with a plan per
    draw where it does not (3 atoms), and with no plan for entries that
    have none.  On every path its report is a fold of
    ``Postulate.evaluate`` over the same stream on the same context,
    under the shipped operators and under broken ones that make hits."""
    shipped = InstanceSpace(atoms=atoms, mode="sampled", sample_count=30, seed=11)
    entries = {**CATALOG, **PAIR_CHECKS, "rc-identity": engine.RC_IDENTITY}
    hits = 0
    for space, ctx in ((shipped, CheckContext.from_space(shipped)), _broken(shipped)):
        for pid, postulate in entries.items():
            generated = checked = total_hits = 0
            violations = []
            for instance in space.instances(postulate.shape):
                generated += 1
                found = postulate.evaluate(ctx, *instance)
                if found is not None:
                    checked += 1
                    total_hits += len(found)
                    violations += [engine._make_witness(postulate, instance, hit, ctx)
                                   for hit in found]
            report = check(pid, space, ctx=ctx)
            assert (report.generated, report.checked, report.total_hits, report.violations) == (
                generated, checked, total_hits, violations[:space.violation_cap]), pid
            hits += total_hits
    assert hits > 0
