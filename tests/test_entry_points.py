"""The names and call shapes the benchmark in ``bench/`` relies on.

The benchmark drives revforge only through its public API and hooks a
few public seams for the traced run.  A cleanup that renames or reshapes
one of these turns benchmark requests into failures, so they are pinned
here.
"""

import dataclasses
import json
import random

import pytest

import revforge
from revforge import (TPO, Aggregator, CheckContext, InstanceSpace, Language, OperatorConfig,
                      PartitionError, check, conditional_set, default_parallel_contraction,
                      default_parallel_revision, get_contraction_operator,
                      get_revision_operator, loads_scenario, make_strategy,
                      rational_closure, run_scenario)
from revforge.postulates import enumerate_tpos, random_tpo
from revforge.tpo import mask_of

from conftest import tpo

BENCH_NAMES = (
    "Aggregator", "CheckContext", "InstanceSpace", "Language", "OperatorConfig", "TPO",
    "canonical_formula", "check", "check_equivalence_pair", "conditional_set",
    "default_parallel_contraction", "default_parallel_revision", "format_formula",
    "get_contraction_operator", "get_revision_operator", "loads_scenario", "make_strategy",
    "models", "parse_formula", "rational_closure", "run_scenario", "verify_rc_identity",
)
A = frozenset({2, 3})
B = frozenset({1, 3})


def test_package_exports_what_the_benchmark_calls():
    for name in BENCH_NAMES:
        assert callable(getattr(revforge, name)), name
    assert callable(revforge.TPO.min_of)
    assert revforge.OperatorConfig is revforge.postulates.OperatorConfig


@pytest.mark.parametrize("package", [revforge, revforge.postulates],
                         ids=["revforge", "revforge.postulates"])
def test_every_export_resolves(package):
    """A name removed from a module but left in ``__all__`` breaks
    ``from package import *``; each listed name must be there, once."""
    assert len(set(package.__all__)) == len(package.__all__)
    assert [name for name in package.__all__ if not hasattr(package, name)] == []


def test_registry_lookups_and_default_pipelines():
    t = tpo({0}, {1, 2, 3})
    assert get_revision_operator("natural").name == "natural"
    assert get_contraction_operator("natural-contract").name == "natural-contract"
    profile = (get_revision_operator("natural").revise(t, A),
               get_revision_operator("natural").revise(t, B))
    assert Aggregator(make_strategy("stq")).aggregate(profile) == tpo({1, 2, 3}, {0})
    assert default_parallel_revision().revise_worlds(t, (A, B)) == tpo({3}, {1, 2}, {0})
    assert default_parallel_contraction().contract_worlds(t, (A, B)).num_worlds == 4


def test_config_and_context_signatures():
    config = OperatorConfig(revision="natural", contraction="natural-contract", base="lex",
                            finisher="restrained", strategy="round-robin")
    ctx = CheckContext(Language(("A", "B")), config)
    for name in ("previse", "pcontract", "aggregate", "revise", "contract"):
        assert callable(getattr(ctx, name)), name
    assert ctx.aggregator.name == "round-robin"
    masks = tuple(mask_of(m, 4) for m in (A, B))
    assert ctx.previse(tpo({0}, {1, 2, 3}), masks).belief_worlds() == frozenset({3})


def test_serial_operators_stay_replaceable_dataclasses():
    calls = []

    def counted(transform):
        def wrapper(t, sat):
            calls.append(sat)
            return transform(t, sat)
        return wrapper

    t = tpo({0}, {1, 2, 3})
    for op, method in ((get_revision_operator("lex"), "revise"),
                       (get_contraction_operator("natural-contract"), "contract")):
        assert dataclasses.is_dataclass(op) and isinstance(op.name, str)
        hooked = dataclasses.replace(op, transform=counted(op.transform))
        assert hooked.name == op.name
        assert getattr(hooked, method)(t, A) == getattr(op, method)(t, A)
    # the stand-in's transform sees the world mask of A, not the set
    assert calls == [sum(1 << w for w in A)] * 2
    assert all(type(mask) is int for mask in calls)


def test_a_parsed_scenario_runs_the_operators_swapped_into_it():
    """The traced run replaces a parsed scenario's operator fields with
    timed stand-ins; ``run_scenario`` must call those, not rebuild its own."""
    doc = {"version": 1, "atoms": ["A", "B"],
           "operators": {"base": "lex", "agg": "round-robin"},
           "steps": [{"op": "revise-set", "sentences": ["A", "B"]},
                     {"op": "contract-set", "sentences": ["A"]},
                     {"op": "serial-revise", "sentence": "~B"},
                     {"op": "serial-contract", "sentence": "A"}]}
    scenario = loads_scenario(json.dumps(doc))
    calls = []

    def counted(role, fn):
        def wrapper(*args):
            calls.append(role)
            return fn(*args)
        return wrapper

    strategy = scenario.aggregator.strategy
    swapped = dataclasses.replace(
        scenario,
        base=dataclasses.replace(scenario.base, transform=counted("base", scenario.base.transform)),
        finisher=dataclasses.replace(scenario.finisher,
                                     transform=counted("finisher", scenario.finisher.transform)),
        contraction=dataclasses.replace(
            scenario.contraction, transform=counted("contraction", scenario.contraction.transform)),
        aggregator=dataclasses.replace(
            scenario.aggregator,
            strategy=dataclasses.replace(strategy, team=counted("team", strategy.team))))
    assert (swapped.base.name, swapped.finisher.name) == ("lex", "natural")
    assert run_scenario(swapped).to_json() == run_scenario(scenario).to_json()
    # two members and one serial step; one finish; one member and one serial step
    assert [calls.count(role) for role in ("base", "finisher", "contraction")] == [3, 1, 2]
    assert calls.count("team") >= 2  # at least one round per aggregation


def test_an_instance_space_subclass_drives_check():
    full = InstanceSpace(atoms=2)
    first = next(iter(full.instances("pset")))[0]
    psets = [s for t, s in full.instances("pset") if t == first]

    class OnePrior(InstanceSpace):
        def instances(self, shape_name: str):
            return ((first, s) for s in psets)

    report = check("Conj-star", OnePrior(atoms=2))
    assert report.holds and report.checked == len(psets) == 95


def test_built_orders_keep_the_frozenset_surface():
    t = tpo({0}, {1, 2, 3})
    built = [get_revision_operator(name).revise(t, A) for name in ("natural", "lex", "restrained")]
    built += [
        get_contraction_operator("natural-contract").contract(t, A),
        Aggregator(make_strategy("round-robin")).aggregate((t, built[0])),
        default_parallel_revision().revise_worlds(t, (A, B)),
        default_parallel_contraction().contract_worlds(t, (A, B)),
        TPO.uniform(4),
        TPO.from_ranks([2, 0, 2, 1]),
        rational_closure(conditional_set(t)),
        list(enumerate_tpos(4))[40],
        random_tpo(random.Random(3), 4),
    ]
    for order in built:
        rebuilt = TPO(order.blocks)
        assert rebuilt == order and hash(rebuilt) == hash(order)
        assert type(order.blocks) is tuple
        assert all(type(block) is frozenset for block in order.blocks)
        assert order.num_worlds == 4
        best = TPO.min_of(order, frozenset({1, 3}))
        assert type(best) is frozenset and best <= {1, 3}


@pytest.mark.parametrize("empty", [lambda: TPO.uniform(0), lambda: TPO.from_ranks([])],
                         ids=["uniform", "from_ranks"])
def test_no_constructor_builds_an_empty_order(empty):
    with pytest.raises(PartitionError):
        empty()
