"""The bitmask core against the frozenset core it replaced.

``reference_core`` is the earlier implementation, which kept every world
set as a frozenset.  The shipped operators must build the same orders,
compared block by block, on:

* every serial operator over all 75 two-atom priors and every input;
* every strategy over all 75 x 75 two-atom profiles;
* the pipeline for all 27 base x finisher x strategy combinations over
  every exhaustive two-atom ``pset`` instance;
* contraction over every two-atom ``cset`` family;
* rational closure of every intersected pair of two-atom tables;
* a seeded three-atom sample of all of the above;
* the profile entries UB, LB, Factoring, SPU, WPU and Parity, against
  their bodies over world sets, on every two-atom profile and the
  three-atom sample, under the default aggregate and a reversing one;
* the S-star, P-star, GR-star, C-star-3-b, C-star-4-b, PC3-b and PC4-b
  evaluators, which the shipped catalog runs on masks, with plans made
  once per input family and follow-up beliefs read once per order,
  against the per-instance frozenset versions, on every exhaustive
  two-atom instance, both under the default operators and under a base
  operator that reverses the prior, which makes them fail;
* the two-family plans, ``_pair_plan``, ``_mixed_plan``, ``_s_star_plan``
  and ``_input_pair``, against the one five-field plan they split, on
  every pair of two-atom families or inputs and a seeded three-atom
  sample.

The reference side is memoized, which is sound because it is pure; the
shipped side runs the operators unmemoized.  The two versions of an
evaluator share one memoized ``CheckContext``, so only their own set
algebra differs.
"""

import itertools
from functools import lru_cache
from types import SimpleNamespace

import pytest

import reference_core as ref
from revforge import (CATALOG, NATURAL_CONTRACT, REVISION_OPERATORS, STRATEGIES, TPO,
                      Aggregator, CheckContext, InstanceSpace, OperatorConfig,
                      ParallelContractionOperator, ParallelRevisionOperator,
                      SerialRevisionOperator, conditional_set, rational_closure)
from revforge.postulates import SYNTACTIC_FORMS, all_propositions, catalog, enumerate_tpos
from revforge.tpo import mask_of

ORDERS = tuple(enumerate_tpos(4))
PSETS = tuple(InstanceSpace(atoms=2).instances("pset"))
CSETS = tuple(InstanceSpace(atoms=2).instances("cset"))
SAMPLE = InstanceSpace(atoms=3, mode="sampled", sample_count=150, seed=4242, max_set_size=3)
SAMPLED_PSETS = tuple(SAMPLE.instances("pset"))
SAMPLED_CSETS = tuple(SAMPLE.instances("cset"))
SAMPLED_PROFILES = tuple(profile for (profile,) in SAMPLE.instances("profile2"))
# each operator's mask transform, driven by the mask of the reference's world set
SERIAL = {op.name: lambda t, sat, op=op: op.transform(t, sum(1 << w for w in sat))
          for op in (*REVISION_OPERATORS.values(), NATURAL_CONTRACT)}
REF_SERIAL = {**ref.REVISIONS, NATURAL_CONTRACT.name: ref.natural_contract}
COMBOS = tuple(itertools.product(REVISION_OPERATORS, REVISION_OPERATORS, STRATEGIES))


@lru_cache(maxsize=None)
def old(t):
    """The reference order with ``t``'s blocks, which it validates."""
    return ref.TPO(t.blocks)


@lru_cache(maxsize=None)
def old_serial(name, r, sat):
    return REF_SERIAL[name](r, sat)


@lru_cache(maxsize=None)
def old_aggregate(strategy, profile):
    return ref.Aggregator(STRATEGIES[strategy]).aggregate(profile)


def old_pipeline(base, finisher, strategy, r, members):
    merged = old_aggregate(strategy, tuple(old_serial(base, r, m) for m in members))
    return old_serial(finisher, merged, frozenset(range(r.num_worlds)).intersection(*members))


def old_closure(profile):
    tables = [ref.ConditionalSet.from_tpo(old(t)) for t in profile]
    return ref.rational_closure(tables[0].intersect(tables[1]))


def agrees(new, reference) -> bool:
    return new.blocks == reference.blocks and new.ranks == reference._ranks


@pytest.mark.parametrize("orders", [ORDERS, tuple(t for t, _ in SAMPLED_PSETS)],
                         ids=["2-atom", "3-atom"])
def test_order_queries(orders):
    for t in orders:
        r = old(t)
        assert agrees(t, r)
        assert t.num_worlds == r.num_worlds and t.num_blocks == r.num_blocks
        for sat in (frozenset(),) + all_propositions(t.num_worlds):
            assert t.min_of(sat) == r.min_of(sat)


@pytest.mark.parametrize("name", SERIAL)
def test_serial_operators(name):
    inputs = all_propositions(4)
    if name == NATURAL_CONTRACT.name:
        inputs = (frozenset(),) + inputs
    for t in ORDERS:
        for sat in inputs:
            assert agrees(SERIAL[name](t, sat), old_serial(name, old(t), sat)), (t, sat)
    for t, s in SAMPLED_PSETS:
        for sat in s:
            assert agrees(SERIAL[name](t, sat), old_serial(name, old(t), sat)), (t, sat)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_aggregation_strategies(strategy):
    aggregator = Aggregator(STRATEGIES[strategy])
    profiles = itertools.chain(itertools.product(ORDERS, repeat=2), SAMPLED_PROFILES,
                               (p + p[:1] for p in SAMPLED_PROFILES))
    for profile in profiles:
        expected = ref.Aggregator(STRATEGIES[strategy]).aggregate(tuple(map(old, profile)))
        assert agrees(aggregator.aggregate(profile), expected), profile


@pytest.mark.parametrize("base, finisher, strategy", COMBOS)
def test_pipeline(base, finisher, strategy):
    op = ParallelRevisionOperator(REVISION_OPERATORS[base], REVISION_OPERATORS[finisher],
                                  Aggregator(STRATEGIES[strategy]))
    for t, s in PSETS + SAMPLED_PSETS:
        assert agrees(op.revise_worlds(t, s), old_pipeline(base, finisher, strategy, old(t), s)), \
            (t, s)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_contraction(strategy):
    op = ParallelContractionOperator(NATURAL_CONTRACT, Aggregator(STRATEGIES[strategy]))
    for t, s in CSETS + SAMPLED_CSETS:
        profile = tuple(old_serial(NATURAL_CONTRACT.name, old(t), m) for m in s)
        assert agrees(op.contract_worlds(t, s), old_aggregate(strategy, profile)), (t, s)


def test_rational_closure_of_intersections():
    tables = {t: conditional_set(t) for t in ORDERS}
    for a, b in itertools.product(ORDERS, repeat=2):
        assert agrees(rational_closure(tables[a].intersect(tables[b])), old_closure((a, b)))
    for a, b in SAMPLED_PROFILES:
        closed = rational_closure(conditional_set(a).intersect(conditional_set(b)))
        assert agrees(closed, old_closure((a, b)))


REVERSE = SerialRevisionOperator("reverse", lambda t, sat: TPO(tuple(reversed(t.blocks))))
EVALUATOR_CONFIGS = {"natural": OperatorConfig(), "reverse-base": OperatorConfig(base=REVERSE)}
REF_EVALUATORS = {"S-star": ref.s_star, "P-star": ref.p_star, "GR-star": ref.gr_star,
                  "C-star-3-b": ref.cs3_b, "C-star-4-b": ref.cs4_b,
                  "PC3-b": ref.pc3_b, "PC4-b": ref.pc4_b}


def frozenset_view(ctx):
    """``ctx`` as the frozenset evaluators read it: ``full`` and ``props``
    as world sets, and a ``previse`` that takes a family of world sets and
    maps it through ``mask_of`` onto the shared ``ctx.previse``."""
    n = ctx.lang.num_worlds
    return SimpleNamespace(
        full=ctx.lang.all_worlds, props=all_propositions(n),
        previse=lambda t, sets: ctx.previse(t, tuple(mask_of(m, n) for m in sets)))


@pytest.mark.parametrize("config_name", EVALUATOR_CONFIGS)
@pytest.mark.parametrize("pid", REF_EVALUATORS)
def test_catalog_evaluators(pid, config_name):
    """Hits, skips and syntactic verdicts equal the frozenset evaluators'."""
    ctx = CheckContext.from_space(InstanceSpace(atoms=2,
                                                operators=EVALUATOR_CONFIGS[config_name]))
    if pid in SYNTACTIC_FORMS:
        shape, shipped = "pset", SYNTACTIC_FORMS[pid].evaluate
    else:
        shape, shipped = CATALOG[pid].shape, CATALOG[pid].evaluate
    reference, view = REF_EVALUATORS[pid], frozenset_view(ctx)
    failing = 0
    for instance in InstanceSpace(atoms=2).instances(shape):
        expected = reference(view, *instance)
        assert shipped(ctx, *instance) == expected, instance
        # a form fails where it does not hold, an entry where it has hits
        failing += expected is False if pid in SYNTACTIC_FORMS else bool(expected)
    # the comparison reaches the failure paths: P-star fails under any
    # operators, the others under the reversing base operator
    assert bool(failing) == (config_name == "reverse-base" or pid == "P-star")


@pytest.mark.parametrize("atoms", [2, 3])
def test_two_family_plans_are_parts_of_the_five_field_plan(atoms):
    """``_pair_plan`` is the five-field plan without its mixed family,
    ``_mixed_plan`` that family and the two conjunctions, and
    ``_s_star_plan`` None where the family is inconsistent, else the
    family and the joint conjunction: on all 9,025 pairs of the 95
    two-atom families, with ``_input_pair`` on every pair of two-atom
    inputs, and on 2,000 seeded three-atom ``pset2`` draws."""
    full = (1 << (1 << atoms)) - 1
    if atoms == 2:
        families = [s for t, s in PSETS if t is PSETS[0][0]]
        assert len(families) == 95
        pairs = list(itertools.product(families, repeat=2))
        for a, b in itertools.product(all_propositions(4), repeat=2):
            masks, merged, _, first, second = ref.pair_plan(full, (a,), (b,))
            assert catalog._input_pair(full, a, b) == (masks, merged, first, second)
    else:
        space = InstanceSpace(atoms=3, mode="sampled", sample_count=2000, seed=5)
        pairs = [(s1, s2) for _, s1, s2 in space.instances("pset2")]
        assert len(pairs) == 2000
    inside = 0
    for s1, s2 in pairs:
        masks, merged, mixed, first, second = ref.pair_plan(full, s1, s2)
        assert catalog._pair_plan(full, s1, s2) == (masks, merged, first, second)
        assert catalog._mixed_plan(full, s1, s2) == (mixed, first, second)
        star = None if mixed is None else (mixed, first & second)
        assert catalog._s_star_plan(full, s1, s2) == star
        inside += mixed is not None
    # both sides of the domain are reached: 2,880 two-atom pairs are inside
    assert inside == 2_880 if atoms == 2 else 0 < inside < len(pairs)


REF_PROFILE_ENTRIES = {"UB": ref.ub, "LB": ref.lb, "Factoring": ref.factoring,
                       "SPU": ref.spu, "WPU": ref.wpu, "Parity": ref.parity}


@pytest.mark.parametrize("atoms", [2, 3])
@pytest.mark.parametrize("aggregate", ["shipped", "reversed"])
@pytest.mark.parametrize("pid", REF_PROFILE_ENTRIES)
def test_profile_entries(pid, aggregate, atoms):
    """Hits, in order, equal the world-set bodies' on every two-atom profile
    and a seeded three-atom sample, under the default strategy and under an
    aggregate that reverses the first member, which breaks every entry."""
    space = InstanceSpace(atoms=2) if atoms == 2 else SAMPLE
    ctx = CheckContext.from_space(space)
    if aggregate == "reversed":
        ctx.aggregate = lambda profile: TPO(tuple(reversed(profile[0].blocks)))
    reference = REF_PROFILE_ENTRIES[pid]
    failing = 0
    for (profile,) in space.instances("profile2"):
        expected = reference(ctx, profile)
        assert CATALOG[pid].evaluate(ctx, profile) == expected, profile
        failing += bool(expected)
    assert bool(failing) == (aggregate == "reversed")
