"""The closed catalog of checkable postulates.

Each entry binds an identifier to one executable predicate over
instances of a fixed shape:

* ``serial``   (t, a): one preorder, one consistent input proposition.
* ``sercon``   (t, a): same, checked against the contraction operator.
* ``serial2``  (t, a, b): one preorder, two input propositions.
* ``pset``     (t, s): a preorder and a jointly consistent input set.
* ``pset2``    (t, s1, s2): a preorder and two input sets.
* ``cset``     (t, s): a preorder and an input set for contraction.
* ``profile2`` (profile,): a pair of preorders for aggregation checks.

How each shape is enumerated, sampled and serialized is defined once, in
``spaces.SHAPES``.

Postulates are stated in their semantic form, as constraints on how the
posterior preorder relates to the prior one; belief-set conditions are
phrased through belief worlds (a sentence is believed exactly when the
belief worlds sit inside its models).  Syntactic companion forms, which
quantify over follow-up inputs and apply the operator again, live in
``SYNTACTIC_FORMS`` and are exercised through the agreement-pair check.

Evaluators return a list of hit dictionaries (empty when the instance
is fine) or ``None`` when the instance falls outside the postulate's
domain of definition and is skipped.  For the one existential entry the
hits are witnesses rather than violations, and the property holds over
a space when at least one witness turns up.

Evaluators work on world masks where a sweep is hot.  A ``CheckContext``
hands every consistent proposition out as one shared object, indexed by
mask in ``ctx.subsets``, with ``ctx.mask`` mapping it back; belief sets
are read as ``masks[0]`` of an order and best worlds as ``min_mask``.
What an evaluator derives from its input families alone (merged and
negated families, conjunction masks, subfamilies, dominated world
pairs) does not depend on the prior order, so it is a *plan*: a function
of the world count and the families, looked up through
``ctx.derived(plan, *families)`` and computed once per distinct family
rather than once per instance.  Syntactic forms read the beliefs after
every single follow-up input from ``ctx.follow_ups(order)``, once per
order.  Hits keep frozensets, taken from ``ctx.subsets``, so witnesses
render as before.

Two further kinds of check share that evaluator signature and live
outside ``CATALOG``: ``PAIR_CHECKS`` holds one ``<id>-pair`` entry per
agreement pair, and ``RC_IDENTITY`` is the rational-closure identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from typing import Callable, Iterable

from ..aggregation import stq
from ..logic import And, Not, models
from ..tpo import TPO, rational_closure
from .spaces import all_subsets, proposition_masks

Hits = "list[dict] | None"


@dataclass(frozen=True)
class Postulate:
    id: str
    shape: str
    summary: str
    evaluate: Callable = field(repr=False)
    kind: str = "universal"
    expected: object = "sound"
    # (role, name) pairs the evaluator uses whatever the space configures;
    # witnesses record these instead of the space's operators when given
    operators: tuple = ()

    def expected_for(self, config) -> str:
        """Expected outcome for an operator configuration:
        'sound', 'violated', or 'exploratory'."""
        return self.expected(config) if callable(self.expected) else self.expected


CATALOG: dict[str, Postulate] = {}


def _register(id: str, shape: str, summary: str, *, kind: str = "universal",
              expected: object = "sound"):
    def wrap(fn):
        CATALOG[id] = Postulate(id, shape, summary, fn, kind, expected)
        return fn
    return wrap


def _sym(diff: int) -> str:
    return "<" if diff < 0 else (">" if diff > 0 else "~")


# The order helpers below read ``ranks`` directly: their worlds all come
# from the context's world sets, so the range check of ``TPO.rank`` would
# only cost time.

def _order_flips(t: TPO, t2: TPO, region: Iterable[int]) -> list[dict]:
    """Pairs in ``region`` whose comparison changes between t and t2."""
    worlds = sorted(region)
    r, r2 = t.ranks, t2.ranks
    hits = []
    for i, x in enumerate(worlds):
        for y in worlds[i + 1:]:
            before = _sym(r[x] - r[y])
            after = _sym(r2[x] - r2[y])
            if before != after:
                hits.append({"x": x, "y": y, "prior": before, "posterior": after})
    return hits


def _kept_below(t: TPO, t2: TPO, inside: Iterable[int], outside: Iterable[int],
                weak: bool) -> list[dict]:
    """Inside-worlds weakly/strictly below outside-worlds must stay so."""
    r, r2 = t.ranks, t2.ranks
    hits = []
    for x in sorted(inside):
        for y in sorted(outside):
            if weak:
                if r[x] <= r[y] and not r2[x] <= r2[y]:
                    hits.append({"x": x, "y": y, "prior": "<=", "posterior": ">"})
            else:
                if r[x] < r[y] and not r2[x] < r2[y]:
                    hits.append({"x": x, "y": y, "prior": "<", "posterior": _sym(r2[x] - r2[y])})
    return hits


def _promoted(t: TPO, t2: TPO, inside: Iterable[int], outside: Iterable[int]) -> list[dict]:
    """Weakly-below inside-worlds must end up strictly below."""
    r, r2 = t.ranks, t2.ranks
    hits = []
    for x in sorted(inside):
        for y in sorted(outside):
            if r[x] <= r[y] and not r2[x] < r2[y]:
                hits.append({"x": x, "y": y, "prior": _sym(r[x] - r[y]),
                             "posterior": _sym(r2[x] - r2[y])})
    return hits


def _merge(s1: tuple[frozenset[int], ...], s2: tuple[frozenset[int], ...]) -> tuple:
    merged = list(s1)
    for member in s2:
        if member not in merged:
            merged.append(member)
    return tuple(merged)


def _negation(ctx, a: frozenset[int]) -> frozenset[int]:
    """The complement of proposition ``a``, as the shared table's set."""
    return ctx.subsets[ctx.full_mask ^ ctx.mask[a]]


def _conjunction(num_worlds: int, s) -> int:
    """The mask of the worlds satisfying every member of ``s``."""
    masks = proposition_masks(num_worlds)
    conj = (1 << num_worlds) - 1
    for member in s:
        conj &= masks[member]
    return conj


def _negations(num_worlds: int, s) -> tuple[frozenset[int], ...]:
    """The member-wise negations of ``s``, as the shared table's sets."""
    masks, subsets = proposition_masks(num_worlds), all_subsets(num_worlds)
    full = (1 << num_worlds) - 1
    return tuple(subsets[full ^ masks[member]] for member in s)


def _pair_plan(num_worlds: int, s1, s2) -> tuple:
    """The prior-independent part of the ``pset2`` entries.

    ``(merged, mixed, first, second)``: the union family of s1 and s2;
    s1 joined with the negations of s2's members, or None when that
    family is inconsistent; and the conjunction masks of s1 and of s2.
    """
    mixed = _merge(s1, _negations(num_worlds, s2))
    if not _conjunction(num_worlds, mixed):
        mixed = None
    return (_merge(s1, s2), mixed, _conjunction(num_worlds, s1),
            _conjunction(num_worlds, s2))


# --- serial revision ---

@_register("K1", "serial", "revised belief sets are deductively closed")
def _k1(ctx, t, a):
    # Beliefs are represented by their worlds, so closure cannot fail;
    # kept executable so the catalog stays total.
    ctx.revise(t, a)
    return []


@_register("K2", "serial", "the input is believed after revising by it")
def _k2(ctx, t, a):
    beliefs = ctx.revise(t, a).belief_worlds()
    if not beliefs <= a:
        return [{"beliefs": beliefs, "input": a}]
    return []


@_register("K3", "serial", "revision keeps any prior beliefs consistent with the input")
def _k3(ctx, t, a):
    expansion = t.belief_worlds() & a
    beliefs = ctx.revise(t, a).belief_worlds()
    if not expansion <= beliefs:
        return [{"expansion": expansion, "beliefs": beliefs}]
    return []


@_register("K4", "serial", "revision adds nothing beyond expansion when the input is compatible")
def _k4(ctx, t, a):
    expansion = t.belief_worlds() & a
    if not expansion:
        return []
    beliefs = ctx.revise(t, a).belief_worlds()
    if not beliefs <= expansion:
        return [{"expansion": expansion, "beliefs": beliefs}]
    return []


@_register("K5", "serial", "revising by a consistent input yields consistent beliefs")
def _k5(ctx, t, a):
    beliefs = ctx.revise(t, a).belief_worlds()
    if not beliefs:
        return [{"input": a}]
    return []


@_register("K6", "serial", "syntactically different but equivalent inputs revise alike")
def _k6(ctx, t, a):
    # Operators act on model sets, so this is structural; exercised
    # through the formula layer to guard the parsing/models plumbing.
    formula = ctx.canonical(a)
    reference = ctx.revise(t, a).belief_worlds()
    for variant in (Not(Not(formula)), And(formula, formula)):
        beliefs = ctx.revise(t, models(variant, ctx.lang)).belief_worlds()
        if beliefs != reference:
            return [{"input": a, "variant_beliefs": beliefs, "beliefs": reference}]
    return []


@_register("K7", "serial2", "revising by a conjunction keeps everything expansion would add")
def _k7(ctx, t, a, b):
    both = a & b
    if not both:
        return None
    lhs = ctx.revise(t, a).belief_worlds() & b
    rhs = ctx.revise(t, both).belief_worlds()
    if not lhs <= rhs:
        return [{"expansion": lhs, "conjunction_beliefs": rhs}]
    return []


@_register("K8", "serial2", "expansion of a revision is conservative when consistent")
def _k8(ctx, t, a, b):
    lhs = ctx.revise(t, a).belief_worlds() & b
    if not lhs:
        return []
    rhs = ctx.revise(t, a & b).belief_worlds()
    if not rhs <= lhs:
        return [{"expansion": lhs, "conjunction_beliefs": rhs}]
    return []


@_register("CR1", "serial", "revision preserves the order among worlds satisfying the input")
def _cr1(ctx, t, a):
    return _order_flips(t, ctx.revise(t, a), a)


@_register("CR2", "serial", "revision preserves the order among worlds refuting the input")
def _cr2(ctx, t, a):
    return _order_flips(t, ctx.revise(t, a), _negation(ctx, a))


@_register("CR3", "serial", "a satisfying world strictly below a refuting one stays strictly below")
def _cr3(ctx, t, a):
    return _kept_below(t, ctx.revise(t, a), a, _negation(ctx, a), weak=False)


@_register("CR4", "serial", "a satisfying world weakly below a refuting one stays weakly below")
def _cr4(ctx, t, a):
    return _kept_below(t, ctx.revise(t, a), a, _negation(ctx, a), weak=True)


def _ind_expected(config) -> str:
    name = config.describe()["revision"]
    return "sound" if name in ("lex", "restrained") else "violated"


@_register("Ind", "serial",
           "a satisfying world weakly below a refuting one ends up strictly below",
           expected=_ind_expected)
def _ind(ctx, t, a):
    return _promoted(t, ctx.revise(t, a), a, _negation(ctx, a))


@_register("LI-serial", "serial",
           "revising equals retracting the negation then adding the input, at the belief level")
def _li_serial(ctx, t, a):
    direct = ctx.revise(t, a).belief_worlds()
    via = ctx.contract(t, _negation(ctx, a)).belief_worlds() & a
    if direct != via:
        return [{"revision_beliefs": direct, "contract_then_add": via}]
    return []


@_register("HI-serial", "serial",
           "retracting equals keeping what survives revision by the negation, at the belief level")
def _hi_serial(ctx, t, a):
    negation = _negation(ctx, a)
    if not negation:
        return None
    direct = ctx.contract(t, a).belief_worlds()
    via = t.belief_worlds() | ctx.revise(t, negation).belief_worlds()
    if direct != via:
        return [{"contraction_beliefs": direct, "meet_of_revisions": via}]
    return []


# --- serial contraction ---

@_register("CC1", "sercon", "contraction preserves the order among worlds refuting the input")
def _cc1(ctx, t, a):
    return _order_flips(t, ctx.contract(t, a), _negation(ctx, a))


@_register("CC2", "sercon", "contraction preserves the order among worlds satisfying the input")
def _cc2(ctx, t, a):
    return _order_flips(t, ctx.contract(t, a), a)


@_register("CC3", "sercon", "a refuting world strictly below a satisfying one stays strictly below")
def _cc3(ctx, t, a):
    return _kept_below(t, ctx.contract(t, a), _negation(ctx, a), a, weak=False)


@_register("CC4", "sercon", "a refuting world weakly below a satisfying one stays weakly below")
def _cc4(ctx, t, a):
    return _kept_below(t, ctx.contract(t, a), _negation(ctx, a), a, weak=True)


# --- parallel revision ---

@_register("Conj-star", "pset",
           "beliefs after revising by a set are the most plausible worlds of its conjunction")
def _conj_star(ctx, t, s):
    beliefs = ctx.previse(t, s).belief_worlds()
    expected = t.min_of(ctx.full.intersection(*s))
    if beliefs != expected:
        return [{"beliefs": beliefs, "most_plausible": expected}]
    return []


@_register("K-star-1", "pset", "set revision yields deductively closed beliefs")
def _ks1(ctx, t, s):
    ctx.previse(t, s)
    return []


@_register("K-star-2", "pset", "every member of the input set is believed afterwards")
def _ks2(ctx, t, s):
    beliefs = ctx.previse(t, s).belief_worlds()
    target = ctx.full.intersection(*s)
    if not beliefs <= target:
        return [{"beliefs": beliefs, "conjunction": target}]
    return []


@_register("K-star-3", "pset", "set revision keeps prior beliefs consistent with the set")
def _ks3(ctx, t, s):
    expansion = t.belief_worlds() & ctx.full.intersection(*s)
    beliefs = ctx.previse(t, s).belief_worlds()
    if not expansion <= beliefs:
        return [{"expansion": expansion, "beliefs": beliefs}]
    return []


@_register("K-star-4", "pset", "set revision adds nothing beyond expansion when compatible")
def _ks4(ctx, t, s):
    expansion = t.belief_worlds() & ctx.full.intersection(*s)
    if not expansion:
        return []
    beliefs = ctx.previse(t, s).belief_worlds()
    if not beliefs <= expansion:
        return [{"expansion": expansion, "beliefs": beliefs}]
    return []


@_register("K-star-5", "pset", "revising by a jointly consistent set yields consistent beliefs")
def _ks5(ctx, t, s):
    beliefs = ctx.previse(t, s).belief_worlds()
    if not beliefs:
        return [{"inputs": list(s)}]
    return []


@_register("K-star-6", "pset", "input sets with the same closure revise to the same beliefs")
def _ks6(ctx, t, s):
    reference = ctx.previse(t, s).belief_worlds()
    target = ctx.full.intersection(*s)
    variants = [(target,), tuple(reversed(s))]
    for variant in variants:
        beliefs = ctx.previse(t, variant).belief_worlds()
        if beliefs != reference:
            return [{"inputs": list(s), "variant": list(variant),
                     "beliefs": reference, "variant_beliefs": beliefs}]
    return []


@_register("K-star-6-minus", "pset",
           "member-wise equivalent input sets revise to the same beliefs")
def _ks6_minus(ctx, t, s):
    reference = ctx.previse(t, s).belief_worlds()
    variants = [s + (s[0],), tuple(reversed(s)) + (s[-1],)]
    for variant in variants:
        beliefs = ctx.previse(t, variant).belief_worlds()
        if beliefs != reference:
            return [{"inputs": list(s), "variant": list(variant),
                     "beliefs": reference, "variant_beliefs": beliefs}]
    return []


@_register("K-star-7", "pset2", "revising by a union keeps everything expansion would add")
def _ks7(ctx, t, s1, s2):
    merged, _, first, second = ctx.derived(_pair_plan, s1, s2)
    if not first & second:
        return None
    lhs = ctx.previse(t, s1).masks[0] & second
    rhs = ctx.previse(t, merged).masks[0]
    if lhs & ~rhs:
        return [{"expansion": ctx.subsets[lhs], "union_beliefs": ctx.subsets[rhs]}]
    return []


@_register("K-star-8", "pset2", "expansion of a set revision is conservative when consistent")
def _ks8(ctx, t, s1, s2):
    merged, _, _, second = ctx.derived(_pair_plan, s1, s2)
    lhs = ctx.previse(t, s1).masks[0] & second
    if not lhs:
        return []
    rhs = ctx.previse(t, merged).masks[0]
    if rhs & ~lhs:
        return [{"expansion": ctx.subsets[lhs], "union_beliefs": ctx.subsets[rhs]}]
    return []


@_register("C-star-1", "pset",
           "set revision preserves the order among worlds satisfying the whole set")
def _cs1(ctx, t, s):
    return _order_flips(t, ctx.previse(t, s), ctx.full.intersection(*s))


@_register("C-star-2", "pset",
           "set revision preserves the order among worlds refuting every member")
def _cs2(ctx, t, s):
    return _order_flips(t, ctx.previse(t, s), ctx.full.difference(*s))


@_register("C-star-2-plus", "pset",
           "set revision preserves the order among all worlds outside the conjunction",
           expected="violated")
def _cs2_plus(ctx, t, s):
    return _order_flips(t, ctx.previse(t, s), ctx.full - ctx.full.intersection(*s))


@_register("C-star-3", "pset",
           "a set-satisfying world strictly below an outside one stays strictly below")
def _cs3(ctx, t, s):
    target = ctx.full.intersection(*s)
    return _kept_below(t, ctx.previse(t, s), target, ctx.full - target, weak=False)


@_register("C-star-4", "pset",
           "a set-satisfying world weakly below an outside one stays weakly below")
def _cs4(ctx, t, s):
    target = ctx.full.intersection(*s)
    return _kept_below(t, ctx.previse(t, s), target, ctx.full - target, weak=True)


def _dominated_pairs(num_worlds: int, s) -> tuple[tuple[int, int], ...]:
    """The world pairs (x, y), x != y, where x satisfies every member of
    ``s`` that y satisfies."""
    profiles = [0] * num_worlds
    for i, member in enumerate(s):
        for world in member:
            profiles[world] |= 1 << i
    return tuple((x, y) for x, sat_x in enumerate(profiles)
                 for y, sat_y in enumerate(profiles) if x != y and not sat_y & ~sat_x)


@_register("PC3", "pset",
           "strictness survives when the lower world satisfies at least as much of the set")
def _pc3(ctx, t, s):
    r, r2 = t.ranks, ctx.previse(t, s).ranks
    return [{"x": x, "y": y, "prior": "<", "posterior": _sym(r2[x] - r2[y])}
            for x, y in ctx.derived(_dominated_pairs, s)
            if r[x] < r[y] and not r2[x] < r2[y]]


@_register("PC4", "pset",
           "weak order survives when the lower world satisfies at least as much of the set")
def _pc4(ctx, t, s):
    r, r2 = t.ranks, ctx.previse(t, s).ranks
    return [{"x": x, "y": y, "prior": "<=", "posterior": ">"}
            for x, y in ctx.derived(_dominated_pairs, s)
            if r[x] <= r[y] and not r2[x] <= r2[y]]


def _ind_star_expected(config) -> str:
    names = config.describe()
    if names["base"] in ("lex", "restrained") and names["finisher"] in ("lex", "restrained"):
        return "sound"
    return "exploratory"


@_register("Ind-star", "pset",
           "a set-satisfying world weakly below an outside one ends up strictly below",
           expected=_ind_star_expected)
def _ind_star(ctx, t, s):
    target = ctx.full.intersection(*s)
    return _promoted(t, ctx.previse(t, s), target, ctx.full - target)


def _negation_plan(num_worlds: int, s) -> tuple:
    """GR-star's and HI-star's prior-independent part: the member-wise
    negations of ``s`` and the conjunction mask of ``s``, or () when the
    negations are jointly inconsistent."""
    negations = _negations(num_worlds, s)
    if not _conjunction(num_worlds, negations):
        return ()
    return negations, _conjunction(num_worlds, s)


@_register("GR-star", "pset",
           "revising by the member-wise negations leaves the set's best worlds untouched")
def _gr_star(ctx, t, s):
    plan = ctx.derived(_negation_plan, s)
    if not plan:
        return None
    negations, target = plan
    after = ctx.previse(t, negations).min_mask(target)
    before = t.min_mask(target)
    if after != before:
        return [{"before": ctx.subsets[before], "after": ctx.subsets[after]}]
    return []


@_register("LI-star", "pset",
           "revising by a set equals retracting the member-wise negations then adding the set,"
           " at the belief level", expected="exploratory")
def _li_star(ctx, t, s):
    direct = ctx.previse(t, s).masks[0]
    via = ctx.pcontract(t, ctx.derived(_negations, s)).masks[0] & ctx.derived(_conjunction, s)
    if direct != via:
        return [{"revision_beliefs": ctx.subsets[direct], "contract_then_add": ctx.subsets[via]}]
    return []


@_register("S-star", "pset2",
           "discarding one set while adopting another keeps the joint best worlds fixed")
def _s_star(ctx, t, s1, s2):
    _, mixed, first, second = ctx.derived(_pair_plan, s1, s2)
    if mixed is None:
        return None
    joint = first & second
    before = t.min_mask(joint)
    after = ctx.previse(t, mixed).min_mask(joint)
    if before != after:
        return [{"before": ctx.subsets[before], "after": ctx.subsets[after]}]
    return []


@_register("P-star", "pset2",
           "after adopting one set against another, the other's best worlds satisfy the first",
           expected="violated")
def _p_star(ctx, t, s1, s2):
    _, mixed, first, second = ctx.derived(_pair_plan, s1, s2)
    if not first & second:
        return []
    if mixed is None:
        return None
    best = ctx.previse(t, mixed).min_mask(second)
    if best & ~first:
        return [{"best_of_second": ctx.subsets[best], "first_conjunction": ctx.subsets[first]}]
    return []


# --- parallel contraction ---

@_register("C-con-1", "cset",
           "set contraction preserves the order among worlds refuting every member")
def _ccon1(ctx, t, s):
    return _order_flips(t, ctx.pcontract(t, s), ctx.full.difference(*s))


@_register("C-con-2", "cset",
           "set contraction preserves the order among worlds satisfying the whole set")
def _ccon2(ctx, t, s):
    return _order_flips(t, ctx.pcontract(t, s), ctx.full.intersection(*s))


@_register("C-con-3", "cset",
           "an all-refuting world strictly below any other stays strictly below")
def _ccon3(ctx, t, s):
    refuting = ctx.full.difference(*s)
    return _kept_below(t, ctx.pcontract(t, s), refuting, ctx.full - refuting, weak=False)


@_register("C-con-4", "cset",
           "an all-refuting world weakly below any other stays weakly below")
def _ccon4(ctx, t, s):
    refuting = ctx.full.difference(*s)
    return _kept_below(t, ctx.pcontract(t, s), refuting, ctx.full - refuting, weak=True)


@_register("DiP", "cset",
           "some contraction by a consistent set still believes the set's disjunction",
           kind="existential")
def _dip(ctx, t, s):
    if not ctx.full.intersection(*s):
        return None
    beliefs = ctx.pcontract(t, s).belief_worlds()
    disjunction = frozenset().union(*s)
    if beliefs <= disjunction:
        return [{"beliefs": beliefs, "disjunction": disjunction}]
    return []


@_register("HI-star", "cset",
           "retracting a set equals keeping what survives revision by the member-wise"
           " negations, at the belief level", expected="exploratory")
def _hi_star(ctx, t, s):
    plan = ctx.derived(_negation_plan, s)
    if not plan:
        return None
    negations, _ = plan
    direct = ctx.pcontract(t, s).masks[0]
    via = t.masks[0] | ctx.previse(t, negations).masks[0]
    if direct != via:
        return [{"contraction_beliefs": ctx.subsets[direct],
                 "meet_of_revisions": ctx.subsets[via]}]
    return []


# --- aggregation ---

@_register("UB", "profile2",
           "aggregate best worlds never leave the union of member best worlds")
def _ub(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for subset in ctx.subsets:
        combined = frozenset()
        for t in profile:
            combined |= t.min_of(subset)
        chosen = merged.min_of(subset)
        if not chosen <= combined:
            hits.append({"over": subset, "aggregate_best": chosen, "member_best_union": combined})
    return hits


@_register("LB", "profile2",
           "some member's best worlds always make it into the aggregate's")
def _lb(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for subset in ctx.subsets:
        chosen = merged.min_of(subset)
        if not any(t.min_of(subset) <= chosen for t in profile):
            hits.append({"over": subset, "aggregate_best": chosen})
    return hits


@_register("SPU", "profile2", "unanimous strict preference survives aggregation")
def _spu(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for x in range(merged.num_worlds):
        for y in range(merged.num_worlds):
            if x != y and all(t.strictly_below(x, y) for t in profile) \
                    and not merged.strictly_below(x, y):
                hits.append({"x": x, "y": y})
    return hits


@_register("WPU", "profile2", "unanimous weak preference survives aggregation")
def _wpu(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for x in range(merged.num_worlds):
        for y in range(merged.num_worlds):
            if x != y and all(t.weakly_below(x, y) for t in profile) \
                    and not merged.weakly_below(x, y):
                hits.append({"x": x, "y": y})
    return hits


@_register("Factoring", "profile2",
           "aggregate best worlds are a union of whole member best-world sets")
def _factoring(ctx, profile):
    merged = ctx.aggregate(profile)
    indices = range(len(profile))
    hits = []
    for subset in ctx.subsets:
        chosen = merged.min_of(subset)
        mins = [t.min_of(subset) for t in profile]
        matched = False
        for size in range(len(profile) + 1):
            for group in combinations(indices, size):
                combined = frozenset()
                for j in group:
                    combined |= mins[j]
                if combined == chosen:
                    matched = True
                    break
            if matched:
                break
        if not matched:
            hits.append({"over": subset, "aggregate_best": chosen})
    return hits


def _parity_expected(config) -> str:
    return "sound" if config.describe()["strategy"] == "stq" else "exploratory"


@_register("Parity", "profile2",
           "whatever the aggregate strictly prefers, every member prefers some tied peer",
           expected=_parity_expected)
def _parity(ctx, profile):
    merged = ctx.aggregate(profile)
    worlds = range(merged.num_worlds)
    hits = []
    for x in worlds:
        peers = [z for z in worlds if merged.compare(x, z) == 0]
        for y in worlds:
            if x == y or not merged.strictly_below(x, y):
                continue
            for i, t in enumerate(profile):
                if not any(t.strictly_below(z, y) for z in peers):
                    hits.append({"x": x, "y": y, "member": profile[i]})
                    break
    return hits


# --- syntactic companion forms, used by the agreement-pair check ---
#
# Each maps (ctx, t, s) to True/False: does the follow-up-quantified
# form hold at this instance?  Follow-up inputs range over single
# consistent propositions; belief-membership quantifiers over sentences
# are evaluated exactly by working with belief-world sets.

@dataclass(frozen=True)
class SyntacticForm:
    id: str
    summary: str
    holds: Callable = field(repr=False)


SYNTACTIC_FORMS: dict[str, SyntacticForm] = {}
EQUIVALENCE_PAIRS: dict[str, str] = {
    "C-star-1": "C-star-1-b",
    "C-star-2": "C-star-2-b",
    "C-star-3": "C-star-3-b",
    "C-star-4": "C-star-4-b",
    "PC3": "PC3-b",
    "PC4": "PC4-b",
}


def _syntactic(id: str, summary: str):
    def wrap(fn):
        SYNTACTIC_FORMS[id] = SyntacticForm(id, summary, fn)
        return fn
    return wrap


def _follow_up(ctx, t: TPO, x: frozenset[int]) -> frozenset[int]:
    return ctx.previse(t, (x,)).belief_worlds()


@_syntactic("C-star-1-b",
            "follow-ups entailing the set make the revision step irrelevant")
def _syn_cs1(ctx, t, s):
    t2 = ctx.previse(t, s)
    target = ctx.full.intersection(*s)
    for x in ctx.props:
        if x <= target and _follow_up(ctx, t2, x) != _follow_up(ctx, t, x):
            return False
    return True


@_syntactic("C-star-2-b",
            "follow-ups entailing every negation make the revision step irrelevant")
def _syn_cs2(ctx, t, s):
    t2 = ctx.previse(t, s)
    refuting = ctx.full.difference(*s)
    for x in ctx.props:
        if x <= refuting and _follow_up(ctx, t2, x) != _follow_up(ctx, t, x):
            return False
    return True


@_syntactic("C-star-3-b",
            "follow-ups that would leave the set believed still do after revising by it")
def _syn_cs3(ctx, t, s):
    target = ctx.derived(_conjunction, s)
    after = ctx.follow_ups(ctx.previse(t, s))
    return not any(not alone & ~target and two_step & ~target
                   for alone, two_step in zip(ctx.follow_ups(t), after))


@_syntactic("C-star-4-b",
            "follow-ups that would leave the set consistent with beliefs still do")
def _syn_cs4(ctx, t, s):
    target = ctx.derived(_conjunction, s)
    after = ctx.follow_ups(ctx.previse(t, s))
    return not any(alone & target and not two_step & target
                   for alone, two_step in zip(ctx.follow_ups(t), after))


def _subfamilies(num_worlds: int, s) -> tuple:
    """Every non-empty subfamily of ``s``, smallest first, with its
    conjunction mask."""
    groups = []
    for size in range(1, len(s) + 1):
        for group in combinations(range(len(s)), size):
            members = tuple(s[i] for i in group)
            groups.append((members, _conjunction(num_worlds, members)))
    return tuple(groups)


def _joined(groups: tuple, x: frozenset[int], x_mask: int) -> list:
    """Each of the ``_subfamilies`` joined with x, where consistent.  The
    empty subfamily joined with x is x alone, a follow-up."""
    return [members if x in members else members + (x,)
            for members, conj in groups if conj & x_mask]


@_syntactic("PC3-b",
            "anything believed under every compatible subfamily survives the two-step route")
def _syn_pc3(ctx, t, s):
    previse = ctx.previse
    after = ctx.follow_ups(previse(t, s))
    groups = ctx.derived(_subfamilies, s)
    for x_mask, (x, alone, two_step) in enumerate(zip(ctx.props, ctx.follow_ups(t), after), 1):
        support = alone
        for route in _joined(groups, x, x_mask):
            support |= previse(t, route).masks[0]
        if two_step & ~support:
            return False
    return True


@_syntactic("PC4-b",
            "nothing refuted under every compatible subfamily appears on the two-step route")
def _syn_pc4(ctx, t, s):
    previse = ctx.previse
    after = ctx.follow_ups(previse(t, s))
    groups = ctx.derived(_subfamilies, s)
    for x_mask, (x, alone, two_step) in enumerate(zip(ctx.props, ctx.follow_ups(t), after), 1):
        if alone & ~two_step and all(previse(t, route).masks[0] & ~two_step
                                     for route in _joined(groups, x, x_mask)):
            return False
    return True


# --- agreement pairs and the closure identity ---

def _agreement(semantic: Postulate, syntactic: SyntacticForm) -> Callable:
    """One hit wherever the semantic and syntactic forms disagree."""
    def evaluate(ctx, t, s):
        hits = semantic.evaluate(ctx, t, s)
        if hits is None:
            return None
        sem_holds = not hits
        syn_holds = syntactic.holds(ctx, t, s)
        if sem_holds != syn_holds:
            return [{"semantic_holds": sem_holds, "syntactic_holds": syn_holds}]
        return []
    return evaluate


PAIR_CHECKS: dict[str, Postulate] = {
    f"{semantic}-pair": Postulate(
        f"{semantic}~{syntactic}", "pset",
        f"{semantic} and its syntactic form {syntactic} agree on every instance",
        _agreement(CATALOG[semantic], SYNTACTIC_FORMS[syntactic]))
    for semantic, syntactic in EQUIVALENCE_PAIRS.items()
}


def _rc_identity(ctx, profile):
    # The left route aggregates synchronously; the right route intersects
    # the members' conditional beliefs and rebuilds the least committal
    # preorder supporting them, without ever aggregating.
    merged = ctx.conditionals(profile[0])
    for t in profile[1:]:
        merged = merged.intersect(ctx.conditionals(t))
    closed = rational_closure(merged)
    direct = stq(profile)
    if ctx.conditionals(direct) != ctx.conditionals(closed):
        return [{"aggregated": direct, "closure_of_intersection": closed}]
    return []


RC_IDENTITY = Postulate(
    "rc-identity", "profile2",
    "synchronous aggregation equals rational closure of intersected conditional beliefs",
    _rc_identity, operators=(("strategy", "stq"),))
