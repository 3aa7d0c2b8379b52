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

Every check is a pair: a *plan* and a *body*.  The plan is the part
of the check that depends on the instance's inputs alone, not on the
prior order: a function of the context's full mask and the instance's
inputs or families as the streams yield them, ``plan(full, *inputs)``.
It turns the inputs into masks, and returns the body's fields, or None
when the instance falls outside the check's domain, which skips it
without a body call.  The body takes ``(ctx, t, *fields)``; every step
it takes, ``ctx.previse(t, masks)`` and ``ctx.pcontract(t, masks)``
included, sees only masks.  Every entry has a plan: a profile has no
inputs, so the profile entries' plan is the empty one, ``full -> ()``,
and their body takes ``(ctx, profile)``.
``Postulate.evaluate(ctx, *instance)`` composes the two for one
instance; the sweep in ``engine.check`` is the one place that keeps
plans, so no plan outlives its sweep.  A body returns a list of hit
dictionaries (empty when the instance is fine), or ``None`` for an
instance outside its domain that its plan lets through: only K8 and
K-star-8 do, where their domain depends on the prior.  Every domain
that the inputs alone decide is its plan's, so no instance outside it
makes a body call: ``_within`` puts it on the plan of K7 and K-star-7,
HI-serial, GR-star, P-star, DiP and HI-star.  For the one existential
entry the hits are witnesses rather than violations, and the property
holds over a space when at least one witness turns up.  A syntactic
form's body returns whether the form holds.

A serial input is a one-member family: its plan, ``_input``, is
``_regions`` of ``(a,)``, so serial and set bodies read the same fields
``(conj, refuting, masks)``; and ``serial2``'s plan, ``_input_pair``, is
``_pair_plan`` of ``(a,)`` and ``(b,)``, so K7 and K8 read the fields of
their set twins, ``(masks, merged, first, second)``.
``_SHAPE_DEFAULTS`` gives each shape its default plan and, for the
shapes whose entries test one operator, that operator as ``post(ctx, t,
conj, masks)``: ``ctx.revise`` for ``serial`` and ``serial2``,
``ctx.contract`` for ``sercon``, ``ctx.previse`` for ``pset`` and
``pset2`` and ``ctx.pcontract`` for ``cset``.  A postulate and its set
twin (K4 and K-star-4, K7 and K-star-7, CR3 and C-star-3, CC3 and
C-con-3, ...) are one body over ``post``, which ``_lifted`` registers
once per id, bound to that id's shape's operator and, where the twins
name a hit's key differently (K2's ``input`` is K-star-2's
``conjunction``), to the shape's word for it from ``words``.

Every entry enters ``CATALOG`` through ``_register``, which names a plan
only where the entry's differs from its shape's, and every syntactic
form enters ``SYNTACTIC_FORMS`` through ``_syntactic``, which also
records the semantic entry it pairs with in ``EQUIVALENCE_PAIRS`` and
their agreement check in ``PAIR_CHECKS``, whose plan pairs the two
forms' plans.

Entries that read the same facts of an input share one plan: ``_input``
(a serial input as a one-member family), ``_regions`` (a family's
conjunction, refuting and member masks), which every other family plan
extends, ``_negation_plan`` (the member-wise negations, which GR-star
and HI-star read through ``_refutable_negations``), ``_dominance``
(a mask per world of the worlds it dominates), ``_subfamilies``,
``_pair_plan`` (``pset2``'s default: s1's member masks, the union family
of s1 and s2, and the conjunctions of each) and ``_input_pair`` (two
serial inputs as one-member families).  ``_mixed_plan`` is the one
builder of the mixed family, s1 joined with the negations of s2's
members: P-star reads it, and S-star reads it through ``_s_star_plan``,
which is None outside S-star's domain.  ``_regions`` reads each input's
mask through ``_member_mask``, a bounded table keyed by the input: a
sampled sweep makes a plan on every draw, and the streams' members are
the shared ``worlds_of`` sets, so up to 8 worlds the table answers
almost every read.

Belief sets are read as ``masks[0]`` of an order and best worlds as
``min_mask``.  Every order check, the serial and set ones and SPU, WPU
and Parity over a profile alike, finds its pairs in the orders'
``world_masks``, the per-world tables ``(below, weak)`` of the worlds
strictly and weakly more plausible: one mask expression per world x
names the worlds y that break the postulate with it, and ``_listed``
turns that mask into the pairs' hits, reading ``ranks`` only for the
symbols it prints, so a check builds nothing where none breaks.  ``_kept`` is the one walk for "x stays
weakly or strictly below y": it picks its table once per call, takes
pairs ``(x, ys)``, which ``_kept_below`` makes with one fixed mask of ys
for every world of a region, and PC3 and PC4 take from ``_dominance``, a
mask per world.  ``_promoted`` keeps a loop of its own over the prior's
``below`` and the posterior's ``weak``.
UB, LB and Factoring read every subset's best worlds, the aggregate's
and each member's, from one walk, ``_bests``.  Syntactic forms range
over every consistent mask and read the beliefs after each single
follow-up input from ``ctx.follow_ups(order)``; C-star-1-b and
C-star-2-b revise by the follow-ups inside their region alone, where
``follow_ups`` would revise by every one.  Every other hit of world sets is
built by ``_hit``, the one place that turns masks into frozensets, so
hits and witnesses keep their frozenset form.  Every hit is built behind
the check that finds it, so an instance without one builds nothing.

Two further kinds of check are ``Postulate``s too and live outside
``CATALOG``: ``PAIR_CHECKS`` holds one ``<id>-pair`` entry per agreement
pair, and ``RC_IDENTITY`` is the rational-closure identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import combinations, repeat
from operator import and_, or_
from typing import Callable, Iterable, Sequence

from ..aggregation import stq
from ..logic import And, Not, ascending_worlds, canonical_formula, model_mask
from ..tpo import (TPO, comparison_symbol, intersect_conditionals, mask_of, rational_closure,
                   worlds_of)

@dataclass(frozen=True)
class Postulate:
    id: str
    shape: str
    summary: str
    body: Callable = field(repr=False)
    # ``(full, *inputs) -> fields or None``
    plan: Callable = field(repr=False)
    kind: str = "universal"
    expected: object = "sound"
    # (role, name) pairs the check uses whatever the space configures;
    # witnesses record these instead of the space's operators when given
    operators: tuple = ()

    def expected_for(self, config) -> str:
        """Expected outcome for an operator configuration:
        'sound', 'violated', or 'exploratory'."""
        return self.expected(config) if callable(self.expected) else self.expected

    def evaluate(self, ctx, *instance):
        """The body's result on one instance, after its plan: None where
        the plan puts the instance outside the domain."""
        t, *inputs = instance
        fields = self.plan(ctx.full_mask, *inputs)
        return None if fields is None else self.body(ctx, t, *fields)


CATALOG: dict[str, Postulate] = {}


def _register(id: str, shape: str, summary: str, *, plan: Callable | None = None,
              kind: str = "universal", expected: object = "sound"):
    """The one way into ``CATALOG``: a decorator that enters the function
    it decorates as the body of ``id``, with ``plan``, or else the
    shape's plan in ``_SHAPE_DEFAULTS``.  The body is written over the
    plan's fields, ``body(ctx, t, *fields)``, and a sweep calls the plan
    once per distinct input where inputs repeat; ``profile2``'s plan is
    the empty one, so its bodies take ``(ctx, profile)``."""
    def wrap(body):
        CATALOG[id] = Postulate(id, shape, summary, body, plan or _SHAPE_DEFAULTS[shape][0],
                                kind, expected)
        return body
    return wrap


def _lifted(*entries, words: dict | None = None, domain: Callable | None = None):
    """A decorator that registers the body it decorates once per entry
    ``(id, shape, summary)``, or ``(id, shape, summary, expected)``,
    bound to the shape's operator: the body is ``body(post, ctx, t,
    *fields)`` over the shape's plan fields, and one body serves a
    serial postulate and its set twin.  Given ``words``, a dict from
    shape to the key under which that shape's entry writes a hit's
    value, the body takes that shape's word after ``post``: ``body(post,
    word, ctx, t, *fields)``.  Given ``domain``, each entry's plan is its
    shape's ``_within`` that domain."""
    def wrap(body):
        for id, shape, summary, *expected in entries:
            word = (words[shape],) if words else ()
            plan = _SHAPE_DEFAULTS[shape][0]
            _register(id, shape, summary, plan=plan if domain is None else _within(domain, plan),
                      expected=expected[0] if expected else "sound")(
                partial(body, _SHAPE_DEFAULTS[shape][1], *word))
        return body
    return wrap


def _hit(**masks) -> dict:
    """A hit of world sets: each mask becomes its frozenset, and a tuple of
    masks a list of them, under its own key and in the order given."""
    return {key: [worlds_of(m) for m in value] if type(value) is tuple else worlds_of(value)
            for key, value in masks.items()}


def _listed(x: int, ys: int, prior, posterior) -> list[dict]:
    """The hits of the pairs (x, y), for y in the mask ``ys`` ascending.
    ``prior`` and ``posterior`` are each a fixed symbol or an order, whose
    ``ranks`` give each pair's symbol; their worlds all come from masks of
    the context's worlds, so the range check of ``TPO.rank`` would only
    cost time."""
    r = None if type(prior) is str else prior.ranks
    r2 = None if type(posterior) is str else posterior.ranks
    return [{"x": x, "y": y, "prior": prior if r is None else comparison_symbol(r[x] - r[y]),
             "posterior": posterior if r2 is None else comparison_symbol(r2[x] - r2[y])}
            for y in ascending_worlds(ys)]


# The order helpers below take world masks and read each order's
# ``world_masks``, the pair (below, weak) of per-world masks: for a world
# x, y is more plausible when in ``below[x]``, at least as plausible when
# in ``weak[x]`` and less plausible otherwise.  One mask expression per x
# names the worlds y that break the postulate with it, so each helper lists
# exactly its pairs, in ascending x then y, and builds nothing where no
# pair breaks.

def _order_flips(t: TPO, t2: TPO, region: int) -> list[dict]:
    """Pairs in ``region`` whose comparison changes between t and t2."""
    (b, w), (b2, w2) = t.world_masks, t2.world_masks
    hits = []
    for x in ascending_worlds(region):
        # y's side of x changes where y leaves or joins the worlds below x
        # or those weakly below it; each pair counts once, as y > x
        changed = (b[x] ^ b2[x]) | (w[x] ^ w2[x])
        changed &= region >> x + 1 << x + 1
        if changed:
            hits += _listed(x, changed, t, t2)
    return hits


def _kept(t: TPO, t2: TPO, tests: Iterable[tuple[int, int]], weak: bool) -> list[dict]:
    """For each ``(x, ys)`` of ``tests``, x weakly/strictly below a world
    of the mask ``ys`` must stay so: y lost is one that joins the worlds
    below x (weak) or weakly below it (strict) and was not there before."""
    table = 0 if weak else 1
    old, new = t.world_masks[table], t2.world_masks[table]
    prior, posterior = ("<=", ">") if weak else ("<", t2)
    hits = []
    for x, ys in tests:
        lost = ys & new[x] & ~old[x]
        if lost:
            hits += _listed(x, lost, prior, posterior)
    return hits


def _kept_below(t: TPO, t2: TPO, inside: int, outside: int, weak: bool) -> list[dict]:
    """Inside-worlds weakly/strictly below outside-worlds must stay so."""
    return _kept(t, t2, zip(ascending_worlds(inside), repeat(outside)), weak)


def _promoted(t: TPO, t2: TPO, inside: int, outside: int) -> list[dict]:
    """Weakly-below inside-worlds must end up strictly below."""
    b, w2 = t.world_masks[0], t2.world_masks[1]
    hits = []
    for x in ascending_worlds(inside):
        # y not below x before, and not strictly above it after
        kept = outside & w2[x] & ~b[x]
        if kept:
            hits += _listed(x, kept, t, t2)
    return hits


def _merge(s1: Sequence[int], s2: Sequence[int]) -> tuple[int, ...]:
    """The member masks of s1, then those of s2 that s1 lacks; the members
    of a family are distinct."""
    return (*s1, *[member for member in s2 if member not in s1])


# Plans take the mask of every world, ``full``, and then the instance's
# inputs or families as the streams yield them.

# the member masks the plans read, keyed by member and world count: the
# streams' members are the shared ``worlds_of`` sets, so a sampled sweep's
# draws hit it, and it keeps as many entries as the logic layer keeps sets
_member_mask = lru_cache(maxsize=256)(mask_of)


def _regions(full, s) -> tuple[int, int, tuple[int, ...]]:
    """``(conj, refuting, masks)``: the masks of the worlds satisfying
    every member of ``s`` and of the worlds refuting every member, and
    the members' own masks, in their listed order."""
    num_worlds = full.bit_length()
    conj, union, masks = full, 0, ()
    for member in s:
        mask = _member_mask(member, num_worlds)
        conj &= mask
        union |= mask
        masks += (mask,)
    return conj, full ^ union, masks


def _input(full, a) -> tuple[int, int, tuple[int]]:
    """``_regions`` of the one-member family ``(a,)``: ``(a, full ^ a,
    (a,))`` as masks."""
    return _regions(full, (a,))


# the two-family plans meet each family in many pairs, so they read their
# regions through a bounded table of their own, of as many entries as the
# logic layer keeps world sets
_pair_regions = lru_cache(maxsize=256)(_regions)


def _pair_plan(full, s1, s2) -> tuple:
    """The prior-independent part of K7, K8 and their set twins: ``(masks,
    merged, first, second)``, the member masks of s1, the union family of
    s1 and s2, and the conjunction masks of s1 and of s2."""
    first, _, masks = _pair_regions(full, s1)
    second, _, masks2 = _pair_regions(full, s2)
    return masks, _merge(masks, masks2), first, second


def _input_pair(full, a, b) -> tuple:
    """``_pair_plan`` of the one-member families ``(a,)`` and ``(b,)``."""
    return _pair_plan(full, (a,), (b,))


def _mixed_plan(full, s1, s2) -> tuple:
    """P-star's plan, and the one builder of the mixed family: ``(mixed,
    first, second)``, the member masks of s1 joined with the negations of
    s2's members (None when that family is inconsistent), and the
    conjunction masks of s1 and of s2."""
    first, _, masks = _pair_regions(full, s1)
    second, refuting, masks2 = _pair_regions(full, s2)
    mixed = _merge(masks, [full ^ m for m in masks2]) if first & refuting else None
    return mixed, first, second


def _s_star_plan(full, s1, s2):
    """S-star's part of ``_mixed_plan``: None outside its domain, where the
    mixed family is inconsistent, else ``(mixed, joint)``, that family and
    the mask of the worlds satisfying both families.  Two in three
    two-atom pairs fall outside, and their instances make no body call."""
    mixed, first, second = _mixed_plan(full, s1, s2)
    return None if mixed is None else (mixed, first & second)


def _within(domain: Callable, plan: Callable) -> Callable:
    """``plan``, but None wherever ``domain`` is false on its fields: an
    instance outside a domain that the inputs alone decide makes no body
    call."""
    def planned(full, *inputs):
        fields = plan(full, *inputs)
        return fields if domain(*fields) else None
    return planned


def _refutable(conj, refuting, *rest) -> int:
    """The domain of the checks that revise by every member's negation,
    on ``_regions``' fields: some world refutes every member, so the
    negations are jointly consistent."""
    return refuting


# Each shape's default plan and, where its entries test one operator,
# that operator as ``post(ctx, t, conj, masks)``; it reads the seam from
# the context at each call, so a stand-in for it is seen.  A profile has
# no inputs, so its plan is the empty one.
_SHAPE_DEFAULTS: dict[str, tuple[Callable, Callable | None]] = {
    "serial": (_input, lambda ctx, t, conj, masks: ctx.revise(t, conj)),
    "sercon": (_input, lambda ctx, t, conj, masks: ctx.contract(t, conj)),
    "serial2": (_input_pair, lambda ctx, t, conj, masks: ctx.revise(t, conj)),
    "pset": (_regions, lambda ctx, t, conj, masks: ctx.previse(t, masks)),
    "cset": (_regions, lambda ctx, t, conj, masks: ctx.pcontract(t, masks)),
    "pset2": (_pair_plan, lambda ctx, t, conj, masks: ctx.previse(t, masks)),
    "profile2": (lambda full: (), None),
}


# --- one body for a postulate and its set twin ---

@_lifted(("K1", "serial", "revised belief sets are deductively closed"),
         ("K-star-1", "pset", "set revision yields deductively closed beliefs"))
def _closed(post, ctx, t, conj, refuting, masks):
    # Beliefs are represented by their worlds, so closure cannot fail;
    # kept executable so the catalog stays total.
    post(ctx, t, conj, masks)
    return []


@_lifted(("K2", "serial", "the input is believed after revising by it"),
         ("K-star-2", "pset", "every member of the input set is believed afterwards"),
         words={"serial": "input", "pset": "conjunction"})
def _believed(post, word, ctx, t, conj, refuting, masks):
    beliefs = post(ctx, t, conj, masks).masks[0]
    if beliefs & ~conj:
        return [_hit(beliefs=beliefs, **{word: conj})]
    return []


@_lifted(("K3", "serial", "revision keeps any prior beliefs consistent with the input"),
         ("K-star-3", "pset", "set revision keeps prior beliefs consistent with the set"))
def _kept_beliefs(post, ctx, t, conj, refuting, masks):
    beliefs = post(ctx, t, conj, masks).masks[0]
    expansion = t.masks[0] & conj
    if expansion & ~beliefs:
        return [_hit(expansion=expansion, beliefs=beliefs)]
    return []


@_lifted(("K4", "serial",
          "revision adds nothing beyond expansion when the input is compatible"),
         ("K-star-4", "pset", "set revision adds nothing beyond expansion when compatible"))
def _no_more_than_expansion(post, ctx, t, conj, refuting, masks):
    expansion = t.masks[0] & conj
    if not expansion:
        return []
    beliefs = post(ctx, t, conj, masks).masks[0]
    if beliefs & ~expansion:
        return [_hit(expansion=expansion, beliefs=beliefs)]
    return []


@_lifted(("CR1", "serial", "revision preserves the order among worlds satisfying the input"),
         ("CC2", "sercon", "contraction preserves the order among worlds satisfying the input"),
         ("C-star-1", "pset",
          "set revision preserves the order among worlds satisfying the whole set"),
         ("C-con-2", "cset",
          "set contraction preserves the order among worlds satisfying the whole set"))
def _satisfying_kept(post, ctx, t, conj, refuting, masks):
    return _order_flips(t, post(ctx, t, conj, masks), conj)


@_lifted(("CR2", "serial", "revision preserves the order among worlds refuting the input"),
         ("CC1", "sercon", "contraction preserves the order among worlds refuting the input"),
         ("C-star-2", "pset",
          "set revision preserves the order among worlds refuting every member"),
         ("C-con-1", "cset",
          "set contraction preserves the order among worlds refuting every member"))
def _refuting_kept(post, ctx, t, conj, refuting, masks):
    return _order_flips(t, post(ctx, t, conj, masks), refuting)


@_lifted(("C-star-2-plus", "pset",
          "set revision preserves the order among all worlds outside the conjunction",
          "violated"))
def _outside_kept(post, ctx, t, conj, refuting, masks):
    return _order_flips(t, post(ctx, t, conj, masks), ctx.full_mask ^ conj)


@_lifted(("CR3", "serial",
          "a satisfying world strictly below a refuting one stays strictly below"),
         ("C-star-3", "pset",
          "a set-satisfying world strictly below an outside one stays strictly below"))
def _satisfying_strictly_below(post, ctx, t, conj, refuting, masks):
    return _kept_below(t, post(ctx, t, conj, masks), conj, ctx.full_mask ^ conj, weak=False)


@_lifted(("CR4", "serial", "a satisfying world weakly below a refuting one stays weakly below"),
         ("C-star-4", "pset",
          "a set-satisfying world weakly below an outside one stays weakly below"))
def _satisfying_weakly_below(post, ctx, t, conj, refuting, masks):
    return _kept_below(t, post(ctx, t, conj, masks), conj, ctx.full_mask ^ conj, weak=True)


@_lifted(("CC3", "sercon",
          "a refuting world strictly below a satisfying one stays strictly below"),
         ("C-con-3", "cset", "an all-refuting world strictly below any other stays strictly below"))
def _refuting_strictly_below(post, ctx, t, conj, refuting, masks):
    return _kept_below(t, post(ctx, t, conj, masks), refuting, ctx.full_mask ^ refuting,
                       weak=False)


@_lifted(("CC4", "sercon", "a refuting world weakly below a satisfying one stays weakly below"),
         ("C-con-4", "cset", "an all-refuting world weakly below any other stays weakly below"))
def _refuting_weakly_below(post, ctx, t, conj, refuting, masks):
    return _kept_below(t, post(ctx, t, conj, masks), refuting, ctx.full_mask ^ refuting,
                       weak=True)


# the key under which K7, K8 and their twins write the beliefs after
# revising by both inputs: by their conjunction, or by the families' union
_BOTH = {"serial2": "conjunction_beliefs", "pset2": "union_beliefs"}


@_lifted(("K7", "serial2", "revising by a conjunction keeps everything expansion would add"),
         ("K-star-7", "pset2", "revising by a union keeps everything expansion would add"),
         words=_BOTH, domain=lambda masks, merged, first, second: first & second)
def _expansion_kept(post, word, ctx, t, masks, merged, first, second):
    lhs = post(ctx, t, first, masks).masks[0] & second
    rhs = post(ctx, t, first & second, merged).masks[0]
    if lhs & ~rhs:
        return [_hit(expansion=lhs, **{word: rhs})]
    return []


@_lifted(("K8", "serial2", "expansion of a revision is conservative when consistent"),
         ("K-star-8", "pset2", "expansion of a set revision is conservative when consistent"),
         words=_BOTH)
def _conservative_expansion(post, word, ctx, t, masks, merged, first, second):
    lhs = post(ctx, t, first, masks).masks[0] & second
    if not lhs:
        return []
    if not first & second:
        # revision by an inconsistent conjunction or union is undefined
        return None
    rhs = post(ctx, t, first & second, merged).masks[0]
    if rhs & ~lhs:
        return [_hit(expansion=lhs, **{word: rhs})]
    return []


def _ind_expected(config) -> str:
    name = config.describe()["revision"]
    return "sound" if name in ("lex", "restrained") else "violated"


def _ind_star_expected(config) -> str:
    names = config.describe()
    if names["base"] in ("lex", "restrained") and names["finisher"] in ("lex", "restrained"):
        return "sound"
    return "exploratory"


@_lifted(("Ind", "serial",
          "a satisfying world weakly below a refuting one ends up strictly below", _ind_expected),
         ("Ind-star", "pset",
          "a set-satisfying world weakly below an outside one ends up strictly below",
          _ind_star_expected))
def _promotion(post, ctx, t, conj, refuting, masks):
    return _promoted(t, post(ctx, t, conj, masks), conj, ctx.full_mask ^ conj)


# --- serial revision ---

@_register("K5", "serial", "revising by a consistent input yields consistent beliefs")
def _k5(ctx, t, a, not_a, _):
    if not ctx.revise(t, a).masks[0]:
        return [_hit(input=a)]
    return []


@_register("K6", "serial", "syntactically different but equivalent inputs revise alike")
def _k6(ctx, t, a, not_a, _):
    # Operators act on model sets, so this is structural; exercised
    # through the formula layer to guard the parsing/models plumbing.
    formula = canonical_formula(worlds_of(a), ctx.lang)
    reference = ctx.revise(t, a).masks[0]
    for variant in (Not(Not(formula)), And(formula, formula)):
        beliefs = ctx.revise(t, model_mask(variant, ctx.lang)).masks[0]
        if beliefs != reference:
            return [_hit(input=a, variant_beliefs=beliefs, beliefs=reference)]
    return []


def _levi(direct: int, via: int) -> list[dict]:
    """The Levi identity: the revision's beliefs ``direct`` equal contract-then-add's ``via``."""
    if direct != via:
        return [_hit(revision_beliefs=direct, contract_then_add=via)]
    return []


def _harper(direct: int, via: int) -> list[dict]:
    """The Harper identity: the contraction's beliefs ``direct`` equal the meet ``via``."""
    if direct != via:
        return [_hit(contraction_beliefs=direct, meet_of_revisions=via)]
    return []


@_register("LI-serial", "serial",
           "revising equals retracting the negation then adding the input, at the belief level")
def _li_serial(ctx, t, a, not_a, _):
    return _levi(ctx.revise(t, a).masks[0], ctx.contract(t, not_a).masks[0] & a)


@_register("HI-serial", "serial",
           "retracting equals keeping what survives revision by the negation, at the belief level",
           plan=_within(_refutable, _input))
def _hi_serial(ctx, t, a, not_a, _):
    return _harper(ctx.contract(t, a).masks[0], t.masks[0] | ctx.revise(t, not_a).masks[0])


# --- parallel revision ---

@_register("Conj-star", "pset",
           "beliefs after revising by a set are the most plausible worlds of its conjunction")
def _conj_star(ctx, t, conj, refuting, masks):
    beliefs = ctx.previse(t, masks).masks[0]
    expected = t.min_mask(conj)
    if beliefs != expected:
        return [_hit(beliefs=beliefs, most_plausible=expected)]
    return []


@_register("K-star-5", "pset", "revising by a jointly consistent set yields consistent beliefs")
def _ks5(ctx, t, conj, refuting, masks):
    if not ctx.previse(t, masks).masks[0]:
        return [_hit(inputs=masks)]
    return []


def _variant_hits(ctx, t, masks, variants) -> list[dict]:
    """A hit for the first of ``variants`` that revises t to other beliefs
    than ``masks``; families are tuples of member masks."""
    reference = ctx.previse(t, masks).masks[0]
    for variant in variants:
        beliefs = ctx.previse(t, variant).masks[0]
        if beliefs != reference:
            return [_hit(inputs=masks, variant=variant, beliefs=reference, variant_beliefs=beliefs)]
    return []


@_register("K-star-6", "pset", "input sets with the same closure revise to the same beliefs")
def _ks6(ctx, t, conj, refuting, masks):
    # the same closure: the conjunction alone, and the family listed backwards
    return _variant_hits(ctx, t, masks, ((conj,), masks[::-1]))


@_register("K-star-6-minus", "pset", "member-wise equivalent input sets revise to the same beliefs")
def _ks6_minus(ctx, t, conj, refuting, masks):
    return _variant_hits(ctx, t, masks, (masks + masks[:1], masks[::-1] + masks[-1:]))


def _dominance(full, s) -> tuple:
    """``_regions`` of ``s`` and, for each world x, the mask of the worlds
    y != x that x dominates: y satisfies no member of ``s`` that x refutes."""
    regions = _regions(full, s)
    worlds = range(full.bit_length())
    # x refutes itself and every member it falls outside
    refuted = [1 << x for x in worlds]
    for mask in regions[2]:
        for x in worlds:
            if not mask >> x & 1:
                refuted[x] |= mask
    return regions + (tuple([full & ~mask for mask in refuted]),)


@_register("PC3", "pset",
           "strictness survives when the lower world satisfies at least as much of the set",
           plan=_dominance)
def _pc3(ctx, t, conj, refuting, masks, dominated):
    return _kept(t, ctx.previse(t, masks), enumerate(dominated), weak=False)


@_register("PC4", "pset",
           "weak order survives when the lower world satisfies at least as much of the set",
           plan=_dominance)
def _pc4(ctx, t, conj, refuting, masks, dominated):
    return _kept(t, ctx.previse(t, masks), enumerate(dominated), weak=True)


def _negation_plan(full, s) -> tuple:
    """``_regions`` of ``s`` and the masks of its member-wise negations,
    which are jointly consistent iff ``refuting`` is not 0."""
    regions = _regions(full, s)
    return regions + (tuple([full ^ mask for mask in regions[2]]),)


# the plan of the checks that revise by the member-wise negations
_refutable_negations = _within(_refutable, _negation_plan)


@_register("GR-star", "pset",
           "revising by the member-wise negations leaves the set's best worlds untouched",
           plan=_refutable_negations)
def _gr_star(ctx, t, conj, refuting, masks, negations):
    after = ctx.previse(t, negations).min_mask(conj)
    before = t.min_mask(conj)
    if after != before:
        return [_hit(before=before, after=after)]
    return []


@_register("LI-star", "pset",
           "revising by a set equals retracting the member-wise negations then adding the set,"
           " at the belief level", plan=_negation_plan, expected="exploratory")
def _li_star(ctx, t, conj, refuting, masks, negations):
    return _levi(ctx.previse(t, masks).masks[0], ctx.pcontract(t, negations).masks[0] & conj)


@_register("S-star", "pset2",
           "discarding one set while adopting another keeps the joint best worlds fixed",
           plan=_s_star_plan)
def _s_star(ctx, t, mixed, joint):
    if not joint:
        # no worlds to compare: the posterior's best of nothing is nothing
        return []
    before = t.min_mask(joint)
    after = ctx.previse(t, mixed).min_mask(joint)
    if before != after:
        return [_hit(before=before, after=after)]
    return []


@_register("P-star", "pset2",
           "after adopting one set against another, the other's best worlds satisfy the first",
           plan=_within(lambda mixed, first, second: mixed is not None or not first & second,
                        _mixed_plan), expected="violated")
def _p_star(ctx, t, mixed, first, second):
    if not first & second:
        return []
    best = ctx.previse(t, mixed).min_mask(second)
    if best & ~first:
        return [_hit(best_of_second=best, first_conjunction=first)]
    return []


# --- parallel contraction ---

@_register("DiP", "cset",
           "some contraction by a consistent set still believes the set's disjunction",
           kind="existential", plan=_within(lambda conj, *rest: conj, _regions))
def _dip(ctx, t, conj, refuting, masks):
    beliefs = ctx.pcontract(t, masks).masks[0]
    if not beliefs & refuting:
        return [_hit(beliefs=beliefs, disjunction=ctx.full_mask ^ refuting)]
    return []


@_register("HI-star", "cset",
           "retracting a set equals keeping what survives revision by the member-wise"
           " negations, at the belief level", plan=_refutable_negations,
           expected="exploratory")
def _hi_star(ctx, t, conj, refuting, masks, negations):
    return _harper(ctx.pcontract(t, masks).masks[0],
                   t.masks[0] | ctx.previse(t, negations).masks[0])


# --- aggregation ---

def _bests(ctx, profile):
    """``(subset, chosen, mins)`` for every mask ``subset`` of the context's
    worlds, ascending: the aggregate's best worlds of it and the list of
    each member's."""
    merged = ctx.aggregate(profile)
    for subset in range(ctx.full_mask + 1):
        yield subset, merged.min_mask(subset), [t.min_mask(subset) for t in profile]


@_register("UB", "profile2",
           "aggregate best worlds never leave the union of member best worlds")
def _ub(ctx, profile):
    hits = []
    for subset, chosen, mins in _bests(ctx, profile):
        combined = reduce(or_, mins)
        if chosen & ~combined:
            hits.append(_hit(over=subset, aggregate_best=chosen, member_best_union=combined))
    return hits


@_register("LB", "profile2",
           "some member's best worlds always make it into the aggregate's")
def _lb(ctx, profile):
    return [_hit(over=subset, aggregate_best=chosen)
            for subset, chosen, mins in _bests(ctx, profile) if all(m & ~chosen for m in mins)]


def _unanimity_lost(ctx, profile, table: int) -> list[dict]:
    """The pairs (x, y) with x strictly (``table`` 1) or weakly (``table``
    0) below y in every member and not in the aggregate: y is in the
    aggregate's ``world_masks[table]`` at x, and in no member's."""
    merged = ctx.aggregate(profile)
    members = [t.world_masks[table] for t in profile]
    return [{"x": x, "y": y} for x, mask in enumerate(merged.world_masks[table])
            for y in ascending_worlds(mask & ~reduce(or_, [m[x] for m in members]))]


@_register("SPU", "profile2", "unanimous strict preference survives aggregation")
def _spu(ctx, profile):
    return _unanimity_lost(ctx, profile, 1)


@_register("WPU", "profile2", "unanimous weak preference survives aggregation")
def _wpu(ctx, profile):
    return _unanimity_lost(ctx, profile, 0)


@_register("Factoring", "profile2",
           "aggregate best worlds are a union of whole member best-world sets")
def _factoring(ctx, profile):
    return [_hit(over=subset, aggregate_best=chosen)
            for subset, chosen, mins in _bests(ctx, profile)
            if not any(reduce(or_, group, 0) == chosen
                       for size in range(len(mins) + 1) for group in combinations(mins, size))]


def _parity_expected(config) -> str:
    return "sound" if config.resolved("strategy").synchronous else "exploratory"


@_register("Parity", "profile2",
           "whatever the aggregate strictly prefers, every member prefers some tied peer",
           expected=_parity_expected)
def _parity(ctx, profile):
    below, weak = ctx.aggregate(profile).world_masks
    members = [(t, t.world_masks[0]) for t in profile]
    hits = []
    for x, lower in enumerate(weak):
        # x's tied peers in the aggregate, and the worlds it puts above x
        peers = lower & ~below[x]
        for y in ascending_worlds(ctx.full_mask & ~lower):
            for t, b in members:
                if not peers & b[y]:
                    hits.append({"x": x, "y": y, "member": t})
                    break
    return hits


# --- syntactic companion forms, used by the agreement-pair check ---
#
# Each is a Postulate over ``pset`` whose body maps (ctx, t, *fields) to
# True/False: does the follow-up-quantified form hold at this instance?
# Follow-up inputs range over single consistent propositions;
# belief-membership quantifiers over sentences are evaluated exactly by
# working with belief-world sets.

SYNTACTIC_FORMS: dict[str, Postulate] = {}
# semantic entry id -> the id of its syntactic form, in registration order
EQUIVALENCE_PAIRS: dict[str, str] = {}
PAIR_CHECKS: dict[str, Postulate] = {}


def _agreement(semantic: Postulate, syntactic: Postulate) -> tuple[Callable, Callable]:
    """The body and plan of the check that hits wherever the semantic and
    syntactic forms disagree: its plan pairs the two forms' plans."""
    def body(ctx, t, semantic_fields, syntactic_fields):
        hits = semantic.body(ctx, t, *semantic_fields)
        if hits is None:
            return None
        sem_holds = not hits
        syn_holds = syntactic.body(ctx, t, *syntactic_fields)
        if sem_holds != syn_holds:
            return [{"semantic_holds": sem_holds, "syntactic_holds": syn_holds}]
        return []
    return body, lambda full, s: (semantic.plan(full, s), syntactic.plan(full, s))


def _syntactic(id: str, semantic: str, plan: Callable, summary: str):
    """Enter the function it decorates into ``SYNTACTIC_FORMS`` as the
    body of the form ``id`` of the catalog entry ``semantic``, with
    ``plan`` as its plan.  The pair goes into ``EQUIVALENCE_PAIRS``, and
    its agreement check into ``PAIR_CHECKS`` as ``<semantic>-pair``."""
    def wrap(body):
        form = SYNTACTIC_FORMS[id] = Postulate(id, "pset", summary, body, plan)
        EQUIVALENCE_PAIRS[semantic] = id
        PAIR_CHECKS[f"{semantic}-pair"] = Postulate(
            f"{semantic}~{id}", "pset",
            f"{semantic} and its syntactic form {id} agree on every instance",
            *_agreement(CATALOG[semantic], form))
        return body
    return wrap


def _irrelevant_step(ctx, t: TPO, masks: tuple, region: int) -> bool:
    """Whether every follow-up x inside ``region`` leaves the same beliefs
    after revising ``t`` by the family ``masks`` and then by x as after x
    alone."""
    previse = ctx.previse
    t2 = previse(t, masks)
    for x in range(1, ctx.full_mask + 1):
        if not x & ~region and previse(t2, (x,)).masks[0] != previse(t, (x,)).masks[0]:
            return False
    return True


@_syntactic("C-star-1-b", "C-star-1", _regions,
            "follow-ups entailing the set make the revision step irrelevant")
def _syn_cs1(ctx, t, conj, refuting, masks):
    return _irrelevant_step(ctx, t, masks, conj)


@_syntactic("C-star-2-b", "C-star-2", _regions,
            "follow-ups entailing every negation make the revision step irrelevant")
def _syn_cs2(ctx, t, conj, refuting, masks):
    return _irrelevant_step(ctx, t, masks, refuting)


@_syntactic("C-star-3-b", "C-star-3", _regions,
            "follow-ups that would leave the set believed still do after revising by it")
def _syn_cs3(ctx, t, conj, refuting, masks):
    after = ctx.follow_ups(ctx.previse(t, masks))
    return not any(not alone & ~conj and two_step & ~conj
                   for alone, two_step in zip(ctx.follow_ups(t), after))


@_syntactic("C-star-4-b", "C-star-4", _regions,
            "follow-ups that would leave the set consistent with beliefs still do")
def _syn_cs4(ctx, t, conj, refuting, masks):
    after = ctx.follow_ups(ctx.previse(t, masks))
    return not any(alone & conj and not two_step & conj
                   for alone, two_step in zip(ctx.follow_ups(t), after))


def _subfamilies(full, s) -> tuple:
    """``_regions`` of ``s`` and, for each consistent follow-up mask x in
    order, its routes: every non-empty subfamily of the member masks
    consistent with x, smallest first, joined with x.  The empty
    subfamily joined with x is x alone, a follow-up."""
    regions = _regions(full, s)
    masks = regions[2]
    groups = [(group, reduce(and_, group))
              for size in range(1, len(masks) + 1) for group in combinations(masks, size)]
    return regions + (tuple([tuple([group if x in group else group + (x,)
                                    for group, conj in groups if conj & x])
                             for x in range(1, full + 1)]),)


@_syntactic("PC3-b", "PC3", _subfamilies,
            "anything believed under every compatible subfamily survives the two-step route")
def _syn_pc3(ctx, t, conj, refuting, masks, joined):
    previse = ctx.previse
    after = ctx.follow_ups(previse(t, masks))
    for alone, two_step, routes in zip(ctx.follow_ups(t), after, joined):
        support = alone
        for route in routes:
            support |= previse(t, route).masks[0]
        if two_step & ~support:
            return False
    return True


@_syntactic("PC4-b", "PC4", _subfamilies,
            "nothing refuted under every compatible subfamily appears on the two-step route")
def _syn_pc4(ctx, t, conj, refuting, masks, joined):
    previse = ctx.previse
    after = ctx.follow_ups(previse(t, masks))
    for alone, two_step, routes in zip(ctx.follow_ups(t), after, joined):
        if alone & ~two_step and all(previse(t, route).masks[0] & ~two_step for route in routes):
            return False
    return True


# --- the closure identity ---

def _rc_identity(ctx, profile):
    # The left route aggregates synchronously; the right route intersects
    # the members' conditional beliefs and rebuilds the least committal
    # preorder supporting them, without ever aggregating.  A table fixes
    # its order, so the two routes' tables agree exactly when their
    # orders do.
    closed = rational_closure(intersect_conditionals([ctx.conditionals(t) for t in profile]))
    direct = stq(profile)
    if direct != closed:
        return [{"aggregated": direct, "closure_of_intersection": closed}]
    return []


RC_IDENTITY = Postulate(
    "rc-identity", "profile2",
    "synchronous aggregation equals rational closure of intersected conditional beliefs",
    _rc_identity, _SHAPE_DEFAULTS["profile2"][0], operators=(("strategy", "stq"),))
