"""The postulate-checking engine.

``check`` sweeps a postulate over an instance space and returns a
``CheckReport`` whose violations carry replayable witnesses: enough of
the instance (preorder blocks, input sets, operator names) to rebuild
and re-evaluate it bit-for-bit with ``replay_witness``.  Worlds are
rendered as atom bit-strings throughout.

``check`` is the one sweep loop.  Its report counts the instances it
generated and those it skipped as outside the postulate's domain.  It is
also the one place that keeps plans, the part of a check that depends on
the instance's inputs alone (see ``catalog``): where the context keeps
rows, every prior meets every input, so a table local to the sweep holds
each distinct input's plan, and is freed with the sweep.  It is keyed by
the stream's own input objects, one dict level per input: ``plans[s]``,
or ``plans[a][b]`` for the shapes of two inputs (``serial2`` and
``pset2``), as ``spaces.SHAPES`` counts them.  The loop looks each plan
up inline, so no instance builds or hashes a key tuple or calls a
closure.  It holds at most ``_MEMO`` plans, counted across both levels:
a miss that finds it full clears it, which only a sampled sweep of large
families reaches.  Over more worlds each draw makes its own plan, in a
closure that calls the plan and then the body with no table between
them, and an entry without a plan runs as its body bound to the context.
Its id lookup resolves catalog ids, ``<id>-pair`` for the agreement
sweep of a semantic entry against its syntactic companion, and
``rc-identity`` for the check that synchronous aggregation commutes with
conditional-belief intersection followed by rational closure.
``find_countermodel``, ``check_equivalence_pair`` and
``verify_rc_identity`` are calls to it.

A ``CheckContext`` holds the configured operators and drives the
shipped ``ParallelRevisionOperator`` and ``ParallelContractionOperator``
through their mask entries rather than copying their stages, so every
verdict tests the operator the package ships.  Only where priors repeat
does it remember their results: over the worlds an exhaustive space
enumerates, every prior meets every input family.  A sampled space over
more worlds draws priors that rarely repeat within one sweep, so there a
memo would only hold entries that never hit, and the context calls the
operators on every request.  They repeat exactly across sweeps of one
seeded space, and ``spaces`` keeps them there: a sweep reads the
stream's kept prefix where it holds its count, and its orders keep their
derived ``world_masks`` for every later sweep.  Over the few worlds it keeps their results in per-prior
rows: one small dict per order, holding a serial operator's results
keyed by proposition mask and the pipeline's results keyed by the tuple
of member masks.  Under a ``synchronous`` strategy every member joins
every round and the finisher revises by the conjunction, so a pipeline
result depends only on the family's set of members, and its rows key it
by that set: a family listed in another order hits, and the rows of
every prior share one object per set.
Sweeps are prior-major, so the current row is found by an identity
check, and a hit costs no hashed lookup of an order.  For the same
reason a profile's repeats come soon after it, so the aggregator memo
keeps only the profiles used last, and the conditional tables of the
orders used last are kept too.  The finisher revises aggregates, not
priors, so it reads the same rows through a cursor of its own: a
pipeline miss leaves the base's current row in place.  One table is
kept at every size: ``follow_ups``, keyed by an order, because sampled
orders of few blocks recur: a 3-atom pair sweep answers about one lookup
in six from it.  Its entries hold a mask per consistent mask, so the
more worlds, the fewer orders it keeps.
The context keeps only what the operators and orders compute, and sees
world sets only as masks: an instance's frozensets become masks in the
plan that reads them, and ``previse`` and ``pcontract`` take a tuple of
member masks.  No table of world sets is built.  Every memo is a bounded ``functools.lru_cache``,
so each reports its hits and misses through ``cache_info()``, which
``CheckContext.memo_info`` collects, and a hit keeps its entry.  Sweeps
that share operators should share one context.
A body asks for no pipeline result whose answer the instance already
fixes: S-star and P-star hold at once on a pair of families whose
conjunctions share no world, so such an instance counts as checked
without a ``previse`` call.
``previse``, ``pcontract``, ``aggregate``, ``revise`` and ``contract``
are the seams a tracer may replace on a context; every call a body
makes into the operators, the follow-up revisions included,
goes through them.
Witness payloads are encoded and decoded through the shape table in
``spaces``.
"""

from __future__ import annotations

import json
import time
from copy import copy
from dataclasses import dataclass, replace
from functools import lru_cache, partial
from types import SimpleNamespace
from typing import Callable, Optional

from ..aggregation import Aggregator
from ..errors import SpaceError, UnknownPostulateError, lookup
from ..logic import Language
from ..parallel import OperatorConfig, ParallelContractionOperator, ParallelRevisionOperator
from ..tpo import TPO, conditional_set
from .catalog import CATALOG, EQUIVALENCE_PAIRS, PAIR_CHECKS, RC_IDENTITY, Postulate
from .spaces import (MAX_EXHAUSTIVE_ATOMS, SHAPES, InstanceSpace, decode_instance,
                     encode_instance, language)


# plans a sweep keeps at most
_MEMO = 150_000
# entries kept per row table, aggregator memo and order-keyed table.  Only
# contexts over at most 4 worlds keep rows, so a row table never holds
# more than the 75 two-atom orders; on exhaustive 2-atom sweeps only the
# aggregator memo fills to this bound
_ROWS = 4096
# masks the follow-up memo holds at most: an entry holds one per
# consistent mask, so the more worlds, the fewer orders it keeps
_FOLLOW_UP_MASKS = 1 << 18


class _Rows:
    """One serial operator's results, kept in a row per order.

    A row is one small dict: the operator's result on that order for a
    proposition, keyed by the proposition's mask, and, when a pipeline
    keeps its results here too, the pipeline's result for an input family,
    keyed by the family tuple or, under a synchronous strategy, by its set.  Sweeps are
    prior-major, so the row last used is found by an identity check, the
    others through ``find``, keyed by the order's masks.  A row costs one dict, so a prior seen
    once costs no more than its entries.  A copy of a ``_Rows`` is a
    second cursor over the same ``find`` and ``intern`` tables: the
    finisher's, so that its moves among aggregates do not move the
    base's current row away from the prior and back.

    A miss passes the mask straight to the operator's ``transform`` and
    interns the result through ``intern``, keyed by the order, which
    returns the first equal order it met; so equal results are one object
    and the aggregator's memo compares profiles by identity.  Both keep
    at most ``_ROWS`` entries.  The row lookup is ``transform(t, mask)``,
    so the pipeline calls it as it would call the operator.
    """

    __slots__ = ("compute", "find", "intern", "t", "row")

    def __init__(self, op):
        self.compute = op.transform
        self.find = lru_cache(maxsize=_ROWS)(lambda masks: {})
        self.intern = lru_cache(maxsize=_ROWS)(lambda t: t)
        self.t = self.row = None

    def row_of(self, t: TPO) -> dict:
        """The row of ``t``, made current; a new row if ``t`` has none."""
        self.t, self.row = t, self.find(t.masks)
        return self.row

    def transform(self, t: TPO, mask: int) -> TPO:
        row = self.row if t is self.t else self.row_of(t)
        hit = row.get(mask)
        if hit is None:
            hit = row[mask] = self.intern(self.compute(t, mask))
        return hit


def _family_lookup(rows: _Rows, pipeline: Callable, set_keys: Optional[Callable]) -> Callable:
    """``pipeline(t, masks)`` for a tuple of member masks, kept in the row
    of ``t``, keyed by the tuple, or, given ``set_keys``, by its set: for a
    pipeline whose result does not depend on the members' order or
    repeats.  A miss stores a set key through ``set_keys``, which returns
    the first equal set it met, so the rows of every prior share one
    object per set.  A miss runs the pipeline on the members in their
    listed order, so an inconsistent family names its culprits by their
    listed positions."""
    def lookup(t: TPO, masks: tuple) -> TPO:
        row = rows.row if t is rows.t else rows.row_of(t)
        key = masks if set_keys is None else frozenset(masks)
        hit = row.get(key)
        if hit is None:
            hit = pipeline(t, masks)
            row[key if set_keys is None else set_keys(key)] = hit
        return hit
    return lookup


def _follow_up_masks(t: TPO, previse: Callable) -> tuple[int, ...]:
    """The belief mask of ``previse(t, (x,))`` for every consistent mask x, in order."""
    return tuple([previse(t, (x,)).masks[0] for x in range(1, 1 << t.num_worlds)])


class CheckContext:
    """The configured operators, memoized, for one sweep configuration.
    SpaceError unless ``lang`` is a ``Language`` and ``config`` an
    ``OperatorConfig``.

    ``previse(t, masks)`` and ``pcontract(t, masks)`` are ``revise_masks``
    and ``contract_masks`` of the shipped parallel operators, for a tuple
    of member masks.

    Over more worlds than an exhaustive space enumerates (more than
    ``1 << MAX_EXHAUSTIVE_ATOMS``), priors are sampled and rarely repeat
    within one sweep; across sweeps of one seeded space they repeat
    exactly, but the kept streams in ``spaces`` hold those, not the
    context.  So the context keeps no rows, interns nothing and has no
    aggregator memo: ``previse`` and ``pcontract`` are the operators'
    ``revise_masks`` and ``contract_masks`` themselves, ``revise`` and
    ``contract`` the serial operators' ``transform``, ``aggregate`` the
    aggregator's, and ``conditionals`` is ``conditional_set``.  ``rowed``
    says which of the two holds: it is true where the context keeps rows.

    Over fewer worlds, each configured serial operator gets one
    ``_Rows``, so the revision roles that share an operator share its
    results; the contraction role gets rows of its own, so the two
    pipelines never read each other's results, even when one operator
    object fills ``base`` and ``contraction``.  The pipeline's results sit
    in the rows of its base (or contraction) operator, keyed by the mask
    tuple, or under a ``synchronous`` strategy by its set, which a miss
    stores through the ``set_keys`` table, so that every row holds one
    object per set.  When one operator object fills both ``base`` and
    ``finisher``, the finisher reads its rows through a cursor of its own,
    so a pipeline miss hashes no order key to move the base's current row
    away and back; the two roles still share one row table and one
    ``memo_info`` name.  ``previse`` and ``pcontract`` are instance
    attributes bound straight to the row lookup.  A miss runs the operator's mask
    entry on the members in their listed order, so an inconsistent family
    names its culprits by their listed positions; its stages read the
    same rows and aggregate through a memoizing aggregator, whose
    ``aggregate`` is remembered for the ``_ROWS`` profiles used last:
    sweeps are prior-major, so that window keeps most of the hits without
    holding every profile of a sweep.  ``revise(t, mask)`` and
    ``contract(t, mask)`` are the row lookups of the serial revision and
    contraction, which take the input's world mask as every serial
    ``transform`` does, ``aggregate`` reads the aggregator's memo, and
    ``conditionals`` is ``conditional_set`` remembered for the ``_ROWS``
    orders used last.

    The rest holds at every size.  A tracer may replace any of
    ``previse``, ``pcontract``, ``aggregate``, ``revise`` and ``contract``
    on an instance.  ``follow_ups(t)``, the one table kept at every
    size, is the belief mask of ``previse(t, (x,))`` for every consistent
    mask x, in order, remembered per order and per ``previse`` for at
    most ``_ROWS`` orders and ``_FOLLOW_UP_MASKS`` masks in all; it calls
    ``self.previse``, so a stand-in sees those revisions too.

    ``full_mask`` is the mask of every world, which plans take.  The
    context keeps no plan: ``check`` does, for one sweep, in its own loop
    where ``rowed`` is true, and at most ``_MEMO`` of them.  The
    aggregator memo, the set keys and the tables keyed by an order hold
    at most ``_ROWS`` entries.  ``memo_info()`` reports the
    ``cache_info()`` of each.
    Nothing built here refers back to the context.
    """

    def __init__(self, lang: Language, config: OperatorConfig):
        if not isinstance(lang, Language):
            raise SpaceError(f"lang must be a Language, got {lang!r}")
        if not isinstance(config, OperatorConfig):
            raise SpaceError(f"operators must be an OperatorConfig, got {config!r}")
        self.lang = lang
        self.config = config
        num_worlds = lang.num_worlds
        self.full_mask = (1 << num_worlds) - 1
        # priors repeat only where an exhaustive space enumerates them all;
        # above that, rows would mostly hold entries that never hit
        rowed = self.rowed = num_worlds <= 1 << MAX_EXHAUSTIVE_ATOMS
        # (roles served, _Rows) per row table; the roles name it in ``memo_info``
        rows: dict = {}

        def serial_op(role: str):
            op = config.resolved(role)
            if not rowed:
                return op
            # the contraction role keeps rows apart from the revision roles,
            # so the two pipelines never key their results into one row
            key = (role == "contraction", id(op))
            if key not in rows:
                rows[key] = ([], _Rows(op))
            rows[key][0].append(role)
            # the finisher revises aggregates, not priors: a cursor of its
            # own over the same tables leaves the base's current row in place
            return copy(rows[key][1]) if role == "finisher" else rows[key][1]

        revision, contraction = serial_op("revision"), serial_op("contraction")
        base = serial_op("base")
        strategy = config.resolved("strategy")
        self.aggregator = Aggregator(strategy)
        # sweeps are prior-major, so a profile's repeats come soon after it
        merge = (SimpleNamespace(aggregate=lru_cache(maxsize=_ROWS)(self.aggregator.aggregate))
                 if rowed else self.aggregator)
        self.parallel_rev = ParallelRevisionOperator(base, serial_op("finisher"), merge)
        self.parallel_con = ParallelContractionOperator(contraction, merge)
        self.revise = revision.transform
        self.contract = contraction.transform
        self._aggregate = merge.aggregate
        self.previse = self.parallel_rev.revise_masks
        self.pcontract = self.parallel_con.contract_masks
        self._rows = [(f"{'+'.join(roles)}.", table) for roles, table in rows.values()]
        self._set_keys = (lru_cache(maxsize=_ROWS)(lambda key: key)
                          if rowed and strategy.synchronous else None)
        if rowed:
            self.previse = _family_lookup(base, self.previse, self._set_keys)
            self.pcontract = _family_lookup(contraction, self.pcontract, self._set_keys)
        self._follow_ups = lru_cache(maxsize=min(_ROWS, _FOLLOW_UP_MASKS >> num_worlds))(
            _follow_up_masks)
        self.conditionals = lru_cache(maxsize=_ROWS)(conditional_set) if rowed else conditional_set

    @classmethod
    def from_space(cls, space: InstanceSpace) -> "CheckContext":
        return cls(space.lang, space.operators)

    def aggregate(self, profile: tuple[TPO, ...]) -> TPO:
        return self._aggregate(tuple(profile))

    def follow_ups(self, t: TPO) -> tuple[int, ...]:
        """``_follow_up_masks(t, self.previse)``, kept per order and ``previse``."""
        return self._follow_ups(t, self.previse)

    def memo_info(self) -> dict:
        """``cache_info()`` of every memo table the context keeps, by name:
        ``follow_ups``; ``aggregate``, ``conditionals`` and ``set_keys``
        where the context has them; and
        ``<roles>.find`` and ``<roles>.intern`` for each row table, named
        by the roles it serves (``revision+base+finisher`` when one
        operator fills the three)."""
        tables = {"aggregate": self._aggregate, "follow_ups": self._follow_ups,
                  "conditionals": self.conditionals, "set_keys": self._set_keys}
        for prefix, rows in self._rows:
            tables[prefix + "find"], tables[prefix + "intern"] = rows.find, rows.intern
        return {name: table.cache_info() for name, table in tables.items()
                if hasattr(table, "cache_info")}


def render_value(value, lang: Language):
    """Make a hit/instance value JSON-friendly; worlds become bit-strings."""
    if isinstance(value, TPO):
        return value.render(lang)
    if isinstance(value, bool):
        return value
    if isinstance(value, int):
        return lang.world_name(value)
    if isinstance(value, (frozenset, set)):
        return sorted(lang.world_name(w) for w in value)
    if isinstance(value, (list, tuple)):
        return [render_value(v, lang) for v in value]
    if isinstance(value, dict):
        return {k: render_value(v, lang) for k, v in value.items()}
    return value


def _make_witness(postulate: Postulate, instance: tuple, hit: dict, ctx: CheckContext) -> dict:
    return {
        "instance": encode_instance(postulate.shape, instance, ctx.lang),
        "operators": dict(postulate.operators) or ctx.config.describe(),
        "detail": render_value(hit, ctx.lang),
    }


@dataclass
class CheckReport:
    """Outcome of sweeping one postulate over one instance space."""

    postulate: str
    space: dict
    checked: int
    violations: list
    seed: Optional[int]
    elapsed_ms: float
    kind: str = "universal"
    expected: str = "sound"
    total_hits: int = 0
    # instances drawn from the space; ``skipped`` fell outside the
    # postulate's domain, so ``generated == checked + skipped``
    generated: int = 0
    skipped: int = 0

    @property
    def holds(self) -> bool:
        if self.kind == "existential":
            return self.total_hits > 0
        return self.total_hits == 0

    @property
    def outcome(self) -> str:
        return "holds" if self.holds else "fails"

    def matches_expected(self) -> bool:
        if self.expected == "exploratory":
            return True
        if self.expected == "sound":
            return self.holds
        return not self.holds

    def to_json_dict(self) -> dict:
        # field order is part of the report contract
        return {
            "postulate": self.postulate,
            "space": self.space,
            "checked": self.checked,
            "violations": self.violations,
            "seed": self.seed,
            "elapsed_ms": self.elapsed_ms,
            "generated": self.generated,
            "skipped": self.skipped,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def summary_line(self) -> str:
        noun = "witnesses" if self.kind == "existential" else "violations"
        return (f"{self.postulate}: {self.outcome} over {self.checked} instances "
                f"({self.total_hits} {noun}, {self.elapsed_ms:.1f} ms)")


def _postulate(postulate_id: str) -> Postulate:
    if not isinstance(postulate_id, str):
        raise UnknownPostulateError(f"a postulate id must be a string, got {postulate_id!r}")
    if postulate_id == RC_IDENTITY.id:
        return RC_IDENTITY
    if postulate_id.endswith("-pair"):
        return lookup(PAIR_CHECKS, postulate_id, "pair", UnknownPostulateError)
    return lookup(CATALOG, postulate_id, "postulate", UnknownPostulateError)


def _sweep_evaluate(postulate: Postulate, ctx: CheckContext) -> Optional[Callable]:
    """``postulate.evaluate`` on ``ctx`` for one sweep, or None where
    ``check`` keeps the plans itself: where the context keeps rows and
    the entry has a plan.  An entry without a plan is its body bound to
    ``ctx``; elsewhere each instance makes its own plan, in a closure
    that calls the plan and then the body."""
    plan, body = postulate.plan, postulate.body
    if plan is None:
        return partial(body, ctx)
    if ctx.rowed:
        return None
    full = ctx.full_mask

    def evaluate(t, *inputs):
        fields = plan(full, *inputs)
        return None if fields is None else body(ctx, t, *fields)
    return evaluate


def check(postulate_id: str, space: InstanceSpace, *, first: bool = False,
          ctx: Optional[CheckContext] = None) -> CheckReport:
    """Sweep one postulate over ``space`` and report.

    A given ``ctx`` must have the space's atoms and operator names.  Where
    it keeps rows, an entry with a plan runs in this loop: each instance
    looks its plan up by its own input objects, ``plans[s]`` or
    ``plans[a][b]``, a miss plans it and counts it against ``_MEMO``, and
    a None plan skips the instance without a body call.  Every other
    instance goes through ``_sweep_evaluate``.
    """
    postulate = _postulate(postulate_id)
    ctx = ctx or CheckContext.from_space(space)
    made_for = (ctx.lang.atoms, ctx.config.describe())
    if made_for != (space.lang.atoms, space.operators.describe()):
        raise SpaceError(f"a context for atoms and operators {made_for} does not match the space")
    start = time.perf_counter()
    generated = 0
    checked = 0
    total_hits = 0
    kept: list[dict] = []
    cap = space.violation_cap
    evaluate = _sweep_evaluate(postulate, ctx)
    plan, body, full = postulate.plan, postulate.body, ctx.full_mask
    # each input's plan, one dict level per input, and how many are held
    plans: dict = {}
    pairs, held = len(SHAPES[postulate.shape]) == 3, 0
    for instance in space.instances(postulate.shape):
        generated += 1
        if evaluate is not None:
            hits = evaluate(*instance)
        else:
            try:
                fields = plans[instance[1]][instance[2]] if pairs else plans[instance[1]]
            except KeyError:
                if held >= _MEMO:
                    plans.clear()
                    held = 0
                held += 1
                fields = plan(full, *instance[1:])
                (plans.setdefault(instance[1], {}) if pairs else plans)[instance[-1]] = fields
            if fields is None:
                continue
            hits = body(ctx, instance[0], *fields)
        if hits is None:
            continue
        checked += 1
        if hits:
            total_hits += len(hits)
            for hit in hits:
                if len(kept) < cap:
                    kept.append(_make_witness(postulate, instance, hit, ctx))
            if first:
                break
    elapsed = (time.perf_counter() - start) * 1000.0
    described = space.describe()
    # roles the check fixes ran with those operators, not the space's
    described["operators"].update(postulate.operators)
    return CheckReport(
        postulate=postulate.id,
        space=described,
        checked=checked,
        violations=kept,
        seed=space.seed,
        elapsed_ms=round(elapsed, 3),
        kind=postulate.kind,
        expected=postulate.expected_for(space.operators),
        total_hits=total_hits,
        generated=generated,
        skipped=generated - checked,
    )


def find_countermodel(postulate_id: str, space: InstanceSpace,
                      ctx: Optional[CheckContext] = None) -> Optional[dict]:
    """First witness violating (or, for existential entries, satisfying)
    the postulate over ``space``, whatever its ``violation_cap``; None if
    the sweep finds nothing."""
    report = check(postulate_id, replace(space, violation_cap=1), first=True, ctx=ctx)
    return report.violations[0] if report.violations else None


def check_equivalence_pair(semantic_id: str, syntactic_id: str, space: InstanceSpace,
                           ctx: Optional[CheckContext] = None) -> CheckReport:
    """Sweep a semantic form against its syntactic companion.

    A violation is an instance where one form holds and the other does
    not.  Both are evaluated per instance: the semantic form locally over
    world pairs, the syntactic form by quantifying follow-up inputs over
    every consistent proposition and re-applying the operator.
    """
    if not (isinstance(semantic_id, str) and EQUIVALENCE_PAIRS.get(semantic_id) == syntactic_id):
        known = ", ".join(f"{a}~{b}" for a, b in sorted(EQUIVALENCE_PAIRS.items()))
        raise UnknownPostulateError(
            f"{semantic_id!r}/{syntactic_id!r} is not a recognized agreement pair (known: {known})")
    return check(f"{semantic_id}-pair", space, ctx=ctx)


def verify_rc_identity(space: InstanceSpace) -> CheckReport:
    """Synchronous aggregation versus rational closure of intersected
    conditional beliefs: the two routes must land on the same preorder."""
    return check(RC_IDENTITY.id, space)


def replay_witness(postulate_id: str, witness: dict, atoms: int) -> list:
    """Rebuild a witness's instance and re-evaluate it.

    Returns the rendered hits; a faithful violation witness reproduces at
    least the hit it was reported with.  A witness that is not an object
    holding an ``operators`` object, unknown operator roles or names, atom
    counts no space supports, and instances that lack a key of their shape
    or a world of the language, raise typed errors.
    """
    postulate = _postulate(postulate_id)
    lang = language(atoms)
    if not (isinstance(witness, dict) and isinstance(witness.get("operators"), dict)):
        raise SpaceError("a witness must be an object holding an 'operators' object")
    ctx = CheckContext(lang, OperatorConfig.from_names(witness["operators"]))
    instance = decode_instance(postulate.shape, witness.get("instance"), lang)
    hits = postulate.evaluate(ctx, *instance)
    if hits is None:
        return []
    return [render_value(hit, lang) for hit in hits]
