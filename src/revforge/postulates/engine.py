"""The postulate-checking engine.

``check`` sweeps a postulate over an instance space and returns a
``CheckReport`` whose violations carry replayable witnesses: enough of
the instance (preorder blocks, input sets, operator names) to rebuild
and re-evaluate it bit-for-bit with ``replay_witness``.  Worlds are
rendered as atom bit-strings throughout.

``check`` is the one sweep loop.  Its report counts the instances it
generated and those it skipped as outside the postulate's domain.  Its id lookup resolves catalog ids,
``<id>-pair`` for the agreement sweep of a semantic entry against its
syntactic companion, and ``rc-identity`` for the check that synchronous
aggregation commutes with conditional-belief intersection followed by
rational closure.  ``find_countermodel``, ``check_equivalence_pair`` and
``verify_rc_identity`` are calls to it.

A ``CheckContext`` holds the configured operators and drives the
shipped ``ParallelRevisionOperator`` and ``ParallelContractionOperator``;
its memo tables wrap those operators (serial transforms, aggregation and
whole pipeline results) rather than copying their stages, so every
verdict tests the operator the package ships.  It also holds the shared
proposition tables, with each proposition's mask, and the ``derived``
memo for the evaluators' plans: the work that depends on the input
families but not on the prior order.  Sweeps that share
operators should share one context.  Witness payloads are encoded and
decoded through the shape table in ``spaces``.
"""

from __future__ import annotations

import itertools
import json
import time
from dataclasses import dataclass, replace
from typing import Callable, Optional

from ..aggregation import Aggregator
from ..errors import SpaceError, UnknownPostulateError, lookup
from ..logic import Formula, Language, canonical_formula
from ..parallel import OperatorConfig, ParallelContractionOperator, ParallelRevisionOperator
from ..tpo import TPO, conditional_set
from .catalog import CATALOG, EQUIVALENCE_PAIRS, PAIR_CHECKS, RC_IDENTITY, Postulate
from .spaces import (InstanceSpace, all_propositions, all_subsets, decode_instance,
                     encode_instance, language, proposition_masks)


_MISS = object()


def _memoized(fn: Callable, cap: int = 150_000) -> Callable:
    """``fn`` with its results remembered per argument tuple.

    The table sheds its oldest eighth at ``cap`` entries.  Sweeps visit
    one prior order at a time, so stale keys belong to orders the sweep
    will never revisit; plain FIFO eviction keeps the working set intact
    while bounding memory on sampled spaces, where random preorders never
    repeat.
    """
    memo: dict = {}

    def cached(*args):
        hit = memo.get(args, _MISS)
        if hit is _MISS:
            if len(memo) >= cap:
                for stale in list(itertools.islice(memo, cap // 8)):
                    del memo[stale]
            hit = memo[args] = fn(*args)
        return hit
    return cached


class _MemoAggregator:
    """An aggregator that remembers its result for every profile."""

    __slots__ = ("name", "aggregate")

    def __init__(self, aggregator: Aggregator):
        self.name = aggregator.name
        self.aggregate = _memoized(aggregator.aggregate)


class CheckContext:
    """The configured operators, memoized, for one sweep configuration.

    ``previse`` and ``pcontract`` are ``revise_worlds`` and
    ``contract_worlds`` of the shipped parallel operators, remembered per
    (preorder, input family); ``conditionals`` is ``conditional_set``,
    remembered per preorder.  Those operators run on copies of the
    configured serial operators whose ``transform`` is memoized, and on
    a memoizing aggregator; each configured operator gets one copy, so
    roles that share an operator share its results.

    ``subsets`` is the shared table of world sets indexed by mask,
    ``props`` its consistent part, ``mask`` maps each of those sets back
    to its mask, and ``full_mask`` is the mask of every world.  The
    negation of a proposition with mask m is ``subsets[full_mask ^ m]``.
    ``derived(fn, *args)`` is ``fn(num_worlds, *args)``, remembered per
    argument tuple: evaluators keep there the part of their work that
    does not depend on the prior order (the families they revise by and
    the conjunction masks they compare), so a sweep computes it once per
    input family rather than once per instance.  ``follow_ups(t)`` is the
    belief mask of ``previse(t, (x,))`` for every x in ``props``, in
    order, remembered per preorder.  Nothing built here refers back to
    the context.
    """

    def __init__(self, lang: Language, config: OperatorConfig):
        self.lang = lang
        self.config = config
        num_worlds = lang.num_worlds
        self.full = lang.all_worlds
        self.full_mask = (1 << num_worlds) - 1
        self.props = all_propositions(num_worlds)
        self.subsets = all_subsets(num_worlds)
        self.mask = proposition_masks(num_worlds)
        self.derived = _memoized(lambda fn, *args: fn(num_worlds, *args))
        copies: dict = {}

        def memoized_copy(role: str):
            op = config.resolved(role)
            if id(op) not in copies:
                copies[id(op)] = replace(op, transform=_memoized(op.transform))
            return copies[id(op)]

        self.revision = memoized_copy("revision")
        self.contraction = memoized_copy("contraction")
        self.aggregator = Aggregator(config.resolved("strategy"))
        merge = _MemoAggregator(self.aggregator)
        base, finisher = memoized_copy("base"), memoized_copy("finisher")
        self.parallel_rev = ParallelRevisionOperator(base, finisher, merge)
        self.parallel_con = ParallelContractionOperator(self.contraction, merge)
        self._aggregate = merge.aggregate
        self._previse = _memoized(self.parallel_rev.revise_worlds)
        previse, props = self._previse, self.props
        # one entry per order: the cap keeps all 75 two-atom orders, and
        # bounds sampled sweeps, whose orders rarely repeat
        self.follow_ups = _memoized(
            lambda t: tuple(previse(t, (x,)).masks[0] for x in props), cap=4096)
        self._pcontract = _memoized(self.parallel_con.contract_worlds)
        self._canonical = _memoized(lambda worlds: canonical_formula(worlds, lang))
        self.conditionals = _memoized(conditional_set)

    @classmethod
    def from_space(cls, space: InstanceSpace) -> "CheckContext":
        return cls(space.lang, space.operators)

    def canonical(self, worlds: frozenset[int]) -> Formula:
        return self._canonical(worlds)

    def revise(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.revision.revise(t, sat)

    def contract(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.contraction.contract(t, sat)

    def aggregate(self, profile: tuple[TPO, ...]) -> TPO:
        return self._aggregate(tuple(profile))

    def previse(self, t: TPO, sets: tuple[frozenset[int], ...]) -> TPO:
        return self._previse(t, tuple(sets))

    def pcontract(self, t: TPO, sets: tuple[frozenset[int], ...]) -> TPO:
        return self._pcontract(t, tuple(sets))


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
    if postulate_id == RC_IDENTITY.id:
        return RC_IDENTITY
    if postulate_id.endswith("-pair"):
        return lookup(PAIR_CHECKS, postulate_id, "pair", UnknownPostulateError)
    return lookup(CATALOG, postulate_id, "postulate", UnknownPostulateError)


def check(postulate_id: str, space: InstanceSpace, *, first: bool = False,
          ctx: Optional[CheckContext] = None) -> CheckReport:
    """Sweep one postulate over ``space`` and report.

    A given ``ctx`` must have the space's atoms and operator names.
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
    for instance in space.instances(postulate.shape):
        generated += 1
        hits = postulate.evaluate(ctx, *instance)
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
    # roles the evaluator fixes ran with those operators, not the space's
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
    the postulate over ``space``; None if the sweep finds nothing."""
    report = check(postulate_id, space, first=True, ctx=ctx)
    return report.violations[0] if report.violations else None


def check_equivalence_pair(semantic_id: str, syntactic_id: str, space: InstanceSpace,
                           ctx: Optional[CheckContext] = None) -> CheckReport:
    """Sweep a semantic form against its syntactic companion.

    A violation is an instance where one form holds and the other does
    not.  Both are evaluated per instance: the semantic form locally over
    world pairs, the syntactic form by quantifying follow-up inputs over
    every consistent proposition and re-applying the operator.
    """
    if EQUIVALENCE_PAIRS.get(semantic_id) != syntactic_id:
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
    least the hit it was reported with.  Unknown operator roles or names,
    and atom counts no space supports, raise typed errors.
    """
    postulate = _postulate(postulate_id)
    lang = language(atoms)
    ctx = CheckContext(lang, OperatorConfig.from_names(witness["operators"]))
    instance = decode_instance(postulate.shape, witness["instance"], lang)
    hits = postulate.evaluate(ctx, *instance)
    if hits is None:
        return []
    return [render_value(hit, lang) for hit in hits]
