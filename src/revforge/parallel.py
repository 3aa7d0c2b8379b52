"""Revision and contraction by finite sets of inputs, via aggregation.

Parallel revision of a TPO by a set S runs a three-stage pipeline:

1. revise by each member separately with a base serial operator,
2. aggregate the resulting profile with a TeamQueue aggregator,
3. revise the aggregate by the conjunction of S with a finisher serial
   operator, which guarantees the conjunction ends up believed.

Parallel contraction runs the member-wise contractions and aggregates,
with no finishing step.

These two operators are the only implementation of the pipeline: the
postulate checker's ``CheckContext`` builds them from its configuration
and memoizes their results instead of re-implementing the stages.

Revision requires the conjunction of the inputs to be consistent;
otherwise there is nothing coherent to promote and the call is rejected
with a minimal inconsistent subset as a diagnostic.  An empty input set
is treated as the set containing only the tautology.

Two belief-only routes are provided for comparison with the pipeline:
``levi_parallel_beliefs`` contracts by the negations and then adds the
inputs (which can come out inconsistent, and callers are expected to
treat an empty result as exactly that), and ``harper_parallel_beliefs``
keeps what survives both the current state and revision by the negations.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Sequence

from .aggregation import Aggregator, make_strategy
from .errors import InconsistentInputError, RevforgeError
from .logic import FormulaSet
from .serial import (
    SerialContractionOperator,
    SerialRevisionOperator,
    get_contraction_operator,
    get_revision_operator,
)
from .tpo import TPO


def _full_set(t: TPO) -> frozenset[int]:
    return frozenset(range(t.num_worlds))


def minimal_inconsistent_indices(member_sets: Sequence[frozenset[int]],
                                 full: frozenset[int]) -> tuple[int, ...]:
    """Indices of an inclusion-minimal subfamily with empty intersection.

    Greedy shrink: drop any member whose removal keeps the family
    inconsistent.  Only meaningful when the whole family is inconsistent.
    """
    kept = list(range(len(member_sets)))
    for index in list(kept):
        trial = [i for i in kept if i != index]
        if not full.intersection(*(member_sets[i] for i in trial)):
            kept = trial
    return tuple(kept)


@dataclass(frozen=True)
class ParallelRevisionOperator:
    """Base serial revision, aggregation, then a finishing revision."""

    base: SerialRevisionOperator
    finisher: SerialRevisionOperator
    aggregator: Aggregator

    def revise_worlds(self, t: TPO, member_sets: Sequence[frozenset[int]],
                      labels: Sequence[str] | None = None) -> TPO:
        full = _full_set(t)
        members = tuple(member_sets) or (full,)
        target = full.intersection(*members)
        if not target:
            culprits = minimal_inconsistent_indices(members, full)
            names = tuple(labels[i] if labels else f"member {i}" for i in culprits)
            raise InconsistentInputError(
                "cannot revise by a set whose conjunction is inconsistent", names)
        profile = tuple(self.base.revise(t, member) for member in members)
        merged = self.aggregator.aggregate(profile)
        return self.finisher.revise(merged, target)

    def revise(self, t: TPO, s: FormulaSet) -> TPO:
        return self.revise_worlds(t, s.model_sets(), labels=[str(m) for m in s])

    def config_string(self) -> str:
        return (f"parallel(base={self.base.name}, finisher={self.finisher.name}, "
                f"agg={self.aggregator.name})")


@dataclass(frozen=True)
class ParallelContractionOperator:
    """Member-wise serial contraction followed by aggregation."""

    base: SerialContractionOperator
    aggregator: Aggregator

    def contract_worlds(self, t: TPO, member_sets: Sequence[frozenset[int]]) -> TPO:
        members = tuple(member_sets) or (_full_set(t),)
        profile = tuple(self.base.contract(t, member) for member in members)
        return self.aggregator.aggregate(profile)

    def contract(self, t: TPO, s: FormulaSet) -> TPO:
        return self.contract_worlds(t, s.model_sets())

    def config_string(self) -> str:
        return f"parallel(base={self.base.name}, agg={self.aggregator.name})"


def default_parallel_revision() -> ParallelRevisionOperator:
    return ParallelRevisionOperator(
        base=get_revision_operator("natural"),
        finisher=get_revision_operator("natural"),
        aggregator=Aggregator(make_strategy("stq")))


def default_parallel_contraction() -> ParallelContractionOperator:
    return ParallelContractionOperator(
        base=get_contraction_operator("natural-contract"),
        aggregator=Aggregator(make_strategy("stq")))


_CONFIG = re.compile(
    r"parallel\(\s*base=([A-Za-z-]+)\s*,\s*finisher=([A-Za-z-]+)\s*,\s*agg=([A-Za-z-]+)\s*\)\Z")


def parse_operator_config(text: str) -> ParallelRevisionOperator:
    """Parse ``parallel(base=..., finisher=..., agg=...)``."""
    match = _CONFIG.match(text.strip())
    if not match:
        raise RevforgeError(
            f"bad operator config {text!r}; expected parallel(base=NAME, finisher=NAME, agg=NAME)")
    base, finisher, agg = match.groups()
    return ParallelRevisionOperator(
        base=get_revision_operator(base),
        finisher=get_revision_operator(finisher),
        aggregator=Aggregator(make_strategy(agg)))


def levi_worlds(op: ParallelContractionOperator, t: TPO,
                member_sets: Sequence[frozenset[int]]) -> frozenset[int]:
    """Belief worlds from contracting the negations then adding the inputs.

    May be empty: the contraction is not forced to make room for every
    member at once, and an empty result marks the route as having
    produced an inconsistent belief state.
    """
    full = _full_set(t)
    members = tuple(member_sets) or (full,)
    negated = tuple(full - member for member in members)
    withdrawn = op.contract_worlds(t, negated)
    return withdrawn.belief_worlds().intersection(*members)


def levi_parallel_beliefs(op: ParallelContractionOperator, t: TPO, s: FormulaSet) -> frozenset[int]:
    return levi_worlds(op, t, s.model_sets())


def harper_worlds(op: ParallelRevisionOperator, t: TPO,
                  member_sets: Sequence[frozenset[int]]) -> frozenset[int]:
    """Belief worlds for withdrawing a set: keep what survives both the
    current state and revision by the member-wise negations.

    Requires the conjunction of the negations to be consistent.
    """
    full = _full_set(t)
    members = tuple(member_sets) or (full,)
    negated = tuple(full - member for member in members)
    return t.belief_worlds() | op.revise_worlds(t, negated).belief_worlds()


def harper_parallel_beliefs(op: ParallelRevisionOperator, t: TPO, s: FormulaSet) -> frozenset[int]:
    return harper_worlds(op, t, s.model_sets())
