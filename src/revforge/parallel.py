"""Revision and contraction by finite sets of inputs, via aggregation.

Parallel revision of a TPO by a set S runs a three-stage pipeline:

1. revise by each member separately with a base serial operator,
2. aggregate the resulting profile with a TeamQueue aggregator,
3. revise the aggregate by the conjunction of S with a finisher serial
   operator, which guarantees the conjunction ends up believed.

Parallel contraction runs the member-wise contractions and aggregates,
with no finishing step.

These two operators are the only implementation of the pipeline.  Its
one entry works on world masks, ``revise_masks`` and ``contract_masks``;
``revise_worlds`` and ``contract_worlds`` convert their sets with
``mask_of``, which rejects a world outside the order, and call it;
``revise`` and ``contract`` check once, with ``check_language``, that the
``FormulaSet``'s language is exactly as wide as the order, and then pass
its ``model_masks`` on unchecked, since a formula's models are worlds of
its own language.
Each stage calls a serial operator's ``transform`` on a mask.  The
postulate checker's ``CheckContext`` builds the two operators, over its
per-prior rows where priors repeat and over the serial operators
themselves elsewhere, instead of re-implementing the stages.

Revision requires the conjunction of the inputs to be consistent;
otherwise there is nothing coherent to promote and the call is rejected
with a minimal inconsistent subset as a diagnostic.  An empty input set
is treated as the set containing only the tautology.

``OperatorConfig`` is the one place that names an operator combination
and its defaults: the serial revision and contraction, and the base,
finisher and strategy of the pipeline.  Its ``describe()`` is the one
serialized form: ``OperatorConfig(**described)`` reads it back, and
``OperatorConfig.from_names`` does so with typed errors for names that
come from outside the program.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import reduce
from operator import and_
from typing import Mapping, Sequence

from .aggregation import Aggregator, SelectionStrategy, make_strategy
from .errors import InconsistentInputError, UnknownOperatorError
from .logic import FormulaSet
from .serial import (
    SerialContractionOperator,
    SerialRevisionOperator,
    get_contraction_operator,
    get_revision_operator,
)
from .tpo import TPO, check_language, mask_of


def minimal_inconsistent_indices(masks: Sequence[int], full: int) -> tuple[int, ...]:
    """Indices of an inclusion-minimal subfamily of ``masks`` with empty
    intersection; ``full`` is the mask of every world.

    Greedy shrink: drop any member whose removal keeps the family
    inconsistent.  Only meaningful when the whole family is inconsistent.
    """
    kept = list(range(len(masks)))
    for index in list(kept):
        trial = [i for i in kept if i != index]
        if not reduce(and_, (masks[i] for i in trial), full):
            kept = trial
    return tuple(kept)


@dataclass(frozen=True)
class ParallelRevisionOperator:
    """Base serial revision, aggregation, then a finishing revision."""

    base: SerialRevisionOperator
    finisher: SerialRevisionOperator
    aggregator: Aggregator

    def revise_masks(self, t: TPO, masks: Sequence[int],
                     labels: Sequence[object] | None = None) -> TPO:
        """Revise ``t`` by the family whose members have world masks ``masks``.

        The one implementation of the pipeline: each stage calls the
        serial operators' ``transform``.  ``labels`` name the members, by
        their ``str``, in the error for an inconsistent family; only the
        culprits' labels are formatted.
        """
        full = (1 << t.num_worlds) - 1
        masks = tuple(masks) or (full,)
        target = reduce(and_, masks, full)
        if not target:
            culprits = minimal_inconsistent_indices(masks, full)
            names = tuple(str(labels[i]) if labels else f"member {i}" for i in culprits)
            raise InconsistentInputError(
                "cannot revise by a set whose conjunction is inconsistent", names)
        revise = self.base.transform
        merged = self.aggregator.aggregate(tuple([revise(t, mask) for mask in masks]))
        return self.finisher.transform(merged, target)

    def revise_worlds(self, t: TPO, member_sets: Sequence[frozenset[int]],
                      labels: Sequence[object] | None = None) -> TPO:
        n = t.num_worlds
        return self.revise_masks(t, [mask_of(member, n) for member in member_sets], labels)

    def revise(self, t: TPO, s: FormulaSet) -> TPO:
        check_language(s.lang, t.num_worlds)
        return self.revise_masks(t, s.model_masks(), labels=s.members)


@dataclass(frozen=True)
class ParallelContractionOperator:
    """Member-wise serial contraction followed by aggregation."""

    base: SerialContractionOperator
    aggregator: Aggregator

    def contract_masks(self, t: TPO, masks: Sequence[int]) -> TPO:
        """Contract ``t`` by the family whose members have world masks ``masks``."""
        masks = tuple(masks) or ((1 << t.num_worlds) - 1,)
        contract = self.base.transform
        return self.aggregator.aggregate(tuple([contract(t, mask) for mask in masks]))

    def contract_worlds(self, t: TPO, member_sets: Sequence[frozenset[int]]) -> TPO:
        n = t.num_worlds
        return self.contract_masks(t, [mask_of(member, n) for member in member_sets])

    def contract(self, t: TPO, s: FormulaSet) -> TPO:
        check_language(s.lang, t.num_worlds)
        return self.contract_masks(t, s.model_masks())


@dataclass(frozen=True)
class OperatorConfig:
    """Which operators a check, a scenario or the default pipelines run.

    Fields accept registry names or operator objects, so tests can slot
    in deliberately broken operators to validate the checker itself.  An
    object must be one of its field's kind: a ``SelectionStrategy`` for
    ``strategy``, and for the serial roles an object with a ``transform``
    and a ``name``; any other value raises ``UnknownOperatorError`` here,
    and an unknown name when its field is resolved.  A configuration is
    frozen, so no value gets past that check by assignment; another
    combination is a new one, made with ``dataclasses.replace``, which
    checks it again.
    """

    revision: str | SerialRevisionOperator = "natural"
    contraction: str | SerialContractionOperator = "natural-contract"
    base: str | SerialRevisionOperator = "natural"
    finisher: str | SerialRevisionOperator = "natural"
    strategy: str | SelectionStrategy = "stq"

    def __post_init__(self):
        for role, value in vars(self).items():
            if isinstance(value, str):
                continue
            if not (isinstance(value, SelectionStrategy) if role == "strategy"
                    else hasattr(value, "transform") and hasattr(value, "name")):
                raise UnknownOperatorError(
                    f"{role!r} must be an operator name or object, got {value!r}")

    @classmethod
    def from_names(cls, names: Mapping, roles: Mapping | None = None) -> "OperatorConfig":
        """The configuration that ``names``, read from outside the program,
        spells; unnamed fields keep their defaults.

        ``roles`` maps each key ``names`` may use to the field it sets;
        by default each field is its own key, as in ``describe()``.
        ``names`` that are not a mapping, an unknown key or a name that is
        not a string raise ``UnknownOperatorError``, and so does an unknown
        name, once its field is resolved.
        """
        roles = roles or {role: role for role in _RESOLVERS}
        try:
            unknown, items = set(names) - set(roles), names.items()
        except (TypeError, AttributeError):
            raise UnknownOperatorError(f"operator names must be a mapping, got {names!r}") from None
        if unknown:
            raise UnknownOperatorError(f"unknown keys {sorted(unknown)}")
        for key, name in items:
            if not isinstance(name, str):
                raise UnknownOperatorError(f"{key!r} must be an operator name, got {name!r}")
        return cls(**{roles[key]: name for key, name in items})

    def resolved(self, role: str):
        """The operator object in field ``role``, with names looked up."""
        value = getattr(self, role)
        return _RESOLVERS[role](value) if isinstance(value, str) else value

    def describe(self) -> dict:
        def name(value) -> str:
            return value if isinstance(value, str) else value.name
        return {f.name: name(getattr(self, f.name)) for f in fields(self)}


_RESOLVERS = {"revision": get_revision_operator, "contraction": get_contraction_operator,
              "base": get_revision_operator, "finisher": get_revision_operator,
              "strategy": make_strategy}


def default_parallel_revision() -> ParallelRevisionOperator:
    config = OperatorConfig()
    return ParallelRevisionOperator(config.resolved("base"), config.resolved("finisher"),
                                    Aggregator(config.resolved("strategy")))


def default_parallel_contraction() -> ParallelContractionOperator:
    config = OperatorConfig()
    return ParallelContractionOperator(config.resolved("contraction"),
                                       Aggregator(config.resolved("strategy")))
