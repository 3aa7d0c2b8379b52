"""Single-sentence revision and contraction on total preorders.

Each operator maps a TPO and one input proposition to a new TPO over the
same worlds.  The core transforms take the input's set of models
directly, as a frozenset that each converts to a world mask once, and
build the result from the prior's block masks; ``apply`` is a
convenience wrapper that takes a formula, reads its ``model_mask`` and
calls the mask entry.  All three revision operators
put the most plausible input-worlds at the bottom (so the revised
beliefs are exactly those worlds) and differ in how they rearrange
everything else:

* natural: moves ``min(t, [a])`` down, leaves every other comparison alone.
* lexicographic: drops all a-worlds below all non-a-worlds, preserving
  the prior order within each side.
* restrained: moves ``min(t, [a])`` down, keeps all other prior strict
  comparisons, and breaks prior ties in favour of a-worlds.

Natural contraction merges the most plausible counter-worlds into the
bottom block and changes nothing else; contracting by a tautology or by
a contradiction leaves the preorder unchanged.

Revision by an inconsistent input is rejected: there is no world to
promote.  Operators are held in registries keyed by name so they can be
selected from configuration text; registering one is assigning it into
``REVISION_OPERATORS`` or ``CONTRACTION_OPERATORS``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from .errors import InconsistentInputError, lookup
from .logic import Formula, Language, model_mask
from .tpo import TPO, mask_of, worlds_of


def _consistent_mask(t: TPO, sat: frozenset[int]) -> int:
    mask = mask_of(sat, t.num_worlds)
    if not mask:
        raise InconsistentInputError("cannot revise by an inconsistent input (no models)")
    return mask


def natural_revise(t: TPO, sat: frozenset[int]) -> TPO:
    """New bottom block ``min(t, sat)``; the rest keeps its relative order."""
    promoted = t.min_mask(_consistent_mask(t, sat))
    masks = [promoted]
    for block in t.masks:
        rest = block & ~promoted
        if rest:
            masks.append(rest)
    return TPO._from_masks(tuple(masks), t.num_worlds)


def lex_revise(t: TPO, sat: frozenset[int]) -> TPO:
    """All sat-worlds below all others, prior order kept within each side."""
    mask = _consistent_mask(t, sat)
    inside = [block & mask for block in t.masks]
    outside = [block & ~mask for block in t.masks]
    return TPO._from_masks(tuple(block for block in inside + outside if block), t.num_worlds)


def restrained_revise(t: TPO, sat: frozenset[int]) -> TPO:
    """``min(t, sat)`` to the bottom; prior strict comparisons survive,
    and within surviving ties sat-worlds come first."""
    mask = _consistent_mask(t, sat)
    promoted = t.min_mask(mask)
    masks = [promoted]
    for block in t.masks:
        rest = block & ~promoted
        for part in (rest & mask, rest & ~mask):
            if part:
                masks.append(part)
    return TPO._from_masks(tuple(masks), t.num_worlds)


def natural_contract(t: TPO, sat: frozenset[int]) -> TPO:
    """Merge the most plausible worlds outside ``sat`` into the bottom block.

    ``sat`` is the model set of the retracted input; its most plausible
    counter-worlds become maximally plausible too, which is exactly what
    stops the input being believed.  A tautologous input (no
    counter-worlds) and a contradictory one (whose counter-worlds are
    everything, so their minimum is the bottom block already) both leave
    the preorder unchanged.
    """
    full = (1 << t.num_worlds) - 1
    bottom = t.masks[0] | t.min_mask(full & ~mask_of(sat, t.num_worlds))
    masks = [bottom]
    for block in t.masks[1:]:
        rest = block & ~bottom
        if rest:
            masks.append(rest)
    return TPO._from_masks(tuple(masks), t.num_worlds)


@dataclass(frozen=True)
class SerialRevisionOperator:
    """A named single-sentence revision operator."""

    name: str
    transform: Callable[[TPO, frozenset[int]], TPO] = field(repr=False)

    def revise(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.transform(t, frozenset(sat))

    def revise_mask(self, t: TPO, mask: int) -> TPO:
        """``revise`` by the worlds of ``mask``: the pipeline's stage call."""
        return self.transform(t, worlds_of(mask))

    def apply(self, t: TPO, a: Formula, lang: Language) -> TPO:
        return self.revise_mask(t, model_mask(a, lang))


@dataclass(frozen=True)
class SerialContractionOperator:
    """A named single-sentence contraction operator."""

    name: str
    transform: Callable[[TPO, frozenset[int]], TPO] = field(repr=False)

    def contract(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.transform(t, frozenset(sat))

    def contract_mask(self, t: TPO, mask: int) -> TPO:
        """``contract`` by the worlds of ``mask``: the pipeline's stage call."""
        return self.transform(t, worlds_of(mask))

    def apply(self, t: TPO, a: Formula, lang: Language) -> TPO:
        return self.contract_mask(t, model_mask(a, lang))


NATURAL = SerialRevisionOperator("natural", natural_revise)
LEX = SerialRevisionOperator("lex", lex_revise)
RESTRAINED = SerialRevisionOperator("restrained", restrained_revise)
NATURAL_CONTRACT = SerialContractionOperator("natural-contract", natural_contract)

REVISION_OPERATORS: dict[str, SerialRevisionOperator] = {
    op.name: op for op in (NATURAL, LEX, RESTRAINED)
}

CONTRACTION_OPERATORS: dict[str, SerialContractionOperator] = {
    NATURAL_CONTRACT.name: NATURAL_CONTRACT,
}


def get_revision_operator(name: str) -> SerialRevisionOperator:
    return lookup(REVISION_OPERATORS, name, "revision operator")


def get_contraction_operator(name: str) -> SerialContractionOperator:
    return lookup(CONTRACTION_OPERATORS, name, "contraction operator")
