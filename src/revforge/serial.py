"""Single-sentence revision and contraction on total preorders.

Each operator maps a TPO and one input proposition to a new TPO over the
same worlds.  Its ``transform(t, mask)``, called by the pipeline, the
checker's rows and scenario steps, takes the input's models as a world
mask and trusts it, as ``TPO._from_masks`` trusts its blocks;
``revise``/``contract`` convert a world set once with ``mask_of`` and
``apply`` checks a formula's ``model_mask`` against the order.  All
three revision operators put the most plausible input-worlds at the
bottom (so the revised beliefs are exactly those worlds) and differ in
how they rearrange everything else:

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
from .tpo import TPO, check_mask, mask_of


def _consistent_mask(mask: int) -> int:
    if not mask:
        raise InconsistentInputError("cannot revise by an inconsistent input (no models)")
    return mask


def natural_revise(t: TPO, mask: int) -> TPO:
    """New bottom block ``min(t, mask)``; the rest keeps its relative order."""
    promoted = t.min_mask(_consistent_mask(mask))
    masks = [promoted]
    for block in t.masks:
        rest = block & ~promoted
        if rest:
            masks.append(rest)
    return TPO._from_masks(tuple(masks), t.num_worlds)


def lex_revise(t: TPO, mask: int) -> TPO:
    """All mask-worlds below all others, prior order kept within each side."""
    _consistent_mask(mask)
    inside = [block & mask for block in t.masks]
    outside = [block & ~mask for block in t.masks]
    return TPO._from_masks(tuple(block for block in inside + outside if block), t.num_worlds)


def restrained_revise(t: TPO, mask: int) -> TPO:
    """``min(t, mask)`` to the bottom; prior strict comparisons survive,
    and within surviving ties mask-worlds come first."""
    promoted = t.min_mask(_consistent_mask(mask))
    masks = [promoted]
    for block in t.masks:
        rest = block & ~promoted
        for part in (rest & mask, rest & ~mask):
            if part:
                masks.append(part)
    return TPO._from_masks(tuple(masks), t.num_worlds)


def natural_contract(t: TPO, mask: int) -> TPO:
    """Merge the most plausible worlds outside ``mask`` into the bottom block.

    ``mask`` holds the models of the retracted input; its most plausible
    counter-worlds become maximally plausible too, which is exactly what
    stops the input being believed.  A tautologous input (no
    counter-worlds) and a contradictory one (whose counter-worlds are
    everything, so their minimum is the bottom block already) both leave
    the preorder unchanged.
    """
    full = (1 << t.num_worlds) - 1
    bottom = t.masks[0] | t.min_mask(full & ~mask)
    masks = [bottom]
    for block in t.masks[1:]:
        rest = block & ~bottom
        if rest:
            masks.append(rest)
    return TPO._from_masks(tuple(masks), t.num_worlds)


@dataclass(frozen=True)
class _SerialOperator:
    name: str
    transform: Callable[[TPO, int], TPO] = field(repr=False)

    def _on_worlds(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.transform(t, mask_of(sat, t.num_worlds))

    def apply(self, t: TPO, a: Formula, lang: Language) -> TPO:
        return self.transform(t, check_mask(model_mask(a, lang), t.num_worlds))


class SerialRevisionOperator(_SerialOperator):
    """A named single-sentence revision operator."""

    revise = _SerialOperator._on_worlds


class SerialContractionOperator(_SerialOperator):
    """A named single-sentence contraction operator."""

    contract = _SerialOperator._on_worlds


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
