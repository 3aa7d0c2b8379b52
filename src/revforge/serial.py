"""Single-sentence revision and contraction on total preorders.

Each operator maps a TPO and one input proposition to a new TPO over the
same worlds.  Its ``transform(t, mask)``, called by the pipeline, the
checker's rows and scenario steps, takes the input's models as a world
mask and trusts it, as ``tpo.tpo`` trusts its blocks;
``revise``/``contract`` convert a world set once with ``mask_of``, and
``apply`` reads a formula's ``model_mask`` once ``check_language`` has
found the language as wide as the order: the mask of a formula over the
order's own language names only worlds of the order, so it needs no
check of its own.  Each transform is one kernel that walks ``t.masks``
once: it finds ``min(t, mask)``, the first block that meets the mask,
on the way, keeps the blocks the change leaves alone as they are, and
hands its blocks to ``tpo.tpo``, the one constructor of valid orders.  A
revision by an empty mask finds no such block and raises
``InconsistentInputError``.  All
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
from .tpo import TPO, check_language, mask_of, tpo


_NO_MODELS = "cannot revise by an inconsistent input (no models)"


def natural_revise(t: TPO, mask: int) -> TPO:
    """New bottom block ``min(t, mask)``; the rest keeps its relative order.
    A trusted kernel: it takes ``mask`` as a world mask of ``t`` unchecked."""
    masks = t.masks
    i = 0
    for block in masks:
        promoted = block & mask
        if promoted:
            rest = block ^ promoted
            return tpo((promoted,) + masks[:i] + ((rest,) if rest else ()) + masks[i + 1:],
                       t.num_worlds)
        i += 1
    raise InconsistentInputError(_NO_MODELS)


def lex_revise(t: TPO, mask: int) -> TPO:
    """All mask-worlds below all others, prior order kept within each side.
    A trusted kernel: it takes ``mask`` as a world mask of ``t`` unchecked."""
    if not mask:
        raise InconsistentInputError(_NO_MODELS)
    inside, outside = [], []
    for block in t.masks:
        part = block & mask
        if part:
            inside.append(part)
        if part != block:
            outside.append(block ^ part)
    inside += outside
    return tpo(tuple(inside), t.num_worlds)


def restrained_revise(t: TPO, mask: int) -> TPO:
    """``min(t, mask)`` to the bottom; prior strict comparisons survive,
    and within surviving ties mask-worlds come first.  A trusted kernel:
    it takes ``mask`` as a world mask of ``t`` unchecked."""
    masks = t.masks
    i = 0
    for block in masks:
        promoted = block & mask
        if promoted:
            # the blocks before block i hold no mask-world, and block i
            # keeps its other worlds; each later block splits into its
            # mask-worlds, then the rest
            out = [promoted, *masks[:i]]
            if promoted != block:
                out.append(block ^ promoted)
            for block in masks[i + 1:]:
                part = block & mask
                if part:
                    out.append(part)
                if part != block:
                    out.append(block ^ part)
            return tpo(tuple(out), t.num_worlds)
        i += 1
    raise InconsistentInputError(_NO_MODELS)


def natural_contract(t: TPO, mask: int) -> TPO:
    """Merge the most plausible worlds outside ``mask`` into the bottom block.

    ``mask`` holds the models of the retracted input; its most plausible
    counter-worlds become maximally plausible too, which is exactly what
    stops the input being believed.  A tautologous input (no
    counter-worlds) and a contradictory one (whose counter-worlds are
    everything, so their minimum is the bottom block already) both leave
    the preorder unchanged.  A trusted kernel: it takes ``mask`` as a
    world mask of ``t`` unchecked.
    """
    masks = t.masks
    i = 0
    for block in masks:
        demoted = block & ~mask
        if demoted:
            if not i:
                break
            rest = block ^ demoted
            return tpo((masks[0] | demoted,) + masks[1:i] + ((rest,) if rest else ())
                       + masks[i + 1:], t.num_worlds)
        i += 1
    return tpo(masks, t.num_worlds)


@dataclass(frozen=True)
class _SerialOperator:
    name: str
    transform: Callable[[TPO, int], TPO] = field(repr=False)

    def _on_worlds(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.transform(t, mask_of(sat, t.num_worlds))

    def apply(self, t: TPO, a: Formula, lang: Language) -> TPO:
        check_language(lang, t.num_worlds)
        return self.transform(t, model_mask(a, lang))


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
