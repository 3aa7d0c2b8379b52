"""Single-sentence revision and contraction on total preorders.

Each operator maps a TPO and one input proposition to a new TPO over the
same worlds.  The core transforms take the input's set of models
directly; ``apply`` is a convenience wrapper that takes a formula.  All
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
from .logic import Formula, Language, models
from .tpo import TPO


def _require_consistent(sat: frozenset[int]) -> None:
    if not sat:
        raise InconsistentInputError("cannot revise by an inconsistent input (no models)")


def natural_revise(t: TPO, sat: frozenset[int]) -> TPO:
    """New bottom block ``min(t, sat)``; the rest keeps its relative order."""
    _require_consistent(sat)
    promoted = t.min_of(sat)
    blocks = [promoted]
    for block in t.blocks:
        rest = block - promoted
        if rest:
            blocks.append(rest)
    return TPO(tuple(blocks))


def lex_revise(t: TPO, sat: frozenset[int]) -> TPO:
    """All sat-worlds below all others, prior order kept within each side."""
    _require_consistent(sat)
    width = t.num_blocks + 1
    return TPO.from_ranks(
        [t.rank(w) + (0 if w in sat else width) for w in range(t.num_worlds)])


def restrained_revise(t: TPO, sat: frozenset[int]) -> TPO:
    """``min(t, sat)`` to the bottom; prior strict comparisons survive,
    and within surviving ties sat-worlds come first."""
    _require_consistent(sat)
    promoted = t.min_of(sat)
    keys = {}
    for w in range(t.num_worlds):
        keys[w] = (0, 0, 0) if w in promoted else (1, t.rank(w), 0 if w in sat else 1)
    levels = sorted(set(keys.values()))
    level_index = {key: i for i, key in enumerate(levels)}
    return TPO.from_ranks([level_index[keys[w]] for w in range(t.num_worlds)])


def natural_contract(t: TPO, sat: frozenset[int]) -> TPO:
    """Merge the most plausible worlds outside ``sat`` into the bottom block.

    ``sat`` is the model set of the retracted input; its most plausible
    counter-worlds become maximally plausible too, which is exactly what
    stops the input being believed.  A tautologous input (no
    counter-worlds) and a contradictory one (whose counter-worlds are
    everything, so their minimum is the bottom block already) both leave
    the preorder unchanged.
    """
    complement = frozenset(range(t.num_worlds)) - sat
    demoted = t.min_of(complement)
    bottom = t.blocks[0] | demoted
    blocks = [bottom]
    for block in t.blocks:
        rest = block - bottom
        if rest:
            blocks.append(rest)
    return TPO(tuple(blocks))


@dataclass(frozen=True)
class SerialRevisionOperator:
    """A named single-sentence revision operator."""

    name: str
    transform: Callable[[TPO, frozenset[int]], TPO] = field(repr=False)

    def revise(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.transform(t, frozenset(sat))

    def apply(self, t: TPO, a: Formula, lang: Language) -> TPO:
        return self.revise(t, models(a, lang))


@dataclass(frozen=True)
class SerialContractionOperator:
    """A named single-sentence contraction operator."""

    name: str
    transform: Callable[[TPO, frozenset[int]], TPO] = field(repr=False)

    def contract(self, t: TPO, sat: frozenset[int]) -> TPO:
        return self.transform(t, frozenset(sat))

    def apply(self, t: TPO, a: Formula, lang: Language) -> TPO:
        return self.contract(t, models(a, lang))


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
