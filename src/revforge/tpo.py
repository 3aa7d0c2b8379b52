"""Total preorders over worlds, conditional beliefs, and rational closure.

A ``TPO`` is an ordered partition of the worlds ``0 .. n-1`` into
non-empty blocks.  Earlier blocks are more plausible: block 0 holds the
most plausible worlds (rank 1), and a world is weakly below another when
its rank is no larger.  The bottom block is the set of belief worlds,
i.e. the models of everything believed outright.

Inside the package a set of worlds is an ``int`` mask with bit w set for
world w.  A ``TPO`` stores its blocks as the tuple ``masks``, and
``min_mask`` is the first non-zero ``block & mask``.  Frozensets stay at
the edge: the frozenset ``blocks`` and the per-world ``ranks`` are built
from the masks on first use and then kept, and so is ``world_masks``,
the per-world masks over which a comparison of two orders is one mask
expression per world rather than one test per pair.
``min_of`` and the serial operators' ``revise``/``contract`` take
frozensets, converted once by ``mask_of``; it, ``rank`` and the
comparisons reject worlds outside the order with ``PartitionError``.
Equality and the hash use the masks.  The hash too is computed on first
use and then kept, so an order that never becomes a key, as almost none
does in a sampled sweep, never pays for it.  ``TPO(blocks)`` validates
its argument; orders that operators build are valid by construction and
skip the check through ``TPO._from_masks``, which sets only ``masks``
and ``num_worlds``.

Outside the package, in scenario documents and witness payloads, a set
of worlds is a JSON list of world names and an order is a list of such
lists, most plausible first.  ``read_worlds`` and ``read_order`` are the
one reader of that format: TypeError for a value that is not a list,
``LanguageError`` for a name that is not a world of the language or is
listed twice, and ``PartitionError`` for blocks that do not partition
every world of the language.  Each caller wraps these in its own error.

A ``ConditionalSet`` captures the conditional beliefs a TPO supports: it
accepts the pair (antecedent X, consequent Y) exactly when the most
plausible X-worlds all lie in Y.  Internally it is a flat tuple indexed
by antecedent mask, holding the mask of the strongest accepted
consequent, which doubles as a choice function: a TPO's table is
``t.min_mask`` over every mask, and an intersection is the entries'
pointwise union.  The table fixes its order, since block i is the entry
for the worlds outside blocks 0..i-1, so two orders have equal tables
exactly when they are equal.  Conditional sets of TPOs are closed under
intersection, and ``rational_closure`` maps any such intersection back
to the unique least committal TPO that supports it, by iteratively
peeling off the worlds that materially satisfy every conditional still
in play.
"""

from __future__ import annotations

from operator import or_
from typing import Iterable, Mapping, Sequence

from .errors import LanguageError, PartitionError, SpaceError, UnsatisfiableConditionalsError
from .logic import Language, ascending_worlds, worlds_of

MAX_CONDITIONAL_WORLDS = 8

_set = object.__setattr__


def check_mask(mask: int, num_worlds: int) -> int:
    """``mask``; PartitionError unless its worlds all lie in ``range(num_worlds)``."""
    if mask >> num_worlds:
        outside = sorted(worlds_of(mask >> num_worlds << num_worlds))
        raise PartitionError(f"worlds {outside} are not in range({num_worlds})")
    return mask


def mask_of(worlds: Iterable[int], num_worlds: int) -> int:
    """``worlds`` as a mask; PartitionError unless all lie in ``range(num_worlds)``."""
    mask = 0
    for world in worlds:
        try:
            mask |= 1 << world
        except (TypeError, ValueError):
            raise PartitionError(f"world {world!r} is not in range({num_worlds})") from None
    return check_mask(mask, num_worlds)


class TPO:
    """An ordered partition of ``range(num_worlds)``; block 0 is lowest.

    ``masks[i]`` is block i as a world mask.  ``blocks`` (frozensets),
    ``ranks`` (1-based block index per world) and ``world_masks`` are
    derived on first use.  ``world_masks`` is the pair ``(below, block)``
    of per-world tuples: ``below[w]`` masks the worlds strictly more
    plausible than w and ``block[w]`` masks w's own block, so y is
    strictly less plausible than w exactly when it is in neither.
    Equality and hashing look at ``masks`` only; the hash, ``hash(masks)``,
    is computed on first use and kept, like the derived fields.
    Instances are immutable.
    """

    __slots__ = ("masks", "num_worlds", "blocks", "ranks", "world_masks", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        blocks = tuple(frozenset(b) for b in blocks)
        if not blocks:
            raise PartitionError("a total preorder needs at least one block")
        count = sum(map(len, blocks))
        masks = []
        seen = 0
        for block in blocks:
            if not block:
                raise PartitionError("blocks must be non-empty")
            try:
                mask = mask_of(block, count)
            except PartitionError as exc:
                raise PartitionError(f"blocks must cover range({count}) exactly: {exc}") from None
            if mask & seen:
                raise PartitionError(f"blocks overlap on {sorted(worlds_of(mask & seen))}")
            seen |= mask
            masks.append(mask)
        # disjoint blocks of ``count`` worlds, all in range(count), cover it
        masks = tuple(masks)
        _set_masks(self, masks)
        _set_num_worlds(self, count)
        _set(self, "blocks", blocks)

    @classmethod
    def _from_masks(cls, masks: tuple[int, ...], num_worlds: int) -> "TPO":
        """The order with block masks ``masks``, which must partition
        ``range(num_worlds)``; only emptiness is checked.  It writes the
        two slots through their own setters and leaves the hash and the
        derived fields for first use."""
        if not masks:
            raise PartitionError("a total preorder needs at least one block")
        t = _new(cls)
        _set_masks(t, masks)
        _set_num_worlds(t, num_worlds)
        return t

    def __getattr__(self, name: str):
        # fills the derived slots on first use
        if name == "_hash":
            value = hash(self.masks)
        elif name == "blocks":
            value = tuple(worlds_of(mask) for mask in self.masks)
        elif name == "ranks":
            ranks = [0] * self.num_worlds
            for depth, mask in enumerate(self.masks, start=1):
                while mask:
                    low = mask & -mask
                    ranks[low.bit_length() - 1] = depth
                    mask ^= low
            value = tuple(ranks)
        elif name == "world_masks":
            below, block = [0] * self.num_worlds, [0] * self.num_worlds
            lower = 0
            for mask in self.masks:
                for world in ascending_worlds(mask):
                    below[world], block[world] = lower, mask
                lower |= mask
            value = (tuple(below), tuple(block))
        else:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        _set(self, name, value)
        return value

    def __setattr__(self, name, value):
        raise AttributeError("TPO is immutable")

    def __delattr__(self, name):
        raise AttributeError("TPO is immutable")

    def __reduce__(self):
        return (TPO, (self.blocks,))

    def __eq__(self, other: object) -> bool:
        if isinstance(other, TPO):
            return self.masks == other.masks
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]]) -> "TPO":
        return cls(blocks)

    @classmethod
    def uniform(cls, num_worlds: int) -> "TPO":
        """The single-block preorder: every world equally plausible."""
        if num_worlds < 1:
            raise PartitionError("a total preorder needs at least one world")
        return cls._from_masks(((1 << num_worlds) - 1,), num_worlds)

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "TPO":
        """Build from any per-world keys; equal keys share a block."""
        index = {level: i for i, level in enumerate(sorted(set(ranks)))}
        masks = [0] * len(index)
        for world, level in enumerate(ranks):
            masks[index[level]] |= 1 << world
        return cls._from_masks(tuple(masks), len(ranks))

    @property
    def num_blocks(self) -> int:
        return len(self.masks)

    def rank(self, world: int) -> int:
        """1-based block index of ``world``; smaller is more plausible.

        PartitionError unless ``world`` is in ``range(num_worlds)``; hot
        loops that only pass worlds of the order read ``ranks`` instead.
        """
        if not 0 <= world < self.num_worlds:
            raise PartitionError(f"world {world!r} is not in range({self.num_worlds})")
        return self.ranks[world]

    def compare(self, x: int, y: int) -> int:
        """Negative if x is strictly more plausible than y, 0 if tied."""
        return self.rank(x) - self.rank(y)

    def weakly_below(self, x: int, y: int) -> bool:
        return self.rank(x) <= self.rank(y)

    def strictly_below(self, x: int, y: int) -> bool:
        return self.rank(x) < self.rank(y)

    def min_mask(self, mask: int) -> int:
        """The most plausible worlds of ``mask``: its first non-empty
        intersection with a block; 0 iff ``mask`` is."""
        for block in self.masks:
            hit = block & mask
            if hit:
                return hit
        return 0

    def min_of(self, worlds: Iterable[int]) -> frozenset[int]:
        """The most plausible worlds among ``worlds``; empty iff input is."""
        return worlds_of(self.min_mask(mask_of(worlds, self.num_worlds)))

    def belief_worlds(self) -> frozenset[int]:
        """The bottom block: models of the outright beliefs."""
        return self.blocks[0]

    def believes(self, worlds: frozenset[int]) -> bool:
        """Whether the proposition ``worlds`` is believed outright."""
        return self.blocks[0] <= worlds

    def render(self, lang: Language) -> str:
        """Canonical text, e.g. ``[{10,01} < {11} < {00}]``."""
        if lang.num_worlds != self.num_worlds:
            raise PartitionError(
                f"language has {lang.num_worlds} worlds, preorder has {self.num_worlds}")
        parts = ["{" + ",".join(lang.names_of(mask)) + "}" for mask in self.masks]
        return "[" + " < ".join(parts) + "]"

    def __repr__(self) -> str:
        parts = ["{" + ",".join(str(w) for w in sorted(block)) + "}" for block in self.blocks]
        return "TPO[" + " < ".join(parts) + "]"


_new = object.__new__
# the slots' own setters, which ``__setattr__`` does not stand in front of
_set_masks = TPO.masks.__set__
_set_num_worlds = TPO.num_worlds.__set__


def comparison_symbol(diff: int) -> str:
    """The symbol of a rank difference such as ``t.compare(x, y)``: ``<``
    when x is strictly more plausible, ``>`` when y is, ``~`` when tied."""
    return "<" if diff < 0 else (">" if diff > 0 else "~")


def _items(data) -> list:
    """``data``, a JSON list; TypeError for any other value, since a string
    or an object would read as the list of its characters or keys."""
    if not isinstance(data, list):
        raise TypeError(f"expected a list, got {data!r}")
    return data


def read_worlds(names, lang: Language) -> frozenset[int]:
    """The worlds of ``lang`` that the list ``names`` names.

    TypeError for a value that is not a list (``_items``), LanguageError
    for a name that is not one of ``lang.world_names`` or that is listed
    twice.
    """
    worlds = frozenset(map(lang.world_from_name, _items(names)))
    if len(worlds) < len(names):
        twice = next(n for i, n in enumerate(names) if n in names[:i])
        raise LanguageError(f"world {twice!r} is listed twice in one block or input")
    return worlds


def read_order(blocks, lang: Language) -> TPO:
    """The order whose blocks, most plausible first, ``blocks`` lists by
    world name: each block is read by ``read_worlds``, and PartitionError
    is raised unless the blocks partition every world of ``lang``."""
    worlds = [read_worlds(block, lang) for block in _items(blocks)]
    placed = len(frozenset().union(*worlds))
    if placed != lang.num_worlds:
        raise PartitionError(f"the order places {placed} worlds, the language has "
                             f"{lang.num_worlds}")
    return TPO(worlds)


Profile = tuple[TPO, ...]


def validate_profile(profile: Sequence[TPO]) -> Profile:
    """Check a profile is non-empty and shares one set of worlds."""
    profile = tuple(profile)
    if not profile:
        raise PartitionError("a profile needs at least one preorder")
    width = profile[0].num_worlds
    for t in profile[1:]:
        if t.num_worlds != width:
            raise PartitionError("profile members must share the same worlds")
    return profile


def _check_conditional_width(num_worlds: int) -> None:
    if num_worlds > MAX_CONDITIONAL_WORLDS:
        raise SpaceError(f"conditional tables materialize all antecedents; "
                         f"supported up to {MAX_CONDITIONAL_WORLDS} worlds, got {num_worlds}")


class ConditionalSet:
    """The conditionals accepted by a TPO, or an intersection of such.

    The constructor's ``table`` maps every antecedent X (a frozenset of
    worlds) to the strongest accepted consequent, a subset of X; the pair
    (X, Y) is accepted exactly when ``table[X] <= Y``.  The empty
    antecedent thus maps to the empty set and accepts every consequent.
    The table is kept as a tuple indexed by antecedent mask, holding the
    consequent's mask.  The constructor raises ``PartitionError`` unless
    ``table`` holds each antecedent once, with a consequent inside it, and
    ``SpaceError`` above ``MAX_CONDITIONAL_WORLDS`` worlds.
    """

    def __init__(self, num_worlds: int, table: Mapping[frozenset[int], frozenset[int]]):
        _check_conditional_width(num_worlds)
        self.num_worlds = num_worlds
        masks = {mask_of(x, num_worlds): mask_of(y, num_worlds) for x, y in table.items()}
        if not len(table) == len(masks) == 1 << num_worlds:
            raise PartitionError(f"a conditional table needs one entry for each of the "
                                 f"{1 << num_worlds} antecedents, got {len(table)}")
        # the masks are distinct and below 1 << num_worlds, so they are all of them
        self._table = tuple(map(masks.__getitem__, range(1 << num_worlds)))
        if any(y & ~x for x, y in enumerate(self._table)):
            raise PartitionError("every consequent must lie inside its antecedent")

    @classmethod
    def _from_masks(cls, num_worlds: int, table: tuple[int, ...]) -> "ConditionalSet":
        c = object.__new__(cls)
        c.num_worlds = num_worlds
        c._table = table
        return c

    @classmethod
    def from_tpo(cls, t: TPO) -> "ConditionalSet":
        _check_conditional_width(t.num_worlds)
        return cls._from_masks(t.num_worlds, tuple(map(t.min_mask, range(1 << t.num_worlds))))

    def accepts(self, antecedent: frozenset[int], consequent: frozenset[int]) -> bool:
        n = self.num_worlds
        return not self._table[mask_of(antecedent, n)] & ~mask_of(consequent, n)

    def strongest(self, antecedent: frozenset[int]) -> frozenset[int]:
        return worlds_of(self._table[mask_of(antecedent, self.num_worlds)])

    def antecedents(self) -> Iterable[frozenset[int]]:
        """Every antecedent, in ascending mask order."""
        return list(map(worlds_of, range(len(self._table))))

    def intersect(self, other: "ConditionalSet") -> "ConditionalSet":
        """Conditionals accepted by both sides.

        (X, Y) is in the intersection iff Y covers both strongest
        consequents, so the table entries union pointwise.
        """
        if other.num_worlds != self.num_worlds:
            raise PartitionError("conditional sets must share the same worlds")
        return ConditionalSet._from_masks(
            self.num_worlds, tuple(map(or_, self._table, other._table)))

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, ConditionalSet)
                and self.num_worlds == other.num_worlds
                and self._table == other._table)

    def __hash__(self) -> int:
        return hash((self.num_worlds, self._table))

    def __repr__(self) -> str:
        return f"ConditionalSet({self.num_worlds} worlds, {len(self._table)} antecedents)"


def conditional_set(t: TPO) -> ConditionalSet:
    """The conditionals ``t`` accepts."""
    return ConditionalSet.from_tpo(t)


def intersect_conditionals(sets: Sequence[ConditionalSet]) -> ConditionalSet:
    if not sets:
        raise PartitionError("need at least one conditional set")
    result = sets[0]
    for other in sets[1:]:
        result = result.intersect(other)
    return result


def rational_closure(conditionals: ConditionalSet) -> TPO:
    """The least committal TPO supporting ``conditionals``.

    Level by level, collect the worlds that materially satisfy every
    conditional whose antecedent avoids all lower levels; a world x
    materially satisfies (X, Y) when x is outside X or inside Y.  Checking
    only the strongest consequent per antecedent suffices, so a level is
    what remains outside every live ``X - Y``.  The antecedents are read
    off the table as its indices.  If some round strands worlds that
    satisfy nothing, no TPO supports the input.  On the table of a TPO
    it returns that TPO.
    """
    n = conditionals.num_worlds
    # (antecedent, its worlds that break the conditional), for those with any
    live = [(x, x & ~y) for x, y in enumerate(conditionals._table) if x & ~y]
    remaining = (1 << n) - 1
    masks: list[int] = []
    while remaining:
        broken = 0
        for _, breaking in live:
            broken |= breaking
        level = remaining & ~broken
        if not level:
            raise UnsatisfiableConditionalsError(
                f"no total preorder supports these conditionals; "
                f"stuck on worlds {sorted(worlds_of(remaining))}")
        masks.append(level)
        remaining &= ~level
        live = [(x, breaking) for x, breaking in live if not x & level]
    return TPO._from_masks(tuple(masks), n)
