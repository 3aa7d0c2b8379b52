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
the two per-world tables, of the worlds strictly and weakly more
plausible than each world, over which a comparison of two orders is one
mask expression per world rather than one test per pair.  Every order
check of the catalog finds its pairs in these two tables, on every
sampled draw, so the lookup that fills a derived field tests it first,
and reads the worlds of a block below 256 from ``logic``'s byte table.
Equality and the hash use the masks.  The hash too is computed on first
use and then kept, so an order that never becomes a key, as almost none
does in a sampled sweep, never pays for it.

Each check on outside input, and each rule about worlds and blocks, is
stated once, here, and applied where the input enters:

* An order has two builders.  ``TPO(blocks)`` is the checked one, for
  blocks from outside; it and ``read_order``, the reader of world
  names, share one block check, ``_disjoint``, which rejects the first
  block that is empty or overlaps an earlier one, in the same words for
  both.  ``tpo(masks, num_worlds)`` is the trusted one,
  for orders the package builds and knows to be valid: the serial
  kernels, aggregation, ``from_ranks``, ``uniform``,
  ``rational_closure`` and the spaces' enumerator and sampler.  It
  refuses only an empty tuple of blocks and sets only ``masks`` and
  ``num_worlds``.
* ``mask_of`` is the one reader of a set of worlds: ``min_of``, the
  serial operators' ``revise``/``contract`` and the pipeline's world-set
  entries convert with it, and it raises ``PartitionError`` for a world
  outside ``range(num_worlds)``.  ``rank`` and the comparisons check
  their worlds the same way; code that walks an order's own worlds reads
  ``ranks`` instead, which lists each block's worlds with
  ``logic.ascending_worlds``, as ``Language.names_of`` does.
* ``check_language`` is the one width rule: a formula meets an order
  only when its language has exactly the order's worlds, and any other
  width raises ``PartitionError``.  ``render`` and the formula entries of
  the serial and parallel operators call it, after which a formula's
  ``model_mask`` names only worlds of the order.

Outside the package, in scenario documents and witness payloads, a set
of worlds is a JSON list of world names and an order is a list of such
lists, most plausible first.  ``read_worlds`` and ``read_order`` are the
one reader of that format, and it reads names straight into masks
through the language's name index: TypeError for a value that is not a
list, ``LanguageError`` for a name that is not a world of the language
or is listed twice, and ``PartitionError`` for blocks that do not
partition every world of the language.  Each caller wraps these in its
own error.  Going out, world names come only from ``Language.names_of``
over a mask: ``render``, witness payloads and scenario traces alike.

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

from functools import reduce
from operator import or_
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import LanguageError, PartitionError, SpaceError, UnsatisfiableConditionalsError
from .logic import _LOW_BYTE, Language, ascending_worlds, worlds_of

MAX_CONDITIONAL_WORLDS = 8

_set = object.__setattr__


def check_language(lang: Language, num_worlds: int) -> None:
    """PartitionError unless ``lang`` has exactly the worlds of an order
    over ``num_worlds``: a formula's models are worlds of its own language,
    and read against an order of another width they would name other
    worlds, or worlds the order does not have."""
    if lang.num_worlds != num_worlds:
        raise PartitionError(f"language has {lang.num_worlds} worlds, preorder has {num_worlds}")


def mask_of(worlds: Iterable[int], num_worlds: int) -> int:
    """``worlds`` as a mask; PartitionError unless all lie in ``range(num_worlds)``."""
    mask = 0
    for world in worlds:
        try:
            mask |= 1 << world
        except (TypeError, ValueError):
            raise PartitionError(f"world {world!r} is not in range({num_worlds})") from None
    if mask >> num_worlds:
        outside = sorted(worlds_of(mask >> num_worlds << num_worlds))
        raise PartitionError(f"worlds {outside} are not in range({num_worlds})")
    return mask


class TPO:
    """An ordered partition of ``range(num_worlds)``; block 0 is lowest.

    ``masks[i]`` is block i as a world mask.  ``blocks`` (frozensets),
    ``ranks`` (1-based block index per world) and ``world_masks`` are
    derived on first use.  ``world_masks`` is the pair ``(below, weak)``
    of per-world tuples: ``below[w]`` masks the worlds strictly more
    plausible than w and ``weak[w]`` the worlds at least as plausible as
    w, w's own block included, so y is tied with w exactly when it is in
    ``weak[w]`` but not ``below[w]``, and strictly less plausible than w
    exactly when it is in neither.
    Equality and hashing look at ``masks`` only; the hash, ``hash(masks)``,
    is computed on first use and kept, like the derived fields.
    Instances are immutable.

    ``TPO(blocks)`` reads its blocks in order.  Each block's mask comes
    from ``mask_of`` over ``range(count)``, ``count`` being the number of
    worlds the blocks list, and a world outside it raises
    ``PartitionError`` in words of its own ("blocks must cover
    range(count) exactly").  Then ``_disjoint`` checks that mask against
    the earlier ones, so the first fault in block order is the one
    reported.  Disjoint blocks of ``count`` worlds inside
    ``range(count)`` cover it.  Blocks that are not an iterable of
    iterables of worlds, such as ``5`` or ``[5]``, raise
    ``PartitionError`` naming the value.
    """

    __slots__ = ("masks", "num_worlds", "blocks", "ranks", "world_masks", "_hash")

    def __init__(self, blocks: Iterable[Iterable[int]]):
        try:
            blocks = tuple(frozenset(b) for b in blocks)
        except TypeError:
            raise PartitionError(f"TPO takes an iterable of blocks of worlds, got {blocks!r}") from None
        if not blocks:
            raise PartitionError("a total preorder needs at least one block")
        count = sum(map(len, blocks))
        _set_masks(self, tuple(_disjoint(_in_range(blocks, count))))
        _set_num_worlds(self, count)
        _set(self, "blocks", blocks)

    def __getattr__(self, name: str):
        # fills the derived slots on first use; order checks read
        # ``world_masks`` on every draw, so it is tested first
        if name == "world_masks":
            below, weak = [0] * self.num_worlds, [0] * self.num_worlds
            lower = 0
            for mask in self.masks:
                for world in _LOW_BYTE[mask] if mask < 256 else ascending_worlds(mask):
                    below[world], weak[world] = lower, lower | mask
                lower |= mask
            value = (tuple(below), tuple(weak))
        elif name == "_hash":
            value = hash(self.masks)
        elif name == "blocks":
            value = tuple(worlds_of(mask) for mask in self.masks)
        elif name == "ranks":
            ranks = [0] * self.num_worlds
            for depth, mask in enumerate(self.masks, start=1):
                for world in ascending_worlds(mask):
                    ranks[world] = depth
            value = tuple(ranks)
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
    def uniform(cls, num_worlds: int) -> "TPO":
        """The single-block preorder: every world equally plausible.
        PartitionError unless ``num_worlds`` is an int of at least 1."""
        if type(num_worlds) is not int or num_worlds < 1:
            raise PartitionError(
                f"a total preorder needs an int world count of at least 1, got {num_worlds!r}")
        return tpo(((1 << num_worlds) - 1,), num_worlds)

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "TPO":
        """Build from any per-world keys; equal keys share a block."""
        index = {level: i for i, level in enumerate(sorted(set(ranks)))}
        masks = [0] * len(index)
        for world, level in enumerate(ranks):
            masks[index[level]] |= 1 << world
        return tpo(tuple(masks), len(ranks))

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
        check_language(lang, self.num_worlds)
        parts = ["{" + ",".join(lang.names_of(mask)) + "}" for mask in self.masks]
        return "[" + " < ".join(parts) + "]"

    def __repr__(self) -> str:
        parts = ["{" + ",".join(str(w) for w in sorted(block)) + "}" for block in self.blocks]
        return "TPO[" + " < ".join(parts) + "]"


_new = object.__new__
# the slots' own setters, which ``__setattr__`` does not stand in front of
_set_masks = TPO.masks.__set__
_set_num_worlds = TPO.num_worlds.__set__


def tpo(masks: tuple[int, ...], num_worlds: int) -> TPO:
    """The order with block masks ``masks``, which must partition
    ``range(num_worlds)``; only emptiness is checked.  The one trusted
    builder: every builder of orders known to be valid calls it.  It
    writes the two slots through their own setters and leaves the hash
    and the derived fields for first use."""
    if not masks:
        raise PartitionError("a total preorder needs at least one block")
    t = _new(TPO)
    _set_masks(t, masks)
    _set_num_worlds(t, num_worlds)
    return t


def _in_range(blocks: tuple[frozenset, ...], count: int) -> Iterator[int]:
    """The mask of each block, read by ``mask_of`` when the next one is
    asked for; PartitionError for a world outside ``range(count)``, in
    the words of ``TPO(blocks)``."""
    for block in blocks:
        try:
            mask = mask_of(block, count)
        except PartitionError as exc:
            raise PartitionError(f"blocks must cover range({count}) exactly: {exc}") from None
        yield mask


def _disjoint(masks: Iterable[int]) -> Iterator[int]:
    """Each of ``masks`` in turn; PartitionError for the first that is
    empty or overlaps an earlier one.  The one block check of both
    checked readers, ``TPO(blocks)`` and ``read_order``.  It asks for
    the masks one at a time, so a fault that an iterator raises for a
    later mask comes after these faults of the earlier ones."""
    seen = 0
    for mask in masks:
        if not mask:
            raise PartitionError("blocks must be non-empty")
        if mask & seen:
            raise PartitionError(f"blocks overlap on {sorted(worlds_of(mask & seen))}")
        seen |= mask
        yield mask


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


def _read_masks(blocks, lang: Language) -> list[int]:
    """The mask of each list of world names in ``blocks``, read through
    the language's name index.

    TypeError for a value that is not a list (``_items``), LanguageError
    for a name that is not one of ``lang.world_names`` or that is listed
    twice in its list.
    """
    index = lang._worlds_by_name
    masks = []
    for names in map(_items, blocks):
        mask = 0
        try:
            for name in names:
                mask |= 1 << index[name]
        except (KeyError, TypeError):
            lang.world_from_name(name)  # raises the LanguageError that names it
        if mask.bit_count() < len(names):
            twice = next(n for i, n in enumerate(names) if n in names[:i])
            raise LanguageError(f"world {twice!r} is listed twice in one block or input")
        masks.append(mask)
    return masks


def read_worlds(names, lang: Language) -> frozenset[int]:
    """The worlds of ``lang`` that the list ``names`` names, read as
    ``_read_masks`` reads a block."""
    return worlds_of(_read_masks((names,), lang)[0])


def read_order(blocks, lang: Language) -> TPO:
    """The order whose blocks, most plausible first, ``blocks`` lists by
    world name.

    The blocks are read straight into masks by ``_read_masks``.  Then
    PartitionError is raised unless they place every world of ``lang``,
    and after that ``_disjoint``, the block check of ``TPO(blocks)``,
    raises it for the first block that is empty or overlaps an earlier
    one.  The order is built by the trusted ``tpo``.
    """
    masks = _read_masks(_items(blocks), lang)
    placed = reduce(or_, masks, 0).bit_count()
    if placed != lang.num_worlds:
        raise PartitionError(f"the order places {placed} worlds, the language has "
                             f"{lang.num_worlds}")
    return tpo(tuple(_disjoint(masks)), lang.num_worlds)


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
    """The conditionals ``t`` accepts: the table ``t.min_mask`` over every
    mask.  PartitionError for a value that is not a ``TPO``."""
    if not isinstance(t, TPO):
        raise PartitionError(f"conditional_set takes a TPO, got {t!r}")
    _check_conditional_width(t.num_worlds)
    return ConditionalSet._from_masks(t.num_worlds,
                                      tuple(map(t.min_mask, range(1 << t.num_worlds))))


def intersect_conditionals(sets: Sequence[ConditionalSet]) -> ConditionalSet:
    """The conditionals every member of ``sets`` accepts.  PartitionError
    unless ``sets`` holds one or more ``ConditionalSet``s.  ``sets`` is
    read once, so an iterator gives what the list of its members gives."""
    members = tuple(sets) if isinstance(sets, Iterable) else ()
    if not members or not all(isinstance(c, ConditionalSet) for c in members):
        raise PartitionError(f"need one or more ConditionalSets, got {sets!r}")
    return reduce(ConditionalSet.intersect, members)


def rational_closure(conditionals: ConditionalSet) -> TPO:
    """The least committal TPO supporting ``conditionals``.

    Level by level, collect the worlds that materially satisfy every
    conditional whose antecedent avoids all lower levels; a world x
    materially satisfies (X, Y) when x is outside X or inside Y.  Checking
    only the strongest consequent per antecedent suffices, so a level is
    what remains outside every live ``X - Y``.  The antecedents are read
    off the table as its indices.  If some round strands worlds that
    satisfy nothing, no TPO supports the input.  On the table of a TPO
    it returns that TPO.  PartitionError for a value that is not a
    ``ConditionalSet``.
    """
    if not isinstance(conditionals, ConditionalSet):
        raise PartitionError(f"rational_closure takes a ConditionalSet, got {conditionals!r}")
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
    return tpo(tuple(masks), n)
