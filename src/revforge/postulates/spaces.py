"""Instance spaces: what the postulate checker quantifies over.

An instance space fixes a language (by atom count, with atoms named A,
B, C, ...; ``language`` reads it from ``logic.shared_language``, the
table scenario documents read too), a source of total preorders, a
family of input sets drawn from the consistent propositions of the
language, and the operator configuration under test, an
``OperatorConfig`` from ``parallel``.  Exhaustive spaces enumerate
everything and are confined to at most ``MAX_EXHAUSTIVE_ATOMS`` atoms,
where the 16 worlds-squared scale keeps full sweeps cheap; sampled
spaces draw seeded pseudo-random instances and must state their seed so
every report is reproducible.

Input-set families quantify over propositions up to semantic
equivalence: each member is a distinct non-empty set of worlds.  Pair
shapes draw both sets from the jointly-consistent family, because a set
whose own conjunction is inconsistent only ever yields undefined or
trivially-satisfied pair instances.  Streams yield propositions as
frozensets: exhaustive ones from ``all_propositions``, sampled ones by
drawing a mask and converting it with ``worlds_of``.  The samplers read
only ``rng.getrandbits`` and ``rng.random``, and make the draw that
``shuffle``, ``randrange`` and ``randint`` would make (``_randbelow``), so
a seed draws the stream it always drew.  The preorder and family
samplers, which every sampled sweep runs on every draw, repeat
``_randbelow``'s loop inline rather than call it per number.  A sampled
stream binds each part's sampler to the space and its generator once,
before the first draw: ``Part.sampler(space, rng)`` reads the world
count, the set size and the generator's methods and returns a draw, so
no draw reads a property of the space or goes through another call
layer.  ``random_tpo`` binds such a draw and makes it once.  A family
holds at most ``2^n - 1`` distinct members, so ``max_set_size`` may not
exceed that; the family sampler keeps its members in a dict, in the
order first drawn, so a repeat is found by one hashed lookup even in a
family of thousands.

A sampled stream depends only on ``(atoms, shape, seed, max_set_size)``,
not on the operators or the violation cap, and its instances are tuples
of immutable ``TPO`` objects and frozensets, so one module table,
``_drawn``, keeps a prefix of the stream per key for later readers.  A
reader whose count the kept prefix holds reads it.  Any other reader
draws for itself: from the generator's state kept with a prefix that is
full at the cap, or else from its own ``random.Random(seed)``, so every
reader gets what that generator draws.  When a reader that drew from
the seed ends, however it ends, it offers the table the complete
instances it drew, up to the cap, and the table keeps them if they are
longer than the prefix it holds.  Readers open at once, in one thread or
in several, share no draws, and a lock (``_lock``) guards only the
table, never a draw.  The lock is reentrant: a reader may hand its
prefix back from the collector, which can run in a thread that holds it.
A draw that raises fails only its own reader, and the instances drawn
before it stay kept; a later reader that needs more draws again from
the seed, so it meets the error again only if the error is the
stream's own.  The table keeps the 2 streams used last (``_STREAMS``).
Each keeps at most 8,192 instances (``_STREAM_CAP``) and at most 65,536
orders and propositions (``_MEMBER_CAP``), every value counted at the
most it can hold (``Part.most``), since a family may hold thousands of
sets: a ``cset`` stream at 4 atoms with a ``max_set_size`` of 1,000
keeps 65 instances.  Kept orders keep the ``world_masks`` that order
checks derive, so a later sweep pays for neither.
``random.Random(-s)`` draws ``random.Random(s)``'s stream, so a seed
must be at least 0.

``SHAPES`` is the one table of instance shapes.  It gives each shape
name its sequence of (payload key, ``Part``) pairs, and each part knows
how to enumerate, sample, encode and decode its value.  Exhaustive
streams are the product of the parts' values, sampled streams draw the
parts in order, and witnesses encode an instance part by part, so
``decode_instance`` inverts ``encode_instance`` by construction.  The
preorder and proposition parts read world names through ``tpo``'s
``read_order`` and ``read_worlds``, the readers scenario documents use.
Decoding rejects what no stream yields: an empty input or member, an
empty family or one that repeats a member, a ``pset`` or ``pset2``
family whose members share no world, and a profile of other than two
orders.  ``cset`` families may be inconsistent, as their streams are.
"""

from __future__ import annotations

import itertools
import random
import threading
from dataclasses import dataclass, field
from functools import cache
from typing import Callable, Iterator, Sequence

from ..errors import RevforgeError, SpaceError, lookup
from ..logic import Language, shared_language
from ..parallel import OperatorConfig
from ..tpo import TPO, _items, read_order, read_worlds, tpo, worlds_of

DEFAULT_SEED = 1729
MAX_EXHAUSTIVE_ATOMS = 2
MAX_ENUM_WORLDS = 8
_ATOM_POOL = ("A", "B", "C", "D")


def language(atoms: int) -> Language:
    """The language of the first ``atoms`` of the names A, B, C, D, from
    ``shared_language``'s table."""
    if not (type(atoms) is int and 1 <= atoms <= len(_ATOM_POOL)):
        raise SpaceError(f"spaces support 1..{len(_ATOM_POOL)} atoms, got {atoms!r}")
    return shared_language(_ATOM_POOL[:atoms])


def enumerate_tpos(num_worlds: int) -> Iterator[TPO]:
    """All total preorders over ``range(num_worlds)``, deterministically.

    Generated as ordered set partitions: every non-empty subset of the
    unplaced worlds (in ascending bitmask order) can be the next block.
    SpaceError, raised by the call itself, before any iteration, unless
    ``num_worlds`` is an int in 1..MAX_ENUM_WORLDS.
    """
    if type(num_worlds) is not int:
        raise SpaceError(f"the world count must be an int of at least 1, got {num_worlds!r}")
    if not 1 <= num_worlds <= MAX_ENUM_WORLDS:
        raise SpaceError(f"exhaustive enumeration supports 1..{MAX_ENUM_WORLDS} worlds")

    def partitions(unplaced: int) -> Iterator[tuple[int, ...]]:
        if not unplaced:
            yield ()
            return
        block = 0
        while True:
            # the next submask of ``unplaced`` in ascending order
            block = ((block | ~unplaced) + 1) & unplaced
            if not block:
                return
            for tail in partitions(unplaced & ~block):
                yield (block,) + tail

    return (tpo(masks, num_worlds) for masks in partitions((1 << num_worlds) - 1))


@cache
def all_propositions(num_worlds: int) -> tuple[frozenset[int], ...]:
    """Every consistent proposition, in ascending bitmask order: entry i
    is ``worlds_of(i + 1)``.  Built once per world count and shared."""
    return tuple(worlds_of(mask) for mask in range(1, 1 << num_worlds))


def formula_set_tuples(props: Sequence[frozenset[int]], max_size: int,
                       jointly_consistent: bool) -> Iterator[tuple[frozenset[int], ...]]:
    """Input sets of 1..max_size distinct propositions, in a stable order."""
    for size in range(1, max_size + 1):
        for combo in itertools.combinations(props, size):
            if jointly_consistent and not combo[0].intersection(*combo[1:]):
                continue
            yield combo


def _randbelow(getrandbits: Callable, n: int) -> int:
    """The draw ``rng.randrange(n)`` makes, for ``getrandbits = rng.getrandbits``:
    the first value of ``n.bit_length()`` bits that is below ``n``.  The
    samplers make this draw where they called ``shuffle``, ``randrange``
    and ``randint``, so a seed gives the stream it always gave."""
    bits = n.bit_length()
    r = getrandbits(bits)
    while r >= n:
        r = getrandbits(bits)
    return r


def _preorder_draw(rng: random.Random, num_worlds: int) -> Callable[[], TPO]:
    """``random_tpo(rng, num_worlds)`` as a draw bound to ``rng`` and
    ``num_worlds`` once: each call draws the next order."""
    if type(num_worlds) is not int or num_worlds < 1:
        raise SpaceError(f"the world count must be an int of at least 1, got {num_worlds!r}")
    # the world bits in order, and the (index, bit width) of each swap
    # ``rng.shuffle`` makes over ``num_worlds`` items, last index first
    bits = [1 << w for w in range(num_worlds)]
    swaps = tuple((i, (i + 1).bit_length()) for i in reversed(range(1, num_worlds)))
    getrandbits, random_ = rng.getrandbits, rng.random

    def draw() -> TPO:
        worlds = bits[:]
        for i, width in swaps:
            # _randbelow(getrandbits, i + 1), inline
            j = getrandbits(width)
            while j > i:
                j = getrandbits(width)
            worlds[i], worlds[j] = worlds[j], worlds[i]
        masks = []
        block = worlds[0]
        for world in worlds[1:]:
            if random_() < 0.5:
                masks.append(block)
                block = world
            else:
                block |= world
        masks.append(block)
        return tpo(tuple(masks), num_worlds)
    return draw


def random_tpo(rng: random.Random, num_worlds: int) -> TPO:
    """A seeded pseudo-random TPO; coverage-oriented, not uniform.

    The worlds are shuffled as ``rng.shuffle`` would shuffle them, then
    each later world starts a new block when ``rng.random() < 0.5``.
    SpaceError unless ``num_worlds`` is an int of at least 1.
    """
    return _preorder_draw(rng, num_worlds)()


def _proposition_draw(rng: random.Random, num_worlds: int) -> Callable[[], frozenset[int]]:
    """A draw of ``worlds_of(rng.randrange(1, 1 << num_worlds))``, bound once."""
    getrandbits, top = rng.getrandbits, (1 << num_worlds) - 1
    return lambda: worlds_of(_randbelow(getrandbits, top) + 1)


def _family_draw(rng: random.Random, num_worlds: int, max_size: int,
                 jointly_consistent: bool) -> Callable[[], tuple[frozenset[int], ...]]:
    """A draw, bound to its arguments once, of a family of
    ``rng.randint(1, max_size)`` draws of ``rng.randrange(1, 1 << num_worlds)``,
    repeats dropped; drawn again, up to 1000 times, while
    ``jointly_consistent`` and its conjunction is empty."""
    getrandbits, top = rng.getrandbits, (1 << num_worlds) - 1
    size_width = max_size.bit_length()

    def draw() -> tuple[frozenset[int], ...]:
        for _ in range(1000):
            # _randbelow(getrandbits, max_size) and _randbelow(getrandbits, top), inline
            size = getrandbits(size_width)
            while size >= max_size:
                size = getrandbits(size_width)
            # the members in the order first drawn: a dict, so a repeat is
            # found by a hashed lookup however large the family
            members: dict[int, None] = {}
            conjunction = top
            for _ in range(size + 1):
                mask = getrandbits(num_worlds)
                while mask >= top:
                    mask = getrandbits(num_worlds)
                mask += 1
                members[mask] = None
                conjunction &= mask
            if conjunction or not jointly_consistent:
                return tuple([worlds_of(mask) for mask in members])
        raise SpaceError("could not sample a jointly consistent input set")
    return draw


# --- the shape table ---

def _names(worlds, lang: Language) -> list[str]:
    return sorted(lang.world_name(w) for w in worlds)


@dataclass(frozen=True)
class Part:
    """One component of an instance.

    ``values(space)`` lists every value in exhaustive order,
    ``sampler(space, rng)`` binds a draw to the space and the generator,
    which returns the next value at each call, ``encode``/``decode``
    map a value to and from its JSON form, with worlds as atom bit-strings,
    and ``most(space)`` is the most orders and propositions a value holds.
    """

    values: Callable = field(repr=False)
    sampler: Callable = field(repr=False)
    encode: Callable = field(repr=False)
    decode: Callable = field(repr=False)
    most: Callable = field(default=lambda space: 1, repr=False)


_PREORDER = Part(
    lambda space: tuple(enumerate_tpos(space.num_worlds)),
    lambda space, rng: _preorder_draw(rng, space.num_worlds),
    lambda t, lang: [_names(block, lang) for block in t.blocks],
    read_order)


def _read_proposition(names, lang: Language) -> frozenset[int]:
    worlds = read_worlds(names, lang)
    if not worlds:
        raise SpaceError("an input or family member must hold at least one world")
    return worlds


_PROPOSITION = Part(
    lambda space: all_propositions(space.num_worlds),
    lambda space, rng: _proposition_draw(rng, space.num_worlds),
    _names, _read_proposition)


def _tuple_of(part: Part, values: Callable, sampler: Callable, check: Callable,
              most: Callable) -> Part:
    """A part whose value is a tuple of at most ``most(space)`` ``part``
    values; ``check(value, lang)`` raises SpaceError for a decoded tuple
    that no stream yields."""
    def decode(data, lang: Language) -> tuple:
        value = tuple(part.decode(x, lang) for x in _items(data))
        check(value, lang)
        return value

    return Part(values, sampler, lambda items, lang: [part.encode(x, lang) for x in items],
                decode, most)


def _check_family(family: tuple, lang: Language, jointly_consistent: bool) -> None:
    """The streams yield no empty family, repeat no member, and, where
    ``jointly_consistent``, yield only members that share a world."""
    if not family:
        raise SpaceError("a family needs at least one member")
    for i, member in enumerate(family):
        if member in family[:i]:
            raise SpaceError(f"a family lists the member {_names(member, lang)} twice")
    if jointly_consistent and not family[0].intersection(*family[1:]):
        raise SpaceError("the members of a jointly consistent family share no world")


def _family(jointly_consistent: bool) -> Part:
    return _tuple_of(
        _PROPOSITION,
        lambda space: tuple(formula_set_tuples(all_propositions(space.num_worlds),
                                               space.max_set_size, jointly_consistent)),
        lambda space, rng: _family_draw(rng, space.num_worlds, space.max_set_size,
                                        jointly_consistent),
        lambda family, lang: _check_family(family, lang, jointly_consistent),
        lambda space: space.max_set_size)


def _check_profile(profile: tuple, lang: Language) -> None:
    if len(profile) != 2:
        raise SpaceError(f"a profile must hold 2 orders, this one holds {len(profile)}")


def _pair_draw(draw: Callable) -> Callable[[], tuple]:
    """Two calls of ``draw``, in order, as one draw."""
    return lambda: (draw(), draw())


_CONSISTENT_FAMILY = _family(True)
_PROFILE = _tuple_of(
    _PREORDER,
    lambda space: tuple(itertools.product(_PREORDER.values(space), repeat=2)),
    lambda space, rng: _pair_draw(_PREORDER.sampler(space, rng)),
    _check_profile,
    lambda space: 2)

SHAPES: dict[str, tuple[tuple[str, Part], ...]] = {
    "serial": (("tpo", _PREORDER), ("input", _PROPOSITION)),
    "sercon": (("tpo", _PREORDER), ("input", _PROPOSITION)),
    "serial2": (("tpo", _PREORDER), ("input", _PROPOSITION), ("input2", _PROPOSITION)),
    "pset": (("tpo", _PREORDER), ("inputs", _CONSISTENT_FAMILY)),
    "cset": (("tpo", _PREORDER), ("inputs", _family(False))),
    "pset2": (("tpo", _PREORDER), ("inputs", _CONSISTENT_FAMILY),
              ("inputs2", _CONSISTENT_FAMILY)),
    "profile2": (("profile", _PROFILE),),
}


def _parts(shape: str) -> tuple[tuple[str, Part], ...]:
    return lookup(SHAPES, shape, "instance shape", SpaceError)


def encode_instance(shape: str, instance: tuple, lang: Language) -> dict:
    """The JSON payload of ``instance``, one key per part."""
    return {key: part.encode(value, lang)
            for (key, part), value in zip(_parts(shape), instance)}


def decode_instance(shape: str, payload: dict, lang: Language) -> tuple:
    """The instance ``encode_instance`` made ``payload`` from.

    A payload that is not an object holding every key of the shape, that
    holds a value of another JSON type than the shape's (a string or an
    object where a list belongs included), that names something other than
    a world of ``lang``, that holds a preorder that does not partition the
    worlds of ``lang``, or that holds a value no stream yields (see the
    module docstring), raises ``SpaceError``: the readers'
    ``LanguageError`` and ``PartitionError`` are raised as it.
    """
    parts = _parts(shape)
    missing = [key for key, _ in parts if not isinstance(payload, dict) or key not in payload]
    if missing:
        raise SpaceError(f"a {shape!r} instance needs the keys {missing}")
    try:
        return tuple(part.decode(payload[key], lang) for key, part in parts)
    except TypeError as exc:
        raise SpaceError(f"a {shape!r} instance holds a value of the wrong type: {exc}") from None
    except RevforgeError as exc:
        raise SpaceError(str(exc)) from None


# --- the kept sampled streams ---

# streams kept, the ones used last; instances kept per stream; and orders
# and propositions kept per stream, each value counted at ``Part.most``
_STREAMS = 2
_STREAM_CAP = 8192
_MEMBER_CAP = 1 << 16
# the kept streams by key, least recently used first: the instances kept
# and, for a prefix full at the cap, the generator's state there.  _lock
# guards the table, not the draws; it is reentrant because a reader hands
# its prefix back from a ``finally`` that the collector may run while
# this thread holds the lock
_drawn: dict[tuple, tuple[list[tuple], tuple | None]] = {}
_lock = threading.RLock()


def _keep(key: tuple, entry: tuple) -> None:
    """Make ``entry`` the table's entry for ``key``, used last, and drop
    the streams used least recently past ``_STREAMS``; call it holding
    ``_lock``."""
    _drawn.pop(key, None)
    _drawn[key] = entry
    while len(_drawn) > _STREAMS:
        del _drawn[next(iter(_drawn))]


def _read(key: tuple, space: InstanceSpace, parts: list[Part]) -> Iterator[tuple]:
    """The first ``space.sample_count`` instances of the stream of ``key``.

    A count the kept prefix holds is read from it.  Otherwise the reader
    draws for itself: on from the generator's state kept with a prefix
    full at the cap, else from the seed.  What it drew from the seed, up
    to the cap, it offers the table when it ends, however it ends."""
    count = space.sample_count
    with _lock:
        kept, state = entry = _drawn.get(key, ([], None))
        _keep(key, entry)
    if count <= len(kept):
        yield from itertools.islice(kept, count)
        return
    rng = random.Random(space.seed)
    if state is None:
        cap = min(_STREAM_CAP, _MEMBER_CAP // sum(part.most(space) for part in parts))
    else:
        rng.setstate(state)
        yield from kept
        count, cap = count - len(kept), 0
    draws = [part.sampler(space, rng) for part in parts]
    fresh = (tuple([draw() for draw in draws]) for _ in range(count))
    drawn: list[tuple] = []
    try:
        for instance in itertools.islice(fresh, cap):
            drawn.append(instance)
            yield instance
        if len(drawn) == cap:
            state = rng.getstate()
        yield from fresh
    finally:
        with _lock:
            if len(drawn) > len(_drawn.get(key, ([], None))[0]):
                _keep(key, (drawn, state))


@dataclass
class InstanceSpace:
    """A quantification domain for postulate checks."""

    atoms: int = 2
    mode: str = "exhaustive"
    sample_count: int = 0
    seed: int | None = None
    max_set_size: int = 2
    operators: OperatorConfig = field(default_factory=OperatorConfig)
    violation_cap: int = 10

    def __post_init__(self):
        for name in ("atoms", "sample_count", "max_set_size", "violation_cap"):
            if type(getattr(self, name)) is not int:
                raise SpaceError(f"{name} must be an int, got {getattr(self, name)!r}")
        if self.seed is not None and type(self.seed) is not int:
            raise SpaceError(f"seed must be an int or None, got {self.seed!r}")
        if self.seed is not None and self.seed < 0:
            raise SpaceError(f"seed must be at least 0, got {self.seed}")
        if self.mode not in ("exhaustive", "sampled"):
            raise SpaceError(f"unknown space mode {self.mode!r}")
        if self.mode == "exhaustive":
            if not 1 <= self.atoms <= MAX_EXHAUSTIVE_ATOMS:
                raise SpaceError(f"exhaustive spaces support 1..{MAX_EXHAUSTIVE_ATOMS} atoms only")
            # the report would echo a seed, and a count, that drew nothing
            if self.seed is not None or self.sample_count:
                raise SpaceError(f"exhaustive spaces draw nothing, so they take no seed or "
                                 f"sample_count; got seed={self.seed!r}, "
                                 f"sample_count={self.sample_count!r}")
        else:
            if not 1 <= self.atoms <= len(_ATOM_POOL):
                raise SpaceError(f"sampled spaces support 1..{len(_ATOM_POOL)} atoms")
            if self.sample_count < 1:
                raise SpaceError("sampled spaces need sample_count >= 1")
            if self.seed is None:
                raise SpaceError("sampled spaces need an explicit seed for reproducibility")
        if self.max_set_size < 1:
            raise SpaceError("max_set_size must be at least 1")
        if not isinstance(self.operators, OperatorConfig):
            raise SpaceError(f"operators must be an OperatorConfig, got {self.operators!r}")
        propositions = (1 << self.num_worlds) - 1
        if self.max_set_size > propositions:
            raise SpaceError(f"max_set_size must be at most {propositions}, the number of "
                             f"consistent propositions, got {self.max_set_size}")
        if self.violation_cap < 0:
            raise SpaceError("violation_cap must be at least 0")

    @property
    def lang(self) -> Language:
        return language(self.atoms)

    @property
    def num_worlds(self) -> int:
        return 1 << self.atoms

    def describe(self) -> dict:
        info: dict = {"atoms": self.atoms, "mode": self.mode, "max_set_size": self.max_set_size}
        if self.mode == "sampled":
            info["sample_count"] = self.sample_count
        info["operators"] = self.operators.describe()
        return info

    def instances(self, shape: str) -> Iterator[tuple]:
        """The instance stream for the shape named ``shape``; a sampled
        space reads it through the table of kept streams."""
        parts = [part for _, part in _parts(shape)]
        if self.mode == "exhaustive":
            return itertools.product(*(part.values(self) for part in parts))
        return _read((self.atoms, shape, self.seed, self.max_set_size), self, parts)
