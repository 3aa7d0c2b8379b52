"""The frozenset code that the bitmask code replaced, kept as a test oracle.

This is the earlier implementation of ``TPO``, the serial operators,
TeamQueue aggregation, conditional tables and rational closure, which
stored every world set as a frozenset and re-validated every order it
built, and of the catalog evaluators that rebuilt their families,
negations, conjunctions and follow-up revisions as frozensets on every
instance (S-star, P-star, GR-star, C-star-3-b, C-star-4-b, PC3-b and
PC4-b).  ``test_core_differential.py`` checks
that the shipped code computes the same orders, hits and verdicts on
every exhaustive two-atom instance, and the same orders on a seeded
three-atom sample.

It also keeps the frozenset route of formulas and scenario runs:
``models`` by set algebra, and a scenario run that steps through
``revise_worlds``/``contract_worlds`` and the serial ``revise``/
``contract``, answers queries on frozensets and names worlds one by one.
``test_mask_differential.py`` checks ``model_mask`` and ``run_scenario``
against them.  Beside them sit the three walkers over formula trees that
one fold replaced, ``atoms_of``, ``format_formula`` and ``model_mask``,
each dispatching on node kinds itself; ``test_fold_differential.py``
checks the fold's versions against them.

It keeps ``catalog._pair_plan`` as it read with five fields, building
the mixed family that only P-star and S-star read;
``test_core_differential.py`` checks the two-family plans that replaced
it against it.

Last, it keeps the order checks as the pair loops they were (the
catalog's order helpers, PC3 and PC4), the profile entries (UB, LB,
Factoring, SPU, WPU and Parity) over world sets, and the sampled stream
as it was drawn through ``shuffle``, ``randrange`` and ``randint``;
``test_kernel_differential.py`` checks the mask checks and the inlined
samplers against them, and ``test_core_differential.py`` the profile
entries.  Nothing outside the tests imports it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import reduce
from itertools import combinations, permutations
from operator import and_, or_
from typing import Iterable, Mapping, Sequence

from revforge.aggregation import SelectionStrategy
from revforge.errors import (FormulaError, InconsistentInputError, PartitionError,
                             UnsatisfiableConditionalsError)
from revforge.logic import And, Atom, Falsum, Iff, Implies, Not, Or, Verum, parse_formula


@dataclass(frozen=True)
class TPO:
    """An ordered partition of ``range(num_worlds)``; block 0 is lowest."""

    blocks: tuple[frozenset[int], ...]

    def __post_init__(self):
        if not self.blocks:
            raise PartitionError("a total preorder needs at least one block")
        blocks = tuple(frozenset(b) for b in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        count = 0
        seen: set[int] = set()
        for block in blocks:
            if not block:
                raise PartitionError("blocks must be non-empty")
            if block & seen:
                raise PartitionError(f"blocks overlap on {sorted(block & seen)}")
            seen |= block
            count += len(block)
        if seen != set(range(count)):
            raise PartitionError(f"blocks must cover range({count}) exactly, got {sorted(seen)}")
        ranks = [0] * count
        for depth, block in enumerate(blocks, start=1):
            for world in block:
                ranks[world] = depth
        object.__setattr__(self, "_ranks", tuple(ranks))

    @classmethod
    def from_ranks(cls, ranks: Sequence[int]) -> "TPO":
        """Build from any per-world keys; equal keys share a block."""
        levels = sorted(set(ranks))
        return cls(tuple(frozenset(w for w, r in enumerate(ranks) if r == level) for level in levels))

    @property
    def num_worlds(self) -> int:
        return len(self._ranks)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def rank(self, world: int) -> int:
        """1-based block index of ``world``; smaller is more plausible."""
        return self._ranks[world]

    def compare(self, x: int, y: int) -> int:
        """Negative if x is strictly more plausible than y, 0 if tied."""
        return self._ranks[x] - self._ranks[y]

    def weakly_below(self, x: int, y: int) -> bool:
        return self._ranks[x] <= self._ranks[y]

    def strictly_below(self, x: int, y: int) -> bool:
        return self._ranks[x] < self._ranks[y]

    def min_of(self, worlds: Iterable[int]) -> frozenset[int]:
        """The most plausible worlds among ``worlds``; empty iff input is."""
        best_rank = 0
        best: list[int] = []
        ranks = self._ranks
        for world in worlds:
            rank = ranks[world]
            if not best or rank < best_rank:
                best_rank = rank
                best = [world]
            elif rank == best_rank:
                best.append(world)
        return frozenset(best)

    def belief_worlds(self) -> frozenset[int]:
        """The bottom block: models of the outright beliefs."""
        return self.blocks[0]


def validate_profile(profile: Sequence[TPO]) -> tuple[TPO, ...]:
    profile = tuple(profile)
    if not profile:
        raise PartitionError("a profile needs at least one preorder")
    width = profile[0].num_worlds
    for t in profile[1:]:
        if t.num_worlds != width:
            raise PartitionError("profile members must share the same worlds")
    return profile


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


REVISIONS = {"natural": natural_revise, "lex": lex_revise, "restrained": restrained_revise}


@dataclass(frozen=True)
class Aggregator:
    strategy: SelectionStrategy

    def aggregate(self, profile: Sequence[TPO]) -> TPO:
        """Run the round-by-round team construction over ``profile``."""
        profile = validate_profile(profile)
        n = len(profile)
        remaining = set(range(profile[0].num_worlds))
        blocks: list[frozenset[int]] = []
        round_no = 0
        while remaining:
            round_no += 1
            team = self.strategy.team(n, round_no)
            if not team or not team <= frozenset(range(n)):
                raise PartitionError(
                    f"strategy {self.strategy.name!r} selected invalid team {sorted(team)} "
                    f"at round {round_no} for a profile of size {n}")
            block: frozenset[int] = frozenset()
            for j in team:
                block |= profile[j].min_of(remaining)
            if not block:
                continue
            blocks.append(block)
            remaining -= block
        return TPO(tuple(blocks))


class ConditionalSet:
    """Antecedent -> strongest accepted consequent, as frozensets."""

    def __init__(self, num_worlds: int, table: Mapping[frozenset[int], frozenset[int]]):
        self.num_worlds = num_worlds
        self._table = dict(table)

    @classmethod
    def from_tpo(cls, t: TPO) -> "ConditionalSet":
        n = t.num_worlds
        table = {}
        for mask in range(1 << n):
            antecedent = frozenset(w for w in range(n) if (mask >> w) & 1)
            table[antecedent] = t.min_of(antecedent)
        return cls(n, table)

    def strongest(self, antecedent: frozenset[int]) -> frozenset[int]:
        return self._table[frozenset(antecedent)]

    def antecedents(self) -> Iterable[frozenset[int]]:
        return self._table.keys()

    def intersect(self, other: "ConditionalSet") -> "ConditionalSet":
        return ConditionalSet(
            self.num_worlds,
            {x: self._table[x] | other._table[x] for x in self._table})


def rational_closure(conditionals: ConditionalSet) -> TPO:
    """The least committal TPO supporting ``conditionals``.

    Level by level, collect the worlds that materially satisfy every
    conditional whose antecedent avoids all lower levels; a world x
    materially satisfies (X, Y) when x is outside X or inside Y.  Checking
    only the strongest consequent per antecedent suffices.  If some round
    strands worlds that satisfy nothing, no TPO supports the input.
    """
    n = conditionals.num_worlds
    by_world: list[list[tuple[frozenset[int], frozenset[int]]]] = [[] for _ in range(n)]
    for antecedent in conditionals.antecedents():
        consequent = conditionals.strongest(antecedent)
        for world in antecedent:
            by_world[world].append((antecedent, consequent))
    remaining = set(range(n))
    settled: set[int] = set()
    blocks: list[frozenset[int]] = []
    while remaining:
        level = frozenset(
            world for world in remaining
            if all(world in consequent
                   for antecedent, consequent in by_world[world]
                   if not (antecedent & settled)))
        if not level:
            raise UnsatisfiableConditionalsError(
                f"no total preorder supports these conditionals; stuck on worlds {sorted(remaining)}")
        blocks.append(level)
        settled |= level
        remaining -= level
    return TPO(tuple(blocks))


# --- catalog evaluators on frozensets ---
#
# These take the same (ctx, t, ...) arguments as the shipped entries and
# drive the same ``ctx.previse``, so a difference can only come from the
# evaluators' own set algebra.

def _merge(s1, s2) -> tuple:
    merged = list(s1)
    for member in s2:
        if member not in merged:
            merged.append(member)
    return tuple(merged)


def gr_star(ctx, t, s):
    negations = tuple(ctx.full - member for member in s)
    if not ctx.full.intersection(*negations):
        return None
    target = ctx.full.intersection(*s)
    after = ctx.previse(t, negations).min_of(target)
    before = t.min_of(target)
    if after != before:
        return [{"before": before, "after": after}]
    return []


def s_star(ctx, t, s1, s2):
    negations = tuple(ctx.full - member for member in s2)
    mixed = _merge(s1, negations)
    if not ctx.full.intersection(*mixed):
        return None
    target = ctx.full.intersection(*_merge(s1, s2))
    before = t.min_of(target)
    after = ctx.previse(t, mixed).min_of(target)
    if before != after:
        return [{"before": before, "after": after}]
    return []


def p_star(ctx, t, s1, s2):
    joint = ctx.full.intersection(*_merge(s1, s2))
    if not joint:
        return []
    negations = tuple(ctx.full - member for member in s2)
    mixed = _merge(s1, negations)
    if not ctx.full.intersection(*mixed):
        return None
    best = ctx.previse(t, mixed).min_of(ctx.full.intersection(*s2))
    first = ctx.full.intersection(*s1)
    if not best <= first:
        return [{"best_of_second": best, "first_conjunction": first}]
    return []


def _follow_up(ctx, t, x):
    return ctx.previse(t, (x,)).belief_worlds()


def cs3_b(ctx, t, s):
    t2 = ctx.previse(t, s)
    target = ctx.full.intersection(*s)
    for x in ctx.props:
        if _follow_up(ctx, t, x) <= target and not _follow_up(ctx, t2, x) <= target:
            return False
    return True


def cs4_b(ctx, t, s):
    t2 = ctx.previse(t, s)
    target = ctx.full.intersection(*s)
    for x in ctx.props:
        if _follow_up(ctx, t, x) & target and not _follow_up(ctx, t2, x) & target:
            return False
    return True


def _subset_beliefs(ctx, t, s, x):
    for size in range(len(s) + 1):
        for group in combinations(range(len(s)), size):
            members = tuple(s[i] for i in group)
            merged = _merge(members, (x,))
            if ctx.full.intersection(*merged):
                yield ctx.previse(t, merged).belief_worlds()


def pc3_b(ctx, t, s):
    t2 = ctx.previse(t, s)
    for x in ctx.props:
        support = frozenset()
        for beliefs in _subset_beliefs(ctx, t, s, x):
            support |= beliefs
        if not _follow_up(ctx, t2, x) <= support:
            return False
    return True


def pc4_b(ctx, t, s):
    t2 = ctx.previse(t, s)
    for x in ctx.props:
        two_step = _follow_up(ctx, t2, x)
        if not any(beliefs <= two_step for beliefs in _subset_beliefs(ctx, t, s, x)):
            return False
    return True


# --- the two-family plan with the mixed family in it ---
#
# ``catalog._pair_plan`` as it read while it built the mixed family for
# every ``pset2`` and ``serial2`` plan, before that family got a plan of
# its own.  It takes the families as the streams yield them and masks
# each member itself.

def pair_plan(full: int, s1, s2) -> tuple:
    """``(masks, merged, mixed, first, second)``: the member masks of s1,
    the union family of s1 and s2, s1 joined with the negations of s2's
    members (None when that family is inconsistent), and the conjunction
    masks of s1 and of s2."""
    masks = tuple(sum(1 << w for w in member) for member in s1)
    masks2 = tuple(sum(1 << w for w in member) for member in s2)
    first = reduce(and_, masks, full)
    second = reduce(and_, masks2, full)
    refuting = full & ~reduce(or_, masks2, 0)
    mixed = _merge(masks, [full ^ m for m in masks2]) if first & refuting else None
    return masks, _merge(masks, masks2), mixed, first, second


# --- order checks by pair enumeration ---
#
# The pair loops the catalog's order helpers and PC3/PC4 ran on every
# instance before they tested each world with one mask expression.  They
# take shipped orders and read them through ``rank`` alone.

def _sym(diff: int) -> str:
    return "<" if diff < 0 else (">" if diff > 0 else "~")


def order_flips(t, t2, region: frozenset[int]) -> list[dict]:
    r, r2 = t.rank, t2.rank
    return [{"x": x, "y": y, "prior": _sym(r(x) - r(y)), "posterior": _sym(r2(x) - r2(y))}
            for x, y in combinations(sorted(region), 2)
            if _sym(r(x) - r(y)) != _sym(r2(x) - r2(y))]


def kept_below(t, t2, inside: frozenset[int], outside: frozenset[int], weak: bool) -> list[dict]:
    r, r2 = t.rank, t2.rank
    if weak:
        return [{"x": x, "y": y, "prior": "<=", "posterior": ">"}
                for x in sorted(inside) for y in sorted(outside)
                if r(x) <= r(y) and not r2(x) <= r2(y)]
    return [{"x": x, "y": y, "prior": "<", "posterior": _sym(r2(x) - r2(y))}
            for x in sorted(inside) for y in sorted(outside) if r(x) < r(y) and not r2(x) < r2(y)]


def promoted(t, t2, inside: frozenset[int], outside: frozenset[int]) -> list[dict]:
    r, r2 = t.rank, t2.rank
    return [{"x": x, "y": y, "prior": _sym(r(x) - r(y)), "posterior": _sym(r2(x) - r2(y))}
            for x in sorted(inside) for y in sorted(outside) if r(x) <= r(y) and not r2(x) < r2(y)]


def _dominated_pairs(s, num_worlds: int) -> list[tuple[int, int]]:
    """(x, y), x != y, where x satisfies every member of ``s`` that y satisfies."""
    sat = [frozenset(i for i, member in enumerate(s) if w in member) for w in range(num_worlds)]
    return [(x, y) for x in range(num_worlds) for y in range(num_worlds)
            if x != y and sat[y] <= sat[x]]


def pc3(ctx, t, s):
    t2 = ctx.previse(t, s)
    r, r2 = t.rank, t2.rank
    return [{"x": x, "y": y, "prior": "<", "posterior": _sym(r2(x) - r2(y))}
            for x, y in _dominated_pairs(s, t.num_worlds) if r(x) < r(y) and not r2(x) < r2(y)]


def pc4(ctx, t, s):
    t2 = ctx.previse(t, s)
    r, r2 = t.rank, t2.rank
    return [{"x": x, "y": y, "prior": "<=", "posterior": ">"}
            for x, y in _dominated_pairs(s, t.num_worlds) if r(x) <= r(y) and not r2(x) <= r2(y)]


# --- the profile entries over world sets ---
#
# UB, LB, Factoring, SPU, WPU and Parity as they read before they shared
# one walk over subsets: best worlds as world sets from ``min_of``, pairs
# through ``rank``.  They take the shipped orders and ``ctx.aggregate``.

def _subsets(num_worlds: int) -> list[frozenset[int]]:
    """Every set of worlds, in the ascending order of its mask."""
    return [frozenset(w for w in range(num_worlds) if m >> w & 1) for m in range(1 << num_worlds)]


def ub(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for subset in _subsets(merged.num_worlds):
        combined = frozenset().union(*(t.min_of(subset) for t in profile))
        chosen = merged.min_of(subset)
        if not chosen <= combined:
            hits.append({"over": subset, "aggregate_best": chosen, "member_best_union": combined})
    return hits


def lb(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for subset in _subsets(merged.num_worlds):
        chosen = merged.min_of(subset)
        if all(not t.min_of(subset) <= chosen for t in profile):
            hits.append({"over": subset, "aggregate_best": chosen})
    return hits


def factoring(ctx, profile):
    merged = ctx.aggregate(profile)
    hits = []
    for subset in _subsets(merged.num_worlds):
        chosen = merged.min_of(subset)
        mins = [t.min_of(subset) for t in profile]
        unions = {frozenset().union(*group)
                  for size in range(len(mins) + 1) for group in combinations(mins, size)}
        if chosen not in unions:
            hits.append({"over": subset, "aggregate_best": chosen})
    return hits


def _unanimity_lost(ctx, profile, strict: bool) -> list[dict]:
    merged = ctx.aggregate(profile)
    below = (lambda t, x, y: t.rank(x) < t.rank(y)) if strict else \
        (lambda t, x, y: t.rank(x) <= t.rank(y))
    worlds = range(merged.num_worlds)
    return [{"x": x, "y": y} for x in worlds for y in worlds
            if x != y and all(below(t, x, y) for t in profile) and not below(merged, x, y)]


def spu(ctx, profile):
    return _unanimity_lost(ctx, profile, strict=True)


def wpu(ctx, profile):
    return _unanimity_lost(ctx, profile, strict=False)


def parity(ctx, profile):
    merged = ctx.aggregate(profile)
    r = merged.rank
    worlds = range(merged.num_worlds)
    hits = []
    for x, y in permutations(worlds, 2):
        if not r(x) < r(y):
            continue
        peers = [z for z in worlds if r(z) == r(x)]
        for t in profile:
            if not any(t.rank(z) < t.rank(y) for z in peers):
                hits.append({"x": x, "y": y, "member": t})
                break
    return hits


# --- the sampled stream through ``shuffle``, ``randrange`` and ``randint`` ---
#
# The samplers as they drew before they read ``getrandbits`` and ``random``
# themselves.  Orders come out as their tuples of block masks, propositions
# as frozensets.

def random_tpo(rng: random.Random, num_worlds: int) -> tuple[int, ...]:
    worlds = list(range(num_worlds))
    rng.shuffle(worlds)
    masks = []
    block = 1 << worlds[0]
    for world in worlds[1:]:
        if rng.random() < 0.5:
            masks.append(block)
            block = 1 << world
        else:
            block |= 1 << world
    masks.append(block)
    return tuple(masks)


def _worlds(mask: int) -> frozenset[int]:
    return frozenset(w for w in range(mask.bit_length()) if mask >> w & 1)


def random_proposition(rng: random.Random, num_worlds: int) -> frozenset[int]:
    return _worlds(rng.randrange(1, 1 << num_worlds))


def random_family(rng: random.Random, num_worlds: int, max_size: int,
                  jointly_consistent: bool) -> tuple[frozenset[int], ...]:
    for _ in range(1000):
        masks: list[int] = []
        for _ in range(rng.randint(1, max_size)):
            mask = rng.randrange(1, 1 << num_worlds)
            if mask not in masks:
                masks.append(mask)
        conj = (1 << num_worlds) - 1
        for mask in masks:
            conj &= mask
        if jointly_consistent and not conj:
            continue
        return tuple(_worlds(mask) for mask in masks)
    raise AssertionError("no jointly consistent family in 1000 draws")


_SAMPLERS = {
    "preorder": lambda rng, n, k: random_tpo(rng, n),
    "proposition": lambda rng, n, k: random_proposition(rng, n),
    "family": lambda rng, n, k: random_family(rng, n, k, True),
    "loose-family": lambda rng, n, k: random_family(rng, n, k, False),
    "profile": lambda rng, n, k: (random_tpo(rng, n), random_tpo(rng, n)),
}
SAMPLED_PARTS = {
    "serial": ("preorder", "proposition"),
    "sercon": ("preorder", "proposition"),
    "serial2": ("preorder", "proposition", "proposition"),
    "pset": ("preorder", "family"),
    "cset": ("preorder", "loose-family"),
    "pset2": ("preorder", "family", "family"),
    "profile2": ("profile",),
}


def sampled_stream(shape: str, atoms: int, count: int, seed: int, max_set_size: int) -> list:
    """The first ``count`` instances of a sampled space's ``shape`` stream."""
    rng = random.Random(seed)
    draws = [_SAMPLERS[part] for part in SAMPLED_PARTS[shape]]
    return [tuple(draw(rng, 1 << atoms, max_set_size) for draw in draws) for _ in range(count)]


# --- formulas and scenario runs on frozensets ---

def models(formula, lang) -> frozenset[int]:
    """A formula's set of worlds by structural set algebra."""
    if isinstance(formula, Atom):
        shift = len(lang.atoms) - 1 - lang.atom_index(formula.name)
        return frozenset(w for w in lang.worlds() if (w >> shift) & 1)
    if isinstance(formula, Not):
        return lang.all_worlds - models(formula.operand, lang)
    if isinstance(formula, And):
        return models(formula.left, lang) & models(formula.right, lang)
    if isinstance(formula, Or):
        return models(formula.left, lang) | models(formula.right, lang)
    if isinstance(formula, Implies):
        return (lang.all_worlds - models(formula.left, lang)) | models(formula.right, lang)
    if isinstance(formula, Iff):
        left, right = models(formula.left, lang), models(formula.right, lang)
        return (left & right) | (lang.all_worlds - left - right)
    if isinstance(formula, Verum):
        return lang.all_worlds
    if isinstance(formula, Falsum):
        return frozenset()
    raise TypeError(f"not a formula: {formula!r}")


# --- the walkers over formula trees that one fold replaced ---

# the connective table they read, as it stood: (node, symbol,
# right-associative, operation on world masks), loosest first
_CONNECTIVES = ((Iff, "<->", True, lambda a, b: ~a ^ b), (Implies, "->", True, lambda a, b: ~a | b),
                (Or, "|", False, or_), (And, "&", False, and_))
# negation binds one level tighter than the tightest connective, atoms
# and constants tighter still
_PREC = {row[0]: level for level, row in enumerate(_CONNECTIVES)} | {Not: len(_CONNECTIVES)}


def _prec(formula) -> int:
    return _PREC.get(type(formula), len(_CONNECTIVES) + 1)


def atoms_of(formula) -> frozenset[str]:
    """The set of atom names occurring in ``formula``."""
    if isinstance(formula, Atom):
        return frozenset({formula.name})
    if isinstance(formula, Not):
        return atoms_of(formula.operand)
    if isinstance(formula, (Verum, Falsum)):
        return frozenset()
    if type(formula) in _PREC:
        return atoms_of(formula.left) | atoms_of(formula.right)
    raise FormulaError(f"not a formula: {formula!r}")


def format_formula(formula) -> str:
    """Render with the fewest parentheses that survive re-parsing."""
    if isinstance(formula, Atom):
        return formula.name
    if isinstance(formula, Verum):
        return "T"
    if isinstance(formula, Falsum):
        return "F"
    if isinstance(formula, Not):
        inner = format_formula(formula.operand)
        if _prec(formula.operand) < _PREC[Not]:
            inner = f"({inner})"
        return f"~{inner}"
    prec = _PREC.get(type(formula))
    if prec is None:
        raise FormulaError(f"not a formula: {formula!r}")
    _, symbol, right_assoc, _ = _CONNECTIVES[prec]
    left, right = format_formula(formula.left), format_formula(formula.right)
    # a child that binds looser is parenthesized, and so is one that binds
    # equally on the side the connective does not group to
    if _prec(formula.left) < prec + right_assoc:
        left = f"({left})"
    if _prec(formula.right) < prec + (not right_assoc):
        right = f"({right})"
    return f"{left} {symbol} {right}"


def model_mask(formula, lang) -> int:
    """The proposition expressed by ``formula``, as a world mask, cut to
    the language's worlds at each node."""
    if isinstance(formula, Atom):
        return lang.atom_mask(formula.name)
    if isinstance(formula, Not):
        return lang._full_mask & ~model_mask(formula.operand, lang)
    if isinstance(formula, Verum):
        return lang._full_mask
    if isinstance(formula, Falsum):
        return 0
    prec = _PREC.get(type(formula))
    if prec is None:
        raise FormulaError(f"not a formula: {formula!r}")
    left, right = model_mask(formula.left, lang), model_mask(formula.right, lang)
    return lang._full_mask & _CONNECTIVES[prec][3](left, right)


def _world_names(lang, worlds) -> list[str]:
    return sorted(format(w, f"0{len(lang.atoms)}b") for w in worlds)


def _answer(query: dict, t, lang) -> dict:
    kind = query["type"]
    if kind == "believes":
        return {"type": kind, "sentence": query["sentence"],
                "answer": t.believes(models(parse_formula(query["sentence"], lang), lang))}
    if kind == "conditional":
        given, then = (models(parse_formula(query[key], lang), lang) for key in ("given", "then"))
        return {"type": kind, "given": query["given"], "then": query["then"],
                "answer": t.min_of(given) <= then}
    if kind == "compare":
        diff = t.compare(query["left"], query["right"])
        relation = "<" if diff < 0 else (">" if diff > 0 else "~")
        return {"type": kind, "left": query["left_name"],
                "right": query["right_name"], "answer": relation}
    parts = ["{" + ",".join(_world_names(lang, block)) + "}" for block in t.blocks]
    return {"type": kind, "answer": "[" + " < ".join(parts) + "]"}


def scenario_entries(scenario) -> list[dict]:
    """The ``entries`` of a parsed scenario's trace, run on frozensets.

    An inconsistent step raises ``InconsistentInputError`` with the
    message ``run_scenario`` gives it.
    """
    from revforge import ParallelContractionOperator, ParallelRevisionOperator
    lang = scenario.lang
    prev = ParallelRevisionOperator(scenario.base, scenario.finisher, scenario.aggregator)
    pcon = ParallelContractionOperator(scenario.contraction, scenario.aggregator)

    def entry(label, t, queries):
        return {"label": label, "tpo": [_world_names(lang, b) for b in t.blocks],
                "beliefs": _world_names(lang, t.blocks[0]),
                "queries": [_answer(q, t, lang) for q in queries]}

    t = scenario.initial
    entries = [entry("initial", t, scenario.initial_queries)]
    for i, step in enumerate(scenario.steps, start=1):
        sets = tuple(models(parse_formula(text, lang), lang) for text in step.texts)
        try:
            if step.op == "revise-set":
                t = prev.revise_worlds(t, sets, labels=step.texts)
            elif step.op == "contract-set":
                t = pcon.contract_worlds(t, sets)
            elif step.op == "serial-revise":
                t = scenario.base.revise(t, sets[0])
            else:
                t = scenario.contraction.contract(t, sets[0])
        except InconsistentInputError as exc:
            raise InconsistentInputError(f"step {i} ({step.label()}): {exc}") from exc
        entries.append(entry(f"step {i}: {step.label()}", t, step.queries))
    return entries
