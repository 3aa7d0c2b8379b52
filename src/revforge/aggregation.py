"""TeamQueue aggregation of profiles of total preorders.

Aggregation consumes a profile of TPOs over the same worlds and emits a
single TPO.  It runs in rounds: at round i a selection strategy picks a
non-empty team of profile positions, and the round's output block is the
union, over the team, of each member's most plausible still-unplaced
worlds.  Rounds work on world masks: the unplaced worlds are one
``remaining`` mask, and each member contributes its first block that
meets it, intersected with it.  Worlds only ever leave ``remaining``, so
each member keeps a cursor on that block and moves it forward, rather
than searching its order from the top every round.  Rounds continue
until every world is placed.  Because every member ranks every world
and a team is never empty, a round with worlds remaining always yields a
non-empty block.

The synchronous strategy (``stq``) picks the whole profile every round.
``round-robin`` cycles through single positions.  ``first-then-full``
picks the whole profile in round 1, then cycles.  The family is open:
a new strategy registers by being assigned into ``STRATEGIES`` under its
name.  A strategy whose teams are stq's, whatever its name, is
``synchronous``: its aggregate depends on the set of members alone, and
the checker's set keys, the scenario order note and Parity read that.

A strategy checks each team once, when a profile size and round first
need it, and keeps it as a tuple in a table per profile size; a team
that fails its check is not kept, so it raises again on every call.
A profile of one member aggregates to that member: the only valid team
is the member itself, so round i emits its block i.  ``aggregate``
returns it without running the rounds, once the teams of the rounds its
blocks need are checked, so an invalid team raises as it would.
The tables live on the strategy, so every ``Aggregator`` over it, such
as the one each loaded scenario builds, shares them.

``aggregate`` is where a profile is checked, and the only place: an
empty profile raises ``PartitionError`` before anything else, and
members of different widths raise it after the one-member shortcut,
where there is nothing to compare.  The pipeline's profiles are the
serial results of one order and always pass; the width test is one
comparison per member, so they take the same checked entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Callable, Sequence

from .errors import PartitionError, lookup
from .tpo import TPO, tpo

# profile sizes whose team tables a strategy keeps; a table holds at most
# one team per world, since every round places a world
_SIZES = 64


@dataclass(frozen=True)
class SelectionStrategy:
    """Names which profile positions get to contribute in each round.

    ``team(n, i)`` returns the 0-based positions selected at round i
    (1-based) from a profile of size n; it must be a non-empty set or
    frozenset within ``range(n)``, and any other team raises
    ``PartitionError`` naming the strategy and the round.  ``team(n, i)``
    must be a pure function of ``n`` and ``i``: the strategy asks for each
    team once and keeps it in ``teams(n)``, keyed by round.
    """

    name: str
    team: Callable[[int, int], frozenset[int]] = field(repr=False)
    teams: Callable[[int], dict] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "teams", lru_cache(maxsize=_SIZES)(lambda n: {}))

    def checked_team(self, n: int, i: int) -> tuple[int, ...]:
        """``team(n, i)`` as a sorted tuple, once it is checked."""
        team = self.team(n, i)
        is_set = isinstance(team, (set, frozenset))
        if not (is_set and team and team <= frozenset(range(n))):
            shown = sorted(team) if is_set else f"{team!r} (not a set)"
            raise PartitionError(
                f"strategy {self.name!r} selected invalid team {shown} "
                f"at round {i} for a profile of size {n}")
        return tuple(sorted(team))

    @cached_property
    def synchronous(self) -> bool:
        """Whether ``team(n, i)`` is the whole profile for every n and i up to
        16: more members than a family over the 4 worlds that keep rows
        holds, and the most rounds over 16 worlds.  False for an invalid team."""
        return all(self.team(n, i) == frozenset(range(n))
                   for n in range(1, 17) for i in range(1, 17))


def _team_full(n: int, i: int) -> frozenset[int]:
    return frozenset(range(n))


def _team_round_robin(n: int, i: int) -> frozenset[int]:
    return frozenset({(i - 1) % n})


def _team_first_then_full(n: int, i: int) -> frozenset[int]:
    if i == 1:
        return frozenset(range(n))
    return frozenset({(i - 1) % n})


STQ_STRATEGY = SelectionStrategy("stq", _team_full)
ROUND_ROBIN_STRATEGY = SelectionStrategy("round-robin", _team_round_robin)
FIRST_THEN_FULL_STRATEGY = SelectionStrategy("first-then-full", _team_first_then_full)

STRATEGIES: dict[str, SelectionStrategy] = {
    s.name: s for s in (STQ_STRATEGY, ROUND_ROBIN_STRATEGY, FIRST_THEN_FULL_STRATEGY)
}


def make_strategy(name: str) -> SelectionStrategy:
    return lookup(STRATEGIES, name, "selection strategy")


@dataclass(frozen=True)
class Aggregator:
    """A profile-to-TPO aggregation map driven by a selection strategy."""

    strategy: SelectionStrategy

    def aggregate(self, profile: Sequence[TPO]) -> TPO:
        """Run the round-by-round team construction over ``profile``; a
        one-member profile is its member, once its rounds' teams are checked.
        PartitionError for an empty profile or members of different widths."""
        profile = tuple(profile)
        n = len(profile)
        if not n:
            raise PartitionError("a profile needs at least one preorder")
        teams = self.strategy.teams(n)
        if n == 1:
            # a lone member's only valid team is itself, so round i emits its
            # block i; the rounds its blocks need are still checked, and the
            # checked teams are a prefix of the rounds, so ``len`` counts them
            member = profile[0]
            for round_no in range(len(teams) + 1, len(member.masks) + 1):
                teams[round_no] = self.strategy.checked_team(1, round_no)
            return member
        num_worlds = profile[0].num_worlds
        orders = [t.masks for t in profile if t.num_worlds == num_worlds]
        if len(orders) < n:
            raise PartitionError("profile members must share the same worlds")
        remaining = (1 << num_worlds) - 1
        cursors = [0] * n
        blocks: list[int] = []
        round_no = 0
        while remaining:
            round_no += 1
            team = teams.get(round_no)
            if team is None:
                team = teams[round_no] = self.strategy.checked_team(n, round_no)
            block = 0
            for j in team:
                order, at = orders[j], cursors[j]
                while not order[at] & remaining:
                    at += 1
                cursors[j] = at
                block |= order[at] & remaining
            blocks.append(block)
            remaining &= ~block
        return tpo(tuple(blocks), num_worlds)

    @property
    def name(self) -> str:
        return self.strategy.name


def stq(profile: Sequence[TPO]) -> TPO:
    """Synchronous aggregation: every member contributes every round."""
    return Aggregator(STQ_STRATEGY).aggregate(profile)
