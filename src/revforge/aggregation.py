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
name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .errors import PartitionError, lookup
from .tpo import TPO, Profile, validate_profile


@dataclass(frozen=True)
class SelectionStrategy:
    """Names which profile positions get to contribute in each round.

    ``team(n, i)`` returns the 0-based positions selected at round i
    (1-based) from a profile of size n; it must be a non-empty set or
    frozenset within ``range(n)``, and any other team raises
    ``PartitionError`` naming the strategy and the round.
    """

    name: str
    team: Callable[[int, int], frozenset[int]] = field(repr=False)


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
        """Run the round-by-round team construction over ``profile``."""
        profile = validate_profile(profile)
        n = len(profile)
        positions = frozenset(range(n))
        num_worlds = profile[0].num_worlds
        remaining = (1 << num_worlds) - 1
        orders = [t.masks for t in profile]
        cursors = [0] * n
        blocks: list[int] = []
        round_no = 0
        while remaining:
            round_no += 1
            team = self.strategy.team(n, round_no)
            is_set = isinstance(team, (set, frozenset))
            if not (is_set and team and team <= positions):
                shown = sorted(team) if is_set else f"{team!r} (not a set)"
                raise PartitionError(
                    f"strategy {self.strategy.name!r} selected invalid team {shown} "
                    f"at round {round_no} for a profile of size {n}")
            block = 0
            for j in team:
                order, at = orders[j], cursors[j]
                while not order[at] & remaining:
                    at += 1
                cursors[j] = at
                block |= order[at] & remaining
            blocks.append(block)
            remaining &= ~block
        return TPO._from_masks(tuple(blocks), num_worlds)

    @property
    def name(self) -> str:
        return self.strategy.name


def stq(profile: Sequence[TPO]) -> TPO:
    """Synchronous aggregation: every member contributes every round."""
    return Aggregator(STQ_STRATEGY).aggregate(profile)
