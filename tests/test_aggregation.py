"""Team-queue aggregation of preorder profiles."""

import random
from dataclasses import FrozenInstanceError, fields, replace

import pytest

from revforge import (Aggregator, FIRST_THEN_FULL_STRATEGY, NATURAL, PartitionError,
                      ROUND_ROBIN_STRATEGY, STQ_STRATEGY, SelectionStrategy,
                      TPO, make_strategy, stq)
from revforge.aggregation import STRATEGIES, _team_round_robin
from revforge.postulates import enumerate_tpos, random_tpo

from conftest import tpo


def test_reference_two_member_aggregate():
    """The two serial revisions of the one-then-rest preorder merge with
    a three-world bottom block, not the conjunction's single world."""
    t0 = tpo({0}, {1, 2, 3})
    ta = NATURAL.revise(t0, frozenset({2, 3}))
    tb = NATURAL.revise(t0, frozenset({1, 3}))
    merged = stq((ta, tb))
    assert merged == tpo({1, 2, 3}, {0})
    assert merged.blocks[0] == frozenset({1, 2, 3})
    assert merged.blocks[0] != frozenset({3})


def test_stq_round_by_round_union():
    a = tpo({0}, {1}, {2}, {3})
    b = tpo({3}, {2}, {1}, {0})
    assert stq((a, b)) == tpo({0, 3}, {1, 2})


def test_aggregation_is_idempotent_on_duplicates():
    for t in enumerate_tpos(4):
        assert stq((t, t)) == t


@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_singleton_profile_is_identity(name):
    """A one-member profile aggregates to the member itself: the rounds are
    not run, but the teams of the rounds its blocks need are checked and kept."""
    strategy = make_strategy(name)
    agg = Aggregator(strategy)
    draws = random.Random(3)
    sampled = [random_tpo(draws, 8) for _ in range(100)]
    for t in (*enumerate_tpos(4), *sampled, TPO.from_ranks(range(8))):
        assert agg.aggregate((t,)) is t
    assert set(range(1, 9)) <= set(strategy.teams(1))


def test_a_one_member_profile_still_meets_an_invalid_later_team():
    """A team that fails at round 3 raises for a member of three or more
    blocks, every time, and is never kept; a member of two blocks never
    reaches round 3, with or without the rounds."""
    agg = Aggregator(SelectionStrategy("flaky", lambda n, i: frozenset({0}) if i < 3
                                       else frozenset({n})))
    deep, shallow = tpo({0}, {1}, {2}, {3}), tpo({0, 1}, {2, 3})
    for _ in range(2):
        with pytest.raises(PartitionError, match="at round 3 for a profile of size 1"):
            agg.aggregate((deep,))
        assert sorted(agg.strategy.teams(1)) == [1, 2]
        assert agg.aggregate((shallow,)) is shallow


def test_round_robin_tracks_one_member_per_round():
    flat = tpo({0, 1, 2, 3})
    sharp = tpo({0}, {1}, {2}, {3})
    rr = Aggregator(ROUND_ROBIN_STRATEGY)
    # round 1 consults the flat member and floods every world at once
    assert rr.aggregate((flat, sharp)) == tpo({0, 1, 2, 3})
    # reversed, round 1 takes {0} from the sharp member, round 2 floods the rest
    assert rr.aggregate((sharp, flat)) == tpo({0}, {1, 2, 3})


def test_first_then_full_heeds_everyone_once_then_rotates():
    sharp = tpo({0}, {1}, {2}, {3})
    back = tpo({3}, {2}, {1}, {0})
    ftf = Aggregator(FIRST_THEN_FULL_STRATEGY)
    # round 1 unions both minima; round 2 consults member 1 alone,
    # round 3 member 0 alone
    assert ftf.aggregate((sharp, back)) == tpo({0, 3}, {2}, {1})
    assert ftf.aggregate((back, sharp)) == tpo({0, 3}, {1}, {2})


def test_team_functions():
    assert STQ_STRATEGY.team(3, 5) == frozenset({0, 1, 2})
    assert ROUND_ROBIN_STRATEGY.team(3, 1) == frozenset({0})
    assert ROUND_ROBIN_STRATEGY.team(3, 2) == frozenset({1})
    assert ROUND_ROBIN_STRATEGY.team(3, 4) == frozenset({0})
    assert FIRST_THEN_FULL_STRATEGY.team(3, 1) == frozenset({0, 1, 2})
    assert FIRST_THEN_FULL_STRATEGY.team(3, 2) == frozenset({1})


def test_invalid_team_selections_raise():
    empty = Aggregator(SelectionStrategy("empty", lambda n, i: frozenset()))
    with pytest.raises(PartitionError):
        empty.aggregate((TPO.uniform(4),))
    wild = Aggregator(SelectionStrategy("wild", lambda n, i: frozenset({n + 1})))
    with pytest.raises(PartitionError):
        wild.aggregate((TPO.uniform(4),))


@pytest.mark.parametrize("team, shown", [([0], "[0] (not a set)"), (0, "0 (not a set)"),
                                         (1, "1 (not a set)")],
                         ids=["list", "int-0", "int-1"])
def test_teams_that_are_not_sets_raise_partition_error(team, shown):
    malformed = Aggregator(SelectionStrategy("malformed", lambda n, i: team))
    with pytest.raises(PartitionError) as err:
        malformed.aggregate((TPO.uniform(4), TPO.uniform(4)))
    assert str(err.value) == (f"strategy 'malformed' selected invalid team {shown} "
                              "at round 1 for a profile of size 2")


def test_profile_validation_flows_through():
    with pytest.raises(PartitionError):
        stq(())
    with pytest.raises(PartitionError):
        stq((TPO.uniform(4), TPO.uniform(2)))


def test_make_strategy_unknown_name():
    from revforge import UnknownOperatorError
    with pytest.raises(UnknownOperatorError):
        make_strategy("oracle")


def test_aggregate_free_function_matches_method():
    a = tpo({1}, {0, 2, 3})
    b = tpo({2}, {0, 1, 3})
    agg = Aggregator(STQ_STRATEGY)
    assert agg.aggregate((a, b)) == stq((a, b)) == tpo({1, 2}, {0, 3})


def test_output_is_always_a_valid_partition():
    tpos = list(enumerate_tpos(4))
    agg = Aggregator(ROUND_ROBIN_STRATEGY)
    for a in tpos[::7]:
        for b in tpos[::11]:
            out = agg.aggregate((a, b))
            assert out.num_worlds == 4


@pytest.mark.parametrize("team, round_no", [
    (lambda n, i: frozenset(), 1),
    (lambda n, i: frozenset({0}) if i == 1 else [1], 2),
    (lambda n, i: frozenset({0}) if i < 3 else frozenset({n}), 3),
], ids=["empty", "malformed-later", "out-of-range-later"])
def test_a_failed_team_is_never_kept(team, round_no):
    """A team that fails its check raises the same error, at the same
    round, however often the strategy is asked; the valid teams of the
    earlier rounds are kept."""
    agg = Aggregator(SelectionStrategy("flaky", team))
    profile = (tpo({0}, {1}, {2}, {3}), tpo({3}, {2}, {1}, {0}))
    messages = set()
    for _ in range(3):
        with pytest.raises(PartitionError) as err:
            agg.aggregate(profile)
        messages.add(str(err.value))
    (message,) = messages
    assert f"at round {round_no} for a profile of size 2" in message
    assert sorted(agg.strategy.teams(2)) == list(range(1, round_no))


def test_aggregators_over_one_strategy_share_its_teams():
    """Two aggregators over one strategy agree, and the second asks the
    strategy for no team the first has met."""
    calls = []

    def team(n, i):
        calls.append((n, i))
        return ROUND_ROBIN_STRATEGY.team(n, i)

    strategy = SelectionStrategy("counted", team)
    first, second = Aggregator(strategy), Aggregator(strategy)
    tpos = list(enumerate_tpos(4))[::9]
    profiles = [(a, b) for a in tpos for b in tpos]
    merged = [first.aggregate(p) for p in profiles]
    asked = len(calls)
    assert asked == len(set(calls)) <= 4
    assert [second.aggregate(p) for p in profiles] == merged
    assert len(calls) == asked
    assert merged == [Aggregator(ROUND_ROBIN_STRATEGY).aggregate(p) for p in profiles]


@pytest.mark.parametrize("strategy, synchronous", [
    (STQ_STRATEGY, True),
    (replace(STQ_STRATEGY, name="sync"), True),
    # a pass-through wrapper, as a tracer times a strategy's teams
    (replace(STQ_STRATEGY, team=lambda n, i: STQ_STRATEGY.team(n, i)), True),
    (ROUND_ROBIN_STRATEGY, False),
    (FIRST_THEN_FULL_STRATEGY, False),
    (SelectionStrategy("stq", _team_round_robin), False),
    (SelectionStrategy("lists", lambda n, i: list(range(n))), False),
], ids=["stq", "renamed-stq", "wrapped-stq", "round-robin", "first-then-full",
        "stq-named-round-robin", "lists"])
def test_synchronous_goes_by_the_teams_not_the_name(strategy, synchronous):
    assert strategy.synchronous is synchronous


def test_synchronous_is_derived_once_and_cannot_be_set():
    calls = []

    def team(n, i):
        calls.append((n, i))
        return frozenset(range(n))

    strategy = SelectionStrategy("counted", team)
    assert strategy.synchronous and strategy.synchronous
    assert len(calls) == 16 * 16
    assert "synchronous" not in {f.name for f in fields(SelectionStrategy)}
    with pytest.raises(TypeError):
        SelectionStrategy("stq", _team_round_robin, synchronous=True)
    with pytest.raises(FrozenInstanceError):
        strategy.synchronous = False
    assert strategy == SelectionStrategy("counted", team)
