"""Relabelling worlds commutes with every operator.

No operator may read a world's index, only which blocks and inputs hold
it.  So renaming the worlds by a permutation p and then operating must
give what operating and then renaming gives: ``op(p(t), p(S)) ==
p(op(t, S))``, for a serial operator on an order and an input, for an
aggregator on a profile, and for the revision and contraction pipelines
on an order and a family.  The adjacent transpositions, which swap
worlds w and w + 1, generate every permutation, and a property that
holds for two permutations holds for their composite, so ``_broken``
tries those only: 3 at 2 atoms, 7 at 3 atoms.

Each registered serial operator and strategy is checked, on every
2-atom case and on a seeded 3-atom sample.  A stand-in operator that
treats world 0 apart fails the same helper, so a pass means something.
"""

import itertools
import random

import pytest

from revforge import Aggregator, OperatorConfig, TPO
from revforge.aggregation import STRATEGIES
from revforge.parallel import ParallelContractionOperator, ParallelRevisionOperator
from revforge.postulates import all_propositions, enumerate_tpos, formula_set_tuples, random_tpo
from revforge.serial import (CONTRACTION_OPERATORS, REVISION_OPERATORS, SerialRevisionOperator,
                             natural_revise)
from revforge.tpo import mask_of, tpo

SERIAL = {**REVISION_OPERATORS, **CONTRACTION_OPERATORS}
SAMPLE = 120


def _swap(value, w: int):
    """``value`` with worlds w and w + 1 exchanged: a world mask, an order,
    or a tuple of these."""
    if isinstance(value, TPO):
        return tpo(tuple(_swap(mask, w) for mask in value.masks), value.num_worlds)
    if isinstance(value, tuple):
        return tuple(_swap(item, w) for item in value)
    differ = (value >> w ^ value >> (w + 1)) & 1
    return value ^ differ * (3 << w)


def _broken(fn, cases, num_worlds: int) -> list:
    """The (case, w) pairs on which ``fn(*case)`` does not commute with
    swapping worlds w and w + 1."""
    broken = []
    for case in cases:
        result = fn(*case)
        for w in range(num_worlds - 1):
            if fn(*_swap(case, w)) != _swap(result, w):
                broken.append((case, w))
    return broken


def _families2(jointly_consistent: bool) -> list[tuple[int, ...]]:
    """Every 2-atom family of one or two inputs, the default size, as masks."""
    return [tuple(mask_of(member, 4) for member in family)
            for family in formula_set_tuples(all_propositions(4), 2, jointly_consistent)]


def _family3() -> tuple[int, ...]:
    """One or two random 3-atom inputs that share a world."""
    while True:
        family = tuple(RNG.randrange(1, 256) for _ in range(RNG.randint(1, 2)))
        if family[0] & family[-1]:
            return family


RNG = random.Random(42)
PRIORS2 = tuple(enumerate_tpos(4))
PRIORS3 = tuple(random_tpo(RNG, 8) for _ in range(SAMPLE))
INPUTS3 = tuple(RNG.randrange(1, 256) for _ in range(SAMPLE))
FAMILIES3 = tuple(_family3() for _ in range(SAMPLE))
SERIAL_CASES = {
    4: [(t, mask) for t in PRIORS2 for mask in range(1, 16)],
    8: list(zip(PRIORS3, INPUTS3)),
}
PROFILE_CASES = {
    4: list(itertools.product(PRIORS2, repeat=2)) + [
        tuple(RNG.sample(PRIORS2, 3)) for _ in range(SAMPLE)],
    8: [tuple(RNG.sample(PRIORS3, size)) for size in (2, 3) for _ in range(SAMPLE // 2)],
}
REVISION_CASES = {
    4: [(t, family) for t in PRIORS2 for family in _families2(True)],
    8: list(zip(PRIORS3, FAMILIES3)),
}
CONTRACTION_CASES = {
    4: [(t, family) for t in PRIORS2 for family in _families2(False)],
    8: list(zip(PRIORS3, FAMILIES3)),
}


def _pipelines(config: OperatorConfig):
    aggregator = Aggregator(config.resolved("strategy"))
    return (ParallelRevisionOperator(config.resolved("base"), config.resolved("finisher"),
                                     aggregator).revise_masks,
            ParallelContractionOperator(config.resolved("contraction"), aggregator).contract_masks)


@pytest.mark.parametrize("num_worlds", [4, 8])
@pytest.mark.parametrize("name", sorted(SERIAL))
def test_serial_operators_commute_with_relabelling(name, num_worlds):
    assert _broken(SERIAL[name].transform, SERIAL_CASES[num_worlds], num_worlds) == []


@pytest.mark.parametrize("num_worlds", [4, 8])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_aggregators_commute_with_relabelling(name, num_worlds):
    aggregate = Aggregator(STRATEGIES[name]).aggregate
    assert _broken(lambda *profile: aggregate(profile), PROFILE_CASES[num_worlds],
                   num_worlds) == []


@pytest.mark.parametrize("num_worlds", [4, 8])
@pytest.mark.parametrize("name", sorted(STRATEGIES))
def test_pipelines_commute_with_relabelling(name, num_worlds):
    revise, contract = _pipelines(OperatorConfig(strategy=name))
    assert _broken(revise, REVISION_CASES[num_worlds], num_worlds) == []
    assert _broken(contract, CONTRACTION_CASES[num_worlds], num_worlds) == []


def _world_zero_first(t: TPO, mask: int) -> TPO:
    """Natural revision, then world 0, when it is an input world, alone
    in front: it reads a world's index, so it must not commute."""
    revised = natural_revise(t, mask)
    if not mask & 1 or revised.masks[0] == 1:
        return revised
    rest = tuple(block & ~1 for block in revised.masks)
    return tpo((1,) + tuple(block for block in rest if block), t.num_worlds)


STAND_IN = SerialRevisionOperator("world-zero-first", _world_zero_first)


@pytest.mark.parametrize("num_worlds", [4, 8])
def test_a_stand_in_that_treats_one_world_apart_fails_the_helper(num_worlds):
    assert _broken(STAND_IN.transform, SERIAL_CASES[num_worlds], num_worlds)
    revise, _ = _pipelines(OperatorConfig(base=STAND_IN, finisher=STAND_IN))
    assert _broken(revise, REVISION_CASES[num_worlds], num_worlds)
