"""The per-draw kernels against ``reference_core`` past two atoms.

The serial kernels each walk an order's blocks once, aggregation runs on
block masks, and ``world_masks`` reads its worlds from a byte table.
Here the shipped code must give:

* the orders of the reference serial operators, compared block by
  block, at 8 worlds on seeded ``random_tpo`` orders with every mask,
  and at 16 worlds on a seeded sample of orders and masks, and the same
  ``InconsistentInputError`` message for an empty mask;
* the aggregates of the reference TeamQueue aggregator under every
  strategy, at 8 and 16 worlds, for profiles of one to four members;
* ``world_masks`` equal to per-pair rank comparisons at 4, 8 and 16
  worlds.

It also pins the sampled stream where families grow large: three
4-atom ``cset`` families at ``max_set_size=65535``.
"""

import hashlib
import json
import random

import pytest

import reference_core as ref
from revforge import STRATEGIES, Aggregator, InconsistentInputError, InstanceSpace
from revforge.postulates import enumerate_tpos, random_tpo
from revforge.serial import (CONTRACTION_OPERATORS, REVISION_OPERATORS, natural_contract,
                             natural_revise)
from revforge.tpo import worlds_of

KERNELS = {op.name: op.transform
           for op in (*REVISION_OPERATORS.values(), *CONTRACTION_OPERATORS.values())}
REF_KERNELS = {**ref.REVISIONS, "natural-contract": ref.natural_contract}


def ref_masks(r) -> tuple[int, ...]:
    """A reference order's blocks as masks, most plausible first."""
    return tuple(sum(1 << w for w in block) for block in r.blocks)


def orders(num_worlds: int, count: int, seed: int) -> list:
    rng = random.Random(seed)
    return [random_tpo(rng, num_worlds) for _ in range(count)]


def outcome(call):
    """The block masks ``call()`` returns, or the type and message it raises."""
    try:
        result = call()
    except InconsistentInputError as exc:
        return type(exc), str(exc)
    return result.masks if hasattr(result, "masks") else ref_masks(result)


def test_the_reference_covers_every_kernel():
    assert set(KERNELS) == set(REF_KERNELS)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_serial_kernels_match_the_reference_at_8_worlds_on_every_mask(name):
    shipped, reference = KERNELS[name], REF_KERNELS[name]
    for t in orders(8, 24, seed=3008):
        old = ref.TPO(t.blocks)
        for mask in range(256):
            assert outcome(lambda: shipped(t, mask)) == outcome(
                lambda: reference(old, worlds_of(mask))), (t, mask)


@pytest.mark.parametrize("name", sorted(KERNELS))
def test_serial_kernels_match_the_reference_on_a_16_world_sample(name):
    shipped, reference = KERNELS[name], REF_KERNELS[name]
    rng = random.Random(3016)
    for t in orders(16, 40, seed=3016):
        old = ref.TPO(t.blocks)
        for mask in [0, 0xFFFF] + [rng.randrange(1, 1 << 16) for _ in range(30)]:
            assert outcome(lambda: shipped(t, mask)) == outcome(
                lambda: reference(old, worlds_of(mask))), (t, mask)


@pytest.mark.parametrize("name", sorted(REVISION_OPERATORS))
def test_an_empty_mask_raises_the_reference_message(name):
    for t in orders(8, 5, seed=3100) + orders(16, 5, seed=3101):
        with pytest.raises(InconsistentInputError) as shipped:
            KERNELS[name](t, 0)
        with pytest.raises(InconsistentInputError) as reference:
            REF_KERNELS[name](ref.TPO(t.blocks), frozenset())
        assert str(shipped.value) == str(reference.value) == (
            "cannot revise by an inconsistent input (no models)")


def test_kernels_return_new_orders_equal_to_an_unchanged_prior():
    """Contracting by a tautology, or by an input the bottom block already
    refutes, and revising by the bottom block give the prior's blocks."""
    t = random_tpo(random.Random(3200), 8)
    full = (1 << 8) - 1
    assert natural_contract(t, full) == natural_contract(t, full & ~t.masks[0]) == t
    assert natural_revise(t, t.masks[0]) == t


@pytest.mark.parametrize("num_worlds", [8, 16])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
def test_strategies_match_the_reference_past_two_atoms(strategy, num_worlds):
    shipped = Aggregator(STRATEGIES[strategy])
    reference = ref.Aggregator(STRATEGIES[strategy])
    rng = random.Random(3300 + num_worlds)
    for _ in range(150):
        profile = tuple(random_tpo(rng, num_worlds) for _ in range(rng.randint(1, 4)))
        expected = reference.aggregate(tuple(ref.TPO(t.blocks) for t in profile))
        assert shipped.aggregate(profile).masks == ref_masks(expected), profile


@pytest.mark.parametrize("num_worlds", [4, 8, 16])
def test_world_masks_match_pairwise_rank_comparisons(num_worlds):
    sample = (tuple(enumerate_tpos(4)) if num_worlds == 4
              else orders(num_worlds, 60, seed=3400 + num_worlds))
    for t in sample:
        rank = ref.TPO(t.blocks).rank
        below, weak = t.world_masks
        for w in range(num_worlds):
            assert below[w] == sum(1 << y for y in range(num_worlds) if rank(y) < rank(w))
            assert weak[w] == sum(1 << y for y in range(num_worlds) if rank(y) <= rank(w))


def test_large_loose_families_keep_their_stream():
    """Three 4-atom ``cset`` draws at the largest ``max_set_size``, whose
    families hold thousands of members, with their member masks in listed
    order hashed as drawn before repeats were found by a hashed lookup."""
    space = InstanceSpace(atoms=4, mode="sampled", sample_count=3, seed=1,
                          max_set_size=65535)
    families = [[sum(1 << w for w in member) for member in family]
                for _, family in space.instances("cset")]
    assert [len(family) for family in families] == [12722, 9303, 19055]
    assert hashlib.sha256(json.dumps(families).encode()).hexdigest() == (
        "4ecfdca1dd6624d4c15b1f66c6011b136921c79fca92093f221bb009a9f04c6e")
