"""Exhaustive instance counts against closed forms.

Each shape's size is worked out apart from its stream: the prior orders
over W worlds are counted by the ordered Bell (Fubini) numbers
(https://oeis.org/A000670), there are 2^W - 1 consistent propositions,
and the input families are counted by brute force over world masks.  A
sweep reports each instance of its shape as ``generated``.
"""

from itertools import combinations
from math import comb

import pytest

from revforge import CATALOG, InstanceSpace, check

SHAPES = ["serial", "sercon", "serial2", "pset", "cset", "pset2", "profile2"]


def ordered_bell(n: int) -> int:
    """Ordered partitions of n items: choose the first block, order the rest."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def families(num_worlds: int, max_size: int, jointly_consistent: bool) -> int:
    """Sets of 1..max_size distinct non-empty world sets, sharing a world
    when ``jointly_consistent``."""
    props = range(1, 1 << num_worlds)
    total = 0
    for size in range(1, max_size + 1):
        for combo in combinations(props, size):
            shared = (1 << num_worlds) - 1
            for mask in combo:
                shared &= mask
            total += bool(shared) or not jointly_consistent
    return total


def closed_form(shape: str, atoms: int) -> int:
    worlds = 1 << atoms
    priors, props = ordered_bell(worlds), (1 << worlds) - 1
    pset, cset = families(worlds, 2, True), families(worlds, 2, False)
    return {"serial": priors * props, "sercon": priors * props,
            "serial2": priors * props ** 2, "pset": priors * pset, "cset": priors * cset,
            "pset2": priors * pset ** 2, "profile2": priors ** 2}[shape]


def test_the_closed_forms_match_the_published_counts():
    assert [ordered_bell(n) for n in range(6)] == [1, 1, 3, 13, 75, 541]
    assert (families(2, 2, True), families(4, 2, True)) == (5, 95)
    assert (families(2, 2, False), families(4, 2, False)) == (6, 120)
    assert [closed_form(s, 1) for s in ("serial2", "pset2", "profile2")] == [27, 75, 9]
    assert [closed_form(s, 2) for s in ("serial2", "pset2", "profile2")] == [16875, 676875, 5625]


@pytest.mark.parametrize("atoms", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_each_exhaustive_stream_has_its_closed_form_size(shape, atoms):
    assert sum(1 for _ in InstanceSpace(atoms=atoms).instances(shape)) == closed_form(shape, atoms)


@pytest.mark.parametrize("atoms", [1, 2])
@pytest.mark.parametrize("shape", SHAPES)
def test_a_sweep_reports_every_instance_of_its_shape_as_generated(shape, atoms):
    pid = next(pid for pid, entry in CATALOG.items() if entry.shape == shape)
    assert check(pid, InstanceSpace(atoms=atoms)).generated == closed_form(shape, atoms)
