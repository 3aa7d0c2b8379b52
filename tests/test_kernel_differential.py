"""The per-draw kernels against the code they replaced.

``reference_core`` keeps the sampled stream as it was drawn through
``shuffle``, ``randrange`` and ``randint``, and the order checks as the
pair loops they were.  Here the shipped code must give:

* the same sampled stream, draw for draw, for every shape at 1-4 atoms,
  several seeds and ``max_set_size`` 1-4 and the largest allowed, and
  leave a generator in the same state after a preorder draw at every
  width up to 16 worlds and after every family draw;
* the same hits from ``_order_flips``, ``_kept_below`` (weak and strict)
  and ``_promoted`` for every pair of the 75 two-atom orders and every
  region, though it names them with one mask expression per world;
* the same PC3 and PC4 hits on every exhaustive two-atom instance and on
  a seeded three-atom sample, under the default operators and under base
  operators that reverse or forget the prior, which make them fail.
"""

import itertools
import random
from types import SimpleNamespace

import pytest

import reference_core as ref
from revforge import (CATALOG, TPO, CheckContext, InstanceSpace, OperatorConfig,
                      SerialRevisionOperator)
from revforge.postulates import enumerate_tpos, random_tpo
from revforge.postulates.catalog import _kept_below, _order_flips, _promoted
from revforge.postulates.spaces import SHAPES, _family_draw, language
from revforge.tpo import mask_of, worlds_of

ORDERS = tuple(enumerate_tpos(4))
SEEDS = (1, 7, 1729)


def plain(value):
    """An instance with its orders as block-mask tuples, as the reference draws them."""
    if isinstance(value, TPO):
        return value.masks
    if isinstance(value, tuple):
        return tuple(plain(v) for v in value)
    return value


# --- the sampled stream ---

def test_the_reference_covers_every_shape():
    assert set(ref.SAMPLED_PARTS) == set(SHAPES)


def set_sizes(atoms):
    """``max_set_size`` 1-4 and the largest allowed, 2^n - 1 at n worlds,
    where the family size is drawn with the most bits.  At 4 atoms the
    largest, 65535, is left out: a family would take 32,768 member draws
    on average, and a jointly consistent one would seldom come within the
    sampler's 1000 tries."""
    largest = (1 << (1 << atoms)) - 1
    sizes = {1, 2, 3, 4, largest} if atoms < 4 else {1, 2, 3, 4}
    return sorted(size for size in sizes if size <= largest)


@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_sampled_streams_match_the_reference(shape, atoms):
    for seed, size in itertools.product(SEEDS, set_sizes(atoms)):
        space = InstanceSpace(atoms=atoms, mode="sampled", sample_count=60, seed=seed,
                              max_set_size=size)
        expected = ref.sampled_stream(shape, atoms, 60, seed, size)
        assert [plain(instance) for instance in space.instances(shape)] == expected, \
            (seed, size)


@pytest.mark.parametrize("num_worlds", range(1, 17))
def test_random_tpo_draws_what_shuffle_drew(num_worlds):
    """Same order and same generator state afterwards, so every later draw
    of a stream is the same too."""
    for seed in SEEDS:
        shipped, reference = random.Random(seed), random.Random(seed)
        for _ in range(20):
            assert random_tpo(shipped, num_worlds).masks == ref.random_tpo(reference, num_worlds)
        assert shipped.getstate() == reference.getstate()


@pytest.mark.parametrize("jointly_consistent", [True, False], ids=["pset", "cset"])
@pytest.mark.parametrize("atoms", [1, 2, 3, 4])
def test_random_families_draw_what_randint_and_randrange_drew(atoms, jointly_consistent):
    num_worlds = 1 << atoms
    for seed, size in itertools.product(SEEDS, set_sizes(atoms)):
        shipped, reference = random.Random(seed), random.Random(seed)
        draw = _family_draw(shipped, num_worlds, size, jointly_consistent)
        for _ in range(20):
            family = draw()
            assert family == ref.random_family(reference, num_worlds, size, jointly_consistent)
            assert shipped.getstate() == reference.getstate(), (seed, size)


# --- order checks ---

# each check as (shipped, reference), over (t, t2, inside, outside): the
# shipped one takes masks, the reference world sets
ORDER_CHECKS = {
    "flips": (lambda t, t2, inside, outside: _order_flips(t, t2, inside),
              lambda t, t2, inside, outside: ref.order_flips(t, t2, inside)),
    "kept-weak": (lambda t, t2, inside, outside: _kept_below(t, t2, inside, outside, True),
                  lambda t, t2, inside, outside: ref.kept_below(t, t2, inside, outside, True)),
    "kept-strict": (lambda t, t2, inside, outside: _kept_below(t, t2, inside, outside, False),
                    lambda t, t2, inside, outside: ref.kept_below(t, t2, inside, outside, False)),
    "promoted": (_promoted, ref.promoted),
}


@pytest.mark.parametrize("check", ORDER_CHECKS)
def test_order_checks_match_pair_enumeration(check):
    shipped, reference = ORDER_CHECKS[check]
    failing = 0
    for t, t2 in itertools.product(ORDERS, repeat=2):
        for region in range(16):
            expected = reference(t, t2, worlds_of(region), worlds_of(15 ^ region))
            assert shipped(t, t2, region, 15 ^ region) == expected, (t, t2, region)
            failing += bool(expected)
    assert failing


REVERSE = SerialRevisionOperator("reverse", lambda t, mask: TPO(tuple(reversed(t.blocks))))
# a base that forgets the prior, so the finisher leaves ties where it held
# strict preferences: PC3 then fails with no world pair flipped
FLATTEN = SerialRevisionOperator("flatten", lambda t, mask: TPO.uniform(t.num_worlds))
CONFIGS = {"natural": OperatorConfig(), "reverse-base": OperatorConfig(base=REVERSE),
           "flatten-base": OperatorConfig(base=FLATTEN)}
FAILING = {"natural": (), "reverse-base": ("PC3", "PC4"), "flatten-base": ("PC3",)}


def psets(atoms):
    """Every two-atom ``pset`` instance, or a seeded three-atom sample."""
    if atoms == 2:
        return InstanceSpace(atoms=2).instances("pset")
    return InstanceSpace(atoms=3, mode="sampled", sample_count=600, seed=2101,
                         max_set_size=3).instances("pset")


@pytest.mark.parametrize("atoms", [2, 3])
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("pid", ["PC3", "PC4"])
def test_pc3_and_pc4_match_pair_enumeration(pid, config_name, atoms):
    ctx = CheckContext(language(atoms), CONFIGS[config_name])
    n = ctx.lang.num_worlds
    # the reference revises by world sets, through the same ``ctx.previse``
    view = SimpleNamespace(
        previse=lambda t, sets: ctx.previse(t, tuple(mask_of(m, n) for m in sets)))
    reference = {"PC3": ref.pc3, "PC4": ref.pc4}[pid]
    failing = 0
    for t, s in psets(atoms):
        expected = reference(view, t, s)
        assert CATALOG[pid].evaluate(ctx, t, s) == expected, (t, s)
        failing += bool(expected)
    assert bool(failing) == (pid in FAILING[config_name])
