"""Ordered partitions, conditional belief tables, and rational closure.

The closure round-trip here is the module's main oracle: for every
two-atom preorder t, rebuilding t from its own conditional table must
give back t exactly, and distinct preorders must have distinct tables.
"""

import itertools
import math
import pickle

import pytest

import reference_core as ref
from revforge import (NATURAL, ConditionalSet, InstanceSpace, PartitionError, TPO,
                      UnsatisfiableConditionalsError, conditional_set,
                      intersect_conditionals, rational_closure)
from revforge.tpo import tpo as trusted_tpo, worlds_of
from revforge.postulates import enumerate_tpos

from conftest import tpo


# --- construction and validation ---

def test_blocks_normalize_to_frozensets():
    t = TPO(({0}, [1, 2], (3,)))
    assert t.blocks == (frozenset({0}), frozenset({1, 2}), frozenset({3}))


def test_uniform_and_from_ranks():
    assert TPO.uniform(4) == tpo({0, 1, 2, 3})
    assert TPO.from_ranks([5, 2, 5, 0]) == tpo({3}, {1}, {0, 2})


@pytest.mark.parametrize("count", [2.0, True, False, "3", None, 0, -1])
def test_uniform_needs_an_int_world_count(count):
    with pytest.raises(PartitionError, match="int world count of at least 1"):
        TPO.uniform(count)


@pytest.mark.parametrize("blocks", [
    (),                                  # no blocks
    (frozenset(),),                      # empty block
    (frozenset({0}), frozenset({0, 1})),    # overlap
    (frozenset({0}), frozenset({2})),    # gap: world 1 missing
    (frozenset({0, 2}),),                # not 0..n-1
    5,                                   # not an iterable
    None,
    [5],                                 # a block that is not an iterable
])
def test_invalid_partitions_rejected(blocks):
    with pytest.raises(PartitionError):
        TPO(blocks)


def test_equality_and_hash_use_blocks_only():
    a = tpo({1}, {0, 2}, {3})
    b = TPO.from_ranks([1, 0, 1, 2])
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    # the hash is computed on first use, so it must come out the same
    # whichever way the order was built and whatever was read before it
    makers = {
        "TPO": lambda: TPO([{1}, {0, 2}, {3}]),
        "tpo.tpo": lambda: trusted_tpo((0b0010, 0b0101, 0b1000), 4),
        "uniform": lambda: TPO.uniform(4),
        "from_ranks": lambda: TPO.from_ranks([1, 0, 1, 2]),
        "serial": lambda: NATURAL.revise(TPO.uniform(4), {1}),
        "pickle": lambda: pickle.loads(pickle.dumps(TPO([{1}, {0, 2}, {3}]))),
    }
    for name, make in makers.items():
        for first in (None, "world_masks", "ranks", "blocks"):
            t = make()
            if first:
                getattr(t, first)
            assert hash(t) == hash(t.masks) == hash(make()), (name, first)


# --- order queries ---

def test_rank_compare_and_min():
    t = tpo({1}, {0, 2}, {3})
    assert [t.rank(w) for w in range(4)] == [2, 1, 2, 3]
    assert t.compare(1, 3) < 0
    assert t.compare(0, 2) == 0
    assert t.compare(3, 0) > 0
    assert t.weakly_below(0, 2) and t.weakly_below(2, 0)
    assert t.strictly_below(1, 0)
    assert not t.strictly_below(0, 2)
    assert t.min_of({0, 2, 3}) == frozenset({0, 2})
    assert t.min_of({3}) == frozenset({3})
    assert t.min_of(()) == frozenset()


@pytest.mark.parametrize("world", [-1, 4], ids=["negative", "past-end"])
@pytest.mark.parametrize("query", ["rank", "compare", "weakly_below", "strictly_below"])
def test_order_queries_reject_worlds_outside_the_order(query, world):
    t = TPO.from_ranks([0, 1, 2, 3])
    args = (world,) if query == "rank" else (world, 0)
    with pytest.raises(PartitionError, match=f"world {world} is not in range\\(4\\)"):
        getattr(t, query)(*args)
    if query != "rank":  # either side is checked
        with pytest.raises(PartitionError):
            getattr(t, query)(0, world)


def test_beliefs():
    t = tpo({1, 2}, {0, 3})
    assert t.belief_worlds() == frozenset({1, 2})
    assert t.believes(frozenset({0, 1, 2}))
    assert not t.believes(frozenset({1}))


def test_render_sorts_worlds_within_blocks(lang2):
    t = tpo({2, 1}, {3}, {0})
    assert t.render(lang2) == "[{01,10} < {11} < {00}]"
    assert TPO.uniform(4).render(lang2) == "[{00,01,10,11}]"


# --- enumeration oracle ---

def fubini(n: int) -> int:
    """Ordered-set-partition counts via the binomial recurrence."""
    counts = [1]
    for m in range(1, n + 1):
        counts.append(sum(math.comb(m, k) * counts[m - k] for k in range(1, m + 1)))
    return counts[n]


def test_fubini_reference_values():
    assert [fubini(n) for n in range(9)] == [
        1, 1, 3, 13, 75, 541, 4683, 47293, 545835]


@pytest.mark.parametrize("worlds", [1, 2, 3, 4, 5])
def test_enumeration_matches_fubini(worlds):
    seen = list(enumerate_tpos(worlds))
    assert len(seen) == fubini(worlds)
    assert len(set(seen)) == len(seen)


# --- conditional belief tables ---

def test_strongest_consequent_is_min():
    t = tpo({1}, {0, 2}, {3})
    c = conditional_set(t)
    assert c.strongest(frozenset({0, 3})) == frozenset({0})
    assert c.strongest(frozenset({0, 1, 2, 3})) == frozenset({1})
    assert c.strongest(frozenset()) == frozenset()
    assert c.accepts(frozenset({0, 3}), frozenset({0, 1}))
    assert not c.accepts(frozenset({0, 3}), frozenset({3}))


def test_conditional_tables_are_injective_over_all_two_atom_tpos():
    tables = {conditional_set(t) for t in enumerate_tpos(4)}
    assert len(tables) == 75


def test_closure_inverts_conditional_set_exhaustively():
    for t in enumerate_tpos(4):
        assert rational_closure(conditional_set(t)) == t


def test_intersection_is_pointwise_union():
    a = conditional_set(tpo({0}, {1, 2, 3}))
    b = conditional_set(tpo({3}, {0, 1, 2}))
    both = a.intersect(b)
    assert both.strongest(frozenset({0, 3})) == frozenset({0, 3})
    assert intersect_conditionals([a, b]) == both
    assert intersect_conditionals(iter([a, b])) == both
    with pytest.raises(PartitionError):
        intersect_conditionals([])


@pytest.mark.parametrize("call, message", [
    (lambda: conditional_set(None), "conditional_set takes a TPO, got None"),
    (lambda: conditional_set(5), "conditional_set takes a TPO, got 5"),
    (lambda: rational_closure(None), "rational_closure takes a ConditionalSet, got None"),
    (lambda: intersect_conditionals([None]), "need one or more ConditionalSets, got [None]"),
    (lambda: intersect_conditionals([conditional_set(TPO.uniform(2)), 5]),
     "need one or more ConditionalSets, got [ConditionalSet(2 worlds, 4 antecedents), 5]"),
    (lambda: intersect_conditionals([]), "need one or more ConditionalSets, got []"),
    (lambda: intersect_conditionals(5), "need one or more ConditionalSets, got 5"),
    (lambda: intersect_conditionals(None), "need one or more ConditionalSets, got None"),
    (lambda: TPO(5), "TPO takes an iterable of blocks of worlds, got 5"),
    (lambda: TPO([5]), "TPO takes an iterable of blocks of worlds, got [5]"),
    (lambda: TPO(None), "TPO takes an iterable of blocks of worlds, got None"),
], ids=["table-of-none", "table-of-int", "closure-of-none", "intersect-none",
        "intersect-int", "intersect-empty", "intersect-of-int", "intersect-of-none",
        "order-of-int", "order-of-int-blocks", "order-of-none"])
def test_the_conditional_entries_raise_partition_error_for_a_value_of_another_type(call, message):
    """Each entry names the value it got, as ``TPO(blocks)`` does for
    blocks that are not iterables, and a list holding anything but
    conditional sets is refused, even when it holds one value only."""
    with pytest.raises(PartitionError) as err:
        call()
    assert str(err.value) == message


def test_closure_of_intersection_is_least_committal():
    # intersecting a state with its reverse leaves nothing to separate x from w
    a = conditional_set(tpo({0}, {1, 2}, {3}))
    b = conditional_set(tpo({3}, {1, 2}, {0}))
    merged = rational_closure(a.intersect(b))
    assert merged == tpo({0, 3}, {1, 2})


def _tables_agree(new, old):
    """``new`` answers ``strongest`` and ``accepts`` as the frozenset table
    ``old`` does, for every antecedent; ``accepts`` is probed with the
    strongest consequent, with it less one world, and with the worlds
    outside the antecedent."""
    n = new.num_worlds
    antecedents = list(map(worlds_of, range(1 << n)))
    assert new.antecedents() == antecedents
    for x in antecedents:
        strongest = old.strongest(x)
        assert new.strongest(x) == strongest, x
        probes = [strongest, frozenset(range(n)) - x, *(strongest - {w} for w in strongest)]
        for y in probes:
            assert new.accepts(x, y) is (strongest <= y), (x, y)


def test_tuple_tables_answer_as_the_frozenset_tables():
    """The tables of all 75 two-atom orders, every intersected pair of
    them, and the members and intersections of the seeded three-atom
    profiles the core differential uses, against ``reference_core``."""
    orders = list(enumerate_tpos(4))
    sample = InstanceSpace(atoms=3, mode="sampled", sample_count=150, seed=4242, max_set_size=3)
    profiles = [profile for (profile,) in sample.instances("profile2")]
    pairs = [*itertools.product(orders, repeat=2), *profiles]
    tables = {t: (conditional_set(t), ref.ConditionalSet.from_tpo(ref.TPO(t.blocks)))
              for t in {*orders, *itertools.chain(*profiles)}}
    for new, old in tables.values():
        _tables_agree(new, old)
    for a, b in pairs:
        (new_a, old_a), (new_b, old_b) = tables[a], tables[b]
        _tables_agree(new_a.intersect(new_b), old_a.intersect(old_b))


def test_unsatisfiable_conditionals_raise():
    fz = frozenset
    table = {fz(): fz(), fz({0}): fz({0}), fz({1}): fz({1}),
             fz({0, 1}): fz()}
    with pytest.raises(UnsatisfiableConditionalsError):
        rational_closure(ConditionalSet(2, table))


def test_a_conditional_table_needs_every_antecedent_once():
    """A table given to the constructor is checked when it is built, so
    reading it never meets a missing antecedent."""
    from revforge import SpaceError
    fz = frozenset
    with pytest.raises(PartitionError, match="each of the 16 antecedents, got 1"):
        ConditionalSet(4, {fz({1}): fz({1})})
    full = {fz(): fz(), fz({0}): fz({0}), fz({1}): fz({1}), fz({0, 1}): fz()}
    assert len(ConditionalSet(2, full).antecedents()) == 4
    with pytest.raises(PartitionError, match="got 3"):
        ConditionalSet(2, {x: y for x, y in full.items() if x != fz({1})})
    with pytest.raises(PartitionError, match="got 5"):
        ConditionalSet(2, {**full, (0,): fz({0})})
    with pytest.raises(PartitionError):
        ConditionalSet(2, {**full, fz({0, 1}): fz({2})})
    with pytest.raises(SpaceError, match="supported up to 8 worlds, got 16"):
        ConditionalSet(16, {})


def test_a_conditional_consequent_lies_inside_its_antecedent():
    fz = frozenset
    outside = {fz(): fz({0}), fz({0}): fz({1}), fz({1}): fz({1}), fz({0, 1}): fz({1})}
    with pytest.raises(PartitionError, match="inside"):
        ConditionalSet(2, outside)
    with pytest.raises(PartitionError, match="inside"):
        ConditionalSet(2, {**outside, fz(): fz()})
    # an empty consequent is allowed under any antecedent
    empty = {fz(): fz(), fz({0}): fz(), fz({1}): fz({1}), fz({0, 1}): fz({1})}
    assert ConditionalSet(2, empty).strongest(fz({0})) == fz()


def test_conditional_table_guard_on_world_count():
    from revforge import SpaceError
    with pytest.raises(SpaceError):
        conditional_set(TPO.uniform(16))
