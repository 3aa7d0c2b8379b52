"""The sweep's plan table and the finisher's row cursor.

Where a context keeps rows, ``check`` keeps each distinct input's plan in
a table keyed by the stream's own input objects, one dict level per
input.  These tests feed it streams whose inputs are equal but not the
same objects, bound it, and count what the rows compute when one
operator object fills every revision role.
"""

import collections
from dataclasses import replace

import pytest

from revforge import (CATALOG, CheckContext, InstanceSpace, OperatorConfig,
                      ParallelRevisionOperator, SerialRevisionOperator, check)
from revforge.postulates import engine
from revforge.serial import natural_revise


def _fresh(value):
    """An equal copy of an input that shares no object with it."""
    if isinstance(value, tuple):
        return tuple(_fresh(member) for member in value)
    return frozenset(list(value))


class FreshInputs(InstanceSpace):
    """``InstanceSpace`` whose stream yields, for every prior, fresh equal
    copies of each input in place of the shared objects."""

    def instances(self, shape: str):
        prior, copies = None, {}
        for t, *inputs in super().instances(shape):
            if t is not prior:
                prior, copies = t, {}
            for value in inputs:
                if value not in copies:
                    copies[value] = _fresh(value)
            yield (t, *[copies[value] for value in inputs])


def _counting_plan(monkeypatch, pid: str, planned: list) -> None:
    entry = CATALOG[pid]

    def plan(full, *inputs):
        planned.append(inputs)
        return entry.plan(full, *inputs)

    monkeypatch.setitem(CATALOG, pid, replace(entry, plan=plan))


def _outcome(report):
    return (report.generated, report.checked, report.skipped, report.total_hits,
            report.violations)


@pytest.mark.parametrize("pid, shape, distinct, hits", [
    ("Conj-star", "pset", 95, 0),
    ("K7", "serial2", 225, 0),
    ("P-star", "pset2", 9_025, 14_544),
])
def test_equal_fresh_inputs_find_the_plans_of_the_shared_ones(monkeypatch, pid, shape,
                                                              distinct, hits):
    """A stream that yields fresh copies of its inputs for every prior
    reports what the shared-object stream reports, witnesses included,
    and still plans each distinct input once: the table is keyed by
    equal inputs, not by the objects."""
    shared = InstanceSpace(atoms=2)
    fresh = FreshInputs(atoms=2)
    by_input: dict = {}
    for t, *inputs in fresh.instances(shape):
        by_input.setdefault(tuple(inputs), []).append(inputs[-1])
    copies = next(iter(by_input.values()))
    assert len(copies) == 75 and copies[0] == copies[1] and copies[0] is not copies[1]
    planned: list = []
    _counting_plan(monkeypatch, pid, planned)
    expected = check(pid, shared)
    assert len(planned) == len(set(planned)) == distinct
    planned.clear()
    report = check(pid, fresh)
    assert len(planned) == len(set(planned)) == distinct
    assert _outcome(report) == _outcome(expected)
    assert report.total_hits == hits and bool(report.violations) is bool(hits)


def test_a_full_two_level_table_is_cleared(monkeypatch):
    """Plans count across both levels of the table: with ``_MEMO`` at
    100, a 2-atom K7 sweep, which meets 225 distinct input pairs, plans
    some pair again after the table was cleared, and reports what the
    unbounded sweep reports."""
    space = InstanceSpace(atoms=2)
    planned: list = []
    _counting_plan(monkeypatch, "K7", planned)
    unbounded = check("K7", space)
    assert len(planned) == 225
    monkeypatch.setattr(engine, "_MEMO", 100)
    planned.clear()
    bounded = check("K7", space)
    assert len(planned) > 225
    assert _outcome(bounded) == _outcome(unbounded)
    assert (bounded.generated, bounded.checked) == (16_875, 13_125)


# find lookups a fresh context made while the finisher shared the base's
# cursor, with one operator in every revision role: each pipeline miss
# moved the base's current row to the aggregate and back
_SHARED_CURSOR_LOOKUPS = {
    ("Conj-star", "stq"): 14_250, ("Conj-star", "round-robin"): 14_250,
    ("C-star-1-pair", "stq"): 46_483, ("C-star-1-pair", "round-robin"): 46_509,
}


@pytest.mark.parametrize("strategy", ["stq", "round-robin"])
@pytest.mark.parametrize("pid", ["Conj-star", "C-star-1-pair"])
def test_the_finisher_keeps_a_cursor_of_its_own(monkeypatch, pid, strategy):
    """One operator object filling ``revision``, ``base`` and
    ``finisher`` keeps one row table, and its rows compute each of the
    1,125 two-atom (order, mask) results once, as they did when the
    finisher shared the base's cursor.  The finisher's own cursor saves
    at least one order lookup per pipeline miss, and ``memo_info`` names
    the same tables."""
    computed = collections.Counter()

    def counting(t, mask):
        computed[t, mask] += 1
        return natural_revise(t, mask)

    misses = []
    shipped = ParallelRevisionOperator.revise_masks

    def counting_misses(self, t, masks, labels=None):
        misses.append(1)
        return shipped(self, t, masks, labels)

    monkeypatch.setattr(ParallelRevisionOperator, "revise_masks", counting_misses)
    op = SerialRevisionOperator("counting", counting)
    space = InstanceSpace(atoms=2, operators=OperatorConfig(
        revision=op, base=op, finisher=op, strategy=strategy))
    ctx = CheckContext.from_space(space)
    report = check(pid, space, ctx=ctx)
    assert report.holds and report.checked == 7_125
    assert sum(computed.values()) == len(computed) == 1_125
    names = {"aggregate", "follow_ups", "conditionals", "revision+base+finisher.find",
             "revision+base+finisher.intern", "contraction.find", "contraction.intern"}
    info = ctx.memo_info()
    assert set(info) == names | ({"set_keys"} if strategy == "stq" else set())
    rows, finisher = ctx.parallel_rev.base, ctx.parallel_rev.finisher
    assert finisher is not rows and (finisher.find, finisher.intern) == (rows.find, rows.intern)
    find = info["revision+base+finisher.find"]
    assert len(misses) == 7_125
    assert find.hits + find.misses <= _SHARED_CURSOR_LOOKUPS[pid, strategy] - len(misses)
