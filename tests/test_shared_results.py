"""Contexts over more worlds than an exhaustive space enumerates share
their pipeline results through the orders they revise.

Such a context keeps no rows; its ``previse`` and ``pcontract`` keep each
result on the prior order, as the order's ``last_run``: the operators,
the family and the result's block masks.  A later call on that order
with the same family and equal operators, from any context, rebuilds the
result from those masks, so sweeps that re-read a kept stream run the
pipeline only on its first reading.
"""

import gc
import pickle
import weakref
from types import SimpleNamespace

import pytest

from revforge import InstanceSpace, OperatorConfig, check
from revforge.errors import InconsistentInputError
from revforge.postulates import spaces
from revforge.postulates.catalog import CATALOG, PAIR_CHECKS, RC_IDENTITY
from revforge.postulates.engine import CheckContext
from revforge.postulates.spaces import language
from revforge.serial import NATURAL, NATURAL_CONTRACT
from revforge.tpo import mask_of


def _masks(s, n: int = 8) -> tuple:
    return tuple(mask_of(member, n) for member in s)


def _counting(calls: list, operator=NATURAL):
    """``operator``, as a stand-in that logs the mask of each call."""
    def transform(t, mask):
        calls.append(mask)
        return operator.transform(t, mask)
    return SimpleNamespace(name=operator.name, transform=transform)


def _first(atoms: int = 3, shape: str = "pset"):
    return next(iter(InstanceSpace(atoms=atoms, mode="sampled", sample_count=1,
                                   seed=47).instances(shape)))


def test_contexts_over_equal_operators_share_what_an_order_keeps():
    """A result one 3-atom context computes is kept on the order, and a
    second context over equal operators gets it without a pipeline call;
    another base, finisher or strategy runs the pipeline again, and so
    does a contraction under another strategy.  A context over 4 worlds
    keeps its results in rows, not on the order."""
    calls = []
    base = _counting(calls)
    first = CheckContext(language(3), OperatorConfig(base=base))
    second = CheckContext(language(3), OperatorConfig(base=base))
    t, s = _first()
    masks = _masks(s)
    result = first.previse(t, masks)
    assert len(calls) == len(masks)
    assert t.last_run == ((base, NATURAL, first.aggregator.strategy), masks, result.masks)
    calls.clear()
    assert second.previse(t, masks) == result and calls == []

    for config in (OperatorConfig(base=base, finisher="restrained"),
                   OperatorConfig(base=base, strategy="round-robin")):
        calls.clear()
        assert CheckContext(language(3), config).previse(t, masks) is not None
        assert len(calls) == len(masks)
    calls.clear()
    lex = CheckContext(language(3), OperatorConfig(base="lex", finisher="lex"))
    assert lex.previse(t, masks) == lex.parallel_rev.revise_masks(t, masks)
    assert t.last_run[0][0].name == "lex"

    contraction = _counting(calls, NATURAL_CONTRACT)
    c, family = _first(shape="cset")
    for strategy, runs in (("stq", 1), ("stq", 0), ("round-robin", 1)):
        calls.clear()
        ctx = CheckContext(language(3), OperatorConfig(contraction=contraction,
                                                       strategy=strategy))
        assert ctx.pcontract(c, _masks(family)) == ctx.parallel_con.contract_masks(
            c, _masks(family))
        assert len(calls) == (runs + 1) * len(family)

    t4, s4 = _first(atoms=2)
    CheckContext(language(2), OperatorConfig()).previse(t4, _masks(s4, 4))
    assert t4.last_run is None


def test_what_an_order_keeps_refers_to_no_context():
    """The kept triple holds operators, not the context, so a context goes
    when it is deleted; equality, the hash and pickling ignore it."""
    ctx = CheckContext(language(3), OperatorConfig())
    t, s = _first()
    ctx.previse(t, _masks(s))
    ref = weakref.ref(ctx)
    del ctx
    gc.collect()
    assert ref() is None and t.last_run is not None
    again = pickle.loads(pickle.dumps(t))
    assert again == t and hash(again) == hash(t) and again.last_run is None


def test_a_second_sweep_of_a_kept_stream_runs_no_pipeline_on_its_prefix():
    """With a counting stand-in base, a second sweep of a kept stream
    through a fresh context makes no pipeline call for any family of the
    stream's kept prefix, and a base call per member for each draw past
    it, whose orders are drawn afresh."""
    calls = []
    config = OperatorConfig(base=_counting(calls))
    space = InstanceSpace(atoms=3, mode="sampled", sample_count=spaces._STREAM_CAP + 100,
                          seed=47)
    members = []
    for sweep in range(2):
        ctx = CheckContext(language(3), config)
        calls.clear()
        members.clear()
        for t, s in space.instances("pset"):
            ctx.previse(t, _masks(s))
            members.append(len(s))
    assert len(calls) == sum(members[spaces._STREAM_CAP:]) > 0


def test_an_inconsistent_family_is_never_kept():
    """An inconsistent family raises the same culprits on each call, and
    the order keeps the result it held before."""
    calls = []
    ctx = CheckContext(language(3), OperatorConfig(base=_counting(calls)))
    t, s = _first()
    ctx.previse(t, _masks(s))
    kept = t.last_run
    clash = (0b1100, 0b1010, 0b0001)
    raised = []
    for _ in range(2):
        with pytest.raises(InconsistentInputError) as err:
            ctx.previse(t, clash)
        raised.append((err.value.culprits, str(err.value)))
    assert raised[0] == raised[1] and raised[0][0] == ("member 1", "member 2")
    assert t.last_run is kept


def _reports(ids, space, ctx_of) -> dict:
    """Each id's report through the context ``ctx_of()`` gives, minus its
    elapsed time."""
    reports = {}
    for pid in ids:
        report = check(pid, space, ctx=ctx_of())
        reports[pid] = {**report.to_json_dict(), "elapsed_ms": None,
                        "total_hits": report.total_hits}
    return reports


@pytest.mark.parametrize("base, finisher, strategy", [
    ("natural", "natural", "stq"),
    ("lex", "restrained", "round-robin"),
    ("restrained", "lex", "first-then-full"),
])
def test_kept_results_report_what_the_operators_do(base, finisher, strategy):
    """Every id ``check`` accepts gives the same 3-atom report, witnesses
    and counts included, whether its sweep reads results that earlier
    sweeps of the same stream kept on the orders, on a first pass over
    the ids and on a second, or runs the shipped operators on every
    call."""
    config = OperatorConfig(revision=finisher, base=base, finisher=finisher, strategy=strategy)
    space = InstanceSpace(atoms=3, mode="sampled", sample_count=300, seed=5, operators=config)
    ids = [*CATALOG, *PAIR_CHECKS, RC_IDENTITY.id]

    def plain() -> CheckContext:
        ctx = CheckContext.from_space(space)
        ctx.previse = ctx.parallel_rev.revise_masks
        ctx.pcontract = ctx.parallel_con.contract_masks
        return ctx

    cold = _reports(ids, space, plain)
    for _ in range(2):
        assert _reports(ids, space, lambda: CheckContext.from_space(space)) == cold
