"""Spans and counters for the traced run, recorded from outside the package.

A span is recorded around each call the benchmark makes into a layer:
every verdict on the sweeps, and loads, run, to_json and replay for each
scenario document.  Calls below that happen hundreds of thousands of
times a sweep (serial operators, aggregation, ``CheckContext`` methods,
instance generation), so they are folded into per-request totals instead
of one span each: a call count plus the time spent in the outermost call
of each layer.  A layer's self time is its time minus its children's.

The hooks use only public seams: operator and strategy objects passed
through ``OperatorConfig`` (or swapped into a parsed ``Scenario``), which
keep their registry names, and methods replaced on one ``CheckContext`` or
``InstanceSpace`` instance.  A hook whose target is gone is skipped and
reported in ``missing`` by the layer it would have timed; the metrics it
fed are then absent.
"""

from __future__ import annotations

import copy
import dataclasses
import time
import types
from contextlib import contextmanager

ENGINE_METHODS = ("previse", "pcontract", "aggregate", "revise", "contract")


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, list[int]] = {}   # name -> [calls, ns in outermost calls]
        self.missing: list[str] = []
        self._open: list[int] = []
        self._depth: dict[str, int] = {}

    @contextmanager
    def span(self, name: str, request: int):
        record = {"id": len(self.spans), "name": name, "request": request,
                  "parent": self._open[-1] if self._open else None,
                  "start_ns": time.perf_counter_ns(), "end_ns": None}
        before = {k: tuple(v) for k, v in self.totals.items()}
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end_ns"] = time.perf_counter_ns()
            self._open.pop()
            folded = {}
            for key, (calls, ns) in self.totals.items():
                was = before.get(key, (0, 0))
                if calls != was[0]:
                    folded[key] = [calls - was[0], ns - was[1]]
            if folded:
                record["folded"] = folded

    def timed(self, layer: str, name: str, fn):
        """Wrap ``fn``: count every call, time the outermost one per layer."""
        totals = self.totals.setdefault(name, [0, 0])
        depth = self._depth
        clock = time.perf_counter_ns

        def wrapper(*args, **kwargs):
            level = depth.get(layer, 0)
            depth[layer] = level + 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                depth[layer] = level
                totals[0] += 1
                if not level:
                    totals[1] += elapsed
        return wrapper

    def layer_seconds(self, prefix: str) -> float:
        return sum(ns for name, (_, ns) in self.totals.items()
                   if name.startswith(prefix)) / 1e9

    def calls(self, prefix: str) -> int:
        return sum(calls for name, (calls, _) in self.totals.items() if name.startswith(prefix))

    def note_missing(self, what: str) -> None:
        if what not in self.missing:
            self.missing.append(what)


# --- hooks ----------------------------------------------------------------

class Hooks:
    """Timed stand-ins for operators and strategies, one per original object.

    Keeping one stand-in per original keeps the identities the engine's
    memo keys rely on: when a config's base and finisher are the same
    operator, their serial results still share memo entries.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._made: dict[int, object] = {}

    def operator(self, op):
        hit = self._made.get(id(op))
        if hit is None:
            if not (dataclasses.is_dataclass(op) and hasattr(op, "transform")):
                self.tracer.note_missing("serial")
                return op
            hit = dataclasses.replace(op, transform=self.tracer.timed(
                "serial", f"serial.{op.name}", op.transform))
            self._made[id(op)] = hit
        return hit

    def strategy(self, strategy):
        hit = self._made.get(id(strategy))
        if hit is None:
            if not (dataclasses.is_dataclass(strategy) and hasattr(strategy, "team")):
                self.tracer.note_missing("team")
                return strategy
            hit = dataclasses.replace(strategy, team=self.tracer.timed(
                "team", f"team.{strategy.name}", strategy.team))
            self._made[id(strategy)] = hit
        return hit

    def aggregator(self, aggregator):
        """A stand-in whose ``aggregate`` is timed as the aggregation layer."""
        if not hasattr(aggregator, "aggregate"):
            self.tracer.note_missing("aggregation")
            return aggregator
        return types.SimpleNamespace(
            strategy=getattr(aggregator, "strategy", None), name=aggregator.name,
            aggregate=self.tracer.timed("aggregation", f"aggregation.{aggregator.name}",
                                        aggregator.aggregate))

    def config(self, rf, config):
        """The same operator choice, with every operator a timed stand-in."""
        named = config.describe()
        registry = {"revision": rf.get_revision_operator, "base": rf.get_revision_operator,
                    "finisher": rf.get_revision_operator,
                    "contraction": rf.get_contraction_operator}
        fields = {key: self.operator(get(named[key])) for key, get in registry.items()}
        return rf.OperatorConfig(strategy=self.strategy(rf.make_strategy(named["strategy"])),
                                 **fields)

    def context(self, rf, lang, config):
        ctx = rf.CheckContext(lang, self.config(rf, config))
        for name in ENGINE_METHODS:
            method = getattr(ctx, name, None)
            if method is None:
                self.tracer.note_missing(f"engine.{name}")
                continue
            setattr(ctx, name, self.tracer.timed("engine", f"engine.{name}", method))
        if hasattr(ctx, "aggregator"):
            ctx.aggregator = self.aggregator(ctx.aggregator)
        else:
            self.tracer.note_missing("aggregation")
        return ctx

    def space(self, space):
        """A copy of ``space`` whose instance stream is timed as generation."""
        original = getattr(space, "instances", None)
        if original is None:
            self.tracer.note_missing("spaces")
            return space
        timed = copy.copy(space)
        totals = self.tracer.totals.setdefault("spaces.instances", [0, 0])
        clock = time.perf_counter_ns

        def instances(shape):
            stream = iter(original(shape))
            while True:
                start = clock()
                try:
                    item = next(stream)
                except StopIteration:
                    totals[1] += clock() - start
                    return
                totals[0] += 1
                totals[1] += clock() - start
                yield item

        timed.instances = instances
        return timed

    def scenario(self, scenario):
        """The parsed scenario with timed operators; names are unchanged."""
        try:
            return dataclasses.replace(
                scenario, base=self.operator(scenario.base),
                finisher=self.operator(scenario.finisher),
                contraction=self.operator(scenario.contraction),
                aggregator=self.aggregator(dataclasses.replace(
                    scenario.aggregator, strategy=self.strategy(scenario.aggregator.strategy))))
        except (TypeError, AttributeError):
            self.tracer.note_missing("scenario")
            return scenario


def hook_plan(rf, plan, hooks: Hooks):
    """Give a freshly built sweep plan hooked contexts and spaces."""
    plan.contexts = [hooks.context(rf, plan.verdicts[0].space.lang, c) for c in plan.configs]
    for v in plan.verdicts:
        v.space = hooks.space(v.space)
    return plan
