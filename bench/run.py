"""revforge benchmark: seeded workloads through the public API, outputs checked.

Run from the repository root:

    python3 bench/run.py --workload exhaustive-2atom --seed 1 --seconds 6 --trace 0

Workloads (see bench/README.md for why each exists):

* ``exhaustive-2atom``: acceptance criterion 3's per-combination block at
  2 atoms, for three base x finisher x strategy combinations the seed
  picks, plus the rc-identity sweep; every sweep covers a seeded quarter
  of the prior orders and every input family for each.
* ``sampled-3atom``: criterion 3's seeded 3-atom block at about half of
  its draws, with the workload seed as the space seed, plus rc-identity
  on sampled 3-atom profiles.
* ``scenario-4atom``: generated scenario documents over 4 atoms, each one
  loaded, run, rendered and replayed; ``--seconds`` sets how many.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the
workload untraced and then traced, checks that both produce the same
outputs, and prints the per-layer metrics.  The last line of standard
output is one JSON object; details, including provenance, go to
``.bench_out/`` under the current directory.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
import time
from hashlib import sha256
from pathlib import Path

import layers
import tracing
import workloads

SETUP_REPEATS = 5
SCENARIO = "scenario-4atom"

END_TO_END = {"setup_s": "s", "wall_s": "s", "instances_per_s": "1/s", "peak_rss_mb": "MB"}
VERDICT_NAMES = (workloads.SOUND_IDS + tuple(f"{s}-pair" for s, _ in workloads.PAIRS)
                 + ("Ind-star",) + workloads.CONTRACTION_IDS + ("rc-identity",))
MICRO = ("tpo.TPO.us", "tpo.min_of.us", "serial.natural.us", "serial.lex.us",
         "serial.restrained.us", "serial.natural-contract.us", "aggregation.stq.us",
         "aggregation.round-robin.us", "aggregation.first-then-full.us",
         "parallel.revise_worlds.us", "parallel.contract_worlds.us",
         "tpo.conditional_set.us", "tpo.rational_closure.us",
         "logic.parse_formula.us", "logic.models.us")
SWEEP_LAYER = {
    "spaces.generate_s": "s", "spaces.generated": "count",
    "engine.previse.calls": "count", "engine.serial_per_previse": "ratio",
    "engine.pipeline_miss_ratio": "ratio",
    "engine.counted_ratio": "ratio", "engine.self_s": "s", "catalog.self_s": "s",
    **{f"catalog.{name}.s": "s" for name in VERDICT_NAMES},
}
SCENARIO_LAYER = {f"scenario.{part}.s": "s" for part in ("loads", "run", "to_json", "replay")}
# per-layer metrics that a missing hook leaves without data
NEEDS_HOOK = {
    "serial": ("serial.calls", "serial.self_s", "engine.serial_per_previse", "engine.self_s"),
    "team": ("aggregation.rounds",),
    "aggregation": ("aggregation.rounds", "aggregation.self_s", "engine.self_s"),
    "engine.previse": ("engine.previse.calls", "engine.serial_per_previse",
                       "engine.pipeline_miss_ratio", "engine.self_s", "catalog.self_s"),
    "engine.pcontract": ("engine.serial_per_previse", "engine.pipeline_miss_ratio",
                         "engine.self_s", "catalog.self_s"),
    "engine.aggregate": ("engine.pipeline_miss_ratio",),
    "spaces": ("catalog.self_s",),
    "scenario": ("serial.calls", "serial.self_s", "aggregation.rounds", "aggregation.self_s"),
}
PER_LAYER = {
    **{name: "us" for name in MICRO},
    "serial.calls": "count", "serial.self_s": "s",
    "aggregation.rounds": "ratio", "aggregation.self_s": "s",
    **SWEEP_LAYER, **SCENARIO_LAYER, "trace.overhead_s": "s",
}


# --- provenance -----------------------------------------------------------

def _git_commit(root: Path):
    """The checked-out commit, read from .git without running git."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, args, samples: dict) -> dict:
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "nproc": nproc,
            "commit": _git_commit(root), "source_sha256": _source_digest(root / "src"),
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "samples": samples}


# --- statistics -----------------------------------------------------------

def tail_percentile(count: int) -> int:
    """p99, or the highest percentile with at least ten samples beyond it,
    never below the median."""
    if count < 20:
        return 50
    return max(50, min(99, int(100 * (1 - 10 / count))))


def percentile(values: list[float], p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- set-up ---------------------------------------------------------------

def timed_setup(args) -> tuple[float, list[float], object, object]:
    """Import revforge afresh and build the inputs, SETUP_REPEATS times.

    Returns the median, every sample, and the package and plan of the
    last repetition, which the run uses.
    """
    texts = workloads.documents(args.seed, args.seconds) if args.workload == SCENARIO else []
    samples = []
    for _ in range(SETUP_REPEATS):
        for name in [m for m in sys.modules if m == "revforge" or m.startswith("revforge.")]:
            del sys.modules[name]
        start = time.perf_counter()
        rf = importlib.import_module("revforge")
        plan = workloads.build(rf, args.workload, args.seed, texts)
        samples.append(time.perf_counter() - start)
    return statistics.median(samples), samples, rf, plan


# --- the two kinds of run -------------------------------------------------

def _work_done(args, outcomes) -> int:
    if args.workload == SCENARIO:
        return sum(o.steps for o in outcomes)
    return sum(o.checked for o in outcomes)


def end_to_end(args, rf, plan, setup_s: float) -> tuple[dict, list, dict]:
    gc.collect()
    outcomes = workloads.run(rf, args.workload, plan)
    wall = sum(o.seconds for o in outcomes)
    latencies = [o.seconds * 1000.0 for o in outcomes]
    tail = tail_percentile(len(latencies))
    metrics = {
        "setup_s": setup_s,
        "wall_s": wall,
        "instances_per_s": _work_done(args, outcomes) / wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    # request latencies are recorded, not bounded: see bench/README.md
    detail = {"requests": [{"name": o.name, "ms": o.seconds * 1000.0, "checked": o.checked,
                            "steps": o.steps} for o in outcomes],
              "request_ms": {"count": len(latencies), "p50": percentile(latencies, 50),
                             f"p{tail}": percentile(latencies, tail)}}
    return metrics, outcomes, detail


def _vacuity(plan) -> tuple[list[dict], float]:
    """Instances generated per verdict, counted from outside the engine by
    iterating each verdict's instance stream again, untimed by the engine."""
    rows = []
    generate_s = 0.0
    for v in plan.verdicts:
        start = time.perf_counter()
        generated = sum(1 for _ in v.space.instances(v.shape))
        generate_s += time.perf_counter() - start
        rows.append({"verdict": v.name, "generated": generated, "predicted": v.expect_checked})
    return rows, generate_s


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _span_seconds(spans: list[dict], name: str) -> float:
    return sum(s["end_ns"] - s["start_ns"] for s in spans if s["name"] == name) / 1e9


def per_layer(args, rf, plan, root: Path) -> tuple[dict, list, dict]:
    """Untraced pass, traced pass, parity, vacuity and layer timings."""
    gc.collect()
    reference = workloads.run(rf, args.workload, plan)
    untraced_wall = sum(o.seconds for o in reference)

    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    if args.workload == SCENARIO:
        traced, extra = plan, {"prepare": hooks.scenario}
    else:
        fresh = workloads.build(rf, args.workload, args.seed, [])
        workloads.expect_domain_counts(fresh)
        traced, extra = tracing.hook_plan(rf, fresh, hooks), {}
    gc.collect()
    with tracer.span("run", -1):
        outcomes = workloads.run(rf, args.workload, traced, span=tracer.span, **extra)
    traced_wall = sum(o.seconds for o in outcomes)

    for i, (ref, out) in enumerate(zip(reference, outcomes)):
        if ref.problems:
            out.problems.extend(f"untraced: {p}" for p in ref.problems)
        if ref.output != out.output:
            out.problems.append(f"request {i} ({out.name}): traced output differs from untraced")
    if len(reference) != len(outcomes):
        outcomes[-1].problems.append("traced and untraced runs made different request counts")

    spans = tracer.spans
    serial_s = tracer.layer_seconds("serial.")
    aggregation_s = tracer.layer_seconds("aggregation.")
    metrics: dict[str, float] = {
        "serial.calls": tracer.calls("serial."),
        "serial.self_s": serial_s,
        "aggregation.rounds": _ratio(tracer.calls("team."), tracer.calls("aggregation.")),
        "aggregation.self_s": aggregation_s,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    notes = [f"{m} hook is missing; absent: {', '.join(NEEDS_HOOK.get(m, ()))}"
             for m in tracer.missing]
    detail: dict = {"untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall}

    if args.workload == SCENARIO:
        for name in SCENARIO_LAYER:
            metrics[name] = _span_seconds(spans, name[:-2])
        metrics.update({name: 0 for name in SWEEP_LAYER})
        notes.append("spaces.*, engine.* and catalog.* are 0: scenario documents make no sweep")
    else:
        rows, generate_s = _vacuity(plan)
        for row, out in zip(rows, outcomes):
            row["checked"] = out.checked
            row["counted_ratio"] = _ratio(out.checked, row["generated"])
            row["skipped"] = row["generated"] - out.checked
        generated = sum(r["generated"] for r in rows)
        pipeline_calls = tracer.calls("engine.previse") + tracer.calls("engine.pcontract")
        engine_s = tracer.layer_seconds("engine.")
        check_s = sum(_span_seconds(spans, f"catalog.{v}") for v in VERDICT_NAMES)
        metrics.update({
            "spaces.generate_s": generate_s,
            "spaces.generated": generated,
            "engine.counted_ratio": _ratio(sum(o.checked for o in outcomes), generated),
            "engine.previse.calls": tracer.calls("engine.previse"),
            "engine.serial_per_previse": _ratio(metrics["serial.calls"], pipeline_calls),
            # CheckContext.aggregate runs once per pipeline memo miss
            "engine.pipeline_miss_ratio": _ratio(tracer.calls("engine.aggregate"), pipeline_calls),
            "engine.self_s": engine_s - serial_s - aggregation_s,
            "catalog.self_s": check_s - engine_s - tracer.layer_seconds("spaces."),
        })
        for name in VERDICT_NAMES:
            metrics[f"catalog.{name}.s"] = _span_seconds(spans, f"catalog.{name}")
        metrics.update({name: 0 for name in SCENARIO_LAYER})
        absent = [n for n in VERDICT_NAMES if not any(v.name == n for v in plan.verdicts)]
        if absent:
            notes.append(f"catalog.*.s is 0 for verdicts this workload does not run: "
                         f"{', '.join(absent)}")
        notes.append("scenario.* is 0: sweeps load no scenario documents")
        detail["vacuity"] = rows
        detail["in_check_generation_s"] = tracer.layer_seconds("spaces.")

    rows, micro_notes, sizes = layers.measure(rf, args.workload, args.seed, plan)
    metrics.update(rows)
    notes.extend(micro_notes)
    for missing in tracer.missing:
        for name in NEEDS_HOOK.get(missing, ()):
            metrics.pop(name, None)
    detail["roadmap_4_worlds"] = layers.compare_with_roadmap(rows, workloads.WORLDS[args.workload])
    detail["layer_samples"] = sizes
    detail["totals"] = tracer.totals

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    span_file = out_dir / f"spans-{args.workload}-seed{args.seed}.json"
    span_file.write_text(json.dumps(spans))
    detail["span_file"] = str(span_file.relative_to(root))
    detail["notes"] = notes
    return metrics, outcomes, detail


# --- entry point ----------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "revforge" / "__init__.py").is_file():
        print("bench: src/revforge not found; run from the root of a revforge checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))

    setup_s, setup_samples, rf, plan = timed_setup(args)
    if args.workload != SCENARIO:
        workloads.expect_domain_counts(plan)
    if args.trace:
        metrics, outcomes, detail = per_layer(args, rf, plan, root)
        wanted = PER_LAYER
    else:
        metrics, outcomes, detail = end_to_end(args, rf, plan, setup_s)
        wanted = END_TO_END
    detail["setup_samples_s"] = setup_samples

    problems = [p for o in outcomes for p in o.problems]
    failed = sum(1 for o in outcomes if o.problems)
    samples = {"requests": len(outcomes), "setup_repeats": SETUP_REPEATS}
    if args.workload == SCENARIO:
        samples["documents"] = len(plan.documents)
    else:
        samples["verdicts"] = len(plan.verdicts)
        if plan.combos:
            samples["combinations"] = ["/".join(c) for c in plan.combos]
    result = {"correct": failed == 0, "attempted": len(outcomes), "failed": failed,
              "metrics": {name: {"value": metrics[name], "unit": unit}
                          for name, unit in wanted.items() if name in metrics}}

    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    record = {"provenance": provenance(root, args, samples), "result": result,
              "failed_share": failed / len(outcomes), "problems": problems[:50], **detail}
    record_file = out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_file.write_text(json.dumps(record, indent=1))

    for note in detail.get("notes", []):
        print(f"note: {note}")
    for problem in problems[:20]:
        print(f"problem: {problem}")
    for name, unit in wanted.items():
        if name in metrics:
            print(f"{name:34} {metrics[name]:>16.6f} {unit}")
        else:
            print(f"{name:34} {'absent':>16} {unit}")
    print(f"failed_share {failed}/{len(outcomes)}; details in {record_file.relative_to(root)}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
