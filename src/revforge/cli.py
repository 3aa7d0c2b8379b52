"""Command-line front end.

Subcommands::

    revforge run <file> [--format text|json|dot]
    revforge check --id <name> [space and operator flags] [--expect ...]
    revforge self-test
    revforge enumerate --atoms K [--list]

``check`` is one call to the engine's ``check``, which accepts every
catalog entry by id, plus ``rc-identity`` for the closure identity and
``<id>-pair`` (for example ``PC3-pair``) for a semantic/syntactic
agreement sweep.  ``--first`` and ``--cap`` apply to all three, and
``--expect`` overrides the report's expected outcome.

Exit codes: 0 when the run succeeds and the outcome matches the
expectation, 1 when a requested expectation is missed, 2 on usage or
input errors.  ``REVFORGE_SEED`` overrides the default sampling seed;
an explicit ``--seed`` flag wins over the environment.  ``--seed``
without ``--sampled`` is a usage error, since an exhaustive sweep draws
nothing.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from importlib import resources

from .errors import RevforgeError
from .postulates import InstanceSpace, OperatorConfig, check
from .postulates.spaces import DEFAULT_SEED, enumerate_tpos, language
from .scenario import export_dot, load_scenario, loads_scenario, run_scenario

BUNDLED_SCENARIO = "scenarios/example1.scenario"


def _resolve_seed(explicit) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("REVFORGE_SEED")
    if env is not None:
        try:
            return int(env)
        except ValueError:
            raise RevforgeError(f"REVFORGE_SEED must be an integer, got {env!r}") from None
    return DEFAULT_SEED


def _cmd_run(args) -> int:
    try:
        scenario = load_scenario(args.file)
    except (OSError, UnicodeDecodeError) as exc:
        raise RevforgeError(f"cannot read {args.file}: {exc}") from exc
    trace = run_scenario(scenario)
    if args.format == "json":
        print(trace.to_json())
    elif args.format == "dot":
        sys.stdout.write(export_dot(trace))
    else:
        print(trace.to_text())
    return 0


def _make_space(args) -> InstanceSpace:
    # REVFORGE_SEED feeds sampled runs only; an exhaustive space refuses a --seed
    config = OperatorConfig(**{role: getattr(args, role) for role in vars(OperatorConfig())})
    return InstanceSpace(atoms=args.atoms, mode="sampled" if args.sampled else "exhaustive",
                         sample_count=args.sampled,
                         seed=_resolve_seed(args.seed) if args.sampled else args.seed,
                         max_set_size=args.sets, operators=config, violation_cap=args.cap)


def _cmd_check(args) -> int:
    report = check(args.id, _make_space(args), first=args.first)
    if args.expect != "auto":
        report.expected = "violated" if args.expect == "violation" else args.expect
    matched = report.matches_expected()

    if args.format == "json":
        payload = report.to_json_dict()
        payload["expected"] = report.expected
        payload["outcome"] = report.outcome
        payload["matched"] = matched
        print(json.dumps(payload, indent=2))
    else:
        print(report.summary_line())
        print(f"expected: {report.expected}; outcome: {report.outcome}"
              f" -> {'ok' if matched else 'MISMATCH'}")
        for witness in report.violations[:3]:
            print(json.dumps(witness, indent=2))
    return 0 if matched else 1


def _answer_of(entry, **match):
    for ans in entry.answers:
        if all(ans.get(k) == v for k, v in match.items()):
            return ans["answer"]
    raise RevforgeError(f"bundled scenario is missing a query {match!r}")


def _cmd_self_test(_args) -> int:
    text = resources.files("revforge").joinpath(BUNDLED_SCENARIO).read_text(encoding="utf-8")
    trace = run_scenario(loads_scenario(text))
    initial, first, second = trace.entries[0], trace.entries[1], trace.entries[2]
    facts = [
        ("initially does not believe A",
         _answer_of(initial, type="believes", sentence="A") is False),
        ("initially does not believe B",
         _answer_of(initial, type="believes", sentence="B") is False),
        ("believes A & B after the joint revision",
         _answer_of(first, type="believes", sentence="A & B") is True),
        ("believes A after the follow-up revision",
         _answer_of(second, type="believes", sentence="A") is True),
        ("does not believe B after the follow-up revision",
         _answer_of(second, type="believes", sentence="B") is False),
    ]
    ok = True
    for label, passed in facts:
        print(f"{'ok' if passed else 'FAIL'}: {label}")
        ok = ok and passed
    print(trace.to_text())
    return 0 if ok else 1


def _cmd_enumerate(args) -> int:
    if not 1 <= args.atoms <= 3:
        raise RevforgeError("enumerate supports 1 to 3 atoms")
    lang = language(args.atoms)
    show = args.list or lang.num_worlds <= 4
    count = 0
    for t in enumerate_tpos(lang.num_worlds):
        count += 1
        if show:
            print(t.render(lang))
    print(f"{count} preorders over {lang.num_worlds} worlds")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="revforge",
        description="Iterated parallel belief revision workbench.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=("text", "json", "dot"), default="text")
    p_run.set_defaults(handler=_cmd_run)

    p_check = sub.add_parser("check", help="sweep a postulate over an instance space")
    p_check.add_argument("--id", required=True,
                         help="catalog id, rc-identity, or <id>-pair")
    p_check.add_argument("--atoms", type=int, default=2)
    p_check.add_argument("--sampled", type=int, default=0, metavar="N",
                         help="sample N instances instead of exhausting the space")
    p_check.add_argument("--seed", type=int, default=None)
    p_check.add_argument("--sets", type=int, default=2,
                         help="largest input-set size to draw")
    p_check.add_argument("--op", "--revision", dest="revision",
                         help="serial revision operator")
    p_check.add_argument("--contraction")
    p_check.add_argument("--base")
    p_check.add_argument("--finisher")
    p_check.add_argument("--agg", dest="strategy", help="aggregation strategy")
    p_check.add_argument("--expect", choices=("auto", "sound", "violation"),
                         default="auto")
    p_check.add_argument("--first", action="store_true",
                         help="stop at the first violation")
    p_check.add_argument("--cap", type=int, default=10,
                         help="most witnesses to keep in the report")
    p_check.add_argument("--format", choices=("text", "json"), default="text")
    # the operator flags default to the ``OperatorConfig`` defaults
    p_check.set_defaults(handler=_cmd_check, **vars(OperatorConfig()))

    p_self = sub.add_parser("self-test", help="run the bundled walkthrough scenario")
    p_self.set_defaults(handler=_cmd_self_test)

    p_enum = sub.add_parser("enumerate", help="list plausibility preorders")
    p_enum.add_argument("--atoms", type=int, default=2)
    p_enum.add_argument("--list", action="store_true",
                        help="print every preorder even when there are many")
    p_enum.set_defaults(handler=_cmd_enumerate)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv and argv[0] == "--self-test":
        argv[0] = "self-test"
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return code
    try:
        return args.handler(args)
    except RevforgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
