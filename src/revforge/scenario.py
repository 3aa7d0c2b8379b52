"""Scenario files: declarative multi-step revision runs.

A scenario is a small JSON document that fixes the vocabulary, the
initial plausibility order, the operator configuration, and a sequence
of steps (set revisions, set contractions, or single-sentence serial
operations).  Steps may attach queries; running a scenario produces a
``RunTrace`` that records the preorder, belief worlds, and query
answers after every step.  Traces serialize deterministically and can
be rendered as plain text or as a Graphviz document with one cluster
per stage.

Each sentence becomes a world mask once, when the document loads, and
``Step.masks`` and the believes/conditional queries keep only the mask.  A
run works on those masks throughout: they go to the pipeline's mask
entry (``revise_masks``/``contract_masks``) or to a serial operator's
``transform``, and queries are answered with mask arithmetic on the
order's blocks.  ``RunTrace.to_json`` writes its document in one pass,
with the bytes of ``json.dumps(..., indent=2)``: each entry's order and
beliefs come straight from its block masks, through a table of rendered
world-name lists keyed by atom count, mask and depth.

Sentences are read through one table of sentence masks, keyed by text
and atoms.  Loading a document and replaying its trace both read
through it, so a replay, and a sentence repeated across documents,
costs a lookup rather than a parse.  A replay still re-reads and
re-validates the whole document.  Both tables are
``functools.lru_cache`` tables of at most 1,024 entries (``_SENTENCES``,
``_NAME_LISTS``): a full table sheds the entry read least recently, so
the sentences a document has just read stay for its replay.  Languages
come from ``logic.shared_language``, the table instance spaces read too,
so a document shares its language with every space over the same atoms.

Under a strategy that is not ``synchronous`` a set step takes its
sentences in file order, and another order can give another posterior
order (the beliefs do not change).  ``to_text`` notes this under every
set step whose sentences have two or more distinct masks; sentences
with one mask, such as ``A`` and ``(A)``, cannot be reordered into
anything new.  The JSON form carries no note.

Schema, version 1::

    {
      "version": 1,
      "atoms": ["A", "B"],
      "initial": "uniform" | [["11"], ["01", "10"], ["00"]],
      "operators": {"base": NAME, "finisher": NAME, "agg": NAME, "contraction": NAME},
      "initial_queries": [ ...queries... ],
      "steps": [
        {"op": "revise-set", "sentences": ["A", "B"], "queries": [...]},
        {"op": "contract-set", "sentences": ["A & B"]},
        {"op": "serial-revise", "sentence": "~B"},
        {"op": "serial-contract", "sentence": "A"}
      ]
    }

``initial`` is read by ``tpo.read_order``, the reader witness payloads
use: any value other than ``"uniform"`` must be a list of blocks, each a
list of world names, that partitions the worlds of the language, and any
failure is a ``ScenarioError`` that starts ``initial:``.

Each ``operators`` key sets one ``OperatorConfig`` field, whose default
fills in for a missing key: ``agg`` sets ``strategy`` and the others
their namesakes.  Set steps run the parallel operators, a
``serial-revise`` step the ``base`` operator and a ``serial-contract``
step the ``contraction`` operator.

Queries::

    {"type": "believes", "sentence": "A & B"}
    {"type": "conditional", "given": "~B", "then": "A"}
    {"type": "compare", "left": "10", "right": "01"}   # world names
    {"type": "show-tpo"}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

from .aggregation import Aggregator
from .errors import InconsistentInputError, ParseError, RevforgeError, ScenarioError
from .logic import Language, ascending_worlds, model_mask, parse_formula, shared_language
from .parallel import OperatorConfig, ParallelContractionOperator, ParallelRevisionOperator
from .serial import SerialContractionOperator, SerialRevisionOperator
from .tpo import TPO, comparison_symbol, read_order

SCHEMA_VERSION = 1

_SET_OPS = ("revise-set", "contract-set")
_SERIAL_OPS = ("serial-revise", "serial-contract")
_QUERY_TYPES = ("believes", "conditional", "compare", "show-tpo")

# the ``operators`` keys and the ``OperatorConfig`` fields they set
_OPERATOR_ROLES = {"base": "base", "finisher": "finisher", "contraction": "contraction",
                   "agg": "strategy"}

_SENTENCES = 1024
_NAME_LISTS = 1024


@lru_cache(maxsize=_SENTENCES)
def _parsed(text: str, atoms: tuple[str, ...]) -> int:
    """The ``model_mask`` of ``text`` parsed over ``atoms``.  A failed parse
    is not kept, so a bad sentence is parsed, and reported, wherever it is read."""
    lang = shared_language(atoms)
    return model_mask(parse_formula(text, lang), lang)


def _expect(condition: bool, where: str, message: str, *args) -> None:
    """``ScenarioError`` unless ``condition``; ``message`` is a format
    string for ``args``, filled in only when the check fails."""
    if not condition:
        raise ScenarioError(f"{where}: {message.format(*args)}")


def _list(data: dict, key: str, where: str) -> list:
    value = data.get(key, [])
    _expect(isinstance(value, list), where, "{!r} must be a list", key)
    return value


def _parse_sentence(text, lang: Language, where: str) -> int:
    """The ``model_mask`` of ``parse_formula(text, lang)``, from ``_parsed``."""
    _expect(isinstance(text, str), where, "expected a sentence string, got {!r}", text)
    try:
        return _parsed(text, lang.atoms)
    except ParseError as exc:
        raise ScenarioError(f"{where}: {exc}") from exc


def _validate_query(query, lang: Language, where: str) -> dict:
    _expect(isinstance(query, dict), where, "each query must be an object")
    kind = query.get("type")
    if kind not in _QUERY_TYPES:
        raise ScenarioError(f"{where}: unknown query type {kind!r} "
                            f"(expected one of {', '.join(_QUERY_TYPES)})")
    out = {"type": kind}
    if kind == "believes":
        out["sentence"] = query.get("sentence")
        out["_mask"] = _parse_sentence(out["sentence"], lang, where)
    elif kind == "conditional":
        out["given"] = query.get("given")
        out["then"] = query.get("then")
        out["_given_mask"] = _parse_sentence(out["given"], lang, f"{where} (given)")
        out["_then_mask"] = _parse_sentence(out["then"], lang, f"{where} (then)")
    elif kind == "compare":
        for side in ("left", "right"):
            name = query.get(side)
            _expect(isinstance(name, str), where, "compare query needs a {!r} world name", side)
            try:
                out[side] = lang.world_from_name(name)
            except Exception as exc:
                raise ScenarioError(f"{where}: {exc}") from exc
            out[f"{side}_name"] = name
    return out


@dataclass(frozen=True)
class Step:
    """One step, its sentences' world masks read at load."""

    op: str
    texts: tuple[str, ...]
    masks: tuple[int, ...]
    queries: tuple[dict, ...]

    def label(self) -> str:
        if self.op in _SET_OPS:
            return f"{self.op} {{{', '.join(self.texts)}}}"
        return f"{self.op} {self.texts[0]}"


@dataclass(frozen=True)
class Scenario:
    """A validated scenario document with all sentences pre-parsed."""

    lang: Language
    initial: TPO
    base: SerialRevisionOperator
    finisher: SerialRevisionOperator
    contraction: SerialContractionOperator
    aggregator: Aggregator
    initial_queries: tuple[dict, ...]
    steps: tuple[Step, ...]
    raw: dict

    @classmethod
    def from_dict(cls, data) -> "Scenario":
        _expect(isinstance(data, dict), "scenario", "document root must be an object")
        version = data.get("version")
        _expect(type(version) is int and version == SCHEMA_VERSION, "scenario",
                "unsupported version {!r} (expected {})", version, SCHEMA_VERSION)

        atoms = data.get("atoms")
        _expect(isinstance(atoms, list) and atoms, "scenario", "'atoms' must be a non-empty list")
        try:
            # atom lists of strings share the table of languages; any other
            # list is left to ``Language`` to reject, in its own words
            atoms = tuple(atoms)
            strings = all(type(atom) is str for atom in atoms)
            lang = shared_language(atoms) if strings else Language(atoms)
        except Exception as exc:
            raise ScenarioError(f"scenario: {exc}") from exc

        initial = data.get("initial", "uniform")
        try:
            start = (TPO.uniform(lang.num_worlds) if initial == "uniform"
                     else read_order(initial, lang))
        except (RevforgeError, TypeError) as exc:
            raise ScenarioError(f"initial: {exc}") from exc

        ops = data.get("operators", {})
        _expect(isinstance(ops, dict), "operators", "must be an object")
        try:
            config = OperatorConfig.from_names(ops, _OPERATOR_ROLES)
            base, finisher, contraction, strategy = map(config.resolved, _OPERATOR_ROLES.values())
        except RevforgeError as exc:
            raise ScenarioError(f"operators: {exc}") from exc

        initial_queries = tuple(
            _validate_query(q, lang, f"initial_queries[{i}]")
            for i, q in enumerate(_list(data, "initial_queries", "scenario")))

        steps = []
        for i, raw in enumerate(_list(data, "steps", "scenario")):
            where = f"steps[{i}]"
            _expect(isinstance(raw, dict), where, "each step must be an object")
            op = raw.get("op")
            if op not in _SET_OPS + _SERIAL_OPS:
                raise ScenarioError(f"{where}: unknown op {op!r} "
                                    f"(expected one of {', '.join(_SET_OPS + _SERIAL_OPS)})")
            if op in _SET_OPS:
                sentences = raw.get("sentences")
                _expect(isinstance(sentences, list) and sentences, where,
                        "'sentences' must be a non-empty list")
                texts = tuple(sentences)
                masks = tuple(_parse_sentence(s, lang, f"{where}.sentences[{j}]")
                              for j, s in enumerate(sentences))
            else:
                texts = (raw.get("sentence"),)
                masks = (_parse_sentence(texts[0], lang, f"{where}.sentence"),)
            queries = tuple(
                _validate_query(q, lang, f"{where}.queries[{j}]")
                for j, q in enumerate(_list(raw, "queries", where)))
            steps.append(Step(op=op, texts=texts, masks=masks, queries=queries))

        return cls(lang=lang, initial=start, base=base, finisher=finisher,
                   contraction=contraction, aggregator=Aggregator(strategy),
                   initial_queries=initial_queries, steps=tuple(steps), raw=data)


def load_scenario(path) -> Scenario:
    """Read and validate a scenario JSON file."""
    text = Path(path).read_text(encoding="utf-8")
    return loads_scenario(text)


def loads_scenario(text: str) -> Scenario:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    return Scenario.from_dict(data)


def _answer(query: dict, t: TPO, lang: Language) -> dict:
    kind = query["type"]
    if kind == "believes":
        believed = not t.masks[0] & ~query["_mask"]
        return {"type": kind, "sentence": query["sentence"], "answer": believed}
    if kind == "conditional":
        best = t.min_mask(query["_given_mask"])
        return {"type": kind, "given": query["given"], "then": query["then"],
                "answer": not best & ~query["_then_mask"]}
    if kind == "compare":
        return {"type": kind, "left": query["left_name"], "right": query["right_name"],
                "answer": comparison_symbol(t.compare(query["left"], query["right"]))}
    return {"type": kind, "answer": t.render(lang)}


@dataclass(frozen=True)
class TraceEntry:
    """One stage of a run.  ``note`` is a caveat that ``to_text`` prints
    and the JSON form leaves out; empty when there is none."""

    label: str
    tpo: TPO
    answers: tuple[dict, ...]
    note: str = ""

    def beliefs(self) -> frozenset[int]:
        return self.tpo.belief_worlds()


@dataclass(frozen=True)
class RunTrace:
    """Everything a scenario run produced, stage by stage.

    Entry 0 is the initial state; entry i is the state after step i.
    The original scenario document rides along so a trace can be
    re-run (``replay``) and byte-compared.
    """

    scenario: dict
    lang: Language
    entries: tuple[TraceEntry, ...]

    def final(self) -> TraceEntry:
        return self.entries[-1]

    def to_json_dict(self) -> dict:
        names = self.lang.names_of
        return {
            "scenario": self.scenario,
            "entries": [
                {
                    "label": e.label,
                    "tpo": [names(mask) for mask in e.tpo.masks],
                    "beliefs": names(e.tpo.masks[0]),
                    "queries": list(e.answers),
                }
                for e in self.entries
            ],
        }

    def to_json(self) -> str:
        """``json.dumps(self.to_json_dict(), indent=2)``, byte for byte.

        With ``indent`` set, ``json`` runs its pure-Python encoder; this one
        pass is faster.  Each entry's ``tpo`` and ``beliefs`` are written
        from the order's masks through ``_name_list``, and ``_write`` writes
        the embedded document and the answers.  A value ``_write`` leaves
        alone, subclasses included, hands the whole trace to ``json.dumps``,
        as does nesting too deep to recurse, so that a circular document
        raises json's own error.
        """
        count = len(self.lang.atoms)
        out = ['{\n  "scenario": ']
        try:
            _write(self.scenario, out, "\n  ")
            opener = ',\n  "entries": [\n    {'
            for e in self.entries:
                blocks = ",\n        ".join([_name_list(count, mask, 4) for mask in e.tpo.masks])
                out.append(f'{opener}\n      "label": {_escape(e.label)},\n      "tpo": [\n'
                           f'        {blocks}\n      ],\n      "beliefs": '
                           f'{_name_list(count, e.tpo.masks[0], 3)},\n      "queries": ')
                _write(list(e.answers), out, "\n      ")
                opener = "\n    },\n    {"
        except (_Unwritable, RecursionError):
            return json.dumps(self.to_json_dict(), indent=2)
        out.append("\n    }\n  ]\n}")
        return "".join(out)

    def to_text(self) -> str:
        lines = []
        for e in self.entries:
            lines.append(f"{e.label}: {e.tpo.render(self.lang)}")
            if e.note:
                lines.append(f"  note: {e.note}")
            beliefs = ", ".join(self.lang.names_of(e.tpo.masks[0]))
            lines.append(f"  beliefs: {{{beliefs}}}")
            for ans in e.answers:
                lines.append(f"  {_format_answer(ans)}")
        return "\n".join(lines)

    def replay(self) -> "RunTrace":
        """Load the embedded document afresh and run it again.

        The whole document is re-read and re-validated, so a trace whose
        ``scenario`` was edited replays the edited document; its sentences
        come from the parse table when their text and atoms were read
        before.
        """
        return run_scenario(Scenario.from_dict(self.scenario))


class _Unwritable(Exception):
    """A value ``_write`` leaves to ``json.dumps``."""


_escape = json.encoder.encode_basestring_ascii


@lru_cache(maxsize=_NAME_LISTS)
def _name_list(atom_count: int, mask: int, depth: int) -> str:
    """The names of ``mask``'s worlds over ``atom_count`` atoms, as the
    JSON list that ``json.dumps(..., indent=2)`` writes ``depth`` levels in."""
    spec = f"0{atom_count}b"
    inner = "\n" + "  " * (depth + 1)
    items = ("," + inner).join([_escape(format(w, spec)) for w in ascending_worlds(mask)])
    return f"[{inner}{items}\n{'  ' * depth}]"


def _write(value, out: list[str], newline: str) -> None:
    """Append the JSON of a dict or list that sits ``newline`` in; its
    strings are written in the loops, without a call each."""
    kind = type(value)
    if kind is dict:
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        opener = "{" + inner
        for key, item in value.items():
            if type(key) is not str:
                raise _Unwritable
            if type(item) is str:
                out.append(opener + _escape(key) + ": " + _escape(item))
            else:
                out.append(opener + _escape(key) + ": ")
                _write(item, out, inner)
            opener = "," + inner
        out.append(newline + "}")
    elif kind is list:
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        opener = "[" + inner
        for item in value:
            if type(item) is str:
                out.append(opener + _escape(item))
            else:
                out.append(opener)
                _write(item, out, inner)
            opener = "," + inner
        out.append(newline + "]")
    elif value is None:
        out.append("null")
    elif kind is bool:
        out.append("true" if value else "false")
    elif kind is int:
        out.append(int.__repr__(value))
    else:
        raise _Unwritable


def _format_answer(ans: dict) -> str:
    kind = ans["type"]
    if kind == "believes":
        return f"believes {ans['sentence']}? {'yes' if ans['answer'] else 'no'}"
    if kind == "conditional":
        verdict = "yes" if ans["answer"] else "no"
        return f"on condition {ans['given']}, believes {ans['then']}? {verdict}"
    if kind == "compare":
        return f"compare {ans['left']} {ans['answer']} {ans['right']}"
    return f"order: {ans['answer']}"


def run_scenario(scenario: Scenario) -> RunTrace:
    """Execute every step and answer every query along the way."""
    lang = scenario.lang
    prev = ParallelRevisionOperator(scenario.base, scenario.finisher, scenario.aggregator)
    pcon = ParallelContractionOperator(scenario.contraction, scenario.aggregator)

    t = scenario.initial
    entries = [TraceEntry(
        label="initial", tpo=t,
        answers=tuple(_answer(q, t, lang) for q in scenario.initial_queries))]

    order_sensitive = not scenario.aggregator.strategy.synchronous
    for i, step in enumerate(scenario.steps, start=1):
        masks = step.masks
        try:
            if step.op == "revise-set":
                t = prev.revise_masks(t, masks, labels=step.texts)
            elif step.op == "contract-set":
                t = pcon.contract_masks(t, masks)
            elif step.op == "serial-revise":
                t = scenario.base.transform(t, masks[0])
            else:
                t = scenario.contraction.transform(t, masks[0])
        except InconsistentInputError as exc:
            raise InconsistentInputError(f"step {i} ({step.label()}): {exc}") from exc
        note = ""
        if order_sensitive and step.op in _SET_OPS and len(set(masks)) > 1:
            note = (f"{scenario.aggregator.name} takes the sentences in file order; "
                    f"another order can give another posterior order")
        entries.append(TraceEntry(
            label=f"step {i}: {step.label()}", tpo=t,
            answers=tuple(_answer(q, t, lang) for q in step.queries), note=note))

    return RunTrace(scenario=scenario.raw, lang=lang, entries=tuple(entries))


def export_dot(trace: RunTrace, graph_name: str = "trace") -> str:
    """Render a trace as a Graphviz digraph, one cluster per stage.

    Within a cluster, worlds sit on one rank per plausibility block and
    every world points at every world in the next more plausible block,
    so the drawing reads bottom-up from least to most plausible.
    """
    lang = trace.lang
    out = [f"digraph {graph_name} {{", "  rankdir=BT;",
           "  node [shape=box, fontname=\"monospace\"];"]
    for i, e in enumerate(trace.entries):
        names = [lang.names_of(mask) for mask in e.tpo.masks]
        out.append(f"  subgraph cluster_{i} {{")
        out.append(f"    label=\"{e.label}\";")
        for j, block in enumerate(names):
            members = " ".join(f"\"s{i}_{n}\"" for n in block)
            out.append(f"    {{ rank=same; {members} }}")
            for n in block:
                out.append(f"    \"s{i}_{n}\" [label=\"{n}\"];")
        for j in range(len(names) - 1, 0, -1):
            for lower in names[j]:
                for upper in names[j - 1]:
                    out.append(f"    \"s{i}_{lower}\" -> \"s{i}_{upper}\";")
        out.append("  }")
    out.append("}")
    return "\n".join(out) + "\n"
