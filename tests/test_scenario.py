"""Scenario loading, execution, serialization, and the bundled example."""

import json
import random
from dataclasses import replace
from importlib import resources

import pytest

from revforge import (
    InconsistentInputError,
    Scenario,
    ScenarioError,
    export_dot,
    load_scenario,
    loads_scenario,
    model_mask,
    parse_formula,
    run_scenario,
    scenario as scenario_module,
)
from revforge.aggregation import STQ_STRATEGY, STRATEGIES, SelectionStrategy
from revforge import logic
from revforge.logic import MAX_FORMULA_DEPTH, Language
from revforge.postulates import InstanceSpace
from revforge.postulates.spaces import language
from test_mask_differential import random_document


def bundled_text() -> str:
    return (
        resources.files("revforge")
        .joinpath("scenarios/example1.scenario")
        .read_text(encoding="utf-8")
    )


def make(doc: dict):
    return run_scenario(Scenario.from_dict(doc))


BASE = {"version": 1, "atoms": ["A", "B"]}


# -- the bundled walkthrough ------------------------------------------------


def test_bundled_scenario_runs_and_matches_frozen_facts():
    trace = run_scenario(loads_scenario(bundled_text()))
    lang = trace.lang

    initial, step1, step2 = trace.entries
    assert initial.tpo.render(lang) == "[{00,01,10,11}]"
    assert [a["answer"] for a in initial.answers] == [
        False,
        False,
        "[{00,01,10,11}]",
    ]

    assert step1.label == "step 1: revise-set {A, B}"
    assert step1.tpo.render(lang) == "[{11} < {01,10} < {00}]"
    believes_both, conditional = step1.answers
    assert believes_both == {"type": "believes", "sentence": "A & B", "answer": True}
    assert conditional["answer"] is True

    assert step2.tpo.render(lang) == "[{10} < {11} < {01} < {00}]"
    believes_a, believes_b, cmp_q = step2.answers
    assert believes_a["answer"] is True
    assert believes_b["answer"] is False
    assert cmp_q == {"type": "compare", "left": "10", "right": "11", "answer": "<"}


def test_trace_json_is_deterministic_across_runs():
    first = run_scenario(loads_scenario(bundled_text())).to_json()
    second = run_scenario(loads_scenario(bundled_text())).to_json()
    assert first == second
    # and it is real JSON with the stages in order
    doc = json.loads(first)
    assert [e["label"] for e in doc["entries"]] == [
        "initial",
        "step 1: revise-set {A, B}",
        "step 2: revise-set {~B}",
    ]
    assert doc["entries"][2]["beliefs"] == ["10"]


def test_replay_reproduces_the_trace():
    trace = run_scenario(loads_scenario(bundled_text()))
    assert trace.replay().to_json() == trace.to_json()


def test_to_text_mentions_each_stage_and_answer():
    text = run_scenario(loads_scenario(bundled_text())).to_text()
    assert "initial: [{00,01,10,11}]" in text
    assert "believes A & B? yes" in text
    assert "on condition ~B, believes A? yes" in text
    assert "compare 10 < 11" in text
    assert "beliefs: {10}" in text


def test_load_scenario_from_path(tmp_path):
    p = tmp_path / "copy.scenario"
    p.write_text(bundled_text(), encoding="utf-8")
    trace = run_scenario(load_scenario(p))
    assert trace.final().beliefs() == frozenset({2})


def test_load_scenario_of_a_file_that_is_not_utf8(tmp_path):
    """A file whose bytes are not UTF-8 raises ``ScenarioError``, naming
    the file, not a bare ``UnicodeDecodeError``."""
    p = tmp_path / "latin1.scenario"
    p.write_bytes(b'{"version": 1, "atoms": ["\xe9"]}')
    with pytest.raises(ScenarioError) as err:
        load_scenario(p)
    assert str(err.value).startswith(f"cannot read {p}: ")


def test_load_scenario_of_no_path():
    """A ``path`` of None raises ``ScenarioError``, not a bare ``TypeError``."""
    with pytest.raises(ScenarioError) as err:
        load_scenario(None)
    assert "got None" in str(err.value)


# -- semantics of steps and queries -----------------------------------------


def test_singleton_set_revision_agrees_with_serial_step():
    """Revising by the one-element family {A} lands on the same beliefs
    as a plain serial revision by A."""
    packaged = make({**BASE, "steps": [{"op": "revise-set", "sentences": ["A"],
                                        "queries": [{"type": "believes", "sentence": "A"}]}]})
    serial = make({**BASE, "steps": [{"op": "serial-revise", "sentence": "A",
                                      "queries": [{"type": "believes", "sentence": "A"}]}]})
    assert packaged.final().beliefs() == serial.final().beliefs()
    assert packaged.final().answers[0]["answer"] is True
    assert serial.final().answers[0]["answer"] is True


def test_empty_steps_gives_initial_only_trace():
    trace = make({**BASE, "initial_queries": [{"type": "show-tpo"}]})
    assert len(trace.entries) == 1
    assert trace.entries[0].label == "initial"
    assert trace.entries[0].answers[0]["answer"] == "[{00,01,10,11}]"


def test_explicit_initial_blocks():
    trace = make({**BASE, "initial": [["11"], ["01", "10"], ["00"]]})
    assert trace.entries[0].tpo.render(trace.lang) == "[{11} < {01,10} < {00}]"
    assert trace.entries[0].beliefs() == frozenset({3})


def test_contract_set_step():
    doc = {
        **BASE,
        "initial": [["11"], ["01", "10"], ["00"]],
        "steps": [{"op": "contract-set", "sentences": ["A", "B"],
                   "queries": [{"type": "believes", "sentence": "A"},
                               {"type": "believes", "sentence": "A | B"}]}],
    }
    trace = make(doc)
    # contraction withdraws both conjuncts but keeps the disjunction
    assert trace.final().answers[0]["answer"] is False
    assert trace.final().answers[1]["answer"] is True


def test_serial_contract_step_restores_contracted_worlds():
    doc = {
        **BASE,
        "initial": [["11"], ["01", "10"], ["00"]],
        "steps": [{"op": "serial-contract", "sentence": "A & B"}],
    }
    trace = make(doc)
    assert trace.final().beliefs() == frozenset({3, 1, 2})


def test_operator_choice_changes_the_outcome():
    """Same step, different base operator, different final order."""
    shared = {
        **BASE,
        "initial": [["11"], ["01", "10"], ["00"]],
        "steps": [{"op": "serial-revise", "sentence": "~A"}],
    }
    nat = make({**shared, "operators": {"base": "natural"}})
    lex = make({**shared, "operators": {"base": "lex"}})
    assert nat.final().tpo.render(nat.lang) == "[{01} < {11} < {10} < {00}]"
    assert lex.final().tpo.render(lex.lang) == "[{01} < {00} < {11} < {10}]"
    # both believe the new input, of course
    assert nat.final().beliefs() == lex.final().beliefs() == frozenset({1})


def test_conditional_query_reads_the_current_order():
    doc = {
        **BASE,
        "initial": [["11"], ["10"], ["00", "01"]],
        "initial_queries": [
            {"type": "conditional", "given": "~B", "then": "A"},
            {"type": "conditional", "given": "~A", "then": "B"},
        ],
    }
    answers = make(doc).entries[0].answers
    assert answers[0]["answer"] is True  # best ~B world is 10
    assert answers[1]["answer"] is False  # best ~A worlds include 00


def test_compare_query_all_three_relations():
    doc = {
        **BASE,
        "initial": [["11"], ["01", "10"], ["00"]],
        "initial_queries": [
            {"type": "compare", "left": "11", "right": "00"},
            {"type": "compare", "left": "01", "right": "10"},
            {"type": "compare", "left": "00", "right": "11"},
        ],
    }
    answers = [a["answer"] for a in make(doc).entries[0].answers]
    assert answers == ["<", "~", ">"]


# -- validation and error paths ----------------------------------------------


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ({"version": 3}, "unsupported version 3"),
        ({"atoms": []}, "'atoms' must be a non-empty list"),
        ({"initial": [["11"], ["11", "00"]]}, "initial:"),
        ({"operators": {"base": "swirl"}}, "unknown revision operator 'swirl'"),
        ({"operators": {"blender": "stq"}}, "unknown keys"),
        ({"steps": [{"op": "squash", "sentence": "A"}]}, "unknown op 'squash'"),
        ({"steps": [{"op": "revise-set", "sentences": []}]},
         "'sentences' must be a non-empty list"),
        ({"steps": [{"op": "revise-set", "sentences": ["C"]}]},
         "steps[0].sentences[0]: unknown atom 'C'"),
        ({"initial_queries": [{"type": "guess"}]}, "unknown query type 'guess'"),
        ({"initial_queries": [{"type": "compare", "left": "2", "right": "11"}]},
         "world name '2' is not a 2-bit string"),
        ({"version": True}, "unsupported version True"),
        ({"initial_queries": 3}, "scenario: 'initial_queries' must be a list"),
        ({"steps": [{"op": "serial-revise", "sentence": "A", "queries": 3}]},
         "steps[0]: 'queries' must be a list"),
        ({"initial": [["00"], ["01"]]}, "initial: the order places 2 worlds"),
        ({"operators": {"agg": ["stq"]}}, "operators: 'agg' must be an operator name"),
    ],
)
def test_invalid_documents_are_rejected(mutation, fragment):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**BASE, **mutation})
    assert fragment in str(err.value)


def test_documents_over_one_atom_list_share_its_language():
    """Loads and replays read their ``Language`` from the parse table's
    languages, so the world-name tables are built once per atom list."""
    first = Scenario.from_dict(BASE)
    names = first.lang.world_names
    again = loads_scenario(json.dumps(BASE))
    assert again.lang is first.lang and again.lang.world_names is names
    assert Scenario.from_dict({**BASE, "atoms": ["B", "A"]}).lang.atoms == ("B", "A")


def test_spaces_replays_and_documents_share_one_table_of_languages():
    """An instance space, a witness replay (both through ``language``) and a
    scenario over the same atoms read one ``Language``, so its world-name
    tables are built once."""
    lang = language(2)
    assert InstanceSpace(atoms=2).lang is lang and language(2) is lang
    assert Scenario.from_dict({**BASE, "atoms": ["A", "B"]}).lang is lang


@pytest.mark.parametrize("atoms", [
    [["A"]], ["A", {"B": 1}], ["A", 1], ["A", "A"], ["a b"], ["T"], ["A"] * 17,
], ids=["unhashable-list", "unhashable-dict", "int", "duplicate", "bad-name", "reserved",
        "too-many"])
def test_a_bad_atom_list_is_rejected_in_the_words_of_language(atoms):
    """Whether or not its atoms can key the table of languages, a bad atom
    list raises the ``ScenarioError`` that wraps ``Language``'s own error."""
    with pytest.raises(Exception) as direct:
        Language(tuple(atoms))
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**BASE, "atoms": atoms})
    assert str(err.value) == f"scenario: {direct.value}"


def test_a_world_named_twice_in_an_initial_block_is_rejected():
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**BASE, "initial": [["00", "00", "01"], ["10", "11"]]})
    assert str(err.value) == "initial: world '00' is listed twice in one block or input"


@pytest.mark.parametrize("initial, message", [
    ([{"00": 1, "01": 2}, ["10", "11"]], "initial: expected a list, got {'00': 1, '01': 2}"),
    ([["01", "10", "11"], "00"], "initial: expected a list, got '00'"),
], ids=["object-block", "string-block"])
def test_an_initial_block_that_is_not_a_list_is_rejected(initial, message):
    """A block read as the list of its keys or characters would load as
    another order, or report a world the document does not name."""
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**BASE, "initial": initial})
    assert str(err.value) == message


@pytest.mark.parametrize("name", [3, None, b"10", ["1", "0"]])
def test_an_initial_world_name_that_is_not_a_string_is_a_scenario_error(name):
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**BASE, "initial": [["00", "01"], [name, "10", "11"]]})
    assert str(err.value) == f"initial: world name {name!r} is not a 2-bit string"


def test_non_dict_root_is_rejected():
    with pytest.raises(ScenarioError):
        Scenario.from_dict(["not", "an", "object"])


def test_bad_json_reports_line_and_column():
    with pytest.raises(ScenarioError) as err:
        loads_scenario('{\n  "version": 1,\n')
    assert "invalid JSON at line 3, column 1" in str(err.value)


@pytest.mark.parametrize("text, name", [(None, "NoneType"), (5, "int")])
def test_a_document_that_is_not_text_is_a_scenario_error(text, name):
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text)
    assert str(err.value).startswith("scenario: ") and str(err.value).endswith(f"not {name}")


def test_a_document_in_bytes_loads_as_its_text():
    """Bytes and bytearrays load as ``json.loads`` reads them; bytes that
    do not decode raise ``ScenarioError``."""
    text = json.dumps(BASE)
    for document in (text.encode(), bytearray(text.encode()), text.encode("utf-16")):
        assert loads_scenario(document).raw == BASE
    with pytest.raises(ScenarioError) as err:
        loads_scenario(b"\x80" + text.encode())
    assert "can't decode byte 0x80" in str(err.value)


def test_inconsistent_revision_step_names_the_step():
    doc = {**BASE, "steps": [{"op": "revise-set", "sentences": ["A & ~A"]}]}
    with pytest.raises(InconsistentInputError) as err:
        make(doc)
    msg = str(err.value)
    assert msg.startswith("step 1 (revise-set {A & ~A})")
    assert "minimal inconsistent subset" in msg


def test_a_failed_step_keeps_the_culprits_of_its_cause():
    doc = {**BASE, "steps": [{"op": "revise-set", "sentences": ["A", "~A", "B"]}]}
    with pytest.raises(InconsistentInputError) as err:
        make(doc)
    assert err.value.culprits == err.value.__cause__.culprits == ("A", "~A")
    assert str(err.value) == ("step 1 (revise-set {A, ~A, B}): cannot revise by a set whose "
                              "conjunction is inconsistent; minimal inconsistent subset: {A, ~A}")


# -- graphviz export ----------------------------------------------------------


def test_export_dot_structure():
    trace = run_scenario(loads_scenario(bundled_text()))
    dot = export_dot(trace)

    assert dot.startswith("digraph trace {")
    assert "rankdir=BT;" in dot
    assert dot.count("subgraph cluster_") == 3
    # one rank line per block: 1 + 3 + 4
    assert dot.count("rank=same") == 8
    # all-pairs edges between consecutive blocks: 0 + (2+2) + (1+1+1)
    assert dot.count("->") == 7
    # node ids are namespaced by stage so clusters cannot collide
    assert '"s0_00"' in dot and '"s2_00"' in dot
    assert '"s1_11" [label="11"];' in dot


def test_export_dot_single_stage_has_no_edges():
    trace = make({**BASE})
    dot = export_dot(trace, graph_name="flat")
    assert dot.startswith("digraph flat {")
    assert dot.count("subgraph cluster_") == 1
    assert "->" not in dot


def test_export_dot_ties_share_a_rank():
    trace = make({**BASE, "initial": [["00", "11"], ["01", "10"]]})
    dot = export_dot(trace)
    assert '{ rank=same; "s0_00" "s0_11" }' in dot
    assert '{ rank=same; "s0_01" "s0_10" }' in dot
    assert dot.count("->") == 4


# -- the trace writer ---------------------------------------------------------


def _dumped(trace) -> str:
    return json.dumps(trace.to_json_dict(), indent=2)


EXTRA_KEYS = {
    "title": "Zoë's “parallel” revision — ünïcödé, \U0001f600",
    "quotes": 'say "A" and \\B\\ / done',
    "controls": "tab\there, newline\nthere, bell\x07, nul\x00, del\x7f",
    "empty": {"list": [], "dict": {}, "null": None},
    "nested": [1, [2, [-3, {"deep": [True, False, None, ""]}]], {}],
    "big": 10 ** 40,
}


@pytest.mark.parametrize("extra", [
    {},
    EXTRA_KEYS,
    {"weight": 0.5, "scale": [1e300, -2.0]},
    {"bad": float("nan"), "worse": [float("inf")]},
    {"tags": ("x", "y"), "pair": ({"a": 1},)},
    {"numbers": {1: "one", None: "none"}},
])
def test_to_json_is_json_dumps_with_indent_two(extra):
    doc = {**BASE, **extra, "initial": [["11"], ["01", "10"], ["00"]],
           "steps": [{"op": "revise-set", "sentences": ["A", "~B"],
                      "queries": [{"type": "believes", "sentence": "A"},
                                  {"type": "show-tpo"}]},
                     {"op": "serial-contract", "sentence": "A"}]}
    trace = make(doc)
    assert trace.to_json() == _dumped(trace)


def test_to_json_of_the_bundled_scenario_is_json_dumps():
    trace = run_scenario(loads_scenario(bundled_text()))
    assert trace.to_json() == _dumped(trace)


def test_to_json_of_a_circular_document_raises_like_json_dumps():
    doc = {**BASE}
    doc["self"] = doc
    trace = make(doc)
    with pytest.raises(ValueError, match="Circular reference detected"):
        trace.to_json()


# -- the member-order note ----------------------------------------------------


@pytest.mark.parametrize("agg, noted", [("round-robin", True), ("first-then-full", True),
                                        ("stq", False), ("reverse-robin", True),
                                        ("sync", False)])
def test_to_text_notes_member_order_on_multi_sentence_set_steps(monkeypatch, agg, noted):
    """The note goes by whether the strategy is synchronous, so a newly
    registered strategy gets it, or not, whatever its name."""
    monkeypatch.setitem(STRATEGIES, "reverse-robin",
                        SelectionStrategy("reverse-robin", lambda n, i: frozenset({-i % n})))
    monkeypatch.setitem(STRATEGIES, "sync", replace(STQ_STRATEGY, name="sync"))
    doc = {**BASE, "operators": {"agg": agg},
           "steps": [{"op": "revise-set", "sentences": ["A", "B"]},
                     {"op": "contract-set", "sentences": ["A", "B"]},
                     {"op": "revise-set", "sentences": ["A"]},
                     {"op": "serial-revise", "sentence": "B"}]}
    trace = make(doc)
    notes = [line for line in trace.to_text().splitlines() if line.startswith("  note: ")]
    assert notes == [f"  note: {agg} takes the sentences in file order; "
                     f"another order can give another posterior order"] * 2 * noted
    assert [bool(e.note) for e in trace.entries] == [False, noted, noted, False, False]
    assert "note" not in trace.to_json()


@pytest.mark.parametrize("agg", ["round-robin", "first-then-full"])
@pytest.mark.parametrize("sentences", [["A", "A"], ["A", "(A)"]])
def test_no_order_note_when_the_members_share_one_mask(agg, sentences):
    doc = {**BASE, "operators": {"agg": agg},
           "steps": [{"op": "revise-set", "sentences": sentences},
                     {"op": "contract-set", "sentences": sentences}]}
    trace = make(doc)
    assert [e.note for e in trace.entries] == ["", "", ""]
    assert "note" not in trace.to_text()


# -- the parse table ------------------------------------------------------------


def _outcome(doc: dict):
    """The trace JSON of a run, or the type and text of its error."""
    try:
        return run_scenario(loads_scenario(json.dumps(doc))).to_json()
    except InconsistentInputError as exc:
        return type(exc), str(exc)


def test_table_reads_equal_fresh_parses_on_four_atom_documents():
    rng = random.Random(821)
    for _ in range(150):
        doc = random_document(rng)
        first = loads_scenario(json.dumps(doc))
        lang = first.lang
        def fresh(text):
            return model_mask(parse_formula(text, lang), lang)
        for step in first.steps:
            assert step.masks == tuple(fresh(t) for t in step.texts)
        for query in first.initial_queries + sum((s.queries for s in first.steps), ()):
            if query["type"] == "believes":
                assert query["_mask"] == fresh(query["sentence"])
            elif query["type"] == "conditional":
                assert query["_given_mask"] == fresh(query["given"])
                assert query["_then_mask"] == fresh(query["then"])
        second = loads_scenario(json.dumps(doc))
        assert second.steps == first.steps
        assert _outcome(doc) == _outcome(doc)


def _count_parses(monkeypatch) -> list:
    """The ``(text, atoms)`` of each sentence the parse table parses from
    now on: every read it does not answer starts one parser."""
    calls = []
    parser = logic._Parser
    monkeypatch.setattr(logic, "_Parser",
                        lambda text, lang, build: calls.append((text, lang.atoms))
                        or parser(text, lang, build))
    return calls


def test_a_sentence_read_over_more_atoms_is_still_rejected_over_fewer(monkeypatch):
    wider = {"version": 1, "atoms": ["A", "B", "C"],
             "steps": [{"op": "revise-set", "sentences": ["C"]}]}
    Scenario.from_dict(wider)
    calls = _count_parses(monkeypatch)
    Scenario.from_dict(wider)
    assert calls == []
    with pytest.raises(ScenarioError) as err:
        Scenario.from_dict({**BASE, "steps": [{"op": "revise-set", "sentences": ["C"]}]})
    assert "steps[0].sentences[0]: unknown atom 'C'" in str(err.value)
    assert calls == [("C", ("A", "B"))]


def test_a_bad_sentence_is_reported_at_each_place_it_is_read(monkeypatch):
    calls = _count_parses(monkeypatch)
    bad = "A & | B"
    places = [
        ({"steps": [{"op": "revise-set", "sentences": ["A", bad]}]}, "steps[0].sentences[1]: "),
        ({"steps": [{"op": "serial-revise", "sentence": "A"},
                    {"op": "serial-contract", "sentence": bad}]}, "steps[1].sentence: "),
        ({"initial_queries": [{"type": "believes", "sentence": bad}]}, "initial_queries[0]: "),
        ({"initial_queries": [{"type": "conditional", "given": "A", "then": bad}]},
         "initial_queries[0] (then): "),
    ]
    for mutation, where in places * 2:
        with pytest.raises(ScenarioError) as err:
            Scenario.from_dict({**BASE, **mutation})
        assert str(err.value) == where + "expected a formula, found '|' (at position 4)"
    assert calls.count((bad, ("A", "B"))) == len(places) * 2


@pytest.mark.parametrize("op", ["&", "|"])
def test_a_chain_too_deep_to_walk_is_rejected_at_load(op):
    """A sentence the parser builds in a loop but the recursive walks
    could not follow is rejected where it is read, with a typed error."""
    sentence = f" {op} ".join(["A"] * 1200)
    text = json.dumps({**BASE, "steps": [{"op": "serial-revise", "sentence": sentence}]})
    with pytest.raises(ScenarioError) as err:
        loads_scenario(text)
    assert str(err.value).startswith("steps[0].sentence: formula nested too deeply")


@pytest.mark.parametrize("op", ["&", "|"])
def test_a_chain_at_the_depth_bound_runs_through_every_stage(op):
    sentence = f" {op} ".join(["A"] * MAX_FORMULA_DEPTH)
    doc = {**BASE, "steps": [{"op": "serial-revise", "sentence": sentence,
                              "queries": [{"type": "believes", "sentence": sentence}]}]}
    trace = run_scenario(loads_scenario(json.dumps(doc)))
    assert trace.entries[-1].answers[0]["answer"] is True
    assert "step 1" in trace.to_text() and export_dot(trace).startswith("digraph")
    assert json.loads(trace.to_json())["scenario"] == doc
    assert trace.replay().to_json() == trace.to_json()


def test_the_table_stays_within_its_bound():
    atoms = [f"A{i}" for i in range(11)]
    bound = scenario_module._SENTENCES
    sentences = [" & ".join(a if i >> k & 1 else f"~{a}" for k, a in enumerate(atoms))
                 for i in range(bound + 100)]
    scenario = Scenario.from_dict({"version": 1, "atoms": atoms,
                                   "steps": [{"op": "revise-set", "sentences": sentences}]})
    assert len(scenario.steps[0].masks) == bound + 100
    assert scenario_module._parsed.cache_info().currsize <= bound


def test_replay_reads_its_sentences_from_the_table(monkeypatch):
    trace = run_scenario(loads_scenario(bundled_text()))
    calls = _count_parses(monkeypatch)
    assert trace.replay().to_json() == trace.to_json()
    assert calls == []


def test_replay_rereads_an_edited_document():
    doc = {**BASE, "steps": [{"op": "revise-set", "sentences": ["A", "B"],
                              "queries": [{"type": "believes", "sentence": "A & B"}]}]}
    trace = make(doc)
    assert trace.final().answers[0]["answer"] is True
    trace.scenario["steps"] = [{"op": "revise-set", "sentences": ["~A"],
                                "queries": [{"type": "believes", "sentence": "A & B"}]}]
    replayed = trace.replay()
    assert replayed.final().label == "step 1: revise-set {~A}"
    assert replayed.final().answers[0]["answer"] is False
    assert replayed.to_json() == make(trace.scenario).to_json()


# -- work done once -------------------------------------------------------------


def test_a_loaded_document_runs_and_replays_without_reading_masks(monkeypatch):
    """Masks are read once, at load; a replay finds them in the parse
    table, although the table is full and sheds entries meanwhile."""
    calls = _count_parses(monkeypatch)
    rng = random.Random(829)
    texts = [bundled_text()] + [json.dumps(random_document(rng)) for _ in range(100)]
    runs = 0
    for text in texts:
        scenario = loads_scenario(text)
        loaded = len(calls)
        try:
            trace = run_scenario(scenario)
        except InconsistentInputError:
            continue
        assert trace.replay().to_json() == trace.to_json()
        assert len(calls) == loaded
        runs += 1
    assert calls and runs > 50


def test_a_full_table_keeps_the_sentences_a_document_just_read(monkeypatch):
    """A hit refreshes an entry, so loading a document that reads the
    oldest sentence of a full table, then two new ones, sheds other
    sentences and the replay parses nothing."""
    atoms = ["A0", "A1", "A2", "A3"]
    old = "A0 | A1"
    Scenario.from_dict({"version": 1, "atoms": atoms,
                        "steps": [{"op": "serial-revise", "sentence": old}]})
    filler = [f"A2{' ' * k}& A3" for k in range(1, scenario_module._SENTENCES)]
    Scenario.from_dict({"version": 1, "atoms": atoms,
                        "steps": [{"op": "revise-set", "sentences": filler}]})
    assert scenario_module._parsed.cache_info().currsize == scenario_module._SENTENCES
    doc = {"version": 1, "atoms": atoms,
           "steps": [{"op": "revise-set", "sentences": [old, "A2 ->  A0 ", " ~A3 |  A1"]}]}
    trace = run_scenario(Scenario.from_dict(doc))
    calls = _count_parses(monkeypatch)
    assert trace.replay().to_json() == trace.to_json()
    assert calls == []


def test_the_name_list_table_stays_within_its_bound():
    bound = scenario_module._NAME_LISTS
    names = [format(w, "04b") for w in range(16)]
    for mask in range(1, bound + 100):
        first = [n for w, n in enumerate(names) if mask >> w & 1]
        rest = [n for w, n in enumerate(names) if not mask >> w & 1]
        trace = make({"version": 1, "atoms": ["A", "B", "C", "D"], "initial": [first, rest]})
        assert trace.to_json() == _dumped(trace)
        assert scenario_module._name_list.cache_info().currsize <= bound


@pytest.mark.parametrize("call, message", [
    (lambda: run_scenario(None), "run_scenario takes a Scenario, got None"),
    (lambda: run_scenario({"version": 1}), "run_scenario takes a Scenario, got {'version': 1}"),
    (lambda: export_dot(None), "export_dot takes a RunTrace, got None"),
    (lambda: export_dot("trace"), "export_dot takes a RunTrace, got 'trace'"),
], ids=["run-none", "run-dict", "dot-none", "dot-str"])
def test_run_and_export_take_a_scenario_and_a_trace(call, message):
    with pytest.raises(ScenarioError) as err:
        call()
    assert str(err.value) == message
