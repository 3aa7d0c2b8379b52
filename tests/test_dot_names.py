"""``export_dot`` names its graph with an unquoted DOT ID.

DOT reads an unquoted ID as a run of letters, digits and underscores
that does not start with a digit, and reserves the words ``node``,
``edge``, ``graph``, ``digraph``, ``subgraph`` and ``strict`` in any
case.  Any other graph name would write a document Graphviz cannot
read, so ``export_dot`` refuses it with ``ScenarioError``.  The check is
tested here, not the renderer, and so is the escaping of each ``\\``
and ``"`` in a stage label, which goes inside a quoted DOT string.
"""

import dataclasses

import pytest

from revforge import ScenarioError, export_dot, loads_scenario, run_scenario

TRACE = run_scenario(loads_scenario(
    '{"version": 1, "atoms": ["A", "B"], "steps": [{"op": "revise-set", "sentences": ["A"]}]}'))


@pytest.mark.parametrize("name", ["trace", "flat", "_", "g2", "Trace_2", "nodes", "Digraph_x"])
def test_an_unquoted_id_names_the_graph(name):
    assert export_dot(TRACE, name).startswith(f"digraph {name} {{\n")


def test_the_default_names_keep_their_bytes():
    assert export_dot(TRACE) == export_dot(TRACE, "trace")
    flat = export_dot(TRACE).replace("digraph trace {", "digraph flat {", 1)
    assert export_dot(TRACE, "flat") == flat


@pytest.mark.parametrize("name", [
    "my trace", "", "2trace", "a-b", "a.b", "x{", "té", "Δ", "graph", "Node", "STRICT",
    "subgraph", "edge", "digraph", None, 5, b"trace",
])
def test_any_other_graph_name_is_a_scenario_error(name):
    with pytest.raises(ScenarioError) as err:
        export_dot(TRACE, name)
    assert str(err.value) == ("export_dot takes a graph name of ASCII letters, digits and "
                              "underscores, not starting with a digit and not a DOT keyword, "
                              f"got {name!r}")


def test_a_stage_label_is_escaped_inside_its_quoted_string():
    entry = dataclasses.replace(TRACE.entries[0], label='a"b\\c')
    lines = export_dot(dataclasses.replace(TRACE, entries=(entry,))).splitlines()
    assert '    label="a\\"b\\\\c";' in lines
