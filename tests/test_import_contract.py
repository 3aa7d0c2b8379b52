"""What ``import revforge`` loads, and what it leaves to first use.

Only the revision core loads with the package.  The postulate
workbench, ``revforge.postulates``, and the scenario runner,
``revforge.scenario``, each load on first access.  So a scenario run,
``revforge run`` and ``revforge self-test`` never compile the catalog,
and a sweep, ``import revforge.cli`` and ``revforge check`` never
compile the scenario runner.  The package's surface is unchanged: every
``__all__`` name resolves, ``from revforge import *`` binds them all and
``dir(revforge)`` lists them.

Each check runs in a fresh interpreter, since this process has long
since imported the workbench.

The scenario loader reaches the formula layer only through its public
names: its source imports no private name from ``revforge.logic`` and
reads no private mask table of a ``Language``.  That is read from the
source with ``ast``, so it needs no interpreter of its own.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

SCENARIO_RUN = """
import json, sys
from importlib import resources

def workbench():
    return sorted(m for m in sys.modules if m.startswith("revforge.postulates"))

loaded = {}
import revforge
loaded["import"] = workbench()
text = resources.files("revforge").joinpath("scenarios/example1.scenario").read_text("utf-8")
trace = revforge.run_scenario(revforge.loads_scenario(text))
assert trace.replay().to_json() == trace.to_json()
loaded["scenario"] = workbench()
import revforge.cli
loaded["cli"] = workbench()
print(json.dumps(loaded))
"""

SURFACE = """
import json
import revforge

postulates = revforge.postulates
try:
    revforge.no_such_name
except AttributeError as exc:
    unknown = str(exc)
names = {}
exec("from revforge import *", names)
print(json.dumps({
    "module": postulates.__name__,
    "same": sorted(n for n in revforge.__all__
                   if getattr(revforge, n) is getattr(postulates, n, None)),
    "unresolved": [n for n in revforge.__all__ if not hasattr(revforge, n)],
    "star_unbound": [n for n in revforge.__all__ if names.get(n) is not getattr(revforge, n)],
    "not_in_dir": [n for n in revforge.__all__ + ["postulates"] if n not in dir(revforge)],
    "unknown": unknown,
}))
"""

CORE = ["revforge", "revforge.aggregation", "revforge.errors", "revforge.logic",
        "revforge.parallel", "revforge.serial", "revforge.tpo"]

SWEEPS = """
import contextlib, io, json, sys

def loaded(prefix):
    return sorted(m for m in sys.modules if m == prefix or m.startswith(prefix + "."))

seen = {}
import revforge
seen["import"] = loaded("revforge")
assert revforge.check("K1", revforge.InstanceSpace(atoms=2)).outcome == "holds"
seen["check"] = loaded("revforge.scenario")
assert revforge.verify_rc_identity(revforge.InstanceSpace(atoms=1)).outcome == "holds"
seen["rc-identity"] = loaded("revforge.scenario")
import revforge.cli
seen["cli"] = loaded("revforge.scenario")
with contextlib.redirect_stdout(io.StringIO()):
    code = revforge.cli.main(["check", "--id", "K1", "--atoms", "1"])
seen["cli-check"] = [code, loaded("revforge.scenario")]
module = revforge.scenario
seen["first-access"] = [module.__name__, loaded("revforge.scenario")]
seen["run_scenario"] = revforge.run_scenario is module.run_scenario
print(json.dumps(seen))
"""

RUNNER_BY_NAME = """
import json, sys
import revforge
before = "revforge.scenario" in sys.modules
run = revforge.run_scenario
print(json.dumps([before, "revforge.scenario" in sys.modules,
                  run is sys.modules["revforge.scenario"].run_scenario]))
"""

CLI_SCENARIOS = """
import contextlib, io, json, sys
from importlib import resources
import revforge.cli

def workbench():
    return sorted(m for m in sys.modules if m.startswith("revforge.postulates"))

path = str(resources.files("revforge").joinpath("scenarios/example1.scenario"))
seen = {}
with contextlib.redirect_stdout(io.StringIO()):
    seen["run"] = [revforge.cli.main(["run", path]), workbench()]
    seen["self-test"] = [revforge.cli.main(["self-test"]), workbench()]
print(json.dumps(seen))
"""

WORKBENCH = ["CATALOG", "CheckContext", "CheckReport", "EQUIVALENCE_PAIRS", "InstanceSpace",
             "check", "check_equivalence_pair", "find_countermodel", "replay_witness",
             "verify_rc_identity"]


def _run(program: str) -> dict:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", program], env=env, cwd=SRC.parent,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_a_scenario_run_and_the_cli_never_load_the_workbench():
    assert _run(SCENARIO_RUN) == {"import": [], "scenario": [], "cli": []}


def test_the_workbench_resolves_on_first_access():
    surface = _run(SURFACE)
    assert surface["module"] == "revforge.postulates"
    # OperatorConfig is the core's own class, which the workbench re-exports
    assert surface["same"] == sorted(WORKBENCH + ["OperatorConfig"])
    assert surface["unresolved"] == []
    assert surface["star_unbound"] == []
    assert surface["not_in_dir"] == []
    assert surface["unknown"] == "module 'revforge' has no attribute 'no_such_name'"


def test_import_loads_the_core_and_sweeps_never_load_the_scenario_runner():
    assert _run(SWEEPS) == {
        "import": CORE, "check": [], "rc-identity": [], "cli": [], "cli-check": [0, []],
        "first-access": ["revforge.scenario", ["revforge.scenario"]], "run_scenario": True,
    }


def test_the_scenario_runner_loads_on_first_access_to_one_of_its_names():
    assert _run(RUNNER_BY_NAME) == [False, True, True]


def test_the_cli_runs_scenarios_without_the_workbench():
    assert _run(CLI_SCENARIOS) == {"run": [0, []], "self-test": [0, []]}


def test_the_scenario_loader_reaches_logic_only_through_public_names():
    tree = ast.parse((SRC / "revforge" / "scenario.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module == "logic"
                for alias in node.names]
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert "sentence_mask" in imported
    assert [name for name in imported if name.startswith("_")] == []
    assert read & {"_atom_masks", "_full_mask"} == set()
