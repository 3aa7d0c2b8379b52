"""What ``import revforge`` loads, and what it leaves to first use.

The revision core and the scenario runner load with the package.  The
postulate workbench, ``revforge.postulates``, loads on first access, so
a scenario run and ``import revforge.cli`` never compile the catalog.
The package's surface is unchanged: every ``__all__`` name resolves,
``from revforge import *`` binds them all and ``dir(revforge)`` lists
them.

Each check runs in a fresh interpreter, since this process has long
since imported the workbench.
"""

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
