"""The README's Python and console examples run and print what the README says.

Each complete ```` ```python ```` block of README.md runs in a fresh
interpreter with ``src`` on its path, so a block that registers an
operator leaves the registries of the test process as they were.  A
block whose first line is a comment starting ``# excerpt of <module>``
quotes that module, under ``src/revforge``, and is not run: its names
are defined there, and each of its lines must be a line of the module.

Each ``$ revforge ...`` line of the "Quick start, command line" block
runs as ``python -m revforge.cli ...`` the same way, and must print the
README's summary line up to its timing and then its ``expected:`` line.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```$", README, re.MULTILINE | re.DOTALL)
# (arguments, summary line up to its timing, expected line) of each command
COMMANDS = re.findall(r"^\$ revforge (.*)\n(.*?), [\d.]+ ms\)\n(expected: .* -> ok)$",
                      README.split("## Quick start, command line", 1)[1].split("```", 2)[1],
                      re.MULTILINE)
COMPLETE = [block for block in BLOCKS if not block.startswith("# excerpt")]
EXCERPTS = [block for block in BLOCKS if block.startswith("# excerpt")]
# the start of each line each complete block prints, as the README states it
PRINTED = [
    ["[{11} < {01,10} < {00}]", "frozenset({3})"],
    [],
    ["Ind-star: holds over 7125 instances (0 violations", "{"],
]


def test_the_readme_has_three_complete_examples_and_one_excerpt():
    assert len(BLOCKS) == 4 and len(COMPLETE) == len(PRINTED) == 3


@pytest.mark.parametrize("index", range(len(PRINTED)))
def test_each_complete_example_prints_what_the_readme_states(index):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-c", COMPLETE[index]], capture_output=True,
                          text=True, env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert len(printed) == len(PRINTED[index])
    for line, start in zip(printed, PRINTED[index]):
        assert line.startswith(start), (line, start)


@pytest.mark.parametrize("index", range(len(EXCERPTS)))
def test_each_excerpt_quotes_its_module_verbatim(index):
    heading, *lines = EXCERPTS[index].splitlines()
    module = re.match(r"# excerpt of (\S+?),? ", heading + " ").group(1)
    source = (ROOT / "src" / "revforge" / module).read_text(encoding="utf-8").splitlines()
    assert lines and [line for line in lines if line not in source] == []


def test_the_command_line_quick_start_has_two_commands():
    assert [summary for _, summary, _ in COMMANDS] == [
        "PC3: holds over 7125 instances (0 violations",
        "P-star: fails over 235 instances (1 violations"]


@pytest.mark.parametrize("index", range(len(COMMANDS)))
def test_each_console_example_prints_what_the_readme_states(index):
    arguments, summary, expected = COMMANDS[index]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    done = subprocess.run([sys.executable, "-m", "revforge.cli", *arguments.split()],
                          capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert done.returncode == 0, done.stderr
    printed = done.stdout.splitlines()
    assert printed[0].startswith(summary + ", "), (printed[0], summary)
    assert printed[1] == expected
