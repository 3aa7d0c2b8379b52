"""The runtime stays standard-library only.

Every absolute import in ``src/revforge`` names ``revforge`` itself or a
top-level module of the standard library; relative imports stay inside
the package.
"""

import ast
import sys
from pathlib import Path

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "revforge").rglob("*.py"))


def _absolute_imports(path: Path):
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and not node.level:
            yield node.module


def test_package_imports_only_itself_and_the_standard_library():
    assert len(SOURCES) > 10
    foreign = {f"{path.name}: {name}" for path in SOURCES for name in _absolute_imports(path)
               if name.partition(".")[0] not in sys.stdlib_module_names | {"revforge"}}
    assert not foreign
