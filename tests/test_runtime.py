"""The package runs on the standard library alone.

Every absolute import in the package's modules, at any depth (function
bodies included), names a top-level module of the standard library;
relative imports stay inside the package.
"""
import ast
import sys
from pathlib import Path

import wsections

SRC = Path(wsections.__file__).parent


def _absolute_imports() -> list[tuple[str, str]]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                found += [(path.name, alias.name) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.append((path.name, node.module))
    return found


def test_every_absolute_import_is_in_the_standard_library():
    imports = _absolute_imports()
    stdlib = sys.stdlib_module_names
    outside = [(name, module) for name, module in imports if module.partition(".")[0] not in stdlib]
    assert outside == []
    assert ("linalg.py", "itertools") in imports  # the walk sees the imports it judges
