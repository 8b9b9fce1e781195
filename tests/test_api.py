"""The public API holds only what the package itself runs.

Every name in wsections.__all__ must be read somewhere in the package's own
code, outside __init__.py: as a bare name, or as an attribute of one of the
package's modules (invariants.build_minor), in a module body, a function
body or an annotation.  Definitions, assignments, imports and docstrings do
not count, and neither does an attribute of anything else: t.neighboring_pairs
reads the Tableau property, not a function of that name.
"""
import ast
from pathlib import Path

import wsections

SRC = Path(wsections.__file__).parent

# Public names that no module of the package calls yet; a name leaves this
# set in the change that gives it a caller.
NOT_YET_CALLED = {"codim_orbit"}


def _names_read_in_package() -> set[str]:
    modules = {path.stem for path in SRC.glob("*.py")}
    read = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                read.add(node.attr)
    return read


def test_every_public_name_has_a_caller_in_the_package():
    uncalled = set(wsections.__all__) - _names_read_in_package()
    assert uncalled == NOT_YET_CALLED


def test_public_names_exist():
    for name in wsections.__all__:
        assert hasattr(wsections, name), name
