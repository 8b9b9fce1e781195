"""The public API holds only what the package itself runs.

Every name in wsections.__all__ must be read somewhere in the package's own
code, outside __init__.py: as a bare name, or as an attribute of one of the
package's modules (invariants.build_minor), in a module body, a function
body or an annotation.  Definitions, assignments, imports and docstrings do
not count, and neither does an attribute of anything else: t.neighboring_pairs
reads the Tableau property, not a function of that name.
"""
import ast
import re
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


def test_readme_library_sketch_runs(capsys):
    # The README's sketch calls the public API; a signature change that
    # leaves it stale fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    sketch = readme.split("## Library sketch", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md", "exec"), {})
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("True ") and lines[1] == "2 (True, 13)"
    assert len(lines) == 4  # the report, the two checks, then one line per pair


def test_readme_contracts_table_names_the_public_api():
    # The first column of README's Contracts table names every public name
    # and linalg.rank_int, and nothing else; a method row (Composition.parse)
    # counts as its class.  A name dropped from __all__ leaves no stale row.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Contracts", 1)[1].split("\n\n| Name ", 1)[1].split("\n\n", 1)[0]
    named = set()
    for row in table.splitlines()[2:]:
        for name in re.findall(r"`([\w.]+)", row.split("|")[1]):
            head = name.split(".")[0]
            named.add(head if head in wsections.__all__ else name)
    assert named == set(wsections.__all__) | {"linalg.rank_int"}
