"""The library holds no public name that the system itself never uses.

Every public module-level function or class of `src/lanegame` (the
package `__init__` aside), and every public method, must be referenced
from `src/`: read as a name or an attribute somewhere in its modules. An
import alone does not count, so a re-export in `__init__` or an import
kept only for a patch does not keep a name alive.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "lanegame").glob("*.py")
                 if p.name != "__init__.py")

# Public names that only the benchmark harness reads, each with the bench/
# file that reads it. They stay until the benchmark stops reading them.
HELD = {
    "costs.ego_cost": "bench/checks.py scores a game's cell on a second code path",
    "costs.ac_cost": "bench/checks.py scores a game's cell on a second code path",
    "games.ego_candidates": "bench/checks.py and bench/layers.py read the candidates",
    "games.ac_candidates": "bench/checks.py and bench/layers.py read the candidates",
    "ActionGrid.restrict_sigmas": "bench/checks.py restricts a grid to one side",
}


def _public_definitions():
    """{qualified name: module stem} of the public functions, classes and
    methods; a method is qualified by its class."""
    found = {}
    for path in MODULES:
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found[f"{path.stem}.{node.name}"] = path.stem
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = path.stem
    return found


def _referenced_names():
    """Every name read as a bare name or an attribute anywhere in src/."""
    names = set()
    for path in (ROOT / "src" / "lanegame").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_by_the_system():
    used = _referenced_names()
    unused = sorted(q for q in _public_definitions()
                    if q.rsplit(".", 1)[1] not in used and q not in HELD)
    assert unused == []


def test_held_names_are_defined_and_read_by_bench():
    # A held name that bench/ no longer reads leaves the list, and with it
    # the library.
    defined = _public_definitions()
    bench = "".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    for qualified in HELD:
        assert qualified in defined, qualified
        assert re.search(rf"\b{qualified.rsplit('.', 1)[1]}\b", bench), qualified
