"""The library holds no public name that the system itself never uses.

Every public module-level function or class of `src/lanegame` (the
package `__init__` aside), and every public method, must be referenced
from `src/`. A function or class counts as referenced only where a read
of it resolves to its own module: its bare name in that module, its bare
name in a module that imports it by name, or an attribute of an alias of
its module. So `sol.ego_cost`, a field of some object, does not keep a
function `ego_cost` alive. A method counts as referenced when an
attribute of its name is read anywhere. An import alone never counts, so
a re-export in `__init__` or an import kept only for a patch does not
keep a name alive.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {p.stem: p.read_text() for p in sorted((ROOT / "src" / "lanegame").glob("*.py"))}

# Public names that only the benchmark harness reads, each with the bench/
# file that reads it. They stay until the benchmark stops reading them.
HELD = {
    "costs.ego_cost": "bench/checks.py scores a game's cell on a second code path",
    "costs.ac_cost": "bench/checks.py scores a game's cell on a second code path",
    "games.ego_candidates": "bench/checks.py and bench/layers.py read the candidates",
    "games.ac_candidates": "bench/checks.py and bench/layers.py read the candidates",
    "ActionGrid.restrict_sigmas": "bench/checks.py restricts a grid to one side",
}


def _public_definitions(sources):
    """{qualified name: is a method} of the public functions, classes and
    methods of `sources` ({module stem: source}), `__init__` aside; a
    function or class is qualified by its module, a method by its class."""
    found = {}
    for stem, source in sources.items():
        if stem == "__init__":
            continue
        for node in ast.parse(source).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                found[f"{stem}.{node.name}"] = False
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        found[f"{node.name}.{item.name}"] = True
    return found


def _package_module(module, level):
    """The module stem that an import names inside the package: "" for the
    package itself, None for a module outside it."""
    if level == 1:
        return module or ""
    if module == "lanegame" or (module or "").startswith("lanegame."):
        return module.partition(".")[2]
    return None


def _references(sources):
    """(qualified names read, attribute names read) over `sources`: a bare
    name resolves to the module it was imported from by name, else to its
    own module; an attribute of a module alias resolves to that module."""
    qualified, attrs = set(), set()
    for stem, source in sources.items():
        tree = ast.parse(source)
        by_name, modules = {}, {}   # local name -> qualified name / module stem
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                home = _package_module(node.module, node.level)
                for a in node.names:
                    if home == "":
                        modules[a.asname or a.name] = a.name
                    elif home is not None:
                        by_name[a.asname or a.name] = f"{home}.{a.name}"
            elif isinstance(node, ast.Import):
                for a in node.names:
                    home = _package_module(a.name, 0)
                    if home and a.asname:
                        modules[a.asname] = home
        for node in ast.walk(tree):
            if not isinstance(getattr(node, "ctx", None), ast.Load):
                continue
            if isinstance(node, ast.Name):
                qualified.add(by_name.get(node.id, f"{stem}.{node.id}"))
            elif isinstance(node, ast.Attribute):
                attrs.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    qualified.add(f"{modules[node.value.id]}.{node.attr}")
    return qualified, attrs


def _unused(sources):
    """The public definitions of `sources` that nothing in them reads."""
    qualified, attrs = _references(sources)
    return sorted(q for q, method in _public_definitions(sources).items()
                  if (q.rsplit(".", 1)[1] not in attrs if method else q not in qualified))


def test_every_public_name_is_used_by_the_system():
    assert [q for q in _unused(SOURCES) if q not in HELD] == []


def test_references_resolve_to_their_module():
    # `obj.name` is an attribute of some object, and `name` in `c` is that
    # module's own variable: neither reads `a.name`. The by-name import,
    # the module alias and the method attribute do read theirs.
    sources = {
        "a": ("def name(): pass\ndef other(): pass\ndef third(): pass\n"
              "class K:\n    def meth(self): pass\n    def idle(self): pass\n"),
        "b": ("from .a import K, name as renamed, other\nfrom . import a as mod\n"
              "obj = K()\nobj.name\nother()\nmod.third\nobj.meth()\n"),
        "c": "from lanegame.a import third\nname = 1\nprint(name)\n",
    }
    assert _unused(sources) == ["K.idle", "a.name"]


def test_held_names_are_defined_and_read_by_bench():
    # A held name that bench/ no longer reads leaves the list, and with it
    # the library.
    defined = _public_definitions(SOURCES)
    bench = "".join(p.read_text() for p in sorted((ROOT / "bench").glob("*.py")))
    for qualified in HELD:
        assert qualified in defined, qualified
        assert re.search(rf"\b{qualified.rsplit('.', 1)[1]}\b", bench), qualified
