"""Every public module-level function and class of the package is reached
from the program: from src/specloc or from benchmarks/, not only from tests.

Reachability is a closure over names.  The roots are every statement under
benchmarks/ and every module-level statement of src/specloc that is not a
function or class definition; a definition is reached when a reached piece of
code names it by a ``Name``, an ``Attribute`` or a string constant that is an
identifier (the benchmark tracer lists its targets as strings), and its own
body then counts as reached code.  A name used only inside its own
definition, or only by unreached code, does not reach it.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _names(node) -> set[str]:
    found = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            found.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            if sub.value.isidentifier():
                found.add(sub.value)
    return found


def unreached_definitions(root: pathlib.Path) -> list[str]:
    """``module.name`` of each public top-level def or class under
    ``root/src/specloc`` that no program code reaches, sorted."""
    bodies: dict[str, list[set[str]]] = {}
    public: list[tuple[str, str]] = []
    reached_code: list[set[str]] = [_names(ast.parse(path.read_text(encoding="utf-8")))
                                    for path in sorted((root / "benchmarks").glob("*.py"))]
    for path in sorted((root / "src" / "specloc").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                bodies.setdefault(node.name, []).append(_names(node))
                if not node.name.startswith("_"):
                    public.append((path.stem, node.name))
            else:
                reached_code.append(_names(node))
    reached: set[str] = set()
    while reached_code:
        for name in reached_code.pop():
            if name not in reached:
                reached.add(name)
                reached_code.extend(bodies.get(name, ()))
    return sorted("%s.%s" % (module, name) for module, name in public if name not in reached)


def test_every_public_definition_is_reached_from_the_program():
    assert unreached_definitions(ROOT) == []
