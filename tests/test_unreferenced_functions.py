"""Every simulator function is referenced by the program.

A function or method defined in the simulator packages must be referenced
somewhere in the program: in ``src/``, the benchmark, the scripts, the
figure benches or the examples, outside its own definition.  Tests do not
count as callers.  A reference is a name or attribute spelled like the
function, or a string constant equal to it, since ``getattr`` may reach it
that way.  Dunder methods are called implicitly and are exempt.  A helper
that only its own unit test calls is one more thing to keep in step with
the engines, and no result uses it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIMULATOR = [
    ROOT / "src" / "repro" / package
    for package in ("gpu", "mem", "core", "sched", "workloads")
]
READERS = [
    ROOT / name for name in ("src", "perfbench", "scripts", "benchmarks", "examples")
]
#: Kept without a caller in the program: tests compare the engines and the
#: trace intern against them.
ALLOWED = {
    "clear_trace_cache",
    "is_issuable",
    "outstanding_blocks",
    "total_warps",
    "trace_cache_info",
    "unregister_scheduler",
}

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _trees(roots):
    """``(path, module AST)`` of every Python file under ``roots``."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            yield path.resolve(), ast.parse(path.read_text(), filename=str(path))


def defined_functions(roots) -> dict[str, set[tuple]]:
    """Function name -> ``(path, line)`` of each definition, dunders excluded."""
    found: dict[str, set[tuple]] = {}
    for path, tree in _trees(roots):
        for node in ast.walk(tree):
            if isinstance(node, FUNCTIONS) and not (
                node.name.startswith("__") and node.name.endswith("__")
            ):
                found.setdefault(node.name, set()).add((path, node.lineno))
    return found


def references(roots) -> dict[str, set]:
    """Name -> the innermost enclosing definitions, as ``(path, line)``, of
    its references (``None`` for a reference outside any function)."""
    found: dict[str, set] = {}

    def visit(node, path, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Name):
                found.setdefault(child.id, set()).add(owner)
            elif isinstance(child, ast.Attribute):
                found.setdefault(child.attr, set()).add(owner)
            elif isinstance(child, ast.Constant) and isinstance(child.value, str):
                found.setdefault(child.value, set()).add(owner)
            inner = (path, child.lineno) if isinstance(child, FUNCTIONS) else owner
            visit(child, path, inner)

    for path, tree in _trees(roots):
        visit(tree, path, None)
    return found


def unreferenced(defining_roots, reading_roots) -> set[str]:
    """Names of the functions nothing references outside their definitions."""
    refs = references(reading_roots)
    return {
        name
        for name, definitions in defined_functions(defining_roots).items()
        if not refs.get(name, set()) - definitions
    }


def test_every_simulator_function_is_referenced():
    unused = unreferenced(SIMULATOR, READERS)
    assert ALLOWED <= unused, (
        f"no longer unreferenced, drop from ALLOWED: {sorted(ALLOWED - unused)}"
    )
    assert unused == ALLOWED, (
        f"functions only tests call: {sorted(unused - ALLOWED)}"
    )


def test_scan_sees_an_unreferenced_function(tmp_path):
    (tmp_path / "model.py").write_text(
        "def used():\n"
        "    return 1\n"
        "\n"
        "def recursive(n):\n"
        "    return recursive(n - 1) if n else 0\n"
        "\n"
        "def dropped():\n"
        "    return used()\n"
        "\n"
        "class Model:\n"
        "    def __repr__(self):\n"
        "        return 'model'\n"
        "\n"
        "    def by_name(self):\n"
        "        return 1\n"
        "\n"
        "TABLE = {'f': used, 'g': getattr(Model(), 'by_name')}\n"
    )
    assert unreferenced([tmp_path], [tmp_path]) == {"recursive", "dropped"}
