"""The simulator keeps no counter that nothing reads.

Every attribute the simulator packages update with an augmented assignment
(``x.f += ...``) must be read somewhere in the program: in ``src/``, the
benchmark, the scripts, the figure benches or the examples.  Tests do not
count as readers.  A string constant naming the attribute counts as a read,
since ``getattr`` may reach it that way.  A counter only its own updates
touch costs the engines time on every access and explains nothing, because
no output shows it.
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


def _trees(roots):
    """``(path relative to the root's parent, module AST)`` of every file."""
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            tree = ast.parse(path.read_text(), filename=str(path))
            yield path.relative_to(root.parent), tree


def updated_attributes(roots) -> dict[str, str]:
    """Attribute name -> first ``path:line`` where ``x.name op= ...`` updates it."""
    found: dict[str, str] = {}
    for path, tree in _trees(roots):
        for node in ast.walk(tree):
            if isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Attribute):
                where = f"{path}:{node.lineno}"
                found.setdefault(node.target.attr, where)
    return found


def read_names(roots) -> set[str]:
    """Attribute names loaded anywhere under ``roots``, plus string constants."""
    names: set[str] = set()
    for _path, tree in _trees(roots):
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                names.add(node.attr)
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_updated_simulator_attribute_is_read():
    updated = updated_attributes(SIMULATOR)
    assert updated, "the scan found no augmented assignment at all"
    reads = read_names(READERS)
    write_only = {name: where for name, where in updated.items() if name not in reads}
    assert not write_only, (
        "attributes that are only ever updated, never read: "
        + ", ".join(f"{name} ({where})" for name, where in sorted(write_only.items()))
    )


def test_scan_sees_a_write_only_counter(tmp_path):
    (tmp_path / "model.py").write_text(
        "class Model:\n"
        "    def step(self):\n"
        "        self.kept += 1\n"
        "        self.dropped += 1\n"
        "        return self.kept\n"
    )
    updated = updated_attributes([tmp_path])
    reads = read_names([tmp_path])
    assert set(updated) == {"kept", "dropped"}
    assert "kept" in reads and "dropped" not in reads
