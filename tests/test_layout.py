"""Repository layout guards."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _defined(stmt):
    """Names a top-level statement binds: a def, a class or an assignment."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    if isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        return {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return set()


def _referenced(tree):
    """Names, attribute names and `from ... import` names used in tree."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
    return out


def test_every_top_level_name_has_a_caller():
    """Every top-level def, class and assignment in src/condu (outside
    __init__.py) is referenced by another statement of the package, a
    demo, a benchmark script or the acceptance tests. The benchmark
    tracer finds names by string, so strings under benchmarks/ count."""
    defined, used = {}, set()
    for path in sorted((ROOT / "src" / "condu").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for stmt in ast.parse(path.read_text()).body:
            names = _defined(stmt)
            defined.update((name, f"{path.stem}.{name}") for name in names)
            used |= _referenced(stmt) - names
    callers = [*sorted((ROOT / "demos").glob("*.py")),
               *sorted((ROOT / "benchmarks").glob("*.py")),
               ROOT / "tests" / "test_acceptance.py"]
    for path in callers:
        tree = ast.parse(path.read_text())
        used |= _referenced(tree)
        if path.parent.name == "benchmarks":
            used.update(word for node in ast.walk(tree)
                        if isinstance(node, ast.Constant) and isinstance(node.value, str)
                        for word in re.findall(r"\w+", node.value))
    uncalled = sorted(q for name, q in defined.items() if name not in used)
    assert not uncalled, f"top-level names without a caller: {uncalled}"
