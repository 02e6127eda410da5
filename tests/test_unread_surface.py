"""Every top-level function and class of the package is used somewhere.

A name counts as used when it appears as an identifier, an attribute or an
imported name in ``src/``, ``tests/`` or ``perfbench/`` outside its own
definition. The package ``__init__.py`` is not counted: re-exporting a name
does not read it.
"""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"


def _used_names(tree: ast.AST) -> Counter:
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.name.rsplit(".", 1)[-1]] += 1
    return names


def unread_definitions(package: Path, scanned: list[Path]) -> list[str]:
    """``module.name`` of each top-level def or class that nothing else names."""
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in scanned
        for path in sorted(root.rglob("*.py"))
        if path != package / "__init__.py"
    }
    used = sum((_used_names(tree) for tree in trees.values()), Counter())
    unread = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if used[node.name] - _used_names(node)[node.name] == 0:
                    unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_definition_is_named_elsewhere():
    scanned = [ROOT / "src", ROOT / "tests", ROOT / "perfbench"]
    assert unread_definitions(PACKAGE, scanned) == []
