"""Every top-level function and class of the package is read by the program.

A name counts as read when it appears as an identifier, an attribute or an
imported name in ``src/`` or ``perfbench/`` outside its own definition, or
when a ``per_layer`` metric of ``BENCHMARK.json`` names it. An identifier
that the enclosing function binds, as a parameter or an assignment target, is
that function's local and reads nothing at module level. Tests do not
count: a definition that only its own test calls belongs in test code. The
package ``__init__.py`` is not counted either: re-exporting a name does not
read it.
"""

import ast
import importlib
import inspect
import json
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# Read by tests/test_acceptance.py alone until table1-report runs the selective
# measurement (ROADMAP item 4); they stay in src/ to be wired in there.
EXEMPT = {"qm.conditional_state", "cm.conditional_state_cm"}


def _bound_names(function: ast.AST) -> set[str]:
    """The parameters and assignment targets of a function or lambda."""
    args = function.args
    params = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
    bound = {arg.arg for arg in params if arg is not None}
    return bound | {node.id for node in ast.walk(function)
                    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)}


def _reads(node: ast.AST, bound: frozenset = frozenset()):
    """Every name ``node`` reads: identifiers not bound by an enclosing function,
    attributes and imported names."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        bound = bound | _bound_names(node)
    if isinstance(node, ast.Name):
        if node.id not in bound:
            yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.alias):
        yield node.name.rsplit(".", 1)[-1]
    for child in ast.iter_child_nodes(node):
        yield from _reads(child, bound)


def _used_names(tree: ast.AST) -> Counter:
    return Counter(_reads(tree))


def per_layer_functions() -> set[tuple[str, str]]:
    """(layer, function) of every ``<layer>.<function>.<stat>`` per_layer metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    found = (re.fullmatch(r"(\w+)\.(\w+)\.\w+", m["name"]) for m in spec["per_layer"])
    return {match.groups() for match in found if match}


def unread_definitions(package: Path, scanned: list[Path], named: set[str]) -> list[str]:
    """``module.name`` of each top-level def or class that nothing else names.

    ``named`` holds names read from outside Python code.
    """
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
                if node.name not in named and used[node.name] - _used_names(node)[node.name] == 0:
                    unread.append(f"{path.stem}.{node.name}")
    return unread


def test_every_definition_is_read_by_the_program():
    named = {function for _, function in per_layer_functions()}
    unread = unread_definitions(PACKAGE, [ROOT / "src", ROOT / "perfbench"], named)
    assert sorted(unread) == sorted(EXEMPT)


def test_a_local_name_does_not_read_a_definition(tmp_path):
    # A parameter or a local variable that shares a definition's name does not
    # read it; a call from another function does.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("from .layer import run, tally\n")
    (package / "layer.py").write_text(
        "def pointer_mean(weights):\n"
        "    return sum(weights)\n"
        "\n"
        "def run(weights, pointer_mean=1e-8):\n"
        "    return [w for w in weights if w > pointer_mean]\n"
        "\n"
        "def tally(weights):\n"
        "    pointer_mean = len(weights)\n"
        "    return run(weights, pointer_mean)\n"
    )
    (package / "main.py").write_text("from .layer import tally\n\nprint(tally([1.0]))\n")
    assert unread_definitions(package, [package], set()) == ["layer.pointer_mean"]
    (package / "main.py").write_text("from .layer import pointer_mean, tally\n\n"
                                     "print(tally([1.0]), pointer_mean([1.0]))\n")
    assert unread_definitions(package, [package], set()) == []


def test_every_per_layer_function_exists():
    # The traced benchmark run raises for a per_layer metric whose function
    # it cannot find, so a deletion must not leave one behind.
    for layer, function in per_layer_functions():
        module = importlib.import_module(f"vnlab.{layer}")
        value = getattr(module, function, None)
        assert not function.startswith("_"), f"{layer}.{function}"
        assert inspect.isfunction(value), f"{layer}.{function}"
        assert value.__module__ == module.__name__, f"{layer}.{function}"
