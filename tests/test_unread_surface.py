"""The package holds what the program reads and what its jobs run.

Two guards. The name guard: every top-level function and class, and every
method and property of a top-level class (dunder methods aside), is read by
the program. A name counts as read when it appears as an identifier, an
attribute or an imported name in ``src/`` or ``perfbench/`` outside its own
definition, or when a ``per_layer`` metric of ``BENCHMARK.json`` names it.
An identifier that the enclosing function binds, as a parameter or an
assignment target, is that function's local and reads nothing at module
level. Tests do not count: a definition that only its own test calls
belongs in test code. The package ``__init__.py`` is not counted either:
re-exporting a name does not read it. The guard matches names, so an
attribute of the same name anywhere hides a method: ``rho.matrix`` reads
every ``matrix``.

The reach guard sees past that: the default job of every command and every
scenario runs under ``sys.settrace`` (``tests/reach.py``), and every
function of ``src/`` is entered or is listed in ``NOT_YET_RUN`` with the
open ROADMAP item that will wire it into a job or remove it, or as an entry
point.
"""

import ast
import importlib
import inspect
import json
import re
from collections import Counter
from pathlib import Path

import reach

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "vnlab"

# The functions that no default job enters, each with the open ROADMAP item that
# will wire it into a job or remove it, or "entry point".
NOT_YET_RUN = {
    # The command line, and Python callers of execute, start the jobs.
    "cli.main": "entry point",
    "cli._parse_tolerance": "entry point",
    "cli.execute": "entry point",
    # A runner or scenario called from Python without a coupling derives it from
    # its probe; the command line always passes one (cli._argument).
    "observables.CouplingParams.from_probe": "entry point",
    # The action kind on a Cartesian state leaves the xi chart; from_angle_action goes.
    "states.from_angle_action": "item 1",
    "states.PhaseSpaceDensity.normalized": "item 1",
    # The moyal_gap scenario runs the Wigner channel on a mixed state.
    "wigner.wigner_transform": "item 3",
    "wigner.evolved_wigner": "item 3",
    "wigner._antidiagonals": "item 3",
    "wigner._phase_matrix": "item 3",
    "wigner._wigner_from_antidiagonals": "item 3",
    "wigner.WignerFunction.__post_init__": "item 3",
    "states.DensityOperator.dim": "item 3",
    "states.DensityOperator.hermitian_residue": "item 3",
    "states.DensityOperator.require_hermitian": "item 3",
    # table1-report row 5 runs both collapses.
    "qm.conditional_state": "item 4",
    "cm.conditional_state_cm": "item 4",
    "observables.ProbeSpec.position_wavefunction": "item 4",
    # The general-kind channel leaves src/.
    "cm._pde_evolve": "item 5",
    "cm.pde_stability_bound": "item 5",
    "cm.apply_liouville_generator": "item 5",
    "observables.general_observable": "item 5",
    # Read by perfbench/ alone until the next benchmark change.
    "heisenberg.sample_initial": "item 11",
    "states.trace_with": "item 11",
    # The channel as the probe average of the exact kick.
    "cm.joint_state_post": "item 15",
    "cm.flow_map": "item 15",
    "cm.JointEvolvedState.values": "item 15",
    "cm.JointEvolvedState.mass": "item 15",
    "observables.ProbeSpec.momentum_density": "item 15",
}


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


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def unread_definitions(package: Path, scanned: list[Path], named: set[str]) -> list[str]:
    """``module.name`` of each top-level def or class, and ``module.Class.name`` of
    each method or property of a top-level class, dunders aside, that nothing
    outside its own body names.

    ``named`` holds names read from outside Python code.
    """
    trees = {
        path: ast.parse(path.read_text(), filename=str(path))
        for root in scanned
        for path in sorted(root.rglob("*.py"))
        if path != package / "__init__.py"
    }
    used = sum((_used_names(tree) for tree in trees.values()), Counter())

    def unread(node) -> bool:
        return node.name not in named and used[node.name] - _used_names(node)[node.name] == 0

    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in trees[path].body:
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)) and unread(node):
                found.append(f"{path.stem}.{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}.{node.name}.{member.name}" for member in node.body
                          if isinstance(member, FUNCTIONS) and not member.name.startswith("__")
                          and unread(member)]
    return found


def test_every_definition_is_read_by_the_program():
    named = {function for _, function in per_layer_functions()}
    unread = unread_definitions(PACKAGE, [ROOT / "src", ROOT / "perfbench"], named)
    assert sorted(set(unread) - NOT_YET_RUN.keys()) == []


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


def test_a_method_read_only_by_its_own_body_is_unread(tmp_path):
    # Recursion is no reader and a property read as an attribute is one. A
    # same-named attribute of another class hides a method from this guard; the
    # reach guard reports that method as never entered. The job spec names ``run``.
    package = tmp_path / "pkg"
    package.mkdir()
    (package / "__init__.py").write_text("")
    layer = (
        "class Walker:\n"
        "    def depth(self, n):\n"
        "        return self.depth(n - 1) + 1 if n else 0\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 1\n"
        "\n"
        "class Spectrum:\n"
        "    def matrix(self):\n"
        "        return [[1.0]]\n"
    )
    (package / "layer.py").write_text(layer)
    (package / "main.py").write_text(
        "from .layer import Spectrum, Walker\n"
        "\n"
        "def run(out_dir):\n"
        "    return Walker().size, Spectrum()\n"
    )
    assert unread_definitions(package, [package], {"run"}) == [
        "layer.Walker.depth", "layer.Spectrum.matrix"]
    (package / "layer.py").write_text(
        layer + "\n"
        "class State:\n"
        "    def __init__(self, matrix):\n"
        "        self.matrix = matrix\n"
    )
    (package / "main.py").write_text(
        "from .layer import Spectrum, State, Walker\n"
        "\n"
        "def run(out_dir):\n"
        "    return Walker().size, Spectrum(), State([[0.5]]).matrix\n"
    )
    assert unread_definitions(package, [package], {"run"}) == ["layer.Walker.depth"]
    never = reach.definitions(package) - reach.entered(package, "pkg.main:run")
    assert never == {"layer.Spectrum.matrix", "layer.Walker.depth"}


def test_every_function_is_entered_by_a_job_or_not_yet_run():
    defined = reach.definitions(PACKAGE)
    entered = reach.entered(PACKAGE, "reach:default_jobs")
    assert sorted(defined - entered - NOT_YET_RUN.keys()) == []
    # An entry leaves the map when a job enters its function or the function goes.
    assert sorted(NOT_YET_RUN.keys() & entered) == []
    assert sorted(NOT_YET_RUN.keys() - defined) == []


def test_every_not_yet_run_entry_cites_an_open_item():
    roadmap = (ROOT / "ROADMAP.md").read_text()
    open_items = set(re.findall(r"^### (\d+)\. ", roadmap, re.MULTILINE))
    for name, reason in NOT_YET_RUN.items():
        match = re.fullmatch(r"item (\d+)", reason)
        assert reason == "entry point" or (match and match[1] in open_items), (name, reason)


def test_every_per_layer_function_exists():
    # The traced benchmark run raises for a per_layer metric whose function
    # it cannot find, so a deletion must not leave one behind.
    for layer, function in per_layer_functions():
        module = importlib.import_module(f"vnlab.{layer}")
        value = getattr(module, function, None)
        assert not function.startswith("_"), f"{layer}.{function}"
        assert inspect.isfunction(value), f"{layer}.{function}"
        assert value.__module__ == module.__name__, f"{layer}.{function}"
