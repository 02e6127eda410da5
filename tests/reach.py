"""Which functions of a package a job enters, by ``sys.settrace``.

Every ``def`` of the package's modules counts as a function: module-level
functions, methods (``Class.method``) and nested functions
(``outer.<locals>.inner``), each named ``module.qualname`` as Python's
``co_qualname`` names it. Lambdas and comprehensions do not count.

Run as ``python tests/reach.py PACKAGE_DIR MODULE:FUNCTION``, it turns the
tracer on, imports MODULE, so that what the package runs at import counts
too, calls FUNCTION with a temporary directory, and prints, as JSON, the
sorted names of the package's functions that were entered. ``entered`` runs
that in a fresh interpreter, with the package's parent directory first on
the module path.
"""

from __future__ import annotations

import ast
import importlib
import json
import subprocess
import sys
import tempfile
from pathlib import Path


def definitions(package: Path) -> set[str]:
    """``module.qualname`` of every def in the package's modules."""
    found = set()

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.add(prefix + child.name)
                walk(child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{prefix}{child.name}.")
            else:
                walk(child, prefix)

    for path in sorted(package.glob("*.py")):
        walk(ast.parse(path.read_text(), filename=str(path)), f"{path.stem}.")
    return found


def entered(package: Path, job: str) -> set[str]:
    """The functions of ``package`` that ``job`` (``MODULE:FUNCTION``) enters."""
    proc = subprocess.run([sys.executable, __file__, str(package), job],
                          capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError(f"{job} failed under the tracer:\n{proc.stderr}")
    return set(json.loads(proc.stdout))


def default_jobs(out_dir: Path) -> None:
    """The default config of every command and of every scenario, as the CLI runs them."""
    from vnlab import cli, scenarios

    for command in cli.RUNNERS:
        cli._execute(command, None, out_dir / command, None, {})
    for name in scenarios.SCENARIOS:
        cli._execute("run-scenario", {"parameters": {"scenario": name}}, out_dir / name, None, {})


def _trace(package: Path, job: str) -> list[str]:
    root = str(package.resolve()) + "/"
    names = set()

    def tracer(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_filename.startswith(root):
            names.add(f"{Path(code.co_filename).stem}.{code.co_qualname}")

    sys.path.insert(0, str(package.resolve().parent))
    module, function = job.split(":")
    with tempfile.TemporaryDirectory() as out_dir:
        sys.settrace(tracer)
        try:
            getattr(importlib.import_module(module), function)(Path(out_dir))
        finally:
            sys.settrace(None)
    return sorted(names)


if __name__ == "__main__":
    print(json.dumps(_trace(Path(sys.argv[1]), sys.argv[2])))
