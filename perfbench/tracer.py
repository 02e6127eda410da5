"""Spans around every public function of vnlab's layer modules.

The tracer wraps each public module-level function of the layers from outside
the package and restores the originals on ``uninstall``. ``from .x import f``
copies the binding into the importing module, so a wrapper is bound under
every name that refers to the original: in each ``vnlab`` module namespace
and in the module-level dicts that hold functions (``scenarios.SCENARIOS``,
``cli.RUNNERS``). Spans stay in memory until the benchmark writes them out.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from pathlib import Path

LAYERS = ("wigner", "qm", "states", "cm", "heisenberg", "scenarios", "cli")


def _wigner_macs(counts: Counter, args: dict) -> None:
    # The dense transform multiplies an (n_p, n_y) phase matrix by the
    # (n_y, n_q) antidiagonal matrix, n_y = 2 * ((n - 1) // 2) + 1.
    n = args["rho"].grid.n
    counts["wigner.macs"] += args["pgrid"].n * (2 * ((n - 1) // 2) + 1) * n


def _samples(counts: Counter, args: dict) -> None:
    counts["heisenberg.sample_initial.samples"] += args["n"]


def _table_bytes(counts: Counter, args: dict) -> None:
    counts["cli.write_table.bytes"] += Path(args["path"]).stat().st_size


# Computed work, recorded from a call's arguments after it returns.
HOOKS = {
    "wigner.wigner_transform": _wigner_macs,
    "wigner.evolved_wigner": _wigner_macs,
    "heisenberg.sample_initial": _samples,
    "cli.write_table": _table_bytes,
}

# Every count the benchmark records: the hooks' and the PDE step count that
# ops.py works out from the stability bound.
COUNTERS = (
    "wigner.macs",
    "heisenberg.sample_initial.samples",
    "cli.write_table.bytes",
    "cm.pde_stability_bound.steps",
)


class Tracer:
    """Records spans ``[name, start, end, parent index, request]`` and counts."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = ""
        self._stack: list[int] = []
        self._patches: list[tuple[dict, str, object]] = []
        self.functions: list[str] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        hook = HOOKS.get(name)
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.request])
            stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index][1:3] = start, end
            if hook is not None:
                hook(self.counts, signature.bind(*args, **kwargs).arguments)
            return result

        return traced

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer is already installed")
        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = sys.modules[f"vnlab.{layer}"]
            for attr, value in vars(module).items():
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_")):
                    wrappers[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
                    self.functions.append(f"{layer}.{attr}")
        for name, module in list(sys.modules.items()):
            if name != "vnlab" and not name.startswith("vnlab."):
                continue
            namespace = vars(module)
            self._rebind(namespace, wrappers)
            for value in list(namespace.values()):
                if isinstance(value, dict):
                    self._rebind(value, wrappers)

    def _rebind(self, mapping: dict, wrappers: dict) -> None:
        for key, value in list(mapping.items()):
            entry = wrappers.get(id(value))
            if entry is not None and entry[0] is value:
                self._patches.append((mapping, key, value))
                mapping[key] = entry[1]

    def uninstall(self) -> None:
        while self._patches:
            mapping, key, original = self._patches.pop()
            mapping[key] = original

    def summarize(self, first: int, end: int) -> tuple[dict[str, float], Counter]:
        """Self seconds and call counts per function over spans[first:end].

        A span's self time is its duration minus its children's durations;
        calls nest, so children never overlap one another. The range must hold
        whole top-level calls, as one iteration does.
        """
        spans = self.spans
        child = Counter()
        for span in spans[first:end]:
            if span[3] >= first:
                child[span[3]] += span[2] - span[1]
        self_s: dict[str, float] = {}
        calls: Counter = Counter()
        for index in range(first, end):
            name, start, end = spans[index][:3]
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[index]
            calls[name] += 1
        return self_s, calls
