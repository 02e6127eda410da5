"""One workload in a fresh interpreter; prints its measurements as one JSON line.

``run.py`` starts this script once per run, so the peak RSS it reports is the
workload's own. The script first does the set-up every CLI user pays (import
``vnlab.cli`` and normalize the workload's configs) and stamps the moment it
ends with ``time.monotonic``, a system-wide clock on Linux, which the parent
subtracts from its own start stamp. With ``--setup-only`` it stops there.

Untraced (``--trace 0``): one warm-up iteration (at half size where the
workload has one), then full-size iterations for ``--seconds`` and at least
``MIN_ITERATIONS``. Traced (``--trace 1``): the same warm-up, untraced
iterations for half of ``--seconds``, traced ones for the other half, then one
traced half-size iteration for the scaling exponents.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_ITERATIONS = 3


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = _parse(argv)
    sys.path.insert(0, str(ROOT / "src"))
    import ops  # imports vnlab.cli and every layer it uses

    full = ops.build(args.workload, args.seed)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0
    half = ops.build(args.workload, args.seed, 0.5) if args.workload in ops.SCALED else None
    result = _measure(args, full, half)
    result["ready"] = ready
    print(json.dumps(result))
    return 0


class _Runner:
    """Runs iterations; counts attempts and failures, keeps output digests."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.digests: dict[str, set] = {}
        self.details: dict[str, object] = {}

    def iteration(self, operations, size: str, tracer=None) -> dict:
        """One pass over the operations: wall time, counts and, traced, self times.

        The wall time sums the operations' calls only; their checks and
        digests run outside it.
        """
        counts = Counter()
        first = 0
        if tracer is not None:
            tracer.counts = counts
            first = len(tracer.spans)
        wall = 0.0
        for op in operations:
            key = f"{size}/{op.name}"
            self.attempted += 1
            if tracer is not None:
                tracer.request = f"{key}#{self.attempted}"
            outputs = None
            try:
                start = time.perf_counter()
                outputs = op.call(self.out_dir)
                wall += time.perf_counter() - start
                passed, digest, detail = op.check(outputs, counts)
            except Exception:  # counted as a failed operation; the run goes on
                self.failed += 1
                self.errors.append(f"{key}: {traceback.format_exc(limit=3)}")
                traceback.print_exc(file=sys.stderr)
                continue
            finally:
                # Free the outputs before the next call, so that they do not
                # add to its memory high-water mark.
                del outputs
            if not passed:
                self.failed += 1
                self.errors.append(f"{key}: checks failed: {detail}")
            self.digests.setdefault(key, set()).add(digest)
            self.details[key] = detail
        run = {"wall": wall, "counts": counts}
        if tracer is not None:
            run["self_s"], run["calls"] = tracer.summarize(first, len(tracer.spans))
        return run

    def repeat(self, operations, seconds: float, at_least: int, tracer=None) -> list[dict]:
        """Full-size iterations until ``seconds`` have passed and ``at_least`` ran."""
        runs = []
        start = time.perf_counter()
        while len(runs) < at_least or time.perf_counter() - start < seconds:
            runs.append(self.iteration(operations, "full", tracer))
        return runs


def _measure(args, full, half) -> dict:
    from tracer import Tracer

    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    (out / "artifacts").mkdir(parents=True)

    runner = _Runner(out / "artifacts")
    # Warm-up; its digests join the comparison like every other iteration's.
    runner.iteration(half or full, "half" if half else "full")
    result: dict = {"out_dir": str(out.relative_to(ROOT))}
    if not args.trace:
        result["walls"] = [r["wall"] for r in runner.repeat(full, args.seconds, MIN_ITERATIONS)]
    else:
        untraced = runner.repeat(full, args.seconds / 2, 1)
        tracer = Tracer()
        tracer.install()
        try:
            traced = runner.repeat(full, args.seconds / 2, 1, tracer)
            half_run = runner.iteration(half, "half", tracer) if half is not None else None
        finally:
            tracer.uninstall()
        median = sorted(traced, key=lambda r: r["wall"])[(len(traced) - 1) // 2]
        untraced_wall = statistics.median(r["wall"] for r in untraced)
        result["trace"] = {
            "self_s": median["self_s"],
            "calls": dict(median["calls"]),
            "calls_repeat": all(r["calls"] == median["calls"] for r in traced),
            "counts_repeat": all(r["counts"] == median["counts"] for r in traced),
            "counts": dict(median["counts"]),
            "half_self_s": half_run["self_s"] if half_run is not None else {},
            "wall_s": median["wall"],
            "untraced_wall_s": untraced_wall,
            "overhead_s": median["wall"] - untraced_wall,
            "remainder_s": median["wall"] - sum(median["self_s"].values()),
            "iterations": len(traced),
            "functions": tracer.functions,
        }
        _write_json(out / "spans.json", {
            "fields": ["name", "start_s", "end_s", "parent", "request"],
            "spans": tracer.spans,
        })

    result["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["attempted"] = runner.attempted
    result["failed"] = runner.failed
    result["errors"] = runner.errors
    result["consistent"] = all(len(d) == 1 for d in runner.digests.values())
    digests = {key: {"digests": sorted(d), "detail": runner.details.get(key)}
               for key, d in sorted(runner.digests.items())}
    _write_json(out / "digests.json", digests)
    result["digest_count"] = len(digests)
    result["machine"] = _machine_facts()
    return result


def _write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True, default=str) + "\n")


def _machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        l3 = int(subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True,
                                text=True, timeout=10).stdout.strip() or 0)
    except (OSError, ValueError, subprocess.TimeoutExpired):
        l3 = 0
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_thread_env": {k: os.environ.get(k) for k in
                            ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "blas_threads_in_use": "not read: threadpoolctl is not installed",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3 or "unknown",
    }


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
