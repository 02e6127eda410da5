"""vnlab benchmark: one workload per run, each in a fresh child process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all            # every workload, one table

Run from anywhere; paths are taken relative to this file's checkout. Set-up
time is the median of ``2 * SETUP_PROBES + 1`` fresh interpreters: probes that
stop after set-up, half of them before the workload's own child and half
after it, plus that child. The last line printed is
one JSON object: ``correct``, ``attempted``, ``failed`` and the metrics that
``BENCHMARK.json`` lists, its ``end_to_end`` ones untraced and its
``per_layer`` ones traced. Outputs, digests and spans go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Set-up probes on each side of the workload's child, so that they sample the
# host over the whole run rather than one moment of it.
SETUP_PROBES = 3
# Every run must end within 180 s; the child gets what is left of this.
TIME_LIMIT_S = 170.0
PERCENTILES = (50, 90, 95, 99, 99.9)


class BenchmarkError(RuntimeError):
    pass


def _child(args: list[str], deadline: float) -> dict:
    start = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE, text=True, cwd=ROOT,
            timeout=max(1.0, deadline - start),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"child {args} ran past the time limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"child {args} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - start
    return result


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    deadline = time.monotonic() + TIME_LIMIT_S
    common = ["--workload", workload, "--seed", str(seed)]
    probes = 0 if trace else SETUP_PROBES

    def setups() -> list[float]:
        return [_child([*common, "--setup-only"], deadline)["setup_s"] for _ in range(probes)]

    before = setups()
    result = _child([*common, "--seconds", str(seconds), "--trace", str(trace)], deadline)
    result["setups"] = [*before, result["setup_s"], *setups()]
    return result


def _tail(walls: list[float]) -> tuple[float, float] | None:
    """The highest percentile with at least ten samples beyond it, and its value."""
    n = len(walls)
    fit = [p for p in PERCENTILES if n * (1.0 - p / 100.0) >= 10]
    if not fit:
        return None
    p = fit[-1]
    return p, sorted(walls)[math.ceil(p / 100.0 * n) - 1]


def _exp(full: float, half: float) -> float:
    # Every stress size doubles from the half-size point to the full one.
    return math.log2(full / half) if full > 0 and half > 0 else 0.0


def layer_metric(name: str, tr: dict) -> float:
    """Value of one ``per_layer`` metric from a traced child's result."""
    from tracer import COUNTERS

    prefix, _, stat = name.rpartition(".")
    if prefix == "trace":
        return tr[stat]
    if stat == "self_s" and "." not in prefix:
        return sum(v for k, v in tr["self_s"].items() if k.startswith(prefix + "."))
    if prefix in tr["functions"]:
        if stat == "self_s":
            return tr["self_s"].get(prefix, 0.0)
        if stat == "calls":
            return tr["calls"].get(prefix, 0)
        if stat == "exp":
            return _exp(tr["self_s"].get(prefix, 0.0), tr["half_self_s"].get(prefix, 0.0))
    if name in COUNTERS:
        return tr["counts"].get(name, 0)
    raise BenchmarkError(f"BENCHMARK.json names a metric the benchmark cannot measure: {name}")


def metrics(result: dict, spec: dict, trace: int) -> dict:
    if trace:
        return {m["name"]: {"value": layer_metric(m["name"], result["trace"]), "unit": m["unit"]}
                for m in spec["per_layer"]}
    values = {
        "wall_s": statistics.median(result["walls"]),
        "setup_s": statistics.median(result["setups"]),
        "peak_rss_mb": result["peak_rss_mib"],
    }
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec["end_to_end"]}


def _correct(result: dict) -> bool:
    """Nothing failed, every digest repeats and, traced, every exact count repeats."""
    tr = result.get("trace")
    repeats = tr is None or (tr["calls_repeat"] and tr["counts_repeat"])
    return result["failed"] == 0 and result["consistent"] and repeats


def report(workload: str, result: dict, found: dict, trace: int) -> None:
    m = result["machine"]
    print(f"machine: nproc={m['nproc']} (usable {m['cpus_usable']}), BLAS {m['blas']}, "
          f"BLAS thread env {m['blas_thread_env']}, threads in use {m['blas_threads_in_use']}, "
          f"L3 {m['l3_bytes']} B, python {m['python']}, numpy {m['numpy']}, scipy {m['scipy']}")
    print(f"workload {workload}: outputs in {result['out_dir']}")
    fail_ratio = result["failed"] / result["attempted"]
    print(f"  fail_ratio   = {fail_ratio:.6g} ratio ({result['failed']} of {result['attempted']} operations)")
    for err in result["errors"]:
        print(f"  error: {err.splitlines()[0]}")
    print(f"  digests      : {result['digest_count']} operations, "
          f"{'identical in every iteration' if result['consistent'] else 'DIFFER between iterations'}"
          f"{', traced and untraced' if trace else ''}")
    if not trace:
        walls = result["walls"]
        tail = _tail(walls)
        tail_text = f"p{tail[0]:g} {tail[1]:.4f} s" if tail else "no percentile has 10 samples beyond it"
        print(f"  setup_s      = {found['setup_s']['value']:.4f} s (median of {len(result['setups'])} interpreters)")
        print(f"  wall_s       = {found['wall_s']['value']:.4f} s (median of {len(walls)} iterations; {tail_text})")
        print(f"  peak_rss_mb  = {found['peak_rss_mb']['value']:.1f} MiB")
        return
    tr = result["trace"]
    layers = _layers(found)
    dominant = max(layers, key=layers.get)
    total = sum(tr["self_s"].values())
    print(f"  traced wall {tr['wall_s']:.4f} s = layer self times {total:.4f} s "
          f"+ untraced remainder {tr['remainder_s']:.4f} s; untraced wall {tr['untraced_wall_s']:.4f} s, "
          f"overhead {tr['overhead_s']:.4f} s ({tr['iterations']} traced iterations, "
          f"call counts {'repeat' if tr['calls_repeat'] else 'DIFFER'}, "
          f"computed counts {'repeat' if tr['counts_repeat'] else 'DIFFER'})")
    for layer, value in sorted(layers.items(), key=lambda kv: -kv[1]):
        print(f"    {layer:<11} {value:9.4f} s  {100 * value / tr['wall_s']:5.1f}%")
    print(f"  dominant layer: {dominant}")
    print("  functions (self_s, calls, exp):")
    for name, s in sorted(tr["self_s"].items(), key=lambda kv: -kv[1]):
        half = tr["half_self_s"].get(name, 0.0)
        exp = f"{_exp(s, half):5.2f}" if half else "  n/a"
        print(f"    {name:<40} {s:9.4f} s {tr['calls'][name]:7d} {exp}")
    print("  computed counts: " + ", ".join(f"{k} = {v}" for k, v in sorted(tr["counts"].items())))


def _layers(found: dict) -> dict[str, float]:
    return {k[:-len(".self_s")]: v["value"] for k, v in found.items()
            if k.count(".") == 1 and k.endswith(".self_s")}


def _table(rows, trace: int) -> None:
    if trace:
        print(f"{'workload':<14} {'dominant layer':>15} {'fail_ratio (ratio)':>19}")
        for workload, found, fail_ratio in rows:
            layers = _layers(found)
            print(f"{workload:<14} {max(layers, key=layers.get):>15} {fail_ratio:>19.6g}")
        return
    print(f"{'workload':<14} {'setup_s (s)':>12} {'wall_s (s)':>11} "
          f"{'peak_rss_mb (MiB)':>18} {'fail_ratio (ratio)':>19}")
    for workload, found, fail_ratio in rows:
        print(f"{workload:<14} {found['setup_s']['value']:>12.4f} {found['wall_s']['value']:>11.4f} "
              f"{found['peak_rss_mb']['value']:>18.1f} {fail_ratio:>19.6g}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="vnlab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "vnlab" / "cli.py").is_file() or not spec_path.is_file():
        print(f"no vnlab source tree under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        print(f"unknown workload {args.workload!r}; choose from {names} or 'all'", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    summary, rows, attempted, failed, correct = {}, [], 0, 0, True
    for workload in chosen:
        print(f"== {workload} (seed {args.seed}, {seconds} s, trace {args.trace})", flush=True)
        try:
            result = run_workload(workload, args.seed, seconds, args.trace)
            found = metrics(result, spec, args.trace)
        except BenchmarkError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        report(workload, result, found, args.trace)
        out = ROOT / result["out_dir"] / "result.json"
        out.write_text(json.dumps({"metrics": found, **result}, indent=1, sort_keys=True) + "\n")
        attempted += result["attempted"]
        failed += result["failed"]
        correct = correct and _correct(result)
        summary[workload] = found
        rows.append((workload, found, result["failed"] / result["attempted"]))
    if len(chosen) > 1:
        _table(rows, args.trace)
    metrics_out = summary[chosen[0]] if len(chosen) == 1 else {
        f"{w}.{k}": v for w, found in summary.items() for k, v in found.items()}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics_out}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
