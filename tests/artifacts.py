"""Compare two runs' artifacts as numbers, not only as bytes.

A SHA-256 digest changes with one ulp anywhere, including the roundoff tail
of a density. ``compare`` reads the artifacts of two output directories and
gives, per file, the largest difference in units of its own scale:

* a CSV column's difference over that column's largest |value| in either run;
* a numeric leaf of ``checks.json``, its difference over the larger |value|.

A file present in one run only or that does not parse (a CSV cell that is not
a number, a ragged row, a ``checks.json`` that is not JSON), a differing
header, shape, key or non-numeric leaf (a description, a pass flag) counts as
``inf``. ``same_bytes`` tells, per file, whether the two runs wrote the same
bytes, which is what the digests in ``manifest.json`` compare. Each
``manifest.json`` itself is left out of both: it carries timestamps and the
digests themselves.

A run directory may hold one job's artifacts or, as the benchmark's
``artifacts/`` directory does, one subdirectory per job: files are matched by
their path relative to the directory, so one call compares every job.

Run as ``python tests/artifacts.py [--bytes] DIR_A DIR_B``, it prints each file's
difference and whether its bytes are identical. It exits 1 if any difference is
``inf``, or with ``--bytes`` if any file's bytes differ.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np


def _csv_difference(path_a: Path, path_b: Path) -> float:
    try:
        header_a, *rows_a = path_a.read_text().splitlines()
        header_b, *rows_b = path_b.read_text().splitlines()
        a = np.array([row.split(",") for row in rows_a], dtype=float)
        b = np.array([row.split(",") for row in rows_b], dtype=float)
    except ValueError:  # no header, a non-numeric cell or a ragged row
        return math.inf
    if header_a != header_b or a.shape != b.shape:
        return math.inf
    if a.size == 0:
        return 0.0
    scale = np.maximum(np.max(np.abs(a), axis=0), np.max(np.abs(b), axis=0))
    diff = np.max(np.abs(a - b), axis=0)
    return float(np.max(diff / np.where(scale > 0, scale, 1.0)))  # scale 0: both columns 0


def _leaves(doc, path: tuple = ()) -> dict:
    """Every leaf of a JSON document by its key path."""
    if isinstance(doc, dict):
        return {k: v for key, value in doc.items() for k, v in _leaves(value, path + (key,)).items()}
    if isinstance(doc, list):
        return {k: v for i, value in enumerate(doc) for k, v in _leaves(value, path + (i,)).items()}
    return {path: doc}


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _json_difference(path_a: Path, path_b: Path) -> float:
    try:
        a, b = _leaves(json.loads(path_a.read_text())), _leaves(json.loads(path_b.read_text()))
    except ValueError:  # not a JSON document
        return math.inf
    if a.keys() != b.keys():
        return math.inf
    worst = 0.0
    for key, va in a.items():
        vb = b[key]
        if va == vb:
            continue
        if not (_is_number(va) and _is_number(vb)):
            return math.inf
        worst = max(worst, abs(va - vb) / max(abs(va), abs(vb)))
    return worst


def _names(dir_a: Path, dir_b: Path) -> list[str]:
    """Every artifact file in either run by its path relative to the run's
    directory, every manifest.json left out."""
    return sorted({p.relative_to(d).as_posix() for d in (dir_a, dir_b) for p in d.rglob("*")
                   if p.is_file() and p.name != "manifest.json"})


def compare(dir_a, dir_b) -> dict[str, float]:
    """Largest scaled difference per artifact file of two run directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    result = {}
    for name in _names(dir_a, dir_b):
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.exists() and path_b.exists()):
            result[name] = math.inf
        elif name.endswith(".csv"):
            result[name] = _csv_difference(path_a, path_b)
        else:
            result[name] = _json_difference(path_a, path_b)
    return result


def same_bytes(dir_a, dir_b) -> dict[str, bool]:
    """Per artifact file of two run directories, whether both runs wrote the same bytes."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    return {name: (dir_a / name).exists() and (dir_b / name).exists()
            and (dir_a / name).read_bytes() == (dir_b / name).read_bytes()
            for name in _names(dir_a, dir_b)}


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description="Compare two runs' artifacts.")
    parser.add_argument("--bytes", action="store_true",
                        help="exit 1 if any file's bytes differ, not only if one is missing")
    parser.add_argument("dir_a")
    parser.add_argument("dir_b")
    args = parser.parse_args()
    differences = compare(args.dir_a, args.dir_b)
    identical = same_bytes(args.dir_a, args.dir_b)
    for name, difference in differences.items():
        print(f"{name}: {difference:.3g}, bytes {'identical' if identical[name] else 'differ'}")
    failed = not all(identical.values()) if args.bytes else math.inf in differences.values()
    raise SystemExit(1 if failed else 0)
