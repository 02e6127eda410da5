"""Compare two runs' artifacts as numbers, not only as bytes.

A SHA-256 digest changes with one ulp anywhere, including the roundoff tail
of a density. ``compare`` reads the artifacts of two output directories and
gives, per file, the largest difference in units of its own scale:

* a CSV column's difference over that column's largest |value| in either run;
* a numeric leaf of ``checks.json``, its difference over the larger |value|.

A file present in one run only, a differing header, shape, key or non-numeric
leaf (a description, a pass flag) counts as ``inf``. ``manifest.json`` is left
out: it carries timestamps and the digests themselves.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np


def _csv_difference(path_a: Path, path_b: Path) -> float:
    header_a, *rows_a = path_a.read_text().splitlines()
    header_b, *rows_b = path_b.read_text().splitlines()
    a = np.array([row.split(",") for row in rows_a], dtype=float)
    b = np.array([row.split(",") for row in rows_b], dtype=float)
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
    a, b = _leaves(json.loads(path_a.read_text())), _leaves(json.loads(path_b.read_text()))
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


def compare(dir_a, dir_b) -> dict[str, float]:
    """Largest scaled difference per artifact file of two run directories."""
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    names = {p.name for d in (dir_a, dir_b) for p in d.iterdir()} - {"manifest.json"}
    result = {}
    for name in sorted(names):
        path_a, path_b = dir_a / name, dir_b / name
        if not (path_a.exists() and path_b.exists()):
            result[name] = math.inf
        elif name.endswith(".csv"):
            result[name] = _csv_difference(path_a, path_b)
        else:
            result[name] = _json_difference(path_a, path_b)
    return result
