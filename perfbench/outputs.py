"""What a workload emitted, reduced to numbers, and its comparison with the
committed reference in perfbench/reference/.

Walks: every CSV except the Wigner grids in full, fit.json, and per Wigner
snapshot the mean, RMS, extremes and every 10th grid point along each
axis.  `verify`: each check's name, value, threshold and status, and the
final verdict line.  Numbers agree when |got - ref| <= 1e-10 * max(1, |ref|);
the sha256 of every artifact is kept apart, because byte identity with the
reference is reported as a count, not as a failure.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import numpy as np

TOL = 1e-10
WIGNER_STRIDE = 10


def _read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    text = path.read_text(encoding="utf-8")
    header, _, body = text.partition("\n")
    cols = header.split(",")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=float)
    return cols, values.reshape(-1, len(cols))


def _wigner_digest(cols: list[str], rows: np.ndarray) -> dict:
    n = math.isqrt(len(rows))
    if n * n != len(rows):
        return {"columns": cols, "rows": len(rows)}
    w = rows[:, 2]
    grid = rows.reshape(n, n, 3)[::WIGNER_STRIDE, ::WIGNER_STRIDE]
    return {
        "columns": cols,
        "rows": len(rows),
        "mean": float(w.mean()),
        "rms": float(np.sqrt(np.mean(w * w))),
        "min": float(w.min()),
        "max": float(w.max()),
        "samples": grid.reshape(-1, 3).tolist(),
    }


def walk_outputs(out_dir: Path) -> tuple[dict, dict]:
    """(numbers, sha256 per file) of the artifacts of one `run`."""
    numbers: dict = {}
    shas: dict = {}
    for path in sorted(out_dir.iterdir()):
        if path.name == "manifest.json":  # holds the wall-clock duration
            numbers[path.name] = sorted(json.loads(path.read_text())["files"])
            continue
        shas[path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
        if path.suffix == ".json":
            numbers[path.name] = json.loads(path.read_text())
            continue
        cols, rows = _read_csv(path)
        if path.name.startswith("wigner_"):
            numbers[path.name] = _wigner_digest(cols, rows)
        else:
            numbers[path.name] = {"columns": cols, "rows": rows.tolist()}
    return numbers, shas


def verify_outputs(stdout: str) -> dict:
    """Parse the `magnonwalk verify` report into (name, value, comparison,
    threshold, status) rows and the verdict line."""
    lines = stdout.strip().splitlines()
    checks = []
    for line in lines[:-1]:
        name, value, comparison, threshold, status = line.rsplit(maxsplit=4)
        checks.append([name, float(value), comparison, float(threshold), status])
    return {"checks": checks, "verdict": lines[-1] if lines else ""}


def emitted_totals(out_dir: Path) -> tuple[int, int]:
    """(CSV data rows, bytes) over every file the run wrote."""
    rows = bytes_ = 0
    for path in out_dir.iterdir():
        data = path.read_bytes()
        bytes_ += len(data)
        if path.suffix == ".csv":
            rows += data.count(b"\n") - 1
    return rows, bytes_


def mismatches(ref, got, where: str = "") -> list[str]:
    """Every place where `got` differs from `ref` beyond TOL."""
    if isinstance(ref, dict):
        if not isinstance(got, dict) or ref.keys() != got.keys():
            return [f"{where}: keys differ"]
        return [m for k in ref for m in mismatches(ref[k], got[k], f"{where}/{k}")]
    if isinstance(ref, list):
        if not isinstance(got, list) or len(ref) != len(got):
            return [f"{where}: length differs"]
        return [m for i, (r, g) in enumerate(zip(ref, got))
                for m in mismatches(r, g, f"{where}[{i}]")]
    if isinstance(ref, (int, float)) and not isinstance(ref, bool):
        if (isinstance(got, bool) or not isinstance(got, (int, float))
                or not abs(got - ref) <= TOL * max(1.0, abs(ref))):
            return [f"{where}: {got!r} != {ref!r}"]
        return []
    return [] if ref == got else [f"{where}: {got!r} != {ref!r}"]
