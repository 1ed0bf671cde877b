"""Correctness checks on one run's output files.

Each check is a unit that passes or fails; failures count in the benchmark's
`failed`.  Every reported gap must lie within eta of exact diagonalization
(ED); a scaling intercept must lie within 2 eta of 2(1 - J/h), the tolerance
of acceptance criterion 7; exact-mode outputs must match the reference
captured by capture_reference.py to within 1e-12.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from pathlib import Path

REFERENCE_TOL = 1e-12


@functools.cache
def ed_gap(n: int, coupling: float) -> float:
    from gaplab.model import SpinModel, exact_diagonalize

    energies = exact_diagonalize(SpinModel(n, coupling, 1.0)).energies
    return float(energies[1] - energies[0])


def digests(workdir: Path, outputs) -> dict:
    """sha256 of each output file, None for a missing one."""
    out = {}
    for name in outputs:
        path = workdir / name
        out[name] = hashlib.sha256(path.read_bytes()).hexdigest() \
            if path.is_file() else None
    return out


def comparable(payload: dict) -> dict:
    """An output payload without the CLI seed, which exact mode never uses."""
    payload = json.loads(json.dumps(payload))
    payload.get("config", {}).pop("seed", None)
    return payload


def _close(a, b) -> bool:
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= REFERENCE_TOL * max(1.0, abs(b)))
    return a == b


def _flag(argv, flag):
    return argv[argv.index(flag) + 1] if flag in argv else None


def _gap_unit(label, gap, n, coupling, eta):
    exact = ed_gap(n, coupling)
    err = abs(gap - exact)
    return (label, err <= eta, f"gap {gap!r} vs ED {exact!r}"), err / exact


def _read_csv_rows(path: Path):
    lines = [l for l in path.read_text(encoding="utf-8").splitlines()
             if l and not l.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, l.split(","))) for l in lines[1:]]


def _check_scaling(workload, argv, workdir):
    couplings = [float(v) for v in _flag(argv, "--j-list").split(",")]
    sizes = [int(v) for v in _flag(argv, "--n-list").split(",")]
    samples = json.loads((workdir / "samples.json").read_text())["samples"]
    found = {(s["j_over_h"], s["n"]): s["gap"] for s in samples}
    units, errs = [], []
    for j in couplings:
        for n in sizes:
            label = f"cell J={j} N={n}"
            if (j, n) not in found:
                units.append((label, False, "cell missing from samples"))
                continue
            unit, err = _gap_unit(label, found[(j, n)], n, j, workload.eta)
            units.append(unit)
            errs.append(err)
    rows = {float(r["J_over_h"]): float(r["delta_inf"])
            for r in _read_csv_rows(workdir / "diagram.csv")}
    for j in couplings:
        label = f"intercept J={j}"
        exact = 2.0 * (1.0 - j)
        if j not in rows:
            units.append((label, False, "row missing from diagram"))
            continue
        err = abs(rows[j] - exact)
        units.append((label, err <= 2 * workload.eta,
                      f"intercept {rows[j]!r} vs {exact!r}"))
        errs.append(err / exact)
    return units, errs


def _check_exact(workload, argv, workdir, reference):
    payload = json.loads((workdir / workload.outputs[0]).read_text())
    n = int(_flag(argv, "--n"))
    coupling = float(_flag(argv, "--j-over-h") or payload["config"]["j_over_h"])
    results = payload["records"] if "records" in payload else [payload["result"]]
    units, errs = [], []
    for i, rec in enumerate(results):
        label = f"orientation {i}"
        if rec.get("failure") is not None or rec.get("gap") is None:
            units.append((label, False, f"gap search failed: {rec.get('failure')}"))
            continue
        unit, err = _gap_unit(label, rec["gap"], n, coupling, workload.eta)
        units.append(unit)
        errs.append(err)
    if reference is None:
        units.append(("reference", False, "no reference captured"))
    else:
        units.append(("reference", _close(comparable(payload), reference),
                      f"outputs within {REFERENCE_TOL} of the reference"))
    return units, errs


def check_outputs(workload, argv, workdir: Path, reference):
    """(units, gap_err_rel) for one repetition's output files.

    A unit is (name, passed, detail); gap_err_rel is the largest relative
    gap error, or None when no gap could be read.
    """
    try:
        if workload.shots:
            units, errs = _check_scaling(workload, argv, workdir)
        else:
            units, errs = _check_exact(workload, argv, workdir, reference)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [("outputs", False, f"unreadable output: {exc!r}")], None
    return units, (max(errs) if errs and all(map(math.isfinite, errs)) else None)
