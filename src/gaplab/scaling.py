"""Finite-size extrapolation of gap estimates and the paramagnetic phase diagram.

Gap estimates (N, Delta) at one coupling are regressed against 1/N by ordinary
least squares; the infinite-chain estimate is the intercept at 1/N = 0 with a
95% t-distribution confidence band.  The perturbative guess 2(h - J) + 2J/N is
exactly linear in 1/N, so it pins the extrapolator: perfect inputs must return
intercept 2(h - J) with a zero-width band.  The phase diagram is one row per
coupling, sorted by J/h, beside the exact reference 2|1 - J/h|.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._textio import read_table, write_table
from .errors import DataError, NumericError
from .model import exact_gap_thermodynamic

#: Two-sided confidence level of the band on the intercept.
CONFIDENCE = 0.95

_COLUMNS = ["J_over_h", "delta_inf", "band_lo", "band_hi", "exact_ref"]


@dataclass
class Extrapolation:
    intercept: float            # gap estimate at 1/N = 0
    slope: float
    confidence_band: tuple      # (lower, upper) at the intercept


def _t_quantile(dof: int) -> float:
    """Two-sided Student-t quantile at CONFIDENCE for integer dof >= 1.
    P(|T| <= sqrt(dof) tan theta) is a finite trigonometric sum (Abramowitz &
    Stegun 26.7.3-26.7.4) rising in theta on (0, pi/2); bisection until the
    midpoint stops moving gives the quantile to rounding."""
    lo, hi = 0.0, math.pi / 2
    while lo < (theta := 0.5 * (lo + hi)) < hi:
        c, s = math.cos(theta), math.sin(theta)
        term = total = float(dof > 1)
        for j in range(2 + dof % 2, dof, 2):
            term *= c * c * (j - 1) / j
            total += term
        cover = 2.0 / math.pi * (theta + s * c * total) if dof % 2 else s * total
        lo, hi = (theta, hi) if cover < CONFIDENCE else (lo, theta)
    return math.sqrt(dof) * math.tan(theta)


def extrapolate(points) -> Extrapolation:
    """OLS of Delta against 1/N over (N, Delta) pairs, with a t-quantile
    interval on the intercept."""
    points = [(int(n), float(g)) for n, g in points]
    if not all(0 < g < np.inf for _, g in points):
        raise DataError("gap estimates must be positive and finite")
    if len(points) < 3:
        raise DataError("need at least 3 sizes to regress")
    x = np.array([1.0 / n for n, _ in points])
    y = np.array([g for _, g in points])
    n_pts = len(x)
    x_mean, y_mean = x.mean(), y.mean()
    sxx = float(np.sum((x - x_mean) ** 2))
    if sxx == 0:
        raise NumericError("degenerate regressors: all sizes equal")
    slope = float(np.sum((x - x_mean) * (y - y_mean)) / sxx)
    intercept = float(y_mean - slope * x_mean)
    resid = y - (intercept + slope * x)
    dof = n_pts - 2
    s = float(np.sqrt(np.sum(resid**2) / dof))
    se_icpt = s * np.sqrt(1.0 / n_pts + x_mean**2 / sxx)
    half = _t_quantile(dof) * se_icpt
    return Extrapolation(intercept=intercept, slope=slope,
                         confidence_band=(intercept - half, intercept + half))


@dataclass(frozen=True)
class PhaseDiagramRow:
    coupling: float
    gap_infinity: float
    band_lo: float
    band_hi: float
    exact_reference: float


def phase_diagram(extrapolations: dict) -> list:
    """(J/h, gap, band) rows sorted by J/h, plus the exact reference line 2|1 - J/h|."""
    rows = []
    for coupling in sorted(extrapolations):
        ex = extrapolations[coupling]
        rows.append(PhaseDiagramRow(
            coupling=float(coupling), gap_infinity=ex.intercept,
            band_lo=ex.confidence_band[0], band_hi=ex.confidence_band[1],
            exact_reference=exact_gap_thermodynamic(coupling, 1.0)))
    return rows


def phase_diagram_to_csv(rows, path, metadata: dict):
    write_table(path, metadata, _COLUMNS,
                ((r.coupling, r.gap_infinity, r.band_lo, r.band_hi, r.exact_reference)
                 for r in rows))


def read_phase_diagram(path):
    """Inverse of phase_diagram_to_csv; returns (rows, metadata)."""
    meta, columns, rows = read_table(path)
    if columns != _COLUMNS:
        raise DataError(f"unexpected columns {columns}")
    return [PhaseDiagramRow(*(float(v) for v in r)) for r in rows], meta
