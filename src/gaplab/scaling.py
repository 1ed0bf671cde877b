"""Finite-size extrapolation of gap estimates and the paramagnetic phase diagram.

Gaps are regressed against 1/N by ordinary least squares; the infinite-chain
estimate is the intercept at 1/N = 0 with a t-distribution confidence band.
The perturbative guess 2(h - J) + 2J/N is exactly linear in 1/N, so it pins
the extrapolator: perfect inputs must return intercept 2(h - J) with a
zero-width band.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._textio import read_table, write_table
from .errors import DataError, NumericError
from .model import exact_gap_thermodynamic


@dataclass(frozen=True)
class ScalingSample:
    """Gap estimates {(N, Delta)} at one coupling, with the broadening used."""

    points: tuple
    coupling: float
    eta: float

    def __post_init__(self):
        pts = tuple((int(n), float(g)) for n, g in self.points)
        object.__setattr__(self, "points", pts)
        if any(g <= 0 for _, g in pts):
            raise DataError("gap estimates must be positive")


@dataclass
class Extrapolation:
    intercept: float            # gap estimate at 1/N = 0
    slope: float
    stderr_intercept: float
    dof: int
    confidence: float
    confidence_band: tuple      # (lower, upper) at the intercept
    _x_mean: float
    _sxx: float
    _resid_scale: float

    def band_at(self, x):
        """Confidence band for the fitted line at regressor values x = 1/N."""
        x = np.asarray(x, dtype=float)
        mid = self.intercept + self.slope * x
        tq = _t_quantile(self.dof, self.confidence)
        half = tq * self._resid_scale * np.sqrt(
            1.0 / (self.dof + 2) + (x - self._x_mean) ** 2 / self._sxx)
        return mid - half, mid + half


def _t_quantile(dof: int, confidence: float) -> float:
    """Two-sided Student-t quantile; scipy is imported on first use, since it
    costs about 0.4 s of start-up that only extrapolation needs."""
    from scipy.special import stdtrit
    return stdtrit(dof, 0.5 + confidence / 2.0)


def extrapolate(sample: ScalingSample, confidence: float = 0.95) -> Extrapolation:
    """OLS of Delta against 1/N with a t-quantile interval on the intercept."""
    if len(sample.points) < 3:
        raise DataError("need at least 3 sizes to regress")
    x = np.array([1.0 / n for n, _ in sample.points])
    y = np.array([g for _, g in sample.points])
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
    tq = _t_quantile(dof, confidence)
    band = (intercept - tq * se_icpt, intercept + tq * se_icpt)
    return Extrapolation(intercept=intercept, slope=slope,
                         stderr_intercept=float(se_icpt), dof=dof,
                         confidence=confidence, confidence_band=band,
                         _x_mean=float(x_mean), _sxx=sxx, _resid_scale=s)


@dataclass(frozen=True)
class PhaseDiagramRow:
    coupling: float
    gap_infinity: float
    band_lo: float
    band_hi: float
    exact_reference: float


@dataclass
class PhaseDiagram:
    rows: list

    def band_edges(self, couplings):
        """Band edges interpolated across J/h for shading between samples."""
        couplings = np.asarray(couplings, dtype=float)
        j = np.array([r.coupling for r in self.rows])
        lo = np.array([r.band_lo for r in self.rows])
        hi = np.array([r.band_hi for r in self.rows])
        order = np.argsort(j)
        return (np.interp(couplings, j[order], lo[order]),
                np.interp(couplings, j[order], hi[order]))


def phase_diagram(extrapolations: dict) -> PhaseDiagram:
    """Assemble (J/h, gap, band) rows plus the exact reference line 2|1 - J/h|."""
    rows = []
    for coupling in sorted(extrapolations):
        ex = extrapolations[coupling]
        rows.append(PhaseDiagramRow(
            coupling=float(coupling), gap_infinity=ex.intercept,
            band_lo=ex.confidence_band[0], band_hi=ex.confidence_band[1],
            exact_reference=exact_gap_thermodynamic(coupling, 1.0)))
    return PhaseDiagram(rows=rows)


def phase_diagram_to_csv(diagram: PhaseDiagram, path, metadata: dict | None = None):
    rows = ((r.coupling, r.gap_infinity, r.band_lo, r.band_hi, r.exact_reference)
            for r in diagram.rows)
    write_table(path, dict(metadata or {}),
                ["J_over_h", "delta_inf", "band_lo", "band_hi", "exact_ref"], rows)


def read_phase_diagram(path):
    meta, columns, rows = read_table(path)
    if columns != ["J_over_h", "delta_inf", "band_lo", "band_hi", "exact_ref"]:
        raise DataError(f"unexpected columns {columns}")
    out = [PhaseDiagramRow(*(float(v) for v in r)) for r in rows]
    return PhaseDiagram(rows=out), meta
