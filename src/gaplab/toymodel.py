"""Two-peak line-shape model quantifying how a neighbor peak drags a peak center.

The spectrum A(w) ~ A0(w - c) + lam * A0(w - c - sep) overlaps two unit-area
line shapes; the tracked observable is the relative displacement of the local
maximum nearest c as the broadening grows.  Everything is closed-form, so the
maximum is located by bounded scalar minimization rather than any transform.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._textio import write_table
from .errors import ParameterError
from .spectral import Spectrum, filter_fourier
from .trotter import Filter


@dataclass(frozen=True)
class TwoPeakModel:
    center: float
    separation: float
    relative_height: float
    filter: Filter

    def __post_init__(self):
        if self.center <= 0 or self.separation <= 0:
            raise ParameterError("peak center and separation must be positive")
        if self.relative_height < 0:
            raise ParameterError("relative height must be >= 0")
        if self.filter.family not in ("lorentzian", "gaussian"):
            raise ParameterError("two-peak model needs a lorentzian or gaussian shape")


@dataclass(frozen=True)
class PeakShiftResult:
    shift: float         # |c' - c| / c
    location: float      # tracked maximum position
    absorbed: bool       # first peak no longer a distinct local maximum


def _amplitude(m: TwoPeakModel, omega):
    return (filter_fourier(m.filter, np.asarray(omega) - m.center)
            + m.relative_height
            * filter_fourier(m.filter, np.asarray(omega) - m.center - m.separation))


def two_peak_spectrum(m: TwoPeakModel, omega_grid) -> Spectrum:
    """The two-peak spectrum on a grid, normalized to unit global maximum."""
    omega_grid = np.asarray(omega_grid, dtype=float)
    values = _amplitude(m, omega_grid)
    peak = values.max()
    if peak > 0:
        values = values / peak
    steps = np.diff(omega_grid)
    d_omega = float(steps[0]) if len(steps) else 0.0
    return Spectrum(omegas=omega_grid, values=values, d_omega=d_omega,
                    filter=m.filter, provenance={"two_peak": True})


def peak_shift(m: TwoPeakModel, eta: float | None = None) -> PeakShiftResult:
    """Relative displacement of the local maximum nearest the first peak center.

    When the broadening swallows the first peak entirely (fewer than two
    local maxima and a second peak present), the merged maximum is reported
    with `absorbed` set.
    """
    from scipy.optimize import minimize_scalar  # deferred: costs ~0.25 s to import

    if eta is not None:
        m = replace(m, filter=replace(m.filter, eta=float(eta)))
    width = m.filter.eta
    lo = m.center - m.separation
    hi = m.center + 1.5 * m.separation + 2.0 * width
    n_pts = min(max(2001, int(40 * (hi - lo) / max(width, 1e-3))), 40001)
    grid = np.linspace(lo, hi, n_pts)
    vals = _amplitude(m, grid)
    interior = np.flatnonzero((vals[1:-1] > vals[:-2]) & (vals[1:-1] > vals[2:])) + 1
    if len(interior) == 0:
        raise ParameterError("no maximum found: broadening too small for the grid")
    tracked = min(interior, key=lambda i: abs(grid[i] - m.center))
    res = minimize_scalar(lambda w: -_amplitude(m, w),
                          bounds=(grid[tracked - 1], grid[tracked + 1]),
                          method="bounded",
                          options={"xatol": 1e-10 * m.center})
    location = float(res.x)
    return PeakShiftResult(
        shift=abs(location - m.center) / m.center,
        location=location,
        absorbed=bool(m.relative_height > 0 and len(interior) < 2))


def shift_table(center: float, separation: float, lambdas, etas, families=("lorentzian", "gaussian")):
    """Rows (eta, lambda, family, shift) across a broadening/height grid."""
    rows = []
    for family in families:
        for lam in lambdas:
            base = TwoPeakModel(center=center, separation=separation,
                                relative_height=lam, filter=Filter(family, 1e-3))
            for eta in etas:
                rows.append((float(eta), float(lam), family,
                             peak_shift(base, eta=eta).shift))
    return rows


def shift_table_to_csv(rows, path, metadata: dict | None = None):
    write_table(path, dict(metadata or {}),
                ["eta", "lambda", "family", "shift"], rows)
