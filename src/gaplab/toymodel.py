"""Two-peak line-shape model quantifying how a neighbor peak drags a peak center.

The spectrum A(w) ~ A0(w - c) + lam * A0(w - c - sep) overlaps two unit-area
line shapes; the tracked observable is the relative displacement of the local
maximum nearest c as the broadening grows.  Everything is closed-form, so a
golden-section search inside a grid bracket locates the maximum, no transform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .spectral import filter_fourier, local_maxima
from .trotter import Filter


@dataclass(frozen=True)
class TwoPeakModel:
    center: float
    separation: float
    relative_height: float
    filter: Filter

    def __post_init__(self):
        if not (0 < self.center < math.inf and 0 < self.separation < math.inf):
            raise ParameterError("peak center and separation must be positive and finite")
        if not 0 <= self.relative_height < math.inf:
            raise ParameterError("relative height must be finite and >= 0")
        if self.filter.family not in ("lorentzian", "gaussian"):
            raise ParameterError("two-peak model needs a lorentzian or gaussian shape")
        lo, hi = self.bracket
        if not math.isfinite(hi - lo):
            raise ParameterError(f"the search bracket [{lo:g}, {hi:g}] is not finite")

    @property
    def bracket(self) -> tuple:
        """[c - sep, c + 1.5 sep + 2 eta], the span searched for the tracked maximum."""
        return (self.center - self.separation,
                self.center + 1.5 * self.separation + 2.0 * self.filter.eta)


def _amplitude(m: TwoPeakModel, omega):
    return (filter_fourier(m.filter, np.asarray(omega) - m.center)
            + m.relative_height
            * filter_fourier(m.filter, np.asarray(omega) - m.center - m.separation))


def peak_shift(m: TwoPeakModel) -> float:
    """Relative displacement |c' - c| / c of the local maximum c' nearest the
    first peak center c; once the broadening merges the two peaks, c' is the
    merged maximum."""
    width, (lo, hi) = m.filter.eta, m.bracket
    n_pts = int(min(max(2001, 40 * (hi - lo) / max(width, 1e-3)), 40001))
    grid = np.linspace(lo, hi, n_pts)
    interior = local_maxima(_amplitude(m, grid))
    if len(interior) == 0:
        raise ParameterError("no maximum found: broadening too small for the grid")
    tracked = min(interior, key=lambda i: abs(grid[i] - m.center))
    a, b = grid[tracked - 1], grid[tracked + 1]
    r = (math.sqrt(5.0) - 1.0) / 2.0      # golden-section search for the maximum
    c, d = b - r * (b - a), a + r * (b - a)
    fc, fd = _amplitude(m, c), _amplitude(m, d)
    while b - a > 1e-10 * m.center:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - r * (b - a)
            fc = _amplitude(m, c)
        else:
            a, c, fc = c, d, fd
            d = a + r * (b - a)
            fd = _amplitude(m, d)
    return abs(float(0.5 * (a + b)) - m.center) / m.center


def shift_table(center: float, separation: float, lambdas, etas):
    """Rows (eta, lambda, family, shift) across a broadening/height grid, for
    both line-shape families; an empty grid is refused."""
    if not (len(lambdas) and len(etas)):
        raise ParameterError("the shift table needs at least one lambda and one eta")
    rows = []
    for family in ("lorentzian", "gaussian"):
        for lam in lambdas:
            for eta in etas:
                m = TwoPeakModel(center=center, separation=separation,
                                 relative_height=lam, filter=Filter(family, float(eta)))
                rows.append((float(eta), float(lam), family, peak_shift(m)))
    return rows
