import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from gaplab import Filter, ParameterError, TwoPeakModel, peak_shift
from gaplab.spectral import local_maxima
from gaplab.toymodel import _amplitude, shift_table

from conftest import with_eta


def make_model(family="lorentzian", lam=0.5, eta=0.1, center=1.0, sep_ratio=0.6):
    return TwoPeakModel(center=center, separation=sep_ratio * center,
                        relative_height=lam, filter=Filter(family, eta))


class TestTwoPeakSpectrum:
    def test_single_peak_when_second_vanishes(self):
        grid = np.linspace(0.2, 2.4, 4001)
        vals = _amplitude(make_model(lam=0.0, eta=0.05), grid)
        assert grid[np.argmax(vals)] == pytest.approx(1.0, abs=1e-3)

    def test_two_resolved_maxima_at_small_broadening(self):
        m = make_model(lam=0.5, eta=0.02)
        grid = np.linspace(0.2, 2.4, 8001)
        vals = _amplitude(m, grid)
        interior = np.flatnonzero((vals[1:-1] > vals[:-2])
                                  & (vals[1:-1] > vals[2:])) + 1
        peaks = sorted(grid[interior])
        assert len(peaks) == 2
        assert peaks[0] == pytest.approx(1.0, abs=2e-3)
        assert peaks[1] == pytest.approx(1.6, abs=2e-3)

    def test_validation(self):
        with pytest.raises(ParameterError):
            make_model(family="none")
        with pytest.raises(ParameterError):
            TwoPeakModel(center=-1.0, separation=0.6, relative_height=0.5,
                         filter=Filter("lorentzian", 0.1))
        # the second line's peak lambda / (pi eta) overflows
        with pytest.raises(ParameterError, match="second peak"):
            TwoPeakModel(center=1.0, separation=0.6, relative_height=1e308,
                         filter=Filter("lorentzian", 0.02))

    @pytest.mark.parametrize("center, separation", [
        pytest.param(1e308, 0.6e308, id="bracket-end"),
        pytest.param(1.0, 1e308, id="bracket-width")])
    def test_unbounded_bracket_refused(self, center, separation):
        # [c - sep, c + 1.5 sep + 2 eta], or its width, overflows
        with pytest.raises(ParameterError, match="search bracket"):
            TwoPeakModel(center=center, separation=separation, relative_height=0.5,
                         filter=Filter("lorentzian", 0.1))


def scipy_peak_shift(m):
    """Reference: the same grid bracket, maximized by scipy's bounded method."""
    lo = m.center - m.separation
    hi = m.center + 1.5 * m.separation + 2.0 * m.filter.eta
    n_pts = min(max(2001, int(40 * (hi - lo) / max(m.filter.eta, 1e-3))), 40001)
    grid = np.linspace(lo, hi, n_pts)
    tracked = min(local_maxima(_amplitude(m, grid)),
                  key=lambda i: abs(grid[i] - m.center))
    res = minimize_scalar(lambda w: -_amplitude(m, w),
                          bounds=(grid[tracked - 1], grid[tracked + 1]),
                          method="bounded", options={"xatol": 1e-10 * m.center})
    return abs(float(res.x) - m.center) / m.center


class TestPeakShift:
    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_matches_scipy_bounded_search(self, family, lam):
        # criterion 10's models; scipy's bounded method resolves x only to
        # about sqrt(eps) |x|, so agreement is to a few 1e-8
        for eta in np.linspace(0.04, 0.3, 12):
            m = make_model(family=family, lam=lam, eta=float(eta))
            shift = peak_shift(m)
            assert type(shift) is float
            assert shift == pytest.approx(scipy_peak_shift(m), abs=5e-8)

    def test_vanishing_second_peak_means_no_shift(self):
        for family in ("lorentzian", "gaussian"):
            assert peak_shift(make_model(family=family, lam=0.0, eta=0.12)) <= 1e-8

    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("lam", [0.25, 0.5, 1.0])
    def test_monotone_in_broadening(self, family, lam):
        model = make_model(family=family, lam=lam)
        etas = np.linspace(0.03, 0.24, 8)
        shifts = [peak_shift(with_eta(model, eta)) for eta in etas]
        # non-decreasing up to the optimizer tolerance (gaussian tails keep
        # the true shift at zero until the peaks genuinely overlap)
        assert all(b >= a - 1e-8 for a, b in zip(shifts, shifts[1:]))

    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    def test_monotone_in_relative_height(self, family):
        eta = 0.15
        shifts = [peak_shift(make_model(family=family, lam=lam, eta=eta))
                  for lam in (0.25, 0.5, 1.0)]
        assert shifts[0] <= shifts[1] <= shifts[2]

    def test_small_broadening_shift_vanishes(self):
        assert peak_shift(make_model(lam=0.5, eta=0.01)) < 1e-3

    def test_family_shift_curves_cross_near_published_point(self):
        # lorentzian leads below, gaussian above; crossing near 2 eta/sep = 0.85
        m_l = make_model(family="lorentzian", lam=0.5)
        m_g = make_model(family="gaussian", lam=0.5)
        sep = m_l.separation
        ratios = np.linspace(0.5, 1.2, 36)
        diffs = [peak_shift(with_eta(m_l, r * sep / 2))
                 - peak_shift(with_eta(m_g, r * sep / 2)) for r in ratios]
        signs = np.sign(diffs)
        flips = [ratios[i] for i in range(len(ratios) - 1)
                 if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]]
        assert flips and 0.7 < flips[0] < 1.0


class TestShiftTable:
    def test_rows_cover_the_grid(self):
        rows = shift_table(1.0, 0.6, lambdas=[0.5], etas=[0.1, 0.2])
        assert len(rows) == 4  # two families x two etas
        families = {r[2] for r in rows}
        assert families == {"lorentzian", "gaussian"}
        assert all(r[3] >= 0 for r in rows)
