import numpy as np
import pytest
from scipy import stats
from scipy.special import stdtrit

from gaplab import (
    DataError,
    NumericError,
    SpinModel,
    extrapolate,
    perturbative_gap_guess,
)
from gaplab.scaling import _t_quantile, phase_diagram_to_csv

from conftest import read_phase_diagram


def ols_normal_equations(sizes, gaps):
    """Independent check: solve the 2x2 normal equations directly."""
    x = np.array([1.0 / n for n in sizes])
    y = np.asarray(gaps, dtype=float)
    a = np.column_stack([np.ones_like(x), x])
    coef = np.linalg.solve(a.T @ a, a.T @ y)
    return coef  # (intercept, slope)


def perturbative_sample(coupling, sizes=(2, 3, 4, 5)):
    return tuple((n, perturbative_gap_guess(SpinModel(n, coupling, 1.0)))
                 for n in sizes)


class TestExtrapolate:
    def test_matches_normal_equations(self, rng):
        for _ in range(5):
            sizes = (2, 3, 4, 5, 7)
            gaps = rng.uniform(0.5, 2.0, len(sizes))
            ex = extrapolate(tuple(zip(sizes, gaps)))
            icpt, slope = ols_normal_equations(sizes, gaps)
            assert ex.intercept == pytest.approx(icpt, rel=1e-12)
            assert ex.slope == pytest.approx(slope, rel=1e-12)

    def test_perturbative_inputs_fit_exactly(self):
        for coupling in (0.2, 0.4, 0.6, 0.8):
            ex = extrapolate(perturbative_sample(coupling))
            assert ex.intercept == pytest.approx(2 * (1 - coupling), abs=1e-12)
            assert ex.slope == pytest.approx(2 * coupling, abs=1e-12)
            lo, hi = ex.confidence_band
            assert hi - lo <= 1e-12

    def test_constant_inputs(self):
        ex = extrapolate(((2, 1.3), (3, 1.3), (4, 1.3)))
        assert ex.slope == pytest.approx(0.0, abs=1e-12)
        assert ex.intercept == pytest.approx(1.3, abs=1e-12)
        assert ex.confidence_band[1] - ex.confidence_band[0] <= 1e-12

    def test_interval_uses_t_quantile(self):
        sizes = (2, 3, 4, 5)
        gaps = (1.8, 1.52, 1.48, 1.30)
        ex = extrapolate(tuple(zip(sizes, gaps)))
        x = np.array([1.0 / n for n in sizes])
        resid = np.array(gaps) - (ex.intercept + ex.slope * x)
        s2 = resid @ resid / 2
        se = np.sqrt(s2 * (1 / 4 + x.mean() ** 2 / np.sum((x - x.mean()) ** 2)))
        half = stats.t.ppf(0.975, 2) * se
        assert ex.confidence_band[0] == pytest.approx(ex.intercept - half, rel=1e-10)
        assert ex.confidence_band[1] == pytest.approx(ex.intercept + half, rel=1e-10)

    def test_t_quantile_matches_scipy(self):
        # the closed-form quantile against scipy's inverse Student-t CDF
        for dof in range(1, 200):
            assert _t_quantile(dof) == pytest.approx(stdtrit(dof, 0.975), rel=1e-13)

    def test_band_shrinks_with_noise(self, rng):
        widths = []
        for scale in (0.2, 0.05, 0.01):
            sizes = (2, 3, 4, 5)
            clean = [2 * (1 - 0.4) + 2 * 0.4 / n for n in sizes]
            noisy = np.array(clean) + scale * rng.normal(size=4)
            ex = extrapolate(tuple(zip(sizes, np.abs(noisy))))
            widths.append(ex.confidence_band[1] - ex.confidence_band[0])
        assert widths[0] > widths[1] > widths[2]

    def test_validation(self):
        with pytest.raises(DataError):
            extrapolate(((2, 1.0), (3, 1.1)))
        with pytest.raises(NumericError):
            extrapolate(((4, 1.0), (4, 1.1), (4, 1.2)))
        with pytest.raises(DataError):
            extrapolate(((2, 1.0), (3, -0.1), (4, 1.2)))

    @pytest.mark.parametrize("gap", [np.nan, np.inf])
    def test_non_finite_gap_refused(self, gap):
        with pytest.raises(DataError, match="positive and finite"):
            extrapolate(((2, gap), (3, 1.0), (4, 1.1)))

    @pytest.mark.parametrize("n", [2.7, 0, -2, 1, True, "3"])
    def test_chain_length_must_be_a_count(self, n):
        # N counts spins: a fraction, a bool, a string or N < 2 is refused, and
        # a numpy integer is a count like any other
        with pytest.raises(DataError, match="integers of at least 2"):
            extrapolate(((n, 1.0), (3, 1.1), (4, 1.2)))
        assert extrapolate(((np.int64(2), 1.3), (3, 1.3), (4, 1.3))).intercept == 1.3


class TestBandConvergence:
    def test_band_tightens_inside_error_fence_with_depth(self):
        # under-converged circuits scatter the per-size gaps, widening the
        # band to the 2 eta fence scale; converged ones pull it well inside
        import math

        from gaplab import (Filter, GapSearchConfig, TrotterPlan, best_record,
                            default_grid, theta_sweep)

        eta = 0.3
        filt = Filter("gaussian", eta)
        grid = default_grid(filt)
        thetas = [math.pi * l / 50 for l in range(0, 25, 4)]
        widths = {}
        for depth in (5, 35):
            points = []
            for n in (2, 3, 4, 5):
                model = SpinModel(n, 0.4, 1.0)
                records = theta_sweep(
                    model, TrotterPlan(1, depth), filt, grid, thetas,
                    search=GapSearchConfig(
                        initial_guess=perturbative_gap_guess(model)))
                points.append((n, best_record(records).gap))
            ex = extrapolate(points)
            widths[depth] = ex.confidence_band[1] - ex.confidence_band[0]
        assert widths[5] > 2 * widths[35]
        assert widths[35] <= 2 * eta


class TestPhaseDiagram:
    def test_exact_inputs_land_on_reference_line(self, tmp_path):
        path = tmp_path / "diag.csv"
        phase_diagram_to_csv({c: extrapolate(perturbative_sample(c))
                              for c in (0.8, 0.2, 0.6, 0.4)}, path, metadata={})
        rows, _ = read_phase_diagram(path)
        assert [row[0] for row in rows] == [0.2, 0.4, 0.6, 0.8]
        for coupling, gap_infinity, _, _, exact_reference in rows:
            assert exact_reference == pytest.approx(2 * (1 - coupling))
            assert gap_infinity == pytest.approx(exact_reference, abs=1e-12)

    def test_reference_of_a_negative_coupling(self, tmp_path):
        # the chain at -J is the chain at J, so the reference is 2|1 - |J/h||
        path = tmp_path / "diag.csv"
        phase_diagram_to_csv({-0.4: extrapolate(perturbative_sample(-0.4))}, path,
                             metadata={})
        [(coupling, gap_infinity, _, _, exact_reference)], _ = read_phase_diagram(path)
        assert coupling == -0.4
        assert exact_reference == pytest.approx(1.2)
        assert gap_infinity == pytest.approx(exact_reference, abs=1e-12)

    def test_csv_round_trip(self, tmp_path):
        extrapolations = {c: extrapolate(perturbative_sample(c)) for c in (0.2, 0.4)}
        path = tmp_path / "diag.csv"
        phase_diagram_to_csv(extrapolations, path, metadata={"m": 35})
        back, meta = read_phase_diagram(path)
        assert meta["m"] == 35
        assert len(back) == 2
        assert back[1][1] == extrapolations[0.4].intercept
