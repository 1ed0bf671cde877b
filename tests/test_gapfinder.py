import math

import numpy as np
import pytest

from gaplab import (
    DataError,
    Filter,
    perturbative_gap_guess,
    GapSearchConfig,
    GapSearchError,
    NumericError,
    ParameterError,
    SpinModel,
    TimeGrid,
    TrotterPlan,
    default_grid,
    exact_diagonalize,
    exact_spectrum_oracle,
    filter_fourier,
    find_gap,
    gap_error,
    prepare_input,
    run_time_series,
    spectral_error,
    spectral_error_bound,
    theta_sweep,
    transform,
)
from gaplab import best_record, gapfinder


def empirical_depth_cutoff(depths, gap_errors, rel_tol: float = 0.1) -> float:
    """Smallest circuit depth whose gap error is within rel_tol of the plateau.

    The plateau value is the error at the deepest circuit in the sweep.
    """
    depths = np.asarray(depths, dtype=float)
    errs = np.asarray(gap_errors, dtype=float)
    if depths.shape != errs.shape or len(depths) < 2:
        raise DataError("need matching depth and error arrays of length >= 2")
    order = np.argsort(depths)
    depths, errs = depths[order], errs[order]
    plateau = errs[-1]
    for d, e in zip(depths, errs):
        if e <= plateau * (1 + rel_tol) + 1e-15:
            return float(d)
    return float(depths[-1])


def lineshape_spectrum(center, filt, d_omega=0.01, width=6.0):
    """(grid, values): one line shape at `center` over the physical half
    [0, width] of an even-length grid of step d_omega."""
    length = 2 * round(width / d_omega)
    grid = TimeGrid(dt=2 * math.pi / (length * d_omega), length=length)
    return grid, filter_fourier(filt, grid.omegas - center)


class TestFindGap:
    def test_isolated_peak(self):
        filt = Filter("lorentzian", 0.25)
        grid, spec = lineshape_spectrum(1.2, filt)
        est = find_gap(grid, spec, filt, GapSearchConfig(initial_guess=1.3))
        assert abs(est.gap - 1.2) <= grid.d_omega / 2 + 1e-12
        assert est.window_used == pytest.approx(0.5)

    def test_widening_reaches_displaced_peak(self):
        filt = Filter("lorentzian", 0.1)
        grid, spec = lineshape_spectrum(2.0, filt)
        est = find_gap(grid, spec, filt, GapSearchConfig(initial_guess=1.7))
        assert abs(est.gap - 2.0) <= grid.d_omega
        assert est.window_used > 0.2

    def test_flat_tail_fails_after_widening(self):
        filt = Filter("lorentzian", 0.1)
        grid, spec = lineshape_spectrum(1.0, filt)
        with pytest.raises(GapSearchError):
            find_gap(grid, spec, filt, GapSearchConfig(initial_guess=4.0))

    def test_never_returns_zero_frequency(self):
        filt = Filter("lorentzian", 0.3)
        grid, spec = lineshape_spectrum(0.0, filt, width=4.0)
        assert np.argmax(spec) == 0
        with pytest.raises(GapSearchError):
            find_gap(grid, spec, filt, GapSearchConfig(
                initial_guess=0.05, initial_window=0.2, max_window=0.4))

    def test_validation(self):
        with pytest.raises(ParameterError):
            GapSearchConfig(initial_guess=-1.0)
        filt = Filter("lorentzian", 0.1)
        grid, spec = lineshape_spectrum(1.0, filt)
        with pytest.raises(ParameterError):
            find_gap(grid, spec, filt, GapSearchConfig(
                initial_guess=1.0, initial_window=2.0, max_window=1.0))

    def test_refuses_a_spectrum_of_another_grid(self):
        # the default N = 4 spectrum with every other point dropped has a
        # peak at 1.65 on this grid, where its own grid puts the gap at 1.425
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        [p] = run_time_series(SpinModel(4, 0.4, 1.0), TrotterPlan(1, 35),
                              [0.27 * math.pi], grid)
        spec = transform(grid, p, filt)
        search = GapSearchConfig(initial_guess=1.4)
        assert find_gap(grid, spec, filt, search).gap == 1.425
        for bad in (spec[::2], spec[:-2], spec[None], spec[:, None], spec[0]):
            with pytest.raises(DataError, match=rf"shape \({grid.length},\)"):
                find_gap(grid, bad, filt, search)

    def test_oracle_spectrum_recovers_ed_gap(self):
        model = SpinModel(4, 0.4, 1.0)
        eig = exact_diagonalize(model)
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        [oracle] = exact_spectrum_oracle(eig, [0.27 * math.pi], filt, grid)
        est = find_gap(grid, oracle, filt, GapSearchConfig(initial_guess=1.4))
        assert abs(est.gap - (eig.energies[1] - eig.energies[0])) <= filt.eta


class TestErrorMeasures:
    def test_gap_error_values(self):
        assert gap_error(1.2, 1.2) == 0.0
        assert gap_error(1.3, 1.2) == pytest.approx(1.0 / 12.0)
        with pytest.raises(ParameterError):
            gap_error(1.0, 0.0)

    def test_spectral_error_identical(self):
        filt = Filter("lorentzian", 0.2)
        _, spec = lineshape_spectrum(1.0, filt)
        assert spectral_error(spec, spec) == 0.0

    def test_spectral_error_constant_offset_identity(self):
        filt = Filter("lorentzian", 0.2)
        _, spec = lineshape_spectrum(1.0, filt)
        offset = 0.05
        got = spectral_error(spec, spec + offset)
        n_pts = len(spec)
        ref = math.sqrt(n_pts * offset**2
                        / np.sum((spec - spec.mean()) ** 2))
        assert got == pytest.approx(ref, rel=1e-12)

    def test_spectral_error_guards(self):
        filt = Filter("lorentzian", 0.2)
        _, spec = lineshape_spectrum(1.0, filt)
        with pytest.raises(NumericError):
            spectral_error(np.ones_like(spec), spec)
        with pytest.raises(DataError):
            spectral_error(spec[:-1], spec)


class TestSpectralErrorBound:
    def setup_method(self):
        self.model = SpinModel(4, 0.4, 1.0)
        self.filt = Filter("gaussian", 0.3)
        self.grid = default_grid(self.filt)

    def test_vanishes_at_large_depth(self):
        eps = spectral_error_bound(self.model, TrotterPlan(1, 10**9),
                                   self.filt, self.grid)
        assert eps < 1e-6

    def test_deviation_kernel_scales_as_inverse_depth(self):
        from gaplab.model import commutator_norm_bounds
        c = commutator_norm_bounds(self.model, 1).prefactor
        for depth in (10, 35):
            dev = c * np.abs(self.grid.times) ** 2 / depth
            dev2 = c * np.abs(self.grid.times) ** 2 / (2 * depth)
            a = transform(self.grid, dev, self.filt)
            b = transform(self.grid, dev2, self.filt)
            assert np.allclose(a, 2 * b, rtol=1e-12)

    def test_monotone_decreasing_in_depth(self):
        vals = [spectral_error_bound(self.model, TrotterPlan(1, m),
                                     self.filt, self.grid)
                for m in (5, 10, 20, 40, 80)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_dominates_measured_spectral_error(self):
        eig = exact_diagonalize(self.model)
        theta = 0.27 * math.pi
        [oracle] = exact_spectrum_oracle(eig, [theta], self.filt, self.grid)
        for depth in (10, 35, 100):
            plan = TrotterPlan(1, depth)
            [p] = run_time_series(self.model, plan, [theta], self.grid)
            spec = transform(self.grid, p, self.filt)
            assert (spectral_error_bound(self.model, plan, self.filt, self.grid)
                    >= spectral_error(spec, oracle))


class TestEmpiricalCutoff:
    def test_plateau_detection(self):
        depths = [10, 20, 40, 80, 160]
        errors = [0.5, 0.2, 0.031, 0.030, 0.030]
        assert empirical_depth_cutoff(depths, errors) == 40

    def test_validation(self):
        with pytest.raises(DataError):
            empirical_depth_cutoff([1], [0.1])

    def test_gaussian_cutoff_not_above_lorentzian(self):
        # the more concentrated line shape converges at or before the wider one
        model = SpinModel(4, 0.4, 1.0)
        theta = 0.27 * math.pi
        eig = exact_diagonalize(model)
        exact_gap = eig.energies[1] - eig.energies[0]
        depths = [5, 8, 12, 18, 25, 35, 50]
        cutoffs = {}
        for family in ("gaussian", "lorentzian"):
            filt = Filter(family, 0.3)
            grid = default_grid(filt)
            errs = []
            for m in depths:
                [p] = run_time_series(model, TrotterPlan(1, m), [theta], grid)
                spec = transform(grid, p, filt)
                est = find_gap(grid, spec, filt, GapSearchConfig(initial_guess=1.4))
                errs.append(gap_error(est.gap, exact_gap))
            cutoffs[family] = empirical_depth_cutoff(
                [4 * m for m in depths], errs)
        assert cutoffs["gaussian"] <= cutoffs["lorentzian"]


class TestThetaSweep:
    def test_records_and_unfavored_zone(self):
        model = SpinModel(4, 0.4, 1.0)
        filt = Filter("gaussian", 0.2)
        grid = default_grid(filt)
        thetas = [math.pi * l / 50 for l in range(0, 25, 4)]
        records = theta_sweep(model, TrotterPlan(1, 100), filt, grid, thetas,
                              search=GapSearchConfig(perturbative_gap_guess(model)))
        assert len(records) == len(thetas)
        assert all(r.failure is None for r in records)
        unfavored = [r.theta for r in records
                     if r.eps_gap >= gapfinder.UNFAVORED_EPS_GAP]
        assert unfavored, "small-theta zone should exceed the error threshold"
        assert best_record(records).theta not in unfavored
        for r in records:
            assert r.eps_bound >= r.eps_spect
            assert r.D == 4 * 100
            assert r.seed is None       # exact mode draws nothing

    def test_buried_peak_fails_and_survivors_win(self):
        # at theta = 0 the neighbor peak's tail buries the target peak, so a
        # capped window finds no local maximum; theta = 0.27 pi still succeeds
        model = SpinModel(4, 0.4, 1.0)
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        search = GapSearchConfig(initial_guess=1.4, max_window=0.6)
        records = theta_sweep(model, TrotterPlan(1, 35), filt, grid,
                              [0.0, 0.27 * math.pi], search=search)
        assert [r.theta for r in records if r.failure is not None] == [0.0]
        assert best_record(records).theta == pytest.approx(0.27 * math.pi)

        alone = theta_sweep(model, TrotterPlan(1, 35), filt, grid, [0.0],
                            search=search)
        with pytest.raises(GapSearchError):
            best_record(alone)

    def test_shot_mode_records_derived_seeds(self):
        model = SpinModel(3, 0.4, 1.0)
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        records = theta_sweep(model, TrotterPlan(1, 20), filt, grid,
                              [0.2 * math.pi, 0.3 * math.pi], shots=512, seed=4,
                              search=GapSearchConfig(perturbative_gap_guess(model)))
        seeds = [r.seed for r in records]
        assert len(set(seeds)) == 2 and all(s is not None for s in seeds)
        # each record names the seed its own series was drawn from
        assert seeds == [gapfinder._derived_seed(4, l) for l in range(2)]

    def test_error_grows_toward_small_theta_at_wide_broadening(self):
        # the neighbor peak's tail drags the estimate as theta -> 0, so the
        # error decays monotonically onto the resolution plateau
        model = SpinModel(4, 0.4, 1.0)
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        thetas = [math.pi * l / 50 for l in range(0, 25, 4)]
        records = theta_sweep(model, TrotterPlan(1, 100), filt, grid, thetas,
                              search=GapSearchConfig(perturbative_gap_guess(model)))
        eps = [r.eps_gap for r in records]
        assert all(b <= a + 1e-12 for a, b in zip(eps, eps[1:]))
        assert eps[0] >= 10 * min(eps)


class TestResolutionFloor:
    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("eta", [0.1, 0.3])
    def test_converged_error_below_resolution_limit(self, family, eta):
        model = SpinModel(4, 0.4, 1.0)
        filt = Filter(family, eta)
        grid = default_grid(filt)
        eig = exact_diagonalize(model)
        exact_gap = eig.energies[1] - eig.energies[0]
        [p] = run_time_series(model, TrotterPlan(1, 150), [0.27 * math.pi], grid)
        spec = transform(grid, p, filt)
        est = find_gap(grid, spec, filt, GapSearchConfig(initial_guess=1.4))
        assert gap_error(est.gap, exact_gap) <= 2 * eta / exact_gap


class TestUnfilteredInvariance:
    def test_gap_estimate_independent_of_orientation(self):
        # raw delta-grid spectra from the exactly evolved chain: the argmax
        # bin must not move with theta wherever the peak weight survives
        model = SpinModel(3, 0.4, 1.0)
        eig = exact_diagonalize(model)
        grid = TimeGrid(dt=0.25, length=512)
        found = set()
        for theta in (0.1 * math.pi, 0.2 * math.pi, 0.3 * math.pi, 0.45 * math.pi):
            [psi] = prepare_input(3, [theta]).T
            weights = np.abs(eig.states.conj().T @ psi) ** 2
            amps = np.exp(-1j * np.outer(grid.times, eig.energies)) \
                @ weights.astype(complex)
            spec = transform(grid, np.abs(amps) ** 2, Filter("none"))
            est = find_gap(grid, spec, Filter("none"), GapSearchConfig(
                initial_guess=perturbative_gap_guess(model),
                initial_window=0.5, max_window=0.5))
            found.add(round(est.gap, 12))
        assert len(found) == 1
