import math
import re
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from gaplab import (
    DataError,
    Filter,
    GapSearchConfig,
    ParameterError,
    SpinModel,
    TimeGrid,
    default_grid,
    exact_diagonalize,
    exact_spectrum_oracle,
    filter_fourier,
    find_gap,
    prepare_input,
    transform,
)
from gaplab import simulator
from gaplab.spectral import MAX_GRID_LENGTH, grid_size, spectrum_to_csv

from conftest import read_spectrum


def exact_return_series(model, theta, grid):
    """Return probabilities of the exactly evolved chain, from the eigensystem."""
    eig = exact_diagonalize(model)
    [psi] = prepare_input(model.n_spins, [theta]).T
    weights = np.abs(eig.states.conj().T @ psi) ** 2
    phases = np.exp(-1j * np.outer(grid.times, eig.energies))
    amps = phases @ weights.astype(complex)
    return np.abs(amps) ** 2


class TestDefaultGrid:
    def test_paper_rule(self):
        grid = default_grid(Filter("gaussian", 0.3))
        assert grid.length == 2 * math.ceil(7.0 / 0.075)
        assert grid.d_omega == pytest.approx(0.075)
        assert grid.d_omega * grid.dt == pytest.approx(2 * math.pi / grid.length)

    def test_needs_broadening(self):
        with pytest.raises(ParameterError):
            default_grid(Filter("none"))

    @pytest.mark.parametrize("filt, d_omega", [
        (Filter("gaussian", 0.3), 1e-9), (Filter("gaussian", 1e-9), None)])
    def test_grid_above_the_cap_refused(self, filt, d_omega):
        with pytest.raises(ParameterError):
            grid_size(filt, d_omega)

    def test_cap_is_reachable(self):
        # 7 / d_omega = 2**16 exactly: the default rule lands on the cap
        assert grid_size(Filter("none"), 7.0 / 2**16) == (7.0 / 2**16, MAX_GRID_LENGTH)
        with pytest.raises(ParameterError):
            grid_size(Filter("none"), 1.0, MAX_GRID_LENGTH + 2)


class TestSpectralFunction:
    def test_constant_series_concentrates_at_zero(self):
        grid = TimeGrid(dt=0.4, length=32)
        spec = transform(grid, np.ones(32), Filter("none"))
        assert spec.shape == (32,) and spec.dtype == float
        assert np.argmax(spec) == 0
        # closed form: full weight at m = 0 minus the shared-origin correction
        expected_peak = 32 * grid.dt / math.pi - grid.dt / (2 * math.pi)
        assert spec[0] == pytest.approx(expected_peak, rel=1e-12)
        assert np.allclose(spec[1:], -grid.dt / (2 * math.pi), atol=1e-12)

    def test_on_grid_cosine_peaks_at_its_bin(self):
        grid = TimeGrid(dt=0.4, length=64)
        m0 = 9
        p = 0.5 * (1 + np.cos(m0 * grid.d_omega * grid.times))
        spec = transform(grid, p, Filter("none"))
        half = np.arange(1, 33)
        assert half[np.argmax(spec[1:33])] == m0

    def test_filtered_peak_position_and_width(self):
        gap, eta = 2.0, 0.15
        filt = Filter("lorentzian", eta)
        d_omega = eta / 8
        length = 2 * math.ceil(7.0 / d_omega)
        grid = TimeGrid(dt=2 * math.pi / (length * d_omega), length=length)
        p = 0.5 * (1 + np.cos(gap * grid.times))
        spec = transform(grid, p, filt)
        om = grid.omegas
        window = (om > 1.0) & (om < 3.0)
        peak = np.argmax(np.where(window, spec, -np.inf))
        assert abs(om[peak] - gap) <= grid.d_omega
        # full width at half maximum of the peak tracks 2 eta
        half_height = spec[peak] / 2
        above = window & (spec >= half_height)
        width = om[above].max() - om[above].min()
        assert width == pytest.approx(2 * eta, abs=3 * grid.d_omega)

    def test_linear_in_the_series(self):
        grid = TimeGrid(dt=0.3, length=24)
        rng = np.random.default_rng(4)
        a = np.concatenate(([1.0], rng.uniform(0, 1, 23)))
        b = np.concatenate(([1.0], rng.uniform(0, 1, 23)))
        lam = 0.3
        filt = Filter("gaussian", 0.4)
        spec_a = transform(grid, a, filt)
        spec_b = transform(grid, b, filt)
        mixed = transform(grid, lam * a + (1 - lam) * b, filt)
        assert np.allclose(mixed, lam * spec_a + (1 - lam) * spec_b, atol=1e-13)

    def test_mirror_symmetry_for_even_series(self):
        model = SpinModel(3, 0.4, 1.0)
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        spec = transform(grid, exact_return_series(model, 0.27 * math.pi, grid), filt)
        assert np.allclose(spec[1:], spec[1:][::-1], atol=1e-12)


class TestFilterFourier:
    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    def test_unit_area(self, family):
        filt = Filter(family, 0.27)
        val, _ = quad(lambda w: filter_fourier(filt, w), -np.inf, np.inf)
        assert val == pytest.approx(1.0, abs=1e-6)

    def test_lorentzian_peak_value(self):
        eta = 0.3
        assert filter_fourier(Filter("lorentzian", eta), 0.0) == pytest.approx(
            1.0 / (math.pi * eta), rel=1e-14)

    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    def test_full_width_at_half_maximum(self, family):
        eta = 0.21
        filt = Filter(family, eta)
        peak = filter_fourier(filt, 0.0)
        half_point = brentq(lambda w: filter_fourier(filt, w) - peak / 2, 1e-9, 5.0)
        assert 2 * half_point == pytest.approx(2 * eta, rel=1e-9)

    def test_delta_limit_rejected(self):
        with pytest.raises(ParameterError):
            filter_fourier(Filter("none"), 0.0)
        with pytest.raises(ParameterError):
            filter_fourier(Filter("lorentzian", 0.0), 0.0)


class TestOracle:
    def setup_method(self):
        self.model = SpinModel(4, 0.4, 1.0)
        self.eig = exact_diagonalize(self.model)
        self.theta = 0.27 * math.pi

    def test_input_weight_is_normalized(self):
        [psi] = prepare_input(4, [self.theta]).T
        w = np.abs(self.eig.states.conj().T @ psi) ** 2
        assert w.sum() == pytest.approx(1.0, abs=1e-12)

    def test_total_weight_near_one(self):
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        oracles = exact_spectrum_oracle(self.eig, [self.theta], filt, grid)
        assert oracles.shape == (1, grid.length) and oracles.dtype == float
        oracle = oracles[0]
        assert grid.d_omega * oracle.sum() == pytest.approx(1.0, abs=0.02)

    @pytest.mark.parametrize("family,floor", [("gaussian", 1e-3), ("lorentzian", 2e-2)])
    def test_matches_exactly_evolved_series(self, family, floor):
        # pins the transform conventions: the spectrum of the exact series
        # must land on the line-shape sum (gaussian far below the 1e-3 target;
        # the oracle sums only the periodic images k = -1, 0, 1, and the
        # lorentzian's dropped |k| >= 2 tail, falling as eta / (pi k^2 T^2)
        # with T = L d_omega, is 6.1e-3 relative here)
        filt = Filter(family, 0.3)
        grid = default_grid(filt)
        spec = transform(
            grid, exact_return_series(self.model, self.theta, grid), filt)
        [oracle] = exact_spectrum_oracle(self.eig, [self.theta], filt, grid)
        num = np.sqrt(np.sum((spec - oracle) ** 2))
        den = np.sqrt(np.sum((spec - spec.mean()) ** 2))
        assert num / den < floor

    def test_unfiltered_spectrum_peaks_at_dominant_gap(self):
        grid = TimeGrid(dt=0.25, length=512)
        spec = transform(
            grid, exact_return_series(self.model, self.theta, grid), Filter("none"))
        gap = self.eig.energies[1] - self.eig.energies[0]
        om = grid.omegas
        window = (om > 0.5) & (om < om[len(om) // 2])
        peak = np.argmax(np.where(window, spec, -np.inf))
        assert abs(om[peak] - gap) <= grid.d_omega

    def kept_pairs(self, theta):
        """The oracle's rule: pairs above 1e-14 of the largest pair weight."""
        [psi] = prepare_input(4, [theta]).T
        weights = np.abs(self.eig.states.conj().T @ psi) ** 2
        pair_w = np.outer(weights, weights).ravel()
        return pair_w > 1e-14 * pair_w.max()

    def union_of_pairs(self, plus_state):
        """Angles whose rows read pairs they drop on their own, and the union size.

        theta = 11 pi/50 keeps 99 of the 100 pairs theta = 0 keeps; |+...+>
        (theta = pi/2) keeps 36 of the 100 a theta = 0.3 row keeps.  100 is all a
        uniform input reaches: the 10 reflection-symmetric eigenstates, squared.
        """
        thetas, counts = ([0.3, math.pi / 2], [100, 36]) if plus_state \
            else ([0.0, 11 * math.pi / 50], [100, 99])
        kept = [self.kept_pairs(theta) for theta in thetas]
        assert [k.sum() for k in kept] == counts
        pairs = np.logical_or.reduce(kept).sum()
        assert pairs == 100
        return thetas, pairs

    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    @pytest.mark.parametrize("plus_state", [False, True])
    def test_batch_rows_equal_single_calls(self, family, plus_state):
        # every row reads the union of the rows' kept pairs; rows must equal
        # one-angle calls within 1e-12 of each row's largest value
        thetas, _ = self.union_of_pairs(plus_state)
        filt = Filter(family, 0.3)
        grid = default_grid(filt)
        batch = exact_spectrum_oracle(self.eig, thetas, filt, grid)
        assert batch.shape == (len(thetas), grid.length)
        tolerance = 1e-12 * np.abs(batch).max(axis=1, keepdims=True)
        singles = np.concatenate(
            [exact_spectrum_oracle(self.eig, [theta], filt, grid) for theta in thetas])
        assert np.all(np.abs(singles - batch) <= tolerance)

    @pytest.mark.parametrize("family", ["lorentzian", "gaussian"])
    def test_blocks_equal_one_block(self, family, monkeypatch):
        # the grid is walked in blocks of rows sized by the engine's chunk
        # budget; every block size must give one block of the whole grid
        # within 1e-12 of each row's largest value (a one-row block is a
        # matrix-vector product, whose bits differ in the last place)
        thetas, pairs = self.union_of_pairs(plus_state=True)
        filt = Filter(family, 0.3)
        grid = default_grid(filt)
        assert grid.length == 188
        monkeypatch.setattr(simulator, "_CHUNK_BYTES", grid.length * pairs * 8)
        whole = exact_spectrum_oracle(self.eig, thetas, filt, grid)
        tolerance = 1e-12 * np.abs(whole).max(axis=1, keepdims=True)
        # 8-row blocks ending on a 4-row one; 40 rows ending on 28; 43 ending
        # on 16; a budget below one row takes one row at a time
        for budget_rows in (8, 40, 43, 0.1):
            monkeypatch.setattr(simulator, "_CHUNK_BYTES", int(budget_rows * pairs * 8))
            blocked = exact_spectrum_oracle(self.eig, thetas, filt, grid)
            assert np.all(np.abs(blocked - whole) <= tolerance)
            # no angle: no pair is kept, and the row count must not divide by 0
            none = exact_spectrum_oracle(self.eig, [], filt, grid)
            assert none.shape == (0, grid.length) and none.dtype == float

    def test_memory_holds_one_block(self):
        # criterion 6's grid (L = 2800) and sweep (K = 3): the line shapes of
        # one block of rows, about simulator._CHUNK_BYTES, and their
        # temporaries are alive at once, beside the O(L) grid vectors and the
        # K L result (about 0.4 MB in all); a whole (L, P) image with its
        # temporaries would take 6.8 MB
        filt = Filter("lorentzian", 0.02)
        grid = default_grid(filt)
        thetas = [l * math.pi / 50 for l in range(3)]
        exact_spectrum_oracle(self.eig, thetas, filt, grid)    # warm up
        tracemalloc.start()
        try:
            exact_spectrum_oracle(self.eig, thetas, filt, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert grid.length == 2800
        assert peak < 6 * simulator._CHUNK_BYTES + len(thetas) * grid.length * 8

    def test_csv_round_trip(self, tmp_path):
        filt = Filter("gaussian", 0.3)
        grid = default_grid(filt)
        [oracle] = exact_spectrum_oracle(self.eig, [self.theta], filt, grid)
        path = tmp_path / "spec.csv"
        spectrum_to_csv(grid, oracle, filt, path, metadata={"label": "oracle"})
        _, values, back_filt, meta = read_spectrum(path)
        assert np.array_equal(values, oracle)
        assert meta["d_omega"] == grid.d_omega
        assert back_filt.family == "gaussian"
        assert meta["label"] == "oracle"


@pytest.mark.parametrize("column", ["A_m", "A_oracle"])
@pytest.mark.parametrize("extent", [3, -3, None])
def test_csv_refuses_a_column_of_another_shape(tmp_path, column, extent):
    # every column must be (L,): a longer, a shorter or a (1, L) one is refused
    # before the file opens, so no partial file is left behind
    filt = Filter("gaussian", 0.3)
    grid = default_grid(filt)
    bad = np.ones((1, grid.length) if extent is None else grid.length + extent)
    good = np.ones(grid.length)
    values, extra = (bad, good) if column == "A_m" else (good, bad)
    path = tmp_path / "spec.csv"
    message = re.escape(f"column {column} has shape {bad.shape}")
    with pytest.raises(DataError, match=message):
        spectrum_to_csv(grid, values, filt, path, extra_columns={"A_oracle": extra})
    assert not path.exists()


def test_read_back_spectrum_keeps_its_fold(tmp_path):
    # a line at 6.5 below the fold at 7.05 mirrors to 7.6 above it; a guess
    # of 7.7 must widen down to the physical peak, not stop at the mirror
    filt = Filter("gaussian", 0.3)
    grid = default_grid(filt)
    spec = transform(grid, 0.5 * (1 + np.cos(6.5 * grid.times)), filt)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(grid, spec, filt, path)
    omegas, values, back_filt, meta = read_spectrum(path)
    # the header's fold is the row at index L/2, and the grid rebuilt from the
    # file's d_omega and row count puts it there
    back = default_grid(back_filt, meta["d_omega"], len(values))
    assert meta["omega_max_physical"] == omegas[len(omegas) // 2] == 7.05
    assert np.array_equal(back.omegas, omegas)
    search = GapSearchConfig(initial_guess=7.7, initial_window=0.4, max_window=2.6)
    assert find_gap(back, values, back_filt, search) == find_gap(grid, spec, filt, search)
    assert abs(find_gap(grid, spec, filt, search).gap - 6.5) <= grid.d_omega
