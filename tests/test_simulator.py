import math

import numpy as np
import pytest
from scipy.linalg import expm

from gaplab import (
    DataError,
    InputOrientation,
    ParameterError,
    SpinModel,
    TimeGrid,
    TimeSeries,
    TrotterPlan,
    gate_sequence,
    prepare_input,
    propagator_overlap,
    run_time_series,
    trotter_propagator,
    truncation_error_bound,
    Filter,
)
from gaplab.simulator import (apply_gates, gate_sequence_unitary,
                              literal_gate_count, read_time_series,
                              time_series_to_csv)
from gaplab.trotter import KAPPA4

from conftest import naive_tfim, operator_norm, overlap_by_path


class TestPrepareInput:
    def test_all_zeros(self):
        psi = prepare_input(InputOrientation.uniform(3, 0.0))
        ref = np.zeros(8)
        ref[0] = 1.0
        assert np.allclose(psi, ref)

    def test_pi_flips_every_spin(self):
        psi = prepare_input(InputOrientation.uniform(3, math.pi))
        assert abs(psi[-1]) == pytest.approx(1.0)
        assert np.linalg.norm(psi[:-1]) < 1e-12

    def test_equal_superposition(self):
        psi = prepare_input(InputOrientation((math.pi / 2, math.pi / 2)))
        assert np.allclose(psi, 0.5)

    def test_angles_wrap(self):
        a = InputOrientation((2 * math.pi + 0.3,)).angles[0]
        assert a == pytest.approx(0.3)


class TestTimeGrid:
    def test_properties(self):
        grid = TimeGrid(dt=0.5, length=8)
        assert np.allclose(grid.times, 0.5 * np.arange(8))
        assert grid.d_omega * grid.dt == pytest.approx(2 * math.pi / 8)

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeGrid(dt=0.0, length=8)
        with pytest.raises(ParameterError):
            TimeGrid(dt=0.5, length=7)


class TestGateSequence:
    def test_counts_per_iteration(self):
        model = SpinModel(4, 0.4, 1.0)
        gates = gate_sequence(model, TrotterPlan(1, 1), 1.0)
        assert sum(g.kind == "rzz" for g in gates) == 3
        assert sum(g.kind == "rx" for g in gates) == 4
        counts = literal_gate_count(model, TrotterPlan(1, 1))
        assert counts == {"rzz": 3, "rx": 4, "total": 7}

    def test_literal_counts_higher_orders(self):
        model = SpinModel(5, 0.4, 1.0)
        assert literal_gate_count(model, TrotterPlan(2, 1)) == {
            "rzz": 8, "rx": 5, "total": 13}
        assert literal_gate_count(model, TrotterPlan(4, 1)) == {
            "rzz": 24, "rx": 25, "total": 49}

    def test_zero_time_gives_identity_circuit(self):
        gates = gate_sequence(SpinModel(3, 0.4, 1.0), TrotterPlan(2, 2), 0.0)
        assert all(g.angle == 0.0 for g in gates)

    def test_fourth_order_angle_fractions(self):
        model = SpinModel(2, 0.4, 1.0)
        t = 1.0
        gates = gate_sequence(model, TrotterPlan(4, 1), t)
        chi, phi = -2 * 0.4 * t, -2 * 1.0 * t
        zz_fracs = sorted({round(g.angle / chi, 10) for g in gates if g.kind == "rzz"})
        x_fracs = sorted({round(g.angle / phi, 10) for g in gates if g.kind == "rx"})
        assert zz_fracs == sorted({round(v, 10) for v in
                                   (KAPPA4 / 2, KAPPA4, (1 - 3 * KAPPA4) / 2)})
        assert x_fracs == sorted({round(v, 10) for v in (KAPPA4, 1 - 4 * KAPPA4)})

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("n,t", [(2, 0.9), (3, -1.3)])
    def test_gate_list_reproduces_propagator(self, order, n, t):
        model = SpinModel(n, 0.4, 1.0)
        plan = TrotterPlan(order, 3)
        u_gates = gate_sequence_unitary(model, plan, t)
        u_matrix = trotter_propagator(model, plan, t)
        assert operator_norm(u_gates - u_matrix) < 1e-10

    def test_norm_preserved_through_gates(self, rng):
        model = SpinModel(4, 0.4, 1.0)
        gates = gate_sequence(model, TrotterPlan(4, 5), 2.7)
        psi = rng.normal(size=16) + 1j * rng.normal(size=16)
        psi /= np.linalg.norm(psi)
        out = apply_gates(psi, gates, 4)
        assert abs(np.linalg.norm(out) - 1.0) < 1e-10


class TestPropagatorOverlap:
    def test_zero_time(self):
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        assert propagator_overlap(model, TrotterPlan(1, 5), orientation, 0.0) == 1.0

    def test_paths_agree(self):
        # two independent internal code paths on the documented working point
        model = SpinModel(4, 0.4, 1.0)
        plan = TrotterPlan(1, 35)
        orientation = InputOrientation.uniform(4, 0.27 * math.pi)
        p_gates = overlap_by_path(model, plan, orientation, 1.0, "gates")
        p_matrix = overlap_by_path(model, plan, orientation, 1.0, "matrix")
        assert abs(p_gates - p_matrix) < 1e-10

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_zero_coupling_closed_form(self, order):
        # J = 0 factorizes into independent spins:
        # P(t) = [cos^2(ht) + sin^2(ht) sin^2(theta)]^N for every order
        n, theta, field = 4, 0.27 * math.pi, 1.0
        model = SpinModel(n, 0.0, field)
        orientation = InputOrientation.uniform(n, theta)
        plan = TrotterPlan(order, 6)
        for ht in (0.4, 1.1, 2.9):
            ref = (math.cos(field * ht) ** 2
                   + math.sin(field * ht) ** 2 * math.sin(theta) ** 2) ** n
            for path in ("gates", "matrix"):
                got = overlap_by_path(model, plan, orientation, ht, path)
                assert got == pytest.approx(ref, abs=1e-10)

    def test_asymmetry_within_twice_the_bound(self):
        model = SpinModel(3, 0.4, 1.0)
        plan = TrotterPlan(1, 16)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        for t in (0.5, 1.0, 1.5):
            p_fwd = propagator_overlap(model, plan, orientation, t)
            p_bwd = propagator_overlap(model, plan, orientation, -t)
            bound = truncation_error_bound(model, plan, Filter.none(), t)
            assert abs(p_fwd - p_bwd) <= 2 * bound + 1e-12

    def test_exact_evolution_is_even_in_time(self):
        h1, h2 = naive_tfim(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        psi = prepare_input(orientation)
        for t in (0.7, 2.3):
            p = [abs(psi.conj() @ expm(-1j * (h1 + h2) * s) @ psi) ** 2
                 for s in (t, -t)]
            assert p[0] == pytest.approx(p[1], abs=1e-12)


class TestRunTimeSeries:
    def grid(self):
        return TimeGrid(dt=0.3, length=16)

    def test_exact_mode_starts_at_one(self):
        model = SpinModel(3, 0.4, 1.0)
        series = run_time_series(model, TrotterPlan(1, 4),
                                 InputOrientation.uniform(3, 0.27 * math.pi),
                                 self.grid())
        assert series.p_plus[0] == 1.0
        assert series.p_minus[0] == 1.0
        assert series.shots is None

    def test_values_in_unit_interval(self):
        model = SpinModel(3, 0.4, 1.0)
        series = run_time_series(model, TrotterPlan(4, 3),
                                 InputOrientation.uniform(3, 0.4 * math.pi),
                                 self.grid())
        for arr in (series.p_plus, series.p_minus):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_shot_mode_deterministic(self):
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        runs = [run_time_series(model, TrotterPlan(1, 4), orientation,
                                self.grid(), shots=256, seed=11)
                for _ in range(2)]
        assert np.array_equal(runs[0].p_plus, runs[1].p_plus)
        assert np.array_equal(runs[0].p_minus, runs[1].p_minus)

    def test_shot_mode_seed_sensitivity(self):
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        a = run_time_series(model, TrotterPlan(1, 4), orientation, self.grid(),
                            shots=256, seed=11)
        b = run_time_series(model, TrotterPlan(1, 4), orientation, self.grid(),
                            shots=256, seed=12)
        assert not np.array_equal(a.p_plus, b.p_plus)

    def test_shot_noise_standard_error(self):
        # binomial scatter at 10^6 shots stays within 3 sigma of the exact value
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        plan = TrotterPlan(1, 4)
        exact = run_time_series(model, plan, orientation, self.grid())
        shots = 10**6
        noisy = run_time_series(model, plan, orientation, self.grid(),
                                shots=shots, seed=5)
        for e_arr, s_arr in ((exact.p_plus, noisy.p_plus),
                             (exact.p_minus, noisy.p_minus)):
            sigma = np.sqrt(np.maximum(e_arr * (1 - e_arr), 1e-12) / shots)
            assert np.all(np.abs(s_arr - e_arr) <= 3.0 * sigma + 1e-9)

    def test_shot_mode_start_is_exact(self):
        model = SpinModel(3, 0.4, 1.0)
        series = run_time_series(model, TrotterPlan(1, 4),
                                 InputOrientation.uniform(3, 0.27 * math.pi),
                                 self.grid(), shots=64, seed=3)
        assert series.p_plus[0] == 1.0

    def test_series_validation(self):
        grid = self.grid()
        with pytest.raises(DataError):
            TimeSeries(grid=grid, p_plus=np.ones(5), p_minus=np.ones(16))
        bad = np.ones(16)
        bad[3] = 1.5
        with pytest.raises(DataError):
            TimeSeries(grid=grid, p_plus=bad, p_minus=np.ones(16))

    def test_csv_round_trip(self, tmp_path):
        model = SpinModel(3, 0.4, 1.0)
        series = run_time_series(model, TrotterPlan(2, 5),
                                 InputOrientation.uniform(3, 0.27 * math.pi),
                                 self.grid(), shots=128, seed=9)
        path = tmp_path / "series.csv"
        time_series_to_csv(series, path, metadata={"n": 3, "j_over_h": 0.4})
        back, meta = read_time_series(path)
        assert np.array_equal(back.p_plus, series.p_plus)
        assert np.array_equal(back.p_minus, series.p_minus)
        assert back.grid.dt == series.grid.dt
        assert back.shots == 128 and back.seed == 9
        assert meta["n"] == 3 and meta["j_over_h"] == 0.4
