import math

import numpy as np
import pytest
from scipy.linalg import expm

from gaplab import (
    DataError,
    InputOrientation,
    ParameterError,
    ResourceLimitError,
    SpinModel,
    TimeGrid,
    TimeSeries,
    TrotterPlan,
    gate_sequence,
    prepare_input,
    run_time_series,
    trotter_propagator,
)
from gaplab import simulator
from gaplab.simulator import MAX_SIMULATED_SPINS, apply_gates
from gaplab.trotter import KAPPA4

from conftest import (gate_sequence_unitary, literal_gate_count, naive_tfim,
                      operator_norm, overlap_by_path)


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
        [series] = run_time_series(model, TrotterPlan(1, 5), [orientation],
                                   TimeGrid(dt=0.5, length=4))
        assert series.p_plus[0] == 1.0 and series.p_minus[0] == 1.0

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
        [series] = run_time_series(model, TrotterPlan(1, 4),
                                   [InputOrientation.uniform(3, 0.27 * math.pi)],
                                   self.grid())
        assert series.p_plus[0] == 1.0
        assert series.p_minus[0] == 1.0
        assert series.shots is None

    def test_values_in_unit_interval(self):
        model = SpinModel(3, 0.4, 1.0)
        [series] = run_time_series(model, TrotterPlan(4, 3),
                                   [InputOrientation.uniform(3, 0.4 * math.pi)],
                                   self.grid())
        for arr in (series.p_plus, series.p_minus):
            assert arr.min() >= 0.0 and arr.max() <= 1.0

    def test_shot_mode_deterministic(self):
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        runs = [run_time_series(model, TrotterPlan(1, 4), [orientation],
                                self.grid(), shots=256, seeds=[11])[0]
                for _ in range(2)]
        assert np.array_equal(runs[0].p_plus, runs[1].p_plus)
        assert np.array_equal(runs[0].p_minus, runs[1].p_minus)

    def test_shot_mode_seed_sensitivity(self):
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        [a] = run_time_series(model, TrotterPlan(1, 4), [orientation], self.grid(),
                              shots=256, seeds=[11])
        [b] = run_time_series(model, TrotterPlan(1, 4), [orientation], self.grid(),
                              shots=256, seeds=[12])
        assert not np.array_equal(a.p_plus, b.p_plus)

    def test_shot_noise_standard_error(self):
        # binomial scatter at 10^6 shots stays within 3 sigma of the exact value
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        plan = TrotterPlan(1, 4)
        [exact] = run_time_series(model, plan, [orientation], self.grid())
        shots = 10**6
        [noisy] = run_time_series(model, plan, [orientation], self.grid(),
                                  shots=shots, seeds=[5])
        for e_arr, s_arr in ((exact.p_plus, noisy.p_plus),
                             (exact.p_minus, noisy.p_minus)):
            sigma = np.sqrt(np.maximum(e_arr * (1 - e_arr), 1e-12) / shots)
            assert np.all(np.abs(s_arr - e_arr) <= 3.0 * sigma + 1e-9)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    def test_one_binomial_draw_per_orientation(self, seed):
        # the draw contract: one generator per orientation seed draws the
        # whole (2, L) block of both branches in one call
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.27 * math.pi)
        plan = TrotterPlan(1, 4)
        [exact] = run_time_series(model, plan, [orientation], self.grid())
        exact_block = np.stack([exact.p_plus, exact.p_minus])
        [noisy] = run_time_series(model, plan, [orientation], self.grid(),
                                  shots=256, seeds=[seed])
        drawn = np.random.default_rng(seed).binomial(256, exact_block) / 256
        assert np.array_equal(noisy.p_plus, drawn[0])
        assert np.array_equal(noisy.p_minus, drawn[1])

    def test_shot_mode_start_is_exact(self):
        model = SpinModel(3, 0.4, 1.0)
        [series] = run_time_series(model, TrotterPlan(1, 4),
                                   [InputOrientation.uniform(3, 0.27 * math.pi)],
                                   self.grid(), shots=64, seeds=[3])
        assert series.p_plus[0] == 1.0

    def test_batch_equals_separate_runs(self):
        # the shared propagator must not couple orientations: each series of
        # a batch is identical to its own single-orientation run
        model = SpinModel(3, 0.4, 1.0)
        plan = TrotterPlan(2, 4)
        orientations = [InputOrientation.uniform(3, a) for a in (0.1, 0.9, 2.0)]
        for shots, seeds in ((None, None), (256, [4, 5, 6])):
            batch = run_time_series(model, plan, orientations, self.grid(),
                                    shots=shots, seeds=seeds)
            for k, orientation in enumerate(orientations):
                [alone] = run_time_series(
                    model, plan, [orientation], self.grid(), shots=shots,
                    seeds=None if seeds is None else [seeds[k]])
                assert np.allclose(batch[k].p_plus, alone.p_plus, rtol=0, atol=1e-14)
                assert np.allclose(batch[k].p_minus, alone.p_minus, rtol=0, atol=1e-14)
                assert batch[k].seed == (None if seeds is None else seeds[k])

    def test_rejects_mismatched_inputs(self):
        model = SpinModel(3, 0.4, 1.0)
        orientation = InputOrientation.uniform(3, 0.3)
        with pytest.raises(ParameterError):
            run_time_series(model, TrotterPlan(1, 4), [], self.grid())
        with pytest.raises(ParameterError):
            run_time_series(model, TrotterPlan(1, 4),
                            [InputOrientation.uniform(2, 0.3)], self.grid())
        with pytest.raises(ParameterError):
            run_time_series(model, TrotterPlan(1, 4), [orientation], self.grid(),
                            shots=64, seeds=[1, 2])
        with pytest.raises(ParameterError):
            run_time_series(model, TrotterPlan(1, 4), [orientation], self.grid(),
                            shots=0)
        for shots, seeds in ((64, [-1]), (10.5, [1]), (True, [1]), (64, [1.5]),
                             (64, [True])):
            with pytest.raises(ParameterError):
                run_time_series(model, TrotterPlan(1, 4), [orientation], self.grid(),
                                shots=shots, seeds=seeds)

    @pytest.mark.parametrize("n_spins", [MAX_SIMULATED_SPINS + 1, 13])
    def test_dense_cap_enforced_before_allocation(self, n_spins, monkeypatch):
        # beyond the cap the engine refuses before building any propagator
        def fail(*args):
            raise AssertionError("propagator built above the cap")

        monkeypatch.setattr(simulator, "trotter_propagator", fail)
        with pytest.raises(ResourceLimitError):
            run_time_series(SpinModel(n_spins, 0.4, 1.0), TrotterPlan(1, 4),
                            [InputOrientation.uniform(n_spins, 0.3)], self.grid())

    def test_largest_simulated_chain_runs(self):
        n = MAX_SIMULATED_SPINS
        [series] = run_time_series(SpinModel(n, 0.4, 1.0), TrotterPlan(2, 2),
                                   [InputOrientation.uniform(n, 0.3)],
                                   TimeGrid(dt=0.3, length=2))
        assert 0.0 <= series.p_plus[1] <= 1.0

    def test_one_propagator_per_signed_time(self, monkeypatch):
        # the engine builds U_M(t) for each positive time only and mirrors the
        # minus branch (U_M(-t) = conj U_M(t) for the real inputs and steps).
        # A stand-in propagator g(t)^(1/2) * I returns P = g(t), which differs
        # between t and -t, so a shifted index, a duplicate call or a call at
        # a negative time shows
        def g(t):
            return 0.5 + 0.4 * math.tanh(t)

        calls = []

        def fake(model, plan, t):
            calls.append(t)
            return math.sqrt(g(t)) * np.eye(model.dim)

        monkeypatch.setattr(simulator, "trotter_propagator", fake)
        grid = TimeGrid(dt=0.3, length=6)
        orientations = [InputOrientation.uniform(3, 0.3),
                        InputOrientation((0.1, 0.9, 2.0))]
        batch = run_time_series(SpinModel(3, 0.4, 1.0), TrotterPlan(1, 4),
                                orientations, grid)
        steps = range(1, grid.length)
        assert sorted(calls) == [n * grid.dt for n in steps]
        assert all(isinstance(t, float) and t > 0 for t in calls)
        want_plus = [1.0] + [g(n * grid.dt) for n in steps]
        for series in batch:
            assert np.allclose(series.p_plus, want_plus, rtol=0, atol=1e-14)
            assert np.array_equal(series.p_minus, series.p_plus)

    def test_series_validation(self):
        grid = self.grid()
        with pytest.raises(DataError):
            TimeSeries(grid=grid, p_plus=np.ones(5), p_minus=np.ones(16))
        bad = np.ones(16)
        bad[3] = 1.5
        with pytest.raises(DataError):
            TimeSeries(grid=grid, p_plus=bad, p_minus=np.ones(16))
