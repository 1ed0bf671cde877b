import functools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm

from gaplab import (
    ParameterError,
    ResourceLimitError,
    SpinModel,
    TimeGrid,
    TrotterPlan,
    gate_sequence,
    prepare_input,
    run_time_series,
    trotter_propagator,
)
from gaplab import simulator
from gaplab.simulator import MAX_SIMULATED_SPINS, apply_gates
from gaplab.trotter import KAPPA4, _step

from conftest import (gate_sequence_unitary, literal_gate_count, mirror_block,
                      mirror_pairs, naive_tfim, operator_norm, overlap_by_path)


def kron_state(n_spins, theta):
    """Ry(theta)^(x)N |0> by np.kron, site 0 most significant."""
    pair = np.array([math.cos(theta / 2), math.sin(theta / 2)], dtype=complex)
    return functools.reduce(np.kron, [pair] * n_spins, np.ones(1, complex))


class TestPrepareInput:
    def test_all_zeros(self):
        [psi] = prepare_input(3, [0.0]).T
        ref = np.zeros(8)
        ref[0] = 1.0
        assert np.allclose(psi, ref)

    def test_pi_flips_every_spin(self):
        [psi] = prepare_input(3, [math.pi]).T
        assert abs(psi[-1]) == pytest.approx(1.0)
        assert np.linalg.norm(psi[:-1]) < 1e-12

    def test_equal_superposition(self):
        assert np.allclose(prepare_input(2, [math.pi / 2]), 0.5)

    def test_one_contiguous_block(self):
        # the engine multiplies its propagators into this block; each column's
        # bits are checked against np.kron in test_properties.py
        psi = prepare_input(4, [0.1, 0.27 * math.pi, 2.0, 5.9])
        assert psi.shape == (16, 4) and psi.dtype == complex and psi.flags.c_contiguous

    @pytest.mark.parametrize("n_spins", [0, 1])
    def test_fewer_than_two_sites(self, n_spins):
        # np.kron's products: none is the unit state, one site its own pair
        assert np.array_equal(prepare_input(n_spins, [0.3])[:, 0], kron_state(n_spins, 0.3))

    def test_angles_wrap(self):
        # theta and theta + 2 pi give the same bits (these sums are exact)
        thetas = np.array([0.75, 2.5, -0.5, -3.0])
        assert np.array_equal(prepare_input(3, thetas + 2 * math.pi),
                              prepare_input(3, thetas))

    def test_no_angles_give_no_columns(self):
        assert prepare_input(3, []).shape == (8, 0)


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
        u_gates = mirror_block(gate_sequence_unitary(model, plan, t), n)
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
        [p] = run_time_series(model, TrotterPlan(1, 5), [0.27 * math.pi],
                              TimeGrid(dt=0.5, length=4))
        assert p[0] == 1.0

    def test_paths_agree(self):
        # two independent internal code paths on the documented working point
        model = SpinModel(4, 0.4, 1.0)
        plan = TrotterPlan(1, 35)
        p_gates = overlap_by_path(model, plan, 0.27 * math.pi, 1.0, "gates")
        p_matrix = overlap_by_path(model, plan, 0.27 * math.pi, 1.0, "matrix")
        assert abs(p_gates - p_matrix) < 1e-10

    def test_exact_evolution_is_even_in_time(self):
        h1, h2 = naive_tfim(3, 0.4, 1.0)
        [psi] = prepare_input(3, [0.27 * math.pi]).T
        for t in (0.7, 2.3):
            p = [abs(psi.conj() @ expm(-1j * (h1 + h2) * s) @ psi) ** 2
                 for s in (t, -t)]
            assert p[0] == pytest.approx(p[1], abs=1e-12)


class TestRunTimeSeries:
    def grid(self):
        return TimeGrid(dt=0.3, length=16)

    def test_exact_mode_starts_at_one(self):
        model = SpinModel(3, 0.4, 1.0)
        [p] = run_time_series(model, TrotterPlan(1, 4), [0.27 * math.pi], self.grid())
        assert p[0] == 1.0

    def test_values_in_unit_interval(self):
        model = SpinModel(3, 0.4, 1.0)
        [p] = run_time_series(model, TrotterPlan(4, 3), [0.4 * math.pi], self.grid())
        assert p.min() >= 0.0 and p.max() <= 1.0

    @pytest.mark.parametrize("shots", [None, 64])
    def test_returns_probability_array(self, shots):
        # the engine's output is the series itself: a float (K, L) array of
        # probabilities, which starts at P(0) = 1 exactly in exact mode
        model = SpinModel(3, 0.4, 1.0)
        thetas = [0.1, 0.9, 2.0]
        probs = run_time_series(model, TrotterPlan(4, 3), thetas, self.grid(),
                                shots=shots, seeds=[1, 2, 3])
        assert isinstance(probs, np.ndarray) and probs.dtype == np.float64
        assert probs.shape == (len(thetas), self.grid().length)
        assert np.all((probs >= 0.0) & (probs <= 1.0))
        if shots is None:
            assert np.all(probs[:, 0] == 1.0)

    def test_shot_mode_deterministic(self):
        model = SpinModel(3, 0.4, 1.0)
        runs = [run_time_series(model, TrotterPlan(1, 4), [0.27 * math.pi],
                                self.grid(), shots=256, seeds=[11])[0]
                for _ in range(2)]
        assert np.array_equal(runs[0], runs[1])

    def test_shot_mode_seed_sensitivity(self):
        model = SpinModel(3, 0.4, 1.0)
        [a] = run_time_series(model, TrotterPlan(1, 4), [0.27 * math.pi], self.grid(),
                              shots=256, seeds=[11])
        [b] = run_time_series(model, TrotterPlan(1, 4), [0.27 * math.pi], self.grid(),
                              shots=256, seeds=[12])
        assert not np.array_equal(a, b)

    def test_shot_noise_standard_error(self):
        # binomial scatter at 10^6 shots per time direction, 2 * 10^6 pooled,
        # stays within 3 sigma of the exact value
        model = SpinModel(3, 0.4, 1.0)
        plan = TrotterPlan(1, 4)
        [exact] = run_time_series(model, plan, [0.27 * math.pi], self.grid())
        shots = 10**6
        [noisy] = run_time_series(model, plan, [0.27 * math.pi], self.grid(),
                                  shots=shots, seeds=[5])
        sigma = np.sqrt(np.maximum(exact * (1 - exact), 1e-12) / (2 * shots))
        assert np.all(np.abs(noisy - exact) <= 3.0 * sigma + 1e-9)

    @pytest.mark.parametrize("seed", [0, 7, 2**32 - 1])
    def test_one_binomial_draw_per_orientation(self, seed):
        # the draw contract: one generator per orientation seed draws the
        # whole series in one call, 256 shots per time direction pooled into
        # Bin(512, P), the law of the two directions' Bin(256, P) draws summed
        model = SpinModel(3, 0.4, 1.0)
        plan = TrotterPlan(1, 4)
        [exact] = run_time_series(model, plan, [0.27 * math.pi], self.grid())
        [noisy] = run_time_series(model, plan, [0.27 * math.pi], self.grid(),
                                  shots=256, seeds=[seed])
        drawn = np.random.default_rng(seed).binomial(512, exact) / 512
        assert np.array_equal(noisy, drawn)

    def test_shot_mode_start_is_exact(self):
        model = SpinModel(3, 0.4, 1.0)
        [p] = run_time_series(model, TrotterPlan(1, 4), [0.27 * math.pi],
                              self.grid(), shots=64, seeds=[3])
        assert p[0] == 1.0

    def test_batch_equals_separate_runs(self):
        # the shared propagator must not couple orientations: each series of
        # a batch is identical to its own single-orientation run
        model = SpinModel(3, 0.4, 1.0)
        plan = TrotterPlan(2, 4)
        thetas = [0.1, 0.9, 2.0]
        for shots, seeds in ((None, None), (256, [4, 5, 6])):
            batch = run_time_series(model, plan, thetas, self.grid(),
                                    shots=shots, seeds=seeds)
            for k, theta in enumerate(thetas):
                [alone] = run_time_series(
                    model, plan, [theta], self.grid(), shots=shots,
                    seeds=None if seeds is None else [seeds[k]])
                assert np.allclose(batch[k], alone, rtol=0, atol=1e-14)

    def test_rejects_mismatched_inputs(self):
        model = SpinModel(3, 0.4, 1.0)
        # no angle, a non-finite one, or angles not in a 1-D sequence
        for thetas in ([], [0.3, math.nan], [[0.3]], 0.3):
            with pytest.raises(ParameterError):
                run_time_series(model, TrotterPlan(1, 4), thetas, self.grid())
        with pytest.raises(ParameterError):
            run_time_series(model, TrotterPlan(1, 4), [0.3], self.grid(),
                            shots=64, seeds=[1, 2])
        with pytest.raises(ParameterError):
            run_time_series(model, TrotterPlan(1, 4), [0.3], self.grid(),
                            shots=0)
        # 2^62 shots per direction pool to 2^63, past numpy's int64 count
        for shots, seeds in ((64, [-1]), (10.5, [1]), (True, [1]), (64, [1.5]),
                             (64, [True]), (2**62, [1])):
            with pytest.raises(ParameterError):
                run_time_series(model, TrotterPlan(1, 4), [0.3], self.grid(),
                                shots=shots, seeds=seeds)

    @pytest.mark.parametrize("n_spins", [MAX_SIMULATED_SPINS + 1, 13])
    def test_dense_cap_enforced_before_allocation(self, n_spins, monkeypatch):
        # beyond the cap the engine refuses before building any propagator
        def fail(*args):
            raise AssertionError("propagator built above the cap")

        monkeypatch.setattr(simulator, "trotter_propagator", fail)
        with pytest.raises(ResourceLimitError):
            run_time_series(SpinModel(n_spins, 0.4, 1.0), TrotterPlan(1, 4),
                            [0.3], self.grid())

    def test_largest_simulated_chain_runs(self):
        n = MAX_SIMULATED_SPINS
        [p] = run_time_series(SpinModel(n, 0.4, 1.0), TrotterPlan(2, 2),
                              [0.3], TimeGrid(dt=0.3, length=2))
        assert 0.0 <= p[1] <= 1.0

    def test_one_propagator_per_signed_time(self, monkeypatch):
        # the engine builds U_M(t) for each positive time only: P(-t) = P(t)
        # (U_M(-t) = conj U_M(t) for the real inputs and steps) needs no
        # second one.  A stand-in mirror block g(t)^(1/2) * I returns P = g(t),
        # which differs between t and -t, so a shifted index, a duplicate call
        # or a call at a negative time shows
        def g(t):
            return 0.5 + 0.4 * math.tanh(t)

        calls = []

        def fake(model, plan, t):
            calls.append(t)
            return math.sqrt(g(t)) * np.eye(mirror_pairs(model.n_spins)[0].size)

        monkeypatch.setattr(simulator, "trotter_propagator", fake)
        grid = TimeGrid(dt=0.3, length=6)
        batch = run_time_series(SpinModel(3, 0.4, 1.0), TrotterPlan(1, 4),
                                [0.3, 2.0], grid)
        steps = range(1, grid.length)
        assert sorted(calls) == [n * grid.dt for n in steps]
        assert all(isinstance(t, float) and t > 0 for t in calls)
        want = [1.0] + [g(n * grid.dt) for n in steps]
        for p in batch:
            assert np.allclose(p, want, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 4])
    def test_matches_per_time_loop(self, order, monkeypatch):
        # the engine keeps each time's amplitudes and squares them once; the
        # loop it replaced squared and clipped at every time, with the
        # propagator from np.linalg.matrix_power and the state from np.kron,
        # and applied each propagator on its own where the engine contracts a
        # chunk of them at once.  Both map each state into the mirror block as
        # sqrt(s_i) psi[r_i], with the classes rebuilt from bit strings.
        # Criterion 6's chain and depth, every 14th time of its L = 2800 grid
        model, plan = SpinModel(4, 0.4, 1.0), TrotterPlan(order, 10000)
        grid = TimeGrid(dt=14 * 2 * math.pi / (2800 * 0.005), length=200)
        thetas = [0.1 * math.pi, 0.45 * math.pi, 5.9]
        reps, partners = mirror_pairs(4)
        psi = np.stack([kron_state(4, theta) for theta in thetas], axis=1)[reps]
        psi *= np.sqrt(1.0 + (reps != partners))[:, None]
        want = np.ones((len(thetas), grid.length))
        for n, t in enumerate(grid.times[1:], start=1):
            step = _step(model, plan.order, t / plan.depth)
            evolved = np.linalg.matrix_power(step, plan.depth) @ psi
            amp = np.einsum("ik,ik->k", psi.conj(), evolved)
            want[:, n] = np.clip(np.abs(amp) ** 2, 0.0, 1.0)
        # chunks of 1 time, of 7 (the last of the L - 1 = 199 times partial), of all
        propagator_bytes = 16 * len(reps)**2
        for per_chunk in (1, 7, grid.length - 1):
            monkeypatch.setattr(simulator, "_CHUNK_BYTES", per_chunk * propagator_bytes)
            assert np.array_equal(run_time_series(model, plan, thetas, grid), want)
            # the shot half: 256 shots per time direction, one Bin(512, P) draw
            seeds = [3, 1, 4]
            sampled = run_time_series(model, plan, thetas, grid, shots=256,
                                      seeds=seeds)
            for p, w, seed in zip(sampled, want, seeds):
                assert np.array_equal(p, np.random.default_rng(seed).binomial(512, w) / 512)

    def test_memory_holds_one_chunk(self):
        # at N = 6 a chunk holds three 20 kB mirror blocks (d_R = 36); holding
        # all 39 of the grid's would take 0.8 MB
        model, plan = SpinModel(6, 0.4, 1.0), TrotterPlan(2, 35)
        grid = TimeGrid(dt=0.2, length=40)
        thetas = [0.1 * l for l in range(5)]
        run_time_series(model, plan, thetas, grid)      # warm the caches
        tracemalloc.start()
        try:
            run_time_series(model, plan, thetas, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * 16 * model.dim**2
