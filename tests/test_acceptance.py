"""End-to-end acceptance criteria.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion; every tolerance is fixed here, nothing is calibrated at runtime.
"""

import math
import time

import numpy as np
import pytest
from scipy.linalg import expm

import gaplab
from gaplab import (
    Filter,
    GapSearchConfig,
    SpinModel,
    TrotterPlan,
    commutator_norm_bounds,
    default_grid,
    depth_cutoff,
    exact_diagonalize,
    exact_spectrum_oracle,
    extrapolate,
    filter_value,
    find_gap,
    peak_shift,
    perturbative_gap_guess,
    prepare_input,
    run_time_series,
    spectral_error,
    spectral_error_bound,
    theta_sweep,
    transform,
    trotter_propagator,
    truncation_error_bound,
    TwoPeakModel,
    best_record,
)

from conftest import (commutator_mismatch, mirror_basis, mirror_block, operator_norm,
                      overlap_by_path, pauli_form_commutators, with_eta)


def _report(number, text):
    print(f"\nACCEPTANCE {number} PASS: {text}")


def test_criterion_01_truncation_bound_satisfaction():
    start = time.time()
    theta = 0.27 * math.pi
    filters = (Filter.none(), Filter.lorentzian(0.3), Filter.gaussian(0.3))
    checked = 0
    worst = 0.0
    for n in (2, 3, 4, 5):
        model = SpinModel(n, 0.4, 1.0)
        eig = exact_diagonalize(model)
        [psi] = prepare_input(n, [theta]).T
        b = mirror_basis(n)      # the propagators act on the mirror-even block
        for p in (1, 2, 4):
            for ht in np.arange(0.5, 6.01, 0.5):
                phase = np.exp(-1j * eig.energies * ht)
                exact_state = eig.states @ (phase * (eig.states.conj().T @ psi))
                rho_exact = np.outer(exact_state, exact_state.conj())
                for m_depth in (1, 2, 4, 8, 16, 32, 64):
                    plan = TrotterPlan(p, m_depth)
                    state = b @ (trotter_propagator(model, plan, ht) @ (b.T @ psi))
                    rho_err = operator_norm(np.outer(state, state.conj()) - rho_exact)
                    for filt in filters:
                        measured = filter_value(filt, ht) * rho_err
                        bound = truncation_error_bound(model, plan, filt, ht)
                        assert measured <= bound + 1e-12, (
                            f"violation at N={n} p={p} ht={ht} M={m_depth} "
                            f"{filt.family}: {measured:.3e} > {bound:.3e}")
                        worst = max(worst, measured / bound)
                        checked += 1
    elapsed = time.time() - start
    assert elapsed < 300
    _report(1, f"{checked} grid points, zero violations "
               f"(worst measured/bound = {worst:.3f}, {elapsed:.1f}s)")


def test_criterion_02_order_scaling():
    start = time.time()
    model = SpinModel(3, 0.4, 1.0)
    h1, h2 = gaplab.build_hamiltonians(model)
    slopes = {}
    for p, ht in ((1, 1.0), (2, 1.0), (4, 2.0)):
        exact = mirror_block(expm(-1j * (h1 + h2) * ht), 3)
        depths = np.array([4, 8, 16, 32])
        errs = [operator_norm(trotter_propagator(model, TrotterPlan(p, int(m)), ht)
                              - exact) for m in depths]
        slope = np.polyfit(np.log(depths), np.log(errs), 1)[0]
        assert abs(slope + p) <= 0.3
        slopes[p] = slope
    elapsed = time.time() - start
    _report(2, "log-log error slopes " +
            ", ".join(f"p={p}: {s:.3f}" for p, s in slopes.items()) +
            f" all within +-0.3 ({elapsed:.1f}s)")


def test_criterion_03_depth_budget_magnitude():
    model = SpinModel(1000, 0.4, 1.0)
    _, d_bare = depth_cutoff(model, 1, Filter.none(), 6.0, eps_c=1e-2)
    assert d_bare >= 1e7
    m_bare, _ = depth_cutoff(model, 1, Filter.none(), 6.0, eps_c=1e-2)
    m_filt, _ = depth_cutoff(model, 1, Filter.lorentzian(0.3), 6.0, eps_c=1e-2)
    assert m_filt / m_bare == pytest.approx(math.exp(-1.8), rel=1e-12)
    _report(3, f"D_c(p=1, ht=6, N=1000, unfiltered) = {d_bare:.3e} >= 1e7; "
               f"lorentzian suppression exactly e^-1.8")


def test_criterion_04_gap_recovery():
    start = time.time()
    model = SpinModel(4, 0.4, 1.0)
    plan = TrotterPlan(1, 35)
    filt = Filter.gaussian(0.3)
    grid = default_grid(filt)
    theta = 0.27 * math.pi
    eig = exact_diagonalize(model)
    exact_gap = eig.energies[1] - eig.energies[0]
    config = GapSearchConfig(initial_guess=perturbative_gap_guess(model))

    [p] = run_time_series(model, plan, [theta], grid)
    est = find_gap(grid, transform(grid, p, filt), filt, config)
    exact_dev = abs(est.gap - exact_gap)
    assert exact_dev <= filt.eta

    hits = 0
    for seed in range(10):
        [p] = run_time_series(model, plan, [theta], grid,
                              shots=1024, seeds=[seed])
        est = find_gap(grid, transform(grid, p, filt), filt, config)
        hits += abs(est.gap - exact_gap) <= filt.eta
    assert hits >= 9
    elapsed = time.time() - start
    assert elapsed < 120
    _report(4, f"exact-mode |gap - ED| = {exact_dev:.4f} <= eta = 0.3; "
               f"shot mode {hits}/10 seeds within eta ({elapsed:.1f}s)")


def test_criterion_05_spectral_convergence():
    start = time.time()
    model = SpinModel(4, 0.4, 1.0)
    filt = Filter.gaussian(0.3)
    grid = default_grid(filt)
    theta = 0.27 * math.pi
    [oracle] = exact_spectrum_oracle(exact_diagonalize(model), [theta], filt, grid)
    depths = (5, 10, 15, 20, 25, 35, 50, 75, 100, 150)
    eps_s, eps_b = [], []
    for m_depth in depths:
        plan = TrotterPlan(1, m_depth)
        [p] = run_time_series(model, plan, [theta], grid)
        spec = transform(grid, p, filt)
        eps_s.append(spectral_error(spec, oracle))
        eps_b.append(spectral_error_bound(model, plan, filt, grid))
    for a, b in zip(eps_s, eps_s[1:]):
        assert b <= a * 1.02 + 1e-9
    assert min(eps_s) < 1e-3
    for s, b in zip(eps_s, eps_b):
        assert b >= s
    elapsed = time.time() - start
    assert elapsed < 600
    _report(5, f"eps_spect non-increasing over M={depths}, "
               f"floor {min(eps_s):.2e} < 1e-3, eps_bound dominates everywhere "
               f"({elapsed:.1f}s)")


def test_criterion_06_theta_invariance_unfiltered_regime():
    start = time.time()
    model = SpinModel(4, 0.4, 1.0)
    filt = Filter.lorentzian(0.02)
    grid = default_grid(filt)
    thetas = [math.pi * l / 50 for l in range(25)]
    records = theta_sweep(model, TrotterPlan(1, 10000), filt, grid, thetas,
                          search=GapSearchConfig(perturbative_gap_guess(model)))
    assert all(r.failure is None for r in records)
    gaps = np.array([r.gap for r in records])
    spread = gaps.max() - gaps.min()
    assert spread <= 2 * grid.d_omega
    elapsed = time.time() - start
    assert elapsed < 600
    _report(6, f"gap spread over 25 orientations = {spread:.2e} <= "
               f"2 d_omega = {2 * grid.d_omega:.2e} ({elapsed:.1f}s)")


def test_criterion_07_scaling_benchmark():
    start = time.time()
    for coupling in (0.2, 0.4, 0.6, 0.8):
        points = tuple(
            (n, perturbative_gap_guess(SpinModel(n, coupling, 1.0)))
            for n in (2, 3, 4, 5))
        ex = extrapolate(points)
        assert ex.intercept == pytest.approx(2 * (1 - coupling), abs=1e-12)
        assert ex.confidence_band[1] - ex.confidence_band[0] <= 1e-12

    eta = 0.3
    filt = Filter.gaussian(eta)
    grid = default_grid(filt)
    plan = TrotterPlan(1, 35)
    thetas = [math.pi * l / 50 for l in range(25)]
    intercepts = {}
    for j_index, coupling in enumerate((0.2, 0.4, 0.6, 0.8)):
        points = []
        for n in (2, 3, 4, 5):
            model = SpinModel(n, coupling, 1.0)
            seed = int(np.random.SeedSequence((2026, j_index, n)).generate_state(1)[0])
            records = theta_sweep(
                model, plan, filt, grid, thetas, shots=1024, seed=seed,
                search=GapSearchConfig(initial_guess=perturbative_gap_guess(model)))
            points.append((n, best_record(records).gap))
        ex = extrapolate(points)
        intercepts[coupling] = ex.intercept
        assert abs(ex.intercept - 2 * (1 - coupling)) <= 2 * eta
    elapsed = time.time() - start
    assert elapsed < 900
    assert abs(intercepts[0.4] - 1.2) <= 2 * eta
    _report(7, "perturbative inputs extrapolate exactly; simulated pipeline "
               + ", ".join(f"J/h={c}: {v:.3f}" for c, v in intercepts.items())
               + f" all within 2 eta of 2(1-J/h) ({elapsed:.1f}s)")


def test_criterion_08_commutator_forms_and_bounds():
    for n in (3, 4, 5):
        assert max(commutator_mismatch(SpinModel(n, 0.4, 1.0)).values()) <= 1e-10
    for n in range(2, 7):
        for j_over_h in (0.2, 0.4, 0.6, 0.8):
            model = SpinModel(n, j_over_h, 1.0)
            d = pauli_form_commutators(model)
            b = commutator_norm_bounds(model, 4)
            coup, field = j_over_h, 1.0
            assert operator_norm(d[()]) <= b.comm_norm * coup * field + 1e-9
            for g in (1, 2):
                scale = coup**2 * field if g == 1 else coup * field**2
                assert operator_norm(d[(g,)]) <= b.nested_norm * scale + 1e-9
            for key in ((1, 1, 2), (1, 2, 1), (2, 1, 2), (2, 2, 1),
                        (1, 1, 1), (2, 1, 1), (1, 2, 2), (2, 2, 2)):
                n_j = 1 + key.count(1)
                scale = coup**n_j * field ** (5 - n_j)
                limit = (b.mixed_four_norm if key[1] != key[2]
                         else b.repeated_four_norm)
                assert operator_norm(d[key]) <= limit * scale + 1e-9
    _report(8, "string and matrix commutators agree to 1e-10 for N=3,4,5; "
               "all norm bounds hold for N in [2,6]")


def test_criterion_09_reference_gap_formulas():
    assert perturbative_gap_guess(SpinModel(4, 0.4, 1.0)) == pytest.approx(1.4)
    thermo = gaplab.exact_gap_thermodynamic(0.4, 1.0)
    assert thermo == pytest.approx(1.2)
    gaps = []
    for n in range(2, 7):
        e = exact_diagonalize(SpinModel(n, 0.4, 1.0)).energies
        gaps.append(e[1] - e[0])
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert all(g > thermo for g in gaps)
    x = np.array([1.0 / n for n in range(2, 7)])
    intercept = np.polyfit(x, gaps, 1)[1]
    assert abs(intercept - thermo) <= 0.1
    _report(9, f"finite-size ED gaps decrease monotonically toward 2|h-J|; "
               f"1/N trend intercept {intercept:.3f} vs {thermo}; "
               f"perturbative guess reproduces 1.4")


def test_criterion_10_two_peak_shift():
    sep = 0.6
    models = {family: TwoPeakModel(center=1.0, separation=sep,
                                   relative_height=0.5,
                                   filter=Filter(family, 0.1))
              for family in ("lorentzian", "gaussian")}
    for family, model in models.items():
        shifts = [peak_shift(with_eta(model, eta))
                  for eta in np.linspace(0.04, 0.26, 12)]
        assert all(b >= a - 1e-8 for a, b in zip(shifts, shifts[1:]))
    for eta in (0.12, 0.2):
        row = [peak_shift(TwoPeakModel(center=1.0, separation=sep,
                                       relative_height=lam,
                                       filter=Filter.lorentzian(eta)))
               for lam in (0.25, 0.5, 1.0)]
        assert row[0] <= row[1] <= row[2]
    ratios = np.linspace(0.5, 1.2, 36)
    diffs = [peak_shift(with_eta(models["lorentzian"], r * sep / 2))
             - peak_shift(with_eta(models["gaussian"], r * sep / 2))
             for r in ratios]
    signs = np.sign(diffs)
    flips = [ratios[i] for i in range(len(ratios) - 1)
             if signs[i] != 0 and signs[i + 1] != 0 and signs[i] != signs[i + 1]]
    assert flips and 0.7 < flips[0] < 1.0
    _report(10, f"shift monotone in eta and relative height; family curves "
                f"cross at 2 eta/sep = {flips[0]:.3f} in (0.7, 1.0)")


def test_criterion_11_decoupled_chain_closed_form():
    n, theta, field = 4, 0.27 * math.pi, 1.0
    model = SpinModel(n, 0.0, field)
    worst = 0.0
    for p in (1, 2, 4):
        plan = TrotterPlan(p, 7)
        for ht in np.linspace(0.3, 4.0, 9):
            ref = (math.cos(field * ht) ** 2
                   + math.sin(field * ht) ** 2 * math.sin(theta) ** 2) ** n
            for path in ("gates", "matrix"):
                got = overlap_by_path(model, plan, theta, ht, path)
                worst = max(worst, abs(got - ref))
                assert abs(got - ref) <= 1e-10
    _report(11, f"J=0 return probability matches the product closed form, "
                f"max |diff| = {worst:.1e} over p in (1,2,4)")
