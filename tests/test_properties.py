"""Property tests: the batched propagation engine against the per-gate circuit
and the decoupled closed form, the mirror-even block against the full-space
circuit, the mirror classes against reversed bit strings, the closed-form
layers against np.kron and the square-and-multiply power against
np.linalg.matrix_power, the time-reversal
identity the engine relies on, the FFT transform against the cosine sum and
a batch of rows against one call per row, the vectorized peak search against
a per-index scan, `scaling`'s search-only pick against the scored sweep's best
record, and file round trips.

Examples are drawn under the derandomized profile loaded in conftest, so a
run is repeatable.
"""

import contextlib
import functools
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaplab import (DataError, Filter, GapEstimate, GapSearchConfig,
                    GapSearchError, ParameterError, SpinModel,
                    TimeGrid, TrotterPlan, best_record, default_grid, filter_value,
                    find_gap, perturbative_gap_guess, run_time_series, theta_sweep,
                    trotter_propagator)
from gaplab.cli import main
from gaplab.gapfinder import _derived_seed, _windows
from gaplab.model import mirror_classes
from gaplab.scaling import Extrapolation, phase_diagram_to_csv
from gaplab.simulator import prepare_input
from gaplab.spectral import spectrum_to_csv, transform
from gaplab.trotter import _step, _x_rotation_block

from conftest import (gate_sequence_unitary, mirror_block, mirror_pairs, overlap_by_path,
                      read_phase_diagram, read_spectrum)

EPS = np.finfo(float).eps
finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
filters = st.one_of(
    st.just(Filter.none()),
    st.builds(Filter.lorentzian, st.floats(0.0, 2.0)),
    st.builds(Filter.gaussian, st.floats(0.0, 2.0)))


@st.composite
def propagation_cases(draw):
    """(model, plan, thetas, t): a small chain and several input angles."""
    n = draw(st.integers(2, 6))
    model = SpinModel(n, draw(st.one_of(st.just(0.0), st.floats(-1.5, 1.5))),
                      draw(st.floats(0.25, 2.0)))
    plan = TrotterPlan(draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 4)))
    thetas = draw(st.lists(st.floats(0.0, 2 * math.pi), min_size=2, max_size=4))
    return model, plan, thetas, draw(st.floats(0.05, 3.0))


@given(propagation_cases())
def test_batched_engine_matches_gate_circuit(case):
    # criterion 11's tolerance; at J = 0 the chain factorizes, and each spin
    # returns with probability cos^2(ht) + sin^2(ht) sin^2(theta).  The
    # engine holds P(t) alone for both time directions, so comparing it with
    # the circuit at -t as well checks P(-t) = P(t) against an independent
    # path; the identity behind it is
    # test_propagator_is_conjugate_under_time_reversal.
    model, plan, thetas, t = case
    probs = run_time_series(model, plan, thetas, TimeGrid(dt=t, length=2))
    for theta, p in zip(thetas, probs):
        got = p[1]
        for signed_t in (t, -t):
            gates = overlap_by_path(model, plan, theta, signed_t, "gates")
            assert abs(got - gates) <= 1e-10
        if model.coupling == 0.0:
            ht = model.field * t
            closed = (math.cos(ht) ** 2
                      + math.sin(ht) ** 2 * math.sin(theta) ** 2) ** model.n_spins
            assert abs(got - closed) <= 1e-10


@st.composite
def propagator_cases(draw):
    """(model, plan, t): a small chain, a short product formula and a time."""
    coupling = draw(st.one_of(st.sampled_from((0.0, -1.3)), st.floats(-2.0, 2.0)))
    model = SpinModel(draw(st.integers(2, 6)), coupling, draw(st.floats(0.25, 2.0)))
    plan = TrotterPlan(draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 8)))
    return model, plan, draw(st.floats(0.0, 5.0))


# criterion 6: the last time of the L = 2800 grid at depth 10000
LAST_LONG_TIME = 2799 * 2 * math.pi / (2800 * 0.005)


@given(propagator_cases())
@example((SpinModel(4, 0.4, 1.0), TrotterPlan(1, 10000), LAST_LONG_TIME))
def test_propagator_is_conjugate_under_time_reversal(case):
    # H1, H2 and every step are real-angle closed forms, so reversing time
    # conjugates U_M(t) exactly; the engine builds only the plus branch and
    # copies P(-t) = P(t) from it, which holds bit for bit for real inputs
    model, plan, t = case
    assert np.array_equal(trotter_propagator(model, plan, -t),
                          trotter_propagator(model, plan, t).conj())


@given(st.integers(2, 8), st.floats(-10.0, 10.0), st.floats(0.1, 2.0),
       st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=4))
def test_closed_form_layers_match_kron_products(n, dt, field, thetas):
    # the x-rotation layer reads one row at a XOR b and each input state is a
    # row product; both multiply the same factors in the same order as np.kron.
    # The layer's mirror block adds entry (r_i, rev r_j) of that matrix to entry
    # (r_i, r_j) where r_j is no palindrome and weighs the sum by sqrt(s_i/s_j)
    model = SpinModel(n, 0.4, field)
    a = field * dt
    u1 = np.array([[math.cos(a), 1j * math.sin(a)], [1j * math.sin(a), math.cos(a)]])
    full = functools.reduce(np.kron, [u1] * n, np.ones((1, 1), complex))
    reps, partners = mirror_pairs(n)
    size = 1.0 + (reps != partners)
    second = np.where(reps == partners, 0.0, full[np.ix_(reps, partners)])
    assert np.array_equal(_x_rotation_block(model, dt),
                          (full[np.ix_(reps, reps)] + second) * np.sqrt(size[:, None] / size))
    for theta, column in zip(thetas, prepare_input(n, thetas).T):
        half = theta % (2 * math.pi) / 2     # 2 pi itself is 0
        pair = np.array([math.cos(half), math.sin(half)], dtype=complex)
        assert np.array_equal(column,
                              functools.reduce(np.kron, [pair] * n, np.ones(1, complex)))


@st.composite
def mirror_cases(draw):
    """(model, plan, t): N = 2..6, p in {1, 2, 4}, M <= 64 and a positive time."""
    model = SpinModel(draw(st.integers(2, 6)), draw(st.floats(-2.0, 2.0)),
                      draw(st.floats(0.25, 2.0)))
    plan = TrotterPlan(draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 64)))
    return model, plan, draw(st.floats(0.05, 5.0))


@given(mirror_cases())
def test_propagator_is_mirror_block_of_gate_circuit(case):
    # the engine powers only the mirror-even block B^T U B of the circuit's
    # full-space unitary, B the isometry of conftest.mirror_basis
    model, plan, t = case
    want = mirror_block(gate_sequence_unitary(model, plan, t), model.n_spins)
    assert np.abs(trotter_propagator(model, plan, t) - want).max() <= 1e-12


@given(mirror_cases(), st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=3))
def test_engine_rows_match_gate_circuit(case, thetas):
    # each input enters the block once, as sqrt(s_i) psi[r_i], against the
    # circuit applied to the whole 2^N statevector
    model, plan, t = case
    probs = run_time_series(model, plan, thetas, TimeGrid(dt=t, length=2))
    for theta, p in zip(thetas, probs):
        assert p[0] == 1.0
        assert abs(p[1] - overlap_by_path(model, plan, theta, t, "gates")) <= 1e-12


@given(st.integers(2, 12))
def test_mirror_classes_partition_the_basis(n):
    reps, partners = mirror_classes(n)
    assert np.array_equal(reps, mirror_pairs(n)[0])
    assert np.array_equal(partners, mirror_pairs(n)[1])
    assert np.all(np.diff(reps) > 0) and np.all(reps <= partners)
    members = np.concatenate((reps, partners[partners != reps]))
    assert np.array_equal(np.sort(members), np.arange(2**n))
    assert reps.size == 2 ** (n - 1) + 2 ** (math.ceil(n / 2) - 1)


@given(st.integers(2, 8), st.lists(st.floats(0.0, 2 * math.pi), min_size=1, max_size=4))
def test_inputs_are_mirror_symmetric_to_rounding(n, thetas):
    # entry rev a multiplies entry a's site factors in reverse order, so the
    # two agree up to the N - 1 roundings of each product, not bit for bit;
    # the engine reads the representative's entry alone
    columns = prepare_input(n, thetas)
    reps, partners = mirror_classes(n)
    a, b = columns[reps], columns[partners]
    assert np.all(np.abs(a - b) <= (n - 1) * EPS * np.maximum(np.abs(a), np.abs(b)))


@st.composite
def powered_steps(draw, depths):
    """(step, plan, t) on a small chain at a depth drawn from `depths`."""
    model = SpinModel(draw(st.integers(2, 5)), draw(st.floats(-2.0, 2.0)),
                      draw(st.floats(0.25, 2.0)))
    plan = TrotterPlan(draw(st.sampled_from((1, 2, 4))), draw(depths))
    t = draw(st.floats(0.0, 50.0))
    return model, plan, t, _step(model, plan.order, t / plan.depth)


@given(powered_steps(st.one_of(st.sampled_from((1, 2, 10000)), st.integers(4, 64))))
@example((SpinModel(4, 0.4, 1.0), TrotterPlan(4, 10000), LAST_LONG_TIME,
          _step(SpinModel(4, 0.4, 1.0), 4, LAST_LONG_TIME / 10000)))
def test_square_and_multiply_matches_matrix_power(case):
    model, plan, t, step = case
    assert np.array_equal(trotter_propagator(model, plan, t),
                          np.linalg.matrix_power(step, plan.depth))


@given(powered_steps(st.just(3)))
def test_depth_three_matches_matrix_power_to_rounding(case):
    # numpy special-cases depth 3 as (U U) U; square-and-multiply takes U (U U)
    model, plan, t, step = case
    diff = trotter_propagator(model, plan, t) - np.linalg.matrix_power(step, 3)
    assert np.abs(diff).max() <= 1e-14


def cosine_transform(grid, p_plus, p_minus, filt):
    """Reference: the paper's sum over both time directions, A_m = dt/2pi
    sum_n cos(omega_m t_n) w_n with w_n = F_n (P_+n + P_-n), term by term."""
    times = grid.times
    weights = filter_value(filt, times) * (p_plus + p_minus)
    weights[0] *= 0.5
    omegas = np.arange(grid.length) * grid.d_omega
    return np.cos(np.outer(omegas, times)) @ weights * (grid.dt / (2 * math.pi))


@st.composite
def sampled_series(draw, max_half=400, rows=None):
    """(grid, p) on an even-length grid; p is (L,), or (K, L) for K drawn from rows."""
    length = 2 * draw(st.integers(1, max_half))
    grid = TimeGrid(dt=draw(st.floats(0.01, 2.0)), length=length)
    shape = length if rows is None else (draw(rows), length)
    return grid, draw(arrays(float, shape, elements=unit))


def _criterion_6_grid():
    # eta = 0.02: L = 2800, the longest grid the acceptance tests use
    grid = TimeGrid(dt=2 * math.pi / (2800 * 0.005), length=2800)
    rng = np.random.default_rng(6)
    return grid, rng.uniform(0, 1, 2800)


@given(sampled_series(), filters)
@example(_criterion_6_grid(), Filter.lorentzian(0.02))
def test_fft_matches_cosine_sum(series, filt):
    grid, p = series
    got = transform(grid, p, filt)
    # both directions carry P(t) = P(-t)
    ref = cosine_transform(grid, p, p, filt)
    # the reference rounds each phase omega_m t_n (up to 2 pi L) to a few
    # ulps, so terms carry errors up to ~ 6 pi L eps |w_n|; with subnormal
    # weights each operation also errs by up to a subnormal step, absolutely
    scale = grid.dt / (2 * math.pi) * np.sum(p + p)
    tiny = np.finfo(float).smallest_subnormal
    assert np.max(np.abs(got - ref)) <= 32 * grid.length * (EPS * scale + tiny)


@given(sampled_series(rows=st.integers(1, 6)),
       st.builds(Filter, st.sampled_from(("lorentzian", "gaussian")),
                 st.floats(0.01, 2.0)))
def test_rows_transform_as_single_series(series, filt):
    # the (K, L) array of run_time_series is transformed row by row in one
    # call, with the n = 0 term of each row (not all of row 0) halved
    grid, p = series
    assert np.array_equal(transform(grid, p, filt),
                          np.stack([transform(grid, row, filt) for row in p]))


@pytest.mark.parametrize("shape", [(), (1,), (6,), (3, 8, 1), (3, 10)])
def test_transform_refuses_other_shapes(shape):
    # on an L = 8 grid only (8,) and (K, 8) are series
    with pytest.raises(DataError, match=r"\(L,\) or \(K, L\) with L = 8"):
        transform(TimeGrid(dt=0.5, length=8), np.full(shape, 0.5), Filter.gaussian(0.3))


def find_gap_by_scan(grid, av, filt, config):
    """Reference: every window tests each grid index for a strict local maximum
    in [lo, hi] with 0 < omega <= the fold frequency L/2 d_omega, and keeps the
    tallest, the first of ties."""
    om = np.arange(grid.length) * grid.d_omega
    ceiling = grid.length // 2 * grid.d_omega
    # the frequency rule agrees with find_gap's index rule m <= L/2
    assert [m for m in range(len(om)) if om[m] <= ceiling] == \
        list(range(grid.length // 2 + 1))
    for width in _windows(config, filt.eta):
        lo = max(config.initial_guess - width / 2.0, 0.0)
        hi = min(config.initial_guess + width / 2.0, ceiling)
        candidates = [
            m for m in range(1, len(om) - 1)
            if lo <= om[m] <= hi and om[m] > 0
            and av[m] > av[m - 1] and av[m] > av[m + 1]
        ]
        if candidates:
            m = max(candidates, key=lambda m: av[m])
            return GapEstimate(gap=float(om[m]), peak_height=float(av[m]),
                               window_used=width)
    raise GapSearchError(
        f"no local maximum within +-{max(_windows(config, filt.eta)) / 2:.4g} "
        f"of {config.initial_guess:.4g}")


@st.composite
def peak_searches(draw):
    """(grid, values, filter, config): values from a small integer set, so ties
    and plateaus occur, on an even-length DFT grid."""
    length = 2 * draw(st.integers(1, 20))
    d_omega = draw(st.sampled_from((0.05, 0.1, 0.25)))
    grid = TimeGrid(dt=2 * math.pi / (length * d_omega), length=length)
    values = draw(arrays(float, length, elements=st.sampled_from((0.0, 1.0, 2.0, 3.0))))
    filt = Filter.gaussian(draw(st.floats(0.1, 2.0)))
    window = draw(st.one_of(st.none(), st.floats(0.1, 4.0)))
    cap = None if window is None else draw(st.one_of(
        st.none(), st.floats(1.0, 8.0).map(lambda f: f * window)))
    guess = draw(st.floats(0.01, 0.6 * length * d_omega))
    return grid, values, filt, GapSearchConfig(guess, initial_window=window,
                                               max_window=cap)


def _outcome(search, grid, values, filt, config):
    try:
        return search(grid, values, filt, config)
    except (GapSearchError, ParameterError) as exc:
        return type(exc), str(exc)


@given(peak_searches())
def test_find_gap_matches_per_index_scan(case):
    assert _outcome(find_gap, *case) == _outcome(find_gap_by_scan, *case)


@st.composite
def spectra(draw):
    """(grid, values, filter): a drawn even-length grid and finite values on it."""
    grid = TimeGrid(dt=draw(st.floats(1e-6, 10.0)), length=2 * draw(st.integers(1, 20)))
    return grid, draw(arrays(float, grid.length, elements=finite)), draw(filters)


@given(spectra())
def test_spectrum_csv_round_trip(case):
    grid, values, filt = case
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.csv"
        spectrum_to_csv(grid, values, filt, path)
        omegas, back, back_filt, meta = read_spectrum(path)
    assert np.array_equal(omegas, grid.omegas)
    assert np.array_equal(back, values)
    assert meta["d_omega"] == grid.d_omega
    assert back_filt == filt
    fold = grid.length // 2
    assert meta["omega_max_physical"] == fold * grid.d_omega == omegas[fold]


@given(st.dictionaries(finite, st.builds(Extrapolation, finite, finite,
                                         st.tuples(finite, finite)), max_size=10))
def test_phase_diagram_csv_round_trip(extrapolations):
    # one row per coupling, sorted by J/h, beside the exact reference 2|1 - J/h|
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diagram.csv"
        phase_diagram_to_csv(extrapolations, path, metadata={"m": 35})
        back, meta = read_phase_diagram(path)
    assert back == [(j, ex.intercept, *ex.confidence_band, 2 * abs(1 - j))
                    for j, ex in sorted(extrapolations.items())]
    assert meta["m"] == 35


@st.composite
def scaling_runs(draw):
    """(seed, couplings, orientation count, shots, search window) for a small
    `scaling` run; a narrow fixed window makes some searches and cells fail."""
    return (draw(st.integers(0, 2**32 - 1)),
            draw(st.lists(st.sampled_from([0.2, 0.4, 0.6]), min_size=1, max_size=2,
                          unique=True)),
            draw(st.integers(1, 12)),
            draw(st.sampled_from([None, 64, 1024])),
            draw(st.sampled_from([None, 0.1, 0.2])))


@settings(max_examples=12)
@given(scaling_runs())
@example((7, [0.2, 0.6], 8, None, 0.1))    # partial: failed orientations and cells
@example((7, [0.4], 3, 64, 0.1))           # no row reaches three sizes
def test_scaling_picks_the_scored_sweeps_best_record(case):
    # scaling runs only the search half of theta_sweep; its per-cell choice
    # must be the scored sweep's best_record at the same derived seed, failed
    # orientations and cells included
    seed, couplings, theta_count, shots, window = case
    sizes, m, filt = (2, 3, 4), 12, Filter.gaussian(0.3)
    argv = ["scaling", "--j-list", ",".join(map(str, couplings)),
            "--n-list", ",".join(map(str, sizes)), "--m", str(m),
            "--theta-count", str(theta_count), "--seed", str(seed),
            *(["--exact"] if shots is None else ["--shots", str(shots)]),
            *([] if window is None else ["--initial-window-over-h", str(window),
                                         "--max-window-over-h", str(window)])]
    want, full_rows = [], 0
    for j_index, coupling in enumerate(couplings):
        row = []
        for n in sizes:
            model = SpinModel(n, coupling, 1.0)
            records = theta_sweep(
                model, TrotterPlan(1, m), filt, default_grid(filt),
                [math.pi * l / 50 for l in range(theta_count)],
                GapSearchConfig(perturbative_gap_guess(model), window, window),
                shots=shots, seed=_derived_seed(seed, j_index, n))
            try:
                best = best_record(records)
            except GapSearchError:
                continue
            row.append({"j_over_h": coupling, "n": n, "gap": best.gap,
                        "theta_star": best.theta})
        want += row
        full_rows += len(row) >= 3
    with tempfile.TemporaryDirectory() as tmp:
        samples, diagram = Path(tmp) / "samples.json", Path(tmp) / "diagram.csv"
        with contextlib.redirect_stderr(io.StringIO()) as err:
            code = main(argv + ["--samples-out", str(samples), "--out", str(diagram)])
        if not full_rows:
            assert code == 2 and not samples.exists() and not diagram.exists()
            assert err.getvalue() == (
                f"gaplab: no coupling found a gap at 3 or more sizes ({len(want)} of "
                f"{len(sizes) * len(couplings)} cells found one); nothing written\n")
            return
        assert err.getvalue() == ""
        assert code == (0 if len(want) == len(sizes) * len(couplings)
                        and full_rows == len(couplings) else 3)
        assert json.loads(samples.read_text())["samples"] == want
