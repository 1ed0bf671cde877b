"""Property tests: the batched propagation engine against the per-gate circuit
and the decoupled closed form, the time-reversal mirror the engine relies on,
the FFT transform against the cosine sum, the vectorized peak search against a
per-index scan, and file round trips.

Examples are drawn under the derandomized profile loaded in conftest, so a
run is repeatable.
"""

import math
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import example, given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from gaplab import (Filter, GapEstimate, GapSearchConfig, GapSearchError,
                    InputOrientation, ParameterError, SpinModel, TimeGrid,
                    TrotterPlan, filter_value, find_gap, run_time_series,
                    trotter_propagator)
from gaplab.gapfinder import _windows
from gaplab.scaling import PhaseDiagramRow, phase_diagram_to_csv, read_phase_diagram
from gaplab.spectral import Spectrum, read_spectrum, spectrum_to_csv, transform

from conftest import overlap_by_path

EPS = np.finfo(float).eps
finite = st.floats(allow_nan=False, allow_infinity=False)
unit = st.floats(0.0, 1.0)
filters = st.one_of(
    st.just(Filter.none()),
    st.builds(Filter.lorentzian, st.floats(0.0, 2.0)),
    st.builds(Filter.gaussian, st.floats(0.0, 2.0)))


@st.composite
def propagation_cases(draw):
    """(model, plan, orientations, t): a small chain and several input states."""
    n = draw(st.integers(2, 6))
    model = SpinModel(n, draw(st.one_of(st.just(0.0), st.floats(-1.5, 1.5))),
                      draw(st.floats(0.25, 2.0)))
    plan = TrotterPlan(draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 4)))
    angles = st.lists(st.floats(0.0, 2 * math.pi), min_size=n, max_size=n)
    orientations = [InputOrientation(tuple(a))
                    for a in draw(st.lists(angles, min_size=2, max_size=4))]
    return model, plan, orientations, draw(st.floats(0.05, 3.0))


@given(propagation_cases())
def test_batched_engine_matches_gate_circuit(case):
    # criterion 11's tolerance; at J = 0 the chain factorizes, and each spin
    # returns with probability cos^2(ht) + sin^2(ht) sin^2(theta_j).  The
    # engine mirrors the minus branch from the plus branch, so comparing it
    # with the circuit at -t checks the mirror against an independent path;
    # the identity behind it is test_propagator_is_conjugate_under_time_reversal.
    model, plan, orientations, t = case
    batch = run_time_series(model, plan, orientations, TimeGrid(dt=t, length=2))
    for orientation, series in zip(orientations, batch):
        for signed_t, got in ((t, series.p_plus[1]), (-t, series.p_minus[1])):
            gates = overlap_by_path(model, plan, orientation, signed_t, "gates")
            assert abs(got - gates) <= 1e-10
            if model.coupling == 0.0:
                ht = model.field * t
                closed = math.prod(math.cos(ht) ** 2 + math.sin(ht) ** 2
                                   * math.sin(a) ** 2 for a in orientation.angles)
                assert abs(got - closed) <= 1e-10


@st.composite
def propagator_cases(draw):
    """(model, plan, t): a small chain, a short product formula and a time."""
    coupling = draw(st.one_of(st.sampled_from((0.0, -1.3)), st.floats(-2.0, 2.0)))
    model = SpinModel(draw(st.integers(2, 6)), coupling, draw(st.floats(0.25, 2.0)))
    plan = TrotterPlan(draw(st.sampled_from((1, 2, 4))), draw(st.integers(1, 8)))
    return model, plan, draw(st.floats(0.0, 5.0))


# criterion 6: the last time of the L = 2800 grid at depth 10000
@given(propagator_cases())
@example((SpinModel(4, 0.4, 1.0), TrotterPlan(1, 10000),
          2799 * 2 * math.pi / (2800 * 0.005)))
def test_propagator_is_conjugate_under_time_reversal(case):
    # H1, H2 and every step are real-angle closed forms, so reversing time
    # conjugates U_M(t) exactly; the engine builds only the plus branch and
    # copies P(-t) = P(t) from it, which holds bit for bit for real inputs
    model, plan, t = case
    assert np.array_equal(trotter_propagator(model, plan, -t),
                          trotter_propagator(model, plan, t).conj())


def cosine_transform(grid, p_plus, p_minus, filt):
    """Reference: A_m = dt/2pi sum_n cos(omega_m t_n) w_n, term by term."""
    times = grid.times
    weights = filter_value(filt, times) * (p_plus + p_minus)
    weights[0] *= 0.5
    omegas = np.arange(grid.length) * grid.d_omega
    return np.cos(np.outer(omegas, times)) @ weights * (grid.dt / (2 * math.pi))


@st.composite
def sampled_series(draw, max_half=400):
    """(grid, p_plus, p_minus) on an even-length grid."""
    length = 2 * draw(st.integers(1, max_half))
    grid = TimeGrid(dt=draw(st.floats(0.01, 2.0)), length=length)
    return (grid, draw(arrays(float, length, elements=unit)),
            draw(arrays(float, length, elements=unit)))


def _criterion_6_grid():
    # eta = 0.02: L = 2800, the longest grid the acceptance tests use
    grid = TimeGrid(dt=2 * math.pi / (2800 * 0.005), length=2800)
    rng = np.random.default_rng(6)
    return grid, rng.uniform(0, 1, 2800), rng.uniform(0, 1, 2800)


@given(sampled_series(), filters)
@example(_criterion_6_grid(), Filter.lorentzian(0.02))
def test_fft_matches_cosine_sum(series, filt):
    grid, p_plus, p_minus = series
    got = transform(grid, p_plus, p_minus, filt)
    ref = cosine_transform(grid, p_plus, p_minus, filt)
    # the reference rounds each phase omega_m t_n (up to 2 pi L) to a few
    # ulps, so terms carry errors up to ~ 6 pi L eps |w_n|
    scale = grid.dt / (2 * math.pi) * np.sum(p_plus + p_minus)
    assert np.max(np.abs(got - ref)) <= 32 * grid.length * EPS * scale


def find_gap_by_scan(spectrum, config):
    """Reference: every window tests each grid index for a strict local maximum
    in [lo, hi] with omega > 0, and keeps the tallest, the first of ties."""
    om, av = spectrum.omegas, spectrum.values
    ceiling = spectrum.omega_max_physical
    for width in _windows(config, spectrum.filter.eta):
        lo = max(config.initial_guess - width / 2.0, 0.0)
        hi = config.initial_guess + width / 2.0
        if ceiling is not None:
            hi = min(hi, ceiling)
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
        f"no local maximum within +-{max(_windows(config, spectrum.filter.eta)) / 2:.4g} "
        f"of {config.initial_guess:.4g}")


@st.composite
def peak_searches(draw):
    """(spectrum, config): values from a small integer set, so ties and
    plateaus occur, on a DFT grid with or without its fold."""
    length = draw(st.integers(3, 40))
    d_omega = draw(st.sampled_from((0.05, 0.1, 0.25)))
    values = draw(arrays(float, length, elements=st.sampled_from((0.0, 1.0, 2.0, 3.0))))
    fold = draw(st.sampled_from((None, length // 2 * d_omega)))
    spectrum = Spectrum(omegas=np.arange(length) * d_omega, values=values,
                        d_omega=d_omega, filter=Filter.gaussian(draw(st.floats(0.1, 2.0))),
                        omega_max_physical=fold)
    window = draw(st.one_of(st.none(), st.floats(0.1, 4.0)))
    cap = None if window is None else draw(st.one_of(
        st.none(), st.floats(1.0, 8.0).map(lambda f: f * window)))
    guess = draw(st.floats(0.01, 0.6 * length * d_omega))
    return spectrum, GapSearchConfig(guess, initial_window=window, max_window=cap)


def _outcome(search, spectrum, config):
    try:
        return search(spectrum, config)
    except (GapSearchError, ParameterError) as exc:
        return type(exc), str(exc)


@given(peak_searches())
def test_find_gap_matches_per_index_scan(case):
    assert _outcome(find_gap, *case) == _outcome(find_gap_by_scan, *case)


@st.composite
def spectra(draw):
    length = draw(st.integers(2, 40))
    return Spectrum(omegas=draw(arrays(float, length, elements=finite)),
                    values=draw(arrays(float, length, elements=finite)),
                    d_omega=draw(st.floats(1e-6, 10.0)),
                    filter=draw(filters),
                    omega_max_physical=draw(st.one_of(st.none(), finite)))


@given(spectra())
def test_spectrum_csv_round_trip(spec):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "spec.csv"
        spectrum_to_csv(spec, path)
        back, _ = read_spectrum(path)
    assert np.array_equal(back.omegas, spec.omegas)
    assert np.array_equal(back.values, spec.values)
    assert back.d_omega == spec.d_omega
    assert back.filter == spec.filter
    assert back.omega_max_physical == spec.omega_max_physical


@given(st.lists(st.builds(PhaseDiagramRow, finite, finite, finite, finite, finite),
                max_size=10))
def test_phase_diagram_csv_round_trip(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "diagram.csv"
        phase_diagram_to_csv(rows, path, metadata={"m": 35})
        back, meta = read_phase_diagram(path)
    assert back == rows
    assert meta["m"] == 35
