"""Gap extraction from spectra, error measures, and the input-orientation sweep.

The search starts from the caller's guess Delta_0 (the command line passes the
perturbative one), looks for a strict local maximum of A inside
[Delta_0 - dD/2, Delta_0 + dD/2] with dD starting at 2 eta, and widens the
window by a factor 1.5 at a time up to 10 eta before giving up.  The estimate
is the grid argmax: no sub-bin interpolation, so the resolution floor is set by
the line width, not the fit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._textio import write_json
from .errors import (DataError, GapSearchError, NumericError, ParameterError,
                     is_count)
from .model import SpinModel, commutator_norm_bounds, exact_diagonalize
from .simulator import InputOrientation, TimeGrid, run_time_series
from .spectral import (Spectrum, exact_spectrum_oracle, local_maxima,
                       spectral_function, transform)
from .trotter import Filter, TrotterPlan, gate_count

#: Gap-error level marking the unfavored orientation zone.
UNFAVORED_EPS_GAP = 1e-2

#: Factor by which each unsuccessful search widens its window, up to the cap.
WIDEN_FACTOR = 1.5


@dataclass(frozen=True)
class GapSearchConfig:
    initial_guess: float
    initial_window: float | None = None    # default 2 eta
    max_window: float | None = None         # default 10 eta

    def __post_init__(self):
        given = [w for w in (self.initial_window, self.max_window) if w is not None]
        if not all(math.isfinite(x) and x > 0 for x in (self.initial_guess, *given)):
            raise ParameterError(
                f"gap guess and search windows must be positive and finite: {self}")
        if len(given) == 2 and self.max_window < self.initial_window:
            raise ParameterError(f"max_window is below initial_window: {self}")


@dataclass(frozen=True)
class GapEstimate:
    gap: float
    peak_height: float
    window_used: float


def _windows(config: GapSearchConfig, eta: float):
    w = config.initial_window if config.initial_window is not None else 2.0 * eta
    cap = config.max_window if config.max_window is not None else 10.0 * eta
    if w <= 0 or cap < w:
        raise ParameterError("search window must be positive and below its cap")
    out = [w]
    while out[-1] < cap * (1 - 1e-12):
        out.append(min(out[-1] * WIDEN_FACTOR, cap))
    return out


def find_gap(spectrum: Spectrum, config: GapSearchConfig) -> GapEstimate:
    """Windowed peak search with progressive widening.

    Raises GapSearchError when no strict local maximum appears inside the
    capped window; the caller restarts with a different guess.
    """
    om, av = spectrum.omegas, spectrum.values
    peaks = local_maxima(av)
    peaks = peaks[om[peaks] > 0]
    ceiling = spectrum.omega_max_physical
    for width in _windows(config, spectrum.filter.eta):
        lo = max(config.initial_guess - width / 2.0, 0.0)
        hi = config.initial_guess + width / 2.0
        if ceiling is not None:
            hi = min(hi, ceiling)
        inside = peaks[(om[peaks] >= lo) & (om[peaks] <= hi)]
        if len(inside):
            m = inside[np.argmax(av[inside])]   # the first of tied maxima
            return GapEstimate(gap=float(om[m]), peak_height=float(av[m]),
                               window_used=width)
    raise GapSearchError(
        f"no local maximum within +-{width / 2:.4g} of {config.initial_guess:.4g}")


def gap_error(estimate, exact_gap: float) -> float:
    """Relative gap error |Delta - Delta_exact| / Delta_exact."""
    if exact_gap == 0:
        raise ParameterError("relative gap error is undefined at zero exact gap")
    gap = getattr(estimate, "gap", estimate)
    return abs(gap - exact_gap) / abs(exact_gap)


def _error_ratio(residual: np.ndarray, values: np.ndarray) -> float:
    """sqrt(sum residual^2 / sum (values - mean)^2), refusing a flat spectrum."""
    denom = np.sum((values - values.mean()) ** 2)
    if denom == 0:
        raise NumericError("spectrum has zero variance")
    return float(np.sqrt(np.sum(residual**2) / denom))


def spectral_error(sim: Spectrum, exact: Spectrum) -> float:
    """Root of the residual-to-variance ratio between two spectra on one grid."""
    if sim.values.shape != exact.values.shape or sim.d_omega != exact.d_omega:
        raise DataError("spectra live on different grids")
    return _error_ratio(sim.values - exact.values, sim.values)


def spectral_error_bound(model: SpinModel, plan: TrotterPlan, filt: Filter,
                         grid: TimeGrid) -> float:
    """Worst-case counterpart of spectral_error from the propagator-error bound.

    Runs the series transform on the two bound kernels: 1 for the exact part
    and C |t|^{p+1} / M^p for the deviation, then forms the same ratio.
    """
    p = plan.order
    c = commutator_norm_bounds(model, p).prefactor
    dev = c * np.abs(grid.times) ** (p + 1) / plan.depth**p
    ones = np.ones(grid.length)
    a_exact = transform(grid, ones, ones, filt)
    d_a = transform(grid, dev, dev, filt)
    return _error_ratio(d_a, a_exact + d_a)


# --------------------------------------------------------------------------
# Orientation sweep.
# --------------------------------------------------------------------------


@dataclass
class SweepRecord:
    theta: float
    eta: float
    filter: str
    p: int
    M: int
    D: int
    gap: float | None
    peak_height: float | None
    eps_gap: float | None
    eps_spect: float | None
    eps_bound: float | None
    seed: int | None
    failure: str | None = None


@dataclass
class SweepResult:
    records: list

    def failed(self):
        return [r for r in self.records if r.failure is not None]

    def unfavored_thetas(self):
        return [r.theta for r in self.records
                if r.failure is None and r.eps_gap >= UNFAVORED_EPS_GAP]

    def best_record(self) -> SweepRecord:
        ok = [r for r in self.records if r.failure is None]
        if not ok:
            raise GapSearchError("every orientation in the sweep failed")
        return max(ok, key=lambda r: r.peak_height)


def _derived_seed(*keys: int) -> int:
    """A 32-bit seed drawn from the SeedSequence of the given non-negative keys."""
    if not all(is_count(k, 0) for k in keys):
        raise ParameterError(f"seeds must be integers >= 0, got {keys}")
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def search_sweep(model: SpinModel, plan: TrotterPlan, filt: Filter, grid: TimeGrid,
                 thetas, search: GapSearchConfig, shots: int | None, seed: int):
    """The search half of theta_sweep, and all that `scaling` runs: simulate every
    orientation in one call (shot mode draws from per-theta derived seeds),
    transform each series and search it for the gap.  Returns the sweep, its
    error measures left None, and its spectra."""
    thetas = [float(theta) for theta in thetas]
    seeds = [_derived_seed(seed, l) for l in range(len(thetas))] \
        if shots is not None else None
    all_series = run_time_series(
        model, plan, [InputOrientation.uniform(model.n_spins, t) for t in thetas],
        grid, shots=shots, seeds=seeds)
    records, spectra = [], []
    for theta, series in zip(thetas, all_series):
        spectra.append(spectral_function(series, filt))
        record = SweepRecord(
            theta=theta, eta=filt.eta, filter=filt.family, p=plan.order, M=plan.depth,
            D=gate_count(plan.order, model.n_spins) * plan.depth, seed=series.seed,
            gap=None, peak_height=None, eps_gap=None, eps_spect=None, eps_bound=None)
        try:
            est = find_gap(spectra[-1], search)
            record.gap, record.peak_height = est.gap, est.peak_height
        except GapSearchError as exc:
            record.failure = str(exc)
        records.append(record)
    return SweepResult(records=records), spectra


def theta_sweep(model: SpinModel, plan: TrotterPlan, filt: Filter,
                grid: TimeGrid, thetas, search: GapSearchConfig,
                shots: int | None = None, seed: int = 0) -> SweepResult:
    """Gap pipeline over uniform input orientations: search_sweep, then eps_bound
    for every record and eps_gap, eps_spect against the exact diagonalization for
    each gap found; `sweep-theta` records these scores, `scaling` skips them.
    Search failures do not abort the sweep.  The chain is simulated before it is
    diagonalized, so a chain above the simulation cap fails before the eigensolver."""
    eps_bound = spectral_error_bound(model, plan, filt, grid)
    result, spectra = search_sweep(model, plan, filt, grid, thetas, search, shots, seed)
    eig = exact_diagonalize(model)
    exact_gap = float(eig.energies[1] - eig.energies[0])
    for record, spec in zip(result.records, spectra):
        record.eps_bound = eps_bound
        if record.failure is None:
            orientation = InputOrientation.uniform(model.n_spins, record.theta)
            record.eps_gap = gap_error(record, exact_gap)
            record.eps_spect = spectral_error(
                spec, exact_spectrum_oracle(eig, orientation, filt, grid))
    return result


def sweep_to_json(result: SweepResult, path, metadata: dict):
    payload = {"config": metadata,
               "records": [asdict(r) for r in result.records]}
    ok = [r for r in result.records if r.failure is None]
    payload["summary"] = {
        "n_records": len(result.records),
        "n_failed": len(result.failed()),
        "unfavored_thetas": result.unfavored_thetas(),
        "theta_star": result.best_record().theta if ok else None,
    }
    write_json(path, payload)
