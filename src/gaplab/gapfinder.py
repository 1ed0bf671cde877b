"""Gap extraction from spectra, error measures, and the input-orientation sweep.

The search starts from the caller's guess Delta_0 (the command line passes the
perturbative one), looks for a strict local maximum of A inside
[Delta_0 - dD/2, Delta_0 + dD/2] with dD starting at 2 eta, and widens the
window by a factor 1.5 at a time up to 10 eta before giving up.  The estimate
is the grid argmax, with no sub-bin interpolation: its resolution floor is
+-d_omega/2, half the frequency step, which only the default grid rule
(d_omega = eta/4) ties to the line width, as eta/8.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._textio import write_json
from .errors import (DataError, GapSearchError, NumericError, ParameterError,
                     is_count)
from .model import (EigenDecomposition, SpinModel, commutator_norm_bounds,
                    exact_diagonalize)
from .simulator import TimeGrid, run_time_series
from .spectral import exact_spectrum_oracle, local_maxima, transform
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


def find_gap(grid: TimeGrid, a: np.ndarray, filt: Filter,
             config: GapSearchConfig) -> GapEstimate:
    """Windowed peak search with progressive widening over the spectrum `a` at
    grid.omegas, on the physical side of the fold (indices up to L/2).

    Raises GapSearchError when no strict local maximum appears inside the
    capped window; the caller restarts with a different guess.
    """
    if np.shape(a) != (grid.length,):
        raise DataError(f"a spectrum on this grid has shape ({grid.length},), "
                        f"not {np.shape(a)}")
    om, peaks = grid.omegas, local_maxima(a)
    peaks = peaks[peaks <= grid.length // 2]
    for width in _windows(config, filt.eta):
        lo = max(config.initial_guess - width / 2.0, 0.0)
        hi = config.initial_guess + width / 2.0
        inside = peaks[(om[peaks] >= lo) & (om[peaks] <= hi)]
        if len(inside):
            m = inside[np.argmax(a[inside])]   # the first of tied maxima
            return GapEstimate(gap=float(om[m]), peak_height=float(a[m]),
                               window_used=width)
    raise GapSearchError(
        f"no local maximum within +-{width / 2:.4g} of {config.initial_guess:.4g}")


def gap_error(gap: float, exact_gap: float) -> float:
    """Relative gap error |Delta - Delta_exact| / Delta_exact."""
    if exact_gap == 0:
        raise ParameterError("relative gap error is undefined at zero exact gap")
    return abs(gap - exact_gap) / abs(exact_gap)


def _error_ratio(residual: np.ndarray, values: np.ndarray) -> float:
    """sqrt(sum residual^2 / sum (values - mean)^2), refusing a flat spectrum."""
    denom = np.sum((values - values.mean()) ** 2)
    if denom == 0:
        raise NumericError("spectrum has zero variance")
    return float(np.sqrt(np.sum(residual**2) / denom))


def spectral_error(sim: np.ndarray, exact: np.ndarray) -> float:
    """Root of the residual-to-variance ratio between two spectra on one grid."""
    if sim.shape != exact.shape:
        raise DataError("spectra live on different grids")
    return _error_ratio(sim - exact, sim)


def spectral_error_bound(model: SpinModel, plan: TrotterPlan, filt: Filter,
                         grid: TimeGrid) -> float:
    """Worst-case counterpart of spectral_error from the propagator-error bound.

    Runs the series transform on the two bound kernels: 1 for the exact part
    and C |t|^{p+1} / M^p for the deviation, then forms the same ratio.
    """
    p = plan.order
    c = commutator_norm_bounds(model, p).prefactor
    dev = c * np.abs(grid.times) ** (p + 1) / plan.depth**p
    a_exact = transform(grid, np.ones(grid.length), filt)
    d_a = transform(grid, dev, filt)
    return _error_ratio(d_a, a_exact + d_a)


def score(gaps, spectra, eig: EigenDecomposition, thetas, filt: Filter,
          grid: TimeGrid) -> list:
    """(eps_gap, eps_spect) of each gap found in its spectrum, one angle theta each:
    its error against the exact gap E1 - E0, and the spectrum's against the
    line-shape oracle, evaluated once for all angles."""
    exact_gap = float(eig.energies[1] - eig.energies[0])
    oracles = exact_spectrum_oracle(eig, thetas, filt, grid)
    return [(gap_error(gap, exact_gap), spectral_error(a, oracle))
            for gap, a, oracle in zip(gaps, spectra, oracles)]


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


def best_record(records) -> SweepRecord:
    """The sweep record with the tallest peak, the first of ties."""
    ok = [r for r in records if r.failure is None]
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
    orientation in one call (shot mode draws from per-theta derived seeds and records
    each, exact mode checks the seed itself and records None), transform the series
    in one call and search each spectrum for the gap.  Returns the sweep's records,
    their error measures left None, and the (K, L) array of spectra."""
    thetas = [float(theta) for theta in thetas]
    seeds = [_derived_seed(seed, l) for l in range(len(thetas))] \
        if shots is not None else [seed] * len(thetas)
    probs = run_time_series(model, plan, thetas, grid, shots=shots, seeds=seeds)
    spectra = transform(grid, probs, filt)
    records = []
    for theta, a, seed in zip(thetas, spectra, seeds):
        record = SweepRecord(
            theta=theta, eta=filt.eta, filter=filt.family, p=plan.order, M=plan.depth,
            D=gate_count(plan.order, model.n_spins) * plan.depth,
            seed=seed if shots is not None else None,
            gap=None, peak_height=None, eps_gap=None, eps_spect=None, eps_bound=None)
        try:
            est = find_gap(grid, a, filt, search)
            record.gap, record.peak_height = est.gap, est.peak_height
        except GapSearchError as exc:
            record.failure = str(exc)
        records.append(record)
    return records, spectra


def theta_sweep(model: SpinModel, plan: TrotterPlan, filt: Filter,
                grid: TimeGrid, thetas, search: GapSearchConfig,
                shots: int | None = None, seed: int = 0) -> list:
    """Gap pipeline over uniform input orientations: search_sweep, then eps_bound
    for every record and one `score` pass, against the exact diagonalization,
    over the gaps found; `sweep-theta` records these scores, `scaling` skips them.
    Search failures do not abort the sweep.  The chain is simulated before it is
    diagonalized, so a chain above the simulation cap fails before the eigensolver."""
    eps_bound = spectral_error_bound(model, plan, filt, grid)
    records, spectra = search_sweep(model, plan, filt, grid, thetas, search, shots, seed)
    eig = exact_diagonalize(model)
    found = [(r, spec) for r, spec in zip(records, spectra) if r.failure is None]
    scores = score([r.gap for r, _ in found], [spec for _, spec in found], eig,
                   [r.theta for r, _ in found], filt, grid)
    for (record, _), scored in zip(found, scores):
        record.eps_gap, record.eps_spect = scored
    for record in records:
        record.eps_bound = eps_bound
    return records


def sweep_to_json(records, path, metadata: dict):
    ok = [r for r in records if r.failure is None]
    summary = {"n_records": len(records), "n_failed": len(records) - len(ok),
               "unfavored_thetas": [r.theta for r in ok if r.eps_gap >= UNFAVORED_EPS_GAP],
               "theta_star": best_record(ok).theta if ok else None}
    write_json(path, {"config": metadata, "records": [asdict(r) for r in records],
                      "summary": summary})
