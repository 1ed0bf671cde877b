"""Gap extraction from spectra, error measures, and the input-orientation sweep.

The search starts from a guess Delta_0 (perturbative by default), looks for a
strict local maximum of A inside [Delta_0 - dD/2, Delta_0 + dD/2] with dD
starting at 2 eta, and widens the window by a factor 1.5 at a time up to
10 eta before giving up.  The estimate is the grid argmax: no sub-bin interpolation, so the
resolution floor is set by the line width, not the fit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ._textio import write_json
from .errors import DataError, GapSearchError, NumericError, ParameterError
from .model import (SpinModel, commutator_norm_bounds, exact_diagonalize,
                    perturbative_gap_guess)
from .simulator import InputOrientation, TimeGrid, run_time_series
from .spectral import Spectrum, exact_spectrum_oracle, spectral_function, transform
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


def gap_error(estimate, exact_gap: float) -> float:
    """Relative gap error |Delta - Delta_exact| / Delta_exact."""
    if exact_gap == 0:
        raise ParameterError("relative gap error is undefined at zero exact gap")
    gap = getattr(estimate, "gap", estimate)
    return abs(gap - exact_gap) / abs(exact_gap)


def spectral_error(sim: Spectrum, exact: Spectrum) -> float:
    """Root of the residual-to-variance ratio between two spectra on one grid."""
    if sim.values.shape != exact.values.shape or sim.d_omega != exact.d_omega:
        raise DataError("spectra live on different grids")
    mean = sim.values.mean()
    denom = np.sum((sim.values - mean) ** 2)
    if denom == 0:
        raise NumericError("simulated spectrum has zero variance")
    return float(np.sqrt(np.sum((sim.values - exact.values) ** 2) / denom))


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
    a_hat = a_exact + d_a
    denom = np.sum((a_hat - a_hat.mean()) ** 2)
    if denom == 0:
        raise NumericError("bound spectrum has zero variance")
    return float(np.sqrt(np.sum(d_a**2) / denom))


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
    eps_bound: float
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
    """A 32-bit seed drawn from the SeedSequence of the given integer keys."""
    return int(np.random.SeedSequence(keys).generate_state(1)[0])


def theta_sweep(model: SpinModel, plan: TrotterPlan, filt: Filter,
                grid: TimeGrid, thetas, shots: int | None = None,
                seed: int = 0,
                search: GapSearchConfig | None = None) -> SweepResult:
    """Gap pipeline over a set of uniform input orientations.

    Per theta: simulate the series, transform, search for the gap, and score
    it against the exact diagonalization; search failures are recorded and do
    not abort the sweep.  All orientations are simulated in one call, sharing
    each propagator; shot-mode runs draw from per-theta derived seeds.  The
    chain is simulated before it is diagonalized, so a chain above the
    simulation cap is refused before the eigensolver runs.
    """
    if search is None:
        search = GapSearchConfig(initial_guess=perturbative_gap_guess(model))
    eps_bound = spectral_error_bound(model, plan, filt, grid)
    circuit_depth = gate_count(plan.order, model.n_spins) * plan.depth

    thetas = list(thetas)
    orientations = [InputOrientation.uniform(model.n_spins, theta) for theta in thetas]
    seeds = [_derived_seed(seed, l) for l in range(len(thetas))] \
        if shots is not None else None
    all_series = run_time_series(model, plan, orientations, grid, shots=shots,
                                 seeds=seeds)
    eig = exact_diagonalize(model)
    exact_gap = float(eig.energies[1] - eig.energies[0])
    records = []
    for theta, orientation, series in zip(thetas, orientations, all_series):
        spec = spectral_function(series, filt)
        oracle = exact_spectrum_oracle(eig, orientation, filt, grid)
        base = dict(theta=float(theta), eta=filt.eta, filter=filt.family,
                    p=plan.order, M=plan.depth, D=circuit_depth, seed=series.seed)
        try:
            est = find_gap(spec, search)
        except GapSearchError as exc:
            records.append(SweepRecord(**base, gap=None, peak_height=None,
                                       eps_gap=None, eps_spect=None,
                                       eps_bound=eps_bound, failure=str(exc)))
            continue
        records.append(SweepRecord(
            **base, gap=est.gap, peak_height=est.peak_height,
            eps_gap=gap_error(est, exact_gap),
            eps_spect=spectral_error(spec, oracle),
            eps_bound=eps_bound))
    return SweepResult(records=records)


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
