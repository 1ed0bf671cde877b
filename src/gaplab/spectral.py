"""Filtered discrete Fourier transform of the time series and exact references.

The spectral function on the frequency grid omega_m = m * d_omega is

    A(omega_m) = (dt / 2 pi) Re sum_{s=+-} sum_n e^{i omega_m t_sn} F_n P_sn,

with d_omega dt = 2 pi / L.  The n = 0 term is shared by both branches and
enters once (half weight per branch); with that convention the transform is
the full-line trapezoid rule and converges to the line-shape decomposition

    A(omega) = sum_{u,v} |c_u|^2 |c_v|^2 Ftilde(omega - (E_u - E_v)),

which exact_spectrum_oracle evaluates directly from the eigensystem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._textio import read_table, write_table
from .errors import DataError, NumericError, ParameterError, is_count
from .model import EigenDecomposition
from .simulator import InputOrientation, TimeGrid, TimeSeries, prepare_input
from .trotter import Filter, filter_value


@dataclass
class Spectrum:
    """Real spectral values on a frequency grid, with their filter.

    For DFT-produced spectra the grid covers a full period and the upper half
    mirrors negative frequencies; `omega_max_physical` marks the fold point
    so peak searches stay on the physical side.  Line-shape spectra built on
    arbitrary grids leave it None.
    """

    omegas: np.ndarray
    values: np.ndarray
    d_omega: float
    filter: Filter
    omega_max_physical: float | None = None

    def __post_init__(self):
        self.omegas = np.asarray(self.omegas, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.omegas.shape != self.values.shape:
            raise DataError("frequency grid and values differ in length")


#: Longest time grid; the longest any workload uses is L = 2800 (eta/h = 0.02).
MAX_GRID_LENGTH = 2**17


def grid_size(filt: Filter, d_omega: float | None = None,
              length: int | None = None) -> tuple[float, int]:
    """The default grid rule: d_omega = eta/4 and L = 2 ceil(7h/d_omega).

    An explicit d_omega (positive, finite) or L replaces its rule; L is even and
    at most MAX_GRID_LENGTH.  Without d_omega the filter must carry eta > 0.
    """
    if d_omega is None:
        if not filt.broadened:
            raise ParameterError("the default grid needs a filter with eta > 0")
        d_omega = filt.eta / 4.0
    if not 0 < d_omega < math.inf:
        raise ParameterError(f"d_omega must be positive and finite, got {d_omega}")
    if length is None:
        if 7.0 / d_omega > MAX_GRID_LENGTH // 2:
            raise ParameterError(f"d_omega = {d_omega} needs L > {MAX_GRID_LENGTH}")
        length = 2 * math.ceil(7.0 / d_omega)
    if not (is_count(length, 1) and length <= MAX_GRID_LENGTH and length % 2 == 0):
        raise ParameterError("L must be a positive even integer up to "
                             f"MAX_GRID_LENGTH = {MAX_GRID_LENGTH}, got {length}")
    return float(d_omega), int(length)


def default_grid(filt: Filter, d_omega: float | None = None,
                 length: int | None = None) -> TimeGrid:
    """Sampling grid of grid_size, with dt = 2 pi / (L d_omega)."""
    d_omega, length = grid_size(filt, d_omega, length)
    return TimeGrid(dt=2.0 * math.pi / (length * d_omega), length=length)


def transform(grid: TimeGrid, p_plus: np.ndarray, p_minus: np.ndarray,
              filt: Filter) -> np.ndarray:
    """The double-branch cosine transform with the shared n = 0 term counted once.

    On the grid omega_m t_n = 2 pi m n / L, so the cosine sum over n is the
    real part of a length-L discrete Fourier transform.
    """
    weights = filter_value(filt, grid.times) * (np.asarray(p_plus, dtype=float)
                                                + np.asarray(p_minus, dtype=float))
    weights[0] *= 0.5
    return np.fft.fft(weights).real * (grid.dt / (2.0 * math.pi))


def _on_grid(grid: TimeGrid, values: np.ndarray, filt: Filter) -> Spectrum:
    """Values on the DFT frequency grid omega_m = m d_omega, folded at L/2."""
    return Spectrum(omegas=np.arange(grid.length) * grid.d_omega, values=values,
                    d_omega=grid.d_omega, filter=filt,
                    omega_max_physical=grid.length // 2 * grid.d_omega)


def local_maxima(values) -> np.ndarray:
    """Indices of the strict interior local maxima, in increasing order."""
    v = np.asarray(values)
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1


def spectral_function(series: TimeSeries, filt: Filter) -> Spectrum:
    """Filtered spectrum of a measured (or exact) time series."""
    return _on_grid(series.grid,
                    transform(series.grid, series.p_plus, series.p_minus, filt), filt)


def filter_fourier(filt: Filter, omega):
    """Frequency-space line shape of the filter, unit area, FWHM = 2 eta."""
    if not filt.broadened:
        raise ParameterError("the unfiltered line shape is a delta; need eta > 0")
    w = np.asarray(omega, dtype=float)
    if filt.family == "lorentzian":
        out = filt.eta / (math.pi * (w**2 + filt.eta**2))
    else:
        s = filt.sigma
        out = np.exp(-w**2 / (2.0 * s**2)) / (math.sqrt(2.0 * math.pi) * s)
    return out if out.ndim else float(out)


def exact_spectrum_oracle(eig: EigenDecomposition, orientation: InputOrientation,
                          filt: Filter, grid: TimeGrid) -> Spectrum:
    """Line-shape spectrum from the eigensystem, on the DFT frequency grid.

    Sums |c_u|^2 |c_v|^2 Ftilde(omega - Delta_uv) over all ordered pairs,
    which carries both the positive- and negative-frequency image of every
    gap.  Grid points are taken at their signed (folded) frequency, and the
    line shapes are periodized over one grid period on each side: the
    discrete transform of a sampled series sees that aliased sum.
    """
    weights = np.abs(eig.overlaps(prepare_input(orientation))) ** 2
    gaps = np.subtract.outer(eig.energies, eig.energies).ravel()
    pair_w = np.outer(weights, weights).ravel()
    keep = pair_w > 1e-14 * pair_w.max()
    gaps, pair_w = gaps[keep], pair_w[keep]

    spectrum = _on_grid(grid, np.zeros(grid.length), filt)
    omegas, period = spectrum.omegas, grid.length * grid.d_omega
    signed = np.where(omegas <= spectrum.omega_max_physical, omegas, omegas - period)
    for k in (-1, 0, 1):
        shifted = signed[:, None] + k * period - gaps[None, :]
        spectrum.values += filter_fourier(filt, shifted) @ pair_w
    return spectrum


# --------------------------------------------------------------------------
# Serialization.
# --------------------------------------------------------------------------


def spectrum_to_csv(spectrum: Spectrum, path, metadata: dict | None = None,
                    extra_columns: dict | None = None):
    meta = dict(metadata or {})
    meta.update({"d_omega": spectrum.d_omega,
                 "filter": spectrum.filter.family, "eta": spectrum.filter.eta,
                 "omega_max_physical": spectrum.omega_max_physical})
    columns = ["m", "omega_m", "A_m"] + list(extra_columns or {})
    extras = [np.asarray(v, dtype=float) for v in (extra_columns or {}).values()]
    rows = ((m, spectrum.omegas[m], spectrum.values[m], *(e[m] for e in extras))
            for m in range(len(spectrum.omegas)))
    write_table(path, meta, columns, rows)


def read_spectrum(path):
    """Inverse of spectrum_to_csv; returns (Spectrum, metadata)."""
    meta, columns, rows = read_table(path)
    if columns[:3] != ["m", "omega_m", "A_m"]:
        raise DataError(f"unexpected columns {columns}")
    omegas = np.array([float(r[1]) for r in rows])
    values = np.array([float(r[2]) for r in rows])
    filt = Filter(meta.get("filter", "none"), float(meta.get("eta", 0.0)))
    if len(omegas) < 2:
        raise NumericError("spectrum file needs at least two rows")
    fold = meta.get("omega_max_physical")
    return Spectrum(omegas=omegas, values=values,
                    d_omega=float(meta["d_omega"]), filter=filt,
                    omega_max_physical=None if fold is None else float(fold)), meta
