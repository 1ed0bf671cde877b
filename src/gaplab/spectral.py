"""Filtered discrete Fourier transform of the time series and exact references.

The spectral function of a series P_n = P(t_n), one row of the (K, L) array
run_time_series returns, on the grid omega_m = m * d_omega (TimeGrid.omegas) is

    A(omega_m) = (dt / 2 pi) Re sum_{s=+-} sum_n e^{i omega_m t_sn} F_n P_sn,

with d_omega dt = 2 pi / L.  As P(-t) = P(t) (see simulator), the sum over s is
a cosine sum with weights 2 F_n P_n, its n = 0 term (t = 0 on both sides)
counted once; so the transform is the full-line trapezoid rule and converges
to the line-shape decomposition

    A(omega) = sum_{u,v} |c_u|^2 |c_v|^2 Ftilde(omega - (E_u - E_v)),

which exact_spectrum_oracle evaluates directly from the eigensystem.  A spectrum
is the float (L,) array of A_m; indices m > L/2 mirror negative frequencies.
"""

from __future__ import annotations

import math

import numpy as np

from . import simulator
from ._textio import write_table
from .errors import DataError, ParameterError, is_count
from .model import EigenDecomposition
from .simulator import TimeGrid, prepare_input
from .trotter import Filter, filter_value

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


def transform(grid: TimeGrid, p: np.ndarray, filt: Filter) -> np.ndarray:
    """The spectrum A_m at grid.omegas of a series P(t) = P(-t), (L,), or of each
    row of run_time_series's (K, L) array: the cosine transform over both time
    directions, weights 2 F_n P_n with the shared n = 0 term counted once.

    On the grid omega_m t_n = 2 pi m n / L, so the cosine sum over n is the
    real part of a length-L discrete Fourier transform.  2 p is p + p exactly.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim not in (1, 2) or p.shape[-1] != grid.length:
        raise DataError(f"a series has shape (L,) or (K, L) with L = {grid.length}, "
                        f"not {p.shape}")
    weights = filter_value(filt, grid.times) * (2.0 * p)
    weights[..., 0] *= 0.5
    return np.fft.fft(weights).real * (grid.dt / (2.0 * math.pi))


def local_maxima(values) -> np.ndarray:
    """Indices of the strict interior local maxima, in increasing order."""
    v = np.asarray(values)
    return np.flatnonzero((v[1:-1] > v[:-2]) & (v[1:-1] > v[2:])) + 1


def filter_fourier(filt: Filter, omega):
    """Frequency-space line shape of the filter, unit area, FWHM = 2 eta."""
    if not filt.broadened:
        raise ParameterError("the unfiltered line shape is a delta; need eta > 0")
    w = np.asarray(omega, dtype=float)
    with np.errstate(over="ignore"):   # a square past the float range reads as 0
        if filt.family == "lorentzian":
            out = filt.eta / (math.pi * (w**2 + filt.eta**2))
        else:
            s = filt.sigma
            out = np.exp(-w**2 / (2.0 * s**2)) / (math.sqrt(2.0 * math.pi) * s)
    return out if out.ndim else float(out)


def exact_spectrum_oracle(eig: EigenDecomposition, thetas, filt: Filter,
                          grid: TimeGrid) -> np.ndarray:
    """Line-shape spectra from the eigensystem at grid.omegas, one row per angle.

    Sums |c_u|^2 |c_v|^2 Ftilde(omega - Delta_uv) over all ordered pairs,
    which carries both the positive- and negative-frequency image of every
    gap.  Grid points are taken at their signed frequency, folded above index
    L/2, and the line shapes are periodized as the discrete transform of a
    sampled series sees them, over the images k = -1, 0, 1 of the grid period
    T = L d_omega only: the dropped |k| >= 2 tail falls as eta / (pi k^2 T^2).
    Every row reads the union of the pairs above 1e-14 of some row's largest
    pair weight, P of them, in blocks of rows whose line shapes fill about
    simulator._CHUNK_BYTES, one image at a time: beyond the (K, L) result,
    memory is one block and O(L).
    """
    dim = eig.energies.size
    overlaps = eig.states.conj().T @ prepare_input(dim.bit_length() - 1, thetas)
    weights = (np.abs(overlaps) ** 2).T[:, :, None]      # (K, dim, 1): |c_u|^2 per row
    pair_w = (weights * weights.transpose(0, 2, 1)).reshape(-1, dim**2)
    union = (pair_w > 1e-14 * pair_w.max(axis=1, keepdims=True)).any(axis=0)
    gaps = np.subtract.outer(eig.energies, eig.energies).ravel()[union]
    pair_w = pair_w[:, union]

    omegas, period = grid.omegas, grid.length * grid.d_omega
    signed = np.where(np.arange(grid.length) <= grid.length // 2, omegas, omegas - period)
    rows = max(1, simulator._CHUNK_BYTES // (8 * max(gaps.size, 1)))
    values = np.zeros((len(pair_w), grid.length))
    for start in range(0, grid.length, rows):
        block = slice(start, start + rows)
        for k in (-1, 0, 1):
            shapes = filter_fourier(filt, signed[block, None] + k * period - gaps[None, :])
            values[:, block] += pair_w @ shapes.T
    return values


def spectrum_to_csv(grid: TimeGrid, values: np.ndarray, filt: Filter, path,
                    metadata: dict | None = None, extra_columns: dict | None = None):
    """Rows m, omega_m, A_m and the extra columns, each an (L,) array, else DataError."""
    names = ["A_m", *(extra_columns or {})]
    arrays = [np.asarray(v, dtype=float) for v in (values, *(extra_columns or {}).values())]
    for name, column in zip(names, arrays):
        if column.shape != (grid.length,):
            raise DataError(f"column {name} has shape {column.shape}, not ({grid.length},)")
    meta = dict(metadata or {})
    meta.update({"d_omega": grid.d_omega, "filter": filt.family, "eta": filt.eta,
                 "omega_max_physical": grid.length // 2 * grid.d_omega})
    write_table(path, meta, ["m", "omega_m", *names],
                zip(range(grid.length), grid.omegas, *arrays))
