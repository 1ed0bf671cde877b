"""Transverse-field Ising chain: Hamiltonians, exact diagonalization, error bounds.

The chain has open boundaries and two non-commuting parts,

    H1 = -J sum_{j=0}^{N-2} Z_j Z_{j+1},      H2 = -h sum_{j=0}^{N-1} X_j,

with the field h as the unit of energy.  The Hamiltonians and the eigensystem
are dense and exact: the module is the ground-truth oracle for the rest of the
package.  The nested commutators of H1 and H2 enter only through closed-form
norm bounds; the tests build them explicitly to check those bounds.
"""
from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ResourceLimitError, is_count

#: Largest chain length for which dense 2^N x 2^N matrices are built.
MAX_DENSE_SPINS = 12

#: Weights of the two second-order propagator-error commutators.
SECOND_ORDER_CONSTANTS = {1: 0.083, 2: 0.167}

#: Weights of the eight fourth-order nested commutators, keyed (gamma, lam, mu)
#: for [H_gamma, [H_lam, [H_mu, [H1, H2]]]].
FOURTH_ORDER_CONSTANTS = {
    (1, 1, 1): 0.0094,
    (1, 1, 2): 0.0114,
    (1, 2, 1): 0.0092,
    (1, 2, 2): 0.0148,
    (2, 1, 1): 0.0194,
    (2, 1, 2): 0.0194,
    (2, 2, 1): 0.0346,
    (2, 2, 2): 0.0568,
}


@dataclass(frozen=True)
class SpinModel:
    """Parameters of the open transverse-field Ising chain."""

    n_spins: int
    coupling: float   # J, Ising bond strength
    field: float      # h > 0, transverse field and unit scale

    def __post_init__(self):
        if not is_count(self.n_spins, 2):
            raise ParameterError(f"need an integer >= 2 spins, got {self.n_spins}")
        if self.n_spins > sys.float_info.max:   # the bounds and the guess take float(N)
            raise ParameterError(f"{self.n_spins} spins are beyond the float range")
        if not math.isfinite(self.coupling):
            raise ParameterError(f"coupling must be finite, got {self.coupling}")
        if not (self.field > 0 and math.isfinite(self.field)):
            raise ParameterError(f"field must be positive and finite, got {self.field}")

    @property
    def dim(self) -> int:
        return 2 ** self.n_spins


@dataclass(frozen=True)
class EigenDecomposition:
    """Full spectrum of H = H1 + H2: ascending energies and eigenvector columns."""

    energies: np.ndarray
    states: np.ndarray


@functools.lru_cache(maxsize=None)
def basis_bits(n_spins: int) -> np.ndarray:
    """(2^N, N) site bits of every basis index, site 0 most significant (read-only)."""
    out = (np.arange(2 ** n_spins)[:, None] >> np.arange(n_spins - 1, -1, -1)) & 1
    out.flags.writeable = False
    return out


@functools.lru_cache(maxsize=None)
def mirror_classes(n_spins: int) -> np.ndarray:
    """(2, d_R) classes {r, rev r} under the site reversal j -> N-1-j (read-only): the
    representatives r <= rev r ascending, then rev r (r itself for a palindrome)."""
    idx = np.arange(2 ** n_spins)
    rev = basis_bits(n_spins) @ (1 << np.arange(n_spins))   # site j read as bit j
    out = np.stack((idx, rev))[:, idx <= rev]
    out.flags.writeable = False
    return out


def h1_diagonal(model: SpinModel) -> np.ndarray:
    """Diagonal of H1 = -J sum_b Z_b Z_{b+1}, which is diagonal in the z basis."""
    z = 1 - 2 * basis_bits(model.n_spins)
    return -model.coupling * np.sum(z[:, :-1] * z[:, 1:], axis=1).astype(float)


def build_hamiltonians(model: SpinModel) -> tuple[np.ndarray, np.ndarray]:
    """Dense (H1, H2) for the chain; each X_j flips one bit of the basis index."""
    if model.n_spins > MAX_DENSE_SPINS:
        raise ResourceLimitError(
            f"dense matrices limited to {MAX_DENSE_SPINS} spins, got {model.n_spins}")
    H1 = np.diag(h1_diagonal(model)).astype(complex)
    H2 = np.zeros((model.dim, model.dim), dtype=complex)
    idx = np.arange(model.dim)
    for j in range(model.n_spins):
        H2[idx, idx ^ (1 << j)] = -model.field
    return H1, H2


def exact_diagonalize(model: SpinModel) -> EigenDecomposition:
    """Full eigensystem of H = H1 + H2, energies ascending."""
    H1, H2 = build_hamiltonians(model)
    try:
        energies, states = np.linalg.eigh(H1 + H2)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return EigenDecomposition(energies=energies, states=states)


# --------------------------------------------------------------------------
# Norm bounds and propagator-error prefactors.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class BoundSet:
    """Normalized commutator-norm bounds and the dimensionful error prefactor.

    Bounds are for H1/|J| and H2/|h|.  `repeated_four_norm` covers both
    repeated inner pairs: the (2,2) pair saturates 16 h^2 times the base
    commutator bound and the (1,1) pair obeys the same 256(N-1) envelope
    (its exact string expansion sums to strictly less by triangle inequality).
    """

    comm_norm: float            # ||[~H1, ~H2]||            <= 4(N-1)
    nested_norm: float          # ||[~Hg, [~H1, ~H2]]||     <= 16(N-1)
    mixed_four_norm: float      # inner pair {1,2}          <= 128(N-2)
    repeated_four_norm: float   # inner pair (1,1) or (2,2) <= 256(N-1)
    prefactor: float            # C^(p), units field^(p+1)


def commutator_norm_bounds(model: SpinModel, order: int) -> BoundSet:
    """Norm bounds for the chain and the error prefactor C^(p) built from them."""
    if not is_count(order, 1) or order not in (1, 2, 4):
        raise ParameterError(f"order must be 1, 2 or 4, got {order!r}")
    n = model.n_spins
    J, h = abs(model.coupling), abs(model.field)
    comm = 4.0 * (n - 1)
    nested = 16.0 * (n - 1)
    mixed = 128.0 * max(n - 2, 0)
    repeated = 256.0 * (n - 1)

    if order == 1:
        pref = comm * J * h
    elif order == 2:
        consts = SECOND_ORDER_CONSTANTS
        pref = nested * J * h * (consts[1] * J + consts[2] * h)
    else:
        pref = 0.0
        for (g, lam, mu), cc in FOURTH_ORDER_CONSTANTS.items():
            n_j = 1 + [g, lam, mu].count(1)
            n_h = 1 + [g, lam, mu].count(2)
            norm_bound = mixed if lam != mu else repeated
            pref += cc * J**n_j * h**n_h * norm_bound
    return BoundSet(comm_norm=comm, nested_norm=nested, mixed_four_norm=mixed,
                    repeated_four_norm=repeated, prefactor=pref)


# --------------------------------------------------------------------------
# Reference gap formulas.
# --------------------------------------------------------------------------


def perturbative_gap_guess(model: SpinModel) -> float:
    """First-order guess for the lowest paramagnetic gap.

    A single spin flip costs 2h - 2|J| in the bulk and 2h - |J| on the two edge
    sites; averaging over sites gives 2h [1 - (1 - 1/N) |J|/h].  H(J) and H(-J)
    are unitarily equivalent (X on every other site), so only |J| enters.
    """
    J, h = abs(model.coupling), model.field
    return 2.0 * h * (1.0 - (1.0 - 1.0 / model.n_spins) * J / h)


def exact_gap_thermodynamic(coupling: float, field: float) -> float:
    """Band gap at k = 0 in the thermodynamic limit: 2|h - |J||."""
    return 2.0 * abs(field - abs(coupling))
