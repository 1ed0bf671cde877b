"""Transverse-field Ising chain: Hamiltonians, exact diagonalization, commutator algebra.

The chain has open boundaries and two non-commuting parts,

    H1 = -J sum_{j=0}^{N-2} Z_j Z_{j+1},      H2 = -h sum_{j=0}^{N-1} X_j,

with the field h as the unit of energy.  Everything here is dense and exact:
the module is the ground-truth oracle for the rest of the package.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ParameterError, ResourceLimitError

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

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
        if not isinstance(self.n_spins, numbers.Integral) or self.n_spins < 2:
            raise ParameterError(f"need an integer >= 2 spins, got {self.n_spins}")
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

    def overlaps(self, state: np.ndarray) -> np.ndarray:
        """Coefficients c_u = <u|state> of a vector in the eigenbasis."""
        return self.states.conj().T @ np.asarray(state, dtype=complex)


def pauli_string(n_spins: int, sites, labels) -> np.ndarray:
    """Dense operator with the given Pauli labels on `sites`, identity elsewhere.

    Site 0 is the leftmost tensor factor (most significant qubit).
    """
    ops = ["I"] * n_spins
    for s, lab in zip(sites, labels):
        ops[s] = lab
    out = np.array([[1.0 + 0j]])
    for lab in ops:
        out = np.kron(out, PAULI[lab])
    return out


def _check_dense(n_spins: int, max_spins: int):
    if n_spins > max_spins:
        raise ResourceLimitError(
            f"dense matrices limited to {max_spins} spins, got {n_spins}")


@functools.lru_cache(maxsize=None)
def ising_bond_parity(n_spins: int) -> np.ndarray:
    """Diagonal of sum_b Z_b Z_{b+1} over computational basis states (read-only)."""
    idx = np.arange(2 ** n_spins)
    z = 1 - 2 * ((idx[None, :] >> (n_spins - 1 - np.arange(n_spins)[:, None])) & 1)
    out = np.sum(z[:-1] * z[1:], axis=0).astype(float)
    out.flags.writeable = False
    return out


def h1_diagonal(model: SpinModel) -> np.ndarray:
    """Diagonal of H1 (H1 is diagonal in the z basis)."""
    return -model.coupling * ising_bond_parity(model.n_spins)


def build_hamiltonians(model: SpinModel,
                       max_spins: int = MAX_DENSE_SPINS) -> tuple[np.ndarray, np.ndarray]:
    """Dense (H1, H2) for the chain."""
    _check_dense(model.n_spins, max_spins)
    n = model.n_spins
    H1 = np.diag(h1_diagonal(model)).astype(complex)
    H2 = np.zeros((model.dim, model.dim), dtype=complex)
    for j in range(n):
        H2 -= model.field * pauli_string(n, (j,), "X")
    return H1, H2


def exact_diagonalize(model: SpinModel,
                      max_spins: int = MAX_DENSE_SPINS) -> EigenDecomposition:
    """Full eigensystem of H = H1 + H2, energies ascending."""
    _check_dense(model.n_spins, max_spins)
    H1, H2 = build_hamiltonians(model, max_spins)
    try:
        energies, states = np.linalg.eigh(H1 + H2)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"eigensolver failed: {exc}") from exc
    return EigenDecomposition(energies=energies, states=states)


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value, via the Hermitian eigensolver on A^dag A."""
    w = np.linalg.eigvalsh(a.conj().T @ a)
    return float(np.sqrt(max(w[-1], 0.0)))


# --------------------------------------------------------------------------
# Nested commutators of H1 and H2.
#
# Keys identify [H_{k1}, [H_{k2}, ..., [H1, H2]...]] by the prefix (k1, k2, ...):
# () is [H1, H2] itself, (1,) is [H1, [H1, H2]], (2, 1, 2) is
# [H2, [H1, [H2, [H1, H2]]]], and so on.
# --------------------------------------------------------------------------

COMMUTATOR_KEYS = (
    (),
    (1,), (2,),
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2),
)


@dataclass(frozen=True)
class CommutatorSet:
    """Nested commutators built two independent ways.

    `direct` holds matrix commutators of the dense H1, H2; `pauli_form` holds
    the same operators assembled from their closed Pauli-string expansions.
    """

    direct: dict
    pauli_form: dict

    def relative_mismatch(self) -> dict:
        out = {}
        for key in COMMUTATOR_KEYS:
            a, b = self.direct[key], self.pauli_form[key]
            scale = max(spectral_norm(a), spectral_norm(b))
            out[key] = 0.0 if scale == 0 else spectral_norm(a - b) / scale
        return out


def matrix_commutators(model: SpinModel, max_spins: int = 10) -> dict:
    """Construction (a): repeated dense matrix commutation."""
    _check_dense(model.n_spins, max_spins)
    H1, H2 = build_hamiltonians(model, max_spins)
    H = {1: H1, 2: H2}

    def comm(a, b):
        return a @ b - b @ a

    base = comm(H1, H2)
    out = {(): base, (1,): comm(H1, base), (2,): comm(H2, base)}
    inner = {mu: comm(H[mu], base) for mu in (1, 2)}
    middle = {(lam, mu): comm(H[lam], inner[mu]) for lam in (1, 2) for mu in (1, 2)}
    for g in (1, 2):
        for (lam, mu), t in middle.items():
            out[(g, lam, mu)] = comm(H[g], t)
    return out


def pauli_form_commutators(model: SpinModel, max_spins: int = 10) -> dict:
    """Construction (b): closed Pauli-string expansions for the open chain.

    Bulk coefficients follow from successive application of the Pauli algebra
    [s^a, s^b] = 2i eps_abc s^c; edge sites sit on a single bond and carry
    reduced weights.  The string content per operator:

        ()        2iJh     * sum_b (Y_b Z_{b+1} + Z_b Y_{b+1})
        (1,)      -4J^2h   * [sum_j w_j X_j + 2 sum_m (ZXZ)_m],  w = 1|2 edge|bulk
        (2,)      -8Jh^2   * sum_b (Y_b Y_{b+1} - Z_b Z_{b+1})
        mixed 4th -32J^3h^2 * [sum_b v_b (YY)_b - 2 sum_k (ZXXZ)_k], v = 1|2
        (g,1,2) etc. and the repeated pairs as assembled below; the inner pair
        (2,2) obeys the exact operator identity [H2,[H2,[H1,H2]]] = 16h^2 [H1,H2].
    """
    _check_dense(model.n_spins, max_spins)
    n, J, h = model.n_spins, model.coupling, model.field
    dim = model.dim

    def strings(coeff, terms):
        out = np.zeros((dim, dim), dtype=complex)
        for weight, sites, labels in terms:
            out += weight * pauli_string(n, sites, labels)
        return coeff * out

    bonds = range(n - 1)
    trips = range(n - 2)
    quads = range(n - 3)
    w = lambda j: 1.0 if j in (0, n - 1) else 2.0       # bonds touching site j
    a = lambda b: 1.0 if b == 0 else 4.0                # left-edge bond weight
    c = lambda b: 1.0 if b == n - 2 else 4.0            # right-edge bond weight
    v = lambda b: 2.0 - (b == 0) - (b == n - 2)
    u = lambda j: 1.0 if j in (0, n - 1) else 8.0

    c12 = strings(2j * J * h,
                  [(1.0, (b, b + 1), "YZ") for b in bonds]
                  + [(1.0, (b, b + 1), "ZY") for b in bonds])
    c112 = strings(-4 * J**2 * h,
                   [(w(j), (j,), "X") for j in range(n)]
                   + [(2.0, (m, m + 1, m + 2), "ZXZ") for m in trips])
    c212 = strings(-8 * J * h**2,
                   [(1.0, (b, b + 1), "YY") for b in bonds]
                   + [(-1.0, (b, b + 1), "ZZ") for b in bonds])

    mixed = strings(-32 * J**3 * h**2,
                    [(v(b), (b, b + 1), "YY") for b in bonds]
                    + [(-2.0, (k, k + 1, k + 2, k + 3), "ZXXZ") for k in quads])
    mixed_h = strings(64 * J**2 * h**3,
                      [(1.0, (m, m + 1, m + 2), "YXY") for m in trips]
                      + [(-1.0, (m, m + 1, m + 2), "ZXZ") for m in trips])
    q111 = strings(-16 * J**4 * h,
                   [(u(j), (j,), "X") for j in range(n)]
                   + [(8.0, (k, k + 1, k + 2), "ZXZ") for k in trips])
    q211 = strings(-16 * J**3 * h**2,
                   [(a(b) + c(b), (b, b + 1), "YY") for b in bonds]
                   + [(-(a(b) + c(b)), (b, b + 1), "ZZ") for b in bonds])

    out = {(): c12, (1,): c112, (2,): c212}
    # Jacobi: [H1,[H2,[H1,H2]]] = [H2,[H1,[H1,H2]]], so both (g,1,2) and
    # (g,2,1) share one closed form per outer index g.
    out[(1, 1, 2)] = out[(1, 2, 1)] = mixed
    out[(2, 1, 2)] = out[(2, 2, 1)] = mixed_h
    out[(1, 1, 1)] = q111
    out[(2, 1, 1)] = q211
    out[(1, 2, 2)] = 16 * h**2 * c112
    out[(2, 2, 2)] = 16 * h**2 * c212
    return out


def explicit_commutators(model: SpinModel, max_spins: int = 10,
                         tol: float = 1e-10) -> CommutatorSet:
    """Both constructions of the nested commutators, checked against each other."""
    cs = CommutatorSet(direct=matrix_commutators(model, max_spins),
                       pauli_form=pauli_form_commutators(model, max_spins))
    worst = max(cs.relative_mismatch().values())
    if worst > tol:
        raise NumericError(
            f"commutator constructions disagree: relative norm {worst:.3e}")
    return cs


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

    order: int
    comm_norm: float            # ||[~H1, ~H2]||            <= 4(N-1)
    nested_norm: float          # ||[~Hg, [~H1, ~H2]]||     <= 16(N-1)
    mixed_four_norm: float      # inner pair {1,2}          <= 128(N-2)
    repeated_four_norm: float   # inner pair (1,1) or (2,2) <= 256(N-1)
    prefactor: float            # C^(p), units field^(p+1)
    constants: dict


def commutator_norm_bounds(model: SpinModel, order: int) -> BoundSet:
    """Norm bounds for the chain and the error prefactor C^(p) built from them."""
    if order not in (1, 2, 4):
        raise ParameterError(f"order must be 1, 2 or 4, got {order}")
    n = model.n_spins
    J, h = abs(model.coupling), abs(model.field)
    comm = 4.0 * (n - 1)
    nested = 16.0 * (n - 1)
    mixed = 128.0 * max(n - 2, 0)
    repeated = 256.0 * (n - 1)

    if order == 1:
        pref = comm * J * h
        consts: dict = {}
    elif order == 2:
        consts = dict(SECOND_ORDER_CONSTANTS)
        pref = nested * J * h * (consts[1] * J + consts[2] * h)
    else:
        consts = dict(FOURTH_ORDER_CONSTANTS)
        pref = 0.0
        for (g, lam, mu), cc in consts.items():
            n_j = 1 + [g, lam, mu].count(1)
            n_h = 1 + [g, lam, mu].count(2)
            norm_bound = mixed if lam != mu else repeated
            pref += cc * J**n_j * h**n_h * norm_bound
    return BoundSet(order=order, comm_norm=comm, nested_norm=nested,
                    mixed_four_norm=mixed, repeated_four_norm=repeated,
                    prefactor=pref, constants=consts)


# --------------------------------------------------------------------------
# Reference gap formulas.
# --------------------------------------------------------------------------


def perturbative_gap_guess(model: SpinModel, infinite_chain: bool = False) -> float:
    """First-order guess for the lowest paramagnetic gap.

    A single spin flip costs 2h - 2J in the bulk and 2h - J on the two edge
    sites; averaging over sites gives 2h [1 - (1 - 1/N) J/h].  With
    `infinite_chain` the boundary correction drops and the guess is 2(h - J).
    """
    J, h = model.coupling, model.field
    if infinite_chain:
        return 2.0 * (h - J)
    return 2.0 * h * (1.0 - (1.0 - 1.0 / model.n_spins) * J / h)


def dispersion(k, coupling: float, field: float):
    """Upper and lower quasiparticle bands E_k^+- for the periodic chain (a = 1)."""
    e = np.sqrt(coupling**2 + field**2 - 2.0 * coupling * field * np.cos(k))
    return e, -e


def exact_gap_thermodynamic(coupling: float, field: float) -> float:
    """Band gap at k = 0 in the thermodynamic limit: 2|h - J|."""
    return 2.0 * abs(field - coupling)
