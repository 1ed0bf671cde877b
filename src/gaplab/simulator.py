"""Statevector execution of the gap-estimation circuit.

A run prepares the product state |psi> = Ry(theta)^(x)N |0>, evolves it by
the depth-M product formula, rotates back, and records the probability of the
all-zeros outcome,

    P(t) = |<psi| U_M(t) |psi>|^2,

on a uniform time grid.  Real inputs and real-angle steps give U_M(-t) =
conj U_M(t), so P(-t) = P(t) bit for bit and one row of P serves both time
directions.  Finite measurement statistics replace each P by a binomial
draw over the single all-zeros event: `shots` per direction, pooled into one
Bin(2 shots, P) draw, the law of the two directions' draws summed.

One engine, `run_time_series`, produces every series: it powers the mirror-even
block of U_M(t) (`trotter`; every uniform input is even under j -> N-1-j) once per
positive time, applies each chunk of them to all K inputs in one contraction and
returns the float (K, L) array of P.  The gate list (`gate_sequence`,
`apply_gates`) describes the circuit a device would run; only the tests execute
it, as an independent oracle for the propagator.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ResourceLimitError, is_count
from .model import SpinModel, basis_bits, mirror_classes
from .trotter import ITERATION_LAYERS, TrotterPlan, trotter_propagator

#: Largest chain the engine simulates: each positive time (P(-t) = P(t) needs no
#: second one) powers a d_R x d_R mirror block, about 2 ms at N = 8 but 0.11 s at N = 10
#: (p = 2, M = 35, one BLAS thread, 2-core x86_64 VM), nearly all of it matrix products.
MAX_SIMULATED_SPINS = 8

#: Bytes of mirror blocks per contraction (40 times at N = 4, 10 at N = 5, 3 at N = 6, one
#: from N = 7 up) and of line shapes per oracle block; 4 MB ran no faster, with more RSS.
_CHUNK_BYTES = 2**16


def _check_simulated(n_spins: int):
    if n_spins > MAX_SIMULATED_SPINS:
        raise ResourceLimitError(
            f"simulation limited to MAX_SIMULATED_SPINS = {MAX_SIMULATED_SPINS} "
            f"spins, got {n_spins}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n dt, n in [0, L); L even so the frequency grid pairs up."""

    dt: float
    length: int

    def __post_init__(self):
        if not is_count(self.length, 2) or self.length % 2:
            raise ParameterError(f"length must be even and >= 2, got {self.length}")
        if not (self.dt > 0 and math.isfinite(self.dt * self.length)):
            raise ParameterError(f"dt must be positive, L dt finite, got dt = {self.dt}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.length) * self.dt

    @property
    def d_omega(self) -> float:
        """Conjugate frequency step: d_omega * dt = 2 pi / L."""
        return 2.0 * math.pi / (self.length * self.dt)

    @property
    def omegas(self) -> np.ndarray:
        """DFT frequencies omega_m = m d_omega; m > L/2 stands for (m - L) d_omega."""
        return np.arange(self.length) * self.d_omega


def prepare_input(n_spins: int, thetas) -> np.ndarray:
    """The C-contiguous (2^N, K) columns Ry(theta_k)^(x)N |0>: one gather of the pairs
    (cos, sin)(theta_k/2) through basis_bits, multiplied over the sites in np.kron's
    order.  Angles are taken mod 2 pi; non-finite or non-1-D ones are refused."""
    thetas = np.asarray(thetas, dtype=float)
    if thetas.ndim != 1 or not np.all(np.isfinite(thetas)):
        raise ParameterError(f"need a 1-D sequence of finite angles, got {thetas}")
    half = [a % (2.0 * math.pi) / 2 for a in thetas.tolist()]
    pairs = np.array([list(map(math.cos, half)), list(map(math.sin, half))], dtype=complex)
    return np.multiply.reduce(pairs[basis_bits(n_spins)], axis=1)


# --------------------------------------------------------------------------
# Gate-level circuit description.
# --------------------------------------------------------------------------


#: rzz(a) = exp(-i a/2 Z Z) on a bond, rx(a) = exp(-i a/2 X) on a site.
Gate = namedtuple("Gate", "kind sites angle")


def gate_sequence(model: SpinModel, plan: TrotterPlan, t: float) -> list:
    """Full gate list realizing U_M(t), whose mirror block trotter_propagator returns.

    Angles are chi_n/M = -2 J t / M per bond and phi_n/M = -2 h t / M per
    site, scaled by the fractions of `trotter.ITERATION_LAYERS`; gates apply
    in list order.
    """
    n = model.n_spins
    chi = -2.0 * model.coupling * t / plan.depth
    phi = -2.0 * model.field * t / plan.depth
    gates = []
    for _ in range(plan.depth):
        for kind, frac in ITERATION_LAYERS[plan.order]:
            if kind == "zz":
                gates.extend(Gate("rzz", (b, b + 1), frac * chi) for b in range(n - 1))
            else:
                gates.extend(Gate("rx", (j,), frac * phi) for j in range(n))
    return gates


def apply_gates(state: np.ndarray, gates, n_spins: int) -> np.ndarray:
    """Apply a gate list to a (2^N,) state or to each column of a (2^N, K) block
    (site 0 = most significant qubit); the result has the input's shape."""
    state = np.array(state, dtype=complex)
    st = state.reshape((2,) * n_spins + (-1,))
    for g in gates:
        if g.kind == "rx":
            c, s = math.cos(g.angle / 2), -1j * math.sin(g.angle / 2)
            j = g.sites[0]
            st = np.moveaxis(np.tensordot([[c, s], [s, c]], st, axes=(1, j)), 0, j)
        elif g.kind == "rzz":
            phase = np.exp(-0.5j * g.angle * np.array([[1, -1], [-1, 1]]))
            st = st * np.expand_dims(phase, [a for a in range(st.ndim) if a not in g.sites])
        else:
            raise ParameterError(f"unknown gate kind {g.kind!r}")
    return st.reshape(state.shape)


# --------------------------------------------------------------------------
# Return probabilities.
# --------------------------------------------------------------------------


def run_time_series(model: SpinModel, plan: TrotterPlan, thetas,
                    grid: TimeGrid, shots: int | None = None,
                    seeds=None) -> np.ndarray:
    """The float (K, L) array of P on the grid, one row per angle theta_k, exact or
    sampled: P(0) = 1 exactly in exact mode and every value in [0, 1].

    Each input maps once to its mirror coordinates x_i = sqrt(s_i) psi[r_i] (bra
    conj(x)); each of the L - 1 positive times builds one block of U_M(t), each
    chunk of them (_CHUNK_BYTES) is stacked and applied to all K inputs in one
    contraction, and the amplitudes are squared and clipped once at the end, so
    memory is O(chunk d_R^2 + 2^N K + K L).  Shot mode draws, per orientation,
    default_rng(seed).binomial(2 shots, p) / (2 shots) over its whole series:
    `shots` per time direction (below 2^62, so the pooled count fits int64).  A
    series depends on its own seed alone; `seeds` holds one seed >= 0 per
    orientation (default 0 for each).
    """
    _check_simulated(model.n_spins)
    r, partner = mirror_classes(model.n_spins)
    x = prepare_input(model.n_spins, thetas)[r] * np.sqrt(1.0 + (r != partner))[:, None]
    k = x.shape[1]
    if not k:
        raise ParameterError("need at least one input orientation")
    if shots is not None and not (is_count(shots, 1) and 2 * shots < 2**63):
        raise ParameterError(f"shots must be an integer in [1, 2^62), got {shots!r}")
    seeds = [0] * k if seeds is None else list(seeds)
    if len(seeds) != k or not all(is_count(s, 0) for s in seeds):
        raise ParameterError(f"need one integer seed >= 0 per orientation, got {seeds}")
    bra = x.conj()
    amp = np.ones((k, grid.length), dtype=complex)
    chunk, times = max(1, _CHUNK_BYTES // (16 * r.size**2)), grid.times
    for start in range(1, grid.length, chunk):
        props = [trotter_propagator(model, plan, t) for t in times[start:start + chunk]]
        amp[:, start:start + len(props)] = np.einsum("ik,tik->kt", bra,
                                                     np.matmul(np.array(props), x))
    probs = np.clip(np.abs(amp) ** 2, 0.0, 1.0)
    if shots is not None:
        pooled = 2 * shots       # shots per time direction, both directions pooled
        for k, seed in enumerate(seeds):
            probs[k] = np.random.default_rng(seed).binomial(pooled, probs[k]) / pooled
    return probs
