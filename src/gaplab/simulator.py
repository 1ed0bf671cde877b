"""Statevector execution of the gap-estimation circuit.

A run prepares the product state |psi> = prod_j Ry(theta_j)|0>, evolves it by
the depth-M product formula, rotates back, and records the probability of the
all-zeros outcome,

    P(t) = |<psi| U_M(t) |psi>|^2,

on a uniform time grid for both time directions.  Finite measurement
statistics replace each P by a binomial draw over the single all-zeros
event, one seeded draw per orientation covering both branches.

One engine, `run_time_series`, produces every series: it builds the dense
U_M(t) once per positive time and applies it to all input orientations
together; the minus branch is its exact mirror, since real inputs and
real-angle steps give U_M(-t) = conj U_M(t).  The gate list (`gate_sequence`,
`apply_gates`) describes the circuit a device would run; only the tests execute
it, as an independent oracle for the dense propagator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DataError, ParameterError, ResourceLimitError, is_count
from .model import SpinModel
from .trotter import ITERATION_LAYERS, TrotterPlan, trotter_propagator

#: Largest chain the engine simulates: each positive time (the minus branch is its
#: exact mirror) powers a dense 2^N x 2^N step, 0.014 s at N = 8 but 0.9 s at N = 10
#: (p = 2, M = 35, one BLAS thread).
MAX_SIMULATED_SPINS = 8


def _check_simulated(n_spins: int):
    if n_spins > MAX_SIMULATED_SPINS:
        raise ResourceLimitError(
            f"simulation limited to MAX_SIMULATED_SPINS = {MAX_SIMULATED_SPINS} "
            f"spins, got {n_spins}")


@dataclass(frozen=True)
class InputOrientation:
    """Per-site y-rotation angles theta_j defining the input product state."""

    angles: tuple

    def __post_init__(self):
        angles = tuple(float(a) for a in self.angles)
        if not all(map(math.isfinite, angles)):
            raise ParameterError(f"orientation angles must be finite, got {angles}")
        object.__setattr__(self, "angles", tuple(a % (2.0 * math.pi) for a in angles))

    @classmethod
    def uniform(cls, n_spins: int, theta: float) -> "InputOrientation":
        return cls(angles=(theta,) * n_spins)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_n = n dt, n in [0, L); L even so the frequency grid pairs up."""

    dt: float
    length: int

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ParameterError(f"dt must be positive and finite, got {self.dt}")
        if not is_count(self.length, 2) or self.length % 2:
            raise ParameterError(f"length must be even and >= 2, got {self.length}")

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.length) * self.dt

    @property
    def d_omega(self) -> float:
        """Conjugate frequency step: d_omega * dt = 2 pi / L."""
        return 2.0 * math.pi / (self.length * self.dt)


@dataclass
class TimeSeries:
    """Return probabilities on both time branches, plus sampling provenance."""

    grid: TimeGrid
    p_plus: np.ndarray
    p_minus: np.ndarray
    shots: int | None = None     # None means exact probabilities
    seed: int | None = None

    def __post_init__(self):
        self.p_plus = np.asarray(self.p_plus, dtype=float)
        self.p_minus = np.asarray(self.p_minus, dtype=float)
        if len(self.p_plus) != self.grid.length or len(self.p_minus) != self.grid.length:
            raise DataError("series length does not match the time grid")
        for arr in (self.p_plus, self.p_minus):
            if not np.all((arr >= -1e-9) & (arr <= 1 + 1e-9)):
                raise DataError("return probabilities must lie in [0, 1]")
        if self.shots is None and not (
                abs(self.p_plus[0] - 1.0) < 1e-12 and abs(self.p_minus[0] - 1.0) < 1e-12):
            raise DataError("exact-mode series must start at P(0) = 1")


def prepare_input(orientation: InputOrientation) -> np.ndarray:
    """Normalized statevector prod_j [cos(theta_j/2)|0> + sin(theta_j/2)|1>]."""
    out = np.array([1.0 + 0j])
    for a in orientation.angles:
        out = np.kron(out, np.array([math.cos(a / 2), math.sin(a / 2)], dtype=complex))
    return out


# --------------------------------------------------------------------------
# Gate-level circuit description.
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Gate:
    """rzz(a) = exp(-i a/2 Z Z) on a bond, rx(a) = exp(-i a/2 X) on a site."""

    kind: str
    sites: tuple
    angle: float


def gate_sequence(model: SpinModel, plan: TrotterPlan, t: float) -> list:
    """Full gate list realizing trotter_propagator(model, plan, t).

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
    """Apply a gate list to a statevector (site 0 = most significant qubit)."""
    st = np.array(state, dtype=complex).reshape((2,) * n_spins)
    for g in gates:
        half = g.angle / 2.0
        if g.kind == "rx":
            j = g.sites[0]
            s0 = np.take(st, 0, axis=j)
            s1 = np.take(st, 1, axis=j)
            c, s = math.cos(half), math.sin(half)
            new0 = c * s0 - 1j * s * s1
            new1 = -1j * s * s0 + c * s1
            st = np.stack((new0, new1), axis=j)
        elif g.kind == "rzz":
            j, k = g.sites
            same, diff = np.exp(-1j * half), np.exp(1j * half)
            idx = [slice(None)] * n_spins
            for bj in (0, 1):
                for bk in (0, 1):
                    idx[j], idx[k] = bj, bk
                    st[tuple(idx)] *= same if bj == bk else diff
        else:
            raise ParameterError(f"unknown gate kind {g.kind!r}")
    return st.reshape(-1)


# --------------------------------------------------------------------------
# Return probabilities.
# --------------------------------------------------------------------------


def run_time_series(model: SpinModel, plan: TrotterPlan, orientations,
                    grid: TimeGrid, shots: int | None = None,
                    seeds=None) -> list:
    """Both time branches of P on the grid for each orientation, exact or sampled.

    U_M(t) does not depend on the input state, so each of the L - 1 positive
    times builds one propagator and applies it to all K input states at once;
    memory stays O(dim^2 + dim K).  The minus branch is its exact mirror: real
    inputs and real-angle steps give U_M(-t) = conj U_M(t) bit for bit, so
    p_minus is a copy of p_plus.  In shot mode one draw per orientation,
    default_rng(seed).binomial(shots, block), covers its whole (2, L) block,
    so a series depends on its own seed alone, not on its batch; `seeds`
    holds one seed >= 0 per orientation (default 0 for each).
    """
    _check_simulated(model.n_spins)
    orientations = list(orientations)
    if not orientations:
        raise ParameterError("need at least one input orientation")
    if any(len(o.angles) != model.n_spins for o in orientations):
        raise ParameterError("orientation length does not match the chain")
    if shots is not None and not is_count(shots, 1):
        raise ParameterError(f"shots must be an integer >= 1, got {shots!r}")
    seeds = [0] * len(orientations) if seeds is None else list(seeds)
    if len(seeds) != len(orientations) or not all(is_count(s, 0) for s in seeds):
        raise ParameterError(f"need one integer seed >= 0 per orientation, got {seeds}")
    psi = np.stack([prepare_input(o) for o in orientations], axis=1)
    probs = np.ones((len(orientations), 2, grid.length))
    for n, t in enumerate(grid.times[1:], start=1):
        evolved = trotter_propagator(model, plan, t) @ psi
        amp = np.einsum("ik,ik->k", psi.conj(), evolved)
        probs[:, 0, n] = np.clip(np.abs(amp) ** 2, 0.0, 1.0)
    probs[:, 1] = probs[:, 0]
    if shots is not None:
        for k, seed in enumerate(seeds):
            probs[k] = np.random.default_rng(seed).binomial(shots, probs[k]) / shots
    return [TimeSeries(grid=grid, p_plus=p[0], p_minus=p[1], shots=shots,
                       seed=seed if shots is not None else None)
            for p, seed in zip(probs, seeds)]
