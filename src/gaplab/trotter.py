"""Product-formula propagators, time-domain filters, and circuit-depth bounds.

The depth-M approximant of e^{-iHt} is U_M(t) = [U(t/M)]^M with a single step

    U1(s) = e^{-iH1 s} e^{-iH2 s}
    U2(s) = e^{-iH1 s/2} e^{-iH2 s} e^{-iH1 s/2}
    U4(s) = U2(k s)^2 U2((1-4k) s) U2(k s)^2,   k = (4 - 4^(1/3))^(-1)

Both sub-exponentials are evaluated in closed form: H1 is diagonal in the
z basis and e^{-iH2 s} is a tensor power of one single-spin x rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, is_count
from .model import SpinModel, commutator_norm_bounds, h1_diagonal

KAPPA4 = 1.0 / (4.0 - 4.0 ** (1.0 / 3.0))

FILTER_FAMILIES = ("lorentzian", "gaussian", "none")

#: One iteration of each product formula as (kind, angle fraction) layers in
#: application order (earliest first).  A "zz" layer rotates every bond, an "x"
#: layer every site; fractions multiply the per-iteration angles -2Jt/M (zz)
#: and -2ht/M (x).
ITERATION_LAYERS = {
    1: (("x", 1.0), ("zz", 1.0)),
    2: (("zz", 0.5), ("x", 1.0), ("zz", 0.5)),
    4: (("zz", KAPPA4 / 2), ("x", KAPPA4), ("zz", KAPPA4), ("x", KAPPA4),
        ("zz", (1 - 3 * KAPPA4) / 2), ("x", 1 - 4 * KAPPA4),
        ("zz", (1 - 3 * KAPPA4) / 2), ("x", KAPPA4), ("zz", KAPPA4),
        ("x", KAPPA4), ("zz", KAPPA4 / 2)),
}


@dataclass(frozen=True)
class TrotterPlan:
    """Product-formula order and repetition count."""

    order: int
    depth: int

    def __post_init__(self):
        if not is_count(self.order, 1) or self.order not in (1, 2, 4):
            raise ParameterError(f"order must be 1, 2 or 4, got {self.order}")
        if not is_count(self.depth, 1):
            raise ParameterError(f"depth must be an integer >= 1, got {self.depth}")


@dataclass(frozen=True)
class Filter:
    """Multiplicative time-domain decay e.g. e^{-eta t} (lorentzian line shape).

    `eta` is half of the full width at half maximum of the frequency-space
    line shape; the gaussian clock rate is sigma = eta / sqrt(2 ln 2).
    """

    family: str
    eta: float = 0.0

    def __post_init__(self):
        if self.family not in FILTER_FAMILIES:
            raise ParameterError(f"unknown filter family {self.family!r}")
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise ParameterError(f"broadening must be finite and >= 0, got {self.eta}")

    @property
    def broadened(self) -> bool:
        """Whether the line shape has a width (eta > 0): an unfiltered or
        zero-eta line is a delta, which neither a grid rule nor a peak search
        can use."""
        return self.family != "none" and self.eta > 0

    @property
    def sigma(self) -> float:
        return self.eta / math.sqrt(2.0 * math.log(2.0))

    @classmethod
    def lorentzian(cls, eta: float) -> "Filter":
        return cls("lorentzian", eta)

    @classmethod
    def gaussian(cls, eta: float) -> "Filter":
        return cls("gaussian", eta)

    @classmethod
    def none(cls) -> "Filter":
        return cls("none", 0.0)


def filter_value(filt: Filter, t):
    """F(t) evaluated at |t|; scalar in (0, 1] or an array of such."""
    ta = np.abs(np.asarray(t, dtype=float))
    if filt.family == "none":
        out = np.ones_like(ta)
    elif filt.family == "lorentzian":
        out = np.exp(-filt.eta * ta)
    else:
        out = np.exp(-0.5 * filt.sigma**2 * ta**2)
    return out if out.ndim else float(out)


def gate_count(order: int, n_spins: int) -> int:
    """Circuit-depth weight of one iteration (uncompressed counting): bond
    rotations execute sequentially, a layer of parallel site rotations counts once."""
    if order not in ITERATION_LAYERS:
        raise ParameterError(f"order must be 1, 2 or 4, got {order}")
    return sum(n_spins - 1 if kind == "zz" else 1 for kind, _ in ITERATION_LAYERS[order])


def _x_rotation_power(model: SpinModel, dt: float) -> np.ndarray:
    """e^{-iH2 dt} = prod_j [cos(h dt) + i sin(h dt) X_j] as a dense matrix."""
    a = model.field * dt
    u1 = np.array([[math.cos(a), 1j * math.sin(a)],
                   [1j * math.sin(a), math.cos(a)]])
    out = np.array([[1.0 + 0j]])
    for _ in range(model.n_spins):  # np.kron(out, u1): the same products, in order
        out = (out[:, None, :, None] * u1[:, None, :]).reshape(2 * len(out), -1)
    return out


def _step(model: SpinModel, order: int, dt: float) -> np.ndarray:
    """One product-formula step over time dt (negative dt reverses all angles)."""
    if order == 1:
        d1 = np.exp(-1j * h1_diagonal(model) * dt)
        return d1[:, None] * _x_rotation_power(model, dt)
    if order == 2:
        dh = np.exp(-1j * h1_diagonal(model) * dt / 2.0)
        return dh[:, None] * _x_rotation_power(model, dt) * dh[None, :]
    u_k = _step(model, 2, KAPPA4 * dt)
    u_m = _step(model, 2, (1.0 - 4.0 * KAPPA4) * dt)
    u_kk = u_k @ u_k
    return u_kk @ u_m @ u_kk


def trotter_propagator(model: SpinModel, plan: TrotterPlan, t: float) -> np.ndarray:
    """U_M(t) = [U(t/M)]^M."""
    step = _step(model, plan.order, t / plan.depth)
    return np.linalg.matrix_power(step, plan.depth)


def truncation_error_bound(model: SpinModel, plan: TrotterPlan, filt: Filter, t):
    """Upper bound on ||F(t) (rho_M(t) - rho_exact(t))||:  C t^{p+1} F(t) / M^p."""
    p = plan.order
    c = commutator_norm_bounds(model, p).prefactor
    ta = np.abs(np.asarray(t, dtype=float))
    out = c * ta ** (p + 1) * filter_value(filt, ta) / plan.depth**p
    return out if out.ndim else float(out)


def depth_cutoff(model: SpinModel, order: int, filt: Filter, t,
                 eps_c: float = 1e-2):
    """Repetition and circuit-depth budgets (M_c, D_c) at target error eps_c.

    M_c = (C/eps_c)^{1/p} t^{1+1/p} F(t)^{1/p}; D_c multiplies by the gate
    count per iteration.  Returned as reals; round up when budgeting circuits.
    A budget that overflows to inf or NaN is refused.
    """
    if not 0 < eps_c < math.inf:
        raise ParameterError(f"eps_c must be positive and finite, got {eps_c}")
    ta = np.abs(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(ta)):
        raise ParameterError("times must be finite")
    c = commutator_norm_bounds(model, order).prefactor
    with np.errstate(over="ignore", invalid="ignore"):   # refused just below
        m_c = (c / eps_c) ** (1.0 / order) * ta ** (1.0 + 1.0 / order) \
            * filter_value(filt, ta) ** (1.0 / order)
        d_c = gate_count(order, model.n_spins) * m_c
    if not np.all(np.isfinite(d_c)):
        raise ParameterError(f"depth budget overflows: eps_c {eps_c}, |t| <= {ta.max()}")
    if m_c.ndim:
        return m_c, d_c
    return float(m_c), float(d_c)
