"""Product-formula propagators, time-domain filters, and circuit-depth bounds.

The depth-M approximant of e^{-iHt} is U_M(t) = [U(t/M)]^M with a single step

    U1(s) = e^{-iH1 s} e^{-iH2 s}
    U2(s) = e^{-iH1 s/2} e^{-iH2 s} e^{-iH1 s/2}
    U4(s) = U2(k s)^2 U2((1-4k) s) U2(k s)^2,   k = (4 - 4^(1/3))^(-1)

Every step commutes with the site reversal j -> N-1-j, as H1 and H2 do, so steps and
powers live on the mirror-even block, d_R = 2^(N-1) + 2^(ceil(N/2)-1) of 2^N dimensions,
in the basis (|r_i> + |rev r_i>)/sqrt(s_i) of `model.mirror_classes` (|r_i> if s_i = 1).
Both sub-exponentials are closed forms: H1 is diagonal in the z basis, e^{-iH2 s} one
2^N-entry row read at a XOR b.  2-D products use ndarray.dot: `@`'s zgemm, less dispatch.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, is_count
from .model import (SpinModel, basis_bits, commutator_norm_bounds, h1_diagonal,
                    mirror_classes)

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
        if self.depth ** self.order > sys.float_info.max:   # M^p divides floats
            raise ParameterError(f"M^p = {self.depth}^{self.order} is not a finite float")


@dataclass(frozen=True)
class Filter:
    """Multiplicative time-domain decay e.g. e^{-eta t} (lorentzian line shape).

    `eta` is half of the full width at half maximum of the frequency-space
    line shape; the gaussian clock rate is sigma = eta / sqrt(2 ln 2).  Family
    `none` means eta = 0: a given eta is checked, then set to 0.
    """

    family: str
    eta: float = 0.0

    def __post_init__(self):
        if self.family not in FILTER_FAMILIES:
            raise ParameterError(f"unknown filter family {self.family!r}")
        if not (self.eta >= 0 and math.isfinite(self.eta)):
            raise ParameterError(f"broadening must be finite and >= 0, got {self.eta}")
        if self.eta and not sys.float_info.min <= math.pi * self.eta * self.eta < math.inf:
            raise ParameterError(f"broadening {self.eta}: pi eta^2 overflows or underflows")
        if self.family == "none":
            object.__setattr__(self, "eta", 0.0)

    @property
    def broadened(self) -> bool:
        """Whether the line shape has a width (eta > 0): an unfiltered or
        zero-eta line is a delta, which neither a grid rule nor a peak search
        can use."""
        return self.eta > 0

    @property
    def sigma(self) -> float:
        return self.eta / math.sqrt(2.0 * math.log(2.0))


def filter_value(filt: Filter, t):
    """F(t) evaluated at |t|; scalar in [0, 1] or an array of such."""
    ta = np.abs(np.asarray(t, dtype=float))
    with np.errstate(over="ignore"):    # a product past the float range: F = 0
        if not filt.broadened:
            out = np.ones_like(ta)
        elif filt.family == "lorentzian":
            out = np.exp(-filt.eta * ta)
        else:
            out = np.exp(-0.5 * filt.sigma**2 * ta**2)
    return out if out.ndim else float(out)


def gate_count(order: int, n_spins: int) -> int:
    """Circuit-depth weight of one iteration (uncompressed counting): bond
    rotations execute sequentially, a layer of parallel site rotations counts once."""
    if not is_count(order, 1) or order not in ITERATION_LAYERS:
        raise ParameterError(f"order must be 1, 2 or 4, got {order!r}")
    return sum(n_spins - 1 if kind == "zz" else 1 for kind, _ in ITERATION_LAYERS[order])


@functools.lru_cache(maxsize=64)    # the parts of a step that do not depend on t
def _mirror_gathers(n_spins: int) -> tuple:
    r, partner = mirror_classes(n_spins)
    size = 1.0 + (r != partner)
    return r[:, None] ^ r, r[:, None] ^ partner, np.sqrt(size[:, None] * size) / 2


def _x_rotation_block(model: SpinModel, dt: float) -> np.ndarray:
    """Mirror block of e^{-iH2 dt} = prod_j [cos(h dt) + i sin(h dt) X_j].  Its entry
    (a, b) is row[a XOR b], cos(h dt) per equal bit and i sin(h dt) per unequal, site 0
    first; block entry (i, j) is sqrt(s_i s_j)/2 (row[r_i ^ r_j] + row[r_i ^ rev r_j])."""
    a = model.field * dt
    pair = np.array([math.cos(a), 1j * math.sin(a)])
    row = np.multiply.reduce(pair[basis_bits(model.n_spins)], axis=1)
    same, mirrored, weight = _mirror_gathers(model.n_spins)
    return (row[same] + row[mirrored]) * weight


@functools.lru_cache(maxsize=64)
def _h1_phase(model: SpinModel) -> np.ndarray:    # H1 is mirror-even: read at each r_i
    return -1j * h1_diagonal(model)[mirror_classes(model.n_spins)[0]]


@functools.lru_cache(maxsize=64)
def _depth_bits(depth: int) -> tuple:
    return tuple(bit == "1" for bit in reversed(f"{depth:b}"))


def _step(model: SpinModel, order: int, dt: float) -> np.ndarray:
    """Mirror block of one product-formula step (negative dt reverses all angles)."""
    if order < 4:   # order 2 splits the H1 phase in halves around the x layer
        d = np.exp(_h1_phase(model) * (dt / order))
        step = d[:, None] * _x_rotation_block(model, dt)
        return step if order == 1 else step * d[None, :]
    u_k = _step(model, 2, KAPPA4 * dt)
    u_m = _step(model, 2, (1.0 - 4.0 * KAPPA4) * dt)
    u_kk = u_k.dot(u_k)
    return u_kk.dot(u_m).dot(u_kk)


def trotter_propagator(model: SpinModel, plan: TrotterPlan, t: float) -> np.ndarray:
    """Mirror block of U_M(t) = [U(t/M)]^M by square-and-multiply, lowest bit of M first:
    the products of np.linalg.matrix_power, except U (U U) for its (U U) U at M = 3."""
    power, out = _step(model, plan.order, t / plan.depth), None
    for k, bit in enumerate(_depth_bits(plan.depth)):
        power = power.dot(power) if k else power
        if bit:
            out = power if out is None else out.dot(power)
    return out


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
