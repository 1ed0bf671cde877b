"""Shared helpers: independent dense constructions used as test oracles.

These rebuild operators from scratch with naive kron sums so that package
results are checked against a second code path, not against themselves.
"""

import numpy as np
import pytest
from hypothesis import settings

from gaplab.simulator import apply_gates, gate_sequence, prepare_input
from gaplab.trotter import TrotterPlan, trotter_propagator

# Property tests draw a fixed example sequence, so every run checks the
# same cases and a failure reproduces.
settings.register_profile("derandomized", derandomize=True, deadline=None,
                          max_examples=50)
settings.load_profile("derandomized")

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
S1 = np.eye(2, dtype=complex)


def kron_chain(ops):
    out = np.array([[1.0 + 0j]])
    for op in ops:
        out = np.kron(out, op)
    return out


def embed(n, site_ops):
    """Operator with 2x2 blocks at given sites: embed(3, {0: SZ, 1: SZ})."""
    return kron_chain([site_ops.get(j, S1) for j in range(n)])


def naive_tfim(n, coupling, field):
    """Reference Hamiltonian pair built by plain kron sums."""
    dim = 2**n
    h1 = np.zeros((dim, dim), dtype=complex)
    for b in range(n - 1):
        h1 -= coupling * embed(n, {b: SZ, b + 1: SZ})
    h2 = np.zeros((dim, dim), dtype=complex)
    for j in range(n):
        h2 -= field * embed(n, {j: SX})
    return h1, h2


def operator_norm(a):
    return float(np.linalg.norm(a, 2))


def overlap_by_path(model, plan, orientation, t, path):
    """|<psi|U_M(t)|psi>|^2 through one named path, for a single state.

    "matrix" powers the dense step, as the production engine does; "gates"
    streams the circuit, which only the tests execute.
    """
    psi = prepare_input(orientation)
    if path == "matrix":
        evolved = trotter_propagator(model, plan, t) @ psi
    else:
        evolved = apply_gates(psi, gate_sequence(model, plan, t), model.n_spins)
    return float(abs(np.vdot(psi, evolved)) ** 2)


def gate_sequence_unitary(model, plan, t):
    """Dense matrix assembled by pushing basis columns through the gate list."""
    gates = gate_sequence(model, plan, t)
    out = np.empty((model.dim, model.dim), dtype=complex)
    for col in range(model.dim):
        e = np.zeros(model.dim, dtype=complex)
        e[col] = 1.0
        out[:, col] = apply_gates(e, gates, model.n_spins)
    return out


def literal_gate_count(model, plan):
    """Literal per-iteration gate tally of the circuit (contrast with
    trotter.gate_count, which counts a layer of parallel rx gates once)."""
    gates = gate_sequence(model, TrotterPlan(plan.order, 1), 1.0)
    n_zz = sum(g.kind == "rzz" for g in gates)
    return {"rzz": n_zz, "rx": len(gates) - n_zz, "total": len(gates)}


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)
