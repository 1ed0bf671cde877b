"""Shared helpers: independent dense constructions used as test oracles, and
readers of the files gaplab writes.

The constructions rebuild operators from scratch with naive kron sums so that
package results are checked against a second code path, not against themselves.
The readers give back plain arrays and dicts: a spectrum file reads as its
omega_m and A_m columns, its filter and its header.
"""

import dataclasses
import functools
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from gaplab.simulator import apply_gates, gate_sequence, prepare_input
from gaplab.trotter import Filter, TrotterPlan, trotter_propagator

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


# --------------------------------------------------------------------------
# Nested commutators of H1 and H2, built two independent ways; the package
# uses only their closed-form norm bounds (model.commutator_norm_bounds).
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


def matrix_commutators(model):
    """Construction (a): repeated dense matrix commutation of naive_tfim."""
    h1, h2 = naive_tfim(model.n_spins, model.coupling, model.field)
    H = {1: h1, 2: h2}

    def comm(a, b):
        return a @ b - b @ a

    base = comm(h1, h2)
    out = {(): base, (1,): comm(h1, base), (2,): comm(h2, base)}
    inner = {mu: comm(H[mu], base) for mu in (1, 2)}
    middle = {(lam, mu): comm(H[lam], inner[mu]) for lam in (1, 2) for mu in (1, 2)}
    for g in (1, 2):
        for (lam, mu), t in middle.items():
            out[(g, lam, mu)] = comm(H[g], t)
    return out


def pauli_form_commutators(model):
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
    n, J, h = model.n_spins, model.coupling, model.field
    pauli = {"X": SX, "Y": SY, "Z": SZ}

    def strings(coeff, terms):
        out = np.zeros((2**n, 2**n), dtype=complex)
        for weight, sites, labels in terms:
            out += weight * embed(n, {s: pauli[lab] for s, lab in zip(sites, labels)})
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


def commutator_mismatch(model):
    """Relative norm distance between the two constructions, per key."""
    direct, closed = matrix_commutators(model), pauli_form_commutators(model)
    out = {}
    for key in COMMUTATOR_KEYS:
        a, b = direct[key], closed[key]
        scale = max(operator_norm(a), operator_norm(b))
        out[key] = 0.0 if scale == 0 else operator_norm(a - b) / scale
    return out


@functools.lru_cache(maxsize=None)
def mirror_pairs(n):
    """(r, rev r) as two read-only arrays: the indices r <= rev r ascending and
    their images under the site reversal, rebuilt from reversed bit strings."""
    rev = [int(format(a, f"0{n}b")[::-1], 2) for a in range(2**n)]
    reps = np.array([a for a in range(2**n) if a <= rev[a]])
    partners = np.array([rev[r] for r in reps])
    reps.flags.writeable = partners.flags.writeable = False
    return reps, partners


@functools.lru_cache(maxsize=None)
def mirror_basis(n):
    """(2^N, d_R) isometry B onto the mirror-even subspace: column i is
    (|r_i> + |rev r_i>)/sqrt(s_i), |r_i> alone for a palindrome (read-only)."""
    reps, partners = mirror_pairs(n)
    out = np.zeros((2**n, reps.size))
    out[reps, np.arange(reps.size)] = out[partners, np.arange(reps.size)] = 1.0
    out /= np.linalg.norm(out, axis=0)
    out.flags.writeable = False
    return out


def mirror_block(a, n):
    """B^T A B: the block of a full-space operator on the mirror-even subspace,
    the basis in which trotter builds its steps and propagators."""
    b = mirror_basis(n)
    return b.T @ a @ b


def overlap_by_path(model, plan, theta, t, path):
    """|<psi|U_M(t)|psi>|^2 through one named path, for psi = Ry(theta)^(x)N |0>.

    "matrix" powers the mirror block of the step, as the production engine
    does, and maps psi in and out through B; "gates" streams the circuit over
    the full space, which only the tests execute.
    """
    [psi] = prepare_input(model.n_spins, [theta]).T
    if path == "matrix":
        b = mirror_basis(model.n_spins)
        evolved = b @ (trotter_propagator(model, plan, t) @ (b.T @ psi))
    else:
        evolved = apply_gates(psi, gate_sequence(model, plan, t), model.n_spins)
    return float(abs(np.vdot(psi, evolved)) ** 2)


def gate_sequence_unitary(model, plan, t):
    """Dense matrix of the gate list: the identity's columns pushed through it at once."""
    return apply_gates(np.eye(model.dim), gate_sequence(model, plan, t), model.n_spins)


def literal_gate_count(model, plan):
    """Literal per-iteration gate tally of the circuit (contrast with
    trotter.gate_count, which counts a layer of parallel rx gates once)."""
    gates = gate_sequence(model, TrotterPlan(plan.order, 1), 1.0)
    n_zz = sum(g.kind == "rzz" for g in gates)
    return {"rzz": n_zz, "rx": len(gates) - n_zz, "total": len(gates)}


def with_eta(model, eta):
    """The two-peak model with its line shape broadened to eta instead."""
    return dataclasses.replace(model, filter=Filter(model.filter.family, float(eta)))


@pytest.fixture
def rng():
    return np.random.default_rng(20260811)


def read_table(path):
    """(metadata, columns, rows of strings) of a CSV file gaplab wrote: its
    `# key = <json>` lines, then the column header and the rows."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    meta = [line[1:].partition("=") for line in lines if line.startswith("#")]
    table = [line.split(",") for line in lines if not line.startswith("#")]
    return {key.strip(): json.loads(value) for key, _, value in meta}, table[0], table[1:]


def read_spectrum(path):
    """(omegas, values, filter, metadata) of a spectrum_to_csv file: its omega_m
    and A_m columns as float arrays, and the header, its fold point kept."""
    meta, _, rows = read_table(path)
    return (np.array([float(r[1]) for r in rows]), np.array([float(r[2]) for r in rows]),
            Filter(meta["filter"], meta["eta"]), meta)


def read_phase_diagram(path):
    """(rows of float tuples, metadata) of a phase_diagram_to_csv file."""
    meta, _, rows = read_table(path)
    return [tuple(map(float, r)) for r in rows], meta


def read_config_header(path) -> dict:
    """The resolved configuration recorded in a CSV or JSON output file."""
    if str(path).endswith(".json"):
        return json.loads(Path(path).read_text(encoding="utf-8"))["config"]
    return read_table(path)[0]["config"]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def perfbench_module(name, monkeypatch):
    """One of the benchmark's scripts, loaded from its file as a module."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # for its dataclasses
    spec.loader.exec_module(module)
    return module
