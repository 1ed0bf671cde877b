import numpy as np
import pytest

from gaplab import (
    ParameterError,
    ResourceLimitError,
    SpinModel,
    build_hamiltonians,
    commutator_norm_bounds,
    exact_diagonalize,
    exact_gap_thermodynamic,
    perturbative_gap_guess,
)
from gaplab.model import FOURTH_ORDER_CONSTANTS, SECOND_ORDER_CONSTANTS

from conftest import (SX, S1, commutator_mismatch, embed, matrix_commutators,
                      naive_tfim, operator_norm)


class TestHamiltonians:
    def test_n2_zero_coupling(self):
        h1, h2 = build_hamiltonians(SpinModel(2, 0.0, 1.0))
        assert np.allclose(h1, 0)
        assert np.allclose(h2, -(np.kron(SX, S1) + np.kron(S1, SX)))

    @pytest.mark.parametrize("n,coupling", [(2, 1.0), (3, 0.4), (4, 0.7), (5, -0.6)])
    def test_matches_naive_construction(self, n, coupling):
        h1, h2 = build_hamiltonians(SpinModel(n, coupling, 1.0))
        ref1, ref2 = naive_tfim(n, coupling, 1.0)
        assert np.allclose(h1, ref1, atol=1e-14)
        assert np.allclose(h2, ref2, atol=1e-14)

    def test_hermitian(self):
        h1, h2 = build_hamiltonians(SpinModel(4, 0.4, 1.0))
        assert np.allclose(h1, h1.conj().T)
        assert np.allclose(h2, h2.conj().T)

    def test_h1_norm_two_bonds(self):
        # two commuting z-strings at J = 0.4: largest eigenvalue 2 * 0.4
        h1, _ = build_hamiltonians(SpinModel(3, 0.4, 1.0))
        assert operator_norm(h1) == pytest.approx(0.8, abs=1e-12)

    def test_dimension_guard(self):
        with pytest.raises(ResourceLimitError):
            build_hamiltonians(SpinModel(13, 0.4, 1.0))

    def test_parameter_guards(self):
        with pytest.raises(ParameterError):
            SpinModel(1, 0.4, 1.0)
        with pytest.raises(ParameterError):
            SpinModel(3, 0.4, 0.0)


class TestExactDiagonalization:
    def test_n2_decoupled_spins(self):
        eig = exact_diagonalize(SpinModel(2, 0.0, 1.0))
        assert np.allclose(eig.energies, [-2, 0, 0, 2], atol=1e-12)

    def test_n2_ground_energy(self):
        # 4x4 matrix solved independently: ground state at -sqrt(J^2 + 4h^2)
        eig = exact_diagonalize(SpinModel(2, 1.0, 1.0))
        assert eig.energies[0] == pytest.approx(-np.sqrt(5.0), abs=1e-12)
        ref = np.linalg.eigvalsh(sum(naive_tfim(2, 1.0, 1.0)))
        assert np.allclose(eig.energies, ref, atol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_residuals_and_unitarity(self, n):
        model = SpinModel(n, 0.4, 1.0)
        eig = exact_diagonalize(model)
        h = sum(build_hamiltonians(model))
        scale = operator_norm(h)
        resid = h @ eig.states - eig.states * eig.energies
        assert operator_norm(resid) <= 1e-10 * scale
        assert operator_norm(eig.states.conj().T @ eig.states - np.eye(model.dim)) <= 1e-10
        assert np.all(np.diff(eig.energies) >= -1e-12)

    def test_traceless(self):
        h = sum(build_hamiltonians(SpinModel(4, 0.7, 1.3)))
        assert abs(np.trace(h)) < 1e-10

    def test_spectrum_symmetric_under_coupling_sign(self):
        plus = exact_diagonalize(SpinModel(4, 0.4, 1.0)).energies
        minus = exact_diagonalize(SpinModel(4, -0.4, 1.0)).energies
        assert np.allclose(plus, minus, atol=1e-10)


class TestCommutators:
    # away from h = 1 a wrong power of h in a closed-form prefactor shows
    @pytest.mark.parametrize("field", [0.6, 1.0, 1.3])
    @pytest.mark.parametrize("coupling", [-0.7, 0.4, 1.3])
    @pytest.mark.parametrize("n", list(range(2, 7)))
    def test_constructions_agree_across_parameters(self, n, coupling, field):
        mismatch = commutator_mismatch(SpinModel(n, coupling, field))
        assert max(mismatch.values()) <= 1e-10

    def test_zero_coupling_kills_everything(self):
        for mat in matrix_commutators(SpinModel(3, 0.0, 1.0)).values():
            assert operator_norm(mat) < 1e-12

    def test_field_nested_closed_form_n3(self):
        # [H2, [H1, H2]] = -8 J h^2 sum_b (Y_b Y_{b+1} - Z_b Z_{b+1})
        from conftest import SY, SZ
        c, f = 0.4, 1.0
        got = matrix_commutators(SpinModel(3, c, f))[(2,)]
        ref = np.zeros((8, 8), dtype=complex)
        for b in range(2):
            ref += embed(3, {b: SY, b + 1: SY}) - embed(3, {b: SZ, b + 1: SZ})
        assert np.allclose(got, -8 * c * f**2 * ref, atol=1e-12)

    def test_base_commutator_norm_n3(self):
        got = matrix_commutators(SpinModel(3, 1.0, 1.0))[()]
        assert 0 < operator_norm(got) <= 8.0 + 1e-12

    def test_repeated_field_pair_identity(self):
        # [H2,[H2,[H1,H2]]] = 16 h^2 [H1,H2] exactly, so nesting once more
        # gives [Hg,[H2,[H2,[H1,H2]]]] = 16 h^2 [Hg,[H1,H2]]
        field = 1.3
        d = matrix_commutators(SpinModel(5, 0.7, field))
        assert np.allclose(d[(2, 2, 2)], 16 * field**2 * d[(2,)], atol=1e-9)
        assert np.allclose(d[(1, 2, 2)], 16 * field**2 * d[(1,)], atol=1e-9)


class TestBounds:
    def test_base_bound_n2(self):
        assert commutator_norm_bounds(SpinModel(2, 0.4, 1.0), 1).comm_norm == 4.0

    def test_mixed_bound_vanishes_at_n2(self):
        b = commutator_norm_bounds(SpinModel(2, 0.4, 1.0), 4)
        assert b.mixed_four_norm == 0.0

    def test_first_order_prefactor(self):
        b = commutator_norm_bounds(SpinModel(5, 0.4, 1.0), 1)
        assert b.prefactor == pytest.approx(4 * 4 * 0.4, abs=1e-14)

    def test_second_order_prefactor(self):
        coup, field, n = 0.4, 1.0, 4
        b = commutator_norm_bounds(SpinModel(n, coup, field), 2)
        ref = 16 * (n - 1) * coup * field * (0.083 * coup + 0.167 * field)
        assert b.prefactor == pytest.approx(ref, rel=1e-14)
        assert SECOND_ORDER_CONSTANTS == {1: 0.083, 2: 0.167}

    def test_fourth_order_constants_as_printed(self):
        c = FOURTH_ORDER_CONSTANTS
        assert c[(1, 1, 1)] == 0.0094
        assert c[(2, 2, 2)] == 0.0568
        assert c[(2, 1, 1)] == c[(2, 1, 2)] == 0.0194

    def test_invalid_order(self):
        with pytest.raises(ParameterError):
            commutator_norm_bounds(SpinModel(4, 0.4, 1.0), 3)


class TestReferenceGaps:
    def test_perturbative_guess_printed_value(self):
        assert perturbative_gap_guess(SpinModel(4, 0.4, 1.0)) == pytest.approx(1.4)

    def test_perturbative_guess_zero_coupling(self):
        for n in (2, 5, 9):
            assert perturbative_gap_guess(SpinModel(n, 0.0, 1.0)) == 2.0

    def test_perturbative_guess_linear_in_inverse_size(self):
        coup, field = 0.3, 1.0
        gaps = {n: perturbative_gap_guess(SpinModel(n, coup, field))
                for n in (2, 3, 4, 6, 8)}
        for n, g in gaps.items():
            assert g == pytest.approx(2 * (field - coup) + 2 * coup / n, abs=1e-14)

    def test_dispersion_gap(self):
        assert exact_gap_thermodynamic(0.4, 1.0) == pytest.approx(1.2)
        assert exact_gap_thermodynamic(1.0, 1.0) == 0.0


class TestNegativeCoupling:
    # H(J) and H(-J) are unitarily equivalent under X on every other site, so
    # the spectrum, the guess and the reference all read |J|

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_spectrum_even_in_coupling(self, n):
        e_pos = exact_diagonalize(SpinModel(n, 0.4, 1.0)).energies
        e_neg = exact_diagonalize(SpinModel(n, -0.4, 1.0)).energies
        assert np.abs(e_pos - e_neg).max() <= 1e-13

    def test_guess_reads_abs_coupling(self):
        for n in (2, 4, 9):
            assert (perturbative_gap_guess(SpinModel(n, -0.4, 1.0))
                    == perturbative_gap_guess(SpinModel(n, 0.4, 1.0)))
        assert perturbative_gap_guess(SpinModel(4, -0.4, 1.0)) == pytest.approx(1.4)

    def test_reference_reads_abs_coupling(self):
        assert exact_gap_thermodynamic(-0.4, 1.0) == pytest.approx(1.2)
        assert exact_gap_thermodynamic(-1.0, 1.0) == 0.0
        assert exact_gap_thermodynamic(-1.5, 1.0) == exact_gap_thermodynamic(1.5, 1.0)
