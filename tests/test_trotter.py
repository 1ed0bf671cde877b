import math
import sys

import numpy as np
import pytest
from scipy.linalg import expm

from gaplab import (
    KAPPA4,
    Filter,
    ParameterError,
    SpinModel,
    TrotterPlan,
    depth_cutoff,
    filter_value,
    gate_count,
    trotter_propagator,
    truncation_error_bound,
)
from gaplab.model import commutator_norm_bounds
from gaplab.trotter import _step

from conftest import mirror_block, naive_tfim, operator_norm


def exact_propagator(n, coupling, field, t):
    """Mirror block of e^{-iHt}, the basis of trotter's propagators."""
    h1, h2 = naive_tfim(n, coupling, field)
    return mirror_block(expm(-1j * (h1 + h2) * t), n)


def expm_step(n, coupling, field, order, dt):
    """Independent step construction through scipy's generic expm, in full space."""
    h1, h2 = naive_tfim(n, coupling, field)
    e1 = lambda s: expm(-1j * h1 * s)
    e2 = lambda s: expm(-1j * h2 * s)
    if order == 1:
        return e1(dt) @ e2(dt)
    if order == 2:
        return e1(dt / 2) @ e2(dt) @ e1(dt / 2)
    u2 = lambda s: e1(s / 2) @ e2(s) @ e1(s / 2)
    uk = u2(KAPPA4 * dt)
    return uk @ uk @ u2((1 - 4 * KAPPA4) * dt) @ uk @ uk


class TestSingleStep:
    def test_kappa4_value(self):
        assert KAPPA4 == pytest.approx(1.0 / (4.0 - 4.0 ** (1 / 3)), rel=1e-15)
        assert KAPPA4 == pytest.approx(0.4145, abs=5e-5)

    def test_zero_time_is_identity(self):
        model = SpinModel(3, 0.4, 1.0)
        for p in (1, 2, 4):
            u = _step(model, p, 0.0)
            assert np.allclose(u, np.eye(6), atol=1e-14)

    @pytest.mark.parametrize("order,dt", [(1, 0.3), (2, 0.1), (4, 0.25)])
    def test_matches_expm_composition(self, order, dt):
        model = SpinModel(2, 1.0, 1.0)
        got = _step(model, order, dt)
        assert operator_norm(got - mirror_block(expm_step(2, 1.0, 1.0, order, dt), 2)) < 1e-12

    def test_commuting_limit_is_exact(self):
        model = SpinModel(3, 0.0, 1.0)
        for p in (1, 2, 4):
            u = trotter_propagator(model, TrotterPlan(p, 3), 1.7)
            assert operator_norm(u - exact_propagator(3, 0.0, 1.0, 1.7)) < 1e-12


class TestPropagator:
    def test_single_repetition_equals_step(self):
        model = SpinModel(3, 0.4, 1.0)
        plan = TrotterPlan(2, 1)
        assert np.allclose(trotter_propagator(model, plan, 0.7),
                           _step(model, plan.order, 0.7), atol=1e-14)

    @pytest.mark.parametrize("order", [1, 2, 4])
    @pytest.mark.parametrize("t", [0.9, -1.4])
    def test_unitarity(self, order, t):
        model = SpinModel(4, 0.4, 1.0)
        u = trotter_propagator(model, TrotterPlan(order, 9), t)
        assert operator_norm(u.conj().T @ u - np.eye(10)) <= 1e-10

    def test_first_order_error_halves_with_doubled_depth(self):
        model = SpinModel(2, 0.4, 1.0)
        exact = exact_propagator(2, 0.4, 1.0, 6.0)
        errs = [operator_norm(trotter_propagator(model, TrotterPlan(1, m), 6.0) - exact)
                for m in (64, 128)]
        assert errs[0] / errs[1] == pytest.approx(2.0, abs=0.4)


class TestFilter:
    def test_value_at_zero(self):
        for filt in (Filter("none"), Filter("lorentzian", 0.3), Filter("gaussian", 0.3)):
            assert filter_value(filt, 0.0) == 1.0

    def test_lorentzian_decay(self):
        assert filter_value(Filter("lorentzian", 0.3), 1.0) == pytest.approx(
            np.exp(-0.3), rel=1e-14)

    def test_half_life_points(self):
        eta = 0.23
        assert filter_value(Filter("lorentzian", eta), np.log(2) / eta) \
            == pytest.approx(0.5)
        filt = Filter("gaussian", eta)
        t_half = np.sqrt(2 * np.log(2)) / filt.sigma
        assert filter_value(filt, t_half) == pytest.approx(0.5)

    def test_negative_time_uses_magnitude(self):
        filt = Filter("gaussian", 0.3)
        assert filter_value(filt, -2.0) == filter_value(filt, 2.0)

    def test_non_increasing(self):
        t = np.linspace(0, 20, 100)
        for filt in (Filter("lorentzian", 0.1), Filter("gaussian", 0.4), Filter("none")):
            vals = filter_value(filt, t)
            assert np.all(np.diff(vals) <= 1e-15)
            assert np.all(vals > 0) and np.all(vals <= 1)

    def test_validation(self):
        with pytest.raises(ParameterError):
            Filter("boxcar", 0.1)
        with pytest.raises(ParameterError):
            Filter("lorentzian", -0.1)

    @pytest.mark.parametrize("family", ["lorentzian", "gaussian", "none"])
    def test_width_whose_square_overflows_refused(self, family):
        # the line shapes square eta, so pi eta^2 must be a finite float
        edge = math.sqrt(sys.float_info.max / math.pi)
        Filter(family, edge * (1 - 1e-15))
        for eta in (edge * (1 + 1e-15), 1e200, 1e308):
            with pytest.raises(ParameterError, match="overflows"):
                Filter(family, eta)

    def test_none_means_zero_width(self):
        # a given eta is checked, then dropped: the unfiltered line is a delta
        assert Filter("none", 0.3).eta == 0.0
        assert Filter("none", 0.3) == Filter("none")
        with pytest.raises(ParameterError):
            Filter("none", float("nan"))
        assert not Filter("none", 0.3).broadened
        assert not Filter("gaussian", 0.0).broadened
        assert Filter("gaussian", 0.1).broadened


class TestTruncationBound:
    def test_zero_time(self):
        model = SpinModel(4, 0.4, 1.0)
        assert truncation_error_bound(model, TrotterPlan(1, 5), Filter("none"), 0.0) == 0.0

    def test_filter_ratio(self):
        model = SpinModel(4, 0.4, 1.0)
        plan = TrotterPlan(1, 8)
        ratio = (truncation_error_bound(model, plan, Filter("lorentzian", 0.3), 6.0)
                 / truncation_error_bound(model, plan, Filter("none"), 6.0))
        assert ratio == pytest.approx(np.exp(-1.8), rel=1e-12)

    def test_formula_first_order(self):
        model = SpinModel(3, 0.4, 1.0)
        c = commutator_norm_bounds(model, 1).prefactor
        got = truncation_error_bound(model, TrotterPlan(1, 7), Filter("none"), 2.5)
        assert got == pytest.approx(c * 2.5**2 / 7, rel=1e-14)


class TestDepthCutoff:
    def test_zero_time(self):
        m_c, d_c = depth_cutoff(SpinModel(4, 0.4, 1.0), 1, Filter("none"), 0.0)
        assert m_c == 0.0 and d_c == 0.0

    def test_gate_counts(self):
        assert gate_count(1, 4) == 4
        assert gate_count(2, 4) == 7
        assert gate_count(4, 4) == 23

    def test_cutoff_formula(self):
        model = SpinModel(4, 0.4, 1.0)
        c = commutator_norm_bounds(model, 2).prefactor
        m_c, d_c = depth_cutoff(model, 2, Filter("none"), 3.0, eps_c=1e-3)
        assert m_c == pytest.approx((c / 1e-3) ** 0.5 * 3.0**1.5, rel=1e-12)
        assert d_c == pytest.approx(7 * m_c, rel=1e-12)

    def test_filtered_below_unfiltered(self):
        model = SpinModel(10, 0.4, 1.0)
        ts = np.linspace(0.2, 10, 25)
        for order in (1, 2, 4):
            _, bare = depth_cutoff(model, order, Filter("none"), ts)
            for filt in (Filter("lorentzian", 0.3), Filter("gaussian", 0.3)):
                _, filtered = depth_cutoff(model, order, filt, ts)
                assert np.all(filtered < bare)

    def test_first_order_lorentzian_suppression_is_exact(self):
        model = SpinModel(1000, 0.4, 1.0)
        ts = np.linspace(0.5, 10, 20)
        m_bare, _ = depth_cutoff(model, 1, Filter("none"), ts)
        m_filt, _ = depth_cutoff(model, 1, Filter("lorentzian", 0.3), ts)
        assert np.allclose(m_filt / m_bare, np.exp(-0.3 * ts), rtol=1e-12)

    def test_order_curves_cross_with_filtering(self):
        # with a lorentzian filter the first- and fourth-order depth budgets
        # cross inside (0, 10]; the crossing sits at very small ht
        model = SpinModel(1000, 0.4, 1.0)
        ts = np.logspace(-5, 1, 600)
        filt = Filter("lorentzian", 0.3)
        _, d1 = depth_cutoff(model, 1, filt, ts)
        _, d4 = depth_cutoff(model, 4, filt, ts)
        signs = np.sign(d1 - d4)
        assert np.any(signs[:-1] != signs[1:])

    def test_eps_c_validation(self):
        with pytest.raises(ParameterError):
            depth_cutoff(SpinModel(4, 0.4, 1.0), 1, Filter("none"), 1.0, eps_c=0.0)

    @pytest.mark.parametrize("filt, t, eps_c", [
        (Filter("none"), 1e300, 1e-2),           # M_c = inf
        (Filter("gaussian", 0.3), 1e300, 1e-2),    # inf * 0 = NaN
        (Filter("none"), np.array([0.0, 1.0]), 1e-320)])
    def test_overflowing_budget_refused(self, filt, t, eps_c):
        with pytest.raises(ParameterError):
            depth_cutoff(SpinModel(4, 0.4, 1.0), 1, filt, t, eps_c=eps_c)
