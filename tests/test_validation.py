"""Bad parameters are rejected where the object is constructed.

Range checks written as `x < 0` are false for NaN, so each constructor must
test finiteness and integrality explicitly.
"""

import math

import pytest

from gaplab import (DataError, Filter, GapSearchConfig, ParameterError, SpinModel,
                    TimeGrid, TrotterPlan, commutator_norm_bounds, depth_cutoff,
                    gate_count, prepare_input)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: SpinModel(3, math.nan, 1.0), id="coupling-nan"),
    pytest.param(lambda: SpinModel(3, 0.4, math.inf), id="field-inf"),
    pytest.param(lambda: SpinModel(2.5, 0.4, 1.0), id="spins-fractional"),
    pytest.param(lambda: TrotterPlan(1, 2.5), id="depth-fractional"),
    pytest.param(lambda: TrotterPlan(2.0, 3), id="order-float"),
    pytest.param(lambda: TrotterPlan(True, 3), id="order-bool"),
    pytest.param(lambda: TrotterPlan(1, True), id="depth-bool"),
    # integers Python holds but a float cannot: M^p and N enter float arithmetic
    pytest.param(lambda: TrotterPlan(1, 10**400), id="depth-beyond-float"),
    pytest.param(lambda: TrotterPlan(4, 10**80), id="depth-power-beyond-float"),
    pytest.param(lambda: SpinModel(10**400, 0.4, 1.0), id="spins-beyond-float"),
    pytest.param(lambda: TimeGrid(math.nan, 4), id="dt-nan"),
    pytest.param(lambda: TimeGrid(1e308, 4), id="last-time-overflows"),
    pytest.param(lambda: TimeGrid(0.5, 4.0), id="length-float"),
    pytest.param(lambda: Filter("gaussian", math.nan), id="eta-nan"),
    pytest.param(lambda: Filter("lorentzian", math.inf), id="eta-inf"),
    pytest.param(lambda: prepare_input(3, [math.nan, 0.1]), id="angle-nan"),
    pytest.param(lambda: prepare_input(3, [0.1, -math.inf]), id="angle-inf"),
    pytest.param(lambda: prepare_input(3, [math.inf]), id="theta-inf"),
    pytest.param(lambda: prepare_input(3, 0.1), id="angles-scalar"),
    pytest.param(lambda: prepare_input(3, [[0.1, 0.2]]), id="angles-2d"),
    pytest.param(lambda: GapSearchConfig(math.nan), id="guess-nan"),
    pytest.param(lambda: GapSearchConfig(math.inf), id="guess-inf"),
    pytest.param(lambda: GapSearchConfig(1.0, initial_window=math.nan),
                 id="window-nan"),
    pytest.param(lambda: GapSearchConfig(1.0, initial_window=0.0), id="window-zero"),
    pytest.param(lambda: GapSearchConfig(1.0, max_window=math.nan), id="cap-nan"),
    pytest.param(lambda: GapSearchConfig(1.0, max_window=math.inf), id="cap-inf"),
    pytest.param(lambda: GapSearchConfig(1.0, max_window=-1.0), id="cap-negative"),
    pytest.param(lambda: GapSearchConfig(1.0, initial_window=2.0, max_window=1.0),
                 id="cap-below-window"),
])
def test_rejected_at_construction(build):
    with pytest.raises((ParameterError, DataError)):
        build()


@pytest.mark.parametrize("order", [True, 2.0, 4.0, 3, 0])
@pytest.mark.parametrize("call", [
    pytest.param(lambda order: commutator_norm_bounds(SpinModel(4, 0.4, 1.0), order),
                 id="commutator_norm_bounds"),
    pytest.param(lambda order: gate_count(order, 4), id="gate_count"),
    pytest.param(lambda order: depth_cutoff(SpinModel(4, 0.4, 1.0), order,
                                            Filter("gaussian", 0.3), 1.0),
                 id="depth_cutoff"),
])
def test_order_is_one_two_or_four(call, order):
    # as TrotterPlan: a bool is no order, and 2.0 is no integer
    with pytest.raises(ParameterError, match="order must be 1, 2 or 4"):
        call(order)
