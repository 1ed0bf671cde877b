"""Bad parameters are rejected where the object is constructed.

Range checks written as `x < 0` are false for NaN, so each constructor must
test finiteness and integrality explicitly.
"""

import math

import numpy as np
import pytest

from gaplab import (DataError, Filter, GapSearchConfig, InputOrientation,
                    ParameterError, SpinModel, TimeGrid, TimeSeries, TrotterPlan)


def shot_series_with_nan():
    p = np.full(4, 0.5)
    p[2] = math.nan
    return TimeSeries(grid=TimeGrid(dt=0.5, length=4), p_plus=p,
                      p_minus=np.full(4, 0.5), shots=64, seed=1)


@pytest.mark.parametrize("build", [
    pytest.param(lambda: SpinModel(3, math.nan, 1.0), id="coupling-nan"),
    pytest.param(lambda: SpinModel(3, 0.4, math.inf), id="field-inf"),
    pytest.param(lambda: SpinModel(2.5, 0.4, 1.0), id="spins-fractional"),
    pytest.param(lambda: TrotterPlan(1, 2.5), id="depth-fractional"),
    pytest.param(lambda: TrotterPlan(2.0, 3), id="order-float"),
    pytest.param(lambda: TrotterPlan(True, 3), id="order-bool"),
    pytest.param(lambda: TrotterPlan(1, True), id="depth-bool"),
    pytest.param(lambda: TimeGrid(math.nan, 4), id="dt-nan"),
    pytest.param(lambda: TimeGrid(0.5, 4.0), id="length-float"),
    pytest.param(lambda: Filter.gaussian(math.nan), id="eta-nan"),
    pytest.param(lambda: Filter.lorentzian(math.inf), id="eta-inf"),
    pytest.param(shot_series_with_nan, id="shot-series-nan"),
    pytest.param(lambda: InputOrientation((math.nan, 0.1)), id="angle-nan"),
    pytest.param(lambda: InputOrientation((0.1, -math.inf)), id="angle-inf"),
    pytest.param(lambda: InputOrientation.uniform(3, math.inf), id="theta-inf"),
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
