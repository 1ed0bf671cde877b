"""Gap estimation from filtered time series of Trotterized spin-chain evolution."""

from .errors import (DataError, GapSearchError, GaplabError, NumericError,
                     ParameterError, ResourceLimitError)
from .gapfinder import (GapEstimate, GapSearchConfig, SweepRecord, best_record,
                        find_gap, gap_error, spectral_error, spectral_error_bound,
                        theta_sweep)
from .model import (BoundSet, EigenDecomposition, SpinModel, build_hamiltonians,
                    commutator_norm_bounds, exact_diagonalize,
                    exact_gap_thermodynamic, perturbative_gap_guess)
from .scaling import Extrapolation, extrapolate
from .simulator import Gate, TimeGrid, gate_sequence, prepare_input, run_time_series
from .spectral import default_grid, exact_spectrum_oracle, filter_fourier, transform
from .toymodel import TwoPeakModel, peak_shift
from .trotter import (KAPPA4, Filter, TrotterPlan, depth_cutoff, filter_value,
                      gate_count, trotter_propagator, truncation_error_bound)

__version__ = "0.1.0"
