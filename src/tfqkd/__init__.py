"""Key-rate bounds and optimization for twin-field QKD with independent
decoy intensity settings, plus an independent verification layer (exact LP
on the decoy constraints and photon-number enumeration)."""

from .channel import (ChannelParams, GainMatrix, IntensitySettings, bessel_i0,
                      db_to_transmittance, gain, simulate_gains, standard_noise,
                      theoretical_yield, transmittance_to_db, x_basis_statistics)
from .decoy3 import YieldBounds, cancellation_coeffs
from .decoy4 import yield_bounds
from .errors import (ConfigError, DegenerateIntensityError,
                     InconsistentGainsError, InfeasibleFluctuationError,
                     SaturationError, TfqkdError)
from .optimize import (FluctuationSpec, OptimizationSpec, optimize_rate,
                       worst_case_fluctuation)
from .rate import (KeyRateResult, binary_entropy, key_rate, phase_error_upper,
                   plob_bound)
from .series import d_n, hom_sym_sum

__all__ = [
    "ChannelParams", "GainMatrix", "IntensitySettings", "YieldBounds",
    "KeyRateResult", "OptimizationSpec", "FluctuationSpec",
    "bessel_i0", "gain", "simulate_gains", "standard_noise",
    "theoretical_yield", "x_basis_statistics", "db_to_transmittance",
    "transmittance_to_db", "cancellation_coeffs", "yield_bounds",
    "hom_sym_sum", "d_n", "binary_entropy",
    "phase_error_upper", "key_rate", "plob_bound", "optimize_rate",
    "worst_case_fluctuation",
    "TfqkdError", "DegenerateIntensityError", "InconsistentGainsError",
    "InfeasibleFluctuationError", "SaturationError", "ConfigError",
]

__version__ = "0.1.0"
