"""Ergodic capacity of backscatter links over correlated Rayleigh product fading.

Four mutually cross-checking evaluation routes: direct quadrature of the
product-fading density, a Meijer-G series, high/low-SNR asymptotes, and a
seedable Monte Carlo oracle, plus a CLI that emits deterministic sweep and
figure datasets.
"""

from .capacity import (
    CapacityEstimate,
    capacity_awgn,
    capacity_high_snr,
    capacity_high_snr_budget,
    capacity_low_snr,
    capacity_quadrature,
    capacity_rayleigh,
    capacity_series,
)
from .channel_model import (
    FIXED_POWER_BUDGET,
    FIXED_RECEIVER_SNR,
    ChannelParams,
    Parameterization,
    cdf,
    moment,
    moment_log_derivative,
    pdf,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
)
from .monte_carlo import (
    KsResult,
    McConfig,
    McResult,
    batch_rng,
    estimate_capacity,
    estimate_moment,
    ks_test,
    ks_test_marginal,
)
from .special_functions import (
    bessel_i0_scaled,
    bessel_k0_scaled,
    hyp2f1_neg_int,
)

__version__ = "0.1.0"

