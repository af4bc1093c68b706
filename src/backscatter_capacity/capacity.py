"""Average capacity of the correlated product channel, four ways.

* capacity_quadrature -- direct integration of log2(1+gamma) against the
  density, in the sqrt-SNR domain with scaled Bessel factors;
* capacity_series -- the Meijer-G series summed over all Bessel orders in
  closed form: one Mellin-Barnes contour integral of a Meijer kernel times
  a 2F1(-s, -s; 1; rho) factor;
* capacity_high_snr / capacity_high_snr_budget -- slope-1 asymptotes from
  the moment derivative at order zero;
* capacity_low_snr -- first-moment approximation.

AWGN and single-Rayleigh references used by the sweep datasets live here
too.  Every route covers rho in [0, 1], full correlation included.  All
functions are pure; estimates carry an error bound (NaN marks asymptotes,
which have no computable remainder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel_model import (
    ChannelParams,
    Parameterization,
    _pdf_t,
    moment_log_derivative,
)
from .errors import ConvergenceError, DomainError
from .quadrature import exponential_tail_cutoff, tanh_sinh
from .special_functions import (
    AccuracyPolicy,
    DEFAULT_POLICY,
    EULER_GAMMA,
    LOG2E,
    _hyp2f1_near_one,
    _hyp2f1_series,
    exp_integral_e1_scaled,
    mellin_barnes_integral,
)

# capacity_series sums the 2F1 factor in powers of rho up to here and in
# powers of 1 - rho above: the measured crossover of the two term counts
_SERIES_SWITCH_RHO = 0.6


@dataclass(frozen=True)
class CapacityEstimate:
    value: float                     # bps/Hz
    error_bound: float               # bps/Hz; NaN for asymptotes
    diagnostics: dict = field(default_factory=dict)


def capacity_quadrature(params: ChannelParams,
                        policy: AccuracyPolicy = DEFAULT_POLICY) -> CapacityEstimate:
    """E{log2(1 + gamma)} by tanh-sinh quadrature in t = sqrt(gamma)."""
    t_max = exponential_tail_cutoff(params.tail_rate, poly_power=2.0)

    def integrand(t):
        return LOG2E * np.log1p(t * t) * _pdf_t(params, t)

    res = tanh_sinh(integrand, 0.0, t_max, rel_tol=policy.rel_tol,
                    max_nodes=policy.max_quadrature_nodes)
    if not res.converged:
        raise ConvergenceError(
            "capacity quadrature did not converge",
            {"gamma_bar": params.gamma_bar, "rho": params.rho,
             "nodes": res.n_nodes, "error_estimate": res.error_estimate})
    return CapacityEstimate(
        value=res.value,
        error_bound=res.error_estimate,
        diagnostics={"nodes": res.n_nodes, "levels": res.levels, "t_max": t_max},
    )


def capacity_series(params: ChannelParams,
                    policy: AccuracyPolicy = DEFAULT_POLICY) -> CapacityEstimate:
    """Capacity as one Mellin-Barnes integral along a vertical line,

        log2(e)/(2 pi i) Int Gamma(s)^2 Gamma(1-s) Gamma(1+s)
                             ((1+rho)/gbar)^{-s} 2F1(-s, -s; 1; rho) ds:

    the Meijer kernel G^{3,1}_{1,3}, in closed form, times a 2F1 factor that
    sums the density's Bessel power series over all orders at once (Euler's
    transformation, DLMF 15.8.1): up to rho = 0.6 its power series in rho
    on Re s = 1/2, above it the connection formula in 1 - rho on Re s = 0.4,
    where 1 + 2s is never an integer.  terms_used counts 2F1 terms.
    """
    rho = params.rho
    near_one = rho > _SERIES_SWITCH_RHO
    terms = []

    def hyp2f1(s):
        value, n = _hyp2f1_near_one(s, rho) if near_one else _hyp2f1_series(-s, 1.0, rho)
        terms.append(n)
        return LOG2E * value

    try:
        value, err, nodes = mellin_barnes_integral(
            0.4 if near_one else 0.5, (1.0 + rho) / params.gamma_bar, hyp2f1, policy)
    except ConvergenceError as exc:
        raise ConvergenceError(
            "series did not converge",
            {"gamma_bar": params.gamma_bar, "rho": rho, **exc.diagnostics}) from exc
    return CapacityEstimate(value, err, {"terms_used": max(terms), "nodes": nodes})


def capacity_high_snr(params: ChannelParams) -> CapacityEstimate:
    """High-SNR asymptote log2(gbar) - 2 log2(e) gamma_e - log2(1+rho).

    Valid at rho = 1; may go negative at low SNR (callers judge
    applicability).  No remainder term exists, so the error bound is NaN.
    """
    value = math.log2(params.gamma_bar) + LOG2E * moment_log_derivative(params.rho)
    return CapacityEstimate(value, math.nan, {"kind": "asymptotic"})


def capacity_high_snr_budget(snr_I_linear: float) -> CapacityEstimate:
    """Fixed-power high-SNR asymptote log2(snr_I) - 2 log2(e) gamma_e.

    Correlation-independent: the log2(1+rho) loss cancels against the
    (1+rho) mean-SNR gain of a fixed transmit power.
    """
    if not (snr_I_linear > 0):
        raise DomainError("snr_I must be positive")
    value = math.log2(snr_I_linear) - 2.0 * LOG2E * EULER_GAMMA
    return CapacityEstimate(value, math.nan, {"kind": "asymptotic"})


def capacity_low_snr(param: Parameterization) -> CapacityEstimate:
    """Low-SNR first-moment approximation log2(e) * E{gamma}, in bits.

    Under a fixed power budget E{gamma} = snr_I (1+rho), so correlation
    helps linearly here.
    """
    value = LOG2E * param.gamma_bar
    return CapacityEstimate(value, math.nan, {"kind": "asymptotic"})


def capacity_awgn(snr_linear: float) -> CapacityEstimate:
    """Unfaded reference log2(1 + snr)."""
    if not (snr_linear > 0):
        raise DomainError("snr must be positive")
    return CapacityEstimate(LOG2E * math.log1p(snr_linear), 0.0, {"kind": "reference"})


def capacity_rayleigh(snr_linear: float) -> CapacityEstimate:
    """Single-Rayleigh ergodic capacity log2(e) e^{1/s} E1(1/s), exact at
    every SNR so the reference curve is trustworthy outside the asymptotic
    regime too."""
    if not (snr_linear > 0):
        raise DomainError("snr must be positive")
    value = LOG2E * exp_integral_e1_scaled(1.0 / snr_linear)
    return CapacityEstimate(value, 0.0, {"kind": "reference"})

