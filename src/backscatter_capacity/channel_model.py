"""Correlated Rayleigh product channel: SNR distribution, moments, and
the two SNR parameterizations.

The instantaneous SNR is gamma = snr_scale * g_f * g_b with unit-mean
exponential power gains whose power correlation is rho, so
E{g_f g_b} = 1 + rho.  Two conventions coexist:

* fixed receiver SNR: gamma_bar = E{gamma} is prescribed directly;
* fixed power budget: the transmit-referenced SNR snr_I is prescribed
  and the receiver mean picks up the correlation bonus,
  gamma_bar = snr_I * (1 + rho).

For rho < 1 the density is a product of Bessel functions; at rho = 1 both
gains are one G ~ Exp(1), and sqrt(gamma) is exponential.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import exponential_tail_cutoff, gauss_legendre_rule, tanh_sinh
from .special_functions import (
    EULER_GAMMA,
    bessel_i0_scaled,
    bessel_k0_scaled,
    hyp2f1_neg_int,
)

FIXED_RECEIVER_SNR = "fixed_receiver_snr"
FIXED_POWER_BUDGET = "fixed_power_budget"
MODES = (FIXED_RECEIVER_SNR, FIXED_POWER_BUDGET)


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


@dataclass(frozen=True)
class ChannelParams:
    """Mean receiver SNR and power correlation, with the derived kernel
    constants of the product-fading density."""

    gamma_bar: float
    rho: float

    def __post_init__(self):
        if not (self.gamma_bar > 0 and math.isfinite(self.gamma_bar)):
            raise DomainError("gamma_bar must be positive and finite")
        if not (0.0 <= self.rho <= 1.0):
            raise DomainError("rho must lie in [0, 1]")

    @property
    def _one_minus_rho(self) -> float:
        if self.rho == 1.0:  # the density is exponential there, see _pdf_t
            raise DomainError("the Bessel-form constants a, b, pdf_scale need rho < 1")
        return 1.0 - self.rho

    @property
    def a(self) -> float:
        return (2.0 / self._one_minus_rho) * math.sqrt((1.0 + self.rho) / self.gamma_bar)

    @property
    def b(self) -> float:
        return self.a * math.sqrt(self.rho)

    @property
    def pdf_scale(self) -> float:
        """Constant factor (2/gamma_bar)(1+rho)/(1-rho) of the density."""
        return (2.0 / self.gamma_bar) * (1.0 + self.rho) / self._one_minus_rho

    @property
    def tail_rate(self) -> float:
        """Rate of the density tail exp(-rate t) in t = sqrt(gamma)."""
        if self.rho == 1.0:
            return math.sqrt(2.0 / self.gamma_bar)
        return self.a - self.b


@dataclass(frozen=True)
class Parameterization:
    """A swept SNR point: which convention the value uses, plus rho."""

    mode: str
    snr_value: float            # linear; gamma_bar or snr_I depending on mode
    rho: float

    def __post_init__(self):
        if self.mode not in MODES:
            raise DomainError(f"mode must be one of {MODES}")
        if not (self.snr_value > 0 and math.isfinite(self.snr_value)):
            raise DomainError("snr_value must be positive and finite")
        if not (0.0 <= self.rho <= 1.0):
            raise DomainError("rho must lie in [0, 1]")

    @property
    def gamma_bar(self) -> float:
        if self.mode == FIXED_RECEIVER_SNR:
            return self.snr_value
        return self.snr_value * (1.0 + self.rho)

    @property
    def snr_budget(self) -> float:
        if self.mode == FIXED_POWER_BUDGET:
            return self.snr_value
        return self.snr_value / (1.0 + self.rho)

    def channel_params(self) -> ChannelParams:
        return ChannelParams(self.gamma_bar, self.rho)


def pdf(params: ChannelParams, gamma):
    """Density of the instantaneous SNR, _pdf_t(sqrt(gamma)) / (2 sqrt(gamma))."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise DomainError("pdf requires finite gamma > 0")
    t = np.sqrt(np.atleast_1d(g))
    vals = _pdf_t(params, t) / (2.0 * t)
    return float(vals[0]) if g.ndim == 0 else vals


def _pdf_t(params: ChannelParams, t: np.ndarray) -> np.ndarray:
    """Density of t = sqrt(gamma), pdf(t^2) * 2 t.  For rho < 1 the scaled
    form 2 pdf_scale t I0e(b t) K0e(a t) exp((b-a) t) stays representable
    where the raw Bessel product would overflow; at rho = 1 both links carry
    one gain G ~ Exp(1), so t = sqrt(snr_budget) G is exponential."""
    if params.rho == 1.0:
        d = params.tail_rate
        return d * np.exp(-d * t)
    a, b = params.a, params.b
    return params.pdf_scale * 2.0 * t * bessel_i0_scaled(b * t) * bessel_k0_scaled(a * t) \
        * np.exp((b - a) * t)


# Panel edges below every query point: t_cap * 2^-k, so no panel spans more
# than a factor of 2 toward the K0 log singularity of the density at t = 0,
# and t_cap * j/32, so none spans more than 1/32 of the exponential tail.
_CDF_LADDER = np.concatenate([2.0 ** -np.arange(40), np.arange(1, 32) / 32.0])


def cdf(params: ChannelParams, gamma):
    """P(SNR <= gamma), for any shape and order of gamma.

    The density is integrated once in t = sqrt(gamma): the query points,
    clipped at the tail cutoff, and a graded ladder toward t = 0 cut
    [0, t_cap] into panels, each summed by an 8-node Gauss rule, and the
    running sum of the panel masses is the CDF at every edge.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise DomainError("cdf requires finite gamma >= 0")
    t_cap = exponential_tail_cutoff(params.tail_rate, 1.0)
    t = np.minimum(np.sqrt(g.ravel()), t_cap)
    edges, where = np.unique(np.concatenate([[0.0], t_cap * _CDF_LADDER, t]),
                             return_inverse=True)
    lo, width = edges[:-1], np.diff(edges)
    u, w = gauss_legendre_rule(8)
    vals = _pdf_t(params, (lo[:, None] + width[:, None] * u).ravel())
    mass = np.concatenate([[0.0], np.cumsum((vals.reshape(-1, u.size) @ w) * width)])
    # the query points follow t = 0 and the ladder in the concatenation
    out = np.minimum(mass[where[1 + _CDF_LADDER.size:]], 1.0)
    return float(out[0]) if g.ndim == 0 else out.reshape(g.shape)


def moment(params: ChannelParams, k: float) -> float:
    """E{gamma^k} = gamma_bar^k (1+rho)^{-k} Gamma(1+k)^2 2F1(-k,-k;1;rho).

    The 2F1 factor is the exact finite sum at integer k, so E{gamma^0} = 1
    exactly.  At other k it is the mean of |1 + r e^{i phi}|^{2k} over the
    circle, r = sqrt(rho): Laplace's integral (1/pi) int_0^pi ((1-r)^2 +
    4 r sin^2(phi/2))^k dphi, whose base cannot cancel at any rho in [0, 1].
    """
    if not 0 <= k < math.inf:
        raise DomainError("moment order must be finite and >= 0")
    if float(k).is_integer():
        f = hyp2f1_neg_int(int(k), params.rho)
    else:
        r = math.sqrt(params.rho)
        res = tanh_sinh(lambda phi: ((1.0 - r) ** 2 + 4.0 * r * np.sin(0.5 * phi) ** 2) ** k,
                        0.0, math.pi, rel_tol=1e-14)
        if not res.converged:
            raise ConvergenceError("moment integral did not converge",
                                   {"k": k, "rho": params.rho, "nodes": res.n_nodes})
        f = res.value / math.pi
    log_m = k * math.log(params.gamma_bar) - k * math.log1p(params.rho) \
        + 2.0 * math.lgamma(1.0 + k)
    return math.exp(log_m) * f


def moment_log_derivative(rho: float) -> float:
    """d/dk of the normalized moment E{gamma^k}/gamma_bar^k at k = 0:
    -2 gamma_e - ln(1+rho)."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [0, 1]")
    return -2.0 * EULER_GAMMA - math.log1p(rho)
