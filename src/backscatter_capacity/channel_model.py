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
from .quadrature import exponential_tail_cutoff, tanh_sinh
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
    """Mean receiver SNR and power correlation, and the density's tail rate."""

    gamma_bar: float
    rho: float

    def __post_init__(self):
        if not (self.gamma_bar > 0 and math.isfinite(self.gamma_bar)):
            raise DomainError("gamma_bar must be positive and finite")
        if not (0.0 <= self.rho <= 1.0):
            raise DomainError("rho must lie in [0, 1]")

    @property
    def tail_rate(self) -> float:
        """Rate of the density tail exp(-rate t) in t = sqrt(gamma),
        2 sqrt((1+rho)/gamma_bar)/(1+sqrt(rho)), in the form that does not
        cancel as rho -> 1 and is sqrt(2/gamma_bar) at rho = 1."""
        return 2.0 * math.sqrt((1.0 + self.rho) / self.gamma_bar) / (1.0 + math.sqrt(self.rho))


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
    """Density of the instantaneous SNR, rate^2 f_U(u) / (2 u) in terms of
    the density f_U of u = rate sqrt(gamma), rate = tail_rate."""
    g = np.asarray(gamma, dtype=float)
    if np.any(g <= 0) or not np.all(np.isfinite(g)):
        raise DomainError("pdf requires finite gamma > 0")
    rate = params.tail_rate
    u = np.sqrt(np.atleast_1d(g))
    u *= rate  # in place: one array of the grid's size stays alive, not two
    vals = _pdf_u(params.rho, u, 0.5 * rate * rate) / u
    return float(vals[0]) if g.ndim == 0 else vals


def _pdf_u(rho: float, u: np.ndarray, scale: float = 1.0) -> np.ndarray:
    """scale times the density of u = tail_rate sqrt(gamma), which does not
    depend on gamma_bar.  At rho = 1 both links carry one gain G ~ Exp(1)
    and u = G, so the density is e^{-u}.  Below it, with
    kappa = (1+sqrt(rho))/(1-rho), the density is
    (1-rho) kappa^2 u I0e((kappa-1) u) K0e(kappa u) e^{-u}, where
    (1-rho) kappa^2 = (1+sqrt(rho)) kappa: the scaled
    Bessel form stays representable where the raw product would overflow,
    the exponent -u is exact and kappa - 1 is formed as sqrt(rho) kappa, so
    nothing cancels as rho -> 1."""
    if rho == 1.0:
        return scale * np.exp(-u)
    r = math.sqrt(rho)
    kappa = (1.0 + r) / (1.0 - rho)
    return (scale * (1.0 + r) * kappa) * u * bessel_i0_scaled(r * kappa * u) \
        * bessel_k0_scaled(kappa * u) * np.exp(-u)


# the support of cdf and the capacity integral in u: u^2 e^{-u} drops by e^-46
_U_MAX = exponential_tail_cutoff(2.0)

# Panel edges below every query point: _U_MAX * 2^-k, so no panel spans more
# than a factor of 2 toward the K0 log singularity of the density at u = 0,
# and _U_MAX * j/32, so none spans more than 1/32 of the exponential tail.
_CDF_LADDER = _U_MAX * np.concatenate([2.0 ** -np.arange(40), np.arange(1, 32) / 32.0])
# cdf's 8-node Gauss-Legendre rule on [0, 1], numpy's leggauss(8) mapped from [-1, 1] and
# written out: computing it would load numpy.polynomial or LAPACK on import
_GAUSS_NODES = np.array([0.019855071751231912, 0.10166676129318664, 0.2372337950418355,
                         0.4082826787521751, 0.5917173212478248, 0.7627662049581645,
                         0.8983332387068134, 0.9801449282487681])
_GAUSS_WEIGHTS = np.array([0.05061426814518853, 0.11119051722668721, 0.15685332293894344,
                           0.18134189168918083])[[0, 1, 2, 3, 3, 2, 1, 0]]


def cdf(params: ChannelParams, gamma):
    """P(SNR <= gamma), for any shape and order of gamma.

    The density of u = tail_rate sqrt(gamma) is integrated once: the query
    points, clipped at _U_MAX, and a graded ladder toward u = 0 cut
    [0, _U_MAX] into panels, each summed by an 8-node Gauss rule, and the
    running sum of the panel masses is the CDF at every edge.
    """
    g = np.asarray(gamma, dtype=float)
    if np.any(g < 0) or not np.all(np.isfinite(g)):
        raise DomainError("cdf requires finite gamma >= 0")
    u = np.minimum(params.tail_rate * np.sqrt(g.ravel()), _U_MAX)
    edges, where = np.unique(np.concatenate([[0.0], _CDF_LADDER, u]), return_inverse=True)
    lo, width = edges[:-1], np.diff(edges)
    vals = _pdf_u(params.rho, lo[:, None] + width[:, None] * _GAUSS_NODES)
    mass = np.concatenate([[0.0], np.cumsum((vals @ _GAUSS_WEIGHTS) * width)])
    # the query points follow u = 0 and the ladder in the concatenation
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
