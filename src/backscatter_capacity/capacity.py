"""Average capacity of the correlated product channel, four ways.

* capacity_quadrature -- direct integration of log2(1+gamma) against the
  density, in u = tail_rate sqrt(gamma) with scaled Bessel factors;
* capacity_series -- the Meijer-G series summed over all Bessel orders in
  closed form: one Mellin-Barnes contour integral of a Meijer kernel times
  a 2F1(-s, -s; 1; rho) factor;
* capacity_high_snr / capacity_high_snr_budget -- slope-1 asymptotes from
  the moment derivative at order zero;
* capacity_low_snr -- first-moment approximation.

AWGN and single-Rayleigh references used by the sweep datasets live here
too.  Every route covers rho in [0, 1], full correlation included.  All
functions are pure; estimates carry an error bound (NaN marks asymptotes,
whose remainder is not computed yet).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .channel_model import (
    _U_MAX,
    ChannelParams,
    Parameterization,
    _pdf_u,
    moment_log_derivative,
)
from .errors import ConvergenceError, DomainError
from .quadrature import REL_TOL, _check_rel_tol, tanh_sinh
from .special_functions import (
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
# memoized node arrays hold at most this many nodes: the deeper levels that
# only tight tolerances reach would hold megabytes per entry
_MEMO_MAX_NODES = 1024


@dataclass(frozen=True)
class CapacityEstimate:
    value: float                     # bps/Hz
    error_bound: float               # bps/Hz; NaN for asymptotes
    diagnostics: dict = field(default_factory=dict)


class _NodeKey:
    """A node array as a memo key, equal to the key of any equal array.  A
    read-only array that owns its data, as the node tables cached per
    interval by _mapped_ladder and per contour by _mb_first_pass do, is held
    as it is and matches itself without reading its nodes; any other array
    is held as a read-only copy."""
    __slots__ = ("nodes",)

    def __init__(self, nodes: np.ndarray):
        if nodes.flags.writeable or nodes.base is not None:
            nodes = nodes.copy()
            nodes.flags.writeable = False
        self.nodes = nodes

    def __hash__(self) -> int:
        return self.nodes.size

    def __eq__(self, other) -> bool:
        a, b = self.nodes, other.nodes
        return a is b or (a.shape == b.shape and a.dtype == b.dtype
                          and a.tobytes() == b.tobytes())


def _memo_per_rho(kernel):
    """kernel(rho, nodes) -> (array, ...), memoized per (rho, node array):
    up to 128 entries, each array read-only so that every caller and thread
    can share it.  Keyed by the whole node array (_NodeKey), since the
    kernel may depend on all of it; arrays of more than _MEMO_MAX_NODES
    nodes are evaluated afresh."""
    @lru_cache(maxsize=128)
    def cached(rho: float, key: _NodeKey) -> tuple:
        out = kernel(rho, key.nodes)
        out[0].flags.writeable = False
        return out

    def memo(rho: float, nodes: np.ndarray) -> tuple:
        if nodes.size > _MEMO_MAX_NODES:
            return kernel(rho, nodes)
        return cached(rho, _NodeKey(nodes))

    memo.cache_clear, memo.cache_info = cached.cache_clear, cached.cache_info
    return memo


@_memo_per_rho
def _log2e_density(rho: float, u: np.ndarray) -> tuple:
    """(log2(e) times the density of u = tail_rate sqrt(gamma),)."""
    return (_pdf_u(rho, u, LOG2E),)


def capacity_quadrature(params: ChannelParams, rel_tol: float = REL_TOL) -> CapacityEstimate:
    """E{log2(1 + gamma)} by tanh-sinh quadrature in u = tail_rate sqrt(gamma),

        Int_0^U_MAX log2(1 + (u/tail_rate)^2) f_U(u) du.

    The density f_U does not depend on gamma_bar, and every point shares the
    interval [0, _U_MAX] and so the node array: log2(e) f_U is memoized per
    (rho, node array) and a further SNR at a cached rho costs one log1p
    pass.  t_max reports the cutoff in t = sqrt(gamma).
    """
    rho, rate = params.rho, params.tail_rate

    def integrand(u):
        t = u / rate
        return np.log1p(t * t) * _log2e_density(rho, u)[0]

    res = tanh_sinh(integrand, 0.0, _U_MAX, _check_rel_tol(rel_tol))
    if not res.converged:
        raise ConvergenceError(
            "capacity quadrature did not converge",
            {"gamma_bar": params.gamma_bar, "rho": rho,
             "nodes": res.n_nodes, "error_estimate": res.error_estimate})
    return CapacityEstimate(
        value=res.value,
        error_bound=res.error_estimate,
        diagnostics={"nodes": res.n_nodes, "levels": res.levels, "t_max": _U_MAX / rate},
    )


@_memo_per_rho
def _contour_factor(rho: float, s: np.ndarray) -> tuple:
    """(log2(e) 2F1(-s, -s; 1; rho), terms summed) on the complex nodes s.
    The 2F1's term count is set by its slowest node."""
    value, n = _hyp2f1_near_one(s, rho) if rho > _SERIES_SWITCH_RHO \
        else _hyp2f1_series(-s, 1.0, rho)
    return LOG2E * value, n


def capacity_series(params: ChannelParams, rel_tol: float = REL_TOL) -> CapacityEstimate:
    """Capacity as one Mellin-Barnes integral along a vertical line,

        log2(e)/(2 pi i) Int Gamma(s)^2 Gamma(1-s) Gamma(1+s)
                             ((1+rho)/gbar)^{-s} 2F1(-s, -s; 1; rho) ds:

    the Meijer kernel G^{3,1}_{1,3}, in closed form, times a 2F1 factor that
    sums the density's Bessel power series over all orders at once (Euler's
    transformation, DLMF 15.8.1): up to rho = 0.6 its power series in rho
    on Re s = 1/2, above it the connection formula in 1 - rho on Re s = 0.4,
    where 1 + 2s is never an integer.  terms_used counts 2F1 terms.

    The factor does not depend on gbar, so it is memoized per (rho, node
    array) by _memo_per_rho: 16 bytes per node, about 4 KB per entry for the
    usual 257 nodes, whose key is the contour's cached node table.
    """
    rho = params.rho
    near_one = rho > _SERIES_SWITCH_RHO
    terms = []

    def hyp2f1(s):
        factor, n = _contour_factor(rho, s)
        terms.append(n)
        return factor

    try:
        value, err, nodes = mellin_barnes_integral(
            0.4 if near_one else 0.5, (1.0 + rho) / params.gamma_bar, hyp2f1, rel_tol)
    except ConvergenceError as exc:
        raise ConvergenceError(
            "series did not converge",
            {"gamma_bar": params.gamma_bar, "rho": rho, **exc.diagnostics}) from exc
    return CapacityEstimate(value, err, {"terms_used": max(terms), "nodes": nodes})


def capacity_high_snr(params: ChannelParams) -> CapacityEstimate:
    """High-SNR asymptote log2(gbar) - 2 log2(e) gamma_e - log2(1+rho).

    Valid at rho = 1; may go negative at low SNR (callers judge
    applicability).  No remainder is computed (yet): the error bound is NaN.
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

