"""Double-exponential (tanh-sinh) quadrature on finite intervals.

The transform x = mid + half*tanh(pi/2 * sinh(u)) clusters nodes at both
endpoints, which absorbs the logarithmic endpoint singularity of the
K0-type integrands evaluated here.  Refinement halves the trapezoidal
step in u and reuses previous nodes; the error estimate is the change
between consecutive levels.

The ladder is evaluated in one pass: the arrays that depend on u only are
cached for levels 0-5 (383 nodes), each call maps them onto (a, b) and
calls the integrand once on every node, and the levels are then summed and
tested one by one as if they had been evaluated one at a time, so results
do not depend on how far the pass reached.  Deeper levels are evaluated
the same way, one cached table and one integrand call per level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

_HALF_PI = math.pi / 2.0
# |u| beyond this leaves the endpoint offset subnormal and adds nothing.
_U_MAX = 6.0
# absolute floor of the convergence test, for integrals that vanish
_ABS_TOL = 1e-14
_LOG_DROP = 46.0


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_nodes: int
    levels: int
    converged: bool


# Levels 0.._LADDER_DEPTH (383 nodes) share one cached table and one call
# of the integrand; every capacity point stops at level 5.  A deeper level
# gets a table and a call of its own (the default node budget ends at 15).
_LADDER_DEPTH = 5


@lru_cache(maxsize=16)
def _ladder(first: int, last: int) -> tuple:
    """The arrays of levels first..last that depend on u only, in (level,
    sign) segment order: the t >= 0 mask, e^{-2|t|}, 1 + e^{-2|t|}, cosh u
    and sech^2 t for t = pi/2 sinh u, plus the segment bounds."""
    segments = []
    for level in range(first, last + 1):
        h = 0.5 ** level
        u_pos = np.arange(h, _U_MAX, 2.0 * h) if level else np.arange(0.0, _U_MAX, h)
        segments += [u_pos, -u_pos[u_pos > 0]]  # u = 0 only once
    u = np.concatenate(segments)
    t = _HALF_PI * np.sinh(u)
    et = np.exp(-2.0 * np.abs(t))
    onep = 1.0 + et
    table = (t >= 0, et, onep, np.cosh(u), 4.0 * et / onep ** 2,
             np.cumsum([0] + [s.size for s in segments]))
    for arr in table:
        arr.flags.writeable = False
    return table


def _level_sums(f, a: float, b: float, ladder: tuple) -> list[tuple[float, int]]:
    """(sum of w f, node count) of each level of ladder, from one call of f.

    Offsets from the endpoints are computed directly from
    1 - tanh(t) = 2/(1 + e^{2t}) so nodes never round onto a or b.
    """
    pos, et, onep, cosh_u, sech2, bounds = ladder
    half = 0.5 * (b - a)
    # distance from the nearer endpoint, exact for large |t|
    delta = half * 2.0 * et / onep
    x = np.where(pos, b - delta, a + delta)
    w = half * _HALF_PI * cosh_u * sech2
    keep = (delta > 0) & (w > 0)
    wf = w[keep] * f(x[keep])
    kept = np.concatenate(([0], np.cumsum(keep)))[bounds]  # kept before each bound
    sums = []
    for seg in range(0, len(bounds) - 1, 2):
        total = 0.0
        for lo, hi in zip(kept[seg:seg + 2], kept[seg + 1:seg + 3]):  # t >= 0 first
            if hi > lo:
                total += float(np.sum(wf[lo:hi]))
        sums.append((total, int(kept[seg + 2] - kept[seg])))
    return sums


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = 1e-10,
    max_nodes: int = 200_000,
) -> QuadratureResult:
    """Integrate a vectorized integrand over a finite [a, b] with a < b.

    f must accept an ndarray of abscissae strictly inside (a, b) and
    return finite values there; integrable endpoint singularities are
    allowed.  It is called once for levels 0-5 and once per deeper level.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("finite interval with a < b required")
    sums = _level_sums(f, a, b, _ladder(0, _LADDER_DEPTH))
    value, n_nodes = sums[0]
    h = 1.0
    err = math.inf
    level = 0
    while n_nodes < max_nodes:
        level += 1
        h *= 0.5
        if level == len(sums):
            sums += _level_sums(f, a, b, _ladder(level, level))
        odd, n_new = sums[level]
        n_nodes += n_new
        new_value = 0.5 * value + h * odd
        err = abs(new_value - value)
        value = new_value
        if level >= 2 and err <= max(rel_tol * abs(value), _ABS_TOL):
            return QuadratureResult(value, err, n_nodes, level, True)
    return QuadratureResult(value, err, n_nodes, level, False)


@lru_cache(maxsize=8)
def gauss_legendre_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Cached Gauss-Legendre nodes/weights on [0, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def exponential_tail_cutoff(decay: float, poly_power: float) -> float:
    """Upper limit T where exp(-decay*t)*t^poly_power has dropped by
    exp(-_LOG_DROP) relative to its peak."""
    if decay <= 0:
        raise ValueError("decay must be positive")
    if poly_power <= 0:
        return _LOG_DROP / decay
    t_star = poly_power / decay
    t = t_star + _LOG_DROP / decay
    for _ in range(4):
        t = t_star + (_LOG_DROP + poly_power * math.log(t / t_star)) / decay
    return t
