"""Double-exponential (tanh-sinh) quadrature on finite intervals.

The transform x = mid + half*tanh(pi/2 * sinh(u)) clusters nodes at both
endpoints, which absorbs the logarithmic endpoint singularity of the
K0-type integrands evaluated here.  Refinement halves the trapezoidal
step in u and reuses previous nodes; the error estimate is the change
between consecutive levels (_halve, which the series contour shares).

The ladder is evaluated in one pass: the nodes and weights of levels 0-5
(383 nodes) are mapped onto (a, b) once and cached per interval, each call
evaluates the integrand once on every node and sums all levels in one
reduction (_zero_led_sums, which the contour shares); the levels are tested
one by one as if evaluated one at a time, so results do not depend on how
far the pass reached.  A deeper level maps its own u-table afresh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import DomainError

# default relative tolerance of every quadrature-backed computation
REL_TOL = 1e-10
_HALF_PI = math.pi / 2.0
# |u| beyond this leaves the endpoint offset subnormal and adds nothing.
_LADDER_U_END = 6.0
# absolute floor of the convergence test, for integrals that vanish
_ABS_TOL = 1e-14
_MAX_NODES = 200_000  # node budget of one refinement, read at call time
_LOG_DROP = 46.0
_MIN_REL_TOL = 100 * np.finfo(float).eps


def _check_rel_tol(rel_tol: float) -> float:
    """rel_tol if it lies in [100 eps, 1), else DomainError."""
    if not rel_tol > 0:
        raise DomainError("rel_tol must be strictly positive")
    if rel_tol < _MIN_REL_TOL:
        raise DomainError("rel_tol below 100*machine-epsilon is not honest")
    if rel_tol >= 1:
        raise DomainError("rel_tol must be below 1")
    return rel_tol


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    n_nodes: int
    levels: int
    converged: bool


# Levels 0.._LADDER_DEPTH (383 nodes) share one cached table and one call
# of the integrand; capacity points stop at levels 4-6, most at 5.  A deeper
# level gets a table and a call of its own (the node budget ends at level 15).
_LADDER_DEPTH = 5


def _level_nodes(h: float, end: float, first: int, last: int) -> list[np.ndarray]:
    """The nodes in [0, end) of trapezoid levels first..last of step h at
    level 0: all of level 0, then the odd multiples of h/2^level."""
    return [np.arange(h * 0.5 ** k, end, h * 0.5 ** (k - 1)) if k else np.arange(0.0, end, h)
            for k in range(first, last + 1)]


def _halve(sums: list, more, step: float, rel_tol: float, first_test: int) -> tuple:
    """(value, error, nodes, level, converged) of the trapezoid rule that
    halves step until two levels agree within max(rel_tol |value|, _ABS_TOL)
    from level first_test on, or until _MAX_NODES.  sums holds (sum, node
    count) per level, each past 0 of its new nodes only; more(level)
    appends the levels from len(sums) on."""
    value, n_nodes = step * sums[0][0], sums[0][1]
    err = math.inf
    level = 0
    while n_nodes < _MAX_NODES:
        level += 1
        step *= 0.5
        if level == len(sums):
            sums += more(level)
        odd, n_new = sums[level]
        n_nodes += n_new
        new_value = 0.5 * value + step * odd
        err = abs(new_value - value)
        value = new_value
        if level >= first_test and err <= max(rel_tol * abs(value), _ABS_TOL):
            return value, err, n_nodes, level, True
    return value, err, n_nodes, level, False


@lru_cache(maxsize=16)
def _ladder(first: int, last: int) -> tuple:
    """The arrays of levels first..last that depend on u only, in (level,
    sign) segment order: the t >= 0 mask, e^{-2|t|}, 1 + e^{-2|t|}, cosh u
    and sech^2 t for t = pi/2 sinh u, plus each segment's (never empty) start."""
    segments = []
    for u_pos in _level_nodes(1.0, _LADDER_U_END, first, last):
        segments += [u_pos, -u_pos[u_pos > 0]]  # u = 0 only once
    u = np.concatenate(segments)
    t = _HALF_PI * np.sinh(u)
    et = np.exp(-2.0 * np.abs(t))
    onep = 1.0 + et
    table = (t >= 0, et, onep, np.cosh(u), 4.0 * et / onep ** 2,
             np.cumsum([0] + [s.size for s in segments[:-1]]))
    for arr in table:
        arr.flags.writeable = False
    return table


@lru_cache(maxsize=32)
def _zero_led_layout(sizes: tuple[int, ...]) -> tuple:
    """(slots, starts, sizes) of a row holding each segment of the given sizes
    behind one zero: the values' and the zeros' positions, read-only."""
    seg = np.arange(len(sizes))
    starts = np.cumsum(sizes) - sizes + seg
    slots = np.arange(sum(sizes)) + np.repeat(seg + 1, sizes)
    starts.flags.writeable = slots.flags.writeable = False
    return slots, starts, sizes


def _zero_led_sums(values: np.ndarray, layout: tuple) -> list[float]:
    """Each segment's sum of values laid out by _zero_led_layout, from one
    np.add.reduceat over a fresh zero-led row: np.add.reduce's bits, 0.0 if empty."""
    slots, starts, _ = layout
    row = np.zeros(slots.size + starts.size)
    row[slots] = values
    return np.add.reduceat(row, starts).tolist()


def _mapped(a: float, b: float, ladder: tuple) -> tuple:
    """The read-only nodes x and weights w of ladder mapped onto (a, b),
    without the nodes that round onto an endpoint or carry no weight, and
    the _zero_led_layout of their (level, sign) segments.  Offsets from the
    endpoints are computed directly from 1 - tanh(t) = 2/(1 + e^{2t}) so
    nodes never round onto a or b."""
    pos, et, onep, cosh_u, sech2, firsts = ladder
    half = 0.5 * (b - a)
    # distance from the nearer endpoint, exact for large |t|
    delta = half * 2.0 * et / onep
    x = np.where(pos, b - delta, a + delta)
    w = half * _HALF_PI * cosh_u * sech2
    keep = (delta > 0) & (w > 0)
    x, w = x[keep], w[keep]
    x.flags.writeable = w.flags.writeable = False
    return x, w, _zero_led_layout(tuple(np.add.reduceat(keep, firsts, dtype=np.intp).tolist()))


@lru_cache(maxsize=16)
def _mapped_ladder(a: float, b: float) -> tuple:
    """_mapped for levels 0.._LADDER_DEPTH, shared per (a, b)."""
    return _mapped(a, b, _ladder(0, _LADDER_DEPTH))


def _level_sums(f, mapped: tuple) -> list[tuple[float, int]]:
    """(sum of w f, node count) of each level of mapped, from one call of f.
    A level's sign segments are summed apart, t >= 0 first, and added to a
    running total from 0.0."""
    x, w, layout = mapped
    sums, n = _zero_led_sums(w * f(x), layout), layout[2]
    return [(0.0 + sums[k] + sums[k + 1], n[k] + n[k + 1]) for k in range(0, len(n), 2)]


def tanh_sinh(
    f: Callable[[np.ndarray], np.ndarray],
    a: float,
    b: float,
    rel_tol: float = REL_TOL,
) -> QuadratureResult:
    """Integrate a vectorized integrand over a finite [a, b] with a < b.

    f must accept an ndarray of abscissae strictly inside (a, b) and
    return finite values there; integrable endpoint singularities are
    allowed.  It is called once for levels 0-5 and once per deeper level.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError("finite interval with a < b required")
    return QuadratureResult(*_halve(_level_sums(f, _mapped_ladder(a, b)),
                                    lambda k: _level_sums(f, _mapped(a, b, _ladder(k, k))),
                                    1.0, rel_tol, 2))


def exponential_tail_cutoff(poly_power: float) -> float:
    """Upper limit U where exp(-u) u^poly_power, poly_power > 0, has dropped
    by exp(-_LOG_DROP) relative to its peak at u = poly_power."""
    u = poly_power + _LOG_DROP
    for _ in range(4):
        u = poly_power + (_LOG_DROP + poly_power * math.log(u / poly_power))
    return u
