"""Self-contained special-function kernel.

Everything the capacity formulas need: exponentially scaled modified
Bessel functions I0/K0, a right-half-plane log-gamma, 2F1(-s, -s; 1; rho)
as the finite sum of the integer moments and as the Gauss hypergeometric
sums that serve the capacity series' contour, the scaled exponential
integral e^x E1(x), and that contour's Mellin-Barnes quadrature.

Scaled Bessel variants are the primitives: the product-fading integrands
combine I0(b t) K0(a t) with exp((b-a) t), which only stays representable
when the exponential factors are carried analytically.  K0 is its power
series for x <= 1, a Chebyshev expansion in ln x on (1, 22] and the
asymptotic series above; I0 is its power series up to 22 and the asymptotic
series above.  Both are within 1e-15 relative of mpmath on [1e-8, 1e6]
(at most 6.9e-16 measured).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError
from .quadrature import (_ABS_TOL, REL_TOL, _check_rel_tol, _halve, _level_nodes,
                         _zero_led_layout, _zero_led_sums)

EULER_GAMMA = 0.5772156649015328606
LOG2E = 1.4426950408889634074


# ----------------------------------------------------------------------
# scaled modified Bessel functions
# ----------------------------------------------------------------------

_I0_SERIES_COEF = np.array([1.0 / (math.factorial(k) ** 2) for k in range(45)])

_K0_HARMONIC = np.cumsum(1.0 / np.arange(1, 25))
_K0_SERIES_COEF = np.array(
    [_K0_HARMONIC[k - 1] / (math.factorial(k) ** 2) for k in range(1, 25)])


def _bessel_asymptotic_terms(n_terms: int = 20) -> np.ndarray:
    terms = np.empty(n_terms)
    terms[0] = 1.0
    for k in range(1, n_terms):
        terms[k] = terms[k - 1] * (2 * k - 1) ** 2 / (8.0 * k)
    return terms

_ASYM_TERMS = _bessel_asymptotic_terms()

# Upper end of the Chebyshev range of K0 and of the I0 power series; both
# asymptotic series are within 4e-16 from here on.  They omit a term of
# relative size e^{-2x} (DLMF 10.40): 7e-13 at x = 14, 8e-20 at x = 22.
_BESSEL_SWITCH = 22.0

# Chebyshev coefficients of sqrt(x) e^x K0(x) in y = 2 ln x / ln 22 - 1 on
# 1 < x <= 22: interpolation at the 22 first-kind nodes, computed with mpmath
# at 40 digits and rounded to double.  The branch cut of K0 lies at
# Im ln x = +-pi, so they decay geometrically; the first dropped one is 7e-19.
_K0_CHEB_COEF = (
    1.2094234163451103,
    0.04882133781144022,
    -0.01391729053212102,
    0.002162920812156568,
    -9.761415531882286e-05,
    -3.2182661018949244e-05,
    6.687821226286605e-06,
    -1.1495916245986423e-07,
    -1.42417942638068e-07,
    1.8366912656106437e-08,
    1.522998205275961e-09,
    -5.912283499678104e-10,
    1.6380941266071924e-11,
    1.3142860849899405e-11,
    -1.4605907771819136e-12,
    -2.1636496164705884e-13,
    5.191765743941238e-14,
    1.931638657334339e-15,
    -1.4276925741889846e-15,
    3.666039660211693e-17,
    3.3968309992009865e-17,
    -2.832136378538843e-18,
)
_BESSEL_CHUNK = 4096  # elements per block of every elementwise density map: 32 KB


def _blockwise(f, x: np.ndarray) -> np.ndarray:
    """The elementwise map f over x, of any shape, on flat blocks of
    _BESSEL_CHUNK elements: f's temporaries stay cache-sized, only the result
    is x-sized, and each element meets the operations of f(x), so the bits
    match it.  A non-contiguous x is copied once, in C order."""
    out = np.empty(x.shape)
    flat, xs = out.reshape(-1), x.reshape(-1)
    for lo in range(0, x.size, _BESSEL_CHUNK):
        flat[lo:lo + _BESSEL_CHUNK] = f(xs[lo:lo + _BESSEL_CHUNK])
    return out


def _check_real_input(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} requires finite input")
    return arr


def _i0_series(x: np.ndarray) -> np.ndarray:
    y = 0.25 * x * x
    acc = np.zeros_like(y)
    for c in _I0_SERIES_COEF[::-1]:
        acc = acc * y + c
    return acc


def _i0e_series(x: np.ndarray) -> np.ndarray:
    # d ln I0 / d ln(x^2/4) = (x/2) I1/I0 amplifies the rounding of x*x to
    # 5 ulp at x = 22, so its exact remainder (Dekker's product) goes back
    # in to first order, with I1/I0 ~ 2x/(1 + 2x)
    split = 134217729.0 * x
    hi = split - (split - x)
    lo = x - hi
    rem = ((hi * hi - x * x) + 2.0 * hi * lo) + lo * lo
    i0 = _i0_series(x)
    return (i0 + i0 * (rem / (1.0 + 2.0 * x))) * np.exp(-x)


def _poly_inv(x: np.ndarray, coeffs: np.ndarray, alternating: bool) -> np.ndarray:
    """Horner evaluation of sum coeffs[k] * (+-1)^k / x^k."""
    inv = 1.0 / x
    acc = np.zeros_like(x)
    sign = -1.0 if alternating else 1.0
    for k in range(len(coeffs) - 1, 0, -1):
        acc = (acc + coeffs[k] * sign ** k) * inv
    return acc + coeffs[0]


def bessel_i0_scaled(x):
    """exp(-x) * I0(x) for x >= 0.  Monotonically decreasing, never overflows."""
    arr = _check_real_input(x, "bessel_i0_scaled")
    if np.any(arr < 0):
        raise DomainError("bessel_i0_scaled requires x >= 0")
    out = np.empty_like(arr)

    small = arr <= _BESSEL_SWITCH
    out[small] = _blockwise(_i0e_series, arr[small])
    if np.any(~small):
        xl = arr[~small]
        out[~small] = _poly_inv(xl, _ASYM_TERMS, alternating=False) \
            / np.sqrt(2.0 * math.pi * xl)
    return float(out) if out.ndim == 0 else out


def _k0e_small(x: np.ndarray) -> np.ndarray:
    # K0 = -(ln(x/2)+gamma) I0 + sum_{k>=1} (x^2/4)^k H_k / (k!)^2, scaled by e^x
    y = 0.25 * x * x
    s = np.zeros_like(y)
    for c in _K0_SERIES_COEF[::-1]:
        s = (s + c) * y
    k0 = -(np.log(0.5 * x) + EULER_GAMMA) * _i0_series(x) + s
    return k0 * np.exp(x)


def _k0e_chebyshev(x: np.ndarray) -> np.ndarray:
    # Clenshaw's recurrence b_k = c_k + 2y b_{k+1} - b_{k+2}, each b_k
    # written over b_{k+2}, then (c_0 + y b_1 - b_2) / sqrt(x)
    y = np.log(x) * (2.0 / math.log(_BESSEL_SWITCH)) - 1.0
    y2 = y + y
    b1, b2 = np.full(x.size, _K0_CHEB_COEF[-1]), np.zeros(x.size)
    for c in _K0_CHEB_COEF[-2:0:-1]:
        np.subtract(y2 * b1, b2, out=b2)
        b2 += c
        b1, b2 = b2, b1
    return ((y * b1 - b2) + _K0_CHEB_COEF[0]) / np.sqrt(x)


def bessel_k0_scaled(x):
    """exp(x) * K0(x) for x > 0.  Never underflows for finite x."""
    arr = _check_real_input(x, "bessel_k0_scaled")
    if np.any(arr <= 0):
        raise DomainError("bessel_k0_scaled requires x > 0 (K0 diverges at 0)")
    out = np.empty_like(arr)

    small = arr <= 1.0
    mid = (arr > 1.0) & (arr <= _BESSEL_SWITCH)
    large = arr > _BESSEL_SWITCH
    if np.any(small):
        out[small] = _k0e_small(arr[small])
    out[mid] = _blockwise(_k0e_chebyshev, arr[mid])
    if np.any(large):
        xl = arr[large]
        out[large] = _poly_inv(xl, _ASYM_TERMS, alternating=True) \
            * np.sqrt(math.pi / (2.0 * xl))
    return float(out) if out.ndim == 0 else out


# ----------------------------------------------------------------------
# log-gamma (right half-plane)
# ----------------------------------------------------------------------

_LANCZOS_G = 7.0
_LANCZOS_COEF = np.array([
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
])
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


def _lanczos_right(z: np.ndarray) -> np.ndarray:
    """Log-gamma for Re(z) >= 0.5 (analytic there, no cut crossings)."""
    acc = np.full_like(z, _LANCZOS_COEF[0])
    for k in range(1, len(_LANCZOS_COEF)):
        acc = acc + _LANCZOS_COEF[k] / (z - 1.0 + k)
    t = z + (_LANCZOS_G - 0.5)
    return _LOG_SQRT_2PI + (z - 0.5) * np.log(t) - t + np.log(acc)


# ----------------------------------------------------------------------
# Gauss hypergeometric sums
# ----------------------------------------------------------------------

def hyp2f1_neg_int(k: int, rho: float) -> float:
    """2F1(-k, -k; 1; rho) as the exact (k+1)-term sum, equal to
    sum_m C(k, m)^2 rho^m.  Result is >= 1 on the allowed domain."""
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise DomainError("hyp2f1_neg_int requires an integer k >= 0")
    if not (0.0 <= rho <= 1.0):
        raise DomainError("hyp2f1_neg_int requires rho in [0, 1]")
    total = 0.0
    for m in range(k, -1, -1):
        total = total * rho + math.comb(k, m) ** 2
    return total


# Term cap of the 2F1 power series, which needs about log(eps)/log(z) terms.
# Only the capacity series' contour sums it, in powers of rho up to 0.6 and
# of 1 - rho above: at most 118 terms over -100...120 dB.
_HYP2F1_MAX_TERMS = 10_000


def _hyp2f1_series(a: np.ndarray, c, z: float):
    """(2F1(a, a; c; z), terms summed) by the power series, for 0 <= z < 1
    and real or complex a and c of any shape.

    One term ratio, one add and one stopping test per term.  Terms may grow
    while m is below |a|, so the stopping rule waits until m has passed it.
    """
    total = term = np.ones(a.shape, np.result_type(a, c, float))
    if z == 0.0:
        return total, 1
    a_abs = float(np.max(np.abs(a)))
    for m in range(_HYP2F1_MAX_TERMS):
        term = term * (z * (m + a) ** 2 / ((m + c) * (m + 1.0)))
        total = total + term
        if m > a_abs and np.all(np.abs(term) < 1e-17 * np.abs(total)):
            return total, m + 2
    raise ConvergenceError("2F1 power series did not converge",
                           {"a_abs": a_abs, "z": z, "terms": _HYP2F1_MAX_TERMS})


def _hyp2f1_near_one(s: np.ndarray, rho: float):
    """(2F1(-s, -s; 1; rho), terms summed) by the connection formula in
    w = 1 - rho (DLMF 15.8.4),

        Gamma(1+2s)/Gamma(1+s)^2 2F1(-s, -s; -2s; w)
          + w^{1+2s} Gamma(-1-2s)/Gamma(-s)^2 2F1(1+s, 1+s; 2+2s; w),

    for orders s of any shape with Re s >= -1/4 and 1 + 2s never an
    integer.  The second coefficient is tan(pi s) / (2 pi (1+2s)) over the
    first, Gauss's sum (DLMF 15.4.20), by reflection (DLMF 5.5.3), so two
    right-half-plane log-gammas serve.  At w = 0 Gauss's sum is left.
    """
    s = np.asarray(s, dtype=complex)
    w = 1.0 - rho
    gauss = np.exp(_lanczos_right(1.0 + 2.0 * s) - 2.0 * _lanczos_right(1.0 + s))
    if w == 0.0:
        return gauss, 1
    tail = np.exp((1.0 + 2.0 * s) * math.log(w)) * np.tan(math.pi * s) \
        / (2.0 * math.pi * (1.0 + 2.0 * s) * gauss)
    f1, n1 = _hyp2f1_series(-s, -2.0 * s, w)
    f2, n2 = _hyp2f1_series(1.0 + s, 2.0 + 2.0 * s, w)
    return gauss * f1 + tail * f2, max(n1, n2)


# ----------------------------------------------------------------------
# exponential integral E1, scaled
# ----------------------------------------------------------------------

def _e1_scaled_cf(x: float) -> float:
    """exp(x) * E1(x) for x > 1 by the modified Lentz continued fraction."""
    tiny = 1e-300
    b = x + 1.0
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, 200):
        an = -i * i
        b += 2.0
        d = 1.0 / (an * d + b)
        c = b + an / c
        delta = c * d
        h *= delta
        if abs(delta - 1.0) < 1e-16:
            break
    return h


def _e1_scalar(x: float) -> float:
    """E1(x) for 0 < x <= 1 by its power series."""
    total = 0.0
    term = 1.0
    for k in range(1, 30):
        term *= -x / k
        contrib = -term / k
        total += contrib
        if abs(contrib) < 1e-18 * max(abs(total), 1.0):
            break
    return -EULER_GAMMA - math.log(x) + total


def exp_integral_e1_scaled(x: float) -> float:
    """exp(x) * E1(x) for scalar x > 0; representable at any x where plain
    E1 would underflow against the exponential."""
    x = float(x)
    if not (math.isfinite(x) and x > 0):
        raise DomainError("exp_integral_e1_scaled requires finite x > 0")
    if x <= 1.0:
        return math.exp(x) * _e1_scalar(x)
    return _e1_scaled_cf(x)


# ----------------------------------------------------------------------
# the capacity series' Mellin-Barnes integral
# ----------------------------------------------------------------------

# |_mb_shape(s) z^{-s}| decays like exp(-2 pi |Im s|): it sets the truncation
_MB_DECAY_RATE = 2.0 * math.pi
# added to the contour's decay length: at rel_tol = 1e-10 the contour ends at
# |Im s| = 8.8, where _hyp2f1_series has lost no more than 1e-11 (rho <= 0.6)
_MB_CONTOUR_MARGIN = 4.0
# last trapezoid level of the contour's first factor call: every capacity
# point of the benchmark grid stops at level 2 (64 + 64 + 128 nodes)
_MB_DEPTH = 2


@np.errstate(divide="ignore", invalid="ignore", over="ignore")  # poles give inf or nan
def _mb_shape(s: np.ndarray) -> np.ndarray:
    """Gamma(s)^2 Gamma(1+s) Gamma(1-s), the z-free part of the Mellin-Barnes
    kernel of G^{3,1}_{1,3}[z | 0; 0,0,1], as pi Gamma(1+s)^2 / (s sin(pi s))
    by reflection and recurrence (DLMF 5.5.3, 5.5.1).  The one log-gamma,
    _lanczos_right(1+s), needs Re(1+s) >= 1/2, so the form is valid for
    Re s >= -1/2 off the integers, where the kernel has its poles."""
    return math.pi * np.exp(2.0 * _lanczos_right(1.0 + s)) / (s * np.sin(math.pi * s))


@lru_cache(maxsize=16)
def _mb_first_pass(c: float, T: float) -> tuple:
    """(h, s, shape, layout, -s) of a contour's first factor call on
    Re s = c: step h of level 0, the nodes s of levels 0.._MB_DEPTH in level
    order followed by the tail node c + iT, _mb_shape(s), the _zero_led_layout
    of s[1:-1] by level (level 0 past t = 0), and -s.  Arrays are read-only."""
    h = min(0.5, T / 64.0)
    nodes = _level_nodes(h, T, 0, _MB_DEPTH)
    s = c + 1j * np.concatenate(nodes + [np.array([T])])
    shape, neg_s = _mb_shape(s), -s
    s.flags.writeable = shape.flags.writeable = neg_s.flags.writeable = False
    layout = _zero_led_layout(tuple(t.size - (k == 0) for k, t in enumerate(nodes)))
    return h, s, shape, layout, neg_s


def mellin_barnes_integral(c: float, z: float, factor, rel_tol: float = REL_TOL):
    """(value, error_estimate, n_nodes) of
    1/(2 pi i) * Int _mb_shape(s) z^{-s} factor(s) ds along Re s = c, with
    z > 0, exploiting the conjugate symmetry of the kernel.  Any c at which
    both the kernel and the factor are valid will do: for the kernel that
    is c >= -1/2, c not an integer.

    factor maps an array of contour points s to complex values with
    factor(conj(s)) = conj(factor(s)) that stay bounded along the contour,
    so the kernel's decay rate still sets the truncation.

    The trapezoid rule on [0, T] halves its step until two levels agree.
    The nodes of levels 0.._MB_DEPTH and the tail node T go to factor in one
    call, and one reduction sums all those levels for the tests.  Those
    nodes and the kernel's z-free part on them are cached per (c, T), so a
    further z costs one z^{-s} pass.  A level past _MB_DEPTH calls factor
    on its own odd nodes.
    """
    T = (-math.log(_check_rel_tol(rel_tol) * 1e-3)) / _MB_DECAY_RATE + _MB_CONTOUR_MARGIN
    log_z = math.log(z)

    def g(s, neg_s, shape):
        vals = shape * np.exp(neg_s * log_z) * factor(s)
        return np.where(np.isfinite(vals), vals.real, 0.0)

    def more(level):  # the odd nodes of a level past _MB_DEPTH, in the current [0, T]
        s = c + 1j * _level_nodes(h, T, level, level)[0]
        odd = g(s, -s, _mb_shape(s))
        return [(float(np.add.reduce(odd)), odd.size)]

    for _attempt in range(4):
        h, s, shape, layout, neg_s = _mb_first_pass(c, T)
        first = g(s, neg_s, shape)
        sums = list(zip(_zero_led_sums(first[1:-1], layout), layout[2]))
        sums[0] = (float(first[0]) * 0.5 + sums[0][0], sums[0][1] + 1)  # with t = 0
        value, err, n_nodes, _, converged = _halve(sums, more, h / math.pi, rel_tol, 1)
        if not converged:
            raise ConvergenceError(
                "Mellin-Barnes quadrature did not reach tolerance",
                {"nodes": n_nodes, "T": T, "last_delta": err, "z": z})
        # empirical tail check against the exp(-rate t) bound
        tail = abs(float(first[-1])) / (_MB_DECAY_RATE * math.pi)
        if tail <= max(rel_tol * abs(value), _ABS_TOL):
            return value, err + tail, n_nodes
        T *= 1.5
    raise ConvergenceError("Mellin-Barnes tail did not close",
                           {"T": T, "tail": tail, "z": z})
