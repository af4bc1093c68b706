"""Self-contained special-function kernel.

Everything the capacity formulas need: exponentially scaled modified
Bessel functions I0/K0, complex log-gamma, finite Gauss hypergeometric
sums and their parameter derivatives, the scaled exponential integral
e^x E1(x), and the vertical-contour quadrature of the capacity series'
Mellin-Barnes integral.

Scaled Bessel variants are the primitives: the product-fading integrands
combine I0(b t) K0(a t) with exp((b-a) t), which only stays representable
when the exponential factors are carried analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, ParameterError, PoleError
from .quadrature import gauss_legendre_rule

EULER_GAMMA = 0.5772156649015328606
LOG2E = 1.4426950408889634074
LN2 = 0.6931471805599453094

_EPS = np.finfo(float).eps


@dataclass(frozen=True)
class AccuracyPolicy:
    """Numerical tolerances shared by the quadrature-backed operations."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-14
    max_quadrature_nodes: int = 200_000
    contour_truncation_margin: float = 4.0

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0
                and self.contour_truncation_margin > 0):
            raise ParameterError("tolerances must be strictly positive")
        if self.rel_tol < 100 * _EPS:
            raise ParameterError("rel_tol below 100*machine-epsilon is not honest")
        if self.max_quadrature_nodes < 64:
            raise ParameterError("max_quadrature_nodes too small")


DEFAULT_POLICY = AccuracyPolicy()


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

_BESSEL_SWITCH = 14.0
_K0_QUAD_NODES = 160
_K0_CHUNK = 2048  # rows of one _k0e_quadrature temporary: 2048 x 160 doubles, 2.6 MB


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
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.empty_like(arr)

    small = arr <= _BESSEL_SWITCH
    if np.any(small):
        xs = arr[small]
        out[small] = _i0_series(xs) * np.exp(-xs)
    if np.any(~small):
        xl = arr[~small]
        out[~small] = _poly_inv(xl, _ASYM_TERMS, alternating=False) \
            / np.sqrt(2.0 * math.pi * xl)
    return float(out[0]) if scalar else out


def _k0e_small(x: np.ndarray) -> np.ndarray:
    # K0 = -(ln(x/2)+gamma) I0 + sum_{k>=1} (x^2/4)^k H_k / (k!)^2, scaled by e^x
    y = 0.25 * x * x
    s = np.zeros_like(y)
    for c in _K0_SERIES_COEF[::-1]:
        s = (s + c) * y
    k0 = -(np.log(0.5 * x) + EULER_GAMMA) * _i0_series(x) + s
    return k0 * np.exp(x)


def _k0e_quadrature(x: np.ndarray) -> np.ndarray:
    # e^x K0(x) = \int_0^inf exp(-x (cosh t - 1)) dt, cut where the drop
    # reaches e^-46; the integrand is smooth so Gauss-Legendre saturates.
    u, w = gauss_legendre_rule(_K0_QUAD_NODES)
    out = np.empty_like(x)
    for lo in range(0, x.size, _K0_CHUNK):
        xs = x[lo:lo + _K0_CHUNK]
        T = np.arccosh(1.0 + 46.0 / xs)
        t = T[:, None] * u[None, :]
        vals = np.exp(-xs[:, None] * (np.cosh(t) - 1.0))
        out[lo:lo + _K0_CHUNK] = T * (vals @ w)
    return out


def bessel_k0_scaled(x):
    """exp(x) * K0(x) for x > 0.  Never underflows for finite x."""
    arr = _check_real_input(x, "bessel_k0_scaled")
    if np.any(arr <= 0):
        raise DomainError("bessel_k0_scaled requires x > 0 (K0 diverges at 0)")
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr).astype(float)
    out = np.empty_like(arr)

    small = arr <= 1.0
    mid = (arr > 1.0) & (arr <= _BESSEL_SWITCH)
    large = arr > _BESSEL_SWITCH
    if np.any(small):
        out[small] = _k0e_small(arr[small])
    if np.any(mid):
        out[mid] = _k0e_quadrature(arr[mid])
    if np.any(large):
        xl = arr[large]
        out[large] = _poly_inv(xl, _ASYM_TERMS, alternating=True) \
            * np.sqrt(math.pi / (2.0 * xl))
    return float(out[0]) if scalar else out


# ----------------------------------------------------------------------
# log-gamma (complex)
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


def _log_cut_down(w: np.ndarray) -> np.ndarray:
    """Complex log with the branch cut rotated onto the downward imaginary
    axis, so vertical lines not through the origin never cross it."""
    ang = np.angle(w)
    ang = np.where(ang <= -0.5 * math.pi, ang + 2.0 * math.pi, ang)
    return np.log(np.abs(w)) + 1j * ang


def _ln_gamma_array(z: np.ndarray) -> np.ndarray:
    """Vectorized log-gamma, continuous along any vertical line that avoids
    the poles.  Poles map to +inf (i.e. 1/Gamma = 0 after exponentiation)."""
    z = np.asarray(z, dtype=complex)
    out = np.empty_like(z)
    right = z.real >= 0.5
    if np.any(right):
        out[right] = _lanczos_right(z[right])
    if np.any(~right):
        zl = z[~right]
        # shift into the right half-plane; logs carry downward cuts so the
        # result stays continuous along pole-avoiding vertical contours
        m = int(np.max(np.ceil(0.5 - zl.real)))
        shift = np.zeros_like(zl)
        w = zl.copy()
        for _ in range(m):
            need = w.real < 0.5
            with np.errstate(divide="ignore", invalid="ignore"):
                shift[need] += _log_cut_down(w[need])
            w[need] += 1.0
        out[~right] = _lanczos_right(w) - shift
    return out


def ln_gamma_complex(z):
    """Log-gamma of a complex argument with exp(result) == Gamma(z).

    Branch chosen so the value is continuous along vertical contours that
    avoid the poles (cuts run downward from each pole).
    """
    z_arr = np.asarray(z, dtype=complex)
    if not np.all(np.isfinite(z_arr)):
        raise DomainError("ln_gamma_complex requires finite input")
    at_pole = (z_arr.imag == 0) & (z_arr.real <= 0) & (z_arr.real == np.floor(z_arr.real))
    if np.any(at_pole):
        raise PoleError("ln_gamma_complex evaluated at a pole of Gamma")
    scalar = z_arr.ndim == 0
    out = _ln_gamma_array(np.atleast_1d(z_arr))
    return complex(out[0]) if scalar else out


# ----------------------------------------------------------------------
# finite Gauss hypergeometric sums and derivatives
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


# Term cap of the 2F1 power series, which needs about log(eps)/log(z)
# terms.  capacity_series stays far below it: it sums in powers of rho only
# up to rho = 0.6, in powers of 1 - rho above.  hyp2f1_symmetric at real
# non-integer k still reaches it above rho = 0.9998 (0.9999 needs 390,000).
_HYP2F1_MAX_TERMS = 200_000


def hyp2f1_symmetric(k: float, rho: float) -> float:
    """2F1(-k, -k; 1; rho) for real k >= 0: the exact finite sum at integer
    k, Gauss's sum at rho = 1, the convergent series otherwise."""
    if k < 0:
        raise DomainError("order must be >= 0")
    if float(k).is_integer():
        return hyp2f1_neg_int(int(k), rho)
    if not (0.0 <= rho <= 1.0):
        raise DomainError("hyp2f1_symmetric requires rho in [0, 1]")
    k = np.asarray(k, dtype=float)
    if rho == 1.0:
        return float(_hyp2f1_near_one(k, rho)[0].real)
    return float(_hyp2f1_series(-k, 1.0, rho)[0])


def _hyp2f1_series(a: np.ndarray, c, z: float):
    """(2F1(a, a; c; z), terms summed) by the power series, for 0 <= z < 1
    and real or complex a and c of any shape.

    One array of terms, shaped like a, is carried from term to term, so
    memory does not grow with the term count.  Terms may grow while m is
    below |a|, so the stopping rule waits until m has passed it.
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

    for orders s of any shape with Re(1 + 2s) > 0 and 1 + 2s never an
    integer.  At w = 0 Gauss's sum Gamma(1+2s)/Gamma(1+s)^2 (DLMF 15.4.20)
    is left.
    """
    s = np.asarray(s, dtype=complex)
    w = 1.0 - rho
    gauss = np.exp(_ln_gamma_array(1.0 + 2.0 * s) - 2.0 * _ln_gamma_array(1.0 + s))
    if w == 0.0:
        return gauss, 1
    tail = np.exp((1.0 + 2.0 * s) * math.log(w) + _ln_gamma_array(-1.0 - 2.0 * s)
                  - 2.0 * _ln_gamma_array(-s))
    f1, n1 = _hyp2f1_series(-s, -2.0 * s, w)
    f2, n2 = _hyp2f1_series(1.0 + s, 2.0 + 2.0 * s, w)
    return gauss * f1 + tail * f2, max(n1, n2)


def hyp2f1_cross_derivative(a: int, b: int, rho: float) -> float:
    """Mixed derivative d^2/da db of 2F1(-a, -b; 1; rho) at non-negative
    integer (a, b), as the finite sum over m <= min(a, b)."""
    for name, v in (("a", a), ("b", b)):
        if not isinstance(v, (int, np.integer)) or v < 0:
            raise DomainError(f"hyp2f1_cross_derivative requires integer {name} >= 0")
    if not (0.0 <= rho < 1.0):
        raise DomainError("hyp2f1_cross_derivative requires rho in [0, 1)")

    def factor(n: int, m: int) -> float:
        # Gamma(n+1)(psi(n+1)-psi(n-m+1))/Gamma(n-m+1)
        #   = P(n, m) * (H_n - H_{n-m})
        perm = math.perm(n, m)
        harm = sum(1.0 / j for j in range(n - m + 1, n + 1))
        return perm * harm

    total = 0.0
    for m in range(min(a, b), -1, -1):
        total += factor(a, m) * factor(b, m) * rho ** m / math.factorial(m) ** 2
    return total


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


def exp_integral_e1_scaled(x):
    """exp(x) * E1(x) for x > 0; representable at any x where plain E1
    would underflow against the exponential."""
    arr = _check_real_input(x, "exp_integral_e1_scaled")
    if np.any(arr <= 0):
        raise DomainError("exp_integral_e1_scaled requires x > 0")

    def scaled(v: float) -> float:
        if v <= 1.0:
            return math.exp(v) * _e1_scalar(v)
        return _e1_scaled_cf(v)

    if arr.ndim == 0:
        return scaled(float(arr))
    return np.array([scaled(float(v)) for v in arr.ravel()]).reshape(arr.shape)


# ----------------------------------------------------------------------
# the capacity series' Mellin-Barnes integral
# ----------------------------------------------------------------------

# |_mb_kernel(c + it, z)| decays like exp(-2 pi |t|); this sets the truncation
_MB_DECAY_RATE = 2.0 * math.pi


def _mb_kernel(s: np.ndarray, z: float) -> np.ndarray:
    """Gamma(s)^2 Gamma(1+s) Gamma(1-s) z^{-s}, the Mellin-Barnes kernel of
    G^{3,1}_{1,3}[z | 0; 0,0,1], as pi Gamma(1+s)^2 z^{-s} / (s sin(pi s))
    by reflection and recurrence (DLMF 5.5.3, 5.5.1).  Re(1+s) > 1 on every
    contour 0 < Re s < 1, so one right-half-plane log-gamma serves."""
    return math.pi * np.exp(2.0 * _lanczos_right(1.0 + s) - s * math.log(z)) \
        / (s * np.sin(math.pi * s))


def mellin_barnes_integral(c: float, z: float, factor,
                           policy: AccuracyPolicy = DEFAULT_POLICY):
    """(value, error_estimate, n_nodes) of
    1/(2 pi i) * Int _mb_kernel(s, z) factor(s) ds along Re s = c, with
    0 < c < 1 and z > 0, exploiting the conjugate symmetry of the kernel.

    factor maps an array of contour points s to complex values with
    factor(conj(s)) = conj(factor(s)) that stay bounded along the contour,
    so the kernel's decay rate still sets the truncation.
    """
    T = (-math.log(policy.rel_tol * 1e-3)) / _MB_DECAY_RATE + policy.contour_truncation_margin

    def g(t):
        s = c + 1j * t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = _mb_kernel(s, z) * factor(s)
        return np.where(np.isfinite(vals), vals, 0.0).real

    for _attempt in range(4):
        h = min(0.5, T / 64.0)
        t = np.arange(0.0, T, h)
        vals = g(t)
        total = float(vals[0]) * 0.5 + float(np.sum(vals[1:]))
        value = (h / math.pi) * total
        n_nodes = t.size
        err = math.inf
        converged = False
        while n_nodes < policy.max_quadrature_nodes:
            h *= 0.5
            t_odd = np.arange(h, T, 2.0 * h)
            odd_sum = float(np.sum(g(t_odd)))
            n_nodes += t_odd.size
            new_value = 0.5 * value + (h / math.pi) * odd_sum
            err = abs(new_value - value)
            value = new_value
            if err <= max(policy.rel_tol * abs(value), policy.abs_tol):
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                "Mellin-Barnes quadrature did not reach tolerance",
                {"nodes": n_nodes, "T": T, "last_delta": err, "z": z})
        # empirical tail check against the exp(-rate t) bound
        tail = abs(float(g(np.array([T]))[0])) / (_MB_DECAY_RATE * math.pi)
        if tail <= max(policy.rel_tol * abs(value), policy.abs_tol):
            return value, err + tail, n_nodes
        T *= 1.5
    raise ConvergenceError("Mellin-Barnes tail did not close",
                           {"T": T, "tail": tail, "z": z})
