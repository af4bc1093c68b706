"""Special-function kernel tests.

Expected values are frozen from independent high-precision oracles
(mpmath power/asymptotic series at 25+ digits); scipy's cephes-backed
routines serve as a second opinion in the scan tests.
"""

import math

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter_capacity import special_functions
from backscatter_capacity.channel_model import ChannelParams, moment
from backscatter_capacity.errors import (
    ConvergenceError,
    DomainError,
    ParameterError,
)
from backscatter_capacity.special_functions import (
    _BESSEL_CHUNK,
    _BESSEL_SWITCH,
    _K0_CHEB_COEF,
    AccuracyPolicy,
    _hyp2f1_series,
    _lanczos_right,
    bessel_i0_scaled,
    bessel_k0_scaled,
    exp_integral_e1_scaled,
    hyp2f1_neg_int,
    mellin_barnes_integral,
)

REL = 1e-10


class TestBesselScaled:
    def test_i0_anchor_values(self):
        assert bessel_i0_scaled(0.0) == 1.0
        assert bessel_i0_scaled(1.0) == pytest.approx(0.46575960759364044, rel=REL)
        assert bessel_i0_scaled(100.0) == pytest.approx(0.03994437929909668, rel=REL)

    def test_k0_anchor_values(self):
        assert bessel_k0_scaled(1.0) == pytest.approx(1.1444630798068950, rel=REL)
        assert bessel_k0_scaled(2.0) == pytest.approx(0.8415682150707714, rel=REL)

    def test_k0_large_x_approaches_leading_asymptote(self):
        # first correction is -1/(8x), so the scaled value sits just below
        # sqrt(pi/2x) and converges to it
        for x in (1e3, 1e6, 1e9):
            lead = math.sqrt(math.pi / (2 * x))
            val = bessel_k0_scaled(x)
            assert lead * (1.0 - 0.2 / x) < val < lead

    def test_no_overflow_or_underflow(self):
        assert 0.0 < bessel_i0_scaled(1e12) < 1.0
        assert bessel_k0_scaled(1e12) > 0.0
        assert np.isfinite(bessel_k0_scaled(1e-300))

    @pytest.mark.parametrize("x", np.geomspace(1e-6, 1e4, 25).tolist())
    def test_against_cephes(self, x):
        assert bessel_i0_scaled(x) == pytest.approx(float(sp.i0e(x)), rel=REL)
        assert bessel_k0_scaled(x) == pytest.approx(float(sp.k0e(x)), rel=REL)

    def test_scaled_product_identity(self):
        # i0e(y) k0e(x) e^(y-x) == I0(y) K0(x) wherever both sides exist
        for x, y in [(0.5, 0.2), (3.0, 2.0), (8.0, 7.5), (50.0, 40.0)]:
            lhs = bessel_i0_scaled(y) * bessel_k0_scaled(x) * math.exp(y - x)
            rhs = float(sp.i0(y) * sp.k0(x))
            assert lhs == pytest.approx(rhs, rel=REL)

    @given(st.floats(min_value=0.0, max_value=500.0))
    @settings(max_examples=60, deadline=None)
    def test_i0e_monotone_decreasing_and_bounded(self, x):
        v = bessel_i0_scaled(x)
        assert 0.0 < v <= 1.0
        assert bessel_i0_scaled(x + 0.5) < v

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            bessel_i0_scaled(-1.0)
        with pytest.raises(DomainError):
            bessel_i0_scaled(float("nan"))
        with pytest.raises(DomainError):
            bessel_k0_scaled(0.0)
        with pytest.raises(DomainError):
            bessel_k0_scaled(float("inf"))

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 5.0, 20.0])
        np.testing.assert_allclose(
            bessel_k0_scaled(xs), [bessel_k0_scaled(float(x)) for x in xs], rtol=1e-14)

    def test_against_mpmath(self):
        # every branch and both switches: the series up to 1 (K0) and 22
        # (I0), the Chebyshev expansion of K0 on (1, 22], asymptotics above
        mp = pytest.importorskip("mpmath")
        x = np.concatenate([
            np.geomspace(1e-8, 1e6, 300),
            *(np.linspace(c - 0.05, c + 0.05, 41) for c in (1.0, 14.0, 22.0)),
            np.nextafter([1.0, 14.0, 22.0], 0.0), np.nextafter([1.0, 14.0, 22.0], 30.0),
            np.linspace(1.0, 30.0, 150)[1:]])
        i0, k0 = bessel_i0_scaled(x), bessel_k0_scaled(x)
        with mp.workdps(20):
            for xi, a, b in zip(x.tolist(), i0, k0):
                ref_i = mp.besseli(0, xi) * mp.exp(-xi)
                ref_k = mp.besselk(0, xi) * mp.exp(xi)
                assert abs(a - ref_i) <= 1e-15 * ref_i, xi
                assert abs(b - ref_k) <= 1e-15 * ref_k, xi

    @pytest.mark.parametrize("n", [1, _BESSEL_CHUNK - 1, _BESSEL_CHUNK,
                                   _BESSEL_CHUNK + 1, 2 * _BESSEL_CHUNK + 1])
    def test_mid_range_chunks_match_one_shot_clenshaw(self, n):
        # the mid range runs chunk by chunk through reused scratch rows;
        # every chunk must give the bits of the whole-array recurrence
        x = np.linspace(1.0 + 1e-9, _BESSEL_SWITCH, n)
        y = np.log(x) * (2.0 / math.log(_BESSEL_SWITCH)) - 1.0
        y2 = y + y
        b1, b2 = np.full(n, _K0_CHEB_COEF[-1]), np.zeros(n)
        for c in _K0_CHEB_COEF[-2:0:-1]:
            b1, b2 = (y2 * b1 - b2) + c, b1
        ref = ((y * b1 - b2) + _K0_CHEB_COEF[0]) / np.sqrt(x)
        assert bessel_k0_scaled(x).tobytes() == ref.tobytes()

    def test_chebyshev_coefficients_rederived(self):
        # interpolation of sqrt(x) e^x K0(x) at the first-kind nodes of
        # y = 2 ln x / ln 22 - 1, at 40 digits, rounded to double
        mp = pytest.importorskip("mpmath")
        n = len(_K0_CHEB_COEF)
        with mp.workdps(40):
            half_log = mp.log(_BESSEL_SWITCH) / 2
            theta = [mp.pi * (j + mp.mpf(1) / 2) / n for j in range(n)]
            x = [mp.exp((mp.cos(t) + 1) * half_log) for t in theta]
            f = [mp.sqrt(xj) * mp.exp(xj) * mp.besselk(0, xj) for xj in x]
            coef = [2 * mp.fsum(fj * mp.cos(k * t) for fj, t in zip(f, theta)) / n
                    for k in range(n)]
            coef[0] /= 2
            assert tuple(float(c) for c in coef) == _K0_CHEB_COEF


class TestLnGamma:
    """The right-half-plane log-gamma behind the series kernel and the
    connection formula."""

    def test_anchors(self):
        assert abs(_lanczos_right(np.array([1.0 + 0j]))[0]) < 1e-12
        assert _lanczos_right(np.array([0.5 + 0j]))[0].real == \
            pytest.approx(0.5723649429247001, rel=REL)

    def test_recurrence_self_consistency(self):
        z = np.array([2 + 3j])
        lhs = np.exp(_lanczos_right(z + 1) - _lanczos_right(z))
        assert lhs[0] == pytest.approx(z[0], rel=1e-12)

    def test_recurrence_along_used_contours(self):
        for c in (0.5, 1.5, 5.5, 20.5):
            z = c + 1j * np.linspace(-25.0, 25.0, 21)
            err = np.abs(np.exp(_lanczos_right(z + 1) - _lanczos_right(z)) - z)
            assert np.all(err <= 1e-10 * np.abs(z))

    def test_against_scipy(self):
        t = np.linspace(-25.0, 25.0, 101)
        for c in (0.5, 1.0, 1.5, 2.0, 5.5, 20.5):
            z = c + 1j * t
            ref = sp.loggamma(z)
            err = np.abs(_lanczos_right(z) - ref)
            assert np.all(err <= 1e-14 * np.maximum(1.0, np.abs(ref))), c


class TestHyp2f1:
    def test_trivial_and_hand_sums(self):
        assert hyp2f1_neg_int(0, 0.7) == 1.0
        assert hyp2f1_neg_int(1, 0.3) == pytest.approx(1.3, rel=1e-15, abs=0)
        assert hyp2f1_neg_int(2, 0.5) == pytest.approx(3.25, rel=1e-15, abs=0)

    @pytest.mark.parametrize("k", range(11))
    def test_vandermonde_at_rho_one(self, k):
        # finite sum collapses to the central binomial, exactly in floats
        assert hyp2f1_neg_int(k, 1.0) == float(math.comb(2 * k, k))

    @given(st.integers(min_value=0, max_value=12),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=80, deadline=None)
    def test_at_least_one(self, k, rho):
        assert hyp2f1_neg_int(k, rho) >= 1.0

    def test_series_matches_finite_sum_at_integers(self):
        # moment at a float integer order takes the finite sum, not the
        # integral of real orders
        for k in (1, 3, 6):
            for rho in (0.2, 0.8):
                p = ChannelParams(1.0, rho)
                ref = math.factorial(k) ** 2 * hyp2f1_neg_int(k, rho) / (1.0 + rho) ** k
                assert moment(p, float(k)) == moment(p, k)
                assert moment(p, float(k)) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_complex_orders_against_mpmath(self):
        # the orders capacity_series sums: the power series in rho along
        # Re s = 1/2, the connection formula in 1 - rho along Re s = 0.4
        from backscatter_capacity.special_functions import (
            _hyp2f1_near_one,
            _hyp2f1_series,
        )
        mpmath = pytest.importorskip("mpmath")
        s = 0.5 + 1j * np.array([0.0, 1.0, 4.0, 8.0])
        for rho in (0.3, 0.9, 0.99):
            got, terms = _hyp2f1_series(-s, 1.0, rho)
            ref = np.array([complex(mpmath.hyp2f1(-k, -k, 1, rho)) for k in s])
            assert np.all(np.abs(got - ref) <= 1e-6 * np.abs(ref))
            assert np.all(np.abs(got[:2] - ref[:2]) <= 1e-12 * np.abs(ref[:2]))
            assert terms > 1
        total, terms = _hyp2f1_series(-s, 1.0, 0.0)
        assert terms == 1 and np.all(total == 1.0)
        s = 0.4 + 1j * np.array([-20.0, -3.0, 0.0, 0.5, 2.0, 8.0, 13.0, 20.0])
        for rho in (0.6, 0.9, 0.9999, 1.0 - 1e-8, 1.0):
            got, terms = _hyp2f1_near_one(s, rho)
            with mpmath.workdps(30):
                ref = np.array([complex(mpmath.hyp2f1(-k, -k, 1, rho)) for k in s])
            assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))
            assert terms <= 60

    def test_gauss_sum_at_rho_one(self):
        # 2F1(-k, -k; 1; 1) = Gamma(1+2k)/Gamma(1+k)^2, e.g. 4/pi at k = 1/2,
        # read off moment at rho = 1 as 2^k E{gamma^k} / Gamma(1+k)^2
        p = ChannelParams(1.0, 1.0)

        def gauss_sum(k):
            return moment(p, k) * 2.0 ** k / math.gamma(1.0 + k) ** 2

        assert gauss_sum(0.5) == pytest.approx(4.0 / math.pi, rel=1e-14, abs=0)
        for k in (0.3, 1.7, 4.25):
            ref = math.exp(math.lgamma(1 + 2 * k) - 2 * math.lgamma(1 + k))
            assert gauss_sum(k) == pytest.approx(ref, rel=1e-13, abs=0)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_neg_int(-1, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_neg_int(2, 1.5)


def _reference_hyp2f1_series(a, c, z):
    """Term by term: one ratio and one stopping test per term."""
    total = term = np.ones(a.shape, np.result_type(a, c, float))
    if z == 0.0:
        return total, 1
    a_abs = float(np.max(np.abs(a)))
    for m in range(special_functions._HYP2F1_MAX_TERMS):
        term = term * (z * (m + a) ** 2 / ((m + c) * (m + 1.0)))
        total = total + term
        if m > a_abs and np.all(np.abs(term) < 1e-17 * np.abs(total)):
            return total, m + 2
    raise ConvergenceError("2F1 power series did not converge",
                           {"a_abs": a_abs, "z": z,
                            "terms": special_functions._HYP2F1_MAX_TERMS})


def _same_sum(got, want):
    """Equal bits, dtype, shape and term count."""
    (g, gn), (w, wn) = got, want
    return (type(g), g.dtype, g.shape, g.tobytes(), type(gn), gn) == \
        (type(w), w.dtype, w.shape, w.tobytes(), type(wn), wn)


# z on which every order set below stops at each of m = 14 ... 17, on both
# sides of the first block boundary (m = 16)
_STOP_Z = np.linspace(0.02, 0.25, 47)


class TestHyp2f1Blocks:
    """The block-summed series against the term-by-term loop it replaced."""

    def test_real_0d_orders_across_the_block_boundary(self):
        stops = set()
        for k in (0.5, 0.1, 0.7):
            for z in _STOP_Z:
                got = _hyp2f1_series(np.asarray(-k), 1.0, float(z))
                want = _reference_hyp2f1_series(np.asarray(-k), 1.0, float(z))
                assert _same_sum(got, want), (k, z)
                stops.add(want[1] - 2)
        assert {14, 15, 16, 17} <= stops

    def test_complex_orders_scalar_c(self):
        # the direct path of capacity_series: 2F1(-s, -s; 1; rho)
        s = 0.5 + 1j * np.linspace(0.0, 9.0, 24)
        stops = set()
        for z in list(_STOP_Z) + [0.3, 0.6]:
            want = _reference_hyp2f1_series(-s, 1.0, float(z))
            assert _same_sum(_hyp2f1_series(-s, 1.0, float(z)), want), z
            stops.add(want[1] - 2)
        assert {14, 15, 16, 17} <= stops

    @pytest.mark.parametrize("rho", [0.61, 0.9, 0.99, 0.9999])
    def test_complex_orders_array_c(self, rho):
        # the connection path: both series of _hyp2f1_near_one
        s = 0.4 + 1j * np.linspace(0.0, 9.0, 24)
        w = 1.0 - rho
        for a, c in ((-s, -2.0 * s), (1.0 + s, 2.0 + 2.0 * s)):
            assert _same_sum(_hyp2f1_series(a, c, w), _reference_hyp2f1_series(a, c, w))

    def test_complex_orders_array_c_across_the_block_boundary(self):
        s = 0.4 + 1j * np.linspace(0.0, 0.5, 6)  # |a| small: early stops
        stops = set()
        for z in _STOP_Z:
            for a, c in ((-s, -2.0 * s), (1.0 + s, 2.0 + 2.0 * s)):
                want = _reference_hyp2f1_series(a, c, float(z))
                assert _same_sum(_hyp2f1_series(a, c, float(z)), want), z
                stops.add(want[1] - 2)
        assert {14, 15, 16, 17} <= stops

    def test_2d_orders(self):
        s = (0.5 + 1j * np.linspace(-4.0, 4.0, 15)).reshape(3, 5)
        for z in (0.0, 0.13, 0.2, 0.5):
            assert _same_sum(_hyp2f1_series(-s, 1.0, z), _reference_hyp2f1_series(-s, 1.0, z))
        assert _same_sum(_hyp2f1_series(-s.real, 1.0, 0.4),
                         _reference_hyp2f1_series(-s.real, 1.0, 0.4))

    def test_stop_waits_until_m_passes_abs_a(self):
        # |a| = 5 exactly and every term negligible: the first stop is m = 6
        for a in (np.array([-3.0 - 4.0j, 0.5]), np.asarray(-5.0)):
            got = _hyp2f1_series(a, 1.0, 1e-30)
            assert _same_sum(got, _reference_hyp2f1_series(a, 1.0, 1e-30))
            assert got[1] == 8

    @pytest.mark.parametrize("cap", [1, 5, 16, 17, 18, 33])
    def test_term_cap(self, monkeypatch, cap):
        # at z = 0.2 and k = 0.5 the series stops at m = 17: within a cap of
        # 18 or 33 terms, not within 17 or fewer
        monkeypatch.setattr(special_functions, "_HYP2F1_MAX_TERMS", cap)
        a = np.asarray(-0.5)
        try:
            want = _reference_hyp2f1_series(a, 1.0, 0.2)
        except ConvergenceError as exc:
            with pytest.raises(ConvergenceError) as got:
                _hyp2f1_series(a, 1.0, 0.2)
            assert (str(got.value), got.value.diagnostics) == (str(exc), exc.diagnostics)
            assert cap <= 17
        else:
            assert _same_sum(_hyp2f1_series(a, 1.0, 0.2), want)
            assert cap > 17


class TestExpIntegral:
    def test_anchors(self):
        assert exp_integral_e1_scaled(1.0) * math.exp(-1.0) == \
            pytest.approx(0.21938393439552027, rel=REL)
        assert exp_integral_e1_scaled(10.0) * math.exp(-10.0) == \
            pytest.approx(4.156968929685324e-06, rel=REL)

    def test_small_x_log_behavior(self):
        x = 1e-9
        lead = -0.5772156649015329 - math.log(x)
        assert exp_integral_e1_scaled(x) * math.exp(-x) == pytest.approx(lead, rel=1e-8)

    def test_scaled_variant(self):
        for x in (0.5, 2.0, 50.0, 300.0):
            assert exp_integral_e1_scaled(x) == \
                pytest.approx(float(sp.exp1(x)) * math.exp(x), rel=1e-9)
        # e^x E1(x) is bracketed by 1/(x+1) and 1/x
        for x in (2e3, 1e6):
            v = exp_integral_e1_scaled(x)
            assert 1.0 / (x + 1.0) < v < 1.0 / x

    def test_domain(self):
        with pytest.raises(DomainError):
            exp_integral_e1_scaled(0.0)


# frozen from the capacity quadrature oracle (25-digit quadrature of the
# log-against-density integral with unit mean SNR, zero correlation)
CAPACITY_KERNEL_AT_ONE = 0.5123583776982227


class TestMeijerG:
    """The capacity series' kernel G^{3,1}_{1,3}[z | 0; 0,0,1] in closed
    form, and its integral along vertical contours."""

    def test_kernel_against_mpmath(self):
        from backscatter_capacity.special_functions import _mb_kernel
        mpmath = pytest.importorskip("mpmath")
        t = np.linspace(-30.0, 30.0, 61)
        for c in (0.4, 0.5):
            s = c + 1j * t
            for z in (1e-6, 1.0, 1e6):
                with mpmath.workdps(30):
                    ref = np.array([complex(mpmath.gamma(k) ** 2 * mpmath.gamma(1 + k)
                                            * mpmath.gamma(1 - k) * mpmath.power(z, -k))
                                    for k in s])
                got = _mb_kernel(s, z)
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    def test_capacity_kernel_anchor(self):
        # with factor 1 at z = 1 the integral is E{ln(1 + gamma)} itself
        value, _, _ = mellin_barnes_integral(0.5, 1.0, np.ones_like)
        assert value == pytest.approx(CAPACITY_KERNEL_AT_ONE, rel=1e-9)

    def test_contour_invariance(self):
        # no pole of the kernel or of the 2F1 factor lies in 0 < Re s < 1
        from backscatter_capacity.special_functions import _hyp2f1_series
        z = 1.3 / 10.0                               # gamma_bar = 10, rho = 0.3

        def factor(s):
            return _hyp2f1_series(-s, 1.0, 0.3)[0]

        base, _, _ = mellin_barnes_integral(0.5, z, factor)
        for c in (0.3, 0.7):
            shifted, _, _ = mellin_barnes_integral(c, z, factor)
            assert abs(shifted - base) <= 1e-10 * abs(base)

    def test_integrand_decay_bound(self):
        # the kernel decays like exp(-2 pi |t|) along both series contours
        from backscatter_capacity.special_functions import _MB_DECAY_RATE, _mb_kernel
        assert _MB_DECAY_RATE == pytest.approx(2.0 * math.pi)
        t = np.array([2.0, 4.0, 6.0])
        for c in (0.4, 0.5):
            mags = np.abs(_mb_kernel(c + 1j * t, 1.0))
            for i in range(len(t) - 1):
                ratio = mags[i + 1] / mags[i]
                assert ratio <= math.exp(-2.0 * math.pi * (t[i + 1] - t[i]) * 0.9)

    def test_policy_validation(self):
        with pytest.raises(ParameterError):
            AccuracyPolicy(rel_tol=0.0)
        with pytest.raises(ParameterError):
            AccuracyPolicy(rel_tol=1e-16)


def _reference_mellin_barnes(c, z, factor, policy=special_functions.DEFAULT_POLICY):
    """Level by level: one factor call per trapezoid level, one for the tail."""
    T = (-math.log(policy.rel_tol * 1e-3)) / special_functions._MB_DECAY_RATE \
        + special_functions._MB_CONTOUR_MARGIN

    def g(t):
        s = c + 1j * t
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = special_functions._mb_kernel(s, z) * factor(s)
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
            if err <= max(policy.rel_tol * abs(value), special_functions._MB_ABS_TOL):
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                "Mellin-Barnes quadrature did not reach tolerance",
                {"nodes": n_nodes, "T": T, "last_delta": err, "z": z})
        tail = abs(float(g(np.array([T]))[0])) / (special_functions._MB_DECAY_RATE * math.pi)
        if tail <= max(policy.rel_tol * abs(value), special_functions._MB_ABS_TOL):
            return value, err + tail, n_nodes
        T *= 1.5
    raise ConvergenceError("Mellin-Barnes tail did not close",
                           {"T": T, "tail": tail, "z": z})


def _outcome(fn, *args):
    """repr of the result, or the error's type, text and diagnostics."""
    try:
        return repr(fn(*args))
    except ConvergenceError as exc:
        return repr((type(exc), str(exc), exc.diagnostics))


def _counting(factor, calls):
    def counted(s):
        calls.append(s.size)
        return factor(s)
    return counted


# elementwise factors: each node's value does not depend on the others
_ELEMENTWISE = {
    "one": np.ones_like,
    "pole": lambda s: 1.0 / (1.0 + s),
    "gauss": lambda s: np.exp(-s * s / 20.0),
}


class TestMellinBarnesOnePass:
    """The merged first factor call against the level-by-level loop."""

    @pytest.mark.parametrize("name", sorted(_ELEMENTWISE))
    @pytest.mark.parametrize("c", [0.4, 0.5])
    @pytest.mark.parametrize("z", [1e-6, 1.0, 1e6])
    def test_elementwise_factors(self, name, c, z):
        for rel_tol in (1e-6, 1e-10, 1e-13):
            policy = AccuracyPolicy(rel_tol=rel_tol)
            calls = []
            got = mellin_barnes_integral(c, z, _counting(_ELEMENTWISE[name], calls), policy)
            want = _reference_mellin_barnes(c, z, _ELEMENTWISE[name], policy)
            assert repr(got) == repr(want), rel_tol
            assert calls[0] == 257

    @pytest.mark.parametrize("max_nodes", [64, 128, 300])
    def test_node_budget(self, max_nodes):
        # 64: no level past 0; 128: level 1 misses; 300: level 3 is its own call
        policy = AccuracyPolicy(rel_tol=1e-13, max_quadrature_nodes=max_nodes)
        for z in (1.0, 1e6):
            got = _outcome(mellin_barnes_integral, 0.4, z, np.ones_like, policy)
            assert got == _outcome(_reference_mellin_barnes, 0.4, z, np.ones_like, policy)
            assert ("did not reach tolerance" in got) == (max_nodes < 300)

    def test_level_past_depth(self):
        assert special_functions._MB_DEPTH == 2
        policy = AccuracyPolicy(rel_tol=1e-13)
        calls = []
        got = mellin_barnes_integral(0.4, 1.0, _counting(np.ones_like, calls), policy)
        assert calls == [257, 256]
        assert got[2] == 512
        assert repr(got) == repr(_reference_mellin_barnes(0.4, 1.0, np.ones_like, policy))

    def test_tail_retry(self):
        # cos(4 (s - c)) = cosh(4t) on the contour: the integrand decays like
        # exp(-(2 pi - 4) t), too slowly for the first T
        def factor(s):
            return np.cos(4.0 * (s - 0.5))

        policy = AccuracyPolicy(rel_tol=1e-10)
        calls = []
        got = mellin_barnes_integral(0.5, 1e6, _counting(factor, calls), policy)
        assert calls == [257, 256, 257, 256]
        assert repr(got) == repr(_reference_mellin_barnes(0.5, 1e6, factor, policy))
