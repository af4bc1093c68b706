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

from backscatter_capacity.errors import DomainError, ParameterError, PoleError
from backscatter_capacity.special_functions import (
    AccuracyPolicy,
    bessel_i0_scaled,
    bessel_k0_scaled,
    exp_integral_e1_scaled,
    hyp2f1_cross_derivative,
    hyp2f1_neg_int,
    hyp2f1_symmetric,
    ln_gamma_complex,
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


class TestLnGamma:
    def test_anchors(self):
        assert abs(ln_gamma_complex(1.0)) < 1e-12
        assert ln_gamma_complex(0.5).real == pytest.approx(0.5723649429247001, rel=REL)

    def test_recurrence_self_consistency(self):
        z = 2 + 3j
        lhs = np.exp(ln_gamma_complex(z + 1) - ln_gamma_complex(z))
        assert lhs == pytest.approx(z, rel=1e-12)

    def test_recurrence_along_used_contours(self):
        for c in (0.5, 1.5, 5.5, 20.5):
            for t in np.linspace(-25.0, 25.0, 21):
                z = c + 1j * t
                err = abs(np.exp(ln_gamma_complex(z + 1) - ln_gamma_complex(z)) - z)
                assert err <= 1e-10 * abs(z)

    def test_exp_equals_gamma_left_half_plane(self):
        for z in (-0.5 + 0.3j, -2.5 + 1j, -5.3 - 0.2j, -0.5 + 0j):
            mine = np.exp(ln_gamma_complex(z))
            ref = complex(sp.gamma(z))
            assert mine == pytest.approx(ref, rel=1e-12)

    def test_continuous_along_vertical_contours(self):
        # no 2*pi*i branch jump while crossing the real axis at Re(z) < 0
        for c in (-0.75, -2.25):
            t = np.linspace(-0.5, 0.5, 21)
            vals = np.array([ln_gamma_complex(c + 1j * ti) for ti in t])
            steps = np.abs(np.diff(vals))
            assert np.max(steps) < 1.0

    def test_pole_error(self):
        for z in (0.0, -1.0, -7.0):
            with pytest.raises(PoleError):
                ln_gamma_complex(z)


class TestHyp2f1:
    def test_trivial_and_hand_sums(self):
        assert hyp2f1_neg_int(0, 0.7) == 1.0
        assert hyp2f1_neg_int(1, 0.3) == pytest.approx(1.3, rel=1e-15)
        assert hyp2f1_neg_int(2, 0.5) == pytest.approx(3.25, rel=1e-15)

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
        for k in (1, 3, 6):
            for rho in (0.2, 0.8):
                assert hyp2f1_symmetric(float(k) + 0.0, rho) == \
                    pytest.approx(hyp2f1_neg_int(k, rho), rel=1e-13)

    def test_noninteger_series_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        for k in (0.3, 1.7):
            for rho in (0.2, 0.6):
                ref = float(mpmath.hyp2f1(-k, -k, 1, rho))
                assert hyp2f1_symmetric(k, rho) == pytest.approx(ref, rel=1e-12)

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
        # 2F1(-k, -k; 1; 1) = Gamma(1+2k)/Gamma(1+k)^2, e.g. 4/pi at k = 1/2
        assert hyp2f1_symmetric(0.5, 1.0) == pytest.approx(4.0 / math.pi, rel=1e-14)
        for k in (0.3, 1.7, 4.25):
            ref = math.exp(math.lgamma(1 + 2 * k) - 2 * math.lgamma(1 + k))
            assert hyp2f1_symmetric(k, 1.0) == pytest.approx(ref, rel=1e-13)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_neg_int(-1, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_neg_int(2, 1.5)


class TestCrossDerivative:
    def test_known_values(self):
        assert hyp2f1_cross_derivative(0, 0, 0.9) == 0.0
        assert hyp2f1_cross_derivative(1, 1, 0.5) == pytest.approx(0.5, rel=1e-14)
        assert hyp2f1_cross_derivative(1, 2, 0.3) == pytest.approx(0.3, rel=1e-14)

    def test_symmetry(self):
        for a, b in [(1, 3), (2, 3)]:
            assert hyp2f1_cross_derivative(a, b, 0.4) == \
                pytest.approx(hyp2f1_cross_derivative(b, a, 0.4), rel=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp2f1_cross_derivative(-1, 0, 0.5)
        with pytest.raises(DomainError):
            hyp2f1_cross_derivative(1, 1, 1.0)


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
