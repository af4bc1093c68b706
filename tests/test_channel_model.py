"""Channel-model tests: density, moments, parameterizations.

Frozen constants come from 25-digit mpmath quadrature/Bessel evaluations.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
import scipy.special as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from backscatter_capacity.capacity import capacity_quadrature, capacity_series
from backscatter_capacity.channel_model import (
    _CDF_LADDER,
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    _U_MAX,
    FIXED_POWER_BUDGET,
    FIXED_RECEIVER_SNR,
    ChannelParams,
    Parameterization,
    cdf,
    db_to_linear,
    moment,
    _pdf_u,
    moment_log_derivative,
    pdf,
)
from backscatter_capacity.errors import DomainError
from backscatter_capacity.validation import _integrate_moment

PDF_1_0_AT_1 = 0.22778774549906687      # 2 K0(2)
PDF_1_05_AT_1 = 0.17712300043814646     # 6 I0(2 sqrt3) K0(2 sqrt6)
CDF_1_0_AT_1 = 0.7202682363669551       # 1 - 2 K1(2)


class TestParams:
    def test_from_receiver_snr(self):
        p = Parameterization(FIXED_RECEIVER_SNR, db_to_linear(0.0), 0.0).channel_params()
        assert p.gamma_bar == 1.0
        assert p.tail_rate == pytest.approx(2.0, rel=1e-14, abs=0)

        p = Parameterization(FIXED_RECEIVER_SNR, db_to_linear(0.0), 0.5).channel_params()
        assert p.tail_rate == pytest.approx(4.898979485566356 - 3.4641016151377544, rel=1e-12)

    def test_rho_one_has_no_bessel_constants(self):
        # at rho = 1 the density is exponential in u = tail_rate sqrt(gamma)
        # and the tail rate needs no 1/(1 - rho)
        p = Parameterization(FIXED_RECEIVER_SNR, db_to_linear(10.0), 1.0).channel_params()
        assert p.gamma_bar == pytest.approx(10.0)
        assert p.tail_rate == pytest.approx(math.sqrt(0.2), rel=1e-15, abs=0)
        # the rate below rho = 1 tends to the same value as rho -> 1
        assert ChannelParams(10.0, 1.0 - 1e-6).tail_rate == \
            pytest.approx(p.tail_rate, rel=1e-6)

    def test_from_power_budget(self):
        def budget(x_db, rho):
            return Parameterization(FIXED_POWER_BUDGET, db_to_linear(x_db), rho).channel_params()

        assert budget(10.0, 1.0).gamma_bar == pytest.approx(20.0, rel=1e-14, abs=0)
        assert budget(0.0, 0.0).gamma_bar == Parameterization(
            FIXED_RECEIVER_SNR, db_to_linear(0.0), 0.0).channel_params().gamma_bar
        assert budget(-20.0, 0.5).gamma_bar == pytest.approx(0.015, rel=1e-12)

    def test_parameterization_consistency(self):
        for x_db in (-10.0, 0.0, 17.0):
            for rho in (0.0, 0.3, 1.0):
                lhs = Parameterization(FIXED_POWER_BUDGET, db_to_linear(x_db),
                                       rho).channel_params().gamma_bar
                rhs = Parameterization(FIXED_RECEIVER_SNR, db_to_linear(x_db),
                                       rho).channel_params().gamma_bar * (1.0 + rho)
                assert lhs == rhs

    def test_mode_round_trip(self):
        p = Parameterization(FIXED_POWER_BUDGET, 2.0, 0.5)
        assert p.gamma_bar == pytest.approx(3.0)
        assert p.snr_budget == 2.0
        q = Parameterization(FIXED_RECEIVER_SNR, 3.0, 0.5)
        assert q.snr_budget == pytest.approx(2.0)

    def test_db_round_trip(self):
        for x in (-31.7, 0.0, 12.5):
            assert 10.0 * math.log10(db_to_linear(x)) == pytest.approx(x, abs=1e-12)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            ChannelParams(0.0, 0.5)
        with pytest.raises(DomainError):
            ChannelParams(1.0, -0.1)
        with pytest.raises(DomainError):
            Parameterization(FIXED_RECEIVER_SNR, db_to_linear(0.0), 1.2).channel_params()

    @pytest.mark.parametrize("route", ["pdf", "cdf", "capacity_quadrature", "capacity_series"])
    def test_tail_rate_overflow_names_gamma_bar(self, route):
        # at gamma_bar = 1e-310 the tail rate overflows to inf: both capacity
        # routes returned 0 with error bound 0 and cdf blamed a Bessel kernel
        run = {"pdf": lambda p: pdf(p, 1.0), "cdf": lambda p: cdf(p, 1.0),
               "capacity_quadrature": capacity_quadrature,
               "capacity_series": capacity_series}[route]
        with pytest.raises(DomainError, match="gamma_bar"):
            run(ChannelParams(1e-310, 0.5))
        assert math.isfinite(ChannelParams(1e-307, 0.5).tail_rate)


class TestPdf:
    def test_anchor_values(self):
        assert pdf(ChannelParams(1.0, 0.0), 1.0) == pytest.approx(PDF_1_0_AT_1, rel=1e-10)
        assert pdf(ChannelParams(1.0, 0.5), 1.0) == pytest.approx(PDF_1_05_AT_1, rel=1e-10)

    def test_rho_zero_reduces_to_double_rayleigh(self):
        p = ChannelParams(2.5, 0.0)
        for g in (0.01, 0.5, 3.0, 40.0):
            ref = (2.0 / 2.5) * float(sp.k0(2.0 * math.sqrt(g / 2.5)))
            assert pdf(p, g) == pytest.approx(ref, rel=1e-10)

    @given(st.floats(min_value=-2.0, max_value=2.0),
           st.floats(min_value=0.0, max_value=0.99),
           st.floats(min_value=-6.0, max_value=6.0))
    @settings(max_examples=100, deadline=None)
    def test_positive_and_finite(self, log10_gbar, rho, log10_g):
        p = ChannelParams(10.0 ** log10_gbar, rho)
        g = 10.0 ** log10_g
        val = pdf(p, g)
        assert np.isfinite(val) and val >= 0.0
        # strictly positive wherever the true density is representable at all
        if p.tail_rate * math.sqrt(g) < 700.0:
            assert val > 0.0

    def test_extreme_gamma_stays_representable(self):
        p = ChannelParams(1e-4, 0.9)
        assert pdf(p, 1e6) >= 0.0
        assert np.isfinite(pdf(p, 1e-12))

    def test_normalization_and_mean_spot(self):
        for gbar, rho in ((0.1, 0.0), (1.0, 0.5), (100.0, 0.9), (10.0, 1.0 - 1e-9), (10.0, 1.0)):
            p = ChannelParams(gbar, rho)
            assert _integrate_moment(p, 0.0) == pytest.approx(1.0, abs=1e-8)
            assert _integrate_moment(p, 1.0) == pytest.approx(gbar, rel=1e-7)

    def test_errors(self):
        with pytest.raises(DomainError):
            pdf(ChannelParams(1.0, 0.5), 0.0)
        with pytest.raises(DomainError):
            pdf(ChannelParams(1.0, 1.0), 0.0)
        for bad in (math.inf, math.nan):
            with pytest.raises(DomainError, match="requires finite gamma > 0"):
                pdf(ChannelParams(1.0, 0.5), np.array([1.0, bad]))

    @pytest.mark.parametrize("gbar", [1e-3, 1.0, 10.0, 1e6])
    def test_rho_one_exponential_law(self, gbar):
        # t = sqrt(gamma) = sqrt(s) G with G ~ Exp(1) and s = snr_budget
        s = gbar / 2.0
        g = gbar * np.array([1e-8, 1e-3, 0.1, 1.0, 5.0, 50.0])
        exact = np.exp(-np.sqrt(g / s)) / (2.0 * np.sqrt(g * s))
        np.testing.assert_allclose(pdf(ChannelParams(gbar, 1.0), g), exact, rtol=1e-13)

    @pytest.mark.parametrize("rho", [0.99, 1.0 - 1e-7, 1.0 - 1e-9])
    @pytest.mark.parametrize("gbar", [1.0, 100.0])
    def test_near_full_correlation_against_mpmath(self, gbar, rho):
        # z = g_f g_b = (1+rho) gamma / gbar has density (2/(1-rho))
        # I0(2 sqrt(rho z)/(1-rho)) K0(2 sqrt(z)/(1-rho)); nothing in the
        # density of u cancels as rho -> 1
        mp = pytest.importorskip("mpmath")
        g = gbar * np.array([1e-6, 1e-3, 0.1, 1.0, 5.0, 30.0])
        with mp.workdps(40):
            r, s = mp.mpf(rho), 1 / (1 - mp.mpf(rho))
            jac = (1 + r) / gbar
            ref = np.array([float(2 * s * jac * mp.besseli(0, 2 * s * mp.sqrt(r * jac * x))
                                  * mp.besselk(0, 2 * s * mp.sqrt(jac * x)))
                            for x in map(mp.mpf, g)])
        np.testing.assert_allclose(pdf(ChannelParams(gbar, rho), g), ref, rtol=1e-14, atol=0)


def _oracle_cdf(gbar, rho, grid):
    """P(SNR <= gamma) on an increasing gamma grid, by mpmath quadrature of
    the product density.

    z = g_f g_b = (1+rho) gamma / gbar has density (2/(1-rho))
    I0(2 sqrt(rho z)/(1-rho)) K0(2 sqrt(z)/(1-rho)).  The integral is taken
    in t = sqrt(z) between consecutive grid points, split geometrically
    toward the log singularity at 0, and stops where the density tail
    exp(-2 (1-sqrt(rho)) t/(1-rho)) has fallen below e^-80.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        rho = mp.mpf(rho)
        s = 1 / (1 - rho)

        def dens_t(t):
            return 4 * s * t * mp.besseli(0, 2 * mp.sqrt(rho) * s * t) \
                * mp.besselk(0, 2 * s * t)

        t_end = 40 / (s * (1 - mp.sqrt(rho)))
        tops = [min(mp.sqrt((1 + rho) * mp.mpf(g) / gbar), t_end) for g in grid]
        pieces = [mp.quad(dens_t, [0] + [tops[0] / 10 ** k for k in range(6, -1, -1)])]
        pieces += [mp.quad(dens_t, [lo, hi]) for lo, hi in zip(tops, tops[1:])]
        return [float(v) for v in itertools.accumulate(pieces)]


class TestCdf:
    def test_endpoints(self):
        p = ChannelParams(1.0, 0.3)
        assert cdf(p, 0.0) == 0.0
        assert cdf(p, 1e9) == pytest.approx(1.0, abs=1e-8)

    def test_anchor_value(self):
        assert cdf(ChannelParams(1.0, 0.0), 1.0) == \
            pytest.approx(CDF_1_0_AT_1, rel=1e-9)
        assert 0.5 < CDF_1_0_AT_1 < 1.0  # product channels are median-skewed

    def test_nondecreasing(self):
        p = ChannelParams(2.0, 0.6)
        grid = [0.0, 0.1, 0.5, 1.0, 4.0, 20.0]
        vals = [cdf(p, g) for g in grid]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("gbar", [1e-3, 1.0, 10.0, 1e6])
    def test_rho_one_exponential_law(self, gbar):
        s = gbar / 2.0
        g = gbar * np.array([0.0, 1e-8, 1e-3, 0.1, 1.0, 5.0, 50.0, 1e9])
        exact = -np.expm1(-np.sqrt(g / s))
        assert np.max(np.abs(cdf(ChannelParams(gbar, 1.0), g) - exact)) < 1e-14

    @pytest.mark.parametrize("gbar, rho", [(2.0, 0.6), (1.0, 0.0), (1.0, 1.0)])
    def test_no_mass_lost_beyond_cutoff(self, gbar, rho):
        assert cdf(ChannelParams(gbar, rho), 1e9 * gbar) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("bad", [-1e-12, math.inf, math.nan])
    def test_domain(self, bad):
        with pytest.raises(DomainError, match="requires finite gamma >= 0"):
            cdf(ChannelParams(1.0, 0.5), np.array([1.0, bad]))

    @pytest.mark.parametrize("gbar", [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_closed_form_at_rho_zero(self, gbar):
        # x = gamma/gbar: a sparse grid reaching past the cutoff and a dense one
        for x in ([1e-8, 1e-7, 1e9], np.logspace(-10, 2, 40)):
            x = np.asarray(x)
            exact = 1.0 - 2.0 * np.sqrt(x) * sp.k1(2.0 * np.sqrt(x))
            assert np.max(np.abs(cdf(ChannelParams(gbar, 0.0), x * gbar) - exact)) < 1e-11

    @pytest.mark.parametrize("gbar, rho, grid", [
        (1.0, 0.5, [1e-6, 0.1, 1.0, 5.0, 30.0]),
        (10.0, 0.9, [1e-4, 1.0, 10.0, 100.0]),
        (1.0, 0.999, [1e-6, 0.1, 1.0, 5.0, 30.0]),
        (1e-3, 0.9, [1e-8, 1e-7, 1e9]),
    ])
    def test_mpmath_oracle(self, gbar, rho, grid):
        got = cdf(ChannelParams(gbar, rho), np.array(grid))
        want = _oracle_cdf(gbar, rho, grid)
        assert np.max(np.abs(got - want)) < 1e-11

    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.5])
    def test_single_point_at_round_off(self, rho):
        # one query point splits few panels, so the ladder alone must keep
        # the 8-node rule at round-off where the mass lies: with factor-2
        # panels above u = 1.7 it left about 1e-13
        grid = [0.5, 2.0, 5.0, 10.0]
        if rho == 0.0:
            want = [1.0 - 2.0 * math.sqrt(g) * sp.k1(2.0 * math.sqrt(g)) for g in grid]
        else:
            want = _oracle_cdf(1.0, rho, grid)
        got = [cdf(ChannelParams(1.0, rho), g) for g in grid]
        assert np.max(np.abs(np.subtract(got, want))) < 1e-14

    def test_order_duplicates_and_shape(self):
        p = ChannelParams(2.0, 0.6)
        grid = np.array([0.0, 0.01, 0.5, 1.0, 4.0, 20.0, 1e9])
        ref = cdf(p, grid)
        assert ref[0] == 0.0 and ref[-1] == pytest.approx(1.0, abs=1e-11)
        assert np.all(np.diff(ref) > 0)
        perm = np.array([3, 6, 0, 2, 5, 1, 4])
        assert np.array_equal(cdf(p, grid[perm]), ref[perm])
        doubled = np.concatenate([grid, grid[::-1]])
        assert np.array_equal(cdf(p, doubled), np.concatenate([ref, ref[::-1]]))
        assert cdf(p, grid.reshape(7, 1)).shape == (7, 1)
        scalar = cdf(p, 1.0)
        assert isinstance(scalar, float)
        assert scalar == pytest.approx(ref[3], abs=1e-14)


def _pdf_one_shot(params, gamma):
    """pdf as one whole-array expression, the form before block evaluation"""
    g = np.asarray(gamma, dtype=float)
    rate = params.tail_rate
    u = np.sqrt(np.atleast_1d(g))
    u *= rate
    vals = _pdf_u(params.rho, u, 0.5 * rate * rate) / u
    return float(vals[0]) if g.ndim == 0 else vals


def _cdf_one_shot(params, gamma):
    """cdf with its panel nodes evaluated as one array, the form before
    block evaluation"""
    g = np.asarray(gamma, dtype=float)
    u = np.minimum(params.tail_rate * np.sqrt(g.ravel()), _U_MAX)
    edges, where = np.unique(np.concatenate([[0.0], _CDF_LADDER, u]), return_inverse=True)
    lo, width = edges[:-1], np.diff(edges)
    vals = _pdf_u(params.rho, lo[:, None] + width[:, None] * _GAUSS_NODES)
    mass = np.concatenate([[0.0], np.cumsum((vals @ _GAUSS_WEIGHTS) * width)])
    out = np.minimum(mass[where[1 + _CDF_LADDER.size:]], 1.0)
    return float(out[0]) if g.ndim == 0 else out.reshape(g.shape)


def _peak_bytes(f):
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestBlockEvaluation:
    """pdf and cdf evaluate the density in blocks of _BESSEL_CHUNK
    elements: the bytes of the whole-array form, one output-sized array."""

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0 - 1e-9, 1.0])
    @pytest.mark.parametrize("n", [1, 4095, 4096, 4097, 8193])
    def test_same_bytes_as_one_shot(self, n, rho):
        p = ChannelParams(10.0, rho)
        g = np.geomspace(1e-6, 1e3, n)
        for f, ref in ((pdf, _pdf_one_shot), (cdf, _cdf_one_shot)):
            got = f(p, g)
            assert got.shape == g.shape
            assert got.tobytes() == ref(p, g).tobytes()

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0 - 1e-9, 1.0])
    def test_same_bytes_on_0d_and_2d_inputs(self, rho):
        p = ChannelParams(10.0, rho)
        # 2-D in C and in Fortran order, across a block edge
        grid = np.geomspace(1e-6, 1e3, 3 * 4097).reshape(3, 4097)
        for g in (grid, np.asfortranarray(grid), grid.T):
            for f, ref in ((pdf, _pdf_one_shot), (cdf, _cdf_one_shot)):
                got = f(p, g)
                assert got.shape == g.shape
                assert got.tobytes() == ref(p, g).tobytes()
        for f, ref in ((pdf, _pdf_one_shot), (cdf, _cdf_one_shot)):
            got = f(p, np.float64(3.0))
            assert isinstance(got, float) and got == ref(p, 3.0)

    def test_empty_input(self):
        p = ChannelParams(10.0, 0.5)
        assert pdf(p, np.empty((0, 3))).shape == (0, 3)

    def test_pdf_peak_memory(self):
        # only the result is grid-sized; the whole-array form peaked at 7.5 grids
        p = ChannelParams(10.0, 0.5)
        g = np.linspace(1e-3, 50.0, 200_000)
        assert _peak_bytes(lambda: pdf(p, g)) < 2.5 * g.nbytes

    def test_cdf_peak_memory(self):
        # the (P, 8) panel nodes and their density, not seven more copies:
        # the whole-array form peaked at 47.8 MiB
        p = ChannelParams(10.0, 0.5)
        g = np.sort(np.random.default_rng(1).exponential(10.0, 100_000))
        assert _peak_bytes(lambda: cdf(p, g)) < 20 * 2 ** 20


class TestMoments:
    def test_trivial_orders(self):
        p = ChannelParams(7.0, 0.4)
        assert moment(p, 0.0) == pytest.approx(1.0, rel=1e-12)
        assert moment(p, 1.0) == pytest.approx(7.0, rel=1e-12)

    @pytest.mark.parametrize("gbar", [0.01, 1.0, 7.0])
    @pytest.mark.parametrize("rho", [0.0, 0.3, 0.9, 1.0])
    def test_order_zero_is_exactly_one(self, gbar, rho):
        assert moment(ChannelParams(gbar, rho), 0.0) == 1.0

    def test_second_moment_closed_form(self):
        for gbar in (0.5, 1.0, 20.0):
            for rho in (0.0, 0.3, 0.9):
                p = ChannelParams(gbar, rho)
                expected = 4.0 * gbar ** 2 * (1.0 + 4.0 * rho + rho ** 2) \
                    / (1.0 + rho) ** 2
                assert moment(p, 2.0) == pytest.approx(expected, rel=1e-11)
                assert _integrate_moment(p, 2.0) == pytest.approx(expected, rel=1e-7)

    def test_independent_case_k2(self):
        assert moment(ChannelParams(3.0, 0.0), 2.0) == pytest.approx(36.0, rel=1e-12)

    def test_rho_one_gauss_closed_form(self):
        p = ChannelParams(1.0, 1.0)
        # E{gamma^k}/gbar^k = 2^{-k} Gamma(1+2k), Gauss's sum in the 2F1
        assert moment(p, 2.0) == pytest.approx(6.0, rel=1e-12)
        assert moment(p, 3.0) == pytest.approx(90.0, rel=1e-12)
        assert moment(p, 0.5) == pytest.approx(2.0 ** -0.5, rel=1e-14, abs=0)
        for k in (0.3, 1.7, 4.25):
            ref = 2.0 ** -k * math.gamma(1.0 + 2.0 * k)
            assert moment(p, k) == pytest.approx(ref, rel=1e-14, abs=0)

    def test_real_orders_against_mpmath(self):
        # Laplace's integral for the 2F1 factor, up to and at rho = 1
        mpmath = pytest.importorskip("mpmath")
        for k in (1e-4, 0.1, 0.3, 0.5, 1.5, 1.7, 2.5, 3.7):
            for rho in (0.0, 0.2, 0.6, 0.75, 0.9, 0.99, 0.99999,
                        1.0 - 1e-9, 1.0 - 1e-12, 1.0):
                with mpmath.workdps(40):
                    kk, rr = mpmath.mpf(k), mpmath.mpf(rho)
                    ref = (1 + rr) ** -kk * mpmath.gamma(1 + kk) ** 2 \
                        * mpmath.hyp2f1(-kk, -kk, 1, rr)
                got = moment(ChannelParams(1.0, rho), k)
                assert abs(got - ref) <= 1e-14 * ref, (k, rho)

    def test_noninteger_order_against_quadrature(self):
        p = ChannelParams(2.0, 0.6)
        assert moment(p, 1.5) == pytest.approx(_integrate_moment(p, 1.5), rel=1e-8)

    def test_domain(self):
        for k in (-0.5, math.inf, math.nan):
            with pytest.raises(DomainError):
                moment(ChannelParams(1.0, 0.5), k)


class TestMomentLogDerivative:
    @pytest.mark.parametrize("rho, expected", [
        (0.0, -1.1544313298030657),
        (0.5, -1.5598964379112301),
        (1.0, -1.8475785103630110),
    ])
    def test_closed_form(self, rho, expected):
        assert moment_log_derivative(rho) == pytest.approx(expected, rel=1e-12)

    def test_matches_one_sided_difference(self):
        h = 1e-4
        for rho in (0.0, 0.25, 0.75, 1.0):
            p = ChannelParams(1.0, rho)
            fd = (-3.0 * moment(p, 0.0) + 4.0 * moment(p, h)
                  - moment(p, 2 * h)) / (2.0 * h)
            assert moment_log_derivative(rho) == pytest.approx(fd, abs=1e-6)

    def test_domain(self):
        with pytest.raises(DomainError):
            moment_log_derivative(1.5)
