"""Capacity-engine tests.

Golden capacities were frozen from a 25-digit mpmath quadrature of
log2(1+gamma) against the product density; the same oracle fixed the
asymptote-gap table.  `_oracle_capacity` re-derives the 40 dB entries and
the near-full-correlation loss at 50/60 dB when mpmath is installed.
`_ci_si_capacity` is the closed form at rho = 1.  Everything labelled
"identity" is exact algebra.
"""

import math

import numpy as np
import pytest

from backscatter_capacity import capacity, validation
from backscatter_capacity.capacity import (
    _SERIES_SWITCH_RHO,
    capacity_awgn,
    capacity_high_snr,
    capacity_high_snr_budget,
    capacity_low_snr,
    capacity_quadrature,
    capacity_rayleigh,
    capacity_series,
)
from backscatter_capacity.channel_model import (
    FIXED_POWER_BUDGET,
    FIXED_RECEIVER_SNR,
    ChannelParams,
    Parameterization,
)
from backscatter_capacity.errors import ConvergenceError, DomainError
from backscatter_capacity.special_functions import (
    LOG2E,
    AccuracyPolicy,
    _hyp2f1_series,
)

GOLDEN_CAPACITY = {
    (1.0, 0.0): 0.7391768906631403,
    (1000.0, 0.0): 8.3386305804124454,
    (1.0, 0.5): 0.6709205528992552,
    (10.0, 0.5): 2.1959256266521810,
    (0.1, 0.9): 0.1186638344865519,
    # at 40 dB the rho->1 loss is 0.9439, still short of its limit log2(1.999)
    (1e4, 0.0): 11.62868208778902,
    (1e4, 0.999): 10.68482997803683,
}

# |quadrature - asymptote| at 20/30/40 dB per rho, same oracle
GOLDEN_GAPS = {
    0.0: (0.1959761788568531, 0.0383386503040927, 0.0064620627933084),
    0.5: (0.3220027021683841, 0.0717804004753433, 0.0133042037092327),
    0.9: (0.4906605763458931, 0.1410689047426717, 0.0331461161983991),
}

RAYLEIGH_AT_1000 = 9.1436194910373308


def _oracle_capacity(gbar, rho):
    """E log2(1 + gamma) by mpmath quadrature against the product density.

    g_f g_b = z has density (2/(1-rho)) I0(2 sqrt(rho z)/(1-rho))
    K0(2 sqrt(z)/(1-rho)) and gamma = gbar z / (1+rho).  The integral is
    taken in t = sqrt(z), split at the knee t = gbar^(-1/2) of the log.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(20):
        gbar, rho = mp.mpf(gbar), mp.mpf(rho)
        s = 1 / (1 - rho)

        def integrand(t):
            dens = 2 * s * mp.besseli(0, 2 * mp.sqrt(rho) * s * t) \
                * mp.besselk(0, 2 * s * t)
            return mp.log(1 + gbar * t * t / (1 + rho), 2) * dens * 2 * t

        knee = 1 / mp.sqrt(gbar)
        cuts = sorted({knee / 10, knee, 10 * knee, mp.mpf("0.1"),
                       mp.mpf(1), mp.mpf(10), mp.mpf(40)})
        return float(mp.quad(integrand, [0, *cuts, mp.inf]))


def _ci_si_capacity(gbar):
    """Capacity at rho = 1 in closed form.

    Both links carry the same gain G ~ Exp(1), so gamma = s G^2 with
    s = gbar/2, and with u = 1/sqrt(s)
        C = (2/ln 2) [-Ci(u) cos u - (Si(u) - pi/2) sin u].
    The two terms cancel to O(1/u^2) at large u, hence the working digits.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        u = 1 / mp.sqrt(mp.mpf(gbar) / 2)
        return float(2 / mp.log(2) * (-mp.ci(u) * mp.cos(u)
                                      - (mp.si(u) - mp.pi / 2) * mp.sin(u)))


RHO_ONE_GAMMA_BARS = [1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12]


class TestQuadrature:
    @pytest.mark.parametrize("point, expected", sorted(GOLDEN_CAPACITY.items()))
    def test_golden_values(self, point, expected):
        est = capacity_quadrature(ChannelParams(*point))
        assert est.value == pytest.approx(expected, rel=1e-9)
        assert est.diagnostics["nodes"] > 0

    def test_low_snr_first_moment_bound(self):
        for rho in (0.0, 0.5):
            p = ChannelParams(1e-6, rho)
            bound = LOG2E * p.gamma_bar * (1.0 + 1e-9)
            assert capacity_quadrature(p).value <= bound

    @pytest.mark.parametrize("gbar", RHO_ONE_GAMMA_BARS)
    def test_rho_one_against_ci_si(self, gbar):
        est = capacity_quadrature(ChannelParams(gbar, 1.0))
        assert est.value == pytest.approx(_ci_si_capacity(gbar), rel=1e-11)

    @pytest.mark.xfail(strict=True, reason="the tail rate a - b cancels as rho -> 1: "
                       "1.5e-7 relative error at rho = 1 - 1e-9")
    def test_near_full_correlation_against_oracle(self):
        est = capacity_quadrature(ChannelParams(1.0, 1.0 - 1e-9))
        assert est.value == pytest.approx(_oracle_capacity(1.0, 1.0 - 1e-9), rel=1e-9)

    def test_monotone_in_gamma_bar(self):
        for rho in (0.0, 0.6):
            vals = [capacity_quadrature(ChannelParams(g, rho)).value
                    for g in (0.1, 1.0, 10.0, 100.0)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_monotone_decreasing_in_rho_fixed_receiver(self):
        for gbar in (1.0, 100.0):
            vals = [capacity_quadrature(ChannelParams(gbar, r)).value
                    for r in (0.0, 0.3, 0.6, 0.9)]
            assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_fixed_budget_low_snr_benefit(self):
        # with the power budget held, correlation helps at low SNR
        for snr_I_db in (-20.0, -30.0):
            snr_I = 10.0 ** (snr_I_db / 10.0)
            vals = [capacity_quadrature(ChannelParams(snr_I * (1 + r), r)).value
                    for r in (0.0, 0.3, 0.6, 0.9)]
            assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_jensen_bounds(self):
        for gbar, rho in ((1.0, 0.0), (10.0, 0.5), (1000.0, 0.9)):
            c = capacity_quadrature(ChannelParams(gbar, rho)).value
            assert c < capacity_rayleigh(gbar).value < capacity_awgn(gbar).value


class TestSeries:
    def test_single_term_at_rho_zero(self):
        est = capacity_series(ChannelParams(5.0, 0.0))
        assert est.diagnostics["terms_used"] == 1
        ref = capacity_quadrature(ChannelParams(5.0, 0.0)).value
        assert est.value == pytest.approx(ref, rel=1e-9)

    @pytest.mark.parametrize("gbar, rho", [(10.0, 0.5), (10.0, 0.9), (0.1, 0.3),
                                           (10.0, 0.99)])
    def test_matches_quadrature(self, gbar, rho):
        cs = capacity_series(ChannelParams(gbar, rho))
        cq = capacity_quadrature(ChannelParams(gbar, rho))
        assert cs.value == pytest.approx(cq.value, rel=1e-6)

    def test_term_count_grows_with_rho(self):
        # the power series in rho up to the switch, the series in 1 - rho
        # above it: the count grows up to the switch and stays bounded
        rhos = np.linspace(0.0, 1.0, 21)
        t = [capacity_series(ChannelParams(10.0, r)).diagnostics["terms_used"]
             for r in rhos]
        below = [n for r, n in zip(rhos, t) if r <= _SERIES_SWITCH_RHO]
        assert all(a < b for a, b in zip(below, below[1:]))
        assert max(t) <= 120

    def test_golden_near_full_correlation(self):
        est = capacity_series(ChannelParams(1e4, 0.999))
        assert est.value == pytest.approx(GOLDEN_CAPACITY[(1e4, 0.999)], rel=1e-10)

    @pytest.mark.parametrize("gbar, rho", [(10.0, 0.9999), (0.1, 0.99999),
                                           (1e6, 0.999999)])
    def test_converges_near_full_correlation(self, gbar, rho):
        est = capacity_series(ChannelParams(gbar, rho))
        assert est.value == pytest.approx(_oracle_capacity(gbar, rho), rel=1e-9)

    @pytest.mark.parametrize("gbar", RHO_ONE_GAMMA_BARS)
    def test_rho_one_against_ci_si(self, gbar):
        est = capacity_series(ChannelParams(gbar, 1.0))
        assert est.value == pytest.approx(_ci_si_capacity(gbar), rel=1e-11)

    def test_direct_factor_stays_where_it_is_accurate(self, monkeypatch):
        # the power series of 2F1(-s, -s; 1; rho) cancels at large |Im s|
        # (7e-12 at s = 1/2 + 9i, 4e-8 at 1/2 + 13i for rho = 0.6); the
        # contour's truncation keeps it below |Im s| = 9.5 on the direct path
        mp = pytest.importorskip("mpmath")
        widest = {}

        def spy(a, c, z):
            s = -a.ravel()[np.argmax(np.abs(a.imag))]
            if abs(s.imag) > abs(widest.get(z, 0j).imag):
                widest[z] = complex(s)
            return _hyp2f1_series(a, c, z)

        monkeypatch.setattr(capacity, "_hyp2f1_series", spy)
        for rho in (0.0, 0.3, 0.6):
            for snr_db in range(-60, 121, 10):
                capacity_series(ChannelParams(10.0 ** (snr_db / 10.0), rho))
        assert set(widest) == {0.0, 0.3, 0.6}
        for z, s in widest.items():
            assert abs(s.imag) <= 9.5
            got = _hyp2f1_series(np.array([-s]), 1.0, z)[0][0]
            with mp.workdps(30):
                ref = complex(mp.hyp2f1(-s, -s, 1, z))
            assert abs(got - ref) <= 1e-11

    @pytest.mark.parametrize("gamma_bar, rho", [(0.1, 0.0), (10.0, 0.5), (1e4, 0.99),
                                                (1.0, 1.0)])
    def test_point_evaluates_factor_once(self, monkeypatch, gamma_bar, rho):
        # levels 0-2 of the contour and its tail node share one factor call
        calls = []

        def counting(fn):
            def counted(s, *args):
                calls.append(np.size(s))
                return fn(s, *args)
            return counted

        for name in ("_hyp2f1_series", "_hyp2f1_near_one"):
            monkeypatch.setattr(capacity, name, counting(getattr(capacity, name)))
        est = capacity_series(ChannelParams(gamma_bar, rho))
        assert calls == [257]
        assert est.diagnostics["nodes"] == 256

    @pytest.mark.parametrize("rho", [0.61, 0.75, 0.9])
    def test_connection_path_against_moment_series(self, rho):
        # at -60 dB the moment series log2(e) sum_k (-1)^{k+1} E{gamma^k}/k,
        # E{gamma^k} = (gbar/(1+rho))^k k!^2 2F1(-k, -k; 1; rho), is exact
        # to far below double precision within eight terms
        mp = pytest.importorskip("mpmath")
        gbar = 1e-6
        with mp.workdps(40):
            x = mp.mpf(gbar) / (1 + mp.mpf(rho))
            ref = sum((-1) ** (k + 1) * x ** k * mp.factorial(k) ** 2
                      * mp.hyp2f1(-k, -k, 1, mp.mpf(rho)) / k
                      for k in range(1, 9)) / mp.log(2)
        est = capacity_series(ChannelParams(gbar, rho))
        assert rho > _SERIES_SWITCH_RHO
        assert est.value == pytest.approx(float(ref), rel=1e-12, abs=0)

    def test_convergence_error_names_the_point(self):
        with pytest.raises(ConvergenceError) as err:
            capacity_series(ChannelParams(10.0, 0.5),
                            AccuracyPolicy(rel_tol=1e-13, max_quadrature_nodes=64))
        assert err.value.diagnostics["gamma_bar"] == 10.0
        assert err.value.diagnostics["rho"] == 0.5


class TestAsymptotes:
    def test_high_snr_values(self):
        assert capacity_high_snr(ChannelParams(1000.0, 0.0)).value == \
            pytest.approx(8.3002919301, rel=1e-10)
        assert capacity_high_snr(ChannelParams(1000.0, 1.0)).value == \
            pytest.approx(7.3002919301, rel=1e-10)
        assert capacity_high_snr(ChannelParams(1e4, 0.9)).value == \
            pytest.approx(10.6962206064, rel=1e-10)

    def test_budget_form(self):
        assert capacity_high_snr_budget(1e4).value == \
            pytest.approx(11.6222200250, rel=1e-10)
        assert capacity_high_snr_budget(1e3).value == \
            pytest.approx(capacity_high_snr(ChannelParams(1e3, 0.0)).value,
                          rel=1e-14, abs=0)

    def test_budget_equals_receiver_form_identity(self):
        # log2(snr_I (1+rho)) - log2(1+rho) == log2(snr_I)
        for snr_I in (0.01, 1.0, 250.0):
            for rho in (0.0, 0.4, 1.0):
                lhs = capacity_high_snr(ChannelParams(snr_I * (1 + rho), rho)).value
                assert lhs == pytest.approx(capacity_high_snr_budget(snr_I).value,
                                            abs=1e-11)

    def test_asymptotic_error_marker(self):
        est = capacity_high_snr(ChannelParams(10.0, 0.5))
        assert math.isnan(est.error_bound)
        assert est.diagnostics["kind"] == "asymptotic"

    def test_negative_values_not_clamped(self):
        assert capacity_high_snr(ChannelParams(0.01, 0.0)).value < 0.0

    def test_low_snr(self):
        est = capacity_low_snr(Parameterization(FIXED_POWER_BUDGET, 0.01, 0.0))
        assert est.value == pytest.approx(0.0144269504, rel=1e-8)
        # linear in (1+rho) at fixed budget
        r0 = capacity_low_snr(Parameterization(FIXED_POWER_BUDGET, 0.01, 0.0)).value
        r1 = capacity_low_snr(Parameterization(FIXED_POWER_BUDGET, 0.01, 1.0)).value
        assert r1 / r0 == pytest.approx(2.0, rel=1e-14, abs=0)
        # in receiver mode it is log2(e) * gamma_bar
        est = capacity_low_snr(Parameterization(FIXED_RECEIVER_SNR, 0.02, 0.7))
        assert est.value == pytest.approx(LOG2E * 0.02, rel=1e-14, abs=0)

    def test_low_snr_matches_quadrature_to_two_percent(self):
        p = Parameterization(FIXED_POWER_BUDGET, 1e-3, 0.5)
        approx = capacity_low_snr(p).value
        exact = capacity_quadrature(p.channel_params()).value
        assert abs(approx - exact) / exact < 0.02

    def test_correlation_loss_approaches_log2_one_plus_rho(self):
        # C(gbar,0) - C(gbar,0.999) tends to log2(1.999) from below as gbar
        # grows; criterion 4b owns that ladder logic, here run a decade lower
        res = validation.check_correlation_loss_gap(snr_db_ladder=(30.0, 40.0, 50.0))
        assert res.passed, res.detail


class TestMpmathOracle:
    @pytest.mark.parametrize("point", [(0.1, 0.6), (3.98, 0.6), (10.0, 0.0), (1e4, 0.0)])
    def test_quadrature_to_rounding(self, point):
        # the integrand's Bessel factors are within a few ulp of mpmath, so
        # the quadrature sum lands within a few ulp of the oracle too
        # (pytest.approx would add its default abs=1e-12)
        ref = _oracle_capacity(*point)
        assert abs(capacity_quadrature(ChannelParams(*point)).value - ref) <= 2e-15 * ref

    @pytest.mark.parametrize("point", [(1e4, 0.0), (1e4, 0.999)])
    def test_golden_capacity_at_40db(self, point):
        assert _oracle_capacity(*point) == \
            pytest.approx(GOLDEN_CAPACITY[point], rel=1e-13, abs=0)

    @pytest.mark.parametrize("snr_db, loss", [(50.0, 0.980867470258),
                                              (60.0, 0.993657329045)])
    def test_correlation_loss(self, snr_db, loss):
        g = 10.0 ** (snr_db / 10.0)
        exact = _oracle_capacity(g, 0.0) - _oracle_capacity(g, 0.999)
        assert exact == pytest.approx(loss, abs=1e-11)
        engine = capacity_quadrature(ChannelParams(g, 0.0)).value \
            - capacity_quadrature(ChannelParams(g, 0.999)).value
        assert engine == pytest.approx(exact, abs=1e-9)


class TestReferences:
    def test_awgn(self):
        assert capacity_awgn(1.0).value == pytest.approx(1.0, rel=1e-14, abs=0)
        # log2(1001)
        assert capacity_awgn(1000.0).value == pytest.approx(9.9672262588, rel=1e-10)
        assert capacity_awgn(1e-9).value == pytest.approx(LOG2E * 1e-9, rel=1e-6)

    def test_rayleigh(self):
        assert capacity_rayleigh(1000.0).value == \
            pytest.approx(RAYLEIGH_AT_1000, rel=1e-10)
        # high-SNR offset is half the product-channel one; residual shrinks
        # like log(g)/g
        for g, tol in ((1e6, 3e-5), (1e8, 3e-7)):
            asym = math.log2(g) - LOG2E * 0.5772156649015329
            assert capacity_rayleigh(g).value == pytest.approx(asym, abs=tol)
        assert capacity_rayleigh(1e-9).value == pytest.approx(LOG2E * 1e-9, rel=1e-3)

    def test_domain(self):
        with pytest.raises(DomainError):
            capacity_awgn(0.0)
        with pytest.raises(DomainError):
            capacity_rayleigh(-1.0)


class TestCrossoverReport:
    @pytest.mark.parametrize("rho", sorted(GOLDEN_GAPS))
    def test_gaps_match_oracle(self, rho):
        for snr_db, want in zip((20.0, 30.0, 40.0), GOLDEN_GAPS[rho]):
            p = ChannelParams(10.0 ** (snr_db / 10.0), rho)
            got = capacity_quadrature(p).value - capacity_high_snr(p).value
            assert got == pytest.approx(want, abs=1e-8)
