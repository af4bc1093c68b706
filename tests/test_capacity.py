"""Capacity-engine tests.

Golden capacities were frozen from a 25-digit mpmath quadrature of
log2(1+gamma) against the product density; the same oracle fixed the
asymptote-gap table.  `_oracle_capacity` re-derives the 40 dB entries and
the near-full-correlation loss at 50/60 dB when mpmath is installed.
`_ci_si_capacity` is the closed form at rho = 1.  Everything labelled
"identity" is exact algebra.
"""

import math
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from backscatter_capacity import capacity, quadrature, special_functions, validation
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

    @pytest.mark.parametrize("rho, rel", [(1.0 - 1e-7, 2e-15), (1.0 - 1e-9, 2e-15),
                                          (1.0 - 2.0 ** -53, 1e-11)])
    def test_near_full_correlation_against_oracle(self, rho, rel):
        # the tail rate and the density in u do not cancel as rho -> 1; the
        # oracle itself loses digits to 1/(1-rho) at rho = 1 - 2^-53
        ref = _oracle_capacity(1.0, rho)
        assert abs(capacity_quadrature(ChannelParams(1.0, rho)).value - ref) <= rel * ref

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

    def test_threads_share_density_cache(self):
        # points of one rho race on one cache entry; each still returns its
        # serial estimate
        points = [ChannelParams(10.0 ** (d / 10.0), rho)
                  for rho in (0.3, 0.9, 1.0) for d in (-10, 5, 20, 35)]
        capacity._log2e_density.cache_clear()
        serial = [capacity_quadrature(p) for p in points]
        capacity._log2e_density.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(capacity_quadrature, p) for p in points]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert repr(got) == repr(serial)
        assert capacity._log2e_density.cache_info().currsize == 3

    def test_density_is_read_only(self):
        u = np.linspace(0.1, 40.0, 33)
        dens, = capacity._log2e_density(0.3, u)
        assert not dens.flags.writeable
        with pytest.raises(ValueError):
            dens[0] = 0.0

    @pytest.mark.parametrize("memo, method", [
        (capacity._log2e_density, capacity_quadrature),
        (capacity._contour_factor, capacity_series)])
    def test_warm_point_finds_its_entry(self, memo, method):
        # a second SNR at a cached rho is one hit on the entry of the node
        # table cached for the interval or the contour, and adds none
        memo.cache_clear()
        method(ChannelParams(10.0, 0.3))
        before = memo.cache_info()
        method(ChannelParams(1e3, 0.3))
        after = memo.cache_info()
        assert after.currsize == before.currsize == 1
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)

    def test_memo_keys_on_the_node_values(self):
        # an equal array finds the entry; a writeable array is keyed by a
        # copy, so changing it afterwards reaches a new entry, as does an
        # array of the same values in another shape
        capacity._log2e_density.cache_clear()
        u = np.linspace(0.1, 40.0, 33)
        first, = capacity._log2e_density(0.3, u)
        assert capacity._log2e_density(0.3, u.copy())[0] is first
        assert capacity._log2e_density(0.3, u.reshape(3, 11))[0].shape == (3, 11)
        u[0] = 0.2
        second, = capacity._log2e_density(0.3, u)
        assert second[0] != first[0]
        assert repr(second[1:]) == repr(first[1:])
        assert capacity._log2e_density.cache_info().currsize == 3

    def test_deep_levels_bypass_the_cache(self, monkeypatch):
        # at rel_tol 1e-13 this point refines to level 6, whose 384 new
        # nodes are one array past a memo limit of 383: levels 0-5 are
        # kept, level 6 is evaluated afresh on every call
        sizes = []
        real = capacity._pdf_u

        def spy(rho, u, scale=1.0):
            sizes.append(u.size)
            return real(rho, u, scale)

        monkeypatch.setattr(capacity, "_pdf_u", spy)
        monkeypatch.setattr(capacity, "_MEMO_MAX_NODES", 383)
        capacity._log2e_density.cache_clear()
        p = ChannelParams(1e6, 0.5)
        cold = capacity_quadrature(p, 1e-13)
        warm = capacity_quadrature(p, 1e-13)
        assert cold.diagnostics["levels"] == 6
        assert sizes == [383, 384, 384]
        assert capacity._log2e_density.cache_info().currsize == 1
        assert repr(warm) == repr(cold)

    def test_moment_check_raises_when_quadrature_fails(self, monkeypatch):
        # criterion 1 must not blame the density for an integrator failure
        monkeypatch.setattr(quadrature, "_MAX_NODES", 64)
        p = ChannelParams(1.0, 0.5)
        with pytest.raises(ConvergenceError):
            capacity_quadrature(p)
        with pytest.raises(ConvergenceError) as err:
            validation._integrate_moment(p, 0.0)
        assert err.value.diagnostics["gamma_bar"] == 1.0
        assert err.value.diagnostics["rho"] == 0.5
        assert err.value.diagnostics["k"] == 0.0


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

        capacity._contour_factor.cache_clear()  # spy on every factor, not cache hits
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

        capacity._contour_factor.cache_clear()
        for name in ("_hyp2f1_series", "_hyp2f1_near_one"):
            monkeypatch.setattr(capacity, name, counting(getattr(capacity, name)))
        est = capacity_series(ChannelParams(gamma_bar, rho))
        assert calls == [257]
        assert est.diagnostics["nodes"] == 256

    @pytest.mark.parametrize("rel_tol", [1e-10, 1e-12])
    @pytest.mark.parametrize("rho", [0.6, 0.61])
    def test_shared_rho_reuses_factor(self, monkeypatch, rho, rel_tol):
        # the factor does not depend on SNR: a second SNR at the same rho and
        # tolerance evaluates none and returns what a cold cache returns
        capacity._contour_factor.cache_clear()
        cold = capacity_series(ChannelParams(1e3, rho), rel_tol)
        capacity._contour_factor.cache_clear()
        capacity_series(ChannelParams(10.0, rho), rel_tol)
        calls = []
        for name in ("_hyp2f1_series", "_hyp2f1_near_one"):
            monkeypatch.setattr(capacity, name, lambda *a: calls.append(a))
        warm = capacity_series(ChannelParams(1e3, rho), rel_tol)
        assert calls == []
        assert warm == cold
        assert capacity._contour_factor.cache_info().currsize == 1

    def test_threads_share_factor_cache(self):
        # points of one rho race on one cache entry of the factor, and of
        # the kernel's z-free part on their contour; each still returns its
        # serial estimate
        points = [ChannelParams(10.0 ** (d / 10.0), rho)
                  for rho in (0.3, 0.9) for d in (-10, 5, 20, 35)]
        capacity._contour_factor.cache_clear()
        special_functions._mb_first_pass.cache_clear()
        serial = [capacity_series(p) for p in points]
        capacity._contour_factor.cache_clear()
        special_functions._mb_first_pass.cache_clear()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                futures = [pool.submit(capacity_series, p) for p in points]
                got = [f.result(timeout=60) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert got == serial

    def test_deep_levels_bypass_the_cache(self, monkeypatch):
        # at rel_tol 1e-13 the 120 dB contour refines past 1,024-node levels
        # and fails; only levels of at most _MEMO_MAX_NODES are kept
        sizes = []

        def spy(a, c, z):
            sizes.append(a.size)
            return _hyp2f1_series(a, c, z)

        capacity._contour_factor.cache_clear()
        monkeypatch.setattr(capacity, "_hyp2f1_series", spy)
        # the default budget would refine to 262,144 nodes (about 200 MiB)
        monkeypatch.setattr(quadrature, "_MAX_NODES", 8192)
        with pytest.raises(ConvergenceError):
            capacity_series(ChannelParams(1e12, 0.5), 1e-13)
        kept = [n for n in sizes if n <= capacity._MEMO_MAX_NODES]
        assert len(kept) < len(sizes)
        assert capacity._contour_factor.cache_info().currsize == len(kept)

    def test_contour_factor_is_read_only(self):
        s = 0.5 + 1j * np.linspace(0.0, 8.0, 33)
        factor, _ = capacity._contour_factor(0.3, s)
        assert not factor.flags.writeable
        with pytest.raises(ValueError):
            factor[0] = 0.0

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

    def test_convergence_error_names_the_point(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_NODES", 64)
        with pytest.raises(ConvergenceError) as err:
            capacity_series(ChannelParams(10.0, 0.5), 1e-13)
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
