"""Monte Carlo module tests: sampler law, determinism, oracle agreement.

The exact rho = 1 capacity at 40 dB receiver SNR (E log2(1 + gbar g^2/2),
g unit exponential) was frozen from 25-digit quadrature.
"""

import math
import multiprocessing
import os
import sys
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from backscatter_capacity import monte_carlo
from backscatter_capacity.capacity import capacity_quadrature
from backscatter_capacity.channel_model import (
    FIXED_POWER_BUDGET,
    FIXED_RECEIVER_SNR,
    ChannelParams,
    Parameterization,
)
from backscatter_capacity.errors import ConfigError, ConvergenceError, DomainError
from backscatter_capacity.monte_carlo import (
    KsResult,
    McConfig,
    _batch_means,
    _draw_all,
    _draw_pairs,
    _gamma,
    _ks_statistic,
    batch_rng,
    estimate_capacity,
    estimate_moment,
    ks_test,
    ks_test_marginal,
)
from backscatter_capacity.special_functions import LOG2E

RHO1_CAPACITY_40DB = 10.684820137470785

CFG = McConfig(n_samples=200_000, seed=901, n_batches=100)


class TestConfig:
    def test_invariants(self):
        with pytest.raises(ConfigError):
            McConfig(n_samples=50, n_batches=100)
        with pytest.raises(ConfigError):
            McConfig(n_samples=5_000, n_batches=100)  # <100 per batch
        with pytest.raises(ConfigError):
            McConfig(seed=-1)

    @pytest.mark.parametrize("n_batches", [0, 1, -1])
    def test_batch_means_need_two_batches(self, n_batches):
        with pytest.raises(ConfigError):
            McConfig(n_samples=1000, n_batches=n_batches)

    def test_batch_sizes_cover_everything(self):
        cfg = McConfig(n_samples=100_050, seed=1, n_batches=100)
        sizes = cfg.batch_sizes()
        assert sum(sizes) == cfg.n_samples
        assert max(sizes) - min(sizes) <= 1


class TestSampler:
    def test_rho_one_links_identical(self):
        g_f, g_b = _draw_pairs(batch_rng(3, 0), 1.0, 5)
        assert np.array_equal(g_f, g_b)

    def test_rho_zero_uncorrelated(self):
        g_f, g_b = _draw_pairs(batch_rng(5, 0), 0.0, 1_000_000)
        cov = float(np.mean(g_f * g_b)) - 1.0
        se = float(np.std(g_f * g_b)) / 1000.0
        assert abs(cov) <= 3.0 * se

    def test_product_mean_tracks_one_plus_rho(self):
        g_f, g_b = _draw_pairs(batch_rng(6, 0), 0.5, 1_000_000)
        prod = g_f * g_b
        se = float(np.std(prod)) / 1000.0
        assert float(np.mean(prod)) == pytest.approx(1.5, abs=3.0 * se)

    @pytest.mark.parametrize("rho", [0.0, 0.25, 0.5, 0.75, 0.9, 1.0])
    def test_power_correlation_calibrated(self, rho):
        g_f, g_b = _draw_pairs(batch_rng(7, int(rho * 100)), rho, 1_000_000)
        r = float(np.corrcoef(g_f, g_b)[0, 1])
        assert r == pytest.approx(rho, abs=0.005)

    def test_unit_means(self):
        g_f, g_b = _draw_pairs(batch_rng(8, 0), 0.7, 1_000_000)
        assert float(np.mean(g_f)) == pytest.approx(1.0, abs=0.004)
        assert float(np.mean(g_b)) == pytest.approx(1.0, abs=0.004)

    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_blocked_draw_matches_out_of_place_formula(self, rho):
        # sizes on both sides of one and two scratch blocks, into one
        # reused buffer wider than any of them that starts full of nan
        sr, sq = math.sqrt(rho), math.sqrt(1.0 - rho)
        buf = np.full((3, 100_010), np.nan)
        scratch = np.full(monte_carlo._DRAW_BLOCK, np.nan)
        for n in (1, 16_383, 16_384, 16_385, 32_771, 100_003):
            z = batch_rng(12, n).standard_normal((4, n))
            re = sr * z[0] + sq * z[2]
            im = sr * z[1] + sq * z[3]
            g_f, g_b = _draw_pairs(batch_rng(12, n), rho, n, buf, scratch)
            assert g_f.tobytes() == (0.5 * (z[0] ** 2 + z[1] ** 2)).tobytes()
            assert g_b.tobytes() == (0.5 * (re ** 2 + im ** 2)).tobytes()


class TestEstimates:
    def test_capacity_within_3se_of_quadrature(self):
        for gbar, rho in ((1000.0, 0.0), (1.0, 0.5)):
            res = estimate_capacity(
                Parameterization(FIXED_RECEIVER_SNR, gbar, rho), CFG)
            ref = capacity_quadrature(ChannelParams(gbar, rho)).value
            assert abs(res.estimate - ref) <= 3.0 * res.std_error

    def test_bit_reproducible(self):
        param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.3)
        r1 = estimate_capacity(param, CFG)
        r2 = estimate_capacity(param, CFG)
        assert r1.estimate == r2.estimate
        assert r1.batch_estimates == r2.batch_estimates

    def test_aggregation_is_order_insensitive(self):
        # combining the same batch sums in any order gives the same bits,
        # which is what makes parallel execution irrelevant to the result
        param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.3)
        res = _batch_means(param, CFG, np.log1p)
        sizes = CFG.batch_sizes()
        sums = [m * s for m, s in zip(res.batch_estimates, sizes)]
        rng = np.random.default_rng(0)
        for _ in range(3):
            order = rng.permutation(len(sums))
            shuffled = math.fsum(sums[i] for i in order) / CFG.n_samples
            assert shuffled == res.estimate

    def test_fixed_receiver_normalization_matches_budget_construction(self):
        # gamma_i streams coincide when gamma_bar = snr_I (1+rho)
        rho = 0.8
        snr_I = 5.0
        r_budget = estimate_capacity(
            Parameterization(FIXED_POWER_BUDGET, snr_I, rho), CFG)
        r_receiver = estimate_capacity(
            Parameterization(FIXED_RECEIVER_SNR, snr_I * (1 + rho), rho), CFG)
        assert r_budget.estimate == r_receiver.estimate

    def test_rho_one_against_frozen_exact_value(self):
        cfg = McConfig(n_samples=1_000_000, seed=424, n_batches=100)
        res = estimate_capacity(
            Parameterization(FIXED_RECEIVER_SNR, 1e4, 1.0), cfg)
        assert abs(res.estimate - RHO1_CAPACITY_40DB) <= 3.0 * res.std_error

    def test_rho_one_consistent_with_near_one_quadrature(self):
        cfg = McConfig(n_samples=1_000_000, seed=425, n_batches=100)
        res = estimate_capacity(
            Parameterization(FIXED_RECEIVER_SNR, 100.0, 1.0), cfg)
        ref = capacity_quadrature(ChannelParams(100.0, 0.9999)).value
        assert abs(res.estimate - ref) <= 3.0 * res.std_error

    def test_moment_first_order_unbiased(self):
        res = estimate_moment(Parameterization(FIXED_RECEIVER_SNR, 7.0, 0.6),
                              1, CFG)
        assert abs(res.estimate - 7.0) <= 3.0 * res.std_error

    def test_moment_second_order(self):
        res = estimate_moment(Parameterization(FIXED_RECEIVER_SNR, 1.0, 0.5),
                              2, CFG)
        assert abs(res.estimate - 52.0 / 9.0) <= 3.0 * res.std_error
        res = estimate_moment(Parameterization(FIXED_RECEIVER_SNR, 1.0, 1.0),
                              2, CFG)
        assert abs(res.estimate - 6.0) <= 3.0 * res.std_error

    def test_sum_past_the_double_range_raises(self):
        # at 3070 dB some scale g_f g_b passes 1.8e308 and its log is inf:
        # the estimate raises, and no overflow warning leaves the pool
        cfg = McConfig(n_samples=10_000, seed=12345, n_batches=10)
        with pytest.raises(ConvergenceError) as err:
            estimate_capacity(Parameterization(FIXED_RECEIVER_SNR, 1e307, 0.0), cfg)
        assert err.value.diagnostics == {"seed": 12345, "gamma_bar": 1e307, "rho": 0.0}
        # here every batch sum, about 5e307, is finite and their total is not
        with pytest.raises(ConvergenceError):
            estimate_moment(Parameterization(FIXED_RECEIVER_SNR, 5e304, 0.5), 1, cfg)
        # 20 dB lower every sample stays finite, and so does the estimate
        param = Parameterization(FIXED_RECEIVER_SNR, 1e305, 0.0)
        res = estimate_capacity(param, cfg)
        assert (res.estimate, res.std_error, res.batch_estimates) == \
            _serial_reference(param, cfg, monte_carlo._log2_1p)

    def test_moment_order_domain(self):
        with pytest.raises(DomainError):
            estimate_moment(Parameterization(FIXED_RECEIVER_SNR, 1.0, 0.5), 5, CFG)


def _serial_reference(param, config, transform):
    """The single-threaded engine, with out-of-place standard_normal((4, n))
    arithmetic, as the bit-identity reference for the batch pool."""
    scale = param.snr_budget
    sr, sq = math.sqrt(param.rho), math.sqrt(1.0 - param.rho)
    sums, means = [], []
    for i, size in enumerate(config.batch_sizes()):
        z = batch_rng(config.seed, i).standard_normal((4, size))
        g_f = 0.5 * (z[0] ** 2 + z[1] ** 2)
        re = sr * z[0] + sq * z[2]
        im = sr * z[1] + sq * z[3]
        g_b = 0.5 * (re ** 2 + im ** 2)
        s = float(np.sum(transform(scale * g_f * g_b)))
        sums.append(s)
        means.append(s / size)
    estimate = math.fsum(sums) / config.n_samples
    std_error = float(np.std(np.array(means), ddof=1) / math.sqrt(len(means)))
    return estimate, std_error, tuple(means)


def _ks_gamma(param, config):
    """Every sampled gamma, as ks_test draws them before sorting."""
    return _draw_all(param.rho, config, lambda g_f, g_b, out:
                     _gamma(param.snr_budget, g_f, g_b, out))


def _small_estimate() -> str:
    cfg = McConfig(n_samples=20_000, seed=33, n_batches=100)
    return repr(estimate_capacity(
        Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.5), cfg))


class TestBatchPool:
    CFG = McConfig(n_samples=100_050, seed=31, n_batches=100)  # uneven batches

    @pytest.mark.parametrize("mode", [FIXED_RECEIVER_SNR, FIXED_POWER_BUDGET])
    @pytest.mark.parametrize("rho", [0.0, 0.5, 1.0])
    def test_bit_identical_to_serial_reference(self, mode, rho):
        param = Parameterization(mode, 10.0, rho)
        res = estimate_capacity(param, self.CFG)
        ref = _serial_reference(param, self.CFG, lambda g: LOG2E * np.log1p(g))
        assert repr((res.estimate, res.std_error, res.batch_estimates)) == repr(ref)
        for k in (1, 2, 3, 4):
            res = estimate_moment(param, k, self.CFG)
            ref = _serial_reference(param, self.CFG, lambda g: g ** k)
            assert repr((res.estimate, res.std_error, res.batch_estimates)) == repr(ref)

    def test_multi_block_batches_match_serial_reference(self):
        # two batches of about 50,000 pairs, four scratch blocks each
        cfg = McConfig(n_samples=100_007, seed=34, n_batches=2)
        param = Parameterization(FIXED_POWER_BUDGET, 10.0, 0.6)
        res = estimate_capacity(param, cfg)
        ref = _serial_reference(param, cfg, lambda g: LOG2E * np.log1p(g))
        assert repr((res.estimate, res.std_error, res.batch_estimates)) == repr(ref)
        res = estimate_moment(param, 2, cfg)
        ref = _serial_reference(param, cfg, lambda g: g ** 2)
        assert repr((res.estimate, res.std_error, res.batch_estimates)) == repr(ref)

    def test_worker_count_does_not_move_bits(self, monkeypatch):
        # batches go to whichever worker asks next, switching threads often;
        # 3 workers may exceed the pool's threads, so one may find every
        # batch taken.  A batch handed out twice would leave another unsummed,
        # or a slice of the KS samples unwritten
        param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.5)
        calls = (lambda: estimate_capacity(param, self.CFG),
                 lambda: ks_test(param, self.CFG),
                 lambda: ks_test_marginal(0.5, self.CFG, "backward"))
        expected = [repr(f()) for f in calls]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for workers in (1, 2, 3):
                monkeypatch.setattr(monte_carlo, "_POOL_WORKERS", workers)
                assert [repr(f()) for f in calls] == expected
        finally:
            sys.setswitchinterval(interval)

    def test_peak_memory_is_three_rows_and_a_block_per_worker(self):
        cfg = McConfig(n_samples=1_000_000, seed=35, n_batches=10)
        param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.5)
        workers = min(monte_carlo._POOL_WORKERS, cfg.n_batches)
        width = max(cfg.batch_sizes())
        # a process's first estimate also imports numpy.random (about 0.7 MiB)
        estimate_capacity(param, McConfig(n_samples=1000, n_batches=10))
        tracemalloc.start()
        try:
            estimate_capacity(param, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * (3 * width + monte_carlo._DRAW_BLOCK) * 8 * workers

    def test_substreams_opened_on_calling_thread(self, monkeypatch):
        threads = []
        opened = monte_carlo.batch_rng

        def recording(seed, batch_index):
            threads.append(threading.get_ident())
            return opened(seed, batch_index)

        monkeypatch.setattr(monte_carlo, "batch_rng", recording)
        param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.5)
        estimate_capacity(param, self.CFG)
        estimate_moment(param, 2, self.CFG)
        ks_test(param, self.CFG)
        ks_test_marginal(0.5, self.CFG)
        assert len(threads) == 4 * self.CFG.n_batches
        assert set(threads) == {threading.get_ident()}

    def test_concurrent_callers_share_the_pool(self):
        # more callers than cores, switching threads often: every caller
        # must still get the bits of its own serial result
        cfg = McConfig(n_samples=20_000, seed=32, n_batches=100)
        params = [Parameterization(FIXED_RECEIVER_SNR, 10.0, rho)
                  for rho in (0.0, 0.3, 0.6, 0.9, 1.0, 0.5, 0.7, 0.1)]
        expected = [repr(estimate_capacity(p, cfg)) for p in params]
        got = [None] * len(params)

        def call(j):
            got[j] = repr(estimate_capacity(params[j], cfg))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            callers = [threading.Thread(target=call, args=(j,))
                       for j in range(len(params))]
            for t in callers:
                t.start()
            for t in callers:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in callers)
        assert got == expected

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_gets_a_working_pool(self):
        # the parent's pool threads do not survive a fork; the child must
        # start its own instead of queueing work nobody runs
        expected = _small_estimate()
        with multiprocessing.get_context("fork").Pool(1) as pool:
            assert pool.apply_async(_small_estimate).get(timeout=60) == expected


class TestKs:
    def test_product_law_passes(self):
        cfg = McConfig(n_samples=50_000, seed=77, n_batches=100)
        res = ks_test(Parameterization(FIXED_RECEIVER_SNR, 1.0, 0.5), cfg)
        assert isinstance(res, KsResult)
        assert res.critical_value == pytest.approx(1.6276 / math.sqrt(50_000))
        assert res.passed

    def test_double_rayleigh_case_passes(self):
        cfg = McConfig(n_samples=50_000, seed=78, n_batches=100)
        assert ks_test(Parameterization(FIXED_RECEIVER_SNR, 1.0, 0.0), cfg).passed

    def test_mis_scaled_sampler_fails(self):
        from backscatter_capacity.channel_model import cdf
        cfg = McConfig(n_samples=20_000, seed=79, n_batches=100)
        param = Parameterization(FIXED_RECEIVER_SNR, 1.0, 0.5)
        gamma = np.sort(_ks_gamma(param, cfg) * 2.0)
        d = _ks_statistic(cdf(param.channel_params(), gamma))
        assert d > 1.6276 / math.sqrt(cfg.n_samples)

    def test_marginals_exponential(self):
        cfg = McConfig(n_samples=50_000, seed=80, n_batches=100)
        for link in ("forward", "backward"):
            assert ks_test_marginal(0.9, cfg, link).passed

    @pytest.mark.parametrize("mode", [FIXED_RECEIVER_SNR, FIXED_POWER_BUDGET])
    def test_rho_one_passes(self, mode):
        cfg = McConfig(n_samples=50_000, seed=81, n_batches=100)
        assert ks_test(Parameterization(mode, 1.0, 1.0), cfg).passed

    def test_draw_all_matches_concatenated_batches(self):
        cfg = McConfig(n_samples=10_007, seed=82, n_batches=10)
        param = Parameterization(FIXED_POWER_BUDGET, 3.0, 0.7)
        buf = np.empty((3, max(cfg.batch_sizes())))
        ref = np.concatenate([param.snr_budget * g_f * g_b for g_f, g_b in
                              (_draw_pairs(batch_rng(cfg.seed, i), 0.7, size, buf)
                               for i, size in enumerate(cfg.batch_sizes()))])
        assert _ks_gamma(param, cfg).tobytes() == ref.tobytes()

    def test_product_past_the_double_range_raises(self):
        # at 3070 dB some scale g_f g_b passes 1.8e308: the draws overflow
        # to inf on the pool without a warning, and ks_test rejects the
        # sample as estimate_capacity rejects its sum, naming seed and point
        cfg = McConfig(n_samples=2_000, seed=12345, n_batches=10)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError, match="sample is not finite") as err:
                ks_test(Parameterization(FIXED_RECEIVER_SNR, 1e307, 0.5), cfg)
        assert err.value.diagnostics == {"seed": 12345, "gamma_bar": 1e307, "rho": 0.5}

    @pytest.mark.parametrize("n", [1, 2, 7, 1000, 10_001])
    def test_ks_statistic_matches_integer_form(self, n):
        f = np.sort(np.random.default_rng(n).random(n))
        i = np.arange(1, n + 1)
        ref = float(max(np.max(i / n - f), np.max(f - (i - 1) / n)))
        assert repr(_ks_statistic(f)) == repr(ref)

    def test_peak_memory_in_samples(self):
        # one sample array, the batch rows and one difference at a time:
        # at most 3 sample-sized arrays (5 for the marginal test before)
        cfg = McConfig(n_samples=500_000, seed=83, n_batches=100)
        param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.5)

        def draw_and_sort():
            _ks_gamma(param, cfg).sort()

        for f in (draw_and_sort, lambda: ks_test_marginal(0.5, cfg)):
            tracemalloc.start()
            try:
                f()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 3 * 8 * cfg.n_samples
