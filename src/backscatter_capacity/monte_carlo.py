"""Seedable Monte Carlo oracle for the correlated product channel.

Correlated unit-mean exponential pairs are built from a shared complex
Gaussian: h_f = u1, h_b = sqrt(rho) u1 + sqrt(1-rho) u2 with u1, u2
independent circular Gaussians of unit total variance.  The power
correlation of (|h_f|^2, |h_b|^2) is then exactly rho and
E{g_f g_b} = 1 + rho.

Reproducibility: every batch draws from its own counter-based Philox
substream keyed by (seed, batch_index), and batch sums are combined with
exact summation, so results are bit-identical for any execution order or
degree of parallelism.  `_batch_means` uses that: the calling thread opens
every substream, then strided batch ranges run on a module-level pool
sized to the usable CPUs, each worker drawing into four rows that the
caller allocated.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel_model import Parameterization, cdf
from .errors import ConfigError, DomainError
from .special_functions import LOG2E

# asymptotic Kolmogorov critical constant at the 1% level
KS_CRITICAL_1PCT = 1.6276


@dataclass(frozen=True)
class McConfig:
    n_samples: int = 10_000_000
    seed: int = 12345
    n_batches: int = 100

    def __post_init__(self):
        if self.n_batches < 2:
            raise ConfigError("batch-means errors need at least 2 batches")
        if self.n_samples < self.n_batches:
            raise ConfigError("need at least one sample per batch")
        if self.n_samples // self.n_batches < 100:
            raise ConfigError("batches too small for batch-means errors "
                              "(need n_samples/n_batches >= 100)")
        if not (0 <= self.seed < 2 ** 64):
            raise ConfigError("seed must fit in 64 bits")

    def batch_sizes(self) -> list[int]:
        base, extra = divmod(self.n_samples, self.n_batches)
        return [base + (1 if i < extra else 0) for i in range(self.n_batches)]


@dataclass(frozen=True)
class McResult:
    estimate: float
    std_error: float
    n_samples: int
    seed: int
    batch_estimates: tuple


@dataclass(frozen=True)
class KsResult:
    statistic: float
    critical_value: float
    passed: bool
    n_samples: int
    seed: int


def batch_rng(seed: int, batch_index: int) -> np.random.Generator:
    """Independent substream for one batch; same (seed, index) always
    reproduces the same stream."""
    key = np.array([seed, batch_index], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _draw_pairs(rng: np.random.Generator, rho: float, n: int, buf=None):
    """(g_f, g_b) for n pairs, as views into the first n columns of `buf`
    (shape (4, >= n), allocated when omitted).  The rows receive the four
    normal vectors of standard_normal((4, n)) in order, and every
    operation is that of the out-of-place formula, so the bits match it."""
    if buf is None:
        buf = np.empty((4, n))
    r0, r1, r2, r3 = buf[:, :n]
    sr, sq = math.sqrt(rho), math.sqrt(1.0 - rho)
    for row in (r0, r1, r2):
        rng.standard_normal(out=row)
    np.multiply(sq, r2, out=r2)
    np.multiply(sr, r0, out=r3)
    np.add(r3, r2, out=r2)                  # re = sr z0 + sq z2
    np.multiply(sr, r1, out=r3)             # sr z1, while z1 is still there
    np.square(r0, out=r0)
    np.square(r1, out=r1)
    np.add(r0, r1, out=r0)
    np.multiply(0.5, r0, out=r0)            # g_f = (z0^2 + z1^2) / 2
    rng.standard_normal(out=r1)             # z3
    np.multiply(sq, r1, out=r1)
    np.add(r3, r1, out=r1)                  # im = sr z1 + sq z3
    np.square(r2, out=r2)
    np.square(r1, out=r1)
    np.add(r2, r1, out=r2)
    np.multiply(0.5, r2, out=r2)            # g_b = (re^2 + im^2) / 2
    return r0, r2


def _substreams(config: McConfig) -> list:
    """(rng, size) per batch, opened on the calling thread."""
    return [(batch_rng(config.seed, i), size)
            for i, size in enumerate(config.batch_sizes())]


_POOL_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                 else os.cpu_count() or 1)


def _start_pool() -> None:
    global _POOL
    _POOL = ThreadPoolExecutor(max_workers=_POOL_WORKERS,
                               thread_name_prefix="bscap-mc")


_start_pool()
if hasattr(os, "register_at_fork"):
    # a forked child inherits the pool object but none of its threads
    os.register_at_fork(after_in_child=_start_pool)


def _batch_means(param: Parameterization, config: McConfig, transform):
    """Per-batch means of transform(gamma) plus the overall mean.

    `transform` maps gamma to the summand in place.  Worker k takes
    batches k, k + W, ... and reuses its own rows of one caller-allocated
    buffer; each batch is still one np.sum over the whole batch.  The
    overall mean is the exactly-summed total over batches divided by
    n_samples, so it does not depend on accumulation order.
    """
    # in both parameterizations gamma = snr_budget * g_f * g_b:
    # the fixed-receiver mode folds its 1/(1+rho) normalization into
    # snr_budget so that E{gamma} = gamma_bar exactly
    scale, rho = param.snr_budget, param.rho
    streams = _substreams(config)
    n_workers = min(_POOL_WORKERS, len(streams))
    bufs = np.empty((n_workers, 4, max(size for _, size in streams)))
    sums = [0.0] * len(streams)

    def work(k: int) -> None:
        for i in range(k, len(streams), n_workers):
            rng, size = streams[i]
            g_f, g_b = _draw_pairs(rng, rho, size, bufs[k])
            np.multiply(scale, g_f, out=g_f)
            np.multiply(g_f, g_b, out=g_f)
            sums[i] = float(np.sum(transform(g_f)))

    for future in [_POOL.submit(work, k) for k in range(n_workers)]:
        future.result()
    means = [s / size for s, (_, size) in zip(sums, streams)]
    estimate = math.fsum(sums) / config.n_samples
    std_error = float(np.std(np.array(means), ddof=1) / math.sqrt(len(means)))
    return estimate, std_error, tuple(means)


def _log2_1p(g: np.ndarray) -> np.ndarray:
    np.log1p(g, out=g)
    return np.multiply(LOG2E, g, out=g)


def estimate_capacity(param: Parameterization, config: McConfig) -> McResult:
    """Sample mean of log2(1 + gamma) with batch-means standard error.

    Works at every rho, 1 included.
    """
    estimate, se, means = _batch_means(param, config, _log2_1p)
    return McResult(estimate, se, config.n_samples, config.seed, means)


def estimate_moment(param: Parameterization, k: int, config: McConfig) -> McResult:
    """Sample mean of gamma^k; orders above 4 are too noisy to be useful."""
    if k not in (1, 2, 3, 4):
        raise DomainError("moment order must be in {1, 2, 3, 4}")

    def power(g):
        g **= k
        return g

    estimate, se, means = _batch_means(param, config, power)
    return McResult(estimate, se, config.n_samples, config.seed, means)


def _draw_all(param: Parameterization, config: McConfig) -> np.ndarray:
    scale = param.snr_budget
    buf = np.empty((4, max(config.batch_sizes())))
    pairs = (_draw_pairs(rng, param.rho, size, buf)
             for rng, size in _substreams(config))
    return np.concatenate([scale * g_f * g_b for g_f, g_b in pairs])


def _ks_statistic(sorted_cdf_values: np.ndarray) -> float:
    n = sorted_cdf_values.size
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - sorted_cdf_values)
    d_minus = np.max(sorted_cdf_values - (i - 1) / n)
    return float(max(d_plus, d_minus))


def ks_test(param: Parameterization, config: McConfig) -> KsResult:
    """Kolmogorov-Smirnov test of sampled product SNRs against the
    analytic distribution, at the 1% level; `cdf` evaluates it at all
    sorted samples in one panel pass."""
    gamma = np.sort(_draw_all(param, config))
    d = _ks_statistic(cdf(param.channel_params(), gamma))
    crit = KS_CRITICAL_1PCT / math.sqrt(config.n_samples)
    return KsResult(d, crit, d < crit, config.n_samples, config.seed)


def ks_test_marginal(rho: float, config: McConfig, link: str = "forward") -> KsResult:
    """KS test of one link's power gain against the unit-mean exponential."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [0, 1]")
    if link not in ("forward", "backward"):
        raise ConfigError("link must be 'forward' or 'backward'")
    pick = 0 if link == "forward" else 1
    buf = np.empty((4, max(config.batch_sizes())))
    g = np.sort(np.concatenate([_draw_pairs(rng, rho, size, buf)[pick].copy()
                                for rng, size in _substreams(config)]))
    cdf_vals = -np.expm1(-g)
    d = _ks_statistic(cdf_vals)
    crit = KS_CRITICAL_1PCT / math.sqrt(config.n_samples)
    return KsResult(d, crit, d < crit, config.n_samples, config.seed)
