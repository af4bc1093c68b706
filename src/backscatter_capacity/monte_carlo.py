"""Seedable Monte Carlo oracle for the correlated product channel.

Correlated unit-mean exponential pairs are built from a shared complex
Gaussian: h_f = u1, h_b = sqrt(rho) u1 + sqrt(1-rho) u2 with u1, u2
independent circular Gaussians of unit total variance.  The power
correlation of (|h_f|^2, |h_b|^2) is then exactly rho and
E{g_f g_b} = 1 + rho.

Reproducibility: every batch draws from its own counter-based Philox
substream keyed by (seed, batch_index), and batch sums are combined with
exact summation, so results are bit-identical for any execution order or
degree of parallelism.  `_each_batch`, the one batch loop behind both the
estimates and the KS tests, uses that: the calling thread opens every
substream, then a module-level pool sized to the usable CPUs takes
batches in turn from one shared counter.  Each worker draws into three
batch-sized rows and one scratch row of _DRAW_BLOCK values that the
caller allocated, so a 1e5-pair batch holds 2.5 MB per worker.
"""

from __future__ import annotations

import itertools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel_model import Parameterization, cdf
from .errors import ConfigError, ConvergenceError, DomainError
from .special_functions import LOG2E

# asymptotic Kolmogorov critical constant at the 1% level
KS_CRITICAL_1PCT = 1.6276

# values of z2 and of z3 that one scratch row holds while they are folded in
_DRAW_BLOCK = 16384


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


def _draw_pairs(rng: np.random.Generator, rho: float, n: int, buf=None,
                scratch=None):
    """(g_f, g_b) for n pairs, as views into the first n columns of `buf`
    (shape (3, >= n)); `scratch` (at least min(n, _DRAW_BLOCK) values)
    takes z2 and z3 one block at a time.  Both are allocated when omitted.
    The four normal vectors of standard_normal((4, n)) are drawn in stream
    order, and every operation is that of the out-of-place formula, so the
    bits match it."""
    if buf is None:
        buf = np.empty((3, n))
    if scratch is None:
        scratch = np.empty(min(n, _DRAW_BLOCK))
    g_f, z1, g_b = buf[:, :n]
    sr, sq = math.sqrt(rho), math.sqrt(1.0 - rho)
    rng.standard_normal(out=g_f)            # z0
    rng.standard_normal(out=z1)
    np.multiply(sr, g_f, out=g_b)           # sr z0
    np.square(g_f, out=g_f)
    for lo in range(0, n, _DRAW_BLOCK):
        re, f = g_b[lo:lo + _DRAW_BLOCK], g_f[lo:lo + _DRAW_BLOCK]
        z = scratch[:re.size]
        rng.standard_normal(out=z)          # z2
        np.multiply(sq, z, out=z)
        np.add(re, z, out=re)               # re = sr z0 + sq z2
        np.square(z1[lo:lo + _DRAW_BLOCK], out=z)
        np.add(f, z, out=f)
    np.multiply(0.5, g_f, out=g_f)          # g_f = (z0^2 + z1^2) / 2
    np.square(g_b, out=g_b)
    np.multiply(sr, z1, out=z1)
    for lo in range(0, n, _DRAW_BLOCK):
        b = g_b[lo:lo + _DRAW_BLOCK]
        z = scratch[:b.size]
        rng.standard_normal(out=z)          # z3
        np.multiply(sq, z, out=z)
        np.add(z1[lo:lo + _DRAW_BLOCK], z, out=z)   # im = sr z1 + sq z3
        np.square(z, out=z)
        np.add(b, z, out=b)
    np.multiply(0.5, g_b, out=g_b)          # g_b = (re^2 + im^2) / 2
    return g_f, g_b


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


def _each_batch(rho: float, config: McConfig, consume) -> None:
    """consume(i, g_f, g_b) for every batch i, on the pool: the calling
    thread opens every substream, a worker takes the next undrawn batch
    from one shared counter (a descheduled worker holds up no fixed share)
    and draws into its own rows of the buffers allocated here.  `consume`
    calls only numpy and private helpers, and writes only batch i's result."""
    sizes = config.batch_sizes()
    streams = [batch_rng(config.seed, i) for i in range(len(sizes))]
    n_workers = min(_POOL_WORKERS, len(sizes))
    width = max(sizes)
    bufs = np.empty((n_workers, 3, width))
    scratch = np.empty((n_workers, min(width, _DRAW_BLOCK)))
    batches = itertools.count()  # next() is one C call: no index goes out twice

    def work(k: int) -> None:
        # a gamma past the double range becomes inf, and the caller says so
        with np.errstate(over="ignore"):
            while (i := next(batches)) < len(sizes):
                consume(i, *_draw_pairs(streams[i], rho, sizes[i], bufs[k], scratch[k]))

    for future in [_POOL.submit(work, k) for k in range(n_workers)]:
        future.result()


def _gamma(scale: float, g_f, g_b, out) -> np.ndarray:
    """(scale g_f) g_b into `out`; in both parameterizations gamma =
    snr_budget g_f g_b, the fixed-receiver mode folding its 1/(1+rho)
    normalization into snr_budget so that E{gamma} = gamma_bar exactly."""
    np.multiply(scale, g_f, out=out)
    return np.multiply(out, g_b, out=out)


def _batch_means(param: Parameterization, config: McConfig, transform) -> McResult:
    """Mean of transform(gamma) with its batch means and standard error.

    `transform` maps gamma to the summand in place, and each batch is one
    np.sum over the whole batch.  The overall mean is the exactly-summed
    total over batches divided by n_samples, so it does not depend on
    accumulation order; a total that is not finite raises ConvergenceError.
    """
    scale, sizes = param.snr_budget, config.batch_sizes()
    sums = [0.0] * len(sizes)

    def consume(i, g_f, g_b):
        sums[i] = float(np.sum(transform(_gamma(scale, g_f, g_b, g_f))))

    _each_batch(param.rho, config, consume)
    try:
        estimate = math.fsum(sums) / config.n_samples
    except OverflowError:  # finite batch sums whose total is not finite
        estimate = math.inf
    if not math.isfinite(estimate):
        raise ConvergenceError("Monte Carlo sum is not finite",
                               {"seed": config.seed, "gamma_bar": param.gamma_bar,
                                "rho": param.rho})
    means = [s / size for s, size in zip(sums, sizes)]
    std_error = float(np.std(np.array(means), ddof=1) / math.sqrt(len(means)))
    return McResult(estimate, std_error, config.n_samples, config.seed, tuple(means))


def _log2_1p(g: np.ndarray) -> np.ndarray:
    np.log1p(g, out=g)
    return np.multiply(LOG2E, g, out=g)


def estimate_capacity(param: Parameterization, config: McConfig) -> McResult:
    """Sample mean of log2(1 + gamma) with batch-means standard error.

    Works at every rho, 1 included.
    """
    return _batch_means(param, config, _log2_1p)


def estimate_moment(param: Parameterization, k: int, config: McConfig) -> McResult:
    """Sample mean of gamma^k; orders above 4 are too noisy to be useful."""
    if k not in (1, 2, 3, 4):
        raise DomainError("moment order must be in {1, 2, 3, 4}")

    def power(g):
        g **= k
        return g

    return _batch_means(param, config, power)


def _draw_all(rho: float, config: McConfig, write) -> np.ndarray:
    """One value per sample: write(g_f, g_b, out) puts batch i's values
    into its slice `out` of the one result array."""
    vals = np.empty(config.n_samples)
    ends = list(itertools.accumulate(config.batch_sizes()))
    _each_batch(rho, config, lambda i, g_f, g_b:
                write(g_f, g_b, vals[ends[i] - g_f.size:ends[i]]))
    return vals


def _ks_statistic(sorted_cdf_values: np.ndarray) -> float:
    """max over i of i/n - F_i and F_i - (i-1)/n, each difference formed
    in place in one float arange, which holds the integers exactly."""
    n = sorted_cdf_values.size
    d = np.arange(1.0, n + 1.0)
    d /= n
    d -= sorted_cdf_values
    d_plus = d.max()
    del d  # so that the second arange can take its place
    d = np.arange(0.0, n)
    d /= n
    np.subtract(sorted_cdf_values, d, out=d)
    return float(max(d_plus, d.max()))


def ks_test(param: Parameterization, config: McConfig) -> KsResult:
    """Kolmogorov-Smirnov test of sampled product SNRs against the
    analytic distribution, at the 1% level; `cdf` evaluates it at all
    sorted samples in one panel pass."""
    gamma = _draw_all(param.rho, config, lambda g_f, g_b, out:
                      _gamma(param.snr_budget, g_f, g_b, out))
    gamma.sort()
    if not math.isfinite(gamma[-1]):  # inf and nan sort last
        raise ConvergenceError("Monte Carlo sample is not finite",
                               {"seed": config.seed, "gamma_bar": param.gamma_bar,
                                "rho": param.rho})
    d = _ks_statistic(cdf(param.channel_params(), gamma))
    crit = KS_CRITICAL_1PCT / math.sqrt(config.n_samples)
    return KsResult(d, crit, d < crit, config.n_samples, config.seed)


def ks_test_marginal(rho: float, config: McConfig, link: str = "forward") -> KsResult:
    """KS test of one link's power gain against the unit-mean exponential."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [0, 1]")
    if link not in ("forward", "backward"):
        raise ConfigError("link must be 'forward' or 'backward'")
    g = _draw_all(rho, config, lambda g_f, g_b, out:
                  np.copyto(out, g_f if link == "forward" else g_b))
    g.sort()
    np.negative(g, out=g)
    np.expm1(g, out=g)
    np.negative(g, out=g)                   # F = -expm1(-g)
    d = _ks_statistic(g)
    crit = KS_CRITICAL_1PCT / math.sqrt(config.n_samples)
    return KsResult(d, crit, d < crit, config.n_samples, config.seed)
