"""Seedable Monte Carlo oracle for the correlated product channel.

Correlated unit-mean exponential pairs are built from a shared complex
Gaussian: h_f = u1, h_b = sqrt(rho) u1 + sqrt(1-rho) u2 with u1, u2
independent circular Gaussians of unit total variance.  The power
correlation of (|h_f|^2, |h_b|^2) is then exactly rho and
E{g_f g_b} = 1 + rho.

Reproducibility: every batch draws from its own counter-based Philox
substream keyed by (seed, batch_index), and batch sums are combined with
exact summation, so results are bit-identical for any execution order or
degree of parallelism.
"""

from __future__ import annotations

import math
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
class FadingPairSample:
    g_f: float
    g_b: float


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


def _draw_pairs(rng: np.random.Generator, rho: float, n: int):
    z = rng.standard_normal((4, n))
    g_f = 0.5 * (z[0] ** 2 + z[1] ** 2)
    sr, sq = math.sqrt(rho), math.sqrt(1.0 - rho)
    re = sr * z[0] + sq * z[2]
    im = sr * z[1] + sq * z[3]
    g_b = 0.5 * (re ** 2 + im ** 2)
    return g_f, g_b


def sample_pair(rng_state: np.random.Generator, rho: float) -> FadingPairSample:
    """One correlated power-gain pair from the supplied generator."""
    if not (0.0 <= rho <= 1.0):
        raise DomainError("rho must lie in [0, 1]")
    g_f, g_b = _draw_pairs(rng_state, rho, 1)
    return FadingPairSample(float(g_f[0]), float(g_b[0]))


def _batches(rho: float, config: McConfig):
    """(size, g_f, g_b) per batch, each drawn from its own substream."""
    for i, size in enumerate(config.batch_sizes()):
        g_f, g_b = _draw_pairs(batch_rng(config.seed, i), rho, size)
        yield size, g_f, g_b


def _batch_means(param: Parameterization, config: McConfig, transform):
    """Per-batch means of transform(gamma) plus the overall mean.

    The overall mean is the exactly-summed total over batches divided by
    n_samples, so it does not depend on accumulation order.
    """
    # in both parameterizations gamma = snr_budget * g_f * g_b:
    # the fixed-receiver mode folds its 1/(1+rho) normalization into
    # snr_budget so that E{gamma} = gamma_bar exactly
    scale = param.snr_budget
    sums = []
    means = []
    for size, g_f, g_b in _batches(param.rho, config):
        vals = transform(scale * g_f * g_b)
        s = float(np.sum(vals))
        sums.append(s)
        means.append(s / size)
    estimate = math.fsum(sums) / config.n_samples
    means_arr = np.array(means)
    std_error = float(np.std(means_arr, ddof=1) / math.sqrt(len(means)))
    return estimate, std_error, tuple(means)


def estimate_capacity(param: Parameterization, config: McConfig) -> McResult:
    """Sample mean of log2(1 + gamma) with batch-means standard error.

    Works at every rho, 1 included.
    """
    estimate, se, means = _batch_means(
        param, config, lambda g: LOG2E * np.log1p(g))
    return McResult(estimate, se, config.n_samples, config.seed, means)


def estimate_moment(param: Parameterization, k: int, config: McConfig) -> McResult:
    """Sample mean of gamma^k; orders above 4 are too noisy to be useful."""
    if k not in (1, 2, 3, 4):
        raise DomainError("moment order must be in {1, 2, 3, 4}")
    estimate, se, means = _batch_means(param, config, lambda g: g ** k)
    return McResult(estimate, se, config.n_samples, config.seed, means)


def _draw_all(param: Parameterization, config: McConfig) -> np.ndarray:
    scale = param.snr_budget
    return np.concatenate([scale * g_f * g_b
                           for _, g_f, g_b in _batches(param.rho, config)])


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
    g = np.sort(np.concatenate([g_f if link == "forward" else g_b
                                for _, g_f, g_b in _batches(rho, config)]))
    cdf_vals = -np.expm1(-g)
    d = _ks_statistic(cdf_vals)
    crit = KS_CRITICAL_1PCT / math.sqrt(config.n_samples)
    return KsResult(d, crit, d < crit, config.n_samples, config.seed)
