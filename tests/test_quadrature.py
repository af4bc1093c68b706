"""Tanh-sinh integrator checks on integrals with known closed forms."""

import math

import numpy as np
import pytest

from backscatter_capacity import capacity
from backscatter_capacity.channel_model import ChannelParams, _pdf_t
from backscatter_capacity.quadrature import (
    QuadratureResult,
    exponential_tail_cutoff,
    gauss_legendre_rule,
    tanh_sinh,
)
from backscatter_capacity.special_functions import LOG2E


def test_polynomial():
    res = tanh_sinh(lambda x: x * x, 0.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_log_endpoint_singularity():
    # int_0^1 -ln(x) dx = 1; the left endpoint is the K0-type singularity
    res = tanh_sinh(lambda x: -np.log(x), 0.0, 1.0)
    assert res.value == pytest.approx(1.0, rel=1e-12)


def test_inverse_sqrt_singularity():
    res = tanh_sinh(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0)
    assert res.value == pytest.approx(2.0, rel=1e-11)


def test_decaying_exponential_long_interval():
    res = tanh_sinh(lambda x: np.exp(-x), 0.0, 60.0)
    assert res.value == pytest.approx(1.0, rel=1e-11)


@pytest.mark.parametrize("a, b", [(2.0, 0.0), (1.0, 1.0), (0.0, math.inf)])
def test_interval_must_be_finite_and_ordered(a, b):
    with pytest.raises(ValueError):
        tanh_sinh(lambda x: x, a, b)


def test_error_estimate_is_honest():
    res = tanh_sinh(lambda x: np.sin(x), 0.0, math.pi)
    assert abs(res.value - 2.0) <= max(10 * res.error_estimate, 1e-12)


def test_node_budget_reported():
    res = tanh_sinh(lambda x: np.exp(-x * x), -3.0, 3.0, max_nodes=40)
    assert isinstance(res, QuadratureResult)
    assert not res.converged or res.n_nodes <= 40


def test_gauss_rule_cached_and_normalized():
    x, w = gauss_legendre_rule(32)
    assert x.shape == w.shape == (32,)
    assert float(np.sum(w)) == pytest.approx(1.0, rel=1e-14, abs=0)
    assert float(np.sum(w * x)) == pytest.approx(0.5, rel=1e-13, abs=0)


def test_exponential_tail_cutoff():
    t = exponential_tail_cutoff(2.0, 0.0)
    assert t == pytest.approx(23.0)
    # guarantees at least the requested drop relative to the peak
    t = exponential_tail_cutoff(2.0, 3.0)
    t_star = 1.5
    drop = 2.0 * t - 3.0 * math.log(t / t_star) - 2.0 * t_star
    assert drop == pytest.approx(46.0, abs=0.01)
    with pytest.raises(ValueError):
        exponential_tail_cutoff(0.0, 1.0)


# ----------------------------------------------------------------------
# the one-pass ladder against the level-by-level algorithm it replaced
# ----------------------------------------------------------------------

_HALF_PI = math.pi / 2.0


def _reference_tanh_sinh(f, a, b, rel_tol=1e-10, max_nodes=200_000):
    """Level by level: one transform and one call of f per (level, sign)."""
    def transform(u):
        half = 0.5 * (b - a)
        t = _HALF_PI * np.sinh(u)
        et = np.exp(-2.0 * np.abs(t))
        delta = half * 2.0 * et / (1.0 + et)
        x = np.where(t >= 0, b - delta, a + delta)
        sech2 = 4.0 * et / (1.0 + et) ** 2
        w = half * _HALF_PI * np.cosh(u) * sech2
        keep = (delta > 0) & (w > 0)
        return x[keep], w[keep]

    def level_sum(h, odd_only):
        u_pos = np.arange(h, 6.0, 2.0 * h) if odd_only else np.arange(0.0, 6.0, h)
        total = 0.0
        count = 0
        for sign in (1.0, -1.0):
            u = sign * u_pos
            if sign < 0:
                u = u[u_pos > 0]
            x, w = transform(u)
            if x.size == 0:
                continue
            total += float(np.sum(w * f(x)))
            count += x.size
        return total, count

    h = 1.0
    raw, n_nodes = level_sum(h, odd_only=False)
    value = h * raw
    err = math.inf
    level = 0
    while n_nodes < max_nodes:
        level += 1
        h *= 0.5
        odd, n_new = level_sum(h, odd_only=True)
        n_nodes += n_new
        new_value = 0.5 * value + h * odd
        err = abs(new_value - value)
        value = new_value
        if level >= 2 and err <= max(rel_tol * abs(value), 1e-14):
            return QuadratureResult(value, err, n_nodes, level, True)
    return QuadratureResult(value, err, n_nodes, level, False)


@pytest.mark.parametrize("f, a, b, kwargs", [
    (lambda x: x * x, 0.0, 1.0, {}),
    (lambda x: -np.log(x), 0.0, 1.0, {}),
    (lambda x: 1.0 / np.sqrt(x), 0.0, 1.0, {}),
    (lambda x: np.exp(-x), 0.0, 60.0, {}),
    (lambda x: x, 0.0, 2.0, {}),
    (np.sin, 0.0, math.pi, {}),
    (lambda x: np.exp(-x * x), -3.0, 3.0, {"max_nodes": 40}),
    (lambda x: np.exp(-x), 0.0, 60.0, {"rel_tol": 1e-4}),
], ids=["square", "log", "inv_sqrt", "exp", "linear", "sin", "max_nodes_40",
        "loose_tol"])
def test_ladder_bit_identical_to_level_by_level(f, a, b, kwargs):
    assert repr(tanh_sinh(f, a, b, **kwargs)) == \
        repr(_reference_tanh_sinh(f, a, b, **kwargs))


def test_ladder_beyond_cached_depth():
    # a narrow peak needs levels past 5: each deeper level is its own call
    calls = []

    def peak(x):
        calls.append(x.size)
        return 1.0 / (1.0 + 1e4 * (x - 0.37) ** 2)

    res = tanh_sinh(peak, 0.0, 1.0)
    assert res.levels > 5
    assert calls == [383] + [192 * 2 ** (lvl - 5) for lvl in range(6, res.levels + 1)]
    assert repr(res) == repr(_reference_tanh_sinh(peak, 0.0, 1.0))
    for max_nodes in (1000, 5000):
        assert repr(tanh_sinh(peak, 0.0, 1.0, max_nodes=max_nodes)) == \
            repr(_reference_tanh_sinh(peak, 0.0, 1.0, max_nodes=max_nodes))


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.9999, 1.0])
def test_ladder_bit_identical_on_capacity_integrand(rho):
    for snr_db in range(-60, 121, 10):
        params = ChannelParams(10.0 ** (snr_db / 10.0), rho)
        t_max = exponential_tail_cutoff(params.tail_rate, poly_power=2.0)

        def integrand(t):
            return LOG2E * np.log1p(t * t) * _pdf_t(params, t)

        assert repr(tanh_sinh(integrand, 0.0, t_max)) == \
            repr(_reference_tanh_sinh(integrand, 0.0, t_max)), snr_db


@pytest.mark.parametrize("gamma_bar, rho", [(0.1, 0.0), (10.0, 0.5), (1e4, 0.99), (1.0, 1.0)])
def test_capacity_point_evaluates_density_once(monkeypatch, gamma_bar, rho):
    calls = []

    def counting_pdf_t(params, t):
        calls.append(np.size(t))
        return _pdf_t(params, t)

    monkeypatch.setattr(capacity, "_pdf_t", counting_pdf_t)
    est = capacity.capacity_quadrature(ChannelParams(gamma_bar, rho))
    assert calls == [383]
    assert est.diagnostics["nodes"] == 383
