"""Tanh-sinh integrator checks on integrals with known closed forms."""

import math

import numpy as np
import pytest

from backscatter_capacity import capacity, quadrature
from backscatter_capacity.channel_model import (
    _GAUSS_NODES,
    _GAUSS_WEIGHTS,
    ChannelParams,
    _pdf_u,
)
from backscatter_capacity.quadrature import (
    QuadratureResult,
    exponential_tail_cutoff,
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


def test_node_budget_reported(monkeypatch):
    monkeypatch.setattr(quadrature, "_MAX_NODES", 40)
    res = tanh_sinh(lambda x: np.exp(-x * x), -3.0, 3.0)
    assert isinstance(res, QuadratureResult)
    assert not res.converged or res.n_nodes <= 40


def test_cdf_gauss_rule_normalized():
    assert _GAUSS_NODES.shape == _GAUSS_WEIGHTS.shape == (8,)
    assert float(np.sum(_GAUSS_WEIGHTS)) == pytest.approx(1.0, rel=1e-14, abs=0)
    assert float(np.sum(_GAUSS_WEIGHTS * _GAUSS_NODES)) == pytest.approx(0.5, rel=1e-13, abs=0)
    x, w = np.polynomial.legendre.leggauss(8)
    np.testing.assert_allclose(_GAUSS_NODES, 0.5 * (x + 1.0), rtol=0, atol=1e-15)
    np.testing.assert_allclose(_GAUSS_WEIGHTS, 0.5 * w, rtol=0, atol=1e-15)


def test_exponential_tail_cutoff():
    # guarantees at least the requested drop relative to the peak
    u = exponential_tail_cutoff(3.0)
    u_star = 3.0
    drop = u - 3.0 * math.log(u / u_star) - u_star
    assert drop == pytest.approx(46.0, abs=0.01)


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
def test_ladder_bit_identical_to_level_by_level(f, a, b, kwargs, monkeypatch):
    if "max_nodes" in kwargs:
        monkeypatch.setattr(quadrature, "_MAX_NODES", kwargs["max_nodes"])
    rel_tol = kwargs.get("rel_tol", 1e-10)
    assert repr(tanh_sinh(f, a, b, rel_tol)) == \
        repr(_reference_tanh_sinh(f, a, b, **kwargs))


def test_ladder_beyond_cached_depth(monkeypatch):
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
        monkeypatch.setattr(quadrature, "_MAX_NODES", max_nodes)
        assert repr(tanh_sinh(peak, 0.0, 1.0)) == \
            repr(_reference_tanh_sinh(peak, 0.0, 1.0, max_nodes=max_nodes))


@pytest.mark.parametrize("rho", [0.0, 0.5, 0.9, 0.9999, 1.0])
def test_ladder_bit_identical_on_capacity_integrand(rho):
    for snr_db in range(-60, 121, 10):
        rate = ChannelParams(10.0 ** (snr_db / 10.0), rho).tail_rate

        def integrand(u):
            t = u / rate
            return np.log1p(t * t) * _pdf_u(rho, u, LOG2E)

        assert repr(tanh_sinh(integrand, 0.0, capacity._U_MAX)) == \
            repr(_reference_tanh_sinh(integrand, 0.0, capacity._U_MAX)), snr_db


@pytest.mark.parametrize("gamma_bar, rho", [(0.1, 0.0), (10.0, 0.5), (1e4, 0.99), (1.0, 1.0)])
def test_capacity_point_evaluates_density_once(monkeypatch, gamma_bar, rho):
    # from an empty cache the density runs once, on the 383 nodes of levels
    # 0-5; a second SNR at the same rho runs it no more and returns what a
    # cold cache returns
    calls = []

    def counting_pdf_u(rho, u, scale=1.0):
        calls.append(np.size(u))
        return _pdf_u(rho, u, scale)

    monkeypatch.setattr(capacity, "_pdf_u", counting_pdf_u)
    capacity._log2e_density.cache_clear()
    est = capacity.capacity_quadrature(ChannelParams(gamma_bar, rho))
    assert calls == [383]
    assert est.diagnostics["nodes"] == 383

    capacity._log2e_density.cache_clear()
    cold = capacity.capacity_quadrature(ChannelParams(0.1 * gamma_bar, rho))
    capacity._log2e_density.cache_clear()
    capacity.capacity_quadrature(ChannelParams(gamma_bar, rho))
    calls.clear()
    warm = capacity.capacity_quadrature(ChannelParams(0.1 * gamma_bar, rho))
    assert calls == []
    assert repr(warm) == repr(cold)
