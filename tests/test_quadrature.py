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


def _narrow_peak(x):
    return 1.0 / (1.0 + 1e4 * (x - 0.37) ** 2)


def test_mapped_ladder_cold_equals_warm():
    # three integrands on two intervals, called in turn: each result is what
    # an empty cache of mapped ladders gives, and the cached arrays are
    # read-only
    cases = [(lambda x: -np.log(x), 0.0, 1.0), (lambda x: np.exp(-x), 0.0, 60.0),
             (_narrow_peak, 0.0, 1.0)]
    cold = []
    for f, a, b in cases:
        quadrature._mapped_ladder.cache_clear()
        cold.append(repr(tanh_sinh(f, a, b)))
    quadrature._mapped_ladder.cache_clear()
    for _ in range(3):
        assert [repr(tanh_sinh(f, a, b)) for f, a, b in cases] == cold
    assert quadrature._mapped_ladder.cache_info().currsize == 2
    x, w, _ = quadrature._mapped_ladder(0.0, 60.0)
    assert not x.flags.writeable and not w.flags.writeable


def test_deep_levels_are_mapped_afresh(monkeypatch):
    # with levels 0-5 mapped onto (0, 1) already, a warm call maps only the
    # levels past 5, one _ladder(k, k) each, and caches none of them
    quadrature._mapped_ladder.cache_clear()
    cold = tanh_sinh(_narrow_peak, 0.0, 1.0)
    seen = []
    real = quadrature._ladder

    def spy(first, last):
        seen.append((first, last))
        return real(first, last)

    monkeypatch.setattr(quadrature, "_ladder", spy)
    warm = tanh_sinh(_narrow_peak, 0.0, 1.0)
    assert warm.levels > 5
    assert seen == [(k, k) for k in range(6, warm.levels + 1)]
    assert repr(warm) == repr(cold)
    assert quadrature._mapped_ladder.cache_info().currsize == 1


def _kept_bounds(a, b, ladder):
    """Per (level, sign) segment bound of ladder, the count of nodes before
    it that _mapped keeps on (a, b): those whose offset from the nearer
    endpoint and whose weight do not underflow."""
    pos, et, onep, cosh_u, sech2, firsts = ladder
    half = 0.5 * (b - a)
    keep = (half * 2.0 * et / onep > 0) & (half * quadrature._HALF_PI * cosh_u * sech2 > 0)
    return np.concatenate(([0], np.cumsum(keep)))[np.append(firsts, pos.size)].tolist()


def _segment_sums(f, mapped, kept):
    """The level sums of mapped with one reduction per non-empty sign
    segment, the segments cut at the kept bounds."""
    x, w, _ = mapped
    wf = w * f(x)
    sums = []
    for lo, mid, hi in zip(kept[:-1:2], kept[1::2], kept[2::2]):
        total = 0.0
        for i, j in ((lo, mid), (mid, hi)):
            if j > i:
                total += float(np.add.reduce(wf[i:j]))
        sums.append((total, hi - lo))
    return sums


_SUM_INTEGRANDS = [lambda x: -np.log(x), lambda x: np.exp(-x) * np.sin(7.0 * x),
                   lambda x: 1.0 / np.sqrt(x)]


def test_zero_led_reduceat_sums_each_segment_as_reduce():
    # the level sums rest on this numpy property: np.add.reduceat over a row
    # with one zero ahead of each segment gives, bit for bit, np.add.reduce
    # of each segment alone (0.0 for an empty one)
    rng = np.random.default_rng(20201)
    segments = []
    for n in range(401):
        for _ in range(3):
            mags = 10.0 ** rng.uniform(-300.0, 300.0, n)
            seg = np.where(rng.random(n) < 0.5, -mags, mags)
            seg[rng.random(n) < 0.05] = -0.0
            segments.append(seg)
    segments += [np.array([-0.0]), np.array([-0.0] * 9), np.array([1e300] * 400),
                 np.array([1.0, np.inf, 2.0]), np.array([-np.inf] + [1.0] * 20),
                 np.array([np.inf, -np.inf]), np.array([1.0] * 30 + [np.nan]),
                 np.array([np.nan, np.inf]), np.array([-1e308, -1e308])]
    row = np.concatenate([np.concatenate(([0.0], seg)) for seg in segments])
    starts = np.cumsum([0] + [seg.size + 1 for seg in segments[:-1]])
    with np.errstate(over="ignore", invalid="ignore"):  # the inf, nan and overflow rows
        got = np.add.reduceat(row, starts)
        want = np.array([np.add.reduce(seg) for seg in segments])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()
    assert got[:3].tolist() == [0.0, 0.0, 0.0]
    assert [repr(v) for v in got[-6:].tolist()] == ["inf", "-inf", "nan", "nan", "nan", "-inf"]


@pytest.mark.parametrize("sizes", [(0,), (3,), (0, 0, 5), (4, 0, 1, 7), (64, 63, 128)])
def test_zero_led_sums_match_per_segment_reduce(sizes):
    slots, starts, held = quadrature._zero_led_layout(sizes)
    assert held == sizes and quadrature._zero_led_layout(sizes)[0] is slots
    assert sorted(slots.tolist() + starts.tolist()) == list(range(sum(sizes) + len(sizes)))
    assert not slots.flags.writeable and not starts.flags.writeable
    values = np.random.default_rng(sum(sizes)).standard_normal(sum(sizes)) * 1e3
    pieces = np.split(values, np.cumsum(sizes)[:-1])
    assert quadrature._zero_led_sums(values, (slots, starts, held)) == \
        [float(np.add.reduce(piece)) for piece in pieces]


@pytest.mark.parametrize("levels", [(0, 5), (6, 6), (7, 7)])
def test_level_sums_on_the_capacity_interval(levels):
    # every sign segment is reduced behind its own zero in one reduceat;
    # each level's sum has the bits of the per-segment sums
    ladder = quadrature._ladder(*levels)
    mapped = quadrature._mapped(0.0, capacity._U_MAX, ladder)
    kept = _kept_bounds(0.0, capacity._U_MAX, ladder)
    assert mapped[2][2] == tuple(np.diff(kept).tolist())
    rate = ChannelParams(10.0, 0.5).tail_rate

    def integrand(u):
        t = u / rate
        return np.log1p(t * t) * _pdf_u(0.5, u, LOG2E)

    for f in _SUM_INTEGRANDS + [integrand]:
        assert repr(quadrature._level_sums(f, mapped)) == repr(_segment_sums(f, mapped, kept))


@pytest.mark.parametrize("b", [1e-300, 1e-320, 1e-323])
def test_level_sums_where_nodes_are_dropped(b):
    # on (0, b) the offsets from the endpoints underflow and _mapped drops
    # nodes of both signs; at 1e-323 level 0 keeps only u = 0, so its
    # t < 0 segment is empty
    ladder = quadrature._ladder(0, 5)
    mapped = quadrature._mapped(0.0, b, ladder)
    kept = _kept_bounds(0.0, b, ladder)
    assert mapped[0].size == kept[-1] < 383
    sizes = mapped[2][2]
    assert sizes == tuple(np.diff(kept).tolist())
    assert len([k for k in range(0, 12, 2) if sizes[k] != sizes[k + 1]]) == 1
    if b == 1e-323:
        assert sizes[:2] == (1, 0)
    for f in _SUM_INTEGRANDS:
        assert repr(quadrature._level_sums(f, mapped)) == repr(_segment_sums(f, mapped, kept))


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
