"""Validation suites: every acceptance check lives here once, consumed by
both `bscap validate` and the pytest acceptance module.

Each check returns a CheckResult; the full suite is the release gate, the
fast suite is a quick smoke pass on reduced grids and sample counts.
"""

from __future__ import annotations

import filecmp
import math
import os
import tempfile
from dataclasses import dataclass

from .capacity import (
    capacity_awgn,
    capacity_high_snr,
    capacity_high_snr_budget,
    capacity_quadrature,
    capacity_rayleigh,
    capacity_series,
)
from .channel_model import (
    FIXED_POWER_BUDGET,
    FIXED_RECEIVER_SNR,
    ChannelParams,
    Parameterization,
    _pdf_u,
    moment,
    moment_log_derivative,
)
from .errors import ConvergenceError
from .monte_carlo import (
    KS_CRITICAL_1PCT,
    McConfig,
    estimate_capacity,
    estimate_moment,
    ks_test,
    ks_test_marginal,
)
from .quadrature import exponential_tail_cutoff, tanh_sinh

SMOKE_GRID = tuple((g, r) for g in (0.1, 1.0, 10.0, 1000.0)
                   for r in (0.0, 0.5, 0.9))

_SEED = 20260808


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, failures: list[str], detail_ok: str) -> CheckResult:
    if failures:
        return CheckResult(name, False, "; ".join(failures))
    return CheckResult(name, True, detail_ok)


def _integrate_moment(params: ChannelParams, k: float) -> float:
    """E{gamma^k} = E{u^{2k}} / tail_rate^{2k}, u = tail_rate sqrt(gamma)."""
    res = tanh_sinh(lambda u: u ** (2.0 * k) * _pdf_u(params.rho, u),
                    0.0, exponential_tail_cutoff(2.0 * k + 1.0))
    if not res.converged:
        raise ConvergenceError(
            "moment quadrature did not converge",
            {"gamma_bar": params.gamma_bar, "rho": params.rho, "k": k,
             "nodes": res.n_nodes, "error_estimate": res.error_estimate})
    return res.value / params.tail_rate ** (2.0 * k)


# ----------------------------------------------------------------------
# criterion 1: density normalization and mean
# ----------------------------------------------------------------------

def check_pdf_normalization(gbar_list=(0.01, 1.0, 100.0),
                            rho_list=(0.0, 0.3, 0.6, 0.9, 0.99)) -> CheckResult:
    failures = []
    worst_n = worst_m = 0.0
    for gbar in gbar_list:
        for rho in rho_list:
            p = ChannelParams(gbar, rho)
            norm_err = abs(_integrate_moment(p, 0.0) - 1.0)
            mean_err = abs(_integrate_moment(p, 1.0) - gbar) / gbar
            worst_n = max(worst_n, norm_err)
            worst_m = max(worst_m, mean_err)
            if norm_err > 1e-8:
                failures.append(f"norm err {norm_err:.2e} at ({gbar},{rho})")
            if mean_err > 1e-7:
                failures.append(f"mean err {mean_err:.2e} at ({gbar},{rho})")
    return _result("pdf_normalization_and_mean", failures,
                   f"worst |int pdf - 1| = {worst_n:.2e}, "
                   f"worst mean rel err = {worst_m:.2e}")


# ----------------------------------------------------------------------
# criterion 2: closed-form moments vs quadrature and Monte Carlo
# ----------------------------------------------------------------------

def check_moment_closed_form(mc_samples: int = 10_000_000) -> CheckResult:
    failures = []
    worst = 0.0
    worst_z = 0.0
    gbar = 1.0
    for idx, rho in enumerate((0.0, 0.3, 0.6, 0.9)):
        p = ChannelParams(gbar, rho)
        for k in (1, 2, 3):
            closed = moment(p, k)
            quad = _integrate_moment(p, float(k))
            rel = abs(quad - closed) / closed
            worst = max(worst, rel)
            if rel > 1e-7:
                failures.append(f"quad vs closed rel {rel:.2e} at k={k} rho={rho}")
            cfg = McConfig(n_samples=mc_samples, seed=_SEED + 10 * idx + k)
            res = estimate_moment(
                Parameterization(FIXED_RECEIVER_SNR, gbar, rho), k, cfg)
            z = abs(res.estimate - closed) / res.std_error
            worst_z = max(worst_z, z)
            if z > 3.0:
                failures.append(f"MC {z:.1f} SE off at k={k} rho={rho}")
    return _result("moment_closed_form", failures,
                   f"worst quad rel err {worst:.2e}, worst MC |z| {worst_z:.2f}")


# ----------------------------------------------------------------------
# criterion 3: series vs quadrature
# ----------------------------------------------------------------------

def check_series_quadrature(snr_db_grid=(-10, -5, 0, 5, 10, 15, 20, 25, 30),
                            rho_list=(0.0, 0.3, 0.6, 0.9, 0.99, 0.9999, 1.0)
                            ) -> CheckResult:
    """Series and quadrature agree to 1e-6 on the whole grid, rho = 1
    included: neither analytic path may raise where the other succeeds."""
    failures = []
    worst = 0.0
    for snr_db in snr_db_grid:
        for rho in rho_list:
            p = ChannelParams(10.0 ** (snr_db / 10.0), rho)
            cq = capacity_quadrature(p)
            cs = capacity_series(p)
            rel = abs(cs.value - cq.value) / cq.value
            worst = max(worst, rel)
            if rel > 1e-6:
                failures.append(f"rel {rel:.2e} at ({snr_db} dB, rho={rho})")
            if rho == 0.0 and cs.diagnostics["terms_used"] != 1:
                failures.append(f"rho=0 used {cs.diagnostics['terms_used']} terms")
    return _result("series_quadrature_equivalence", failures,
                   f"worst rel diff {worst:.2e}")


# ----------------------------------------------------------------------
# criterion 4: high-SNR asymptote tightness and correlation loss
# ----------------------------------------------------------------------

def check_asymptote_tightness(rho_list=(0.0, 0.5, 0.9)) -> CheckResult:
    """The slope-1 asymptote tightens with SNR: at each rho the gap
    |quadrature - asymptote| shrinks over 20/30/40 dB and ends below 0.05."""
    failures = []
    final_gaps = []
    for rho in rho_list:
        gaps = []
        for snr_db in (20.0, 30.0, 40.0):
            p = ChannelParams(10.0 ** (snr_db / 10.0), rho)
            gaps.append(abs(capacity_quadrature(p).value - capacity_high_snr(p).value))
        final_gaps.append(gaps[-1])
        if not all(b < a for a, b in zip(gaps, gaps[1:])):
            failures.append(f"gaps not decreasing at rho={rho}: {tuple(gaps)}")
        if gaps[-1] > 0.05:
            failures.append(f"40 dB gap {gaps[-1]:.4f} > 0.05 at rho={rho}")
    return _result("asymptote_tightness", failures,
                   "40 dB gaps: " + ", ".join(f"{g:.4f}" for g in final_gaps))


def check_correlation_loss_gap(snr_db_ladder=(40.0, 50.0, 60.0)) -> CheckResult:
    """Capacity lost to near-full correlation, C(gbar, 0) - C(gbar, 0.999),
    checked as the high-SNR limit log2(1+rho) -> 1 bps/Hz that it is.

    At each rung of the SNR ladder the shortfall log2(1+rho) - gap must be
    positive (the loss approaches its asymptote from below) and strictly
    shrinking, and the gap at the top rung must lie in 1 +- 0.05 bps/Hz.
    The shortfall is the gbar^(-1/2) remainder of the rho->1 curve, whose
    density behaves like z^(-1/2) near 0: at 40 dB the gap is 0.9439
    (shortfall 0.055), at 60 dB 0.9937, so the band holds only in the limit.
    """
    rho = 0.999
    limit = math.log2(1.0 + rho)
    gaps = []
    for snr_db in snr_db_ladder:
        gbar = 10.0 ** (snr_db / 10.0)
        gaps.append(capacity_quadrature(ChannelParams(gbar, 0.0)).value
                    - capacity_quadrature(ChannelParams(gbar, rho)).value)
    shortfalls = [limit - gap for gap in gaps]
    failures = []
    if min(shortfalls) <= 0.0:
        failures.append("gap reaches or passes its asymptote "
                        f"log2(1+rho) = {limit:.4f}")
    if any(b >= a for a, b in zip(shortfalls, shortfalls[1:])):
        failures.append("shortfall to log2(1+rho) not decreasing")
    if not 0.95 <= gaps[-1] <= 1.05:
        failures.append(f"{snr_db_ladder[-1]:g} dB gap {gaps[-1]:.4f} "
                        "outside 1 +- 0.05")
    ladder = ", ".join(f"{snr_db:g} dB: {gap:.4f}"
                       for snr_db, gap in zip(snr_db_ladder, gaps))
    detail = (f"gaps at rho={rho}: {ladder} bps/Hz, "
              "top rung required in 1 +- 0.05")
    return CheckResult("correlation_loss_gap", not failures,
                       "; ".join(failures + [detail]))


# ----------------------------------------------------------------------
# criterion 5: fixed-budget collapse at 40 dB
# ----------------------------------------------------------------------

def check_fixed_budget_collapse(mc_samples: int = 10_000_000) -> CheckResult:
    failures = []
    target = capacity_high_snr_budget(1e4).value
    devs = {}
    for rho in (0.0, 0.5):
        c = capacity_quadrature(ChannelParams(1e4 * (1.0 + rho), rho)).value
        devs[rho] = abs(c - target)
    res = estimate_capacity(Parameterization(FIXED_POWER_BUDGET, 1e4, 1.0),
                            McConfig(n_samples=mc_samples, seed=_SEED + 50))
    devs[1.0] = abs(res.estimate - target)
    for rho, dev in devs.items():
        if dev > 0.05:
            failures.append(f"|C - {target:.6f}| = {dev:.4f} at rho={rho}")
    return _result("fixed_budget_collapse", failures,
                   "deviations " + ", ".join(f"rho={r}: {d:.4f}"
                                             for r, d in devs.items()))


# ----------------------------------------------------------------------
# criterion 6: low-SNR correlation benefit under a fixed budget
# ----------------------------------------------------------------------

def check_low_snr_benefit(mc_samples: int = 10_000_000) -> CheckResult:
    failures = []
    snr_I = 1e-3  # -30 dB
    c0 = capacity_quadrature(ChannelParams(snr_I, 0.0)).value
    c05 = capacity_quadrature(ChannelParams(snr_I * 1.5, 0.5)).value
    res1 = estimate_capacity(Parameterization(FIXED_POWER_BUDGET, snr_I, 1.0),
                             McConfig(n_samples=mc_samples, seed=_SEED + 60))
    ratios = {0.5: c05 / c0, 1.0: res1.estimate / c0}
    for rho, ratio in ratios.items():
        if abs(ratio - (1.0 + rho)) > 0.05 * (1.0 + rho):
            failures.append(f"C(rho={rho})/C(0) = {ratio:.4f} off (1+rho) by >5%")
    awgn = capacity_awgn(snr_I).value
    for rho, c in ((0.5, c05), (1.0, res1.estimate)):
        if c / awgn <= 1.0:
            failures.append(f"normalized capacity {c / awgn:.4f} <= 1 at rho={rho}")
    return _result("low_snr_benefit", failures,
                   f"ratios rho=0.5: {ratios[0.5]:.4f}, rho=1: {ratios[1.0]:.4f}; "
                   f"normalized rho=1: {res1.estimate / awgn:.4f}")


# ----------------------------------------------------------------------
# criterion 7: Monte Carlo / quadrature triangle plus Jensen ordering
# ----------------------------------------------------------------------

def check_mc_triangle(mc_samples: int = 10_000_000,
                      grid=SMOKE_GRID) -> CheckResult:
    failures = []
    worst_z = 0.0
    for idx, (gbar, rho) in enumerate(grid):
        cq = capacity_quadrature(ChannelParams(gbar, rho)).value
        cfg = McConfig(n_samples=mc_samples, seed=_SEED + 100 + idx)
        res = estimate_capacity(Parameterization(FIXED_RECEIVER_SNR, gbar, rho), cfg)
        z = abs(res.estimate - cq) / res.std_error
        worst_z = max(worst_z, z)
        if z > 3.0:
            failures.append(f"MC {z:.1f} SE from quadrature at ({gbar},{rho})")
        c_ray = capacity_rayleigh(gbar).value
        c_awgn = capacity_awgn(gbar).value
        if not (cq < c_ray < c_awgn):
            failures.append(f"Jensen ordering broken at ({gbar},{rho}): "
                            f"{cq:.4f} / {c_ray:.4f} / {c_awgn:.4f}")
    return _result("mc_analytic_triangle", failures,
                   f"worst |z| = {worst_z:.2f} over {len(grid)} points")


# ----------------------------------------------------------------------
# criterion 8: sampler goodness of fit
# ----------------------------------------------------------------------

def check_sampler_law(n_samples: int = 100_000,
                      rho_list=(0.0, 0.5, 0.9)) -> CheckResult:
    failures = []
    stats = []
    for idx, rho in enumerate(rho_list):
        cfg = McConfig(n_samples=n_samples, seed=_SEED + 200 + idx)
        res = ks_test(Parameterization(FIXED_RECEIVER_SNR, 1.0, rho), cfg)
        stats.append(res.statistic)
        if not res.passed:
            failures.append(f"product KS {res.statistic:.5f} >= "
                            f"{res.critical_value:.5f} at rho={rho}")
        for link in ("forward", "backward"):
            mres = ks_test_marginal(rho, cfg, link)
            if not mres.passed:
                failures.append(f"{link} marginal KS fails at rho={rho}")
    crit = KS_CRITICAL_1PCT / math.sqrt(n_samples)
    return _result("sampler_law", failures,
                   f"product KS stats {['%.5f' % s for s in stats]} vs "
                   f"critical {crit:.5f}")


# ----------------------------------------------------------------------
# criterion 9: derivative machinery
# ----------------------------------------------------------------------

def check_derivative_machinery() -> CheckResult:
    failures = []
    worst_mld = 0.0
    h = 1e-4
    for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
        p = ChannelParams(1.0, rho)
        f0, f1, f2 = moment(p, 0.0), moment(p, h), moment(p, 2 * h)
        fd = (-3.0 * f0 + 4.0 * f1 - f2) / (2.0 * h)
        err = abs(moment_log_derivative(rho) - fd)
        worst_mld = max(worst_mld, err)
        if err > 1e-6:
            failures.append(f"moment derivative off by {err:.2e} at rho={rho}")
    return _result("derivative_machinery", failures,
                   f"worst moment-derivative err {worst_mld:.2e}")


# ----------------------------------------------------------------------
# criterion 10: byte-identical figure output
# ----------------------------------------------------------------------

def check_figure_determinism(figure: str = "2") -> CheckResult:
    from .cli import main as cli_main

    with tempfile.TemporaryDirectory() as tmp:
        paths = [os.path.join(tmp, f"run{i}.csv") for i in (1, 2)]
        for path in paths:
            code = cli_main(["figure", "--figure", figure, "--out", path,
                             "--seed", "12345"])
            if code != 0:
                return CheckResult("figure_determinism", False,
                                   f"figure command exited {code}")
        identical = filecmp.cmp(*paths, shallow=False)
        size = os.path.getsize(paths[0])
    return CheckResult("figure_determinism", identical,
                       f"two runs of figure --figure {figure}: "
                       f"{'identical' if identical else 'DIFFER'} ({size} bytes)")


# ----------------------------------------------------------------------
# fast-suite extras
# ----------------------------------------------------------------------

def check_mc_determinism() -> CheckResult:
    cfg = McConfig(n_samples=50_000, seed=_SEED, n_batches=50)
    param = Parameterization(FIXED_RECEIVER_SNR, 10.0, 0.5)
    r1 = estimate_capacity(param, cfg)
    r2 = estimate_capacity(param, cfg)
    same = r1.estimate == r2.estimate and r1.batch_estimates == r2.batch_estimates
    return CheckResult("mc_determinism", same,
                       "bit-identical repeat" if same else "estimates differ")


FULL_SUITE = (
    ("1", check_pdf_normalization),
    ("2", check_moment_closed_form),
    ("3", check_series_quadrature),
    ("4a", check_asymptote_tightness),
    ("4b", check_correlation_loss_gap),
    ("5", check_fixed_budget_collapse),
    ("6", check_low_snr_benefit),
    ("7", check_mc_triangle),
    ("8", check_sampler_law),
    ("9", check_derivative_machinery),
    ("10", check_figure_determinism),
)


def _fast_checks() -> list[CheckResult]:
    return [
        check_pdf_normalization(gbar_list=(1.0, 100.0), rho_list=(0.0, 0.6, 0.99)),
        check_series_quadrature(snr_db_grid=(0, 10, 20), rho_list=(0.5, 1.0)),
        check_asymptote_tightness(rho_list=(0.0,)),
        check_mc_triangle(mc_samples=200_000,
                          grid=((1.0, 0.5), (1000.0, 0.0))),
        check_sampler_law(n_samples=20_000, rho_list=(0.5,)),
        check_derivative_machinery(),
        check_mc_determinism(),
    ]


def run_suite(name: str) -> list[CheckResult]:
    if name == "fast":
        return _fast_checks()
    if name == "full":
        results = []
        for tag, fn in FULL_SUITE:
            res = fn()
            results.append(CheckResult(f"criterion_{tag}_{res.name}",
                                       res.passed, res.detail))
        return results
    raise ValueError(f"unknown suite {name!r}")
