"""The three benchmark workloads and the checks of their outputs.

A workload object runs one pass with `run(seed)` and its first operation
alone with `first_op(seed)`; `check(output, seed, ref, outcome)` checks
the output of either.  In `figure1` an operation is one output row; in
`analytic_grid` and `point_deep` it is one library call.  Calls go
through module attributes at call time, so a tracer that patches those
attributes sees them.

Rules against the stored references (see refs/ and make_refs.py):
quadrature and series capacities within 1e-8 relative of the reference
quadrature value; pdf within 1e-10 relative; cdf within 1e-9 absolute;
Monte Carlo, asymptote, AWGN and Rayleigh values identical as text at
the pinned seed, and Monte Carlo within 4 standard errors of the
reference quadrature value at any other seed.  The diagnostics column is
not compared: algorithmic changes alter it on purpose.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from backscatter_capacity import capacity, channel_model, cli, monte_carlo
from backscatter_capacity.errors import ConvergenceError

REF_DIR = Path(__file__).resolve().parent / "refs"
PINNED_SEED = 12345
CAPACITY_RTOL = 1e-8
PDF_RTOL = 1e-10
CDF_ATOL = 1e-9
MC_SIGMAS = 4.0


def load_reference() -> dict:
    return json.loads((REF_DIR / "reference.json").read_text(encoding="utf-8"))


@dataclass
class Outcome:
    """Operations attempted and failed, with a reason per failure.

    `declined` counts ConvergenceErrors at points where the reference
    records that the library raises: the documented limit of the series,
    not a wrong result.
    """

    attempted: int = 0
    failed: int = 0
    declined: int = 0
    problems: list = field(default_factory=list)

    def add(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def close_rel(value, ref: float, rtol: float) -> bool:
    return math.isfinite(value) and abs(value - ref) <= rtol * abs(ref)


def within_sigmas(value: float, std_error: float, ref: float) -> bool:
    return (math.isfinite(value) and std_error > 0
            and abs(value - ref) <= MC_SIGMAS * std_error)


def attempt(op):
    """The result of `op()`, or the exception it raised."""
    try:
        return op()
    except Exception as exc:  # a failed operation, not a failed run
        return exc


# ----------------------------------------------------------------------
# figure1: the paper's headline dataset through the CLI
# ----------------------------------------------------------------------

CSV_KEY = ("mode", "rho", "snr_db", "method")
TEXT_EXACT = ("asymptotic_high", "awgn", "rayleigh")


def parse_csv(text: str) -> tuple[list, str, dict]:
    """(preamble lines, header, rows keyed by mode/rho/snr_db/method)."""
    lines = text.splitlines()
    preamble = [ln for ln in lines if ln.startswith("#")]
    body = [ln for ln in lines if not ln.startswith("#")]
    if not body:
        return preamble, "", {}
    columns = body[0].split(",")
    rows = {}
    for ln in body[1:]:
        row = dict(zip(columns, ln.split(",")))
        rows[tuple(row.get(k) for k in CSV_KEY)] = row
    return preamble, body[0], rows


def check_figure_csv(text: str, seed: int, ref_text: str, quad_ref: dict,
                     outcome: Outcome, only=None) -> None:
    """One operation per reference row, plus one per unexpected row.  With
    `only`, a set of row keys, `text` is a sweep that should hold just those
    reference rows, under a preamble of its own that is not compared."""
    ref_pre, ref_header, ref_rows = parse_csv(ref_text)
    pre, header, rows = parse_csv(text)
    want_pre = [f"# seed={seed}" if ln.startswith("# seed=") else ln
                for ln in ref_pre]
    if header != ref_header or (only is None and pre != want_pre):
        outcome.problems.append("figure1 preamble or header differs")
    expected = ref_rows.keys() if only is None else only
    for key in expected:
        row = rows.get(key)
        outcome.add(row is not None and key in ref_rows
                    and _row_ok(row, ref_rows[key], seed, quad_ref),
                    f"figure1 row {','.join(key)}")
    for key in rows.keys() - expected:
        outcome.add(False, f"figure1 unexpected row {','.join(key)}")


def _row_ok(row: dict, ref: dict, seed: int, quad_ref: dict) -> bool:
    try:
        if row["gamma_bar_linear"] != ref["gamma_bar_linear"]:
            return False
        method = ref["method"]
        value = float(row["capacity_bpshz"])
        exact = (row["capacity_bpshz"] == ref["capacity_bpshz"]
                 and row["error_bound"] == ref["error_bound"])
        if method in TEXT_EXACT or (method == "mc" and seed == PINNED_SEED):
            return exact
        q = quad_ref[f"{ref['rho']},{ref['snr_db']}"]
        if method == "quadrature":
            return close_rel(value, q, CAPACITY_RTOL)
        if method == "mc":
            return within_sigmas(value, float(row["error_bound"]), q)
    except (KeyError, ValueError):
        return False
    return False


class Figure1:
    """`bscap figure --figure 1 --seed <seed> --threads 2`, in process."""

    name = "figure1"
    pool_threads = 2
    # 44 Monte Carlo points x 100 batches, all from one seed
    substreams = (4400, 100)
    # the first operation: the figure's first point (-10 dB, rho = 0) with
    # all five of its methods, as a one-point sweep through the same pool
    FIRST_METHODS = ("asymptotic_high", "awgn", "mc", "quadrature", "rayleigh")
    FIRST_POINT = ("sweep", "--mode", "fixed_receiver_snr", "--snr-db=-10", "--rho", "0",
                   "--method", ",".join(FIRST_METHODS),
                   "--samples", "1000000", "--batches", "100")
    FIRST_ROWS = {("fixed_receiver_snr", "0", "-10", m) for m in FIRST_METHODS}

    def _cli(self, *args: str) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main([*args, "--threads", str(self.pool_threads)])
        return code, buf.getvalue()

    def run(self, seed: int) -> tuple:
        return (*self._cli("figure", "--figure", "1", "--seed", str(seed)), None)

    def first_op(self, seed: int) -> tuple:
        return (*self._cli(*self.FIRST_POINT, "--seed", str(seed)), self.FIRST_ROWS)

    def check(self, output, seed: int, ref: dict, outcome: Outcome) -> None:
        code, text, only = output
        if code != 0:
            outcome.problems.append(f"figure1 exit code {code}")
        ref_text = (REF_DIR / ref["figure1"]["csv"]).read_text(encoding="utf-8")
        check_figure_csv(text, seed, ref_text, ref["figure1"]["quadrature"],
                         outcome, only)


# ----------------------------------------------------------------------
# analytic_grid: quadrature and series over a fixed SNR x rho grid
# ----------------------------------------------------------------------

GRID_SNR_DB = (-10.0, 5.0, 20.0, 35.0)
GRID_RHO = (0.0, 0.3, 0.6, 0.9, 0.99)
ANALYTIC_METHODS = ("capacity_quadrature", "capacity_series")


def grid_key(snr_db: float, rho: float) -> str:
    return f"{snr_db:g},{rho:g}"


class AnalyticGrid:
    """`capacity_quadrature` and `capacity_series` once per grid point."""

    name = "analytic_grid"
    pool_threads = 0
    substreams = (0, 0)

    def __init__(self, points=None):
        self.points = points or [(s, r) for s in GRID_SNR_DB for r in GRID_RHO]

    def run(self, seed: int, points=None) -> list:
        """(grid key, method, value or exception) per call."""
        results = []
        for snr_db, rho in points or self.points:
            params = channel_model.ChannelParams(10.0 ** (snr_db / 10.0), rho)
            for method in ANALYTIC_METHODS:
                results.append((grid_key(snr_db, rho), method,
                                attempt(lambda: getattr(capacity, method)(params).value)))
        return results

    def first_op(self, seed: int) -> list:
        return self.run(seed, self.points[:1])

    def check(self, output, seed: int, ref: dict, outcome: Outcome) -> None:
        grid = ref["analytic_grid"]
        for key, method, got in output:
            if (isinstance(got, ConvergenceError) and method == "capacity_series"
                    and key in grid["series_raises"]):
                outcome.attempted += 1
                outcome.declined += 1
                continue
            outcome.add(isinstance(got, float)
                        and close_rel(got, grid["quadrature"][key], CAPACITY_RTOL),
                        f"analytic_grid {method} at {key}: {got!r}")


# ----------------------------------------------------------------------
# point_deep: one operating point in depth
# ----------------------------------------------------------------------

DEEP_GAMMA_BAR = 10.0
DEEP_RHO = 0.5


class PointDeep:
    """pdf on 2e5 points, cdf on 200 points and a 1e7-pair Monte Carlo
    estimate at gamma_bar = 10, rho = 0.5."""

    name = "point_deep"
    pool_threads = 0
    substreams = (100, 100)

    def __init__(self):
        self.pdf_grid = np.linspace(1e-3, 50.0, 200_000)
        self.cdf_grid = np.linspace(0.05, 50.0, 200)

    def _ops(self, seed: int) -> tuple:
        params = channel_model.ChannelParams(DEEP_GAMMA_BAR, DEEP_RHO)
        point = channel_model.Parameterization(
            channel_model.FIXED_RECEIVER_SNR, DEEP_GAMMA_BAR, DEEP_RHO)
        return (lambda: channel_model.pdf(params, self.pdf_grid),
                lambda: channel_model.cdf(params, self.cdf_grid),
                lambda: monte_carlo.estimate_capacity(
                    point, monte_carlo.McConfig(seed=seed)))

    def run(self, seed: int) -> list:
        return [attempt(op) for op in self._ops(seed)]

    def first_op(self, seed: int) -> list:
        return [attempt(self._ops(seed)[0])]

    def check(self, output, seed: int, ref: dict, outcome: Outcome) -> None:
        """Checks pdf, cdf and the estimate, as far as `output` goes."""
        deep = ref["point_deep"]
        checks = (lambda v: _arrays_ok(v, np.load(REF_DIR / deep["pdf"]),
                                       lambda r: PDF_RTOL * np.abs(r)),
                  lambda v: _arrays_ok(v, np.array(deep["cdf"]), lambda r: CDF_ATOL),
                  lambda v: _estimate_ok(v, seed, deep))
        for what, got, ok in zip(("pdf", "cdf", "estimate_capacity"), output, checks):
            outcome.add(ok(got), f"point_deep {what}: {type(got).__name__}")


def _arrays_ok(got, ref: np.ndarray, tol) -> bool:
    return (isinstance(got, np.ndarray) and got.shape == ref.shape
            and bool(np.all(np.abs(got - ref) <= tol(ref))))


def _estimate_ok(mc, seed: int, deep: dict) -> bool:
    if not isinstance(mc, monte_carlo.McResult):
        return False
    if seed == PINNED_SEED:
        return (repr(mc.estimate) == deep["mc_estimate"]
                and repr(mc.std_error) == deep["mc_std_error"])
    return within_sigmas(mc.estimate, mc.std_error, deep["quadrature"])


WORKLOADS = {w.name: w for w in (Figure1, AnalyticGrid, PointDeep)}
