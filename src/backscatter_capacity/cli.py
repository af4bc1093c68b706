"""Command-line front end: parameter sweeps, figure datasets, Monte Carlo
runs, density tabulation and the validation suites.

Output is data only (CSV or JSON); identical invocations produce
byte-identical files.  Exit codes: 0 success, 1 usage/validation error
or an allocation that cannot be met, 2 numerical failure or failed
validation suite.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from . import __version__
from .capacity import (
    CapacityEstimate,
    capacity_awgn,
    capacity_high_snr,
    capacity_high_snr_budget,
    capacity_low_snr,
    capacity_quadrature,
    capacity_rayleigh,
    capacity_series,
)
from .channel_model import (
    FIXED_POWER_BUDGET,
    FIXED_RECEIVER_SNR,
    MODES,
    Parameterization,
    db_to_linear,
    pdf,
)
from .errors import ConfigError, ConvergenceError, DomainError
from .monte_carlo import McConfig, estimate_capacity, estimate_moment
from .quadrature import REL_TOL, _check_rel_tol
from .special_functions import LOG2E

CSV_HEADER = "mode,rho,snr_db,gamma_bar_linear,method,capacity_bpshz,error_bound,diagnostics"
PDF_CSV_HEADER = "rho,snr_db,gamma_bar_linear,gamma,density"

DEFAULT_FIGURE_MC = McConfig(n_samples=1_000_000, seed=12345, n_batches=100)
_MAX_LIST_POINTS = 1_000_000  # points of one start:stop:step list, checked before _grid
_MAX_THREADS = 64  # --threads: the point pool starts up to this many OS threads


@dataclass(frozen=True)
class SweepSpec:
    """One sweep request: grid, correlation set, methods and output."""

    mode: str
    snr_db_grid: tuple
    rho_list: tuple
    methods: tuple
    mc: McConfig | None = None
    output_path: str | None = None
    output_format: str = "csv"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if not self.snr_db_grid:
            raise ConfigError("snr_db_grid must be non-empty")
        if any(b <= a for a, b in zip(self.snr_db_grid, self.snr_db_grid[1:])):
            raise ConfigError("snr_db_grid must be strictly increasing")
        if not self.rho_list:
            raise ConfigError("rho_list must be non-empty")
        if any(not (0.0 <= r <= 1.0) for r in self.rho_list):
            raise ConfigError("rho values must lie in [0, 1]")
        bad = [m for m in self.methods if m not in SWEEP_METHODS]
        if bad or not self.methods:
            raise ConfigError(f"methods must be a non-empty subset of {SWEEP_METHODS}")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output_format must be 'csv' or 'json'")
        if "mc" in self.methods and self.mc is None:
            object.__setattr__(self, "mc", McConfig())


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.9g}"
    return str(x)


def _diag_str(diag: dict) -> str:
    return ";".join(f"{k}={_fmt(v)}" for k, v in sorted(diag.items()))


def _mc_estimate(res, mc: McConfig) -> CapacityEstimate:
    return CapacityEstimate(res.estimate, res.std_error,
                            {"seed": mc.seed, "n_samples": mc.n_samples,
                             "n_batches": mc.n_batches})


# method -> estimate at (Parameterization, rel_tol, Monte Carlo config)
_EVALUATORS = {
    "quadrature": lambda p, tol, mc: capacity_quadrature(p.channel_params(), tol),
    "series": lambda p, tol, mc: capacity_series(p.channel_params(), tol),
    "asymptotic_high": lambda p, tol, mc: (
        capacity_high_snr_budget(p.snr_budget) if p.mode == FIXED_POWER_BUDGET
        else capacity_high_snr(p.channel_params())),
    "asymptotic_low": lambda p, tol, mc: capacity_low_snr(p),
    "mc": lambda p, tol, mc: _mc_estimate(estimate_capacity(p, mc), mc),
    "awgn": lambda p, tol, mc: capacity_awgn(p.snr_value),
    "rayleigh": lambda p, tol, mc: capacity_rayleigh(p.snr_value),
}
SWEEP_METHODS = tuple(_EVALUATORS)


def _points(mode: str, rhos, snr_grid, methods) -> list[tuple]:
    """The (mode, rho, snr_db, method) product that every command evaluates."""
    return [(mode, rho, snr, m) for rho in rhos for snr in snr_grid for m in methods]


def _reject_repeats(values, what: str) -> None:
    """ConfigError naming the first value that occurs twice in values."""
    seen = set()
    for v in values:
        if v in seen:
            raise ConfigError(f"repeated {what}: {v}")
        seen.add(v)


def _evaluate_points(points: list[tuple], evaluate, threads: int = 1) -> list[dict]:
    """One row per (mode, rho, snr_db, method) point, sorted by (rho, snr_db,
    method); evaluate(param, method) returns its CapacityEstimate.  Points
    run on a pool when threads > 1; every point is pure, so the thread
    count cannot change any value.  A repeated point is a ConfigError."""
    _reject_repeats(points, "point (mode, rho, snr_db, method)")

    def row(pt):
        mode, rho, snr_db, method = pt
        param = Parameterization(mode, db_to_linear(snr_db), rho)
        est = evaluate(param, method)
        return {
            "mode": mode,
            "rho": rho,
            "snr_db": snr_db,
            "gamma_bar_linear": param.snr_value if method in ("awgn", "rayleigh")
            else param.gamma_bar,
            "method": method,
            "capacity_bpshz": est.value,
            "error_bound": est.error_bound,
            "diagnostics": _diag_str(est.diagnostics),
        }

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(row, points))
    else:
        rows = [row(pt) for pt in points]
    rows.sort(key=lambda r: (r["rho"], r["snr_db"], r["method"]))
    return rows


def run_sweep(spec: SweepSpec, rel_tol: float = REL_TOL, threads: int = 1) -> list[dict]:
    """One row per (rho, snr, method), sorted by (rho, snr_db, method)."""
    points = _points(spec.mode, spec.rho_list, spec.snr_db_grid, spec.methods)
    return _evaluate_points(
        points, lambda p, m: _EVALUATORS[m](p, rel_tol, spec.mc), threads)


# ----------------------------------------------------------------------
# figure datasets
# ----------------------------------------------------------------------

def _grid(start: float, stop: float, step: float) -> tuple:
    """start, start + step, ... up to stop, inclusive when on the grid."""
    return tuple(float(x) for x in np.arange(start, stop + 0.5 * step, step))


def _budget_figure(snr_range: tuple, reference: str) -> tuple:
    return (FIXED_POWER_BUDGET, snr_range,
            (((0.0, 0.5), 2, ("quadrature",)), ((0.0, 0.5), 5, ("mc",)),
             ((1.0,), 2, ("mc",)), ((0.0,), 2, (reference,))))


# figure id -> (mode, SNR range in dB, blocks of (rho set, SNR step in dB,
# methods)).  Monte Carlo markers sit every 5 dB, and Monte Carlo alone
# carries the rho = 1 curves of figures 2 and 3.  Correlation-independent
# reference/asymptote curves are emitted once, tagged rho = 0.
_FIGURES = {
    "fig_fixed_receiver": (FIXED_RECEIVER_SNR, (-10, 40), (
        ((0.0, 0.3, 0.6, 0.9), 2, ("quadrature", "asymptotic_high")),
        ((0.0, 0.3, 0.6, 0.9), 5, ("mc",)),
        ((0.0,), 2, ("awgn", "rayleigh")))),
    "fig_fixed_budget": _budget_figure((-10, 40), "asymptotic_high"),
    "fig_awgn_normalised": _budget_figure((-30, 10), "awgn"),
}
FIGURE_IDS = tuple(_FIGURES)
# --figure {1|2|3} in grid order
FIGURE_FLAG_MAP = dict(zip("123", FIGURE_IDS))


def figure_dataset(fig: str, rel_tol: float = REL_TOL,
                   mc_config: McConfig = DEFAULT_FIGURE_MC,
                   threads: int = 1) -> list[dict]:
    """Rows reproducing one figure's curves, as its _FIGURES entry lays
    them out; figure 3 adds its two ratios to AWGN."""
    if fig not in _FIGURES:
        raise ConfigError(f"figure id must be one of {FIGURE_IDS}")
    mode, (lo, hi), blocks = _FIGURES[fig]
    points = [pt for rhos, step, methods in blocks
              for pt in _points(mode, rhos, _grid(lo, hi, step), methods)]
    rows = _evaluate_points(
        points, lambda p, m: _EVALUATORS[m](p, rel_tol, mc_config), threads)
    if fig == "fig_awgn_normalised":
        for row in rows:
            snr_I = db_to_linear(row["snr_db"])
            awgn = capacity_awgn(snr_I).value
            row["capacity_over_awgn"] = row["capacity_bpshz"] / awgn
            row["low_snr_limit_over_awgn"] = \
                LOG2E * snr_I * (1.0 + row["rho"]) / awgn
    return rows


# ----------------------------------------------------------------------
# serialization
# ----------------------------------------------------------------------

def render_csv(rows: list[dict], preamble: dict, header: str = CSV_HEADER) -> str:
    columns = header.split(",")
    extra = [k for k in rows[0] if k not in columns] if rows else []
    lines = [f"# {k}={v}" for k, v in sorted(preamble.items())]
    lines.append(",".join(columns + extra))
    for row in rows:
        lines.append(",".join(_fmt(row[c]) for c in columns + extra))
    return "\n".join(lines) + "\n"


def render_json(rows: list[dict], preamble: dict) -> str:
    def clean(v):
        return _json_scalar(float(f"{v:.9g}") if isinstance(v, float) else v)

    payload = {
        "meta": dict(sorted(preamble.items())),
        "rows": [{k: clean(v) for k, v in row.items()} for row in rows],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _json_scalar(v):
    """v as a plain JSON value: numpy scalars as numbers, non-finite
    floats as the strings "nan", "inf" and "-inf"."""
    if isinstance(v, np.generic):
        v = v.item()
    return str(v) if isinstance(v, float) and not math.isfinite(v) else v


def write_output(rows: list[dict], preamble: dict, fmt: str,
                 path: str | None, header: str = CSV_HEADER) -> None:
    """Render fully, then write in one shot so failures never leave a
    partial file behind."""
    text = render_csv(rows, preamble, header) if fmt == "csv" \
        else render_json(rows, preamble)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


# ----------------------------------------------------------------------
# argument handling
# ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems are exit code 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def parse_value_list(text: str) -> tuple:
    """Comma list or start:stop:step (stop inclusive when on-grid); -0 reads
    as 0, the point it names."""
    text = text.strip()
    sep = ":" if ":" in text else ","
    try:
        values = tuple(float(p) + 0.0 for p in text.split(sep))
    except ValueError as exc:
        raise ConfigError(f"cannot parse number list {text!r}") from exc
    if sep == ",":
        return values
    if len(values) != 3:
        raise ConfigError(f"expected start:stop:step, got {text!r}")
    start, stop, step = values
    if step <= 0 or stop < start:
        raise ConfigError("need stop >= start and step > 0")
    if not (stop + 0.5 * step - start) / step <= _MAX_LIST_POINTS:
        raise ConfigError(f"start:stop:step {text!r}: at most {_MAX_LIST_POINTS} points allowed")
    return _grid(start, stop, step)


_SWEEP_CONFIG_KEYS = {f.name for f in fields(SweepSpec)}
_MC_CONFIG_KEYS = {f.name for f in fields(McConfig)}


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


_NUMBER_LIST = (lambda v: isinstance(v, list) and all(map(_is_number, v)),
                "a list of numbers")
# config keys whose JSON type SweepSpec does not check -> (test, what they hold)
_CONFIG_VALUE_TESTS = {
    "snr_db_grid": _NUMBER_LIST,
    "rho_list": _NUMBER_LIST,
    "methods": (lambda v: isinstance(v, list) and all(isinstance(m, str) for m in v),
                "a list of strings"),
    "output_path": (lambda v: v is None or isinstance(v, str), "a string"),
}


def _load_config(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError("config file must hold a JSON object")
    unknown = set(data) - _SWEEP_CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, (test, kind) in _CONFIG_VALUE_TESTS.items():
        if key in data and not test(data[key]):
            raise ConfigError(f"config key {key!r} must be {kind}")
    if "mc" in data and data["mc"] is not None:
        if not isinstance(data["mc"], dict):
            raise ConfigError("'mc' must be an object")
        bad = set(data["mc"]) - _MC_CONFIG_KEYS
        if bad:
            raise ConfigError(f"unknown mc config keys: {sorted(bad)}")
        for key, value in data["mc"].items():
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"mc config key {key!r} must be an integer")
    return data


def _mc_from_args(args, base: McConfig | None = None) -> McConfig:
    cfg = base or McConfig()
    updates = {}
    if args.samples is not None:
        updates["n_samples"] = args.samples
    if args.seed is not None:
        updates["seed"] = args.seed
    if args.batches is not None:
        updates["n_batches"] = args.batches
    return replace(cfg, **updates) if updates else cfg


def _threads_from_args(args) -> int:
    if not 1 <= args.threads <= _MAX_THREADS:
        raise ConfigError(f"--threads must be between 1 and {_MAX_THREADS}")
    return args.threads


def _add_common_flags(p, mc=True):
    p.add_argument("--out", default=None, help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "json"), default=None)
    if mc:
        p.add_argument("--samples", type=int, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--batches", type=int, default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="bscap",
                     description="Capacity of correlated Rayleigh product "
                                 "backscatter channels")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="evaluate methods over an SNR/rho grid")
    p_sweep.add_argument("--config", default=None, help="JSON file mirroring SweepSpec")
    p_sweep.add_argument("--mode", choices=MODES, default=None)
    p_sweep.add_argument("--snr-db", default=None,
                         help="comma list or start:stop:step (dB)")
    p_sweep.add_argument("--rho", default=None, help="comma list in [0,1]")
    p_sweep.add_argument("--method", default=None,
                         help=f"comma list from {','.join(SWEEP_METHODS)}")
    _add_common_flags(p_sweep)

    p_fig = sub.add_parser("figure", help="emit one figure dataset")
    p_fig.add_argument("--figure", required=True,
                       choices=tuple(FIGURE_FLAG_MAP) + FIGURE_IDS)
    _add_common_flags(p_fig)
    for p in (p_sweep, p_fig):  # the commands that evaluate analytic points
        p.add_argument("--tol", type=float, default=REL_TOL,
                       help="relative tolerance of quadrature/series, in [100 eps, 1)")
        p.add_argument("--threads", type=int, default=1,
                       help=f"evaluate points in parallel, 1 to {_MAX_THREADS} (results unchanged)")

    p_mc = sub.add_parser("mc", help="Monte Carlo estimate at given points")
    p_mc.add_argument("--mode", choices=MODES, default=FIXED_RECEIVER_SNR)
    p_mc.add_argument("--snr-db", required=True)
    p_mc.add_argument("--rho", required=True)
    p_mc.add_argument("--moment", type=int, default=None,
                      help="estimate E{gamma^k} instead of capacity")
    _add_common_flags(p_mc)

    p_pdf = sub.add_parser("pdf", help="tabulate the SNR density on a gamma grid")
    p_pdf.add_argument("--mode", choices=MODES, default=FIXED_RECEIVER_SNR)
    p_pdf.add_argument("--snr-db", required=True, help="single mean-SNR value (dB)")
    p_pdf.add_argument("--rho", required=True, help="comma list in [0,1]")
    p_pdf.add_argument("--gamma", required=True,
                       help="linear gamma grid, comma list or start:stop:step")
    _add_common_flags(p_pdf, mc=False)

    p_val = sub.add_parser("validate", help="run the validation suite")
    p_val.add_argument("--suite", choices=("fast", "full"), default="fast")
    return parser


def _sweep_spec_from_args(args) -> SweepSpec:
    cfg = _load_config(args.config) if args.config else {}
    mode = args.mode or cfg.get("mode")
    snr = parse_value_list(args.snr_db) if args.snr_db else tuple(cfg.get("snr_db_grid", ()))
    rho = parse_value_list(args.rho) if args.rho else tuple(cfg.get("rho_list", ()))
    methods = tuple(args.method.split(",")) if args.method else tuple(cfg.get("methods", ()))
    if mode is None or not snr or not rho or not methods:
        raise ConfigError("sweep needs --mode, --snr-db, --rho and --method "
                          "(flags or config file)")
    mc_cfg = cfg.get("mc")
    mc = McConfig(**mc_cfg) if mc_cfg else None
    mc = _mc_from_args(args, mc) if "mc" in methods else mc
    out = args.out if args.out is not None else cfg.get("output_path")
    fmt = args.format if args.format is not None else cfg.get("output_format", "csv")
    # + 0.0 reads a config file's -0.0 as 0, as parse_value_list does
    return SweepSpec(mode=mode, snr_db_grid=tuple(float(s) + 0.0 for s in snr),
                     rho_list=tuple(float(r) + 0.0 for r in rho), methods=methods,
                     mc=mc, output_path=out, output_format=fmt)


def cmd_sweep(args) -> int:
    spec = _sweep_spec_from_args(args)
    rel_tol = _check_rel_tol(args.tol)
    rows = run_sweep(spec, rel_tol, _threads_from_args(args))
    preamble = {
        "tool": f"bscap sweep v{__version__}",
        "mode": spec.mode,
        "methods": "|".join(spec.methods),
        "rel_tol": _fmt(rel_tol),
    }
    if spec.mc is not None and "mc" in spec.methods:
        preamble.update(seed=spec.mc.seed, n_samples=spec.mc.n_samples,
                        n_batches=spec.mc.n_batches)
    write_output(rows, preamble, spec.output_format, spec.output_path)
    return 0


def cmd_figure(args) -> int:
    fig = FIGURE_FLAG_MAP.get(args.figure, args.figure)
    rel_tol = _check_rel_tol(args.tol)
    mc = _mc_from_args(args, DEFAULT_FIGURE_MC)
    rows = figure_dataset(fig, rel_tol, mc, _threads_from_args(args))
    preamble = {
        "tool": f"bscap figure v{__version__}",
        "figure": fig,
        "seed": mc.seed,
        "n_samples": mc.n_samples,
        "n_batches": mc.n_batches,
        "rel_tol": _fmt(rel_tol),
    }
    write_output(rows, preamble, args.format or "csv", args.out)
    return 0


def cmd_mc(args) -> int:
    mc, k = _mc_from_args(args), args.moment

    def evaluate(param, method):
        res = estimate_capacity(param, mc) if k is None \
            else estimate_moment(param, k, mc)
        return _mc_estimate(res, mc)

    method = "mc" if k is None else f"mc_moment_{k}"
    rows = _evaluate_points(_points(args.mode, parse_value_list(args.rho),
                                    parse_value_list(args.snr_db), (method,)),
                            evaluate)
    preamble = {"tool": f"bscap mc v{__version__}", "mode": args.mode,
                "seed": mc.seed, "n_samples": mc.n_samples,
                "n_batches": mc.n_batches}
    write_output(rows, preamble, args.format or "csv", args.out)
    return 0


def cmd_pdf(args) -> int:
    snr_vals = parse_value_list(args.snr_db)
    if len(snr_vals) != 1:
        raise ConfigError("pdf takes a single --snr-db value")
    rhos, gammas = parse_value_list(args.rho), parse_value_list(args.gamma)
    if not all(0 < g < math.inf for g in gammas):
        raise ConfigError("gamma grid must be positive and finite")
    _reject_repeats(rhos, "rho")
    _reject_repeats(gammas, "gamma")
    rows = []
    for rho in rhos:
        cp = Parameterization(args.mode, db_to_linear(snr_vals[0]), rho).channel_params()
        dens = pdf(cp, np.array(gammas))
        for g, d in zip(gammas, dens):
            rows.append({"rho": rho, "snr_db": snr_vals[0],
                         "gamma_bar_linear": cp.gamma_bar,
                         "gamma": g, "density": float(d)})
    rows.sort(key=lambda r: (r["rho"], r["gamma"]))
    write_output(rows, {"tool": f"bscap pdf v{__version__}", "mode": args.mode},
                 args.format or "csv", args.out, PDF_CSV_HEADER)
    return 0


def cmd_validate(args) -> int:
    from .validation import run_suite

    results = run_suite(args.suite)
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += 0 if res.passed else 1
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 0 if failed == 0 else 2


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"sweep": cmd_sweep, "figure": cmd_figure, "mc": cmd_mc,
                "pdf": cmd_pdf, "validate": cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, DomainError, OSError, json.JSONDecodeError) as exc:
        print(f"bscap: {exc}", file=sys.stderr)
        return 1
    except ConvergenceError as exc:
        print(f"bscap: numerical failure: {exc}", file=sys.stderr)
        print(json.dumps({k: _json_scalar(v) for k, v in exc.diagnostics.items()},
                         sort_keys=True), file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy's message names the size it could not get
        print(f"bscap: out of memory: {exc or 'allocation failed'}; "
              "lower --samples or raise --batches", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
