"""Span tracing around the library's public functions, from outside.

`Tracer.install()` replaces every public function of the six layer
modules, under every module attribute of the package it is reachable
through (`tanh_sinh` is called as `capacity.tanh_sinh` and as
`channel_model.tanh_sinh`), by one wrapper that records a span: name,
start, end, parent, thread id and run id, plus a count taken from the
arguments or the return value.  Spans stay in memory; `uninstall()`
restores the originals.  A span's self time is its duration minus the
union of its children's intervals.
"""

from __future__ import annotations

import functools
import itertools
import statistics
import sys
import threading
import time
from collections import defaultdict
from dataclasses import asdict, dataclass

import numpy as np

PACKAGE = "backscatter_capacity"
LAYERS = ("special_functions", "quadrature", "channel_model", "capacity",
          "monte_carlo", "cli")


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


# what a span counts, taken from (args, kwargs, result) of a successful call
COUNTS = {
    "bessel_i0_scaled": lambda a, k, r: int(np.size(_arg(a, k, 0, "x"))),
    "bessel_k0_scaled": lambda a, k, r: int(np.size(_arg(a, k, 0, "x"))),
    "mellin_barnes_integral": lambda a, k, r: r[2],
    "tanh_sinh": lambda a, k, r: r.n_nodes,
    "pdf": lambda a, k, r: int(np.size(_arg(a, k, 1, "gamma"))),
    "cdf": lambda a, k, r: int(np.size(_arg(a, k, 1, "gamma"))),
    "capacity_series": lambda a, k, r: r.diagnostics["terms_used"],
    "estimate_capacity": lambda a, k, r: r.n_samples,
    "estimate_moment": lambda a, k, r: r.n_samples,
    "batch_rng": lambda a, k, r: (int(_arg(a, k, 0, "seed")),
                                  int(_arg(a, k, 1, "batch_index"))),
    "figure_dataset": lambda a, k, r: len(r),
    "run_sweep": lambda a, k, r: len(r),
}


@dataclass
class Span:
    id: int
    parent: int | None
    name: str           # "<layer>.<function>"
    thread: int
    run: int
    start: float = 0.0
    end: float = 0.0
    error: str | None = None
    count: object = None

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def function(self) -> str:
        return self.name.split(".", 1)[1]

    def as_record(self) -> dict:
        return asdict(self)


class Tracer:
    def __init__(self, run: int = 0):
        self.run = run
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list[tuple] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, layer: str):
        name = f"{layer}.{fn.__name__}"
        count = COUNTS.get(fn.__name__)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = Span(next(self._ids), stack[-1].id if stack else None, name,
                        threading.get_ident(), self.run)
            stack.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = clock()
                stack.pop()
                self.spans.append(span)
            if count is not None:
                span.count = count(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        wrappers = {}
        modules = [m for n, m in list(sys.modules.items())
                   if n == PACKAGE or n.startswith(PACKAGE + ".")]
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                origin = getattr(obj, "__module__", None) or ""
                layer = origin.rpartition(".")[2]
                if (attr.startswith("_") or isinstance(obj, type) or not callable(obj)
                        or not origin.startswith(PACKAGE + ".") or layer not in LAYERS):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(obj, layer)
                self._patched.append((mod, attr, obj))
                setattr(mod, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for mod, attr, obj in reversed(self._patched):
            setattr(mod, attr, obj)
        self._patched.clear()


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, -float("inf")
        for lo, hi in sorted(children[s.id]):
            lo = max(lo, reach)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out[s.id] = (s.end - s.start) - covered
    return out


def self_check(spans: list[Span], main_thread: int, pool_threads: int,
               substreams: tuple[int, int]) -> list[str]:
    """Problems with a pass's spans; an empty list means the trace holds."""
    problems = []
    by_id = {s.id: s for s in spans}
    own = self_times(spans)
    for s in spans:
        if own[s.id] < 0:
            problems.append(f"{s.name} has negative self time {own[s.id]}")
        p = by_id.get(s.parent)
        if s.parent is not None and p is None:
            problems.append(f"{s.name} has no recorded parent")
        elif p is not None and (p.thread != s.thread or s.start < p.start
                                or s.end > p.end):
            problems.append(f"{s.name} lies outside its parent {p.name}")
    others = {s.thread for s in spans} - {main_thread}
    if len(others) != pool_threads:
        problems.append(f"spans from {len(others)} pool threads, "
                        f"expected {pool_threads}")
    keys = [s.count for s in spans if s.function == "batch_rng"]
    if (len(keys), len(set(keys))) != tuple(substreams):
        problems.append(f"substreams opened/distinct {len(keys)}/{len(set(keys))}, "
                        f"expected {substreams[0]}/{substreams[1]}")
    return problems


# the end-to-end metric and workloads each per-layer metric should move;
# names, units and directions are those of BENCHMARK.json
SHOULD_MOVE = {
    "special_functions.bessel_calls": "wall_s on point_deep and figure1",
    "special_functions.bessel_elems": "wall_s on point_deep and figure1",
    "special_functions.bessel_self_s": "wall_s on point_deep and figure1",
    "special_functions.mb_calls": "wall_s on analytic_grid only",
    "special_functions.mb_nodes": "wall_s on analytic_grid only",
    "special_functions.mb_self_s": "wall_s on analytic_grid only",
    "quadrature.tanh_sinh_calls": "wall_s on figure1 and point_deep",
    "quadrature.tanh_sinh_nodes": "wall_s on figure1 and point_deep",
    "quadrature.tanh_sinh_self_s": "wall_s on figure1 and point_deep",
    "channel_model.pdf_elems": "wall_s on point_deep",
    "channel_model.pdf_self_s": "wall_s on point_deep",
    "channel_model.cdf_points": "wall_s on point_deep",
    "channel_model.cdf_self_s": "wall_s on point_deep",
    "capacity.quadrature_points": "wall_s on figure1",
    "capacity.quadrature_ms_p50": "wall_s on figure1",
    "capacity.series_points": "wall_s and failures on analytic_grid",
    "capacity.series_terms": "wall_s and failures on analytic_grid",
    "capacity.series_ms_p50": "wall_s and failures on analytic_grid",
    "capacity.series_failed": "wall_s and failures on analytic_grid",
    "capacity.series_failed_s": "wall_s and failures on analytic_grid",
    "monte_carlo.estimates": "wall_s on point_deep and figure1",
    "monte_carlo.pairs": "wall_s on point_deep and figure1",
    "monte_carlo.pairs_per_s": "wall_s on point_deep and figure1",
    "monte_carlo.self_s": "wall_s on point_deep and figure1",
    "monte_carlo.substreams_opened":
        "wall_s on figure1 (peak_rss_mb if reuse costs memory); no change on point_deep",
    "monte_carlo.substreams_distinct":
        "wall_s on figure1 (peak_rss_mb if reuse costs memory); no change on point_deep",
    "monte_carlo.substream_reuse":
        "wall_s on figure1 (peak_rss_mb if reuse costs memory); no change on point_deep",
    "cli.points": "wall_s on figure1",
    "cli.render_s": "wall_s on figure1",
    "cli.self_s": "wall_s on figure1",
    "trace.overhead_frac": "none: traced wall time over untraced, minus one",
}


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every metric of SHOULD_MOVE except trace.overhead_frac, from the
    spans of one pass."""
    own = self_times(spans)
    by_fn = defaultdict(list)
    for s in spans:
        by_fn[s.function].append(s)

    def pick(*names, ok=None):
        return [s for n in names for s in by_fn[n]
                if ok is None or (s.error is None) == ok]

    def count(*names):
        return sum(s.count for s in pick(*names, ok=True))

    def self_s(group):
        return sum(own[s.id] for s in group)

    def dur(group):
        return sum(s.end - s.start for s in group)

    def p50_ms(group):
        return 1e3 * statistics.median(s.end - s.start for s in group) if group else 0.0

    def layer(name):
        return [s for s in spans if s.layer == name]

    bessel = pick("bessel_i0_scaled", "bessel_k0_scaled")
    estimates = pick("estimate_capacity", "estimate_moment")
    pairs = count("estimate_capacity", "estimate_moment")
    opened = len(by_fn["batch_rng"])
    distinct = len({s.count for s in by_fn["batch_rng"]})
    return {
        "special_functions.bessel_calls": len(bessel),
        "special_functions.bessel_elems": count("bessel_i0_scaled", "bessel_k0_scaled"),
        "special_functions.bessel_self_s": self_s(bessel),
        "special_functions.mb_calls": len(pick("mellin_barnes_integral")),
        "special_functions.mb_nodes": count("mellin_barnes_integral"),
        "special_functions.mb_self_s": self_s(pick("mellin_barnes_integral")),
        "quadrature.tanh_sinh_calls": len(pick("tanh_sinh")),
        "quadrature.tanh_sinh_nodes": count("tanh_sinh"),
        "quadrature.tanh_sinh_self_s": self_s(pick("tanh_sinh")),
        "channel_model.pdf_elems": count("pdf"),
        "channel_model.pdf_self_s": self_s(pick("pdf")),
        "channel_model.cdf_points": count("cdf"),
        "channel_model.cdf_self_s": self_s(pick("cdf")),
        "capacity.quadrature_points": len(pick("capacity_quadrature")),
        "capacity.quadrature_ms_p50": p50_ms(pick("capacity_quadrature")),
        "capacity.series_points": len(pick("capacity_series")),
        "capacity.series_terms": count("capacity_series"),
        "capacity.series_ms_p50": p50_ms(pick("capacity_series", ok=True)),
        "capacity.series_failed": len(pick("capacity_series", ok=False)),
        "capacity.series_failed_s": dur(pick("capacity_series", ok=False)),
        "monte_carlo.estimates": len(estimates),
        "monte_carlo.pairs": pairs,
        "monte_carlo.pairs_per_s": pairs / dur(estimates) if estimates else 0.0,
        "monte_carlo.self_s": self_s(layer("monte_carlo")),
        "monte_carlo.substreams_opened": opened,
        "monte_carlo.substreams_distinct": distinct,
        "monte_carlo.substream_reuse": distinct / opened if opened else 0.0,
        "cli.points": count("figure_dataset", "run_sweep"),
        "cli.render_s": dur(pick("render_csv", "render_json")),
        "cli.self_s": self_s(layer("cli")),
    }
