"""Tests of the benchmark itself, at tiny sizes.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import subprocess
import sys
import threading
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402
from backscatter_capacity import capacity, cli  # noqa: E402
from backscatter_capacity.errors import ConvergenceError  # noqa: E402


@pytest.fixture(scope="module")
def ref():
    return wl.load_reference()


def _figure_check(text: str, ref: dict) -> wl.Outcome:
    outcome = wl.Outcome()
    ref_text = (wl.REF_DIR / ref["figure1"]["csv"]).read_text(encoding="utf-8")
    wl.check_figure_csv(text, wl.PINNED_SEED, ref_text, ref["figure1"]["quadrature"],
                        outcome)
    return outcome


def _replace_value(text: str, method: str, new_value) -> str:
    """Text with the capacity of the first row of `method` replaced."""
    lines = text.splitlines(keepends=True)
    header = next(ln for ln in lines if not ln.startswith("#")).strip().split(",")
    col, method_col = header.index("capacity_bpshz"), header.index("method")
    for i, ln in enumerate(lines):
        fields = ln.rstrip("\n").split(",")
        if len(fields) == len(header) and fields[method_col] == method:
            fields[col] = new_value(fields[col])
            lines[i] = ",".join(fields) + "\n"
            return "".join(lines)
    raise AssertionError(f"no {method} row")


def test_figure1_perturbations_each_fail_one_row(ref):
    text = (wl.REF_DIR / ref["figure1"]["csv"]).read_text(encoding="utf-8")
    clean = _figure_check(text, ref)
    assert (clean.attempted, clean.failed, clean.problems) == (304, 0, [])

    bumped = _replace_value(text, "mc", lambda v: v[:-1] + str((int(v[-1]) + 1) % 10))
    mc = _figure_check(bumped, ref)
    assert (mc.attempted, mc.failed) == (304, 1)

    shifted = _replace_value(text, "quadrature",
                             lambda v: cli._fmt(float(v) * (1.0 + 1e-7)))
    quad = _figure_check(shifted, ref)
    assert (quad.attempted, quad.failed) == (304, 1)

    # a sweep of the first point that lost its rows fails each of them
    partial = wl.Outcome()
    wl.check_figure_csv("", wl.PINNED_SEED, text, ref["figure1"]["quadrature"], partial,
                        wl.Figure1.FIRST_ROWS)
    assert (partial.attempted, partial.failed) == (5, 5)


def test_forced_series_raise_is_one_failure(ref, monkeypatch):
    real = capacity.capacity_series

    def series(params, *args, **kwargs):
        if params.rho > 0.0:
            raise ConvergenceError("forced", {})
        return real(params, *args, **kwargs)

    monkeypatch.setattr(capacity, "capacity_series", series)
    workload = wl.AnalyticGrid(points=[(-10.0, 0.0), (-10.0, 0.3), (-10.0, 0.99)])
    outcome = wl.Outcome()
    workload.check(workload.run(wl.PINNED_SEED), wl.PINNED_SEED, ref, outcome)
    # rho = 0.3 fails; rho = 0.99 is where the reference records the raise
    assert (outcome.attempted, outcome.failed, outcome.declined) == (6, 1, 1)


@pytest.mark.parametrize("name, attempted", [("figure1", 5), ("analytic_grid", 2),
                                             ("point_deep", 1)])
def test_first_op_checks_against_the_references(name, attempted, ref):
    workload = wl.WORKLOADS[name]()
    outcome = wl.Outcome()
    workload.check(workload.first_op(wl.PINNED_SEED), wl.PINNED_SEED, ref, outcome)
    assert (outcome.attempted, outcome.failed, outcome.problems) == (attempted, 0, [])


def _tiny_registry():
    return {"analytic_grid": lambda: wl.AnalyticGrid(points=[(-10.0, 0.0)])}


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section, capsys, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT_DIR", tmp_path)
    argv = ["--workload", "analytic_grid", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv, _tiny_registry()) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in bench[section]} == \
        {k: v["unit"] for k, v in result["metrics"].items()}


def test_layer_table_names_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert list(spans.SHOULD_MOVE) == [m["name"] for m in bench["per_layer"]]


def test_numpy_version_mismatch_fails_loudly(ref, monkeypatch, capsys):
    monkeypatch.setattr(wl, "load_reference", lambda: dict(ref, numpy="0.0.0"))
    assert run.main(["--workload", "analytic_grid", "--seconds", "0"]) == 3
    out = capsys.readouterr()
    assert out.out == "" and "numpy 0.0.0" in out.err


def test_trace_self_check_on_threaded_sweep():
    tracer = spans.Tracer()
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(["sweep", "--mode", "fixed_receiver_snr", "--snr-db", "0,10",
                             "--rho", "0,0.5", "--method", "quadrature,mc",
                             "--samples", "10000", "--seed", "3", "--threads", "2"])
    finally:
        tracer.uninstall()
    assert code == 0
    assert not hasattr(cli.main, "__wrapped__")  # uninstall restored the originals
    assert spans.self_check(tracer.spans, threading.get_ident(), 2, (400, 100)) == []
    m = spans.layer_metrics(tracer.spans)
    assert (m["cli.points"], m["capacity.quadrature_points"], m["monte_carlo.estimates"],
            m["monte_carlo.pairs"]) == (8, 4, 4, 40_000)
    assert m["monte_carlo.substream_reuse"] == 0.25


def test_self_check_flags_a_child_outside_its_parent():
    t = threading.get_ident()
    bad = [spans.Span(1, None, "cli.main", t, 0, start=0.0, end=1.0),
           spans.Span(2, 1, "capacity.capacity_quadrature", t, 0, start=-0.5, end=1.5)]
    problems = spans.self_check(bad, t, 0, (0, 0))
    assert any("outside its parent" in p for p in problems)
    assert any("negative self time" in p for p in problems)


def test_fails_without_the_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "figure1",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and "{" not in proc.stdout
