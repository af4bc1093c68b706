"""Regenerate the reference outputs in perfbench/refs/.

Run from the repository root:  python3 perfbench/make_refs.py

The references are stamped with the numpy and Python versions.  Monte
Carlo draws come from numpy's Philox generator and normal sampler, so
run.py refuses to run under another numpy version; regenerate the
references in a change of its own and say so in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from backscatter_capacity import capacity  # noqa: E402
from backscatter_capacity.channel_model import ChannelParams  # noqa: E402
from backscatter_capacity.errors import ConvergenceError  # noqa: E402

import workloads as wl  # noqa: E402


def quad(gamma_bar: float, rho: float) -> float:
    return capacity.capacity_quadrature(ChannelParams(gamma_bar, rho)).value


def main() -> int:
    seed = wl.PINNED_SEED
    wl.REF_DIR.mkdir(exist_ok=True)

    code, text, _ = wl.Figure1().run(seed)
    if code != 0:
        raise SystemExit(f"figure 1 failed with exit code {code}")
    csv_name = f"figure1_seed{seed}.csv"
    (wl.REF_DIR / csv_name).write_text(text, encoding="utf-8")
    _, _, rows = wl.parse_csv(text)
    fig_quad = {f"{r['rho']},{r['snr_db']}":
                quad(10.0 ** (float(r["snr_db"]) / 10.0), float(r["rho"]))
                for r in rows.values() if r["method"] in ("quadrature", "mc")}

    grid_quad, raises = {}, []
    for snr_db, rho in wl.AnalyticGrid().points:
        key = wl.grid_key(snr_db, rho)
        params = ChannelParams(10.0 ** (snr_db / 10.0), rho)
        grid_quad[key] = capacity.capacity_quadrature(params).value
        try:
            capacity.capacity_series(params)
        except ConvergenceError:
            raises.append(key)

    deep = wl.PointDeep()
    pdf_vals, cdf_vals, mc = deep.run(seed)
    np.save(wl.REF_DIR / "point_deep_pdf.npy", pdf_vals)

    ref = {
        "numpy": np.__version__,
        "python": platform.python_version(),
        "pinned_seed": seed,
        "figure1": {
            "csv": csv_name,
            "csv_sha256_info_only": hashlib.sha256(text.encode()).hexdigest(),
            "quadrature": fig_quad,
        },
        "analytic_grid": {"quadrature": grid_quad, "series_raises": raises},
        "point_deep": {
            "pdf": "point_deep_pdf.npy",
            "cdf": [float(v) for v in cdf_vals],
            "mc_estimate": repr(mc.estimate),
            "mc_std_error": repr(mc.std_error),
            "quadrature": quad(wl.DEEP_GAMMA_BAR, wl.DEEP_RHO),
        },
    }
    (wl.REF_DIR / "reference.json").write_text(
        json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
