"""Golden outputs: the SHA-256 of `bscap figure --figure 1|2|3 --seed 12345`.

Run-to-run identity is checked elsewhere; these pins show that a change left
the published data unchanged.  Philox streams and normal sampling are
defined by numpy, so the hashes hold for the numpy version recorded with
them.  Under another version every pin fails and names both versions; the
hashes are then regenerated with `sha256sum` of the three commands' output,
in a change that says so.

numpy also picks its exp/log kernels by CPU at run time, and on x86 the
quadrature `error_bound` cells differ in their last printed digits between
the AVX-512 target (X86_V4) and every target below it.  So each figure has
one hash per class, keyed by whether numpy runs its X86_V4 kernels, which
follows `NPY_DISABLE_CPU_FEATURES`.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import backscatter_capacity

try:  # numpy 2
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1, where test_figure_output_pinned names the version
    from numpy.core._multiarray_umath import __cpu_features__

GOLDEN_NUMPY = "2.4.6"
# X86_V4 kernels in use -> figure -> SHA-256 of its output
GOLDEN_FIGURE_SHA256 = {
    True: {
        "1": "5159af6cefef653279dc9b1118edaad2c42afdce4f994d8d862ddebe13d8562f",
        "2": "c5d6550487c4951432dfc5e05f9c154c800d7dc06bc69ec731875f8960585a61",
        "3": "1db9070ece2987d2def05b3850da4a59ff0f00b8688c332269d7b2452955ecf5",
    },
    False: {
        "1": "98304a3beac29b087c68aba9144e23fd9dcffb878d66ee0b746c3e59c2697f75",
        "2": "fb469279f372c5a9e62e0e4bca8eae771138fba030844e782932b3a55dbc8b7d",
        "3": "279f573f3eea1b29fed77dd57bf722fa7dfb62100f961b61890d017e3693493f",
    },
}
X86_V4 = __cpu_features__.get("X86_V4", False)
BELOW_V4 = "AVX512_ICL AVX512_SPR X86_V4"  # NPY_DISABLE_CPU_FEATURES


def _check_numpy():
    if np.__version__ != GOLDEN_NUMPY:
        pytest.fail(f"figure hashes were pinned under numpy {GOLDEN_NUMPY}, "
                    f"this is numpy {np.__version__}: regenerate them")


@pytest.mark.parametrize("figure", sorted(GOLDEN_FIGURE_SHA256[True]))
def test_figure_output_pinned(figure, golden_figure):
    _check_numpy()
    data, _ = golden_figure(figure)  # shared with tests/test_cli.py
    assert hashlib.sha256(data).hexdigest() == GOLDEN_FIGURE_SHA256[X86_V4][figure]


@pytest.mark.skipif(not X86_V4, reason="needs a CPU with numpy's X86_V4 target")
def test_figure_output_pinned_below_v4(tmp_path):
    # figure 3 in a child process that runs numpy's kernels below X86_V4,
    # so that both hash sets stay checked on an AVX-512 host
    _check_numpy()
    out = tmp_path / "figure3.csv"
    src = str(Path(backscatter_capacity.__file__).parents[1])
    env = {**os.environ, "NPY_DISABLE_CPU_FEATURES": BELOW_V4,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run(
        [sys.executable, "-c",
         "import sys; from backscatter_capacity.cli import main; sys.exit(main(sys.argv[1:]))",
         "figure", "--figure", "3", "--seed", "12345", "--out", str(out)],
        env=env, check=True, timeout=300)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FIGURE_SHA256[False]["3"]
