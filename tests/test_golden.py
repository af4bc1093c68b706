"""Golden outputs: the SHA-256 of `bscap figure --figure 1|2|3 --seed 12345`.

Run-to-run identity is checked elsewhere; these pins show that a change left
the published data unchanged.  Philox streams and normal sampling are
defined by numpy, so the hashes hold for the numpy version recorded with
them.  Under another version every pin fails and names both versions; the
hashes are then regenerated with `sha256sum` of the three commands' output,
in a change that says so.
"""

import hashlib

import numpy as np
import pytest

from backscatter_capacity.cli import main

GOLDEN_NUMPY = "2.4.6"
GOLDEN_FIGURE_SHA256 = {
    "1": "60c8e51997f11d580a4b5771e82f7e931f9b16d1ed72edd67296b8bb1c5b1389",
    "2": "61f0854a56466f123764e849f1a969e1866a79d1e7e1903fd6a60cd880987ab5",
    "3": "aadb61e74b6361e1abb3c19d6ff40a8e1bfa6b85398fb32619dd4d92250d2912",
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_FIGURE_SHA256))
def test_figure_output_pinned(figure, tmp_path):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.fail(f"figure hashes were pinned under numpy {GOLDEN_NUMPY}, "
                    f"this is numpy {np.__version__}: regenerate them")
    out = tmp_path / f"figure{figure}.csv"
    assert main(["figure", "--figure", figure, "--seed", "12345",
                 "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_FIGURE_SHA256[figure]
