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
    "1": "8295e1fe7ccc819623931751cdd4259f3b10274108eac21677a5a862d1d0c551",
    "2": "7fb961fc12db35380c02b0f94bf59c60f52dd373a8a5335eaf21308e80951538",
    "3": "f74b588dc8b64b1012151016e9fb45baee8d307911f8d25e625e2e62a75b5249",
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
