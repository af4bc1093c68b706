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

GOLDEN_NUMPY = "2.4.6"
GOLDEN_FIGURE_SHA256 = {
    "1": "5159af6cefef653279dc9b1118edaad2c42afdce4f994d8d862ddebe13d8562f",
    "2": "c5d6550487c4951432dfc5e05f9c154c800d7dc06bc69ec731875f8960585a61",
    "3": "1db9070ece2987d2def05b3850da4a59ff0f00b8688c332269d7b2452955ecf5",
}


@pytest.mark.parametrize("figure", sorted(GOLDEN_FIGURE_SHA256))
def test_figure_output_pinned(figure, golden_figure):
    if np.__version__ != GOLDEN_NUMPY:
        pytest.fail(f"figure hashes were pinned under numpy {GOLDEN_NUMPY}, "
                    f"this is numpy {np.__version__}: regenerate them")
    data, _ = golden_figure(figure)  # shared with tests/test_cli.py
    assert hashlib.sha256(data).hexdigest() == GOLDEN_FIGURE_SHA256[figure]
