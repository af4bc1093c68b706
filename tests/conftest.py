"""Fixtures shared by the test modules."""

import csv

import pytest

from backscatter_capacity.cli import main


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


@pytest.fixture(scope="session")
def golden_figure(tmp_path_factory):
    """`bscap figure --figure N --seed 12345`, run at most once per session
    for each N: a function of N returning the output bytes and the data
    rows as dicts, numeric cells as floats."""
    built = {}

    def build(figure: str) -> tuple[bytes, list[dict]]:
        if figure not in built:
            out = tmp_path_factory.mktemp("golden") / f"figure{figure}.csv"
            assert main(["figure", "--figure", figure, "--seed", "12345",
                         "--out", str(out)]) == 0
            data = out.read_bytes()
            lines = [ln for ln in data.decode().splitlines() if not ln.startswith("#")]
            rows = [{k: _cell(v) for k, v in row.items()} for row in csv.DictReader(lines)]
            built[figure] = data, rows
        return built[figure]

    return build
