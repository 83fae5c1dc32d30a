"""Artifact writers: exact float round-trips, JSON-safe conversion, SVG."""

import csv
import json
import math
from dataclasses import dataclass

import numpy as np
import pytest

from channel_spectra.output import (
    jsonable,
    write_band_svg,
    write_csv,
    write_json,
)


def test_write_csv_writes_float_cells_as_repr(tmp_path):
    floats = [1.0 / 3.0, 0.1, 5e-324, 1e308, -0.0, math.nan, math.inf]
    path = write_csv(
        tmp_path / "cells.csv",
        ["value"],
        [[v] for v in floats] + [[np.float64(v)] for v in floats] + [[7], [np.int64(-3)], ["label"]],
    )
    cells = path.read_text().splitlines()[1:]
    expected = [repr(float(v)) for v in floats]
    assert cells == expected + expected + ["7", "-3", "label"]
    assert [float(c) for c in cells[:4]] == floats[:4]
    assert math.copysign(1.0, float(cells[4])) == -1.0


def _csv_module_bytes(tmp_path, header, rows):
    path = tmp_path / "reference.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path.read_bytes()


@pytest.mark.parametrize(
    "table",
    [
        np.array(
            [
                [1.0 / 3.0, 0.1, 1.0, 5e-324, 1e16],
                [1e-5, -0.0, math.nan, math.inf, -math.inf],
            ]
        ),
        np.array([[1.0 / 3.0], [-0.0], [math.nan], [5e-324]]),
        np.empty((0, 3)),
    ],
    ids=["specials", "one-column", "no-rows"],
)
def test_a_float_table_is_written_with_the_bytes_of_the_csv_module(tmp_path, table):
    header = [f"c{j}" for j in range(table.shape[1])]
    path = write_csv(tmp_path / "table.csv", header, table)
    assert path.read_bytes() == _csv_module_bytes(tmp_path, header, table.tolist())


def test_jsonable_scalars_and_specials():
    assert jsonable(True) is True
    assert jsonable(np.bool_(True)) is True and jsonable(np.bool_(False)) is False
    assert jsonable(np.float64(2.0) < 1.0) is False
    assert jsonable(None) is None
    assert jsonable(math.inf) == "inf"
    assert jsonable(-math.inf) == "-inf"
    assert jsonable(math.nan) == "nan"
    assert jsonable(np.float64(1.5)) == 1.5
    assert jsonable(np.int32(4)) == 4
    assert jsonable(2.0 + 3.0j) == {"re": 2.0, "im": 3.0}


def test_jsonable_containers_and_dataclasses():
    @dataclass(frozen=True)
    class Inner:
        value: float
        flags: tuple

    @dataclass(frozen=True)
    class Outer:
        name: str
        inner: Inner
        arr: np.ndarray

    outer = Outer("run", Inner(math.inf, (1, 2)), np.array([0.5, 1.5]))
    got = jsonable(outer)
    assert got == {
        "name": "run",
        "inner": {"value": "inf", "flags": [1, 2]},
        "arr": [0.5, 1.5],
    }
    assert jsonable({3: "x"}) == {"3": "x"}
    # the result must always be JSON-encodable
    json.dumps(got)


def test_write_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    rows = [(0.1, 1, "a"), (2.0 / 3.0, -2, "b")]
    write_csv(path, ["x", "n", "tag"], rows)
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        back = list(reader)
    assert reader.fieldnames == ["x", "n", "tag"]
    assert float(back[0]["x"]) == 0.1
    assert float(back[1]["x"]) == 2.0 / 3.0
    assert back[1]["n"] == "-2"


def test_write_json_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "report.json"
    write_json(path, {"b": 1.0, "a": math.inf})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": "inf", "b": 1.0}


def test_write_json_creates_parent_directories(tmp_path):
    path = tmp_path / "deep" / "nested" / "report.json"
    write_json(path, [1, 2])
    assert json.loads(path.read_text()) == [1, 2]


def test_write_band_svg(tmp_path):
    path = tmp_path / "bands.svg"
    theta = np.linspace(-0.5, 0.5, 9)
    bands = np.vstack([5.0 + theta**2, 7.0 + 0.5 * np.cos(2 * np.pi * theta)])
    write_band_svg(path, theta, bands, ceiling=9.0, gaps=[(6.0, 6.5)])
    text = path.read_text()
    assert text.startswith("<svg")
    assert text.count("<polyline") == 2
    assert "#fde2e2" in text  # shaded gap rectangle
    assert "theta" in text and "energy" in text


def test_write_band_svg_validates_shape(tmp_path):
    with pytest.raises(ValueError):
        write_band_svg(tmp_path / "bad.svg", np.linspace(0, 1, 5), np.zeros((2, 4)))


def test_the_appendix_report_holds_plain_floats_and_bools():
    from channel_spectra import appendix_norm_checks, derive_params

    report = appendix_norm_checks(derive_params(3.0, 4.0), n_hermite=12, m_range=3, theta_count=3)
    assert {type(v) for v in report.estimates.values()} == {float}
    assert {type(v) for v in report.passed.values()} == {bool}
    got = jsonable(report)
    assert got["passed"] == {k: True for k in report.estimates}
    json.dumps(got)
