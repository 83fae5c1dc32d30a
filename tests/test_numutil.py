"""Brent's bounded minimisation, the shared Bloch band driver and gap reports."""

import math

import numpy as np
import pytest

from channel_spectra.numutil import (
    BlochBands,
    gap_report,
    golden_section_minimize,
    theta_grid,
)


class _Counted:
    """f with a call counter."""

    def __init__(self, f):
        self.f = f
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        return self.f(x)


@pytest.mark.parametrize(
    "f, a, b, x_min",
    [
        (lambda x: (x - 0.3) ** 2 + 5.0, 0.2, 0.45, 0.3),
        (lambda x: -math.cos(2.0 * math.pi * (x - 0.01)), -1.0 / 16, 1.0 / 16, 0.01),
        (lambda x: math.cosh(x + 0.02), -1.0 / 32, 1.0 / 32, -0.02),
    ],
)
def test_smooth_minimum_takes_few_evaluations(f, a, b, x_min):
    fc = _Counted(f)
    x, _ = golden_section_minimize(fc, a, b, xtol=1e-8)
    assert fc.calls <= 12
    # the argument of a smooth minimum is only determined to about
    # sqrt(rounding / curvature) ~ 1e-8 here
    assert abs(x - x_min) < 1e-7


@pytest.mark.parametrize("kink", [0.013, -0.04, 0.0])
@pytest.mark.parametrize("slopes", [(1.0, 1.0), (3.0, 0.5)])
def test_v_shaped_kink_found_within_xtol(kink, slopes):
    left, right = slopes
    f = lambda x: left * (kink - x) if x < kink else right * (x - kink)  # noqa: E731
    for xtol in (1e-8, 1e-6):
        x, _ = golden_section_minimize(f, -1.0 / 16, 1.0 / 16, xtol)
        assert abs(x - kink) <= xtol


def test_minimum_at_an_endpoint():
    x, fx = golden_section_minimize(lambda x: x, 0.0, 1.0, xtol=1e-8)
    assert 0.0 <= x <= 1e-8
    x, fx = golden_section_minimize(lambda x: -x, 0.0, 1.0, xtol=1e-8)
    assert 1.0 - 1e-8 <= x <= 1.0


def test_returned_value_is_f_at_returned_x():
    fs = (
        lambda x: (x - 0.3) ** 2,
        lambda x: abs(x - 0.1) + 0.2 * math.sin(7 * x),
        lambda x: math.exp(x),
    )
    for f in fs:
        x, fx = golden_section_minimize(f, -0.5, 0.5, xtol=1e-9)
        assert fx == f(x)


def test_argument_validation():
    with pytest.raises(ValueError):
        golden_section_minimize(lambda x: x, 1.0, 1.0)
    with pytest.raises(ValueError):
        golden_section_minimize(lambda x: x, 0.0, 1.0, xtol=0.0)


def _edges(record, spectrum, count, minimize=golden_section_minimize):
    return record.extended(spectrum, count, 1e-9, minimize=minimize).band_intervals


def test_refine_band_edge_wraps_the_period_and_keeps_the_grid_value():
    # maximum just past the +1/2 endpoint (theta = 0.51, i.e. -0.49), minimum at 0.01
    def band(t):
        assert -0.5 <= t <= 0.5
        return np.array([math.cos(2.0 * math.pi * (t - 0.51))])

    record = BlochBands.on_grid(band, theta_grid(17))
    column = record.table[:, 0]
    lo, hi = _edges(record, band, 1)[0]
    assert abs(lo - (-1.0)) < 1e-14
    assert abs(hi - 1.0) < 1e-14
    # a search that finds nothing better leaves the grid extremum
    flat = _edges(record, lambda t: np.array([5.0]), 1)[0, 0]
    assert flat == float(column.min())


def test_bloch_bands_solves_each_phase_once_and_refines_every_edge():
    # two bands with off-grid extrema; a third eigenvalue is left out by the count
    def spectrum(t):
        solves.append(t)
        c = math.cos(2.0 * math.pi * (t - 0.1))
        return np.array([-c, 3.0 + c, 10.0])

    solves = []
    grid = theta_grid(9)
    record = BlochBands.on_grid(spectrum, grid)
    assert solves == list(grid) and record.count_below(5.0) == 2
    # a search that never beats the grid value leaves the grid extrema
    unrefined = record.extended(spectrum, 2, 1e-9, minimize=lambda f, a, b, xtol: (a, math.inf))
    bands = unrefined.bands
    assert bands.shape == (9, 2)
    assert np.array_equal(unrefined.band_intervals, np.column_stack([bands.min(axis=0), bands.max(axis=0)]))
    refined = _edges(record, spectrum, 2)
    assert np.max(np.abs(refined - [[-1.0, 1.0], [2.0, 4.0]])) < 1e-14
    for count in (7, 8, 10):
        with pytest.raises(ValueError):
            theta_grid(count)


def test_extending_a_record_solves_only_the_edges_it_lacks():
    work = {"grid_solves": 0, "searches": 0}
    inside = []

    def spectrum(t):
        work["grid_solves"] += not inside
        c = math.cos(2.0 * math.pi * (t - 0.1))
        return np.array([-c, 3.0 + c, 6.0 - c])

    def search(*args):
        work["searches"] += 1
        inside.append(True)
        try:
            return golden_section_minimize(*args)
        finally:
            inside.pop()

    record = BlochBands.on_grid(spectrum, theta_grid(9))
    assert work == {"grid_solves": 9, "searches": 0}
    one = record.extended(spectrum, 1, 1e-9, minimize=search)
    assert work == {"grid_solves": 9, "searches": 2}
    # the held band is kept as it is; only the two new bands are searched
    three = one.extended(spectrum, 5, 1e-9, minimize=search)
    assert work == {"grid_solves": 9, "searches": 6}
    assert three.band_count == 3 and np.array_equal(three.band_intervals[:1], one.band_intervals)
    # a count the record already holds solves nothing
    two = three.extended(spectrum, 2, 1e-9, minimize=search)
    assert work == {"grid_solves": 9, "searches": 6}
    assert np.array_equal(two.band_intervals, three.band_intervals[:2])
    assert two.table is record.table and two.theta_grid is record.theta_grid
    assert not any(a.flags.writeable for a in (two.theta_grid, two.table, two.band_intervals))


def test_gap_report_measures_from_the_band_bottom():
    report = gap_report([(3.0, 4.0), (1.0, 2.0), (2.0, 2.05)], 0.0, 5.0, 0.1)
    assert report.gaps == ((2.05, 3.0), (4.0, 5.0))
    assert report.lower == 1.0 and report.count == 2
    assert report.band_intervals == ((3.0, 4.0), (1.0, 2.0), (2.0, 2.05))
    # hairline gaps are dropped; without bands the floor is the bottom
    assert gap_report([(1.0, 2.0), (2.05, 3.0)], 0.0, 3.0, 0.1).gaps == ()
    assert gap_report([], 0.5, 5.0, 0.1).gaps == ((0.5, 5.0),)
