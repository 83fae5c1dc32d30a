"""Brent's bounded minimisation, the shared Bloch band computation and gap reports."""

import math

import numpy as np
import pytest

from channel_spectra.numutil import (
    bloch_bands,
    gap_report,
    golden_section_minimize,
    refine_band_edge,
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


def test_refine_band_edge_wraps_the_period_and_keeps_the_grid_value():
    # maximum just past the +1/2 endpoint (theta = 0.51, i.e. -0.49), minimum at 0.01
    def band(t):
        assert -0.5 <= t <= 0.5
        return math.cos(2.0 * math.pi * (t - 0.51))

    grid = np.linspace(-0.5, 0.5, 17)
    column = np.array([band(t) for t in grid])
    lo = refine_band_edge(band, grid, column, 1.0, 1e-9, minimize=golden_section_minimize)
    assert abs(lo - (-1.0)) < 1e-14
    hi = refine_band_edge(band, grid, column, -1.0, 1e-9, minimize=golden_section_minimize)
    assert abs(hi - 1.0) < 1e-14
    # a search that finds nothing better leaves the grid extremum
    flat = refine_band_edge(lambda t: 5.0, grid, column, 1.0, 1e-9, minimize=golden_section_minimize)
    assert flat == float(column.min())


def test_bloch_bands_solves_each_phase_once_and_refines_every_edge():
    # two bands with off-grid extrema; a third eigenvalue is dropped by keep
    def spectrum(t):
        solves.append(t)
        c = math.cos(2.0 * math.pi * (t - 0.1))
        return np.array([-c, 3.0 + c, 10.0])

    solves = []
    grid = theta_grid(9)
    bands, intervals = bloch_bands(spectrum, grid, lambda table: 2, False, 1e-9, minimize=golden_section_minimize)
    assert solves == list(grid) and bands.shape == (9, 2)
    assert np.array_equal(intervals, np.column_stack([bands.min(axis=0), bands.max(axis=0)]))
    _, refined = bloch_bands(spectrum, grid, lambda table: 2, True, 1e-9, minimize=golden_section_minimize)
    assert np.max(np.abs(refined - [[-1.0, 1.0], [2.0, 4.0]])) < 1e-14
    for count in (7, 8, 10):
        with pytest.raises(ValueError):
            theta_grid(count)


def test_gap_report_measures_from_the_band_bottom():
    report = gap_report([(3.0, 4.0), (1.0, 2.0), (2.0, 2.05)], 0.0, 5.0, 0.1)
    assert report.gaps == ((2.05, 3.0), (4.0, 5.0))
    assert report.lower == 1.0 and report.count == 2
    assert report.band_intervals == ((3.0, 4.0), (1.0, 2.0), (2.0, 2.05))
    # hairline gaps are dropped; without bands the floor is the bottom
    assert gap_report([(1.0, 2.0), (2.05, 3.0)], 0.0, 3.0, 0.1).gaps == ()
    assert gap_report([], 0.5, 5.0, 0.1).gaps == ((0.5, 5.0),)
