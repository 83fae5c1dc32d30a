"""Brent's bounded minimisation, the shared Bloch band driver and gap reports."""

import math

import numpy as np
import pytest

from channel_spectra.numutil import (
    BlochBands,
    ThetaPencil,
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


def _shifted_hill(delta, coupling=0.0, m_max=3):
    """The Fourier matrix of -d^2 + 2 coupling cos x with its Bloch phase
    shifted by delta, as the theta-pencil (A0, A1) of A0 + theta A1 + theta^2:
    diag (m + theta - delta)^2 plus coupling on the first off-diagonals.  Its
    bands are not even in theta unless delta is in Z/2."""
    m = np.arange(-m_max, m_max + 1) - delta
    a0 = np.diag(m**2) + coupling * (np.eye(m.size, k=1) + np.eye(m.size, k=-1))
    return a0, np.diag(2.0 * m)


def _pencil(a0, a1, folds=False, solves=None):
    """The ThetaPencil a0 + theta a1 + theta^2 I, which records the phase of
    every full solve in ``solves``."""

    def matrix(t):
        assert -0.5 <= t <= 0.5
        return a0 + t * a1 + t * t * np.eye(len(a0))

    def solve(t, count=None, vectors=False):
        if solves is not None:
            solves.append(t)
        vals, vecs = np.linalg.eigh(matrix(t))
        return (vals[:count], vecs[:, :count]) if vectors else vals[:count]

    return ThetaPencil(
        solve=solve, matrix=matrix, slope=lambda t: a1 + 2.0 * t * np.eye(len(a0)), kinetic=1.0, folds=folds
    )


def _assert_matches_a_scan(intervals, pencil, points=20001):
    """The band intervals reach at least as far as a dense theta scan, and
    a kink between two scan phases takes the scan at most slope / points
    further."""
    table = np.array([pencil.solve(t)[: len(intervals)] for t in np.linspace(-0.5, 0.5, points)])
    lo, hi = intervals.T
    assert np.all(lo <= table.min(axis=0) + 1e-10) and np.all(hi >= table.max(axis=0) - 1e-10)
    assert np.all(table.min(axis=0) - lo < 1e-3) and np.all(hi - table.max(axis=0) < 1e-3)


def test_refine_band_edge_wraps_the_period_and_keeps_the_grid_value():
    # band 0 of the uncoupled pencil is min_m (m + theta - 0.51)^2: its minimum
    # 0 sits just past the +1/2 endpoint (theta = -0.49), and its maximum 1/4
    # is the crossing at theta = 0.01, a kink between two grid phases
    pencil = _pencil(*_shifted_hill(0.51))
    record = BlochBands.on_grid(pencil, theta_grid(17))
    lo, hi = record.extended(pencil, 1, 1e-9, minimize=golden_section_minimize).band_intervals[0]
    assert abs(lo) < 1e-14
    # a kink is located to within xtol, at slope 1
    assert abs(hi - 0.25) <= 2e-9
    # a search that finds nothing better leaves the grid extrema
    column = record.table[:, 0]
    kept = record.extended(pencil, 1, 1e-9, minimize=lambda f, a, b, xtol: (a, math.inf)).band_intervals[0]
    assert kept.tolist() == [column.min(), column.max()]


def test_bloch_bands_solves_each_phase_once_and_refines_every_edge():
    # two coupled bands with off-grid extrema (delta = 0.1 moves them off the
    # symmetric phases); a third band is left out by the count
    solves = []
    pencil = _pencil(*_shifted_hill(0.1, coupling=0.2), solves=solves)
    grid = theta_grid(9)
    record = BlochBands.on_grid(pencil, grid)
    assert solves == list(grid)
    assert record.table.shape == (9, 7) and record.count_below(1.0) == 2
    refined = record.extended(pencil, 2, 1e-9, minimize=golden_section_minimize)
    assert refined.bands.shape == (9, 2)
    # the grid extrema lie within the refined edges, and off the symmetric
    # phases they reach further than the rows at theta = 0 and +-1/2 alone
    coarse = record.with_grid_extrema(2).band_intervals
    ends = record.table[[0, 4, 8], :2]
    assert np.all(refined.band_intervals[:, 0] <= coarse[:, 0])
    assert np.all(coarse[:, 1] <= refined.band_intervals[:, 1])
    assert np.any(coarse[:, 0] < ends.min(axis=0)) or np.any(coarse[:, 1] > ends.max(axis=0))
    # one full solve at most per edge, to certify it
    assert len(solves) - len(grid) <= 4
    _assert_matches_a_scan(refined.band_intervals, pencil)
    arrays = (refined.theta_grid, refined.table, refined.band_intervals, *refined.vectors)
    assert not any(a.flags.writeable for a in arrays)
    for count in (7, 8, 10):
        with pytest.raises(ValueError):
            theta_grid(count)


def test_a_folded_grid_solves_only_the_phases_from_zero():
    # the unshifted pencil is even in theta: its bands' edges sit at 0 and 1/2
    solves, searched = [], []
    pencil = _pencil(*_shifted_hill(0.0, coupling=0.2), folds=True, solves=solves)
    grid = theta_grid(9)
    record = BlochBands.on_grid(pencil, grid)
    assert solves == list(grid[4:]) and len(record.vectors) == 5
    assert np.array_equal(record.table, record.table[::-1])

    def search(f, a, b, xtol):
        searched.append((a, b))
        return golden_section_minimize(f, a, b, xtol)

    refined = record.extended(pencil, 5, 1e-9, minimize=search)
    # zero slopes with curvatures of the right sign, or kinks, at both ends
    assert searched == [] and len(solves) == 5
    ends = record.table[[4, 8], :5]
    assert np.array_equal(refined.band_intervals, np.column_stack([ends.min(axis=0), ends.max(axis=0)]))
    _assert_matches_a_scan(refined.band_intervals, pencil)


def test_gap_report_measures_from_the_band_bottom():
    report = gap_report([(3.0, 4.0), (1.0, 2.0), (2.0, 2.05)], 0.0, 5.0, 0.1)
    assert report.gaps == ((2.05, 3.0), (4.0, 5.0))
    assert report.lower == 1.0 and report.count == 2
    assert report.band_intervals == ((3.0, 4.0), (1.0, 2.0), (2.0, 2.05))
    # hairline gaps are dropped; without bands the floor is the bottom
    assert gap_report([(1.0, 2.0), (2.05, 3.0)], 0.0, 3.0, 0.1).gaps == ()
    assert gap_report([], 0.5, 5.0, 0.1).gaps == ((0.5, 5.0),)
