"""Hill operator: Fourier solver vs Mathieu characteristic values and an
independent finite-difference discretization."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import mathieu_a, mathieu_b

from channel_spectra import (
    SeparableFourierPotential,
    derive_params,
    fd_hill_eigenvalues,
    fd_hill_richardson,
    h00_gaps,
    hill_bands,
    hill_matrix,
    hill_spectrum,
)
from channel_spectra.fiber import hill_block
from channel_spectra.hermite import project_potential
from channel_spectra.numutil import merge_intervals
from channel_spectra.schema import ConfigError

# -d^2/dx^2 + 2 cos x maps onto the Mathieu equation with q = 4 under
# x = 2z: v'' + (4E - 8 cos 2z) v = 0, so E = (characteristic value)/4.
# Periodic eigenvalues (theta = 0) come from the pi-periodic characteristic
# values a_0, a_2, b_2, a_4, b_4; anti-periodic ones (theta = 1/2) from
# a_1, b_1, a_3, b_3, a_5, b_5.
_Q = 4.0
_TWO_COS = {-1: 1.0, 0: 0.0, 1: 1.0}


def _mathieu_periodic(count=5):
    vals = [mathieu_a(0, _Q)]
    for k in (2, 4, 6):
        vals += [mathieu_b(k, _Q), mathieu_a(k, _Q)]
    return np.sort(np.array(vals) / 4.0)[:count]


def _mathieu_antiperiodic(count=5):
    vals = []
    for k in (1, 3, 5):
        vals += [mathieu_a(k, _Q), mathieu_b(k, _Q)]
    return np.sort(np.array(vals) / 4.0)[:count]


def test_fourier_solver_matches_mathieu_periodic():
    ev = hill_spectrum(_TWO_COS, theta=0.0, m_max=32, count=5)
    assert np.max(np.abs(ev - _mathieu_periodic())) < 1e-10


def test_fourier_solver_matches_mathieu_antiperiodic():
    ev = hill_spectrum(_TWO_COS, theta=0.5, m_max=32, count=5)
    assert np.max(np.abs(ev - _mathieu_antiperiodic())) < 1e-10


def test_fd_oracle_matches_mathieu():
    ev = fd_hill_richardson(lambda x: 2.0 * np.cos(x), 0.0, count=5, n_points=1024)
    assert np.max(np.abs(ev - _mathieu_periodic())) < 1e-6


@pytest.mark.parametrize("theta", [0.0, 0.25, 0.5])
def test_fd_oracle_matches_fourier_solver(theta):
    fourier = hill_spectrum(_TWO_COS, theta, m_max=32, count=5)
    fd = fd_hill_richardson(lambda x: 2.0 * np.cos(x), theta, count=5, n_points=512)
    assert np.max(np.abs(fourier - fd)) < 1e-4


def test_fd_comparison_evaluates_v_from_its_pairs():
    # diagnostics compares the projected 2 cos x, whose pairs evaluate to
    # 2 cos x bit for bit, so its numbers are those of the closed form
    from channel_spectra.channel import _fourier_eval
    from channel_spectra.hill import fd_comparison

    p = derive_params(3.0, 4.0)
    pairs = project_potential(SeparableFourierPotential({1: 1.0, -1: 1.0}), p, nmax=0).diag_coeffs(0)
    x = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    assert np.array_equal(_fourier_eval(pairs, x, np.zeros_like(x)), 2.0 * np.cos(x))
    [check] = fd_comparison(pairs, (0.25,), 32, 1024)
    assert check["fourier"] == list(hill_spectrum(pairs, 0.25, m_max=32, count=5))
    assert check["finite_difference"] == list(fd_hill_richardson(lambda t: 2.0 * np.cos(t), 0.25, 5, 1024))
    assert check["max_abs_diff"] == max(abs(a - b) for a, b in zip(check["fourier"], check["finite_difference"]))


def test_fd_oracle_is_deterministic():
    a = fd_hill_eigenvalues(lambda x: np.cos(x), 0.3, n_points=256, count=4)
    b = fd_hill_eigenvalues(lambda x: np.cos(x), 0.3, n_points=256, count=4)
    assert np.array_equal(a, b)


def test_fd_matrix_is_the_twisted_central_difference_matrix():
    n, theta = 64, 0.3
    h = 2.0 * math.pi / n
    x = h * np.arange(n)
    v = np.cos(x) + 0.5 * np.sin(2.0 * x)
    dense = np.diag((2.0 / h**2 + v).astype(complex))
    dense -= np.diag(np.ones(n - 1), 1) / h**2 + np.diag(np.ones(n - 1), -1) / h**2
    dense[n - 1, 0] = -np.exp(2j * math.pi * theta) / h**2
    dense[0, n - 1] = -np.exp(-2j * math.pi * theta) / h**2
    want = np.linalg.eigvalsh(dense)[:4]
    got = fd_hill_eigenvalues(lambda t: np.cos(t) + 0.5 * np.sin(2.0 * t), theta, n_points=n, count=4)
    assert np.max(np.abs(got - want)) < 1e-10


@pytest.mark.parametrize("n_points", [65, 1025])
def test_richardson_refuses_an_odd_grid(n_points):
    # (4 E_h - E_2h) / 3 needs a step ratio of exactly 2: at n = 1025 the
    # error against the Fourier solve was 2.2e-7, against 1.2e-9 at n = 1024
    with pytest.raises(ValueError, match="even"):
        fd_hill_richardson(lambda x: 2.0 * np.cos(x), 0.25, count=3, n_points=n_points)


def test_fd_oracle_rejects_tiny_grid():
    with pytest.raises(ValueError):
        fd_hill_eigenvalues(lambda x: 0.0 * x, 0.0, n_points=4, count=1)
    # the grid must hold twice the Lanczos basis, max(2 count + 1, 20) vectors
    with pytest.raises(ValueError, match="at least 40 grid points"):
        fd_hill_eigenvalues(lambda x: 0.0 * x, 0.0, n_points=38, count=5)
    with pytest.raises(ValueError, match="at least 46 grid points"):
        fd_hill_eigenvalues(lambda x: 0.0 * x, 0.0, n_points=44, count=11)


@pytest.mark.parametrize("count", [3, 5])
def test_fd_oracle_is_deterministic_on_a_degenerate_spectrum_at_its_floor(count):
    # V constant at theta = 0: the start vector is an eigenvector; on 8 and
    # 12 points repeated calls differed, and 40 is the smallest grid allowed
    calls = [fd_hill_eigenvalues(lambda x: np.full_like(x, 1.5), 0.0, n_points=40, count=count) for _ in range(4)]
    assert all(np.array_equal(c, calls[0]) for c in calls)
    assert abs(calls[0][0] - 1.5) < 1e-12


def test_free_hill_spectrum_is_exact():
    # zero potential: the matrix is diagonal with entries (m + theta)^2
    theta = 0.25
    ev = hill_spectrum({}, theta, m_max=10)
    exact = np.sort((np.arange(-10, 11) + theta) ** 2)
    assert np.max(np.abs(ev - exact)) < 1e-12


def test_constant_shift():
    ev0 = hill_spectrum(_TWO_COS, 0.2, m_max=24, count=4)
    shifted = dict(_TWO_COS)
    shifted[0] = 7.0
    ev7 = hill_spectrum(shifted, 0.2, m_max=24, count=4)
    assert np.max(np.abs(ev7 - ev0 - 7.0)) < 1e-10


def test_hill_matrix_layout_and_theta_validation():
    mat = hill_matrix({1: 0.5, -1: 0.5}, 0.1, m_max=2)
    assert mat.shape == (5, 5)
    assert abs(mat[0, 0] - (-2 + 0.1) ** 2) < 1e-14
    assert abs(mat[0, 1] - 0.5) < 1e-14
    assert abs(mat[0, 2]) == 0.0
    with pytest.raises(ValueError):
        hill_matrix({}, 0.6)


def test_hill_matrix_rejects_non_hermitian_coeffs():
    with pytest.raises(ValueError):
        hill_matrix({1: 1.0}, 0.0)  # missing the conjugate partner at k = -1
    with pytest.raises(ValueError):
        hill_matrix({1: 1.0 + 0.5j, -1: 1.0 + 0.5j}, 0.0)


def test_band_edges_sit_at_symmetric_phases():
    hb = hill_bands(_TWO_COS, m_max=32, theta_count=17, band_count=5)
    eps0 = _mathieu_periodic()
    epsh = _mathieu_antiperiodic()
    for j in range(5):
        lo, hi = sorted((eps0[j], epsh[j]))
        assert abs(hb.band_intervals[j, 0] - lo) < 1e-8
        assert abs(hb.band_intervals[j, 1] - hi) < 1e-8


def test_hill_bands_validation():
    with pytest.raises(ValueError):
        hill_bands(_TWO_COS, theta_count=16)
    with pytest.raises(ValueError):
        hill_bands(_TWO_COS, theta_count=7)


def test_union_intervals_merges_overlaps():
    hb = hill_bands({}, m_max=8, theta_count=9, band_count=4)
    # free bands [j^2/4-ish] touch; the union collapses to one interval from 0
    merged = merge_intervals(hb.band_intervals)
    assert merged[0][0] < 1e-10
    assert len(merged) == 1


def test_h00_gaps_match_mathieu_gap_edges():
    p = derive_params(3.0, 4.0)
    spec = SeparableFourierPotential.from_cosines({1: 2.0})
    k0 = hill_bands(project_potential(spec, p, nmax=0, mfourier=64).diag_coeffs(0), m_max=32, theta_count=17)
    report = h00_gaps(p, k0, ceiling=p.alpha + 5.0)
    eps0 = _mathieu_periodic()
    epsh = _mathieu_antiperiodic()
    expected = []
    for j in range(4):
        lo = max(eps0[j], epsh[j])
        hi = min(eps0[j + 1], epsh[j + 1])
        expected.append((p.alpha + lo, p.alpha + hi))
    assert report.count == 4
    for (glo, ghi), (elo, ehi) in zip(report.gaps, expected):
        assert abs(glo - elo) < 1e-6
        assert abs(ghi - ehi) < 1e-6
    assert abs(report.lower - (p.alpha + eps0[0])) < 1e-6
    assert math.isclose(report.ceiling, p.alpha + 5.0)


def test_h00_gaps_of_a_shifted_v_are_shifted():
    # a constant c_0 moves K and its floor past the window alike, so the
    # window check reads c_0 itself: with -|c_0| in the floor, a window of 6
    # under V + 40 would be refused for the ceiling that V passes
    p = derive_params(3.0, 4.0)
    gaps = [
        h00_gaps(p, hill_bands({0: c0, 1: 1.0, -1: 1.0}, m_max=6, theta_count=9), p.alpha + c0 + 5.0).gaps
        for c0 in (0.0, 40.0)
    ]
    assert len(gaps[0]) == 4
    assert np.max(np.abs(np.array(gaps[1]) - 40.0 - np.array(gaps[0]))) < 1e-9


def _loop_hill_matrix(coeffs, theta, m_max):
    """Entry-by-entry reference: c_{m_i - m_j} plus (m + theta)^2 on the diagonal."""
    ms = range(-m_max, m_max + 1)
    h = np.array([[complex(coeffs.get(mi - mj, 0.0)) for mj in ms] for mi in ms])
    h[np.diag_indices(len(ms))] += (np.arange(-m_max, m_max + 1) + theta) ** 2
    return h


@pytest.mark.parametrize(
    "coeffs",
    [_TWO_COS, {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 3: 0.1j, -3: -0.1j, 0: 0.7}, {9: 1.0, -9: 1.0}],
)
def test_hill_matrix_matches_entrywise_reference(coeffs):
    for theta in (0.0, 0.2, -0.5):
        assert np.array_equal(hill_matrix(coeffs, theta, m_max=4), _loop_hill_matrix(coeffs, theta, 4))
    # the (k, c_k) pairs and the mapping k -> c_k are one potential
    assert np.array_equal(hill_matrix(list(coeffs.items()), 0.2, m_max=4), hill_matrix(coeffs, 0.2, m_max=4))


@pytest.mark.parametrize(
    "coeffs",
    [{1: 0.3, -1: 0.3, 2: 0.1, -2: 0.1}, {1: 0.15, -1: 0.15, 2: -0.05j, -2: 0.05j}, {}],
    ids=["even", "complex", "zero"],
)
def test_refinement_solves_per_extremum(monkeypatch, coeffs):
    from channel_spectra import hill

    work = _count_hill_work(monkeypatch, 8)
    hb = hill.hill_bands(coeffs, m_max=8, theta_count=17, band_count=5)
    assert hb.band_intervals.shape == (5, 2)
    # V is real, so each band is monotone in |theta| on [0, 1/2] (Reed-Simon
    # IV, Thm XIII.89): its edges are the grid values at both ends, and the
    # nine phases theta >= 0 of the folded grid are all that is solved
    assert work["grid_solves"] == 9
    ends = hb.table[[8, 16], :5]
    assert np.array_equal(hb.band_intervals, np.column_stack([ends.min(axis=0), ends.max(axis=0)]))


def _count_hill_work(monkeypatch, *m_maxes):
    """Counts Hill solves, the eigensolves of 2 m_max + 1 rows for the given
    m_max, and records whether each asked for eigenvectors.  No Hill path
    searches an edge, so every one of them is a grid solve or a check of the
    Fourier window, which solves in the window itself; the channel fibers of
    these tests have an even number of rows."""
    from channel_spectra import fiber

    work = {"grid_solves": 0, "vectors": []}
    rows = {2 * m + 1 for m in m_maxes}
    solve = fiber.eigenvalues_fiber

    def counted_solve(mat, count=None, vectors=False):
        if mat.shape[0] in rows:
            work["grid_solves"] += 1
            work["vectors"].append(vectors)
        return solve(mat, count, vectors)

    monkeypatch.setattr(fiber, "eigenvalues_fiber", counted_solve)
    return work


def test_hill_command_solves_each_phase_and_searches_each_extremum_once(monkeypatch, tmp_path):
    from channel_spectra.cli import main

    work = _count_hill_work(monkeypatch, 32)
    assert main(["hill", "--set", "theta_count=9", "--out", str(tmp_path)]) == 0
    # the grid folds: the five phases theta >= 0 are solved once each, and
    # the window check solves theta = 0 and 1/2 once more, with eigenvectors;
    # band_count = 8 bands, and the bands below 3 alpha beyond them, all have
    # their edges at theta = 0 and 1/2, so nothing is searched
    assert work["grid_solves"] == 7


def test_sweep_omega_solves_each_phase_and_searches_each_extremum_once(monkeypatch):
    from channel_spectra import gap_persistence_sweep

    work = _count_hill_work(monkeypatch, 8)
    spec = SeparableFourierPotential.from_cosines({1: 1.0})
    report = gap_persistence_sweep(3.0, [4.0], spec, target_gap_count=2, theta_count=9, hill_m_max=8)
    assert report.entries[0].reference.count >= 2
    assert work["grid_solves"] == 7


def test_hill_matrix_is_a_quadratic_pencil_in_theta():
    coeffs = {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1}
    theta, h = -0.31, 0.57
    step = hill_matrix(coeffs, theta + h, 6) - hill_matrix(coeffs, theta, 6)
    slope = hill_block(coeffs, 6).slope(theta, np.eye(13))
    assert np.max(np.abs(step - h * slope - h * h * np.eye(13))) < 1e-13


_PART = st.floats(-1.0, 1.0)
# h00_gaps refuses a window whose residual estimate at theta = 0 and 1/2
# exceeds 1e-6 alpha: 5e-6 here.  A mismatch with the scan above 1e-10 comes
# from a band that turns inside (0, 1/2), an artefact of a window too small
# for V, not of the operator: such windows were 5.1e-4 or more off a wider
# one, an error the estimate bounds
_H00_PARAMS = derive_params(3.0, 4.0)


@settings(max_examples=60, deadline=None)
@given(
    c0=st.floats(-30.0, 5.0),
    harmonics=st.lists(st.tuples(_PART, _PART), min_size=3, max_size=3),
    m_max=st.integers(6, 16),
    theta_count=st.sampled_from([9, 17]),
    band_count=st.integers(1, 12),
)
# m_max = 6 does not resolve this V: band 2 turns at theta = 0.497, 1.1e-6
# below its value at 1/2, and a window of 48 moves it by 5.4e-4
@example(c0=0.0, harmonics=[(0.0, -1.0), (0.0, -1.0), (1.0, 1.0)], m_max=6, theta_count=9, band_count=2)
def test_hill_intervals_are_the_extrema_of_a_dense_theta_scan(c0, harmonics, m_max, theta_count, band_count):
    # V is real, so each band is monotone in |theta| on [0, 1/2] (Reed-Simon
    # IV, Thm XIII.89) and takes its extrema at theta = 0 and 1/2, which the
    # grid holds.  A window that resolves V keeps that to rounding; one that
    # does not is refused by h00_gaps at a ceiling over the compared bands
    coeffs = {0: c0}
    for k, (re, im) in enumerate(harmonics, start=1):
        coeffs[k], coeffs[-k] = complex(re, im), complex(re, -im)
    hb = hill_bands(coeffs, m_max=m_max, theta_count=theta_count, band_count=band_count)
    n = min(band_count, m_max)
    ceiling = _H00_PARAMS.alpha + float(np.max(hb.table[[len(hb.table) // 2, -1], :n]))
    try:
        h00_gaps(_H00_PARAMS, hb, ceiling)
    except ConfigError as exc:
        assert "does not resolve V" in str(exc)
        return
    scan = np.array([hill_spectrum(coeffs, t, m_max)[:n] for t in np.linspace(-0.5, 0.5, 401)])
    expected = np.column_stack([scan.min(axis=0), scan.max(axis=0)])
    assert np.max(np.abs(hb.band_intervals[:n] - expected)) < 1e-10


def test_no_hill_request_runs_a_reduced_pencil_and_only_the_window_check_keeps_eigenvectors(monkeypatch, tmp_path):
    from channel_spectra import gap_persistence_sweep, numutil
    from channel_spectra.cli import main

    def refuse(*args, **kwargs):
        raise AssertionError("a Hill band edge was searched on a reduced pencil")

    monkeypatch.setattr(numutil, "_ReducedPencil", refuse)
    # the hill command's default window, and the sweep's
    vectors = _count_hill_work(monkeypatch, 32, 8)["vectors"]
    # band_count = 2: hill_gaps.csv reads more bands than hill_intervals.csv
    assert main(["hill", "--set", "theta_count=9", "--set", "band_count=2", "--out", str(tmp_path / "o")]) == 0
    # the unrefined 2-D bands search nothing either, so every pencil would be Hill's
    spec = SeparableFourierPotential.from_cosines({1: 1.0})
    gap_persistence_sweep(3.0, [4.0], spec, target_gap_count=2, theta_count=9, hill_m_max=8, refine=False)
    # per request, five grid phases for the eigenvalues alone, then the
    # window check's theta = 0 and 1/2, with the eigenvectors its residuals read
    assert vectors == 2 * ([False] * 5 + [True] * 2)


_UNIT = st.floats(-math.sqrt(0.5), math.sqrt(0.5))


@settings(max_examples=60, deadline=None)
@given(
    c0=st.floats(-1.0, 1.0),
    harmonics=st.lists(st.tuples(_UNIT, _UNIT), min_size=1, max_size=3),
    m_max=st.integers(6, 16),
    theta=st.floats(-0.5, 0.5),
    depth=st.floats(0.05, 0.95),
)
@example(c0=0.0, harmonics=[(1.0 / math.sqrt(2.0), 0.0)], m_max=6, theta=0.5, depth=0.95)
def test_the_hill_residual_estimate_bounds_the_window_error(c0, harmonics, m_max, theta, depth):
    from channel_spectra.fiber import truncation_check

    # V with |c_k| <= 1; the window's floor (m_max + 1/2)^2 + c_0 - sum_{k != 0}
    # |c_k| is h00_gaps's, and the ceiling lies a fraction ``depth`` of the way up to it
    coeffs = {0: c0}
    for k, (re, im) in enumerate(harmonics, start=1):
        coeffs[k], coeffs[-k] = complex(re, im), complex(re, -im)
    floor = (m_max + 0.5) ** 2 + c0 - sum(abs(c) for k, c in coeffs.items() if k)
    top = depth * floor
    block = hill_block(coeffs, m_max)
    vals, vecs = block.solve(theta, vectors=True)
    count = int(np.count_nonzero(vals <= top))
    solved = [(theta, vals[:count], vecs[:, :count], 0.0)]
    [(_, levels, window, _)], worst = truncation_check(block, (math.inf, floor), top, solved)
    ref = hill_spectrum(coeffs, theta, m_max=48, count=count)
    # min-max: a window only raises eigenvalues; the estimate bounds by how
    # much (it was at least twice the error in 2000 draws), up to the rounding
    # of the reference solve, 8.1 eps ||K|| at most in those draws, ||K|| <= 48.5^2 + 7
    err = vals[:count] - ref
    rounding = 32.0 * np.finfo(float).eps * (48.5**2 + 7.0)
    assert levels == 0.0 and worst == window
    assert np.all(err >= -rounding)
    assert np.all(err <= window + rounding)
