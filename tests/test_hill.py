"""Hill operator: Fourier solver vs Mathieu characteristic values and an
independent finite-difference discretization."""

import math

import numpy as np
import pytest
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


def test_fd_oracle_is_deterministic():
    a = fd_hill_eigenvalues(lambda x: np.cos(x), 0.3, n_points=256, count=4)
    b = fd_hill_eigenvalues(lambda x: np.cos(x), 0.3, n_points=256, count=4)
    assert np.array_equal(a, b)


def test_fd_oracle_rejects_tiny_grid():
    with pytest.raises(ValueError):
        fd_hill_eigenvalues(lambda x: 0.0 * x, 0.0, n_points=4, count=1)


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
    mat = hill_matrix({1: 0.5, -1: 0.5}, 0.1, m_max=2).entries
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


def test_hill_matrix_accepts_array_coeffs():
    arr = np.array([1.0, 0.0, 1.0])  # k in [-1, 1]
    a = hill_matrix(arr, 0.2, m_max=4).entries
    b = hill_matrix(_TWO_COS, 0.2, m_max=4).entries
    assert np.array_equal(a, b)
    with pytest.raises(ValueError):
        hill_matrix(np.array([1.0, 2.0]), 0.0)  # even length has no center


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
        assert np.array_equal(hill_matrix(coeffs, theta, m_max=4).entries, _loop_hill_matrix(coeffs, theta, 4))
    arr = np.array([coeffs.get(k, 0.0) for k in range(-12, 13)], dtype=complex)
    assert np.array_equal(hill_matrix(arr, 0.2, m_max=4).entries, hill_matrix(coeffs, 0.2, m_max=4).entries)


@pytest.mark.parametrize(
    "coeffs",
    [{1: 0.3, -1: 0.3, 2: 0.1, -2: 0.1}, {1: 0.15, -1: 0.15, 2: -0.05j, -2: 0.05j}, {}],
    ids=["even", "complex", "zero"],
)
def test_refinement_solves_per_extremum(monkeypatch, coeffs):
    from channel_spectra import hill

    counts = {"searches": 0, "solves": 0}
    inside = []
    solve, search = hill.hill_spectrum, hill.golden_section_minimize

    def counted_solve(*args, **kwargs):
        counts["solves"] += bool(inside)
        return solve(*args, **kwargs)

    def counted_search(*args, **kwargs):
        counts["searches"] += 1
        inside.append(True)
        try:
            return search(*args, **kwargs)
        finally:
            inside.pop()

    monkeypatch.setattr(hill, "hill_spectrum", counted_solve)
    monkeypatch.setattr(hill, "golden_section_minimize", counted_search)
    hb = hill.hill_bands(coeffs, m_max=8, theta_count=17, band_count=5)
    assert hb.band_intervals.shape == (5, 2)
    # V is real, so each band is monotone in |theta| on [0, 1/2] (Reed-Simon
    # IV, Thm XIII.89): zero slopes with curvatures of the right sign, or a
    # degenerate kink, at both ends, and no grid interval is searched
    assert counts["searches"] == 0
    assert counts["solves"] <= 16 * counts["searches"]
    ends = hb.table[[8, 16], :5]
    assert np.array_equal(hb.band_intervals, np.column_stack([ends.min(axis=0), ends.max(axis=0)]))


def _count_hill_work(monkeypatch):
    """Counts Hill solves outside a search, and records each search by its
    bracket and the first value it reads, which name one band extremum."""
    from channel_spectra import hill

    work = {"grid_solves": 0, "searches": []}
    inside = []
    solve, search = hill.hill_spectrum, hill.golden_section_minimize

    def counted_solve(*args, **kwargs):
        work["grid_solves"] += not inside
        return solve(*args, **kwargs)

    def counted_search(f, a, b, *args):
        first = []

        def recorded(t):
            first.append(f(t))
            return first[-1]

        inside.append(True)
        try:
            return search(recorded, a, b, *args)
        finally:
            inside.pop()
            work["searches"].append((a, b, first[0]))

    monkeypatch.setattr(hill, "hill_spectrum", counted_solve)
    monkeypatch.setattr(hill, "golden_section_minimize", counted_search)
    return work


def test_hill_command_solves_each_phase_and_searches_each_extremum_once(monkeypatch, tmp_path):
    from channel_spectra.cli import main

    work = _count_hill_work(monkeypatch)
    assert main(["hill", "--set", "theta_count=9", "--out", str(tmp_path)]) == 0
    # the grid folds: the five phases theta >= 0 are solved once each
    assert work["grid_solves"] == 5
    # band_count = 8 bands, and the bands below 3 alpha beyond them, all with
    # their edges at theta = 0 and 1/2: nothing is searched
    assert work["searches"] == []


def test_sweep_omega_solves_each_phase_and_searches_each_extremum_once(monkeypatch):
    from channel_spectra import gap_persistence_sweep

    work = _count_hill_work(monkeypatch)
    spec = SeparableFourierPotential.from_cosines({1: 1.0})
    report = gap_persistence_sweep(3.0, [4.0], spec, target_gap_count=2, theta_count=9, hill_m_max=8)
    assert report.entries[0].reference.count >= 2
    assert work["grid_solves"] == 5
    assert len(set(work["searches"])) == len(work["searches"])


def test_hill_matrix_is_a_quadratic_pencil_in_theta():
    coeffs = {1: 0.3 + 0.2j, -1: 0.3 - 0.2j, 2: 0.1, -2: 0.1}
    theta, h = -0.31, 0.57
    step = hill_matrix(coeffs, theta + h, 6).entries - hill_matrix(coeffs, theta, 6).entries
    slope = hill_block(coeffs, 6).slope(theta).toarray()
    assert np.max(np.abs(step - h * slope - h * h * np.eye(13))) < 1e-13
