"""Band structure assembly, gap detection and the gap persistence sweep."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import channel_spectra
from channel_spectra import (
    BandStructure,
    ConstantProfile,
    FourierXPotential,
    TransverseProfilePotential,
    ZeroPotential,
    assemble_fiber,
    compute_bands,
    derive_params,
    detect_gaps,
    dominant_hermite_index,
    gap_persistence_sweep,
    project_potential,
)

_P34 = derive_params(3.0, 4.0)
_TWO_COS = FourierXPotential.from_cosines({1: 2.0})


def test_free_bands_match_exact_parabolas():
    bs = compute_bands(
        _P34,
        ZeroPotential(),
        theta_count=9,
        energy_ceiling=2.0 * _P34.alpha,
        n_hermite=12,
        refine=True,
    )
    assert bs.converged
    # sorted columns of the lowest Landau stripe whose minimum clears 2 alpha
    assert bs.band_count == 6
    for i, theta in enumerate(bs.theta_grid):
        exact = np.sort(
            [_P34.alpha + _P34.beta * (m + theta) ** 2 for m in range(-7, 8)]
        )
        assert np.max(np.abs(bs.bands[i] - exact[: bs.band_count])) < 1e-8
    assert abs(bs.spectrum_bottom - _P34.alpha) < 1e-10


def test_free_spectrum_has_no_gaps():
    bs = compute_bands(
        _P34,
        ZeroPotential(),
        theta_count=9,
        energy_ceiling=2.0 * _P34.alpha,
        n_hermite=12,
    )
    report = detect_gaps(bs)
    assert report.gaps == ()
    assert report.count == 0
    assert abs(report.lower - _P34.alpha) < 1e-10


def _synthetic_structure(intervals, ceiling):
    intervals = np.asarray(intervals, dtype=float)
    grid = np.linspace(-0.5, 0.5, 9)
    bands = np.linspace(intervals[:, 0], intervals[:, 1], 9)
    return BandStructure(
        params=derive_params(0.0, 1.0),
        theta_grid=grid,
        bands=bands,
        band_intervals=intervals,
        energy_ceiling=ceiling,
        n_hermite=4,
        m_max=2,
        converged=True,
    )

def test_detect_gaps_on_synthetic_intervals():
    report = detect_gaps(_synthetic_structure([[1.0, 2.0], [3.0, 4.0]], 4.0))
    assert report.gaps == ((2.0, 3.0),)
    assert report.widths == (1.0,)
    assert report.lower == 1.0


def test_detect_gaps_tolerance_filters_hairline_openings():
    structure = _synthetic_structure([[1.0, 2.0], [2.0 + 5e-9, 3.0]], 3.0)
    assert detect_gaps(structure).gaps == ()  # default tolerance 1e-6 * alpha
    assert detect_gaps(structure, gap_tolerance=1e-12).gaps == ((2.0, 2.0 + 5e-9),)


def test_periodic_potential_bands_are_not_flat():
    bs = compute_bands(
        _P34,
        _TWO_COS,
        theta_count=9,
        energy_ceiling=12.0,
        n_hermite=16,
        refine=False,
    )
    assert bs.converged
    assert np.all(bs.band_variations() > 1e-10)


def test_bounded_potential_moves_eigenvalues_by_at_most_its_sup():
    # Weyl: |lambda_j(H0 + W) - lambda_j(H0)| <= ||W||_inf fiberwise
    w0 = _TWO_COS.norm_estimates().w0
    assert w0 == 2.0
    proj_w = project_potential(_TWO_COS, _P34, nmax=15, mfourier=16)
    proj_0 = project_potential(ZeroPotential(), _P34, nmax=15, mfourier=16)
    for theta in (0.0, 0.3, -0.5):
        ev_w = scipy.linalg.eigvalsh(
            assemble_fiber(_P34, proj_w, theta, n_hermite=16, m_max=4).entries
        )
        ev_0 = scipy.linalg.eigvalsh(
            assemble_fiber(_P34, proj_0, theta, n_hermite=16, m_max=4).entries
        )
        assert np.max(np.abs(ev_w - ev_0)) <= w0 + 1e-9


def test_dominant_hermite_index_identifies_landau_stripe():
    p = derive_params(3.0, 10.0)
    proj = project_potential(_TWO_COS, p, nmax=19, mfourier=16)
    mat = assemble_fiber(p, proj, 0.2, n_hermite=20, m_max=4)
    vals, vecs = scipy.linalg.eigh(mat.entries)
    w0 = 2.0
    for j in np.nonzero(vals < 3.0 * p.alpha - w0)[0]:
        assert dominant_hermite_index(mat, vecs[:, j]) == 0
    j1 = int(np.argmin(np.abs(vals - 3.0 * p.alpha)))
    assert dominant_hermite_index(mat, vecs[:, j1]) == 1


def test_truncation_warning_when_cauchy_tolerance_unattainable():
    with pytest.warns(UserWarning, match="Cauchy"):
        bs = compute_bands(
            _P34,
            _TWO_COS,
            theta_count=9,
            energy_ceiling=_P34.alpha + 0.25,
            n_hermite=1,
            m_max=1,
            cauchy_tol=1e-18,
            refine=False,
        )
    assert not bs.converged
    assert any("m_max raised" in note for note in bs.notes)
    assert any("truncation raised" in note for note in bs.notes)


def test_theta_count_validation():
    with pytest.raises(ValueError):
        compute_bands(_P34, ZeroPotential(), theta_count=16)
    with pytest.raises(ValueError):
        compute_bands(_P34, ZeroPotential(), theta_count=7)


def test_sweep_without_gaps_reports_unmatched():
    report = gap_persistence_sweep(
        3.0, [4.0], ZeroPotential(), theta_count=9, n_hermite=16, refine=False
    )
    entry = report.entries[0]
    assert entry.full.count == 0
    assert entry.reference.count == 0
    assert entry.discrepancies == (math.inf,)
    assert not report.discrepancies_decreasing
    table = report.discrepancy_table()
    assert table.shape == (1, 1)


def test_sweep_constant_potential_shifts_bottom():
    spec = TransverseProfilePotential(ConstantProfile(1.0))
    report = gap_persistence_sweep(
        3.0, [4.0], spec, theta_count=9, n_hermite=16, refine=False
    )
    entry = report.entries[0]
    assert entry.converged
    assert entry.full.count == 0
    assert entry.reference.count == 0
    assert abs(entry.full.lower - (_P34.alpha + 1.0)) < 1e-6
    assert abs(entry.reference.lower - (_P34.alpha + 1.0)) < 1e-8
    assert abs(entry.alpha - _P34.alpha) < 1e-15


def test_sweep_validates_target_gap_count():
    with pytest.raises(ValueError):
        gap_persistence_sweep(3.0, [4.0], ZeroPotential(), target_gap_count=0)


_WEAK_COS = FourierXPotential.from_cosines({1: 0.3, 2: 0.1})
_NON_EVEN = FourierXPotential({1: 0.15, -1: 0.15, 2: -0.05j, -2: 0.05j})


@pytest.mark.parametrize("spec", [_WEAK_COS, _NON_EVEN, ZeroPotential()], ids=["even", "complex", "zero"])
def test_refinement_solves_per_extremum(monkeypatch, spec):
    from channel_spectra import bands

    counts = {"searches": 0, "solves": 0}
    inside = []
    solve, search = bands.eigenvalues_fiber, bands.golden_section_minimize

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

    monkeypatch.setattr(bands, "eigenvalues_fiber", counted_solve)
    monkeypatch.setattr(bands, "golden_section_minimize", counted_search)
    bs = compute_bands(
        _P34, spec, theta_count=17, energy_ceiling=_P34.alpha + 1.6 * _P34.beta, n_hermite=8
    )
    assert counts["searches"] == 2 * bs.band_count == 6
    assert counts["solves"] <= 16 * counts["searches"]


def test_free_band_edges_match_closed_form_at_coarse_xtol():
    bs = compute_bands(
        _P34, ZeroPotential(), theta_count=17, energy_ceiling=_P34.alpha + 3.0, n_hermite=8, xtol=1e-6
    )
    # lowest Landau level: band k spans alpha + beta [(k/2)^2, ((k+1)/2)^2]
    k = np.arange(bs.band_count)[:, None] + np.array([0.0, 1.0])
    exact = _P34.alpha + _P34.beta * (k / 2.0) ** 2
    assert bs.band_count == 5
    assert np.max(np.abs(bs.band_intervals - exact)) < 1e-6



@pytest.mark.parametrize("tol", ["-1.0", "0.0", "float('nan')"])
def test_non_positive_cauchy_tol_is_rejected_promptly(tol):
    # in a child process, so that a regression to the endless truncation
    # doubling fails on the timeout instead of stalling the suite
    src = str(Path(channel_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    script = (
        "from channel_spectra import ZeroPotential, compute_bands, derive_params\n"
        f"compute_bands(derive_params(3.0, 4.0), ZeroPotential(), n_hermite=8, cauchy_tol={tol})\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 1
    assert "ValueError: need cauchy_tol > 0" in proc.stderr
