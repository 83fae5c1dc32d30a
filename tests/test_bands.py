"""Band structure assembly, gap detection and the gap persistence sweep."""

import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg

import channel_spectra
from channel_spectra import (
    BandStructure,
    GapPersistenceReport,
    GapReport,
    GaussianProfile,
    PolynomialProfile,
    SeparableFourierPotential,
    ZeroPotential,
    assemble_fiber,
    compute_bands,
    derive_params,
    detect_gaps,
    eigenvalues_fiber,
    gap_persistence_sweep,
    project_potential,
)
from channel_spectra.bands import SweepEntry, _kinematic_m_cover
from channel_spectra.schema import ConfigError

_P34 = derive_params(3.0, 4.0)
_TWO_COS = SeparableFourierPotential.from_cosines({1: 2.0})


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
        table=bands,
        band_intervals=intervals,
        energy_ceiling=ceiling,
        n_hermite=4,
        m_max=2,
        converged=True,
    )

def test_detect_gaps_on_synthetic_intervals():
    report = detect_gaps(_synthetic_structure([[1.0, 2.0], [3.0, 4.0]], 4.0))
    assert report.gaps == ((2.0, 3.0),)
    assert tuple(hi - lo for lo, hi in report.gaps) == (1.0,)
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
    # max - min of each band over the grid
    assert np.all(bs.bands.max(axis=0) - bs.bands.min(axis=0) > 1e-10)


def test_bounded_potential_moves_eigenvalues_by_at_most_its_sup():
    # Weyl: |lambda_j(H0 + W) - lambda_j(H0)| <= ||W||_inf fiberwise
    w0 = _TWO_COS.norm_estimates().w0
    assert w0 == 2.0
    proj_w = project_potential(_TWO_COS, _P34, nmax=15, mfourier=16)
    proj_0 = project_potential(ZeroPotential(), _P34, nmax=15, mfourier=16)
    for theta in (0.0, 0.3, -0.5):
        ev_w = scipy.linalg.eigvalsh(
            assemble_fiber(_P34, proj_w, theta, n_hermite=16, m_max=4)
        )
        ev_0 = scipy.linalg.eigvalsh(
            assemble_fiber(_P34, proj_0, theta, n_hermite=16, m_max=4)
        )
        assert np.max(np.abs(ev_w - ev_0)) <= w0 + 1e-9


def dominant_hermite_index(vector, n_hermite, m_max) -> int:
    """Hermite level carrying the most weight in an eigenvector of a fiber
    truncated to n_hermite levels and |m| <= m_max."""
    comps = np.asarray(vector).reshape(2 * m_max + 1, n_hermite)
    weights = np.sum(np.abs(comps) ** 2, axis=0)
    return int(np.argmax(weights))


def test_dominant_hermite_index_identifies_landau_stripe():
    p = derive_params(3.0, 10.0)
    proj = project_potential(_TWO_COS, p, nmax=19, mfourier=16)
    mat = assemble_fiber(p, proj, 0.2, n_hermite=20, m_max=4)
    vals, vecs = scipy.linalg.eigh(mat)
    w0 = 2.0
    for j in np.nonzero(vals < 3.0 * p.alpha - w0)[0]:
        assert dominant_hermite_index(vecs[:, j], 20, 4) == 0
    j1 = int(np.argmin(np.abs(vals - 3.0 * p.alpha)))
    assert dominant_hermite_index(vecs[:, j1], 20, 4) == 1


def test_truncation_warning_when_cauchy_tolerance_unattainable():
    with pytest.warns(UserWarning, match="did not meet the residual truncation check"):
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


def test_one_omega_shows_no_trend(tmp_path, capsys):
    from channel_spectra.cli import main

    report = gap_persistence_sweep(3.0, [4.0], _TWO_COS, theta_count=9, n_hermite=8, hill_m_max=8, refine=False)
    # a finite discrepancy, but a trend needs a second omega
    assert np.all(np.isfinite(report.discrepancy_table()))
    assert not report.discrepancies_decreasing
    argv = ["sweep-omega", "--set", "omega_list=[4.0]", "--set", "theta_count=9", "--set", "n_hermite=8"]
    assert main(argv + ["--set", "hill_m_max=8", "--set", "refine=false", "--out", str(tmp_path)]) == 0
    assert "over omega list: no trend from one omega" in capsys.readouterr().out


def _sweep_report(rows):
    empty = GapReport(gaps=(), lower=0.0, ceiling=1.0, tolerance=0.0)
    entries = tuple(
        SweepEntry(omega=float(i + 1), alpha=1.0, full=empty, reference=empty, discrepancies=row, converged=True)
        for i, row in enumerate(rows)
    )
    return GapPersistenceReport(B=1.0, entries=entries, target_gap_count=1)


@pytest.mark.parametrize(
    "rows", [[(0.1,), (math.inf,)], [(math.inf,), (math.inf,)]], ids=["matched-then-unmatched", "never-matched"]
)
def test_an_unmatched_gap_shows_no_trend_and_no_warning(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert not _sweep_report(rows).discrepancies_decreasing
        assert _sweep_report([(0.2,), (0.1,)]).discrepancies_decreasing


def test_sweep_constant_potential_shifts_bottom():
    spec = SeparableFourierPotential({0: 1.0}, PolynomialProfile([1.0]))
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


def test_sweep_estimates_the_potential_norms_once(monkeypatch):
    calls = []
    estimate = ZeroPotential.norm_estimates

    def counted(self):
        calls.append(self)
        return estimate(self)

    monkeypatch.setattr(ZeroPotential, "norm_estimates", counted)
    report = gap_persistence_sweep(
        3.0, [4.0, 10.0, 40.0], ZeroPotential(), theta_count=9, n_hermite=16, refine=False
    )
    assert len(report.entries) == 3
    # once for the sweep, and once in each omega's compute_bands
    assert len(calls) == 4


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


_GAUSSIAN_COS = SeparableFourierPotential({1: 0.3, -1: 0.3}, GaussianProfile(1.5))


def test_x_only_potentials_take_the_landau_basis():
    free = compute_bands(_P34, ZeroPotential(), theta_count=9, energy_ceiling=2.0 * _P34.alpha, refine=False)
    coupled = compute_bands(_P34, _TWO_COS, theta_count=9, energy_ceiling=12.0, n_hermite=8, refine=False)
    profiled = compute_bands(_P34, _GAUSSIAN_COS, theta_count=9, energy_ceiling=6.0, n_hermite=8, refine=False)
    assert (free.basis, coupled.basis, profiled.basis) == ("landau", "landau", "hermite")
    assert free.converged and coupled.converged and profiled.converged
    # W = 0 passes at the first size tried; an explicit size is never lowered
    assert (free.n_hermite, coupled.n_hermite) == (4, 8)


def test_hermite_check_builds_one_block_and_no_one_off_fiber(monkeypatch):
    from channel_spectra import bands, fiber

    blocks, fibers = [], []
    block = bands.fiber_block

    def counted_block(params, proj, n_hermite, m_max, *args):
        blocks.append((n_hermite, m_max))
        return block(params, proj, n_hermite, m_max, *args)

    monkeypatch.setattr(bands, "fiber_block", counted_block)
    # every binding of the one-off fiber builder
    for module in (bands, fiber):
        monkeypatch.setattr(module, "assemble_fiber", lambda *args: fibers.append(args))
    bs = compute_bands(_P34, _GAUSSIAN_COS, theta_count=9, energy_ceiling=6.0, n_hermite=8, refine=False)
    # converged at the first size: the kept pair is the one block built
    assert bs.converged and not any("truncation raised" in note for note in bs.notes)
    assert blocks == [(8, bs.m_max)]
    assert fibers == []


def _cos_times(amplitude, profile):
    """amplitude cos x times a transverse profile."""
    return SeparableFourierPotential({1: amplitude / 2, -1: amplitude / 2}, profile)


@pytest.mark.parametrize(
    "B,omega,spec,n_levels,ceiling",
    [
        (3.0, 4.0, _cos_times(0.6, GaussianProfile(1.5)), 6, 10.0),
        # sup |W| = 4.8, about alpha = 5
        (3.0, 4.0, _cos_times(4.8, GaussianProfile(1.0)), 8, 10.0),
        # polynomial profiles, whose floors read W >= -(a + b y^2)
        (3.0, 4.0, _cos_times(0.6, PolynomialProfile((1.0, 0.5))), 8, 10.0),
        (3.0, 4.0, _cos_times(0.6, PolynomialProfile((1.0, 0.0, 0.05))), 8, 10.0),
        # no magnetic ladder, then a strong field in a weak channel
        (0.0, 4.0, _cos_times(2.0, GaussianProfile(1.0)), 6, 8.0),
        (4.0, 1.5, _cos_times(1.0, GaussianProfile(1.0)), 12, 5.77),
    ],
    ids=["weak-gaussian", "sup-near-alpha", "linear-profile", "quadratic-profile", "B-0", "B-4-omega-1.5"],
)
def test_hermite_estimate_bounds_the_truncation_error(B, omega, spec, n_levels, ceiling):
    from channel_spectra.bands import _floors, _quadratic_bound, error_estimates
    from channel_spectra.fiber import fiber_at, fiber_block

    params, theta = derive_params(B, omega), 0.23
    m_max = _kinematic_m_cover(params, ceiling)
    # the truncation exactly as compute_bands checks it
    proj = project_potential(spec, params, nmax=2 * n_levels - 1, mfourier=max(16, 2 * (m_max + 4)))
    block = fiber_block(params, proj, n_levels, m_max)
    a, b = _quadratic_bound(spec, spec.norm_estimates().w0, params)
    [(vals, levels, window, _)] = error_estimates(block, _floors(block, a, b, True), ceiling, [theta])
    ref_proj = project_potential(spec, params, nmax=63, mfourier=max(16, 2 * (m_max + 8)))
    ref = scipy.linalg.eigvalsh(fiber_at(fiber_block(params, ref_proj, 64, m_max + 8), theta))
    # min-max: a truncation only raises eigenvalues; the estimate bounds by
    # how much, up to the rounding of the reference solve (dimension 1600-2000)
    err = vals - ref[: vals.size]
    rounding = 1e-12 * ceiling
    assert vals.size >= 4 and np.all(np.isfinite(levels + window))
    assert np.max(err) > 1e-10  # the truncation is visibly short of converged
    assert np.all(err >= -rounding)
    assert np.all(err <= levels + window + rounding)


def test_the_hermite_check_reads_the_harmonics_past_the_window():
    # cos 30x couples the window |m| <= 8 only to indices past it; with that
    # harmonic left out of the residuals, (N=12, M=8) passed the check while
    # its bands were 5.3e-4 off those of a window of 36.  The window grows by
    # the coupling's reach, 30, so one step takes it to 38
    spec = SeparableFourierPotential({1: 0.3, -1: 0.3, 30: 0.5, -30: 0.5}, GaussianProfile(1.5))
    bs = compute_bands(_P34, spec, theta_count=9, n_hermite=12, refine=False)
    wide = compute_bands(_P34, spec, theta_count=9, n_hermite=12, m_max=36, refine=False)
    assert wide.converged and wide.band_count == bs.band_count
    # a truncation that passes is within cauchy_tol of the wider one
    assert not bs.converged or np.max(np.abs(bs.band_intervals - wide.band_intervals)) <= 1e-7
    assert bs.converged and bs.m_max == 38


def test_the_residual_check_holds_a_strong_potential_to_its_tolerance():
    # sup |W| = 4 near alpha = 5: at (8, 10) the bands are still 1.2e-7 off
    # (16, 10), beyond cauchy_tol = 1e-7, so the check grows N once more
    spec = _cos_times(4.0, GaussianProfile(1.0))
    bs = compute_bands(_P34, spec, theta_count=9, energy_ceiling=9.0, n_hermite=4, refine=False)
    assert bs.converged and (bs.n_hermite, bs.m_max) == (16, 10)
    assert bs.notes == ("truncation raised to (N=8, M=10)", "truncation raised to (N=16, M=10)")


@pytest.mark.parametrize(
    "coeffs, profile, omega, message",
    [
        ({0: 1.0}, PolynomialProfile((1.0, 0.0, 0.0, 0.05)), 4.0, "degree 3"),
        # W >= -(0 + 10 y^2) against omega^2 = 9
        ({0: 1.0}, PolynomialProfile((0.0, 0.0, -10.0)), 3.0, "overturns the confinement"),
        # 10 y^2 cos x: f changes sign, so all of g counts
        ({1: 0.5, -1: 0.5}, PolynomialProfile((0.0, 0.0, 10.0)), 3.0, "overturns the confinement"),
    ],
    ids=["cubic", "overturned", "overturned-cos"],
)
def test_a_potential_without_a_floor_is_refused_before_any_solve(monkeypatch, coeffs, profile, omega, message):
    from channel_spectra import fiber

    monkeypatch.setattr(fiber, "eigenvalues_fiber", lambda *args, **kwargs: pytest.fail("solved"))
    monkeypatch.setattr(scipy.linalg, "eigh", lambda *args, **kwargs: pytest.fail("solved"))
    with pytest.raises(ConfigError, match=message):
        compute_bands(derive_params(3.0, omega), SeparableFourierPotential(coeffs, profile), n_hermite=8)


@pytest.mark.parametrize("B, omega, c", [(3.0, 3.0, 10.0), (1.0, 2.0, 0.5)])
def test_a_confining_quadratic_profile_has_the_stronger_channel_bottom(B, omega, c):
    # W = c y^2 >= 0 turns omega^2 into omega^2 + c, whose free channel has
    # its bottom at alpha = sqrt(B^2 + omega^2 + c)
    spec = SeparableFourierPotential({0: 1.0}, PolynomialProfile((0.0, 0.0, c)))
    bs = compute_bands(derive_params(B, omega), spec, theta_count=9)
    assert bs.converged and bs.basis == "hermite"
    assert abs(bs.spectrum_bottom - math.sqrt(B * B + omega * omega + c)) < 1e-7


@pytest.mark.parametrize("spec", [_TWO_COS, _GAUSSIAN_COS], ids=["landau", "hermite"])
def test_unrefined_bands_solve_no_eigenvectors(monkeypatch, spec):
    from channel_spectra import fiber

    vector_solves = []
    solve = fiber.eigenvalues_fiber

    def counted_solve(mat, count=None, vectors=False):
        vector_solves.append(vectors)
        return solve(mat, count, vectors=vectors)

    # every band-driver solve goes through FiberBlock.solve to the fiber eigensolver
    monkeypatch.setattr(fiber, "eigenvalues_fiber", counted_solve)
    bs = compute_bands(_P34, spec, theta_count=9, energy_ceiling=6.0, n_hermite=8, refine=False)
    assert bs.band_count > 0 and bs.vectors == ()
    assert len(vector_solves) >= 5 and not any(vector_solves)


@pytest.mark.parametrize("tol", [1e-7, 1e-10])
def test_landau_bands_match_the_hermite_basis_to_the_tolerance(tol):
    spec = SeparableFourierPotential({1: 0.4, -1: 0.4, 2: 0.1j, -2: -0.1j})
    landau = compute_bands(
        _P34, spec, theta_count=9, energy_ceiling=_P34.alpha + 2.0, refine=False, cauchy_tol=tol
    )
    assert landau.basis == "landau" and landau.converged
    # Hermite fibers on the same Fourier window, converged to about 1e-12 at N = 60
    proj = project_potential(spec, _P34, nmax=59, mfourier=2 * landau.m_max)
    for theta, row in zip(landau.theta_grid, landau.bands):
        ref = eigenvalues_fiber(assemble_fiber(_P34, proj, theta, 60, landau.m_max))
        assert np.max(np.abs(row - ref[: row.size])) < tol


def test_tolerance_below_rounding_is_never_met_even_at_zero_residual():
    # W = 0: the Landau basis is exact and every residual is 0, but the
    # eigensolver still rounds at about eps ||H||
    with pytest.warns(UserWarning, match="did not meet the residual truncation check"):
        bs = compute_bands(
            _P34, ZeroPotential(), theta_count=9, energy_ceiling=6.0, cauchy_tol=1e-18, refine=False
        )
    assert not bs.converged


def test_oversized_n_hermite_is_a_config_error():
    with pytest.raises(ConfigError, match="500"):
        compute_bands(_P34, ZeroPotential(), n_hermite=501)


@pytest.mark.parametrize("spec", [_TWO_COS, _GAUSSIAN_COS], ids=["landau", "hermite"])
def test_growth_stops_at_the_hermite_degree_cap(monkeypatch, spec):
    from channel_spectra import bands

    monkeypatch.setattr(bands, "MAX_N_HERMITE", 8)
    with pytest.warns(UserWarning, match="did not meet"):
        bs = compute_bands(
            _P34, spec, theta_count=9, energy_ceiling=6.0, n_hermite=4, cauchy_tol=1e-18, refine=False
        )
    assert not bs.converged
    assert bs.n_hermite == 8
    assert any("Hermite degree cap" in note for note in bs.notes)


@pytest.mark.parametrize("spec", [_TWO_COS, _GAUSSIAN_COS], ids=["landau", "hermite"])
def test_growth_stops_at_the_fiber_dimension_cap(monkeypatch, spec):
    from channel_spectra import bands

    # the cap is the size of the start (N=4, M at the ceiling's cover), so the first raise stops
    m = _kinematic_m_cover(_P34, 6.0)
    monkeypatch.setattr(bands, "MAX_FIBER_DIM", 4 * (2 * m + 1))
    with pytest.warns(UserWarning, match="did not meet"):
        bs = compute_bands(
            _P34, spec, theta_count=9, energy_ceiling=6.0, n_hermite=4, cauchy_tol=1e-18, refine=False
        )
    assert not bs.converged
    assert (bs.n_hermite, bs.m_max) == (4, m)
    assert bs.notes[-1] == f"truncation growth stopped at (N=4, M={m}) by the fiber dimension cap"


@pytest.mark.parametrize("B,omega,m_max", [(3.0, 0.1, 78), (40.0, 4.0, 94)])
def test_wide_window_in_a_small_fiber_still_runs(B, omega, m_max):
    # the default ceiling needs M near 100 here, but the Landau fiber at
    # N = 4 has dimension below 800
    bs = compute_bands(derive_params(B, omega), ZeroPotential(), theta_count=9, refine=False)
    assert bs.converged and bs.basis == "landau"
    assert (bs.n_hermite, bs.m_max) == (4, m_max)


@pytest.mark.parametrize("spec", [_TWO_COS, _GAUSSIAN_COS], ids=["landau", "hermite"])
def test_non_convergence_keeps_the_last_truncation_checked(spec):
    with pytest.warns(UserWarning, match="did not meet"):
        bs = compute_bands(
            _P34, spec, theta_count=9, energy_ceiling=6.0, n_hermite=1, cauchy_tol=1e-18, refine=False
        )
    assert not bs.converged
    # four truncations checked, N = 1, 2, 4, 8, and no fifth one raised to
    raised = [note for note in bs.notes if note.startswith("truncation raised")]
    assert len(raised) == 3 and bs.n_hermite == 8
    assert raised[-1] == f"truncation raised to (N={bs.n_hermite}, M={bs.m_max})"


def _fiber_block_of(bs, spec):
    """The fiber block behind a band structure, built as compute_bands builds it."""
    from channel_spectra.fiber import fiber_block, landau_block

    if bs.basis == "landau":
        g = 0.0 if isinstance(spec, ZeroPotential) else float(spec.profile(0.0))
        coeffs = () if isinstance(spec, ZeroPotential) else [(k, c * g) for k, c in spec.coeffs]
        return landau_block(bs.params, coeffs, bs.n_hermite, bs.m_max)
    proj = project_potential(spec, bs.params, nmax=2 * bs.n_hermite - 1, mfourier=max(16, 2 * (bs.m_max + 4)))
    return fiber_block(bs.params, proj, bs.n_hermite, bs.m_max)


def _scan(block, thetas, count):
    from channel_spectra.fiber import fiber_at

    return np.array([eigenvalues_fiber(fiber_at(block, t))[:count] for t in thetas])


def test_a_narrow_peak_between_grid_phases_is_found():
    # band 41 at ceiling 40 peaks near theta = 0.305, between the grid phases
    # 0.28125 and 0.3125, while its grid maximum sits at theta = 1/2; a search
    # of one grid step around the grid maximum reported it 0.041 too low
    bs = compute_bands(_P34, _TWO_COS, theta_count=33, energy_ceiling=40.0)
    assert bs.band_count >= 41
    scan = _scan(_fiber_block_of(bs, _TWO_COS), np.linspace(0.25, 0.35, 1001), 41)[:, 40]
    assert scan.max() > 39.135
    assert bs.band_intervals[40, 1] >= scan.max() - 1e-10


_NON_EVEN = SeparableFourierPotential({1: 0.15, -1: 0.15, 2: -0.05j, -2: 0.05j})
_SCANNED = {
    # Landau basis, folded
    "landau": (_P34, _TWO_COS, dict(energy_ceiling=17.0)),
    # Hermite basis, whose fiber carries the magnetic ladder in H'(theta)
    "hermite": (_P34, _GAUSSIAN_COS, dict(energy_ceiling=_P34.alpha + 3.0, n_hermite=8)),
    # complex fibers
    "complex": (derive_params(1.3, 6.2), _NON_EVEN, dict()),
    # a profile odd in y: the grid is not folded
    "odd-profile": (
        _P34,
        SeparableFourierPotential({1: 0.3, -1: 0.3}, PolynomialProfile((1.0, 0.5))),
        dict(energy_ceiling=_P34.alpha + 3.0, n_hermite=8),
    ),
}


@pytest.mark.parametrize("case", sorted(_SCANNED))
def test_every_edge_reaches_a_dense_scan(case):
    params, spec, kwargs = _SCANNED[case]
    bs = compute_bands(params, spec, theta_count=17, **kwargs)
    assert bs.band_count >= 3 and bs.folded == (case != "odd-profile")
    thetas = np.linspace(0.0 if bs.folded else -0.5, 0.5, 1001 if bs.folded else 2001)
    scan = _scan(_fiber_block_of(bs, spec), thetas, bs.band_count)
    lo, hi = bs.band_intervals.T
    assert np.all(lo <= scan.min(axis=0) + 1e-10)
    assert np.all(hi >= scan.max(axis=0) - 1e-10)


@pytest.mark.parametrize("case", ["complex", "landau", "odd-profile"])
def test_refinement_solves_per_extremum(monkeypatch, case):
    from channel_spectra import bands, fiber

    params, spec, settings = _SCANNED[case]
    counts = {"searches": 0, "solves": 0}
    inside = []
    solve, search = fiber.eigenvalues_fiber, bands.golden_section_minimize

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

    # the certifying solve goes through FiberBlock.solve to fiber.eigenvalues_fiber
    monkeypatch.setattr(fiber, "eigenvalues_fiber", counted_solve)
    monkeypatch.setattr(bands, "golden_section_minimize", counted_search)
    bs = compute_bands(params, spec, theta_count=17, **settings)
    # edges off the grid phases are searched on reduced pencils, and one full
    # solve at most certifies each band edge
    assert counts["searches"] >= 1
    assert counts["solves"] <= 2 * bs.band_count


def test_the_grid_folds_only_for_potentials_even_in_y():
    from channel_spectra.fiber import fiber_at

    # W real and even in y: E_j(-theta) = E_j(theta), so theta >= 0 is solved
    # and mirrored; direct solves at the mirrored phases agree
    even = compute_bands(_P34, _GAUSSIAN_COS, theta_count=9, energy_ceiling=_P34.alpha + 3.0, n_hermite=8)
    assert even.folded and len(even.vectors) == 5
    block = _fiber_block_of(even, _GAUSSIAN_COS)
    for theta, row in zip(even.theta_grid[:4], even.table[:4]):
        direct = eigenvalues_fiber(fiber_at(block, theta))[: row.size]
        assert np.max(np.abs(direct - row)) < 1e-12
    # W = 1 + 0.5 y is not even in y: its spectra at +-0.27 differ
    odd_spec = SeparableFourierPotential({0: 1.0}, PolynomialProfile((1.0, 0.5)))
    odd = compute_bands(_P34, odd_spec, theta_count=9, energy_ceiling=_P34.alpha + 3.0, n_hermite=8)
    assert not odd.folded and len(odd.vectors) == 9
    block = _fiber_block_of(odd, odd_spec)
    plus, minus = (eigenvalues_fiber(fiber_at(block, t))[:4] for t in (0.27, -0.27))
    assert np.min(np.abs(plus - minus)) > 0.02


def test_the_window_starts_at_the_kinematic_cover_of_the_ceiling():
    # W = 0 (Landau basis) and a Gaussian profile (Hermite basis), both
    # converged at the first truncation checked
    free = compute_bands(_P34, ZeroPotential(), theta_count=9, energy_ceiling=2.0 * _P34.alpha, refine=False)
    profiled = compute_bands(_P34, _GAUSSIAN_COS, theta_count=9, energy_ceiling=6.0, n_hermite=8, refine=False)
    for bs in (free, profiled):
        assert bs.converged and bs.notes == ()
        assert bs.m_max == _kinematic_m_cover(_P34, bs.energy_ceiling)
    # a given m_max below the cover is raised to it, with a note
    raised = compute_bands(_P34, ZeroPotential(), theta_count=9, energy_ceiling=6.0, m_max=2, refine=False)
    assert raised.m_max == _kinematic_m_cover(_P34, 6.0) > 2
    assert raised.notes == (f"m_max raised to {raised.m_max} to cover the energy ceiling",)


@pytest.mark.parametrize(
    "kwargs",
    [dict(energy_ceiling=12.0), dict(energy_ceiling=6.5, n_hermite=1)],
    ids=["first-size", "grown"],
)
def test_the_landau_check_forms_each_overlap_once(monkeypatch, kwargs):
    from channel_spectra import bands, fiber

    steps = []  # the displacement_overlaps calls of each truncation checked
    overlaps, build = fiber.displacement_overlaps, bands.landau_block

    def counted(n_rows, n_cols, d):
        made = overlaps(n_rows, n_cols, d)
        steps[-1].append(((n_rows, n_cols, d), float(np.max(np.abs(made[-4:])))))
        return made

    def step(*args):
        steps.append([])
        return build(*args)

    monkeypatch.setattr(fiber, "displacement_overlaps", counted)
    monkeypatch.setattr(bands, "landau_block", step)
    bs = compute_bands(_P34, _TWO_COS, theta_count=9, refine=False, **kwargs)
    assert bs.basis == "landau" and bs.converged
    calls = [call for made in steps for call, _ in made]
    assert calls and len(set(calls)) == len(calls)
    # one tall D per |k|, here k = 1, at each truncation: the block and the
    # terms of k = -1 read it too, and its rows reach below 1e-12 at once
    for made in steps:
        assert [d for (*_, d), _ in made] == [_P34.B / _P34.alpha**1.5]
        assert all(tail <= 1e-12 for _, tail in made)


@pytest.mark.parametrize(
    "B,omega,amplitude,sigma",
    [(1.0, 3.0, 0.5, 1.0), (3.0, 4.0, 2.0, 1.5), (4.0, 3.0, -1.0, 0.7), (0.5, 8.0, 3.0, 2.0), (2.0, 2.0, 1.0, 1.0)],
)
def test_a_potential_of_y_alone_opens_no_gap(B, omega, amplitude, sigma):
    # W = a g(y) makes H a direct integral over k = m + theta of 1-D
    # operators (Reed-Simon IV, section XIII.16), whose lowest band covers
    # [min_k eps_0(k), inf)
    spec = SeparableFourierPotential({0: amplitude}, GaussianProfile(sigma))
    bs = compute_bands(derive_params(B, omega), spec, theta_count=9, n_hermite=8)
    assert bs.band_count >= 1
    assert detect_gaps(bs).count == 0
