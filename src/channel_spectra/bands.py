"""Bloch band structure, spectral gaps and the gap persistence sweep.

Bands are sorted-eigenvalue curves theta -> E_j(theta) of the fiber
matrices on a uniform odd grid over [-1/2, 1/2] (both endpoints sampled;
they are identified by 1-periodicity).  Band intervals are sharpened by
Brent's method around the grid extrema, gaps are the complement
of the interval union below a trusted energy ceiling, and the persistence
sweep compares those gaps against the decoupled reference H_{0,0} =
alpha + spec(K_0) as the confinement omega grows at fixed field B.

Truncation policy: starting sizes are validated by a Cauchy criterion
(eigenvalues below the ceiling move by < cauchy_tol when the Hermite
cutoff doubles and the Fourier window widens by 4) and raised until it
passes.  The Fourier window must also cover the ceiling kinematically:
beta (M - 1/2)^2 + alpha > ceiling, with margin.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelParams, Potential, derive_params
from .fiber import FiberMatrix, assemble_fiber, eigenvalues_fiber, fiber_at, fiber_block
from .hermite import ProjectedPotential, project_potential
from .hill import h00_gaps, hill_bands
from .numutil import GapReport, bloch_bands, gap_report, golden_section_minimize, merge_intervals, theta_grid

__all__ = [
    "BandStructure",
    "GapReport",
    "SweepEntry",
    "GapPersistenceReport",
    "compute_bands",
    "detect_gaps",
    "gap_persistence_sweep",
    "dominant_hermite_index",
]

DEFAULT_N_HERMITE = 40
DEFAULT_M_MAX = 8


@dataclass(eq=False)
class BandStructure:
    """Sorted band curves with refined extrema below an energy ceiling."""

    params: ChannelParams
    theta_grid: np.ndarray
    bands: np.ndarray  # (theta_count, band_count) grid eigenvalues
    band_intervals: np.ndarray  # (band_count, 2) refined [min, max]
    energy_ceiling: float
    n_hermite: int
    m_max: int
    converged: bool
    notes: tuple[str, ...] = ()

    @property
    def band_count(self) -> int:
        return self.bands.shape[1]

    @property
    def spectrum_bottom(self) -> float:
        return float(np.min(self.band_intervals[:, 0]))

    def band_variations(self) -> np.ndarray:
        """max - min of each band over the grid (flat-band proxy)."""
        return self.bands.max(axis=0) - self.bands.min(axis=0)

    def union_intervals(self) -> list[tuple[float, float]]:
        return merge_intervals([tuple(row) for row in self.band_intervals])


def _kinematic_m_cover(params: ChannelParams, ceiling: float) -> int:
    """Fourier window needed for the free dispersion to clear the ceiling."""
    span = max(ceiling - params.alpha, 0.0)
    return int(math.ceil(math.sqrt(span / params.beta) + 0.5)) + 3


def _probe_eigs(params, proj, theta, n_hermite, m_max) -> np.ndarray:
    # the probe solves each truncation at three phases only, so it assembles
    # one-off fibers instead of holding a block
    return eigenvalues_fiber(assemble_fiber(params, proj, theta, n_hermite, m_max))


def _cauchy_probe(params, spec, ceiling, n_hermite, m_max, tol, probes) -> tuple[bool, ProjectedPotential]:
    """Compare eigenvalues below the ceiling at (N, M) and (2N, M+4)."""
    big_n, big_m = 2 * n_hermite, m_max + 4
    proj = project_potential(
        spec, params, nmax=big_n - 1, mfourier=max(16, 2 * big_m)
    )
    for theta in probes:
        small = _probe_eigs(params, proj, theta, n_hermite, m_max)
        big = _probe_eigs(params, proj, theta, big_n, big_m)
        small = small[small <= ceiling]
        big = big[big <= ceiling]
        common = min(small.size, big.size)
        if big.size - small.size > 2:
            return False, proj
        if common and float(np.max(np.abs(small[:common] - big[:common]))) > tol:
            return False, proj
    return True, proj


def compute_bands(
    params: ChannelParams,
    spec: Potential,
    theta_count: int = 33,
    energy_ceiling: float | None = None,
    n_hermite: int | None = None,
    m_max: int | None = None,
    refine: bool = True,
    xtol: float = 1e-8,
    cauchy_tol: float = 1e-7,
) -> BandStructure:
    """Band curves of H(theta) for an x-periodic potential.

    theta_count must be odd and >= 9 (the grid then contains theta = 0 and
    both +-1/2 endpoints), and cauchy_tol > 0.  Bands are reported when
    their grid minimum lies at or below the ceiling; eigenvalues above the
    ceiling are not trusted.
    """
    grid = theta_grid(theta_count)
    if not cauchy_tol > 0.0:
        raise ValueError("need cauchy_tol > 0")
    if energy_ceiling is None:
        w0 = spec.norm_estimates().w0
        energy_ceiling = 3.0 * params.alpha + (w0 if math.isfinite(w0) else 0.0)
    notes: list[str] = []

    n_h = DEFAULT_N_HERMITE if n_hermite is None else int(n_hermite)
    m_m = DEFAULT_M_MAX if m_max is None else int(m_max)
    cover = _kinematic_m_cover(params, energy_ceiling)
    if m_m < cover:
        m_m = cover
        notes.append(f"m_max raised to {m_m} to cover the energy ceiling")

    probes = (0.0, 1.0 / 3.0, -0.5)
    converged = False
    proj = None
    for _ in range(4):
        converged, proj = _cauchy_probe(
            params, spec, energy_ceiling, n_h, m_m, cauchy_tol, probes
        )
        if converged:
            break
        n_h, m_m = 2 * n_h, m_m + 4
        notes.append(f"truncation raised to (N={n_h}, M={m_m})")
    if not converged:
        warnings.warn(
            f"truncation did not meet the Cauchy tolerance {cauchy_tol:.1e} at "
            f"(N={n_h}, M={m_m}); eigenvalues near the ceiling may be unconverged",
            stacklevel=2,
        )

    block = fiber_block(params, proj, n_h, m_m)
    bands, intervals = bloch_bands(
        lambda t: eigenvalues_fiber(fiber_at(block, t)),
        grid,
        lambda table: int(np.searchsorted(table.min(axis=0), energy_ceiling, side="right")),
        refine,
        xtol,
        minimize=golden_section_minimize,
    )

    for arr in (grid, bands, intervals):
        arr.setflags(write=False)
    return BandStructure(
        params=params,
        theta_grid=grid,
        bands=bands,
        band_intervals=intervals,
        energy_ceiling=float(energy_ceiling),
        n_hermite=n_h,
        m_max=m_m,
        converged=converged,
        notes=tuple(notes),
    )


def detect_gaps(band_structure: BandStructure, gap_tolerance: float | None = None) -> GapReport:
    """Maximal intervals below the ceiling not covered by any band."""
    if gap_tolerance is None:
        gap_tolerance = 1e-6 * band_structure.params.alpha
    return gap_report(
        band_structure.band_intervals,
        band_structure.params.alpha,
        band_structure.energy_ceiling,
        gap_tolerance,
    )


@dataclass(frozen=True)
class SweepEntry:
    omega: float
    alpha: float
    full: GapReport
    reference: GapReport
    discrepancies: tuple[float, ...]
    converged: bool


@dataclass(frozen=True)
class GapPersistenceReport:
    """Gap comparison between the full operator and H_{0,0} across omega."""

    B: float
    entries: tuple[SweepEntry, ...]
    target_gap_count: int

    def discrepancy_table(self) -> np.ndarray:
        """(n_omega, target_gap_count), inf where a gap is unmatched."""
        return np.array([e.discrepancies for e in self.entries])

    @property
    def discrepancies_decreasing(self) -> bool:
        table = self.discrepancy_table()
        if not table.size:
            return False
        ok = np.all(np.diff(table, axis=0) <= 1e-12 + 0.0 * table[1:], axis=0)
        return bool(np.all(ok) and np.all(np.isfinite(table)))


def _match_gap(reference: tuple[float, float], gaps) -> tuple[float, float] | None:
    """Full-operator gap overlapping the reference one (largest overlap wins)."""
    best = None
    best_overlap = 0.0
    rlo, rhi = reference
    for lo, hi in gaps:
        overlap = min(hi, rhi) - max(lo, rlo)
        if overlap > best_overlap:
            best_overlap = overlap
            best = (lo, hi)
    if best is None and gaps:
        center = 0.5 * (rlo + rhi)
        best = min(gaps, key=lambda g: abs(0.5 * (g[0] + g[1]) - center))
    return best


def gap_persistence_sweep(
    B: float,
    omega_list,
    spec: Potential,
    target_gap_count: int = 1,
    theta_count: int = 17,
    hill_m_max: int = 32,
    gap_tolerance: float | None = None,
    n_hermite: int | None = None,
    refine: bool = True,
) -> GapPersistenceReport:
    """Track how full-operator gaps approach the H_{0,0} gaps as omega grows.

    For every omega the hard ceiling is 3*alpha, isolating the lowest
    Landau stripe.  Tracking only the first target_gap_count gaps needs
    bands up to the reference band just above the last tracked gap, so the
    working ceiling is lowered to that edge plus a 2*W0 + 1 margin (bounded
    perturbations move spectra by at most W0 in Hausdorff distance, and the
    reference itself sits within W0 of the free operator).  Reported per
    gap: max deviation of the two edges from the reference H_{0,0} gap.
    No convergence rate is guaranteed, so the report states the empirical
    trend only.
    """
    if target_gap_count < 1:
        raise ValueError("target_gap_count must be >= 1")
    entries = []
    for omega in omega_list:
        params = derive_params(B, omega)
        ceiling = 3.0 * params.alpha
        w0 = spec.norm_estimates().w0
        proj0 = project_potential(spec, params, nmax=0, mfourier=2 * hill_m_max)
        k0 = hill_bands(
            proj0.diag_coeffs(0),
            m_max=hill_m_max,
            theta_count=theta_count,
            band_count=target_gap_count + 2,
        )
        if math.isfinite(w0) and len(k0.band_intervals) > target_gap_count:
            cover = params.alpha + k0.band_intervals[target_gap_count][1] + 2.0 * w0 + 1.0
            ceiling = min(ceiling, cover)
        bs = compute_bands(
            params,
            spec,
            theta_count=theta_count,
            energy_ceiling=ceiling,
            n_hermite=n_hermite,
            refine=refine,
        )
        full = detect_gaps(bs, gap_tolerance)
        reference = h00_gaps(
            params,
            spec,
            ceiling,
            m_max=hill_m_max,
            theta_count=theta_count,
            gap_tolerance=gap_tolerance,
        )
        discrepancies = []
        for g in range(target_gap_count):
            if g >= len(reference.gaps):
                discrepancies.append(math.inf)
                continue
            match = _match_gap(reference.gaps[g], full.gaps)
            if match is None:
                discrepancies.append(math.inf)
            else:
                discrepancies.append(
                    max(abs(match[0] - reference.gaps[g][0]), abs(match[1] - reference.gaps[g][1]))
                )
        entries.append(
            SweepEntry(
                omega=float(omega),
                alpha=params.alpha,
                full=full,
                reference=reference,
                discrepancies=tuple(discrepancies),
                converged=bs.converged,
            )
        )
    return GapPersistenceReport(B=float(B), entries=tuple(entries), target_gap_count=target_gap_count)


def dominant_hermite_index(mat: FiberMatrix, vector: np.ndarray) -> int:
    """Hermite level carrying the most weight in a fiber eigenvector."""
    comps = np.asarray(vector).reshape(2 * mat.m_max + 1, mat.n_hermite)
    weights = np.sum(np.abs(comps) ** 2, axis=0)
    return int(np.argmax(weights))
