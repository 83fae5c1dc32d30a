"""Bloch band structure, spectral gaps and the gap persistence sweep.

Bands are sorted-eigenvalue curves theta -> E_j(theta) of the fiber
matrices on a uniform odd grid over [-1/2, 1/2] (both endpoints sampled;
they are identified by 1-periodicity).  BandStructure is a
numutil.BlochBands record, as the Hill bands of the H_{0,0} reference are,
and the driver takes the truncation's fiber.FiberBlock, the pencil
H(theta + h) = H(theta) + h H'(theta) + kinetic h^2 I, which it both
solves and searches the edges on.  One solve per grid phase keeps the
eigenvectors of the bands below the ceiling and numutil.RITZ_PAD more (the
eigenvalues alone without refinement, which reads none); only the phases
theta >= 0 are solved when W is real and even in y, since E_j(-theta) =
E_j(theta) then.  The eigenvectors at the two
ends of each grid interval reduce the fiber to a small pencil there, which
gives the bands between the grid phases; each band edge is searched on
those pencils, guided by the Hellmann-Feynman slopes at the grid phases,
and certified by one full solve.  Gaps are the complement of the interval
union below a trusted energy ceiling, and the persistence sweep compares
those gaps against the decoupled reference H_{0,0} = alpha + spec(K_0) as
the confinement omega grows at fixed field B.

Truncation policy.  The Fourier window must cover the ceiling
kinematically, beta (M - 1/2)^2 + alpha > ceiling with margin, and it
starts at that cover (_kinematic_m_cover), the smallest such M plus 3.
One check judges a truncation (N, M) in both bases.  At the probe phases
theta = 0, 1/3, -1/2, every eigenpair (lambda, v) below the ceiling has the
residual r = ||H_QP v|| into the discarded space Q (levels n >= N or
Fourier indices |m| > M), on which H >= c_Q, the lower of the levels' and
the window's floor; the truncation's FiberBlock carries H_QP.  The block
form of the Temple/Kato estimate, sum r^2 / min (c_Q - lambda) over all
pairs below the ceiling, bounds the truncation error of each of them
(Parlett, The Symmetric Eigenvalue Problem, ch. 10-11); a per-pair r^2 /
(c_Q - lambda) undershoots when two Ritz values nearly coincide.  The truncation passes when twice the block
estimate plus the eigensolver's rounding eps ||H|| is at most cauchy_tol,
and c_Q clears the ceiling.  Otherwise N doubles when the levels' share of
the estimate exceeds half of what the rounding leaves of cauchy_tol, or
their floor is below the ceiling, and M grows on the same test for the
window's share and floor, by the reach of the block's coupling (the largest
|k| of W), at least 4: one step takes in a harmonic far past the window.
At most four truncations are checked, and a
step that would take N past 500 (the Hermite degree cap), or the kept
fiber N (2M + 1) past MAX_FIBER_DIM = 4096, stops the growth; a truncation
that never passes is reported with converged = False and a warning, and
the last truncation checked is the one used.

The floors read W >= -(a + b y^2): (sup |W|, 0) for a bounded W, and
a = F (|g_0| + |g_1| / 2), b = F (|g_2| + |g_1| / 2) for W = f(x) g(y),
F = sup |f| and g a polynomial of degree 1 or 2, by |y| <= (1 + y^2) / 2.
When |c_0| >= sum_{k != 0} |c_k| (every profile_y), f has the sign of c_0,
so g_0 and g_2 count only when of the other sign: 10 y^2 has a = b = 0.
The window's floor alpha_b + beta_b (M + 1/2)^2 - a is then the free one
of the channel with omega^2 weakened to omega^2 - b.  A profile of higher
degree, or b >= omega^2, leaves H without a floor: ConfigError.

- W = W(x) (a separable potential with a constant profile, W = 0 too): the
  displaced Landau basis, where the free part is diagonal, so only W
  couples into Q and the levels' floor is alpha (2N+1) - a.  N starts at 4.
- any other potential: the Hermite basis.  The magnetic ladder from level
  N - 1 to N couples into Q too, and the residual cuts W's overlap G at
  degree 2N - 1 and reads every harmonic of W.  The ladder's 2 B k y >=
  -delta alpha^2 y^2 - B^2 k^2 / (delta alpha^2) at the best delta gives
  the levels' floor (omega^2 - b) A / alpha^2 + max(0, B sqrt(A) / alpha -
  M - 1/2)^2 - a, A = alpha (2N+1).  N starts at 40.

An explicit n_hermite or m_max is a starting size that is only ever
raised; an m_max below the cover is raised to it, with a note.  An
n_hermite above 500, or a starting fiber N (2M + 1) above MAX_FIBER_DIM (a
large ceiling widens M), is a configuration error.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import ChannelParams, Potential, SeparableFourierPotential, _fourier_sup, derive_params
# assemble_fiber is unused here; perfbench's self-test still wraps this binding
from .fiber import FiberBlock, assemble_fiber, fiber_at, fiber_block, landau_block  # noqa: F401
from .fiber import truncation_residuals
from .hermite import project_potential
from .hill import check_harmonics, h00_gaps, hill_bands
from .numutil import RITZ_PAD, BlochBands, GapReport, gap_report, golden_section_minimize, theta_grid
from .schema import ConfigError

__all__ = [
    "BandStructure",
    "GapReport",
    "SweepEntry",
    "GapPersistenceReport",
    "compute_bands",
    "detect_gaps",
    "gap_persistence_sweep",
    "error_estimates",
]

DEFAULT_N_HERMITE = 40
DEFAULT_N_LANDAU = 4
# the residual check projects W up to Hermite degree 2N - 1 <= 999
MAX_N_HERMITE = 500
# the largest dense fiber a truncation search assembles: a complex fiber of
# dimension 4096 holds 256 MiB, and the eigensolver's working copy as much again
MAX_FIBER_DIM = 4096
_GROWTH_STEPS = 4
_PROBES = (0.0, 1.0 / 3.0, -0.5)


@dataclass(frozen=True, eq=False)
class BandStructure(BlochBands):
    """The BlochBands record of the fiber H(theta): sorted band curves with
    refined extrema below an energy ceiling."""

    params: ChannelParams
    energy_ceiling: float
    n_hermite: int
    m_max: int
    converged: bool
    notes: tuple[str, ...] = ()
    basis: str = "hermite"  # or "landau": see the module's truncation policy

    @property
    def spectrum_bottom(self) -> float:
        return float(np.min(self.band_intervals[:, 0]))


def _kinematic_m_cover(params: ChannelParams, ceiling: float) -> int:
    """Fourier window needed for the free dispersion to clear the ceiling."""
    span = max(ceiling - params.alpha, 0.0)
    return int(math.ceil(math.sqrt(span / params.beta) + 0.5)) + 3


def _t_symmetric(spec: Potential) -> bool:
    """Whether E_j(-theta) = E_j(theta) for every band.

    Complex conjugation composed with y -> -y commutes with the magnetic
    Hamiltonian when W is real and even in y, and it maps the fiber at theta
    onto the fiber at -theta; both bases' truncations are mapped onto
    themselves.
    """
    return isinstance(spec, SeparableFourierPotential) and spec.profile.is_even


def _x_only_coeffs(spec: Potential):
    """The (k, W_k) Fourier pairs of W when W depends on x only, else None."""
    if isinstance(spec, SeparableFourierPotential) and spec.profile.is_constant:
        g = float(spec.profile(0.0))
        return tuple((k, c * g) for k, c in spec.coeffs)
    return None


def error_estimates(
    block: FiberBlock, floors: tuple[float, float], ceiling: float, thetas
) -> list[tuple[np.ndarray, float, float, float]]:
    """Eigenvalues below the ceiling at each of ``thetas`` and their truncation error estimates.

    The block's coupling into its discarded space (``truncation_residuals``)
    gives the residuals, and ``floors`` bound H there (``_floors``).
    For each phase: the eigenvalues, the shares of the block estimate
    2 sum r^2 / min (c_Q - lambda) from the discarded levels and from the
    discarded Fourier indices (see the module docstring), one number each
    for all eigenvalues, and the eigensolver's rounding eps ||H||.  The
    shares are 0 at a phase without eigenvalues, else infinite when c_Q does
    not clear the ceiling.  All phases share one ``truncation_residuals``
    call, so the coupling is applied once.
    """
    solved = []
    for theta in thetas:
        h = fiber_at(block, theta)  # real whenever the coefficients are
        vals, vecs = scipy.linalg.eigh(h, subset_by_value=(-np.inf, ceiling))
        rounding = np.finfo(float).eps * float(np.max(np.sum(np.abs(h), axis=1)))
        solved.append((vals, vecs, rounding))
    c_q = min(floors)
    sizes = [vals.size for vals, _, _ in solved]
    stacked = truncation_residuals(block, np.hstack([vecs for _, vecs, _ in solved]), np.repeat(thetas, sizes))
    residuals = zip(*(np.split(r2, np.cumsum(sizes)[:-1]) for r2 in stacked))
    out = []
    for (vals, _, rounding), shares in zip(solved, residuals):
        gap = c_q - np.max(vals, initial=-np.inf)
        levels, window = (
            0.0 if not vals.size else 2.0 * np.sum(r2) / gap if c_q > ceiling else math.inf for r2 in shares
        )
        out.append((vals, levels, window, rounding))
    return out


def _floors(block: FiberBlock, a: float, b: float, hermite: bool) -> tuple[float, float]:
    """Lower bounds of H on the discarded levels n >= N and on the discarded
    Fourier indices |m| > M, given W >= -(a + b y^2) (the module docstring)."""
    p, k = block.params, block.m_max + 0.5
    weak = derive_params(p.B, math.sqrt(p.omega * p.omega - b))  # p itself at b = 0
    levels = p.alpha * (2 * block.n_hermite + 1)
    if hermite:
        shift = max(0.0, p.B * math.sqrt(levels) / p.alpha - k)
        levels = (p.omega * p.omega - b) / p.alpha**2 * levels + shift**2
    return levels - a, weak.alpha + weak.beta * k**2 - a


def _quadratic_bound(spec: Potential, w0: float, params: ChannelParams) -> tuple[float, float]:
    """(a, b) with W >= -(a + b y^2) and b < omega^2 (the module docstring), else ConfigError."""
    if math.isfinite(w0):
        return w0, 0.0
    # W is unbounded only through a polynomial profile
    g0, g1, g2, *higher = (*spec.profile.coeffs, 0.0, 0.0)
    if any(higher):
        raise ConfigError("a profile of degree 3 or more leaves H without the floor the truncation check needs")
    c0 = next((c.real for k, c in spec.coeffs if k == 0), 0.0)
    if abs(c0) >= sum(abs(c) for k, c in spec.coeffs if k != 0):  # f has the sign of c_0
        g0, g2 = (max(-math.copysign(1.0, c0) * g, 0.0) for g in (g0, g2))
    f, g0, g1, g2 = _fourier_sup(spec.coeffs), abs(g0), abs(g1), abs(g2)
    a, b = f * (g0 + 0.5 * g1), f * (g2 + 0.5 * g1)
    if b >= params.omega**2:
        raise ConfigError(f"W >= -({a:.6g} + {b:.6g} y^2) overturns the confinement omega^2 = {params.omega**2:.6g}")
    return a, b


def _grow(build, ceiling: float, tol: float, n_h: int, m_m: int, notes) -> tuple[FiberBlock, bool, int]:
    """Check at most _GROWTH_STEPS truncations, from (n_h, m_m) upwards, by
    the module docstring's rule.  ``build(N, M)`` gives a truncation's block,
    which carries its coupling into the discarded space, and the floors of H
    there.  Returns the last block checked, whether it passed, and its most
    eigenvalues below the ceiling at a probe phase.
    """
    for step in range(_GROWTH_STEPS):
        block, floors = build(n_h, m_m)
        estimates = error_estimates(block, floors, ceiling, _PROBES)
        below = max(vals.size for vals, *_ in estimates)
        worst = max(float(lv + wn) + r for _, lv, wn, r in estimates)
        low_levels, low_window = (floor <= ceiling for floor in floors)
        if worst <= tol and not (low_levels or low_window):
            return block, True, below
        if step + 1 == _GROWTH_STEPS:
            break
        # grow each direction whose share at a phase with eigenvalues takes more than
        # half of what the rounding leaves of the tolerance, or whose floor is below the ceiling
        half = 0.5 * (tol - max(r for *_, r in estimates))
        n_next = 2 * n_h if low_levels or any(vals.size and lv > half for vals, lv, _, _ in estimates) else n_h
        reach = max(4, max((abs(k) for k, *_ in block.coupling), default=0))
        m_next = m_m + reach if low_window or any(vals.size and wn > half for vals, _, wn, _ in estimates) else m_m
        if n_next > MAX_N_HERMITE or n_next * (2 * m_next + 1) > MAX_FIBER_DIM:
            cap = "Hermite degree" if n_next > MAX_N_HERMITE else "fiber dimension"
            notes.append(f"truncation growth stopped at (N={n_h}, M={m_m}) by the {cap} cap")
            break
        n_h, m_m = n_next, m_next
        notes.append(f"truncation raised to (N={n_h}, M={m_m})")
    return block, False, below


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
    ceiling are not trusted.  The basis and the truncation follow the
    module's truncation policy, whose check passes at cauchy_tol;
    n_hermite above MAX_N_HERMITE, a starting fiber N (2M + 1) above
    MAX_FIBER_DIM, a potential without the floor that check reads, and a
    ceiling below the spectrum raise ConfigError.  With refine, xtol
    bounds the phase theta* of each searched edge on its reduced pencil, and
    the edge value is a full solve at theta*; else the grid extrema stand.
    """
    grid = theta_grid(theta_count)
    if not cauchy_tol > 0.0:
        raise ValueError("need cauchy_tol > 0")
    if n_hermite is not None and n_hermite > MAX_N_HERMITE:
        raise ConfigError(f"n_hermite = {n_hermite} exceeds the Hermite degree cap of {MAX_N_HERMITE}")
    w0 = spec.norm_estimates().w0
    if energy_ceiling is None:
        energy_ceiling = 3.0 * params.alpha + (w0 if math.isfinite(w0) else 0.0)
    notes: list[str] = []
    coeffs = _x_only_coeffs(spec)

    # the window starts at the ceiling's kinematic cover; a given m_max is
    # a starting size that is only ever raised
    m_m = _kinematic_m_cover(params, energy_ceiling)
    if m_max is not None:
        if m_max < m_m:
            notes.append(f"m_max raised to {m_m} to cover the energy ceiling")
        m_m = max(m_m, int(m_max))

    if coeffs is None:
        n_h = DEFAULT_N_HERMITE if n_hermite is None else int(n_hermite)
        a, b = _quadratic_bound(spec, w0, params)

        def build(n, m):
            # G to degree 2N - 1, where the residual cuts it
            proj = project_potential(spec, params, nmax=2 * n - 1)
            block = fiber_block(params, proj, n, m)
            return block, _floors(block, a, b, True)

    else:
        n_h = DEFAULT_N_LANDAU if n_hermite is None else int(n_hermite)

        def build(n, m):
            block = landau_block(params, coeffs, n, m)
            return block, _floors(block, w0, 0.0, False)

    if n_h * (2 * m_m + 1) > MAX_FIBER_DIM:
        raise ConfigError(
            f"truncation (N={n_h}, M={m_m}) for ceiling {energy_ceiling:.6g} needs a dense fiber of "
            f"dimension {n_h * (2 * m_m + 1)}, above the cap of {MAX_FIBER_DIM}"
        )
    block, converged, below = _grow(build, energy_ceiling, cauchy_tol, n_h, m_m, notes)
    if not converged:
        warnings.warn(
            f"truncation (N={block.n_hermite}, M={block.m_max}) did not meet the residual truncation "
            f"check at cauchy_tol {cauchy_tol:.1e}; eigenvalues near the ceiling may be unconverged",
            stacklevel=2,
        )

    fields = dict(
        params=params,
        energy_ceiling=float(energy_ceiling),
        n_hermite=block.n_hermite,
        m_max=block.m_max,
        converged=converged,
        notes=tuple(notes),
        basis="hermite" if coeffs is None else "landau",
    )
    # the grid keeps the eigenpairs of the bands below the ceiling and RITZ_PAD
    # more, which the reduced pencils need; a band that dips below the
    # ceiling only between the probe phases can leave too few.  Without
    # refinement nothing reads the eigenvectors, so none are computed
    dim = block.base.shape[0]
    keep = min(below + RITZ_PAD, dim)
    while True:
        bs = BandStructure.on_grid(block, grid, keep, folds=_t_symmetric(spec), eigenvectors=refine, **fields)
        count = bs.count_below(energy_ceiling)
        if count + RITZ_PAD <= keep or keep == dim:
            break
        keep = min(2 * keep, dim)
    if count == 0:
        raise ConfigError(
            f"ceiling {energy_ceiling:.6g} lies below the spectrum (lowest grid eigenvalue {bs.table.min():.6g})"
        )
    if refine:
        return bs.extended(block, count, xtol, minimize=golden_section_minimize)
    return bs.with_grid_extrema(count)


def detect_gaps(band_structure: BandStructure, gap_tolerance: float | None = None) -> GapReport:
    """Maximal intervals below the ceiling not covered by any band."""
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
        # one omega shows no trend, and an unmatched gap (inf) none either
        if len(table) < 2 or not np.all(np.isfinite(table)):
            return False
        return bool(np.all(np.diff(table, axis=0) <= 1e-12))


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
    w0 = spec.norm_estimates().w0
    entries = []
    for omega in omega_list:
        params = derive_params(B, omega)
        ceiling = 3.0 * params.alpha
        pairs = project_potential(spec, params, nmax=0).diag_coeffs(0)
        check_harmonics(pairs, hill_m_max, params.alpha)
        k0 = hill_bands(pairs, hill_m_max, theta_count, band_count=target_gap_count + 1)
        if math.isfinite(w0) and k0.band_count > target_gap_count:
            cover = params.alpha + k0.band_intervals[target_gap_count][1] + 2.0 * w0 + 1.0
            ceiling = min(ceiling, cover)
        # the reference first: a Hill window too small for the ceiling is a
        # config error that needs none of the 2-D band work
        reference = h00_gaps(params, k0, ceiling, gap_tolerance)
        bs = compute_bands(
            params,
            spec,
            theta_count=theta_count,
            energy_ceiling=ceiling,
            n_hermite=n_hermite,
            refine=refine,
        )
        full = detect_gaps(bs, gap_tolerance)
        discrepancies = [math.inf] * target_gap_count
        for g, (rlo, rhi) in enumerate(reference.gaps[:target_gap_count]):
            match = _match_gap((rlo, rhi), full.gaps)
            if match is not None:
                discrepancies[g] = max(abs(match[0] - rlo), abs(match[1] - rhi))
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
