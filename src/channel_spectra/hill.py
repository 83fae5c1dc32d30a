"""One-dimensional periodic (Hill) operators on [0, 2*pi].

K(theta) = -d_x^2 + V(x) with the twisted boundary condition
f(2 pi) = e^{2 pi i theta} f(0).  In the Fourier basis e^{i(m+theta)x} it
is a fiber of one level (fiber.hill_block): diag (m+theta)^2 plus the
Toeplitz matrix of the Fourier coefficients of V, assembled and solved as
the channel fiber is.  V is given by its pairs (k, c_k), or a mapping
k -> c_k.  The decoupled reference operator of the channel is

    H_{n,n} = alpha (2n+1) + K_n(theta),   V_n = W_n(x) = <phi_n| W |phi_n>,

whose n = 0 gaps the full band computation is compared against.
hill_bands builds the one hill_block of a request and hands it to
numutil.BlochBands, which tabulates K_0 on a theta grid with one
eigenvalues-only solve per phase theta >= 0, since V is real and
E_j(-theta) = E_j(theta).  Each band is then monotone in |theta| on
[0, 1/2] (Reed-Simon IV, Thm XIII.89; Magnus-Winkler 1966), so its edges
sit at the grid phases 0 and 1/2: the band intervals are grid extrema.
h00_gaps refuses a Fourier window that does not resolve V below the
ceiling: one that leaves out harmonics of V (check_harmonics, which needs
no solve), or whose eigenvalues move when one wider block is solved at
theta = 0 and 1/2.

An independent oracle discretizes K(theta) by central finite differences on
a uniform grid with the phase-wrapped corner entries and Richardson
extrapolation in the step size; it shares nothing with the Fourier route
but the potential values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .channel import ChannelParams
from .fiber import fiber_at, hill_block
# golden_section_minimize is unused here; perfbench's self-test still wraps this binding
from .numutil import BlochBands, GapReport, gap_report, golden_section_minimize, theta_grid  # noqa: F401
from .schema import ConfigError

__all__ = [
    "hill_matrix",
    "hill_spectrum",
    "fd_hill_eigenvalues",
    "fd_hill_richardson",
    "HillBands",
    "hill_bands",
    "check_harmonics",
    "h00_gaps",
]


def hill_matrix(coeffs, theta: float, m_max: int = 32) -> np.ndarray:
    """The dense matrix of -d^2 + V at Bloch phase theta on the Fourier
    window |m| <= m_max, ``fiber_at`` of its one-level ``hill_block``.

    coeffs: the pairs (k, c_k), or a mapping k -> c_k, with
    V(x) = sum_k c_k e^{ikx} and c_{-k} = conj(c_k).
    """
    return fiber_at(hill_block(coeffs, m_max), theta)


def hill_spectrum(coeffs, theta: float, m_max: int = 32, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the Fourier-discretized Hill operator at one
    phase (the lowest ``count`` if given): ``FiberBlock.solve`` of its
    ``hill_block``."""
    return hill_block(coeffs, m_max).solve(theta, count)


# ---------------------------------------------------------------------------
# finite-difference oracle


def fd_hill_eigenvalues(
    potential: Callable[[np.ndarray], np.ndarray],
    theta: float,
    n_points: int,
    count: int,
) -> np.ndarray:
    """Lowest eigenvalues of the central-difference Hill matrix.

    The twisted boundary condition enters only the two corner entries
    -e^{+-2 pi i theta}/h^2.  Solved in shift-invert Lanczos mode with a
    fixed start vector, so results are deterministic on a grid of at least
    twice the Lanczos basis, max(2 count + 1, 20) vectors; a smaller grid
    raises ValueError.  Below that, repeated calls differed at V constant
    and theta = 0, where the start vector is itself an eigenvector and the
    basis spans most of the space.
    """
    basis = max(2 * count + 1, 20)
    if n_points < 2 * basis:
        raise ValueError(f"need at least {2 * basis} grid points for {count} eigenvalues, got {n_points}")
    h = 2.0 * math.pi / n_points
    x = h * np.arange(n_points)
    v = np.asarray(potential(x), dtype=float)
    main = 2.0 / h**2 + v
    off = -np.ones(n_points - 1) / h**2
    phase = complex(math.cos(2.0 * math.pi * theta), math.sin(2.0 * math.pi * theta))
    last = n_points - 1
    corners = scipy.sparse.csc_matrix(
        ([-phase / h**2, -phase.conjugate() / h**2], ([last, 0], [0, last])),
        shape=(n_points, n_points),
    )
    mat = scipy.sparse.diags([off, main, off], offsets=[-1, 0, 1], format="csc", dtype=complex) + corners
    sigma = float(np.min(v)) - 1.0
    vals = scipy.sparse.linalg.eigsh(
        mat,
        k=count,
        sigma=sigma,
        which="LM",
        v0=np.ones(n_points) / math.sqrt(n_points),
        return_eigenvectors=False,
    )
    return np.sort(vals.real)


def _coarse_points(n_points: int) -> int:
    """The Richardson coarse grid, n_points / 2: the step ratio must be exactly 2."""
    if n_points % 2:
        raise ValueError(f"Richardson extrapolation needs an even number of grid points, got {n_points}")
    return n_points // 2


def fd_hill_richardson(
    potential: Callable[[np.ndarray], np.ndarray],
    theta: float,
    count: int,
    n_points: int = 2048,
) -> np.ndarray:
    """Richardson-extrapolated finite-difference eigenvalues.

    The h^2 error term of the central difference cancels in
    (4 E_h - E_{2h}) / 3, leaving O(h^4); E_{2h} is solved on n_points / 2
    points, so an odd n_points raises ValueError.
    """
    coarse = fd_hill_eigenvalues(potential, theta, _coarse_points(n_points), count)
    fine = fd_hill_eigenvalues(potential, theta, n_points, count)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# band structure of a Hill operator


@dataclass(frozen=True, eq=False)
class HillBands(BlochBands):
    """The Hill operator -d^2 + V on a theta grid, solved once for the
    eigenvalues alone: all 2 m_max + 1 of them at each phase."""

    coeffs: dict  # k -> c_k
    m_max: int


def hill_bands(coeffs, m_max: int = 32, theta_count: int = 17, band_count: int = 8) -> HillBands:
    """Band structure of -d^2 + V over a uniform theta grid.

    One hill_block serves the request: one eigenvalues-only solve of it per
    phase theta >= 0 gives the whole table, mirrored to -theta.
    theta_count must be odd and >= 9 so the grid contains theta = 0 and
    +-1/2, where the band edges sit; the intervals of the lowest band_count
    bands (fewer when the window holds fewer) are the extrema over the whole
    grid, never narrower than the end rows near the top of the Fourier
    window, where monotonicity is only approximate.
    """
    grid = theta_grid(theta_count)
    c = dict(coeffs)
    # V is real, so the grid folds
    hill = HillBands.on_grid(hill_block(c, m_max), grid, folds=True, eigenvectors=False, coeffs=c, m_max=m_max)
    return hill.with_grid_extrema(band_count)


def check_harmonics(coeffs, m_max: int, alpha: float) -> None:
    """ConfigError when the harmonics of V (coeffs as for hill_matrix) past
    |k| = 2 m_max, which the window m_max leaves out, sum to over 1e-6 alpha."""
    tol = 1e-6 * alpha
    beyond = sum(abs(c) for k, c in dict(coeffs).items() if abs(k) > 2 * m_max)
    if beyond > tol:
        raise ConfigError(
            f"Fourier window m_max = {m_max} does not resolve V: its harmonics past |k| = "
            f"{2 * m_max} sum to {beyond:.3g}, more than {tol:.3g}"
        )


def h00_gaps(
    params: ChannelParams, hill: HillBands, ceiling: float, gap_tolerance: float | None = None
) -> GapReport:
    """Spectral gaps of the decoupled block H_{0,0} = alpha + spec(K_0) below the ceiling.

    ``hill`` is the band structure of K_0 = -d_x^2 + W_0(x), W_0 the lowest
    diagonal Hermite projection of the potential.  Every band whose grid
    minimum lies at or below ceiling - alpha is kept, and at least the free
    count 2 sqrt(ceiling - alpha) + 4.  The top three eigenvalues of the
    Fourier window m_max are not trusted, so a ceiling that needs more than
    2 m_max - 2 bands raises ConfigError, as does one that no band reaches.  So does a window too small for
    V, by 1e-6 alpha, the default gap tolerance: one that check_harmonics
    refuses (the commands call it before hill_bands too), or whose
    eigenvalues at or below ceiling - alpha move by more than that at
    theta = 0 or 1/2 when m_max grows by 4.  The kept bands' intervals are
    their grid extrema in hill's table.
    """
    trusted = 2 * hill.m_max - 2
    # free bands reach (k/2)^2, so the free count is a floor; W_0 shifts bands down
    free = min(trusted, int(2.0 * math.sqrt(max(ceiling - params.alpha, 1.0))) + 4)
    below = hill.count_below(ceiling - params.alpha)
    if below > trusted:
        raise ConfigError(
            f"ceiling {ceiling:.6g} needs at least {below} Hill bands, more than the "
            f"{trusted} that the Fourier window m_max = {hill.m_max} resolves"
        )
    if below == 0:
        lowest = params.alpha + hill.table.min()
        raise ConfigError(f"ceiling {ceiling:.6g} lies below the spectrum (lowest grid eigenvalue {lowest:.6g})")
    check_harmonics(hill.coeffs, hill.m_max, params.alpha)
    tol = 1e-6 * params.alpha
    wider = hill_block(hill.coeffs, hill.m_max + 4)
    for theta, row in ((0.0, hill.table[len(hill.table) // 2]), (0.5, hill.table[-1])):
        low = row[row <= ceiling - params.alpha]
        shift = float(np.max(np.abs(low - wider.solve(theta, low.size)), initial=0.0))
        if shift > tol:
            raise ConfigError(
                f"Fourier window m_max = {hill.m_max} does not resolve V: widening it by 4 moves a Hill "
                f"eigenvalue below the ceiling {ceiling:.6g} by {shift:.3g}, more than {tol:.3g}"
            )
    kept = hill.with_grid_extrema(max(free, below))
    shifted = [(params.alpha + lo, params.alpha + hi) for lo, hi in kept.band_intervals]
    return gap_report(shifted, params.alpha, ceiling, gap_tolerance)
