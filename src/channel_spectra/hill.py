"""One-dimensional periodic (Hill) operators on [0, 2*pi].

K(theta) = -d_x^2 + V(x) with the twisted boundary condition
f(2 pi) = e^{2 pi i theta} f(0).  In the Fourier basis e^{i(m+theta)x} it
is a fiber of one level (fiber.hill_block): diag (m+theta)^2 plus the
Toeplitz matrix of the Fourier coefficients of V, assembled and solved as
the channel fiber is.  The decoupled reference operator of the channel is

    H_{n,n} = alpha (2n+1) + K_n(theta),   V_n = W_n(x) = <phi_n| W |phi_n>,

whose n = 0 gaps the full band computation is compared against.
hill_bands runs the channel fiber's Bloch band driver (numutil.BlochBands)
on K_0, a quadratic pencil in theta with K'(theta) = 2 diag(m + theta)
(FiberBlock.slope): one solve per grid phase theta >= 0, since V is real and
E_j(-theta) = E_j(theta), then the edges of its lowest bands; h00_gaps
extends that HillBands record to the bands beyond them.

An independent oracle discretizes K(theta) by central finite differences on
a uniform grid with the phase-wrapped corner entries and Richardson
extrapolation in the step size; it shares nothing with the Fourier route
but the potential values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .channel import ChannelParams
from .fiber import FiberMatrix, eigenvalues_fiber, fiber_at, fiber_pencil, hill_block
from .numutil import BlochBands, GapReport, ThetaPencil, gap_report, golden_section_minimize, theta_grid
from .schema import ConfigError

__all__ = [
    "hill_matrix",
    "hill_spectrum",
    "fd_hill_eigenvalues",
    "fd_hill_richardson",
    "HillBands",
    "hill_bands",
    "h00_gaps",
]


def _coeff_pairs(coeffs):
    """The (k, c_k) of a mapping k -> c_k or of an odd-length array centred at k = 0."""
    if isinstance(coeffs, Mapping):
        return coeffs.items()
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size % 2 == 0:
        raise ValueError("coefficient array must have odd length 2*K+1 for k in [-K, K]")
    return zip(range(-(arr.size // 2), arr.size // 2 + 1), arr)


def hill_matrix(coeffs, theta: float, m_max: int = 32) -> FiberMatrix:
    """The fiber matrix of -d^2 + V at Bloch phase theta, ``fiber_at`` of its
    one-level ``hill_block``.

    coeffs: mapping k -> c_k or odd-length array centered at k = 0, with
    V(x) = sum_k c_k e^{ikx} and c_{-k} = conj(c_k).
    """
    return fiber_at(hill_block(_coeff_pairs(coeffs), m_max), theta)


def hill_spectrum(coeffs, theta: float, m_max: int = 32, count: int | None = None, vectors: bool = False):
    """Ascending eigenvalues of the Fourier-discretized Hill operator (the
    lowest ``count`` if given); with ``vectors``, the pair (eigenvalues,
    eigenvectors as columns).  The channel fiber's eigensolver,
    eigenvalues_fiber, solves it."""
    return eigenvalues_fiber(hill_matrix(coeffs, theta, m_max), count, vectors=vectors)


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
    fixed start vector, so results are deterministic.
    """
    if n_points < 8:
        raise ValueError("need at least 8 grid points")
    h = 2.0 * math.pi / n_points
    x = h * np.arange(n_points)
    v = np.asarray(potential(x), dtype=float)
    main = 2.0 / h**2 + v
    off = -np.ones(n_points - 1) / h**2
    mat = scipy.sparse.diags(
        [off, main, off], offsets=[-1, 0, 1], format="lil", dtype=complex
    )
    phase = complex(math.cos(2.0 * math.pi * theta), math.sin(2.0 * math.pi * theta))
    mat[n_points - 1, 0] += -phase / h**2
    mat[0, n_points - 1] += -phase.conjugate() / h**2
    sigma = float(np.min(v)) - 1.0
    vals = scipy.sparse.linalg.eigsh(
        mat.tocsc(),
        k=count,
        sigma=sigma,
        which="LM",
        v0=np.ones(n_points) / math.sqrt(n_points),
        return_eigenvectors=False,
    )
    return np.sort(vals.real)


def fd_hill_richardson(
    potential: Callable[[np.ndarray], np.ndarray],
    theta: float,
    count: int,
    n_points: int = 2048,
) -> np.ndarray:
    """Richardson-extrapolated finite-difference eigenvalues.

    The h^2 error term of the central difference cancels in
    (4 E_{2h->h} - E_h) / 3, leaving O(h^4).
    """
    coarse = fd_hill_eigenvalues(potential, theta, n_points // 2, count)
    fine = fd_hill_eigenvalues(potential, theta, n_points, count)
    return (4.0 * fine - coarse) / 3.0


# ---------------------------------------------------------------------------
# band structure of a Hill operator


@dataclass(frozen=True, eq=False)
class HillBands(BlochBands):
    """The Hill operator -d^2 + V on a theta grid, solved once: its table
    holds all 2 m_max + 1 eigenvalues at each solved phase, with their
    eigenvectors.  h00_gaps reads the bands with intervals and extends the
    record to those beyond them."""

    coeffs: dict  # k -> c_k, as given
    m_max: int


def _hill_pencil(coeffs, m_max: int) -> ThetaPencil:
    """K(theta) as a theta-pencil.  V is real, so E_j(-theta) = E_j(theta)
    and the grid folds.  hill_spectrum is read at call time, so a wrapper
    installed on it sees every Hill solve."""
    return fiber_pencil(
        hill_block(coeffs.items(), m_max),
        folds=True,
        solve=lambda t, count=None, vectors=False: hill_spectrum(coeffs, t, m_max, count, vectors=vectors),
    )


def hill_bands(coeffs, m_max: int = 32, theta_count: int = 17, band_count: int = 8) -> HillBands:
    """Band structure of -d^2 + V over a uniform theta grid.

    One solve per phase theta >= 0 gives the whole table, mirrored to
    -theta; the intervals of the lowest band_count bands (fewer when the
    window holds fewer) follow from BlochBands.extended.  theta_count must
    be odd and >= 9 so the grid contains theta = 0 and the +-1/2 endpoints,
    where band edges of real potentials sit; the zero slopes and Ritz
    curvatures there verify that numerically instead of assuming it.
    """
    grid = theta_grid(theta_count)
    c = dict(_coeff_pairs(coeffs))
    pencil = _hill_pencil(c, m_max)
    hill = HillBands.on_grid(pencil, grid, coeffs=c, m_max=m_max)
    return hill.extended(pencil, band_count, 1e-8, minimize=golden_section_minimize)


def h00_gaps(
    params: ChannelParams, hill: HillBands, ceiling: float, gap_tolerance: float | None = None
) -> GapReport:
    """Spectral gaps of the decoupled block H_{0,0} = alpha + spec(K_0) below the ceiling.

    ``hill`` is the band structure of K_0 = -d_x^2 + W_0(x), W_0 the lowest
    diagonal Hermite projection of the potential.  Every band whose grid
    minimum lies at or below ceiling - alpha is kept, and at least the free
    count 2 sqrt(ceiling - alpha) + 4.  The top three eigenvalues of the
    Fourier window m_max are not trusted, so a ceiling that needs more than
    2 m_max - 2 bands raises ConfigError.  The kept bands reuse hill's
    refined intervals; only those beyond them are refined here.
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
    pencil = _hill_pencil(hill.coeffs, hill.m_max)
    kept = hill.extended(pencil, max(free, below), 1e-8, minimize=golden_section_minimize)
    shifted = [(params.alpha + lo, params.alpha + hi) for lo, hi in kept.band_intervals]
    return gap_report(shifted, params.alpha, ceiling, gap_tolerance)
