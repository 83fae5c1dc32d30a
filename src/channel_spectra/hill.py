"""One-dimensional periodic (Hill) operators on [0, 2*pi].

K(theta) = -d_x^2 + V(x) with the twisted boundary condition
f(2 pi) = e^{2 pi i theta} f(0).  In the Fourier basis e^{i(m+theta)x} the
matrix is diag (m+theta)^2 plus the Toeplitz matrix of the Fourier
coefficients of V.  The decoupled reference operator of the channel is

    H_{n,n} = alpha (2n+1) + K_n(theta),   V_n = W_n(x) = <phi_n| W |phi_n>,

whose n = 0 gaps the full band computation is compared against.
hill_bands solves K_0 once per grid phase and refines its lowest bands;
h00_gaps reads that HillBands and refines only the bands beyond them.

An independent oracle discretizes K(theta) by central finite differences on
a uniform grid with the phase-wrapped corner entries and Richardson
extrapolation in the step size; it shares nothing with the Fourier route
but the potential values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from .channel import ChannelParams
from .numutil import GapReport, gap_report, golden_section_minimize, refine_band_edge, theta_grid
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


def _coeff_array(coeffs, kmax: int) -> np.ndarray:
    """c_k for k = -kmax..kmax as a complex array, zero where not given."""
    out = np.zeros(2 * kmax + 1, dtype=complex)
    if isinstance(coeffs, Mapping):
        for k, v in coeffs.items():
            if abs(int(k)) <= kmax:
                out[int(k) + kmax] = complex(v)
        return out
    arr = np.asarray(coeffs)
    if arr.ndim != 1 or arr.size % 2 == 0:
        raise ValueError("coefficient array must have odd length 2*K+1 for k in [-K, K]")
    half = arr.size // 2
    keep = min(half, kmax)
    out[kmax - keep : kmax + keep + 1] = arr[half - keep : half + keep + 1]
    return out


def hill_matrix(coeffs, theta: float, m_max: int = 32) -> np.ndarray:
    """Fourier matrix of -d^2 + V at Bloch phase theta.

    coeffs: mapping k -> c_k or odd-length array centered at k = 0, with
    V(x) = sum_k c_k e^{ikx} and c_{-k} = conj(c_k).
    """
    if abs(theta) > 0.5 + 1e-12:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    c = _coeff_array(coeffs, 2 * m_max)
    ms = np.arange(-m_max, m_max + 1)
    h = c[ms[:, None] - ms[None, :] + 2 * m_max]
    h[np.arange(ms.size), np.arange(ms.size)] += (ms + theta) ** 2
    dev = float(np.max(np.abs(h - h.conj().T)))
    if dev > 1e-12 * max(1.0, float(np.max(np.abs(h)))):
        raise ValueError("coefficients violate c_-k = conj(c_k); matrix not Hermitian")
    return 0.5 * (h + h.conj().T)


def hill_spectrum(coeffs, theta: float, m_max: int = 32, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the Fourier-discretized Hill operator."""
    vals = scipy.linalg.eigh(hill_matrix(coeffs, theta, m_max), eigvals_only=True)
    return vals[:count] if count is not None else vals


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
class HillBands:
    """The Hill operator -d^2 + V on a theta grid, solved once.

    ``table`` holds all 2 m_max + 1 ascending eigenvalues at each grid
    phase; ``band_intervals`` the [min, max] of the lowest bands, refined
    around their grid extrema.  h00_gaps reads both and refines only the
    bands beyond them.  The arrays are read-only.
    """

    coeffs: np.ndarray  # c_k for k = -2 m_max..2 m_max
    m_max: int
    theta_grid: np.ndarray
    table: np.ndarray  # (theta_count, 2 m_max + 1)
    band_intervals: np.ndarray  # (band_count, 2), refined

    @property
    def bands(self) -> np.ndarray:
        """The grid curves of the refined bands, (theta_count, band_count)."""
        return self.table[:, : len(self.band_intervals)]


def _refined(hill: HillBands, count: int) -> HillBands:
    """hill with the [min, max] of its lowest count bands (fewer when the
    window holds fewer), reusing the refined bands it holds.  Each new edge
    is sharpened by refine_band_edge around its grid extremum, minimum
    before maximum; the name golden_section_minimize is read here at call
    time, so a wrapper installed on it sees every Hill search."""

    def edge(j: int, sign: float) -> float:
        return refine_band_edge(
            lambda t: float(hill_spectrum(hill.coeffs, t, hill.m_max)[j]),
            hill.theta_grid, hill.table[:, j], sign, 1e-8, minimize=golden_section_minimize,
        )

    known = hill.band_intervals[:count]
    new = [[edge(j, 1.0), edge(j, -1.0)] for j in range(len(known), min(count, hill.table.shape[1]))]
    intervals = np.vstack([known, np.array(new, dtype=float).reshape(-1, 2)])
    intervals.setflags(write=False)
    return replace(hill, band_intervals=intervals)


def hill_bands(coeffs, m_max: int = 32, theta_count: int = 17, band_count: int = 8) -> HillBands:
    """Band structure of -d^2 + V over a uniform theta grid.

    One solve per grid phase gives the whole table; the lowest band_count
    bands (fewer when the window holds fewer) are refined.  theta_count
    must be odd and >= 9 so the grid contains theta = 0 and the +-1/2
    endpoints, where band edges of real potentials sit; the Brent
    refinement around each grid extremum verifies that numerically instead
    of assuming it.
    """
    grid = theta_grid(theta_count)
    c = _coeff_array(coeffs, 2 * m_max)
    table = np.vstack([hill_spectrum(c, float(t), m_max) for t in grid])
    for arr in (c, grid, table):
        arr.setflags(write=False)
    return _refined(HillBands(c, m_max, grid, table, np.empty((0, 2))), band_count)


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
    if gap_tolerance is None:
        gap_tolerance = 1e-6 * params.alpha
    trusted = 2 * hill.m_max - 2
    # free bands reach (k/2)^2, so the free count is a floor; W_0 shifts bands down
    free = min(trusted, int(2.0 * math.sqrt(max(ceiling - params.alpha, 1.0))) + 4)
    below = int(np.searchsorted(hill.table.min(axis=0), ceiling - params.alpha, side="right"))
    if below > trusted:
        raise ConfigError(
            f"ceiling {ceiling:.6g} needs at least {below} Hill bands, more than the "
            f"{trusted} that the Fourier window m_max = {hill.m_max} resolves"
        )
    intervals = _refined(hill, max(free, below)).band_intervals
    shifted = [(params.alpha + lo, params.alpha + hi) for lo, hi in intervals]
    return gap_report(shifted, params.alpha, ceiling, gap_tolerance)
