"""Scaled Hermite basis and potential projections.

The transverse basis lives in the scaled variable s = sqrt(alpha) * y:

    phi_n(s) = C_n exp(-s^2/2) H_n(s),   C_n = pi^(-1/4) (2^n n!)^(-1/2),

orthonormal in L^2(ds).  Ladder identities used throughout:

    s   phi_n = sqrt((n+1)/2) phi_{n+1} + sqrt(n/2) phi_{n-1}
    d_s phi_n = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}

Every x-periodic potential is separable, W = f(x) g(y), f = sum_k c_k e^{ikx},
so it enters the fiber operators only through two factors: the pairs
(k, c_k), all unless cut at |k| <= mfourier, and the overlap

    G_{nm} = int phi_n(s) g(s/sqrt(alpha)) phi_m(s) ds,   n, m <= nmax,

by Gauss-Hermite quadrature (exactly g * I for a constant g).  The
coefficient of e^{ikx} between the levels n and m is c_k G_{nm}.  The
factors are theta-independent.  G and the displaced overlaps of the Landau
basis (``fiber.displacement_overlaps``) take the one rule ``gauss_hermite``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import ChannelParams, Potential, SeparableFourierPotential

__all__ = ["ProjectedPotential", "gauss_hermite", "project_potential"]

_MAX_DEGREE = 1000


def _hermite_table(nmax: int, s: np.ndarray) -> np.ndarray:
    """Rows 0..nmax of phi_n evaluated at s (shape (nmax+1,) + s.shape), by
    the stable normalized three-term recurrence.

    Beyond |s| ~ 37 the Gaussian factor underflows, so every row is 0
    there; only the rows above about n = 690, whose phi_n reach that far,
    lose accuracy by it.  The fibers keep levels below 500.
    """
    out = np.empty((nmax + 1,) + s.shape, dtype=float)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * s * s)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * s * out[0]
    for n in range(1, nmax):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * s * out[n] - math.sqrt(n / (n + 1)) * out[n - 1]
    return out


def gauss_hermite(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The Gauss-Hermite rule of ``order`` points as (nodes, weights times
    e^{s^2}), so that for smooth f

        int f(s) phi_n(s) phi_m(s) ds ~= sum_i weights[i] f(s_i) phi_n(s_i) phi_m(s_i),

    exact whenever f H_n H_m is a polynomial of degree <= 2 order - 1.

    The nodes are the eigenvalues of the Jacobi matrix of the ladder
    identity, off-diagonal sqrt(k/2) (Golub and Welsch, Math. Comp. 23, 221,
    1969), then one Newton step on phi_order, whose slope at a zero is
    sqrt(2 order) phi_{order-1}.  By Christoffel-Darboux the scaled weight is
    1 / (order phi_{order-1}(s_i)^2), which the Gaussian factor of the table
    keeps finite; it is 0 where phi_{order-1} underflows (|s| > 37, which
    only orders above 700 reach), as is every phi_n the table gives there.
    """
    nodes = scipy.linalg.eigvalsh_tridiagonal(np.zeros(order), np.sqrt(0.5 * np.arange(1, order)))
    prev, last = _hermite_table(order, nodes)[-2:]
    slope = math.sqrt(2.0 * order) * prev
    nodes -= np.divide(last, slope, out=np.zeros(order), where=slope != 0.0)
    square = order * _hermite_table(order - 1, nodes)[-1] ** 2
    return nodes, np.divide(1.0, square, out=np.zeros(order), where=square > 0.0)


@dataclass(eq=False)
class ProjectedPotential:
    """The two factors of W = f(x) g(y) (module docstring): the pairs (k, c_k),
    with |k| <= mfourier unless it is None, and the overlap G of g."""

    alpha: float
    nmax: int
    mfourier: int | None
    fourier: tuple[tuple[int, complex], ...]
    overlap: np.ndarray

    def diag_coeffs(self, n: int) -> tuple[tuple[int, complex], ...]:
        """The pairs (k, c_k G_nn) of W_n(x) = <phi_n| W |phi_n>, the potential of K_n."""
        return tuple((k, c * self.overlap[n, n]) for k, c in self.fourier)


_ALIASING_RTOL = 1e-8


def project_potential(
    spec: Potential,
    params: ChannelParams,
    nmax: int,
    mfourier: int | None = None,
) -> ProjectedPotential:
    """Project W onto the scaled Hermite basis and the x-Fourier modes.

    Requires an x-periodic kind, that is the separable W = f(x) g(y) that
    every periodic config kind builds (W = 0 has no harmonics and g = 1).
    Returns its two factors (see the module docstring); the tests
    cross-check their products against a tensor-grid projection.  An
    integer ``mfourier`` keeps only |k| <= mfourier, and warns when it drops
    a coefficient above 1e-8 of the largest one kept.
    """
    if not 0 <= nmax <= _MAX_DEGREE:
        raise ValueError(f"nmax must be in [0, {_MAX_DEGREE}], got {nmax}")
    if not isinstance(spec, SeparableFourierPotential):
        raise ValueError(f"potential kind {spec.kind!r} is not 2*pi-periodic in x")
    if mfourier is not None and mfourier < 0:
        raise ValueError("mfourier must be >= 0")
    fourier = spec.coeffs if mfourier is None else _kept_harmonics(spec.coeffs, mfourier)
    overlap = _profile_overlap(spec.profile, params, nmax)
    overlap.setflags(write=False)
    return ProjectedPotential(
        alpha=params.alpha, nmax=nmax, mfourier=mfourier, fourier=fourier, overlap=overlap
    )


def _profile_overlap(profile, params: ChannelParams, nmax: int) -> np.ndarray:
    """G = <phi_n| g(s/sqrt(alpha)) |phi_m>, n, m <= nmax, for a transverse
    profile g: the Gauss-Hermite rule of order 2 nmax + 16, exact for a
    polynomial g of degree <= 2 nmax + 31, and the phi_n on its nodes."""
    if profile.is_constant:
        return profile(0.0) * np.eye(nmax + 1)
    s, w = gauss_hermite(2 * nmax + 16)
    phi = _hermite_table(nmax, s)
    return (phi * (w * profile(s / math.sqrt(params.alpha)))) @ phi.T


def _kept_harmonics(coeffs, mfourier: int) -> tuple[tuple[int, complex], ...]:
    """The pairs with |k| <= mfourier; warns when a dropped one exceeds
    _ALIASING_RTOL of the largest one kept."""
    kept = tuple((k, c) for k, c in coeffs if abs(k) <= mfourier)
    top = max((abs(c) for _, c in kept), default=0.0)
    dropped = max((abs(c) for k, c in coeffs if abs(k) > mfourier), default=0.0)
    if dropped > _ALIASING_RTOL * top:
        rel = dropped / top if top > 0.0 else math.inf
        warnings.warn(
            f"Fourier cutoff mfourier={mfourier} drops coefficients of relative size "
            f"{rel:.2e}; raise mfourier",
            stacklevel=2,
        )
    return kept
