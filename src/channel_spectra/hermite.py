"""Scaled Hermite basis and potential projections.

The transverse basis lives in the scaled variable s = sqrt(alpha) * y:

    phi_n(s) = C_n exp(-s^2/2) H_n(s),   C_n = pi^(-1/4) (2^n n!)^(-1/2),

orthonormal in L^2(ds).  Ladder identities used throughout:

    s   phi_n = sqrt((n+1)/2) phi_{n+1} + sqrt(n/2) phi_{n-1}
    d_s phi_n = sqrt(n/2) phi_{n-1} - sqrt((n+1)/2) phi_{n+1}

A potential W enters the fiber operators only through its projections

    W_{n,m}(x)   = int phi_n(s) phi_m(s) W(x, s/sqrt(alpha)) ds
    c^{(n,m)}_k  = (2 pi)^{-1} int_0^{2 pi} exp(-i k x) W_{n,m}(x) dx,

computed with Gauss-Hermite quadrature in s and a uniform trapezoid (DFT)
in x.  Projections are theta-independent and cached per (spec, alpha, Nmax).
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermgauss

from .channel import ChannelParams, Potential, SeparableFourierPotential, ZeroPotential

__all__ = ["hermite_eval", "HermiteBasis", "ProjectedPotential", "project_potential"]

_MAX_DEGREE = 1000


def hermite_eval(n: int, s) -> np.ndarray:
    """phi_n(s) by the stable normalized three-term recurrence.

    Degrees up to 1000 are supported; beyond |s| ~ 37 the Gaussian factor
    underflows for low n, which is harmless for the quadrature sizes used.
    """
    if not 0 <= n <= _MAX_DEGREE:
        raise ValueError(f"degree must be in [0, {_MAX_DEGREE}]")
    s = np.asarray(s, dtype=float)
    return _hermite_table(n, s)[n]


def _hermite_table(nmax: int, s: np.ndarray) -> np.ndarray:
    """Rows 0..nmax of phi_n evaluated at s (shape (nmax+1,) + s.shape)."""
    out = np.empty((nmax + 1,) + s.shape, dtype=float)
    out[0] = math.pi ** (-0.25) * np.exp(-0.5 * s * s)
    if nmax >= 1:
        out[1] = math.sqrt(2.0) * s * out[0]
    for n in range(1, nmax):
        out[n + 1] = math.sqrt(2.0 / (n + 1)) * s * out[n] - math.sqrt(n / (n + 1)) * out[n - 1]
    return out


@dataclass(eq=False)
class HermiteBasis:
    """phi_0..phi_nmax tabulated on Gauss-Hermite nodes.

    ``weights`` absorb the e^{+s^2} factor so that for smooth f

        int f(s) phi_n(s) phi_m(s) ds ~= sum_i weights[i] f(s_i) phi[n,i] phi[m,i],

    exact whenever f * H_n * H_m is a polynomial of degree <= 2*order - 1.
    """

    nmax: int
    order: int
    nodes: np.ndarray
    weights: np.ndarray
    phi: np.ndarray

    @classmethod
    def build(cls, nmax: int, order: int | None = None) -> "HermiteBasis":
        if nmax < 0 or nmax > _MAX_DEGREE:
            raise ValueError("nmax out of range")
        if order is None:
            order = 2 * nmax + 16
        nodes, gh_weights = hermgauss(order)
        # exp(s^2) in log space: raw weights underflow near the edge nodes
        weights = np.exp(np.log(gh_weights) + nodes * nodes)
        phi = _hermite_table(nmax, nodes)
        for arr in (nodes, weights, phi):
            arr.setflags(write=False)
        return cls(nmax=nmax, order=order, nodes=nodes, weights=weights, phi=phi)

    def overlap(self, fvals: np.ndarray) -> np.ndarray:
        """Matrix <phi_n| f |phi_m> for f tabulated on the nodes."""
        wphi = self.weights * self.phi
        return np.einsum("ni,i,mi->nm", wphi, np.asarray(fvals, dtype=float), self.phi)


@dataclass(eq=False)
class ProjectedPotential:
    """Fourier coefficients c^{(n,m)}_k of the Hermite-projected potential.

    coeffs has shape (nmax+1, nmax+1, 2*mfourier+1) indexed [n, m, k+mfourier].
    Hermitian symmetry c^{(n,m)}_k = conj(c^{(m,n)}_{-k}) holds by
    construction for real W.
    """

    alpha: float
    nmax: int
    mfourier: int
    coeffs: np.ndarray

    def diag_coeffs(self, n: int) -> np.ndarray:
        """c^{(n,n)}_k for k = -mfourier..mfourier."""
        return self.coeffs[n, n]


_ALIASING_RTOL = 1e-8
_CACHE: dict[tuple, ProjectedPotential] = {}
_CACHE_LIMIT = 32


def project_potential(
    spec: Potential,
    params: ChannelParams,
    nmax: int,
    mfourier: int = 16,
    order: int | None = None,
) -> ProjectedPotential:
    """Project W onto the scaled Hermite basis and the x-Fourier modes.

    Requires an x-periodic kind: W = 0, or the separable W = f(x) g(y)
    that every other periodic config kind builds.  Its projection factors
    into the Fourier coefficients of f times the overlap matrix
    <phi_n| g |phi_m>, by Gauss-Hermite quadrature, or exactly g * I for a
    constant g (the tests cross-check it against a tensor-grid projection).
    Warns when Fourier coefficients beyond |k| = mfourier are dropped that
    exceed 1e-8 of the largest one kept.
    """
    if not 0 <= nmax <= _MAX_DEGREE:
        raise ValueError(f"nmax must be in [0, {_MAX_DEGREE}], got {nmax}")
    if not spec.periodic_in_x:
        raise ValueError(f"potential kind {spec.kind!r} is not 2*pi-periodic in x")
    if mfourier < 0:
        raise ValueError("mfourier must be >= 0")
    if not isinstance(spec, (ZeroPotential, SeparableFourierPotential)):
        raise ValueError(f"no Hermite projection for potential kind {spec.kind!r}")
    # both kinds are frozen dataclasses: equal and hashed on their fields
    key = (spec, params.alpha, nmax, mfourier, order)
    hit = _CACHE.get(key)
    if hit is not None:
        return hit

    if isinstance(spec, ZeroPotential):
        coeffs = np.zeros((nmax + 1, nmax + 1, 2 * mfourier + 1), dtype=complex)
    else:
        coeffs = _project_separable(spec.coeffs, spec.profile, params, nmax, mfourier, order)
    coeffs.setflags(write=False)
    proj = ProjectedPotential(alpha=params.alpha, nmax=nmax, mfourier=mfourier, coeffs=coeffs)
    if len(_CACHE) >= _CACHE_LIMIT:
        _CACHE.pop(next(iter(_CACHE)))
    _CACHE[key] = proj
    return proj


def _profile_overlap(profile, params: ChannelParams, nmax: int, order: int | None) -> np.ndarray:
    """<phi_n| g(s/sqrt(alpha)) |phi_m> for a transverse profile g."""
    if profile.is_constant:
        return profile(0.0) * np.eye(nmax + 1)
    basis = HermiteBasis.build(nmax, order)
    gvals = profile(basis.nodes / math.sqrt(params.alpha))
    return basis.overlap(gvals)


def _project_separable(coeffs, profile, params, nmax, mfourier, order) -> np.ndarray:
    overlap = _profile_overlap(profile, params, nmax, order)
    out = np.zeros((nmax + 1, nmax + 1, 2 * mfourier + 1), dtype=complex)
    dropped = 0.0
    kept = 0.0
    for k, c in coeffs:
        if abs(k) <= mfourier:
            out[:, :, k + mfourier] = c * overlap
            kept = max(kept, abs(c))
        else:
            dropped = max(dropped, abs(c))
    if dropped > 0.0 and (kept == 0.0 or dropped > _ALIASING_RTOL * kept):
        rel = dropped / kept if kept > 0.0 else math.inf
        warnings.warn(
            f"Fourier cutoff mfourier={mfourier} drops coefficients of relative size "
            f"{rel:.2e}; raise mfourier",
            stacklevel=2,
        )
    return out
