"""Bloch fiber matrices H(theta) in the Hermite-Fourier product basis.

After the Bloch-Floquet decomposition over theta in [-1/2, 1/2) and the
substitution s = sqrt(alpha) y, the fiber acts on the basis

    e_{n,m} = phi_n(s) e^{i m x} / sqrt(2 pi),   0 <= n < N,  |m - off| <= M,

with matrix elements

    <n,m| H(theta) |n',m'> = delta_{nn'} delta_{mm'} [alpha (2n+1) + (m+theta)^2]
                           + delta_{|n-n'|,1} delta_{mm'} B sqrt(2 max(n,n') / alpha) (m+theta)
                           + c^{(n,n')}_{m-m'}

where the middle line is the cross term 2 B (m+theta) y of the squared
magnetic momentum expanded through the ladder identity, and the c's are the
projected potential coefficients.  For W = 0 the exact eigenvalues are
alpha (2n+1) + beta (m+theta)^2: the magnetic ladder coupling is what bends
the bare (m+theta)^2 dispersion down to beta (m+theta)^2.

Storage is dense; the basis ordering is row = (m - off + M) * N + n so that
each Fourier index m owns a contiguous block of Hermite levels.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import ChannelParams
from .hermite import ProjectedPotential

__all__ = [
    "FiberMatrix",
    "FiberBlock",
    "fiber_block",
    "fiber_at",
    "assemble_fiber",
    "eigenvalues_fiber",
    "EigensolverError",
    "ResolventBoundCheck",
    "complex_theta_resolvent_bound",
]


class EigensolverError(RuntimeError):
    """Eigensolver failed to converge; the matrix was dumped for inspection."""

    def __init__(self, message: str, dump_path: str):
        super().__init__(f"{message} (matrix dumped to {dump_path})")
        self.dump_path = dump_path


@dataclass(eq=False)
class FiberMatrix:
    """Assembled fiber with its index bookkeeping."""

    params: ChannelParams
    theta: float
    n_hermite: int
    m_max: int
    m_offset: int
    entries: np.ndarray

    @property
    def dim(self) -> int:
        return self.n_hermite * (2 * self.m_max + 1)

    @property
    def m_window(self) -> np.ndarray:
        return np.arange(-self.m_max, self.m_max + 1) + self.m_offset


@dataclass(eq=False)
class FiberBlock:
    """The theta-independent part of the fiber at one truncation.

    ``base`` is the potential's Toeplitz block plus alpha (2n+1) on the
    diagonal, Hermitian and real whenever the projected coefficients are.
    The remaining terms depend on theta only through m + theta: ``row_m``
    gives m for every row, and the ladder entries sit at (``ladder_rows``,
    ``ladder_cols``) with value ``ladder_weight`` * (m + theta).
    """

    params: ChannelParams
    n_hermite: int
    m_max: int
    m_offset: int
    base: np.ndarray
    row_m: np.ndarray
    ladder_rows: np.ndarray
    ladder_cols: np.ndarray
    ladder_weight: np.ndarray


def fiber_block(
    params: ChannelParams,
    proj: ProjectedPotential,
    n_hermite: int,
    m_max: int,
    m_offset: int = 0,
) -> FiberBlock:
    """Build the theta-independent part of the fiber once per truncation.

    The projection must cover the requested truncation: proj.nmax + 1 >=
    n_hermite and proj.mfourier >= 2 * m_max.
    """
    if n_hermite < 1 or m_max < 0:
        raise ValueError("need n_hermite >= 1 and m_max >= 0")
    if proj.nmax + 1 < n_hermite:
        raise ValueError(
            f"projection covers Hermite levels <= {proj.nmax}, need {n_hermite - 1}"
        )
    if proj.mfourier < 2 * m_max:
        raise ValueError(
            f"projection Fourier cutoff {proj.mfourier} < 2*m_max = {2 * m_max}"
        )
    if abs(proj.alpha - params.alpha) > 1e-12 * max(1.0, params.alpha):
        raise ValueError("projection was computed for a different alpha")

    N = n_hermite
    ms = np.arange(-m_max, m_max + 1) + m_offset
    dim = N * ms.size
    alpha = params.alpha

    # potential part: block (mu, nu) of the Toeplitz structure in m
    kdiff = ms[:, None] - ms[None, :]
    pot = proj.coeffs[:N, :N, kdiff + proj.mfourier]  # (n, n', mu, nu)
    if not pot.imag.any():
        pot = pot.real
    h = np.transpose(pot, (2, 0, 3, 1)).reshape(dim, dim)
    # the quadrature leaves the projection Hermitian only up to rounding
    base = h + h.conj().T
    base *= 0.5
    base.flat[:: dim + 1] += np.tile(alpha * (2.0 * np.arange(N) + 1.0), ms.size)

    # magnetic ladder coupling B sqrt(2(n+1)/alpha) (m+theta) between n and n+1
    lower = (np.arange(ms.size)[:, None] * N + np.arange(N - 1)[None, :]).ravel()
    weight = np.tile(params.B * np.sqrt(2.0 * np.arange(1, N) / alpha), ms.size)
    return FiberBlock(
        params=params,
        n_hermite=N,
        m_max=m_max,
        m_offset=m_offset,
        base=base,
        row_m=np.repeat(ms, N).astype(float),
        ladder_rows=np.concatenate([lower, lower + 1]),
        ladder_cols=np.concatenate([lower + 1, lower]),
        ladder_weight=np.concatenate([weight, weight]),
    )


def fiber_at(block: FiberBlock, theta: float) -> FiberMatrix:
    """The fiber matrix at Bloch phase theta from its theta-independent block.

    theta is restricted to [-1/2, 1/2]; use the 1-periodicity of the
    spectrum for values outside.
    """
    if abs(theta) > 0.5 + 1e-12:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    h = block.base.copy()
    h.flat[:: h.shape[0] + 1] += (block.row_m + theta) ** 2
    rows = block.ladder_rows
    h[rows, block.ladder_cols] += block.ladder_weight * (block.row_m[rows] + theta)
    return FiberMatrix(
        params=block.params,
        theta=float(theta),
        n_hermite=block.n_hermite,
        m_max=block.m_max,
        m_offset=block.m_offset,
        entries=h,
    )


def assemble_fiber(
    params: ChannelParams,
    proj: ProjectedPotential,
    theta: float,
    n_hermite: int,
    m_max: int,
    m_offset: int = 0,
) -> FiberMatrix:
    """Assemble the dense Hermitian fiber matrix at Bloch phase theta.

    One-off form of ``fiber_at(fiber_block(...), theta)``, with their
    requirements; callers that solve many phases at one truncation should
    build the block once.
    """
    return fiber_at(fiber_block(params, proj, n_hermite, m_max, m_offset), theta)


def eigenvalues_fiber(mat: FiberMatrix, count: int | None = None) -> np.ndarray:
    """Ascending eigenvalues of the fiber (the lowest ``count`` if given)."""
    entries = mat.entries
    if np.iscomplexobj(entries) and not entries.imag.any():
        # real-coefficient potentials give exactly real symmetric fibers;
        # the real solver is about four times faster than the Hermitian one
        entries = np.ascontiguousarray(entries.real)
    try:
        vals = scipy.linalg.eigh(entries, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        path = _dump_matrix(mat.entries)
        raise EigensolverError(f"fiber eigensolver failed at theta={mat.theta}", path) from exc
    return vals[:count] if count is not None else vals


def _dump_matrix(entries: np.ndarray) -> str:
    fd, path = tempfile.mkstemp(prefix="fiber_matrix_", suffix=".npy")
    with open(fd, "wb") as fh:
        np.save(fh, entries)
    return path


@dataclass(frozen=True)
class ResolventBoundCheck:
    """Closed-form check of the complex-Bloch-phase resolvent bound.

    For theta = 1/2 + i theta2 the unperturbed fiber eigenvalues continue to
    E_n(m + theta) = alpha (2n+1) + beta (m + 1/2 + i theta2)^2, so

        || (H_0(theta) + 1)^{-1} ||^2 = sup_{n,m} 1 / |E_n + 1|^2

    which the bound 1 / (beta^2 theta2^2) must dominate.
    """

    theta2: float
    sup_value: float
    bound: float
    passed: bool
    argmax: tuple[int, int]


def complex_theta_resolvent_bound(
    params: ChannelParams,
    theta2: float,
    n_range: int = 64,
    m_range: int = 64,
) -> ResolventBoundCheck:
    if theta2 <= 0.0:
        raise ValueError("theta2 must be > 0")
    alpha, beta = params.alpha, params.beta
    best = 0.0
    arg = (0, 0)
    for n in range(n_range + 1):
        for m in range(-m_range, m_range + 1):
            z = complex(m + 0.5, theta2)
            denom = abs(alpha * (2 * n + 1) + beta * z * z + 1.0) ** 2
            val = 1.0 / denom
            if val > best:
                best = val
                arg = (n, m)
    bound = 1.0 / (beta * theta2) ** 2
    return ResolventBoundCheck(
        theta2=float(theta2),
        sup_value=best,
        bound=bound,
        passed=bool(best <= bound * (1.0 + 1e-12)),
        argmax=arg,
    )
