"""Bloch fiber matrices H(theta) in two product bases.

After the Bloch-Floquet decomposition over theta in [-1/2, 1/2) and the
substitution s = sqrt(alpha) y, the Hermite-Fourier fiber acts on the basis

    e_{n,m} = phi_n(s) e^{i m x} / sqrt(2 pi),   0 <= n < N,  |m - off| <= M,

with matrix elements

    <n,m| H(theta) |n',m'> = delta_{nn'} delta_{mm'} [alpha (2n+1) + (m+theta)^2]
                           + delta_{|n-n'|,1} delta_{mm'} B sqrt(2 max(n,n') / alpha) (m+theta)
                           + c_{m-m'} G_{nn'}

where the middle line is the cross term 2 B (m+theta) y of the squared
magnetic momentum expanded through the ladder identity, and c_k and G are
the two factors of the projected potential W = f(x) g(y) (``hermite``).
For W = 0 the exact eigenvalues are alpha (2n+1) + beta (m+theta)^2: the
magnetic ladder coupling is what bends the bare (m+theta)^2 dispersion
down to beta (m+theta)^2.

For a potential of x alone, W = sum_k W_k e^{ikx}, the displaced Landau
basis phi_n(s - s_m) e^{imx} / sqrt(2 pi), s_m = -B (m+theta) / alpha^{3/2},
diagonalises the free part instead:

    <n,m| H(theta) |n',m'> = delta_{nn'} delta_{mm'} [alpha (2n+1) + beta (m+theta)^2]
                           + W_{m-m'} D_{nn'}(B (m-m') / alpha^{3/2}),

with D the displaced-Hermite overlap of ``displacement_overlaps``.  The
coupling does not depend on theta, which enters through the diagonal only.

Storage is dense; the basis ordering is row = (m - off + M) * N + n so that
each Fourier index m owns a contiguous block of levels.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from numpy.polynomial.hermite import hermgauss

from .channel import ChannelParams
from .hermite import _MAX_DEGREE, ProjectedPotential, _hermite_table

__all__ = [
    "FiberMatrix",
    "FiberBlock",
    "fiber_block",
    "landau_block",
    "landau_residuals",
    "displacement_overlaps",
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


@dataclass(eq=False)
class FiberBlock:
    """The theta-independent part of the fiber at one truncation.

    ``base`` is the potential's Toeplitz block plus alpha (2n+1) on the
    diagonal, Hermitian and real whenever the potential's coefficients are.
    The remaining terms depend on theta only through m + theta: ``row_m``
    gives m for every row, the diagonal gains ``kinetic`` * (m + theta)^2
    (1 in the Hermite basis, beta in the Landau basis), and the ladder
    entries sit at (``ladder_rows``, ``ladder_cols``) with value
    ``ladder_weight`` * (m + theta); the Landau basis has none.
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
    kinetic: float

    def slope(self, theta: float) -> scipy.sparse.dia_array:
        """H'(theta), the derivative of ``fiber_at`` in theta: 2 ``kinetic``
        (m + theta) on the diagonal and ``ladder_weight`` at the ladder
        entries.  The fiber is quadratic in theta, H(theta + h) = H(theta) +
        h H'(theta) + kinetic h^2 I.  The ladder couples the levels n and
        n + 1 of one Fourier index, which are neighbouring rows, so H' is
        tridiagonal."""
        dim = self.row_m.size
        diagonals = np.zeros((3, dim))  # offsets 0, 1, -1; entry (i, j) at [., j]
        diagonals[0] = 2.0 * self.kinetic * (self.row_m + theta)
        diagonals[np.where(self.ladder_cols > self.ladder_rows, 1, 2), self.ladder_cols] = self.ladder_weight
        return scipy.sparse.dia_array((diagonals, (0, 1, -1)), shape=(dim, dim))


def _potential_blocks(terms, n: int, size: int) -> np.ndarray:
    """sum_k c_k S^k (x) M_k, with S the shift of the Fourier index, in both bases.

    ``terms`` are triples (k, c_k, M_k) with |k| < size and M_k of shape
    (n, n): M_k = G (Hermite) or D(B k / alpha^{3/2}) (Landau).  Block
    (mu, mu - k) of the dense (size n, size n) result is c_k M_k, and the
    result is real whenever every c_k is.
    """
    real = all(c.imag == 0.0 for _, c, _ in terms)
    h = np.zeros((size, n, size, n), dtype=float if real else complex)
    for k, c, block in terms:
        rows = np.arange(max(k, 0), size + min(k, 0))
        h[rows, :, rows - k, :] = (c.real if real else c) * block
    return h.reshape(size * n, size * n)


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
    alpha = params.alpha

    overlap = proj.overlap[:N, :N]
    h = _potential_blocks([(k, c, overlap) for k, c in proj.fourier if abs(k) < ms.size], N, ms.size)
    # the quadrature leaves the projection Hermitian only up to rounding
    base = h + h.conj().T
    base *= 0.5
    base.flat[:: base.shape[0] + 1] += np.tile(alpha * (2.0 * np.arange(N) + 1.0), ms.size)

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
        kinetic=1.0,
    )


def displacement_overlaps(n_rows: int, n_cols: int, d: float) -> np.ndarray:
    """D[n, k] = int phi_n(s) phi_k(s - d) ds for n < n_rows and k < n_cols.

    The matrix elements of the displacement operator between Hermite
    functions (Cahill and Glauber, Phys. Rev. 177, 1857, 1969); D(0) is the
    identity and D(-d) = D(d)^T.  With s = u + d/2 the integrand is e^{-u^2}
    times a polynomial of degree n + k, so the Gauss-Hermite rule in u with
    (n_rows + n_cols) // 2 + 1 nodes, each factor shifted by d/2, is exact
    up to rounding.
    """
    nodes, weights = hermgauss((n_rows + n_cols) // 2 + 1)
    # exp(u^2) in log space: raw weights underflow near the edge nodes
    weights = np.exp(np.log(weights) + nodes * nodes)
    left = _hermite_table(n_rows - 1, nodes + 0.5 * d)
    right = _hermite_table(n_cols - 1, nodes - 0.5 * d)
    return (left * weights) @ right.T


def _harmonics(coeffs) -> list[tuple[int, complex]]:
    return [(int(k), complex(c)) for k, c in coeffs if c != 0]


def landau_block(params: ChannelParams, coeffs, n_levels: int, m_max: int) -> FiberBlock:
    """The theta-independent part of the fiber in the displaced Landau basis.

    For W(x) = sum_k W_k e^{ikx}, given as the (k, W_k) pairs ``coeffs``
    with W_{-k} = conj(W_k): ``base`` holds alpha (2n+1) on the diagonal and
    the blocks W_{m-m'} D(B (m-m') / alpha^{3/2}) for n, n' < n_levels and
    |m|, |m'| <= m_max.  ``fiber_at`` adds beta (m+theta)^2.
    """
    if n_levels < 1 or m_max < 0:
        raise ValueError("need n_levels >= 1 and m_max >= 0")
    N, size = n_levels, 2 * m_max + 1
    harmonics = [(k, c) for k, c in _harmonics(coeffs) if abs(k) < size]
    scale = params.B / params.alpha**1.5
    overlaps = {k: displacement_overlaps(N, N, scale * k) for k in {abs(k) for k, _ in harmonics} - {0}}
    overlaps[0] = np.eye(N)  # D(0), exactly
    # D(-d) = D(d)^T, so the blocks of k and -k are exactly adjoint
    base = _potential_blocks(
        [(k, c, overlaps[k] if k >= 0 else overlaps[-k].T) for k, c in harmonics], N, size
    )
    base.flat[:: base.shape[0] + 1] += np.tile(params.alpha * (2.0 * np.arange(N) + 1.0), size)
    no_ladder = np.empty(0, dtype=int)
    return FiberBlock(
        params=params,
        n_hermite=N,
        m_max=m_max,
        m_offset=0,
        base=base,
        row_m=np.repeat(np.arange(-m_max, m_max + 1), N).astype(float),
        ladder_rows=no_ladder,
        ladder_cols=no_ladder,
        ladder_weight=np.empty(0),
        kinetic=params.beta,
    )


def landau_residuals(block: FiberBlock, coeffs, vectors: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """||H_QP v||^2 for the columns v of ``vectors``, split by where Q lies.

    ``block`` is a ``landau_block`` for the same ``coeffs``, and Q is the
    complement of its truncation: the levels n >= N inside the Fourier
    window (first array) and the Fourier indices |m| > M (second).  The free
    part is diagonal in this basis, so only W couples into Q, and it reaches
    the rows |m| <= M + max |k| and the levels up to where D falls below
    1e-12 (the rows beyond add less than 1e-24 sum |W_k|^2 to r^2, and the
    quadrature's own rounding in D is about 1e-14).  Only those rows are
    formed.
    """
    N, size = block.n_hermite, 2 * block.m_max + 1
    harmonics = [(k, c) for k, c in _harmonics(coeffs) if k != 0]
    vecs = vectors.reshape(size, N, vectors.shape[1])
    if not harmonics:
        zero = np.zeros(vecs.shape[2])
        return zero, zero
    scale = block.params.B / block.params.alpha**1.5
    reach = max(abs(k) for k, _ in harmonics)
    pad = 8
    while True:
        n_rows = min(N + pad, _MAX_DEGREE + 1)
        overlaps = [displacement_overlaps(n_rows, N, scale * k) for k, _ in harmonics]
        tail = max(float(np.max(np.abs(d[-4:]))) for d in overlaps)
        if tail <= 1e-12 or n_rows > _MAX_DEGREE:
            break
        pad *= 2
    rows = np.zeros((size + 2 * reach, n_rows, vecs.shape[2]), dtype=np.result_type(vecs, complex))
    for (k, c), d in zip(harmonics, overlaps):
        rows[reach + k : reach + k + size] += c * (d @ vecs)
    rows[reach : reach + size, :N] = 0.0  # the kept space P
    r2 = np.abs(rows) ** 2
    inside = r2[reach : reach + size].sum(axis=(0, 1))
    return inside, r2.sum(axis=(0, 1)) - inside


def fiber_at(block: FiberBlock, theta: float) -> FiberMatrix:
    """The fiber matrix at Bloch phase theta from its theta-independent block.

    theta is restricted to [-1/2, 1/2]; use the 1-periodicity of the
    spectrum for values outside.
    """
    if abs(theta) > 0.5 + 1e-12:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    h = block.base.copy()
    h.flat[:: h.shape[0] + 1] += block.kinetic * (block.row_m + theta) ** 2
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


def eigenvalues_fiber(mat: FiberMatrix, count: int | None = None, vectors: bool = False):
    """Ascending eigenvalues of the fiber (the lowest ``count`` if given).

    With ``vectors``, the pair (eigenvalues, eigenvectors as columns); only
    the lowest ``count`` pairs are computed then.
    """
    entries = mat.entries
    if np.iscomplexobj(entries) and not entries.imag.any():
        # real-coefficient potentials give exactly real symmetric fibers;
        # the real solver is about four times faster than the Hermitian one
        entries = np.ascontiguousarray(entries.real)
    try:
        if vectors:
            subset = None if count is None else (0, min(count, entries.shape[0]) - 1)
            return scipy.linalg.eigh(entries, subset_by_index=subset)
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
