"""Bloch fiber matrices of three families: H(theta) in two product bases,
and the Hill operator K(theta) as a fiber of one level.

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

with D the displaced-Hermite overlap of ``displacement_overlaps``, by the
Gauss-Hermite rule that G takes too.  The coupling does not depend on
theta, which enters through the diagonal only.

The Hill operator K(theta) = -d^2 + V(x) is the same form with one level,
no level energy and no ladder: <m| K(theta) |m'> = delta_{mm'} (m+theta)^2
+ c_{m-m'}.  One builder makes the FiberBlock of all three families, and
the block is what numutil's Bloch band driver solves (``FiberBlock.solve``,
which is eigenvalues_fiber of ``fiber_at``) and differentiates
(``FiberBlock.slope``); a block of the channel also carries its coupling
into the discarded space (``truncation_residuals``).

Storage is dense; the basis ordering is row = (m - off + M) * N + n so that
each Fourier index m owns a contiguous block of levels.
"""

from __future__ import annotations

import math
import tempfile
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .channel import ChannelParams, _canonical_coeffs
from .hermite import _MAX_DEGREE, ProjectedPotential, _hermite_table, gauss_hermite

__all__ = [
    "FiberBlock",
    "fiber_block",
    "landau_block",
    "hill_block",
    "truncation_residuals",
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
class FiberBlock:
    """The theta-independent part of the fiber at one truncation.

    ``base`` is the potential's Toeplitz block plus the level energies on
    the diagonal (alpha (2n+1), or 0 for the Hill operator), Hermitian and
    real whenever the potential's coefficients are.  The remaining terms
    depend on theta only through m + theta: ``row_m`` gives m for every row,
    the diagonal gains ``kinetic`` * (m + theta)^2 (beta in the Landau
    basis, else 1), and both first off-diagonals gain ``ladder`` * (m +
    theta).  ``ladder`` holds the weights of the first superdiagonal, zero
    where a Fourier block ends and everywhere outside the Hermite basis.
    ``params`` is None for the Hill operator.  ``coupling`` and ``boundary``
    couple the block into its discarded space (``truncation_residuals``).
    """

    params: ChannelParams | None
    n_hermite: int
    m_max: int
    base: np.ndarray
    row_m: np.ndarray
    ladder: np.ndarray  # (dim - 1,)
    kinetic: float
    coupling: tuple = ()  # (k, c_k, M_k), M_k of shape (n_rows, N)
    boundary: float = 0.0  # ladder weight from level N - 1 to N

    def solve(self, theta: float, count: int | None = None, vectors: bool = False):
        """The family's eigensolver: ``eigenvalues_fiber`` of ``fiber_at``
        at theta, with its ``count`` and ``vectors``."""
        return eigenvalues_fiber(fiber_at(self, theta), count, vectors)

    def slope(self, theta: float, vectors: np.ndarray) -> np.ndarray:
        """H'(theta) @ vectors, in C order.  H', the derivative of ``fiber_at``
        in theta, has 2 ``kinetic`` (m + theta) on the diagonal and ``ladder``
        on both first off-diagonals.  The fiber is quadratic in theta,
        H(theta + h) = H(theta) + h H'(theta) + kinetic h^2 I.  The ladder
        couples the levels n and n + 1 of one Fourier index, which are
        neighbouring rows, so H' is tridiagonal."""
        # C order even from eigh's Fortran-ordered vectors: the layout decides
        # how BLAS rounds the products taken of it
        out = np.multiply((2.0 * self.kinetic * (self.row_m + theta))[:, None], vectors, order="C")
        out[:-1] += self.ladder[:, None] * vectors[1:]
        out[1:] += self.ladder[:, None] * vectors[:-1]
        return out


def _build_block(params, terms, levels, m_max: int, kinetic: float, ladder=(), m_offset: int = 0, **discarded):
    """The FiberBlock of any family: ``base`` is sum_k c_k S^k (x) M_k, S the
    shift of the Fourier index, plus ``levels`` on the diagonal of each
    Fourier block; ``ladder`` couples the levels n and n + 1, and
    ``discarded`` gives the block's ``coupling`` and ``boundary``.

    ``terms`` are triples (k, c_k, M_k), M_k of shape (N, N), N = levels.size:
    G (Hermite), D(B k / alpha^{3/2}) (Landau) or the 1 x 1 identity (Hill).
    Only here does the window cut them: |k| > 2 m_max couples none of its
    indices.  ``base`` is real whenever every c_k kept is.
    """
    n, size = levels.size, 2 * m_max + 1
    terms = [(k, c, block) for k, c, block in terms if abs(k) <= 2 * m_max]
    real = all(c.imag == 0.0 for _, c, _ in terms)
    h = np.zeros((size, n, size, n), dtype=float if real else complex)
    for k, c, block in terms:
        rows = np.arange(max(k, 0), size + min(k, 0))
        h[rows, :, rows - k, :] = (c.real if real else c) * block
    h = h.reshape(size * n, size * n)
    # the quadrature leaves the Hermite projection Hermitian only up to
    # rounding; the Landau and Hill blocks are exactly Hermitian, so this keeps them
    base = h + h.conj().T
    base *= 0.5
    base.flat[:: base.shape[0] + 1] += np.tile(levels, size)
    # each Fourier block's ladder, then a zero to the next block
    superdiagonal = np.zeros((size, n))
    superdiagonal[:, : len(ladder)] = ladder
    return FiberBlock(
        params=params,
        n_hermite=n,
        m_max=m_max,
        base=base,
        row_m=np.repeat(np.arange(-m_max, m_max + 1) + m_offset, n).astype(float),
        ladder=superdiagonal.ravel()[:-1],
        kinetic=kinetic,
        **discarded,
    )


def fiber_block(
    params: ChannelParams,
    proj: ProjectedPotential,
    n_hermite: int,
    m_max: int,
    m_offset: int = 0,
) -> FiberBlock:
    """Build the theta-independent part of the fiber once per truncation.

    The projection must cover the requested truncation: proj.nmax + 1 >=
    n_hermite, and proj.mfourier >= 2 * m_max if it is cut.  The block
    couples into the levels up to proj.nmax, and past the window, by every
    pair of the projection.
    """
    if n_hermite < 1 or m_max < 0:
        raise ValueError("need n_hermite >= 1 and m_max >= 0")
    if proj.nmax + 1 < n_hermite:
        raise ValueError(
            f"projection covers Hermite levels <= {proj.nmax}, need {n_hermite - 1}"
        )
    if proj.mfourier is not None and proj.mfourier < 2 * m_max:
        raise ValueError(
            f"projection Fourier cutoff {proj.mfourier} < 2*m_max = {2 * m_max}"
        )
    if abs(proj.alpha - params.alpha) > 1e-12 * max(1.0, params.alpha):
        raise ValueError("projection was computed for a different alpha")

    N, alpha = n_hermite, params.alpha
    terms = [(k, c, proj.overlap[:N, :N]) for k, c in proj.fourier]
    coupling = tuple((k, c, proj.overlap[:, :N]) for k, c in proj.fourier)
    # magnetic ladder coupling B sqrt(2(n+1)/alpha) (m+theta) between n and n+1, up to n = N
    ladder = params.B * np.sqrt(2.0 * np.arange(1, N + 1) / alpha)
    levels = alpha * (2.0 * np.arange(N) + 1.0)
    return _build_block(
        params, terms, levels, m_max, 1.0, ladder[:-1], m_offset, coupling=coupling, boundary=float(ladder[-1])
    )


def displacement_overlaps(n_rows: int, n_cols: int, d: float) -> np.ndarray:
    """D[n, k] = int phi_n(s) phi_k(s - d) ds for n < n_rows and k < n_cols.

    The matrix elements of the displacement operator between Hermite
    functions (Cahill and Glauber, Phys. Rev. 177, 1857, 1969); D(0) is the
    identity, D(-d) = D(d)^T, and the parity of the phi_n gives D(-d)[n, k]
    = (-1)^{n+k} D(d)[n, k].  With s = u + d/2 the integrand is e^{-u^2}
    times a polynomial of degree n + k, so ``gauss_hermite`` in u with
    (n_rows + n_cols) // 2 + 1 nodes, each factor shifted by d/2, is exact
    up to rounding.
    """
    nodes, weights = gauss_hermite((n_rows + n_cols) // 2 + 1)
    left = _hermite_table(n_rows - 1, nodes + 0.5 * d)
    right = _hermite_table(n_cols - 1, nodes - 0.5 * d)
    return (left * weights) @ right.T


def _tail_bound(n_rows: int, n_cols: int, d: float) -> float:
    """A closed-form bound on |D(d)| in the last four of n_rows rows, n_cols
    columns, when it is below 1 (n_rows >= n_cols + 3).

    D[n, k] = sqrt(k!/n!) z^{n-k} e^{-z^2/2} L_k^{(n-k)}(z^2), z = d /
    sqrt(2), and |L_k^{(a)}(x)| <= binom(k+a, k) e^{x/2} (Abramowitz and
    Stegun 22.14.13) give |D[n, k]| <= b(n, k) = sqrt(n!/k!) |z|^{n-k} /
    (n-k)!.  Down a column b changes by the factor |z| sqrt(n+1) / (n-k+1),
    which only falls, so b(n, k) < 1 says that b has peaked and falls down
    the column from there.  Then the factor |z| sqrt(k) / (n-k+1) from
    column k to k - 1 is below 1 as well: b(n_rows - 4, n_cols - 1) bounds
    every entry of the last four rows.
    """
    if d == 0.0:
        return 0.0
    n, k = n_rows - 4, n_cols - 1
    log_b = 0.5 * (math.lgamma(n + 1) - math.lgamma(k + 1)) - math.lgamma(n - k + 1)
    return math.exp(log_b + (n - k) * math.log(abs(d) / math.sqrt(2.0)))


def landau_block(params: ChannelParams, coeffs, n_levels: int, m_max: int) -> FiberBlock:
    """The block of the fiber in the displaced Landau basis.

    For W(x) = sum_k W_k e^{ikx}, given as the (k, W_k) pairs ``coeffs``
    with W_{-k} = conj(W_k): ``base`` holds alpha (2n+1) on the diagonal and
    the blocks W_{m-m'} D(B (m-m') / alpha^{3/2}) for n, n' < n_levels and
    |m|, |m'| <= m_max.  ``fiber_at`` adds beta (m+theta)^2.  The block's
    ``coupling`` is (k, W_k, D(B k / alpha^{3/2})) for each k != 0, since
    W_0 D(0) stays within the kept levels.

    One tall D per |k| != 0, formed once, reaches the levels up to where
    it falls below 1e-12 (the rows beyond add less than 1e-24 sum |W_k|^2
    to r^2, and the quadrature's own rounding in D is about 1e-14): its
    pad of rows past n_levels doubles from 8 until ``_tail_bound`` at the
    largest |k| is below 1e-12.  The block takes its first n_levels rows,
    transposed for k < 0, which keeps the blocks of k and -k exactly
    adjoint; the coupling of k < 0 takes its parity signs.
    """
    if n_levels < 1 or m_max < 0:
        raise ValueError("need n_levels >= 1 and m_max >= 0")
    N = n_levels
    harmonics = _canonical_coeffs(dict(coeffs))
    scale = params.B / params.alpha**1.5
    reach = {abs(k) for k, _ in harmonics} - {0}
    pad = 8
    while N + pad <= _MAX_DEGREE and _tail_bound(N + pad, N, scale * max(reach, default=0)) > 1e-12:
        pad *= 2
    n_rows = min(N + pad, _MAX_DEGREE + 1)
    tall = {k: displacement_overlaps(n_rows, N, scale * k) for k in reach}
    blocks = {0: np.eye(N), **{k: d[:N] for k, d in tall.items()}}  # D(0), exactly
    terms = [(k, c, blocks[k] if k >= 0 else blocks[-k].T) for k, c in harmonics]
    parity = (-1.0) ** np.arange(n_rows)
    coupling = tuple((k, c, tall[k] if k > 0 else tall[-k] * np.outer(parity, parity[:N])) for k, c in harmonics if k)
    levels = params.alpha * (2.0 * np.arange(N) + 1.0)
    return _build_block(params, terms, levels, m_max, kinetic=params.beta, coupling=coupling)


def hill_block(pairs, m_max: int) -> FiberBlock:
    """The Hill operator K(theta) = -d^2 + V as a one-level FiberBlock.

    V = sum_k c_k e^{ikx} is given by its (k, c_k) ``pairs`` (or a mapping
    k -> c_k), which must satisfy c_{-k} = conj(c_k); the Fourier window is
    |m| <= m_max.  ``base`` is the Toeplitz matrix of the c_k, ``fiber_at``
    adds (m + theta)^2, and the block has no params and no coupling.
    """
    terms = [(k, c, np.ones((1, 1))) for k, c in _canonical_coeffs(dict(pairs))]
    return _build_block(None, terms, np.zeros(1), m_max, kinetic=1.0)


def truncation_residuals(block: FiberBlock, vectors: np.ndarray, thetas=0.0):
    """||H_QP v||^2 for the columns v of ``vectors``, split by where Q lies.

    Q is the complement of the truncation of ``block``: the levels n >= N
    inside the Fourier window (first array) and the Fourier indices |m| > M
    (second).  H_QP is the block's ``coupling``, and its ``boundary`` weight
    times m + theta at the phase ``thetas`` of each column.
    """
    N, size = block.n_hermite, 2 * block.m_max + 1
    vecs = vectors.reshape(size, N, vectors.shape[1])
    reach = max((abs(k) for k, _, _ in block.coupling), default=0)
    n_rows = max([N + 1] + [overlap.shape[0] for *_, overlap in block.coupling])
    rows = np.zeros((size + 2 * reach, n_rows, vecs.shape[2]), dtype=np.result_type(vecs, complex))
    for k, c, overlap in block.coupling:
        rows[reach + k : reach + k + size] += c * (overlap @ vecs)
    rows[reach : reach + size, N] += block.boundary * (block.row_m[::N, None] + thetas) * vecs[:, N - 1]
    rows[reach : reach + size, :N] = 0.0  # the kept space P
    r2 = np.abs(rows) ** 2
    inside = r2[reach : reach + size].sum(axis=(0, 1))
    return inside, r2.sum(axis=(0, 1)) - inside


def fiber_at(block: FiberBlock, theta: float) -> np.ndarray:
    """The dense fiber matrix at Bloch phase theta from its theta-independent block.

    theta is restricted to [-1/2, 1/2]; use the 1-periodicity of the
    spectrum for values outside.
    """
    if abs(theta) > 0.5 + 1e-12:
        raise ValueError("theta must lie in [-1/2, 1/2]")
    h = block.base.copy()
    dim = h.shape[0]
    h.flat[:: dim + 1] += block.kinetic * (block.row_m + theta) ** 2
    # a ladder pair shares its m; the zero weights leave every other value as it is
    coupling = block.ladder * (block.row_m[:-1] + theta)
    h.flat[1 :: dim + 1] += coupling
    h.flat[dim :: dim + 1] += coupling
    return h


def assemble_fiber(
    params: ChannelParams,
    proj: ProjectedPotential,
    theta: float,
    n_hermite: int,
    m_max: int,
    m_offset: int = 0,
) -> np.ndarray:
    """Assemble the dense Hermitian fiber matrix at Bloch phase theta.

    One-off form of ``fiber_at(fiber_block(...), theta)``, with their
    requirements; callers that solve many phases at one truncation should
    build the block once.
    """
    return fiber_at(fiber_block(params, proj, n_hermite, m_max, m_offset), theta)


def eigenvalues_fiber(mat: np.ndarray, count: int | None = None, vectors: bool = False):
    """Ascending eigenvalues of the dense Hermitian fiber ``mat`` (the lowest ``count`` if given).

    With ``vectors``, the pair (eigenvalues, eigenvectors as columns); only
    the lowest ``count`` pairs are computed then.  A fiber of real
    coefficients is real (``_build_block``) and takes the real solver.
    """
    try:
        if vectors:
            subset = None if count is None else (0, min(count, mat.shape[0]) - 1)
            return scipy.linalg.eigh(mat, subset_by_index=subset)
        vals = scipy.linalg.eigh(mat, eigvals_only=True)
    except scipy.linalg.LinAlgError as exc:
        fd, path = tempfile.mkstemp(prefix="fiber_matrix_", suffix=".npy")
        with open(fd, "wb") as fh:
            np.save(fh, mat)
        raise EigensolverError(f"fiber eigensolver failed at dimension {mat.shape[0]}", path) from exc
    return vals[:count] if count is not None else vals


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
    n = np.arange(n_range + 1)[:, None]
    z = np.arange(-m_range, m_range + 1) + complex(0.5, theta2)
    values = 1.0 / np.abs(alpha * (2 * n + 1) + beta * z * z + 1.0) ** 2
    # the first maximum in n-major order
    i, j = np.unravel_index(np.argmax(values), values.shape)
    best = float(values[i, j])
    bound = 1.0 / (beta * theta2) ** 2
    return ResolventBoundCheck(
        theta2=float(theta2),
        sup_value=best,
        bound=bound,
        passed=bool(best <= bound * (1.0 + 1e-12)),
        argmax=(int(i), int(j) - m_range),
    )
