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

with D the displaced-Hermite overlap of ``displacement_overlaps``.  The
coupling does not depend on theta, which enters through the diagonal only.

The Hill operator K(theta) = -d^2 + V(x) is the same form with one level,
no level energy and no ladder: <m| K(theta) |m'> = delta_{mm'} (m+theta)^2
+ c_{m-m'}.  One builder makes the FiberBlock of all three families, and
the block is what numutil's Bloch band driver solves (``FiberBlock.solve``,
which is eigenvalues_fiber of ``fiber_at``) and differentiates
(``FiberBlock.slope``).

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

from .channel import ChannelParams, _canonical_coeffs
from .hermite import _MAX_DEGREE, ProjectedPotential, _hermite_table

__all__ = [
    "FiberBlock",
    "fiber_block",
    "landau_block",
    "hill_block",
    "landau_terms",
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
    ``params`` is None for the Hill operator.
    """

    params: ChannelParams | None
    n_hermite: int
    m_max: int
    base: np.ndarray
    row_m: np.ndarray
    ladder: np.ndarray  # (dim - 1,)
    kinetic: float

    def solve(self, theta: float, count: int | None = None, vectors: bool = False):
        """The family's eigensolver: ``eigenvalues_fiber`` of ``fiber_at``
        at theta, with its ``count`` and ``vectors``."""
        return eigenvalues_fiber(fiber_at(self, theta), count, vectors)

    def slope(self, theta: float) -> scipy.sparse.dia_array:
        """H'(theta), the derivative of ``fiber_at`` in theta: 2 ``kinetic``
        (m + theta) on the diagonal and ``ladder`` on both first
        off-diagonals.  The fiber is quadratic in theta, H(theta + h) =
        H(theta) + h H'(theta) + kinetic h^2 I.  The ladder couples the
        levels n and n + 1 of one Fourier index, which are neighbouring rows,
        so H' is tridiagonal."""
        dim = self.row_m.size
        diagonals = np.zeros((3, dim))  # offsets 0, 1, -1; entry (i, j) at [., j]
        diagonals[0] = 2.0 * self.kinetic * (self.row_m + theta)
        diagonals[1, 1:] = diagonals[2, :-1] = self.ladder
        return scipy.sparse.dia_array((diagonals, (0, 1, -1)), shape=(dim, dim))


def _build_block(params, terms, levels, m_max: int, kinetic: float, ladder=(), m_offset: int = 0) -> FiberBlock:
    """The FiberBlock of any family: ``base`` is sum_k c_k S^k (x) M_k, S the
    shift of the Fourier index, plus ``levels`` on the diagonal of each
    Fourier block; ``ladder`` couples the levels n and n + 1.

    ``terms`` are triples (k, c_k, M_k) with |k| <= 2 m_max and M_k of shape
    (N, N), N = levels.size: G (Hermite), D(B k / alpha^{3/2}) (Landau) or
    the 1 x 1 identity (Hill).  ``base`` is real whenever every c_k is.
    """
    n, size = levels.size, 2 * m_max + 1
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

    N, alpha = n_hermite, params.alpha
    terms = [(k, c, proj.overlap[:N, :N]) for k, c in proj.fourier if abs(k) <= 2 * m_max]
    # magnetic ladder coupling B sqrt(2(n+1)/alpha) (m+theta) between n and n+1
    ladder = params.B * np.sqrt(2.0 * np.arange(1, N) / alpha)
    levels = alpha * (2.0 * np.arange(N) + 1.0)
    return _build_block(params, terms, levels, m_max, kinetic=1.0, ladder=ladder, m_offset=m_offset)


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
    harmonics = [(k, c) for k, c in _canonical_coeffs(dict(coeffs)) if abs(k) < size]
    scale = params.B / params.alpha**1.5
    overlaps = {k: displacement_overlaps(N, N, scale * k) for k in {abs(k) for k, _ in harmonics} - {0}}
    overlaps[0] = np.eye(N)  # D(0), exactly
    # D(-d) = D(d)^T, so the blocks of k and -k are exactly adjoint
    terms = [(k, c, overlaps[k] if k >= 0 else overlaps[-k].T) for k, c in harmonics]
    return _build_block(params, terms, params.alpha * (2.0 * np.arange(N) + 1.0), m_max, kinetic=params.beta)


def hill_block(pairs, m_max: int) -> FiberBlock:
    """The Hill operator K(theta) = -d^2 + V as a one-level FiberBlock.

    V = sum_k c_k e^{ikx} is given by its (k, c_k) ``pairs`` (or a mapping
    k -> c_k), which must satisfy c_{-k} = conj(c_k); the Fourier window is
    |m| <= m_max.  ``base`` is the Toeplitz matrix of the c_k, ``fiber_at``
    adds (m + theta)^2, and the block has no params.
    """
    one = np.ones((1, 1))
    terms = [(k, c, one) for k, c in _canonical_coeffs(dict(pairs)) if abs(k) < 2 * m_max + 1]
    return _build_block(None, terms, np.zeros(1), m_max, kinetic=1.0)


def landau_terms(block: FiberBlock, coeffs) -> list[tuple[int, complex, np.ndarray]]:
    """The coupling of a ``landau_block`` for the same ``coeffs`` into its
    discarded levels, for ``truncation_residuals``: (k, W_k, D(B k /
    alpha^{3/2})) for each k != 0, since W_0 D(0) stays within the kept
    levels.  D reaches the levels up to where it falls below 1e-12 (the rows
    beyond add less than 1e-24 sum |W_k|^2 to r^2, and the quadrature's own
    rounding in D is about 1e-14); only those rows are formed.
    """
    N = block.n_hermite
    harmonics = [(k, c) for k, c in _canonical_coeffs(dict(coeffs)) if k != 0]
    scale = block.params.B / block.params.alpha**1.5
    pad = 8
    while True:
        n_rows = min(N + pad, _MAX_DEGREE + 1)
        overlaps = [displacement_overlaps(n_rows, N, scale * k) for k, _ in harmonics]
        tail = max((float(np.max(np.abs(d[-4:]))) for d in overlaps), default=0.0)
        if tail <= 1e-12 or n_rows > _MAX_DEGREE:
            break
        pad *= 2
    return [(k, c, d) for (k, c), d in zip(harmonics, overlaps)]


def truncation_residuals(block: FiberBlock, terms, vectors: np.ndarray, ladder=0.0, thetas=0.0):
    """||H_QP v||^2 for the columns v of ``vectors``, split by where Q lies.

    Q is the complement of the truncation of ``block``: the levels n >= N
    inside the Fourier window (first array) and the Fourier indices |m| > M
    (second).  ``terms`` are the potential's triples (k, c_k, M_k) as
    ``_build_block`` takes them, with M_k of shape (n_rows, N), the levels n
    < n_rows that the kept ones couple to.  ``ladder`` is the weight B
    sqrt(2N / alpha) of the magnetic ladder from level N - 1 to level N,
    times m + theta at the phase ``thetas`` of each column.
    """
    N, size = block.n_hermite, 2 * block.m_max + 1
    vecs = vectors.reshape(size, N, vectors.shape[1])
    reach = max((abs(k) for k, _, _ in terms), default=0)
    n_rows = max((overlap.shape[0] for *_, overlap in terms), default=N + 1)
    rows = np.zeros((size + 2 * reach, n_rows, vecs.shape[2]), dtype=np.result_type(vecs, complex))
    for k, c, overlap in terms:
        rows[reach + k : reach + k + size] += c * (overlap @ vecs)
    rows[reach : reach + size, N] += ladder * (block.row_m[::N, None] + thetas) * vecs[:, N - 1]
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
    the lowest ``count`` pairs are computed then.
    """
    # real-coefficient potentials give exactly real symmetric fibers; the
    # real solver is about four times faster than the Hermitian one
    real = np.iscomplexobj(mat) and not mat.imag.any()
    entries = np.ascontiguousarray(mat.real) if real else mat
    try:
        if vectors:
            subset = None if count is None else (0, min(count, entries.shape[0]) - 1)
            return scipy.linalg.eigh(entries, subset_by_index=subset)
        vals = scipy.linalg.eigh(entries, eigvals_only=True)
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
