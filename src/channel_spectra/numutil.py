"""Small numeric helpers shared across modules: interval arithmetic,
Brent's one-dimensional minimisation, gap reports and BlochBands, the one
Bloch band record of both the channel fiber H(theta) (bands) and the Hill
operator K_0(theta) behind the H_{0,0} reference (hill).

The driver takes the family's fiber.FiberBlock, a quadratic pencil in
theta, H(theta + h) = H(theta) + h H'(theta) + kinetic h^2 I: the grid pass
calls its eigensolver ``FiberBlock.solve`` once per phase, and the Hill
edges are the grid extrema.  The channel fiber's edges are searched the
k.p way (Luttinger and Kohn, Phys. Rev. 97, 869, 1955), in its
reduced-basis form (Machiels, Maday, Oliveira, Patera and Rovas, C. R.
Acad. Sci. Paris 331, 153, 2000): the eigenvectors at two neighbouring grid
phases span those in between to high accuracy, so a small Rayleigh-Ritz
pencil reproduces every band there.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np
import scipy.linalg

from .fiber import FiberBlock, fiber_at

__all__ = [
    "golden_section_minimize",
    "theta_grid",
    "BlochBands",
    "GapReport",
    "gap_report",
    "merge_intervals",
    "complement_within",
]

# eigenpairs beyond a band that its reduced pencil spans, and that the grid
# therefore keeps above the bands it searches
RITZ_PAD = 4
# Ritz phases per grid interval at which band edges are looked for
_SUBSTEPS = 8
_CGOLD = 0.5 * (3.0 - math.sqrt(5.0))  # golden-section step as a fraction of the bracket
_EPS = sys.float_info.epsilon


def golden_section_minimize(
    f: Callable[[float], float], a: float, b: float, xtol: float = 1e-8
) -> tuple[float, float]:
    """Minimum of f on [a, b] to within xtol in the argument, by Brent's method.

    Brent's bounded minimisation (Algorithms for Minimization without
    Derivatives, 1973, ch. 5): a parabola through the three best points
    proposes each step, and a golden-section step replaces it whenever the
    parabola is not trusted, so a smooth minimum costs a handful of
    evaluations while a kink or an endpoint minimum still converges at the
    golden-section rate.  Three departures from the book, all valid for a
    unimodal f:

    - the search starts at the midpoint, so a bracket centred on the best
      point of a grid starts from that point;
    - once the bracket on one side of the best point is within xtol, the
      next step probes the other side at distance xtol / 2 instead of
      shrinking it geometrically; a probe that is no better ends the search;
    - two equal values bracket the minimum between them.

    Deterministic and derivative-free; it stops once the bracket reaches no
    further than xtol on either side of the best point.  Returns (x, f(x))
    for the best point evaluated.
    """
    if not b > a:
        raise ValueError("need b > a")
    if not xtol > 0.0:
        raise ValueError("need xtol > 0")
    x = w = v = 0.5 * (a + b)
    fx = fw = fv = f(x)
    d = e = 0.0
    probed = False
    while True:
        # smallest step that still moves x; below the float spacing at x,
        # xtol is clamped to it
        tol = max(0.5 * xtol, _EPS * abs(x))
        if max(x - a, b - x) <= 2.0 * tol:
            return x, fx
        mid = 0.5 * (a + b)
        if min(x - a, b - x) <= 2.0 * tol and not probed:
            # one side of x is settled: probe the other side one tol away,
            # which ends the search at once when it is no better
            e, d = d, (tol if x < mid else -tol)
            probed = True
        else:
            probed = False
            golden = True
            if abs(e) > tol:
                r = (x - w) * (fx - fv)
                q = (x - v) * (fx - fw)
                p = (x - v) * q - (x - w) * r
                q = 2.0 * (q - r)
                if q > 0.0:
                    p = -p
                q = abs(q)
                prev, e = e, d
                # accept the parabola's vertex only if it lies inside the
                # bracket and the step is under half the one before last
                if abs(p) < abs(0.5 * q * prev) and q * (a - x) < p < q * (b - x):
                    d = p / q
                    u = x + d
                    if u - a < 2.0 * tol or b - u < 2.0 * tol:
                        d = tol if x < mid else -tol
                    golden = False
            if golden:
                e = (b - x) if x < mid else (a - x)
                d = _CGOLD * e
        u = x + (d if abs(d) >= tol else math.copysign(tol, d))
        fu = f(u)
        if fu < fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if fu == fx:
                # equal values bracket the minimum of a unimodal f between them
                a, b = min(u, x), max(u, x)
            elif u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def theta_grid(theta_count: int) -> np.ndarray:
    """Uniform Bloch-phase grid over [-1/2, 1/2], both endpoints included.

    theta_count must be odd and >= 9, so the grid contains theta = 0 and
    the +-1/2 endpoints, where band edges of real, even potentials sit.
    """
    if theta_count < 9 or theta_count % 2 == 0:
        raise ValueError("theta_count must be odd and >= 9")
    return np.linspace(-0.5, 0.5, theta_count)


@dataclass(frozen=True, eq=False)
class BlochBands:
    """Bands of a 1-periodic Hermitian family read off a theta grid.

    ``table`` holds the ascending eigenvalues at each grid phase (``on_grid``)
    and ``vectors`` their eigenvectors at the solved phases: every phase, or
    only theta >= 0 when ``folded``, whose rows are mirrored to -theta.
    ``band_intervals`` holds the [min, max] of the lowest bands
    (``with_grid_extrema`` or ``extended``).  The arrays are read-only.
    """

    theta_grid: np.ndarray
    table: np.ndarray  # (theta_count, eigenvalues kept per phase)
    band_intervals: np.ndarray  # (band_count, 2)
    # (dim, eigenvalues kept) per solved phase; a record built without them
    # cannot be extended
    vectors: tuple[np.ndarray, ...] = field(default=(), kw_only=True)
    folded: bool = field(default=False, kw_only=True)

    def __post_init__(self):
        for arr in (self.theta_grid, self.table, self.band_intervals, *self.vectors):
            arr.setflags(write=False)

    @classmethod
    def on_grid(
        cls, block: FiberBlock, grid, keep: int | None = None, *, folds: bool, eigenvectors: bool = True, **fields
    ):
        """The record over the grid, with no band intervals yet: one
        ``block.solve`` per solved phase, for the lowest ``keep`` eigenpairs
        (all when None), or for the eigenvalues alone without
        ``eigenvectors``; such a record cannot be extended.  With ``folds``,
        which holds when E_j(-theta) = E_j(theta), only the phases theta >= 0
        are solved.  ``fields`` are those of a subclass."""
        solves = [block.solve(float(t), keep, vectors=eigenvectors) for t in grid[_first_solved(grid, folds) :]]
        table = np.vstack([vals for vals, _ in solves] if eigenvectors else solves)
        if folds:
            table = np.vstack([table[:0:-1], table])
        vectors = tuple(vecs for _, vecs in solves) if eigenvectors else ()
        return cls(
            theta_grid=grid, table=table, band_intervals=np.empty((0, 2)), vectors=vectors, folded=folds, **fields
        )

    @property
    def band_count(self) -> int:
        return len(self.band_intervals)

    @property
    def bands(self) -> np.ndarray:
        """The grid curves of the bands with intervals, (theta_count, band_count)."""
        return self.table[:, : self.band_count]

    def count_below(self, level: float) -> int:
        """Number of bands whose grid minimum lies at or below level."""
        return int(np.searchsorted(self.table.min(axis=0), level, side="right"))

    def with_grid_extrema(self, count: int):
        """This record with the [min, max] over the grid of its lowest count bands."""
        curves = self.table[:, :count]
        return replace(self, band_intervals=np.column_stack([curves.min(axis=0), curves.max(axis=0)]))

    def extended(self, block: FiberBlock, count: int, xtol: float, *, minimize: Callable):
        """This record with the [min, max] of its lowest count bands (fewer
        when the table holds fewer).

        ``block`` is the family's FiberBlock, the one ``on_grid`` solved.
        Every grid interval gets one reduced pencil from the eigenvectors at
        its two ends, shared by all bands (``_ReducedPencil``).  Its Ritz
        values at _SUBSTEPS - 1 phases inside the interval, from one stacked
        solve, refine the grid table.  An edge is searched from each local
        minimum of that finer table (of the band, or of its negative for a
        maximum) that the band could take below the best value within one
        substep, at the largest slope it shows on the grid.  From a phase inside an interval,
        ``minimize`` searches the band's Ritz value between the neighbouring
        phases to within xtol in theta.  From a grid phase, the one-sided
        slopes and the curvature there (``_derivatives``) say on which sides
        the band goes further, and the search covers one substep on each of
        them; where it goes nowhere (a turning point at a zero slope, or a
        kink), the grid value stands.  One full solve at the best theta*
        certifies the edge, which is the better of that eigenvalue and the
        grid value.

        ``minimize`` is golden_section_minimize as bound in the calling
        module, so that a wrapper installed on that name (the benchmark's
        per-module refine spans) sees which module refines and counts the
        certifying solves inside it.
        """
        first = _first_solved(self.theta_grid, self.folded)
        # the bands searched and RITZ_PAD more are all that the slopes and
        # the reduced pencils need of the eigenpairs kept
        width = min(count + RITZ_PAD, self.table.shape[1])
        thetas, rows = self.theta_grid[first:], self.table[first:, :width]
        vectors = [vecs[:, :width] for vecs in self.vectors]
        right, left, curvature = np.stack(
            [_derivatives(block, float(t), vals, vecs) for t, vals, vecs in zip(thetas, rows, vectors)], axis=1
        )
        # a slope this small moves an extremum off its grid phase by a negligible
        # amount, and it is about the rounding of the slope of a nearly degenerate pair
        flat = 1e-6 * (1.0 + float(np.max(np.abs(right))))
        reduced = [
            _ReducedPencil(block, float(a), float(b), va, vb)
            for a, b, va, vb in zip(thetas, thetas[1:], vectors, vectors[1:])
        ]
        fine_thetas = np.append(
            [a + (b - a) * k / _SUBSTEPS for a, b in zip(thetas, thetas[1:]) for k in range(_SUBSTEPS)], thetas[-1]
        )
        fine = np.empty((fine_thetas.size, width))
        fine[::_SUBSTEPS] = rows
        for p, r in enumerate(reduced):
            inner = slice(p * _SUBSTEPS + 1, (p + 1) * _SUBSTEPS)
            fine[inner] = r.values(fine_thetas[inner])[:, :width]
        step = (thetas[1] - thetas[0]) / _SUBSTEPS
        period = not self.folded

        def ritz(j: int, t: float) -> float:
            # the phase t of a bracket, mapped into the solved phases
            u = t - round(t)
            u = abs(u) if self.folded else u
            p = min(max(int(np.searchsorted(thetas, u, side="right")) - 1, 0), len(reduced) - 1)
            return reduced[p].ritz(j, u)

        def bracket(i: int, j: int, sign: float) -> tuple[float, float] | None:
            """The bracket searched from fine phase i, None when there is none."""
            t = float(fine_thetas[i])
            if i % _SUBSTEPS:
                return t - step, t + step
            # at a grid phase: only the sides on which the band goes further;
            # on a folded grid neither end has an outer side
            p = i // _SUBSTEPS
            down_right, down_left = _descents(sign * right[p, j], sign * left[p, j], sign * curvature[p, j], flat)
            a = t - step if down_left and (p > 0 or period) else t
            b = t + step if down_right and (p < len(thetas) - 1 or period) else t
            return (a, b) if a < b else None

        def edge(j: int, sign: float) -> float:
            grid_value = float(np.min(sign * self.table[:, j]))
            f = sign * fine[:, j]
            if period:  # the two ends of the grid are one phase
                f = f[:-1]
                lower, upper = np.roll(f, 1), np.roll(f, -1)
            else:
                lower, upper = np.append(np.inf, f[:-1]), np.append(f[1:], np.inf)
            # the local minima of the fine table that the band, at the largest
            # slope seen on the grid, could take below its best value within
            # one substep
            reach = step * float(np.max(np.abs([right[:, j], left[:, j]])))
            best = (math.inf, 0.0)
            for i in np.flatnonzero((f <= lower) & (f <= upper) & (f <= f.min() + reach)):
                ab = bracket(int(i), j, sign)
                if ab is not None:
                    t, value = minimize(lambda u: sign * ritz(j, u), *ab, xtol)
                    best = min(best, (value, t))
            if best[0] == math.inf:
                return grid_value * sign
            t = best[1]
            # the certifying full solve at theta*: the search on the bracket of
            # width xtol that the reduced search left ends at its first evaluation
            _, found = minimize(
                lambda u: sign * float(block.solve(u - round(u))[j]), t - 0.5 * xtol, t + 0.5 * xtol, xtol
            )
            return sign * min(found, grid_value)

        intervals = [[edge(j, 1.0), edge(j, -1.0)] for j in range(min(count, self.table.shape[1]))]
        return replace(self, band_intervals=np.array(intervals, dtype=float).reshape(-1, 2))


def _first_solved(grid: np.ndarray, folded: bool) -> int:
    """Index of the first solved phase: theta = 0 on a folded grid, else -1/2."""
    return len(grid) // 2 if folded else 0


def _derivatives(block: FiberBlock, theta: float, vals: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """One-sided slopes (to the right and to the left) and curvatures of the
    kept bands at theta, as the rows of a (3, kept) array.

    Hellmann-Feynman: E_j' = v_j* H' v_j.  Bands that meet at theta cross
    there, and the one-sided slopes of such a cluster are the eigenvalues of
    H' on its span: ascending to the right of theta, descending to its left.
    The Ritz curvature E_j'' = 2 kinetic + 2 sum_k |v_k* H' v_j|^2 / (E_j - E_k)
    sums over the kept bands apart from E_j; it is nan in a cluster.
    """
    p = vecs.conj().T @ (block.slope(theta) @ vecs)
    out = np.empty((3, vals.size))
    out[0] = out[1] = p.diagonal().real
    # pairs closer than this cross at the scale of the grid; their vectors, and
    # so their own slopes, are too ill-conditioned to tell a turning point
    tol = 1e-7 * max(1.0, float(np.max(np.abs(vals))))
    gaps = vals[:, None] - vals[None, :]
    out[2] = 2.0 * block.kinetic + 2.0 * np.sum(np.abs(p) ** 2 / np.where(np.abs(gaps) > tol, gaps, np.inf), axis=1)
    for cluster in np.split(np.arange(vals.size), np.flatnonzero(np.diff(vals) > tol) + 1):
        if cluster.size > 1:
            mu = scipy.linalg.eigvalsh(p[np.ix_(cluster, cluster)])
            out[0, cluster], out[1, cluster], out[2, cluster] = mu, mu[::-1], np.nan
    return out


def _descents(right: float, left: float, curvature: float, flat: float) -> tuple[bool, bool]:
    """Whether f falls to the right and to the left of a phase, from its
    one-sided slopes and its curvature there.

    f falls on each side where its slope points down.  Where the slope is
    below ``flat``, it falls on both sides if its curvature is negative,
    and on neither at a degenerate cluster (a kink, curvature nan).
    """
    turning = bool(curvature < 0.0)  # nan compares False
    return (
        turning if abs(right) <= flat else right < 0.0,
        turning if abs(left) <= flat else left > 0.0,
    )


class _ReducedPencil:
    """H(theta) reduced to the span of va and vb, the eigenvectors at the ends
    of the grid interval [start, end].

    Q, an orthonormal basis of that span, reduces H(start + h) to the pencil
    R0 + h R1 + kinetic h^2 I, with R0 = Q* H(start) Q and R1 = Q* H'(start) Q,
    built once for all bands.  ``values`` gives all its Ritz values at
    several phases, from one eigensolve of the stacked pencils.  A
    search of band j runs on the span of the Ritz vectors of the lowest
    j + 1 + RITZ_PAD bands at both ends (``ritz``): it holds every band up to
    j with RITZ_PAD to spare, which keeps the Ritz value accurate, and it is
    smaller than Q for all but the top bands.
    """

    def __init__(self, block: FiberBlock, start: float, end: float, va: np.ndarray, vb: np.ndarray):
        q = _span(va, vb)
        qh = q.conj().T
        self.start, self.end, self.kinetic = start, end, block.kinetic
        self.r0 = qh @ (fiber_at(block, start) @ q)
        self.r1 = qh @ (block.slope(start) @ q)
        self._bands: dict[int, tuple[np.ndarray, np.ndarray]] = {}  # j -> its pencil

    def values(self, thetas: np.ndarray) -> np.ndarray:
        """The ascending Ritz values at each of ``thetas``, one row per phase."""
        h = thetas - self.start
        pencils = self.r0 + h[:, None, None] * self.r1
        return np.linalg.eigvalsh(pencils) + (self.kinetic * h * h)[:, None]

    @functools.cached_property
    def _ends(self) -> list[np.ndarray]:
        return [scipy.linalg.eigh(self.r0 + h * self.r1, check_finite=False)[1] for h in (0.0, self.end - self.start)]

    def ritz(self, j: int, theta: float) -> float:
        """The Ritz value of band j at theta, on the smaller span of its own."""
        if j not in self._bands:
            z = _span(*(y[:, : j + 1 + RITZ_PAD] for y in self._ends))
            zh = z.conj().T
            self._bands[j] = zh @ self.r0 @ z, zh @ self.r1 @ z
        a0, a1 = self._bands[j]
        h = theta - self.start
        [value] = scipy.linalg.eigvalsh(a0 + h * a1, subset_by_index=(j, j), check_finite=False)
        return float(value) + self.kinetic * h * h


def _span(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """An orthonormal basis of the span of the columns of a and b, from their
    SVD, without its numerically dependent directions."""
    u, s, _ = scipy.linalg.svd(np.hstack([a, b]), full_matrices=False, check_finite=False)
    return u[:, s > 1e-8 * s[0]]


@dataclass(frozen=True)
class GapReport:
    """Spectral gaps (maximal open intervals) below a trusted ceiling."""

    gaps: tuple[tuple[float, float], ...]
    lower: float
    ceiling: float
    tolerance: float
    band_intervals: tuple[tuple[float, float], ...] = ()

    @property
    def count(self) -> int:
        return len(self.gaps)


def gap_report(band_intervals, floor: float, ceiling: float, tolerance: float | None = None) -> GapReport:
    """Gaps between the lowest band edge and the ceiling wider than tolerance.

    The gaps are measured from the bottom of the band union, or from
    ``floor`` when there are no bands.  ``floor`` is alpha, the bottom of
    the free spectrum, and the tolerance defaults to 1e-6 alpha.
    """
    if tolerance is None:
        tolerance = 1e-6 * floor
    intervals = tuple((float(lo), float(hi)) for lo, hi in band_intervals)
    covered = merge_intervals(intervals)
    lower = covered[0][0] if covered else floor
    return GapReport(
        gaps=tuple(complement_within(covered, lower, ceiling, tolerance)),
        lower=lower,
        ceiling=ceiling,
        tolerance=float(tolerance),
        band_intervals=intervals,
    )


def merge_intervals(intervals: Iterable[Sequence[float]]) -> list[tuple[float, float]]:
    """Union of closed intervals as a sorted list of disjoint intervals."""
    ivals = sorted((float(lo), float(hi)) for lo, hi in intervals if hi >= lo)
    out: list[tuple[float, float]] = []
    for lo, hi in ivals:
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def complement_within(
    intervals: Iterable[Sequence[float]],
    lower: float,
    upper: float,
    min_width: float = 0.0,
) -> list[tuple[float, float]]:
    """Open subintervals of [lower, upper] not covered by the given union,
    keeping only those wider than min_width.  Endpoint ties resolve toward
    the covering set (conservative for gap and certificate reporting)."""
    merged = merge_intervals(intervals)
    gaps: list[tuple[float, float]] = []
    cursor = lower
    for lo, hi in merged:
        if hi < lower:
            continue
        if lo > upper:
            break
        if lo > cursor:
            gaps.append((cursor, min(lo, upper)))
        cursor = max(cursor, hi)
        if cursor >= upper:
            break
    if cursor < upper:
        gaps.append((cursor, upper))
    return [(lo, hi) for lo, hi in gaps if hi - lo > min_width]
