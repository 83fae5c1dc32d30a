"""Small numeric helpers shared across modules: interval arithmetic,
Brent's one-dimensional minimisation, gap reports and BlochBands, the one
Bloch band driver of both the channel fiber H(theta) (bands) and the Hill
operator K_0(theta) behind the H_{0,0} reference (hill)."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "golden_section_minimize",
    "theta_grid",
    "BlochBands",
    "GapReport",
    "gap_report",
    "merge_intervals",
    "complement_within",
]

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

    ``table`` holds the ascending eigenvalues at each grid phase, one solve
    per phase (``on_grid``); ``band_intervals`` the [min, max] of the lowest
    bands, refined by ``extended``.  The arrays are read-only.
    """

    theta_grid: np.ndarray
    table: np.ndarray  # (theta_count, eigenvalues per phase)
    band_intervals: np.ndarray  # (band_count, 2)

    def __post_init__(self):
        for arr in (self.theta_grid, self.table, self.band_intervals):
            arr.setflags(write=False)

    @classmethod
    def on_grid(cls, spectrum: Callable[[float], np.ndarray], grid: np.ndarray, **fields):
        """The record of ``spectrum(theta)`` over the grid, with no band
        intervals yet; ``fields`` are those of a subclass."""
        table = np.vstack([spectrum(float(t)) for t in grid])
        return cls(theta_grid=grid, table=table, band_intervals=np.empty((0, 2)), **fields)

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

    def extended(self, spectrum: Callable[[float], np.ndarray], count: int, xtol: float, *, minimize: Callable):
        """This record with the [min, max] of its lowest count bands (fewer
        when the table holds fewer), keeping the intervals it already holds.

        Each new edge is searched band by band, minimum before maximum, by
        ``minimize`` on a bracket of one grid step on each side of the grid
        extremum, wrapping around the period, so ``spectrum`` only ever sees
        phases in [-1/2, 1/2].  The grid value is kept when the search does
        not beat it.  ``minimize`` is golden_section_minimize as bound in the
        calling module, so that a wrapper installed on that name (the
        benchmark's per-module refine spans) sees which module refines.
        """
        grid = self.theta_grid
        step = grid[1] - grid[0]

        def edge(j: int, sign: float) -> float:
            signed = sign * self.table[:, j]
            idx = int(np.argmin(signed))
            _, found = minimize(
                lambda t: sign * float(spectrum(t - round(t))[j]), grid[idx] - step, grid[idx] + step, xtol
            )
            return sign * min(found, float(signed[idx]))

        known = self.band_intervals[:count]
        new = [[edge(j, 1.0), edge(j, -1.0)] for j in range(len(known), min(count, self.table.shape[1]))]
        return replace(self, band_intervals=np.vstack([known, np.array(new, dtype=float).reshape(-1, 2)]))


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
