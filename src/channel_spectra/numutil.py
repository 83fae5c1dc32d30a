"""Small numeric helpers shared across modules: interval arithmetic,
Brent's one-dimensional minimisation, Bloch band computation and gap
reports."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = [
    "golden_section_minimize",
    "refine_band_edge",
    "theta_grid",
    "bloch_bands",
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


def refine_band_edge(
    value: Callable[[float], float],
    grid: np.ndarray,
    column: np.ndarray,
    sign: float,
    xtol: float,
    *,
    minimize: Callable,
) -> float:
    """Minimum (sign = +1) or maximum (sign = -1) of a 1-periodic band.

    ``column`` holds the band on the uniform ``grid``; the search brackets
    the grid extremum by one grid step on each side, wrapping around the
    period, so ``value`` only ever sees phases in [-1/2, 1/2].  The grid
    value is kept when the search does not beat it.  ``minimize`` is
    golden_section_minimize as bound in the calling module, so that a
    wrapper installed on that name (the benchmark's per-module refine
    spans) sees which module refines.
    """
    signed = sign * np.asarray(column)
    idx = int(np.argmin(signed))
    step = grid[1] - grid[0]
    _, found = minimize(
        lambda t: sign * value(t - round(t)), grid[idx] - step, grid[idx] + step, xtol
    )
    return sign * min(found, float(signed[idx]))


def theta_grid(theta_count: int) -> np.ndarray:
    """Uniform Bloch-phase grid over [-1/2, 1/2], both endpoints included.

    theta_count must be odd and >= 9, so the grid contains theta = 0 and
    the +-1/2 endpoints, where band edges of real, even potentials sit.
    """
    if theta_count < 9 or theta_count % 2 == 0:
        raise ValueError("theta_count must be odd and >= 9")
    return np.linspace(-0.5, 0.5, theta_count)


def bloch_bands(
    spectrum: Callable[[float], np.ndarray],
    grid: np.ndarray,
    keep: Callable[[np.ndarray], int],
    refine: bool,
    xtol: float,
    *,
    minimize: Callable,
) -> tuple[np.ndarray, np.ndarray]:
    """Band curves on the grid and their [min, max] intervals.

    ``spectrum(theta)`` returns the ascending eigenvalues at one phase; the
    grid pass solves each phase once for all bands.  ``keep`` maps the
    (theta, eigenvalue) table to the number of lowest bands kept.  With
    ``refine``, every band edge is sharpened by refine_band_edge around its
    grid extremum, band by band, minimum before maximum; ``minimize`` is
    passed through to it.
    """
    table = np.vstack([spectrum(float(t)) for t in grid])
    bands = table[:, : keep(table)].copy()
    intervals = np.column_stack([bands.min(axis=0), bands.max(axis=0)])
    if refine:
        for j in range(bands.shape[1]):
            for col, sign in enumerate((1.0, -1.0)):
                intervals[j, col] = refine_band_edge(
                    lambda t: float(spectrum(t)[j]), grid, bands[:, j], sign, xtol, minimize=minimize
                )
    return bands, intervals


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


def gap_report(band_intervals, floor: float, ceiling: float, tolerance: float) -> GapReport:
    """Gaps between the lowest band edge and the ceiling wider than tolerance.

    The gaps are measured from the bottom of the band union, or from
    ``floor`` when there are no bands.
    """
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
