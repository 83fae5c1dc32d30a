"""Correctness checks on the artifacts of each request kind.

They run after a request, outside its timed region, and read only what the
request wrote to disk.  Where a check needs numbers of its own it computes
them here: closed forms for W = 0 (bands and orbits), a Toeplitz Hill solve
in plain numpy, the transport thresholds from their formulas, and, for
coupled 2-D bands, one solve at a larger truncation through the public
``hermite`` and ``fiber`` functions.  Every check returns a list of
problems; an empty list is a pass.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from workloads import Request, derived

# tolerances, each far above what a correct run shows and far below what a
# broken one would
FREE_BAND_TOL = 1e-5  # W = 0 band edges; a kink refined to xtol = 1e-6 is off by < 1e-5
COUPLED_ROW_TOL = 1e-6  # grid rows against a (1.5 N, M + 4) solve; the probe asks 1e-7
HILL_ROW_TOL = 1e-9  # same Fourier matrix, solved here
FD_TOL = 1e-5  # the CLI's own diagnostics use the same bound
ORBIT_TOL = 1e-5  # RK4 at dt = 1e-3 against the W = 0 closed form (seen: 2e-7)
ENERGY_DRIFT_TOL = 1e-6  # relative energy drift of RK4 at dt = 1e-3 (seen: 3e-9)
REL_TOL = 1e-12  # formulas recomputed here


def read_table(path: Path) -> tuple[list[str], np.ndarray]:
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = [[float(v) for v in row] for row in reader]
    return header, np.array(rows, dtype=float).reshape(len(rows), len(header))


def read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path: Path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# bands and gaps


def free_band_intervals(alpha: float, beta: float, count: int) -> np.ndarray:
    """Exact [min, max] of the lowest ``count`` sorted curves of
    alpha (2n+1) + beta (m+theta)^2 over theta in [-1/2, 1/2].

    The sorted curves are piecewise parabolas, so their extrema sit at
    theta in {0, +-1/2} or where two levels cross.
    """
    n_levels = np.arange(0, count + 1)
    ms = np.arange(-count - 1, count + 2)
    nn, mm = (a.ravel() for a in np.meshgrid(n_levels, ms, indexing="ij"))
    base = alpha * (2 * nn + 1)
    lowest = base + beta * np.maximum(np.abs(mm) - 0.5, 0.0) ** 2
    highest = base + beta * (np.abs(mm) + 0.5) ** 2
    bound = np.sort(highest)[count - 1]
    keep = lowest <= bound
    nn, mm, base = nn[keep], mm[keep], base[keep]
    thetas = [-0.5, 0.0, 0.5]
    for i in range(nn.size):
        for j in range(i + 1, nn.size):
            dm = mm[i] - mm[j]
            if dm == 0:
                continue
            theta = 0.5 * ((base[j] - base[i]) / (beta * dm) - (mm[i] + mm[j]))
            if -0.5 < theta < 0.5:
                thetas.append(theta)
    th = np.array(thetas)
    values = np.sort(base[None, :] + beta * (mm[None, :] + th[:, None]) ** 2, axis=1)[:, :count]
    return np.column_stack([values.min(axis=0), values.max(axis=0)])


def gap_edge_problems(gaps, intervals, ceiling: float, grid_values=(), grid_tol: float = 0.0) -> list[str]:
    """Every gap edge is a band edge (or the ceiling) and nothing lies inside a gap.

    Edges are copied from band edges, so they must match exactly; values
    solved elsewhere may sit ``grid_tol`` inside a gap edge.
    """
    problems = []
    maxima = {float(hi) for _, hi in intervals}
    minima = {float(lo) for lo, _ in intervals}
    grid = np.asarray(grid_values, dtype=float).ravel()
    for lo, hi in gaps:
        lo, hi = float(lo), float(hi)
        if not hi > lo:
            problems.append(f"gap ({lo!r}, {hi!r}) is empty")
        if lo not in maxima:
            problems.append(f"gap lower edge {lo!r} is not a band maximum")
        if hi not in minima and hi != float(ceiling):
            problems.append(f"gap upper edge {hi!r} is neither a band minimum nor the ceiling")
        for blo, bhi in intervals:
            if blo < hi and bhi > lo:
                problems.append(f"band [{blo!r}, {bhi!r}] overlaps gap ({lo!r}, {hi!r})")
        inside = grid[(grid > lo + grid_tol) & (grid < hi - grid_tol)]
        if inside.size:
            problems.append(f"grid value {inside[0]!r} lies inside gap ({lo!r}, {hi!r})")
    return problems


def _reference_rows(settings: dict, summary: dict, thetas) -> np.ndarray:
    """Eigenvalues at the given thetas at truncation (1.5 N, M + 4)."""
    from channel_spectra.channel import derive_params, potential_from_dict
    from channel_spectra.fiber import assemble_fiber, eigenvalues_fiber
    from channel_spectra.hermite import project_potential

    params = derive_params(settings["B"], settings["omega"])
    spec = potential_from_dict(settings["potential"])
    n_ref = summary["n_hermite"] + summary["n_hermite"] // 2
    m_ref = summary["m_max"] + 4
    proj = project_potential(spec, params, nmax=n_ref - 1, mfourier=max(16, 2 * m_ref))
    return np.array(
        [eigenvalues_fiber(assemble_fiber(params, proj, float(t), n_ref, m_ref)) for t in thetas]
    )


def check_bands(req: Request, out: Path) -> list[str]:
    s = req.settings
    summary = read_json(out / "bands_summary.json")
    problems = []
    if not summary["converged"]:
        problems.append("truncation probe did not converge")
    _, table = read_table(out / "bands.csv")
    _, ivals = read_table(out / "band_intervals.csv")
    theta, values = table[:, 0], table[:, 1:]
    intervals = ivals[:, 1:]
    count = values.shape[1]
    if count != summary["band_count"] or intervals.shape[0] != count:
        problems.append("band count differs between bands.csv, band_intervals.csv and the summary")
        return problems
    if theta.size != s["theta_count"]:
        problems.append(f"{theta.size} grid rows for theta_count {s['theta_count']}")
    ceiling = float(summary["energy_ceiling"])
    # refinement can only widen an interval beyond the grid values
    if np.any(intervals[:, 0] > values.min(axis=0)) or np.any(intervals[:, 1] < values.max(axis=0)):
        problems.append("a refined band interval does not contain its grid values")

    alpha, beta, _ = derived(s["B"], s["omega"])
    if s["potential"]["kind"] == "zero":
        exact = free_band_intervals(alpha, beta, count)
        dev = float(np.max(np.abs(intervals - exact)))
        if dev > FREE_BAND_TOL:
            problems.append(f"W = 0 band intervals deviate from the closed form by {dev:.3e}")

    rows = [i for i, t in enumerate(theta) if t in (-0.5, 0.0, 0.5)]
    if len(rows) != 3:
        problems.append("grid misses theta = 0 or an endpoint")
    else:
        ref = _reference_rows(s, summary, theta[rows])[:, :count]
        got = values[rows]
        trusted = (got <= ceiling) & (ref <= ceiling)
        dev = float(np.max(np.abs(got - ref)[trusted], initial=0.0))
        if dev > COUPLED_ROW_TOL:
            problems.append(f"grid rows deviate from a larger-truncation solve by {dev:.3e}")

    if req.command == "gaps":
        _, gtable = read_table(out / "gaps.csv")
        gaps = [(row[1], row[2]) for row in gtable]
        problems += gap_edge_problems(gaps, [tuple(r) for r in intervals], ceiling, values)
        for row in gtable:
            if row[3] != row[2] - row[1]:
                problems.append(f"gap {int(row[0])} width is not upper - lower")
    return problems


def _report_pairs(report: dict, key: str):
    return [(float(lo), float(hi)) for lo, hi in report[key]]


def hill_toeplitz_spectrum(coeffs: dict[int, complex], theta: float, m_max: int) -> np.ndarray:
    """Eigenvalues of -d^2 + V at Bloch phase theta in the Fourier basis."""
    ms = np.arange(-m_max, m_max + 1)
    diff = ms[:, None] - ms[None, :]
    mat = np.zeros(diff.shape, dtype=complex)
    for k, c in coeffs.items():
        mat[diff == k] = c
    mat[np.diag_indices_from(mat)] += (ms + theta) ** 2
    return np.linalg.eigvalsh(mat)


def _fourier_coeffs(potential: dict) -> dict[int, complex]:
    return {int(k): complex(v[0], v[1]) for k, v in potential["coeffs"].items()}


def check_sweep(req: Request, out: Path) -> list[str]:
    s = req.settings
    summary = read_json(out / "sweep_summary.json")
    problems = []
    entries = summary["entries"]
    if [e["omega"] for e in entries] != s["omega_list"]:
        problems.append("sweep entries do not follow omega_list")
    coeffs = _fourier_coeffs(s["potential"])
    for e in entries:
        if not e["converged"]:
            problems.append(f"omega={e['omega']}: truncation probe did not converge")
        alpha, _, _ = derived(s["B"], e["omega"])
        if abs(e["alpha"] - alpha) > REL_TOL * alpha:
            problems.append(f"omega={e['omega']}: alpha {e['alpha']} is not sqrt(B^2 + omega^2)")
        for name in ("full", "reference"):
            rep = e[name]
            ivals = _report_pairs(rep, "band_intervals")
            problems += [
                f"omega={e['omega']} {name}: {p}"
                for p in gap_edge_problems(_report_pairs(rep, "gaps"), ivals, float(rep["ceiling"]))
            ]
        # the reference bands are alpha + bands of K_0; W has no profile, so
        # W_0 has the coefficients of W itself
        ref_ivals = _report_pairs(e["reference"], "band_intervals")
        for theta in (0.0, 0.5):
            own = alpha + hill_toeplitz_spectrum(coeffs, theta, s["hill_m_max"])[: len(ref_ivals)]
            for j, (lo, hi) in enumerate(ref_ivals):
                if not lo - HILL_ROW_TOL <= own[j] <= hi + HILL_ROW_TOL:
                    problems.append(
                        f"omega={e['omega']}: reference band {j + 1} misses its theta={theta} value"
                    )
        full_gaps = _report_pairs(e["full"], "gaps")
        ref_gaps = _report_pairs(e["reference"], "gaps")
        for g, disc in enumerate(e["discrepancies"]):
            if g >= len(ref_gaps) or not full_gaps:
                continue
            rlo, rhi = ref_gaps[g]
            match = max(full_gaps, key=lambda gap: min(gap[1], rhi) - max(gap[0], rlo))
            if min(match[1], rhi) - max(match[0], rlo) <= 0.0:
                centre = 0.5 * (rlo + rhi)
                match = min(full_gaps, key=lambda gap: abs(0.5 * (gap[0] + gap[1]) - centre))
            expected = max(abs(match[0] - rlo), abs(match[1] - rhi))
            if abs(float(disc) - expected) > REL_TOL * max(1.0, expected):
                problems.append(f"omega={e['omega']}: discrepancy {disc} is not {expected!r}")
    return problems


# ---------------------------------------------------------------------------
# hill


def check_hill(req: Request, out: Path) -> list[str]:
    s = req.settings
    problems = []
    alpha, _, _ = derived(s["B"], s["omega"])
    coeffs = _fourier_coeffs(s["potential"])
    _, curves = read_table(out / "hill_curves.csv")
    for row in curves:
        if row[0] in (-0.5, 0.0, 0.5):
            own = alpha + hill_toeplitz_spectrum(coeffs, row[0], s["m_max"])[: row.size - 1]
            dev = float(np.max(np.abs(own - row[1:])))
            if dev > HILL_ROW_TOL:
                problems.append(f"hill curve row theta={row[0]} deviates by {dev:.3e}")
    _, ivals = read_table(out / "hill_intervals.csv")
    intervals = [tuple(r[1:]) for r in ivals]
    _, gtable = read_table(out / "hill_gaps.csv")
    top = max(hi for _, hi in intervals)
    ceiling = s.get("ceiling", 3.0 * alpha)
    for row in gtable:
        lo, hi = row[1], row[2]
        if hi <= top:
            problems += gap_edge_problems([(lo, hi)], intervals, ceiling)
    own_grid = np.concatenate(
        [alpha + hill_toeplitz_spectrum(coeffs, t, s["m_max"]) for t in np.linspace(-0.5, 0.5, 33)]
    )
    gaps = [(row[1], row[2]) for row in gtable]
    problems += [
        p for p in gap_edge_problems(gaps, [], ceiling, own_grid, HILL_ROW_TOL) if "inside" in p
    ]
    problems += fd_problems(read_json(out / "fd_check.json"))
    return problems


def fd_problems(report: dict) -> list[str]:
    problems = []
    for check in report["checks"]:
        fourier = np.asarray(check["fourier"], dtype=float)
        fd = np.asarray(check["finite_difference"], dtype=float)
        dev = float(np.max(np.abs(fourier - fd)))
        if abs(dev - float(check["max_abs_diff"])) > REL_TOL * max(dev, 1.0):
            problems.append(f"theta={check['theta']}: reported FD deviation is not the computed one")
        if dev > FD_TOL:
            problems.append(f"theta={check['theta']}: Fourier and FD spectra differ by {dev:.3e}")
    return problems


# ---------------------------------------------------------------------------
# classical orbits


def free_orbit(B: float, omega: float, state0, times: np.ndarray) -> np.ndarray:
    """Exact W = 0 orbit (x, y, px, py) at the given times, from t = 0."""
    x0, y0, px0, py0 = state0
    alpha, beta, mu = derived(B, omega)
    amp = y0 + mu * px0
    c, s = np.cos(2.0 * alpha * times), np.sin(2.0 * alpha * times)
    y = -mu * px0 + amp * c + (py0 / alpha) * s
    py = py0 * c - alpha * amp * s
    x = x0 + 2.0 * beta * px0 * times + (B / alpha) * amp * s + mu * py0 * (1.0 - c)
    return np.column_stack([x, y, np.full_like(times, px0), py])


def orbit_problems(settings: dict, table: np.ndarray) -> list[str]:
    problems = []
    times, states, energy = table[:, 0], table[:, 1:5], table[:, 5]
    expected_steps = int(round(settings["t_end"] / settings["dt"]))
    if times.size != expected_steps + 1:
        problems.append(f"{times.size - 1} steps instead of {expected_steps}")
    drift = float(np.max(np.abs(energy - energy[0])) / max(abs(energy[0]), 1.0))
    if drift > ENERGY_DRIFT_TOL:
        problems.append(f"RK4 energy drift {drift:.3e}")
    if settings["potential"]["kind"] == "zero":
        state0 = (0.0, settings.get("y0", 0.0), settings["px0"], settings["py0"])
        exact = free_orbit(settings["B"], settings["omega"], state0, times)
        dev = float(np.max(np.abs(states - exact)))
        if dev > ORBIT_TOL:
            problems.append(f"W = 0 orbit deviates from the closed form by {dev:.3e}")
    return problems


def check_classical(req: Request, out: Path) -> list[str]:
    _, table = read_table(out / "trajectory.csv")
    problems = orbit_problems(req.settings, table)
    if read_json(out / "classical_summary.json")["aborted"]:
        problems.append("trajectory aborted")
    return problems


# ---------------------------------------------------------------------------
# transport certificates and the commutator calculus


def condition_one(B: float, omega: float, E: float, delta: float, eps: float) -> float:
    alpha, beta, _ = derived(B, omega)
    big_c = math.sqrt(6.0) * (1.0 + alpha * alpha) / (omega * omega)
    return delta / (2.0 * (delta / alpha + beta * big_c) * (1.0 + E / eps))


def check_mourre(req: Request, out: Path) -> list[str]:
    s = req.settings
    problems = []
    cert = read_json(out / "certificate.json")
    thr = condition_one(s["B"], s["omega"], s["E"], s["delta"], s["eps"])
    if abs(float(cert["condition_one_threshold"]) - thr) > REL_TOL * thr:
        problems.append(f"condition (I) threshold {cert['condition_one_threshold']} is not {thr!r}")
    if cert["condition_one_ok"] != (float(cert["w0"]) < float(cert["condition_one_threshold"])):
        problems.append("condition (I) verdict disagrees with its threshold")
    sc = s["scaling"]
    table = read_rows(out / "scaling.csv")
    for row in table:
        omega = float(row["omega"])
        alpha, _, _ = derived(s["B"], omega)
        thr = condition_one(s["B"], omega, sc["E0"] * alpha, sc["delta0"] * alpha, sc["eps0"] * alpha)
        if abs(float(row["condition_one_threshold"]) - thr) > REL_TOL * thr:
            problems.append(f"scaling row omega={omega}: threshold is not {thr!r}")
    if len(table) != len(sc["omega_list"]):
        problems.append("scaling.csv does not have one row per omega")
    return problems


def check_commutator(req: Request, out: Path) -> list[str]:
    s = req.settings
    problems = []
    _, beta, _ = derived(s["B"], s["omega"])
    rows = read_rows(out / "commutator.csv")
    comm = {r["term"]: float(r["coefficient"]) for r in rows if r["observable"] == "[H0,iA]"}
    expected = 2.0 * beta
    if abs(comm.get("p1 p1", 0.0) - expected) > REL_TOL * expected:
        problems.append(f"[H0, iA] p1^2 coefficient {comm.get('p1 p1')} is not 2 beta = {expected!r}")
    extra = {k: v for k, v in comm.items() if k != "p1 p1" and abs(v) > REL_TOL * expected}
    if extra:
        problems.append(f"[H0, iA] has extra terms {extra}")
    verdict = (out / "verdict.txt").read_text()
    if "unexpected" in verdict:
        problems.append("verdict.txt reports unexpected commutator terms")
    if "--gen-nogo" in req.flags:
        nogo = read_json(out / "nogo.json")
        if nogo["verdict"] != "no-go" or not nogo["x1sq_identically_zero"]:
            problems.append(f"no-go scan verdict is {nogo['verdict']!r}")
    return problems


def check_diagnostics(req: Request, out: Path) -> list[str]:
    report = read_json(out / "diagnostics.json")
    return [] if report["all_passed"] else [
        f"diagnostics check {name} failed" for name, c in report["checks"].items() if not c["passed"]
    ]


CHECKERS = {
    "bands": check_bands,
    "gaps": check_bands,
    "sweep-omega": check_sweep,
    "hill": check_hill,
    "classical": check_classical,
    "mourre": check_mourre,
    "commutator": check_commutator,
    "diagnostics": check_diagnostics,
}


def check(req: Request, out: Path) -> list[str]:
    """Problems with the artifacts a request left in ``out``."""
    try:
        return CHECKERS[req.command](req, Path(out))
    except (OSError, KeyError, ValueError, IndexError, StopIteration) as exc:
        return [f"artifact unreadable or incomplete: {type(exc).__name__}: {exc}"]
