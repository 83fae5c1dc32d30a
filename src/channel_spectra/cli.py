"""Command line interface.

    channel-spectra <command> [--config file] [--set key=value ...]
                              [--out dir] [--workers 1] [--gen-nogo]

Commands and their main artifacts (written into the output directory):

    bands        bands.csv (theta, band_1..band_k), band_intervals.csv,
                 bands.svg
    gaps         everything from bands plus gaps.csv (gap, lower, upper,
                 width)
    sweep-omega  sweep.csv (omega, alpha, gap, full/reference gap edges,
                 discrepancy), sweep_summary.json
    hill         hill_curves.csv, hill_intervals.csv, hill_gaps.csv for the
                 lowest-transverse-channel operator alpha + K0,
                 K0 = -d^2/dx^2 + W_0(x); optional finite-difference
                 cross-check (fd_check.json)
    classical    trajectory.csv (t, x, y, px, py, energy), guiding.csv
                 (t, sx, sy, px_sx), classical_summary.json
    mourre       certificate.json, excluded.csv, certified.csv; optional
                 scaling.csv when a scaling block is configured
    commutator   commutator.csv and verdict.txt; with --gen-nogo also
                 nogo.json describing the constraint chain
    diagnostics  diagnostics.json with self-check results

Configuration is one JSON object: the --config file, then --set flags
(values parse as JSON, dots descend into nested objects, e.g. --set
potential.kind=zero).  Each command's keys, with their types, defaults and
ranges, are declared once in the command tables below and checked by the
parser in schema.py, which also checks the potential through the
tables next to channel.potential_from_dict.  Unknown keys are rejected at
every depth, every number must be finite, and a bad single key exits 1
before the output directory is created.  Once it exists, manifest.json
records the typed config, the artifacts written, the exit status and, on
failure, the error, however the run ends.  Exit status: 0 on success (an
inadmissible transport certificate is a result, not an error), 1 on
configuration errors, including settings that are valid one by one but not
together (delta >= alpha), 2 on numerical failure: a truncation that does
not converge, or any other ValueError from the library.  Every command
runs in a single process; the worker count flag is kept for existing
scripts and any value other than 1 is a configuration error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from . import __version__
from .bands import compute_bands, detect_gaps, gap_persistence_sweep
from .channel import (
    PERIODIC_POTENTIAL,
    POTENTIAL,
    ChannelParams,
    SeparableFourierPotential,
    ZeroPotential,
    _fourier_eval,
    derive_params,
    potential_from_dict,
)
from .classical import ClassicalState, closed_form_trajectory, integrate, mourre_observable
from .fiber import EigensolverError, assemble_fiber, complex_theta_resolvent_bound, eigenvalues_fiber, hill_block
from .hermite import project_potential
from .hill import _coarse_points, check_harmonics, fd_hill_richardson, h00_gaps, hill_bands, hill_spectrum
from .mourre import ScalingSweepRow, appendix_norm_checks, evaluate_certificate, scaling_sweep
from .numutil import theta_grid
from .output import jsonable, write_band_svg, write_csv, write_json
from .quadratic import QuadraticObservable, commutator_iA, conjugate_observable, gen_nogo_scan, h0_observable
from .schema import ConfigError, Key, parse

MANIFEST_SCHEMA_VERSION = 1

__all__ = ["ConfigError", "main", "resolve_config", "COMMANDS"]


# the command tables: every key with its type, default and range (see
# schema.py); None means "choose automatically"
_B = Key(float, 3.0, ge=0.0)
_OMEGA = Key(float, 4.0, gt=0.0)


def _ascending(omegas: list[float]) -> None:
    # a sweep reads its verdict along the list, and a repeat reruns a whole omega
    if any(b <= a for a, b in zip(omegas, omegas[1:])):
        raise ValueError(f"must ascend strictly, got {omegas}")


def _potential(default: dict, kinds=PERIODIC_POTENTIAL) -> Key:
    # the gap and Hill commands need W periodic in x; the constructors'
    # own checks (conjugate symmetry, grid shape, bump width) run here too
    return Key(kinds, default, check=potential_from_dict)


_ZERO_W = {"kind": "zero"}
_TWO_COS = {"kind": "fourier_x", "coeffs": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}}
_GAP_TOLERANCE = Key(float, None, ge=0.0)

_BANDS = {
    "B": _B,
    "omega": _OMEGA,
    "potential": _potential(_ZERO_W),
    "theta_count": Key(int, 33, check=theta_grid),
    "n_hermite": Key(int, None, ge=1),
    "m_max": Key(int, None, ge=0),
    "ceiling": Key(float, None),
    "refine": Key(bool, True),
    "xtol": Key(float, 1e-8, gt=0.0),
    "cauchy_tol": Key(float, 1e-7, gt=0.0),
}

_SCHEMAS: dict[str, dict] = {
    "bands": _BANDS,
    "gaps": {**_BANDS, "potential": _potential(_TWO_COS), "gap_tolerance": _GAP_TOLERANCE},
    "sweep-omega": {
        "B": _B,
        "omega_list": Key(list[float], [4.0, 10.0, 40.0], gt=0.0, check=_ascending),
        "potential": _potential(_TWO_COS),
        "theta_count": Key(int, 17, check=theta_grid),
        "hill_m_max": Key(int, 32, ge=2),
        "target_gap_count": Key(int, 1, ge=1),
        "gap_tolerance": _GAP_TOLERANCE,
        "n_hermite": Key(int, None, ge=1),
        "refine": Key(bool, True),
    },
    "hill": {
        "B": _B,
        "omega": _OMEGA,
        "potential": _potential(_TWO_COS),
        "m_max": Key(int, 32, ge=2),
        "theta_count": Key(int, 17, check=theta_grid),
        "band_count": Key(int, 8, ge=1),
        "ceiling": Key(float, None),
        "fd_check": Key(bool, False),
        # even: the Richardson step halves the grid; at the 5 eigenvalues
        # checked, the half grid must hold the oracle's 40 points
        "fd_points": Key(int, 1024, ge=80, check=_coarse_points),
    },
    "classical": {
        "B": _B,
        "omega": _OMEGA,
        "potential": _potential(_ZERO_W, POTENTIAL),
        "x0": Key(float, 0.0),
        "y0": Key(float, 0.0),
        "px0": Key(float, 1.0),
        "py0": Key(float, 0.0),
        "t_end": Key(float, 1.0, gt=0.0),
        "dt": Key(float, 1e-3, gt=0.0),
    },
    "mourre": {
        "B": _B,
        "omega": _OMEGA,
        "potential": _potential(_ZERO_W, POTENTIAL),
        "E": Key(float, 8.0, gt=0.0),
        "delta": Key(float, 1.0, gt=0.0),
        "eps": Key(float, 1.0, gt=0.0),
        "scaling": Key(
            {
                "E0": Key(float, gt=0.0),
                "delta0": Key(float, gt=0.0),
                "eps0": Key(float, gt=0.0),
                "omega_list": Key(list[float], gt=0.0, check=_ascending),
            },
            None,
        ),
    },
    "commutator": {"B": _B, "omega": _OMEGA, "gen_nogo": Key(bool, False)},
    "diagnostics": {"B": _B, "omega": _OMEGA},
}

COMMANDS = tuple(_SCHEMAS)


def _apply_set(config: dict, assignment: str) -> None:
    key, sep, raw = assignment.partition("=")
    if not sep:
        raise ConfigError(f"--set expects key=value, got {assignment!r}")
    *parents, last = key.split(".")
    target = config
    for part in parents:
        if target.get(part) is None:
            target[part] = {}
        target = target[part]
        if not isinstance(target, dict):
            raise ConfigError(f"cannot descend into non-object key {part!r}")
    try:
        target[last] = json.loads(raw)
    except json.JSONDecodeError:
        target[last] = raw  # a bare string


def resolve_config(command: str, config_path: str | None, sets: list[str]) -> dict:
    """The optional JSON file, then --set overrides, validated against the
    command's schema: the typed config with defaults filled in, or a
    ConfigError.  A dotted --set descends into the file's object, or into a
    new empty one, never into the default."""
    config = {}
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must contain a JSON object")
        config = file_cfg
    for assignment in sets:
        _apply_set(config, assignment)
    return parse(_SCHEMAS[command], config)


class _Artifacts:
    """Collects written files for the manifest, single-threaded and ordered."""

    def __init__(self, out_dir: Path):
        self.out_dir = out_dir
        self.names: list[str] = []

    def write(self, writer, name: str, *args, **kwargs) -> None:
        """``writer(out_dir / name, *args, **kwargs)``, recorded for the manifest."""
        writer(self.out_dir / name, *args, **kwargs)
        self.names.append(name)


_GAP_HEADER = ["gap", "lower", "upper", "width"]


def _numbered(rows) -> list[list]:
    """Each row with its 1-based index in front: the band and gap columns."""
    return [[j, *row] for j, row in enumerate(rows, 1)]


def _gap_rows(gaps) -> list[list]:
    return _numbered([lo, hi, hi - lo] for lo, hi in gaps)


def _emit_curves(art: _Artifacts, names, grid, bands, intervals):
    """Band curves over the grid and their [min, max] intervals, as the two CSVs ``names``."""
    header = ["theta"] + [f"band_{j + 1}" for j in range(len(intervals))]
    art.write(write_csv, names[0], header, np.column_stack([grid, bands]))
    art.write(write_csv, names[1], ["band", "min", "max"], _numbered(intervals.tolist()))


def _cmd_bands(cfg: dict, art: _Artifacts, with_gaps: bool) -> int:
    params = derive_params(cfg["B"], cfg["omega"])
    bs = compute_bands(
        params,
        potential_from_dict(cfg["potential"]),
        theta_count=cfg["theta_count"],
        energy_ceiling=cfg["ceiling"],
        n_hermite=cfg["n_hermite"],
        m_max=cfg["m_max"],
        refine=cfg["refine"],
        xtol=cfg["xtol"],
        cauchy_tol=cfg["cauchy_tol"],
    )
    gap_pairs = ()
    if with_gaps:
        report = detect_gaps(bs, gap_tolerance=cfg["gap_tolerance"])
        gap_pairs = report.gaps
        art.write(write_csv, "gaps.csv", _GAP_HEADER, _gap_rows(gap_pairs))
    _emit_curves(art, ("bands.csv", "band_intervals.csv"), bs.theta_grid, bs.bands, bs.band_intervals)
    art.write(
        write_band_svg,
        "bands.svg",
        bs.theta_grid,
        bs.bands.T,
        ceiling=bs.energy_ceiling,
        gaps=gap_pairs,
    )
    art.write(
        write_json,
        "bands_summary.json",
        {
            "params": params,
            "band_count": bs.band_count,
            "spectrum_bottom": bs.spectrum_bottom,
            "energy_ceiling": bs.energy_ceiling,
            "basis": bs.basis,
            "n_hermite": bs.n_hermite,
            "m_max": bs.m_max,
            "converged": bs.converged,
            "notes": bs.notes,
        },
    )
    print(
        f"{bs.band_count} band(s) below ceiling {bs.energy_ceiling:.6g}; "
        f"spectrum bottom {bs.spectrum_bottom:.9g}"
    )
    if with_gaps:
        print(f"{len(gap_pairs)} gap(s) detected")
    if not bs.converged:
        print("warning: truncation did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_sweep(cfg: dict, art: _Artifacts) -> int:
    report = gap_persistence_sweep(
        cfg["B"],
        cfg["omega_list"],
        potential_from_dict(cfg["potential"]),
        target_gap_count=cfg["target_gap_count"],
        theta_count=cfg["theta_count"],
        hill_m_max=cfg["hill_m_max"],
        gap_tolerance=cfg["gap_tolerance"],
        n_hermite=cfg["n_hermite"],
        refine=cfg["refine"],
    )
    rows = []
    for entry in report.entries:
        for j, disc in enumerate(entry.discrepancies):
            ref = entry.reference.gaps[j] if j < len(entry.reference.gaps) else (math.nan, math.nan)
            rows.append([entry.omega, entry.alpha, j + 1, ref[0], ref[1], disc])
    art.write(
        write_csv,
        "sweep.csv",
        ["omega", "alpha", "gap", "reference_lower", "reference_upper", "discrepancy"],
        rows,
    )
    full_rows = [[e.omega, *row] for e in report.entries for row in _gap_rows(e.full.gaps)]
    art.write(write_csv, "full_gaps.csv", ["omega", *_GAP_HEADER], full_rows)
    art.write(write_json, "sweep_summary.json", report)
    trend = "decreasing" if report.discrepancies_decreasing else "not monotone"
    if len(report.entries) < 2:
        trend = "no trend from one omega"
    print(f"gap-edge discrepancy over omega list: {trend}")
    if not all(e.converged for e in report.entries):
        print("warning: truncation did not converge", file=sys.stderr)
        return 2
    return 0


def _cmd_hill(cfg: dict, art: _Artifacts) -> int:
    m_max = cfg["m_max"]
    # refused before any solve, as is a window without room for V's harmonics;
    # h00_gaps's own checks also precede every artifact
    if cfg["band_count"] > 2 * m_max - 2:
        raise ConfigError(
            f"band_count {cfg['band_count']} exceeds the {2 * m_max - 2} bands that the "
            f"Fourier window m_max = {m_max} resolves"
        )
    params = derive_params(cfg["B"], cfg["omega"])
    spec = potential_from_dict(cfg["potential"])
    pairs = project_potential(spec, params, nmax=0).diag_coeffs(0)
    check_harmonics(pairs, m_max, params.alpha)
    hb = hill_bands(pairs, m_max, cfg["theta_count"], cfg["band_count"])
    ceiling = 3.0 * params.alpha if cfg["ceiling"] is None else cfg["ceiling"]
    gaps = h00_gaps(params, hb, ceiling)
    names = ("hill_curves.csv", "hill_intervals.csv")
    _emit_curves(art, names, hb.theta_grid, params.alpha + hb.bands, params.alpha + hb.band_intervals)
    art.write(write_csv, "hill_gaps.csv", _GAP_HEADER, _gap_rows(gaps.gaps))
    print(f"{hb.band_count} band(s); {gaps.count} gap(s) below {ceiling:.6g}")
    if cfg["fd_check"]:
        # V(x) from the same pairs, conjugate-symmetric as W is real
        def v_of_x(x):
            return _fourier_eval(pairs, x, np.zeros_like(x))

        # one block of the request's Fourier window serves the three phases
        block = hill_block(hb.coeffs, m_max)
        checks = []
        for theta in (0.0, 0.25, 0.5):
            fourier = block.solve(theta, 5)
            fd = fd_hill_richardson(v_of_x, theta, count=5, n_points=cfg["fd_points"])
            checks.append(
                {
                    "theta": theta,
                    "fourier": list(fourier),
                    "finite_difference": list(fd),
                    "max_abs_diff": float(np.max(np.abs(np.asarray(fourier) - np.asarray(fd)))),
                }
            )
        art.write(write_json, "fd_check.json", {"checks": checks})
        worst = max(c["max_abs_diff"] for c in checks)
        print(f"finite-difference cross-check: max deviation {worst:.3e}")
    return 0


def _cmd_classical(cfg: dict, art: _Artifacts) -> int:
    params = derive_params(cfg["B"], cfg["omega"])
    spec = potential_from_dict(cfg["potential"])
    initial = ClassicalState(t=0.0, x=cfg["x0"], y=cfg["y0"], px=cfg["px0"], py=cfg["py0"])
    t_end, dt = cfg["t_end"], cfg["dt"]
    traj = integrate(params, spec, initial, t_end, dt=dt)
    orbit = np.column_stack([traj.times, traj.states, traj.energies])
    art.write(write_csv, "trajectory.csv", ["t", "x", "y", "px", "py", "energy"], orbit)
    series = mourre_observable(traj)
    guiding = np.column_stack([traj.times, traj.guiding_center_x, traj.guiding_center_y, series.values])
    art.write(write_csv, "guiding.csv", ["t", "sx", "sy", "px_sx"], guiding)
    summary = {
        "params": params,
        "aborted": traj.aborted,
        "energy_drift": traj.energy_drift,
        "px_sx_slope": series.slope,
        "expected_free_slope": 2.0 * params.beta * initial.px**2,
    }
    if isinstance(spec, ZeroPotential):
        exact = closed_form_trajectory(params, initial, t_end, dt)
        n = min(traj.times.size, exact.times.size)
        summary["closed_form_max_position_error"] = float(
            max(
                np.max(np.abs(traj.x[:n] - exact.x[:n])),
                np.max(np.abs(traj.y[:n] - exact.y[:n])),
            )
        )
    art.write(write_json, "classical_summary.json", summary)
    print(
        f"integrated to t={traj.times[-1]:.6g}; energy drift {traj.energy_drift:.3e}; "
        f"px*sx slope {series.slope:.9g}"
    )
    if traj.aborted:
        print("trajectory aborted: state left the trusted range", file=sys.stderr)
        return 2
    return 0


def _cmd_mourre(cfg: dict, art: _Artifacts) -> int:
    params = derive_params(cfg["B"], cfg["omega"])
    spec = potential_from_dict(cfg["potential"])
    report = evaluate_certificate(params, spec, cfg["E"], cfg["delta"], cfg["eps"])
    art.write(write_json, "certificate.json", {**jsonable(report), "conclusion": report.conclusion})
    art.write(write_csv, "excluded.csv", ["lower", "upper"], report.excluded)
    art.write(write_csv, "certified.csv", ["lower", "upper"], report.certified_set)
    print(f"certificate: {report.verdict}; conclusion: {report.conclusion}")
    for reason in report.reasons:
        print(f"  {reason}")
    scaling = cfg["scaling"]
    if scaling is not None:
        sweep = scaling_sweep(
            cfg["B"], scaling["E0"], scaling["delta0"], scaling["eps0"], spec, scaling["omega_list"]
        )
        # admissible, the one bool in any table, is written 1/0
        rows = [list({**asdict(r), "admissible": int(r.admissible)}.values()) for r in sweep.rows]
        art.write(write_csv, "scaling.csv", [f.name for f in fields(ScalingSweepRow)], rows)
        art.write(write_json, "scaling_summary.json", sweep)
        if sweep.smallest_admissible_omega is None:
            print("scaling sweep: no admissible omega in the list")
        else:
            print(f"scaling sweep: admissible from omega={sweep.smallest_admissible_omega:g}")
    return 0


def _observable_rows(label: str, obs: QuadraticObservable):
    for key, value in obs.terms().items():
        yield [label, " ".join(key) if isinstance(key, tuple) else key, value]


def _cmd_commutator(cfg: dict, art: _Artifacts) -> int:
    params = derive_params(cfg["B"], cfg["omega"])
    h0 = h0_observable(params)
    a = conjugate_observable(params)
    comm = commutator_iA(h0, a)
    rows = list(_observable_rows("H0", h0))
    rows += list(_observable_rows("A", a))
    rows += list(_observable_rows("[H0,iA]", comm))
    art.write(write_csv, "commutator.csv", ["observable", "term", "coefficient"], rows)
    expected = QuadraticObservable.from_terms({("p1", "p1"): 2.0 * params.beta})
    clean = (comm - expected).max_abs() < 1e-12
    lines = [
        f"[H0, iA] = {2.0 * params.beta!r} * p1^2"
        + ("" if clean else "  (unexpected extra terms!)")
    ]
    if cfg["gen_nogo"]:
        report = gen_nogo_scan(params.B, params.alpha)
        art.write(write_json, "nogo.json", report)
        lines.append(f"uniform-commutator scan verdict: {report.verdict}")
    art.write(Path.write_text, "verdict.txt", "\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return 0


_FREE_CHECK_MAX_HERMITE = 512


def _free_fiber_check(params: ChannelParams, theta: float = 0.3) -> dict:
    """Free fiber levels n < 4, |m| <= 3 against alpha (2n+1) + beta (m+theta)^2.

    With W = 0 the fiber splits into independent m-blocks, each a harmonic
    oscillator displaced by s0 = B |m+theta| / alpha^1.5 in the scaled
    variable, so each target m is solved on its own.  The Hermite cutoff
    grows with the largest displacement (the displaced ground state spreads
    over about s0^2 / 2 levels), up to a fixed cap.
    """
    ms = range(-3, 4)
    s0 = params.B * max(abs(m + theta) for m in ms) / params.alpha**1.5
    n_hermite = min(24 + math.ceil(s0 * s0 + 4.0 * s0), _FREE_CHECK_MAX_HERMITE)
    proj = project_potential(ZeroPotential(), params, nmax=n_hermite - 1)
    levels = 2.0 * np.arange(4) + 1.0
    err = 0.0
    for m in ms:
        mat = assemble_fiber(params, proj, theta, n_hermite, m_max=0, m_offset=m)
        target = params.alpha * levels + params.beta * (m + theta) ** 2
        err = max(err, float(np.max(np.abs(eigenvalues_fiber(mat, count=4) - target))))
    return {"passed": err < 1e-8, "max_abs_error": err, "n_hermite": n_hermite}


def _cmd_diagnostics(cfg: dict, art: _Artifacts) -> int:
    params = derive_params(cfg["B"], cfg["omega"])
    checks: dict[str, dict] = {}

    d = derive_params(3.0, 4.0)
    checks["derived_constants"] = {
        "passed": bool(
            abs(d.alpha - 5.0) < 1e-12 and abs(d.beta - 0.64) < 1e-12 and abs(d.mu - 0.12) < 1e-12
        ),
        "alpha": d.alpha,
        "beta": d.beta,
        "mu": d.mu,
    }

    checks["free_fiber_spectrum"] = _free_fiber_check(params)

    res = []
    for b, w in ((3.0, 4.0), (0.0, 1.0)):
        p = derive_params(b, w)
        for theta2 in (1.0, 10.0, 100.0):
            res.append(complex_theta_resolvent_bound(p, theta2).passed)
    checks["complex_theta_resolvent_bound"] = {"passed": all(res)}

    two_cos = SeparableFourierPotential({1: 1.0, -1: 1.0})  # 2 cos x
    pairs = project_potential(two_cos, params, nmax=0).diag_coeffs(0)
    fourier = hill_spectrum(pairs, 0.25, m_max=32, count=5)
    fd = fd_hill_richardson(lambda x: 2.0 * np.cos(x), 0.25, count=5, n_points=1024)
    hill_err = float(np.max(np.abs(np.asarray(fourier) - np.asarray(fd))))
    checks["hill_oracle"] = {"passed": hill_err < 1e-5, "max_abs_error": hill_err}

    ax = appendix_norm_checks(params, n_hermite=40, m_range=8, theta_count=5)
    checks["resolvent_norm_bounds"] = {
        "passed": ax.all_passed,
        "estimates": ax.estimates,
        "bounds": ax.bounds,
    }

    initial = ClassicalState(t=0.0, x=0.0, y=0.0, px=1.0, py=0.0)
    rk4 = integrate(params, ZeroPotential(), initial, 0.5, dt=1e-3)
    exact_traj = closed_form_trajectory(params, initial, 0.5, 1e-3)
    pos_err = float(
        max(
            np.max(np.abs(rk4.x - exact_traj.x)),
            np.max(np.abs(rk4.y - exact_traj.y)),
        )
    )
    checks["classical_integrator"] = {"passed": pos_err < 1e-8, "max_position_error": pos_err}

    comm = commutator_iA(h0_observable(params), conjugate_observable(params))
    dev = (comm - QuadraticObservable.from_terms({("p1", "p1"): 2.0 * params.beta})).max_abs()
    checks["commutator_identity"] = {"passed": dev < 1e-12, "max_abs_deviation": dev}

    all_ok = all(c["passed"] for c in checks.values())
    art.write(write_json, "diagnostics.json", {"all_passed": all_ok, "checks": checks})
    for name, result in checks.items():
        print(f"{'PASS' if result['passed'] else 'FAIL'}  {name}")
    return 0 if all_ok else 2


_HANDLERS = {
    "bands": functools.partial(_cmd_bands, with_gaps=False),
    "gaps": functools.partial(_cmd_bands, with_gaps=True),
    "sweep-omega": _cmd_sweep,
    "hill": _cmd_hill,
    "classical": _cmd_classical,
    "mourre": _cmd_mourre,
    "commutator": _cmd_commutator,
    "diagnostics": _cmd_diagnostics,
}


def _run(command: str, cfg: dict, out_dir: Path) -> int:
    """Run one command; manifest.json is written however the run ends."""
    art = _Artifacts(out_dir)
    code, error = 1, None
    try:
        code = _HANDLERS[command](cfg, art)
    except ConfigError as exc:  # settings that are valid one by one but not together
        error = f"config error: {exc}"
    except (ValueError, EigensolverError, ArpackNoConvergence) as exc:  # LinAlgError is a ValueError
        code, error = 2, f"numerical failure: {exc}"
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        manifest = {
            "schema_version": MANIFEST_SCHEMA_VERSION,
            "package_version": __version__,
            "command": command,
            "config": cfg,
            "artifacts": art.names,
            "exit_status": code,
        }
        if error is not None:
            manifest["error"] = error
        write_json(out_dir / "manifest.json", manifest)
    if error is not None:
        print(error, file=sys.stderr)
    print(f"wrote {len(art.names) + 1} file(s) to {out_dir}")
    return code


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="channel-spectra",
        description="Band structure, spectral gaps and transport certificates "
        "for a magnetic channel with parabolic confinement.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument("command", choices=COMMANDS, help="the pipeline to run")
    parser.add_argument("--config", help="JSON config file", default=None)
    parser.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override a config key (dots descend into nested objects)",
    )
    parser.add_argument("--out", default="out", help="output directory (default: out)")
    parser.add_argument("--workers", type=int, default=1, help="accepted for compatibility; must be 1")
    parser.add_argument(
        "--gen-nogo",
        action="store_true",
        help="commutator only: scan all quadratic conjugates for a uniformly positive commutator",
    )
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.gen_nogo and args.command != "commutator":
        parser.error("--gen-nogo applies to the commutator command only")
    try:
        if args.workers != 1:
            raise ConfigError("--workers must be 1: every command runs in one process")
        cfg = resolve_config(args.command, args.config, args.set)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    if args.gen_nogo:
        cfg["gen_nogo"] = True
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    return _run(args.command, cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
