"""Compare the artifacts that two checkouts of channel-spectra write.

    python3 tools/artifact_diff.py BASE CHANGE [--work DIR] [--tol X]

BASE and CHANGE are checkouts (directories holding ``src/channel_spectra``).
Both run the same requests:

- every request of both benchmark workloads at seeds 1-8, as
  ``perfbench.workloads.requests`` of this repository lists them (the module
  is imported, never changed);
- each command once at cheap settings, with the options the workloads do
  not set (a grid potential, a constant profile, a commutator without
  ``--gen-nogo``, an orbit that aborts, ...), a ``gaps`` and a ``bands``
  run whose truncation search grows the starting size, four ``gaps`` runs
  in the Hermite basis (without the magnetic ladder, at a potential near
  alpha, with a cubic profile, which is refused, and at n_hermite = 100,
  whose projection takes a Gauss-Hermite rule of order 414), a ``gaps``
  run whose harmonic cos 30x reaches past the Fourier window, which the
  truncation check grows the window for in one step, a ``bands``
  run of the confining W = 10 y^2, a ``bands`` run
  whose ``m_max`` is raised to cover the ceiling, two ``gaps`` runs that
  search band edges off the grid phases, which no workload does, two
  ``hill`` runs whose Fourier window is refused (too small for V, by the
  residual estimate of the truncation check that ``gaps`` takes, and
  without room for its harmonic cos 30x, before any solve) and a
  ``sweep-omega`` run refused on that harmonic too, a ``hill`` run whose ceiling lies below the
  spectrum, which is refused, the finite-difference check on
  the degenerate spectrum of W = 0 at its smallest grid, W = 0 named
  explicitly in a ``classical`` run (the RK4 path without a force, and the
  closed-form comparison) and in a ``sweep-omega`` run (its Hill
  projection), and a ``mourre``
  certificate with its scaling sweep for each way a kind decides whether
  the second derivatives of W are bounded, and the generator scan of
  ``commutator --gen-nogo`` at B = 0, omega = 1 and at B = 10, omega =
  0.5, outside the workloads' B in [1, 4] and omega in [3, 8].

Each checkout runs all of them back to back in one child process, with
OPENBLAS_NUM_THREADS=1 so that BLAS reduces in the same order in both.
Every file written, ``manifest.json`` included, is then compared byte for
byte, and so are the exit statuses (``status.json``).  Exit status 0 when
both checkouts wrote the same set of files with the same bytes, 1
otherwise.  The outputs go to a temporary directory, or are kept in
``--work DIR`` (``DIR/base`` and ``DIR/change``).

With ``--tol X``, a CSV or JSON file whose bytes differ is compared by
value instead: the same CSV header and row count, the same JSON structure,
equal text and flags, and numbers that differ by at most X.  The largest
absolute deviation is printed for each such file.  A JSON key that only
the change writes is listed and allowed (a new summary field); a key that
only the base writes is a difference.  Any other file must still be
byte-identical.
"""

from __future__ import annotations

import argparse
import csv
import filecmp
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEEDS = range(1, 9)

_TWO_BUMPS = '{"kind": "gaussian_bumps", "bumps": [[0.4, 0.5, 0.0, 0.8], [-0.2, -1.0, 0.3, 0.6]]}'
_GRID = '{"kind": "grid", "x": [-2, 0, 2], "y": [-1, 1], "values": [[0, 0], [0.3, 0.1], [0, 0]]}'
_PROFILE = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": [0.3, 0.1], "-1": [0.3, -0.1]},'
    ' "profile": {"shape": "polynomial", "coeffs": [1.0, 0.0, 0.05]}}'
)
_GAUSSIAN_COS = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": [0.3, 0.0], "-1": [0.3, 0.0]},'
    ' "profile": {"shape": "gaussian", "sigma": 1.5}}'
)
_ODD_PROFILE = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": [0.3, 0.0], "-1": [0.3, 0.0]},'
    ' "profile": {"shape": "polynomial", "coeffs": [1.0, 0.5]}}'
)
_TWO_COS = '{"kind": "fourier_x", "coeffs": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}}'
_STRONG_GAUSSIAN_COS = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": [2.0, 0.0], "-1": [2.0, 0.0]},'
    ' "profile": {"shape": "gaussian", "sigma": 1.0}}'
)
_CONFINING_Y = '{"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0, 0, 10]}, "amplitude": 1.0}'
_CUBIC_PROFILE = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": [0.3, 0.0], "-1": [0.3, 0.0]},'
    ' "profile": {"shape": "polynomial", "coeffs": [1.0, 0.0, 0.0, 0.05]}}'
)
_COMPLEX_COS = '{"kind": "fourier_x", "coeffs": {"1": [0.3, 0.2], "-1": [0.3, -0.2]}}'
_DEEP_WELL = '{"kind": "fourier_x", "coeffs": {"0": -30, "1": 0.5, "-1": 0.5}}'
# W = -10 y^2 overturns the confinement at omega = 1: the orbit leaves the
# trusted range at t ~ 3.77 and the run exits 2 with partial tables
_OVERTURNED = (
    '{"kind": "fourier_x_profile", "coeffs": {"0": [1, 0]},'
    ' "profile": {"shape": "polynomial", "coeffs": [0, 0, -10]}}'
)
# V = 2 Re(-i e^{ix} - i e^{2ix} + (1 + i) e^{3ix}): the Fourier window
# m_max = 6 does not resolve it, and its truncated band 2 turns inside (0, 1/2)
_UNRESOLVED = (
    '{"kind": "fourier_x", "coeffs": {"1": [0, -1], "-1": [0, 1], "2": [0, -1], "-2": [0, 1],'
    ' "3": [1, 1], "-3": [1, -1]}}'
)
# cos x + cos 30x: a harmonic past every Fourier window these requests start at
_FAR_HARMONIC = '{"kind": "fourier_x", "coeffs": {"1": 0.5, "-1": 0.5, "30": 0.5, "-30": 0.5}}'
_FAR_HARMONIC_GAUSSIAN = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": 0.3, "-1": 0.3, "30": 0.5, "-30": 0.5},'
    ' "profile": {"shape": "gaussian", "sigma": 1.5}}'
)
_CONSTANT_COS = (
    '{"kind": "fourier_x_profile", "coeffs": {"1": [0.3, 0.1], "-1": [0.3, -0.1]},'
    ' "profile": {"shape": "constant", "value": 2.0}}'
)

_SCALING = '{"E0": 1.6, "delta0": 0.2, "eps0": 0.2, "omega_list": [0.5, 1.0, 2.0, 4.0, 8.0]}'
_OFF_CENTRE_BUMP = '{"kind": "gaussian_bumps", "bumps": [[0.013, 0.5, 0.0, 1.0]]}'
_GAUSSIAN_Y = '{"kind": "profile_y", "profile": {"shape": "gaussian", "sigma": 0.8}, "amplitude": 0.01}'
_CUBIC_Y = (
    '{"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0.2, -0.4, 0.9, 0.1]},'
    ' "amplitude": 0.6}'
)


def _mourre(potential: str) -> list[str]:
    return ["mourre", "--set", "B=0.3", "--set", f"potential={potential}", "--set", f"scaling={_SCALING}"]


# each command once, at settings far below its defaults where those are slow
CHEAP = {
    "bands": ["bands", "--set", "n_hermite=8", "--set", "theta_count=9", "--set", "ceiling=6.5"],
    "gaps": [
        "gaps", "--set", f"potential={_PROFILE}", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "ceiling=6.5", "--set", "xtol=1e-6",
    ],
    # the constant shape: the Landau basis with the coefficients scaled by g
    "gaps-constant": [
        "gaps", "--set", f"potential={_CONSTANT_COS}", "--set", "theta_count=9", "--set", "ceiling=6.5",
    ],
    "sweep-omega": [
        "sweep-omega", "--set", "omega_list=[4.0, 10.0]", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "hill_m_max=5",
    ],
    # small starting sizes that the truncation search raises: once to N = 8
    # in the Hermite basis, twice to N = 4 in the Landau basis
    "gaps-growth": [
        "gaps", "--set", f"potential={_GAUSSIAN_COS}", "--set", "n_hermite=4",
        "--set", "theta_count=9", "--set", "ceiling=6.5", "--set", "xtol=1e-6",
    ],
    # the Hermite basis without the magnetic ladder (B = 0), and at sup |W|
    # near alpha, where the truncation check raises N twice
    "gaps-hermite-b0": [
        "gaps", "--set", "B=0", "--set", f"potential={_GAUSSIAN_COS}", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "ceiling=6.5",
    ],
    "gaps-hermite-strong": [
        "gaps", "--set", f"potential={_STRONG_GAUSSIAN_COS}", "--set", "n_hermite=4",
        "--set", "theta_count=9", "--set", "ceiling=9",
    ],
    # a profile of degree 3 gives the check no floor: refused, with only the manifest
    "gaps-cubic-profile": [
        "gaps", "--set", f"potential={_CUBIC_PROFILE}", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "ceiling=6.5",
    ],
    # the Hermite truncation N = 100 projects W to degree 199
    "gaps-hermite-100": [
        "gaps", "--set", f"potential={_GAUSSIAN_COS}", "--set", "n_hermite=100", "--set", "ceiling=6",
    ],
    # cos 30x couples the window M = 8 only past it: the check grows M once,
    # by that reach, to 38, and passes
    "gaps-far-harmonic": [
        "gaps", "--set", f"potential={_FAR_HARMONIC_GAUSSIAN}", "--set", "n_hermite=12",
        "--set", "theta_count=9", "--set", "refine=false",
    ],
    # W = 10 y^2 >= 0 only strengthens the confinement: 7 bands from sqrt(28)
    "bands-confining-profile": [
        "bands", "--set", "omega=3", "--set", f"potential={_CONFINING_Y}",
    ],
    "bands-growth": [
        "bands", "--set", f"potential={_TWO_COS}", "--set", "n_hermite=1",
        "--set", "theta_count=9", "--set", "ceiling=6.5",
    ],
    # an explicit m_max below the ceiling's kinematic cover, which is raised
    # to it with a note in bands_summary.json
    "bands-m-max-raised": [
        "bands", "--set", "n_hermite=8", "--set", "theta_count=9", "--set", "ceiling=6.5", "--set", "m_max=2",
    ],
    # two tracked gaps, so the working ceiling reads a higher Hill band
    "sweep-two-gaps": [
        "sweep-omega", "--set", "omega_list=[4.0, 10.0]", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "hill_m_max=8", "--set", "target_gap_count=2",
    ],
    # band edges searched on reduced pencils: 72 searches on a folded Landau
    # grid, and 20 on an unfolded Hermite grid (a profile odd in y)
    "gaps-ceiling-40": ["gaps", "--set", "ceiling=40"],
    "gaps-odd-profile": [
        "gaps", "--set", f"potential={_ODD_PROFILE}", "--set", "n_hermite=8",
        "--set", "theta_count=17", "--set", "ceiling=8",
    ],
    # the grid extrema instead of refined edges, a path no workload takes
    "bands-unrefined": [
        "bands", "--set", "n_hermite=8", "--set", "theta_count=9", "--set", "ceiling=6.5", "--set", "refine=false",
    ],
    # the Hill window of hill-far-harmonic below: refused before any solve
    "sweep-far-harmonic": [
        "sweep-omega", "--set", f"potential={_FAR_HARMONIC}", "--set", "hill_m_max=10",
    ],
    # W = 0 through the Hill projection, whose window check reads no harmonic
    "sweep-zero": [
        "sweep-omega", "--set", 'potential={"kind": "zero"}', "--set", "omega_list=[4.0, 10.0]",
        "--set", "n_hermite=8", "--set", "theta_count=9", "--set", "hill_m_max=5",
    ],
    "sweep-unrefined": [
        "sweep-omega", "--set", "omega_list=[4.0, 10.0]", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "hill_m_max=5", "--set", "refine=false",
    ],
    "hill": ["hill"],
    # complex Fourier coefficients: the complex Hill solve, which no workload runs
    "hill-complex": ["hill", "--set", f"potential={_COMPLEX_COS}"],
    # fewer bands than hill_gaps.csv needs, so the gaps read more of the table
    "hill-extend": ["hill", "--set", "band_count=2"],
    # nearly flat Hill bands, whose grid extrema off theta = 0 and 1/2 could
    # differ from the endpoint rows by rounding
    "hill-deep-well": ["hill", "--set", f"potential={_DEEP_WELL}"],
    # a window too small for V: refused by its residual estimate, with only the manifest written
    "hill-unresolved-window": [
        "hill", "--set", f"potential={_UNRESOLVED}", "--set", "m_max=6", "--set", "theta_count=9",
        "--set", "band_count=2",
    ],
    # cos 30x couples no two indices of the window m_max = 10: refused
    "hill-far-harmonic": [
        "hill", "--set", f"potential={_FAR_HARMONIC}", "--set", "m_max=10", "--set", "band_count=6",
    ],
    # no band of the defaults reaches the ceiling 2: refused, with only the manifest
    "hill-ceiling-below": ["hill", "--set", "ceiling=2"],
    # W = 0 gives the finite-difference oracle a degenerate spectrum, which
    # no other request does, on the smallest grid it takes
    "hill-fd-flat": [
        "hill", "--set", 'potential={"kind": "zero"}', "--set", "fd_check=true", "--set", "fd_points=80",
    ],
    "classical": ["classical", "--set", f"potential={_GRID}", "--set", "t_end=0.5"],
    # the RK4 path that takes no gradient, off the channel axis
    "classical-zero": [
        "classical", "--set", 'potential={"kind": "zero"}', "--set", "y0=0.3", "--set", "py0=-0.2",
        "--set", "t_end=0.5",
    ],
    "classical-bumps": ["classical", "--set", f"potential={_TWO_BUMPS}", "--set", "t_end=0.5"],
    "classical-abort": [
        "classical", "--set", "B=0", "--set", "omega=1", "--set", f"potential={_OVERTURNED}",
        "--set", "y0=0.1", "--set", "px0=0", "--set", "py0=0", "--set", "t_end=10",
    ],
    "mourre": ["mourre"],
    # certificates whose second-derivative regularity is decided by each
    # rule: the bump grid branch (off centre), bilinear data, a periodic
    # f(x), a profile with bounded g'' and one with unbounded g''
    "mourre-bump-off-centre": _mourre(_OFF_CENTRE_BUMP),
    "mourre-grid": _mourre(_GRID),
    "mourre-fourier-x": _mourre(_TWO_COS),
    "mourre-gaussian-y": _mourre(_GAUSSIAN_Y),
    "mourre-cubic-y": _mourre(_CUBIC_Y),
    "commutator": ["commutator"],
    # the generator scan without a field, and at a field far above omega
    "commutator-nogo-b0": ["commutator", "--gen-nogo", "--set", "B=0", "--set", "omega=1"],
    "commutator-nogo-strong-field": ["commutator", "--gen-nogo", "--set", "B=10", "--set", "omega=0.5"],
    "diagnostics": ["diagnostics"],
}

# one process runs every request; a failed request is recorded, not fatal
_CHILD = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from channel_spectra import cli
status = {}
for name, argv in json.load(sys.stdin).items():
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            status[name] = cli.main(argv + ["--out", name])
        except (Exception, SystemExit) as exc:
            status[name] = f"raised {type(exc).__name__}: {exc}"
with open("status.json", "w") as fh:
    json.dump(status, fh, indent=1, sort_keys=True)
"""


def request_argvs() -> dict[str, list[str]]:
    """Output directory name -> CLI argv, the same for both checkouts."""
    sys.path.insert(0, str(ROOT))
    from perfbench.workloads import WORKLOADS, requests

    out = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            for i, req in enumerate(requests(workload, seed)):
                out[f"{workload}-{seed}-{i:02d}-{req.kind.replace(':', '-')}"] = req.argv()
    out.update({f"cheap-{name}": argv for name, argv in CHEAP.items()})
    return out


def _start(checkout: Path, out_root: Path, argvs: dict) -> subprocess.Popen:
    src = checkout.resolve() / "src"
    if not (src / "channel_spectra" / "cli.py").is_file():
        sys.exit(f"{checkout} is not a checkout: no src/channel_spectra/cli.py")
    try:
        out_root.mkdir(parents=True)
    except FileExistsError:
        sys.exit(f"{out_root} exists; give --work a new directory")
    # relative --out paths, so a message naming the output directory is the
    # same for both checkouts
    child = subprocess.Popen(
        [sys.executable, "-c", _CHILD, str(src)],
        cwd=out_root,
        stdin=subprocess.PIPE,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        text=True,
    )
    child.stdin.write(json.dumps(argvs))
    child.stdin.close()
    return child


def _files(root: Path) -> set[str]:
    return {p.relative_to(root).as_posix() for p in root.rglob("*") if p.is_file()}


class _Mismatch(Exception):
    """Two artifacts differ by more than a numeric deviation."""


def _deviation(a, b, added: list) -> float:
    """Largest |a - b| over the numbers of two parsed artifacts.

    Raises _Mismatch where their structure, text or flags differ.  Keys
    that only ``b`` has are appended to ``added``.
    """
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str) or isinstance(b, str):
        if a != b:
            raise _Mismatch(f"{a!r} != {b!r}")
        return 0.0
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0
        return abs(a - b) if math.isfinite(a) and math.isfinite(b) else math.inf
    if isinstance(a, dict) and isinstance(b, dict):
        missing = sorted(set(a) - set(b))
        if missing:
            raise _Mismatch(f"keys {missing} missing from the change")
        added += sorted(set(b) - set(a))
        return max((_deviation(a[k], b[k], added) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            raise _Mismatch(f"{len(a)} items against {len(b)}")
        return max((_deviation(x, y, added) for x, y in zip(a, b)), default=0.0)
    if a is None and b is None:
        return 0.0
    raise _Mismatch(f"{type(a).__name__} against {type(b).__name__}")


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _parse(path: Path):
    if path.suffix == ".json":
        return json.loads(path.read_text())
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    # the header stays text; a cell becomes a number where it parses as one
    return rows[:1] + [[_cell(c) for c in row] for row in rows[1:]]


def compare(base: Path, change: Path, tol: float | None = None) -> list[str]:
    """One line per difference between the two output trees.

    With ``tol``, differing CSV and JSON files are compared by value; the
    largest deviation of each is reported on a line starting ``within``
    when it is at most ``tol``, and such lines are not differences.
    """
    base_files, change_files = _files(base), _files(change)
    lines = [f"only in base: {name}" for name in sorted(base_files - change_files)]
    lines += [f"only in change: {name}" for name in sorted(change_files - base_files)]
    for name in sorted(base_files & change_files):
        if filecmp.cmp(base / name, change / name, shallow=False):
            continue
        if tol is None or Path(name).suffix not in (".csv", ".json"):
            lines.append(f"differs: {name}")
            continue
        added: list[str] = []
        try:
            dev = _deviation(_parse(base / name), _parse(change / name), added)
        except _Mismatch as exc:
            lines.append(f"differs: {name}: {exc}")
            continue
        note = f" (keys added: {', '.join(added)})" if added else ""
        verdict = "within" if dev <= tol else "differs"
        lines.append(f"{verdict}: {name}: max deviation {dev:.3e}{note}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    parser.add_argument("--work", type=Path, help="keep the outputs in this directory")
    parser.add_argument(
        "--tol", type=float, help="compare differing CSV and JSON files by value, to this absolute deviation"
    )
    args = parser.parse_args(argv)
    argvs = request_argvs()
    with tempfile.TemporaryDirectory() as tmp:
        work = args.work or Path(tmp)
        roots = {"base": work / "base", "change": work / "change"}
        children = {
            side: _start(checkout, roots[side], argvs)
            for side, checkout in (("base", args.base), ("change", args.change))
        }
        codes = {side: child.wait() for side, child in children.items()}
        if any(codes.values()):
            print(f"a child process failed: {codes}")
            return 1
        lines = compare(roots["base"], roots["change"], args.tol)
        status = json.loads((roots["change"] / "status.json").read_text())
        file_count = len(_files(roots["change"]))
    problems = [line for line in lines if not line.startswith("within")]
    # every deviation in --tol mode; the first 50 differences otherwise
    shown = lines if args.tol is not None else lines[:50]
    for line in shown:
        print(line)
    if len(lines) > len(shown):
        print(f"... and {len(lines) - len(shown)} more")
    failed = sum(code != 0 for code in status.values())
    within = f", {len(lines) - len(problems)} within {args.tol:g}" if args.tol is not None else ""
    print(
        f"{len(argvs)} requests ({failed} exited nonzero in the change), {file_count} files: "
        f"{'identical' if not lines else f'{len(problems)} difference(s)'}{within}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
