"""Byte-compare the artifacts that two checkouts of channel-spectra write.

    python3 tools/artifact_diff.py BASE CHANGE [--work DIR]

BASE and CHANGE are checkouts (directories holding ``src/channel_spectra``).
Both run the same requests:

- every request of both benchmark workloads at seeds 1-8, as
  ``perfbench.workloads.requests`` of this repository lists them (the module
  is imported, never changed);
- each command once at cheap settings, with the options the workloads do
  not set (a grid potential, a commutator without ``--gen-nogo``, ...).

Each checkout runs all of them back to back in one child process, with
OPENBLAS_NUM_THREADS=1 so that BLAS reduces in the same order in both.
Every file written, ``manifest.json`` included, is then compared byte for
byte, and so are the exit statuses (``status.json``).  Exit status 0 when
both checkouts wrote the same set of files with the same bytes, 1
otherwise.  The outputs go to a temporary directory, or are kept in
``--work DIR`` (``DIR/base`` and ``DIR/change``).
"""

from __future__ import annotations

import argparse
import filecmp
import json
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

# each command once, at settings far below its defaults where those are slow
CHEAP = {
    "bands": ["bands", "--set", "n_hermite=8", "--set", "theta_count=9", "--set", "ceiling=6.5"],
    "gaps": [
        "gaps", "--set", f"potential={_PROFILE}", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "ceiling=6.5", "--set", "xtol=1e-6",
    ],
    "sweep-omega": [
        "sweep-omega", "--set", "omega_list=[4.0, 10.0]", "--set", "n_hermite=8",
        "--set", "theta_count=9", "--set", "hill_m_max=5",
    ],
    "hill": ["hill"],
    "classical": ["classical", "--set", f"potential={_GRID}", "--set", "t_end=0.5"],
    "classical-bumps": ["classical", "--set", f"potential={_TWO_BUMPS}", "--set", "t_end=0.5"],
    "mourre": ["mourre"],
    "commutator": ["commutator"],
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


def compare(base: Path, change: Path) -> list[str]:
    """One line per difference between the two output trees."""
    base_files, change_files = _files(base), _files(change)
    problems = [f"only in base: {name}" for name in sorted(base_files - change_files)]
    problems += [f"only in change: {name}" for name in sorted(change_files - base_files)]
    for name in sorted(base_files & change_files):
        if not filecmp.cmp(base / name, change / name, shallow=False):
            problems.append(f"differs: {name}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path, help="checkout to compare against")
    parser.add_argument("change", type=Path, help="checkout under test")
    parser.add_argument("--work", type=Path, help="keep the outputs in this directory")
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
        problems = compare(roots["base"], roots["change"])
        status = json.loads((roots["change"] / "status.json").read_text())
        file_count = len(_files(roots["change"]))
    for line in problems[:50]:
        print(line)
    if len(problems) > 50:
        print(f"... and {len(problems) - 50} more")
    failed = sum(code != 0 for code in status.values())
    print(
        f"{len(argvs)} requests ({failed} exited nonzero in the change), {file_count} files: "
        f"{'identical' if not problems else f'{len(problems)} difference(s)'}"
    )
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
