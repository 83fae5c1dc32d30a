"""Benchmark of the channel-spectra CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/`` of that checkout and nowhere else.  One client in one process
sends the workload's seeded request list to ``channel_spectra.cli.main`` in
a closed loop (the next request starts when the previous one returned),
always with ``--workers 1``.  A pass is one trip through the list, each
pass starting one request further on.  An untraced run makes at least
three passes, and another one while the slowest pass so far still fits in
``--seconds``; each request is then taken at its median over the passes.  Before
every other pass a fresh process imports the CLI, for ``setup_s``.  Before
each request the projection cache is emptied, since every CLI command
starts in a fresh process.

After each request, outside its timed region, the artifacts are checked
(see ``checks.py``); a run whose artifacts are byte for byte those of a
run of the same request that passed is not checked again.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0`` and the per-layer metrics with ``--trace 1``.
The line before it records the environment.  ``--trace 1`` makes one pass
in which every request runs twice, untraced and traced, in alternating
order, so the tracing overhead is measured on identical work; the spans are
written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# the --seconds budget counts from here, so start-up and imports are in it
STARTED = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# One BLAS thread: at the fiber sizes of these workloads (dim <= 500) a
# second thread made one list of 20 gaps/bands requests slower on 2 vCPUs
# (26.5 s against 24.3 s and 24.9 s, interleaved runs) and doubled cpu_s by
# spinning.  Set before numpy is imported, here and in every child.
BLAS_THREADS = {"OPENBLAS_NUM_THREADS": "1"}

# a fresh process is timed for setup_s before every SETUP_EVERY-th pass, so
# that the samples spread over the run like the requests do; the median is
# reported
SETUP_EVERY = 2
SETUP_TIMEOUT_S = 60

WARMUP = """
import numpy as np, scipy.linalg
a = np.add.outer(np.arange(96.0), np.arange(96.0)) % 7.0
scipy.linalg.eigh(a + 1j * (np.triu(a, 1) - np.triu(a, 1).T), eigvals_only=True)
scipy.linalg.eigh(a, eigvals_only=True)
"""

SETUP_CODE = f"import sys\nsys.path.insert(0, {str(SRC)!r})\nimport channel_spectra.cli\n{WARMUP}"

# untraced runs make at least this many passes, more while they fit in --seconds
MIN_PASSES = 3


def _usage_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def artifact_digest(out_dir: Path) -> str:
    """Hash of the names and contents of every file a request wrote."""
    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        digest.update(str(path.relative_to(out_dir)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def measure_setup(repeats: int) -> list[float]:
    """Wall time of fresh processes that import the CLI and warm up BLAS."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=SETUP_TIMEOUT_S,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up process failed:\n{proc.stderr.strip()}")
    return times


# ---------------------------------------------------------------------------
# environment


def _openblas() -> list[dict]:
    """Version and thread count of every OpenBLAS loaded in this process."""
    found = []
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return found
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        entry = {"library": Path(lib).name}
        # symbol names differ between the numpy (64-bit int) and scipy builds
        for pattern in ("scipy_openblas_{}64_", "scipy_openblas_{}", "openblas_{}"):
            config = getattr(handle, pattern.format("get_config"), None)
            threads = getattr(handle, pattern.format("get_num_threads"), None)
            if config is not None and threads is not None:
                config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                entry.update(config=config().decode(), threads=int(threads()))
                break
        found.append(entry)
    return found


def environment(workload: str, seed: int) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unavailable: not a git checkout"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True)
            commit = proc.stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": _openblas(),
        "blas_threads_set_by": ", ".join(f"{k}={v}" for k, v in BLAS_THREADS.items())
        + " in the environment, set by perfbench/run.py before numpy is imported",
        "git_commit": commit,
        "workload": workload,
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# running requests


def _clear_caches() -> None:
    from channel_spectra import hermite

    cache = getattr(hermite, "_CACHE", None)
    if hasattr(cache, "clear"):
        cache.clear()


def execute(cli, req, out_dir: Path) -> tuple[str | None, float, float]:
    """Run one request; returns (error or None, wall seconds, cpu seconds)."""
    _clear_caches()
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = req.argv() + ["--out", str(out_dir), "--workers", "1"]
    sink = io.StringIO()
    cpu0, t0 = _usage_seconds(), time.perf_counter()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
        error = None if code == 0 else f"exit status {code}: {sink.getvalue().strip()[-300:]}"
    except (Exception, SystemExit) as exc:  # a failed request is counted, not fatal
        error = f"raised {type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - t0, _usage_seconds() - cpu0
    return error, wall, cpu


def _traced_pass(cli, reqs, out_root: Path) -> tuple[dict, dict]:
    """One pass with every request run untraced and traced, in alternating order."""
    import checks
    import tracing

    tracer = tracing.Tracer()
    traced = untraced = 0.0
    failures = []
    for i, req in enumerate(reqs):
        out_dir = out_root / f"r{i:03d}"
        errors = []
        for with_trace in (False, True) if i % 2 == 0 else (True, False):
            if with_trace:
                tracer.request = i
                with tracer.installed():
                    error, wall, _ = execute(cli, req, out_dir)
                traced += wall
            else:
                error, wall, _ = execute(cli, req, out_root / "untraced")
                untraced += wall
            errors.append(error)
        problems = [e for e in errors if e] or checks.check(req, out_dir)
        if problems:
            failures.append(f"{req.kind} #{i}: {'; '.join(problems)}")
        shutil.rmtree(out_dir, ignore_errors=True)
    shutil.rmtree(out_root / "untraced", ignore_errors=True)

    layer = tracing.layer_metrics(tracer.spans)
    top = sum(s.end - s.start for s in tracer.spans if s.parent is None)
    layer["trace.run_s"] = traced
    layer["trace.untraced_run_s"] = untraced
    layer["trace.overhead_s"] = traced - untraced
    layer["trace.remainder_s"] = traced - top
    result = _result(len(reqs), len(failures), {k: (v, tracing.unit_of(k)) for k, v in layer.items()})
    absent = tracing.absent_metrics(layer, tracer.installed_spans, tracer.absent)
    for name, reason in absent.items():
        result["metrics"][name]["absent"] = reason
    with open(out_root / "spans.jsonl", "w") as fh:
        for idx, s in enumerate(tracer.spans):
            record = {"id": idx, "name": s.name, "start": s.start, "end": s.end}
            record.update(parent=s.parent, request=s.request, info=s.info)
            fh.write(json.dumps(record) + "\n")
    summary = {
        "passes": 1,
        "requests_per_pass": len(reqs),
        "failures": failures,
        "absent": absent,
        "spans": len(tracer.spans),
        "spans_file": str((out_root / "spans.jsonl").relative_to(ROOT)),
        "top_level_share": top / traced if traced else 0.0,
    }
    return result, summary


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    import checks
    import workloads

    reqs = workloads.requests(workload, seed)
    from channel_spectra import cli

    out_root = OUT / f"{workload}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(out_root, ignore_errors=True)
    out_root.mkdir(parents=True)
    if trace:
        return _traced_pass(cli, reqs, out_root)

    walls: list[list[float]] = [[] for _ in reqs]
    cpus: list[list[float]] = [[] for _ in reqs]
    digests: list[str | None] = [None] * len(reqs)
    pass_s: list[float] = []
    setup_s: list[float] = []
    failures = []
    # a pass starts only while the slowest pass so far still fits in the budget
    while len(pass_s) < MIN_PASSES or time.perf_counter() - STARTED + max(pass_s) <= seconds:
        t0 = time.perf_counter()
        if len(pass_s) % SETUP_EVERY == 0:
            setup_s += measure_setup(1)
        # each pass starts one request further on, so that no request always
        # follows the same one
        for k in range(len(reqs)):
            i = (k + len(pass_s)) % len(reqs)
            req, out_dir = reqs[i], out_root / f"r{i:03d}"
            error, wall, cpu = execute(cli, req, out_dir)
            walls[i].append(wall)
            cpus[i].append(cpu)
            problems = [error] if error else []
            # the program is deterministic: artifacts equal to those of a run
            # that passed are correct, anything else is checked in full
            digest = None if error else artifact_digest(out_dir)
            if digest is not None and digest != digests[i]:
                problems = checks.check(req, out_dir)
                if not problems:
                    digests[i] = digest
            if problems:
                failures.append(f"pass {len(pass_s)} {req.kind} #{i}: {'; '.join(problems)}")
            shutil.rmtree(out_dir, ignore_errors=True)
        pass_s.append(time.perf_counter() - t0)

    # each request at its median over the passes, so that a busy spell of a
    # shared machine during some passes does not move the result; on this
    # benchmark's own runs the minimum over passes spread twice as much
    # between seeds as the median
    typical = [statistics.median(w) for w in walls]
    attempted = len(reqs) * len(pass_s)
    metrics = {
        "run_s": (sum(typical), "s"),
        "request_s.p50": (statistics.median(typical), "s"),
        "cpu_s": (sum(statistics.median(c) for c in cpus), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "ok_ratio": ((attempted - len(failures)) / attempted, "ratio"),
        "setup_s": (statistics.median(setup_s), "s"),
    }
    summary = {
        "passes": len(pass_s),
        "requests_per_pass": len(reqs),
        "pass_s_with_setup_and_checks": pass_s,
        "setup_runs_s": setup_s,
        "request_wall_s": walls,
        "failures": failures,
    }
    return _result(attempted, len(failures), metrics), summary


def _result(attempted: int, failed: int, metrics: dict) -> dict:
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    os.environ.update(BLAS_THREADS)

    if not (SRC / "channel_spectra" / "cli.py").is_file():
        print(f"perfbench: no channel_spectra sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    exec(WARMUP, {})
    import channel_spectra

    if Path(channel_spectra.__file__).resolve().parent != (SRC / "channel_spectra").resolve():
        print(f"perfbench: imported channel_spectra from {channel_spectra.__file__}, not {SRC}", file=sys.stderr)
        return 2

    result, summary = run(args.workload, args.seed, args.seconds, bool(args.trace))
    summary["environment"] = environment(args.workload, args.seed)
    OUT.mkdir(exist_ok=True)
    record = {"summary": summary, "result": result}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"summary": summary}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
