"""Tests of the benchmark's own code (not part of the package test suite).

    python3 -m pytest -q perfbench/selftest.py

The CLI runs here are the cheapest valid ones; the whole file takes a few
seconds.
"""

from __future__ import annotations

import csv
import io
import json
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from tracing import Span  # noqa: E402


# ---------------------------------------------------------------------------
# workloads


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_argv(workload):
    first = [r.argv() for r in workloads.requests(workload, 7)]
    again = [r.argv() for r in workloads.requests(workload, 7)]
    other = [r.argv() for r in workloads.requests(workload, 8)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_requests_parse_as_cli_configs(workload):
    from channel_spectra import cli

    for req in workloads.requests(workload, 3):
        args = cli.build_parser().parse_args(req.argv())
        cfg = cli.resolve_config(args.command, args.config, args.set)
        for key, value in req.settings.items():
            assert cfg[key] == value


def _sup_bound(potential: dict) -> float:
    """sum of |c_k| for a Fourier series, the amplitude for profile_y."""
    if "amplitude" in potential:
        return abs(potential["amplitude"])
    return sum(math.hypot(*c) for c in potential.get("coeffs", {}).values())


@pytest.mark.parametrize("seed", range(20))
def test_band_potentials_keep_every_band_start_off_the_ceiling(seed):
    # the premise that gives every gaps/bands request exactly three bands
    for req in workloads.requests("bands-2d", seed):
        if req.command == "sweep-omega":
            continue
        s = req.settings
        alpha, beta, _ = workloads.derived(s["B"], s["omega"])
        assert _sup_bound(s["potential"]) < workloads.BAND_SHIFT * beta
        starts = alpha + beta * np.arange(6) ** 2 / 4.0
        margin = np.min(np.abs(starts - s["ceiling"]))
        assert margin > workloads.BAND_SHIFT * beta
        assert np.sum(starts < s["ceiling"]) == 3


def test_strata_cover_every_slice():
    import random

    values = workloads._strata(random.Random(1), 10, 0.0, 1.0)
    assert sorted(int(v * 10) for v in values) == list(range(10))


# ---------------------------------------------------------------------------
# spans


def test_self_time_on_a_synthetic_tree():
    spans = [
        Span("cli.main", 0.0, 10.0, None, 0),
        Span("bands.compute_bands", 1.0, 9.0, 0, 0),
        Span("fiber.assemble_fiber", 2.0, 3.0, 1, 0),
        Span("fiber.eigenvalues_fiber", 3.0, 5.0, 1, 0, tail=0.5),
        Span("output.write_csv", 9.5, 9.75, 0, 0),
    ]
    assert tracing.self_times(spans) == pytest.approx([1.75, 4.5, 1.0, 2.0, 0.25])
    # self times of all spans add up to the top-level span minus tracer tails
    assert sum(tracing.self_times(spans)) == pytest.approx(10.0 - 0.5)


def _solve(spans, parent, t, n=10, cplx=False):
    spans.append(Span("fiber.assemble_fiber", t, t + 0.1, parent, 0))
    spans.append(Span("fiber.eigenvalues_fiber", t + 0.1, t + 0.3, parent, 0, info={"n": n, "complex": cplx}))


def test_band_phases_on_a_synthetic_tree():
    spans = [Span("bands.compute_bands", 0.0, 10.0, None, 0, info={"theta_count": 2})]
    _solve(spans, 0, 0.0, n=40)  # probe
    _solve(spans, 0, 1.0, n=20)  # grid
    _solve(spans, 0, 2.0, n=20)  # grid
    spans.append(Span("bands.refine", 3.0, 4.0, 0, 0))
    refine = len(spans) - 1
    for k in range(3):
        _solve(spans, refine, 3.0 + 0.3 * k, cplx=True)
    m = tracing.layer_metrics(spans)
    assert (m["bands.probe.solves"], m["bands.grid.solves"], m["bands.refine.solves"]) == (1, 2, 3)
    assert m["bands.grid.s"] == pytest.approx(1.3)
    assert m["bands.refine.s"] == pytest.approx(1.0)
    assert m["bands.probe.s"] == pytest.approx(10.0 - 1.3 - 1.0)
    assert m["bands.refine.solves_per_extremum"] == 3
    assert m["fiber.eigenvalues_fiber.dim_max"] == 40
    assert m["fiber.eigenvalues_fiber.complex_share"] == pytest.approx(0.5)
    assert m["fiber.eigenvalues_fiber.flops"] == pytest.approx(
        4 / 3 * (40**3 + 2 * 20**3) + 3 * 4 * 4 / 3 * 10**3
    )


def test_hit_ratio_counts_distinct_keys_per_request():
    spans = [
        Span("hermite.project_potential", 0, 1, None, 0, info={"key": "a"}),
        Span("hermite.project_potential", 1, 2, None, 0, info={"key": "a"}),
        Span("hermite.project_potential", 2, 3, None, 1, info={"key": "a"}),
        Span("hermite.project_potential", 3, 4, None, 1, info={"key": "b"}),
    ]
    assert tracing.layer_metrics(spans)["hermite.project_potential.hit_ratio"] == pytest.approx(0.25)


def test_tracer_wraps_every_binding_and_restores_them():
    from channel_spectra import bands, cli, fiber

    originals = (fiber.assemble_fiber, bands.assemble_fiber, cli.assemble_fiber, cli.main)
    tracer = tracing.Tracer()
    with tracer.installed():
        assert bands.assemble_fiber is not originals[1]
        assert cli.assemble_fiber is not originals[2]
        assert bands.assemble_fiber.__span__ == "fiber.assemble_fiber"
        assert bands.golden_section_minimize.__span__ == "bands.refine"
        from channel_spectra.hill import golden_section_minimize

        assert golden_section_minimize.__span__ == "hill.refine"
    assert (fiber.assemble_fiber, bands.assemble_fiber, cli.assemble_fiber, cli.main) == originals
    assert not tracer.absent


def test_missing_target_is_reported_absent():
    targets = tracing.TARGETS + (tracing.Target("fiber", "no_such_function", "fiber.no_such_function"),)
    tracer = tracing.Tracer(targets=targets)
    with tracer.installed():
        pass
    assert "no longer exists" in tracer.absent["fiber.no_such_function"]
    metrics = tracing.layer_metrics([])
    assert tracing.absent_metrics(metrics, tracer.installed_spans, tracer.absent) == {}
    reasons = tracing.absent_metrics(metrics, tracer.installed_spans - {"hill.hill_matrix"}, tracer.absent)
    assert set(reasons) == {"hill.hill_matrix.calls", "hill.hill_matrix.s"}
    reasons = tracing.absent_metrics(metrics, tracer.installed_spans - {"bands.refine"}, tracer.absent)
    assert set(reasons) == {"bands.refine.s", "bands.refine.solves", "bands.refine.solves_per_extremum"}


def test_traced_request_records_nested_spans(tmp_path):
    from channel_spectra import cli

    tracer = tracing.Tracer()
    tracer.request = 0
    with tracer.installed(), redirect_stdout(io.StringIO()):
        assert cli.main(["commutator", "--gen-nogo", "--out", str(tmp_path)]) == 0
    names = [s.name for s in tracer.spans]
    assert names[0] == "cli.main" and tracer.spans[0].parent is None
    assert "quadratic.gen_nogo_scan" in names and "output.write_json" in names
    m = tracing.layer_metrics(tracer.spans)
    assert m["output.bytes"] > 0
    assert m["cli.main.self_s"] > 0


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    produced = set(tracing.layer_metrics([])) | {
        "trace.run_s",
        "trace.untraced_run_s",
        "trace.overhead_s",
        "trace.remainder_s",
    }
    listed = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert set(listed) == produced
    assert all(tracing.unit_of(name) == unit for name, unit in listed.items())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    for w in spec["workloads"]:
        assert w["why"].endswith(workloads.shares_text(w["name"]))
        assert len(w["why"]) <= 200


# ---------------------------------------------------------------------------
# checkers


def _cli(argv, out):
    from channel_spectra import cli

    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        assert cli.main(argv + ["--out", str(out)]) == 0


def _rewrite_csv(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def test_gap_check_rejects_an_edge_moved_by_1e_4(tmp_path):
    settings = {
        "B": 3.0,
        "omega": 4.0,
        "potential": {"kind": "fourier_x", "coeffs": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}},
        "theta_count": 9,
        "n_hermite": 8,
        "ceiling": 9.0,
        "xtol": 1e-6,
    }
    req = workloads.Request("gaps:test", "gaps", settings)
    _cli(req.argv(), tmp_path)
    assert checks.check(req, tmp_path) == []

    def move(rows):
        rows[1][1] = repr(float(rows[1][1]) + 1e-4)

    _rewrite_csv(tmp_path / "gaps.csv", move)
    assert any("not a band maximum" in p for p in checks.check(req, tmp_path))


def test_free_band_intervals_match_dense_sampling():
    alpha, beta = 5.0, 0.64
    exact = checks.free_band_intervals(alpha, beta, 6)
    theta = np.linspace(-0.5, 0.5, 200001)
    n, m = np.meshgrid(np.arange(4), np.arange(-6, 7), indexing="ij")
    levels = alpha * (2 * n.ravel() + 1)[None, :] + beta * (m.ravel()[None, :] + theta[:, None]) ** 2
    curves = np.sort(levels, axis=1)[:, :6]
    sampled = np.column_stack([curves.min(axis=0), curves.max(axis=0)])
    assert np.max(np.abs(exact - sampled)) < 1e-8


def test_free_band_check_rejects_a_shifted_interval(tmp_path):
    settings = {
        "B": 2.0,
        "omega": 5.0,
        "potential": {"kind": "zero"},
        "theta_count": 9,
        "n_hermite": 10,
        "ceiling": 7.0,
        "xtol": 1e-6,
    }
    req = workloads.Request("bands:zero", "bands", settings)
    _cli(req.argv(), tmp_path)
    assert checks.check(req, tmp_path) == []

    def shift(rows):
        rows[1][1] = repr(float(rows[1][1]) - 1e-3)

    _rewrite_csv(tmp_path / "band_intervals.csv", shift)
    assert any("closed form" in p for p in checks.check(req, tmp_path))


def test_fd_check_rejects_a_deviation_of_1e_3():
    fourier = [1.0, 2.0, 3.0]
    good = {"checks": [{"theta": 0.0, "fourier": fourier, "finite_difference": fourier, "max_abs_diff": 0.0}]}
    assert checks.fd_problems(good) == []
    bad_fd = [1.0, 2.0 + 1e-3, 3.0]
    bad = {"checks": [{"theta": 0.0, "fourier": fourier, "finite_difference": bad_fd, "max_abs_diff": 1e-3}]}
    assert any("differ by 1.000e-03" in p for p in checks.fd_problems(bad))
    hidden = {"checks": [{"theta": 0.0, "fourier": fourier, "finite_difference": bad_fd, "max_abs_diff": 0.0}]}
    assert any("reported FD deviation" in p for p in checks.fd_problems(hidden))


def test_orbit_check_rejects_a_shifted_orbit(tmp_path):
    settings = {"B": 3.0, "omega": 4.0, "potential": {"kind": "zero"}, "px0": 1.0, "py0": 0.2, "y0": 0.1, "t_end": 1.0, "dt": 1e-3}
    req = workloads.Request("classical:zero", "classical", settings)
    _cli(req.argv(), tmp_path)
    assert checks.check(req, tmp_path) == []

    def shift(rows):
        for row in rows[1:]:
            row[1] = repr(float(row[1]) + 1e-3)

    _rewrite_csv(tmp_path / "trajectory.csv", shift)
    assert any("closed form" in p for p in checks.check(req, tmp_path))


def test_energy_drift_check_rejects_a_drifting_orbit():
    settings = {"B": 3.0, "omega": 4.0, "potential": {"kind": "fourier_x", "coeffs": {}}, "t_end": 1.0, "dt": 0.5}
    table = np.array([[0.0, 0, 0, 1, 0, 10.0], [0.5, 0, 0, 1, 0, 10.0], [1.0, 0, 0, 1, 0, 10.001]])
    assert any("energy drift" in p for p in checks.orbit_problems(settings, table))


def test_commutator_check_rejects_a_wrong_coefficient(tmp_path):
    req = workloads.Request("commutator", "commutator", {"B": 2.0, "omega": 5.0}, flags=("--gen-nogo",))
    _cli(req.argv(), tmp_path)
    assert checks.check(req, tmp_path) == []

    def perturb(rows):
        for row in rows:
            if row[0] == "[H0,iA]":
                row[2] = repr(float(row[2]) * (1 + 1e-9))

    _rewrite_csv(tmp_path / "commutator.csv", perturb)
    assert any("is not 2 beta" in p for p in checks.check(req, tmp_path))


def test_nogo_check_rejects_an_inconclusive_verdict(tmp_path):
    req = workloads.Request("commutator", "commutator", {"B": 2.0, "omega": 5.0}, flags=("--gen-nogo",))
    _cli(req.argv(), tmp_path)
    report = json.loads((tmp_path / "nogo.json").read_text())
    report["verdict"] = "inconclusive"
    (tmp_path / "nogo.json").write_text(json.dumps(report))
    assert any("no-go" in p for p in checks.check(req, tmp_path))


def test_condition_one_matches_the_library_formula():
    from channel_spectra.channel import derive_params
    from channel_spectra.mourre import condition_one_threshold

    value = checks.condition_one(2.0, 5.0, 2.0, 0.3, 0.4)
    assert math.isclose(value, condition_one_threshold(derive_params(2.0, 5.0), 2.0, 0.3, 0.4), rel_tol=1e-14)
