"""Transport certificate arithmetic, the confinement scaling sweep and the
closed-form resolvent norm bounds."""

import json
import math

import numpy as np
import pytest

from channel_spectra import (
    GaussianBumpPotential,
    SeparableFourierPotential,
    ZeroPotential,
    appendix_norm_checks,
    derive_params,
    evaluate_certificate,
    scaling_sweep,
)
from channel_spectra.cli import main
from channel_spectra.mourre import (
    RELATIVE_BOUND_CONSTANT,
    condition_one_threshold,
    resolvent_constant,
    transverse_quadratic_eigenvalues,
)
from channel_spectra.schema import ConfigError

_P34 = derive_params(3.0, 4.0)
_C = math.sqrt(6.0)


def test_resolvent_constant_formula():
    assert abs(resolvent_constant(_P34) - _C * 26.0 / 16.0) < 1e-14
    assert abs(resolvent_constant(_P34, c=2.0) - 2.0 * 26.0 / 16.0) < 1e-14


def test_condition_one_threshold_reference_value():
    # one-line recomputation: delta / (2 (delta/alpha + beta C) (1 + E/eps))
    thr = condition_one_threshold(_P34, E=8.0, delta=1.0, eps=1.0)
    manual = 1.0 / (2.0 * (1.0 / 5.0 + 0.64 * (_C * 26.0 / 16.0)) * 9.0)
    assert abs(thr - manual) < 1e-12
    assert abs(thr - 0.020220628087999473) < 1e-12


def test_zero_potential_certificate_is_admissible():
    report = evaluate_certificate(_P34, ZeroPotential(), E=8.0, delta=1.0, eps=1.0)
    assert report.admissible
    assert report.verdict == "admissible"
    assert report.conclusion == "absolutely_continuous"
    assert report.reasons == ()
    assert report.w0 == 0.0
    assert report.certified_set == ((7.0, 8.0),)
    # only windows reaching the analyzed range [0, E + delta + eps] are kept
    assert report.excluded == ((3.0, 7.0),)
    assert report.condition_one_ok and report.condition_two_ok
    assert report.condition_two_lhs == 0.0
    assert abs(report.C - resolvent_constant(_P34)) == 0.0


def test_periodic_potential_is_rejected_as_non_localized():
    # x dW/dx of a periodic potential is unbounded, so condition (II) can
    # never hold; this is a reported outcome, not an error
    spec = SeparableFourierPotential.from_cosines({1: 0.001})
    report = evaluate_certificate(_P34, spec, E=8.0, delta=1.0, eps=1.0)
    assert not report.admissible
    assert report.verdict == "inadmissible: non-localized"
    assert report.conclusion == "none"
    assert math.isinf(report.condition_two_lhs)
    assert any("non-localized" in r for r in report.reasons)


def test_localized_bump_certificate():
    spec = GaussianBumpPotential(bumps=((0.013, 0.0, 0.0, 1.0),))
    report = evaluate_certificate(_P34, spec, E=8.0, delta=1.0, eps=1.0)
    assert report.admissible
    assert report.w0 == 0.013
    # certified set starts at alpha - w0 and avoids the padded windows
    assert len(report.certified_set) == 1
    lo, hi = report.certified_set[0]
    assert abs(lo - 7.0) < 1e-15 and abs(hi - 8.0) < 1e-15


def test_vacuous_windows_are_flagged():
    report = evaluate_certificate(_P34, ZeroPotential(), E=8.0, delta=2.5, eps=2.6)
    assert not report.admissible
    assert not report.intervals_disjoint
    assert any("vacuous" in r for r in report.reasons)
    assert report.verdict == "inadmissible"


def test_energy_inside_window_is_flagged():
    report = evaluate_certificate(_P34, ZeroPotential(), E=6.0, delta=1.0, eps=1.0)
    assert not report.admissible
    assert not report.energy_outside_thresholds
    assert any("window" in r for r in report.reasons)


def test_certificate_parameter_validation():
    for bad in ({"delta": 0.0}, {"eps": -1.0}, {"delta": 5.0}, {"E": 0.0}, {"E": -1.0}):
        kwargs = {"E": 8.0, "delta": 1.0, "eps": 1.0, **bad}
        with pytest.raises(ValueError):
            evaluate_certificate(_P34, ZeroPotential(), **kwargs)


def test_excluded_intervals_layout():
    # windows (2n+1) alpha +- (delta + eps) starting at or below max(E, alpha) + delta + eps
    cert = evaluate_certificate(_P34, ZeroPotential(), E=19.0, delta=0.5, eps=0.5)
    assert cert.excluded == ((4.0, 6.0), (14.0, 16.0))
    cert = evaluate_certificate(_P34, ZeroPotential(), E=23.0, delta=0.5, eps=0.5)
    assert cert.excluded == ((4.0, 6.0), (14.0, 16.0), (24.0, 26.0))


def test_scaling_sweep_threshold_growth():
    spec = GaussianBumpPotential(bumps=((0.013, 0.0, 0.0, 1.0),))
    report = scaling_sweep(0.3, 1.6, 0.2, 0.2, spec, [0.5, 1.0, 2.0, 4.0, 8.0])
    assert report.thresholds_increasing
    assert report.smallest_admissible_omega == 4.0
    assert [r.admissible for r in report.rows] == [False, False, False, True, True]
    for row in report.rows:
        a = row.alpha
        manual = 0.2 * a * 0.2 / (2.0 * (0.2 + _C * (1 + a * a) / (a * a)) * 1.8)
        assert abs(row.condition_one_threshold - manual) < 1e-12
        assert abs(row.E - 1.6 * a) < 1e-12
    # condition (I) is the binding constraint at omega = 2: headroom in (II)
    # is already positive while w0 still exceeds the threshold
    r2 = report.rows[2]
    assert r2.condition_two_headroom > 0.0
    assert spec.norm_estimates().w0 > r2.condition_one_threshold


def test_scaling_sweep_validation():
    spec = ZeroPotential()
    with pytest.raises(ValueError):
        scaling_sweep(0.3, -1.0, 0.2, 0.2, spec, [1.0])
    with pytest.raises(ValueError):
        scaling_sweep(0.3, 1.6, 0.6, 0.5, spec, [1.0])  # windows overlap
    with pytest.raises(ValueError):
        scaling_sweep(0.3, 3.05, 0.1, 0.1, spec, [1.0])  # E0 inside a window


@pytest.mark.parametrize(
    "E0, inside",
    [(0.7, False), (1.2 - 1e-9, True), (2.8 - 1e-9, False), (2.8 + 1e-9, True), (3.2 - 1e-9, True), (3.2 + 1e-9, False)],
)
def test_scaling_sweep_tests_e0_against_the_scaled_windows(tmp_path, E0, inside):
    # delta0 + eps0 = 0.2: the scaled windows are [0.8, 1.2], [2.8, 3.2], ...
    scaling = {"E0": E0, "delta0": 0.1, "eps0": 0.1, "omega_list": [4.0]}
    if inside:
        with pytest.raises(ConfigError, match="E0 lies inside a scaled threshold window"):
            scaling_sweep(0.3, E0, 0.1, 0.1, ZeroPotential(), [4.0])
    argv = ["mourre", "--set", "B=0.3", "--set", f"scaling={json.dumps(scaling)}", "--out", str(tmp_path / "o")]
    assert main(argv) == (1 if inside else 0)


@pytest.mark.parametrize(
    "potential, conclusion",
    [
        ('{"kind": "zero"}', "absolutely_continuous"),
        # bilinear data has no second derivatives
        ('{"kind": "grid", "x": [-2, 0, 2], "y": [-1, 1], "values": [[0, 0], [0.003, 0.001], [0, 0]]}', "no_eigenvalues"),
        ('{"kind": "fourier_x", "coeffs": {"1": 0.5, "-1": 0.5}}', "none"),
    ],
    ids=["zero", "grid", "fourier-x"],
)
def test_the_certificate_artifact_holds_its_conclusion(tmp_path, capsys, potential, conclusion):
    out = tmp_path / "o"
    assert main(["mourre", "--set", f"potential={potential}", "--out", str(out)]) == 0
    written = json.loads((out / "certificate.json").read_text())
    assert written["conclusion"] == conclusion
    assert f"conclusion: {conclusion}" in capsys.readouterr().out


def test_transverse_quadratic_eigenvalues_closed_form():
    lp, lm = transverse_quadratic_eigenvalues(_P34)
    disc = 6.0 * math.sqrt(17.0)  # sqrt(26^2 - 64)
    assert abs(lp - 0.5 * (26.0 + disc)) < 1e-12
    assert abs(lm - 0.5 * (26.0 - disc)) < 1e-12


def test_transverse_quadratic_eigenvalues_match_matrix_oracle():
    rng = np.random.default_rng(19)
    for _ in range(5):
        B, om = rng.uniform(0.0, 5.0), rng.uniform(0.2, 5.0)
        p = derive_params(B, om)
        lp, lm = transverse_quadratic_eigenvalues(p)
        # (u + B v)^2 + omega^2 v^2 as a quadratic form in (u, v)
        evs = np.linalg.eigvalsh(np.array([[1.0, B], [B, B * B + om * om]]))
        assert abs(lm - evs[0]) < 1e-10
        assert abs(lp - evs[1]) < 1e-10
        assert abs(lp * lm - om**2) < 1e-9
        assert abs(lp + lm - (1.0 + p.alpha**2)) < 1e-10
        assert lm >= om**2 / (1.0 + p.alpha**2) - 1e-12


def test_appendix_norm_checks_pass():
    report = appendix_norm_checks(_P34)
    assert report.all_passed
    assert report.passed == {k: True for k in report.estimates}
    assert report.trace_dev < 1e-12 and report.det_dev < 1e-10
    assert report.bounds["dyy"] == RELATIVE_BOUND_CONSTANT
    weighted = RELATIVE_BOUND_CONSTANT * 26.0 / 16.0
    for key in ("dxx", "two_y_dx", "yy"):
        assert abs(report.bounds[key] - weighted) < 1e-14
    assert abs(report.bounds["dxdy"] - RELATIVE_BOUND_CONSTANT * math.sqrt(26.0) / 4.0) < 1e-14
    for key, est in report.estimates.items():
        assert 0.0 < est <= report.bounds[key] * (1.0 + 1e-6)


def test_appendix_estimates_grow_with_truncation():
    # compressions increase toward the true norm as the basis grows
    small = appendix_norm_checks(_P34, n_hermite=20, m_range=6, theta_count=5)
    large = appendix_norm_checks(_P34, n_hermite=50, m_range=6, theta_count=5)
    for key in small.estimates:
        assert small.estimates[key] <= large.estimates[key] + 1e-12
    assert large.all_passed


def test_appendix_shifted_resolvent_and_validation():
    shifted = appendix_norm_checks(_P34, lam=3.0, n_hermite=30, m_range=6)
    base = appendix_norm_checks(_P34, lam=0.0, n_hermite=30, m_range=6)
    assert shifted.all_passed
    for key in base.estimates:
        assert shifted.estimates[key] <= base.estimates[key] + 1e-12
    with pytest.raises(ValueError):
        appendix_norm_checks(_P34, lam=-0.5)


def test_appendix_other_parameter_points():
    for B, om in ((0.0, 1.0), (1.0, 1.0), (2.0, 0.5)):
        report = appendix_norm_checks(derive_params(B, om), n_hermite=40, m_range=8)
        assert report.all_passed
