"""Command line interface: config resolution, artifacts, exit codes."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import typing
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

import channel_spectra
from channel_spectra import cli, derive_params, potential_from_dict
from channel_spectra.cli import COMMANDS, ConfigError, _free_fiber_check, main, resolve_config
from channel_spectra.fiber import EigensolverError
from channel_spectra.schema import Key, OneOf


_TWO_COS_CFG = {"kind": "fourier_x", "coeffs": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}}
_GAUSSIAN_COS_CFG = {
    "kind": "fourier_x_profile",
    "coeffs": {"1": [0.3, 0.0], "-1": [0.3, 0.0]},
    "profile": {"shape": "gaussian", "sigma": 1.5},
}


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_defaults_are_deep_copied():
    cfg = resolve_config("bands", None, [])
    assert cfg["B"] == 3.0 and cfg["omega"] == 4.0
    assert cfg["theta_count"] == 33
    cfg["potential"]["kind"] = "mutated"
    assert resolve_config("bands", None, [])["potential"]["kind"] == "zero"


def test_config_file_merge(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"omega": 2.5, "theta_count": 9}))
    cfg = resolve_config("bands", str(path), [])
    assert cfg["omega"] == 2.5
    assert cfg["theta_count"] == 9
    assert cfg["B"] == 3.0  # untouched default


def test_unknown_file_key_rejected(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"omga": 2.5}))
    with pytest.raises(ConfigError, match="omga"):
        resolve_config("bands", str(path), [])


def test_set_overrides_and_dotted_paths():
    cfg = resolve_config(
        "bands",
        None,
        ["omega=2.5", "theta_count=9", "refine=false", "potential.kind=zero"],
    )
    assert cfg["omega"] == 2.5
    assert cfg["theta_count"] == 9
    assert cfg["refine"] is False
    assert cfg["potential"]["kind"] == "zero"
    with pytest.raises(ConfigError):
        resolve_config("bands", None, ["nope=1"])
    with pytest.raises(ConfigError):
        resolve_config("bands", None, ["omega"])  # missing '='


def test_set_type_checks():
    with pytest.raises(ConfigError, match="number"):
        resolve_config("bands", None, ["omega=true"])
    with pytest.raises(ConfigError, match="boolean"):
        resolve_config("bands", None, ["refine=3"])
    with pytest.raises(ConfigError, match="list"):
        resolve_config("sweep-omega", None, ["omega_list=4"])


def test_malformed_config_file(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="JSON"):
        resolve_config("bands", str(path), [])
    with pytest.raises(ConfigError, match="read"):
        resolve_config("bands", str(tmp_path / "missing.json"), [])


_FAST_BANDS = ["theta_count=9", "n_hermite=12", "ceiling=8.0"]


def _bands_args(out):
    return ["bands", "--out", str(out)] + sum((["--set", s] for s in _FAST_BANDS), [])


def test_bands_command_artifacts(tmp_path):
    out = tmp_path / "run"
    assert main(_bands_args(out)) == 0
    rows = _read_csv(out / "bands.csv")
    assert len(rows) == 9
    bottom = min(float(r["band_1"]) for r in rows)
    assert abs(bottom - 5.0) < 1e-6
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["schema_version"] == 1
    assert manifest["command"] == "bands"
    assert manifest["exit_status"] == 0
    assert manifest["config"]["theta_count"] == 9
    for name in manifest["artifacts"]:
        assert (out / name).exists()
    assert "bands.csv" in manifest["artifacts"]
    assert "bands.svg" in manifest["artifacts"]
    summary = json.loads((out / "bands_summary.json").read_text())
    assert summary["converged"] is True
    assert summary["basis"] == "landau"  # W = 0 depends on x only
    assert abs(summary["spectrum_bottom"] - 5.0) < 1e-6


def test_bands_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(_bands_args(a)) == 0
    assert main(_bands_args(b)) == 0
    assert (a / "bands.csv").read_bytes() == (b / "bands.csv").read_bytes()
    assert (a / "bands.svg").read_bytes() == (b / "bands.svg").read_bytes()


def test_gaps_command_detects_first_gap(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "gaps",
            "--out",
            str(out),
            "--set",
            'potential={"kind": "fourier_x", "coeffs": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}}',
            "--set",
            "theta_count=9",
            "--set",
            "n_hermite=16",
            "--set",
            "ceiling=12.0",
            "--set",
            "refine=false",
        ]
    )
    assert code == 0
    gaps = _read_csv(out / "gaps.csv")
    assert len(gaps) >= 4
    # first gap of the coupled model; the n = 0 stripe alone would give (3.935, 5.580)
    assert abs(float(gaps[0]["lower"]) - 3.7828) < 0.01
    assert abs(float(gaps[0]["upper"]) - 5.1690) < 0.01


def test_classical_command_summary(tmp_path):
    out = tmp_path / "run"
    assert main(["classical", "--out", str(out)]) == 0
    summary = json.loads((out / "classical_summary.json").read_text())
    assert summary["aborted"] is False
    assert summary["closed_form_max_position_error"] < 1e-8
    assert abs(summary["px_sx_slope"] - 1.28) < 1e-9
    assert abs(summary["expected_free_slope"] - 1.28) < 1e-12
    rows = _read_csv(out / "trajectory.csv")
    assert len(rows) == 1001
    guiding = _read_csv(out / "guiding.csv")
    assert abs(float(guiding[0]["sy"]) + 0.12) < 1e-12


def test_classical_blowup_returns_numerical_failure(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "B": 0.0,
                "omega": 1.0,
                "y0": 0.1,
                "t_end": 10.0,
                "potential": {
                    "kind": "profile_y",
                    "profile": {"shape": "polynomial", "coeffs": [0.0, 0.0, -10.0]},
                    "amplitude": 1.0,
                },
            }
        )
    )
    out = tmp_path / "run"
    assert main(["classical", "--config", str(cfg), "--out", str(out)]) == 2
    summary = json.loads((out / "classical_summary.json").read_text())
    assert summary["aborted"] is True
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2


def _bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


_ORBIT_POTENTIALS = st.one_of(
    st.just({"kind": "zero"}),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-1.0, 1.0), st.floats(0.3, 1.5)).map(
        lambda b: {"kind": "gaussian_bumps", "bumps": [[b[0], b[1], 0.0, b[2]]]}
    ),
    st.floats(-2.0, 2.0).map(lambda c: {"kind": "fourier_x", "coeffs": {"1": [c, 0.0], "-1": [c, 0.0]}}),
    # -c y^2 overturns the confinement once c > omega^2; near c = 3000 the
    # orbit leaves the trusted range within t_end
    st.floats(0.0, 3000.0).map(
        lambda c: {
            "kind": "fourier_x_profile",
            "coeffs": {"0": [1.0, 0.0]},
            "profile": {"shape": "polynomial", "coeffs": [0.0, 0.0, -c]},
        }
    ),
)


@settings(max_examples=30, deadline=None)
@given(
    B=st.floats(0.0, 4.0),
    omega=st.floats(0.5, 5.0),
    potential=_ORBIT_POTENTIALS,
    y0=st.floats(-0.5, 0.5),
    px0=st.floats(-1.5, 1.5),
    py0=st.floats(-0.5, 0.5),
    t_end=st.floats(0.01, 0.5),
)
def test_classical_tables_are_the_integrated_orbit_bit_for_bit(
    tmp_path_factory, B, omega, potential, y0, px0, py0, t_end
):
    out = tmp_path_factory.mktemp("orbit")
    config = {"B": B, "omega": omega, "y0": y0, "px0": px0, "py0": py0, "t_end": t_end}
    argv = ["classical", "--set", f"potential={json.dumps(potential)}", "--out", str(out)]
    for key, value in config.items():
        argv += ["--set", f"{key}={value!r}"]
    code = main(argv)
    assert code in (0, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    traj = channel_spectra.integrate(
        derive_params(B, omega),
        potential_from_dict(potential),
        channel_spectra.ClassicalState(t=0.0, x=0.0, y=y0, px=px0, py=py0),
        t_end,
        dt=1e-3,
    )
    assert code == (2 if traj.aborted else 0)
    with open(out / "trajectory.csv", newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["t", "x", "y", "px", "py", "energy"]
    assert len(rows) == traj.times.size
    want = np.column_stack([traj.times, traj.states, traj.energies])
    assert np.array_equal(_bits([[float(c) for c in row] for row in rows]), _bits(want))


def test_mourre_command_zero_potential(tmp_path):
    out = tmp_path / "run"
    assert main(["mourre", "--out", str(out)]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["admissible"] is True
    assert cert["certified_set"] == [[7.0, 8.0]]
    certified = _read_csv(out / "certified.csv")
    assert float(certified[0]["lower"]) == 7.0


def test_mourre_inadmissible_is_still_success(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "mourre",
            "--out",
            str(out),
            "--set",
            'potential={"kind": "fourier_x", "coeffs": {"1": [1.0, 0.0], "-1": [1.0, 0.0]}}',
        ]
    )
    assert code == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["admissible"] is False
    assert any("non-localized" in r for r in cert["reasons"])


def test_mourre_certificate_reads_unbounded_second_derivatives(tmp_path):
    # W = 0.6 (0.2 - 0.4 y + 0.9 y^2 + 0.1 y^3): W_yy grows like y
    potential = {
        "kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0.2, -0.4, 0.9, 0.1]}, "amplitude": 0.6,
    }
    out = tmp_path / "run"
    assert main(["mourre", "--out", str(out), "--set", f"potential={json.dumps(potential)}"]) == 0
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["second_derivatives_bounded"] is False


@pytest.mark.parametrize(
    "potential, w0",
    [
        ('{"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": [0, 1]}, "amplitude": 0}', 0.0),
        (
            '{"kind": "fourier_x_profile", "coeffs": {"0": 0.01}, '
            '"profile": {"shape": "polynomial", "coeffs": [0, 0, 1]}}',
            "inf",
        ),
    ],
    ids=["zero-amplitude", "y-squared"],
)
def test_mourre_zero_factor_times_unbounded_profile_writes_no_nan(tmp_path, potential, w0):
    out = tmp_path / "run"
    assert main(["mourre", "--out", str(out), "--set", f"potential={potential}"]) == 0
    text = (out / "certificate.json").read_text()
    assert "nan" not in text.lower()
    cert = json.loads(text)
    assert cert["w0"] == w0
    assert cert["second_derivatives_bounded"] is True
    if w0 == 0.0:  # W = 0 is as admissible as the zero kind
        assert cert["admissible"] is True and cert["reasons"] == []


def test_mourre_scaling_block(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "B": 0.3,
                "potential": {"kind": "gaussian_bumps", "bumps": [[0.013, 0.0, 0.0, 1.0]]},
                "scaling": {
                    "E0": 1.6,
                    "delta0": 0.2,
                    "eps0": 0.2,
                    "omega_list": [1.0, 4.0],
                },
            }
        )
    )
    out = tmp_path / "run"
    assert main(["mourre", "--config", str(cfg), "--out", str(out)]) == 0
    rows = _read_csv(out / "scaling.csv")
    # the bool admissible column is written 1/0
    assert [r["admissible"] for r in rows] == ["0", "1"]
    summary = json.loads((out / "scaling_summary.json").read_text())
    assert summary["smallest_admissible_omega"] == 4.0


def test_mourre_scaling_block_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"scaling": {"E0": 1.6, "delta0": 0.2, "eps0": 0.2, "omega_list": [1.0], "extra": 1}}))
    assert main(["mourre", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1


def test_commutator_command(tmp_path):
    out = tmp_path / "run"
    assert main(["commutator", "--gen-nogo", "--out", str(out)]) == 0
    verdict = (out / "verdict.txt").read_text()
    assert "1.28" in verdict
    assert "no-go" in verdict
    nogo = json.loads((out / "nogo.json").read_text())
    assert nogo["verdict"] == "no-go"
    assert nogo["residual_dimension"] == 3
    rows = _read_csv(out / "commutator.csv")
    # terms() keeps roundoff dust; only one commutator term survives above noise
    comm_rows = [
        r
        for r in rows
        if r["observable"] == "[H0,iA]" and abs(float(r["coefficient"])) > 1e-12
    ]
    assert len(comm_rows) == 1
    assert comm_rows[0]["term"] == "p1 p1"
    assert abs(float(comm_rows[0]["coefficient"]) - 1.28) < 1e-12


def test_unknown_set_key_exits_one(tmp_path):
    assert main(["bands", "--out", str(tmp_path / "o"), "--set", "nope=1"]) == 1
    assert main(["bands", "--out", str(tmp_path / "o"), "--set", "omega=0"]) == 1
    assert (
        main(
            [
                "bands",
                "--out",
                str(tmp_path / "o"),
                "--set",
                'potential={"kind": "warp"}',
            ]
        )
        == 1
    )


def test_workers_validation(tmp_path):
    assert main(["bands", "--out", str(tmp_path / "o"), "--workers", "0"]) == 1


def test_workers_accepts_only_one(tmp_path, capsys):
    args = ["bands", "--set", "theta_count=9", "--set", "n_hermite=8", "--set", "refine=false"]
    assert main([*args, "--out", str(tmp_path / "one"), "--workers", "1"]) == 0
    manifest = json.loads((tmp_path / "one" / "manifest.json").read_text())
    assert "workers" not in manifest
    capsys.readouterr()
    assert main([*args, "--out", str(tmp_path / "two"), "--workers", "2"]) == 1
    assert "config error" in capsys.readouterr().err
    assert not (tmp_path / "two").exists()


def test_gaussian_profile_width_key_is_rejected(tmp_path, capsys):
    potential = '{"kind": "profile_y", "profile": {"shape": "gaussian", "width": 0.2}}'
    assert main(["classical", "--out", str(tmp_path / "o"), "--set", f"potential={potential}"]) == 1
    assert "width" in capsys.readouterr().err


@pytest.mark.parametrize(
    "potential",
    [
        '{"kind": "fourier_x", "coeffs": {"1": [NaN, 0.0], "-1": [NaN, 0.0]}}',
        '{"kind": "fourier_x", "coeffs": {"0": Infinity}}',
        '{"kind": "fourier_x_profile", "coeffs": {"1": [0.1, NaN], "-1": [0.1, NaN]}, '
        '"profile": {"shape": "constant"}}',
        '{"kind": "gaussian_bumps", "bumps": [[NaN, 0.0, 0.0, 1.0]]}',
        '{"kind": "gaussian_bumps", "bumps": [[0.1, NaN, 0.0, 1.0]]}',
        '{"kind": "gaussian_bumps", "bumps": [[0.1, 0.0, Infinity, 1.0]]}',
    ],
    ids=["fourier-nan", "fourier-inf", "fourier-profile-nan", "bump-amplitude", "bump-x0", "bump-y0"],
)
def test_non_finite_potential_data_exits_one(tmp_path, capsys, potential):
    assert main(["mourre", "--out", str(tmp_path / "o"), "--set", f"potential={potential}"]) == 1
    assert "config error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bands", "mourre"])
def test_gen_nogo_outside_commutator_is_a_usage_error(tmp_path, capsys, command):
    out = tmp_path / "o"
    with pytest.raises(SystemExit) as exc:
        main([command, "--gen-nogo", "--out", str(out)])
    assert exc.value.code == 2
    assert "--gen-nogo applies to the commutator command only" in capsys.readouterr().err
    assert not out.exists()


def test_version_flag():
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_all_commands_have_schemas():
    assert set(COMMANDS) == {
        "bands",
        "gaps",
        "sweep-omega",
        "hill",
        "classical",
        "mourre",
        "commutator",
        "diagnostics",
    }


def test_hill_command_with_fd_check(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "hill",
            "--out",
            str(out),
            "--set",
            "fd_check=true",
            "--set",
            "fd_points=512",
            "--set",
            "theta_count=9",
        ]
    )
    assert code == 0
    check = json.loads((out / "fd_check.json").read_text())
    assert all(c["max_abs_diff"] < 1e-3 for c in check["checks"])
    gaps = _read_csv(out / "hill_gaps.csv")
    assert len(gaps) == 6  # Mathieu gaps of -d^2 + 2 cos x shifted by alpha, below 3 alpha
    assert abs(float(gaps[0]["lower"]) - (5.0 - 1.0647957323519644)) < 1e-6
    assert abs(float(gaps[0]["upper"]) - (5.0 + 0.5795020425271558)) < 1e-6
    curves = _read_csv(out / "hill_curves.csv")
    assert abs(min(float(r["band_1"]) for r in curves) - (5.0 - 1.0701297045756306)) < 1e-6


def test_an_odd_fd_grid_exits_one_before_any_output(tmp_path, capsys):
    # the Richardson step halves the grid; at 1025 points it ran on a step
    # ratio of 1025/512, and its error at 2 cos x, theta = 0.25 was 2.2e-7
    # against 1.2e-9 at 1024
    out = tmp_path / "run"
    assert main(["hill", "--set", "fd_check=true", "--set", "fd_points=1025", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: fd_points: ") and "even" in err
    assert not out.exists()


def test_an_fd_grid_below_the_oracle_floor_exits_one_before_any_output(tmp_path, capsys):
    # the half grid of 39 points is under the 40 that the oracle's Lanczos
    # basis needs at five eigenvalues
    out = tmp_path / "run"
    assert main(["hill", "--set", "fd_check=true", "--set", "fd_points=78", "--out", str(out)]) == 1
    assert capsys.readouterr().err == "config error: fd_points must be >= 80, got 78\n"
    assert not out.exists()


def test_an_fd_grid_past_its_accuracy_exits_one_before_any_output(tmp_path, capsys):
    # the oracle's error at 2 cos x was 9.9e-12 at 16384 points and grew past
    # it, to 1.8e-7 at 1e6, which took 34 s and 881 MB
    out = tmp_path / "run"
    assert main(["hill", "--set", "fd_check=true", "--set", "fd_points=16386", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: fd_points: ") and "at most 16384" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["bands", "gaps", "sweep-omega", "hill"])
def test_a_theta_grid_past_its_cap_exits_one_before_any_output(tmp_path, capsys, command):
    # theta_count = 200001 kept a hill run for 25 s, and 8001 a gaps run for 10 s
    out = tmp_path / "run"
    assert main([command, "--set", "theta_count=1027", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: theta_count must be odd, >= 9 and <= 1025\n"
    assert not out.exists()


_DEEP_WELL_CFG = {"kind": "fourier_x", "coeffs": {"0": -30, "1": 0.5, "-1": 0.5}}
_FAR_HARMONIC_CFG = {"kind": "fourier_x", "coeffs": {"1": 0.5, "-1": 0.5, "30": 0.5, "-30": 0.5}}
# c_1 = 2, c_2 = c_3 = i: too strong for the lowest bands of a window m_max = 6
_STRONG_V_CFG = {
    "kind": "fourier_x",
    "coeffs": {"1": [2, 0], "-1": [2, 0], "2": [0, 1], "-2": [0, -1], "3": [0, 1], "-3": [0, -1]},
}


def test_hill_gaps_keep_every_band_a_deep_well_moves_below_the_ceiling(tmp_path):
    # W_0 = -30 + cos x puts 13 bands below the ceiling 3 alpha = 15, more
    # than the free count 2 sqrt(ceiling - alpha) + 4 = 10; the dropped
    # bands used to leave a false gap (0.005, 15)
    out = tmp_path / "o"
    assert main(["hill", "--set", f"potential={json.dumps(_DEEP_WELL_CFG)}", "--out", str(out)]) == 0
    gaps = _read_csv(out / "hill_gaps.csv")
    assert len(gaps) == 5
    assert all(float(g["upper"]) < -18.0 for g in gaps)


@pytest.mark.parametrize(
    "argv, refused, manifest",
    [
        # m_max = 1 trusts no band, so the schema refuses it, before any output,
        # in both commands
        (["hill", "--set", f"potential={json.dumps(_DEEP_WELL_CFG)}", "--set", "m_max=1"], "m_max must be >= 2", False),
        (
            ["hill", "--set", f"potential={json.dumps(_DEEP_WELL_CFG)}", "--set", "m_max=2", "--set", "band_count=2"],
            "ceiling ",
            True,
        ),
        (
            ["sweep-omega", "--set", "hill_m_max=1", "--set", "theta_count=9", "--set", "n_hermite=8"],
            "hill_m_max must be >= 2",
            False,
        ),
        # a window that holds enough bands but is too small for V: band 6 is
        # [12.4083, 14.1072] at m_max = 6 and [12.4061, 14.1050] at m_max = 40
        (
            ["hill", "--set", f"potential={json.dumps(_STRONG_V_CFG)}", "--set", "m_max=6"],
            "Fourier window m_max = 6 does not resolve V",
            True,
        ),
        # cos 30x couples no two indices of the window m_max = 10: left out, it
        # moved the lowest six band intervals by 5.8e-4 against m_max = 48
        (
            ["hill", "--set", f"potential={json.dumps(_FAR_HARMONIC_CFG)}", "--set", "m_max=10", "--set", "band_count=6"],
            "Fourier window m_max = 10 does not resolve V",
            True,
        ),
    ],
    ids=["hill-m-max-1", "hill-m-max-2", "sweep-hill-m-max-1", "hill-window-too-small-for-v", "hill-far-harmonic"],
)
def test_hill_window_below_the_ceiling_exits_one(tmp_path, capsys, argv, refused, manifest):
    # the window holds 2 m_max + 1 eigenvalues, of which 2 m_max - 2 are
    # trusted; these ceilings need more, and used to report gaps up to them
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: " + refused)
    if not manifest:
        assert not out.exists()
        return
    assert "Fourier window m_max" in err
    written = json.loads((out / "manifest.json").read_text())
    assert written["exit_status"] == 1 and written["error"] == err.strip()


@pytest.mark.parametrize(
    "argv, message, solves",
    [
        # band 8 would come from the window's untrusted top: off by 0.12 against
        # m_max = 32; the band count alone shows it, so nothing is solved
        (["hill", "--set", "m_max=4", "--set", "band_count=8", "--set", "ceiling=8"], "band_count 8 exceeds", 0),
        # the gaps used to be checked after the curves and intervals were written
        (["hill", "--set", "m_max=2", "--set", "band_count=2", "--set", "ceiling=8"], "ceiling 8 needs", None),
        # cos 30x lies past the window m_max = 10, which the coefficients alone
        # show: refused before the Hill grid, in both commands
        (
            ["hill", "--set", f"potential={json.dumps(_FAR_HARMONIC_CFG)}", "--set", "m_max=10", "--set", "band_count=6"],
            "Fourier window m_max = 10 does not resolve V",
            0,
        ),
        (
            ["sweep-omega", "--set", f"potential={json.dumps(_FAR_HARMONIC_CFG)}", "--set", "hill_m_max=10"],
            "Fourier window m_max = 10 does not resolve V",
            0,
        ),
    ],
    ids=["band-count-above-window", "ceiling-above-window", "hill-far-harmonic", "sweep-far-harmonic"],
)
def test_hill_config_error_writes_only_the_manifest(tmp_path, capsys, monkeypatch, argv, message, solves):
    from channel_spectra import fiber

    calls = []
    solve = fiber.eigenvalues_fiber

    def counted_solve(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    # every refusal precedes the channel fiber, so every eigensolve is a Hill solve
    monkeypatch.setattr(fiber, "eigenvalues_fiber", counted_solve)
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    if solves is not None:
        assert len(calls) == solves
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["artifacts"] == []


_HARMONIC = st.tuples(
    st.integers(1, 4),
    st.floats(-2.0, 2.0),
    st.one_of(st.just(0.0), st.floats(-2.0, 2.0)),
)


@settings(max_examples=100, deadline=None)
@given(
    # m_max = 1 is refused by the schema before any output (hill-m-max-1 above)
    m_max=st.integers(2, 12),
    band_count=st.integers(1, 30),
    theta_count=st.sampled_from([9, 17]),
    ceiling_above_alpha=st.floats(-3.0, 40.0),
    harmonics=st.lists(_HARMONIC, min_size=1, max_size=3, unique_by=lambda h: h[0]),
)
def test_hill_command_exits_cleanly_without_nan(
    tmp_path_factory, m_max, band_count, theta_count, ceiling_above_alpha, harmonics
):
    coeffs = {}
    for k, re, im in harmonics:
        coeffs[str(k)], coeffs[str(-k)] = [re, im], [re, -im]
    potential = {"kind": "fourier_x", "coeffs": coeffs}
    out = tmp_path_factory.mktemp("hill")
    argv = [
        "hill", "--set", f"potential={json.dumps(potential)}", "--set", f"m_max={m_max}",
        "--set", f"band_count={band_count}", "--set", f"theta_count={theta_count}",
        "--set", f"ceiling={5.0 + ceiling_above_alpha!r}", "--out", str(out),
    ]
    code = main(argv)
    assert code in (0, 1)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    for name in manifest["artifacts"]:
        if name.endswith(".csv"):
            assert "nan" not in (out / name).read_text().lower()


def _cosines(amplitudes):
    """The fourier_x coefficients of sum_k 2 a_k cos(k x)."""
    coeffs = {}
    for k, a in enumerate(amplitudes, start=1):
        coeffs[str(k)], coeffs[str(-k)] = [a, 0.0], [a, 0.0]
    return coeffs


_PERIODIC_POTENTIALS = st.one_of(
    st.just({"kind": "zero"}),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(
        lambda a: {"kind": "fourier_x", "coeffs": _cosines(a)}
    ),
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(
        lambda c: {"kind": "fourier_x", "coeffs": {"1": [c[0], c[1]], "-1": [c[0], -c[1]]}}
    ),
    st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0)).map(
        lambda c: {
            "kind": "fourier_x_profile",
            "coeffs": _cosines([c[0]]),
            "profile": {"shape": "gaussian", "sigma": c[1]},
        }
    ),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 2.0)).map(
        lambda c: {"kind": "profile_y", "profile": {"shape": "gaussian", "sigma": c[1]}, "amplitude": c[0]}
    ),
)
# the ceiling's offset from alpha: from below the spectrum to a few Landau
# levels up, or past the fiber cap of 4096 rows at n_hermite = 8, which exits
# 1 before anything is allocated.  The ceilings in between are left out: a
# run there takes seconds to minutes (ceiling 100 takes over 20 s)
_CEILING_OFFSETS = st.one_of(st.floats(-4.0, 12.0), st.floats(1e5, 1e7))
# seconds per example: of 150 drawn runs, the slowest took 7 s and 90 in 100 under 0.2 s
_BANDS_RUN_BOUND = 30.0


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(["bands", "gaps"]),
    B=st.floats(0.0, 4.0),
    omega=st.floats(1.0, 5.0),
    potential=_PERIODIC_POTENTIALS,
    theta_count=st.sampled_from([9, 17]),
    ceiling_offset=_CEILING_OFFSETS,
)
def test_bands_and_gaps_exit_cleanly_without_nan(
    tmp_path_factory, command, B, omega, potential, theta_count, ceiling_offset
):
    out = tmp_path_factory.mktemp(command)
    ceiling = derive_params(B, omega).alpha + ceiling_offset
    argv = [command, "--set", f"potential={json.dumps(potential)}", "--set", "n_hermite=8"]
    for key, value in {"B": B, "omega": omega, "theta_count": theta_count, "ceiling": ceiling}.items():
        argv += ["--set", f"{key}={value!r}"]
    start = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    elapsed = time.perf_counter() - start
    assert elapsed < _BANDS_RUN_BOUND
    assert code in (0, 1, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    for name in ("bands.csv", "band_intervals.csv", "gaps.csv"):
        if name in manifest["artifacts"]:
            assert "nan" not in (out / name).read_text().lower()


def _nan_cells(path):
    """(row, column) of every nan number in an artifact: a CSV cell, or a
    number anywhere in a JSON value (row and column None)."""
    if path.suffix == ".json":
        def walk(value):
            if isinstance(value, float) and math.isnan(value):
                yield (None, None)
            elif isinstance(value, dict):
                for sub in value.values():
                    yield from walk(sub)
            elif isinstance(value, list):
                for sub in value:
                    yield from walk(sub)

        return list(walk(json.loads(path.read_text())))
    rows = _read_csv(path)
    return [(i, key) for i, row in enumerate(rows) for key, cell in row.items() if cell.lower() == "nan"]


@settings(max_examples=30, deadline=None)
@given(
    B=st.floats(0.5, 4.0),
    omega_list=st.lists(st.floats(1.0, 200.0), min_size=1, max_size=4, unique=True).map(sorted),
    target_gap_count=st.integers(1, 6),
    hill_m_max=st.sampled_from([5, 8, 12, 16]),
    potential=st.one_of(
        st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(
            lambda a: {"kind": "fourier_x", "coeffs": _cosines(a)}
        ),
        st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0)).map(
            lambda c: {
                "kind": "fourier_x_profile",
                "coeffs": _cosines([c[0]]),
                "profile": {"shape": "gaussian", "sigma": c[1]},
            }
        ),
    ),
)
def test_sweep_omega_exits_cleanly_without_undocumented_nan(
    tmp_path_factory, B, omega_list, target_gap_count, hill_m_max, potential
):
    out = tmp_path_factory.mktemp("sweep")
    argv = ["sweep-omega", "--set", f"potential={json.dumps(potential)}"]
    settings_ = {
        "B": B, "omega_list": omega_list, "target_gap_count": target_gap_count,
        "hill_m_max": hill_m_max, "n_hermite": 8, "theta_count": 9,
    }
    for key, value in settings_.items():
        argv += ["--set", f"{key}={json.dumps(value)}"]
    start = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    assert time.perf_counter() - start < _BANDS_RUN_BOUND
    assert code in (0, 1, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    for name in ["manifest.json", *manifest["artifacts"]]:
        cells = _nan_cells(out / name)
        if name != "sweep.csv":
            assert not cells, name
            continue
        # the documented nan: a tracked gap that the reference H_{0,0} lacks,
        # both of its edges, with an inf discrepancy
        rows = _read_csv(out / name)
        for i in {i for i, _ in cells}:
            assert {key for j, key in cells if j == i} == {"reference_lower", "reference_upper"}
            assert rows[i]["discrepancy"] == "inf"


_MOURRE_POTENTIALS = st.one_of(
    st.just({"kind": "zero"}),
    # a centred bump, then one off centre
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.3, 1.5)).map(
        lambda b: {"kind": "gaussian_bumps", "bumps": [[b[0], 0.0, 0.0, b[1]]]}
    ),
    st.tuples(st.floats(-2.0, 2.0), st.floats(-3.0, 3.0), st.floats(-1.0, 1.0), st.floats(0.3, 1.5)).map(
        lambda b: {"kind": "gaussian_bumps", "bumps": [list(b)]}
    ),
    st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3).map(lambda a: {"kind": "fourier_x", "coeffs": _cosines(a)}),
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.5, 2.0)).map(
        lambda c: {"kind": "profile_y", "profile": {"shape": "gaussian", "sigma": c[1]}, "amplitude": c[0]}
    ),
    st.tuples(st.floats(-2.0, 2.0), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=4)).map(
        lambda c: {"kind": "profile_y", "profile": {"shape": "polynomial", "coeffs": c[1]}, "amplitude": c[0]}
    ),
)
_SCALING_BLOCKS = st.fixed_dictionaries(
    {
        "E0": st.floats(0.5, 20.0),
        "delta0": st.floats(0.05, 2.0),
        "eps0": st.floats(0.05, 2.0),
        "omega_list": st.lists(st.floats(0.2, 8.0), min_size=1, max_size=5, unique=True).map(sorted),
    }
)


@pytest.mark.parametrize(
    "argv",
    [["mourre"], ["commutator"], ["commutator", "--gen-nogo"], ["diagnostics"]],
    ids=["mourre", "commutator", "commutator-gen-nogo", "diagnostics"],
)
@settings(max_examples=20, deadline=None)
@given(B=st.floats(0.0, 6.0), omega=st.floats(0.2, 8.0), data=st.data())
def test_certificate_and_check_commands_exit_cleanly_without_nan(tmp_path_factory, argv, B, omega, data):
    out = tmp_path_factory.mktemp(argv[0])
    sets = {"B": B, "omega": omega}
    if argv == ["mourre"]:
        sets["potential"] = data.draw(_MOURRE_POTENTIALS)
        scaling = data.draw(st.none() | _SCALING_BLOCKS)
        if scaling is not None:
            sets["scaling"] = scaling
    for key, value in sets.items():
        argv = [*argv, "--set", f"{key}={json.dumps(value)}"]
    start = time.perf_counter()
    code = main(argv + ["--out", str(out)])
    assert time.perf_counter() - start < _BANDS_RUN_BOUND
    assert code in (0, 1, 2)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == code
    for name in ["manifest.json", *manifest["artifacts"]]:
        if name.endswith((".csv", ".json")):
            assert not _nan_cells(out / name), name


def test_diagnostics_command(tmp_path):
    out = tmp_path / "run"
    assert main(["diagnostics", "--out", str(out)]) == 0
    report = json.loads((out / "diagnostics.json").read_text())
    assert report["all_passed"] is True
    assert set(report["checks"]) == {
        "derived_constants",
        "free_fiber_spectrum",
        "complex_theta_resolvent_bound",
        "hill_oracle",
        "resolvent_norm_bounds",
        "classical_integrator",
        "commutator_identity",
    }


def test_diagnostics_at_strong_field_weak_confinement(tmp_path):
    out = tmp_path / "run"
    assert main(["diagnostics", "--out", str(out), "--set", "B=3.331176", "--set", "omega=3.051963"]) == 0
    check = json.loads((out / "diagnostics.json").read_text())["checks"]["free_fiber_spectrum"]
    assert check["passed"] and check["max_abs_error"] < 1e-12


@pytest.mark.parametrize("B", [0.0, 0.5, 1.0, 3.331176, 6.0, 12.0])
@pytest.mark.parametrize("omega", [0.2, 1.0, 3.051963, 8.0])
def test_free_fiber_check_over_field_and_confinement(B, omega):
    check = _free_fiber_check(derive_params(B, omega))
    assert check["passed"], check
    assert check["max_abs_error"] < 1e-8


@pytest.mark.parametrize(
    "setting",
    ["E=1e400", "E=1e300", "delta=NaN", "eps=-Infinity", "scaling.E0=1e400"],
)
def test_mourre_rejects_non_finite_and_absurd_inputs_promptly(tmp_path, setting):
    # run in a child process so that a regression to an endless loop fails
    # on the timeout instead of hanging the suite
    src = str(Path(channel_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    args = ["mourre", "--out", str(tmp_path / "o"), "--set", setting]
    if setting.startswith("scaling."):
        args += ["--set", "scaling.delta0=0.2", "--set", "scaling.eps0=0.2", "--set", "scaling.omega_list=[4.0]"]
    proc = subprocess.run(
        [sys.executable, "-m", "channel_spectra.cli", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert "config error" in proc.stderr


def test_mourre_counts_the_refused_threshold_windows_readably(tmp_path, capsys):
    # the count is about 1e299: this used to print all of its 300 digits
    assert main(["mourre", "--set", "E=1e300", "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "1e+299 threshold windows" in err and err.count("\n") == 1 and len(err) < 200, err


@pytest.mark.parametrize(
    "argv, key",
    [
        # a repeat reran the whole band computation: three times for [1, 1, 1]
        (["sweep-omega", "--set", "omega_list=[1.0, 1.0, 1.0]"], "omega_list"),
        # unsorted, this reported "admissible from omega=8" while 0.5 is admissible
        (
            ["mourre", "--set", 'scaling={"E0": 1.6, "delta0": 0.2, "eps0": 0.2, "omega_list": [8.0, 0.5, 4.0]}'],
            "scaling.omega_list",
        ),
    ],
    ids=["sweep-omega-repeated", "mourre-scaling-unsorted"],
)
def test_an_omega_list_that_does_not_ascend_exits_one_before_any_output(tmp_path, capsys, argv, key):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {key}: must ascend strictly") and err.count("\n") == 1, err
    assert not out.exists()


def test_sweep_command_small(tmp_path):
    out = tmp_path / "run"
    code = main(
        [
            "sweep-omega",
            "--out",
            str(out),
            "--set",
            "omega_list=[4.0]",
            "--set",
            "theta_count=9",
            "--set",
            "n_hermite=16",
            "--set",
            "refine=false",
        ]
    )
    assert code == 0
    rows = _read_csv(out / "sweep.csv")
    assert len(rows) == 1
    assert float(rows[0]["discrepancy"]) < 0.5
    full = _read_csv(out / "full_gaps.csv")
    assert len(full) >= 1


_PROFILE_Y = '{"kind": "profile_y", "profile": {"shape": "constant"}, '


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--set", "theta_count=33.7"],
        ["hill", "--set", "m_max=2.5"],
        ["bands", "--set", 'potential={"kind": "zero", "bogus": 1}'],
        ["mourre", "--set", "potential=" + _PROFILE_Y + '"amplitud": 0.5}'],
        ["mourre", "--set", "potential=" + _PROFILE_Y + '"amplitude": NaN}'],
        ["gaps", "--set", "gap_tolerance=true"],
        ["bands", "--set", "ceiling=abc"],
        ["gaps", "--set", "gap_tolerance=x"],
        ["hill", "--set", "ceiling=[1]"],
        ["bands", "--set", "cauchy_tol=-1", "--set", "n_hermite=8"],
        # condition (I) divides by 1 + E / eps, zero at E = -eps
        ["mourre", "--set", "E=-1"],
        ["mourre", "--set", "E=0"],
        [
            "gaps",
            "--set",
            'potential={"kind": "fourier_x", "coeffs": {"1": [0.5, 0.0], "-1": [0.5, 0.0]}, '
            '"cosines": {"1": 2.0}}',
        ],
    ],
    ids=[
        "theta_count-fraction",
        "hill-m_max-fraction",
        "zero-potential-bogus-key",
        "profile_y-misspelt-amplitude",
        "profile_y-nan-amplitude",
        "gap_tolerance-bool",
        "ceiling-string",
        "gap_tolerance-string",
        "hill-ceiling-list",
        "cauchy_tol-negative",
        "mourre-E-negative",
        "mourre-E-zero",
        "cosines-with-coeffs",
    ],
)
def test_invalid_single_key_exits_one_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "o"
    assert main([*argv, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["classical", "--set", "t_end=1e9"],
        ["bands", "--set", 'potential={"kind": "zero"}', "--set", "n_hermite=600"],
        ["bands", "--set", "ceiling=1e6"],
        ["bands", "--set", "m_max=100000"],
        ["bands", "--set", "n_hermite=300"],
        ["gaps", "--set", "ceiling=2000", "--set", f"potential={json.dumps(_GAUSSIAN_COS_CFG)}"],
        ["gaps", "--set", "n_hermite=500", "--set", f"potential={json.dumps(_GAUSSIAN_COS_CFG)}"],
    ],
    ids=[
        "classical-step-cap",
        "zero-potential-hermite-cap",
        "ceiling-fourier-window",
        "m-max-fourier-window",
        "n-hermite-landau-dimension",
        "ceiling-hermite-probe",
        "n-hermite-hermite-probe",
    ],
)
def test_oversized_run_is_refused_promptly(tmp_path, argv):
    # in a child process, so that a regression to allocating first and
    # running for minutes fails on the timeout instead of stalling the suite
    src = str(Path(channel_spectra.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = tmp_path / "o"
    proc = subprocess.run(
        [sys.executable, "-m", "channel_spectra.cli", *argv, "--out", str(out)],
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("config error: ") and proc.stderr.count("\n") == 1
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1
    assert manifest["error"] == proc.stderr.strip()


def test_an_orbit_of_zero_steps_exits_one_with_only_the_manifest(tmp_path, capsys):
    # t_end / dt = 0.5 rounds to 0 steps; this used to exit 0 with a one-row trajectory
    out = tmp_path / "o"
    assert main(["classical", "--set", "dt=2", "--set", "t_end=1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: t_end / dt = 0.5") and err.count("\n") == 1, err
    assert [p.name for p in out.iterdir()] == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert (manifest["exit_status"], manifest["artifacts"]) == (1, [])


@pytest.mark.parametrize(
    "argv",
    # the defaults put the spectrum bottom at 3.78 (gaps), at alpha = 5 (bands)
    # and at 3.93 (the H_{0,0} reference of hill)
    [["gaps", "--set", "ceiling=3.5"], ["bands", "--set", "ceiling=-5"], ["hill", "--set", "ceiling=2"]],
    ids=["gaps-ceiling-3.5", "bands-ceiling-minus-5", "hill-ceiling-2"],
)
def test_ceiling_below_the_spectrum_writes_only_the_manifest(tmp_path, capsys, argv):
    # no band reaches the ceiling: this used to exit 2 as a numerical failure
    # in the spectrum bottom, after gaps had written three artifacts, and
    # hill exited 0 with an empty hill_gaps.csv
    out = tmp_path / "o"
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: ceiling ") and "below the spectrum" in err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["artifacts"] == []
    assert manifest["error"] == err.strip()


def test_a_cubic_profile_writes_only_the_manifest(tmp_path, capsys):
    # W = 0.6 cos x (1 + 0.05 y^3) has no floor -(a + b y^2) for the
    # truncation check; this used to exit 0
    potential = {
        "kind": "fourier_x_profile", "coeffs": {"1": [0.3, 0.0], "-1": [0.3, 0.0]},
        "profile": {"shape": "polynomial", "coeffs": [1.0, 0.0, 0.0, 0.05]},
    }
    out = tmp_path / "o"
    argv = ["gaps", "--set", f"potential={json.dumps(potential)}", "--set", "n_hermite=8", "--set", "ceiling=6.5"]
    assert main(argv + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: a profile of degree 3") and err.count("\n") == 1, err
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1 and manifest["artifacts"] == []


def test_cross_key_error_leaves_a_manifest(tmp_path, capsys):
    out = tmp_path / "o"
    assert main(["mourre", "--set", "delta=100", "--out", str(out)]) == 1
    assert "config error" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 1
    assert "delta" in manifest["error"]
    assert manifest["config"]["delta"] == 100.0 and manifest["artifacts"] == []


def test_numerical_failure_leaves_a_manifest(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise EigensolverError("no convergence", "nowhere.npy")

    monkeypatch.setattr(cli, "compute_bands", fail)
    out = tmp_path / "o"
    assert main(["bands", "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert "no convergence" in manifest["error"]
    assert manifest["config"]["theta_count"] == 33


def test_hill_solver_failure_dumps_the_matrix(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise scipy.linalg.LinAlgError("no convergence")

    monkeypatch.setattr(scipy.linalg, "eigh", fail)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    out = tmp_path / "o"
    assert main(["hill", "--set", "theta_count=9", "--out", str(out)]) == 2
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    # the Hill solve goes through the fiber eigensolver, which dumps its matrix
    [dump] = tmp_path.glob("fiber_matrix_*.npy")
    assert f"(matrix dumped to {dump})" in manifest["error"]
    assert np.load(dump).shape == (65, 65)


def test_library_value_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ValueError("matrix lost its symmetry")

    monkeypatch.setattr(cli, "compute_bands", fail)
    out = tmp_path / "o"
    assert main(["bands", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: matrix lost its symmetry")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_status"] == 2
    assert manifest["error"] == "numerical failure: matrix lost its symmetry"


@pytest.mark.parametrize(
    "argv",
    [
        ["bands", "--set", "n_hermite=2", "--set", "theta_count=9", "--set", "ceiling=6.5"],
        ["sweep-omega", "--set", "omega_list=[4.0]", "--set", "n_hermite=2", "--set", "theta_count=9"],
    ],
    ids=["bands", "sweep-omega"],
)
def test_truncation_growth_past_the_cap_exits_two(tmp_path, capsys, monkeypatch, argv):
    from channel_spectra import bands

    # W = 2 cos x needs more than N = 2 Landau levels for 1e-7, and the
    # first doubling would pass the (lowered) cap
    monkeypatch.setattr(bands, "MAX_N_HERMITE", 3)
    out = tmp_path / "o"
    with pytest.warns(UserWarning, match="did not meet"):
        code = main([*argv, "--set", f"potential={json.dumps(_TWO_COS_CFG)}", "--out", str(out)])
    assert code == 2
    assert "truncation did not converge" in capsys.readouterr().err
    assert json.loads((out / "manifest.json").read_text())["exit_status"] == 2


def test_manifest_records_typed_config(tmp_path):
    out = tmp_path / "o"
    args = ["--set", "B=2", "--set", "theta_count=9.0", "--set", "refine=false", "--set", "n_hermite=8"]
    assert main(["bands", *args, "--out", str(out)]) == 0
    config = json.loads((out / "manifest.json").read_text())["config"]
    assert config["B"] == 2.0 and isinstance(config["B"], float)
    assert config["theta_count"] == 9 and isinstance(config["theta_count"], int)
    assert config["m_max"] is None and config["xtol"] == 1e-8
    assert "error" not in json.loads((out / "manifest.json").read_text())


# Hypothesis: overrides of known keys (nested ones too) and unknown keys
_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=5)
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
)
_NUMBERS = st.integers(-3, 70) | st.floats(-2.0, 60.0) | st.sampled_from([2.5, math.nan, math.inf, 10**400])
_OBJECTS = [
    {"E0": 1.6, "delta0": 0.2, "eps0": 0.2, "omega_list": [1.0, 4.0]},
    {"shape": "gaussian", "sigma": 0.5},
    {"shape": "polynomial", "coeffs": [1, 0.5]},
    {"1": [0.5, 0.0], "-1": [0.5, 0.0]},
    {"0": 0.2},
    {"kind": "zero"},
    {"kind": "fourier_x", "coeffs": {"2": [0.0, 0.1], "-2": [0.0, -0.1]}},
    {"kind": "fourier_x", "coeffs": {"1": [0.5, 0.0]}},
    {"kind": "profile_y", "profile": {"shape": "constant"}, "amplitude": 2},
    {"kind": "fourier_x_profile", "coeffs": {"0": 0.2}, "profile": {"shape": "gaussian"}},
    {"kind": "gaussian_bumps", "bumps": [[0.1, 0.0, 0.0, 1.0]]},
    {"kind": "grid", "x": [0, 1], "y": [0, 1], "values": [[0, 1], [1, 0]]},
]


def _typed_values(key: Key, holding: str = ""):
    """Values of about the key's type, in range or just outside it; objects
    that hold the given key, when one is named."""
    kind = key.type
    if kind is bool:
        return st.booleans()
    if kind in (int, float):
        return _NUMBERS
    if kind is str:
        return st.sampled_from(["zero", "fourier_x", "profile_y", "grid", "gaussian", "constant"])
    if typing.get_origin(kind) is list:
        return st.lists(_NUMBERS, max_size=3) | st.lists(st.lists(_NUMBERS, max_size=4), max_size=2)
    if isinstance(kind, OneOf):
        return st.sampled_from([o for o in _OBJECTS if kind.tag in o and (not holding or holding in o)])
    if isinstance(kind, dict):
        return st.sampled_from([o for o in _OBJECTS if set(o) <= set(kind)])
    return st.sampled_from([o for o in _OBJECTS if all(k.lstrip("-").isdigit() for k in o)])


def _schema_keys(schema, prefix=""):
    """(path, Key) for every key of a table, nested keys included."""
    for name, key in schema.items():
        yield prefix + name, key
        if isinstance(key.type, OneOf):
            yield prefix + name + "." + key.type.tag, Key(str)
        nested = key.type.schemas.values() if isinstance(key.type, OneOf) else [key.type]
        for sub in nested:
            if isinstance(sub, dict):
                yield from _schema_keys(sub, prefix + name + ".")


_UNKNOWN = st.sampled_from(["nope", "potential.bogus", "scaling.extra", "potential.profile.width"])


def _overrides(schema):
    """Up to three overrides; a nested key comes after a plausible object for
    its top-level key, so that it has something to descend into."""
    picks = [st.tuples(_UNKNOWN, _JSON).map(lambda pair: [pair])]
    for path, key in _schema_keys(schema):
        top = path.split(".")[0]
        pick = st.tuples(st.just(path), _typed_values(key) | _JSON)
        if path == top:
            picks.append(pick.map(lambda pair: [pair]))
        else:
            base = st.tuples(st.just(top), _typed_values(schema[top], path.split(".")[1]))
            picks.append(st.tuples(base, pick).map(list))
    groups = st.lists(st.one_of(picks), max_size=3)
    return groups.map(lambda gs: [pair for g in gs for pair in g])


_OVERRIDES = {command: _overrides(schema) for command, schema in cli._SCHEMAS.items()}


def _conforms(key: Key, value) -> None:
    """Assert that a resolved value has its key's declared type and range."""
    if value is None:
        assert key.default is None
        return
    kind = key.type
    if kind is bool:
        assert type(value) is bool
    elif kind is int:
        assert type(value) is int
    elif kind is float:
        assert type(value) is float and math.isfinite(value)
    elif typing.get_origin(kind) is list:
        assert isinstance(value, list) and value
        for item in value:
            _conforms(Key(typing.get_args(kind)[0], ge=key.ge, gt=key.gt), item)
    elif isinstance(kind, (dict, OneOf)):
        schema = kind if isinstance(kind, dict) else {kind.tag: Key(str), **kind.schemas[value[kind.tag]]}
        assert set(value) == set(schema)
        for name, sub in schema.items():
            if sub.type is not str:
                _conforms(sub, value[name])
    else:  # Fourier coefficients: harmonic -> [re, im]
        for k, pair in value.items():
            int(k)
            assert len(pair) == 2 and all(type(c) is float and math.isfinite(c) for c in pair)
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        assert key.ge is None or value >= key.ge
        assert key.gt is None or value > key.gt
    if key.check is not None:
        key.check(value)


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_resolved_config_is_typed_or_rejected(data):
    command = data.draw(st.sampled_from(COMMANDS))
    overrides = data.draw(_OVERRIDES[command])
    sets = [f"{path}={json.dumps(value)}" for path, value in overrides]
    try:
        cfg = resolve_config(command, None, sets)
    except ConfigError:
        return
    schema = cli._SCHEMAS[command]
    assert set(cfg) == set(schema)
    for name, key in schema.items():
        _conforms(key, cfg[name])
    if "potential" in cfg:
        potential_from_dict(cfg["potential"])
