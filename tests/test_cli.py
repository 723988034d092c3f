"""Command-line surface: exit codes, artifacts, determinism, config merge.

Each subcommand is driven through `dispatch` (in-process) plus one
subprocess run for the module entry point; artifacts are re-read
through the library readers to close the loop."""

import hashlib
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym import cli, symfun
from kelvinasym.cli import dispatch
from kelvinasym.exactalg import RadPoly, SolveError
from kelvinasym.expand import read_fit, read_samples
from kelvinasym.radial import read_trajectory

THETA3_FULL = 3 * math.pi / 4


# ── usage errors (exit 2) ────────────────────────────────────────────────


def test_unknown_command_exits_2(capsys):
    assert dispatch(["no-such-command"]) == 2
    capsys.readouterr()


def test_unknown_flag_exits_2(capsys):
    assert dispatch(["lemmas", "--n", "3", "--frobnicate", "1"]) == 2
    capsys.readouterr()


def test_lemmas_below_hypothesis_exits_2(tmp_path, capsys):
    code = dispatch(["lemmas", "--n", "1", "--out", str(tmp_path / "r.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert "at least 2" in err and "--help" in err


def test_missing_required_flag_exits_2(tmp_path, capsys):
    assert dispatch(["lemmas", "--out", str(tmp_path / "r.json")]) == 2
    assert dispatch(["radial", "--out", str(tmp_path / "t.csv")]) == 2
    capsys.readouterr()


def test_bad_output_directory_exits_2(tmp_path, capsys):
    code = dispatch(
        ["lemmas", "--n", "3", "--out", str(tmp_path / "missing" / "r.json")]
    )
    assert code == 2
    capsys.readouterr()


def test_bad_rational_exits_2(tmp_path, capsys):
    code = dispatch(
        ["expand3", "--p0", "one half", "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    capsys.readouterr()


# ── lemmas ───────────────────────────────────────────────────────────────


def test_lemmas_report_structure(tmp_path, capsys):
    out = tmp_path / "lemmas.json"
    code = dispatch(
        ["lemmas", "--n", "3", "--trials", "2", "--seed", "11", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert report["first_failure"] is None
    # 2 trials: L31 2*3, L32 2*3, L33 2*5*4, L34 2*5*3
    assert report["identities"]["L31"]["checks"] == 6
    assert report["identities"]["L32"]["checks"] == 6
    assert report["identities"]["L33"]["checks"] == 40
    assert report["identities"]["L34"]["checks"] == 30
    assert report["checks_run"] == 82
    assert all(v["failures"] == 0 for v in report["identities"].values())
    capsys.readouterr()


def test_lemmas_n2_skips_the_size3_identities(tmp_path, capsys):
    out = tmp_path / "lemmas2.json"
    assert dispatch(["lemmas", "--n", "2", "--trials", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert set(report["identities"]) == {"L31", "L33"}
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv,digest",
    [
        (
            ["expand3", "--order", "8", "--p0", "3/2", "--spectrum", "1,1/2,2"],
            "5843aaf2b404c8055431fd01c217b52c2bcc663eac6d68db576adc589468a7b5",
        ),
        (
            ["residual-n3", "--trials", "2"],
            "9f3899bc0c856a038d455464a370f28e4f0c63e5630a999370a87384b1c1d73e",
        ),
        (
            ["lemmas", "--n", "5", "--trials", "2"],
            "88ce1eec37d2e5e47581f3b80722aa5f4bd5ce3d18965c7c73c1d0f6882c4118",
        ),
        (
            ["lemmas", "--n", "2", "--trials", "2"],
            "1f651e23e7c3e406abfc3374df754c49fc400898a86483524ffc5f4155709967",
        ),
    ],
    ids=["expand3", "residual-n3", "lemmas-n5", "lemmas-n2"],
)
def test_exact_report_bytes_are_pinned(tmp_path, capsys, argv, digest):
    # these reports hold only exact values, so no platform libm can move
    # them, and a rewrite of the exact residual must leave them byte for byte
    out = tmp_path / "r.json"
    assert dispatch([*argv, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


def test_lemmas_failure_names_the_check_and_its_inputs(tmp_path, capsys):
    # one L33 index (k = 2 for the first pair of the second trial) disagrees
    real = symfun.verify_identity
    calls = []

    def tampered(lemma, s, p=None):
        reports = real(lemma, s, p)
        if lemma == "L33":
            calls.append(p)
            if len(calls) == 6:
                bad = reports[2]
                reports[2] = symfun.ExactReport(bad.lemma, bad.lhs, bad.rhs + 1, False)
        return reports

    out = tmp_path / "r.json"
    argv = ["lemmas", "--n", "3", "--trials", "2", "--seed", "4", "--out", str(out)]
    with mock.patch.object(symfun, "verify_identity", tampered):
        assert dispatch(argv) == 1
    assert "FAILED at L33" in capsys.readouterr().err
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    assert report["identities"]["L33"] == {"checks": 40, "failures": 1}
    failure = report["first_failure"]
    p = calls[5]
    assert failure["check"] == "L33"
    assert {k: v for k, v in failure["inputs"].items() if k != "spectrum"} == {
        "trial": 1,
        "k": 2,
        "a": str(p.a),
        "b": str(p.b),
    }
    assert Fraction(failure["rhs"]) == Fraction(failure["lhs"]) + 1
    assert failure["inputs"]["spectrum"]["n"] == 3


def test_lemmas_artifact_is_deterministic(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["lemmas", "--n", "3", "--trials", "3", "--seed", "5"]
    assert dispatch(argv + ["--out", str(a)]) == 0
    assert dispatch(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ── kelvin-check ─────────────────────────────────────────────────────────


def test_kelvin_check_passes_at_default_tolerance(tmp_path, capsys):
    out = tmp_path / "kc.json"
    assert dispatch(["kelvin-check", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert report["max_rel_deviation"] < 1e-5
    capsys.readouterr()


def test_kelvin_check_fails_at_impossible_tolerance(tmp_path, capsys):
    out = tmp_path / "kc.json"
    code = dispatch(["kelvin-check", "--tolerance", "1e-20", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    assert "deviation" in report["first_failure"]["check"]
    err = capsys.readouterr().err
    assert "FAILED" in err and "deviation" in err


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--fd-step", "0"], "--fd-step must be positive and finite, got 0.0"),
        (["--fd-step", "nan"], "--fd-step must be positive and finite, got nan"),
        (["--fd-step", "inf"], "--fd-step must be positive and finite, got inf"),
        (["--samples", "0"], "--samples must be at least 1, got 0"),
        (["--samples", "-1"], "--samples must be at least 1, got -1"),
        (["--tolerance", "0"], "--tolerance must be positive and finite, got 0.0"),
        (["--tolerance", "nan"], "--tolerance must be positive and finite, got nan"),
        (["--theta", "inf"], "--theta must be finite, got inf"),
        (["--spectrum", "1e400,1,1"], "--spectrum 1e400,1,1 does not fit in floats"),
        (["--spectrum", "1e300,1,1"], "eigenvalue 1e+300"),
    ],
)
def test_kelvin_check_unmeasurable_input_exits_2(tmp_path, capsys, flags, named):
    # each of these used to measure nothing and pass, or end in a traceback
    out = tmp_path / "kc.json"
    assert dispatch(["kelvin-check", "--samples", "2", *flags, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_kelvin_check_non_finite_deviation_fails_with_valid_json(tmp_path, capsys):
    def reject(name):
        raise ValueError(f"{name} is not JSON")

    out = tmp_path / "kc.json"
    with np.errstate(all="ignore"):
        code = dispatch(["kelvin-check", "--samples", "2", "--fd-step", "1e300", "--out", str(out)])
    assert code == 1
    report = json.loads(out.read_text(), parse_constant=reject)
    assert report["all_pass"] is False
    assert report["max_rel_deviation"] == "inf"
    capsys.readouterr()


@pytest.mark.parametrize(
    "flag,value",
    [
        ("theta", "inf"),
        ("theta", "-inf"),
        ("theta", "nan"),
        ("u1", "nan"),
        ("p1", "inf"),
        ("sample-rmin", "nan"),
        ("sample-rmax", "nan"),
    ],
)
def test_radial_non_finite_value_exits_2(tmp_path, capsys, flag, value):
    # a non-finite start used to integrate one node and report a failed run,
    # and a NaN sample bound was ignored
    out = tmp_path / "t.csv"
    flags = {"theta": "2.3", "u1": "0.5", "p1": "1", flag: value}
    argv = ["radial", *(f"--{k}={v}" for k, v in flags.items()), "--rmax", "3"]
    assert dispatch([*argv, "--out", str(out)]) == 2
    assert f"--{flag} must be finite, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_radial_non_finite_step_exits_2(tmp_path, capsys, value):
    # an infinite step used to end in an unrelated integer-conversion error
    out = tmp_path / "t.csv"
    argv = ["radial", "--theta", "2.3", "--u1", "0.5", "--p1", "1", "--rmax", "3", "--step", value]
    assert dispatch([*argv, "--out", str(out)]) == 2
    assert f"--step must be positive and finite, got {float(value)}" in capsys.readouterr().err
    assert not out.exists()


# ── poisson / residual-n3 / residual-scaling ─────────────────────────────


def test_poisson_counts_and_passes(tmp_path, capsys):
    out = tmp_path / "p.json"
    code = dispatch(
        ["poisson", "--n", "3", "--degree", "4", "--trials", "2", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["checks_run"] == 10  # degrees 0..4, 2 trials each
    assert report["all_pass"] is True
    capsys.readouterr()


def test_poisson_reports_a_solver_failure(tmp_path, capsys):
    def failing_solve(h, n):
        raise SolveError("exact solve failed verification")

    out = tmp_path / "p.json"
    argv = ["poisson", "--n", "3", "--degree", "1", "--trials", "1", "--out", str(out)]
    with mock.patch.object(cli, "solve_radical_poisson", failing_solve):
        assert dispatch(argv) == 1
    report = json.loads(out.read_text())
    assert report["all_pass"] is False and report["checks_run"] == 2
    failure = report["first_failure"]
    assert failure["check"] == "radical Poisson residual (degree 0)"
    assert failure["inputs"]["note"].startswith("solver:")
    assert "FAILED at radical Poisson residual (degree 0)" in capsys.readouterr().err


def test_residual_n3_passes(tmp_path, capsys):
    out = tmp_path / "r3.json"
    assert dispatch(["residual-n3", "--trials", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True and report["checks_run"] == 3
    capsys.readouterr()


def test_residual_scaling_slope_meets_threshold(tmp_path, capsys):
    out = tmp_path / "rs.json"
    code = dispatch(
        ["residual-scaling", "--n", "3", "--exponents", "3,4,5,6", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["slope"] >= report["threshold"] == pytest.approx(0.9)
    capsys.readouterr()


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--exponents", "3,3"], "exponent 3 is repeated"),
        (["--exponents", "0,-3"], "exponent 0 is not an integer in 1..200"),
        (["--exponents", "3,100000"], "exponent 100000 is not an integer in 1..200"),
        (["--exponents", "3"], "at least two exponents"),
        (["--n", "6"], "not 6"),
    ],
)
def test_residual_scaling_bad_ladder_exits_2(tmp_path, capsys, flags, named):
    out = tmp_path / "rs.json"
    assert dispatch(["residual-scaling", *flags, "--out", str(out)]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


# ── expand3 ──────────────────────────────────────────────────────────────


def test_expand3_audit_and_closed_form_offset(tmp_path, capsys):
    out = tmp_path / "e3.json"
    code = dispatch(
        ["expand3", "--order", "5", "--p0", "1", "--spectrum", "1,1,1", "--out", str(out)]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["all_pass"] is True
    assert all(d > 4 for d in report["residual_odd_sector_degrees"])
    # the closed-form leading correction equals the recursion's first step
    assert report["first_correction_matches_closed_form"] is True
    assert report["closed_form_minus_first_correction"]["terms"] == []
    capsys.readouterr()


def test_expand3_rational_inputs(tmp_path, capsys):
    out = tmp_path / "e3b.json"
    code = dispatch(
        [
            "expand3",
            "--order",
            "4",
            "--p0",
            "3/2",
            "--spectrum",
            "1,1/2,2",
            "--out",
            str(out),
        ]
    )
    assert code == 0
    report = json.loads(out.read_text())
    assert report["p0"] == "3/2"
    assert report["spectrum"] == ["1", "1/2", "2"]
    capsys.readouterr()


# ── radial ───────────────────────────────────────────────────────────────


def test_radial_quadratic_example_pinned(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = dispatch(
        [
            "radial",
            "--branch",
            "slag",
            "--n",
            "3",
            "--theta",
            "2.35619449",
            "--u1",
            "0.5",
            "--p1",
            "1.0",
            "--rmax",
            "50",
            "--step",
            "1e-3",
            "--out",
            str(out),
            "--stride",
            "100",
        ]
    )
    assert code == 0
    rows = read_trajectory(out)
    dev = max(abs(du - r) for r, _, du, _ in rows)
    # the flag's truncated phase sits 1.9e-10 from the exact value, which
    # tilts the quadratic ray by ~1.3e-10 and costs ~6.4e-9 by r = 50
    assert dev < 1e-8
    assert max(c for *_, c in rows) < 1e-10
    capsys.readouterr()


def test_radial_full_precision_theta_is_below_1e9(tmp_path, capsys):
    out = tmp_path / "traj.csv"
    code = dispatch(
        [
            "radial",
            "--branch",
            "slag",
            "--n",
            "3",
            "--theta",
            repr(THETA3_FULL),
            "--u1",
            "0.5",
            "--p1",
            "1.0",
            "--rmax",
            "50",
            "--step",
            "1e-3",
            "--out",
            str(out),
            "--stride",
            "100",
        ]
    )
    assert code == 0
    rows = read_trajectory(out)
    assert max(abs(du - r) for r, _, du, _ in rows) < 1e-9
    capsys.readouterr()


def test_radial_domain_failure_exits_1_with_partial_csv(tmp_path, capsys):
    out = tmp_path / "partial.csv"
    theta = -3.0 * math.sqrt(2.0)
    code = dispatch(
        [
            "radial",
            "--branch",
            "recip",
            "--n",
            "3",
            "--theta",
            repr(theta),
            "--u1",
            "0.0",
            "--p1",
            "-0.333",
            "--rmax",
            "20",
            "--step",
            "1e-3",
            "--out",
            str(out),
        ]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "bound" in err and "r =" in err
    rows = read_trajectory(out)
    assert len(rows) >= 1 and rows[0][0] == 1.0


def test_radial_work_cap_exits_2(tmp_path, capsys):
    out = tmp_path / "huge.csv"
    argv = [
        "radial",
        "--theta",
        repr(THETA3_FULL),
        "--u1",
        "0.5",
        "--p1",
        "1.0",
        "--rmax",
        "1e9",
        "--step",
        "1e-9",
        "--out",
        str(out),
    ]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "rmax=1000000000.0" in err and "step=1e-09" in err and "plans" in err
    assert not out.exists()


def test_radial_csv_deterministic(tmp_path, capsys):
    argv = [
        "radial",
        "--branch",
        "slag",
        "--n",
        "3",
        "--theta",
        repr(THETA3_FULL),
        "--u1",
        "0.5",
        "--p1",
        "1.1",
        "--rmax",
        "5",
        "--step",
        "1e-2",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert dispatch(argv + ["--out", str(a)]) == 0
    assert dispatch(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    capsys.readouterr()


# ── radial -> fit pipeline ───────────────────────────────────────────────


def test_radial_samples_feed_fit(tmp_path, capsys):
    traj = tmp_path / "traj.csv"
    samples_csv = tmp_path / "samples.csv"
    fit_json = tmp_path / "fit.json"
    code = dispatch(
        [
            "radial",
            "--branch",
            "slag",
            "--n",
            "3",
            "--theta",
            repr(THETA3_FULL),
            "--u1",
            "0.5",
            "--p1",
            "1.0",
            "--rmax",
            "60",
            "--step",
            "1e-3",
            "--stride",
            "500",
            "--out",
            str(traj),
            "--samples-out",
            str(samples_csv),
            "--per-radius",
            "8",
            "--sample-rmin",
            "5",
            "--seed",
            "2",
        ]
    )
    assert code == 0
    samples = read_samples(samples_csv)
    assert len(samples) >= 400 and len(samples[0][0]) == 3

    code = dispatch(
        [
            "fit",
            "--samples",
            str(samples_csv),
            "--n",
            "3",
            "--num-annuli",
            "4",
            "--out",
            str(fit_json),
        ]
    )
    assert code == 0
    fit = read_fit(fit_json)
    assert np.max(np.abs(fit.A - np.eye(3))) < 1e-6
    assert np.max(np.abs(fit.b)) < 1e-6
    assert fit.d is None
    capsys.readouterr()


def test_fit_insufficient_data_exits_1(tmp_path, capsys):
    samples_csv = tmp_path / "few.csv"
    samples_csv.write_text(
        "x1,x2,x3,u\n"
        "1.0,0.0,0.0,0.5\n"
        "0.0,1.0,0.0,0.5\n"
        "0.0,0.0,1.0,0.5\n"
    )
    code = dispatch(
        ["fit", "--samples", str(samples_csv), "--n", "3", "--out", str(tmp_path / "f.json")]
    )
    assert code == 1
    err = capsys.readouterr().err
    assert "FAILED" in err and "adequacy" in err


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--num-annuli", "0"], "num_annuli must be an integer in 3..1000, got 0"),
        (["--num-annuli", "-2"], "num_annuli must be an integer in 3..1000, got -2"),
        (["--num-annuli", "1000000"], "num_annuli must be an integer in 3..1000, got 1000000"),
        (["--annuli", ",".join(["1:2"] * 1001)], "1001 annuli given, more than 1000"),
    ],
)
def test_fit_unbounded_annuli_exits_2(tmp_path, capsys, flags, named):
    samples_csv = tmp_path / "few.csv"
    samples_csv.write_text("x1,x2,x3,u\n1.0,0.0,0.0,0.5\n0.0,1.0,0.0,0.5\n")
    out = tmp_path / "f.json"
    argv = ["fit", "--samples", str(samples_csv), "--n", "3", "--out", str(out), *flags]
    assert dispatch(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


def test_fit_non_finite_sample_exits_2(tmp_path, capsys):
    samples_csv = tmp_path / "nan.csv"
    rows = [f"{r}.0,0.0,0.0,{r * r / 2}" for r in range(1, 60)]
    rows[16] = "17.0,0.0,0.0,nan"
    samples_csv.write_text("x1,x2,x3,u\n" + "\n".join(rows) + "\n")
    code = dispatch(
        ["fit", "--samples", str(samples_csv), "--n", "3", "--out", str(tmp_path / "f.json")]
    )
    assert code == 2
    err = capsys.readouterr().err
    assert "row 18" in err and "finite" in err


def test_fit_missing_input_exits_2(tmp_path, capsys):
    code = dispatch(
        ["fit", "--samples", str(tmp_path / "nope.csv"), "--n", "3", "--out", str(tmp_path / "f.json")]
    )
    assert code == 2
    capsys.readouterr()


# ── config merge ─────────────────────────────────────────────────────────


def test_config_supplies_values_and_flags_override(tmp_path, capsys):
    config = tmp_path / "config.json"
    out_from_config = tmp_path / "from_config.json"
    config.write_text(
        json.dumps(
            {"n": 3, "trials": 2, "seed": 9, "out": str(out_from_config)}
        )
    )
    assert dispatch(["lemmas", "--config", str(config)]) == 0
    assert out_from_config.is_file()

    # a flag beats the same key in the config
    out_flag = tmp_path / "from_flag.json"
    assert dispatch(["lemmas", "--config", str(config), "--out", str(out_flag)]) == 0
    assert out_flag.is_file()
    report = json.loads(out_flag.read_text())
    assert report["trials"] == 2 and report["seed"] == 9
    capsys.readouterr()


def test_config_unknown_key_exits_2(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "bogus": 1}))
    code = dispatch(
        ["lemmas", "--config", str(config), "--out", str(tmp_path / "r.json")]
    )
    assert code == 2
    assert "bogus" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_data, shown",
    [({"seed": "x"}, '"x"'), ({"trials": None}, "null"), ({"trials": 2.5}, "2.5")],
)
def test_config_bad_value_exits_2_naming_key_and_value(tmp_path, capsys, config_data, shown):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_data))
    out = tmp_path / "r.json"
    code = dispatch(["residual-n3", "--config", str(config), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    (key,) = config_data
    assert f"config key {key!r}: {shown} is not a valid int" in err
    assert not out.exists()


def test_config_path_value_must_be_text(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"n": 3, "trials": 1, "out": 5}))
    assert dispatch(["lemmas", "--config", str(config)]) == 2
    assert "config key 'out': 5 is not text" in capsys.readouterr().err


@pytest.mark.parametrize(
    "config_data",
    [
        {"exponents": ["x", 4]},
        {"exponents": [3.7, 5.2]},
        {"annuli": [[1, "x"], [2, 3]]},
        {"spectrum": [True, 1, 1], "n": 3},
    ],
)
def test_config_bad_list_item_exits_2(tmp_path, capsys, config_data):
    command = (
        "fit"
        if "annuli" in config_data
        else "kelvin-check" if "spectrum" in config_data else "residual-scaling"
    )
    samples = tmp_path / "s.csv"
    samples.write_text("x1,x2,x3,u\n1,0,0,0.5\n")
    config = tmp_path / "config.json"
    config.write_text(json.dumps(config_data))
    argv = [command, "--config", str(config), "--out", str(tmp_path / "r.json")]
    if command == "fit":
        argv += ["--samples", str(samples), "--n", "3"]
    assert dispatch(argv) == 2
    assert "usage error" in capsys.readouterr().err


def test_directory_out_exits_2_before_running(tmp_path, capsys):
    radial = ["radial", "--theta", str(THETA3_FULL), "--u1", "0.5", "--p1", "1.1", "--rmax", "3"]
    for argv in (["lemmas", "--n", "2", "--trials", "1"], radial):
        assert dispatch(argv + ["--out", str(tmp_path)]) == 2
        assert "output path is a directory" in capsys.readouterr().err


def test_unwritable_report_path_exits_2(tmp_path, capsys):
    out = str(tmp_path / "nul\x00byte.json")
    assert dispatch(["lemmas", "--n", "2", "--trials", "1", "--out", out]) == 2
    assert "cannot write report" in capsys.readouterr().err


@pytest.mark.parametrize("command, flag", [("radial", "--out"), ("radial", "--samples-out"), ("fit", "--out")])
def test_unwritable_output_path_exits_2(tmp_path, capsys, command, flag):
    bad = str(tmp_path / "nul\x00byte")
    traj, samples = str(tmp_path / "traj.csv"), str(tmp_path / "samples.csv")
    radial = ["radial", "--theta", repr(THETA3_FULL), "--u1", "0.5", "--p1", "1.0", "--rmax", "60"]
    radial += ["--stride", "500", "--per-radius", "8", "--sample-rmin", "5"]
    radial += ["--out", traj, "--samples-out", samples]
    if command == "fit":
        assert dispatch(radial) == 0
        argv = ["fit", "--samples", samples, "--n", "3", "--num-annuli", "4", "--out", bad]
    else:
        argv = radial + [flag, bad]  # the later flag wins
    assert dispatch(argv) == 2
    assert "cannot write" in capsys.readouterr().err


_FUZZ_VALUES = st.one_of(
    st.integers(-3, 3),
    st.integers(-3, 3).map(str),
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=6),
    st.lists(st.integers(-3, 3), max_size=2),
)


def _fuzz_config(required: tuple[str, ...], optional: tuple[str, ...]):
    """Config objects that always set the keys in ``required``, maybe other
    flags, maybe junk keys."""
    known = st.fixed_dictionaries(
        {key: _FUZZ_VALUES for key in required},
        optional={key: _FUZZ_VALUES for key in optional},
    )
    junk = st.dictionaries(st.text(max_size=5), _FUZZ_VALUES, max_size=2)
    return st.tuples(known, junk).map(lambda pair: {**pair[1], **pair[0]})


def _dispatch_in_scratch_dir(argv: list[str], config_data: dict) -> int:
    """dispatch with the config written to, and relative paths resolved in,
    a fresh directory."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as scratch:
        os.chdir(scratch)
        try:
            with open("config.json", "w", encoding="utf-8") as fh:
                json.dump(config_data, fh)
            return dispatch(argv + ["--config", "config.json"])
        finally:
            os.chdir(cwd)


# lemmas always gets n and trials from the config: the default of 50 trials
# would make each example slow
@settings(max_examples=60, deadline=None)
@given(_fuzz_config(("n", "trials"), ("seed", "out", "config", "tau")))
def test_fuzzed_config_lemmas_exits_cleanly(config_data):
    assert _dispatch_in_scratch_dir(["lemmas"], config_data) in (0, 1, 2)


@settings(max_examples=60, deadline=None)
@given(_fuzz_config(("seed",), ("trials", "out", "n")))
def test_fuzzed_config_residual_n3_exits_cleanly(config_data):
    # the symbolic check itself is replaced by a cheap stand-in: the
    # config boundary is under test
    with mock.patch.object(cli, "linear_part_defect_n3", lambda s: RadPoly.zero(3)):
        assert _dispatch_in_scratch_dir(["residual-n3"], config_data) in (0, 1, 2)


# ── module entry point ───────────────────────────────────────────────────


@pytest.mark.parametrize(
    "argv, named",
    [
        (["expand3", "--p0", "1e300000"], "'1e300000'"),
        (["expand3", "--spectrum", "1,1,1e300000"], "'1e300000'"),
        (["expand3", "--p0", "1" * 5000], "'1111111111"),
    ],
    ids=["p0-exponent", "spectrum-exponent", "p0-digits"],
)
def test_unbounded_rational_exits_2_naming_it(tmp_path, argv, named):
    # a subprocess with a timeout: without the caps the run never ends
    proc = subprocess.run(
        [sys.executable, "-m", "kelvinasym.cli", *argv, "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert "usage error: rational" in proc.stderr and "is too large" in proc.stderr
    assert named in proc.stderr


@pytest.mark.parametrize(
    "argv, named",
    [
        (["lemmas", "--n", "1000"], "at most 20, got 1000"),
        (["poisson", "--n", "1000", "--degree", "0"], "at most 100, got 1000"),
        (["poisson", "--n", "12", "--degree", "12"], "--n 12 --degree 12 solves on 1352078 monomials"),
    ],
    ids=["lemmas-n", "poisson-n", "poisson-monomials"],
)
def test_work_cap_exits_2_naming_the_value(tmp_path, argv, named):
    # a subprocess with a timeout: without the caps these runs take minutes
    # or end in an unrelated error
    proc = subprocess.run(
        [sys.executable, "-m", "kelvinasym.cli", *argv, "--trials", "1", "--out", str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert proc.returncode == 2
    assert named in proc.stderr
    assert not (tmp_path / "r.json").exists()


def test_module_entry_point_usage_error_prints_synopsis():
    proc = subprocess.run(
        [sys.executable, "-m", "kelvinasym.cli", "lemmas", "--n", "1", "--out", "/tmp/r.json"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "usage error" in proc.stderr
