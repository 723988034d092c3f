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
from random import Random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym import cli, equations, expand, kelvin, radial, symfun
from kelvinasym.cli import dispatch
from kelvinasym.exactalg import MultiPoly, SolveError, solve_radical_poisson
from kelvinasym.expand import read_fit, read_samples
from kelvinasym.radial import MAX_SAMPLE_COORDINATES, MAX_SAMPLES, read_trajectory
from pinned_reports import EXACT_REPORTS, FLOAT_REPORTS, check

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


@pytest.mark.parametrize("argv,digest", list(EXACT_REPORTS.values()), ids=list(EXACT_REPORTS))
def test_exact_report_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "r.json"
    assert dispatch([*argv, "--seed", "1", "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest
    capsys.readouterr()


@pytest.mark.parametrize("setup,argv,digest", list(FLOAT_REPORTS.values()), ids=list(FLOAT_REPORTS))
def test_float_report_bytes_are_pinned(tmp_path, capsys, monkeypatch, setup, argv, digest):
    monkeypatch.chdir(tmp_path)
    for step in setup:
        assert dispatch(step) == 0
    assert dispatch([*argv, "--seed", "1", "--out", "r.out"]) == 0
    assert hashlib.sha256((tmp_path / "r.out").read_bytes()).hexdigest() == digest
    capsys.readouterr()


def test_pin_checker_runs_the_entry_point_and_refuses_a_mismatch():
    # the checker CI runs without pytest: a pinned case passes, and a wrong
    # digest or a refused command line is reported, not passed
    argv, digest = EXACT_REPORTS["lemmas-n2"]
    assert check([], argv, digest) is None
    assert check([], argv, "0" * 64) == f"sha256 {digest}, pinned {'0' * 64}"
    refused = check([], ["lemmas", "--n", "1"], digest)
    assert refused.startswith("lemmas exited 2 with stderr") and "at least 2" in refused


_WITHOUT_NUMPY = """
import hashlib, json, sys
sys.modules["numpy"] = None  # every import of numpy now fails
from kelvinasym.cli import dispatch
cases, out = json.loads(sys.argv[1]), sys.argv[2]
digests = {}
for name, argv in cases.items():
    code = dispatch([*argv, "--seed", "1", "--out", out])
    with open(out, "rb") as fh:
        digests[name] = (code, hashlib.sha256(fh.read()).hexdigest())
print(json.dumps(digests))
"""


def test_exact_subcommands_run_without_numpy(tmp_path):
    # numpy serves only the float routines: importing the CLI leaves it
    # unloaded, and the exact reports come out the same when it cannot load
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, kelvinasym.cli; print('numpy' in sys.modules)"],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout.strip() == "False", proc.stderr
    cases = {name: argv for name, (argv, _) in EXACT_REPORTS.items()}
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_NUMPY, json.dumps(cases), str(tmp_path / "r.json")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    want = {name: [0, digest] for name, (_, digest) in EXACT_REPORTS.items()}
    assert json.loads(proc.stdout.splitlines()[-1]) == want


_ROUTES_WITHOUT_NUMPY = """
import importlib, json, math, pkgutil, sys
if sys.argv[1] == "block":
    sys.modules["numpy"] = None  # every import of numpy now fails
import kelvinasym
for info in pkgutil.iter_modules(kelvinasym.__path__):
    importlib.import_module("kelvinasym." + info.name)
from kelvinasym.equations import algebraic_residual, notheta_residual, transformed_residual
from kelvinasym.exactalg import MultiPoly
from kelvinasym.kelvin import KelvinFrame, PhaseBranch, identity_parts, kelvin_map, poly_jet
theta = 3 * math.pi / 4
branch = PhaseBranch.slag(theta)
H = [[1.5, 0.25, 0.0], [0.25, 1.0, -0.5], [0.0, -0.5, 0.75]]
frame = KelvinFrame(branch, [1.0, 0.5, 2.0])
v = MultiPoly.const(3, 1) + MultiPoly.variable(3, 0) * MultiPoly.variable(3, 1) ** 2
jet = poly_jet(v, [0.3, -0.2, 0.1])
out = [
    algebraic_residual(branch, H, theta),
    notheta_residual(branch, [1.0, 0.5, 2.0], H),
    identity_parts(jet.y, jet.value, jet.grad, jet.hess, sum(c * c for c in jet.y)),
    transformed_residual(jet, frame).total,
    kelvin_map([[[2.0, 0.0, 1.0], [1.0, -1.0, 3.0]], [[0.5, 2.0, -1.0], [3.0, 1.0, 1.0]]], frame.R),
]
assert sys.modules.get("numpy") is None, "numpy was loaded"
print(json.dumps(out))
"""


def test_former_numpy_routes_run_without_numpy():
    # every module imports, and the float routes that once ran on arrays
    # (eigenvalues, jets, the identity's parts, stacked point maps) give
    # the same values when numpy cannot load, without ever loading it
    runs = {}
    for mode in ("block", "allow"):
        proc = subprocess.run(
            [sys.executable, "-c", _ROUTES_WITHOUT_NUMPY, mode],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        runs[mode] = json.loads(proc.stdout.splitlines()[-1])
    assert runs["block"] == runs["allow"]
    residual, eliminated, parts, total, images = runs["block"]
    assert abs(residual) > 1e-3 and abs(eliminated) > 1e-3 and math.isfinite(total)
    assert len(parts) == 2 and [len(row) for row in parts[0]] == [3, 3, 3]
    assert [[len(y) for y in stack] for stack in images] == [[3, 3], [3, 3]]


_FLOAT_WITHOUT_NUMPY = """
import json, sys
sys.modules["numpy"] = None  # every import of numpy now fails
from kelvinasym.cli import dispatch
print(json.dumps([dispatch(argv) for argv in json.loads(sys.argv[1])]))
"""


def test_float_pipeline_runs_without_numpy(tmp_path):
    # radial draws its directions from the standard library, and fit and
    # kelvin-check run on floats alone, so the pipeline writes the same
    # trajectory, samples, fit and report when numpy cannot load
    def pipeline(tag):
        files = [tmp_path / f"{name}-{tag}" for name in ("t.csv", "s.csv", "fit.json", "kelvin.json")]
        radial = ["radial", "--theta", repr(THETA3_FULL), "--u1", "0.5", "--p1", "1.1", "--rmax", "2000"]
        radial += ["--step", "4e-2", "--stride", "25", "--per-radius", "3", "--sample-rmin", "20"]
        radial += ["--sample-rmax", "2000", "--out", str(files[0]), "--samples-out", str(files[1])]
        fit = ["fit", "--samples", str(files[1]), "--n", "3", "--annuli", "20:35,35:63,63:112,112:201,1500:2000.5"]
        kelvin = ["kelvin-check", "--branch", "slag", "--n", "4", "--spectrum", "1,1,1,1", "--samples", "20"]
        argvs = [radial, [*fit, "--out", str(files[2])], [*kelvin, "--out", str(files[3])]]
        return files, [[*argv, "--seed", "1"] for argv in argvs]

    ours, argvs = pipeline("with")
    assert [dispatch(argv) for argv in argvs] == [0, 0, 0]
    theirs, argvs = pipeline("without")
    proc = subprocess.run(
        [sys.executable, "-c", _FLOAT_WITHOUT_NUMPY, json.dumps(argvs)],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0, 0]
    for mine, other in zip(ours, theirs):
        assert mine.read_bytes() == other.read_bytes()
    assert len(ours[1].read_text().splitlines()) == 1 + 3 * 1981


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


@pytest.mark.parametrize("n,samples", [(10**6, 1), (4, kelvin.MAX_FD_WORK // 132 + 1)])
def test_kelvin_check_stencil_cap_exits_2_before_any_work(tmp_path, capsys, n, samples):
    # samples x (2n^2 + 1) x n stencil coordinates are bounded; the refusal
    # comes before the spectrum, the profile or any sample is built
    out = tmp_path / "kc.json"
    argv = ["kelvin-check", "--n", str(n), "--samples", str(samples), "--out", str(out)]
    with mock.patch.object(cli, "_random_test_poly", side_effect=AssertionError("built")):
        assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"--n {n} --samples {samples}: {samples} samples in dimension {n}" in err
    assert f"visit {samples * (2 * n * n + 1) * n} stencil coordinates" in err
    assert f"more than {kelvin.MAX_FD_WORK}" in err
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


def test_poisson_solutions_are_pinned():
    # the poisson report holds no solution, so pin the solutions of the
    # CLI's own draws (n = 5, degrees 0..6, 20 each, seed 1) by digest
    rng = Random(1)
    hasher = hashlib.sha256()
    for degree in range(7):
        for _ in range(20):
            h = cli._random_homogeneous(rng, 5, degree)
            u = solve_radical_poisson(h, 5)
            hasher.update(json.dumps(u.to_json(), sort_keys=True).encode() + b"\n")
    assert hasher.hexdigest() == "b2afaf3c8cab68a68edc63076e409d09da4f7b9c850e034f1f7e1ae64254e1dd"


@pytest.mark.parametrize(
    "n,degree,digest",
    [
        (3, 43, "183c1ce149ce0610c0ca6fbfd31ae3a457db66bbf93f25027835972171babdb7"),
        (20, 4, "12dc6a2aaad93268767ad757ff91aadf2326aca687f23021082ad3b329ba1e1b"),
        (100, 2, "98c88c9a71a5ac61c9be92732119e73f5a1b9ff46bb12009328669c511adb1f1"),
    ],
)
def test_large_poisson_solutions_are_pinned(n, degree, digest):
    # one draw (seed 1) at the largest degree the CLI admits at n = 3, and
    # two denser solves in more variables, where the integer ladder's
    # numerators grow longest and its |y|^2 products widest
    h = cli._random_homogeneous(Random(1), n, degree)
    u = solve_radical_poisson(h, n)
    assert hashlib.sha256(json.dumps(u.to_json(), sort_keys=True).encode()).hexdigest() == digest


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


def _clear_package_caches():
    for name, module in list(sys.modules.items()):
        if name.startswith("kelvinasym."):
            for value in vars(module).values():
                if hasattr(value, "cache_clear"):
                    value.cache_clear()


@pytest.mark.parametrize(
    "argv, check",
    [
        (["residual-n3"], "three-variable linear-part factorization"),
        (["expand3"], "left-over obstruction degree audit"),
    ],
)
def test_a_perturbed_radial_weight_fails_the_exact_audits(tmp_path, capsys, argv, check):
    # fault injection: L + v / 1000 in place of the Hessian identity's L
    # must fail each exact audit, not only the library checks; the caches
    # are cleared so no part built from the true identity is reused
    real = equations.identity_parts

    def perturbed(y, value, grad, hess, ysq):
        K, L = real(y, value, grad, hess, ysq)
        return K, L + Fraction(1, 1000) * value

    out = tmp_path / "r.json"
    _clear_package_caches()
    try:
        with mock.patch.object(equations, "identity_parts", perturbed):
            assert dispatch([*argv, "--out", str(out)]) == 1
    finally:
        _clear_package_caches()
    assert json.loads(out.read_text())["first_failure"]["check"] == check
    assert f"FAILED at {check}" in capsys.readouterr().err
    assert dispatch([*argv, "--out", str(out)]) == 0
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


def test_expand3_fails_a_perturbed_closed_form(tmp_path, capsys):
    # fault injection: the closed form scaled by 1 + 1/1000 must turn the
    # verdict, not only the bytes of the report
    real = cli.leading_correction
    out = tmp_path / "e3.json"
    argv = ["expand3", "--order", "5", "--p0", "3/2", "--spectrum", "1,1/2,2", "--out", str(out)]
    with mock.patch.object(cli, "leading_correction", lambda p0, s: real(p0, s) * Fraction(1001, 1000)):
        assert dispatch(argv) == 1
    report = json.loads(out.read_text())
    assert report["all_pass"] is False
    assert report["first_correction_matches_closed_form"] is False
    assert report["first_failure"]["check"] == "first correction matches the closed form"
    assert "FAILED at first correction matches the closed form" in capsys.readouterr().err
    assert dispatch(argv) == 0
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


@pytest.mark.parametrize(
    "flag, value, shown",
    [
        ("--p0", "12345/2", "'12345/2'"),
        ("--p0", "0.00001", "'0.00001'"),
        ("--spectrum", "1,1/10000,2", "'1/10000'"),
        ("--spectrum", "7" * 1000 + "/3,1/2,2", "'" + "7" * 37 + "...'"),
    ],
)
def test_expand3_refuses_entries_past_the_digit_bound(tmp_path, capsys, flag, value, shown):
    # the recursion's coefficients grow with the inputs' digits, so each
    # entry keeps at most MAX_EXPAND3_DIGITS above and below the bar
    out = tmp_path / "e3.json"
    argv = ["expand3", "--order", "3", flag, value, "--out", str(out)]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"{flag} entry {shown} has more than {cli.MAX_EXPAND3_DIGITS} digits" in err
    assert not out.exists()


def test_expand3_admits_entries_at_the_digit_bound(tmp_path, capsys):
    edge = "9" * cli.MAX_EXPAND3_DIGITS
    out = tmp_path / "e3.json"
    argv = ["expand3", "--order", "3", f"--p0=-{edge}/{edge[:-1]}8", "--spectrum", f"1/{edge},1,{edge}"]
    assert dispatch([*argv, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["spectrum"] == [f"1/{edge}", "1", edge]
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


def test_radial_sample_cap_exits_2_before_integrating(tmp_path, capsys):
    # three nodes, r = 1, 1.5, 2; one sample past the cap is refused
    # before any work, naming the flag and the count
    traj, samples = tmp_path / "t.csv", tmp_path / "s.csv"
    per_radius = MAX_SAMPLES // 3 + 1
    argv = [*_WINDOW_RADIAL, "--rmax", "2", "--step", "0.5", "--per-radius", str(per_radius)]
    argv += ["--samples-out", str(samples), "--out", str(traj)]
    with mock.patch.object(cli, "integrate_exterior", side_effect=AssertionError("integrated")):
        assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"--per-radius {per_radius} over the 3 nodes in the sample window: {3 * per_radius} samples" in err
    assert f"more than {MAX_SAMPLES}" in err
    assert not traj.exists() and not samples.exists()


@pytest.mark.parametrize("per_radius,code", [(4, 0), (5, 2)])
def test_radial_sample_cap_boundary(tmp_path, capsys, monkeypatch, per_radius, code):
    # with the cap lowered to 12, the three nodes of the window take 4
    # samples each but not 5
    monkeypatch.setattr(radial, "MAX_SAMPLES", 12)
    traj, samples = tmp_path / "t.csv", tmp_path / "s.csv"
    argv = [*_WINDOW_RADIAL, "--rmax", "10", "--stride", "100", "--sample-rmin", "2", "--sample-rmax", "4"]
    argv += ["--per-radius", str(per_radius), "--samples-out", str(samples), "--out", str(traj)]
    assert dispatch(argv) == code
    if code == 0:
        assert len(read_samples(samples)) == 12
    else:
        assert "--per-radius 5 over the 3 nodes in the sample window: 15 samples, more than 12" in capsys.readouterr().err
        assert not traj.exists() and not samples.exists()
    capsys.readouterr()


def test_radial_coordinate_cap_exits_2_before_integrating(tmp_path, capsys):
    # samples x n is bounded too: one sample on each of the three nodes, in
    # a dimension one past the cap, is refused before any work
    traj, samples = tmp_path / "t.csv", tmp_path / "s.csv"
    n = MAX_SAMPLE_COORDINATES // 3 + 1
    argv = [*_WINDOW_RADIAL, "--n", str(n), "--rmax", "2", "--step", "0.5", "--per-radius", "1"]
    argv += ["--samples-out", str(samples), "--out", str(traj)]
    with mock.patch.object(cli, "integrate_exterior", side_effect=AssertionError("integrated")):
        assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"--n {n} --per-radius 1 over the 3 nodes in the sample window: 3 samples in dimension {n} hold {3 * n}" in err
    assert f"more than {MAX_SAMPLE_COORDINATES}" in err
    assert not traj.exists() and not samples.exists()


@pytest.mark.parametrize("n,code", [(3, 0), (4, 2)])
def test_radial_coordinate_cap_boundary(tmp_path, capsys, monkeypatch, n, code):
    # with the cap lowered to 36, four samples on each of three nodes fit
    # in three dimensions but not in four
    monkeypatch.setattr(radial, "MAX_SAMPLE_COORDINATES", 36)
    traj, samples = tmp_path / "t.csv", tmp_path / "s.csv"
    argv = [*_WINDOW_RADIAL, "--n", str(n), "--rmax", "10", "--stride", "100", "--sample-rmin", "2"]
    argv += ["--sample-rmax", "4", "--per-radius", "4", "--samples-out", str(samples), "--out", str(traj)]
    assert dispatch(argv) == code
    if code == 0:
        assert len(read_samples(samples)) == 12
    else:
        err = capsys.readouterr().err
        assert "--n 4 --per-radius 4 over the 3 nodes in the sample window: 12 samples in dimension 4 hold 48" in err
        assert not traj.exists() and not samples.exists()
    capsys.readouterr()


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


_WINDOW_RADIAL = ["radial", "--theta", repr(THETA3_FULL), "--u1", "0.5", "--p1", "1.1", "--step", "1e-2"]


@pytest.mark.parametrize(
    "flags,named",
    [
        (["--rmax", "50", "--sample-rmin", "30", "--sample-rmax", "20"], "--sample-rmin 30.0 exceeds --sample-rmax 20.0"),
        (["--rmax", "50", "--sample-rmin", "5000"], "--sample-rmin 5000.0 exceeds --rmax 50.0"),
    ],
)
def test_radial_empty_sample_window_exits_2_before_integrating(tmp_path, capsys, flags, named):
    # both used to integrate, write the trajectory and end in a traceback
    traj, samples = tmp_path / "t.csv", tmp_path / "s.csv"
    argv = [*_WINDOW_RADIAL, *flags, "--samples-out", str(samples), "--out", str(traj)]
    with mock.patch.object(cli, "integrate_exterior", side_effect=AssertionError("integrated")):
        assert dispatch(argv) == 2
    assert named in capsys.readouterr().err
    assert not traj.exists() and not samples.exists()


def test_radial_window_between_nodes_exits_2(tmp_path, capsys):
    # nodes sit at r = 1, 2, ..., 5; the window [2.5, 2.6] holds none of them
    traj, samples = tmp_path / "t.csv", tmp_path / "s.csv"
    argv = [*_WINDOW_RADIAL, "--rmax", "5", "--stride", "100", "--sample-rmin", "2.5", "--sample-rmax", "2.6"]
    assert dispatch([*argv, "--samples-out", str(samples), "--out", str(traj)]) == 2
    err = capsys.readouterr().err
    assert "usage error: --sample-rmin 2.5 --sample-rmax 2.6: no trajectory nodes" in err
    assert not traj.exists() and not samples.exists()


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


def test_fit_dimension_over_the_work_cap_exits_2_before_reading(tmp_path, capsys):
    # 19 dimensions give 210 columns, and even one sample per column is
    # over the cap, so the file is never read
    samples_csv = tmp_path / "s.csv"
    samples_csv.write_text("x1,x2,u\n1.0,2.0,3.0\n")
    out = tmp_path / "f.json"
    with mock.patch.object(cli, "read_samples", side_effect=AssertionError("read")):
        assert dispatch(["fit", "--samples", str(samples_csv), "--n", "19", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "--n 19: a fit in dimension 19 solves for 210 coefficients over 210 samples" in err
    assert f"more than {expand.MAX_FIT_WORK}" in err
    assert not out.exists()


def test_fit_log_column_outside_the_plane_exits_2_before_reading(tmp_path, capsys):
    # the header is malformed too, but the dimension rule is checked first
    samples_csv = tmp_path / "s.csv"
    samples_csv.write_text("a,b,c\n1.0,2.0,3.0\n")
    out = tmp_path / "f.json"
    argv = ["fit", "--samples", str(samples_csv), "--n", "3", "--with-log", "on", "--out", str(out)]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert "--n 3: the logarithmic column exists only in dimension 2" in err
    assert "header" not in err
    assert not out.exists()


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


def _valid(row):
    """A value inside a row's range, on its bound where the bound is
    inclusive (text rows get a word)."""
    _, convert, _, _, *bounds = row
    if convert is int:
        return bounds[0] if bounds else 0
    if convert is float:
        return math.nextafter(bounds[0], math.inf) if bounds else sys.float_info.max
    return "x"


def _range_cases():
    """(command, row, value one step outside the range, value at its edge)."""
    for command, (_, rows) in cli._COMMANDS.items():
        for row in rows:
            _, convert, _, _, *bounds = row
            if convert is float:
                edge = _valid(row)
                yield command, row, bounds[0] if bounds else math.inf, edge
                if not bounds:
                    yield command, row, -math.inf, -edge
            elif convert is int and bounds:
                yield command, row, bounds[0] - 1, bounds[0]
                if len(bounds) > 1:
                    yield command, row, bounds[1] + 1, bounds[1]


_RANGE_CASES = list(_range_cases())


def _required_argv(command: str, skip: str) -> list[str]:
    """Flags with in-range values for every required row of ``command``
    but ``skip``."""
    argv = []
    for row in cli._COMMANDS[command][1]:
        if row[2] is cli._NO_DEFAULT and row[0] != skip:
            argv += [f"--{row[0].replace('_', '-')}", repr(_valid(row))]
    return argv


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize(
    "command,row,outside,edge",
    _RANGE_CASES,
    ids=[f"{c}-{row[0]}-{outside}" for c, row, outside, _ in _RANGE_CASES],
)
def test_each_range_row_refuses_one_step_outside_and_admits_its_edge(
    tmp_path, capsys, source, command, row, outside, edge
):
    name, convert = row[0], row[1]
    flag = "--" + name.replace("_", "-")
    out = tmp_path / "out"
    argv = [command, *_required_argv(command, name), "--out", str(out)]
    if source == "flag":
        argv += [f"{flag}={outside!r}"]
    else:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({name: outside if math.isfinite(outside) else repr(outside)}))
        argv += ["--config", str(config)]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert f"usage error: {flag} must be " in err and f", got {convert(repr(outside))}" in err
    assert not out.exists()

    # the value at the edge of the range passes the merge
    if source == "flag":
        argv[-1] = f"{flag}={edge!r}"
    else:
        config.write_text(json.dumps({name: edge}))
    args = cli._build_parser().parse_args(argv)
    rows = (*cli._COMMANDS[command][1], cli._SEED, cli._OUT)
    assert cli._merge_config(args, rows)[name] == edge


def test_range_rows_cover_every_bounded_flag():
    # every float row is at least finite; these int rows carry bounds
    bounded = {(c, row[0]) for c, row, *_ in _RANGE_CASES}
    assert ("lemmas", "n") in bounded and ("poisson", "n") in bounded
    assert ("radial", "per_radius") in bounded and ("kelvin-check", "fd_step") in bounded
    assert ("fit", "num_annuli") not in bounded  # the fit library checks it
    assert ("expand3", "order", cli.MAX_EXPAND3_ORDER + 1) in {(c, row[0], out) for c, row, out, _ in _RANGE_CASES}


def test_radial_per_radius_is_checked_without_samples_out(tmp_path, capsys):
    # the value used to be ignored when no samples file was asked for
    out = tmp_path / "t.csv"
    argv = ["radial", "--theta", "2.3", "--u1", "0.5", "--p1", "1", "--rmax", "3", "--per-radius", "0"]
    assert dispatch([*argv, "--out", str(out)]) == 2
    assert "--per-radius must be at least 1, got 0" in capsys.readouterr().err
    assert not out.exists()


def test_help_shows_each_range(capsys):
    with pytest.raises(SystemExit):
        cli._build_parser().parse_args(["lemmas", "--help"])
    text = " ".join(capsys.readouterr().out.split())
    assert "spectrum size (at least 2; at most 20; required)" in text
    assert "random spectra per identity (at least 1; default 50)" in text


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
    # (the defect is a polynomial in the 13 jet variables of n = 3)
    with mock.patch.object(cli, "linear_part_defect", lambda s: MultiPoly.zero(13)):
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
