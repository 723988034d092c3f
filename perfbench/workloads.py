"""The benchmark's workloads: fixed sequences of kelvinasym CLI invocations.

Each workload is a list of `Step`s run one fresh process at a time in a
pass directory.  Every step carries a correctness gate that reads the
artefacts the invocation wrote and raises `GateError` when they are
wrong; the gates are independent of the seed.  `size="small"` gives the
reduced workloads the self-test runs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


class GateError(Exception):
    """An invocation's artefacts failed a correctness gate."""


@dataclass(frozen=True)
class Step:
    """One CLI invocation: ``kelvinasym COMMAND ARGS --seed S --out OUT``.

    `check(pass_dir)` validates what the invocation wrote and returns
    extra measurements (for example the fit's slope deviation).
    """

    command: str
    args: tuple[str, ...]
    out: str
    check: Callable[[Path], dict]


def _load_report(path: Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _exact_gate(out: str, checks_run: int | None = None, steps: int | None = None, samples: int | None = None):
    """Gate for a report with ``all_pass``, and the counts its arguments imply."""

    def check(pass_dir: Path) -> dict:
        report = _load_report(pass_dir / out)
        if report.get("all_pass") is not True:
            raise GateError(f"{out}: all_pass is {report.get('all_pass')!r}")
        if checks_run is not None and report.get("checks_run") != checks_run:
            raise GateError(f"{out}: checks_run {report.get('checks_run')!r}, expected {checks_run}")
        if steps is not None and len(report.get("steps", ())) != steps:
            raise GateError(f"{out}: {len(report.get('steps', ()))} recursion steps, expected {steps}")
        if samples is not None and report.get("samples") != samples:
            raise GateError(f"{out}: {report.get('samples')!r} samples audited, expected {samples}")
        return {}

    return check


def _lemma_checks(n: int, trials: int) -> int:
    """How many checks `lemmas` runs: linear coefficients, L32, L33 and L34 per trial."""
    per_trial = n + 5 * (n + 1) + (n + 5 * n if n >= 3 else 0)
    return trials * per_trial


def _csv_rows(path: Path) -> list[list[str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))[1:]


def _radial_gate(out: str, samples_out: str, r_max: float, r_lo: float, per_radius: int):
    """The trajectory ends at r_max and the sample file holds every node from r_lo on."""

    def check(pass_dir: Path) -> dict:
        radii = [float(row[0]) for row in _csv_rows(pass_dir / out)]
        if not radii or abs(radii[-1] - r_max) > 1e-9 * r_max:
            raise GateError(f"{out}: trajectory ends at r = {radii[-1] if radii else None}, expected {r_max}")
        expected = per_radius * sum(1 for r in radii if r_lo <= r <= r_max)
        got = len(_csv_rows(pass_dir / samples_out))
        if got != expected:
            raise GateError(f"{samples_out}: {got} samples, expected {expected}")
        return {}

    return check


def _fit_gate(out: str, n: int):
    """Decay slope within 0.15 of 2 - n, and the fitted A equal to I within 1e-6."""

    def check(pass_dir: Path) -> dict:
        fit = _load_report(pass_dir / out)
        slope_dev = abs(float(fit["decay_slope"]) - (2 - n))
        if not slope_dev < 0.15:
            raise GateError(f"{out}: decay slope {fit['decay_slope']!r} is not within 0.15 of {2 - n}")
        a_dev = max(
            abs(float(value) - (1.0 if i == j else 0.0))
            for i, row in enumerate(fit["A"])
            for j, value in enumerate(row)
        )
        if not a_dev < 1e-6:
            raise GateError(f"{out}: max |A - I| = {a_dev!r}, expected below 1e-6")
        return {"slope_dev": slope_dev}

    return check


def identity_sweep(size: str) -> list[Step]:
    n = 5
    lemma_trials, degree, poisson_trials = (40, 6, 20) if size == "full" else (1, 2, 1)
    return [
        Step(
            "lemmas",
            ("--n", str(n), "--trials", str(lemma_trials)),
            "lemmas.json",
            _exact_gate("lemmas.json", checks_run=_lemma_checks(n, lemma_trials)),
        ),
        Step(
            "poisson",
            ("--n", str(n), "--degree", str(degree), "--trials", str(poisson_trials)),
            "poisson.json",
            _exact_gate("poisson.json", checks_run=(degree + 1) * poisson_trials),
        ),
        Step("residual-scaling", ("--n", str(n)), "scaling.json", _exact_gate("scaling.json")),
    ]


def symbolic_n3(size: str) -> list[Step]:
    trials, order = (5, 12) if size == "full" else (1, 4)
    return [
        Step(
            "residual-n3",
            ("--trials", str(trials)),
            "residual.json",
            _exact_gate("residual.json", checks_run=trials),
        ),
        # The report's closed-form comparison (a known open discrepancy) is
        # deliberately not gated in either direction.
        Step(
            "expand3",
            ("--order", str(order), "--p0", "3/2", "--spectrum", "1,1/2,2"),
            "expand.json",
            _exact_gate("expand.json", steps=order - 2),
        ),
    ]


def exterior_fit(size: str) -> list[Step]:
    n = 3
    r_max, r_lo, per_radius = 2000.0, 20.0, 3
    annuli = "20:35,35:63,63:112,112:201,1500:2000.5"
    # The reduced size keeps the radii and the fit, with 40x fewer RK4 steps.
    step, stride, kelvin_samples = ("1e-3", 1000, 200) if size == "full" else ("4e-2", 25, 20)
    radial_args = (
        "--branch", "slag", "--n", str(n), "--theta", repr(3 * math.pi / 4),
        "--u1", "0.5", "--p1", "1.1", "--rmax", f"{r_max:g}", "--step", step,
        "--stride", str(stride), "--samples-out", "samples.csv", "--per-radius", str(per_radius),
        "--sample-rmin", f"{r_lo:g}", "--sample-rmax", f"{r_max:g}",
    )  # fmt: skip
    return [
        Step(
            "radial",
            radial_args,
            "trajectory.csv",
            _radial_gate("trajectory.csv", "samples.csv", r_max, r_lo, per_radius),
        ),
        Step(
            "fit",
            ("--samples", "samples.csv", "--n", str(n), "--annuli", annuli),
            "fit.json",
            _fit_gate("fit.json", n),
        ),
        Step(
            "kelvin-check",
            ("--branch", "slag", "--n", "4", "--spectrum", "1,1,1,1", "--samples", str(kelvin_samples)),
            "kelvin.json",
            _exact_gate("kelvin.json", samples=kelvin_samples),
        ),
    ]


WORKLOADS = {
    "identity-sweep": identity_sweep,
    "symbolic-n3": symbolic_n3,
    "exterior-fit": exterior_fit,
}
