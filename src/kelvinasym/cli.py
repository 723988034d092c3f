"""Command-line experiments over the exact and numerical layers.

Eight subcommands tie the library into reproducible artifact-producing
pipelines:

  lemmas            exact identity sweeps over seeded random spectra
  kelvin-check      finite-difference audit of the transformed Hessian
  poisson           exact radical Poisson solves, each re-verified by
                    the solver's own residual check
  residual-n3       three-variable linear-factorization audit
  expand3           correction recursion through a requested order
  radial            exterior trajectory integration to CSV
  fit               quadratic(+log) expansion fit of scattered samples
  residual-scaling  decay order of the non-linear residual part

Each flag is declared once, as a row of ``_COMMANDS`` (or one of the
shared rows --seed, --config, --out): its argparse type, its default or
that it is required, and its help text, which shows the default.  The
parser and the --config merge both read that table.

Conventions shared by every subcommand: all randomness flows from
--seed (default 0), so identical argv produce byte-identical artifacts;
an optional --config JSON object supplies values that flags override,
keyed by flag name with "-" or "_" and parsed as the flag would parse
them; exact numeric inputs accept rationals written as "p/q"; reports
are UTF-8 JSON with sorted keys; exit code 0 means success, 1 means a
verification check failed (the report names the first violated check
and its inputs), 2 means a usage error, including an output file that
cannot be written (synopsis goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path
from random import Random

from . import symfun
from ._branches import DomainError
from .exactalg import MultiPoly, SolveError, parse_rational, solve_radical_poisson
from .equations import (
    _check_ladder,
    linear_part_defect_n3,
    residual_scaling_slopes,
    symbolic_residual_n3,
)
from .expand import (
    ConditioningError,
    ExpansionState,
    InsufficientDataError,
    fit_expansion,
    leading_correction_Q2,
    next_correction_n3,
    read_samples,
    write_fit,
    write_samples,
)
from .kelvin import (
    AdmissibilityError,
    KelvinFrame,
    PhaseBranch,
    hessian_identity_check,
)
from .radial import integrate_exterior, trajectory_samples, write_trajectory

__all__ = ["dispatch", "main"]


class _UsageError(Exception):
    """Invalid invocation; maps to exit code 2 with synopsis on stderr."""


# ── flag value parsers ───────────────────────────────────────────────────


def _parse_fraction(text) -> Fraction:
    try:
        return parse_rational(str(text).strip())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _parse_fraction_list(text) -> tuple[Fraction, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(_parse_fraction(v) for v in text)
    parts = [p for p in str(text).split(",") if p.strip()]
    if not parts:
        raise _UsageError(f"empty rational list: {text!r}")
    return tuple(_parse_fraction(p) for p in parts)


def _parse_annuli(value) -> list[tuple[float, float]]:
    if isinstance(value, (list, tuple)):
        pairs = []
        for item in value:
            if not isinstance(item, (list, tuple)) or len(item) != 2:
                raise _UsageError(f"annulus entries need two radii, got {item!r}")
            try:
                pairs.append((float(str(item[0])), float(str(item[1]))))
            except ValueError as exc:
                raise _UsageError(f"annulus {item!r} is not numeric: {exc}") from exc
        return pairs
    pairs = []
    for chunk in str(value).split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        lo, sep, hi = chunk.partition(":")
        if not sep:
            raise _UsageError(f"annulus {chunk!r} is not of the form lo:hi")
        try:
            pairs.append((float(lo), float(hi)))
        except ValueError as exc:
            raise _UsageError(f"annulus {chunk!r} is not numeric: {exc}") from exc
    if not pairs:
        raise _UsageError(f"empty annuli list: {value!r}")
    return pairs


def _parse_int_list(value) -> tuple[int, ...]:
    if isinstance(value, (list, tuple)):
        parts = [str(v) for v in value]
    else:
        parts = [p.strip() for p in str(value).split(",") if p.strip()]
    if not parts:
        raise _UsageError(f"empty integer list: {value!r}")
    try:
        return tuple(int(p) for p in parts)
    except ValueError as exc:
        raise _UsageError(f"not an integer list: {value!r} ({exc})") from exc


# ── config merge and path checks ─────────────────────────────────────────


# config values for these untyped flags may also be JSON arrays, which their
# parsers read item by item
_LIST_FLAGS = ("spectrum", "annuli", "exponents")


def _merge_config(args: argparse.Namespace, rows) -> dict:
    """flags > --config entries > the table defaults in ``rows``; unknown
    keys fail, a value must parse with its flag's argparse converter, and
    every flag whose default is ``_NO_DEFAULT`` must end up set."""
    merged = {name: default for name, _, default, _ in rows}
    types = {name: convert for name, convert, _, _ in rows}
    config_path = args.config
    if config_path is not None:
        path = Path(config_path)
        if not path.is_file():
            raise _UsageError(f"config file not found: {config_path}")
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise _UsageError(f"cannot read config {config_path}: {exc}") from exc
        if not isinstance(data, dict):
            raise _UsageError("config must be a JSON object of flag values")
        for key, value in data.items():
            name = key.replace("-", "_")
            if name not in merged:
                raise _UsageError(f"config key {key!r} unknown for this command")
            convert = types[name]
            if convert is not None:
                try:
                    value = convert(str(value))
                except ValueError:
                    raise _UsageError(
                        f"config key {key!r}: {json.dumps(value)} is not a valid {convert.__name__}"
                    ) from None
            elif not (isinstance(value, str) or (name in _LIST_FLAGS and isinstance(value, list))):
                raise _UsageError(f"config key {key!r}: {json.dumps(value)} is not text")
            merged[name] = value
    for name, value in merged.items():
        flag_value = getattr(args, name)
        if flag_value is not None:
            merged[name] = value = flag_value
        if value is _NO_DEFAULT:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")
    return merged


def _check_out(path_text: str) -> Path:
    path = Path(path_text)
    parent = path.parent if str(path.parent) else Path(".")
    if not parent.is_dir():
        raise _UsageError(f"output directory does not exist: {parent}")
    if path.is_dir():
        raise _UsageError(f"output path is a directory: {path}")
    return path


def _check_in(path_text: str) -> Path:
    path = Path(path_text)
    if not path.is_file():
        raise _UsageError(f"input file not found: {path}")
    return path


# ── JSON helpers ─────────────────────────────────────────────────────────


def _jsonable(value):
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)  # "inf" or "nan": JSON has no such numbers
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if hasattr(value, "to_json"):
        return _jsonable(value.to_json())
    return value


def _write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_jsonable(payload), indent=2, sort_keys=True)
    path.write_text(text + "\n", encoding="utf-8")


def _write(what: str, path: Path, writer, payload) -> None:
    """``writer(path, payload)``, with a failed write turned into a usage error."""
    try:
        writer(path, payload)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot write {what} to {path}: {exc}") from exc


def _finish(report: dict, out: Path, command: str) -> int:
    _write("report", out, _write_json, report)
    if report.get("all_pass", True):
        print(f"{command}: all checks passed; report written to {out}")
        return 0
    failure = report.get("first_failure") or {}
    name = failure.get("check", "unnamed check")
    print(
        f"{command}: FAILED at {name}; inputs {json.dumps(_jsonable(failure.get('inputs', {})), sort_keys=True)}; "
        f"report written to {out}",
        file=sys.stderr,
    )
    return 1


# ── subcommand: lemmas ───────────────────────────────────────────────────

# one lemmas trial takes about 2 s at n = 20 and 18 s at n = 40
MAX_LEMMAS_N = 20


def _run_lemmas(merged: dict) -> int:
    n = int(merged["n"])
    if n < 2:
        raise _UsageError("lemmas needs --n of at least 2 (identity hypothesis)")
    if n > MAX_LEMMAS_N:
        raise _UsageError(f"lemmas needs --n of at most {MAX_LEMMAS_N}, got {n}")
    trials = int(merged["trials"])
    if trials < 1:
        raise _UsageError("lemmas needs --trials of at least 1")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])

    rng = Random(seed)
    counts: dict[str, dict[str, int]] = {}
    first_failure = None
    for trial in range(trials):
        spectrum = symfun.random_spectrum(rng, n)
        matrix = symfun.random_symmetric_matrix(rng, n)
        pairs = [symfun.random_branch_params(rng) for _ in range(5)]
        pairs_nonzero = [
            symfun.random_branch_params(rng, nonzero_b=True) for _ in range(5)
        ]
        # one row per verifier call, in check order: its reports run over the
        # index named in the row, from the row's first value
        rows = [("k", 1, {}, symfun.verify_linear_coefficient(spectrum, matrix))]
        if n >= 3:
            rows.append(("i", 1, {}, symfun.verify_identity("L32", spectrum)))
        rows += [("k", 0, {"a": p.a, "b": p.b}, symfun.verify_identity("L33", spectrum, p)) for p in pairs]
        if n >= 3:
            rows += [
                ("i", 1, {"a": p.a, "b": p.b}, symfun.verify_identity("L34", spectrum, p))
                for p in pairs_nonzero
            ]
        for index, first, params, reports in rows:
            for at, rep in enumerate(reports, start=first):
                bucket = counts.setdefault(rep.lemma, {"checks": 0, "failures": 0})
                bucket["checks"] += 1
                if not rep.equal:
                    bucket["failures"] += 1
                    if first_failure is None:
                        first_failure = {
                            "check": rep.lemma,
                            "inputs": {"trial": trial, index: at, **params, "spectrum": spectrum},
                            "lhs": rep.lhs,
                            "rhs": rep.rhs,
                        }

    report = {
        "command": "lemmas",
        "n": n,
        "trials": trials,
        "seed": seed,
        "identities": counts,
        "checks_run": sum(b["checks"] for b in counts.values()),
        "all_pass": first_failure is None,
        "first_failure": first_failure,
    }
    return _finish(report, out, "lemmas")


# ── subcommand: kelvin-check ─────────────────────────────────────────────


def _random_test_poly(rng: Random, n: int, max_degree: int = 3, terms: int = 6) -> MultiPoly:
    """Deterministic small rational polynomial for identity audits."""
    poly = MultiPoly.zero(n)
    for _ in range(terms):
        degree = rng.randint(0, max_degree)
        exponent = [0] * n
        for _ in range(degree):
            exponent[rng.randrange(n)] += 1
        coeff = Fraction(rng.randint(-3, 3), rng.randint(1, 4))
        poly = poly + MultiPoly(n, {tuple(exponent): coeff})
    return poly


def _finite(flag: str, value: float, positive: bool = False) -> float:
    """``value`` if it is finite (and positive when asked), else a usage
    error naming the flag and the value."""
    if not math.isfinite(value) or (positive and not value > 0.0):
        kind = "positive and finite" if positive else "finite"
        raise _UsageError(f"--{flag} must be {kind}, got {value}")
    return value


def _make_branch(merged: dict) -> PhaseBranch:
    kind = str(merged["branch"]).upper()
    theta = _finite("theta", float(merged["theta"]))
    tau = merged.get("tau")
    try:
        return PhaseBranch.make(kind, theta, None if tau is None else float(tau))
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _run_kelvin_check(merged: dict) -> int:
    n = int(merged["n"])
    if n < 2:
        raise _UsageError("kelvin-check needs --n of at least 2")
    seed = int(merged["seed"])
    samples = int(merged["samples"])
    if samples < 1:
        raise _UsageError(f"--samples must be at least 1, got {samples}")
    fd_step = _finite("fd-step", float(merged["fd_step"]), positive=True)
    tolerance = _finite("tolerance", float(merged["tolerance"]), positive=True)
    out = _check_out(merged["out"])
    branch = _make_branch(merged)
    spectrum_text = merged["spectrum"]
    if spectrum_text is None:
        spectrum_text = ",".join(["1"] * n)
    exact_spectrum = _parse_fraction_list(spectrum_text)
    if len(exact_spectrum) != n:
        raise _UsageError(
            f"--spectrum has {len(exact_spectrum)} entries but --n is {n}"
        )

    rng = Random(seed)
    v = _random_test_poly(rng, n)
    linear = tuple(
        Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n)
    )
    constant = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
    try:
        spectrum = tuple(float(v) for v in exact_spectrum)
        frame = KelvinFrame(
            branch,
            spectrum,
            linear=tuple(float(x) for x in linear),
            constant=float(constant),
        )
    except OverflowError as exc:
        raise _UsageError(f"--spectrum {spectrum_text} does not fit in floats: {exc}") from exc
    except (AdmissibilityError, ValueError) as exc:
        raise _UsageError(str(exc)) from exc

    result = hessian_identity_check(
        frame, v, samples=samples, fd_step=fd_step, seed=seed
    )
    passed = result.max_rel_deviation < tolerance
    report = {
        "command": "kelvin-check",
        "branch": branch.to_json(),
        "n": n,
        "seed": seed,
        "spectrum": list(spectrum),
        "samples": result.samples,
        "fd_step": result.fd_step,
        "max_abs_deviation": result.max_abs_deviation,
        "max_rel_deviation": result.max_rel_deviation,
        "tolerance": tolerance,
        "all_pass": passed,
        "first_failure": None
        if passed
        else {
            "check": "hessian-identity relative deviation",
            "inputs": {
                "branch": branch.kind,
                "n": n,
                "seed": seed,
                "max_rel_deviation": result.max_rel_deviation,
                "tolerance": tolerance,
            },
        },
    }
    return _finish(report, out, "kelvin-check")


# ── subcommand: poisson ──────────────────────────────────────────────────

# Each solve runs the Laplacian ladder and re-verifies its solution exactly.
# At about 1000 monomials of the top degree one trial per degree takes 1.4 s
# at n = 3 (degree 43) and 0.3 s at n = 44 (degree 2), start-up included, on
# 2 CPUs.  Every solve also builds |y|^2, n terms of n entries each, so the
# cost grows with n even at degree 1: 0.003 s per solve in 100 variables and
# 0.26 s in 1000.  So n itself is bounded too.
MAX_POISSON_MONOMIALS = 1000
MAX_POISSON_N = 100


def _random_homogeneous(rng: Random, n: int, degree: int) -> MultiPoly:
    # every exponent tuple of the degree, sorted so the draws below keep a
    # fixed monomial order
    exponents = sorted(
        tuple(picks.count(i) for i in range(n))
        for picks in combinations_with_replacement(range(n), degree)
    )
    terms = {}
    for exponent in exponents:
        if rng.random() < 0.5:
            continue
        terms[exponent] = Fraction(rng.randint(-4, 4), rng.randint(1, 5))
    if not terms:
        exponent = tuple(degree if i == 0 else 0 for i in range(n))
        terms[exponent] = Fraction(1)
    return MultiPoly(n, terms)


def _run_poisson(merged: dict) -> int:
    n = int(merged["n"])
    if n < 3:
        raise _UsageError("poisson needs --n of at least 3")
    if n > MAX_POISSON_N:
        raise _UsageError(f"poisson needs --n of at most {MAX_POISSON_N}, got {n}")
    max_degree = int(merged["degree"])
    if max_degree < 0:
        raise _UsageError("poisson needs a nonnegative --degree")
    top_monomials = math.comb(max_degree + n - 1, n - 1)
    if top_monomials > MAX_POISSON_MONOMIALS:
        raise _UsageError(
            f"poisson --n {n} --degree {max_degree} solves on {top_monomials} monomials "
            f"of the top degree, more than {MAX_POISSON_MONOMIALS}"
        )
    trials = int(merged["trials"])
    if trials < 1:
        raise _UsageError("poisson needs --trials of at least 1")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])

    rng = Random(seed)
    first_failure = None
    for degree in range(0, max_degree + 1):
        for trial in range(trials):
            h = _random_homogeneous(rng, n, degree)
            # the solver re-verifies its solution in radical-polynomial form
            # and raises SolveError when the residual is not zero
            try:
                solve_radical_poisson(h, n)
            except SolveError as exc:
                if first_failure is None:
                    first_failure = {
                        "check": f"radical Poisson residual (degree {degree})",
                        "inputs": {
                            "degree": degree,
                            "trial": trial,
                            "n": n,
                            "h": h,
                            "note": f"solver: {exc}",
                        },
                    }
    report = {
        "command": "poisson",
        "n": n,
        "max_degree": max_degree,
        "trials_per_degree": trials,
        "seed": seed,
        "checks_run": (max_degree + 1) * trials,
        "all_pass": first_failure is None,
        "first_failure": first_failure,
    }
    return _finish(report, out, "poisson")


# ── subcommand: residual-n3 ──────────────────────────────────────────────


def _run_residual_n3(merged: dict) -> int:
    trials = int(merged["trials"])
    if trials < 1:
        raise _UsageError("residual-n3 needs --trials of at least 1")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])

    rng = Random(seed)
    spectra = [symfun.random_spectrum(rng, 3) for _ in range(trials)]
    first_failure = None
    for trial, spectrum in enumerate(spectra):
        defect = linear_part_defect_n3(spectrum)
        if not defect.is_zero and first_failure is None:
            first_failure = {
                "check": "three-variable linear-part factorization",
                "inputs": {"trial": trial, "spectrum": spectrum},
            }
    report = {
        "command": "residual-n3",
        "trials": trials,
        "seed": seed,
        "checks_run": trials,
        "all_pass": first_failure is None,
        "first_failure": first_failure,
    }
    return _finish(report, out, "residual-n3")


# ── subcommand: expand3 ──────────────────────────────────────────────────


def _run_expand3(merged: dict) -> int:
    order = int(merged["order"])
    if order < 3:
        raise _UsageError("expand3 needs --order of at least 3")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])
    p0 = _parse_fraction(merged["p0"])
    spectrum = _parse_fraction_list(merged["spectrum"])
    if len(spectrum) != 3:
        raise _UsageError("expand3 works in three variables; --spectrum needs 3 entries")

    state = ExpansionState(
        n=3,
        spectrum=spectrum,
        P=MultiPoly.const(3, p0),
        Q=MultiPoly.zero(3),
        order=2,
    )
    steps = []
    first_state = None
    while state.order < order:
        state = next_correction_n3(state)
        if first_state is None:
            first_state = state
        degrees = sorted(
            comp_degree for comp_degree in state.Q.homogeneous_components()
        )
        steps.append({"order": state.order, "q_component_degrees": degrees})

    sector = symbolic_residual_n3(state.P, state.Q, state.spectrum).collect_odd(-1)
    leftover_degrees = sorted(sector.homogeneous_components())
    audit_pass = all(d > order - 1 for d in leftover_degrees)

    closed_form = leading_correction_Q2(p0, spectrum)
    first_q = first_state.Q if first_state is not None else MultiPoly.zero(3)
    difference = closed_form.base - first_q
    report = {
        "command": "expand3",
        "order": order,
        "seed": seed,
        "p0": p0,
        "spectrum": list(spectrum),
        "steps": steps,
        "residual_odd_sector_degrees": leftover_degrees,
        "audit_threshold": order - 1,
        "first_correction": first_q,
        "closed_form_leading_correction": closed_form.base,
        "first_correction_matches_closed_form": difference.is_zero,
        "closed_form_minus_first_correction": difference,
        "all_pass": audit_pass,
        "first_failure": None
        if audit_pass
        else {
            "check": "left-over obstruction degree audit",
            "inputs": {
                "order": order,
                "degrees_at_or_below_threshold": [
                    d for d in leftover_degrees if d <= order - 1
                ],
            },
        },
    }
    return _finish(report, out, "expand3")


# ── subcommand: radial ───────────────────────────────────────────────────


def _run_radial(merged: dict) -> int:
    n = int(merged["n"])
    if n < 2:
        raise _UsageError("radial needs --n of at least 2")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])
    branch = _make_branch(merged)
    theta = branch.theta
    u1 = _finite("u1", float(merged["u1"]))
    p1 = _finite("p1", float(merged["p1"]))
    r_max = float(merged["rmax"])
    stride = int(merged["stride"])
    if not r_max > 1.0:
        raise _UsageError(f"--rmax must exceed 1, got {r_max}")
    step = _finite("step", float(merged["step"]), positive=True)
    if stride < 1:
        raise _UsageError(f"--stride must be a positive integer, got {stride}")

    samples_out = merged.get("samples_out")
    per_radius = int(merged["per_radius"])
    sample_rmin, sample_rmax = (
        None if merged.get(key) is None else _finite(flag, float(merged[key]))
        for key, flag in (("sample_rmin", "sample-rmin"), ("sample_rmax", "sample-rmax"))
    )
    samples_path = None
    if samples_out is not None:
        samples_path = _check_out(samples_out)
        if per_radius < 1:
            raise _UsageError("--per-radius must be a positive integer")

    try:
        states = integrate_exterior(branch, n, theta, u1, p1, r_max, step, stride)
    except DomainError as exc:
        partial = exc.trajectory or []
        if partial:
            _write("partial trajectory", out, write_trajectory, partial)
        print(
            f"radial: FAILED, {exc} "
            f"({len(partial)} nodes written to {out})",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    _write("trajectory", out, write_trajectory, states)
    if samples_path is not None:
        samples = trajectory_samples(
            states,
            n,
            per_radius=per_radius,
            seed=seed,
            r_min=sample_rmin,
            r_max=sample_rmax,
        )
        _write("samples", samples_path, write_samples, samples)
    max_error = max(s.error for s in states)
    print(
        f"radial: {len(states)} nodes to r = {states[-1].r:g}, "
        f"max error estimate {max_error:.3e}; trajectory written to {out}"
    )
    return 0


# ── subcommand: fit ──────────────────────────────────────────────────────


def _run_fit(merged: dict) -> int:
    n = int(merged["n"])
    if n < 2:
        raise _UsageError("fit needs --n of at least 2")
    out = _check_out(merged["out"])
    samples_path = _check_in(merged["samples"])
    with_log_text = str(merged["with_log"]).lower()
    if with_log_text not in ("auto", "on", "off"):
        raise _UsageError("--with-log must be auto, on, or off")
    with_log = None if with_log_text == "auto" else (with_log_text == "on")
    annuli = merged.get("annuli")
    if annuli is not None:
        annuli = _parse_annuli(annuli)
    num_annuli = int(merged["num_annuli"])

    try:
        samples = read_samples(samples_path)
    except ValueError as exc:
        raise _UsageError(f"cannot read samples: {exc}") from exc
    try:
        fit = fit_expansion(
            samples, n, num_annuli=num_annuli, annuli=annuli, with_log=with_log
        )
    except (InsufficientDataError, ConditioningError) as exc:
        print(
            f"fit: FAILED at sample adequacy ({type(exc).__name__}): {exc}; "
            f"inputs: samples={samples_path}, n={n}",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    _write("fit", out, write_fit, fit)
    print(
        f"fit: decay slope {fit.decay_slope:.4f} "
        f"(stderr {fit.decay_slope_stderr:.4f}); fit written to {out}"
    )
    return 0


# ── subcommand: residual-scaling ─────────────────────────────────────────


def _run_residual_scaling(merged: dict) -> int:
    n = int(merged["n"])
    if n < 3:
        raise _UsageError("residual-scaling needs --n of at least 3")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])
    exponents = _parse_int_list(merged["exponents"])
    try:
        _check_ladder(n, exponents)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    data = residual_scaling_slopes(n, seed=seed, exponents=exponents)
    threshold = n - 2 - 0.1
    passed = data["slope"] >= threshold
    report = dict(data)
    report.update(
        {
            "command": "residual-scaling",
            "threshold": threshold,
            "all_pass": passed,
            "first_failure": None
            if passed
            else {
                "check": "non-linear residual decay order",
                "inputs": {
                    "n": n,
                    "seed": seed,
                    "slope": data["slope"],
                    "threshold": threshold,
                },
            },
        }
    )
    return _finish(report, out, "residual-scaling")


# ── flag tables, parser assembly and dispatch ────────────────────────────

# Each flag is one row (name, argparse type or None for text, default, help).
# The name is the config key and, with "_" written as "-", the flag.  A row
# whose default is _NO_DEFAULT is a flag that must be given.
_NO_DEFAULT = object()

_SEED = ("seed", int, 0, "random seed")
_CONFIG = ("config", None, None, "JSON file of flag values (flags override)")
_OUT = ("out", None, _NO_DEFAULT, "output artifact path")
_BRANCH = ("branch", None, "slag", "slag, recip, atan2, or log")
_TAU = ("tau", float, None, "slope parameter for atan2/log")

# subcommand -> (summary, its own flags); every subcommand also takes
# --seed, --config and --out
_COMMANDS = {
    "lemmas": (
        "exact identity sweeps over random spectra",
        (
            ("n", int, _NO_DEFAULT, "spectrum size (at least 2)"),
            ("trials", int, 50, "random spectra per identity"),
        ),
    ),
    "kelvin-check": (
        "finite-difference Hessian identity audit",
        (
            _BRANCH,
            _TAU,
            ("theta", float, 3 * math.pi / 4, "phase value of the branch"),
            ("n", int, 3, "dimension"),
            ("spectrum", None, None, "comma-separated eigenvalues (default all ones)"),
            ("samples", int, 100, "sample points"),
            ("fd_step", float, 1e-4, "finite-difference step"),
            ("tolerance", float, 1e-5, "max relative deviation"),
        ),
    ),
    "poisson": (
        "exact radical Poisson solves with audit",
        (
            ("n", int, 3, "number of variables (at least 3)"),
            ("degree", int, 6, "largest right-hand degree"),
            ("trials", int, 20, "random solves per degree"),
        ),
    ),
    "residual-n3": (
        "three-variable linear factorization audit",
        (("trials", int, 20, "random spectra"),),
    ),
    "expand3": (
        "correction recursion through an order",
        (
            ("order", int, 5, "final expansion order"),
            ("p0", None, "1", "leading profile constant, rational p/q"),
            ("spectrum", None, "1,1,1", "three comma-separated rationals"),
        ),
    ),
    "radial": (
        "integrate an exterior radial trajectory",
        (
            _BRANCH,
            _TAU,
            ("n", int, 3, "dimension"),
            ("theta", float, _NO_DEFAULT, "phase value"),
            ("u1", float, _NO_DEFAULT, "value at r = 1"),
            ("p1", float, _NO_DEFAULT, "slope at r = 1"),
            ("rmax", float, _NO_DEFAULT, "final radius"),
            ("step", float, 1e-3, "integration step"),
            ("stride", int, 1, "output every k-th node"),
            ("samples_out", None, None, "also scatter samples to this CSV"),
            ("per_radius", int, 6, "sample directions per node"),
            ("sample_rmin", float, None, "sample window lower radius"),
            ("sample_rmax", float, None, "sample window upper radius"),
        ),
    ),
    "fit": (
        "fit the asymptotic expansion to samples",
        (
            ("samples", None, _NO_DEFAULT, "input samples CSV"),
            ("n", int, _NO_DEFAULT, "dimension of the samples"),
            ("annuli", None, None, "explicit annuli lo:hi,lo:hi,..."),
            ("num_annuli", int, 6, "geometric annuli count"),
            ("with_log", None, "auto", "auto, on, or off"),
        ),
    ),
    "residual-scaling": (
        "decay order of the residual tail",
        (
            ("n", int, 3, "dimension (at least 3)"),
            ("exponents", None, "3,4,5,6,7,8,9,10", "comma-separated dyadic exponents"),
        ),
    ),
}

_RUNNERS = {
    "lemmas": _run_lemmas,
    "kelvin-check": _run_kelvin_check,
    "poisson": _run_poisson,
    "residual-n3": _run_residual_n3,
    "expand3": _run_expand3,
    "radial": _run_radial,
    "fit": _run_fit,
    "residual-scaling": _run_residual_scaling,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kelvinasym",
        description="Exact-identity sweeps and exterior-solution experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)
    for command, (summary, rows) in _COMMANDS.items():
        sub = commands.add_parser(command, help=summary)
        # argparse keeps None as every default, so that _merge_config can
        # tell a flag that was given from one that was not
        for name, convert, default, text in (_SEED, _CONFIG, _OUT, *rows):
            if default is _NO_DEFAULT:
                text += " (required)"
            elif default is not None:
                text += f" (default {default})"
            sub.add_argument("--" + name.replace("_", "-"), type=convert, help=text)
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code (0, 1, or 2)."""
    # One OpenBLAS thread unless the caller chose otherwise.  numpy loads
    # lazily, after this line, and reads the variable when it loads.  The
    # largest BLAS call of any subcommand is fit's SVD-based lstsq on an
    # N x 10 design, N the samples in the outermost annulus (1501 in the
    # benchmark's fit).  Measured on 2 cores with OpenBLAS 0.3.31,
    # threaded -> one thread: `import numpy` 150-170 -> 80-100 ms, and the
    # first lstsq on a 1501 x 10 design in a fresh process 28-36 -> 0.3-0.5
    # ms.  Warm medians of lstsq: 1.5 -> 1.6 ms at N = 12,000, 21 -> 20 ms
    # at 120,000; threads win only near 1.2M rows (351 -> 377 ms), a
    # 96 MB design from a samples file of about 5M rows.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)

    command = args.command
    try:
        merged = _merge_config(args, (*_COMMANDS[command][1], _SEED, _OUT))
        return _RUNNERS[command](merged)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run `kelvinasym {command} --help` for the synopsis", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
