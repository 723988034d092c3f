"""Command-line experiments over the exact and numerical layers.

Eight subcommands tie the library into reproducible artifact-producing
pipelines:

  lemmas            exact identity sweeps over seeded random spectra
  kelvin-check      finite-difference audit of the transformed Hessian
  poisson           exact radical Poisson solves with residual audit
  residual-n3       three-variable linear-factorization audit
  expand3           correction recursion through a requested order
  radial            exterior trajectory integration to CSV
  fit               quadratic(+log) expansion fit of scattered samples
  residual-scaling  decay order of the non-linear residual part

Conventions shared by every subcommand: all randomness flows from
--seed (default 0), so identical argv produce byte-identical artifacts;
an optional --config JSON supplies values that flags override; exact
numeric inputs accept rationals written as "p/q"; reports are UTF-8
JSON with sorted keys; exit code 0 means success, 1 means a
verification check failed (the report names the first violated check
and its inputs), 2 means a usage error (synopsis goes to stderr).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from . import symfun
from ._branches import DomainError
from .exactalg import (
    MultiPoly,
    RadPoly,
    SolveError,
    solve_radical_poisson,
)
from .equations import (
    linear_part_defect_n3,
    residual_scaling_slopes,
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
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise _UsageError(f"not a rational number: {text!r} ({exc})") from exc


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


def _merge_config(args: argparse.Namespace, defaults: dict, types: dict) -> dict:
    """flags > --config entries > built-in defaults; unknown keys fail, and
    a value must parse with its flag's argparse converter in ``types``."""
    merged = dict(defaults)
    config_path = getattr(args, "config", None)
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
            if name not in defaults:
                raise _UsageError(f"config key {key!r} unknown for this command")
            convert = types.get(name)
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
    for name in defaults:
        flag_value = getattr(args, name, None)
        if flag_value is not None:
            merged[name] = flag_value
    return merged


def _require(merged: dict, *names: str) -> None:
    for name in names:
        if merged.get(name) is None:
            raise _UsageError(f"missing required option --{name.replace('_', '-')}")


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


def _finish(report: dict, out: Path, command: str) -> int:
    try:
        _write_json(out, report)
    except (OSError, ValueError) as exc:
        raise _UsageError(f"cannot write report to {out}: {exc}") from exc
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


def _run_lemmas(merged: dict) -> int:
    n = int(merged["n"])
    if n < 2:
        raise _UsageError("lemmas needs --n of at least 2 (identity hypothesis)")
    trials = int(merged["trials"])
    if trials < 1:
        raise _UsageError("lemmas needs --trials of at least 1")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])

    rng = Random(seed)
    inputs = []
    for trial in range(trials):
        spectrum = symfun.random_spectrum(rng, n)
        matrix = symfun.random_symmetric_matrix(rng, n)
        pairs = [symfun.random_branch_params(rng) for _ in range(5)]
        pairs_nonzero = [
            symfun.random_branch_params(rng, nonzero_b=True) for _ in range(5)
        ]
        inputs.append((trial, spectrum, matrix, pairs, pairs_nonzero))

    def run_one(item):
        trial, spectrum, matrix, pairs, pairs_nonzero = item
        reports = []
        for k in range(1, n + 1):
            rep = symfun.verify_linear_coefficient(k, spectrum, matrix)
            reports.append((rep, {"trial": trial, "k": k, "spectrum": spectrum}))
        if n >= 3:
            for i in range(1, n + 1):
                rep = symfun.verify_identity("L32", spectrum, i=i)
                reports.append((rep, {"trial": trial, "i": i, "spectrum": spectrum}))
        for params in pairs:
            for k in range(0, n + 1):
                rep = symfun.verify_identity("L33", spectrum, p=params, k=k)
                reports.append(
                    (
                        rep,
                        {
                            "trial": trial,
                            "k": k,
                            "a": params.a,
                            "b": params.b,
                            "spectrum": spectrum,
                        },
                    )
                )
        if n >= 3:
            for params in pairs_nonzero:
                for i in range(1, n + 1):
                    rep = symfun.verify_identity("L34", spectrum, p=params, i=i)
                    reports.append(
                        (
                            rep,
                            {
                                "trial": trial,
                                "i": i,
                                "a": params.a,
                                "b": params.b,
                                "spectrum": spectrum,
                            },
                        )
                    )
        return reports

    per_trial = [run_one(item) for item in inputs]
    counts: dict[str, dict[str, int]] = {}
    first_failure = None
    for reports in per_trial:
        for rep, detail in reports:
            bucket = counts.setdefault(rep.lemma, {"checks": 0, "failures": 0})
            bucket["checks"] += 1
            if not rep.equal:
                bucket["failures"] += 1
                if first_failure is None:
                    first_failure = {
                        "check": rep.lemma,
                        "inputs": dict(detail),
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


def _make_branch(merged: dict) -> PhaseBranch:
    kind = str(merged["branch"]).upper()
    theta = float(merged["theta"])
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
    fd_step = float(merged["fd_step"])
    tolerance = float(merged["tolerance"])
    out = _check_out(merged["out"])
    branch = _make_branch(merged)
    spectrum = tuple(float(v) for v in _parse_fraction_list(merged["spectrum"]))
    if len(spectrum) != n:
        raise _UsageError(
            f"--spectrum has {len(spectrum)} entries but --n is {n}"
        )

    rng = Random(seed)
    v = _random_test_poly(rng, n)
    linear = tuple(
        Fraction(rng.randint(-2, 2), rng.randint(1, 4)) for _ in range(n)
    )
    constant = Fraction(rng.randint(-2, 2), rng.randint(1, 4))
    try:
        frame = KelvinFrame(
            branch,
            spectrum,
            linear=tuple(float(x) for x in linear),
            constant=float(constant),
        )
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


def _random_homogeneous(rng: Random, n: int, degree: int) -> MultiPoly:
    def monomials(nv, total):
        if nv == 1:
            yield (total,)
            return
        for head in range(total + 1):
            for rest in monomials(nv - 1, total - head):
                yield (head,) + rest

    terms = {}
    for exponent in monomials(n, degree):
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
    max_degree = int(merged["degree"])
    if max_degree < 0:
        raise _UsageError("poisson needs a nonnegative --degree")
    trials = int(merged["trials"])
    if trials < 1:
        raise _UsageError("poisson needs --trials of at least 1")
    seed = int(merged["seed"])
    out = _check_out(merged["out"])

    rng = Random(seed)
    inputs = []
    for degree in range(0, max_degree + 1):
        for trial in range(trials):
            inputs.append((degree, trial, _random_homogeneous(rng, n, degree)))

    def run_one(item):
        degree, trial, h = item
        try:
            solution = solve_radical_poisson(h, n)
        except SolveError as exc:
            return (degree, trial, h, False, f"solver: {exc}")
        lhs = RadPoly(n, {n - 2: solution.base}).laplacian()
        residual = lhs - RadPoly(n, {n - 4: h})
        return (degree, trial, h, residual.is_zero, "residual not zero")

    results = [run_one(item) for item in inputs]
    first_failure = None
    checks = 0
    for degree, trial, h, ok, note in results:
        checks += 1
        if not ok and first_failure is None:
            first_failure = {
                "check": f"radical Poisson residual (degree {degree})",
                "inputs": {
                    "degree": degree,
                    "trial": trial,
                    "n": n,
                    "h": h,
                    "note": note,
                },
            }
    report = {
        "command": "poisson",
        "n": n,
        "max_degree": max_degree,
        "trials_per_degree": trials,
        "seed": seed,
        "checks_run": checks,
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

    from .equations import symbolic_residual_n3

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
    theta = float(merged["theta"])
    u1 = float(merged["u1"])
    p1 = float(merged["p1"])
    r_max = float(merged["rmax"])
    step = float(merged["step"])
    stride = int(merged["stride"])
    if not r_max > 1.0:
        raise _UsageError(f"--rmax must exceed 1, got {r_max}")
    if not step > 0.0:
        raise _UsageError(f"--step must be positive, got {step}")
    if stride < 1:
        raise _UsageError(f"--stride must be a positive integer, got {stride}")

    samples_out = merged.get("samples_out")
    per_radius = int(merged["per_radius"])
    sample_rmin = merged.get("sample_rmin")
    sample_rmax = merged.get("sample_rmax")
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
            write_trajectory(out, partial)
        print(
            f"radial: FAILED, {exc} "
            f"({len(partial)} nodes written to {out})",
            file=sys.stderr,
        )
        return 1
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc

    write_trajectory(out, states)
    if samples_path is not None:
        samples = trajectory_samples(
            states,
            n,
            per_radius=per_radius,
            seed=seed,
            r_min=None if sample_rmin is None else float(sample_rmin),
            r_max=None if sample_rmax is None else float(sample_rmax),
        )
        write_samples(samples_path, samples)
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

    write_fit(out, fit)
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
    if len(exponents) < 2:
        raise _UsageError("--exponents needs at least two entries")

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


# ── parser assembly and dispatch ─────────────────────────────────────────


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--seed", type=int, default=None, help="random seed (default 0)")
    sub.add_argument("--config", default=None, help="JSON file of flag values (flags override)")
    sub.add_argument("--out", default=None, help="output artifact path")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kelvinasym",
        description="Exact-identity sweeps and exterior-solution experiments.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    sub = commands.add_parser("lemmas", help="exact identity sweeps over random spectra")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=None, help="spectrum size (at least 2)")
    sub.add_argument("--trials", type=int, default=None, help="random spectra per identity")

    sub = commands.add_parser("kelvin-check", help="finite-difference Hessian identity audit")
    _add_common(sub)
    sub.add_argument("--branch", default=None, help="slag, recip, atan2, or log")
    sub.add_argument("--tau", type=float, default=None, help="slope parameter for atan2/log")
    sub.add_argument("--theta", type=float, default=None, help="phase value of the branch")
    sub.add_argument("--n", type=int, default=None, help="dimension")
    sub.add_argument("--spectrum", default=None, help="comma-separated eigenvalues")
    sub.add_argument("--samples", type=int, default=None, help="sample points")
    sub.add_argument("--fd-step", type=float, default=None, help="finite-difference step")
    sub.add_argument("--tolerance", type=float, default=None, help="max relative deviation")

    sub = commands.add_parser("poisson", help="exact radical Poisson solves with audit")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=None, help="number of variables (at least 3)")
    sub.add_argument("--degree", type=int, default=None, help="largest right-hand degree")
    sub.add_argument("--trials", type=int, default=None, help="random solves per degree")

    sub = commands.add_parser("residual-n3", help="three-variable linear factorization audit")
    _add_common(sub)
    sub.add_argument("--trials", type=int, default=None, help="random spectra")

    sub = commands.add_parser("expand3", help="correction recursion through an order")
    _add_common(sub)
    sub.add_argument("--order", type=int, default=None, help="final expansion order")
    sub.add_argument("--p0", default=None, help="leading profile constant, rational p/q")
    sub.add_argument("--spectrum", default=None, help="three comma-separated rationals")

    sub = commands.add_parser("radial", help="integrate an exterior radial trajectory")
    _add_common(sub)
    sub.add_argument("--branch", default=None, help="slag, recip, atan2, or log")
    sub.add_argument("--tau", type=float, default=None, help="slope parameter for atan2/log")
    sub.add_argument("--n", type=int, default=None, help="dimension")
    sub.add_argument("--theta", type=float, default=None, help="phase value")
    sub.add_argument("--u1", type=float, default=None, help="value at r = 1")
    sub.add_argument("--p1", type=float, default=None, help="slope at r = 1")
    sub.add_argument("--rmax", type=float, default=None, help="final radius")
    sub.add_argument("--step", type=float, default=None, help="integration step")
    sub.add_argument("--stride", type=int, default=None, help="output every k-th node")
    sub.add_argument("--samples-out", default=None, help="also scatter samples to this CSV")
    sub.add_argument("--per-radius", type=int, default=None, help="sample directions per node")
    sub.add_argument("--sample-rmin", type=float, default=None, help="sample window lower radius")
    sub.add_argument("--sample-rmax", type=float, default=None, help="sample window upper radius")

    sub = commands.add_parser("fit", help="fit the asymptotic expansion to samples")
    _add_common(sub)
    sub.add_argument("--samples", default=None, help="input samples CSV")
    sub.add_argument("--n", type=int, default=None, help="dimension of the samples")
    sub.add_argument("--annuli", default=None, help="explicit annuli lo:hi,lo:hi,...")
    sub.add_argument("--num-annuli", type=int, default=None, help="geometric annuli count")
    sub.add_argument("--with-log", default=None, help="auto, on, or off")

    sub = commands.add_parser("residual-scaling", help="decay order of the residual tail")
    _add_common(sub)
    sub.add_argument("--n", type=int, default=None, help="dimension (at least 3)")
    sub.add_argument("--exponents", default=None, help="comma-separated dyadic exponents")

    return parser


_DEFAULTS = {
    "lemmas": {"seed": 0, "out": None, "n": None, "trials": 50},
    "kelvin-check": {
        "seed": 0,
        "out": None,
        "branch": "slag",
        "tau": None,
        "theta": 3 * math.pi / 4,
        "n": 3,
        "spectrum": None,
        "samples": 100,
        "fd_step": 1e-4,
        "tolerance": 1e-5,
    },
    "poisson": {"seed": 0, "out": None, "n": 3, "degree": 6, "trials": 20},
    "residual-n3": {"seed": 0, "out": None, "trials": 20},
    "expand3": {
        "seed": 0,
        "out": None,
        "order": 5,
        "p0": "1",
        "spectrum": "1,1,1",
    },
    "radial": {
        "seed": 0,
        "out": None,
        "branch": "slag",
        "tau": None,
        "n": 3,
        "theta": None,
        "u1": None,
        "p1": None,
        "rmax": None,
        "step": 1e-3,
        "stride": 1,
        "samples_out": None,
        "per_radius": 6,
        "sample_rmin": None,
        "sample_rmax": None,
    },
    "fit": {
        "seed": 0,
        "out": None,
        "samples": None,
        "n": None,
        "annuli": None,
        "num_annuli": 6,
        "with_log": "auto",
    },
    "residual-scaling": {
        "seed": 0,
        "out": None,
        "n": 3,
        "exponents": "3,4,5,6,7,8,9,10",
    },
}

_REQUIRED = {
    "lemmas": ("n", "out"),
    "kelvin-check": ("out",),
    "poisson": ("out",),
    "residual-n3": ("out",),
    "expand3": ("out",),
    "radial": ("theta", "u1", "p1", "rmax", "out"),
    "fit": ("samples", "n", "out"),
    "residual-scaling": ("out",),
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


def _flag_types(parser: argparse.ArgumentParser, command: str) -> dict:
    """The argparse converter of each typed flag of one subcommand."""
    (commands,) = [a for a in parser._actions if a.dest == "command"]
    return {a.dest: a.type for a in commands.choices[command]._actions if a.type is not None}


def _default_spectrum_text(merged: dict) -> None:
    if merged.get("spectrum") is None:
        merged["spectrum"] = ",".join(["1"] * int(merged["n"]))


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code (0, 1, or 2)."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return 2 if code is None else int(code)

    command = args.command
    try:
        merged = _merge_config(args, _DEFAULTS[command], _flag_types(parser, command))
        if command == "kelvin-check":
            _default_spectrum_text(merged)
        _require(merged, *_REQUIRED[command])
        return _RUNNERS[command](merged)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        print(f"run `kelvinasym {command} --help` for the synopsis", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
