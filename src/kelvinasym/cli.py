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
that it is required, its help text, and its accepted range.  An int row
may end with an inclusive lower bound and an inclusive upper bound after
it; a float must be finite, and its row may end with an exclusive lower
bound (0 means positive).  The parser and the --config merge both read
that table: --help shows each range and default, and the merge refuses a
value outside its range, whether it came from a flag, from --config or
from the table.

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
import sys
from fractions import Fraction
from pathlib import Path
from random import Random

from . import exactalg, symfun
from .exactalg import MultiPoly, SolveError, parse_rational, solve_radical_poisson
from .equations import linear_part_defect, residual_scaling_slopes
from .expand import (
    ConditioningError,
    ExpansionState,
    InsufficientDataError,
    check_fit_work,
    correct_through,
    fit_expansion,
    leading_correction,
    read_samples,
    write_fit,
    write_samples,
)
from .kelvin import (
    AdmissibilityError,
    DomainError,
    KelvinFrame,
    PhaseBranch,
    check_fd_work,
    hessian_identity_check,
)
from .radial import (
    check_sample_work,
    count_nodes,
    integrate_exterior,
    trajectory_samples,
    write_trajectory,
)

__all__ = ["dispatch", "main"]


class _UsageError(Exception):
    """Invalid invocation; maps to exit code 2 with synopsis on stderr."""


# ── flag value parsers ───────────────────────────────────────────────────


def _parse_fraction(text) -> Fraction:
    try:
        return parse_rational(str(text).strip())
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _split_list(value, what: str) -> list:
    """The items of a JSON array, or of comma-separated text without its
    blank items; a usage error when there are none."""
    if isinstance(value, (list, tuple)):
        items = list(value)
    else:
        items = [p.strip() for p in str(value).split(",") if p.strip()]
    if not items:
        raise _UsageError(f"empty {what} list: {value!r}")
    return items


def _parse_fraction_list(value) -> tuple[Fraction, ...]:
    return tuple(_parse_fraction(v) for v in _split_list(value, "rational"))


def _parse_annuli(value) -> list[tuple[float, float]]:
    pairs, text = [], not isinstance(value, (list, tuple))
    for item in _split_list(value, "annuli"):
        pair = item.split(":") if text else item
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise _UsageError(f"annulus {item!r} is not of the form lo:hi")
        try:
            pairs.append((float(str(pair[0])), float(str(pair[1]))))
        except ValueError as exc:
            raise _UsageError(f"annulus {item!r} is not numeric: {exc}") from exc
    return pairs


def _parse_int_list(value) -> tuple[int, ...]:
    try:
        return tuple(int(str(p)) for p in _split_list(value, "integer"))
    except ValueError as exc:
        raise _UsageError(f"not an integer list: {value!r} ({exc})") from exc


# ── config merge and path checks ─────────────────────────────────────────


# config values for these untyped flags may also be JSON arrays, which their
# parsers read item by item
_LIST_FLAGS = ("spectrum", "annuli", "exponents")


def _merge_config(args: argparse.Namespace, rows) -> dict:
    """flags > --config entries > the table defaults in ``rows``; unknown
    keys fail, a value must parse with its flag's argparse converter and
    lie in its row's range, and every flag whose default is
    ``_NO_DEFAULT`` must end up set."""
    merged = {name: default for name, _, default, *_ in rows}
    types = {name: convert for name, convert, *_ in rows}
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
    for name, convert, _, _, *bounds in rows:
        value = merged[name]
        for phrase, admits in _range(convert, bounds):
            if value is not None and not admits(value):
                raise _UsageError(f"--{name.replace('_', '-')} must be {phrase}, got {value}")
    return merged


def _range(convert, bounds) -> list[tuple]:
    """A row's range as (phrase, test) pairs: a value must pass every test,
    and each phrase, read after "must be", says what its test asks."""
    if convert is float:
        if not bounds:
            return [("finite", math.isfinite)]
        lo = bounds[0]
        phrase = "positive and finite" if lo == 0 else f"finite and greater than {lo}"
        return [(phrase, lambda v: math.isfinite(v) and v > lo)]
    pairs = []
    if bounds:
        pairs.append((f"at least {bounds[0]}", lambda v: v >= bounds[0]))
    if len(bounds) > 1:
        pairs.append((f"at most {bounds[1]}", lambda v: v <= bounds[1]))
    return pairs


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
    # before the tuple test: a record is a named tuple with its own form
    if hasattr(value, "to_json"):
        return _jsonable(value.to_json())
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
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


def _finish(command: str, out: Path, report: dict, failure: dict | None) -> int:
    """Write ``report`` to ``out`` with its verdict: the command, all_pass,
    and first_failure, the first failed check and its inputs or None.
    Returns the exit code, 1 with the failure on stderr when a check
    failed."""
    report.update(command=command, all_pass=failure is None, first_failure=failure)
    _write("report", out, _write_json, report)
    if failure is None:
        print(f"{command}: all checks passed; report written to {out}")
        return 0
    inputs = json.dumps(_jsonable(failure["inputs"]), sort_keys=True)
    print(f"{command}: FAILED at {failure['check']}; inputs {inputs}; report written to {out}", file=sys.stderr)
    return 1


# ── subcommand: lemmas ───────────────────────────────────────────────────

# one lemmas trial takes about 0.05 s at n = 20 and 0.6 s at n = 40 (2 CPUs)
MAX_LEMMAS_N = 20


def _run_lemmas(merged: dict) -> int:
    n, trials, seed = merged["n"], merged["trials"], merged["seed"]
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
        "n": n,
        "trials": trials,
        "seed": seed,
        "identities": counts,
        "checks_run": sum(b["checks"] for b in counts.values()),
    }
    return _finish("lemmas", out, report, first_failure)


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
    try:
        return PhaseBranch.make(str(merged["branch"]).upper(), merged["theta"], merged["tau"])
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _run_kelvin_check(merged: dict) -> int:
    n, seed, tolerance = merged["n"], merged["seed"], merged["tolerance"]
    try:
        check_fd_work(n, merged["samples"])
    except ValueError as exc:
        raise _UsageError(f"--n {n} --samples {merged['samples']}: {exc}") from exc
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
        frame, v, samples=merged["samples"], fd_step=merged["fd_step"], seed=seed
    )
    failure = None
    if not result.max_rel_deviation < tolerance:
        failure = {
            "check": "hessian-identity relative deviation",
            "inputs": {
                "branch": branch.kind,
                "n": n,
                "seed": seed,
                "max_rel_deviation": result.max_rel_deviation,
                "tolerance": tolerance,
            },
        }
    report = {
        "branch": branch.to_json(),
        "n": n,
        "seed": seed,
        "spectrum": list(spectrum),
        "samples": result.samples,
        "fd_step": result.fd_step,
        "max_abs_deviation": result.max_abs_deviation,
        "max_rel_deviation": result.max_rel_deviation,
        "tolerance": tolerance,
    }
    return _finish("kelvin-check", out, report, failure)


# ── subcommand: poisson ──────────────────────────────────────────────────

# Each solve runs the Laplacian ladder and re-verifies its solution exactly.
# At about 1000 monomials of the top degree one trial per degree takes 0.21 s
# at n = 3 (degree 43) and 0.09 s at n = 44 (degree 2), start-up included, on
# 2 CPUs.  Every exponent has n entries, so each draw, solve and check costs
# at least n per term even at degree 1: 0.3 ms per solve in 100 variables
# and 22 ms in 1000.  So n itself is bounded too.
MAX_POISSON_MONOMIALS = 1000
MAX_POISSON_N = 100


def _random_homogeneous(rng: Random, n: int, degree: int) -> MultiPoly:
    """About half the monomials of the degree, each with a coefficient p/q
    for p in -4..4 and q in 1..5, drawn in that order; y1^degree when no
    monomial is drawn (a draw whose every p is 0 gives the zero polynomial)."""
    # p/q as the numerator p (60/q) over 60 = lcm(1, ..., 5)
    terms = {}
    for exponent in exactalg._basis(n, degree)[0]:
        if rng.random() < 0.5:
            continue
        terms[exponent] = rng.randint(-4, 4) * (60 // rng.randint(1, 5))
    if not terms:
        terms[(degree,) + (0,) * (n - 1)] = 60
    return MultiPoly._make(n, terms, 60)


def _run_poisson(merged: dict) -> int:
    n, max_degree, trials, seed = merged["n"], merged["degree"], merged["trials"], merged["seed"]
    top_monomials = math.comb(max_degree + n - 1, n - 1)
    if top_monomials > MAX_POISSON_MONOMIALS:
        raise _UsageError(
            f"poisson --n {n} --degree {max_degree} solves on {top_monomials} monomials "
            f"of the top degree, more than {MAX_POISSON_MONOMIALS}"
        )
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
        "n": n,
        "max_degree": max_degree,
        "trials_per_degree": trials,
        "seed": seed,
        "checks_run": (max_degree + 1) * trials,
    }
    return _finish("poisson", out, report, first_failure)


# ── subcommand: residual-n3 ──────────────────────────────────────────────


def _run_residual_n3(merged: dict) -> int:
    trials, seed = merged["trials"], merged["seed"]
    out = _check_out(merged["out"])

    rng = Random(seed)
    spectra = [symfun.random_spectrum(rng, 3) for _ in range(trials)]
    first_failure = None
    for trial, spectrum in enumerate(spectra):
        defect = linear_part_defect(spectrum)
        if not defect.is_zero and first_failure is None:
            first_failure = {
                "check": "three-variable linear-part factorization",
                "inputs": {"trial": trial, "spectrum": spectrum},
            }
    report = {"trials": trials, "seed": seed, "checks_run": trials}
    return _finish("residual-n3", out, report, first_failure)


# ── subcommand: expand3 ──────────────────────────────────────────────────

# The recursion's residual grows quickly with the order: with --p0 3/2
# --spectrum 1,1/2,2 a run takes 0.07-0.08 s at order 12, 0.24 s at 24,
# 0.56-0.86 s at 28, 0.57-0.68 s at 32 and 1.3-1.6 s at 36, start-up and
# the final whole-residual audit included, on 2 shared CPUs; at 36 the
# audit takes most of it, 1.2 s, and the 34 steps 0.2 s.
MAX_EXPAND3_ORDER = 36


# The coefficients grow with the digits of --p0 and --spectrum too.  With
# every numerator and denominator of the four entries d digits long, a
# run at order 36 takes 1.3 times as long as with the inputs above at
# d = 2, 1.7 times at 4, 2.1 at 6 and 2.7 at 8, so an entry keeps at most
# 4 digits above and below the fraction bar.
MAX_EXPAND3_DIGITS = 4
_DIGITS_NOTE = f"p and q of at most {MAX_EXPAND3_DIGITS} digits"


def _expand3_entry(flag: str, text) -> Fraction:
    value = _parse_fraction(text)
    if max(abs(value.numerator), value.denominator) >= 10**MAX_EXPAND3_DIGITS:
        shown = str(text).strip()
        shown = shown if len(shown) <= 40 else f"{shown[:37]}..."
        raise _UsageError(
            f"--{flag} entry {shown!r} has more than {MAX_EXPAND3_DIGITS} digits"
            " in its numerator or denominator"
        )
    return value


def _run_expand3(merged: dict) -> int:
    order, seed = merged["order"], merged["seed"]
    out = _check_out(merged["out"])
    p0 = _expand3_entry("p0", merged["p0"])
    spectrum = tuple(_expand3_entry("spectrum", v) for v in _split_list(merged["spectrum"], "rational"))
    if len(spectrum) != 3:
        raise _UsageError("expand3 works in three variables; --spectrum needs 3 entries")

    state = ExpansionState(
        n=3,
        spectrum=spectrum,
        P=MultiPoly.const(3, p0),
        Q=MultiPoly.zero(3),
        order=2,
    )
    # the steps and the audit share one windowed residual, so each weight
    # window of each minor is formed once
    states, windows = correct_through(state, order)
    steps = [
        {"order": step.order, "q_component_degrees": sorted(step.Q.homogeneous_components())}
        for step in states
    ]

    # a normal-form term |y|^K y^e with K odd is |y|^-1 times a polynomial
    # of degree K + |e| + 1, and the form is unique, so these are the
    # degrees of the odd part's components
    residual = windows.through()
    leftover_degrees = sorted({sum(key) + 1 for key in residual.keys() if key[0] & 1})
    audit_pass = all(d > order - 1 for d in leftover_degrees)

    # --order is at least 3, so the recursion took a first step
    closed_form = leading_correction(p0, spectrum)
    first_q = states[0].Q
    difference = closed_form - first_q
    failure = None
    if not audit_pass:
        failure = {
            "check": "left-over obstruction degree audit",
            "inputs": {
                "order": order,
                "degrees_at_or_below_threshold": [d for d in leftover_degrees if d <= order - 1],
            },
        }
    elif not difference.is_zero:
        inputs = {"p0": p0, "spectrum": list(spectrum)}
        failure = {"check": "first correction matches the closed form", "inputs": inputs}
    report = {
        "order": order,
        "seed": seed,
        "p0": p0,
        "spectrum": list(spectrum),
        "steps": steps,
        "residual_odd_sector_degrees": leftover_degrees,
        "audit_threshold": order - 1,
        "first_correction": first_q,
        "closed_form_leading_correction": closed_form,
        "first_correction_matches_closed_form": difference.is_zero,
        "closed_form_minus_first_correction": difference,
    }
    return _finish("expand3", out, report, failure)


# ── subcommand: radial ───────────────────────────────────────────────────


def _run_radial(merged: dict) -> int:
    n, seed, r_max = merged["n"], merged["seed"], merged["rmax"]
    out = _check_out(merged["out"])
    branch = _make_branch(merged)
    sample_rmin, sample_rmax = merged["sample_rmin"], merged["sample_rmax"]
    samples_path = None
    if merged["samples_out"] is not None:
        samples_path = _check_out(merged["samples_out"])
        for flag, top in (("sample-rmax", sample_rmax), ("rmax", r_max)):
            if sample_rmin is not None and top is not None and sample_rmin > top:
                raise _UsageError(f"--sample-rmin {sample_rmin} exceeds --{flag} {top}: no node can be sampled")
        per_radius = merged["per_radius"]
        try:
            nodes = count_nodes(r_max, merged["step"], merged["stride"], sample_rmin, sample_rmax)
        except ValueError as exc:
            raise _UsageError(str(exc)) from exc
        try:
            check_sample_work(nodes * per_radius, n)
        except ValueError as exc:
            flags = f"--n {n} --per-radius {per_radius}"
            raise _UsageError(f"{flags} over the {nodes} nodes in the sample window: {exc}") from exc

    try:
        states = integrate_exterior(
            branch, n, branch.theta, merged["u1"], merged["p1"], r_max, merged["step"], merged["stride"]
        )
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

    if samples_path is not None:
        # drawn before anything is written, so a window without nodes leaves no file
        try:
            samples = trajectory_samples(
                states, n, per_radius=merged["per_radius"], seed=seed, r_min=sample_rmin, r_max=sample_rmax
            )
        except ValueError as exc:
            raise _UsageError(f"--sample-rmin {sample_rmin} --sample-rmax {sample_rmax}: {exc}") from exc
    _write("trajectory", out, write_trajectory, states)
    if samples_path is not None:
        _write("samples", samples_path, write_samples, samples)
    max_error = max(s.error for s in states)
    print(
        f"radial: {len(states)} nodes to r = {states[-1].r:g}, "
        f"max error estimate {max_error:.3e}; trajectory written to {out}"
    )
    return 0


# ── subcommand: fit ──────────────────────────────────────────────────────


def _run_fit(merged: dict) -> int:
    n = merged["n"]
    out = _check_out(merged["out"])
    samples_path = _check_in(merged["samples"])
    with_log_text = str(merged["with_log"]).lower()
    if with_log_text not in ("auto", "on", "off"):
        raise _UsageError("--with-log must be auto, on, or off")
    with_log = None if with_log_text == "auto" else (with_log_text == "on")
    annuli = merged["annuli"]
    if annuli is not None:
        annuli = _parse_annuli(annuli)
    try:
        check_fit_work(n, None, with_log)
    except ValueError as exc:
        raise _UsageError(f"--n {n}: {exc}") from exc

    try:
        samples = read_samples(samples_path)
    except ValueError as exc:
        raise _UsageError(f"cannot read samples: {exc}") from exc
    try:
        fit = fit_expansion(
            samples, n, num_annuli=merged["num_annuli"], annuli=annuli, with_log=with_log
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
    n, seed = merged["n"], merged["seed"]
    out = _check_out(merged["out"])
    exponents = _parse_int_list(merged["exponents"])
    try:
        data = residual_scaling_slopes(n, seed=seed, exponents=exponents)
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc
    threshold = n - 2 - 0.1
    failure = None
    if not data["slope"] >= threshold:
        failure = {
            "check": "non-linear residual decay order",
            "inputs": {"n": n, "seed": seed, "slope": data["slope"], "threshold": threshold},
        }
    return _finish("residual-scaling", out, {**data, "threshold": threshold}, failure)


# ── flag tables, parser assembly and dispatch ────────────────────────────

# Each flag is one row (name, argparse type or None for text, default, help,
# *range).  The name is the config key and, with "_" written as "-", the
# flag.  A row whose default is _NO_DEFAULT is a flag that must be given.
# The range is an int's inclusive lower and upper bounds, or a float's
# exclusive lower bound; a float must be finite with or without one.
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
            ("n", int, _NO_DEFAULT, "spectrum size", 2, MAX_LEMMAS_N),
            ("trials", int, 50, "random spectra per identity", 1),
        ),
    ),
    "kelvin-check": (
        "finite-difference Hessian identity audit",
        (
            _BRANCH,
            _TAU,
            ("theta", float, 3 * math.pi / 4, "phase value of the branch"),
            ("n", int, 3, "dimension", 2),
            ("spectrum", None, None, "comma-separated eigenvalues (default all ones)"),
            ("samples", int, 100, "sample points", 1),
            ("fd_step", float, 1e-4, "finite-difference step", 0),
            ("tolerance", float, 1e-5, "max relative deviation", 0),
        ),
    ),
    "poisson": (
        "exact radical Poisson solves with audit",
        (
            ("n", int, 3, "number of variables", 3, MAX_POISSON_N),
            ("degree", int, 6, "largest right-hand degree", 0),
            ("trials", int, 20, "random solves per degree", 1),
        ),
    ),
    "residual-n3": (
        "three-variable linear factorization audit",
        (("trials", int, 20, "random spectra", 1),),
    ),
    "expand3": (
        "correction recursion through an order",
        (
            ("order", int, 5, "final expansion order", 3, MAX_EXPAND3_ORDER),
            ("p0", None, "1", f"leading profile constant, rational p/q ({_DIGITS_NOTE})"),
            ("spectrum", None, "1,1,1", f"three comma-separated rationals ({_DIGITS_NOTE})"),
        ),
    ),
    "radial": (
        "integrate an exterior radial trajectory",
        (
            _BRANCH,
            _TAU,
            ("n", int, 3, "dimension", 2),
            ("theta", float, _NO_DEFAULT, "phase value"),
            ("u1", float, _NO_DEFAULT, "value at r = 1"),
            ("p1", float, _NO_DEFAULT, "slope at r = 1"),
            ("rmax", float, _NO_DEFAULT, "final radius", 1),
            ("step", float, 1e-3, "integration step", 0),
            ("stride", int, 1, "output every k-th node", 1),
            ("samples_out", None, None, "also scatter samples to this CSV"),
            ("per_radius", int, 6, "sample directions per node", 1),
            ("sample_rmin", float, None, "sample window lower radius"),
            ("sample_rmax", float, None, "sample window upper radius"),
        ),
    ),
    "fit": (
        "fit the asymptotic expansion to samples",
        (
            ("samples", None, _NO_DEFAULT, "input samples CSV"),
            ("n", int, _NO_DEFAULT, "dimension of the samples", 2),
            ("annuli", None, None, "explicit annuli lo:hi,lo:hi,..."),
            ("num_annuli", int, 6, "geometric annuli count"),
            ("with_log", None, "auto", "auto, on, or off"),
        ),
    ),
    "residual-scaling": (
        "decay order of the residual tail",
        (
            ("n", int, 3, "dimension", 3),
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
        for name, convert, default, text, *bounds in (_SEED, _CONFIG, _OUT, *rows):
            notes = [phrase for phrase, _ in _range(convert, bounds)]
            if default is _NO_DEFAULT:
                notes.append("required")
            elif default is not None:
                notes.append(f"default {default}")
            if notes:
                text += f" ({'; '.join(notes)})"
            sub.add_argument("--" + name.replace("_", "-"), type=convert, help=text)
    return parser


def dispatch(argv: list[str]) -> int:
    """Run one subcommand; returns the process exit code (0, 1, or 2)."""
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
