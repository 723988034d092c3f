"""Asymptotic expansion machinery for exterior solutions.

Two halves live here.  The exact half is the degree-by-degree correction
recursion in three variables: each step reads the forced obstruction off the
``|y|^(-1)`` sector of the transformed residual and solves a radial-weight
Poisson equation for the next radical correction, all in rational
arithmetic.  The numerical half recovers the quadratic part, affine tail,
and remainder decay rate of a sampled exterior solution by least squares
over annuli, and maps the stripped remainder back to ball-side profile
samples through the scaled inversion.
"""

from __future__ import annotations

import csv
import json
import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .equations import symbolic_residual_n3
from .exactalg import (
    DimensionError,
    HomoPoly,
    MultiPoly,
    solve_radical_poisson,
)
from .kelvin import KelvinFrame, kelvin_map
from .symfun import Spectrum

__all__ = [
    "ConditioningError",
    "ExpansionFit",
    "ExpansionState",
    "InsufficientDataError",
    "fit_expansion",
    "leading_correction_Q2",
    "next_correction_n3",
    "read_fit",
    "read_samples",
    "recover_v",
    "write_fit",
    "write_samples",
]


class InsufficientDataError(ValueError):
    """The samples cannot support the requested fit."""


class ConditioningError(ArithmeticError):
    """The least-squares normal system is numerically too ill-conditioned."""


# ── the exact correction recursion ───────────────────────────────────────


def _as_spectrum(s) -> Spectrum:
    return s if isinstance(s, Spectrum) else Spectrum(s)


@dataclass(frozen=True)
class ExpansionState:
    """One stage of the exterior expansion: the ball-side profile is
    ``v = P + |y|^(n-2) Q`` with ``P`` the smooth Taylor part through total
    degree ``order`` and ``Q`` the forced radical cofactor.

    ``Q`` always vanishes to second order at the origin, and its degree
    stays below ``order - n + 3``; ``P`` is free data (harmonic pieces are
    not forced by the equation) and is only required to respect the order.
    """

    n: int
    spectrum: Spectrum
    P: MultiPoly
    Q: MultiPoly
    order: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "spectrum", _as_spectrum(self.spectrum))
        if self.spectrum.n != self.n:
            raise DimensionError(
                f"spectrum has {self.spectrum.n} entries, expected {self.n}"
            )
        if self.P.n_vars != self.n or self.Q.n_vars != self.n:
            raise DimensionError("profile polynomials must live in n variables")
        if self.order < 2:
            raise ValueError("expansion order starts at 2 (the quadratic scale)")
        if not self.P.is_zero and self.P.total_degree() > self.order:
            raise ValueError(
                f"smooth part has degree {self.P.total_degree()} > order {self.order}"
            )
        if not self.Q.is_zero:
            if self.Q.total_degree() > self.order - self.n + 2:
                raise ValueError(
                    f"radical cofactor has degree {self.Q.total_degree()} "
                    f"> order - n + 2 = {self.order - self.n + 2}"
                )
            if any(sum(e) < 2 for e in self.Q.terms):
                raise ValueError(
                    "radical cofactor must vanish to second order at the origin"
                )


def leading_correction_Q2(v0, s) -> HomoPoly:
    """The closed-form quadratic radical correction for a constant leading
    profile ``v0`` in three variables:

        v0^2 * (1/2) sum_i lambda_i y_i^2.

    The returned polynomial q satisfies ``lap(|y| q) = |y|^(-1) qbar`` with
    ``qbar = v0^2 [sigma_1 |y|^2 + 3 sum_i lambda_i y_i^2]`` exactly, the
    negative of the ``|y|^(-1)`` sector of `symbolic_residual_n3` at
    ``v = v0``: for a constant profile M = v0 (-I + 3 yhat yhat^T), so each
    2x2 minor is ``v0^2 (1 - 3 (yhat_j^2 + yhat_k^2))``.  Adding the
    correction to ``v`` makes the residual of the original equation decay
    faster along rays (r^-9 against r^-6 for the uncorrected profile).
    """
    spectrum = _as_spectrum(s)
    if spectrum.n != 3:
        raise DimensionError("the leading correction is three-dimensional")
    weight = Fraction(v0) ** 2
    base = MultiPoly.zero(3)
    for i, lam in enumerate(spectrum.values):
        yi = MultiPoly.variable(3, i)
        base = base + yi * yi * (Fraction(1, 2) * lam)
    return HomoPoly(base * weight, 2)


def next_correction_n3(state: ExpansionState) -> ExpansionState:
    """One inductive step of the correction recursion in three variables.

    Computes the exact residual of ``v = P + |y| Q``, collects its
    odd-radical sector at base exponent -1, extracts the homogeneous
    obstruction of degree equal to the current order, and solves the
    radial-weight Poisson equation

        lap(|y| delta) = -|y|^(-1) Qtilde

    for the forced correction ``delta``.  Returns the state with ``Q``
    augmented by ``delta`` and the order advanced by one; afterwards the
    odd sector carries no component of degree <= the new order - 1.
    """
    if state.n != 3:
        raise DimensionError("the correction recursion is implemented for n = 3")
    residual = symbolic_residual_n3(state.P, state.Q, state.spectrum)
    sector = residual.collect_odd(-1)
    obstruction = sector.homogeneous_components().get(state.order)
    if obstruction is None:
        delta = MultiPoly.zero(3)
    else:
        delta = solve_radical_poisson(-obstruction, 3).base
    return ExpansionState(3, state.spectrum, state.P, state.Q + delta, state.order + 1)


# ── sampling, fitting, and profile recovery ──────────────────────────────


@dataclass(frozen=True)
class ExpansionFit:
    """Fitted asymptotic data of an exterior solution: the quadratic part
    ``A``, affine tail ``b`` and ``c``, the logarithmic coefficient ``d``
    (two variables only, ``None`` otherwise), the remainder decay exponent
    with its regression standard error, and the annuli used."""

    A: np.ndarray
    b: np.ndarray
    c: float
    d: float | None
    decay_slope: float
    decay_slope_stderr: float
    annuli: tuple

    def __post_init__(self) -> None:
        a = np.asarray(self.A, dtype=float)
        bv = np.asarray(self.b, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("quadratic part must be a square matrix")
        if not np.allclose(a, a.T, rtol=0.0, atol=1e-12 * (1.0 + np.abs(a).max())):
            raise ValueError("quadratic part must be symmetric")
        a = 0.5 * (a + a.T)
        if bv.shape != (a.shape[0],):
            raise ValueError("linear part must be a vector of matching dimension")
        if a.shape[0] >= 3 and self.d is not None:
            raise ValueError("the logarithmic coefficient exists only in dimension 2")
        if not math.isfinite(self.decay_slope):
            raise ValueError("decay slope must be finite")
        object.__setattr__(self, "A", a)
        object.__setattr__(self, "b", bv)
        object.__setattr__(self, "c", float(self.c))
        object.__setattr__(self, "d", None if self.d is None else float(self.d))
        object.__setattr__(self, "decay_slope", float(self.decay_slope))
        object.__setattr__(self, "decay_slope_stderr", float(self.decay_slope_stderr))
        object.__setattr__(
            self,
            "annuli",
            tuple((float(lo), float(hi)) for lo, hi in self.annuli),
        )

    @property
    def n(self) -> int:
        return int(self.b.shape[0])

    def predict(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Model values at the given exterior points."""
        pts = np.atleast_2d(np.asarray(points, dtype=float))
        return _model_values(pts, self.A, self.b, self.c, self.d)

    def to_json(self) -> dict:
        data = {
            "A": [[float(v) for v in row] for row in self.A],
            "b": [float(v) for v in self.b],
            "c": self.c,
            "decay_slope": self.decay_slope,
            "decay_slope_stderr": self.decay_slope_stderr,
            "annuli": [[lo, hi] for lo, hi in self.annuli],
        }
        if self.d is not None:
            data["d"] = self.d
        return data

    @classmethod
    def from_json(cls, data) -> "ExpansionFit":
        """Inverse of ``to_json``; ValueError names a malformed record."""
        try:
            return cls(
                A=np.asarray(data["A"], dtype=float),
                b=np.asarray(data["b"], dtype=float),
                c=float(data["c"]),
                d=None if data.get("d") is None else float(data["d"]),
                decay_slope=float(data["decay_slope"]),
                decay_slope_stderr=float(data["decay_slope_stderr"]),
                annuli=tuple((float(lo), float(hi)) for lo, hi in data.get("annuli", ())),
            )
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed fit record: {exc}") from exc


def _split_samples(samples) -> tuple[np.ndarray, np.ndarray]:
    pts = []
    vals = []
    for index, (x, u) in enumerate(samples):
        point = [float(c) for c in x]
        value = float(u)
        if not all(map(math.isfinite, point)) or not math.isfinite(value):
            raise ValueError(f"sample {index} is not finite: x = {tuple(point)}, u = {value!r}")
        pts.append(point)
        vals.append(value)
    if not pts:
        raise InsufficientDataError("no samples given")
    return np.asarray(pts, dtype=float), np.asarray(vals, dtype=float)


def _model_values(
    pts: np.ndarray, A: np.ndarray, b: np.ndarray, c: float, d: float | None
) -> np.ndarray:
    out = 0.5 * np.einsum("ki,ij,kj->k", pts, A, pts) + pts @ b + c
    if d is not None:
        out = out + 0.5 * d * np.log(_log_argument(pts, A))
    return out


def _log_argument(pts: np.ndarray, A: np.ndarray) -> np.ndarray:
    frame = np.eye(A.shape[0]) + A @ A
    return np.einsum("ki,ij,kj->k", pts, frame, pts)


def _quadratic_design(pts: np.ndarray, n: int) -> np.ndarray:
    cols = []
    for i in range(n):
        for j in range(i, n):
            col = pts[:, i] * pts[:, j]
            if i == j:
                col = 0.5 * col
            cols.append(col)
    for i in range(n):
        cols.append(pts[:, i])
    cols.append(np.ones(pts.shape[0]))
    return np.column_stack(cols)


def _solve_least_squares(design: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    singular = np.linalg.svd(design, compute_uv=False)
    if singular[-1] == 0.0 or (singular[0] / singular[-1]) ** 2 > 1e12:
        cond = math.inf if singular[-1] == 0.0 else (singular[0] / singular[-1]) ** 2
        raise ConditioningError(
            f"normal-system condition {cond:.3e} exceeds the 1e12 budget"
        )
    coef, *_ = np.linalg.lstsq(design, rhs, rcond=None)
    return coef


def _unpack_quadratic(coef: np.ndarray, n: int, scale: float):
    A = np.zeros((n, n))
    pos = 0
    for i in range(n):
        for j in range(i, n):
            A[i, j] = A[j, i] = coef[pos]
            pos += 1
    b = np.array(coef[pos : pos + n], dtype=float)
    c = float(coef[pos + n])
    return A / scale**2, b / scale, c


# annuli one fit may scan: each is a pass over every sample, and the decay
# slope needs a handful, so the cap bounds the work far above any useful fit
MAX_ANNULI = 1000


def _check_annuli(num_annuli, annuli) -> None:
    if not isinstance(num_annuli, numbers.Integral) or not 3 <= num_annuli <= MAX_ANNULI:
        raise ValueError(f"num_annuli must be an integer in 3..{MAX_ANNULI}, got {num_annuli!r}")
    if annuli is not None and len(annuli) > MAX_ANNULI:
        raise ValueError(f"{len(annuli)} annuli given, more than {MAX_ANNULI}")


def _make_annuli(radii: np.ndarray, annuli, num_annuli: int) -> list[tuple[float, float]]:
    if annuli is not None:
        out = sorted((float(lo), float(hi)) for lo, hi in annuli)
        if any(hi <= lo for lo, hi in out):
            raise ValueError("each annulus needs r_min < r_max")
        return out
    r_lo = float(radii.min())
    r_hi = float(radii.max())
    if r_lo <= 0.0:
        raise InsufficientDataError("samples at the origin cannot be fitted")
    if r_hi <= r_lo:
        raise InsufficientDataError("samples must span a range of radii")
    edges = np.geomspace(r_lo, r_hi, num_annuli + 1)
    return [(float(edges[k]), float(edges[k + 1])) for k in range(num_annuli)]


def _annulus_masks(
    radii: np.ndarray, annuli: Sequence[tuple[float, float]]
) -> list[tuple[tuple[float, float], np.ndarray]]:
    out = []
    top = max(hi for _, hi in annuli)
    for lo, hi in annuli:
        mask = (radii >= lo) & ((radii < hi) | ((hi == top) & (radii <= hi)))
        if mask.any():
            out.append(((lo, hi), mask))
    return out


def fit_expansion(
    samples,
    n: int,
    *,
    num_annuli: int = 6,
    annuli: Sequence[tuple[float, float]] | None = None,
    with_log: bool | None = None,
) -> ExpansionFit:
    """Least-squares recovery of the asymptotic data of a sampled exterior
    solution.

    The quadratic basis {x_i x_j, x_i, 1} is fitted on the outermost
    annulus with coordinates normalized by the outer radius; in two
    variables the basis gains the term (1/2) log(x^T (I + A^2) x), with A
    taken from a first quadratic-only pass and the log-augmented solve
    iterated twice.  The remainder decay exponent is the slope of
    log(median |u - fit|) against log(radius) across the annuli; the
    outermost annulus anchors the fit, so its own remainder is regression
    residue rather than decay signal and it is left out of the slope
    whenever at least four annuli are populated.  For an unbiased slope,
    place the outermost annulus well beyond the annuli that probe the
    decay: the constant column absorbs the remainder's local mean on the
    fit annulus, which floors the believable remainder at roughly
    |u - quadratic| there.  ``with_log`` overrides the dimension rule for
    the logarithmic column (it defaults to ``n == 2``), which lets callers
    measure how much of the residual that column explains.

    Raises ValueError naming the first sample with a non-finite
    coordinate or value, a num_annuli outside 3..MAX_ANNULI, or more than
    MAX_ANNULI explicit annuli; InsufficientDataError when fewer than four
    samples per parameter are given or fewer than three annuli are
    populated; and ConditioningError when the normal system is
    effectively singular.
    """
    _check_annuli(num_annuli, annuli)
    pts, vals = _split_samples(samples)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise DimensionError(f"samples have {pts.shape[1]} coordinates, expected {n}")
    if n < 2:
        raise DimensionError("fitting needs dimension n >= 2")
    radii = np.linalg.norm(pts, axis=1)

    use_log = (n == 2) if with_log is None else bool(with_log)
    count_params = n * (n + 1) // 2 + n + 1 + (1 if use_log else 0)
    if pts.shape[0] < 4 * count_params:
        raise InsufficientDataError(
            f"need at least {4 * count_params} samples to fit "
            f"{count_params} parameters, got {pts.shape[0]}"
        )
    rings = _annulus_masks(radii, _make_annuli(radii, annuli, num_annuli))
    if len(rings) < 3:
        raise InsufficientDataError(
            f"samples populate only {len(rings)} annuli; need at least 3"
        )
    (outer_lo, outer_hi), outer_mask = rings[-1]
    if int(outer_mask.sum()) < count_params:
        raise InsufficientDataError(
            f"outermost annulus [{outer_lo:g}, {outer_hi:g}] holds "
            f"{int(outer_mask.sum())} samples; need at least {count_params}"
        )

    scale = float(radii.max())
    x_out = pts[outer_mask] / scale
    u_out = vals[outer_mask]

    coef = _solve_least_squares(_quadratic_design(x_out, n), u_out)
    A, b, c = _unpack_quadratic(coef, n, scale)
    d: float | None = None
    if use_log:
        if n != 2:
            raise DimensionError("the logarithmic column exists only in dimension 2")
        for _ in range(2):
            log_col = 0.5 * np.log(_log_argument(pts[outer_mask], A))
            design = np.column_stack([_quadratic_design(x_out, n), log_col])
            coef = _solve_least_squares(design, u_out)
            A, b, c = _unpack_quadratic(coef[:-1], n, scale)
            d = float(coef[-1])

    remainder = np.abs(vals - _model_values(pts, A, b, c, d))
    slope_rings = rings[:-1] if len(rings) >= 4 else rings
    log_r = []
    log_m = []
    for _, mask in slope_rings:
        median = float(np.median(remainder[mask]))
        log_r.append(math.log(float(np.median(radii[mask]))))
        log_m.append(math.log(max(median, 1e-300)))
    xs = np.asarray(log_r)
    ys = np.asarray(log_m)
    xc = xs - xs.mean()
    yc = ys - ys.mean()
    sxx = float(xc @ xc)
    slope = float(xc @ yc) / sxx
    resid = yc - slope * xc
    dof = max(len(xs) - 2, 1)
    stderr = math.sqrt(float(resid @ resid) / dof / sxx)

    return ExpansionFit(
        A=A,
        b=b,
        c=c,
        d=d,
        decay_slope=slope,
        decay_slope_stderr=stderr,
        annuli=tuple(ring for ring, _ in rings),
    )


def recover_v(samples, fit: ExpansionFit, frame: KelvinFrame):
    """Strip the fitted affine-quadratic part from exterior samples and undo
    the inversion weight, returning ball-side profile samples.

    For each sample (x, u) the profile value is

        v(y) = (u - x^T A x / 2 - b . x - c) * |y|^(2-n),   y = R x / |Rx|^2,

    with the logarithmic term also removed first in dimension two.  Returns
    ``(pairs, v0_estimate)`` where ``pairs`` is a list of (y, v) and
    ``v0_estimate`` averages v over the tenth of the samples with the
    smallest |y|.
    """
    pts, vals = _split_samples(samples)
    n = frame.n
    if pts.shape[1] != n:
        raise DimensionError(f"samples have {pts.shape[1]} coordinates, expected {n}")
    if fit.n != n:
        raise DimensionError(f"fit is {fit.n}-dimensional, frame is {n}-dimensional")
    stripped = vals - _model_values(pts, fit.A, fit.b, fit.c, fit.d)
    ys = np.asarray([kelvin_map(x, frame.R, "forward") for x in pts])
    ynorm = np.linalg.norm(ys, axis=1)
    profile = stripped * ynorm ** (2 - n)
    order = np.argsort(ynorm)
    decile = order[: max(1, len(order) // 10)]
    v0_estimate = float(np.mean(profile[decile]))
    pairs = [(ys[k], float(profile[k])) for k in range(len(profile))]
    return pairs, v0_estimate


# ── sample and fit files ─────────────────────────────────────────────────


def write_samples(path, samples) -> None:
    """Write exterior samples as CSV with header ``x1,...,xn,u``."""
    pts, vals = _split_samples(samples)
    n = pts.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(n)] + ["u"])
        for x, u in zip(pts, vals):
            writer.writerow([repr(float(c)) for c in x] + [repr(float(u))])


def read_samples(path) -> list[tuple[tuple[float, ...], float]]:
    """Read exterior samples from CSV with header ``x1,...,xn,u``.

    ValueError on a malformed header, a row of the wrong width, or a
    non-numeric or non-finite value, naming the file row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty sample file") from None
        expected = [f"x{i + 1}" for i in range(len(header) - 1)] + ["u"]
        if [h.strip() for h in header] != expected or len(header) < 2:
            raise ValueError(
                f"{path}: header must be x1,...,xn,u; got {','.join(header)}"
            )
        n = len(header) - 1
        samples = []
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 1:
                raise ValueError(f"{path}: row {line_no} has {len(row)} fields")
            try:
                values = [float(v) for v in row]
            except ValueError:
                raise ValueError(f"{path}: row {line_no} is not numeric: {','.join(row)}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {line_no} is not finite: {','.join(row)}")
            samples.append((tuple(values[:n]), values[n]))
    if not samples:
        raise ValueError(f"{path}: no sample rows")
    return samples


def write_fit(path, fit: ExpansionFit) -> None:
    """Write a fit record as JSON."""
    with open(path, "w") as fh:
        json.dump(fit.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_fit(path) -> ExpansionFit:
    """Read a fit record from JSON."""
    with open(path) as fh:
        return ExpansionFit.from_json(json.load(fh))
