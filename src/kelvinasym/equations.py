"""Algebraic residual forms of the transformed equations.

Each branch's fully nonlinear equation F(D^2 u) = theta is polynomialized
into two determinant-style forms evaluated on a Hessian matrix H:

  theta-carrying   zero exactly when the phase of H equals theta;
  theta-free       zero exactly when the phase of H matches the phase of
                   the asymptotic model A = diag(lambda), with theta
                   eliminated through the model.

On the ball side, H = A + |y|^n N(jet) and the theta-free form divides by
gamma |y|^(n+2), where gamma is the linear-part factor: the residual then
splits into the Laplacian of the profile plus a superlinearly small
remainder.  The split is produced in floating point by
`transformed_residual`, and on the flat-phase branch exactly, in one
formula (`_flat_residual`), by `transformed_residual_exact` (rational
jets, rational radius) and fully symbolically for n = 3 by
`symbolic_residual_n3`.  Since E_H + i O_H = det(I + iH) and
|det(I + iA)|^2 = gamma, the flat-phase residual along
H = A + |y|^n M R^2 is a weighted sum of the principal minors of M:

    sum over nonempty S of w_S |y|^(n(|S|-1)-2) det M_S,
    w_S = Im prod_{l in S} (lambda_l + i),

whose |S| = 1 part is trace(M) / |y|^2 = lap(v); for n = 3 the weights
are 1, lambda_j + lambda_k and -(1 - sigma_2).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence, Union

import numpy as np

from .exactalg import DimensionError, MultiPoly, RadPoly
from .kelvin import (
    Jet2,
    KelvinFrame,
    PhaseBranch,
    identity_parts,
    jet_indeterminates,
    matrices_MNKL,
    scaling_matrix,
)
from .symfun import (
    MismatchError,
    Spectrum,
    _alternating,
    _Dual,
    _pencil_sigmas,
    _principal_minors,
    _sigmas,
    char_sigmas,
    random_spectrum,
)

__all__ = [
    "AlgebraicForm",
    "ResidualBreakdown",
    "algebraic_residual",
    "notheta_residual",
    "linear_part_factor",
    "transformed_residual",
    "transformed_residual_exact",
    "symbolic_residual_n3",
    "linear_part_defect_n3",
    "residual_scaling_slopes",
]


Scalar = Union[float, Fraction]


# ── matrix and value plumbing ────────────────────────────────────────────


def _is_exact(x) -> bool:
    return isinstance(x, numbers.Rational) and not isinstance(x, bool)


def _matrix_rows(H, n: int):
    """Normalize a matrix argument; returns (rows, exact) where rows are
    nested lists and `exact` says every entry is a rational number."""
    if isinstance(H, np.ndarray):
        if H.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}")
        return [[float(v) for v in row] for row in H], False
    rows = [list(row) for row in H]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n} x {n}")
    exact = all(_is_exact(v) for row in rows for v in row)
    if not exact:
        rows = [[float(v) for v in row] for row in rows]
    return rows, exact


def _require_symmetric(rows) -> None:
    n = len(rows)
    scale = max(1.0, max(abs(float(v)) for row in rows for v in row))
    for i in range(n):
        for j in range(i):
            if abs(float(rows[i][j]) - float(rows[j][i])) > 1e-9 * scale:
                raise ValueError("floating-point evaluation needs a symmetric matrix")


def _sigmas_matrix(rows, exact: bool) -> list[Scalar]:
    if exact:
        return char_sigmas([[Fraction(v) for v in row] for row in rows], Fraction(1))
    eigs = np.linalg.eigvalsh(np.asarray(rows, dtype=float))
    return _sigmas([float(v) for v in eigs], 1.0)


def _sigma_bar_values(values, a: float, b: float) -> list[float]:
    """Shifted symmetric functions: coefficients of
    prod((v + a + b) + t (v + a - b)) as a polynomial in t."""
    return _pencil_sigmas([(float(v) + a + b, float(v) + a - b) for v in values], 1.0)


def _shifted(rows, shift):
    out = [list(row) for row in rows]
    for d in range(len(rows)):
        out[d][d] = out[d][d] + shift
    return out


def _spectrum_values(s, exact_wanted: bool):
    vals = list(s.values) if isinstance(s, Spectrum) else list(s)
    if exact_wanted and all(_is_exact(v) for v in vals):
        return [Fraction(v) for v in vals], True
    return [float(v) for v in vals], False


# ── the two residual forms ───────────────────────────────────────────────


@dataclass(frozen=True)
class AlgebraicForm:
    """A polynomialized residual of one branch: the weights multiplying the
    sigma/sigma-bar data of the evaluated matrix are fixed at construction,
    so evaluation is pure determinant algebra.

    `coefficients` carries those weights: phase weights for the
    theta-carrying form, model weights for the theta-free form.
    """

    branch: PhaseBranch
    n: int
    theta_free: bool
    coefficients: dict

    @classmethod
    def theta_carrying(cls, branch: PhaseBranch, n: int, theta: float) -> "AlgebraicForm":
        """The form that vanishes exactly on matrices of phase theta."""
        kind = branch.kind
        a, b = branch.a, branch.b
        theta = float(theta)
        if kind == "SLAG":
            coeff = {"cos": math.cos(theta), "sin": math.sin(theta)}
        elif kind == "ATAN2":
            reduced = theta * b / math.sqrt(a * a + 1.0)
            coeff = {"cos": math.cos(reduced), "sin": math.sin(reduced)}
        elif kind == "RECIP":
            coeff = {"theta": theta}
        else:  # LOG
            coeff = {"growth": math.exp(2.0 * b * theta / math.sqrt(a * a + 1.0))}
        return cls(branch=branch, n=n, theta_free=False, coefficients=coeff)

    @classmethod
    def eliminated(cls, branch: PhaseBranch, n: int, s) -> "AlgebraicForm":
        """The theta-free form, with theta eliminated through the phase of
        the asymptotic model spectrum s."""
        kind = branch.kind
        a, b = branch.a, branch.b
        exactable = kind in ("SLAG", "RECIP")
        vals, exact = _spectrum_values(s, exact_wanted=exactable)
        if len(vals) != n:
            raise ValueError("spectrum size must match the form dimension")
        one: Scalar = Fraction(1) if exact else 1.0
        if kind == "SLAG":
            e, o = _alternating(_sigmas(vals, one))
            coeff = {"E": e, "O": o}
        elif kind == "ATAN2":
            e, o = _alternating(_sigma_bar_values(vals, a, b))
            coeff = {"E": e, "O": o}
        elif kind == "RECIP":
            sig = _sigmas([v + one for v in vals], one)
            coeff = {"det": sig[n], "subdet": sig[n - 1]}
        else:  # LOG
            coeff = {
                "plus": math.prod(float(v) + a + b for v in vals),
                "minus": math.prod(float(v) + a - b for v in vals),
            }
        return cls(branch=branch, n=n, theta_free=True, coefficients=coeff)

    def residual(self, H) -> Scalar:
        """Evaluate the form on a Hessian matrix.

        Floating-point matrices must be symmetric; exact rational matrices
        may be arbitrary square (diagonal-similarity images of symmetric
        matrices are fine) and keep the evaluation exact whenever the
        stored weights are exact."""
        rows, exact = _matrix_rows(H, self.n)
        exact = exact and all(_is_exact(v) for v in self.coefficients.values())
        kind = self.branch.kind
        a, b = self.branch.a, self.branch.b
        c = self.coefficients

        if not exact:
            rows = [[float(v) for v in row] for row in rows]
            _require_symmetric(rows)

        if kind == "SLAG":
            e_h, o_h = _alternating(_sigmas_matrix(rows, exact))
            if self.theta_free:
                return c["E"] * o_h - c["O"] * e_h
            return c["cos"] * o_h - c["sin"] * e_h

        if kind == "ATAN2":
            eigs = np.linalg.eigvalsh(np.asarray(rows, dtype=float))
            e_h, o_h = _alternating(_sigma_bar_values([float(v) for v in eigs], a, b))
            if self.theta_free:
                return c["E"] * o_h - c["O"] * e_h
            return c["sin"] * e_h - c["cos"] * o_h

        if kind == "RECIP":
            shifted = _shifted(rows, Fraction(1) if exact else 1.0)
            sig = _sigmas_matrix(shifted, exact)
            det, subdet = sig[self.n], sig[self.n - 1]
            if self.theta_free:
                return c["det"] * subdet - c["subdet"] * det
            return -math.sqrt(2.0) * subdet - c["theta"] * det

        # LOG
        det_lower = float(np.linalg.det(np.asarray(_shifted(rows, a - b), dtype=float)))
        det_upper = float(np.linalg.det(np.asarray(_shifted(rows, a + b), dtype=float)))
        if self.theta_free:
            return c["plus"] * det_lower - c["minus"] * det_upper
        return det_lower - c["growth"] * det_upper


def algebraic_residual(branch: PhaseBranch, H, theta: float) -> float:
    """theta-carrying residual of a symmetric matrix; zero (to rounding)
    exactly when the branch phase of H equals theta, modulo the period of
    the branch's arctangent form."""
    rows, _ = _matrix_rows(H, len(H))
    return float(AlgebraicForm.theta_carrying(branch, len(rows), theta).residual(H))


def notheta_residual(branch: PhaseBranch, s, H) -> Scalar:
    """theta-free residual of H against the asymptotic model spectrum s;
    exact when the branch weights and every entry of H are rational."""
    rows, _ = _matrix_rows(H, len(H))
    return AlgebraicForm.eliminated(branch, len(rows), s).residual(H)


# ── the linear-part factor ───────────────────────────────────────────────


def _linear_factor_formula(branch: PhaseBranch, vals) -> Scalar:
    kind = branch.kind
    a, b = branch.a, branch.b
    if kind == "SLAG":
        out = vals[0] ** 0  # 1 in the arithmetic of the values
        for v in vals:
            out = out * (1 + v * v)
        return out
    if kind == "ATAN2":
        scale = 2.0 ** len(vals) * b / math.sqrt(a * a + 1.0)
        return scale * math.prod((float(v) + a) ** 2 + b * b for v in vals)
    if kind == "RECIP":
        return -math.prod((1.0 + float(v)) ** 2 for v in vals) / math.sqrt(2.0)
    scale = 2.0 * b / math.sqrt(a * a + 1.0)
    return scale * math.prod((float(v) + a) ** 2 - b * b for v in vals)


def linear_part_factor(branch: PhaseBranch, s) -> Scalar:
    """The constant gamma multiplying |y|^(n+2) lap(v) in the linear part
    of the theta-free residual along H = A + |y|^n N.

    Exact for the flat-phase branch with rational spectrum, floating point
    otherwise.  Before returning, the closed form is verified against a
    direct t-interpolation of the theta-free residual along H = A + t N
    with N the image of a canonical unit-Hessian jet; MismatchError if the
    two routes disagree beyond 1e-9 relative."""
    vals, _ = _spectrum_values(s, exact_wanted=branch.kind == "SLAG")
    gamma = _linear_factor_formula(branch, vals)

    # interpolation route: a jet with hess = I, value 0, gradient 0 maps to
    # N = |y|^2 R^2, so the t-slope of the residual equals n |y|^2 gamma
    n = len(vals)
    floats = [float(v) for v in vals]
    rsq = [float(r) ** 2 for r in scaling_matrix(branch, floats)]
    norm_sq = 0.25
    form = AlgebraicForm.eliminated(branch, n, floats)
    nodes = np.arange(n + 1, dtype=float)
    samples = [
        float(form.residual(np.diag(floats) + t * norm_sq * np.diag(rsq)))
        for t in nodes
    ]
    slope = np.polynomial.polynomial.polyfit(nodes, samples, n)[1]
    interp = slope / (n * norm_sq)
    if abs(interp - float(gamma)) > 1e-9 * max(1.0, abs(interp), abs(float(gamma))):
        raise MismatchError(
            f"linear-part factor routes disagree: {gamma} vs interpolated {interp}"
        )
    return gamma


# ── the transformed residual on the ball side ────────────────────────────


@dataclass(frozen=True)
class ResidualBreakdown:
    """theta-free residual at one jet, normalized by gamma |y|^(n+2), and
    split into the profile Laplacian plus the superlinear remainder."""

    laplace_term: Scalar
    nonlinear_term: Scalar
    total: Scalar
    linear_factor: Scalar


def transformed_residual(jet: Jet2, frame: KelvinFrame) -> ResidualBreakdown:
    """Floating-point residual split at one jet of the ball-side profile."""
    n = frame.n
    _, N, _, _ = matrices_MNKL(jet, frame)
    norm = float(np.dot(jet.y, jet.y)) ** 0.5
    H = np.diag(np.asarray(frame.spectrum, dtype=float)) + norm**n * np.asarray(N)
    gamma = float(linear_part_factor(frame.branch, frame.spectrum))
    raw = float(notheta_residual(frame.branch, frame.spectrum, H))
    total = raw / (gamma * norm ** (n + 2))
    laplace = float(np.trace(np.asarray(jet.hess)))
    return ResidualBreakdown(
        laplace_term=laplace,
        nonlinear_term=total - laplace,
        total=total,
        linear_factor=gamma,
    )


def _exact_norm(y: Sequence[Fraction]) -> Fraction:
    norm_sq = sum((Fraction(c) * Fraction(c) for c in y), Fraction(0))
    num = math.isqrt(norm_sq.numerator)
    den = math.isqrt(norm_sq.denominator)
    if num * num != norm_sq.numerator or den * den != norm_sq.denominator:
        raise ValueError("exact evaluation needs |y| to be rational")
    return Fraction(num, den)


def _flat_weight(vals, subset) -> Fraction:
    """w_S = Im prod_{l in S} (lambda_l + i)."""
    re, im = Fraction(1), Fraction(0)
    for l in subset:
        re, im = re * vals[l] - im, re + im * vals[l]
    return im


def _flat_residual(y, value, grad, hess, vals, rpow):
    """The flat-phase theta-free residual along H = A + |y|^n M R^2,
    normalized by gamma |y|^(n+2), from the 2-jet (value, grad, hess) of v
    at y and the rational spectrum vals of A:

        sum over nonempty S of w_S |y|^(n(|S|-1)-2) det M_S,
        w_S = Im prod_{l in S} (lambda_l + i).

    It follows from E_H + i O_H = det(I + iH), R^2 = diag(1 + lambda^2) and
    conj(det(I + iA)) det(I + iA) = gamma.  The |S| = 1 part is
    trace(M) / |y|^2, which is lap(v) by the trace identity.  rpow(k)
    is |y|^k in the ring of the jet; only +, - and * touch the entries, so
    the same code runs over Fraction and RadPoly jets."""
    n = len(y)
    zero = 0 * value
    K, L = identity_parts(y, value, grad, hess, rpow(2))
    radial = L * rpow(-2)
    m = [[K[i][j] + radial * (y[i] * y[j]) for j in range(n)] for i in range(n)]
    minors = _principal_minors(m)
    total = zero
    for size in range(1, n + 1):
        part = sum(
            (_flat_weight(vals, S) * det for S, det in minors.items() if len(S) == size), zero
        )
        total = total + part * rpow(n * (size - 1) - 2)
    return total


def transformed_residual_exact(
    y: Sequence,
    value,
    grad: Sequence,
    hess: Sequence[Sequence],
    s,
) -> ResidualBreakdown:
    """Exact rational residual split for the flat-phase branch.

    Same contract as `transformed_residual` but every input is rational and
    |y| itself must be rational (e.g. points t * unit rational vector).
    The total is the weighted principal-minor sum of M (`_flat_residual`),
    sum over nonempty S of w_S |y|^(n(|S|-1)-2) det M_S with
    w_S = Im prod_{l in S} (lambda_l + i), so the irrational scaling R
    never appears, all arithmetic stays inside the rationals, and the split
    is exact down to radii far below where floating-point cancellation
    destroys the remainder term.
    """
    yv = [Fraction(c) for c in y]
    n = len(yv)
    vals = [Fraction(v) for v in (s.values if isinstance(s, Spectrum) else s)]
    if len(vals) != n:
        raise ValueError("spectrum size must match the point dimension")
    gv = [Fraction(c) for c in grad]
    hv = [[Fraction(c) for c in row] for row in hess]
    norm = _exact_norm(yv)

    total = _flat_residual(yv, Fraction(value), gv, hv, vals, lambda k: norm**k)
    laplace = sum((hv[i][i] for i in range(n)), Fraction(0))
    return ResidualBreakdown(
        laplace_term=laplace,
        nonlinear_term=total - laplace,
        total=total,
        linear_factor=math.prod((1 + v * v for v in vals), start=Fraction(1)),
    )


# ── fully symbolic n = 3 residual ────────────────────────────────────────


def symbolic_residual_n3(P: MultiPoly, Q: MultiPoly, s) -> RadPoly:
    """The exact normalized flat-phase residual of v = P + |y| Q in three
    variables: sum over nonempty S of w_S |y|^(3|S|-5) det M_S with
    w_S = Im prod_{l in S} (lambda_l + i), that is

        lap(v) + |y| sum_{j<k} (lambda_j + lambda_k) det M_{jk}
               - |y|^4 (1 - sigma_2(A)) det M.

    P and Q are polynomials in the three ball variables with rational
    coefficients; the result is a radical polynomial in the same variables
    and every coefficient is exact."""
    if P.n_vars != 3 or Q.n_vars != 3:
        raise DimensionError("the symbolic residual is three-dimensional")
    vals = [Fraction(v) for v in (s.values if isinstance(s, Spectrum) else s)]
    if len(vals) != 3:
        raise DimensionError("need a spectrum of size 3")
    yvars = [MultiPoly.variable(3, i) for i in range(3)]
    v = RadPoly(3, {0: P, 1: Q})
    grad = [v.partial(i) for i in range(3)]
    hess = [[grad[i].partial(j) for j in range(3)] for i in range(3)]
    one = MultiPoly.const(3, 1)
    return _flat_residual(yvars, v, grad, hess, vals, lambda k: RadPoly(3, {k: one}))


def linear_part_defect_n3(s) -> RadPoly:
    """The flat-phase linear-part identity in three variables, symbolically.

    With jet indeterminates (y, v, g, h) and the radial weight treated as a
    formal first-order variable w (a dual number, w^2 = 0), the w-linear
    coefficient of the theta-free form along H = A + w (|y|^2 M) R^2 must
    equal gamma |y|^4 trace(h), gamma = prod(1 + lambda_i^2).  Returns the
    difference over the 13 jet variables (y1..y3, v, g1..g3, h11..h33
    upper-triangular); it is identically zero precisely when the linear
    part of the residual factors as gamma |y|^(n+2) lap(v)."""
    vals = [Fraction(v) for v in (s.values if isinstance(s, Spectrum) else s)]
    if len(vals) != 3:
        raise DimensionError("need a spectrum of size 3")
    n = 3
    yvar, vvar, gvar, hvar = jet_indeterminates(n)
    zero = MultiPoly.zero(yvar[0].n_vars)
    ysq = sum((c * c for c in yvar), zero)
    K, L = identity_parts(yvar, vvar, gvar, hvar, ysq)
    # |y|^2 M = |y|^2 K + L y y^T, entirely polynomial in the jet indeterminates
    scaled_m = [[K[i][j] * ysq + L * (yvar[i] * yvar[j]) for j in range(n)] for i in range(n)]

    rho = [1 + v * v for v in vals]
    # entries lambda_i delta_ij + w (|y|^2 M)_ij rho_j: a rational constant part
    pencil = [
        [_Dual(vals[i] if i == j else 0, scaled_m[i][j] * rho[j]) for j in range(n)] for i in range(n)
    ]
    e_h, o_h = _alternating(char_sigmas(pencil, _Dual(Fraction(1), zero)))
    e_a, o_a = _alternating(_sigmas(vals, Fraction(1)))
    linear = (e_a * o_h - o_a * e_h).b
    gamma = math.prod(rho, start=Fraction(1))
    trace_h = hvar[0][0] + hvar[1][1] + hvar[2][2]
    want = gamma * (ysq * ysq * trace_h)
    return RadPoly.from_poly(linear - want)


# ── the small-radius scaling ladder ──────────────────────────────────────

_UNIT_VECTORS = {
    3: ("2/3", "2/3", "1/3"),
    4: ("1/2", "1/2", "1/2", "1/2"),
    5: ("3/7", "2/7", "6/7", "0", "0"),
}


# 2^-200 keeps the n = 5 remainder near 2^-593, far inside float range
_MAX_EXPONENT = 200


def _check_ladder(n: int, exponents: Sequence[int]) -> None:
    """ValueError naming the first bad input of a scaling ladder: n must
    have a unit vector, and the exponents must be at least two distinct
    integers in 1..200."""
    if n not in _UNIT_VECTORS:
        raise ValueError(f"scaling ladder supports n in {sorted(_UNIT_VECTORS)}, not {n}")
    if len(exponents) < 2:
        raise ValueError(f"the ladder needs at least two exponents, got {list(exponents)}")
    seen = set()
    for k in exponents:
        if not isinstance(k, int) or isinstance(k, bool) or not 1 <= k <= _MAX_EXPONENT:
            raise ValueError(f"exponent {k!r} is not an integer in 1..{_MAX_EXPONENT}")
        if k in seen:
            raise ValueError(f"exponent {k} is repeated")
        seen.add(k)


def residual_scaling_slopes(
    n: int,
    seed: int = 0,
    exponents: Sequence[int] = tuple(range(3, 11)),
) -> dict:
    """Exact remainder magnitudes along y = t * unit vector, t = 2^-k.

    Fixes a deterministic rational spectrum and polynomial profile from the
    seed, evaluates the exact residual split at each radius, and returns
    the log2 magnitudes with their least-squares slope (which approaches
    n - 2 as t -> 0 when the remainder is genuinely superlinear).
    ValueError (`_check_ladder`) names an unsupported n or exponent."""
    _check_ladder(n, exponents)
    unit = [Fraction(c) for c in _UNIT_VECTORS[n]]
    rng = Random(seed)
    # positive eigenvalues keep the pair weights of the leading remainder
    # coefficient from cancelling, so the fitted slope is clean already at
    # the widest radii of the ladder
    s = random_spectrum(rng, n, lower=0, max_numerator=2, max_denominator=3)
    yvars = [MultiPoly.variable(n, i) for i in range(n)]
    quarter = Fraction(1, 4)
    profile = MultiPoly.const(n, 1) + quarter * (
        yvars[0] + yvars[0] * yvars[1] + yvars[1] * yvars[1] * yvars[2 % n]
    )
    grads = [profile.partial(i) for i in range(n)]
    hesses = [[grads[i].partial(j) for j in range(n)] for i in range(n)]

    log_t = []
    log_mag = []
    for k in exponents:
        t = Fraction(1, 2**k)
        point = [t * c for c in unit]
        value = profile.evaluate(point)
        grad = [g.evaluate(point) for g in grads]
        hess = [[hesses[i][j].evaluate(point) for j in range(n)] for i in range(n)]
        split = transformed_residual_exact(point, value, grad, hess, s)
        magnitude = abs(split.nonlinear_term)
        if magnitude == 0:
            raise ArithmeticError("degenerate profile: remainder vanished exactly")
        log_t.append(-k)
        log_mag.append(math.log2(float(magnitude)))

    mean_x = sum(log_t) / len(log_t)
    mean_y = sum(log_mag) / len(log_mag)
    slope = sum((x - mean_x) * (yv - mean_y) for x, yv in zip(log_t, log_mag)) / sum(
        (x - mean_x) ** 2 for x in log_t
    )
    return {
        "n": n,
        "seed": seed,
        "spectrum": [str(v) for v in s.values],
        "log2_t": log_t,
        "log2_remainder": log_mag,
        "slope": slope,
    }
