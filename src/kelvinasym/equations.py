"""Algebraic residual forms of the transformed equations.

Each branch's fully nonlinear equation F(D^2 u) = theta is polynomialized
into two determinant-style forms evaluated on a Hessian matrix H:

  theta-carrying   zero exactly when the phase of H equals theta;
  theta-free       zero exactly when the phase of H matches the phase of
                   the asymptotic model A = diag(lambda), with theta
                   eliminated through the model.

Both come from one determinant.  Each kind is a row of the plane algebra
x + u y, u^2 = eps, with g(lambda) = kappa arg(alpha + beta lambda)
(`_branches.phase_row`):

  kind   eps  alpha             beta   kappa
  SLAG   -1   1                 u      1
  ATAN2  -1   (a+b) + u (a-b)   1 + u  sqrt(a^2 + 1) / b
  RECIP   0   1 + u             1      -sqrt(2)
  LOG    +1   a + u b           1      -sqrt(a^2 + 1) / b

With P(H) = det(alpha + beta H) = sum_k sigma_k(H) beta^k alpha^(n-k) and
cross(Z, P) = x_Z y_P - y_Z x_P, the theta-free form is
s_free cross(P(A), P(H)), the theta-carrying form s_carry cross(Z_theta,
P(H)), and the linear-part factor gamma = s_free N(P(A)) / kappa with
N(x + u y) = x^2 - eps y^2.  Exact matrices take the sigma_k from
`char_sigmas`; spectra and float matrices take P as prod (alpha + beta mu)
over the eigenvalues.  Integer rows (SLAG, RECIP) keep rational input exact.

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

from ._branches import PhaseRow, phase_row
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
    _Dual,
    _principal_minors,
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
    """Normalize a matrix argument; returns (rows, exact) where `exact` says
    H is nested lists whose every entry is a rational number."""
    if isinstance(H, np.ndarray):
        if H.shape != (n, n):
            raise ValueError(f"matrix must be {n} x {n}")
        return H, False
    rows = [list(row) for row in H]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ValueError(f"matrix must be {n} x {n}")
    return rows, all(_is_exact(v) for row in rows for v in row)


def _require_symmetric(mat: np.ndarray) -> None:
    if np.abs(mat - mat.T).max() > 1e-9 * max(1.0, np.abs(mat).max()):
        raise ValueError("floating-point evaluation needs a symmetric matrix")


def _spectrum_values(s) -> list:
    """Fractions when every value is rational, else floats."""
    vals = list(s.values) if isinstance(s, Spectrum) else list(s)
    if all(_is_exact(v) for v in vals):
        return [Fraction(v) for v in vals]
    return [float(v) for v in vals]


# ── the two residual forms ───────────────────────────────────────────────


def _row(branch: PhaseBranch) -> PhaseRow:
    return phase_row(branch.kind, branch.a, branch.b)


def _det_by_sigmas(row: PhaseRow, sig) -> tuple:
    """P = det(alpha + beta H) = sum_k sigma_k(H) beta^k alpha^(n-k) from
    sigma_0 .. sigma_n of H in any exact ring (`char_sigmas`)."""
    alpha_pow, beta_pow = [row.unit], [row.unit]
    for _ in sig[1:]:
        alpha_pow.append(row.mul(alpha_pow[-1], row.alpha))
        beta_pow.append(row.mul(beta_pow[-1], row.beta))
    x = y = 0 * sig[0]
    for s, b_pow, a_pow in zip(sig, beta_pow, reversed(alpha_pow)):
        cx, cy = row.mul(b_pow, a_pow)
        # a zero part would still cost a ring product (MultiPoly duals)
        if cx:
            x = x + s * cx
        if cy:
            y = y + s * cy
    return x, y


def _det_by_values(row: PhaseRow, values) -> tuple:
    """P = prod (alpha + beta v) over the eigenvalues v: the same det, for
    spectra and floating-point matrices.  Expanding in sigma_k there would
    round away small factors, such as 1 + lambda near the RECIP bound."""
    out = row.unit
    for v in values:
        out = row.mul(out, (row.alpha[0] + row.beta[0] * v, row.alpha[1] + row.beta[1] * v))
    return out


@dataclass(frozen=True)
class AlgebraicForm:
    """A polynomialized residual of one branch, scale * cross(Z, P(H)) with
    P(H) = det(alpha + beta H) in the branch's plane algebra (row table in
    `_branches`): Z and scale are fixed at construction, so evaluation is
    pure determinant algebra.

    `coefficients` carries {x, y, scale}: Z = x + u y is Z_theta for the
    theta-carrying form and P(A) for the theta-free form.
    """

    branch: PhaseBranch
    n: int
    theta_free: bool
    coefficients: dict

    @classmethod
    def theta_carrying(cls, branch: PhaseBranch, n: int, theta: float) -> "AlgebraicForm":
        """The form that vanishes exactly on matrices of phase theta."""
        row = _row(branch)
        x, y = row.carrier(float(theta))
        coeff = {"x": x, "y": y, "scale": row.s_carry}
        return cls(branch=branch, n=n, theta_free=False, coefficients=coeff)

    @classmethod
    def eliminated(cls, branch: PhaseBranch, n: int, s) -> "AlgebraicForm":
        """The theta-free form, with theta eliminated through the phase of
        the asymptotic model spectrum s."""
        row = _row(branch)
        vals = _spectrum_values(s)
        if len(vals) != n:
            raise ValueError("spectrum size must match the form dimension")
        x, y = _det_by_values(row, vals)
        coeff = {"x": x, "y": y, "scale": row.s_free}
        return cls(branch=branch, n=n, theta_free=True, coefficients=coeff)

    def residual(self, H) -> Scalar:
        """Evaluate the form on a Hessian matrix.

        Floating-point matrices must be symmetric; exact rational matrices
        may be arbitrary square (diagonal-similarity images of symmetric
        matrices are fine) and keep the evaluation exact whenever the
        stored weights are exact."""
        rows, exact = _matrix_rows(H, self.n)
        row = _row(self.branch)
        if exact and all(_is_exact(v) for v in self.coefficients.values()):
            sig = char_sigmas([[Fraction(v) for v in line] for line in rows], Fraction(1))
            p = _det_by_sigmas(row, sig)
        else:
            floats = np.asarray(rows, dtype=float)
            _require_symmetric(floats)
            p = _det_by_values(row, (float(v) for v in np.linalg.eigvalsh(floats)))
        return self._at_det(p)

    def _at_det(self, p):
        """The form at P(H) = p: scale * cross(Z, p), in the ring of p."""
        c = self.coefficients
        return c["scale"] * _row(self.branch).cross((c["x"], c["y"]), p)


def algebraic_residual(branch: PhaseBranch, H, theta: float) -> float:
    """theta-carrying residual of a symmetric matrix; zero (to rounding)
    exactly when the branch phase of H equals theta, modulo the period of
    the branch's arctangent form."""
    return float(AlgebraicForm.theta_carrying(branch, len(H), theta).residual(H))


def notheta_residual(branch: PhaseBranch, s, H) -> Scalar:
    """theta-free residual of H against the asymptotic model spectrum s;
    exact when the branch weights and every entry of H are rational."""
    return AlgebraicForm.eliminated(branch, len(H), s).residual(H)


# ── the linear-part factor ───────────────────────────────────────────────


def linear_part_factor(branch: PhaseBranch, s) -> Scalar:
    """The constant gamma multiplying |y|^(n+2) lap(v) in the linear part
    of the theta-free residual along H = A + |y|^n N.

    Exact for the flat-phase branch with rational spectrum, floating point
    otherwise.  Before returning, the closed form is verified against a
    direct t-interpolation of the theta-free residual along H = A + t N
    with N the image of a canonical unit-Hessian jet; MismatchError if the
    two routes disagree beyond 1e-9 relative."""
    vals = _spectrum_values(s)
    n = len(vals)
    row = _row(branch)
    c = AlgebraicForm.eliminated(branch, n, vals).coefficients
    gamma = c["scale"] * row.norm((c["x"], c["y"])) / row.kappa  # s_free N(P(A)) / kappa

    # interpolation route: a jet with hess = I, value 0, gradient 0 maps to
    # N = |y|^2 R^2, so the t-slope of the residual equals n |y|^2 gamma
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
    form = AlgebraicForm.eliminated(PhaseBranch.slag(0.0), n, vals)
    p_h = _det_by_sigmas(_row(form.branch), char_sigmas(pencil, _Dual(Fraction(1), zero)))
    linear = form._at_det(p_h).b
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
