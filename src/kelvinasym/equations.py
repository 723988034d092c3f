"""Algebraic residual forms of the transformed equations.

Each branch's fully nonlinear equation F(D^2 u) = theta is polynomialized
into two determinant-style forms evaluated on a Hessian matrix H:

  theta-carrying   zero exactly when the phase of H equals theta;
  theta-free       zero exactly when the phase of H matches the phase of
                   the asymptotic model A = diag(lambda), with theta
                   eliminated through the model.

Both come from one determinant.  Each kind is a row (eps, alpha, beta,
kappa) of the plane algebra x + u y, u^2 = eps, with
g(lambda) = kappa arg(alpha + beta lambda); the table of rows is in the
docstring of `kelvin.PhaseBranch`, and each branch carries its row.
With P(H) = det(alpha + beta H) = sum_k sigma_k(H) beta^k alpha^(n-k) and
cross(Z, P) = x_Z y_P - y_Z x_P, the theta-free form is
s_free cross(P(A), P(H)), the theta-carrying form s_carry cross(Z_theta,
P(H)), and the linear-part factor gamma = s_free N(P(A)) / kappa with
N(x + u y) = x^2 - eps y^2.  Exact matrices take the sigma_k from
`char_sigmas`; spectra and float matrices take P as prod (alpha + beta mu)
over the eigenvalues, a float matrix's from cyclic Jacobi rotations over
nested lists (`_symmetric_eigenvalues`).  Integer rows (SLAG, RECIP) keep
rational input exact.

On the ball side, H = A + |y|^n N(jet) and the theta-free form divides by
gamma |y|^(n+2), where gamma is the linear-part factor: the residual then
splits into the Laplacian of the profile plus a superlinearly small
remainder.  The split is produced in floating point, on tuples and nested
lists, by `transformed_residual` (N from `kelvin.matrices_MNKL`), and on
the flat-phase branch exactly, in one formula (`_flat_residual`), by
`transformed_residual_exact` (rational jets, rational radius) and fully
symbolically, in any n >= 3, by `symbolic_residual`, which can stop at a
weight ceiling.  Since
E_H + i O_H = det(I + iH) and |det(I + iA)|^2 = gamma, the flat-phase
residual along H = A + |y|^n M R^2 is a weighted sum of the principal
minors of M:

    sum over nonempty S of w_S |y|^(n(|S|-1)-2) det M_S,
    w_S = Im prod_{l in S} (lambda_l + i),

whose |S| = 1 part is trace(M) / |y|^2 = lap(v); for n = 3 the weights
are 1, lambda_j + lambda_k and -(1 - sigma_2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from random import Random
from typing import Sequence, Union

from .exactalg import (
    DimensionError,
    MultiPoly,
    RadPoly,
    _as_fraction,
    _dot,
    _is_rational,
    _rational_sqrt,
    _sum,
)
from .kelvin import (
    Jet2,
    KelvinFrame,
    PhaseBranch,
    PhaseRow,
    identity_parts,
    jet_indeterminates,
    matrices_MNKL,
    scaling_matrix,
)
from .symfun import (
    MismatchError,
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
    "symbolic_residual",
    "linear_part_defect",
    "residual_scaling_slopes",
]


Scalar = Union[float, Fraction]


# ── matrix and value plumbing ────────────────────────────────────────────


def _rotation(app: float, aqq: float, apq: float) -> tuple[float, float, float]:
    """(t, cos, sin) of the rotation p, q -> cos p - sin q, sin p + cos q that
    zeroes apq != 0 in [[app, apq], [apq, aqq]], leaving app - t apq, aqq + t apq."""
    zeta = (aqq - app) / (2.0 * apq)
    t = math.copysign(1.0, zeta) / (abs(zeta) + math.hypot(1.0, zeta))
    cos = 1.0 / math.hypot(1.0, t)
    return t, cos, cos * t


def _symmetric_eigenvalues(rows) -> list[float]:
    """Eigenvalues of a real symmetric matrix, ascending, by cyclic Jacobi
    rotations of its lower triangle's rows; ValueError names the first
    entry that is not a finite float, and refuses a matrix that is not
    symmetric to 1e-9 of its largest entry (at least 1)."""
    a = [[float(v) for v in row] for row in rows]
    n = len(a)
    for i, row in enumerate(a):
        for j, v in enumerate(row):
            if not math.isfinite(v):
                raise ValueError(f"matrix entry ({i}, {j}) is {v}, not a finite float")
    largest = max((abs(v) for row in a for v in row), default=0.0)
    if any(abs(a[i][j] - a[j][i]) > 1e-9 * max(1.0, largest) for i in range(n) for j in range(i)):
        raise ValueError("floating-point evaluation needs a symmetric matrix")
    a = [[a[max(i, j)][min(i, j)] for j in range(n)] for i in range(n)]
    # sweeps until none rotates: over 3000 random matrices (n = 2..12,
    # scales 1e-300 to 1e300, half clustered within 1e-12) at most 8 ran
    for _ in range(50):
        rotated = False
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) <= 1e-18 * largest:
                    continue
                rotated = True
                app, aqq = a[p][p], a[q][q]
                t, cos, sin = _rotation(app, aqq, apq)
                rp, rq = a[p], a[q]
                a[p] = [cos * u - sin * w for u, w in zip(rp, rq)]
                a[q] = [sin * u + cos * w for u, w in zip(rp, rq)]
                for r in a:
                    r[p], r[q] = cos * r[p] - sin * r[q], sin * r[p] + cos * r[q]
                a[p][p], a[q][q] = app - t * apq, aqq + t * apq
                a[p][q] = a[q][p] = 0.0
        if not rotated:
            break
    return sorted(a[i][i] for i in range(n))


def _spectrum_values(s) -> list:
    """Fractions when every value is rational, else floats."""
    vals = list(s)
    if all(map(_is_rational, vals)):
        return list(map(_as_fraction, vals))
    return [float(v) for v in vals]


# ── the two residual forms ───────────────────────────────────────────────


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
    P(H) = det(alpha + beta H) in the branch's plane algebra (`branch.row`):
    Z and scale are fixed at construction, so evaluation is pure
    determinant algebra.

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
        row = branch.row
        x, y = row.carrier(float(theta))
        coeff = {"x": x, "y": y, "scale": row.s_carry}
        return cls(branch=branch, n=n, theta_free=False, coefficients=coeff)

    @classmethod
    def eliminated(cls, branch: PhaseBranch, n: int, s) -> "AlgebraicForm":
        """The theta-free form, with theta eliminated through the phase of
        the asymptotic model spectrum s."""
        row = branch.row
        vals = _spectrum_values(s)
        if len(vals) != n:
            raise ValueError("spectrum size must match the form dimension")
        x, y = _det_by_values(row, vals)
        coeff = {"x": x, "y": y, "scale": row.s_free}
        return cls(branch=branch, n=n, theta_free=True, coefficients=coeff)

    def residual(self, H) -> Scalar:
        """Evaluate the form on a Hessian matrix.

        Floating-point matrices must be finite and symmetric; exact
        rational matrices may be arbitrary square (diagonal-similarity
        images of symmetric matrices are fine) and keep the evaluation
        exact whenever the stored weights are exact."""
        rows = [list(line) for line in H]
        if len(rows) != self.n or any(len(line) != self.n for line in rows):
            raise ValueError(f"matrix must be {self.n} x {self.n}")
        row = self.branch.row
        if all(map(_is_rational, [*(v for line in rows for v in line), *self.coefficients.values()])):
            sig = char_sigmas([list(map(_as_fraction, line)) for line in rows], Fraction(1))
            p = _det_by_sigmas(row, sig)
        else:
            p = _det_by_values(row, _symmetric_eigenvalues(rows))
        return self._at_det(p)

    def _at_det(self, p):
        """The form at P(H) = p: scale * cross(Z, p), in the ring of p."""
        c = self.coefficients
        return c["scale"] * self.branch.row.cross((c["x"], c["y"]), p)


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

# relative bound of the slope self-check in `linear_part_factor`.  Over 3000
# random admissible spectra per kind (n = 2..12, each eigenvalue's gap to
# the bound log-uniform in [1e-6, 1e3], for LOG also [1e-9, 1e3], seed 1)
# the two routes differ by at most 1.2e-15 relative on RECIP, 1.4e-15 on
# SLAG, 3.4e-14 on ATAN2 and 4.1e-14 on LOG, whose R sums lambda + (a - b)
# exactly near the bound (`PhaseBranch.g_prime`)
_FACTOR_RTOL = 1e-9


def linear_part_factor(branch: PhaseBranch, s) -> Scalar:
    """The constant gamma multiplying |y|^(n+2) lap(v) in the linear part
    of the theta-free residual along H = A + |y|^n N.

    Exact for the flat-phase branch with rational spectrum, floating point
    otherwise.  Before returning, the row norm s_free N(P(A)) / kappa is
    checked against the t-slope of the theta-free residual along
    H(t) = diag(lambda + t c), c = R^2 / 4, the image of a canonical
    unit-Hessian jet; MismatchError if the two disagree beyond
    `_FACTOR_RTOL` relative."""
    vals = _spectrum_values(s)
    n = len(vals)
    row = branch.row
    form = AlgebraicForm.eliminated(branch, n, vals)
    c = form.coefficients
    gamma = c["scale"] * row.norm((c["x"], c["y"])) / row.kappa  # s_free N(P(A)) / kappa

    # slope route: a jet with hess = I, value 0, gradient 0 at |y|^2 = 1/4
    # maps to N = R^2 / 4, so the t-slope of the residual equals n gamma / 4.
    # Along H(t) = diag(lambda + t c) the det P(H(t)) = prod (z_i + t c_i beta),
    # z_i = alpha + beta lambda_i, has slope sum c_i beta w_i with w_i the
    # product of the other z_j, and P(A) = z_i w_i.  Since
    # cross(z w, z' w) = N(w) cross(z, z') in each plane algebra, the slope
    # of s_free cross(P(A), P(H(t))) is s_free sum c_i N(w_i) cross(z_i, beta):
    # its terms share one sign, so no two of them cancel
    floats = [float(v) for v in vals]
    z = [tuple(a + b * lam for a, b in zip(row.alpha, row.beta)) for lam in floats]
    norms = [row.norm(z_i) for z_i in z]
    slope = _sum(
        0.25 * r * r * math.prod(norms[:i] + norms[i + 1 :]) * row.cross(z_i, row.beta)
        for i, (z_i, r) in enumerate(zip(z, scaling_matrix(branch, floats)))
    )
    slope = float(c["scale"] * slope) / (0.25 * n)
    if abs(slope - float(gamma)) > _FACTOR_RTOL * abs(float(gamma)):
        raise MismatchError(
            f"linear-part factor routes disagree: {gamma} vs path slope {slope}"
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
    norm = _dot(jet.y, jet.y) ** 0.5
    weight = norm**n
    H = [
        [(lam if i == j else 0.0) + weight * entry for j, entry in enumerate(row)]
        for i, (lam, row) in enumerate(zip(frame.spectrum, N))
    ]
    gamma = float(linear_part_factor(frame.branch, frame.spectrum))
    raw = float(notheta_residual(frame.branch, frame.spectrum, H))
    total = raw / (gamma * norm ** (n + 2))
    laplace = _sum(jet.hess[i][i] for i in range(n))
    return ResidualBreakdown(
        laplace_term=laplace,
        nonlinear_term=total - laplace,
        total=total,
        linear_factor=gamma,
    )


def _flat_weight(vals, subset) -> Fraction:
    """w_S = Im prod_{l in S} (lambda_l + i)."""
    re, im = Fraction(1), Fraction(0)
    for l in subset:
        re, im = re * vals[l] - im, re + im * vals[l]
    return im


def _flat_residual(y, value, grad, hess, vals, rpow, ceiling=None):
    """The flat-phase theta-free residual along H = A + |y|^n M R^2,
    normalized by gamma |y|^(n+2), from the 2-jet (value, grad, hess) of v
    at y and the rational spectrum vals of A:

        sum over nonempty S of w_S |y|^(n(|S|-1)-2) det M_S,
        w_S = Im prod_{l in S} (lambda_l + i).

    It follows from E_H + i O_H = det(I + iH), R^2 = diag(1 + lambda^2) and
    conj(det(I + iA)) det(I + iA) = gamma.  The |S| = 1 part is
    trace(M) / |y|^2, which is lap(v) by the trace identity.  rpow(k)
    is |y|^k in the ring of the jet; only +, - and * touch the entries, so
    the same code runs over Fraction and RadPoly jets.

    A RadPoly jet of weights >= 0 gives entries of M with weights >= 0
    (M is v's jet contracted with y and |y|^2 at matching weight), so with
    a weight ``ceiling`` W a size-j minor, which enters at
    |y|^(n(j-1)-2), is needed only through weight W - n(j-1) + 2, and the
    sizes where that is negative are skipped."""
    n = len(y)
    zero = 0 * value
    K, L = identity_parts(y, value, grad, hess, rpow(2))
    radial = L * rpow(-2)
    m = [[K[i][j] + radial * (y[i] * y[j]) for j in range(n)] for i in range(n)]
    ceilings = None
    if ceiling is not None:
        ceilings = [c for c in (ceiling - n * (j - 1) + 2 for j in range(1, n + 1)) if c >= 0]
    minors = _principal_minors(m, ceilings)
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
    yv = list(map(_as_fraction, y))
    n = len(yv)
    vals = list(map(_as_fraction, s))
    if len(vals) != n:
        raise ValueError("spectrum size must match the point dimension")
    gv = list(map(_as_fraction, grad))
    hv = [list(map(_as_fraction, row)) for row in hess]
    norm = _rational_sqrt(sum((c * c for c in yv), Fraction(0)))
    if norm is None:
        raise ValueError("exact evaluation needs |y| to be rational")

    total = _flat_residual(yv, _as_fraction(value), gv, hv, vals, lambda k: norm**k)
    laplace = sum((hv[i][i] for i in range(n)), Fraction(0))
    return ResidualBreakdown(
        laplace_term=laplace,
        nonlinear_term=total - laplace,
        total=total,
        linear_factor=math.prod((1 + v * v for v in vals), start=Fraction(1)),
    )


# ── the fully symbolic residual ──────────────────────────────────────────


def symbolic_residual(P: MultiPoly, Q: MultiPoly, s, ceiling: int | None = None) -> RadPoly:
    """The exact normalized flat-phase residual of v = P + |y|^(n-2) Q in
    n = P.n_vars >= 3 variables (`_flat_residual`); for n = 3 that is

        lap(v) + |y| sum_{j<k} (lambda_j + lambda_k) det M_{jk}
               - |y|^4 (1 - sigma_2(A)) det M.

    P and Q are polynomials in the n ball variables with rational
    coefficients; the result is a radical polynomial in the same variables
    and every coefficient is exact; in even n it has no odd slot.

    With a weight ``ceiling`` W, the result is the residual's terms of
    weight at most W, where |y|^k y^e has weight k + |e| (the full
    residual's `RadPoly.truncate`): terms above W are dropped in the
    entries of M, in each size of minor and inside every product, so they
    are never formed.  None computes the whole residual."""
    n = P.n_vars
    vals = list(map(_as_fraction, s))
    if n < 3 or Q.n_vars != n or len(vals) != n:
        raise DimensionError(f"need P, Q and s of one size n >= 3, got {n}, {Q.n_vars}, {len(vals)}")
    yvars = [MultiPoly.variable(n, i) for i in range(n)]
    v = RadPoly(n, {0: P, n - 2: Q})
    grad = [v.partial(i) for i in range(n)]
    hess = [[grad[i].partial(j) for j in range(n)] for i in range(n)]
    one = MultiPoly.const(n, 1)
    return _flat_residual(yvars, v, grad, hess, vals, lambda k: RadPoly(n, {k: one}), ceiling)


def linear_part_defect(s) -> RadPoly:
    """The flat-phase linear-part identity in n = len(s) >= 2 variables.

    With jet indeterminates (y, v, g, h) and the radial weight treated as a
    formal first-order variable w (a dual number, w^2 = 0), the w-linear
    coefficient of the theta-free form along H = A + w (|y|^2 M) R^2 must
    equal gamma |y|^4 trace(h), gamma = prod(1 + lambda_i^2).  Returns the
    difference over the jet variables (y, v, g and the upper triangle of
    h; 13 of them for n = 3); it is identically zero precisely when the
    linear part of the residual factors as gamma |y|^(n+2) lap(v)."""
    vals = list(map(_as_fraction, s))
    n = len(vals)
    if n < 2:
        raise DimensionError(f"the linear-part identity needs n >= 2, got {n}")
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
    p_h = _det_by_sigmas(form.branch.row, char_sigmas(pencil, _Dual(Fraction(1), zero)))
    linear = form._at_det(p_h).b
    gamma = math.prod(rho, start=Fraction(1))
    trace_h = sum((hvar[i][i] for i in range(n)), zero)
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

    mean_x = _sum(log_t) / len(log_t)
    mean_y = _sum(log_mag) / len(log_mag)
    slope = _sum((x - mean_x) * (yv - mean_y) for x, yv in zip(log_t, log_mag)) / _sum(
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
