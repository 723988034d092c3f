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

On the ball side, H = A + |y|^n R M R with M = K + (L / |y|^2) y y^T
from the 2-jet of the profile v (`identity_parts`).  Expanding P(H) over
the principal minors of |y|^n R M R, with cross(z w, z' w) =
N(w) cross(z, z') and R_l^2 = 1 / g'(lambda_l) = N(z_l) / (kappa
cross(z_l, beta)), turns the theta-free form divided by gamma |y|^(n+2)
into one weighted sum of the principal minors of M on every kind:

    sum over nonempty S of W_S |y|^(n(|S|-1)-2) det M_S,
    W_S = kappa^(1-|S|) cross(prod_{l in S} z_l, beta^|S|) / prod_{l in S} cross(z_l, beta),

with z_l = alpha + beta lambda_l (`_minor_weights`).  W_S = 1 for
|S| = 1, so by the trace identity that part is trace(M) / |y|^2 = lap(v),
and the sizes >= 2 give the superlinearly small remainder.  On SLAG,
W_S = Im prod_{l in S} (lambda_l + i), rational on a rational spectrum;
for n = 3 the weights are 1, lambda_j + lambda_k and -(1 - sigma_2).

One body (`_split`) returns lap(v) = trace(hess) and the remainder
straight from the minors of size >= 2: over floats on any kind
(`transformed_residual`, on tuples and nested lists) and over rationals on
SLAG (`transformed_residual_exact`, rational jets and radius).  The same
sum runs fully symbolically on SLAG, in any n >= 3, in `WindowedResidual`,
which forms it one weight window at a time while v grows and can stop at
a weight ceiling.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from random import Random
from typing import NamedTuple, Sequence, Union

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
    scaling_matrix,
)
from .symfun import (
    MismatchError,
    _linear_coefficients_by_deleted_sum,
    _principal_minors,
    char_sigmas,
    random_spectrum,
)

__all__ = [
    "AlgebraicForm",
    "ResidualBreakdown",
    "WindowedResidual",
    "algebraic_residual",
    "notheta_residual",
    "linear_part_factor",
    "transformed_residual",
    "transformed_residual_exact",
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


class AlgebraicForm(NamedTuple):
    """A polynomialized residual of one branch, scale * cross(Z, P(H)) with
    P(H) = det(alpha + beta H) in the branch's plane algebra (`branch.row`):
    Z and scale are fixed at construction, so evaluation is pure
    determinant algebra.

    `coefficients` carries {x, y, scale}: Z = x + u y is Z_theta for the
    theta-carrying form and P(A) for the theta-free form.  `linear_part_defect`
    runs the SLAG theta-free form; the other forms' consumer is the float
    ``residual-scaling`` for RECIP, ATAN2 and LOG that ROADMAP.md keeps open.
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
    the branch's arctangent form.  No subcommand runs it yet: its consumer
    is the float ``residual-scaling`` for RECIP, ATAN2 and LOG that
    ROADMAP.md keeps open."""
    return float(AlgebraicForm.theta_carrying(branch, len(H), theta).residual(H))


def notheta_residual(branch: PhaseBranch, s, H) -> Scalar:
    """theta-free residual of H against the asymptotic model spectrum s;
    exact when the branch weights and every entry of H are rational.  No
    subcommand runs it yet: its consumer is the float ``residual-scaling``
    for RECIP, ATAN2 and LOG that ROADMAP.md keeps open."""
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
    `_FACTOR_RTOL` relative.  No subcommand runs it yet: its consumer is
    the float ``residual-scaling`` for RECIP, ATAN2 and LOG that ROADMAP.md
    keeps open."""
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

# the flat-phase row, whose weights are rational on a rational spectrum
_FLAT_ROW = PhaseBranch.slag(0.0).row


class ResidualBreakdown(NamedTuple):
    """theta-free residual at one jet, normalized by gamma |y|^(n+2), and
    split into the profile Laplacian plus the superlinear remainder."""

    laplace_term: Scalar
    nonlinear_term: Scalar
    total: Scalar
    linear_factor: Scalar


# dimensions the principal-minor residual (`_split`) takes.  Its Laplace
# expansion meets every minor of M and its weights every index set, so one
# jet's cost grows about 3x per dimension: on 2 shared CPUs one SLAG jet
# took 0.009 s (floats) and 0.050 s (rationals) at n = 8, 0.074 and 0.34 s
# at n = 10, 0.47 and 2.3 s at n = 12, and 1.4 and 5.6 s at n = 13
MAX_RESIDUAL_DIMENSION = 10


def _check_dimension(n: int) -> None:
    """ValueError, naming n, above MAX_RESIDUAL_DIMENSION."""
    if n > MAX_RESIDUAL_DIMENSION:
        raise ValueError(
            f"the principal-minor residual takes n <= {MAX_RESIDUAL_DIMENSION}, got n = {n}"
        )


def transformed_residual(jet: Jet2, frame: KelvinFrame) -> ResidualBreakdown:
    """Floating-point residual split at one jet of the ball-side profile,
    on any branch kind: the weighted principal-minor sum (`_split`) with
    the weights of the frame's row; gamma is `linear_part_factor`'s.
    ValueError above MAX_RESIDUAL_DIMENSION (`_check_dimension`).
    No subcommand runs it yet: its consumer is the float ``residual-scaling``
    for RECIP, ATAN2 and LOG that ROADMAP.md keeps open."""
    if jet.n != frame.n:
        raise ValueError(f"jet dimension {jet.n} does not match frame dimension {frame.n}")
    _check_dimension(frame.n)
    norm = _dot(jet.y, jet.y) ** 0.5
    weights = _minor_weights(frame.branch.row, frame.spectrum)
    return _split(*jet, weights, lambda k: norm**k, float(linear_part_factor(frame.branch, frame.spectrum)))


def _minor_weights(row: PhaseRow, vals) -> list:
    """The weights W_S of the principal minors of M in the normalized
    residual, by size: entry k is {S: W_S} over the index tuples S of size
    k, in the order of `symfun._principal_minors` (entry 0 is empty):

        W_S = kappa^(1-|S|) cross(prod_{l in S} z_l, beta^|S|) / prod_{l in S} cross(z_l, beta)

    with z_l = alpha + beta lambda_l in the row's plane algebra, so W_S = 1
    for |S| = 1.  The products over S extend those over S less its last
    index, one size down."""
    z = [tuple(a + b * lam for a, b in zip(row.alpha, row.beta)) for lam in vals]
    c = [row.cross(z_l, row.beta) for z_l in z]
    prods = {(): (row.unit, 1)}
    weights, beta_pow, kappa_pow = [{}], row.unit, 1
    for size in range(1, len(z) + 1):
        beta_pow, group = row.mul(beta_pow, row.beta), {}
        for S in combinations(range(len(z)), size):
            z_s, c_s = prods[S[:-1]]
            prods[S] = z_s, c_s = row.mul(z_s, z[S[-1]]), c_s * c[S[-1]]
            group[S] = row.cross(z_s, beta_pow) / (kappa_pow * c_s)
        weights.append(group)
        kappa_pow = kappa_pow * row.kappa
    return weights


def _flat_matrix(y, value, grad, hess, rpow):
    """M = K + (L / |y|^2) y y^T from the 2-jet (value, grad, hess) of v
    at y (`identity_parts`), with rpow(k) = |y|^k in the ring of the jet.
    M is linear in the jet, and a RadPoly jet of weight w gives entries of
    weight w (v's jet contracted with y and |y|^2 at matching weight)."""
    n = len(y)
    K, L = identity_parts(y, value, grad, hess, rpow(2))
    radial = L * rpow(-2)
    return [[K[i][j] + radial * (y[i] * y[j]) for j in range(n)] for i in range(n)]


def _minor_sum(minors, weights, sizes, rpow, zero):
    """sum over the sizes k in ``sizes`` and the S of size k of
    W_S |y|^(n(k-1)-2) det M_S, from the principal minors {S: det M_S}
    (`symfun._principal_minors`) and the weights (`_minor_weights`)."""
    n = len(weights) - 1
    total = zero
    for size in sizes:
        part = _sum((w * minors[S] for S, w in weights[size].items()), zero)
        total = total + part * rpow(n * (size - 1) - 2)
    return total


def _split(y, value, grad, hess, weights, rpow, gamma) -> ResidualBreakdown:
    """The normalized residual at the 2-jet (value, grad, hess) of v at y,
    with rpow(k) = |y|^k in the ring of the jet: lap(v) = trace(hess), and
    the remainder is the minor sum over |S| >= 2, never the difference of
    the total and lap(v)."""
    n = len(y)
    zero = 0 * value
    minors = _principal_minors(_flat_matrix(y, value, grad, hess, rpow))
    laplace = _sum((hess[i][i] for i in range(n)), zero)
    nonlinear = _minor_sum(minors, weights, range(2, n + 1), rpow, zero)
    return ResidualBreakdown(laplace, nonlinear, laplace + nonlinear, gamma)


def transformed_residual_exact(
    y: Sequence,
    value,
    grad: Sequence,
    hess: Sequence[Sequence],
    s,
) -> ResidualBreakdown:
    """Exact rational residual split for the flat-phase branch.

    Same contract as `transformed_residual` but every input is rational and
    |y| itself must be rational and nonzero (e.g. points t * unit rational
    vector); ValueError names a point at the origin.  The split is the
    same weighted principal-minor sum (`_split`), with SLAG's rational
    weights W_S = Im prod_{l in S} (lambda_l + i), so the irrational
    scaling R never appears and all arithmetic stays inside the rationals.
    ValueError above MAX_RESIDUAL_DIMENSION (`_check_dimension`).
    """
    yv = list(map(_as_fraction, y))
    vals = list(map(_as_fraction, s))
    if len(vals) != len(yv):
        raise ValueError("spectrum size must match the point dimension")
    _check_dimension(len(yv))
    if not any(yv):
        raise ValueError(f"the residual needs y in the punctured ball, got y = ({', '.join(map(str, yv))})")
    norm = _rational_sqrt(sum((c * c for c in yv), Fraction(0)))
    if norm is None:
        raise ValueError("exact evaluation needs |y| to be rational")
    gv = list(map(_as_fraction, grad))
    hv = [list(map(_as_fraction, row)) for row in hess]
    gamma = math.prod((1 + v * v for v in vals), start=Fraction(1))
    return _split(yv, _as_fraction(value), gv, hv, _minor_weights(_FLAT_ROW, vals), lambda k: norm**k, gamma)


# ── the fully symbolic residual ──────────────────────────────────────────


class WindowedResidual:
    """The exact normalized flat-phase residual of a radical polynomial v
    in n >= 3 variables (SLAG's weighted minor sum, `_minor_sum`), formed
    weight window by weight window while v grows.

    It holds M of the v added so far and every minor that the Laplace
    expansion of the principal minors meets (`symfun._principal_minors`).
    A size-k minor enters the residual at |y|^(n(k-1)-2), so the residual
    through weight W needs it only through weight W - n(k-1) + 2, and the
    minors are held through those ceilings of the largest W asked for.

    `add` adds M of an increment of v: M is linear in the jet and keeps
    weight, so only the increment's jet is formed.  `through` extends each
    minor of size >= 2 by the new window of weights only, and re-reads the
    size-1 part from M.  A held window stays exact only while no increment
    has a term at or below the ceiling of size 2, so `add` refuses one.
    """

    __slots__ = ("n", "_weights", "_y", "_one", "_m", "_minors", "_through")

    def __init__(self, s):
        vals = list(map(_as_fraction, s))
        n = len(vals)
        if n < 3:
            raise DimensionError(f"the symbolic residual needs n >= 3, got {n}")
        self.n, self._weights = n, _minor_weights(_FLAT_ROW, vals)
        self._y = [MultiPoly.variable(n, i) for i in range(n)]
        self._one = MultiPoly.const(n, 1)
        zero = RadPoly.zero(n)
        self._m = [[zero] * n for _ in range(n)]
        self._minors: dict = {}
        # the largest ceiling asked for: None before any, math.inf after the whole
        self._through = None

    def _rpow(self, k: int) -> RadPoly:
        return RadPoly(self.n, {k: self._one})

    def _ceiling(self, size: int, through):
        """The weight through which the size-``size`` minors serve the
        residual through weight ``through``."""
        return through - self.n * (size - 1) + 2

    def add(self, dv: RadPoly) -> None:
        """Add M of the increment ``dv`` of v.  ValueError names the weight
        of a term of ``dv`` below 0, or at or below the weight through
        which the size-2 minors are held."""
        if dv.n_vars != self.n:
            raise DimensionError(f"increment has {dv.n_vars} variables, expected {self.n}")
        if dv.is_zero:
            return
        least = min(map(sum, dv.keys()))
        if least < 0:
            raise ValueError(f"an increment term has negative weight {least}")
        if self._through is not None and least <= self._ceiling(2, self._through):
            raise ValueError(
                f"an increment term of weight {least} would change the minors of size 2, "
                f"held through weight {self._ceiling(2, self._through)}"
            )
        n = self.n
        grad = [dv.partial(i) for i in range(n)]
        hess = [[grad[i].partial(j) for j in range(n)] for i in range(n)]
        dm = _flat_matrix(self._y, dv, grad, hess, self._rpow)
        self._m = [[a + b for a, b in zip(row, drow)] for row, drow in zip(self._m, dm)]

    def through(self, ceiling: int | None = None) -> RadPoly:
        """The residual's terms of weight at most ``ceiling``, where
        |y|^k y^e has weight k + |e|; None gives the whole residual.
        Only the minors' terms above the ceilings held so far are formed;
        ValueError on a ceiling below one asked for before."""
        held = self._through
        through = math.inf if ceiling is None else ceiling
        if held is not None and through < held:
            raise ValueError(f"the minors are held through residual weight {held}, above {ceiling}")
        sizes = [k for k in range(1, self.n + 1) if self._ceiling(k, through) >= 0]
        ceilings = None if ceiling is None else [self._ceiling(k, through) for k in sizes]
        floors = None if held is None else [self._ceiling(k, held) + 1 for k in sizes]
        self._through = through
        minors = _principal_minors(self._m, ceilings, self._minors, floors)
        return _minor_sum(minors, self._weights, sizes, self._rpow, RadPoly.zero(self.n))


@lru_cache(maxsize=None)
def _linear_part_jet(n: int) -> tuple:
    """The spectrum-free half of `linear_part_defect` in n variables, over
    the jet indeterminates (y, v, g, h): the diagonal of
    |y|^2 M = |y|^2 K + L y y^T (`identity_parts`), and |y|^4 trace(h)."""
    yvar, vvar, gvar, hvar = jet_indeterminates(n)
    zero = MultiPoly.zero(yvar[0].n_vars)
    ysq = sum((c * c for c in yvar), zero)
    K, L = identity_parts(yvar, vvar, gvar, hvar, ysq)
    diagonal = tuple(K[i][i] * ysq + L * (yvar[i] * yvar[i]) for i in range(n))
    trace_h = sum((hvar[i][i] for i in range(n)), zero)
    return diagonal, ysq * ysq * trace_h


def linear_part_defect(s) -> MultiPoly:
    """The flat-phase linear-part identity in n = len(s) >= 2 variables.

    With jet indeterminates (y, v, g, h) and the radial weight treated as a
    formal first-order variable w (w^2 = 0), the w-linear coefficient of
    the theta-free form along H = A + w (|y|^2 M) R^2 must equal
    gamma |y|^4 trace(h), gamma = prod(1 + lambda_i^2).  Returns the
    difference as a polynomial over the jet variables (y, v, g and the
    upper triangle of h; 13 of them for n = 3); it is identically zero
    precisely when the linear part of the residual factors as
    gamma |y|^(n+2) lap(v).

    The form is linear in sigma_0 .. sigma_n of H, and by L31 the w-part
    of sigma_k is sum_i (|y|^2 M)_ii rho_i sigma_(k-1)(lambda without i),
    rho = 1 + lambda^2, so only the diagonal of |y|^2 M enters; it does
    not depend on the spectrum and is built once per n
    (`_linear_part_jet`)."""
    vals = list(map(_as_fraction, s))
    n = len(vals)
    if n < 2:
        raise DimensionError(f"the linear-part identity needs n >= 2, got {n}")
    diagonal, scaled_trace = _linear_part_jet(n)
    rho = [1 + v * v for v in vals]
    linear_sigmas = _linear_coefficients_by_deleted_sum(vals, [d * r for d, r in zip(diagonal, rho)])
    form = AlgebraicForm.eliminated(PhaseBranch.slag(0.0), n, vals)
    linear = form._at_det(_det_by_sigmas(form.branch.row, [0 * scaled_trace, *linear_sigmas]))
    gamma = math.prod(rho, start=Fraction(1))
    return linear - gamma * scaled_trace


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
