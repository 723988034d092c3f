"""The residual of the special Lagrangian equation near infinity.

The flat (SLAG) phase of a symmetric matrix H is the sum of arctan mu over
its eigenvalues, the argument of P(H) = det(I + i H) = E(H) + i O(H), with
E and O the alternating sums of sigma_0 .. sigma_n of H
(`symfun._alternating`).  Against the asymptotic model A = diag(lambda)
the equation becomes the theta-free form

    E(A) O(H) - O(A) E(H) = |P(A)| |P(H)| sin(phase(H) - phase(A)),

zero exactly when the phases match, with theta eliminated through the
model.  Its linear part along the ball-side Hessian is
gamma |y|^(n+2) lap(v), gamma = |P(A)|^2 = prod (1 + lambda^2), which
`linear_part_defect` checks over the jet indeterminates.

On the ball side, H = A + |y|^n R M R with R_l^2 = 1 + lambda_l^2 and
M = K + (L / |y|^2) y y^T from the 2-jet of the profile v
(`identity_parts`).  Expanding P(H) over the principal minors of
|y|^n R M R turns the theta-free form divided by gamma |y|^(n+2) into one
weighted sum of the principal minors of M:

    sum over nonempty S of W_S |y|^(n(|S|-1)-2) det M_S,
    W_S = Im prod_{l in S} (lambda_l + i),

rational on a rational spectrum (`_flat_minor_weights`); for n = 3 the
weights are 1, lambda_j + lambda_k and -(1 - sigma_2).  W_S = 1 for
|S| = 1, so by the trace identity that part is trace(M) / |y|^2 = lap(v),
and the sizes >= 2 give the superlinearly small remainder.

One body (`_split`) returns lap(v) = trace(hess) and the remainder
straight from the minors of size >= 2, over rationals
(`transformed_residual_exact`, rational jets and radius).  The same sum
runs fully symbolically, in any n >= 3, in `WindowedResidual`, which forms
it one weight window at a time while v grows and can stop at a weight
ceiling.  The other branch kinds of `kelvin.PhaseBranch` run in the radial
integrator and the Hessian identity check, not here.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from random import Random
from typing import NamedTuple, Sequence, Union

from .exactalg import DimensionError, MultiPoly, RadPoly, _as_fraction, _rational_sqrt, _sum
from .kelvin import identity_parts, jet_indeterminates
from .symfun import (
    _alternating,
    _linear_coefficients_by_deleted_sum,
    _principal_minors,
    _sigmas,
    random_spectrum,
)

__all__ = [
    "ResidualBreakdown",
    "WindowedResidual",
    "transformed_residual_exact",
    "linear_part_defect",
    "residual_scaling_slopes",
]


Scalar = Union[float, Fraction]


# ── the transformed residual on the ball side ────────────────────────────


class ResidualBreakdown(NamedTuple):
    """theta-free residual at one jet, normalized by gamma |y|^(n+2), and
    split into the profile Laplacian plus the superlinear remainder."""

    laplace_term: Scalar
    nonlinear_term: Scalar
    total: Scalar
    linear_factor: Scalar


# dimensions the principal-minor residual (`_split`) takes.  Its Laplace
# expansion meets every minor of M and its weights every index set, so one
# jet's cost grows about 3x per dimension: on 2 shared CPUs one rational
# jet took 0.050 s at n = 8, 0.34 s at n = 10, 2.3 s at n = 12 and 5.6 s
# at n = 13
MAX_RESIDUAL_DIMENSION = 10


def _check_dimension(n: int) -> None:
    """ValueError, naming n, above MAX_RESIDUAL_DIMENSION."""
    if n > MAX_RESIDUAL_DIMENSION:
        raise ValueError(
            f"the principal-minor residual takes n <= {MAX_RESIDUAL_DIMENSION}, got n = {n}"
        )


@lru_cache(maxsize=64)
def _flat_minor_weights(vals: tuple[Fraction, ...]) -> list:
    """The weights W_S = Im prod_{l in S} (lambda_l + i) of the principal
    minors of M in the normalized residual at an exact spectrum, by size:
    entry k is {S: W_S} over the index tuples S of size k, in the order of
    `symfun._principal_minors` (entry 0 is empty), so W_S = 1 for |S| = 1.
    The product over S extends the one over S less its last index.  Formed
    once per spectrum; callers read it and do not mutate it.  Only
    Fractions enter: a float equal to one would hash alike and be served
    its weights."""
    prods = {(): (Fraction(1), Fraction(0))}
    weights = [{}]
    for size in range(1, len(vals) + 1):
        group = {}
        for S in combinations(range(len(vals)), size):
            re, im = prods[S[:-1]]
            lam = vals[S[-1]]
            prods[S] = re * lam - im, re + im * lam
            group[S] = prods[S][1]
        weights.append(group)
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
    (`symfun._principal_minors`) and the weights (`_flat_minor_weights`)."""
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

    The theta-free form at the 2-jet (value, grad, hess) of v at y,
    divided by gamma |y|^(n+2) with gamma = prod (1 + lambda^2), and split
    into lap(v) and the remainder.  Every input is rational, and |y|
    itself must be rational and nonzero (e.g. points t * unit rational
    vector); ValueError names a point at the origin.  The split is the
    weighted principal-minor sum (`_split`) with the rational weights
    W_S = Im prod_{l in S} (lambda_l + i), so the irrational scaling R
    never appears and all arithmetic stays inside the rationals.
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
    return _split(yv, _as_fraction(value), gv, hv, _flat_minor_weights(tuple(vals)), lambda k: norm**k, gamma)


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
        self.n, self._weights = n, _flat_minor_weights(tuple(vals))
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

    The form E(A) O(H) - O(A) E(H) is linear in sigma_0 .. sigma_n of H
    (`symfun._alternating`), and by L31 the w-part of sigma_k is
    sum_i (|y|^2 M)_ii rho_i sigma_(k-1)(lambda without i),
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
    e_a, o_a = _alternating(_sigmas(vals, 1))
    e_linear, o_linear = _alternating([0 * scaled_trace, *linear_sigmas])
    linear = e_a * o_linear - o_a * e_linear
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
