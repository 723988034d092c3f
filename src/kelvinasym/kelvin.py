"""The modified inversion transform between exterior and punctured-ball
solutions.

A solution with quadratic growth on an exterior domain is written as

    u(x) = (1/2) x^T A x + b.x + c + |y|^(n-2) v(y),      y = Rx / |Rx|^2,

where A = diag(lambda) is the Hessian at infinity and R is a positive
diagonal scaling matrix built from the operator branch.  The central fact
(checked numerically here and symbolically in the equations module) is the
exact Hessian identity

    D^2 u (x) = A + |y|^n N(y),      N = R M(y) R,

with M assembled from the second-order jet of v at y alone.  This module
holds the branch/frame containers, the scaled inversion y = Rx / |Rx|^2, the
one ring-generic builder of the identity's K and L (every float, exact and
symbolic route assembles M from it), the finite-difference verification
of the Hessian identity, and the symbolic trace identity that pins the
linear part of the transformed operator.

Every float route runs on Python floats over tuples and nested lists, one
point at a time, and adds up with `exactalg._sum` and `exactalg._dot`
(|p|^2 is ``_dot(p, p)``), so the per-point routes round alike, and alike
on every interpreter.  `hessian_identity_check` draws from one
`random.Random(seed)`, sample after sample: the direction as n
`gauss(0.0, 1.0)` values, then the radius as `uniform(1.2, 3.0)`; it
assembles N = R M R from `identity_parts` at each sample.
"""

from __future__ import annotations

import math
import operator
import random
from fractions import Fraction
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence, Union

from .exactalg import MultiPoly, _dot, _sum
from .symfun import Spectrum

__all__ = [
    "AdmissibilityError",
    "DomainError",
    "HessianReport",
    "Jet2",
    "KelvinFrame",
    "PhaseBranch",
    "PhaseRow",
    "ScalarMaps",
    "ZeroPointError",
    "hessian_identity_check",
    "identity_parts",
    "jet_indeterminates",
    "poly_jet",
    "scaling_matrix",
    "trace_identity_defect",
]


class ZeroPointError(ValueError):
    """The inversion map was evaluated at the origin."""


class AdmissibilityError(ValueError):
    """An eigenvalue lies outside the open admissible ray of the branch."""


class DomainError(ValueError):
    """An eigenvalue or inverse argument fell outside the branch domain.

    Failures raised while integrating a radial trajectory attach the
    radius at which the violation occurred (`radius`) and the states
    recorded before it (`trajectory`); both are None otherwise.
    """

    def __init__(self, message: str, radius=None, trajectory=None) -> None:
        super().__init__(message)
        self.radius = radius
        self.trajectory = trajectory


SpectrumLike = Union[Spectrum, Sequence[float]]


def _lambda_floats(s: SpectrumLike) -> tuple[float, ...]:
    return tuple(float(v) for v in s)


# ── branches ─────────────────────────────────────────────────────────────

_QUARTER = math.pi / 4
_HALF = math.pi / 2
_TAU_TOL = 1e-12
# the kinds whose slope parameter is pinned
_PINNED_TAU = {"SLAG": _HALF, "RECIP": _QUARTER}


class PhaseRow(NamedTuple):
    """One kind in the plane algebra: g(lambda) = kappa arg(alpha + beta lambda).

    Elements are pairs: (x, y) for eps <= 0, and the null coordinates
    (x + y, x - y) for eps = +1, whose products are componentwise; in (x, y)
    LOG near its bound would round det(H + a - b) away against
    det(H + a + b).  The theta-free form is s_free cross(P(A), P(H)), the
    theta-carrying one s_carry cross(Z_theta, P(H))."""

    eps: int
    alpha: tuple
    beta: tuple
    kappa: float
    s_free: Fraction | int
    s_carry: float

    @property
    def unit(self) -> tuple:
        return (1, 1) if self.eps > 0 else (1, 0)

    def mul(self, z, w) -> tuple:
        if self.eps > 0:
            return z[0] * w[0], z[1] * w[1]
        return z[0] * w[0] + self.eps * z[1] * w[1], z[0] * w[1] + z[1] * w[0]

    def cross(self, z, w):
        """x_z y_w - y_z x_w."""
        if self.eps > 0:
            return (z[1] * w[0] - z[0] * w[1]) / 2
        return z[0] * w[1] - z[1] * w[0]

    def norm(self, z):
        """N(x + u y) = x^2 - eps y^2."""
        return z[0] * z[1] if self.eps > 0 else z[0] * z[0] - self.eps * z[1] * z[1]

    def carrier(self, theta: float) -> tuple:
        """Z_theta of argument phi = theta / kappa: (cos phi, sin phi),
        (1, phi) or (1 + e^(-2 phi), 1 - e^(-2 phi)) for eps = -1, 0, +1,
        the last in null coordinates."""
        phi = theta / self.kappa
        if self.eps < 0:
            return math.cos(phi), math.sin(phi)
        return (1.0, phi) if self.eps == 0 else (2.0, 2.0 * math.exp(-2.0 * phi))


class _PhaseBranchFields(NamedTuple):
    kind: str
    tau: float
    theta: float
    a: float
    b: float
    row: PhaseRow


class PhaseBranch(_PhaseBranchFields):
    """One operator branch: kind, slope parameter tau and phase theta.

    Each branch applies a strictly increasing map g to every Hessian
    eigenvalue and sums the results; the kinds differ in g and in the
    admissible eigenvalue ray.  The shift parameters (a, b) and the
    plane-algebra `row` are derived from (kind, tau) at construction:

      LOG    0 < tau < pi/4,    a = cot(tau) > 1,  b = sqrt(a^2 - 1)
      RECIP  tau = pi/4,        a = 1,             b = 0
      ATAN2  pi/4 < tau < pi/2, 0 < a < 1,         b = sqrt(1 - a^2)
      SLAG   tau = pi/2,        a = 0,             b = 1

    Each kind is a row (eps, alpha, beta, kappa) of the plane algebra
    x + u y, u^2 = eps (complex, dual or split-complex numbers), with
    g(lambda) = kappa arg(alpha + beta lambda), arg(x + u y) = atan2(y, x),
    y / x or artanh(y / x) for eps = -1, 0, +1:

      kind   eps  alpha             beta   kappa
      SLAG   -1   1                 u      1
      ATAN2  -1   (a+b) + u (a-b)   1 + u  sqrt(a^2 + 1) / b
      RECIP   0   1 + u             1      -sqrt(2)
      LOG    +1   a + u b           1      -sqrt(a^2 + 1) / b

    The residual forms of the equations module are cross products
    x_Z y_P - y_Z x_P with P(H) = det(alpha + beta H)
    = sum_k sigma_k(H) beta^k alpha^(n-k); the row carries their scales
    too.  SLAG and RECIP are integer rows with Fraction s_free, so their
    theta-free forms stay exact.  g, g_prime and g_inverse keep their
    closed forms and range checks; `maps` holds them as plain functions,
    built once per (kind, a, b), for the radial hot path.

    Use `PhaseBranch.make` (or the `slag` / `recip` shorthands); the
    constructor validates that tau sits in the interval of the kind.
    """

    __slots__ = ()

    def __new__(cls, kind: str, tau: float, theta: float) -> "PhaseBranch":
        if kind == "SLAG":
            ok = abs(tau - _HALF) <= _TAU_TOL
        elif kind == "RECIP":
            ok = abs(tau - _QUARTER) <= _TAU_TOL
        elif kind == "ATAN2":
            ok = _QUARTER + _TAU_TOL < tau < _HALF - _TAU_TOL
        elif kind == "LOG":
            ok = _TAU_TOL < tau < _QUARTER - _TAU_TOL
        else:
            raise ValueError(f"unknown branch kind {kind!r}")
        if not ok:
            raise ValueError(f"slope parameter tau={tau} is not in the {kind} interval")
        if not math.isfinite(theta):
            raise ValueError(f"phase theta={theta} is not finite")
        # (a, b) = (cot tau, sqrt|a^2 - 1|), exact at the two pinned kinds
        if kind == "SLAG":
            a, b = 0.0, 1.0
            row = PhaseRow(-1, (1, 0), (0, 1), 1, Fraction(1), 1)
        elif kind == "RECIP":
            a, b = 1.0, 0.0
            row = PhaseRow(0, (1, 1), (1, 0), -math.sqrt(2.0), Fraction(1), -math.sqrt(2.0))
        else:
            a = math.cos(tau) / math.sin(tau)
            b = math.sqrt(abs(a * a - 1.0))
            kappa = math.sqrt(a * a + 1.0) / b
            if kind == "ATAN2":
                row = PhaseRow(-1, (a + b, a - b), (1, 1), kappa, 1, -1)
            else:  # LOG: alpha = a + u b and beta = 1 in null coordinates
                row = PhaseRow(1, (a + b, a - b), (1, 1), -kappa, -2, -1)
        return super().__new__(cls, kind, tau, theta, a, b, row)

    def __getnewargs__(self) -> tuple:
        # copy and pickle rebuild a branch from the constructor's arguments
        return self.kind, self.tau, self.theta

    @classmethod
    def make(cls, kind: str, theta: float, tau: float | None = None) -> "PhaseBranch":
        kind = kind.upper()
        if tau is None:
            tau = _PINNED_TAU.get(kind)
            if tau is None:
                raise ValueError(f"branch kind {kind!r} needs an explicit tau")
        return cls(kind=kind, tau=tau, theta=float(theta))

    @classmethod
    def slag(cls, theta: float) -> "PhaseBranch":
        return cls.make("SLAG", theta)

    @classmethod
    def recip(cls, theta: float) -> "PhaseBranch":
        return cls.make("RECIP", theta)

    # scalar eigenvalue maps -------------------------------------------------

    @property
    def maps(self) -> "ScalarMaps":
        """This branch's bound and eigenvalue maps as plain functions, built
        once per (kind, a, b): a loop that applies them many times reads
        them here once."""
        return _scalar_maps(self.kind, self.a, self.b)

    def admissible_lower(self) -> float | None:
        """Open lower eigenvalue bound (None for the unconstrained kind)."""
        return self.maps.lower

    # g, g_inverse and phase are the closed forms that the tests check
    # `maps` and the radial integrator against; no subcommand calls them

    def g(self, lam: float) -> float:
        """The eigenvalue map of this branch."""
        return self.maps.g(lam)

    def g_prime(self, lam: float) -> float:
        """Derivative of the eigenvalue map (always positive)."""
        return self.maps.g_prime(lam)

    def g_inverse(self, t: float) -> float:
        """Inverse of the eigenvalue map; DomainError outside its range."""
        return self.maps.g_inverse(t)

    def phase(self, eigenvalues: Sequence[float]) -> float:
        """Sum of the eigenvalue map over a full set of eigenvalues."""
        return _sum(self.g(float(v)) for v in eigenvalues)

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind, "theta": self.theta}
        if self.kind not in _PINNED_TAU:
            out["tau"] = self.tau
        return out


class ScalarMaps(NamedTuple):
    """One branch's open lower eigenvalue bound (None for SLAG) and its
    eigenvalue map g, derivative g_prime and inverse g_inverse as functions
    of one float.  g and g_prime raise DomainError at or below the bound,
    g_inverse outside the range of g."""

    lower: float | None
    g: Callable[[float], float]
    g_prime: Callable[[float], float]
    g_inverse: Callable[[float], float]


def _above(kind: str, lower: float, f: Callable[[float], float]) -> Callable[[float], float]:
    """f on the admissible ray: DomainError names an eigenvalue at or below
    the bound."""

    def checked(lam: float) -> float:
        if lam <= lower:
            raise DomainError(f"eigenvalue {lam} is not above the {kind} bound {lower}")
        return f(lam)

    return checked


@lru_cache(maxsize=64)
def _scalar_maps(kind: str, a: float, b: float) -> ScalarMaps:
    """The `ScalarMaps` of a kind at shift (a, b), in closed form.  Only
    factors that every call would compute alike are taken out of the
    closures, so each map rounds as its formula reads."""
    if kind == "SLAG":

        def g_prime(lam: float) -> float:
            return 1.0 / (1.0 + lam * lam)

        def g_inverse(t: float) -> float:
            if not -_HALF < t < _HALF:
                raise DomainError(f"inverse argument {t} outside (-pi/2, pi/2)")
            return math.tan(t)

        return ScalarMaps(None, math.atan, g_prime, g_inverse)
    if kind == "RECIP":
        root2 = math.sqrt(2.0)

        def g(lam: float) -> float:
            return -root2 / (1.0 + lam)

        def g_prime(lam: float) -> float:
            return root2 / (1.0 + lam) ** 2

        def g_inverse(t: float) -> float:
            if t >= 0.0:
                raise DomainError(f"inverse argument {t} must be negative")
            return -root2 / t - 1.0

        lower = -1.0
        return ScalarMaps(lower, _above(kind, lower, g), _above(kind, lower, g_prime), g_inverse)
    root = math.sqrt(a * a + 1.0)
    a_plus_b, a_minus_b = a + b, a - b

    def shifted_inverse(mu: float) -> float:
        # lambda from the Moebius coordinate mu = (lambda + a - b) / (lambda + a + b)
        return (mu * a_plus_b - a_minus_b) / (1.0 - mu)

    if kind == "ATAN2":
        scale, twice = root / b, 2.0 * root

        def g(lam: float) -> float:
            return scale * math.atan((lam + a - b) / (lam + a + b))

        def g_prime(lam: float) -> float:
            lo = lam + a - b
            hi = lam + a + b
            return twice / (hi * hi + lo * lo)

        def g_inverse(t: float) -> float:
            s = t * b / root
            if not -_HALF < s < _QUARTER:
                raise DomainError(f"inverse argument {t} outside the branch range")
            return shifted_inverse(math.tan(s))

        lower = -a_plus_b
    else:  # LOG
        scale, twice_b = root / (2.0 * b), 2.0 * b

        def g(lam: float) -> float:
            return scale * math.log((lam + a - b) / (lam + a + b))

        def g_prime(lam: float) -> float:
            # summed as the row sums alpha + beta lambda: lambda + (a - b) is exact near the bound
            return root / ((lam + a_minus_b) * (lam + a_plus_b))

        def g_inverse(t: float) -> float:
            if t >= 0.0:
                raise DomainError(f"inverse argument {t} must be negative")
            return shifted_inverse(math.exp(twice_b * t / root))

        lower = b - a
    return ScalarMaps(lower, _above(kind, lower, g), _above(kind, lower, g_prime), g_inverse)


def scaling_matrix(branch: PhaseBranch, s: SpectrumLike) -> list[float]:
    """Diagonal entries of the positive scaling matrix R.

    Every branch uses the same rule R_ii = g'(lambda_i)^(-1/2); eigenvalues
    must sit strictly inside the admissible ray, and g'(lambda_i) must be a
    positive finite float (it underflows to 0 for a huge eigenvalue), else
    AdmissibilityError names the eigenvalue.
    """
    out = []
    for lam in _lambda_floats(s):
        try:
            slope = branch.g_prime(lam)
        except DomainError as exc:
            raise AdmissibilityError(str(exc)) from None
        if not (math.isfinite(slope) and slope > 0.0):
            raise AdmissibilityError(
                f"eigenvalue {lam} gives g'(lambda) = {slope}, not a positive finite float"
            )
        out.append(1.0 / math.sqrt(slope))
    return out


# ── frames and point maps ────────────────────────────────────────────────


class KelvinFrame:
    """Everything fixed by the quadratic part of an exterior solution:
    dimension, Hessian spectrum at infinity, branch, the derived scaling
    matrix R, and the affine tail (linear coefficient and constant)."""

    __slots__ = ("n", "spectrum", "branch", "R", "linear", "constant")

    def __init__(
        self,
        branch: PhaseBranch,
        spectrum: SpectrumLike,
        linear: Sequence[float] | None = None,
        constant: float = 0.0,
    ):
        lambdas = _lambda_floats(spectrum)
        if len(lambdas) < 2:
            raise ValueError("a frame needs dimension n >= 2")
        self.n = len(lambdas)
        self.spectrum = lambdas
        self.branch = branch
        if linear is None:
            linear = [0.0] * self.n
        self.linear = tuple(float(v) for v in linear)
        if len(self.linear) != self.n:
            raise ValueError("linear coefficient must have length n")
        self.constant = float(constant)
        for v in (*lambdas, *self.linear, self.constant):
            if not math.isfinite(v):
                raise ValueError(f"frame value {v} is not finite (eigenvalues, b and c must be)")
        self.R = scaling_matrix(branch, lambdas)

    def __repr__(self) -> str:
        return (
            f"KelvinFrame(n={self.n}, kind={self.branch.kind}, "
            f"lambda={list(self.spectrum)})"
        )


def _invert(point: Sequence[float], r: Sequence[float]) -> tuple[float, ...]:
    """y = Rx / |Rx|^2 for one exterior point x, ``r`` the diagonal of a
    checked R; ZeroPointError at the origin."""
    if len(point) != len(r):
        raise ValueError("point and scaling diagonal must have the same length")
    z = list(map(operator.mul, r, map(float, point)))
    norm_sq = _dot(z, z)
    if norm_sq == 0.0:
        raise ZeroPointError("the inversion map is singular at the origin")
    return tuple([c / norm_sq for c in z])


def _u_at(frame: KelvinFrame, v: Callable[[tuple[float, ...]], float], x: list[float]) -> float:
    """The exterior solution's value at one point x, given as a list of
    floats, from the ball-side profile v:

        u(x) = x^T A x / 2 + b.x + c + |y|^(n-2) v(y),   y = Rx / |Rx|^2.

    ``v`` takes the image y as a tuple of floats."""
    y = _invert(x, frame.R)
    quad = 0.5 * _dot(map(operator.mul, frame.spectrum, x), x)
    affine = _dot(frame.linear, x) + frame.constant
    return quad + affine + _dot(y, y) ** ((frame.n - 2) / 2.0) * float(v(y))


# ── second-order jets and the Hessian identity ───────────────────────────


class _Jet2Fields(NamedTuple):
    y: tuple[float, ...]
    value: float
    grad: tuple[float, ...]
    hess: tuple[tuple[float, ...], ...]


class Jet2(_Jet2Fields):
    """Second-order data of the ball-side profile at one point of the
    punctured unit ball: value, gradient, and symmetric Hessian, as a float,
    a tuple and a tuple of rows; each must be finite.  The float
    `transformed_residual` takes it; see its docstring for the consumer."""

    __slots__ = ()

    def __new__(cls, y, value, grad, hess) -> "Jet2":
        y, grad = tuple(map(float, y)), tuple(map(float, grad))
        value, hess = float(value), tuple(tuple(map(float, row)) for row in hess)
        n = len(y)
        if len(grad) != n or len(hess) != n or any(len(row) != n for row in hess):
            raise ValueError("jet shapes are inconsistent")
        if not math.isfinite(value):
            raise ValueError(f"jet value {value} is not finite")
        for i, g in enumerate(grad):
            if not math.isfinite(g):
                raise ValueError(f"jet gradient entry {i} is {g}, not finite")
        for i, row in enumerate(hess):
            for j, h in enumerate(row):
                if not math.isfinite(h):
                    raise ValueError(f"jet Hessian entry ({i}, {j}) is {h}, not finite")
        norm = _dot(y, y) ** 0.5
        if not 0.0 < norm < 1.0:
            raise ValueError(f"jet base point must lie in the punctured unit ball, |y|={norm}")
        if any(abs(hess[i][j] - hess[j][i]) > 1e-12 for i in range(n) for j in range(i)):
            raise ValueError("jet Hessian must be symmetric to 1e-12")
        return super().__new__(cls, y, value, grad, hess)

    @property
    def n(self) -> int:
        return len(self.y)


def _jet_evaluator(v: MultiPoly):
    """The function taking a float point y to the 2-jet (value, grad,
    hess) of v there, as a float and lists; v is differentiated once, and
    each derivative's `float_evaluator` is built once."""
    n = v.n_vars
    grads = [v.partial(i) for i in range(n)]
    value_at = v.float_evaluator()
    grad_at = [g.float_evaluator() for g in grads]
    second = [(i, j, grads[i].partial(j).float_evaluator()) for i in range(n) for j in range(i, n)]

    def at(y):
        hess = [[0.0] * n for _ in range(n)]
        for i, j, p in second:
            hess[i][j] = hess[j][i] = p(y)
        return value_at(y), [g(y) for g in grad_at], hess

    return at


def poly_jet(v: MultiPoly, y: Sequence[float]) -> Jet2:
    """The second-order jet of a polynomial profile at a ball point, as the
    float `transformed_residual` takes it; see its docstring for the
    consumer."""
    yv = [float(c) for c in y]
    if len(yv) != v.n_vars:
        raise ValueError(f"point has length {len(yv)}, polynomial has {v.n_vars} variables")
    return Jet2(yv, *_jet_evaluator(v)(yv))


def identity_parts(y, value, grad, hess, ysq):
    """K and L of the Hessian identity at the 2-jet (value, grad, hess) of
    v at the ball point y, where ysq is |y|^2:

        L    = n (n-2) v + 4n y.g + 4 y^T h y
        K_ij = -((n-2) v + 2 y.g) delta_ij - n (y_i g_j + y_j g_i)
               - 2 (y_i (hy)_j + y_j (hy)_i) + |y|^2 h_ij

    so that M = K + (L / |y|^2) y y^T.  Returns (K, L) with K as nested
    lists; hess must be symmetric, and K is built for i <= j and mirrored.
    Only +, -, * and integer scalars are used, and in a product of a jet
    entry with a coordinate or ysq the jet entry is the left operand, so
    the same code runs over floats, Fractions, MultiPoly and RadPoly (a
    RadPoly jet over MultiPoly coordinates, with ysq a RadPoly)."""
    n = len(y)
    zero = 0 * value
    ydotg = _sum((grad[i] * y[i] for i in range(n)), zero)
    hy = [_sum((hess[i][j] * y[j] for j in range(n)), zero) for i in range(n)]
    yhy = _sum((hy[i] * y[i] for i in range(n)), zero)
    L = n * (n - 2) * value + 4 * n * ydotg + 4 * yhy
    diag = (n - 2) * value + 2 * ydotg
    K = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            K[i][j] = K[j][i] = (
                hess[i][j] * ysq
                - n * (grad[j] * y[i] + grad[i] * y[j])
                - 2 * (hy[j] * y[i] + hy[i] * y[j])
            )
        K[i][i] = K[i][i] - diag
    return K, L


def jet_indeterminates(n: int):
    """Polynomial indeterminates (y, v, g, h) for a 2-jet in n variables.
    The variable space is y_1..y_n, v, g_1..g_n, then the Hessian entries
    h_11, h_12, .., h_nn upper-triangular row-major; h comes back as a
    symmetric n x n nested list."""
    total = 2 * n + 1 + n * (n + 1) // 2
    var = [MultiPoly.variable(total, k) for k in range(total)]
    h = [[None] * n for _ in range(n)]
    slot = 2 * n + 1
    for i in range(n):
        for j in range(i, n):
            h[i][j] = h[j][i] = var[slot]
            slot += 1
    return var[:n], var[n], var[n + 1 : 2 * n + 1], h


class HessianReport(NamedTuple):
    """Worst deviations of the finite-difference exterior Hessian from the
    assembled identity A + |y|^n N over a sample of exterior points."""

    max_abs_deviation: float
    max_rel_deviation: float
    samples: int
    fd_step: float


# Stencil coordinates one `hessian_identity_check` may visit: each sample
# evaluates u at 2n^2 + 1 points of n coordinates, one point at a time.  On
# 2 shared CPUs a unit took 3.5-4.8 us at n = 2, 2.4-2.9 us at n = 3,
# 1.6-1.7 us at n = 4 and 0.37-0.43 us at n = 100 (per-point overhead
# dominates small n), so the cap is 28-38 s at n = 2 and under 25 s from
# n = 3 on.  The widest stencil it admits (one sample at n = 158)
# took 2.9 s at a peak RSS of 25 MB.
MAX_FD_WORK = 8_000_000


def check_fd_work(n: int, samples: int) -> None:
    """ValueError, naming the count, unless a check of ``samples`` points
    in n dimensions stays within MAX_FD_WORK stencil coordinates."""
    work = samples * (2 * n * n + 1) * n
    if work > MAX_FD_WORK:
        raise ValueError(
            f"{samples} samples in dimension {n} visit {work} stencil coordinates "
            f"(samples x (2n^2 + 1) x n), more than {MAX_FD_WORK}"
        )


def hessian_identity_check(
    frame: KelvinFrame,
    v: MultiPoly,
    samples: int = 100,
    fd_step: float = 1e-4,
    seed: int = 0,
) -> HessianReport:
    """Compare central finite differences of u against A + |y|^n N at random
    exterior points; reports deviations, never raises on a bad match.

    One `random.Random(seed)` draws, sample after sample, the direction as
    n `gauss(0.0, 1.0)` values and then the radius as `uniform(1.2, 3.0)`;
    a point whose image would leave the ball (|Rx| < 1.05) is pushed out
    to |Rx| = 1.05.  The exact side evaluates the jet of v at the image on
    floats and assembles the upper triangle of N = R M R from
    `identity_parts`, entry (i, j) as (r_i r_j) (K_ij + (L / |y|^2)
    (y_i y_j)); at each stencil point u is evaluated by `_u_at`, with v's
    `float_evaluator` as the profile.  Every float operation is the one a
    per-point route (`poly_jet`, that assembly, `_u_at` with
    ``v.evaluate``) performs, so the report equals that route's.  A
    sample whose deviation is not finite (an overflow, or inf - inf)
    counts as an infinite deviation, so it cannot pass any tolerance.
    ValueError unless samples >= 1, fd_step is a positive finite number
    and the stencil stays within MAX_FD_WORK (`check_fd_work`)."""
    if v.n_vars != frame.n:
        raise ValueError("profile polynomial dimension does not match the frame")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not (math.isfinite(fd_step) and fd_step > 0.0):
        raise ValueError(f"finite-difference step must be positive and finite, got {fd_step}")
    n = frame.n
    check_fd_work(n, samples)
    rng = random.Random(seed)
    r = frame.R
    h = fd_step
    jet_at = _jet_evaluator(v)
    v_at = v.float_evaluator()

    max_abs = 0.0
    max_rel = 0.0
    for _ in range(samples):
        direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
        scale = rng.uniform(1.2, 3.0) / _dot(direction, direction) ** 0.5
        x = [c * scale for c in direction]
        # keep the image strictly inside the unit ball: |Rx| >= 1.05
        rx = [ri * c for ri, c in zip(r, x)]
        image_norm = _dot(rx, rx) ** 0.5
        if image_norm < 1.05:
            x = [c * (1.05 / image_norm) for c in x]

        y = _invert(x, r)
        ysq = _dot(y, y)
        K, L = identity_parts(y, *jet_at(y), ysq)
        ratio = L / ysq
        # A + |y|^n N with N = R M R, M = K + (L / |y|^2) y y^T, upper triangle only
        weight = ysq ** (n / 2.0)
        exact = {
            (i, j): weight * ((r[i] * r[j]) * (K[i][j] + ratio * (y[i] * y[j])))
            for i in range(n)
            for j in range(i, n)
        }
        for i, lam in enumerate(frame.spectrum):
            exact[i, i] += lam

        def u_at(*steps):
            """u at x moved by each (coordinate, step) pair."""
            p = list(x)
            for i, step in steps:
                p[i] += step
            return _u_at(frame, v_at, p)

        u0 = u_at()
        fd = {}
        for i in range(n):
            fd[i, i] = (u_at((i, h)) - 2.0 * u0 + u_at((i, -h))) / (h * h)
            for j in range(i + 1, n):
                pp = u_at((i, h), (j, h))
                pm = u_at((i, h), (j, -h))
                mp = u_at((i, -h), (j, h))
                mm = u_at((i, -h), (j, -h))
                fd[i, j] = (pp - pm - mp + mm) / (4.0 * h * h)

        deviations = [abs(fd[key] - value) for key, value in exact.items()]
        # max() would drop a NaN, so a non-finite deviation enters as inf
        if all(map(math.isfinite, deviations)):
            abs_dev = max(deviations)
            rel_dev = abs_dev / max(max(abs(value) for value in exact.values()), 1e-8)
        else:
            abs_dev = rel_dev = math.inf
        max_abs = max(max_abs, abs_dev)
        max_rel = max(max_rel, rel_dev)
    return HessianReport(
        max_abs_deviation=max_abs,
        max_rel_deviation=max_rel,
        samples=samples,
        fd_step=fd_step,
    )


# ── the symbolic trace identity ──────────────────────────────────────────


def trace_identity_defect(n: int) -> MultiPoly:
    """trace(M) - |y|^2 lap(v), with the jet entries as indeterminates.

    The variable space is that of `jet_indeterminates(n)`.  The only
    inverse power in trace(M) is the (L / |y|^2) y y^T part, whose trace is
    exactly L, so the defect is an ordinary polynomial over the jet
    variables, the zero polynomial precisely when the trace identity
    holds.  No subcommand runs it: `tests/test_acceptance.py` checks it for
    n = 3..6 until the exact check of the whole Hessian identity that
    ROADMAP.md plans replaces it.
    """
    if n < 2:
        raise ValueError("the trace identity needs n >= 2")
    y, v, g, h = jet_indeterminates(n)
    zero = MultiPoly.zero(v.n_vars)
    ysq = sum((c * c for c in y), zero)
    K, L = identity_parts(y, v, g, h, ysq)
    trace_m = sum((K[i][i] for i in range(n)), L)
    return trace_m - ysq * sum((h[i][i] for i in range(n)), zero)
