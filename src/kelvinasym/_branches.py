"""Scalar eigenvalue maps of the four operator branches.

Each branch applies a strictly increasing map g to every Hessian eigenvalue
and sums the results; the branch families differ in g and in the admissible
eigenvalue ray.  This module keeps the per-branch scalar functions (g, its
derivative, its inverse, and the admissibility bound) and the plane-algebra
row behind the residual forms in one place, keyed by the branch kind
string, so the geometric and numerical layers never duplicate a formula.

Kinds and their slope parameter tau:

  LOG    0 < tau < pi/4,  a = cot(tau) > 1,  b = sqrt(a^2 - 1)
  RECIP  tau = pi/4,      a = 1,             b = 0
  ATAN2  pi/4 < tau < pi/2, 0 < a < 1,       b = sqrt(1 - a^2)
  SLAG   tau = pi/2,      a = 0,             b = 1

Each kind is also a row (eps, alpha, beta, kappa) of the plane algebra
x + u y, u^2 = eps (complex, dual or split-complex numbers), with
g(lambda) = kappa arg(alpha + beta lambda), arg(x + u y) = atan2(y, x),
y / x or artanh(y / x) for eps = -1, 0, +1 (`phase_row`):

  kind   eps  alpha             beta   kappa
  SLAG   -1   1                 u      1
  ATAN2  -1   (a+b) + u (a-b)   1 + u  sqrt(a^2 + 1) / b
  RECIP   0   1 + u             1      -sqrt(2)
  LOG    +1   a + u b           1      -sqrt(a^2 + 1) / b

The residual forms of the equations module are cross products
x_Z y_P - y_Z x_P with P(H) = det(alpha + beta H)
= sum_k sigma_k(H) beta^k alpha^(n-k); the row carries their scales too.
g, g_prime and g_inverse keep their closed forms and range checks (they
are the radial hot path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

KINDS = ("LOG", "RECIP", "ATAN2", "SLAG")

_QUARTER = math.pi / 4
_HALF = math.pi / 2
_TAU_TOL = 1e-12


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


def check_tau(kind: str, tau: float) -> None:
    """Validate that the slope parameter lies in the interval of the kind."""
    if kind not in KINDS:
        raise ValueError(f"unknown branch kind {kind!r}")
    if kind == "SLAG":
        ok = abs(tau - _HALF) <= _TAU_TOL
    elif kind == "RECIP":
        ok = abs(tau - _QUARTER) <= _TAU_TOL
    elif kind == "ATAN2":
        ok = _QUARTER + _TAU_TOL < tau < _HALF - _TAU_TOL
    else:  # LOG
        ok = _TAU_TOL < tau < _QUARTER - _TAU_TOL
    if not ok:
        raise ValueError(f"slope parameter tau={tau} is not in the {kind} interval")


def default_tau(kind: str) -> float | None:
    """The slope parameter when the kind determines it, else None."""
    if kind == "SLAG":
        return _HALF
    if kind == "RECIP":
        return _QUARTER
    return None


def shift_params(kind: str, tau: float) -> tuple[float, float]:
    """(a, b) = (cot tau, sqrt|a^2 - 1|), exact at the two pinned kinds."""
    check_tau(kind, tau)
    if kind == "SLAG":
        return 0.0, 1.0
    if kind == "RECIP":
        return 1.0, 0.0
    a = math.cos(tau) / math.sin(tau)
    return a, math.sqrt(abs(a * a - 1.0))


def admissible_lower(kind: str, a: float, b: float) -> float | None:
    """Open lower bound of the eigenvalue domain (None when unconstrained)."""
    if kind == "SLAG":
        return None
    if kind == "RECIP":
        return -1.0
    if kind == "ATAN2":
        return -(a + b)
    return b - a  # LOG


@dataclass(frozen=True)
class PhaseRow:
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


def phase_row(kind: str, a: float, b: float) -> PhaseRow:
    """The row of a kind (module docstring).  SLAG and RECIP are integer
    rows with Fraction s_free, so their theta-free forms stay exact."""
    if kind == "SLAG":
        return PhaseRow(-1, (1, 0), (0, 1), 1, Fraction(1), 1)
    if kind == "RECIP":
        return PhaseRow(0, (1, 1), (1, 0), -math.sqrt(2.0), Fraction(1), -math.sqrt(2.0))
    if kind == "ATAN2":
        return PhaseRow(-1, (a + b, a - b), (1, 1), math.sqrt(a * a + 1.0) / b, 1, -1)
    # LOG: alpha = a + u b and beta = 1 in null coordinates
    return PhaseRow(1, (a + b, a - b), (1, 1), -math.sqrt(a * a + 1.0) / b, -2, -1)


def _check_lambda(kind: str, a: float, b: float, lam: float) -> None:
    lower = admissible_lower(kind, a, b)
    if lower is not None and lam <= lower:
        raise DomainError(f"eigenvalue {lam} is not above the {kind} bound {lower}")


def g(kind: str, a: float, b: float, lam: float) -> float:
    """The branch eigenvalue map."""
    _check_lambda(kind, a, b, lam)
    if kind == "SLAG":
        return math.atan(lam)
    if kind == "RECIP":
        return -math.sqrt(2.0) / (1.0 + lam)
    if kind == "ATAN2":
        scale = math.sqrt(a * a + 1.0) / b
        return scale * math.atan((lam + a - b) / (lam + a + b))
    scale = math.sqrt(a * a + 1.0) / (2.0 * b)
    return scale * math.log((lam + a - b) / (lam + a + b))


def g_prime(kind: str, a: float, b: float, lam: float) -> float:
    """Derivative of the branch eigenvalue map (always positive)."""
    _check_lambda(kind, a, b, lam)
    if kind == "SLAG":
        return 1.0 / (1.0 + lam * lam)
    if kind == "RECIP":
        return math.sqrt(2.0) / (1.0 + lam) ** 2
    if kind == "ATAN2":
        lo = lam + a - b
        hi = lam + a + b
        return 2.0 * math.sqrt(a * a + 1.0) / (hi * hi + lo * lo)
    # summed as the row sums alpha + beta lambda: lambda + (a - b) is exact near the bound
    return math.sqrt(a * a + 1.0) / ((lam + (a - b)) * (lam + (a + b)))


def g_inverse(kind: str, a: float, b: float, t: float) -> float:
    """Inverse of the branch eigenvalue map; DomainError outside the range."""
    if kind == "SLAG":
        if not -_HALF < t < _HALF:
            raise DomainError(f"inverse argument {t} outside (-pi/2, pi/2)")
        return math.tan(t)
    if kind == "RECIP":
        if t >= 0.0:
            raise DomainError(f"inverse argument {t} must be negative")
        return -math.sqrt(2.0) / t - 1.0
    if kind == "ATAN2":
        s = t * b / math.sqrt(a * a + 1.0)
        if not -_HALF < s < _QUARTER:
            raise DomainError(f"inverse argument {t} outside the branch range")
        mu = math.tan(s)
    else:  # LOG
        if t >= 0.0:
            raise DomainError(f"inverse argument {t} must be negative")
        mu = math.exp(2.0 * b * t / math.sqrt(a * a + 1.0))
    return (mu * (a + b) - (a - b)) / (1.0 - mu)
