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
holds the branch/frame containers, the forward and backward point maps, the
one ring-generic builder of the identity's K and L (every float, exact and
symbolic route assembles M from it), the finite-difference verification
of the Hessian identity, and the symbolic trace identity that pins the
linear part of the transformed operator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Union

import numpy as np

from . import _branches
from ._branches import DomainError
from .exactalg import MultiPoly, RadPoly
from .symfun import Spectrum

__all__ = [
    "AdmissibilityError",
    "DomainError",
    "HessianReport",
    "Jet2",
    "KelvinFrame",
    "PhaseBranch",
    "ZeroPointError",
    "hessian_identity_check",
    "identity_parts",
    "jet_indeterminates",
    "kelvin_map",
    "matrices_MNKL",
    "poly_jet",
    "scaling_matrix",
    "trace_identity_defect",
    "u_from_v",
]


class ZeroPointError(ValueError):
    """The inversion map was evaluated at the origin."""


class AdmissibilityError(ValueError):
    """An eigenvalue lies outside the open admissible ray of the branch."""


SpectrumLike = Union[Spectrum, Sequence[float]]


def _lambda_floats(s: SpectrumLike) -> tuple[float, ...]:
    if isinstance(s, Spectrum):
        return tuple(float(v) for v in s.values)
    return tuple(float(v) for v in s)


# ── branches ─────────────────────────────────────────────────────────────


@dataclass(frozen=True)
class PhaseBranch:
    """One operator branch: kind, slope parameter tau, phase theta, and the
    derived shift parameters (a, b).

    Use `PhaseBranch.make` (or the `slag` / `recip` shorthands); the
    constructor validates that tau sits in the interval of the kind and
    that (a, b) match the values recomputed from tau to 1e-12.
    """

    kind: str
    tau: float
    theta: float
    a: float
    b: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.theta):
            raise ValueError(f"phase theta={self.theta} is not finite")
        _branches.check_tau(self.kind, self.tau)
        a, b = _branches.shift_params(self.kind, self.tau)
        if abs(a - self.a) > 1e-12 or abs(b - self.b) > 1e-12:
            raise ValueError(
                f"shift parameters ({self.a}, {self.b}) do not match tau={self.tau}"
            )

    @classmethod
    def make(cls, kind: str, theta: float, tau: float | None = None) -> "PhaseBranch":
        kind = kind.upper()
        if tau is None:
            tau = _branches.default_tau(kind)
            if tau is None:
                raise ValueError(f"branch kind {kind!r} needs an explicit tau")
        a, b = _branches.shift_params(kind, tau)
        return cls(kind=kind, tau=tau, theta=float(theta), a=a, b=b)

    @classmethod
    def slag(cls, theta: float) -> "PhaseBranch":
        return cls.make("SLAG", theta)

    @classmethod
    def recip(cls, theta: float) -> "PhaseBranch":
        return cls.make("RECIP", theta)

    # scalar eigenvalue maps -------------------------------------------------

    def g(self, lam: float) -> float:
        """The eigenvalue map of this branch."""
        return _branches.g(self.kind, self.a, self.b, lam)

    def g_prime(self, lam: float) -> float:
        return _branches.g_prime(self.kind, self.a, self.b, lam)

    def g_inverse(self, t: float) -> float:
        return _branches.g_inverse(self.kind, self.a, self.b, t)

    def admissible_lower(self) -> float | None:
        """Open lower eigenvalue bound (None for the unconstrained kind)."""
        return _branches.admissible_lower(self.kind, self.a, self.b)

    def phase(self, eigenvalues: Sequence[float]) -> float:
        """Sum of the eigenvalue map over a full set of eigenvalues."""
        return sum(self.g(float(v)) for v in eigenvalues)

    # serialization ----------------------------------------------------------

    def to_json(self) -> dict:
        out = {"kind": self.kind, "theta": self.theta}
        if _branches.default_tau(self.kind) is None:
            out["tau"] = self.tau
        return out

    @classmethod
    def from_json(cls, data) -> "PhaseBranch":
        """Inverse of ``to_json``; ValueError names a malformed record."""
        try:
            kind = str(data["kind"]).upper()
            theta = float(data["theta"])
            tau = data.get("tau")
            return cls.make(kind, theta, None if tau is None else float(tau))
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed branch record: {exc}") from exc


def scaling_matrix(branch: PhaseBranch, s: SpectrumLike) -> list[float]:
    """Diagonal entries of the positive scaling matrix R.

    Every branch uses the same rule R_ii = g'(lambda_i)^(-1/2); eigenvalues
    must sit strictly inside the admissible ray, and g'(lambda_i) must be a
    positive finite float (it underflows to 0 for a huge eigenvalue), else
    AdmissibilityError names the eigenvalue.
    """
    lambdas = _lambda_floats(s)
    lower = branch.admissible_lower()
    out = []
    for lam in lambdas:
        if lower is not None and lam <= lower:
            raise AdmissibilityError(
                f"eigenvalue {lam} is not above the {branch.kind} bound {lower}"
            )
        slope = branch.g_prime(lam)
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

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "branch": self.branch.to_json(),
            "lambda": list(self.spectrum),
            "b": list(self.linear),
            "c": self.constant,
        }

    @classmethod
    def from_json(cls, data) -> "KelvinFrame":
        """Inverse of ``to_json``; ValueError names a malformed record."""
        try:
            branch = PhaseBranch.from_json(data["branch"])
            lambdas = [float(v) for v in data["lambda"]]
            n = int(data.get("n", len(lambdas)))
            if n != len(lambdas):
                raise ValueError(f"record claims n={n} but lists {len(lambdas)} eigenvalues")
            return cls(branch, lambdas, data.get("b"), float(data.get("c", 0.0)))
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed frame record: {exc}") from exc


def kelvin_map(point: Sequence[float], R: Sequence[float], direction: str = "forward") -> np.ndarray:
    """The scaled inversion between exterior points x and ball points y.

    forward:  y = Rx / |Rx|^2        backward:  x = R^(-1) y / |y|^2

    ``R`` is the diagonal of the scaling matrix.  The two directions are
    mutually inverse; mapping the origin raises ZeroPointError.
    """
    p = np.asarray(point, dtype=float)
    r = np.asarray(R, dtype=float)
    if p.shape != r.shape:
        raise ValueError("point and scaling diagonal must have the same length")
    if not np.all(r > 0.0):
        raise ValueError("scaling diagonal must be positive")
    norm_sq = float(np.dot(p, p))
    if norm_sq == 0.0:
        raise ZeroPointError("the inversion map is singular at the origin")
    if direction == "forward":
        z = r * p
        return z / float(np.dot(z, z))
    if direction == "backward":
        return (p / norm_sq) / r
    raise ValueError(f"direction must be 'forward' or 'backward', not {direction!r}")


def u_from_v(frame: KelvinFrame, v: Callable[[np.ndarray], float], x: Sequence[float]) -> float:
    """Exterior solution value at x from the ball-side profile v."""
    xv = np.asarray(x, dtype=float)
    y = kelvin_map(xv, frame.R, "forward")
    quad = 0.5 * sum(l * c * c for l, c in zip(frame.spectrum, xv))
    affine = float(np.dot(frame.linear, xv)) + frame.constant
    weight = float(np.dot(y, y)) ** ((frame.n - 2) / 2.0)
    return quad + affine + weight * float(v(y))


# ── second-order jets and the Hessian identity ───────────────────────────


@dataclass(frozen=True)
class Jet2:
    """Second-order data of the ball-side profile at one point of the
    punctured unit ball: value, gradient, and symmetric Hessian."""

    y: np.ndarray
    value: float
    grad: np.ndarray
    hess: np.ndarray

    def __post_init__(self) -> None:
        y = np.asarray(self.y, dtype=float)
        grad = np.asarray(self.grad, dtype=float)
        hess = np.asarray(self.hess, dtype=float)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "grad", grad)
        object.__setattr__(self, "hess", hess)
        n = y.shape[0]
        if y.ndim != 1 or grad.shape != (n,) or hess.shape != (n, n):
            raise ValueError("jet shapes are inconsistent")
        norm = float(np.dot(y, y)) ** 0.5
        if not 0.0 < norm < 1.0:
            raise ValueError(f"jet base point must lie in the punctured unit ball, |y|={norm}")
        if float(np.max(np.abs(hess - hess.T))) > 1e-12:
            raise ValueError("jet Hessian must be symmetric to 1e-12")

    @property
    def n(self) -> int:
        return self.y.shape[0]


def poly_jet(v: MultiPoly, y: Sequence[float]) -> Jet2:
    """The second-order jet of a polynomial profile at a ball point."""
    yv = [float(c) for c in y]
    n = v.n_vars
    if len(yv) != n:
        raise ValueError(f"point has length {len(yv)}, polynomial has {n} variables")
    grads = [v.partial(i) for i in range(n)]
    hess = np.zeros((n, n))
    for i in range(n):
        for j in range(i, n):
            hess[i, j] = hess[j, i] = float(grads[i].partial(j).evaluate(yv))
    return Jet2(
        y=np.asarray(yv),
        value=float(v.evaluate(yv)),
        grad=np.asarray([float(g.evaluate(yv)) for g in grads]),
        hess=hess,
    )


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
    ydotg = sum((grad[i] * y[i] for i in range(n)), zero)
    hy = [sum((hess[i][j] * y[j] for j in range(n)), zero) for i in range(n)]
    yhy = sum((hy[i] * y[i] for i in range(n)), zero)
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


def matrices_MNKL(jet: Jet2, frame: KelvinFrame):
    """The matrices of the Hessian identity at one jet:

        L      scalar weight of the rank-one radial part
        K      the polynomial part
        M    = K + (L / |y|^2) y y^T
        N    = R M R

    so that D^2 u = A + |y|^n N at the exterior point behind y."""
    n = frame.n
    if jet.n != n:
        raise ValueError(f"jet dimension {jet.n} does not match frame dimension {n}")
    y = jet.y
    norm_sq = float(np.dot(y, y))
    K, L = identity_parts(y, jet.value, jet.grad, jet.hess, norm_sq)
    K = np.asarray(K)
    M = K + (L / norm_sq) * np.outer(y, y)
    r = np.asarray(frame.R)
    N = np.outer(r, r) * M
    return M, N, K, L


@dataclass(frozen=True)
class HessianReport:
    """Worst deviations of the finite-difference exterior Hessian from the
    assembled identity A + |y|^n N over a sample of exterior points."""

    max_abs_deviation: float
    max_rel_deviation: float
    samples: int
    fd_step: float


def hessian_identity_check(
    frame: KelvinFrame,
    v: MultiPoly,
    samples: int = 100,
    fd_step: float = 1e-4,
    seed: int = 0,
) -> HessianReport:
    """Compare central finite differences of u against A + |y|^n N at random
    exterior points; reports deviations, never raises on a bad match.  A
    sample whose deviation is not finite (an overflow, or inf - inf) counts
    as an infinite deviation, so it cannot pass any tolerance.  ValueError
    unless samples >= 1 and fd_step is a positive finite number."""
    if v.n_vars != frame.n:
        raise ValueError("profile polynomial dimension does not match the frame")
    if samples < 1:
        raise ValueError(f"need at least one sample, got {samples}")
    if not (math.isfinite(fd_step) and fd_step > 0.0):
        raise ValueError(f"finite-difference step must be positive and finite, got {fd_step}")
    rng = np.random.default_rng(seed)
    n = frame.n
    lam = np.asarray(frame.spectrum)

    def u(x: np.ndarray) -> float:
        return u_from_v(frame, lambda yy: float(v.evaluate(list(yy))), x)

    max_abs = 0.0
    max_rel = 0.0
    h = fd_step
    for _ in range(samples):
        direction = rng.normal(size=n)
        direction /= float(np.dot(direction, direction)) ** 0.5
        x = direction * rng.uniform(1.2, 3.0)
        # keep the image strictly inside the unit ball
        z = np.asarray(frame.R) * x
        image_norm = float(np.dot(z, z)) ** 0.5
        if image_norm < 1.05:
            x = x * (1.05 / image_norm)

        y = kelvin_map(x, frame.R, "forward")
        jet = poly_jet(v, y)
        _, N, _, _ = matrices_MNKL(jet, frame)
        exact = np.diag(lam) + float(np.dot(y, y)) ** (n / 2.0) * N

        fd = np.zeros((n, n))
        u0 = u(x)
        for i in range(n):
            ei = np.zeros(n)
            ei[i] = h
            fd[i, i] = (u(x + ei) - 2.0 * u0 + u(x - ei)) / (h * h)
            for j in range(i + 1, n):
                ej = np.zeros(n)
                ej[j] = h
                fd[i, j] = fd[j, i] = (
                    u(x + ei + ej) - u(x + ei - ej) - u(x - ei + ej) + u(x - ei - ej)
                ) / (4.0 * h * h)

        abs_dev = float(np.max(np.abs(fd - exact)))
        rel_dev = abs_dev / max(float(np.max(np.abs(exact))), 1e-8)
        # max() would drop a NaN, so a non-finite deviation enters as inf
        max_abs = max(max_abs, abs_dev if math.isfinite(abs_dev) else math.inf)
        max_rel = max(max_rel, rel_dev if math.isfinite(rel_dev) else math.inf)
    return HessianReport(
        max_abs_deviation=max_abs,
        max_rel_deviation=max_rel,
        samples=samples,
        fd_step=fd_step,
    )


# ── the symbolic trace identity ──────────────────────────────────────────


def trace_identity_defect(n: int) -> RadPoly:
    """trace(M) - |y|^2 lap(v), with the jet entries as indeterminates.

    The variable space is that of `jet_indeterminates(n)`.  The only
    inverse power in trace(M) is the (L / |y|^2) y y^T part, whose trace is
    exactly L, so the defect is an ordinary polynomial; it is returned as a
    radical polynomial, which is identically zero precisely when the trace
    identity holds.
    """
    if n < 2:
        raise ValueError("the trace identity needs n >= 2")
    y, v, g, h = jet_indeterminates(n)
    zero = MultiPoly.zero(v.n_vars)
    ysq = sum((c * c for c in y), zero)
    K, L = identity_parts(y, v, g, h, ysq)
    trace_m = sum((K[i][i] for i in range(n)), L)
    return RadPoly.from_poly(trace_m - ysq * sum((h[i][i] for i in range(n)), zero))
