"""Radial exterior solutions by fourth-order integration in log r.

For a radial function u(|x|) the Hessian spectrum is u''(r) once and
u'(r)/r with multiplicity n - 1, so the fully nonlinear equation
sum_j g(lambda_j) = theta reduces to the scalar relation

    g(u'') + (n - 1) g(u'/r) = theta.

`radial_rhs` solves that relation for u'' through the branch's monotone
scalar map.  In s = log r the slope lambda = u'/r obeys the autonomous
scalar equation

    d lambda / ds = g^{-1}(theta - (n - 1) g(lambda)) - lambda,

whose fixed point a = g^{-1}(theta / n) is the asymptotic quadratic
u ~ a r^2 / 2.  `integrate_exterior` advances mu = lambda - a and the
remainder v = u - a r^2 / 2 (dv/ds = r^2 mu) by classic RK4 on a uniform
grid in s, so the decaying remainder is integrated directly instead of
being recovered as the difference of two numbers of size r^2.  A second
solution advanced alongside with doubled steps gives every recorded
node a step-doubling (Richardson) estimate of its global error.  The
scheme is deterministic and fixed-step, so trajectories and their CSV
renderings are reproducible byte for byte.

The right-hand side is decreasing in lambda and vanishes at a, so the
exact flow moves the slope monotonically toward a and never leaves the
admissible slopes.  A DomainError therefore means an inadmissible start
or an RK4 stage that overshot the edge of the admissible slope interval
(a step too coarse for a start next to that edge).

Trajectories convert to full-dimensional scattered samples with
`trajectory_samples`, feeding the quadratic-fit and decay experiments.
Its directions are Gaussian draws from the standard library's
`random.Random(seed)`, n per direction, node after node and sample
after sample.
"""

from __future__ import annotations

import bisect
import csv
import math
import random
from typing import NamedTuple, Sequence

from .kelvin import DomainError, PhaseBranch

__all__ = [
    "DomainError",
    "MAX_PLANNED_WORK",
    "MAX_SAMPLES",
    "MAX_SAMPLE_COORDINATES",
    "RadialState",
    "check_sample_work",
    "count_nodes",
    "integrate_exterior",
    "kernel_name",
    "radial_rhs",
    "read_trajectory",
    "trajectory_samples",
    "write_trajectory",
]

# log steps plus recorded nodes that one call to `integrate_exterior` may
# plan; about a minute of work and a few GB of recorded states
MAX_PLANNED_WORK = 10_000_000

# samples that one call to `trajectory_samples` may scatter.  At n = 3 on
# 2 shared CPUs, 990,500 samples took 2.9-4.3 s to draw and 3.6-4.1 s to
# write with `expand.write_samples`, at a peak RSS of 243 MB; so the cap is
# about 40 s of work and 1.2 GB
MAX_SAMPLES = 5_000_000

# coordinates those samples may hold, samples x n: the cost grows with n,
# not with the samples alone.  On 2 shared CPUs three samples at
# n = 200,000 took 1.2-1.3 us per coordinate to draw and write (0.3 s and
# 0.4-0.5 s), and three at n = 2,000,000 peaked at 430 MB in one process,
# about 70 bytes per coordinate; so the cap is about 20 s and 1.1 GB, what
# MAX_SAMPLES allows at n = 3
MAX_SAMPLE_COORDINATES = 15_000_000

_TRAJECTORY_HEADER = ["r", "u", "du", "error_estimate"]


def kernel_name() -> str:
    """The integration kernel; there is one, written in Python."""
    return "python"


class RadialState(NamedTuple):
    """One recorded node of a radial trajectory.

    `r` is the radius, `u` the value, `p` the first derivative u'(r),
    `w` the second derivative u''(r), and `error` the step-doubling
    estimate of the global error of (u, u'): the largest one at the
    doubled-step boundaries from the one closing the previous node's
    doubled step to the one closing this node's (so coarse output
    strides cannot hide error growth between rows).
    """

    r: float
    u: float
    p: float
    w: float
    error: float


def radial_rhs(branch: PhaseBranch, n: int, theta: float, r: float, p: float) -> float:
    """Solve g(u'') = theta - (n-1) g(p/r) for the admissible root u''.

    The branch's scalar map g is strictly increasing on its admissible
    ray, so the root is unique; DomainError (with the offending
    quantity in the message) if p/r leaves the ray or the right-hand
    side leaves the range of g.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    r = float(r)
    if not r > 0.0:
        raise ValueError(f"radius must be positive, got {r}")
    t = float(theta) - (n - 1) * branch.g(float(p) / r)
    return branch.g_inverse(t)


def _failure(branch: PhaseBranch, a: float, lam: float, radius: float, trajectory) -> DomainError:
    """DomainError for a slope lam with no admissible curvature root."""
    kind = branch.kind
    lower = branch.admissible_lower()
    if lower is None:
        lower = -math.inf
    at = f"at radial slope u'/r = {lam!r} near r = {radius!r}"
    if not math.isfinite(lam):
        message = f"trajectory state became non-finite near r = {radius!r}"
    elif lam <= lower:
        message = (
            f"radial slope u'/r = {lam!r} fell to the {kind} eigenvalue bound {lower!r} "
            f"near r = {radius!r}"
        )
    elif lam < a:
        # g(lam) < theta / n, so the phase left to u'' is above the range of g
        message = f"second derivative u'' grew without bound on the {kind} branch {at}"
    else:
        message = f"second derivative u'' fell to the {kind} eigenvalue bound {lower!r} {at}"
    return DomainError(message, radius=radius, trajectory=trajectory)


def _hermite(y0: float, y1: float, d0: float, d1: float, t: float) -> float:
    """Cubic Hermite interpolant at fraction t of a step; d0, d1 are step * slope."""
    cubic = (1.0 - 2.0 * t) * (y1 - y0) + (t - 1.0) * d0 + t * d1
    return (1.0 - t) * y0 + t * y1 + t * (t - 1.0) * cubic


def _rk4(rate, mu, v, f0, s0, h, r2_0, r2_m, r2_1):
    """One RK4 step of (mu, v) over [s0, s0 + h]; f0 is rate(mu) at s0.

    r2_0, r2_m and r2_1 are r^2 at the step's start, middle and end.
    Returns (mu, v, rate at the end), the last reused by the next step.
    """
    half = 0.5 * h
    mu2 = mu + half * f0
    k2 = rate(mu2, s0 + half)
    mu3 = mu + half * k2
    k3 = rate(mu3, s0 + half)
    mu4 = mu + h * k3
    k4 = rate(mu4, s0 + h)
    sixth = h / 6.0
    mu_end = mu + sixth * (f0 + 2.0 * k2 + 2.0 * k3 + k4)
    v_end = v + sixth * (r2_0 * mu + 2.0 * r2_m * (mu2 + mu3) + r2_1 * mu4)
    return mu_end, v_end, rate(mu_end, s0 + h)


def _plan(r_max: float, step: float, stride: int) -> tuple[float, float, int, int]:
    """Check an integration plan; returns (r_max, step, stride, n_steps).

    The nodes are r = 1 + k * step for k = 0, stride, 2 * stride, ...
    below n_steps, then k = n_steps.  ValueError on a bad argument or a
    plan over MAX_PLANNED_WORK.
    """
    step = float(step)
    if not (step > 0.0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step}")
    r_max = float(r_max)
    if not r_max > 1.0:
        raise ValueError(f"r_max must exceed the unit starting radius, got {r_max}")
    stride = int(stride)
    if stride < 1:
        raise ValueError(f"stride must be a positive integer, got {stride}")
    r_steps = (r_max - 1.0) / step
    planned = math.log(r_max) / step + r_steps / stride
    if not planned <= MAX_PLANNED_WORK:
        raise ValueError(
            f"rmax={r_max!r}, step={step!r}, stride={stride} plans {planned:.4g} "
            f"log steps and recorded nodes, more than {MAX_PLANNED_WORK}"
        )
    return r_max, step, stride, max(1, int(round(r_steps)))


def integrate_exterior(
    branch: PhaseBranch,
    n: int,
    theta: float,
    u1: float,
    p1: float,
    r_max: float,
    step: float,
    stride: int = 1,
) -> list[RadialState]:
    """Integrate the radial relation from r = 1 to r_max.

    Records node 0 (r = 1) and the nodes r = 1 + k * step for every k
    that is a multiple of `stride`, the final node r = 1 + K * step with
    K = round((r_max - 1) / step) always included.  The solution is
    advanced by RK4 in s = log r on a uniform grid of an even number of
    steps no longer than `step`, which depends on (step, r_max) only, so
    states at shared radii agree bitwise across strides.  Each node is
    read off the step that contains it by cubic Hermite interpolation,
    and its `error` compares against a second solution advanced alongside
    with doubled steps.

    ValueError if the planned log steps plus recorded nodes exceed
    MAX_PLANNED_WORK.  DomainError if p1 or any later stage leaves the
    slopes that admit a curvature root on the branch (or the state
    overflows); the exception carries the failing stage's radius as
    `radius` and the nodes recorded before it as `trajectory`.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    r_max, step, stride, n_steps = _plan(r_max, step, stride)

    theta = float(theta)
    u1 = float(u1)
    p1 = float(p1)
    nm1 = n - 1
    # the branch kind is resolved once here, not on each map call of `rate`
    _, g, _, g_inverse = branch.maps
    states: list[RadialState] = []

    a = g_inverse(theta / n)

    def rate(mu: float, s: float) -> float:
        try:
            return (g_inverse(theta - nm1 * g(a + mu)) - a) - mu
        except DomainError:
            raise _failure(branch, a, a + mu, math.exp(s), states) from None

    try:
        w1 = g_inverse(theta - nm1 * g(p1))
    except DomainError:
        raise _failure(branch, a, p1, 1.0, states) from None

    s_end = math.log(1.0 + n_steps * step)
    n_log = 2 * max(1, math.ceil(s_end / (2.0 * step)))
    h = s_end / n_log

    states.append(RadialState(r=1.0, u=u1, p=p1, w=w1, error=0.0))
    k = min(stride, n_steps)
    r_node = 1.0 + k * step
    s_node = math.log(r_node)

    mu0 = p1 - a
    v0 = u1 - 0.5 * a
    f0 = rate(mu0, 0.0)
    mu_c, v_c, f_c = mu0, v0, f0
    r2_0 = 1.0
    block = 0.0
    for j in range(0, n_log, 2):
        s0 = j * h
        s1 = (j + 1) * h
        s2 = s_end if j + 2 == n_log else (j + 2) * h
        r2_a = math.exp(2.0 * (s0 + 0.5 * h))
        r2_1 = math.exp(2.0 * s1)
        r2_b = math.exp(2.0 * (s1 + 0.5 * h))
        r2_2 = math.exp(2.0 * s2)
        mu1, v1, f1 = _rk4(rate, mu0, v0, f0, s0, h, r2_0, r2_a, r2_1)
        mu2, v2, f2 = _rk4(rate, mu1, v1, f1, s1, h, r2_1, r2_b, r2_2)
        mu_c, v_c, f_c = _rk4(rate, mu_c, v_c, f_c, s0, 2.0 * h, r2_0, r2_1, r2_2)
        if not all(map(math.isfinite, (mu2, v2, mu_c, v_c))):
            raise _failure(branch, a, math.nan, math.exp(s2), states)
        estimate = max(abs(v2 - v_c), math.sqrt(r2_2) * abs(mu2 - mu_c)) / 15.0
        block = max(block, estimate)

        while s_node <= s2:
            if s_node <= s1:
                t = (s_node - s0) / h
                mu = _hermite(mu0, mu1, h * f0, h * f1, t)
                v = _hermite(v0, v1, h * r2_0 * mu0, h * r2_1 * mu1, t)
            else:
                t = (s_node - s1) / h
                mu = _hermite(mu1, mu2, h * f1, h * f2, t)
                v = _hermite(v1, v2, h * r2_1 * mu1, h * r2_2 * mu2, t)
            p = r_node * (a + mu)
            try:
                w = g_inverse(theta - nm1 * g(p / r_node))
            except DomainError:
                raise _failure(branch, a, p / r_node, r_node, states) from None
            u = 0.5 * a * r_node * r_node + v
            states.append(RadialState(r=r_node, u=u, p=p, w=w, error=block))
            block = estimate
            if k == n_steps:
                s_node = math.inf
            else:
                k = min(k + stride, n_steps)
                r_node = 1.0 + k * step
                s_node = math.log(r_node)
        mu0, v0, f0, r2_0 = mu2, v2, f2, r2_2
    return states


def write_trajectory(path, states: Sequence[RadialState]) -> None:
    """Write recorded nodes as CSV: r,u,du,error_estimate.

    Floats are rendered with repr so equal trajectories give byte-equal
    files and `read_trajectory` restores the exact values.  Each node is
    one ``%r,%r,%r,%r`` line ending in CRLF: the bytes `csv.writer`
    writes, since a finite float's repr never needs quoting.
    """
    with open(path, "w", newline="") as fh:
        fh.write(",".join(_TRAJECTORY_HEADER) + "\r\n")
        fh.writelines("%r,%r,%r,%r\r\n" % (s.r, s.u, s.p, s.error) for s in states)


def read_trajectory(path) -> list[tuple[float, float, float, float]]:
    """Read a trajectory CSV back as (r, u, du, error) tuples.

    The CSV stores no second-derivative column, so the result is plain
    tuples rather than RadialState records.  ValueError on a malformed
    header or row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != _TRAJECTORY_HEADER:
            raise ValueError(
                f"expected trajectory header {','.join(_TRAJECTORY_HEADER)!r}, "
                f"got {header!r}"
            )
        rows: list[tuple[float, float, float, float]] = []
        for line_no, row in enumerate(reader, start=2):
            if len(row) != 4:
                raise ValueError(f"trajectory row {line_no} has {len(row)} fields, expected 4")
            try:
                rows.append((float(row[0]), float(row[1]), float(row[2]), float(row[3])))
            except ValueError as exc:
                raise ValueError(f"trajectory row {line_no} is not numeric: {exc}") from exc
    return rows


def count_nodes(
    r_max: float,
    step: float,
    stride: int = 1,
    r_lo: float | None = None,
    r_hi: float | None = None,
) -> int:
    """The nodes `integrate_exterior` records with r_lo <= r <= r_hi.

    Counted from the plan alone, without integrating: node radii are
    the same floats 1 + k * step and increase with k, so the window's
    ends are found by bisection.  None means unbounded.  ValueError on a
    NaN bound or on a plan `integrate_exterior` refuses.
    """
    _reject_nan(r_lo=r_lo, r_hi=r_hi)
    r_max, step, stride, n_steps = _plan(r_max, step, stride)
    nodes = range(-(-n_steps // stride) + 1)

    def radius(j: int) -> float:
        return 1.0 + min(j * stride, n_steps) * step

    first = 0 if r_lo is None else bisect.bisect_left(nodes, r_lo, key=radius)
    end = len(nodes) if r_hi is None else bisect.bisect_right(nodes, r_hi, key=radius)
    return max(0, end - first)


def _reject_nan(**bounds: float | None) -> None:
    for name, bound in bounds.items():
        if bound is not None and math.isnan(bound):
            raise ValueError(f"{name} must not be NaN, got {bound}")


def check_sample_work(samples: int, n: int) -> None:
    """ValueError, naming the count, unless ``samples`` samples in n
    dimensions stay within MAX_SAMPLES samples and MAX_SAMPLE_COORDINATES
    coordinates."""
    if samples > MAX_SAMPLES:
        raise ValueError(f"{samples} samples, more than {MAX_SAMPLES}")
    if samples * n > MAX_SAMPLE_COORDINATES:
        raise ValueError(
            f"{samples} samples in dimension {n} hold {samples * n} coordinates "
            f"(samples x n), more than {MAX_SAMPLE_COORDINATES}"
        )


def trajectory_samples(
    states: Sequence[RadialState],
    n: int,
    per_radius: int,
    seed: int = 0,
    r_min: float | None = None,
    r_max: float | None = None,
) -> list[tuple[tuple[float, ...], float]]:
    """Scatter a radial trajectory into full-dimensional samples.

    For each recorded node with r_min <= r <= r_max (inclusive bounds;
    None means unbounded), takes `per_radius` directions uniformly on
    the unit sphere and emits (x, u(|x|)) pairs at x = r * direction —
    exact values at the recorded radii, no interpolation.  One
    `random.Random(seed)` draws every direction as n `gauss(0.0, 1.0)`
    values, node after node and, within a node, sample after sample; a
    direction shorter than 1e-12 is redrawn at once, in stream order.
    The output feeds the quadratic-fit machinery.  ValueError on a NaN
    bound, an empty window, or more samples than `check_sample_work`
    admits.
    """
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"dimension n must be an integer >= 2, got {n!r}")
    per_radius = int(per_radius)
    if per_radius < 1:
        raise ValueError(f"per_radius must be a positive integer, got {per_radius}")
    _reject_nan(r_min=r_min, r_max=r_max)
    kept = [
        state
        for state in states
        if (r_min is None or state.r >= r_min) and (r_max is None or state.r <= r_max)
    ]
    if not kept:
        raise ValueError("no trajectory nodes fall inside the requested radius window")
    check_sample_work(len(kept) * per_radius, n)
    gauss = random.Random(seed).gauss
    samples = []
    for state in kept:
        for _ in range(per_radius):
            norm = 0.0
            while norm < 1e-12:
                direction = [gauss(0.0, 1.0) for _ in range(n)]
                norm = math.hypot(*direction)
            scale = state.r / norm
            samples.append((tuple([c * scale for c in direction]), state.u))
    return samples

