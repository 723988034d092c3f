"""Branch maps, inversion frames, and the exterior Hessian identity.

The M/N/K/L assembly is validated three independent ways: pinned closed
forms, an analytically differentiated exterior solution, and central finite
differences of the full transform."""

import hashlib
import math
import re
from fractions import Fraction
from random import Random
from unittest import mock

import numpy as np
import pytest

from kelvinasym import kelvin
from kelvinasym.exactalg import MultiPoly, _dot
from kelvinasym.kelvin import (
    MAX_FD_WORK,
    AdmissibilityError,
    DomainError,
    HessianReport,
    KelvinFrame,
    PhaseBranch,
    ZeroPointError,
    check_fd_work,
    hessian_identity_check,
    identity_parts,
    jet_indeterminates,
    trace_identity_defect,
)

THETA3 = 3 * math.pi / 4


def kelvin_map(point, R):
    """The scaled inversion y = Rx / |Rx|^2 of one exterior point x
    (`kelvin._invert`), with ``R`` the diagonal of the scaling matrix, as a
    tuple of floats; mapping the origin raises ZeroPointError."""
    return kelvin._invert(point, [float(c) for c in R])


def u_from_v(frame, v, x):
    """Exterior solution value at one point x from the ball-side profile v
    (`kelvin._u_at`, which `hessian_identity_check` runs at every stencil
    point); ``v`` takes the image y as a tuple of floats."""
    return kelvin._u_at(frame, v, list(map(float, x)))

ALL_BRANCHES = [
    PhaseBranch.slag(THETA3),
    PhaseBranch.make("RECIP", -1.5),
    PhaseBranch.make("ATAN2", 1.0, tau=1.1),
    PhaseBranch.make("LOG", -2.0, tau=0.5),
]


# ── branch scalar maps ───────────────────────────────────────────────────


def test_branch_construction_and_tau_defaults():
    b = PhaseBranch.slag(THETA3)
    assert (b.kind, b.tau, b.a, b.b) == ("SLAG", math.pi / 2, 0.0, 1.0)
    r = PhaseBranch.make("RECIP", 0.3)
    assert (r.kind, r.a, r.b) == ("RECIP", 1.0, 0.0)
    at = PhaseBranch.make("ATAN2", 1.0, tau=1.2)
    assert 0.0 < at.a < 1.0 and abs(at.b - math.sqrt(1 - at.a**2)) < 1e-15
    lg = PhaseBranch.make("LOG", -1.0, tau=0.4)
    assert lg.a > 1.0 and abs(lg.b - math.sqrt(lg.a**2 - 1)) < 1e-15


def test_branch_validation():
    with pytest.raises(ValueError):
        PhaseBranch.make("ATAN2", 1.0)  # tau required
    with pytest.raises(ValueError):
        PhaseBranch.make("ATAN2", 1.0, tau=0.5)  # wrong interval
    with pytest.raises(ValueError):
        PhaseBranch.make("LOG", 1.0, tau=1.0)
    with pytest.raises(ValueError):
        PhaseBranch.make("NOPE", 1.0)
    with pytest.raises(TypeError):  # a and b are derived from tau, never passed
        PhaseBranch(kind="SLAG", tau=math.pi / 2, theta=1.0, a=0.0, b=1.0)


@pytest.mark.parametrize("branch", ALL_BRANCHES, ids=lambda b: b.kind)
def test_g_inverse_roundtrip_and_monotonicity(branch):
    lower = branch.admissible_lower()
    start = -5.0 if lower is None else lower + 1e-3
    grid = [start + k * (5.0 - start) / 40 for k in range(41)]
    prev = None
    for lam in grid:
        t = branch.maps.g(lam)
        assert abs(branch.maps.g_inverse(t) - lam) < 1e-9 * max(1.0, abs(lam))
        if prev is not None:
            assert t > prev
        prev = t


@pytest.mark.parametrize("branch", ALL_BRANCHES, ids=lambda b: b.kind)
def test_g_prime_matches_finite_difference(branch):
    lower = branch.admissible_lower()
    points = [0.3, 1.7, 4.0] if lower is None else [lower + d for d in (0.2, 1.0, 3.0)]
    h = 1e-6
    for lam in points:
        fd = (branch.maps.g(lam + h) - branch.maps.g(lam - h)) / (2 * h)
        assert abs(fd - branch.g_prime(lam)) < 1e-7 * max(1.0, abs(fd))


def test_admissible_lower_values():
    slag, recip, at, lg = ALL_BRANCHES
    assert slag.admissible_lower() is None
    assert recip.admissible_lower() == -1.0
    assert abs(at.admissible_lower() + (at.a + at.b)) < 1e-15
    assert abs(lg.admissible_lower() - (lg.b - lg.a)) < 1e-15


def test_domain_errors():
    slag, recip, at, lg = ALL_BRANCHES
    cases = [
        (recip.maps.g, -1.5, "eigenvalue -1.5 is not above the RECIP bound -1.0"),
        (recip.g_prime, -1.0, "eigenvalue -1.0 is not above the RECIP bound -1.0"),
        (lg.maps.g, lg.b - lg.a, f"eigenvalue {lg.b - lg.a} is not above the LOG bound {lg.b - lg.a}"),
        (at.g_prime, -2.0, f"eigenvalue -2.0 is not above the ATAN2 bound {-(at.a + at.b)}"),
        (slag.maps.g_inverse, 2.0, "inverse argument 2.0 outside (-pi/2, pi/2)"),
        (recip.maps.g_inverse, 0.1, "inverse argument 0.1 must be negative"),
        (lg.maps.g_inverse, 0.0, "inverse argument 0.0 must be negative"),
        (at.maps.g_inverse, 100.0, "inverse argument 100.0 outside the branch range"),
    ]
    for f, arg, message in cases:
        with pytest.raises(DomainError) as info:
            f(arg)
        assert str(info.value) == message


def _closed_forms(branch):
    """g, g_prime and g_inverse of a branch, each written out as its
    formula reads, with nothing computed ahead."""
    a, b = branch.a, branch.b
    if branch.kind == "SLAG":
        return math.atan, lambda lam: 1.0 / (1.0 + lam * lam), math.tan
    if branch.kind == "RECIP":
        return (
            lambda lam: -math.sqrt(2.0) / (1.0 + lam),
            lambda lam: math.sqrt(2.0) / (1.0 + lam) ** 2,
            lambda t: -math.sqrt(2.0) / t - 1.0,
        )
    if branch.kind == "ATAN2":
        return (
            lambda lam: math.sqrt(a * a + 1.0) / b * math.atan((lam + a - b) / (lam + a + b)),
            lambda lam: 2.0 * math.sqrt(a * a + 1.0) / ((lam + a + b) * (lam + a + b) + (lam + a - b) * (lam + a - b)),
            lambda t: (math.tan(t * b / math.sqrt(a * a + 1.0)) * (a + b) - (a - b))
            / (1.0 - math.tan(t * b / math.sqrt(a * a + 1.0))),
        )
    return (
        lambda lam: math.sqrt(a * a + 1.0) / (2.0 * b) * math.log((lam + a - b) / (lam + a + b)),
        lambda lam: math.sqrt(a * a + 1.0) / ((lam + (a - b)) * (lam + (a + b))),
        lambda t: (math.exp(2.0 * b * t / math.sqrt(a * a + 1.0)) * (a + b) - (a - b))
        / (1.0 - math.exp(2.0 * b * t / math.sqrt(a * a + 1.0))),
    )


@pytest.mark.parametrize("branch", ALL_BRANCHES, ids=lambda b: b.kind)
def test_scalar_maps_are_the_closed_forms_bit_for_bit(branch):
    # the maps a loop reads once from `maps`, and the g_prime that the
    # scaling matrix calls, each round as its formula reads
    g, g_prime, g_inverse = _closed_forms(branch)
    lower = branch.admissible_lower()
    assert branch.maps.lower == lower
    offsets = [1e-9, 0.01, 0.5, 3.0, 1e6]
    lams = [-1e6, -3.0, -0.5, 0.0, 0.5, 3.0, 1e6] if lower is None else [lower + d for d in offsets]
    for lam in lams:
        t = g(lam)
        for got, want in (
            (branch.maps.g(lam), t),
            (branch.g_prime(lam), g_prime(lam)),
            (branch.maps.g_prime(lam), g_prime(lam)),
            (branch.maps.g_inverse(t), g_inverse(t)),
        ):
            assert got.hex() == want.hex()


ROW_BRANCHES = [
    PhaseBranch.slag(0.0),
    PhaseBranch.make("RECIP", -1.0),
    PhaseBranch.make("ATAN2", 0.0, tau=0.9),
    PhaseBranch.make("ATAN2", 0.0, tau=1.4),
    PhaseBranch.make("LOG", -0.1, tau=0.1),
    PhaseBranch.make("LOG", -0.1, tau=0.6),
]


def plane_row(branch):
    """(eps, alpha, beta, kappa) with g(lambda) = kappa arg(alpha + beta
    lambda) in the plane algebra x + u y, u^2 = eps: complex numbers
    (eps = -1) for SLAG and ATAN2, dual numbers (0) for RECIP and
    split-complex numbers (+1) for LOG, each point stored as (x, y)."""
    a, b = branch.a, branch.b
    if branch.kind == "SLAG":
        return -1, (1.0, 0.0), (0.0, 1.0), 1.0
    if branch.kind == "ATAN2":
        return -1, (a + b, a - b), (1.0, 1.0), math.sqrt(a * a + 1.0) / b
    if branch.kind == "RECIP":
        return 0, (1.0, 1.0), (1.0, 0.0), -math.sqrt(2.0)
    return 1, (a, b), (1.0, 0.0), -math.sqrt(a * a + 1.0) / b


@pytest.mark.parametrize("branch", ROW_BRANCHES, ids=lambda b: f"{b.kind}-{b.tau:.2f}")
def test_scalar_map_is_an_argument_in_the_plane_algebra(branch):
    # arg(x + u y) is atan2(y, x), y / x or artanh(y / x) for eps = -1, 0,
    # +1, and its derivative along dz = beta is cross(z, beta) / N(z), with
    # cross(z, w) = x_z y_w - y_z x_w and N(z) = x^2 - eps y^2
    eps, alpha, beta, kappa = plane_row(branch)
    arg = {-1: lambda x, y: math.atan2(y, x), 0: lambda x, y: y / x, 1: lambda x, y: math.atanh(y / x)}[eps]
    rnd = Random(67)
    lower = branch.admissible_lower()
    for _ in range(500):
        lam = rnd.uniform(-3.0, 3.0) if lower is None else lower + rnd.uniform(0.05, 3.0)
        x, y = alpha[0] + beta[0] * lam, alpha[1] + beta[1] * lam
        assert math.isclose(kappa * arg(x, y), branch.maps.g(lam), rel_tol=1e-12)
        slope = kappa * (x * beta[1] - y * beta[0]) / (x * x - eps * y * y)
        assert math.isclose(slope, branch.g_prime(lam), rel_tol=1e-12)


def test_phase_and_quadratic_fixed_point():
    branch = PhaseBranch.slag(THETA3)
    lam = [1.0, 2.0, 0.5]
    assert abs(sum(branch.maps.g(v) for v in lam) - sum(math.atan(v) for v in lam)) < 1e-15
    # the radial quadratic profile has n g(alpha) = theta
    for b in ALL_BRANCHES:
        n = 3
        target = b.theta
        if b.kind in ("RECIP", "LOG") and target >= 0:
            target = -1.0
        alpha = b.maps.g_inverse(target / n)
        assert abs(n * b.maps.g(alpha) - target) < 1e-12


def test_branch_json_form():
    assert PhaseBranch.slag(2.3562).to_json() == {"kind": "SLAG", "theta": 2.3562}
    assert PhaseBranch.make("ATAN2", 0.9, tau=1.3).to_json() == {"kind": "ATAN2", "theta": 0.9, "tau": 1.3}


# ── scaling matrix ───────────────────────────────────────────────────────


def test_scaling_matrix_pinned():
    slag = PhaseBranch.slag(THETA3)
    assert np.allclose(kelvin._scaling_matrix(slag, [1, 1, 1]), [math.sqrt(2)] * 3)
    recip = PhaseBranch.make("RECIP", -1.0)
    assert np.allclose(kelvin._scaling_matrix(recip, [0, 0]), [2 ** (-1 / 4)] * 2)


@pytest.mark.parametrize("branch", ALL_BRANCHES, ids=lambda b: b.kind)
def test_scaling_matrix_is_inverse_root_slope(branch):
    lower = branch.admissible_lower()
    lams = [0.5, 1.0, 2.5] if lower is None else [lower + d for d in (0.3, 1.1, 2.0)]
    R = kelvin._scaling_matrix(branch, lams)
    for r, lam in zip(R, lams):
        assert r > 0
        assert abs(r * r * branch.g_prime(lam) - 1.0) < 1e-12


def test_scaling_matrix_admissibility():
    recip = PhaseBranch.make("RECIP", -1.0)
    with pytest.raises(AdmissibilityError):
        kelvin._scaling_matrix(recip, [0.5, -1.0])
    lg = PhaseBranch.make("LOG", -1.0, tau=0.5)
    with pytest.raises(AdmissibilityError):
        kelvin._scaling_matrix(lg, [lg.b - lg.a - 0.5, 1.0])

    # g'(lambda) = 1 / (1 + lambda^2) underflows to 0 at 1e300
    with pytest.raises(AdmissibilityError, match="eigenvalue 1e\\+300"):
        kelvin._scaling_matrix(PhaseBranch.slag(1.0), [1e300, 1.0])
    with pytest.raises(AdmissibilityError):
        KelvinFrame(PhaseBranch.slag(1.0), [1e300, 1.0])

    # RECIP's g'(lambda) = sqrt(2) / (1 + lambda)^2 overflows in the square
    # from about 1.34e154 on, and names the eigenvalue as the underflow does
    recip = PhaseBranch.make("RECIP", -1.0)
    for lam in (1.3407807929942597e154, 1e200, 1.7976931348623157e308):
        with pytest.raises(AdmissibilityError, match=re.escape(f"eigenvalue {lam!r} overflows a float in g'")):
            kelvin._scaling_matrix(recip, [0.0, lam])
        with pytest.raises(AdmissibilityError, match=re.escape(f"eigenvalue {lam!r} overflows")):
            KelvinFrame(recip, [lam, 0.0])


# ── point maps ───────────────────────────────────────────────────────────


def test_kelvin_map_classic_inversion():
    y = kelvin_map([2.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert np.allclose(y, [0.5, 0.0, 0.0])
    assert abs(np.linalg.norm(y) - 1 / 2.0) < 1e-15


def test_kelvin_map_is_the_scaled_inversion():
    rng = Random(4)
    for _ in range(20):
        n = rng.randint(2, 5)
        x = np.array([rng.uniform(-3, 3) for _ in range(n)])
        if np.linalg.norm(x) < 1e-3:
            continue
        R = np.array([rng.uniform(0.5, 2.0) for _ in range(n)])
        y = kelvin_map(x, R)
        assert type(y) is tuple and len(y) == n
        assert np.allclose(y, R * x / float(np.dot(R * x, R * x)), rtol=1e-14, atol=0)
        # with R = I the inversion is its own inverse
        assert np.allclose(kelvin_map(kelvin_map(x, [1.0] * n), [1.0] * n), x, atol=1e-12)


def test_kelvin_map_errors():
    with pytest.raises(ZeroPointError):
        kelvin_map([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        kelvin_map([1.0, 0.0], [1.0, 1.0, 1.0])


# ── frames ───────────────────────────────────────────────────────────────


def test_frame_construction():
    branch = PhaseBranch.slag(2.3562)
    frame = KelvinFrame(branch, [1.0, 2.0, -0.5], linear=[0.1, 0.0, -0.2], constant=3.0)
    assert frame.n == 3
    assert np.allclose(frame.R, kelvin._scaling_matrix(branch, frame.spectrum))
    assert frame.spectrum == (1.0, 2.0, -0.5) and frame.linear == (0.1, 0.0, -0.2) and frame.constant == 3.0


def test_frame_validation():
    branch = PhaseBranch.slag(2.0)
    with pytest.raises(ValueError):
        KelvinFrame(branch, [1.0])
    with pytest.raises(ValueError):
        KelvinFrame(branch, [1.0, 2.0], linear=[0.0])
    with pytest.raises(AdmissibilityError):
        KelvinFrame(PhaseBranch.make("RECIP", -1.0), [-2.0, 0.0])


def test_frame_rejects_non_finite_values_naming_them():
    branch = PhaseBranch.slag(1.0)
    with pytest.raises(ValueError, match="frame value nan is not finite"):
        KelvinFrame(branch, [float("nan"), 1.0])
    with pytest.raises(ValueError, match="frame value inf is not finite"):
        KelvinFrame(branch, [float("inf"), 1.0])
    with pytest.raises(ValueError, match="frame value -inf is not finite"):
        KelvinFrame(branch, [1.0, 1.0], linear=[0.0, float("-inf")])
    with pytest.raises(ValueError, match="frame value nan is not finite"):
        KelvinFrame(branch, [1.0, 1.0], constant=float("nan"))


def test_u_from_v_pinned_radial_solution():
    # v constant sqrt(2) with unit spectrum reproduces u = |x|^2/2 + 1/|x|
    frame = KelvinFrame(PhaseBranch.slag(THETA3), [1.0, 1.0, 1.0])
    for x in ([2.0, 0.0, 0.0], [1.0, -1.0, 0.5], [0.3, 2.2, -1.7]):
        r = float(np.linalg.norm(x))
        got = u_from_v(frame, lambda y: math.sqrt(2.0), x)
        assert abs(got - (0.5 * r * r + 1.0 / r)) < 1e-12


def test_u_from_v_with_affine_tail():
    frame = KelvinFrame(
        PhaseBranch.slag(THETA3), [1.0, 2.0, 0.5], linear=[1.0, 0.0, -2.0], constant=4.0
    )
    x = np.array([1.4, -0.6, 2.0])
    got = u_from_v(frame, lambda y: 0.0, x)
    want = 0.5 * (1.4**2 + 2 * 0.6**2 + 0.5 * 4.0) + (1.4 - 4.0) + 4.0
    assert abs(got - want) < 1e-12


# ── jets ─────────────────────────────────────────────────────────────────


def point_jet(v, y):
    """(y, value, grad, hess) of the profile v at the float point y, by
    `kelvin._jet_evaluator`, as `hessian_identity_check` forms each sample's
    jet."""
    y = [float(c) for c in y]
    return (y, *kelvin._jet_evaluator(v)(y))


def test_jet_evaluator_pinned():
    y1 = MultiPoly.variable(3, 0)
    y2 = MultiPoly.variable(3, 1)
    v = y1**2 * y2
    y, value, grad, hess = point_jet(v, [0.2, 0.3, 0.1])
    assert abs(value - 0.012) < 1e-15 and type(value) is float
    assert np.allclose(grad, [0.12, 0.04, 0.0])
    assert np.allclose(hess, [[0.6, 0.4, 0.0], [0.4, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert all(type(g) is float for g in grad) and all(type(h) is float for row in hess for h in row)


def random_dyadic_jet_input(rnd: Random, n: int):
    """A polynomial of degree <= 4 in n variables with rational
    coefficients, and a dyadic point in the ball, which floats hold exactly."""
    v = MultiPoly.zero(n)
    for _ in range(6):
        exp = [0] * n
        for _ in range(rnd.randint(0, 4)):
            exp[rnd.randrange(n)] += 1
        v = v + MultiPoly(n, {tuple(exp): Fraction(rnd.randint(-5, 5), rnd.randint(1, 3))})
    return v, [Fraction(rnd.randint(-8, 8), 32) for _ in range(n)]


def exact_jet(v, y):
    grad = [v.partial(i) for i in range(v.n_vars)]
    return v.evaluate(y), [g.evaluate(y) for g in grad], [[g.partial(j).evaluate(y) for j in range(v.n_vars)] for g in grad]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_jet_evaluator_matches_the_exact_jet(n):
    # each float derivative is within a few roundings of the exact one, and
    # the Hessian is filled symmetrically from its upper triangle
    v, y = random_dyadic_jet_input(Random(41 + n), n)
    value, grad, hess = kelvin._jet_evaluator(v)([float(c) for c in y])
    want_value, want_grad, want_hess = exact_jet(v, y)
    assert abs(value - want_value) < 1e-13
    assert all(abs(g - w) < 1e-13 for g, w in zip(grad, want_grad))
    for i in range(n):
        for j in range(n):
            assert type(hess[i][j]) is float and hess[i][j] == hess[j][i]
            assert abs(hess[i][j] - want_hess[i][j]) < 1e-13


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_identity_parts_of_a_float_jet_match_the_exact_parts(n):
    # K and L of the float jet that the Hessian check forms agree with the
    # parts of the exact jet at the same point
    rnd = Random(47 + n)
    v, y = random_dyadic_jet_input(rnd, n)
    while not any(y):
        y = [Fraction(rnd.randint(-8, 8), 32) for _ in range(n)]
    yf = [float(c) for c in y]
    K, L = identity_parts(yf, *kelvin._jet_evaluator(v)(yf), _dot(yf, yf))
    want_K, want_L = identity_parts(y, *exact_jet(v, y), sum(c * c for c in y))
    assert type(L) is float and abs(L - want_L) < 1e-12
    assert all(abs(k - w) < 1e-12 for row, want_row in zip(K, want_K) for k, w in zip(row, want_row))


# ── the Hessian identity matrices ────────────────────────────────────────


def unit_frame(n=3):
    return KelvinFrame(PhaseBranch.slag(THETA3), [0.0] * n)


def matrices_MNKL(jet, frame):
    """The matrices of the Hessian identity at one jet, as nested lists:
    L, the weight of the rank-one radial part; K, the polynomial part;
    M = K + (L / |y|^2) y y^T; and N = R M R, so that D^2 u = A + |y|^n N
    at the exterior point behind y.  Each entry of N takes the float
    operations that `hessian_identity_check` takes for it."""
    y, value, grad, hess = jet
    if len(y) != frame.n:
        raise ValueError(f"jet dimension {len(y)} does not match frame dimension {frame.n}")
    r = frame.R
    ysq = _dot(y, y)
    K, L = identity_parts(y, value, grad, hess, ysq)
    ratio = L / ysq
    M = [[k + ratio * (yi * yj) for k, yj in zip(row, y)] for row, yi in zip(K, y)]
    N = [[(ri * rj) * m for m, rj in zip(row, r)] for row, ri in zip(M, r)]
    return M, N, K, L


def test_mnkl_pinned_constant_profile():
    frame = unit_frame()
    jet = point_jet(MultiPoly.const(3, 1), [0.5, 0.0, 0.0])
    M, N, K, L = matrices_MNKL(jet, frame)
    assert np.allclose(M, np.diag([2.0, -1.0, -1.0]))
    assert np.allclose(K, -np.eye(3))
    assert abs(L - 3.0) < 1e-15
    assert np.allclose(N, M)  # R is the identity for a flat spectrum


def test_mnkl_bytes_are_pinned():
    # the float assembly's rounding, on every kind; R and the image points
    # go through the platform's libm (sqrt, atan, log), so these bytes are
    # pinned for one libm, and the sums fold left to right, so they are
    # the same on Python 3.10 to 3.13
    y = [MultiPoly.variable(3, i) for i in range(3)]
    v = MultiPoly.const(3, 2) + y[0] * y[1] * 3 - y[2] ** 3 + y[0] ** 2 * y[2] * 5
    out = []
    for branch in ALL_BRANCHES:
        frame = KelvinFrame(branch, [1.5, 0.5, 2.0])
        for point in ([0.3, -0.2, 0.1], [-0.05, 0.4, 0.25]):
            out.append(matrices_MNKL(point_jet(v, point), frame))
    digest = hashlib.sha256(repr(out).encode()).hexdigest()
    assert digest == "87660590a1dd8116cc3b1661bbd3ca18ba7d8691dc41eeef57994a4728e69bf8"


def test_identity_parts_sums_floats_left_to_right():
    # y.g = 0.5e16 + 0.5 - 0.5e16: left to right 0.5e16 + 0.5 rounds back
    # to 0.5e16 and the sum is 0.0, where a compensated sum gives 0.5, so
    # L = 4 n y.g is 0.0 on every interpreter
    y = (0.5, 0.5, 0.5)
    zero_hess = [[0.0] * 3 for _ in range(3)]
    K, L = identity_parts(y, 0.0, (1e16, 1.0, -1e16), zero_hess, 0.75)
    assert L == 0.0
    # K_11 = -2 y.g - n (2 y_1 g_1), with y.g = 0.0
    assert K[1][1] == -3.0


def test_mnkl_reproduces_analytic_hessian_of_linear_profile():
    # with flat spectrum and v(y) = y_1 the exterior solution is x_1/|x|^3,
    # whose Hessian is -3(d_1j x_k + d_1k x_j + d_jk x_1)/|x|^5
    #                   + 15 x_1 x_j x_k/|x|^7
    frame = unit_frame()
    v = MultiPoly.variable(3, 0)
    for x in ([1.3, 0.4, -0.8], [2.0, 1.0, 0.5]):
        x = np.array(x)
        r = float(np.linalg.norm(x))
        y = kelvin_map(x, frame.R)
        jet = point_jet(v, y)
        _, N, _, _ = matrices_MNKL(jet, frame)
        got = float(np.dot(y, y)) ** 1.5 * np.asarray(N)
        want = np.zeros((3, 3))
        for j in range(3):
            for k in range(3):
                want[j, k] = 15 * x[0] * x[j] * x[k] / r**7
                want[j, k] -= 3 * x[0] * (1 if j == k else 0) / r**5
                if j == 0:
                    want[j, k] -= 3 * x[k] / r**5
                if k == 0:
                    want[j, k] -= 3 * x[j] / r**5
        assert np.allclose(got, want, atol=1e-12)


def test_mnkl_trace_identity_numeric():
    rng = Random(12)
    for _ in range(20):
        n = rng.randint(2, 5)
        frame = KelvinFrame(PhaseBranch.slag(THETA3), [rng.uniform(-1, 2) for _ in range(n)])
        y = np.array([rng.uniform(-0.4, 0.4) for _ in range(n)])
        if np.linalg.norm(y) < 0.05:
            y[0] += 0.3
        hess = np.array([[rng.uniform(-2, 2) for _ in range(n)] for _ in range(n)])
        hess = (hess + hess.T) / 2
        jet = (y.tolist(), rng.uniform(-2, 2), [rng.uniform(-2, 2) for _ in range(n)], hess.tolist())
        M, _, _, _ = matrices_MNKL(jet, frame)
        lhs = float(np.trace(M))
        rhs = float(np.dot(y, y)) * float(np.trace(hess))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_mnkl_dimension_mismatch():
    frame = unit_frame(3)
    jet = point_jet(MultiPoly.const(4, 1), [0.3, 0.0, 0.0, 0.1])
    with pytest.raises(ValueError):
        matrices_MNKL(jet, frame)


# ── finite-difference verification ───────────────────────────────────────


def random_profile(rng, n, max_deg=3):
    terms = {}
    for _ in range(6):
        exp = [0] * n
        for _ in range(rng.randint(0, max_deg)):
            exp[rng.randrange(n)] += 1
        terms[tuple(exp)] = terms.get(tuple(exp), 0) + rng.randint(-3, 3)
    from fractions import Fraction

    return MultiPoly(n, {e: Fraction(c) for e, c in terms.items() if c})


def test_hessian_identity_check_slag():
    rng = Random(5)
    frame = KelvinFrame(PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7])
    v = random_profile(rng, 3)
    report = hessian_identity_check(frame, v, samples=25, fd_step=1e-4, seed=1)
    assert isinstance(report, HessianReport)
    assert report.samples == 25 and report.fd_step == 1e-4
    assert report.max_rel_deviation < 1e-5


@pytest.mark.parametrize(
    "branch,lams",
    [
        (PhaseBranch.make("RECIP", -2.0), [0.4, -0.2, 1.1]),
        (PhaseBranch.make("ATAN2", 1.2, tau=1.2), [0.5, 0.0, 2.0]),
        (PhaseBranch.make("LOG", -3.0, tau=0.6), [1.5, 2.0, 1.1]),
    ],
    ids=["RECIP", "ATAN2", "LOG"],
)
def test_hessian_identity_check_other_branches(branch, lams):
    rng = Random(8)
    frame = KelvinFrame(branch, lams)
    v = random_profile(rng, 3)
    report = hessian_identity_check(frame, v, samples=15, fd_step=1e-4, seed=2)
    assert report.max_rel_deviation < 1e-5


def hessian_check_per_sample(frame, v, samples, fd_step, seed):
    """The check one sample at a time, through point_jet, matrices_MNKL and
    u_from_v at single points, drawing as hessian_identity_check does."""
    rng = Random(seed)
    n = frame.n
    h = fd_step

    def u(x):
        return u_from_v(frame, lambda yy: float(v.evaluate(list(yy))), x)

    max_abs = max_rel = 0.0
    for _ in range(samples):
        direction = [rng.gauss(0.0, 1.0) for _ in range(n)]
        scale = rng.uniform(1.2, 3.0) / sum(c * c for c in direction) ** 0.5
        x = np.array([c * scale for c in direction])
        z = np.asarray(frame.R) * x
        image_norm = sum(c * c for c in z.tolist()) ** 0.5
        if image_norm < 1.05:
            x = x * (1.05 / image_norm)
        y = kelvin_map(x, frame.R)
        _, N, _, _ = matrices_MNKL(point_jet(v, y), frame)
        exact = np.diag(frame.spectrum) + sum(c * c for c in y) ** (n / 2.0) * np.asarray(N)
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
        max_abs = max(max_abs, abs_dev)
        max_rel = max(max_rel, abs_dev / max(float(np.max(np.abs(exact))), 1e-8))
    return max_abs, max_rel


@pytest.mark.parametrize(
    "branch,lams",
    [
        (PhaseBranch.slag(THETA3), [1.0, -0.3]),
        (PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7]),
        (PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7, 2.0]),
        (PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7, 2.0, 0.4]),
        (PhaseBranch.make("LOG", -3.0, tau=0.6), [1.5, 2.0, 1.1, 0.9]),
    ],
    ids=["SLAG-2", "SLAG-3", "SLAG-4", "SLAG-5", "LOG-4"],
)
def test_hessian_identity_check_equals_the_per_sample_route(branch, lams):
    # the check performs the per-sample route's float operations in the
    # same order, so the deviations agree exactly
    n = len(lams)
    rng = Random(20 + n)
    linear = [rng.uniform(-1.0, 1.0) for _ in range(n)]
    frame = KelvinFrame(branch, lams, linear=linear, constant=rng.uniform(-1.0, 1.0))
    v = random_profile(rng, n)
    report = hessian_identity_check(frame, v, samples=23, fd_step=1e-4, seed=n)
    want = hessian_check_per_sample(frame, v, 23, 1e-4, n)
    assert (report.max_abs_deviation, report.max_rel_deviation) == want


@pytest.mark.parametrize(
    "samples,fd_step",
    [(0, 1e-4), (-1, 1e-4), (5, 0.0), (5, -1e-4), (5, math.nan), (5, math.inf)],
)
def test_hessian_identity_check_rejects_unmeasurable_settings(samples, fd_step):
    frame = KelvinFrame(PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7])
    v = random_profile(Random(5), 3)
    with pytest.raises(ValueError):
        hessian_identity_check(frame, v, samples=samples, fd_step=fd_step)


def test_hessian_identity_check_reports_non_finite_deviation_as_infinite():
    # a huge step overflows u, and the inf - inf differences are NaN, which
    # max() would silently drop
    frame = KelvinFrame(PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7])
    v = random_profile(Random(5), 3)
    with np.errstate(all="ignore"):
        report = hessian_identity_check(frame, v, samples=2, fd_step=1e300)
    assert report.max_abs_deviation == math.inf
    assert report.max_rel_deviation == math.inf


def test_hessian_identity_check_bounds_its_stencil(monkeypatch):
    # samples x (2n^2 + 1) x n coordinates: 33 points of 4 per sample at
    # n = 4; only the arithmetic runs at the real cap
    samples = MAX_FD_WORK // 132
    check_fd_work(4, samples)
    with pytest.raises(ValueError, match=f"{samples + 1} samples in dimension 4 visit {(samples + 1) * 132} stencil"):
        check_fd_work(4, samples + 1)
    # the check refuses before it draws: 19 points of 3 per sample at n = 3
    monkeypatch.setattr(kelvin, "MAX_FD_WORK", 114)
    frame = KelvinFrame(PhaseBranch.slag(THETA3), [1.0, -0.3, 0.7])
    v = random_profile(Random(5), 3)
    assert hessian_identity_check(frame, v, samples=2).samples == 2
    with pytest.raises(ValueError, match="3 samples in dimension 3 visit 171 stencil coordinates"):
        hessian_identity_check(frame, v, samples=3)


# ── symbolic trace identity ──────────────────────────────────────────────


@pytest.mark.parametrize("n", [2, 3, 4])
def test_trace_identity_defect_vanishes(n):
    assert trace_identity_defect(n).is_zero


def test_trace_identity_defect_detects_a_perturbed_L():
    # negative control: adding v to the radial weight L adds exactly v to
    # trace(M), and the defect is that polynomial over the 13 jet variables
    real = kelvin.identity_parts

    def perturbed(y, value, grad, hess, ysq):
        K, L = real(y, value, grad, hess, ysq)
        return K, L + value

    with mock.patch.object(kelvin, "identity_parts", perturbed):
        defect = trace_identity_defect(3)
    assert type(defect) is MultiPoly
    assert defect == jet_indeterminates(3)[1] == MultiPoly.variable(13, 3)


def test_trace_identity_defect_validates():
    with pytest.raises(ValueError):
        trace_identity_defect(1)
