"""Branch maps, inversion frames, and the exterior Hessian identity.

The M/N/K/L assembly is validated three independent ways: pinned closed
forms, an analytically differentiated exterior solution, and central finite
differences of the full transform."""

import hashlib
import json
import math
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
    Jet2,
    KelvinFrame,
    PhaseBranch,
    ZeroPointError,
    check_fd_work,
    hessian_identity_check,
    identity_parts,
    jet_indeterminates,
    kelvin_map,
    poly_jet,
    scaling_matrix,
    trace_identity_defect,
    u_from_v,
)

THETA3 = 3 * math.pi / 4

ALL_BRANCHES = [
    PhaseBranch.slag(THETA3),
    PhaseBranch.recip(-1.5),
    PhaseBranch.make("ATAN2", 1.0, tau=1.1),
    PhaseBranch.make("LOG", -2.0, tau=0.5),
]


# ── branch scalar maps ───────────────────────────────────────────────────


def test_branch_construction_and_tau_defaults():
    b = PhaseBranch.slag(THETA3)
    assert (b.kind, b.tau, b.a, b.b) == ("SLAG", math.pi / 2, 0.0, 1.0)
    r = PhaseBranch.recip(0.3)
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
        t = branch.g(lam)
        assert abs(branch.g_inverse(t) - lam) < 1e-9 * max(1.0, abs(lam))
        if prev is not None:
            assert t > prev
        prev = t


@pytest.mark.parametrize("branch", ALL_BRANCHES, ids=lambda b: b.kind)
def test_g_prime_matches_finite_difference(branch):
    lower = branch.admissible_lower()
    points = [0.3, 1.7, 4.0] if lower is None else [lower + d for d in (0.2, 1.0, 3.0)]
    h = 1e-6
    for lam in points:
        fd = (branch.g(lam + h) - branch.g(lam - h)) / (2 * h)
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
        (recip.g, -1.5, "eigenvalue -1.5 is not above the RECIP bound -1.0"),
        (recip.g_prime, -1.0, "eigenvalue -1.0 is not above the RECIP bound -1.0"),
        (lg.g, lg.b - lg.a, f"eigenvalue {lg.b - lg.a} is not above the LOG bound {lg.b - lg.a}"),
        (at.g_prime, -2.0, f"eigenvalue -2.0 is not above the ATAN2 bound {-(at.a + at.b)}"),
        (slag.g_inverse, 2.0, "inverse argument 2.0 outside (-pi/2, pi/2)"),
        (recip.g_inverse, 0.1, "inverse argument 0.1 must be negative"),
        (lg.g_inverse, 0.0, "inverse argument 0.0 must be negative"),
        (at.g_inverse, 100.0, "inverse argument 100.0 outside the branch range"),
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
    # the maps a loop reads once from `maps` and the methods are the same
    # functions, and each rounds as its formula reads
    g, g_prime, g_inverse = _closed_forms(branch)
    lower = branch.admissible_lower()
    assert branch.maps.lower == lower
    offsets = [1e-9, 0.01, 0.5, 3.0, 1e6]
    lams = [-1e6, -3.0, -0.5, 0.0, 0.5, 3.0, 1e6] if lower is None else [lower + d for d in offsets]
    for lam in lams:
        t = g(lam)
        for got, want in (
            (branch.g(lam), t),
            (branch.maps.g(lam), t),
            (branch.g_prime(lam), g_prime(lam)),
            (branch.maps.g_prime(lam), g_prime(lam)),
            (branch.g_inverse(t), g_inverse(t)),
            (branch.maps.g_inverse(t), g_inverse(t)),
        ):
            assert got.hex() == want.hex()


def test_phase_and_quadratic_fixed_point():
    branch = PhaseBranch.slag(THETA3)
    lam = [1.0, 2.0, 0.5]
    assert abs(branch.phase(lam) - sum(math.atan(v) for v in lam)) < 1e-15
    # the radial quadratic profile has n g(alpha) = theta
    for b in ALL_BRANCHES:
        n = 3
        target = b.theta
        if b.kind in ("RECIP", "LOG") and target >= 0:
            target = -1.0
        alpha = b.g_inverse(target / n)
        assert abs(n * b.g(alpha) - target) < 1e-12


def test_branch_json_roundtrip():
    slag = PhaseBranch.slag(2.3562)
    blob = slag.to_json()
    assert blob == {"kind": "SLAG", "theta": 2.3562}
    assert PhaseBranch.from_json(blob) == slag
    at = PhaseBranch.make("ATAN2", 0.9, tau=1.3)
    blob2 = json.loads(json.dumps(at.to_json()))
    back = PhaseBranch.from_json(blob2)
    assert back.kind == "ATAN2" and abs(back.tau - 1.3) < 1e-15
    with pytest.raises(ValueError):
        PhaseBranch.from_json({"kind": "SLAG"})


# ── scaling matrix ───────────────────────────────────────────────────────


def test_scaling_matrix_pinned():
    slag = PhaseBranch.slag(THETA3)
    assert np.allclose(scaling_matrix(slag, [1, 1, 1]), [math.sqrt(2)] * 3)
    recip = PhaseBranch.recip(-1.0)
    assert np.allclose(scaling_matrix(recip, [0, 0]), [2 ** (-1 / 4)] * 2)


@pytest.mark.parametrize("branch", ALL_BRANCHES, ids=lambda b: b.kind)
def test_scaling_matrix_is_inverse_root_slope(branch):
    lower = branch.admissible_lower()
    lams = [0.5, 1.0, 2.5] if lower is None else [lower + d for d in (0.3, 1.1, 2.0)]
    R = scaling_matrix(branch, lams)
    for r, lam in zip(R, lams):
        assert r > 0
        assert abs(r * r * branch.g_prime(lam) - 1.0) < 1e-12


def test_scaling_matrix_admissibility():
    recip = PhaseBranch.recip(-1.0)
    with pytest.raises(AdmissibilityError):
        scaling_matrix(recip, [0.5, -1.0])
    lg = PhaseBranch.make("LOG", -1.0, tau=0.5)
    with pytest.raises(AdmissibilityError):
        scaling_matrix(lg, [lg.b - lg.a - 0.5, 1.0])

    # g'(lambda) = 1 / (1 + lambda^2) underflows to 0 at 1e300
    with pytest.raises(AdmissibilityError, match="eigenvalue 1e\\+300"):
        scaling_matrix(PhaseBranch.slag(1.0), [1e300, 1.0])
    with pytest.raises(AdmissibilityError):
        KelvinFrame(PhaseBranch.slag(1.0), [1e300, 1.0])


# ── point maps ───────────────────────────────────────────────────────────


def test_kelvin_map_classic_inversion():
    y = kelvin_map([2.0, 0.0, 0.0], [1.0, 1.0, 1.0])
    assert np.allclose(y, [0.5, 0.0, 0.0])
    assert abs(np.linalg.norm(y) - 1 / 2.0) < 1e-15


def test_kelvin_map_roundtrips():
    rng = Random(4)
    for _ in range(20):
        n = rng.randint(2, 5)
        x = np.array([rng.uniform(-3, 3) for _ in range(n)])
        if np.linalg.norm(x) < 1e-3:
            continue
        R = [rng.uniform(0.5, 2.0) for _ in range(n)]
        y = kelvin_map(x, R, "forward")
        back = kelvin_map(y, R, "backward")
        assert np.allclose(back, x, atol=1e-12)
        assert np.allclose(kelvin_map(back, R, "forward"), y, atol=1e-12)
    # a stack of points, one per row, maps row by row
    rng = np.random.default_rng(4)
    for n in range(2, 6):
        xs = rng.uniform(-3.0, 3.0, size=(7, n))
        R = rng.uniform(0.5, 2.0, size=n)
        for direction in ("forward", "backward"):
            stacked = kelvin_map(xs, R, direction)
            assert isinstance(stacked, list) and np.shape(stacked) == xs.shape
            assert kelvin_map(xs.tolist(), R, direction) == stacked
            for x, row in zip(xs, stacked):
                assert row == kelvin_map(x, R, direction)


def test_kelvin_map_errors():
    with pytest.raises(ZeroPointError):
        kelvin_map([0.0, 0.0], [1.0, 1.0])
    with pytest.raises(ValueError):
        kelvin_map([1.0, 0.0], [1.0, 1.0], "sideways")
    with pytest.raises(ValueError):
        kelvin_map([1.0, 0.0], [1.0, -1.0])
    with pytest.raises(ValueError):
        kelvin_map([1.0, 0.0], [1.0, 1.0, 1.0])
    # one origin row among stacked points
    with pytest.raises(ZeroPointError):
        kelvin_map([[1.0, 2.0], [0.0, 0.0], [3.0, -1.0]], [1.0, 1.0])
    with pytest.raises(ValueError):
        kelvin_map([[1.0, 2.0], [3.0, -1.0]], [1.0, 1.0, 1.0])


# ── frames ───────────────────────────────────────────────────────────────


def test_frame_construction_and_json():
    branch = PhaseBranch.slag(2.3562)
    frame = KelvinFrame(branch, [1.0, 2.0, -0.5], linear=[0.1, 0.0, -0.2], constant=3.0)
    assert frame.n == 3
    assert np.allclose(frame.R, scaling_matrix(branch, frame.spectrum))
    blob = frame.to_json()
    assert set(blob) == {"n", "branch", "lambda", "b", "c"}
    assert blob["n"] == 3 and blob["c"] == 3.0
    back = KelvinFrame.from_json(json.loads(json.dumps(blob)))
    assert back.spectrum == frame.spectrum and back.linear == frame.linear


def test_frame_validation():
    branch = PhaseBranch.slag(2.0)
    with pytest.raises(ValueError):
        KelvinFrame(branch, [1.0])
    with pytest.raises(ValueError):
        KelvinFrame(branch, [1.0, 2.0], linear=[0.0])
    with pytest.raises(AdmissibilityError):
        KelvinFrame(PhaseBranch.recip(-1.0), [-2.0, 0.0])
    with pytest.raises(ValueError):
        KelvinFrame.from_json({"n": 3, "branch": {"kind": "SLAG", "theta": 1.0}, "lambda": [1.0, 2.0]})


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


def test_u_from_v_takes_stacked_points():
    frame = KelvinFrame(
        PhaseBranch.make("LOG", -2.0, tau=0.5), [1.0, 2.0, 0.5], linear=[1.0, 0.0, -2.0], constant=4.0
    )
    v = random_profile(Random(3), 3)
    xs = np.random.default_rng(6).uniform(-3.0, 3.0, size=(4, 5, 3))
    stacked = u_from_v(frame, v.evaluate, xs)
    assert isinstance(stacked, list) and np.shape(stacked) == (4, 5)
    assert u_from_v(frame, v.evaluate, xs.tolist()) == stacked
    for i, j in np.ndindex(4, 5):
        assert stacked[i][j] == u_from_v(frame, lambda y: float(v.evaluate(list(y))), xs[i, j])


# ── jets ─────────────────────────────────────────────────────────────────


def test_poly_jet_pinned():
    y1 = MultiPoly.variable(3, 0)
    y2 = MultiPoly.variable(3, 1)
    v = y1**2 * y2
    jet = poly_jet(v, [0.2, 0.3, 0.1])
    assert abs(jet.value - 0.012) < 1e-15
    assert np.allclose(jet.grad, [0.12, 0.04, 0.0])
    assert np.allclose(jet.hess, [[0.6, 0.4, 0.0], [0.4, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert jet.n == 3
    assert jet.y == (0.2, 0.3, 0.1) and type(jet.value) is float
    assert type(jet.grad) is tuple and all(type(row) is tuple for row in jet.hess)
    # a jet holds tuples whatever sequences it was given
    assert Jet2(np.array(jet.y), jet.value, list(jet.grad), np.array(jet.hess)) == jet


def test_jet_validation():
    with pytest.raises(ValueError):
        Jet2(y=np.zeros(3), value=0.0, grad=np.zeros(3), hess=np.zeros((3, 3)))
    with pytest.raises(ValueError):
        Jet2(y=np.array([1.5, 0, 0]), value=0.0, grad=np.zeros(3), hess=np.zeros((3, 3)))
    bad = np.zeros((3, 3))
    bad[0, 1] = 1e-6
    with pytest.raises(ValueError):
        Jet2(y=np.array([0.5, 0, 0]), value=0.0, grad=np.zeros(3), hess=bad)
    with pytest.raises(ValueError):
        Jet2(y=np.array([0.5, 0, 0]), value=0.0, grad=np.zeros(2), hess=np.zeros((3, 3)))


ZERO_HESS = ((0.0,) * 3,) * 3


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_jet_refuses_a_non_finite_value(value):
    with pytest.raises(ValueError, match=f"jet value {value} is not finite"):
        Jet2(y=(0.5, 0.0, 0.0), value=value, grad=(0.0,) * 3, hess=ZERO_HESS)


def test_jet_refuses_a_non_finite_gradient_entry():
    with pytest.raises(ValueError, match="gradient entry 2 is inf"):
        Jet2(y=(0.5, 0.0, 0.0), value=0.0, grad=(0.0, 1.0, math.inf), hess=ZERO_HESS)


def test_jet_refuses_a_non_finite_hessian_entry():
    # a NaN pair passed the symmetry test, since nan > 1e-12 is False
    hess = [[0.0, math.nan, 0.0], [math.nan, 0.0, 0.0], [0.0, 0.0, 0.0]]
    with pytest.raises(ValueError, match=r"Hessian entry \(0, 1\) is nan"):
        Jet2(y=(0.5, 0.0, 0.0), value=0.0, grad=(0.0,) * 3, hess=hess)


# ── the Hessian identity matrices ────────────────────────────────────────


def unit_frame(n=3):
    return KelvinFrame(PhaseBranch.slag(THETA3), [0.0] * n)


def matrices_MNKL(jet, frame):
    """The matrices of the Hessian identity at one jet, as nested lists:
    L, the weight of the rank-one radial part; K, the polynomial part;
    M = K + (L / |y|^2) y y^T; and N = R M R, so that D^2 u = A + |y|^n N
    at the exterior point behind y.  Each entry of N takes the float
    operations that `hessian_identity_check` takes for it."""
    if jet.n != frame.n:
        raise ValueError(f"jet dimension {jet.n} does not match frame dimension {frame.n}")
    y, r = jet.y, frame.R
    ysq = _dot(y, y)
    K, L = identity_parts(y, jet.value, jet.grad, jet.hess, ysq)
    ratio = L / ysq
    M = [[k + ratio * (yi * yj) for k, yj in zip(row, y)] for row, yi in zip(K, y)]
    N = [[(ri * rj) * m for m, rj in zip(row, r)] for row, ri in zip(M, r)]
    return M, N, K, L


def test_mnkl_pinned_constant_profile():
    frame = unit_frame()
    jet = poly_jet(MultiPoly.const(3, 1), [0.5, 0.0, 0.0])
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
            out.append(matrices_MNKL(poly_jet(v, point), frame))
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
        jet = poly_jet(v, y)
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
        jet = Jet2(
            y=y,
            value=rng.uniform(-2, 2),
            grad=np.array([rng.uniform(-2, 2) for _ in range(n)]),
            hess=hess,
        )
        M, _, _, _ = matrices_MNKL(jet, frame)
        lhs = float(np.trace(M))
        rhs = float(np.dot(y, y)) * float(np.trace(hess))
        assert abs(lhs - rhs) < 1e-10 * max(1.0, abs(rhs))


def test_mnkl_dimension_mismatch():
    frame = unit_frame(3)
    jet = poly_jet(MultiPoly.const(4, 1), [0.3, 0.0, 0.0, 0.1])
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
        (PhaseBranch.recip(-2.0), [0.4, -0.2, 1.1]),
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
    """The check one sample at a time, through poly_jet, matrices_MNKL and
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
        y = kelvin_map(x, frame.R, "forward")
        _, N, _, _ = matrices_MNKL(poly_jet(v, y), frame)
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
