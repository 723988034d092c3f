"""Radial integrator: scalar root, log-r RK4 trajectories, CSV.

The scalar relation g(u'') + (n-1) g(u'/r) = theta is the backbone of
every check: pinned closed-form roots, exactly stationary quadratic
rays, and a step-doubling error estimate that converges at fourth order
and bounds the change from halving the step."""

import csv
import hashlib
import math
import random

import numpy as np
import pytest

from kelvinasym import radial
from kelvinasym.expand import write_samples
from kelvinasym.kelvin import PhaseBranch
from kelvinasym.radial import (
    DomainError,
    RadialState,
    count_nodes,
    integrate_exterior,
    kernel_name,
    trajectory_samples,
    write_trajectory,
)

THETA3 = 3 * math.pi / 4


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
    t = float(theta) - (n - 1) * branch.maps.g(float(p) / r)
    return branch.maps.g_inverse(t)


def trajectory_rows(path) -> list[tuple[float, ...]]:
    """The rows of a trajectory CSV under its header, as (r, u, du,
    error_estimate) floats."""
    with open(path, newline="") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["r", "u", "du", "error_estimate"]
    return [tuple(map(float, row)) for row in rows]


# (branch, admissible alpha) pairs covering all four kinds; theta is
# chosen per test as n * g(alpha) so that u = alpha r^2 / 2 solves the
# equation exactly
BRANCH_ALPHAS = [
    (PhaseBranch.slag(THETA3), 1.0),
    (PhaseBranch.make("RECIP", -1.5), 0.5),
    (PhaseBranch.make("ATAN2", 1.0, tau=3 * math.pi / 8), 0.2),
    (PhaseBranch.make("LOG", -2.0, tau=math.pi / 8), 0.3),
]


# ── the scalar root u'' ──────────────────────────────────────────────────


def test_rhs_slag_unit_slope_gives_unit_curvature():
    br = PhaseBranch.slag(THETA3)
    for r in (1.0, 2.0, 7.5, 40.0):
        assert radial_rhs(br, 3, THETA3, r, r) == pytest.approx(1.0, abs=1e-12)


def test_rhs_recip_flat_start_gives_zero_curvature():
    theta = -3.0 * math.sqrt(2.0)
    br = PhaseBranch.make("RECIP", theta)
    assert radial_rhs(br, 3, theta, 1.0, 0.0) == pytest.approx(0.0, abs=1e-12)


def test_rhs_slag_steep_slope_limit():
    # as p/r grows the two slope eigenvalues eat pi of phase, leaving
    # tan(3pi/4 - pi) = -1 in the limit
    br = PhaseBranch.slag(THETA3)
    w = radial_rhs(br, 3, THETA3, 1.0, 1e8)
    assert w == pytest.approx(-1.0, abs=1e-6)


def test_rhs_is_exact_root_of_the_scalar_relation():
    for br, alpha in BRANCH_ALPHAS:
        for n in (2, 3, 4):
            theta = n * br.maps.g(alpha)
            for r in (1.0, 3.0, 11.0):
                w = radial_rhs(br, n, theta, r, 0.9 * alpha * r)
                res = br.maps.g(w) + (n - 1) * br.maps.g(0.9 * alpha) - theta
                assert abs(res) < 1e-12


def test_rhs_quadratic_ray_is_stationary():
    for br, alpha in BRANCH_ALPHAS:
        for n in (2, 3, 4):
            theta = n * br.maps.g(alpha)
            for r in (1.0, 5.0, 25.0):
                assert radial_rhs(br, n, theta, r, alpha * r) == pytest.approx(
                    alpha, abs=1e-12
                )


def test_rhs_domain_errors_name_the_offending_quantity():
    br = PhaseBranch.slag(THETA3)
    # steep negative slope pushes the right-hand side past the tan range
    with pytest.raises(DomainError, match="outside"):
        radial_rhs(br, 3, THETA3, 1.0, -5.0)

    theta = -3.0 * math.sqrt(2.0)
    rec = PhaseBranch.make("RECIP", theta)
    # slope admissible but the right-hand side leaves the negative range
    with pytest.raises(DomainError, match="negative"):
        radial_rhs(rec, 3, theta, 1.0, -0.5)
    # slope itself below the eigenvalue bound
    with pytest.raises(DomainError, match="bound"):
        radial_rhs(rec, 3, theta, 1.0, -1.5)

    lg = PhaseBranch.make("LOG", -2.0, tau=math.pi / 8)
    theta = 3 * lg.maps.g(0.3)
    with pytest.raises(DomainError, match="negative"):
        radial_rhs(lg, 3, theta, 1.0, -0.21)

    at = PhaseBranch.make("ATAN2", 1.0, tau=3 * math.pi / 8)
    theta = 3 * at.maps.g(0.2)
    with pytest.raises(DomainError, match="range"):
        radial_rhs(at, 3, theta, 1.0, -1.3)


def test_rhs_argument_validation():
    br = PhaseBranch.slag(THETA3)
    with pytest.raises(ValueError, match="dimension"):
        radial_rhs(br, 1, THETA3, 1.0, 1.0)
    with pytest.raises(ValueError, match="dimension"):
        radial_rhs(br, 3.0, THETA3, 1.0, 1.0)
    with pytest.raises(ValueError, match="radius"):
        radial_rhs(br, 3, THETA3, 0.0, 1.0)


# ── exact quadratic trajectories ─────────────────────────────────────────


def test_slag_quadratic_preserved_to_r50():
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.0, 50.0, 1e-3, stride=500)
    assert states[0].r == 1.0
    assert states[-1].r == pytest.approx(50.0, abs=1e-9)
    for s in states:
        assert abs(s.p - s.r) < 1e-9
        assert abs(s.u - 0.5 * s.r * s.r) < 1e-7
        assert s.error < 1e-12


def test_quadratic_fixed_points_all_branches():
    for br, alpha in BRANCH_ALPHAS:
        theta = 3 * br.maps.g(alpha)
        u1, p1 = 0.5 * alpha, alpha
        states = integrate_exterior(br, 3, theta, u1, p1, 50.0, 1e-3, stride=1000)
        dev = max(abs(s.p - alpha * s.r) for s in states)
        assert dev < 1e-9, (br.kind, dev)
        assert max(s.error for s in states) < 1e-10


# ── error estimate along perturbed trajectories ──────────────────────────


def test_perturbed_conservation_below_1e8():
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 200.0, 1e-3, stride=100)
    assert max(s.error for s in states) < 1e-8


def test_curvature_tracks_the_scalar_root():
    # the evolved w must stay on the root branch radial_rhs solves for
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.2, 30.0, 1e-3, stride=2000)
    for s in states:
        assert abs(s.w - radial_rhs(br, 3, THETA3, s.r, s.p)) < 1e-10


def test_error_estimate_converges_at_fourth_order():
    # the estimate is of the global error, so halving the step cuts it
    # ~16x across a decade of steps; at every node it also bounds the
    # actual change of (u, u') when the step is halved
    br = PhaseBranch.slag(THETA3)
    maxima = []
    for h in (0.04, 0.02, 0.01, 0.005, 0.0025):
        states = integrate_exterior(br, 3, THETA3, 0.5, 1.5, 5.0, h)
        maxima.append(max(s.error for s in states))
        if h in (0.04, 0.01):
            finer = {s.r: s for s in integrate_exterior(br, 3, THETA3, 0.5, 1.5, 5.0, h / 2)}
            for s in states:
                change = max(abs(s.u - finer[s.r].u), abs(s.p - finer[s.r].p))
                assert change <= s.error, (h, s.r, change, s.error)
    for coarse, fine in zip(maxima, maxima[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_perturbation_decays_like_inverse_square():
    # u'(r) - r ~ K r^{-2} for n = 3: the deviation at 100 is ~4x the
    # deviation at 200
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 200.0, 1e-3, stride=1000)
    by_r = {round(s.r): s for s in states}
    d100 = abs(by_r[100].p - by_r[100].r)
    d200 = abs(by_r[200].p - by_r[200].r)
    assert d100 > 0 and d200 > 0
    assert 3.2 < d100 / d200 < 4.8


# ── failure handling ─────────────────────────────────────────────────────


def test_stiff_start_converges_to_the_fixed_point():
    # slopes above -1/3 admit a curvature root here; from -0.32 the
    # curvature starts at 16 and the slope climbs to the fixed point 0
    theta = -3.0 * math.sqrt(2.0)
    br = PhaseBranch.make("RECIP", theta)
    states = integrate_exterior(br, 3, theta, 0.0, -0.32, 20.0, 1e-3, stride=1000)
    assert states[0].w == pytest.approx(16.0, abs=1e-12)
    assert states[-1].r == 20.0
    assert all(-1.0 / 3.0 < s.p / s.r < 0.0 and s.w > -1.0 for s in states)
    assert abs(states[-1].p) < 1e-3
    assert max(s.error for s in states) < 1e-4


def test_domain_failure_carries_radius_and_partial_trajectory():
    # a start just inside the admissible slopes (-1/3, inf) makes the
    # first RK4 stage overshoot the edge at this step
    theta = -3.0 * math.sqrt(2.0)
    br = PhaseBranch.make("RECIP", theta)
    with pytest.raises(DomainError) as info:
        integrate_exterior(br, 3, theta, 0.0, -0.333, 20.0, 1e-3)
    err = info.value
    assert err.radius is not None and err.radius > 1.0
    assert isinstance(err.trajectory, list) and len(err.trajectory) >= 1
    assert all(isinstance(s, RadialState) for s in err.trajectory)
    assert all(s.r < err.radius + 1e-12 for s in err.trajectory)
    assert "RECIP" in str(err) and "bound" in str(err)


def _kind_branch(kind, tau):
    # theta = 3 g(0.3): the quadratic ray of slope 0.3 in n = 3
    return PhaseBranch.make(kind, 3 * PhaseBranch.make(kind, 0.0, tau=tau).maps.g(0.3), tau=tau)


_NEAR_START = "near r = 1.0005000803178425"


@pytest.mark.parametrize(
    "branch, u1, p1, message",
    [
        # each start sits just past the slopes that fail at r = 1, so an RK4
        # stage of the first step leaves the admissible slopes
        (
            PhaseBranch.slag(THETA3), 0.5, 0.4143,
            "second derivative u'' grew without bound on the SLAG branch at radial slope "
            f"u'/r = 0.4122600398388866 {_NEAR_START}",
        ),
        (
            PhaseBranch.make("RECIP", -3.0 * math.sqrt(2.0)), 0.15, -0.3332333333333333,
            "second derivative u'' grew without bound on the RECIP branch at radial slope "
            f"u'/r = -0.3338554020241516 {_NEAR_START}",
        ),
        (
            PhaseBranch.make("RECIP", -3.0 * math.sqrt(2.0)), 0.15, -1.0 / 3.0,
            f"radial slope u'/r = -397994589.7052741 fell to the RECIP eigenvalue bound -1.0 {_NEAR_START}",
        ),
        (
            _kind_branch("LOG", math.pi / 8), 0.15, -0.06142598927874095,
            "second derivative u'' grew without bound on the LOG branch at radial slope "
            f"u'/r = -0.06235861187501884 {_NEAR_START}",
        ),
        (
            _kind_branch("LOG", math.pi / 8), 0.15, -0.06152598927874095,
            "radial slope u'/r = -247357453.96985382 fell to the LOG eigenvalue bound "
            f"-0.21684533543747486 {_NEAR_START}",
        ),
        (
            _kind_branch("ATAN2", 3 * math.pi / 8), 0.15, -0.2176307713792221,
            "second derivative u'' grew without bound on the ATAN2 branch at radial slope "
            f"u'/r = -0.21901067947307146 {_NEAR_START}",
        ),
        (
            _kind_branch("ATAN2", 3 * math.pi / 8), 0.15, -0.2177297713792221,
            "second derivative u'' fell to the ATAN2 eigenvalue bound -1.3243932834975498 at "
            f"radial slope u'/r = 216.52100429756428 {_NEAR_START}",
        ),
        # and at the start itself, below each bound
        (
            PhaseBranch.make("RECIP", -3.0 * math.sqrt(2.0)), 0.15, -1.5,
            "radial slope u'/r = -1.5 fell to the RECIP eigenvalue bound -1.0 near r = 1.0",
        ),
        (
            _kind_branch("LOG", math.pi / 8), 0.15, -1.2168453354374749,
            "radial slope u'/r = -1.2168453354374749 fell to the LOG eigenvalue bound "
            "-0.21684533543747486 near r = 1.0",
        ),
        (
            _kind_branch("ATAN2", 3 * math.pi / 8), 0.15, 5.0,
            "second derivative u'' fell to the ATAN2 eigenvalue bound -1.3243932834975498 at "
            "radial slope u'/r = 5.0 near r = 1.0",
        ),
    ],
)
def test_domain_failure_names_the_slope_and_radius_on_every_kind(branch, u1, p1, message):
    with pytest.raises(DomainError) as info:
        integrate_exterior(branch, 3, branch.theta, u1, p1, 20.0, 1e-3)
    err = info.value
    assert str(err) == message
    assert err.radius == float(message.rsplit("near r = ", 1)[1])
    assert len(err.trajectory) == (0 if err.radius == 1.0 else 1)


def test_inadmissible_start_fails_before_any_step():
    br = PhaseBranch.slag(THETA3)
    with pytest.raises(DomainError):
        integrate_exterior(br, 3, THETA3, 0.5, -5.0, 10.0, 1e-2)


def test_integrate_argument_validation():
    br = PhaseBranch.slag(THETA3)
    with pytest.raises(ValueError, match="dimension"):
        integrate_exterior(br, 1, THETA3, 0.5, 1.0, 10.0, 1e-2)
    with pytest.raises(ValueError, match="step"):
        integrate_exterior(br, 3, THETA3, 0.5, 1.0, 10.0, 0.0)
    with pytest.raises(ValueError, match="r_max"):
        integrate_exterior(br, 3, THETA3, 0.5, 1.0, 1.0, 1e-2)
    with pytest.raises(ValueError, match="stride"):
        integrate_exterior(br, 3, THETA3, 0.5, 1.0, 10.0, 1e-2, stride=0)


def test_integrate_rejects_a_non_finite_step_naming_it():
    # an infinite step used to plan zero work and fail later converting NaN
    br = PhaseBranch.slag(THETA3)
    for step in (math.inf, math.nan):
        with pytest.raises(ValueError, match=f"step must be positive and finite, got {step}"):
            integrate_exterior(br, 3, THETA3, 0.5, 1.0, 10.0, step)


def test_planned_work_cap():
    br = PhaseBranch.slag(THETA3)
    for r_max, step, stride in ((1e9, 1e-9, 1), (1e9, 1e-9, 10**12), (math.inf, 1e-3, 1)):
        with pytest.raises(ValueError, match="rmax=.*step=.*stride=.*plans") as info:
            integrate_exterior(br, 3, THETA3, 0.5, 1.0, r_max, step, stride)
        assert not isinstance(info.value, DomainError)


# ── output stride and recording ──────────────────────────────────────────


def test_stride_records_every_block_and_the_final_node():
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 2.0, 1e-2, stride=7)
    # 100 steps: node 0, nodes 7,14,...,98, and the final node 100
    assert len(states) == 16
    radii = [s.r for s in states]
    assert radii == sorted(radii)
    assert states[0].r == 1.0
    assert states[-1].r == pytest.approx(2.0, abs=1e-12)


def test_strided_conservation_is_the_block_maximum():
    # the grid depends on (step, r_max) only, so the stride just selects
    # nodes; each node's error is the block maximum of the estimates
    br = PhaseBranch.slag(THETA3)
    dense = integrate_exterior(br, 3, THETA3, 0.5, 1.4, 3.0, 1e-2, stride=1)
    coarse = integrate_exterior(br, 3, THETA3, 0.5, 1.4, 3.0, 1e-2, stride=25)
    # identical states at shared radii, bitwise (same step sequence)
    dense_by_r = {s.r: s for s in dense}
    for s in coarse:
        d = dense_by_r[s.r]
        assert (s.u, s.p, s.w) == (d.u, d.p, d.w)
    # the coarse maximum equals the dense maximum: nothing hides between rows
    assert max(s.error for s in coarse) == max(s.error for s in dense)


# ── kernel ───────────────────────────────────────────────────────────────


def test_kernel_name_reports_a_known_kernel():
    assert kernel_name() == "python"


# ── CSV round-trip ───────────────────────────────────────────────────────


def test_trajectory_csv_roundtrip(tmp_path):
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 5.0, 1e-2, stride=10)
    path = tmp_path / "traj.csv"
    write_trajectory(path, states)
    rows = trajectory_rows(path)
    assert len(rows) == len(states)
    for row, s in zip(rows, states):
        assert row == (s.r, s.u, s.p, s.error)


@pytest.mark.parametrize("n, theta", [(2, math.pi / 2), (3, THETA3)])
def test_write_trajectory_gives_the_csv_writer_bytes(tmp_path, n, theta):
    states = integrate_exterior(PhaseBranch.slag(theta), n, theta, 0.5, 1.0, 5.0, 1e-2, stride=25)
    awkward = [-0.0, 5e-324, 1e300, 1e16, 0.1, 1 / 3]
    for i in range(len(awkward)):
        r, u, p, error = (awkward[(i + j) % len(awkward)] for j in range(4))
        states.append(RadialState(r=r, u=u, p=-p, w=0.0, error=error))
    path = tmp_path / "traj.csv"
    write_trajectory(path, states)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["r", "u", "du", "error_estimate"])
        for state in states:
            writer.writerow([repr(state.r), repr(state.u), repr(state.p), repr(state.error)])
    assert path.read_bytes() == reference.read_bytes()


# ── scattered samples from a trajectory ──────────────────────────────────


def test_trajectory_samples_exact_values_and_radii():
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=100)
    samples = trajectory_samples(states, 3, per_radius=5, seed=1)
    assert len(samples) == 5 * len(states)
    by_u = {s.u for s in states}
    for x, val in samples:
        assert len(x) == 3
        assert val in by_u
        r = math.sqrt(sum(c * c for c in x))
        match = min(states, key=lambda s: abs(s.r - r))
        assert abs(match.r - r) < 1e-9
        assert val == match.u


def test_trajectory_samples_window_and_determinism():
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=100)
    inside = trajectory_samples(states, 3, per_radius=2, seed=9, r_min=3.0, r_max=7.0)
    assert inside
    for x, _ in inside:
        r = math.sqrt(sum(c * c for c in x))
        assert 3.0 - 1e-9 <= r <= 7.0 + 1e-9
    again = trajectory_samples(states, 3, per_radius=2, seed=9, r_min=3.0, r_max=7.0)
    assert inside == again
    with pytest.raises(ValueError, match="window"):
        trajectory_samples(states, 3, per_radius=2, seed=0, r_min=500.0)
    with pytest.raises(ValueError, match="per_radius"):
        trajectory_samples(states, 3, per_radius=0, seed=0)
    with pytest.raises(ValueError, match="dimension"):
        trajectory_samples(states, 1, per_radius=2, seed=0)


def test_trajectory_samples_stream_is_pinned(tmp_path):
    # one random.Random(4) draws 3 gauss values per direction, node after
    # node and sample after sample; the written CSV is pinned by digest
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=50)
    samples = trajectory_samples(states, 3, per_radius=3, seed=4, r_min=2.0, r_max=8.0)
    assert samples[0] == ((0.12458109084079588, 1.417503411765804, -1.405405147790922), 2.0525355858191676)
    gauss = random.Random(4).gauss
    want = []
    for state in states:
        if 2.0 <= state.r <= 8.0:
            for _ in range(3):
                direction = [gauss(0.0, 1.0) for _ in range(3)]
                scale = state.r / math.hypot(*direction)
                want.append((tuple(c * scale for c in direction), state.u))
    assert len(want) == 3 * 13 and samples == want
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "76604b412186ebfe7499ff5318ce9623f5198746d6fa5079c46c090ee57231a0"


def test_benchmark_samples_are_pinned(tmp_path):
    # the samples.csv of the benchmark's full-size exterior-fit `radial` run
    # (step 1e-3, stride 1000, seed 1); tests/pinned_reports.py pins its
    # trajectory and the fit of these samples
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 2000.0, 1e-3, stride=1000)
    samples = trajectory_samples(states, 3, per_radius=3, seed=1, r_min=20.0, r_max=2000.0)
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    assert len(samples) == 5943
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    assert digest == "346a143b5d6ee50a6a84e9b8bab46718ab31c454cd1e0d88ad567c048cb63e9a"


def test_trajectory_samples_lie_on_their_spheres_with_centred_directions():
    # |x| = r at every sample; each coordinate of a uniform unit direction
    # in 3 dimensions has mean 0 and variance 1/3
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=100)
    samples = trajectory_samples(states, 3, per_radius=400, seed=5)
    assert len(samples) == 400 * len(states) >= 3000
    radius = {s.u: s.r for s in states}
    units = []
    for x, u in samples:
        r = radius[u]
        assert abs(math.hypot(*x) - r) <= 1e-12 * r
        units.append([c / r for c in x])
    sigma = math.sqrt(1.0 / (3 * len(units)))
    for i in range(3):
        assert abs(sum(unit[i] for unit in units) / len(units)) < 4.0 * sigma


def test_trajectory_samples_refuse_more_than_the_cap(monkeypatch):
    # the cap is lowered so that both sides of it run in no time
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=100)
    monkeypatch.setattr(radial, "MAX_SAMPLES", 4 * len(states))
    assert len(trajectory_samples(states, 3, per_radius=4, seed=0)) == 4 * len(states)
    with pytest.raises(ValueError, match=f"{5 * len(states)} samples, more than {4 * len(states)}"):
        trajectory_samples(states, 3, per_radius=5, seed=0)


def test_trajectory_samples_refuse_more_coordinates_than_the_cap(monkeypatch):
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=100)
    # samples x n: one sample on each of three nodes, in a dimension one
    # past the cap, is refused before any direction is drawn
    n = radial.MAX_SAMPLE_COORDINATES // 3 + 1
    with pytest.raises(ValueError, match=f"3 samples in dimension {n} hold {3 * n} coordinates"):
        trajectory_samples(states[:3], n, per_radius=1, seed=0)
    monkeypatch.setattr(radial, "MAX_SAMPLE_COORDINATES", 12 * len(states))
    assert len(trajectory_samples(states, 3, per_radius=4, seed=0)) == 4 * len(states)
    with pytest.raises(ValueError, match=f"{4 * len(states)} samples in dimension 4 hold"):
        trajectory_samples(states, 4, per_radius=4, seed=0)


@pytest.mark.parametrize(
    "r_max,step,stride",
    [(10.0, 1e-2, 100), (10.0, 1e-2, 7), (5.0, 0.3, 1), (2.0, 0.5, 1000), (60.0, 1e-3, 500)],
)
def test_count_nodes_matches_the_recorded_trajectory(r_max, step, stride):
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, r_max, step, stride=stride)
    radii = [s.r for s in states]
    # window ends on nodes, between nodes, outside the trajectory, and open
    ends = sorted({*radii[:3], *radii[-2:], 0.5, 1.25, 3.3, r_max + 1.0, None}, key=lambda b: (b is not None, b))
    for lo in ends:
        for hi in ends:
            want = sum(1 for r in radii if (lo is None or r >= lo) and (hi is None or r <= hi))
            assert count_nodes(r_max, step, stride, lo, hi) == want, (lo, hi)
    assert count_nodes(r_max, step, stride) == len(states)
    with pytest.raises(ValueError, match="r_lo must not be NaN"):
        count_nodes(r_max, step, stride, math.nan)
    with pytest.raises(ValueError, match="plans"):
        count_nodes(1e9, 1e-9)


def test_trajectory_samples_reject_a_nan_bound():
    # a NaN bound compares false, so it used to sample every node
    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.1, 10.0, 1e-2, stride=100)
    with pytest.raises(ValueError, match="r_min must not be NaN, got nan"):
        trajectory_samples(states, 3, per_radius=2, seed=0, r_min=math.nan)
    with pytest.raises(ValueError, match="r_max must not be NaN, got nan"):
        trajectory_samples(states, 3, per_radius=2, seed=0, r_max=math.nan)


def test_trajectory_samples_feed_the_quadratic_fit():
    from kelvinasym.expand import fit_expansion

    br = PhaseBranch.slag(THETA3)
    states = integrate_exterior(br, 3, THETA3, 0.5, 1.0, 60.0, 1e-3, stride=1000)
    samples = trajectory_samples(states, 3, per_radius=8, seed=2, r_min=5.0)
    fit = fit_expansion(samples, 3, num_annuli=4)
    assert np.max(np.abs(fit.A - np.eye(3))) < 1e-6
    assert np.max(np.abs(fit.b)) < 1e-6
