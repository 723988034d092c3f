"""Radial integrator: scalar root, log-r RK4 trajectories, CSV.

The scalar relation g(u'') + (n-1) g(u'/r) = theta is the backbone of
every check: pinned closed-form roots, exactly stationary quadratic
rays, and a step-doubling error estimate that converges at fourth order
and bounds the change from halving the step."""

import math

import numpy as np
import pytest

from kelvinasym.kelvin import PhaseBranch
from kelvinasym.radial import (
    DomainError,
    RadialState,
    integrate_exterior,
    kernel_name,
    radial_rhs,
    read_trajectory,
    trajectory_samples,
    write_trajectory,
)

THETA3 = 3 * math.pi / 4

# (branch, admissible alpha) pairs covering all four kinds; theta is
# chosen per test as n * g(alpha) so that u = alpha r^2 / 2 solves the
# equation exactly
BRANCH_ALPHAS = [
    (PhaseBranch.slag(THETA3), 1.0),
    (PhaseBranch.recip(-1.5), 0.5),
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
    br = PhaseBranch.recip(theta)
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
            theta = n * br.g(alpha)
            for r in (1.0, 3.0, 11.0):
                w = radial_rhs(br, n, theta, r, 0.9 * alpha * r)
                res = br.g(w) + (n - 1) * br.g(0.9 * alpha) - theta
                assert abs(res) < 1e-12


def test_rhs_quadratic_ray_is_stationary():
    for br, alpha in BRANCH_ALPHAS:
        for n in (2, 3, 4):
            theta = n * br.g(alpha)
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
    rec = PhaseBranch.recip(theta)
    # slope admissible but the right-hand side leaves the negative range
    with pytest.raises(DomainError, match="negative"):
        radial_rhs(rec, 3, theta, 1.0, -0.5)
    # slope itself below the eigenvalue bound
    with pytest.raises(DomainError, match="bound"):
        radial_rhs(rec, 3, theta, 1.0, -1.5)

    lg = PhaseBranch.make("LOG", -2.0, tau=math.pi / 8)
    theta = 3 * lg.g(0.3)
    with pytest.raises(DomainError, match="negative"):
        radial_rhs(lg, 3, theta, 1.0, -0.21)

    at = PhaseBranch.make("ATAN2", 1.0, tau=3 * math.pi / 8)
    theta = 3 * at.g(0.2)
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
        theta = 3 * br.g(alpha)
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
    br = PhaseBranch.recip(theta)
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
    br = PhaseBranch.recip(theta)
    with pytest.raises(DomainError) as info:
        integrate_exterior(br, 3, theta, 0.0, -0.333, 20.0, 1e-3)
    err = info.value
    assert err.radius is not None and err.radius > 1.0
    assert isinstance(err.trajectory, list) and len(err.trajectory) >= 1
    assert all(isinstance(s, RadialState) for s in err.trajectory)
    assert all(s.r < err.radius + 1e-12 for s in err.trajectory)
    assert "RECIP" in str(err) and "bound" in str(err)


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
    rows = read_trajectory(path)
    assert len(rows) == len(states)
    for row, s in zip(rows, states):
        assert row == (s.r, s.u, s.p, s.error)


def test_read_trajectory_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "h.csv"
    bad_header.write_text("radius,u,du,error_estimate\n1.0,1.0,1.0,0.0\n")
    with pytest.raises(ValueError, match="header"):
        read_trajectory(bad_header)

    short_row = tmp_path / "s.csv"
    short_row.write_text("r,u,du,error_estimate\n1.0,1.0\n")
    with pytest.raises(ValueError, match="fields"):
        read_trajectory(short_row)

    not_number = tmp_path / "n.csv"
    not_number.write_text("r,u,du,error_estimate\n1.0,x,1.0,0.0\n")
    with pytest.raises(ValueError, match="numeric"):
        read_trajectory(not_number)


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
