"""Tests for the correction recursion, asymptotic fitting, and recovery."""

import math
import os
import random
import tempfile
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym.exactalg import DimensionError, MultiPoly, RadPoly
from kelvinasym.equations import symbolic_residual_n3
from kelvinasym.expand import (
    ConditioningError,
    ExpansionFit,
    ExpansionState,
    InsufficientDataError,
    fit_expansion,
    leading_correction_Q2,
    next_correction_n3,
    read_fit,
    read_samples,
    recover_v,
    write_fit,
    write_samples,
)
from kelvinasym.kelvin import KelvinFrame, PhaseBranch, u_from_v
from kelvinasym.symfun import Spectrum, random_spectrum


def yvar(i: int) -> MultiPoly:
    return MultiPoly.variable(3, i)


def weighted_square_sum(values) -> MultiPoly:
    out = MultiPoly.zero(3)
    for i, lam in enumerate(values):
        out = out + yvar(i) * yvar(i) * Fraction(lam)
    return out


def sphere_samples(rng, radii, per_radius, field, n=3):
    out = []
    for r in radii:
        for _ in range(per_radius):
            d = rng.normal(size=n)
            d /= np.linalg.norm(d)
            x = r * d
            out.append((tuple(float(c) for c in x), float(field(x))))
    return out


# ── the closed-form quadratic correction ─────────────────────────────────


def test_leading_correction_zero_profile_is_zero():
    q = leading_correction_Q2(0, Spectrum([1, 2, 3]))
    assert q.base.is_zero
    assert q.degree == 2


def test_leading_correction_pinned_spectrum():
    q = leading_correction_Q2(1, Spectrum([1, 2, 3]))
    expected = (
        yvar(0) * yvar(0) * Fraction(1, 2)
        + yvar(1) * yvar(1) * 1
        + yvar(2) * yvar(2) * Fraction(3, 2)
    )
    assert q.base == expected


def test_leading_correction_needs_three_variables():
    with pytest.raises(DimensionError):
        leading_correction_Q2(1, Spectrum([1, 2]))
    with pytest.raises(DimensionError):
        leading_correction_Q2(1, Spectrum([1, 2, 3, 4]))


def test_leading_correction_radial_poisson_identity():
    rnd = random.Random(11)
    for _ in range(20):
        s = random_spectrum(rnd, 3)
        v0 = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
        q = leading_correction_Q2(v0, s)
        sigma1 = sum(s.values, Fraction(0))
        qbar = (
            MultiPoly.r_squared(3) * sigma1 + weighted_square_sum(s.values) * 3
        ) * v0**2
        lhs = RadPoly(3, {1: q.base}).laplacian()
        assert lhs == RadPoly(3, {-1: qbar})


# ── expansion states and the recursion ───────────────────────────────────


def test_state_rejects_inconsistent_data():
    s = Spectrum([1, 2, 3])
    zero = MultiPoly.zero(3)
    with pytest.raises(ValueError):
        ExpansionState(3, s, zero, MultiPoly.const(3, 1), 2)
    with pytest.raises(ValueError):
        ExpansionState(3, s, zero, yvar(0), 2)
    with pytest.raises(ValueError):
        ExpansionState(3, s, yvar(0) ** 3, zero, 2)
    with pytest.raises(ValueError):
        ExpansionState(3, s, zero, yvar(0) * yvar(1) * yvar(2), 3)
    with pytest.raises(DimensionError):
        ExpansionState(3, Spectrum([1, 2]), zero, zero, 2)
    with pytest.raises(ValueError):
        ExpansionState(3, s, zero, zero, 1)


def test_zero_state_step_produces_no_correction():
    s = Spectrum([Fraction(1, 2), 1, 2])
    state = ExpansionState(3, s, MultiPoly.zero(3), MultiPoly.zero(3), 2)
    stepped = next_correction_n3(state)
    assert stepped.Q.is_zero
    assert stepped.P.is_zero
    assert stepped.order == 3


def test_first_correction_from_constant_profile():
    rnd = random.Random(23)
    for _ in range(6):
        s = random_spectrum(rnd, 3)
        p0 = Fraction(rnd.randint(1, 7), rnd.randint(1, 5))
        state = ExpansionState(3, s, MultiPoly.const(3, p0), MultiPoly.zero(3), 2)
        stepped = next_correction_n3(state)
        assert stepped.order == 3
        assert stepped.Q == weighted_square_sum(s.values) * (Fraction(1, 2) * p0**2)


def test_first_correction_offset_from_closed_form():
    """The forced quadratic correction equals the closed form exactly: no
    isotropic sigma_1 |y|^2 offset separates the two."""
    rnd = random.Random(29)
    for _ in range(6):
        s = random_spectrum(rnd, 3)
        p0 = Fraction(rnd.randint(1, 5), rnd.randint(1, 4))
        state = ExpansionState(3, s, MultiPoly.const(3, p0), MultiPoly.zero(3), 2)
        produced = next_correction_n3(state).Q
        assert produced == leading_correction_Q2(p0, s).base


def test_step_clears_its_obstruction_degree():
    s = Spectrum([1, Fraction(1, 2), 2])
    state = ExpansionState(3, s, MultiPoly.const(3, 1), MultiPoly.zero(3), 2)
    stepped = next_correction_n3(state)
    sector = symbolic_residual_n3(stepped.P, stepped.Q, s).collect_odd(-1)
    degrees = sorted(sector.homogeneous_components())
    assert all(d > stepped.order - 1 for d in degrees)


def test_two_steps_clear_degrees_through_order():
    s = Spectrum([1, 2, Fraction(-1, 2)])
    profile = MultiPoly.const(3, 1) + yvar(0)
    state = ExpansionState(3, s, profile, MultiPoly.zero(3), 2)
    for _ in range(2):
        state = next_correction_n3(state)
    assert state.order == 4
    sector = symbolic_residual_n3(state.P, state.Q, s).collect_odd(-1)
    assert all(d > state.order - 1 for d in sector.homogeneous_components())


def test_recursion_audit_through_order_five():
    s = Spectrum([1, Fraction(2, 3), Fraction(1, 2)])
    profile = MultiPoly.const(3, 1) + yvar(1)
    state = ExpansionState(3, s, profile, MultiPoly.zero(3), 2)
    while state.order < 5:
        state = next_correction_n3(state)
    sector = symbolic_residual_n3(state.P, state.Q, s).collect_odd(-1)
    assert all(d > 4 for d in sector.homogeneous_components())


def test_recursion_rejects_other_dimensions():
    s = Spectrum([1, 2])
    with pytest.raises(DimensionError):
        next_correction_n3(
            ExpansionState(2, s, MultiPoly.zero(2), MultiPoly.zero(2), 2)
        )


# ── the original equation as arbiter of the first correction ────────────


def original_equation_slope(mp, spectrum, p0, Q):
    """Decay slope, between r = 16 and r = 128 along the ray through
    (2/3, 2/3, 1/3), of sum_i atan lambda_i(D^2 u) - theta for

        u = (1/2) x^T A x + |y| (p0 + |y| Q(y)),  y = Rx/|Rx|^2,

    with A = diag(lambda), R_ii = sqrt(1 + lambda_i^2) and theta the phase
    of A.  The Hessian comes from 50-digit numerical differentiation of u
    itself, so neither the M-matrix assembly nor the symbolic residual is
    involved."""
    with mp.workdps(50):
        lam = [mp.mpf(l.numerator) / l.denominator for l in spectrum]
        R = [mp.sqrt(1 + l * l) for l in lam]
        theta = sum(mp.atan(l) for l in lam)
        v0 = mp.mpf(p0.numerator) / p0.denominator

        def u(*x):
            rx = [R[i] * x[i] for i in range(3)]
            rx2 = sum(c * c for c in rx)
            y = [c / rx2 for c in rx]
            ny = 1 / mp.sqrt(rx2)
            return sum(lam[i] * x[i] ** 2 for i in range(3)) / 2 + ny * (
                v0 + ny * Q.evaluate(y)
            )

        def defect(r):
            x = [r * mp.mpf(2) / 3, r * mp.mpf(2) / 3, r * mp.mpf(1) / 3]
            H = mp.matrix(3, 3)
            for i in range(3):
                for j in range(i, 3):
                    order = [0, 0, 0]
                    order[i] += 1
                    order[j] += 1
                    H[i, j] = H[j, i] = mp.diff(u, x, tuple(order))
            eigs = mp.eigsy(H, eigvals_only=True)
            return abs(sum(mp.atan(e) for e in eigs) - theta)

        return float(mp.log(defect(128) / defect(16)) / mp.log(8))


@pytest.mark.parametrize(
    "spectrum, p0",
    [
        ((Fraction(1), Fraction(1, 2), Fraction(2)), Fraction(1)),
        ((Fraction(1, 3), Fraction(2), Fraction(5)), Fraction(3, 2)),
    ],
)
def test_first_correction_speeds_up_decay_of_original_equation(spectrum, p0):
    mp = pytest.importorskip("mpmath")
    state = ExpansionState(3, spectrum, MultiPoly.const(3, p0), MultiPoly.zero(3), 2)
    recursion_q = next_correction_n3(state).Q
    closed_q = leading_correction_Q2(p0, spectrum).base
    sigma1 = sum(spectrum, Fraction(0))
    refuted_q = closed_q + MultiPoly.r_squared(3) * (Fraction(1, 3) * sigma1 * p0**2)

    uncorrected = original_equation_slope(mp, spectrum, p0, MultiPoly.zero(3))
    assert abs(uncorrected + 6) < 0.1
    for q in (recursion_q, closed_q):
        assert original_equation_slope(mp, spectrum, p0, q) < uncorrected - 2
    # negative control: the isotropic (1/3) sigma_1 |y|^2 term undoes the gain
    assert abs(original_equation_slope(mp, spectrum, p0, refuted_q) + 6) < 0.1


# ── least-squares fitting ────────────────────────────────────────────────


def test_fit_pure_quadratic_is_exact():
    rng = np.random.default_rng(3)
    samples = sphere_samples(
        rng, np.geomspace(5, 50, 25), 10, lambda x: 0.5 * float(x @ x)
    )
    fit = fit_expansion(samples, 3)
    assert np.abs(fit.A - np.eye(3)).max() < 1e-8
    assert np.abs(fit.b).max() < 1e-8
    assert abs(fit.c) < 1e-8
    pts = np.asarray([x for x, _ in samples])
    vals = np.asarray([u for _, u in samples])
    assert np.abs(vals - fit.predict(pts)).max() < 1e-10
    assert fit.d is None


def test_fit_recovers_inverse_radius_decay():
    rng = np.random.default_rng(7)
    radii = list(np.geomspace(10, 100, 30)) + list(np.geomspace(1500, 2000, 8))
    samples = sphere_samples(
        rng, radii, 20, lambda x: 0.5 * float(x @ x) + 1.0 / np.linalg.norm(x)
    )
    annuli = [(10, 17), (17, 29), (29, 50), (50, 85), (85, 105), (1500, 2000)]
    fit = fit_expansion(samples, 3, annuli=annuli)
    assert np.abs(fit.A - np.eye(3)).max() < 1e-6
    assert np.abs(fit.b).max() < 1e-6
    assert abs(fit.decay_slope + 1.0) < 0.05
    assert fit.decay_slope_stderr < 0.05


def test_fit_needs_enough_samples():
    rng = np.random.default_rng(1)
    samples = sphere_samples(rng, [5.0, 9.0, 14.0], 3, lambda x: float(x @ x))
    with pytest.raises(InsufficientDataError):
        fit_expansion(samples, 3)


def test_fit_rejects_non_finite_samples_by_index():
    rng = np.random.default_rng(1)
    samples = sphere_samples(rng, np.linspace(5, 20, 40), 10, lambda x: float(x @ x))
    for bad in (math.nan, math.inf):
        broken = list(samples)
        broken[17] = (broken[17][0], bad)
        with pytest.raises(ValueError, match="sample 17 is not finite") as info:
            fit_expansion(broken, 3)
        assert not isinstance(info.value, InsufficientDataError)
    broken = list(samples)
    broken[250] = ((1.0, math.nan, 2.0), 3.0)
    with pytest.raises(ValueError, match="sample 250 is not finite"):
        fit_expansion(broken, 3)


def test_fit_needs_three_populated_annuli():
    rng = np.random.default_rng(2)
    samples = sphere_samples(rng, np.linspace(5, 20, 30), 4, lambda x: float(x @ x))
    with pytest.raises(InsufficientDataError):
        fit_expansion(samples, 3, annuli=[(5, 10), (10, 21)])


def test_fit_rejects_single_radius():
    rng = np.random.default_rng(4)
    samples = sphere_samples(rng, [10.0] * 15, 4, lambda x: float(x @ x))
    with pytest.raises(InsufficientDataError):
        fit_expansion(samples, 3)


@pytest.mark.parametrize(
    "kwargs, named",
    [
        ({"num_annuli": 0}, "num_annuli must be an integer in 3..1000, got 0"),
        ({"num_annuli": -2}, "got -2"),
        ({"num_annuli": 2}, "got 2"),
        ({"num_annuli": 1001}, "got 1001"),
        ({"num_annuli": 10**6}, "got 1000000"),
        ({"num_annuli": 6.0}, "got 6.0"),
        ({"num_annuli": True}, "got True"),
        ({"annuli": [(k + 1.0, k + 2.0) for k in range(1001)]}, "1001 annuli given, more than 1000"),
    ],
)
def test_fit_rejects_unbounded_annuli_naming_the_value(kwargs, named):
    # the annulus count is checked before any sample is touched
    rng = np.random.default_rng(3)
    samples = sphere_samples(rng, np.geomspace(5, 50, 25), 10, lambda x: 0.5 * float(x @ x))
    with pytest.raises(ValueError, match=named) as info:
        fit_expansion(samples, 3, **kwargs)
    assert not isinstance(info.value, InsufficientDataError)


def test_fit_accepts_the_annulus_count_bounds():
    rng = np.random.default_rng(3)
    samples = sphere_samples(rng, np.geomspace(5, 50, 25), 10, lambda x: 0.5 * float(x @ x))
    fit = fit_expansion(samples, 3, num_annuli=3)
    assert np.abs(fit.A - np.eye(3)).max() < 1e-8
    # 1000 annuli leave the outermost one too thin to fit, which is a data
    # failure, not a rejected count
    with pytest.raises(ConditioningError):
        fit_expansion(samples, 3, num_annuli=1000)


def test_fit_conditioning_guard():
    samples = []
    for r in np.geomspace(5, 50, 60):
        samples.append(((float(r), 0.0, 0.0), float(0.5 * r * r)))
    with pytest.raises(ConditioningError):
        fit_expansion(samples, 3)


def test_fit_two_dimensional_log_recovery():
    A = np.array([[1.0, 0.3], [0.3, 0.5]])
    b = np.array([0.2, -0.1])
    c, d = 0.4, 0.7
    frame = np.eye(2) + A @ A

    def field(x):
        return (
            0.5 * float(x @ A @ x)
            + float(b @ x)
            + c
            + 0.5 * d * math.log(float(x @ frame @ x))
            + 1e-4 / np.linalg.norm(x)
        )

    rng = np.random.default_rng(9)
    radii = list(np.geomspace(10, 100, 25)) + list(np.geomspace(1500, 2000, 8))
    samples = sphere_samples(rng, radii, 30, field, n=2)
    annuli = [(10, 18), (18, 32), (32, 56), (56, 105), (1500, 2000)]
    fit = fit_expansion(samples, 2, annuli=annuli)
    assert np.abs(fit.A - A).max() < 1e-5
    assert abs(fit.d - d) < 1e-4
    assert abs(fit.c - c) < 1e-3
    assert abs(fit.decay_slope + 1.0) < 0.2


def test_fit_log_basis_reduces_outer_rms():
    lam = 0.8
    A = np.diag([lam, lam])

    def field(x):
        r2 = float(x @ x)
        return 0.5 * lam * r2 + 0.3 + 0.6 * math.log((1 + lam * lam) * r2) * 0.5

    rng = np.random.default_rng(13)
    samples = sphere_samples(rng, np.geomspace(20, 200, 30), 25, field, n=2)
    with_log = fit_expansion(samples, 2)
    without_log = fit_expansion(samples, 2, with_log=False)
    pts = np.asarray([x for x, _ in samples])
    vals = np.asarray([u for _, u in samples])
    radii = np.linalg.norm(pts, axis=1)
    outer = radii >= with_log.annuli[-1][0]
    rms_with = float(np.sqrt(np.mean((vals - with_log.predict(pts))[outer] ** 2)))
    rms_without = float(
        np.sqrt(np.mean((vals - without_log.predict(pts))[outer] ** 2))
    )
    assert rms_without >= 10.0 * rms_with
    assert abs(with_log.d - 0.6) < 1e-6
    assert without_log.d is None


# ── profile recovery ─────────────────────────────────────────────────────


def exact_fit_for(frame):
    return ExpansionFit(
        A=np.diag(frame.spectrum),
        b=np.asarray(frame.linear),
        c=frame.constant,
        d=None,
        decay_slope=-1.0,
        decay_slope_stderr=0.0,
        annuli=((1.0, 2.0),),
    )


def test_recover_constant_profile_roundtrip():
    frame = KelvinFrame(
        PhaseBranch.slag(2.0), [1.0, -0.5, 2.0], linear=(0.1, -0.2, 0.3), constant=0.7
    )
    v0 = 0.8
    rng = np.random.default_rng(21)
    samples = sphere_samples(
        rng, np.geomspace(3, 30, 15), 8, lambda x: u_from_v(frame, lambda y: v0, x)
    )
    pairs, estimate = recover_v(samples, exact_fit_for(frame), frame)
    values = np.asarray([v for _, v in pairs])
    assert np.abs(values - v0).max() < 1e-10
    assert abs(estimate - v0) < 1e-10


def test_recover_polynomial_profile_roundtrip():
    frame = KelvinFrame(PhaseBranch.slag(1.0), [0.5, 1.0, 1.5])
    poly = (
        MultiPoly.const(3, Fraction(1, 2))
        + yvar(0) * Fraction(1, 3)
        + yvar(1) * yvar(2) * Fraction(2, 5)
    )

    def v(y):
        return float(poly.evaluate([float(c) for c in y]))

    rng = np.random.default_rng(27)
    samples = sphere_samples(
        rng, np.geomspace(4, 40, 12), 6, lambda x: u_from_v(frame, v, x)
    )
    pairs, estimate = recover_v(samples, exact_fit_for(frame), frame)
    for y, val in pairs:
        assert abs(val - v(y)) < 1e-9
    assert abs(estimate - 0.5) < 0.05


def test_recover_known_inverse_radius_solution():
    frame = KelvinFrame(PhaseBranch.slag(3 * math.atan(1.0)), [1.0, 1.0, 1.0])
    assert np.allclose(frame.R, math.sqrt(2.0))
    rng = np.random.default_rng(31)
    samples = sphere_samples(
        rng,
        np.geomspace(5, 50, 12),
        6,
        lambda x: 0.5 * float(x @ x) + 1.0 / np.linalg.norm(x),
    )
    fit = ExpansionFit(
        A=np.eye(3),
        b=np.zeros(3),
        c=0.0,
        d=None,
        decay_slope=-1.0,
        decay_slope_stderr=0.0,
        annuli=((5.0, 50.0),),
    )
    pairs, estimate = recover_v(samples, fit, frame)
    values = np.asarray([v for _, v in pairs])
    assert np.abs(values - math.sqrt(2.0)).max() < 1e-10
    assert abs(estimate - math.sqrt(2.0)) < 1e-10


def test_recover_rejects_mismatched_dimensions():
    frame = KelvinFrame(PhaseBranch.slag(2.0), [1.0, 1.0, 1.0])
    fit = ExpansionFit(
        A=np.eye(2),
        b=np.zeros(2),
        c=0.0,
        d=0.0,
        decay_slope=-1.0,
        decay_slope_stderr=0.0,
        annuli=(),
    )
    with pytest.raises(DimensionError):
        recover_v([((1.0, 2.0, 3.0), 4.0)], fit, frame)


# ── fit records and sample files ─────────────────────────────────────────


def test_expansion_fit_guards():
    with pytest.raises(ValueError):
        ExpansionFit(
            A=np.array([[1.0, 0.5], [0.0, 1.0]]),
            b=np.zeros(2),
            c=0.0,
            d=None,
            decay_slope=-1.0,
            decay_slope_stderr=0.0,
            annuli=(),
        )
    with pytest.raises(ValueError):
        ExpansionFit(
            A=np.eye(3),
            b=np.zeros(3),
            c=0.0,
            d=0.5,
            decay_slope=-1.0,
            decay_slope_stderr=0.0,
            annuli=(),
        )
    with pytest.raises(ValueError):
        ExpansionFit(
            A=np.eye(3),
            b=np.zeros(3),
            c=0.0,
            d=None,
            decay_slope=math.nan,
            decay_slope_stderr=0.0,
            annuli=(),
        )


def test_fit_json_roundtrip(tmp_path):
    fit = ExpansionFit(
        A=np.array([[1.0, 0.25, 0.0], [0.25, 2.0, -0.5], [0.0, -0.5, 3.0]]),
        b=np.array([0.1, -0.2, 0.3]),
        c=1.25,
        d=None,
        decay_slope=-1.05,
        decay_slope_stderr=0.02,
        annuli=((10.0, 20.0), (20.0, 40.0)),
    )
    path = tmp_path / "fit.json"
    write_fit(path, fit)
    back = read_fit(path)
    assert np.array_equal(back.A, fit.A)
    assert np.array_equal(back.b, fit.b)
    assert back.c == fit.c
    assert back.d is None
    assert back.decay_slope == fit.decay_slope
    assert back.annuli == fit.annuli
    assert "\"d\"" not in path.read_text()

    fit2 = ExpansionFit(
        A=np.eye(2),
        b=np.zeros(2),
        c=0.0,
        d=0.75,
        decay_slope=-1.0,
        decay_slope_stderr=0.1,
        annuli=((1.0, 2.0),),
    )
    path2 = tmp_path / "fit2.json"
    write_fit(path2, fit2)
    assert read_fit(path2).d == 0.75


def test_samples_csv_roundtrip(tmp_path):
    samples = [
        ((1.0, -2.5, 3.125), 0.7071067811865476),
        ((4.0, 5.0, -6.0), -1.2345678901234567),
    ]
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    header = path.read_text().splitlines()[0]
    assert header == "x1,x2,x3,u"
    back = read_samples(path)
    assert back == samples


def test_read_samples_rejects_bad_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,u\n1,2,3\n")
    with pytest.raises(ValueError):
        read_samples(path)
    path2 = tmp_path / "short.csv"
    path2.write_text("x1,x2,u\n1,2\n")
    with pytest.raises(ValueError):
        read_samples(path2)


def test_read_samples_rejects_non_finite_rows(tmp_path):
    for bad in ("nan", "inf", "-inf"):
        path = tmp_path / f"{bad}.csv"
        path.write_text(f"x1,x2,u\n1,2,3\n4,5,6\n7,{bad},9\n")
        with pytest.raises(ValueError, match="row 4 is not finite"):
            read_samples(path)


def test_read_samples_names_non_numeric_rows(tmp_path):
    path = tmp_path / "abc.csv"
    path.write_text("x1,x2,u\n1,2,3\n\n4,abc,6\n")
    with pytest.raises(ValueError, match="row 4 is not numeric: 4,abc,6"):
        read_samples(path)


_CSV_CELLS = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["", "abc", "1e400", " 2 ", '"3"', "x1", "u", "1_0"]),
    st.text(max_size=4),
)
_CSV_TEXT = st.one_of(
    st.text(max_size=60),
    st.lists(st.lists(_CSV_CELLS, max_size=4), max_size=5).map(
        lambda rows: "\n".join(",".join(row) for row in rows)
    ),
    st.tuples(
        st.sampled_from(["x1,u", "x1,x2,u", "x1,x2,x3,u", "u", "x2,x1,u"]),
        st.lists(st.lists(_CSV_CELLS, min_size=1, max_size=4), max_size=5),
    ).map(lambda hr: hr[0] + "\n" + "\n".join(",".join(row) for row in hr[1])),
)


@settings(max_examples=150, deadline=None)
@given(_CSV_TEXT)
def test_read_samples_fuzzed_text_raises_only_value_error(text):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "samples.csv")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        try:
            samples = read_samples(path)
        except ValueError:
            return
    assert samples and all(
        math.isfinite(v) and all(map(math.isfinite, x)) for x, v in samples
    )
