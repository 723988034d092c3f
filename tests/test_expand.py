"""Tests for the correction recursion, asymptotic fitting, and sample files."""

import csv
import json
import math
import os
import random
import statistics
import tempfile
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym import radial
from kelvinasym.exactalg import DimensionError, MultiPoly, RadPoly, solve_radical_poisson
from kelvinasym.equations import WindowedResidual
from kelvinasym import expand
from kelvinasym.expand import (
    MAX_FIT_WORK,
    ConditioningError,
    ExpansionFit,
    ExpansionState,
    InsufficientDataError,
    _householder_qr,
    _median,
    _solve_least_squares,
    _symmetric_eigenvalues,
    check_fit_work,
    correct_through,
    fit_expansion,
    leading_correction,
    read_samples,
    write_fit,
    write_samples,
)
from kelvinasym.kelvin import PhaseBranch
from kelvinasym.symfun import Spectrum, random_spectrum
from test_equations import symbolic_residual
from test_exactalg import r_squared, rad_laplacian


def next_correction(state: ExpansionState) -> ExpansionState:
    """One step of the correction recursion (`correct_through`): the state
    with ``Q`` augmented by the forced correction and the order advanced
    by one."""
    return correct_through(state, state.order + 1)[0][0]


def model_values(fit: ExpansionFit, points) -> list[float]:
    """The fitted model x^T A x / 2 + b.x + c (+ the log term in two
    variables) at exterior points given one per row."""
    return expand._model_values([tuple(map(float, p)) for p in points], fit.A, fit.b, fit.c, fit.d)


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
    q = leading_correction(0, Spectrum([1, 2, 3]))
    assert q == MultiPoly.zero(3)


def test_leading_correction_pinned_spectrum():
    q = leading_correction(1, Spectrum([1, 2, 3]))
    expected = (
        yvar(0) * yvar(0) * Fraction(1, 2)
        + yvar(1) * yvar(1) * 1
        + yvar(2) * yvar(2) * Fraction(3, 2)
    )
    assert q == expected


def test_leading_correction_refuses_a_float_profile():
    # a float would enter as a 55-bit dyadic rational and pass unnoticed
    with pytest.raises(TypeError, match="expected an exact rational, got float 0.1"):
        leading_correction(0.1, Spectrum([1, 2, 3]))
    assert leading_correction("1/2", [1, 2, 3]) == leading_correction(Fraction(1, 2), Spectrum([1, 2, 3]))


def test_leading_correction_needs_three_variables():
    with pytest.raises(DimensionError):
        leading_correction(1, Spectrum([1, 2]))
    # n = 4: the weight is (n - 2)^2 v0^2 = 4
    q = leading_correction(1, Spectrum([1, 2, 3, 4]))
    want = MultiPoly.zero(4)
    for i, lam in enumerate((1, 2, 3, 4)):
        yi = MultiPoly.variable(4, i)
        want = want + yi * yi * (2 * lam)
    assert q == want


def test_leading_correction_radial_poisson_identity():
    rnd = random.Random(11)
    for _ in range(20):
        s = random_spectrum(rnd, 3)
        v0 = Fraction(rnd.randint(-5, 5), rnd.randint(1, 4))
        q = leading_correction(v0, s)
        sigma1 = sum(s.values, Fraction(0))
        qbar = (
            r_squared(3) * sigma1 + weighted_square_sum(s.values) * 3
        ) * v0**2
        lhs = rad_laplacian(RadPoly(3, {1: q}))
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
    stepped = next_correction(state)
    assert stepped.Q.is_zero
    assert stepped.P.is_zero
    assert stepped.order == 3


def test_first_correction_from_constant_profile():
    rnd = random.Random(23)
    for _ in range(6):
        s = random_spectrum(rnd, 3)
        p0 = Fraction(rnd.randint(1, 7), rnd.randint(1, 5))
        state = ExpansionState(3, s, MultiPoly.const(3, p0), MultiPoly.zero(3), 2)
        stepped = next_correction(state)
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
        produced = next_correction(state).Q
        assert produced == leading_correction(p0, s)


def _odd_weights(residual: RadPoly) -> set[int]:
    """The weights K + |e| of the normal form's terms with K odd; none sits
    below |y|^-1 (`part` refuses one)."""
    weights = {sum(key) for key in residual.terms if key[0] % 2}
    for w in weights:
        assert not residual.part(-1, w).is_zero
    return weights


def test_step_clears_its_obstruction_degree():
    s = Spectrum([1, Fraction(1, 2), 2])
    state = ExpansionState(3, s, MultiPoly.const(3, 1), MultiPoly.zero(3), 2)
    stepped = next_correction(state)
    weights = _odd_weights(symbolic_residual(stepped.P, stepped.Q, s))
    assert weights and all(w > stepped.order - 2 for w in weights)


def test_two_steps_clear_degrees_through_order():
    s = Spectrum([1, 2, Fraction(-1, 2)])
    profile = MultiPoly.const(3, 1) + yvar(0)
    state = ExpansionState(3, s, profile, MultiPoly.zero(3), 2)
    for _ in range(2):
        state = next_correction(state)
    assert state.order == 4
    assert all(w > state.order - 2 for w in _odd_weights(symbolic_residual(state.P, state.Q, s)))


def test_recursion_audit_through_order_five():
    s = Spectrum([1, Fraction(2, 3), Fraction(1, 2)])
    profile = MultiPoly.const(3, 1) + yvar(1)
    state = ExpansionState(3, s, profile, MultiPoly.zero(3), 2)
    while state.order < 5:
        state = next_correction(state)
    assert all(w > 3 for w in _odd_weights(symbolic_residual(state.P, state.Q, s)))


def _untruncated_step(state: ExpansionState) -> ExpansionState:
    # the recursion step read off the whole residual, with no weight ceiling
    n = state.n
    obstruction = symbolic_residual(state.P, state.Q, state.spectrum).part(n - 4, state.order - 1)
    delta = solve_radical_poisson(-obstruction, n)
    return ExpansionState(n, state.spectrum, state.P, state.Q + delta, state.order + 1)


@pytest.mark.parametrize(
    "n, top, spectrum",
    [
        (3, 12, (1, Fraction(1, 2), 2)),
        (3, 12, (1, 1, 1)),
        (4, 7, (1, Fraction(1, 2), 2, Fraction(1, 3))),
        (4, 7, (1, 1, 1, 1)),
        (5, 5, (1, Fraction(1, 2), 2, Fraction(1, 3), Fraction(3, 2))),
        (5, 5, (1, 1, 1, 1, 1)),
    ],
)
def test_step_under_the_weight_ceiling_matches_the_untruncated_step(n, top, spectrum):
    # next_correction reads only weight order - 1, so it computes no more
    state = ExpansionState(n, spectrum, MultiPoly.const(n, Fraction(3, 2)), MultiPoly.zero(n), 2)
    reference = state
    while state.order < top:
        state, reference = next_correction(state), _untruncated_step(reference)
        assert state == reference, state.order
    assert not state.Q.is_zero


_GRADED = (1, Fraction(1, 2), 2, Fraction(1, 3), Fraction(3, 2), Fraction(2, 3), Fraction(5, 2))


@pytest.mark.parametrize("n, top", [(3, 10), (4, 7), (5, 5), (6, 8), (7, 9)])
def test_carried_windows_equal_fresh_residuals(n, top):
    # one windowed residual carried through the recursion, each window
    # formed once, against a fresh symbolic_residual at every ceiling: the
    # same residual through each order - 1, the same Q, and the same whole
    # residual.  In n = 7 the whole residual takes seconds per route, so the
    # carried one is compared through ceilings that reach minors of size 4
    s = _GRADED[:n]
    start = ExpansionState(n, s, MultiPoly.const(n, Fraction(3, 2)), MultiPoly.zero(n), 2)
    windows = WindowedResidual(s)
    windows.add(RadPoly(n, {0: start.P}))
    state = start
    while state.order < top:
        cut = windows.through(state.order - 1)
        assert cut == symbolic_residual(state.P, state.Q, s, state.order - 1), state.order
        delta = solve_radical_poisson(-cut.part(n - 4, state.order - 1), n)
        windows.add(RadPoly(n, {n - 2: delta}))
        state = ExpansionState(n, s, state.P, state.Q + delta, state.order + 1)
    assert not state.Q.is_zero
    states, carried = correct_through(start, top)
    assert states[-1] == state and [step.order for step in states] == list(range(3, top + 1))
    assert all(step == next_correction(before) for before, step in zip([start, *states], states))
    for ceiling in (top, 2 * top, 3 * top) if n == 7 else (None,):
        assert carried.through(ceiling) == symbolic_residual(state.P, state.Q, s, ceiling), ceiling


def test_recursion_rejects_other_dimensions():
    s = Spectrum([1, 2])
    with pytest.raises(DimensionError):
        next_correction(
            ExpansionState(2, s, MultiPoly.zero(2), MultiPoly.zero(2), 2)
        )


# ── the recursion beyond three variables: the parity of n ───────────────


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_leading_correction_radial_poisson_identity_in_n(n):
    # lap(|y|^(n-2) q) = |y|^(n-4) (n-2)^2 v0^2 [sigma_1 |y|^2 + n(n-2) sum lambda_i y_i^2]
    rnd = random.Random(61 + n)
    s = random_spectrum(rnd, n)
    v0 = Fraction(rnd.randint(1, 5), rnd.randint(1, 4))
    q = leading_correction(v0, s)
    weighted = MultiPoly.zero(n)
    for i, lam in enumerate(s.values):
        weighted = weighted + MultiPoly.variable(n, i) ** 2 * lam
    qbar = (r_squared(n) * sum(s.values, Fraction(0)) + weighted * (n * (n - 2))) * (
        (n - 2) ** 2 * v0**2
    )
    assert rad_laplacian(RadPoly(n, {n - 2: q})) == RadPoly(n, {n - 4: qbar})


def test_even_dimension_recursion_stays_polynomial():
    # n = 4: |y|^2 is a polynomial, so v = P + |y|^2 Q and every residual
    # have no odd slot, and the recursion closes with polynomial corrections
    s = Spectrum([1, Fraction(1, 2), 2, Fraction(1, 3)])
    p0 = Fraction(3, 2)
    state = ExpansionState(4, s, MultiPoly.const(4, p0), MultiPoly.zero(4), 2)
    first = None
    while state.order <= 6:
        residual = symbolic_residual(state.P, state.Q, s)
        assert all(key[0] % 2 == 0 for key in residual.terms)
        state = next_correction(state)
        if first is None and not state.Q.is_zero:
            first = state
    assert first.order == 4
    assert first.Q == leading_correction(p0, s)
    v = RadPoly(4, {0: state.P, 2: state.Q})
    assert all(key[0] >= 0 and key[0] % 2 == 0 for key in v.terms)
    residual = symbolic_residual(state.P, state.Q, s)
    assert all(key[0] >= 0 and sum(key) > state.order - 2 for key in residual.terms)


def test_odd_dimension_forces_a_radical_cofactor():
    # n = 5: no correction through order 3, then Q = the closed form != 0,
    # so v - v0 = |y|^3 Q carries an odd power of |y| (the C^(n-1, alpha) witness)
    s = Spectrum([1, Fraction(1, 2), 2, Fraction(1, 3), Fraction(3, 2)])
    p0 = Fraction(3, 2)
    state = ExpansionState(5, s, MultiPoly.const(5, p0), MultiPoly.zero(5), 2)
    while state.order <= 3:
        state = next_correction(state)
        assert state.Q.is_zero
    state = next_correction(state)
    closed = leading_correction(p0, s)
    assert not closed.is_zero
    assert state.Q == closed
    keys = RadPoly(5, {3: state.Q}).terms
    assert {key[0] % 2 for key in keys} == {1} and min(key[0] for key in keys) == 3


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_ball_side_function_is_smooth_exactly_in_even_n(n):
    # the paper's regularity claim on the normal form: v = P + |y|^(n-2) Q
    # is smooth where no term |y|^K y^e has K odd, and in odd n the least
    # weight K + |e| of such a term is n, the C^(n-1, alpha) bound, from
    # the leading correction |y|^(n-2) Q2 with Q2 quadratic
    s = [1, Fraction(1, 2), 2, Fraction(1, 3), Fraction(3, 2), Fraction(2, 3), Fraction(5, 2)][:n]
    state = ExpansionState(n, s, MultiPoly.const(n, Fraction(3, 2)), MultiPoly.zero(n), 2)
    while state.order < n + 2:
        state = next_correction(state)
    assert not state.Q.is_zero
    v = RadPoly(n, {0: state.P, n - 2: state.Q})
    odd_weights = {sum(key) for key in v.terms if key[0] % 2}
    if n % 2:
        assert min(odd_weights) == n
    else:
        assert not odd_weights


@pytest.mark.xfail(
    strict=True,
    reason="open defect: in odd n the recursion solves only for Q, so the even "
    "sector keeps the smooth part's forced obstructions (degrees 4 and 10 here)",
)
def test_odd_dimension_recursion_clears_the_even_sector():
    s = Spectrum([1, Fraction(1, 2), 2])
    state = ExpansionState(3, s, MultiPoly.const(3, Fraction(3, 2)), MultiPoly.zero(3), 2)
    while state.order < 8:
        state = next_correction(state)
    residual = symbolic_residual(state.P, state.Q, s)
    for w in range(min(sum(key) for key in residual.terms), state.order):
        assert residual.part(0, w).is_zero, w


@pytest.mark.parametrize("n", [3, 4, 5])
def test_recursion_and_radial_harness_agree_on_the_second_coefficient(n):
    # At A = I, R = sqrt(2) I maps v = v0 + kappa |y|^n to
    # p - r = C r^(1-n) + K r^(1-2n) + ... with C = (2-n) v0 2^((2-n)/2)
    # and K = 2 (1-n) kappa 2^(1-n), so K / C^2 = kappa (1-n) / (v0^2 (n-2)^2);
    # expanding n arctan(p / r) = n pi / 4 about p = r gives -(n-1)/2
    v0 = Fraction(3, 2)
    state = ExpansionState(n, [1] * n, MultiPoly.const(n, v0), MultiPoly.zero(n), 2)
    while state.Q.is_zero:
        state = next_correction(state)
    kappa = state.Q.terms[(2,) + (0,) * (n - 1)]
    assert state.Q == r_squared(n) * kappa
    exact = kappa * (1 - n) / (v0**2 * (n - 2) ** 2)
    assert exact == Fraction(1 - n, 2)

    theta = n * math.atan(1.0)
    states = radial.integrate_exterior(
        PhaseBranch.slag(theta), n, theta, 0.5, 1.1, 30.0, 1e-4, stride=10
    )
    r = np.array([st_.r for st_ in states])
    p = np.array([st_.p for st_ in states])
    keep = r >= 4.0
    design = np.column_stack([r[keep] ** (-(n - 1) - j * n) for j in range(5)])
    c, *_ = np.linalg.lstsq(design, p[keep] - r[keep], rcond=None)
    # measured: 1.5e-8, 6.0e-8 and 5.1e-7 relative at n = 3, 4, 5
    assert abs(c[1] / c[0] ** 2 - float(exact)) <= 1e-5 * abs(float(exact))


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
    recursion_q = next_correction(state).Q
    closed_q = leading_correction(p0, spectrum)
    sigma1 = sum(spectrum, Fraction(0))
    refuted_q = closed_q + r_squared(3) * (Fraction(1, 3) * sigma1 * p0**2)

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
    assert np.abs(vals - model_values(fit, pts)).max() < 1e-10
    assert fit.d is None


def test_median_is_the_statistics_median():
    # fit_expansion's annulus medians keep the bits statistics.median gives
    rng = random.Random(5)
    for size in range(1, 40):
        values = [rng.choice((rng.random() * 1e3, rng.randrange(-9, 9), 0.5)) for _ in range(size)]
        assert _median(values) == statistics.median(values)
        assert type(_median(values)) is type(statistics.median(values))


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


def test_fit_with_no_annuli_populates_none():
    # an empty annulus list is a data failure, not a bare max() error
    rng = np.random.default_rng(2)
    samples = sphere_samples(rng, np.linspace(5, 20, 30), 4, lambda x: float(x @ x))
    with pytest.raises(InsufficientDataError, match="samples populate only 0 annuli"):
        fit_expansion(samples, 3, annuli=[])


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


def test_least_squares_conditioning_budget_edge():
    # orthogonal columns of norms 1 and s give cond^2 = s^-2 exactly, as
    # powers of two keep every step of the solve exact: 2^38 ~ 2.7e11 is
    # within the 1e12 budget, 2^40 ~ 1.1e12 is not
    def solve(s):
        return _solve_least_squares([[1.0, 0.0, 0.0, 0.0], [0.0, s, 0.0, 0.0]], [1.0, 1.0, 0.0, 0.0])

    assert solve(2.0**-19) == [1.0, 2.0**19]
    with pytest.raises(ConditioningError, match="condition 1.100e\\+12 exceeds the 1e12 budget"):
        solve(2.0**-20)
    # s^-2 past the float range is refused too, not overflowed
    with pytest.raises(ConditioningError, match="condition inf exceeds the 1e12 budget"):
        solve(1e-160)


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
    rms_with = float(np.sqrt(np.mean((vals - model_values(with_log, pts))[outer] ** 2)))
    rms_without = float(
        np.sqrt(np.mean((vals - model_values(without_log, pts))[outer] ** 2))
    )
    assert rms_without >= 10.0 * rms_with
    assert abs(with_log.d - 0.6) < 1e-6
    assert without_log.d is None


def test_least_squares_agrees_with_numpy_lstsq():
    # a second route: LAPACK's SVD-based solve on random well-conditioned
    # designs of the fit's shape, coefficients alike, and the eigenvalues of
    # R^T R that price the conditioning equal to the squared singular values
    rng = np.random.default_rng(17)
    for _ in range(3):
        design = rng.uniform(-1.0, 1.0, size=(1500, 10)) * rng.uniform(0.5, 2.0, size=10)
        rhs = rng.normal(size=1500)
        want, _, _, singular = np.linalg.lstsq(design, rhs, rcond=None)
        coef = _solve_least_squares([list(c) for c in design.T], list(rhs))
        assert np.max(np.abs(np.asarray(coef) - want)) <= 1e-12 * np.max(np.abs(want))
        R, _ = _householder_qr([list(c) for c in design.T], list(rhs))
        columns = np.asarray(R)
        got = np.asarray(_symmetric_eigenvalues((columns @ columns.T).tolist()))
        assert np.max(np.abs(got - singular[::-1] ** 2)) <= 1e-12 * singular[0] ** 2


# ── the Jacobi eigenvalue solver, against np.linalg.eigvalsh ─────────────


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def rotated(eigs, q) -> np.ndarray:
    return q @ np.diag(np.asarray(eigs, dtype=float)) @ q.T


def assert_eigenvalues_match(h, rtol=4e-15):
    got = _symmetric_eigenvalues(h.tolist())
    want = np.linalg.eigvalsh(h)
    assert all(isinstance(v, float) for v in got) and got == sorted(got)
    scale = max(abs(want).max(), 1e-300)
    assert max(abs(g - w) for g, w in zip(got, want)) <= rtol * scale


def test_eigenvalues_of_random_symmetric_matrices():
    rng = np.random.default_rng(83)
    for _ in range(300):
        n = int(rng.integers(2, 9))
        h = rng.normal(size=(n, n)) * 10.0 ** rng.uniform(-6, 6)
        assert_eigenvalues_match((h + h.T) / 2)


def test_eigenvalues_of_clustered_spectra():
    rng = np.random.default_rng(89)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        eigs = rng.normal() + 1e-12 * rng.normal(size=n)
        h = rotated(eigs, random_orthogonal(rng, n)) * 10.0 ** rng.uniform(-6, 6)
        assert_eigenvalues_match((h + h.T) / 2)


def test_eigenvalues_of_diagonal_and_zero_matrices_are_exact():
    for diag in ([3.0, -1.0, 2.0], [1e-300, -1e300], [0.5]):
        with mock.patch.object(expand, "_rotation", side_effect=AssertionError("rotated")):
            assert _symmetric_eigenvalues(np.diag(diag).tolist()) == sorted(diag)
    for n in (1, 2, 5):
        assert _symmetric_eigenvalues([[0.0] * n for _ in range(n)]) == [0.0] * n
    assert _symmetric_eigenvalues([]) == []


def test_eigenvalues_next_to_the_reciprocal_bound():
    # eigenvalues a gap of 1e-9 to 3 above -1 agree with eigvalsh to
    # rounding, and the smallest keeps its gap
    rng = np.random.default_rng(97)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        eigs = np.concatenate([[-1.0 + 1e-9], -1.0 + 10.0 ** rng.uniform(-9, 0.5, size=n - 1)])
        h = rotated(eigs, random_orthogonal(rng, n))
        h = (h + h.T) / 2
        got = _symmetric_eigenvalues(h.tolist())
        want = np.linalg.eigvalsh(h)
        assert max(abs(g - w) for g, w in zip(got, want)) < 4e-15
        assert 0.0 < 1.0 + got[0] < 2e-9


def test_asymmetric_float_matrix_rejected():
    with pytest.raises(ValueError, match="needs a symmetric matrix"):
        _symmetric_eigenvalues([[0.0, 1.0], [0.0, 0.0]])


def test_float_matrix_with_a_nan_entry_is_refused():
    # a NaN passes the symmetry test (nan > tol is False), so it is named
    # before any rotation runs
    H = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, math.nan]]
    with mock.patch.object(expand, "_rotation", side_effect=AssertionError("rotated")):
        with pytest.raises(ValueError, match=r"entry \(2, 2\) is nan"):
            _symmetric_eigenvalues(H)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is nan"):
        _symmetric_eigenvalues([[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]])


def test_float_matrix_with_an_infinite_entry_is_refused():
    # an inf entry is named, not rotated into NaN eigenvalues
    with pytest.raises(ValueError, match=r"entry \(1, 2\) is inf"):
        _symmetric_eigenvalues([[1.0, 0.0, 0.0], [0.0, 1.0, math.inf], [0.0, math.inf, 1.0]])
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is -inf"):
        _symmetric_eigenvalues([[-math.inf, 0.0], [0.0, 1.0]])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
def test_eigenvalues_of_a_rational_orthogonal_similarity(n):
    # a product of rational Householder reflections I - 2 w w^T / w^T w is
    # orthogonal in the rationals, so H = Q diag(lambda) Q^T has exactly
    # the eigenvalues lambda; rounding H once to floats moves them by a few
    # units in the last place of its largest entry
    rnd = random.Random(151 + n)
    lam = sorted(Fraction(rnd.randint(-20, 20), rnd.randint(1, 4)) for _ in range(n))
    H = [[lam[i] if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    for _ in range(3):
        w = [Fraction(rnd.randint(-3, 3)) for _ in range(n)]
        w[rnd.randrange(n)] += 4
        wsq = sum(c * c for c in w)
        P = [[(i == j) - 2 * w[i] * w[j] / wsq for j in range(n)] for i in range(n)]
        PH = [[sum(P[i][k] * H[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
        H = [[sum(PH[i][k] * P[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    assert any(H[i][j] for i in range(n) for j in range(n) if i != j)
    got = _symmetric_eigenvalues([[float(h) for h in row] for row in H])
    scale = max(abs(float(h)) for row in H for h in row)
    assert max(abs(g - float(v)) for g, v in zip(got, lam)) <= 1e-14 * scale


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
def test_eigenvalues_keep_the_trace_and_the_frobenius_norm(n):
    # rotations keep the trace and the sum of squares of the entries, so the
    # eigenvalues sum to trace(H) and their squares to |H|_F^2, also when
    # the entries span six decades
    rnd = random.Random(157 + n)
    for _ in range(20):
        h = [[0.0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                h[i][j] = h[j][i] = rnd.uniform(-1.0, 1.0) * 10.0 ** rnd.uniform(-3, 3)
        got = _symmetric_eigenvalues(h)
        frobenius = sum(x * x for row in h for x in row)
        assert abs(sum(got) - sum(h[i][i] for i in range(n))) <= 1e-14 * n * math.sqrt(frobenius)
        assert abs(sum(g * g for g in got) - frobenius) <= 1e-14 * n * frobenius


def test_rotation_zeroes_the_off_diagonal_entry():
    # t = tan of the smaller angle that zeroes apq in [[app, apq], [apq,
    # aqq]]: the new diagonal app - t apq, aqq + t apq is the pair of
    # eigenvalues of the block, and cos, sin = cos t lie on the unit circle
    rnd = random.Random(163)
    for _ in range(1000):
        app, aqq = rnd.uniform(-5.0, 5.0), rnd.uniform(-5.0, 5.0)
        apq = rnd.choice((-1, 1)) * 10.0 ** rnd.uniform(-8, 1)
        t, cos, sin = expand._rotation(app, aqq, apq)
        scale = max(abs(app), abs(aqq), abs(apq))
        assert abs(t) <= 1.0 and math.isclose(cos * cos + sin * sin, 1.0, rel_tol=1e-15)
        assert abs(apq * (cos * cos - sin * sin) + cos * sin * (app - aqq)) <= 4e-15 * scale
        mean, radius = (app + aqq) / 2, math.hypot((app - aqq) / 2, apq)
        pair = sorted((app - t * apq, aqq + t * apq))
        assert abs(pair[0] - (mean - radius)) <= 4e-15 * scale
        assert abs(pair[1] - (mean + radius)) <= 4e-15 * scale


def _exact_normal_solve(rows, rhs):
    """Solve D^T D c = D^T u in Fractions by Gauss-Jordan elimination."""
    k = len(rows[0])
    system = [
        [sum(row[i] * row[j] for row in rows) for j in range(k)] + [sum(row[i] * u for row, u in zip(rows, rhs))]
        for i in range(k)
    ]
    for col in range(k):
        pivot = next(r for r in range(col, k) if system[r][col] != 0)
        system[col], system[pivot] = system[pivot], system[col]
        for r in range(k):
            if r != col and system[r][col] != 0:
                factor = system[r][col] / system[col][col]
                system[r] = [a - factor * b for a, b in zip(system[r], system[col])]
    return [system[i][k] / system[i][i] for i in range(k)]


def test_least_squares_agrees_with_exact_normal_equations():
    # dyadic entries are exact floats, so the float solve answers the very
    # problem the exact normal equations solve
    rng = random.Random(6)
    for m, k in ((12, 4), (30, 7)):
        rows = [[Fraction(rng.randint(-64, 64), 2 ** rng.randint(0, 4)) for _ in range(k)] for _ in range(m)]
        rhs = [Fraction(rng.randint(-99, 99), 2 ** rng.randint(0, 3)) for _ in range(m)]
        exact = [float(c) for c in _exact_normal_solve(rows, rhs)]
        columns = [[float(row[j]) for row in rows] for j in range(k)]
        coef = _solve_least_squares(columns, [float(u) for u in rhs])
        scale = max(map(abs, exact))
        assert all(abs(got - want) <= 1e-12 * scale for got, want in zip(coef, exact))


def test_fit_work_bound_arithmetic():
    # columns^2 x (rows + 25 columns), with n(n+1)/2 + n + 1 columns and one
    # more for the log column; only the arithmetic runs here
    rows = MAX_FIT_WORK // 100 - 250
    check_fit_work(3, rows)
    with pytest.raises(ValueError, match=f"10 coefficients over {rows + 1} samples, {MAX_FIT_WORK + 100} units"):
        check_fit_work(3, rows + 1)
    # the log column exists only in the plane, where it makes 7 columns
    with pytest.raises(DimensionError, match="the logarithmic column exists only in dimension 2"):
        check_fit_work(3, rows, with_log=True)
    rows = MAX_FIT_WORK // 49 - 175
    check_fit_work(2, rows)
    with pytest.raises(ValueError, match=f"7 coefficients over {rows + 1} samples"):
        check_fit_work(2, rows + 1)
    # rows=None counts one row per column, the smallest fit: n = 18 has 190
    # columns and fits under the cap, n = 19 has 210 and does not
    check_fit_work(18, None)
    with pytest.raises(ValueError, match=f"dimension 19 solves for 210 coefficients over 210 samples, {210**3 * 26} units"):
        check_fit_work(19, None)


def test_fit_refuses_a_solve_over_the_work_cap(monkeypatch):
    rng = np.random.default_rng(3)
    samples = sphere_samples(rng, np.geomspace(5, 50, 25), 10, lambda x: 0.5 * float(x @ x))
    monkeypatch.setattr(expand, "MAX_FIT_WORK", 1000)
    with pytest.raises(ValueError, match="more than 1000") as info:
        fit_expansion(samples, 3)
    assert not isinstance(info.value, (InsufficientDataError, ConditioningError))


def test_fit_refuses_the_log_column_outside_the_plane_before_solving(monkeypatch):
    rng = np.random.default_rng(3)
    samples = sphere_samples(rng, np.geomspace(5, 50, 25), 10, lambda x: 0.5 * float(x @ x))
    monkeypatch.setattr(expand, "_solve_least_squares", None)
    with pytest.raises(DimensionError, match="the logarithmic column exists only in dimension 2"):
        fit_expansion(samples, 3, with_log=True)


def test_fit_refuses_the_log_column_outside_the_plane_before_counting_samples():
    # no number of samples would be accepted, so the count is not the error
    nine = [((float(k), 1.0, 0.0), 0.5 * (k * k + 1.0)) for k in range(1, 10)]
    with pytest.raises(DimensionError, match="the logarithmic column exists only in dimension 2"):
        fit_expansion(nine, 3, with_log=True)
    with pytest.raises(InsufficientDataError, match="need at least 40 samples to fit 10 parameters, got 9"):
        fit_expansion(nine, 3)


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


def test_write_fit_writes_every_field(tmp_path):
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
    back = json.loads(path.read_text())
    assert back == {
        "A": [list(row) for row in fit.A],
        "b": list(fit.b),
        "c": fit.c,
        "decay_slope": fit.decay_slope,
        "decay_slope_stderr": fit.decay_slope_stderr,
        "annuli": [list(ring) for ring in fit.annuli],
    }

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
    assert json.loads(path2.read_text())["d"] == 0.75


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


def test_samples_read_from_csv_fit_like_a_plain_list(tmp_path):
    # read_samples hands its float tuples to the fit without a second
    # conversion: the fit equals that of the same samples given as lists of
    # Fractions, which are converted, and a point of the wrong dimension is
    # still refused
    rng = np.random.default_rng(7)
    samples = sphere_samples(
        rng, np.geomspace(5, 50, 25), 10, lambda x: 0.5 * float(x @ x) + 1.0 / np.linalg.norm(x)
    )
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    read = read_samples(path)
    assert read == samples
    exact = [([Fraction(c) for c in x], Fraction(u)) for x, u in read]
    assert fit_expansion(read, 3).to_json() == fit_expansion(exact, 3).to_json()
    with pytest.raises(DimensionError, match="samples have 3 coordinates, expected 2"):
        fit_expansion(read, 2)


def test_write_samples_checks_every_sample_before_writing(tmp_path):
    path = tmp_path / "samples.csv"
    good = ((1.0, 2.0, 3.0), 0.5)
    with pytest.raises(ValueError, match=r"sample 1 is not finite: x = \(1.0, nan, 3.0\), u = 0.5") as info:
        write_samples(path, [good, ((1.0, math.nan, 3.0), 0.5)])
    assert not isinstance(info.value, InsufficientDataError)
    with pytest.raises(ValueError, match=r"sample 2 is not finite: x = \(1.0, 2.0, 3.0\), u = inf"):
        write_samples(path, [good, good, ((1.0, 2.0, 3.0), math.inf)])
    with pytest.raises(ValueError, match="sample 1 has 2 coordinates, expected 3"):
        write_samples(path, [good, ((1.0, 2.0), 0.5)])
    with pytest.raises(InsufficientDataError, match="no samples given"):
        write_samples(path, [])
    assert not path.exists()


# floats whose repr takes each form: a signed zero, the least subnormal,
# an exponent, a power of ten past the fixed-point range, and two repeaters
_AWKWARD_FLOATS = [-0.0, 5e-324, 1e300, 1e16, 0.1, 1 / 3]


@pytest.mark.parametrize("n", [2, 3])
def test_write_samples_gives_the_csv_writer_bytes(tmp_path, n):
    values = _AWKWARD_FLOATS + [-c for c in _AWKWARD_FLOATS]
    samples = [
        (tuple(values[(i + j) % len(values)] for j in range(n)), values[(i + n) % len(values)])
        for i in range(len(values))
    ]
    samples.append(((Fraction(1, 3),) + (2,) * (n - 1), Fraction(-1, 10)))
    path = tmp_path / "samples.csv"
    write_samples(path, samples)
    reference = tmp_path / "reference.csv"
    with open(reference, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{i + 1}" for i in range(n)] + ["u"])
        for x, u in samples:
            writer.writerow([repr(float(c)) for c in x] + [repr(float(u))])
    assert path.read_bytes() == reference.read_bytes()
    back = read_samples(path)
    assert [[c.hex() for c in x] + [u.hex()] for x, u in back] == [
        [float(c).hex() for c in x] + [float(u).hex()] for x, u in samples
    ]


def test_read_samples_reads_quoted_numeric_fields(tmp_path):
    path = tmp_path / "quoted.csv"
    path.write_bytes(b'x1,x2,u\r\n"1.5",2,"-0.25"\r\n3,"4e-1",5\r\n')
    assert read_samples(path) == [((1.5, 2.0), -0.25), ((3.0, 0.4), 5.0)]


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
