"""Residual forms of the transformed equations: the theta-carrying and
theta-free determinant forms for all four branches, the linear-part factor,
the float/exact/symbolic residual splits, and their cross-route agreement.

Float forms are checked against closed phase-product oracles (the forms are
|prod z| * sin of a phase difference); exact forms against pinned rational
values and interpolation slopes; the three residual-split routes against
each other.
"""

import hashlib
import math
from fractions import Fraction
from random import Random
from unittest import mock

import numpy as np
import pytest

from kelvinasym import equations
from kelvinasym.equations import (
    AlgebraicForm,
    ResidualBreakdown,
    WindowedResidual,
    algebraic_residual,
    linear_part_defect,
    linear_part_factor,
    notheta_residual,
    residual_scaling_slopes,
    symbolic_residual,
    transformed_residual,
    transformed_residual_exact,
)
from kelvinasym.exactalg import DimensionError, MultiPoly, RadPoly
from kelvinasym.kelvin import (
    AdmissibilityError,
    Jet2,
    KelvinFrame,
    PhaseBranch,
    identity_parts,
    jet_indeterminates,
)
from kelvinasym.symfun import (
    MismatchError,
    _Dual,
    Spectrum,
    alternating_sums,
    char_sigmas,
    random_spectrum,
    sigma_all,
)


def fr(a, b=1):
    return Fraction(a, b)


def all_branches():
    return [
        PhaseBranch.slag(2.0),
        PhaseBranch.recip(-3.0),
        PhaseBranch.make("ATAN2", theta=0.4, tau=1.1),
        PhaseBranch.make("LOG", theta=-0.3, tau=0.5),
    ]


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def admissible_eigs(rng: np.random.Generator, branch: PhaseBranch, n: int) -> np.ndarray:
    lower = branch.admissible_lower()
    if lower is None:
        return rng.uniform(-2.0, 2.0, size=n)
    return lower + rng.uniform(0.1, 2.0, size=n)


def rotated(eigs, q) -> np.ndarray:
    return q @ np.diag(np.asarray(eigs, dtype=float)) @ q.T


# ── theta-carrying form ──────────────────────────────────────────────────


def test_flat_identity_matrix_has_phase_three_quarters_pi():
    branch = PhaseBranch.slag(3 * math.pi / 4)
    assert abs(algebraic_residual(branch, np.eye(3), 3 * math.pi / 4)) < 1e-14


def test_reciprocal_zero_matrix_phase():
    branch = PhaseBranch.recip(-3 * math.sqrt(2))
    assert abs(algebraic_residual(branch, np.zeros((3, 3)), -3 * math.sqrt(2))) < 1e-14


def test_flat_residual_vanishes_on_entire_exterior_solution():
    # u(x) = (x1^2 + x2^2 - 1) e^{-x3} + e^{x3}/4 has sigma_2(hessian) = 1
    # identically, hence phase pi/2 in three variables
    branch = PhaseBranch.slag(math.pi / 2)
    rng = np.random.default_rng(7)
    for _ in range(20):
        x1, x2, x3 = rng.uniform(-1.5, 1.5, size=3)
        e_minus, e_plus = math.exp(-x3), math.exp(x3)
        hess = np.array(
            [
                [2 * e_minus, 0.0, -2 * x1 * e_minus],
                [0.0, 2 * e_minus, -2 * x2 * e_minus],
                [
                    -2 * x1 * e_minus,
                    -2 * x2 * e_minus,
                    (x1 * x1 + x2 * x2 - 1) * e_minus + e_plus / 4,
                ],
            ]
        )
        assert abs(algebraic_residual(branch, hess, math.pi / 2)) < 1e-8


def test_carrying_form_vanishes_at_synthesized_phase_all_branches():
    rng = np.random.default_rng(3)
    for branch in all_branches():
        for n in (2, 3, 4):
            for _ in range(25):
                eigs = admissible_eigs(rng, branch, n)
                theta = branch.phase(eigs)
                h = rotated(eigs, random_orthogonal(rng, n))
                assert abs(algebraic_residual(branch, h, theta)) < 1e-9


def test_flat_carrying_form_matches_phase_product_oracle():
    branch = PhaseBranch.slag(0.0)
    rng = np.random.default_rng(11)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        eigs = rng.uniform(-2.0, 2.0, size=n)
        theta = rng.uniform(-1.2, 1.2)
        h = rotated(eigs, random_orthogonal(rng, n))
        got = algebraic_residual(branch, h, theta)
        # cos(theta) O - sin(theta) E = |prod(1 + i mu)| sin(F(H) - theta)
        mag = math.prod(math.hypot(1.0, m) for m in eigs)
        phase = sum(math.atan(m) for m in eigs)
        assert abs(got - mag * math.sin(phase - theta)) < 1e-9 * max(1.0, mag)


def test_tilted_carrying_form_matches_phase_product_oracle():
    branch = PhaseBranch.make("ATAN2", theta=0.0, tau=1.2)
    a, b = branch.a, branch.b
    rng = np.random.default_rng(13)
    for _ in range(40):
        n = int(rng.integers(2, 5))
        eigs = branch.admissible_lower() + rng.uniform(0.1, 2.0, size=n)
        theta = rng.uniform(-0.5, 0.5)
        h = rotated(eigs, random_orthogonal(rng, n))
        got = algebraic_residual(branch, h, theta)
        reduced = theta * b / math.sqrt(a * a + 1.0)
        mag = math.prod(math.hypot(m + a + b, m + a - b) for m in eigs)
        phase = sum(math.atan2(m + a - b, m + a + b) for m in eigs)
        # sin(reduced) E - cos(reduced) O = |prod z| sin(reduced - arg prod z)
        assert abs(got - mag * math.sin(reduced - phase)) < 1e-9 * max(1.0, mag)


def test_asymmetric_float_matrix_rejected():
    branch = PhaseBranch.slag(0.0)
    with pytest.raises(ValueError):
        algebraic_residual(branch, np.array([[0.0, 1.0], [0.0, 0.0]]), 0.0)


def test_float_matrix_with_a_nan_entry_is_refused():
    # the NaN used to pass the symmetry test and come back as a finite
    # residual; it is named before any rotation runs
    branch = PhaseBranch.slag(3 * math.pi / 4)
    H = [[1.0, 0.5, 0.0], [0.5, 1.0, 0.0], [0.0, 0.0, math.nan]]
    with mock.patch.object(equations, "_rotation", side_effect=AssertionError("rotated")):
        with pytest.raises(ValueError, match=r"entry \(2, 2\) is nan"):
            algebraic_residual(branch, H, 3 * math.pi / 4)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is nan"):
        algebraic_residual(branch, [[math.nan, 0, 0], [0, 1, 0], [0, 0, 1]], 3 * math.pi / 4)


def test_float_matrix_with_an_infinite_entry_is_refused():
    # an inf entry used to give a NaN residual with a RuntimeWarning
    branch = PhaseBranch.slag(0.0)
    H = [[1.0, 0.0, 0.0], [0.0, 1.0, math.inf], [0.0, math.inf, 1.0]]
    with pytest.raises(ValueError, match=r"entry \(1, 2\) is inf"):
        notheta_residual(branch, [1.0, 1.0, 1.0], H)
    with pytest.raises(ValueError, match=r"entry \(0, 0\) is -inf"):
        algebraic_residual(branch, [[-math.inf, 0.0], [0.0, 1.0]], 0.0)


def test_integer_arrays_take_the_exact_route():
    # numpy's integers are numbers.Integral, so an integer array is exact
    # input, evaluated in Python ints like the nested lists it holds
    branch = PhaseBranch.slag(0.0)
    for matrix in (np.eye(3, dtype=int), np.array([[2, 1, 0], [1, 3, -1], [0, -1, 1]])):
        got = notheta_residual(branch, [1, 1, 1], matrix)
        want = notheta_residual(branch, [1, 1, 1], matrix.tolist())
        assert type(got) is Fraction and got == want
        assert type(got.numerator) is int and type(got.denominator) is int
    assert notheta_residual(branch, [1, 1, 1], np.eye(3, dtype=int)) == 0
    assert notheta_residual(branch, [1, 1, 1], np.eye(3)) == 0.0


# ── the Jacobi eigenvalue solver, against np.linalg.eigvalsh ─────────────


def assert_eigenvalues_match(h, rtol=4e-15):
    got = equations._symmetric_eigenvalues(h.tolist())
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
        with mock.patch.object(equations, "_rotation", side_effect=AssertionError("rotated")):
            assert equations._symmetric_eigenvalues(np.diag(diag).tolist()) == sorted(diag)
    for n in (1, 2, 5):
        assert equations._symmetric_eigenvalues([[0.0] * n for _ in range(n)]) == [0.0] * n
    assert equations._symmetric_eigenvalues([]) == []


def test_eigenvalues_next_to_the_reciprocal_bound():
    # 1 + lambda ~ 1e-9 is the small factor of the RECIP determinant: the
    # eigenvalues agree to rounding, so the factor and the residual agree
    # with the eigvalsh route to the relative size of that rounding (the
    # worst of 200 draws was 4.6e-7)
    branch = PhaseBranch.recip(-1.0)
    row = branch.row
    rng = np.random.default_rng(97)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        eigs = np.concatenate([[-1.0 + 1e-9], -1.0 + 10.0 ** rng.uniform(-9, 0.5, size=n - 1)])
        h = rotated(eigs, random_orthogonal(rng, n))
        h = (h + h.T) / 2
        got = equations._symmetric_eigenvalues(h.tolist())
        want = np.linalg.eigvalsh(h)
        assert max(abs(g - w) for g, w in zip(got, want)) < 4e-15
        assert 0.0 < 1.0 + got[0] < 2e-9
        form = AlgebraicForm.eliminated(branch, n, [0.5] * n)
        oracle = form._at_det(equations._det_by_values(row, [float(v) for v in want]))
        assert abs(form.residual(h.tolist()) - oracle) <= 1e-5 * abs(oracle)
    # on the diagonal nothing rotates, so the factor is exact
    diagonal = [[-1.0 + 1e-9, 0.0], [0.0, 0.25]]
    form = AlgebraicForm.eliminated(branch, 2, [0.5, 0.5])
    exact = form._at_det(equations._det_by_values(row, [-1.0 + 1e-9, 0.25]))
    assert form.residual(diagonal) == exact


# ── theta-free form ──────────────────────────────────────────────────────


def test_eliminated_form_vanishes_on_the_model_exactly():
    s = Spectrum(["1", "2", "-1/2"])
    diag = [[fr(1), fr(0), fr(0)], [fr(0), fr(2), fr(0)], [fr(0), fr(0), fr(-1, 2)]]
    for branch in (PhaseBranch.slag(0.0), PhaseBranch.recip(-1.0)):
        out = notheta_residual(branch, s, diag)
        assert isinstance(out, Fraction) and out == 0
    for branch in all_branches()[2:]:
        vals = [1.0, 2.0, -0.49]  # admissible for tau in (0, pi/2)
        out = notheta_residual(branch, vals, np.diag(vals))
        assert abs(float(out)) < 1e-12


def test_eliminated_form_vanishes_whenever_phases_match():
    rng = np.random.default_rng(17)
    rnd = Random(17)
    for branch in all_branches():
        for _ in range(25):
            n = rnd.choice((2, 3, 4))
            s = admissible_eigs(rng, branch, n)
            theta = branch.phase(s)
            # synthesize a second matrix with the same phase
            for _ in range(300):
                eigs = admissible_eigs(rng, branch, n - 1)
                rest = theta - sum(branch.g(float(m)) for m in eigs)
                try:
                    last = branch.g_inverse(rest)
                except ValueError:
                    continue
                full = np.append(eigs, last)
                break
            else:
                pytest.fail("could not synthesize matching-phase eigenvalues")
            h = rotated(full, random_orthogonal(rng, n))
            scale = 1.0 + abs(float(notheta_residual(branch, s, np.diag(np.zeros(n)))))
            assert abs(float(notheta_residual(branch, s, h))) < 1e-9 * scale


def test_flat_eliminated_form_matches_sine_difference_oracle():
    branch = PhaseBranch.slag(0.0)
    rng = np.random.default_rng(19)
    for _ in range(40):
        n = int(rng.integers(2, 6))
        s = rng.uniform(-2.0, 2.0, size=n)
        eigs = rng.uniform(-2.0, 2.0, size=n)
        h = rotated(eigs, random_orthogonal(rng, n))
        got = float(notheta_residual(branch, s, h))
        mag = math.prod(math.hypot(1.0, v) for v in s) * math.prod(
            math.hypot(1.0, m) for m in eigs
        )
        phase = sum(math.atan(m) for m in eigs) - sum(math.atan(v) for v in s)
        assert abs(got - mag * math.sin(phase)) < 1e-9 * max(1.0, mag)


def test_flat_perturbation_coefficient_pinned():
    s = Spectrum(["1", "2", "3"])
    branch = PhaseBranch.slag(0.0)
    base = [[fr(1), 0, 0], [0, fr(2), 0], [0, 0, fr(3)]]
    bumped = [[fr(2), 0, 0], [0, fr(2), 0], [0, 0, fr(3)]]
    assert notheta_residual(branch, s, base) == 0
    assert notheta_residual(branch, s, bumped) == 50  # (1+2^2)(1+3^2)


def test_flat_perturbation_slope_matches_deleted_products():
    rnd = Random(5)
    branch = PhaseBranch.slag(0.0)
    for _ in range(20):
        n = rnd.choice((3, 4, 5))
        s = random_spectrum(rnd, n)
        for i in range(n):
            base = [[s.values[r] if r == c else fr(0) for c in range(n)] for r in range(n)]
            assert notheta_residual(branch, s, base) == 0
            base[i][i] += 1
            slope = notheta_residual(branch, s, base)
            want = math.prod(
                (1 + v * v for k, v in enumerate(s.values) if k != i), start=fr(1)
            )
            assert slope == want


def test_reciprocal_perturbation_coefficient_pinned():
    s = Spectrum(["0", "0", "0"])
    branch = PhaseBranch.recip(-1.0)
    bumped = [[fr(1), 0, 0], [0, fr(0), 0], [0, 0, fr(0)]]
    assert notheta_residual(branch, s, bumped) == -1
    doubled = [[fr(2), 0, 0], [0, fr(0), 0], [0, 0, fr(0)]]
    assert notheta_residual(branch, s, doubled) == -2  # exactly linear on this ray


def test_eliminated_form_weights_are_exact_for_rational_spectra():
    form = AlgebraicForm.eliminated(PhaseBranch.slag(0.0), 3, Spectrum(["1", "2", "3"]))
    assert form.theta_free
    assert all(isinstance(v, Fraction) for v in form.coefficients.values())
    form = AlgebraicForm.eliminated(PhaseBranch.recip(-1.0), 2, Spectrum(["0", "1/2"]))
    assert all(isinstance(v, Fraction) for v in form.coefficients.values())


def test_spectrum_size_must_match_matrix():
    branch = PhaseBranch.slag(0.0)
    with pytest.raises(ValueError):
        notheta_residual(branch, [0.0, 0.0], np.zeros((3, 3)))


# ── one plane-algebra row per kind, and the routes it replaced ───────────


def plane_arg(row, z) -> float:
    """arg(x + u y): atan2(y, x), y / x, or artanh(y / x) = log(p / m) / 2
    from the null coordinates (p, m) = (x + y, x - y) that eps = +1 stores."""
    if row.eps < 0:
        return math.atan2(z[1], z[0])
    if row.eps == 0:
        return z[1] / z[0]
    return 0.5 * math.log(z[0] / z[1])


ROW_BRANCHES = [
    PhaseBranch.slag(0.0),
    PhaseBranch.recip(-1.0),
    PhaseBranch.make("ATAN2", theta=0.0, tau=0.9),
    PhaseBranch.make("ATAN2", theta=0.0, tau=1.4),
    PhaseBranch.make("LOG", theta=-0.1, tau=0.1),
    PhaseBranch.make("LOG", theta=-0.1, tau=0.6),
]


@pytest.mark.parametrize("branch", ROW_BRANCHES, ids=lambda b: f"{b.kind}-{b.tau:.2f}")
def test_row_reproduces_the_scalar_map_and_its_derivative(branch):
    # g(lambda) = kappa arg(alpha + beta lambda); the derivative of arg z
    # along dz = beta is cross(z, beta) / N(z) in every plane algebra
    row = branch.row
    rng = np.random.default_rng(67)
    lower = branch.admissible_lower()
    lams = rng.uniform(-3.0, 3.0, 500) if lower is None else lower + rng.uniform(0.05, 3.0, 500)
    for lam in lams:
        z = (row.alpha[0] + row.beta[0] * lam, row.alpha[1] + row.beta[1] * lam)
        assert math.isclose(row.kappa * plane_arg(row, z), branch.g(lam), rel_tol=1e-12)
        slope = row.kappa * row.cross(z, row.beta) / row.norm(z)
        assert math.isclose(slope, branch.g_prime(lam), rel_tol=1e-12)


def shifted_det(h, shift) -> float:
    return float(np.linalg.det(h + shift * np.eye(len(h))))


def reference_terms(branch: PhaseBranch, s, h, theta):
    """Per-kind reference routes for the two forms, each as the terms
    (t1, t2) whose difference is the form: theta-free, then theta-carrying.
    LOG by np.linalg.det of the shifted matrices; ATAN2 and SLAG by the
    complex product of the shifted pencil over eigvalsh; RECIP by det and
    subdet of H + I over eigvalsh."""
    a, b = branch.a, branch.b
    mu = np.linalg.eigvalsh(h)
    if branch.kind == "LOG":
        plus = math.prod(v + a + b for v in s)
        minus = math.prod(v + a - b for v in s)
        lower, upper = shifted_det(h, a - b), shifted_det(h, a + b)
        growth = math.exp(2.0 * b * theta / math.sqrt(a * a + 1.0))
        return (plus * lower, minus * upper), (lower, growth * upper)
    if branch.kind == "RECIP":
        det_a, det_h = math.prod(1 + v for v in s), math.prod(1 + m for m in mu)
        sub_a = sum(math.prod(1 + w for j, w in enumerate(s) if j != i) for i in range(len(s)))
        sub_h = sum(math.prod(1 + w for j, w in enumerate(mu) if j != i) for i in range(len(mu)))
        return (det_a * sub_h, sub_a * det_h), (-math.sqrt(2.0) * sub_h, theta * det_h)
    if branch.kind == "ATAN2":
        zh, za = (math.prod(complex(v + a + b, v + a - b) for v in vals) for vals in (mu, s))
        reduced = theta * b / math.sqrt(a * a + 1.0)
        return (
            (za.real * zh.imag, za.imag * zh.real),
            (math.sin(reduced) * zh.real, math.cos(reduced) * zh.imag),
        )
    zh, za = math.prod(complex(1.0, m) for m in mu), math.prod(complex(1.0, v) for v in s)
    return (za.real * zh.imag, za.imag * zh.real), (math.cos(theta) * zh.imag, math.sin(theta) * zh.real)


@pytest.mark.parametrize("branch", ROW_BRANCHES, ids=lambda b: f"{b.kind}-{b.tau:.2f}")
def test_forms_match_the_deleted_per_kind_routes(branch):
    rng = np.random.default_rng(71)
    for n in (2, 3, 4, 5):
        for _ in range(40):
            s = admissible_eigs(rng, branch, n)
            h = rotated(admissible_eigs(rng, branch, n), random_orthogonal(rng, n))
            theta = branch.phase(admissible_eigs(rng, branch, n))
            free, carrying = reference_terms(branch, s, h, theta)
            got = (notheta_residual(branch, list(s), h), algebraic_residual(branch, h, theta))
            for value, (t1, t2) in zip(got, (free, carrying)):
                assert abs(float(value) - (t1 - t2)) <= 1e-12 * (abs(t1) + abs(t2))


def exact_reference_free(branch: PhaseBranch, s, h):
    """Exact reference routes for the theta-free form: SLAG by the
    alternating sums of char_sigmas, RECIP by det and subdet of H + I."""
    n = len(s)
    if branch.kind == "SLAG":
        e_a, o_a = alternating_sums(s)
        sig = char_sigmas(h, fr(1))
        e_h = sum(sig[k] * (-1) ** (k // 2) for k in range(0, n + 1, 2))
        o_h = sum(sig[k] * (-1) ** (k // 2) for k in range(1, n + 1, 2))
        return e_a * o_h - o_a * e_h
    sig_a = sigma_all([v + 1 for v in s])
    sig_h = char_sigmas([[v + (i == j) for j, v in enumerate(line)] for i, line in enumerate(h)], fr(1))
    return sig_a[n] * sig_h[n - 1] - sig_a[n - 1] * sig_h[n]


@pytest.mark.parametrize("kind", ["SLAG", "RECIP"])
def test_integer_rows_match_the_deleted_exact_routes_exactly(kind):
    branch = PhaseBranch.make(kind, theta=0.0)
    rnd = Random(73)
    for n in (2, 3, 4, 5):
        for _ in range(10):
            s = random_spectrum(rnd, n, lower=-1 if kind == "RECIP" else None)
            # not symmetric: exact matrices may be diagonal-similarity images
            h = [[fr(rnd.randint(-4, 4), rnd.randint(1, 3)) for _ in range(n)] for _ in range(n)]
            got = notheta_residual(branch, s, h)
            assert isinstance(got, Fraction)
            assert got == exact_reference_free(branch, list(s.values), h)


def test_factor_keeps_small_factors_near_the_recip_bound():
    # P(A) as a product keeps 1 + lambda = 1e-5; a sigma_k expansion of the
    # same det rounds it away against terms of size one
    branch = PhaseBranch.recip(-1.0)
    for vals in ([-0.999] * 3, [-0.99999] * 4, [-0.9, 3.0, -0.99, 0.5, 7.0]):
        want = -math.prod((1.0 + v) ** 2 for v in vals) / math.sqrt(2.0)
        assert math.isclose(linear_part_factor(branch, vals), want, rel_tol=1e-12)


def test_factor_and_forms_hold_near_the_log_bound():
    # null coordinates keep det(H + a - b) next to the much larger
    # det(H + a + b); in (x, y) their difference would round away
    branch = PhaseBranch.make("LOG", theta=-0.1, tau=0.1)
    a, b = branch.a, branch.b
    vals = [b - a + gap for gap in (1e-3, 2e-3, 5e-3, 1e-2)]
    want = 2.0 * b / math.sqrt(a * a + 1.0) * math.prod((v + a + b) * (v + a - b) for v in vals)
    assert math.isclose(linear_part_factor(branch, vals), want, rel_tol=1e-12)
    rng = np.random.default_rng(79)
    h = rotated([b - a + gap for gap in (4e-3, 1e-2, 3e-3, 2e-3)], random_orthogonal(rng, 4))
    (t1, t2), _ = reference_terms(branch, vals, h, 0.0)
    assert abs(float(notheta_residual(branch, vals, h)) - (t1 - t2)) <= 1e-9 * abs(t1 - t2)


@pytest.mark.parametrize("gap", [1e-7, 1e-8, 1e-9])
def test_factor_self_check_accepts_gaps_next_to_the_log_bound(gap):
    # R's g'(lambda) sums lambda + (a - b), exact there; (lambda + a)^2 - b^2
    # cancelled and missed the slope by up to 5e-8 relative
    branch = PhaseBranch.make("LOG", theta=-0.1, tau=0.1)
    a, b = branch.a, branch.b
    vals = [b - a + gap, 1.0, 2.0]
    want = 2.0 * b / math.sqrt(a * a + 1.0) * math.prod((v + (a + b)) * (v + (a - b)) for v in vals)
    assert math.isclose(linear_part_factor(branch, vals), want, rel_tol=1e-12)


def test_form_coefficients_are_the_row_points():
    # theta-free: Z = P(A) with the row's s_free; theta-carrying: Z_theta
    for branch in ROW_BRANCHES:
        row = branch.row
        free = AlgebraicForm.eliminated(branch, 2, [0.5, 1.5]).coefficients
        carrying = AlgebraicForm.theta_carrying(branch, 2, -0.2).coefficients
        assert set(free) == set(carrying) == {"x", "y", "scale"}
        assert free["scale"] == row.s_free and carrying["scale"] == row.s_carry
        assert (carrying["x"], carrying["y"]) == row.carrier(-0.2)


# ── linear-part factor ───────────────────────────────────────────────────


def test_factor_flat_pinned_exact():
    branch = PhaseBranch.slag(0.0)
    assert linear_part_factor(branch, Spectrum(["1", "2", "3"])) == 100
    assert linear_part_factor(branch, Spectrum(["0", "0", "0"])) == 1
    got = linear_part_factor(branch, Spectrum(["1", "2", "-1/2"]))
    assert got == fr(2) * fr(5) * fr(5, 4)


def test_factor_reciprocal_matches_per_index_recipe():
    # per-index coefficient -prod_{j != i}(1 + lambda_j)^2 times the squared
    # scaling entry (1 + lambda_i)^2 / sqrt(2), constant over i
    branch = PhaseBranch.recip(-1.0)
    got = linear_part_factor(branch, [0.0, 0.0, 0.0])
    assert abs(got - (-1.0 / math.sqrt(2.0))) < 1e-12
    rng = np.random.default_rng(23)
    for _ in range(10):
        vals = -1.0 + rng.uniform(0.2, 2.0, size=4)
        got = linear_part_factor(branch, list(vals))
        want = -math.prod((1.0 + v) ** 2 for v in vals) / math.sqrt(2.0)
        assert abs(got - want) < 1e-9 * abs(want)


def test_factor_tilted_and_doubling_branches_match_formulas():
    rng = np.random.default_rng(29)
    atan2 = PhaseBranch.make("ATAN2", theta=0.2, tau=1.1)
    log = PhaseBranch.make("LOG", theta=-0.2, tau=0.5)
    for branch, sign in ((atan2, 1.0), (log, -1.0)):
        a, b = branch.a, branch.b
        for _ in range(10):
            n = int(rng.integers(2, 5))
            vals = branch.admissible_lower() + rng.uniform(0.2, 2.0, size=n)
            got = linear_part_factor(branch, list(vals))
            if branch.kind == "ATAN2":
                want = (
                    2.0**n
                    * b
                    / math.sqrt(a * a + 1.0)
                    * math.prod((v + a) ** 2 + b * b for v in vals)
                )
            else:
                want = (
                    2.0
                    * b
                    / math.sqrt(a * a + 1.0)
                    * math.prod((v + a) ** 2 - b * b for v in vals)
                )
            assert abs(got - want) < 1e-9 * abs(want)


def test_factor_rejects_inadmissible_spectrum():
    with pytest.raises(AdmissibilityError):
        linear_part_factor(PhaseBranch.recip(-1.0), [-2.0, 0.0, 0.0])


def test_factor_self_check_catches_a_wrong_small_gamma():
    # P(A) expanded in sigma_k rounds the factors 1 + lambda = 1e-5 away, so
    # gamma comes out -1.39e-31 in place of -7.07e-41: inside an absolute
    # 1e-9 bound, far outside the relative one
    branch = PhaseBranch.recip(-1.0)
    vals = [-0.99999] * 4
    right = linear_part_factor(branch, vals)
    assert math.isclose(right, -7.07106781160803e-41, rel_tol=1e-12)

    def by_sigmas(row, values):
        values = list(values)
        diag = [[v if i == j else 0.0 for j in range(len(values))] for i, v in enumerate(values)]
        return equations._det_by_sigmas(row, char_sigmas(diag, 1.0))

    with mock.patch.object(equations, "_det_by_values", by_sigmas):
        c = AlgebraicForm.eliminated(branch, 4, vals).coefficients
        wrong = c["scale"] * branch.row.norm((c["x"], c["y"])) / branch.row.kappa
        assert math.isclose(wrong, -1.39e-31, rel_tol=1e-2)
        assert abs(wrong - right) < 1e-9
        with pytest.raises(MismatchError, match="routes disagree"):
            linear_part_factor(branch, vals)


def test_factor_self_check_accepts_spread_recip_spectrum():
    # 1 + lambda spans nine decades; a slope taken as the difference of two
    # nearly equal products missed gamma by 3e-8 relative here
    vals = [e - 1.0 for e in (3.118, 1.145e-4, 321.7, 129.7, 1.885e-6, 1.694e-6)]
    want = -math.prod((1.0 + v) ** 2 for v in vals) / math.sqrt(2.0)
    assert math.isclose(linear_part_factor(PhaseBranch.recip(-1.0), vals), want, rel_tol=1e-12)


@pytest.mark.parametrize("kind", ["RECIP", "SLAG", "ATAN2", "LOG"])
def test_factor_self_check_accepts_random_admissible_spectra(kind):
    # eigenvalue gaps to the branch bound (or, for SLAG, magnitudes) from
    # 1e-6 (LOG: 1e-9) to 1e3, so the factors of P(A) span up to twelve decades
    rnd = Random(1)
    smallest = -9 if kind == "LOG" else -6
    for _ in range(500):
        tau = {"ATAN2": rnd.uniform(0.84, 1.52), "LOG": rnd.uniform(0.05, 0.73)}.get(kind)
        branch = PhaseBranch.make(kind, 0.0, tau)
        lower = branch.admissible_lower()
        gaps = [10 ** rnd.uniform(smallest, 3) for _ in range(rnd.randint(2, 12))]
        vals = [g + lower if lower is not None else rnd.choice((-1, 1)) * g for g in gaps]
        gamma = linear_part_factor(branch, vals)
        assert math.isfinite(gamma) and gamma != 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_three_spellings_of_the_flat_gamma_agree(n):
    # the row norm s_free N(P(A)) / kappa, prod(1 + lambda^2) as
    # transformed_residual_exact's linear_factor, and prod(rho) in
    # linear_part_defect
    branch = PhaseBranch.slag(0.0)
    rnd = Random(89 + n)
    for _ in range(5):
        s = random_spectrum(rnd, n)
        gamma = linear_part_factor(branch, s)
        assert isinstance(gamma, Fraction)
        y = [fr(3, 5), fr(4, 5)] + [fr(0)] * (n - 2)
        hess = [[fr(int(i == j)) for j in range(n)] for i in range(n)]
        split = transformed_residual_exact(y, fr(1), [fr(0)] * n, hess, s)
        assert split.linear_factor == gamma
        if n == 3:
            # its own gamma makes the defect vanish only if it is the slope
            # of the same eliminated form that linear_part_factor checks
            assert linear_part_defect(s).is_zero


# ── transformed residual: float and exact routes ─────────────────────────


def flat_frame(spectrum):
    return KelvinFrame(PhaseBranch.slag(0.0), spectrum)


def test_zero_profile_gives_zero_residual():
    frame = flat_frame([0.3, -0.2, 0.5])
    jet = Jet2(y=(0.2, 0.4, -0.1), value=0.0, grad=(0.0,) * 3, hess=((0.0,) * 3,) * 3)
    out = transformed_residual(jet, frame)
    assert abs(out.total) < 1e-12
    assert abs(out.laplace_term) < 1e-15


def test_constant_profile_residual_is_minus_two_radius_fourth():
    frame = flat_frame([0.0, 0.0, 0.0])
    rng = np.random.default_rng(31)
    for _ in range(10):
        y = rng.uniform(-0.45, 0.45, size=3).tolist()
        if math.hypot(*y) < 0.1:
            continue
        jet = Jet2(y=y, value=1.0, grad=[0.0] * 3, hess=[[0.0] * 3 for _ in range(3)])
        out = transformed_residual(jet, frame)
        want = -2.0 * sum(c * c for c in y) ** 2
        assert abs(out.total - want) < 1e-10
        assert out.laplace_term == 0.0
        assert abs(out.nonlinear_term - want) < 1e-10


def test_split_invariant_total_is_laplace_plus_nonlinear():
    rng = np.random.default_rng(37)
    frame = flat_frame([0.5, -0.3, 0.2])
    for _ in range(20):
        y = rng.uniform(0.2, 0.5, size=3)
        hess = rng.normal(size=(3, 3))
        hess = (hess + hess.T) / 2
        grad = rng.normal(size=3).tolist()
        jet = Jet2(y=y.tolist(), value=rng.normal(), grad=grad, hess=hess.tolist())
        out = transformed_residual(jet, frame)
        assert abs(out.total - (out.laplace_term + out.nonlinear_term)) < 1e-12


def test_exact_route_constant_profile_pinned():
    t = fr(1, 4)
    y = [t * fr(2, 3), t * fr(2, 3), t * fr(1, 3)]
    out = transformed_residual_exact(
        y, fr(1), [0, 0, 0], [[0, 0, 0], [0, 0, 0], [0, 0, 0]], Spectrum(["0", "0", "0"])
    )
    assert out.total == -2 * t**4
    assert out.laplace_term == 0
    assert out.linear_factor == 1


def random_rational_jet(rnd: Random, n: int):
    """(spectrum, value, grad, hess): a seeded rational 2-jet in n variables
    with a symmetric Hessian."""
    def q():
        return fr(rnd.randint(-3, 3), rnd.randint(1, 4))

    hess = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            hess[i][j] = hess[j][i] = q()
    return Spectrum([q() for _ in range(n)]), q(), [q() for _ in range(n)], hess


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_route_agrees_with_float_route(n):
    # one formula (`equations._split`) in two rings: the float route on the
    # floats nearest the rational jet, the exact route on the jet itself
    spec, value, grad, hess = random_rational_jet(Random(41 + n), n)
    unit = [Fraction(c) for c in equations._UNIT_VECTORS[n]]
    for k in (1, 2, 3):
        t = fr(1, 2**k)
        y = [t * u for u in unit]
        exact = transformed_residual_exact(y, value, grad, hess, spec)
        frame = flat_frame([float(v) for v in spec.values])
        jet = Jet2(
            y=[float(c) for c in y],
            value=float(value),
            grad=[float(c) for c in grad],
            hess=[[float(c) for c in row] for row in hess],
        )
        split = transformed_residual(jet, frame)
        assert abs(split.total - float(exact.total)) < 1e-9 * max(1.0, abs(split.total))
        assert abs(split.nonlinear_term - float(exact.nonlinear_term)) < 1e-9 * max(
            1.0, abs(split.nonlinear_term)
        )
        assert isinstance(exact.total, Fraction)


def similarity_route_total(y, value, grad, hess, vals, norm):
    """The exact normalized residual the long way: the theta-free form on
    the similarity image diag(lambda) + |y|^n M R^2 (R^2 = diag(1 +
    lambda^2)), divided by gamma |y|^(n+2)."""
    n = len(y)
    K, L = identity_parts(y, value, grad, hess, norm * norm)
    rho = [1 + v * v for v in vals]
    similar = [
        [
            (vals[i] if i == j else 0) + norm**n * (K[i][j] + L * y[i] * y[j] / norm**2) * rho[j]
            for j in range(n)
        ]
        for i in range(n)
    ]
    raw = notheta_residual(PhaseBranch.slag(0), vals, similar)
    return raw / (math.prod(rho) * norm ** (n + 2))


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_route_equals_the_similarity_matrix_route(n):
    # the weighted principal-minor sum is exactly the theta-free form on the
    # similarity matrix, divided by gamma |y|^(n+2)
    rnd = Random(61 + n)
    unit = [Fraction(c) for c in equations._UNIT_VECTORS[n]]
    for k in (1, 3, 6):
        spec, value, grad, hess = random_rational_jet(rnd, n)
        t = fr(1, 2**k)
        y = [t * u for u in unit]
        want = similarity_route_total(y, value, grad, hess, list(spec.values), t)
        got = transformed_residual_exact(y, value, grad, hess, spec)
        assert isinstance(want, Fraction)
        assert got.total == want
        assert got.linear_factor == math.prod(1 + v * v for v in spec.values)


def test_exact_route_needs_rational_radius():
    with pytest.raises(ValueError):
        transformed_residual_exact(
            [fr(1, 2), fr(1, 4), fr(1, 4)],
            fr(1),
            [0, 0, 0],
            [[0, 0, 0], [0, 0, 0], [0, 0, 0]],
            Spectrum(["0", "0", "0"]),
        )


def test_exact_route_refuses_the_origin():
    # |y| = 0 once surfaced as a ZeroDivisionError from Fraction(1, 0)
    zero = [fr(0)] * 3
    with pytest.raises(ValueError, match=r"punctured ball, got y = \(0, 0, 0\)"):
        transformed_residual_exact(zero, fr(1), zero, [zero] * 3, [1, 2, 3])


def determinant_route_total(jet: Jet2, frame: KelvinFrame) -> float:
    """The normalized float residual the long way, as the float route once
    took it: the theta-free form on H = A + |y|^n R M R (Jacobi eigenvalues,
    then P(H) as a product), divided by gamma |y|^(n+2).  Its remainder is
    total - lap(v), lost to cancellation at small |y|."""
    n = frame.n
    y, r = jet.y, frame.R
    ysq = sum(c * c for c in y)
    K, L = identity_parts(y, jet.value, jet.grad, jet.hess, ysq)
    weight = ysq ** (n / 2)
    H = [
        [
            (frame.spectrum[i] if i == j else 0.0) + weight * r[i] * r[j] * (K[i][j] + L / ysq * y[i] * y[j])
            for j in range(n)
        ]
        for i in range(n)
    ]
    raw = float(notheta_residual(frame.branch, frame.spectrum, H))
    return raw / (float(linear_part_factor(frame.branch, frame.spectrum)) * ysq ** ((n + 2) / 2))


@pytest.mark.parametrize("branch", all_branches(), ids=lambda b: b.kind)
def test_float_route_agrees_with_the_determinant_route(branch):
    # 50 random jets per n = 2..5 at 0.1 <= |y| <= 0.5, eigenvalues 0.1 to
    # 2 above the bound.  The determinant route reads the remainder back
    # out of P(A + |y|^n R M R), so its error grows as 1 / (|y|^n min R^2):
    # the raw gap reached 3.0e-8 (RECIP, n = 5, |y| = 0.10, 1 + lambda =
    # 0.11), and a 60-digit evaluation put all of it on the determinant
    # route (the minor sum was within 4.1e-16 of it).  Scaled so, the gap
    # was at most 3.9e-14 (RECIP), 2.1e-14 (ATAN2), 1.5e-14 (LOG) and
    # 1.2e-14 (SLAG)
    rng = np.random.default_rng(71)
    for n in (2, 3, 4, 5):
        for _ in range(50):
            frame = KelvinFrame(branch, admissible_eigs(rng, branch, n).tolist())
            y = rng.normal(size=n)
            y *= rng.uniform(0.1, 0.5) / np.linalg.norm(y)
            hess = rng.normal(size=(n, n))
            jet = Jet2(y.tolist(), rng.normal(), rng.normal(size=n).tolist(), ((hess + hess.T) / 2).tolist())
            want = determinant_route_total(jet, frame)
            split = transformed_residual(jet, frame)
            conditioning = np.linalg.norm(y) ** n * min(r * r for r in frame.R)
            assert abs(split.total - want) * conditioning < 2e-13 * max(1.0, abs(want))


@pytest.mark.parametrize("n", [3, 5])
def test_float_remainder_matches_the_exact_route_at_small_radii(n):
    # the remainder comes straight from the minors of size >= 2, so it keeps
    # its relative accuracy as |y| falls; the determinant route's total -
    # lap(v) was off by 100 % at |y| = 1e-3 (n = 3) and by a factor 1e51 at
    # 1e-7 (n = 5).  The largest error measured here was 8.2e-16 (n = 5)
    spec, value, grad, hess = random_rational_jet(Random(83 + n), n)
    unit = [Fraction(c) for c in equations._UNIT_VECTORS[n]]
    frame = flat_frame([float(v) for v in spec.values])
    for k in range(1, 8):
        y = [fr(1, 10**k) * u for u in unit]
        want = float(transformed_residual_exact(y, value, grad, hess, spec).nonlinear_term)
        jet = Jet2(
            y=[float(c) for c in y],
            value=float(value),
            grad=[float(c) for c in grad],
            hess=[[float(c) for c in row] for row in hess],
        )
        got = transformed_residual(jet, frame).nonlinear_term
        assert want != 0 and abs(got - want) <= 1e-15 * abs(want), (k, got, want)


@pytest.mark.parametrize("branch", all_branches(), ids=lambda b: b.kind)
def test_single_index_weights_are_one(branch):
    rng = np.random.default_rng(73)
    for n in range(2, 7):
        weights = equations._minor_weights(branch.row, admissible_eigs(rng, branch, n).tolist())
        assert [len(group) for group in weights] == [0, *(math.comb(n, k) for k in range(1, n + 1))]
        assert weights[1] == {(l,): 1.0 for l in range(n)}


def test_flat_weights_are_imaginary_parts_of_root_products():
    # W_S = Im prod_{l in S} (lambda_l + i), exactly, on rational spectra
    rnd = Random(79)
    row = PhaseBranch.slag(0.0).row
    for _ in range(40):
        vals = list(random_spectrum(rnd, rnd.randint(2, 5)).values)
        for group in equations._minor_weights(row, vals):
            for S, w in group.items():
                product = complex(1)
                re, im = fr(1), fr(0)
                for l in S:
                    re, im = re * vals[l] - im, re + im * vals[l]
                    product *= complex(vals[l], 1)
                assert type(w) is Fraction and w == im
                assert math.isclose(float(w), product.imag, rel_tol=1e-12, abs_tol=1e-12)


def test_reciprocal_weights_are_scaled_elementary_sums():
    # RECIP (dual numbers): W_S = 2^(-(|S|-1)/2) sigma_(|S|-1)(1 + lambda_S)
    rng = np.random.default_rng(97)
    branch = PhaseBranch.recip(0.0)
    for n in (3, 4, 5):
        vals = admissible_eigs(rng, branch, n).tolist()
        for size, group in enumerate(equations._minor_weights(branch.row, vals)):
            for S, w in group.items():
                sigmas = [1.0]  # sigma_0 .. sigma_size of 1 + lambda_S
                for l in S:
                    sigmas = [a + (1 + vals[l]) * b for a, b in zip([*sigmas, 0.0], [0.0, *sigmas])]
                assert math.isclose(w, 2 ** (-(size - 1) / 2) * sigmas[size - 1], rel_tol=1e-13)


# ── fully symbolic n = 3 route ───────────────────────────────────────────


def test_symbolic_zero_profile_is_zero():
    out = symbolic_residual(MultiPoly.zero(3), MultiPoly.zero(3), Spectrum(["1", "2", "3"]))
    assert out.is_zero


def test_symbolic_constant_profile_flat_spectrum_pinned():
    p0 = fr(3, 2)
    out = symbolic_residual(
        MultiPoly.const(3, p0), MultiPoly.zero(3), Spectrum(["0", "0", "0"])
    )
    assert out.terms == {(4, 0, 0, 0): -2 * p0**3}


def test_symbolic_constant_profile_general_spectrum_quadratic():
    # the inverse-radius slot carries -p0^2 (sigma_1 |y|^2 + 3 sum lambda_i y_i^2)
    p0 = fr(2)
    lams = [fr(1), fr(-2), fr(1, 2)]
    out = symbolic_residual(
        MultiPoly.const(3, p0), MultiPoly.zero(3), Spectrum([str(v) for v in lams])
    )
    sigma1 = sum(lams)
    want = MultiPoly(
        3,
        {
            (2, 0, 0): -p0 * p0 * (sigma1 + 3 * lams[0]),
            (0, 2, 0): -p0 * p0 * (sigma1 + 3 * lams[1]),
            (0, 0, 2): -p0 * p0 * (sigma1 + 3 * lams[2]),
        },
    )
    assert {sum(key) for key in out.terms if key[0] % 2} == {1}
    assert out.part(-1, 1) == want


def test_windowed_residual_refuses_an_increment_at_a_held_weight():
    # through weight 5 in n = 3 the size-2 minors are held through weight
    # 5 - 3 + 2 = 4, so an increment of weight <= 4 would leave them stale
    y = [MultiPoly.variable(3, i) for i in range(3)]
    s = [1, fr(1, 2), 2]
    v = RadPoly.from_poly(MultiPoly.const(3, fr(3, 2)) + y[0] * y[1])
    windows = WindowedResidual(s)
    with pytest.raises(ValueError, match="negative weight -1"):
        windows.add(RadPoly(3, {-1: MultiPoly.const(3, 1)}))
    windows.add(v)
    windows.through(5)
    with pytest.raises(ValueError, match="weight 4 would change the minors of size 2, held through weight 4"):
        windows.add(RadPoly(3, {1: y[2] ** 3}) + RadPoly(3, {1: y[0] ** 4}))
    with pytest.raises(ValueError, match="held through residual weight 5, above 4"):
        windows.through(4)
    high = RadPoly(3, {1: y[0] ** 4})
    windows.add(high)
    assert windows.through() == symbolic_residual(MultiPoly.const(3, fr(3, 2)) + y[0] * y[1], y[0] ** 4, s)
    with pytest.raises(ValueError, match="weight 5 would change"):
        windows.add(high)


def test_symbolic_needs_three_variables():
    with pytest.raises(DimensionError):
        symbolic_residual(MultiPoly.zero(2), MultiPoly.zero(2), Spectrum(["0", "0"]))
    with pytest.raises(DimensionError):
        symbolic_residual(MultiPoly.zero(3), MultiPoly.zero(3), Spectrum(["0", "0"]))


def random_poly(rnd: Random, n_vars=3, max_degree=2) -> MultiPoly:
    out = MultiPoly.zero(n_vars)
    for _ in range(4):
        exp = [0] * n_vars
        for _ in range(rnd.randint(0, max_degree)):
            exp[rnd.randrange(n_vars)] += 1
        coef = Fraction(rnd.randint(-3, 3), rnd.randint(1, 4))
        out = out + MultiPoly(n_vars, {tuple(exp): coef})
    return out


def radical_jet(P: MultiPoly, Q: MultiPoly, y: list) -> Jet2:
    v = RadPoly(3, {0: P, 1: Q})
    grad = [v.partial(i) for i in range(3)]
    return Jet2(
        y=y,
        value=float(v.evaluate(y)),
        grad=[float(g.evaluate(y)) for g in grad],
        hess=[[float(g.partial(j).evaluate(y)) for j in range(3)] for g in grad],
    )


def test_symbolic_agrees_with_float_route_at_50_configurations():
    rnd = Random(43)
    rng = np.random.default_rng(43)
    checked = 0
    while checked < 50:
        P = random_poly(rnd)
        Q = random_poly(rnd)
        s = random_spectrum(rnd, 3, max_numerator=3, max_denominator=4)
        y = rng.uniform(-0.6, 0.6, size=3).tolist()
        if not 0.25 <= math.hypot(*y) <= 0.85:
            continue
        symbolic = symbolic_residual(P, Q, s)
        got = float(symbolic.evaluate(y))
        frame = flat_frame([float(v) for v in s.values])
        split = transformed_residual(radical_jet(P, Q, y), frame)
        assert abs(got - split.total) < 1e-9 * max(1.0, abs(split.total))
        checked += 1


def test_symbolic_minimal_slot_structure():
    rnd = Random(47)
    for _ in range(10):
        P = random_poly(rnd)
        Q = random_poly(rnd)
        s = random_spectrum(rnd, 3)
        out = symbolic_residual(P, Q, s)
        if out.is_zero:
            continue
        assert min(key[0] for key in out.terms) >= -1
        for w in {sum(key) for key in out.terms if key[0] == -1}:
            assert out.part(-1, w).try_divide_r2() is None


def test_residual_is_exactly_cubic_in_the_profile():
    # r(c v) = c lap(v) + c^2 B + c^3 C: the remainder decomposes into a
    # profile-quadratic part (pair minors) and a profile-cubic part (the
    # determinant term); the quadratic part carries the leading
    # inverse-radius obstruction
    rnd = Random(53)
    s = random_spectrum(rnd, 3)
    P = random_poly(rnd)
    Q = random_poly(rnd)
    lap = RadPoly(3, {0: P, 1: Q}).laplacian()
    r = {c: symbolic_residual(c * P, c * Q, s) for c in (1, 2, 3, 5)}
    u1 = r[1] - lap
    u2 = r[2] - 2 * lap
    cubic = fr(1, 4) * (u2 - 4 * u1)
    quad = u1 - cubic
    assert r[3] == 3 * lap + 9 * quad + 27 * cubic
    assert r[5] == 5 * lap + 25 * quad + 125 * cubic
    assert any(key[0] == -1 for key in quad.terms)


_CEILING_SPECTRA = {
    "graded": [1, fr(1, 2), 2, fr(1, 3), fr(3, 2)],
    "negative": [fr(-1, 2), 1, 1, 1, 1],
}


@pytest.mark.parametrize("kind", sorted(_CEILING_SPECTRA))
@pytest.mark.parametrize("n", [3, 4, 5])
def test_weight_ceiling_equals_the_full_residual_through_it(n, kind):
    # with a ceiling W the residual holds exactly the full residual's
    # components of weight <= W, in both parity sectors; the radical
    # cofactor puts odd powers of |y| into the entries of M in odd n
    s = _CEILING_SPECTRA[kind][:n]
    y = [MultiPoly.variable(n, i) for i in range(n)]
    P = MultiPoly.const(n, fr(3, 2)) + (y[0] * y[1] * fr(1, 2) if n < 5 else MultiPoly.zero(n))
    Q = y[0] * y[n - 1] * fr(2, 3)
    full = symbolic_residual(P, Q, s)
    assert {key[0] % 2 for key in full.terms} == ({0, 1} if n % 2 else {0})
    for ceiling in range(-3, 2 * n + 3):
        cut = symbolic_residual(P, Q, s, ceiling)
        assert cut == full.truncate(ceiling), ceiling
        if n % 2 and ceiling >= 2 * n:
            assert {key[0] % 2 for key in cut.terms} == {0, 1}
    top = max(sum(key) for key in full.terms)
    assert symbolic_residual(P, Q, s, top) == full


def test_whole_n5_residual_is_pinned():
    # the whole residual in five variables, pinned by the digest of its
    # normal form written term by term
    n = 5
    P = MultiPoly.const(n, fr(3, 2))
    Q = MultiPoly.variable(n, 0) * MultiPoly.variable(n, 4)
    full = symbolic_residual(P, Q, [1, fr(1, 2), 2, fr(1, 3), fr(3, 2)])
    assert len(full.terms) == 273
    blob = repr(full).encode()
    assert hashlib.sha256(blob).hexdigest() == "df7758b4f14f7df8df83a691bed7e4546fd17cc48bc33cc8190d0e3434a4e441"


def _berkowitz_defect(s) -> MultiPoly:
    # the linear-part defect by Berkowitz's recursion over dual numbers on
    # the whole pencil diag(lambda) + w (|y|^2 M) R^2, off-diagonal entries
    # included: the oracle for linear_part_defect's diagonal route (L31)
    vals = [Fraction(v) for v in s]
    n = len(vals)
    yvar, vvar, gvar, hvar = jet_indeterminates(n)
    zero = MultiPoly.zero(yvar[0].n_vars)
    ysq = sum((c * c for c in yvar), zero)
    K, L = equations.identity_parts(yvar, vvar, gvar, hvar, ysq)
    rho = [1 + v * v for v in vals]
    pencil = [
        [_Dual(vals[i] if i == j else 0, (K[i][j] * ysq + L * (yvar[i] * yvar[j])) * rho[j]) for j in range(n)]
        for i in range(n)
    ]
    form = AlgebraicForm.eliminated(PhaseBranch.slag(0.0), n, vals)
    p_h = equations._det_by_sigmas(form.branch.row, char_sigmas(pencil, _Dual(Fraction(1), zero)))
    trace_h = sum((hvar[i][i] for i in range(n)), zero)
    return form._at_det(p_h).b - math.prod(rho, start=Fraction(1)) * (ysq * ysq * trace_h)


@pytest.fixture
def fresh_linear_part_jet():
    # linear_part_defect builds its spectrum-free jet once per n, so a test
    # that patches identity_parts clears that cache before and after
    equations._linear_part_jet.cache_clear()
    yield
    equations._linear_part_jet.cache_clear()


def _perturbed_identity_parts(perturb):
    real = equations.identity_parts

    def perturbed(y, value, grad, hess, ysq):
        K, L = real(y, value, grad, hess, ysq)
        return perturb(K, L, value)

    return perturbed


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_linear_part_defect_equals_the_berkowitz_route(n, fresh_linear_part_jet):
    # zero on both routes, and equal where a perturbed L makes it nonzero
    rnd = Random(97 + n)
    radial = _perturbed_identity_parts(lambda K, L, value: (K, L + value))
    for _ in range(2):
        s = random_spectrum(rnd, n)
        assert linear_part_defect(s) == _berkowitz_defect(s) == MultiPoly.zero(2 * n + 1 + n * (n + 1) // 2)
        equations._linear_part_jet.cache_clear()
        with mock.patch.object(equations, "identity_parts", radial):
            defect = linear_part_defect(s)
            assert not defect.is_zero and defect == _berkowitz_defect(s)
        equations._linear_part_jet.cache_clear()


@pytest.mark.parametrize("n", [2, 3, 4])
def test_an_off_diagonal_perturbation_leaves_the_defect_zero(n, fresh_linear_part_jet):
    # to first order in w only the diagonal of |y|^2 M enters sigma_k (L31),
    # so adding v to K_01 and K_10 is invisible to both routes
    def off_diagonal(K, L, value):
        K = [list(row) for row in K]
        K[0][1] = K[0][1] + value
        K[1][0] = K[1][0] + value
        return K, L

    s = random_spectrum(Random(101 + n), n)
    with mock.patch.object(equations, "identity_parts", _perturbed_identity_parts(off_diagonal)):
        assert linear_part_defect(s).is_zero
        assert _berkowitz_defect(s).is_zero


def test_linear_part_identity_holds_symbolically():
    rnd = Random(59)
    for values in (["0", "0", "0"], ["1", "2", "-1/2"], None, None):
        if values is None:
            s = random_spectrum(rnd, 3)
        else:
            s = Spectrum(values)
        assert linear_part_defect(s).is_zero


def test_linear_part_defect_detects_a_perturbed_L(fresh_linear_part_jet):
    # negative control: adding v to the radial weight L changes the
    # w-linear coefficient, so the defect must not vanish
    real = equations.identity_parts

    def perturbed(y, value, grad, hess, ysq):
        K, L = real(y, value, grad, hess, ysq)
        return K, L + value

    s = Spectrum(["1", "1/2", "2"])
    assert linear_part_defect(s).is_zero
    equations._linear_part_jet.cache_clear()
    with mock.patch.object(equations, "identity_parts", perturbed):
        assert not linear_part_defect(s).is_zero


@pytest.mark.parametrize("n", [2, 3, 4])
def test_linear_part_defect_is_a_polynomial_over_the_jet_variables(n, fresh_linear_part_jet):
    # the defect lives on the 2n + 1 + n(n+1)/2 jet variables (y, v, g, h),
    # where a radical |y| would be the norm over all of them, so it is a
    # plain polynomial, also when it does not vanish
    real = equations.identity_parts

    def perturbed(y, value, grad, hess, ysq):
        K, L = real(y, value, grad, hess, ysq)
        return K, L + value

    s = random_spectrum(Random(71 + n), n)
    jets = 2 * n + 1 + n * (n + 1) // 2
    defect = linear_part_defect(s)
    assert type(defect) is MultiPoly and defect.n_vars == jets and defect.is_zero
    equations._linear_part_jet.cache_clear()
    with mock.patch.object(equations, "identity_parts", perturbed):
        defect = linear_part_defect(s)
    assert type(defect) is MultiPoly and defect.n_vars == jets and not defect.is_zero


@pytest.mark.parametrize("n", [2, 4, 5])
def test_linear_part_identity_holds_symbolically_in_n(n):
    rnd = Random(67 + n)
    assert linear_part_defect(random_spectrum(rnd, n)).is_zero


def test_linear_part_defect_needs_three_eigenvalues():
    with pytest.raises(DimensionError):
        linear_part_defect(Spectrum(["1"]))
    assert linear_part_defect(Spectrum(["1", "2"])).is_zero


def test_exact_routes_refuse_a_float_and_cap_rational_text():
    # each exact route reads its arguments by exactalg's one rule: a float
    # is named, not turned into a dyadic rational, and text keeps its caps
    one, zero = Fraction(1), Fraction(0)
    y = [Fraction(3, 5), Fraction(4, 5), zero]
    grad = [zero] * 3
    hess = [[one if i == j else zero for j in range(3)] for i in range(3)]
    assert transformed_residual_exact(y, one, grad, hess, [1, 2, 3]).laplace_term == 3
    with pytest.raises(TypeError, match="expected an exact rational, got float 0.1"):
        transformed_residual_exact(y, 0.1, grad, hess, [1, 2, 3])
    with pytest.raises(TypeError, match="expected an exact rational, got float 0.1"):
        transformed_residual_exact(y, one, grad, hess, [1, 0.1, 3])
    with pytest.raises(TypeError, match="expected an exact rational, got float 0.1"):
        linear_part_defect([1, 0.1, 3])
    with pytest.raises(TypeError, match="expected an exact rational, got float 0.1"):
        symbolic_residual(MultiPoly.const(3, 1), MultiPoly.zero(3), [1, 0.1, 3])
    with pytest.raises(ValueError) as from_spectrum:
        Spectrum(["1e5000"])
    with pytest.raises(ValueError, match="rational '1e5000' is too large") as from_defect:
        linear_part_defect(["1", "1e5000"])
    assert str(from_defect.value) == str(from_spectrum.value)


# ── small-radius scaling ladder ──────────────────────────────────────────


def test_scaling_ladder_slopes_reach_superlinear_order():
    for n in (3, 4, 5):
        out = residual_scaling_slopes(n, seed=0)
        assert out["slope"] >= n - 2 - 0.1
        assert out["n"] == n
        assert len(out["log2_t"]) == len(out["log2_remainder"]) == 8


def test_scaling_ladder_is_deterministic():
    assert residual_scaling_slopes(3, seed=5) == residual_scaling_slopes(3, seed=5)


def test_scaling_ladder_rejects_unsupported_dimension():
    with pytest.raises(ValueError):
        residual_scaling_slopes(6)


@pytest.mark.parametrize(
    "exponents,named",
    [
        ((3, 3), "exponent 3 is repeated"),
        ((0, -3), "exponent 0 "),
        ((3, 100000), "exponent 100000 "),
        ((3, 201), "exponent 201 "),
        ((3, 4.0), "exponent 4.0 "),
        ((3,), "at least two"),
    ],
)
def test_scaling_ladder_rejects_bad_exponents(exponents, named):
    with pytest.raises(ValueError, match=named):
        residual_scaling_slopes(3, exponents=exponents)


def test_scaling_ladder_reaches_the_exponent_cap():
    out = residual_scaling_slopes(5, exponents=(1, 200))
    assert out["log2_t"] == [-1, -200]
    assert math.isfinite(out["slope"]) and out["log2_remainder"][1] > -1000


# ── breakdown dataclass ──────────────────────────────────────────────────


def test_breakdown_fields():
    out = ResidualBreakdown(
        laplace_term=1.0, nonlinear_term=0.5, total=1.5, linear_factor=2.0
    )
    assert out.total == out.laplace_term + out.nonlinear_term
