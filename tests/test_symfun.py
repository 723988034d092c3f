"""Symmetric-function kernels and the exact determinant identities, checked
against brute-force subset enumeration and independent difference routes."""

import math
from fractions import Fraction
from itertools import combinations, permutations
from random import Random
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym import symfun
from kelvinasym.exactalg import MultiPoly
from kelvinasym.symfun import (
    ArityError,
    BranchParams,
    ExactReport,
    MismatchError,
    Spectrum,
    alternating_sums,
    alternating_sums_bar,
    char_sigmas,
    linear_coefficient_sigma,
    random_branch_params,
    random_rational,
    random_spectrum,
    random_symmetric_matrix,
    sigma,
    sigma_all,
    sigma_bar,
    sigma_bar_all,
    sigma_hat,
    verify_identity,
    verify_linear_coefficient,
)


def fr(a, b=1):
    return Fraction(a, b)


rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
spectra = st.lists(rationals, min_size=1, max_size=6)
params_st = st.builds(BranchParams, rationals, rationals)


# ── brute-force oracles ──────────────────────────────────────────────────


def brute_sigma(vals, k):
    if k < 0 or k > len(vals):
        return Fraction(0)
    return sum(
        (math.prod(c, start=Fraction(1)) for c in combinations(vals, k)),
        start=Fraction(0),
    )


def brute_sigma_bar(vals, k, p):
    n = len(vals)
    if k < 0 or k > n:
        return Fraction(0)
    total = Fraction(0)
    for chosen in combinations(range(n), k):
        inside = math.prod((vals[j] + p.a - p.b for j in chosen), start=Fraction(1))
        outside = math.prod(
            (vals[j] + p.a + p.b for j in range(n) if j not in chosen),
            start=Fraction(1),
        )
        total += inside * outside
    return total


# ── sigma and deleted sigma ──────────────────────────────────────────────


def test_sigma_pinned():
    assert sigma(2, (1, 2, 3)) == 11
    assert sigma(0, (1, 2, 3)) == 1
    assert sigma(3, (1, 2, 3)) == 6
    assert sigma(4, (1, 2, 3)) == 0
    assert sigma(-1, (1, 2, 3)) == 0


@given(vals=spectra, k=st.integers(-1, 7))
@settings(max_examples=60, deadline=None)
def test_sigma_matches_brute_force(vals, k):
    assert sigma(k, vals) == brute_sigma(vals, k)


@given(vals=spectra, mu=rationals)
@settings(max_examples=40, deadline=None)
def test_sigma_append_recurrence(vals, mu):
    # sigma_j(s with mu appended) = sigma_j(s) + mu sigma_{j-1}(s)
    extended = sigma_all(list(vals) + [mu])
    for j in range(len(vals) + 2):
        assert extended[j] == sigma(j, vals) + mu * sigma(j - 1, vals)


def test_sigma_hat_pinned():
    assert sigma_hat(2, 1, (1, 2, 3)) == 6
    assert sigma_hat(1, 2, (1, 2, 3)) == 4
    assert sigma_hat(0, 3, (1, 2, 3)) == 1
    assert sigma_hat(-1, 1, (1, 2, 3)) == 0


def test_sigma_hat_index_is_one_based():
    # deleting the first entry must drop lambda_1, not lambda_2
    assert sigma_hat(1, 1, (10, 2, 3)) == 5
    with pytest.raises(IndexError):
        sigma_hat(1, 0, (1, 2, 3))
    with pytest.raises(IndexError):
        sigma_hat(1, 4, (1, 2, 3))


def test_sigma_hat_equals_raise_lower_difference():
    # sigma_hat_{k-1, i} = sigma_k(entry i -> 1) - sigma_k(entry i -> 0)
    s = Spectrum((4, 2, 3))
    assert sigma(2, s.replaced(1, 1)) - sigma(2, s.replaced(1, 0)) == 5
    assert sigma_hat(1, 1, s) == 5
    rng = Random(3)
    for _ in range(20):
        t = random_spectrum(rng, rng.randint(1, 6))
        for i in range(1, t.n + 1):
            for k in range(t.n + 1):
                diff = sigma(k, t.replaced(i, 1)) - sigma(k, t.replaced(i, 0))
                assert diff == sigma_hat(k - 1, i, t)


# ── shifted functions ────────────────────────────────────────────────────


def test_sigma_bar_pinned():
    # n = 2, both eigenvalues 1, (a, b) = (2, 1): each singleton subset
    # contributes (1+2-1)(1+2+1) = 8
    p = BranchParams(fr(2), fr(1))
    assert sigma_bar(1, (1, 1), p) == 16
    q = BranchParams(fr(1), fr(1))
    assert sigma_bar(1, (0,), q) == 0
    assert sigma_bar(0, (0,), q) == 2


@given(vals=spectra, k=st.integers(-1, 7), p=params_st)
@settings(max_examples=60, deadline=None)
def test_sigma_bar_matches_brute_force(vals, k, p):
    assert sigma_bar(k, vals, p) == brute_sigma_bar(vals, k, p)


@given(vals=spectra, p=params_st)
@settings(max_examples=30, deadline=None)
def test_sigma_bar_generating_product(vals, p):
    # sum_k sigma_bar_k t^k factors through prod ((l+a+b) + t (l+a-b)) at t = 2
    t = Fraction(2)
    lhs = sum(c * t**k for k, c in enumerate(sigma_bar_all(vals, p)))
    rhs = math.prod(
        ((v + p.a + p.b) + t * (v + p.a - p.b) for v in vals), start=Fraction(1)
    )
    assert lhs == rhs


def test_sigma_bar_closed_forms():
    rng = Random(11)
    for _ in range(10):
        p = random_branch_params(rng)
        n = rng.randint(1, 5)
        zero = [Fraction(0)] * n
        for k in range(n + 1):
            assert sigma_bar(k, zero, p) == math.comb(n, k) * (p.a - p.b) ** k * (
                p.a + p.b
            ) ** (n - k)
        flat = BranchParams(p.a, 0)
        vals = [random_rational(rng) for _ in range(n)]
        prod = math.prod((v + p.a for v in vals), start=Fraction(1))
        for k in range(n + 1):
            assert sigma_bar(k, vals, flat) == math.comb(n, k) * prod
    assert sigma_bar(1, (fr(3),), BranchParams(fr(1), fr(2))) == fr(3) + 1 - 2


@given(vals=spectra, mu=rationals, p=params_st)
@settings(max_examples=30, deadline=None)
def test_sigma_bar_append_recurrence(vals, mu, p):
    # appending mu multiplies the generating product by one more factor
    base = sigma_bar_all(vals, p)
    extended = sigma_bar_all(list(vals) + [mu], p)
    plus = mu + p.a + p.b
    minus = mu + p.a - p.b
    for k in range(len(extended)):
        lo = base[k - 1] if 1 <= k <= len(base) else Fraction(0)
        hi = base[k] if k < len(base) else Fraction(0)
        assert extended[k] == hi * plus + lo * minus


# ── alternating sums against complex products ────────────────────────────


@given(vals=spectra)
@settings(max_examples=40, deadline=None)
def test_alternating_sums_are_complex_product_parts(vals):
    # (E, O) = (Re, Im) of prod_j (1 + i lambda_j)
    re, im = Fraction(1), Fraction(0)
    for v in vals:
        re, im = re - v * im, im + v * re
    assert alternating_sums(vals) == (re, im)


@given(vals=spectra, p=params_st)
@settings(max_examples=40, deadline=None)
def test_alternating_sums_bar_are_complex_product_parts(vals, p):
    re, im = Fraction(1), Fraction(0)
    for v in vals:
        x = v + p.a + p.b
        y = v + p.a - p.b
        re, im = re * x - im * y, re * y + im * x
    assert alternating_sums_bar(vals, p) == (re, im)


# ── sigma_k of an exact matrix ───────────────────────────────────────────


def test_char_sigmas_on_diagonal_matches_sigma():
    vals = [fr(1), fr(-2, 3), fr(5, 7), fr(4)]
    mat = [[Fraction(0)] * 4 for _ in range(4)]
    for d, v in enumerate(vals):
        mat[d][d] = v
    assert char_sigmas(mat, Fraction(1)) == sigma_all(vals)


def test_char_sigmas_matches_float_eigenvalues():
    import numpy as np

    rng = Random(5)
    for _ in range(10):
        n = rng.randint(2, 5)
        mat = random_symmetric_matrix(rng, n)
        exact = char_sigmas(mat, Fraction(1))
        eig = np.linalg.eigvalsh(np.array([[float(v) for v in row] for row in mat]))
        approx = [1.0]
        for lam in eig:
            approx = (
                [approx[0]]
                + [approx[c] + lam * approx[c - 1] for c in range(1, len(approx))]
                + [lam * approx[-1]]
            )
        for a, b in zip(exact, approx):
            assert abs(float(a) - b) < 1e-9 * max(1.0, abs(b))


def test_char_sigmas_is_one_kernel_over_fraction_dual_and_multipoly():
    # the same pass over Fraction entries, over dual numbers with a zero
    # t-part, and over constant polynomials gives the same sigma_k
    rng = Random(11)
    zero = Fraction(0)
    for n in range(1, 6):
        mat = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        want = char_sigmas(mat, Fraction(1))
        duals = [[symfun._Dual(v, zero) for v in row] for row in mat]
        got = char_sigmas(duals, symfun._Dual(Fraction(1), zero))
        assert [d.a for d in got] == want and all(d.b == 0 for d in got)
        polys = [[MultiPoly.const(2, v) for v in row] for row in mat]
        got = char_sigmas(polys, MultiPoly.const(2, 1))
        assert got == [MultiPoly.const(2, v) for v in want]


def _leibniz_det(mat, rows):
    total = Fraction(0)
    for perm in permutations(rows):
        inversions = sum(a > b for a, b in combinations(perm, 2))
        entries = (mat[r][c] for r, c in zip(rows, perm))
        total += (-1) ** inversions * math.prod(entries, start=Fraction(1))
    return total


def test_char_sigmas_matches_principal_minor_sums_on_nonsymmetric_matrices():
    # sigma_k is the sum of the k x k principal minors, each a Leibniz sum
    rng = Random(12)
    for n in range(1, 6):
        mat = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        want = [
            sum((_leibniz_det(mat, rows) for rows in combinations(range(n), k)), Fraction(0))
            for k in range(n + 1)
        ]
        assert char_sigmas(mat, Fraction(1)) == want


def test_principal_minors_sum_to_char_sigmas_on_nonsymmetric_matrices():
    # the size-k principal minors are the terms of sigma_k, each also a
    # Leibniz sum
    rng = Random(13)
    for n in range(1, 6):
        mat = [[random_rational(rng) for _ in range(n)] for _ in range(n)]
        minors = symfun._principal_minors(mat)
        assert set(minors) == {
            rows for k in range(1, n + 1) for rows in combinations(range(n), k)
        }
        for rows, det in minors.items():
            assert det == _leibniz_det(mat, rows)
        sums = [
            sum((det for rows, det in minors.items() if len(rows) == k), Fraction(0))
            for k in range(1, n + 1)
        ]
        assert [Fraction(1), *sums] == char_sigmas(mat, Fraction(1))


def test_principal_minors_reject_a_ragged_matrix():
    with pytest.raises(ArityError):
        symfun._principal_minors([[1, 2], [3]])


def test_char_sigmas_rejects_a_ragged_matrix():
    with pytest.raises(ArityError):
        char_sigmas([[1, 2], [3]], Fraction(1))


# ── linear coefficient along a matrix direction ──────────────────────────


def test_linear_coefficient_pinned():
    eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert linear_coefficient_sigma(2, (1, 2, 3), eye) == 12
    assert linear_coefficient_sigma(1, (1, 2, 3), [[2, 1, 0], [1, 3, 0], [0, 0, 4]]) == 9
    e11 = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    assert linear_coefficient_sigma(3, (1, 2, 3), e11) == 6
    assert linear_coefficient_sigma(0, (1, 2, 3), eye) == 0


@given(
    vals=st.lists(rationals, min_size=1, max_size=5),
    k=st.integers(0, 6),
    seed=st.integers(0, 10000),
)
@settings(max_examples=40, deadline=None)
def test_linear_coefficient_random_matrix_routes_agree(vals, k, seed):
    mat = random_symmetric_matrix(Random(seed), len(vals))
    got = linear_coefficient_sigma(k, vals, mat)
    reports = verify_linear_coefficient(vals, mat)
    assert len(reports) == len(vals)
    assert all(report.equal and report.lemma == "L31" for report in reports)
    assert got == (reports[k - 1].lhs if 1 <= k <= len(vals) else 0)


def test_linear_coefficient_routes_disagree_on_a_wrong_diagonal():
    # negative control: the deleted-sum route sees every diagonal entry
    # off by one, so at least the k = 1 report (the trace) must fail; both
    # routes run over the entries times their common denominator, so one
    # unit of the unscaled entries is that denominator
    real = symfun._linear_coefficients_by_deleted_sum
    s = (fr(1), fr(-2, 3), fr(5, 2))
    mat = random_symmetric_matrix(Random(3), 3)
    unit = math.lcm(*(v.denominator for v in [*s, *(v for row in mat for v in row)]))

    def off_by_one(values, diagonal):
        return real(values, [d + unit for d in diagonal])

    assert all(report.equal for report in verify_linear_coefficient(s, mat))
    with mock.patch.object(symfun, "_linear_coefficients_by_deleted_sum", off_by_one):
        reports = verify_linear_coefficient(s, mat)
        assert not reports[0].equal
        assert reports[0].rhs - reports[0].lhs == 3
        with pytest.raises(MismatchError):
            linear_coefficient_sigma(1, s, mat)


def test_linear_coefficient_matches_symbolic_oracle():
    # independent route through a different library and algorithm: build
    # the characteristic polynomial of diag(lambda) + t B symbolically and
    # differentiate its coefficient at t = 0
    import sympy

    t = sympy.Symbol("t")
    rng = Random(9)
    for _ in range(8):
        n = rng.randint(2, 4)
        s = random_spectrum(rng, n)
        mat = random_symmetric_matrix(rng, n)
        k = rng.randint(1, n)
        entries = [
            [
                sympy.Rational(mat[r][c]) * t
                + (sympy.Rational(s.values[r]) if r == c else 0)
                for c in range(n)
            ]
            for r in range(n)
        ]
        char = sympy.Matrix(entries).charpoly()
        sigma_k = sympy.expand((-1) ** k * char.all_coeffs()[k])
        slope = sympy.diff(sigma_k, t).subs(t, 0)
        want = linear_coefficient_sigma(k, s, mat)
        assert sympy.Rational(want.numerator, want.denominator) == slope


def test_linear_coefficient_validates_input():
    with pytest.raises(ArityError):
        linear_coefficient_sigma(1, (1, 2), [[1, 0], [0, 1], [0, 0]])
    with pytest.raises(ArityError):
        linear_coefficient_sigma(1, (1, 2), [[1, 2], [3, 4]])
    with pytest.raises(ArityError):
        linear_coefficient_sigma(1, (), [])
    with pytest.raises(TypeError):
        linear_coefficient_sigma(1, (1, 2), [[0.5, 0], [0, 1]])


# ── the determinant identities ───────────────────────────────────────────


def expanded_product(factors, one):
    """Coefficients in t of prod (p + t q) over (p, q) factors, by
    multiplying out one factor at a time into a fresh list."""
    coeffs = [one]
    for p, q in factors:
        nxt = [0 * one] * (len(coeffs) + 1)
        for c, v in enumerate(coeffs):
            nxt[c] = nxt[c] + v * p
            nxt[c + 1] = nxt[c + 1] + v * q
        coeffs = nxt
    return coeffs


def test_in_place_sigma_kernels_equal_the_expanded_product_in_every_ring():
    rng = Random(5)
    y1, y2, unit = MultiPoly.variable(2, 0), MultiPoly.variable(2, 1), MultiPoly.const(2, 1)
    rings = [
        (1, lambda: rng.randint(-9, 9)),
        (fr(1), lambda: fr(rng.randint(-9, 9), rng.randint(1, 7))),
        (unit, lambda: fr(rng.randint(-3, 3), rng.randint(1, 4)) * y1 + rng.randint(-3, 3) * y2 + unit),
    ]
    for one, draw in rings:
        for size in range(6):
            values = [draw() for _ in range(size)]
            pairs = [(draw(), draw()) for _ in range(size)]
            assert symfun._sigmas(values, one) == expanded_product([(one, v) for v in values], one)
            assert symfun._pencil_sigmas(pairs, one) == expanded_product(pairs, one)


@pytest.mark.parametrize("n", [*range(1, 13), 33])
def test_l33_table_is_the_double_binomial_sum(n):
    # the table's weighted terms, summed with random integer powers and
    # sigmas, give the literal double sum at every k
    rng = Random(n)
    minus = [rng.randint(-50, 50) for _ in range(n + 1)]
    plus = [rng.randint(-50, 50) for _ in range(n + 1)]
    sig = [rng.randint(-50, 50) for _ in range(n + 1)]
    rows = symfun._l33_table(n)
    assert len(rows) == n + 1
    for k, row in enumerate(rows):
        literal = sum(
            math.comb(m, j) * math.comb(n - m, k - j) * minus[k - j] * plus[n - m - k + j] * sig[m]
            for m in range(n + 1)
            for j in range(0, m + 1)
            if 0 <= k - j <= n - m
        )
        assert sum(w * minus[i] * plus[j] * sig[m] for w, i, j, m in row) == literal


def test_l32_pinned_example():
    reports = verify_identity("L32", (1, 2, 3))
    assert [(r.lhs, r.rhs) for r in reports] == [(50, 50), (20, 20), (10, 10)]
    assert all(r.equal and r.lemma == "L32" for r in reports)


def test_l33_pinned_example():
    reports = verify_identity("L33", (1, 1), p=BranchParams(fr(2), fr(1)))
    assert [r.lhs for r in reports] == [16, 16, 4]
    assert all(r.equal and r.lemma == "L33" for r in reports)


def test_l34_pinned_example():
    reports = verify_identity("L34", (1, 0, -1), p=BranchParams(fr(1), fr(1, 2)))
    assert [r.lhs for r in reports] == [fr(5, 4), fr(17, 4), fr(85, 4)]
    assert all(r.equal and r.lemma == "L34" for r in reports)


def test_verify_identity_reports_every_index_in_order():
    # one report per i = 1 .. n (L32, L34) or k = 0 .. n (L33), each equal
    # to the identity's closed right side at that index
    s = (fr(1, 2), -2, 3, fr(-1, 3))
    p = BranchParams(fr(1, 3), fr(-2))
    rhs32 = [math.prod((1 + v * v for v in s[:i] + s[i + 1 :]), start=fr(1)) for i in range(4)]
    rhs34 = [
        2**4 * p.b * math.prod(((v + p.a) ** 2 + p.b**2 for v in s[:i] + s[i + 1 :]), start=fr(1))
        for i in range(4)
    ]
    assert [r.rhs for r in verify_identity("L32", s)] == rhs32
    assert [r.lhs for r in verify_identity("L33", s, p)] == sigma_bar_all(s, p)
    assert [r.rhs for r in verify_identity("L34", s, p)] == rhs34


def test_every_side_of_every_identity_matches_the_fraction_route_under_large_coprime_denominators():
    # the verifiers scale their inputs by the lcm of the denominators, here
    # near 2^101, and divide each side by the right power of it; every side
    # at every index must equal the plain Fraction value from the public
    # functions, not only agree with the other side
    big = (997, 10**9 + 7, 2**61 - 1)
    s = Spectrum((fr(3, big[0]), fr(-5, big[1]), fr(7, big[2]), fr(2), fr(-1, big[0])))
    n = len(s)
    p = BranchParams(fr(1, big[2]), fr(-4, big[1]))
    mat = [[fr(r + c + 1, big[(r * c) % 3]) * (-1) ** (r + c) for c in range(n)] for r in range(n)]

    # L31: the t-coefficient of sigma_k(diag(lambda) + t B), with t a polynomial variable
    pencil = [
        [MultiPoly(1, {(0,): s.values[r] if r == c else 0, (1,): mat[r][c]}) for c in range(n)]
        for r in range(n)
    ]
    lhs31 = [sig.terms.get((1,), 0) for sig in char_sigmas(pencil, MultiPoly.const(1, 1))[1:]]
    rhs31 = [
        sum((sigma_hat(k - 1, i, s) * mat[i - 1][i - 1] for i in range(1, n + 1)), start=fr(0))
        for k in range(1, n + 1)
    ]

    e, o = alternating_sums(s)
    hats = [alternating_sums(s.deleted(i)) for i in range(1, n + 1)]
    lhs32 = [e * e_hat + o * o_hat for e_hat, o_hat in hats]
    rhs32 = [math.prod((1 + v * v for v in s.deleted(i)), start=fr(1)) for i in range(1, n + 1)]

    rhs33 = [
        sum(
            (
                math.comb(m, j) * math.comb(n - m, k - j) * (p.a - p.b) ** (k - j)
                * (p.a + p.b) ** (n - m - k + j) * sigma(m, s)
                for m in range(n + 1)
                for j in range(max(0, k - (n - m)), min(m, k) + 1)
            ),
            start=fr(0),
        )
        for k in range(n + 1)
    ]

    e, o = alternating_sums_bar(s, p)
    hats = [alternating_sums_bar(s.deleted(i), p) for i in range(1, n + 1)]
    lhs34 = [e * (e_hat + o_hat) - o * (e_hat - o_hat) for e_hat, o_hat in hats]
    rhs34 = [
        2**n * p.b * math.prod(((v + p.a) ** 2 + p.b**2 for v in s.deleted(i)), start=fr(1))
        for i in range(1, n + 1)
    ]

    expected = {
        "L31": (verify_linear_coefficient(s, mat), lhs31, rhs31),
        "L32": (verify_identity("L32", s), lhs32, rhs32),
        "L33": (verify_identity("L33", s, p), sigma_bar_all(s, p), rhs33),
        "L34": (verify_identity("L34", s, p), lhs34, rhs34),
    }
    for lemma, (reports, lhs, rhs) in expected.items():
        assert [r.lhs for r in reports] == lhs, lemma
        assert [r.rhs for r in reports] == rhs, lemma
        assert all(r.equal and r.lemma == lemma for r in reports)
        assert all(type(r.lhs) is Fraction and type(r.rhs) is Fraction for r in reports)
    # the sides are not all integers, so a missing or wrong division would show
    assert all(max(r.lhs.denominator for r in reports) > 2**60 for reports, _, _ in expected.values())


@given(vals=st.lists(rationals, min_size=3, max_size=7))
@settings(max_examples=50, deadline=None)
def test_l32_random(vals):
    reports = verify_identity("L32", vals)
    assert len(reports) == len(vals)
    for r in reports:
        assert r.equal, f"{r.lhs} != {r.rhs}"


@given(vals=st.lists(rationals, min_size=1, max_size=6), p=params_st)
@settings(max_examples=50, deadline=None)
def test_l33_random(vals, p):
    reports = verify_identity("L33", vals, p=p)
    assert len(reports) == len(vals) + 1
    for r in reports:
        assert r.equal, f"{r.lhs} != {r.rhs}"


@given(vals=st.lists(rationals, min_size=3, max_size=6), p=params_st)
@settings(max_examples=50, deadline=None)
def test_l34_random(vals, p):
    reports = verify_identity("L34", vals, p=p)
    assert len(reports) == len(vals)
    for r in reports:
        assert r.equal, f"{r.lhs} != {r.rhs}"


def test_l32_left_side_is_directional_derivative():
    # E E_i + O O_i equals d/dt [E(A) O(A_t) - O(A) E(A_t)] where A_t bumps
    # lambda_i by t; both sides are affine in the bump so a unit secant
    # recovers the derivative
    rng = Random(23)
    for _ in range(15):
        s = random_spectrum(rng, rng.randint(3, 6))
        e0, o0 = alternating_sums(s)
        for i, report in enumerate(verify_identity("L32", s), start=1):
            eb, ob = alternating_sums(s.replaced(i, s.values[i - 1] + 1))
            slope = e0 * (ob - o0) - o0 * (eb - e0)
            assert slope == report.lhs == report.rhs


def test_l34_left_side_is_directional_derivative():
    rng = Random(29)
    for _ in range(15):
        s = random_spectrum(rng, rng.randint(3, 6))
        p = random_branch_params(rng, nonzero_b=True)
        e0, o0 = alternating_sums_bar(s, p)
        for i, report in enumerate(verify_identity("L34", s, p=p), start=1):
            eb, ob = alternating_sums_bar(s.replaced(i, s.values[i - 1] + 1), p)
            slope = e0 * (ob - o0) - o0 * (eb - e0)
            assert slope == report.lhs == report.rhs


def test_l34_matches_raised_lowered_form():
    # the same left side written through spectra with entry i replaced by
    # 1 and by 0: Ebar [Obar^(i) - Obar_(i)] - Obar [Ebar^(i) - Ebar_(i)]
    rng = Random(31)
    for _ in range(15):
        s = random_spectrum(rng, rng.randint(3, 6))
        p = random_branch_params(rng, nonzero_b=True)
        e0, o0 = alternating_sums_bar(s, p)
        for i, report in enumerate(verify_identity("L34", s, p=p), start=1):
            er, orr = alternating_sums_bar(s.replaced(i, 1), p)
            el, ol = alternating_sums_bar(s.replaced(i, 0), p)
            assert e0 * (orr - ol) - o0 * (er - el) == report.lhs


def test_verify_identity_argument_checks():
    with pytest.raises(ArityError):
        verify_identity("L32", (1, 2))
    with pytest.raises(ArityError):
        verify_identity("L33", (1, 2))
    with pytest.raises(ArityError):
        verify_identity("L34", (1, 2, 3))
    with pytest.raises(ArityError):
        verify_identity("L34", (1, 2), p=BranchParams(1, 1))
    with pytest.raises(ValueError):
        verify_identity("L99", (1, 2, 3))
    with pytest.raises(TypeError):
        verify_identity("L32", (0.5, 1, 2))


# ── containers and serialization ─────────────────────────────────────────


def test_spectrum_one_based_access():
    s = Spectrum(("1/2", 2, fr(-3)))
    assert s.n == 3 and len(s) == 3
    assert s.deleted(1) == Spectrum((2, -3))
    assert s.deleted(3) == Spectrum((fr(1, 2), 2))
    assert s.replaced(2, 7) == Spectrum((fr(1, 2), 7, -3))
    with pytest.raises(IndexError):
        s.deleted(0)
    with pytest.raises(IndexError):
        s.replaced(4, 1)
    with pytest.raises(TypeError):
        Spectrum((0.5,))
    # a bool is not a rational here, though Python counts it as an int
    with pytest.raises(TypeError, match="got bool True"):
        Spectrum([True, 2])
    with pytest.raises(ValueError, match="rational '1e5000' is too large"):
        Spectrum(["1e5000"])


def test_spectrum_json_roundtrip():
    s = Spectrum((1, 2, fr(-1, 2)))
    blob = s.to_json()
    assert blob == {"n": 3, "lambda": ["1", "2", "-1/2"]}
    assert Spectrum.from_json(blob) == s
    with pytest.raises(ValueError):
        Spectrum.from_json({"n": 2, "lambda": ["1"]})
    with pytest.raises(ValueError):
        Spectrum.from_json({"lambda": ["1"]})


def test_exact_report_json_shape():
    report = verify_identity("L34", (1, 0, -1), p=BranchParams(fr(1), fr(1, 2)))[0]
    assert report.to_json() == {
        "lemma": "L34",
        "lhs": "5/4",
        "rhs": "5/4",
        "equal": True,
    }
    assert isinstance(report, ExactReport)


def test_random_generators_are_deterministic_and_bounded():
    a = random_spectrum(Random(42), 5)
    b = random_spectrum(Random(42), 5)
    assert a == b
    low = random_spectrum(Random(7), 6, lower=fr(-1))
    assert all(v > -1 for v in low.values)
    mat = random_symmetric_matrix(Random(1), 4)
    assert mat == [list(row) for row in zip(*mat)]
    with pytest.raises(ArityError):
        random_spectrum(Random(0), 0)


def test_mismatch_error_is_not_raised_on_valid_input():
    # smoke: the self-check path stays silent across many random draws
    rng = Random(77)
    for _ in range(30):
        n = rng.randint(1, 6)
        s = random_spectrum(rng, n)
        mat = random_symmetric_matrix(rng, n)
        k = rng.randint(0, n)
        try:
            linear_coefficient_sigma(k, s, mat)
        except MismatchError as exc:  # pragma: no cover
            pytest.fail(f"routes disagreed: {exc}")
