"""The flat-phase (SLAG) residual of the transformed equation: the exact
ball-side split, its principal-minor weights, the symbolic windowed
residual, the linear-part identity and the small-radius scaling ladder.

Each route is checked against an independent one: the exact split against
the theta-free form E(A) O(H) - O(A) E(H) on the similarity matrix (with
sigma_k from Berkowitz's recursion, `char_sigmas`), the weights against
elementary symmetric sums, the symbolic residual against the exact split
at rational points, and the linear-part defect against Berkowitz's
recursion over dual numbers on the whole pencil.
"""

import hashlib
import math
import time
from fractions import Fraction
from random import Random
from unittest import mock

import numpy as np
import pytest

from kelvinasym import equations
from kelvinasym.equations import (
    ResidualBreakdown,
    WindowedResidual,
    linear_part_defect,
    residual_scaling_slopes,
    transformed_residual_exact,
)
from kelvinasym.exactalg import DimensionError, MultiPoly, RadPoly, _as_fraction
from kelvinasym.kelvin import identity_parts, jet_indeterminates
from kelvinasym.symfun import (
    _Dual,
    Spectrum,
    alternating_sums,
    char_sigmas,
    random_spectrum,
    sigma_all,
)
from test_exactalg import rad_evaluate, rad_laplacian


def symbolic_residual(P: MultiPoly, Q: MultiPoly, s, ceiling: int | None = None) -> RadPoly:
    """The exact normalized flat-phase residual of v = P + |y|^(n-2) Q in
    n = P.n_vars >= 3 variables (SLAG's weighted minor sum); for n = 3 that is

        lap(v) + |y| sum_{j<k} (lambda_j + lambda_k) det M_{jk}
               - |y|^4 (1 - sigma_2(A)) det M.

    P and Q are polynomials in the n ball variables with rational
    coefficients; the result is a radical polynomial in the same variables
    and every coefficient is exact; in even n it has no odd slot.

    With a weight ``ceiling`` W, the result is the residual's terms of
    weight at most W, where |y|^k y^e has weight k + |e| (the full
    residual's `RadPoly.truncate`): each size of minor is formed only
    through the weight it contributes to W, and terms above it are never
    formed.  None computes the whole residual.  This is one
    `WindowedResidual.add` of v and one `through`; a recursion that grows
    v keeps the `WindowedResidual` instead, so no window is formed twice."""
    n = P.n_vars
    vals = list(map(_as_fraction, s))
    if n < 3 or Q.n_vars != n or len(vals) != n:
        raise DimensionError(f"need P, Q and s of one size n >= 3, got {n}, {Q.n_vars}, {len(vals)}")
    residual = WindowedResidual(vals)
    residual.add(RadPoly(n, {0: P, n - 2: Q}))
    return residual.through(ceiling)


def fr(a, b=1):
    return Fraction(a, b)


# ── the theta-free SLAG form ─────────────────────────────────────────────


def slag_form(s, sig):
    """The theta-free SLAG form E(A) O(H) - O(A) E(H) against the model
    spectrum s, from sigma_0 .. sigma_n of H in any ring (Fractions or
    `_Dual` numbers), alternated here term by term: E = sigma_0 - sigma_2 +
    sigma_4 - ..., O = sigma_1 - sigma_3 + ...."""
    e_a, o_a = alternating_sums(s)
    e_h = o_h = 0 * sig[0]
    for k, value in enumerate(sig):
        term = value if k % 4 < 2 else value * -1
        if k % 2:
            o_h = o_h + term
        else:
            e_h = e_h + term
    return e_a * o_h - o_a * e_h


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_the_flat_gamma_is_the_squared_modulus_of_the_model_determinant(n):
    # |det(I + i A)|^2 = E(A)^2 + O(A)^2, transformed_residual_exact's
    # linear_factor prod(1 + lambda^2), and the gamma that makes
    # linear_part_defect vanish
    rnd = Random(89 + n)
    for _ in range(5):
        s = random_spectrum(rnd, n)
        e_a, o_a = alternating_sums(s)
        y = [fr(3, 5), fr(4, 5)] + [fr(0)] * (n - 2)
        hess = [[fr(int(i == j)) for j in range(n)] for i in range(n)]
        split = transformed_residual_exact(y, fr(1), [fr(0)] * n, hess, s)
        assert split.linear_factor == e_a * e_a + o_a * o_a
        if n == 3:
            assert linear_part_defect(s).is_zero


# ── transformed residual: the exact split ───────────────────────────────


def test_zero_profile_gives_zero_residual():
    zero = [fr(0)] * 3
    out = transformed_residual_exact([fr(3, 25), fr(4, 25), fr(0)], fr(0), zero, [zero] * 3, [fr(3, 10), fr(-1, 5), fr(1, 2)])
    assert out.total == out.laplace_term == out.nonlinear_term == 0


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


def rational_unit_vector(rnd: Random, n: int = 3) -> list:
    """A rational point of the unit sphere in n variables, the inverse
    stereographic image of a random rational point p of R^(n-1)."""
    p = [fr(rnd.randint(-3, 3), rnd.randint(1, 3)) for _ in range(n - 1)]
    psq = sum(c * c for c in p)
    d = psq + 1
    return [*(2 * c / d for c in p), (psq - 1) / d]


def similarity_route_total(y, value, grad, hess, vals, norm):
    """The exact normalized residual the long way: the theta-free form
    (`slag_form`, sigma_k by `char_sigmas`) on the similarity image
    diag(lambda) + |y|^n M R^2 (R^2 = diag(1 + lambda^2)), divided by
    gamma |y|^(n+2)."""
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
    raw = slag_form(vals, char_sigmas(similar, fr(1)))
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
        assert got.laplace_term == sum(hess[i][i] for i in range(n))
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


def _jet_in(n: int):
    """A rational 2-jet at y = (1/5, 0, ..., 0) and a rational spectrum in
    n variables, as the exact route takes them."""
    y = [fr(1, 5)] + [fr(0)] * (n - 1)
    spectrum = [fr(k + 1, 2) for k in range(n)]
    grad = [fr(1, k + 2) for k in range(n)]
    hess = [[fr(1 + min(i, j), 2 + max(i, j)) for j in range(n)] for i in range(n)]
    return y, fr(1), grad, hess, spectrum


def test_exact_route_takes_the_largest_dimension():
    y, value, grad, hess, spectrum = _jet_in(equations.MAX_RESIDUAL_DIMENSION)
    split = transformed_residual_exact(y, value, grad, hess, spectrum)
    assert split.nonlinear_term != 0
    assert split.total == similarity_route_total(y, value, grad, hess, spectrum, y[0])


def test_exact_route_refuses_a_dimension_above_the_cap():
    # one more dimension would cost about three times as much, and nothing
    # else bounds n: the refusal comes before any minor or weight is formed
    n = equations.MAX_RESIDUAL_DIMENSION + 1
    start = time.perf_counter()
    with pytest.raises(ValueError, match=rf"takes n <= {n - 1}, got n = {n}$"):
        transformed_residual_exact(*_jet_in(n))
    assert time.perf_counter() - start < 0.5


def test_exact_route_refuses_a_spectrum_of_another_size():
    y, value, grad, hess, spectrum = _jet_in(3)
    with pytest.raises(ValueError, match="spectrum size must match the point dimension"):
        transformed_residual_exact(y, value, grad, hess, spectrum[:2])


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_split_is_the_laplacian_plus_the_remainder(n):
    # total = lap(v) + remainder with no rounding, lap(v) = trace(hess) and
    # gamma = prod(1 + lambda^2), at rational points off the axes
    rnd = Random(101 + n)
    for _ in range(4):
        spec, value, grad, hess = random_rational_jet(rnd, n)
        t = fr(rnd.randint(1, 9), 10)
        y = [t * c for c in rational_unit_vector(rnd, n)]
        split = transformed_residual_exact(y, value, grad, hess, spec)
        assert all(type(part) is Fraction for part in split)
        assert split.total == split.laplace_term + split.nonlinear_term
        assert split.laplace_term == sum(hess[i][i] for i in range(n))
        assert split.linear_factor == math.prod(1 + v * v for v in spec.values)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_exact_split_matches_the_phase_difference_oracle(n):
    # the theta-free form is |P(A)| |P(H)| sin(phase(H) - phase(A)), the
    # phase being the sum of arctan over the eigenvalues: H = A +
    # |y|^n R M R is formed in floats here, and numpy takes its eigenvalues
    rnd = Random(107 + n)
    for _ in range(4):
        spec, value, grad, hess = random_rational_jet(rnd, n)
        t = fr(rnd.randint(2, 5), 10)
        y = [t * c for c in rational_unit_vector(rnd, n)]
        lam = [float(v) for v in spec.values]
        yf, tf = np.array([float(c) for c in y]), float(t)
        K, L = identity_parts(yf.tolist(), float(value), [float(g) for g in grad], [[float(h) for h in row] for row in hess], tf * tf)
        M = np.array(K) + L / (tf * tf) * np.outer(yf, yf)
        r = np.sqrt([1.0 + v * v for v in lam])
        mu = np.linalg.eigvalsh(np.diag(lam) + tf**n * (r[:, None] * M * r[None, :]))
        magnitude = math.prod(math.hypot(1.0, v) for v in [*lam, *mu])
        phase = sum(math.atan(m) for m in mu) - sum(math.atan(v) for v in lam)
        scale = math.prod(1.0 + v * v for v in lam) * tf ** (n + 2)
        got = float(transformed_residual_exact(y, value, grad, hess, spec).total)
        assert abs(got - magnitude * math.sin(phase) / scale) <= 1e-9 * max(1.0, magnitude / scale)


@pytest.mark.parametrize("n", [3, 5])
def test_exact_remainder_equals_the_similarity_route_at_small_radii(n):
    # the remainder comes from the minors of size >= 2; the similarity
    # route gives it as total - lap(v), which in the rationals loses
    # nothing, so the two agree exactly down to |y| = 1e-7
    spec, value, grad, hess = random_rational_jet(Random(83 + n), n)
    unit = [Fraction(c) for c in equations._UNIT_VECTORS[n]]
    for k in range(1, 8):
        t = fr(1, 10**k)
        y = [t * u for u in unit]
        split = transformed_residual_exact(y, value, grad, hess, spec)
        want = similarity_route_total(y, value, grad, hess, list(spec.values), t) - split.laplace_term
        assert split.nonlinear_term != 0 and split.nonlinear_term == want, k


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_constant_profile_residual_at_the_flat_spectrum(n):
    # v = c gives M = c (n - 2) (n yhat yhat^T - I), with eigenvalue
    # c (n - 2)(n - 1) once and -c (n - 2) n - 1 times; at lambda = 0 the
    # weights are W_S = Im i^|S|, so the residual is the sum over k >= 2 of
    # Im(i^k) sigma_k(M) |y|^(n(k-1)-2); for n = 3, c = 1 that is -2 |y|^4
    c = fr(3, 2)
    sig = sigma_all([c * (n - 2) * (n - 1)] + [-c * (n - 2)] * (n - 1))
    unit = rational_unit_vector(Random(109 + n), n)
    zero = [fr(0)] * n
    for t in (fr(1, 2), fr(1, 5), fr(3, 10)):
        split = transformed_residual_exact([t * u for u in unit], c, zero, [zero] * n, zero)
        want = sum((-1) ** (k // 2) * sig[k] * t ** (n * (k - 1) - 2) for k in range(3, n + 1, 2))
        assert split.laplace_term == 0 and split.linear_factor == 1
        assert split.nonlinear_term == split.total == want != 0


@pytest.mark.parametrize("n", [3, 4, 5])
def test_exact_route_is_invariant_under_a_common_relabelling(n):
    # relabelling the coordinates of y, of the jet and of the spectrum
    # together conjugates A and M by one permutation, which keeps both phases
    rnd = Random(127 + n)
    spec, value, grad, hess = random_rational_jet(rnd, n)
    y = [fr(1, 3) * c for c in rational_unit_vector(rnd, n)]
    want = transformed_residual_exact(y, value, grad, hess, spec)
    assert want.nonlinear_term != 0
    for perm in (list(range(n))[::-1], [*range(1, n), 0]):
        got = transformed_residual_exact(
            [y[p] for p in perm],
            value,
            [grad[p] for p in perm],
            [[hess[p][q] for q in perm] for p in perm],
            [spec.values[p] for p in perm],
        )
        assert got == want


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_exact_remainder_has_no_linear_part_in_the_profile(n):
    # M is linear in the jet, so scaling the jet by e scales lap(v) by e and
    # a size-k minor by e^k: the remainder is e^2 times a polynomial of
    # degree n - 2 in e, whose (n-1)-st difference over e = 1..n vanishes;
    # a term linear in e would leave a multiple of the differences of 1/e
    rnd = Random(131 + n)
    spec, value, grad, hess = random_rational_jet(rnd, n)
    y = [fr(2, 5) * c for c in rational_unit_vector(rnd, n)]
    base = transformed_residual_exact(y, value, grad, hess, spec)
    assert base.nonlinear_term != 0
    quotients = []
    for e in range(1, n + 1):
        split = transformed_residual_exact(y, e * value, [e * g for g in grad], [[e * h for h in row] for row in hess], spec)
        assert split.laplace_term == e * base.laplace_term
        quotients.append(split.nonlinear_term / e**2)
    for _ in range(n - 1):
        quotients = [b - a for a, b in zip(quotients, quotients[1:])]
    assert quotients == [0]


def test_flat_weights_are_imaginary_parts_of_root_products():
    # W_S = Im prod_{l in S} (lambda_l + i) = sum_j (-1)^j sigma_(|S|-1-2j)
    # of lambda_S, exactly, on rational spectra
    rnd = Random(79)
    for _ in range(40):
        vals = list(random_spectrum(rnd, rnd.randint(2, 5)).values)
        weights = equations._flat_minor_weights(tuple(vals))
        assert [len(group) for group in weights] == [0, *(math.comb(len(vals), k) for k in range(1, len(vals) + 1))]
        for group in weights:
            for S, w in group.items():
                sig = sigma_all([vals[l] for l in S])
                want = sum((-1) ** j * sig[len(S) - 1 - 2 * j] for j in range(len(S) // 2 + len(S) % 2))
                product = complex(1)
                for l in S:
                    product *= complex(vals[l], 1)
                assert type(w) is Fraction and w == want
                assert math.isclose(float(w), product.imag, rel_tol=1e-12, abs_tol=1e-12)


def test_single_index_weights_are_one():
    rnd = Random(73)
    for n in range(2, 7):
        weights = equations._flat_minor_weights(tuple(random_spectrum(rnd, n).values))
        assert weights[0] == {} and weights[1] == {(l,): 1 for l in range(n)}


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flat_weights_follow_a_relabelling_of_the_spectrum(n):
    # W_S depends on the eigenvalues that S indexes alone: with the spectrum
    # relabelled as lambda'_l = lambda_p(l), W'_S = W_p(S)
    vals = tuple(random_spectrum(Random(113 + n), n).values)
    base = equations._flat_minor_weights(vals)
    for perm in (list(range(n))[::-1], [*range(1, n), 0]):
        moved = equations._flat_minor_weights(tuple(vals[p] for p in perm))
        for size in range(1, n + 1):
            for S, w in moved[size].items():
                assert w == base[size][tuple(sorted(perm[l] for l in S))]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_flat_weights_of_a_constant_spectrum_are_binomial_sums(n):
    # at lambda_l = c for every l, W_S = Im (c + i)^k for |S| = k, which the
    # binomial theorem gives as the sum over odd j of
    # C(k, j) c^(k-j) (-1)^((j-1)/2)
    for c in (fr(0), fr(1), fr(-2, 3), fr(5, 2)):
        weights = equations._flat_minor_weights((c,) * n)
        for k in range(1, n + 1):
            want = sum(math.comb(k, j) * c ** (k - j) * (-1) ** (j // 2) for j in range(1, k + 1, 2))
            assert set(weights[k].values()) == {want}


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


def radical_jet(P: MultiPoly, Q: MultiPoly, y: list) -> tuple:
    """The exact 2-jet (value, grad, hess) of v = P + |y|^(n-2) Q in
    n = P.n_vars variables at a rational point y whose norm is rational."""
    n = P.n_vars
    v = RadPoly(n, {0: P, n - 2: Q})
    grad = [v.partial(i) for i in range(n)]
    return (
        rad_evaluate(v, y),
        [rad_evaluate(g, y) for g in grad],
        [[rad_evaluate(g.partial(j), y) for j in range(n)] for g in grad],
    )


def test_symbolic_equals_the_exact_split_at_50_configurations():
    # the symbolic residual read at a rational point t u, |u| = 1, is the
    # exact split of the jet of v there
    rnd = Random(43)
    for _ in range(50):
        P = random_poly(rnd)
        Q = random_poly(rnd)
        s = random_spectrum(rnd, 3, max_numerator=3, max_denominator=4)
        t = fr(rnd.randint(5, 17), 20)
        y = [t * c for c in rational_unit_vector(rnd)]
        want = transformed_residual_exact(y, *radical_jet(P, Q, y), s).total
        assert rad_evaluate(symbolic_residual(P, Q, s), y) == want


@pytest.mark.parametrize("n", [3, 4, 5])
def test_windowed_residual_equals_the_exact_split_in_n(n):
    # the whole symbolic residual of v = P + |y|^(n-2) Q read at rational
    # points t u on the ladder's unit vector is the exact split of v's jet
    y = [MultiPoly.variable(n, i) for i in range(n)]
    P = MultiPoly.const(n, fr(3, 2)) + fr(1, 2) * y[0] * y[1] + y[n - 1] ** 2 * y[0]
    Q = fr(2, 3) * y[0] * y[1] * y[2]
    s = random_spectrum(Random(139 + n), n, max_numerator=3, max_denominator=4)
    whole = symbolic_residual(P, Q, s)
    unit = [Fraction(c) for c in equations._UNIT_VECTORS[n]]
    for t in (fr(1, 2), fr(1, 3), fr(2, 7)):
        point = [t * c for c in unit]
        want = transformed_residual_exact(point, *radical_jet(P, Q, point), s).total
        assert rad_evaluate(whole, point) == want


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
    lap = rad_laplacian(RadPoly(3, {0: P, 1: Q}))
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
    # included, and the theta-free form alternated term by term
    # (`slag_form`): the oracle for linear_part_defect's diagonal route (L31)
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
    linear = slag_form(vals, char_sigmas(pencil, _Dual(Fraction(1), zero))).b
    trace_h = sum((hvar[i][i] for i in range(n)), zero)
    return linear - math.prod(rho, start=Fraction(1)) * (ysq * ysq * trace_h)


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


@pytest.mark.parametrize("n", [2, 4, 5, 6, 7])
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


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_scaling_ladder_step_slopes_close_in_on_n_minus_2(n, seed):
    # the remainder is c t^(n-2) (1 + O(t)), so the slope of each halving
    # of t misses n - 2 by about half as much as the one before
    out = residual_scaling_slopes(n, seed=seed)
    logs = out["log2_remainder"]
    misses = [abs(a - b - (n - 2)) for a, b in zip(logs, logs[1:])]
    assert all(0.4 < later / earlier < 0.6 for earlier, later in zip(misses, misses[1:]))
    assert misses[-1] < 2e-3


def test_scaling_ladder_is_deterministic():
    assert residual_scaling_slopes(3, seed=5) == residual_scaling_slopes(3, seed=5)


def test_scaling_ladder_forms_the_minor_weights_once_per_spectrum():
    cached = equations._flat_minor_weights
    cached.cache_clear()
    asked = []

    def recording(vals):
        asked.append(vals)
        return cached(vals)

    with mock.patch.object(equations, "_flat_minor_weights", recording):
        first = residual_scaling_slopes(5, seed=0)
        assert residual_scaling_slopes(5, seed=0) == first
    assert cached.cache_info().misses == 1 and len(asked) == 16
    assert all(type(v) is Fraction for vals in asked for v in vals)


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
