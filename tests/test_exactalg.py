"""Exact polynomial layer: arithmetic laws, radical canonical form, and the
radial-weight Poisson solve checked against a harmonic-ladder oracle and a
dense Gaussian-elimination oracle."""

import itertools
import json
import math
import random
import time
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym import exactalg
from kelvinasym.exactalg import (
    DimensionError,
    MultiPoly,
    RadPoly,
    SolveError,
    harmonic_decomposition,
    solve_radical_poisson,
)


def fr(a, b=1):
    return Fraction(a, b)


def r_squared(n_vars):
    """|y|^2 = y_1^2 + ... + y_n^2 from its n monomials, apart from the
    integer (|y|^2)^j table of the Laplacian ladder."""
    return MultiPoly(n_vars, {tuple(2 * (k == i) for k in range(n_vars)): 1 for i in range(n_vars)})


coefs = st.fractions(min_value=-5, max_value=5, max_denominator=7)


def polys(n_vars, max_deg=3, max_terms=6):
    exps = st.tuples(*(st.integers(0, max_deg) for _ in range(n_vars)))
    return st.dictionaries(exps, coefs, max_size=max_terms).map(
        lambda t: MultiPoly(n_vars, t)
    )


def homogeneous(n_vars, degree, max_terms=6):
    def clip(t):
        kept = {e: c for e, c in t.items() if sum(e) == degree}
        return MultiPoly(n_vars, kept)

    exps = st.tuples(*(st.integers(0, degree) for _ in range(n_vars)))
    return st.dictionaries(exps, coefs, min_size=1, max_size=max_terms).map(clip)


# ── MultiPoly basics ─────────────────────────────────────────────────────


def test_constructor_normalizes():
    p = MultiPoly(2, {(1, 0): fr(1), (0, 1): fr(0)})
    assert p.terms == {(1, 0): fr(1)}
    q = MultiPoly(2, {(1, 0): fr(1)}) - MultiPoly(2, {(1, 0): fr(1)})
    assert q.is_zero and not q


def test_constructor_rejects_bad_exponents():
    with pytest.raises(DimensionError):
        MultiPoly(2, {(1, 0, 0): fr(1)})
    with pytest.raises(DimensionError):
        MultiPoly(2, {(-1, 0): fr(1)})
    with pytest.raises(DimensionError):
        MultiPoly(2, {}) + MultiPoly(3, {})
    # exponents are Python ints: a float one is named, never truncated
    with pytest.raises(DimensionError, match=r"bad exponent \(1\.5, 0, 0\) for 3 variables"):
        MultiPoly(3, {(1.5, 0, 0): 1})
    with pytest.raises(DimensionError, match=r"bad exponent \(True, 0\)"):
        MultiPoly(2, {(True, 0): 1})
    # two keys that name one exponent are refused, not summed
    with pytest.raises(DimensionError, match=r"exponent \(0, 1\) is given twice"):
        MultiPoly(2, {range(2): 1, (0, 1): 2})


def test_exact_scalar_rule():
    """`_as_fraction` is the package's one route to an exact scalar."""
    np = pytest.importorskip("numpy")
    as_fraction = exactalg._as_fraction
    assert as_fraction(fr(3, 2)) == fr(3, 2) and as_fraction(-4) == -4
    assert as_fraction("3/2") == fr(3, 2)
    # any other Rational enters through its numerator and denominator as ints
    got = as_fraction(np.int64(7))
    assert got == 7 and type(got) is Fraction and type(got.numerator) is int
    assert MultiPoly(2, {(1, 0): np.int64(3)}) == MultiPoly(2, {(1, 0): 3})
    assert MultiPoly.const(2, np.int64(-2)) == MultiPoly.const(2, -2)
    # text keeps parse_rational's caps
    with pytest.raises(ValueError, match="rational '1e5000' is too large"):
        as_fraction("1e5000")
    refused = [(0.1, "float 0.1"), (True, "bool True"), (None, "NoneType None"), (np.float64(0.5), "float64 .*0.5")]
    for bad, named in refused:
        with pytest.raises(TypeError, match=f"expected an exact rational, got {named}"):
            as_fraction(bad)
    with pytest.raises(TypeError, match="got bool True"):
        MultiPoly.const(2, True)
    with pytest.raises(TypeError, match="got float 0.5"):
        MultiPoly.variable(2, 0) * 0.5
    # the exact-or-float predicate agrees with the rule
    assert all(map(exactalg._is_rational, [fr(1, 3), 2, np.int64(2)]))
    assert not any(map(exactalg._is_rational, [True, 0.5, "1", None]))


def test_rational_square_root():
    sqrt = exactalg._rational_sqrt
    assert sqrt(fr(9, 4)) == fr(3, 2) and sqrt(fr(0)) == 0
    assert sqrt(fr(2)) is None and sqrt(fr(1, 2)) is None and sqrt(fr(4, 3)) is None


def test_float_sum_rule_folds_left_to_right():
    """`_sum` is the package's one float sum: plain additions in order, with
    no compensation, so its bits do not move with the interpreter (the
    builtin sum compensates floats from Python 3.12 on)."""
    fold, dot = exactalg._sum, exactalg._dot
    assert fold([1e16, 1.0, -1e16]) == 0.0
    assert dot([1e16, 1.0, -1e16], [1.0, 1.0, 1.0]) == 0.0
    # the start is 0.0, as the builtin's is, and not the first term
    assert math.copysign(1.0, fold([-0.0])) == 1.0
    assert math.copysign(1.0, fold([-0.0], -0.0)) == -1.0
    assert fold([]) == 0.0
    # any ring: the same fold adds exact polynomials from the caller's zero
    y = [MultiPoly.variable(2, i) for i in range(2)]
    assert fold((c * c for c in y), MultiPoly.zero(2)) == r_squared(2)


@given(p=polys(3), q=polys(3), s=polys(3, max_deg=2, max_terms=3))
@settings(max_examples=40, deadline=None)
def test_ring_laws(p, q, s):
    assert p + q == q + p
    assert (p + q) * s == p * s + q * s
    assert (p * q) * s == p * (q * s)
    assert p - p == MultiPoly.zero(3)


@given(p=polys(2, max_deg=4), k=st.integers(0, 3))
@settings(max_examples=20, deadline=None)
def test_power_matches_repeated_product(p, k):
    expected = MultiPoly.const(2, 1)
    for _ in range(k):
        expected = expected * p
    assert p**k == expected


@given(p=polys(3), q=polys(3), i=st.integers(0, 2))
@settings(max_examples=40, deadline=None)
def test_partial_product_rule(p, q, i):
    assert (p * q).partial(i) == p.partial(i) * q + p * q.partial(i)


@given(p=polys(3, max_deg=3, max_terms=4), q=polys(3, max_deg=3, max_terms=4))
@settings(max_examples=30, deadline=None)
def test_laplacian_product_rule(p, q):
    cross = MultiPoly.zero(3)
    for i in range(3):
        cross = cross + p.partial(i) * q.partial(i)
    assert (p * q).laplacian() == p.laplacian() * q + q.laplacian() * p + 2 * cross


def test_parse_rational_bounds_text_and_keeps_numbers_exact():
    parse = exactalg.parse_rational
    assert parse("3/2") == fr(3, 2)
    assert parse(" -0.25 ") == fr(-1, 4)
    assert parse("1e-3") == fr(1, 1000)
    assert parse("1E+1_000") == 10**1000
    assert parse("9" * 4000) == int("9" * 4000)
    assert parse(0.1) == Fraction(0.1)
    assert parse(7) == 7
    for bad in ("1e1001", "1e300000", "-1E-1_001", "1e0000000000000002000", "2" * 4001):
        with pytest.raises(ValueError, match=f"rational '{bad[:10]}.* is too large"):
            parse(bad)
    for bad, named in [(True, "True"), (float("nan"), "nan"), ("1/0", "1/0"), ([1], r"\[1\]")]:
        with pytest.raises(ValueError, match=f"not a rational number: .*{named}"):
            parse(bad)


def test_known_laplacians():
    y1 = MultiPoly.variable(3, 0)
    y2 = MultiPoly.variable(3, 1)
    assert (y1**2 * y2).laplacian() == 2 * y2
    assert r_squared(5).laplacian() == MultiPoly.const(5, 10)
    assert (y1 * y2).laplacian().is_zero
    assert (y1**2 - y2**2).laplacian().is_zero
    assert (y1**2).laplacian() == MultiPoly.const(3, 2)


def test_evaluate_exact_and_float():
    p = MultiPoly(2, {(2, 0): fr(3, 2), (0, 1): fr(-1)})
    assert p.evaluate([fr(1, 2), fr(1, 3)]) == fr(3, 2) * fr(1, 4) - fr(1, 3)
    v = p.evaluate([0.5, 0.25])
    assert isinstance(v, float) and abs(v - (1.5 * 0.25 - 0.25)) < 1e-15


def test_homogeneous_components():
    y1 = MultiPoly.variable(2, 0)
    y2 = MultiPoly.variable(2, 1)
    p = y1**3 + 2 * y1 * y2 + MultiPoly.const(2, 5)
    comps = p.homogeneous_components()
    assert sorted(comps) == [0, 2, 3]
    total = MultiPoly.zero(2)
    for d, c in comps.items():
        assert c.is_homogeneous(d)
        total = total + c
    assert total == p
    assert not p.is_homogeneous()
    assert comps[2].is_homogeneous()


def test_divide_r2_rejects_nondivisible():
    y1 = MultiPoly.variable(3, 0)
    y2 = MultiPoly.variable(3, 1)
    assert (y1**2 + y2**2).try_divide_r2() is None
    assert (y1**4).try_divide_r2() is None
    assert MultiPoly.const(3, 1).try_divide_r2() is None
    assert MultiPoly.zero(3).try_divide_r2() == MultiPoly.zero(3)


def _at_one_i(p):
    """p at (1, i, 0, ..., 0), exactly, as (real part, imaginary part)."""
    unit = [(1, 0), (0, 1), (-1, 0), (0, -1)]
    re = im = Fraction(0)
    for e, c in p.terms.items():
        if not any(e[2:]):
            re += c * unit[e[1] % 4][0]
            im += c * unit[e[1] % 4][1]
    return re, im


@given(n=st.integers(2, 4), data=st.data())
@settings(max_examples=60, deadline=None)
def test_divide_r2_roundtrip(n, data):
    # |y|^2 vanishes at (1, i, 0, ..., 0), so the quick reject keeps every
    # multiple
    p = data.draw(polys(n, max_deg=3, max_terms=5))
    multiple = p * r_squared(n)
    assert _at_one_i(multiple) == (0, 0)
    assert multiple.try_divide_r2() == p
    # any quotient is exact, and so only for a zero at (1, i, 0, ..., 0)
    q = data.draw(polys(n, max_deg=4, max_terms=6))
    got = q.try_divide_r2()
    if got is not None:
        assert got * r_squared(n) == q
        assert _at_one_i(q) == (0, 0)


@given(n=st.integers(3, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_divide_r2_undecided_cases_reach_the_long_division(n, data):
    # q |y|^2 + y_n^2 s vanishes at (1, i, 0, ..., 0) for every q and s, and
    # |y|^2 (irreducible for n >= 3) divides it exactly when it divides s
    r2 = r_squared(n)
    last = MultiPoly.variable(n, n - 1)
    q = data.draw(polys(n, max_deg=2, max_terms=4))
    s = data.draw(polys(n, max_deg=2, max_terms=4))
    mixed = q * r2 + last * last * s
    assert _at_one_i(mixed) == (0, 0)
    got = mixed.try_divide_r2()
    if s.try_divide_r2() is None:
        assert got is None
    else:
        assert got * r2 == mixed
    assert (last * last).try_divide_r2() is None


def test_poly_json_roundtrip_and_shape():
    p = MultiPoly(3, {(2, 0, 1): fr(3, 2)})
    blob = p.to_json()
    assert blob == {"n_vars": 3, "terms": [{"coef": "3/2", "exp": [2, 0, 1]}]}
    assert MultiPoly.from_json(blob) == p
    # byte-identical regardless of construction order
    q = MultiPoly(3, {(0, 0, 0): fr(1), (1, 1, 0): fr(-2, 3)})
    q2 = MultiPoly(3, {(1, 1, 0): fr(-2, 3), (0, 0, 0): fr(1)})
    assert json.dumps(q.to_json(), sort_keys=True) == json.dumps(q2.to_json(), sort_keys=True)
    with pytest.raises(ValueError):
        MultiPoly.from_json({"n_vars": 2})


# ── MultiPoly against a plain {exponent: Fraction} model ─────────────────
#
# Each operation is recomputed on dictionaries of Fractions, and every
# result is checked for the canonical stored form: a positive denominator
# sharing no factor with the nonzero integer numerators, and denominator 1
# for the zero polynomial.

wide_coefs = st.fractions(min_value=-6, max_value=6, max_denominator=12)
term_dicts = st.dictionaries(st.tuples(*(st.integers(0, 3) for _ in range(3))), wide_coefs, max_size=5)
scalars = st.one_of(st.integers(-6, 6), wide_coefs)


def _clean(terms):
    return {e: c for e, c in terms.items() if c}


def _model_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return _clean(out)


def _model_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            out[e] = out.get(e, 0) + c1 * c2
    return _clean(out)


def _model_scale(a, s):
    return _clean({e: c * s for e, c in a.items()})


def _model_pow(a, k):
    out = {(0, 0, 0): Fraction(1)}
    for _ in range(k):
        out = _model_mul(out, a)
    return out


def _model_partial(a, i):
    out = {}
    for e, c in a.items():
        if e[i]:
            out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
    return _clean(out)


def _model_laplacian(a):
    out = {}
    for i in range(3):
        for e, c in _model_partial(_model_partial(a, i), i).items():
            out[e] = out.get(e, 0) + c
    return _clean(out)


def _model_components(a):
    out = {}
    for e, c in a.items():
        out.setdefault(sum(e), {})[e] = c
    return dict(sorted(out.items()))


_MODEL_R2 = {(2, 0, 0): Fraction(1), (0, 2, 0): Fraction(1), (0, 0, 2): Fraction(1)}


def _model_divide_r2(a):
    """Quotient by |y|^2 by repeatedly cancelling a term of y1-degree >= 2."""
    rem, quot = dict(a), {}
    while any(e[0] >= 2 for e in rem):
        e = max(e for e in rem if e[0] >= 2)
        step = {(e[0] - 2,) + e[1:]: rem[e]}
        quot = _model_add(quot, step)
        rem = _model_add(rem, _model_mul(step, _MODEL_R2), sign=-1)
    return None if rem else quot


def _assert_canonical(p):
    assert type(p._den) is int and p._den > 0
    assert all(type(c) is int and c != 0 for c in p._num.values())
    assert math.gcd(p._den, *p._num.values()) == 1
    assert p._num or p._den == 1


@given(a=term_dicts, b=term_dicts, s=scalars, k=st.integers(0, 3), i=st.integers(0, 2))
@settings(max_examples=80, deadline=None)
def test_operations_match_fraction_dict_model(a, b, s, k, i):
    p, q = MultiPoly(3, a), MultiPoly(3, b)
    A, B = _clean(a), _clean(b)
    r2 = r_squared(3)
    results = [
        (p, A),
        (p + q, _model_add(A, B)),
        (p - q, _model_add(A, B, sign=-1)),
        (-p, _model_scale(A, -1)),
        (p * q, _model_mul(A, B)),
        (p * s, _model_scale(A, s)),
        (s * p, _model_scale(A, s)),
        (p**k, _model_pow(A, k)),
        (p.partial(i), _model_partial(A, i)),
        (p.laplacian(), _model_laplacian(A)),
        ((r2 * q).try_divide_r2(), B),
    ]
    comps = p.homogeneous_components()
    assert list(comps) == list(_model_components(A))
    results += [(comps[d], t) for d, t in _model_components(A).items()]
    quotient, want = p.try_divide_r2(), _model_divide_r2(A)
    assert (quotient is None) == (want is None)
    if quotient is not None:
        results.append((quotient, want))
    for got, want in results:
        _assert_canonical(got)
        assert got.terms == want
        assert got == MultiPoly(3, want)
    third = Fraction(1, 3)
    assert (p * q) * third == p * (q * third)
    assert (p + q) * s == p * s + q * s
    assert (p - q) + q == p


# ── evaluation: floats bit-identical to the Fraction sum, exact stays exact


def _fraction_sum(terms, point):
    """The value as a sum over terms, in order, of Fraction coef * prod x**k."""
    total = Fraction(0)
    for e, c in terms.items():
        term = c
        for x, k in zip(point, e):
            if k:
                term = term * x**k
        total = total + term
    return total


# large numerators and denominators make the rounding of each coefficient
# to a float visible
big_coefs = st.fractions(min_value=-(2**70), max_value=2**70, max_denominator=10**9)
big_term_dicts = st.dictionaries(
    st.tuples(*(st.integers(0, 3) for _ in range(3))), big_coefs, max_size=6
)
float_coords = st.one_of(st.floats(-2.0, -0.125), st.floats(0.125, 2.0))
float_points = st.lists(float_coords, min_size=3, max_size=3)


@given(a=big_term_dicts, pt=float_points)
@settings(max_examples=100, deadline=None)
def test_float_evaluation_equals_the_fraction_sum(a, pt):
    p = MultiPoly(3, a)
    got = p.evaluate(pt)
    assert isinstance(got, float)
    # a constant polynomial's Fraction sum is its coefficient; otherwise the
    # Fraction sum is already a float and float() leaves it unchanged
    assert got == float(_fraction_sum(p.terms, pt))


def _float_fold(p, point):
    """A literal left fold from 0.0, over the keys in storage order, of
    float(Fraction(c, den)) times x**k for each nonzero exponent k."""
    total = 0.0
    for e, c in p.terms.items():
        term = float(c)
        for x, k in zip(point, e):
            if k:
                term = term * x**k
        total = total + term
    return total


_FOLD_POLYS = [
    {},
    {(0, 0, 0): fr(-7, 3)},
    {(2, 0, 1): fr(1, 3), (0, 1, 0): fr(-5, 7), (0, 0, 0): fr(2, 9), (1, 1, 1): fr(10**20 + 1, 3)},
    {(0, 3, 0): fr(1, 10), (1, 0, 2): fr(-1, 3), (0, 0, 1): fr(6)},
]
_FOLD_POINTS = [[0.0, 0.0, 0.0], [-0.0, 1.5, -2.0], [-1.25, 0.0, 3.0], [0.1, -0.7, -1e-3]]


@pytest.mark.parametrize("terms", _FOLD_POLYS)
@pytest.mark.parametrize("point", _FOLD_POINTS)
def test_float_evaluator_is_a_left_fold_over_the_keys(terms, point):
    # bit for bit, the sign of a zero included: the zero polynomial and a
    # constant, at zero, negative and mixed coordinates
    p = MultiPoly(3, terms)
    want = _float_fold(p, point)
    at = p.float_evaluator()
    for got in (at(point), at(tuple(point)), p.evaluate(point)):
        assert type(got) is float
        assert got.hex() == want.hex()


@given(p=polys(3), pt=st.lists(st.floats(-3.0, 3.0), min_size=3, max_size=3))
@settings(max_examples=80, deadline=None)
def test_float_evaluator_matches_the_fold_on_random_polynomials(p, pt):
    assert p.float_evaluator()(pt).hex() == _float_fold(p, pt).hex()


@given(
    a=big_term_dicts,
    pt=st.lists(st.one_of(st.integers(-3, 3), st.fractions(-2, 2, max_denominator=9)), min_size=3, max_size=3),
)
@settings(max_examples=60, deadline=None)
def test_rational_evaluation_is_exact(a, pt):
    p = MultiPoly(3, a)
    got = p.evaluate(pt)
    assert isinstance(got, Fraction)
    assert got == _fraction_sum(p.terms, pt)


@given(
    slots=st.dictionaries(st.integers(-3, 3), big_term_dicts, max_size=3),
    pt=float_points,
)
@settings(max_examples=60, deadline=None)
def test_radpoly_float_evaluation_matches_the_input_slots(slots, pt):
    # the reference sums the slots as given, exactly at the float point but
    # for |y| itself, which is irrational in general; the normal form
    # rewrites y1^2 and sums other terms, so the bound is relative to the
    # sum of the magnitudes: |y1|^3 <= 3 |y|^2 |y1| costs at most a factor
    # 3 * 8 / (1/64) in these boxes
    e = RadPoly(3, {k: MultiPoly(3, t) for k, t in slots.items()})
    exact = [Fraction(x) for x in pt]
    r = math.sqrt(float(sum(x * x for x in exact)))
    want = scale = 0.0
    for k, t in slots.items():
        value = _fraction_sum(MultiPoly(3, t).terms, exact)
        size = _fraction_sum({e: abs(c) for e, c in MultiPoly(3, t).terms.items()}, list(map(abs, exact)))
        want += r**k * float(value)
        scale += r**k * float(size)
    got = e.evaluate(pt)
    assert isinstance(got, float)
    assert abs(got - want) <= 1e-11 * scale


# ── RadPoly canonical form ───────────────────────────────────────────────


def test_radpoly_promotes_whole_r2_factors():
    q = MultiPoly.variable(3, 0) + MultiPoly.const(3, 2)
    r2 = r_squared(3)
    assert RadPoly(3, {1: r2 * q}) == RadPoly(3, {3: q})
    assert RadPoly(3, {1: r2 * q}).terms == {(3, 1, 0, 0): 1, (3, 0, 0, 0): 2}


def test_radpoly_same_function_same_form():
    # two distinct slot layouts of one function must normalize identically
    y1 = MultiPoly.variable(3, 0)
    f4 = y1**4
    a = RadPoly(3, {-1: 4 * r_squared(3) + f4})
    b = RadPoly(3, {-1: f4, 1: MultiPoly.const(3, 4)})
    assert a == b
    assert a.terms == b.terms


def test_radpoly_collects_even_sector_to_polynomial():
    p0 = MultiPoly.variable(3, 0) ** 2
    p2 = MultiPoly.const(3, 3)
    r2 = r_squared(3)
    assert RadPoly(3, {0: p0, 2: p2}) == RadPoly.from_poly(p0 + r2 * p2)


def test_radpoly_term_access_and_zero():
    z = RadPoly.zero(4)
    assert z.is_zero and z.terms == {} and z.part(0, 0).is_zero
    e = RadPoly(3, {-1: MultiPoly.const(3, 1)})
    assert e.terms == {(-1, 0, 0, 0): 1}
    # the key read builds no coefficient and matches the terms' keys
    assert list(z.keys()) == [] and e.keys() == e.terms.keys()
    p = MultiPoly(2, {(1, 0): Fraction(1, 2), (0, 2): 3})
    assert p.keys() == p.terms.keys() == {(1, 0), (0, 2)}
    assert e.part(-1, -1) == MultiPoly.const(3, 1)
    # nothing at weight 1, and no term of the even parity at all
    assert e.part(-1, 1).is_zero and e.part(0, -1).is_zero
    for i in (-1, 3):
        with pytest.raises(DimensionError, match=f"variable index {i} out of range for 3"):
            e.partial(i)


@given(p=homogeneous(3, 3, max_terms=4), q=homogeneous(3, 2, max_terms=4))
@settings(max_examples=25, deadline=None)
def test_radpoly_product_matches_slot_sum(p, q):
    a = RadPoly(3, {-1: p})
    b = RadPoly(3, {2: q})
    assert a * b == RadPoly(3, {1: p * q})


def _components_through(e: RadPoly, ceiling: int) -> RadPoly:
    """The homogeneous components of e of degree <= ceiling, read off each
    parity's `part` at the least power of that parity."""
    out = RadPoly.zero(e.n_vars)
    for parity in (0, 1):
        keys = [key for key in e.terms if key[0] % 2 == parity]
        if not keys:
            continue
        base = min(key[0] for key in keys)
        for w in {sum(key) for key in keys if sum(key) <= ceiling}:
            out = out + RadPoly(e.n_vars, {base: e.part(base, w)})
    return out


@given(
    a=st.dictionaries(st.integers(-3, 3), polys(3, max_deg=2, max_terms=4), max_size=3),
    b=st.dictionaries(st.integers(-3, 3), polys(3, max_deg=2, max_terms=4), max_size=3),
    ceiling=st.integers(-8, 12),
    floor=st.integers(-8, 12),
)
@settings(max_examples=60, deadline=None)
def test_radpoly_product_under_a_ceiling_keeps_the_components_through_it(a, b, ceiling, floor):
    # weight k + |e| of |y|^k y^e is the homogeneous degree, so a ceiling
    # cuts whole components whatever slot layout the canonical form picks,
    # and a floor too: the window [floor, ceiling] is empty when they cross
    x, y = RadPoly(3, a), RadPoly(3, b)
    full = x * y
    assert x.mul(y) == full
    assert x.mul(y, ceiling) == _components_through(full, ceiling)
    assert full.truncate(ceiling) == _components_through(full, ceiling)
    below = _components_through(full, floor - 1)
    assert x.mul(y, None, floor) == full - below
    window = _components_through(full, ceiling) - _components_through(full, min(ceiling, floor - 1))
    assert x.mul(y, ceiling, floor) == window


def test_radpoly_ceiling_skips_pairs_before_multiplying():
    # a pair of terms whose weights sum past the ceiling is never formed:
    # count the key additions, four per pair in three variables (|y|^K and
    # three exponents).  |y| y1^6 = |y| (|y|^2 - y2^2 - y3^2)^3 is 10 terms
    # of weight 7, and 2 one term of weight 0.
    calls = []

    def add(a, b):
        calls.append(1)
        return a + b

    high = RadPoly(3, {1: MultiPoly.variable(3, 0) ** 6})
    low = RadPoly(3, {0: MultiPoly.const(3, 2)})
    with mock.patch.object(exactalg, "operator", mock.Mock(add=add)):
        assert high.mul(high, 13).is_zero
        assert not calls
        got = (high + low).mul(high + low, 7)
    assert got == (high + low) * (high + low) - high * high
    # low x low, low x high and high x low: 1 + 10 + 10 pairs, none of the
    # 100 high x high pairs
    assert len(calls) == 4 * (1 + 10 + 10)


@given(p=polys(3, max_deg=2, max_terms=4))
@settings(max_examples=25, deadline=None)
def test_radpoly_partial_matches_polynomial_route(p):
    # |y|^2 p is an ordinary polynomial, so the two derivative routes must agree
    r2 = r_squared(3)
    via_rad = RadPoly(3, {2: p}).partial(1)
    via_poly = RadPoly.from_poly((r2 * p).partial(1))
    assert via_rad == via_poly


@given(p=polys(3, max_deg=2, max_terms=4))
@settings(max_examples=25, deadline=None)
def test_radpoly_laplacian_matches_polynomial_route(p):
    r2 = r_squared(3)
    via_rad = RadPoly(3, {4: p}).laplacian()
    via_poly = RadPoly.from_poly((r2 * r2 * p).laplacian())
    assert via_rad == via_poly


@given(p=homogeneous(4, 3, max_terms=5), k=st.integers(-3, 3))
@settings(max_examples=30, deadline=None)
def test_radpoly_laplacian_homogeneous_constant(p, k):
    # lap(|y|^k p_m) = |y|^(k-2) k (k + 2m + n - 2) p_m + |y|^k lap p_m
    n, m = 4, 3
    got = RadPoly(4, {k: p}).laplacian()
    want = RadPoly(4, {k - 2: k * (k + 2 * m + n - 2) * p}) + RadPoly(4, {k: p.laplacian()})
    assert got == want


def test_part_odd():
    one = MultiPoly.const(3, 1)
    s = MultiPoly.variable(3, 2)
    e = RadPoly(3, {-1: one, 0: s * s, 1: s})
    assert e.part(-1, -1) == one
    assert e.part(-1, 2) == r_squared(3) * s
    assert e.part(-1, 0).is_zero
    assert RadPoly.zero(3).part(-1, 2) == MultiPoly.zero(3)
    # an even base takes the even parity
    assert e.part(0, 2) == s * s
    assert e.part(0, -1).is_zero
    with pytest.raises(SolveError, match=r"a term sits at \|y\|\^-3, below the requested base -1"):
        RadPoly(3, {-3: one}).part(-1, -3)
    # any term of the parity below the base is refused, whatever its weight
    with pytest.raises(SolveError):
        RadPoly(3, {-3: one, 1: s}).part(-1, 2)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_part_takes_the_terms_of_the_base_parity(n):
    one = MultiPoly.const(n, 1)
    y1 = MultiPoly.variable(n, 0)
    r2 = r_squared(n)
    e = RadPoly(n, {2: y1, 3: one, -2: one})
    assert {key[0] % 2 for key in e.terms} == {0, 1}
    assert e.part(-2, -2) == one
    assert e.part(-2, 3) == r2 * r2 * y1
    assert e.part(-4, -2) == r2
    assert e.part(1, 3) == r2
    assert e.part(3, 3) == one
    # the parts, one per parity and weight, rebuild the radical polynomial
    assert RadPoly(n, {-4: e.part(-4, -2) + e.part(-4, 3), 1: e.part(1, 3)}) == e
    for base in (0, 5):
        with pytest.raises(SolveError):
            e.part(base, 3)


def test_radpoly_evaluate():
    one = MultiPoly.const(3, 1)
    inv_r = RadPoly(3, {-1: one})
    assert abs(inv_r.evaluate([3.0, 4.0, 0.0]) - 0.2) < 1e-15
    even = RadPoly(3, {-2: MultiPoly.variable(3, 0) ** 2})
    assert even.evaluate([fr(1, 2), fr(1, 2), 0]) == fr(1, 2)
    assert RadPoly.zero(3).evaluate([1, 2, 3]) == 0
    assert type(RadPoly.zero(3).evaluate([0.5, 0.0, 0.0])) is float
    # an odd power stays exact where |y| is rational, and is a float elsewhere
    assert inv_r.evaluate([fr(3, 5), fr(4, 5), 0]) == 1
    assert inv_r.evaluate([1, 1, 0]) == 1 / math.sqrt(2)
    # with no odd power the value is exact even where |y| is irrational
    got = even.evaluate([1, 1, 0])
    assert type(got) is Fraction and got == fr(1, 2)
    # y1^2 y2 / |y| in normal form is |y| y2 - (y2^3 + y2 y3^2) / |y|:
    # exact at (3/5, 4/5, 0), where the slot as given reads 36/125
    odd = RadPoly(3, {-1: MultiPoly.variable(3, 0) ** 2 * MultiPoly.variable(3, 1)})
    got = odd.evaluate([fr(3, 5), fr(4, 5), 0])
    assert type(got) is Fraction and got == fr(36, 125)


def test_radpoly_refuses_a_slot_power_that_is_not_an_integer():
    one = MultiPoly.const(3, 1)
    with pytest.raises(DimensionError, match="slot power 1.5 is not an integer"):
        RadPoly(3, {1.5: one})
    with pytest.raises(DimensionError, match="slot power '1' is not an integer"):
        RadPoly(3, {"1": one})


def test_radpoly_canonical_form_is_idempotent_and_derivation_invariant():
    y1 = MultiPoly.variable(3, 0)
    f4 = y1**4
    a = RadPoly(3, {-1: 4 * r_squared(3) + f4})
    b = RadPoly(3, {-1: f4, 1: MultiPoly.const(3, 4)})
    # the normal form read back through `terms` builds itself again
    by_power = {}
    for key, c in a.terms.items():
        by_power.setdefault(key[0], {})[key[1:]] = c
    again = RadPoly(3, {k: MultiPoly(3, t) for k, t in by_power.items()})
    assert again == a and again.terms == a.terms
    # the Laplacian cannot see the slot layout, only the function
    assert a.laplacian() == b.laplacian()
    assert a.partial(2) == b.partial(2)


@given(
    slots=st.dictionaries(st.integers(-3, 3), polys(3, max_deg=3, max_terms=4), max_size=3),
    c=st.fractions(-3, 3, max_denominator=5),
)
@settings(max_examples=40, deadline=None)
def test_radpoly_negation_and_constant_products_stay_canonical(slots, c):
    # these results skip re-canonicalization; each must equal the form that
    # the validating constructor builds from the same slots
    e = RadPoly(3, slots)
    assert -e == RadPoly(3, {k: -p for k, p in slots.items()})
    want = RadPoly(3, {k: c * p for k, p in slots.items()})
    assert e * c == c * e == e * MultiPoly.const(3, c) == want
    assert (e * 0).terms == {}
    y1 = MultiPoly.variable(3, 0)
    assert e * y1 == RadPoly(3, {k: p * y1 for k, p in slots.items()})


# rational unit vectors: a^2 + b^2 + c^2 = d^2
_PYTHAGOREAN = [(1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (2, 6, 9, 11), (3, 4, 0, 5)]


@given(
    slots=st.dictionaries(st.integers(-4, 4), polys(3, max_deg=4, max_terms=4), max_size=4),
    unit=st.sampled_from(_PYTHAGOREAN),
    signs=st.tuples(*(st.sampled_from([1, -1]) for _ in range(3))),
    t=st.fractions(min_value=fr(1, 4), max_value=3, max_denominator=5),
)
@settings(max_examples=60, deadline=None)
def test_radpoly_parts_are_faithful_and_values_exact(slots, unit, signs, t):
    # whatever slots go in, the normal form keeps y1 to at most the first
    # power, each parity's parts over its weights rebuild the same RadPoly,
    # and at a rational |y| the value is that of the slots as given
    e = RadPoly(3, slots)
    assert all(key[1] <= 1 for key in e.terms)
    total = RadPoly.zero(3)
    for parity in (0, 1):
        keys = [key for key in e.terms if key[0] % 2 == parity]
        least = min((key[0] for key in keys), default=parity)
        # at the least power of the parity, and one |y|^2 below it
        for base in (least, least - 2):
            rebuilt = RadPoly.zero(3)
            for w in {sum(key) for key in keys}:
                part = e.part(base, w)
                assert part.is_homogeneous(w - base)
                rebuilt = rebuilt + RadPoly(3, {base: part})
            assert rebuilt == RadPoly(3, {k: p for k, p in slots.items() if k % 2 == parity})
        total = total + rebuilt
    assert total == e
    *axes, d = unit
    point = [t * s * a / d for s, a in zip(signs, axes)]  # |point| = t
    want = sum((t**k * p.evaluate(point) for k, p in slots.items()), Fraction(0))
    got = e.evaluate(point)
    assert isinstance(got, Fraction) and got == want


def test_radpoly_refuses_a_rewrite_past_its_cap_at_once():
    # y1^200 in 13 variables would rewrite into C(112, 12) = 4.4e15 terms
    big = MultiPoly.variable(13, 0) ** 200
    start = time.perf_counter()
    for build in (lambda: RadPoly(13, {0: big}), lambda: RadPoly.from_poly(big, 3)):
        with pytest.raises(
            ValueError,
            match=r"rewriting y1\^200 modulo \|y\|\^2 in n = 13 variables may build "
            r"6183666559947458400 exponent entries, more than 5000000",
        ):
            build()
    assert time.perf_counter() - start < 1.0
    # the bound is n C(q + n - 1, n) keys of n + 1 entries for each term of
    # y1^(2q) or y1^(2q+1): y1^2 costs n (n + 1), and y1 or y2 nothing
    y = [MultiPoly.variable(4, i) for i in range(4)]
    with mock.patch.object(exactalg, "_MAX_REWRITE_ENTRIES", 20):
        assert len(RadPoly.from_poly(y[0] ** 3 * y[1])._num) == 4
        assert len(RadPoly.from_poly(y[0] * y[1] + y[2] * y[3] + y[1] ** 9)._num) == 3
        with pytest.raises(ValueError, match=r"y1\^3 .* n = 4 variables may build 40 exponent entries"):
            RadPoly.from_poly(y[0] ** 2 + y[0] ** 3)
        with pytest.raises(ValueError, match=r"y1\^4 .* n = 4 variables may build 100 exponent entries"):
            RadPoly.from_poly(y[0] ** 4)


def test_radpoly_part_refuses_past_the_cap_before_building():
    # the term at |y|^6400 spreads over (|y|^2)^3200, C(3202, 2) = 5,124,801
    # monomials in 3 variables
    one = MultiPoly.const(3, 1)
    wide = RadPoly(3, {0: one, 6400: one})
    assert len(wide._num) == 2
    start = time.perf_counter()
    with pytest.raises(
        ValueError,
        match=r"the weight-6400 part at \|y\|\^0 would write 5124801 monomial entries, more than 5000000",
    ):
        wide.part(0, 6400)
    assert time.perf_counter() - start < 1.0
    # only the terms of the weight asked for are written, and evaluation
    # expands nothing
    assert wide.part(0, 0) == one
    assert wide.evaluate([fr(3, 5), fr(4, 5), 0]) == 2
    assert wide.evaluate([0.1, 0.2, 0.3]) == 1.0
    assert time.perf_counter() - start < 1.0
    # C(j + n - 1, j) monomials for a term j steps of |y|^2 above the base;
    # each weight is bounded on its own
    y1 = MultiPoly.variable(3, 0)
    assert (wide + RadPoly(3, {1: y1})).part(1, 2) == y1
    small = RadPoly(3, {0: one, 4: y1})
    with mock.patch.object(exactalg, "_MAX_REWRITE_ENTRIES", 6):
        assert small.part(0, 5) == r_squared(3) ** 2 * y1
    with mock.patch.object(exactalg, "_MAX_REWRITE_ENTRIES", 5):
        assert small.part(0, 0) == one
        with pytest.raises(ValueError, match="would write 6 monomial entries, more than 5"):
            small.part(0, 5)


def test_radpoly_repr_reads_the_normal_form_term_by_term():
    # no term is expanded: the repr names the two terms of the normal form
    one = MultiPoly.const(3, 1)
    assert repr(RadPoly(3, {0: one, 6400: one})) == "1*|y|^0 + 1*|y|^6400"
    y1, y3 = MultiPoly.variable(3, 0), MultiPoly.variable(3, 2)
    assert repr(RadPoly(3, {1: y1 * fr(-1, 2) + y3})) == "1*|y|^1*y3 + -1/2*|y|^1*y1"
    assert repr(RadPoly.zero(3)) == "0"


def test_radical_weight_half_pinned():
    # lap(|y| * 1/2) = |y|^(-1) in three variables
    got = RadPoly(3, {1: MultiPoly.const(3, fr(1, 2))}).laplacian()
    assert got == RadPoly(3, {-1: MultiPoly.const(3, 1)})


def test_quadratic_correction_weight_identity():
    # lap(|y| Q2) = |y|^(-1) Q2bar with Q2 = s1 r^2 / 3 + sum(li yi^2) / 2
    # and Q2bar = 5 s1 r^2 + 3 sum(li yi^2), pinned at (1, 2, -1/2)
    lam = [fr(1), fr(2), fr(-1, 2)]
    s1 = sum(lam)
    r2 = r_squared(3)
    weighted = MultiPoly.zero(3)
    for i, li in enumerate(lam):
        weighted = weighted + li * MultiPoly.variable(3, i) ** 2
    q2 = fr(1, 3) * s1 * r2 + fr(1, 2) * weighted
    q2bar = 5 * s1 * r2 + 3 * weighted
    assert RadPoly(3, {1: q2}).laplacian() == RadPoly(3, {-1: q2bar})


def test_radpoly_laplacian_matches_central_differences():
    rng = random.Random(7)
    step = 1e-4
    for trial in range(20):
        slots = {}
        for k in rng.sample([-2, -1, 0, 1, 2, 3], k=2):
            terms = {}
            for e in _random_exponents(rng, 3, rng.randint(0, 3), 3):
                terms[e] = fr(rng.randint(-4, 4), rng.randint(1, 5))
            if terms:
                slots[k] = MultiPoly(3, terms)
        e = RadPoly(3, slots)
        lap = e.laplacian()
        for _ in range(5):
            direction = [rng.gauss(0, 1) for _ in range(3)]
            norm = sum(d * d for d in direction) ** 0.5
            radius = rng.uniform(0.2, 0.9)
            y = [radius * d / norm for d in direction]
            fd = 0.0
            for i in range(3):
                yp = list(y)
                ym = list(y)
                yp[i] += step
                ym[i] -= step
                fd += e.evaluate(yp) - 2 * e.evaluate(y) + e.evaluate(ym)
            fd /= step * step
            exact = lap.evaluate(y)
            # relative to the triangle-inequality magnitude of the
            # second-derivative terms being differenced, so cancellation in
            # a near-harmonic instance cannot turn finite-difference
            # truncation error into a false failure
            scale = 1.0
            for k, p in slots.items():
                term = sum(
                    abs(c) * math.prod(abs(v) ** x for v, x in zip(y, ex))
                    for ex, c in p.terms.items()
                )
                d2 = (abs(k) + 2 * max(p.total_degree(), 0) + 2) ** 2
                scale += radius ** (k - 2) * d2 * float(term)
            assert abs(fd - exact) <= 1e-5 * scale


# ── radial-weight Poisson solve ──────────────────────────────────────────


def oracle_solution(h):
    """Independent route: decompose h into harmonics, divide each harmonic
    piece by its exact ladder eigenvalue, reassemble."""
    n = h.n_vars
    m = h.total_degree()
    c_m = (n - 2) * (2 * n - 4 + 2 * m)
    r2 = r_squared(n)
    u = MultiPoly.zero(n)
    for j, hj in harmonic_decomposition(h).items():
        mu = 2 * j * (2 * m - 2 * j + n - 2)
        u = u + r2**j * hj * Fraction(1, c_m + mu)
    return u


def test_poisson_constant_right_hand_side():
    h = MultiPoly.const(3, 1)
    u = solve_radical_poisson(h, 3)
    assert u == MultiPoly.const(3, fr(1, 2))


def test_poisson_harmonic_right_hand_side_divides_by_ladder_constant():
    # harmonic h in three variables: u = h / (2 + 2m)
    y1, y2, y3 = (MultiPoly.variable(3, i) for i in range(3))
    for h, m in [(y1 * y2, 2), (y1**2 - y3**2, 2), (y1**3 - 3 * y1 * y2**2, 3)]:
        assert h.laplacian().is_zero
        assert solve_radical_poisson(h, 3) == h * fr(1, 2 + 2 * m)


@pytest.mark.parametrize("n,m", [(3, 2), (3, 4), (4, 3), (5, 3)])
def test_poisson_defining_property_exact(n, m):
    rng = random.Random(n * 100 + m)
    for _ in range(5):
        terms = {}
        for e in _random_exponents(rng, n, m, 5):
            terms[e] = fr(rng.randint(-5, 5), rng.randint(1, 7))
        h = MultiPoly(n, terms)
        if h.is_zero:
            continue
        u = solve_radical_poisson(h, n)
        lhs = RadPoly(n, {n - 2: u}).laplacian()
        assert lhs == RadPoly(n, {n - 4: h})


@pytest.mark.parametrize("n,m", [(3, 3), (4, 2), (5, 4)])
def test_poisson_matches_harmonic_oracle(n, m):
    rng = random.Random(17 + 10 * n + m)
    for _ in range(5):
        terms = {}
        for e in _random_exponents(rng, n, m, 6):
            terms[e] = fr(rng.randint(-5, 5), rng.randint(1, 7))
        h = MultiPoly(n, terms)
        if h.is_zero:
            continue
        assert solve_radical_poisson(h, n) == oracle_solution(h)


def _random_exponents(rng, n, m, count):
    out = []
    for _ in range(count):
        cuts = sorted(rng.randint(0, m) for _ in range(n - 1))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [m])]
        out.append(tuple(parts))
    return out


def test_poisson_input_validation():
    with pytest.raises(DimensionError):
        solve_radical_poisson(MultiPoly.const(2, 1), 2)
    with pytest.raises(DimensionError):
        solve_radical_poisson(MultiPoly.const(3, 1), 4)
    mixed = MultiPoly.const(3, 1) + MultiPoly.variable(3, 0)
    with pytest.raises(ValueError):
        solve_radical_poisson(mixed, 3)
    assert solve_radical_poisson(MultiPoly.zero(3), 3).is_zero


def test_poisson_verification_rejects_a_wrong_solution():
    # the CLI's poisson audit relies on this re-check of every solution
    ladder = exactalg._poisson_block

    def perturbed(n_vars, degree, weight):
        a, d = ladder(n_vars, degree, weight)
        return (a[0] + 1,) + a[1:], d

    h = MultiPoly.variable(3, 0) * MultiPoly.variable(3, 1) + r_squared(3)
    with mock.patch.object(exactalg, "_poisson_block", perturbed):
        with pytest.raises(SolveError, match="exact solve failed verification"):
            solve_radical_poisson(h, 3)


@pytest.mark.parametrize("n", [2, 3, 5])
def test_one_ladder_solves_every_radial_weight(n):
    # lap(|y|^w u) = |y|^(w-2) h for the weight-w ladder; weight n - 2 is
    # the radical Poisson solve and weight n - 1 the smooth sector's
    rng = random.Random(90 + n)
    for w in range(1, 5):
        for m in range(6):
            terms = {e: fr(rng.randint(-5, 5), rng.randint(1, 7)) for e in _random_exponents(rng, n, m, 4)}
            h = MultiPoly(n, terms) or MultiPoly.variable(n, 0) ** m
            u = exactalg._ladder(h, w)
            assert RadPoly(n, {w: u}).laplacian() == RadPoly(n, {w - 2: h})


def fraction_ladder(h, weight):
    """Oracle for the integer ladder: sum_k a_k |y|^(2k) lap^k h over
    Fractions and MultiPoly operations, with a_k = (-1)^k / (c_0 ... c_k)
    from the recurrence c_0 = w (w + n - 2 + 2m), c_k = c_(k-1) + 2n +
    4(m - 2k), a zero c_0 read as 1."""
    n, m = h.n_vars, h.total_degree()
    c = weight * (weight + n - 2 + 2 * m)
    a = fr(1, c or 1)
    rung, r2k = h, MultiPoly.const(n, 1)
    u = rung * a * r2k
    for k in range(1, m // 2 + 1):
        c += 2 * n + 4 * (m - 2 * k)
        a = -a / c
        rung, r2k = rung.laplacian(), r2k * r_squared(n)
        u = u + rung * a * r2k
    return u


@pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
def test_integer_ladder_equals_the_fraction_oracle(n):
    rng = random.Random(300 + n)
    for weight in (0, n - 2):
        for m in range(13):
            terms = {e: fr(rng.randint(-5, 5), rng.randint(1, 9)) for e in _random_exponents(rng, n, m, 4)}
            h = MultiPoly(n, terms) or MultiPoly.variable(n, n - 1) ** m
            assert exactalg._ladder(h, weight) == fraction_ladder(h, weight)


def test_ladder_table_is_integers_over_one_positive_denominator():
    for n, m, w in [(3, 0, 1), (3, 7, 0), (5, 6, 3), (20, 4, 18), (100, 2, 98)]:
        a, d = exactalg._poisson_block(n, m, w)
        assert len(a) == m // 2 + 1 and d > 0
        assert all(type(v) is int for v in (*a, d))


def test_ladder_runs_every_solve_the_cli_admits():
    # every monomial of the poisson subcommand's largest top degrees
    for n, m in [(100, 1), (44, 2), (3, 43)]:
        picks = itertools.combinations_with_replacement(range(n), m)
        h = MultiPoly(n, {tuple(c.count(i) for i in range(n)): 1 for c in picks})
        assert len(h.terms) == math.comb(m + n - 1, n - 1) <= 1000
        assert solve_radical_poisson(h, n).is_homogeneous(m)


@pytest.mark.parametrize("solve", [lambda h: solve_radical_poisson(h, 1000), harmonic_decomposition])
def test_ladder_refuses_a_dense_solve_at_once(solve):
    # h = y1^2 y2^2 in 1000 variables would need 500,500 terms of 1000 entries
    n = 1000
    h = MultiPoly.variable(n, 0) ** 2 * MultiPoly.variable(n, 1) ** 2
    start = time.perf_counter()
    with pytest.raises(ValueError, match=r"n = 1000 variables at degree 4 may build 502501000 exponent entries, more than 2000000"):
        solve(h)
    assert time.perf_counter() - start < 1.0


def dense_oracle_solutions(n, m, rhs):
    """Independent route: Gauss-Jordan elimination over Fraction on the
    matrix of ``c + |y|^2 lap`` in the basis of every monomial of degree m,
    for all right-hand sides at once."""
    basis = sorted(e for e in itertools.product(range(m + 1), repeat=n) if sum(e) == m)
    index = {e: i for i, e in enumerate(basis)}
    s = len(basis)
    c = (n - 2) * (2 * n - 4 + 2 * m)
    rows = [[Fraction(0)] * (s + len(rhs)) for _ in range(s)]
    for j, alpha in enumerate(basis):
        rows[j][j] += c
        for i, ai in enumerate(alpha):
            for k in range(n):
                beta = list(alpha)
                beta[i] -= 2
                beta[k] += 2
                if beta[i] >= 0:
                    rows[index[tuple(beta)]][j] += ai * (ai - 1)
    for col, h in enumerate(rhs, start=s):
        for e, coef in h.terms.items():
            rows[index[e]][col] = coef
    for col in range(s):
        pivot = next(r for r in range(col, s) if rows[r][col])
        rows[col], rows[pivot] = rows[pivot], rows[col]
        lead = rows[col]
        lead[:] = [x / lead[col] for x in lead]
        for r in range(s):
            f = rows[r][col]
            if r != col and f:
                rows[r] = [x - f * y for x, y in zip(rows[r], lead)]
    return [
        MultiPoly(n, {e: rows[i][col] for i, e in enumerate(basis)})
        for col in range(s, s + len(rhs))
    ]


def test_poisson_matches_dense_elimination_oracle():
    rng = random.Random(7)
    for n in (3, 4, 5):
        for m in range(6):
            basis = [e for e in itertools.product(range(m + 1), repeat=n) if sum(e) == m]
            rhs = []
            for _ in range(3):
                terms = {e: fr(rng.randint(-5, 5), rng.randint(1, 7)) for e in basis if rng.random() < 0.5}
                rhs.append(MultiPoly(n, terms or {basis[0]: 1}))
            expected = dense_oracle_solutions(n, m, rhs)
            for h, u in zip(rhs, expected):
                assert solve_radical_poisson(h, n) == u


# ── harmonic decomposition ───────────────────────────────────────────────


def test_harmonic_decomposition_pinned():
    r2 = r_squared(3)
    assert harmonic_decomposition(r2) == {1: MultiPoly.const(3, 1)}
    y1 = MultiPoly.variable(3, 0)
    comps = harmonic_decomposition(y1**2)
    assert comps == {0: y1**2 - fr(1, 3) * r2, 1: MultiPoly.const(3, fr(1, 3))}


@pytest.mark.parametrize("n,m", [(2, 4), (3, 5), (4, 4), (5, 3)])
def test_harmonic_decomposition_properties(n, m):
    rng = random.Random(1000 * n + m)
    terms = {e: fr(rng.randint(-5, 5), rng.randint(1, 7)) for e in _random_exponents(rng, n, m, 6)}
    p = MultiPoly(n, terms)
    if p.is_zero:
        p = MultiPoly.variable(n, 0) ** m
    comps = harmonic_decomposition(p)
    r2 = r_squared(n)
    total = MultiPoly.zero(n)
    for j, hj in comps.items():
        assert hj.laplacian().is_zero
        assert hj.is_homogeneous(m - 2 * j)
        total = total + r2**j * hj
    assert total == p


def test_harmonic_decomposition_rejects_a_projection_that_is_not_harmonic():
    ladder = exactalg._poisson_block

    def perturbed(n_vars, degree, weight):
        a, d = ladder(n_vars, degree, weight)
        return a[:-1] + (a[-1] + 1,), d

    with mock.patch.object(exactalg, "_poisson_block", perturbed):
        with pytest.raises(SolveError, match="harmonic projection failed verification"):
            harmonic_decomposition(MultiPoly.variable(3, 0) ** 2)


def test_harmonic_decomposition_validates():
    with pytest.raises(ValueError):
        harmonic_decomposition(MultiPoly.const(3, 1) + MultiPoly.variable(3, 0))
    assert harmonic_decomposition(MultiPoly.zero(3)) == {}
    with pytest.raises(DimensionError):
        harmonic_decomposition(MultiPoly.variable(1, 0) ** 2)
