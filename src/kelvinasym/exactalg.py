"""Exact sparse polynomial arithmetic over the rationals, with radical
(|y|-power) extensions.

Representation
--------------
A polynomial in ``n_vars`` variables is a sparse mapping from exponent
tuples to nonzero integer numerators, over one positive common
denominator::

    3/2 * y1^2 * y3 - 1/3 * y2   <->   {(2, 0, 1): 9, (0, 1, 0): -2} / 6

The form is canonical (the denominator and the numerators share no factor),
so equality compares the stored integers, and arithmetic is integer
arithmetic followed by one gcd reduction.  ``MultiPoly.terms`` gives the
coefficients as Fractions in lowest terms, and ``keys`` the keys alone.

``RadPoly`` extends this with integer powers of ``r = |y|``: a finite sum
of terms ``c r^K y^e``, stored the same way with keys ``(K, e_1, ..., e_n)``.
Because ``r^2`` is itself a polynomial, such sums have many spellings;
``RadPoly`` keeps the normal form ``e_1 <= 1``, in which ``y_1^2`` is
rewritten as ``r^2 - y_2^2 - ... - y_n^2``::

    r * y1^2 + y2   <->   {(3, 0, 0, 0): 1, (1, 0, 2, 0): -1,
                           (1, 0, 0, 2): -1, (0, 0, 1, 0): 1} / 1

The normal form is unique, so two spellings of one function compare equal
and sums and scalar products are map operations as for ``MultiPoly``; a
product rewrites only where both factors hold ``y_1``.  A term's weight
``K + |e|`` is its homogeneous degree, so the parity of ``K`` and the
degree are read off the keys (``RadPoly.keys``); ``RadPoly.part`` writes
one parity at one weight as ``r^base W`` with ``W`` a polynomial.

All arithmetic here is exact.  Floats only appear through
``MultiPoly.evaluate`` when called with float coordinates, and through
``MultiPoly.float_evaluator``.

Exact input
-----------
One rule, `_as_fraction`, turns a caller's value into an exact scalar for
the whole package: a ``Fraction`` or an ``int`` passes as it is, any other
``numbers.Rational`` except ``bool`` (a ``numpy.int64``, say) enters
through its numerator and denominator as Python ints, text goes through
`parse_rational` and its digit caps, and anything else, a float included,
raises TypeError naming the type and the value.  Beside it `_is_rational`
decides whether a value takes the exact route or the float one, and
`_rational_sqrt` is the one exact square root.  Exponents and radical
powers are Python ints.

Float sums
----------
One rule, `_sum`, adds up every sequence that can hold a float, for the
whole package: ``start + v_1 + v_2 + ...`` strictly left to right, with no
compensation, from ``start = 0.0`` (or the ring's zero the caller passes);
`_dot` is built on it.  The builtin ``sum`` compensates float sums from
Python 3.12 on, so routes summed with it round differently on 3.10-3.11
and on 3.12-3.13; the fold gives every interpreter the builtin's bits from
before 3.12.  The start is 0.0 and not the first term because the builtin
starts there too: ``0.0 + -0.0`` is ``0.0``.  Integer and exact sums keep
the builtin, which is exact on them.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache, reduce
from itertools import combinations_with_replacement
import bisect
import math
import numbers
import operator
from typing import Callable, Iterable, Mapping, Sequence, Union

Exponent = tuple[int, ...]
Scalar = Union[int, Fraction, str]


class DimensionError(ValueError):
    """Operands live in different variable counts, or the dimension is
    outside the domain of an operation."""


class SolveError(ArithmeticError):
    """An exact linear solve failed or a requested exact form does not
    exist."""


# Rational text with more digits, or a larger decimal exponent, is refused:
# Fraction expands the exponent, so "1e300000" alone builds a 300001-digit
# integer.  Every float's repr and every coefficient the library writes fit.
_MAX_RATIONAL_DIGITS = 4000
_MAX_DECIMAL_EXPONENT = 1000


def parse_rational(value) -> Fraction:
    """A rational from a finite JSON number or from text such as "3/2",
    "-0.25" or "1e-3" with at most 4000 digits and a decimal exponent of at
    most 1000 in size; otherwise ValueError naming the value."""
    if isinstance(value, float) and math.isfinite(value):
        return Fraction(value)
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ValueError(f"not a rational number: {value!r}")
    text = str(value).strip()
    mantissa, _, exponent = text.lower().replace("_", "").partition("e")
    size = exponent.lstrip("+-")
    if sum(map(str.isdecimal, mantissa)) > _MAX_RATIONAL_DIGITS or (
        size.isdecimal() and (len(size.lstrip("0")) > 4 or int(size) > _MAX_DECIMAL_EXPONENT)
    ):
        raise ValueError(
            f"rational {text[:40]!r} is too large: more than {_MAX_RATIONAL_DIGITS} digits"
            f" or a decimal exponent beyond +-{_MAX_DECIMAL_EXPONENT}"
        )
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational number: {text[:40]!r} ({exc})") from None


def _as_fraction(value: Scalar) -> Fraction:
    """The exact scalar a caller's value stands for (the module's rule)."""
    cls = type(value)
    if cls is Fraction:
        return value
    if cls is int:
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    if _is_rational(value):
        # a Rational type's numerator may be its own type, such as numpy.int64
        return Fraction(int(value.numerator), int(value.denominator))
    raise TypeError(f"expected an exact rational, got {cls.__name__} {value!r:.40}")


def _is_rational(value) -> bool:
    """Whether ``value`` takes the exact route: a rational, not a bool."""
    cls = type(value)
    return cls is Fraction or cls is int or (isinstance(value, numbers.Rational) and cls is not bool)


def _sum(values: Iterable, start=0.0):
    """``start + v_1 + v_2 + ...`` added left to right (the module's
    float-sum rule)."""
    return reduce(operator.add, values, start)


def _dot(a: Iterable, b: Iterable) -> float:
    """``a_1 b_1 + a_2 b_2 + ...`` over paired entries, by `_sum`."""
    return _sum(map(operator.mul, a, b))


def _rational_sqrt(q: Fraction) -> Fraction | None:
    """The rational square root of ``q >= 0``, or None when there is none."""
    num, den = math.isqrt(q.numerator), math.isqrt(q.denominator)
    if num * num == q.numerator and den * den == q.denominator:
        return Fraction(num, den)
    return None


def _check_same_dims(a: "MultiPoly | RadPoly", b: "MultiPoly | RadPoly") -> None:
    if a.n_vars != b.n_vars:
        raise DimensionError(f"operands have {a.n_vars} and {b.n_vars} variables")


def _check_n_vars(n_vars: int) -> None:
    """DimensionError unless the variable count is a Python int (not a
    bool) of at least 1."""
    if type(n_vars) is not int:
        raise DimensionError(f"variable count {n_vars!r:.40} is not an integer")
    if n_vars < 1:
        raise DimensionError("need at least one variable")


# ── integer maps over one common denominator ────────────────────────────


class _RationalMap:
    """Rational coefficients stored as integer numerators over one common
    denominator: ``_num`` maps keys to nonzero integers and ``_den`` is a
    positive integer, so the coefficient of key ``e`` is ``_num[e] / _den``.
    The form is canonical: ``gcd(_den, *_num.values()) == 1`` and the zero
    map has ``_den == 1``.  A subclass whose keys are unique for the
    function it represents gets ``==``, negation, ``+``, ``-`` and scalar
    products as plain map operations."""

    __slots__ = ("n_vars", "_num", "_den")

    @classmethod
    def _make(cls, n_vars: int, num: Mapping, den: int = 1):
        """Trusted constructor: ``num / den`` with ``den > 0`` and well-formed
        keys, brought to canonical form."""
        num = {e: c for e, c in num.items() if c}
        if not num:
            den = 1
        elif den != 1:
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {e: c // g for e, c in num.items()}
                den //= g
        p = cls.__new__(cls)
        p.n_vars, p._num, p._den = n_vars, num, den
        return p

    @property
    def is_zero(self) -> bool:
        return not self._num

    @property
    def terms(self) -> dict:
        """The coefficients as ``{key: Fraction}`` in lowest terms (a copy)."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._num.items()}

    def keys(self):
        """The keys of the nonzero coefficients, as a read-only view; no
        Fraction is built."""
        return self._num.keys()

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (self.n_vars, self._den, self._num) == (other.n_vars, other._den, other._num)

    def __neg__(self):
        return self._make(self.n_vars, {e: -c for e, c in self._num.items()}, self._den)

    def _add_scaled(self, other, sign: int):
        """``self + sign * other`` over the lcm of the two denominators."""
        _check_same_dims(self, other)
        g = math.gcd(self._den, other._den)
        f_self, f_other = other._den // g, sign * (self._den // g)
        out = {e: c * f_self for e, c in self._num.items()}
        for e, c in other._num.items():
            out[e] = out.get(e, 0) + c * f_other
        return self._make(self.n_vars, out, self._den * f_self)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._add_scaled(other, 1)

    def __sub__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self._add_scaled(other, -1)

    def _scaled(self, c: Fraction):
        scaled = {e: v * c.numerator for e, v in self._num.items()}
        return self._make(self.n_vars, scaled, self._den * c.denominator)


@lru_cache(maxsize=256)
def _r2_power(n_vars: int, j: int) -> tuple[tuple[Exponent, int], ...]:
    """``(|y|^2)^j`` in ``n_vars`` variables as (exponent, multinomial
    coefficient) pairs, built from integers."""
    # (exponents so far, degree left, coefficient so far), one variable at a time
    parts = [((), j, 1)]
    for _ in range(n_vars - 1):
        parts = [
            (e + (2 * a,), left - a, c * math.comb(left, a))
            for e, left, c in parts
            for a in range(left + 1)
        ]
    return tuple((e + (2 * left,), c) for e, left, c in parts)


# ── polynomials ──────────────────────────────────────────────────────────


class MultiPoly(_RationalMap):
    """Sparse multivariate polynomial with rational coefficients, stored as
    integer numerators over one common denominator (`_RationalMap`): the
    coefficient of ``y^e`` is ``_num[e] / _den``, and equal polynomials have
    equal fields.

    ``MultiPoly(n_vars, terms)`` validates its input; every other result
    is built by the trusted ``_make`` from integers.
    """

    __slots__ = ()

    def __init__(self, n_vars: int, terms: Mapping[Exponent, Scalar] | None = None):
        _check_n_vars(n_vars)
        clean: dict[Exponent, Fraction] = {}
        for exp, coef in (terms or {}).items():
            key = tuple(exp)
            if len(key) != n_vars or not all(type(e) is int and e >= 0 for e in key):
                raise DimensionError(f"bad exponent {key!r:.60} for {n_vars} variables")
            if key in clean:
                raise DimensionError(f"exponent {key} is given twice")
            clean[key] = _as_fraction(coef)
        # over the lcm of reduced denominators (a zero's is 1), no prime
        # divides every numerator
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.n_vars = n_vars
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items() if c}
        self._den = den

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars, {})

    @classmethod
    def const(cls, n_vars: int, value: Scalar) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: value})

    @classmethod
    def variable(cls, n_vars: int, i: int) -> "MultiPoly":
        """The coordinate ``y_i`` (0-based index)."""
        if not 0 <= i < n_vars:
            raise DimensionError(f"variable index {i} out of range for {n_vars}")
        exp = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {exp: 1})

    # arithmetic -----------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self._num)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            _check_same_dims(self, other)
            out: dict[Exponent, int] = defaultdict(int)
            right = other._num.items()
            for e1, c1 in self._num.items():
                for e2, c2 in right:
                    out[tuple(map(operator.add, e1, e2))] += c1 * c2
            return MultiPoly._make(self.n_vars, out, self._den * other._den)
        return self._scaled(_as_fraction(other))

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self * other

    def __pow__(self, k: int) -> "MultiPoly":
        """``self ** k`` by repeated squaring; the tests build polynomials with it."""
        if k < 0:
            raise ValueError("negative polynomial power")
        out = MultiPoly.const(self.n_vars, 1)
        base = self
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    # calculus -------------------------------------------------------------

    def partial(self, i: int) -> "MultiPoly":
        """Partial derivative with respect to the 0-based coordinate ``i``."""
        out: dict[Exponent, int] = {}
        for e, c in self._num.items():
            if e[i]:
                out[e[:i] + (e[i] - 1,) + e[i + 1 :]] = c * e[i]
        return MultiPoly._make(self.n_vars, out, self._den)

    def laplacian(self) -> "MultiPoly":
        """The Laplacian; `harmonic_decomposition` checks each component by it."""
        return MultiPoly._make(self.n_vars, _laplacian_num(self._num), self._den)

    # structure ------------------------------------------------------------

    def total_degree(self) -> int:
        """Largest total degree among terms (0 for the zero polynomial)."""
        return max((sum(e) for e in self._num), default=0)

    def homogeneous_components(self) -> dict[int, "MultiPoly"]:
        buckets: dict[int, dict[Exponent, int]] = defaultdict(dict)
        for e, c in self._num.items():
            buckets[sum(e)][e] = c
        return {
            d: MultiPoly._make(self.n_vars, t, self._den) for d, t in sorted(buckets.items())
        }

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degrees = {sum(e) for e in self._num}
        if not degrees:
            return True
        if len(degrees) > 1:
            return False
        return degree is None or degrees == {degree}

    def evaluate(self, point: Iterable) -> Fraction | float:
        """The value at ``point``: a Fraction when every coordinate is
        rational, else the float `float_evaluator` gives."""
        pt = list(point)
        if len(pt) != self.n_vars:
            raise DimensionError(f"point has {len(pt)} coordinates, expected {self.n_vars}")
        if not all(map(_is_rational, pt)):
            return self.float_evaluator()(pt)
        total = 0
        for e, c in self._num.items():
            term = c
            for x, k in zip(pt, e):
                if k:
                    term = term * x**k
            total = total + term
        return Fraction(total, self._den)

    def float_evaluator(self) -> Callable[[Sequence], float]:
        """The function taking a point (a sequence of ``n_vars`` numbers,
        not checked) to the float value there: summed term by term in
        storage order from 0.0, each term the correctly rounded coefficient
        ``numerator / _den`` (the same float as ``float(Fraction(numerator,
        _den))``) times ``x_i**k_i`` for each nonzero exponent in variable
        order.  The coefficients are divided once, here, so a caller that
        evaluates at many points builds the evaluator once."""
        den = self._den
        terms = [(c / den, [(i, k) for i, k in enumerate(e) if k]) for e, c in self._num.items()]

        def at(pt) -> float:
            total = 0.0
            for term, powers in terms:
                for i, k in powers:
                    term = term * pt[i] ** k
                total = total + term
            return total

        return at

    def try_divide_r2(self) -> "MultiPoly | None":
        """Exact quotient by ``|y|^2`` if it divides this polynomial, else None;
        `harmonic_decomposition` strips each harmonic component by it.

        Long division in the first variable: the divisor is monic of degree 2
        in ``y_1`` over the ring of polynomials in the remaining variables,
        so quotient and remainder are unique, the quotient's numerators stay
        over this polynomial's denominator, and divisibility is equivalent to
        a vanishing remainder.

        In two or more variables |y|^2, and so every multiple of it,
        vanishes at (1, i, 0, ..., 0); a nonzero value there, summed in
        Gaussian integers by the power of i, rejects before the division.
        """
        if self.is_zero:
            return MultiPoly.zero(self.n_vars)
        if self.n_vars >= 2:
            by_power = [0, 0, 0, 0]  # numerator sums at i^0 .. i^3
            for e, c in self._num.items():
                if not any(e[2:]):
                    by_power[e[1] & 3] += c
            if by_power[0] != by_power[2] or by_power[1] != by_power[3]:
                return None
        by_deg: dict[int, dict[Exponent, int]] = defaultdict(dict)
        for e, c in self._num.items():
            by_deg[e[0]][e] = c
        quot: dict[Exponent, int] = {}
        for d in range(max(by_deg), 1, -1):
            for e, c in by_deg.pop(d, {}).items():
                if not c:
                    continue
                quot[(e[0] - 2,) + e[1:]] = c
                for j in range(1, self.n_vars):
                    e2 = (e[0] - 2,) + e[1:j] + (e[j] + 2,) + e[j + 1 :]
                    blk = by_deg[d - 2]
                    blk[e2] = blk.get(e2, 0) - c
        for d in (0, 1):
            if any(by_deg.get(d, {}).values()):
                return None
        return MultiPoly._make(self.n_vars, quot, self._den)

    # serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "terms": [
                {"coef": str(c), "exp": list(e)} for e, c in sorted(self.terms.items())
            ],
        }

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"{c}{_monomial(e)}" for e, c in sorted(self.terms.items()))


def _laplacian_num(num: Mapping[Exponent, int]) -> dict[Exponent, int]:
    """The Laplacian of an integer map ``{exponent: numerator}``, term by
    term, with its zero entries dropped."""
    out: dict[Exponent, int] = defaultdict(int)
    for e, c in num.items():
        for i, ei in enumerate(e):
            if ei >= 2:
                out[e[:i] + (ei - 2,) + e[i + 1 :]] += c * (ei * ei - ei)
    return {e: c for e, c in out.items() if c}


def _monomial(e: Exponent) -> str:
    """``*y1^2*y3`` for the exponent (2, 0, 1); empty for the constant."""
    return "".join(f"*y{i + 1}" if k == 1 else f"*y{i + 1}^{k}" for i, k in enumerate(e) if k)


# ── radical polynomials ──────────────────────────────────────────────────
#
# In normal form y1^(2q) becomes (|y|^2 - y2^2 - ... - yn^2)^q, which has
# C(q + n - 1, n - 1) terms: one term of y1^200 in 13 variables would
# become 4.4e15 of them.  The rewrite runs one factor at a time, and before
# it starts the constructor bounds the keys it may build, n C(q + n - 1, n)
# per term of y1^(2q) or y1^(2q+1) when no two of them merge, each of
# n + 1 entries, and refuses a bound above the cap.  On 2 CPUs the rewrite
# costs 0.11-0.25 us per bounded entry (y1^14 in 13 variables: 4.9 million
# in 0.55 s; y1^268 in 3 variables: 4.9 million in 1.2 s), so the cap
# admits about 0.5-1.3 s.  The largest bound the CLI meets, the check of a
# degree-43 Poisson solve in 3 variables, is 2.4 million entries; its
# terms merge, so that rewrite takes about 10 ms.  `RadPoly.part` refuses
# the same count of monomials; the largest part the CLI writes, in expand3
# --order 36 at the digit caps, is 4355.
_MAX_REWRITE_ENTRIES = 5_000_000


def _fold_y1_powers(num: dict) -> dict:
    """Rewrite in place every key ``(K, d, e_2, ..., e_n)`` with ``d >= 2``
    by ``y1^2 = |y|^2 - y2^2 - ... - yn^2``, from the highest power of
    ``y_1`` down, merging as it goes (Horner's rule in ``y_1^2``).  Each
    step gives one key at ``K + 2`` and ``n - 1`` at ``K``, all of the same
    weight.  Returns ``num``."""
    levels: dict[int, list] = defaultdict(list)
    for key in num:
        if key[1] > 1:
            levels[key[1]].append(key)
    get = num.get
    bumped: dict[Exponent, list] = {}  # e' -> [e' + 2 delta_i for each i]
    for d in range(max(levels, default=0), 1, -1):
        below = levels[d - 2] if d > 3 else None
        for key in levels.pop(d, ()):
            c = num.pop(key)
            if not c:
                continue
            k, rest = key[0], key[2:]
            new = (k + 2, d - 2) + rest
            old = get(new)
            if old is None:
                num[new] = c
                if below is not None:
                    below.append(new)
            else:
                num[new] = old + c
            head = (k, d - 2)
            downs = bumped.get(rest)
            if downs is None:
                downs = bumped[rest] = [rest[:i] + (ei + 2,) + rest[i + 1 :] for i, ei in enumerate(rest)]
            for down in downs:
                new = head + down
                old = get(new)
                if old is None:
                    num[new] = -c
                    if below is not None:
                        below.append(new)
                else:
                    num[new] = old - c
    return num


class RadPoly(_RationalMap):
    """Finite sum of terms ``c |y|^K y^e`` with integer ``K``, kept in the
    normal form ``e_1 <= 1``.

    ``_num`` maps keys ``(K, e_1, ..., e_n)`` to integer numerators over the
    common denominator ``_den`` (`_RationalMap`).  No key has ``e_1 >= 2``:
    ``y_1^2`` is rewritten as ``|y|^2 - y_2^2 - ... - y_n^2``, the remainder
    of division by ``|y|^2`` taken as monic in ``y_1``.  Every polynomial is
    uniquely ``A + y_1 B`` with ``A`` and ``B`` polynomials in ``|y|^2`` and
    ``y_2 .. y_n``, so the normal form is unique, ``==`` decides equality of
    the represented functions, and ``+``, ``-`` and scalar products are map
    operations.  A term's weight ``K + |e|``, the sum of its key, is its
    homogeneous degree, and the rewrite keeps it.

    The normal form is the only view: `terms` reads it back as
    ``{(K, e_1, ..., e_n): Fraction}``, so the parity of ``K`` and the
    weight are plain reads of the keys, and `part` writes the terms of one
    parity and one weight as ``|y|^base W`` with ``W`` a polynomial.
    """

    __slots__ = ()

    def __init__(self, n_vars: int, slots: Mapping[int, MultiPoly] | None = None):
        """The sum of ``|y|^k slots[k]``; ValueError when rewriting the
        slots' powers of ``y_1`` may build more than the cap's entries."""
        _check_n_vars(n_vars)
        items = []
        for k, p in (slots or {}).items():
            if type(k) is not int:
                raise DimensionError(f"slot power {k!r:.40} is not an integer")
            if p.n_vars != n_vars:
                raise DimensionError(f"slot polynomial has {p.n_vars} variables, expected {n_vars}")
            if p._num:
                items.append((k, p))
        powers = [e[0] for _, p in items for e in p._num if e[0] > 1]
        entries = sum(n_vars * math.comb(a // 2 + n_vars - 1, n_vars) for a in powers) * (n_vars + 1)
        if entries > _MAX_REWRITE_ENTRIES:
            raise ValueError(
                f"rewriting y1^{max(powers)} modulo |y|^2 in n = {n_vars} variables "
                f"may build {entries} exponent entries, more than {_MAX_REWRITE_ENTRIES}"
            )
        den = math.lcm(*(p._den for _, p in items))
        num: dict[Exponent, int] = defaultdict(int)
        for k, p in items:
            scale = den // p._den
            for e, c in p._num.items():
                num[(k,) + e] += c * scale
        _fold_y1_powers(num)
        made = RadPoly._make(n_vars, num, den)
        self.n_vars, self._num, self._den = n_vars, made._num, made._den

    @classmethod
    def from_poly(cls, p: MultiPoly, k: int = 0) -> "RadPoly":
        return cls(p.n_vars, {k: p})

    @classmethod
    def zero(cls, n_vars: int) -> "RadPoly":
        return cls(n_vars, {})

    def part(self, base: int, weight: int) -> MultiPoly:
        """The terms of weight ``weight`` whose ``K`` has the parity of
        ``base``, as the homogeneous ``W`` with that part equal to
        ``|y|^base W``.  A term ``j`` steps of ``|y|^2`` above ``base`` is
        multiplied by a cached ``(|y|^2)^j``, of C(j + n - 1, j) monomials;
        SolveError when a term of that parity sits below ``base``, and
        ValueError, before anything is built, when those monomials sum past
        the cap."""
        n, parity = self.n_vars, base & 1
        same = [(key, c) for key, c in self._num.items() if key[0] & 1 == parity]
        least = min((key[0] for key, _ in same), default=base)
        if least < base:
            raise SolveError(f"a term sits at |y|^{least}, below the requested base {base}")
        terms = [(key, c) for key, c in same if sum(key) == weight]
        entries = sum(math.comb((key[0] - base) // 2 + n - 1, n - 1) for key, _ in terms)
        if entries > _MAX_REWRITE_ENTRIES:
            raise ValueError(
                f"the weight-{weight} part at |y|^{base} would write {entries} monomial entries, "
                f"more than {_MAX_REWRITE_ENTRIES}"
            )
        out: dict[Exponent, int] = defaultdict(int)
        for key, c in terms:
            e, j = key[1:], (key[0] - base) // 2
            if not j:
                out[e] += c
                continue
            for f, m in _r2_power(n, j):
                out[tuple(map(operator.add, e, f))] += c * m
        return MultiPoly._make(n, out, self._den)

    # arithmetic -----------------------------------------------------------

    def __mul__(self, other: "RadPoly | MultiPoly | Scalar") -> "RadPoly":
        if isinstance(other, RadPoly):
            return self.mul(other)
        if isinstance(other, MultiPoly):
            return self.mul(RadPoly.from_poly(other))
        return self._scaled(_as_fraction(other))

    def __rmul__(self, other: Scalar) -> "RadPoly":
        return self * other

    def mul(self, other: "RadPoly", ceiling: int | None = None, floor: int | None = None) -> "RadPoly":
        """The product with another RadPoly; with ``ceiling``, only its
        terms of weight at most ``ceiling``, and with ``floor``, only those
        of weight at least ``floor``, where ``|y|^k y^e`` has weight
        ``k + |e|``.  A pair of terms whose weights sum outside that window
        is skipped before it is multiplied, so the result is exactly the
        sum of the product's homogeneous components of degree in
        [floor, ceiling].  Only a pair in which both terms hold ``y_1``
        needs the rewrite, and it keeps the weight."""
        _check_same_dims(self, other)
        right = list(other._num.items())
        windowed = ceiling is not None or floor is not None
        if windowed:
            right.sort(key=lambda t: sum(t[0]))
            weights = [sum(key) for key, _ in right]
        out: dict[Exponent, int] = defaultdict(int)
        for k1, c1 in self._num.items():
            fits = right
            if windowed:
                w1 = sum(k1)
                low = 0 if floor is None else bisect.bisect_left(weights, floor - w1)
                high = len(right) if ceiling is None else bisect.bisect_right(weights, ceiling - w1)
                fits = right[low:high]
            for k2, c2 in fits:
                out[tuple(map(operator.add, k1, k2))] += c1 * c2
        return RadPoly._make(self.n_vars, _fold_y1_powers(out), self._den * other._den)

    def truncate(self, ceiling: int) -> "RadPoly":
        """The terms of weight ``k + |e|`` at most ``ceiling``: the sum of the
        homogeneous components of degree <= ceiling."""
        kept = {key: c for key, c in self._num.items() if sum(key) <= ceiling}
        return RadPoly._make(self.n_vars, kept, self._den)

    # calculus -------------------------------------------------------------

    def partial(self, i: int) -> "RadPoly":
        """``d(|y|^K y^e)/dy_i = K |y|^(K-2) y_i y^e + |y|^K d(y^e)/dy_i``,
        term by term; only ``y_1 * y_1`` needs the rewrite."""
        if not 0 <= i < self.n_vars:
            raise DimensionError(f"variable index {i} out of range for {self.n_vars}")
        out: dict[Exponent, int] = defaultdict(int)
        j = i + 1  # the key position of y_i
        for key, c in self._num.items():
            k, ej = key[0], key[j]
            if k:
                out[(k - 2,) + key[1:j] + (ej + 1,) + key[j + 1 :]] += k * c
            if ej:
                out[key[:j] + (ej - 1,) + key[j + 1 :]] += ej * c
        return RadPoly._make(self.n_vars, _fold_y1_powers(out), self._den)

    def __repr__(self) -> str:
        """The normal form term by term, ``c*|y|^K*y^e``."""
        if self.is_zero:
            return "0"
        den = self._den
        terms = sorted(self._num.items())
        return " + ".join(f"{Fraction(c, den)}*|y|^{k[0]}{_monomial(k[1:])}" for k, c in terms)


# ── the radial-weight Poisson equation ───────────────────────────────────
#
# One Laplacian ladder serves every radial weight w.  For u homogeneous of
# degree m in n variables,
#
#     lap(|y|^w u) = |y|^(w-2) (c_0 u + |y|^2 lap u),   c_0 = w(w + n - 2 + 2m),
#
# so lap(|y|^w u) = |y|^(w-2) h  is  c_0 u + |y|^2 lap u = h.  Since
# lap(|y|^2 v) = (2n + 4(m-2)) v + |y|^2 lap v  for v of degree m - 2, the
# solution is
#
#     u = sum_k a_k |y|^(2k) lap^k h,   a_k = (-1)^k / (c_0 c_1 ... c_k),
#
# over k = 0..floor(m/2), with c_k = c_(k-1) + 2n + 4(m-2k): one Laplacian
# and one |y|^2 product per rung, and no matrix.  The radical Poisson solve
# is weight n - 2.  At weight 0, c_0 is 0 and the table drops that factor;
# c_k is then the eigenvalue of |y|^2 lap on |y|^(2k) times a harmonic, so
# the same pass gives the harmonic projection of h.
#
# The pass runs on integers: a_k = A_k / D over the one denominator
# D = c_0 c_1 ... c_floor(m/2), with A_k = (-1)^k c_(k+1) ... c_floor(m/2), so
# the rungs are integer lists of h's numerators, U = sum_k A_k |y|^(2k)
# lap^k h_num, and u = U / (D h_den) is reduced once, at the end.
#
# Each list is dense over the exponents of one degree in ascending order
# (`_basis`).  The Laplacian rows of a degree (`_laplacian_rows`) and the
# |y|^2 rows of the degree below (`_r2_rows`) hold, for each monomial, the
# indices and factors it sends to the neighbouring degree, built once per
# (n, degree); so a rung and a |y|^2 product are loops over integer lists
# that build and hash no exponent.  The largest table a solve
# reads is its top degree's: C(m+n-1, n-1) monomials of n entries each.
# Past two million entries the ladder refuses, before it builds any table.
# On 2 shared CPUs a solve at a new (n, m), tables included, costs about
# 65-300 ns per entry of that table for n >= 20 (1400 variables at degree
# 1: 0.13 s; 22 at degree 5: 0.34 s), and a repeat about a third of that,
# so the cap admits well under a second there; fewer variables mean more
# rungs and longer integers (10 variables at degree 10: 0.68 s, 0.92
# million entries).  The CLI's caps stay below 44,000 entries.  y1^2 y2^2
# is refused at once at n = 155 (3,873,766,975 entries; the sparse ladder
# solved it in 0.38 s) and at n = 1000 (41,917,125,250,000 entries).
_MAX_LADDER_ENTRIES = 2_000_000


@lru_cache(maxsize=None)
def _poisson_block(n_vars: int, degree: int, weight: int) -> tuple[tuple[int, ...], int]:
    """The ladder coefficients at degree m and radial weight ``weight >= 0``
    as integers ``(A, D)``: ``a_k = A[k] / D`` for k = 0 .. floor(m/2), with
    ``D > 0``.  The benchmark's tracer reads this cache's hit and miss
    statistics under this name."""
    c = weight * (weight + n_vars - 2 + 2 * degree)
    factors = [c or 1]
    for k in range(1, degree // 2 + 1):
        c += 2 * n_vars + 4 * (degree - 2 * k)
        factors.append(c)
    # A_k = (-1)^k c_(k+1) ... c_top, from the top rung down
    tail, a = 1, []
    for k in reversed(range(len(factors))):
        a.append(-tail if k & 1 else tail)
        tail *= factors[k]
    return tuple(reversed(a)), tail


@lru_cache(maxsize=128)
def _basis(n_vars: int, degree: int) -> tuple[tuple[Exponent, ...], dict[Exponent, int]]:
    """Every exponent of the degree in ``n_vars`` variables, in ascending
    order, and the index of each.  The cache shares the index among its
    callers, which only read it."""
    # e_i = q_i - q_(i-1) over the partial sums 0 <= q_1 <= ... <= q_(n-1)
    # <= degree, which come in lexicographic order, and so do the exponents
    basis = tuple(
        tuple(map(operator.sub, q + (degree,), (0,) + q))
        for q in combinations_with_replacement(range(degree + 1), n_vars - 1)
    )
    return basis, {e: i for i, e in enumerate(basis)}


@lru_cache(maxsize=128)
def _laplacian_rows(n_vars: int, degree: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """The Laplacian of each monomial of the degree, in `_basis` order: one
    pair (index in degree - 2, e(e - 1)) for each exponent entry e >= 2."""
    index = _basis(n_vars, degree - 2)[1]
    rows = []
    for e in _basis(n_vars, degree)[0]:
        row = []
        if max(e) >= 2:
            below = list(e)
            for i, ei in enumerate(e):
                if ei >= 2:
                    below[i] = ei - 2
                    row.append((index[tuple(below)], ei * ei - ei))
                    below[i] = ei
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=128)
def _r2_rows(n_vars: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """The product of each monomial of the degree with |y|^2, in `_basis`
    order: the indices in degree + 2 of its ``n_vars`` terms, each of
    coefficient 1.  The Laplacian rows of degree + 2, read by column, list
    them: ``y^f`` is a term of ``|y|^2 y^(f - 2 delta_i)`` exactly when
    ``f_i >= 2``."""
    rows = [[] for _ in _basis(n_vars, degree)[0]]
    for t, row in enumerate(_laplacian_rows(n_vars, degree + 2)):
        for s, _ in row:
            rows[s].append(t)
    return tuple(map(tuple, rows))


def _dense(p: MultiPoly, degree: int) -> list[int]:
    """The numerators of ``p``, homogeneous of the degree, as a list over
    `_basis`."""
    index = _basis(p.n_vars, degree)[1]
    out = [0] * len(index)
    for e, c in p._num.items():
        out[index[e]] = c
    return out


def _dense_laplacian(vec: list[int], n_vars: int, degree: int) -> list[int]:
    """The Laplacian of a list over the degree's basis, as a list over
    degree - 2."""
    out = [0] * len(_basis(n_vars, degree - 2)[0])
    for c, row in zip(vec, _laplacian_rows(n_vars, degree)):
        if c:
            for t, f in row:
                out[t] += c * f
    return out


def _add_dense_r2_times(out: list[int], vec: list[int], n_vars: int, degree: int) -> list[int]:
    """``out + |y|^2 vec`` for ``vec`` over the degree's basis and ``out``
    over degree + 2, added into ``out`` and returned."""
    for c, row in zip(vec, _r2_rows(n_vars, degree)):
        if c:
            for t in row:
                out[t] += c
    return out


def _ladder(h: MultiPoly, weight: int) -> MultiPoly:
    """``sum_k a_k |y|^(2k) lap^k h`` for nonzero homogeneous ``h``, in one
    Horner pass over dense integer lists: the rung ``lap^k h_num`` and the
    partial sum at degree m - 2k are lists over that degree's basis, and
    ``U = A_k lap^k h_num + |y|^2 U`` climbs one degree pair per step.

    ValueError, before any table is built, when the top degree's table,
    C(m+n-1, n-1) monomials of n entries, passes two million entries.  No
    list of the pass is longer than that table, and a first solve costs
    about 65-300 ns an entry of it at n >= 20, tables included.  So
    y1^2 y2^2 is refused at n = 155 (3,873,766,975 entries; the sparse
    ladder solved it in 0.38 s) and at n = 1000 (41,917,125,250,000)."""
    n, m = h.n_vars, h.total_degree()
    bound = math.comb(m + n - 1, n - 1) * n
    if bound > _MAX_LADDER_ENTRIES:
        raise ValueError(
            f"the Laplacian ladder in n = {n} variables at degree {m} may build "
            f"{bound} exponent entries, more than {_MAX_LADDER_ENTRIES}"
        )
    a, d = _poisson_block(n, m, weight)
    rungs = [_dense(h, m)]
    for k in range(1, m // 2 + 1):
        rung = _dense_laplacian(rungs[-1], n, m - 2 * k + 2)
        if not any(rung):
            break
        rungs.append(rung)
    top = len(rungs) - 1
    u = [a[top] * c for c in rungs[top]]
    for k in reversed(range(top)):
        ak = a[k]
        u = _add_dense_r2_times([ak * c for c in rungs[k]], u, n, m - 2 * k - 2)
    return MultiPoly._make(n, dict(zip(_basis(n, m)[0], u)), d * h._den)


def solve_radical_poisson(h: MultiPoly, n: int) -> MultiPoly:
    """Solve ``lap(|y|^(n-2) u) = |y|^(n-4) h`` exactly for homogeneous
    polynomial ``h`` in ``n >= 3`` variables; returns the unique homogeneous
    polynomial ``u`` of the same degree.

    The solution is the Laplacian ladder ``u = sum_k a_k |y|^(2k) lap^k h``
    at radial weight ``n - 2``, run on integers: with the table's ``a_k =
    A_k / D`` and ``h`` stored as ``h_num / h_den``, one Horner pass builds
    ``U = sum_k A_k |y|^(2k) lap^k h_num`` and ``u = U / (D h_den)`` is
    reduced once.

    Raises DimensionError when n <= 2 or the variable counts disagree, and
    ValueError for an inhomogeneous right-hand side or a ladder past its
    size cap.  Before returning, the solution is re-verified by the
    product rule: with ``w = n - 2``, ``lap(|y|^w u) = |y|^(w-2) (w (w +
    n - 2) u + 2w E u + |y|^2 lap u)``, where the Euler operator ``E`` is
    the scalar m at degree m.  Applied to the returned numerators as a
    list over the degree's basis, it must give ``h`` entry by entry once
    both sides are brought over one denominator.
    """
    if n < 3:
        raise DimensionError("the radial-weight Poisson solve needs n >= 3")
    if h.n_vars != n:
        raise DimensionError(f"right-hand side has {h.n_vars} variables, expected {n}")
    if h.is_zero:
        return h
    if not h.is_homogeneous():
        raise ValueError("right-hand side must be homogeneous")
    w, m = n - 2, h.total_degree()
    u = _ladder(h, w)
    u_num = _dense(u, m)
    lhs = [(w * (w + n - 2) + 2 * w * m) * c for c in u_num]
    if m >= 2:
        _add_dense_r2_times(lhs, _dense_laplacian(u_num, n, m), n, m - 2)
    h_den, u_den = h._den, u._den
    if any(left * h_den != right * u_den for left, right in zip(lhs, _dense(h, m))):
        raise SolveError("exact solve failed verification")
    return u


def harmonic_decomposition(p: MultiPoly) -> dict[int, MultiPoly]:
    """Decompose a homogeneous polynomial as ``p = sum_j |y|^(2j) h_j`` with
    each ``h_j`` harmonic; returns ``{j: h_j}`` (nonzero components only).
    No subcommand runs it yet: its consumers are the free harmonic pieces
    of the smooth part P and the regularity certificate that ROADMAP.md
    keeps open.

    Each ``h_j`` is the weight-0 ladder's harmonic projection of what
    remains, which is then divided exactly by ``|y|^2``.  Raises
    DimensionError when n < 2, ValueError for an inhomogeneous input or
    one past the ladder's size cap, and SolveError when a projection is
    not harmonic or a division is not exact.
    """
    if p.n_vars < 2:
        raise DimensionError("harmonic decomposition needs n >= 2")
    if not p.is_homogeneous():
        raise ValueError("input must be homogeneous")
    comps: dict[int, MultiPoly] = {}
    j = 0
    while p:
        h = _ladder(p, 0)
        if h.laplacian():
            raise SolveError("harmonic projection failed verification")
        if h:
            comps[j] = h
        p = (p - h).try_divide_r2()
        if p is None:
            raise SolveError(f"|y|^2 does not divide the remainder after component {j}")
        j += 1
    return comps
