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
coefficients as Fractions in lowest terms.

``RadPoly`` extends this with integer powers of ``r = |y|``: a finite sum
``sum_k r^k * p_k`` stored as a mapping from the integer exponent ``k`` to
the polynomial ``p_k``.  Because ``r^2`` is itself a polynomial, such sums
have many representations; ``RadPoly`` keeps a canonical one (per-parity
collection at the minimal exponent, followed by maximal extraction of whole
``r^2`` factors) so that two representations of the same function always
compare equal and "the coefficient of ``r^k``" is well defined.

All arithmetic here is exact.  Floats only appear through ``evaluate`` when
called with float coordinates.
"""

from __future__ import annotations

from collections import defaultdict
from fractions import Fraction
from functools import lru_cache
import math
import numbers
import operator
from typing import Iterable, Mapping, Union

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


def _as_fraction(value: Scalar | Fraction) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"expected an exact scalar, got {type(value).__name__}")


def _json_int(value) -> int:
    """An integer read from a JSON record; bools, floats and text are refused."""
    if type(value) is not int:
        raise TypeError(f"{value!r} is not an integer")
    return value


def _check_same_dims(a: "MultiPoly | RadPoly", b: "MultiPoly | RadPoly") -> None:
    if a.n_vars != b.n_vars:
        raise DimensionError(f"operands have {a.n_vars} and {b.n_vars} variables")


# ── polynomials ──────────────────────────────────────────────────────────


class MultiPoly:
    """Sparse multivariate polynomial with rational coefficients, stored as
    integer numerators over one common denominator.

    ``_num`` maps exponent tuples to nonzero integers and ``_den`` is a
    positive integer; the coefficient of ``y^e`` is ``_num[e] / _den``.  The
    stored form is canonical: ``gcd(_den, *_num.values()) == 1`` and the zero
    polynomial has ``_den == 1``, so equal polynomials have equal fields.

    ``MultiPoly(n_vars, terms)`` and ``from_json`` validate their input;
    every other result is built by the trusted ``_make`` from integers.
    """

    __slots__ = ("n_vars", "_num", "_den")

    def __init__(self, n_vars: int, terms: Mapping[Exponent, Scalar] | None = None):
        if n_vars < 1:
            raise DimensionError("need at least one variable")
        clean: dict[Exponent, Fraction] = {}
        for exp, coef in (terms or {}).items():
            exp = tuple(exp)
            if len(exp) != n_vars or any(e < 0 for e in exp):
                raise DimensionError(f"bad exponent {exp} for {n_vars} variables")
            c = _as_fraction(coef)
            if c:
                clean[exp] = clean.get(exp, Fraction(0)) + c
                if not clean[exp]:
                    del clean[exp]
        # over the lcm of reduced denominators, no prime divides every numerator
        den = math.lcm(*(c.denominator for c in clean.values()))
        self.n_vars = n_vars
        self._num = {e: c.numerator * (den // c.denominator) for e, c in clean.items()}
        self._den = den

    @classmethod
    def _make(cls, n_vars: int, num: Mapping[Exponent, int], den: int = 1) -> "MultiPoly":
        """Trusted constructor: ``num / den`` with ``den > 0`` and well-formed
        exponents, brought to canonical form."""
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

    # construction ---------------------------------------------------------

    @classmethod
    def zero(cls, n_vars: int) -> "MultiPoly":
        return cls(n_vars, {})

    @classmethod
    def const(cls, n_vars: int, value: Scalar) -> "MultiPoly":
        return cls(n_vars, {(0,) * n_vars: _as_fraction(value)})

    @classmethod
    def variable(cls, n_vars: int, i: int) -> "MultiPoly":
        """The coordinate ``y_i`` (0-based index)."""
        if not 0 <= i < n_vars:
            raise DimensionError(f"variable index {i} out of range for {n_vars}")
        exp = tuple(1 if j == i else 0 for j in range(n_vars))
        return cls(n_vars, {exp: Fraction(1)})

    @classmethod
    def r_squared(cls, n_vars: int) -> "MultiPoly":
        """``|y|^2 = y_1^2 + ... + y_n^2``."""
        terms = {}
        for i in range(n_vars):
            exp = tuple(2 if j == i else 0 for j in range(n_vars))
            terms[exp] = Fraction(1)
        return cls(n_vars, terms)

    @property
    def terms(self) -> dict[Exponent, Fraction]:
        """The coefficients as ``{exponent: Fraction}`` in lowest terms (a copy)."""
        den = self._den
        return {e: Fraction(c, den) for e, c in self._num.items()}

    # arithmetic -----------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self) -> bool:
        return bool(self._num)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return (self.n_vars, self._den, self._num) == (other.n_vars, other._den, other._num)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._make(self.n_vars, {e: -c for e, c in self._num.items()}, self._den)

    def _add_scaled(self, other: "MultiPoly", sign: int) -> "MultiPoly":
        """``self + sign * other`` over the lcm of the two denominators."""
        _check_same_dims(self, other)
        g = math.gcd(self._den, other._den)
        f_self, f_other = other._den // g, sign * (self._den // g)
        out = {e: c * f_self for e, c in self._num.items()}
        for e, c in other._num.items():
            out[e] = out.get(e, 0) + c * f_other
        return MultiPoly._make(self.n_vars, out, self._den * f_self)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._add_scaled(other, 1)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self._add_scaled(other, -1)

    def __mul__(self, other: "MultiPoly | Scalar") -> "MultiPoly":
        if isinstance(other, MultiPoly):
            _check_same_dims(self, other)
            out: dict[Exponent, int] = defaultdict(int)
            right = other._num.items()
            for e1, c1 in self._num.items():
                for e2, c2 in right:
                    out[tuple(map(operator.add, e1, e2))] += c1 * c2
            return MultiPoly._make(self.n_vars, out, self._den * other._den)
        c = _as_fraction(other)
        scaled = {e: v * c.numerator for e, v in self._num.items()}
        return MultiPoly._make(self.n_vars, scaled, self._den * c.denominator)

    def __rmul__(self, other: Scalar) -> "MultiPoly":
        return self * other

    def __pow__(self, k: int) -> "MultiPoly":
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
        out: dict[Exponent, int] = defaultdict(int)
        for e, c in self._num.items():
            for i, ei in enumerate(e):
                if ei >= 2:
                    out[e[:i] + (ei - 2,) + e[i + 1 :]] += c * ei * (ei - 1)
        return MultiPoly._make(self.n_vars, out, self._den)

    def euler(self) -> "MultiPoly":
        """``sum_i y_i * d/dy_i`` applied to the polynomial."""
        out = {e: c * sum(e) for e, c in self._num.items()}
        return MultiPoly._make(self.n_vars, out, self._den)

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
        rational, else a float summed term by term in storage order, each
        coefficient entering as the correctly rounded ``numerator / _den``
        (the same float as ``float(Fraction(numerator, _den))``)."""
        pt = list(point)
        if len(pt) != self.n_vars:
            raise DimensionError(f"point has {len(pt)} coordinates, expected {self.n_vars}")
        den = self._den
        exact = all(isinstance(x, numbers.Rational) for x in pt)
        total = 0 if exact else 0.0
        for e, c in self._num.items():
            term = c if exact else c / den
            for x, k in zip(pt, e):
                if k:
                    term = term * x**k
            total = total + term
        return Fraction(total, den) if exact else total

    def try_divide_r2(self) -> "MultiPoly | None":
        """Exact quotient by ``|y|^2`` if it divides this polynomial, else None.

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

    @classmethod
    def from_json(cls, data: Mapping) -> "MultiPoly":
        """Inverse of ``to_json``; ValueError names a malformed record."""
        try:
            n_vars = _json_int(data["n_vars"])
            terms = {}
            for t in data["terms"]:
                # integrality is checked here; __init__ checks length and sign
                terms[tuple(_json_int(e) for e in t["exp"])] = parse_rational(t["coef"])
            return cls(n_vars, terms)
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed polynomial record: {exc}") from exc

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        bits = []
        for e, c in sorted(self.terms.items()):
            mono = "*".join(
                f"y{i + 1}" if k == 1 else f"y{i + 1}^{k}" for i, k in enumerate(e) if k
            )
            bits.append(f"{c}" if not mono else f"{c}*{mono}")
        return " + ".join(bits)


# ── radical polynomials ──────────────────────────────────────────────────


def _by_degree(p: MultiPoly) -> list[tuple[int, list[tuple[Exponent, int]]]]:
    """The terms of ``p`` as ``(degree, [(exponent, numerator), ...])``
    groups in increasing degree."""
    groups: dict[int, list[tuple[Exponent, int]]] = defaultdict(list)
    for e, c in p._num.items():
        groups[sum(e)].append((e, c))
    return sorted(groups.items())


class RadPoly:
    """Finite sum ``sum_k |y|^k p_k`` with integer ``k`` and polynomial
    ``p_k``, kept in canonical form.

    Canonical form: the slots of each parity of ``k`` are merged down to the
    minimal exponent of that parity (multiplying by whole ``|y|^2`` factors),
    then ``|y|^2`` is factored back out while the merged polynomial remains
    exactly divisible.  At most one slot per parity survives, and the form is
    unique, so ``==`` decides equality of the represented functions.
    """

    __slots__ = ("n_vars", "_slots")

    def __init__(self, n_vars: int, slots: Mapping[int, MultiPoly] | None = None):
        if n_vars < 1:
            raise DimensionError("need at least one variable")
        by_parity: dict[int, list[tuple[int, MultiPoly]]] = {0: [], 1: []}
        for k, p in (slots or {}).items():
            if p.n_vars != n_vars:
                raise DimensionError(f"slot polynomial has {p.n_vars} variables, expected {n_vars}")
            if not p.is_zero:
                by_parity[k & 1].append((int(k), p))
        normal: dict[int, MultiPoly] = {}
        for items in by_parity.values():
            if not items:
                continue
            k_min = min(k for k, _ in items)
            merged = MultiPoly.zero(n_vars)
            for k, p in items:
                if k != k_min:
                    p = p * MultiPoly.r_squared(n_vars) ** ((k - k_min) // 2)
                merged = merged + p
            if merged.is_zero:
                continue
            while True:
                q = merged.try_divide_r2()
                if q is None:
                    break
                merged, k_min = q, k_min + 2
            normal[k_min] = merged
        self.n_vars = n_vars
        self._slots = normal

    @classmethod
    def _make(cls, n_vars: int, slots: Mapping[int, MultiPoly]) -> "RadPoly":
        """Trusted constructor: ``slots`` hold at most one exponent per parity
        and no polynomial divisible by ``|y|^2``; zero slots are dropped."""
        r = cls.__new__(cls)
        r.n_vars, r._slots = n_vars, {k: p for k, p in slots.items() if not p.is_zero}
        return r

    @classmethod
    def from_poly(cls, p: MultiPoly, k: int = 0) -> "RadPoly":
        return cls(p.n_vars, {k: p})

    @classmethod
    def zero(cls, n_vars: int) -> "RadPoly":
        return cls(n_vars, {})

    # structure ------------------------------------------------------------

    @property
    def slots(self) -> dict[int, MultiPoly]:
        return dict(self._slots)

    def slot(self, k: int) -> MultiPoly:
        """Canonical-form coefficient of ``|y|^k`` (zero if absent)."""
        return self._slots.get(k, MultiPoly.zero(self.n_vars))

    @property
    def is_zero(self) -> bool:
        return not self._slots

    def min_slot(self) -> int | None:
        return min(self._slots) if self._slots else None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RadPoly):
            return NotImplemented
        return self.n_vars == other.n_vars and self._slots == other._slots

    # arithmetic -----------------------------------------------------------

    def __neg__(self) -> "RadPoly":
        return RadPoly._make(self.n_vars, {k: -p for k, p in self._slots.items()})

    def __add__(self, other: "RadPoly") -> "RadPoly":
        if not isinstance(other, RadPoly):
            return NotImplemented
        _check_same_dims(self, other)
        out: dict[int, MultiPoly] = dict(self._slots)
        for k, p in other._slots.items():
            out[k] = out[k] + p if k in out else p
        return RadPoly(self.n_vars, out)

    def __sub__(self, other: "RadPoly") -> "RadPoly":
        return self + (-other)

    def __mul__(self, other: "RadPoly | MultiPoly | Scalar") -> "RadPoly":
        if isinstance(other, RadPoly):
            return self.mul(other)
        if isinstance(other, MultiPoly):
            _check_same_dims(self, other)
            if any(map(any, other._num)):
                return RadPoly(self.n_vars, {k: p * other for k, p in self._slots.items()})
        # a constant factor keeps each slot canonical (or zeroes it)
        return RadPoly._make(self.n_vars, {k: p * other for k, p in self._slots.items()})

    def __rmul__(self, other: Scalar) -> "RadPoly":
        return self * other

    def mul(self, other: "RadPoly", ceiling: int | None = None) -> "RadPoly":
        """The product with another RadPoly; with ``ceiling``, only its
        terms of weight at most ``ceiling``, where ``|y|^k y^e`` has weight
        ``k + |e|``.  A pair of terms whose weights sum past the ceiling is
        skipped before it is multiplied, so the result is exactly the sum
        of the product's homogeneous components of degree <= ceiling."""
        _check_same_dims(self, other)
        cap = math.inf if ceiling is None else ceiling
        right = [(k2, _by_degree(p2), p2._den) for k2, p2 in other._slots.items()]
        out: dict[int, MultiPoly] = {}
        for k1, p1 in self._slots.items():
            left = _by_degree(p1)
            for k2, buckets, den2 in right:
                room = cap - k1 - k2
                acc: dict[Exponent, int] = defaultdict(int)
                for d1, terms1 in left:
                    if d1 + buckets[0][0] > room:
                        break
                    for d2, terms2 in buckets:
                        if d1 + d2 > room:
                            break
                        for e1, c1 in terms1:
                            for e2, c2 in terms2:
                                acc[tuple(map(operator.add, e1, e2))] += c1 * c2
                prod = MultiPoly._make(self.n_vars, acc, p1._den * den2)
                k = k1 + k2
                out[k] = out[k] + prod if k in out else prod
        return RadPoly(self.n_vars, out)

    def truncate(self, ceiling: int) -> "RadPoly":
        """The terms of weight ``k + |e|`` at most ``ceiling``: the sum of the
        homogeneous components of degree <= ceiling."""
        return RadPoly(
            self.n_vars,
            {
                k: MultiPoly._make(
                    self.n_vars, {e: c for e, c in p._num.items() if k + sum(e) <= ceiling}, p._den
                )
                for k, p in self._slots.items()
            },
        )

    # calculus -------------------------------------------------------------

    def partial(self, i: int) -> "RadPoly":
        out: dict[int, MultiPoly] = defaultdict(lambda: MultiPoly.zero(self.n_vars))
        yi = MultiPoly.variable(self.n_vars, i)
        for k, p in self._slots.items():
            if k:
                out[k - 2] = out[k - 2] + k * yi * p
            out[k] = out[k] + p.partial(i)
        return RadPoly(self.n_vars, out)

    def laplacian(self) -> "RadPoly":
        """Exact Laplacian: ``lap(|y|^k p) = |y|^(k-2) (k (k+n-2) p
        + 2 k y.grad p) + |y|^k lap p`` with ``n`` the variable count."""
        n = self.n_vars
        out: dict[int, MultiPoly] = defaultdict(lambda: MultiPoly.zero(n))
        for k, p in self._slots.items():
            if k:
                out[k - 2] = out[k - 2] + k * (k + n - 2) * p + 2 * k * p.euler()
            out[k] = out[k] + p.laplacian()
        return RadPoly(n, out)

    # extraction -----------------------------------------------------------

    def collect(self, base: int) -> MultiPoly:
        """The sector of ``base``'s parity as a single polynomial ``W``
        with that part equal to ``|y|^base * W``."""
        sector = [(k, p) for k, p in self._slots.items() if (k - base) % 2 == 0]
        if not sector:
            return MultiPoly.zero(self.n_vars)
        (k, p), = sector
        if k < base:
            raise SolveError(f"sector sits at |y|^{k}, below requested base {base}")
        return p * MultiPoly.r_squared(self.n_vars) ** ((k - base) // 2)

    def evaluate(self, point: Iterable) -> Fraction | float:
        pt = list(point)
        if len(pt) != self.n_vars:
            raise DimensionError(f"point has {len(pt)} coordinates, expected {self.n_vars}")
        r2 = sum(x * x for x in pt)
        total = None
        for k, p in self._slots.items():
            if k % 2 == 0:
                rk = r2 ** (k // 2)
            else:
                rk = math.sqrt(r2) ** k
            val = rk * p.evaluate(pt)
            total = val if total is None else total + val
        if total is None:
            return Fraction(0)
        return total

    # serialization --------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "n_vars": self.n_vars,
            "slots": [
                {"k": k, "poly": p.to_json()} for k, p in sorted(self._slots.items())
            ],
        }

    @classmethod
    def from_json(cls, data: Mapping) -> "RadPoly":
        """Inverse of ``to_json``; ValueError names a malformed record.
        Merging two same-parity slots k apart multiplies by (|y|^2)^(k/2),
        so k is capped at 40 and that factor at 300 terms (k <= 4 in 13
        variables); ``to_json`` writes one slot per parity."""
        try:
            n_vars = _json_int(data["n_vars"])
            slots = {_json_int(s["k"]): MultiPoly.from_json(s["poly"]) for s in data["slots"]}
            for ks in ([k for k in slots if k % 2 == 0], [k for k in slots if k % 2]):
                half = (max(ks) - min(ks)) // 2 if ks else 0
                if half and (half > 20 or math.comb(half + n_vars - 1, half) > 300):
                    raise ValueError(f"slots {min(ks)} and {max(ks)} are too far apart to merge")
            return cls(n_vars, slots)
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed radical polynomial record: {exc}") from exc

    def __repr__(self) -> str:
        if self.is_zero:
            return "0"
        return " + ".join(f"|y|^{k}*({p!r})" for k, p in sorted(self._slots.items()))


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
# The rungs are dense in the variables (|y|^(2k) has C(k+n-1, n-1) terms),
# so before any |y|^2 product the ladder bounds its output by
# sum_k C(k+n-1, n-1) |lap^k h| terms, at most the C(m+n-1, n-1) monomials
# of degree m, each of n entries, and refuses a bound above the cap.  On 2
# CPUs a solve costs about 0.65 us per bounded entry (h = y1^2 y2^2: 0.37 s
# at n = 100, 2.6 s at n = 200), so the cap admits about 1.3 s; the CLI's
# caps stay below 44,000 entries.
_MAX_LADDER_ENTRIES = 2_000_000


@lru_cache(maxsize=None)
def _poisson_block(n_vars: int, degree: int, weight: int) -> tuple[Fraction, ...]:
    """The ladder coefficients ``a_0, ..., a_floor(m/2)`` at degree m and
    radial weight ``weight``.  The benchmark's tracer reads this cache's
    hit and miss statistics under this name."""
    c = weight * (weight + n_vars - 2 + 2 * degree)
    a = [Fraction(1, c) if c else Fraction(1)]
    for k in range(1, degree // 2 + 1):
        c += 2 * n_vars + 4 * (degree - 2 * k)
        a.append(-a[-1] / c)
    return tuple(a)


def _ladder(h: MultiPoly, weight: int) -> MultiPoly:
    """``sum_k a_k |y|^(2k) lap^k h`` for nonzero homogeneous ``h``, in one
    Horner pass; ValueError when its size bound passes the cap."""
    n, m = h.n_vars, h.total_degree()
    rungs = [h]
    for _ in range(m // 2):
        lap = rungs[-1].laplacian()
        if not lap:
            break
        rungs.append(lap)
    terms = sum(math.comb(k + n - 1, n - 1) * len(r._num) for k, r in enumerate(rungs))
    bound = min(terms, math.comb(m + n - 1, n - 1)) * n
    if bound > _MAX_LADDER_ENTRIES:
        raise ValueError(
            f"the Laplacian ladder in n = {n} variables at degree {m} may build "
            f"{bound} exponent entries, more than {_MAX_LADDER_ENTRIES}"
        )
    a = _poisson_block(n, m, weight)
    r2 = MultiPoly.r_squared(n)
    u = MultiPoly.zero(n)
    for k in reversed(range(len(rungs))):
        u = rungs[k] * a[k] + r2 * u
    return u


def solve_radical_poisson(h: MultiPoly, n: int) -> MultiPoly:
    """Solve ``lap(|y|^(n-2) u) = |y|^(n-4) h`` exactly for homogeneous
    polynomial ``h`` in ``n >= 3`` variables; returns the unique homogeneous
    polynomial ``u`` of the same degree.

    Raises DimensionError when n <= 2 or the variable counts disagree, and
    ValueError for an inhomogeneous right-hand side or a ladder past its
    size cap.  Before returning, the solution is re-verified in
    radical-polynomial form: ``lap(|y|^(n-2) u) - |y|^(n-4) h`` must be
    identically zero.
    """
    if n < 3:
        raise DimensionError("the radial-weight Poisson solve needs n >= 3")
    if h.n_vars != n:
        raise DimensionError(f"right-hand side has {h.n_vars} variables, expected {n}")
    if h.is_zero:
        return h
    if not h.is_homogeneous():
        raise ValueError("right-hand side must be homogeneous")
    u = _ladder(h, n - 2)
    residual = RadPoly(n, {n - 2: u}).laplacian() - RadPoly(n, {n - 4: h})
    if not residual.is_zero:
        raise SolveError("exact solve failed verification")
    return u


def harmonic_decomposition(p: MultiPoly) -> dict[int, MultiPoly]:
    """Decompose a homogeneous polynomial as ``p = sum_j |y|^(2j) h_j`` with
    each ``h_j`` harmonic; returns ``{j: h_j}`` (nonzero components only).

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
