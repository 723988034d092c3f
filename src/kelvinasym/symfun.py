"""Elementary symmetric functions over exact rationals, deleted and
two-sided-shifted variants, and exact verification of the determinant
identities behind the linearized transform.

Inputs are read by the package's one exact-scalar rule (`exactalg`'s
module docstring), so a verification never silently loses exactness.  The
public sigma functions return Fractions.  The verifiers scale every input
by the lcm d of its denominators and compare integers: each identity is
homogeneous in its inputs, so the integer sides equal d^degree times the
rational ones, and the reports divide them back.
The sigma kernels (`char_sigmas` and the private value-list ones) are
ring-generic; the verifiers run them over ints, and the residual forms of
the equations module over polynomials.

Identity ids
------------
The short ids used throughout the tool chain (reports, command line):

L31  the t-coefficient of sigma_k(diag(lambda) + t B) equals
     sum_i sigma_{k-1}(spectrum with i removed) * B_ii; checked for every k
     by `verify_linear_coefficient`, whose left side is one `char_sigmas`
     pass over dual numbers a + t b (t^2 = 0), and per k by
     `linear_coefficient_sigma`.
L32  with E = sum_j (-1)^j sigma_{2j} and O = sum_j (-1)^j sigma_{2j+1},
     and hatted sums taken over the spectrum with index i removed:
     E*E_i + O*O_i = prod_{j != i} (1 + lambda_j^2).
L33  expansion of the shifted function sigma_bar_k (parameters a, b) in the
     ordinary sigma_m with double-binomial weights.
L34  the shifted analogue of L32:
     Ebar*(Ehat_i + Ohat_i) - Obar*(Ehat_i - Ohat_i)
       = 2^n b prod_{j != i} ((lambda_j + a)^2 + b^2),
     where the barred/hatted sums alternate sigma_bar over the full and
     deleted spectra.

`verify_identity` checks L32, L33 or L34 at every index in one call, one
report per index: i = 1 .. n (the deleted entry) for L32 and L34, k = 0 .. n
for L33.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import lru_cache
from random import Random
from typing import Iterable, NamedTuple, Sequence, Union

from .exactalg import Scalar, _as_fraction, _json_int, parse_rational


class ArityError(ValueError):
    """A verification was called with missing or unusable arguments."""


class MismatchError(ArithmeticError):
    """Two supposedly identical exact routes disagreed."""


class Spectrum:
    """An ordered tuple of exact eigenvalues.  Entry indices are 1-based."""

    __slots__ = ("values",)

    def __init__(self, values: Iterable[Scalar]):
        self.values = tuple(map(_as_fraction, values))

    @property
    def n(self) -> int:
        return len(self.values)

    def __len__(self) -> int:
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Spectrum):
            return NotImplemented
        return self.values == other.values

    def __hash__(self) -> int:
        return hash(self.values)

    def __repr__(self) -> str:
        return f"Spectrum({', '.join(str(v) for v in self.values)})"

    def deleted(self, i: int) -> "Spectrum":
        """The spectrum with entry ``i`` (1-based) removed."""
        self._check_index(i)
        return Spectrum(self.values[: i - 1] + self.values[i:])

    def replaced(self, i: int, value: Scalar) -> "Spectrum":
        """The spectrum with entry ``i`` (1-based) replaced by ``value``."""
        self._check_index(i)
        return Spectrum(self.values[: i - 1] + (_as_fraction(value),) + self.values[i:])

    def _check_index(self, i: int) -> None:
        if not 1 <= i <= len(self.values):
            raise IndexError(f"index {i} out of range for spectrum of size {len(self.values)}")

    def to_json(self) -> dict:
        return {"n": self.n, "lambda": [str(v) for v in self.values]}

    @classmethod
    def from_json(cls, data) -> "Spectrum":
        """Inverse of ``to_json``; ValueError names a malformed record."""
        try:
            values = [parse_rational(v) for v in data["lambda"]]
            n = _json_int(data["n"])
        except (LookupError, TypeError, ValueError, ArithmeticError) as exc:
            raise ValueError(f"malformed spectrum record: {exc}") from exc
        if n != len(values):
            raise ValueError(f"spectrum record claims n={n} but lists {len(values)} values")
        return cls(values)


class _BranchParamsFields(NamedTuple):
    a: Fraction
    b: Fraction


class BranchParams(_BranchParamsFields):
    """Exact shift parameters (a, b) of the two-sided product function."""

    __slots__ = ()

    def __new__(cls, a: Scalar, b: Scalar) -> "BranchParams":
        return super().__new__(cls, _as_fraction(a), _as_fraction(b))


class ExactReport(NamedTuple):
    """Outcome of one exact identity check."""

    lemma: str
    lhs: Fraction
    rhs: Fraction
    equal: bool

    def to_json(self) -> dict:
        return {
            "lemma": self.lemma,
            "lhs": str(self.lhs),
            "rhs": str(self.rhs),
            "equal": self.equal,
        }


SpectrumLike = Union[Spectrum, Sequence[Scalar]]
MatrixLike = Sequence[Sequence[Scalar]]


def _values(s: SpectrumLike) -> list[Fraction]:
    return list(map(_as_fraction, s))


def _symmetric_matrix(mat: MatrixLike, n: int) -> list[list[Fraction]]:
    rows = [list(map(_as_fraction, row)) for row in mat]
    if len(rows) != n or any(len(row) != n for row in rows):
        raise ArityError(f"matrix must be {n} x {n} to match the spectrum")
    for r in range(n):
        for c in range(r):
            if rows[r][c] != rows[c][r]:
                raise ArityError("matrix must be symmetric")
    return rows


# ── the symmetric-function kernels ───────────────────────────────────────


def _sigmas(values, one) -> list:
    """sigma_0 .. sigma_n of a value list: the coefficients of
    prod (1 + t v) in powers of t, in the ring whose unit is ``one``.
    Each factor updates the list in place from the top coefficient down, so
    every entry still reads the previous factor's entry below it."""
    out = [one]
    for v in values:
        out.append(v * out[-1])
        for c in range(len(out) - 2, 0, -1):
            out[c] = out[c] + v * out[c - 1]
    return out


def _pencil_sigmas(pairs, one) -> list:
    """Coefficients of prod (plus + t minus) in powers of t, over the
    (plus, minus) pairs, in the ring whose unit is ``one``; updated in place
    from the top coefficient down, as `_sigmas` is."""
    out = [one]
    for plus, minus in pairs:
        out.append(out[-1] * minus)
        for c in range(len(out) - 2, 0, -1):
            out[c] = out[c] * plus + out[c - 1] * minus
        out[0] = out[0] * plus
    return out


def _alternating(sig) -> tuple:
    """(E, O): E = sum (-1)^j sig_2j and O = sum (-1)^j sig_{2j+1}."""
    e = 0 * sig[0]
    o = 0 * sig[0]
    for k, val in enumerate(sig):
        if k % 2 == 0:
            e = e - val if (k // 2) % 2 else e + val
        else:
            o = o - val if (k // 2) % 2 else o + val
    return e, o


def _over_common_denominator(*groups) -> tuple:
    """(d, scaled): d is the lcm of the denominators of every Fraction in
    ``groups``, and ``scaled`` holds each group as the integers d * v."""
    d = math.lcm(*(v.denominator for group in groups for v in group))
    return d, [[v.numerator * (d // v.denominator) for v in group] for group in groups]


def sigma_all(s: SpectrumLike) -> list[Fraction]:
    """All elementary symmetric functions sigma_0 .. sigma_n."""
    return _sigmas(_values(s), Fraction(1))


def sigma(k: int, s: SpectrumLike) -> Fraction:
    """sigma_k of the spectrum (0 outside 0 <= k <= n)."""
    vals = _values(s)
    if k < 0 or k > len(vals):
        return Fraction(0)
    return sigma_all(vals)[k]


def sigma_hat(k: int, i: int, s: SpectrumLike) -> Fraction:
    """sigma_k of the spectrum with entry ``i`` (1-based) removed."""
    vals = _values(s)
    if not 1 <= i <= len(vals):
        raise IndexError(f"index {i} out of range for spectrum of size {len(vals)}")
    return sigma(k, vals[: i - 1] + vals[i:])


def sigma_bar_all(s: SpectrumLike, params: BranchParams) -> list[Fraction]:
    """All shifted functions: coefficients of
    prod_j ((lambda_j + a + b) + t (lambda_j + a - b)) in powers of t."""
    plus_shift = params.a + params.b
    minus_shift = params.a - params.b
    pairs = [(v + plus_shift, v + minus_shift) for v in _values(s)]
    return _pencil_sigmas(pairs, Fraction(1))


def sigma_bar(k: int, s: SpectrumLike, params: BranchParams) -> Fraction:
    """The k-th two-sided-shifted symmetric function (0 outside range)."""
    vals = _values(s)
    if k < 0 or k > len(vals):
        return Fraction(0)
    return sigma_bar_all(vals, params)[k]


def alternating_sums(s: SpectrumLike) -> tuple[Fraction, Fraction]:
    """(E, O) with E = sum (-1)^j sigma_2j, O = sum (-1)^j sigma_{2j+1};
    these are the real and imaginary parts of prod (1 + i lambda_j)."""
    return _alternating(sigma_all(s))


def alternating_sums_bar(s: SpectrumLike, params: BranchParams) -> tuple[Fraction, Fraction]:
    """Shifted alternating sums: real and imaginary parts of
    prod ((lambda_j + a + b) + i (lambda_j + a - b))."""
    return _alternating(sigma_bar_all(s, params))


# ── sigma_k of a matrix over any ring ────────────────────────────────────


class _Dual:
    """a + t b with t^2 = 0, so the t-part of a product is its first-order
    coefficient.  a and b may lie in different rings (a Fraction and a
    MultiPoly, say) as long as their products are defined."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def __add__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "_Dual") -> "_Dual":
        return _Dual(self.a - other.a, self.b - other.b)

    def __mul__(self, other) -> "_Dual":
        if isinstance(other, _Dual):
            return _Dual(self.a * other.a, self.a * other.b + self.b * other.a)
        return _Dual(self.a * other, self.b * other)

    __rmul__ = __mul__


def _dot(xs, ys):
    """sum x * y over the paired entries of two nonempty sequences."""
    acc = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        acc = acc + x * y
    return acc


def char_sigmas(mat, one) -> list:
    """sigma_0 .. sigma_n of a square matrix (the coefficients of
    det(I + t mat) in powers of t) in the ring whose unit is ``one``, by
    Berkowitz's division-free recursion.  Only +, * and integer signs
    touch the entries, so it runs over Fraction, MultiPoly, RadPoly or
    `_Dual` entries, and it holds for any square matrix (diagonal similarity
    transforms may be applied freely first).  Floats take eigenvalues
    instead (`equations.AlgebraicForm.residual`)."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ArityError("matrix must be square")
    sig = [one]
    for r in range(n):
        # bordering the leading block A by row R, column C and corner a multiplies
        # det(I + tA) by 1 + t a + sum_m (-1)^(m+1) t^(m+2) R A^m C, m < r
        block = [line[:r] for line in mat[:r]]
        row, col = mat[r][:r], [line[r] for line in mat[:r]]
        weights = [mat[r][r]]
        for m in range(r):
            col = [_dot(line, col) for line in block] if m else col
            weights.append(_dot(row, col) * (1 if m % 2 else -1))
        sig = (
            [sig[0]]
            + [sig[i] + _dot(weights[:i], sig[i - 1 :: -1]) for i in range(1, r + 1)]
            + [_dot(weights, sig[::-1])]
        )
    return sig


def _principal_minors(mat, ceilings=None) -> dict:
    """{S: det mat_S} over every nonempty index tuple S (increasing) of a
    square matrix.  Each minor is a Laplace expansion along its first row,
    and every minor met on the way (principal or not) is kept, so a
    principal minor reuses the smaller ones.  Only +, - and * touch the
    entries, so it runs over Fraction, MultiPoly or RadPoly entries; the
    size-k minors sum to sigma_k (`char_sigmas`).

    With ``ceilings``, the entries are RadPoly with no term of negative
    weight, and every minor of size k keeps only its terms of weight at
    most ``ceilings[k - 1]`` (`RadPoly.truncate` on the entries,
    `RadPoly.mul` in the expansion); sizes past the end of ``ceilings``
    are not formed.  The ceilings must not increase with the size, so a
    truncated minor still holds every term a larger minor reads from it."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ArityError("matrix must be square")
    top_size = n if ceilings is None else min(n, len(ceilings))
    if ceilings:
        mat = [[entry.truncate(ceilings[0]) for entry in row] for row in mat]
    minors: dict = {}

    def minor(rows: tuple, cols: tuple):
        key = (rows, cols)
        if key not in minors:
            top = mat[rows[0]]
            if len(rows) == 1:
                minors[key] = top[cols[0]]
            else:
                acc = None
                for j, c in enumerate(cols):
                    sub = minor(rows[1:], cols[:j] + cols[j + 1 :])
                    term = top[c] * sub if ceilings is None else top[c].mul(sub, ceilings[len(rows) - 1])
                    acc = term if acc is None else (acc - term if j % 2 else acc + term)
                minors[key] = acc
        return minors[key]

    subsets = (s for k in range(1, top_size + 1) for s in itertools.combinations(range(n), k))
    return {s: minor(s, s) for s in subsets}


# ── the linear coefficient along a matrix direction ──────────────────────


def verify_linear_coefficient(s: SpectrumLike, B: MatrixLike) -> list[ExactReport]:
    """Both routes of the linear-coefficient identity (id L31) for every
    k = 1 .. n, as n reports, without raising on disagreement: one
    `char_sigmas` pass over the dual entries of diag(lambda) + t B against
    the deleted-spectrum diagonal sum.  Both routes run over the integers
    d lambda and d B (`_over_common_denominator`); the k-th coefficient is
    homogeneous of degree k in them."""
    values = _values(s)
    if not values:
        raise ArityError("need at least one eigenvalue")
    n = len(values)
    mat = _symmetric_matrix(B, n)
    d, (x, *m) = _over_common_denominator(values, *mat)
    pencil = [[_Dual(x[r] if r == c else 0, m[r][c]) for c in range(n)] for r in range(n)]
    lhs = [sig.b for sig in char_sigmas(pencil, _Dual(1, 0))[1:]]
    rhs = _linear_coefficients_by_deleted_sum(x, [m[i][i] for i in range(n)])
    return [
        ExactReport(lemma="L31", lhs=Fraction(a, d**k), rhs=Fraction(b, d**k), equal=a == b)
        for k, (a, b) in enumerate(zip(lhs, rhs), start=1)
    ]


def _linear_coefficients_by_deleted_sum(values, diagonal) -> list:
    """sum_i sigma_{k-1}(spectrum with i removed) * diagonal_i, k = 1 .. n."""
    out = [0] * len(values)
    for i, d in enumerate(diagonal):
        for k, sig in enumerate(_sigmas(values[:i] + values[i + 1 :], 1)):
            out[k] += sig * d
    return out


def linear_coefficient_sigma(k: int, s: SpectrumLike, B: MatrixLike) -> Fraction:
    """The t-coefficient of sigma_k(diag(lambda) + t B) for a symmetric
    matrix B of exact rationals (0 outside 1 <= k <= n).

    Computed by `char_sigmas` over dual numbers a + t b (t^2 = 0) and
    cross-checked against the deleted-spectrum diagonal sum; MismatchError
    if the routes disagree (they cannot, unless one of them is miscoded --
    this is a self-checking operation)."""
    reports = verify_linear_coefficient(s, B)
    if not 1 <= k <= len(reports):
        return Fraction(0)
    report = reports[k - 1]
    if not report.equal:
        raise MismatchError(f"linear coefficient routes disagree: {report.lhs} vs {report.rhs}")
    return report.lhs


# ── identity verification ────────────────────────────────────────────────


@lru_cache(maxsize=None)
def _l33_table(n: int) -> tuple[tuple, ...]:
    """L33's right-hand side as weighted terms, one row per k = 0 .. n of
    (C(m, j) C(n - m, k - j), k - j, n - m - k + j, m) over m = 0 .. n and
    the j of the double sum, in its order: sigma_bar_k is the sum of
    weight * (a - b)^(k-j) * (a + b)^(n-m-k+j) * sigma_m."""
    return tuple(
        tuple(
            (math.comb(m, j) * math.comb(n - m, k - j), k - j, n - m - k + j, m)
            for m in range(n + 1)
            for j in range(max(0, k - (n - m)), min(m, k) + 1)
        )
        for k in range(n + 1)
    )


def verify_identity(lemma: str, s: SpectrumLike, p: BranchParams | None = None) -> list[ExactReport]:
    """Both sides of one of the L32/L33/L34 identities at every index, as
    one report per index without raising on disagreement: i = 1 .. n (the
    deleted entry) for L32 and L34, k = 0 .. n for L33.  The full-spectrum
    sums are computed once per call.

    L33 and L34 need the branch parameters ``p``, and L32 and L34 a
    spectrum of size at least 3 (ArityError otherwise); an unknown id
    raises ValueError.
    """
    lemma = lemma.upper()
    values = _values(s)
    n = len(values)
    if lemma not in ("L32", "L33", "L34"):
        raise ValueError(f"unknown identity id {lemma!r}")
    if p is None and lemma != "L32":
        raise ArityError(f"{lemma} needs branch parameters")
    if n < 3 and lemma != "L33":
        raise ArityError(f"{lemma} needs a spectrum of size at least 3")

    # every side is homogeneous in (lambda, a, b) once the constant 1 of L32
    # is written as d / d, so both run over the integers d lambda, d a, d b
    d, (x, shifts) = _over_common_denominator(values, [] if lemma == "L32" else [p.a, p.b])
    if lemma == "L33":
        a, b = shifts
        sig = _sigmas(x, 1)
        minus = [(a - b) ** e for e in range(n + 1)]
        plus = [(a + b) ** e for e in range(n + 1)]
        lhs = _pencil_sigmas([(v + a + b, v + a - b) for v in x], 1)
        rhs = [sum(w * minus[i] * plus[j] * sig[m] for w, i, j, m in row) for row in _l33_table(n)]
        degree = n

    else:
        if lemma == "L32":
            # d^n E and d^n O are the real and imaginary parts of prod (d + i x_j)
            pairs = [(d, v) for v in x]
        else:
            a, b = shifts
            pairs = [(v + a + b, v + a - b) for v in x]
        e, o = _alternating(_pencil_sigmas(pairs, 1))
        hats = [_alternating(_pencil_sigmas(pairs[:i] + pairs[i + 1 :], 1)) for i in range(n)]
        deleted = [x[:i] + x[i + 1 :] for i in range(n)]
        if lemma == "L32":
            lhs = [e * e_hat + o * o_hat for e_hat, o_hat in hats]
            rhs = [d * math.prod(d * d + v * v for v in rest) for rest in deleted]
        else:
            lhs = [e * (e_hat + o_hat) - o * (e_hat - o_hat) for e_hat, o_hat in hats]
            rhs = [2**n * b * math.prod((v + a) ** 2 + b * b for v in rest) for rest in deleted]
        degree = 2 * n - 1

    scale = d**degree
    return [
        ExactReport(lemma=lemma, lhs=Fraction(left, scale), rhs=Fraction(right, scale), equal=left == right)
        for left, right in zip(lhs, rhs)
    ]


# ── random exact inputs ──────────────────────────────────────────────────


def random_rational(rng: Random, max_numerator: int = 5, max_denominator: int = 7) -> Fraction:
    return Fraction(rng.randint(-max_numerator, max_numerator), rng.randint(1, max_denominator))


def random_spectrum(
    rng: Random,
    n: int,
    lower: Scalar | None = None,
    max_numerator: int = 5,
    max_denominator: int = 7,
) -> Spectrum:
    """Random exact spectrum; with ``lower`` given, every eigenvalue sits
    strictly above it (useful for branch admissibility)."""
    if n < 1:
        raise ArityError("need n >= 1")
    values = []
    for _ in range(n):
        if lower is None:
            values.append(random_rational(rng, max_numerator, max_denominator))
        else:
            bump = Fraction(rng.randint(1, max_numerator), rng.randint(1, max_denominator))
            values.append(_as_fraction(lower) + bump)
    return Spectrum(values)


def random_symmetric_matrix(
    rng: Random, n: int, max_numerator: int = 5, max_denominator: int = 7
) -> list[list[Fraction]]:
    """Random symmetric matrix of exact rationals."""
    mat = [[Fraction(0)] * n for _ in range(n)]
    for r in range(n):
        for c in range(r, n):
            v = random_rational(rng, max_numerator, max_denominator)
            mat[r][c] = v
            mat[c][r] = v
    return mat


def random_branch_params(rng: Random, nonzero_b: bool = False) -> BranchParams:
    a = random_rational(rng)
    b = random_rational(rng)
    while nonzero_b and b == 0:
        b = random_rational(rng)
    return BranchParams(a, b)
