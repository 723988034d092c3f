"""Asymptotic expansion machinery for exterior solutions.

Two halves live here.  The exact half is the degree-by-degree correction
recursion in any n >= 3: each step reads the forced obstruction off the
transformed residual's terms whose power of ``|y|`` has the parity of n,
and solves a radial-weight Poisson equation for the next radical
correction, all in rational arithmetic.  The numerical half recovers the
quadratic part, affine tail, and remainder decay rate of a sampled
exterior solution by least squares over annuli.  It runs on the standard
library:
the samples are sorted by radius once, each annulus is a bisected slice
of them, the least squares is a Householder QR of the outermost
annulus's design, and the conditioning budget reads the eigenvalues of
the normal matrix R^T R, found by the symmetric Jacobi solver that also
evaluates the equations.
"""

from __future__ import annotations

import bisect
import csv
import json
import math
import numbers
import operator
from fractions import Fraction
from typing import NamedTuple, Sequence

from .equations import WindowedResidual, _symmetric_eigenvalues
from .exactalg import DimensionError, MultiPoly, RadPoly, _as_fraction, _dot, _sum, solve_radical_poisson
from .symfun import Spectrum

__all__ = [
    "ConditioningError",
    "ExpansionFit",
    "ExpansionState",
    "InsufficientDataError",
    "correct_through",
    "fit_expansion",
    "leading_correction",
    "read_samples",
    "write_fit",
    "write_samples",
]


class InsufficientDataError(ValueError):
    """The samples cannot support the requested fit."""


class ConditioningError(ArithmeticError):
    """The least-squares normal system is numerically too ill-conditioned."""


# ── the exact correction recursion ───────────────────────────────────────


def _as_spectrum(s) -> Spectrum:
    return s if isinstance(s, Spectrum) else Spectrum(s)


class _ExpansionStateFields(NamedTuple):
    n: int
    spectrum: Spectrum
    P: MultiPoly
    Q: MultiPoly
    order: int


class ExpansionState(_ExpansionStateFields):
    """One stage of the exterior expansion: the ball-side profile is
    ``v = P + |y|^(n-2) Q`` with ``P`` the smooth Taylor part through total
    degree ``order`` and ``Q`` the forced radical cofactor.

    ``Q`` always vanishes to second order at the origin, and its degree
    stays below ``order - n + 3``.  ``P`` must respect the order, and only
    its harmonic pieces are free data: in odd n the residual's terms with
    an even power of |y| force non-harmonic terms of ``P`` too.
    `correct_through` reads only the terms of the parity of n and solves
    only for ``Q``, so in odd n every correction after the first is
    incomplete.
    """

    __slots__ = ()

    def __new__(cls, n: int, spectrum, P: MultiPoly, Q: MultiPoly, order: int) -> "ExpansionState":
        spectrum = _as_spectrum(spectrum)
        if spectrum.n != n:
            raise DimensionError(f"spectrum has {spectrum.n} entries, expected {n}")
        if P.n_vars != n or Q.n_vars != n:
            raise DimensionError("profile polynomials must live in n variables")
        if order < 2:
            raise ValueError("expansion order starts at 2 (the quadratic scale)")
        if not P.is_zero and P.total_degree() > order:
            raise ValueError(f"smooth part has degree {P.total_degree()} > order {order}")
        if not Q.is_zero:
            if Q.total_degree() > order - n + 2:
                raise ValueError(
                    f"radical cofactor has degree {Q.total_degree()} "
                    f"> order - n + 2 = {order - n + 2}"
                )
            if any(sum(e) < 2 for e in Q.keys()):
                raise ValueError(
                    "radical cofactor must vanish to second order at the origin"
                )
        return super().__new__(cls, n, spectrum, P, Q, order)


def leading_correction(v0, s) -> MultiPoly:
    """The closed-form quadratic radical correction for a constant leading
    profile ``v0`` in n = len(s) >= 3 variables:

        (n - 2)^2 v0^2 (1/2) sum_i lambda_i y_i^2.

    The returned polynomial q satisfies ``lap(|y|^(n-2) q) = |y|^(n-4) qbar``
    with ``qbar = (n-2)^2 v0^2 [sigma_1 |y|^2 + n (n-2) sum_i lambda_i y_i^2]``
    exactly.  For n = 3 that is the negative of the ``|y|^(-1)`` sector of
    the residual (`WindowedResidual`) at ``v = v0``, and adding the
    correction to ``v`` makes the residual of the original equation decay
    faster along rays (r^-9 against r^-6 for the uncorrected profile).
    """
    spectrum = _as_spectrum(s)
    n = spectrum.n
    if n < 3:
        raise DimensionError(f"the leading correction needs n >= 3, got {n}")
    weight = (n - 2) ** 2 * _as_fraction(v0) ** 2
    base = MultiPoly.zero(n)
    for i, lam in enumerate(spectrum.values):
        yi = MultiPoly.variable(n, i)
        base = base + yi * yi * (Fraction(1, 2) * lam)
    return base * weight


def correct_through(state: ExpansionState, order: int) -> tuple[list[ExpansionState], WindowedResidual]:
    """The correction recursion from ``state`` up to ``order``, in n >= 3
    variables: the state after each step, and the `WindowedResidual` of
    the last one's ``v = P + |y|^(n-2) Q``, whose ``through()`` is its
    whole residual.

    Each step reads the residual only through weight ``order - 1``
    (``through``, where ``|y|^k y^e`` has weight ``k + |e|``), takes its
    weight-(order - 1) terms whose power of ``|y|`` has the parity of n as
    the homogeneous obstruction ``Qtilde`` of degree ``order + 3 - n`` at
    base exponent n - 4 (`RadPoly.part`), and solves the radial-weight
    Poisson equation

        lap(|y|^(n-2) delta) = -|y|^(n-4) Qtilde

    for the forced correction ``delta``, which augments ``Q`` as the order
    advances by one; afterwards the residual has no term of that parity of
    weight <= the new order - 2.  ``|y|^(n-2) delta`` has weight
    ``order + 1``, above every window of a minor of size >= 2 formed so
    far, so the step adds it to the one windowed residual and the next
    step forms only the new window.  In even n, |y|^(n-2) is a
    polynomial, so v stays one too."""
    n = state.n
    if n < 3:
        raise DimensionError(f"the correction recursion needs n >= 3, got {n}")
    residual = WindowedResidual(state.spectrum)
    residual.add(RadPoly(n, {0: state.P, n - 2: state.Q}))
    states = []
    while state.order < order:
        obstruction = residual.through(state.order - 1).part(n - 4, state.order - 1)
        delta = solve_radical_poisson(-obstruction, n)
        residual.add(RadPoly(n, {n - 2: delta}))
        state = ExpansionState(n, state.spectrum, state.P, state.Q + delta, state.order + 1)
        states.append(state)
    return states, residual


# ── sampling and fitting ─────────────────────────────────────────────────


class _ExpansionFitFields(NamedTuple):
    A: tuple[tuple[float, ...], ...]
    b: tuple[float, ...]
    c: float
    d: float | None
    decay_slope: float
    decay_slope_stderr: float
    annuli: tuple


class ExpansionFit(_ExpansionFitFields):
    """Fitted asymptotic data of an exterior solution: the quadratic part
    ``A`` (a tuple of row tuples), affine tail ``b`` (a tuple) and ``c``,
    the logarithmic coefficient ``d`` (two variables only, ``None``
    otherwise), the remainder decay exponent with its regression standard
    error, and the annuli used."""

    __slots__ = ()

    def __new__(cls, A, b, c, d, decay_slope, decay_slope_stderr, annuli) -> "ExpansionFit":
        try:
            a = [[float(v) for v in row] for row in A]
        except TypeError:
            raise ValueError("quadratic part must be a square matrix") from None
        n = len(a)
        if any(len(row) != n for row in a):
            raise ValueError("quadratic part must be a square matrix")
        atol = 1e-12 * (1.0 + max((abs(v) for row in a for v in row), default=0.0))
        if not all(a[i][j] == a[j][i] or abs(a[i][j] - a[j][i]) <= atol for i in range(n) for j in range(n)):
            raise ValueError("quadratic part must be symmetric")
        try:
            bv = tuple(float(v) for v in b)
        except TypeError:
            bv = None
        if bv is None or len(bv) != n:
            raise ValueError("linear part must be a vector of matching dimension")
        if n >= 3 and d is not None:
            raise ValueError("the logarithmic coefficient exists only in dimension 2")
        if not math.isfinite(decay_slope):
            raise ValueError("decay slope must be finite")
        return super().__new__(
            cls,
            tuple(tuple(0.5 * (a[i][j] + a[j][i]) for j in range(n)) for i in range(n)),
            bv,
            float(c),
            None if d is None else float(d),
            float(decay_slope),
            float(decay_slope_stderr),
            tuple((float(lo), float(hi)) for lo, hi in annuli),
        )

    def to_json(self) -> dict:
        data = {
            "A": [list(row) for row in self.A],
            "b": list(self.b),
            "c": self.c,
            "decay_slope": self.decay_slope,
            "decay_slope_stderr": self.decay_slope_stderr,
            "annuli": [[lo, hi] for lo, hi in self.annuli],
        }
        if self.d is not None:
            data["d"] = self.d
        return data


class _FloatSamples(list):
    """Samples as `read_samples` builds them: each a tuple of finite float
    coordinates and a finite float value, so `_split_samples` takes them
    as they are."""


def _split_samples(samples, n: int) -> tuple[list[tuple[float, ...]], list[float], list[float]]:
    """Points, values and radii |x| of the samples, converted to floats
    unless they come from `read_samples`.  ValueError naming the first
    sample with a non-finite entry, DimensionError on a point of another
    dimension than n, InsufficientDataError on no samples."""
    floats = isinstance(samples, _FloatSamples)
    pts = []
    vals = []
    radii = []
    for index, (x, u) in enumerate(samples):
        point, value = (x, u) if floats else (tuple(map(float, x)), float(u))
        radius = math.hypot(*point)
        # a finite radius needs finite coordinates, and huge finite ones
        # can overflow it, so only an infinite radius checks them one by one
        if not math.isfinite(value) or not (math.isfinite(radius) or all(map(math.isfinite, point))):
            raise ValueError(f"sample {index} is not finite: x = {point}, u = {value!r}")
        if len(point) != n:
            raise DimensionError(f"samples have {len(point)} coordinates, expected {n}")
        pts.append(point)
        vals.append(value)
        radii.append(radius)
    if not pts:
        raise InsufficientDataError("no samples given")
    return pts, vals, radii


def _form(M, p) -> float:
    """p^T M p, with M a sequence of rows."""
    return _dot(p, [_dot(row, p) for row in M])


def _model_values(pts, A, b, c: float, d: float | None) -> list[float]:
    """x^T A x / 2 + b.x + c at each point, plus (d / 2) log(x^T (I + A^2) x)
    when d is given."""
    frame = None if d is None else _log_frame(A)
    out = []
    for p in pts:
        value = 0.5 * _form(A, p) + _dot(b, p) + c
        if frame is not None:
            value += 0.5 * d * math.log(_form(frame, p))
        out.append(value)
    return out


def _log_frame(A) -> list[list[float]]:
    """I + A^2, the matrix of the logarithmic column's quadratic form."""
    n = len(A)
    return [
        [(1.0 if i == j else 0.0) + _sum(A[i][k] * A[k][j] for k in range(n)) for j in range(n)]
        for i in range(n)
    ]


def _use_log(n: int, with_log: bool | None) -> bool:
    """Whether a fit in n dimensions carries the logarithmic column: by
    default exactly in n = 2, and DimensionError refuses it elsewhere."""
    if with_log and n != 2:
        raise DimensionError("the logarithmic column exists only in dimension 2")
    return n == 2 if with_log is None else bool(with_log)


def _fit_columns(n: int, with_log: bool) -> int:
    """Columns of the design: x_i x_j (i <= j), x_i, 1, and the log column."""
    return n * (n + 1) // 2 + n + 1 + (1 if with_log else 0)


def _quadratic_design(coords) -> list[list[float]]:
    """The design's columns for the basis {x_i x_j / (1 + [i = j]), x_i, 1},
    built from the coordinates' columns; every column is a new list."""
    mul = operator.mul
    cols = []
    for i, xi in enumerate(coords):
        cols.append([0.5 * v for v in map(mul, xi, xi)])
        cols += [list(map(mul, xi, xj)) for xj in coords[i + 1 :]]
    cols += [list(xi) for xi in coords]
    cols.append([1.0] * len(coords[0]))
    return cols


def _householder_qr(columns, rhs) -> tuple[list[list[float]], list[float]]:
    """R and the first k entries of Q^T rhs for the m x k design given by its
    k columns (m >= k), by Householder reflections applied column by
    column.  Overwrites the columns and rhs; R comes back as its columns."""
    k = len(columns)
    work = [*columns, rhs]
    R = [[0.0] * k for _ in range(k)]
    for j in range(k):
        x = work[j][j:]
        norm = math.sqrt(_dot(x, x))
        R[j][j] = alpha = -norm if x[0] >= 0.0 else norm
        if norm != 0.0:
            x[0] -= alpha  # the reflector H = I - 2 v v^T / v.v, with v = x
            two_over = 2.0 / _dot(x, x)
            for col in work[j + 1 :]:
                seg = col[j:]
                t = two_over * _dot(x, seg)
                col[j:] = [s - t * w for s, w in zip(seg, x)]
        for col, rest in zip(R[j + 1 :], work[j + 1 : k]):
            col[j] = rest[j]
    return R, rhs[:k]


def _solve_least_squares(columns, rhs) -> list[float]:
    """min |D c - rhs| for the design D given by its columns, which it
    overwrites, as it does rhs.  The condition number of the normal matrix
    N = D^T D = R^T R, with R the QR factor, must stay within 1e12, else
    ConditioningError; it is the ratio of N's extreme eigenvalues.  N is
    formed in floats, which fixes its smallest eigenvalue only to about
    1e-16 of its largest, so near the budget the ratio is known to about
    1e-4 relative, and only designs that close to 1e12 can change verdict."""
    R, qtb = _householder_qr(columns, rhs)
    eig = _symmetric_eigenvalues([[_dot(ri, rj) for rj in R] for ri in R])
    cond = math.inf if eig[0] <= 0.0 else eig[-1] / eig[0]
    if cond > 1e12:
        raise ConditioningError(
            f"normal-system condition {cond:.3e} exceeds the 1e12 budget"
        )
    k = len(R)
    coef = [0.0] * k
    for j in reversed(range(k)):
        coef[j] = (qtb[j] - _sum(R[l][j] * coef[l] for l in range(j + 1, k))) / R[j][j]
    return coef


def _unpack_quadratic(coef, n: int, scale: float):
    A = [[0.0] * n for _ in range(n)]
    pos = 0
    for i in range(n):
        for j in range(i, n):
            A[i][j] = A[j][i] = coef[pos] / scale**2
            pos += 1
    b = [v / scale for v in coef[pos : pos + n]]
    c = float(coef[pos + n])
    return A, b, c


# annuli one fit may scan.  Each annulus is a bisected slice of the sorted
# radii plus a median over its samples, and the decay slope needs a
# handful, so the cap bounds the bookkeeping far above any useful fit
MAX_ANNULI = 1000

# Work of one least-squares solve: columns^2 x rows for the Householder QR
# of the outermost annulus's design, plus 25 columns^3 for the normal
# matrix R^T R and its Jacobi eigenvalues.  On 2 CPUs a unit took 90 ns at
# n = 3 on 50,100 rows (the outer annulus of a 198,100-sample file, 5M
# units, 0.45 s) and 35-55 ns at n = 12 and 16 on four rows per column,
# where the eigenvalues dominate (22M units in 0.75-1.23 s, 104M in
# 3.9-5.6 s).  So the cap is at most about 18 s; the design it admits at
# n = 3 (2M rows of 10 columns) holds 0.65 GB.
MAX_FIT_WORK = 200_000_000


def check_fit_work(n: int, rows: int | None, with_log: bool | None = None) -> None:
    """ValueError, naming the count, unless a fit in n dimensions over
    ``rows`` samples of the outermost annulus stays within MAX_FIT_WORK.
    ``rows = None`` counts the fewest rows a fit accepts, one per column,
    so a dimension can be refused before any sample is read; ``with_log``
    is as for `fit_expansion`, and DimensionError refuses it outside n = 2."""
    columns = _fit_columns(n, _use_log(n, with_log))
    rows = columns if rows is None else rows
    work = columns * columns * (rows + 25 * columns)
    if work > MAX_FIT_WORK:
        raise ValueError(
            f"a fit in dimension {n} solves for {columns} coefficients over {rows} samples, "
            f"{work} units of work (columns^2 x (rows + 25 columns)), more than {MAX_FIT_WORK}"
        )


def _check_annuli(num_annuli, annuli) -> None:
    if not isinstance(num_annuli, numbers.Integral) or not 3 <= num_annuli <= MAX_ANNULI:
        raise ValueError(f"num_annuli must be an integer in 3..{MAX_ANNULI}, got {num_annuli!r}")
    if annuli is not None and len(annuli) > MAX_ANNULI:
        raise ValueError(f"{len(annuli)} annuli given, more than {MAX_ANNULI}")


def _make_annuli(radii: list[float], annuli, num_annuli: int) -> list[tuple[float, float]]:
    """The annuli, sorted; by default num_annuli geometric rings from the
    smallest to the largest of the sorted radii, both ends exact."""
    if annuli is not None:
        out = sorted((float(lo), float(hi)) for lo, hi in annuli)
        if any(hi <= lo for lo, hi in out):
            raise ValueError("each annulus needs r_min < r_max")
        return out
    r_lo = radii[0]
    r_hi = radii[-1]
    if r_lo <= 0.0:
        raise InsufficientDataError("samples at the origin cannot be fitted")
    if r_hi <= r_lo:
        raise InsufficientDataError("samples must span a range of radii")
    ratio = r_hi / r_lo
    edges = [r_lo] + [r_lo * ratio ** (k / num_annuli) for k in range(1, num_annuli)] + [r_hi]
    return [(edges[k], edges[k + 1]) for k in range(num_annuli)]


def _rings(radii: list[float], annuli) -> list[tuple[tuple[float, float], int, int]]:
    """The populated annuli with the slice [start, end) of the sorted radii
    each holds: r_min <= r < r_max, and r = r_max too for the outermost."""
    out = []
    top = max((hi for _, hi in annuli), default=None)
    for lo, hi in annuli:
        start = bisect.bisect_left(radii, lo)
        end = (bisect.bisect_right if hi == top else bisect.bisect_left)(radii, hi)
        if end > start:
            out.append(((lo, hi), start, end))
    return out


def _median(values) -> float:
    """The middle of the sorted values, or the mean of the two middle ones
    for an even count, as ``statistics.median`` takes it."""
    s = sorted(values)
    i = len(s) // 2
    return s[i] if len(s) % 2 else (s[i - 1] + s[i]) / 2


def fit_expansion(
    samples,
    n: int,
    *,
    num_annuli: int = 6,
    annuli: Sequence[tuple[float, float]] | None = None,
    with_log: bool | None = None,
) -> ExpansionFit:
    """Least-squares recovery of the asymptotic data of a sampled exterior
    solution.

    The quadratic basis {x_i x_j, x_i, 1} is fitted on the outermost
    annulus with coordinates normalized by the outer radius, by Householder
    QR; in two variables the basis gains the term (1/2) log(x^T (I + A^2)
    x), with A taken from a first quadratic-only pass and the
    log-augmented solve iterated twice.  The remainder decay exponent is
    the slope of log(median |u - fit|) against log(median radius) across
    the annuli; the outermost annulus anchors the fit, so its own
    remainder is regression residue rather than decay signal and it is
    left out of the slope whenever at least four annuli are populated.
    For an unbiased slope, place the outermost annulus well beyond the
    annuli that probe the decay: the constant column absorbs the
    remainder's local mean on the fit annulus, which floors the believable
    remainder at roughly |u - quadratic| there.  ``with_log`` overrides
    the dimension rule for the logarithmic column (it defaults to
    ``n == 2``), which lets callers measure how much of the residual that
    column explains.  The samples are sorted by radius once, so each
    annulus is a bisected slice of them.

    Raises ValueError naming the first sample with a non-finite
    coordinate or value, a num_annuli outside 3..MAX_ANNULI, more than
    MAX_ANNULI explicit annuli, or a solve over MAX_FIT_WORK
    (`check_fit_work`); DimensionError on ``with_log`` outside n = 2,
    before any sample is read, on n < 2, or on samples of another
    dimension; InsufficientDataError when fewer than four samples per
    parameter are given or fewer than three annuli are populated; and
    ConditioningError when the normal system is effectively singular.
    """
    _check_annuli(num_annuli, annuli)
    use_log = _use_log(n, with_log)
    pts, vals, by_radius = _split_samples(samples, n)
    if n < 2:
        raise DimensionError("fitting needs dimension n >= 2")

    count_params = _fit_columns(n, use_log)
    if len(pts) < 4 * count_params:
        raise InsufficientDataError(
            f"need at least {4 * count_params} samples to fit "
            f"{count_params} parameters, got {len(pts)}"
        )
    order = sorted(range(len(pts)), key=by_radius.__getitem__)
    radii = [by_radius[i] for i in order]
    rings = _rings(radii, _make_annuli(radii, annuli, num_annuli))
    if len(rings) < 3:
        raise InsufficientDataError(
            f"samples populate only {len(rings)} annuli; need at least 3"
        )
    (outer_lo, outer_hi), start, end = rings[-1]
    if end - start < count_params:
        raise InsufficientDataError(
            f"outermost annulus [{outer_lo:g}, {outer_hi:g}] holds "
            f"{end - start} samples; need at least {count_params}"
        )
    check_fit_work(n, end - start, use_log)

    scale = radii[-1]
    outer = order[start:end]
    p_out = [pts[i] for i in outer]
    u_out = [vals[i] for i in outer]
    coords = [[p[i] / scale for p in p_out] for i in range(n)]

    coef = _solve_least_squares(_quadratic_design(coords), list(u_out))
    A, b, c = _unpack_quadratic(coef, n, scale)
    d: float | None = None
    if use_log:
        for _ in range(2):
            frame = _log_frame(A)
            log_col = [0.5 * math.log(_form(frame, p)) for p in p_out]
            coef = _solve_least_squares(_quadratic_design(coords) + [log_col], list(u_out))
            A, b, c = _unpack_quadratic(coef[:-1], n, scale)
            d = float(coef[-1])

    slope_rings = rings[:-1] if len(rings) >= 4 else rings
    log_r = []
    log_m = []
    for _, start, end in slope_rings:
        members = order[start:end]
        model = _model_values([pts[i] for i in members], A, b, c, d)
        remainder = [abs(vals[i] - m) for i, m in zip(members, model)]
        log_r.append(math.log(_median(radii[start:end])))
        log_m.append(math.log(max(_median(remainder), 1e-300)))
    mean_r = _sum(log_r) / len(log_r)
    mean_m = _sum(log_m) / len(log_m)
    xc = [x - mean_r for x in log_r]
    yc = [y - mean_m for y in log_m]
    sxx = _dot(xc, xc)
    slope = _dot(xc, yc) / sxx
    resid = [y - slope * x for x, y in zip(xc, yc)]
    dof = max(len(xc) - 2, 1)
    stderr = math.sqrt(_dot(resid, resid) / dof / sxx)

    return ExpansionFit(
        A=A,
        b=b,
        c=c,
        d=d,
        decay_slope=slope,
        decay_slope_stderr=stderr,
        annuli=tuple(ring for ring, _, _ in rings),
    )


# ── sample and fit files ─────────────────────────────────────────────────


def write_samples(path, samples) -> None:
    """Write exterior samples as CSV with header ``x1,...,xn,u``.

    Every sample is checked before the file is opened: ValueError on a
    non-finite entry or a point of another dimension than the first,
    InsufficientDataError on no samples.  Each row is then written as
    one ``%r,...,%r`` line ending in CRLF: the bytes `csv.writer` writes,
    since a finite float's repr never needs quoting.
    """
    samples = list(samples)
    n = None
    for index, (x, u) in enumerate(samples):
        point = [float(c) for c in x]
        value = float(u)
        if not all(map(math.isfinite, point)) or not math.isfinite(value):
            raise ValueError(f"sample {index} is not finite: x = {tuple(point)}, u = {value!r}")
        if n is None:
            n = len(point)
        elif len(point) != n:
            raise ValueError(f"sample {index} has {len(point)} coordinates, expected {n}")
    if n is None:
        raise InsufficientDataError("no samples given")
    # formatted while written, not held: a list of every line would raise
    # the peak RSS of a million samples by half
    line = ",".join(["%r"] * (n + 1)) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join([f"x{i + 1}" for i in range(n)] + ["u"]) + "\r\n")
        fh.writelines(line % (*map(float, x), float(u)) for x, u in samples)


def read_samples(path) -> list[tuple[tuple[float, ...], float]]:
    """Read exterior samples from CSV with header ``x1,...,xn,u``, as
    tuples of float coordinates and a float value, which `fit_expansion`
    takes without converting them again.

    ValueError on a malformed header, a row of the wrong width, or a
    non-numeric or non-finite value, naming the file row.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty sample file") from None
        expected = [f"x{i + 1}" for i in range(len(header) - 1)] + ["u"]
        if [h.strip() for h in header] != expected or len(header) < 2:
            raise ValueError(
                f"{path}: header must be x1,...,xn,u; got {','.join(header)}"
            )
        n = len(header) - 1
        samples = _FloatSamples()
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != n + 1:
                raise ValueError(f"{path}: row {line_no} has {len(row)} fields")
            try:
                values = tuple(map(float, row))
            except ValueError:
                raise ValueError(f"{path}: row {line_no} is not numeric: {','.join(row)}") from None
            if not all(map(math.isfinite, values)):
                raise ValueError(f"{path}: row {line_no} is not finite: {','.join(row)}")
            samples.append((values[:n], values[n]))
    if not samples:
        raise ValueError(f"{path}: no sample rows")
    return samples


def write_fit(path, fit: ExpansionFit) -> None:
    """Write a fit record as JSON."""
    with open(path, "w") as fh:
        json.dump(fit.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")
