"""The package's records are immutable named tuples that keep their
constructors, validations and equality; the constructors that
command-line values reach refuse bad input by name and raise only
ValueError or TypeError; the JSON form a report writes rebuilds its
record; importing the package loads no standard-library module it does
not use; and every public name has a consumer."""

import copy
import importlib
import json
import math
import pickle
import re
import subprocess
import sys
import tokenize
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym import cli
from kelvinasym.equations import ResidualBreakdown, WindowedResidual
from kelvinasym.exactalg import DimensionError, MultiPoly, RadPoly
from kelvinasym.expand import ExpansionFit, ExpansionState
from kelvinasym.kelvin import AdmissibilityError, HessianReport, KelvinFrame, PhaseBranch
from kelvinasym.radial import RadialState
from kelvinasym.symfun import BranchParams, ExactReport, Spectrum

SRC = Path(__file__).resolve().parents[1] / "src"

# modules the package must not load: dataclasses pulls in inspect, ast, dis
# and tokenize, and numpy is the tests' oracle only
_UNUSED = ("dataclasses", "inspect", "statistics", "numpy")

_IMPORT_EVERY_MODULE = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
import kelvinasym.cli
package = os.path.dirname(kelvinasym.cli.__file__)
for name in sorted(os.listdir(package)):
    if name.endswith(".py") and name != "__init__.py":
        __import__("kelvinasym." + name[:-3])
print(json.dumps(sorted(m for m in sys.modules if m.startswith("kelvinasym."))))
print(json.dumps([m for m in sys.argv[2:] if m in sys.modules]))
"""


def test_the_package_loads_no_module_it_does_not_use():
    # -S keeps the host's .pth files, and whatever they import, out of the check
    run = subprocess.run(
        [sys.executable, "-S", "-c", _IMPORT_EVERY_MODULE, str(SRC), *_UNUSED],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert run.returncode == 0, run.stderr
    loaded, unused = map(json.loads, run.stdout.splitlines())
    modules = sorted(f"kelvinasym.{p.stem}" for p in (SRC / "kelvinasym").glob("*.py") if p.stem != "__init__")
    assert loaded == modules
    assert unused == []


def _branch():
    return PhaseBranch.make("SLAG", 0.5)


# one build of each record, by keyword, so the keyword names stay pinned
RECORDS = {
    "BranchParams": lambda: BranchParams(a=Fraction(1, 2), b=3),
    "ExactReport": lambda: ExactReport(lemma="L31", lhs=Fraction(1, 3), rhs=Fraction(1, 3), equal=True),
    "PhaseBranch": lambda: PhaseBranch(kind="ATAN2", tau=1.0, theta=0.5),
    "HessianReport": lambda: HessianReport(max_abs_deviation=0.0, max_rel_deviation=0.0, samples=1, fd_step=1e-4),
    "ResidualBreakdown": lambda: ResidualBreakdown(laplace_term=1.0, nonlinear_term=2.0, total=3.0, linear_factor=4.0),
    "ExpansionState": lambda: ExpansionState(
        n=3, spectrum=[1, 2, 3], P=MultiPoly.const(3, 1), Q=MultiPoly.zero(3), order=2
    ),
    "ExpansionFit": lambda: ExpansionFit(
        A=((1.0,),), b=(0.0,), c=0.0, d=None, decay_slope=-1.0, decay_slope_stderr=0.0, annuli=((1.0, 2.0),)
    ),
    "RadialState": lambda: RadialState(r=1.0, u=0.5, p=1.1, w=0.3, error=0.0),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_records_are_immutable_and_compare_by_value(name):
    record = RECORDS[name]()
    assert type(record).__name__ == name
    for field in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == RECORDS[name]()
    assert copy.copy(record) == record
    assert pickle.loads(pickle.dumps(record)) == record


def test_records_normalise_their_fields():
    params = BranchParams(1, 2)
    assert params == BranchParams(Fraction(1), Fraction(2)) and type(params.a) is Fraction
    branch = PhaseBranch(kind="ATAN2", tau=1.0, theta=0.5)
    assert math.isclose(branch.a, math.cos(1.0) / math.sin(1.0))
    assert _branch() == _branch() and hash(_branch()) == hash(_branch())
    assert _branch() != PhaseBranch.make("SLAG", 0.25)
    state = RECORDS["ExpansionState"]()
    assert state.spectrum == Spectrum([1, 2, 3])
    fit = ExpansionFit([[1, 2], [2 + 1e-13, 1]], [0, 1], 1, 0, -1, 0, [(1, 2)])
    off = 0.5 * (2 + (2 + 1e-13))
    assert fit.A == ((1.0, off), (off, 1.0)) and fit.b == (0.0, 1.0)
    assert fit.to_json() == {
        "A": [[1.0, off], [off, 1.0]],
        "b": [0.0, 1.0],
        "c": 1.0,
        "d": 0.0,
        "decay_slope": -1.0,
        "decay_slope_stderr": 0.0,
        "annuli": [[1.0, 2.0]],
    }


def test_reports_write_records_through_their_json_form():
    for name in ("PhaseBranch", "ExpansionFit"):
        record = RECORDS[name]()
        assert cli._jsonable({"record": record}) == {"record": cli._jsonable(record.to_json())}


def _fit(**changes):
    args = {"A": ((1.0, 0.0), (0.0, 1.0)), "b": (0.0, 0.0), "c": 0.0, "d": None}
    args |= {"decay_slope": -1.0, "decay_slope_stderr": 0.0, "annuli": ((1.0, 2.0),)}
    return ExpansionFit(**(args | changes))


def _state(n=3, spectrum=(1, 2, 3), P=None, Q=None, order=2):
    zero = MultiPoly.zero(3)
    return ExpansionState(n, spectrum, zero if P is None else P, zero if Q is None else Q, order)


_Y = [MultiPoly.variable(3, i) for i in range(3)]
_TOO_LARGE = "rational '%s' is too large: more than 4000 digits or a decimal exponent beyond +-1000"

# (build, error type, the whole message)
REFUSALS = {
    "branch-params-float": (lambda: BranchParams(0.1, 1), TypeError, "expected an exact rational, got float 0.1"),
    "branch-kind": (lambda: PhaseBranch("FOO", 1.0, 0.0), ValueError, "unknown branch kind 'FOO'"),
    "branch-tau": (lambda: PhaseBranch("SLAG", 1.0, 0.0), ValueError, "slope parameter tau=1.0 is not in the SLAG interval"),
    "branch-theta": (lambda: PhaseBranch.make("RECIP", math.inf), ValueError, "phase theta=inf is not finite"),
    "branch-no-tau": (lambda: PhaseBranch.make("LOG", 0.0), ValueError, "branch kind 'LOG' needs an explicit tau"),
    "state-spectrum": (lambda: _state(spectrum=(1, 2)), DimensionError, "spectrum has 2 entries, expected 3"),
    "state-variables": (lambda: _state(P=MultiPoly.zero(2)), DimensionError, "profile polynomials must live in n variables"),
    "state-order": (lambda: _state(order=1), ValueError, "expansion order starts at 2 (the quadratic scale)"),
    "state-smooth": (lambda: _state(P=_Y[0] ** 3), ValueError, "smooth part has degree 3 > order 2"),
    "state-radical-degree": (
        lambda: _state(Q=_Y[0] * _Y[1] * _Y[2], order=3),
        ValueError,
        "radical cofactor has degree 3 > order - n + 2 = 2",
    ),
    "state-radical-origin": (lambda: _state(Q=_Y[0]), ValueError, "radical cofactor must vanish to second order at the origin"),
    "fit-not-rows": (lambda: _fit(A=(1.0, 2.0)), ValueError, "quadratic part must be a square matrix"),
    "fit-ragged": (lambda: _fit(A=((1.0,), (0.0, 1.0))), ValueError, "quadratic part must be a square matrix"),
    "fit-asymmetric": (lambda: _fit(A=((1.0, 0.5), (0.0, 1.0))), ValueError, "quadratic part must be symmetric"),
    "fit-no-b": (lambda: _fit(b=None), ValueError, "linear part must be a vector of matching dimension"),
    "fit-short-b": (lambda: _fit(b=(0.0,)), ValueError, "linear part must be a vector of matching dimension"),
    "fit-log": (
        lambda: _fit(A=((1.0, 0, 0), (0, 1.0, 0), (0, 0, 1.0)), b=(0, 0, 0), d=0.5),
        ValueError,
        "the logarithmic coefficient exists only in dimension 2",
    ),
    "fit-slope": (lambda: _fit(decay_slope=math.nan), ValueError, "decay slope must be finite"),
    # the constructors that the command-line values reach; each refuses, by
    # name, what a JSON record reader used to refuse before it built them
    "poly-zero-denominator": (
        lambda: MultiPoly(1, {(1,): "1/0"}),
        ValueError,
        "not a rational number: '1/0' (Fraction(1, 0))",
    ),
    "poly-infinite-coef": (lambda: MultiPoly(1, {(1,): math.inf}), TypeError, "expected an exact rational, got float inf"),
    "poly-text-exponent": (lambda: MultiPoly(1, {("a",): 1}), DimensionError, "bad exponent ('a',) for 1 variables"),
    "poly-fractional-exponent": (lambda: MultiPoly(1, {(1.5,): 1}), DimensionError, "bad exponent (1.5,) for 1 variables"),
    "poly-negative-exponent": (lambda: MultiPoly(1, {(-1,): 1}), DimensionError, "bad exponent (-1,) for 1 variables"),
    "poly-exponent-beyond-cap": (lambda: MultiPoly(1, {(1,): "1e300000"}), ValueError, _TOO_LARGE % "1e300000"),
    # two keys that spell one exponent
    "poly-repeated-exponent": (
        lambda: MultiPoly(1, {(1,): 1, range(1, 2): 2}),
        DimensionError,
        "exponent (1,) is given twice",
    ),
    "poly-float-n-vars": (lambda: MultiPoly(2.9, {(1, 0): 1}), DimensionError, "variable count 2.9 is not an integer"),
    "poly-no-variables": (lambda: MultiPoly(0), DimensionError, "need at least one variable"),
    "spectrum-zero-denominator": (lambda: Spectrum(["1/0"]), ValueError, "not a rational number: '1/0' (Fraction(1, 0))"),
    "spectrum-infinite": (lambda: Spectrum([math.inf]), TypeError, "expected an exact rational, got float inf"),
    "spectrum-exponent-beyond-cap": (lambda: Spectrum(["2e300000"]), ValueError, _TOO_LARGE % "2e300000"),
    "spectrum-text": (lambda: Spectrum(["x"]), ValueError, "not a rational number: 'x' (Invalid literal for Fraction: 'x')"),
    "radpoly-fractional-power": (
        lambda: RadPoly(3, {0.5: MultiPoly.const(3, 1)}),
        DimensionError,
        "slot power 0.5 is not an integer",
    ),
    "radpoly-variables": (
        lambda: RadPoly(3, {0: MultiPoly.const(2, 1)}),
        DimensionError,
        "slot polynomial has 2 variables, expected 3",
    ),
    "radpoly-no-variables": (lambda: RadPoly(0), DimensionError, "need at least one variable"),
    "frame-one-eigenvalue": (lambda: KelvinFrame(_branch(), [1.0]), ValueError, "a frame needs dimension n >= 2"),
    "frame-short-b": (
        lambda: KelvinFrame(_branch(), [1.0, 2.0], linear=[0.0]),
        ValueError,
        "linear coefficient must have length n",
    ),
    "frame-inadmissible": (
        lambda: KelvinFrame(PhaseBranch.make("RECIP", -1.0), [-2.0, 0.0]),
        AdmissibilityError,
        "eigenvalue -2.0 is not above the RECIP bound -1.0",
    ),
    "frame-inf-theta": (lambda: KelvinFrame(PhaseBranch.slag(math.inf), [1.0, 2.0]), ValueError, "phase theta=inf is not finite"),
    "branch-nan-theta": (lambda: PhaseBranch.make("SLAG", math.nan), ValueError, "phase theta=nan is not finite"),
    "params-zero-denominator": (lambda: BranchParams("1/0", 1), ValueError, "not a rational number: '1/0' (Fraction(1, 0))"),
    "windowed-two-variables": (lambda: WindowedResidual([1, 2]), DimensionError, "the symbolic residual needs n >= 3, got 2"),
    "windowed-float": (lambda: WindowedResidual([1, 0.5, 2]), TypeError, "expected an exact rational, got float 0.5"),
    "windowed-text": (
        lambda: WindowedResidual(["1", "x", "2"]),
        ValueError,
        "not a rational number: 'x' (Invalid literal for Fraction: 'x')",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_records_refuse_bad_fields_with_their_messages(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()


# ── fuzzed constructor arguments ─────────────────────────────────────────

# arbitrary JSON-like values, with rational text beyond the parser's caps
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(["1/0", "1/2", "-3", "2.5", "x", "", "Infinity", "slag", "1e300000", "-1E-1_001", "7" * 4001]),
    st.text(max_size=4),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=3)),
    max_leaves=8,
)
_NUMBERS = st.one_of(_VALUES, st.lists(st.one_of(st.floats(), st.integers(-3, 3), _SCALARS), max_size=4))
_MATRIX = st.one_of(_VALUES, st.lists(_NUMBERS, max_size=3))
_KEYS = st.one_of(st.none(), st.booleans(), st.integers(-1, 3), st.floats(), st.text(max_size=2))
_TERMS = st.one_of(
    st.none(),
    st.dictionaries(st.lists(_KEYS, max_size=3).map(tuple), _SCALARS, max_size=3),
    st.dictionaries(st.tuples(st.integers(0, 2), st.integers(0, 2)), _SCALARS, max_size=3),
)

# each constructor with a strategy for its arguments; the branch of a frame
# is a valid one, since the frame reads it without checking its type
FUZZED = {
    "MultiPoly": (MultiPoly, st.tuples(st.one_of(st.integers(-1, 3), _SCALARS), _TERMS)),
    "Spectrum": (Spectrum, st.tuples(_NUMBERS)),
    "PhaseBranch": (
        PhaseBranch,
        st.tuples(
            st.one_of(st.sampled_from(["SLAG", "RECIP", "ATAN2", "LOG"]), _SCALARS),
            st.one_of(st.floats(), _SCALARS),
            st.one_of(st.floats(), _SCALARS),
        ),
    ),
    "KelvinFrame": (
        KelvinFrame,
        st.tuples(
            st.sampled_from([PhaseBranch.slag(0.5), PhaseBranch.make("RECIP", -1.0), PhaseBranch.make("LOG", 0.1, tau=0.5)]),
            _NUMBERS,
            st.one_of(st.none(), _NUMBERS),
            st.one_of(st.floats(), _SCALARS),
        ),
    ),
    "ExpansionFit": (
        ExpansionFit,
        st.tuples(_MATRIX, _NUMBERS, _SCALARS, _SCALARS, st.one_of(st.floats(), _SCALARS), _SCALARS, _MATRIX),
    ),
    "BranchParams": (BranchParams, st.tuples(_SCALARS, _SCALARS)),
}


@pytest.mark.parametrize("name", sorted(FUZZED))
def test_fuzzed_constructor_raises_only_value_or_type_error(name):
    build, arguments = FUZZED[name]

    @settings(max_examples=150, deadline=None)
    @given(arguments)
    def check(args):
        try:
            build(*args)
        except (ValueError, TypeError):
            pass

    check()


# ── the JSON forms reports write ─────────────────────────────────────────

_FRACTIONS = st.fractions(min_value=-50, max_value=50, max_denominator=1000)
_FINITE = st.floats(-1e6, 1e6, allow_nan=False)


def _poly_from_json(blob):
    return MultiPoly(blob["n_vars"], {tuple(t["exp"]): t["coef"] for t in blob["terms"]})


def _fit_from_json(blob):
    return ExpansionFit(**{"d": None} | blob)


# a record, its JSON form after json.dumps and json.loads, and the record
# built again from that form: the form must keep every field exactly
JSON_FORMS = {
    "MultiPoly": (
        st.integers(1, 3).flatmap(
            lambda n: st.dictionaries(st.tuples(*[st.integers(0, 4)] * n), _FRACTIONS, max_size=5).map(
                lambda terms: MultiPoly(n, terms)
            )
        ),
        _poly_from_json,
    ),
    "Spectrum": (st.lists(_FRACTIONS, max_size=6).map(Spectrum), lambda blob: Spectrum(blob["lambda"])),
    "PhaseBranch": (
        st.one_of(
            st.builds(PhaseBranch.slag, _FINITE),
            st.builds(lambda t: PhaseBranch.make("RECIP", t), _FINITE),
            st.builds(lambda t, tau: PhaseBranch.make("ATAN2", t, tau=tau), _FINITE, st.floats(0.79, 1.57)),
            st.builds(lambda t, tau: PhaseBranch.make("LOG", t, tau=tau), _FINITE, st.floats(0.01, 0.78)),
        ),
        lambda blob: PhaseBranch.make(blob["kind"], blob["theta"], tau=blob.get("tau")),
    ),
    "ExpansionFit": (
        st.integers(2, 3).flatmap(
            lambda n: st.builds(
                lambda rows, b, c, d, slope, err, annuli: ExpansionFit(
                    [[rows[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)],
                    b,
                    c,
                    d if n == 2 else None,
                    slope,
                    err,
                    annuli,
                ),
                st.lists(st.lists(_FINITE, min_size=n, max_size=n), min_size=n, max_size=n),
                st.lists(_FINITE, min_size=n, max_size=n),
                _FINITE,
                st.one_of(st.none(), _FINITE),
                _FINITE,
                _FINITE,
                st.lists(st.tuples(_FINITE, _FINITE), max_size=3),
            )
        ),
        _fit_from_json,
    ),
}


@pytest.mark.parametrize("name", sorted(JSON_FORMS))
def test_json_form_rebuilds_the_record(name):
    records, rebuild = JSON_FORMS[name]

    @settings(max_examples=60, deadline=None)
    @given(records)
    def check(record):
        blob = json.loads(json.dumps(record.to_json()))
        assert blob == record.to_json()
        assert rebuild(blob) == record

    check()


# public names that no other module of the package uses, each with what
# runs it: a subcommand, the routine of its own module that builds, raises
# or reads it, a ROADMAP item, or the tests as an oracle
CONSUMERS = {
    "cli.dispatch": "the command line and the tests",
    "cli.main": "the command line (python -m kelvinasym.cli, the kelvinasym script)",
    "equations.ResidualBreakdown": "the split transformed_residual_exact returns (residual-scaling)",
    "equations.transformed_residual_exact": "residual_scaling_slopes (residual-scaling)",
    "exactalg.harmonic_decomposition": "ROADMAP items 2 and 11",
    "expand.ExpansionFit": "the record fit_expansion returns (fit)",
    "kelvin.HessianReport": "the record hessian_identity_check returns (kelvin-check)",
    "kelvin.ScalarMaps": "PhaseBranch.maps, which the radial integrator reads",
    "kelvin.ZeroPointError": "the scaled inversion (kelvin-check)",
    "kelvin.trace_identity_defect": "ROADMAP item 7",
    "radial.MAX_PLANNED_WORK": "integrate_exterior's work cap (radial)",
    "radial.MAX_SAMPLES": "check_sample_work's cap (radial)",
    "radial.MAX_SAMPLE_COORDINATES": "check_sample_work's cap (radial)",
    "radial.RadialState": "the record integrate_exterior returns (radial)",
    "radial.kernel_name": "perfbench/run.py; ROADMAP item 1 deletes both",
    "symfun.ArityError": "the verifiers' argument checks (lemmas)",
    "symfun.char_sigmas": "verify_linear_coefficient's left side (lemmas)",
    "symfun.BranchParams": "random_branch_params and the shifted verifiers (lemmas)",
    "symfun.ExactReport": "the record each verifier returns (lemmas)",
    "symfun.random_rational": "random_spectrum and random_symmetric_matrix (lemmas, residual-n3)",
    "symfun.sigma_all": "test oracle",
    "symfun.sigma": "test oracle",
    "symfun.sigma_hat": "test oracle",
    "symfun.sigma_bar_all": "test oracle",
    "symfun.sigma_bar": "test oracle",
    "symfun.alternating_sums": "test oracle",
    "symfun.alternating_sums_bar": "test oracle",
}


def _code_names(path: Path) -> set:
    """The identifiers a module's code uses; docstrings and comments do not count."""
    with open(path, "rb") as fh:
        return {tok.string for tok in tokenize.tokenize(fh.readline) if tok.type == tokenize.NAME}


def test_every_public_name_has_a_consumer():
    # a public name is one in the module's __all__, or, in a module without
    # one, a top-level name the module defines and does not begin with _
    modules = {p.stem: _code_names(p) for p in (SRC / "kelvinasym").glob("*.py") if p.stem != "__init__"}
    unused = []
    for stem in sorted(modules):
        module = importlib.import_module(f"kelvinasym.{stem}")
        public = getattr(module, "__all__", None)
        if public is None:
            public = [
                name
                for name, value in vars(module).items()
                if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
            ]
        for name in public:
            used = any(name in names for other, names in modules.items() if other != stem)
            if not used and f"{stem}.{name}" not in CONSUMERS:
                unused.append(f"{stem}.{name}")
    assert unused == []
    # and the table names no consumer for a name that is gone or now used
    for key in CONSUMERS:
        stem, name = key.split(".")
        assert hasattr(importlib.import_module(f"kelvinasym.{stem}"), name), key
        assert not any(name in names for other, names in modules.items() if other != stem), key
