"""The package's records are immutable named tuples that keep their
constructors, validations and equality, and importing the package loads
no standard-library module it does not use."""

import copy
import json
import math
import pickle
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from kelvinasym import cli
from kelvinasym.equations import AlgebraicForm, ResidualBreakdown
from kelvinasym.exactalg import DimensionError, MultiPoly
from kelvinasym.expand import ExpansionFit, ExpansionState
from kelvinasym.kelvin import HessianReport, Jet2, PhaseBranch, PhaseRow
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
    "PhaseRow": lambda: PhaseRow(eps=-1, alpha=(1, 0), beta=(0, 1), kappa=1, s_free=Fraction(1), s_carry=1),
    "PhaseBranch": lambda: PhaseBranch(kind="ATAN2", tau=1.0, theta=0.5),
    "Jet2": lambda: Jet2(y=(0.1, 0.2), value=1.0, grad=(0.0, 1.0), hess=((1.0, 0.5), (0.5, 2.0))),
    "HessianReport": lambda: HessianReport(max_abs_deviation=0.0, max_rel_deviation=0.0, samples=1, fd_step=1e-4),
    "AlgebraicForm": lambda: AlgebraicForm(branch=_branch(), n=2, theta_free=False, coefficients={"x": 1.0}),
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
    assert math.isclose(branch.a, math.cos(1.0) / math.sin(1.0)) and branch.row.eps == -1
    assert _branch() == _branch() and hash(_branch()) == hash(_branch())
    assert _branch() != PhaseBranch.make("SLAG", 0.25)
    assert Jet2([0.1, 0.2], 1, [0, 1], [[1, 0.5], [0.5, 2]]).grad == (0.0, 1.0)
    state = RECORDS["ExpansionState"]()
    assert state.spectrum == Spectrum([1, 2, 3])
    fit = ExpansionFit([[1, 2], [2 + 1e-13, 1]], [0, 1], 1, 0, -1, 0, [(1, 2)])
    off = 0.5 * (2 + (2 + 1e-13))
    assert fit.A == ((1.0, off), (off, 1.0)) and fit.b == (0.0, 1.0)
    assert ExpansionFit.from_json(fit.to_json()) == fit


def test_reports_write_records_through_their_json_form():
    for name in ("ExactReport", "PhaseBranch", "ExpansionFit"):
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

# (build, error type, the whole message)
REFUSALS = {
    "branch-params-float": (lambda: BranchParams(0.1, 1), TypeError, "expected an exact rational, got float 0.1"),
    "branch-kind": (lambda: PhaseBranch("FOO", 1.0, 0.0), ValueError, "unknown branch kind 'FOO'"),
    "branch-tau": (lambda: PhaseBranch("SLAG", 1.0, 0.0), ValueError, "slope parameter tau=1.0 is not in the SLAG interval"),
    "branch-theta": (lambda: PhaseBranch.make("RECIP", math.inf), ValueError, "phase theta=inf is not finite"),
    "branch-no-tau": (lambda: PhaseBranch.make("LOG", 0.0), ValueError, "branch kind 'LOG' needs an explicit tau"),
    "jet-shape": (lambda: Jet2((0.1, 0.2), 0.0, (0.0,), ((0, 0), (0, 0))), ValueError, "jet shapes are inconsistent"),
    "jet-value": (lambda: Jet2((0.1,), math.nan, (0,), ((0,),)), ValueError, "jet value nan is not finite"),
    "jet-grad": (lambda: Jet2((0.1, 0.2), 0, (0, math.inf), ((0, 0), (0, 0))), ValueError, "jet gradient entry 1 is inf, not finite"),
    "jet-hess": (lambda: Jet2((0.1, 0.2), 0, (0, 0), ((0, math.nan), (0, 0))), ValueError, "jet Hessian entry (0, 1) is nan, not finite"),
    "jet-ball": (lambda: Jet2((0.0, 0.0), 0, (0, 0), ((0, 0), (0, 0))), ValueError, "jet base point must lie in the punctured unit ball, |y|=0.0"),
    "jet-symmetric": (lambda: Jet2((0.1, 0.2), 0, (0, 0), ((0, 1), (0, 0))), ValueError, "jet Hessian must be symmetric to 1e-12"),
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
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_records_refuse_bad_fields_with_their_messages(case):
    build, error, message = REFUSALS[case]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
