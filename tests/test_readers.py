"""JSON and CSV record readers: a malformed record raises only ValueError,
and the message names the record kind.

Fuzzed records keep the expected keys and put arbitrary JSON values under
them, since a random JSON object rarely reaches past the first key lookup.
Rational text includes exponents and digit counts beyond the caps of the
rational parser."""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from kelvinasym.exactalg import MultiPoly
from kelvinasym.expand import read_fit
from kelvinasym.kelvin import KelvinFrame, PhaseBranch
from kelvinasym.radial import read_trajectory
from kelvinasym.symfun import Spectrum

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.floats(),
    st.sampled_from(
        ["1/0", "1/2", "-3", "2.5", "x", "", "Infinity", "slag", "recip", "1e300000", "-1E-1_001", "7" * 4001]
    ),
    st.text(max_size=4),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(st.text(max_size=3), inner, max_size=3),
    ),
    max_leaves=8,
)


def _record(required: dict, optional: dict | None = None):
    """JSON objects with the given keys, each holding its strategy's value."""
    return st.one_of(_JSON, st.fixed_dictionaries(required, optional=optional or {}))


_EXP = st.one_of(_JSON, st.lists(st.one_of(st.integers(-1, 3), _SCALARS), max_size=3))
_POLY = _record(
    {
        "n_vars": st.one_of(st.integers(-1, 3), _SCALARS),
        "terms": st.one_of(
            _JSON, st.lists(_record({"coef": _SCALARS, "exp": _EXP}), max_size=3)
        ),
    }
)
_NUMBERS = st.one_of(_JSON, st.lists(st.one_of(st.floats(), st.integers(-3, 3), _SCALARS), max_size=4))
_SPECTRUM = _record({"n": st.one_of(st.integers(-1, 4), _SCALARS), "lambda": _NUMBERS})
_BRANCH = _record(
    {"kind": _SCALARS, "theta": st.one_of(st.floats(), _SCALARS)}, {"tau": st.one_of(st.floats(), _SCALARS)}
)
_FRAME = _record(
    {"branch": _BRANCH, "lambda": _NUMBERS},
    {"n": st.one_of(st.integers(-1, 4), _SCALARS), "b": _NUMBERS, "c": _SCALARS},
)
_MATRIX = st.one_of(_JSON, st.lists(_NUMBERS, max_size=3))
_FIT = _record(
    {
        "A": _MATRIX,
        "b": _NUMBERS,
        "c": _SCALARS,
        "decay_slope": _SCALARS,
        "decay_slope_stderr": _SCALARS,
    },
    {"d": _SCALARS, "annuli": st.one_of(_JSON, st.lists(_NUMBERS, max_size=3))},
)


# ── the failures each reader used to let through ─────────────────────────


def _poly_term(coef, exp):
    return {"n_vars": 1, "terms": [{"coef": coef, "exp": exp}]}


def _poly_n_vars(n_vars):
    """A record whose exponents have as many entries as int(n_vars)."""
    exp = [1] + [0] * (int(n_vars) - 1)
    return {"n_vars": n_vars, "terms": [{"coef": "1", "exp": exp}]}


@pytest.mark.parametrize(
    "reader, record, kind",
    [
        (MultiPoly.from_json, _poly_term("1/0", [1]), "polynomial"),
        (MultiPoly.from_json, _poly_term(float("inf"), [1]), "polynomial"),
        (MultiPoly.from_json, _poly_term("1", ["a"]), "polynomial"),
        (MultiPoly.from_json, _poly_term("1", [1.5]), "polynomial"),
        (MultiPoly.from_json, _poly_term("1e300000", [1]), "polynomial"),
        (MultiPoly.from_json, {"n_vars": 1, "terms": [{"coef": "1", "exp": [1]}] * 2}, "polynomial"),
        (MultiPoly.from_json, _poly_n_vars(2.9), "polynomial"),
        (MultiPoly.from_json, _poly_n_vars(True), "polynomial"),
        (MultiPoly.from_json, _poly_n_vars("3"), "polynomial"),
        (Spectrum.from_json, {"n": 1, "lambda": ["1/0"]}, "spectrum"),
        (Spectrum.from_json, {"n": 1, "lambda": [float("inf")]}, "spectrum"),
        (Spectrum.from_json, {"n": 1, "lambda": ["2e300000"]}, "spectrum"),
        (Spectrum.from_json, {"n": 2.9, "lambda": ["1", "2"]}, "spectrum"),
        (Spectrum.from_json, {"n": "2", "lambda": ["1", "2"]}, "spectrum"),
        (
            KelvinFrame.from_json,
            {"branch": {"kind": "SLAG", "theta": 1.0}, "lambda": [1.0, 2.0], "n": 2.5},
            "frame",
        ),
        (
            KelvinFrame.from_json,
            {"branch": {"kind": "SLAG", "theta": 1.0}, "lambda": [1.0, 2.0], "b": 5},
            "frame",
        ),
        (
            KelvinFrame.from_json,
            {"branch": {"kind": "SLAG", "theta": 1.0}, "lambda": [float("nan"), 1.0]},
            "frame",
        ),
        (PhaseBranch.from_json, {"kind": "SLAG", "theta": float("nan")}, "branch"),
        (
            KelvinFrame.from_json,
            {"branch": {"kind": "SLAG", "theta": float("inf")}, "lambda": [1.0, 2.0]},
            "frame",
        ),
    ],
    ids=[
        "poly-zero-denominator",
        "poly-infinite-coef",
        "poly-text-exponent",
        "poly-fractional-exponent",
        "poly-exponent-beyond-cap",
        "poly-repeated-exponent",
        "poly-float-n-vars",
        "poly-bool-n-vars",
        "poly-text-n-vars",
        "spectrum-zero-denominator",
        "spectrum-infinite",
        "spectrum-exponent-beyond-cap",
        "spectrum-float-n",
        "spectrum-text-n",
        "frame-float-n",
        "frame-scalar-b",
        "frame-nan-eigenvalue",
        "branch-nan-theta",
        "frame-inf-theta",
    ],
)
def test_malformed_record_raises_value_error_naming_it(reader, record, kind):
    with pytest.raises(ValueError, match=f"malformed {kind} record"):
        reader(json.loads(json.dumps(record)))


def test_frame_rejects_non_finite_values_naming_them():
    branch = PhaseBranch.slag(1.0)
    with pytest.raises(ValueError, match="frame value nan is not finite"):
        KelvinFrame(branch, [float("nan"), 1.0])
    with pytest.raises(ValueError, match="frame value inf is not finite"):
        KelvinFrame(branch, [float("inf"), 1.0])
    with pytest.raises(ValueError, match="frame value -inf is not finite"):
        KelvinFrame(branch, [1.0, 1.0], linear=[0.0, float("-inf")])
    with pytest.raises(ValueError, match="frame value nan is not finite"):
        KelvinFrame(branch, [1.0, 1.0], constant=float("nan"))


# ── fuzzed records ───────────────────────────────────────────────────────


@pytest.mark.parametrize(
    "reader, records",
    [
        (MultiPoly.from_json, _POLY),
        (Spectrum.from_json, _SPECTRUM),
        (PhaseBranch.from_json, _BRANCH),
        (KelvinFrame.from_json, _FRAME),
    ],
    ids=["MultiPoly", "Spectrum", "PhaseBranch", "KelvinFrame"],
)
def test_fuzzed_from_json_raises_only_value_error(reader, records):
    @settings(max_examples=150, deadline=None)
    @given(records)
    def check(record):
        try:
            reader(record)
        except ValueError:
            pass

    check()


def _read_text(reader, text: str):
    with tempfile.TemporaryDirectory() as scratch:
        path = os.path.join(scratch, "record")
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        return reader(path)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_FIT.map(json.dumps), st.text(max_size=20)))
def test_fuzzed_read_fit_raises_only_value_error(text):
    try:
        _read_text(read_fit, text)
    except ValueError:
        pass


_TRAJECTORY_LINE = st.lists(
    st.one_of(st.floats().map(repr), st.sampled_from(["", "x", "1", "nan", "1e999"]), st.text(max_size=3)),
    max_size=5,
).map(",".join)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(_TRAJECTORY_LINE, max_size=4).map(
        lambda lines: "\n".join(["r,u,du,error_estimate", *lines])
    )
    | st.text(max_size=30)
)
def test_fuzzed_read_trajectory_raises_only_value_error(text):
    try:
        rows = _read_text(read_trajectory, text)
    except ValueError:
        return
    assert all(len(row) == 4 and all(isinstance(v, float) for v in row) for row in rows)
