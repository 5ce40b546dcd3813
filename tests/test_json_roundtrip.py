"""Property test of the JSON function files: write, read back, verify.

Every series is built by ``schur_from_parameters`` from drawn Schur
parameters, so each one is a valid disk self-map.  A series and a structured
mapping must come back from ``json.dumps``/``json.loads`` unchanged, and
``verify --file`` on the written file must give the margin that
``evaluate_kind`` gives in process.
"""

import cmath
import contextlib
import io
import json
import math
import os
import tempfile

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from bohrlab.cli import main  # noqa: E402
from bohrlab.functionals import FunctionalKind  # noqa: E402
from bohrlab.harness import evaluate_kind  # noqa: E402
from bohrlab.series import (  # noqa: E402
    LacunarySeries,
    schur_from_parameters,
    series_from_json,
    series_to_json,
)
from bohrlab.spaces import (  # noqa: E402
    BanachFunction,
    MappingForm,
    SpaceSpec,
    banach_from_json,
    banach_to_json,
    slice_series,
    unit_vector,
)

_SETTINGS = hypothesis.settings(max_examples=60, deadline=None, database=None, derandomize=True)

# Moduli in [0, 1]: a unimodular parameter ends the sequence.
_PARAMETER = st.builds(
    cmath.rect, st.floats(min_value=0.0, max_value=1.0), st.floats(min_value=0.0, max_value=6.3)
)
_SERIES = st.builds(
    schur_from_parameters,
    st.lists(_PARAMETER, max_size=6),
    st.integers(min_value=0, max_value=40),
)
_RADIUS = st.floats(min_value=0.01, max_value=0.9)
_CENTER = FunctionalKind.rogosinski_center(1.0, 1)  # takes any series


@st.composite
def _lacunary(draw):
    p = draw(st.integers(min_value=1, max_value=4))
    m = draw(st.integers(min_value=0, max_value=p - 1))
    return LacunarySeries(m, p, draw(_SERIES))


def _space():
    return st.builds(
        SpaceSpec, st.integers(min_value=1, max_value=3), st.sampled_from([1.0, 1.5, 2.0, math.inf])
    )


@st.composite
def _unit(draw, spec):
    parts = st.floats(min_value=-1.0, max_value=1.0)
    vec = draw(st.lists(st.builds(complex, parts, parts), min_size=spec.dim, max_size=spec.dim))
    hypothesis.assume(max(map(abs, vec)) > 0.1)
    return unit_vector(vec, spec)


@st.composite
def _mapping(draw):
    form = draw(st.sampled_from(list(MappingForm)))
    space = draw(_space())
    u = draw(_unit(space))
    if form is not MappingForm.VECTOR_VALUED:
        return BanachFunction(form, space, u, draw(_SERIES))
    target = draw(_space())
    return BanachFunction(form, space, u, draw(_SERIES), target, draw(_unit(target)))


def _through_text(data: dict) -> dict:
    return json.loads(json.dumps(data))


def _verify_margin(data: dict, kind_flags: list[str], r: float) -> float:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(data, fh)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            status = main(["verify", "--file", path, *kind_flags, "--r", repr(r)])
    assert status in (0, 1), status
    return json.loads(out.getvalue())["margin"]


@_SETTINGS
@hypothesis.given(f=_SERIES)
def test_plain_series_round_trip(f):
    back = series_from_json(_through_text(series_to_json(f)))
    assert (back.m, back.p) == (0, 1)
    assert back.g == f


@_SETTINGS
@hypothesis.given(f=_lacunary(), r=_RADIUS)
def test_lacunary_series_round_trip_and_verify(f, r):
    data = series_to_json(f)
    assert series_from_json(_through_text(data)) == f
    kind = FunctionalKind.lacunary(f.p, f.m)
    assert _verify_margin(data, ["--kind", "A_PM"], r) == evaluate_kind(kind, f, r).margin
    flags = ["--kind", "H_PN", "--p-exp", "1.0", "--n", "1"]
    assert _verify_margin(data, flags, r) == evaluate_kind(_CENTER, f, r).margin


@_SETTINGS
@hypothesis.given(f=_mapping(), r=_RADIUS)
def test_mapping_round_trip_and_verify(f, r):
    data = banach_to_json(f)
    assert banach_from_json(_through_text(data)) == f
    flags = ["--kind", "H_PN", "--p-exp", "1.0", "--n", "1"]
    want = evaluate_kind(_CENTER, slice_series(f, f.u), r).margin
    assert _verify_margin(data, flags, r) == want
