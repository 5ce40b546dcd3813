"""Property tests: a radius grid is its radii one at a time, on random files and grids.

For every kind in ``KINDS`` (``GRID_KINDS`` of ``tests/test_radius_grid.py``),
on campaign rows and on plain, lacunary and ball-map files with T from 0 to
1,500, over grids that mix r = 0, radii where r^m underflows, and the radii
the evaluators refuse: each ``evaluate_grid`` report is ``evaluate_kind``'s
at its radius, and each ``sweep`` row is ``verify``'s.  Skipped without
hypothesis.
"""

import contextlib
import csv
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from test_radius_grid import GRID_KINDS  # noqa: E402

from bohrlab.cli import EXIT_USAGE, STATUS_EXIT, _load_function, main  # noqa: E402
from bohrlab.harness import campaign_function, evaluate_grid, evaluate_kind  # noqa: E402
from bohrlab.series import (  # noqa: E402
    LacunarySeries,
    RadiusError,
    schur_from_parameters,
    series_to_json,
)
from bohrlab.spaces import (  # noqa: E402
    BanachFunction,
    MappingForm,
    SpaceSpec,
    banach_to_json,
    unit_vector,
)

#: r = 0, radii whose powers r^m (m <= 3) or r^(2s) underflow, and ordinary ones.
_SPECIAL_RADII = (0.0, 5e-324, 1e-300, 1e-200, 1e-160, 1e-120, 1e-8, 0.5, 0.99)
_RADII = st.sampled_from(_SPECIAL_RADII) | st.floats(min_value=0.0, max_value=0.994)
_REFUSED = (-0.1, 0.995, math.nan, math.inf)
_DISK = st.tuples(st.floats(0.0, 0.98), st.floats(0.0, 2.0 * math.pi)).map(
    lambda t: complex(t[0] * math.cos(t[1]), t[0] * math.sin(t[1])))


def _flags(kind):
    flags = ["--kind", kind.tag.value]
    for name in kind.spec.params:
        value = getattr(kind, name)
        text = ",".join(map(repr, value)) if name == "d" else repr(value)
        flags += [f"--{name.replace('_', '-')}", text]
    return flags


@st.composite
def _documents(draw, kind):
    """A function file's JSON document that ``kind`` can evaluate."""
    m, n = kind.spec.support(kind)
    plain = (m, n) == (0, 1) and (not kind.spec.lacunary or (kind.p, kind.m) == (1, 0))
    source = draw(st.sampled_from(["campaign", "file", "ball"] if plain else ["campaign", "file"]))
    if source == "campaign":
        row = campaign_function(kind, draw(st.integers(0, 2**16)), draw(st.integers(0, 10**4)),
                                draw(st.floats(0.05, 0.9)))
        return series_to_json(row)
    gamma = draw(st.lists(_DISK, min_size=1, max_size=6))
    if kind.spec.lacunary:
        mf, pf = kind.m, kind.p
    else:  # lam^m g(lam^p) vanishes off {m} | {s >= N} for p = N - m
        mf, pf = (m, n - m) if (m, n) != (0, 1) else (0, draw(st.integers(1, 3)))
    # Short prefixes too, where the tails weigh as much as the sums.
    g = schur_from_parameters(gamma, draw(st.integers(0, 1500) | st.integers(0, 6)) // pf)
    if source == "file":
        return series_to_json(LacunarySeries(mf, pf, g))
    space = SpaceSpec(draw(st.integers(1, 4)), draw(st.sampled_from([1.0, 2.0, 3.0, math.inf])))
    raw = draw(st.lists(_DISK, min_size=space.dim, max_size=space.dim))
    u = unit_vector([raw[0] + 1.0] + raw[1:], space)
    form = draw(st.sampled_from(list(MappingForm)))
    direction = u if form is MappingForm.VECTOR_VALUED else None
    return banach_to_json(BanachFunction(form, space, u, g, direction=direction))


@st.composite
def _cases(draw):
    kind = draw(st.sampled_from(GRID_KINDS))
    return kind, draw(_documents(kind))


def _load(tmp_path_factory, document):
    path = tmp_path_factory.mktemp("grid") / "f.json"
    path.write_text(json.dumps(document))
    return str(path)


def _same(a, b):
    """Equal floats, NaN included: the reports print the same bytes."""
    return repr(a) == repr(b)


def test_grid_reports_are_single_radius_reports(tmp_path_factory):
    @hypothesis.settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @hypothesis.given(case=_cases(), radii=st.lists(_RADII, min_size=1, max_size=45))
    def check(case, radii):
        kind, document = case
        f = _load_function(_load(tmp_path_factory, document))
        grid = list(evaluate_grid(kind, f, radii))
        assert len(grid) == len(radii)
        for r, got in zip(radii, grid):
            want = evaluate_kind(kind, f, r)
            assert got.r == r
            for field in ("value", "tail_error", "margin", "level"):
                assert _same(getattr(got, field), getattr(want, field)), (kind, r, field)
            assert got == want or math.isnan(want.margin)
        with pytest.raises(RadiusError):
            list(evaluate_grid(kind, f, radii + [_REFUSED[len(radii) % 4]]))

    check()


def _grids():
    ends = st.sampled_from(_SPECIAL_RADII + _REFUSED) | st.floats(0.0, 0.994)
    return st.tuples(ends, ends, st.integers(1, 24)).map(lambda t: f"{t[0]!r}:{t[1]!r}:{t[2]}")


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = main(argv)
    return status, out.getvalue(), err.getvalue()


def test_sweep_rows_are_verify_at_every_grid_radius(tmp_path_factory):
    # Extends tests/test_kinds.py's single-point grids to whole grids.
    @hypothesis.settings(max_examples=40, deadline=None, database=None, derandomize=True)
    @hypothesis.given(case=_cases(), grid=_grids())
    def check(case, grid):
        kind, document = case
        path = _load(tmp_path_factory, document)
        f = _load_function(path)
        status, text, _ = _run(["sweep", "--file", path, *_flags(kind), f"--grid={grid}"])
        assert status == 0
        rows = list(csv.reader(io.StringIO(text)))[1:]
        assert len(rows) == int(grid.rsplit(":", 1)[1])
        for cell, value, margin, verdict in rows:
            r = float(cell)
            status, out, _ = _run(["verify", "--file", path, *_flags(kind), f"--r={r!r}"])
            try:
                report = evaluate_kind(kind, f, r)
            except RadiusError:
                assert (value, margin, verdict) == ("", "", "REJECTED")
                assert (status, out) == (EXIT_USAGE, "")
                continue
            assert verdict == "OK" and status == STATUS_EXIT[report.status]
            single = json.loads(out)
            assert (float(value), float(margin)) == (single["value"], single["margin"])
            assert (single["value"], single["margin"]) == (report.value, report.margin)

    check()
