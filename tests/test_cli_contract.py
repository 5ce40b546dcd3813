"""Property test of the CLI exit-status and output contract.

Random ``verify``/``sweep``/``sharpness`` argument lists, valid and not, all
run in one process through ``main`` and so through its one cached parser.
Whatever the flags, ``main`` returns a status in 0..4, raises nothing, and
writes either nothing or one well-formed JSON/CSV document to stdout.  The
same lists, with their command replaced, dropped or cut short, parse exactly
as the top-level argparse parser parses them.
"""

import contextlib
import csv
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from bohrlab.cli import GRID_CAP, _parse, build_parser, main  # noqa: E402
from bohrlab.functionals import FunctionalTag  # noqa: E402
from bohrlab.series import mobius_series, series_to_json  # noqa: E402
from test_cli import parse_outcome  # noqa: E402

_DEFAULT_FORMAT = {"verify": "json", "sweep": "csv", "sharpness": "json"}

_RADII = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, -0.2, 0.0, 1.0 / 3.0, 0.995, 1.0, 2.0]),
    st.floats(min_value=1e-3, max_value=0.9),
)
# Small values, plus the parameter cap (64) and values past it.
_SMALL_INT = st.integers(min_value=-1, max_value=5) | st.sampled_from([64, 65, 1000])


def _kind_flags():
    return st.tuples(
        st.sampled_from([t.value for t in FunctionalTag] + ["BOGUS"]),
        st.none() | _SMALL_INT.map(lambda x: ["--p", str(x)]),
        st.none() | _SMALL_INT.map(lambda x: ["--m", str(x)]),
        st.none() | _SMALL_INT.map(lambda x: ["--n", str(x)]),
        st.none() | st.sampled_from(["0.5", "1", "2", "0", "-1", "nan", "inf"]).map(
            lambda x: ["--p-exp", x]),
        st.none() | st.sampled_from(["0.5", "0.5,0.25", "1,1,1", "-1", "nan", "x", ""]).map(
            lambda x: ["--d", x]),
    ).map(lambda t: ["--kind", t[0]] + [flag for part in t[1:] if part for flag in part])


def _grid():
    count = st.integers(min_value=0, max_value=20) | st.integers(
        min_value=GRID_CAP + 1, max_value=GRID_CAP + 5)
    well_formed = st.tuples(_RADII, _RADII, count).map(
        lambda t: f"{t[0]!r}:{t[1]!r}:{t[2]}")
    return well_formed | st.sampled_from(["nope", "0.1:0.2", "0.1:0.2:x", ":::"])


@st.composite
def _argv(draw, path):
    command = draw(st.sampled_from(["verify", "sweep", "sharpness"]))
    argv = [command, *draw(_kind_flags())]
    if command != "sharpness" and draw(st.integers(0, 9)) > 0:
        argv += ["--file", path]
    if command == "sweep":
        argv += ["--grid", draw(_grid())]
    elif command == "verify" or draw(st.booleans()):
        argv += ["--r", repr(draw(_RADII))]
    fmt = draw(st.sampled_from([None, "csv", "json", "xml"]))
    if fmt is not None:
        argv += ["--format", fmt]
    if draw(st.integers(0, 9)) == 0:
        argv.append("--bogus")
    return argv


@pytest.fixture(scope="module")
def fixture_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract") / "f.json"
    path.write_text(json.dumps(series_to_json(mobius_series(0.5, 20))))
    return str(path)


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _check_stdout(text: str, fmt: str) -> None:
    if fmt == "json":  # strict JSON: no NaN or Infinity tokens
        json.loads(text, parse_constant=_reject_constant)
        return
    rows = list(csv.reader(io.StringIO(text)))
    assert rows and rows[0]
    assert all(len(row) == len(rows[0]) for row in rows)


def test_cli_contract(fixture_file):
    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(argv=_argv(fixture_file))
    def check(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            status = main(argv)
        assert status in range(5), (argv, status, err.getvalue())
        text = out.getvalue()
        if status in (2, 3):  # usage and parse errors are decided before output
            assert text == "", argv
        elif text:
            fmt = argv[argv.index("--format") + 1] if "--format" in argv else None
            _check_stdout(text, fmt or _DEFAULT_FORMAT[argv[0]])

    check()


@st.composite
def _any_argv(draw, path):
    """A contract argv, with its command kept, replaced or dropped, and maybe cut short."""
    argv = draw(_argv(path))
    head = draw(st.sampled_from([None, None, None, [], ["radii"], ["selftest"], ["-h"],
                                 ["--help"], ["bogus"], ["--"], ["--file"]]))
    if head is not None:
        argv = head + argv[1:]
    return argv[:draw(st.integers(0, len(argv)))] if draw(st.booleans()) else argv


def test_parse_matches_argparse(fixture_file):
    parser = build_parser()

    @hypothesis.settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @hypothesis.given(argv=_any_argv(fixture_file))
    def check(argv):
        assert parse_outcome(_parse, argv) == parse_outcome(parser.parse_args, argv), argv

    check()
