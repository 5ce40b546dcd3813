"""Command-line surface: radius tables, verification, sharpness, sweeps, selftest.

Exit statuses are a stable contract:

* 0 success (``verify``: HOLDS, a certified input with margin <= 0)
* 1 inequality violation (``verify``: VIOLATED, margin > 0 or NaN), or a
  failed selftest/witness
* 2 usage error (unknown flags, bad parameters, exceeded caps, an
  unwritable ``--out``)
* 3 parse error (unreadable or malformed function file)
* 4 uncertified input (``verify``: UNCERTIFIED; evaluated and printed, but
  the verdict is informational)

``verify`` maps its report's status to 0, 1 or 4 in one place,
:data:`STATUS_EXIT`.  ``sweep`` gives no verdict and exits 0, even for an
uncertified file, for which it prints ``verify``'s warning once on stderr.
Every kind admits the radii 0 <= r < 0.995: ``verify`` outside them is a
usage error, and a ``sweep`` row is REJECTED exactly where ``verify`` would
refuse its radius (r < 0, r >= 0.995 or not finite); it has no value and no
margin.  ``sweep`` checks each grid radius once, as it marks the REJECTED
rows, and evaluates the accepted ones through ``functionals._columns``, the
floats of ``harness.evaluate_grid`` without its reports: it reads each
block's value and margin columns, builds no report, and each row's margin
is ``verify``'s at its radius.  ``verify`` and ``sharpness`` build one
report each; ``sharpness`` without ``--r`` says when its default radius,
the sharp radius + 0.01, breaks the radius rule.  A ``selftest --seed``
that would make a campaign seed negative is a usage error.  A kind
whose parameters break a hypothesis, I_M weights included, is a usage error
before anything is evaluated.

All output goes through one writer, :func:`_write`, and is deterministic
byte-for-byte for fixed flags and seeds: rows are emitted in sorted parameter
order, CSV floats with 17 significant digits, JSON with sorted keys.  A CSV
row is ``csv.writer``'s: joined with commas where no cell needs quoting,
written by ``csv.writer`` otherwise.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import re
import sys
from typing import Sequence

import numpy as np
import orjson

from . import selftest as selftest_mod
from .functionals import (_PARAMETERS, KINDS, FunctionalKind, FunctionalTag, Status,
                          _columns, _read)
from .harness import NotSharpError, evaluate_kind, sharpness_witness
from .radii import (
    PARAMETER_CAP,
    NoRootError,
    RadiusEquation,
    equation_value,
    maximal_root,
)
from .series import (
    Certificate,
    LacunarySeries,
    MAX_EVAL_RADIUS,
    RadiusError,
    _check_radius,
    series_from_json,
)
from .spaces import banach_from_json, slice_series

__all__ = ["main", "entrypoint"]

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_UNCERTIFIED = 4

#: The exit status of each ``verify`` verdict.
STATUS_EXIT = {Status.HOLDS: EXIT_OK, Status.VIOLATED: EXIT_VIOLATION,
               Status.UNCERTIFIED: EXIT_UNCERTIFIED}

#: Most points a ``sweep --grid lo:hi:count`` may ask for.
GRID_CAP = 10_000
#: Most trials per kind a ``selftest --trials`` campaign may ask for.
TRIALS_CAP = 100_000


class _UsageError(Exception):
    pass


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bohrlab",
        description="Radius tables and certified checks for refined Bohr-type sums.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.subcommands = sub.choices  # name -> parser, for _parse

    radii = sub.add_parser("radii", help="tabulate every radius kind as CSV")
    radii.add_argument("--p-max", type=int, default=3)
    radii.add_argument("--m-max", type=int, default=3)
    radii.add_argument("--n-max", type=int, default=4)
    _common_output(radii, default_format="csv")

    verify = sub.add_parser("verify", help="evaluate one functional on a function file")
    verify.add_argument("--file", required=True, help="JSON function description")
    _kind_flags(verify)
    verify.add_argument("--r", type=float, required=True)
    _common_output(verify, default_format="json")

    sweep = sub.add_parser("sweep", help="margin curve over a radius grid")
    sweep.add_argument("--file", required=True)
    _kind_flags(sweep)
    sweep.add_argument("--grid", required=True, help="radius grid as lo:hi:count")
    _common_output(sweep, default_format="csv")

    sharp = sub.add_parser("sharpness", help="reproduce a sharpness witness")
    _kind_flags(sharp)
    sharp.add_argument("--r", type=float, default=None,
                       help="test radius (default: sharp radius + 0.01)")
    _common_output(sharp, default_format="json")

    selftest = sub.add_parser("selftest", help="run the acceptance criteria")
    selftest.add_argument("--only", default=None,
                          help="comma-separated criterion numbers (default: all)")
    selftest.add_argument("--trials", type=int, default=None,
                          help="override trial counts for the campaign criterion")
    selftest.add_argument("--seed", type=int, default=None,
                          help="offset added to the campaign criterion's fixed seeds")
    return parser


def _kind_flags(cmd: argparse.ArgumentParser) -> None:
    cmd.add_argument("--kind", required=True,
                     choices=[t.value for t in KINDS])
    cmd.add_argument("--p", type=int, default=None)
    cmd.add_argument("--m", type=int, default=None)
    cmd.add_argument("--n", type=int, default=None)
    cmd.add_argument("--p-exp", type=float, default=None, dest="p_exp")
    cmd.add_argument("--d", default=None, help="comma-separated weights d_1,d_2,...")


def _common_output(cmd: argparse.ArgumentParser, default_format: str) -> None:
    cmd.add_argument("--out", default=None, help="output path (default: stdout)")
    cmd.add_argument("--format", choices=("csv", "json"), default=default_format)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on first use, not at import; parse_args leaves it unchanged.
    return build_parser()


def _parse(argv: Sequence[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, with the flags scanned once.

    The top-level parser would scan every token only to hand the named
    subcommand's parser all but the first, which it scans again; so those go
    straight to that parser, and leftovers are refused as the top-level
    parser refuses them.  Anything else takes the top-level parser.
    """
    parser = _parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    subparser = parser.subcommands.get(argv[0]) if argv else None
    if subparser is None:
        return parser.parse_args(argv)
    args, extras = subparser.parse_known_args(
        argv[1:], argparse.Namespace(command=argv[0]))
    if extras:
        parser.error(f"unrecognized arguments: {' '.join(extras)}")
    return args


def main(argv: Sequence[str] | None = None) -> int:
    """Run one subcommand and return its exit status.

    The argument parser is built on the first call and reused by every later
    call in the process; each call parses into a fresh namespace.
    """
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        if args.command == "radii":
            return _run_radii(args)
        if args.command == "verify":
            return _run_verify(args)
        if args.command == "sweep":
            return _run_sweep(args)
        if args.command == "sharpness":
            return _run_sharpness(args)
        return _run_selftest(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entrypoint() -> None:
    raise SystemExit(main())


# ----------------------------------------------------------------- radii ----


def _radius_rows(p_max: int, m_max: int, n_max: int) -> list[list]:
    """One row per equation of the table, sorted by kind, then p (or p_exp), m, n."""
    ns = range(1, n_max + 1)
    pm = [(p, m) for p in range(1, p_max + 1) for m in range(min(p, m_max) + 1)]
    nm = [(n, m) for m in range(m_max + 1) for n in range(m + 1, n_max + 1)]
    equations = (
        [RadiusEquation.lacunary(p, m) for p, m in pm]
        + [RadiusEquation.refined_lacunary(p, m) for p, m in pm]
        + [RadiusEquation.gap_piecewise(n, m) for n, m in nm]
        + [RadiusEquation.gap(n, m) for n, m in nm]
        + [RadiusEquation.rogosinski(n, q, m) for q in (1.0, 2.0)
           for m in range(1, m_max + 1) for n in ns]
        + [RadiusEquation.rogosinski_limit(n, q) for q in (1.0, 2.0) for n in ns]
    )
    rows = []
    for eq in equations:
        root = maximal_root(eq)
        params = (eq.p_exp if eq.is_rational() else eq.p, eq.m, eq.n)
        rows.append([eq.kind.value, *params, root, equation_value(eq, root)])
    rows.sort(key=lambda row: (row[0], *(-1.0 if x is None else float(x) for x in row[1:4])))
    return rows


def _run_radii(args) -> int:
    for name in ("p_max", "m_max", "n_max"):
        cap = getattr(args, name)
        if cap < 0 or cap > PARAMETER_CAP:
            raise _UsageError(f"--{name.replace('_', '-')} must lie in [0, {PARAMETER_CAP}]")
    _write(args, ["kind", "p", "m", "n", "root", "residual"],
           _radius_rows(args.p_max, args.m_max, args.n_max))
    return EXIT_OK


# ---------------------------------------------------------------- verify ----


def _kind_from_args(args, fallback=None) -> FunctionalKind:
    tag = FunctionalTag(args.kind)
    spec = KINDS[tag]
    for name in _PARAMETERS:
        if name not in spec.params and getattr(args, name) is not None:
            raise _UsageError(f"kind {tag.value} takes no --{name.replace('_', '-')}")
    values = {name: getattr(args, name) for name in spec.params}
    if values.get("d") is not None:
        try:
            values["d"] = tuple(float(x) for x in values["d"].split(","))
        except ValueError as exc:
            raise _UsageError(f"--d must be a comma-separated float list: {exc}")
    if spec.lacunary and fallback is not None:  # p and m default to the file's shape
        shape = {"p": fallback.p, "m": fallback.m}
        values = {name: shape[name] if v is None else v for name, v in values.items()}
        if values != shape:
            raise _UsageError(
                f"kind {tag.value}({values['p']},{values['m']}) conflicts with the "
                f"file's lacunary shape (p={fallback.p}, m={fallback.m})"
            )
    try:
        return FunctionalKind(tag, **values)
    except (TypeError, ValueError) as exc:
        raise _UsageError(f"invalid parameters for kind {tag.value}: {exc}")


#: Deepest nesting handed to orjson, which before 3.10 has no depth limit of
#: its own and overflows the C stack on a file of a million ``[``.
_ORJSON_DEPTH = 1024
#: Every byte except brackets, quotes and backslashes.
_NOT_MARKS = bytes(b for b in range(256) if b not in b'[]{}"\\')
#: A string between two quotes, in marks that hold no escape.
_STRING = re.compile(rb'"[^"]*"')
_DEPTH_STEP = np.zeros(256, dtype=np.int64)
_DEPTH_STEP[list(b"[{")] = 1
_DEPTH_STEP[list(b"]}")] = -1
_DEPTH_BLOCK = 1 << 16


def _nesting_bound(raw: bytes) -> int:
    """An upper bound on how deep any JSON parser of ``raw`` nests before it stops.

    The number of opening brackets is one.  Where that passes _ORJSON_DEPTH
    and ``raw`` has no backslash, every quote opens or closes a string, so the
    running depth of the brackets outside strings is exact; it is summed in
    blocks, so a huge file takes no more than a copy of its brackets.
    """
    octets = np.frombuffer(raw, dtype=np.uint8)
    opens = int(np.count_nonzero(octets == ord("[")) + np.count_nonzero(octets == ord("{")))
    if opens <= _ORJSON_DEPTH or b"\\" in raw:  # an escape hides where a string ends
        return opens
    marks = raw.translate(None, _NOT_MARKS)
    outside = np.frombuffer(_STRING.sub(b"", marks), dtype=np.uint8)
    top = depth = 0
    for start in range(0, outside.size, _DEPTH_BLOCK):
        sums = np.cumsum(_DEPTH_STEP[outside[start:start + _DEPTH_BLOCK]]) + depth
        top, depth = max(top, int(sums.max())), int(sums[-1])
    return top


def _decode_json(raw: bytes):
    """The JSON document in ``raw``, decoded by orjson where it can be.

    orjson refuses ``NaN``, ``Infinity``, ``1e400``, integers past a double
    and lone surrogates, which the stdlib decoder accepts and the validators
    then reject with messages that name the field; those files, and files
    that may nest past ``_ORJSON_DEPTH``, take the stdlib decoder.  Integers
    outside [-2**63, 2**64) come back from orjson as the nearest double.
    """
    if _nesting_bound(raw) <= _ORJSON_DEPTH:
        try:
            return orjson.loads(raw)
        except orjson.JSONDecodeError:
            pass
    return json.loads(raw.decode("utf-8"))


def _load_function(path: str) -> LacunarySeries:
    try:
        with open(path, "rb") as fh:
            data = _decode_json(fh.read())
    # ValueError covers bad JSON, bad UTF-8 and integers past Python's digit
    # limit (4,300 digits); RecursionError covers nesting deeper than the
    # stdlib decoder goes, on files that _decode_json does not give orjson.
    except (OSError, ValueError, RecursionError) as exc:
        raise _ParseError(f"cannot read function file {path!r}: {exc}")
    try:
        if isinstance(data, dict) and "form" in data:
            mapping = banach_from_json(data)
            sliced = slice_series(mapping, mapping.u)
            return LacunarySeries(0, 1, sliced)
        return series_from_json(data)
    except ValueError as exc:
        raise _ParseError(str(exc))


class _ParseError(Exception):
    pass


_UNCERTIFIED_WARNING = ("warning: input carries no disk-self-map certificate; "
                        "the verdict is informational")


def _run_verify(args) -> int:
    fdesc = _load_function(args.file)
    kind = _kind_from_args(args, fallback=fdesc)
    try:
        report = evaluate_kind(kind, fdesc, args.r)
    except (ValueError, TypeError) as exc:
        raise _UsageError(str(exc))
    params = ";".join(f"{k}={v}" for k, v in report.params.items())
    row = [kind.tag.value, params, args.r, report.value, report.tail_error, report.margin]
    _write(args, ["kind", "params", "r", "value", "tail_error", "margin"], [row],
           report.to_json())
    status = report.status
    if status is Status.UNCERTIFIED:
        print(_UNCERTIFIED_WARNING, file=sys.stderr)
    return STATUS_EXIT[status]


# ----------------------------------------------------------------- sweep ----


def _run_sweep(args) -> int:
    fdesc = _load_function(args.file)
    kind = _kind_from_args(args, fallback=fdesc)
    try:
        lo, hi, count = args.grid.split(":")
        lo, hi, count = float(lo), float(hi), int(count)
        if not 1 <= count <= GRID_CAP:
            raise ValueError(f"count must lie in [1, {GRID_CAP}]")
    except ValueError as exc:
        raise _UsageError(f"--grid must look like lo:hi:count: {exc}")
    # Non-finite endpoints (or an overflowing difference) leave the points
    # between them non-finite, and so REJECTED; the endpoints are kept.
    with np.errstate(invalid="ignore", over="ignore"):
        grid = np.linspace(lo, hi, count).tolist()
    grid[0] = lo  # 0 * step is NaN where the step is not finite
    rows = [[r, None, None, "REJECTED"] for r in grid]
    accepted = []
    for row in rows:
        try:
            _check_radius(row[0])
        except RadiusError:
            continue
        accepted.append(row)
    certified = True
    if accepted:
        try:
            g = _read(kind, fdesc)
            certified = g.certificate is not Certificate.UNKNOWN
            cells = ((v, margin) for _, values, _, _, margins
                     in _columns(kind, g, [row[0] for row in accepted])
                     for v, margin in zip(values, margins))
            for row, (value, margin) in zip(accepted, cells):
                row[1:] = [value, margin, "OK"]
        except (ValueError, TypeError) as exc:
            raise _UsageError(str(exc))
    _write(args, ["r", "value", "margin", "status"], rows)
    if not certified:
        print(_UNCERTIFIED_WARNING, file=sys.stderr)
    return EXIT_OK


# ------------------------------------------------------------- sharpness ----


def _run_sharpness(args) -> int:
    kind = _kind_from_args(args)
    r = args.r
    # A witness radius is positive; sharpness_witness applies the radius rule.
    if r is not None and not r > 0.0:  # also rejects NaN
        raise _UsageError(f"--r must lie in (0, {MAX_EVAL_RADIUS}), got {r!r}")
    try:  # the sharp radius is isolated once, inside sharpness_witness
        witness = sharpness_witness(kind, r)
    except (NotSharpError, NoRootError) as exc:
        raise _UsageError(f"no sharpness witness for {kind.label()}: {exc}")
    except RadiusError as exc:  # a ValueError too, so it is caught first
        if r is None:
            raise _UsageError(f"the default radius, the sharp radius + 0.01, is out of "
                              f"range: {exc}; pass --r")
        raise _UsageError(f"--r must lie in (0, {MAX_EVAL_RADIUS}): {exc}")
    except (ValueError, RuntimeError) as exc:
        print(f"sharpness failure: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    row = [kind.label(), witness.r, witness.witness_param, witness.value,
           witness.tail_error, witness.exceeds_one]
    _write(args, ["kind", "r", "witness_param", "value", "tail_error", "exceeds_one"],
           [row], witness.to_json())
    return EXIT_OK


# -------------------------------------------------------------- selftest ----


def _run_selftest(args) -> int:
    numbers = None
    if args.only is not None:
        try:
            numbers = [int(x) for x in args.only.split(",")]
        except ValueError as exc:
            raise _UsageError(f"--only must be a comma-separated integer list: {exc}")
        valid = {num for num, _, _ in selftest_mod.CRITERIA}
        bad = [n for n in numbers if n not in valid]
        if bad:
            raise _UsageError(f"unknown criterion numbers: {bad}")
    if args.trials is not None and not 1 <= args.trials <= TRIALS_CAP:
        raise _UsageError(f"--trials must lie in [1, {TRIALS_CAP}]")
    first = min(seed for _, seed in selftest_mod._SAFETY_SUITE)
    if args.seed is not None and args.seed < -first:  # a campaign seed would be negative
        raise _UsageError(f"--seed must be >= {-first}: the campaign seeds start at {first}")
    results = selftest_mod.run_selftest(
        numbers, stream=sys.stdout, safety_trials=args.trials,
        safety_seed_offset=args.seed,
    )
    return EXIT_OK if all(r.passed for r in results) else EXIT_VIOLATION


# ------------------------------------------------------------------ misc ----


def _finite(x):
    """``x`` with every non-finite float in it, at any depth, replaced by None."""
    if isinstance(x, float):
        return x if math.isfinite(x) else None
    if isinstance(x, dict):
        return {k: _finite(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_finite(v) for v in x]
    return x


#: A cell character that makes ``csv.writer`` quote its cell, or may.
_QUOTED = re.compile(r'["\r\n]')


def _csv(rows: list[list]) -> str:
    """``csv.writer``'s text of ``rows``, with ``"\\n"`` line ends and floats to 17 digits.

    A row whose cells hold no ``,``, ``"``, ``\\r`` or ``\\n``, and which is
    not one empty cell, is written as its cells joined by ``,``: there
    ``csv.writer`` quotes nothing.  Every other row goes through
    ``csv.writer``.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    for row in rows:
        cells = ["" if x is None else f"{x:.17g}" if isinstance(x, float) else str(x)
                 for x in row]
        line = ",".join(cells)
        if line.count(",") != len(cells) - 1 or _QUOTED.search(line) or cells == [""]:
            writer.writerow(cells)
        else:
            buf.write(line + "\n")
    return buf.getvalue()


def _write(args, header: list[str], rows: list[list], payload=None) -> None:
    """Print ``rows`` under ``header`` to ``args.out`` (stdout if None) in ``args.format``.

    CSV writes floats with 17 significant digits.  JSON writes ``payload`` if
    one is given, and otherwise one object per row; either way a non-finite
    float is written as null (JSON has no NaN or infinity).
    """
    if args.format == "csv":
        text = _csv([header] + rows)
    else:
        if payload is None:
            payload = [dict(zip(header, row)) for row in rows]
        try:
            text = json.dumps(payload, sort_keys=True, allow_nan=False)
        except ValueError:  # a non-finite float: only then walk the payload
            text = json.dumps(_finite(payload), sort_keys=True, allow_nan=False)
        text += "\n"
    if args.out is None:
        sys.stdout.write(text)
        return
    try:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    except OSError as exc:
        raise _UsageError(f"cannot write --out {args.out!r}: {exc.strerror or exc}")


if __name__ == "__main__":
    entrypoint()
