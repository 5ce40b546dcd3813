import contextlib
import csv
import dataclasses
import io
import json
import math
import re
import sys
import warnings
from pathlib import Path

import pytest

from bohrlab.cli import (
    EXIT_OK,
    EXIT_PARSE,
    EXIT_UNCERTIFIED,
    EXIT_USAGE,
    EXIT_VIOLATION,
    _load_function,
    main,
)
from bohrlab.series import (
    LacunarySeries,
    mobius_minus_series,
    mobius_series,
    series_to_json,
)


def _write_mobius(tmp_path, a=0.5, order=200, name="f.json"):
    path = tmp_path / name
    path.write_text(json.dumps(series_to_json(mobius_series(a, order))))
    return str(path)


_NOT_FINITE = "weights d_i must be finite and nonnegative"
_WEIGHT_ERRORS = {"5": "usage error: invalid parameters for kind I_M: "
                       "weight constraint violated by excess 4.625"}


def _rows(text):
    return list(csv.reader(io.StringIO(text)))


def _reject_constant(token):
    raise ValueError(f"non-standard JSON token {token}")


def _count_roots(monkeypatch):
    """Record every root isolation, at every binding of the two root finders."""
    from bohrlab import radii

    calls, depth = [], [0]
    for name in ("maximal_root", "unique_root"):
        real = getattr(radii, name)

        def counted(eq, _real=real):
            if depth[0] == 0:  # maximal_root hands rational equations to unique_root
                calls.append(eq)
            depth[0] += 1
            try:
                return _real(eq)
            finally:
                depth[0] -= 1

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("bohrlab") and getattr(mod, name, None) is real:
                monkeypatch.setattr(mod, name, counted)
    return calls


class TestRadiiCommand:
    def test_contains_golden_row(self, tmp_path, capsys):
        assert main(["radii", "--p-max", "2", "--m-max", "2", "--n-max", "3"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        header = rows[0]
        assert header == ["kind", "p", "m", "n", "root", "residual"]
        star = [r for r in rows if r[0] == "R_STAR_NM" and r[2] == "1" and r[3] == "1"]
        assert len(star) == 0  # N >= m + 1 means no (m=1, n=1) row
        golden = [r for r in rows if r[0] == "R_STAR_NM" and r[2] == "0" and r[3] == "1"]
        assert len(golden) == 1
        assert abs(float(golden[0][4]) - 1.0 / 3.0) <= 1e-10

    def test_empty_caps_header_only(self, capsys):
        assert main(["radii", "--p-max", "0", "--m-max", "0", "--n-max", "0"]) == EXIT_OK
        rows = _rows(capsys.readouterr().out)
        assert rows == [["kind", "p", "m", "n", "root", "residual"]]

    def test_rerun_byte_identical(self, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["radii", "--p-max", "3", "--m-max", "2", "--n-max", "4"]
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_cap_enforced(self, capsys):
        assert main(["radii", "--p-max", "100"]) == EXIT_USAGE

    def test_parameter_a_kind_lacks_is_null_in_json_and_empty_in_csv(self, capsys):
        # R_PM has p and m but no n; the rational kinds have p_exp in p's column.
        argv = ["radii", "--p-max", "2", "--m-max", "1", "--n-max", "2"]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out)
        lacunary = [row for row in rows if row["kind"] == "R_PM"]
        assert lacunary and all(row["n"] is None and row["p"] >= 1 for row in lacunary)
        assert "" not in [value for row in rows for value in row.values()]
        assert main(argv) == EXIT_OK
        cells = [row for row in _rows(capsys.readouterr().out) if row[0] == "R_PM"]
        assert len(cells) == len(lacunary) and all(row[3] == "" for row in cells)

    def test_unknown_flag_rejected(self, capsys):
        assert main(["radii", "--bogus"]) == EXIT_USAGE


class TestVerifyCommand:
    def test_corollary_instance_passes(self, tmp_path, capsys):
        path = _write_mobius(tmp_path)
        rc = main(["verify", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                   "--r", "0.3333333333333333"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["margin"] <= 0.0

    def test_witness_instance_fails(self, tmp_path, capsys):
        # the proof's parameter at r = 0.5: a = 1/(2c) with c = r/(1-r) = 1
        path = tmp_path / "w.json"
        path.write_text(json.dumps(series_to_json(mobius_minus_series(0.5, 300))))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.5"])
        assert rc == EXIT_VIOLATION
        report = json.loads(capsys.readouterr().out)
        assert report["value"] == pytest.approx(1.25, abs=1e-9)

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("this is not json")
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_PARSE

    def test_uncertified_input(self, tmp_path, capsys):
        data = series_to_json(mobius_series(0.5, 50))
        data["certificate"] = "UNKNOWN"
        path = tmp_path / "u.json"
        path.write_text(json.dumps(data))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_UNCERTIFIED
        assert "certificate" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["nan", "inf", "0.5,nan", "-1", "5"])
    def test_bad_weights_usage_error(self, tmp_path, capsys, d):
        path = _write_mobius(tmp_path)
        rc = main(["verify", "--file", path, "--kind", "I_M", "--d", d, "--r", "0.3"])
        assert rc == EXIT_USAGE
        assert _WEIGHT_ERRORS.get(d, _NOT_FINITE) in capsys.readouterr().err

    def test_lacunary_kind_from_file(self, tmp_path, capsys):
        fam = LacunarySeries(1, 2, mobius_minus_series(0.4, 150))
        path = tmp_path / "lac.json"
        path.write_text(json.dumps(series_to_json(fam)))
        rc = main(["verify", "--file", str(path), "--kind", "A_PM", "--r", "0.4"])
        assert rc == EXIT_OK

    def test_lacunary_kind_mismatch(self, tmp_path, capsys):
        fam = LacunarySeries(1, 2, mobius_minus_series(0.4, 150))
        path = tmp_path / "lac.json"
        path.write_text(json.dumps(series_to_json(fam)))
        rc = main(["verify", "--file", str(path), "--kind", "A_PM", "--p", "3",
                   "--m", "1", "--r", "0.4"])
        assert rc == EXIT_USAGE

    def test_input_is_read_before_the_radius_is_checked(self, tmp_path, capsys):
        # A file off D_NM(1,3)'s support at a refused radius: the input's
        # rules come first, so the support is reported, not the radius.  A
        # sweep whose every radius is REJECTED evaluates nothing.
        path = _write_mobius(tmp_path)
        kind = ["--kind", "D_NM", "--n", "3", "--m", "1"]
        assert main(["verify", "--file", path, *kind, "--r", "2"]) == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: coefficient c_0 = 0.5 violates the support {1} | {s >= 3}\n")
        assert main(["sweep", "--file", path, *kind, "--grid", "2:3:2"]) == EXIT_OK
        assert [row[3] for row in _rows(capsys.readouterr().out)[1:]] == ["REJECTED"] * 2

    def test_nan_coefficient_is_parse_error(self, tmp_path, capsys):
        data = series_to_json(mobius_series(0.5, 50))
        data["coeffs"][3] = [float("nan"), 0.0]
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(data))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_PARSE
        assert capsys.readouterr().out == ""

    def test_nan_profile_in_banach_file_is_parse_error(self, tmp_path, capsys):
        from bohrlab.spaces import BanachFunction, MappingForm, SpaceSpec, banach_to_json

        spec = SpaceSpec(2, 2.0)
        f = BanachFunction(MappingForm.SCALAR_COMPOSITE, spec, (1.0, 0.0),
                           mobius_series(0.5, 20))
        data = banach_to_json(f)
        data["h"]["coeffs"][1] = [float("nan"), 0.0]
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(data))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_PARSE

    @pytest.mark.parametrize("key, name", [("u", "u"), ("dir", "direction")])
    def test_nan_unit_vector_in_banach_file_is_parse_error(self, tmp_path, capsys, key, name):
        from bohrlab.spaces import BanachFunction, MappingForm, SpaceSpec, banach_to_json

        spec = SpaceSpec(2, 2.0)
        f = BanachFunction(MappingForm.VECTOR_VALUED, spec, (1.0, 0.0),
                           mobius_series(0.5, 20), spec, (0.0, 1.0))
        data = banach_to_json(f)
        data[key][0] = [float("nan"), 0.0]
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(data))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        out, err = capsys.readouterr()
        assert rc == EXIT_PARSE
        assert out == ""
        assert f"{name} must be a unit vector" in err
        assert "finite" not in err

    @pytest.mark.parametrize("q", [1.0, 2.0, 3.0, math.inf])
    def test_subnormal_unit_vector_entry_acts_as_zero(self, tmp_path, capsys, q):
        # The unit phase of a subnormal entry of u is taken without 1/|u_j|,
        # which overflows: the file verifies as if that entry were 0.0.
        from bohrlab.spaces import BanachFunction, MappingForm, SpaceSpec, banach_to_json

        spec = SpaceSpec(2, q)
        runs = []
        for tiny in (5e-324, 0.0):
            f = BanachFunction(MappingForm.SCALAR_COMPOSITE, spec, (1.0, tiny),
                               mobius_series(0.5, 20))
            path = tmp_path / f"u{tiny!r}.json"
            path.write_text(json.dumps(banach_to_json(f)))
            rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                       "--m", "0", "--r", "0.3"])
            runs.append((rc, capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == EXIT_OK and runs[0][1].err == ""

    def test_nan_margin_is_not_a_pass(self, tmp_path, capsys, monkeypatch):
        import dataclasses

        import bohrlab.cli as cli

        real = cli.evaluate_kind
        monkeypatch.setattr(
            cli, "evaluate_kind",
            lambda *a: dataclasses.replace(real(*a), margin=float("nan")),
        )
        path = _write_mobius(tmp_path)
        rc = main(["verify", "--file", path, "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_VIOLATION
        # JSON has no NaN: the payload writes it as null, as table rows do
        report = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert report["margin"] is None

    @pytest.mark.parametrize("certified, margin, status", [
        (True, -0.25, EXIT_OK),
        (True, 0.0, EXIT_OK),
        (True, 0.25, EXIT_VIOLATION),
        (True, math.nan, EXIT_VIOLATION),
        (False, -0.25, EXIT_UNCERTIFIED),
        (False, math.nan, EXIT_UNCERTIFIED),
    ])
    def test_verdict_exit_status(self, tmp_path, capsys, monkeypatch, certified, margin, status):
        import bohrlab.cli as cli
        from bohrlab.functionals import Status

        assert cli.STATUS_EXIT == {Status.HOLDS: EXIT_OK, Status.VIOLATED: EXIT_VIOLATION,
                                   Status.UNCERTIFIED: EXIT_UNCERTIFIED}
        real = cli.evaluate_kind
        monkeypatch.setattr(
            cli, "evaluate_kind",
            lambda *a: dataclasses.replace(real(*a), certified=certified, margin=margin),
        )
        path = _write_mobius(tmp_path)
        for fmt in ("json", "csv"):
            rc = main(["verify", "--file", path, "--kind", "D_NM", "--n", "1",
                       "--m", "0", "--r", "0.3", "--format", fmt])
            assert rc == status
            warned = "no disk-self-map certificate" in capsys.readouterr().err
            assert warned == (status == EXIT_UNCERTIFIED)

    def test_exit_statuses_pairwise_distinct(self):
        assert len({EXIT_OK, EXIT_VIOLATION, EXIT_USAGE, EXIT_PARSE, EXIT_UNCERTIFIED}) == 5

    def test_banach_file_sliced_at_u(self, tmp_path, capsys):
        from bohrlab.spaces import (
            BanachFunction,
            MappingForm,
            SpaceSpec,
            banach_to_json,
            unit_vector,
        )

        spec = SpaceSpec(2, 2.0)
        u = unit_vector([0.6, 0.8], spec)
        f = BanachFunction(MappingForm.SCALAR_COMPOSITE, spec, u, mobius_series(0.5, 200))
        path = tmp_path / "vec.json"
        path.write_text(json.dumps(banach_to_json(f)))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3333333333333333"])
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        # slicing through u reproduces the scalar profile's evaluation
        assert report["margin"] <= 0.0

    def test_sampled_certificate_still_claims(self, tmp_path, capsys):
        # SCHUR_SAMPLED is read from the file, not recomputed: it loads and counts
        data = series_to_json(mobius_series(0.5, 200))
        data["certificate"] = "SCHUR_SAMPLED"
        path = tmp_path / "s.json"
        path.write_text(json.dumps(data))
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_OK
        out = capsys.readouterr()
        assert '"certified": true' in out.out
        assert out.err == ""


class TestReadmeExamples:
    """The function files in README.md load, and verify runs on them."""

    @staticmethod
    def _files(tmp_path):
        text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        blocks = re.findall(r"```json\n(.*?)```", text, flags=re.DOTALL)
        assert len(blocks) == 2
        paths = []
        for k, block in enumerate(blocks):
            path = tmp_path / f"readme{k}.json"
            path.write_text(block)
            paths.append(str(path))
        return paths

    def test_every_example_loads(self, tmp_path):
        for path in self._files(tmp_path):
            _load_function(path)

    def test_lacunary_example_verifies(self, tmp_path, capsys):
        lacunary = self._files(tmp_path)[0]
        loaded = _load_function(lacunary)
        assert (loaded.m, loaded.p) == (1, 2)
        assert main(["verify", "--file", lacunary, "--kind", "A_PM", "--r", "0.3"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["inputs"]["certified"] is True

    def test_support_violation_prints_a_plain_float(self, tmp_path, capsys):
        ball = self._files(tmp_path)[1]
        rc = main(["verify", "--file", ball, "--kind", "D_NM", "--n", "2", "--m", "1",
                   "--r", "0.3"])
        assert rc == EXIT_USAGE
        assert capsys.readouterr().err == (
            "usage error: coefficient c_0 = 0.5 violates the support {1} | {s >= 2}\n")


def _series_text(**fields):
    data = {"m": 0, "p": 1, "coeffs": [[0.1, 0.0], [0.2, 0.0]], "bound": 0.0,
            "certificate": "SCHUR_EXACT"}
    return json.dumps({**data, **fields})


def _ball_text(**fields):
    data = {"form": "VECTOR_VALUED", "space": {"n": 2, "q": 2.0},
            "target": {"n": 2, "q": 2.0}, "u": [[1.0, 0.0], [0.0, 0.0]],
            "dir": [[0.0, 0.0], [1.0, 0.0]], "h": json.loads(_series_text())}
    return json.dumps({**data, **fields})


_DIGITS_400 = "1" + "0" * 399

#: Files that once ended in a traceback or MemoryError, with their status.
_MALFORMED = {
    "invalid-utf8": (b'{"m": 0, "certificate": "\xff\xfe"}', EXIT_PARSE),
    "nested-100000-deep": (b"[" * 100_000, EXIT_PARSE),
    "int-400-digits": (
        _series_text().replace("0.2, 0.0", _DIGITS_400 + ", 0.0").encode(), EXIT_PARSE
    ),
    "int-5000-digits": (
        _series_text().replace('"bound"', '"note": ' + "7" * 5000 + ', "bound"').encode(),
        EXIT_PARSE,
    ),
    "m-infinity": (_series_text().replace('"m": 0', '"m": Infinity').encode(), EXIT_PARSE),
    "modulus-past-double": (
        _series_text().replace("0.2, 0.0", "1.7e308, 1.7e308").encode(), EXIT_PARSE
    ),
    "expansion-past-cap": (_series_text(p=100_000_000_000).encode(), EXIT_USAGE),
    "ball-profile-past-cap": (
        json.dumps({"form": "SCALAR_COMPOSITE", "space": {"n": 1, "q": 2.0},
                    "u": [[1.0, 0.0]],
                    "h": json.loads(_series_text(p=100_000_000_000))}).encode(),
        EXIT_PARSE,
    ),
    "ball-q-400-digits": (
        json.dumps({"form": "SCALAR_COMPOSITE", "space": {"n": 1, "q": 10**400},
                    "u": [[1.0, 0.0]], "h": json.loads(_series_text())}).encode(),
        EXIT_PARSE,
    ),
    # Shape fields are JSON integers: int() once read 1.9, "1" and true as 1.
    "m-float": (_series_text(m=1.9).encode(), EXIT_PARSE),
    "m-string": (_series_text(m="1").encode(), EXIT_PARSE),
    "m-true": (_series_text(m=True).encode(), EXIT_PARSE),
    "p-float": (_series_text(p=2.0).encode(), EXIT_PARSE),
    # Integers past 2**64 decode as the nearest double.
    "m-2**64": (_series_text(m=2**64).encode(), EXIT_PARSE),
    "ball-space-n-float": (_ball_text(space={"n": 2.0, "q": 2.0}).encode(), EXIT_PARSE),
    "ball-target-n-string": (_ball_text(target={"n": "2", "q": 2.0}).encode(), EXIT_PARSE),
    # bound and q are JSON numbers: float() once read "0", "2" and bools.
    "bound-false": (_series_text(bound=False).encode(), EXIT_PARSE),
    "bound-string": (_series_text(bound="0").encode(), EXIT_PARSE),
    "ball-q-true": (_ball_text(space={"n": 2, "q": True}).encode(), EXIT_PARSE),
    "ball-q-string": (_ball_text(target={"n": 2, "q": "2"}).encode(), EXIT_PARSE),
    # Balanced, so a parser without a depth limit recurses all the way down.
    "nested-1000000-deep-balanced": (b"[" * 1_000_000 + b"]" * 1_000_000, EXIT_PARSE),
}


class TestMalformedFiles:
    @pytest.mark.parametrize("command", ["verify", "sweep"])
    @pytest.mark.parametrize("name", list(_MALFORMED))
    def test_documented_status_and_empty_stdout(self, tmp_path, capsys, name, command):
        raw, status = _MALFORMED[name]
        path = tmp_path / "f.json"
        path.write_bytes(raw)
        extra = ["--r", "0.3"] if command == "verify" else ["--grid", "0.1:0.5:3"]
        rc = main([command, "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", *extra])
        captured = capsys.readouterr()
        assert rc == status
        assert captured.out == ""
        assert captured.err.startswith("usage error: " if status == EXIT_USAGE
                                       else "parse error: ")

    @pytest.mark.parametrize("text, field, argv", [
        (_series_text(m=1, p=2), "m", ["--kind", "A_PM", "--r", "0.3"]),
        (_series_text(m=0, p=1), "p", ["--kind", "D_NM", "--n", "1", "--m", "0", "--r", "0.3"]),
        (_ball_text(), "space.n", ["--kind", "D_NM", "--n", "1", "--m", "0", "--r", "0.3"]),
        (_ball_text(), "target.n", ["--kind", "D_NM", "--n", "1", "--m", "0", "--r", "0.3"]),
    ])
    def test_shape_fields_must_be_json_integers(self, tmp_path, capsys, text, field, argv):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["verify", "--file", str(path), *argv]) == EXIT_OK
        capsys.readouterr()
        data = json.loads(text)
        *parents, key = field.split(".")
        holder = data
        for name in parents:
            holder = holder[name]
        value = holder[key]
        for bad in (value + 0.9, float(value), str(value), True):
            holder[key] = bad
            path.write_text(json.dumps(data))
            rc = main(["verify", "--file", str(path), *argv])
            out, err = capsys.readouterr()
            assert rc == EXIT_PARSE
            assert out == ""
            assert f"{field} must be a JSON integer" in err


    @pytest.mark.parametrize("name, field", [
        ("bound-false", "bound"), ("bound-string", "bound"),
        ("ball-q-true", "space.q"), ("ball-q-string", "target.q"),
    ])
    def test_number_fields_must_be_json_numbers(self, tmp_path, capsys, name, field):
        path = tmp_path / "f.json"
        path.write_bytes(_MALFORMED[name][0])
        rc = main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                   "--m", "0", "--r", "0.3"])
        assert rc == EXIT_PARSE
        assert f"{field} must be a JSON number" in capsys.readouterr().err

    @pytest.mark.parametrize("text", [
        _series_text(bound=0), _ball_text(space={"n": 2, "q": "inf"}),
        _ball_text(target={"n": 2, "q": 2}),
    ])
    def test_integer_and_inf_numbers_still_load(self, tmp_path, text):
        path = tmp_path / "f.json"
        path.write_text(text)
        assert main(["verify", "--file", str(path), "--kind", "D_NM", "--n", "1",
                     "--m", "0", "--r", "0.3"]) == EXIT_OK


class TestSweepCommand:
    def test_monotone_value_for_extremal(self, tmp_path, capsys):
        fam = LacunarySeries(1, 2, mobius_minus_series(0.3, 400))
        path = tmp_path / "fam.json"
        path.write_text(json.dumps(series_to_json(fam)))
        rc = main(["sweep", "--file", str(path), "--kind", "A_PM",
                   "--grid", "0.05:0.9:100"])
        assert rc == EXIT_OK
        rows = _rows(capsys.readouterr().out)[1:]
        values = [float(r[1]) for r in rows if r[3] == "OK"]
        assert len(values) == 100
        assert all(x < y for x, y in zip(values, values[1:]))

    def test_single_point_matches_verify(self, tmp_path, capsys):
        path = _write_mobius(tmp_path)
        assert main(["sweep", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                     "--grid", "0.3:0.3:1"]) == EXIT_OK
        sweep_rows = _rows(capsys.readouterr().out)
        assert main(["verify", "--file", path, "--kind", "D_NM", "--n", "1",
                     "--m", "0", "--r", "0.3"]) == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert float(sweep_rows[1][1]) == pytest.approx(report["value"], abs=1e-15)

    def test_rejected_rows_flagged(self, tmp_path, capsys):
        path = _write_mobius(tmp_path)
        argv = ["sweep", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                "--grid", "0.99:1.0:3"]
        rc = main(argv)
        assert rc == EXIT_OK
        rows = _rows(capsys.readouterr().out)[1:]
        statuses = [r[3] for r in rows]
        assert statuses == ["OK", "REJECTED", "REJECTED"]
        # A REJECTED row has no value and no margin: empty CSV cells, JSON null.
        assert rows[1:] == [["0.995", "", "", "REJECTED"], ["1", "", "", "REJECTED"]]
        assert main(argv + ["--format", "json"]) == EXIT_OK
        rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert [(row["value"], row["margin"]) for row in rows[1:]] == [(None, None)] * 2

    def test_unsupported_input_usage_error(self, tmp_path, capsys):
        # D_NM(1,3) needs c_0 = 0 at the gap's start; the Mobius map has c_0 = 0.5
        path = _write_mobius(tmp_path)
        rc = main(["sweep", "--file", path, "--kind", "D_NM", "--n", "3", "--m", "1",
                   "--grid", "0.1:0.5:3"])
        assert rc == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "usage error" in captured.err

    def test_grid_count_capped_before_allocation(self, tmp_path, capsys, monkeypatch):
        import bohrlab.cli as cli

        def no_linspace(*args, **kwargs):
            raise AssertionError("the grid was allocated")

        monkeypatch.setattr(cli.np, "linspace", no_linspace)
        path = _write_mobius(tmp_path)
        rc = main(["sweep", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                   "--grid", f"0.1:0.5:{cli.GRID_CAP + 1}"])
        assert rc == EXIT_USAGE
        assert "--grid" in capsys.readouterr().err

    def test_nan_grid_point_rejected(self, tmp_path, capsys):
        path = _write_mobius(tmp_path)
        rc = main(["sweep", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                   "--grid", "nan:0.3:2"])
        assert rc == EXIT_OK
        rows = _rows(capsys.readouterr().out)[1:]
        assert [r[3] for r in rows] == ["REJECTED", "OK"]

    def test_non_finite_endpoint_kept_without_warnings(self, tmp_path, capsys):
        path = _write_mobius(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                       "--grid", "inf:0.5:3"])
        assert rc == EXIT_OK
        rows = _rows(capsys.readouterr().out)[1:]
        assert [(r[0], r[3]) for r in rows] == [
            ("inf", "REJECTED"), ("nan", "REJECTED"), ("0.5", "OK")]

    @pytest.mark.parametrize("grid,radii", [
        ("nan:nan:1", [None]), ("0.3:-inf:2", [0.3, None]), ("inf:0.2:3", [None, None, 0.2])])
    def test_json_writes_null_for_non_finite_r(self, tmp_path, capsys, grid, radii):
        path = _write_mobius(tmp_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(["sweep", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                       "--grid", grid, "--format", "json"])
        assert rc == EXIT_OK
        rows = json.loads(capsys.readouterr().out, parse_constant=_reject_constant)
        assert [row["r"] for row in rows] == radii
        assert [row["status"] == "OK" for row in rows] == [r is not None for r in radii]
        for row in rows:  # a REJECTED row has no value and no margin
            cells = [row["value"], row["margin"]]
            assert cells == [None, None] if row["status"] == "REJECTED" else all(
                isinstance(x, float) for x in cells)

    def test_uncertified_file_warns_once_and_prints_the_same_rows(self, tmp_path, capsys):
        data = series_to_json(mobius_series(0.5, 50))
        rows = {}
        for certificate in ("SCHUR_EXACT", "UNKNOWN"):
            path = tmp_path / f"{certificate}.json"
            path.write_text(json.dumps({**data, "certificate": certificate}))
            rc = main(["sweep", "--file", str(path), "--kind", "D_NM", "--n", "1", "--m", "0",
                       "--grid", "0.1:0.9:5"])
            assert rc == EXIT_OK
            captured = capsys.readouterr()
            rows[certificate] = captured.out
            warnings_printed = captured.err.count("no disk-self-map certificate")
            assert warnings_printed == (certificate == "UNKNOWN")
        assert rows["SCHUR_EXACT"] == rows["UNKNOWN"]

    def test_builds_no_report(self, tmp_path, capsys, monkeypatch):
        # sweep reads value and margin from the evaluation's float columns.
        from test_harness import _count_reports

        built = _count_reports(monkeypatch)
        for kind in (["--kind", "D_NM", "--n", "1", "--m", "0"], ["--kind", "LEMMA_TAIL", "--n", "2"]):
            assert main(["sweep", "--file", _write_mobius(tmp_path), *kind,
                         "--grid", "0:0.9:50"]) == EXIT_OK
            rows = _rows(capsys.readouterr().out)[1:]
            assert [row[3] for row in rows] == ["OK"] * 50
        assert built == []
        assert main(["verify", "--file", _write_mobius(tmp_path), "--kind", "D_NM",
                     "--n", "1", "--m", "0", "--r", "0.3"]) == EXIT_OK
        assert len(built) == 1

    def test_checks_each_radius_once(self, tmp_path, capsys, monkeypatch):
        # The radius rule runs where the grid enters: once per grid point.
        from bohrlab import series

        real, calls = series._check_radius, []

        def counted(r):
            calls.append(r)
            return real(r)

        for modname, mod in list(sys.modules.items()):
            if modname.startswith("bohrlab") and getattr(mod, "_check_radius", None) is real:
                monkeypatch.setattr(mod, "_check_radius", counted)
        assert main(["sweep", "--file", _write_mobius(tmp_path), "--kind", "D_NM",
                     "--n", "1", "--m", "0", "--grid", "0:1.2:100"]) == EXIT_OK
        statuses = [row[3] for row in _rows(capsys.readouterr().out)[1:]]
        assert statuses.count("OK") == 83 and statuses.count("REJECTED") == 17
        assert len(calls) == 100

    def test_bad_grid_usage_error(self, tmp_path, capsys):
        path = _write_mobius(tmp_path)
        assert main(["sweep", "--file", path, "--kind", "D_NM", "--n", "1",
                     "--m", "0", "--grid", "nope"]) == EXIT_USAGE


class TestSharpnessCommand:
    def test_default_radius_witness(self, capsys):
        rc = main(["sharpness", "--kind", "A_PM", "--p", "1", "--m", "1"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] > 1.0 + 1e-6
        assert payload["exceeds_one"] is True

    @pytest.mark.parametrize("kind", [["--kind", "H_PN"], ["--kind", "G_MPN", "--m", "1"]])
    def test_root_below_rational_bracket(self, capsys, kind):
        # the sharp radius is about 5e-13, below unique_root's 1e-9 bracket
        rc = main(["sharpness", *kind, "--p-exp", "1e-12", "--n", "1"])
        assert rc == EXIT_OK
        payload = json.loads(capsys.readouterr().out)
        assert payload["value"] > 1.0 + 1e-6

    @pytest.mark.parametrize("extra", [[], ["--r", "0.5"]])
    def test_lemma_tail_has_no_witness(self, capsys, extra):
        rc = main(["sharpness", "--kind", "LEMMA_TAIL", "--n", "2", *extra])
        assert rc == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    def test_below_radius_fails(self, capsys):
        rc = main(["sharpness", "--kind", "A_PM", "--p", "1", "--m", "1",
                   "--r", "0.1"])
        assert rc == EXIT_VIOLATION

    @pytest.mark.parametrize("extra", [[], ["--r", "0.5"]])
    def test_zero_gap_usage_error(self, capsys, extra):
        rc = main(["sharpness", "--kind", "A_PM", "--p", "0", "--m", "0", *extra])
        assert rc == EXIT_USAGE
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--r", "0.5"]])
    @pytest.mark.parametrize("kind", [["--kind", "D_NM", "--n", "100", "--m", "0"],
                                      ["--kind", "A_PM", "--p", "65", "--m", "1"]])
    def test_parameter_past_cap_usage_error(self, capsys, kind, extra):
        rc = main(["sharpness", *kind, *extra])
        assert rc == EXIT_USAGE
        assert "exceeds the cap 64" in capsys.readouterr().err

    @pytest.mark.parametrize("d", ["nan", "inf", "5"])
    def test_bad_weights_usage_error(self, capsys, d):
        # weights outside the constraint are a bad parameter, not a failed witness
        rc = main(["sharpness", "--kind", "I_M", "--d", d])
        assert rc == EXIT_USAGE
        assert _WEIGHT_ERRORS.get(d, _NOT_FINITE) in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--r", "0.9"]])
    def test_gap_without_witness_usage_error(self, capsys, extra):
        # the proofs establish gap-sum sharpness only at N = m + 1
        rc = main(["sharpness", "--kind", "D_NM", "--n", "3", "--m", "1", *extra])
        assert rc == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage error: no sharpness witness for D_NM(m=1,n=3)" in err
        assert "N = m + 1" in err

    @pytest.mark.parametrize("extra", [[], ["--r", "0.8"]])
    @pytest.mark.parametrize("kind", [["--kind", "A_PM", "--p", "2", "--m", "1"],
                                      ["--kind", "D_NM", "--n", "2", "--m", "1"],
                                      ["--kind", "H_PN", "--p-exp", "1.0", "--n", "1"]])
    def test_one_root_per_call(self, capsys, monkeypatch, kind, extra):
        calls = _count_roots(monkeypatch)
        assert main(["sharpness", *kind, *extra]) == EXIT_OK
        assert len(calls) == 1

    @pytest.mark.parametrize("extra", [[], ["--r", "0.5"]])
    @pytest.mark.parametrize("kind", [["--kind", "LEMMA_TAIL", "--n", "2"],
                                      ["--kind", "D_NM", "--n", "3", "--m", "1"]])
    def test_no_root_without_witness(self, capsys, monkeypatch, kind, extra):
        calls = _count_roots(monkeypatch)
        assert main(["sharpness", *kind, *extra]) == EXIT_USAGE
        assert calls == []

    @pytest.mark.parametrize("r", ["nan", "0.999", "0.995", "0", "-0.2", "inf"])
    def test_radius_out_of_range_usage_error(self, capsys, r):
        rc = main(["sharpness", "--kind", "A_PM", "--p", "1", "--m", "1", "--r", r])
        assert rc == EXIT_USAGE
        assert "usage error: --r must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("extra", [[], ["--r", "0.999"]])
    def test_witness_radius_past_the_rule_usage_error(self, capsys, extra):
        # sharp radius 0.99205: the default witness radius (+ 0.01) breaks
        # the radius rule exactly as the same radius given as --r does, and
        # the message blames --r only where --r was given
        rc = main(["sharpness", "--kind", "A_PM", "--p", "64", "--m", "64", *extra])
        assert rc == EXIT_USAGE
        if extra:
            want = ("usage error: --r must lie in (0, 0.995): radius 0.999 outside "
                    "the supported range [0, 0.995)\n")
        else:
            want = ("usage error: the default radius, the sharp radius + 0.01, is out of "
                    "range: radius 1.0020501184213295 outside the supported range "
                    "[0, 0.995); pass --r\n")
        assert capsys.readouterr().err == want


class TestParserReuse:
    def test_built_once_and_not_at_import(self, monkeypatch, capsys):
        import os
        import subprocess
        import sys

        import bohrlab.cli as cli

        probe = "import bohrlab.cli as c; print(c._parser.cache_info().currsize)"
        src = os.path.dirname(os.path.dirname(cli.__file__))
        fresh = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                               text=True, check=True, env={**os.environ, "PYTHONPATH": src})
        assert fresh.stdout.strip() == "0"
        builds = []
        real = cli.build_parser

        def counting_build():
            builds.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting_build)
        cli._parser.cache_clear()
        try:
            for argv in (["radii", "--bogus"], ["sharpness", "--kind", "I_M", "--d", "x"],
                         ["radii", "--p-max", "0", "--m-max", "0", "--n-max", "0"]):
                main(argv)
        finally:
            cli._parser.cache_clear()
        assert len(builds) == 1

    def test_no_state_carried_between_calls(self, tmp_path, capsys):
        path = _write_mobius(tmp_path, order=60)
        verify = ["verify", "--file", path, "--kind", "D_NM", "--n", "1", "--m", "0",
                  "--r", "0.3"]
        assert main(["verify", "--file", path, "--kind", "D_NM", "--bogus"]) == EXIT_USAGE
        assert capsys.readouterr().out == ""
        assert main(verify) == EXIT_OK
        first = capsys.readouterr().out
        out = tmp_path / "v.csv"
        assert main(verify + ["--format", "csv", "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().out == ""
        assert _rows(out.read_text())[0][0] == "kind"
        # neither --format nor --out: the defaults again, not the last call's
        assert main(verify) == EXIT_OK
        again = capsys.readouterr().out
        assert again == first
        assert json.loads(again)["margin"] <= 0.0
        for argv in (["verify", "--file", path, "--kind", "D_NM"], verify):
            runs = [(main(argv), capsys.readouterr()) for _ in range(2)]
            assert runs[0] == runs[1]


def parse_outcome(parse, argv):
    """What ``parse(argv)`` gives: its namespace or exit code, then stdout and stderr.

    The namespace is compared by its repr, so NaN equals NaN and the order of
    its attributes counts.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = repr(vars(parse(list(argv))))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


_VERIFY = ["verify", "--file", "f.json", "--kind", "D_NM", "--n", "1", "--m", "0",
           "--r", "0.3"]

#: Argument lists the subcommand fast path and argparse must treat alike.
_PARSE_CORPUS = {
    "empty": [],
    "help": ["-h"],
    "help-then-command": ["--help", "verify"],
    **{f"{cmd}-help": [cmd, "-h"]
       for cmd in ("radii", "verify", "sweep", "sharpness", "selftest")},
    "help-after-flags": [*_VERIFY, "--help"],
    "unknown-command": ["verif", "--file", "f.json"],
    "command-after-flag": ["--file", "f.json", "verify"],
    "abbreviated-flags": ["verify", "--fil", "f.json", "--kind", "H_PN", "--p-e", "1.5",
                          "--n", "2", "--r", "0.3"],
    "ambiguous-abbreviation": ["verify", "--f", "f.json", "--kind", "D_NM", "--r", "0.3"],
    "invalid-kind": ["verify", "--file", "f.json", "--kind", "BOGUS", "--r", "0.3"],
    "missing-required": ["verify", "--kind", "D_NM", "--r", "0.3"],
    "trailing-extras": [*_VERIFY, "extra", "--bogus"],
    "extras-only": ["radii", "--bogus", "x"],
    "double-dash": ["verify", "--", *_VERIFY[1:]],
    "double-dash-last": [*_VERIFY, "--"],
    "negative-r": ["verify", "--file", "f.json", "--kind", "D_NM", "--r", "-0.3"],
    "negative-r-joined": ["sharpness", "--kind", "D_NM", "--n", "1", "--m", "0",
                          "--r=-0.3"],
    "valid-verify": _VERIFY,
    "valid-radii": ["radii", "--p-max", "2"],
    "valid-selftest": ["selftest", "--only", "1,2", "--seed", "3"],
    "bad-int": ["radii", "--p-max", "two"],
    "repeated-flag": [*_VERIFY, "--r", "0.4", "--format", "csv", "--out", "x.csv"],
}


class TestParseOnce:
    """``main`` parses a named subcommand's flags with that subcommand's parser alone."""

    @pytest.mark.parametrize("name", list(_PARSE_CORPUS))
    def test_same_parse_as_argparse(self, name):
        import bohrlab.cli as cli

        argv = _PARSE_CORPUS[name]
        assert (parse_outcome(cli._parse, argv)
                == parse_outcome(cli.build_parser().parse_args, argv))

    def test_flags_scanned_once(self, monkeypatch):
        import argparse

        import bohrlab.cli as cli

        scanned = []
        real = argparse.ArgumentParser._parse_known_args

        def counted(parser, arg_strings, *rest, **kwargs):
            scanned.append(len(arg_strings))
            return real(parser, arg_strings, *rest, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "_parse_known_args", counted)
        cli._parse(_VERIFY)
        assert scanned == [len(_VERIFY) - 1]


class TestUnwritableOut:
    """An ``--out`` that cannot be written is a usage error, not a traceback."""

    @pytest.mark.parametrize("where", ["directory", "missing-parent"])
    @pytest.mark.parametrize("command", ["radii", "verify", "sweep", "sharpness"])
    def test_usage_error_naming_out(self, tmp_path, capsys, command, where):
        path = _write_mobius(tmp_path, order=60)
        kind = ["--kind", "D_NM", "--n", "1", "--m", "0"]
        argv = {
            "radii": ["radii", "--p-max", "1", "--m-max", "1", "--n-max", "1"],
            "verify": ["verify", "--file", path, *kind, "--r", "0.3"],
            "sweep": ["sweep", "--file", path, *kind, "--grid", "0.1:0.5:3"],
            "sharpness": ["sharpness", *kind],
        }[command]
        out = tmp_path if where == "directory" else tmp_path / "missing" / "out.csv"
        rc = main([*argv, "--out", str(out)])
        captured = capsys.readouterr()
        assert rc == EXIT_USAGE
        assert captured.out == ""
        assert captured.err.startswith("usage error: cannot write --out ")
        assert "Traceback" not in captured.err
        assert not (tmp_path / "missing").exists()


def _same_value(text, value):
    """Whether a CSV cell and a strict-JSON value hold the same datum."""
    if value is None:  # JSON's spelling of a non-finite float, or of no value
        return text == "" or not math.isfinite(float(text))
    if isinstance(value, bool):
        return text == str(value)
    if isinstance(value, (int, float)):
        return float(text) == value
    return text == value


class TestFormatsAgree:
    """Each subcommand prints the same fields and values as CSV and as strict JSON."""

    @staticmethod
    def _both(argv, capsys):
        texts, statuses = {}, set()
        for fmt in ("csv", "json"):
            statuses.add(main(argv + ["--format", fmt]))
            texts[fmt] = capsys.readouterr().out
        assert len(statuses) == 1
        rows = _rows(texts["csv"])
        return rows[0], rows[1:], json.loads(texts["json"], parse_constant=_reject_constant)

    @pytest.mark.parametrize("argv", [
        ["radii", "--p-max", "2", "--m-max", "2", "--n-max", "3"],
        ["sweep", "--kind", "D_NM", "--n", "1", "--m", "0", "--grid", "0:0.9:4"],
        ["sweep", "--kind", "D_NM", "--n", "1", "--m", "0", "--grid", "nan:0.5:3"],
        ["sweep", "--kind", "LEMMA_TAIL", "--n", "2", "--grid", "0.1:0.9:5"],
    ])
    def test_tables(self, tmp_path, capsys, argv):
        if argv[0] == "sweep":
            argv = argv[:1] + ["--file", _write_mobius(tmp_path)] + argv[1:]
        header, rows, data = self._both(argv, capsys)
        assert rows and len(rows) == len(data)
        for row, item in zip(rows, data):
            assert sorted(item) == sorted(header)
            assert all(_same_value(cell, item[key]) for key, cell in zip(header, row))

    @pytest.mark.parametrize("kind", [
        ["--kind", "D_NM", "--n", "1", "--m", "0", "--r", "0.3"],
        ["--kind", "D_NM", "--n", "1", "--m", "0", "--r", "0.8"],
        ["--kind", "LEMMA_TAIL", "--n", "2", "--r", "0.5"],
        ["--kind", "I_M", "--d", "0.5,0.1", "--r", "0.3"],
        ["--kind", "G_MPN", "--m", "1", "--p-exp", "2", "--n", "1", "--r", "0.3"],
    ])
    def test_verify(self, tmp_path, capsys, kind):
        argv = ["verify", "--file", _write_mobius(tmp_path), *kind]
        header, rows, data = self._both(argv, capsys)
        assert header == ["kind", "params", "r", "value", "tail_error", "margin"]
        (row,) = rows
        cells = dict(zip(header, row))
        inputs = data["inputs"]
        assert cells["kind"] == inputs["kind"]
        assert set(cells["params"].split(";")) == {f"{k}={v}" for k, v in inputs["params"].items()}
        assert _same_value(cells["r"], inputs["r"])
        for key in ("value", "tail_error", "margin"):
            assert _same_value(cells[key], data[key])

    @pytest.mark.parametrize("kind", [
        ["--kind", "A_PM", "--p", "2", "--m", "1"],
        ["--kind", "I_M", "--d", "0.8888888888888888"],
    ])
    def test_sharpness(self, capsys, kind):
        header, rows, data = self._both(["sharpness", *kind], capsys)
        (row,) = rows
        assert sorted(data) == sorted(header)
        for key, cell in zip(header, row):
            assert _same_value(cell, data[key])


class TestSelftestCommand:
    def test_single_criterion_passes(self, capsys):
        rc = main(["selftest", "--only", "1"])
        assert rc == EXIT_OK
        out = capsys.readouterr().out
        assert "criterion 1 golden-radii" in out
        assert "PASS" in out
        assert "1/1 criteria passed" in out

    def test_campaign_trials_override(self, capsys):
        rc = main(["selftest", "--only", "4", "--trials", "200"])
        assert rc == EXIT_OK
        assert "200 trials" in capsys.readouterr().out

    def test_campaign_trials_capped_before_sampling(self, capsys, monkeypatch):
        import bohrlab.cli as cli
        import bohrlab.selftest as st

        def no_campaign(*args, **kwargs):
            raise AssertionError("a campaign was started")

        monkeypatch.setattr(st, "random_campaign", no_campaign)
        for trials in (cli.TRIALS_CAP + 1, 10**9, 0):
            rc = main(["selftest", "--only", "4", "--trials", str(trials)])
            assert rc == EXIT_USAGE
            assert "--trials" in capsys.readouterr().err

    def test_seed_making_a_campaign_seed_negative_is_a_usage_error(self, capsys, monkeypatch):
        import bohrlab.selftest as st

        # The smallest campaign seed is 101: --seed -101 makes it 0 and runs.
        assert main(["selftest", "--only", "4", "--trials", "5", "--seed", "-101"]) == EXIT_OK
        assert "1/1 criteria passed" in capsys.readouterr().out

        def no_campaign(*args, **kwargs):
            raise AssertionError("a campaign was started")

        monkeypatch.setattr(st, "random_campaign", no_campaign)
        for seed in ("-102", "-1000"):
            rc = main(["selftest", "--only", "4", "--trials", "5", "--seed", seed])
            assert rc == EXIT_USAGE
            assert capsys.readouterr().err == (
                "usage error: --seed must be >= -101: the campaign seeds start at 101\n")

    def test_tampered_constant_fails_named_criterion(self, capsys, monkeypatch):
        import bohrlab.selftest as st

        real = st.maximal_root
        monkeypatch.setattr(st, "maximal_root", lambda eq: real(eq) + 1e-6)
        rc = main(["selftest", "--only", "1"])
        assert rc == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "criterion 1 golden-radii" in out and "FAIL" in out

    def test_unknown_criterion_usage_error(self, capsys):
        assert main(["selftest", "--only", "42"]) == EXIT_USAGE

    def test_rerun_identical_summary(self, capsys):
        assert main(["selftest", "--only", "1,2"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(["selftest", "--only", "1,2"]) == EXIT_OK
        second = capsys.readouterr().out
        # timings differ; the verdict lines must not
        strip = lambda s: [line.split("(")[0] + line.split(")")[-1] for line in s.splitlines()]
        assert strip(first) == strip(second)
