import json

import pytest

from linesurf.cli import main
from linesurf.serialize import (
    SchemaError,
    decimal_str,
    load_custom_lines,
    load_custom_profile,
)

SCHUR_PROFILE = {"n": 4, "d": 64, "t": {"2": 336, "3": 64, "4": 8}}
BAD_SCHUR_PROFILE = {"n": 4, "d": 64, "t": {"2": 192, "3": 64, "4": 8}}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecimalRendering:
    def test_truncates_toward_zero(self):
        from fractions import Fraction

        assert decimal_str(Fraction(-128, 51), 3) == "-2.509"
        assert decimal_str(Fraction(-27, 11), 3) == "-2.454"
        assert decimal_str(Fraction(-8), 3) == "-8.000"
        assert decimal_str(Fraction(5, 4), 2) == "1.25"
        assert decimal_str(Fraction(1, 3), 0) == "0"


class TestAnalyze:
    def test_fermat_cubic_table(self, capsys):
        code, out, _ = run(capsys, "analyze", "--surface", "fermat", "--degree", "3")
        assert code == 0
        assert "-27/11" in out
        assert "inapplicable" in out

    def test_schur_decimal(self, capsys):
        code, out, _ = run(capsys, "analyze", "--surface", "schur", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["h_linear"] == {"exact": "-128/51", "decimal": "-2.509"}
        assert payload["miyaoka"]["holds"] is True

    def test_from_lines_matches_formula(self, capsys):
        code, direct, _ = run(
            capsys, "analyze", "--surface", "fermat", "--degree", "3", "--format", "csv"
        )
        assert code == 0
        code, scanned, _ = run(
            capsys,
            "analyze",
            "--surface",
            "fermat",
            "--degree",
            "3",
            "--from-lines",
            "--format",
            "csv",
        )
        assert code == 0
        assert direct == scanned

    def test_no_singular_points_is_domain_error(self, capsys, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps({"n": 4, "d": 2, "t": {}}))
        code, _, err = run(
            capsys, "analyze", "--surface", "custom", "--profile", str(path)
        )
        assert code == 2
        assert "s = 0" in err


class TestProfileAndCatalog:
    def test_profile_rams(self, capsys):
        code, out, _ = run(
            capsys, "profile", "--surface", "rams", "--degree", "6", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 28 and payload["t"] == {"2": 52}

    def test_catalog_counts(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--surface", "fermat", "--degree", "3", "--format", "json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["d"] == 27 and len(payload["lines"]) == 27
        assert payload["conductor"] == 6

    def test_catalog_needs_explicit_surface(self, capsys):
        code, _, err = run(capsys, "profile", "--surface", "cubic")
        assert code == 1
        assert "--eckardt" in err

    def test_catalog_csv(self, capsys):
        code, out, _ = run(
            capsys, "catalog", "--surface", "fermat", "--degree", "3", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "index,point_1,point_2,plucker"
        assert len(lines) == 28

    def test_catalog_singular_points(self, capsys):
        code, out, _ = run(
            capsys,
            "catalog", "--surface", "fermat", "--degree", "3",
            "--singular", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["meeting_pairs"] == 135
        assert len(payload["points"]) == 99
        mults = sorted({p["multiplicity"] for p in payload["points"]})
        assert mults == [2, 3]
        assert all(len(p["lines"]) == p["multiplicity"] for p in payload["points"])


class TestVerify:
    def test_schur_valency_passes(self, capsys, tmp_path):
        path = tmp_path / "schur.json"
        path.write_text(json.dumps(SCHUR_PROFILE))
        code, out, _ = run(
            capsys,
            "verify",
            "--surface",
            "custom",
            "--profile",
            str(path),
            "--valency",
            "18",
        )
        assert code == 0
        assert "valency_18" in out and "FAIL" not in out

    def test_bad_schur_valency_fails(self, capsys, tmp_path):
        path = tmp_path / "bad_schur.json"
        path.write_text(json.dumps(BAD_SCHUR_PROFILE))
        code, out, _ = run(
            capsys,
            "verify",
            "--surface",
            "custom",
            "--profile",
            str(path),
            "--valency",
            "18",
        )
        assert code == 0  # the command ran; the check itself reports FAIL
        assert "FAIL" in out

    def test_fermat_identities(self, capsys):
        code, out, _ = run(capsys, "verify", "--surface", "fermat", "--degree", "3")
        assert code == 0
        for name in ("multiplicity_sum", "point_count", "meeting_pairs", "on_surface"):
            assert name in out
        assert "FAIL" not in out


class TestBound:
    def test_bauer_bound(self, capsys, tmp_path):
        path = tmp_path / "bauer.json"
        path.write_text(json.dumps({"n": 4, "d": 16, "t": {"4": 8}}))
        code, out, _ = run(
            capsys, "bound", "--surface", "custom", "--profile", str(path),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h_lower_bound"] == "-9"
        assert payload["miyaoka"] == {"lhs": 64, "rhs": 72, "holds": True}

    def test_cubic_is_inapplicable(self, capsys):
        code, _, err = run(capsys, "bound", "--surface", "cubic", "--eckardt", "18")
        assert code == 2
        assert err == "linesurf bound: Miyaoka's inequality requires surface degree n >= 4\n"


class TestSweep:
    def test_fermat_csv_shape(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--surface", "fermat", "--degrees", "3:12",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "n,d,s,t,h_exact,h_decimal,miyaoka_lhs,miyaoka_rhs,h_bound"
        assert len(lines) == 11
        from fractions import Fraction

        h_values = [Fraction(line.split(",")[4]) for line in lines[1:]]
        assert all(b < a for a, b in zip(h_values, h_values[1:]))
        assert all(h > -3 for h in h_values)

    def test_cubic_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--surface", "cubic", "--eckardt-range", "0:18",
            "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 20

    def test_rams_sweep(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--surface", "rams", "--degrees", "6:20",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert len(lines) == 16
        from fractions import Fraction

        h_values = [Fraction(line.split(",")[4]) for line in lines[1:]]
        assert all(b < a for a, b in zip(h_values, h_values[1:]))

    def test_places_flag(self, capsys):
        code, out, _ = run(
            capsys, "analyze", "--surface", "schur", "--format", "json",
            "--places", "6",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["h_linear"]["decimal"] == "-2.509803"

    @pytest.mark.parametrize("fmt", ("table", "csv", "json"))
    @pytest.mark.parametrize(
        "argv",
        (
            ("bound", "--surface", "schur"),
            ("search-bauer", "--surface", "fermat", "--degree", "4", "--size", "16"),
            ("search-extremal", "--degree", "4", "--num-lines", "6", "--k-max", "3"),
        ),
    )
    def test_negative_places_rejected_in_every_format(self, capsys, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt, "--places", "-1")
        assert (code, out) == (2, "")
        assert err == f"linesurf {argv[0]}: places must be nonnegative\n"

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run(capsys, "sweep", "--surface", "fermat", "--degrees", "12")
        assert code == 1
        assert "A:B" in err


class TestSearches:
    def test_search_bauer(self, capsys):
        code, out, _ = run(
            capsys,
            "search-bauer",
            "--surface", "fermat", "--degree", "4", "--size", "16",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["solutions"]
        first = payload["solutions"][0]
        assert len(first["lines"]) == 16
        assert first["profile"]["t"] == {"4": 8}
        assert first["h_linear"] == "-8"

    def test_search_bauer_needs_lines(self, capsys):
        code, _, err = run(
            capsys, "search-bauer", "--surface", "custom", "--size", "16"
        )
        assert code == 1
        assert "--lines" in err

    def test_search_extremal(self, capsys):
        code, out, _ = run(
            capsys,
            "search-extremal",
            "--degree", "4", "--num-lines", "16", "--k-max", "4",
            "--limit", "5", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert "realizable" in payload["note"]
        assert len(payload["profiles"]) == 5

    def test_search_extremal_negative_limit(self, capsys):
        argv = ["search-extremal", "--degree", "4", "--num-lines", "6", "--k-max", "3"]
        code, out, err = run(capsys, *argv, "--format", "csv", "--limit", "-1")
        assert (code, out) == (2, "")
        assert "limit must be nonnegative" in err
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 52

    def test_search_extremal_degree_gate(self, capsys):
        code, _, err = run(
            capsys, "search-extremal", "--degree", "3", "--num-lines", "5", "--k-max", "3"
        )
        assert code == 2
        assert "n >= 4" in err


class TestCustomInput:
    def test_load_schur_profile(self, tmp_path):
        path = tmp_path / "schur.json"
        path.write_text(json.dumps(SCHUR_PROFILE))
        profile = load_custom_profile(str(path))
        assert profile.s == 408

    def test_bad_variant_still_loads(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(BAD_SCHUR_PROFILE))
        assert load_custom_profile(str(path)).s == 264

    def test_infeasible_profile_rejected(self, tmp_path):
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps({"n": 4, "d": 2, "t": {"2": 2}}))
        with pytest.raises(SchemaError, match="feasibility"):
            load_custom_profile(str(path))

    def test_line_bound_enforced(self, tmp_path):
        path = tmp_path / "too_many.json"
        path.write_text(json.dumps({"n": 4, "d": 65, "t": {}}))
        with pytest.raises(SchemaError, match="n\\(7n-12\\)"):
            load_custom_profile(str(path))

    def test_load_lines(self, tmp_path):
        data = {
            "n": 4,
            "lines": [
                [[1, 0, 0, 0], [0, 1, 0, 0]],
                [["0", "0", "1", "0"], [{"m": 8, "coeffs": ["0", "1", "0", "0"]}, "0", "0", "1"]],
            ],
        }
        path = tmp_path / "lines.json"
        path.write_text(json.dumps(data))
        arr = load_custom_lines(str(path))
        assert arr.d == 2 and arr.conductor == 8

    def test_repeated_line_rejected(self, tmp_path):
        data = {
            "n": 4,
            "lines": [
                [[1, 0, 0, 0], [0, 1, 0, 0]],
                [[2, 0, 0, 0], [0, 3, 0, 0]],
            ],
        }
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="distinct"):
            load_custom_lines(str(path))

    def test_wrong_conductor_rejected(self, tmp_path):
        data = {
            "n": 4,
            "lines": [[[{"m": 6, "coeffs": ["1", "0"]}, 1, 0, 0], [0, 0, 1, 0]]],
        }
        path = tmp_path / "wrong_m.json"
        path.write_text(json.dumps(data))
        with pytest.raises(SchemaError, match="conductor"):
            load_custom_lines(str(path))

    def test_float_coefficient_rejected(self, capsys, tmp_path):
        # 0.1 is not exact in binary; it must not turn into 3602879701896397/2^55
        point = [{"m": 8, "coeffs": [0.1, 0, 0, 0]}, 0, 1, 0]
        path = tmp_path / "float.json"
        path.write_text(json.dumps({"n": 4, "lines": [[[0, 1, 0, 0], point]]}))
        with pytest.raises(SchemaError, match="0.1"):
            load_custom_lines(str(path))
        code, out, err = run(
            capsys, "catalog", "--surface", "custom", "--lines", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert "integers or 'p/q' strings" in err

    @pytest.mark.parametrize("conductor", (8.9, "8", True))
    def test_non_integer_conductor_rejected(self, capsys, tmp_path, conductor):
        point = [{"m": conductor, "coeffs": [1, 0, 0, 0]}, 0, 1, 0]
        path = tmp_path / "conductor.json"
        path.write_text(json.dumps({"n": 4, "lines": [[[0, 1, 0, 0], point]]}))
        with pytest.raises(SchemaError, match="conductor m must be a JSON integer"):
            load_custom_lines(str(path))
        code, out, err = run(
            capsys, "catalog", "--surface", "custom", "--lines", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert f"got {conductor!r}" in err

    @pytest.mark.parametrize(
        "coordinate", (True, False, {"m": 8, "coeffs": [0, True, 0, 0]})
    )
    def test_boolean_coordinate_rejected(self, tmp_path, coordinate):
        path = tmp_path / "bool.json"
        point = [1, 0, coordinate, 1]
        path.write_text(json.dumps({"n": 4, "lines": [[[0, 1, 0, 0], point]]}))
        with pytest.raises(SchemaError):
            load_custom_lines(str(path))

    def test_exact_coefficients_still_load(self, tmp_path):
        point = [{"m": 8, "coeffs": [1, "1/10", "-3", 0]}, 0, 1, 0]
        path = tmp_path / "exact.json"
        path.write_text(json.dumps({"n": 4, "lines": [[[0, 1, 0, 0], point]]}))
        assert load_custom_lines(str(path)).d == 1

    @pytest.mark.parametrize("count", (2.7, 2.0, True, "2"))
    def test_non_integer_count_rejected(self, capsys, tmp_path, count):
        path = tmp_path / "count.json"
        path.write_text(json.dumps({"n": 4, "d": 6, "t": {"2": count}}))
        with pytest.raises(SchemaError, match="t_2"):
            load_custom_profile(str(path))
        code, out, err = run(
            capsys, "profile", "--surface", "custom", "--profile", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert "JSON integer" in err

    @pytest.mark.parametrize(
        "fields", ({"n": 4, "d": True}, {"n": True, "d": 6}, {"n": 4, "d": False})
    )
    def test_boolean_degree_or_line_count_rejected(self, capsys, tmp_path, fields):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({**fields, "t": {}}))
        with pytest.raises(SchemaError, match="must be a JSON integer"):
            load_custom_profile(str(path))
        code, out, err = run(
            capsys, "profile", "--surface", "custom", "--profile", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert "JSON integer" in err

    def test_analyze_custom_lines_end_to_end(self, capsys, tmp_path):
        # two meeting lines: one double point, H_L = ((2-4)*2 - 2)/1 = -6
        data = {
            "n": 4,
            "lines": [
                [[1, 0, 0, 0], [0, 1, 0, 0]],
                [[1, 0, 0, 0], [0, 0, 1, 0]],
            ],
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(data))
        code, out, _ = run(
            capsys, "analyze", "--surface", "custom", "--lines", str(path),
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["s"] == 1
        assert payload["h_linear"]["exact"] == "-6"


class TestOutputBehavior:
    def test_output_file_and_determinism(self, capsys, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        for target in (out_a, out_b):
            code, _, _ = run(
                capsys,
                "sweep", "--surface", "fermat", "--degrees", "3:8",
                "--format", "csv", "--output", str(target),
            )
            assert code == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_threads_do_not_change_output(self, capsys):
        code, plain, _ = run(
            capsys, "verify", "--surface", "fermat", "--degree", "4", "--format", "csv"
        )
        assert code == 0
        code, threaded, _ = run(
            capsys,
            "verify", "--surface", "fermat", "--degree", "4", "--format", "csv",
            "--threads", "4",
        )
        assert code == 0
        assert plain == threaded

    def test_verify_scans_once(self, capsys, monkeypatch):
        import linesurf.cli
        import linesurf.incidence

        calls = []
        original = linesurf.incidence.scan_arrangement

        def counting(arr):
            calls.append(arr.d)
            return original(arr)

        # both bindings, so a scan through incidence helpers is counted too
        monkeypatch.setattr(linesurf.cli, "scan_arrangement", counting)
        monkeypatch.setattr(linesurf.incidence, "scan_arrangement", counting)
        code, out, _ = run(capsys, "verify", "--surface", "fermat", "--degree", "3")
        assert code == 0 and "FAIL" not in out
        assert calls == [27]

    def test_unknown_flag_is_usage_error(self, capsys):
        code, _, err = run(capsys, "analyze", "--surface", "fermat", "--nope")
        assert code == 1
        assert err.startswith("usage: linesurf analyze ")
        assert err.endswith("linesurf analyze: error: unrecognized arguments: --nope\n")

    def test_unregistered_flag_is_reported_by_the_subcommand(self, capsys):
        argv = ("catalog", "--surface", "fermat", "--degree", "3", "--places", "2")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        usage, message = err.split("linesurf catalog: error: ")
        assert usage.startswith("usage: linesurf catalog ") and "--singular" in usage
        assert message == "unrecognized arguments: --places 2\n"


# Each subcommand's options, leaving out --help and --threads: a flag is
# registered only where the subcommand reads it.
OPTIONS = {
    "catalog": "--surface --degree --lines --singular --format --output",
    "profile": "--surface --degree --eckardt --profile --lines --from-lines --format --output",
    "analyze": (
        "--surface --degree --eckardt --profile --lines --from-lines"
        " --format --places --output"
    ),
    "verify": "--surface --degree --eckardt --profile --lines --valency --format --output",
    "bound": (
        "--surface --degree --eckardt --profile --lines --from-lines"
        " --format --places --output"
    ),
    "sweep": "--surface --degrees --eckardt-range --format --places --output",
    "search-bauer": (
        "--surface --degree --lines --size --max-solutions --format --places --output"
    ),
    "search-extremal": "--degree --num-lines --k-max --limit --format --places --output",
}

# (argv, flag named in the error); {P} is a profile file, {L} a lines file.
# Before each of these was an error, it exited 0 and ignored part of its input.
UNREAD = [
    (("analyze", "--surface", "cubic", "--eckardt", "3", "--degree", "5"), "--degree"),
    (("analyze", "--surface", "schur", "--from-lines"), "--from-lines"),
    (("profile", "--surface", "schur", "--degree", "4"), "--degree"),
    (("profile", "--surface", "cubic", "--eckardt", "3", "--degree", "4"), "--degree"),
    (("analyze", "--surface", "fermat", "--degree", "4", "--eckardt", "3"), "--eckardt"),
    (("verify", "--surface", "schur", "--eckardt", "3"), "--eckardt"),
    (("profile", "--surface", "custom", "--profile", "{P}", "--eckardt", "2"), "--eckardt"),
    (("profile", "--surface", "rams", "--degree", "6", "--from-lines"), "--from-lines"),
    (("analyze", "--surface", "custom", "--lines", "{L}", "--from-lines"), "--from-lines"),
    (("bound", "--surface", "custom", "--profile", "{P}", "--from-lines"), "--from-lines"),
    (("catalog", "--surface", "fermat", "--degree", "3", "--lines", "{L}"), "--lines"),
    (("verify", "--surface", "custom", "--lines", "{L}", "--degree", "4"), "--degree"),
    (
        ("sweep", "--surface", "fermat", "--degrees", "3:5", "--eckardt-range", "0:3"),
        "--eckardt-range",
    ),
]
BOTH = [
    (cmd, "--surface", "custom", "--profile", "{P}", "--lines", "{L}")
    for cmd in ("analyze", "profile", "verify", "bound")
]


class TestFlags:
    def test_option_sets(self):
        import argparse

        from linesurf.cli import build_parser

        (sub,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: [o for a in parser._actions for o in a.option_strings]
            for name, parser in sub.choices.items()
        }
        for name, options in found.items():
            assert "--threads" in options  # the one documented no-op
            assert set(options) - {"-h", "--help", "--threads"} == set(OPTIONS[name].split())
        assert sum(len(o.split()) for o in OPTIONS.values()) == 61

    @pytest.mark.parametrize(
        "argv,message",
        [
            (argv, f"--surface {argv[2]} does not read {flag}") for argv, flag in UNREAD
        ]
        + [(argv, "--profile and --lines exclude each other") for argv in BOTH],
    )
    def test_unread_or_conflicting_flag_is_usage_error(self, capsys, tmp_path, argv, message):
        profile, lines = tmp_path / "bauer.json", tmp_path / "pair.json"
        profile.write_text(json.dumps({"n": 4, "d": 16, "t": {"4": 8}}))
        pair = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]]]
        lines.write_text(json.dumps({"n": 4, "lines": pair}))
        argv = [a.format(P=profile, L=lines) for a in argv]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == f"linesurf {argv[0]}: error: {message}\n"
