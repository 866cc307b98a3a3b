import gc
import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from linesurf.catalog import NAMED, Arrangement, fermat_lines
from linesurf.cli import build_parser, main
from linesurf.harbourne import extremal_profile_search
from linesurf.projgeom import ProjLine, ProjPoint
from linesurf.serialize import (
    SchemaError,
    arrangement_json,
    decimal_str,
    exact_cell,
    load_custom_lines,
    load_custom_profile,
    rational_json,
)

# A 5,000-digit JSON integer is refused by json.load only under an int-string limit.
NEEDS_INT_LIMIT = pytest.mark.skipif(
    not 0 < getattr(sys, "get_int_max_str_digits", lambda: 0)() < 5000,
    reason="needs an int-string limit below 5000 digits",
)

SCHUR_PROFILE = {"n": 4, "d": 64, "t": {"2": 336, "3": 64, "4": 8}}
BAD_SCHUR_PROFILE = {"n": 4, "d": 64, "t": {"2": 192, "3": 64, "4": 8}}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecimalRendering:
    def test_truncates_toward_zero(self):
        assert decimal_str(Fraction(-128, 51), 3) == "-2.509"
        assert decimal_str(Fraction(-27, 11), 3) == "-2.454"
        assert decimal_str(Fraction(-8), 3) == "-8.000"
        assert decimal_str(Fraction(5, 4), 2) == "1.25"
        assert decimal_str(Fraction(1, 3), 0) == "0"
        assert decimal_str(Fraction(-1, 3), 0) == "0"

    # Ints, integral Fractions and negative Fractions: each value is printed
    # from its own str and numerator/denominator, with no Fraction built.
    @given(
        st.one_of(
            st.integers(-(10**30), 10**30),
            st.integers(-(10**6), 10**6).map(Fraction),
            st.builds(Fraction, st.integers(-(10**6), -1), st.integers(1, 10**4)),
        )
    )
    def test_text_is_the_fraction_text(self, value):
        text = str(Fraction(value))
        assert exact_cell(value) == text
        for places in range(5):
            assert rational_json(value, places)["exact"] == text
            assert exact_cell(value, places) == f"{text} ({decimal_str(value, places)})"

    @given(st.integers(-(10**30), 10**30))
    def test_int_decimal_is_the_fraction_decimal(self, value):
        for places in range(5):
            assert decimal_str(value, places) == decimal_str(Fraction(value), places)
            whole = str(value)
            assert decimal_str(value, places) == (f"{whole}.{'0' * places}" if places else whole)


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
        assert err == (
            "linesurf analyze: H_L is undefined: "
            "the configuration has no singular points (s = 0)\n"
        )


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
        rows = [line.split() for line in out.splitlines()[2:]]
        assert rows == [["on_surface", "27", "27", "PASS"]]

    def test_line_off_the_surface_fails(self, capsys, monkeypatch):
        arr = fermat_lines(3)
        axis = ProjLine(*(ProjPoint.from_values(6, p) for p in ((1, 0, 0, 0), (0, 1, 0, 0))))
        broken = Arrangement(3, arr.lines[1:] + (axis,))
        monkeypatch.setitem(NAMED, "fermat", NAMED["fermat"]._replace(lines=lambda n: broken))
        code, out, _ = run(capsys, "verify", "--surface", "fermat", "--degree", "3")
        assert code == 0
        assert out.splitlines()[2].split() == ["on_surface", "26", "27", "FAIL"]

    def test_identities_on_two_concurrent_lines(self, capsys, tmp_path):
        pair = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]]]
        path = tmp_path / "pair.json"
        path.write_text(json.dumps({"n": 4, "lines": pair}))
        argv = ("verify", "--surface", "custom", "--lines", str(path), "--format", "csv")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err == (
            "linesurf verify: error: --surface custom has nothing to verify without --valency\n"
        )
        code, out, _ = run(capsys, *argv, "--valency", "1")
        assert code == 0
        assert out.splitlines() == ["check,lhs,rhs,result", "valency_1,2,2,PASS"]

    def test_unequal_valencies_fail(self, capsys, tmp_path):
        # The lines meet 1, 2, 1 and 0 others: 4 incidences fit d * V = 4, yet
        # not every line meets exactly one other.
        chain = [
            [[1, 0, 0, 0], [0, 1, 0, 0]],
            [[0, 1, 0, 0], [0, 0, 1, 0]],
            [[0, 0, 1, 0], [0, 0, 0, 1]],
            [[1, 0, 1, 0], [0, 1, 0, 1]],
        ]
        path = tmp_path / "chain.json"
        path.write_text(json.dumps({"n": 4, "lines": chain}))
        argv = ("verify", "--surface", "custom", "--lines", str(path), "--format", "csv")
        code, out, _ = run(capsys, *argv, "--valency", "1")
        assert code == 0
        assert out.splitlines() == ["check,lhs,rhs,result", "valency_1,4,4,FAIL"]

    def test_negative_valency_is_domain_error(self, capsys):
        code, out, err = run(
            capsys, "verify", "--surface", "fermat", "--degree", "3", "--valency", "-1"
        )
        assert (code, out) == (2, "")
        assert err == "linesurf verify: valency must be nonnegative\n"

    @pytest.mark.parametrize("surface", ("fermat", "custom"))
    def test_negative_valency_tests_and_scans_nothing(
        self, capsys, monkeypatch, tmp_path, surface
    ):
        import linesurf.catalog
        import linesurf.incidence

        calls = []
        modules = [m for key, m in sys.modules.items() if key.split(".")[0] == "linesurf"]
        for name, original in (
            ("on_surface", linesurf.catalog.on_surface),
            ("scan_arrangement", linesurf.incidence.scan_arrangement),
        ):

            def counting(*args, name=name, original=original):
                calls.append(name)
                return original(*args)

            for module in modules:  # every binding, the package's and the CLI's included
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counting)
        if surface == "fermat":
            selector = ("--degree", "8")
        else:
            pair = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]]]
            path = tmp_path / "pair.json"
            path.write_text(json.dumps({"n": 4, "lines": pair}))
            selector = ("--lines", str(path))
        argv = ("verify", "--surface", surface, *selector, "--valency", "-1")
        assert run(capsys, *argv) == (2, "", "linesurf verify: valency must be nonnegative\n")
        assert calls == []


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
        rows = out.strip().split("\n")[1:]
        assert [row.split(",")[3] for row in rows] == [
            "2:135", "2:132;3:1", "2:129;3:2", "2:126;3:3", "2:123;3:4",
            "2:117;3:6", "2:108;3:9", "2:105;3:10", "2:81;3:18",
        ]

    def test_cubic_sweep_walks_the_counts_not_the_range(self, capsys):
        code, out, _ = run(
            capsys, "sweep", "--surface", "cubic", "--eckardt-range", "0:1000000000000000",
            "--format", "csv",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 10

    def test_cubic_sweep_of_no_existing_count(self, capsys):
        code, out, err = run(capsys, "sweep", "--surface", "cubic", "--eckardt-range", "11:17")
        assert (code, out) == (2, "")
        assert err == "linesurf sweep: no eckardt value in 11:17 exists for --surface cubic\n"

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

    @pytest.mark.parametrize(
        "argv, carries_decimals",
        (
            (("analyze", "--surface", "schur"), True),
            (("sweep", "--surface", "cubic", "--eckardt-range", "0:2"), True),
            (("bound", "--surface", "schur"), False),
            (("search-bauer", "--surface", "fermat", "--degree", "4", "--size", "16"), False),
            (("search-extremal", "--degree", "4", "--num-lines", "6", "--k-max", "3"), False),
        ),
    )
    def test_places_shapes_json_only_where_it_carries_decimals(
        self, capsys, argv, carries_decimals
    ):
        outputs = []
        for places in ("0", "7"):
            code, out, err = run(capsys, *argv, "--format", "json", "--places", places)
            assert (code, err) == (0, "")
            outputs.append(out)
        assert (outputs[0] != outputs[1]) == carries_decimals

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

    @pytest.mark.parametrize("fmt", ("table", "csv", "json"))
    @pytest.mark.parametrize(
        "argv", (("analyze", "--surface", "schur"), ("bound", "--surface", "schur"))
    )
    def test_places_capped_at_the_int_digit_limit(self, capsys, argv, fmt):
        # Python converts ints of at most 4300 digits to str by default, and
        # a decimal's fractional part is one int of `places` digits.  JSON
        # from bound prints no decimal, but is held to the same cap.
        code, _, err = run(capsys, *argv, "--format", fmt, "--places", "4300")
        assert (code, err) == (0, "")
        code, out, err = run(capsys, *argv, "--format", fmt, "--places", "4301")
        assert (code, out) == (2, "")
        assert err == f"linesurf {argv[0]}: places must be at most 4300\n"

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int digit limit before 3.10.7"
    )
    @pytest.mark.parametrize("fmt", ("table", "csv", "json"))
    @pytest.mark.parametrize(
        "argv", (("analyze", "--surface", "schur"), ("bound", "--surface", "schur"))
    )
    def test_places_cap_follows_the_interpreter_limit(self, capsys, argv, fmt):
        saved = sys.get_int_max_str_digits()
        try:
            sys.set_int_max_str_digits(640)
            code, _, err = run(capsys, *argv, "--format", fmt, "--places", "640")
            assert (code, err) == (0, "")
            code, out, err = run(capsys, *argv, "--format", fmt, "--places", "641")
            assert (code, out) == (2, "")
            assert err == f"linesurf {argv[0]}: places must be at most 640\n"
            sys.set_int_max_str_digits(0)  # no limit, so no cap
            code, _, err = run(capsys, *argv, "--format", fmt, "--places", "4301")
            assert (code, err) == (0, "")
        finally:
            sys.set_int_max_str_digits(saved)

    def test_no_cap_without_an_int_digit_limit(self, capsys, monkeypatch):
        # Python 3.10 before 3.10.7 has neither the limit nor get_int_max_str_digits.
        setter = getattr(sys, "set_int_max_str_digits", None)
        saved = sys.get_int_max_str_digits() if setter else None
        monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
        try:
            if setter:
                setter(0)
            code, out, err = run(
                capsys, "analyze", "--surface", "schur", "--format", "csv", "--places", "4301"
            )
        finally:
            if setter:
                setter(saved)
        assert (code, err) == (0, "")
        header, row = (line.split(",") for line in out.splitlines())
        assert len(row[header.index("h_decimal")]) == len("-2.") + 4301

    def test_empty_range_is_usage_error(self, capsys):
        code, out, err = run(capsys, "sweep", "--surface", "fermat", "--degrees", "5:3")
        assert (code, out) == (1, "")
        assert err == "linesurf sweep: error: --degrees range is empty: 5:3\n"

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

    def test_search_bauer_all_solutions_csv(self, capsys):
        code, out, err = run(
            capsys, "search-bauer", "--surface", "fermat", "--degree", "4",
            "--size", "16", "--max-solutions", "0", "--format", "csv",
        )
        assert (code, err) == (0, "")
        rows = out.splitlines()
        assert rows[0] == "solution,lines,t,h_exact,h_decimal"
        assert [row.split(",")[:4] for row in rows[1:]] == [
            [str(i), ";".join(map(str, range(16 * i, 16 * i + 16))), "4:8", "-8"]
            for i in range(3)
        ]

    def test_search_bauer_negative_max_solutions(self, capsys):
        code, out, err = run(
            capsys, "search-bauer", "--surface", "fermat", "--degree", "4",
            "--size", "16", "--max-solutions", "-1",
        )
        assert (code, out) == (1, "")
        assert err == (
            "linesurf search-bauer: error: --max-solutions must be 0 (all) or positive\n"
        )

    @pytest.mark.parametrize(
        "extra,code,err",
        (
            ((), 2, "linesurf search-bauer: a subconfiguration needs at least 2 lines\n"),
            # --max-solutions is refused first, as a usage error
            (("--max-solutions", "-1"), 1,
             "linesurf search-bauer: error: --max-solutions must be 0 (all) or positive\n"),
        ),
    )
    def test_search_bauer_refusals_scan_nothing(self, capsys, monkeypatch, extra, code, err):
        import linesurf.cli
        import linesurf.incidence

        calls = []
        original = linesurf.incidence.scan_arrangement

        def counting(arr):
            calls.append(arr.d)
            return original(arr)

        for module in (linesurf.cli, linesurf.incidence):
            monkeypatch.setattr(module, "scan_arrangement", counting)
        argv = ("search-bauer", "--surface", "fermat", "--degree", "8", "--size", "1", *extra)
        assert run(capsys, *argv) == (code, "", err)
        assert calls == []

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

    def test_search_extremal_miyaoka_lower_end(self, capsys):
        argv = ["search-extremal", "--degree", "4", "--num-lines", "19", "--k-max", "2"]
        code, out, _ = run(capsys, *argv, "--limit", "2", "--format", "csv")
        assert code == 0
        assert out.splitlines() == [
            "t,s,h_exact,h_decimal,miyaoka_lhs,miyaoka_rhs",
            "2:4,4,-23/2,-11.500,72,72",
            "2:5,5,-48/5,-9.600,71,72",
        ]
        code, out, _ = run(capsys, *argv, "--format", "csv")
        assert code == 0 and len(out.splitlines()) == 169

    def test_search_extremal_degree_gate(self, capsys):
        code, _, err = run(
            capsys, "search-extremal", "--degree", "3", "--num-lines", "5", "--k-max", "3"
        )
        assert code == 2
        assert "n >= 4" in err

    @pytest.mark.parametrize(
        "case,message",
        [
            ((4, 0, 3), "the search needs at least one line"),
            ((4, 6, 1), "k_max must be at least 2"),
            (
                (4, 64, 4),
                "infeasible search space: about 457457617 candidate t-vectors; reduce d or k_max",
            ),
        ],
        ids=("no-lines", "k-max-below-2", "search-space"),
    )
    def test_search_extremal_refusals(self, capsys, case, message):
        with pytest.raises(ValueError) as refused:
            extremal_profile_search(*case)
        assert (refused.type, str(refused.value)) == (ValueError, message)
        flags = ("--degree", "--num-lines", "--k-max")
        argv = [x for flag, value in zip(flags, case) for x in (flag, str(value))]
        code, out, err = run(capsys, "search-extremal", *argv)
        assert (code, out, err) == (2, "", f"linesurf search-extremal: {message}\n")


# JSON values of every type that are no valid n, d, t or count.
NON_INTEGERS = (True, False, 4.0, 2.5, "4", "", None, [], [4], {}, {"4": 4})
# (field, value) pairs that each break the profile {"n": 4, "d": 6, "t": {"2": 3, "3": 1}}:
# "2" and "3" name a count, "key" replaces t by {value: 1}.
ODD_PROFILE_FIELDS = [
    *(("n", v) for v in (-1, 0, 2, *NON_INTEGERS)),
    *(("d", v) for v in (-1, 1, 65, *NON_INTEGERS)),
    *(("t", v) for v in (3, *NON_INTEGERS) if v != {}),
    *((k, v) for k in ("2", "3") for v in (-1, 100, *NON_INTEGERS)),
    *(("key", k) for k in ("x", "2.0", "", "1", "7")),
]


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

    def test_written_lines_read_back(self, tmp_path):
        arr = fermat_lines(3)
        data = {"n": arr.n, "lines": [e["points"] for e in arrangement_json(arr)["lines"]]}
        path = tmp_path / "fermat3.json"
        path.write_text(json.dumps(data))
        assert load_custom_lines(str(path)) == arr

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
        message = f"{path}: multiplicities and counts must be integers: t_2 = {count!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_custom_profile(str(path))
        code, out, err = run(
            capsys, "profile", "--surface", "custom", "--profile", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err == f"linesurf profile: {message}\n"

    @pytest.mark.parametrize(
        "fields", ({"n": 4, "d": True}, {"n": True, "d": 6}, {"n": 4, "d": False})
    )
    def test_boolean_degree_or_line_count_rejected(self, capsys, tmp_path, fields):
        path = tmp_path / "bool.json"
        path.write_text(json.dumps({**fields, "t": {}}))
        if fields["n"] is True:
            message = f"{path}: surface degree n must be an integer >= 3"
        else:
            message = f"{path}: line count d must be a nonnegative integer: d = {fields['d']!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            load_custom_profile(str(path))
        code, out, err = run(
            capsys, "profile", "--surface", "custom", "--profile", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err == f"linesurf profile: {message}\n"

    @pytest.mark.parametrize(
        "field,value",
        [pytest.param(f, v, id=f"{f}={json.dumps(v)}") for f, v in ODD_PROFILE_FIELDS],
    )
    def test_odd_profile_value_refused(self, capsys, tmp_path, field, value):
        path = tmp_path / "odd.json"
        profile = {"n": 4, "d": 6, "t": {"2": 3, "3": 1}}
        path.write_text(json.dumps(profile))
        assert load_custom_profile(str(path)).s == 4
        if field == "key":
            profile["t"] = {value: 1}
        elif field in profile:
            profile[field] = value
        else:
            profile["t"][field] = value
        path.write_text(json.dumps(profile))
        with pytest.raises(SchemaError, match=f"^{re.escape(str(path))}: "):
            load_custom_profile(str(path))
        code, out, err = run(capsys, "profile", "--surface", "custom", "--profile", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"linesurf profile: {path}: ") and err.count("\n") == 1

    def test_repeated_multiplicity_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "twice.json"
        path.write_text(json.dumps({"n": 4, "d": 16, "t": {"4": 8, "04": 1}}))
        with pytest.raises(SchemaError, match="'4' and '04'"):
            load_custom_profile(str(path))
        code, out, err = run(
            capsys, "profile", "--surface", "custom", "--profile", str(path),
            "--format", "csv",
        )
        assert (code, out) == (2, "")
        assert err.startswith(f"linesurf profile: {path}: ")

    def test_all_zero_point_names_the_line(self, capsys, tmp_path):
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": 4, "lines": [[[0, 0, 0, 0], [0, 1, 0, 0]]]}))
        with pytest.raises(SchemaError):
            load_custom_lines(str(path))
        code, out, err = run(
            capsys, "profile", "--surface", "custom", "--lines", str(path),
        )
        assert (code, out) == (2, "")
        assert err == (
            f"linesurf profile: {path}: line 0: homogeneous coordinates cannot all be zero\n"
        )

    @pytest.mark.parametrize(
        "flag,text,message",
        (
            ("--lines", "not json", "not valid JSON"),
            ("--lines", "[1, 2]", "expected an object with fields n and lines"),
            ("--lines", '{"n": 4, "lines": {"a": 1}}', "lines must be a list of point pairs"),
            ("--lines", '{"n": 4, "lines": [[[1, 0, 0, 0]]]}', "line 0: expected a pair of points"),
            (
                "--lines",
                '{"n": 4, "lines": [[[1, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: a point needs 4 coordinates",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[[{"m": 8}, 0, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: bad cyclotomic coordinate",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[["1/0", 0, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: bad rational coordinate '1/0'",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[[{"m": 8, "coeffs": ["1/0", 0, 0, 0]}, 0, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: bad cyclotomic coefficient '1/0'",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[[{"m": 8, "coeffs": [1, null, 0, 0]}, 0, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: bad cyclotomic coefficient None",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[[{"m": 8, "coeffs": "12"}, 0, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: cyclotomic coeffs must be a JSON list, got '12'",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[[{"m": 8, "coeffs": {"1": 0}}, 0, 0, 0], [0, 1, 0, 0]]]}',
                "line 0: cyclotomic coeffs must be a JSON list, got {'1': 0}",
            ),
            (
                "--lines",
                '{"n": 4, "lines": [[[1, 0, 0, 0], [2, 0, 0, 0]]]}',
                "line 0: a line needs two distinct points",
            ),
            ("--lines", '{"n": 2, "lines": []}', "surface degree n must be an integer >= 3"),
            ("--lines", '{"n": "4", "lines": []}', "surface degree n must be an integer >= 3"),
            ("--profile", '{"n": 4, "d": 6, "t": [1, 2]}', "must map multiplicity to count"),
            ("--profile", '{"n": 4, "t": {}}', "must carry n, d, t"),
            (
                "--profile",
                '{"n": 4, "d": 6, "t": {"x": 1}}',
                "profile t-vector entries must be integers",
            ),
        ),
    )
    def test_bad_input_file(self, capsys, tmp_path, flag, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        code, out, err = run(capsys, "profile", "--surface", "custom", flag, str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"linesurf profile: {path}: ")
        assert message in err
        assert err.count("\n") == 1 and err.endswith("\n")

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

    @pytest.mark.parametrize("fmt", ("table", "csv", "json"))
    def test_output_file_holds_the_stdout_bytes(self, capsys, tmp_path, fmt):
        argv = ("search-extremal", "--degree", "4", "--num-lines", "16", "--k-max", "4",
                "--format", fmt)
        code, printed, err = run(capsys, *argv)
        assert code == 0 and printed
        target = tmp_path / "report"
        assert run(capsys, *argv, "--output", str(target)) == (0, "", err)
        assert target.read_bytes() == printed.encode("utf-8")

    def test_csv_holds_little_more_than_the_search(self, tmp_path):
        # CSV rows are written as they are made, so the report's peak is the
        # search's rows plus a little, not a second copy of them as text.
        import tracemalloc

        def peak(build):
            tracemalloc.start()
            try:
                build()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        argv = ["search-extremal", "--degree", "4", "--num-lines", "16", "--k-max", "4",
                "--format", "csv", "--output", str(tmp_path / "search.csv")]
        searched = peak(lambda: extremal_profile_search(4, 16, 4))
        written = peak(lambda: main(argv))
        assert written <= 1.5 * searched

    @pytest.mark.parametrize(
        "argv,scans",
        [
            pytest.param(
                ("verify", "--surface", "fermat", "--degree", "3", "--valency", "10"), [27],
                id="verify",
            ),
            # on_surface alone reads the lines without scanning them
            pytest.param(
                ("verify", "--surface", "fermat", "--degree", "3"), [], id="verify-on-surface"
            ),
            pytest.param(
                ("catalog", "--surface", "fermat", "--degree", "3", "--singular"), [27],
                id="catalog-singular",
            ),
            pytest.param(
                ("analyze", "--surface", "fermat", "--degree", "3"), [], id="analyze-closed-form"
            ),
        ]
        + [
            pytest.param(
                (name, "--surface", "fermat", "--degree", degree, "--from-lines"), [scanned],
                id=f"{name}-from-lines",
            )
            for name, degree, scanned in (
                ("profile", "3", 27), ("analyze", "3", 27), ("bound", "4", 48)
            )
        ]
        + [
            pytest.param(
                (name, "--surface", "custom", "--lines", "{L}", *extra), [2], id=f"{name}-lines"
            )
            for name, *extra in (
                ("catalog", "--singular"), ("profile",), ("analyze",), ("verify", "--valency", "1"),
                ("bound",),
            )
        ]
        + [
            # the ambient scan alone: each witness's profile is tallied from it
            pytest.param(
                ("search-bauer", "--surface", "fermat", "--degree", "4", "--size", "16",
                 "--max-solutions", "2"),
                [48],
                id="search-bauer",
            ),
        ],
    )
    def test_verify_scans_once(self, capsys, monkeypatch, tmp_path, argv, scans):
        import linesurf.cli
        import linesurf.incidence

        calls = []
        original = linesurf.incidence.scan_arrangement

        def counting(arr):
            calls.append(arr.d)
            return original(arr)

        # every binding, so a scan through an incidence helper is counted too
        for module in (linesurf.cli, linesurf.incidence):
            monkeypatch.setattr(module, "scan_arrangement", counting)
        lines = tmp_path / "pair.json"
        pair = [[[1, 0, 0, 0], [0, 1, 0, 0]], [[1, 0, 0, 0], [0, 0, 1, 0]]]
        lines.write_text(json.dumps({"n": 4, "lines": pair}))
        code, out, _ = run(capsys, *(a.format(L=lines) for a in argv))
        assert code == 0 and "FAIL" not in out
        assert calls == scans

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

    def test_threads_is_an_unknown_flag(self, capsys):
        argv = ("sweep", "--surface", "fermat", "--degrees", "3:4", "--threads", "4")
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        usage, message = err.split("linesurf sweep: error: ")
        assert usage.startswith("usage: linesurf sweep ") and "--degrees" in usage
        assert message == "unrecognized arguments: --threads 4\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("analyze", "--surface", "fermat", "--degree", "2"),
            ("analyze", "--surface", "fermat", "--degree", "2", "--from-lines"),
            ("catalog", "--surface", "fermat", "--degree", "2"),
            ("sweep", "--surface", "fermat", "--degrees", "2:4"),
            ("analyze", "--surface", "custom", "--lines", "{lines}"),
            ("analyze", "--surface", "custom", "--profile", "{profile}"),
        ],
        ids=("analyze", "from-lines", "catalog", "sweep", "lines-file", "profile-file"),
    )
    def test_degree_rule_has_one_message(self, capsys, tmp_path, argv):
        paths = {"lines": tmp_path / "lines.json", "profile": tmp_path / "profile.json"}
        paths["lines"].write_text('{"n": 2, "lines": []}')
        paths["profile"].write_text('{"n": 2, "d": 0, "t": {}}')
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        where = "".join(f"{path}: " for name, path in paths.items() if f"{{{name}}}" in argv)
        assert (code, out) == (2, "")
        assert err == f"linesurf {argv[0]}: {where}surface degree n must be an integer >= 3\n"

    @pytest.mark.parametrize(
        "argv,message",
        [
            (("analyze", "--surface", "custom", "--lines", "{missing}"), "{missing}: cannot read"),
            (("profile", "--surface", "custom", "--profile", "{dir}"), "{dir}: cannot read"),
            (("analyze", "--surface", "custom", "--lines", "{latin1}"), "{latin1}: not UTF-8"),
            # json.load raises a bare ValueError for an integer past the
            # interpreter's int-string limit (4300 digits by default).
            pytest.param(
                ("catalog", "--surface", "custom", "--lines", "{huge_lines}"),
                "linesurf catalog: {huge_lines}: ",
                marks=NEEDS_INT_LIMIT,
            ),
            pytest.param(
                ("profile", "--surface", "custom", "--profile", "{huge_profile}"),
                "linesurf profile: {huge_profile}: ",
                marks=NEEDS_INT_LIMIT,
            ),
            (
                ("analyze", "--surface", "schur", "--output", "{missing}/x"),
                "linesurf analyze: cannot write {missing}/x",
            ),
            (
                ("analyze", "--surface", "rams", "--degree", "5"),
                "linesurf analyze: the Rams grid configuration requires degree n >= 6",
            ),
            (
                ("sweep", "--surface", "rams", "--degrees", "5:7"),
                "linesurf sweep: the Rams grid configuration requires degree n >= 6",
            ),
        ],
        ids=(
            "missing-lines",
            "directory-profile",
            "non-utf8-lines",
            "oversized-integer-lines",
            "oversized-integer-profile",
            "unwritable-output",
            "rams-below-degree-floor",
            "rams-below-degree-floor-sweep",
        ),
    )
    def test_file_errors_are_one_line(self, capsys, tmp_path, argv, message):
        paths = {"missing": tmp_path / "missing", "dir": tmp_path, "latin1": tmp_path / "l.json"}
        paths["latin1"].write_bytes(b'{"n": 4, "lines": [], "note": "\xe9"}')
        huge = "9" * 5000
        paths["huge_lines"] = tmp_path / "huge-lines.json"
        paths["huge_lines"].write_text(f'{{"n": 4, "lines": [[[{huge}, 0, 0, 1], [0, 1, 0, 0]]]}}')
        paths["huge_profile"] = tmp_path / "huge-profile.json"
        paths["huge_profile"].write_text(f'{{"n": 4, "d": 6, "t": {{"2": {huge}}}}}')
        code, out, err = run(capsys, *(a.format(**paths) for a in argv))
        assert (code, out) == (2, "")
        assert err.count("\n") == 1 and message.format(**paths) in err


# Each subcommand's options, leaving out --help: a flag is registered only
# where the subcommand reads it.
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

# Each subcommand's --surface choices, in order; search-extremal has no --surface.
SURFACES = {
    "catalog": "fermat custom",
    "profile": "fermat rams schur cubic custom",
    "analyze": "fermat rams schur cubic custom",
    "verify": "fermat rams schur cubic custom",
    "bound": "fermat rams schur cubic custom",
    "sweep": "fermat rams cubic",
    "search-bauer": "fermat custom",
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

        (sub,) = [
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        ]
        found = {
            name: [o for a in parser._actions for o in a.option_strings]
            for name, parser in sub.choices.items()
        }
        for name, options in found.items():
            assert "--threads" not in options
            assert set(options) - {"-h", "--help"} == set(OPTIONS[name].split())
        assert sum(len(o.split()) for o in OPTIONS.values()) == 61
        surfaces = {
            name: " ".join(a.choices)
            for name, parser in sub.choices.items()
            for a in parser._actions
            if a.dest == "surface"
        }
        assert surfaces == SURFACES

    @pytest.mark.parametrize(
        "argv,message",
        [
            (argv, f"--surface {argv[2]} does not read {flag}") for argv, flag in UNREAD
        ]
        + [(argv, "--profile and --lines exclude each other") for argv in BOTH]
        + [
            (("analyze", "--surface", "fermat"), "--surface fermat requires --degree"),
            (
                ("profile", "--surface", "custom"),
                "--surface custom needs --profile PATH or --lines PATH",
            ),
            (("sweep", "--surface", "fermat"), "sweep --surface fermat requires --degrees A:B"),
            (("profile", "--surface", "cubic"), "--surface cubic requires --eckardt"),
        ],
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


class TestParserReuse:
    """``main`` builds its parser once per process and parses every call afresh."""

    def test_second_call_leaves_no_cyclic_garbage(self, capsys):
        argv = ("profile", "--surface", "fermat", "--degree", "4", "--from-lines", "--format", "csv")
        first = run(capsys, *argv)
        gc.collect()
        gc.disable()
        try:
            second = run(capsys, *argv)
            assert gc.collect() == 0
        finally:
            gc.enable()
        assert first == second and first[0] == 0

    @pytest.mark.parametrize(
        "before",
        [
            ("catalog", "--surface", "fermat", "--degree", "3", "--singular", "--format", "json"),
            ("analyze", "--surface", "schur", "--places", "7", "--format", "csv"),
            ("bound", "--surface", "cubic", "--eckardt", "18", "--output", "{out}"),
            ("catalog", "--surface", "fermat", "--bogus"),
        ],
    )
    def test_flags_do_not_carry_over(self, capsys, tmp_path, before):
        after = [
            ("catalog", "--surface", "fermat", "--degree", "3"),
            ("analyze", "--surface", "schur"),
            ("bound", "--surface", "cubic", "--eckardt", "18"),
        ]
        build_parser.cache_clear()
        fresh = []
        for argv in after:
            fresh.append(run(capsys, *argv))
            build_parser.cache_clear()
        for argv, expected in zip(after, fresh):
            run(capsys, *(a.format(out=tmp_path / "report") for a in before))
            assert run(capsys, *argv) == expected
        assert build_parser() is build_parser()
