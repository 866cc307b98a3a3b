"""The benchmark's checks must be able to fail.

Each check is fed a fabricated wrong result and must reject it.  Run with

    python3 -m pytest -q perfbench/test_oracles.py
"""

import json
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import moved_lines  # noqa: E402
import oracles  # noqa: E402


def _mentions(errors, text):
    return any(text in e for e in errors)


# ---------------------------------------------------------------------------
# fermat-scan


def _fermat_incidences(n):
    """(multiplicity, lines) of every singular point of the unmoved Fermat lines.

    Taken from a linesurf scan; the checks below compare it only with
    values derived from n, and the tests damage it on purpose.
    """
    from linesurf import fermat_lines, scan_arrangement

    return [(sp.multiplicity, sp.lines) for sp in scan_arrangement(fermat_lines(n)).points]


@pytest.fixture(scope="module")
def fermat4():
    return _fermat_incidences(4)


def test_fermat_check_accepts_the_right_answer(fermat4):
    t = oracles.fermat_t(4)
    errors = oracles.check_fermat_scan(
        4, t, oracles.fermat_meeting_pairs(4), fermat4, Fraction(-8, 3), Fraction(-3)
    )
    assert errors == []


def test_fermat_check_rejects_a_wrong_t_vector(fermat4):
    t = {2: 191, 4: 24}
    errors = oracles.check_fermat_scan(
        4, t, oracles.fermat_meeting_pairs(4), fermat4, Fraction(-8, 3), Fraction(-3)
    )
    assert _mentions(errors, "t-vector")


def test_fermat_check_rejects_a_wrong_h_linear(fermat4):
    errors = oracles.check_fermat_scan(
        4, oracles.fermat_t(4), oracles.fermat_meeting_pairs(4), fermat4, Fraction(-5, 2), Fraction(-3)
    )
    assert errors == ["n=4 H_L: got Fraction(-5, 2), expected Fraction(-8, 3)"]


def test_fermat_check_rejects_a_lost_incidence(fermat4):
    mult, lines = next(p for p in fermat4 if p[0] == 4)
    damaged = [p for p in fermat4 if p != (mult, lines)] + [(3, lines[:3])]
    errors = oracles.check_fermat_scan(
        4, oracles.fermat_t(4), oracles.fermat_meeting_pairs(4), damaged, Fraction(-8, 3), Fraction(-3)
    )
    assert _mentions(errors, "others, expected 14")


# ---------------------------------------------------------------------------
# moved-lines-cli


def _analyze(h="-8/3", t=None):
    return json.dumps(
        {
            "t": t or {"2": 192, "4": 24},
            "s": 216,
            "h_linear": {"exact": h, "decimal": "-2.666"},
            "miyaoka": {"lhs": 0, "rhs": 72, "holds": True},
            "h_lower_bound": {"exact": "-3", "decimal": "-3.000", "holds": True},
        }
    )


def test_analyze_check_accepts_and_rejects():
    assert oracles.check_analyze_json(_analyze()) == []
    assert _mentions(oracles.check_analyze_json(_analyze(h="-5/2")), "H_L")
    assert _mentions(oracles.check_analyze_json(_analyze(t={"2": 190, "4": 24})), "analyze t")


def test_profile_check_rejects_a_wrong_t_vector():
    good = "n,d,s,t,incidences\n4,48,216,2:192;4:24,672\n"
    assert oracles.check_profile_csv(good) == []
    assert oracles.check_profile_csv(good.replace("2:192", "2:191")) != []


def test_bound_check_rejects_a_wrong_bound():
    good = {
        "n": 4, "d": 48, "s": 216,
        "miyaoka": {"lhs": 0, "rhs": 72, "holds": True},
        "h_lower_bound": "-3", "h_linear": "-8/3", "strict_sq_lower": -936,
    }
    assert oracles.check_bound_json(json.dumps(good)) == []
    assert oracles.check_bound_json(json.dumps({**good, "h_lower_bound": "-4"})) != []


def test_verify_check_rejects_a_failing_row():
    table = (
        "check  lhs  rhs  result\n-----  ---  ---  ------\n"
        "meeting_pairs  336  336  PASS\nvalency_14  672  672  PASS\n"
    )
    assert oracles.check_verify_table(table) == []
    assert oracles.check_verify_table(table.replace("336  PASS", "336  FAIL")) != []
    assert oracles.check_verify_table(table.replace("valency_14", "valency_13")) != []


def test_on_line_oracle():
    _, lines = moved_lines.moved_lines(seed=3, round_index=0, slot=0)
    p, q = lines[0]
    mid = [[a + 2 * b for a, b in zip(x, y)] for x, y in zip(p, q)]
    assert oracles.on_line(mid, lines[0])
    off = [list(c) for c in mid]
    off[0][0] += 1
    assert not oracles.on_line(off, lines[0])


def test_catalog_check_rejects_wrong_multiplicities(fermat4):
    _, lines = moved_lines.moved_lines(seed=3, round_index=0, slot=0)
    points = [{"location": [], "multiplicity": m, "lines": list(ls)} for m, ls in fermat4]
    good = {"meeting_pairs": 336, "points": points}
    assert oracles.check_catalog_json(json.dumps(good), lines, []) == []
    bad = {"meeting_pairs": 336, "points": points[:-1]}
    assert _mentions(oracles.check_catalog_json(json.dumps(bad), lines, []), "t-vector")


def test_catalog_check_rejects_a_misplaced_point(fermat4):
    _, lines = moved_lines.moved_lines(seed=3, round_index=0, slot=0)
    p, q = lines[0]
    # A point on line 0 only, listed as if it were the point of a real double point.
    off_point = [{"m": 8, "coeffs": [str(c) for c in coord]} for coord in
                 [[a + 5 * b for a, b in zip(x, y)] for x, y in zip(p, q)]]
    points = [{"location": off_point, "multiplicity": m, "lines": list(ls)} for m, ls in fermat4]
    errors = oracles.check_catalog_json(json.dumps({"meeting_pairs": 336, "points": points}), lines, [0])
    assert _mentions(errors, "point 0 lies on lines [0]")


def test_moved_lines_are_seeded():
    assert moved_lines.moved_lines(5, 1, 2) == moved_lines.moved_lines(5, 1, 2)
    assert moved_lines.moved_lines(5, 1, 2)[0] != moved_lines.moved_lines(6, 1, 2)[0]


# ---------------------------------------------------------------------------
# extremal-search


def _brute_rows(n, d, k_max):
    """Miyaoka-compatible t-vectors by plain enumeration, sorted by H_L."""
    ks = range(2, min(k_max, d) + 1)
    budget = d * (d - 1)
    rows = []
    for counts in product(*(range(budget // (k * k - k) + 1) for k in ks)):
        t = {k: c for k, c in zip(ks, counts) if c}
        if oracles.incidences(t) > budget:
            continue
        lhs, rhs = oracles.miyaoka_sides(n, d, t)
        if lhs > rhs:
            continue
        rows.append((t, oracles.h_linear(n, d, t) if t else None))
    rows.sort(key=lambda r: (r[1] is None, r[1] or 0, sorted(r[0].items())))
    return rows


@pytest.mark.parametrize("case", [(4, 8, 3), (5, 9, 4), (4, 7, 5), (4, 19, 3)])
def test_extremal_closed_form_matches_enumeration(case):
    rows = _brute_rows(*case)
    count, minimum = oracles.extremal_expected(*case)
    assert count == len(rows)
    assert minimum == rows[0][1]
    assert oracles.check_extremal(*case, rows) == []


def test_extremal_closed_form_on_larger_cases():
    assert oracles.extremal_expected(4, 16, 4) == (18291, -36)
    assert oracles.extremal_expected(4, 24, 4) == (194076, -5)
    assert oracles.extremal_expected(5, 20, 5) == (373408, -65)


def test_extremal_check_rejects_a_wrong_row_count():
    rows = _brute_rows(4, 8, 3)
    assert _mentions(oracles.check_extremal(4, 8, 3, rows[:-1]), "row count")


def test_extremal_check_rejects_an_unsorted_list():
    rows = _brute_rows(4, 8, 3)
    i = next(i for i in range(len(rows) - 1) if rows[i][1] is not None and rows[i][1] < rows[i + 1][1])
    rows[i], rows[i + 1] = rows[i + 1], rows[i]
    assert _mentions(oracles.check_extremal(4, 8, 3, rows), "not in H_L order")


def test_extremal_check_rejects_a_wrong_h_linear():
    rows = _brute_rows(4, 8, 3)
    rows[3] = (rows[3][0], rows[3][1] + 1)
    assert _mentions(oracles.check_extremal(4, 8, 3, rows), "is wrong for t-vector")


def test_extremal_check_rejects_a_repeated_row():
    rows = _brute_rows(4, 8, 3)
    rows[1] = rows[0]
    assert _mentions(oracles.check_extremal(4, 8, 3, rows), "repeated")


def test_extremal_check_rejects_a_row_failing_miyaoka():
    # For (4, 19, 3) Miyaoka reads 76 - t_2 - t_3 <= 72, so t_3 = 1 alone fails it.
    rows = _brute_rows(4, 19, 3)
    rows[-2] = ({3: 1}, oracles.h_linear(4, 19, {3: 1}))
    rows.sort(key=lambda r: (r[1] is None, r[1] or 0))
    assert _mentions(oracles.check_extremal(4, 19, 3, rows), "fails Miyaoka")
