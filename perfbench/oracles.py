"""Expected values and output checks, computed without linesurf.

Every expected number here comes from the paper's formulas, from the
degree n alone, or from arithmetic written in this file.  Nothing is a
saved copy of program output.  Each ``check_*`` function takes plain
data (dicts, lists, output text) and returns a list of error strings;
an empty list means the output is correct.  The tests in
``test_oracles.py`` feed them fabricated wrong results.
"""

from __future__ import annotations

import csv
import io
import json
import math
from fractions import Fraction
from itertools import combinations


# ---------------------------------------------------------------------------
# Formulas of the paper, on plain (n, d, t) data.


def fermat_t(n: int) -> dict[int, int]:
    """t-vector of the 3n^2 Fermat lines: 3n^3 double points, 6n points of multiplicity n."""
    return {2: 3 * n**3, n: 6 * n}


def fermat_meeting_pairs(n: int) -> int:
    """Meeting line pairs of the Fermat lines: 3n^3 + 6n * C(n, 2)."""
    return 3 * n**3 + 3 * n * n * (n - 1)


def fermat_h(n: int) -> Fraction:
    """The paper's closed form H_L = -3n^2 / (n^2 + 2) for the Fermat lines."""
    return Fraction(-3 * n * n, n * n + 2)


def miyaoka_sides(n: int, d: int, t: dict[int, int]) -> tuple[int, int]:
    """Both sides of n*d - t_2 + sum_{k>=3} (k-4) t_k <= 2n(n-1)^2."""
    lhs = n * d - t.get(2, 0) + sum((k - 4) * c for k, c in t.items() if k >= 3)
    return lhs, 2 * n * (n - 1) ** 2


def h_bound(n: int, d: int, t: dict[int, int]) -> Fraction:
    """The Miyaoka-type bound H_L >= -4 + (2d + t_2 - 2n(n-1)^2)/s."""
    s = sum(t.values())
    return -4 + Fraction(2 * d + t.get(2, 0) - 2 * n * (n - 1) ** 2, s)


def h_linear(n: int, d: int, t: dict[int, int]) -> Fraction:
    """H_L = ((2-n)d - sum k t_k)/s, the strict transform over s."""
    return Fraction((2 - n) * d - sum(k * c for k, c in t.items()), sum(t.values()))


def incidences(t: dict[int, int]) -> int:
    return sum((k * k - k) * c for k, c in t.items())


def _compare(errors: list[str], what: str, got, want) -> None:
    if got != want:
        errors.append(f"{what}: got {got!r}, expected {want!r}")


def _valency_errors(d: int, point_lines, valency: int) -> list[str]:
    """Each line must meet ``valency`` others, counted from the points' line lists."""
    meets = [0] * d
    for lines in point_lines:
        for i in lines:
            meets[i] += len(lines) - 1
    bad = [i for i, v in enumerate(meets) if v != valency]
    if bad:
        return [f"line {bad[0]} meets {meets[bad[0]]} others, expected {valency} ({len(bad)} such lines)"]
    return []


def _point_list_errors(d: int, points) -> list[str]:
    """Structural checks on (multiplicity, lines) pairs."""
    for mult, lines in points:
        if len(lines) != mult or len(set(lines)) != mult:
            return [f"point with multiplicity {mult} lists lines {list(lines)}"]
        if any(not 0 <= i < d for i in lines):
            return [f"line index outside 0..{d - 1} in {list(lines)}"]
    return []


# ---------------------------------------------------------------------------
# fermat-scan


def check_fermat_scan(
    n: int,
    tally: dict[int, int],
    meeting_pairs: int,
    points,
    h_linear_value,
    h_bound_value,
) -> list[str]:
    """Check one scan of the Fermat lines of degree n and its exact report.

    ``points`` holds (multiplicity, line indices) per singular point.
    """
    d = 3 * n * n
    t = fermat_t(n)
    errors: list[str] = []
    _compare(errors, f"n={n} t-vector", dict(tally), t)
    _compare(errors, f"n={n} meeting pairs", meeting_pairs, fermat_meeting_pairs(n))
    _compare(errors, f"n={n} H_L", h_linear_value, fermat_h(n))
    _compare(errors, f"n={n} H_L bound", h_bound_value, h_bound(n, d, t))
    errors += _point_list_errors(d, points)
    errors += _valency_errors(d, [lines for _, lines in points], 4 * n - 2)
    return errors


# ---------------------------------------------------------------------------
# moved-lines-cli: the 48 Fermat-quartic lines under an invertible linear map.
# Incidences are projective invariants, so every expected value is Fermat's.

MOVED_N = 4
MOVED_D = 3 * MOVED_N**2
MOVED_T = fermat_t(MOVED_N)
MOVED_VALENCY = 4 * MOVED_N - 2


def check_analyze_json(text: str) -> list[str]:
    obj = json.loads(text)
    n, d, t = MOVED_N, MOVED_D, MOVED_T
    lhs, rhs = miyaoka_sides(n, d, t)
    bound = h_bound(n, d, t)
    errors: list[str] = []
    _compare(errors, "analyze t", obj["t"], {str(k): c for k, c in sorted(t.items())})
    _compare(errors, "analyze s", obj["s"], sum(t.values()))
    _compare(errors, "analyze H_L", obj["h_linear"]["exact"], str(fermat_h(n)))
    _compare(errors, "analyze miyaoka", obj["miyaoka"], {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs})
    _compare(errors, "analyze bound", obj["h_lower_bound"]["exact"], str(bound))
    _compare(errors, "analyze bound holds", obj["h_lower_bound"]["holds"], fermat_h(n) >= bound)
    return errors


def check_profile_csv(text: str) -> list[str]:
    rows = list(csv.reader(io.StringIO(text)))
    t = MOVED_T
    want = [
        ["n", "d", "s", "t", "incidences"],
        [
            str(MOVED_N),
            str(MOVED_D),
            str(sum(t.values())),
            ";".join(f"{k}:{t[k]}" for k in sorted(t)),
            str(incidences(t)),
        ],
    ]
    errors: list[str] = []
    _compare(errors, "profile csv", rows, want)
    return errors


def check_bound_json(text: str) -> list[str]:
    obj = json.loads(text)
    n, d, t = MOVED_N, MOVED_D, MOVED_T
    s = sum(t.values())
    lhs, rhs = miyaoka_sides(n, d, t)
    want = {
        "n": n,
        "d": d,
        "s": s,
        "miyaoka": {"lhs": lhs, "rhs": rhs, "holds": lhs <= rhs},
        "h_lower_bound": str(h_bound(n, d, t)),
        "h_linear": str(fermat_h(n)),
        "strict_sq_lower": -4 * s - 2 * n * (n - 1) ** 2,
    }
    errors: list[str] = []
    _compare(errors, "bound json", obj, want)
    return errors


def check_verify_table(text: str) -> list[str]:
    """Every row of ``verify --valency 14`` passes, and the valency row is present."""
    body = text.splitlines()[2:]  # header and dashes
    rows = {}
    for line in body:
        name, lhs, rhs, result = line.split()
        rows[name] = (lhs, rhs, result)
    errors: list[str] = []
    failing = [name for name, (_, _, result) in rows.items() if result != "PASS"]
    if failing:
        errors.append(f"verify rows not passing: {failing}")
    name = f"valency_{MOVED_VALENCY}"
    total = str(incidences(MOVED_T))
    _compare(errors, f"verify {name}", rows.get(name), (total, str(MOVED_D * MOVED_VALENCY), "PASS"))
    return errors


# Arithmetic in Z[z]/(z^4 + 1) = Z[zeta_8], the ring of the quartic's coordinates.


def _mul8(a, b):
    out = [0, 0, 0, 0]
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                k = i + j
                if k < 4:
                    out[k] += x * y
                else:
                    out[k - 4] -= x * y
    return out


def _sub8(a, b):
    return [x - y for x, y in zip(a, b)]


def _det3(rows) -> list[int]:
    (a, b, c), (d, e, f), (g, h, i) = rows
    t1 = _mul8(a, _sub8(_mul8(e, i), _mul8(f, h)))
    t2 = _mul8(b, _sub8(_mul8(d, i), _mul8(f, g)))
    t3 = _mul8(c, _sub8(_mul8(d, h), _mul8(e, g)))
    return [x - y + z for x, y, z in zip(t1, t2, t3)]


def on_line(point, line) -> bool:
    """Whether ``point`` lies on the line through the two base points of ``line``.

    All coordinates are integer vectors in Z[zeta_8].  The point is on the
    line exactly when every 3x3 minor of the 3x4 matrix [p; q; point] vanishes.
    """
    p, q = line
    for cols in combinations(range(4), 3):
        minor = _det3([[v[c] for c in cols] for v in (p, q, point)])
        if any(minor):
            return False
    return True


def integral_point(location) -> list[list[int]]:
    """Scale a JSON point ``[{m, coeffs: ["p/q", ...]}, ...]`` to integer coordinates."""
    coeffs = [[Fraction(c) for c in coord["coeffs"]] for coord in location]
    if any(coord["m"] != 2 * MOVED_N for coord in location):
        raise ValueError("point coordinates are not over Q(zeta_8)")
    scale = math.lcm(*(c.denominator for coord in coeffs for c in coord))
    return [[int(c * scale) for c in coord] for coord in coeffs]


def check_catalog_json(text: str, lines, sample) -> list[str]:
    """Check ``catalog --singular --format json`` against the file's own lines.

    ``lines`` holds each line as two integer points in Z[zeta_8]^4;
    ``sample`` lists indices of points whose incidences are recomputed here.
    """
    obj = json.loads(text)
    points = [(p["multiplicity"], tuple(p["lines"])) for p in obj["points"]]
    tally: dict[int, int] = {}
    for mult, _ in points:
        tally[mult] = tally.get(mult, 0) + 1
    errors: list[str] = []
    _compare(errors, "catalog t-vector", tally, MOVED_T)
    _compare(errors, "catalog meeting pairs", obj["meeting_pairs"], fermat_meeting_pairs(MOVED_N))
    errors += _point_list_errors(len(lines), points)
    errors += _valency_errors(len(lines), [ls for _, ls in points], MOVED_VALENCY)
    if errors:
        return errors
    for idx in sample:
        listed = set(points[idx][1])
        location = integral_point(obj["points"][idx]["location"])
        found = {i for i, line in enumerate(lines) if on_line(location, line)}
        if found != listed:
            errors.append(f"point {idx} lies on lines {sorted(found)}, output lists {sorted(listed)}")
    return errors


# ---------------------------------------------------------------------------
# extremal-search


def _tail_vectors(ks, budget):
    """All (t_3, ..., t_k) with sum (k^2-k) t_k <= budget, with the weight used."""
    if not ks:
        yield (), 0
        return
    k, rest = ks[0], ks[1:]
    w = k * k - k
    for c in range(budget // w + 1):
        for tail, used in _tail_vectors(rest, budget - w * c):
            yield (c,) + tail, used + w * c


def _t2_interval(n: int, d: int, ks, tail, used) -> tuple[int, int]:
    """Admissible t_2 for fixed t_3..t_k: Miyaoka gives the lower end, feasibility the upper."""
    rhs = 2 * n * (n - 1) ** 2
    fixed = n * d + sum((k - 4) * c for k, c in zip(ks, tail))
    return max(0, fixed - rhs), (d * (d - 1) - used) // 2


def extremal_expected(n: int, d: int, k_max: int) -> tuple[int, Fraction]:
    """Row count and minimum H_L of the Miyaoka-compatible t-vectors, in closed form.

    For each choice of t_3..t_k the admissible t_2 form an interval; the
    row count sums the interval lengths.  H_L = (C - 2 t_2)/(S + t_2) is
    monotone in t_2, so each interval's minimum sits at one of its ends.
    """
    ks = list(range(3, min(k_max, d) + 1))
    count = 0
    best = None
    for tail, used in _tail_vectors(ks, d * (d - 1)):
        lo, hi = _t2_interval(n, d, ks, tail, used)
        if lo > hi:
            continue
        count += hi - lo + 1
        tail_s = sum(tail)
        for t2 in {lo, hi}:
            if tail_s + t2 == 0:
                t2 = 1  # s = 0 carries no H_L; the next t_2 on the run does
                if t2 > hi:
                    continue
            value = Fraction(
                (2 - n) * d - 2 * t2 - sum(k * c for k, c in zip(ks, tail)), t2 + tail_s
            )
            if best is None or value < best:
                best = value
    return count, best


def check_extremal(n: int, d: int, k_max: int, rows) -> list[str]:
    """Check a search result: rows of (t dict, H_L or None), most negative first."""
    count, minimum = extremal_expected(n, d, k_max)
    errors: list[str] = []
    _compare(errors, f"({n},{d},{k_max}) row count", len(rows), count)
    if rows:
        _compare(errors, f"({n},{d},{k_max}) first H_L", rows[0][1], minimum)
    k_top = min(k_max, d)
    rhs = 2 * n * (n - 1) ** 2
    budget = d * (d - 1)
    place = {k: (budget + 1) ** (k - 2) for k in range(2, k_top + 1)}  # row -> distinct int key
    seen = set()
    previous = None  # last H_L seen; rows without H_L (s = 0) must come last
    after_none = False
    for i, (t, value) in enumerate(rows):
        s = weighted = pairs = excess = key = 0
        for k, c in t.items():
            if k not in place or c <= 0:
                errors.append(f"row {i}: t-vector {t} outside multiplicities 2..{k_top}")
                return errors
            s += c
            weighted += k * c
            pairs += (k * k - k) * c
            if k >= 3:
                excess += (k - 4) * c
            key += c * place[k]
        if n * d - t.get(2, 0) + excess > rhs or pairs > budget:
            errors.append(f"row {i}: t-vector {t} fails Miyaoka or feasibility")
            break
        strict = (2 - n) * d - weighted
        if (value is None) != (s == 0) or (
            value is not None and value.numerator * s != strict * value.denominator
        ):
            errors.append(f"row {i}: H_L {value} is wrong for t-vector {t}")
            break
        if value is None:
            after_none = True
        elif after_none or (previous is not None and value < previous):
            errors.append(f"row {i}: H_L {value} after {previous}, rows are not in H_L order")
            break
        else:
            previous = value
        seen.add(key)
    if not errors and len(seen) != len(rows):
        errors.append(f"({n},{d},{k_max}): {len(rows) - len(seen)} repeated rows")
    return errors
