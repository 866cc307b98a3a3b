"""Serialization helpers shared by the CLI: exact text, JSON and CSV pieces.

Rationals travel as decimal-free "p/q" strings (plain "p" when integral).
The decimal rendering used next to exact values truncates toward zero at
the requested number of places; it never rounds away digits upward, so
-128/51 prints as -2.509 at three places.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Optional, Union

from .catalog import Arrangement, IncidenceProfile, ProfileError, max_lines_bound
from .exactnum import CycloNum
from .harbourne import HarbourneReport
from .incidence import ScanResult
from .projgeom import ProjPoint, line_through


class SchemaError(ValueError):
    """A custom input file does not match the documented JSON schema."""


def rational_str(value: Union[int, Fraction]) -> str:
    return str(Fraction(value))


def decimal_str(value: Union[int, Fraction], places: int = 3) -> str:
    """Fixed-point rendering truncated toward zero at ``places`` digits."""
    if places < 0:
        raise ValueError("places must be nonnegative")
    q = Fraction(value)
    scaled = abs(q.numerator) * 10**places // q.denominator
    sign = "-" if q < 0 and scaled else ""
    if places == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def exact_cell(value: Optional[Union[int, Fraction]]) -> str:
    return "" if value is None else rational_str(value)


def t_vector_str(t: dict) -> str:
    """Compact deterministic rendering of a t-vector, e.g. ``2:81;3:18``."""
    return ";".join(f"{k}:{t[k]}" for k in sorted(t))


# ---------------------------------------------------------------------------
# JSON builders.


def rational_json(value: Optional[Union[int, Fraction]], places: int) -> Optional[dict]:
    if value is None:
        return None
    return {"exact": rational_str(value), "decimal": decimal_str(value, places)}


def profile_json(profile: IncidenceProfile) -> dict:
    obj = profile.to_json()
    obj["s"] = profile.s
    return obj


def report_json(report: HarbourneReport, places: int) -> dict:
    return {
        "n": report.n,
        "d": report.d,
        "s": report.s,
        "t": {str(k): c for k, c in sorted(report.t.items())},
        "incidences": report.incidences,
        "strict_transform_sq": rational_str(report.strict_transform_sq),
        "h_linear": rational_json(report.h_linear, places),
        "miyaoka": None
        if report.miyaoka_lhs is None
        else {
            "lhs": report.miyaoka_lhs,
            "rhs": report.miyaoka_rhs,
            "holds": report.miyaoka_holds,
        },
        "h_lower_bound": None
        if report.h_lower_bound is None
        else {
            **rational_json(report.h_lower_bound, places),
            "holds": report.h_bound_holds,
        },
        "strict_sq_lower": report.strict_sq_lower,
        "strict_bound_holds": report.strict_bound_holds,
    }


def arrangement_json(arr: Arrangement) -> dict:
    return {
        "n": arr.n,
        "conductor": arr.conductor,
        "d": arr.d,
        "lines": [
            {"index": i, **line.to_json()} for i, line in enumerate(arr.lines)
        ],
    }


def scan_json(scan: ScanResult) -> dict:
    return {
        "meeting_pairs": scan.meeting_pairs,
        "points": [
            {
                "location": sp.location.to_json(),
                "multiplicity": sp.multiplicity,
                "lines": list(sp.lines),
            }
            for sp in scan.points
        ],
    }


# ---------------------------------------------------------------------------
# Custom input loaders.


def load_custom_profile(path: str) -> IncidenceProfile:
    """Load and validate a profile file ``{n, d, t: {k: count}}``."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    try:
        profile = IncidenceProfile.from_json(data)
    except ProfileError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    bound = max_lines_bound(profile.n)
    if profile.d > bound:
        raise SchemaError(
            f"{path}: d = {profile.d} exceeds the line-count bound "
            f"n(7n-12) = {bound} for degree {profile.n}"
        )
    return profile


def _coordinate(value, m: int, where: str) -> CycloNum:
    if isinstance(value, dict):
        try:
            cm = int(value["m"])
            coeffs = [Fraction(c) for c in value["coeffs"]]
        except (KeyError, TypeError, ValueError) as exc:
            raise SchemaError(f"{where}: bad cyclotomic coordinate: {exc}") from exc
        inexact = [c for c in value["coeffs"] if isinstance(c, (bool, float))]
        if inexact:
            raise SchemaError(
                f"{where}: cyclotomic coefficients must be integers or 'p/q' strings, "
                f"got {inexact[0]!r}"
            )
        if cm != m:
            raise SchemaError(
                f"{where}: coordinate conductor {cm} differs from required {m}"
            )
        return CycloNum(m, coeffs)
    if isinstance(value, int) and not isinstance(value, bool):
        return CycloNum.rational(m, value)
    if isinstance(value, str):
        try:
            return CycloNum.rational(m, Fraction(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational coordinate {value!r}") from exc
    raise SchemaError(f"{where}: coordinates must be objects, integers or 'p/q' strings")


def load_custom_lines(path: str) -> Arrangement:
    """Load ``{n, lines: [[point, point], ...]}`` with cyclotomic coordinates.

    Coordinates are objects ``{m, coeffs}`` over conductor 2n, or plain
    integers / "p/q" strings for rational values.  Distinctness and the
    shared conductor are enforced.
    """
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
            raise SchemaError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or "n" not in data or "lines" not in data:
        raise SchemaError(f"{path}: expected an object with fields n and lines")
    n = data["n"]
    if not isinstance(n, int) or n < 3:
        raise SchemaError(f"{path}: surface degree n must be an integer >= 3")
    m = 2 * n
    raw_lines = data["lines"]
    if not isinstance(raw_lines, list):
        raise SchemaError(f"{path}: lines must be a list of point pairs")
    lines = []
    for idx, pair in enumerate(raw_lines):
        where = f"{path}: line {idx}"
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}: expected a pair of points")
        points = []
        for pt in pair:
            if not isinstance(pt, list) or len(pt) != 4:
                raise SchemaError(f"{where}: a point needs 4 coordinates")
            points.append(ProjPoint([_coordinate(c, m, where) for c in pt]))
        try:
            lines.append(line_through(points[0], points[1]))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    try:
        return Arrangement(n, tuple(lines))
    except ProfileError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
