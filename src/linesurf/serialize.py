"""Serialization helpers shared by the CLI: exact text, JSON and CSV pieces.

The JSON encoding of field elements, points, lines, profiles, scans and
reports is written only here, and the custom lines and profile files are
read and checked only here.

Rationals travel as decimal-free "p/q" strings (plain "p" when integral).
The decimal rendering used next to exact values truncates toward zero at
the requested number of places; it never rounds away digits upward, so
-128/51 prints as -2.509 at three places.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping
from fractions import Fraction
from math import gcd
from typing import Optional, Union

from .catalog import Arrangement, IncidenceProfile, ProfileError, check_degree, check_line_count
from .exactnum import CycloNum
from .harbourne import HarbourneReport, strict_transform_sq
from .incidence import ScanResult, incidence_count
from .projgeom import ProjLine, ProjPoint


class SchemaError(ValueError):
    """A custom input file does not match the documented JSON schema."""


def rational_str(value: Union[int, Fraction]) -> str:
    return str(Fraction(value))


def decimal_str(value: Union[int, Fraction], places: int = 3) -> str:
    """Fixed-point rendering truncated toward zero at ``places >= 0`` digits."""
    q = Fraction(value)
    scaled = abs(q.numerator) * 10**places // q.denominator
    sign = "-" if q < 0 and scaled else ""
    if places == 0:
        return f"{sign}{scaled}"
    whole, frac = divmod(scaled, 10**places)
    return f"{sign}{whole}.{frac:0{places}d}"


def exact_cell(value: Optional[Union[int, Fraction]], places: Optional[int] = None) -> str:
    """``p/q``, followed by ``(decimal)`` when ``places`` is given; blank for None."""
    if value is None:
        return ""
    text = rational_str(value)
    return text if places is None else f"{text} ({decimal_str(value, places)})"


def decimal_cell(value: Optional[Union[int, Fraction]], places: int) -> str:
    """Decimal counterpart of ``exact_cell``: blank when the value is absent."""
    return "" if value is None else decimal_str(value, places)


def t_vector_str(t: Mapping[int, int]) -> str:
    """Compact deterministic rendering of a t-vector, e.g. ``2:81;3:18``."""
    return ";".join(f"{k}:{c}" for k, c in sorted(t.items()))


# ---------------------------------------------------------------------------
# JSON builders.


def rational_json(value: Optional[Union[int, Fraction]], places: int) -> Optional[dict]:
    if value is None:
        return None
    return {"exact": rational_str(value), "decimal": decimal_str(value, places)}


def profile_json(profile: IncidenceProfile) -> dict:
    return {
        "n": profile.n,
        "d": profile.d,
        "t": {str(k): c for k, c in profile.t.items()},
        "s": profile.s,
    }


def report_json(report: HarbourneReport, places: int) -> dict:
    profile, miyaoka = report.profile, report.miyaoka
    return {
        "n": profile.n,
        "d": profile.d,
        "s": profile.s,
        "t": {str(k): c for k, c in profile.t.items()},
        "incidences": incidence_count(profile),
        "strict_transform_sq": rational_str(strict_transform_sq(profile)),
        "h_linear": rational_json(report.h_linear, places),
        "miyaoka": None if miyaoka is None else miyaoka._asdict(),
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
            {
                "index": i,
                "points": [_point_json(pt) for pt in line.base],
                "plucker": [_element_json(c) for c in line.plucker],
            }
            for i, line in enumerate(arr.lines)
        ],
    }


def scan_json(scan: ScanResult) -> dict:
    return {
        "meeting_pairs": scan.meeting_pairs,
        "points": [
            {
                "location": _point_json(sp.location),
                "multiplicity": sp.multiplicity,
                "lines": list(sp.lines),
            }
            for sp in scan.points
        ],
    }


# ---------------------------------------------------------------------------
# Custom input loaders.


def _read_json(path: str):
    """Parse a JSON file; a missing, unreadable or malformed one is a SchemaError."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise SchemaError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: not valid JSON: {exc}") from exc


def load_custom_profile(path: str) -> IncidenceProfile:
    """Load a profile file ``{n, d, t: {k: count}}``; ``IncidenceProfile`` checks its values."""
    data = _read_json(path)
    try:
        n, d, t_raw = data["n"], data["d"], data.get("t", {})
    except (TypeError, KeyError) as exc:
        raise SchemaError(f"{path}: profile object must carry n, d, t: {exc}") from exc
    if not isinstance(t_raw, dict):
        raise SchemaError(f"{path}: profile field 't' must map multiplicity to count")
    try:
        t = {int(k): c for k, c in t_raw.items()}
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: profile t-vector entries must be integers: {exc}") from exc
    if len(t) < len(t_raw):
        keys = sorted(t_raw, key=int)
        a, b = next((a, b) for a, b in zip(keys, keys[1:]) if int(a) == int(b))
        raise SchemaError(f"{path}: t-keys {a!r} and {b!r} both name multiplicity {int(a)}")
    try:
        profile = IncidenceProfile(n, d, t)
        check_line_count(n, d)
    except ProfileError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    return profile


def _element_json(value: CycloNum) -> dict:
    """``{m, coeffs}``; each coefficient is the text ``str(Fraction(x, den))`` would give."""
    den = value.den
    if den == 1:
        return {"m": value.m, "coeffs": [str(x) for x in value.nums]}
    coeffs = []
    for x in value.nums:
        g = gcd(x, den)
        coeffs.append(str(x // g) if g == den else f"{x // g}/{den // g}")
    return {"m": value.m, "coeffs": coeffs}


def _point_json(pt: ProjPoint) -> list:
    return [_element_json(c) for c in pt.coords]


_INTEGER = re.compile(r"-?[0-9]+")


def _exact(value) -> Union[int, Fraction]:
    """``int`` for a JSON integer or a ``-?[0-9]+`` string, else ``Fraction(value)``.

    ``Fraction`` reads every ``-?[0-9]+`` string as ``int`` does, so both
    paths accept, refuse and value a text alike; a digit string past the
    interpreter's int-string limit raises ``ValueError`` on either.
    """
    if isinstance(value, int) or (isinstance(value, str) and _INTEGER.fullmatch(value)):
        return int(value)
    return Fraction(value)


def _coordinate(value, m: int, where: str) -> CycloNum:
    if isinstance(value, dict):
        try:
            cm = value["m"]
            raw = value["coeffs"]
        except KeyError as exc:
            raise SchemaError(f"{where}: bad cyclotomic coordinate: {exc}") from exc
        if isinstance(cm, bool) or not isinstance(cm, int):
            raise SchemaError(f"{where}: conductor m must be a JSON integer, got {cm!r}")
        if not isinstance(raw, list):
            raise SchemaError(f"{where}: cyclotomic coeffs must be a JSON list, got {raw!r}")
        inexact = [c for c in raw if isinstance(c, (bool, float))]
        if inexact:
            raise SchemaError(
                f"{where}: cyclotomic coefficients must be integers or 'p/q' strings, "
                f"got {inexact[0]!r}"
            )
        coeffs = []
        for c in raw:
            try:
                coeffs.append(_exact(c))
            except (TypeError, ValueError, ZeroDivisionError) as exc:
                raise SchemaError(f"{where}: bad cyclotomic coefficient {c!r}") from exc
        if cm != m:
            raise SchemaError(
                f"{where}: coordinate conductor {cm} differs from required {m}"
            )
        return CycloNum(m, coeffs)
    if isinstance(value, int) and not isinstance(value, bool):
        return CycloNum.rational(m, value)
    if isinstance(value, str):
        try:
            return CycloNum.rational(m, _exact(value))
        except (ValueError, ZeroDivisionError) as exc:
            raise SchemaError(f"{where}: bad rational coordinate {value!r}") from exc
    raise SchemaError(f"{where}: coordinates must be objects, integers or 'p/q' strings")


def load_custom_lines(path: str) -> Arrangement:
    """Load ``{n, lines: [[point, point], ...]}`` with cyclotomic coordinates.

    Coordinates are objects ``{m, coeffs}`` over conductor 2n, or plain
    integers / "p/q" strings for rational values.  Distinctness and the
    shared conductor are enforced.
    """
    data = _read_json(path)
    if not isinstance(data, dict) or "n" not in data or "lines" not in data:
        raise SchemaError(f"{path}: expected an object with fields n and lines")
    n = data["n"]
    try:
        m = 2 * check_degree(n)
    except ProfileError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    raw_lines = data["lines"]
    if not isinstance(raw_lines, list):
        raise SchemaError(f"{path}: lines must be a list of point pairs")
    lines = []
    for idx, pair in enumerate(raw_lines):
        where = f"{path}: line {idx}"
        if not isinstance(pair, list) or len(pair) != 2:
            raise SchemaError(f"{where}: expected a pair of points")
        coords = []
        for pt in pair:
            if not isinstance(pt, list) or len(pt) != 4:
                raise SchemaError(f"{where}: a point needs 4 coordinates")
            coords.append([_coordinate(c, m, where) for c in pt])
        try:
            lines.append(ProjLine(ProjPoint(coords[0]), ProjPoint(coords[1])))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from exc
    try:
        return Arrangement(n, tuple(lines))
    except ProfileError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
