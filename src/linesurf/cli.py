"""Command-line front end.

Subcommands::

    catalog          construct explicit lines (fermat, or a custom lines file)
    profile          emit an incidence profile
    analyze          full exact report for a configuration
    verify           combinatorial identity / valency / on-surface checks
    bound            Miyaoka inequality and the H_L lower bound (degree >= 4)
    sweep            one report row per parameter in a range
    search-bauer     quadruple-point subconfiguration search
    search-extremal  enumerate Miyaoka-compatible abstract profiles

Each subcommand registers only the flags it reads.  --surface with
--degree, --eckardt, --profile, --lines and --from-lines selects a
configuration through ``resolve``, one rule for every subcommand.  Giving a
flag the chosen surface does not read (``READS``), or --profile with
--lines, is a usage error.

Output formats are an aligned text table (default), CSV with a mandatory
header row, or JSON carrying exact rationals as strings alongside their
decimal rendering.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 domain or inapplicability error
or an input or --output file that cannot be read or written.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

from . import __version__
from .catalog import (
    Arrangement,
    IncidenceProfile,
    cubic_profile,
    fermat_lines,
    fermat_profile,
    max_lines_bound,
    on_surface,
    rams_profile,
    schur_profile,
)
from .harbourne import (
    HarbourneReport,
    UndefinedConstant,
    analyze_profile,
    bauer_search,
    extremal_profile_search,
    harbourne_linear,
    miyaoka_check,
)
from .incidence import (
    incidence_count,
    profile_from_arrangement,
    scan_arrangement,
    valency_consistent,
)
from .serialize import (
    arrangement_json,
    decimal_str,
    exact_cell,
    load_custom_lines,
    load_custom_profile,
    profile_json,
    rational_str,
    report_json,
    scan_json,
    t_vector_str,
)

EXTREMAL_NOTE = (
    "abstract profiles passing Miyaoka's inequality need not be realizable "
    "by actual line configurations"
)


class UsageError(Exception):
    """Bad flag combination detected after parsing."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse defaults to exit code 2; we use 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


class _SubcommandParser(_Parser):
    """Reports arguments it does not know itself, with its own usage line.

    Left to argparse, a subcommand hands unknown arguments up to the
    top-level parser, whose usage names no subcommand option.
    """

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


def _common_options(parser: argparse.ArgumentParser, places: bool = True) -> None:
    parser.add_argument(
        "--format",
        choices=("table", "csv", "json"),
        default="table",
        help="output format (default: table)",
    )
    if places:
        parser.add_argument(
            "--places",
            type=int,
            default=3,
            metavar="N",
            help="decimal places for rounded renderings (default: 3)",
        )
    parser.add_argument(
        "--output",
        metavar="PATH",
        help="write the report to PATH instead of stdout",
    )


# The flags that select a configuration.  Each defaults to None, so a flag
# is given exactly when its value is not None.
SURFACE_FLAGS = {
    "--degree": dict(type=int, metavar="N", help="surface degree n"),
    "--eckardt": dict(
        type=int, metavar="T", help="number of triple points for --surface cubic (0..18)"
    ),
    "--profile": dict(metavar="PATH", help="custom profile JSON {n, d, t}"),
    "--lines": dict(metavar="PATH", help="custom lines JSON {n, lines: [[pt, pt], ...]}"),
    "--from-lines": dict(
        action="store_true",
        default=None,
        help="derive the profile by scanning explicit lines instead of closed formulas",
    ),
}

# The surface flags each --surface reads; giving any other one is a usage error.
READS = {
    "fermat": ("--degree", "--from-lines"),
    "rams": ("--degree",),
    "schur": (),
    "cubic": ("--eckardt",),
    "custom": ("--profile", "--lines"),
}


def _surface_options(parser, surfaces, flags=tuple(SURFACE_FLAGS)) -> None:
    parser.add_argument("--surface", choices=surfaces, required=True)
    for flag in flags:
        parser.add_argument(flag, **SURFACE_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="linesurf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"linesurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_SubcommandParser)

    p = sub.add_parser("catalog", help="construct explicit lines")
    p.set_defaults(run=cmd_catalog)
    _surface_options(p, ("fermat", "custom"), ("--degree", "--lines"))
    p.add_argument(
        "--singular",
        action="store_true",
        help="emit the singular points of the arrangement instead of its lines",
    )
    _common_options(p, places=False)

    for name, summary, run in (
        ("profile", "emit an incidence profile", cmd_profile),
        ("analyze", "full exact report", cmd_analyze),
        ("verify", "identity / valency / on-surface checks", cmd_verify),
        ("bound", "Miyaoka inequality and H_L lower bound", cmd_bound),
    ):
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if name == "verify":  # verify scans explicit lines whenever there are any
            _surface_options(p, tuple(READS), ("--degree", "--eckardt", "--profile", "--lines"))
            p.add_argument(
                "--valency",
                type=int,
                metavar="V",
                help="check that every line meets exactly V others",
            )
        else:
            _surface_options(p, tuple(READS))
        _common_options(p, places=name in ("analyze", "bound"))

    p = sub.add_parser("sweep", help="one row per parameter in a range")
    p.set_defaults(run=cmd_sweep)
    p.add_argument("--surface", choices=("fermat", "rams", "cubic"), required=True)
    p.add_argument(
        "--degrees", metavar="A:B", help="inclusive degree range for fermat/rams"
    )
    p.add_argument(
        "--eckardt-range",
        metavar="A:B",
        help="inclusive triple-point range for cubic",
    )
    _common_options(p)

    p = sub.add_parser("search-bauer", help="quadruple-point subconfiguration search")
    p.set_defaults(run=cmd_search_bauer)
    _surface_options(p, ("fermat", "custom"), ("--degree", "--lines"))
    p.add_argument("--size", type=int, required=True, metavar="S", help="lines per subconfiguration")
    p.add_argument(
        "--max-solutions",
        type=int,
        default=1,
        metavar="K",
        help="stop after K solutions; 0 means all (default: 1)",
    )
    _common_options(p)

    p = sub.add_parser("search-extremal", help="enumerate Miyaoka-compatible profiles")
    p.set_defaults(run=cmd_search_extremal)
    p.add_argument("--degree", type=int, required=True, metavar="N")
    p.add_argument("--num-lines", type=int, required=True, metavar="D")
    p.add_argument("--k-max", type=int, required=True, metavar="K")
    p.add_argument("--limit", type=int, metavar="L", help="report only the L most negative")
    _common_options(p)

    return parser


# ---------------------------------------------------------------------------
# Selector resolution.


def _reject_unread(args, reads, flags) -> None:
    for flag in flags:
        if flag not in reads and getattr(args, flag[2:].replace("-", "_"), None) is not None:
            raise UsageError(f"--surface {args.surface} does not read {flag}")


def _need_degree(args, minimum: int) -> int:
    if args.degree is None:
        raise UsageError(f"--surface {args.surface} requires --degree")
    if args.degree < minimum:
        raise ValueError(
            f"--surface {args.surface} requires degree n >= {minimum}"
        )
    return args.degree


def resolve(args) -> Arrangement | IncidenceProfile:
    """The lines or profile the surface flags name, by one rule for every command.

    Fermat names its lines, or its closed-form profile where the command
    offers --from-lines and it is not given.
    """
    surface = args.surface
    _reject_unread(args, READS[surface], SURFACE_FLAGS)
    if surface == "fermat":
        n = _need_degree(args, 3)
        return fermat_lines(n) if getattr(args, "from_lines", True) else fermat_profile(n)
    if surface == "rams":
        return rams_profile(_need_degree(args, 6))
    if surface == "schur":
        return schur_profile()
    if surface == "cubic":
        if args.eckardt is None:
            raise UsageError("--surface cubic requires --eckardt T")
        return cubic_profile(args.eckardt)
    lines, profile = args.lines, getattr(args, "profile", None)  # custom
    if lines and profile:
        raise UsageError("--profile and --lines exclude each other")
    if lines or profile:
        return load_custom_lines(lines) if lines else load_custom_profile(profile)
    if hasattr(args, "profile"):
        raise UsageError("--surface custom needs --profile PATH or --lines PATH")
    raise UsageError("--surface custom needs --lines PATH for this command")


def resolve_profile(args) -> IncidenceProfile:
    chosen = resolve(args)
    return profile_from_arrangement(chosen) if isinstance(chosen, Arrangement) else chosen


def _parse_range(text: str, what: str) -> range:
    try:
        lo_text, hi_text = text.split(":", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise UsageError(f"{what} must look like A:B, got {text!r}") from exc
    if hi < lo:
        raise UsageError(f"{what} range is empty: {text}")
    return range(lo, hi + 1)


# ---------------------------------------------------------------------------
# Rendering.

REPORT_COLUMNS = (
    "n",
    "d",
    "s",
    "t",
    "h_exact",
    "h_decimal",
    "miyaoka_lhs",
    "miyaoka_rhs",
    "h_bound",
)


def report_row(report: HarbourneReport, places: int) -> list[str]:
    return [
        str(report.n),
        str(report.d),
        str(report.s),
        t_vector_str(report.t),
        exact_cell(report.h_linear),
        "" if report.h_linear is None else decimal_str(report.h_linear, places),
        "" if report.miyaoka_lhs is None else str(report.miyaoka_lhs),
        "" if report.miyaoka_rhs is None else str(report.miyaoka_rhs),
        exact_cell(report.h_lower_bound),
    ]


def exact_and_decimal(value, places: int) -> str:
    return f"{rational_str(value)} ({decimal_str(value, places)})"


@dataclass(frozen=True)
class Output:
    """What a command produces, before a format is chosen.

    ``rows`` and ``payload`` are thunks, so only the requested view is
    built; row cells are rendered with ``str``.  ``table`` gives the table
    format its own (header, rows) where it differs from the CSV view.
    ``note`` follows a table and goes to stderr next to CSV; JSON payloads
    carry it themselves.
    """

    header: Sequence[str]
    rows: Callable[[], list[list]]
    payload: Callable[[], object]
    table: Optional[Callable[[], tuple[Sequence[str], list[list]]]] = None
    note: Optional[str] = None


def render(out: Output, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(out.payload(), indent=2) + "\n"
    if fmt == "table" and out.table is not None:
        header, rows = out.table()
    else:
        header, rows = out.header, out.rows()
    rows = [[str(cell) for cell in row] for row in rows]
    if fmt == "csv":
        buffer = io.StringIO()
        writer = csv.writer(buffer, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        if out.note:
            print(f"note: {out.note}", file=sys.stderr)
        return buffer.getvalue()
    widths = [len(h) for h in header]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
    if out.note:
        lines.append(f"note: {out.note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Commands.


def cmd_catalog(args) -> Output:
    arr = resolve(args)
    if args.singular:
        scan = scan_arrangement(arr)
        return Output(
            ["point", "multiplicity", "lines"],
            lambda: [
                [sp.location, sp.multiplicity, ";".join(map(str, sp.lines))]
                for sp in scan.points
            ],
            lambda: scan_json(scan),
        )
    return Output(
        ["index", "point_1", "point_2", "plucker"],
        lambda: [
            [i, *line.base, "[" + ", ".join(map(str, line.plucker)) + "]"]
            for i, line in enumerate(arr.lines)
        ],
        lambda: arrangement_json(arr),
    )


def cmd_profile(args) -> Output:
    profile = resolve_profile(args)
    incidences = incidence_count(profile)
    return Output(
        ["n", "d", "s", "t", "incidences"],
        lambda: [[profile.n, profile.d, profile.s, t_vector_str(profile.t), incidences]],
        lambda: {**profile_json(profile), "incidences": incidences},
    )


def _analyze_table(report: HarbourneReport, places: int):
    rows = [
        ["n", str(report.n)],
        ["d", str(report.d)],
        ["s", str(report.s)],
        ["t", t_vector_str(report.t)],
        ["incidences", str(report.incidences)],
        ["strict_transform_sq", str(report.strict_transform_sq)],
        ["h_linear", exact_and_decimal(report.h_linear, places)],
    ]
    if report.miyaoka_lhs is None:
        rows.append(["miyaoka", "inapplicable (requires degree n >= 4)"])
        rows.append(["h_lower_bound", "inapplicable (requires degree n >= 4)"])
    else:
        verdict = "holds" if report.miyaoka_holds else "VIOLATED"
        rows.append(
            ["miyaoka", f"lhs {report.miyaoka_lhs} <= rhs {report.miyaoka_rhs}: {verdict}"]
        )
        verdict = "satisfied" if report.h_bound_holds else "VIOLATED"
        bound = exact_and_decimal(report.h_lower_bound, places)
        rows.append(["h_lower_bound", f"{bound}: {verdict}"])
        verdict = "satisfied" if report.strict_bound_holds else "VIOLATED"
        rows.append(["strict_sq_lower", f"{report.strict_sq_lower} (strict): {verdict}"])
    return ["quantity", "value"], rows


def cmd_analyze(args) -> Output:
    profile = resolve_profile(args)
    if profile.s == 0:
        raise UndefinedConstant(
            "H_L is undefined: the configuration has no singular points (s = 0)"
        )
    report = analyze_profile(profile)
    return Output(
        REPORT_COLUMNS,
        lambda: [report_row(report, args.places)],
        lambda: report_json(report, args.places),
        table=lambda: _analyze_table(report, args.places),
    )


def cmd_verify(args) -> Output:
    checks: list[tuple[str, int, int, bool]] = []  # name, lhs, rhs, ok
    chosen = resolve(args)
    if isinstance(chosen, Arrangement):
        arr, scan = chosen, scan_arrangement(chosen)
        tally, mults = scan.tally(), [sp.multiplicity for sp in scan.points]
        for name, lhs, rhs in (
            ("multiplicity_sum", sum(mults), sum(k * c for k, c in tally.items())),
            ("point_count", len(mults), sum(tally.values())),
            ("meeting_pairs", sum(k * (k - 1) // 2 for k in mults), scan.meeting_pairs),
        ):
            checks.append((name, lhs, rhs, lhs == rhs))
        if args.surface == "fermat":
            good = sum(1 for line in arr.lines if on_surface(line, arr.n))
            checks.append(("on_surface", good, arr.d, good == arr.d))
        profile = IncidenceProfile(n=arr.n, d=arr.d, t=tally)
    else:
        profile = chosen
        pairs, budget = incidence_count(profile), profile.d * (profile.d - 1)
        checks.append(("pair_count_feasible", pairs, budget, pairs <= budget))
        bound = max_lines_bound(profile.n)
        checks.append(("max_lines_bound", profile.d, bound, profile.d <= bound))
    if args.valency is not None:
        lhs, rhs = incidence_count(profile), profile.d * args.valency
        ok = valency_consistent(profile, args.valency)
        checks.append((f"valency_{args.valency}", lhs, rhs, ok))
    return Output(
        ["check", "lhs", "rhs", "result"],
        lambda: [
            [name, lhs, rhs, "PASS" if ok else "FAIL"] for name, lhs, rhs, ok in checks
        ],
        lambda: {
            "checks": [
                {"name": name, "lhs": str(lhs), "rhs": str(rhs), "ok": ok}
                for name, lhs, rhs, ok in checks
            ],
            "ok": all(ok for *_, ok in checks),
        },
    )


def cmd_bound(args) -> Output:
    profile = resolve_profile(args)
    miyaoka_check(profile)  # raises InapplicableDegree for n = 3
    report = analyze_profile(profile)
    h_bound, h = report.h_lower_bound, report.h_linear
    return Output(
        ["quantity", "value"],
        lambda: [
            ["n", report.n],
            ["d", report.d],
            ["s", report.s],
            ["miyaoka_lhs", report.miyaoka_lhs],
            ["miyaoka_rhs", report.miyaoka_rhs],
            ["miyaoka_holds", "yes" if report.miyaoka_holds else "no"],
            ["h_lower_bound", "" if h_bound is None else exact_and_decimal(h_bound, args.places)],
            ["h_linear", "" if h is None else exact_and_decimal(h, args.places)],
            ["strict_sq_lower", report.strict_sq_lower],
        ],
        lambda: {
            "n": report.n,
            "d": report.d,
            "s": report.s,
            "miyaoka": {
                "lhs": report.miyaoka_lhs,
                "rhs": report.miyaoka_rhs,
                "holds": report.miyaoka_holds,
            },
            "h_lower_bound": None if h_bound is None else rational_str(h_bound),
            "h_linear": None if h is None else rational_str(h),
            "strict_sq_lower": report.strict_sq_lower,
        },
    )


def cmd_sweep(args) -> Output:
    family, flag, text = {
        "fermat": (fermat_profile, "--degrees", args.degrees),
        "rams": (rams_profile, "--degrees", args.degrees),
        "cubic": (cubic_profile, "--eckardt-range", args.eckardt_range),
    }[args.surface]
    _reject_unread(args, (flag,), ("--degrees", "--eckardt-range"))
    if not text:
        raise UsageError(f"sweep --surface {args.surface} requires {flag} A:B")
    reports = [analyze_profile(family(x)) for x in _parse_range(text, flag)]
    return Output(
        REPORT_COLUMNS,
        lambda: [report_row(r, args.places) for r in reports],
        lambda: [report_json(r, args.places) for r in reports],
    )


def cmd_search_bauer(args) -> Output:
    arr = resolve(args)
    if args.max_solutions < 0:
        raise UsageError("--max-solutions must be 0 (all) or positive")
    entries = []
    for chosen in bauer_search(arr, args.size, max_solutions=args.max_solutions or None):
        profile = profile_from_arrangement(arr.subset(chosen))
        entries.append((chosen, profile, harbourne_linear(profile)))
    return Output(
        ["solution", "lines", "t", "h_exact", "h_decimal"],
        lambda: [
            [
                i,
                ";".join(map(str, chosen)),
                t_vector_str(profile.t),
                rational_str(value),
                decimal_str(value, args.places),
            ]
            for i, (chosen, profile, value) in enumerate(entries)
        ],
        lambda: {
            "size": args.size,
            "solutions": [
                {
                    "lines": list(chosen),
                    "profile": profile_json(profile),
                    "h_linear": rational_str(value),
                }
                for chosen, profile, value in entries
            ],
        },
    )


def cmd_search_extremal(args) -> Output:
    results = extremal_profile_search(
        args.degree, args.num_lines, args.k_max, limit=args.limit
    )
    return Output(
        ["t", "s", "h_exact", "h_decimal", "miyaoka_lhs", "miyaoka_rhs"],
        lambda: [
            [
                t_vector_str(profile.t),
                profile.s,
                exact_cell(value),
                "" if value is None else decimal_str(value, args.places),
                *miyaoka_check(profile)[:2],
            ]
            for profile, value in results
        ],
        lambda: {
            "note": EXTREMAL_NOTE,
            "profiles": [
                {
                    "profile": profile_json(profile),
                    "h_linear": None if value is None else rational_str(value),
                }
                for profile, value in results
            ],
        },
        note=EXTREMAL_NOTE,
    )


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message (help, usage error)
        return int(exc.code or 0)
    try:
        if getattr(args, "places", 0) < 0:
            raise ValueError("places must be nonnegative")
        payload = render(args.run(args), args.format)
    except UsageError as exc:
        print(f"linesurf {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"linesurf {args.command}: {exc}", file=sys.stderr)
        return 2
    if args.output:
        try:
            with open(args.output, "w", encoding="utf-8", newline="") as handle:
                handle.write(payload)
        except OSError as exc:
            print(
                f"linesurf {args.command}: cannot write {args.output}: {exc.strerror or exc}",
                file=sys.stderr,
            )
            return 2
    else:
        sys.stdout.write(payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
