"""Command-line front end.

Every subcommand is one row of the table ``SUBCOMMANDS``, which
``build_parser`` walks in order: the name and help line, the handler, the
--surface choices, the surface flags and the subcommand's own arguments,
and whether it prints decimals (and so takes --places).  A subcommand
registers only the flags it reads, then --format, --places and --output.
``exact_cell`` and ``decimal_cell`` render every value that may be absent:
None is a blank cell, or null in JSON.

--surface with --degree, --eckardt, --profile, --lines and --from-lines
selects a configuration through ``resolve``, one rule for every
subcommand.  The named surfaces are the entries of ``catalog.NAMED``, their
one home: ``READS``, ``resolve``, ``sweep`` and the --surface choices are
derived from it.  Giving a flag the chosen surface does not read
(``READS``), or --profile with --lines, is a usage error.

Output formats are an aligned text table (default), CSV with a mandatory
header row, or JSON carrying exact rationals as strings alongside their
decimal rendering.  Identical invocations produce byte-identical output.

Exit codes: 0 success, 1 usage error, 2 domain or inapplicability error
or an input or --output file that cannot be read or written.  A stdout
closed by its reader ends the run with 2 and no message.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import dataclass
from functools import cache, partial
from typing import Callable, Iterable, Optional, Sequence, TextIO

from . import __version__
from .catalog import NAMED, Arrangement, IncidenceProfile, on_surface
from .harbourne import (
    HarbourneReport,
    analyze_profile,
    bauer_search,
    check_subconfiguration_size,
    extremal_profile_search,
    harbourne_linear,
    miyaoka_check,
    strict_transform_sq,
)
from .incidence import incidence_count, profile_from_arrangement, scan_arrangement
from .serialize import (
    arrangement_json,
    decimal_cell,
    exact_cell,
    load_custom_lines,
    load_custom_profile,
    profile_json,
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
    """Exits 1 on a usage error, and reports unknown arguments itself.

    Left to argparse, a subcommand hands unknown arguments up to the
    top-level parser, whose usage names no subcommand option.
    """

    def error(self, message):  # argparse defaults to exit code 2
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error("unrecognized arguments: " + " ".join(extras))
        return namespace, extras


# The flags that select a configuration.  Each defaults to None, so a flag
# is given exactly when its value is not None.
SURFACE_FLAGS = {
    "--degree": dict(type=int, metavar="N", help="surface degree n"),
    "--eckardt": dict(
        type=int, metavar="T",
        help="number of triple points for --surface cubic, one of "
        + ", ".join(map(str, NAMED["cubic"].values)),
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
# A named configuration reads its parameter, and --from-lines where it has lines.
READS = {
    **{
        name: ((f"--{entry.param}",) if entry.param else ())
        + (("--from-lines",) if entry.lines else ())
        for name, entry in NAMED.items()
    },
    "custom": ("--profile", "--lines"),
}

# The --surface choices of the commands that need explicit lines, and of sweep.
WITH_LINES = (*(name for name, entry in NAMED.items() if entry.lines), "custom")
SWEPT = tuple(name for name, entry in NAMED.items() if entry.param)

# The range flag sweep reads for each parameter.
RANGE_FLAGS = {"degree": "--degrees", "eckardt": "--eckardt-range"}


# ---------------------------------------------------------------------------
# Selector resolution.


def _given(args, flag: str):
    """The value of ``flag``, None where it is not given or not registered."""
    return getattr(args, flag[2:].replace("-", "_"), None)


def _reject_unread(args, reads, flags) -> None:
    for flag in flags:
        if flag not in reads and _given(args, flag) is not None:
            raise UsageError(f"--surface {args.surface} does not read {flag}")


def selection(args) -> Callable[[], Arrangement | IncidenceProfile]:
    """What ``resolve`` builds, once every usage check has passed; nothing is read yet.

    A named configuration with a line builder names its lines, or its
    closed-form profile where the command offers --from-lines and it is
    not given.
    """
    surface = args.surface
    _reject_unread(args, READS[surface], SURFACE_FLAGS)
    if surface in NAMED:
        entry = NAMED[surface]
        build = entry.lines if entry.lines and getattr(args, "from_lines", True) else entry.profile
        if entry.param is None:
            return build
        value = _given(args, f"--{entry.param}")
        if value is None:
            raise UsageError(f"--surface {surface} requires --{entry.param}")
        return partial(build, value)
    lines, profile = args.lines, getattr(args, "profile", None)  # custom
    if lines and profile:
        raise UsageError("--profile and --lines exclude each other")
    if lines or profile:
        return partial(load_custom_lines, lines) if lines else partial(load_custom_profile, profile)
    if hasattr(args, "profile"):
        raise UsageError("--surface custom needs --profile PATH or --lines PATH")
    raise UsageError("--surface custom needs --lines PATH for this command")


def resolve(args) -> Arrangement | IncidenceProfile:
    """The lines or profile the surface flags name, by one rule for every command."""
    return selection(args)()


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


def report_row(report: HarbourneReport, places: int) -> list:
    profile, miyaoka = report.profile, report.miyaoka
    return [
        profile.n,
        profile.d,
        profile.s,
        t_vector_str(profile.t),
        exact_cell(report.h_linear),
        decimal_cell(report.h_linear, places),
        *(("", "") if miyaoka is None else miyaoka[:2]),
        exact_cell(report.h_lower_bound),
    ]


@dataclass(frozen=True)
class Output:
    """What a command produces, before a format is chosen.

    ``rows`` and ``payload`` are thunks raising no domain errors, so only
    the requested view is built, after every gate; ``rows`` may yield, as
    CSV writes each row as it comes.  ``table`` gives the table format its
    own (header, rows) where it differs from the CSV view.  ``note``
    follows a table and goes to stderr next to CSV; JSON payloads carry it.
    """

    header: Sequence[str]
    rows: Callable[[], Iterable[Sequence]]
    payload: Callable[[], object]
    table: Optional[Callable[[], tuple[Sequence[str], Iterable[Sequence]]]] = None
    note: Optional[str] = None


def render(out: Output, fmt: str, handle: TextIO) -> None:
    """Write ``out`` to ``handle``; only the table holds its rows, as text, for the widths."""
    if fmt == "json":
        print(json.dumps(out.payload(), indent=2), file=handle)
        return
    if fmt == "csv":
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(out.header)
        writer.writerows(out.rows())
        return
    header, rows = out.table() if out.table is not None else (out.header, out.rows())
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [max(map(len, column)) for column in zip(header, *rows)]
    for row in [header, ["-" * w for w in widths], *rows]:
        print("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip(), file=handle)
    if out.note:
        print(f"note: {out.note}", file=handle)


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


def _verdict(ok: bool, word: str = "satisfied") -> str:
    return word if ok else "VIOLATED"


def _analyze_table(report: HarbourneReport, places: int):
    profile, miyaoka = report.profile, report.miyaoka
    rows = [
        ["n", profile.n],
        ["d", profile.d],
        ["s", profile.s],
        ["t", t_vector_str(profile.t)],
        ["incidences", incidence_count(profile)],
        ["strict_transform_sq", strict_transform_sq(profile)],
        ["h_linear", exact_cell(report.h_linear, places)],
    ]
    if miyaoka is None:
        inapplicable = "inapplicable (requires degree n >= 4)"
        rows += [["miyaoka", inapplicable], ["h_lower_bound", inapplicable]]
    else:
        inequality = f"lhs {miyaoka.lhs} <= rhs {miyaoka.rhs}"
        bound = exact_cell(report.h_lower_bound, places)
        rows += [
            ["miyaoka", f"{inequality}: {_verdict(miyaoka.holds, 'holds')}"],
            ["h_lower_bound", f"{bound}: {_verdict(report.h_bound_holds)}"],
            [
                "strict_sq_lower",
                f"{report.strict_sq_lower} (strict): {_verdict(report.strict_bound_holds)}",
            ],
        ]
    return ["quantity", "value"], rows


def cmd_analyze(args) -> Output:
    profile = resolve_profile(args)
    harbourne_linear(profile)  # raises UndefinedConstant for s = 0
    report = analyze_profile(profile)
    return Output(
        REPORT_COLUMNS,
        lambda: [report_row(report, args.places)],
        lambda: report_json(report, args.places),
        table=lambda: _analyze_table(report, args.places),
    )


def cmd_verify(args) -> Output:
    build = selection(args)
    valency = args.valency
    fermat = args.surface == "fermat"
    if not fermat and valency is None:  # before any file is read or line built
        raise UsageError(f"--surface {args.surface} has nothing to verify without --valency")
    chosen = build()
    if valency is not None and valency < 0:  # before any line is tested or scanned
        raise ValueError("valency must be nonnegative")
    checks: list[tuple[str, int, int, bool]] = []  # name, lhs, rhs, ok
    if fermat:
        good = sum(1 for line in chosen.lines if on_surface(line, chosen.n))
        checks.append(("on_surface", good, chosen.d, good == chosen.d))
    if valency is not None:
        # I_d = sum (k^2-k) t_k is the sum of the valencies.  Explicit lines
        # pass only if each line meets V others; a profile has only the sum.
        rhs = chosen.d * valency
        if isinstance(chosen, Arrangement):
            valencies = scan_arrangement(chosen).valencies(chosen.d)
            lhs, ok = sum(valencies), all(v == valency for v in valencies)
        else:
            lhs = incidence_count(chosen)
            ok = lhs == rhs
        checks.append((f"valency_{valency}", lhs, rhs, ok))
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
    miyaoka = miyaoka_check(profile)  # raises InapplicableDegree for n = 3
    report = analyze_profile(profile)
    return Output(
        ["quantity", "value"],
        lambda: [
            ["n", profile.n],
            ["d", profile.d],
            ["s", profile.s],
            ["miyaoka_lhs", miyaoka.lhs],
            ["miyaoka_rhs", miyaoka.rhs],
            ["miyaoka_holds", "yes" if miyaoka.holds else "no"],
            ["h_lower_bound", exact_cell(report.h_lower_bound, args.places)],
            ["h_linear", exact_cell(report.h_linear, args.places)],
            ["strict_sq_lower", report.strict_sq_lower],
        ],
        lambda: {
            "n": profile.n,
            "d": profile.d,
            "s": profile.s,
            "miyaoka": miyaoka._asdict(),
            # JSON null where the cell is blank
            "h_lower_bound": exact_cell(report.h_lower_bound) or None,
            "h_linear": exact_cell(report.h_linear) or None,
            "strict_sq_lower": report.strict_sq_lower,
        },
    )


def cmd_sweep(args) -> Output:
    entry = NAMED[args.surface]
    family, flag = entry.profile, RANGE_FLAGS[entry.param]
    _reject_unread(args, (flag,), RANGE_FLAGS.values())
    text = _given(args, flag)
    if not text:
        raise UsageError(f"sweep --surface {args.surface} requires {flag} A:B")
    span = _parse_range(text, flag)
    values = span if entry.values is None else [x for x in entry.values if x in span]
    if not values:
        raise ValueError(f"no {entry.param} value in {text} exists for --surface {args.surface}")
    reports = [analyze_profile(family(x)) for x in values]
    return Output(
        REPORT_COLUMNS,
        lambda: [report_row(r, args.places) for r in reports],
        lambda: [report_json(r, args.places) for r in reports],
    )


def cmd_search_bauer(args) -> Output:
    arr = resolve(args)
    if args.max_solutions < 0:
        raise UsageError("--max-solutions must be 0 (all) or positive")
    check_subconfiguration_size(args.size)
    scan = scan_arrangement(arr)
    entries = []
    for chosen in bauer_search(scan, args.size, max_solutions=args.max_solutions or None):
        profile = IncidenceProfile(arr.n, len(chosen), scan.tally(chosen))
        entries.append((chosen, profile, harbourne_linear(profile)))
    return Output(
        ["solution", "lines", "t", "h_exact", "h_decimal"],
        lambda: [
            [
                i,
                ";".join(map(str, chosen)),
                t_vector_str(profile.t),
                exact_cell(value),
                decimal_cell(value, args.places),
            ]
            for i, (chosen, profile, value) in enumerate(entries)
        ],
        lambda: {
            "size": args.size,
            "solutions": [
                {
                    "lines": list(chosen),
                    "profile": profile_json(profile),
                    "h_linear": exact_cell(value),
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
        lambda: (
            [
                t_vector_str(profile.t),
                profile.s,
                exact_cell(value),
                decimal_cell(value, args.places),
                *miyaoka_check(profile)[:2],
            ]
            for profile, value in results
        ),
        lambda: {
            "note": EXTREMAL_NOTE,
            "profiles": [
                {
                    "profile": profile_json(profile),
                    "h_linear": exact_cell(value) or None,
                }
                for profile, value in results
            ],
        },
        note=EXTREMAL_NOTE,
    )


# ---------------------------------------------------------------------------
# Subcommands.

# Registered after each subcommand's own arguments; --places only where it prints decimals.
OUTPUT_FLAGS = {
    "--format": dict(choices=("table", "csv", "json"), default="table",
                     help="output format (default: table)"),
    "--places": dict(type=int, default=3, metavar="N",
                     help="decimal places for rounded renderings (default: 3)"),
    "--output": dict(metavar="PATH", help="write the report to PATH instead of stdout"),
}

# One row per subcommand, in registration order: name, help, handler, --surface
# choices (None: no --surface), the SURFACE_FLAGS it registers after --surface,
# its own arguments, and whether it prints decimals.
SUBCOMMANDS = (
    ("catalog", "construct explicit lines", cmd_catalog,
     WITH_LINES, ("--degree", "--lines"),
     {"--singular": dict(action="store_true",
                         help="emit the singular points of the arrangement instead of its lines")},
     False),
    ("profile", "emit an incidence profile", cmd_profile,
     tuple(READS), tuple(SURFACE_FLAGS), {}, False),
    ("analyze", "full exact report", cmd_analyze,
     tuple(READS), tuple(SURFACE_FLAGS), {}, True),
    # verify --valency scans explicit lines whenever there are any, so it has no --from-lines
    ("verify", "on-surface and valency checks", cmd_verify,
     tuple(READS), ("--degree", "--eckardt", "--profile", "--lines"),
     {"--valency": dict(type=int, metavar="V",
                        help="check that every line meets exactly V others")},
     False),
    ("bound", "Miyaoka inequality and H_L lower bound", cmd_bound,
     tuple(READS), tuple(SURFACE_FLAGS), {}, True),
    ("sweep", "one row per parameter in a range", cmd_sweep,
     SWEPT, (),
     {"--degrees": dict(metavar="A:B", help="inclusive degree range for fermat/rams"),
      "--eckardt-range": dict(metavar="A:B", help="inclusive triple-point range for cubic")},
     True),
    ("search-bauer", "quadruple-point subconfiguration search", cmd_search_bauer,
     WITH_LINES, ("--degree", "--lines"),
     {"--size": dict(type=int, required=True, metavar="S", help="lines per subconfiguration"),
      "--max-solutions": dict(type=int, default=1, metavar="K",
                              help="stop after K solutions; 0 means all (default: 1)")},
     True),
    ("search-extremal", "enumerate Miyaoka-compatible profiles", cmd_search_extremal,
     None, (),
     {"--degree": dict(type=int, required=True, metavar="N"),
      "--num-lines": dict(type=int, required=True, metavar="D"),
      "--k-max": dict(type=int, required=True, metavar="K"),
      "--limit": dict(type=int, metavar="L", help="report only the L most negative")},
     True),
)


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="linesurf", description=__doc__.split("\n\n")[0])
    parser.add_argument("--version", action="version", version=f"linesurf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, summary, run, surfaces, flags, own, decimals in SUBCOMMANDS:
        p = sub.add_parser(name, help=summary)
        p.set_defaults(run=run)
        if surfaces:
            p.add_argument("--surface", choices=surfaces, required=True)
        options = {**{f: SURFACE_FLAGS[f] for f in flags}, **own, **OUTPUT_FLAGS}
        for flag, spec in options.items():
            if decimals or flag != "--places":
                p.add_argument(flag, **spec)
    return parser


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse prints its own message (help, usage error)
        return int(exc.code or 0)
    try:
        places = getattr(args, "places", 0)
        if places < 0:
            raise ValueError("places must be nonnegative")
        # A decimal's fractional part is one int of `places` digits, and ints
        # longer than the interpreter's limit do not convert to str (0: no limit).
        cap = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if cap and places > cap:
            raise ValueError(f"places must be at most {cap}")
        out = args.run(args)
    except UsageError as exc:
        print(f"linesurf {args.command}: error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, ArithmeticError) as exc:
        print(f"linesurf {args.command}: {exc}", file=sys.stderr)
        return 2
    # The handler has passed every gate, so no file is made for a refused run.
    if out.note and args.format == "csv":
        print(f"note: {out.note}", file=sys.stderr)
    if not args.output:
        try:
            render(out, args.format, sys.stdout)
            sys.stdout.flush()  # so that a closed pipe raises here, not at exit
        except BrokenPipeError:
            # The reader has gone (`| head`).  Point stdout at devnull, so
            # that the interpreter's last flush cannot raise again.
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
            return 2
        return 0
    try:
        with open(args.output, "w", encoding="utf-8", newline="") as handle:
            render(out, args.format, handle)
    except OSError as exc:
        print(
            f"linesurf {args.command}: cannot write {args.output}: {exc.strerror or exc}",
            file=sys.stderr,
        )
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
