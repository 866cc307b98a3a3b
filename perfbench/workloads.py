"""The three workloads: set-up, the jobs of one round, and their checks.

A round is a fixed batch of jobs; every run makes whole rounds.  Each
workload reaches linesurf through module attributes looked up at call
time, so the wrappers of a traced run see every call.
"""

from __future__ import annotations

import importlib
import random
from pathlib import Path
from typing import Callable, NamedTuple

import moved_lines
import oracles


class Job(NamedTuple):
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]  # error strings; empty when the output is right


def _rotated(values, seed):
    """The seed picks which value a round starts with; every round visits all."""
    k = seed % len(values)
    return values[k:] + values[:k]


class FermatScan:
    """Exact scans of the paper's own explicit Fermat lines, n = 6, 7, 8."""

    name = "fermat-scan"
    degrees = (6, 7, 8)

    def setup(self) -> None:
        self.catalog = importlib.import_module("linesurf.catalog")
        self.incidence = importlib.import_module("linesurf.incidence")
        self.harbourne = importlib.import_module("linesurf.harbourne")
        self.arrangements = {n: self.catalog.fermat_lines(n) for n in self.degrees}

    def prepare(self, seed: int, round_index: int, scratch: Path) -> None:
        pass

    def jobs(self, seed: int, round_index: int, scratch: Path):
        for n in _rotated(self.degrees, seed):
            yield Job(f"scan n={n}", lambda n=n: self._scan(n), lambda out, n=n: self._check(n, out))

    def _scan(self, n):
        arr = self.arrangements[n]
        scan = self.incidence.scan_arrangement(arr)
        profile = self.catalog.IncidenceProfile(n=arr.n, d=arr.d, t=scan.tally())
        return scan, self.harbourne.analyze_profile(profile)

    @staticmethod
    def _check(n, out):
        scan, report = out
        points = [(sp.multiplicity, sp.lines) for sp in scan.points]
        return oracles.check_fermat_scan(
            n, report.t, scan.meeting_pairs, points, report.h_linear, report.h_lower_bound
        )


class MovedLinesCli:
    """In-process CLI calls on the Fermat-quartic lines moved by seeded matrices."""

    name = "moved-lines-cli"
    commands = (
        (("analyze", "--format", "json"), "analyze"),
        (("profile", "--format", "csv"), "profile"),
        (("catalog", "--singular", "--format", "json"), "catalog"),
        (("bound", "--format", "json"), "bound"),
        (("verify", "--valency", str(oracles.MOVED_VALENCY)), "verify"),
    )
    sampled_points = 6

    def setup(self) -> None:
        self.cli = importlib.import_module("linesurf.cli")

    def prepare(self, seed: int, round_index: int, scratch: Path) -> None:
        self.files = moved_lines.write_round(seed, round_index, scratch / "inputs")

    def jobs(self, seed: int, round_index: int, scratch: Path):
        sample = random.Random(f"sample:{seed}:{round_index}").sample(
            range(sum(oracles.MOVED_T.values())), self.sampled_points
        )
        for (args, kind), (path, lines) in zip(self.commands, self.files):
            output = scratch / f"{kind}-r{round_index}.out"
            argv = [args[0], "--surface", "custom", "--lines", str(path), *args[1:], "--output", str(output)]
            yield Job(
                f"{kind} {path.name}",
                lambda argv=argv: self.cli.main(argv),
                lambda code, kind=kind, output=output, lines=lines: self._check(
                    kind, code, output, lines, sample
                ),
            )

    @staticmethod
    def _check(kind, code, output, lines, sample):
        if code != 0:
            return [f"{kind}: exit code {code}"]
        text = output.read_text(encoding="utf-8")
        if kind == "catalog":
            return oracles.check_catalog_json(text, lines, sample)
        return {
            "analyze": oracles.check_analyze_json,
            "profile": oracles.check_profile_csv,
            "bound": oracles.check_bound_json,
            "verify": oracles.check_verify_table,
        }[kind](text)


class ExtremalSearch:
    """Unlimited extremal_profile_search(n, 24, 4) for n = 4, 5, 6."""

    name = "extremal-search"
    degrees = (4, 5, 6)
    num_lines = 24
    k_max = 4

    def setup(self) -> None:
        self.harbourne = importlib.import_module("linesurf.harbourne")

    def prepare(self, seed: int, round_index: int, scratch: Path) -> None:
        pass

    def jobs(self, seed: int, round_index: int, scratch: Path):
        for n in _rotated(self.degrees, seed):
            yield Job(
                f"search n={n}",
                lambda n=n: self.harbourne.extremal_profile_search(n, self.num_lines, self.k_max),
                lambda rows, n=n: oracles.check_extremal(
                    n, self.num_lines, self.k_max, [(p.t, v) for p, v in rows]
                ),
            )


WORKLOADS = {w.name: w for w in (FermatScan, MovedLinesCli, ExtremalSearch)}
