"""Acceptance suite.

One test per criterion; each prints a single pass/fail line (visible with
``pytest -s``) before asserting, so a full run yields a criterion-by-
criterion scoreboard.  All comparisons are exact rational comparisons
unless a tolerance is stated in the criterion itself.
"""

import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

from closed_forms import cubic_h, fermat_h_closed, rams_h_closed

from linesurf.catalog import (
    IncidenceProfile,
    cubic_profile,
    fermat_lines,
    fermat_profile,
    on_surface,
    rams_profile,
    schur_profile,
)
from linesurf.exactnum import CycloNum, cyclotomic_polynomial
from linesurf.harbourne import (
    bauer_search,
    harbourne_linear,
    harbourne_lower_bound,
    miyaoka_check,
    strict_transform_sq,
    strict_transform_sq_lower,
)
from linesurf.incidence import (
    incidence_count,
    profile_from_arrangement,
    scan_arrangement,
    valency_consistent,
)
from linesurf.serialize import decimal_str

CONDUCTORS = (4, 6, 8, 10, 12)


def report(num: int, ok: bool, detail: str) -> bool:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    return ok


def test_criterion_01_fermat_construction(fermat_arrs, fermat_scans):
    ok = True
    for n in (3, 4, 5, 6):
        arr = fermat_arrs[n]
        ok &= arr.d == 3 * n * n
        ok &= len(set(arr.lines)) == 3 * n * n
        ok &= all(on_surface(line, n) for line in arr.lines)
        tally = {}
        for sp in fermat_scans[n].points:
            tally[sp.multiplicity] = tally.get(sp.multiplicity, 0) + 1
        expected = {2: 3 * n**3, n: 6 * n}
        ok &= tally == expected

    start = time.perf_counter()
    fresh = profile_from_arrangement(fermat_lines(6))
    elapsed = time.perf_counter() - start
    ok &= fresh == fermat_profile(6)
    ok &= elapsed < 60.0
    assert report(1, ok, f"fermat n=3..6 construction oracle (n=6 scan {elapsed:.1f}s)")


def test_criterion_02_cubic_values():
    values = [cubic_h(t) for t in range(19)]
    ok = harbourne_linear(cubic_profile(18)) == Fraction(-27, 11)
    ok &= all(b < a for a, b in zip(values, values[1:]))
    ok &= min(values) == values[-1] == Fraction(-27, 11)
    assert report(2, ok, "cubic H_L = -27/11 at 18 Eckardt points, strictly decreasing")


def test_criterion_03_schur_values():
    h = harbourne_linear(schur_profile())
    ok = h == Fraction(-128, 51)
    ok &= decimal_str(h, 3) == "-2.509"
    ok &= valency_consistent(schur_profile(), 18)
    bad = IncidenceProfile(n=4, d=64, t={2: 192, 3: 64, 4: 8})
    ok &= not valency_consistent(bad, 18)
    assert report(3, ok, "Schur H_L = -128/51 (-2.509), valency 18, t2=192 variant fails")


def test_criterion_04_bauer_values():
    profile = IncidenceProfile(n=4, d=16, t={4: 8})
    ok = harbourne_linear(profile) == -8
    ok &= harbourne_lower_bound(profile) == -9
    assert report(4, ok, "Bauer profile H_L = -8, lower bound -9")


def test_criterion_05_bauer_search():
    start = time.perf_counter()
    arr = fermat_lines(4)
    solutions = bauer_search(arr, 16)
    elapsed = time.perf_counter() - start
    ok = bool(solutions) and elapsed < 300.0
    if solutions:
        sub = arr.subset(solutions[0])
        profile = profile_from_arrangement(sub)
        ok &= profile.t == {4: 8}
    assert report(5, ok, f"16-line quadruple-point witness found in {elapsed:.1f}s")


def test_criterion_06_fermat_asymptotics():
    equality = all(
        fermat_h_closed(n) == harbourne_linear(fermat_profile(n)) for n in range(3, 51)
    )
    values = [fermat_h_closed(n) for n in range(3, 51)]
    monotone = all(b < a for a, b in zip(values, values[1:]))

    # With d = 3n^2, t_2 = 3n^3 and t_n = 6n both gaps have exact closed
    # forms.  They are positive and strictly decreasing, so a tolerance once
    # met stays met; degree 50 meets neither, 55 and 67 are the first that do.
    checks = (
        (
            "H_L + 3",
            {n: harbourne_linear(fermat_profile(n)) + 3 for n in range(3, 68)},
            "6/(n^2+2)",
            lambda n: Fraction(6, n * n + 2),
            Fraction(1, 417),
            Fraction(2, 1000),
            55,
        ),
        (
            "bound + 11/3",
            {
                n: harbourne_lower_bound(fermat_profile(n)) + Fraction(11, 3)
                for n in range(4, 68)
            },
            "(10n-4)/(3n^2+6)",
            lambda n: Fraction(10 * n - 4, 3 * n * n + 6),
            Fraction(248, 3753),
            Fraction(5, 100),
            67,
        ),
    )
    problems = []
    if not equality:
        problems.append("closed form disagrees with the profile pipeline")
    if not monotone:
        problems.append("fermat H_L values are not strictly decreasing")
    details = []
    for name, gaps, rate_text, rate, gap_50, tol, first in checks:
        for n, gap in gaps.items():
            if gap != rate(n) or gap <= 0:
                problems.append(
                    f"n={n}: {name} = {gap} ~ {float(gap):.6f}, "
                    f"expected {rate_text} = {rate(n)} > 0"
                )
            if n - 1 in gaps and gap >= gaps[n - 1]:
                problems.append(
                    f"n={n}: {name} = {gap} is not below {gaps[n - 1]} at n={n - 1}"
                )
        if gaps[50] != gap_50:
            problems.append(f"n=50: {name} = {gaps[50]}, expected {rate_text} = {gap_50}")
        if not gaps[first - 1] >= tol > gaps[first]:
            problems.append(
                f"{name} should first drop below {tol} at n={first}, "
                f"but is {gaps[first - 1]} at n={first - 1} and {gaps[first]} at n={first}"
            )
        details.append(
            f"{name} = {rate_text} for n={min(gaps)}..{max(gaps)}, {gaps[50]} at n=50, "
            f"< {tol} from n={first} ({gaps[first]} ~ {float(gaps[first]):.6f})"
        )

    detail = "fermat closed form vs profile n=3..50, monotone; " + "; ".join(details)
    report(6, not problems, detail)
    assert not problems, "\n".join(problems)


def test_criterion_07_rams_divergence():
    ok = all(
        rams_h_closed(n) == harbourne_linear(rams_profile(n)) for n in range(6, 51)
    )
    values = [rams_h_closed(n) for n in range(6, 51)]
    ok &= all(b < a for a, b in zip(values, values[1:]))
    ok &= rams_h_closed(48) < -25
    assert report(
        7, ok, f"rams closed form vs profile n=6..50, decreasing, H(48) = "
        f"{rams_h_closed(48)} < -25"
    )


def test_criterion_08_bound_soundness():
    profiles = [fermat_profile(n) for n in range(4, 51)]
    profiles += [rams_profile(n) for n in range(6, 51)]
    profiles += [schur_profile(), IncidenceProfile(n=4, d=16, t={4: 8})]
    ok = True
    for p in profiles:
        ok &= miyaoka_check(p).holds
        ok &= harbourne_linear(p) >= harbourne_lower_bound(p)
        ok &= strict_transform_sq(p) > strict_transform_sq_lower(p.n, p.s)
    assert report(8, ok, f"Miyaoka + both lower bounds on {len(profiles)} profiles with n >= 4")


def test_criterion_09_property_suites(fermat_arrs, fermat_scans):
    rng = random.Random(20260809)
    cases = 0
    ok = True
    while cases < 1000:
        m = CONDUCTORS[cases % len(CONDUCTORS)]
        size = len(cyclotomic_polynomial(m)) - 1

        def rand_num():
            return CycloNum(
                m, [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(size)]
            )

        a, b, c = rand_num(), rand_num(), rand_num()
        ok &= (a + b) + c == a + (b + c)
        ok &= (a * b) * c == a * (b * c)
        ok &= a * (b + c) == a * b + a * c
        if not a.is_zero():
            ok &= a * a.inverse() == 1
        cases += 1

    for arr in fermat_arrs.values():
        for line in arr.lines:
            p = line.plucker
            ok &= (p[0] * p[5] - p[1] * p[4] + p[2] * p[3]).is_zero()

    produced = 0
    while produced < 1000:
        n = rng.randint(3, 10)
        d = rng.randint(1, 60)
        t = {}
        budget = d * (d - 1)
        for k in range(2, min(7, d) + 1):
            cap = budget // (k * k - k)
            if cap:
                t[k] = rng.randint(0, cap)
                budget -= (k * k - k) * t[k]
        try:
            profile = IncidenceProfile(n=n, d=d, t=t)
        except ValueError:
            continue
        full = (2 - n) * d + incidence_count(profile) - sum(k * k * c for k, c in t.items())
        ok &= strict_transform_sq(profile) == full
        produced += 1

    scans = list(fermat_scans.values())
    witness = bauer_search(fermat_arrs[4], 16)
    if witness:
        scans.append(scan_arrangement(fermat_arrs[4].subset(witness[0])))
    for scan in scans:
        tally, mults = scan.tally(), [sp.multiplicity for sp in scan.points]
        ok &= sum(mults) == sum(k * c for k, c in tally.items())
        ok &= len(mults) == sum(tally.values())
        ok &= sum(k * (k - 1) // 2 for k in mults) == scan.meeting_pairs

    assert report(
        9, ok, f"{cases} field-axiom cases, all Plucker relations, "
        f"{produced} two-form identities, identities on {len(scans)} arrangements"
    )


def test_criterion_10_determinism(tmp_path):
    base = [
        sys.executable, "-m", "linesurf",
        "sweep", "--surface", "fermat", "--degrees", "3:12", "--format", "csv",
    ]
    # The child imports linesurf from this checkout, as the suite itself does.
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    outputs = []
    for i in range(3):
        target = tmp_path / f"sweep_{i}.csv"
        proc = subprocess.run(
            base + ["--output", str(target)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(target.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2] and len(outputs[0]) > 0
    assert report(10, ok, "sweep CSV byte-identical across three runs")
