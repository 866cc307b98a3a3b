"""Benchmark of linesurf: exact scans, the CLI on moved lines, the extremal search.

Run from the root of a checkout:

    python3 perfbench/run.py --workload fermat-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

A run sets up the workload, then makes whole rounds of its jobs for as
long as another round fits in --seconds (at least one), checking every
output against values computed without linesurf.  The last line of
stdout is one JSON object with keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics
from a separate traced round with --trace 1.  The exit code is 0 only
when every check passed.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 9  # set-ups timed per run: this process plus SETUP_SAMPLES - 1 fresh ones

sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


_A = tuple(Fraction(i + 1, i + 3) for i in range(4))
_B = tuple(Fraction(2 * i - 3, 7) for i in range(4))


def reference_chunk() -> float:
    """Seconds for a fixed ~1 ms mix of small-int and Fraction arithmetic.

    Also timed between jobs and printed as the host reference, so that a
    run made while the host was slow can be told apart; it is not a metric.
    """
    start = time.perf_counter()
    acc = 0
    for i in range(5_000):
        acc += i * i % 7
    for _ in range(6):
        out = [0, 0, 0, 0]
        for i, x in enumerate(_A):
            for j, y in enumerate(_B):
                if i + j < 4:
                    out[i + j] += x * y
                else:
                    out[i + j - 4] -= x * y
    return time.perf_counter() - start


class HostSpeed:
    """Time a block of work in seconds at a fixed reference host speed.

    The host runs at changing speeds, so raw seconds of the same work
    spread by more than the benchmark's bounds from one run to the next.
    While the block runs, a timer signal samples ``reference_chunk`` on
    this same thread every INTERVAL seconds; the samples' own time is
    taken off, and the rest is scaled by REFERENCE_S over the mean sample,
    i.e. reported as if each chunk took exactly REFERENCE_S.  BRACKET
    chunks are also timed just before and just after the block, so that a
    short block such as a set-up has enough samples.
    """

    INTERVAL = 0.02
    REFERENCE_S = 0.001
    BRACKET = 5

    def __enter__(self):
        self.samples = [reference_chunk() for _ in range(self.BRACKET)]
        self.spent = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        self.raw = time.perf_counter() - self.start - self.spent
        signal.signal(signal.SIGALRM, self._previous)
        self.samples += [reference_chunk() for _ in range(self.BRACKET)]
        self.seconds = self.raw * self.REFERENCE_S / statistics.fmean(self.samples)
        return False

    def _sample(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(reference_chunk())
        self.spent += time.perf_counter() - start


class Stopwatch:
    """Raw seconds of a block of work, for the traced run, whose layer times are raw too."""

    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw = self.seconds = time.perf_counter() - self.start
        return False


def timed_setup(workload) -> tuple[float, float]:
    """Import linesurf and do the workload's own set-up: (seconds at reference speed, raw seconds)."""
    with HostSpeed() as clock:
        import_linesurf()
        workload.setup()
    return clock.seconds, clock.raw


def import_linesurf():
    sys.path.insert(0, str(SRC))
    import linesurf

    if Path(linesurf.__file__).resolve().parent != SRC / "linesurf":
        raise ImportError(f"linesurf imported from {linesurf.__file__}, not from {SRC}")
    return linesurf


def probe_setup(name: str) -> tuple[float, float]:
    """One set-up in a fresh interpreter, timed inside it."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name, "--setup-probe"],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    seconds, raw = proc.stdout.split()
    return float(seconds), float(raw)


def run_round(workload, seed, round_index, scratch, log, timer=HostSpeed):
    """Run one round; return (job seconds at reference speed, raw job seconds, attempted, failed, host references)."""
    workload.prepare(seed, round_index, scratch)
    times, raws, attempted, failed, refs = [], [], 0, 0, []
    for job in workload.jobs(seed, round_index, scratch):
        refs.append(reference_chunk())
        out = None
        try:
            with timer() as clock:
                out = job.run()
            errors = job.check(out)
        except Exception:  # a job or check that raises counts as failed, and the run goes on
            errors = [f"raised:\n{traceback.format_exc()}"]
        del out
        attempted += 1
        times.append(clock.seconds)
        raws.append(clock.raw)
        if errors:
            failed += 1
            for error in errors:
                print(f"CHECK FAILED {job.label}: {error}", file=log)
    return times, raws, attempted, failed, refs


def measure(workload, seed, seconds, scratch, log):
    """End-to-end metrics: set-up, then whole rounds while another one fits."""
    setups = [probe_setup(workload.name) for _ in range(SETUP_SAMPLES - 1)]
    setups.append(timed_setup(workload))
    rounds, raw_rounds, jobs, refs = [], [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        times, raws, a, f, r = run_round(workload, seed, len(rounds), scratch, log)
        rounds.append(sum(times))
        raw_rounds.append(sum(raws))
        jobs += times
        refs += r
        attempted += a
        failed += f
        if time.perf_counter() - start + statistics.median(raw_rounds) > seconds:
            break
    refs.append(reference_chunk())
    metrics = {
        "wall_s": (statistics.median(rounds), "s"),
        "job_p50_s": (statistics.median(jobs), "s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {
        "rounds": len(rounds),
        "jobs": len(jobs),
        "job_s": jobs,
        "raw_round_s": raw_rounds,
        "setup_s": [s for s, _ in setups],
        "raw_setup_s": [raw for _, raw in setups],
        "host_reference_s": refs,
    }
    return attempted, failed, metrics, notes


def measure_traced(workload, seed, scratch, log):
    """Per-layer metrics: one untraced round, then the same round traced."""
    from tracer import Tracer

    timed_setup(workload)
    plain, _, attempted, failed, refs = run_round(workload, seed, 0, scratch, log, Stopwatch)
    tracer = Tracer()
    tracer.install()
    try:
        workload.setup()
        traced, _, a, f, r = run_round(workload, seed, 0, scratch, log, Stopwatch)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics()
    metrics["trace.overhead"] = (sum(traced) / sum(plain), "ratio")
    notes = {"untraced_round_s": sum(plain), "traced_round_s": sum(traced), "host_reference_s": refs + r}
    path = OUT / f"trace-{workload.name}-seed{seed}.json"
    tracer.dump(path, {"workload": workload.name, "seed": seed, **notes})
    notes["trace_file"] = str(path.relative_to(ROOT))
    notes["counts"] = tracer.counts()
    return attempted + a, failed + f, metrics, notes


def run_all(args) -> int:
    """Run every workload in its own process and summarise."""
    worst = 0
    summary = []
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True,
            text=True,
            timeout=900,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        worst = max(worst, proc.returncode)
        try:
            result = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"attempted": 0, "failed": "-"}
        summary.append((name, result["attempted"], result["failed"], proc.returncode))
    print("\nworkload          attempted  failed  exit")
    for name, attempted, failed, code in summary:
        print(f"{name:<17} {attempted:>9}  {failed:>6}  {code:>4}")
    return worst


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "linesurf" / "__init__.py").is_file():
        print(f"perfbench: no linesurf sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    workload = WORKLOADS[args.workload]()
    if args.setup_probe:
        print(*timed_setup(workload))
        return 0

    scratch = OUT / f"tmp-{args.workload}-{time.time_ns()}"
    scratch.mkdir(parents=True)
    try:
        if args.trace:
            attempted, failed, metrics, notes = measure_traced(workload, args.seed, scratch, sys.stderr)
        else:
            attempted, failed, metrics, notes = measure(workload, args.seed, args.seconds, scratch, sys.stderr)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    print(f"workload {workload.name}, seed {args.seed}, trace {args.trace}")
    print(f"operations attempted {attempted}, failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {unit}")
    refs = notes.pop("host_reference_s")
    print(f"host reference chunk: median {statistics.median(refs) * 1000:.4f} ms over {len(refs)} samples between jobs (not a metric)")
    print("notes: " + json.dumps(notes))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
