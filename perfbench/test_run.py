"""The runner counts failed checks and refuses to run without the sources.

    python3 -m pytest -q perfbench/test_run.py
"""

import io
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from workloads import Job  # noqa: E402


class _FakeWorkload:
    def prepare(self, seed, round_index, scratch):
        pass

    def jobs(self, seed, round_index, scratch):
        yield Job("passes", lambda: 1, lambda out: [])
        yield Job("wrong", lambda: 2, lambda out: [f"got {out}"])
        yield Job("raises", lambda: 1 // 0, lambda out: [])
        yield Job("check raises", lambda: "x", lambda out: int(out))


def test_failed_checks_and_exceptions_count_as_failed(tmp_path):
    log = io.StringIO()
    times, raws, attempted, failed, refs = run.run_round(_FakeWorkload(), 1, 0, tmp_path, log, run.Stopwatch)
    assert (attempted, failed, len(times), len(refs)) == (4, 3, 4, 4)
    assert "CHECK FAILED wrong: got 2" in log.getvalue()
    assert "ZeroDivisionError" in log.getvalue()


def test_host_speed_scales_raw_time_by_the_reference():
    with run.HostSpeed() as clock:
        sum(range(200_000))
    assert clock.raw > 0
    assert len(clock.samples) >= 2 * run.HostSpeed.BRACKET
    expected = clock.raw * run.HostSpeed.REFERENCE_S * len(clock.samples) / sum(clock.samples)
    assert abs(clock.seconds - expected) <= 1e-9 * expected


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fermat-scan", "--seed", "1", "--seconds", "20", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
