"""Golden CLI output: exit code, stdout and stderr byte for byte.

Each case runs ``linesurf.cli.main`` in-process and compares against
fixtures in ``tests/golden/``: ``<case>.stdout`` holds the raw stdout and
``index.json`` the argv, exit code and stderr of every case.  To
recapture after an intended output change, run from the repo root::

    PYTHONPATH=src python tests/test_cli_golden.py
"""

import contextlib
import io
import json
import pathlib
import sys

import pytest

from linesurf.cli import main

GOLDEN = pathlib.Path(__file__).with_name("golden")

INVOCATIONS = {
    "catalog-fermat3": ["catalog", "--surface", "fermat", "--degree", "3"],
    "catalog-singular-fermat3": [
        "catalog", "--surface", "fermat", "--degree", "3", "--singular",
    ],
    "profile-schur": ["profile", "--surface", "schur"],
    "analyze-schur": ["analyze", "--surface", "schur"],
    "verify-schur": ["verify", "--surface", "schur"],
    "bound-schur": ["bound", "--surface", "schur"],
    "analyze-from-lines-fermat3": [
        "analyze", "--surface", "fermat", "--degree", "3", "--from-lines",
    ],
    "verify-valency-fermat3": [
        "verify", "--surface", "fermat", "--degree", "3", "--valency", "10",
    ],
    "sweep-cubic": ["sweep", "--surface", "cubic", "--eckardt-range", "0:18"],
    "search-bauer-fermat4": [
        "search-bauer", "--surface", "fermat", "--degree", "4", "--size", "16",
    ],
    "search-extremal-4-6-3": [
        "search-extremal", "--degree", "4", "--num-lines", "6", "--k-max", "3",
    ],
}

CASES = {
    f"{name}.{fmt}": argv + ["--format", fmt]
    for name, argv in INVOCATIONS.items()
    for fmt in ("table", "csv", "json")
}


def run_case(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


def load_index():
    return json.loads((GOLDEN / "index.json").read_text(encoding="utf-8"))


def test_index_covers_every_case():
    assert sorted(load_index()) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden(case):
    expected = load_index()[case]
    assert expected["argv"] == CASES[case]
    code, out, err = run_case(CASES[case])
    assert code == expected["exit"]
    assert err.encode("utf-8") == expected["stderr"].encode("utf-8")
    assert out.encode("utf-8") == (GOLDEN / f"{case}.stdout").read_bytes()


def capture():
    GOLDEN.mkdir(exist_ok=True)
    index = {}
    for case, argv in sorted(CASES.items()):
        code, out, err = run_case(argv)
        (GOLDEN / f"{case}.stdout").write_bytes(out.encode("utf-8"))
        index[case] = {"argv": argv, "exit": code, "stderr": err}
    (GOLDEN / "index.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


if __name__ == "__main__":
    capture()
    sys.exit(0)
