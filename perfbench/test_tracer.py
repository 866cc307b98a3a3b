"""The traced run wraps every call site, and its counts repeat exactly.

    python3 -m pytest -q perfbench/test_tracer.py
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import linesurf  # noqa: E402
from linesurf import cli, exactnum, harbourne, incidence, projgeom  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = set(Tracer().metrics()) | {"trace.overhead"}
    assert names == {m["name"] for m in spec["per_layer"]}


def test_install_wraps_imported_copies_and_uninstall_restores():
    originals = (incidence.line_intersection, harbourne.scan_arrangement, cli.load_custom_lines)
    methods = (exactnum.CycloNum.__dict__["__rmul__"], projgeom.ProjPoint.__dict__["__init__"])
    tracer = Tracer()
    tracer.install()
    try:
        assert incidence.line_intersection is not originals[0]
        assert harbourne.scan_arrangement is incidence.scan_arrangement is linesurf.scan_arrangement
        assert cli.load_custom_lines is not originals[2]
        z = exactnum.zeta(8)
        _ = 2 * z  # __rmul__
        _ = z * z  # __mul__
        assert tracer.stats["exactnum.mul"][0] == 2
    finally:
        tracer.uninstall()
    assert (incidence.line_intersection, harbourne.scan_arrangement, cli.load_custom_lines) == originals
    assert (exactnum.CycloNum.__dict__["__rmul__"], projgeom.ProjPoint.__dict__["__init__"]) == methods


def _traced_counts():
    tracer = Tracer()
    tracer.install()
    try:
        arr = linesurf.fermat_lines(3)
        linesurf.analyze_profile(linesurf.profile_from_arrangement(arr))
    finally:
        tracer.uninstall()
    return tracer.counts(), tracer.spans


def test_two_traced_runs_give_identical_counts():
    (first, spans), (second, _) = _traced_counts(), _traced_counts()
    assert first == second
    assert first["incidence.scan"] == [1, 0]
    assert first["projgeom.intersection"][0] == 27 * 26 // 2
    assert [name for _, name, *_ in spans] == ["incidence.scan", "harbourne.analyze_profile"]
