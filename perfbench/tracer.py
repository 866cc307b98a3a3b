"""Layer tracing installed from outside linesurf.

``install`` replaces the public functions of each layer with wrappers.
A name bound by ``from .x import y`` lives on in the importing module,
so every module of the package that holds the original object gets the
wrapper, not only the defining one.  Special methods are class
attributes of their own (``CycloNum.__rmul__`` is not ``__mul__`` once
wrapped), so each is wrapped separately and they share one counter.

Hot leaves are aggregated per layer name as calls, inclusive time and
self time.  Layer boundaries also record spans (id, name, start, end,
parent id), kept in memory and written out by ``Tracer.dump``.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time

# (layer name, module, attribute) for module-level functions.
FUNCTIONS = (
    ("projgeom.pairing", "linesurf.projgeom", "plucker_pairing"),
    ("projgeom.intersection", "linesurf.projgeom", "line_intersection"),
    ("projgeom.point_on_line", "linesurf.projgeom", "point_on_line"),
    ("incidence.scan", "linesurf.incidence", "scan_arrangement"),
    ("catalog.fermat_lines", "linesurf.catalog", "fermat_lines"),
    ("harbourne.miyaoka_check", "linesurf.harbourne", "miyaoka_check"),
    ("harbourne.harbourne_linear", "linesurf.harbourne", "harbourne_linear"),
    ("harbourne.extremal_search", "linesurf.harbourne", "extremal_profile_search"),
    ("harbourne.analyze_profile", "linesurf.harbourne", "analyze_profile"),
    ("serialize.load_lines", "linesurf.serialize", "load_custom_lines"),
    ("serialize.json_build", "linesurf.serialize", "report_json"),
    ("serialize.json_build", "linesurf.serialize", "profile_json"),
    ("serialize.json_build", "linesurf.serialize", "scan_json"),
    ("serialize.json_build", "linesurf.serialize", "arrangement_json"),
    ("serialize.json_build", "linesurf.serialize", "rational_json"),
    ("cli.main", "linesurf.cli", "main"),
)

# (layer name, module, class, attribute) for methods.
METHODS = (
    ("exactnum.mul", "linesurf.exactnum", "CycloNum", "__mul__"),
    ("exactnum.mul", "linesurf.exactnum", "CycloNum", "__rmul__"),
    ("exactnum.addsub", "linesurf.exactnum", "CycloNum", "__add__"),
    ("exactnum.addsub", "linesurf.exactnum", "CycloNum", "__radd__"),
    ("exactnum.addsub", "linesurf.exactnum", "CycloNum", "__sub__"),
    ("exactnum.addsub", "linesurf.exactnum", "CycloNum", "__rsub__"),
    ("exactnum.inverse", "linesurf.exactnum", "CycloNum", "inverse"),
    ("projgeom.point_build", "linesurf.projgeom", "ProjPoint", "__init__"),
    ("projgeom.line_build", "linesurf.projgeom", "ProjLine", "__init__"),
    ("catalog.profile_build", "linesurf.catalog", "IncidenceProfile", "__init__"),
)

# Layer boundaries that also record a span per call.
SPANS = {
    "cli.main",
    "serialize.load_lines",
    "incidence.scan",
    "harbourne.analyze_profile",
    "harbourne.extremal_search",
}

# Outcome counters: layer name -> function of the result giving the amount to add.
OUTCOMES = {
    "projgeom.intersection": lambda r: r is not None,
    "projgeom.point_on_line": lambda r: r is True,
    "harbourne.extremal_search": len,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, inclusive s, self s, outcomes]
        self.spans: list[tuple] = []  # (id, name, start, end, parent id)
        self._stack: list[list] = []  # per active call: [child time, span id or None]
        self._originals: list[tuple] = []

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0, 0])
        stack = self._stack
        spans = self.spans if name in SPANS else None
        outcome = OUTCOMES.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = parent = None
            if spans is not None:
                span_id = len(spans)
                spans.append(None)  # reserve the id; filled in on return
                parent = next((f[1] for f in reversed(stack) if f[1] is not None), None)
            frame = [0.0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                elapsed = end - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span_id is not None:
                    spans[span_id] = (span_id, name, start, end, parent)
            if outcome is not None:
                stats[3] += outcome(result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every layer function at every place linesurf binds it."""
        for _, module, *_ in FUNCTIONS + METHODS:
            importlib.import_module(module)
        modules = [m for k, m in sys.modules.items() if k == "linesurf" or k.startswith("linesurf.")]
        for name, module, attr in FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapper = self.wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._originals.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for name, module, cls_name, attr in METHODS:
            cls = getattr(sys.modules[module], cls_name)
            original = cls.__dict__[attr]
            self._originals.append((cls, attr, original))
            setattr(cls, attr, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._originals):
            setattr(owner, key, value)
        self._originals.clear()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer values as (value, unit); layers never called read 0."""

        def get(name):
            return self.stats.get(name, [0, 0.0, 0.0, 0])

        def ratio(num, den):
            return num / den if den else 0.0

        out: dict[str, tuple[float, str]] = {}
        for name in (
            "exactnum.inverse",
            "exactnum.mul",
            "exactnum.addsub",
            "projgeom.pairing",
            "projgeom.intersection",
            "projgeom.point_on_line",
            "projgeom.point_build",
            "projgeom.line_build",
            "incidence.scan",
            "catalog.profile_build",
            "harbourne.miyaoka_check",
            "harbourne.harbourne_linear",
            "cli.main",
        ):
            calls, _, self_s, _ = get(name)
            out[f"{name}.calls"] = (calls, "count")
            out[f"{name}.self_s"] = (self_s, "s")
        out["incidence.scan.s"] = (get("incidence.scan")[1], "s")
        out["catalog.fermat_lines.s"] = (get("catalog.fermat_lines")[1], "s")
        out["harbourne.extremal_search.self_s"] = (get("harbourne.extremal_search")[2], "s")
        out["harbourne.analyze_profile.s"] = (get("harbourne.analyze_profile")[1], "s")
        out["serialize.load_lines.s"] = (get("serialize.load_lines")[1], "s")
        out["serialize.load_lines.self_s"] = (get("serialize.load_lines")[2], "s")
        out["serialize.json_build.self_s"] = (get("serialize.json_build")[2], "s")
        inter, on_line = get("projgeom.intersection"), get("projgeom.point_on_line")
        out["projgeom.meet_ratio"] = (ratio(inter[3], inter[0]), "ratio")
        out["projgeom.on_line_ratio"] = (ratio(on_line[3], on_line[0]), "ratio")
        out["harbourne.kept_ratio"] = (
            ratio(get("harbourne.extremal_search")[3], get("harbourne.miyaoka_check")[0]),
            "ratio",
        )
        return out

    def counts(self) -> dict[str, list[int]]:
        """The deterministic part of the trace: calls and outcomes per layer."""
        return {name: [s[0], s[3]] for name, s in sorted(self.stats.items())}

    def dump(self, path, extra: dict) -> None:
        payload = {
            **extra,
            "stats": {
                name: {"calls": s[0], "inclusive_s": s[1], "self_s": s[2], "outcomes": s[3]}
                for name, s in sorted(self.stats.items())
            },
            "spans": [
                {"id": i, "name": n, "start": a, "end": b, "parent": p}
                for i, n, a, b, p in self.spans
            ],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload, indent=1), encoding="utf-8")
