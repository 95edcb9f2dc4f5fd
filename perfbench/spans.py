"""Outside-in tracing of the program's layers.

``Tracer.install`` wraps the public functions of each layer module, plus the
membership and face-lattice methods of ``LabelledPolyhedron``, from outside
the program: nothing in ``src/`` changes.  Several modules import functions
by value (``from ._feasible import feasible_point``), so every ``lpoly``
module name bound to a wrapped function is rebound, not only the defining
module's.

Each wrapped call records a span [name, start, end, parent index] in memory;
the spans of the last pass are written out at the end of a run.  A span's
self time is its duration minus the durations of its direct child spans; a
layer's self time is the sum over its spans.  Counters are recorded at the
same boundaries, so ratios such as feasible results per feasibility call are
measured where the work happens.

Helpers called once per vector or per Weyl element (``linalg.dot``,
``rootsys.act``, ...) are left unwrapped: a span each would multiply the
tracing cost and the span count, and their time counts in the caller's layer.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "_feasible", "_kernels", "linalg", "polyhedra", "counting",
    "desing", "subdivisions", "rootsys", "characters",
)
UNWRAPPED = {
    "linalg": {"dot", "vadd", "vsub", "vscale", "vec_gcd", "primitive", "is_primitive"},
    "rootsys": {"act", "coroot_pairing"},
}
# LabelledPolyhedron methods that get spans, by span name
METHODS = {"contains": "polyhedra.contains", "_compute_faces": "polyhedra.face_lattice"}


def _count_feasible(c, args, result):
    c["feasible.rows"] += len(args[0])
    c["feasible.feasible"] += result is not None


def _count_scan(c, args, result):
    lo, hi = args[0], args[1]
    c["kernels.box_points"] += math.prod(max(0, int(b) - int(a) + 1) for a, b in zip(lo, hi))
    c["kernels.hits"] += len(result) if hasattr(result, "__len__") else int(result)


def _count_faces(c, args, result):
    c["polyhedra.faces"] += len(result)


def _count_terms(c, args, result):
    c["characters.terms"] += len(result)


COUNTERS = {
    "_feasible.feasible_point": _count_feasible,
    "_kernels.scan_box": _count_scan,
    "_kernels.count_box": _count_scan,
    "polyhedra.face_lattice": _count_faces,
    "characters.multiply": _count_terms,
}


class Tracer:
    """Spans and counters of the wrapped layers, recorded while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self._stack = []  # [span index, time spent in direct children]
        self._restore = []  # (namespace, attribute, original value)
        self._weyl = None
        self.reset()

    def reset(self):
        """Forget the spans and counters recorded so far."""
        self.spans = []
        self.calls = Counter()
        self.counts = Counter()
        self.self_time = defaultdict(float)
        self._misses0 = self._weyl_misses()

    def _weyl_misses(self) -> int:
        return self._weyl.cache_info().misses if self._weyl is not None else 0

    # -- wrapping --------------------------------------------------------

    def _wrap(self, name, fn):
        count = COUNTERS.get(name)
        stack = self._stack

        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1][0] if stack else -1]
            frame = [len(self.spans), 0.0]
            self.spans.append(rec)
            stack.append(frame)
            rec[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter()
                stack.pop()
                dur = rec[2] - rec[1]
                self.self_time[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            self.calls[name] += 1
            if count is not None:
                count(self.counts, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def _count_calls(self, name, fn):
        def wrapper(*args, **kwargs):
            if self.enabled:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return functools.wraps(fn)(wrapper)

    def _set(self, ns, attr, value):
        self._restore.append((ns, attr, getattr(ns, attr)))
        setattr(ns, attr, value)

    def install(self) -> list[tuple[str, str]]:
        """Wrap every layer; returns the (module, name) pairs rebound."""
        mods = {m: importlib.import_module(f"lpoly.{m}") for m in LAYERS}
        wrapped = {}
        for short, mod in mods.items():
            skip = UNWRAPPED.get(short, set())
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                    and attr not in skip
                ):
                    wrapped[id(obj)] = (obj, self._wrap(f"{short}.{attr}", obj))
        rebound = []
        for modname, mod in list(sys.modules.items()):
            if modname != "lpoly" and not modname.startswith("lpoly."):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
                    rebound.append((modname, attr))
        cls = mods["polyhedra"].LabelledPolyhedron
        for attr, name in METHODS.items():
            self._set(cls, attr, self._wrap(name, getattr(cls, attr)))
        self._set(cls, "face_lattice", self._count_calls("polyhedra.face_lattice_calls",
                                                         cls.face_lattice))
        self._weyl = getattr(mods["characters"], "_weyl_character_cached", None)
        self.reset()
        return rebound

    def uninstall(self):
        for ns, attr, original in reversed(self._restore):
            setattr(ns, attr, original)
        self._restore = []

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-layer metrics, {name: (value, unit)}, since the last reset."""

        def layer(prefix, table):
            return sum(v for k, v in table.items() if k.split(".")[0] == prefix)

        c, calls, st = self.counts, self.calls, self.self_time
        builds = calls["polyhedra.face_lattice"]
        return {
            "feasible.calls": (calls["_feasible.feasible_point"], "count"),
            "feasible.rows": (c["feasible.rows"], "count"),
            "feasible.feasible": (c["feasible.feasible"], "count"),
            "feasible.self_s": (layer("_feasible", st), "s"),
            "polyhedra.contains_calls": (calls["polyhedra.contains"], "count"),
            "polyhedra.contains_self_s": (st["polyhedra.contains"], "s"),
            "polyhedra.face_builds": (builds, "count"),
            "polyhedra.face_reuses": (calls["polyhedra.face_lattice_calls"] - builds, "count"),
            "polyhedra.faces": (c["polyhedra.faces"], "count"),
            "polyhedra.face_self_s": (st["polyhedra.face_lattice"], "s"),
            "polyhedra.dilates": (calls["polyhedra.dilate"], "count"),
            "linalg.calls": (layer("linalg", calls), "count"),
            "linalg.self_s": (layer("linalg", st), "s"),
            "kernels.calls": (layer("_kernels", calls), "count"),
            "kernels.box_points": (c["kernels.box_points"], "count"),
            "kernels.hits": (c["kernels.hits"], "count"),
            "kernels.self_s": (layer("_kernels", st), "s"),
            "counting.self_s": (layer("counting", st), "s"),
            "desing.self_s": (layer("desing", st), "s"),
            "subdivisions.self_s": (layer("subdivisions", st), "s"),
            "rootsys.induce_calls": (calls["rootsys.induce"], "count"),
            "rootsys.self_s": (layer("rootsys", st), "s"),
            "characters.self_s": (layer("characters", st), "s"),
            "characters.terms": (c["characters.terms"], "count"),
            "characters.weyl_misses": (self._weyl_misses() - self._misses0, "count"),
        }
