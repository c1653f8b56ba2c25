"""Span recorder that wraps the public functions of every defectflow module.

Each wrapped call records one span (name, parent, start, end) in flat arrays,
so a traced run of a million calls stays at about 32 bytes per span.  A
fifth array holds each span's tracer overhead: the wrapper's bookkeeping
and counting hook, which run inside the parent span but outside the span
itself.  Self times leave it out of the parent's layer and charge it to
`trace.self_s`, so a layer's self time is library code only.  The
wrappers replace the function in every module namespace that holds it,
including the importing modules and the package itself, so calls made
through `from .orbit import run_orbit` are seen as well.

A few wrappers also carry counting hooks that read the returned objects
(orbit steps, trajectory segments, candidate family size).  Hooks run with
recording paused, so the library calls they make leave no spans.
"""

from __future__ import annotations

import functools
import inspect
import json
import statistics
from array import array
from collections import Counter
from time import perf_counter

LAYERS = ("rationals", "lattice", "orbit", "closedform", "evolution", "flow",
          "validation", "cli")
# Suffixes of the per-layer metrics that count work: two traced runs of the
# same seed must report them identically.
COUNTED = ("calls", "steps", "candidates", "segments", "velocity_lookups",
           "family_too_small", "per_side_steps", "repeat_frac")
# Buckets whose self times together account for the traced wall time: the
# layers, the bench's own job loop, and the tracer's overhead.
SELF_BUCKETS = LAYERS + ("bench", "trace")


def pair_count(max_offset: int, cells: int) -> int:
    """Number of (a, b) in [0, max_offset]^2 with a + b <= cells - 1.

    This is CandidateFamily.candidates' admissibility rule for one axis:
    moving the two opposite sides inward by a and b must leave a row.
    """
    total = 0
    for a in range(min(max_offset, cells - 1) + 1):
        total += min(max_offset, cells - 1 - a) + 1
    return total


def family_size(family) -> int:
    """Candidates CandidateFamily.candidates() would yield, without building them."""
    base = family.base
    return (pair_count(family.max_offset, base.width)
            * pair_count(family.max_offset, base.height))


class Tracer:
    """In-memory span store plus the counters measured at layer boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.overhead = array("d")
        self.current = -1
        self.active = False
        self.counts: Counter = Counter()
        self._orbit_keys: set = set()
        self._patched: list = []
        self._df = None

    # -- recording -----------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start)
        self.name.append(nid)
        self.parent.append(self.current)
        self.start.append(perf_counter())
        self.end.append(0.0)
        self.overhead.append(0.0)
        self.current = idx
        return idx

    def close(self, idx: int):
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def _wrap(self, name: str, fn, hook):
        nid = self.name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t_in = perf_counter()
            idx = len(self.start)
            parent = self.current
            self.name.append(nid)
            self.parent.append(parent)
            self.start.append(0.0)
            self.end.append(0.0)
            self.overhead.append(0.0)
            self.current = idx
            result = exc = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as raised:
                exc = raised
                raise
            finally:
                t1 = perf_counter()
                self.end[idx] = t1
                self.start[idx] = t0
                self.current = parent
                if hook is not None:
                    self._run_hook(hook, args, kwargs, result, exc)
                self.overhead[idx] = t0 - t_in + perf_counter() - t1

        return traced

    def _run_hook(self, hook, args, kwargs, result, exc):
        self.active = False
        try:
            hook(args, kwargs, result, exc)
        finally:
            self.active = True

    # -- counting hooks --------------------------------------------------

    def _on_run_orbit(self, args, kwargs, trace, exc):
        if trace is None:
            return
        key = (args[0], trace.y, trace.x0)
        if key in self._orbit_keys:
            self.counts["orbit.run_orbit.repeats"] += 1
        else:
            self._orbit_keys.add(key)
        self.counts["orbit.steps"] += len(trace.steps)

    def _on_integrate(self, args, kwargs, traj, exc):
        if traj is not None:
            self.counts["evolution.segments"] += len(traj.segments)

    def _on_brute_force_step(self, args, kwargs, winner, exc):
        config, current = args[0], args[1]
        family = args[2] if len(args) > 2 else kwargs.get("family")
        if family is None:
            family = self._df.flow.default_family(config, current)
        self.counts["flow.candidates"] += family_size(family)
        if exc is not None and type(exc).__name__ == "FamilyTooSmallError":
            self.counts["flow.family_too_small"] += 1

    def _on_per_side_step(self, args, kwargs, rect, exc):
        if exc is None and rect is not None:  # run_flow records no extinct step
            self.counts["flow.per_side_steps"] += 1

    def _on_run_flow(self, args, kwargs, result, exc):
        if result is not None and args[0].mode == "per_side":
            self.counts["flow.per_side_steps"] += len(result.records)

    # -- installation ----------------------------------------------------

    def install(self, df):
        """Wrap the public functions of every layer module in `df`.

        `df` is a namespace with the package and one attribute per layer
        module, all freshly imported.
        """
        self._df = df
        hooks = {
            "orbit.run_orbit": self._on_run_orbit,
            "evolution.integrate": self._on_integrate,
            "flow.brute_force_step": self._on_brute_force_step,
            "flow.per_side_step": self._on_per_side_step,
            "flow.run_flow": self._on_run_flow,
        }
        wrappers = {}
        for layer in LAYERS:
            module = getattr(df, layer)
            for attr, obj in vars(module).items():
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != module.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))
        namespaces = [df.package] + [getattr(df, layer) for layer in LAYERS]
        for module in namespaces:
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._patched.append((module, attr, obj))

    def uninstall(self):
        for module, attr, obj in reversed(self._patched):
            setattr(module, attr, obj)
        self._patched.clear()

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the durations of direct children.

        A child's tracer overhead lies inside the parent, so it is taken out
        of the parent's self time as well.
        """
        n = len(self.start)
        start, end, parent, overhead = self.start, self.end, self.parent, self.overhead
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i] + overhead[i]
        return array("d", (end[i] - start[i] - child[i] for i in range(n)))

    def summary(self) -> dict:
        """Span counts, self times and derived ratios, keyed by metric name."""
        selfs = self.self_times()
        layer_of = [n.split(".", 1)[0] for n in self.names]
        layer_self = Counter()
        layer_calls = Counter()
        name_calls = Counter()
        for i, nid in enumerate(self.name):
            layer_self[layer_of[nid]] += selfs[i]
            layer_calls[layer_of[nid]] += 1
            name_calls[self.names[nid]] += 1

        brute_id = self._name_ids.get("flow.brute_force_step", -2)
        diss_id = self._name_ids.get("lattice.rect_dissipation", -2)
        brute_ms = []
        brute_total = diss_in_brute = 0.0
        for i, nid in enumerate(self.name):
            if nid == brute_id:
                d = self.end[i] - self.start[i]
                brute_ms.append(1000.0 * d)
                brute_total += d
            elif nid == diss_id and self.parent[i] >= 0 \
                    and self.name[self.parent[i]] == brute_id:
                diss_in_brute += self.end[i] - self.start[i]

        runs = name_calls["orbit.run_orbit"]
        layer_self["trace"] = sum(self.overhead)
        out = {f"{bucket}.self_s": layer_self[bucket] for bucket in SELF_BUCKETS}
        out.update({f"{layer}.calls": layer_calls[layer] for layer in LAYERS})
        for name in ("orbit.run_orbit", "orbit.step_minimizer", "evolution.integrate",
                     "flow.brute_force_step", "lattice.rect_dissipation",
                     "lattice.rect_perimeter_energy"):
            out[f"{name}.calls"] = name_calls[name]
        out.update({
            "orbit.run_orbit.repeat_frac":
                self.counts["orbit.run_orbit.repeats"] / runs if runs else 0.0,
            "orbit.steps": self.counts["orbit.steps"],
            "evolution.segments": self.counts["evolution.segments"],
            "evolution.velocity_lookups": name_calls["evolution.velocity_of_length"],
            "flow.candidates": self.counts["flow.candidates"],
            "flow.family_too_small": self.counts["flow.family_too_small"],
            "flow.per_side_steps": self.counts["flow.per_side_steps"],
            "flow.brute_step_p50_ms": statistics.median(brute_ms) if brute_ms else 0.0,
            "flow.brute_dissipation_frac":
                diss_in_brute / brute_total if brute_total else 0.0,
            "spans": len(self.start),
        })
        return out

    def write(self, path, header: dict):
        """Write a JSON header line, then the name, parent, start, end and overhead arrays."""
        meta = dict(header, names=self.names, count=len(self.start),
                    fields=["name:int32", "parent:int32", "start:float64",
                            "end:float64", "overhead:float64"])
        with open(path, "wb") as fh:
            fh.write(json.dumps(meta).encode() + b"\n")
            for arr in (self.name, self.parent, self.start, self.end, self.overhead):
                arr.tofile(fh)
