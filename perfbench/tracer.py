"""Per-layer tracing of `sieveval`, installed from outside the package.

`Tracer.install()` wraps the public functions of each layer module in a
span and rebinds every name that refers to them in every `sieveval` module
namespace, because callers bind names with `from .x import f`.  Per-element
operations (scalar dunders, `compose`, sieve meet/join/<=, `Subspace.__eq__`)
only increment counters.  `Tracer.remove()` puts every original back.

A span records its name, start, end and parent.  Spans are kept in memory
and written out at the end; a module's self time is the time of its spans
minus the time of their child spans.  Counts and times cover set-up plus
the first (cold) pass; the cache figures named `warm_*` and `*_per_round`
cover the later passes.  Times are scaled by the cold pass's speed
correction, so they are in the same units as the end-to-end times.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import Counter

# Modules whose public functions get spans, bottom layer first.
SPAN_MODULES = ("linalg", "subspaces", "modal", "sites", "sieves", "bridge", "scenario", "runner", "checks")
SELF_TIME_MODULES = ("linalg", "subspaces", "modal", "sites", "sieves", "bridge")

# Module functions that are per-element operations: counted, not spanned.
COUNTED_FUNCTIONS = {
    ("sieves", "heyting_meet"): "sieves.meet_join_calls",
    ("sieves", "heyting_join"): "sieves.meet_join_calls",
}

# Per-element methods: (module, class, method) -> counter.
COUNTED_METHODS = {
    ("rationals", "GaussianRational", "__mul__"): "rationals.mul_calls",
    ("rationals", "GaussianRational", "__add__"): "rationals.add_calls",
    ("rationals", "GaussianRational", "__sub__"): "rationals.add_calls",
    ("rationals", "GaussianRational", "__eq__"): "rationals.eq_calls",
    ("subspaces", "Subspace", "__eq__"): "subspaces.eq_calls",
    ("sites", "PlainSite", "compose"): "sites.compose_calls",
    ("sites", "ExtendedSite", "compose"): "sites.compose_calls",
    ("sieves", "Sieve", "__le__"): "sieves.le_calls",
    ("sieves", "Sieve", "__lt__"): "sieves.le_calls",
}

# Methods that cross a layer boundary get a span of their own.
SPANNED_METHODS = {("sieves", "Presheaf", "validate"): "sieves.presheaf_validate"}

# Inclusive times, each counted once for the outermost of its spans.
TIMED_GROUPS = {
    "linalg.rref_s": ("linalg.rref",),
    "linalg.mat_mul_s": ("linalg.mat_mul",),
    "modal.in_commutant_s": ("modal.in_commutant",),
    "sites.build_s": (
        "sites.close_monoid",
        "sites.submonoid_commuting_with",
        "sites.build_plain_site",
        "sites.build_extended_site",
        "sites.restrict_down",
        "sites.restrict_down_extended",
        "sites.restrict_to_rho",
    ),
    "bridge.heyting_iso_s": ("bridge.heyting_iso_check",),
    "scenario.load_s": ("scenario.load_scenario",),
    "runner.build_s": ("runner.build_scenario",),
    "checks.run_check_s": ("checks.run_check",),
    "checks.lattice_laws_s": ("checks._lattice_law_rows",),
    "checks.heyting_audit_s": ("checks._heyting_audit_rows",),
    "checks.bridge_rows_s": ("checks._bridge_rows",),
    "checks.extended_site_rows_s": ("checks._extended_site_rows",),
    "checks.observable_order_s": ("checks._observable_order_rows",),
}
NAMED_ROW_FAMILIES = (
    "checks.lattice_laws_s",
    "checks.heyting_audit_s",
    "checks.bridge_rows_s",
    "checks.extended_site_rows_s",
    "checks.observable_order_s",
)

CALL_METRICS = {
    "linalg.rref_calls": "linalg.rref",
    "linalg.kernel_basis_calls": "linalg.kernel_basis",
    "linalg.mat_mul_calls": "linalg.mat_mul",
    "subspaces.join_calls": "subspaces.join",
    "subspaces.meet_calls": "subspaces.meet",
    "subspaces.leq_calls": "subspaces.leq",
    "subspaces.ortho_calls": "subspaces.ortho",
    "subspaces.apply_operator_calls": "subspaces.apply_operator",
    "modal.in_commutant_calls": "modal.in_commutant",
    "sieves.enumerate_calls": "sieves.enumerate_sieves",
    "sieves.implies_calls": "sieves.heyting_implies",
    "sieves.presheaf_validations": "sieves.presheaf_validate",
    "bridge.sharp_calls": "bridge.sharp",
    "bridge.flat_calls": "bridge.flat",
    "bridge.natural_map_calls": "bridge.natural_map_at",
}

COUNT_METRICS = (
    "rationals.mul_calls",
    "rationals.add_calls",
    "rationals.eq_calls",
    "subspaces.eq_calls",
    "sites.compose_calls",
    "sites.objects",
    "sites.arrows",
    "sieves.meet_join_calls",
    "sieves.le_calls",
    "sieves.sieves_enumerated",
    "checks.rows",
)


def _is_row_function(name: str) -> bool:
    return name.startswith("_") and name.endswith(("_rows", "_row")) and name != "_row"


class Tracer:
    """Spans and counters for one process; install, run passes, remove."""

    def __init__(self, package):
        prefix = package.__name__ + "."
        # Every module of the package: each may hold names bound by `from .x import f`.
        self.namespaces = [
            module
            for name, module in sorted(sys.modules.items())
            if name == package.__name__ or name.startswith(prefix)
        ]
        self.modules = {m.__name__.removeprefix(prefix): m for m in self.namespaces}
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.name_ids = array("i")
        self.parents = array("q")
        self.stack: list[list] = []  # frames: [span index, child time]
        self.calls = Counter()
        self.module_self = Counter()
        self.group_time = Counter()
        self.group_depth = Counter()
        self.counts = Counter()
        self.commutant_pairs: set = set()
        self.caches: dict[str, list] = {"subspaces": [], "sieves": []}
        self._restore: list[tuple[object, str, object]] = []
        self._pass_name = None
        self._cold: dict | None = None
        self._cache_marks: list[tuple[int, int, int, int]] = []
        self._cold_seconds = 0.0
        self._scale = 1.0

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn):
        module = name.split(".", 1)[0]
        group = next((g for g, members in TIMED_GROUPS.items() if name in members), None)
        nid = self._name_id(name)
        stack, starts, ends, ids, parents = self.stack, self.starts, self.ends, self.name_ids, self.parents
        calls, module_self, group_time, group_depth = self.calls, self.module_self, self.group_time, self.group_depth
        clock = time.perf_counter

        def spanned(*args, **kwargs):
            parent = stack[-1] if stack else None
            index = len(starts)
            frame = [index, 0.0]
            starts.append(0.0)
            ends.append(0.0)
            ids.append(nid)
            parents.append(parent[0] if parent else -1)
            if group:
                group_depth[group] += 1
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                starts[index] = start
                ends[index] = end
                duration = end - start
                calls[name] += 1
                module_self[module] += duration - frame[1]
                if parent:
                    parent[1] += duration
                if group:
                    group_depth[group] -= 1
                    if not group_depth[group]:
                        group_time[group] += duration

        return spanned

    def _name_id(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _counted(self, counter: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[counter] += 1
            return fn(*args, **kwargs)

        return counted

    def _inner_hooks(self, name: str, fn):
        """Extra bookkeeping for a few functions, applied inside their span."""
        if name == "modal.in_commutant":
            pairs = self.commutant_pairs

            def in_commutant(f, observable):
                pairs.add((f, observable))
                return fn(f, observable)

            return in_commutant
        if name == "sieves.enumerate_sieves":
            counts = self.counts

            def enumerate_sieves(site, obj, cap):
                misses = fn.cache_info().misses
                result = fn(site, obj, cap)
                if fn.cache_info().misses != misses:
                    counts["sieves.sieves_enumerated"] += len(result)
                return result

            return enumerate_sieves
        if name == "runner.build_scenario":
            counts = self.counts

            def build_scenario(scenario):
                built = fn(scenario)
                sites = {}
                for run in built.runs:
                    for site in (run.plain, run.extended_full, run.rest):
                        if site is not None:
                            sites[id(site)] = site
                for site in sites.values():
                    counts["sites.objects"] += site.n_objects
                    counts["sites.arrows"] += len(site.arrows)
                return built

            return build_scenario
        if name == "checks.run_check":
            counts = self.counts

            def run_check(scenario):
                report = fn(scenario)
                counts["checks.rows"] += len(report["rows"])
                return report

            return run_check
        return fn

    # -- install / remove -----------------------------------------------

    def _replacements(self) -> dict[int, tuple[object, object]]:
        """id(original) -> (original, wrapper) for every wrapped function."""
        out = {}
        for short in SPAN_MODULES:
            module = self.modules[short]
            for attr, obj in list(vars(module).items()):
                if isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                public = not attr.startswith("_")
                if not public and not (short == "checks" and _is_row_function(attr)):
                    continue
                if (short, attr) in COUNTED_FUNCTIONS:
                    wrapper = self._counted(COUNTED_FUNCTIONS[(short, attr)], obj)
                else:
                    name = f"{short}.{attr}"
                    wrapper = self._span(name, self._inner_hooks(name, obj))
                if hasattr(obj, "cache_info") and short in self.caches:
                    self.caches[short].append(obj)
                out[id(obj)] = (obj, wrapper)
        return out

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        replacements = self._replacements()
        for namespace in self.namespaces:
            for attr, obj in list(vars(namespace).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((namespace, attr, obj))
                    setattr(namespace, attr, hit[1])
        for (short, cls_name, method), counter in COUNTED_METHODS.items():
            self._patch_method(short, cls_name, method, lambda fn, c=counter: self._counted(c, fn))
        for (short, cls_name, method), name in SPANNED_METHODS.items():
            self._patch_method(short, cls_name, method, lambda fn, n=name: self._span(n, fn))

    def _patch_method(self, short: str, cls_name: str, method: str, make) -> None:
        cls = getattr(self.modules[short], cls_name)
        original = cls.__dict__[method]
        self._restore.append((cls, method, original))
        setattr(cls, method, make(original))

    def remove(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    # -- passes ---------------------------------------------------------

    def _cache_sizes(self) -> tuple[int, int, int, int]:
        hits = sum(f.cache_info().hits for f in self.caches["subspaces"])
        misses = sum(f.cache_info().misses for f in self.caches["subspaces"])
        entries = sum(f.cache_info().currsize for f in self.caches["subspaces"])
        sieve_entries = sum(f.cache_info().currsize for f in self.caches["sieves"])
        return hits, misses, entries, sieve_entries

    def begin_pass(self) -> None:
        if not self._cache_marks:
            self._cache_marks.append((0, 0, 0, 0))
        if self._pass_name is None:
            self._pass_name = self._name_id("bench.pass")
        index = len(self.starts)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self.name_ids.append(self._pass_name)
        self.parents.append(-1)
        self.stack.append([index, 0.0])

    def end_pass(self, index: int, seconds: float, scale: float = 1.0) -> None:
        """`seconds` is the pass's time as reported; `scale` turns the wall
        time that spans record into the same units (see probe.py)."""
        frame = self.stack.pop()
        self.ends[frame[0]] = time.perf_counter()
        self._cache_marks.append(self._cache_sizes())
        if index == 0:
            self._cold_seconds = seconds
            self._scale = scale
            self._cold = {
                "calls": Counter(self.calls),
                "module_self": Counter(self.module_self),
                "group_time": Counter(self.group_time),
                "counts": Counter(self.counts),
                "commutant_pairs": len(self.commutant_pairs),
            }

    # -- results --------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer figures; values are plain numbers keyed by metric name."""
        if self._cold is None:
            raise RuntimeError("no pass was traced")
        cold = self._cold
        out: dict[str, float] = {}
        for metric, name in CALL_METRICS.items():
            out[metric] = cold["calls"][name]
        for metric in COUNT_METRICS:
            out[metric] = cold["counts"][metric]
        for metric in TIMED_GROUPS:
            out[metric] = cold["group_time"][metric] * self._scale
        for short in SELF_TIME_MODULES:
            out[f"{short}.self_s"] = cold["module_self"][short] * self._scale
        out["modal.in_commutant_distinct"] = cold["commutant_pairs"]
        out["checks.other_rows_s"] = (
            out["checks.run_check_s"] - out["runner.build_s"] - sum(out[m] for m in NAMED_ROW_FAMILIES)
        )
        del out["checks.run_check_s"]

        cold_end, last = self._cache_marks[1], self._cache_marks[-1]
        lookups = cold_end[0] + cold_end[1]
        out["subspaces.cache_lookups"] = lookups
        out["subspaces.cache_hit_ratio"] = cold_end[0] / lookups if lookups else 0.0
        warm_hits, warm_lookups = last[0] - cold_end[0], (last[0] + last[1]) - (cold_end[0] + cold_end[1])
        out["subspaces.warm_cache_lookups"] = warm_lookups
        out["subspaces.warm_cache_hit_ratio"] = warm_hits / warm_lookups if warm_lookups else 0.0
        out["subspaces.cache_entries"] = last[2]
        warm_rounds = len(self._cache_marks) - 2
        out["sieves.cache_entries_per_round"] = (last[3] - cold_end[3]) / warm_rounds if warm_rounds else 0.0
        out["trace.check_s"] = self._cold_seconds
        out["trace.spans"] = len(self.starts)
        return out

    def write_spans(self, path: str) -> None:
        """Write every span as [name, start, end, parent] rows of one JSON file."""
        with open(path, "w", encoding="utf-8") as out:
            out.write('{"names": ')
            json.dump(self.names, out)
            out.write(', "fields": ["name", "start", "end", "parent"], "spans": [\n')
            for i in range(len(self.starts)):
                if i:
                    out.write(",\n")
                out.write(f"[{self.name_ids[i]}, {self.starts[i]!r}, {self.ends[i]!r}, {self.parents[i]}]")
            out.write("\n]}\n")
