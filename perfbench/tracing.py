"""Span tracing of froblab CLI runs, installed from outside the package.

Child side (`traced_main`): import froblab.cli, replace every module
binding of the boundary functions below with a timing wrapper, run the
CLI, and write the spans and counters to a JSON file at exit, also when
the run raises.  `cli` and the library bind names with `from .x import y`,
so each module that holds the function object is patched, not only the
defining one.  Only boundary functions are wrapped; hot inner calls such
as `Subspace.contains` or `graded_dim` are not, so the overhead stays
small (the benchmark reports it as `trace.overhead_ratio`).  A function
that a later version of froblab no longer has is skipped, and its metrics
read zero.

Parent side (`layer_metrics`): turn the trace files of one pass into the
per-layer metrics.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = (
    "cli",
    "simplicial",
    "local_cohomology",
    "stanley_reisner",
    "fmodule",
    "gfp_linalg",
    "polyfp",
    "hypersurface",
)

# Public functions at layer boundaries: everything cli calls into the
# library, plus the inner boundaries named by the per-layer metrics.
BOUNDARIES = {
    "cli": ("main",),
    "simplicial": ("parse_facets_text",),
    "local_cohomology": ("decomposition", "depth_and_cm", "oracle_box_check", "fh_count", "analysis_report"),
    "stanley_reisner": ("nonface_ideal", "fedder_fpure_monomial"),
    "fmodule": ("build_truncation", "search_space_size", "enumerate_f_stable_submodules", "check_antinilpotent"),
    "gfp_linalg": ("kernel_basis",),
    "polyfp": ("parse_polynomial", "monomial_colon", "DegreeSpans.rref_at"),
    "hypersurface": (
        "make_hypersurface",
        "fedder_fpure_principal",
        "f_injective_top",
        "socle_polynomials",
        "make_class",
        "tight_closure_zero_bounded",
        "rf_simplicity_probe",
    ),
}

# Wrapped only where other modules call them: their home module calls
# them on a hot path (graded_dim looks up the decomposition per multidegree).
CALLERS_ONLY = {"local_cohomology.decomposition"}

# lru caches whose counters are read at exit.
CACHES = (
    ("simplicial", "reduced_cohomology"),
    ("local_cohomology", "decomposition"),
    ("local_cohomology", "_cech_dims_by_signs"),
    ("gfp_linalg", "subspace_lattice"),
    ("hypersurface", "_level"),
)


class Tracer:
    """Spans kept in memory as [name, start, end, parent index]."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, int] = {}

    def count(self, key: str, amount: int) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def call(self, name, fn, args, kwargs):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self.stack[-1] if self.stack else None])
        self.stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self.stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name, fn, after=None):
        def wrapper(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(self, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str, extra: dict) -> None:
        now = time.perf_counter()
        spans = [[n, s, now if e is None else e, p] for n, s, e, p in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counters": self.counters, **extra}, fh)


def _after_box(fn):
    signature = inspect.signature(fn)

    def after(tracer, args, kwargs, result):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        a = bound.arguments
        if {"c", "lo", "hi"} <= a.keys():
            tracer.count("box_points", (a["hi"] - a["lo"] + 1) ** a["c"].n_vertices)

    return after


def _after_enumerate(tracer, args, kwargs, result):
    tracer.count("profiles", result[0])


def _wrap_rref_at(tracer, name, fn):
    def rref_at(self, d):
        built = d not in getattr(self, "_cache", {})
        echelon, pivots = result = tracer.call(name, fn, (self, d), {})
        tracer.count("rref_at_calls", 1)
        if built:
            cells = echelon.shape[0] * echelon.shape[1]
            tracer.count("echelon_bytes_computed", 8 * cells)
            tracer.counters["echelon_max_cells"] = max(tracer.counters.get("echelon_max_cells", 0), cells)
        return result

    return rref_at


def install(tracer: Tracer) -> None:
    modules = [importlib.import_module("froblab")]
    modules += [importlib.import_module(f"froblab.{layer}") for layer in LAYERS]
    for layer, names in BOUNDARIES.items():
        home = importlib.import_module(f"froblab.{layer}")
        for name in names:
            span = f"{layer}.{name}"
            if "." in name:
                cls_name, method = name.split(".")
                cls = getattr(home, cls_name, None)
                if cls is None or not hasattr(cls, method):
                    continue
                setattr(cls, method, _wrap_rref_at(tracer, span, getattr(cls, method)))
                continue
            fn = getattr(home, name, None)
            if fn is None:
                continue
            after = None
            if name == "oracle_box_check":
                after = _after_box(fn)
            elif name == "enumerate_f_stable_submodules":
                after = _after_enumerate
            wrapped = tracer.wrap(span, fn, after)
            for module in modules:
                if span in CALLERS_ONLY and module is home:
                    continue
                for attr in [a for a, v in vars(module).items() if v is fn]:
                    setattr(module, attr, wrapped)


def _cache_counters() -> dict[str, list[int]]:
    out = {}
    for layer, name in CACHES:
        fn = getattr(importlib.import_module(f"froblab.{layer}"), name, None)
        if fn is not None and hasattr(fn, "cache_info"):
            info = fn.cache_info()
            out[f"{layer}.{name}"] = [info.hits, info.misses]
    return out


def traced_main(argv: list[str], out_path: str) -> int:
    start = time.perf_counter()
    import froblab.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    install(tracer)
    try:
        return froblab.cli.main(argv)
    finally:
        tracer.dump(out_path, {"import_s": import_s, "caches": _cache_counters()})


# ---------------------------------------------------------------- parent side

# per-layer metric -> unit
LAYER_METRICS = {
    "cli.import_s": "s",
    "cli.main_s": "s",
    "cli.self_s": "s",
    "simplicial.parse_facets_text_s": "s",
    "simplicial.reduced_cohomology_calls": "count",
    "local_cohomology.decomposition_s": "s",
    "local_cohomology.depth_and_cm_s": "s",
    "local_cohomology.oracle_box_check_s": "s",
    "local_cohomology.box_points": "count",
    "local_cohomology.cech_pieces": "count",
    "local_cohomology.cech_useful_ratio": "ratio",
    "stanley_reisner.fedder_fpure_monomial_s": "s",
    "polyfp.monomial_colon_s": "s",
    "fmodule.enumerate_s": "s",
    "fmodule.antinilpotent_s": "s",
    "fmodule.search_space_size_s": "s",
    "fmodule.profiles": "count",
    "fmodule.models_validated_ratio": "ratio",
    "gfp_linalg.subspace_lattice_hit_ratio": "ratio",
    "gfp_linalg.kernel_basis_s": "s",
    "polyfp.rref_at_s": "s",
    "polyfp.rref_at_calls": "count",
    "polyfp.echelon_max_cells": "count",
    "polyfp.echelon_bytes_computed": "bytes",
    "hypersurface.make_hypersurface_s": "s",
    "hypersurface.socle_polynomials_s": "s",
    "hypersurface.f_injective_top_s": "s",
    "hypersurface.rf_simplicity_probe_s": "s",
    "hypersurface.tight_closure_s": "s",
    "hypersurface.levels_built": "count",
    "hypersurface.level_hit_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}

# time metric -> span whose inclusive time it sums
SPAN_TIMES = {
    "cli.main_s": "cli.main",
    "simplicial.parse_facets_text_s": "simplicial.parse_facets_text",
    "local_cohomology.decomposition_s": "local_cohomology.decomposition",
    "local_cohomology.depth_and_cm_s": "local_cohomology.depth_and_cm",
    "local_cohomology.oracle_box_check_s": "local_cohomology.oracle_box_check",
    "stanley_reisner.fedder_fpure_monomial_s": "stanley_reisner.fedder_fpure_monomial",
    "polyfp.monomial_colon_s": "polyfp.monomial_colon",
    "fmodule.enumerate_s": "fmodule.enumerate_f_stable_submodules",
    "fmodule.antinilpotent_s": "fmodule.check_antinilpotent",
    "fmodule.search_space_size_s": "fmodule.search_space_size",
    "gfp_linalg.kernel_basis_s": "gfp_linalg.kernel_basis",
    "polyfp.rref_at_s": "polyfp.DegreeSpans.rref_at",
    "hypersurface.make_hypersurface_s": "hypersurface.make_hypersurface",
    "hypersurface.socle_polynomials_s": "hypersurface.socle_polynomials",
    "hypersurface.f_injective_top_s": "hypersurface.f_injective_top",
    "hypersurface.rf_simplicity_probe_s": "hypersurface.rf_simplicity_probe",
    "hypersurface.tight_closure_s": "hypersurface.tight_closure_zero_bounded",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def self_times(spans: list[list]) -> list[float]:
    """Duration of each span minus the time its direct children cover
    (calls are sequential, so children never overlap)."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(traces: list[dict], reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass, summed over its analyses."""
    times = dict.fromkeys(SPAN_TIMES, 0.0)
    by_span = {span: metric for metric, span in SPAN_TIMES.items()}
    counters: dict[str, int] = {}
    caches: dict[str, list[int]] = {}
    import_s = cli_self = 0.0
    for trace in traces:
        spans = trace["spans"]
        own = self_times(spans)
        for k, (name, start, end, _) in enumerate(spans):
            if name in by_span:
                times[by_span[name]] += end - start
            if name == "cli.main":
                cli_self += own[k]
        for key, value in trace["counters"].items():
            if key == "echelon_max_cells":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
        for key, (hits, misses) in trace["caches"].items():
            acc = caches.setdefault(key, [0, 0])
            acc[0] += hits
            acc[1] += misses
        import_s += trace["import_s"]

    def cache(key):
        return caches.get(key, [0, 0])

    models = [m for r in reports for m in r.get("models") or []]
    box_points = counters.get("box_points", 0)
    cech_pieces = cache("local_cohomology._cech_dims_by_signs")[1]
    lattice = cache("gfp_linalg.subspace_lattice")
    level = cache("hypersurface._level")
    out = dict(times)
    out.update(
        {
            "cli.import_s": import_s,
            "cli.self_s": cli_self,
            "simplicial.reduced_cohomology_calls": sum(cache("simplicial.reduced_cohomology")),
            "local_cohomology.box_points": box_points,
            "local_cohomology.cech_pieces": cech_pieces,
            "local_cohomology.cech_useful_ratio": _ratio(cech_pieces, box_points),
            "fmodule.profiles": counters.get("profiles", 0),
            "fmodule.models_validated_ratio": _ratio(
                sum(m.get("skipped") is None for m in models), len(models)
            ),
            "gfp_linalg.subspace_lattice_hit_ratio": _ratio(lattice[0], sum(lattice)),
            "polyfp.rref_at_calls": counters.get("rref_at_calls", 0),
            "polyfp.echelon_max_cells": counters.get("echelon_max_cells", 0),
            "polyfp.echelon_bytes_computed": counters.get("echelon_bytes_computed", 0),
            "hypersurface.levels_built": level[1],
            "hypersurface.level_hit_ratio": _ratio(level[0], sum(level)),
        }
    )
    return out
