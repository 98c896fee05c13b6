"""Span recorder installed around the package's functions from outside.

Nothing under ``src/`` changes: :func:`install` replaces each listed
function, in every ``chevalley_chow`` module namespace that binds it, by a
wrapper that records a span (name, start, end, parent) and a few counts
measured where the work happens.  :func:`summarize` folds the spans of one
process into per-layer totals; :func:`metrics` turns the totals of one or
more processes into the benchmark's per-layer metrics.
"""

from __future__ import annotations

import functools
import math
import sys
import time

#: (layer module, function) pairs that get a span
SPANNED = (
    ("formats", "parse_descriptor"), ("formats", "emit_report"),
    ("descriptors", "validate_group"), ("descriptors", "validate_subgroup"),
    ("descriptors", "derived_attributes"),
    ("lattice", "smith_normal_form"), ("lattice", "hermite_row_basis"),
    ("lattice", "enumerate_matrix_group"),
    ("qlinalg", "qsolve"), ("qlinalg", "SpanBuilder.add"),
    ("rootdata", "weyl_group"), ("rootdata", "root_system"),
    ("invariants", "invariant_slice"), ("invariants", "ideal_slice"),
    ("invariants", "truncated_quotient"),
    ("schubert", "schubert_product"), ("schubert", "expand_in_schubert_basis"),
    ("schubert", "chevalley_multiply"),
    ("chow", "chow_presentation"), ("chow", "rational_chow"),
    ("chow", "homogeneous_rational_chow"), ("chow", "picard_group"),
    ("structure", "completeness_test"), ("structure", "affine_test"),
    ("structure", "albanese_split_test"), ("structure", "affinization_test"),
    ("structure", "phi_local_triviality_test"), ("structure", "fibration_report"),
    ("structure", "construct_cover"),
)

#: process-lifetime caches whose hit counts are read with cache_info()
CACHES = {
    "weyl": (("rootdata", "weyl_group"),),
    "schubert": (("schubert", "_representative_table"), ("schubert", "_coinvariant_reducer")),
}

VERDICTS = ("completeness_test", "affine_test", "albanese_split_test", "affinization_test",
            "phi_local_triviality_test", "fibration_report")


class Tracer:
    """Spans of one process, kept in memory until the process reports."""

    def __init__(self):
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.missing: dict[str, str] = {}
        self.caches: dict[str, list] = {}
        self.requests = 0

    def add(self, key, amount=1):
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name, fn, on_exit=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.stack[-1] if self.stack else -1
            idx = len(self.spans)
            span = [name, 0.0, 0.0, parent]
            self.spans.append(span)
            self.stack.append(idx)
            before = on_exit and on_exit.before()
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self.stack.pop()
            if on_exit:
                on_exit.after(self, span, args, result, before)
            return result
        return traced


def _bits(*mats):
    return max((abs(x).bit_length() for m in mats for row in m.rows for x in row), default=0)


class _Hooks:
    """Per-function counts taken at the call boundary."""

    def __init__(self, name, caches=()):
        self.name = name
        self.caches = caches

    def before(self):
        return [c.cache_info().misses for c in self.caches]

    def after(self, tr, span, args, result, before):
        name = self.name
        if name in ("smith_normal_form", "hermite_row_basis"):
            out = result if isinstance(result, tuple) else (result,)
            bits = _bits(args[0], *out)
            tr.counts["lattice.max_coeff_bits"] = max(tr.counts.get("lattice.max_coeff_bits", 0), bits)
        elif name == "enumerate_matrix_group":
            tr.add("lattice.matrix_group_elems", len(result))
        elif name == "SpanBuilder.add":
            tr.add("qlinalg.span_accepted", 1 if result else 0)
        elif name == "weyl_group":
            if [c.cache_info().misses for c in self.caches] != before:
                tr.add("rootdata.weyl_elems", len(result))
        elif name == "invariant_slice":
            rank, d = args[0], args[2]
            tr.add("invariants.slice_dim_total", math.comb(rank + d - 1, d) if rank else 1)
        elif name == "schubert_product":
            cold = [c.cache_info().misses for c in self.caches] != before
            tr.add("schubert.product_cold_s" if cold else "schubert.product_warm_s",
                   span[2] - span[1])
        elif name == "emit_report":
            tr.add("formats.emit_bytes", len(result))


def _lookup(pkg_modules, mod, attr):
    obj = pkg_modules.get(f"chevalley_chow.{mod}")
    for part in attr.split("."):
        obj = getattr(obj, part, None) if obj is not None else None
    return obj


def install(tracer: Tracer) -> None:
    """Wrap every function in SPANNED wherever a package module binds it."""
    mods = {name: m for name, m in sys.modules.items()
            if name == "chevalley_chow" or name.startswith("chevalley_chow.")}
    for kind, refs in CACHES.items():
        found = [_lookup(mods, m, a) for m, a in refs]
        tracer.caches[kind] = [c for c in found if hasattr(c, "cache_info")]
        for (m, a), c in zip(refs, found):
            if not hasattr(c, "cache_info"):
                tracer.missing[f"cache:{kind}"] = f"chevalley_chow.{m}.{a} has no lru cache"
    for mod, attr in SPANNED:
        orig = _lookup(mods, mod, attr)
        if orig is None:
            tracer.missing[attr] = f"chevalley_chow.{mod}.{attr} not found"
            continue
        caches = {"weyl_group": tracer.caches["weyl"],
                  "schubert_product": tracer.caches["schubert"]}.get(attr, ())
        wrapped = tracer.wrap(attr, orig, _Hooks(attr, caches))
        if "." in attr:
            cls_name, meth = attr.split(".")
            setattr(_lookup(mods, mod, cls_name), meth, wrapped)
            continue
        for m in mods.values():
            for key, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, key, wrapped)


def summarize(tracer: Tracer) -> dict:
    """Per-function inclusive time (outermost spans), self time and call
    counts, plus the raw counts and cache statistics of this process."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    incl: dict[str, float] = {}
    self_t: dict[str, float] = {}
    calls: dict[str, int] = {}
    for i, (name, start, end, parent) in enumerate(spans):
        dur = end - start
        calls[name] = calls.get(name, 0) + 1
        self_t[name] = self_t.get(name, 0.0) + dur - child_time[i]
        p, outermost = parent, True
        while p >= 0:
            if spans[p][0] == name:
                outermost = False
                break
            p = spans[p][3]
        if outermost:
            incl[name] = incl.get(name, 0.0) + dur
    caches = {kind: [sum(c.cache_info().hits for c in cs), sum(c.cache_info().misses for c in cs)]
              for kind, cs in tracer.caches.items()}
    return {"incl": incl, "self": self_t, "calls": calls, "counts": dict(tracer.counts),
            "caches": caches, "missing": dict(tracer.missing), "requests": tracer.requests}


def merge(summaries: list[dict]) -> dict:
    """Add up the summaries of several processes (one per CLI call)."""
    out = {"incl": {}, "self": {}, "calls": {}, "counts": {}, "caches": {}, "missing": {},
           "requests": 0}
    for s in summaries:
        for key in ("incl", "self", "calls"):
            for k, v in s[key].items():
                out[key][k] = out[key].get(k, 0) + v
        for k, v in s["counts"].items():
            if k == "lattice.max_coeff_bits":
                out["counts"][k] = max(out["counts"].get(k, 0), v)
            else:
                out["counts"][k] = out["counts"].get(k, 0) + v
        for k, (h, m) in s["caches"].items():
            prev = out["caches"].get(k, [0, 0])
            out["caches"][k] = [prev[0] + h, prev[1] + m]
        out["missing"].update(s["missing"])
        out["requests"] += s["requests"]
    return out


def metrics(s: dict, extra: dict) -> tuple[dict, dict]:
    """The per-layer metrics of BENCHMARK.json from a merged summary.

    ``extra`` carries what is measured outside the spans: ``cli.import_ms``,
    ``mem.traced_peak_mb`` and ``trace.overhead_ratio``.  Every value is a
    number: a layer a workload does not call reads 0, as does a ratio with
    nothing to divide, and a metric whose function is gone from the package
    reads 0 with the reason returned in ``notes`` (the harness prints them
    on standard error), so that a later change that removes a function
    breaks no run.
    """
    incl, self_t, calls, counts = s["incl"], s["self"], s["calls"], s["counts"]
    missing = s["missing"]
    out, notes = {}, {}

    def put(name, unit, value, needs=()):
        gone = [missing[n] for n in needs if n in missing]
        if gone:
            notes[name] = "reads 0: " + "; ".join(gone)
        out[name] = {"value": value, "unit": unit}

    def ratio(num, den):
        return num / den if den else 0.0

    def t(fn):
        return incl.get(fn, 0.0)

    for name, value in extra.items():
        unit = {"cli.import_ms": "ms", "mem.traced_peak_mb": "MB",
                "trace.overhead_ratio": "ratio"}[name]
        put(name, unit, value)
    put("formats.parse_s", "s", t("parse_descriptor"), ["parse_descriptor"])
    put("formats.emit_s", "s", t("emit_report"), ["emit_report"])
    put("formats.emit_bytes", "bytes", counts.get("formats.emit_bytes", 0), ["emit_report"])
    put("descriptors.validate_s", "s", t("validate_group") + t("validate_subgroup"),
        ["validate_group", "validate_subgroup"])
    put("descriptors.derived_attributes_calls", "calls/request",
        ratio(calls.get("derived_attributes", 0), s["requests"]), ["derived_attributes"])
    put("descriptors.derived_attributes_s", "s", t("derived_attributes"), ["derived_attributes"])
    put("lattice.smith_calls", "count", calls.get("smith_normal_form", 0), ["smith_normal_form"])
    put("lattice.smith_s", "s", t("smith_normal_form"), ["smith_normal_form"])
    put("lattice.hermite_s", "s", t("hermite_row_basis"), ["hermite_row_basis"])
    put("lattice.max_coeff_bits", "bits", counts.get("lattice.max_coeff_bits", 0),
        ["smith_normal_form", "hermite_row_basis"])
    put("lattice.matrix_group_elems", "count", counts.get("lattice.matrix_group_elems", 0),
        ["enumerate_matrix_group"])
    put("lattice.matrix_group_s", "s", t("enumerate_matrix_group"), ["enumerate_matrix_group"])
    put("qlinalg.qsolve_calls", "count", calls.get("qsolve", 0), ["qsolve"])
    put("qlinalg.qsolve_s", "s", t("qsolve"), ["qsolve"])
    adds = calls.get("SpanBuilder.add", 0)
    put("qlinalg.span_add_calls", "count", adds, ["SpanBuilder.add"])
    put("qlinalg.span_accept_ratio", "ratio",
        ratio(counts.get("qlinalg.span_accepted", 0), adds), ["SpanBuilder.add"])
    put("rootdata.weyl_s", "s", t("weyl_group"), ["weyl_group"])
    put("rootdata.weyl_elems", "count", counts.get("rootdata.weyl_elems", 0), ["weyl_group"])
    put("rootdata.root_system_s", "s", t("root_system"), ["root_system"])
    hits, misses = s["caches"].get("weyl", [0, 0])
    put("rootdata.weyl_cache_hit_ratio", "ratio", ratio(hits, hits + misses),
        ["weyl_group", "cache:weyl"])
    put("invariants.slice_s", "s", t("invariant_slice"), ["invariant_slice"])
    put("invariants.slice_calls", "count", calls.get("invariant_slice", 0), ["invariant_slice"])
    put("invariants.slice_dim_total", "count", counts.get("invariants.slice_dim_total", 0),
        ["invariant_slice"])
    put("invariants.ideal_slice_s", "s", t("ideal_slice"), ["ideal_slice"])
    put("invariants.quotient_s", "s", t("truncated_quotient"), ["truncated_quotient"])
    put("schubert.product_calls", "count", calls.get("schubert_product", 0), ["schubert_product"])
    put("schubert.product_cold_s", "s", counts.get("schubert.product_cold_s", 0.0),
        ["schubert_product", "cache:schubert"])
    put("schubert.product_warm_s", "s", counts.get("schubert.product_warm_s", 0.0),
        ["schubert_product", "cache:schubert"])
    put("schubert.expand_s", "s", t("expand_in_schubert_basis"), ["expand_in_schubert_basis"])
    put("schubert.chevalley_s", "s", t("chevalley_multiply"), ["chevalley_multiply"])
    hits, misses = s["caches"].get("schubert", [0, 0])
    put("schubert.cache_hit_ratio", "ratio", ratio(hits, hits + misses), ["cache:schubert"])
    for metric, fn in (("presentation", "chow_presentation"), ("rational", "rational_chow"),
                       ("homogeneous", "homogeneous_rational_chow"), ("picard", "picard_group")):
        put(f"chow.{metric}_s", "s", t(fn), [fn])
        put(f"chow.{metric}_self_s", "s", self_t.get(fn, 0.0), [fn])
    put("structure.verdict_s", "s", sum(t(v) for v in VERDICTS), list(VERDICTS))
    put("structure.cover_s", "s", t("construct_cover"), ["construct_cover"])
    return out, notes
