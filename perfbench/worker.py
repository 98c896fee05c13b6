"""Library process of the benchmark: one per pass of a cold workload, one
per run of a warm one.

Usage: ``python perfbench/worker.py <workload> <seed> <trace 0|1> <inputs dir>``

Set-up is interpreter start, ``import chevalley_chow`` and building the
seeded inputs; the worker then prints ``ready`` and waits on stdin.  On
each ``go`` it runs its request list in order (a closed loop with one
client), then prints one JSON line per request: latency, whether the
request was the first of its kind on its datum in this process, and a
summary of the answer (or the exception) for the harness to check.  The
lines are held back until the pass ends, so that the harness does not run
beside the requests on the machine's other vCPU.  Between requests
it times the reference work of :mod:`refspeed` and reports those samples
when the pass ends.  A second ``go`` repeats the list in the same process,
with the package's caches as the first pass left them.  ``quit`` (or the
end of input) ends it.
"""

from __future__ import annotations

import json
import sys
import time
import traceback
import tracemalloc
from fractions import Fraction
from pathlib import Path

import chevalley_chow as cc
from chevalley_chow.errors import ChevalleyChowError

import refspeed
import spans
import workloads


def _group(g):
    return [g.rank, list(g.torsion)]


def _terms(expansion):
    return {str(k): (int(c) if Fraction(c).denominator == 1 else str(c))
            for k, c in sorted(expansion.terms.items())}


class Session:
    """Parsed documents and reports shared by the requests of one pass."""

    def __init__(self, data):
        self.data = data
        self.docs = {}
        self.chow = {}

    def run(self, req):
        """Call the package for one request and summarize the answer."""
        op, name = req["op"], req["datum"]
        if op == "parse_descriptor":
            doc = self.docs[name] = cc.parse_descriptor(self.data[name]["bytes"])
            return {"rank": doc.group.rd.rank, "nsimple": doc.group.rd.nsimple,
                    "subgroups": list(doc.subgroup_names())}
        doc = self.docs[name]
        gd = doc.group
        sub = doc.subgroup(req["sub"]) if "sub" in req else None
        kw = {"cap": req["cap"]} if "cap" in req else {}
        if op == "validate_group":
            r = cc.validate_group(gd, **kw)
            return {"ok": r.ok, "cartan": r.checks[0].detail}
        if op == "validate_subgroup":
            r = cc.validate_subgroup(gd, sub, **kw)
            return {"ok": r.ok, "failed": [c.name for c in r.failed()],
                    "component_group": next((c.detail for c in r.checks
                                             if c.name == "component-group-finite"), None)}
        if op == "picard_group":
            r = cc.picard_group(gd)
            return {"ns": _group(r.ns), "pic_gaff": _group(r.presentation.pic_gaff)}
        if op == "chow_presentation":
            r = self.chow[name] = cc.chow_presentation(gd, req["max_degree"], **kw)
            return {"dims": list(r.concrete_factor.dims), "degree1": _group(r.degree1_concrete),
                    "ngens": len(r.ideal_degree1)}
        if op == "rational_chow":
            r = cc.rational_chow(gd, req["max_degree"], **kw)
            return {"dims": list(r.concrete_factor.dims), "j_rank": r.j_rank,
                    "degree_bound": r.degree_bound}
        if op == "completeness_test":
            r = cc.completeness_test(gd, sub, **kw)
            return {"answer": r.answer, "flag_dim": (r.witness or {}).get("flag_factor_dim")}
        if op == "homogeneous_rational_chow":
            r = cc.homogeneous_rational_chow(gd, sub, req["max_degree"], **kw)
            return {"dims": list(r.concrete_factor.dims)}
        if op == "emit_report":
            out = cc.emit_report(self.chow[name], req["format"])
            return {"bytes": len(out), "report": out.decode()}
        if op == "schubert_product":
            return {"terms": _terms(cc.schubert_product(gd.rd, req["u"], req["v"]))}
        if op == "chevalley_multiply":
            return {"terms": _terms(cc.chevalley_multiply(gd.rd, req["lam"], req["w"]))}
        raise ValueError(f"unknown op {op!r}")


def kind(req):
    """Requests of one kind on one datum share the package's caches."""
    if req["op"] == "schubert_product":
        return (req["op"], req["datum"], req["degree"])
    return (req["op"], req["datum"], req.get("sub"), req.get("cap"))


def main(argv):
    workload, seed, traced, inputs = argv[0], int(argv[1]), argv[2] == "1", Path(argv[3])
    data, reqs = workloads.build(workload, seed, inputs)
    tracer = None
    if traced:
        tracer = spans.Tracer()
        spans.install(tracer)
    print("ready", flush=True)
    seen = set()
    while sys.stdin.readline().strip() == "go":
        run_pass(data, reqs, seen, tracer)
    return 0


def run_pass(data, reqs, seen, tracer):
    if tracer:
        tracemalloc.start()
    session = Session(data)
    sampler = refspeed.Sampler()
    lines = []
    for i, req in enumerate(reqs):
        sampler.maybe(i)
        k = kind(req)
        out = {"i": i, "cold": k not in seen}
        seen.add(k)
        t0 = time.perf_counter()
        try:
            out["ans"] = session.run(req)
        except ChevalleyChowError as e:
            out["exc"] = type(e).__name__
        except Exception as e:  # a crash is a result to report, not a reason to stop
            out["exc"] = type(e).__name__
            out["crash"] = traceback.format_exc(limit=3)[-400:]
        out["ms"] = (time.perf_counter() - t0) * 1000.0
        lines.append(json.dumps(out))
    sampler.take(len(reqs))
    done = {"done": True, "ref": sampler.samples}
    if tracer:
        tracer.requests = len(reqs)
        done["trace"] = spans.summarize(tracer)
        done["traced_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
    lines.append(json.dumps(done))
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
