"""Benchmark of the chevalley_chow package: CLI fixtures, a cold root-datum
ladder and a warm Schubert session.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload cli-fixtures --seed 1 --seconds 20 --trace 0

Workloads (closed loops with one client; see BENCHMARK.json for why):

* ``cli-fixtures``: every CLI subcommand on every fixture and subgroup in
  both formats, plus malformed descriptors; each request is a fresh
  ``python -m chevalley_chow.cli`` process.
* ``ladder-cold``: one fresh worker per pass runs the public calls on the
  root data A1-A5, B2, C3, D4, G2, F4, each visited once, plus requests
  that must be refused.
* ``schubert-warm``: a long-lived worker sends seeded ``schubert_product``
  requests round-robin over A2, B2, G2, A3, C3, A4; its first pass fills
  the package's caches, the pass after it reuses them.

A pass is the workload's whole request list.  With ``--trace 0`` the run
starts worker processes (CLI passes) while the next one is predicted to
end within ``--seconds``, at least ``MIN_PROCESSES`` of them, and prints
the end-to-end metrics; a request's latency is its median over the
passes, and every time is scaled to the machine's reference speed
(:mod:`refspeed`).
With ``--trace 1`` it makes one untraced and one traced pass, each in a
fresh process, and prints the per-layer metrics, unscaled.
Every answer is checked against :mod:`oracle`; the last line of standard
output is the JSON result, a human summary goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import oracle
import refspeed
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("cli-fixtures", "ladder-cold", "schubert-warm")
#: warm passes that follow the first pass of a worker process; 0 means a
#: fresh process per pass, so that every pass is cold
WARM_PASSES = {"cli-fixtures": 0, "ladder-cold": 0, "schubert-warm": 1}
SETUP_SAMPLES = 9         # worker start-ups per run; setup_s is their median
RUN_LIMIT = 170.0         # seconds; a run must end within 180
CLI_TIMEOUT = 60.0
#: worker processes (CLI passes) a run starts at least; a request's latency
#: is its median over their passes.  One CLI pass of ~200 calls fills a run
#: on its own; sub-millisecond cold calls in a fresh process vary by 10%
#: from process to process even at the reference speed, so the ladder and
#: the Schubert session take three (a fourth ladder pass cut the spread of
#: its call_p50_ms from about 0.13 to 0.10, but made a ladder run 55 s on
#: a slow host, too long for 66 runs of three workloads in under an hour).
MIN_PROCESSES = {"cli-fixtures": 1, "ladder-cold": 3, "schubert-warm": 3}
IMPORT_SAMPLES = 7


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


class Worker:
    """A worker process, started and waited on until it is ready."""

    def __init__(self, workload, seed, traced, inputs, deadline):
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), workload, str(seed),
             "1" if traced else "0", str(inputs)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=child_env())
        self.buf = b""
        self.deadline = deadline
        line = self.readline()
        if line != b"ready":
            self.close()
            raise RuntimeError(f"worker did not start: {line!r}")
        self.setup_s = time.perf_counter() - t0

    def readline(self) -> bytes | None:
        """Next line of output, or None at end of output or past the deadline."""
        fd = self.proc.stdout.fileno()
        while b"\n" not in self.buf:
            left = self.deadline - time.perf_counter()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self.buf += chunk
        line, _, self.buf = self.buf.partition(b"\n")
        return line

    def send(self, word: str):
        self.proc.stdin.write(word.encode() + b"\n")
        self.proc.stdin.flush()

    def close(self):
        if self.proc.poll() is None:
            try:
                self.send("quit")
                self.proc.wait(timeout=10)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdin.close()
        self.proc.stdout.close()


class Pass:
    """Latencies, failures and answers of one pass over the request list."""

    def __init__(self):
        self.wall = 0.0
        self.raw_ms = {}          # request index -> ms as measured
        self.latency_ms = {}      # request index -> ms at the reference speed
        self.cold = set()         # first request of its kind on its datum
        self.failures = []        # (request index, kind, detail)
        self.answers = []
        self.summaries = []
        self.traced_peak_mb = 0.0

    def scale(self, samples):
        """Scale the raw latencies by the reference samples of the pass."""
        f = refspeed.factors(samples, self.raw_ms)
        self.latency_ms = {i: ms * f[i] for i, ms in self.raw_ms.items()}


def library_pass(worker, expects, traced) -> Pass:
    """One pass of the request list in ``worker``, which stays open."""
    p = Pass()
    t0 = time.perf_counter()
    worker.send("go")
    outs = {}
    done = None
    while done is None:
        line = worker.readline()
        if line is None:
            break
        msg = json.loads(line)
        if msg.get("done"):
            done = msg
        else:
            outs[msg["i"]] = msg
    p.wall = time.perf_counter() - t0
    missing = ({"timeout": "no answer before the run's time limit"}
               if time.perf_counter() >= worker.deadline
               else {"crash": "the worker exited early"})
    for i, expect in enumerate(expects):
        out = outs.get(i, missing)
        bad = check.judge_call(out, expect)
        if bad:
            p.failures.append((i, *bad))
        if "ms" in out:
            p.raw_ms[i] = out["ms"]
            if out["cold"]:
                p.cold.add(i)
        p.answers.append((out.get("ans"), out.get("exc")))
    if done:
        p.scale(done["ref"])
        if traced:
            p.summaries.append(done["trace"])
            p.traced_peak_mb = done["traced_peak_mb"]
    return p


def cli_pass(reqs, expects, traced, inputs, deadline) -> Pass:
    p = Pass()
    env = child_env()
    summary = inputs / "trace.json"
    sampler = refspeed.Sampler()
    t0 = time.perf_counter()
    for i, (req, (code_expected, fields)) in enumerate(zip(reqs, expects)):
        sampler.maybe(i)
        if traced:
            cmd = [sys.executable, str(BENCH / "cli_shim.py"), str(summary), *req["argv"]]
        else:
            cmd = [sys.executable, "-m", "chevalley_chow.cli", *req["argv"]]
        left = min(CLI_TIMEOUT, deadline - time.perf_counter())
        t = time.perf_counter()
        try:
            if left <= 0:
                raise subprocess.TimeoutExpired(cmd, 0)
            r = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=left)
            code, out, err = r.returncode, r.stdout, r.stderr
            p.raw_ms[i] = (time.perf_counter() - t) * 1000.0
            p.cold.add(i)   # every CLI call is a fresh process
        except subprocess.TimeoutExpired:
            code, out, err = None, b"", b""
        bad = check.judge_cli(req, code, out, err, code_expected, fields)
        if bad:
            p.failures.append((i, *bad))
        p.answers.append((code, out.decode(errors="replace")))
        if traced and summary.exists():
            s = json.loads(summary.read_text())
            summary.unlink()
            p.summaries.append(s)
            p.traced_peak_mb = max(p.traced_peak_mb, s["traced_peak_mb"])
    sampler.take(len(reqs))
    p.wall = time.perf_counter() - t0 - sampler.spent
    p.scale(sampler.samples)
    return p


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def tail_percentile(n_per_pass: int) -> int:
    """Highest whole percentile that leaves at least 10 samples of a pass above it."""
    return max(0, math.floor(100 * (n_per_pass - 10) / n_per_pass))


def import_ms(deadline) -> float:
    """Fresh ``import chevalley_chow`` minus a bare interpreter start, in ms."""
    env = child_env()
    bare, full = [], []
    for _ in range(IMPORT_SAMPLES):
        for code, into in (("pass", bare), ("import chevalley_chow", full)):
            t = time.perf_counter()
            subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                           timeout=max(1.0, deadline - t))
            into.append(time.perf_counter() - t)
    return (statistics.median(full) - statistics.median(bare)) * 1000.0


def end_to_end(passes, setup, n_reqs, scaled) -> tuple[dict, dict]:
    """The end-to-end metrics, and notes on how many samples they rest on.

    A request's latency is its median over the warm passes (those in which
    no request was cold), or over all passes when every pass began in a
    fresh process; a cold request's, its median over the passes in which
    it was cold.  (The best of the passes, as timeit takes it, suits raw
    times, which noise only ever makes longer; a scaled time also errs low
    when the reference samples next to it ran slow, and the best of
    several passes then picks the pass whose reference erred most.)
    ``run_s`` is the median of the passes that began in a fresh process:
    the time the program spent answering the whole request list from cold
    (with ``scaled``, the sum of the pass's scaled latencies).
    """
    key = "latency_ms" if scaled else "raw_ms"
    warm = [p for p in passes if not p.cold] or passes
    latency, cold = [], []
    for i in range(n_reqs):
        samples = [getattr(p, key)[i] for p in warm if i in getattr(p, key)]
        if samples:
            latency.append(statistics.median(samples))
        cold_samples = [getattr(p, key)[i] for p in passes if i in p.cold]
        if cold_samples:
            cold.append(statistics.median(cold_samples))
    fresh = [p for p in passes if p.cold] or passes
    if scaled:
        run_s = statistics.median(sum(p.latency_ms.values()) for p in fresh) / 1000.0
    else:
        run_s = statistics.median(p.wall for p in fresh)
    tail_p = tail_percentile(n_reqs)
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics = {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "run_s": {"value": run_s, "unit": "s"},
        "call_p50_ms": {"value": statistics.median(latency), "unit": "ms"},
        "call_tail_ms": {"value": percentile(latency, tail_p), "unit": "ms"},
        "cold_call_p50_ms": {"value": statistics.median(cold), "unit": "ms"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }
    notes = {
        "setup_s": f"median of {len(setup)} worker start-ups",
        "call_tail_ms": f"p{tail_p} of {len(latency)} requests, each its median over "
                        f"{len(warm)} passes",
        "cold_call_p50_ms": f"n = {len(cold)}",
    }
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    deadline = start + RUN_LIMIT

    if not (ROOT / "src" / "chevalley_chow" / "__init__.py").is_file() \
            or not (ROOT / "fixtures").is_dir():
        print(f"error: no chevalley_chow sources or fixtures under {ROOT}", file=sys.stderr)
        return 2
    problems = check.self_check()

    inputs = ROOT / ".bench_build" / "inputs" / args.workload
    data, reqs = workloads.build(args.workload, args.seed, inputs)
    if args.workload == "cli-fixtures":
        expects = [oracle.cli_expect(r) for r in reqs]
    else:
        calcs = {}
        expects = [oracle.call_expect(r, data, calcs) for r in reqs]

    # set-up: interpreter start, import and input generation of a worker,
    # scaled by the reference samples taken between the start-ups; the
    # first start-up fills the bytecode cache and is not counted
    Worker(args.workload, args.seed, False, inputs, deadline).close()
    sampler = refspeed.Sampler()
    raw_setup = []
    for k in range(SETUP_SAMPLES):
        sampler.take(k)
        w = Worker(args.workload, args.seed, False, inputs, deadline)
        raw_setup.append(w.setup_s)
        w.close()
    sampler.take(SETUP_SAMPLES)
    f = refspeed.factors(sampler.samples, range(SETUP_SAMPLES), near=SETUP_SAMPLES)
    setup = [s * f[k] for k, s in enumerate(raw_setup)]

    def fresh_pass(traced):
        if args.workload == "cli-fixtures":
            return cli_pass(reqs, expects, traced, inputs, deadline)
        worker = Worker(args.workload, args.seed, traced, inputs, deadline)
        try:
            return library_pass(worker, expects, traced)
        finally:
            worker.close()

    def session():
        """A fresh pass and the warm passes that follow it in one process."""
        if not WARM_PASSES[args.workload]:
            return [fresh_pass(False)]
        worker = Worker(args.workload, args.seed, False, inputs, deadline)
        out = []
        try:
            while len(out) <= WARM_PASSES[args.workload] and worker.proc.poll() is None \
                    and time.perf_counter() < deadline:
                out.append(library_pass(worker, expects, False))
        finally:
            worker.close()
        return out

    passes = []
    if args.trace:
        passes = [fresh_pass(False), fresh_pass(True)]
    else:
        t0 = time.perf_counter()
        n, last = 0, 0.0
        while time.perf_counter() < deadline and (
                n < MIN_PROCESSES[args.workload]
                or time.perf_counter() - t0 + last <= args.seconds):
            t = time.perf_counter()
            passes += session()
            n, last = n + 1, time.perf_counter() - t

    failures = [f for p in passes for f in p.failures]
    attempted = len(reqs) * len(passes)
    wrong = [f for f in failures if f[1] == check.WRONG]
    if args.trace and passes[0].answers != passes[1].answers:
        problems.append("answers differ between the untraced and the traced pass")
    correct = not problems and not wrong

    measured = {}
    if args.trace:
        traced = passes[1]
        extra = {
            "cli.import_ms": import_ms(deadline),
            "mem.traced_peak_mb": traced.traced_peak_mb,
            "trace.overhead_ratio": traced.wall / passes[0].wall,
        }
        metrics, notes = spans.metrics(spans.merge(traced.summaries), extra)
    else:
        metrics, notes = end_to_end(passes, setup, len(reqs), scaled=True)
        measured, _ = end_to_end(passes, raw_setup, len(reqs), scaled=False)

    log = sys.stderr
    print(f"{args.workload} seed {args.seed}: {len(passes)} pass(es) of {len(reqs)} requests, "
          f"{time.perf_counter() - start:.1f} s", file=log)
    if measured:
        print(f"  {'':40s} {'scaled':>12s} {'as measured':>12s}", file=log)
    for name, m in metrics.items():
        raw = f" {measured[name]['value']:12.6g}" if name in measured else ""
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:40s} {m['value']:12.6g}{raw} {m['unit']}{note}", file=log)
    print(f"  fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4f}", file=log)
    for i, kind, detail in failures[:10]:
        req = reqs[i]
        print(f"  FAILED [{kind}] {json.dumps({k: v for k, v in req.items() if k != 'argv'})}"
              f" {str(detail).strip()[:300]}", file=log)
    for problem in problems:
        print(f"  PROBLEM {problem}", file=log)

    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
