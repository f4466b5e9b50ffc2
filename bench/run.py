"""Benchmark of equichar: one command, three seeded workloads.

    python3 bench/run.py --workload lattice --seed 1 --seconds 40 --trace 0

Workloads (see workloads.py): ``lattice`` (subgroup lattices and posets),
``homology`` (large chain complexes over Z and GF(p)) and ``cli_mix``
(every CLI subcommand, in process).  Each is a closed loop with one client:
a pass runs the workload's whole query list in a seed-shuffled order, with
fresh seed-drawn names, and passes repeat while another one fits in
``--seconds`` (at least one runs).

Times are reported at a fixed reference speed.  The cores of a shared
machine change speed by 20-40 % within seconds, as its other tenants come
and go, and that drift, not the program, would set the run-to-run spread.
So a short fixed pure-Python kernel (``speed_probe``) is timed right before
and right after every query, and the query's latency is scaled by
``SPEED_REF_S`` over the mean of those two kernel times: a latency in
seconds on a machine where the kernel takes ``SPEED_REF_S``.  The kernel is
benchmark code and never calls the library, so a change to the library
moves the scaled time by the same share as the raw one; the raw figures are
in the metadata line.  Each query's latency is then the median over the
passes of the run, which keeps a burst of noise in one pass out of the
figures.  With ``--trace 0`` the last stdout line reports the end-to-end
metrics:

* ``wall_s``: time to run the whole query list once (sum of the per-query
  medians; queries / ``wall_s`` is the throughput)
* ``query_p50_ms``: median of the per-query latencies
* ``query_tail_ms``: per-query latency at the highest percentile with at
  least ten queries beyond it (the percentile and sample count are in the
  metadata line printed just before, with every per-query latency)
* ``peak_rss_mb``: peak resident set of this process
* ``setup_s``: import of equichar and equichar.cli plus the workload's input
  preparation, in a fresh interpreter (median of several, each scaled by
  kernel times taken in that interpreter just before and after)

Both percentiles are Harrell-Davis estimates, which do not jump when two
queries of different cost trade places in the ranking.  Passes and set-up
probes rotate over the CPU cores the process may use.

``failed / attempted`` in the same line is the failed fraction.  With
``--trace 1`` every query runs twice in a row, traced and untraced; the line
reports the per-layer metrics of tracing.py and the tracing overhead
(traced minus untraced ``wall_s``), and the spans of the first pass are
written to ``.bench_out/`` in the checkout.
"""

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 9
MIN_TAIL = 10
# Another pass starts only if this multiple of the slowest pass so far
# still fits in --seconds.
PASS_MARGIN = 1.2
# Reference time of one speed kernel run: scaled times are seconds on a
# machine where speed_kernel() takes this long (about a 2-core x86-64 VM
# of 2026 running CPython 3.11).
SPEED_REF_S = 0.002
SPEED_RUNS = 3


def speed_kernel():
    """Fixed pure-Python work of the library's kind: tuple permutations
    composed, hashed and inverted, then integer row elimination."""
    n = 24
    x = tuple((i * 7 + 3) % n for i in range(n))
    q = tuple((i * 5 + 1) % n for i in range(n))
    seen = set()
    for _ in range(300):
        x = tuple(q[x[i]] for i in range(n))
        seen.add(x)
        inverse = {x[i]: i for i in range(n)}
    rows = [[(i * j + 1) % 11 for j in range(n)] for i in range(n)]
    for k in range(n - 1):
        pivot = rows[k]
        for row in rows[k + 1:]:
            f = row[k]
            if f:
                for j in range(k, n):
                    row[j] = row[j] * pivot[k] - f * pivot[j]
    return len(seen) + len(inverse)


def speed_probe():
    """Median time of SPEED_RUNS kernel runs, with the cyclic collector
    off so that the library's heap does not enter the figure."""
    times = []
    enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(SPEED_RUNS):
            start = time.perf_counter()
            speed_kernel()
            times.append(time.perf_counter() - start)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def scale(seconds, before, after):
    """seconds at reference speed, from the kernel times around them."""
    return seconds * SPEED_REF_S * 2.0 / (before + after)


def _import_library():
    """Import equichar from the checkout's src/ (fails loudly if absent)."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "equichar")):
        raise SystemExit("bench: %s/equichar not found; run from a checkout"
                         % src)
    sys.path.insert(0, src)
    import equichar  # noqa: F401
    import equichar.cli  # noqa: F401


def build_workload(name, seed, tmpdir, smoke=False):
    import workloads
    if name == "lattice":
        return workloads.lattice(smoke)
    if name == "homology":
        return workloads.homology(smoke, random.Random("graphs:%d" % seed))
    return workloads.cli_mix(tmpdir, ROOT, smoke)


def prepare_pass(workload, seed, index):
    """Seeded query order and inputs for one pass (benchmark work, untimed)."""
    rng = random.Random("pass:%d:%d" % (seed, index))
    queries = list(workload.queries)
    rng.shuffle(queries)
    return [(q, q.prepare(rng)) for q in queries]


def run_query(query, payload, tracer=None):
    """Time one query (traced if a tracer is given); returns (latency,
    answer), with answer None when the query raised or its output was
    unreadable."""
    from workloads import CliResult
    if tracer is not None:
        tracer.install()
        tracer.query = query.qid
    try:
        start = time.perf_counter()
        try:
            result = query.run(payload)
        except Exception as exc:  # a raising query counts as failed
            result = exc
        latency = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.query = None
            tracer.uninstall()
    if isinstance(result, Exception):
        print("bench: %s raised %s: %s"
              % (query.qid, type(result).__name__, result), file=sys.stderr)
        return latency, None
    if tracer is not None and isinstance(result, CliResult):
        tracer.add("stdout_bytes", len(result.stdout.encode("utf-8")))
    try:
        return latency, query.summarize(result)
    except Exception as exc:  # malformed output counts as failed
        print("bench: %s output unreadable: %s" % (query.qid, exc),
              file=sys.stderr)
        return latency, None


def run_pass(workload, prepared, tracer=None):
    """Run one pass; returns (latencies, traced latencies, raw latencies,
    answers, failed qids), latencies as {qid: seconds}, scaled to reference
    speed except the raw ones.

    With a tracer every query runs twice in a row, untraced and traced in
    alternating order, so the tracing overhead is measured in pairs that see
    the same machine state.
    """
    from workloads import check
    latencies, traced, raw = {}, {}, {}
    answers = {}
    failed = set()
    speed_kernel()                # warm, unmeasured
    before = speed_probe()
    for i, (query, payload) in enumerate(prepared):
        modes = (None,) if tracer is None else (
            (None, tracer) if i % 2 else (tracer, None))
        got, times = [], {}
        for t in modes:
            latency, answer = run_query(query, payload, t)
            times[t is None] = latency
            got.append(answer)
        after = speed_probe()
        for untraced, latency in times.items():
            at_ref = scale(latency, before, after)
            (latencies if untraced else traced)[query.qid] = at_ref
        raw[query.qid] = times[True]
        before = after
        answer = got[0]
        if answer is None or any(a != answer for a in got):
            failed.add(query.qid)
            continue
        answers[query.qid] = (query.source, answer)
        if not check(query, answer):
            print("bench: %s answered %s, expected %s"
                  % (query.qid, json.dumps(answer), json.dumps(query.expected)),
                  file=sys.stderr)
            failed.add(query.qid)
    if workload.cross_check is not None:
        bad = workload.cross_check(answers)
        for qid in sorted(bad - failed):
            print("bench: %s failed a cross-query check" % qid, file=sys.stderr)
        failed |= bad
    return latencies, traced, raw, answers, failed


def answers_digest(answers):
    import hashlib
    doc = json.dumps({q: a for q, (_, a) in sorted(answers.items())},
                     sort_keys=True)
    return hashlib.sha256(doc.encode("utf-8")).hexdigest()[:16]


def hd_quantile(values, p):
    """Harrell-Davis estimate of the p-quantile (Biometrika 69, 1982): an
    average of all order statistics weighted by the Beta(p(n+1), (1-p)(n+1))
    mass of their rank interval.  A single order statistic jumps when two
    queries of different cost swap ranks; this estimate moves smoothly."""
    x = sorted(values)
    n = len(x)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    steps = 64      # midpoint-rule points per rank interval
    h = 1.0 / (n * steps)
    logs = [(a - 1) * math.log(t) + (b - 1) * math.log(1 - t)
            for t in ((k + 0.5) * h for k in range(n * steps))]
    top = max(logs)
    dens = [math.exp(v - top) for v in logs]
    weights = [sum(dens[i * steps:(i + 1) * steps]) for i in range(n)]
    return sum(w * v for w, v in zip(weights, x)) / sum(weights)


def tail(latencies):
    """Latency at the highest percentile with MIN_TAIL values beyond it (the
    maximum for short lists); returns (value, percentile)."""
    n = len(latencies)
    if n <= MIN_TAIL:
        return max(latencies), 100.0
    p = (n - MIN_TAIL) / n
    return hd_quantile(latencies, p), 100.0 * p


def per_query_medians(passes):
    """{qid: median latency over the given passes}."""
    return {qid: statistics.median(p[qid] for p in passes)
            for qid in passes[0]}


def setup_probe(workload_name, seed, smoke):
    """Body of one set-up measurement, run in a fresh interpreter."""
    speed_kernel()                # warm, unmeasured
    before = speed_probe()
    start = time.perf_counter()
    _import_library()
    tmpdir = tempfile.mkdtemp(prefix=".bench-setup-", dir=ROOT)
    try:
        workload = build_workload(workload_name, seed, tmpdir, smoke)
        prepare_pass(workload, seed, 0)
        elapsed = time.perf_counter() - start
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    print(repr(elapsed), repr(scale(elapsed, before, speed_probe())))


class CoreRotation:
    """Pins this process to its allowed cores in turn.

    The cores of a shared machine run at speeds that differ and drift over
    minutes.  Rotating passes and set-up probes over all cores averages that
    out instead of letting a whole run land on the slow one.  Without
    sched_setaffinity (or with one core) it does nothing.
    """

    def __init__(self):
        get = getattr(os, "sched_getaffinity", None)
        self.allowed = sorted(get(0)) if get else []

    def select(self, index):
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, {self.allowed[index % len(self.allowed)]})

    def restore(self):
        if len(self.allowed) > 1:
            os.sched_setaffinity(0, self.allowed)


def measure_setup(args, cores):
    """Median set-up time over SETUP_PROBES fresh interpreters, after one
    unmeasured probe that lets the bytecode cache fill; returns (scaled,
    raw) seconds."""
    cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    raw, scaled = [], []
    for i in range(SETUP_PROBES + 1):
        cores.select(i)           # the probe inherits the core
        out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                             timeout=120, check=True, text=True).stdout
        if i:
            elapsed, at_ref = out.strip().splitlines()[-1].split()
            raw.append(float(elapsed))
            scaled.append(float(at_ref))
    return statistics.median(scaled), statistics.median(raw)


def commit_id():
    """HEAD commit read from .git without running git; "unknown" outside a
    repository."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("lattice", "homology", "cli_mix"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="small query lists, for the benchmark's own tests")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed, args.smoke)
        return 0

    _import_library()
    cores = CoreRotation()
    tmpdir = tempfile.mkdtemp(prefix=".bench-", dir=ROOT)
    try:
        setup = measure_setup(args, cores)
        return run(args, setup, tmpdir, cores)
    finally:
        cores.restore()
        shutil.rmtree(tmpdir, ignore_errors=True)


def run(args, setup, tmpdir, cores):
    tracer = None
    if args.trace:
        from tracing import Tracer
        tracer = Tracer()
    workload = build_workload(args.workload, args.seed, tmpdir, args.smoke)
    untraced, traced, raw = [], [], []    # {qid: latency} per pass
    digests = set()
    layer_metrics = []           # per traced pass
    attempted = failed = 0
    start = time.perf_counter()
    slowest = 0.0
    index = 0
    while True:
        pass_start = time.perf_counter()
        prepared = prepare_pass(workload, args.seed, index)
        cores.select(index)
        if tracer is not None:
            tracer.reset()
        latencies, traced_latencies, raw_latencies, answers, bad = run_pass(
            workload, prepared, tracer)
        untraced.append(latencies)
        raw.append(raw_latencies)
        if tracer is not None:
            traced.append(traced_latencies)
            layer_metrics.append(tracer.metrics())
            if index == 0:
                dump_trace(tracer, args)
        digests.add(answers_digest(answers))
        attempted += len(prepared)
        failed += len(bad)
        index += 1
        now = time.perf_counter()
        slowest = max(slowest, now - pass_start)
        if now - start + PASS_MARGIN * slowest > args.seconds:
            break

    medians = per_query_medians(untraced)
    tail_value, tail_pct = tail(list(medians.values()))
    meta = {
        "workload": args.workload, "seed": args.seed, "smoke": args.smoke,
        "commit": commit_id(), "python": platform.python_version(),
        "nproc": os.cpu_count(), "queries_per_pass": len(workload.queries),
        "untraced_passes": len(untraced), "traced_passes": len(traced),
        "tail_percentile": round(tail_pct, 2), "tail_samples": len(medians),
        "failed_frac": failed / attempted, "answer_digests": sorted(digests),
        "seconds": args.seconds, "speed_ref_s": SPEED_REF_S,
        "query_ms": {q: round(1e3 * v, 3) for q, v in sorted(medians.items())},
        "raw_wall_s": sum(per_query_medians(raw).values()),
        "raw_setup_s": setup[1],
    }
    if tracer is None:
        metrics = {
            "wall_s": (sum(medians.values()), "s"),
            "query_p50_ms": (1e3 * hd_quantile(medians.values(), 0.5), "ms"),
            "query_tail_ms": (1e3 * tail_value, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
            "setup_s": (setup[0], "s"),
        }
    else:
        metrics = merge_layer_metrics(layer_metrics)
        traced_wall = sum(per_query_medians(traced).values())
        untraced_wall = sum(medians.values())
        metrics["trace.wall_s"] = (traced_wall, "s")
        metrics["trace.untraced_wall_s"] = (untraced_wall, "s")
        metrics["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    print(json.dumps(meta, sort_keys=True))
    result = {"correct": failed == 0 and len(digests) == 1,
              "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in sorted(metrics.items())}}
    print(json.dumps(result))
    return 0


def merge_layer_metrics(per_pass):
    """Counts from the first traced pass, times as the median over passes."""
    out = {}
    for key, (value, unit) in per_pass[0].items():
        if unit == "s":
            value = statistics.median(m[key][0] for m in per_pass)
        out[key] = (value, unit)
    return out


def dump_trace(tracer, args):
    outdir = os.path.join(ROOT, ".bench_out")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, "trace-%s-seed%d.json" % (args.workload, args.seed))
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start", "end", "parent", "query"]})


if __name__ == "__main__":
    sys.exit(main())
