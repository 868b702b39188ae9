"""toruskit benchmark: end-to-end metrics, or per-layer metrics from a traced run.

    python3 perfbench/run.py --workload cold_tamagawa --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --smoke

Run from the root of a source tree; the package is imported from ``src/``.
With ``--trace 0`` the run measures end-to-end metrics over a closed loop
(one client, one query in flight).  With ``--trace 1`` it runs a fixed query
set three times (untraced, with spans around every public function, untraced
again) and reports per-layer metrics.  Query and set-up times are reference
seconds: wall time rescaled by the speed of a fixed probe run alongside
(refclock.py), because this code's speed on a shared host changes by half
within seconds.  The last
stdout line is one JSON object; the lines before it are a readable table.
Workloads and their reasons are in NOTES.md.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import subprocess
import sys
from contextlib import contextmanager
from importlib import metadata
from statistics import median
from time import perf_counter

SETUP_START = perf_counter()

import refclock  # noqa: E402  (imports numpy, which set-up needs anyway)

PROBE_INTERVAL_S = 0.1  # alarm probes inside in-process queries and set-up
PROBE_SPACING_S = 0.05  # in-process queries shorter than this run back to back
PROBE_WINDOW_S = 0.1  # ... each rescaled by the probes this close to it
NPROC = len(os.sched_getaffinity(0))
PINNED_CPU = refclock.pin_to_one_cpu()
SETUP_CLOCK = refclock.RefClock(PROBE_INTERVAL_S)
SETUP_CLOCK.start()
SETUP_MARK = SETUP_CLOCK.begin(since=SETUP_START)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

import tracer  # noqa: E402
from workloads import WORKLOADS, execute  # noqa: E402

SETUP_SAMPLES = 3  # this process plus two fresh interpreters
IMPORT_SAMPLES = 3
FLOOR_SAMPLES = 5


def load_toruskit():
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import toruskit
        import toruskit.cli  # noqa: F401
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import toruskit from {src}: {exc}")
    if not os.path.abspath(toruskit.__file__).startswith(src + os.sep):
        sys.exit(f"perfbench: toruskit came from {toruskit.__file__}, not {src}")
    return toruskit


def provenance():
    try:
        lines = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                               capture_output=True, text=True, timeout=10).stdout.split()
    except (OSError, subprocess.SubprocessError):
        lines = []
    # a checkout that is not itself a git work tree has no commit to record
    commit = lines[1] if len(lines) == 2 and os.path.samefile(lines[0], ROOT) else None

    def version(name):
        try:
            return metadata.version(name)
        except metadata.PackageNotFoundError:
            return None

    return {"git_commit": commit, "python": platform.python_version(),
            "numpy": version("numpy"), "scipy": version("scipy"),
            "nproc": NPROC, "pinned_cpu": PINNED_CPU, "machine": platform.machine()}


def _child(args, **kw):
    return subprocess.run([sys.executable] + args, capture_output=True, text=True,
                          timeout=180, cwd=ROOT, **kw)


def setup_probe(workload, seed, small):
    """Set-up time, in reference seconds, measured in a fresh interpreter."""
    argv = [__file__, "--workload", workload, "--seed", str(seed), "--setup-probe"]
    proc = _child(argv + (["--small"] if small else []))
    if proc.returncode:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(toruskit cumulative, outermost scipy imports cumulative) in seconds."""
    nodes = []  # (depth, name, cumulative us, children)
    pending: list = []
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "imported package" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        children = []
        while pending and pending[-1][0] > depth:
            children.insert(0, pending.pop())
        pending.append((depth, name.strip(), int(cumulative), children))
    nodes = pending

    def scipy_total(node):
        _, name, cum, children = node
        if name == "scipy" or name.startswith("scipy."):
            return cum
        return sum(scipy_total(c) for c in children)

    toruskit = sum(n[2] for n in nodes if n[1] == "toruskit")
    return toruskit / 1e6, sum(scipy_total(n) for n in nodes) / 1e6


def import_metrics():
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    samples = []
    for _ in range(IMPORT_SAMPLES):
        proc = _child(["-X", "importtime", "-c", "import toruskit"], env=env)
        if proc.returncode:
            raise RuntimeError(f"import probe failed: {proc.stderr[-500:]}")
        samples.append(parse_importtime(proc.stderr))
    floor = []
    for _ in range(FLOOR_SAMPLES):
        t0 = perf_counter()
        _child(["-c", "pass"])
        floor.append(perf_counter() - t0)
    return {"import.toruskit_s": median(s[0] for s in samples),
            "import.scipy_s": median(s[1] for s in samples),
            "cli.interp_floor_s": median(floor)}


def hd_quantile(values, p: float, grid: int = 20000) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, with the weights the Beta(p(n+1),
    (1-p)(n+1)) probability of each interval ((i-1)/n, i/n].  It uses every
    sample near the quantile rather than one or two, so it varies less
    between runs than the plain sample quantile.  The Beta CDF is integrated
    numerically on ``grid`` steps, which is plenty for these weights.
    """
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    logs = [(a - 1) * math.log(k / grid) + (b - 1) * math.log1p(-k / grid)
            for k in range(1, grid)]
    top = max(logs)
    cdf = [0.0]
    for v in logs:
        cdf.append(cdf[-1] + math.exp(v - top))
    cdf.append(cdf[-1])
    total = cdf[-1]
    edges = [cdf[round(i * grid / n)] / total for i in range(n + 1)]
    return sum((edges[i + 1] - edges[i]) * x for i, x in enumerate(xs))


def check_records(records):
    for r in records:
        try:
            r.ok = r.error is None and bool(r.query.check(r.answer))
        except Exception as exc:  # a broken answer is a wrong answer
            r.error = f"check raised {type(exc).__name__}: {exc}"
            r.ok = False
    return sum(1 for r in records if not r.ok)


@contextmanager
def paused_gc():
    """As in timeit: collector pauses would otherwise land on arbitrary queries."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def measure(wl, caches, seconds):
    """Closed loop, one query in flight, over a fixed number of whole rounds.

    A round is one pass over every input in seeded order (cold workloads) or
    one block of the warm session's stream.  The number of rounds is the
    number that filled ``seconds`` at the commit that defined the benchmark
    (``round_s``), so every run of every later commit measures the same work
    and the same mix, however fast it runs.  Queries are timed in reference
    seconds (refclock).  In-process queries are probed every
    PROBE_INTERVAL_S inside them and between them, at most every
    PROBE_SPACING_S.  A CLI query is a child process, so it is bracketed by
    child probes instead.
    """
    if getattr(wl, "in_process", True):
        clock = refclock.RefClock(PROBE_INTERVAL_S, spacing_s=PROBE_SPACING_S,
                                  window_s=PROBE_WINDOW_S)
    else:
        clock = refclock.RefClock(probe=refclock.child_probe, ref_s=refclock.REF_CHILD_PROBE_S)
    records = []
    if not wl.cold:
        caches.clear()
    with paused_gc(), clock:
        t0 = perf_counter()
        for _ in range(max(1, round(seconds / wl.round_s))):
            for q in wl.round():
                records.append(execute(q, caches, wl.cold, wl.time_limit_s, clock))
        wall = perf_counter() - t0
    clock.rescale(r.interval for r in records)
    return records, wall, clock


def end_to_end(args, wl, caches, setup_main):
    setups = [setup_main] + [setup_probe(args.workload, args.seed, args.small)
                             for _ in range(SETUP_SAMPLES - 1)]
    records, wall, clock = measure(wl, caches, args.seconds)
    failed = check_records(records)
    times = sorted(r.seconds for r in records)
    raw = sorted(r.raw_s for r in records)
    n = len(times)
    if args.workload == "cli_cold":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (median(setups), "s", len(setups)),
        "queries_per_s": (n / sum(times), "1/s", n),
        "query_p50_s": (hd_quantile(times, 0.5), "s", n),
        "peak_rss_mb": (rss_kb / 1024, "MB", 1),
    }
    extra = {"failed_frac": (failed / n, "ratio", n), "wall_s": (wall, "s", 1),
             "raw_queries_per_s": (n / sum(raw), "1/s", n),
             "raw_query_p50_s": (hd_quantile(raw, 0.5), "s", n),
             "probe_median_s": (median(clock.durations()), "s", len(clock.samples))}
    if n >= 100:  # at least ten samples beyond the 90th percentile
        extra["query_p90_s"] = (hd_quantile(times, 0.9), "s", n)
    extra.update(wl.extra_metrics(records))
    return records, failed, metrics, extra, clock.samples


def traced(args, wl, caches):
    """Per-layer metrics: the fixed query set untraced, traced, untraced again.

    The first pass warms the process up (allocator, first-use costs), so the
    overhead compares the traced pass with the second untraced one.
    """
    layer = import_metrics()
    queries = wl.trace_queries()
    t = tracer.Tracer()
    # probes between queries only: an alarm probe would land inside spans
    clock = refclock.RefClock()

    def run_pass(trace):
        if hasattr(wl, "reset"):
            wl.reset()
        caches.clear()
        before = caches.totals("toruskit.cohomology.")
        if trace:
            t.install()
        try:
            with paused_gc():
                out = []
                for i, q in enumerate(queries):
                    t.query_id = i
                    out.append(execute(q, caches, wl.cold, wl.time_limit_s, clock))
            clock.rescale(r.interval for r in out)
            seconds = sum(r.seconds for r in out)
        finally:
            if trace:
                t.uninstall()
        after = caches.totals("toruskit.cohomology.")
        return out, seconds, after[0] - before[0], after[1] - before[1]

    warm, _, _, _ = run_pass(False)
    records, traced_s, hits, misses = run_pass(True)
    plain, plain_s, _, _ = run_pass(False)
    failed = check_records(records)
    for a, b, c in zip(warm, records, plain):
        if b.ok and not (a.answer, a.error) == (b.answer, b.error) == (c.answer, c.error):
            b.ok, b.error = False, "traced answer differs from the untraced one"
            failed += 1
    os.makedirs(OUT, exist_ok=True)
    t.write(os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    layer.update(tracer.layer_metrics(t.spans))
    layer["cohomology.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else 0.0
    layer["cli.handler_s"] = plain_s / len(plain) if args.workload == "cli_cold" else 0.0
    layer["trace.overhead_frac"] = traced_s / plain_s - 1
    extra = {"untraced_pass_s": (plain_s, "s", len(plain)),
             "traced_pass_s": (traced_s, "s", len(records))}
    for qid, (classes, calls) in sorted(tracer.frobenius_by_query(t.spans).items()):
        extra[f"frob_classes/local_factors [{queries[qid].label}]"] = (classes, f"/{calls}", 1)
    return records, failed, layer, extra, clock.samples


def benchmark_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def report(args, records, failed, metrics, extra, probes, prov):
    spec = benchmark_spec()
    units = {m["name"]: m["unit"] for m in spec["per_layer"] + spec["end_to_end"]}
    if args.trace:
        shown = {k: (v, units[k], len(records)) for k, v in metrics.items()}
        result_metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
    else:
        shown = metrics
        result_metrics = {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()}
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} {json.dumps(prov)}")
    for name, (value, unit, n) in list(shown.items()) + list(extra.items()):
        print(f"{name:34s} {value:14.6g} {unit:6s} n={n}")
    for r in records:
        if not r.ok:
            print(f"FAILED {r.query.label}: {r.error or 'wrong answer'} -> {r.answer!r:.200}")
    result = {"correct": failed == 0, "attempted": len(records), "failed": failed,
              "metrics": result_metrics}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"provenance": prov, "result": result,
                   "extra": {k: {"value": v, "unit": u, "samples": n}
                             for k, (v, u, n) in extra.items()},
                   "queries": [{"label": r.query.label, "seconds": r.seconds, "raw_s": r.raw_s,
                                "start": r.interval.start, "end": r.interval.end,
                                "probes": r.interval.probes, "ok": r.ok, "error": r.error}
                               for r in records],
                   "probe_samples": probes}, fh)
    print(json.dumps(result))


def smoke():
    """Every workload at tiny sizes, untraced and traced, through this script."""
    spec = benchmark_spec()
    want = {0: {m["name"] for m in spec["end_to_end"]}, 1: {m["name"] for m in spec["per_layer"]}}
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = _child([__file__, "--workload", name, "--seed", "0", "--seconds", "1",
                           "--trace", str(trace), "--small"])
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
                good = (proc.returncode == 0 and result["correct"] and result["failed"] == 0
                        and set(result["metrics"]) == want[trace])
            except (ValueError, IndexError, KeyError):
                good, result = False, proc.stderr[-2000:]
            ok &= good
            print(f"smoke {name:18s} trace={trace} {'ok' if good else 'FAILED'}"
                  + ("" if good else f" {result}"))
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true", help="tiny inputs (smoke runs)")
    parser.add_argument("--smoke", action="store_true", help="run every workload at tiny sizes")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.smoke:
        SETUP_CLOCK.stop()
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    tk = load_toruskit()
    caches = tracer.CacheRegistry()
    # The traced CLI run calls toruskit.cli.main in this process, so the
    # wrappers see the handlers' work.
    kw = {"in_process": bool(args.trace)} if args.workload == "cli_cold" else {}
    wl = WORKLOADS[args.workload](tk, args.seed, args.small, OUT, **kw)
    setup = SETUP_CLOCK.end(SETUP_MARK)
    SETUP_CLOCK.stop()
    SETUP_CLOCK.rescale([setup])
    setup_main = setup.seconds
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_main}))
        return 0
    prov = provenance()
    if args.trace:
        result = traced(args, wl, caches)
    else:
        result = end_to_end(args, wl, caches, setup_main)
    report(args, *result, prov)
    return 0


if __name__ == "__main__":
    sys.exit(main())
