"""End-to-end benchmark of plmonster, with an optional per-layer trace.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the library from ``src``.
Each run is a closed loop with one caller: the next operation starts when
the previous one has returned.  Workloads (see workloads.py):

word-decide       planted-trivial words and one-syllable perturbations,
                  2..48 syllables, decided in one shared default context;
                  Britton reduction and power detection with warm caches.
tuple-member      tuple_map_report plus is_member over Thompson (lam 2)
                  and Stein (2,3) (lam 6), depth <= 4, 3..6 points; cost
                  follows the lam**-q grid, not the output.
rotation-certify  rotation_number of h^-1 r h: rational rotations p/q,
                  q <= 40, and g0 certified to Q = 50 at depth 200;
                  kernel-bound composition with growing integers.
cli-roundtrip     one ``python -m plmonster.cli`` child per operation, from
                  the element/rot, word and tuple-map/member/power
                  pipelines; start-up, import, serialize, cold contexts.

With ``--trace 0`` it reports the end-to-end metrics:

ops_per_s      operations per second of operation time
op_p50_ms      median operation latency
op_p90_ms      90th percentile latency (a run makes at least 100
               operations, so at least 10 lie beyond it)
ok_ops_ratio   1 - failed_ops_ratio, where failed operations are wrong
               verdicts plus raised exceptions
setup_s        median over SETUP_REPS of: importing plmonster in a fresh
               interpreter, building an amalgam context and the inputs
peak_rss_mb    peak resident memory of this process (of its children
               for cli-roundtrip)

Times are scaled to a reference host speed.  The speed of a shared
virtual machine drifts by a quarter over seconds to minutes, which moved
15-second means of the same workload by 10 to 30 percent.  So a fixed
stdlib-only probe (`probe`) runs between operations about every
PROBE_EVERY_S seconds and around each set-up, and every time is
multiplied by PROBE_REFERENCE_S over the probe duration measured around
it.  On a steady host this changes times by a constant factor only.  The
report line holds the unscaled figures too.

With ``--trace 1`` it sets up once, runs a fixed number of operations
untraced and then the same operations again with every layer wrapped
(spans.py).  It reports the per-layer metrics of the traced operations
and ``trace.overhead_ratio``, traced wall time over untraced wall time.
Traced and untraced verdicts must agree.

Every result is checked against an oracle known by construction.  The
line before the last is a report with the seed, the kernel backend, the
Python version, nproc, the sample count, failed_ops_ratio, the first
failures and the input manifest; the last line is the result object.
"""

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPS = 3
MIN_OPS = 100
PROBE_EVERY_S = 0.2
PROBE_SMOOTHING = 2
# About the probe's median duration on the reference host (2-vCPU Intel Xeon VM,
# CPython 3.11.7); reported times are scaled to that speed.
PROBE_REFERENCE_S = 0.0012
MAX_REPORTED_FAILURES = 5

IMPORT_TIMER = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import plmonster\n"
    "print(repr(time.perf_counter() - t))\n"
)


def import_seconds(env):
    """Seconds a fresh interpreter takes to import plmonster."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_TIMER],
        env=env, capture_output=True, text=True, check=True)
    return float(done.stdout)


def timed_setup(workload, seed):
    """(seconds, pool) for one full set-up, as setup_s counts it."""
    import workloads

    import_s = import_seconds(workloads.child_env())
    start = perf_counter()
    pool = workload.setup(seed)
    return import_s + perf_counter() - start, pool


def probe_kernel():
    """A fixed stdlib-only task: Fraction arithmetic plus an integer loop."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 7) * Fraction(3, i + 1)
    s = 0
    for i in range(8000):
        s += i * i % 7
    return acc, s


def probe():
    """Seconds the probe kernel takes now: the host's current speed.

    The collector is off meanwhile, so the probe does not depend on how
    much the workload keeps in memory.
    """
    best = None
    gc.disable()
    try:
        for _ in range(3):
            start = perf_counter()
            probe_kernel()
            took = perf_counter() - start
            if best is None or took < best:
                best = took
    finally:
        gc.enable()
    return best


def run_ops(workload, pool, count=None, seconds=None, min_ops=0, probe_every=None):
    """Closed loop over the pool: `count` operations, or until `seconds`.

    Returns (wall seconds, [(index, latency, result)], probes).  An
    exception is the operation's result and counts as a failure.  With
    `probe_every`, the host probe runs between operations about that
    often and once more at the end; ``probes`` lists (number of operations
    done before it, seconds).
    """
    done = []
    probes = []
    n = len(pool)
    start = perf_counter()
    deadline = None if seconds is None else start + seconds
    next_probe = start
    i = 0
    while True:
        if count is not None and i >= count:
            break
        if probe_every is not None and perf_counter() >= next_probe:
            probes.append((i, probe()))
            next_probe = perf_counter() + probe_every
        t0 = perf_counter()
        try:
            result = workload.op(pool[i % n])
        except Exception as exc:  # a raised exception is a failed operation
            result = exc
        t1 = perf_counter()
        done.append((i % n, t1 - t0, result))
        i += 1
        if deadline is not None and t1 >= deadline and i >= min_ops:
            break
    if probe_every is not None:
        probes.append((i, probe()))
    return perf_counter() - start, done, probes


def scaled_latencies(done, probes):
    """Each latency at the reference speed, from the probes around it.

    A probe reading is the median of it and its PROBE_SMOOTHING neighbours
    on each side, which damps the probe's own noise; the host's slow and
    fast spells last seconds, longer than that window.
    """
    seconds = [s for _, s in probes]
    smooth = [
        statistics.median(seconds[max(0, k - PROBE_SMOOTHING):k + PROBE_SMOOTHING + 1])
        for k in range(len(seconds))
    ]
    out = []
    k = 0
    for j, (_, latency, _) in enumerate(done):
        while probes[k + 1][0] <= j:
            k += 1
        host = (smooth[k] + smooth[k + 1]) / 2
        out.append(latency * PROBE_REFERENCE_S / host)
    return out


def check_all(workload, pool, done):
    """Failure reasons, one per failed operation; each input is checked once."""
    first = {}
    failures = []
    for index, _, result in done:
        if isinstance(result, Exception):
            failures.append("%s: %s" % (type(result).__name__, result))
            continue
        if index in first:
            seen, reason = first[index]
            if result != seen:
                reason = "result differs from an earlier run of the same input"
            elif reason is None:
                continue
        else:
            try:
                reason = workload.check(pool[index], result)
            except Exception as exc:  # an oracle that cannot run is a failure too
                reason = "check raised %s: %s" % (type(exc).__name__, exc)
            first[index] = (result, reason)
        if reason is not None:
            failures.append(reason)
    return failures


def peak_rss_mb(children):
    """Peak resident memory of this process, or of its largest waited-for child."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0  # ru_maxrss is in KiB


def make_workload(name, workdir, tracer):
    import workloads

    cls = workloads.WORKLOADS[name]
    if cls is workloads.CliRoundtrip:
        return cls(workdir, tracer)
    return cls()


def measure(name, seed, seconds, workdir, mutate=None, setup_reps=SETUP_REPS,
            min_ops=MIN_OPS):
    """The untraced run: end-to-end metrics, failures and the report."""
    workload = make_workload(name, workdir, None)
    setups = []
    for _ in range(setup_reps):
        before = probe()
        took, pool = timed_setup(workload, seed)
        host = (before + probe()) / 2
        setups.append((took, took * PROBE_REFERENCE_S / host))
    if mutate is not None:
        mutate(workload, pool)
    run_ops(workload, pool, count=min(workload.warmup_ops, len(pool)))
    wall, done, probes = run_ops(
        workload, pool, seconds=seconds, min_ops=min_ops, probe_every=PROBE_EVERY_S)
    rss = peak_rss_mb(children=workload.runs_children)
    failures = check_all(workload, pool, done)
    attempted = len(done)
    raw = sorted(lat for _, lat, _ in done)
    scaled = sorted(scaled_latencies(done, probes))
    metrics = {
        "ops_per_s": (attempted / sum(scaled), "1/s"),
        "op_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "op_p90_ms": (1e3 * p90(scaled), "ms"),
        "ok_ops_ratio": (1.0 - len(failures) / attempted, "ratio"),
        "setup_s": (statistics.median(s for _, s in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
    }
    report = {
        "unscaled": {
            "ops_per_s": attempted / wall,
            "op_p50_ms": 1e3 * statistics.median(raw),
            "op_p90_ms": 1e3 * p90(raw),
            "setup_s": statistics.median(t for t, _ in setups),
        },
        "probe_s": {
            "reference": PROBE_REFERENCE_S,
            "median": statistics.median(p for _, p in probes),
            "count": len(probes),
        },
        "manifest": workload.manifest([(pool[i], r) for i, _, r in done]),
    }
    return attempted, failures, metrics, report


def p90(ordered):
    return statistics.quantiles(ordered, n=10, method="inclusive")[8]


def measure_traced(name, seed, seconds, workdir):
    """The traced run: per-layer metrics of a fixed number of operations.

    The same operations run untraced and then traced, after the usual
    warm-up; set-up is not traced, since setup_s already covers it.
    """
    import spans

    tracer = spans.Tracer()
    workload = make_workload(name, workdir, tracer)
    _, pool = timed_setup(workload, seed)
    run_ops(workload, pool, count=min(workload.warmup_ops, len(pool)))
    count = min(workload.trace_ops, len(pool))
    plain_wall, plain_done, _ = run_ops(workload, pool, count=count, seconds=seconds)
    tracer.install(spans.library_specs())
    try:
        tracer.active = True
        traced_wall, traced_done, _ = run_ops(workload, pool, count=len(plain_done))
    finally:
        tracer.active = False
        tracer.uninstall()

    failures = check_all(workload, pool, plain_done)
    for (i, _, a), (_, _, b) in zip(plain_done, traced_done):
        if isinstance(a, Exception) or isinstance(b, Exception) or a != b:
            failures.append("input %d: traced result differs from untraced" % i)

    values = spans.layer_metrics(tracer, traced_wall)
    values["trace.ops"] = len(traced_done)
    values["trace.overhead_ratio"] = traced_wall / plain_wall
    metrics = {key: (value, unit_of(key)) for key, value in values.items()}
    report = {"manifest": workload.manifest([(pool[i], r) for i, _, r in plain_done])}
    return len(traced_done), failures, metrics, report


def unit_of(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("bits_max"):
        return "bits"
    if metric.startswith("serialize.bytes"):
        return "bytes"
    return "count"


def environment(seed):
    import plmonster

    return {
        "seed": seed,
        "backend": plmonster.BACKEND,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
    }


def run(name, seed, seconds, trace, mutate=None, **limits):
    """One benchmark run; returns (report, result) as printed by `main`."""
    os.makedirs(WORK, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        if trace:
            attempted, failures, metrics, report = measure_traced(name, seed, seconds, workdir)
        else:
            attempted, failures, metrics, report = measure(
                name, seed, seconds, workdir, mutate, **limits)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:
            pass  # another run still uses it
    report = dict(
        workload=name,
        trace=trace,
        **environment(seed),
        samples=attempted,
        failed_ops_ratio=len(failures) / attempted,
        failures=failures[:MAX_REPORTED_FAILURES],
        **report,
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def parse_args(argv):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None):
    if not os.path.isfile(os.path.join(SRC, "plmonster", "__init__.py")):
        sys.stderr.write("perfbench: no plmonster sources under %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    args = parse_args(argv)
    report, result = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
