"""varlp benchmark: one workload, one seed, one process, closed loop.

    python3 bench/run.py --workload grid-operators --seed 1 --seconds 20 --trace 0

Operations run one at a time (a closed loop with one operation in flight).
Whole passes over the workload's operations repeat until the next pass
would end after --seconds, with a floor on the number of passes.  Every
operation's result is checked after the timed region; later passes must
reproduce the first pass bitwise.  With --trace 0 the last stdout line
holds the end-to-end metrics, with --trace 1 the per-layer metrics of a
traced run (see bench/README.md).  BLAS runs on one thread in this process
and in every child.  Each operation's optional `prepare` runs untimed before it.
"""

from __future__ import annotations

import os

BLAS_PIN = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_PIN:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

WORKLOADS = ("grid-operators", "norm-solves")
MIN_PASSES = 3
MIN_TRACE_ROUNDS = 2
SETUP_REPEATS = 9
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 170

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
                    "peak_rss_mb": "MiB", "fail_ratio": "1"}
# reported on the last line; fail_ratio goes there as `failed`/`attempted`,
# because a metric there may never be 0, and op_p90_ms is left to the report
# (see bench/README.md)
LAST_LINE_END_TO_END = ("wall_s", "setup_s", "op_p50_ms", "peak_rss_mb")


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in BLAS_PIN:
        env[var] = "1"
    return env


def timed_child(argv):
    """Run one fresh interpreter; return (seconds, completed process)."""
    t0 = time.perf_counter()
    proc = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def fresh_python(code, *args):
    return [sys.executable, "-c", code, *args]


def setup_probe(workload, seed):
    """Seconds from a fresh interpreter to inputs ready."""
    code = ("import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
            "import workloads; workloads.build(sys.argv[3], int(sys.argv[4]))")
    dt, proc = timed_child(fresh_python(code, SRC, BENCH, workload, str(seed)))
    if proc.returncode != 0:
        raise RuntimeError(f"set-up child failed:\n{proc.stderr}")
    return dt


def median_import_s():
    """`import varlp.cli` timed inside a fresh interpreter, median of IMPORT_REPEATS."""
    code = ("import time; t = time.perf_counter(); import varlp.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for _ in range(IMPORT_REPEATS):
        _, proc = timed_child(fresh_python(code))
        if proc.returncode != 0:
            raise RuntimeError(f"import child failed:\n{proc.stderr}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def fingerprint(obj):
    """Hashable digest of a result; equal digests mean bitwise-equal results."""
    h = hashlib.sha256()

    def feed(x):
        if dataclasses.is_dataclass(x) and not isinstance(x, type):
            h.update(type(x).__name__.encode())
            for field in dataclasses.fields(x):
                feed(getattr(x, field.name))
        elif hasattr(x, "dtype") and hasattr(x, "tobytes"):
            h.update(f"{x.dtype}{getattr(x, 'shape', ())}".encode())
            h.update(x.tobytes())
        elif isinstance(x, float):
            h.update(x.hex().encode())
        elif isinstance(x, dict):
            for k in sorted(x, key=repr):
                feed(k)
                feed(x[k])
        elif isinstance(x, (list, tuple, range)):
            h.update(f"[{len(x)}".encode())
            for item in x:
                feed(item)
        elif isinstance(x, (str, bytes, int, bool)) or x is None:
            h.update(repr(x).encode())
        else:
            raise TypeError(f"cannot fingerprint {type(x).__name__}")
        h.update(b";")

    feed(obj)
    return h.hexdigest()


class Passes:
    """Timed passes over a list of operations, with bitwise replay checks."""

    def __init__(self):
        self.walls = []          # seconds per pass
        self.latencies = []      # per pass, seconds per operation
        self.first = None        # results of the first pass
        self.digests = None      # fingerprints of the first pass
        self.mismatch = {}       # op index -> passes whose result differed

    def record(self, wall, lats, results):
        self.walls.append(wall)
        self.latencies.append(lats)
        digests = [fingerprint(r) for r in results]
        if self.first is None:
            self.first, self.digests = results, digests
            return
        for i, (d0, d) in enumerate(zip(self.digests, digests)):
            if d != d0:
                self.mismatch[i] = self.mismatch.get(i, 0) + 1

    @property
    def count(self):
        return len(self.walls)

    def fastest(self):
        """Each operation's fastest latency over the passes, in seconds."""
        return [min(x) for x in zip(*self.latencies)]


def timed_pass(run, one_pass):
    gc.collect()
    t0 = time.perf_counter()
    lats, results = one_pass()
    run.record(time.perf_counter() - t0, lats, results)


def repeat(seconds, min_rounds, one_round):
    """Call one_round until the next call would end after `seconds`."""
    start = time.perf_counter()
    rounds = 0
    while True:
        t0 = time.perf_counter()
        one_round()
        rounds += 1
        now = time.perf_counter()
        if rounds >= min_rounds and (now - start) + (now - t0) > seconds:
            return


def library_pass(ops):
    def one_pass():
        lats, results = [], []
        clock = time.perf_counter
        for op in ops:
            if op.prepare is not None:
                op.prepare()
            t0 = clock()
            res = op.run()
            lats.append(clock() - t0)
            results.append(res)
        return lats, results

    return one_pass


# -- reporting ----------------------------------------------------------------------


def metadata(workload, seed, seconds, trace):
    import numpy
    try:
        import scipy
        scipy_version = scipy.__version__
    except ImportError:
        scipy_version = "absent"
    commit = "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=30).stdout.split()
        if len(out) == 2 and os.path.realpath(out[0]) == os.path.realpath(ROOT):
            commit = out[1]
    except (OSError, subprocess.SubprocessError):
        pass
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "commit": commit, "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy_version, "nproc": os.cpu_count(), "cpu": cpu,
        "blas_pin": {var: os.environ.get(var) for var in BLAS_PIN},
        "loop": "closed, one operation in flight, one process",
    }


def emit(report, last_line_metrics, units):
    meta = report["meta"]
    print(f"# varlp benchmark  workload={meta['workload']} seed={meta['seed']} "
          f"trace={meta['trace']}")
    for key in ("commit", "python", "numpy", "scipy", "nproc", "cpu", "blas_pin", "loop"):
        print(f"meta.{key} = {meta[key]}")
    for line in report["notes"]:
        print(line)
    for name, value in report["metrics"].items():
        print(f"{name} = {value!r} {units[name]}")
    for name, why in report["omitted"].items():
        print(f"{name} omitted: {why}")
    print(f"fail_ratio = {report['failed']}/{report['attempted']}"
          f" = {report['failed'] / report['attempted']!r} 1")
    for name, why in report["failures"].items():
        print(f"FAILED {name}: {why}")
    name = f"report-{meta['workload']}-seed{meta['seed']}-trace{meta['trace']}.json"
    with open(os.path.join(WORK, name), "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    print(json.dumps({
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": report["metrics"][k], "unit": units[k]}
                    for k in last_line_metrics},
    }))


def verdicts(names, checks, runs):
    """Check the first pass of runs[0]; every later pass, and every pass of the
    other runs, must reproduce it bitwise.  Returns (failures by operation
    name, operations attempted, operations failed), counting every pass."""
    failures = {}
    for name, check, res in zip(names, checks, runs[0].first):
        try:
            why = check(res)
        except Exception as exc:  # a check that crashes is a failed check
            why = f"check raised {type(exc).__name__}: {exc}"
        if why:
            failures[name] = why
    for run in runs:
        for i, n in run.mismatch.items():
            failures.setdefault(names[i], f"result changed between passes ({n} passes)")
        for name, d0, d in zip(names, runs[0].digests, run.digests):
            if d != d0:
                failures.setdefault(name, "result differs with tracing on")
    passes = sum(run.count for run in runs)
    return failures, passes * len(names), passes * len(failures)


def end_to_end(workload, seed, seconds, one_pass, names):
    """Untraced passes, with the set-up probes spread between them."""
    run, setups = Passes(), []
    start = time.perf_counter()

    def one_round():
        # probe i is due i/SETUP_REPEATS of the way through the run, so the
        # median sees the host as the passes do
        due = start + len(setups) * seconds / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and time.perf_counter() >= due:
            setups.append(setup_probe(workload, seed))
        timed_pass(run, one_pass)

    repeat(seconds, MIN_PASSES, one_round)
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_probe(workload, seed))
    usage = resource.getrusage(resource.RUSAGE_SELF)
    op_ms = {name: 1e3 * t for name, t in zip(names, run.fastest())}
    lat_ms = list(op_ms.values())
    m, omitted = {}, {}
    m["wall_s"] = sum(lat_ms) / 1e3
    m["setup_s"] = statistics.median(setups)
    m["op_p50_ms"] = statistics.median(lat_ms)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    beyond = sum(1 for x in lat_ms if x > p90)
    if beyond >= 10:
        m["op_p90_ms"] = p90
    else:
        omitted["op_p90_ms"] = (f"only {beyond} of {len(lat_ms)} operations lie beyond the "
                                "90th percentile; at least 10 are needed")
    m["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    notes = [
        f"passes = {run.count}, latency samples = {len(lat_ms)} operations x {run.count} passes",
        "pass walls (s) = " + " ".join(f"{w:.4f}" for w in run.walls),
        "an operation's latency is its fastest pass; wall_s sums them, op_p50_ms and "
        "op_p90_ms are taken over the operations",
        f"setup_s is the median of {SETUP_REPEATS} fresh interpreters, spread over the run",
        "peak_rss_mb is this process, read before the checks run",
    ]
    return [run], m, omitted, notes, op_ms


def layers(seconds, one_pass):
    """Untraced and traced passes in this process, alternating."""
    import tracer as T
    plain, traced, tr = Passes(), Passes(), T.Tracer()
    # the first pass in a process pays one-off costs (lazy imports, the
    # allocator growing its heap); keep it out of both sides of the overhead
    timed_pass(Passes(), one_pass)

    def one_round():
        timed_pass(plain, one_pass)
        with tr:
            timed_pass(traced, one_pass)

    repeat(seconds, MIN_TRACE_ROUNDS, one_round)
    m = T.layer_metrics(tr, traced.count)
    m["cli.import_s"] = median_import_s()
    m["trace.overhead_s"] = sum(traced.fastest()) - sum(plain.fastest())
    notes = [
        f"untraced passes = {plain.count}, traced passes = {traced.count}, "
        f"spans = {len(tr.spans)}; layer metrics are per traced pass",
    ]
    return [plain, traced], m, {}, notes, {}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn SIGTERM into SystemExit so subprocess.run kills and reaps its child
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not os.path.isfile(os.path.join(SRC, "varlp", "__init__.py")):
        print(f"error: no varlp sources at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH]
    os.makedirs(WORK, exist_ok=True)
    import varlp
    if os.path.dirname(os.path.abspath(varlp.__file__)) != os.path.join(SRC, "varlp"):
        print(f"error: imported varlp from {varlp.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads as W

    seed = args.seed % 2 ** 31
    ops = W.build(args.workload, seed)
    names = [op.name for op in ops]
    checks = [op.check for op in ops]
    if len(set(names)) != len(names):
        raise RuntimeError("operation names must be unique")

    try:
        if args.trace:
            runs, metrics, omitted, notes, op_ms = layers(args.seconds, library_pass(ops))
            units, last = layer_units(metrics), tuple(metrics)
        else:
            runs, metrics, omitted, notes, op_ms = end_to_end(
                args.workload, seed, args.seconds, library_pass(ops), names)
            units, last = END_TO_END_UNITS, LAST_LINE_END_TO_END
    finally:
        shutil.rmtree(W.CLI_DIR, ignore_errors=True)
    failures, attempted, failed = verdicts(names, checks, runs)
    report = {
        "meta": metadata(args.workload, args.seed, args.seconds, args.trace),
        "notes": [f"operations per pass = {len(names)}"] + notes,
        "metrics": metrics, "omitted": omitted, "failures": failures,
        "attempted": attempted, "failed": failed, "op_fastest_ms": op_ms,
        # only the documented float-range cases may fail; they still count in `failed`
        "correct": all(name in W.KNOWN_FLOAT_RANGE_FAILURES for name in failures),
    }
    emit(report, last, units)
    return 0


def layer_units(metrics):
    units = {}
    for name in metrics:
        if name.endswith("_per_solve"):
            units[name] = "calls/solve"
        elif name.endswith(".calls") or name.endswith(".cells"):
            units[name] = "count"
        else:
            units[name] = "s"
    return units


if __name__ == "__main__":
    sys.exit(main())
