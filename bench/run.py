#!/usr/bin/env python3
"""Benchmark for taubnut: seeded workloads, end-to-end metrics with
tracing off, per-layer metrics from a separate traced run.

Run from the repository root:

    python3 bench/run.py --workload verify_all --seed 42 --seconds 50 --trace 0

BENCHMARK.json gates verify_all and closed_form; orbit_dense and orbit_edge
run the same way but are not gated (bench/metric_map.json says why).

Each workload is a closed loop with one caller in one process and one thread
(BLAS and OpenMP pools are pinned to one thread below). The package is
imported from ``src/`` of this checkout; the run fails without printing a
result when those sources are missing. The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``, the
end-to-end metrics named in BENCHMARK.json with ``--trace 0`` and the
per-layer ones with ``--trace 1``. ``failed`` counts ops whose output missed
its check against an independent route; ``correct`` is false, and the exit
code 1, when an op raised or when an input run twice gave different outputs
or (traced) different deterministic counts. Earlier lines print every metric with its
unit, the measured failure fraction and error ratio, the deterministic counts
and the environment. The error ratio and the counts are taken over each
workload's fixed set of inputs (FIXED in workloads.py), and the traced run
runs only that set, so neither depends on the host's speed. The traced run
writes its spans to ``.bench_trace/<workload>-seed<seed>.npz``.
``bench/metric_map.json`` records which end-to-end metric and workload each
per-layer metric should move.

setup_s is measured in fresh child processes, one at a time: each imports
taubnut, builds the inputs from the seed and runs one untimed warm-up op, and
reports the moment it is ready. time.perf_counter reads CLOCK_MONOTONIC on
Linux, which all processes share, so the parent subtracts its own reading
taken just before the spawn.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 5
PROBE_TIMEOUT = 60
TRACE_DIR = os.path.join(ROOT, ".bench_trace")  # spans of traced runs


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def _read_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from exc


def load_spec() -> tuple:
    """BENCHMARK.json, checked against the metric map kept beside this file,
    and the names of all workloads: the map also lists those BENCHMARK.json
    leaves out, with the reason."""
    spec = _read_json(os.path.join(ROOT, "BENCHMARK.json"))
    mapped = _read_json(os.path.join(HERE, "metric_map.json"))
    named = [m["name"] for m in spec["per_layer"]]
    if sorted(named) != sorted(mapped["per_layer"]):
        raise BenchError("per-layer metrics of BENCHMARK.json and metric_map.json differ")
    if not {w["name"] for w in spec["workloads"]} <= set(mapped["workloads"]):
        raise BenchError("BENCHMARK.json names a workload metric_map.json does not list")
    return spec, list(mapped["workloads"])


def require_sources() -> None:
    if not os.path.isfile(os.path.join(SRC, "taubnut", "__init__.py")):
        raise BenchError(f"taubnut sources not found under {SRC}")


def import_package() -> float:
    """Import taubnut from this checkout's sources; returns the import time."""
    require_sources()
    sys.path.insert(0, SRC)
    start = time.perf_counter()
    import taubnut  # noqa: F401  (imports every module of the package)
    elapsed = time.perf_counter() - start
    origin = os.path.realpath(taubnut.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise BenchError(f"taubnut imported from {origin}, not from {SRC}")
    return elapsed


def set_up(name: str, seed: int, outdir: str):
    """Import, build the inputs and run one untimed warm-up op."""
    import_s = import_package()
    import workloads

    workload = workloads.WORKLOADS[name](outdir)
    inputs = workload.inputs(seed)
    workload.run(inputs[0])
    return workload, inputs, import_s


def probe_setup(args) -> list:
    """Set up SETUP_PROBES times in fresh processes; (setup_s, import_s) each."""
    samples = []
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", "0", "--probe"]
        start = time.perf_counter()
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                                  timeout=PROBE_TIMEOUT)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("set-up probe timed out") from exc
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()}")
        ready = json.loads(proc.stdout.strip().splitlines()[-1])
        samples.append((ready["ready"] - start, ready["import_s"]))
    return samples


def run_ops(workload, inputs, indices=None, seconds=None):
    """Closed loop over inputs, either for `seconds` or over `indices`.
    Returns per-op latencies, outcomes and the wall time of the phase."""
    from workloads import failed_outcome

    latencies, outcomes = [], []
    reported = False
    clock = time.perf_counter
    start = clock()
    deadline = None if seconds is None else start + seconds
    i = 0
    while (clock() < deadline) if indices is None else (i < len(indices)):
        x = inputs[(i if indices is None else indices[i]) % len(inputs)]
        t0 = clock()
        try:
            out = workload.run(x)
        except Exception as exc:  # a failed op is counted, not fatal
            latencies.append(clock() - t0)
            if not reported:
                traceback.print_exc(file=sys.stderr)
                reported = True
            outcomes.append(failed_outcome(exc))
        else:
            latencies.append(clock() - t0)
            outcomes.append(workload.check(x, out))
        i += 1
    return latencies, outcomes, clock() - start


def tail(latencies) -> tuple:
    """The highest percentile with at least ten samples beyond it, never
    below the median: (value, percentile)."""
    ordered = sorted(latencies)
    n = len(ordered)
    idx = n - 11
    if idx < (n - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[idx], 100.0 * (n - 10) / n


def repeats_differ(keys, signatures) -> list:
    """The deterministic gate: ops on the same input must give identical
    signatures. Returns the positions that differ from the first op on
    their input."""
    first = {}
    return [i for i, (key, sig) in enumerate(zip(keys, signatures))
            if first.setdefault(key, sig) != sig]


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def untraced(args, workload, inputs, setups, spec):
    import workloads

    latencies, outcomes, wall = run_ops(workload, inputs, seconds=args.seconds)
    n = len(outcomes)
    # fixed-set inputs the timed phase did not reach run now, untimed, and
    # the first op is replayed
    late = list(range(n, workload.FIXED)) + [0]
    _, extra, _ = run_ops(workload, inputs, indices=late)
    keys = [i % len(inputs) for i in range(n)] + late
    bad = repeats_differ(keys, [o.signature for o in outcomes + extra])
    fixed = (outcomes + extra)[:workload.FIXED]

    failed = sum(not o.ok for o in outcomes)
    p_tail, pct = tail(latencies)
    err = max(o.err_ratio for o in fixed)
    values = {
        "setup_s": statistics.median(s for s, _ in setups),
        "ops_per_s": n / wall,
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_tail_ms": p_tail * 1e3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    notes = {
        "setup_s": "median of %d fresh processes: %s" % (
            len(setups), ", ".join(f"{s:.4f}" for s, _ in setups)),
        "op_tail_ms": f"p{pct:.1f} of n={n} ops",
    }
    for m in spec["end_to_end"]:
        print(f"{m['name']:<14} {values[m['name']]:.6g} {m['unit']}"
              + (f"  ({notes[m['name']]})" if m["name"] in notes else ""))
    print(f"{'failed_frac':<14} {failed / n:.6g} ratio  ({failed} failed of {n} attempted)")
    print(f"{'err_ratio':<14} {err:.6g} ratio  (largest deviation from the independent "
          f"route over the package tolerance, on the first {workload.FIXED} inputs)")
    print(f"counts: ops={n} wall_s={wall:.4f} first {workload.FIXED} inputs "
          f"{json.dumps(workloads.sum_counts(fixed))}")
    if bad:
        print(f"deterministic gate: output differs on repeated input at ops {bad[:10]}",
              file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["end_to_end"]}
    raised = any(o.raised for o in outcomes + extra)
    return not bad and not raised, n, failed, metrics


def traced(args, workload, inputs, setups, spec):
    """Per-layer metrics over whole passes of the fixed set. Each op runs
    untraced and then traced on the same input, so that a change in the
    host's speed weighs on both sides of the overhead ratio alike. There are
    at least two passes, and another starts only while it would end within
    --seconds at the last pass's pace; the deterministic gate compares every
    traced pass with the first."""
    import tracing

    tracer = tracing.Tracer()
    marks, outcomes = [], []
    t_base = t_traced = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        began = time.perf_counter()
        for i in range(workload.FIXED):
            t_base += run_ops(workload, inputs, indices=[i])[2]
            marks.append(len(tracer.spans))
            tracer.install()
            try:
                _, outs, wall = run_ops(workload, inputs, indices=[i])
            finally:
                tracer.uninstall()
            outcomes += outs
            t_traced += wall
        passes += 1
        now = time.perf_counter()
        if passes >= 2 and (now - start) + (now - began) > args.seconds:
            break
    marks.append(len(tracer.spans))
    per_op = []
    for i, o in enumerate(outcomes):
        counts = tracing.op_counts(tracer.spans[marks[i]:marks[i + 1]])
        counts.update(o.counts)
        per_op.append((counts, o.signature))
    bad = repeats_differ([i % workload.FIXED for i in range(len(outcomes))], per_op)

    n = len(outcomes)
    values = tracing.layer_metrics(tracer.spans, n)
    values["cli.report_bytes"] = sum(o.counts.get("report_bytes", 0) for o in outcomes) / n
    values["cli.import_s"] = statistics.median(s for _, s in setups)
    values["trace.overhead_ratio"] = t_traced / t_base

    for m in spec["per_layer"]:
        print(f"{m['name']:<40} {values[m['name']]:.6g} {m['unit']}")
    print(f"{passes} passes of the first {workload.FIXED} inputs, each op untraced "
          f"then traced: untraced_s={t_base:.4f} traced_s={t_traced:.4f} "
          f"spans={len(tracer.spans)}")
    print(f"counts per op, first input: {json.dumps(per_op[0][0], sort_keys=True)}")
    path = os.path.join(TRACE_DIR, f"{args.workload}-seed{args.seed}.npz")
    tracing.write_spans(path, tracer.spans)
    print(f"spans written to {os.path.relpath(path, ROOT)}")
    if bad:
        print(f"deterministic gate: counts differ on repeated input at traced ops {bad[:10]}",
              file=sys.stderr)
    failed = sum(not o.ok for o in outcomes)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return not bad and not any(o.raised for o in outcomes), n, failed, metrics


def main(argv=None) -> int:
    spec, names = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")

    require_sources()
    outdir = os.path.join(ROOT, ".bench_out", str(os.getpid()))
    os.makedirs(outdir, exist_ok=True)
    try:
        if args.probe:
            _, _, import_s = set_up(args.workload, args.seed, outdir)
            print(json.dumps({"ready": time.perf_counter(), "import_s": import_s}))
            return 0
        setups = probe_setup(args)
        workload, inputs, _ = set_up(args.workload, args.seed, outdir)
        print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
              f"trace={args.trace}")
        print(f"# env {json.dumps(environment())}")
        run = traced if args.trace else untraced
        correct, attempted, failed, metrics = run(args, workload, inputs, setups, spec)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(outdir))
        except OSError:
            pass
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
