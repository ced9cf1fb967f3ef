"""One workload process: set up, warm up, run the timed phase, report.

``run.py`` starts this script once per set-up measurement and once for the
measured run; it is not meant to be imported.  The process pins BLAS and
OpenMP to one thread before numpy is imported, imports backaction from the
checkout's ``src``, builds the workload, runs one untimed warm-up op and
then, unless ``--setup-only``, runs ops in a closed loop with one client
for ``--seconds`` seconds, stopping at the first whole cycle of the
workload's op mix after that.  It prints one JSON object on stdout.
"""

import time

START_NS = time.perf_counter_ns()

import os  # noqa: E402

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Failures printed to stderr per phase; all of them are counted.
SHOWN_FAILURES = 5


def _seconds(ns):
    return ns / 1e9


def import_program():
    """Import numpy and backaction from this checkout; resolve the listed names."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import numpy  # noqa: F401
    import backaction
    if Path(backaction.__file__).resolve().parent != SRC / "backaction":
        raise ImportError(f"backaction imported from {backaction.__file__}, "
                          f"not from {SRC}")
    from program import resolve
    api = json.loads((BENCH / "spec.json").read_text(encoding="utf-8"))["api"]
    return resolve(api)


def run_op(workload, call, op):
    """Time one op, then check it.

    Returns (start ns, end ns, CPU ns, failure, out): the wall-clock start
    and end, and the CPU time of this thread in between, which leaves out
    any time the OS ran something else on the core.
    """
    start = time.perf_counter_ns()
    cpu = time.thread_time_ns()
    try:
        out = workload.run(call, op)
    except Exception as exc:  # a refused or crashed op is a failed op
        cpu = time.thread_time_ns() - cpu
        return (start, time.perf_counter_ns(), cpu,
                f"{type(exc).__name__}: {exc}", None)
    cpu = time.thread_time_ns() - cpu
    end = time.perf_counter_ns()
    try:
        failed = workload.check(op, out)
    except Exception as exc:
        failed = [f"check raised {type(exc).__name__}: {exc}"]
    return start, end, cpu, ", ".join(failed) or None, out


def timed_phase(workload, calls, seconds, reference):
    """Closed loop, one client: run ops until the deadline and a whole cycle.

    Whole cycles of the op mix take turns among ``calls``, so with an
    untraced and a traced ``Calls`` both see the same drift over the run.
    After each op, outside its timer, the reference kernel runs until it
    has taken ``reference.SHARE`` of the op time so far, so its samples
    follow the machine's speed over the same stretch of time as the ops.
    """
    ops = [[] for _ in calls]   # per Calls: (op index, start, end, CPU, failure)
    geometry = []
    rounds = workload.cycle * len(calls)
    op_ns = 0
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    for i, op in enumerate(workload.inputs()):
        mode = (i // workload.cycle) % len(calls)
        calls[mode].op = i
        start, end, cpu, failure, out = run_op(workload, calls[mode], op)
        ops[mode].append((i, start, end, cpu, failure))
        if failure is None:
            geometry.append(workload.geometry(op, out))
        op_ns += cpu
        reference.keep_up(op_ns)
        if (i + 1) % rounds == 0 and time.perf_counter_ns() >= deadline:
            break
    failures = [f"op {i}: {failure}" for records in ops
                for i, *_, failure in records if failure is not None]
    for line in failures[:SHOWN_FAILURES]:
        print(f"failed {line}", file=sys.stderr)
    return ops, [g for g in geometry if g is not None]


def wall_times(records):
    return [end - start for _, start, end, _, _ in records]


def cpu_times(records):
    return [cpu for _, _, _, cpu, _ in records]


def summarize(records, times):
    """End-to-end figures of the ops one ``Calls`` ran, given each op's time."""
    latencies = sorted(t if failure is None else math.inf
                       for t, (*_, failure) in zip(times, records))
    n = len(latencies)
    failed = sum(failure is not None for *_, failure in records)
    busy_ns = sum(times)
    beyond = min(10, n - 1)
    return {
        "ops": n,
        "failed": failed,
        "busy_s": _seconds(busy_ns),
        "throughput_ops_s": (n - failed) / _seconds(busy_ns),
        "op_p50_ms": statistics.median(latencies) / 1e6,
        "op_tail_ms": latencies[n - 1 - beyond] / 1e6,
        "tail_percentile": 100.0 * (n - beyond) / n,
        "tail_beyond": beyond,
    }


def repeat_share(geometry):
    """Share of grid ops whose (n, half_width) an earlier op already had."""
    seen = set()
    repeats = 0
    for key in geometry:
        repeats += key in seen
        seen.add(key)
    return {"ops": len(geometry),
            "repeat_share": repeats / len(geometry) if geometry else 0.0}


def span_table(spans):
    """calls, busy_s and p50_us per span name, and their total seconds."""
    durations = {}
    for name, start, end, _ in spans:
        durations.setdefault(name, []).append(end - start)
    table = {name: {"calls": len(ds), "busy_s": _seconds(sum(ds)),
                    "p50_us": statistics.median(ds) / 1e3}
             for name, ds in sorted(durations.items())}
    return table, _seconds(sum(end - start for _, start, end, _ in spans))


def write_spans(path, records, spans):
    """Op spans first (span id = op index), then one span per program call."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for i, start, end, *_ in records:
            handle.write(json.dumps({"span": i, "name": "op", "start_ns": start,
                                     "end_ns": end, "op": i, "parent": None}))
            handle.write("\n")
        first_id = records[-1][0] + 1 if records else 0
        for k, (name, start, end, op) in enumerate(spans, first_id):
            handle.write(json.dumps({"span": k, "name": name, "start_ns": start,
                                     "end_ns": end, "op": op, "parent": op}))
            handle.write("\n")


def environment():
    import numpy
    import scipy
    import yaml
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "pyyaml": yaml.__version__,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    api = import_program()
    imported_ns = time.perf_counter_ns()
    from program import Calls
    from reference import CALIBRATION_RUNS, Reference
    from workloads import WORKLOADS
    workload = WORKLOADS[args.workload](api, args.seed)
    built_ns = time.perf_counter_ns()
    plain = Calls(api, traced=False)
    *_, warmup_failure, _ = run_op(workload, plain, next(workload.inputs()))
    ready_ns = time.perf_counter_ns()
    if warmup_failure is not None:
        print(f"failed warm-up op: {warmup_failure}", file=sys.stderr)
    # Gauges the machine's speed just after set-up, for set-up's own scale.
    calibration = Reference()
    for _ in range(CALIBRATION_RUNS):
        calibration.run()
    result = {
        "setup_s": _seconds(ready_ns - START_NS),
        "setup_scale": calibration.scale(),
        "setup": {"import_s": _seconds(imported_ns - START_NS),
                  "inputs_s": _seconds(built_ns - imported_ns),
                  "warmup_s": _seconds(ready_ns - built_ns)},
        "warmup_failed": warmup_failure is not None,
    }
    if not args.setup_only:
        result["env"] = environment()
        reference = Reference()
        if args.trace:
            traced = Calls(api, traced=True)
            (plain_ops, traced_ops), geometry = timed_phase(
                workload, [plain, traced], args.seconds, reference)
            table, in_spans_s = span_table(traced.spans)
            write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.jsonl",
                        traced_ops, traced.spans)
            # Wall-clock, like the spans that bench_self_s is taken from.
            result["untraced"] = summarize(plain_ops, wall_times(plain_ops))
            result["traced"] = summarize(traced_ops, wall_times(traced_ops))
            result["spans"] = table
            result["bench_self_s"] = result["traced"]["busy_s"] - in_spans_s
        else:
            (ops,), geometry = timed_phase(workload, [plain], args.seconds,
                                           reference)
            times = cpu_times(ops)
            scales = reference.scales([(start, end)
                                       for _, start, end, _, _ in ops])
            result["untraced"] = summarize(ops, times)
            result["scaled"] = summarize(
                ops, [t * scale for t, scale in zip(times, scales)])
        result["reference"] = {"scale": reference.scale(),
                               "runs": len(reference.samples)}
        result["geometry"] = repeat_share(geometry)
        result["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
