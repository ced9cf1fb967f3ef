"""Benchmark backaction end to end, or per layer with --trace 1.

    python3 bench/run.py --workload {gallery,moments,grid} --seed N \\
        --seconds S --trace {0,1}

The checkout is the parent of this directory; backaction is imported from
its ``src``.  Each run starts fresh workload processes (``workload.py``)
one after another, so the benchmark never uses more than one core for
work.  ``--trace 0`` reports the end-to-end metrics BENCHMARK.json lists:
``setup_s`` is the median set-up time of SETUP_RUNS fresh processes, and
the others come from the last of them, which runs ops for ``--seconds``.
Every end-to-end time is scaled to a reference machine speed, gauged by
the kernel in ``reference.py`` that each process runs between ops.
``--trace 1`` runs one process whose whole cycles of ops alternate between
untraced and traced, and reports the per-layer metrics.  Both print a
readable table, then one JSON line with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full result, with the environment, goes to
``out/`` beside this file, and a traced run's spans go there as well.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("gallery", "moments", "grid")

# Fresh processes per untraced run, the measuring one included.
SETUP_RUNS = 3

# A run, set-up processes included, must end within this many seconds.
RUN_LIMIT_S = 170.0

SPAN_STATS = ("calls", "busy_s", "p50_us")


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def workload_process(arguments, deadline):
    command = [sys.executable, str(BENCH / "workload.py"), *arguments]
    try:
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()),
                              check=False)
    except subprocess.TimeoutExpired:
        fail(f"workload process did not end within {RUN_LIMIT_S:.0f} s")
    if done.returncode != 0:
        fail(f"workload process exited with code {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(processes):
    """Every end-to-end figure, and the ops attempted and failed.

    Times are scaled to the reference machine (see reference.py): op times
    in the measuring process, set-up times each in its own process.  The
    raw figures go into the notes.
    """
    measured = processes[-1]["untraced"]
    scaled = processes[-1]["scaled"]
    attempted = measured["ops"] + len(processes)
    failed = measured["failed"] + sum(p["warmup_failed"] for p in processes)
    setups = [p["setup_s"] * p["setup_scale"] for p in processes]
    values = {
        "setup_s": statistics.median(setups),
        "throughput_ops_s": scaled["throughput_ops_s"],
        "op_p50_ms": scaled["op_p50_ms"],
        "op_tail_ms": scaled["op_tail_ms"],
        "peak_rss_mb": processes[-1]["peak_rss_mb"],
        "fail_ratio": failed / attempted,
    }
    raw = {
        "setup_s": statistics.median(p["setup_s"] for p in processes),
        "throughput_ops_s": measured["throughput_ops_s"],
        "op_p50_ms": measured["op_p50_ms"],
        "op_tail_ms": measured["op_tail_ms"],
    }
    notes = {name: f"raw {value:.6g}" for name, value in raw.items()}
    notes["setup_s"] += "; median of {} fresh processes, scaled: {}".format(
        len(processes), ", ".join(f"{s:.3f}" for s in setups))
    reference = processes[-1]["reference"]
    notes["throughput_ops_s"] += (
        f"; {measured['ops']} ops, op time only; reference kernel "
        f"ran {reference['runs']} times, "
        f"median {1 / reference['scale']:.3f} x its nominal time")
    notes.update({
        "op_tail_ms": (notes["op_tail_ms"]
                       + f"; p{measured['tail_percentile']:.2f}, "
                       f"{measured['tail_beyond']} of {measured['ops']} ops "
                       "beyond it"),
        "fail_ratio": f"{failed} of {attempted} ops, warm-up ops included",
    })
    geometry = processes[-1]["geometry"]
    if geometry["ops"]:
        notes["throughput_ops_s"] += (
            f"; {geometry['repeat_share']:.3f} of {geometry['ops']} grid ops "
            "repeat an earlier (n, half_width)")
    return values, notes, attempted, failed


def per_layer(process, names):
    """Every per-layer figure BENCHMARK.json lists; 0 for a span never entered."""
    spans = process["spans"]
    plain, traced = process["untraced"], process["traced"]
    values = {
        "setup.import_s": process["setup"]["import_s"],
        "setup.inputs_s": process["setup"]["inputs_s"],
        "setup.warmup_s": process["setup"]["warmup_s"],
        "bench.self_s": process["bench_self_s"],
        "trace.overhead": (1.0 - traced["throughput_ops_s"]
                           / plain["throughput_ops_s"]),
        "grid.half_width_repeat_share": process["geometry"]["repeat_share"],
    }
    listed = set()
    for name in names:
        span, _, stat = name.rpartition(".")
        if name in values or stat not in SPAN_STATS:
            continue
        listed.add(span)
        values[name] = spans.get(span, {}).get(stat, 0)
    unlisted = sorted(set(spans) - listed)
    if unlisted:
        fail(f"spans missing from BENCHMARK.json per_layer: {unlisted}")
    attempted = plain["ops"] + traced["ops"] + 1
    failed = plain["failed"] + traced["failed"] + process["warmup_failed"]
    notes = {"trace.overhead": (
        f"1 - traced/untraced throughput: {traced['throughput_ops_s']:.4g} / "
        f"{plain['throughput_ops_s']:.4g} ops/s")}
    return values, notes, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "backaction" / "__init__.py").is_file():
        fail(f"no backaction package under {ROOT / 'src'}; run from a "
             "checkout of the repository")
    if args.seconds <= 0:
        fail("--seconds must be positive")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = spec["per_layer"] if args.trace else spec["end_to_end"]

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    if args.trace:
        process = workload_process(
            common + ["--seconds", str(args.seconds), "--trace", "1"], deadline)
        values, notes, attempted, failed = per_layer(
            process, [m["name"] for m in listed])
    else:
        processes = [workload_process(common + ["--setup-only"], deadline)
                     for _ in range(SETUP_RUNS - 1)]
        processes.append(workload_process(
            common + ["--seconds", str(args.seconds)], deadline))
        values, notes, attempted, failed = end_to_end(processes)
        process = processes[-1]

    missing = [m["name"] for m in listed if m["name"] not in values]
    if missing:
        fail(f"BENCHMARK.json lists metrics this run does not measure: {missing}")
    units = {m["name"]: m["unit"] for m in listed}
    units.setdefault("fail_ratio", "fraction")

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}"
          f"  trace {args.trace}")
    print("env " + json.dumps(process["env"], sort_keys=True))
    for name, value in values.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<48} {value:>14.6g} {units[name]}{note}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, env=process["env"],
                  notes=notes, process=process)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
