#!/usr/bin/env python3
"""Repo benchmark runner.

    python3 perfbench/run.py --workload fill-m|eco-m|stream-m --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke        # every workload, briefly

Run from the repo root. The first run builds openfill and the perfbench
tool from source into .bench_build/perfbench; inputs and outputs go to
.perfbench_work/<workload>. With --trace 0 the op loop runs untraced and
the end-to-end metrics are reported; with --trace 1 the traced per-layer
run reports the per-layer metrics. BENCHMARK.json names both lists and
perfbench/workloads.json documents each workload.

Every metric is printed with its unit, then the last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. Exits 1 after
printing it if any output was wrong, and 2 without printing it if the
benchmark could not run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing but outputs in the checkout
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
WORK = ROOT / ".perfbench_work"
MIB = 1024.0 * 1024.0
# Every run times at least this many ops, so a tail percentile with 10 ops
# beyond it exists; eco-m also samples its peak RSS and scored layouts here.
MIN_OPS = 12
# stream-m's memory budget, below the ~130 MiB in-memory peak so that the
# sharded engine spills; the traced run's stream.* figures use it too.
MEM_BUDGET_MB = 16
CHILD_ARGS = {"fill-m": [],
              "stream-m": ["--stream", "--mem-budget-mb", str(MEM_BUDGET_MB)]}


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def load_json(path):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as e:
        raise BenchError(f"cannot read {path}: {e}")


def run_checked(argv):
    """Runs a build step with its output on stderr, so stdout stays clean."""
    if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError(f"command failed: {' '.join(map(str, argv))}")


def build():
    """Builds openfill and perfbench from this checkout's sources."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise BenchError(f"openfill sources not found under {ROOT / 'src'}")
    if not (BUILD / "CMakeCache.txt").is_file():
        run_checked(["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    run_checked(["cmake", "--build", str(BUILD), "-j", str(nproc())])
    return BUILD / "openfill" / "openfill", BUILD / "perfbench"


def tool_all(perfbench, command, flag_sets):
    """Runs one perfbench subcommand per flag set, all at once, and returns
    their JSON results in order. Waits for every process before failing."""
    procs = []
    for flags in flag_sets:
        argv = [str(perfbench), command]
        for key, value in flags.items():
            argv += ["--" + key.replace("_", "-"), str(value)]
        procs.append(subprocess.Popen(argv, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True))
    outputs = [(proc.returncode, out, err) for proc in procs
               for out, err in [proc.communicate()]]
    results = []
    for returncode, out, err in outputs:
        if returncode != 0:
            raise BenchError(f"perfbench {command} failed: {err.strip()}")
        if err.strip():
            log(err.strip())
        results.append(json.loads(out.strip().splitlines()[-1]))
    return results


def tool(perfbench, command, **flags):
    return tool_all(perfbench, command, [flags])[0]


def digest(path):
    h = hashlib.blake2b()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def child_op(argv, out, expected, errlog):
    """One `openfill fill` op: (wall s, ok, peak RSS MiB, CPU s)."""
    out.unlink(missing_ok=True)
    with open(errlog, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    ok = proc.returncode == 0 and out.is_file() and digest(out) == expected
    if not ok:
        log(f"op failed (exit {proc.returncode}); see {errlog}")
    return wall, ok, usage.ru_maxrss / 1024.0, usage.ru_utime + usage.ru_stime


def child_workload(workload, openfill, work, params):
    """fill-m / stream-m: a closed loop of child processes, round-robin
    over the instances; each instance's first op is its set-up."""
    ops = []
    for k in range(params["instances"]):
        out = work / f"output-{k}.gds"
        argv = [str(openfill), "fill", "--in", str(work / f"input-{k}.gds"),
                "--out", str(out), "--threads", str(nproc())]
        ops.append((argv + CHILD_ARGS[workload], out,
                    digest(work / f"reference-{k}.gds")))
    errlog = work / "child.err"
    setup = [child_op(*op, errlog) for op in ops]
    timed = []
    start = time.perf_counter()
    # Whole rounds only: every instance gets the same number of ops, so
    # the median does not depend on which instance got one more.
    while (time.perf_counter() - start < params["seconds"]
           or len(timed) < MIN_OPS or len(timed) % len(ops)):
        timed.append(child_op(*ops[len(timed) % len(ops)], errlog))
    loop_s = time.perf_counter() - start
    return {
        "setup_s": [op[0] for op in setup],
        "op_s": [op[0] for op in timed],
        "op_cpu_s": [op[3] for op in timed],
        "loop_s": loop_s,
        "failed": sum(1 for op in setup + timed if not op[1]),
        "attempted": len(setup) + len(timed),
        "peak_rss_mib": stats.median([op[2] for op in timed]),
        "outputs": [op[1] for op in ops],
    }


def eco_workload(perfbench, work, seed, params):
    r = tool(perfbench, "eco", dir=work, instances=params["instances"],
             seed=seed, seconds=params["seconds"], threads=nproc(),
             min_ops=MIN_OPS)
    return {
        "setup_s": r["setup_s"],
        "op_s": r["op_s"],
        "op_cpu_s": r["op_cpu_s"],
        "loop_s": r["loop_s"],
        "failed": int(r["failed"]),
        "attempted": len(r["setup_s"]) + len(r["op_s"]),
        "peak_rss_mib": r["peak_rss_mib"],
        "outputs": [work / f"eco_output-{k}.gds"
                    for k in range(params["instances"])],
    }


def contest_metrics(perfbench, outputs):
    """Evaluator metrics averaged over the instances' outputs; DRC
    violations summed."""
    runs = tool_all(perfbench, "quality", [{"in": out} for out in outputs])
    mean = {key: sum(r[key] for r in runs) / len(runs) for key in runs[0]}
    mean["drc_violations"] = sum(r["drc_violations"] for r in runs)
    return mean


def end_to_end(result, quality):
    tail, percentile, n = stats.tail(result["op_s"])
    metrics = {
        "op_s.p50": stats.median(result["op_s"]),
        "op_s.tail": tail,
        "op_cpu_s.p50": stats.median(result["op_cpu_s"]),
        "ops_per_s": stats.rate(len(result["op_s"]), result["loop_s"]),
        "setup_s": stats.median(result["setup_s"]),
        "peak_rss_mib": result["peak_rss_mib"],
        "quality": quality["quality"],
        "output_mib": sum(out.stat().st_size for out in result["outputs"])
        / len(result["outputs"]) / MIB,
    }
    notes = {"op_s.tail": f"p{percentile:.0f} of {n} ops",
             "setup_s": f"median of {len(result['setup_s'])}"}
    return metrics, notes


def run(args, bench, settings):
    """One benchmark run; returns (correct, attempted, failed, metrics)."""
    if args.workload not in settings["workloads"]:
        raise BenchError(f"unknown workload {args.workload}; expected one of "
                         f"{', '.join(settings['workloads'])}")
    # Compiler and tool temporaries stay inside the checkout too.
    os.environ["TMPDIR"] = str(BUILD.parent / "tmp")
    (BUILD.parent / "tmp").mkdir(parents=True, exist_ok=True)
    openfill, perfbench = build()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    params = {"seconds": args.seconds,
              "instances": args.instances or settings["instances"]}

    # Instance k of seed s is suite m with BenchmarkSpec::seed = 16 s + k;
    # the traced run decomposes instance 0 only.
    count = 1 if args.trace else params["instances"]
    suites = tool_all(perfbench, "prepare", [
        {"dir": work, "index": k, "seed": args.seed * 16 + k,
         "threads": max(1, nproc() // count)} for k in range(count)])
    wires = [int(suite["wires"]) for suite in suites]
    print(f"perfbench {args.workload} seed={args.seed} threads={nproc()} "
          f"trace={args.trace}: {count} x suite m, "
          f"{int(suites[0]['windows'])} windows, {min(wires)}-{max(wires)} "
          f"wires")

    notes = {}
    if args.trace:
        names = [m["name"] for m in bench["per_layer"]]
        r = tool(perfbench, "trace", dir=work, seed=args.seed,
                 seconds=args.seconds, threads=nproc(), workload=args.workload,
                 mem_budget_mb=MEM_BUDGET_MB)
        scored = work / ("trace_eco.gds" if args.workload == "eco-m"
                         else "reference-0.gds")
        quality = contest_metrics(perfbench, [scored])
        attempted, failed = int(r["attempted"]), int(r["failed"])
        r = stats.layer_metrics(r)
        for term in ("overlay", "variation", "line_hotspot", "outlier_hotspot"):
            r["contest." + term] = quality[term]
        notes["trace.overhead_s"] = f"median of {int(r['rounds'])} rounds"
        notes["mcf.warm_start_ratio"] = f"base {int(r['mcf.solves'])} solves"
        notes["service.cache_hit_ratio"] = f"base {int(r['service.jobs'])} jobs"
        notes["eco.affected_windows"] = f"of {int(r['eco.total_windows'])}"
        for stage in ("ingest", "fft", "plan", "candidates", "sizing"):
            notes[f"stream.{stage}_s"] = "program-reported, ShardedReport"
        metrics = {}
        for name in names:
            if name not in r:
                raise BenchError(f"traced run did not report {name}")
            metrics[name] = r[name]
        print(f"  spans: {work / 'trace_spans.json'}")
    else:
        if args.workload == "eco-m":
            result = eco_workload(perfbench, work, args.seed, params)
        else:
            result = child_workload(args.workload, openfill, work, params)
        quality = contest_metrics(perfbench, result["outputs"])
        metrics, notes = end_to_end(result, quality)
        attempted, failed = result["attempted"], result["failed"]
        print(f"  reported, not gated (mean of {len(result['outputs'])}): "
              f"overlay {quality['overlay']:.6g} dbu2, variation "
              f"{quality['variation']:.6g}, line_hotspot "
              f"{quality['line_hotspot']:.6g}, outlier_hotspot "
              f"{quality['outlier_hotspot']:.6g}")

    # Once per run the contest DRC check must find nothing.
    attempted += 1
    if quality["drc_violations"] != 0:
        log(f"DRC: {int(quality['drc_violations'])} violations in the output")
        failed += 1
    print(f"  fail_ratio {failed}/{attempted}")

    units = {m["name"]: m["unit"]
             for m in bench["end_to_end"] + bench["per_layer"]}
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<28} {value:>14.6g} {units[name]}{note}")
    # Drop the large GDS files; keep the spans and the child's stderr.
    for gds in work.glob("*.gds"):
        gds.unlink()
    return failed == 0, attempted, failed, {
        name: {"value": value, "unit": units[name]}
        for name, value in metrics.items()}


def smoke(bench, settings):
    """Every workload, untraced and traced, at minimum length; checks that
    each prints exactly its metric list and no failure."""
    for workload in settings["workloads"]:
        for trace in (0, 1):
            args = argparse.Namespace(workload=workload, seed=1, seconds=0.0,
                                      trace=trace, instances=1)
            correct, _, _, metrics = run(args, bench, settings)
            expected = [m["name"] for m in
                        bench["per_layer" if trace else "end_to_end"]]
            if not correct or sorted(metrics) != sorted(expected):
                raise BenchError(f"smoke {workload} trace={trace} failed")
    print("smoke: ok")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload briefly and check the output")
    args = parser.parse_args()
    args.instances = None
    try:
        bench = load_json(ROOT / "BENCHMARK.json")
        settings = load_json(HERE / "workloads.json")
        if args.smoke:
            smoke(bench, settings)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed is None:
            args.seed = settings["default_seed"]
        if args.seconds is None:
            args.seconds = bench["run_seconds"]
        correct, attempted, failed, metrics = run(args, bench, settings)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
