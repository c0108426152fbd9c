#!/usr/bin/env python3
"""Steadiness check: runs perfbench/run.py once per seed and prints each
end-to-end metric's median and quartile spread (Q3 - Q1) / median next to
its bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload fill-m --seeds 1-10 [--seconds S]
        [--out FILE] [--against FILE]

A metric is steady when its spread is below a third of its bound (the
setup_s spread is shown but is not held to its bound). Raw results go to
--out, by default .perfbench_work/spread-<workload>.json. With --against,
the medians are also compared with those of an earlier set's results
file: each must not be worse than the earlier median by more than the
metric's bound, setup_s included.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import stats  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--against", type=Path)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]

    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True)
        if proc.returncode != 0:
            print(f"seed {seed}: run.py exited {proc.returncode}")
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: " + ", ".join(
            f"{k} {v['value']:.5g}" for k, v in result["metrics"].items()),
            flush=True)
    out = args.out or ROOT / ".perfbench_work" / f"spread-{args.workload}.json"
    out.write_text(json.dumps(runs, indent=1))
    earlier = json.loads(args.against.read_text()) if args.against else None

    steady = True
    for metric in bench["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        values = [r["metrics"][name]["value"] for r in runs]
        s = stats.spread(values) if len(values) > 1 else 0.0
        ok = name == "setup_s" or s < bound / 3
        line = (f"{name:<14} median {stats.median(values):<12.6g} spread "
                f"{s:7.4f}  bound {bound:.3g}  {'ok' if ok else 'WIDE'}")
        if earlier is not None:
            before = stats.median([r["metrics"][name]["value"]
                                   for r in earlier])
            worse = stats.worsening(before, stats.median(values),
                                    metric["better"])
            agree = worse <= bound
            ok &= agree
            line += (f"  earlier {before:<12.6g} worse by {worse:+.4f}  "
                     f"{'ok' if agree else 'DRIFT'}")
        steady &= ok
        print(line)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
