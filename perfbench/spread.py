"""Run the benchmark on several seeds and summarise each metric.

    python3 perfbench/spread.py --workloads sweep isolation certify_q4 \
        --seeds 1-10 [--save perfbench/baseline.json]

For every workload and end-to-end metric prints the median, the first
and third quartiles (``statistics.quantiles(values, n=4)``) and the
spread, (q3 - q1) / median, next to the metric's bound from
BENCHMARK.json.  Runs are made one at a time with the settings of
BENCHMARK.json, so the machine record of each run is kept in its
result set under perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed):
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if proc.returncode != 0 or not out["correct"]:
        sys.exit(f"{workload} seed {seed}: run failed ({proc.returncode})")
    return out


def summarise(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values),
            "values": values}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--save", type=Path, default=None)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m for m in SPEC["end_to_end"]}
    machine = run.machine_record()
    machine["loadavg_start"] = os.getloadavg()
    table = {}
    for workload in args.workloads:
        runs = [one_run(workload, seed) for seed in args.seeds]
        table[workload] = {
            name: {"unit": m["unit"], "bound": m["bound"],
                   **summarise([r["metrics"][name]["value"] for r in runs])}
            for name, m in bounds.items()}
        for name, s in table[workload].items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- over bound/3"
            print(f"{workload:<11} {name:<16} median {s['median']:>12.6g} "
                  f"{s['unit']:<3} q1 {s['q1']:>12.6g} q3 {s['q3']:>12.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']}){flag}",
                  flush=True)
    machine["loadavg_end"] = os.getloadavg()
    if args.save:
        args.save.write_text(json.dumps(
            {"machine": machine, "seeds": args.seeds,
             "run_seconds": SPEC["run_seconds"], "workloads": table},
            indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
