"""Time-to-verdict benchmark of bmhadamard.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 28 --trace 0

Run from the root of a checkout.  Each round of the workload runs in a
fresh interpreter (``child.py``), one after another, so every round pays
the import and every module-level cache as a CLI user does.  Every
verdict is checked against its known answer.  The last line of stdout
is one JSON object: with ``--trace 0`` it holds the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of one extra traced round.  A
readable table and the machine record go to stderr; the full result set
is written under ``perfbench/out/``.  The exit code is 0 only when every
verdict was right.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Seconds of --seconds that buy one round of each workload.  A run
# issues round(--seconds / this) rounds, at least one, so the work
# measured is fixed by --seconds alone and a faster commit does the same
# work in less time.  On the reference machine (2 cores, Python 3.11) a
# round takes about 4.5 s (sweep), 55 s (isolation) and 8 s (certify_q4).
# sweep gets five rounds at --seconds 28, not six: with six, its pooled
# tail (the 11th slowest of its verdicts) fell among the six
# jones_adjacency.vi calls, on their second fastest, which follows the
# host's slow and fast spells; with five it is the slowest verdict after
# the ten vi Jones sums.
ROUND_SECONDS = {"sweep": 5.6, "isolation": 60.0, "certify_q4": 10.0}
# Set-up is short and noisy, so each run also starts this many children
# that stop before their first verdict, and reports the median.
SETUP_PROBES = 10
# Every child must end within this many seconds of the run's start.
DEADLINE_S = 175.0


def child_env():
    """Environment of a child: the checkout's src/, nothing inherited
    that could change what is measured or the order it runs in."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("PYTHON") and k != "HW_SWEEP_BOUND"}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


class Run:
    """The children of one benchmark run and what they reported."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.seed = seed
        self.start = time.monotonic()
        self.errors = []

    def spawn(self, tag, setup_only=False, trace=False):
        """Run one child; return its result dict, or None if it failed."""
        stem = f"{self.workload}-seed{self.seed}-{tag}"
        result = OUT / f"{stem}.json"
        result.unlink(missing_ok=True)
        cmd = [sys.executable, "-s", str(BENCH / "child.py"),
               "--workload", self.workload, "--seed", str(self.seed),
               "--result", str(result)]
        if setup_only:
            cmd.append("--setup-only")
        if trace:
            cmd += ["--trace", str(OUT / f"trace-{stem}.json")]
        remaining = DEADLINE_S - (time.monotonic() - self.start)
        if remaining <= 0:
            self.errors.append(f"{tag}: no time left before the deadline")
            return None
        spawned = time.monotonic()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=child_env(),
                                  stdin=subprocess.DEVNULL,
                                  stdout=sys.stderr.fileno(),
                                  timeout=remaining)
        except subprocess.TimeoutExpired:
            self.errors.append(f"{tag}: child killed after {remaining:.0f} s")
            return None
        if proc.returncode != 0 or not result.exists():
            self.errors.append(f"{tag}: child exited with code {proc.returncode}")
            return None
        out = json.loads(result.read_text())
        result.unlink()
        shutil.rmtree(result.with_suffix(".d"), ignore_errors=True)
        src = ROOT / "src"
        if Path(out["package"]).resolve().parent.parent != src:
            self.errors.append(f"{tag}: imported bmhadamard from {out['package']}")
            return None
        out["setup_s"] = out["first_verdict_monotonic"] - spawned
        return out


def machine_record():
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": model, "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def tail(rounds):
    """(value, label): the highest percentile of the pooled verdict
    latencies (ms) that has at least ten samples beyond it.  Below 20
    samples that percentile would lie under the median; the slowest
    verdict, as its median over the rounds, is reported instead."""
    ordered = sorted(v["elapsed_s"] * 1000 for r in rounds for v in r["verdicts"])
    n = len(ordered)
    if n >= 20:
        idx = n - 11
        return ordered[idx], f"p{100.0 * (idx + 1) / n:.1f} of n={n}"
    by_id = {}
    for r in rounds:
        for v in r["verdicts"]:
            by_id.setdefault(v["id"], []).append(v["elapsed_s"] * 1000)
    vid, value = max(((k, statistics.median(xs)) for k, xs in by_id.items()),
                     key=lambda item: item[1])
    return value, f"slowest verdict {vid}, median of {len(rounds)} (n={n})"


def wall_s(verdicts):
    last = verdicts[-1]
    return last["start"] + last["elapsed_s"] - verdicts[0]["start"]


def end_to_end(setups, rounds):
    latencies = [v["elapsed_s"] * 1000 for r in rounds for v in r["verdicts"]]
    value, tail_note = tail(rounds)
    # The whole run's time to all verdicts, per round.  The host's speed
    # changes in spells of several seconds, about as long as a round; a
    # median of a few rounds follows whichever spells they fell in, while
    # the total averages over every spell of the run.
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (statistics.fmean(wall_s(r["verdicts"]) for r in rounds), "s"),
        "verdict_ms.p50": (statistics.median(latencies), "ms"),
        "verdict_ms.tail": (value, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in rounds), "MB"),
    }
    notes = {"verdict_ms.tail": tail_note,
             "verdict_ms.p50": f"n={len(latencies)}",
             "setup_s": f"median of {len(setups)} set-ups",
             "wall_s": f"mean of {len(rounds)} rounds"}
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bmhadamard" / "__init__.py").is_file():
        sys.stderr.write(f"error: no bmhadamard sources under {ROOT / 'src'}\n")
        return 2
    OUT.mkdir(exist_ok=True)
    machine = machine_record()
    machine["loadavg_start"] = os.getloadavg()
    run = Run(args.workload, args.seed)

    # Compiles the bytecode of a fresh checkout, so that no measured
    # set-up pays for it; a user's installed package is compiled too.
    run.spawn("warmup", setup_only=True)
    setups = [r["setup_s"] for i in range(SETUP_PROBES)
              if (r := run.spawn(f"setup{i}", setup_only=True)) is not None]
    n_rounds = max(1, round(args.seconds / ROUND_SECONDS[args.workload]))
    rounds = [r for i in range(n_rounds)
              if (r := run.spawn(f"round{i}")) is not None]
    traced = run.spawn("traced", trace=True) if args.trace else None
    machine["loadavg_end"] = os.getloadavg()

    per_round = workloads.verdict_count(args.workload)
    expected_children = n_rounds + (1 if args.trace else 0)
    done = rounds + ([traced] if traced is not None else [])
    records = [v for r in done for v in r["verdicts"]]
    attempted = per_round * expected_children
    failed = sum(1 for v in records if v["error"]) + \
        per_round * (expected_children - len(done))
    for v in records:
        if v["error"]:
            sys.stderr.write(f"FAILED {v['id']}: {v['error']}\n")
    for err in run.errors:
        sys.stderr.write(f"FAILED {err}\n")

    metrics, notes = ({}, {})
    if rounds and setups:
        metrics, notes = end_to_end(setups + [r["setup_s"] for r in rounds],
                                    rounds)
    metrics["failed_ratio"] = {"value": failed / attempted, "unit": "1"}
    layers = {}
    if traced is not None:
        layers = tracer.layer_metrics(traced["trace"])
        traced_wall = wall_s(traced["verdicts"])
        layers["trace.wall_s"] = {"value": traced_wall, "unit": "s"}
        if "wall_s" in metrics:
            layers["trace.overhead_s"] = {
                "value": traced_wall - metrics["wall_s"]["value"], "unit": "s"}

    sys.stderr.write(f"machine: {json.dumps(machine)}\n")
    sys.stderr.write(f"{args.workload} seed={args.seed} rounds={n_rounds}\n")
    for name, m in {**metrics, **layers}.items():
        note = notes.get(name, "")
        sys.stderr.write(f"  {name:<48} {m['value']:>14.6g} {m['unit']:<6} {note}\n")

    correct = failed == 0 and not run.errors
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.result.json") \
        .write_text(json.dumps({
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "rounds": n_rounds, "machine": machine,
            "correct": correct, "attempted": attempted, "failed": failed,
            "errors": run.errors, "metrics": metrics, "notes": notes,
            "layers": layers, "setups_s": setups,
            "children": [{k: r[k] for k in ("inputs", "setup_s", "peak_rss_mb",
                                            "verdicts")} for r in done],
        }, indent=1))

    # failed_ratio is carried by "attempted" and "failed"; it is 0 on a
    # correct commit, so it is not one of the compared metrics.
    reported = layers if args.trace else \
        {k: v for k, v in metrics.items() if k != "failed_ratio"}
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
