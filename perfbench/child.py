"""One run of one workload in a fresh interpreter.

Started by ``run.py`` with a cleaned environment; writes one JSON
result file and exits.  The run imports ``bmhadamard``, builds the
seeded inputs, then issues the workload's verdicts one at a time,
checking each against its known answer.  An exception or a wrong answer
is recorded and the run goes on to the next verdict.

    python3 perfbench/child.py --workload sweep --seed 1 --result r.json
        [--trace trace.json] [--setup-only]
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import workloads


def run_verdicts(verdicts, tracer=None):
    """Issue each verdict once; return per-verdict records in order."""
    records = []
    for vid, call, check in verdicts:
        if tracer is not None:
            tracer.verdict = vid
            root = tracer.begin("verdict")
        start = time.perf_counter()
        try:
            result = call()
            error = None
        except Exception as exc:  # a failed verdict must not end the run
            result, error = None, f"{type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end(root)
        if error is None:
            mismatch = check(result)
            if mismatch is not None:
                error = f"WrongAnswer: {mismatch}"
        records.append({"id": vid, "start": start, "elapsed_s": elapsed,
                        "result": _jsonable(result), "error": error})
    return records


def _jsonable(value):
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    return repr(value)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--result", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None,
                        help="trace the run and write its spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up, before the first verdict")
    args = parser.parse_args(argv)

    import bmhadamard

    inputs = workloads.make_inputs(args.workload, args.seed)
    verdicts = workloads.build_verdicts(args.workload, inputs,
                                        args.result.with_suffix(".d"))
    tracer = None
    if args.trace is not None:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    first_verdict = time.monotonic()
    out = {"package": bmhadamard.__file__, "inputs": inputs,
           "first_verdict_monotonic": first_verdict}
    if not args.setup_only:
        try:
            out["verdicts"] = run_verdicts(verdicts, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
        if tracer is not None:
            out["trace"] = tracer.summary()
            args.trace.write_text(json.dumps(
                {"workload": args.workload, "seed": args.seed,
                 "spans": tracer.spans, **out["trace"]}))
    # ru_maxrss is in KiB on Linux.
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    args.result.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
