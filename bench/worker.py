"""Run one workload in a fresh process and print its raw results as JSON.

``run.py`` starts this script with ``src`` on PYTHONPATH and one thread:

    python3 bench/worker.py --workload NAME --seed N --seconds S --mode MODE

``--mode setup`` only imports srrw and builds the configs, and reports how
long that took.  ``--mode run`` then runs whole rounds of the workload until
another round would overrun ``--seconds`` (at least one).  ``--mode trace``
alternates untraced and traced rounds (at least one of each) and writes the
traced rounds' spans to ``--spans``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
import traceback

import workloads


def run_round(ops) -> tuple:
    """Time each op; return (record, raw results).  Failed ops (exceptions)
    are recorded with no result and do not stop the round."""
    record = {"ops": []}
    results = []
    t_first = time.perf_counter()
    c_first = time.process_time()
    for op in ops:
        t0 = time.perf_counter()
        try:
            result = op.call()
            failed = False
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            result, failed = None, True
        record["ops"].append({"name": op.name,
                              "seconds": time.perf_counter() - t0,
                              "failed": failed})
        results.append(result)
    record["wall_s"] = time.perf_counter() - t_first
    record["cpu_s"] = time.process_time() - c_first
    return record, results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=("setup", "run", "trace"),
                    default="run")
    ap.add_argument("--spans", default=None,
                    help="file for the traced rounds' spans (trace mode)")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    round_ops = workloads.setup(args.workload)
    setup_s = time.perf_counter() - t0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return 0

    tracer = None
    if args.mode == "trace":
        from tracer import Tracer, layer_metrics
        tracer = Tracer()
    min_rounds = 2 if tracer else 1
    rounds, spans = [], []
    start = time.perf_counter()
    r = 0
    while True:
        ops = round_ops(workloads.round_seed(args.seed, r))
        traced = tracer is not None and r % 2 == 1
        if traced:
            tracer.install()
        try:
            record, results = run_round(ops)
        finally:
            if traced:
                tracer.uninstall()
        record["traced"] = traced
        if traced:
            stats, round_spans = tracer.take()
            seconds = {o["name"]: o["seconds"] for o in record["ops"]}
            record["layers"] = layer_metrics(stats, seconds)
            spans.append(round_spans)
        for o, op, res in zip(record["ops"], ops, results):
            o["out"] = None if o["failed"] else op.summarize(res)
        rounds.append(record)
        r += 1
        elapsed = time.perf_counter() - start
        if r >= min_rounds and elapsed + record["wall_s"] > args.seconds:
            break

    if args.spans:
        with open(args.spans, "w") as fh:
            json.dump({"fields": ["id", "parent", "name", "start_s",
                                  "end_s"],
                       "rounds": spans}, fh)
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"setup_s": setup_s, "peak_rss_mib": peak_kib / 1024,
                      "rounds": rounds}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
