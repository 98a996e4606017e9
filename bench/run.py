"""srrw benchmark: run one workload and print its metrics as one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; srrw is imported from ``src``.
The workload runs in a fresh worker process with one thread.  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` alternates untraced and traced
rounds and prints the per-layer metrics.  Details of each run, and the spans
of a traced run, go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
BUDGET_S = 170  # every child process is stopped by then
Z95 = 1.959963984540054


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in ("SRRW_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_worker(args, mode: str, deadline: float, spans=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--mode", mode]
    if spans:
        cmd += ["--spans", str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(),
                          timeout=deadline - time.perf_counter(),
                          stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stats_import_s(deadline: float) -> float:
    """Cumulative import time of srrw.stats, from ``python -X importtime``."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c",
                           "import srrw"], cwd=ROOT, env=worker_env(),
                          timeout=deadline - time.perf_counter(),
                          stderr=subprocess.PIPE,
                          stdout=subprocess.DEVNULL, text=True, check=True)
    for line in proc.stderr.splitlines():
        parts = [p.strip() for p in line.split("|")]
        if len(parts) == 3 and parts[2] == "srrw.stats":
            return int(parts[1]) / 1e6
    raise RuntimeError("srrw.stats not in the import-time report")


def op_outputs(rounds) -> dict:
    """{op name: [output of each round where it did not fail]}."""
    out: dict = {}
    for rec in rounds:
        for op in rec["ops"]:
            out.setdefault(op["name"], [])
            if not op["failed"]:
                out[op["name"]].append(op["out"])
    return out


def relhw_sqrt_s(name: str, rounds) -> float:
    """Relative 95% CI half-width of the designated estimate times the
    square root of the seconds its operation took.

    Rounds with distinct seeds are pooled; verify-light's rounds repeat one
    fixed seed, so it takes one round's count and the median seconds.
    """
    op, n = workloads.DESIGNATED[name]
    secs = [o["seconds"] for rec in rounds for o in rec["ops"]
            if o["name"] == op and not o["failed"]]
    outs = op_outputs(rounds)[op]
    if name == "verify-light":
        row = next(r for r in outs[0] if r["criterion"] == "lamplighter-trend")
        counts = checks.lamplighter_counts(row["observed"])
        hits = counts[workloads.LAMPLIGHTER_NS.index(n)]
        trials = workloads.LAMPLIGHTER_TRIALS
        seconds = statistics.median(secs)
    else:
        pool = checks.pooled({op: outs}, op)
        hits, trials = pool["hits"][n], pool["trials"]
        seconds = sum(secs)
    p = hits / trials
    relhw = Z95 * math.sqrt(p * (1.0 - p) / trials) / p
    return relhw * math.sqrt(seconds)


def end_to_end(name: str, result: dict, setups: list) -> dict:
    walls = [rec["wall_s"] for rec in result["rounds"]]
    wall = statistics.median(walls)
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "peak_rss_mib": {"value": result["peak_rss_mib"], "unit": "MiB"},
        "trial_steps_per_s": {"value": workloads.TRIAL_STEPS[name] / wall,
                              "unit": "1/s"},
        "relhw_sqrt_s": {"value": relhw_sqrt_s(name, result["rounds"]),
                         "unit": "sqrt_s"},
    }


def _layer_unit(metric: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith((".calls", ".enumeration_count", ".calls_per_step")):
        return "count"
    if metric.endswith(".bytes"):
        return "bytes"
    return "s"


def per_layer(result: dict, import_s: float) -> dict:
    traced = [rec for rec in result["rounds"] if rec["traced"]]
    plain = [rec for rec in result["rounds"] if not rec["traced"]]
    names = traced[0]["layers"].keys()
    out = {m: {"value": statistics.median(r["layers"][m] for r in traced),
               "unit": _layer_unit(m)} for m in names}
    out["stats.import_s"] = {"value": import_s, "unit": "s"}
    out["trace.overhead_s"] = {
        "value": (statistics.median(r["wall_s"] for r in traced)
                  - statistics.median(r["wall_s"] for r in plain)),
        "unit": "s"}
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "srrw" / "__init__.py").is_file():
        print(f"error: no srrw sources under {ROOT / 'src'}; run from a "
              f"source checkout", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    deadline = t0 + BUDGET_S
    refs = checks.references(args.workload)
    ref_s = time.perf_counter() - t0

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans = out_dir / f"{stem}.spans.json" if args.trace else None
    if args.trace:
        import_s = statistics.median(stats_import_s(deadline)
                                     for _ in range(IMPORTTIME_PROBES))
        setups = []
    else:
        setups = [run_worker(args, "setup", deadline)["setup_s"]
                  for _ in range(SETUP_PROBES)]
    result = run_worker(args, "trace" if args.trace else "run", deadline,
                        spans=spans)
    setups.append(result["setup_s"])

    outputs = op_outputs(result["rounds"])
    found = checks.problems(args.workload, outputs, refs)
    ops = [o for rec in result["rounds"] for o in rec["ops"]]
    if args.trace:
        metrics = per_layer(result, import_s)
    else:
        metrics = end_to_end(args.workload, result, setups)
    line = {"correct": not found, "attempted": len(ops),
            "failed": sum(o["failed"] for o in ops), "metrics": metrics}
    detail = dict(line, problems=found, reference_s=ref_s, setups_s=setups,
                  rounds=result["rounds"])
    (out_dir / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    for p in found:
        print(f"check failed: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
