"""Alternating parent/change pairs of the srrw benchmark, as one JSON file.

    python3 tools/bench_pairs.py --workload lattice-d3 --pairs 10 \
        --seed 101 --out BENCH.json [--base REV]

The change is the tracked files of this working tree, as they are when the
tool starts; the parent is REV (default HEAD, so an uncommitted change is
measured against its parent; pass HEAD~1 for a committed one).  Each is
copied into its own temporary directory, the parent with ``git archive``,
so both run from fresh checkouts that are removed afterwards.  Pair k runs

    python3 bench/run.py --workload W --seed S+k --seconds T --trace 0

once in each tree, the parent first on even k and the change first on odd
k, where T is BENCHMARK.json's ``run_seconds``.  Both trees run the same
command at the same seed, each with its own ``bench/``.

The output file holds machine information and, per workload, every pair's
end-to-end metrics, the median and quartiles of each side, and how many
pairs the change won (ties count for neither side).  ``gain`` is true when
the change won at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range; ``within_bound`` is true when
the change's median is worse than the parent's by no more than the
metric's relative bound.  Running the tool again with another workload
adds that workload to an existing file and replaces it if present.

The measured change is named by ``source_diff_sha256``, the SHA-256 of
``git diff REV --binary -- src bench`` when the pairs ran; once the change
is committed as C, ``git diff REV C --binary -- src bench | sha256sum``
gives the same digest if C holds the code that was measured.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def source_digest(rev: str) -> str:
    """SHA-256 of the diff from ``rev`` to the working tree in the code the
    benchmark runs."""
    diff = subprocess.run(["git", "diff", rev, "--binary", "--", "src",
                           "bench"], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE).stdout
    return hashlib.sha256(diff).hexdigest()


def unpack(rev: str, dest: Path) -> None:
    """Write the files of commit ``rev`` under ``dest``."""
    data = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT,
                          check=True, stdout=subprocess.PIPE).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=data, check=True)


def copy_worktree(dest: Path) -> None:
    """Copy the tracked files of the working tree, edits included, under
    ``dest``."""
    names = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           stdout=subprocess.PIPE).stdout.split(b"\0")
    for name in filter(None, (os.fsdecode(n) for n in names)):
        if (ROOT / name).is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy
    return {"platform": platform.platform(), "cpu": cpu,
            "cpus": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__}


def run(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tree, check=True, stdout=subprocess.PIPE,
                          text=True)
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    return {"correct": line["correct"], "attempted": line["attempted"],
            "failed": line["failed"],
            "metrics": {k: v["value"] for k, v in line["metrics"].items()}}


def quartiles(xs) -> list:
    """[q1, median, q3], inclusive method."""
    return statistics.quantiles(xs, n=4, method="inclusive")


def summarize(pairs: list, spec: dict) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        name, lower = m["name"], m["better"] == "lower"
        base = [p["parent"]["metrics"][name] for p in pairs]
        new = [p["change"]["metrics"][name] for p in pairs]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, new))
        qb, qc = quartiles(base), quartiles(new)
        worse = (qc[1] - qb[1]) / qb[1] * (1 if lower else -1) if qb[1] else 0
        out[name] = {
            "unit": m["unit"], "better": m["better"], "bound": m["bound"],
            "parent_quartiles": qb, "change_quartiles": qc,
            "change_vs_parent": (qc[1] - qb[1]) / qb[1] if qb[1] else None,
            "wins": wins, "pairs": len(pairs),
            "gain": (wins >= 0.9 * len(pairs)
                     and abs(qc[1] - qb[1]) > qb[2] - qb[0]),
            "within_bound": worse <= m["bound"],
        }
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--base", default="HEAD")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("quartiles need at least two pairs")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]

    base_rev = git("rev-parse", args.base)
    digest = source_digest(base_rev)
    pairs = []
    with tempfile.TemporaryDirectory() as tmp:
        parent, change = Path(tmp, "parent"), Path(tmp, "change")
        parent.mkdir()
        change.mkdir()
        unpack(base_rev, parent)
        copy_worktree(change)
        for k in range(args.pairs):
            seed = args.seed + k
            order = ["parent", "change"] if k % 2 == 0 else ["change",
                                                            "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                tree = parent if side == "parent" else change
                pair[side] = run(tree, args.workload, seed, seconds)
            pairs.append(pair)
            print(json.dumps({"workload": args.workload, "pair": k,
                              **{s: pair[s]["metrics"] for s in order}}),
                  file=sys.stderr)

    out = Path(args.out)
    doc = json.loads(out.read_text()) if out.exists() else {"workloads": {}}
    doc["machine"] = machine()
    doc["command"] = (f"python3 bench/run.py --workload W --seed S "
                      f"--seconds {seconds} --trace 0")
    doc["workloads"][args.workload] = {
        "parent": base_rev, "source_diff_sha256": digest,
        "seeds": [p["seed"] for p in pairs],
        "summary": summarize(pairs, spec), "pairs": pairs}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
