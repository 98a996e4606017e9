"""Check that a change leaves every verify row and CLI artifact byte-identical.

    python3 tools/same_bytes.py [--base REV] [--threads N]

REV (default HEAD) is written to a temporary directory with ``git archive``;
the change is this working tree as it stands, edits included.  In each tree,
one fresh process runs every ``srrw verify`` suite alone at seed 1729 and
keeps each row's ``as_json()``, then renders each argv list in ``ARGVS``
with ``cli.render_bytes``, or records ``error: ...`` where the CLI refuses
it.  The two processes run side by side, each with ``--threads N``
(default 1).  The tool prints every item that differs or exists on one side
only, with the first line where the two texts part on each side (a verify
row is one line of JSON), and exits with status 1 if there is one, else 0.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1729


def _simulate(group, mu, *extra, trials=20000):
    """A simulate argv; its objective is ``--target e`` unless ``extra``
    names one."""
    named = "--target" in extra or "--ball-r" in extra
    return ["simulate", "--group", group, "--alpha", "0.5", "--mu", mu,
            "--n", "4,8,16", "--trials", str(trials),
            *([] if named else ["--target", "e"]), "--seed", str(SEED),
            *extra]


def _evoset(mode, group, mu):
    return ["evoset", mode, "--group", group, "--alpha", "0.5", "--mu", mu,
            "--n", "12", "--seed", str(SEED)]


ARGVS = (
    [_simulate(g, "lazy") for g in ("z2", "cycle:2", "cycle:5", "lattice:1",
                                     "lattice:3", "lamplighter")]
    + [_simulate(g, "pm1") for g in ("z2", "cycle:5")]
    + [_simulate(g, "gens") for g in ("lattice:3", "tree:3", "s3z")]
    + [_simulate("tree:3", "gens", "--transform", "erw_rotation")]
    # no engine serves a cycle's point query, nor a shear whose orbit
    # exceeds TABLE_CAP, so these run per trial and check the draws of each
    # transform's sampler
    + [_simulate("cycle:5", "lazy", "--transform", tf)
       for tf in ("erw_rotation", "negation", "iid_sign:0.25")]
    + [_simulate("lattice:2", "gens", "--transform",
                 "echo:[[[[1,1],[0,1]],0.5],[[[1,0],[0,1]],0.5]]")]
    + [_simulate("lattice:2", "lazy", "--ball-r", "2.5"),
       _simulate("rd:2", "gaussian", "--ball-r", "1.5"),
       _simulate("lattice:1", "gens", "--transform", "negation"),
       _simulate("lamplighter", "lazy", "--target", "t"),
       _simulate("tree:3", "gens", "--target", "ab"),
       _simulate("lattice:2", "lazy", "--transform", "iid_sign:0.25"),
       _simulate("lattice:2", "gens", "--transform",
                 "echo:[[[[0,-1],[1,0]],1.0]]")]
    # one narrow chunk of 1000 rows, which the engines draw several steps
    # at a time; every chunk above is too wide for that
    + [_simulate(g, mu, *extra, trials=1000) for g, mu, extra in (
        ("lattice:3", "lazy", ()),
        ("lattice:1", "gens", ("--transform", "negation")),
        ("tree:3", "gens", ("--transform", "erw_rotation")),
        ("s3z", "gens", ()), ("lamplighter", "lazy", ()))]
    + [["exact", "--group", g, "--alpha", "0.5", "--mu", "lazy", "--n", "6"]
       for g in ("z2", "cycle:5")]
    # element keys as written: a quoted lattice key, lamplighter keys, and
    # the branching enumeration that replay through a transform takes
    + [["exact", "--group", "lattice:2", "--alpha", "0.5", "--mu", "lazy",
        "--n", "2"],
       ["exact", "--group", "lamplighter", "--alpha", "0.5", "--mu", "lazy",
        "--n", "3"],
       ["exact", "--group", "cycle:5", "--alpha", "0.5", "--mu", "pm1",
        "--transform", "negation", "--n", "5"]]
    # the exact chain on a non-abelian group, under a rotation at n = 6
    # and 10, and under a branching transform
    + [["exact", "--group", "s3z", "--alpha", "0.5", "--mu", "gens",
        "--n", "6"]]
    + [["exact", "--group", "tree:3", "--alpha", "0.5", "--mu", "letters",
        "--transform", "erw_rotation", "--n", n] for n in ("6", "10")]
    + [["exact", "--group", "lattice:2", "--alpha", "0.5", "--mu", "lazy",
        "--transform", "iid_sign:0.25", "--n", "5"]]
    # R^d input checks: the finite axis law, and a law R^d refuses
    + [["exact", "--group", "rd:1", "--alpha", "0.5", "--mu", mu, "--n", "2"]
       for mu in ("axis", '[["(nan)", 1.0]]')]
    + [_evoset("trace", "cycle:5", "pm1"),
       _evoset("trace", "lattice:2", "lazy"),
       _evoset("profile", "z2", "lazy")]
    + [["poly", "lambda", "--alpha", "0.5", "--nmax", "40"]]
    # the lambda-bounds suite's table at alpha = 0.1, and a table whose
    # coefficients leave double range, which is refused
    + [["poly", "lambda", "--alpha", a, "--nmax", n]
       for a, n in (("0.1", "200"), ("0.01", "500"))]
)


def collect(threads: int) -> dict:
    """{item name: row JSON, artifact text or ``error: ...``} for the srrw
    on sys.path."""
    from srrw import cli, verify

    out = {}
    for suite in verify.SUITES:
        for row in verify.run_suites([suite], seed=SEED, threads=threads):
            out[f"verify {row.criterion}"] = json.dumps(row.as_json())
    for argv in ARGVS:
        try:
            text = cli.render_bytes(argv + ["--threads", str(threads)]).decode()
        except cli.CliError as ex:
            text = f"error: {ex}"
        out["srrw " + " ".join(argv)] = text
    return out


def differences(base, change) -> list:
    """How two texts of one item differ: the first line where they part,
    from each side, or the side the item is missing from."""
    if base is None or change is None:
        return [f"  missing from the {'base' if base is None else 'change'}"]
    a, b = base.splitlines(), change.splitlines()
    lines = [i for i in range(max(len(a), len(b))) if a[i:i + 1] != b[i:i + 1]]
    i = lines[0]
    return [f"  {len(lines)} lines differ; the first is line {i + 1}:",
            f"    base:   {a[i] if i < len(a) else '(no line)'}",
            f"    change: {b[i] if i < len(b) else '(no line)'}"]


def start(tree: Path, threads: int) -> subprocess.Popen:
    """Run ``collect`` in a fresh process that imports srrw from ``tree``."""
    code = (f"import json, sys; sys.path.insert(0, {str(ROOT / 'tools')!r}); "
            f"import same_bytes; "
            f"print(json.dumps(same_bytes.collect({threads})))")
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    return subprocess.Popen([sys.executable, "-c", code], cwd=tree, env=env,
                            stdout=subprocess.PIPE, text=True)


def finish(proc: subprocess.Popen) -> dict:
    stdout, _ = proc.communicate()
    if proc.returncode:
        raise SystemExit(f"collect failed with status {proc.returncode}")
    return json.loads(stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--base", default="HEAD")
    ap.add_argument("--threads", type=int, default=1)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        data = subprocess.run(["git", "archive", "--format=tar", args.base],
                              cwd=ROOT, check=True,
                              stdout=subprocess.PIPE).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=data, check=True)
        procs = [start(Path(tmp), args.threads), start(ROOT, args.threads)]
        base, change = [finish(p) for p in procs]
    differ = [k for k in sorted(base.keys() | change.keys())
              if base.get(k) != change.get(k)]
    for k in differ:
        print(f"DIFFERS: {k}")
        print("\n".join(differences(base.get(k), change.get(k))))
    rows = sum(k.startswith("verify ") for k in change)
    print(f"{len(change) - len(differ)} of {len(change)} items identical "
          f"({rows} verify rows, {len(change) - rows} artifacts)")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
