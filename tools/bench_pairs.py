#!/usr/bin/env python3
"""Alternating parent/change pairs of perfbench runs, summarized as one
``BENCH_<pr>.json``.

    python3 tools/bench_pairs.py --parent PARENT_DIR --change CHANGE_DIR \\
        --pr 22 --pairs distill_sm_tmkd=10 teacher_ft=4 \\
        --claim distill_sm_tmkd:throughput_per_s --trace distill_sm_tmkd \\
        --describe "what the change does"

PARENT_DIR and CHANGE_DIR are two full checkouts (``git clone`` or
``git archive``), each with its own ``src/`` and ``perfbench/``.  For each
``workload=N`` the script runs N pairs; pair k runs

    python3 perfbench/run.py --workload W --seed S --seconds 20 --trace 0

once in each checkout, one process per run, with seed 0 for even k and
100 for odd k, the parent first for even k and the change first for odd
k.  Every end-to-end metric of BENCHMARK.json (read from the change's
checkout) is summarized per workload: each side's median and quartiles,
the parent's interquartile range, the change's relative move and whether
it stays within the metric's bound, and how many pairs the change won
(ties count for neither side).  ``--claim W:METRIC`` adds the verdict of
perfbench's rule for a claimed gain: the change wins at least nine tenths
of the pairs, and its median is better than the parent's by more than
the parent's interquartile range.  ``--trace W`` adds one traced run
(``--seed 0 --seconds 10 --trace 1``) per side and records its per-layer
metrics and checks.  For each side the document records the sha256 of
its ``src/`` tree and, where the checkout is the top of its own git work
tree, its HEAD commit (else null: a ``git archive`` copy has no commit of
its own).  A run takes about half a minute; nothing else should run on
the machine meanwhile.
"""

import argparse
import hashlib
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SEEDS = (0, 100)
SECONDS = 20
TRACE_SECONDS = 10
CLAIM_SHARE = 0.9
CHECK = re.compile(r"^check (\S+) = (True|False)$")


def run(checkout: Path, workload: str, seed: int, seconds: float,
        trace: int) -> dict:
    """One perfbench process in ``checkout``: its result line, plus the
    env and check lines it printed."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True,
                          timeout=30 * seconds + 600)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited "
                 f"{done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["env"] = json.loads(lines[0][len("env "):])
    result["checks"] = [line for line in lines if CHECK.match(line)]
    return result


def quartiles(values) -> list:
    return [round(float(q), 4) for q in np.percentile(values, [25, 50, 75])]


def compare(metric: dict, pairs: list) -> dict:
    """One end-to-end metric over (parent, change) value pairs."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    pq, cq = quartiles(parent), quartiles(change)
    rel = (cq[1] - pq[1]) / pq[1]
    sign = 1.0 if metric["better"] == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in pairs)
    return {"parent_median": pq[1], "change_median": cq[1],
            "parent_quartiles": pq, "change_quartiles": cq,
            "parent_iqr": round(pq[2] - pq[0], 4),
            "change_vs_parent_rel": round(rel, 4),
            "worse_by_rel": round(sign * rel, 4),
            "bound": metric["bound"],
            "within_bound": sign * rel <= metric["bound"],
            "change_better": f"{wins}/{len(pairs)}",
            "pairs_parent_change": [[round(p, 4), round(c, 4)]
                                    for p, c in pairs]}


def summarize(metrics: list, runs: list) -> dict:
    """``runs``: one {"parent": result, "change": result, "seed": s} per
    pair."""
    summary = {"pairs": len(runs), "seeds": [r["seed"] for r in runs],
               "all_correct": all(r[side]["correct"] for r in runs
                                  for side in ("parent", "change")),
               "failed_iterations": sum(r[side]["failed"] for r in runs
                                        for side in ("parent", "change"))}
    for metric in metrics:
        name = metric["name"]
        summary[name] = compare(metric, [
            (r["parent"]["metrics"][name]["value"],
             r["change"]["metrics"][name]["value"]) for r in runs])
    summary["checks"] = {side: sorted({c for r in runs for c in r[side]["checks"]})
                         for side in ("parent", "change")}
    return summary


def verdict(workload: str, metric: dict, row: dict) -> dict:
    """Perfbench's rule for a claimed gain on ``metric`` of ``workload``."""
    wins, pairs = map(int, row["change_better"].split("/"))
    gap = row["change_median"] - row["parent_median"]
    if metric["better"] == "lower":
        gap = -gap
    return {"workload": workload, "metric": metric["name"],
            "target": f"wins at least {math.ceil(CLAIM_SHARE * pairs)} of "
                      f"{pairs} pairs, and the median is better by more than "
                      "the parent's interquartile range",
            "parent_median": row["parent_median"],
            "change_median": row["change_median"],
            "gain_rel": round(gap / row["parent_median"], 4),
            "parent_iqr": row["parent_iqr"],
            "median_gap": round(gap, 4),
            "change_better": row["change_better"],
            "met": (wins >= math.ceil(CLAIM_SHARE * pairs)
                    and gap > row["parent_iqr"])}


def git(checkout: Path, *args):
    """The stripped output of ``git -C checkout args``, or None if git
    fails."""
    done = subprocess.run(["git", "-C", str(checkout), *args],
                          capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else None


def git_head(checkout: Path):
    """The checkout's HEAD commit, or None unless the checkout is the top
    of its own work tree: a copy inside another repository would report
    that repository's HEAD."""
    top = git(checkout, "rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != checkout.resolve():
        return None
    return git(checkout, "rev-parse", "HEAD")


def src_sha256(checkout: Path) -> str:
    """sha256 over the files of the checkout's ``src/`` tree, caches left
    out: each file's path under ``src/``, a NUL, its size and its bytes,
    in path order."""
    src = checkout / "src"
    h = hashlib.sha256()
    for path in sorted(p for p in src.rglob("*") if p.is_file()
                       and "__pycache__" not in p.parts
                       and p.suffix != ".pyc"):
        data = path.read_bytes()
        h.update(path.relative_to(src).as_posix().encode() + b"\0")
        h.update(len(data).to_bytes(8, "little") + data)
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pr", type=int, required=True)
    ap.add_argument("--pairs", nargs="+", required=True,
                    metavar="WORKLOAD=N")
    ap.add_argument("--claim", metavar="WORKLOAD:METRIC")
    ap.add_argument("--trace", nargs="*", default=[], metavar="WORKLOAD")
    ap.add_argument("--describe", default="", help="what the change does")
    ap.add_argument("--note", default="")
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    checkouts = {"parent": args.parent.resolve(),
                 "change": args.change.resolve()}
    bench = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = bench["end_to_end"]
    plan = {}
    for item in args.pairs:
        workload, _, n = item.partition("=")
        plan[workload] = int(n)

    summary, env = {}, None
    for workload, n in plan.items():
        runs = []
        for k in range(n):
            seed = SEEDS[k % 2]
            order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run(checkouts[side], workload, seed, SECONDS, 0)
                env = pair[side]["env"]
                print(f"{workload} pair {k} {side} seed {seed}: "
                      f"throughput {pair[side]['metrics']['throughput_per_s']['value']:.1f}",
                      file=sys.stderr, flush=True)
            runs.append(pair)
        summary[workload] = summarize(metrics, runs)

    doc = {"change": args.describe,
           "parent_commit": git_head(checkouts["parent"]),
           "parent_src_sha256": src_sha256(checkouts["parent"]),
           "change_commit": git_head(checkouts["change"]),
           "change_src_sha256": src_sha256(checkouts["change"]),
           "command": "python3 perfbench/run.py --workload <name> --seed "
                      f"<seed> --seconds {SECONDS} --trace 0",
           "protocol": "alternating parent/change pairs (even pair index: "
                       "parent first, seed 0; odd: change first, seed 100), "
                       "one process per run, each side run from its own "
                       "checkout; " + ", ".join(f"{n} pairs of {w}"
                                                for w, n in plan.items()),
           "host": {"cpus": env["affinity_cpus"], "numpy": env["numpy"],
                    "python": env["python"], "blas_threads": env["blas_threads"]}}
    if args.claim:
        workload, _, name = args.claim.partition(":")
        metric = next(m for m in metrics if m["name"] == name)
        doc["claim"] = verdict(workload, metric, summary[workload][name])
    doc["note"] = args.note
    if args.trace:
        doc["trace"] = {}
        for workload in args.trace:
            doc["trace"][workload] = {}
            for side in ("parent", "change"):
                traced = run(checkouts[side], workload, 0, TRACE_SECONDS, 1)
                doc["trace"][workload][side] = {
                    "checks": traced["checks"],
                    "layers": {name: round(m["value"], 6)
                               for name, m in traced["metrics"].items()}}
    doc["summary"] = summary
    out = args.out or ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
