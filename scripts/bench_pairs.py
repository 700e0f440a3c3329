"""Alternating parent/change pairs of perfbench runs, folded into one BENCH file.

    python3 scripts/bench_pairs.py --parent REV --out BENCH_<n>.json \\
        [--seed 901] mlp-mnist=10 lenet5-mnist=5 logreg-mnist60k=5

Run from the root of a source checkout. Both sides run from sibling
directories of one temporary directory, `parent/` and `change/`, so their
paths have the same shape and length (peak RSS moves with the path context,
not only with the code). REV is extracted into `parent/` with `git archive`
(no worktree entry is left behind); `change/` is a copy of the working tree's
tracked and untracked-but-not-ignored files as they stand, uncommitted edits
included. Pair k of a workload runs `perfbench/run.py --workload W --seed
SEED+k --seconds S --trace 0` once on each side, S being BENCHMARK.json's
`run_seconds` (the run length the benchmark is defined at), the parent first
in even pairs and the change first in odd ones. After a workload's pairs,
one traced run per side (`--trace 1`, seed SEED, parent first) records
perfbench's per-layer metrics. After every pair, traced or not, the output
JSON is rewritten with:

- this invocation's command line, so the file can be made again;
- each pair's seed, order, and both sides' six end-to-end metrics, `correct`,
  `attempted` and `failed`;
- per workload and metric, each side's median and quartiles, how many pairs
  the change won (by the metric's better direction in BENCHMARK.json; ties
  count for neither side), the medians' relative change (change - parent) /
  parent, whether that is worse than the metric's bound, and whether the
  gain rule holds: at least nine tenths of the pairs won and the medians
  apart by more than the parent's interquartile range;
- per workload, under the summary's `runs`, each side's failed and
  attempted runs summed over the pairs, and its pairs that were not
  `correct`;
- per workload, the traced pair: both sides' per-layer metrics, `correct`,
  `attempted` and `failed`, and each metric's relative change;
- each side's `env:` line as perfbench printed it.

After each pair, one line on stdout gives the pair's relative change in each
of the six end-to-end metrics, so a claim can be watched while the pairs run;
after a workload's pairs, one line gives each side's run counts.

If a perfbench run exits non-zero, the script ends with an `error:` naming
the side, workload, seed and exit status, followed by the end of that run's
stderr; the file keeps every pair finished before it.
"""

import argparse
import json
import os
import shlex
import shutil
import subprocess
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")  # names of equal length, so both trees have paths of one length
STDERR_LINES = 20  # of a failed run, in the error


def git(*args):
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True, text=True).stdout


def copy_working_tree(dest):
    """Copy the working tree's tracked and untracked-but-not-ignored files into dest."""
    for rel in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        src = os.path.join(ROOT, rel)
        if rel and os.path.isfile(src):  # a tracked file deleted from the working tree stays out
            os.makedirs(os.path.dirname(os.path.join(dest, rel)), exist_ok=True)
            shutil.copy2(src, os.path.join(dest, rel))


def run_side(tree, command, workload, seed, trace=0):
    """One run of `command`, perfbench/run.py and its run length, in `tree`: (result JSON, env line)."""
    cmd = [sys.executable, *command, "--trace", str(trace), "--workload", workload, "--seed", str(seed)]
    got = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    if got.returncode:
        tail = "\n".join(got.stderr.strip().splitlines()[-STDERR_LINES:])
        raise SystemExit(f"error: {os.path.basename(tree)} side, {workload} seed {seed}: "
                         f"perfbench exited with status {got.returncode}\n{tail}")
    lines = got.stdout.strip().splitlines()
    env = next(line for line in lines if line.startswith("env:"))
    return json.loads(lines[-1]), env


def summarize(pairs, spec):
    """Per metric: each side's quartiles, the change's wins and the two verdicts."""
    out = {}
    for metric in spec:
        name, lower = metric["name"], metric["better"] == "lower"
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES}
        q = {side: np.percentile(v, [25, 50, 75]).tolist() for side, v in sides.items()}
        sign = 1.0 if lower else -1.0  # a positive gain is an improvement
        wins = sum(sign * (a - b) > 0 for a, b in zip(sides["parent"], sides["change"]))
        med_gain = sign * (q["parent"][1] - q["change"][1])
        out[name] = {
            "unit": metric["unit"],
            "parent_q1_median_q3": q["parent"],
            "change_q1_median_q3": q["change"],
            "change_wins": wins,
            "pairs": len(pairs),
            "median_change_rel": (q["change"][1] - q["parent"][1]) / q["parent"][1] if q["parent"][1] else None,
            "bound": metric["bound"],
            "worse_than_bound": med_gain < -metric["bound"] * abs(q["parent"][1]),
            "gain_rule_met": wins >= 0.9 * len(pairs) and med_gain > q["parent"][2] - q["parent"][0],
        }
    return out


def run_counts(pairs):
    """Per side: failed and attempted runs summed over the pairs, and the pairs whose side was not correct."""
    return {side: {"failed": sum(p[side]["failed"] for p in pairs),
                   "attempted": sum(p[side]["attempted"] for p in pairs),
                   "not_correct": sum(not p[side]["correct"] for p in pairs)} for side in SIDES}


def counts_line(workload, counts):
    """One workload's line: each side's failed/attempted runs and its pairs that were not correct."""
    return f"{workload} runs: " + "; ".join(
        f"{side} failed {c['failed']}/{c['attempted']}, {c['not_correct']} pairs not correct"
        for side, c in counts.items())


def progress_line(workload, pair, spec):
    """One pair's line: (change - parent) / parent for each end-to-end metric; n/a where the parent reads 0."""
    parts = []
    for metric in spec:
        name = metric["name"]
        parent, change = (pair[side]["metrics"][name]["value"] for side in SIDES)
        parts.append(f"{name} {(change - parent) / parent:+.1%}" if parent else f"{name} n/a")
    return f"{workload} seed {pair['seed']}: " + " ".join(parts)


def relative_changes(traced):
    """(change - parent) / parent for each metric of the traced pair; None where the parent reads 0."""
    parent, change = (traced[side]["metrics"] for side in SIDES)
    return {name: (change[name]["value"] - m["value"]) / m["value"] if m["value"] else None
            for name, m in parent.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision of the parent side")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write")
    parser.add_argument("--seed", type=int, default=901, help="seed of pair 0; pair k uses seed + k")
    parser.add_argument("plan", nargs="+", metavar="WORKLOAD=PAIRS")
    argv = sys.argv[1:] if argv is None else argv
    args = parser.parse_args(argv)
    plan = [(w, int(n)) for w, n in (item.split("=") for item in args.plan)]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    spec = benchmark["end_to_end"]
    command = ["perfbench/run.py", "--seconds", str(benchmark["run_seconds"])]

    record = {
        "command": shlex.join(["python3", "scripts/bench_pairs.py", *argv]),
        "side_command": shlex.join([*command, "--trace", "0|1", "--workload", "W", "--seed", "SEED"]),
        "parent": git("rev-parse", args.parent).strip(),
        "change": "working tree at %s%s" % (
            git("rev-parse", "HEAD").strip(), " with uncommitted edits" if git("status", "--porcelain") else ""),
        "env": {},
        "workloads": {},
    }
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        trees = {side: os.path.join(tmp, side) for side in SIDES}
        archive = subprocess.run(["git", "archive", record["parent"]], cwd=ROOT, check=True, capture_output=True)
        os.mkdir(trees["parent"])
        subprocess.run(["tar", "-x", "-C", trees["parent"]], input=archive.stdout, check=True)
        copy_working_tree(trees["change"])

        def save():
            with open(args.out, "w") as f:
                json.dump(record, f, indent=1)

        for workload, n in plan:
            pairs = []
            entry = record["workloads"][workload] = {}
            for k in range(n):
                seed = args.seed + k
                order = SIDES if k % 2 == 0 else SIDES[::-1]
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    pair[side], record["env"][side] = run_side(trees[side], command, workload, seed)
                pairs.append(pair)
                entry.update(pairs=pairs, summary={**summarize(pairs, spec), "runs": run_counts(pairs)})
                save()
                print(progress_line(workload, pair, spec), flush=True)
            print(counts_line(workload, entry["summary"]["runs"]), flush=True)
            traced = {"seed": args.seed}
            for side in SIDES:
                traced[side], _ = run_side(trees[side], command, workload, args.seed, trace=1)
            traced["change_rel"] = relative_changes(traced)
            entry["traced"] = traced
            save()
            print(f"{workload} seed {args.seed}: traced pair recorded", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
