#!/usr/bin/env python3
"""Runs the e2ebench pair protocol: a revision against the working tree.

Usage (from anywhere inside the checkout):

    tools/e2e_pairs.py REF --workload W --pairs N --first-seed S \\
        [--trace 0|1] [--seconds 30]

REF (a commit, branch or tag) is exported with `git archive` into a
temporary directory (honouring TMPDIR), the way check_train_bitwise.sh
does; the other side is the working tree. Pair i runs `e2ebench/run.py
--workload W --seed S+i` once in each tree, back to back, and the side that
goes first alternates from pair to pair, so a drift of the host lands on
both alike. Each run's host steal share is read from /proc/stat around it.
Both trees build on their first run, each into its own .bench_build/; the
benchmark binary starts after the build, so the build is not measured.

The report, on stdout:
  * one row per pair: seed, which side went first, and for each side
    setup_s, peak_rss_mb, time_to_target_cpu_s, epoch_cpu_ms and
    test_accuracy (--trace 0), or wall.epoch_ms and the per-layer timers
    named in TRACED_METRICS (--trace 1), plus the run's steal share;
  * per metric: each side's median and quartiles, and the pairs the
    working tree won;
  * per end-to-end metric with a bound in BENCHMARK.json (read, never
    written): a verdict. "unresolved" when either side's interquartile
    range exceeds the bound relative to its median, "worse" when the
    working tree's median is worse by more than the bound, "better" when it
    wins at least 9 of 10 pairs and its median beats REF's by more than
    REF's interquartile range, else "within bound".

Standard library only. Nothing under e2ebench/ is changed.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

UNTRACED_METRICS = ("setup_s", "peak_rss_mb", "time_to_target_cpu_s",
                    "epoch_cpu_ms", "test_accuracy")
TRACED_METRICS = ("wall.epoch_ms", "train.forward_ms", "train.backward_ms",
                  "train.eval_ms", "sparse.spmm_ms", "tensor.gemm_ms",
                  "sparse.csr_build_ms", "sparse.csr_build_setup_ms",
                  "graph.pruned_edge_share", "parallel.imbalance_share")
SIDES = ("ref", "change")


def read_steal():
    """(steal, total) jiffies of the host's aggregate cpu line."""
    with open("/proc/stat") as f:
        fields = f.readline().split()
    values = [int(v) for v in fields[1:]]
    steal = values[7] if len(values) > 7 else 0
    # guest time is already counted in user/nice.
    return steal, sum(values[:8])


def run_once(tree, workload, seed, seconds, trace):
    """Runs one e2ebench journey in `tree`; returns (metrics, steal_share)."""
    command = [sys.executable, os.path.join(tree, "e2ebench", "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace)]
    steal0, total0 = read_steal()
    done = subprocess.run(command, cwd=tree, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True, check=False)
    steal1, total1 = read_steal()
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"e2e_pairs: {' '.join(command)} in {tree} failed "
                 f"(exit {done.returncode})")
    result = json.loads(lines[-1])
    if not result.get("correct", False):
        sys.exit(f"e2e_pairs: run in {tree} reported wrong outputs")
    metrics = {name: entry["value"]
               for name, entry in result["metrics"].items()}
    steal_share = (steal1 - steal0) / max(1, total1 - total0)
    return metrics, steal_share


def quartiles(values):
    """(q1, median, q3) by the inclusive method; a lone value repeats."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def load_bounds():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m for m in spec["end_to_end"]}


def lower_is_better(name, bounds):
    if name in bounds:
        return bounds[name]["better"] == "lower"
    return not name.endswith(("_share", "accuracy", "rps"))


def fmt(value):
    if value is None:
        return "-"
    return f"{value:.4g}"


def verdict(name, ref, change, wins, pairs, bound):
    """One metric's verdict against its relative bound."""
    lower = bound["better"] == "lower"
    ref_q1, ref_med, ref_q3 = quartiles(ref)
    chg_q1, chg_med, chg_q3 = quartiles(change)
    limit = bound["bound"]
    spread = max((ref_q3 - ref_q1) / abs(ref_med) if ref_med else 0.0,
                 (chg_q3 - chg_q1) / abs(chg_med) if chg_med else 0.0)
    worse_by = ((chg_med - ref_med) if lower else (ref_med - chg_med))
    worse_rel = worse_by / abs(ref_med) if ref_med else 0.0
    if spread > limit:
        return f"unresolved (IQR/median {spread:.3f} > bound {limit})"
    if worse_rel > limit:
        return f"WORSE by {worse_rel:+.1%} (bound {limit:.0%})"
    if wins >= 0.9 * pairs and -worse_by > (ref_q3 - ref_q1):
        return (f"better by {-worse_rel:.1%} ({wins}/{pairs} pairs, "
                f"beyond REF's IQR)")
    return f"within bound ({worse_rel:+.1%}, bound {limit:.0%})"


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("ref", help="commit, branch or tag to compare with")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    args = parser.parse_args()
    if args.pairs < 1 or args.first_seed < 0 or args.seconds <= 0:
        parser.error("--pairs >= 1, --first-seed >= 0, --seconds > 0")

    sha = subprocess.run(
        ["git", "rev-parse", "--verify", args.ref + "^{commit}"], cwd=ROOT,
        stdout=subprocess.PIPE, text=True, check=True).stdout.strip()
    export = tempfile.mkdtemp(prefix="e2e_pairs.")
    try:
        archive = subprocess.Popen(["git", "archive", sha], cwd=ROOT,
                                   stdout=subprocess.PIPE)
        subprocess.run(["tar", "-x", "-C", export], stdin=archive.stdout,
                       check=True)
        archive.stdout.close()
        if archive.wait() != 0:
            sys.exit(f"e2e_pairs: git archive {sha} failed")
        trees = {"ref": export, "change": ROOT}
        names = TRACED_METRICS if args.trace else UNTRACED_METRICS
        rows = []
        for i in range(args.pairs):
            seed = args.first_seed + i
            order = SIDES if i % 2 == 0 else SIDES[::-1]
            row = {"seed": seed, "first": order[0]}
            for side in order:
                metrics, steal = run_once(trees[side], args.workload, seed,
                                          args.seconds, args.trace)
                row[side] = metrics
                row[side + "_steal"] = steal
            rows.append(row)
            print(f"pair {i + 1}/{args.pairs} seed {seed} done",
                  file=sys.stderr)
    finally:
        shutil.rmtree(export, ignore_errors=True)

    bounds = load_bounds()
    print(f"e2e pairs: {args.workload}, --seconds {args.seconds:g} "
          f"--trace {args.trace}, {args.pairs} pairs from seed "
          f"{args.first_seed}; ref = {args.ref} ({sha[:12]}), change = "
          f"working tree")
    header = ["seed", "first"]
    for name in names:
        header += [f"{name} ref", f"{name} chg"]
    header += ["steal ref", "steal chg"]
    print("| " + " | ".join(header) + " |")
    print("|" + "---|" * len(header))
    for row in rows:
        cells = [str(row["seed"]), row["first"]]
        for name in names:
            cells += [fmt(row["ref"].get(name)), fmt(row["change"].get(name))]
        cells += [f"{row['ref_steal']:.3f}", f"{row['change_steal']:.3f}"]
        print("| " + " | ".join(cells) + " |")

    print()
    print("| metric | ref q1 / median / q3 | change q1 / median / q3 | "
          "change won | verdict |")
    print("|---|---|---|---|---|")
    for name in names:
        ref = [r["ref"][name] for r in rows if name in r["ref"]]
        change = [r["change"][name] for r in rows if name in r["change"]]
        if len(ref) != len(rows) or len(change) != len(rows):
            continue
        lower = lower_is_better(name, bounds)
        wins = sum(1 for r in rows
                   if (r["change"][name] < r["ref"][name]) == lower and
                   r["change"][name] != r["ref"][name])
        ref_q = " / ".join(fmt(v) for v in quartiles(ref))
        chg_q = " / ".join(fmt(v) for v in quartiles(change))
        judged = (verdict(name, ref, change, wins, len(rows), bounds[name])
                  if name in bounds else "not bounded")
        print(f"| {name} | {ref_q} | {chg_q} | {wins}/{len(rows)} | "
              f"{judged} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
