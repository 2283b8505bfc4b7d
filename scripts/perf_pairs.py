#!/usr/bin/env python3
"""Run two built lhg_perfbench binaries in alternating pairs and compare.

    python3 scripts/perf_pairs.py --parent OLD/lhg_perfbench \\
        --change NEW/lhg_perfbench --workload flood_fixed --seed 1 \\
        --pairs 10 --claim op_4lane_ms --out BENCH_topic.json --topic "..."

Pair i runs the parent first when i is odd and the change first when i is
even.  For every end-to-end metric of BENCHMARK.json the script prints each
side's median and quartiles and how many pairs the change won (ties count for
neither side).  A claimed metric passes the choosing-metrics rule for a gain:
the change wins at least nine tenths of all pairs, and the two medians differ,
in the metric's better direction, by more than the parent's interquartile
range.  With --out the set (summary and every run) is appended to a
BENCH_<topic>.json file, which is created if it does not exist.

Exit code: 0 when no claim was made or the claim passes, 1 when a claimed
metric fails the rule or any operation failed, 2 on bad input.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def load_metrics(spec_path):
    """Name -> "lower" or "higher" for BENCHMARK.json's end-to-end metrics."""
    try:
        with open(spec_path, encoding="utf-8") as f:
            spec = json.load(f)
        return {m["name"]: m.get("better", "lower") for m in spec["end_to_end"]}
    except (OSError, ValueError, KeyError, TypeError) as e:
        fail(f"cannot read end_to_end metrics from {spec_path}: {e}")


def threads():
    return str(max(1, min(4, len(os.sched_getaffinity(0)))))


def run_once(binary, args):
    """Runs one benchmark process; returns its (meta, result) lines."""
    env = dict(os.environ)
    env["LHG_THREADS"] = threads()
    try:
        proc = subprocess.run([binary, *args], capture_output=True, text=True,
                              env=env, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        fail(f"{binary} timed out after {RUN_TIMEOUT_S} s")
    except OSError as e:
        fail(f"cannot run {binary}: {e}")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail(f"{binary} exited with code {proc.returncode}")
    try:
        result = json.loads(lines[-1])
        meta = json.loads(lines[-2]).get("meta", {}) if len(lines) > 1 else {}
    except ValueError as e:
        fail(f"{binary} printed no result object: {e}")
    if "metrics" not in result:
        fail(f"{binary} result has no metrics")
    return meta, result


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(runs, metrics):
    """Per metric: each side's median/q1/q3/n and the change's pair wins."""
    summary = {}
    pairs = sorted({r["pair"] for r in runs})
    for name, better in metrics.items():
        sides = {}
        by_pair = {}
        for r in runs:
            got = r["result"]["metrics"].get(name)
            if got is None:
                continue
            sides.setdefault(r["side"], []).append(got["value"])
            by_pair.setdefault(r["pair"], {})[r["side"]] = got["value"]
        if set(sides) != {"parent", "change"}:
            continue
        entry = {}
        for side in ("parent", "change"):
            q1, med, q3 = quartiles(sides[side])
            entry[side] = {"median": round(med, 4), "q1": round(q1, 4),
                           "q3": round(q3, 4), "n": len(sides[side])}
        wins = 0
        for p in pairs:
            both = by_pair.get(p, {})
            if "parent" in both and "change" in both:
                delta = both["change"] - both["parent"]
                wins += (delta < 0) if better == "lower" else (delta > 0)
        entry["better"] = better
        entry["change_wins"] = f"{wins}/{len(pairs)}"
        summary[name] = entry
    return summary


def claim_holds(entry):
    """The gain rule: >= 9/10 wins and a median gap above the parent's IQR."""
    wins, total = (int(x) for x in entry["change_wins"].split("/"))
    parent, change = entry["parent"], entry["change"]
    gap = parent["median"] - change["median"]
    if entry["better"] != "lower":
        gap = -gap
    iqr = parent["q3"] - parent["q1"]
    return total > 0 and 10 * wins >= 9 * total and gap > iqr


def append_set(path, topic, args, runs, summary):
    doc = {}
    if os.path.exists(path):
        try:
            with open(path, encoding="utf-8") as f:
                doc = json.load(f)
        except ValueError as e:
            fail(f"{path} is not JSON: {e}")
    doc.setdefault("topic", topic or "")
    doc.setdefault("host", {"hostname": platform.node(),
                            "cpu": platform.processor() or platform.machine(),
                            "nproc": os.cpu_count(),
                            "LHG_THREADS": threads()})
    doc.setdefault("command", "lhg_perfbench --workload <workload> --seed "
                   "<seed> --seconds <seconds> --trace 0, via "
                   "scripts/perf_pairs.py")
    doc.setdefault("pair_order", "pair i runs the parent first when i is odd "
                   "and the change first when i is even")
    doc.setdefault("sets", []).append({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "summary": summary, "runs": runs})
    with open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="parent lhg_perfbench")
    parser.add_argument("--change", required=True, help="change lhg_perfbench")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--claim", action="append", default=[],
                        help="metric the change claims to improve (repeatable)")
    parser.add_argument("--out", help="BENCH_<topic>.json to append the set to")
    parser.add_argument("--topic", help="topic line of a new --out file")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    if args.pairs < 1:
        fail("--pairs must be >= 1")
    metrics = load_metrics(args.spec)
    for name in args.claim:
        if name not in metrics:
            fail(f"claimed metric {name} is not an end-to-end metric")

    bench_args = ["--workload", args.workload, "--seed", str(args.seed),
                  "--seconds", str(args.seconds), "--trace", "0"]
    runs = []
    failed = 0
    for pair in range(1, args.pairs + 1):
        order = ("parent", "change") if pair % 2 == 1 else ("change", "parent")
        for side in order:
            meta, result = run_once(getattr(args, side), bench_args)
            failed += result.get("failed", 0)
            failed += 0 if result.get("correct", True) else 1
            runs.append({"pair": pair, "side": side, "meta": meta,
                         "result": result})
            print(f"pair {pair} {side}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                file=sys.stderr, flush=True)

    summary = summarize(runs, metrics)
    print(f"{args.workload} seed {args.seed}, {args.pairs} pairs "
          f"(median [q1, q3]; change wins):")
    verdict = 0
    for name, entry in summary.items():
        p, c = entry["parent"], entry["change"]
        line = (f"  {name}: parent {p['median']:.4g} [{p['q1']:.4g}, "
                f"{p['q3']:.4g}]  change {c['median']:.4g} [{c['q1']:.4g}, "
                f"{c['q3']:.4g}]  wins {entry['change_wins']}")
        if name in args.claim:
            holds = claim_holds(entry)
            entry["claim"] = "met" if holds else "not met"
            line += f"  claim {entry['claim']}"
            verdict |= 0 if holds else 1
        print(line)
    for name in args.claim:
        if name not in summary:
            print(f"  {name}: no values on both sides  claim not met")
            verdict = 1
    if failed:
        print(f"  {failed} operations failed")
        verdict = 1
    if args.out:
        append_set(args.out, args.topic, args, runs, summary)
    return verdict


if __name__ == "__main__":
    sys.exit(main())
