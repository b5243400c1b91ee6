#!/usr/bin/env python3
"""Steadiness report and A/B comparison for the perfbench benchmark.

Run from the repository root.

  python3 perfbench/steady.py [--runs 10] [--workloads paper,served]
                              [--seed0 1000] [--same-seed] [--trace 0|1|both]
                              [--save results.json]
  python3 perfbench/steady.py --compare parent.json change.json

The first form runs the command in BENCHMARK.json --runs times per
workload, each time with another seed (seed0, seed0+1, ...; or seed0
every time with --same-seed), and prints per metric the median, the
quartiles and (IQR / median) against the metric's bound. With
--same-seed every "sim" metric must repeat exactly. With --trace both it
also runs the traced variant and reports the tracing overhead: the gap
between the traced and untraced sim_refs_per_s medians.

The second form compares two saved result sets. It refuses to compare
results whose host fingerprints (nproc, cpu, rustc) differ.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HOST_KEYS = ("nproc", "cpu", "rustc")


def load_bench():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run_once(bench, workload, seed, trace):
    cmd = bench["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(bench["run_seconds"]), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"run failed ({workload} seed {seed} trace {trace}): exit "
                 f"{proc.returncode}\n{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}")
    last = json.loads(lines[-1])
    path = os.path.join(".perfbench_out", f"result-{workload}-s{seed}-t{trace}.json")
    with open(path) as f:
        full = json.load(f)
    return last, full


def spread(values):
    if len(values) < 2:
        return values[0], values[0], values[0], 0.0
    q1, med, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / med if med else 0.0


def report(results, bench):
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    for workload, runs in results["runs"].items():
        by_trace = {}
        for r in runs:
            by_trace.setdefault(r["trace"], []).append(r)
        for trace, rs in sorted(by_trace.items()):
            print(f"\n== {workload} (trace {trace}, {len(rs)} runs) ==")
            print(f"{'metric':<28} {'median':>16} {'q1':>16} {'q3':>16} "
                  f"{'iqr/med':>8} {'bound':>6}  status")
            names = list(rs[0]["metrics"].keys())
            for name in names:
                vals = [r["metrics"][name]["value"] for r in rs if name in r["metrics"]]
                clock = rs[0]["metrics"][name]["clock"]
                med, q1, q3, sp = spread(vals)
                b = bounds.get(name, {}).get("bound")
                status = ""
                if b is not None:
                    status = "ok" if sp <= b / 3 else ("within bound" if sp <= b else "TOO NOISY")
                    if name == "setup_s":
                        status += " (spread not gated)"
                if clock == "sim" and results.get("same_seed"):
                    status += " repeats" if len(set(vals)) == 1 else " SIM VALUE VARIES"
                unit = rs[0]["metrics"][name]["unit"]
                print(f"{name:<28} {med:>16.6g} {q1:>16.6g} {q3:>16.6g} {sp:>8.4f} "
                      f"{b if b is not None else '':>6}  [{clock}, {unit}] {status}")
        if 0 in by_trace and 1 in by_trace:
            plain = statistics.median(r["metrics"]["sim_refs_per_s"]["value"] for r in by_trace[0])
            traced = statistics.median(r["metrics"]["trace.sim_refs_per_s"]["value"] for r in by_trace[1])
            print(f"tracing overhead on {workload}: {100 * (plain - traced) / plain:+.2f}% "
                  f"of sim_refs_per_s (untraced {plain:.6g}, traced {traced:.6g})")


def compare(a_path, b_path, bench):
    with open(a_path) as f:
        a = json.load(f)
    with open(b_path) as f:
        b = json.load(f)
    fa = {k: a["fingerprint"][k] for k in HOST_KEYS}
    fb = {k: b["fingerprint"][k] for k in HOST_KEYS}
    if fa != fb:
        sys.exit(f"refusing to compare results from different hosts:\n  {fa}\n  {fb}")
    print(f"A: commit {a['fingerprint']['commit']}\nB: commit {b['fingerprint']['commit']}")
    for m in bench["end_to_end"]:
        name, bound, better = m["name"], m["bound"], m["better"]
        for workload in a["runs"]:
            va = [r["metrics"][name]["value"] for r in a["runs"][workload] if name in r["metrics"]]
            vb = [r["metrics"][name]["value"] for r in b["runs"].get(workload, []) if name in r["metrics"]]
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            _, _, _, sp = spread(va)
            verdict = "REGRESSION" if worse > bound else "ok"
            if sp > bound:
                verdict = "unresolved (A's spread exceeds the bound)"
            print(f"{workload:<10} {name:<20} A {ma:>14.6g}  B {mb:>14.6g}  "
                  f"worse by {100 * worse:+7.2f}% (bound {100 * bound:.0f}%)  {verdict}")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads")
    ap.add_argument("--seed0", type=int, default=1000)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--trace", default="0", choices=["0", "1", "both"])
    ap.add_argument("--save")
    ap.add_argument("--compare", nargs=2)
    args = ap.parse_args()
    bench = load_bench()
    if args.compare:
        compare(*args.compare, bench)
        return
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    traces = [0, 1] if args.trace == "both" else [int(args.trace)]
    results = {"same_seed": args.same_seed, "fingerprint": None, "runs": {}}
    for w in workloads:
        for i in range(args.runs):
            seed = args.seed0 if args.same_seed else args.seed0 + i
            for trace in traces:
                last, full = run_once(bench, w, seed, trace)
                if not last["correct"]:
                    sys.exit(f"{w} seed {seed}: output check failed")
                fp = full["fingerprint"]
                if results["fingerprint"] is None:
                    results["fingerprint"] = fp
                elif any(fp[k] != results["fingerprint"][k] for k in HOST_KEYS):
                    sys.exit("host fingerprint changed between runs")
                results["runs"].setdefault(w, []).append(
                    {"seed": seed, "trace": trace, "metrics": full["metrics"]})
                print(f"{w} seed {seed} trace {trace}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in last["metrics"].items()), flush=True)
    report(results, bench)
    if args.save:
        with open(args.save, "w") as f:
            json.dump(results, f, indent=1)


if __name__ == "__main__":
    main()
