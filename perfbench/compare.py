"""Collect sets of benchmark runs and compare two of them.

    python3 perfbench/compare.py collect DIR --seeds 1-10 [--workloads W ...] [--trace 1]
    python3 perfbench/compare.py compare DIR_A DIR_B

`collect` runs perfbench/run.py once per workload and seed, one run after
the other, with the run length from BENCHMARK.json, and keeps the last
line of each run as DIR/<workload>-s<seed>.json.  `compare` prints, for
every workload and end-to-end metric, each set's median and quartiles,
the quartile spread as a share of the median, and whether the two sets
agree within the metric's bound from BENCHMARK.json: each spread within
the bound (setup_s excepted), B's median no worse than A's by more than
the bound, and the same share of failed ops.  It exits 1 if any row
disagrees.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_benchmark():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(args):
    bench = load_benchmark()
    out = Path(args.dir)
    out.mkdir(parents=True, exist_ok=True)
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    for seed in parse_seeds(args.seeds):
        for name in workloads:
            cmd = [*bench["command"], "--workload", name, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                                  check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.exit(f"error: {name} seed {seed} exited {proc.returncode}")
            (out / f"{name}-s{seed}.json").write_text(lines[-1] + "\n", encoding="utf-8")
            result = json.loads(lines[-1])
            print(f"{name} seed {seed}: attempted {result['attempted']}, "
                  f"failed {result['failed']}, correct {result['correct']}", flush=True)
    return 0


def load_set(directory):
    """{workload: [result, ...]} from one collected directory."""
    runs = {}
    for path in sorted(Path(directory).glob("*-s*.json")):
        name = path.stem.rsplit("-s", 1)[0]
        runs.setdefault(name, []).append(json.loads(path.read_text(encoding="utf-8")))
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def compare(args):
    bench = load_benchmark()
    sets = [load_set(args.dir_a), load_set(args.dir_b)]
    ok = True
    header = (f"{'workload':14s} {'metric':12s} {'set':3s} {'median':>12s} {'q1':>12s} "
              f"{'q3':>12s} {'spread':>7s}  verdict")
    print(header)
    for wl in bench["workloads"]:
        name = wl["name"]
        if not all(name in s for s in sets):
            print(f"{name:14s} missing from a set")
            ok = False
            continue
        shares = []
        for s in sets:
            attempted = sum(r["attempted"] for r in s[name])
            failed = sum(r["failed"] for r in s[name])
            shares.append((failed, attempted))
        same_share = shares[0][0] * shares[1][1] == shares[1][0] * shares[0][1]
        correct = all(r["correct"] for s in sets for r in s[name])
        for metric in bench["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            medians, verdicts = [], []
            rows = []
            for label, s in zip("AB", sets):
                values = [r["metrics"][key]["value"] for r in s[name]]
                q1, med, q3 = quartiles(values)
                spread = (q3 - q1) / med
                medians.append(med)
                if key != "setup_s" and spread > bound:
                    verdicts.append(f"{label} spread > {bound}")
                rows.append((label, med, q1, q3, spread))
            change = (medians[1] - medians[0]) / medians[0]
            worse = change if metric["better"] == "lower" else -change
            if worse > bound:
                verdicts.append(f"B worse by {worse:.3f} > {bound}")
            verdict = "; ".join(verdicts) or f"agree (B {change:+.3f})"
            ok &= not verdicts
            for label, med, q1, q3, spread in rows:
                print(f"{name:14s} {key:12s} {label:3s} {med:12.4f} {q1:12.4f} {q3:12.4f} "
                      f"{spread:7.3f}  {verdict if label == 'B' else ''}")
        share_text = " vs ".join(f"{f}/{a}" for f, a in shares)
        print(f"{name:14s} failed ops   {share_text}: "
              f"{'same share' if same_share else 'DIFFERENT share'}; "
              f"correct {'in every run' if correct else 'NOT in every run'}")
        ok &= same_share and correct
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    c = sub.add_parser("collect")
    c.add_argument("dir")
    c.add_argument("--seeds", default="1-10")
    c.add_argument("--workloads", nargs="*")
    c.add_argument("--trace", type=int, choices=(0, 1), default=0)
    m = sub.add_parser("compare")
    m.add_argument("dir_a")
    m.add_argument("dir_b")
    args = parser.parse_args(argv)
    return collect(args) if args.command == "collect" else compare(args)


if __name__ == "__main__":
    sys.exit(main())
