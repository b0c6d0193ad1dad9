"""Check that two serreq checkouts write the same reports for every
benchmark op and for the replay of every witness those ops write.

    python3 tools/report_identity.py OLD NEW --seeds 1,5

OLD and NEW are checkout directories (each with src/serreq and
perfbench/workloads.py).  For each checkout and seed, a child process
builds the ops of every workload from that checkout's
perfbench/workloads.py, runs them in order through that checkout's
serreq.cli.main in a fresh temporary directory, and records each op's exit
code, its report with timing fields removed (serreq.session
.strip_timings) and what it printed to stdout and stderr, with the
temporary directory's path replaced by a fixed token.  Each failure
witness in an op's report (perfbench/checks.py `witnesses`) is then
written to a file of its own and run through `serre replay`, and that
outcome is recorded the same way, as one more op.  Nothing else of
perfbench runs: no timing, no answer check.  The script prints every op
whose exit code, report or printed output differs, with the first JSON
paths at which a report differs (such as results[0].eta.matrix), and per
seed how many reports differ at each path.  It exits 1 if any op differs,
0 if none does, and 2, before anything runs, if a checkout lacks
src/serreq or perfbench/workloads.py.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

TMP_TOKEN = "<tmp>"
# what each checkout must hold for its ops to run
NEEDED = ("src/serreq", "perfbench/workloads.py")
SHOWN_PATHS = 3


def differing_paths(a, b, path=""):
    """The JSON paths at which a and b differ, depth first.  Objects and
    lists of objects of one length are compared member by member; any
    other value, a matrix or a vector included, is compared whole."""
    if isinstance(a, dict) and isinstance(b, dict):
        for key in dict.fromkeys([*a, *b]):
            sub = f"{path}.{key}" if path else key
            if key in a and key in b:
                yield from differing_paths(a[key], b[key], sub)
            else:
                yield sub
    elif (isinstance(a, list) and isinstance(b, list) and len(a) == len(b)
          and all(isinstance(x, dict) for x in a + b)):
        for i, (x, y) in enumerate(zip(a, b)):
            yield from differing_paths(x, y, f"{path}[{i}]")
    elif a != b:
        yield path or "$"


def run_op(op, tmp: str) -> list:
    """[exit code, report text, printed text] of one op run in the
    temporary directory tmp, with tmp's path replaced by TMP_TOKEN."""
    from serreq import cli, session

    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = cli.main(op.argv)
        except Exception as exc:  # a traceback is an outcome to compare too
            rc = f"raised {type(exc).__name__}"
    try:
        with open(op.out, encoding="utf-8") as fh:
            report = session.canonical_json(session.strip_timings(json.load(fh)))
    except FileNotFoundError:
        report = None
    if report is not None:
        report = report.replace(tmp, TMP_TOKEN)
    return [rc, report, sink.getvalue().replace(tmp, TMP_TOKEN)]


def run_ops(ops, tmp: str) -> dict:
    """{index/op name: run_op's outcome} of ops run in order in tmp, and
    {index/op name/replay/j: the outcome of `serre replay` of witness j
    alone} for each witness in an op's report.  perfbench must be on
    sys.path."""
    from checks import witnesses

    out = {}
    for i, op in enumerate(ops):
        key = f"{i}/{op.name}"
        out[key] = run_op(op, tmp)
        report = out[key][1]
        for j, witness in enumerate(witnesses(json.loads(report)) if report else ()):
            path = os.path.join(tmp, f"{i}-witness-{j}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(witness, fh)
            replay = SimpleNamespace(argv=["replay", "--input", path, "--out", path + ".out"],
                                     out=path + ".out")
            out[f"{key}/replay/{j}"] = run_op(replay, tmp)
    return out


def run_checkout(root: Path, seed: int) -> dict:
    """{workload/index/op name[/replay/j]: run_op's outcome} for one
    checkout and seed; runs in the child process."""
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    from workloads import WORKLOADS

    out = {}
    for workload, (build, _) in WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            for key, outcome in run_ops(build(tmp, seed), tmp).items():
                out[f"{workload}/{key}"] = outcome
    return out


def difference(a, b) -> tuple[str, list]:
    """(what differs, the JSON paths at which the reports differ) between
    two outcomes of one op, either of them None if the op is missing."""
    if a is None or b is None:
        return "op missing", []
    if a[0] != b[0]:
        return "exit code differs", []
    notes, paths = [], []
    if a[1] != b[1]:
        if None in (a[1], b[1]):
            notes.append("report missing")
        else:
            paths = list(differing_paths(json.loads(a[1]), json.loads(b[1])))
            more = f" and {len(paths) - SHOWN_PATHS} more" if len(paths) > SHOWN_PATHS else ""
            notes.append(f"report differs at {', '.join(paths[:SHOWN_PATHS])}{more}")
    if a[2] != b[2]:
        notes.append("printed output differs")
    return "; ".join(notes), paths


def collect(root: Path, seed: int) -> dict:
    proc = subprocess.run([sys.executable, __file__, "--child", str(root), str(seed)],
                          capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.exit(f"error: the run of {root} at seed {seed} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def seed_list(text: str) -> list[int]:
    """The seeds of a comma-separated list such as "1,5"."""
    try:
        return [int(s) for s in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"not a comma-separated list of integers: {text!r}") from None


def main(argv=None) -> int:
    if argv is None and sys.argv[1:2] == ["--child"]:
        json.dump(run_checkout(Path(sys.argv[2]).resolve(), int(sys.argv[3])), sys.stdout)
        return 0
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--seeds", type=seed_list, default="1,5",
                        help="comma-separated workload seeds")
    args = parser.parse_args(argv)
    for root in (args.old, args.new):
        for needed in NEEDED:
            if not (root / needed).exists():
                parser.error(f"{root} holds no {needed}")
    failed = False
    for seed in args.seeds:
        old, new = collect(args.old.resolve(), seed), collect(args.new.resolve(), seed)
        keys = list(dict.fromkeys([*old, *new]))
        differ = 0
        tally = {}
        for key in keys:
            a, b = old.get(key), new.get(key)
            if a == b:
                continue
            differ += 1
            what, paths = difference(a, b)
            for path in paths:
                tally[path] = tally.get(path, 0) + 1
            print(f"seed {seed} {key}: {what}")
        print(f"seed {seed}: {len(keys)} ops, {differ} differ")
        for path, count in sorted(tally.items(), key=lambda item: -item[1]):
            print(f"seed {seed}:   {count} reports differ at {path}")
        failed |= differ > 0
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
