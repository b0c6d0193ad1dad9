"""Run one benchmark workload against serreq built from this checkout.

    python3 perfbench/run.py --workload check-zmod --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

The workload runs in this one single-threaded process.  Every op is one
`serreq.cli.main` call on generated input files, its report goes to a
temporary directory inside the checkout, and its answer is checked by
perfbench/checks.py.  Every op's times are scaled by those of a fixed
reference timed around it (perfbench/reference.py), so that they do not
depend on how fast the shared machine runs at that moment.  With --trace 0
the last line of standard output is a JSON object with the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run,
and the spans are written to .perfbench-out/.  --workload all runs each
workload in a child process, one after the other.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from checks import CheckFailed, check_replay, report_digest, witnesses  # noqa: E402
from workloads import REFERENCE_UNITS, WORKLOADS  # noqa: E402

SETUP_REPEATS = 15
SETUP_REFERENCE_UNITS = 5
# wall and cpu: the op's own seconds; ref_wall and ref_cpu: seconds of one
# reference unit, averaged over the references just before and after it
Record = namedtuple("Record", "round name wall cpu ok ref_wall ref_cpu")
END_TO_END = [("setup_s", "s"), ("op_p50_ms", "ms"), ("op_p90_ms", "ms"),
              ("ops_per_s", "1/s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def import_serreq():
    """Import serreq from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "serreq" / "__init__.py").is_file():
        sys.exit(f"error: no serreq sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "serreq" or n.startswith("serreq.")]:
        del sys.modules[name]
    cli = importlib.import_module("serreq.cli")
    session = importlib.import_module("serreq.session")
    if Path(cli.__file__).resolve().parents[1] != src:
        sys.exit(f"error: serreq was imported from {cli.__file__}, not {src}")
    return cli, session


def setup(descriptors):
    """Median time to import serreq and build the workload's theories, at
    the reference's nominal speed."""
    times = []
    for _ in range(SETUP_REPEATS):
        before, _ = reference.measure(SETUP_REFERENCE_UNITS)
        start = time.perf_counter()
        cli, session = import_serreq()
        for desc in descriptors:
            session.theory_from_descriptor(desc)
        elapsed = time.perf_counter() - start
        after, _ = reference.measure(SETUP_REFERENCE_UNITS)
        times.append(elapsed * reference.NOMINAL_UNIT_S / ((before + after) / 2))
    return statistics.median(times), cli


class Runner:
    def __init__(self, cli, tracer=None):
        self.cli = cli
        self.tracer = tracer
        self.digests = {}
        self.unexpected = []

    def call(self, argv):
        """One cli.main call: (exit code or exception, wall s, cpu s)."""
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            cpu0 = time.process_time()
            t0 = time.perf_counter()
            try:
                if self.tracer is not None and self.tracer.enabled:
                    rc = self.tracer.span("cli.main", self.cli.main, (argv,), {})
                else:
                    rc = self.cli.main(argv)
            except Exception as exc:  # a traceback from the program is a failed op
                rc = exc
            wall = time.perf_counter() - t0
            cpu = time.process_time() - cpu0
        return rc, wall, cpu

    def replay_all(self, doc, out):
        """Replay every witness of a report through `serre replay` (untimed)."""
        for i, witness in enumerate(witnesses(doc)):
            path = f"{out[:-5]}-witness-{i}.json"
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(witness, fh)
            rc, _, _ = self.call(["replay", "--input", path, "--out", path + ".out"])
            replayed = load(path + ".out")
            if replayed is None:
                raise CheckFailed(f"replay of {witness['check']} wrote no report ({rc!r})")
            check_replay(replayed, rc, witness["check"])

    def run_op(self, op):
        """Run and check one op; returns (ok, wall s, cpu s)."""
        with contextlib.suppress(FileNotFoundError):
            os.remove(op.out)
        rc, wall, cpu = self.call(op.argv)
        if self.tracer is not None:
            self.tracer.enabled = False
        try:
            if isinstance(rc, Exception):
                raise CheckFailed(f"raised {type(rc).__name__}: {str(rc)[:120]}")
            doc = load(op.out)
            if doc is None:
                raise CheckFailed(f"exit {rc} without a report")
            op.check(doc, rc)
            if op.replay_witnesses:
                self.replay_all(doc, op.out)
            digest = report_digest(doc)
            if self.digests.setdefault(op.name, digest) != digest:
                raise CheckFailed("report differs from the same op's first report")
            ok = True
        except (CheckFailed, KeyError, IndexError, TypeError) as exc:
            # a report without the fields a check reads is a wrong answer too
            ok = False
            if op.fault is None:
                self.unexpected.append(f"{op.name}: {exc}")
        return ok, wall, cpu


def load(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def percentile(values, q):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * q // 100) - 1)]


def run_rounds(runner, ops, seconds, units, tracer=None):
    """Whole rounds of ops until `seconds` have passed, a reference of
    `units` units before every op and after the last; one Record per op."""
    done, refs = [], [reference.measure(units)]
    deadline = time.perf_counter() + seconds
    r = 0
    while True:
        if tracer is not None:
            tracer.new_round()
        for op in ops:
            if tracer is not None:
                tracer.op = len(done)
                tracer.enabled = True
            ok, wall, cpu = runner.run_op(op)
            done.append((r, op.name, wall, cpu, ok))
            refs.append(reference.measure(units))
        r += 1
        if time.perf_counter() >= deadline:
            return [Record(*op, (w0 + w1) / 2, (c0 + c1) / 2)
                    for op, (w0, c0), (w1, c1) in zip(done, refs, refs[1:])]


def round_cpu(records):
    out = {}
    for rec in records:
        out[rec.round] = out.get(rec.round, 0.0) + rec.cpu
    return [out[r] for r in sorted(out)]


def end_to_end(records):
    """Latency, throughput and CPU metrics at the reference's nominal speed:
    each op's wall (CPU) time times the nominal time of a reference unit
    over the wall (CPU) time the reference took around that op."""
    nominal = reference.NOMINAL_UNIT_S
    walls = [rec.wall * nominal / rec.ref_wall for rec in records]
    ok_wall = sum(w for rec, w in zip(records, walls) if rec.ok)
    ok = sum(1 for rec in records if rec.ok)
    cpus = {}
    for rec in records:
        cpus[rec.round] = cpus.get(rec.round, 0.0) + rec.cpu * nominal / rec.ref_cpu
    return {
        "op_p50_ms": 1000 * percentile(walls, 50),
        "op_p90_ms": 1000 * percentile(walls, 90),
        "ops_per_s": ok / ok_wall if ok_wall else 0.0,
        "cpu_s": statistics.median(cpus.values()),
    }


def run_workload(name, seed, seconds, trace):
    make_ops, descriptors = WORKLOADS[name]
    units = REFERENCE_UNITS[name]
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        ops = make_ops(tmp, seed)
        setup_s, cli = setup(descriptors)
        if not trace:
            runner = Runner(cli)
            records = run_rounds(runner, ops, seconds, units)
            ref_ms = sorted(1000 * rec.ref_wall for rec in records)
            print(f"reference unit: {ref_ms[0]:.3f} ms fastest, "
                  f"{statistics.median(ref_ms):.3f} ms median, {ref_ms[-1]:.3f} ms slowest")
            metrics = {"setup_s": setup_s, **end_to_end(records)}
            metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            units = dict(END_TO_END)
        else:
            import tracing
            tracer = tracing.Tracer()
            tracer.install()
            runner = Runner(cli, tracer)
            # round 0 untraced twice (the first warms up), then traced from
            # round 0 on: the same ops on both sides of trace.overhead_ratio
            run_rounds(runner, ops, 0, units)
            untraced = run_rounds(runner, ops, 0, units)
            records = run_rounds(runner, ops, seconds, units, tracer=tracer)
            traced = round_cpu(records)
            metrics = tracer.per_layer(len(traced), traced[0], round_cpu(untraced)[0])
            units = dict(tracing.metric_names())
            out_dir = ROOT / ".perfbench-out"
            out_dir.mkdir(exist_ok=True)
            tracer.write(out_dir / f"spans-{name}-s{seed}.json.gz")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    for line in runner.unexpected[:20]:
        print(f"WRONG: {line}", file=sys.stderr)
    attempted = len(records)
    failed = sum(1 for rec in records if not rec.ok)
    print(f"workload {name}, seed {seed}: {attempted} ops attempted in "
          f"{records[-1].round + 1} rounds, {failed} failed")
    for key, value in metrics.items():
        print(f"  {key:48s} {value:14.4f} {units[key]}")
    return {"correct": not runner.unexpected, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def run_all(args):
    """Each workload in its own child process, one after the other."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        total["correct"] &= result["correct"]
        total["attempted"] += result["attempted"]
        total["failed"] += result["failed"]
        for key, value in result["metrics"].items():
            total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
