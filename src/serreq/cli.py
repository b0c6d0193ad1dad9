"""Batch command-line front end.

    serre saturate --engine E [--p P|--field F] --input FILE [options]
    serre qhom     --engine E [--p P|--field F] --input FILE --objects M N [--oracle]
    serre check    --engine E [--p P|--field F] [--suite S] [--seed N] [--n N]
    serre replay   --input WITNESS_FILE

Engines: finite_abelian (with --p), a2_rep (with --field, e.g. f101 or q),
fixture (with --p; 0 selects the full torsion class).  SERRE_SEED provides
the default seed; flags override it.  Exit code 0 means every requested
check passed, 1 means some check failed, 2 means invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, serre, session
from .errors import SerreqError


def _engine_descriptor(args) -> dict | None:
    if args.engine is None:
        return None
    if args.engine in ("finite_abelian", "fixture"):
        p = args.p if args.p is not None else 2
        return {"kind": args.engine, "p": p}
    if args.engine == "a2_rep":
        return {"kind": "a2_rep", "field": args.field or "f101"}
    raise session.InputValidationError(f"unknown engine: {args.engine}")


def _resolve_theory(args, need_input=False):
    desc = _engine_descriptor(args)
    theory = session.theory_from_descriptor(desc) if desc else None
    sess = None
    if args.input:
        sess = session.load_session_input(session.load_json_file(args.input), theory)
        theory = sess.theory
    elif need_input:
        raise session.InputValidationError("this command needs --input FILE")
    if theory is None:
        raise session.InputValidationError("no engine given (use --engine or an input file)")
    return theory, sess


def _emit(doc, args):
    text = session.canonical_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)


def cmd_saturate(args) -> int:
    theory, sess = _resolve_theory(args, need_input=True)
    e = theory.engine
    names = args.objects or sorted(sess.objects)
    results = []
    for name in names:
        if name not in sess.objects:
            raise session.InputValidationError(f"unknown object name: {name}")
        m = sess.objects[name]
        w, eta = theory.saturate(m)
        hc = theory.h_c(m)
        results.append({
            "name": name,
            "object": e.describe_invariants(m),
            "w": e.describe_invariants(w),
            "eta": e.mor_to_payload(eta),
            "h_c": e.describe_invariants(hc.src),
            "saturated": theory.is_saturated(m),
            "in_c": theory.is_in_c(m),
        })
        if args.format == "text":
            print(f"{name}: W = {results[-1]['w']}, H_C = {results[-1]['h_c']}, "
                  f"saturated = {results[-1]['saturated']}")
    doc = session.build_document(
        {"name": "saturate", "engine": theory.describe(), "objects": names},
        args.seed, results, [], 0, {"wall_ms": args._elapsed_ms()})
    _emit(doc, args)
    return 0


def cmd_qhom(args) -> int:
    theory, sess = _resolve_theory(args, need_input=True)
    if not args.objects or len(args.objects) != 2:
        raise session.InputValidationError("qhom needs --objects SRC DST")
    for name in args.objects:
        if name not in sess.objects:
            raise session.InputValidationError(f"unknown object name: {name}")
    m, n = (sess.objects[x] for x in args.objects)
    qh = serre.q_hom(theory, m, n)
    result = {"src": args.objects[0], "dst": args.objects[1], "q_hom": qh.describe()}
    exit_code = 0
    if args.oracle:
        col = serre.q_hom_via_colimit(theory, m, n)
        agree = (col.invariants() == qh.invariants()
                 and col.comparison_is_bijective(qh))
        result["oracle"] = col.describe()
        result["oracle_agrees"] = agree
        if not agree:
            exit_code = 1
    if args.format == "text":
        line = f"q_hom({args.objects[0]}, {args.objects[1]}) = {result['q_hom']}"
        if args.oracle:
            line += f"; direct-limit oracle agrees: {result['oracle_agrees']}"
        print(line)
    doc = session.build_document(
        {"name": "qhom", "engine": theory.describe(), "objects": args.objects,
         "oracle": bool(args.oracle)},
        args.seed, [result], [], exit_code, {"wall_ms": args._elapsed_ms()})
    _emit(doc, args)
    return exit_code


def cmd_check(args) -> int:
    if args.n < 0:
        raise session.InputValidationError(f"--n must be at least 0, got {args.n}")
    theory, _ = _resolve_theory(args)
    suite = args.suite or "all"
    reports = serre.run_suite(theory, suite, args.seed, args.n, args.candidate)
    exit_code = 0 if all(r.passed for r in reports) else 1
    if args.format == "text":
        for r in reports:
            for item in r.items:
                status = "PASS" if item.passed else "FAIL"
                extra = f" ({item.detail})" if item.detail else ""
                print(f"[{status}] {r.suite}/{item.label} samples={item.samples}{extra}")
    doc = session.build_document(
        {"name": "check", "engine": theory.describe(), "suite": suite,
         "candidate": args.candidate or "gabriel", "n": args.n},
        args.seed, [], reports, exit_code, {"wall_ms": args._elapsed_ms()})
    if not args.out:
        args.out = "serre-report.json"
    _emit(doc, args)
    return exit_code


def _list_of_objects(value, where):
    if not isinstance(value, list) or any(not isinstance(x, dict) for x in value):
        raise session.InputValidationError(f"{where} must be a list of objects")
    return value


def _first_witness(doc):
    """The first witness in a report document, which holds them at
    checks[] (one per suite) -> checks[] (one per check) -> witness."""
    if not isinstance(doc, dict):
        raise session.InputValidationError("a report must be a JSON object")
    for suite in _list_of_objects(doc.get("checks", []), "report 'checks'"):
        for check in _list_of_objects(suite.get("checks", []), "suite 'checks'"):
            if "witness" in check:
                return check["witness"]
    return None


def cmd_replay(args) -> int:
    if not args.input:
        raise session.InputValidationError("replay needs --input WITNESS_FILE")
    doc = session.load_json_file(args.input)
    is_witness = isinstance(doc, dict) and "check" in doc and "data" in doc
    witness = doc if is_witness else _first_witness(doc)
    if witness is None:
        if args.format == "text":
            print("nothing to replay: no failure witness in the input")
        doc = session.build_document({"name": "replay", "input": args.input},
                                     args.seed, [{"status": "nothing-to-replay"}],
                                     [], 0, {"wall_ms": args._elapsed_ms()})
        _emit(doc, args)
        return 0
    result = session.replay_witness(witness)
    if args.format == "text":
        word = "reproduced" if result["reproduced"] else "NOT reproduced"
        print(f"replay {result['check']}: failure {word}"
              + (f" ({result['detail']})" if result["detail"] else ""))
        if result["version_mismatch"]:
            print("note: witness was produced by a different package version")
    exit_code = 0 if result["reproduced"] else 1
    doc = session.build_document({"name": "replay", "input": args.input},
                                 args.seed, [result], [], exit_code,
                                 {"wall_ms": args._elapsed_ms()})
    _emit(doc, args)
    return exit_code


def _env_seed() -> int:
    text = os.environ.get("SERRE_SEED", "0")
    try:
        return int(text)
    except ValueError as exc:
        raise session.InputValidationError(
            f"SERRE_SEED must be an integer, got {text!r}") from exc


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serre",
        description="Serre quotient computations and monad checker suites")
    parser.add_argument("--version", action="version", version=f"serre {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in (("saturate", cmd_saturate), ("qhom", cmd_qhom),
                     ("check", cmd_check), ("replay", cmd_replay)):
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        p.add_argument("--engine", choices=["finite_abelian", "a2_rep", "fixture"])
        p.add_argument("--p", type=int, default=None,
                       help="prime for finite_abelian/fixture (fixture accepts 0)")
        p.add_argument("--field", default=None, help="field for a2_rep (f101, f2, q)")
        p.add_argument("--input", default=None, help="JSON input file")
        p.add_argument("--suite", default=None,
                       choices=list(serre.SUITES) + ["all"])
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--n", type=int, default=25)
        p.add_argument("--oracle", action="store_true",
                       help="also run the direct-limit Hom oracle")
        p.add_argument("--candidate", default=None,
                       choices=["gabriel", "identity", "twisted", "fixture-naive"])
        p.add_argument("--objects", nargs="*", default=None)
        p.add_argument("--format", choices=["json", "text"], default="text")
        p.add_argument("--out", default=None, help="write the JSON report here")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.perf_counter()
    args._elapsed_ms = lambda: round((time.perf_counter() - started) * 1000, 3)
    try:
        if args.seed is None:
            args.seed = _env_seed()
        return args.fn(args)
    except SerreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
