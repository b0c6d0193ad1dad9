"""Batch command-line front end.

    serre saturate [--engine E [--p P|--field F]] --input FILE [--objects M ...]
    serre qhom     [--engine E [--p P|--field F]] --input FILE --objects M N [--oracle]
    serre check    --engine E [--p P|--field F] [--suite S] [--n N] [--candidate C]
    serre replay   --input WITNESS_FILE

Every command also takes --seed, --format and --out, and each takes only
the flags it reads.  Engines: finite_abelian (with --p), a2_rep (with
--field, e.g. f101 or q), fixture (with --p; 0 selects the full torsion
class); --p and --field are invalid input without an engine that uses
them.  SERRE_SEED provides the default seed; flags override it.  Exit
code 0 means every requested check passed, 1 means some check failed, 2
means invalid input.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, serre, session
from .errors import SerreqError


def _engine_descriptor(args) -> dict | None:
    """The engine named by the flags; --p and --field only with an engine
    that reads them."""
    for flag in ("p", "field"):
        readers = [kind for kind, cls in session.THEORIES.items() if cls.flag[0] == flag]
        if getattr(args, flag) is not None and args.engine not in readers:
            raise session.InputValidationError(f"--{flag} needs --engine {' or '.join(readers)}")
    if args.engine is None:
        return None
    flag, default = session.THEORIES[args.engine].flag
    value = getattr(args, flag)
    # an empty --field selects the default too
    return {"kind": args.engine, flag: default if value in (None, "") else value}


def _resolve_theory(args, need_input=False):
    """(theory, {name: object}): the input file is decoded only when the
    command needs its objects; otherwise only its engine is read."""
    desc = _engine_descriptor(args)
    theory = session.theory_from_descriptor(desc) if desc else None
    if args.input:
        doc = session.load_json_file(args.input)
        if not need_input:
            return session.input_theory(doc, theory), None
        return session.load_session_input(doc, theory)
    if need_input:
        raise session.InputValidationError("this command needs --input FILE")
    if theory is None:
        raise session.InputValidationError("no engine given (use --engine or an input file)")
    return theory, None


def _emit(doc, args):
    text = session.canonical_json(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    if args.format == "json":
        sys.stdout.write(text)


def cmd_saturate(args) -> int:
    theory, objects = _resolve_theory(args, need_input=True)
    e = theory.engine
    names = args.objects or sorted(objects)
    results = []
    for name in names:
        if name not in objects:
            raise session.InputValidationError(f"unknown object name: {name}")
        m = objects[name]
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
    theory, objects = _resolve_theory(args, need_input=True)
    if not args.objects or len(args.objects) != 2:
        raise session.InputValidationError("qhom needs --objects SRC DST")
    for name in args.objects:
        if name not in objects:
            raise session.InputValidationError(f"unknown object name: {name}")
    m, n = (objects[x] for x in args.objects)
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


# every flag, in --help order
FLAGS = {
    "engine": dict(choices=list(session.THEORIES)),
    "p": dict(type=int, default=None,
              help="prime for finite_abelian/fixture (fixture accepts 0)"),
    "field": dict(default=None, help="field for a2_rep (f101, f2, q)"),
    "input": dict(default=None, help="JSON input file"),
    "suite": dict(default=None, choices=list(serre.SUITES) + ["all"]),
    "seed": dict(type=int, default=None),
    "n": dict(type=int, default=25),
    "oracle": dict(action="store_true", help="also run the direct-limit Hom oracle"),
    # the generic candidates of serre.make_candidate, then each theory's own
    "candidate": dict(default=None, choices=list(dict.fromkeys(
        ["gabriel", "identity", "twisted"]
        + [cls.canonical_tag for cls in session.THEORIES.values()]))),
    "objects": dict(nargs="*", default=None),
    "format": dict(choices=["json", "text"], default="text"),
    "out": dict(default=None, help="write the JSON report here"),
}

# each subcommand and the flags it reads
COMMANDS = {
    "saturate": (cmd_saturate, {"engine", "p", "field", "input", "objects",
                                "seed", "format", "out"}),
    "qhom": (cmd_qhom, {"engine", "p", "field", "input", "objects", "oracle",
                        "seed", "format", "out"}),
    "check": (cmd_check, {"engine", "p", "field", "input", "suite", "n", "candidate",
                          "seed", "format", "out"}),
    "replay": (cmd_replay, {"input", "seed", "format", "out"}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="serre",
        description="Serre quotient computations and monad checker suites")
    parser.add_argument("--version", action="version", version=f"serre {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in COMMANDS.items():
        p = sub.add_parser(name)
        p.set_defaults(fn=fn)
        for flag, spec in FLAGS.items():
            if flag in flags:
                p.add_argument(f"--{flag}", **spec)
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
