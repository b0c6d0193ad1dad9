"""Batch command-line front end.

    serre saturate [--engine E [--p P|--field F]] --input FILE [--objects M ...]
    serre qhom     [--engine E [--p P|--field F]] --input FILE --objects M N [--oracle]
    serre check    --engine E [--p P|--field F] [--suite S] [--n N] [--candidate C]
    serre replay   --input WITNESS_FILE

Every command also takes --seed, --format and --out, and each takes only
the flags it reads.  A call whose first word is a command builds that
command's parser only; the full parser is built for any other argv and
for a word that the command leaves over.  Engines: finite_abelian (with
--p), a2_rep (with --field, e.g. f101 or q), fixture (with --p; 0 selects
the full torsion class); --p and --field are invalid input without an
engine that uses them.  SERRE_SEED provides the default seed; flags
override it.  --p, --seed, --n and SERRE_SEED are an optional "-" and
ASCII digits, as input integers are (category.int_from_text).

A command computes and returns its report's parts and its text lines;
`main` times it, writes the report (to --out, and to stdout with --format
json) and only then prints the text lines.  Exit code 0 means every
requested check passed, 1 means some check failed, 2 means invalid
input, an --out that cannot be written or a result too large to write
included.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__, serre, session
from .category import int_from_text
from .errors import SerreqError


def _flag_theory(args):
    """The theory that the engine flags name, or None; --p and --field
    only with an engine that reads them."""
    for flag in ("p", "field"):
        readers = [kind for kind, cls in session.THEORIES.items() if cls.flag[0] == flag]
        if getattr(args, flag) is not None and args.engine not in readers:
            raise session.InputValidationError(f"--{flag} needs --engine {' or '.join(readers)}")
    if args.engine is None:
        return None
    cls = session.THEORIES[args.engine]
    flag, default = cls.flag
    value = getattr(args, flag)
    return cls.from_descriptor({"kind": args.engine, flag: default if value is None else value})


def _named_objects(args, usage=None):
    """(theory, names, objects) of the input file: the names of --objects,
    by default every object's in name order, each of which must name an
    object, and those objects.  A command that reads a fixed list of
    objects gives its usage, such as "SRC DST", which --objects must fit."""
    theory = _flag_theory(args)
    if not args.input:
        raise session.InputValidationError("this command needs --input FILE")
    theory, objects = session.load_session_input(session.load_json_file(args.input), theory)
    if usage and len(args.objects or ()) != len(usage.split()):
        raise session.InputValidationError(f"{args.command} needs --objects {usage}")
    names = args.objects or sorted(objects)
    for name in names:
        if name not in objects:
            raise session.InputValidationError(f"unknown object name: {name}")
    return theory, names, [objects[name] for name in names]


def _emit(doc, args):
    """Write the report to --out (if given) and, with --format json, to
    stdout.  `main` prints the text lines only after this returns, so a
    result that cannot be written (an integer over Python's int-to-str
    digit limit) is reported here, once, as invalid input."""
    try:
        text = session.canonical_json(doc)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except (OSError, ValueError) as exc:  # ValueError: an integer over the digit limit
        raise session.InputValidationError(
            f"cannot write {args.out or 'the report'}: {exc}") from exc
    if args.format == "json":
        sys.stdout.write(text)


# Each command returns (command descriptor, results, check reports, exit
# code, text lines) and `main` reports them.  Lines that format a result
# come from a generator, so they are formatted only as `main` prints them.


def cmd_saturate(args):
    theory, names, objects = _named_objects(args)
    e = theory.engine
    results = []
    for name, m in zip(names, objects):
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
    lines = (f"{r['name']}: W = {r['w']}, H_C = {r['h_c']}, saturated = {r['saturated']}"
             for r in results)
    return ({"name": "saturate", "engine": theory.describe(), "objects": names},
            results, [], 0, lines)


def cmd_qhom(args):
    theory, names, (m, n) = _named_objects(args, "SRC DST")
    qh = serre.q_hom(theory, m, n)
    result = {"src": names[0], "dst": names[1], "q_hom": qh.describe()}
    if args.oracle:
        col = serre.q_hom_via_colimit(theory, m, n)
        result["oracle"] = col.describe()
        result["oracle_agrees"] = (col.invariants() == qh.invariants()
                                   and col.comparison_is_bijective(qh))
    lines = (f"q_hom({r['src']}, {r['dst']}) = {r['q_hom']}"
             + (f"; direct-limit oracle agrees: {r['oracle_agrees']}" if args.oracle else "")
             for r in [result])
    return ({"name": "qhom", "engine": theory.describe(), "objects": names,
             "oracle": bool(args.oracle)},
            [result], [], 0 if result.get("oracle_agrees", True) else 1, lines)


# the largest --n: a check's work and its command's memos grow with n, so
# the bound keeps every run finite while staying far above the default 25
MAX_SAMPLES = 1000


def cmd_check(args):
    if not 0 <= args.n <= MAX_SAMPLES:
        raise session.InputValidationError(
            f"--n must be from 0 to {MAX_SAMPLES}, got {args.n}")
    theory = _flag_theory(args)
    if args.input:
        theory = session.input_theory(session.load_json_file(args.input), theory)
    elif theory is None:
        raise session.InputValidationError("no engine given (use --engine or an input file)")
    suite = args.suite or "all"
    candidate = serre.make_candidate(theory, args.candidate)
    reports = serre.run_suite(theory, suite, args.seed, args.n, candidate)
    args.out = args.out or "serre-report.json"
    lines = (f"[{'PASS' if item.passed else 'FAIL'}] {r.suite}/{item.label} "
             f"samples={item.samples}" + (f" ({item.detail})" if item.detail else "")
             for r in reports for item in r.items)
    return ({"name": "check", "engine": theory.describe(), "suite": suite,
             "candidate": args.candidate, "n": args.n},
            [], reports, 0 if all(r.passed for r in reports) else 1, lines)


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


def cmd_replay(args):
    if not args.input:
        raise session.InputValidationError("replay needs --input WITNESS_FILE")
    doc = session.load_json_file(args.input)
    is_witness = isinstance(doc, dict) and "check" in doc and "data" in doc
    witness = doc if is_witness else _first_witness(doc)
    command = {"name": "replay", "input": args.input}
    if witness is None:
        return (command, [{"status": "nothing-to-replay"}], [], 0,
                ["nothing to replay: no failure witness in the input"])
    result = session.replay_witness(witness)
    # these lines hold only strings, so they may be formatted before the report
    word = "reproduced" if result["reproduced"] else "NOT reproduced"
    lines = [f"replay {result['check']}: failure {word}"
             + (f" ({result['detail']})" if result["detail"] else "")]
    if result["version_mismatch"]:
        lines.append("note: witness was produced by a different package version")
    return command, [result], [], 0 if result["reproduced"] else 1, lines


def _env_seed() -> int:
    text = os.environ.get("SERRE_SEED", "0")
    value = int_from_text(text)
    if value is None:
        raise session.InputValidationError(f"SERRE_SEED must be an integer, got {text!r}")
    return value


def _int_flag(text) -> int:
    """The value of an integer flag, written as the input decoders write
    integers (category.int_from_text)."""
    value = int_from_text(text)
    if value is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return value


# every flag, in --help order
FLAGS = {
    "engine": dict(choices=list(session.THEORIES)),
    "p": dict(type=_int_flag, default=None,
              help="prime for finite_abelian/fixture (fixture accepts 0)"),
    "field": dict(default=None, help="field for a2_rep (f101, f2, q)"),
    "input": dict(default=None, help="JSON input file"),
    "suite": dict(default=None, choices=list(serre.SUITES) + ["all"]),
    "seed": dict(type=_int_flag, default=None),
    "n": dict(type=_int_flag, default=25,
              help=f"random samples per check, from 0 to {MAX_SAMPLES} (default 25)"),
    "oracle": dict(action="store_true", help="also run the direct-limit Hom oracle"),
    # the generic candidates of serre.make_candidate, then each theory's own;
    # the default is the first, the reflection
    "candidate": dict(default=serre.CANDIDATE_TAGS[0], choices=list(dict.fromkeys(
        serre.CANDIDATE_TAGS + tuple(cls.canonical_tag for cls in session.THEORIES.values())))),
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


def _add_command(parser, name) -> argparse.ArgumentParser:
    """`parser` with the defaults and the flags of command `name`."""
    fn, flags = COMMANDS[name]
    parser.set_defaults(fn=fn, command=name)
    for flag, spec in FLAGS.items():
        if flag in flags:
            parser.add_argument(f"--{flag}", **spec)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The full parser: the top level and every subcommand with the flags
    it reads.  `parse_args` builds it only where the top level answers."""
    parser = argparse.ArgumentParser(
        prog="serre",
        description="Serre quotient computations and monad checker suites")
    parser.add_argument("--version", action="version", version=f"serre {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        _add_command(sub.add_parser(name), name)
    return parser


def parse_args(argv) -> argparse.Namespace:
    """The namespace of `argv`, parsed, helped and failed exactly as by the
    full parser.

    An argv whose first word is a command goes to that command's parser
    alone, built as `add_parser` builds it: the full parser would hand it
    the rest of argv and let it print help, usage and errors.  The top
    level answers itself only for a word the command leaves over and for a
    word starting "--=", which it finds ambiguous between --help and
    --version before it dispatches.  Those argvs, and every argv that
    names no command, go to the full parser."""
    if argv and argv[0] in COMMANDS and not any(w.startswith("--=") for w in argv):
        own = _add_command(argparse.ArgumentParser(prog=f"serre {argv[0]}"), argv[0])
        args, left = own.parse_known_args(argv[1:])
        if not left:
            return args
    return build_parser().parse_args(argv)


def main(argv=None) -> int:
    """Run one command and report it: time the command, build its report,
    write it, and only then, with --format text, print its lines."""
    if argv is None:
        argv = sys.argv[1:]
    args = parse_args(argv)
    started = time.perf_counter()
    try:
        if args.seed is None:
            args.seed = _env_seed()
        command, results, reports, exit_code, lines = args.fn(args)
        timings = {"wall_ms": round((time.perf_counter() - started) * 1000, 3)}
        _emit(session.build_document(command, args.seed, results, reports, exit_code,
                                     timings), args)
    except SerreqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "text":
        for line in lines:
            print(line)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
