"""The serre command-line front end."""

import argparse
import contextlib
import copy
import io
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from math import prod
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreq import serre, session
from serreq.category import MAX_INPUT_SIZE, ShortExactSequence
from serreq.cli import COMMANDS, FLAGS, _emit, build_parser, main, parse_args
from serreq.zmodules import FixtureTheory


@pytest.fixture
def fa_input(tmp_path):
    doc = {
        "engine": {"kind": "finite_abelian", "p": 2},
        "objects": {
            "M": {"relations": [[12]], "gens": 1},
            "N": {"relations": [[9]], "gens": 1},
            "Zero": {"relations": [], "gens": 0},
        },
        "morphisms": {
            "f": {"src": "M", "dst": "N", "matrix": [[3]]},
        },
    }
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def a2_input(tmp_path):
    doc = {
        "engine": {"kind": "a2_rep", "field": "f101"},
        "objects": {"V": {"dims": [1, 1], "alpha": [[0]]}},
    }
    path = tmp_path / "a2.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def read_report(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


class TestSaturate:
    def test_finite_abelian(self, fa_input, tmp_path, capsys):
        out = tmp_path / "rep.json"
        code = main(["saturate", "--input", fa_input, "--out", str(out)])
        assert code == 0
        doc = read_report(str(out))
        by_name = {r["name"]: r for r in doc["results"]}
        assert by_name["M"]["w"] == {"rank": 0, "divisors": [3]}
        assert by_name["M"]["h_c"] == {"rank": 0, "divisors": [4]}
        assert by_name["Zero"]["w"] == {"rank": 0, "divisors": []}
        assert by_name["N"]["saturated"] is True
        assert "W = " in capsys.readouterr().out

    def test_a2(self, a2_input, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["saturate", "--input", a2_input, "--out", str(out)]) == 0
        doc = read_report(str(out))
        assert doc["results"][0]["w"] == {"dims": [1, 1], "alpha_rank": 1}

    def test_unknown_object_name(self, fa_input):
        assert main(["saturate", "--input", fa_input, "--objects", "nope"]) == 2

    def test_engine_conflict(self, fa_input):
        code = main(["saturate", "--engine", "finite_abelian", "--p", "3",
                     "--input", fa_input])
        assert code == 2


class TestQhom:
    def test_with_oracle(self, fa_input, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["qhom", "--input", fa_input, "--objects", "M", "N",
                     "--oracle", "--out", str(out)])
        assert code == 0
        doc = read_report(str(out))
        res = doc["results"][0]
        assert res["q_hom"] == {"kind": "Z", "rank": 0, "divisors": [3]}
        assert res["oracle_agrees"] is True

    def test_c_source_is_zero(self, tmp_path):
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"A": {"relations": [[4]], "gens": 1},
                           "B": {"relations": [[9]], "gens": 1}}}
        path = tmp_path / "c.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        out = tmp_path / "rep.json"
        assert main(["qhom", "--input", str(path), "--objects", "A", "B",
                     "--out", str(out)]) == 0
        assert read_report(str(out))["results"][0]["q_hom"]["divisors"] == []

    def test_oracle_object_too_large(self, tmp_path, capsys):
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"M": {"relations": [[512]], "gens": 1}}}
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["qhom", "--input", str(path), "--objects", "M", "M", "--oracle"]) == 2
        assert "too large" in capsys.readouterr().err

    def test_oracle_too_many_subgroups(self, tmp_path, capsys):
        # (Z/2)^8 has 256 elements but 417,199 subgroups
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"M": {"relations": _diagonal(8, 2)}}}
        t0 = time.perf_counter()
        assert main(["qhom", "--input", _write(tmp_path, doc), "--objects", "M", "M",
                     "--oracle"]) == 2
        assert time.perf_counter() - t0 < 2
        assert "too many subgroups" in capsys.readouterr().err

    def test_oracle_unsupported_on_quiver(self, a2_input):
        assert main(["qhom", "--input", a2_input, "--objects", "V", "V",
                     "--oracle"]) == 2

    def test_needs_two_objects(self, fa_input):
        assert main(["qhom", "--input", fa_input, "--objects", "M"]) == 2


class TestCheck:
    def test_all_suites_pass(self, tmp_path):
        out = tmp_path / "rep.json"
        code = main(["check", "--engine", "finite_abelian", "--p", "2",
                     "--suite", "all", "--seed", "7", "--n", "6",
                     "--out", str(out)])
        assert code == 0
        doc = read_report(str(out))
        assert doc["exit"] == 0
        suites = {c["suite"] for c in doc["checks"]}
        assert suites == {"monad-laws", "idempotent", "zigzag", "saturating",
                          "gabriel-equiv", "ker-q"}

    def test_fixture_fails_with_witness(self, tmp_path):
        out = tmp_path / "fix.json"
        code = main(["check", "--engine", "fixture", "--p", "2",
                     "--suite", "saturating", "--seed", "3", "--n", "4",
                     "--out", str(out)])
        assert code == 1
        doc = read_report(str(out))
        failing = [c for suite in doc["checks"] for c in suite["checks"]
                   if not c["pass"]]
        assert failing[0]["axiom"] == "saturating-2-image-saturated"
        assert "witness" in failing[0]

    def test_zigzag_zero_samples(self, tmp_path):
        out = tmp_path / "z.json"
        assert main(["check", "--engine", "a2_rep", "--field", "f101",
                     "--suite", "zigzag", "--seed", "1", "--n", "0",
                     "--out", str(out)]) == 0

    def test_identity_candidate(self, tmp_path):
        out = tmp_path / "id.json"
        code = main(["check", "--engine", "finite_abelian", "--p", "2",
                     "--suite", "saturating", "--candidate", "identity",
                     "--seed", "5", "--n", "4", "--out", str(out)])
        assert code == 1
        doc = read_report(str(out))
        failing = [c for suite in doc["checks"] for c in suite["checks"]
                   if not c["pass"]]
        assert failing[0]["axiom"] == "saturating-1-kills-c"

    def test_foreign_canonical_tag_rejected(self, tmp_path, capsys):
        # fixture-naive names the fixture's own candidate, not a Gabriel monad
        out = tmp_path / "rep.json"
        assert main(["check", "--engine", "finite_abelian", "--p", "2",
                     "--suite", "saturating", "--candidate", "fixture-naive",
                     "--seed", "3", "--n", "4", "--out", str(out)]) == 2
        assert "fixture-naive" in capsys.readouterr().err
        assert not out.exists()

    def test_own_canonical_tag_accepted(self, tmp_path):
        docs = []
        for candidate in ("fixture-naive", "gabriel"):
            out = tmp_path / f"{candidate}.json"
            assert main(["check", "--engine", "fixture", "--p", "2", "--suite", "saturating",
                         "--candidate", candidate, "--seed", "3", "--n", "4",
                         "--out", str(out)]) == 1
            docs.append(read_report(str(out))["checks"])
        assert docs[0] == docs[1]

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--engine", "finite_abelian", "--p", "2",
                  "--suite", "nonsense"])

    def test_default_report_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--engine", "a2_rep", "--suite", "ker-q",
                     "--seed", "2", "--n", "3"]) == 0
        assert (tmp_path / "serre-report.json").exists()

    def test_input_file_gives_only_the_engine(self, tmp_path):
        # check samples its own objects: one the finite engine would reject
        # is never decoded, while a conflicting engine still is an error
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"M": {"relations": [[0]], "gens": 1}}}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        argv = ["check", "--input", str(path), "--suite", "ker-q", "--n", "1",
                "--out", str(tmp_path / "o.json")]
        assert main(argv) == 0
        assert read_report(str(tmp_path / "o.json"))["command"]["engine"] == doc["engine"]
        assert main(argv + ["--engine", "finite_abelian", "--p", "3"]) == 2


class TestReplay:
    def test_replay_from_report(self, tmp_path, capsys):
        out = tmp_path / "fix.json"
        main(["check", "--engine", "fixture", "--p", "2", "--suite", "saturating",
              "--seed", "3", "--n", "4", "--out", str(out)])
        assert main(["replay", "--input", str(out)]) == 0
        assert "reproduced" in capsys.readouterr().out

    def test_replay_bare_witness(self, tmp_path):
        out = tmp_path / "fix.json"
        main(["check", "--engine", "fixture", "--p", "2", "--suite", "saturating",
              "--seed", "3", "--n", "4", "--out", str(out)])
        doc = read_report(str(out))
        witness = next(c["witness"] for suite in doc["checks"]
                       for c in suite["checks"] if not c["pass"])
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(witness), encoding="utf-8")
        assert main(["replay", "--input", str(wfile)]) == 0

    def test_nothing_to_replay(self, tmp_path, capsys):
        out = tmp_path / "ok.json"
        main(["check", "--engine", "finite_abelian", "--p", "2",
              "--suite", "ker-q", "--seed", "1", "--n", "3", "--out", str(out)])
        assert main(["replay", "--input", str(out)]) == 0
        assert "nothing to replay" in capsys.readouterr().out

    @staticmethod
    def _axiom3_witness(descriptor, ses):
        """A saturating-3-exact witness of the Gabriel monad on the
        sequence ses(engine)."""
        theory = session.theory_from_descriptor(descriptor)
        payload = theory.engine.ses_to_payload(ShortExactSequence(*ses(theory.engine)))
        return {"engine": theory.describe(), "check": "saturating-3-exact",
                "candidate": "gabriel", "data": {"ses": payload}}

    @pytest.mark.parametrize("descriptor, ses", [
        # 0 -> 0 -> Z/3 -> 0 -> 0: homology Z/3 at the middle, which would
        # blame the Gabriel monad for failing axiom 3
        ({"kind": "finite_abelian", "p": 2},
         lambda e: (e.zero_morphism(e.zero_object(), e.cyclic(3)),
                    e.zero_morphism(e.cyclic(3), e.zero_object()))),
        # iota = pi = the identity of the interval: they compose to nonzero
        ({"kind": "a2_rep", "field": "f3"},
         lambda e: (e.identity(e.interval()), e.identity(e.interval()))),
    ], ids=["finite_abelian-homology", "a2_rep-f3-identities"])
    def test_sequence_that_is_not_exact_is_refused(self, descriptor, ses, tmp_path, capsys):
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(self._axiom3_witness(descriptor, ses)), encoding="utf-8")
        assert main(["replay", "--input", str(wfile)]) == 2
        assert "not a short exact sequence" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["finite_abelian", "--p", "2"],
                                       ["a2_rep", "--field", "f3"], ["fixture", "--p", "0"]])
    def test_axiom3_witness_from_check_replays(self, flags, tmp_path, monkeypatch, capsys):
        # no candidate fails axiom 3, so a forced failure makes check write
        # the first sampled sequence as a witness; with the real predicate
        # restored, it decodes and the failure is not reproduced
        out = tmp_path / "r.json"
        with monkeypatch.context() as patch:
            patch.setitem(serre.CHECKS, "saturating-3-exact",
                          serre.Check("ses", lambda *args: (False, "forced"), True))
            assert main(["check", "--engine", *flags, "--suite", "saturating",
                         "--seed", "3", "--n", "4", "--out", str(out)]) == 1
        witness = next(c["witness"] for s in read_report(str(out))["checks"]
                       for c in s["checks"] if c["axiom"] == "saturating-3-exact")
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(witness), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--input", str(wfile)]) == 1
        assert "saturating-3-exact: failure NOT reproduced" in capsys.readouterr().out

    def test_corrupted_file(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        assert main(["replay", "--input", str(bad)]) == 2
        bad2 = tmp_path / "bad2.json"
        bad2.write_text(json.dumps({"check": "saturating-1-kills-c", "data": {}}),
                        encoding="utf-8")
        assert main(["replay", "--input", str(bad2)]) == 2


class TestFlags:
    EXPECTED = {
        "saturate": {"engine", "p", "field", "input", "objects", "seed", "format", "out"},
        "qhom": {"engine", "p", "field", "input", "objects", "oracle", "seed", "format",
                 "out"},
        "check": {"engine", "p", "field", "input", "suite", "seed", "n", "candidate",
                  "format", "out"},
        "replay": {"input", "seed", "format", "out"},
    }

    def test_each_command_takes_the_flags_it_reads(self):
        import argparse

        from serreq.cli import build_parser
        sub = next(a for a in build_parser()._actions
                   if isinstance(a, argparse._SubParsersAction))
        found = {name: {a.dest for a in parser._actions if a.dest != "help"}
                 for name, parser in sub.choices.items()}
        assert found == self.EXPECTED
        assert sum(len(flags) for flags in found.values()) == 31

    def test_unread_flag_rejected(self, tmp_path):
        out = tmp_path / "fix.json"
        main(["check", "--engine", "fixture", "--p", "2", "--suite", "saturating",
              "--seed", "3", "--n", "4", "--out", str(out)])
        with pytest.raises(SystemExit) as exc:
            main(["replay", "--input", str(out), "--engine", "a2_rep", "--suite", "zigzag",
                  "--oracle", "--candidate", "twisted", "--n", "9"])
        assert exc.value.code == 2


def _parse(parse, argv):
    """(the parsed namespace, or the exit code, and what was printed)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = ("exit", exc.code)
    return result, out.getvalue(), err.getvalue()


def _full(argv):
    return build_parser().parse_args(argv)


# words a property test draws after the command: every flag whole, cut
# short and with "=", values of every kind, and the words the top level
# treats apart
_VALUES = ["in.json", "M", "3", "0", "-1", "many", "json", "text", "all", "zigzag",
           "finite_abelian", "a2_rep", "fixture", "q", "identity", "stray"]
_WORDS = sorted(
    {f"--{flag}" for flag in FLAGS}
    | {f"--{flag}"[:k] for flag in FLAGS for k in range(3, len(flag) + 2)}
    | {f"--{flag}={value}" for flag in FLAGS for value in ("3", "x")}
    | {"--in=in.json", "--o=x", "--vers", "--version", "--ver=1", "-h", "--help", "--he",
       "--", "-", "-x", "--=x", "--=", "---"}) + _VALUES


class TestPerCommandParser:
    """A call whose first word is a command builds that command's parser
    alone, and parses, helps and fails exactly as the full parser."""

    VALID = [
        ["saturate", "--input", "in.json"],
        ["saturate", "--engine", "finite_abelian", "--p", "3", "--input", "in.json",
         "--objects", "M", "N", "--seed", "4", "--format", "json", "--out", "r.json"],
        ["saturate", "--inp", "in.json", "--obj"],
        ["qhom", "--input", "in.json", "--objects", "M", "N", "--oracle"],
        ["qhom", "--engine", "a2_rep", "--field", "q", "--input=a.json", "--objects", "V", "V"],
        ["check", "--engine", "finite_abelian", "--p", "2"],
        ["check", "--engine", "fixture", "--p", "0", "--suite", "all", "--n", "0",
         "--candidate", "identity", "--seed", "-3", "--format", "text"],
        ["check", "--input", "in.json", "--suite", "zigzag", "--candidate", "fixture-naive"],
        ["check", "--seed", "-1", "--n=3"],
        ["replay", "--input", "w.json"],
        ["replay", "--input=w.json", "--seed=9", "--out", "o.json", "--format", "json"],
    ]
    ERRORS = [
        [], ["-h"], ["--version"], ["bogus"], ["bogus", "--input", "x"],
        ["-h", "saturate"], ["--version", "check"],
        ["saturate", "-h"], ["qhom", "-h"], ["check", "--help"], ["replay", "-h"],
        ["replay", "--input", "w.json", "--oracle"],
        ["saturate", "--input", "in.json", "stray"],
        ["saturate", "--input", "a", "--", "x"], ["replay", "--input", "w.json", "--"],
        ["saturate", "stray", "-h"],
        ["saturate", "--version"], ["saturate", "--o", "x"], ["qhom", "--o", "x"],
        ["qhom", "--n", "3"], ["qhom", "--vers"],
        ["check", "--engine", "bogus"], ["check", "--n", "many"], ["check", "--p"],
        ["saturate", "--=x"], ["check", "--input", "--=", "--n", "3"],
    ]

    @pytest.mark.parametrize("command", [None, *COMMANDS])
    def test_help_is_the_same(self, command):
        argv = [command, "-h"] if command else ["-h"]
        help_text = _parse(parse_args, argv)
        assert help_text == _parse(_full, argv)
        assert help_text[1].startswith(f"usage: serre {command or ''}".rstrip())

    @pytest.mark.parametrize("argv", VALID, ids=" ".join)
    def test_valid_argv_parses_the_same(self, argv):
        own = _parse(parse_args, argv)
        assert own == _parse(_full, argv)
        assert own[0]["command"] == argv[0]

    @pytest.mark.parametrize("argv", ERRORS, ids=lambda argv: " ".join(argv) or "none")
    def test_exits_print_the_same(self, argv, capsys):
        full = _parse(_full, argv)
        assert full[0][0] == "exit"
        assert _parse(parse_args, argv) == full
        with pytest.raises(SystemExit) as exc:
            main(argv)
        printed = capsys.readouterr()
        assert (("exit", exc.value.code), printed.out, printed.err) == full

    @settings(max_examples=150, deadline=None)
    @given(st.sampled_from(list(COMMANDS)), st.lists(st.sampled_from(_WORDS), max_size=6))
    def test_any_argv_after_a_command_parses_the_same(self, command, words):
        argv = [command, *words]
        assert _parse(parse_args, argv) == _parse(_full, argv)

    def test_a_stray_positional_is_reported_by_the_top_level(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["saturate", "--input", "in.json", "stray"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: serre [-h] [--version] {saturate,qhom,check,replay} ...")
        assert err.endswith("serre: error: unrecognized arguments: stray\n")

    @staticmethod
    def _built(monkeypatch):
        """The prog of every parser built from now on, and the first option
        string of every argument added."""
        progs, added = [], []
        init = argparse.ArgumentParser.__init__
        add_argument = argparse._ActionsContainer.add_argument

        def counted_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            progs.append(self.prog)

        def counted(self, *args, **kwargs):
            added.append(args[0])
            return add_argument(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted_init)
        monkeypatch.setattr(argparse._ActionsContainer, "add_argument", counted)
        return progs, added

    OWN_FLAGS = {
        "saturate": ["--engine", "--p", "--field", "--input", "--seed", "--objects",
                     "--format", "--out"],
        "qhom": ["--engine", "--p", "--field", "--input", "--seed", "--oracle", "--objects",
                 "--format", "--out"],
        "check": ["--engine", "--p", "--field", "--input", "--suite", "--seed", "--n",
                  "--candidate", "--format", "--out"],
        "replay": ["--input", "--seed", "--format", "--out"],
    }

    @pytest.mark.parametrize("command, via", [
        ("saturate", "argv"), ("saturate", "sys.argv"), ("qhom", "argv"), ("check", "argv"),
        ("replay", "argv")])
    def test_a_command_builds_only_its_own_parser(self, command, via, fa_input, tmp_path,
                                                  monkeypatch):
        argv = {"saturate": ["saturate", "--input", fa_input],
                "qhom": ["qhom", "--input", fa_input, "--objects", "M", "N"],
                "check": ["check", "--engine", "finite_abelian", "--p", "2",
                          "--suite", "idempotent", "--n", "1"],
                "replay": ["replay", "--input", fa_input]}[command]
        argv += ["--out", str(tmp_path / "r.json")]
        progs, added = self._built(monkeypatch)
        if via == "argv":
            assert main(argv) == 0
        else:
            monkeypatch.setattr(sys, "argv", ["serre", *argv])
            assert main() == 0
        assert progs == [f"serre {command}"]
        assert added == ["-h", *self.OWN_FLAGS[command]]
        assert [len(flags) for flags in self.OWN_FLAGS.values()] == [8, 9, 10, 4]

    def test_a_stray_word_builds_the_full_parser_after_its_own(self, fa_input, monkeypatch,
                                                               capsys):
        progs, added = self._built(monkeypatch)
        with pytest.raises(SystemExit):
            main(["saturate", "--input", fa_input, "stray"])
        assert progs == ["serre saturate", "serre",
                         *(f"serre {name}" for name in COMMANDS)]
        assert added.count("-h") == 6 and added.count("--version") == 1
        assert len([a for a in added if a not in ("-h", "--version")]) == 8 + 31

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["-h"], ["--version"]],
                             ids=["None", "bogus", "-h", "--version"])
    def test_no_command_builds_every_flag(self, argv, monkeypatch, capsys):
        progs, added = self._built(monkeypatch)
        with pytest.raises(SystemExit):
            main(argv)
        assert progs == ["serre", *(f"serre {name}" for name in COMMANDS)]
        assert len([a for a in added if a not in ("-h", "--version")]) == 31


class TestUnwritableReport:
    @pytest.mark.parametrize("command", ["saturate", "qhom", "check", "replay"])
    def test_out_in_a_missing_directory_exits_2(self, command, fa_input, tmp_path, capsys):
        """Every command writes its report before it prints a text line."""
        out = tmp_path / "no" / "such" / "r.json"
        witness = tmp_path / "fix.json"
        if command == "replay":
            assert main(["check", "--engine", "fixture", "--p", "2", "--suite", "saturating",
                         "--seed", "3", "--n", "4", "--out", str(witness)]) == 1
            capsys.readouterr()
        flags = {
            "saturate": ["--input", fa_input],
            "qhom": ["--input", fa_input, "--objects", "M", "N"],
            "check": ["--engine", "finite_abelian", "--p", "2", "--suite", "ker-q", "--n", "2"],
            "replay": ["--input", str(witness)],
        }[command]
        assert main([command, *flags, "--format", "text", "--out", str(out)]) == 2
        printed, err = capsys.readouterr()
        assert err.startswith(f"error: cannot write {out}: ")
        assert printed == ""
        assert not out.parent.exists()

    @pytest.mark.parametrize("argv", [["saturate"], ["qhom", "--objects", "M", "M"]],
                             ids=["saturate", "qhom"])
    def test_a_text_result_over_the_digit_limit_exits_2(self, argv, tmp_path, capsys):
        # at p = 2, W(M) has the one divisor 7**5000 * 11**4000 of about
        # 8,400 digits, which the text line could not print either
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"M": {"relations": [[7 ** 5000, 0], [0, 11 ** 4000]], "gens": 2}}}
        path = tmp_path / "big.json"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            path.write_text(json.dumps(doc), encoding="utf-8")
            assert main([*argv, "--input", str(path)]) == 2
        finally:
            sys.set_int_max_str_digits(limit)
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: cannot write the report: Exceeds the limit")

    def test_an_integer_over_the_digit_limit_is_input_error(self, tmp_path):
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            out = tmp_path / "r.json"
            with pytest.raises(session.InputValidationError,
                               match=f"^cannot write {re.escape(str(out))}: "):
                _emit({"x": 10 ** 5000}, argparse.Namespace(out=str(out), format="json"))
            assert not out.exists()
        finally:
            sys.set_int_max_str_digits(limit)


class TestDeterminism:
    def test_reports_byte_identical_modulo_timings(self, tmp_path):
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            main(["check", "--engine", "finite_abelian", "--p", "2",
                  "--suite", "all", "--seed", "11", "--n", "5", "--out", str(out)])
            outs.append(out)
        docs = [session.strip_timings(read_report(str(o))) for o in outs]
        assert session.canonical_json(docs[0]).encode() == \
            session.canonical_json(docs[1]).encode()
        raw = [read_report(str(o)) for o in outs]
        assert raw[0] != raw[1] or raw[0]["timings"] == raw[1]["timings"]

    def test_env_seed_default(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SERRE_SEED", "99")
        out = tmp_path / "env.json"
        main(["check", "--engine", "finite_abelian", "--p", "2",
              "--suite", "ker-q", "--n", "3", "--out", str(out)])
        assert read_report(str(out))["seed"] == 99
        # flags override the environment
        main(["check", "--engine", "finite_abelian", "--p", "2",
              "--suite", "ker-q", "--n", "3", "--seed", "5", "--out", str(out)])
        assert read_report(str(out))["seed"] == 5

    def test_env_seed_not_an_integer(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("SERRE_SEED", "abc")
        out = tmp_path / "env.json"
        assert main(["check", "--engine", "finite_abelian", "--p", "2",
                     "--suite", "ker-q", "--n", "3", "--out", str(out)]) == 2
        assert "SERRE_SEED" in capsys.readouterr().err
        assert not out.exists()


class TestIntegerFlags:
    """--p, --seed, --n and SERRE_SEED read an integer as the input
    decoders do (category.int_from_text): an optional "-" and ASCII
    digits; int() alone would read each of BAD."""

    BAD = {"non-ascii-digit": "\u0663", "underscore": "1_0", "spaces": " 3 ", "plus": "+3"}
    VALUES = {"p": "3", "seed": "1", "n": "0"}

    @classmethod
    def argv(cls, out, **values):
        """check's argv with VALUES, updated by values; None leaves a flag out."""
        flags = [w for flag, value in {**cls.VALUES, **values}.items() if value is not None
                 for w in (f"--{flag}", value)]
        return ["check", "--engine", "finite_abelian", "--suite", "ker-q", *flags,
                "--out", str(out)]

    @pytest.mark.parametrize("flag", list(VALUES))
    @pytest.mark.parametrize("text", list(BAD.values()), ids=list(BAD))
    def test_flags_reject(self, tmp_path, capsys, flag, text):
        out = tmp_path / "r.json"
        with pytest.raises(SystemExit) as exc:
            main(self.argv(out, **{flag: text}))
        assert exc.value.code == 2
        assert f"argument --{flag}: invalid int value: {text!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("text", list(BAD.values()), ids=list(BAD))
    def test_env_seed_rejects(self, tmp_path, monkeypatch, capsys, text):
        monkeypatch.setenv("SERRE_SEED", text)
        out = tmp_path / "r.json"
        assert main(self.argv(out, seed=None)) == 2
        assert f"SERRE_SEED must be an integer, got {text!r}" in capsys.readouterr().err
        assert not out.exists()

    def test_plain_non_integers_keep_their_message(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(self.argv(tmp_path / "r.json", n="x"))
        assert "argument --n: invalid int value: 'x'" in capsys.readouterr().err

    def test_signed_and_padded_digits_still_read(self, tmp_path, monkeypatch):
        out = tmp_path / "r.json"
        assert main(self.argv(out, p="03", seed="-7", n="01")) == 0
        report = read_report(str(out))
        assert (report["seed"], report["command"]["engine"]["p"], report["command"]["n"]) == (
            -7, 3, 1)
        monkeypatch.setenv("SERRE_SEED", "-12")
        assert main(self.argv(out, seed=None)) == 0
        assert read_report(str(out))["seed"] == -12


class TestValidation:
    def test_bad_reference(self, tmp_path):
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"A": {"relations": [[2]], "gens": 1}},
               "morphisms": {"f": {"src": "A", "dst": "missing", "matrix": [[1]]}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["saturate", "--input", str(path)]) == 2

    def test_ill_defined_morphism_rejected(self, tmp_path):
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"A": {"relations": [[2]], "gens": 1},
                           "B": {"relations": [[4]], "gens": 1}},
               "morphisms": {"f": {"src": "A", "dst": "B", "matrix": [[1]]}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["saturate", "--input", str(path)]) == 2

    def test_infinite_object_rejected_by_finite_engine(self, tmp_path):
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"A": {"relations": [], "gens": 1}}}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["saturate", "--input", str(path)]) == 2

    def test_json_format_stdout(self, fa_input, capsys):
        assert main(["saturate", "--input", fa_input, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["command"]["name"] == "saturate"

    @pytest.mark.parametrize("command", ["saturate", "check", "replay"])
    def test_deeply_nested_input_exits_2(self, command, tmp_path, capsys):
        # nesting past the decoder's recursion limit is invalid JSON, not a traceback
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000, encoding="utf-8")
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "is not valid JSON" in err


class TestFixtureZigzag:
    """The fixture's zigzag suite reports a failed item; it used to exit 2."""

    @pytest.mark.parametrize("suite", ["zigzag", "all"])
    @pytest.mark.parametrize("p", [0, 2])
    def test_fails_on_z_with_replayable_witness(self, p, suite, tmp_path, capsys):
        out = tmp_path / "z.json"
        code = main(["check", "--engine", "fixture", "--p", str(p), "--suite", suite,
                     "--seed", "0", "--n", "4", "--out", str(out)])
        assert code == 1
        doc = read_report(str(out))
        zigzag = next(c for c in doc["checks"] if c["suite"] == "zigzag")
        item = zigzag["checks"][0]
        assert item["axiom"] == "zigzag-identities" and item["pass"] is False
        engine = FixtureTheory(p).engine
        obj = engine.obj_from_payload(item["witness"]["data"]["object"])
        assert engine.invariants(obj) == ("Z", 1, ())
        wfile = tmp_path / "w.json"
        wfile.write_text(json.dumps(item["witness"]), encoding="utf-8")
        capsys.readouterr()
        assert main(["replay", "--input", str(wfile)]) == 0
        assert "zigzag-identities: failure reproduced" in capsys.readouterr().out


def _write(tmp_path, doc):
    path = tmp_path / "in.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def _a2(field, alpha, **morphisms):
    return {"engine": {"kind": "a2_rep", "field": field},
            "objects": {"V": {"dims": [1, 1], "alpha": alpha}},
            "morphisms": {name: {"src": "V", "dst": "V", **payload}
                          for name, payload in morphisms.items()}}


def _fa(relations, **morphisms):
    return {"engine": {"kind": "finite_abelian", "p": 2},
            "objects": {"M": {"relations": relations, "gens": 1}},
            "morphisms": {name: {"src": "M", "dst": "M", **payload}
                          for name, payload in morphisms.items()}}


class TestEntryDecoding:
    @pytest.mark.parametrize("entry, residue", [
        ("1/2", 3), ("3/4", 2), ("-1/2", 2), ("7", 2), ("5/2", 0), (7, 2),
    ])
    def test_fractions_are_residues_over_prime_fields(self, entry, residue, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["saturate", "--input", _write(tmp_path, _a2("f5", [[entry]])),
                     "--out", str(out)]) == 0
        assert read_report(str(out))["results"][0]["eta"]["f1"] == [[residue]]

    def test_integral_strings_in_integer_payloads(self, tmp_path):
        out = tmp_path / "rep.json"
        doc = _fa([["24/2"]], f={"matrix": [["10/2"]]})
        assert main(["saturate", "--input", _write(tmp_path, doc), "--out", str(out)]) == 0
        assert read_report(str(out))["results"][0]["w"] == {"rank": 0, "divisors": [3]}

    def test_integral_fractions_over_q_read_as_integers(self, tmp_path, capsys):
        def q_session(two, minus_two):
            return {"engine": {"kind": "a2_rep", "field": "q"},
                    "objects": {"V": {"dims": [1, 1], "alpha": [[two]]},
                                "U": {"dims": [1, 1], "alpha": [[minus_two]]},
                                "W": {"dims": [2, 1], "alpha": [[two], ["1/2"]]}},
                    "morphisms": {"f": {"src": "U", "dst": "V",
                                        "f1": [[minus_two]], "f2": [[two]]}}}

        outputs = []
        for doc in (q_session("4/2", "-6/3"), q_session(2, -2)):
            path, out = _write(tmp_path, doc), str(tmp_path / "rep.json")
            for argv in (["saturate", "--input", path], ["qhom", "--input", path,
                                                         "--objects", "U", "V"]):
                assert main([*argv, "--out", out]) == 0
                report = session.canonical_json(session.strip_timings(read_report(out)))
                outputs.append((report, capsys.readouterr().out))
        assert outputs[:2] == outputs[2:]
        assert '"f1":[[-2]]' in outputs[0][0] and '"1/2"' in outputs[0][0]

    @pytest.mark.parametrize("doc", [
        _a2("f5", [["1/5"]]),
        _a2("f5", [["2/10"]]),
        _a2("f5", [["x"]]),
        _a2("f5", [["1/0"]]),
        _a2("q", [["x"]]),
        _a2("q", [["1/0"]]),
        _a2("q", [[1]], g={"f1": [["1/0"]], "f2": [[1]]}),
        _a2("f5", [[1]], g={"f1": [[1]], "f2": [["2/5"]]}),
        _fa([["x"]]),
        _fa([["1/0"]]),
        _fa([["1/2"]]),
        _fa([[4]], f={"matrix": [["1/2"]]}),
        _fa([[4]], f={"matrix": [[True]]}),
        # int() reads all of these; an entry is only "-", ASCII digits and one "/"
        _fa([["1_0"]]),
        _a2("q", [[" 3 "]]),
        _a2("f5", [["\u0663/\u0664"]]),
        _a2("q", [["+3"]]),
        _fa([["3/"]]),
    ], ids=lambda doc: json.dumps(doc, sort_keys=True))
    def test_bad_entries_exit_2_with_a_message(self, doc, tmp_path, capsys):
        assert main(["saturate", "--input", _write(tmp_path, doc)]) == 2
        assert "error:" in capsys.readouterr().err


def _diagonal(n, d, width=None):
    return [[d * (i == j) for j in range(n if width is None else width)] for i in range(n)]


_OVER = MAX_INPUT_SIZE + 1
_FX = {"kind": "fixture", "p": 2}
_Q = {"kind": "a2_rep", "field": "q"}


class TestInputSizeBound:
    """Generator counts, dimensions and matrix sizes over MAX_INPUT_SIZE
    are rejected before any work is done."""

    @pytest.mark.parametrize("doc", [
        {"engine": _FX, "objects": {"M": {"relations": [], "gens": 3000}}},
        {"engine": _Q, "objects": {"V": {"dims": [0, 3000]}}},
        {"engine": _Q, "objects": {"V": {"dims": [3000, 0]}}},
        {"engine": _FX, "objects": {"M": {"relations": [], "gens": _OVER}}},
        {"engine": _FX, "objects": {"M": {"relations": _diagonal(_OVER, 2)}}},
        {"engine": _FX, "objects": {"M": {"relations": [[2] * _OVER]}}},
        {"engine": _FX, "objects": {"M": {"relations": [[2]] * _OVER}}},
        {"engine": _Q, "objects": {"V": {"dims": [_OVER, _OVER],
                                         "alpha": _diagonal(_OVER, 1)}}},
        {"engine": _FX, "objects": {"M": {"relations": [[2]], "gens": 1}},
         "morphisms": {"f": {"src": "M", "dst": "M", "matrix": [[1]] * _OVER}}},
    ], ids=["gens-3000", "dims-0-3000", "dims-3000-0", "gens", "square-relations",
            "relation-columns", "relation-rows", "dims-and-alpha", "morphism-rows"])
    def test_oversized_inputs_exit_2_quickly(self, doc, tmp_path, capsys):
        t0 = time.perf_counter()
        assert main(["saturate", "--input", _write(tmp_path, doc)]) == 2
        assert time.perf_counter() - t0 < 1
        assert str(MAX_INPUT_SIZE) in capsys.readouterr().err

    @pytest.mark.parametrize("doc", [
        {"engine": _FX, "objects": {"M": {"relations": [], "gens": MAX_INPUT_SIZE}}},
        {"engine": {"kind": "finite_abelian", "p": 2},
         "objects": {"M": {"relations": _diagonal(MAX_INPUT_SIZE, 6)}}},
        {"engine": _Q, "objects": {"V": {"dims": [0, MAX_INPUT_SIZE]}}},
        {"engine": {"kind": "a2_rep", "field": "f101"},
         "objects": {"V": {"dims": [MAX_INPUT_SIZE, MAX_INPUT_SIZE],
                           "alpha": _diagonal(MAX_INPUT_SIZE, 1)}}},
    ], ids=["free", "diagonal", "dims-0-n", "identity-alpha"])
    def test_inputs_at_the_bound_pass(self, doc, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["saturate", "--input", _write(tmp_path, doc), "--out", str(out)]) == 0
        assert len(read_report(str(out))["results"]) == 1

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_sizes_around_the_bound_exit_0_or_2(self, tmp_path_factory, data):
        size = st.integers(MAX_INPUT_SIZE - 2, MAX_INPUT_SIZE + 2)
        if data.draw(st.booleans(), "integer engine"):
            engine = data.draw(st.sampled_from([_FX, {"kind": "fixture", "p": 0},
                                                {"kind": "finite_abelian", "p": 3}]))
            n, width = data.draw(size), data.draw(size)
            rows = data.draw(st.sampled_from([0, 1, n]))
            obj = {"relations": _diagonal(rows, data.draw(st.integers(0, 3)), width)}
            if data.draw(st.booleans(), "gens given"):
                obj["gens"] = data.draw(size)
            sizes = [rows, width if rows else 0, obj.get("gens", 0)]
        else:
            engine = data.draw(st.sampled_from([_Q, {"kind": "a2_rep", "field": "f101"}]))
            d1, d2 = data.draw(size), data.draw(size)
            obj = {"dims": [d1, d2], "alpha": _diagonal(d1, data.draw(st.integers(0, 2)), d2)}
            sizes = [d1, d2]
        path = tmp_path_factory.mktemp("bound") / "in.json"
        path.write_text(json.dumps({"engine": engine, "objects": {"X": obj}}), encoding="utf-8")
        code = main(["saturate", "--input", str(path), "--out", str(path) + ".out"])
        assert code in (0, 2)
        if max(sizes) > MAX_INPUT_SIZE:
            assert code == 2


def _dense_relations(n, seed):
    rng = random.Random(seed)
    return [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]


def _cpu_budget(seconds):
    """A preexec_fn that ends the child once it has used `seconds` of CPU."""
    return lambda: resource.setrlimit(resource.RLIMIT_CPU, (seconds, seconds))


class TestDenseRelationsAtTheBound:
    """serre saturate on dense square relation matrices with entries in
    [-9, 9] at the size bound finishes within a CPU budget, each in a
    child process that the budget ends.  They take well under a second
    of CPU each; an elimination whose entries grew multiplicatively ran
    past a minute on every one of them."""

    CPU_SECONDS = 20

    @pytest.mark.parametrize("kind, p, n, seed", [
        ("fixture", 0, 48, 1), ("fixture", 0, MAX_INPUT_SIZE, 1),
        ("finite_abelian", 2, MAX_INPUT_SIZE, 1), ("finite_abelian", 3, MAX_INPUT_SIZE, 2),
    ])
    def test_saturate_exits_0_with_a_report(self, kind, p, n, seed, tmp_path):
        from sympy import ZZ
        from sympy.polys.matrices import DomainMatrix

        rows = _dense_relations(n, seed)
        doc = {"engine": {"kind": kind, "p": p}, "objects": {"M": {"relations": rows}}}
        out = tmp_path / "rep.json"
        src = str(Path(serre.__file__).resolve().parents[1])
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from serreq.cli import main; sys.exit(main(sys.argv[1:]))",
             "saturate", "--input", _write(tmp_path, doc), "--out", str(out)],
            capture_output=True, text=True, timeout=10 * self.CPU_SECONDS,
            preexec_fn=_cpu_budget(self.CPU_SECONDS),
            env={**os.environ, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))})
        assert proc.returncode == 0, proc.stderr
        [result] = read_report(str(out))["results"]
        # M is finite of order |det A|, and W(M) and H_C(M) split that
        # order: H_C(M) is the p-part (all of it for p = 0), W(M) the rest
        order = abs(int(DomainMatrix([[ZZ(x) for x in r] for r in rows], (n, n), ZZ).det()))
        w, hc = (prod(result[key]["divisors"]) for key in ("w", "h_c"))
        assert result["object"]["rank"] == 0
        assert prod(result["object"]["divisors"]) == w * hc == order
        if p:
            # hc divides a power of p, so it is one
            assert w % p and p ** hc.bit_length() % hc == 0
        else:
            assert w == 1 and result["in_c"]


class TestParameterValidation:
    @pytest.mark.parametrize("flags", [
        ["--engine", "finite_abelian", "--p", "1"],
        ["--engine", "fixture", "--p", "1"],
        ["--engine", "finite_abelian", "--p", "4"],
        ["--engine", "fixture", "--p", "4"],
        ["--engine", "finite_abelian", "--p", "-3"],
        ["--engine", "a2_rep", "--field", "f4"],
        ["--engine", "a2_rep", "--field", "f3317044064679887385961981"],
    ])
    def test_bad_engine_parameters_exit_2(self, flags, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["check", *flags, "--suite", "ker-q", "--n", "1",
                     "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_non_prime_in_input_file(self, tmp_path):
        doc = {"engine": {"kind": "finite_abelian", "p": 4},
               "objects": {"M": {"relations": [[8]], "gens": 1}}}
        assert main(["saturate", "--input", _write(tmp_path, doc)]) == 2

    # a JSON boolean is an int to Python, so p = false must not pass as p = 0
    BAD_DESCRIPTORS = {
        "not-an-object": ["finite_abelian"],
        "no-kind": {"p": 2},
        "list-kind": {"kind": []},
        "dict-kind": {"kind": {}},
        "unknown-kind": {"kind": "nope"},
        "false-p": {"kind": "fixture", "p": False},
        "true-p": {"kind": "finite_abelian", "p": True},
        "string-p": {"kind": "finite_abelian", "p": "2"},
        "float-p": {"kind": "fixture", "p": 2.0},
        "missing-p": {"kind": "finite_abelian"},
        "list-field": {"kind": "a2_rep", "field": ["q"]},
        "underscore-field": {"kind": "a2_rep", "field": "f1_01"},
        "arabic-indic-field": {"kind": "a2_rep", "field": "F\u0667"},
    }

    @pytest.mark.parametrize("desc", BAD_DESCRIPTORS.values(), ids=BAD_DESCRIPTORS)
    def test_bad_descriptor_exits_2(self, desc, tmp_path, capsys):
        with pytest.raises(session.InputValidationError):
            session.theory_from_descriptor(desc)
        doc = {"engine": desc, "objects": {}}
        assert main(["saturate", "--input", _write(tmp_path, doc)]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--engine", "a2_rep", "--p", "3"], "--p"),
        (["--engine", "finite_abelian", "--field", "q"], "--field"),
        (["--engine", "fixture", "--p", "2", "--field", "f101"], "--field"),
    ])
    def test_engine_flag_of_another_engine_exits_2(self, flags, message, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["check", *flags, "--suite", "ker-q", "--n", "1",
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--p", "3"], ["--field", "q"]])
    def test_engine_flag_without_engine_exits_2(self, flags, fa_input, capsys):
        assert main(["saturate", "--input", fa_input, *flags]) == 2
        assert flags[0] in capsys.readouterr().err

    def test_fixture_accepts_zero(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "--engine", "fixture", "--p", "0", "--suite", "ker-q",
                     "--n", "1", "--out", str(out)]) == 0

    def test_large_prime_field_is_quick(self, tmp_path):
        out = tmp_path / "rep.json"
        t0 = time.perf_counter()
        assert main(["check", "--engine", "a2_rep", "--field", "f1000000000000000003",
                     "--suite", "ker-q", "--n", "2", "--out", str(out)]) == 0
        assert time.perf_counter() - t0 < 10
        assert read_report(str(out))["command"]["engine"]["field"] == "F1000000000000000003"

    def test_empty_field_selects_the_default_in_flags_and_files(self, tmp_path):
        """--field "" and "field": "" in an input file name the same theory,
        F101; the file used to exit 2 with "unknown field name"."""
        outs = [tmp_path / "flag.json", tmp_path / "file.json"]
        doc = {"engine": {"kind": "a2_rep", "field": ""}, "objects": {}}
        sources = [["--engine", "a2_rep", "--field", ""], ["--input", _write(tmp_path, doc)]]
        for source, out in zip(sources, outs):
            assert main(["check", *source, "--suite", "ker-q", "--n", "2",
                         "--out", str(out)]) == 0
        flag, file = (session.strip_timings(read_report(str(o))) for o in outs)
        assert flag["command"]["engine"] == {"kind": "a2_rep", "field": "F101"}
        assert flag == file

    def test_negative_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["check", "--engine", "finite_abelian", "--suite", "ker-q",
                     "--n", "-5", "--out", str(out)]) == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_n_above_the_cap_rejected(self, tmp_path, capsys, monkeypatch):
        """--n is bounded, so no check command runs without end; a suite is
        never started, and the bound itself is accepted."""
        from serreq import cli, serre

        def no_suite(*args):
            raise AssertionError("the suite ran")

        monkeypatch.setattr(serre, "run_suite", no_suite)
        out = tmp_path / "rep.json"
        argv = ["check", "--engine", "finite_abelian", "--p", "2", "--suite", "all",
                "--out", str(out), "--n"]
        assert main([*argv, str(cli.MAX_SAMPLES + 1)]) == 2
        assert f"--n must be from 0 to {cli.MAX_SAMPLES}" in capsys.readouterr().err
        assert not out.exists()
        monkeypatch.setattr(serre, "run_suite", lambda *args: [])
        assert main([*argv, str(cli.MAX_SAMPLES)]) == 0
        assert read_report(str(out))["command"]["n"] == cli.MAX_SAMPLES

    def test_zero_n_allowed(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "--engine", "finite_abelian", "--suite", "all",
                     "--n", "0", "--out", str(out)]) == 0


_FA2 = {"kind": "finite_abelian", "p": 2}


# a present section that is no mapping is an error, however empty it looks
_FALSY = {"empty-list": [], "zero": 0, "false": False, "empty-string": "", "null": None}


class TestMalformedDocuments:
    """Each of these documents used to end in a traceback, or in an exit 0
    that read a falsy section as an empty one."""

    @pytest.mark.parametrize("command, text", [
        ("replay", json.dumps({"engine": _FA2, "check": "nope", "data": {}})),
        ("replay", json.dumps({"engine": _FA2, "check": "mu-iso", "data": {}})),
        ("replay", json.dumps({"engine": _FA2, "check": "saturating-1-kills-c",
                               "candidate": "bogus",
                               "data": {"object": {"relations": [[2]], "gens": 1}}})),
        # a check that reads no candidate still refuses an unknown one
        ("replay", json.dumps({"engine": _FA2, "check": "mu-iso", "candidate": "bogus",
                               "data": {"object": {"relations": [[2]], "gens": 1}}})),
        ("replay", json.dumps({"engine": _FA2, "check": "saturating-1-kills-c",
                               "candidate": ["x"],
                               "data": {"object": {"relations": [[2]], "gens": 1}}})),
        ("replay", json.dumps({"checks": 5})),
        ("replay", json.dumps({"checks": [{"checks": 7}]})),
        ("replay", json.dumps({"checks": [{"checks": [{"witness": 3}]}]})),
        ("saturate", json.dumps({"engine": _FA2, "objects": [1, 2]})),
        ("saturate", '{"engine": {"kind": "finite_abelian", "p": 2}, '
                     '"objects": {"M": {"relations": [[' + "1" * 4401 + ']], "gens": 1}}}'),
        ("saturate", json.dumps({"engine": {"kind": "a2_rep", "field": "f101"},
                                 "objects": {"V": {"dims": [True, 1], "alpha": [[1]]}}})),
    ] + [("saturate", json.dumps({"engine": _FA2, key: value}))
         for key in ("objects", "morphisms") for value in _FALSY.values()],
        ids=["unknown-check", "data-lacks-key", "unknown-candidate",
             "unknown-candidate-of-a-theory-check", "unhashable-candidate", "checks-not-a-list",
             "suite-checks-not-a-list", "witness-not-an-object", "objects-not-a-mapping",
             "4401-digit-integer", "boolean-dims"]
        + [f"{key}-{name}" for key in ("objects", "morphisms") for name in _FALSY])
    def test_exits_2_with_a_message(self, command, text, tmp_path, capsys):
        path = tmp_path / "in.json"
        path.write_text(text, encoding="utf-8")
        assert main([command, "--input", str(path)]) == 2
        assert "error:" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# replay documents mutated from real witnesses

_WITNESS_RUNS = [
    ["--engine", "fixture", "--p", "2", "--suite", "saturating"],
    ["--engine", "fixture", "--p", "0", "--suite", "zigzag", "--seed", "0"],
    ["--engine", "finite_abelian", "--p", "2", "--candidate", "identity",
     "--suite", "saturating"],
    ["--engine", "a2_rep", "--field", "f101", "--candidate", "identity",
     "--suite", "saturating"],
]
_JUNK = [None, True, False, "", "x", "1/0", "1/3", "-7/2", 0, -1, 2.5, 1e300,
         float("nan"), float("inf"), [], {}, [[]], [[1.5]], [["1/2", 3]], {"kind": "fixture"}]
_FOREIGN_ENGINES = [
    {"kind": "a2_rep", "field": "q"}, {"kind": "a2_rep", "field": "f2"},
    {"kind": "a2_rep", "field": "f4"}, {"kind": "finite_abelian", "p": 3},
    {"kind": "finite_abelian", "p": 0}, {"kind": "fixture", "p": 0},
    {"kind": "fixture", "p": -5}, {"kind": "nope"}, {"field": "q"},
]
_FIELD_NAMES = ["q", "f2", "f3", "f101", "f4", "F7", ""]
_CHECK_NAMES = sorted(serre.CHECKS) + ["precondition-saturating", "nope", ""]
# a huge integer is written into the file as raw digits, since json.dumps
# refuses integers over Python's digit limit
_HUGE_DIGITS = [19, 300, 4301, 6000]


@pytest.fixture(scope="module")
def real_witnesses(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("witnesses")
    out = []
    for i, flags in enumerate(_WITNESS_RUNS):
        path = tmp / f"r{i}.json"
        seed = [] if "--seed" in flags else ["--seed", "3"]
        assert main(["check", *flags, *seed, "--n", "4", "--out", str(path)]) == 1
        doc = read_report(str(path))
        out += [c["witness"] for s in doc["checks"] for c in s["checks"] if "witness" in c]
    return out


def _nodes(doc, path=()):
    """Every (path, value) in a JSON tree, the root included."""
    yield path, doc
    items = doc.items() if isinstance(doc, dict) else (
        enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _nodes(value, path + (key,))


def _set(doc, path, value):
    if not path:
        return value
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _mutate(data, doc):
    for _ in range(data.draw(st.integers(1, 3), label="mutations")):
        path, node = data.draw(st.sampled_from(list(_nodes(doc))), label="node")
        op = data.draw(st.sampled_from(["drop", "junk", "huge", "engine"]), label="op")
        if op == "drop" and path:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        elif op == "junk":
            junk = data.draw(st.sampled_from(_JUNK), label="junk")
            doc = _set(doc, path, copy.deepcopy(junk))
        elif op == "huge":
            digits = data.draw(st.sampled_from(_HUGE_DIGITS), label="digits")
            sign = data.draw(st.sampled_from(["", "-"]), label="sign")
            doc = _set(doc, path, f"__huge__{sign}{digits}")
        elif op == "engine" and isinstance(doc, dict):
            engine = data.draw(st.sampled_from(_FOREIGN_ENGINES), label="engine")
            doc["engine"] = copy.deepcopy(engine)
    return doc


def _huge(match):
    return match.group(1) + "9" * int(match.group(2))


class TestReplayFuzz:
    """A damaged witness ends in a replay report or exit 2, never a traceback."""

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_mutated_witness(self, data, real_witnesses, tmp_path_factory):
        witness = data.draw(st.sampled_from(real_witnesses), label="witness")
        doc = _mutate(data, json.loads(json.dumps(witness)))
        text = re.sub(r'"__huge__(-?)(\d+)"', _huge, json.dumps(doc))
        tmp = tmp_path_factory.mktemp("fuzz")
        path, out = tmp / "w.json", tmp / "out.json"
        path.write_text(text, encoding="utf-8")
        code = main(["replay", "--input", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code == 2:
            assert not out.exists()
        else:
            assert read_report(str(out))["exit"] == code

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fixture_witness_with_other_fields(self, data, real_witnesses,
                                               tmp_path_factory):
        """A fixture witness whose engine, check name or payload integers are
        replaced by well-typed values: other theories and primes, every check
        name, and entries a morphism or object may not accept."""
        fixture = [w for w in real_witnesses if w["engine"]["kind"] == "fixture"]
        doc = copy.deepcopy(data.draw(st.sampled_from(fixture), label="witness"))
        if data.draw(st.booleans(), label="swap engine"):
            kind = data.draw(st.sampled_from(sorted(session.THEORIES)), label="kind")
            value = (data.draw(st.sampled_from(_FIELD_NAMES), label="field")
                     if kind == "a2_rep" else data.draw(st.integers(-2, 7), label="p"))
            doc["engine"] = {"kind": kind, session.THEORIES[kind].flag[0]: value}
        if data.draw(st.booleans(), label="swap check"):
            doc["check"] = data.draw(st.sampled_from(_CHECK_NAMES), label="check")
        leaves = [path for path, value in _nodes(doc["data"])
                  if isinstance(value, int) and not isinstance(value, bool)]
        for path in data.draw(st.lists(st.sampled_from(leaves), max_size=4), label="leaves"):
            _set(doc["data"], path, data.draw(st.integers(-40, 40), label="entry"))
        tmp = tmp_path_factory.mktemp("fields")
        path, out = tmp / "w.json", tmp / "out.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = main(["replay", "--input", str(path), "--out", str(out)])
        assert code in (0, 1, 2)
        if code != 2:
            assert read_report(str(out))["exit"] == code
