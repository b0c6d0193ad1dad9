"""The serre command-line front end."""

import copy
import json
import re
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreq import session
from serreq.category import MAX_INPUT_SIZE
from serreq.cli import main
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

    def test_negative_n_rejected(self, tmp_path, capsys):
        out = tmp_path / "rep.json"
        assert main(["check", "--engine", "finite_abelian", "--suite", "ker-q",
                     "--n", "-5", "--out", str(out)]) == 2
        assert "--n" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_n_allowed(self, tmp_path):
        out = tmp_path / "rep.json"
        assert main(["check", "--engine", "finite_abelian", "--suite", "all",
                     "--n", "0", "--out", str(out)]) == 0


_FA2 = {"kind": "finite_abelian", "p": 2}


class TestMalformedDocuments:
    """Each of these documents used to end in a traceback."""

    @pytest.mark.parametrize("command, text", [
        ("replay", json.dumps({"engine": _FA2, "check": "nope", "data": {}})),
        ("replay", json.dumps({"engine": _FA2, "check": "mu-iso", "data": {}})),
        ("replay", json.dumps({"engine": _FA2, "check": "saturating-1-kills-c",
                               "candidate": "bogus",
                               "data": {"object": {"relations": [[2]], "gens": 1}}})),
        ("replay", json.dumps({"checks": 5})),
        ("replay", json.dumps({"checks": [{"checks": 7}]})),
        ("replay", json.dumps({"checks": [{"checks": [{"witness": 3}]}]})),
        ("saturate", json.dumps({"engine": _FA2, "objects": [1, 2]})),
        ("saturate", '{"engine": {"kind": "finite_abelian", "p": 2}, '
                     '"objects": {"M": {"relations": [[' + "1" * 4401 + ']], "gens": 1}}}'),
        ("saturate", json.dumps({"engine": {"kind": "a2_rep", "field": "f101"},
                                 "objects": {"V": {"dims": [True, 1], "alpha": [[1]]}}})),
    ], ids=["unknown-check", "data-lacks-key", "unknown-candidate", "checks-not-a-list",
            "suite-checks-not-a-list", "witness-not-an-object", "objects-not-a-mapping",
            "4401-digit-integer", "boolean-dims"])
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
