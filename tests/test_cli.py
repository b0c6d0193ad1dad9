"""The serre command-line front end."""

import json
import time

import pytest

from serreq import session
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

    def test_unknown_suite_rejected(self):
        with pytest.raises(SystemExit):
            main(["check", "--engine", "finite_abelian", "--p", "2",
                  "--suite", "nonsense"])

    def test_default_report_written(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["check", "--engine", "a2_rep", "--suite", "ker-q",
                     "--seed", "2", "--n", "3"]) == 0
        assert (tmp_path / "serre-report.json").exists()


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
