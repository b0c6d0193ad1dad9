"""Reports stay byte-identical across refactors of the package.

Every case runs one or more `serre` commands in a fresh directory and
compares the sha256 of the last command's report, timing fields removed
and written as canonical JSON, with a digest recorded from the package
before its engine codecs and checker suites were restructured.  A case
whose digest changes has changed what the program reports.
"""

import hashlib
import json

import pytest

from serreq import session
from serreq.cli import main

CHECK_ENGINES = {
    "finite_abelian-p2": ["--engine", "finite_abelian", "--p", "2"],
    "finite_abelian-p3": ["--engine", "finite_abelian", "--p", "3"],
    "a2_rep-f2": ["--engine", "a2_rep", "--field", "f2"],
    "a2_rep-f101": ["--engine", "a2_rep", "--field", "f101"],
    "a2_rep-q": ["--engine", "a2_rep", "--field", "q"],
}
FIXTURES = {"fixture-p0": ["--engine", "fixture", "--p", "0"],
            "fixture-p2": ["--engine", "fixture", "--p", "2"]}
FIXTURE_SUITES = ("monad-laws", "idempotent", "saturating", "gabriel-equiv", "ker-q")

FA_INPUT = {
    "engine": {"kind": "finite_abelian", "p": 2},
    "objects": {
        "M": {"relations": [[4, 6], [2, 8]], "gens": 2},
        "N": {"relations": [[36]], "gens": 1},
        "Zero": {"relations": [], "gens": 0},
    },
    "morphisms": {"f": {"src": "N", "dst": "N", "matrix": [[5]]}},
}
A2_Q_INPUT = {
    "engine": {"kind": "a2_rep", "field": "q"},
    "objects": {
        "V": {"dims": [2, 2], "alpha": [["1/2", 3], [1, "6"]]},
        "U": {"dims": [2, 1], "alpha": [["2/3"], ["-1/4"]]},
    },
    "morphisms": {"g": {"src": "U", "dst": "U", "f1": [["1/3", 0], [0, "1/3"]],
                        "f2": [["1/3"]]}},
}


def _check(flags, suite, candidate=None, seed=7, n=4):
    argv = ["check", *flags, "--suite", suite, "--seed", str(seed), "--n", str(n)]
    return argv + (["--candidate", candidate] if candidate else [])


def _cases():
    cases = {}
    for name, flags in CHECK_ENGINES.items():
        for candidate in (None, "identity", "twisted"):
            cases[f"check-all-{name}-{candidate or 'unset'}"] = (
                None, [_check(flags, "all", candidate)])
    for name, flags in FIXTURES.items():
        for suite in FIXTURE_SUITES:
            cases[f"check-{suite}-{name}"] = (None, [_check(flags, suite)])
    cases["saturate-finite_abelian"] = (FA_INPUT, [["saturate", "--input", "in.json",
                                                    "--seed", "0"]])
    cases["saturate-a2_rep-q"] = (A2_Q_INPUT, [["saturate", "--input", "in.json",
                                                "--seed", "0"]])
    cases["qhom-oracle"] = (FA_INPUT, [["qhom", "--input", "in.json", "--objects", "M", "N",
                                        "--oracle", "--seed", "0"]])
    cases["replay-fixture"] = (None, [
        _check(FIXTURES["fixture-p2"], "saturating", seed=3),
        ["replay", "--input", "step0.json", "--seed", "0"]])
    cases["replay-identity"] = (None, [
        _check(CHECK_ENGINES["finite_abelian-p2"], "saturating", "identity", seed=5),
        ["replay", "--input", "step0.json", "--seed", "0"]])
    return cases


CASES = _cases()


def report_digest(directory, session_input, steps):
    """Run the steps in `directory`; the digest of the last step's report."""
    if session_input is not None:
        (directory / "in.json").write_text(json.dumps(session_input), encoding="utf-8")
    for i, argv in enumerate(steps):
        main(argv + ["--out", f"step{i}.json", "--format", "json"])
    with open(directory / f"step{len(steps) - 1}.json", encoding="utf-8") as fh:
        doc = json.load(fh)
    text = session.canonical_json(session.strip_timings(doc))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


DIGESTS = {
    "check-all-a2_rep-f101-identity":
        "0906dee52295be78c2ce927f08e13281cda49e94600de6abd3c3aaf6bd3dd7d2",
    "check-all-a2_rep-f101-twisted":
        "e0eb58a0910e1b4c1cd4a79694a24ea7b986c4df15bbc180d41022f4ee4ea936",
    "check-all-a2_rep-f101-unset":
        "424910f8d0cc20eca00fdb56b181f0588c3b9635a31ec70011046e7f1d6871c0",
    "check-all-a2_rep-f2-identity":
        "fc0c6761cbf47a192e6f808ecb75cdbd0d14c25e0226b6aad5df80a3eafe6d52",
    "check-all-a2_rep-f2-twisted":
        "b014fe287120e1cf4902dd00757dc95630af19630b42b84a3fbac47f5eac15f3",
    "check-all-a2_rep-f2-unset":
        "a698a141764777522b5d335cd2e509c174c30e2de46cda532409396de0a792c5",
    "check-all-a2_rep-q-identity":
        "2e3fec09fd73afb54ec7ab60fdac50378ee03ea6637e7e750b5b83a8fedec637",
    "check-all-a2_rep-q-twisted":
        "1433b8b65f0f6f6d4893a5823c21bb448a8ecab8f4b855e576f0d836ee222883",
    "check-all-a2_rep-q-unset":
        "9d1ff8498718a5698d45fa3ff11a670ffbc11b06dacd1cd9be3765282244cedf",
    "check-all-finite_abelian-p2-identity":
        "dd832cbdd632df559095c53efcdbf94e954148f3de7da2a7846719f9d5dfd03f",
    "check-all-finite_abelian-p2-twisted":
        "0f3aad32ed6b7b022d347f527fb914561e261c2e852adcb4eb978df4a1691b59",
    "check-all-finite_abelian-p2-unset":
        "c1cedaf3cde3f628176856dcce7b99c6db6468590925440e7d7c4a30c8a78646",
    "check-all-finite_abelian-p3-identity":
        "a9421b03cb2c7c975e0bdc8cbde8053649c9aca12c42a7bf588ec0ee054d6398",
    "check-all-finite_abelian-p3-twisted":
        "28fbd2f28a367dc4e114ef1d47bb23800cbbe6549a35cdbc6c2f0a66ee8bb635",
    "check-all-finite_abelian-p3-unset":
        "c095df6b7981510f60eb234eddd3c1909d7c7af0f85a54caa16356b1aff48248",
    "check-gabriel-equiv-fixture-p0":
        "1018efd6334040809db2f1e68245add6acd392e23849ab060eeb122f64513143",
    "check-gabriel-equiv-fixture-p2":
        "c9ef33189a816daa5b72657bedafdc87328d9e58c977538d126e8fd41c28d575",
    "check-idempotent-fixture-p0":
        "5316117be940e1065b5dc230330c7c7af43ff22316807b114e6f0cc8fb6d8881",
    "check-idempotent-fixture-p2":
        "bf838faf0fd7146a367fca2dcf07e3be780e690804098857962fea032fd2a174",
    "check-ker-q-fixture-p0":
        "05bd7d2dc81ccafd2d1edeba05e844dd71d5c2af1779a56358071ba0bea89a1b",
    "check-ker-q-fixture-p2":
        "456a9b35fdee8cc84ddef4d7cc7d960a989c44e6fd3428b8d31af1c74df8b26e",
    "check-monad-laws-fixture-p0":
        "9ac7868898c304aec1a93d272cbef80aaa7c03e36806d96acc086d20249554ec",
    "check-monad-laws-fixture-p2":
        "8e453938ae8b48c405b8e2ddbc573726d9216bae3235d831fc7670e52add6313",
    "check-saturating-fixture-p0":
        "b59cc22047cd49e1d37543110a6109025e83883c69c829167dd57cd47ddccc45",
    "check-saturating-fixture-p2":
        "1db249a4f9b634eb924f419200b3f48af9b72497411010d9f2bb22419c386a24",
    "qhom-oracle":
        "911c133f35e4f195131f6ae64b03bc6d76b44438d6b95f6a029e2cead7d178d4",
    "replay-fixture":
        "69f55f98b04deb80f54247be161daa56043c35c588ee09fe212103497cc0a6eb",
    "replay-identity":
        "10c65be9cf1f9380787e430d44163388778bd3a2f2e6990c78af3b008e3ddb44",
    "saturate-a2_rep-q":
        "5183d2d00b3ccaed2ce3c2781e62076560b23ba2c2b911eb17fa96f6bf3b0a43",
    "saturate-finite_abelian":
        "c1e988104f58edbd9313d9b5f8f49577f1e4d2d51aedde44403e79d7df2b0f3c",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_report_matches_recorded_digest(case, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    session_input, steps = CASES[case]
    assert report_digest(tmp_path, session_input, steps) == DIGESTS[case]
