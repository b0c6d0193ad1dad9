"""Each answer check accepts a right report and rejects a deliberately wrong one.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import random

import pytest

from checks import (
    SUITES, CheckFailed, check_negative_control, check_qhom, check_replay, check_saturate,
    check_suite_passes, expected_items, invariant_factors, qhom_divisors, report_digest,
    smith_invariants,
)
from workloads import WORKLOADS

FA2 = {"kind": "finite_abelian", "p": 2}
FIXTURE = {"kind": "fixture", "p": 2}


def suite_doc(engine, suite, seed=5, n=25):
    items = [{"axiom": label, "pass": True, "samples": samples}
             for label, samples in expected_items(engine["kind"], suite, n)]
    return {"command": {"name": "check", "engine": engine, "suite": suite,
                        "candidate": "gabriel", "n": n},
            "seed": seed, "exit": 0, "timings": {"wall_ms": 1.0},
            "checks": [{"suite": suite, "engine": engine, "candidate": "gabriel",
                        "seed": seed, "n": n, "pass": True, "checks": items}]}


def fixture_doc():
    doc = suite_doc(FIXTURE, "saturating")
    doc["exit"] = 1
    report = doc["checks"][0]
    report["pass"] = False
    item = report["checks"][1]
    item.update({"pass": False, "samples": 2,
                 "detail": "Ext1(T, W(M)) = {...} for T = ZObj(Z/2)",
                 "witness": {"check": item["axiom"], "engine": FIXTURE,
                             "data": {"object": {"relations": [], "gens": 1}}}})
    return doc


@pytest.mark.parametrize("suite", SUITES)
def test_suite_check_accepts_the_implied_samples(suite):
    check_suite_passes(suite_doc(FA2, suite), 0, FA2, suite, 5, 25)


@pytest.mark.parametrize("spoil", [
    lambda d: d["checks"][0]["checks"][0].update({"pass": False}),   # flipped verdict
    lambda d: d["checks"][0]["checks"][1].update({"samples": 30}),   # wrong sample count
    lambda d: d["checks"][0]["checks"].pop(),                        # missing item
    lambda d: d.update({"seed": 6}),                                 # another seed
    lambda d: d["command"].update({"engine": {"kind": "finite_abelian", "p": 3}}),
])
def test_suite_check_rejects_a_wrong_report(spoil):
    doc = suite_doc(FA2, "saturating")
    spoil(doc)
    with pytest.raises(CheckFailed):
        check_suite_passes(doc, 0, FA2, "saturating", 5, 25)


def test_suite_check_rejects_a_wrong_exit_code():
    with pytest.raises(CheckFailed):
        check_suite_passes(suite_doc(FA2, "ker-q"), 1, FA2, "ker-q", 5, 25)


def control(doc, rc=1, label="saturating-2-image-saturated"):
    check_negative_control(doc, rc, FIXTURE, "saturating", 5, 25, label,
                           detail_prefix="Ext1(", witness_invariants=("Z", 1, ()))


def test_negative_control_accepts_the_ext1_obstruction_on_z():
    control(fixture_doc())


@pytest.mark.parametrize("spoil", [
    lambda d: d["checks"][0]["checks"][1]["witness"]["data"].update(
        {"object": {"relations": [[2]], "gens": 1}}),                 # witness Z/2, not Z
    lambda d: d["checks"][0]["checks"][1].update({"detail": "Hom(T, W(M)) = ..."}),
    lambda d: d["checks"][0]["checks"][1].pop("witness"),
    lambda d: d["checks"][0]["checks"][0].update({"pass": False}),   # fails at axiom (1)
])
def test_negative_control_rejects_a_wrong_rejection(spoil):
    doc = fixture_doc()
    spoil(doc)
    with pytest.raises(CheckFailed):
        control(doc)


def test_negative_control_rejects_an_accepted_candidate():
    with pytest.raises(CheckFailed):
        control(suite_doc(FIXTURE, "saturating"), rc=0)


def replay_doc(reproduced=True):
    return {"results": [{"check": "saturating-1-kills-c", "pass": not reproduced,
                         "reproduced": reproduced}], "exit": 0 if reproduced else 1}


def test_replay_check():
    check_replay(replay_doc(), 0, "saturating-1-kills-c")
    with pytest.raises(CheckFailed):
        check_replay(replay_doc(reproduced=False), 1, "saturating-1-kills-c")
    with pytest.raises(CheckFailed):
        check_replay(replay_doc(), 0, "saturating-2-image-saturated")


def qhom_doc(divisors, agrees=True):
    group = {"kind": "Z", "rank": 0, "divisors": divisors}
    return {"exit": 0, "results": [{"q_hom": group, "oracle": dict(group, stages=2),
                                    "oracle_agrees": agrees}]}


def test_qhom_divisors_from_the_gcd_formula():
    # Hom(Z/12 + Z/6, W(Z/9 + Z/4)) = Hom(Z/12 + Z/6, Z/9) = Z/3 + Z/3
    assert qhom_divisors([12, 6], [9, 4], 2) == [3, 3]
    assert qhom_divisors([8], [4, 2], 2) == []


def test_qhom_check():
    check_qhom(qhom_doc([3, 3]), 0, [12, 6], [9, 4], 2)
    with pytest.raises(CheckFailed):
        check_qhom(qhom_doc([3, 9]), 0, [12, 6], [9, 4], 2)         # changed divisor
    with pytest.raises(CheckFailed):
        check_qhom(qhom_doc([3, 3], agrees=False), 1, [12, 6], [9, 4], 2)


def saturate_doc(matrix):
    # M = Z/2 + Z/3, p = 2: W = Z/3, H_C = Z/2, the unit projects onto Z/3
    return {"exit": 0, "results": [{
        "object": {"rank": 0, "divisors": [6]},
        "w": {"rank": 0, "divisors": [3]},
        "h_c": {"rank": 0, "divisors": [2]},
        "saturated": False, "in_c": False,
        "eta": {"src": {"relations": [[2, 0], [0, 3]], "gens": 2},
                "dst": {"relations": [[3]], "gens": 1}, "matrix": matrix}}]}


def saturate(doc):
    check_saturate(doc, 0, [[2, 0], [0, 3]], [2, 3], 2)


def test_saturate_check_accepts_the_projection():
    saturate(saturate_doc([[0], [1]]))
    saturate(saturate_doc([[3], [2]]))   # 2 is a unit mod 3


@pytest.mark.parametrize("spoil", [
    lambda d: d["results"][0]["w"].update({"divisors": [9]}),        # changed divisor
    lambda d: d["results"][0]["h_c"].update({"divisors": [4]}),
    lambda d: d["results"][0].update({"saturated": True}),           # flipped verdict
    lambda d: d["results"][0].update({"in_c": True}),
    lambda d: d["results"][0]["eta"].update({"matrix": [[1], [1]]}),  # does not kill (2, 0)
    lambda d: d["results"][0]["eta"].update({"matrix": [[0], [3]]}),  # not onto Z/3
    lambda d: d["results"][0]["eta"]["dst"].update({"relations": [[6]]}),
])
def test_saturate_check_rejects_a_wrong_answer(spoil):
    doc = saturate_doc([[0], [1]])
    spoil(doc)
    with pytest.raises(CheckFailed):
        saturate(doc)


def test_invariant_factors_agree_with_sympy():
    rng = random.Random(0)
    for _ in range(50):
        orders = [rng.randint(1, 40) for _ in range(rng.randint(1, 4))]
        diag = [[x if i == j else 0 for j in range(len(orders))] for i, x in enumerate(orders)]
        assert smith_invariants(diag, len(orders)) == (0, invariant_factors(orders))


def test_report_digest_ignores_timings_only():
    doc = suite_doc(FA2, "ker-q")
    other = copy.deepcopy(doc)
    other["timings"]["wall_ms"] = 99.0
    assert report_digest(doc) == report_digest(other)
    other["checks"][0]["checks"][0]["samples"] += 1
    assert report_digest(doc) != report_digest(other)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_fault_ops_do_not_depend_on_seed(name, tmp_path):
    """Every run's round has the same length and the same fault ops, whatever
    the seed, so failed ops are the same share of attempted ops in every run."""
    make_ops, _ = WORKLOADS[name]
    shapes = set()
    for seed in (1, 2):
        tmp = tmp_path / str(seed)
        tmp.mkdir()
        ops = make_ops(str(tmp), seed)
        faults = tuple((op.fault, tuple(a.replace(str(tmp), "") for a in op.argv),
                        repr(op.check.keywords)) for op in ops if op.fault)
        shapes.add((len(ops), faults))
    assert len(shapes) == 1
