"""Acceptance suite: every criterion at its stated sample size and budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  All sample counts and time budgets are pinned here; a failing
criterion means the package does not meet its contract.
"""

import json
import time

from serreq import serre, session
from serreq.category import rng_for
from serreq.cli import main
from serreq.linalg import Mat, PrimeField
from serreq.quiver import SinkSupportTheory
from serreq.zmodules import FixtureTheory, PPrimaryTheory

SEED = 20260809
FA = PPrimaryTheory(2)
A2 = SinkSupportTheory(PrimeField(101))
ENGINES = [("finite_abelian", FA), ("a2_rep", A2)]


def _announce(number, text, status, elapsed):
    print(f"[criterion-{number:02d}] {text}: {status} ({elapsed:.1f}s)")


def _timed_suite(suite, th, seed, n, budget=None):
    t0 = time.perf_counter()
    report = serre.run_suite(th, suite, seed, n)[0]
    elapsed = time.perf_counter() - t0
    assert report.passed, (report.first_failure.label, report.first_failure.detail)
    if budget is not None:
        assert elapsed < budget, f"suite exceeded {budget}s: {elapsed:.1f}s"
    return elapsed


def test_criterion_01_monad_coherence():
    total = 0.0
    for name, th in ENGINES:
        total += _timed_suite("monad-laws", th, SEED, 100, budget=30)
    _announce(1, "monad coherence laws on 100+ objects per engine", "PASS", total)


def test_criterion_02_idempotence():
    total = 0.0
    for name, th in ENGINES:
        total += _timed_suite("idempotent", th, SEED, 100)
    _announce(2, "idempotence and unit-swap on 100+ objects per engine", "PASS", total)


def test_criterion_03_zigzag():
    total = 0.0
    for name, th in ENGINES:
        total += _timed_suite("zigzag", th, SEED, 100)
    _announce(3, "zig-zag identities on 100+ objects per engine", "PASS", total)


def test_criterion_04_saturating_axioms_forward():
    total = 0.0
    for name, th in ENGINES:
        t0 = time.perf_counter()
        report = serre.run_suite(th, "saturating", SEED, 100)[0]
        elapsed = time.perf_counter() - t0
        assert report.passed, report.first_failure.label
        by_label = {i.label: i for i in report.items}
        assert by_label["saturating-1-kills-c"].samples >= 100
        assert by_label["unit-natural"].samples >= 100
        assert by_label["saturating-3-exact"].samples >= 50
        assert elapsed < 60, f"{name}: {elapsed:.1f}s"
        total += elapsed
    _announce(4, "all five saturating axioms for the reflection monad", "PASS", total)


def test_criterion_05_equivalence_with_twisted_candidate():
    total = 0.0
    for name, th in ENGINES:
        for tag in (None, "twisted"):
            t0 = time.perf_counter()
            report = serre.run_suite(th, "gabriel-equiv", SEED, 100,
                                     serre.make_candidate(th, tag))[0]
            total += time.perf_counter() - t0
            assert report.passed, (name, tag, report.first_failure)
            by_label = {i.label: i for i in report.items}
            assert by_label["comparison-natural"].samples >= 100
    _announce(5, "componentwise equivalence incl. twisted candidate", "PASS", total)


def test_criterion_06_hom_oracle_agreement():
    t0 = time.perf_counter()
    disagreements = 0
    for i in range(50):
        rng = rng_for(SEED, "acc-oracle", i)
        m = FA.random_object(rng, max_order=200)
        n = FA.random_object(rng, max_order=200)
        assert FA.engine.order(m) <= 200 and FA.engine.order(n) <= 200
        qh = serre.q_hom(FA, m, n)
        col = serre.q_hom_via_colimit(FA, m, n)
        if col.invariants() != qh.invariants() or not col.comparison_is_bijective(qh):
            disagreements += 1
    elapsed = time.perf_counter() - t0
    assert disagreements == 0
    assert elapsed < 60, f"{elapsed:.1f}s"
    _announce(6, "direct-limit Hom oracle agrees on 50 pairs", "PASS", elapsed)


def test_criterion_07_negative_controls_every_seed():
    t0 = time.perf_counter()
    fx = FixtureTheory(2)
    for seed in (0, 1, 7, 2026, 31337):
        report = serre.run_suite(fx, "saturating", seed, 8)[0]
        assert not report.passed
        first = report.first_failure
        assert first.label == "saturating-2-image-saturated"
        assert "Ext1" in first.detail
        witness_obj = first.witness["data"]["object"]
        assert fx.engine.invariants(witness_obj) == ("Z", 1, ())

        report = serre.run_suite(FA, "saturating", seed, 8, serre.make_candidate(FA, "identity"))[0]
        assert not report.passed
        assert report.first_failure.label == "saturating-1-kills-c"
    _announce(7, "fixture rejected at axiom 2, identity at axiom 1, all seeds",
              "PASS", time.perf_counter() - t0)


def test_criterion_08_saturated_iff_unit_iso():
    t0 = time.perf_counter()
    for name, th in ENGINES:
        for i in range(100):
            m = th.random_object(rng_for(SEED, "acc-satiso", name, i))
            _, eta = th.saturate(m)
            assert th.is_saturated(m) == th.engine.is_iso(eta)
    _announce(8, "saturated iff unit iso on 100 objects per engine", "PASS",
              time.perf_counter() - t0)


def test_criterion_09_exactness_bookkeeping():
    t0 = time.perf_counter()
    for name, th in ENGINES:
        cand = serre.make_candidate(th, None)
        for i in range(100):
            ses = th.random_ses(rng_for(SEED, "acc-exact", name, i))
            ok, detail = serre.pred_axiom3(th, cand, ses)
            assert ok, (name, i, detail)
    tor = FixtureTheory(0)
    z = tor.engine.free(1)
    double = tor.engine.mor(z, z, Mat.from_rows([[2]]))
    out = serre.cokernel_in_sat(tor, double)
    assert tor.engine.is_zero_obj(out)
    _announce(9, "quotient exactness on 100 sequences per engine + torsion-free "
                 "cokernel example", "PASS", time.perf_counter() - t0)


def test_criterion_10_byte_identical_reports(tmp_path):
    t0 = time.perf_counter()
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    for p in paths:
        code = main(["check", "--engine", "finite_abelian", "--p", "2",
                     "--suite", "all", "--seed", "123", "--n", "10",
                     "--out", str(p)])
        assert code == 0
    docs = []
    for p in paths:
        with open(p, "r", encoding="utf-8") as fh:
            docs.append(session.strip_timings(json.load(fh)))
    b1, b2 = (session.canonical_json(d).encode("utf-8") for d in docs)
    assert b1 == b2
    _announce(10, "reports byte-identical modulo timing fields", "PASS",
              time.perf_counter() - t0)
