"""The checker suites, including the broken candidates they must reject.

Five axioms pin down the reflection monads of localizing torsion
classes: (1) C is killed, (2) images are saturated, (3) exactness into
the saturated subcategory, (4) the unit commutes with the reflection,
(5) the unit is invertible on saturated objects.  The suites verify them
on seeded samples, and every failure carries a witness that replays.

Run:  python3 demos/checker_suites.py
"""

from serreq import FixtureTheory, PPrimaryTheory, PrimeField, SinkSupportTheory, run_suite
from serreq.session import replay_witness, witness_to_jsonable

SEED, N = 42, 20


def summarize(report):
    status = "PASS" if report.passed else "FAIL"
    print(f"  [{status}] {report.suite} (candidate: {report.candidate})")
    if not report.passed:
        first = report.first_failure
        print(f"      first failure: {first.label}")
        print(f"      detail: {first.detail}")
    return report


print("== positive controls: both genuine localizations ==")
for theory in (PPrimaryTheory(2), SinkSupportTheory(PrimeField(101))):
    print(f"engine {theory.describe()}:")
    for suite in ("monad-laws", "idempotent", "zigzag", "saturating", "ker-q"):
        for report in run_suite(theory, suite, SEED, N):
            summarize(report)

print("\n== a twisted but equivalent candidate still passes ==")
fa = PPrimaryTheory(2)
for report in run_suite(fa, "gabriel-equiv", SEED, N, candidate_tag="twisted"):
    summarize(report)

print("\n== negative control 1: quotient by 2-groups among ALL f.p. Z-modules ==")
print("   (not localizing: Z has no saturated hull)")
fx = FixtureTheory(2)
fixture_report = summarize(run_suite(fx, "saturating", SEED, N)[0])

print("\n== negative control 2: the identity functor as a candidate ==")
summarize(run_suite(fa, "saturating", SEED, N, "identity")[0])

print("\n== failures replay from their serialized witnesses ==")
witness = witness_to_jsonable(fixture_report.first_failure.witness)
outcome = replay_witness(witness)
print(f"  replayed {outcome['check']}: reproduced = {outcome['reproduced']}")
print(f"  detail: {outcome['detail']}")
