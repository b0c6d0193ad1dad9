"""Answer checks for the benchmark, computed apart from serreq.

Every function here reads a report document that `serre` wrote and
compares it with what the benchmark knows from how it built the input:
the divisors an object was made from, the sample counts a suite's
definition implies, the verdicts a negative control must reach.  Nothing
here imports serreq; integer normal forms come from sympy.

A check that fails raises CheckFailed with a one-line reason.
"""

from __future__ import annotations

import hashlib
import json
from math import gcd

TIMING_KEYS = ("timings", "wall_ms", "elapsed_ms")

SUITES = ("monad-laws", "idempotent", "zigzag", "saturating", "gabriel-equiv", "ker-q")

# Probe objects each theory puts in front of its random samples
# (PPrimaryTheory / SinkSupportTheory / FixtureTheory.probe_objects).
PROBES = {"finite_abelian": 6, "a2_rep": 6, "fixture": 5}


class CheckFailed(Exception):
    """A report disagrees with the independently computed answer."""


def expect(cond, reason):
    if not cond:
        raise CheckFailed(reason)


# ---------------------------------------------------------------------------
# report identity


def strip_timings(doc):
    if isinstance(doc, dict):
        return {k: strip_timings(v) for k, v in doc.items() if k not in TIMING_KEYS}
    if isinstance(doc, list):
        return [strip_timings(v) for v in doc]
    return doc


def report_digest(doc) -> str:
    """Digest of a report with its timing fields removed."""
    text = json.dumps(strip_timings(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# finite abelian groups from their construction


def p_part(d: int, p: int) -> int:
    out = 1
    while d % p == 0:
        d //= p
        out *= p
    return out


def prime_to_p(d: int, p: int) -> int:
    return d // p_part(d, p)


def _factor(n: int) -> dict:
    out, q = {}, 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def invariant_factors(orders) -> list:
    """Invariant factors (d1 | d2 | ..., units dropped) of the direct sum of
    cyclic groups of the given orders."""
    powers = {}
    for n in orders:
        if n == 0:
            raise ValueError("only finite cyclic summands")
        for q, e in _factor(n).items():
            powers.setdefault(q, []).append(q ** e)
    length = max((len(v) for v in powers.values()), default=0)
    factors = [1] * length
    for v in powers.values():
        for i, x in enumerate(sorted(v, reverse=True)):
            factors[length - 1 - i] *= x
    return [f for f in factors if f != 1]


def smith_invariants(relations, gens):
    """(free rank, divisors > 1) of Z^gens modulo the given relation rows."""
    if not relations:
        return gens, []
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    snf = smith_normal_form(Matrix(relations), domain=ZZ)
    diag = [abs(int(snf[i, i])) for i in range(min(snf.shape))]
    nonzero = [d for d in diag if d]
    return gens - len(nonzero), sorted(d for d in nonzero if d != 1)


# ---------------------------------------------------------------------------
# serre check


def expected_items(kind, suite, n):
    """(label, samples) of every item a passing suite reports, as its
    definition in serreq.serre implies for --n n."""
    objs = PROBES[kind] + n
    half = max(1, n // 2)
    return {
        "monad-laws": [("monad-assoc", objs), ("monad-unit", objs)],
        "idempotent": [("mu-iso", objs), ("unit-swap", objs)],
        "zigzag": [("zigzag-identities", objs)],
        "saturating": [("saturating-1-kills-c", objs),
                       ("saturating-2-image-saturated", objs),
                       ("saturating-3-exact", half),
                       ("saturating-4-unit-commutes", objs),
                       ("saturating-5-unit-iso-on-saturated", objs),
                       ("unit-natural", n), ("functorial", half)],
        "gabriel-equiv": [("precondition-saturating", min(n, 12)),
                          ("comparison-iso", objs), ("comparison-natural", n)],
        "ker-q": [("ker-q-equals-c", objs)],
    }[suite]


def _single_suite(doc, engine, suite, seed, n):
    expect(doc.get("command", {}).get("name") == "check", "not a check report")
    expect(doc["command"]["engine"] == engine, f"engine {doc['command']['engine']} != {engine}")
    expect(doc["seed"] == seed, f"seed {doc['seed']} != {seed}")
    checks = doc.get("checks", [])
    expect(len(checks) == 1 and checks[0]["suite"] == suite,
           f"expected exactly the {suite} suite")
    expect(checks[0]["n"] == n, f"n {checks[0]['n']} != {n}")
    return checks[0]


def check_suite_passes(doc, rc, engine, suite, seed, n):
    """A single-suite check of a localizing theory: every item passes with
    the sample count its definition implies."""
    expect(rc == 0, f"exit {rc}, expected 0")
    report = _single_suite(doc, engine, suite, seed, n)
    expect(doc["exit"] == 0 and report["pass"] is True, "suite reported failing")
    got = [(i["axiom"], i["samples"], i["pass"]) for i in report["checks"]]
    want = [(label, samples, True) for label, samples in expected_items(engine["kind"], suite, n)]
    expect(got == want, f"{suite} items {got} != {want}")


def first_failure(report):
    for item in report["checks"]:
        if not item["pass"]:
            return item
    return None


def check_negative_control(doc, rc, engine, suite, seed, n, label, detail_prefix=None,
                           witness_invariants=None):
    """A broken candidate is rejected, first at `label`, with a witness."""
    expect(rc == 1, f"exit {rc}, expected 1")
    report = _single_suite(doc, engine, suite, seed, n)
    expect(doc["exit"] == 1 and report["pass"] is False, "broken candidate accepted")
    item = first_failure(report)
    expect(item["axiom"] == label, f"first failure {item['axiom']}, expected {label}")
    expect(item.get("witness") is not None, "failure carries no witness")
    if detail_prefix is not None:
        expect(item.get("detail", "").startswith(detail_prefix),
               f"detail {item.get('detail')!r} does not start with {detail_prefix!r}")
    if witness_invariants is not None:
        obj = item["witness"]["data"]["object"]
        rank, divisors = smith_invariants(obj["relations"], obj["gens"])
        expect(("Z", rank, tuple(divisors)) == witness_invariants,
               f"witness object is Z^{rank} + {divisors}, expected {witness_invariants}")


def witnesses(doc):
    """Every failure witness in a check report, in report order."""
    return [item["witness"] for report in doc.get("checks", [])
            for item in report["checks"] if item.get("witness")]


def check_replay(doc, rc, expected_check):
    expect(rc == 0, f"replay exit {rc}, expected 0")
    result = doc["results"][0]
    expect(result.get("check") == expected_check,
           f"replayed {result.get('check')}, expected {expected_check}")
    expect(result["reproduced"] is True and result["pass"] is False,
           "witness failure not reproduced")


# ---------------------------------------------------------------------------
# serre qhom --oracle


def qhom_divisors(a, b, p):
    """Invariant factors of Hom(M, W(N)) for M = sum Z/a_i, N = sum Z/b_j,
    where W(N) keeps the prime-to-p parts b'_j: sum Z/gcd(a_i, b'_j)."""
    return invariant_factors([gcd(x, prime_to_p(y, p)) for x in a for y in b])


def check_qhom(doc, rc, a, b, p):
    expect(rc == 0, f"exit {rc}, expected 0")
    result = doc["results"][0]
    want = qhom_divisors(a, b, p)
    for key in ("q_hom", "oracle"):
        got = result[key]
        expect(got["kind"] == "Z" and got["rank"] == 0 and got["divisors"] == want,
               f"{key} divisors {got['divisors']} != {want}")
    expect(result["oracle_agrees"] is True, "oracle disagrees")


# ---------------------------------------------------------------------------
# serre saturate


def check_saturate(doc, rc, relations, divisors, p):
    """W, H_C, saturated and in_c from the divisors the input was built
    from; the unit kills M's relations modulo W and is onto W."""
    from sympy import Matrix, ZZ
    from sympy.matrices.normalforms import smith_normal_form

    expect(rc == 0, f"exit {rc}, expected 0")
    result = doc["results"][0]
    order = 1
    for d in divisors:
        order *= d
    want = {
        "object": invariant_factors(divisors),
        "w": invariant_factors([prime_to_p(d, p) for d in divisors]),
        "h_c": invariant_factors([p_part(d, p) for d in divisors]),
    }
    for key, divs in want.items():
        got = result[key]
        expect(got["rank"] == 0 and got["divisors"] == divs,
               f"{key} divisors {got['divisors']} != {divs}")
    expect(result["saturated"] is (order % p != 0), f"saturated = {result['saturated']}")
    expect(result["in_c"] is (p_part(order, p) == order), f"in_c = {result['in_c']}")

    eta = result["eta"]
    expect(eta["src"]["relations"] == relations, "unit source is not the input object")
    w = want["w"]
    k = len(w)
    expect(eta["dst"]["gens"] == k and eta["dst"]["relations"]
           == [[w[i] if i == j else 0 for j in range(k)] for i in range(k)],
           "unit target is not diag(W)")
    mat = eta["matrix"]
    expect(len(mat) == len(relations[0]) and all(len(r) == k for r in mat),
           "unit matrix has the wrong shape")
    for row in relations:
        for j in range(k):
            expect(sum(x * r[j] for x, r in zip(row, mat)) % w[j] == 0,
                   "unit does not kill a relation of M")
    if k:
        reduced = [[x % w[j] for j, x in enumerate(r)] for r in mat]
        stacked = reduced + [[w[i] if i == j else 0 for j in range(k)] for i in range(k)]
        snf = smith_normal_form(Matrix(stacked), domain=ZZ)
        expect(all(abs(int(snf[i, i])) == 1 for i in range(k)), "unit is not onto W")
