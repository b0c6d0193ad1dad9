"""The benchmark's workloads: inputs made from the seed, one op per
`serreq.cli.main` call, and the check each op's answer must pass.

A workload is a round of ops, made once per run, that the runner repeats
until the run's time is up.  The suite calls of check-zmod and check-quiver
use a fixed check seed and check seeds drawn from the run's seed.  Ops that
hit a named program fault are marked with the fault's letter: they are
counted as failed, never as a wrong answer, and their inputs do not depend
on the seed.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from checks import (
    SUITES, check_negative_control, check_qhom, check_replay, check_saturate,
    check_suite_passes,
)

N_DEFAULT = 25   # serre check's default --n
P = 2            # the prime of qhom-oracle and saturate-wide
# The check seed of the negative controls and of an eighth of the suite
# calls.  It does not depend on --seed; the other suite calls use
# DRAWN_CHECK_SEEDS check seeds drawn from --seed.
FIXED_CHECK_SEED = 1202
DRAWN_CHECK_SEEDS = 7


@dataclass
class Op:
    """One `serre` command and the check its report must pass."""

    argv: list
    out: str
    check: Callable
    fault: str | None = None          # "a" / "b": a named fault, counted as failed
    replay_witnesses: bool = False    # replay every witness in the report
    name: str = field(default="")


def _rng(workload, seed, *tags):
    return random.Random("|".join(str(t) for t in ("perfbench", workload, seed, *tags)))


# ---------------------------------------------------------------------------
# dense presentations U * diag(d) * V


def unimodular(rng, n, steps):
    """Identity followed by `steps` random shears row_i += +-row_j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return u


def dense_relations(rng, divisors, steps):
    g = len(divisors)
    u = unimodular(rng, g, steps)
    v = unimodular(rng, g, steps)
    ud = [[u[i][k] * divisors[k] for k in range(g)] for i in range(g)]
    return [[sum(ud[i][k] * v[k][j] for k in range(g)) for j in range(g)] for i in range(g)]


def write_session(path, objects):
    doc = {"engine": {"kind": "finite_abelian", "p": P},
           "objects": {name: {"relations": rel, "gens": len(rel[0])}
                       for name, rel in objects.items()}}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


# ---------------------------------------------------------------------------
# serre check


def _suite_op(tmp, engine, flags, suite, seed):
    out = os.path.join(tmp, f"check-{'-'.join(flags)}-{suite}-{seed}.json")
    argv = ["check", *flags, "--suite", suite, "--seed", str(seed), "--out", out]
    return Op(argv, out, partial(check_suite_passes, engine=engine, suite=suite,
                                 seed=seed, n=N_DEFAULT),
              name=f"{suite}/{flags[-1]}/{seed}")


def _suite_ops(tmp, workload, seed, engines):
    """Every suite on every engine, at the fixed check seed and at check
    seeds drawn from the run's seed."""
    rng = _rng(workload, seed)
    seeds = [FIXED_CHECK_SEED] + rng.sample(range(1, 10 ** 6), DRAWN_CHECK_SEEDS)
    return [_suite_op(tmp, engine, flags, suite, s)
            for engine, flags in engines for suite in SUITES for s in seeds]


def _control_op(tmp, name, engine, flags, suite, seed, label, fault=None, **expect):
    """A check that must fail, first at `label`, with replayable witnesses."""
    out = os.path.join(tmp, f"{name}.json")
    argv = ["check", *flags, "--suite", suite, "--seed", str(seed), "--out", out]
    return Op(argv, out, partial(check_negative_control, engine=engine, suite=suite,
                                 seed=seed, n=N_DEFAULT, label=label, **expect),
              fault=fault, replay_witnesses=True, name=name)


def _replay_op(control):
    """`serre replay` of the first witness in a control's report."""
    label = control.check.keywords["label"]
    out = control.out[:-5] + "-replay.json"
    return Op(["replay", "--input", control.out, "--out", out], out,
              partial(check_replay, expected_check=label), name=f"replay/{label}")


def check_zmod(tmp, seed):
    zmod = [({"kind": "finite_abelian", "p": p}, ["--engine", "finite_abelian", "--p", str(p)])
            for p in (2, 3)]
    suite_ops = _suite_ops(tmp, "check-zmod", seed, zmod)
    fixed = FIXED_CHECK_SEED
    fixture = ({"kind": "fixture", "p": P}, ["--engine", "fixture", "--p", str(P)])
    engine, flags = zmod[0]

    # negative controls: the non-localizing fixture must fail at axiom (2) on
    # Z, whose obstruction is Ext1(Z/p, Z); the identity candidate at axiom (1)
    naive = _control_op(tmp, "fixture-saturating", *fixture, "saturating", fixed,
                        "saturating-2-image-saturated", detail_prefix="Ext1(",
                        witness_invariants=("Z", 1, ()))
    identity = _control_op(tmp, "identity-saturating", engine, flags + ["--candidate", "identity"],
                           "saturating", fixed, "saturating-1-kills-c")
    # fault (a): the fixture's zigzag suite exits 2 ("extension target must be
    # saturated") instead of reporting a failed, replayable zigzag-identities
    zigzag = _control_op(tmp, "fixture-zigzag", *fixture, "zigzag", 0, "zigzag-identities",
                         fault="a")
    controls = [naive, _replay_op(naive), identity, _replay_op(identity), zigzag]
    return suite_ops + controls


def check_quiver(tmp, seed):
    quiver = [({"kind": "a2_rep", "field": name}, ["--engine", "a2_rep", "--field", fld])
              for fld, name in (("q", "Q"), ("f101", "F101"))]
    suite_ops = _suite_ops(tmp, "check-quiver", seed, quiver)
    # the identity candidate keeps the simple source, which lies in C
    engine, flags = quiver[1]
    identity = _control_op(tmp, "identity-saturating", engine, flags + ["--candidate", "identity"],
                           "saturating", FIXED_CHECK_SEED, "saturating-1-kills-c")
    return suite_ops + [identity]


# ---------------------------------------------------------------------------
# serre qhom --oracle

QHOM_PAIRS = 25
QHOM_MAX_ORDER = 200
QHOM_MIN_ORDER_M = 24


def _cyclic_orders(rng, counts, min_order):
    """Cyclic orders in 2..12, as many as `counts` allows, whose product
    lies in [min_order, QHOM_MAX_ORDER]."""
    while True:
        d = [rng.randint(2, 12) for _ in range(rng.randint(*counts))]
        order = 1
        for x in d:
            order *= x
        if min_order <= order <= QHOM_MAX_ORDER:
            return d


def qhom_pairs():
    """The fixed catalogue of (M, N) cyclic orders.  The groups are the same
    for every seed, so every run enumerates the same subgroups; the seed
    picks their presentations and the order of the ops."""
    rng = random.Random("perfbench|qhom-pairs")
    # M is the larger group: the oracle enumerates its subgroups
    return [(_cyclic_orders(rng, (2, 3), QHOM_MIN_ORDER_M), _cyclic_orders(rng, (1, 3), 2))
            for _ in range(QHOM_PAIRS)]


def qhom_oracle(tmp, seed):
    rng = _rng("qhom-oracle", seed)
    pairs = qhom_pairs()
    rng.shuffle(pairs)
    ops = []
    for i, (a, b) in enumerate(pairs):
        path = os.path.join(tmp, f"qhom-{i}.json")
        write_session(path, {"M": dense_relations(rng, a, 2 * len(a)),
                             "N": dense_relations(rng, b, 2 * len(b))})
        out = os.path.join(tmp, f"qhom-{i}-report.json")
        ops.append(Op(["qhom", "--input", path, "--objects", "M", "N", "--oracle",
                       "--out", out], out, partial(check_qhom, a=a, b=b, p=P),
                      name=f"qhom/{i}"))
    return ops


# ---------------------------------------------------------------------------
# serre saturate

SATURATE_OBJECTS = 144
SATURATE_GENS = (6, 12)
SATURATE_SHEARS = 12
SATURATE_CYCLIC = (1, 3)
SATURATE_DIVISOR_MAX = 30

# Fault (b): a dense 10-generator object built from these divisors with 20
# shears per side.  Its unit entries exceed the 4300-digit limit of int->str
# conversion, so writing the report raises ValueError.
FAULT_B_DIVISORS = (2, 3, 26, 10, 22, 28, 3, 8, 11, 25)
FAULT_B_SHEARS = 20


def _saturate_op(tmp, name, rel, divisors, fault=None):
    path = os.path.join(tmp, f"{name}.json")
    write_session(path, {"M": rel})
    out = os.path.join(tmp, f"{name}-report.json")
    return Op(["saturate", "--input", path, "--out", out], out,
              partial(check_saturate, relations=rel, divisors=list(divisors), p=P),
              fault=fault, name=name)


def saturate_wide(tmp, seed):
    """144 distinct objects, the same in every round, and the fault (b) object.

    Only objects with at most three nontrivial cyclic factors are drawn:
    with more, the unit's entries grow past fault (b)'s limit on some seeds
    (see README.md)."""
    rng = _rng("saturate-wide", seed)
    ops = []
    for i in range(SATURATE_OBJECTS):
        g = rng.randint(*SATURATE_GENS)
        k = rng.randint(*SATURATE_CYCLIC)
        d = [1] * (g - k) + [rng.randint(2, SATURATE_DIVISOR_MAX) for _ in range(k)]
        rng.shuffle(d)
        ops.append(_saturate_op(tmp, f"sat-{i}", dense_relations(rng, d, SATURATE_SHEARS), d))
    fault_rel = dense_relations(random.Random("perfbench|fault-b"), list(FAULT_B_DIVISORS),
                                FAULT_B_SHEARS)
    ops.append(_saturate_op(tmp, "fault-b", fault_rel, FAULT_B_DIVISORS, fault="b"))
    return ops


WORKLOADS = {
    "check-zmod": (check_zmod, [{"kind": "finite_abelian", "p": 2},
                                {"kind": "finite_abelian", "p": 3},
                                {"kind": "fixture", "p": 2}]),
    "check-quiver": (check_quiver, [{"kind": "a2_rep", "field": "q"},
                                    {"kind": "a2_rep", "field": "f101"}]),
    "qhom-oracle": (qhom_oracle, [{"kind": "finite_abelian", "p": P}]),
    "saturate-wide": (saturate_wide, [{"kind": "finite_abelian", "p": P}]),
}

# Reference units timed around every op (see reference.py): about a tenth
# of a typical op's time, a fifth for the short saturate ops.
REFERENCE_UNITS = {"check-zmod": 5, "check-quiver": 5, "qhom-oracle": 3, "saturate-wide": 1}
