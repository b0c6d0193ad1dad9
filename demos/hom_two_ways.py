"""Quotient Hom-groups two ways: reflection shortcut vs direct limit.

The quotient Hom-group can be computed as Hom(M, W(N)) in one ambient
Hom computation, or from its definition as a direct limit over the
subobjects M' <= M with M/M' in the torsion class.  The second route
enumerates every subgroup of M exhaustively, and the theory's
terminal_stage picks out the terminal stage of the directed system, the
intersection of the admissible subgroups; Hom is evaluated there.  It
is the independent oracle for the first.

Run:  python3 demos/hom_two_ways.py
"""

from serreq import PPrimaryTheory, q_hom, q_hom_via_colimit, rng_for
from serreq.zmodules import finite_subobject_embeddings

theory = PPrimaryTheory(2)
eng = theory.engine

print("== subgroup inventory of Z/12 ==")
m = eng.cyclic(12)
embs = finite_subobject_embeddings(eng, m)
orders = sorted(eng.order(e.src) for e in embs)
print(f"  subgroup orders: {orders}")
stage, stages = theory.terminal_stage(m)
print(f"  stages with 2-group quotient: {stages}")
print(f"  terminal stage, their intersection: order {eng.order(stage.src)}")
print("  (the smallest stage, the odd part, is where the direct limit settles)")

print("\n== the two computations agree ==")
n = eng.cyclic(9)
shortcut = q_hom(theory, m, n)
oracle = q_hom_via_colimit(theory, m, n)
print(f"  shortcut  Hom(Z/12, W(Z/9)): {shortcut.describe()}")
print(f"  colimit over {oracle.stages} stages:   {oracle.describe()}")
print(f"  canonical comparison bijective: {oracle.comparison_is_bijective(shortcut)}")

print("\n== agreement on a random sample ==")
agreements = 0
for i in range(20):
    rng = rng_for(7, "two-ways", i)
    a = theory.random_object(rng, max_order=120)
    b = theory.random_object(rng, max_order=120)
    s = q_hom(theory, a, b)
    c = q_hom_via_colimit(theory, a, b)
    same = s.invariants() == c.invariants() and c.comparison_is_bijective(s)
    agreements += same
print(f"  {agreements}/20 random pairs agree (elementary divisors + bijection)")
