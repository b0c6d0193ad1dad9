"""A walk through localizing finite abelian groups away from a prime.

The torsion class C consists of the finite abelian 2-groups.  Dividing a
group by its maximal 2-subgroup lands in the saturated world (odd-order
groups), and that reflection W together with its unit is an idempotent
monad.  This script computes all the moving parts on Z/12 and friends.

Run:  python3 demos/saturation_tour.py
"""

from serreq import PPrimaryTheory, monad_at, q_hom, rng_for

theory = PPrimaryTheory(2)
eng = theory.engine


def show(label, obj):
    rank, divisors = eng.invariants(obj)[1:]
    body = " x ".join(f"Z/{d}" for d in divisors) or "0"
    print(f"  {label} = {body}" + (f" (free rank {rank})" if rank else ""))


print("== the maximal 2-subgroup and the reflection of Z/12 ==")
m = eng.cyclic(12)
show("M", m)
hc = theory.h_c(m)
show("H_C(M), the 2-primary part", hc.src)
w, eta = theory.saturate(m)
show("W(M) = M / H_C(M)", w)
print(f"  unit payload eta: {eta.maps[0].to_lists()}  (kernel = H_C, cokernel = 0)")
print(f"  M saturated? {theory.is_saturated(m)};  W(M) saturated? {theory.is_saturated(w)}")

print("\n== the monad at one object ==")
data = monad_at(theory, m)
print(f"  mu is the inverse of the unit at W(M); payload {data.mu.maps[0].to_lists()}")
print(f"  mu invertible: {eng.is_iso(data.mu)}")

print("\n== objects of C collapse, saturated objects are fixed ==")
for n in (8, 15, 90):
    w_n, eta_n = theory.saturate(eng.cyclic(n))
    show(f"W(Z/{n})", w_n)
    print(f"    unit iso: {eng.is_iso(eta_n)}   in C: {theory.is_in_c(eng.cyclic(n))}")

print("\n== Hom-groups in the quotient via the reflection shortcut ==")
pairs = [(12, 9), (8, 9), (12, 45)]
for a, b in pairs:
    group = q_hom(theory, eng.cyclic(a), eng.cyclic(b))
    print(f"  Hom_Q(Z/{a}, Z/{b}) has invariants {group.describe()}")

print("\n== the unit is inverted by the quotient on every object ==")
from serreq import q_is_iso
for i in range(5):
    obj = theory.random_object(rng_for(0, "tour", i))
    _, unit = theory.saturate(obj)
    show("random M", obj)
    print(f"    Q(eta) invertible: {q_is_iso(theory, unit)}")
