"""Finitely presented Z-modules and their torsion localizations.

An object is Z^gens modulo the row span of an integer relation matrix; a
morphism is a generator-image matrix acting on row vectors, with equality
taken modulo the target relations.  On top of the general engine sit

  * FiniteAbelianEngine - the subcategory of finite abelian groups, where
    the p-power-order groups form a localizing torsion class and the
    quotient by them is equivalent to prime-to-p groups (PPrimaryTheory);
  * FixtureTheory - the same torsion class inside all finitely presented
    Z-modules, where saturation genuinely fails (Z admits no hull), kept
    as a negative control for the checker suites.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod

from .category import AbelianEngine, ZGroup, ZHomGroup, entry_from_json
from .errors import (
    ContractViolation, EndpointMismatch, EngineMismatch, InputValidationError,
    NotSaturatedError, ShapeError,
)
from .linalg import (
    Mat, flatten, int_kernel, int_solve, is_prime, kernel_mod_rows, presentation_invariants,
    presentation_normal_form, row_basis, solve_mod_rows, unflatten,
)


@dataclass(frozen=True)
class ZObj:
    """Z^gens modulo the rows of `relations` (relations x gens)."""

    relations: Mat

    @property
    def gens(self) -> int:
        return self.relations.cols

    def __repr__(self):
        rank, divisors = presentation_invariants(self.relations)
        tors = " x ".join(f"Z/{d}" for d in divisors) or ("0" if rank == 0 else "")
        free = f"Z^{rank}" if rank else ""
        return f"ZObj({' x '.join(x for x in (free, tors) if x) or '0'})"


@dataclass(frozen=True)
class ZMor:
    src: ZObj
    dst: ZObj
    matrix: Mat  # gens(src) x gens(dst)


def diag_rows(divisors, cols=None):
    divisors = list(divisors)
    cols = len(divisors) if cols is None else cols
    return Mat(len(divisors), cols,
               tuple(tuple(d if i == j else 0 for j in range(cols))
                     for i, d in enumerate(divisors)))


class ZModuleEngine(AbelianEngine):
    """The abelian category of finitely presented Z-modules."""

    name = "fpmod_z"

    # -- constructors ----------------------------------------------------------

    def obj(self, relations: Mat) -> ZObj:
        return ZObj(relations)

    def obj_from_divisors(self, divisors, free_rank=0) -> ZObj:
        divisors = [d for d in divisors]
        cols = len(divisors) + free_rank
        return ZObj(diag_rows(divisors, cols))

    def zero_object(self) -> ZObj:
        return ZObj(Mat.zeros(0, 0))

    def free(self, n) -> ZObj:
        return ZObj(Mat.zeros(0, n))

    def cyclic(self, n) -> ZObj:
        return ZObj(Mat.from_rows([[n]], 1))

    def mor(self, src: ZObj, dst: ZObj, matrix: Mat) -> ZMor:
        if matrix.rows != src.gens or matrix.cols != dst.gens:
            raise ShapeError(
                f"payload must be {src.gens}x{dst.gens}, got {matrix.rows}x{matrix.cols}")
        return ZMor(src, dst, matrix)

    def identity(self, m: ZObj) -> ZMor:
        return ZMor(m, m, Mat.identity(m.gens))

    def zero_morphism(self, src: ZObj, dst: ZObj) -> ZMor:
        return ZMor(src, dst, Mat.zeros(src.gens, dst.gens))

    # -- morphism arithmetic ----------------------------------------------------

    def compose(self, f: ZMor, g: ZMor) -> ZMor:
        """f followed by g (payloads multiply left to right)."""
        if f.dst != g.src:
            raise EndpointMismatch("compose needs target(f) == source(g)")
        return ZMor(f.src, g.dst, f.matrix.mul(g.matrix))

    def add(self, f: ZMor, g: ZMor) -> ZMor:
        self._same_endpoints(f, g)
        return ZMor(f.src, f.dst, f.matrix.add(g.matrix))

    def sub(self, f: ZMor, g: ZMor) -> ZMor:
        self._same_endpoints(f, g)
        return ZMor(f.src, f.dst, f.matrix.sub(g.matrix))

    def neg(self, f: ZMor) -> ZMor:
        return ZMor(f.src, f.dst, f.matrix.neg())

    def scale(self, f: ZMor, c) -> ZMor:
        return ZMor(f.src, f.dst, f.matrix.scale(c))

    def _same_endpoints(self, f, g):
        if f.src != g.src or f.dst != g.dst:
            raise EndpointMismatch("morphisms have different endpoints")

    # -- decidable structure ------------------------------------------------------

    def is_well_defined(self, f: ZMor) -> bool:
        """Whether the payload maps source relations into target relations."""
        mapped = f.src.relations.mul(f.matrix)
        return int_solve(f.dst.relations, mapped) is not None

    def eq_mor(self, f: ZMor, g: ZMor) -> bool:
        self._same_endpoints(f, g)
        return int_solve(f.dst.relations, f.matrix.sub(g.matrix)) is not None

    def is_zero_obj(self, m: ZObj) -> bool:
        return presentation_invariants(m.relations) == (0, ())

    def invariants(self, m: ZObj):
        rank, divisors = presentation_invariants(m.relations)
        return ("Z", rank, divisors)

    def order(self, m: ZObj):
        rank, divisors = presentation_invariants(m.relations)
        return None if rank else prod(divisors)

    # -- kernels, cokernels, lifts ---------------------------------------------

    def kernel_emb(self, f: ZMor) -> ZMor:
        lat = kernel_mod_rows(f.matrix, f.dst.relations)
        rel = kernel_mod_rows(lat, f.src.relations)
        ker = ZObj(rel)
        return ZMor(ker, f.src, lat)

    def cokernel_proj(self, f: ZMor) -> ZMor:
        coker = ZObj(f.dst.relations.stack_below(f.matrix))
        return ZMor(f.dst, coker, Mat.identity(f.dst.gens))

    def lift_along_mono(self, f: ZMor, mono: ZMor):
        """psi with psi;mono = f, or None; unique when mono is monic."""
        if f.dst != mono.dst:
            raise EndpointMismatch("lift needs matching targets")
        sol = solve_mod_rows(mono.matrix, mono.dst.relations, f.matrix)
        if sol is None:
            return None
        cand = ZMor(f.src, mono.src, sol)
        if not self.is_well_defined(cand):
            return None
        if not self.eq_mor(self.compose(cand, mono), f):
            raise ContractViolation("a solution of the lift equations does not lift f")
        return cand

    def colift_along_epi(self, f: ZMor, epi: ZMor):
        """psi with epi;psi = f, or None; unique when epi is epic."""
        if f.src != epi.src:
            raise EndpointMismatch("colift needs matching sources")
        section = solve_mod_rows(epi.matrix, epi.dst.relations, Mat.identity(epi.dst.gens))
        if section is None:
            return None
        cand = ZMor(epi.dst, f.dst, section.mul(f.matrix))
        if not self.is_well_defined(cand):
            return None
        if not self.eq_mor(self.compose(epi, cand), f):
            return None
        return cand

    def direct_sum(self, m: ZObj, n: ZObj):
        g, h = m.gens, n.gens
        top = Mat(m.relations.rows, g + h,
                  tuple(r + (0,) * h for r in m.relations.data))
        bot = Mat(n.relations.rows, g + h,
                  tuple((0,) * g + r for r in n.relations.data))
        total = ZObj(top.stack_below(bot))
        i1 = ZMor(m, total, Mat(g, g + h, tuple(
            tuple(1 if i == j else 0 for j in range(g + h)) for i in range(g))))
        i2 = ZMor(n, total, Mat(h, g + h, tuple(
            tuple(1 if i + g == j else 0 for j in range(g + h)) for i in range(h))))
        p1 = ZMor(total, m, Mat(g + h, g, tuple(
            tuple(1 if i == j else 0 for j in range(g)) for i in range(g + h))))
        p2 = ZMor(total, n, Mat(g + h, h, tuple(
            tuple(1 if i - g == j else 0 for j in range(h)) for i in range(g + h))))
        return total, (i1, i2), (p1, p2)

    # -- Hom and Ext --------------------------------------------------------------

    def _hom_vector(self, f: ZMor):
        return flatten(f.matrix)

    def _hom_modulus(self, src: ZObj, dst: ZObj) -> Mat:
        """Rows spanning the payloads that represent the zero morphism."""
        g, h = src.gens, dst.gens
        rows = []
        for j in range(g):
            for s in range(dst.relations.rows):
                vec = [0] * (g * h)
                rel = dst.relations.data[s]
                for k in range(h):
                    vec[j * h + k] = rel[k]
                rows.append(tuple(vec))
        return Mat(len(rows), g * h, tuple(rows))

    def hom_group(self, m: ZObj, n: ZObj) -> ZHomGroup:
        g, h = m.gens, n.gens
        rm, rn = m.relations.rows, n.relations.rows
        unknowns = g * h + rm * rn
        equations = rm * h
        c = [[0] * equations for _ in range(unknowns)]
        for i in range(rm):
            rel = m.relations.data[i]
            for j in range(g):
                if rel[j]:
                    for k in range(h):
                        c[j * h + k][i * h + k] = rel[j]
            for s in range(rn):
                nrel = n.relations.data[s]
                for k in range(h):
                    if nrel[k]:
                        c[g * h + i * rn + s][i * h + k] = -nrel[k]
        cmat = Mat(unknowns, equations, tuple(tuple(r) for r in c))
        sols = int_kernel(cmat).take_cols(range(g * h))
        lat = row_basis(sols)
        modulus = self._hom_modulus(m, n)
        rel = kernel_mod_rows(lat, modulus) if lat.rows else Mat.zeros(0, 0)
        basis = [ZMor(m, n, unflatten(lat.data[t], g, h)) for t in range(lat.rows)]
        return ZHomGroup(self, m, n, basis, rel)

    def ext1_group(self, m: ZObj, n: ZObj) -> ZGroup:
        """Ext1(M, N) from the length-one free resolution of M.

        With B a basis of the relation lattice of M, the resolution is
        0 -> Z^q -B-> Z^g -> M -> 0 and Ext1 is the cokernel of
        Hom(Z^g, N) -> Hom(Z^q, N).
        """
        b = row_basis(m.relations)
        q, g, h = b.rows, m.gens, n.gens
        rows = []
        for i in range(q):
            for s in range(n.relations.rows):
                vec = [0] * (q * h)
                rel = n.relations.data[s]
                for k in range(h):
                    vec[i * h + k] = rel[k]
                rows.append(tuple(vec))
        for j in range(g):
            for t in range(h):
                vec = [0] * (q * h)
                for i in range(q):
                    vec[i * h + t] = b.data[i][j]
                rows.append(tuple(vec))
        return ZGroup(Mat(len(rows), q * h, tuple(rows)))

    # -- normal forms ---------------------------------------------------------------

    def normal_form(self, m: ZObj):
        """(nf, to_nf, from_nf): nf has diagonal relations in divisor-chain
        order with unit factors dropped; to_nf and from_nf are mutually
        inverse isomorphisms."""
        divisors, free_rank, to_nf, from_nf = presentation_normal_form(m.relations)
        k = len(divisors) + free_rank
        nf = ZObj(diag_rows(divisors, k))
        return nf, ZMor(m, nf, to_nf), ZMor(nf, m, from_nf)

    # -- randomness -------------------------------------------------------------------

    def _random_unimodular(self, rng, n) -> Mat:
        u = Mat.identity(n).to_lists()
        for _ in range(2 * n):
            op = rng.randrange(3)
            if n < 2:
                break
            i, j = rng.sample(range(n), 2)
            if op == 0:
                c = rng.choice([-2, -1, 1, 2])
                for t in range(n):
                    u[i][t] += c * u[j][t]
            elif op == 1:
                u[i], u[j] = u[j], u[i]
            else:
                u[i] = [-x for x in u[i]]
        return Mat(n, n, tuple(tuple(r) for r in u))

    def _scrambled_from_divisors(self, rng, divisors, free_rank=0) -> ZObj:
        g = len(divisors) + free_rank
        base = diag_rows(divisors, g)
        v = self._random_unimodular(rng, g)
        rel = base.mul(v)
        if rel.rows and rng.randrange(2):
            coeffs = [rng.randint(-1, 1) for _ in range(rel.rows)]
            extra_row = [sum(c * rel.data[s][t] for s, c in enumerate(coeffs))
                         for t in range(g)]
            rel = rel.stack_below(Mat.from_rows([extra_row], g))
        return ZObj(rel)

    def random_object(self, rng, size_bound) -> ZObj:
        k = rng.randrange(0, max(1, size_bound) + 1)
        divisors = [rng.randint(1, 12) for _ in range(k)]
        free_rank = rng.randrange(0, 2)
        return self._scrambled_from_divisors(rng, divisors, free_rank)

    def random_morphism(self, rng, m: ZObj, n: ZObj) -> ZMor:
        hom = self.hom_group(m, n)
        return hom.decode(tuple(rng.randint(-4, 4) for _ in range(hom.ngens)))

    # -- JSON codecs ------------------------------------------------------------------

    def decode_entry(self, x) -> int:
        q = entry_from_json(x)
        if isinstance(q, Fraction):
            if q.denominator != 1:
                raise InputValidationError(f"integer payloads need integer entries, got {x!r}")
            return int(q)
        return q

    def obj_to_payload(self, m: ZObj):
        return {"relations": self.mat_to_json(m.relations), "gens": m.gens}

    def obj_from_payload(self, payload, where="object") -> ZObj:
        if not isinstance(payload, dict):
            raise InputValidationError(f"{where}: payload must be an object")
        if "relations" not in payload:
            raise InputValidationError(f"{where}: integer objects need 'relations'")
        gens = payload.get("gens")
        if gens is not None and (not isinstance(gens, int) or isinstance(gens, bool)
                                 or gens < 0):
            raise InputValidationError(f"{where}: 'gens' must be a nonnegative integer")
        return self.obj(self.mat_from_json(payload["relations"], expected_cols=gens))

    def mor_to_payload(self, f: ZMor):
        return {"src": self.obj_to_payload(f.src), "dst": self.obj_to_payload(f.dst),
                "matrix": self.mat_to_json(f.matrix)}

    def mor_between(self, src: ZObj, dst: ZObj, payload, where="morphism") -> ZMor:
        if "matrix" not in payload:
            raise InputValidationError(f"{where}: integer morphisms need 'matrix'")
        mat = self.mat_from_json(payload["matrix"], expected_cols=dst.gens)
        if mat.rows != src.gens:
            raise InputValidationError(f"{where}: matrix must have {src.gens} rows")
        return self.checked_mor(self.mor(src, dst, mat), where)

    def describe_invariants(self, m: ZObj):
        _, rank, divisors = self.invariants(m)
        return {"rank": rank, "divisors": list(divisors)}


class FiniteAbelianEngine(ZModuleEngine):
    """Finitely presented Z-modules of finite order (rank zero)."""

    name = "finite_abelian"

    def random_object(self, rng, size_bound, max_order=None) -> ZObj:
        while True:
            k = rng.randrange(0, max(1, size_bound) + 1)
            divisors = [rng.randint(1, 12) for _ in range(k)]
            if max_order is not None and prod(divisors) > max_order:
                continue
            return self._scrambled_from_divisors(rng, divisors, 0)

    def obj_from_payload(self, payload, where="object") -> ZObj:
        obj = super().obj_from_payload(payload, where)
        if self.order(obj) is None:
            raise InputValidationError(f"{where}: object is not finite")
        return obj


# ---------------------------------------------------------------------------
# torsion theories


def _p_free_part(d: int, p: int) -> int:
    while d % p == 0:
        d //= p
    return d


class ZTorsionTheory:
    """C = finite p-groups inside a Z-module engine; p = 0 selects the full
    torsion class.

    Subclasses supply only data: kind, canonical_tag, size_bound,
    engine_class, zero_p_allowed, probe_objects and, where subobjects can
    be enumerated, subobject_embeddings.  On the finite-abelian
    engine an infinite object is an EngineMismatch and random_object
    honours max_order; on all finitely presented Z-modules objects may be
    infinite and max_order does not apply.
    """

    cogenerator_bound = 3
    zero_p_allowed = False

    def __init__(self, p: int):
        if not (p == 0 and self.zero_p_allowed or is_prime(p)):
            zero = " or 0 for the full torsion class" if self.zero_p_allowed else ""
            raise InputValidationError(f"p must be a prime{zero}, got {p}")
        self.p = p
        self.engine = self.engine_class()

    def describe(self):
        return {"kind": self.kind, "p": self.p}

    def _invariants(self, m: ZObj):
        rank, divisors = presentation_invariants(m.relations)
        if rank and isinstance(self.engine, FiniteAbelianEngine):
            raise EngineMismatch("the finite-abelian engine only handles finite objects")
        return rank, divisors

    def is_in_c(self, m: ZObj) -> bool:
        rank, divisors = self._invariants(m)
        return rank == 0 and (self.p == 0
                              or all(_p_free_part(d, self.p) == 1 for d in divisors))

    def h_c(self, m: ZObj) -> ZMor:
        """Embedding of the p-primary part of the torsion of M (the whole
        torsion part when p = 0), the maximal subobject in C."""
        _, divisors = self._invariants(m)
        nf, _, from_nf = self.engine.normal_form(m)
        gen_rows = []
        orders = []
        for i, d in enumerate(divisors):
            cof = _p_free_part(d, self.p) if self.p else 1
            if cof != d:
                vec = [0] * nf.gens
                vec[i] = cof
                gen_rows.append(tuple(vec))
                orders.append(d // cof)
        sub = ZObj(diag_rows(orders, len(orders)))
        emb_nf = ZMor(sub, nf, Mat(len(orders), nf.gens, tuple(gen_rows)))
        return self.engine.compose(emb_nf, from_nf)

    def saturate(self, m: ZObj):
        """(W(M), eta_M): M / H_C(M) in normal form with the projection as
        unit; ker eta = H_C(M) and coker eta = 0.  For the fixture this is
        the naive candidate, whose image is not saturated in general."""
        proj = self.engine.cokernel_proj(self.h_c(m))
        nf, to_nf, _ = self.engine.normal_form(proj.dst)
        return nf, self.engine.compose(proj, to_nf)

    def is_saturated(self, m: ZObj) -> bool:
        # gcd(order, 0) = order, so for p = 0 only the zero object is saturated
        rank, divisors = self._invariants(m)
        return rank == 0 and gcd(prod(divisors), self.p) == 1

    def extend_along_unit(self, phi: ZMor) -> ZMor:
        """The unique psi with psi after eta_{src(phi)} equal to phi."""
        if not self.is_saturated(phi.dst):
            raise NotSaturatedError("extension target must be saturated")
        _, eta = self.saturate(phi.src)
        psi = self.engine.colift_along_epi(phi, eta)
        if psi is None:
            raise ContractViolation("a map to a saturated object must extend along the unit")
        return psi

    def c_cogenerators(self, bound: int):
        if self.p == 0:
            return [self.engine.cyclic(n) for n in range(2, bound + 2)]
        return [self.engine.cyclic(self.p ** k) for k in range(1, bound + 1)]

    def twist_unit(self, eta: ZMor) -> ZMor:
        # multiplication by p is a natural automorphism of prime-to-p groups
        return self.engine.scale(eta, self.p or 2)

    def random_object(self, rng, size_bound=None, max_order=None):
        size_bound = self.size_bound if size_bound is None else size_bound
        if isinstance(self.engine, FiniteAbelianEngine):
            return self.engine.random_object(rng, size_bound, max_order=max_order)
        return self.engine.random_object(rng, size_bound)

    def random_ses(self, rng, size_bound=None):
        return self.engine.random_ses(
            rng, self.size_bound if size_bound is None else size_bound)


class PPrimaryTheory(ZTorsionTheory):
    """C = finite abelian p-groups inside finite abelian groups.

    This class is localizing: the quotient of a finite group by its
    p-primary part is saturated, so the Gabriel monad exists and sends M
    to its prime-to-p part.
    """

    kind = "finite_abelian"
    canonical_tag = "gabriel"
    size_bound = 3
    engine_class = FiniteAbelianEngine
    # each theory binds saturate in its own body, so that perfbench/tracing.py,
    # which wraps methods class by class, traces the two theories apart
    saturate = ZTorsionTheory.saturate

    def probe_objects(self):
        e = self.engine
        p = self.p
        q = 3 if p != 3 else 2
        return [e.zero_object(), e.cyclic(p), e.cyclic(p * p), e.cyclic(q),
                e.cyclic(p * q), e.obj_from_divisors([p, q * q])]

    def subobject_embeddings(self, m: ZObj, element_cap=256):
        return finite_subobject_embeddings(self.engine, m, element_cap)


class FixtureTheory(ZTorsionTheory):
    """C = finite p-groups inside all finitely presented Z-modules.

    The class is thick but not localizing: there are not enough saturated
    objects (Z has no saturated hull because Ext1(Z/p, Z) = Z/p).  The
    naive candidate monad M -> M/H_C(M) ships with the theory so checker
    suites have a guaranteed-broken input.  p = 0 selects the full torsion
    class instead of a p-primary one.
    """

    kind = "fixture"
    canonical_tag = "fixture-naive"
    size_bound = 2
    engine_class = ZModuleEngine
    zero_p_allowed = True
    saturate = ZTorsionTheory.saturate

    def probe_objects(self):
        e = self.engine
        p = self.p if self.p else 2
        q = 3 if p != 3 else 2
        free = e.free(1)
        mixed = e.obj_from_divisors([p], free_rank=1)
        return [e.zero_object(), free, e.cyclic(p), e.cyclic(q), mixed]


# ---------------------------------------------------------------------------
# exhaustive subobject enumeration (finite objects only)


def finite_subobject_embeddings(engine: ZModuleEngine, m: ZObj, element_cap=256):
    """One embedding per subgroup of the finite object M.

    Works on the element table of the normal form: subgroups are found by
    closing bit-mask subsets under addition, so the enumeration is
    exhaustive and does not presuppose any structure theory.
    """
    order = engine.order(m)
    if order is None or order > element_cap:
        raise ValueError("object too large for exhaustive subobject enumeration")
    nf, _, from_nf = engine.normal_form(m)
    rank, divisors = presentation_invariants(m.relations)
    if rank:
        raise ContractViolation("a finite order was computed for an infinite object")
    divisors = list(divisors)

    elements = [()]
    for d in divisors:
        elements = [e + (x,) for e in elements for x in range(d)]
    index = {e: i for i, e in enumerate(elements)}
    n = len(elements)

    def add_elem(a, b):
        return tuple((x + y) % d for x, y, d in zip(a, b, divisors))

    perms = []
    for x in elements:
        perms.append([index[add_elem(e, x)] for e in elements])

    def shift(mask, perm):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        return out

    zero_mask = 1 << index[tuple(0 for _ in divisors)]
    known = {zero_mask}
    queue = [zero_mask]
    while queue:
        s = queue.pop()
        for ix in range(n):
            if (s >> ix) & 1:
                continue
            perm = perms[ix]
            acc = s
            shifted = s
            while True:
                shifted = shift(shifted, perm)
                acc |= shifted
                if shifted == s:
                    break
            if acc not in known:
                known.add(acc)
                queue.append(acc)

    out = []
    for mask in sorted(known):
        members = [elements[i] for i in range(n) if (mask >> i) & 1]
        rows = Mat.from_rows([list(e) for e in members], nf.gens)
        lattice = row_basis(rows.stack_below(nf.relations))
        rel = kernel_mod_rows(lattice, nf.relations)
        sub = ZObj(rel)
        emb = engine.compose(ZMor(sub, nf, lattice), from_nf)
        if engine.order(sub) != len(members):
            raise ContractViolation("a subgroup presentation has the wrong order")
        out.append(emb)
    return out
