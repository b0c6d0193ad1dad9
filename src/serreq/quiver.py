"""Representations of the two-vertex quiver (source -> sink) over a field.

A representation is a pair of vector spaces V1, V2 with a linear map
alpha: V1 -> V2 (a d1 x d2 matrix in the row-vector convention); a
morphism is a pair of matrices forming a commuting square.  Everything
reduces to exact field linear algebra, so this gives an instance family
independent of the integer engine.

The representations supported at the source vertex (V2 = 0) form a
localizing class; the quotient by them is equivalent to vector spaces at
the sink, and the reflection sends V to (V2, V2, id) with unit
(alpha, id).  Unlike the integer engine, that unit has a nontrivial
cokernel (coker alpha, 0), so nothing downstream may assume units epic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .category import AbelianEngine, FieldHomGroup, VectorSpace, entry_from_json
from .errors import (
    ContractViolation, EndpointMismatch, EngineMismatch, InputValidationError,
    NotSaturatedError, ShapeError,
)
from .linalg import Mat, f_inv, f_kernel, f_mul, f_rank, f_solve, flatten, unflatten


@dataclass(frozen=True)
class A2Obj:
    d1: int
    d2: int
    alpha: Mat  # d1 x d2
    field: object

    def __repr__(self):
        return f"A2Obj({self.d1}->{self.d2} over {self.field.name})"


@dataclass(frozen=True)
class A2Mor:
    src: A2Obj
    dst: A2Obj
    f1: Mat
    f2: Mat


class A2Engine(AbelianEngine):
    """The abelian category of finite-dimensional A2 representations."""

    name = "a2_rep"

    def __init__(self, field):
        self.field = field

    # -- constructors ----------------------------------------------------------

    def obj(self, d1: int, d2: int, alpha: Mat) -> A2Obj:
        if alpha.rows != d1 or alpha.cols != d2:
            raise ShapeError(f"alpha must be {d1}x{d2}, got {alpha.rows}x{alpha.cols}")
        return A2Obj(d1, d2, self.field.reduce_mat(alpha), self.field)

    def zero_object(self) -> A2Obj:
        return self.obj(0, 0, Mat.zeros(0, 0))

    def simple_source(self, d=1) -> A2Obj:
        return self.obj(d, 0, Mat.zeros(d, 0))

    def simple_sink(self, d=1) -> A2Obj:
        return self.obj(0, d, Mat.zeros(0, d))

    def interval(self, d=1) -> A2Obj:
        return self.obj(d, d, Mat.identity(d))

    def mor(self, src: A2Obj, dst: A2Obj, f1: Mat, f2: Mat) -> A2Mor:
        self._check_engine(src)
        self._check_engine(dst)
        if f1.rows != src.d1 or f1.cols != dst.d1 or f2.rows != src.d2 or f2.cols != dst.d2:
            raise ShapeError("component shapes do not match the endpoints")
        return A2Mor(src, dst, self.field.reduce_mat(f1), self.field.reduce_mat(f2))

    def _check_engine(self, m: A2Obj):
        if m.field != self.field:
            raise EngineMismatch(f"object over {m.field.name} used in a {self.field.name} engine")

    def identity(self, m: A2Obj) -> A2Mor:
        return self.mor(m, m, Mat.identity(m.d1), Mat.identity(m.d2))

    def zero_morphism(self, src: A2Obj, dst: A2Obj) -> A2Mor:
        return self.mor(src, dst, Mat.zeros(src.d1, dst.d1), Mat.zeros(src.d2, dst.d2))

    # -- morphism arithmetic -----------------------------------------------------

    def compose(self, f: A2Mor, g: A2Mor) -> A2Mor:
        if f.dst != g.src:
            raise EndpointMismatch("compose needs target(f) == source(g)")
        return self.mor(f.src, g.dst, f.f1.mul(g.f1), f.f2.mul(g.f2))

    def add(self, f: A2Mor, g: A2Mor) -> A2Mor:
        self._same_endpoints(f, g)
        return self.mor(f.src, f.dst, f.f1.add(g.f1), f.f2.add(g.f2))

    def sub(self, f: A2Mor, g: A2Mor) -> A2Mor:
        self._same_endpoints(f, g)
        return self.mor(f.src, f.dst, f.f1.sub(g.f1), f.f2.sub(g.f2))

    def neg(self, f: A2Mor) -> A2Mor:
        return self.mor(f.src, f.dst, f.f1.neg(), f.f2.neg())

    def scale(self, f: A2Mor, c) -> A2Mor:
        return self.mor(f.src, f.dst, f.f1.scale(c), f.f2.scale(c))

    def _same_endpoints(self, f, g):
        if f.src != g.src or f.dst != g.dst:
            raise EndpointMismatch("morphisms have different endpoints")

    # -- decidable structure --------------------------------------------------------

    def is_well_defined(self, f: A2Mor) -> bool:
        left = f_mul(self.field, f.f1, f.dst.alpha)
        right = f_mul(self.field, f.src.alpha, f.f2)
        return left.data == right.data

    def eq_mor(self, f: A2Mor, g: A2Mor) -> bool:
        self._same_endpoints(f, g)
        return f.f1.data == g.f1.data and f.f2.data == g.f2.data

    def is_zero_obj(self, m: A2Obj) -> bool:
        return m.d1 == 0 and m.d2 == 0

    def invariants(self, m: A2Obj):
        return ("a2", self.field.name, m.d1, m.d2, f_rank(self.field, m.alpha))

    # -- kernels, cokernels, lifts ----------------------------------------------

    def kernel_emb(self, f: A2Mor) -> A2Mor:
        k1 = f_kernel(self.field, f.f1)
        k2 = f_kernel(self.field, f.f2)
        # alpha restricts: rows of k1*alpha lie in ker f2
        restr = f_solve(self.field, k2, f_mul(self.field, k1, f.src.alpha))
        if restr is None:
            raise ContractViolation("alpha does not restrict to the kernel")
        ker = self.obj(k1.rows, k2.rows, restr)
        return self.mor(ker, f.src, k1, k2)

    def cokernel_proj(self, f: A2Mor) -> A2Mor:
        p1 = f_kernel(self.field, f.f1.transpose()).transpose()
        p2 = f_kernel(self.field, f.f2.transpose()).transpose()
        rhs = f_mul(self.field, f.dst.alpha, p2)
        sol = f_solve(self.field, p1.transpose(), rhs.transpose())
        if sol is None:
            raise ContractViolation("alpha does not descend to the cokernel")
        coker = self.obj(p1.cols, p2.cols, sol.transpose())
        return self.mor(f.dst, coker, p1, p2)

    def lift_along_mono(self, f: A2Mor, mono: A2Mor):
        if f.dst != mono.dst:
            raise EndpointMismatch("lift needs matching targets")
        l1 = f_solve(self.field, mono.f1, f.f1)
        l2 = f_solve(self.field, mono.f2, f.f2)
        if l1 is None or l2 is None:
            return None
        cand = self.mor(f.src, mono.src, l1, l2)
        if not self.is_well_defined(cand):
            return None
        if not self.eq_mor(self.compose(cand, mono), f):
            raise ContractViolation("a solution of the lift equations does not lift f")
        return cand

    def colift_along_epi(self, f: A2Mor, epi: A2Mor):
        if f.src != epi.src:
            raise EndpointMismatch("colift needs matching sources")
        c1 = f_solve(self.field, epi.f1.transpose(), f.f1.transpose())
        c2 = f_solve(self.field, epi.f2.transpose(), f.f2.transpose())
        if c1 is None or c2 is None:
            return None
        cand = self.mor(epi.dst, f.dst, c1.transpose(), c2.transpose())
        if not self.is_well_defined(cand):
            return None
        if not self.eq_mor(self.compose(epi, cand), f):
            return None
        return cand

    def direct_sum(self, m: A2Obj, n: A2Obj):
        def block(a: Mat, b: Mat) -> Mat:
            rows = []
            for r in a.data:
                rows.append(tuple(r) + (0,) * b.cols)
            for r in b.data:
                rows.append((0,) * a.cols + tuple(r))
            return Mat(a.rows + b.rows, a.cols + b.cols, tuple(rows))

        total = self.obj(m.d1 + n.d1, m.d2 + n.d2, block(m.alpha, n.alpha))

        def inj(dm, dn, first):
            if first:
                return Mat(dm, dm + dn, tuple(
                    tuple(1 if i == j else 0 for j in range(dm + dn)) for i in range(dm)))
            return Mat(dn, dm + dn, tuple(
                tuple(1 if i + dm == j else 0 for j in range(dm + dn)) for i in range(dn)))

        def proj(dm, dn, first):
            if first:
                return Mat(dm + dn, dm, tuple(
                    tuple(1 if i == j else 0 for j in range(dm)) for i in range(dm + dn)))
            return Mat(dm + dn, dn, tuple(
                tuple(1 if i - dm == j else 0 for j in range(dn)) for i in range(dm + dn)))

        i1 = self.mor(m, total, inj(m.d1, n.d1, True), inj(m.d2, n.d2, True))
        i2 = self.mor(n, total, inj(m.d1, n.d1, False), inj(m.d2, n.d2, False))
        p1 = self.mor(total, m, proj(m.d1, n.d1, True), proj(m.d2, n.d2, True))
        p2 = self.mor(total, n, proj(m.d1, n.d1, False), proj(m.d2, n.d2, False))
        return total, (i1, i2), (p1, p2)

    # -- Hom and Ext ------------------------------------------------------------

    def _hom_vector(self, f: A2Mor):
        return flatten(f.f1) + flatten(f.f2)

    def _constraint_matrix(self, m: A2Obj, n: A2Obj) -> Mat:
        """Rows index (f1, f2) unknowns, columns the entries of
        f1*alpha_n - alpha_m*f2; Hom is the left kernel and Ext1 the
        cokernel of this map."""
        d1, d2, e1, e2 = m.d1, m.d2, n.d1, n.d2
        unknowns = d1 * e1 + d2 * e2
        eqs = d1 * e2
        c = [[0] * eqs for _ in range(unknowns)]
        beta = n.alpha
        for i in range(d1):
            for b in range(e1):
                for j in range(e2):
                    if beta.data[b][j]:
                        c[i * e1 + b][i * e2 + j] = beta.data[b][j]
        alpha = m.alpha
        for cc in range(d2):
            for j in range(e2):
                for i in range(d1):
                    if alpha.data[i][cc]:
                        c[d1 * e1 + cc * e2 + j][i * e2 + j] = -alpha.data[i][cc]
        return self.field.reduce_mat(Mat(unknowns, eqs, tuple(tuple(r) for r in c)))

    def hom_group(self, m: A2Obj, n: A2Obj) -> FieldHomGroup:
        cmat = self._constraint_matrix(m, n)
        basis_rows = f_kernel(self.field, cmat)
        cut = m.d1 * n.d1
        basis = []
        for row in basis_rows.data:
            f1 = unflatten(row[:cut], m.d1, n.d1)
            f2 = unflatten(row[cut:], m.d2, n.d2)
            basis.append(self.mor(m, n, f1, f2))
        return FieldHomGroup(self, m, n, basis)

    def ext1_group(self, m: A2Obj, n: A2Obj) -> VectorSpace:
        """Ext1 from the standard projective resolution
        0 -> V1 (x) P_sink -> V1 (x) P_source + V2 (x) P_sink -> V -> 0,
        whose Hom-complex is the constraint map above."""
        cmat = self._constraint_matrix(m, n)
        dim = m.d1 * n.d2 - f_rank(self.field, cmat)
        return VectorSpace(self.field, dim)

    # -- randomness ----------------------------------------------------------------

    def _random_entry(self, rng):
        if self.field.p:
            return rng.randrange(self.field.p)
        return rng.randint(-3, 3)

    def random_object(self, rng, size_bound) -> A2Obj:
        d1 = rng.randrange(0, max(1, size_bound) + 1)
        d2 = rng.randrange(0, max(1, size_bound) + 1)
        alpha = Mat(d1, d2, tuple(tuple(self._random_entry(rng) for _ in range(d2))
                                  for _ in range(d1)))
        return self.obj(d1, d2, alpha)

    def random_morphism(self, rng, m: A2Obj, n: A2Obj) -> A2Mor:
        hom = self.hom_group(m, n)
        return hom.decode(tuple(self._random_entry(rng) for _ in range(hom.ngens)))

    def random_projective(self, rng, size_bound) -> A2Obj:
        a = rng.randrange(0, size_bound + 1)
        b = rng.randrange(0, size_bound + 1)
        total, _, _ = self.direct_sum(self.interval(a), self.simple_sink(b))
        return total

    # -- JSON codecs ------------------------------------------------------------------

    def decode_entry(self, x):
        """Over F_p an entry "a/b" is a times the inverse of b mod p."""
        q = entry_from_json(x)
        p = self.field.p
        if p and isinstance(q, Fraction):
            if q.denominator % p == 0:
                raise InputValidationError(f"entry {x!r} has no value in {self.field.name}")
            return q.numerator * pow(q.denominator, -1, p) % p
        return q

    def obj_to_payload(self, m: A2Obj):
        return {"dims": [m.d1, m.d2], "alpha": self.mat_to_json(m.alpha)}

    def obj_from_payload(self, payload, where="object") -> A2Obj:
        if not isinstance(payload, dict):
            raise InputValidationError(f"{where}: payload must be an object")
        dims = payload.get("dims")
        if (not isinstance(dims, list) or len(dims) != 2
                or any(not isinstance(d, int) or isinstance(d, bool) or d < 0
                       for d in dims)):
            raise InputValidationError(f"{where}: quiver objects need 'dims': [d1, d2]")
        mat = self.mat_from_json(payload.get("alpha", []), expected_cols=dims[1])
        if mat.rows != dims[0]:
            raise InputValidationError(f"{where}: alpha must have {dims[0]} rows")
        return self.obj(dims[0], dims[1], mat)

    def mor_to_payload(self, f: A2Mor):
        return {"src": self.obj_to_payload(f.src), "dst": self.obj_to_payload(f.dst),
                "f1": self.mat_to_json(f.f1), "f2": self.mat_to_json(f.f2)}

    def mor_between(self, src: A2Obj, dst: A2Obj, payload, where="morphism") -> A2Mor:
        if "f1" not in payload or "f2" not in payload:
            raise InputValidationError(f"{where}: quiver morphisms need 'f1' and 'f2'")
        f1 = self.mat_from_json(payload["f1"], expected_cols=dst.d1)
        f2 = self.mat_from_json(payload["f2"], expected_cols=dst.d2)
        if f1.rows != src.d1 or f2.rows != src.d2:
            raise InputValidationError(f"{where}: component row counts do not match")
        return self.checked_mor(self.mor(src, dst, f1, f2), where)

    def describe_invariants(self, m: A2Obj):
        return {"dims": [m.d1, m.d2], "alpha_rank": self.invariants(m)[4]}


class SinkSupportTheory:
    """C = representations supported at the source vertex (V2 = 0).

    Localizing: the reflection of V is (V2, V2, id) with unit (alpha, id);
    its kernel is (ker alpha, 0) and its cokernel (coker alpha, 0), both
    in C, and the saturated objects are exactly those with alpha
    invertible.
    """

    kind = "a2_rep"
    canonical_tag = "gabriel"
    size_bound = 3
    cogenerator_bound = 2

    def __init__(self, field):
        self.field = field
        self.engine = A2Engine(field)

    def describe(self):
        return {"kind": self.kind, "field": self.field.name}

    def is_in_c(self, m: A2Obj) -> bool:
        return m.d2 == 0

    def h_c(self, m: A2Obj) -> A2Mor:
        k = f_kernel(self.field, m.alpha)
        sub = self.engine.obj(k.rows, 0, Mat.zeros(k.rows, 0))
        return self.engine.mor(sub, m, k, Mat.zeros(0, m.d2))

    def saturate(self, m: A2Obj):
        w = self.engine.interval(m.d2)
        eta = self.engine.mor(m, w, m.alpha, Mat.identity(m.d2))
        return w, eta

    def is_saturated(self, m: A2Obj) -> bool:
        return m.d1 == m.d2 and f_rank(self.field, m.alpha) == m.d1

    def extend_along_unit(self, phi: A2Mor) -> A2Mor:
        if not self.is_saturated(phi.dst):
            raise NotSaturatedError("extension target must be saturated")
        inv = f_inv(self.field, phi.dst.alpha)
        w, _ = self.saturate(phi.src)
        psi1 = f_mul(self.field, phi.f2, inv)
        return self.engine.mor(w, phi.dst, psi1, phi.f2)

    def c_cogenerators(self, bound: int):
        return [self.engine.simple_source(d) for d in range(1, bound + 1)]

    def probe_objects(self):
        e = self.engine
        wedge = e.obj(2, 1, Mat.from_rows([[1], [0]]))
        return [e.zero_object(), e.simple_source(), e.simple_sink(), e.interval(),
                e.obj(1, 1, Mat.zeros(1, 1)), wedge]

    def twist_unit(self, eta: A2Mor) -> A2Mor:
        c = self.field.normalize(2)
        if c == self.field.normalize(0):
            c = self.field.normalize(1)
        return self.engine.scale(eta, c)

    def random_object(self, rng, size_bound=size_bound, max_order=None):
        return self.engine.random_object(rng, size_bound)

    def random_ses(self, rng, size_bound=size_bound):
        return self.engine.random_ses(rng, size_bound)
