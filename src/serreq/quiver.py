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

from .category import (
    MAX_INPUT_SIZE, AbelianEngine, FieldHomGroup, Mor, TorsionTheory, VectorSpace,
    entry_from_json, int_from_text,
)
from .errors import (
    ContractViolation, EngineMismatch, InputValidationError, NotSaturatedError, ShapeError,
)
from .linalg import QQ, Mat, PrimeField, f_rref, kron


@dataclass(frozen=True)
class A2Obj:
    d1: int
    d2: int
    alpha: Mat  # d1 x d2
    field: object

    def __repr__(self):
        return f"A2Obj({self.d1}->{self.d2} over {self.field.name})"


class A2Engine(AbelianEngine):
    """The abelian category of finite-dimensional A2 representations."""

    name = "a2_rep"
    # a morphism is a pair of matrices, at the source and at the sink vertex
    map_keys = ("f1", "f2")

    def __init__(self, field):
        super().__init__()
        self.field = self.ring = field

    # -- constructors ----------------------------------------------------------

    def obj(self, d1: int, d2: int, alpha: Mat) -> A2Obj:
        """The object with a caller's alpha, shape-checked and reduced
        into the field.  The engine's own objects below are built from
        identities and zeros, which are canonical in every field, so they
        skip the scan."""
        if alpha.rows != d1 or alpha.cols != d2:
            raise ShapeError(f"alpha must be {d1}x{d2}, got {alpha.rows}x{alpha.cols}")
        return A2Obj(d1, d2, self.field.reduce_mat(alpha), self.field)

    def zero_object(self) -> A2Obj:
        return A2Obj(0, 0, Mat.zeros(0, 0), self.field)

    def simple_source(self, d=1) -> A2Obj:
        return A2Obj(d, 0, Mat.zeros(d, 0), self.field)

    def simple_sink(self, d=1) -> A2Obj:
        return A2Obj(0, d, Mat.zeros(0, d), self.field)

    def interval(self, d=1) -> A2Obj:
        return A2Obj(d, d, Mat.identity(d), self.field)

    def dims(self, m: A2Obj):
        if m.field != self.field:
            raise EngineMismatch(f"object over {m.field.name} used in a {self.field.name} engine")
        return (m.d1, m.d2)

    def _eliminate(self, A: Mat):
        return f_rref(self.field, A)

    # -- decidable structure --------------------------------------------------------

    def is_well_defined(self, f: Mor) -> bool:
        f1, f2 = f.maps
        return self.field.mul(f1, f.dst.alpha).data == self.field.mul(f.src.alpha, f2).data

    def eq_mor(self, f: Mor, g: Mor) -> bool:
        self._same_endpoints(f, g)
        return f.maps == g.maps

    def is_zero_obj(self, m: A2Obj) -> bool:
        return m.d1 == 0 and m.d2 == 0

    def invariants(self, m: A2Obj):
        return ("a2", self.field.name, m.d1, m.d2, self.rank(m.alpha))

    # -- kernels, cokernels, lifts ----------------------------------------------

    def kernel_emb(self, f: Mor) -> Mor:
        k1, k2 = (self.kernel(a) for a in f.maps)
        # alpha restricts: rows of k1*alpha lie in ker f2
        restr = self.solve(k2, self.field.mul(k1, f.src.alpha))
        if restr is None:
            raise ContractViolation("alpha does not restrict to the kernel")
        ker = A2Obj(k1.rows, k2.rows, restr, self.field)
        return Mor(ker, f.src, (k1, k2))

    def cokernel_proj(self, f: Mor) -> Mor:
        p1, p2 = (self.kernel(a.transpose()).transpose() for a in f.maps)
        rhs = self.field.mul(f.dst.alpha, p2)
        sol = self.solve(p1.transpose(), rhs.transpose())
        if sol is None:
            raise ContractViolation("alpha does not descend to the cokernel")
        coker = A2Obj(p1.cols, p2.cols, sol.transpose(), self.field)
        return Mor(f.dst, coker, (p1, p2))

    def _lift_candidate(self, f: Mor, mono: Mor):
        sols = [self.solve(a, b) for a, b in zip(mono.maps, f.maps)]
        if any(x is None for x in sols):
            return None
        return Mor(f.src, mono.src, tuple(sols))

    def _colift_candidate(self, f: Mor, epi: Mor):
        sols = [self.solve(a.transpose(), b.transpose()) for a, b in zip(epi.maps, f.maps)]
        if any(x is None for x in sols):
            return None
        return Mor(epi.dst, f.dst, tuple(x.transpose() for x in sols))

    # -- Hom and Ext ------------------------------------------------------------

    def _constraint_matrix(self, m: A2Obj, n: A2Obj) -> Mat:
        """Rows index (f1, f2) unknowns, columns the entries of
        f1*alpha_n - alpha_m*f2; Hom is the left kernel and Ext1 the
        cokernel of this map.  The sign sits on alpha_m, so that the
        Kronecker products of canonical matrices are canonical."""
        return kron(Mat.identity(m.d1), n.alpha).stack_below(
            kron(self.field.scale(m.alpha.transpose(), -1), Mat.identity(n.d2)))

    def hom_group(self, m: A2Obj, n: A2Obj) -> FieldHomGroup:
        return FieldHomGroup(self, m, n, self.kernel(self._constraint_matrix(m, n)))

    def ext1_group(self, m: A2Obj, n: A2Obj) -> VectorSpace:
        """Ext1 from the standard projective resolution
        0 -> V1 (x) P_sink -> V1 (x) P_source + V2 (x) P_sink -> V -> 0,
        whose Hom-complex is the constraint map above."""
        cmat = self._constraint_matrix(m, n)
        dim = m.d1 * n.d2 - self.rank(cmat)
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
        # _random_entry draws canonical elements
        return A2Obj(d1, d2, alpha, self.field)

    # -- JSON codecs ------------------------------------------------------------------

    def decode_entry(self, x):
        """An entry in the field's canonical form: over F_p "a/b" is a
        times the inverse of b mod p, over Q "4/2" is the int 2."""
        return self.field.normalize(entry_from_json(x))

    def obj_to_payload(self, m: A2Obj):
        return {"dims": [m.d1, m.d2], "alpha": self.mat_to_json(m.alpha)}

    def obj_from_payload(self, payload, where="object") -> A2Obj:
        if not isinstance(payload, dict):
            raise InputValidationError(f"{where}: payload must be an object")
        dims = payload.get("dims")
        if (not isinstance(dims, list) or len(dims) != 2
                or any(not isinstance(d, int) or isinstance(d, bool)
                       or not 0 <= d <= MAX_INPUT_SIZE for d in dims)):
            raise InputValidationError(
                f"{where}: quiver objects need 'dims': [d1, d2], each from 0 to {MAX_INPUT_SIZE}")
        mat = self.mat_from_json(payload.get("alpha", []), expected_cols=dims[1])
        if mat.rows != dims[0]:
            raise InputValidationError(f"{where}: alpha must have {dims[0]} rows")
        return self.obj(dims[0], dims[1], mat)

    def describe_invariants(self, m: A2Obj):
        return {"dims": [m.d1, m.d2], "alpha_rank": self.invariants(m)[4]}


def field_from_name(name):
    if isinstance(name, int):
        return PrimeField(name)
    low = str(name).lower()
    if low in ("q", "qq", "rational", "rationals"):
        return QQ
    p = int_from_text(low[1:] if low.startswith("f") else low)
    if p is None:
        raise InputValidationError(f"unknown field name: {name}")
    return PrimeField(p)


class SinkSupportTheory(TorsionTheory):
    """C = representations supported at the source vertex (V2 = 0).

    Localizing: the reflection of V is (V2, V2, id) with unit (alpha, id);
    its kernel is (ker alpha, 0) and its cokernel (coker alpha, 0), both
    in C, and the saturated objects are exactly those with alpha
    invertible.
    """

    kind = "a2_rep"
    flag = ("field", "f101")
    canonical_tag = "gabriel"
    size_bound = 3
    # bound here, as in zmodules, so that perfbench/tracing.py finds it
    saturate = TorsionTheory.saturate

    def __init__(self, field):
        self.field = field
        super().__init__(A2Engine(field))

    @classmethod
    def from_descriptor(cls, desc: dict):
        """An absent or empty field name selects the default field."""
        name = desc.get("field", "")
        return cls(field_from_name(cls.flag[1] if name == "" else name))

    def describe(self):
        return {"kind": self.kind, "field": self.field.name}

    def is_in_c(self, m: A2Obj) -> bool:
        return m.d2 == 0

    # h_c and _reflect build their morphisms from m.alpha, a kernel (both
    # canonical), identities and zeros, so no entry is scanned; dims
    # still refuses an object of another field

    def h_c(self, m: A2Obj) -> Mor:
        d2 = self.engine.dims(m)[1]
        k = self.engine.kernel(m.alpha)
        return Mor(self.engine.simple_source(k.rows), m, (k, Mat.zeros(0, d2)))

    def _reflect(self, m: A2Obj):
        d2 = self.engine.dims(m)[1]
        w = self.engine.interval(d2)
        return w, Mor(m, w, (m.alpha, Mat.identity(d2)))

    def is_saturated(self, m: A2Obj) -> bool:
        return self.engine.inv(m.alpha) is not None

    def extend_along_unit(self, phi: Mor) -> Mor:
        inv = self.engine.inv(phi.dst.alpha)
        if inv is None:
            raise NotSaturatedError("extension target must be saturated")
        w, _ = self.saturate(phi.src)
        f2 = phi.maps[1]
        return Mor(w, phi.dst, (self.field.mul(f2, inv), f2))

    def c_cogenerators(self):
        """The simple source and its double."""
        return [self.engine.simple_source(d) for d in (1, 2)]

    def probe_objects(self):
        e = self.engine
        wedge = A2Obj(2, 1, Mat.from_rows([[1], [0]]), self.field)
        return [e.zero_object(), e.simple_source(), e.simple_sink(), e.interval(),
                A2Obj(1, 1, Mat.zeros(1, 1), self.field), wedge]

    def twist_unit(self, eta: Mor) -> Mor:
        c = self.field.normalize(2)
        if c == self.field.normalize(0):
            c = self.field.normalize(1)
        return self.engine.scale(eta, c)
