"""Generic constructions over a computable abelian category engine.

An engine supplies presented objects, morphisms with decidable equality,
kernels, cokernels, lifts, direct sums, Hom- and Ext1-groups, and seeded
random generators.  Everything here is derived from those primitives and
works uniformly in every engine: images, mono/epi/iso tests, inversion,
homology, short exact sequences, and the HomGroup carrier machinery.

All values are immutable; no operation mutates shared state, so
independent checks can be evaluated concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from .errors import (
    CompositeNotZero, ContractViolation, EndpointMismatch, InputValidationError,
    NotInvertible,
)
from .linalg import (
    Mat, f_rank, f_solve, int_solve, presentation_enumerate,
    presentation_invariants,
)


def rng_for(seed, *tags) -> random.Random:
    """Deterministic RNG derived from a seed and a tag path.

    Seeding from a string keeps the stream independent of PYTHONHASHSEED,
    so every (seed, counter) pair names one reproducible sample.
    """
    return random.Random("serreq|" + "|".join(str(t) for t in (seed, *tags)))


@dataclass(frozen=True)
class ShortExactSequence:
    """A pair (iota, pi) presenting 0 -> A -> B -> C -> 0."""

    iota: object
    pi: object

    @property
    def sub(self):
        return self.iota.src

    @property
    def mid(self):
        return self.iota.dst

    @property
    def quot(self):
        return self.pi.dst


def entry_to_json(x):
    """A matrix entry as JSON: an integer, or "a/b" for a proper fraction."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return int(x)


def entry_from_json(x):
    """A JSON matrix entry (an integer, or a string "a" or "a/b") as an int
    or a Fraction; anything else is an InputValidationError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        num, _, den = x.partition("/")
        try:
            return Fraction(int(num), int(den or "1"))
        except (ValueError, ZeroDivisionError):
            pass
    raise InputValidationError(
        f"matrix entries must be integers or 'a/b' with b != 0, got {x!r}")


class AbelianEngine:
    """Mixin with the engine-independent abelian category operations.

    Concrete engines implement the primitive methods (compose, identity,
    add, neg, eq_mor, kernel_emb, cokernel_proj, lift_along_mono,
    colift_along_epi, zero test, hom_group, ext1_group, random_object,
    random_morphism) and inherit everything below.

    Each engine also owns its JSON data format: decode_entry (one matrix
    entry to an engine scalar), obj_to_payload / obj_from_payload,
    mor_to_payload (with both endpoints), mor_between (a morphism payload
    between decoded endpoints) and describe_invariants (the summary a
    report prints for an object).  Decoders raise InputValidationError.
    """

    # -- derived constructions ------------------------------------------------

    def image_emb(self, f):
        """The image subobject of f, embedded in the target."""
        return self.kernel_emb(self.cokernel_proj(f))

    def image_factor(self, f):
        """Factor f as (epi onto image, image embedding)."""
        emb = self.image_emb(f)
        epi = self.lift_along_mono(f, emb)
        if epi is None:
            raise ContractViolation("a morphism does not factor through its image")
        return epi, emb

    def is_mono(self, f) -> bool:
        return self.is_zero_obj(self.kernel_emb(f).src)

    def is_epi(self, f) -> bool:
        return self.is_zero_obj(self.cokernel_proj(f).dst)

    def is_iso(self, f) -> bool:
        return self.is_mono(f) and self.is_epi(f)

    def invert(self, f):
        """Two-sided inverse of an isomorphism."""
        if not self.is_iso(f):
            raise NotInvertible("morphism is not an isomorphism")
        inv = self.colift_along_epi(self.identity(f.src), f)
        if inv is None:
            raise NotInvertible("an isomorphism has no colift of the identity")
        if not (self.eq_mor(self.compose(f, inv), self.identity(f.src))
                and self.eq_mor(self.compose(inv, f), self.identity(f.dst))):
            raise NotInvertible("the computed inverse is not two-sided")
        return inv

    def homology_at(self, f, g):
        """ker(g)/im(f) for composable f, g with g after f composing to zero."""
        if f.dst != g.src:
            raise EndpointMismatch("homology needs target(f) == source(g)")
        if not self.eq_mor(self.compose(f, g), self.zero_morphism(f.src, g.dst)):
            raise CompositeNotZero("homology needs the composite to vanish")
        ker = self.kernel_emb(g)
        img = self.image_emb(f)
        inside = self.lift_along_mono(img, ker)
        if inside is None:
            raise ContractViolation("the image does not lie in the kernel")
        return self.cokernel_proj(inside).dst

    # -- short exact sequences -------------------------------------------------

    def random_ses(self, rng, size_bound) -> ShortExactSequence:
        """A short exact sequence built from the image factorization of a
        random morphism, so exactness holds by construction."""
        m = self.random_object(rng, size_bound)
        n = self.random_object(rng, size_bound)
        f = self.random_morphism(rng, m, n)
        iota = self.image_emb(f)
        pi = self.cokernel_proj(iota)
        return ShortExactSequence(iota, pi)

    def is_exact_ses(self, ses: ShortExactSequence) -> bool:
        if ses.iota.dst != ses.pi.src:
            return False
        if not self.eq_mor(self.compose(ses.iota, ses.pi),
                           self.zero_morphism(ses.sub, ses.quot)):
            return False
        if not self.is_mono(ses.iota) or not self.is_epi(ses.pi):
            return False
        return self.is_zero_obj(self.homology_at(ses.iota, ses.pi))

    # -- JSON codecs shared by the engines ----------------------------------------

    def mat_to_json(self, m: Mat):
        return [[entry_to_json(x) for x in row] for row in m.data]

    def mat_from_json(self, rows, expected_cols=None) -> Mat:
        if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
            raise InputValidationError("matrix payload must be a list of rows")
        data = [[self.decode_entry(x) for x in r] for r in rows]
        if not data:
            if expected_cols is None:
                raise InputValidationError("empty matrix needs an explicit column count")
            return Mat.zeros(0, expected_cols)
        cols = len(data[0])
        if any(len(r) != cols for r in data):
            raise InputValidationError("ragged matrix payload")
        if expected_cols is not None and cols != expected_cols:
            raise InputValidationError(f"expected {expected_cols} columns, got {cols}")
        return Mat.from_rows(data, cols)

    def checked_mor(self, f, where):
        """f itself, or an InputValidationError when it is not well defined."""
        if not self.is_well_defined(f):
            raise InputValidationError(f"{where}: payload does not define a morphism")
        return f

    def mor_from_payload(self, payload, where="morphism"):
        """A morphism from a payload that carries both endpoints."""
        if not isinstance(payload, dict) or "src" not in payload or "dst" not in payload:
            raise InputValidationError(f"{where}: morphism payloads need 'src' and 'dst'")
        src = self.obj_from_payload(payload["src"], where + ".src")
        dst = self.obj_from_payload(payload["dst"], where + ".dst")
        return self.mor_between(src, dst, payload, where)

    def ses_to_payload(self, ses: ShortExactSequence):
        return {"iota": self.mor_to_payload(ses.iota), "pi": self.mor_to_payload(ses.pi)}

    def ses_from_payload(self, payload, where="ses") -> ShortExactSequence:
        if not isinstance(payload, dict) or "iota" not in payload or "pi" not in payload:
            raise InputValidationError(f"{where}: sequence payloads need 'iota' and 'pi'")
        return ShortExactSequence(self.mor_from_payload(payload["iota"], where + ".iota"),
                                  self.mor_from_payload(payload["pi"], where + ".pi"))


# ---------------------------------------------------------------------------
# Hom and Ext carriers


class ZGroup:
    """A finitely presented abelian group: Z^k modulo the rows of
    `relations`.  The integer engine returns Ext1 as one."""

    kind = "Z"

    def __init__(self, relations: Mat):
        self.relations = relations

    def invariants(self):
        rank, divisors = presentation_invariants(self.relations)
        return ("Z", rank, divisors)

    def is_zero_group(self) -> bool:
        rank, divisors = presentation_invariants(self.relations)
        return rank == 0 and not divisors

    def describe(self):
        rank, divisors = presentation_invariants(self.relations)
        return {"kind": "Z", "rank": rank, "divisors": list(divisors)}


class ZHomGroup(ZGroup):
    """Hom(M, N) as a finitely presented abelian group.

    Elements are integer coefficient rows over a fixed basis of morphisms,
    taken modulo `relations`; decode/encode translate between coefficient
    rows and actual morphisms, and encode respects morphism addition.
    """

    def __init__(self, engine, src, dst, basis_mors, relations: Mat):
        super().__init__(relations)
        self.engine = engine
        self.src = src
        self.dst = dst
        self.basis = list(basis_mors)

    @property
    def ngens(self):
        return len(self.basis)

    def decode(self, coeffs):
        f = self.engine.zero_morphism(self.src, self.dst)
        for c, b in zip(coeffs, self.basis):
            if c:
                f = self.engine.add(f, self.engine.scale(b, c))
        return f

    def encode(self, mor):
        if mor.src != self.src or mor.dst != self.dst:
            raise EndpointMismatch("morphism does not belong to this Hom-group")
        vec = self.engine._hom_vector(mor)
        basis_rows = Mat.from_rows([self.engine._hom_vector(b) for b in self.basis],
                                   len(vec))
        x = int_solve(basis_rows.stack_below(self.engine._hom_modulus(self.src, self.dst)),
                      Mat.from_rows([vec], len(vec)))
        if x is None:
            raise ContractViolation("a morphism is not in the span of the Hom basis")
        return tuple(x.data[0][:self.ngens])

    def add_elements(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def zero_element(self):
        return tuple(0 for _ in range(self.ngens))

    def element_count(self):
        rank, divisors = presentation_invariants(self.relations)
        return None if rank else prod(divisors)

    def enumerate_elements(self, cap=4096):
        return presentation_enumerate(self.relations, cap)

    def random_element(self, rng):
        return tuple(rng.randint(-6, 6) for _ in range(self.ngens))


class VectorSpace:
    """A finite-dimensional vector space over `field`, recorded by its
    dimension.  The quiver engine returns Ext1 as one."""

    kind = "field"

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim

    def invariants(self):
        return (self.field.name, self.dim)

    def is_zero_group(self) -> bool:
        return self.dim == 0

    def describe(self):
        return {"kind": "field", "field": self.field.name, "dim": self.dim}


class FieldHomGroup(VectorSpace):
    """Hom(V, U) as a finite-dimensional vector space over the base field."""

    def __init__(self, engine, src, dst, basis_mors):
        basis = list(basis_mors)
        super().__init__(engine.field, len(basis))
        self.engine = engine
        self.src = src
        self.dst = dst
        self.basis = basis

    @property
    def ngens(self):
        return len(self.basis)

    def decode(self, coeffs):
        f = self.engine.zero_morphism(self.src, self.dst)
        for c, b in zip(coeffs, self.basis):
            if c != self.field.normalize(0):
                f = self.engine.add(f, self.engine.scale(b, c))
        return f

    def encode(self, mor):
        if mor.src != self.src or mor.dst != self.dst:
            raise EndpointMismatch("morphism does not belong to this Hom-group")
        vec = self.engine._hom_vector(mor)
        if self.ngens == 0:
            if any(x != self.field.normalize(0) for x in vec):
                raise ContractViolation("a nonzero morphism in a zero Hom-space")
            return ()
        basis_rows = Mat.from_rows([self.engine._hom_vector(b) for b in self.basis],
                                   len(vec))
        x = f_solve(self.field, basis_rows, Mat.from_rows([vec], len(vec)))
        if x is None:
            raise ContractViolation("a morphism is not in the span of the Hom basis")
        return tuple(x.data[0])

    def add_elements(self, a, b):
        return tuple(self.field.normalize(x + y) for x, y in zip(a, b))

    def zero_element(self):
        return tuple(self.field.normalize(0) for _ in range(self.ngens))

    def element_count(self):
        if self.field.p == 0:
            return None if self.dim else 1
        return self.field.p ** self.dim

    def enumerate_elements(self, cap=4096):
        count = self.element_count()
        if count is None or count > cap:
            return None
        out = [self.zero_element()]
        elems = list(self.field.elements())
        for i in range(self.dim):
            out = [vec[:i] + (e,) + vec[i + 1:] for vec in out for e in elems]
        return out

    def random_element(self, rng):
        if self.field.p:
            return tuple(rng.randrange(self.field.p) for _ in range(self.ngens))
        return tuple(self.field.normalize(rng.randint(-5, 5)) for _ in range(self.ngens))


def hom_map_is_bijective(src_group, dst_group, images) -> bool:
    """Whether the additive map sending basis i of src_group to images[i]
    (coefficient rows in dst_group) is a bijection of the carriers.

    For Z-carriers this is an isomorphism test between the presented
    groups; for field carriers it is a rank check.
    """
    if src_group.kind != dst_group.kind:
        return False
    if src_group.kind == "field":
        if src_group.dim != dst_group.dim:
            return False
        field = src_group.field
        if src_group.dim == 0:
            return True
        m = Mat.from_rows([list(v) for v in images], dst_group.dim)
        return f_rank(field, m) == src_group.dim
    # Z case: build the induced morphism between carrier presentations and
    # test it with the presented-module machinery of the carrier's engine.
    eng = dst_group.engine
    src_obj = eng.obj(src_group.relations)
    dst_obj = eng.obj(dst_group.relations)
    payload = Mat.from_rows([list(v) for v in images], dst_group.ngens) \
        if src_group.ngens else Mat.zeros(0, dst_group.ngens)
    f = eng.mor(src_obj, dst_obj, payload)
    if not eng.is_well_defined(f):
        return False
    return eng.is_iso(f)
