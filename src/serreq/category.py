"""Generic constructions over a computable abelian category engine.

An engine supplies presented objects, morphisms with decidable equality,
kernels, cokernels, lifts, Hom- and Ext1-groups, and seeded random
generators.  Everything here is derived from those primitives and
works uniformly in every engine: images, mono/epi/iso tests, inversion,
homology, short exact sequences, and the HomGroup carrier machinery.

All values are immutable; no operation mutates shared state, so
independent checks can be evaluated concurrently.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    CompositeNotZero, ContractViolation, EndpointMismatch, InputValidationError,
    NotInvertible, ShapeError,
)
from .linalg import MAX_INPUT_SIZE, Mat, int_solve, presentation_enumerate, unflatten


def rng_for(seed, *tags) -> random.Random:
    """Deterministic RNG derived from a seed and a tag path.

    Seeding from a string keeps the stream independent of PYTHONHASHSEED,
    so every (seed, counter) pair names one reproducible sample.
    """
    return random.Random("serreq|" + "|".join(str(t) for t in (seed, *tags)))


@dataclass(frozen=True, slots=True)
class Mor:
    """A morphism src -> dst of either engine: one matrix per vertex, the
    one at vertex v being dims(src)[v] x dims(dst)[v] and acting on row
    vectors, so composites multiply left to right."""

    src: object
    dst: object
    maps: tuple


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

    A morphism of every engine is a Mor with one matrix per vertex of the
    engine's quiver.  A concrete engine supplies the hooks dims (the
    vertex dimensions of an object, rejecting one the engine cannot
    take), ring (whose reduce_mat normalises entries) and map_keys (the
    payload key of each vertex matrix); what differs between
    engines (eq_mor, is_well_defined, is_zero_obj, kernel_emb,
    cokernel_proj, hom_group, ext1_group, random_object); the solvers
    _lift_candidate and _colift_candidate (a morphism solving the lift or
    colift equations, or None); and _random_entry (one random Hom
    coefficient).  Everything below is inherited: morphism construction
    and arithmetic; the Hom-vector codec of morphisms;
    lift_along_mono and colift_along_epi, which check what the solvers
    return; random_morphism, which decodes random coefficients in
    hom_group; and invertibility, whose one procedure, inverse, colifts
    the identity along f; is_iso and invert are read from it.

    Each engine also owns its object format: decode_entry (one matrix
    entry to an engine scalar), obj_to_payload / obj_from_payload and
    describe_invariants (the summary a report prints for an object).
    The morphism codec is written here on top of them.  Decoders raise
    InputValidationError.
    """

    # -- morphisms -------------------------------------------------------------

    def mor(self, src, dst, *maps) -> Mor:
        """The morphism with the given vertex matrices, shape-checked and
        reduced into the engine's ring."""
        shapes = tuple(zip(self.dims(src), self.dims(dst)))
        if tuple((a.rows, a.cols) for a in maps) != shapes:
            raise ShapeError(f"vertex matrices must have shapes {shapes}")
        return Mor(src, dst, tuple(self.ring.reduce_mat(a) for a in maps))

    def identity(self, m) -> Mor:
        return Mor(m, m, tuple(map(Mat.identity, self.dims(m))))

    def zero_morphism(self, src, dst) -> Mor:
        return Mor(src, dst, tuple(map(Mat.zeros, self.dims(src), self.dims(dst))))

    def compose(self, f: Mor, g: Mor) -> Mor:
        """f followed by g."""
        if f.dst != g.src:
            raise EndpointMismatch("compose needs target(f) == source(g)")
        return Mor(f.src, g.dst, tuple(map(self.ring.reduce_mat, map(Mat.mul, f.maps, g.maps))))

    def add(self, f: Mor, g: Mor) -> Mor:
        self._same_endpoints(f, g)
        return Mor(f.src, f.dst, tuple(map(self.ring.reduce_mat, map(Mat.add, f.maps, g.maps))))

    def sub(self, f: Mor, g: Mor) -> Mor:
        self._same_endpoints(f, g)
        return Mor(f.src, f.dst, tuple(map(self.ring.reduce_mat, map(Mat.sub, f.maps, g.maps))))

    def scale(self, f: Mor, c) -> Mor:
        return Mor(f.src, f.dst, tuple(self.ring.reduce_mat(a.scale(c)) for a in f.maps))

    def _same_endpoints(self, f, g):
        if f.src != g.src or f.dst != g.dst:
            raise EndpointMismatch("morphisms have different endpoints")

    # -- morphisms as Hom vectors: the vertex matrices flattened in turn ---------

    def _hom_vector(self, f: Mor):
        return tuple(x for a in f.maps for row in a.data for x in row)

    def _mor_from_vector(self, m, n, vec) -> Mor:
        maps, at = [], 0
        for r, c in zip(self.dims(m), self.dims(n)):
            maps.append(self.ring.reduce_mat(unflatten(vec[at:at + r * c], r, c)))
            at += r * c
        return Mor(m, n, tuple(maps))

    # -- lifts and colifts -------------------------------------------------------

    def lift_along_mono(self, f, mono):
        """psi with psi;mono = f, or None; unique when mono is monic."""
        if f.dst != mono.dst:
            raise EndpointMismatch("lift needs matching targets")
        cand = self._lift_candidate(f, mono)
        if cand is None or not self.is_well_defined(cand):
            return None
        if not self.eq_mor(self.compose(cand, mono), f):
            raise ContractViolation("a solution of the lift equations does not lift f")
        return cand

    def colift_along_epi(self, f, epi):
        """psi with epi;psi = f, or None; unique when epi is epic."""
        if f.src != epi.src:
            raise EndpointMismatch("colift needs matching sources")
        cand = self._colift_candidate(f, epi)
        if cand is None or not self.is_well_defined(cand):
            return None
        if not self.eq_mor(self.compose(epi, cand), f):
            return None
        return cand

    # -- derived constructions ------------------------------------------------

    def image_emb(self, f):
        """The image subobject of f, embedded in the target."""
        return self.kernel_emb(self.cokernel_proj(f))

    def is_mono(self, f) -> bool:
        return self.is_zero_obj(self.kernel_emb(f).src)

    def is_epi(self, f) -> bool:
        return self.is_zero_obj(self.cokernel_proj(f).dst)

    def inverse(self, f):
        """The two-sided inverse of f, or None when f is not an isomorphism.

        colift_along_epi returns only a g with f;g = id, so g;f = id is
        the one check left."""
        inv = self.colift_along_epi(self.identity(f.src), f)
        if inv is None or not self.eq_mor(self.compose(inv, f), self.identity(f.dst)):
            return None
        return inv

    def is_iso(self, f) -> bool:
        return self.inverse(f) is not None

    def invert(self, f):
        """Two-sided inverse of an isomorphism."""
        inv = self.inverse(f)
        if inv is None:
            raise NotInvertible("morphism is not an isomorphism")
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

    # -- randomness ----------------------------------------------------------------

    def random_morphism(self, rng, m, n):
        hom = self.hom_group(m, n)
        return hom.decode(tuple(self._random_entry(rng) for _ in range(hom.ngens)))

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
        if len(rows) > MAX_INPUT_SIZE or any(len(r) > MAX_INPUT_SIZE for r in rows):
            raise InputValidationError(
                f"matrix payloads have at most {MAX_INPUT_SIZE} rows and columns")
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

    def mor_to_payload(self, f: Mor):
        out = {"src": self.obj_to_payload(f.src), "dst": self.obj_to_payload(f.dst)}
        out.update(zip(self.map_keys, map(self.mat_to_json, f.maps)))
        return out

    def mor_between(self, src, dst, payload, where="morphism") -> Mor:
        if any(key not in payload for key in self.map_keys):
            raise InputValidationError(
                f"{where}: morphisms need " + " and ".join(f"'{k}'" for k in self.map_keys))
        maps = []
        for key, r, c in zip(self.map_keys, self.dims(src), self.dims(dst)):
            mat = self.mat_from_json(payload[key], expected_cols=c)
            if mat.rows != r:
                raise InputValidationError(f"{where}: '{key}' must have {r} rows")
            maps.append(mat)
        f = self.mor(src, dst, *maps)
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


class TorsionTheory:
    """A localizing theory: a torsion class C in an engine and the
    reflection onto the C-local objects, the data serre.py computes with.

    A subclass supplies the class attributes kind (its descriptor kind),
    flag (the one descriptor key it reads and that key's command-line
    default), canonical_tag (the label of its own candidate monad) and
    size_bound (the default size of its random samples); the descriptor
    codec from_descriptor and describe; and the methods is_in_c, h_c,
    _reflect (W(M) and the unit eta_M), is_saturated, extend_along_unit,
    c_cogenerators (the objects of C the saturating suite tests W-images
    against), probe_objects and twist_unit.  Random morphisms come from
    the engine.
    """

    def __init__(self, engine):
        self.engine = engine
        # object -> (W(M), eta_M); it lives as long as the theory, which
        # each command builds afresh
        self._reflections = {}

    def saturate(self, m):
        """(W(M), eta_M), computed once per object; a call that raises
        stores nothing."""
        hit = self._reflections.get(m)
        if hit is None:
            hit = self._reflections[m] = self._reflect(m)
        return hit

    def random_object(self, rng, size_bound=None, **bounds):
        """An engine sample; bounds (max_order) go to the engine."""
        return self.engine.random_object(
            rng, self.size_bound if size_bound is None else size_bound, **bounds)

    def random_ses(self, rng, size_bound=None):
        return self.engine.random_ses(
            rng, self.size_bound if size_bound is None else size_bound)


# ---------------------------------------------------------------------------
# Hom and Ext carriers


class ZGroup:
    """A finitely presented abelian group, held as the integer engine's
    object `obj` (Z^k modulo its relation rows, with its invariants
    computed once).  The integer engine returns Ext1 as one."""

    def __init__(self, obj):
        self.obj = obj

    def invariants(self):
        return ("Z", self.obj.rank, self.obj.divisors)

    def is_zero_group(self) -> bool:
        return self.obj.rank == 0 and not self.obj.divisors

    def describe(self):
        return {"kind": "Z", "rank": self.obj.rank, "divisors": list(self.obj.divisors)}


class VectorSpace:
    """A finite-dimensional vector space over `field`, recorded by its
    dimension.  The quiver engine returns Ext1 as one."""

    def __init__(self, field, dim):
        self.field = field
        self.dim = dim

    def invariants(self):
        return (self.field.name, self.dim)

    def is_zero_group(self) -> bool:
        return self.dim == 0

    def describe(self):
        return {"kind": "field", "field": self.field.name, "dim": self.dim}


class HomBasis:
    """Hom(src, dst) with a fixed basis of morphisms.

    Elements are coefficient rows over the basis; decode and encode
    translate between coefficient rows and morphisms, and encode respects
    morphism addition.  A carrier supplies _solve_coeffs (a row whose
    first ngens entries are the coefficients of the target row in the
    basis rows, up to the carrier's relations, or None), is_bijection
    (whether the coefficient rows of basis images from another carrier of
    the same engine give a bijection onto this one) and
    enumerate_elements (every coefficient row of a small finite carrier,
    one per element, or None).
    """

    def __init__(self, engine, src, dst, basis_mors):
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
        x = self._solve_coeffs(basis_rows, Mat.from_rows([vec], len(vec)))
        if x is None:
            raise ContractViolation("a morphism is not in the span of the Hom basis")
        return tuple(x.data[0][:self.ngens])


class ZHomGroup(HomBasis, ZGroup):
    """Hom(M, N) as a finitely presented abelian group: coefficient rows
    are taken modulo the relations of `obj`."""

    def __init__(self, engine, src, dst, basis_mors, obj):
        HomBasis.__init__(self, engine, src, dst, basis_mors)
        ZGroup.__init__(self, obj)

    def _solve_coeffs(self, basis_rows, target):
        # the modulus rows span the payloads of the zero morphism
        modulus = self.engine._hom_modulus(self.src.gens, self.dst)
        return int_solve(basis_rows.stack_below(modulus), target)

    def is_bijection(self, src_group, images) -> bool:
        """An isomorphism test between the presented groups."""
        eng = self.engine
        f = eng.mor(src_group.obj, self.obj, Mat.from_rows(images, self.ngens))
        return eng.is_well_defined(f) and eng.is_iso(f)

    def enumerate_elements(self, cap=4096):
        return presentation_enumerate(self.obj.relations, cap)


class FieldHomGroup(HomBasis, VectorSpace):
    """Hom(V, U) as a finite-dimensional vector space over the base field."""

    def __init__(self, engine, src, dst, basis_mors):
        HomBasis.__init__(self, engine, src, dst, basis_mors)
        VectorSpace.__init__(self, engine.field, self.ngens)

    def _solve_coeffs(self, basis_rows, target):
        return self.engine.solve(basis_rows, target)

    def is_bijection(self, src_group, images) -> bool:
        """A rank check."""
        if src_group.dim != self.dim:
            return False
        return self.engine.rank(Mat.from_rows(images, self.dim)) == self.dim

    def enumerate_elements(self, cap=4096):
        # p ** dim elements; over Q (p = 0) only the zero space is finite,
        # and 0 ** 0 == 1
        count = self.field.p ** self.dim
        if not 0 < count <= cap:
            return None
        return list(product(range(self.field.p), repeat=self.dim))


def hom_map_is_bijective(src_group, dst_group, images) -> bool:
    """Whether the additive map sending basis i of src_group to images[i]
    (coefficient rows in dst_group) is a bijection of the carriers; both
    carriers come from one engine, and dst_group decides."""
    return dst_group.is_bijection(src_group, images)
