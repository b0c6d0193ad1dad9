"""Generic constructions over a computable abelian category engine.

An engine supplies presented objects, morphisms with decidable equality,
kernels, cokernels, lifts, Hom- and Ext1-groups, and seeded random
generators.  Everything here is derived from those primitives and
works uniformly in every engine: images, mono/epi/iso tests, inversion,
homology, short exact sequences, and the Hom and Ext carriers.

All values are immutable.  The engine and the theory keep memos that
fill while one command runs; that command's checks share them and run
one after the other.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import product

from .errors import (
    CompositeNotZero, ContractViolation, EndpointMismatch, InputValidationError,
    NotInvertible, ShapeError,
)
from .linalg import MAX_INPUT_SIZE, Mat, _solve, presentation_enumerate, unflatten


class Memo(dict):
    """A cache that lives as long as its owner, an engine or a theory that
    one command builds.

    memo.get_or(key, compute) returns the value stored under key, None
    included; on a miss it stores compute(key) and returns it, and a
    computation that raises stores nothing.  The computation is passed on
    each call rather than kept, so a memo holds no reference back to its
    owner and reference counting alone frees both.
    """

    __slots__ = ()

    def get_or(self, key, compute):
        try:
            return self[key]
        except KeyError:
            value = self[key] = compute(key)
            return value


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


def entry_to_json(x):
    """A matrix entry as JSON: an integer, or "a/b" for a proper fraction."""
    if type(x) is Fraction:
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return int(x)


def int_from_text(text):
    """The integer that `text` writes as an optional "-" and ASCII digits,
    else None: int() alone also reads "_", "+", surrounding spaces and the
    digits of other scripts."""
    if re.fullmatch("-?[0-9]+", text):
        try:
            return int(text)
        except ValueError:  # over the int-to-str digit limit
            pass
    return None


def entry_from_json(x):
    """A JSON matrix entry (an integer, or a string "a" or "a/b") as an int
    or a Fraction; anything else is an InputValidationError."""
    if isinstance(x, int) and not isinstance(x, bool):
        return x
    if isinstance(x, str):
        num, slash, den = x.partition("/")
        num, den = int_from_text(num), int_from_text(den) if slash else 1
        # den is None where no integer follows the "/", and 0 is no denominator
        if num is not None and den:
            return Fraction(num, den)
    raise InputValidationError(
        f"matrix entries must be integers or 'a/b' with b != 0, got {x!r}")


class AbelianEngine:
    """Mixin with the engine-independent abelian category operations.

    A morphism of every engine is a Mor with one matrix per vertex of the
    engine's quiver.  A concrete engine supplies the hooks dims (the
    vertex dimensions of an object, rejecting one the engine cannot
    take), ring (linalg.ZZ or a field, whose reduce_mat normalises
    entries and whose mul, add, sub and scale are the only matrix
    arithmetic, since a Mat has none), map_keys (the payload key
    of each vertex matrix) and _eliminate (the echelon (H, E, pivots),
    E*A = H, of one matrix over the ring); what differs between
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

    Three Memos live on the engine, which each command builds afresh:
    `_echelons` from an input matrix to its echelon (read by rref, rank,
    kernel, solve and inv), `_solutions` from a system (A, B) to its
    checked solution X or None (read by solve and inv), and `_inverses`
    from a morphism to its checked two-sided inverse or None (read by
    inverse, is_iso and invert).  So a command eliminates each matrix,
    solves each system and inverts each morphism once.

    Each engine also owns its object format: decode_entry (one matrix
    entry to an engine scalar), obj_to_payload / obj_from_payload and
    describe_invariants (the summary a report prints for an object).
    The morphism codec is written here on top of them.  Decoders raise
    InputValidationError.

    Every matrix an engine holds is canonical: the ring's reduce_mat
    returns it as it is.  Entries are reduced where they come in (mor and
    the engine's object constructor reduce the matrices a caller gives,
    decode_entry returns canonical scalars), and the ring's arithmetic on
    canonical operands returns canonical results in the pass that builds
    them.  So kernels, cokernels, lift and colift candidates and decoded
    Hom vectors are built as Mor directly, with no second pass, and
    eq_mor may compare matrices entry by entry.
    """

    def __init__(self):
        # the memos of the class docstring; like the engine, they live for
        # one command
        self._echelons = Memo()
        self._solutions = Memo()
        self._inverses = Memo()

    # -- matrix kernels: one elimination per matrix and engine ----------------

    def rref(self, A: Mat):
        """The echelon of A over the ring, eliminated once per engine and
        equal matrix."""
        return self._echelons.get_or(A, self._eliminate)

    def rank(self, A: Mat) -> int:
        return len(self.rref(A)[2])

    def kernel(self, A: Mat) -> Mat:
        """Basis rows of the left kernel {x : x*A = 0}."""
        _, E, pivots = self.rref(A)
        rank = len(pivots)
        return Mat(A.rows - rank, A.rows, E.data[rank:])

    def solve(self, A: Mat, B: Mat):
        """X with X*A = B, or None if the system is inconsistent; solved
        and checked once per engine and equal system."""
        return self._solutions.get_or((A, B), lambda _: _solve(self.ring, A, B, self.rref))

    def inv(self, A: Mat):
        """Two-sided inverse of a square matrix, or None."""
        if A.rows != A.cols:
            return None
        return self.solve(A, Mat.identity(A.rows))

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
        return Mor(f.src, g.dst, tuple(map(self.ring.mul, f.maps, g.maps)))

    def add(self, f: Mor, g: Mor) -> Mor:
        self._same_endpoints(f, g)
        return Mor(f.src, f.dst, tuple(map(self.ring.add, f.maps, g.maps)))

    def sub(self, f: Mor, g: Mor) -> Mor:
        self._same_endpoints(f, g)
        return Mor(f.src, f.dst, tuple(map(self.ring.sub, f.maps, g.maps)))

    def scale(self, f: Mor, c) -> Mor:
        return Mor(f.src, f.dst, tuple(self.ring.scale(a, c) for a in f.maps))

    def _same_endpoints(self, f, g):
        if f.src != g.src or f.dst != g.dst:
            raise EndpointMismatch("morphisms have different endpoints")

    # -- morphisms as Hom vectors: the vertex matrices flattened in turn ---------

    def _hom_vector(self, f: Mor):
        return tuple(x for a in f.maps for row in a.data for x in row)

    def _mor_from_vector(self, m, n, vec) -> Mor:
        """The morphism m -> n with Hom vector vec, whose entries are
        canonical: a row of a Hom basis or a product of one."""
        maps, at = [], 0
        for r, c in zip(self.dims(m), self.dims(n)):
            maps.append(unflatten(vec[at:at + r * c], r, c))
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
        the one check left.  Computed once per engine and equal morphism."""
        return self._inverses.get_or(f, self._inverse)

    def _inverse(self, f):
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
        iota = self.mor_from_payload(payload["iota"], where + ".iota")
        pi = self.mor_from_payload(payload["pi"], where + ".pi")
        if not (iota.dst == pi.src and self.is_mono(iota) and self.is_epi(pi)
                and self.eq_mor(self.compose(iota, pi), self.zero_morphism(iota.src, pi.dst))
                and self.is_zero_obj(self.homology_at(iota, pi))):
            raise InputValidationError(f"{where}: iota and pi are not a short exact sequence")
        return ShortExactSequence(iota, pi)


class TorsionTheory:
    """A localizing theory: a torsion class C in an engine and the
    reflection onto the C-local objects, the data serre.py computes with.

    A subclass supplies the class attributes kind (its descriptor kind),
    flag (the one descriptor key it reads and that key's command-line
    default), canonical_tag (the label of its own candidate monad) and
    size_bound (the default size of its random samples); the descriptor
    codec from_descriptor and describe; and the methods is_in_c, h_c,
    _reflect (the pair (W(M), eta_M), or a tuple subclass of it that
    carries more, as the integer theories' section of the unit),
    is_saturated, extend_along_unit (the psi with eta_M;psi = phi for a
    phi into a saturated object, ContractViolation when none is found),
    c_cogenerators (the objects of C the saturating suite tests W-images
    against), probe_objects and twist_unit.  Random morphisms come from
    the engine.  The Memo `_reflections`, from an object to what _reflect
    returned for it, lives on the theory, which each command builds
    afresh; saturate returns that stored value.
    """

    def __init__(self, engine):
        self.engine = engine
        self._reflections = Memo()

    def saturate(self, m):
        """(W(M), eta_M), computed once per object."""
        return self._reflections.get_or(m, self._reflect)

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
    """A finitely presented abelian group, held as the object `obj` of an
    integer `engine` (Z^k modulo its relation rows); its invariants,
    summary and whether it is zero are the engine's answers for `obj`.
    The integer engine returns Ext1 as one."""

    def __init__(self, engine, obj):
        self.engine = engine
        self.obj = obj

    def invariants(self):
        return self.engine.invariants(self.obj)

    def is_zero_group(self) -> bool:
        return self.engine.is_zero_obj(self.obj)

    def describe(self):
        return {"kind": "Z", **self.engine.describe_invariants(self.obj)}


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
    """Hom(src, dst) with a fixed basis, held as the matrix `rows` that
    hom_group computes: row i is the Hom vector of basis element i (its
    vertex matrices flattened in turn).

    Elements are coefficient rows over the basis.  decode multiplies a
    coefficient row by `rows` and reads the product as a morphism;
    encode solves for a morphism's Hom vector against `rows`, and it
    respects morphism addition.  `basis` decodes every row, on each read.
    A carrier supplies _solve_coeffs (a row whose first ngens entries are
    the coefficients of the target row in the basis rows, up to the
    carrier's relations, or None), is_bijection (whether the coefficient
    rows of basis images from another carrier of the same engine give a
    bijection onto this one) and enumerate_elements (every coefficient
    row of a small finite carrier, one per element, or None).
    """

    def __init__(self, engine, src, dst, rows: Mat):
        self.engine = engine
        self.src = src
        self.dst = dst
        self.rows = rows

    @property
    def ngens(self):
        return self.rows.rows

    @property
    def basis(self):
        return [self.engine._mor_from_vector(self.src, self.dst, row) for row in self.rows.data]

    def decode(self, coeffs):
        vec = self.engine.ring.mul(Mat.from_rows([coeffs], self.ngens), self.rows)
        return self.engine._mor_from_vector(self.src, self.dst, vec.data[0])

    def encode(self, mor):
        if mor.src != self.src or mor.dst != self.dst:
            raise EndpointMismatch("morphism does not belong to this Hom-group")
        vec = self.engine._hom_vector(mor)
        x = self._solve_coeffs(self.rows, Mat.from_rows([vec], len(vec)))
        if x is None:
            raise ContractViolation("a morphism is not in the span of the Hom basis")
        return tuple(x.data[0][:self.ngens])


class ZHomGroup(HomBasis, ZGroup):
    """Hom(M, N) as a finitely presented abelian group: coefficient rows
    are taken modulo the relations of `obj`.  That presentation is built
    when it is first read (invariants, is_zero_group, describe,
    is_bijection, enumerate_elements); decode and encode do not read it,
    so a random morphism never builds it."""

    @cached_property
    def obj(self):
        # the coefficient rows whose morphism is zero
        eng = self.engine
        if not self.ngens:
            return eng.obj(Mat.zeros(0, 0))
        return eng.obj(eng.kernel_mod_rows(self.rows, eng._hom_modulus(self.src.gens, self.dst)))

    def _solve_coeffs(self, rows, target):
        # the modulus rows span the payloads of the zero morphism
        modulus = self.engine._hom_modulus(self.src.gens, self.dst)
        return self.engine.solve(rows.stack_below(modulus), target)

    def is_bijection(self, src_group, images) -> bool:
        """An isomorphism test between the presented groups."""
        eng = self.engine
        f = eng.mor(src_group.obj, self.obj, Mat.from_rows(images, self.ngens))
        return eng.is_well_defined(f) and eng.is_iso(f)

    def enumerate_elements(self, cap=4096):
        return presentation_enumerate(self.obj.relations, cap)


class FieldHomGroup(HomBasis, VectorSpace):
    """Hom(V, U) as a finite-dimensional vector space over the base field."""

    def __init__(self, engine, src, dst, rows):
        HomBasis.__init__(self, engine, src, dst, rows)
        VectorSpace.__init__(self, engine.field, self.ngens)

    def _solve_coeffs(self, rows, target):
        return self.engine.solve(rows, target)

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
