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
from functools import cached_property
from math import gcd, prod

from .category import (
    MAX_INPUT_SIZE, AbelianEngine, Mor, TorsionTheory, ZGroup, ZHomGroup, entry_from_json,
)
from .errors import (
    ContractViolation, EngineMismatch, InputValidationError, NotSaturatedError,
    OracleUnsupported,
)
from .linalg import (
    ZZ, Mat, int_kernel, int_solve, is_prime, kernel_mod_rows, kron,
    presentation_normal_form, row_basis, solve_mod_rows,
)


@dataclass(frozen=True)
class ZObj:
    """Z^gens modulo the rows of `relations` (relations x gens)."""

    relations: Mat

    @property
    def gens(self) -> int:
        return self.relations.cols

    @cached_property
    def normal_form_data(self):
        """presentation_normal_form(relations), computed on first use:
        every invariant of the object is read from this one Smith form.
        The cache lives outside the dataclass fields, so equality and
        hashing still compare relations only."""
        return presentation_normal_form(self.relations)

    @classmethod
    def in_normal_form(cls, divisors, free_rank=0) -> "ZObj":
        """Diagonal relations `divisors` (each > 1 and dividing the next)
        followed by free_rank free generators.  Such an object is its own
        normal form with identity transforms, so that is recorded with it
        instead of being computed again."""
        k = len(divisors) + free_rank
        m = cls(diag_rows(divisors, k))
        m.__dict__["normal_form_data"] = (tuple(divisors), free_rank,
                                          Mat.identity(k), Mat.identity(k))
        return m

    @property
    def divisors(self) -> tuple:
        return self.normal_form_data[0]

    @property
    def rank(self) -> int:
        return self.normal_form_data[1]

    def __repr__(self):
        rank = self.rank
        tors = " x ".join(f"Z/{d}" for d in self.divisors) or ("0" if rank == 0 else "")
        free = f"Z^{rank}" if rank else ""
        return f"ZObj({' x '.join(x for x in (free, tors) if x) or '0'})"


def diag_rows(divisors, cols=None):
    divisors = list(divisors)
    cols = len(divisors) if cols is None else cols
    return Mat(len(divisors), cols,
               tuple(tuple(d if i == j else 0 for j in range(cols))
                     for i, d in enumerate(divisors)))


class ZModuleEngine(AbelianEngine):
    """The abelian category of finitely presented Z-modules."""

    name = "fpmod_z"
    ring = ZZ
    # a morphism is one generator-image matrix (gens(src) x gens(dst))
    map_keys = ("matrix",)

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

    def dims(self, m: ZObj):
        return (m.gens,)

    # -- decidable structure ------------------------------------------------------

    def is_well_defined(self, f: Mor) -> bool:
        """Whether the payload maps source relations into target relations."""
        mapped = f.src.relations.mul(f.maps[0])
        return int_solve(f.dst.relations, mapped) is not None

    def eq_mor(self, f: Mor, g: Mor) -> bool:
        self._same_endpoints(f, g)
        return int_solve(f.dst.relations, f.maps[0].sub(g.maps[0])) is not None

    def is_zero_obj(self, m: ZObj) -> bool:
        return m.rank == 0 and not m.divisors

    def invariants(self, m: ZObj):
        return ("Z", m.rank, m.divisors)

    def order(self, m: ZObj):
        return None if m.rank else prod(m.divisors)

    # -- kernels, cokernels, lifts ---------------------------------------------

    def kernel_emb(self, f: Mor) -> Mor:
        lat = kernel_mod_rows(f.maps[0], f.dst.relations)
        rel = kernel_mod_rows(lat, f.src.relations)
        return Mor(ZObj(rel), f.src, (lat,))

    def cokernel_proj(self, f: Mor) -> Mor:
        coker = ZObj(f.dst.relations.stack_below(f.maps[0]))
        return Mor(f.dst, coker, (Mat.identity(f.dst.gens),))

    def _lift_candidate(self, f: Mor, mono: Mor):
        sol = solve_mod_rows(mono.maps[0], mono.dst.relations, f.maps[0])
        return None if sol is None else Mor(f.src, mono.src, (sol,))

    def _colift_candidate(self, f: Mor, epi: Mor):
        section = solve_mod_rows(epi.maps[0], epi.dst.relations, Mat.identity(epi.dst.gens))
        return None if section is None else Mor(epi.dst, f.dst, (section.mul(f.maps[0]),))

    # -- Hom and Ext --------------------------------------------------------------

    def _hom_modulus(self, g: int, dst: ZObj) -> Mat:
        """Rows spanning the payloads of g generator images that represent
        the zero morphism into dst: a relation of dst in one image."""
        return kron(Mat.identity(g), dst.relations)

    def hom_group(self, m: ZObj, n: ZObj) -> ZHomGroup:
        # vec(F, Y) -> vec(R_M*F - Y*R_N): F is a morphism when some witness Y zeroes it
        g, h = m.gens, n.gens
        cmat = kron(m.relations.transpose(), Mat.identity(h)).stack_below(
            kron(Mat.identity(m.relations.rows).scale(-1), n.relations))
        sols = int_kernel(cmat).take_cols(range(g * h))
        lat = row_basis(sols)
        modulus = self._hom_modulus(g, n)
        rel = kernel_mod_rows(lat, modulus) if lat.rows else Mat.zeros(0, 0)
        basis = [self._mor_from_vector(m, n, row) for row in lat.data]
        return ZHomGroup(self, m, n, basis, ZObj(rel))

    def ext1_group(self, m: ZObj, n: ZObj) -> ZGroup:
        """Ext1(M, N) from the length-one free resolution of M.

        With B a basis of the relation lattice of M, the resolution is
        0 -> Z^q -B-> Z^g -> M -> 0 and Ext1 is the cokernel of
        Hom(Z^g, N) -> Hom(Z^q, N).
        """
        b = row_basis(m.relations)
        # the images B*F in Hom(Z^q, N) of the payloads F of maps Z^g -> N
        images = kron(b.transpose(), Mat.identity(n.gens))
        return ZGroup(ZObj(self._hom_modulus(b.rows, n).stack_below(images)))

    # -- normal forms ---------------------------------------------------------------

    def normal_form(self, m: ZObj):
        """(nf, to_nf, from_nf): nf has diagonal relations in divisor-chain
        order with unit factors dropped; to_nf and from_nf are mutually
        inverse isomorphisms."""
        divisors, free_rank, to_nf, from_nf = m.normal_form_data
        nf = ZObj.in_normal_form(divisors, free_rank)
        return nf, Mor(m, nf, (to_nf,)), Mor(nf, m, (from_nf,))

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

    def _random_divisors(self, rng, size_bound, max_order):
        """Up to size_bound random divisors with product at most max_order
        (when given)."""
        while True:
            k = rng.randrange(0, max(1, size_bound) + 1)
            divisors = [rng.randint(1, 12) for _ in range(k)]
            if max_order is None or prod(divisors) <= max_order:
                return divisors

    def random_object(self, rng, size_bound, max_order=None) -> ZObj:
        """A scrambled presentation of free rank 0 or 1 whose torsion part
        has order at most max_order (when given)."""
        divisors = self._random_divisors(rng, size_bound, max_order)
        return self._scrambled_from_divisors(rng, divisors, rng.randrange(0, 2))

    def _random_entry(self, rng) -> int:
        return rng.randint(-4, 4)

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
                                 or not 0 <= gens <= MAX_INPUT_SIZE):
            raise InputValidationError(
                f"{where}: 'gens' must be an integer from 0 to {MAX_INPUT_SIZE}")
        return self.obj(self.mat_from_json(payload["relations"], expected_cols=gens))

    def describe_invariants(self, m: ZObj):
        _, rank, divisors = self.invariants(m)
        return {"rank": rank, "divisors": list(divisors)}


class FiniteAbelianEngine(ZModuleEngine):
    """Finitely presented Z-modules of finite order (rank zero)."""

    name = "finite_abelian"

    def invariants(self, m: ZObj):
        if m.rank:
            raise EngineMismatch("the finite-abelian engine only handles finite objects")
        return super().invariants(m)

    def random_object(self, rng, size_bound, max_order=None) -> ZObj:
        """As in the general engine, with free rank 0 and no draw for it."""
        return self._scrambled_from_divisors(
            rng, self._random_divisors(rng, size_bound, max_order))

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


class ZTorsionTheory(TorsionTheory):
    """C = finite p-groups inside a Z-module engine; p = 0 selects the full
    torsion class.

    Subclasses supply only data: kind, canonical_tag, size_bound,
    engine_class, zero_p_allowed, probe_objects and, where subobjects can
    be enumerated, subobject_embeddings.  The engine decides what an
    object may be: the finite-abelian engine's invariants raise
    EngineMismatch on an infinite object.
    """

    flag = ("p", 2)
    zero_p_allowed = False

    def __init__(self, p: int):
        if not (p == 0 and self.zero_p_allowed or is_prime(p)):
            zero = " or 0 for the full torsion class" if self.zero_p_allowed else ""
            raise InputValidationError(f"p must be a prime{zero}, got {p}")
        self.p = p
        super().__init__(self.engine_class())

    @classmethod
    def from_descriptor(cls, desc: dict):
        p = desc.get("p")
        if not isinstance(p, int) or isinstance(p, bool):
            zero = " (0 = torsion)" if cls.zero_p_allowed else ""
            raise InputValidationError(f"{cls.kind} engine needs an integer 'p'{zero}")
        return cls(p)

    def describe(self):
        return {"kind": self.kind, "p": self.p}

    def is_in_c(self, m: ZObj) -> bool:
        _, rank, divisors = self.engine.invariants(m)
        return rank == 0 and (self.p == 0
                              or all(_p_free_part(d, self.p) == 1 for d in divisors))

    def h_c(self, m: ZObj) -> Mor:
        """Embedding of the p-primary part of the torsion of M (the whole
        torsion part when p = 0), the maximal subobject in C."""
        divisors = self.engine.invariants(m)[2]
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
        # the p-parts of a divisor chain form a divisor chain
        sub = ZObj.in_normal_form(orders)
        emb_nf = Mor(sub, nf, (Mat(len(orders), nf.gens, tuple(gen_rows)),))
        return self.engine.compose(emb_nf, from_nf)

    def _reflect(self, m: ZObj):
        """M / H_C(M) in normal form with the projection as unit; ker eta =
        H_C(M) and coker eta = 0.  For the fixture this is the naive
        candidate, whose image is not saturated in general."""
        proj = self.engine.cokernel_proj(self.h_c(m))
        nf, to_nf, _ = self.engine.normal_form(proj.dst)
        return nf, self.engine.compose(proj, to_nf)

    def is_saturated(self, m: ZObj) -> bool:
        # gcd(order, 0) = order, so for p = 0 only the zero object is saturated
        _, rank, divisors = self.engine.invariants(m)
        return rank == 0 and gcd(prod(divisors), self.p) == 1

    def extend_along_unit(self, phi: Mor) -> Mor:
        """The unique psi with psi after eta_{src(phi)} equal to phi."""
        if not self.is_saturated(phi.dst):
            raise NotSaturatedError("extension target must be saturated")
        _, eta = self.saturate(phi.src)
        psi = self.engine.colift_along_epi(phi, eta)
        if psi is None:
            raise ContractViolation("a map to a saturated object must extend along the unit")
        return psi

    def c_cogenerators(self):
        """Z/p, Z/p^2 and Z/p^3; Z/2, Z/3 and Z/4 for the full torsion class."""
        if self.p == 0:
            return [self.engine.cyclic(n) for n in range(2, 5)]
        return [self.engine.cyclic(self.p ** k) for k in range(1, 4)]

    def twist_unit(self, eta: Mor) -> Mor:
        # multiplication by p is a natural automorphism of prime-to-p groups
        return self.engine.scale(eta, self.p or 2)


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
    # which wraps methods class by class, traces the theories apart
    saturate = TorsionTheory.saturate

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
    saturate = TorsionTheory.saturate

    def probe_objects(self):
        e = self.engine
        p = self.p if self.p else 2
        q = 3 if p != 3 else 2
        free = e.free(1)
        mixed = e.obj_from_divisors([p], free_rank=1)
        return [e.zero_object(), free, e.cyclic(p), e.cyclic(q), mixed]


# ---------------------------------------------------------------------------
# exhaustive subobject enumeration (finite objects only)


# The most subgroups the oracle enumerates.  The 25 pairs of the
# qhom-oracle benchmark have 497 between them, while (Z/2)^8 passes the
# order cap of 256 elements with 417,199.
SUBGROUP_CAP = 4096


def _subgroup_masks(divisors):
    """{mask: generators} for every subgroup of Z/d_1 x ... x Z/d_k.

    Element i is the digit tuple of i in mixed radix (last digit fastest)
    and a subgroup is the bit mask of its elements.  Translating by x in
    coordinate j rotates each block of d_j * stride_j bits, so a
    translation costs at most k shifts of one integer.  Starting from 0,
    each subgroup S is joined with one element x of every coset outside
    it: S + <x> is the union of the translates S + jx, and the cosets
    S + jx with j prime to the order of x modulo S give the same join, so
    they are not tried again.  The generators of a mask are those along
    the path that first reached it.  Only bit arithmetic runs here, so the
    enumeration is exhaustive and independent of the HNF and Smith code.
    """
    n = prod(divisors)
    full = (1 << n) - 1
    strides = [prod(divisors[j + 1:]) for j in range(len(divisors))]
    # rotations[j][x]: (bits whose j-th digit is below d - x, the rest, and
    # their left and right shifts) for translating by x in coordinate j
    rotations = []
    for d, st in zip(divisors, strides):
        repeat = sum(1 << b for b in range(0, n, d * st))
        table = [None]
        for x in range(1, d):
            lo = ((1 << (d - x) * st) - 1) * repeat
            table.append((lo, full ^ lo, x * st, (d - x) * st))
        rotations.append(table)

    def digits(i):
        return tuple(i // st % d for d, st in zip(divisors, strides))

    def translate(mask, steps):
        for lo, hi, up, down in steps:
            mask = ((mask & lo) << up) | ((mask & hi) >> down)
        return mask

    known = {1: ()}
    queue = [1]
    while queue:
        s = queue.pop()
        outside = full ^ s
        while outside:
            x = digits((outside & -outside).bit_length() - 1)
            steps = [table[t] for table, t in zip(rotations, x) if t]
            cosets = [translate(s, steps)]
            while cosets[-1] != s:
                cosets.append(translate(cosets[-1], steps))
            # S + jx generates the same join as S + x when j is prime to its order
            join = s
            for j, coset in enumerate(cosets, 1):
                join |= coset
                if gcd(j, len(cosets)) == 1:
                    outside ^= coset
            if join not in known:
                known[join] = known[s] + (x,)
                if len(known) > SUBGROUP_CAP:
                    raise OracleUnsupported("too many subgroups for exhaustive enumeration")
                queue.append(join)
    return known


def finite_subobject_embeddings(engine: ZModuleEngine, m: ZObj, element_cap=256):
    """One embedding per subgroup of the finite object M, in the order of
    the subgroups' element masks (see _subgroup_masks).

    Each subgroup is presented by its generators stacked on the relations
    of the normal form; the Hermite basis of that full-rank lattice is
    unique, so it does not depend on which generators were recorded.
    """
    order = engine.order(m)
    if order is None or order > element_cap:
        raise OracleUnsupported("object too large for exhaustive subobject enumeration")
    nf, _, from_nf = engine.normal_form(m)
    masks = _subgroup_masks(list(m.divisors))
    out = []
    for mask in sorted(masks):
        rows = Mat.from_rows(masks[mask], nf.gens)
        lattice = row_basis(rows.stack_below(nf.relations))
        rel = kernel_mod_rows(lattice, nf.relations)
        sub = ZObj(rel)
        emb = engine.compose(Mor(sub, nf, (lattice,)), from_nf)
        if engine.order(sub) != mask.bit_count():
            raise ContractViolation("a subgroup presentation has the wrong order")
        out.append(emb)
    return out
