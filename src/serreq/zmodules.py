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
    MAX_INPUT_SIZE, AbelianEngine, HomBasis, Memo, Mor, TorsionTheory, entry_from_json,
)
from .errors import (
    ContractViolation, EngineMismatch, InputValidationError, NotSaturatedError,
    OracleUnsupported,
)
from .linalg import (
    ZZ, Mat, diagonal_normal_form, is_prime, kron, presentation_normal_form, row_echelon,
)


@dataclass(frozen=True)
class ZObj:
    """Z^gens modulo the rows of `relations` (relations x gens).

    Two facts about it are computed on first use and kept outside the
    fields: normal_form_data and moduli, the generators' moduli when the
    relations are diagonal.
    """

    relations: Mat

    @property
    def gens(self) -> int:
        return self.relations.cols

    @cached_property
    def normal_form_data(self):
        """presentation_normal_form(relations), computed on first use.
        Diagonal relations with their nonzero moduli first take no
        elimination (Smith's first Hermite pass would be diagonal with
        V = I): a divisor chain of moduli > 1 is its own normal form, and
        other moduli are put in one by diagonal_normal_form.  Any other
        relations take one Smith form, which gives V and V^-1 together
        and no other elimination, unless the object was sampled, which
        records its normal form.  The cache lives outside the dataclass
        fields, so equality and hashing still compare relations only; an
        engine keeps one object per relation matrix, so a command computes
        it at most once."""
        moduli = self.moduli
        if moduli is not None:
            d = [x for x in moduli if x]
            if not any(moduli[len(d):]):
                g = self.gens
                if all(x > 1 for x in d) and all(b % a == 0 for a, b in zip(d, d[1:])):
                    return tuple(d), g - len(d), Mat.identity(g), Mat.identity(g)
                return diagonal_normal_form(moduli, Mat.identity(g).data, Mat.identity(g).data)
        return presentation_normal_form(self.relations)

    @cached_property
    def moduli(self):
        """The modulus of each generator when the relations are diagonal:
        |d_j| for the relation d_j*e_j, 0 for a generator with no relation
        row.  A row then lies in the relation lattice exactly when each of
        its entries is a multiple of its generator's modulus.  None when an
        entry off the diagonal is nonzero.  Kept like normal_form_data."""
        data = self.relations.data
        if any(x for i, row in enumerate(data) for j, x in enumerate(row) if i != j):
            return None
        return tuple(abs(data[j][j]) if j < len(data) else 0 for j in range(self.gens))

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
    """The abelian category of finitely presented Z-modules.

    Its lattice operations (row_basis, kernel_mod_rows, solve_mod_rows)
    are built on the engine's memoized rref, kernel and solve.  The Memo
    `_objects` keeps one object per relation matrix, so that a command
    computes each normal form once.  The order, and with it every yes/no
    question about it (is_zero_obj, membership in C, saturation), is read
    from a known normal form or diagonal relations, and otherwise from the
    memoized Hermite basis of the relations.  So a Smith form runs only
    where the divisors or normal-form transforms of a presentation that is
    neither diagonal nor sampled are read.  Equality of morphisms and
    well-definedness ask whether rows lie in a target's relation lattice
    (in_relation_lattice); for a diagonal target, such as every W(M),
    that is a divisibility test with no elimination.
    """

    name = "fpmod_z"
    ring = ZZ
    # a morphism is one generator-image matrix (gens(src) x gens(dst))
    map_keys = ("matrix",)

    def __init__(self):
        super().__init__()
        self._objects = Memo()

    # -- constructors ----------------------------------------------------------

    def obj(self, relations: Mat) -> ZObj:
        return self._objects.get_or(relations, ZObj)

    def obj_from_divisors(self, divisors, free_rank=0) -> ZObj:
        return self.obj(diag_rows(divisors, len(divisors) + free_rank))

    def zero_object(self) -> ZObj:
        return self.obj(Mat.zeros(0, 0))

    def free(self, n) -> ZObj:
        return self.obj(Mat.zeros(0, n))

    def cyclic(self, n) -> ZObj:
        return self.obj(Mat.from_rows([[n]], 1))

    def dims(self, m: ZObj):
        return (m.gens,)

    def _eliminate(self, A: Mat):
        return row_echelon(A)

    # -- lattices: row spans in Z^n ---------------------------------------------

    def row_basis(self, A: Mat) -> Mat:
        """A canonical basis of the row lattice of A (its Hermite form rows)."""
        H, _, pivots = self.rref(A)
        return Mat(len(pivots), A.cols, H.data[:len(pivots)])

    def kernel_mod_rows(self, A: Mat, R: Mat) -> Mat:
        """Basis for the lattice {x : x*A lies in the row span of R}."""
        K = self.kernel(A.stack_below(R))
        return self.row_basis(K.take_cols(range(A.rows)))

    def solve_mod_rows(self, A: Mat, R: Mat, B: Mat):
        """X with X*A congruent to B modulo the row span of R, or None."""
        sol = self.solve(A.stack_below(R), B)
        return None if sol is None else sol.take_cols(range(A.rows))

    # -- decidable structure ------------------------------------------------------

    def in_relation_lattice(self, n: ZObj, B: Mat) -> bool:
        """Whether every row of B lies in the relation lattice of N: entry
        by entry divisibility by N's moduli when its relations are
        diagonal, and otherwise whether B solves against them."""
        moduli = n.moduli
        if moduli is None or B.cols != n.gens:
            # solve also raises the ShapeError of a B of the wrong width
            return self.solve(n.relations, B) is not None
        return not any(x % d if d else x for row in B.data for x, d in zip(row, moduli))

    def is_well_defined(self, f: Mor) -> bool:
        """Whether the payload maps source relations into target relations."""
        return self.in_relation_lattice(f.dst, ZZ.mul(f.src.relations, f.maps[0]))

    def eq_mor(self, f: Mor, g: Mor) -> bool:
        self._same_endpoints(f, g)
        return self.in_relation_lattice(f.dst, ZZ.sub(f.maps[0], g.maps[0]))

    def is_zero_obj(self, m: ZObj) -> bool:
        return self.order(m) == 1

    def invariants(self, m: ZObj):
        return ("Z", m.rank, m.divisors)

    def order(self, m: ZObj):
        """|M|, or None when M is infinite.  It is the product of the
        moduli of the normal form when the object already carries one, or
        of its relations when they are diagonal, and otherwise it is read
        from the Hermite basis of the relations: M is finite exactly when
        every generator column has a pivot, and then |M| is the index of
        the relation lattice, the product of the pivots (Cohen, GTM 138,
        2.4.3)."""
        known = m.__dict__.get("normal_form_data")
        moduli = m.moduli if known is None else known[0] + (0,) * known[1]
        if moduli is not None:
            return prod(moduli) if all(moduli) else None
        H, _, pivots = self.rref(m.relations)
        if len(pivots) < m.gens:
            return None
        return prod(H.data[r][c] for r, c in pivots)

    # -- kernels, cokernels, lifts ---------------------------------------------

    def kernel_emb(self, f: Mor) -> Mor:
        lat = self.kernel_mod_rows(f.maps[0], f.dst.relations)
        rel = self.kernel_mod_rows(lat, f.src.relations)
        return Mor(self.obj(rel), f.src, (lat,))

    def cokernel_proj(self, f: Mor) -> Mor:
        coker = self.obj(f.dst.relations.stack_below(f.maps[0]))
        return Mor(f.dst, coker, (Mat.identity(f.dst.gens),))

    def _lift_candidate(self, f: Mor, mono: Mor):
        sol = self.solve_mod_rows(mono.maps[0], mono.dst.relations, f.maps[0])
        return None if sol is None else Mor(f.src, mono.src, (sol,))

    def _colift_candidate(self, f: Mor, epi: Mor):
        section = self.solve_mod_rows(epi.maps[0], epi.dst.relations,
                                      Mat.identity(epi.dst.gens))
        return None if section is None else Mor(epi.dst, f.dst, (ZZ.mul(section, f.maps[0]),))

    # -- Hom and Ext --------------------------------------------------------------

    def _hom_modulus(self, g: int, dst: ZObj) -> Mat:
        """Rows spanning the payloads of g generator images that represent
        the zero morphism into dst: a relation of dst in one image."""
        return kron(Mat.identity(g), dst.relations)

    def hom_group(self, m: ZObj, n: ZObj) -> ZHomGroup:
        # vec(F, Y) -> vec(R_M*F - Y*R_N): F is a morphism when some witness Y zeroes it
        g, h = m.gens, n.gens
        cmat = kron(m.relations.transpose(), Mat.identity(h)).stack_below(
            kron(ZZ.scale(Mat.identity(m.relations.rows), -1), n.relations))
        sols = self.kernel(cmat).take_cols(range(g * h))
        return ZHomGroup(self, m, n, self.row_basis(sols))

    def ext1_group(self, m: ZObj, n: ZObj) -> ZGroup:
        """Ext1(M, N) from the length-one free resolution of M.

        With B a basis of the relation lattice of M, the resolution is
        0 -> Z^q -B-> Z^g -> M -> 0 and Ext1 is the cokernel of
        Hom(Z^g, N) -> Hom(Z^q, N).
        """
        b = self.row_basis(m.relations)
        # the images B*F in Hom(Z^q, N) of the payloads F of maps Z^g -> N
        images = kron(b.transpose(), Mat.identity(n.gens))
        return ZGroup(self, self.obj(self._hom_modulus(b.rows, n).stack_below(images)))

    # -- normal forms ---------------------------------------------------------------

    def normal_form(self, m: ZObj):
        """(nf, to_nf, from_nf): nf has diagonal relations in divisor-chain
        order with unit factors dropped; to_nf and from_nf are mutually
        inverse isomorphisms."""
        divisors, free_rank, to_nf, from_nf = m.normal_form_data
        nf = self.obj_from_divisors(divisors, free_rank)
        return nf, Mor(m, nf, (to_nf,)), Mor(nf, m, (from_nf,))

    # -- randomness -------------------------------------------------------------------

    def _random_unimodular(self, rng, n):
        """(V, V^-1) for a random product V of 2n elementary row
        operations: each row operation on V is undone by the inverse
        column operation on V^-1, kept here as the rows of its transpose."""
        u = Mat.identity(n).to_lists()
        wt = Mat.identity(n).to_lists()
        for _ in range(2 * n):
            op = rng.randrange(3)
            if n < 2:
                break
            i, j = rng.sample(range(n), 2)
            if op == 0:
                c = rng.choice([-2, -1, 1, 2])
                u[i] = [a + c * b for a, b in zip(u[i], u[j])]
                wt[j] = [a - c * b for a, b in zip(wt[j], wt[i])]
            elif op == 1:
                u[i], u[j] = u[j], u[i]
                wt[i], wt[j] = wt[j], wt[i]
            else:
                u[i] = [-x for x in u[i]]
                wt[i] = [-x for x in wt[i]]
        return Mat(n, n, tuple(tuple(r) for r in u)), Mat(n, n, tuple(zip(*wt)))

    def _scrambled_from_divisors(self, rng, divisors, free_rank=0) -> ZObj:
        """diag(divisors) and free_rank free generators in the coordinates
        of a random unimodular V, sometimes with one more relation drawn
        from the others, which keeps the lattice.  The object records its
        normal form, so no Smith form runs for it: x -> x*V^-1 carries the
        relations onto the diagonal ones, and diagonal_normal_form reads
        the normal form off that transform.  An object the engine already
        holds keeps the normal form it has, and none is computed."""
        g = len(divisors) + free_rank
        v, v_inv = self._random_unimodular(rng, g)
        rel = Mat(len(divisors), g, tuple(tuple(d * x for x in row)
                                          for d, row in zip(divisors, v.data)))
        if rel.rows and rng.randrange(2):
            coeffs = Mat.from_rows([[rng.randint(-1, 1) for _ in range(rel.rows)]])
            rel = rel.stack_below(ZZ.mul(coeffs, rel))
        m = self.obj(rel)
        if "normal_form_data" not in m.__dict__:
            m.__dict__["normal_form_data"] = diagonal_normal_form(
                list(divisors) + [0] * free_rank, v_inv.transpose().data, v.data)
        return m

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
        if type(q) is Fraction:
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


_INFINITE = "the finite-abelian engine only handles finite objects"


class FiniteAbelianEngine(ZModuleEngine):
    """Finitely presented Z-modules of finite order (rank zero); the
    invariants or the order of an infinite object are an EngineMismatch."""

    name = "finite_abelian"

    def invariants(self, m: ZObj):
        if m.rank:
            raise EngineMismatch(_INFINITE)
        return super().invariants(m)

    def order(self, m: ZObj) -> int:
        order = super().order(m)
        if order is None:
            raise EngineMismatch(_INFINITE)
        return order

    def random_object(self, rng, size_bound, max_order=None) -> ZObj:
        """As in the general engine, with free rank 0 and no draw for it."""
        return self._scrambled_from_divisors(
            rng, self._random_divisors(rng, size_bound, max_order))

    def obj_from_payload(self, payload, where="object") -> ZObj:
        obj = super().obj_from_payload(payload, where)
        # every loaded object needs its normal form later, so the finiteness
        # test reads it rather than eliminating the relations once more
        if obj.rank:
            raise InputValidationError(f"{where}: object is not finite")
        return obj


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


class ZHomGroup(HomBasis, ZGroup):
    """Hom(M, N) as a finitely presented abelian group: coefficient rows
    are taken modulo the relations of `obj`.  That presentation is built
    when it is first read (invariants, is_zero_group, describe,
    is_bijection); decode and encode do not read it, so a random
    morphism never builds it."""

    @cached_property
    def obj(self):
        # the coefficient rows whose morphism is zero
        eng = self.engine
        if not self.ngens:
            return eng.obj(Mat.zeros(0, 0))
        return eng.obj(eng.kernel_mod_rows(self.rows, eng._hom_modulus(self.src.gens, self.dst)))

    def _solve_coeffs(self, target):
        # the modulus rows span the payloads of the zero morphism
        eng = self.engine
        return eng.solve_mod_rows(self.rows, eng._hom_modulus(self.src.gens, self.dst), target)

    def is_bijection(self, src_group, images) -> bool:
        """An isomorphism test between the presented groups."""
        eng = self.engine
        f = eng.mor(src_group.obj, self.obj, Mat.from_rows(images, self.ngens))
        return eng.is_well_defined(f) and eng.is_iso(f)


# ---------------------------------------------------------------------------
# torsion theories


class Reflection(tuple):
    """The pair (W(M), eta_M), which unpacks and indexes as a tuple, with
    `section`: a generator-image matrix S from W(M) to M such that S
    followed by eta_M is the identity morphism of W(M).  S need not respect the
    relations of M, but every psi with eta_M;psi = phi equals
    S;eta_M;psi = S;phi, so an extension along the unit is one product.
    All three are read off the normal form of M (ZTorsionTheory._reflect)."""

    def __new__(cls, w, eta, section: Mat):
        self = super().__new__(cls, (w, eta))
        self.section = section
        return self


def _p_free_part(d: int, p: int) -> int:
    while d % p == 0:
        d //= p
    return d


class ZTorsionTheory(TorsionTheory):
    """C = finite p-groups inside a Z-module engine; p = 0 selects the full
    torsion class.

    Subclasses supply only data: kind, canonical_tag, size_bound,
    engine_class, zero_p_allowed, probe_objects and, where subobjects can
    be enumerated, terminal_stage, the direct-limit oracle's hook.  The
    engine decides what an object may be: the finite-abelian engine's
    invariants and order raise EngineMismatch on an infinite object.
    Membership in C and saturation depend on the order alone, and
    order_in_c is the one definition of C that is_in_c and terminal_stage
    share.
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

    def order_in_c(self, order: int) -> bool:
        """Whether a finite group of this order lies in C: every order for
        the full torsion class, a power of p otherwise."""
        return self.p == 0 or _p_free_part(order, self.p) == 1

    def is_in_c(self, m: ZObj) -> bool:
        order = self.engine.order(m)
        return order is not None and self.order_in_c(order)

    def _cofactors(self, divisors) -> list:
        """The prime-to-p part of each divisor of M's normal form (1 for
        the full torsion class): in normal-form coordinates H_C(M) is
        spanned by the cofactors[i] * e_i."""
        return [_p_free_part(d, self.p) if self.p else 1 for d in divisors]

    def h_c(self, m: ZObj) -> Mor:
        """Embedding of the p-primary part of the torsion of M (the whole
        torsion part when p = 0), the maximal subobject in C.  Its
        generators are the elements cofactors[i] * e_i of order > 1, so
        generator i goes to cofactors[i] times row i of from_nf."""
        divisors = self.engine.invariants(m)[2]
        from_nf = m.normal_form_data[3]
        cofactors = self._cofactors(divisors)
        gens = [i for i, (d, c) in enumerate(zip(divisors, cofactors)) if c != d]
        rows = tuple(tuple(cofactors[i] * x for x in from_nf.data[i]) for i in gens)
        # the p-parts of a divisor chain form a divisor chain
        sub = self.engine.obj_from_divisors([divisors[i] // cofactors[i] for i in gens])
        return Mor(sub, m, (Mat(len(rows), from_nf.cols, rows),))

    def _reflect(self, m: ZObj):
        """W(M) = M / H_C(M), its unit and a section, read off the normal
        form of M with no elimination of its own.  In normal-form
        coordinates M is the sum of the Z/d_i and Z^r, so W(M) is the sum
        of the Z/cofactors[i] > 1 and Z^r, and eta_M is the projection
        onto those coordinates: the kept columns of to_nf, with the kept
        rows of from_nf as a section (from_nf * to_nf = I).  So
        ker eta = H_C(M) and coker eta = 0.  For the fixture this is the
        naive candidate, whose image is not saturated in general."""
        # the engine's invariants first: an infinite M is an EngineMismatch
        # on the finite-abelian engine
        _, free_rank, divisors = self.engine.invariants(m)
        to_nf, from_nf = m.normal_form_data[2:]
        cofactors = self._cofactors(divisors)
        torsion = [i for i, c in enumerate(cofactors) if c > 1]
        keep = torsion + list(range(len(divisors), len(divisors) + free_rank))
        # the prime-to-p parts of a divisor chain form a divisor chain,
        # and those equal to 1 come first
        w = self.engine.obj_from_divisors([cofactors[i] for i in torsion], free_rank)
        section = Mat(len(keep), from_nf.cols, tuple(from_nf.data[i] for i in keep))
        return Reflection(w, Mor(m, w, (to_nf.take_cols(keep),)), section)

    def is_saturated(self, m: ZObj) -> bool:
        # gcd(order, 0) = order, so for p = 0 only the zero object is saturated
        order = self.engine.order(m)
        return order is not None and gcd(order, self.p) == 1

    def extend_along_unit(self, phi: Mor) -> Mor:
        """The unique psi with psi after eta_{src(phi)} equal to phi.

        eta is epic, so psi is the unit's section followed by phi, one
        product with no elimination of its own.  The two checks of
        colift_along_epi run on it: psi must be a morphism and eta;psi
        must equal phi."""
        if not self.is_saturated(phi.dst):
            raise NotSaturatedError("extension target must be saturated")
        unit = self.saturate(phi.src)
        w, eta = unit
        eng = self.engine
        psi = Mor(w, phi.dst, (ZZ.mul(unit.section, phi.maps[0]),))
        if not (eng.is_well_defined(psi) and eng.eq_mor(eng.compose(eta, psi), phi)):
            raise ContractViolation("a map to a saturated object must extend along the unit")
        return psi

    def c_cogenerators(self):
        """Z/p, the one simple object of C; Z/2 and Z/3 for the full torsion
        class, whose simple objects are the Z/q for every prime q.
        Hom(-, X) = 0 and Ext1(-, X) = 0 are closed under extensions, so
        they hold for every Z/p^k once they hold for Z/p."""
        return [self.engine.cyclic(n) for n in ((2, 3) if self.p == 0 else (self.p,))]

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

    def terminal_stage(self, m: ZObj):
        """(emb, stages) for the direct-limit oracle: the embedding of the
        intersection of the admissible subgroups S <= M, those with M/S in
        C, and how many there are.  Both are read off the subgroups'
        element masks: |S| is the popcount of the mask of S, so S is
        admissible when order_in_c holds for |M| / |S|, and the least
        admissible mask must lie inside every other one.  Only that
        subgroup is turned into an embedding."""
        order, masks = _finite_subgroups(self.engine, m)
        admissible = [mask for mask in masks if self.order_in_c(order // mask.bit_count())]
        least = min(admissible, key=int.bit_count)
        if any(least & ~mask for mask in admissible):
            raise ContractViolation("admissible subobjects must be intersection-closed")
        return _subgroup_embedding(self.engine, m, least, masks[least]), len(admissible)


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


# The largest order, and the most subgroups, of an object the oracle
# enumerates.  The 25 pairs of the qhom-oracle benchmark have 497
# subgroups between them, while (Z/2)^8 passes the order cap with 417,199.
ELEMENT_CAP = 256
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


def _finite_subgroups(engine: ZModuleEngine, m: ZObj):
    """(|M|, _subgroup_masks of the divisors of M) for a finite M within
    ELEMENT_CAP: the one entry to the enumeration."""
    order = engine.order(m)
    if order is None or order > ELEMENT_CAP:
        raise OracleUnsupported("object too large for exhaustive subobject enumeration")
    return order, _subgroup_masks(list(m.divisors))


def _subgroup_embedding(engine: ZModuleEngine, m: ZObj, mask: int, gens) -> Mor:
    """The embedding into M of the subgroup with this element mask and
    these generators in the normal form of M.

    The generators are stacked on the relations of the normal form; the
    Hermite basis of that full-rank lattice is unique, so it does not
    depend on which generators were recorded.  The subgroup's relations
    are a Hermite basis too, so its order check reads their pivots and
    starts no Smith form.
    """
    nf, _, from_nf = engine.normal_form(m)
    lattice = engine.row_basis(Mat.from_rows(gens, nf.gens).stack_below(nf.relations))
    sub = engine.obj(engine.kernel_mod_rows(lattice, nf.relations))
    if engine.order(sub) != mask.bit_count():
        raise ContractViolation("a subgroup presentation has the wrong order")
    return engine.compose(Mor(sub, nf, (lattice,)), from_nf)


def finite_subobject_embeddings(engine: ZModuleEngine, m: ZObj):
    """One embedding per subgroup of the finite object M, in the order of
    the subgroups' element masks (see _subgroup_masks)."""
    _, masks = _finite_subgroups(engine, m)
    return [_subgroup_embedding(engine, m, mask, masks[mask]) for mask in sorted(masks)]
