"""Serre quotients, Gabriel monads, and the checker suites.

Everything here is generic over a localizing theory, a
category.TorsionTheory (whose docstring lists what a theory supplies).
The quotient category keeps the objects of the ambient category; a
quotient morphism M -> N is stored by its canonical representative
M -> W(N), which turns Hom computations and equality into single
ambient-category questions and avoids the direct limit entirely.  The
direct-limit construction is still available as an independent oracle
(q_hom_via_colimit) on theories that also have a terminal_stage method.

The five saturating axioms checked by the "saturating" suite, for an
endofunctor W with unit eta over a torsion class C:

  (1) W kills C;
  (2) every W-image is saturated;
  (3) W is exact as a functor to the saturated subcategory, tested as
      "homology of the W-image of a short exact sequence lies in C";
  (4) eta at W(M) agrees with W applied to eta at M;
  (5) eta is an isomorphism on saturated objects.

A monad satisfying these is naturally isomorphic to the reflection monad
of the theory, which the "gabriel-equiv" suite verifies componentwise.

Each check is defined once, as an entry of CHECKS (what it samples, its
predicate, whether it takes the candidate), and each suite is an ordered
list of check labels in SUITE_CHECKS; run_suite and replay_check both read
these tables.  Both take the candidate monad as a Candidate value: a tag
such as "twisted" is resolved by make_candidate where it comes in (the
--candidate flag, a witness document), so a candidate built in code runs
through the suites and replays as the built-in ones do.  All suites are
deterministic functions of (seed, n); every failure is reported with a
witness that can be replayed in isolation.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

from .category import hom_map_is_bijective, rng_for
from .errors import (
    ContractViolation, EndpointMismatch, InputValidationError, NotInvertible,
    NotSaturatedError, OracleUnsupported,
)


@dataclass(frozen=True)
class QuotientMorphism:
    """A morphism Q(M) -> Q(N), stored as its representative M -> W(N)."""

    src: object
    dst: object
    rep: object


@dataclass(frozen=True)
class MonadData:
    """The reflection monad at one object: W(M), unit, multiplication."""

    obj: object
    w: object
    eta: object
    mu: object


# ---------------------------------------------------------------------------
# monad operations


def monad_at(theory, m) -> MonadData:
    """W(M), eta_M, and mu_M = inverse of eta at W(M).

    Raises NotSaturatedError when eta at W(M) fails to be invertible,
    which would mean the theory's saturation contract is broken.
    """
    w, eta = theory.saturate(m)
    _, eta_w = theory.saturate(w)
    mu = theory.engine.inverse(eta_w)
    if mu is None:
        raise NotSaturatedError("unit is not invertible at a W-image")
    return MonadData(m, w, eta, mu)


def w_on_morphism(theory, f):
    """The unique W(f) with W(f) after eta_M equal to eta_N after f.

    Computed as the extension of eta_N after f along eta_M.  Broken
    theories can produce non-saturated W-images; as long as their unit is
    epic the functor action still exists as a colift, so fall back to that.
    """
    e = theory.engine
    w_n, eta_n = theory.saturate(f.dst)
    comp = e.compose(f, eta_n)
    if theory.is_saturated(w_n):
        return theory.extend_along_unit(comp)
    _, eta_m = theory.saturate(f.src)
    psi = e.colift_along_epi(comp, eta_m)
    if psi is None:
        raise ContractViolation("eta_N after f does not extend along an epic unit")
    return psi


def q_is_zero(theory, m) -> bool:
    """Whether M becomes zero in the quotient (tested via the zero map)."""
    z = theory.engine.zero_morphism(theory.engine.zero_object(), m)
    return q_is_iso(theory, z)


def q_is_iso(theory, f) -> bool:
    """Whether f is inverted by the quotient: kernel and cokernel in C."""
    e = theory.engine
    return theory.is_in_c(e.kernel_emb(f).src) and theory.is_in_c(e.cokernel_proj(f).dst)


def q_eq(theory, f, g) -> bool:
    """Whether two ambient morphisms have the same image in the quotient."""
    e = theory.engine
    diff = e.sub(f, g)
    return theory.is_in_c(e.image_emb(diff).src)


def q_id(theory, m) -> QuotientMorphism:
    _, eta = theory.saturate(m)
    return QuotientMorphism(m, m, eta)


def q_of(theory, f) -> QuotientMorphism:
    """The image of an ambient morphism under the canonical functor."""
    _, eta = theory.saturate(f.dst)
    return QuotientMorphism(f.src, f.dst, theory.engine.compose(f, eta))


def qmor_eq(theory, f: QuotientMorphism, g: QuotientMorphism) -> bool:
    if f.src != g.src or f.dst != g.dst:
        raise EndpointMismatch("quotient morphisms have different endpoints")
    return theory.engine.eq_mor(f.rep, g.rep)


def q_compose(theory, f: QuotientMorphism, g: QuotientMorphism) -> QuotientMorphism:
    """Composite of canonical representatives via mu at the final target."""
    if f.dst != g.src:
        raise EndpointMismatch("quotient composition needs matching endpoints")
    data = monad_at(theory, g.dst)
    rep = theory.engine.compose(theory.engine.compose(f.rep, w_on_morphism(theory, g.rep)),
                                data.mu)
    return QuotientMorphism(f.src, g.dst, rep)


def colift_H(theory, f: QuotientMorphism):
    """The section-side image of f: the ambient morphism W(M) -> W(N)."""
    return theory.extend_along_unit(f.rep)


def quotient_invert(theory, f: QuotientMorphism) -> QuotientMorphism:
    """Inverse of a quotient morphism whose representative lies in Sigma."""
    back = theory.engine.inverse(colift_H(theory, f))
    if back is None:
        raise NotInvertible("quotient morphism is not invertible")
    _, eta = theory.saturate(f.dst)
    return QuotientMorphism(f.dst, f.src, theory.engine.compose(eta, back))


class QHomGroup:
    """Hom in the quotient, realized as Hom(M, W(N)) in the ambient category."""

    def __init__(self, theory, src, dst):
        self.theory = theory
        self.src = src
        self.dst = dst
        w, _ = theory.saturate(dst)
        self.w_dst = w
        self.inner = theory.engine.hom_group(src, w)

    @property
    def ngens(self):
        return self.inner.ngens

    def decode(self, coeffs) -> QuotientMorphism:
        return QuotientMorphism(self.src, self.dst, self.inner.decode(coeffs))

    def encode(self, f: QuotientMorphism):
        return self.inner.encode(f.rep)

    def invariants(self):
        return self.inner.invariants()

    def is_zero_group(self):
        return self.inner.is_zero_group()

    def enumerate_elements(self, cap=4096):
        return self.inner.enumerate_elements(cap)

    def describe(self):
        return self.inner.describe()


def q_hom(theory, m, n) -> QHomGroup:
    return QHomGroup(theory, m, n)


def cokernel_in_sat(theory, f):
    """Cokernel of a morphism between objects without C-subobjects, taken
    in the saturated subcategory: the reflection of the ambient cokernel."""
    e = theory.engine
    for end in (f.src, f.dst):
        if not e.is_zero_obj(theory.h_c(end).src):
            raise NotSaturatedError("endpoints must have no subobject in C")
    coker = e.cokernel_proj(f).dst
    w, _ = theory.saturate(coker)
    return w


# ---------------------------------------------------------------------------
# the direct-limit Hom oracle


class ColimitHom:
    """Hom in the quotient computed from its direct-limit description.

    The stages of the directed system are the subobjects M' <= M whose
    quotient lies in C, ordered by reverse inclusion, and its terminal
    stage is their intersection.  The theory's terminal_stage hook
    returns that stage's embedding and the number of stages; Hom is
    evaluated there as Hom(M'_min, N/H_C(N)).  Entirely independent of
    the reflection shortcut apart from the comparison map.  The stage is
    checked once here, with the engine's own cokernel: it must lie in C.
    """

    def __init__(self, theory, m, n):
        if not hasattr(theory, "terminal_stage"):
            raise OracleUnsupported("engine cannot enumerate subobjects exhaustively")
        e = theory.engine
        self.theory = theory
        self.m = m
        self.n = n
        self.nbar_proj = e.cokernel_proj(theory.h_c(n))
        nbar = self.nbar_proj.dst

        self.minimal_emb, self.stages = theory.terminal_stage(m)
        if not theory.is_in_c(e.cokernel_proj(self.minimal_emb).dst):
            raise ContractViolation("the terminal stage must have its quotient in C")
        self.group = e.hom_group(self.minimal_emb.src, nbar)

    def invariants(self):
        return self.group.invariants()

    def is_zero_group(self):
        return self.group.is_zero_group()

    def describe(self):
        d = self.group.describe()
        d["stages"] = self.stages
        return d

    def comparison_images(self, qhom: QHomGroup):
        """Each colimit basis element encoded in the shortcut Hom-group."""
        theory = self.theory
        e = theory.engine
        _, eta_m = theory.saturate(self.m)
        w_emb = w_on_morphism(theory, self.minimal_emb)
        w_emb_inv = e.invert(w_emb)
        w_proj = w_on_morphism(theory, self.nbar_proj)
        w_proj_inv = e.invert(w_proj)
        head = e.compose(eta_m, w_emb_inv)
        out = []
        for b in self.group.basis:
            rep = e.compose(e.compose(head, w_on_morphism(theory, b)), w_proj_inv)
            out.append(qhom.encode(QuotientMorphism(self.m, self.n, rep)))
        return out

    def comparison_is_bijective(self, qhom: QHomGroup) -> bool:
        return hom_map_is_bijective(self.group, qhom.inner,
                                    self.comparison_images(qhom))


def q_hom_via_colimit(theory, m, n) -> ColimitHom:
    return ColimitHom(theory, m, n)


# ---------------------------------------------------------------------------
# monad candidates


@dataclass(frozen=True)
class Candidate:
    """An endofunctor with unit handed to the checker suites."""

    tag: str
    w_obj: Callable
    unit: Callable
    w_mor: Callable


# the tags that name a candidate on every theory; the first names the
# reflection, as does each theory's own canonical_tag
CANDIDATE_TAGS = ("gabriel", "identity", "twisted")


def make_candidate(theory, tag=None) -> Candidate:
    """The candidate named by tag, or an InputValidationError.  None,
    "gabriel" and the theory's own canonical_tag name its reflection (the
    Gabriel monad, or the broken naive candidate of the fixture);
    "identity" is the identity functor, which fails axiom (1) whenever C
    has a nonzero object; "twisted" composes the unit with a scalar
    automorphism of W."""
    def w_obj(m):
        return theory.saturate(m)[0]

    def w_mor(f):
        # w_on_morphism is read at call time, so a wrapper installed on
        # this module after the candidate was made still sees the call
        return w_on_morphism(theory, f)

    if tag in (None, "gabriel", theory.canonical_tag):
        return Candidate(theory.canonical_tag, w_obj, lambda m: theory.saturate(m)[1], w_mor)
    if tag == "identity":
        return Candidate("identity", lambda m: m, theory.engine.identity, lambda f: f)
    if tag == "twisted":
        return Candidate("twisted", w_obj,
                         lambda m: theory.twist_unit(theory.saturate(m)[1]), w_mor)
    raise InputValidationError(f"unknown candidate tag: {tag}")


# ---------------------------------------------------------------------------
# reports


@dataclass
class CheckItem:
    label: str
    passed: bool
    samples: int
    detail: str = ""
    witness: dict | None = None

    def to_dict(self, witness_codec=None):
        d = {"axiom": self.label, "pass": self.passed, "samples": self.samples}
        if self.detail:
            d["detail"] = self.detail
        if self.witness is not None:
            d["witness"] = witness_codec(self.witness) if witness_codec else self.witness
        return d


@dataclass
class AxiomReport:
    suite: str
    engine: dict
    candidate: str
    seed: int
    n: int
    items: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(i.passed for i in self.items)

    @property
    def first_failure(self):
        for i in self.items:
            if not i.passed:
                return i
        return None

    def to_dict(self, witness_codec=None):
        return {
            "suite": self.suite,
            "engine": self.engine,
            "candidate": self.candidate,
            "seed": self.seed,
            "n": self.n,
            "pass": self.passed,
            "checks": [i.to_dict(witness_codec) for i in self.items],
        }


# ---------------------------------------------------------------------------
# single-sample predicates (shared by the suites and by witness replay)


def pred_monad_assoc(theory, m):
    e = theory.engine
    d1 = monad_at(theory, m)
    d2 = monad_at(theory, d1.w)
    w_mu = w_on_morphism(theory, d1.mu)
    lhs = e.compose(w_mu, d1.mu)
    rhs = e.compose(d2.mu, d1.mu)
    ok = e.eq_mor(lhs, rhs)
    return ok, "" if ok else "mu . W(mu) differs from mu . mu(W)"


def pred_monad_unit(theory, m):
    e = theory.engine
    d = monad_at(theory, m)
    _, eta_w = theory.saturate(d.w)
    w_eta = w_on_morphism(theory, d.eta)
    ident = e.identity(d.w)
    ok = (e.eq_mor(e.compose(w_eta, d.mu), ident)
          and e.eq_mor(e.compose(eta_w, d.mu), ident))
    return ok, "" if ok else "unit coherence fails"


def pred_mu_iso(theory, m):
    w, _ = theory.saturate(m)
    _, eta_w = theory.saturate(w)
    ok = theory.engine.is_iso(eta_w)
    return ok, "" if ok else "unit at W(M) is not invertible"


def pred_unit_swap(theory, m):
    e = theory.engine
    w, eta = theory.saturate(m)
    _, eta_w = theory.saturate(w)
    ok = e.eq_mor(w_on_morphism(theory, eta), eta_w)
    return ok, "" if ok else "W(eta) differs from eta(W)"


def pred_zigzag(theory, m):
    e = theory.engine
    w, eta = theory.saturate(m)
    q_eta = q_of(theory, eta)
    if not q_is_iso(theory, eta):
        return False, "unit is not inverted by the quotient"
    if not theory.is_saturated(w):
        return False, "W(M) is not saturated"
    delta = quotient_invert(theory, q_eta)
    if not qmor_eq(theory, q_compose(theory, q_eta, delta), q_id(theory, m)):
        return False, "first zig-zag composite is not the identity"
    if not qmor_eq(theory, q_compose(theory, delta, q_eta), q_id(theory, w)):
        return False, "counit construction is not two-sided"
    _, eta_w = theory.saturate(w)
    second = e.compose(eta_w, colift_H(theory, delta))
    if not e.eq_mor(second, e.identity(w)):
        return False, "second zig-zag composite is not the identity"
    return True, ""


def pred_axiom1(theory, candidate, m):
    if not theory.is_in_c(m):
        return True, ""
    ok = theory.engine.is_zero_obj(candidate.w_obj(m))
    return ok, "" if ok else "W does not kill an object of C"


def pred_axiom2(theory, candidate, m):
    wm = candidate.w_obj(m)
    e = theory.engine
    for t in theory.c_cogenerators():
        hg = e.hom_group(t, wm)
        if not hg.is_zero_group():
            return False, f"Hom(T, W(M)) = {hg.describe()} for T = {t!r}"
        xg = e.ext1_group(t, wm)
        if not xg.is_zero_group():
            return False, f"Ext1(T, W(M)) = {xg.describe()} for T = {t!r}"
    if not theory.is_saturated(wm):
        return False, "structural saturation test fails beyond the cogenerator family"
    return True, ""


def pred_axiom3(theory, candidate, ses):
    e = theory.engine
    a = candidate.w_mor(ses.iota)
    b = candidate.w_mor(ses.pi)
    if not e.eq_mor(e.compose(a, b), e.zero_morphism(a.src, b.dst)):
        return False, "W-image of the sequence does not compose to zero"
    if not theory.is_in_c(e.kernel_emb(a).src):
        return False, "homology at the sub position leaves C"
    if not theory.is_in_c(e.homology_at(a, b)):
        return False, "homology at the middle position leaves C"
    if not theory.is_in_c(e.cokernel_proj(b).dst):
        return False, "homology at the quotient position leaves C"
    return True, ""


def pred_axiom4(theory, candidate, m):
    e = theory.engine
    wm = candidate.w_obj(m)
    lhs = candidate.unit(wm)
    rhs = candidate.w_mor(candidate.unit(m))
    ok = e.eq_mor(lhs, rhs)
    return ok, "" if ok else "unit at W(M) differs from W of the unit"


def pred_axiom5(theory, candidate, m):
    if not theory.is_saturated(m):
        return True, ""
    ok = theory.engine.is_iso(candidate.unit(m))
    return ok, "" if ok else "unit is not invertible on a saturated object"


def pred_unit_natural(theory, candidate, f):
    e = theory.engine
    lhs = e.compose(f, candidate.unit(f.dst))
    rhs = e.compose(candidate.unit(f.src), candidate.w_mor(f))
    ok = e.eq_mor(lhs, rhs)
    return ok, "" if ok else "unit naturality square does not commute"


def pred_functorial(theory, candidate, f, g):
    e = theory.engine
    if not e.eq_mor(candidate.w_mor(e.identity(f.src)), e.identity(candidate.w_obj(f.src))):
        return False, "W does not preserve identities"
    lhs = candidate.w_mor(e.compose(f, g))
    rhs = e.compose(candidate.w_mor(f), candidate.w_mor(g))
    ok = e.eq_mor(lhs, rhs)
    return ok, "" if ok else "W does not preserve composition"


def pred_ker_q(theory, m):
    ok = q_is_zero(theory, m) == theory.is_in_c(m)
    return ok, "" if ok else "Q-vanishing disagrees with C-membership"


def pred_equiv_component(theory, candidate, m):
    e = theory.engine
    lam = theory.extend_along_unit(candidate.unit(m))
    if not e.is_iso(lam):
        return False, "comparison component is not an isomorphism"
    _, eta = theory.saturate(m)
    if not e.eq_mor(e.compose(eta, lam), candidate.unit(m)):
        return False, "comparison component does not intertwine the units"
    return True, ""


def pred_equiv_natural(theory, candidate, f):
    e = theory.engine
    lam_src = theory.extend_along_unit(candidate.unit(f.src))
    lam_dst = theory.extend_along_unit(candidate.unit(f.dst))
    kappa_src = e.inverse(lam_src)
    kappa_dst = e.inverse(lam_dst)
    if kappa_src is None or kappa_dst is None:
        return False, "comparison component is not an isomorphism"
    lhs = e.compose(candidate.w_mor(f), kappa_dst)
    rhs = e.compose(kappa_src, w_on_morphism(theory, f))
    ok = e.eq_mor(lhs, rhs)
    return ok, "" if ok else "naturality square of the comparison fails"


# ---------------------------------------------------------------------------
# the check table and the suites


@dataclass(frozen=True)
class Check:
    """One check: what it samples, the predicate run on each sample, and
    whether the predicate takes the candidate monad."""

    sample: str
    pred: Callable
    candidate: bool


# witness data keys of each sample kind, in predicate argument order
SAMPLE_KEYS = {
    "object": ("object",),
    "morphism": ("morphism",),
    "ses": ("ses",),
    "pair": ("morphism", "morphism2"),
}

CHECKS = {
    "monad-assoc": Check("object", pred_monad_assoc, False),
    "monad-unit": Check("object", pred_monad_unit, False),
    "mu-iso": Check("object", pred_mu_iso, False),
    "unit-swap": Check("object", pred_unit_swap, False),
    "zigzag-identities": Check("object", pred_zigzag, False),
    "saturating-1-kills-c": Check("object", pred_axiom1, True),
    "saturating-2-image-saturated": Check("object", pred_axiom2, True),
    "saturating-3-exact": Check("ses", pred_axiom3, True),
    "saturating-4-unit-commutes": Check("object", pred_axiom4, True),
    "saturating-5-unit-iso-on-saturated": Check("object", pred_axiom5, True),
    "unit-natural": Check("morphism", pred_unit_natural, True),
    "functorial": Check("pair", pred_functorial, True),
    "comparison-iso": Check("object", pred_equiv_component, True),
    "comparison-natural": Check("morphism", pred_equiv_natural, True),
    "ker-q-equals-c": Check("object", pred_ker_q, False),
}

# The checks of each suite, in report order.  gabriel-equiv first runs the
# saturating suite on min(n, 12) samples as its precondition.  Each sample
# kind is drawn once per suite run and shared by the checks that use it.
SUITE_CHECKS = {
    "monad-laws": ("monad-assoc", "monad-unit"),
    "idempotent": ("mu-iso", "unit-swap"),
    "zigzag": ("zigzag-identities",),
    "saturating": ("saturating-1-kills-c", "saturating-2-image-saturated",
                   "saturating-3-exact", "saturating-4-unit-commutes",
                   "saturating-5-unit-iso-on-saturated", "unit-natural", "functorial"),
    "gabriel-equiv": ("comparison-iso", "comparison-natural"),
    "ker-q": ("ker-q-equals-c",),
}
SUITES = tuple(SUITE_CHECKS)


def _random_chain(theory, rng, length):
    """length composable random morphisms between fresh random objects."""
    objs = [theory.random_object(rng) for _ in range(length + 1)]
    return tuple(theory.engine.random_morphism(rng, a, b) for a, b in zip(objs, objs[1:]))


def _samples(theory, kind, seed, suite, n):
    """The samples of one kind for one suite run, each a tuple of predicate
    arguments drawn from its own rng_for(seed, suite, tag, index)."""
    if kind == "object":
        return [(m,) for m in theory.probe_objects()] + [
            (theory.random_object(rng_for(seed, suite, "obj", i)),) for i in range(n)]
    if kind == "morphism":
        return [_random_chain(theory, rng_for(seed, suite, "mor", i), 1) for i in range(n)]
    half = max(1, n // 2)
    if kind == "pair":
        return [_random_chain(theory, rng_for(seed, suite, "pair", i), 2) for i in range(half)]
    return [(theory.random_ses(rng_for(seed, suite, "ses", i)),) for i in range(half)]


def _run_check(theory, candidate, label, args):
    check = CHECKS[label]
    if check.candidate:
        return check.pred(theory, candidate, *args)
    return check.pred(theory, *args)


def _scan(theory, candidate, label, samples, witness_base) -> CheckItem:
    """Run one check on each sample, recording the first counterexample."""
    keys = SAMPLE_KEYS[CHECKS[label].sample]
    for idx, args in enumerate(samples):
        ok, detail = _run_check(theory, candidate, label, args)
        if not ok:
            witness = dict(witness_base, check=label, index=idx, data=dict(zip(keys, args)))
            return CheckItem(label, False, idx + 1, detail, witness)
    return CheckItem(label, True, len(samples), "", None)


def _suite_report(theory, suite, candidate, seed, n) -> AxiomReport:
    labels = SUITE_CHECKS[suite]
    tag = candidate.tag if any(CHECKS[label].candidate for label in labels) else "gabriel"
    report = AxiomReport(suite, theory.describe(), tag, seed, n)
    if suite == "gabriel-equiv":
        # only a candidate that passes the saturating suite is compared
        pre = _suite_report(theory, "saturating", candidate, seed, min(n, 12))
        if not pre.passed:
            first = pre.first_failure
            report.items.append(CheckItem("precondition-saturating", False, first.samples,
                                          f"candidate rejected: fails {first.label}",
                                          first.witness))
            return report
        report.items.append(CheckItem("precondition-saturating", True, pre.n, "", None))
    base = {"suite": suite, "engine": theory.describe(), "candidate": tag, "seed": seed}
    samples = {}
    for label in labels:
        kind = CHECKS[label].sample
        if kind not in samples:
            samples[kind] = _samples(theory, kind, seed, suite, n)
        report.items.append(_scan(theory, candidate, label, samples[kind], base))
    return report


def run_suite(theory, suite, seed, n, candidate=None):
    """Run one named suite (or every suite for "all") on a Candidate, by
    default the theory's reflection; returns a list of AxiomReport values."""
    if candidate is None:
        candidate = make_candidate(theory)
    if suite == "all":
        return [r for s in SUITES for r in run_suite(theory, s, seed, n, candidate)]
    if suite not in SUITE_CHECKS:
        raise InputValidationError(f"unknown suite: {suite}")
    return [_suite_report(theory, suite, candidate, seed, n)]


# ---------------------------------------------------------------------------
# witness replay


def replay_check(theory, candidate, check, data):
    """Re-run the single check named by a witness on decoded data, with
    the Candidate that its suite ran on (read only by checks that take
    one).

    Returns (passed, detail).  An unknown check name, or data that lacks
    a key of its check, is an InputValidationError.
    """
    spec = CHECKS.get(check) if isinstance(check, str) else None
    if spec is None:
        raise InputValidationError(f"unknown check: {check!r}")
    keys = SAMPLE_KEYS[spec.sample]
    missing = [k for k in keys if k not in data]
    if missing:
        raise InputValidationError(f"witness data of {check} lacks {missing}")
    return _run_check(theory, candidate, check, tuple(data[k] for k in keys))
