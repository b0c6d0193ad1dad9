"""Quotient category operations, monad data, checker suites, witnesses."""

from dataclasses import replace

import pytest

from brute_force import enumerate_elements
from serreq import session
from serreq.category import rng_for
from serreq.errors import (
    EndpointMismatch, InputValidationError, NotSaturatedError, OracleUnsupported,
)
from serreq.linalg import QQ, Mat, PrimeField
from serreq.quiver import SinkSupportTheory
from serreq.serre import (
    QuotientMorphism, cokernel_in_sat, colift_H, make_candidate, monad_at, q_compose,
    q_eq, q_hom, q_hom_via_colimit, q_id, q_is_iso, q_is_zero, q_of, qmor_eq,
    SUITE_CHECKS, quotient_invert, replay_check, run_suite, w_on_morphism,
)
from serreq.zmodules import FixtureTheory, PPrimaryTheory

FA = PPrimaryTheory(2)
A2 = SinkSupportTheory(PrimeField(101))
E = FA.engine
THEORIES = [FA, A2]


def qmor_add(theory, f: QuotientMorphism, g: QuotientMorphism) -> QuotientMorphism:
    """The sum of two quotient morphisms, added on their representatives."""
    if f.src != g.src or f.dst != g.dst:
        raise EndpointMismatch("quotient morphisms have different endpoints")
    return QuotientMorphism(f.src, f.dst, theory.engine.add(f.rep, g.rep))


def random_qmor(th, m, n, rng):
    """A random quotient morphism M -> N of theory th, decoded from the
    carrier q_hom(th, m, n) of its representatives M -> W(N)."""
    qh = q_hom(th, m, n)
    return QuotientMorphism(m, n, qh.decode(
        tuple(th.engine._random_entry(rng) for _ in range(qh.ngens))))


class TestWOnMorphism:
    def test_identity(self):
        for th in THEORIES:
            m = th.random_object(rng_for(1, "wid"))
            w, _ = th.saturate(m)
            assert th.engine.eq_mor(w_on_morphism(th, th.engine.identity(m)),
                                    th.engine.identity(w))

    def test_crt_compatible(self):
        f = E.mor(E.cyclic(12), E.cyclic(6), Mat.from_rows([[1]]))
        wf = w_on_morphism(FA, f)
        assert E.invariants(wf.src) == ("Z", 0, (3,)) == E.invariants(wf.dst)
        assert E.is_iso(wf)
        _, eta_m = FA.saturate(f.src)
        _, eta_n = FA.saturate(f.dst)
        assert E.eq_mor(E.compose(eta_m, wf), E.compose(f, eta_n))

    def test_kills_c_images(self):
        f = E.mor(E.cyclic(12), E.cyclic(8), Mat.from_rows([[2]]))
        wf = w_on_morphism(FA, f)
        assert E.eq_mor(wf, E.zero_morphism(wf.src, wf.dst))

    def test_defining_property_sampled(self):
        for th in THEORIES:
            for i in range(40):
                rng = rng_for(2, "wdef", i)
                m, n = th.random_object(rng), th.random_object(rng)
                f = th.engine.random_morphism(rng, m, n)
                wf = w_on_morphism(th, f)
                _, eta_m = th.saturate(m)
                _, eta_n = th.saturate(n)
                assert th.engine.eq_mor(th.engine.compose(eta_m, wf),
                                        th.engine.compose(f, eta_n))


class TestMonadAt:
    def test_z12(self):
        data = monad_at(FA, E.cyclic(12))
        assert E.invariants(data.w) == ("Z", 0, (3,))
        assert E.is_iso(data.mu)
        _, eta_w = FA.saturate(data.w)
        assert E.eq_mor(E.compose(eta_w, data.mu), E.identity(data.w))

    def test_object_in_c(self):
        data = monad_at(FA, E.cyclic(8))
        assert E.is_zero_obj(data.w)
        assert E.eq_mor(data.eta, E.zero_morphism(data.obj, data.w))

    def test_saturated_object(self):
        data = monad_at(FA, E.cyclic(15))
        assert E.is_iso(data.eta) and E.is_iso(data.mu)


class TestQuotientPredicates:
    def test_q_is_iso_examples(self):
        proj = E.mor(E.cyclic(12), E.cyclic(3), Mat.from_rows([[1]]))
        assert q_is_iso(FA, proj)
        assert q_is_iso(FA, E.identity(E.cyclic(12)))
        crush = E.mor(E.cyclic(3), E.zero_object(), Mat.zeros(1, 0))
        assert not q_is_iso(FA, crush)

    def test_q_is_zero_examples(self):
        assert q_is_zero(FA, E.cyclic(4))
        assert not q_is_zero(FA, E.cyclic(3))

    def test_q_eq_examples(self):
        m, n = E.cyclic(8), E.cyclic(12)
        f = E.mor(m, n, Mat.from_rows([[3]]))   # image generated by 3: a 2-group
        z = E.zero_morphism(m, n)
        assert q_eq(FA, f, z)
        assert q_eq(FA, f, f)
        t = E.cyclic(3)
        assert not q_eq(FA, E.identity(t), E.zero_morphism(t, t))


class TestQCompose:
    @pytest.mark.parametrize("theory, obj", [
        (FA, lambda e: e.obj_from_divisors([3, 6])),
        (SinkSupportTheory(PrimeField(5)), lambda e: e.interval(2)),
    ], ids=["Z/3+Z/6", "interval2-F5"])
    def test_respects_the_order_of_composition(self, theory, obj):
        # f;g and g;f both exist for endomorphisms, so only a pair whose
        # images in the quotient do not commute tells the orders apart
        e = theory.engine
        m = obj(e)
        rng = rng_for(3030, "q-compose", e.name)
        noncommuting = 0
        for _ in range(12):
            f, g = e.random_morphism(rng, m, m), e.random_morphism(rng, m, m)
            fg, gf = q_of(theory, e.compose(f, g)), q_of(theory, e.compose(g, f))
            assert qmor_eq(theory, q_compose(theory, q_of(theory, f), q_of(theory, g)), fg)
            noncommuting += not qmor_eq(theory, fg, gf)
        assert noncommuting


class TestQHom:
    def test_shortcut_values(self):
        assert q_hom(FA, E.cyclic(12), E.cyclic(9)).invariants() == ("Z", 0, (3,))
        assert q_hom(FA, E.cyclic(8), E.cyclic(9)).is_zero_group()
        v = A2.engine.obj(1, 1, Mat.zeros(1, 1))
        assert q_hom(A2, v, A2.engine.interval()).invariants() == ("F101", 1)

    def test_quotient_dimension_matches_sink(self):
        for i in range(50):
            rng = rng_for(3, "dim", i)
            v, u = A2.random_object(rng), A2.random_object(rng)
            assert q_hom(A2, v, u).invariants() == ("F101", v.d2 * u.d2)

    def test_unit_laws(self):
        for th in THEORIES:
            for i in range(15):
                rng = rng_for(4, "unit", i)
                m, n = th.random_object(rng), th.random_object(rng)
                f = random_qmor(th, m, n, rng)
                assert qmor_eq(th, q_compose(th, q_id(th, m), f), f)
                assert qmor_eq(th, q_compose(th, f, q_id(th, n)), f)

    def test_associativity_and_bilinearity(self):
        for th in THEORIES:
            for i in range(10):
                rng = rng_for(5, "assoc", i)
                a, b, c, d = (th.random_object(rng) for _ in range(4))
                f = random_qmor(th, a, b, rng)
                g = random_qmor(th, b, c, rng)
                h = random_qmor(th, c, d, rng)
                lhs = q_compose(th, q_compose(th, f, g), h)
                rhs = q_compose(th, f, q_compose(th, g, h))
                assert qmor_eq(th, lhs, rhs)
                g2 = random_qmor(th, b, c, rng)
                left = q_compose(th, f, qmor_add(th, g, g2))
                right = qmor_add(th, q_compose(th, f, g), q_compose(th, f, g2))
                assert qmor_eq(th, left, right)

    def test_composition_matches_direct_hom_arithmetic(self):
        # composing canonical representatives Z/12 -> Z/3 agrees with the
        # multiplication the Hom-groups see
        m = E.cyclic(12)
        f = q_of(FA, E.mor(m, m, Mat.from_rows([[7]])))
        g = q_of(FA, E.mor(m, m, Mat.from_rows([[5]])))
        fg = q_compose(FA, f, g)
        direct = q_of(FA, E.mor(m, m, Mat.from_rows([[35]])))
        assert qmor_eq(FA, fg, direct)


class TestColimitOracle:
    def test_agreement_examples(self):
        qh = q_hom(FA, E.cyclic(12), E.cyclic(9))
        col = q_hom_via_colimit(FA, E.cyclic(12), E.cyclic(9))
        assert col.invariants() == qh.invariants() == ("Z", 0, (3,))
        assert col.stages == 3
        assert col.comparison_is_bijective(qh)

    def test_c_source_vanishes(self):
        col = q_hom_via_colimit(FA, E.cyclic(8), E.cyclic(9))
        assert col.is_zero_group()
        col2 = q_hom_via_colimit(FA, E.cyclic(2), E.cyclic(2))
        assert col2.is_zero_group()

    def test_unsupported_engine(self):
        with pytest.raises(OracleUnsupported):
            q_hom_via_colimit(A2, A2.engine.interval(), A2.engine.interval())

    def test_agreement_sampled(self):
        for i in range(25):
            rng = rng_for(6, "oracle", i)
            m = FA.random_object(rng, max_order=60)
            n = FA.random_object(rng, max_order=60)
            qh = q_hom(FA, m, n)
            col = q_hom_via_colimit(FA, m, n)
            assert col.invariants() == qh.invariants()
            assert col.comparison_is_bijective(qh)


class TestColiftH:
    def test_identity_and_images(self):
        for th in THEORIES:
            m = th.random_object(rng_for(7, "ch"))
            w, _ = th.saturate(m)
            assert th.engine.eq_mor(colift_H(th, q_id(th, m)), th.engine.identity(w))
            n = th.random_object(rng_for(8, "ch"))
            f = th.engine.random_morphism(rng_for(9, "ch"), m, n)
            assert th.engine.eq_mor(colift_H(th, q_of(th, f)), w_on_morphism(th, f))
            wz, _ = th.saturate(n)
            zero = QuotientMorphism(m, n, th.engine.zero_morphism(m, wz))
            assert th.engine.eq_mor(colift_H(th, zero),
                                    th.engine.zero_morphism(w, wz))

    def test_conservativity_sampled(self):
        for th in THEORIES:
            for i in range(50):
                rng = rng_for(10, "cons", i)
                m, n = th.random_object(rng), th.random_object(rng)
                f = random_qmor(th, m, n, rng)
                assert th.engine.is_iso(colift_H(th, f)) == q_is_iso(th, f.rep)

    def test_fully_faithful_enumerated(self):
        # the section side is a bijection Hom_Q(M, N) -> Hom(W M, W N)
        from serreq.category import hom_map_is_bijective
        pairs = [(E.cyclic(12), E.cyclic(9)), (E.cyclic(30), E.cyclic(45)),
                 (E.obj_from_divisors([2, 6]), E.cyclic(18))]
        for m, n in pairs:
            qh = q_hom(FA, m, n)
            wm, _ = FA.saturate(m)
            wn, _ = FA.saturate(n)
            target = E.hom_group(wm, wn)
            images = []
            for k in range(qh.ngens):
                basis_vec = tuple(1 if j == k else 0 for j in range(qh.ngens))
                images.append(target.encode(
                    colift_H(FA, QuotientMorphism(m, n, qh.decode(basis_vec)))))
            assert hom_map_is_bijective(qh, target, images)
            elems = enumerate_elements(qh, cap=512)
            assert elems is not None
            seen = set()
            for c in elems:
                img = target.encode(colift_H(FA, QuotientMorphism(m, n, qh.decode(c))))
                canon = tuple(target.encode(target.decode(img)))
                seen.add(canon)
            assert len(seen) == len(elems)

    def test_fully_faithful_small_field(self):
        small = SinkSupportTheory(PrimeField(3))
        eng = small.engine
        v = eng.obj(1, 1, Mat.zeros(1, 1))
        u = eng.interval()
        qh = q_hom(small, v, u)
        wv, _ = small.saturate(v)
        wu, _ = small.saturate(u)
        target = eng.hom_group(wv, wu)
        elems = enumerate_elements(qh, cap=243)
        images = {tuple(target.encode(colift_H(small, QuotientMorphism(v, u, qh.decode(c)))))
                  for c in elems}
        assert len(images) == len(elems) == 3 ** qh.ngens


class TestQuotientInvert:
    def test_round_trip(self):
        for th in THEORIES:
            for i in range(20):
                rng = rng_for(11, "qinv", i)
                m, n = th.random_object(rng), th.random_object(rng)
                f = random_qmor(th, m, n, rng)
                if not q_is_iso(th, f.rep):
                    continue
                g = quotient_invert(th, f)
                assert qmor_eq(th, q_compose(th, f, g), q_id(th, m))
                assert qmor_eq(th, q_compose(th, g, f), q_id(th, n))


class TestCokernelInSat:
    def test_doubling_on_free_rank_one(self):
        tor = FixtureTheory(0)
        z = tor.engine.free(1)
        double = tor.engine.mor(z, z, Mat.from_rows([[2]]))
        out = cokernel_in_sat(tor, double)
        assert tor.engine.is_zero_obj(out)

    def test_epi_gives_zero(self):
        proj = E.mor(E.cyclic(15), E.cyclic(3), Mat.from_rows([[1]]))
        assert E.is_zero_obj(cokernel_in_sat(FA, proj))

    def test_quiver_zero_endomorphism(self):
        v = A2.engine.interval()
        out = cokernel_in_sat(A2, A2.engine.zero_morphism(v, v))
        assert A2.engine.invariants(out) == A2.engine.invariants(v)

    def test_rejects_torsion_endpoints(self):
        tor = FixtureTheory(0)
        t = tor.engine.cyclic(4)
        with pytest.raises(NotSaturatedError):
            cokernel_in_sat(tor, tor.engine.identity(t))


class TestSuites:
    def test_positive_suites_pass(self):
        for th in THEORIES:
            assert run_suite(th, "monad-laws", 17, 12)[0].passed
            assert run_suite(th, "idempotent", 17, 12)[0].passed
            assert run_suite(th, "zigzag", 17, 12)[0].passed
            assert run_suite(th, "ker-q", 17, 12)[0].passed
            assert run_suite(th, "saturating", 17, 12)[0].passed

    def test_zero_only_input(self):
        report = run_suite(FA, "zigzag", 0, 0)[0]
        assert report.passed

    def test_unknown_suite_is_an_input_error(self):
        with pytest.raises(InputValidationError, match="unknown suite: nope"):
            run_suite(FA, "nope", 1, 2)

    def test_fixture_fails_axiom2_under_every_seed(self):
        fx = FixtureTheory(2)
        for seed in (0, 1, 17, 99, 12345):
            report = run_suite(fx, "saturating", seed, 6)[0]
            assert not report.passed
            first = report.first_failure
            assert first.label == "saturating-2-image-saturated"
            assert "Ext1" in first.detail and "2" in first.detail
            m = first.witness["data"]["object"]
            assert fx.engine.invariants(m) == ("Z", 1, ())

    def test_fixture_passes_axioms_1_and_4(self):
        fx = FixtureTheory(2)
        report = run_suite(fx, "saturating", 23, 8)[0]
        by_label = {i.label: i for i in report.items}
        assert by_label["saturating-1-kills-c"].passed
        assert by_label["saturating-4-unit-commutes"].passed

    def test_identity_candidate_fails_axiom1_under_every_seed(self):
        for seed in (0, 1, 17, 99, 12345):
            report = run_suite(FA, "saturating", seed, 6, make_candidate(FA, "identity"))[0]
            assert not report.passed
            first = report.first_failure
            assert first.label == "saturating-1-kills-c"
            m = first.witness["data"]["object"]
            assert FA.is_in_c(m) and not E.is_zero_obj(m)

    def test_fixture_idempotence_still_holds(self):
        fx = FixtureTheory(2)
        assert run_suite(fx, "idempotent", 5, 8)[0].passed

    def test_equivalence_gabriel_and_twisted(self):
        for th in THEORIES:
            assert run_suite(th, "gabriel-equiv", 29, 10)[0].passed
            assert run_suite(th, "gabriel-equiv", 29, 10, make_candidate(th, "twisted"))[0].passed

    def test_twisted_unit_is_nontrivial(self):
        m = E.cyclic(9)
        cand = make_candidate(FA, "twisted")
        _, eta = FA.saturate(m)
        assert not E.eq_mor(cand.unit(m), eta)

    def test_equivalence_rejects_fixture(self):
        fx = FixtureTheory(2)
        report = run_suite(fx, "gabriel-equiv", 29, 10)[0]
        assert not report.passed
        assert report.items[0].label == "precondition-saturating"

    def test_gabriel_comparison_is_identity_family(self):
        for i in range(10):
            m = FA.random_object(rng_for(12, "cmp", i))
            cand = make_candidate(FA, None)
            lam = FA.extend_along_unit(cand.unit(m))
            w, _ = FA.saturate(m)
            assert E.eq_mor(lam, E.identity(w))


# the cogenerator family of axiom 2 before it was cut to simple objects:
# Z/p, Z/p^2 and Z/p^3 (Z/2, Z/3 and Z/4 for p = 0), and S and S + S on A2
OLD_COGENERATORS = {
    "finite_abelian-2": (PPrimaryTheory(2), lambda e: [e.cyclic(2 ** k) for k in (1, 2, 3)]),
    "finite_abelian-3": (PPrimaryTheory(3), lambda e: [e.cyclic(3 ** k) for k in (1, 2, 3)]),
    "fixture-0": (FixtureTheory(0), lambda e: [e.cyclic(n) for n in (2, 3, 4)]),
    "fixture-2": (FixtureTheory(2), lambda e: [e.cyclic(2 ** k) for k in (1, 2, 3)]),
    "a2_rep-F3": (SinkSupportTheory(PrimeField(3)),
                  lambda e: [e.simple_source(d) for d in (1, 2)]),
    "a2_rep-Q": (SinkSupportTheory(QQ), lambda e: [e.simple_source(d) for d in (1, 2)]),
}


class TestCogenerators:
    @pytest.mark.parametrize("engine", list(OLD_COGENERATORS))
    def test_dropped_cogenerators_are_redundant(self, engine):
        # Hom(-, X) = 0 and Ext1(-, X) = 0 are closed under extensions, and
        # every dropped object is an iterated extension of kept ones
        th, old_family = OLD_COGENERATORS[engine]
        e = th.engine
        old, new = old_family(e), th.c_cogenerators()
        assert {e.invariants(t) for t in new} < {e.invariants(t) for t in old}
        seen = set()
        for i in range(12):
            m = th.random_object(rng_for(34, "cogenerators", engine, i))
            for x in (m, th.saturate(m)[0]):
                for group in (e.hom_group, e.ext1_group):
                    vanishes = [all(group(t, x).is_zero_group() for t in family)
                                for family in (old, new)]
                    assert vanishes[0] == vanishes[1], (group.__name__, x)
                    seen.add((group.__name__, vanishes[0]))
        # both answers occur for Hom and for Ext1, so the test is not vacuous
        assert len(seen) == 4, seen


class TestQuotientExactness:
    def test_q_preserves_exactness(self):
        cand_fa, cand_a2 = make_candidate(FA, None), make_candidate(A2, None)
        for th, cand in ((FA, cand_fa), (A2, cand_a2)):
            for i in range(40):
                ses = th.random_ses(rng_for(13, "qexact", i))
                a = cand.w_mor(ses.iota)
                b = cand.w_mor(ses.pi)
                e = th.engine
                assert th.is_in_c(e.kernel_emb(a).src)
                assert th.is_in_c(e.homology_at(a, b))
                assert th.is_in_c(e.cokernel_proj(b).dst)

    def test_section_left_exactness(self):
        # applying W to an exact sequence stays exact at the first two spots
        for th in THEORIES:
            cand = make_candidate(th, None)
            for i in range(40):
                ses = th.random_ses(rng_for(14, "lex", i))
                a = cand.w_mor(ses.iota)
                b = cand.w_mor(ses.pi)
                e = th.engine
                assert e.is_zero_obj(e.kernel_emb(a).src)
                assert e.is_zero_obj(e.homology_at(a, b))

    def test_unit_is_quotient_iso_everywhere(self):
        for th in THEORIES:
            for i in range(40):
                m = th.random_object(rng_for(15, "qiso", i))
                _, eta = th.saturate(m)
                assert q_is_iso(th, eta)


class TestWitnessRoundTrip:
    def test_replay_reproduces_failure(self):
        fx = FixtureTheory(2)
        report = run_suite(fx, "saturating", 31, 5)[0]
        witness = report.first_failure.witness
        doc = session.witness_to_jsonable(witness)
        result = session.replay_witness(doc)
        assert result["reproduced"] and not result["pass"]
        assert not result["version_mismatch"]

    def test_replay_object_checks(self):
        report = run_suite(FA, "saturating", 31, 5, make_candidate(FA, "identity"))[0]
        doc = session.witness_to_jsonable(report.first_failure.witness)
        assert session.replay_witness(doc)["reproduced"]

    def test_report_dicts_deterministic(self):
        r1 = run_suite(FA, "saturating", 41, 8)[0]
        r2 = run_suite(FA, "saturating", 41, 8)[0]
        codec = session.witness_to_jsonable
        assert r1.to_dict(codec) == r2.to_dict(codec)


# ---------------------------------------------------------------------------
# checker power: candidates that change the reflection in one place


def mutants(th):
    """The built-in identity candidate and five mutants of the reflection
    candidate, each a plain Candidate value."""
    e = th.engine
    g = make_candidate(th)

    def negated_unless_mono_or_epi(f):
        w = g.w_mor(f)
        return w if e.is_mono(f) or e.is_epi(f) else e.scale(w, -1)

    return {
        "identity": make_candidate(th, "identity"),
        "w-zero": replace(g, tag="w-zero", w_mor=lambda f: e.zero_morphism(
            g.w_obj(f.src), g.w_obj(f.dst))),
        "w-negated": replace(g, tag="w-negated", w_mor=lambda f: e.scale(g.w_mor(f), -1)),
        "unit-zero": replace(g, tag="unit-zero",
                             unit=lambda m: e.zero_morphism(m, g.w_obj(m))),
        "w-negated-unless-mono-or-epi": replace(g, tag="w-negated-unless-mono-or-epi",
                                                w_mor=negated_unless_mono_or_epi),
        "unit-negated": replace(g, tag="unit-negated", unit=lambda m: e.scale(g.unit(m), -1)),
    }


AX1, AX2, AX3, AX4, AX5, NAT, FUN = SUITE_CHECKS["saturating"]
# the failing checks of the saturating suite for each mutant, on Z and on A2;
# the first failure is the first of them in suite order
MUTANT_TABLE = {
    "identity": ({AX1, AX2}, {AX1, AX2}),
    "w-zero": ({AX3, AX4, NAT, FUN}, {AX3, AX4, NAT, FUN}),
    "w-negated": ({AX4, NAT, FUN}, {AX4, NAT, FUN}),
    # axiom 5 alone: the lead for its independence
    "unit-zero": ({AX5}, {AX5}),
    # on Z every unit is epi, so W of it is unchanged and axiom 4 holds
    "w-negated-unless-mono-or-epi": ({NAT}, {AX4, NAT, FUN}),
    # a valid monad, isomorphic to the reflection, like "twisted"
    "unit-negated": (set(), set()),
}
MUTANT_ENGINES = {
    "finite_abelian-2": (PPrimaryTheory(2), 0), "finite_abelian-3": (PPrimaryTheory(3), 0),
    "a2_rep-F101": (A2, 1), "a2_rep-Q": (SinkSupportTheory(QQ), 1),
}


class TestMutantTable:
    @pytest.mark.parametrize("seed", [1, 23])
    @pytest.mark.parametrize("engine", list(MUTANT_ENGINES))
    def test_each_mutant_fails_its_checks(self, engine, seed):
        th, side = MUTANT_ENGINES[engine]
        for name, candidate in mutants(th).items():
            expected = MUTANT_TABLE[name][side]
            report = run_suite(th, "saturating", seed, 20, candidate)[0]
            assert report.candidate == candidate.tag
            assert {i.label for i in report.items if not i.passed} == expected, name
            first = report.first_failure
            if not expected:
                assert first is None
                continue
            assert first.label == next(label for label in SUITE_CHECKS["saturating"]
                                       if label in expected), name
            # the first witness fails again through replay, with the same detail
            assert replay_check(th, candidate, first.label, first.witness["data"]) \
                == (False, first.detail), name

    @pytest.mark.parametrize("p", [2, 3])
    def test_fixture_candidate_fails_axiom2_alone(self, p):
        fx = FixtureTheory(p)
        for seed in (1, 23):
            report = run_suite(fx, "saturating", seed, 20)[0]
            assert [i.label for i in report.items if not i.passed] == [AX2]
            first = report.first_failure
            assert replay_check(fx, make_candidate(fx), AX2, first.witness["data"]) \
                == (False, first.detail)

    def test_negated_unit_passes_every_suite(self):
        for th, _ in MUTANT_ENGINES.values():
            reports = run_suite(th, "all", 1, 20, mutants(th)["unit-negated"])
            assert [r.suite for r in reports] == list(SUITE_CHECKS)
            assert all(r.passed for r in reports), th.describe()
