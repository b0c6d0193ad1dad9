"""The integer engines: finite abelian groups, p-torsion theories, fixture."""

import pytest

from serreq.category import rng_for
from serreq.errors import EngineMismatch, InputValidationError, NotSaturatedError
from serreq.zmodules import (
    FiniteAbelianEngine, FixtureTheory, PPrimaryTheory, ZModuleEngine,
    finite_subobject_embeddings,
)

FA = FiniteAbelianEngine()
TH = PPrimaryTheory(2)


class TestNormalForm:
    def test_scrambled_presentations_normalize(self):
        for i in range(30):
            rng = rng_for(1, "nf", i)
            divisors = [rng.randint(1, 12) for _ in range(rng.randrange(0, 4))]
            m = FA._scrambled_from_divisors(rng, divisors)
            plain = FA.obj_from_divisors(divisors)
            assert FA.invariants(m) == FA.invariants(plain)
            nf, to_nf, from_nf = FA.normal_form(m)
            assert FA.is_well_defined(to_nf) and FA.is_well_defined(from_nf)
            assert FA.eq_mor(FA.compose(to_nf, from_nf), FA.identity(m))
            assert FA.eq_mor(FA.compose(from_nf, to_nf), FA.identity(nf))

    def test_invariant_chain(self):
        m = FA.obj_from_divisors([6, 4])
        assert FA.invariants(m) == ("Z", 0, (2, 12))
        assert FA.order(m) == 24


class TestMembership:
    def test_examples(self):
        assert TH.is_in_c(FA.cyclic(8))
        assert not TH.is_in_c(FA.cyclic(12))
        assert TH.is_in_c(FA.zero_object())

    def test_infinite_rejected(self):
        with pytest.raises(EngineMismatch):
            TH.is_in_c(FA.free(1))

    def test_thickness_sampled(self):
        # middle term lies in C iff both ends do, over 100 random sequences
        for i in range(100):
            ses = TH.random_ses(rng_for(2, "thick", i))
            mid = TH.is_in_c(ses.mid)
            ends = TH.is_in_c(ses.sub) and TH.is_in_c(ses.quot)
            assert mid == ends


class TestHC:
    def test_z12(self):
        emb = TH.h_c(FA.cyclic(12))
        assert FA.invariants(emb.src) == ("Z", 0, (4,))
        assert FA.is_mono(emb)
        # the embedding is multiplication by 3 up to a unit mod 12
        assert emb.matrix.data[0][0] % 3 == 0 and emb.matrix.data[0][0] % 2 != 0

    def test_trivial_and_full(self):
        assert FA.is_zero_obj(TH.h_c(FA.cyclic(9)).src)
        emb = TH.h_c(FA.cyclic(8))
        assert FA.invariants(emb.src) == ("Z", 0, (8,))
        assert FA.is_iso(emb)

    def test_maximality_against_subgroup_enumeration(self):
        # oracle: every 2-group among the subgroups of Z/12 factors through H_C
        m = FA.cyclic(12)
        hc = TH.h_c(m)
        for emb in finite_subobject_embeddings(FA, m):
            if TH.is_in_c(emb.src):
                assert FA.lift_along_mono(emb, hc) is not None

    def test_maximality_sampled(self):
        for i in range(100):
            rng = rng_for(3, "max", i)
            m = TH.random_object(rng)
            t = FA.obj_from_divisors([2 ** rng.randint(1, 3)
                                      for _ in range(rng.randrange(0, 3))])
            f = FA.random_morphism(rng, t, m)
            emb = FA.image_emb(f)
            assert TH.is_in_c(emb.src)
            assert FA.lift_along_mono(emb, TH.h_c(m)) is not None


class TestSaturate:
    def test_examples(self):
        w, eta = TH.saturate(FA.cyclic(12))
        assert FA.invariants(w) == ("Z", 0, (3,))
        w8, _ = TH.saturate(FA.cyclic(8))
        assert FA.is_zero_obj(w8)
        w15, eta15 = TH.saturate(FA.cyclic(15))
        assert FA.invariants(w15) == ("Z", 0, (15,))
        assert FA.is_iso(eta15)

    def test_unit_invariants_sampled(self):
        for i in range(100):
            rng = rng_for(4, "sat", i)
            m = TH.random_object(rng)
            w, eta = TH.saturate(m)
            ker = FA.kernel_emb(eta)
            assert TH.is_in_c(ker.src)
            assert FA.invariants(ker.src) == FA.invariants(TH.h_c(m).src)
            assert FA.is_zero_obj(FA.cokernel_proj(eta).dst)
            assert TH.is_saturated(w)
            assert FA.order(m) == FA.order(ker.src) * FA.order(w)

    def test_saturated_iff_unit_iso(self):
        for i in range(100):
            rng = rng_for(5, "iso", i)
            m = TH.random_object(rng)
            _, eta = TH.saturate(m)
            assert TH.is_saturated(m) == FA.is_iso(eta)


class TestIsSaturated:
    def test_examples(self):
        assert TH.is_saturated(FA.cyclic(3))
        assert not TH.is_saturated(FA.cyclic(12))
        assert TH.is_saturated(FA.zero_object())

    def test_hom_obstruction_for_z12(self):
        # Hom(Z/2, Z/12) has the order-2 element 1 -> 6
        hom = FA.hom_group(FA.cyclic(2), FA.cyclic(12))
        assert hom.invariants() == ("Z", 0, (2,))

    def test_cross_validated_by_cogenerators(self):
        for i in range(60):
            rng = rng_for(6, "cross", i)
            m = TH.random_object(rng)
            witnessed = all(
                FA.hom_group(t, m).is_zero_group() and FA.ext1_group(t, m).is_zero_group()
                for t in TH.c_cogenerators(3))
            assert witnessed == TH.is_saturated(m)


class TestExtendAlongUnit:
    def test_projection_extends_to_identity(self):
        m = FA.cyclic(12)
        w, eta = TH.saturate(m)
        psi = TH.extend_along_unit(eta)
        assert FA.eq_mor(psi, FA.identity(w))

    def test_zero_extends_to_zero(self):
        m = FA.cyclic(12)
        w, _ = TH.saturate(m)
        t = FA.cyclic(9)
        psi = TH.extend_along_unit(FA.zero_morphism(m, t))
        assert FA.eq_mor(psi, FA.zero_morphism(w, t))

    def test_saturated_source(self):
        m = FA.cyclic(5)
        w, eta = TH.saturate(m)
        phi = FA.random_morphism(rng_for(7, "ext"), m, FA.cyclic(15))
        psi = TH.extend_along_unit(phi)
        assert FA.eq_mor(FA.compose(eta, psi), phi)
        assert FA.eq_mor(psi, FA.compose(FA.invert(eta), phi))

    def test_rejects_unsaturated_target(self):
        phi = FA.zero_morphism(FA.cyclic(3), FA.cyclic(2))
        with pytest.raises(NotSaturatedError):
            TH.extend_along_unit(phi)

    def test_uniqueness_sampled(self):
        for i in range(40):
            rng = rng_for(8, "uniq", i)
            m = TH.random_object(rng)
            divisors = [d for d in (3, 5, 7, 9, 15) if rng.randrange(2)]
            t = FA.obj_from_divisors(divisors)
            phi = FA.random_morphism(rng, m, t)
            w, eta = TH.saturate(m)
            psi = TH.extend_along_unit(phi)
            assert FA.eq_mor(FA.compose(eta, psi), phi)
            hom = FA.hom_group(w, t)
            for coeffs in (hom.enumerate_elements(cap=128) or []):
                other = hom.decode(coeffs)
                if FA.eq_mor(FA.compose(eta, other), phi):
                    assert FA.eq_mor(other, psi)


class TestCogenerators:
    def test_examples(self):
        cogs = TH.c_cogenerators(3)
        assert [FA.order(t) for t in cogs] == [2, 4, 8]
        assert [FA.order(t) for t in PPrimaryTheory(3).c_cogenerators(1)] == [3]
        assert all(TH.is_in_c(t) for t in cogs)


class TestSubobjectEnumeration:
    def test_z12(self):
        embs = finite_subobject_embeddings(FA, FA.cyclic(12))
        assert sorted(FA.order(e.src) for e in embs) == [1, 2, 3, 4, 6, 12]
        assert all(FA.is_mono(e) for e in embs)

    def test_klein_four(self):
        embs = finite_subobject_embeddings(FA, FA.obj_from_divisors([2, 2]))
        assert sorted(FA.order(e.src) for e in embs) == [1, 2, 2, 2, 4]

    def test_too_large_rejected(self):
        with pytest.raises(ValueError):
            finite_subobject_embeddings(FA, FA.cyclic(512), element_cap=256)


class TestFixture:
    def test_z_is_not_saturated(self):
        fx = FixtureTheory(2)
        z = fx.engine.free(1)
        assert not fx.is_saturated(z)
        assert fx.engine.ext1_group(fx.engine.cyclic(2), z).invariants() == ("Z", 0, (2,))

    def test_naive_candidate_keeps_free_part(self):
        fx = FixtureTheory(2)
        z = fx.engine.free(1)
        w, eta = fx.saturate(z)
        assert fx.engine.invariants(w) == ("Z", 1, ())
        assert fx.engine.is_iso(eta)

    def test_h_c_is_p_primary_torsion(self):
        fx = FixtureTheory(2)
        m = fx.engine.obj_from_divisors([12], free_rank=1)
        emb = fx.h_c(m)
        assert fx.engine.invariants(emb.src) == ("Z", 0, (4,))

    def test_torsion_variant(self):
        tor = FixtureTheory(0)
        assert tor.is_in_c(tor.engine.cyclic(12))
        assert not tor.is_in_c(tor.engine.free(1))
        emb = tor.h_c(tor.engine.obj_from_divisors([6], free_rank=1))
        assert tor.engine.invariants(emb.src) == ("Z", 0, (6,))
        assert tor.is_saturated(tor.engine.zero_object())
        assert not tor.is_saturated(tor.engine.cyclic(5))

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            FixtureTheory(1)
        with pytest.raises(ValueError):
            PPrimaryTheory(0)

    def test_non_primes_rejected(self):
        for p in (-2, 1, 4, 9):
            with pytest.raises(InputValidationError):
                PPrimaryTheory(p)
            with pytest.raises(InputValidationError):
                FixtureTheory(p)
        assert FixtureTheory(0).p == 0


class TestGeneralEngine:
    def test_random_objects_can_be_infinite(self):
        z = ZModuleEngine()
        ranks = set()
        for i in range(30):
            m = z.random_object(rng_for(9, "gen", i), 2)
            ranks.add(z.invariants(m)[1])
        assert 0 in ranks and 1 in ranks
