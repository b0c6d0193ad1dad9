"""Generic abelian-category operations, exercised on both engines."""

import pytest

from serreq import category
from serreq.category import hom_map_is_bijective, rng_for
from serreq.errors import CompositeNotZero, ContractViolation, EndpointMismatch, NotInvertible
from serreq.linalg import QQ, Mat, PrimeField
from serreq.quiver import A2Engine, SinkSupportTheory
from serreq.zmodules import FiniteAbelianEngine, FixtureTheory, PPrimaryTheory, ZModuleEngine

Z = ZModuleEngine()
FA = FiniteAbelianEngine()
A2 = A2Engine(PrimeField(101))

ENGINES = [(FA, 3), (A2, 3)]


def x2():
    return Z.mor(Z.free(1), Z.free(1), Mat.from_rows([[2]]))


def image_factor(eng, f):
    """Factor f as (epi onto its image, image embedding)."""
    emb = eng.image_emb(f)
    return eng.lift_along_mono(f, emb), emb


def is_exact_ses(eng, ses) -> bool:
    """Whether iota;pi is a short exact sequence: iota mono, pi epi, the
    composite zero and the homology at the middle zero."""
    if ses.iota.dst != ses.pi.src:
        return False
    if not eng.eq_mor(eng.compose(ses.iota, ses.pi), eng.zero_morphism(ses.iota.src, ses.pi.dst)):
        return False
    if not eng.is_mono(ses.iota) or not eng.is_epi(ses.pi):
        return False
    return eng.is_zero_obj(eng.homology_at(ses.iota, ses.pi))


def random_coeffs(eng, hom, rng):
    """A random coefficient row of the Hom carrier hom of engine eng."""
    return tuple(eng._random_entry(rng) for _ in range(hom.ngens))


def random_projective(rng, size_bound):
    """A projective A2 representation: a sum of intervals and simple sinks,
    (V1, V2, alpha) = (F^a, F^(a+b), [I_a | 0])."""
    a = rng.randrange(0, size_bound + 1)
    b = rng.randrange(0, size_bound + 1)
    return A2.obj(a, a + b, Mat(a, a + b, tuple(tuple(int(i == j) for j in range(a + b))
                                              for i in range(a))))


class TestWellDefined:
    def test_z2_to_z4(self):
        # the relation 2*1 = 0 must be preserved
        bad = Z.mor(Z.cyclic(2), Z.cyclic(4), Mat.from_rows([[1]]))
        good = Z.mor(Z.cyclic(2), Z.cyclic(4), Mat.from_rows([[2]]))
        assert not Z.is_well_defined(bad)
        assert Z.is_well_defined(good)

    def test_identity_always(self):
        for eng, size in ENGINES:
            for i in range(10):
                m = eng.random_object(rng_for(4, "wd", i), size)
                assert eng.is_well_defined(eng.identity(m))


class TestEqMor:
    def test_examples(self):
        zz, z2 = Z.free(1), Z.cyclic(2)
        f = Z.mor(zz, z2, Mat.from_rows([[1]]))
        g = Z.mor(zz, z2, Mat.from_rows([[3]]))
        assert Z.eq_mor(f, g)
        assert not Z.eq_mor(x2(), Z.identity(Z.free(1)))
        assert Z.eq_mor(f, Z.add(f, Z.zero_morphism(zz, z2)))

    def test_endpoint_mismatch(self):
        with pytest.raises(EndpointMismatch):
            Z.eq_mor(x2(), Z.mor(Z.free(1), Z.cyclic(2), Mat.from_rows([[1]])))

    def test_equivalence_and_congruence(self):
        for eng, size in ENGINES:
            for i in range(25):
                rng = rng_for(11, "cong", i)
                m, n, p = (eng.random_object(rng, size) for _ in range(3))
                f = eng.random_morphism(rng, m, n)
                g = eng.random_morphism(rng, m, n)
                h = eng.random_morphism(rng, n, p)
                assert eng.eq_mor(f, f)
                if eng.eq_mor(f, g):
                    assert eng.eq_mor(g, f)
                    # congruence for composition and addition
                    assert eng.eq_mor(eng.compose(f, h), eng.compose(g, h))
                    assert eng.eq_mor(eng.add(f, h2 := eng.random_morphism(rng, m, n)),
                                      eng.add(g, h2))


class TestKernelCokernelImage:
    def test_times_two_on_z(self):
        f = x2()
        assert Z.is_zero_obj(Z.kernel_emb(f).src)
        assert Z.invariants(Z.cokernel_proj(f).dst) == ("Z", 0, (2,))

    def test_projection_kernel_is_even_integers(self):
        proj = Z.mor(Z.free(1), Z.cyclic(2), Mat.from_rows([[1]]))
        ker = Z.kernel_emb(proj)
        assert Z.invariants(ker.src) == ("Z", 1, ())
        assert abs(ker.maps[0].data[0][0]) == 2

    def test_quiver_zero_map_kernel(self):
        v = A2.obj(1, 1, Mat.identity(1))
        ker = A2.kernel_emb(A2.zero_morphism(v, v))
        assert A2.invariants(ker.src) == A2.invariants(v)
        assert A2.is_iso(ker)

    def test_image_factorization(self):
        for eng, size in ENGINES:
            for i in range(20):
                rng = rng_for(21, "img", i)
                m = eng.random_object(rng, size)
                n = eng.random_object(rng, size)
                f = eng.random_morphism(rng, m, n)
                epi, emb = image_factor(eng, f)
                assert epi is not None
                assert eng.is_epi(epi) and eng.is_mono(emb)
                assert eng.eq_mor(eng.compose(epi, emb), f)

    def test_universal_properties_sampled(self):
        # lift through the kernel exists exactly when the witness composes
        # to zero; dually for the cokernel (100 pairs per engine)
        for eng, size in ENGINES:
            for i in range(100):
                rng = rng_for(31, "univ", eng.name, i)
                m, n, x = (eng.random_object(rng, size) for _ in range(3))
                f = eng.random_morphism(rng, m, n)
                ker = eng.kernel_emb(f)
                psi = eng.random_morphism(rng, x, m)
                kills = eng.eq_mor(eng.compose(psi, f), eng.zero_morphism(x, n))
                lifted = eng.lift_along_mono(psi, ker)
                assert (lifted is not None) == kills
                if lifted is not None:
                    assert eng.eq_mor(eng.compose(lifted, ker), psi)
                cok = eng.cokernel_proj(f)
                chi = eng.random_morphism(rng, n, x)
                kills = eng.eq_mor(eng.compose(f, chi), eng.zero_morphism(m, x))
                colifted = eng.colift_along_epi(chi, cok)
                assert (colifted is not None) == kills
                if colifted is not None:
                    assert eng.eq_mor(eng.compose(cok, colifted), chi)


class TestLiftColift:
    def test_lift_examples(self):
        four = Z.mor(Z.free(1), Z.free(1), Mat.from_rows([[4]]))
        psi = Z.lift_along_mono(four, x2())
        assert psi is not None and psi.maps[0].data == ((2,),)
        assert Z.lift_along_mono(Z.identity(Z.free(1)), x2()) is None

    def test_colift_example(self):
        # Z -> Z/6 factors through Z ->> Z/12
        to6 = Z.mor(Z.free(1), Z.cyclic(6), Mat.from_rows([[1]]))
        to12 = Z.mor(Z.free(1), Z.cyclic(12), Mat.from_rows([[1]]))
        psi = Z.colift_along_epi(to6, to12)
        assert psi is not None
        assert Z.eq_mor(Z.compose(to12, psi), to6)


class TestMonoEpiIso:
    def test_examples(self):
        f = x2()
        assert Z.is_mono(f) and not Z.is_epi(f) and not Z.is_iso(f)
        ident = Z.identity(Z.cyclic(7))
        assert Z.is_iso(ident)
        assert Z.eq_mor(Z.invert(ident), ident)
        proj = Z.mor(Z.cyclic(4), Z.cyclic(2), Mat.from_rows([[1]]))
        assert Z.is_epi(proj) and not Z.is_mono(proj)

    def test_invert_rejects_non_iso(self):
        with pytest.raises(NotInvertible):
            Z.invert(x2())

    def test_invert_roundtrip(self):
        for eng, size in ENGINES:
            for i in range(30):
                rng = rng_for(51, "inv", i)
                m = eng.random_object(rng, size)
                f = eng.random_morphism(rng, m, m)
                if eng.is_iso(f):
                    g = eng.invert(f)
                    assert eng.eq_mor(eng.compose(f, g), eng.identity(m))

    @pytest.mark.parametrize("theory", [
        PPrimaryTheory(2), PPrimaryTheory(3), FixtureTheory(2),
        SinkSupportTheory(QQ), SinkSupportTheory(PrimeField(2)),
    ], ids=["p2", "p3", "fixture", "a2-q", "a2-f2"])
    def test_inverse_agrees_with_mono_and_epi(self, theory):
        eng = theory.engine
        isos = 0
        for i in range(150):
            rng = rng_for(53, "inverse", i)
            m, n = theory.random_object(rng), theory.random_object(rng)
            for f in (eng.random_morphism(rng, m, n), eng.random_morphism(rng, m, m),
                      eng.identity(m), theory.saturate(m)[1]):
                g = eng.inverse(f)
                assert eng.is_iso(f) == (g is not None) == (eng.is_mono(f) and eng.is_epi(f))
                if g is not None:
                    isos += 1
                    assert eng.eq_mor(eng.compose(f, g), eng.identity(f.src))
                    assert eng.eq_mor(eng.compose(g, f), eng.identity(f.dst))
        # isomorphisms beyond the identities, and morphisms that are not ones
        assert 150 < isos < 600


def _z_memo_case():
    """A fresh integer engine with a consistent and an inconsistent system
    and an invertible and a non-invertible morphism."""
    eng = FiniteAbelianEngine()
    A = Mat.from_rows([[2, 0], [0, 3]])
    c6 = eng.cyclic(6)
    return (eng, A, Mat.from_rows([[4, 6]]), Mat.from_rows([[1, 0]]),
            eng.mor(c6, c6, Mat.from_rows([[5]])), eng.mor(c6, c6, Mat.from_rows([[2]])))


def _a2_memo_case():
    """The same over Q in the quiver engine."""
    eng = A2Engine(QQ)
    A = Mat.from_rows([[1, 2], [2, 4]])
    m = eng.interval(2)
    return (eng, A, Mat.from_rows([[3, 6]]), Mat.from_rows([[1, 0]]),
            eng.scale(eng.identity(m), 2), eng.zero_morphism(m, m))


def _count(monkeypatch, owner, name):
    """Count the calls of owner.name (the original still runs)."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestMemo:
    def test_computes_once_per_key_none_included(self):
        memo, calls = category.Memo(), []

        def compute(key):
            calls.append(key)
            return None if key == "none" else key * 2

        assert [memo.get_or(k, compute) for k in ("a", "none", "a", "none")] == ["aa", None] * 2
        assert calls == ["a", "none"] and memo == {"a": "aa", "none": None}

    def test_a_computation_that_raises_stores_nothing(self):
        memo = category.Memo()

        def fail(key):
            raise ContractViolation(key)

        for _ in range(2):
            with pytest.raises(ContractViolation):
                memo.get_or("k", fail)
        assert memo == {} and memo.get_or("k", str.upper) == "K"


@pytest.mark.parametrize("case", [_z_memo_case, _a2_memo_case], ids=["z", "a2-q"])
class TestSolutionAndInverseMemos:
    """An engine solves each system and inverts each morphism once; a repeat
    returns the checked value the first call stored."""

    def test_a_repeat_solve_returns_the_stored_solution(self, case, monkeypatch):
        eng, A, B, B_bad, _, _ = case()
        solves = _count(monkeypatch, category, "_solve")
        X = eng.solve(A, B)
        assert X is not None and eng.ring.mul(X, A).data == eng.ring.reduce_mat(B).data
        assert eng.solve(Mat(A.rows, A.cols, A.data), Mat(B.rows, B.cols, B.data)) is X
        assert eng.solve(A, B_bad) is None and eng.solve(A, B_bad) is None
        assert len(solves) == 2
        assert eng._solutions == {(A, B): X, (A, B_bad): None}
        # inv reads the same memo
        assert eng.inv(A) is eng.inv(A)
        assert len(solves) == 3

    def test_a_repeat_inverse_returns_the_stored_inverse(self, case, monkeypatch):
        eng, _, _, _, iso, non_iso = case()
        colifts = _count(monkeypatch, eng, "_colift_candidate")
        g = eng.inverse(iso)
        assert g is not None and eng.eq_mor(eng.compose(g, iso), eng.identity(iso.dst))
        assert eng.invert(iso) is g and eng.is_iso(iso)
        assert eng.inverse(non_iso) is None and not eng.is_iso(non_iso)
        with pytest.raises(NotInvertible):
            eng.invert(non_iso)
        assert len(colifts) == 2
        assert eng._inverses == {iso: g, non_iso: None}

    def test_a_wrong_solution_raises_and_is_not_stored(self, case, monkeypatch):
        eng, A, B, _, _, _ = case()
        H, E, pivots = eng._eliminate(A)
        # an echelon whose transform is off by a factor 2 gives X*A = 2B
        wrong = (H, eng.ring.scale(E, 2), pivots)
        monkeypatch.setattr(eng, "_eliminate", lambda _: wrong)
        for _ in range(2):
            with pytest.raises(ContractViolation):
                eng.solve(A, B)
        assert eng._solutions == {}

    def test_inverse_checks_the_other_side(self, case, monkeypatch):
        # a colift is kept as the inverse of f only if it also inverts f on
        # the other side
        eng, _, _, _, iso, _ = case()
        monkeypatch.setattr(eng, "colift_along_epi",
                            lambda f, epi: eng.zero_morphism(epi.dst, f.dst))
        assert eng.inverse(iso) is None and eng._inverses == {iso: None}


class TestHomGroup:
    def test_hom_z4_z6(self):
        hom = Z.hom_group(Z.cyclic(4), Z.cyclic(6))
        assert hom.invariants() == ("Z", 0, (2,))
        # brute-force oracle: morphisms Z/4 -> Z/6 are images k with 4k = 0 mod 6
        valid = sorted(k for k in range(6) if (4 * k) % 6 == 0)
        assert valid == [0, 3]
        assert Z.order(hom.obj) == len(valid)

    def test_hom_from_z_is_the_module(self):
        for i in range(10):
            m = Z.random_object(rng_for(61, "homz", i), 3)
            hom = Z.hom_group(Z.free(1), m)
            assert hom.invariants() == Z.invariants(m)

    def test_quiver_hom_vanishes(self):
        hom = A2.hom_group(A2.simple_source(), A2.interval())
        assert hom.is_zero_group()

    def test_roundtrip_and_additivity(self):
        for eng, size in ENGINES:
            for i in range(20):
                rng = rng_for(71, "rt", eng.name, i)
                m = eng.random_object(rng, size)
                n = eng.random_object(rng, size)
                hom = eng.hom_group(m, n)
                elems = hom.enumerate_elements(cap=64)
                if elems is None:
                    elems = [random_coeffs(eng, hom, rng) for _ in range(50)]
                for c in elems:
                    back = hom.encode(hom.decode(c))
                    assert eng.eq_mor(hom.decode(back), hom.decode(c))
                a, b = random_coeffs(eng, hom, rng), random_coeffs(eng, hom, rng)
                fsum = eng.add(hom.decode(a), hom.decode(b))
                assert eng.eq_mor(hom.decode(hom.encode(fsum)),
                                  hom.decode(tuple(x + y for x, y in zip(a, b))))

    def test_decode_is_the_basis_combination(self):
        # decode multiplies by the basis rows; the sum of the scaled basis
        # morphisms is the same morphism, entry for entry
        z, a2q = ZModuleEngine(), A2Engine(QQ)
        infinite = (z, z.free(1), z.obj_from_divisors([6], free_rank=1))
        zero = [(z, z.cyclic(2), z.free(1)), (A2, A2.simple_source(), A2.interval())]
        assert z.hom_group(*infinite[1:]).invariants() == ("Z", 1, (6,))
        assert [eng.hom_group(m, n).ngens for eng, m, n in zero] == [0, 0]
        cases = [infinite, *zero]
        for k, (eng, size) in enumerate(ENGINES + [(a2q, 2)]):
            for i in range(10):
                rng = rng_for(75, "codec", k, i)
                cases.append((eng, eng.random_object(rng, size), eng.random_object(rng, size)))
        for j, (eng, m, n) in enumerate(cases):
            hom = eng.hom_group(m, n)
            rng = rng_for(76, "codec", j)
            for _ in range(5):
                coeffs = random_coeffs(eng, hom, rng)
                total = eng.zero_morphism(m, n)
                for c, b in zip(coeffs, hom.basis):
                    total = eng.add(total, eng.scale(b, c))
                assert hom.decode(coeffs) == total

    def test_only_decode_builds_morphisms(self, monkeypatch):
        for eng, m, n in [(FA, FA.cyclic(4), FA.cyclic(6)), (A2, A2.interval(2), A2.interval())]:
            calls = []
            build = eng._mor_from_vector
            monkeypatch.setattr(eng, "_mor_from_vector",
                                lambda *args: calls.append(args) or build(*args))
            hom = eng.hom_group(m, n)
            assert not hom.is_zero_group() and hom.describe()
            assert calls == []
            hom.decode((1,) * hom.ngens)
            assert len(calls) == 1

    def test_carrier_bijections(self):
        # the identity of Hom(M, N) read in a second copy of the carrier is
        # bijective; the zero map only on the zero carrier
        for eng, size in ENGINES + [(A2Engine(QQ), 2)]:
            for i in range(20):
                rng = rng_for(73, "bij", eng.name, i)
                m, n = eng.random_object(rng, size), eng.random_object(rng, size)
                hom, copy = eng.hom_group(m, n), eng.hom_group(m, n)
                unit = [tuple(int(j == k) for j in range(hom.ngens)) for k in range(hom.ngens)]
                same = [copy.encode(hom.decode(v)) for v in unit]
                assert hom_map_is_bijective(hom, copy, same)
                zero = [(0,) * copy.ngens for _ in unit]
                assert hom_map_is_bijective(hom, copy, zero) == hom.is_zero_group()
        small = A2.hom_group(A2.interval(), A2.interval())
        big = A2.hom_group(A2.interval(2), A2.interval(2))
        assert not hom_map_is_bijective(small, big, [(1, 0, 0, 0)])


class TestExt1:
    def test_ext_cyclic_into_z(self):
        for p in (2, 3, 5):
            ext = Z.ext1_group(Z.cyclic(p), Z.free(1))
            assert ext.invariants() == ("Z", 0, (p,))

    def test_free_is_projective(self):
        for i in range(10):
            rng = rng_for(81, "proj", i)
            n = Z.random_object(rng, 3)
            assert Z.ext1_group(Z.free(rng.randrange(0, 3)), n).is_zero_group()

    def test_quiver_simples(self):
        # the unique nonsplit extension glues the sink simple under the
        # source simple; the sink simple itself is projective
        assert A2.ext1_group(A2.simple_source(), A2.simple_sink()).invariants() == ("F101", 1)
        assert A2.ext1_group(A2.simple_sink(), A2.simple_source()).is_zero_group()

    def test_quiver_euler_form_oracle(self):
        for i in range(30):
            rng = rng_for(91, "euler", i)
            v = A2.random_object(rng, 3)
            u = A2.random_object(rng, 3)
            hom = A2.hom_group(v, u)
            ext = A2.ext1_group(v, u)
            euler = v.d1 * u.d1 + v.d2 * u.d2 - v.d1 * u.d2
            assert hom.dim - ext.dim == euler

    def test_quiver_projectives(self):
        for i in range(10):
            rng = rng_for(92, "qproj", i)
            p = random_projective(rng, 2)
            u = A2.random_object(rng, 3)
            assert A2.ext1_group(p, u).is_zero_group()


class TestHomology:
    def test_examples(self):
        f = Z.mor(Z.free(1), Z.free(1), Mat.from_rows([[4]]))
        proj = Z.mor(Z.free(1), Z.cyclic(2), Mat.from_rows([[1]]))
        h = Z.homology_at(f, proj)
        assert Z.invariants(h) == ("Z", 0, (2,))
        b = Z.cyclic(2)
        h2 = Z.homology_at(Z.zero_morphism(Z.zero_object(), b),
                           Z.zero_morphism(b, Z.zero_object()))
        assert Z.invariants(h2) == ("Z", 0, (2,))

    def test_composite_must_vanish(self):
        ident = Z.identity(Z.free(1))
        with pytest.raises(CompositeNotZero):
            Z.homology_at(ident, ident)

    def test_random_ses_has_zero_homology(self):
        for eng, size in ENGINES:
            for i in range(40):
                ses = eng.random_ses(rng_for(101, "ses", eng.name, i), size)
                assert is_exact_ses(eng, ses)
                assert eng.is_zero_obj(eng.kernel_emb(ses.iota).src)
                assert eng.is_zero_obj(eng.homology_at(ses.iota, ses.pi))
                assert eng.is_zero_obj(eng.cokernel_proj(ses.pi).dst)


class TestRandomness:
    def test_deterministic_in_seed(self):
        for eng, size in ENGINES:
            a = eng.random_object(rng_for(5, "det"), size)
            b = eng.random_object(rng_for(5, "det"), size)
            assert a == b
            f = eng.random_morphism(rng_for(6, "det"), a, a)
            g = eng.random_morphism(rng_for(6, "det"), a, a)
            assert eng.eq_mor(f, g)

    def test_size_bound_one_is_small(self):
        for i in range(20):
            m = FA.random_object(rng_for(7, "small", i), 1)
            rank, divisors = FA.invariants(m)[1:]
            assert rank == 0 and len(divisors) <= 1
