"""The A2 representation engine and its sink-support localization."""

import dataclasses
from fractions import Fraction
from functools import partial

import pytest

from serreq import quiver
from serreq.category import rng_for
from serreq.errors import EngineMismatch, InputValidationError, NotSaturatedError
from serreq.linalg import Mat, PrimeField, QQ, _solve, f_rref
from serreq.quiver import A2Engine, SinkSupportTheory

F = PrimeField(101)
E = A2Engine(F)
TH = SinkSupportTheory(F)


class TestHomConstraints:
    @pytest.mark.parametrize("field", [QQ, F, PrimeField(2)], ids=["q", "f101", "f2"])
    def test_matrix_means_what_it_says(self, field):
        # vec(f1, f2)*C is vec(f1*beta - alpha*f2), matrices flattened row
        # by row and in turn, for V = (alpha) and U = (beta)
        eng = A2Engine(field)
        rng = rng_for(1012, "hc", field.name)

        def rand(r, c):
            return Mat(r, c, tuple(tuple(eng._random_entry(rng) for _ in range(c))
                                   for _ in range(r)))

        def vec(*mats):
            flat = tuple(x for a in mats for row in a.data for x in row)
            return field.reduce_mat(Mat(1, len(flat), (flat,)))

        for _ in range(60):
            v, u = eng.random_object(rng, 3), eng.random_object(rng, 3)
            f1, f2 = rand(v.d1, u.d1), rand(v.d2, u.d2)
            lhs = field.mul(vec(f1, f2), eng._constraint_matrix(v, u))
            assert lhs == vec(field.sub(field.mul(f1, u.alpha), field.mul(v.alpha, f2)))


class TestMembership:
    def test_examples(self):
        assert TH.is_in_c(E.simple_source())
        assert not TH.is_in_c(E.interval())
        assert TH.is_in_c(E.zero_object())

    def test_thickness_sampled(self):
        for i in range(100):
            ses = TH.random_ses(rng_for(11, "thick", i))
            assert TH.is_in_c(ses.iota.dst) == (TH.is_in_c(ses.sub) and TH.is_in_c(ses.pi.dst))


class TestHC:
    def test_examples(self):
        v = E.obj(1, 1, Mat.zeros(1, 1))
        emb = TH.h_c(v)
        assert (emb.src.d1, emb.src.d2) == (1, 0)
        assert E.is_mono(emb)
        assert E.is_zero_obj(TH.h_c(E.interval()).src)
        wedge = E.obj(2, 1, Mat.from_rows([[1], [0]]))
        assert (TH.h_c(wedge).src.d1, TH.h_c(wedge).src.d2) == (1, 0)

    def test_maximality_sampled(self):
        for i in range(50):
            rng = rng_for(12, "max", i)
            v = TH.random_object(rng)
            t = E.simple_source(rng.randrange(0, 3))
            f = E.random_morphism(rng, t, v)
            emb = E.image_emb(f)
            assert TH.is_in_c(emb.src)
            assert E.lift_along_mono(emb, TH.h_c(v)) is not None


class TestSaturate:
    def test_example_with_cokernel(self):
        v = E.obj(1, 1, Mat.zeros(1, 1))
        w, eta = TH.saturate(v)
        assert E.invariants(w) == ("a2", "F101", 1, 1, 1)
        coker = E.cokernel_proj(eta).dst
        assert (coker.d1, coker.d2) == (1, 0) and TH.is_in_c(coker)
        assert not E.is_epi(eta)

    def test_c_collapses(self):
        w, _ = TH.saturate(E.simple_source(2))
        assert E.is_zero_obj(w)

    def test_saturated_fixed_point(self):
        w, eta = TH.saturate(E.interval())
        assert E.is_iso(eta)

    def test_kernel_cokernel_in_c_sampled(self):
        saw_non_epi = False
        for i in range(100):
            rng = rng_for(13, "sat", i)
            v = TH.random_object(rng)
            w, eta = TH.saturate(v)
            assert TH.is_in_c(E.kernel_emb(eta).src)
            assert TH.is_in_c(E.cokernel_proj(eta).dst)
            assert TH.is_saturated(w)
            if not E.is_epi(eta):
                saw_non_epi = True
        assert saw_non_epi, "the unit must not be assumed epic in this engine"

    def test_saturated_iff_unit_iso(self):
        for i in range(100):
            rng = rng_for(14, "iso", i)
            v = TH.random_object(rng)
            _, eta = TH.saturate(v)
            assert TH.is_saturated(v) == E.is_iso(eta)

    def test_adjunction_bijection_oracle(self):
        # Hom(V, T) and Hom(W(V), T) match for saturated T on 20 random pairs
        for i in range(20):
            rng = rng_for(15, "adj", i)
            v = TH.random_object(rng)
            d = rng.randrange(0, 3)
            t = E.interval(d)
            w, eta = TH.saturate(v)
            hom_v = E.hom_group(v, t)
            hom_w = E.hom_group(w, t)
            assert hom_v.dim == hom_w.dim
            for k in range(hom_w.dim):
                coeffs = tuple(1 if j == k else 0 for j in range(hom_w.dim))
                back = E.compose(eta, hom_w.decode(coeffs))
                assert hom_v.encode(back) is not None


class TestCanonicalEntries:
    """Every matrix the engine returns is canonical in its field, so
    eq_mor may compare vertex matrices entry by entry."""

    @staticmethod
    def matrices(*values):
        for v in values:
            if isinstance(v, quiver.A2Obj):
                yield v.alpha
            elif isinstance(v, Mat):
                yield v
            else:
                yield from v.maps

    @pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), F, QQ],
                             ids=lambda k: k.name)
    def test_every_result_is_canonical(self, field):
        eng, th = A2Engine(field), SinkSupportTheory(field)
        scalars = ([-1, field.p - 1, 2] if field.p else
                   [-1, Fraction(1, 2), Fraction(-3, 2), 2])
        entries = 0
        for i in range(30):
            rng = rng_for(2727, field.name, i)
            m, n, t = (eng.random_object(rng, 3) for _ in range(3))
            if not field.p and i % 2:
                # rational alphas, given with integral Fractions
                m = eng.obj(m.d1, m.d2, Mat(m.d1, m.d2, tuple(
                    tuple(Fraction(2 * x, rng.choice([1, 2, 3])) for x in r)
                    for r in m.alpha.data)))
            hom = eng.hom_group(m, n)
            f, g = eng.random_morphism(rng, m, n), eng.random_morphism(rng, m, n)
            h = eng.random_morphism(rng, n, t)
            c = rng.choice(scalars)
            kernel, coker = eng.kernel_emb(f), eng.cokernel_proj(f)
            # a morphism that factors through the kernel, and one through
            # the cokernel, so that the lift and the colift exist
            x = eng.random_morphism(rng, t, kernel.src)
            y = eng.random_morphism(rng, coker.dst, t)
            lift = eng.lift_along_mono(eng.compose(x, kernel), kernel)
            colift = eng.colift_along_epi(eng.compose(coker, y), coker)
            assert lift is not None and colift is not None
            w, eta = th.saturate(m)
            wn, _ = th.saturate(n)
            phi = eng.random_morphism(rng, m, wn)
            R, E_, _ = f_rref(field, eng._constraint_matrix(m, n))
            values = [m, n, t, *hom.basis, f, g, h, eng.compose(f, h), eng.add(f, g),
                      eng.sub(f, g), eng.scale(f, c), eng.scale(eng.scale(f, c), c),
                      kernel, kernel.src, coker, coker.dst, lift, colift, w, eta,
                      th.extend_along_unit(phi), R, E_]
            for a in self.matrices(*values):
                assert field.reduce_mat(a) is a, (i, a)
                entries += a.rows * a.cols
        # the samples hold matrices with entries, not only empty ones
        assert entries > 1000

    @pytest.mark.parametrize("field", [PrimeField(2), F, QQ], ids=lambda k: k.name)
    def test_own_constructions_scan_no_matrix(self, field, monkeypatch):
        # the engine's own objects, the unit and H_C equal what obj and mor
        # build from the same matrices, and are built without them
        eng, th = A2Engine(field), SinkSupportTheory(field)
        rng = rng_for(2929, field.name)
        samples = [eng.random_object(rng, 3) for _ in range(30)]

        def built():
            return ([eng.zero_object(), *th.probe_objects()]
                    + [f(d) for d in range(4)
                       for f in (eng.simple_source, eng.simple_sink, eng.interval)]
                    + [(th._reflect(m), th.h_c(m)) for m in samples])

        def scanned():
            objs = [eng.obj(0, 0, Mat.zeros(0, 0)), eng.obj(0, 0, Mat.zeros(0, 0)),
                    eng.obj(1, 0, Mat.zeros(1, 0)), eng.obj(0, 1, Mat.zeros(0, 1)),
                    eng.obj(1, 1, Mat.identity(1)), eng.obj(1, 1, Mat.zeros(1, 1)),
                    eng.obj(2, 1, Mat.from_rows([[1], [0]]))]
            objs += [o for d in range(4) for o in (eng.obj(d, 0, Mat.zeros(d, 0)),
                                                   eng.obj(0, d, Mat.zeros(0, d)),
                                                   eng.obj(d, d, Mat.identity(d)))]
            maps = []
            for m in samples:
                w = eng.obj(m.d2, m.d2, Mat.identity(m.d2))
                k = eng.kernel(m.alpha)
                sub = eng.obj(k.rows, 0, Mat.zeros(k.rows, 0))
                maps.append(((w, eng.mor(m, w, m.alpha, Mat.identity(m.d2))),
                             eng.mor(sub, m, k, Mat.zeros(0, m.d2))))
            return objs + maps

        expected = scanned()
        for name in ("obj", "mor"):
            monkeypatch.setattr(eng, name, lambda *args, name=name: pytest.fail(name))
        assert built() == expected

    def test_decoded_entries_are_canonical(self):
        for field, entry, expected in ((QQ, "4/2", 2), (QQ, "-6/3", -2), (QQ, "1/2", Fraction(1, 2)),
                                       (QQ, 7, 7), (F, "1/2", 51), (F, -1, 100)):
            got = A2Engine(field).decode_entry(entry)
            assert got == expected and type(got) is type(expected), (field, entry)


class TestReflectionMemo:
    """saturate is computed once per object and theory instance."""

    def _count_intervals(self, monkeypatch, th):
        calls = []
        interval = th.engine.interval

        def counting(d=1):
            calls.append(d)
            return interval(d)

        monkeypatch.setattr(th.engine, "interval", counting)
        return calls

    def test_equal_objects_share_one_reflection(self, monkeypatch):
        th = SinkSupportTheory(F)
        calls = self._count_intervals(monkeypatch, th)
        first = th.saturate(th.engine.obj(2, 1, Mat.from_rows([[1], [3]])))
        assert th.saturate(th.engine.obj(2, 1, Mat.from_rows([[1], [3]]))) is first
        assert calls == [1]

    def test_a_fresh_theory_recomputes(self, monkeypatch):
        m = E.obj(2, 1, Mat.from_rows([[1], [3]]))
        counts = []
        for _ in range(2):
            th = SinkSupportTheory(F)
            calls = self._count_intervals(monkeypatch, th)
            th.saturate(m)
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_a_failed_call_is_not_stored(self):
        th = SinkSupportTheory(F)
        foreign = A2Engine(QQ).interval(1)
        for _ in range(3):
            with pytest.raises(EngineMismatch):
                th.saturate(foreign)

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), F], ids=["q", "f2", "f101"])
    def test_warm_theory_agrees_with_fresh(self, field):
        warm = SinkSupportTheory(field)
        objects = [warm.random_object(rng_for(808, field.name, i)) for i in range(200)]
        for m in objects:
            warm.saturate(m)
        for m in objects:
            assert warm.saturate(dataclasses.replace(m)) == SinkSupportTheory(field).saturate(m)


class TestEchelonMemo:
    """Each field elimination runs once per matrix and engine."""

    def _count_rrefs(self, monkeypatch):
        calls = []

        def counting(field, A):
            calls.append(A)
            return f_rref(field, A)

        monkeypatch.setattr(quiver, "f_rref", counting)
        return calls

    def test_equal_matrices_share_one_elimination(self, monkeypatch):
        calls = self._count_rrefs(monkeypatch)
        eng = A2Engine(F)
        a, b = Mat.from_rows([[1, 2], [3, 4]]), Mat.from_rows([[1, 2], [3, 4]])
        assert a is not b
        eng.kernel(a)
        eng.rank(b)
        eng.solve(a, Mat.from_rows([[5, 6]]))
        eng.inv(b)
        assert len(calls) == 1

    def test_theory_checks_share_the_engine_memo(self, monkeypatch):
        calls = self._count_rrefs(monkeypatch)
        th = SinkSupportTheory(F)
        v = th.engine.obj(2, 2, Mat.from_rows([[1, 2], [3, 4]]))
        w = th.engine.obj(2, 2, Mat.from_rows([[1, 2], [3, 4]]))
        assert th.is_saturated(v) and th.is_saturated(w)
        th.extend_along_unit(th.engine.identity(w))
        th.h_c(v)
        assert len(calls) == 1

    def test_a_fresh_engine_recomputes(self, monkeypatch):
        calls = self._count_rrefs(monkeypatch)
        a = Mat.from_rows([[1, 2], [3, 4]])
        for _ in range(2):
            A2Engine(F).rank(a)
        assert len(calls) == 2

    def test_integral_fractions_hit_the_int_entry(self, monkeypatch):
        calls = self._count_rrefs(monkeypatch)
        eng = A2Engine(QQ)
        a = Mat.from_rows([[Fraction(2), Fraction(1, 2)], [Fraction(-3), 0]])
        b = Mat.from_rows([[2, Fraction(1, 2)], [-3, 0]])
        assert a == b and hash(a) == hash(b)
        assert eng.rref(a) is eng.rref(b)
        assert len(calls) == 1 and list(eng._echelons) == [a]

    @pytest.mark.parametrize("field", [QQ, PrimeField(2), F], ids=["q", "f2", "f101"])
    def test_warm_engine_agrees_with_linalg(self, field):
        def entry(rng):
            if rng.randrange(3) == 0:
                return 0
            if field.p:
                return rng.randrange(-field.p, 2 * field.p)
            return Fraction(rng.randint(-2, 2), rng.randint(1, 2))

        cases = []
        for i in range(200):
            rng = rng_for(909, field.name, i)
            m = rng.randrange(0, 5)
            n = m if rng.randrange(2) else rng.randrange(0, 5)
            A = Mat(m, n, tuple(tuple(entry(rng) for _ in range(n)) for _ in range(m)))
            k = rng.randrange(1, 3)
            B = Mat(k, n, tuple(tuple(entry(rng) for _ in range(n)) for _ in range(k)))
            if rng.randrange(2):
                # half the right-hand sides lie in the row space
                B = field.mul(Mat(k, m, tuple(tuple(entry(rng) for _ in range(m))
                                              for _ in range(k))), A)
            cases.append((A, B))
        warm = A2Engine(field)
        for A, _ in cases:
            warm.rref(A)
        results = {"solve": 0, "inv": 0}
        for A, B in cases:
            A = dataclasses.replace(A)
            # the reference kernel, rank, solve and inverse, read off a fresh f_rref
            _, E, pivots = f_rref(field, A)
            rank = len(pivots)
            assert warm.kernel(A) == Mat(A.rows - rank, A.rows, E.data[rank:])
            assert warm.rank(A) == rank
            fresh = partial(f_rref, field)
            inverse = (_solve(field, A, Mat.identity(A.rows), fresh) if A.rows == A.cols
                       else None)
            # a second call reads the memo the first one filled
            x = warm.solve(A, B)
            assert x == warm.solve(dataclasses.replace(A), B) == _solve(field, A, B, fresh)
            y = warm.inv(A)
            assert y == warm.inv(dataclasses.replace(A)) == inverse
            results["solve"] += x is None
            results["inv"] += y is None
        # both kinds of result occur, None included
        assert 0 < results["solve"] < 200 and 0 < results["inv"] < 200


class TestDecodeEntry:
    def test_fractions_over_a_prime_field(self):
        eng = A2Engine(PrimeField(5))
        assert eng.decode_entry("1/2") == 3
        assert eng.decode_entry("-7/3") == 1
        with pytest.raises(InputValidationError):
            eng.decode_entry("1/5")
        assert A2Engine(QQ).decode_entry("-7/3") == Fraction(-7, 3)


class TestIsSaturated:
    def test_examples(self):
        assert TH.is_saturated(E.interval())
        assert not TH.is_saturated(E.obj(1, 1, Mat.zeros(1, 1)))
        sink = E.simple_sink()
        assert not TH.is_saturated(sink)
        # the obstruction for the sink simple is an extension, not a Hom
        assert E.hom_group(E.simple_source(), sink).is_zero_group()
        assert E.ext1_group(E.simple_source(), sink).invariants() == ("F101", 1)


class TestExtendAlongUnit:
    def test_unit_extends_to_identity(self):
        v = E.obj(2, 1, Mat.from_rows([[1], [0]]))
        w, eta = TH.saturate(v)
        assert E.eq_mor(TH.extend_along_unit(eta), E.identity(w))

    def test_zero(self):
        v = E.obj(1, 1, Mat.zeros(1, 1))
        w, _ = TH.saturate(v)
        t = E.interval()
        assert E.eq_mor(TH.extend_along_unit(E.zero_morphism(v, t)),
                        E.zero_morphism(w, t))

    def test_solved_square(self):
        v = E.obj(1, 1, Mat.zeros(1, 1))
        t = E.interval()
        c = 37
        phi = E.mor(v, t, Mat.zeros(1, 1), Mat.from_rows([[c]]))
        psi = TH.extend_along_unit(phi)
        assert [a.data for a in psi.maps] == [((c,),), ((c,),)]
        _, eta = TH.saturate(v)
        assert E.eq_mor(E.compose(eta, psi), phi)

    def test_rejects_unsaturated_target(self):
        with pytest.raises(NotSaturatedError):
            TH.extend_along_unit(E.zero_morphism(E.interval(), E.simple_sink()))


class TestCogenerators:
    def test_examples(self):
        cogs = TH.c_cogenerators()
        assert [(t.d1, t.d2) for t in cogs] == [(1, 0), (2, 0)]
        assert all(TH.is_in_c(t) for t in cogs)


class TestFields:
    def test_engine_mismatch(self):
        other = A2Engine(PrimeField(7))
        with pytest.raises(EngineMismatch):
            E.identity(other.interval())

    def test_residues_stay_reduced(self):
        v = E.obj(1, 1, Mat.from_rows([[205]]))
        assert v.alpha.data == ((3,),)
        f = E.mor(v, v, Mat.from_rows([[-1]]), Mat.from_rows([[-1]]))
        assert f.maps[0].data == ((100,),)

    def test_rationals_engine(self):
        eq = A2Engine(QQ)
        th = SinkSupportTheory(QQ)
        v = eq.obj(2, 1, Mat.from_rows([[Fraction(1, 2)], [Fraction(1, 3)]]))
        w, eta = th.saturate(v)
        assert th.is_saturated(w)
        assert th.is_in_c(eq.kernel_emb(eta).src)
        for i in range(10):
            ses = th.random_ses(rng_for(16, "qq", i), 2)
            # exact: homology_at checks the endpoints and that the
            # composite vanishes
            assert eq.is_mono(ses.iota) and eq.is_epi(ses.pi)
            assert eq.is_zero_obj(eq.homology_at(ses.iota, ses.pi))
