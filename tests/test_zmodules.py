"""The integer engines: finite abelian groups, p-torsion theories, fixture."""

import dataclasses
import random
from itertools import product
from math import gcd, prod

import pytest

from brute_force import enumerate_elements
from serreq import category, linalg, zmodules
from serreq.category import Mor, rng_for
from serreq.errors import (
    ContractViolation, EngineMismatch, InputValidationError, NotSaturatedError,
    OracleUnsupported, ShapeError,
)
from serreq.linalg import ZZ, Mat
from serreq.zmodules import (
    FiniteAbelianEngine, FixtureTheory, PPrimaryTheory, ZModuleEngine, ZObj, diag_rows,
    finite_subobject_embeddings,
)

FA = FiniteAbelianEngine()
Z = ZModuleEngine()
TH = PPrimaryTheory(2)


def _counting(monkeypatch, module, name):
    """The arguments of every call of module.name, counted from now on."""
    calls = []
    kernel = getattr(module, name)

    def counting(A):
        calls.append(A)
        return kernel(A)

    monkeypatch.setattr(module, name, counting)
    return calls


def _in_lattice(rel: Mat, B: Mat) -> bool:
    return linalg.int_solve(rel, B) is not None


def _assert_valid_normal_form(rel: Mat, normal_form_data):
    """to_nf and from_nf are inverse isomorphisms between Z^gens/rel and
    the diagonal normal form with these divisors and free rank."""
    divisors, free_rank, to_nf, from_nf = normal_form_data
    k = len(divisors) + free_rank
    nf = diag_rows(divisors, k)
    assert ZZ.mul(from_nf, to_nf) == Mat.identity(k)
    assert _in_lattice(nf, ZZ.mul(rel, to_nf))
    assert _in_lattice(rel, ZZ.mul(nf, from_nf))
    assert _in_lattice(rel, ZZ.sub(ZZ.mul(to_nf, from_nf), Mat.identity(rel.cols)))


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


class TestOneSmithFormPerObject:
    def test_counted_smith_calls(self, monkeypatch):
        calls = _counting(monkeypatch, linalg, "smith")
        th = PPrimaryTheory(2)
        M = Mat.from_rows([[4, 6], [2, 9]])
        th.h_c(th.engine.obj(M))
        assert len(calls) == 1
        calls.clear()
        # the engine's one object with these relations already carries its
        # Smith form, and the reflection is read off it
        th.saturate(th.engine.obj(M))
        assert len(calls) == 0
        # a fresh theory builds a fresh engine: M's Smith form and nothing else
        fresh = PPrimaryTheory(2)
        fresh.saturate(fresh.engine.obj(M))
        assert len(calls) == 1
        calls.clear()
        # diagonal relations are put in normal form with no Smith form
        diagonal = PPrimaryTheory(2)
        diagonal.h_c(diagonal.engine.obj_from_divisors([4, 6, 9]))
        diagonal.saturate(diagonal.engine.obj_from_divisors([4, 6, 9]))
        assert len(calls) == 0

    def test_saturate_command_object(self, monkeypatch, tmp_path):
        # the input only; W(M) and H_C(M) are built in normal form and carry it
        import json

        from serreq.cli import main
        calls = _counting(monkeypatch, linalg, "smith")
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"M": {"relations": [[4, 6], [2, 9]], "gens": 2}}}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["saturate", "--input", str(path), "--out", str(tmp_path / "o.json")]) == 0
        assert len(calls) == 1

    def test_recorded_normal_form_matches_smith(self):
        rng = random.Random(515)
        chains = [((), 0), ((), 2), ((2, 2), 0), ((3, 3, 6), 1), ((4,), 0)]
        for _ in range(200):
            chain, d = [], 1
            for _ in range(rng.randrange(0, 5)):
                d *= rng.choice([1, 1, 2, 3, 5])
                chain.append(d)
            chains.append((tuple(x for x in chain if x > 1), rng.randrange(0, 3)))
        for divisors, free_rank in chains:
            # a fresh engine, so that this call computes the normal form
            m = ZModuleEngine().obj_from_divisors(divisors, free_rank)
            assert m.normal_form_data == linalg.presentation_normal_form(m.relations)
            assert (m.divisors, m.rank) == (divisors, free_rank)

    def test_cache_is_not_a_field(self):
        a, b = ZObj(Mat.from_rows([[4]])), ZObj(Mat.from_rows([[4]]))
        assert a.divisors == (4,)
        assert a == b and hash(a) == hash(b)

    def test_invariants_match_sympy(self):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        rng = random.Random(20240)
        shapes = [(0, 3), (3, 0), (0, 0)] + [(rng.randrange(0, 6), rng.randrange(0, 6))
                                             for _ in range(297)]
        for rows, cols in shapes:
            data = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
            rel = Mat(rows, cols, tuple(tuple(r) for r in data))
            factors = [int(d) for d in invariant_factors(Matrix(rows, cols, sum(data, [])),
                                                          domain=ZZ)]
            nonzero = [d for d in factors if d]
            expected = ("Z", cols - len(nonzero), tuple(d for d in nonzero if d != 1))
            assert Z.invariants(ZObj(rel)) == expected, data


def _counting_kernels(monkeypatch):
    """The inputs of every linalg.smith and linalg.row_echelon call from
    now on, wherever serreq calls them (zmodules imports row_echelon by
    name)."""
    calls = {"smith": [], "row_echelon": []}
    for name, seen in calls.items():
        kernel = getattr(linalg, name)

        def counting(A, kernel=kernel, seen=seen):
            seen.append(A)
            return kernel(A)

        monkeypatch.setattr(linalg, name, counting)
        if hasattr(zmodules, name):
            monkeypatch.setattr(zmodules, name, counting)
    return calls


def _run_cli(tmp_path, kind, objects, argv):
    import json

    from serreq.cli import main
    path = tmp_path / "in.json"
    path.write_text(json.dumps({"engine": {"kind": kind, "p": 2}, "objects": {
        name: {"relations": rel, "gens": len(rel[0])} for name, rel in objects.items()}}),
        encoding="utf-8")
    return main([*argv, "--input", str(path), "--out", str(tmp_path / "out.json")])


class TestWorkCounts:
    """Eliminations made by whole commands, counted around cli.main."""

    M = [[4, 6, 0], [2, 9, 3], [0, 3, 6]]   # Z/3 x Z/36 up to isomorphism
    N = [[6, 3], [3, 6]]                    # Z/3 x Z/9
    DENSE = [[6, 4, 10, 2, 7, 3], [3, 9, 0, 6, 1, 8], [2, 8, 4, 12, 5, 5],
             [5, 1, 7, 3, 9, 2], [8, 2, 6, 4, 0, 11], [1, 7, 3, 5, 2, 6]]

    def test_oracle_starts_no_smith_form_for_a_subgroup(self, monkeypatch, tmp_path):
        m = FiniteAbelianEngine().obj(Mat.from_rows(self.M))
        subgroups = {emb.src.relations for emb in finite_subobject_embeddings(FA, m)}
        assert len(subgroups) == 27
        calls = _counting_kernels(monkeypatch)
        argv = ["qhom", "--objects", "M", "N", "--oracle"]
        assert _run_cli(tmp_path, "finite_abelian", {"M": self.M, "N": self.N}, argv) == 0
        assert [A for A in calls["smith"] if A in subgroups] == []
        # the two inputs and the two Hom groups (shortcut and direct
        # limit), whatever the number of subgroups
        assert len(calls["smith"]) == 4

    def test_an_oracle_query_builds_one_subgroup_embedding(self, monkeypatch, tmp_path):
        # Z/12 has 6 subgroups, but only the terminal stage becomes an
        # embedding, and no stage is lifted into another
        counts = {"_subgroup_embedding": 0, "lift_along_mono": 0}
        for owner, name in ((zmodules, "_subgroup_embedding"),
                            (category.AbelianEngine, "lift_along_mono")):
            def counting(*args, original=getattr(owner, name), name=name):
                counts[name] += 1
                return original(*args)

            monkeypatch.setattr(owner, name, counting)
        argv = ["qhom", "--objects", "M", "N", "--oracle"]
        assert _run_cli(tmp_path, "finite_abelian", {"M": [[12]], "N": [[9]]}, argv) == 0
        assert counts == {"_subgroup_embedding": 1, "lift_along_mono": 0}

    @pytest.mark.parametrize("kind", ["finite_abelian", "fixture"])
    def test_saturate_eliminations(self, monkeypatch, tmp_path, kind):
        # one Smith form of the input, which also inverts its transform
        # V; the reflection is read off it and no other elimination runs
        calls = _counting_kernels(monkeypatch)
        assert _run_cli(tmp_path, kind, {"D": self.DENSE}, ["saturate"]) == 0
        assert {name: len(seen) for name, seen in calls.items()} == {
            "smith": 1, "row_echelon": 0}

    def test_saturating_suite_solves_against_no_diagonal_target(self, monkeypatch, tmp_path):
        # equality and well-definedness into a diagonal target, such as
        # every W(M), are divisibility tests; sampled objects carry the
        # normal form they were built from and diagonal ones need none, so
        # only the other objects the checks build take a Smith form
        from serreq.cli import main
        calls = _counting_kernels(monkeypatch)
        asking, systems = [], []
        for name in ("eq_mor", "is_well_defined"):
            method = getattr(ZModuleEngine, name)

            def asked(self, *args, method=method):
                asking.append(method)
                try:
                    return method(self, *args)
                finally:
                    asking.pop()

            monkeypatch.setattr(ZModuleEngine, name, asked)
        solve = category._solve

        def recording(ring, A, B, echelon):
            if asking:
                systems.append(A)
            return solve(ring, A, B, echelon)

        monkeypatch.setattr(category, "_solve", recording)
        argv = ["check", "--engine", "finite_abelian", "--p", "2", "--suite", "saturating",
                "--seed", "1", "--out", str(tmp_path / "r.json")]
        assert main(argv) == 0
        assert [A for A in systems if ZObj(A).moduli is not None] == []
        assert len(calls["smith"]) == 9

    def test_a_random_morphism_builds_no_hom_presentation(self, monkeypatch):
        eng = FiniteAbelianEngine()
        m, n = eng.obj(Mat.from_rows(self.M)), eng.obj(Mat.from_rows(self.N))
        made, presentations = [], []
        hom_group, kernel_mod_rows = eng.hom_group, eng.kernel_mod_rows

        def recording_hom_group(a, b):
            made.append(hom_group(a, b))
            return made[-1]

        def counting_kernel_mod_rows(A, R):
            presentations.append(A)
            return kernel_mod_rows(A, R)

        monkeypatch.setattr(eng, "hom_group", recording_hom_group)
        monkeypatch.setattr(eng, "kernel_mod_rows", counting_kernel_mod_rows)
        eng.random_morphism(rng_for(3, "hom"), m, n)
        [hom] = made
        assert "obj" not in hom.__dict__ and presentations == []
        # the first read builds it, and later reads share it
        assert not hom.is_zero_group()
        assert hom.invariants() == ("Z", 0, (3, 3, 3, 9))
        assert presentations == [hom.rows] and hom.__dict__["obj"] is hom.obj

    def test_a_warm_extension_eliminates_no_unit_system(self, monkeypatch):
        th = PPrimaryTheory(2)
        eng = th.engine
        m, t = eng.obj(Mat.from_rows(self.M)), eng.obj(Mat.from_rows(self.N))
        phi = eng.random_morphism(rng_for(4, "ext"), m, t)
        w, eta = th.saturate(m)
        calls = _counting_kernels(monkeypatch)
        psi = th.extend_along_unit(phi)
        assert eng.eq_mor(eng.compose(eta, psi), phi)
        # the colift along eta solves against eta's matrix over W's relations
        assert eta.maps[0].stack_below(w.relations) not in calls["row_echelon"]
        assert calls["smith"] == []


def _vec(*mats):
    """The matrices flattened row by row and in turn, as one row vector."""
    flat = tuple(x for a in mats for row in a.data for x in row)
    return Mat(1, len(flat), (flat,))


class TestHomConstraints:
    def test_matrices_mean_what_they_say(self, monkeypatch):
        # hom_group takes the left kernel of C, where vec(F, Y)*C is
        # vec(R_M*F - Y*R_N); _hom_modulus(g, N) sends vec(Y) to vec(Y*R_N)
        seen = []
        kernel = Z.kernel
        monkeypatch.setattr(Z, "kernel", lambda C: seen.append(C) or kernel(C))
        rng = random.Random(1011)

        def rand(r, c):
            return Mat(r, c, tuple(tuple(rng.randint(-5, 5) for _ in range(c))
                                   for _ in range(r)))

        fixed = [Z.zero_object(), Z.free(1), Z.free(2), Z.cyclic(4),
                 Z.obj_from_divisors([2, 6], free_rank=1)]
        drawn = [Z.random_object(rng_for(1011, "hc", i), 3) for i in range(10)]
        for m in fixed + drawn:
            for n in fixed + drawn[:5]:
                rm, rn = m.relations, n.relations
                seen.clear()
                Z.hom_group(m, n)
                F, Y = rand(m.gens, n.gens), rand(rm.rows, rn.rows)
                assert ZZ.mul(_vec(F, Y), seen[0]) == _vec(ZZ.sub(ZZ.mul(rm, F), ZZ.mul(Y, rn)))
                Y = rand(m.gens, rn.rows)
                assert ZZ.mul(_vec(Y), Z._hom_modulus(m.gens, n)) == _vec(ZZ.mul(Y, rn))


class TestLatticeShapes:
    def test_width_mismatch_is_a_shape_error(self):
        # Mat.stack_below raises it; the lattice operations do not restate it
        A, R = Mat.identity(2), Mat.from_rows([[2, 0, 0]])
        with pytest.raises(ShapeError):
            Z.kernel_mod_rows(A, R)
        with pytest.raises(ShapeError):
            Z.solve_mod_rows(A, R, Mat.from_rows([[1, 0]]))


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
            mid = TH.is_in_c(ses.iota.dst)
            ends = TH.is_in_c(ses.iota.src) and TH.is_in_c(ses.pi.dst)
            assert mid == ends


def _relation_matrices(seed, count):
    """Relation matrices up to 6 x 6 with entries in [-9, 9]: the empty
    shapes, zero matrices and rows, free objects (fewer rows than
    columns) and extra rows that are integer combinations of the others."""
    rng = random.Random(seed)
    out = [Mat.zeros(0, 0), Mat.zeros(0, 3), Mat.zeros(3, 0), Mat.zeros(2, 2),
           Mat.from_rows([[0, 0], [0, 5]]), Mat.from_rows([[1]])]
    while len(out) < count:
        cols = rng.randrange(0, 7)
        rows = [[rng.randint(-9, 9) for _ in range(cols)]
                for _ in range(rng.randrange(0, 6))]
        if rows and rng.randrange(3) == 0:
            rows[rng.randrange(len(rows))] = [0] * cols
        if rows and rng.randrange(3) == 0:
            coeffs = [rng.randint(-2, 2) for _ in rows]
            rows.append([sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(cols)])
        out.append(Mat(len(rows), cols, tuple(map(tuple, rows))))
    return out


def _is_power(d, p):
    while d % p == 0:
        d //= p
    return d == 1


class TestOrderFromHermite:
    """The order, and every question that needs no more than the order, is
    read from the Hermite basis of the relations unless the Smith form is
    known; both ways must give what the Smith form and sympy give."""

    THEORIES = [(PPrimaryTheory, 2), (PPrimaryTheory, 3),
                (FixtureTheory, 0), (FixtureTheory, 2), (FixtureTheory, 3)]

    @staticmethod
    def _sympy_order(rel):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        flat = [x for row in rel.data for x in row]
        nonzero = [int(d) for d in invariant_factors(Matrix(rel.rows, rel.cols, flat),
                                                     domain=ZZ) if d]
        return prod(nonzero) if len(nonzero) == rel.cols else None

    @staticmethod
    def _order_answers(engine, m):
        return (engine.order(m), engine.is_zero_obj(m),
                zmodules.ZGroup(engine, m).is_zero_group())

    def test_engines_agree_with_smith_and_sympy(self):
        for rel in _relation_matrices(18, 300):
            divisors, free_rank, _, _ = linalg.presentation_normal_form(rel)
            order = None if free_rank else prod(divisors)
            assert order == self._sympy_order(rel), rel
            expected = (order, order == 1, order == 1)
            for engine in (ZModuleEngine(), FiniteAbelianEngine()):
                m = engine.obj(rel)
                if order is None and isinstance(engine, FiniteAbelianEngine):
                    for question in (engine.order, engine.is_zero_obj,
                                     lambda m: zmodules.ZGroup(engine, m).is_zero_group()):
                        with pytest.raises(EngineMismatch):
                            question(m)
                    continue
                assert self._order_answers(engine, m) == expected, rel
                # the answers came from the Hermite basis, not a Smith form
                assert "normal_form_data" not in m.__dict__, rel
                assert m.normal_form_data[:2] == (divisors, free_rank)
                assert self._order_answers(engine, m) == expected, rel

    def test_theories_agree_with_smith(self):
        for rel in _relation_matrices(19, 200):
            divisors, free_rank, _, _ = linalg.presentation_normal_form(rel)
            for cls, p in self.THEORIES:
                th = cls(p)
                m = th.engine.obj(rel)
                if free_rank and cls is PPrimaryTheory:
                    for question in (th.is_in_c, th.is_saturated):
                        with pytest.raises(EngineMismatch):
                            question(m)
                    continue
                in_c = free_rank == 0 and (p == 0 or all(_is_power(d, p) for d in divisors))
                saturated = free_rank == 0 and gcd(prod(divisors), p) == 1
                assert (th.is_in_c(m), th.is_saturated(m)) == (in_c, saturated), (rel, p)
                assert "normal_form_data" not in m.__dict__, rel
                m.normal_form_data
                assert (th.is_in_c(m), th.is_saturated(m)) == (in_c, saturated), (rel, p)

    def test_infinite_rejected_by_the_finite_engine(self):
        for p in (2, 3):
            th = PPrimaryTheory(p)
            for question in (th.is_in_c, th.is_saturated, th.engine.order,
                             th.engine.is_zero_obj):
                with pytest.raises(EngineMismatch):
                    question(FA.free(1))


class TestHC:
    def test_z12(self):
        emb = TH.h_c(FA.cyclic(12))
        assert FA.invariants(emb.src) == ("Z", 0, (4,))
        assert FA.is_mono(emb)
        # the embedding is multiplication by 3 up to a unit mod 12
        assert emb.maps[0].data[0][0] % 3 == 0 and emb.maps[0].data[0][0] % 2 != 0

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


class TestReflectionFromNormalForm:
    """The reflection read off M's normal form against the one built as
    the cokernel of h_c(M) and brought to normal form: W(M) is the same
    object, and the two units differ by an automorphism of W(M)."""

    over_theories = pytest.mark.parametrize(
        "theory, p", [(PPrimaryTheory, 2), (PPrimaryTheory, 3), (FixtureTheory, 0),
                      (FixtureTheory, 2)],
        ids=["finite_abelian-2", "finite_abelian-3", "fixture-0", "fixture-2"])

    @staticmethod
    def _objects(th, seed):
        """Seeded objects, with free ranks 0 to 2 on the general engine."""
        eng = th.engine
        out = [eng.zero_object(), eng.cyclic(12), eng.obj_from_divisors([2, 6, 36])]
        if not isinstance(eng, FiniteAbelianEngine):
            out += [eng.free(2), eng.obj_from_divisors([3, 6], free_rank=2)]
        for i in range(60):
            rng = rng_for(seed, th.kind, th.p, i)
            divisors = eng._random_divisors(rng, 4, None)
            free_rank = 0 if isinstance(eng, FiniteAbelianEngine) else rng.randrange(0, 3)
            out.append(eng._scrambled_from_divisors(rng, divisors, free_rank))
        return out

    @over_theories
    def test_agrees_with_the_cokernel_of_h_c(self, theory, p):
        th = theory(p)
        eng = th.engine
        for m in self._objects(th, 2121):
            unit = th.saturate(m)
            w, eta = unit
            hc = th.h_c(m)
            proj = eng.cokernel_proj(hc)
            old_w, to_nf, _ = eng.normal_form(proj.dst)
            old_eta = eng.compose(proj, to_nf)
            assert w == old_w, m
            assert eng.is_well_defined(eta), m
            iso = eng.colift_along_epi(old_eta, eta)
            assert iso is not None and eng.is_iso(iso), m
            section = Mor(w, m, (unit.section,))
            assert eng.eq_mor(eng.compose(section, eta), eng.identity(w)), m
            assert eng.eq_mor(eng.compose(hc, eta), eng.zero_morphism(hc.src, w)), m
            assert eng.is_zero_obj(eng.cokernel_proj(eta).dst), m

    @over_theories
    def test_h_c_is_the_normal_form_embedding(self, theory, p):
        # h_c is the embedding of the p-parts into the normal form followed
        # by from_nf, entry for entry
        th = theory(p)
        eng = th.engine
        for m in self._objects(th, 2122):
            nf, _, from_nf = eng.normal_form(m)
            # p ** bit_length(d) exceeds d, so the gcd is the p-part of d
            cofactors = [1 if p == 0 else d // gcd(d, p ** d.bit_length()) for d in nf.divisors]
            gens = [i for i, (d, c) in enumerate(zip(nf.divisors, cofactors)) if c != d]
            sub = eng.obj_from_divisors([nf.divisors[i] // cofactors[i] for i in gens])
            emb = Mat(len(gens), nf.gens, tuple(
                tuple(cofactors[i] if j == i else 0 for j in range(nf.gens)) for i in gens))
            assert th.h_c(m) == eng.compose(Mor(sub, nf, (emb,)), from_nf), m


class TestReflectionMemo:
    """saturate is computed once per object and theory instance."""

    @staticmethod
    def _count_reflections(monkeypatch, th):
        """The objects th._reflect is called on from now on."""
        calls = []
        reflect = th._reflect

        def counting(m):
            calls.append(m)
            return reflect(m)

        monkeypatch.setattr(th, "_reflect", counting)
        return calls

    def test_equal_objects_share_one_reflection(self, monkeypatch):
        th = PPrimaryTheory(2)
        calls = self._count_reflections(monkeypatch, th)
        rel = Mat.from_rows([[4, 6], [2, 9]])
        first = th.saturate(ZObj(rel))
        # one reflection for both instances, and the memo's own value
        assert th.saturate(ZObj(Mat.from_rows([[4, 6], [2, 9]]))) is first
        assert len(calls) == 1

    def test_a_fresh_theory_recomputes(self, monkeypatch):
        m = ZObj(Mat.from_rows([[4, 6], [2, 9]]))
        counts = []
        for _ in range(2):
            th = PPrimaryTheory(2)
            calls = self._count_reflections(monkeypatch, th)
            th.saturate(m)
            th.saturate(m)
            counts.append(len(calls))
        assert counts == [1, 1]

    def test_a_failed_call_is_not_stored(self):
        th = PPrimaryTheory(2)
        z = ZObj(Mat.zeros(0, 1))
        for _ in range(3):
            with pytest.raises(EngineMismatch):
                th.saturate(z)
        assert z not in th._reflections

    @pytest.mark.parametrize("theory, p", [(PPrimaryTheory, 2), (PPrimaryTheory, 3),
                                           (FixtureTheory, 0), (FixtureTheory, 2)],
                             ids=["finite_abelian-2", "finite_abelian-3",
                                  "fixture-0", "fixture-2"])
    def test_warm_theory_agrees_with_fresh(self, theory, p):
        warm = theory(p)
        objects = [warm.random_object(rng_for(808, theory.kind, p, i)) for i in range(200)]
        for m in objects:
            warm.saturate(m)
        for m in objects:
            assert warm.saturate(dataclasses.replace(m)) == theory(p).saturate(m)


def _shears(rng, n, steps):
    """The identity followed by `steps` random shears row_i += +-row_j."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        c = rng.choice((-1, 1))
        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
    return Mat.from_rows(u)


def _dense(rng, divisors, steps):
    """U * diag(divisors) * V for sheared U and V, built as perfbench's
    saturate-wide objects are."""
    g = len(divisors)
    u = _shears(rng, g, steps)
    return ZZ.mul(ZZ.mul(u, diag_rows(divisors)), _shears(rng, g, steps))


# perfbench's fault (b) object: its unit used to reach 18,625 bits, so
# writing the report ran into the 4,300-digit limit of int -> str
FAULT_B_DIVISORS = (2, 3, 26, 10, 22, 28, 3, 8, 11, 25)


class TestDenseUnits:
    """W(M) and the unit of dense presentations whose cyclic orders are
    all nontrivial, against sympy's invariant factors."""

    @staticmethod
    def assert_reflection(rel):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        m = ZObj(rel)
        factors = invariant_factors(Matrix(rel.to_lists()), domain=ZZ)
        odd = (d // (d & -d) for d in map(int, factors))  # d & -d: the 2-part of d
        w, eta = TH.saturate(m)
        assert w.divisors == tuple(d for d in odd if d > 1)
        assert FA.is_well_defined(eta) and FA.is_epi(eta)
        ker, hc = FA.kernel_emb(eta), TH.h_c(m)
        assert FA.lift_along_mono(hc, ker) is not None
        assert FA.lift_along_mono(ker, hc) is not None

    def test_fault_b_object(self, tmp_path):
        import json

        from serreq.cli import main
        rel = _dense(random.Random("perfbench|fault-b"), FAULT_B_DIVISORS, 20)
        self.assert_reflection(rel)
        doc = {"engine": {"kind": "finite_abelian", "p": 2},
               "objects": {"M": {"relations": rel.to_lists(), "gens": rel.cols}}}
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["saturate", "--input", str(path), "--out", str(tmp_path / "o.json")]) == 0

    def test_sweep(self):
        rng = random.Random(4300)
        for _ in range(50):
            divisors = [rng.randint(1, 30) for _ in range(rng.randint(6, 8))]
            self.assert_reflection(_dense(rng, divisors, 12))


class TestEchelonMemo:
    """Each integer elimination and each Smith form runs once per matrix
    and engine."""

    def test_equal_matrices_share_one_elimination(self, monkeypatch):
        calls = _counting(monkeypatch, zmodules, "row_echelon")
        eng = FiniteAbelianEngine()
        a, b = Mat.from_rows([[4, 6], [2, 9]]), Mat.from_rows([[4, 6], [2, 9]])
        assert a is not b
        eng.kernel(a)
        eng.rank(b)
        assert eng.solve(a, Mat.from_rows([[8, 12]])) == Mat.from_rows([[2, 0]])
        assert eng.inv(b) is None
        # the lattice methods read the same memo; a full-rank row basis is H
        assert eng.row_basis(b) == eng.row_basis(a) == linalg.row_echelon(a)[0]
        assert len(calls) == 1

    def test_a_repeated_lift_solves_its_system_once(self, monkeypatch):
        systems = []

        def counting(ring, A, B, echelon):
            systems.append((A, B))
            return solve(ring, A, B, echelon)

        solve = category._solve
        monkeypatch.setattr(category, "_solve", counting)
        eng = FiniteAbelianEngine()
        m = eng.obj(Mat.from_rows([[4, 6], [2, 9]]))
        mono = eng.kernel_emb(eng.scale(eng.identity(m), 2))
        f = eng.compose(eng.scale(eng.identity(mono.src), 3), mono)
        systems.clear()
        first = eng.lift_along_mono(f, mono)
        assert first is not None and systems
        # the lift's own system: the mono stacked on its target's relations
        stacked = (mono.maps[0].stack_below(m.relations), f.maps[0])
        assert systems.count(stacked) == 1 and stacked in eng._solutions
        solved = len(systems)
        assert eng.lift_along_mono(f, mono) == first
        assert len(systems) == solved

    def test_equal_relations_share_one_smith_form(self, monkeypatch):
        calls = _counting(monkeypatch, linalg, "smith")
        th = PPrimaryTheory(2)
        eng = th.engine
        payload = {"relations": [[4, 6], [2, 9]], "gens": 2}
        m, n = eng.obj_from_payload(payload), eng.obj(Mat.from_rows([[4, 6], [2, 9]]))
        assert m is n
        eng.invariants(m)
        eng.normal_form(n)
        assert th.is_in_c(n) is False and th.is_saturated(m) is False
        th.h_c(n)
        # the reflection is read off the same Smith form
        th.saturate(eng.obj_from_payload(payload))
        assert len(calls) == 1

    def test_a_fresh_engine_recomputes(self, monkeypatch):
        echelons = _counting(monkeypatch, zmodules, "row_echelon")
        smiths = _counting(monkeypatch, linalg, "smith")
        rel = Mat.from_rows([[4, 6], [2, 9]])
        for _ in range(2):
            eng = FiniteAbelianEngine()
            eng.rank(rel)
            eng.invariants(eng.obj(rel))
        assert (len(echelons), len(smiths)) == (2, 2)

    @pytest.mark.parametrize("engine", [FiniteAbelianEngine, ZModuleEngine],
                             ids=["finite_abelian", "fpmod_z"])
    def test_warm_engine_agrees_with_fresh(self, engine):
        warm = engine()
        cases = []
        for i in range(200):
            rng = rng_for(919, engine.name, i)
            m = warm.random_object(rng, 3)
            rel = m.relations
            k = rng.randrange(1, 3)
            B = Mat(k, rel.cols, tuple(tuple(rng.randint(-9, 9) for _ in range(rel.cols))
                                       for _ in range(k)))
            if rng.randrange(2):
                # half the right-hand sides lie in the relation lattice
                B = ZZ.mul(Mat(k, rel.rows, tuple(tuple(rng.randint(-3, 3) for _ in range(rel.rows))
                                                   for _ in range(k))), rel)
            cases.append((m, B))
        for m, B in cases:
            warm.solve(m.relations, B)
            warm.kernel(m.relations)
            warm.normal_form(m)
        for m, B in cases:
            rel = Mat(m.relations.rows, m.relations.cols, m.relations.data)
            fresh = engine()
            assert warm.obj(rel) is m
            # a second call reads the memo the first one filled
            assert (warm.solve(rel, B) == warm.solve(rel, B) == fresh.solve(rel, B)
                    == linalg.int_solve(rel, B))
            inverse = (linalg.int_solve(rel, Mat.identity(rel.rows))
                       if rel.rows == rel.cols else None)
            assert warm.inv(rel) == warm.inv(rel) == fresh.inv(rel) == inverse
            _, E, pivots = linalg.row_echelon(rel)
            kernel = Mat(rel.rows - len(pivots), rel.rows, E.data[len(pivots):])
            assert warm.kernel(rel) == fresh.kernel(rel) == kernel
            # the sampled object carries a normal form of its own; its
            # transforms need not be the Smith form's, only valid
            assert (m.normal_form_data[:2] == fresh.obj(rel).normal_form_data[:2]
                    == linalg.presentation_normal_form(rel)[:2])
            _assert_valid_normal_form(rel, m.normal_form_data)


class TestSampledNormalForms:
    """A sampled object records the normal form it was built from (V^-1
    and the divisor chain of its divisors) instead of taking a Smith
    form."""

    @pytest.mark.parametrize("engine", [FiniteAbelianEngine, ZModuleEngine],
                             ids=["finite_abelian", "fpmod_z"])
    def test_carried_forms_match_sympy(self, engine, monkeypatch):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        smiths = _counting(monkeypatch, linalg, "smith")
        eng = engine()
        for i in range(500):
            m = eng.random_object(rng_for(2323, engine.name, i), i % 5)
            rel = m.relations
            data = m.normal_form_data
            assert smiths == []
            flat = [x for row in rel.data for x in row]
            factors = [int(d) for d in invariant_factors(Matrix(rel.rows, rel.cols, flat),
                                                          domain=ZZ)]
            nonzero = [d for d in factors if d]
            assert data[:2] == (tuple(d for d in nonzero if d != 1),
                                rel.cols - len(nonzero)), rel
            _assert_valid_normal_form(rel, data)

    def test_a_memo_hit_computes_no_normal_form(self, monkeypatch):
        calls = []
        normal_form = zmodules.diagonal_normal_form
        monkeypatch.setattr(zmodules, "diagonal_normal_form",
                            lambda *args: calls.append(args) or normal_form(*args))
        eng = ZModuleEngine()
        first = eng._scrambled_from_divisors(random.Random(5), [2, 6], 1)
        data = first.normal_form_data
        assert len(calls) == 1
        # the same draw again finds the object, normal form and all, in
        # the engine's memo; the RNG draws are those of a fresh engine
        rng, fresh_rng = random.Random(5), random.Random(5)
        again = eng._scrambled_from_divisors(rng, [2, 6], 1)
        assert again is first and again.normal_form_data is data and len(calls) == 1
        ZModuleEngine()._scrambled_from_divisors(fresh_rng, [2, 6], 1)
        assert rng.getstate() == fresh_rng.getstate() and len(calls) == 2

    def test_a_corrupted_inverse_of_v_is_refused(self, monkeypatch):
        eng = FiniteAbelianEngine()
        unimodular = eng._random_unimodular

        def corrupted(rng, n):
            v, v_inv = unimodular(rng, n)
            # one column operation of V^-1 made twice
            rows = [(r[0], r[1] + r[0], *r[2:]) for r in v_inv.data]
            return v, Mat(n, n, tuple(rows))

        monkeypatch.setattr(eng, "_random_unimodular", corrupted)
        with pytest.raises(ContractViolation):
            eng._scrambled_from_divisors(random.Random(1), [4, 6, 5])

    def test_a_corrupted_inverse_of_q_is_refused(self, monkeypatch):
        chain = linalg.divisor_chain

        def corrupted(d, vt, v_inv):
            chain(d, vt, v_inv)
            v_inv[0] = [x + y for x, y in zip(v_inv[0], v_inv[1])]

        monkeypatch.setattr(linalg, "divisor_chain", corrupted)
        # the chain of (4, 6) is (2, 12), so both rows of Q^-1 are kept
        with pytest.raises(ContractViolation):
            FiniteAbelianEngine()._scrambled_from_divisors(random.Random(1), [4, 6])

    def test_draws_are_unchanged(self):
        def reference(rng, n):
            # the sampler as it was before it kept V^-1
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
            return Mat.from_rows(u, n)

        for n in range(6):
            for seed in range(20):
                a, b = random.Random(seed), random.Random(seed)
                v, v_inv = FA._random_unimodular(a, n)
                assert v == reference(b, n) and a.getstate() == b.getstate()
                assert ZZ.mul(v_inv, v) == ZZ.mul(v, v_inv) == Mat.identity(n)


class TestDiagonalNormalForms:
    """Diagonal relations with their nonzero moduli first are put in
    normal form with no elimination, and the result is the one the Smith
    form gives: a divisor chain of moduli > 1 is its own normal form (case
    A), and other moduli go through diagonal_normal_form (case B)."""

    @staticmethod
    def _diagonals(rng, count):
        out = [Mat.zeros(0, 4), Mat.zeros(4, 0), Mat.zeros(0, 0), Mat.zeros(3, 2), Mat.zeros(1, 5)]
        while len(out) < count:
            rows, cols = rng.randrange(1, 7), rng.randrange(1, 7)
            n = min(rows, cols)
            if rng.randrange(3):
                entries = [rng.randint(-12, 12) if rng.randrange(4) else 0 for _ in range(n)]
            else:
                # a divisor chain up to sign, perhaps with zeros after it
                entries, x = [], rng.randint(2, 4)
                for _ in range(n):
                    x *= rng.choice([1, 2, 3])
                    entries.append(rng.choice([-1, 1]) * x)
                k = rng.randrange(n + 1)
                entries[k:] = [0] * (n - k)
            if rng.randrange(4) == 0:
                entries.sort(key=lambda x: x == 0)
            out.append(Mat(rows, cols, tuple(tuple(entries[i] if i == j else 0
                                                   for j in range(cols))
                                             for i in range(rows))))
        return out

    @staticmethod
    def _case(moduli):
        d = [x for x in moduli if x]
        if any(moduli[len(d):]):
            return "smith"
        if all(x > 1 for x in d) and all(b % a == 0 for a, b in zip(d, d[1:])):
            return "A"
        return "B"

    def test_equal_to_smith_and_sympy(self, monkeypatch):
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import invariant_factors

        counts = {name: _counting(monkeypatch, linalg, name) for name in ("smith", "row_echelon")}
        cases = {"A": 0, "B": 0, "smith": 0}
        for rel in self._diagonals(random.Random(2424), 600):
            for seen in counts.values():
                seen.clear()
            m = ZObj(rel)
            data = m.normal_form_data
            case = self._case(m.moduli)
            cases[case] += 1
            # the Smith branch inverts V inside smith, with no row_echelon
            assert {name: len(seen) for name, seen in counts.items()} == {
                "smith": int(case == "smith"), "row_echelon": 0}, rel
            assert data == linalg.presentation_normal_form(rel), rel
            flat = [x for row in rel.data for x in row]
            factors = [int(d) for d in invariant_factors(Matrix(rel.rows, rel.cols, flat),
                                                          domain=ZZ)]
            nonzero = [d for d in factors if d]
            assert data[:2] == (tuple(d for d in nonzero if d != 1),
                                rel.cols - len(nonzero)), rel
        assert min(cases.values()) >= 80, cases

    def test_fixed_cases(self, monkeypatch):
        smiths = _counting(monkeypatch, linalg, "smith")
        # case A: its own normal form, also with negative entries and zero rows
        rel = Mat.from_rows([[-2, 0, 0], [0, 6, 0], [0, 0, 0], [0, 0, 0]])
        assert ZObj(rel).normal_form_data == ((2, 6), 1, Mat.identity(3), Mat.identity(3))
        # case B: units dropped and the divisor chain formed
        assert ZObj(Mat.from_rows([[1, 0], [0, 5]])).normal_form_data[:2] == ((5,), 0)
        assert ZObj(Mat.from_rows([[4, 0], [0, -6]])).normal_form_data[:2] == ((2, 12), 0)
        assert smiths == []
        # a zero before a nonzero modulus: the Smith form permutes the columns
        assert ZObj(Mat.from_rows([[0, 0], [0, 3]])).normal_form_data[:2] == ((3,), 1)
        assert len(smiths) == 1

    def test_a_corrupted_inverse_is_refused(self, monkeypatch):
        chain = linalg.divisor_chain

        def corrupted(d, vt, v_inv):
            chain(d, vt, v_inv)
            v_inv[0] = [x + y for x, y in zip(v_inv[0], v_inv[1])]

        monkeypatch.setattr(linalg, "divisor_chain", corrupted)
        with pytest.raises(ContractViolation):
            ZObj(Mat.from_rows([[4, 0], [0, 6]])).normal_form_data


class TestDivisibilityMembership:
    """in_relation_lattice decides a diagonal target by divisibility and
    agrees with solving against its relations."""

    @staticmethod
    def _diagonal(rng, rows, cols):
        return Mat(rows, cols, tuple(tuple(rng.randint(-12, 12) if i == j else 0
                                           for j in range(cols)) for i in range(rows)))

    def _agrees(self, monkeypatch, rel, rng, diagonal):
        eng = ZModuleEngine()
        n = eng.obj(rel)
        solves = []
        solve = eng.solve

        def counting(A, B):
            solves.append(A)
            return solve(A, B)

        monkeypatch.setattr(eng, "solve", counting)
        for _ in range(6):
            k = rng.randrange(0, 4)
            B = Mat(k, rel.cols, tuple(tuple(rng.randint(-12, 12) for _ in range(rel.cols))
                                       for _ in range(k)))
            if rng.randrange(2):
                # a combination of the relations, so it lies in the lattice
                B = ZZ.mul(Mat(k, rel.rows, tuple(tuple(rng.randint(-3, 3) for _ in range(rel.rows))
                                                   for _ in range(k))), rel)
            expected = linalg.int_solve(rel, B) is not None
            assert eng.in_relation_lattice(n, B) is expected, (rel, B)
            assert (ZModuleEngine().solve(rel, B) is not None) is expected
        assert (solves == []) is diagonal

    @pytest.mark.parametrize("shape", [(2, 3), (3, 3), (5, 3), (4, 4), (1, 5), (0, 3), (0, 0)])
    def test_diagonal_targets_agree_with_solve(self, monkeypatch, shape):
        rng = random.Random(f"diag-{shape}")
        for _ in range(40):
            rel = self._diagonal(rng, *shape)
            assert ZObj(rel).moduli == tuple(
                abs(rel.data[j][j]) if j < rel.rows else 0 for j in range(rel.cols))
            self._agrees(monkeypatch, rel, rng, diagonal=True)

    def test_fixed_moduli(self):
        eng = ZModuleEngine()
        n = eng.obj(Mat.from_rows([[0, 0, 0], [0, 1, 0], [0, 0, -6], [0, 0, 0]]))
        assert n.moduli == (0, 1, 6)
        assert eng.in_relation_lattice(n, Mat.from_rows([[0, 7, -12], [0, -1, 6]]))
        assert not eng.in_relation_lattice(n, Mat.from_rows([[1, 0, 0]]))
        assert not eng.in_relation_lattice(n, Mat.from_rows([[0, 0, 3]]))
        assert eng.in_relation_lattice(n, Mat(0, 3, ()))
        with pytest.raises(ShapeError):
            eng.in_relation_lattice(n, Mat.from_rows([[0, 6]]))

    def test_other_targets_take_the_solve_path(self, monkeypatch):
        rng = random.Random("dense")
        for rows, cols in [(2, 2), (3, 2), (2, 3), (3, 3)]:
            for _ in range(20):
                data = [[rng.randint(-12, 12) for _ in range(cols)] for _ in range(rows)]
                data[0][1] = data[0][1] or 5
                rel = Mat.from_rows(data)
                assert ZObj(rel).moduli is None
                self._agrees(monkeypatch, rel, rng, diagonal=False)


def _two_elimination_normal_form(rel):
    """presentation_normal_form with V^-1 read off a second elimination,
    as the transform of V's Hermite form (the identity, since V is
    unimodular)."""
    S, V, _ = linalg.smith(rel)
    H, V_inv, _ = linalg.row_echelon(V)
    assert H == Mat.identity(rel.cols)
    return linalg.diagonal_normal_form(
        [S.data[i][i] if i < rel.rows else 0 for i in range(rel.cols)],
        tuple(zip(*V.data)), V_inv.data)


class TestSmithInverse:
    """smith tracks V^-1 in its column passes, and presentation_normal_form
    reads it from there."""

    def test_inverse_of_v_on_dense_presentations(self):
        from sympy import Matrix

        rng = random.Random(1414)
        for _ in range(60):
            divisors = [rng.randint(1, 30) for _ in range(rng.randint(1, 8))]
            rel = _dense(rng, divisors, rng.randint(0, 12))
            _, V, V_inv = linalg.smith(rel)
            assert V_inv == linalg.row_echelon(V)[1]
            assert ZZ.mul(V_inv, V) == ZZ.mul(V, V_inv) == Mat.identity(rel.cols)
            assert {Matrix(V.to_lists()).det(), Matrix(V_inv.to_lists()).det()} <= {1, -1}
            _, _, to_nf, from_nf = linalg.presentation_normal_form(rel)
            assert ZZ.mul(from_nf, to_nf) == Mat.identity(to_nf.cols)

    def test_equal_to_the_two_elimination_normal_form(self):
        # any shape, with zero rows or columns, and rank-deficient
        # relations built as products through a narrower matrix
        rng = random.Random(2929)
        shapes = {"square": 0, "wide": 0, "tall": 0, "deficient": 0}
        for _ in range(300):
            rows, cols = rng.randrange(0, 9), rng.randrange(0, 9)
            entry = lambda: rng.randint(-20, 20) if rng.randrange(3) else 0
            if rng.randrange(3) == 0 and min(rows, cols) > 1:
                inner = rng.randrange(1, min(rows, cols))
                left = Mat.from_rows([[entry() for _ in range(inner)] for _ in range(rows)], inner)
                right = Mat.from_rows([[entry() for _ in range(cols)] for _ in range(inner)], cols)
                rel = ZZ.mul(left, right)
                shapes["deficient"] += 1
            else:
                rel = Mat.from_rows([[entry() for _ in range(cols)] for _ in range(rows)], cols)
                shapes["square" if rows == cols else "wide" if rows < cols else "tall"] += 1
            assert linalg.presentation_normal_form(rel) == _two_elimination_normal_form(rel), rel
        assert min(shapes.values()) >= 20, shapes

    def test_a_transform_that_is_not_unimodular_is_refused(self, monkeypatch):
        from serreq.errors import ContractViolation

        smith = linalg.smith
        rel = Mat.from_rows([[4, 6], [2, 9]])

        def wrong_inverse(A):
            S, V, V_inv = smith(A)
            return S, V, ZZ.scale(V_inv, 2)

        monkeypatch.setattr(linalg, "smith", wrong_inverse)
        with pytest.raises(ContractViolation):
            linalg.presentation_normal_form(rel)
        monkeypatch.setattr(linalg, "smith", lambda A: (*smith(A)[:2], Mat.from_rows([[2]])))
        with pytest.raises(ContractViolation):
            linalg.presentation_normal_form(Mat.from_rows([[4]]))


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
                for t in TH.c_cogenerators())
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
            for coeffs in (enumerate_elements(hom, cap=128) or []):
                other = hom.decode(coeffs)
                if FA.eq_mor(FA.compose(eta, other), phi):
                    assert FA.eq_mor(other, psi)


_EXTENSION_THEORIES = pytest.mark.parametrize(
    "theory, p", [(PPrimaryTheory, 2), (PPrimaryTheory, 3), (FixtureTheory, 0),
                  (FixtureTheory, 2)],
    ids=["finite_abelian-2", "finite_abelian-3", "fixture-0", "fixture-2"])


def _saturated_target(th, rng):
    """A scrambled finite object of order prime to p; for the full torsion
    class (p = 0) only the zero object is saturated."""
    units = [d for d in range(2, 16) if th.p and gcd(d, th.p) == 1]
    divisors = [d for d in units if rng.randrange(4) == 0][:3]
    return th.engine._scrambled_from_divisors(rng, divisors)


class TestExtensionBySection:
    """extend_along_unit reads the unit's section off the normal form that
    saturate already computed; it must agree with the generic colift."""

    @_EXTENSION_THEORIES
    def test_agrees_with_the_generic_colift(self, theory, p):
        th = theory(p)
        eng = th.engine
        for i in range(40):
            rng = rng_for(2020, theory.kind, p, i)
            m, t = th.random_object(rng), _saturated_target(th, rng)
            phi = eng.random_morphism(rng, m, t)
            unit = th.saturate(m)
            w, eta = unit
            section = Mor(w, m, (unit.section,))
            assert eng.eq_mor(eng.compose(section, eta), eng.identity(w))
            assert eng.eq_mor(th.extend_along_unit(phi), eng.colift_along_epi(phi, eta))

    def _with_section(self, monkeypatch, wrong):
        reflect = zmodules.ZTorsionTheory._reflect

        def wrong_reflect(self, m):
            w, eta = unit = reflect(self, m)
            return zmodules.Reflection(w, eta, wrong(unit.section))

        monkeypatch.setattr(zmodules.ZTorsionTheory, "_reflect", wrong_reflect)
        th = PPrimaryTheory(2)
        m = th.engine.obj_from_divisors([3, 9])
        return th, th.engine.mor(m, th.engine.cyclic(9), Mat.from_rows([[3], [1]]))

    def test_a_section_giving_no_morphism_is_refused(self, monkeypatch):
        # with the rows swapped, the generator of order 3 goes to one of
        # order 9; eq_mor accepts everything, so only the check that psi
        # is a morphism can refuse it
        th, phi = self._with_section(
            monkeypatch, lambda s: Mat(s.rows, s.cols, s.data[::-1]))
        unit = th.saturate(phi.src)
        assert not th.engine.is_well_defined(
            Mor(unit[0], phi.dst, (ZZ.mul(unit.section, phi.maps[0]),)))
        monkeypatch.setattr(th.engine, "eq_mor", lambda f, g: True)
        with pytest.raises(ContractViolation):
            th.extend_along_unit(phi)

    def test_a_section_giving_another_morphism_is_refused(self, monkeypatch):
        # the zero section gives the zero morphism, which is well defined,
        # so only the check that eta;psi equals phi can refuse it
        th, phi = self._with_section(monkeypatch, lambda s: Mat.zeros(s.rows, s.cols))
        with pytest.raises(ContractViolation):
            th.extend_along_unit(phi)


class TestCogenerators:
    def test_examples(self):
        cogs = TH.c_cogenerators()
        assert [FA.order(t) for t in cogs] == [2]
        assert [FA.order(t) for t in PPrimaryTheory(3).c_cogenerators()] == [3]
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
            finite_subobject_embeddings(FA, FA.cyclic(512))

    def test_too_many_subgroups_rejected(self):
        # (Z/2)^7 has 29,212 subgroups
        with pytest.raises(OracleUnsupported, match="too many subgroups"):
            finite_subobject_embeddings(FA, FA.obj_from_divisors([2] * 7))
        assert len(zmodules._subgroup_masks([2] * 6)) == 2825 <= zmodules.SUBGROUP_CAP

    def test_cyclic_counts_are_divisor_counts(self):
        for n in range(2, 257):
            assert len(zmodules._subgroup_masks([n])) == len(divisors_of(n)), n

    def test_rank_two_counts(self):
        # Hampejs, Holighaus, Toth and Wiesmeyr (2014): Z/m x Z/n with m | n
        # has sum over a | m, b | n of gcd(a, b) subgroups
        for m in range(2, 17):
            for n in range(m, 256 // m + 1, m):
                expected = sum(gcd(a, b) for a in divisors_of(m) for b in divisors_of(n))
                assert len(zmodules._subgroup_masks([m, n])) == expected, (m, n)

    def test_masks_match_the_bitwise_reference(self):
        for divisors in divisor_chains(64):
            masks = zmodules._subgroup_masks(divisors)
            assert sorted(masks) == bitwise_subgroup_masks(divisors), divisors
            elements = list(product(*map(range, divisors)))
            for mask, gens in masks.items():
                members = {e for i, e in enumerate(elements) if mask >> i & 1}
                assert members == generated(gens, divisors), (divisors, mask)

    def test_images_are_the_distinct_subgroups(self):
        for divisors in divisor_chains(24):
            embs = finite_subobject_embeddings(FA, FA.obj_from_divisors(divisors))
            images = [generated(emb.maps[0].data, divisors) for emb in embs]
            assert len(set(map(frozenset, images))) == len(images), divisors
            for image, emb in zip(images, embs):
                assert len(image) == FA.order(emb.src)
                assert {add(x, y, divisors) for x in image for y in image} == image


class TestTerminalStage:
    """PPrimaryTheory.terminal_stage, the direct-limit oracle's hook."""

    def test_agrees_with_the_lifts_between_stages(self):
        # the construction the hook replaced: every subgroup embedded, the
        # admissible ones by order_in_c, the least of them by order, and a
        # lift of it into each admissible one
        for divisors in divisor_chains(64):
            embs = finite_subobject_embeddings(FA, FA.obj_from_divisors(divisors))
            order = prod(divisors)
            for p in (2, 3, 5):
                th = PPrimaryTheory(p)
                admissible = [e for e in embs if th.order_in_c(order // FA.order(e.src))]
                least = sorted(admissible, key=lambda e: FA.order(e.src))[0]
                assert all(FA.lift_along_mono(least, e) is not None for e in admissible)
                m = th.engine.obj_from_divisors(divisors)
                assert th.terminal_stage(m) == (least, len(admissible)), (divisors, p)

    def test_masks_that_are_not_intersection_closed_are_refused(self, monkeypatch):
        # at p = 2 every subgroup of (Z/2)^2 is admissible; without the zero
        # subgroup the least mask is one of three of order 2, inside neither
        # of the other two
        masks = zmodules._subgroup_masks
        monkeypatch.setattr(zmodules, "_subgroup_masks", lambda divisors: {
            mask: gens for mask, gens in masks(divisors).items() if mask != 1})
        th = PPrimaryTheory(2)
        with pytest.raises(ContractViolation, match="intersection-closed"):
            th.terminal_stage(th.engine.obj_from_divisors([2, 2]))

    def test_a_stage_with_its_quotient_outside_c_is_refused(self, monkeypatch, tmp_path):
        # the zero subgroup of Z/12 leaves the quotient Z/12, not a 2-group
        from serreq.serre import q_hom_via_colimit
        monkeypatch.setattr(PPrimaryTheory, "terminal_stage", lambda th, m: (
            th.engine.zero_morphism(th.engine.zero_object(), m), 1))
        th = PPrimaryTheory(2)
        with pytest.raises(ContractViolation, match="quotient in C"):
            q_hom_via_colimit(th, th.engine.cyclic(12), th.engine.cyclic(9))
        argv = ["qhom", "--objects", "M", "N", "--oracle"]
        assert _run_cli(tmp_path, "finite_abelian", {"M": [[12]], "N": [[9]]}, argv) == 2


def divisors_of(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def divisor_chains(max_order, start=2):
    """Every list d_1 | d_2 | ... with d_1 >= start > 1 and product at most
    max_order, the empty list included."""
    yield []
    for d in range(start, max_order + 1):
        for rest in divisor_chains(max_order // d, d):
            if all(r % d == 0 for r in rest):
                yield [d] + rest


def add(x, y, divisors):
    return tuple((a + b) % d for a, b, d in zip(x, y, divisors))


def generated(gens, divisors):
    """The subgroup of Z/d_1 x ... x Z/d_k generated by gens, by closure."""
    members = {tuple(0 for _ in divisors)}
    frontier = list(members)
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = add(x, g, divisors)
            if y not in members:
                members.add(y)
                frontier.append(y)
    return members


def bitwise_subgroup_masks(divisors):
    """Sorted element masks of every subgroup, by closing each subgroup
    joined with each element under translation one bit at a time: the
    brute-force reference of zmodules._subgroup_masks."""
    elements = [()]
    for d in divisors:
        elements = [e + (x,) for e in elements for x in range(d)]
    index = {e: i for i, e in enumerate(elements)}
    perms = [[index[add(e, x, divisors)] for e in elements] for x in elements]

    def shift(mask, perm):
        out = 0
        while mask:
            low = mask & -mask
            out |= 1 << perm[low.bit_length() - 1]
            mask ^= low
        return out

    known = {1}
    queue = [1]
    while queue:
        s = queue.pop()
        for ix, perm in enumerate(perms):
            if (s >> ix) & 1:
                continue
            acc = shifted = s
            while True:
                shifted = shift(shifted, perm)
                acc |= shifted
                if shifted == s:
                    break
            if acc not in known:
                known.add(acc)
                queue.append(acc)
    return sorted(known)


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

    @pytest.mark.parametrize("theory", [PPrimaryTheory(2), FixtureTheory(2)],
                             ids=["finite_abelian", "fixture"])
    def test_max_order_bounds_the_torsion_part(self, theory):
        for i in range(30):
            m = theory.random_object(rng_for(9, "max-order", i), max_order=12)
            _, _, divisors = theory.engine.invariants(m)
            assert prod(divisors) <= 12
