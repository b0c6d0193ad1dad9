import dataclasses
import operator
import random
from fractions import Fraction
from functools import partial
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreq import linalg
from serreq.errors import InputValidationError, ShapeError
from serreq.linalg import (
    MR_BOUND, Mat, PrimeField, QQ, ZZ, _solve, f_rref, int_solve, is_prime, kron,
    presentation_enumerate, presentation_normal_form, smith,
)
from serreq.zmodules import ZModuleEngine


# Reference field kernels on linalg's f_rref and back-substitution alone;
# the engines compute theirs, memoized, in category.AbelianEngine.


def f_solve(field, A: Mat, B: Mat):
    """X with X*A = B over the field, or None if the system is inconsistent."""
    return _solve(field, A, B, partial(f_rref, field))


def f_rank(field, A: Mat) -> int:
    return len(f_rref(field, A)[2])


def f_kernel(field, A: Mat) -> Mat:
    """Basis rows of the left null space {x : x*A = 0} over the field."""
    _, E, pivots = f_rref(field, A)
    return Mat(A.rows - len(pivots), A.rows, E.data[len(pivots):])


def f_inv(field, A: Mat):
    """Two-sided inverse of a square matrix over the field, or None."""
    return f_solve(field, A, Mat.identity(A.rows)) if A.rows == A.cols else None


def det(A: Mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss),
    for the minor-gcd oracle below and the unimodularity checks."""
    if A.rows != A.cols:
        raise ShapeError("determinant of a non-square matrix")
    n = A.rows
    if n == 0:
        return 1
    m = A.to_lists()
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k]:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def minor_gcds(A):
    """Independent Smith oracle: d1*...*dk = gcd of all k x k minors."""
    from math import gcd
    out = []
    for k in range(1, min(A.rows, A.cols) + 1):
        g = 0
        for ri in combinations(range(A.rows), k):
            for ci in combinations(range(A.cols), k):
                sub = Mat.from_rows([[A.data[i][j] for j in ci] for i in ri], k)
                g = gcd(g, det(sub))
        out.append(g)
    return out


def assert_smith_contract(A):
    """S is the Smith form of A and V, V^-1 its column transform: V is
    unimodular with inverse V^-1, and A*V has the row lattice of S, which
    holds exactly when U*A*V = S for some unimodular U (equal lattices
    have equal Hermite forms)."""
    S, V, V_inv = smith(A)
    assert abs(det(V)) == 1
    identity = Mat.identity(A.cols).data
    assert ZZ.mul(V, V_inv).data == ZZ.mul(V_inv, V).data == identity
    assert linalg.row_echelon(ZZ.mul(A, V))[0] == linalg.row_echelon(S)[0]
    diag = [S.data[i][i] for i in range(min(A.rows, A.cols))]
    for i in range(A.rows):
        for j in range(A.cols):
            if i != j:
                assert S.data[i][j] == 0
    for d in diag:
        assert d >= 0
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0
    return diag


class TestSmith:
    def test_worked_example(self):
        # invariants fixed by the minor-gcd oracle: g1 = 2, g2 = 8
        A = Mat.from_rows([[2, 4], [6, 8]])
        diag = assert_smith_contract(A)
        g = minor_gcds(A)
        assert g == [2, 8]
        assert diag == [2, 4]
        # a negative unit, a leading zero, a diagonal out of divisor order,
        # a pivot off the diagonal in either direction, and zero
        for rows, expected in [([[-1]], [1]), ([[0, 0], [0, 3]], [3, 0]),
                               ([[6, 0], [0, 4]], [2, 12]), ([[0, 1]], [1]),
                               ([[0], [5]], [5]), ([[0]], [0])]:
            assert assert_smith_contract(Mat.from_rows(rows)) == expected, rows

    def test_identity(self):
        A = Mat.identity(4)
        S, V, V_inv = smith(A)
        assert S.data == V.data == V_inv.data == Mat.identity(4).data
        assert_smith_contract(A)

    def test_zero_matrix(self):
        A = Mat.zeros(2, 3)
        S, _, _ = smith(A)
        assert not any(map(any, S.data))

    def test_empty_shapes(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            A = Mat.zeros(*shape)
            S, V, V_inv = smith(A)
            assert S.rows == shape[0] and S.cols == shape[1]
            assert V.rows == V_inv.rows == shape[1]
            assert abs(det(V)) == 1 and abs(det(V_inv)) == 1
            assert_smith_contract(A)

    def test_bulk_random_contract(self):
        rng = random.Random(1729)
        for _ in range(500):
            m = rng.randrange(0, 7)
            n = rng.randrange(0, 7)
            A = Mat.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
            assert_smith_contract(A)
        from sympy import Matrix, ZZ
        from sympy.matrices.normalforms import smith_normal_form

        for _ in range(100):
            m = rng.randrange(1, 7)
            n = rng.randrange(1, 7)
            # half the entries zero, so that some matrices are singular
            rows = [[rng.randint(-10 ** 6, 10 ** 6) if rng.randrange(2) else 0
                     for _ in range(n)] for _ in range(m)]
            expected = smith_normal_form(Matrix(rows), domain=ZZ)
            assert assert_smith_contract(Mat.from_rows(rows, n)) == [
                abs(int(expected[i, i])) for i in range(min(m, n))], rows

    def test_minor_oracle_random(self):
        rng = random.Random(7)
        for _ in range(60):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            A = Mat.from_rows([[rng.randint(-6, 6) for _ in range(n)] for _ in range(m)], n)
            diag = assert_smith_contract(A)
            g = minor_gcds(A)
            prod_d = 1
            for k, d in enumerate(diag):
                prod_d *= d
                assert prod_d == g[k] or (prod_d == 0 and g[k] == 0)


    def test_not_exported_from_the_package(self):
        # smith returns (S, V, V^-1); a caller unpacking (S, U, V) from the
        # package fails at import instead
        import serreq
        assert "smith" not in serreq.__all__
        with pytest.raises(ImportError):
            from serreq import smith  # noqa: F401


class TestIntKernel:
    """The left kernel lattice of the integer engine, read off its
    memoized echelon."""

    def test_worked_example(self):
        A = Mat.from_rows([[2], [-1]])
        K = ZModuleEngine().kernel(A)
        assert K.rows == 1
        assert not any(map(any, ZZ.mul(K, A).data))
        # brute-force: every small kernel vector must be an integer combination
        for x in product(range(-4, 5), repeat=2):
            v = Mat.from_rows([list(x)], 2)
            if not any(map(any, ZZ.mul(v, A).data)):
                assert int_solve(K, v) is not None

    def test_invertible_gives_empty(self):
        A = Mat.from_rows([[1, 2], [0, 1]])
        assert ZModuleEngine().kernel(A).rows == 0

    def test_zero_matrix_full_kernel(self):
        A = Mat.zeros(2, 3)
        K = ZModuleEngine().kernel(A)
        assert K.rows == 2
        assert abs(det(K)) == 1

    def test_saturated_lattice(self):
        rng = random.Random(99)
        for _ in range(150):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            A = Mat.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
            K = ZModuleEngine().kernel(A)
            assert not any(map(any, ZZ.mul(K, A).data))
            S, _, _ = smith(K)
            assert all(S.data[i][i] in (0, 1) for i in range(min(K.rows, K.cols)))


class TestIntSolve:
    def test_scalar_cases(self):
        assert int_solve(Mat.from_rows([[2]]), Mat.from_rows([[4]])).data == ((2,),)
        assert int_solve(Mat.from_rows([[2]]), Mat.from_rows([[3]])) is None

    def test_worked_example(self):
        A = Mat.from_rows([[1, 2], [3, 4]])
        B = Mat.from_rows([[4, 6]])
        X = int_solve(A, B)
        assert ZZ.mul(X, A).data == B.data
        # exhaustive oracle over a small box: (1, 1) is the unique solution
        sols = [x for x in product(range(-5, 6), repeat=2)
                if ZZ.mul(Mat.from_rows([list(x)], 2), A).data == B.data]
        assert sols == [(1, 1)]

    def test_shape_error_is_distinct(self):
        with pytest.raises(ShapeError):
            int_solve(Mat.from_rows([[1, 2]]), Mat.from_rows([[1]]))

    def test_absent_matches_rational_behaviour(self):
        rng = random.Random(5)
        for _ in range(200):
            m = rng.randrange(1, 5)
            n = rng.randrange(1, 5)
            k = rng.randrange(1, 4)
            A = Mat.from_rows([[rng.randint(-5, 5) for _ in range(n)] for _ in range(m)], n)
            B = Mat.from_rows([[rng.randint(-8, 8) for _ in range(n)] for _ in range(k)], n)
            X = int_solve(A, B)
            if X is not None:
                assert ZZ.mul(X, A).data == B.data
            else:
                XQ = f_solve(QQ, A, B)
                if XQ is not None:
                    assert any(Fraction(x).denominator != 1 for row in XQ.data for x in row)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_solve_recovers_products(self, m, n, k, data):
        A = Mat.from_rows([[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)], n)
        X0 = Mat.from_rows([[data.draw(st.integers(-6, 6)) for _ in range(m)] for _ in range(k)], m)
        B = ZZ.mul(X0, A)
        X = int_solve(A, B)
        assert X is not None
        assert ZZ.mul(X, A).data == B.data


class TestLatticeHelpers:
    """The integer engine's lattice methods."""

    def test_row_basis_spans(self):
        A = Mat.from_rows([[2, 0], [4, 0], [0, 3]])
        B = ZModuleEngine().row_basis(A)
        assert B.rows == 2
        for r in A.data:
            assert int_solve(B, Mat.from_rows([list(r)], 2)) is not None

    def test_kernel_mod_rows(self):
        # x*[1] in span of [3]  <=>  x divisible by 3
        K = ZModuleEngine().kernel_mod_rows(Mat.from_rows([[1]]), Mat.from_rows([[3]]))
        assert K.rows == 1 and abs(K.data[0][0]) == 3

    def test_solve_mod_rows(self):
        A = Mat.from_rows([[2]])
        R = Mat.from_rows([[5]])
        X = ZModuleEngine().solve_mod_rows(A, R, Mat.from_rows([[1]]))
        assert X is not None
        assert (X.data[0][0] * 2 - 1) % 5 == 0


class TestMatHash:
    def test_hash_is_computed_once(self, monkeypatch):
        def fractions():
            return Mat.from_rows([[Fraction(1, 2), Fraction(-2, 3)], [Fraction(5), 0]])

        a, b = fractions(), fractions()
        assert a == b and hash(a) == hash(b) == hash((2, 2, a.data))
        assert repr(a) == repr(b) == f"Mat(rows=2, cols=2, data={a.data!r})"
        calls = []
        original = Fraction.__hash__
        monkeypatch.setattr(Fraction, "__hash__",
                            lambda x: calls.append(x) or original(x))
        assert hash(fractions()) == hash(a) and len(calls) == 3
        calls.clear()
        assert hash(a) == hash(b) and calls == []


class TestKron:
    def test_vec_of_a_product(self):
        # vec(A*X*B) = vec(X)*kron(A^T, B) with matrices flattened row by
        # row, on every shape up to 4x4, those with no rows or columns too
        rng = random.Random(1010)

        def rand(r, c):
            return Mat(r, c, tuple(tuple(rng.randint(-3, 3) for _ in range(c))
                                   for _ in range(r)))

        def vec(X):
            return Mat(1, X.rows * X.cols, (tuple(x for row in X.data for x in row),))

        for p, r, c, q in product(range(5), repeat=4):
            A, X, B = rand(p, r), rand(r, c), rand(c, q)
            K = kron(A.transpose(), B)
            assert (K.rows, K.cols) == (r * c, p * q)
            assert ZZ.mul(vec(X), K) == vec(ZZ.mul(ZZ.mul(A, X), B))


class TestPresentationHelpers:
    def test_invariants(self):
        def invariants(rel):
            divisors, rank, _, _ = presentation_normal_form(rel)
            return rank, divisors

        assert invariants(Mat.from_rows([[2, 0], [0, 3]])) == (0, (6,))
        assert invariants(Mat.zeros(0, 2)) == (2, ())
        assert invariants(Mat.from_rows([[1, 0]], 2)) == (1, ())

    def test_enumerate(self):
        classes = presentation_enumerate(Mat.from_rows([[4, 0], [0, 3]]))
        assert classes is not None and len(classes) == 12
        rel = Mat.from_rows([[4, 0], [0, 3]])
        seen = set()
        for x in classes:
            canon = []
            v = Mat.from_rows([list(x)], 2)
            for y in classes:
                w = Mat.from_rows([list(y)], 2)
                if int_solve(rel, ZZ.sub(v, w)) is not None:
                    canon.append(y)
            assert canon == [x]
            seen.add(x)
        assert len(seen) == 12

    def test_enumerate_infinite_is_none(self):
        assert presentation_enumerate(Mat.zeros(0, 1)) is None


class TestFields:
    def test_f2_kernel_enumeration_oracle(self):
        F = PrimeField(2)
        A = Mat.from_rows([[1], [1]])
        K = f_kernel(F, A)
        assert K.rows == 1
        kernel_vectors = [v for v in product(range(2), repeat=2)
                          if not any(map(any, F.mul(Mat.from_rows([v], 2), A).data))]
        assert set(kernel_vectors) == {(0, 0), (1, 1)}
        assert tuple(K.data[0]) in kernel_vectors

    def test_invertible_solve(self):
        F = PrimeField(5)
        A = Mat.from_rows([[1, 2], [3, 4]])
        B = Mat.from_rows([[1, 0]])
        X = f_solve(F, A, B)
        assert f_rank(F, A) == 2
        assert F.mul(X, A).data == F.reduce_mat(B).data
        Ainv = f_inv(F, A)
        assert F.mul(Ainv, A).data == Mat.identity(2).data

    def test_inconsistent_solve(self):
        F = PrimeField(3)
        A = Mat.from_rows([[1, 2]])
        B = Mat.from_rows([[0, 1]])
        assert f_solve(F, A, B) is None

    def test_rationals(self):
        A = Mat.from_rows([[Fraction(1, 2), 1], [0, 2]])
        X = f_solve(QQ, A, Mat.identity(2))
        assert QQ.mul(X, A).data == QQ.reduce_mat(Mat.identity(2)).data

    def test_random_kernel_solve_consistency(self):
        rng = random.Random(11)
        F = PrimeField(101)
        for _ in range(100):
            m = rng.randrange(0, 5)
            n = rng.randrange(0, 5)
            A = Mat.from_rows([[rng.randrange(101) for _ in range(n)] for _ in range(m)], n)
            K = f_kernel(F, A)
            assert K.rows == m - f_rank(F, A)
            assert not any(map(any, F.mul(K, A).data))
            X0 = Mat.from_rows([[rng.randrange(101) for _ in range(m)] for _ in range(2)], m)
            B = F.mul(X0, A)
            X = f_solve(F, A, B)
            assert X is not None
            assert F.mul(X, A).data == B.data

    def test_prime_check(self):
        with pytest.raises(ValueError):
            PrimeField(6)

    def test_rref_agrees_with_sympy(self):
        # sympy's rref over Q and over GF(p) is the oracle for R and the
        # pivots; E, the rank and solvability are checked against it too
        from sympy import GF, Matrix, Rational
        from sympy.polys.matrices import DomainMatrix

        rng = random.Random(4242)
        for F in (QQ, PrimeField(2), PrimeField(3), PrimeField(101)):
            if F.p:
                def entry():
                    return rng.randrange(-F.p, 2 * F.p)

                def oracle(M):
                    dm = DomainMatrix([[GF(F.p)(x) for x in r] for r in M.data],
                                      (M.rows, M.cols), GF(F.p))
                    R, piv = dm.rref()
                    return [[int(x) % F.p for x in r] for r in R.to_list()], piv, dm.rank()
            else:
                def entry():
                    return Fraction(rng.randint(-7, 7), rng.randint(1, 3))

                def oracle(M):
                    sm = Matrix(M.rows, M.cols,
                                [Rational(x.numerator, x.denominator)
                                 for r in M.data for x in map(Fraction, r)])
                    R, piv = sm.rref()
                    return ([[Fraction(int(R[i, j].p), int(R[i, j].q)) for j in range(M.cols)]
                             for i in range(M.rows)], piv, sm.rank())

            for _ in range(150):
                m, n = rng.randrange(0, 7), rng.randrange(0, 7)
                rows = [[entry() if rng.randrange(3) else 0 for _ in range(n)] for _ in range(m)]
                # zero rows and columns, and rows dependent on earlier ones
                for i, r in enumerate(rows):
                    if rng.randrange(6) == 0:
                        r[:] = [0] * n
                    elif i and rng.randrange(4) == 0:
                        r[:] = [2 * x - y for x, y in zip(rows[0], rows[i - 1])]
                if n and rng.randrange(4) == 0:
                    j = rng.randrange(n)
                    for r in rows:
                        r[j] = 0
                A = Mat(m, n, tuple(tuple(r) for r in rows))
                R, E, pivots = f_rref(F, A)
                expected_r, expected_pivots, rank = oracle(A)
                assert [list(r) for r in R.data] == expected_r, (F, rows)
                assert [c for _, c in pivots] == list(expected_pivots), (F, rows)
                assert [r for r, _ in pivots] == list(range(len(pivots)))
                assert F.mul(E, A).data == R.data
                assert f_inv(F, E) is not None
                assert f_rank(F, A) == rank
                k = rng.randrange(1, 3)
                B = Mat(k, n, tuple(tuple(entry() if rng.randrange(2) else 0 for _ in range(n))
                                    for _ in range(k)))
                if rng.randrange(2):
                    # half the right-hand sides lie in the row space
                    B = F.mul(Mat.from_rows([[rng.randrange(-3, 4) for _ in range(m)]
                                             for _ in range(k)], m), A)
                X = f_solve(F, A, B)
                _, _, stacked_rank = oracle(A.stack_below(B))
                assert (X is None) == (stacked_rank > rank), (F, rows, B.data)
                if X is not None:
                    assert F.mul(X, A).data == F.reduce_mat(B).data


class TestFieldEntries:
    def test_prime_field_fractions_are_quotients(self):
        F = PrimeField(5)
        assert F.normalize(Fraction(1, 2)) == 3
        assert F.normalize(Fraction(-7, 3)) == 1
        assert F.normalize(Fraction(12, 1)) == 2
        assert F.reduce_mat(Mat.from_rows([[Fraction(1, 2), Fraction(-7, 3)]])).data == ((3, 1),)
        for bad in (Fraction(1, 5), Fraction(3, 10)):
            with pytest.raises(InputValidationError):
                F.normalize(bad)
            with pytest.raises(InputValidationError):
                F.reduce_mat(Mat.from_rows([[0, bad]]))

    def test_reduced_matrices_are_returned_as_they_are(self):
        A = Mat.from_rows([[0, 1, 100], [4, 0, 7]])
        assert PrimeField(101).reduce_mat(A) is A
        assert QQ.reduce_mat(A) is A
        Q = Mat.from_rows([[0, Fraction(1, 2)], [-3, Fraction(5, 7)]])
        assert QQ.reduce_mat(Q) is Q
        assert QQ.reduce_mat(Mat.zeros(0, 3)).data == ()
        # an integral Fraction, or a bool, is not in canonical form
        for x in (Fraction(0), Fraction(-3), Fraction(4, 2), True):
            M = Mat.from_rows([[Fraction(1, 2), x]])
            assert QQ.reduce_mat(M) is not M

    def test_mixed_rational_entries_normalise(self):
        R = QQ.reduce_mat(Mat.from_rows([[1, Fraction(1, 2)], [Fraction(4, 2), -3],
                                         [True, Fraction(-6, 4)], [Fraction(0), False]]))
        assert R.data == ((1, Fraction(1, 2)), (2, -3), (1, Fraction(-3, 2)), (0, 0))
        # an entry is an int exactly when it is integral, otherwise a Fraction
        assert [[type(x) for x in r] for r in R.data] == \
            [[int, Fraction], [int, int], [int, Fraction], [int, int]]

    def test_unreduced_residues_normalise(self):
        F = PrimeField(7)
        for row, expected in (([-1, 0, 3], (6, 0, 3)), ([7, 15, 6], (0, 1, 6)),
                              ([True, False, 2], (1, 0, 2))):
            R = F.reduce_mat(Mat.from_rows([row]))
            assert R.data == (expected,)
            assert all(type(x) is int for x in R.data[0])


def entries_with_types(M: Mat):
    """M's entries with their types, since Fraction(2) == 2."""
    return [[(type(x), x) for x in r] for r in M.data]


def entrywise(op, *mats):
    """op applied entry by entry to equally shaped matrices, unreduced:
    a reference that shares no code with the rings' arithmetic."""
    A = mats[0]
    return Mat(A.rows, A.cols, tuple(tuple(op(*xs) for xs in zip(*rows))
                                     for rows in zip(*(M.data for M in mats))))


class TestFusedFieldArithmetic:
    """A field's mul, add, sub and scale reduce each row as they build it;
    on canonical operands that must give what reducing the unreduced
    result gives: ZZ.mul's product, which reduces nothing, and the
    entrywise sum, difference and multiple."""

    FIELDS = (PrimeField(2), PrimeField(3), PrimeField(101), QQ)

    @staticmethod
    def canonical(field, rng, rows, cols):
        def entry():
            if field.p:
                return rng.randrange(field.p)
            if rng.randrange(2):
                return rng.randint(-4, 4)
            return QQ.normalize(Fraction(rng.randint(-7, 7), rng.randint(1, 4)))
        return Mat(rows, cols, tuple(tuple(entry() if rng.randrange(4) else 0 for _ in range(cols))
                                     for _ in range(rows)))

    def test_agrees_with_reducing_mats_own_result(self):
        rng = random.Random(2701)
        shapes = set()
        for i in range(400):
            field = self.FIELDS[i % len(self.FIELDS)]
            r, k, c = (rng.randrange(0, 4) for _ in range(3))
            A, B = self.canonical(field, rng, r, k), self.canonical(field, rng, r, k)
            C = self.canonical(field, rng, k, c)
            x = self.canonical(field, rng, 1, 1).data[0][0]
            for fused, plain in ((field.mul(A, C), ZZ.mul(A, C)),
                                 (field.add(A, B), entrywise(operator.add, A, B)),
                                 (field.sub(A, B), entrywise(operator.sub, A, B)),
                                 (field.scale(A, x), entrywise(lambda a: x * a, A))):
                expected = field.reduce_mat(plain)
                assert (fused.rows, fused.cols) == (expected.rows, expected.cols)
                assert entries_with_types(fused) == entries_with_types(expected), (field, A, B, C, x)
                assert field.reduce_mat(fused) is fused
            shapes.update({(r, k), (k, c)})
        assert {(0, 0), (0, 3), (3, 0)} <= shapes

    @pytest.mark.parametrize("field", FIELDS, ids=lambda k: k.name)
    def test_mismatched_shapes_raise(self, field):
        two_by_three, three_by_two = Mat.zeros(2, 3), Mat.zeros(3, 2)
        for op, a, b in ((field.mul, two_by_three, two_by_three),
                         (field.mul, Mat.zeros(0, 3), Mat.zeros(2, 1)),
                         (field.add, two_by_three, three_by_two),
                         (field.sub, two_by_three, Mat.zeros(2, 0))):
            with pytest.raises(ShapeError):
                op(a, b)

    def test_mat_stays_a_frozen_dataclass(self):
        A = Mat.from_rows([[1, Fraction(1, 2)]])
        assert repr(A) == f"Mat(rows=1, cols=2, data={A.data!r})"
        B = dataclasses.replace(A, data=((3, 4),))
        assert (B.rows, B.cols, B.data) == (1, 2, ((3, 4),))
        assert dataclasses.replace(A) == A
        with pytest.raises(dataclasses.FrozenInstanceError):
            A.rows = 2
        with pytest.raises(dataclasses.FrozenInstanceError):
            del A.data


class _AllFractionQ:
    """Q with every element a Fraction: the entry arithmetic RationalField
    had before it kept integral elements as ints."""

    p = 0

    def divmod(self, b, a):
        return b / a, 0

    def unit(self, a):
        return 1 / a


def reference_rref(A: Mat):
    """(R, E, pivots) of _hermite run on A's entries as Fractions."""
    r = [[Fraction(x) for x in row] for row in A.data]
    e = Mat.identity(A.rows).to_lists()
    pivots = linalg._hermite(_AllFractionQ(), r, e)
    return r, e, pivots


def is_canonical(M: Mat) -> bool:
    """Every entry an int when it is integral and a Fraction otherwise."""
    return all(type(x) is int or (type(x) is Fraction and x.denominator != 1)
               for r in M.data for x in r)


def seeded_q_matrices(seed, count):
    """Integer and rational matrices up to 6x6, with no rows or columns,
    zero rows and columns, and rows dependent on earlier ones; a rational
    entry may be an integral Fraction such as Fraction(4, 2)."""
    rng = random.Random(seed)
    for i in range(count):
        m, n = rng.randrange(0, 7), rng.randrange(0, 7)
        if i % 2:
            def entry():
                return rng.randint(-3, 3)
        else:
            def entry():
                return Fraction(rng.randint(-7, 7), rng.randint(1, 3))
        rows = [[entry() if rng.randrange(3) else 0 for _ in range(n)] for _ in range(m)]
        for k, r in enumerate(rows):
            if rng.randrange(6) == 0:
                r[:] = [0] * n
            elif k and rng.randrange(3) == 0:
                r[:] = [2 * x - y for x, y in zip(rows[0], rows[k - 1])]
        if n and rng.randrange(4) == 0:
            j = rng.randrange(n)
            for r in rows:
                r[j] = 0
        yield Mat(m, n, tuple(tuple(r) for r in rows))


class TestRationalEntries:
    """Over Q an integral element is an int, any other a Fraction."""

    def test_rref_matches_the_all_fraction_elimination(self):
        shapes = set()
        for A in seeded_q_matrices(1616, 400):
            R, E, pivots = f_rref(QQ, A)
            r, e, ref_pivots = reference_rref(A)
            assert [list(x) for x in R.data] == r, A
            assert [list(x) for x in E.data] == e, A
            assert list(pivots) == ref_pivots, A
            assert is_canonical(R) and is_canonical(E), A
            shapes.add((len(pivots) < min(A.rows, A.cols), A.rows == 0 or A.cols == 0))
        # rank-deficient and full-rank inputs, with and without entries
        assert shapes == {(False, False), (True, False), (False, True)}

    def test_field_arithmetic_returns_canonical_entries(self):
        mats = list(seeded_q_matrices(77, 120))
        rng = random.Random(78)
        for A in mats:
            assert is_canonical(QQ.reduce_mat(A))
            same = [B for B in mats if (B.rows, B.cols) == (A.rows, A.cols)]
            chained = [B for B in mats if B.rows == A.cols]
            B, C = rng.choice(same), rng.choice(chained)
            c = rng.choice([Fraction(1, 3), Fraction(-3, 2), 2, Fraction(6, 3), 0])
            for M in (QQ.add(A, B), QQ.sub(A, B), QQ.mul(A, C), QQ.scale(A, c)):
                assert is_canonical(M), (A, B, C, c)
        # a product of non-integral entries that is integral is an int
        half = Mat.from_rows([[Fraction(1, 2), Fraction(3, 2)]])
        product = QQ.mul(half, Mat.from_rows([[2], [Fraction(2, 3)]]))
        assert product.data == ((2,),) and type(product.data[0][0]) is int
        assert [type(x) for x in QQ.scale(half, 2).data[0]] == [int, int]

    def test_division_is_exact_never_a_float(self):
        for b, a, q in ((1, 3, Fraction(1, 3)), (-7, 2, Fraction(-7, 2)), (6, 3, 2),
                        (6, -3, -2), (0, 5, 0), (Fraction(4), 2, 2),
                        (Fraction(1, 2), Fraction(1, 4), 2), (3, Fraction(2, 3), Fraction(9, 2))):
            got, rem = QQ.divmod(b, a)
            assert got == q and rem == 0
            assert type(got) is (int if Fraction(q).denominator == 1 else Fraction)
        assert QQ.divmod(1, 3) == (Fraction(1, 3), 0) and type(QQ.divmod(1, 3)[0]) is Fraction
        assert QQ.unit(3) == Fraction(1, 3) and type(QQ.unit(3)) is Fraction
        assert QQ.unit(-1) == -1 and type(QQ.unit(-1)) is int
        assert QQ.unit(Fraction(1, 2)) == 2 and type(QQ.unit(Fraction(1, 2))) is int
        assert QQ.normalize(Fraction(6, 3)) == 2 and type(QQ.normalize(Fraction(6, 3))) is int


class TestIsPrime:
    def test_agrees_with_trial_division(self):
        def trial(n):
            return n > 1 and all(n % q for q in range(2, int(n ** 0.5) + 1))
        assert [n for n in range(-5, 3000) if is_prime(n)] == \
            [n for n in range(-5, 3000) if trial(n)]

    def test_strong_pseudoprimes_are_composite(self):
        # the least strong pseudoprimes to the first 4, 9 and 12 prime bases
        for n in (3215031751, 3825123056546413051, 318665857834031151167461):
            assert not is_prime(n)

    def test_large_primes(self):
        assert is_prime(1000000000000000003)
        assert is_prime(2 ** 61 - 1)
        assert not is_prime((2 ** 61 - 1) * (2 ** 13 - 1))

    def test_values_beyond_the_bound_are_rejected(self):
        assert not is_prime(MR_BOUND - 1)
        with pytest.raises(InputValidationError):
            is_prime(MR_BOUND)

    def test_prime_field_rejects_non_primes(self):
        for p in (-3, 0, 1, 4, 1000000000000000001):
            with pytest.raises(InputValidationError):
                PrimeField(p)
