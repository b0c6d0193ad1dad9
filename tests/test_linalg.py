import random
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from serreq.errors import InputValidationError, ShapeError
from serreq.linalg import (
    MR_BOUND, Mat, PrimeField, QQ, det, f_inv, f_kernel, f_rank, f_solve, int_kernel,
    int_solve, is_prime, kernel_mod_rows, presentation_enumerate, presentation_invariants,
    row_basis, smith, smith_diagonal, solve_mod_rows,
)


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
    S, U, V = smith(A)
    assert abs(det(U)) == 1
    assert abs(det(V)) == 1
    assert U.mul(A).mul(V).data == S.data
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

    def test_identity(self):
        A = Mat.identity(4)
        S, U, V = smith(A)
        assert S.data == Mat.identity(4).data
        assert_smith_contract(A)

    def test_zero_matrix(self):
        A = Mat.zeros(2, 3)
        S, _, _ = smith(A)
        assert S.is_zero()

    def test_empty_shapes(self):
        for shape in [(0, 3), (3, 0), (0, 0)]:
            A = Mat.zeros(*shape)
            S, U, V = smith(A)
            assert S.rows == shape[0] and S.cols == shape[1]
            assert abs(det(U)) == 1 and abs(det(V)) == 1

    def test_bulk_random_contract(self):
        rng = random.Random(1729)
        for _ in range(500):
            m = rng.randrange(0, 7)
            n = rng.randrange(0, 7)
            A = Mat.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
            assert_smith_contract(A)

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


class TestIntKernel:
    def test_worked_example(self):
        A = Mat.from_rows([[2], [-1]])
        K = int_kernel(A)
        assert K.rows == 1
        assert K.mul(A).is_zero()
        # brute-force: every small kernel vector must be an integer combination
        for x in product(range(-4, 5), repeat=2):
            v = Mat.from_rows([list(x)], 2)
            if v.mul(A).is_zero():
                assert int_solve(K, v) is not None

    def test_invertible_gives_empty(self):
        A = Mat.from_rows([[1, 2], [0, 1]])
        assert int_kernel(A).rows == 0

    def test_zero_matrix_full_kernel(self):
        A = Mat.zeros(2, 3)
        K = int_kernel(A)
        assert K.rows == 2
        assert abs(det(K)) == 1

    def test_saturated_lattice(self):
        rng = random.Random(99)
        for _ in range(150):
            m = rng.randrange(1, 6)
            n = rng.randrange(1, 6)
            A = Mat.from_rows([[rng.randint(-9, 9) for _ in range(n)] for _ in range(m)], n)
            K = int_kernel(A)
            assert K.mul(A).is_zero()
            assert all(d in (0, 1) for d in smith_diagonal(K))


class TestIntSolve:
    def test_scalar_cases(self):
        assert int_solve(Mat.from_rows([[2]]), Mat.from_rows([[4]])).data == ((2,),)
        assert int_solve(Mat.from_rows([[2]]), Mat.from_rows([[3]])) is None

    def test_worked_example(self):
        A = Mat.from_rows([[1, 2], [3, 4]])
        B = Mat.from_rows([[4, 6]])
        X = int_solve(A, B)
        assert X.mul(A).data == B.data
        # exhaustive oracle over a small box: (1, 1) is the unique solution
        sols = [x for x in product(range(-5, 6), repeat=2)
                if Mat.from_rows([list(x)], 2).mul(A).data == B.data]
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
                assert X.mul(A).data == B.data
            else:
                XQ = f_solve(QQ, A, B)
                if XQ is not None:
                    assert any(Fraction(x).denominator != 1 for row in XQ.data for x in row)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 4), st.integers(1, 3), st.data())
    def test_solve_recovers_products(self, m, n, k, data):
        A = Mat.from_rows([[data.draw(st.integers(-6, 6)) for _ in range(n)] for _ in range(m)], n)
        X0 = Mat.from_rows([[data.draw(st.integers(-6, 6)) for _ in range(m)] for _ in range(k)], m)
        B = X0.mul(A)
        X = int_solve(A, B)
        assert X is not None
        assert X.mul(A).data == B.data


class TestLatticeHelpers:
    def test_row_basis_spans(self):
        A = Mat.from_rows([[2, 0], [4, 0], [0, 3]])
        B = row_basis(A)
        assert B.rows == 2
        for r in A.data:
            assert int_solve(B, Mat.from_rows([list(r)], 2)) is not None

    def test_kernel_mod_rows(self):
        # x*[1] in span of [3]  <=>  x divisible by 3
        K = kernel_mod_rows(Mat.from_rows([[1]]), Mat.from_rows([[3]]))
        assert K.rows == 1 and abs(K.data[0][0]) == 3

    def test_solve_mod_rows(self):
        A = Mat.from_rows([[2]])
        R = Mat.from_rows([[5]])
        X = solve_mod_rows(A, R, Mat.from_rows([[1]]))
        assert X is not None
        assert (X.data[0][0] * 2 - 1) % 5 == 0


class TestPresentationHelpers:
    def test_invariants(self):
        assert presentation_invariants(Mat.from_rows([[2, 0], [0, 3]])) == (0, (6,))
        assert presentation_invariants(Mat.zeros(0, 2)) == (2, ())
        assert presentation_invariants(Mat.from_rows([[1, 0]], 2)) == (1, ())

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
                if int_solve(rel, v.sub(w)) is not None:
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
                          if F.reduce_mat(Mat.from_rows([list(v)], 2).mul(A)).is_zero()]
        assert set(kernel_vectors) == {(0, 0), (1, 1)}
        assert tuple(K.data[0]) in kernel_vectors

    def test_invertible_solve(self):
        F = PrimeField(5)
        A = Mat.from_rows([[1, 2], [3, 4]])
        B = Mat.from_rows([[1, 0]])
        X = f_solve(F, A, B)
        assert f_rank(F, A) == 2
        assert F.reduce_mat(X.mul(A)).data == F.reduce_mat(B).data
        Ainv = f_inv(F, A)
        assert F.reduce_mat(Ainv.mul(A)).data == Mat.identity(2).data

    def test_inconsistent_solve(self):
        F = PrimeField(3)
        A = Mat.from_rows([[1, 2]])
        B = Mat.from_rows([[0, 1]])
        assert f_solve(F, A, B) is None

    def test_rationals(self):
        A = Mat.from_rows([[Fraction(1, 2), 1], [0, 2]])
        X = f_solve(QQ, A, Mat.identity(2))
        assert QQ.reduce_mat(X.mul(A)).data == QQ.reduce_mat(Mat.identity(2)).data

    def test_random_kernel_solve_consistency(self):
        rng = random.Random(11)
        F = PrimeField(101)
        for _ in range(100):
            m = rng.randrange(0, 5)
            n = rng.randrange(0, 5)
            A = Mat.from_rows([[rng.randrange(101) for _ in range(n)] for _ in range(m)], n)
            K = f_kernel(F, A)
            assert K.rows == m - f_rank(F, A)
            assert F.reduce_mat(K.mul(A)).is_zero()
            X0 = Mat.from_rows([[rng.randrange(101) for _ in range(m)] for _ in range(2)], m)
            B = F.reduce_mat(X0.mul(A))
            X = f_solve(F, A, B)
            assert X is not None
            assert F.reduce_mat(X.mul(A)).data == B.data

    def test_prime_check(self):
        with pytest.raises(ValueError):
            PrimeField(6)


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
