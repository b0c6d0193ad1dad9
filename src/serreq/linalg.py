"""Exact linear algebra over Z, Q, and prime fields.

Row-vector convention throughout the package: a matrix A represents the
map x -> x*A on row vectors, kernels are left kernels {x : x*A = 0}, and
composites multiply left to right.  All arithmetic is exact (python ints,
fractions.Fraction, residues mod p); floats never appear.  Intermediate
Smith-form entries can grow well past machine width, which is why the
integer routines insist on arbitrary precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from .errors import ContractViolation, InputValidationError, ShapeError


@dataclass(frozen=True)
class Mat:
    """Immutable rows x cols matrix; entries are ints, Fractions, or residues."""

    rows: int
    cols: int
    data: tuple

    @staticmethod
    def from_rows(rows_list, cols=None):
        rows_list = [tuple(r) for r in rows_list]
        if cols is None:
            if not rows_list:
                raise ShapeError("column count required for a matrix with no rows")
            cols = len(rows_list[0])
        for r in rows_list:
            if len(r) != cols:
                raise ShapeError("ragged rows in matrix literal")
        return Mat(len(rows_list), cols, tuple(rows_list))

    @staticmethod
    def identity(n):
        return Mat(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

    def mul(self, other: "Mat") -> "Mat":
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        od = other.data
        out = []
        for row in self.data:
            acc = [0] * other.cols
            for k, x in enumerate(row):
                if x:
                    orow = od[k]
                    for j in range(other.cols):
                        acc[j] += x * orow[j]
            out.append(tuple(acc))
        return Mat(self.rows, other.cols, tuple(out))

    def add(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   tuple(tuple(a + b for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.data, other.data)))

    def sub(self, other: "Mat") -> "Mat":
        self._same_shape(other)
        return Mat(self.rows, self.cols,
                   tuple(tuple(a - b for a, b in zip(r1, r2))
                         for r1, r2 in zip(self.data, other.data)))

    def neg(self) -> "Mat":
        return Mat(self.rows, self.cols, tuple(tuple(-a for a in r) for r in self.data))

    def scale(self, c) -> "Mat":
        return Mat(self.rows, self.cols, tuple(tuple(c * a for a in r) for r in self.data))

    def transpose(self) -> "Mat":
        return Mat(self.cols, self.rows,
                   tuple(tuple(self.data[i][j] for i in range(self.rows)) for j in range(self.cols)))

    def stack_below(self, other: "Mat") -> "Mat":
        if self.cols != other.cols:
            raise ShapeError("stacked matrices need equal column counts")
        return Mat(self.rows + other.rows, self.cols, self.data + other.data)

    def take_cols(self, indices) -> "Mat":
        idx = list(indices)
        return Mat(self.rows, len(idx), tuple(tuple(r[j] for j in idx) for r in self.data))

    def row(self, i) -> tuple:
        return self.data[i]

    def is_zero(self) -> bool:
        return all(all(a == 0 for a in r) for r in self.data)

    def to_lists(self):
        return [list(r) for r in self.data]

    def _same_shape(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise ShapeError(f"shape mismatch: {self.rows}x{self.cols} vs {other.rows}x{other.cols}")


def flatten(A: Mat) -> tuple:
    out = []
    for r in A.data:
        out.extend(r)
    return tuple(out)


def unflatten(vec, rows, cols) -> Mat:
    if len(vec) != rows * cols:
        raise ShapeError("vector length does not match target shape")
    return Mat(rows, cols, tuple(tuple(vec[i * cols + j] for j in range(cols)) for i in range(rows)))


# ---------------------------------------------------------------------------
# integer routines


def det(A: Mat) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
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


def smith(A: Mat):
    """Smith normal form with transforms.

    Returns (S, U, V) with U*A*V = S, U and V unimodular, S diagonal with
    nonnegative entries d1 | d2 | ... and zero rows/columns trailing.
    Pivots are chosen by minimal absolute value to bound entry growth; the
    procedure is deterministic.
    """
    m, n = A.rows, A.cols
    s = A.to_lists()
    u = Mat.identity(m).to_lists()
    v = Mat.identity(n).to_lists()

    def swap_rows(i, j):
        if i != j:
            s[i], s[j] = s[j], s[i]
            u[i], u[j] = u[j], u[i]

    def swap_cols(i, j):
        if i != j:
            for r in s:
                r[i], r[j] = r[j], r[i]
            for r in v:
                r[i], r[j] = r[j], r[i]

    def row_sub(i, src, q):
        # row_i -= q * row_src
        si, ss = s[i], s[src]
        for j in range(n):
            si[j] -= q * ss[j]
        ui, us = u[i], u[src]
        for j in range(m):
            ui[j] -= q * us[j]

    def col_sub(j, src, q):
        for r in s:
            r[j] -= q * r[src]
        for r in v:
            r[j] -= q * r[src]

    def negate_row(i):
        s[i] = [-x for x in s[i]]
        u[i] = [-x for x in u[i]]

    t = 0
    limit = min(m, n)
    while t < limit:
        # minimal-absolute-value pivot in the trailing block
        piv = None
        best = None
        for i in range(t, m):
            for j in range(t, n):
                x = s[i][j]
                if x and (best is None or abs(x) < best):
                    best = abs(x)
                    piv = (i, j)
            if best == 1:
                break
        if piv is None:
            break
        swap_rows(t, piv[0])
        swap_cols(t, piv[1])

        while True:
            if s[t][t] < 0:
                negate_row(t)
            p = s[t][t]
            dirty = False
            for i in range(t + 1, m):
                x = s[i][t]
                if x:
                    q = x // p
                    if x - q * p:
                        row_sub(i, t, q)
                        swap_rows(t, i)
                        dirty = True
                        break
                    row_sub(i, t, q)
            if dirty:
                continue
            for j in range(t + 1, n):
                x = s[t][j]
                if x:
                    q = x // p
                    if x - q * p:
                        col_sub(j, t, q)
                        swap_cols(t, j)
                        dirty = True
                        break
                    col_sub(j, t, q)
            if dirty:
                continue
            # row and column at t are clear; enforce divisibility of the rest
            p = s[t][t]
            offender = None
            for i in range(t + 1, m):
                row = s[i]
                for j in range(t + 1, n):
                    if row[j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_add = s[offender]
            for j in range(n):
                s[t][j] += row_add[j]
            urow = u[offender]
            for j in range(m):
                u[t][j] += urow[j]
        t += 1

    return (Mat(m, n, tuple(tuple(r) for r in s)),
            Mat(m, m, tuple(tuple(r) for r in u)),
            Mat(n, n, tuple(tuple(r) for r in v)))


def smith_diagonal(A: Mat):
    """The diagonal of the Smith form as a list (zeros included, trailing)."""
    S, _, _ = smith(A)
    return [S.data[i][i] for i in range(min(A.rows, A.cols))]


def _xgcd(a, b):
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def row_echelon(A: Mat):
    """Hermite row echelon form with transform: (H, E, pivots), E*A = H.

    E is unimodular, pivots are positive and the first nonzero entry of
    their row, and entries above each pivot are reduced into [0, pivot).
    Row operations only, via 2x2 unimodular gcd transforms, which keeps
    intermediate entries far smaller than full Smith reduction would.
    """
    m, n = A.rows, A.cols
    h = A.to_lists()
    e = Mat.identity(m).to_lists()
    pivots = []
    row = 0
    for col in range(n):
        if row >= m:
            break
        piv = None
        for i in range(row, m):
            if h[i][col]:
                piv = i
                break
        if piv is None:
            continue
        h[row], h[piv] = h[piv], h[row]
        e[row], e[piv] = e[piv], e[row]
        for i in range(row + 1, m):
            b = h[i][col]
            if not b:
                continue
            a = h[row][col]
            if b % a == 0:
                q = b // a
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                e[i] = [x - q * y for x, y in zip(e[i], e[row])]
            else:
                g, xx, yy = _xgcd(a, b)
                ag, bg = a // g, b // g
                h[row], h[i] = ([xx * p + yy * q for p, q in zip(h[row], h[i])],
                                [-bg * p + ag * q for p, q in zip(h[row], h[i])])
                e[row], e[i] = ([xx * p + yy * q for p, q in zip(e[row], e[i])],
                                [-bg * p + ag * q for p, q in zip(e[row], e[i])])
        if h[row][col] < 0:
            h[row] = [-x for x in h[row]]
            e[row] = [-x for x in e[row]]
        p = h[row][col]
        for i in range(row):
            q = h[i][col] // p
            if q:
                h[i] = [x - q * y for x, y in zip(h[i], h[row])]
                e[i] = [x - q * y for x, y in zip(e[i], e[row])]
        pivots.append((row, col))
        row += 1
    return (Mat(m, n, tuple(tuple(r) for r in h)),
            Mat(m, m, tuple(tuple(r) for r in e)),
            pivots)


def int_kernel(A: Mat) -> Mat:
    """Basis of the left kernel lattice {x : x*A = 0} as matrix rows.

    The returned rows span a saturated sublattice of Z^rows(A); the row
    count is rows(A) - rank(A).
    """
    _, E, pivots = row_echelon(A)
    rank = len(pivots)
    return Mat(A.rows - rank, A.rows, E.data[rank:])


def int_solve(A: Mat, B: Mat):
    """A particular integer solution X of X*A = B, or None if there is none."""
    if A.cols != B.cols:
        raise ShapeError(f"solve needs cols(A) == cols(B), got {A.cols} and {B.cols}")
    H, E, pivots = row_echelon(A)
    out = []
    for brow in B.data:
        v = list(brow)
        y = [0] * A.rows
        for (r, c) in pivots:
            q, rem = divmod(v[c], H.data[r][c])
            if rem:
                return None
            if q:
                y[r] = q
                hrow = H.data[r]
                for j in range(c, A.cols):
                    v[j] -= q * hrow[j]
        if any(v):
            return None
        out.append(tuple(y))
    X = Mat(B.rows, A.rows, tuple(out)).mul(E)
    if X.mul(A).data != B.data:
        raise ContractViolation("int_solve found X with X*A != B")
    return X


def row_basis(A: Mat) -> Mat:
    """A canonical basis of the row lattice of A (its Hermite form rows)."""
    H, _, pivots = row_echelon(A)
    return Mat(len(pivots), A.cols, H.data[:len(pivots)])


def kernel_mod_rows(A: Mat, R: Mat) -> Mat:
    """Basis for the lattice {x : x*A lies in the row span of R}."""
    if A.cols != R.cols:
        raise ShapeError("kernel_mod_rows needs matching column counts")
    K = int_kernel(A.stack_below(R))
    proj = K.take_cols(range(A.rows))
    return row_basis(proj)


def solve_mod_rows(A: Mat, R: Mat, B: Mat):
    """X with X*A congruent to B modulo the row span of R, or None."""
    if A.cols != R.cols:
        raise ShapeError("solve_mod_rows needs matching column counts")
    sol = int_solve(A.stack_below(R), B)
    if sol is None:
        return None
    return sol.take_cols(range(A.rows))


# ---------------------------------------------------------------------------
# presentation helpers (Z^gens modulo a row lattice of relations)


def presentation_invariants(rel: Mat):
    """Invariant factors of Z^cols(rel) / rowspan(rel).

    Returns (free_rank, divisors) with the divisors > 1 in divisibility
    order; unit factors are dropped.
    """
    diag = smith_diagonal(rel)
    nonzero = [d for d in diag if d]
    rank = rel.cols - len(nonzero)
    return rank, tuple(d for d in nonzero if d != 1)


def presentation_normal_form(rel: Mat):
    """Coordinates in which the presentation becomes diagonal.

    Returns (divisors, free_rank, to_nf, from_nf) where to_nf maps old
    coefficient rows to normal-form rows (x -> x*to_nf), from_nf is the
    section the other way, and the normal form keeps one coordinate per
    nontrivial divisor followed by the free coordinates.
    """
    S, _, V = smith(rel)
    g = rel.cols
    diag = [S.data[i][i] if i < rel.rows else 0 for i in range(g)]
    keep = [j for j in range(g) if diag[j] != 1]
    V_inv = int_solve(V, Mat.identity(g))
    to_nf = V.take_cols(keep)
    from_nf = Mat(len(keep), g, tuple(V_inv.data[j] for j in keep))
    divisors = tuple(diag[j] for j in keep if diag[j] != 0)
    free_rank = sum(1 for j in keep if diag[j] == 0)
    return divisors, free_rank, to_nf, from_nf


def presentation_enumerate(rel: Mat, cap=4096):
    """All residue classes of Z^cols(rel) / rowspan(rel), or None.

    Returns a list of coefficient tuples (in the original coordinates),
    one per class, when the group is finite with at most cap elements.
    """
    divisors, free_rank, _, from_nf = presentation_normal_form(rel)
    if free_rank:
        return None
    count = 1
    for d in divisors:
        count *= d
    if count > cap:
        return None
    out = []
    idx = [0] * len(divisors)
    while True:
        vec = [0] * rel.cols
        for i, z in enumerate(idx):
            if z:
                row = from_nf.data[i]
                for j in range(rel.cols):
                    vec[j] += z * row[j]
        out.append(tuple(vec))
        for i in range(len(divisors) - 1, -1, -1):
            idx[i] += 1
            if idx[i] < divisors[i]:
                break
            idx[i] = 0
        else:
            return out
        if not divisors:
            return out


# ---------------------------------------------------------------------------
# fields


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below this bound (OEIS A014233; twelve bases are fooled by
# 318665857834031151167461).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MR_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Whether n is prime; n >= MR_BOUND is an InputValidationError."""
    if n >= MR_BOUND:
        raise InputValidationError(f"{n} is too large for the primality test")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """The field F_p for a prime p; elements are residues in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise InputValidationError(f"{p} is not prime")
        self.p = p

    def normalize(self, x):
        return int(x) % self.p

    def inv(self, x):
        x = self.normalize(x)
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in a prime field")
        return pow(x, self.p - 2, self.p)

    def reduce_mat(self, A: Mat) -> Mat:
        p = self.p
        return Mat(A.rows, A.cols, tuple(tuple(int(a) % p for a in r) for r in A.data))

    def elements(self):
        return range(self.p)

    @property
    def name(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField:
    """The field Q; elements are fractions.Fraction values."""

    p = 0

    def normalize(self, x):
        return Fraction(x)

    def inv(self, x):
        x = Fraction(x)
        if x == 0:
            raise ZeroDivisionError("inverse of 0 in Q")
        return 1 / x

    def reduce_mat(self, A: Mat) -> Mat:
        return Mat(A.rows, A.cols, tuple(tuple(Fraction(a) for a in r) for r in A.data))

    def elements(self):
        return None

    @property
    def name(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


QQ = RationalField()


def f_mul(field, A: Mat, B: Mat) -> Mat:
    return field.reduce_mat(A.mul(B))


def f_rref(field, A: Mat):
    """Reduced row echelon form with transform: returns (R, E, pivots), E*A = R."""
    m, n = A.rows, A.cols
    r = field.reduce_mat(A).to_lists()
    e = Mat.identity(m).to_lists()
    pivots = []
    row = 0
    for col in range(n):
        piv = None
        for i in range(row, m):
            if r[i][col] != field.normalize(0):
                piv = i
                break
        if piv is None:
            continue
        r[row], r[piv] = r[piv], r[row]
        e[row], e[piv] = e[piv], e[row]
        c = field.inv(r[row][col])
        r[row] = [field.normalize(c * x) for x in r[row]]
        e[row] = [field.normalize(c * x) for x in e[row]]
        for i in range(m):
            if i != row and r[i][col] != field.normalize(0):
                f = r[i][col]
                r[i] = [field.normalize(x - f * y) for x, y in zip(r[i], r[row])]
                e[i] = [field.normalize(x - f * y) for x, y in zip(e[i], e[row])]
        pivots.append((row, col))
        row += 1
    R = Mat(m, n, tuple(tuple(x) for x in r))
    E = Mat(m, m, tuple(tuple(x) for x in e))
    return R, E, pivots


def f_rank(field, A: Mat) -> int:
    _, _, pivots = f_rref(field, A)
    return len(pivots)


def f_kernel(field, A: Mat) -> Mat:
    """Basis rows of the left null space {x : x*A = 0} over the field."""
    _, E, pivots = f_rref(field, A)
    rank = len(pivots)
    return Mat(A.rows - rank, A.rows, E.data[rank:])


def f_solve(field, A: Mat, B: Mat):
    """X with X*A = B over the field, or None if the system is inconsistent."""
    if A.cols != B.cols:
        raise ShapeError(f"solve needs cols(A) == cols(B), got {A.cols} and {B.cols}")
    R, E, pivots = f_rref(field, A)
    zero = field.normalize(0)
    out = []
    for brow in field.reduce_mat(B).data:
        v = list(brow)
        y = [zero] * A.rows
        for (ri, ci) in pivots:
            c = v[ci]
            if c != zero:
                y[ri] = c
                rrow = R.data[ri]
                v = [field.normalize(a - c * b) for a, b in zip(v, rrow)]
        if any(x != zero for x in v):
            return None
        out.append(tuple(y))
    Y = Mat(B.rows, A.rows, tuple(out))
    return f_mul(field, Y, E)


def f_inv(field, A: Mat):
    """Two-sided inverse of a square matrix over the field, or None."""
    if A.rows != A.cols:
        return None
    X = f_solve(field, A, Mat.identity(A.rows))
    return X

