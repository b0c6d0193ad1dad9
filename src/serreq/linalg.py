"""Exact linear algebra over Z, Q, and prime fields.

Row-vector convention throughout the package: a matrix A represents the
map x -> x*A on row vectors, kernels are left kernels {x : x*A = 0}, and
composites multiply left to right.  All arithmetic is exact (python ints;
over Q an int for each integral entry and a fractions.Fraction for any
other; residues mod p); floats never appear.  Intermediate
Smith-form entries can grow well past machine width, which is why the
integer routines insist on arbitrary precision.  One row reduction,
_hermite, serves all three rings, each supplying its entry arithmetic.

A Mat is a plain value, its shape and its entries.  Matrix arithmetic
(mul, add, sub and scale) belongs to a ring, ZZ, QQ or a PrimeField, and
all three share one implementation of it (_Ring) that keeps results in
the ring's canonical form.  So no code multiplies matrices without naming
the ring that holds their entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import ContractViolation, InputValidationError, ShapeError


# The most generators, vertex dimensions, and matrix rows or columns an
# input may give.  It lies far above every input of the tests, the demos
# and the benchmark, and it bounds the work a small file can ask for.
MAX_INPUT_SIZE = 64

# Mat.identity(n) for each n up to MAX_INPUT_SIZE built so far.  Its
# entries depend on n alone, so sharing them is the same as building them
# at import; larger sizes are built fresh and never kept.
_IDENTITIES = {}


@dataclass(frozen=True)
class Mat:
    """Immutable rows x cols matrix; entries are ints, Fractions, or residues."""

    rows: int
    cols: int
    data: tuple

    def __init__(self, rows, cols, data):
        # the fields go straight into the instance dict, so only a later
        # write meets the frozen __setattr__ guard
        d = self.__dict__
        d["rows"], d["cols"], d["data"] = rows, cols, data

    def __hash__(self):
        # the dataclass hash, computed on first use and kept outside the
        # fields, so that a memo hit does not rehash every entry
        h = self.__dict__.get("_hash")
        if h is None:
            h = self.__dict__["_hash"] = hash((self.rows, self.cols, self.data))
        return h

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
        m = _IDENTITIES.get(n)
        if m is None:
            m = Mat(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))
            if 0 <= n <= MAX_INPUT_SIZE:
                _IDENTITIES[n] = m
        return m

    @staticmethod
    def zeros(rows, cols):
        return Mat(rows, cols, tuple(tuple(0 for _ in range(cols)) for _ in range(rows)))

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

    def to_lists(self):
        return [list(r) for r in self.data]


def _same_shape(A: Mat, B: Mat):
    if A.rows != B.rows or A.cols != B.cols:
        raise ShapeError(f"shape mismatch: {A.rows}x{A.cols} vs {B.rows}x{B.cols}")


def _product_rows(A: Mat, B: Mat):
    """The rows of A*B, each a list built as it is yielded."""
    if A.cols != B.rows:
        raise ShapeError(f"cannot multiply {A.rows}x{A.cols} by {B.rows}x{B.cols}")
    bd, cols = B.data, range(B.cols)
    for row in A.data:
        acc = [0] * B.cols
        for k, x in enumerate(row):
            if x:
                brow = bd[k]
                for j in cols:
                    acc[j] += x * brow[j]
        yield acc


def unflatten(vec, rows, cols) -> Mat:
    if len(vec) != rows * cols:
        raise ShapeError("vector length does not match target shape")
    return Mat(rows, cols, tuple(tuple(vec[i * cols + j] for j in range(cols)) for i in range(rows)))


def kron(A: Mat, B: Mat) -> Mat:
    """The Kronecker product: with matrices flattened row by row, X -> A*X*B
    is the row-vector map vec(X) -> vec(X)*kron(A^T, B)."""
    return Mat(A.rows * B.rows, A.cols * B.cols,
               tuple(tuple(a * b if a and b else 0 for a in ra for b in rb)
                     for ra in A.data for rb in B.data))


# ---------------------------------------------------------------------------
# row reduction over Z, Q and F_p; integer routines


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


def _minus(x, q, y, p):
    """The row x - q*y, reduced mod p when p is nonzero; an entry of x
    facing a zero of y is kept as it is."""
    if p:
        return [(a - q * b) % p if b else a for a, b in zip(x, y)]
    return [a - q * b if b else a for a, b in zip(x, y)]


def _unimodular_step(rows, inv, i, j, x, y, ag, bg):
    """The 2x2 gcd transform of rows i and j: for g = x*a + y*b = gcd(a, b),
    ag = a/g and bg = b/g, [[x, y], [-bg, ag]] takes the rows r_i, r_j to
    x*r_i + y*r_j, -bg*r_i + ag*r_j; it has determinant 1.  The rows i, j
    of inv, unless inv is None, take its inverse transpose
    [[ag, bg], [-y, x]]."""
    ri, rj = rows[i], rows[j]
    rows[i], rows[j] = ([x * s + y * t for s, t in zip(ri, rj)],
                        [-bg * s + ag * t for s, t in zip(ri, rj)])
    if inv is not None:
        ri, rj = inv[i], inv[j]
        inv[i], inv[j] = ([ag * s + bg * t for s, t in zip(ri, rj)],
                          [-y * s + x * t for s, t in zip(ri, rj)])


def _hermite(ring, h, ncols, inv=None):
    """Reduce the rows h to Hermite form over `ring` in place, with pivots
    in their first ncols entries only; returns the pivots (row, col).
    Every row operation acts on whole rows, so a caller that passes the
    rows of [A | I] gets back those of [H | E] with E*A = H.

    The ring supplies divmod(b, a), unit(a) (the factor that normalises a
    pivot) and p (row operations are reduced mod p when it is nonzero).
    A pivot is the first nonzero entry of its row and reduces the entries
    above it: over Z pivots are positive, entries above them lie in
    [0, pivot), and an inexact division takes a 2x2 unimodular gcd
    transform (_unimodular_step), which keeps entries small.  Over a field
    every division is exact, so the result is the reduced row echelon
    form.

    inv, given over Z, are rows that take the inverse transpose of each
    operation, which is no row operation on h: r_i -= q*r_k becomes
    r_k += q*r_i, the gcd transform takes its inverse transpose, and a
    swap or a sign change stays itself.  So if the right block of h holds
    the rows of V^T and inv those of V^-1 when the pass starts, inv are
    still those of V^-1 after it.
    """
    dm, unit, p = ring.divmod, ring.unit, ring.p
    m = len(h)
    pivots = []
    row = 0
    for col in range(ncols):
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
        if inv is not None:
            inv[row], inv[piv] = inv[piv], inv[row]
        for i in range(row + 1, m):
            b = h[i][col]
            if not b:
                continue
            a = h[row][col]
            q, rem = dm(b, a)
            if not rem:
                h[i] = _minus(h[i], q, h[row], p)
                if inv is not None:
                    inv[row] = _minus(inv[row], -q, inv[i], p)
            else:
                g, xx, yy = _xgcd(a, b)
                _unimodular_step(h, inv, row, i, xx, yy, a // g, b // g)
        u = unit(h[row][col])
        if u != 1:
            h[row] = [u * x % p if p else u * x for x in h[row]]
            if inv is not None:
                # u = -1 over Z, its own inverse
                inv[row] = [u * x for x in inv[row]]
        a = h[row][col]
        for i in range(row):
            q = dm(h[i][col], a)[0]
            if q:
                h[i] = _minus(h[i], q, h[row], p)
                if inv is not None:
                    inv[row] = _minus(inv[row], -q, inv[i], p)
        pivots.append((row, col))
        row += 1
    return pivots


def _echelon(ring, A: Mat):
    """(H, E, pivots) with E*A = H, the Hermite form over `ring` of A's
    entries as they are: _hermite reduces the rows of [A | I] to those of
    [H | E]."""
    n = A.cols
    rows = [[*r, *e] for r, e in zip(A.data, Mat.identity(A.rows).data)]
    pivots = _hermite(ring, rows, n)
    return (Mat(A.rows, n, tuple(tuple(r[:n]) for r in rows)),
            Mat(A.rows, A.rows, tuple(tuple(r[n:]) for r in rows)),
            tuple(pivots))


def row_echelon(A: Mat):
    """Hermite row echelon form over Z with transform: (H, E, pivots),
    E*A = H, E unimodular, read off the rows [H | E] that _echelon
    reduces [A | I] to; see _hermite for the shape of H.  All three are
    immutable, so an engine may hand one result to many callers."""
    return _echelon(ZZ, A)


def smith(A: Mat):
    """Smith normal form with its column transform and that transform's
    inverse.

    Returns (S, V, V^-1) with V unimodular and U*A*V = S for some
    unimodular U, S diagonal with nonnegative entries d1 | d2 | ... and
    zero rows/columns trailing.  Hermite forms of the rows and of the
    columns alternate until one is diagonal (Kannan and Bachem 1979).  The
    first makes the pivots positive, and a diagonal Hermite form has its
    zeros last.  Then divisor_chain turns the nonzero diagonal entries
    into a divisor chain.  No caller reads U, so the row passes carry no
    transform.  A column pass reduces the columns of the matrix with the
    rows of V^T attached on their right and splits them off after, and
    it applies the inverse transposes of its operations to the rows of
    V^-1 (see _hermite), so no second elimination is needed to invert V.
    """
    m, n = A.rows, A.cols
    s = A.to_lists()
    vt = [[int(i == j) for j in range(n)] for i in range(n)]
    v_inv = [[int(i == j) for j in range(n)] for i in range(n)]
    columns, cols = False, n
    while True:
        if columns:
            s = [r + t for r, t in zip(s, vt)]
            pivots = _hermite(ZZ, s, cols, v_inv)
            s, vt = [r[:cols] for r in s], [r[cols:] for r in s]
        else:
            pivots = _hermite(ZZ, s, cols)
        if all(i == j and not any(s[i][j + 1:]) for i, j in pivots):
            break
        # the columns of s become the rows
        s, columns, cols = [[r[j] for r in s] for j in range(cols)], not columns, len(s)
    d = [s[i][i] for i, _ in pivots]
    divisor_chain(d, vt, v_inv)
    s = [[0] * n for _ in range(m)]
    for i, x in enumerate(d):
        s[i][i] = x
    return (Mat(m, n, tuple(tuple(r) for r in s)),
            Mat(n, n, tuple(zip(*vt))),
            Mat(n, n, tuple(map(tuple, v_inv))))


def divisor_chain(d, vt, v_inv):
    """Turn the positive entries d into a divisor chain in place: each
    pair a, b with a not dividing b becomes gcd, lcm by one 2x2 unimodular
    transform per side.  The rows vt of V^T and the rows v_inv of V^-1
    follow, so that diag(d) stays U*A*V for some unimodular U and the
    matrix A they transform, and v_inv stays V^-1."""
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            if d[j] % d[i]:
                # [[1, 1], [-y b/g, x a/g]] diag(a, b) [[x, -b/g], [y, a/g]]
                # = diag(g, lcm) for g = x a + y b
                g, x, y = _xgcd(d[i], d[j])
                ag, bg = d[i] // g, d[j] // g
                d[i], d[j] = g, d[i] * bg
                _unimodular_step(vt, v_inv, i, j, x, y, ag, bg)


def _solve(ring, A: Mat, B: Mat, echelon):
    """X with X*A = B over `ring`, or None; echelon(A) is (H, E, pivots)
    with E*A = H, and X = Y*E for Y with Y*H = B found pivot by pivot."""
    if A.cols != B.cols:
        raise ShapeError(f"solve needs cols(A) == cols(B), got {A.cols} and {B.cols}")
    H, E, pivots = echelon(A)
    B = ring.reduce_mat(B)
    dm, p = ring.divmod, ring.p
    out = []
    for brow in B.data:
        v = list(brow)
        y = [0] * A.rows
        for (r, c) in pivots:
            q, rem = dm(v[c], H.data[r][c])
            if rem:
                return None
            if q:
                y[r] = q
                v = _minus(v, q, H.data[r], p)
        if any(v):
            return None
        out.append(tuple(y))
    X = ring.mul(Mat(B.rows, A.rows, tuple(out)), E)
    if ring.mul(X, A).data != B.data:
        raise ContractViolation("solve found X with X*A != B")
    return X


def int_solve(A: Mat, B: Mat):
    """A particular integer solution X of X*A = B, or None if there is none."""
    return _solve(ZZ, A, B, row_echelon)


# ---------------------------------------------------------------------------
# presentation helpers (Z^gens modulo a row lattice of relations)


def presentation_normal_form(rel: Mat):
    """Coordinates in which the presentation becomes diagonal.

    Returns (divisors, free_rank, to_nf, from_nf): the invariant factors
    > 1 in divisibility order, the free rank, the map x -> x*to_nf from old
    coefficient rows to normal-form rows, and the section from_nf the
    other way.  The normal form keeps one coordinate per nontrivial
    divisor followed by the free coordinates.  One Smith form gives the
    divisor chain and both transforms, and _normal_form reads to_nf off
    its V and from_nf off its V^-1 after checking that they are inverse.
    """
    S, V, V_inv = smith(rel)
    return _normal_form([S.data[i][i] for i in range(min(rel.rows, rel.cols)) if S.data[i][i]],
                        V, V_inv)


def diagonal_normal_form(d, vt, v_inv):
    """presentation_normal_form of relations that x -> x*V, for a
    unimodular V, carries onto the lattice of the rows d_j*e_j, with the
    positive entries of d first and zeros after them.  vt are the rows
    of V^T and v_inv the rows of V^-1.  divisor_chain turns the positive
    entries into a divisor chain and moves V and V^-1 along, and
    _normal_form reads the result off them."""
    g = len(d)
    chain, vt, v_inv = list(d[:g - d.count(0)]), list(vt), list(v_inv)
    divisor_chain(chain, vt, v_inv)
    return _normal_form(chain, Mat(g, g, tuple(zip(*vt))), Mat(g, g, tuple(map(tuple, v_inv))))


def _normal_form(chain, V, V_inv):
    """The tail of both normal forms: chain is the divisor chain of the
    positive diagonal entries, and V, V^-1 the transforms that carry the
    relations onto it.  V^-1*V = I is checked, and to_nf and from_nf are
    the columns of V and the rows of V^-1 whose entry is not 1."""
    g, k = V.rows, len(chain)
    if ZZ.mul(V_inv, V).data != Mat.identity(g).data:
        raise ContractViolation("a normal-form transform is not unimodular")
    keep = [j for j in range(g) if j >= k or chain[j] != 1]
    return (tuple(chain[j] for j in keep if j < k), g - k, V.take_cols(keep),
            Mat(len(keep), g, tuple(V_inv.data[j] for j in keep)))


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


# ---------------------------------------------------------------------------
# the rings: prime fields, Q and Z


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


class _Ring:
    """Matrix arithmetic over one ring, the only matrix arithmetic there
    is.  reduce_mat puts entries into the ring's canonical form where they
    come in; on canonical operands mul, add, sub and scale put each result
    row into that form as they build it (_canonical_row), so no result is
    scanned a second time.  A subclass supplies normalize (one scalar in
    canonical form) and _canonical_row, besides the entry arithmetic
    _hermite reads."""

    def mul(self, A: Mat, B: Mat) -> Mat:
        return Mat(A.rows, B.cols, tuple(map(self._canonical_row, _product_rows(A, B))))

    def add(self, A: Mat, B: Mat) -> Mat:
        _same_shape(A, B)
        canon = self._canonical_row
        return Mat(A.rows, A.cols, tuple(canon([a + b for a, b in zip(r, s)])
                                         for r, s in zip(A.data, B.data)))

    def sub(self, A: Mat, B: Mat) -> Mat:
        _same_shape(A, B)
        canon = self._canonical_row
        return Mat(A.rows, A.cols, tuple(canon([a - b for a, b in zip(r, s)])
                                         for r, s in zip(A.data, B.data)))

    def scale(self, A: Mat, c) -> Mat:
        c, canon = self.normalize(c), self._canonical_row
        return Mat(A.rows, A.cols, tuple(canon([c * a for a in r]) for r in A.data))


class PrimeField(_Ring):
    """The field F_p for a prime p; elements are residues in [0, p)."""

    def __init__(self, p):
        if not is_prime(p):
            raise InputValidationError(f"{p} is not prime")
        self.p = p

    def normalize(self, x):
        """x mod p; a Fraction a/b is a times the inverse of b mod p."""
        p = self.p
        if type(x) is Fraction:
            if x.denominator % p == 0:
                raise InputValidationError(f"entry {x} has no value in {self.name}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def _canonical_row(self, row):
        p = self.p
        return tuple([a % p for a in row])

    def divmod(self, b, a):
        return b * pow(a, -1, self.p) % self.p, 0

    def unit(self, a):
        return pow(a, -1, self.p)

    def reduce_mat(self, A: Mat) -> Mat:
        """A with its entries as residues; A itself when they already are."""
        p = self.p
        if all(type(a) is int and 0 <= a < p for r in A.data for a in r):
            return A
        norm = self.normalize
        return Mat(A.rows, A.cols, tuple(tuple(a % p if type(a) is int else norm(a) for a in r)
                                         for r in A.data))

    @property
    def name(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("F", self.p))

    def __repr__(self):
        return f"PrimeField({self.p})"


class RationalField(_Ring):
    """The field Q; an integral element is an int, any other a Fraction.

    That form is canonical, so integral matrices multiply at integer speed,
    and it compares and hashes as the value does: Fraction(2) == 2 and both
    hash alike.
    """

    p = 0

    def normalize(self, x):
        if type(x) is int:
            return x
        if type(x) is not Fraction:
            x = Fraction(x)
        return x.numerator if x.denominator == 1 else x

    @staticmethod
    def _canonical_row(row):
        # an int is canonical, and a Fraction unless it is integral
        return tuple([a if type(a) is int or a.denominator != 1 else a.numerator for a in row])

    def divmod(self, b, a):
        """The exact quotient b/a, an int when it is integral."""
        if type(a) is int and type(b) is int:
            q, r = divmod(b, a)
            return (Fraction(b, a) if r else q), 0
        # one of them is a Fraction, so b / a is one too
        return self.normalize(b / a), 0

    def unit(self, a):
        return self.divmod(1, a)[0]

    def reduce_mat(self, A: Mat) -> Mat:
        """A with its entries in canonical form; A itself when they already are."""
        if all(type(a) is int or (type(a) is Fraction and a.denominator != 1)
               for r in A.data for a in r):
            return A
        norm = self.normalize
        return Mat(A.rows, A.cols, tuple(tuple(a if type(a) is int else norm(a) for a in r)
                                         for r in A.data))

    @property
    def name(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("Q")

    def __repr__(self):
        return "RationalField()"


class IntegerRing(_Ring):
    """The ring Z: floor division with remainder; a pivot is made positive.
    Every integer is canonical, so normalize and _canonical_row change no
    entry."""

    p = 0
    divmod = staticmethod(divmod)
    _canonical_row = tuple

    def normalize(self, x):
        return x

    def unit(self, a):
        return -1 if a < 0 else 1

    def reduce_mat(self, A: Mat) -> Mat:
        return A


ZZ = IntegerRing()
QQ = RationalField()


def f_rref(field, A: Mat):
    """Reduced row echelon form with transform: returns (R, E, pivots),
    E*A = R; it is the Hermite form over the field (see _hermite), with R
    and E in the field's canonical form.  All three are immutable, so an engine may
    hand one result to many callers."""
    R, E, pivots = _echelon(field, field.reduce_mat(A))
    if not field.p:
        # over F_p _hermite keeps residues; over Q an entry it computes
        # may be an integral Fraction
        R, E = field.reduce_mat(R), field.reduce_mat(E)
    return R, E, pivots
