"""Exact integer linear algebra on free abelian groups of finite rank.

Vectors are plain tuples of Python ints, matrices are immutable row-major
IntMatrix objects.  Everything is arbitrary precision; no floats.  Every
exact linear solve over Q reads one fraction-free Gauss-Jordan pass,
echelon, which gives the pivot columns, independent rows and the adjugate
of their block in integers; lattice questions (kernels, sections,
sublattices) read the Smith and Hermite normal forms.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .errors import InfiniteIndexError, NotSurjectiveError, ZeroVectorError

Vec = tuple[int, ...]


def dot(a, b):
    """Sum of the products a_i b_i; ValueError unless a and b have one length."""
    if len(a) != len(b):
        raise ValueError(f"dot of vectors of lengths {len(a)} and {len(b)}")
    return sum(map(operator.mul, a, b))


def vec_scale(c, a):
    return tuple(c * x for x in a)


def is_zero_vec(a) -> bool:
    return all(x == 0 for x in a)


def primitive_part(v: Vec) -> tuple[Vec, int]:
    """Divide v by the gcd of its entries.

    Returns (primitive vector, gcd).  The sign of v is preserved.
    Raises ZeroVectorError on the zero vector.
    """
    g = math.gcd(*v)
    if g == 0:
        raise ZeroVectorError("zero vector has no primitive part")
    return tuple(x // g for x in v), g


def is_primitive(v: Vec) -> bool:
    return math.gcd(*v) == 1


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix.  rows is a tuple of row tuples."""

    nrows: int
    ncols: int
    rows: tuple[Vec, ...]

    def __post_init__(self):
        if len(self.rows) != self.nrows:
            raise ValueError("row count mismatch")
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError(f"vector of length {len(r)} where {self.ncols} expected")

    @staticmethod
    def from_rows(rows, ncols=None) -> IntMatrix:
        """Matrix with the given rows; every row must have length ncols,
        which defaults to the length of the first row."""
        rows = tuple(tuple(int(x) for x in r) for r in rows)
        if ncols is None:
            if not rows:
                raise ValueError("empty matrix needs an explicit width")
            ncols = len(rows[0])
        return IntMatrix(len(rows), ncols, rows)

    @staticmethod
    def from_cols(cols, nrows=None) -> IntMatrix:
        """Matrix with the given columns; every column must have length
        nrows, which defaults to the length of the first column."""
        return IntMatrix.from_rows(cols, ncols=nrows).transpose()

    @staticmethod
    def identity(n: int) -> IntMatrix:
        return IntMatrix(n, n, tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def col(self, j: int) -> Vec:
        return tuple(r[j] for r in self.rows)

    def cols(self) -> list[Vec]:
        return [self.col(j) for j in range(self.ncols)]

    def transpose(self) -> IntMatrix:
        return IntMatrix(self.ncols, self.nrows, tuple(self.cols()))

    def __matmul__(self, other: IntMatrix) -> IntMatrix:
        if self.ncols != other.nrows:
            raise ValueError("shape mismatch")
        ot = other.transpose()
        rows = tuple(tuple(dot(r, c) for c in ot.rows) for r in self.rows)
        return IntMatrix(self.nrows, other.ncols, rows)

    def apply(self, v):
        """Matrix times column vector; accepts int or Fraction entries."""
        if len(v) != self.ncols:
            raise ValueError("shape mismatch")
        return tuple(dot(r, v) for r in self.rows)

    def rank(self) -> int:
        # integer cross-multiplication elimination; entries stay exact
        w = [list(r) for r in self.rows]
        r = 0
        for c in range(self.ncols):
            piv = next((i for i in range(r, len(w)) if w[i][c]), None)
            if piv is None:
                continue
            w[r], w[piv] = w[piv], w[r]
            head = w[r]
            for i in range(r + 1, len(w)):
                if w[i][c]:
                    f = w[i][c]
                    w[i] = [x * head[c] - f * y for x, y in zip(w[i], head)]
            r += 1
            if r == len(w):
                break
        return r

    def det(self) -> int:
        """Bareiss fraction-free elimination; every division is exact."""
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        n = self.nrows
        if n == 0:
            return 1
        w = [list(r) for r in self.rows]
        sign = 1
        prev = 1
        for c in range(n - 1):
            piv = next((i for i in range(c, n) if w[i][c] != 0), None)
            if piv is None:
                return 0
            if piv != c:
                w[c], w[piv] = w[piv], w[c]
                sign = -sign
            for i in range(c + 1, n):
                for j in range(c + 1, n):
                    w[i][j] = (w[i][j] * w[c][c] - w[i][c] * w[c][j]) // prev
                w[i][c] = 0
            prev = w[c][c]
        return sign * w[n - 1][n - 1]

    def is_unimodular(self) -> bool:
        return self.nrows == self.ncols and abs(self.det()) == 1


@dataclass(frozen=True)
class Echelon:
    """What fraction-free Gauss-Jordan finds in a matrix m: its leftmost
    pivot columns cols, the original index of one independent row per
    pivot, in pivot order, and the adjugate adj and determinant det of the
    block B = m[rows, cols], so that adj @ B == det * I."""

    m: IntMatrix
    cols: tuple[int, ...]
    rows: tuple[int, ...]
    adj: tuple[Vec, ...]
    det: int

    def solve(self, rhs) -> tuple[Fraction, ...] | None:
        """One exact solution x of m x = rhs over Q, free variables set to
        0, or None when the system is inconsistent; () when m has no rows.
        With rhs over a common denominator L, x_cols = adj (L rhs)_rows /
        (det L), and the system is consistent when every row holds in
        integers."""
        if not self.m.nrows:
            return ()
        den = math.lcm(*(b.denominator for b in rhs))
        nums = [b.numerator * (den // b.denominator) for b in rhs]
        y = [dot(a, [nums[i] for i in self.rows]) for a in self.adj]
        if any(dot([r[c] for c in self.cols], y) != self.det * n
               for r, n in zip(self.m.rows, nums, strict=True)):
            return None
        x = [Fraction(0)] * self.m.ncols
        for c, t in zip(self.cols, y):
            x[c] = Fraction(t, self.det * den)
        return tuple(x)


def echelon(m: IntMatrix) -> Echelon:
    """Fraction-free Gauss-Jordan on [m | I] (Bareiss, 1968).

    Each pivot is the first nonzero entry at or below the current row.
    Every row but the pivot row becomes (p row - f head) / prev, with p
    the pivot, f the row's entry in the pivot column and prev the pivot
    before; every division is exact.  The pivot rows end as det times the
    identity on the pivot columns, with det the determinant of the pivot
    block, and their identity part, restricted to the original pivot rows
    (a pivot row only ever mixes those), is its adjugate.
    """
    n = m.nrows
    work = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m.rows)]
    order = list(range(n))
    cols = []
    prev = 1
    for c in range(m.ncols):
        r = len(cols)
        if r == n:
            break
        piv = next((k for k in range(r, n) if work[k][c]), None)
        if piv is None:
            continue
        work[r], work[piv] = work[piv], work[r]
        order[r], order[piv] = order[piv], order[r]
        head = work[r]
        p = head[c]
        for k in range(n):
            if k != r:
                f = work[k][c]
                work[k] = [(p * x - f * y) // prev for x, y in zip(work[k], head)]
        prev = p
        cols.append(c)
    rows = tuple(order[:len(cols)])
    adj = tuple(tuple(work[k][m.ncols + i] for i in rows) for k in range(len(cols)))
    return Echelon(m, tuple(cols), rows, adj, prev)


def _swap_rows(w, i, j):
    w[i], w[j] = w[j], w[i]


def _gcd_rowop(w, u, i, j, c):
    """Unimodular row operation zeroing w[j][c] against pivot w[i][c].

    When the pivot divides the target this is plain elimination and the
    pivot row is left untouched; that invariant is what makes the Smith
    reduction loops terminate.
    """
    a, b = w[i][c], w[j][c]
    if b % a == 0:
        q = b // a
        w[j] = [wj - q * wi for wi, wj in zip(w[i], w[j])]
        u[j] = [uj - q * ui for ui, uj in zip(u[i], u[j])]
        return
    g, x, y = _xgcd(a, b)
    p, q = a // g, b // g
    # [[x, y], [-q, p]] has determinant 1
    ri = [x * w[i][k] + y * w[j][k] for k in range(len(w[i]))]
    rj = [-q * w[i][k] + p * w[j][k] for k in range(len(w[i]))]
    w[i], w[j] = ri, rj
    ui = [x * u[i][k] + y * u[j][k] for k in range(len(u[i]))]
    uj = [-q * u[i][k] + p * u[j][k] for k in range(len(u[i]))]
    u[i], u[j] = ui, uj


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g = gcd(a,b) > 0 and x, y with a*x + b*y = g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def snf_decompose(m: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Smith normal form: unimodular U, V with U*m*V = D diagonal.

    Diagonal entries are nonnegative and satisfy d1 | d2 | ... .
    """
    nr, nc = m.nrows, m.ncols
    w = [list(r) for r in m.rows]
    u = [list(r) for r in IntMatrix.identity(nr).rows]
    v = [list(r) for r in IntMatrix.identity(nc).rows]  # tracks column ops, stored transposed

    def col_swap(i, j):
        for row in w:
            row[i], row[j] = row[j], row[i]
        v[i], v[j] = v[j], v[i]

    def do_gcd_colop(c_i, c_j, pivot_row):
        a = w[pivot_row][c_i]
        b = w[pivot_row][c_j]
        if b % a == 0:
            q = b // a
            for row in w:
                row[c_j] -= q * row[c_i]
            v[c_j] = [y_ - q * x_ for x_, y_ in zip(v[c_i], v[c_j])]
            return
        g, x, y = _xgcd(a, b)
        p, q = a // g, b // g
        for row in w:
            ci, cj = row[c_i], row[c_j]
            row[c_i] = x * ci + y * cj
            row[c_j] = -q * ci + p * cj
        ci_row = v[c_i][:]
        cj_row = v[c_j][:]
        v[c_i] = [x * a_ + y * b_ for a_, b_ in zip(ci_row, cj_row)]
        v[c_j] = [-q * a_ + p * b_ for a_, b_ in zip(ci_row, cj_row)]

    t = 0
    while t < min(nr, nc):
        # find a pivot with minimal absolute value in the remaining block
        best = None
        for i in range(t, nr):
            for j in range(t, nc):
                if w[i][j] != 0 and (best is None or abs(w[i][j]) < abs(w[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            _swap_rows(w, bi, t)
            _swap_rows(u, bi, t)
        if bj != t:
            col_swap(bj, t)
        while True:
            dirty = False
            for i in range(t + 1, nr):
                if w[i][t] != 0:
                    _gcd_rowop(w, u, t, i, t)
                    dirty = True
            for j in range(t + 1, nc):
                if w[t][j] != 0:
                    do_gcd_colop(t, j, t)
                    dirty = True
            if not dirty:
                break
        t += 1

    k = min(nr, nc)
    # positive diagonal
    for i in range(k):
        if w[i][i] < 0:
            w[i] = [-x for x in w[i]]
            u[i] = [-x for x in u[i]]
    # divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = w[i][i], w[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold column i+1 into column i, then re-clear the 2x2 block
                for row in w:
                    row[i] += row[i + 1]
                v[i] = [x + y for x, y in zip(v[i], v[i + 1])]
                while w[i + 1][i] != 0 or w[i][i + 1] != 0:
                    if w[i + 1][i] != 0:
                        _gcd_rowop(w, u, i, i + 1, i)
                    if w[i][i + 1] != 0:
                        do_gcd_colop(i, i + 1, i)
                for j in (i, i + 1):
                    if w[j][j] < 0:
                        w[j] = [-x for x in w[j]]
                        u[j] = [-x for x in u[j]]
                changed = True

    U = IntMatrix.from_rows(u, ncols=nr)
    V = IntMatrix.from_cols(v, nrows=nc)
    D = IntMatrix.from_rows(w, ncols=nc)
    if not (U.is_unimodular() and V.is_unimodular()):
        raise RuntimeError(f"Smith form of {m.rows}: U or V is not unimodular")
    if (U @ m @ V).rows != D.rows:
        raise RuntimeError(f"Smith form of {m.rows}: U m V is not D")
    return U, D, V


def hnf_rows(m: IntMatrix) -> IntMatrix:
    """Row Hermite normal form (unimodular row ops only).

    Pivots are positive and leftmost; entries above a pivot are reduced
    into [0, pivot).  Zero rows sink to the bottom.
    """
    w = [list(r) for r in m.rows]
    u = [list(r) for r in IntMatrix.identity(m.nrows).rows]
    r = 0
    for c in range(m.ncols):
        piv = None
        for i in range(r, m.nrows):
            if w[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        _swap_rows(w, r, piv)
        _swap_rows(u, r, piv)
        for i in range(r + 1, m.nrows):
            if w[i][c] != 0:
                _gcd_rowop(w, u, r, i, c)
        if w[r][c] < 0:
            w[r] = [-x for x in w[r]]
        for i in range(r):
            q = w[i][c] // w[r][c]
            if q:
                w[i] = [a - q * b for a, b in zip(w[i], w[r])]
        r += 1
        if r == m.nrows:
            break
    return IntMatrix.from_rows(w, ncols=m.ncols)


def kernel_basis(m: IntMatrix) -> list[Vec]:
    """Basis of the integer kernel of m, saturated and HNF-reduced: the
    columns of V past the nonzero diagonal entries of the Smith form U m V
    = D, in Hermite normal form."""
    _, d, v = snf_decompose(m)
    rank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0)
    cols = [v.col(j) for j in range(rank, v.ncols)]
    if not cols:
        return []
    h = hnf_rows(IntMatrix.from_rows(cols, ncols=v.ncols))
    return [r for r in h.rows if not is_zero_vec(r)]


def split_extension(m: IntMatrix) -> IntMatrix:
    """Section s of a surjective map m: Z^ncols -> Z^nrows, with m @ s = id.

    Raises NotSurjectiveError carrying the image sublattice and its index
    when m is not surjective.
    """
    u, d, v = snf_decompose(m)
    divisors = [d.rows[i][i] for i in range(min(m.nrows, m.ncols))]
    rank = sum(1 for x in divisors if x != 0)
    if rank < m.nrows or any(x != 1 for x in divisors if x != 0):
        image = Sublattice(m.nrows, m.cols())
        index = None
        if rank == m.nrows:
            index = 1
            for x in divisors:
                index *= x
        raise NotSurjectiveError(
            f"map is not surjective (image has index {index if index is not None else 'infinity'})",
            image=image, index=index)
    dplus_rows = [[1 if (i == j) else 0 for j in range(m.nrows)] for i in range(m.ncols)]
    dplus = IntMatrix.from_rows(dplus_rows, ncols=m.nrows)
    s = v @ dplus @ u
    if (m @ s).rows != IntMatrix.identity(m.nrows).rows:
        raise RuntimeError(f"split of {m.rows}: m s is not the identity")
    return s


class Sublattice:
    """Finitely generated sublattice of Z^ambient_rank, given by generators."""

    def __init__(self, ambient_rank: int, generators):
        self.ambient_rank = ambient_rank
        self.generators = [tuple(int(x) for x in g) for g in generators]
        for g in self.generators:
            if len(g) != ambient_rank:
                raise ValueError("generator length mismatch")
        nonzero = [g for g in self.generators if not is_zero_vec(g)]
        if nonzero:
            h = hnf_rows(IntMatrix.from_rows(nonzero, ncols=ambient_rank))
            self.basis = [r for r in h.rows if not is_zero_vec(r)]
        else:
            self.basis = []

    @cached_property
    def _echelon(self) -> Echelon:
        """Echelon of the basis columns, which every coordinate solve reads."""
        return echelon(IntMatrix.from_cols(self.basis, nrows=self.ambient_rank))

    @property
    def rank(self) -> int:
        return len(self.basis)

    def index(self) -> int:
        """Index in the ambient lattice; raises when infinite."""
        if self.rank < self.ambient_rank:
            raise InfiniteIndexError("sublattice has infinite index")
        det = IntMatrix.from_rows(self.basis, ncols=self.ambient_rank).det()
        return abs(det)

    def coordinates_of(self, v: Vec) -> Vec | None:
        """Integer coordinates of v in the basis, or None when v is outside."""
        sol = self._echelon.solve(v)
        if sol is None or any(x.denominator != 1 for x in sol):
            return None
        return tuple(int(x) for x in sol)

    def __contains__(self, v) -> bool:
        return self.coordinates_of(tuple(v)) is not None

    def lattice_length_of(self, v: Vec) -> int | None:
        """Smallest k >= 1 with k*v in the sublattice, or None if no multiple is."""
        sol = self._echelon.solve(v)
        if sol is None:
            return None
        return math.lcm(*(x.denominator for x in sol))

    def __repr__(self):
        return f"Sublattice(rank {self.rank} in Z^{self.ambient_rank}, basis {self.basis})"
