"""Exact integer linear algebra on free abelian groups of finite rank.

Vectors are plain tuples of Python ints, matrices are immutable row-major
IntMatrix objects.  Everything is arbitrary precision; no floats.  There
are three reductions.  echelon, one fraction-free Gauss-Jordan pass, gives
the pivot columns, independent rows and the adjugate of their block in
integers: rank and determinant read it, and every exact solve over Q,
which answers in integers over one positive denominator.  The
Hermite form gives sublattice bases and kernels.  The Smith form is kept
for sections of a surjection, where its unimodular transforms are the
answer.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

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


def _placed(rank: int, index, values) -> Vec:
    """The vector of length rank with the values at the index positions
    and zeros elsewhere."""
    at = dict(zip(index, values))
    return tuple(at.get(j, 0) for j in range(rank))


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
        """The number of pivot columns of the echelon."""
        return len(echelon(self).cols)

    def det(self) -> int:
        """The echelon's pivot determinant, signed by the parity of its
        row order, or 0 below full rank."""
        if self.nrows != self.ncols:
            raise ValueError("det of non-square matrix")
        ech = echelon(self)
        if len(ech.cols) < self.nrows:
            return 0
        inversions = sum(i > j for i, j in combinations(ech.rows, 2))
        return -ech.det if inversions % 2 else ech.det

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

    def solve(self, rhs) -> tuple[Vec, int] | None:
        """One exact solution of m x = rhs over Q, free variables set to 0,
        as integers y over the least positive d, x = y / d; None when the
        system is inconsistent, ((), 1) when m has no rows.  With rhs over a
        common denominator L, y_cols = adj (L rhs)_rows over det L, and the
        system is consistent when every row holds in integers."""
        if not self.m.nrows:
            return (), 1
        den = math.lcm(*(b.denominator for b in rhs))
        nums = [b.numerator * (den // b.denominator) for b in rhs]
        y = [dot(a, [nums[i] for i in self.rows]) for a in self.adj]
        if any(dot([r[c] for c in self.cols], y) != self.det * n
               for r, n in zip(self.m.rows, nums, strict=True)):
            return None
        d = self.det * den
        g = math.gcd(d, *y) if d > 0 else -math.gcd(d, *y)
        return _placed(self.m.ncols, self.cols, [t // g for t in y]), d // g


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


def _swap_rows(mats, i, j):
    for w in mats:
        w[i], w[j] = w[j], w[i]


def _add_row(mats, i, j):
    for w in mats:
        w[i] = [x + y for x, y in zip(w[i], w[j])]


def _negate_row(mats, i):
    for w in mats:
        w[i] = [-x for x in w[i]]


def _transposed(w):
    return [list(c) for c in zip(*w)]


def _gcd_rowop(mats, i, j, c):
    """Unimodular row operation on every matrix of mats, zeroing
    mats[0][j][c] against the pivot mats[0][i][c].

    When the pivot divides the target this is plain elimination and the
    pivot row is left untouched; that invariant is what makes the Smith
    reduction loops terminate.
    """
    a, b = mats[0][i][c], mats[0][j][c]
    if b % a == 0:
        q = b // a
        for w in mats:
            w[j] = [y - q * x for x, y in zip(w[i], w[j])]
        return
    g, s, t = _xgcd(a, b)
    p, q = a // g, b // g
    # [[s, t], [-q, p]] has determinant 1
    for w in mats:
        wi, wj = w[i], w[j]
        w[i] = [s * x + t * y for x, y in zip(wi, wj)]
        w[j] = [-q * x + p * y for x, y in zip(wi, wj)]


def _clear_below(mats, r, c) -> bool:
    """Zero mats[0][i][c] for every i > r against the pivot mats[0][r][c];
    whether there was anything to zero."""
    below = [i for i in range(r + 1, len(mats[0])) if mats[0][i][c]]
    for i in below:
        _gcd_rowop(mats, r, i, c)
    return bool(below)


def _on_columns(w, v, step, *args):
    """A column operation on w: the row operation step on w^T and on v,
    the column transform kept transposed."""
    wt = _transposed(w)
    done = step((wt, v), *args)
    w[:] = _transposed(wt)
    return done


def _clear_cross(w, u, v, t):
    """Zero row t and column t of w off the pivot w[t][t]: row operations
    on w and u, column operations on w and v, until neither finds work."""
    while _clear_below((w, u), t, t) | _on_columns(w, v, _clear_below, t, t):
        pass


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

    Diagonal entries are nonnegative and satisfy d1 | d2 | ... .  Column
    operations on m are row operations on its transpose, so V is built
    transposed, by the same unimodular steps as U.
    """
    nr, nc = m.nrows, m.ncols
    w = [list(r) for r in m.rows]
    u = [list(r) for r in IntMatrix.identity(nr).rows]
    v = [list(r) for r in IntMatrix.identity(nc).rows]
    k = min(nr, nc)
    for t in range(k):
        # a pivot of least absolute value in the remaining block
        best = min(((i, j) for i in range(t, nr) for j in range(t, nc) if w[i][j]),
                   key=lambda ij: abs(w[ij[0]][ij[1]]), default=None)
        if best is None:
            break
        _swap_rows((w, u), best[0], t)
        _on_columns(w, v, _swap_rows, best[1], t)
        _clear_cross(w, u, v, t)

    for i in range(k):
        if w[i][i] < 0:
            _negate_row((w, u), i)
    # divisibility chain d_i | d_{i+1}
    changed = True
    while changed:
        changed = False
        for i in range(k - 1):
            a, b = w[i][i], w[i + 1][i + 1]
            if a != 0 and b % a != 0:
                # fold column i+1 into column i, then re-clear the 2x2 block
                _on_columns(w, v, _add_row, i, i + 1)
                _clear_cross(w, u, v, i)
                for j in (i, i + 1):
                    if w[j][j] < 0:
                        _negate_row((w, u), j)
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
    r = 0
    for c in range(m.ncols):
        piv = next((i for i in range(r, m.nrows) if w[i][c]), None)
        if piv is None:
            continue
        _swap_rows((w,), r, piv)
        _clear_below((w,), r, c)
        if w[r][c] < 0:
            _negate_row((w,), r)
        for i in range(r):
            q = w[i][c] // w[r][c]
            if q:
                w[i] = [a - q * b for a, b in zip(w[i], w[r])]
        r += 1
        if r == m.nrows:
            break
    return IntMatrix.from_rows(w, ncols=m.ncols)


def kernel_basis(m: IntMatrix) -> list[Vec]:
    """Basis of the integer kernel of m, saturated and HNF-reduced.

    The Hermite form of [m^T | I] is [U m^T | U] with U unimodular, so its
    rows that vanish on the m^T block are the rows of U that m sends to 0:
    a basis of the kernel, read on the I block and already in Hermite form
    (H. Cohen, A Course in Computational Algebraic Number Theory, 2.4).
    """
    r = m.nrows
    stacked = [row + e for row, e in zip(m.transpose().rows, IntMatrix.identity(m.ncols).rows)]
    h = hnf_rows(IntMatrix.from_rows(stacked, ncols=r + m.ncols))
    return [row[r:] for row in h.rows if is_zero_vec(row[:r])]


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
        generators = [tuple(int(x) for x in g) for g in generators]
        for g in generators:
            if len(g) != ambient_rank:
                raise ValueError("generator length mismatch")
        nonzero = [g for g in generators if not is_zero_vec(g)]
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
        return abs(self._echelon.det)

    def coordinates_of(self, v: Vec) -> Vec | None:
        """Integer coordinates of v in the basis, or None when v is outside."""
        sol = self._echelon.solve(v)
        return sol[0] if sol is not None and sol[1] == 1 else None

    def __contains__(self, v) -> bool:
        return self.coordinates_of(tuple(v)) is not None

    def lattice_length_of(self, v: Vec) -> int | None:
        """Smallest k >= 1 with k*v in the sublattice, or None if no multiple is."""
        sol = self._echelon.solve(v)
        return None if sol is None else sol[1]

    def __repr__(self):
        return f"Sublattice(rank {self.rank} in Z^{self.ambient_rank}, basis {self.basis})"
