"""Independent references for the exact linear algebra of toricfib.lattice.

Each helper reaches its answer by a different route from the function it
checks, so that agreement between the two means something.
"""

from fractions import Fraction

from toricfib.lattice import IntMatrix, hnf_rows, is_zero_vec, snf_decompose


def gauss_jordan(m, rhs):
    """Gauss-Jordan in Fractions on [m | rhs]: the reduced rows, the pivot
    columns, and the product of the pivots signed by the row swaps."""
    work = [[Fraction(x) for x in r] + [Fraction(b)] for r, b in zip(m.rows, rhs, strict=True)]
    pivots = []
    det = Fraction(1)
    for c in range(m.ncols + 1):
        r = len(pivots)
        if r == len(work):
            break
        piv = next((i for i in range(r, len(work)) if work[i][c] != 0), None)
        if piv is None:
            continue
        if piv != r:
            work[r], work[piv] = work[piv], work[r]
            det = -det
        det *= work[r][c]
        work[r] = [x / work[r][c] for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c] != 0:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
    return work, pivots, det


def gauss_jordan_solve(m, rhs):
    """Checks Echelon.solve: one exact solution x of m x = rhs over Q, free
    variables set to 0, None when the system is inconsistent, () when m
    has no rows."""
    if not m.nrows:
        return ()
    work, pivots, _ = gauss_jordan(m, rhs)
    if m.ncols in pivots:
        return None
    sol = [Fraction(0)] * m.ncols
    for row, c in zip(work, pivots):
        sol[c] = row[-1]
    return tuple(sol)


def gauss_jordan_rank(m) -> int:
    """Checks IntMatrix.rank: the number of Gauss-Jordan pivots."""
    return len(gauss_jordan(m, [0] * m.nrows)[1])


def gauss_jordan_det(m) -> int:
    """Checks IntMatrix.det: the signed product of the Gauss-Jordan pivots
    of a square m, 0 below full rank."""
    if m.nrows != m.ncols:
        raise ValueError("det of non-square matrix")
    _, pivots, det = gauss_jordan(m, [0] * m.nrows)
    return int(det) if len(pivots) == m.nrows else 0


def smith_kernel_basis(m) -> list:
    """Checks kernel_basis: the columns of V past the nonzero diagonal
    entries of the Smith form U m V = D, in Hermite normal form."""
    _, d, v = snf_decompose(m)
    rank = sum(1 for i in range(min(d.nrows, d.ncols)) if d.rows[i][i] != 0)
    cols = [v.col(j) for j in range(rank, v.ncols)]
    if not cols:
        return []
    h = hnf_rows(IntMatrix.from_rows(cols, ncols=v.ncols))
    return [r for r in h.rows if not is_zero_vec(r)]


def saturation_basis(vectors, length: int) -> list:
    """Checks Cone.span: a basis of the saturation of the span of the given
    vectors in Z^length, the integer kernel of their integer kernel, so
    HNF-reduced, both kernels taken through Smith forms."""
    vectors = [v for v in vectors if not is_zero_vec(v)]
    if not vectors:
        return []
    ker = smith_kernel_basis(IntMatrix.from_rows(vectors, ncols=length))
    return smith_kernel_basis(IntMatrix.from_rows(ker, ncols=length))
