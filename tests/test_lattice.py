"""Tests for the exact integer linear algebra layer.

Expected Smith forms are certified in-test by re-multiplying the
decomposition; kernel and section claims are checked against the defining
equations rather than against copied outputs.
"""

from fractions import Fraction

import pytest
from reference import gauss_jordan_rank, saturation_basis

from toricfib.errors import InfiniteIndexError, NotSurjectiveError, ZeroVectorError
from toricfib.lattice import (
    IntMatrix,
    Sublattice,
    dot,
    echelon,
    hnf_rows,
    kernel_basis,
    primitive_part,
    snf_decompose,
    split_extension,
)


def diag_of(d):
    return [d.rows[i][i] for i in range(min(d.nrows, d.ncols))]


def assert_snf(m, expected_diag):
    u, d, v = snf_decompose(m)
    assert (u @ m @ v).rows == d.rows
    assert u.is_unimodular() and v.is_unimodular()
    got = diag_of(d)
    assert got == expected_diag
    # off-diagonal must vanish and the chain must divide
    for i, row in enumerate(d.rows):
        for j, x in enumerate(row):
            if i != j:
                assert x == 0
    for a, b in zip(got, got[1:]):
        if a != 0:
            assert b % a == 0


def test_snf_diag_2_3():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert_snf(m, [1, 6])


def test_snf_upper_triangular():
    m = IntMatrix.from_rows([[2, 4], [0, 6]])
    assert_snf(m, [2, 6])


def test_snf_rectangular_and_zero():
    assert_snf(IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]), [1, 1])
    assert_snf(IntMatrix.from_rows([[0, 0], [0, 0]]), [0, 0])


def test_primitive_part():
    assert primitive_part((2, 4)) == ((1, 2), 2)
    assert primitive_part((-3, 0)) == ((-1, 0), 3)
    assert primitive_part((0, 7, 0)) == ((0, 1, 0), 7)
    with pytest.raises(ZeroVectorError):
        primitive_part((0, 0))


def test_dot_of_ints_and_fractions():
    assert dot((1, -2, 3), (4, 5, -6)) == -24
    value = dot((Fraction(1, 2), 3), (Fraction(2, 3), Fraction(-1, 4)))
    assert value == Fraction(-5, 12)
    assert isinstance(value, Fraction)
    assert dot((), ()) == 0


def test_dot_refuses_a_length_mismatch():
    with pytest.raises(ValueError):
        dot((1, 2), (1, 2, 3))
    with pytest.raises(ValueError):
        dot((1,), ())


def test_kernel_basis_examples():
    ker = kernel_basis(IntMatrix.from_rows([[2, -1]]))
    assert ker == [(1, 2)]
    ker = kernel_basis(IntMatrix.from_rows([[1, 0]]))
    assert ker == [(0, 1)]
    assert kernel_basis(IntMatrix.from_rows([[1, 0], [0, 1]])) == []


def test_kernel_is_saturated_and_annihilated():
    m = IntMatrix.from_rows([[2, 4, 6], [0, 0, 12]])
    ker = kernel_basis(m)
    assert len(ker) == 3 - gauss_jordan_rank(m)
    for v in ker:
        assert all(x == 0 for x in m.apply(v))
    # saturation: the kernel basis generates a saturated sublattice
    sat = saturation_basis(ker, 3)
    assert sorted(sat) == sorted(ker)


def test_split_extension_coordinate_projection():
    m = IntMatrix.from_rows([[1, 0]])
    s = split_extension(m)
    assert (m @ s).rows == IntMatrix.identity(1).rows
    assert s.col(0) == (1, 0)
    assert kernel_basis(m) == [(0, 1)]


def test_split_extension_two_of_three():
    m = IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])
    s = split_extension(m)
    assert (m @ s).rows == IntMatrix.identity(2).rows
    assert s.col(0) == (1, 0, 0)
    assert s.col(1) == (0, 1, 0)


def test_split_extension_not_surjective():
    with pytest.raises(NotSurjectiveError) as exc:
        split_extension(IntMatrix.from_rows([[2]]))
    assert exc.value.index == 2
    assert (2,) in exc.value.image
    assert (1,) not in exc.value.image


def test_split_extension_rank_drop():
    with pytest.raises(NotSurjectiveError) as exc:
        split_extension(IntMatrix.from_rows([[1, 0], [1, 0]]))
    assert exc.value.index is None


def test_hnf_canonical():
    m = IntMatrix.from_rows([[0, 1], [1, 2]])
    h = hnf_rows(m)
    assert h.rows == ((1, 0), (0, 1))
    m = IntMatrix.from_rows([[2, 1], [0, 3]])
    h = hnf_rows(m)
    # pivots positive, entry above second pivot reduced
    assert h.rows[0][0] > 0 and h.rows[1][1] > 0
    assert 0 <= h.rows[0][1] < h.rows[1][1]


def test_sublattice_index_and_membership():
    sub = Sublattice(2, [(1, 0), (0, 2)])
    assert sub.index() == 2
    assert (0, 2) in sub
    assert (0, 1) not in sub
    assert sub.coordinates_of((3, 4)) == (3, 2)
    assert sub.lattice_length_of((0, 1)) == 2
    with pytest.raises(InfiniteIndexError):
        Sublattice(2, [(1, 0)]).index()


def test_saturation_basis():
    sat = saturation_basis([(2, 0), (0, 4)], 2)
    assert sorted(sat) == [(0, 1), (1, 0)]
    sat = saturation_basis([(2, 4)], 2)
    assert sat == [(1, 2)]


def test_solve_rational():
    m = IntMatrix.from_rows([[2, 0], [0, 3]])
    assert echelon(m).solve((1, 1)) == ((3, 2), 6)
    m = IntMatrix.from_rows([[1, 1], [1, 1]])
    assert echelon(m).solve((1, 2)) is None
    assert echelon(m).solve((2, 2)) == ((2, 0), 1)
    assert echelon(IntMatrix.from_rows([], ncols=2)).solve(()) == ((), 1)


def test_echelon_of_a_rank_deficient_matrix():
    m = IntMatrix.from_rows([[0, 2, 4], [0, 1, 2], [0, 1, 3]])
    ech = echelon(m)
    assert ech.cols == (1, 2)
    assert ech.rows == (0, 2)
    assert ech.det == 2 * 3 - 4 * 1
    assert ech.adj == ((3, -4), (-1, 2))
    assert ech.solve((2, 1, 2)) == ((0, -1, 1), 1)
    assert ech.solve((2, 2, 2)) is None


def test_constructors_reject_a_width_the_data_disagrees_with():
    with pytest.raises(ValueError):
        IntMatrix.from_rows([(1, 0, 0), (0, 1, 0)], ncols=2)
    with pytest.raises(ValueError):
        IntMatrix.from_cols([(1, 0, 0), (0, 1, 0)], nrows=2)
    with pytest.raises(ValueError):
        IntMatrix.from_cols([(1, 0), (0, 1, 0)])
    assert IntMatrix.from_cols([(1, 2), (3, 4), (5, 6)], nrows=2).rows == ((1, 3, 5), (2, 4, 6))
    assert IntMatrix.from_cols([], nrows=3).rows == ((), (), ())
