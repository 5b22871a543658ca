"""Covers: sublattice quotients, crepant pullback, the P^r cover."""

from fractions import Fraction

import pytest

from toricfib.catalog import (
    fan_hirzebruch,
    fan_ladder,
    fan_p1,
    fan_p2,
    fan_p112,
    fan_point,
    fixture,
    ladder_boundary,
)
from toricfib.cover import (
    crepant_pullback_pair,
    fiber_relation_vector,
    pr_cover,
    quotient_by_sublattice,
)
from toricfib.errors import (
    InfiniteIndexError,
    NonPositiveRelationError,
    NotMFSError,
    WrongRayCountError,
)
from toricfib.fan import Fan, fans_isomorphic_under, product_fan
from toricfib.fibration import validate_contraction
from toricfib.lattice import IntMatrix, Sublattice
from toricfib.pair import BoundaryData, build_pair, log_discrepancy_at


class TestQuotient:
    def test_double_cover_of_P1(self):
        c = quotient_by_sublattice(fan_p1(), Sublattice(1, [(2,)]))
        assert c.degree == 2
        assert c.cover_fan.rays == ((-1,), (1,))
        assert c.inclusion.apply((1,)) == (2,)

    def test_P112_double_cover_is_the_plane(self):
        c = quotient_by_sublattice(fan_p112(), Sublattice(2, [(1, 0), (0, 2)]))
        assert c.degree == 2
        upstairs = sorted(c.inclusion.apply(r) for r in c.cover_fan.rays)
        assert upstairs == [(-1, -2), (0, 2), (1, 0)]
        assert c.cover_fan.rays == fan_p2().rays
        assert len(c.cover_fan.max_cones) == 3

    def test_identity_cover(self):
        c = quotient_by_sublattice(fan_p2(), Sublattice(2, [(1, 0), (0, 1)]))
        assert c.degree == 1
        assert c.cover_fan == fan_p2()

    def test_infinite_index_rejected(self):
        with pytest.raises(InfiniteIndexError):
            quotient_by_sublattice(fan_p2(), Sublattice(2, [(1, 0)]))


class TestCrepantPullback:
    def test_hurwitz_on_P1(self):
        c = quotient_by_sublattice(fan_p1(), Sublattice(1, [(2,)]))
        p = build_pair(fan_p1(), BoundaryData.zero(fan_p1()))
        up = crepant_pullback_pair(p, c)
        assert up.boundary.ray_coeffs == (-1, -1)
        assert up.is_subpair

    def test_full_boundary_stays_full(self):
        c = quotient_by_sublattice(fan_p112(), Sublattice(2, [(1, 0), (0, 2)]))
        p = build_pair(fan_p112(), BoundaryData.full(fan_p112()))
        up = crepant_pullback_pair(p, c)
        assert up.boundary.ray_coeffs == (1, 1, 1)

    def test_a_function_is_unchanged_on_the_sublattice(self):
        sub = Sublattice(2, [(1, 0), (0, 2)])
        c = quotient_by_sublattice(fan_p112(), sub)
        p = build_pair(fan_p112(), BoundaryData(
            (Fraction(1, 2), Fraction(0), Fraction(1, 3))))
        up = crepant_pullback_pair(p, c)
        for u in [(1, 0), (0, 2), (-1, -2), (2, 2), (-3, -6), (1, -4)]:
            coords = sub.coordinates_of(u)
            assert log_discrepancy_at(up, coords) == log_discrepancy_at(p, u)

    def test_generic_member_multiplicities_scale(self):
        sub = Sublattice(2, [(1, 0), (0, 2)])
        c = quotient_by_sublattice(fan_p112(), sub)
        p = build_pair(fan_p112(), ladder_boundary(fan_p112(), 4))
        up = crepant_pullback_pair(p, c)
        gm = up.boundary.generic[0]
        # ray (0,1) has lattice length 2 in N', the others stay primitive
        table = {r: gm.rep.coeff_at(r) for r in up.fan.rays}
        assert table[(0, 1)] == 8
        assert table[(1, 0)] == 4
        assert up.pair_class_vector() == (0, 0, 0)

    def test_a_cover_of_another_fan_is_refused(self):
        c = quotient_by_sublattice(fan_p112(), Sublattice(2, [(1, 0), (0, 2)]))
        with pytest.raises(ValueError, match="does not come from the pair's fan"):
            crepant_pullback_pair(build_pair(fan_p2(), BoundaryData.zero(fan_p2())), c)


class TestFiberRelation:
    def test_plane(self):
        assert fiber_relation_vector(fan_p2()) == (1, 1, 1)

    def test_weighted_plane(self):
        assert fiber_relation_vector(fan_p112()) == (1, 2, 1)

    def test_wrong_ray_count(self):
        with pytest.raises(WrongRayCountError):
            fiber_relation_vector(fan_ladder(2))

    def test_mixed_sign_relation_rejected(self):
        f = Fan.from_rays_and_cones(
            2, [(1, 0), (0, 1), (1, 1)], [(0, 2), (2, 1)])
        with pytest.raises(NonPositiveRelationError):
            fiber_relation_vector(f)

    def test_degenerate_relation_rejected(self):
        f = Fan.from_rays_and_cones(
            2, [(1, 0), (-1, 0), (0, 1)], [(0, 2), (1, 2)])
        with pytest.raises(NonPositiveRelationError):
            fiber_relation_vector(f)


class TestPrCover:
    def test_weighted_fiber_gets_untwisted(self):
        f = fixture("p112xp1").contraction
        p = build_pair(f.source, BoundaryData.zero(f.source))
        cover, report = pr_cover(f, p)
        assert report.relation == (1, 2, 1)
        assert cover.degree == 2
        assert report.fiber_is_projective_space
        assert report.cover_simplicial
        assert fans_isomorphic_under(IntMatrix.identity(3), cover.cover_fan,
                                     product_fan(fan_p2(), fan_p1()))

    def test_plane_fiber_needs_no_cover(self):
        f = fixture("p2xp1").contraction
        p = build_pair(f.source, BoundaryData.zero(f.source))
        cover, report = pr_cover(f, p)
        assert cover.degree == 1
        assert report.relation == (1, 1, 1)
        assert report.fiber_is_projective_space

    def test_ladder_ruling(self):
        f = fixture("x2").contraction
        p = build_pair(f.source, BoundaryData.zero(f.source))
        cover, report = pr_cover(f, p)
        assert cover.degree == 1
        assert report.relation == (1, 1)
        assert report.fiber_is_projective_space
        assert cover.cover_fan == f.source

    def test_requires_a_mori_fiber_space(self):
        f1 = fan_hirzebruch(1)
        f = validate_contraction(f1, fan_point(), IntMatrix(0, 2, ()))
        p = build_pair(f1, BoundaryData.zero(f1))
        with pytest.raises(NotMFSError):
            pr_cover(f, p)
