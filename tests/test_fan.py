"""Cone and fan machinery: dual descriptions, faces, validation, subdivision."""

import time

import pytest
from reference import pulled_back

from toricfib.catalog import fan_hirzebruch, fan_p1, fan_p2, fan_p112, fan_quadric_cone, x_proj
from toricfib.errors import (
    DocumentError,
    InvalidFanError,
    NotInSupportError,
    NotPrimitiveError,
    NotUnimodularError,
)
from toricfib.fan import (
    Cone,
    Fan,
    classify_fan,
    fans_isomorphic_under,
    product_fan,
    star_subdivide,
    validate_fan,
)
from toricfib.lattice import IntMatrix


class TestCone:
    def test_hull_reduces_to_extremal_generators(self):
        c = Cone.hull(2, [(1, 0), (1, 1), (0, 1), (2, 3)])
        assert c.gens == ((0, 1), (1, 0))

    def test_hull_primitivizes(self):
        c = Cone.hull(2, [(4, 0), (0, 6)])
        assert c.gens == ((0, 1), (1, 0))

    def test_hull_rejects_a_line(self):
        with pytest.raises(InvalidFanError):
            Cone.hull(2, [(1, 0), (-1, 0)])

    def test_zero_cone(self):
        z = Cone.zero(3)
        assert z.dim == 0
        assert z.contains((0, 0, 0))
        assert not z.contains((1, 0, 0))

    def test_quadrant_h_description(self):
        c = Cone.hull(2, [(1, 0), (0, 1)])
        assert c.equations == ()
        assert sorted(c.inequalities) == [(0, 1), (1, 0)]
        assert c.contains((5, 7)) and not c.contains((-1, 0))

    def test_low_dimensional_cone_has_equations(self):
        c = Cone.hull(3, [(1, 0, 0), (0, 1, 0)])
        assert c.dim == 2
        assert c.equations == ((0, 0, 1),)
        assert c.contains((2, 3, 0)) and not c.contains((2, 3, 1))

    def test_faces_of_quadrant(self):
        c = Cone.hull(2, [(1, 0), (0, 1)])
        dims = sorted(f.dim for level in c.face_levels for f in level)
        assert dims == [0, 1, 1, 2]

    def test_faces_of_quadric_cone(self):
        c = Cone.hull(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert len(c.gens) == 4 and c.dim == 3
        assert not c.is_simplex
        dims = sorted(f.dim for level in c.face_levels for f in level)
        assert dims == [0, 1, 1, 1, 1, 2, 2, 2, 2, 3]

    def test_intersect_shared_edge(self):
        q1 = Cone.hull(2, [(1, 0), (0, 1)])
        q4 = Cone.hull(2, [(1, 0), (0, -1)])
        assert q1.intersect(q4).gens == ((1, 0),)

    def test_is_face_of(self):
        q1 = Cone.hull(2, [(1, 0), (0, 1)])
        assert Cone.hull(2, [(1, 0)]).is_face_of(q1)
        assert Cone.zero(2).is_face_of(q1)
        assert q1.is_face_of(q1)
        assert not Cone.hull(2, [(1, 1)]).is_face_of(q1)
        assert not Cone.hull(2, [(-1, 0)]).is_face_of(q1)

    def test_multiplicity(self):
        assert Cone.hull(2, [(1, 0), (0, 1)]).multiplicity() == 1
        assert Cone.hull(2, [(1, 0), (1, 2)]).multiplicity() == 2
        assert Cone.hull(2, [(1, 0), (-1, -2)]).multiplicity() == 2
        assert Cone.hull(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)]).multiplicity() is None
        assert Cone.hull(2, [(1, 0), (0, 1)]).is_smooth
        assert not Cone.hull(2, [(1, 0), (1, 2)]).is_smooth


class TestExtremeRays:
    def test_halfplane_contains_a_line(self):
        with pytest.raises(InvalidFanError):
            Cone.hull(2, [(1, 0), (-1, 0), (0, 1)])

    def test_quadrant_rays(self):
        assert Cone.hull(2, [(1, 0), (0, 1)]).inequalities == ((0, 1), (1, 0))

    def test_redundant_inequalities_ignored(self):
        cone = Cone.hull(2, [(1, 0), (0, 1), (1, 1), (2, 1)])
        assert cone.inequalities == ((0, 1), (1, 0))

    def test_equations_cut_a_face(self):
        octant = Cone.hull(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
        assert octant.cut([(0, 0, 1)], []) == [(0, 1, 0), (1, 0, 0)]

    def test_cut_joins_only_adjacent_rays(self):
        # y <= x cuts the cone over the unit square along its diagonal; the
        # rays over (0, 1) and (1, 0) span no face, so nothing joins them
        square = Cone.hull(3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)])
        assert square.cut([], [(1, -1, 0)]) == [(0, 0, 1), (1, 0, 1), (1, 1, 1)]


class TestFan:
    def test_validate_P2(self):
        fan = fan_p2()
        assert validate_fan(fan) is None
        assert (fan.rank, len(fan.rays), len(fan.max_cones)) == (2, 3, 3)

    def test_invalid_overlap(self):
        bad = Fan.make(2, [Cone.hull(2, [(1, 0), (0, 1)]),
                           Cone.hull(2, [(1, 1), (-1, 1)])])
        with pytest.raises(InvalidFanError):
            validate_fan(bad)

    def test_contained_cone_rejected(self):
        bad = Fan.make(2, [Cone.hull(2, [(1, 0), (0, 1)]),
                           Cone.hull(2, [(1, 0)])])
        with pytest.raises(InvalidFanError):
            validate_fan(bad)

    def test_nonextremal_cone_listing_rejected(self):
        with pytest.raises(InvalidFanError):
            Fan.from_rays_and_cones(2, [(1, 0), (1, 1), (0, 1)], [(0, 1, 2)])

    def test_classify_P2(self):
        cls = classify_fan(fan_p2())
        assert (cls.simplicial, cls.smooth, cls.complete) == (True, True, True)

    def test_classify_P112(self):
        cls = classify_fan(fan_p112())
        assert (cls.simplicial, cls.smooth, cls.complete) == (True, False, True)

    def test_classify_quadric_cone(self):
        cls = classify_fan(fan_quadric_cone())
        assert (cls.simplicial, cls.smooth, cls.complete) == (False, False, False)

    def test_classify_open_quadrant_fan(self):
        half = Fan.from_rays_and_cones(2, [(1, 0), (0, 1)], [(0, 1)])
        assert not classify_fan(half).complete

    def test_walls_of_P2(self):
        walls = fan_p2().walls
        assert len(walls) == 3
        assert all(w[0].dim == 1 for w in walls)

    def test_support(self):
        qc = fan_quadric_cone()
        assert qc.support_contains((1, 1, 2))
        assert not qc.support_contains((0, 0, -1))
        assert fan_p2().support_contains((-7, 3))

    def test_rays_sorted_and_indexed(self):
        f = fan_p112()
        assert f.rays == ((-1, -2), (0, 1), (1, 0))
        assert f.ray_index[(0, 1)] == 1


class TestStarSubdivision:
    def test_P2_at_interior_point_gives_hirzebruch_1(self):
        sub = star_subdivide(fan_p2(), (1, 1))
        assert sub.rays == ((-1, -1), (0, 1), (1, 0), (1, 1))
        assert len(sub.max_cones) == 4
        m = IntMatrix.from_rows([(1, -1), (0, 1)])
        assert fans_isomorphic_under(m, sub, fan_hirzebruch(1))

    def test_subdividing_at_existing_ray_is_identity(self):
        f = fan_p2()
        assert star_subdivide(f, (1, 0)) == f

    def test_nonprimitive_point_rejected(self):
        with pytest.raises(NotPrimitiveError):
            star_subdivide(fan_p2(), (2, 2))

    def test_point_outside_support_rejected(self):
        with pytest.raises(NotInSupportError):
            star_subdivide(fan_quadric_cone(), (0, 0, -1))

    def test_quadric_cone_resolves_at_diagonal(self):
        sub = star_subdivide(fan_quadric_cone(), (1, 1, 2))
        assert len(sub.max_cones) == 4
        assert classify_fan(sub).simplicial


class TestPairBudget:
    """448 cones of the half-plane on the rays (1, k): 448 * 447 / 2 =
    100128 pairs, refused before any pair is intersected."""

    MESSAGE = ("the fan is not complete and has 100128 pairs of maximal "
               "cones to check, more than the 100000 allowed")

    @staticmethod
    def half_plane():
        return Fan.from_rays_and_cones(2, [(1, k) for k in range(449)],
                                       [[k, k + 1] for k in range(448)])

    def test_validate_fan_refuses_more_pairs_than_the_budget(self):
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            validate_fan(self.half_plane())
        assert time.perf_counter() - start < 1
        assert str(exc.value) == self.MESSAGE

    def test_star_subdivide_refuses_the_pairs_of_its_result(self):
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            star_subdivide(self.half_plane(), (1, 1))
        assert time.perf_counter() - start < 1
        assert str(exc.value) == self.MESSAGE


class TestIsomorphism:
    def test_rejects_nonunimodular(self):
        with pytest.raises(NotUnimodularError):
            fans_isomorphic_under(IntMatrix.from_rows([(2, 0), (0, 1)]),
                                  fan_p2(), fan_p2())

    def test_identity_detects_equal_fans(self):
        m = IntMatrix.identity(2)
        assert fans_isomorphic_under(m, fan_p2(), fan_p2())
        assert not fans_isomorphic_under(m, fan_p2(), fan_p112())

    def test_nontrivial_automorphism_of_P2(self):
        # swap the first two rays
        m = IntMatrix.from_rows([(0, 1), (1, 0)])
        assert fans_isomorphic_under(m, fan_p2(), fan_p2())


class TestPreimageSection:
    def test_section_over_positive_ray(self):
        sigma = Cone.hull(2, [(2, 1), (0, 1)])
        assert sigma.cut(*pulled_back(x_proj(), Cone.hull(1, [(1,)]))) == list(sigma.gens)

    def test_section_over_zero_cone(self):
        sigma = Cone.hull(2, [(2, 1), (0, 1)])
        assert sigma.cut(*pulled_back(x_proj(), Cone.zero(1))) == [(0, 1)]

    def test_section_can_be_zero(self):
        sigma = Cone.hull(2, [(1, 0), (1, 1)])
        assert sigma.cut(*pulled_back(x_proj(), Cone.zero(1))) == []


class TestProduct:
    def test_P1_times_P1(self):
        f = product_fan(fan_p1(), fan_p1())
        assert f.rank == 2 and len(f.max_cones) == 4
        cls = classify_fan(f)
        assert (cls.simplicial, cls.smooth, cls.complete) == (True, True, True)

    def test_P2_times_P1_counts(self):
        f = product_fan(fan_p2(), fan_p1())
        assert f.rank == 3
        assert len(f.max_cones) == 6
        assert len(f.rays) == 5
        assert classify_fan(f).complete
