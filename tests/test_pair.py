"""Pairs: a-function, log discrepancies, mld, terminality, averaging and
crepant transfer; is_nef and is_ample on divisors; the wall relations and
relative_picard_rank_one's refusals."""

from fractions import Fraction
from itertools import product

import pytest

from toricfib.catalog import (
    fan_hirzebruch,
    fan_ladder,
    fan_p1,
    fan_p2,
    fan_p112,
    fan_point,
    fan_quadric_cone,
    fixture,
    ladder_boundary,
    point_map,
)
from toricfib.divisors import InvariantDivisor, SupportFunction, is_ample, is_nef
from toricfib.errors import (
    AlphaOutOfRangeError,
    CoefficientOutOfRangeError,
    NotInSupportError,
    NotQCartierError,
    NotSimplicialError,
    ToricError,
)
from toricfib.fan import Fan, product_fan, star_subdivide
from toricfib.fibration import relative_picard_rank_one, validate_contraction
from toricfib.lattice import IntMatrix
from toricfib.pair import (
    BoundaryData,
    GenericMember,
    average_boundary,
    build_pair,
    crepant_transfer,
    has_terminal_singularities,
    log_discrepancy_at,
    mld_and_eps_check,
    wall_relation_vector,
)


class TestBuildPair:
    def test_trivial_boundary_on_P2(self):
        p = build_pair(fan_p2(), BoundaryData.zero(fan_p2()))
        assert set(p.a_function.pieces) == {(1, 1), (-2, 1), (1, -2)}
        for r in fan_p2().rays:
            assert p.a_function.value(r) == 1

    def test_non_q_cartier_pair(self):
        f = fan_quadric_cone()
        coeffs = [Fraction(0) if r == (1, 0, 1) else Fraction(1) for r in f.rays]
        with pytest.raises(NotQCartierError):
            build_pair(f, BoundaryData(tuple(coeffs)))

    def test_P112_trivial_boundary_valid(self):
        p = build_pair(fan_p112(), BoundaryData.zero(fan_p112()))
        assert p.a_function.value((1, 0)) == 1

    def test_coefficient_above_one_rejected(self):
        f = fan_p2()
        with pytest.raises(CoefficientOutOfRangeError):
            build_pair(f, BoundaryData((Fraction(2), Fraction(0), Fraction(0))))

    def test_negative_coefficient_needs_subpair_flag(self):
        f = fan_p2()
        data = BoundaryData((Fraction(-1), Fraction(0), Fraction(0)))
        with pytest.raises(CoefficientOutOfRangeError):
            build_pair(f, data)
        p = build_pair(f, data, allow_subpair=True)
        assert p.is_subpair

    def test_generic_member_weight_range(self):
        f = fan_p2()
        rep = InvariantDivisor.anticanonical(f)
        with pytest.raises(CoefficientOutOfRangeError):
            build_pair(f, BoundaryData.zero(f).__class__(
                BoundaryData.zero(f).ray_coeffs,
                (GenericMember(Fraction(3, 2), rep),)))

    def test_generic_member_must_be_nef(self):
        f = fan_p2()
        rep = InvariantDivisor.anticanonical(f).scale(-1)
        with pytest.raises(ToricError):
            build_pair(f, BoundaryData(
                BoundaryData.zero(f).ray_coeffs, (GenericMember(Fraction(1, 2), rep),)))

    def test_log_calabi_yau(self):
        f = fan_p2()
        assert build_pair(f, BoundaryData.full(f)).is_log_calabi_yau()
        assert not build_pair(f, BoundaryData.zero(f)).is_log_calabi_yau()
        assert build_pair(fan_ladder(2), ladder_boundary(fan_ladder(2), 2)).is_log_calabi_yau()


class TestLogDiscrepancy:
    def test_smooth_point_blowup(self):
        p = build_pair(fan_p2(), BoundaryData.zero(fan_p2()))
        assert log_discrepancy_at(p, (1, 1)) == 2

    def test_half_point_on_P112(self):
        p = build_pair(fan_p112(), BoundaryData.zero(fan_p112()))
        assert log_discrepancy_at(p, (0, -1)) == 1

    def test_reduced_boundary_vanishes(self):
        p = build_pair(fan_p2(), BoundaryData.full(fan_p2()))
        assert log_discrepancy_at(p, (1, 1)) == 0

    def test_outside_support(self):
        f = Fan.from_rays_and_cones(2, [(1, 0), (0, 1)], [(0, 1)])
        p = build_pair(f, BoundaryData.zero(f))
        with pytest.raises(NotInSupportError):
            log_discrepancy_at(p, (-1, -1))


class TestMld:
    def test_P2_mld_one(self):
        res = mld_and_eps_check(build_pair(fan_p2(), BoundaryData.zero(fan_p2())), 1)
        assert res.mld_toric == 1 and res.eps_lc

    def test_ladder_mld(self):
        for k in range(2, 8):
            p = build_pair(fan_ladder(k), BoundaryData.zero(fan_ladder(k)))
            res = mld_and_eps_check(p, Fraction(1, 10))
            assert res.mld_toric == min(Fraction(1), Fraction(2, k))
            if k >= 3:
                assert res.witness == (1, 0)

    def test_a_zero_cone_adds_nothing_to_the_mld(self):
        """Documents refuse the zero cone beside other cones, but a fan
        built in the library may list it: it has no nonzero lattice point,
        so the mld and its witness are those of the fan without it."""
        def mld_of(cones):
            fan = Fan.from_rays_and_cones(1, [(1,), (-1,)], cones)
            res = mld_and_eps_check(build_pair(fan, BoundaryData.zero(fan)), 1)
            return res.mld_toric, res.witness
        assert mld_of([[0], [1], []]) == mld_of([[0], [1]]) == (1, (-1,))

    def test_X3_witness(self):
        p = build_pair(fan_ladder(3), BoundaryData.zero(fan_ladder(3)))
        res = mld_and_eps_check(p, Fraction(2, 3))
        assert res.mld_toric == Fraction(2, 3)
        assert res.witness == (1, 0)
        assert res.eps_lc
        assert not mld_and_eps_check(p, 1).eps_lc

    def test_lc_boundary_gives_zero(self):
        p = build_pair(fan_p2(), BoundaryData.full(fan_p2()))
        res = mld_and_eps_check(p, 0)
        assert res.mld_toric == 0 and res.eps_lc
        assert res.witness == (-1, -1)

    def test_generic_floor(self):
        p = build_pair(fan_ladder(2), ladder_boundary(fan_ladder(2), 2))
        res = mld_and_eps_check(p, Fraction(1, 2))
        assert res.mld_toric == 1
        assert res.generic_floor == Fraction(1, 2)
        assert res.eps_lc
        assert not mld_and_eps_check(p, Fraction(2, 3)).eps_lc


class TestTerminal:
    def test_smooth_surfaces_terminal(self):
        assert has_terminal_singularities(fan_p2())

    def test_quotient_singularities_not_terminal(self):
        assert not has_terminal_singularities(fan_p112())
        assert not has_terminal_singularities(fan_ladder(2))

    def test_smooth_threefold_product(self):
        assert has_terminal_singularities(product_fan(fan_p2(), fan_p1()))


class TestPositivity:
    @pytest.mark.parametrize("div, nef, ample", [
        (lambda: InvariantDivisor.make(fan_point(), ()), True, True),
        (lambda: InvariantDivisor.anticanonical(fan_p2()), True, True),
        (lambda: InvariantDivisor.anticanonical(fan_ladder(2)), True, True),
        (lambda: InvariantDivisor.canonical(fan_p2()), False, False),
        (lambda: InvariantDivisor.from_ray_map(fan_hirzebruch(2), {(1, 0): 1}), True, False),
        (lambda: InvariantDivisor.make(fan_p2(), [r[0] for r in fan_p2().rays]), True, False),
        (lambda: InvariantDivisor.make(Fan.from_rays_and_cones(2, [(1, 0), (0, 1)], [(0, 1)]),
                                       (1, 1)), True, False),
    ], ids=["point", "P2", "X2", "K-P2", "F2-fibre", "principal", "one-cone"])
    def test_absolute_positivity_is_is_nef_and_is_ample(self, div, nef, ample):
        """Every divisor on the point is ample; a one-cone fan of positive
        rank has no wall, so nothing on it is ample."""
        d = div()
        assert (is_nef(d), is_ample(d)) == (nef, ample)

    def test_non_simplicial_rejected(self):
        """On the non-simplicial quadric cone a ray divisor is not
        Q-Cartier, so neither verdict has a support function to read."""
        d = InvariantDivisor.from_ray_map(fan_quadric_cone(), {(0, 0, 1): 1})
        for verdict in (is_nef, is_ample):
            with pytest.raises(NotQCartierError):
                verdict(d)

    def test_a_divisor_of_another_fan_is_refused(self):
        """A generic member's nef representative on another fan is refused
        before its positivity is read."""
        f = fan_p2()
        rep = InvariantDivisor.anticanonical(fan_hirzebruch(1))
        with pytest.raises(ValueError, match="another fan than the pair's"):
            build_pair(f, BoundaryData(
                BoundaryData.zero(f).ray_coeffs, (GenericMember(Fraction(1, 2), rep),)))


class TestWallRelations:
    def test_P2_wall_relation(self):
        f = fan_p2()
        rel = wall_relation_vector(f, 0)
        # any wall of the plane carries the line class: all ones
        assert sorted(rel) == [1, 1, 1]

    def test_X2_wall_relations_span(self):
        f = fan_ladder(2)
        rels = [wall_relation_vector(f, i) for i in range(len(f.walls))]
        assert len(rels) == 4
        # two fiber-type walls carry the 2-term relation (0,1)+(0,-1)=0,
        # the other two carry 3-term relations; together they span rank 2
        sizes = sorted(len([x for x in r if x != 0]) for r in rels)
        assert sizes == [2, 2, 3, 3]
        ints = [tuple(int(x) for x in r) for r in rels]
        assert IntMatrix.from_rows(ints, ncols=4).rank() == 2

    @pytest.mark.parametrize("other", ["p112xp1", "x2xx2"])
    def test_relative_picard_rank_needs_the_pairs_fan(self, other):
        with pytest.raises(ValueError, match="another fan than the pair's"):
            relative_picard_rank_one(fixture("p2xp1").pair, fixture(other).contraction)

    def test_relative_picard_rank_needs_a_simplicial_fan(self):
        qc3 = fixture("qc3")
        with pytest.raises(NotSimplicialError):
            relative_picard_rank_one(qc3.pair, qc3.contraction)

    def test_relative_picard_rank_needs_a_complete_fan(self):
        f = Fan.from_rays_and_cones(2, [(1, 0), (0, 1)], [(0, 1)])
        to_point = validate_contraction(f, fan_point(), point_map(2))
        with pytest.raises(ToricError, match="complete"):
            relative_picard_rank_one(build_pair(f, BoundaryData.zero(f)), to_point)

    def test_no_contracted_wall_is_not_rank_one(self):
        f = fan_p2()
        identity = validate_contraction(f, f, IntMatrix.identity(2))
        assert not relative_picard_rank_one(build_pair(f, BoundaryData.zero(f)), identity)


class TestAveraging:
    def test_alpha_one_keeps_boundary(self):
        f = fan_ladder(2)
        b = BoundaryData.zero(f)
        out = average_boundary(b, f, 1)
        assert out.ray_coeffs == b.ray_coeffs

    def test_alpha_zero_gives_reduced_boundary(self):
        f = fan_ladder(2)
        out = average_boundary(ladder_boundary(f, 2), f, 0)
        assert out.ray_coeffs == BoundaryData.full(f).ray_coeffs
        assert out.generic == ()

    def test_half_average_on_X2(self):
        f = fan_ladder(2)
        out = average_boundary(BoundaryData.zero(f), f, Fraction(1, 2))
        assert out.ray_coeffs == (Fraction(1, 2),) * 4

    def test_scaling_law(self):
        # with invariant part zero the averaged a-function is alpha * a0
        f = fan_ladder(3)
        alpha = Fraction(2, 5)
        p0 = build_pair(f, BoundaryData.zero(f))
        pa = build_pair(f, average_boundary(BoundaryData.zero(f), f, alpha))
        for u in [(1, 0), (3, 1), (-1, -2), (1, 1), (0, -1)]:
            assert log_discrepancy_at(pa, u) == alpha * log_discrepancy_at(p0, u)

    def test_alpha_out_of_range(self):
        f = fan_p2()
        with pytest.raises(AlphaOutOfRangeError):
            average_boundary(BoundaryData.zero(f), f, Fraction(3, 2))
        with pytest.raises(AlphaOutOfRangeError):
            average_boundary(BoundaryData.zero(f), f, -1)


class TestCrepantTransfer:
    def test_blowup_of_plane_point(self):
        f = fan_p2()
        p = build_pair(f, BoundaryData.zero(f))
        refined = star_subdivide(f, (1, 1))
        q = crepant_transfer(p, refined)
        assert q.boundary.ray_coeffs[refined.ray_index[(1, 1)]] == -1
        assert q.is_subpair
        # a-function unchanged where both are defined
        for u in [(1, 0), (1, 1), (2, 1), (-1, -1)]:
            assert log_discrepancy_at(q, u) == log_discrepancy_at(p, u)

    def test_reduced_boundary_transfers_to_reduced(self):
        f = fan_p2()
        p = build_pair(f, BoundaryData.full(f))
        refined = star_subdivide(f, (1, 1))
        q = crepant_transfer(p, refined)
        assert all(c == 1 for c in q.boundary.ray_coeffs)

    def test_generic_member_transfers(self):
        f = fan_ladder(2)
        p = build_pair(f, ladder_boundary(f, 2))
        refined = star_subdivide(f, (1, 1))
        q = crepant_transfer(p, refined)
        gm = q.boundary.generic[0]
        assert gm.coeff == Fraction(1, 2)
        # pulled class value at the new ray is -psi(1,1) of -2K
        assert gm.rep.coeff_at((1, 1)) == 2


class TestGenericInvisibility:
    def test_member_polytope_supports_the_class(self):
        # global sections of a Cartier nef class compute its support function
        box = 6
        for fan, mult in [(fan_p2(), 1), (fan_ladder(2), 2), (fan_p112(), 1)]:
            rep = InvariantDivisor.anticanonical(fan).scale(mult)
            sf = SupportFunction.for_divisor(rep)
            pts = [m for m in product(range(-box, box + 1), repeat=fan.rank)
                   if all(sum(x * y for x, y in zip(m, v)) + c >= 0
                          for v, c in zip(fan.rays, rep.coeffs))]
            # no section on the box's boundary: the box holds the polytope
            assert all(max(abs(x) for x in m) < box for m in pts)
            assert pts
            for u in list(fan.rays) + [(1, 1), (1, -1)]:
                if not fan.support_contains(u):
                    continue
                best = min(sum(Fraction(a) * b for a, b in zip(m, u)) for m in pts)
                assert best == sf.value(u)
