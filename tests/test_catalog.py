"""Fixture and family generation, boundary synthesis, suite round trips."""

from fractions import Fraction
from itertools import chain

import pytest

from toricfib.catalog import (
    FAMILY_NAMES,
    builtin_fixtures,
    contraction_suite,
    fan_hirzebruch,
    fan_ladder,
    fan_p1,
    fan_p2,
    fan_p112,
    fan_point,
    fan_quadric_cone,
    fan_twisted,
    fixture,
    generate_family,
    ladder_boundary,
    synthesize_boundary,
    weighted_plane_fan,
    x_proj,
)
from toricfib.cover import fiber_relation_vector
from toricfib.errors import UnknownFamilyError
from toricfib.fan import Cone, classify_fan
from toricfib.fibration import (
    fiber_multiplicities_over,
    general_fiber_and_split,
    is_mori_fiber_space,
    relative_triviality,
)
from toricfib.lattice import IntMatrix, kernel_basis, split_extension
from toricfib.pair import BoundaryData, has_terminal_singularities, wall_relation_vector
from toricfib.serialize import instance_to_doc, parse_text, to_json_text


class TestFixtures:

    def test_names_are_unique(self):
        names = [fx.name for fx in builtin_fixtures()]
        assert len(names) == len(set(names))

    def test_lookup(self):
        fx = fixture("p112")
        assert fx.pair.fan == fan_p112()
        assert fx.contraction.target.rank == 0

    def test_unknown_name(self):
        with pytest.raises(UnknownFamilyError):
            fixture("p113")
        with pytest.raises(UnknownFamilyError):
            fixture("ladder_k7")

    def test_the_fixtures_family_is_the_fixture_list(self):
        assert generate_family("fixtures") == builtin_fixtures()

    def test_pairs_sit_on_the_contraction_source(self):
        for fx in builtin_fixtures():
            assert fx.pair.fan == fx.contraction.source

    def test_documents_embed_all_three_parts(self):
        doc = fixture("f2").document()
        assert set(doc) == {"pair", "contraction", "name"}

    def test_twisted_fixture_is_a_terminal_mfs_with_multiplicity_three(self):
        fx = fixture("twisted3")
        assert has_terminal_singularities(fx.pair.fan)
        assert is_mori_fiber_space(fx.pair, fx.contraction)
        assert fiber_multiplicities_over(fx.contraction, (1,)) == [((1, 2, 3), 3)]
        assert general_fiber_and_split(fx.contraction).fiber_fan == fan_p2()


class TestBoundarySynthesis:

    def test_smooth_fan_gets_weight_one_half(self):
        b = synthesize_boundary(fan_p2())
        assert all(c == 0 for c in b.ray_coeffs)
        assert b.generic[0].coeff == Fraction(1, 2)
        assert b.generic[0].rep.coeffs == (2, 2, 2)

    def test_p112_gets_its_cartier_index(self):
        b = synthesize_boundary(fan_p112())
        assert b.generic[0].coeff == Fraction(1, 2)

    def test_non_nef_anticanonical_falls_back_to_full_boundary(self):
        fan = fan_hirzebruch(3)
        assert synthesize_boundary(fan) == BoundaryData.full(fan)

    def test_ladder_boundary_weight_follows_k(self):
        fan = fan_ladder(4)
        b = ladder_boundary(fan, 4)
        assert b.generic[0].coeff == Fraction(1, 4)
        assert b.generic[0].rep.coeffs == (4, 4, 4, 4)

    def test_synthesized_pairs_are_relatively_trivial(self):
        for inst in contraction_suite():
            assert relative_triviality(inst.pair, inst.contraction) is not None


SQUARE = [(0, 1), (1, 2), (2, 3), (3, 0)]
TRIANGLE = [(0, 1), (1, 2), (2, 0)]


class TestBaseBuilders:
    """The literal data of the base builders, stated once; the tests take
    these fans and maps from the catalog."""

    @pytest.mark.parametrize("fan, rays, cones", [
        pytest.param(fan_point(), [], [()], id="point"),
        pytest.param(fan_p1(), [(1,), (-1,)], [(0,), (1,)], id="p1"),
        pytest.param(fan_p2(), [(1, 0), (0, 1), (-1, -1)], TRIANGLE, id="p2"),
        pytest.param(fan_p112(), [(1, 0), (0, 1), (-1, -2)], TRIANGLE, id="p112"),
        *[pytest.param(fan_ladder(k), [(k, 1), (0, 1), (-1, 0), (0, -1)], SQUARE,
                       id=f"ladder_{k}") for k in (2, 3, 4, 5)],
        *[pytest.param(fan_hirzebruch(k), [(1, 0), (0, 1), (-1, k), (0, -1)], SQUARE,
                       id=f"hirzebruch_{k}") for k in range(4)],
        pytest.param(fan_quadric_cone(), [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)],
                     [(0, 1, 2, 3)], id="quadric_cone"),
    ])
    def test_rays_and_cones_are_pinned(self, fan, rays, cones):
        assert fan.rays == tuple(sorted(rays))
        assert [c.gens for c in fan.max_cones] == sorted(
            tuple(sorted(rays[i] for i in idx)) for idx in cones)

    def test_x_proj_is_pinned(self):
        assert x_proj().rows == ((1, 0),)


class TestFamilies:

    def test_ladder_is_eleven_fiber_spaces(self):
        insts = generate_family("ladder")
        assert [i.name for i in insts] == [f"ladder_k{k}" for k in range(2, 13)]
        for inst in insts:
            assert is_mori_fiber_space(inst.pair, inst.contraction)

    def test_weight_fan_112_is_the_p112_fan(self):
        assert weighted_plane_fan(1, 1, 2) == fan_p112()

    @pytest.mark.parametrize("weights, rays", [
        ((1, 1, 1), ((-1, -1), (0, 1), (1, 0))),
        ((1, 1, 2), ((-1, -2), (0, 1), (1, 0))),
        ((1, 1, 3), ((-1, -3), (0, 1), (1, 0))),
        ((1, 2, 3), ((-2, -3), (0, 1), (1, 0))),
        ((1, 2, 5), ((-2, -5), (0, 1), (1, 0))),
        ((2, 3, 5), ((-3, 5), (0, 1), (2, -5))),
    ])
    def test_weight_fan_rays_are_pinned(self, weights, rays):
        """The rays are read off the Smith transform U of the weights, so
        a change in its unimodular steps changes the catalog."""
        assert weighted_plane_fan(*weights).rays == rays

    def test_weight_fan_relation_recovers_the_weights(self):
        fan = weighted_plane_fan(2, 3, 5)
        assert classify_fan(fan).complete
        assert sorted(fiber_relation_vector(fan)) == [2, 3, 5]

    def test_weight_fan_rejects_common_factor(self):
        with pytest.raises(ValueError):
            weighted_plane_fan(2, 2, 4)

    def test_quotient_family_contains_a_fake_plane(self):
        inst = {i.name: i for i in generate_family("quotients")}["quot_fake_p2"]
        fan = inst.pair.fan
        assert len(fan.rays) == 3
        assert fiber_relation_vector(fan) == (1, 1, 1)
        dets = {abs(IntMatrix.from_cols(c.gens, nrows=2).det())
                for c in fan.max_cones}
        assert dets == {3}

    def test_quotient_of_ladder_keeps_its_ruling(self):
        inst = {i.name: i for i in generate_family("quotients")}["quot_x2_index2"]
        assert inst.pair.fan == fan_ladder(4)
        assert inst.contraction.target == fan_p1()

    def test_twisted_terminal_members_are_the_two_threefold_twists(self):
        terminal = [i.name for i in generate_family("twisted")
                    if has_terminal_singularities(i.pair.fan)]
        assert terminal == ["twisted_p2_3_1_2", "twisted_p2_3_2_1"]

    def test_twisted_multiplicity_equals_the_twist(self):
        for fiber, m, a, b in [("p2", 5, 1, 2), ("p112", 4, 1, 1)]:
            fan = fan_twisted(fiber, m, a, b)
            inst = [i for i in generate_family("twisted")
                    if i.pair.fan == fan]
            assert len(inst) == 1
            mults = fiber_multiplicities_over(inst[0].contraction, (1,))
            assert mults == [((a, b, m), m)]

    def test_twisted_apex_must_be_primitive(self):
        with pytest.raises(ValueError):
            fan_twisted("p2", 4, 2, 2)

    def test_unknown_family(self):
        with pytest.raises(UnknownFamilyError):
            generate_family("ladders")


# (source rank, rows of pi) -> rows of split_extension(pi), over every
# distinct pi of the suite
SPLIT_SECTIONS = {
    (2, ()): ((), ()),
    (3, ()): ((), (), ()),
    (2, ((1, 0),)): ((1,), (0,)),
    (3, ((0, 0, 1),)): ((0,), (0,), (1,)),
    (3, ((1, 0, 0), (0, 1, 0))): ((1, 0), (0, 1), (0, 0)),
    (3, ((1, 0, 0), (0, 0, 1))): ((1, 0), (0, 0), (0, 1)),
    (4, ((1, 0, 0, 0), (0, 0, 1, 0))): ((1, 0), (0, 0), (0, 1), (0, 0)),
}


class TestSuite:

    def test_split_sections_are_pinned(self):
        """The section is V D^+ U from the Smith form of pi, so a change in
        its unimodular steps changes the cover sublattices."""
        pis = [inst.contraction.pi for inst in contraction_suite()]
        assert {(pi.ncols, pi.rows): split_extension(pi).rows for pi in pis} == SPLIT_SECTIONS

    def test_kernels_never_reach_a_smith_form(self, monkeypatch):
        """Kernels are read off one Hermite form; only sections of pi and
        the weighted plane fans need Smith transforms."""
        suite = contraction_suite()

        def refuse(m):
            raise AssertionError(f"Smith form of {m.rows} on a kernel path")

        monkeypatch.setattr("toricfib.lattice.snf_decompose", refuse)
        assert kernel_basis(IntMatrix.from_rows([[2, 4, 6], [0, 0, 12]])) == [(2, -1, 0)]
        assert kernel_basis(IntMatrix.from_rows([[2, -1]])) == [(1, 2)]
        assert kernel_basis(IntMatrix.from_rows([], ncols=2)) == [(1, 0), (0, 1)]
        for inst in suite:
            f = inst.contraction
            for fan in (f.source, f.target):
                for cone in fan.max_cones:
                    for face in chain.from_iterable(cone.face_levels):
                        # a fresh cone, whose span is not cached yet
                        assert Cone.hull(face.rank, face.gens).span == face.span
                if classify_fan(fan).simplicial:
                    for i in range(len(fan.walls)):
                        wall_relation_vector(fan, i)
            if f.target.rank:
                fiber = general_fiber_and_split(f).fiber_fan
                if len(fiber.rays) == fiber.rank + 1:
                    fiber_relation_vector(fiber)

    def test_size_and_dimensions(self):
        suite = contraction_suite()
        ranks = {inst.pair.fan.rank for inst in suite}
        assert len(suite) >= 20
        assert ranks == {2, 3, 4}

    def test_names_are_unique(self):
        names = [inst.name for inst in contraction_suite()]
        assert len(names) == len(set(names))

    def test_every_instance_round_trips_bit_exactly(self):
        for inst in contraction_suite():
            text = to_json_text(instance_to_doc(inst))
            back = parse_text(text)
            assert back == inst
            assert to_json_text(instance_to_doc(back)) == text

    def test_suite_is_the_first_seen_union_of_fixtures_and_families(self):
        names = [fx.name for fx in builtin_fixtures() if fx.pair.fan.rank >= 2]
        for family in FAMILY_NAMES:
            names += [inst.name for inst in generate_family(family)
                      if inst.name not in names]
        assert [inst.name for inst in contraction_suite()] == names
        assert len(names) == 56


class TestBuiltOnce:

    def test_a_fixture_is_built_once(self):
        assert fixture("x2") is fixture("x2")
        assert fixture("p2xp1") is generate_family("products")[0]

    def test_suite_calls_share_their_instances(self):
        first, second = contraction_suite(), contraction_suite()
        assert first is not second
        assert all(a is b for a, b in zip(first, second, strict=True))

    def test_a_returned_list_is_the_callers_own(self):
        for build in (contraction_suite, builtin_fixtures,
                      lambda: generate_family("ladder")):
            expected = [inst.name for inst in build()]
            build().clear()
            assert [inst.name for inst in build()] == expected
