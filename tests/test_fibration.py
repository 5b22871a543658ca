"""Contractions: validation, fibers, thresholds over directions, adjunction."""

import time
from fractions import Fraction
from itertools import product

import pytest
from reference import (
    contains_bends,
    fiber_support_disagreements,
    gauss_jordan_pieces,
    in_cone,
    in_cone_carriers,
    positive_multiple,
    rays_over_scan,
    scan_delta,
    scan_lct,
)

import toricfib.fan
from toricfib import fibration, fixture
from toricfib.catalog import (
    builtin_fixtures,
    contraction_suite,
    fan_hirzebruch,
    fan_ladder,
    fan_p1,
    fan_p2,
    fan_point,
    fan_quadric_cone,
    ladder_boundary,
    weighted_plane_fan,
    x_proj,
)
from toricfib.errors import (
    ConeNotMappedError,
    DirectionOutsideImageError,
    DocumentError,
    FinitePartError,
    NotATargetRayError,
    NotPrimitiveError,
    NotRelativelyTrivialError,
    NotSimplicialError,
    RayNotDominatedError,
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
from toricfib.fibration import (
    ToricContraction,
    base_lct_infimum,
    discriminant_divisor,
    fiber_multiplicities_over,
    general_fiber_and_split,
    is_fano_contraction,
    is_mori_fiber_space,
    lct_box_oracle,
    lct_over_direction,
    relative_triviality,
    tower_consistency_check,
    validate_contraction,
)
from toricfib.lattice import IntMatrix, dot, echelon
from toricfib.pair import BoundaryData, ToricPair, build_pair, crepant_transfer


def ruling(fan2):
    """First-coordinate projection of a rank-2 fan onto the segment fan."""
    return validate_contraction(fan2, fan_p1(), x_proj())


def zero_pair(fan):
    return build_pair(fan, BoundaryData.zero(fan))


def full_pair(fan):
    return build_pair(fan, BoundaryData.full(fan))


def suite_and_fixtures():
    """contraction_suite() and the fixtures, one instance per name."""
    return list({inst.name: inst for inst in builtin_fixtures() + contraction_suite()}.values())


class TestValidation:
    def test_ruling_of_X2(self):
        f = ruling(fan_ladder(2))
        assert f.source.rank == 2 and f.target.rank == 1

    def test_cone_assignment(self):
        f = ruling(fan_ladder(2))
        # max cones sorted by gens; targets sorted as <(-1)>, <(1)>
        assert f.cone_carriers == tuple(map(frozenset, ({0}, {0}, {1}, {1})))

    def test_contracted_walls_are_the_fiber_walls(self):
        f = ruling(fan_ladder(2))
        walls = [f.source.walls[i][0].gens for i in f.contracted_wall_indices]
        assert walls == [((-1, 0),), ((2, 1),)]

    def test_carriers_match_the_in_cone_reference(self):
        for inst in suite_and_fixtures():
            f = inst.contraction
            assert f.cone_carriers == in_cone_carriers(f), inst.name

    def test_finite_part_rejected(self):
        with pytest.raises(FinitePartError) as exc:
            validate_contraction(fan_p1(), fan_p1(), IntMatrix.from_rows([[2]]))
        assert exc.value.index == 2
        assert (1,) not in exc.value.image

    def test_non_surjective_rejected(self):
        pi = IntMatrix.from_rows([[1, 0], [0, 0]])
        with pytest.raises(FinitePartError) as exc:
            validate_contraction(product_fan(fan_p1(), fan_p1()),
                                 product_fan(fan_p1(), fan_p1()), pi)
        assert exc.value.index is None

    def test_cone_not_mapped(self):
        # y-projection folds the cone <(0,-1),(2,1)> across both half-lines
        with pytest.raises(ConeNotMappedError):
            validate_contraction(fan_ladder(2), fan_p1(), IntMatrix.from_rows([[0, 1]]))

    def test_ray_not_dominated(self):
        src = Fan.from_rays_and_cones(2, [(1, 0)], [(0,)])
        with pytest.raises(RayNotDominatedError):
            validate_contraction(src, fan_p1(), x_proj())

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            validate_contraction(fan_ladder(2), fan_p1(), IntMatrix.identity(2))

    def test_to_a_point(self):
        f = validate_contraction(fan_p2(), fan_point(), IntMatrix(0, 2, ()))
        assert f.contracted_wall_indices == (0, 1, 2)


class TestWorkPerCall:
    """Guards on the work of reading a document, counted by wrapping."""

    def test_hull_of_a_cone_given_by_its_rays_makes_one_echelon(self, monkeypatch):
        """Every maximal cone of the suite's and the fixtures' fans, rebuilt
        from its rays: its facets are read off its own echelon."""
        calls = []

        def counted(m):
            calls.append(m)
            return echelon(m)
        monkeypatch.setattr(toricfib.fan, "echelon", counted)
        for inst in suite_and_fixtures():
            for fan in (inst.contraction.source, inst.contraction.target):
                for cone in fan.max_cones:
                    if cone.gens:
                        calls.clear()
                        assert Cone.hull(fan.rank, cone.gens) == cone
                        assert len(calls) == 1, (inst.name, cone)

    def test_carriers_test_each_source_ray_against_each_target_cone_once(self, monkeypatch):
        calls = []
        contains = Cone.contains

        def counted(cone, v):
            calls.append(v)
            return contains(cone, v)
        monkeypatch.setattr(Cone, "contains", counted)
        for inst in suite_and_fixtures():
            f = inst.contraction
            calls.clear()
            carriers = ToricContraction(f.source, f.target, f.pi).cone_carriers
            assert carriers == f.cone_carriers, inst.name
            assert len(calls) <= len(f.source.rays) * len(f.target.max_cones), inst.name

    def test_validating_a_complete_fan_intersects_no_cones(self, monkeypatch):
        """No Cone.intersect on the complete fans of the suite and the
        fixtures; one per pair of cones on fans that are not complete: qc3's
        cone, its star subdivision, and the source cones over one target
        cone of each contraction, the fan of a neighbourhood of a fibre."""
        calls = []
        intersect = Cone.intersect

        def counted(cone, other):
            calls.append(other)
            return intersect(cone, other)
        complete, incomplete = {}, {}
        qc3 = fixture("qc3").contraction.source
        incomplete["qc3"] = qc3
        incomplete["qc3 subdivided"] = star_subdivide(qc3, (1, 1, 2))
        for inst in suite_and_fixtures():
            f = inst.contraction
            for role, fan in (("source", f.source), ("target", f.target)):
                if fan != qc3:
                    complete[f"{inst.name} {role}"] = fan
            if f.target.rank:
                incomplete[f"{inst.name} over a chart"] = Fan.make(f.source.rank, [
                    c for c, carriers in zip(f.source.max_cones, f.cone_carriers) if 0 in carriers])
        monkeypatch.setattr(Cone, "intersect", counted)
        for fans, pairs in ((complete, lambda n: 0), (incomplete, lambda n: n * (n - 1) // 2)):
            for name, fan in fans.items():
                calls.clear()
                validate_fan(fan)
                assert len(calls) == pairs(len(fan.max_cones)), name
        assert len(incomplete["qc3 subdivided"].max_cones) == 4

    def test_thresholds_read_only_the_cones_over_w(self, monkeypatch):
        """Over each target ray w of the suite and the fixtures,
        lct_over_direction cuts, and lct_box_oracle narrows the rows of,
        exactly the source cones with a carrier holding w, each once and
        in order.  The oracle reads a cone's equations once, to build its
        rows; Cone.contains, which the target cones' membership tests call
        and which also reads them, is replaced by one that reads them
        unrecorded.  base_lct_infimum at box 1 cuts exactly those cones
        for each box direction w in the order of product, all of them
        primitive, wherever it answers."""
        def over(f, w):
            targets = f.target.max_cones
            return [c for c, carriers in zip(f.source.max_cones, in_cone_carriers(f))
                    if any(in_cone(targets[i].gens, w) for i in carriers)]
        cases, boxes = [], []
        for inst in suite_and_fixtures():
            p, f = inst.pair, inst.contraction
            p.a_function  # noqa: B018  (cached before counting)
            for w in f.target.rays:
                cases.append((inst.name, p, f, w, over(f, w)))
                assert cases[-1][-1], (inst.name, w)
            if f.target.rays and relative_triviality(p, f) is not None:
                boxes.append((inst.name, p, f, [
                    c for w in product((-1, 0, 1), repeat=f.target.rank) if any(w)
                    for c in over(f, w)]))
        assert boxes
        cut, read = [], []
        original_cut, equations = Cone.cut, Cone.equations.fget

        def counted_cut(cone, eqs, ineqs):
            cut.append(cone)
            return original_cut(cone, eqs, ineqs)

        def counted_equations(cone):
            read.append(cone)
            return equations(cone)
        monkeypatch.setattr(Cone, "cut", counted_cut)
        monkeypatch.setattr(Cone, "equations", property(counted_equations))
        monkeypatch.setattr(Cone, "contains", lambda cone, v: (
            all(dot(e, v) == 0 for e in equations(cone))
            and all(dot(a, v) >= 0 for a in cone.inequalities)))
        for name, p, f, w, over in cases:
            cut.clear()
            lct_over_direction(p, f, w)
            assert cut == over, (name, w)
            read.clear()
            lct_box_oracle(p, f, w, 1)
            assert read == over, (name, w)
        for name, p, f, over_box in boxes:
            cut.clear()
            base_lct_infimum(p, f, 1)
            assert cut == over_box, name

    def test_delta_walks_faces_only_up_to_the_target_rank(self, monkeypatch):
        """base_lct_infimum at box 1 pulls no face level above e, the rank
        of the target, from any cone's walk, over the suite and the
        fixtures wherever it answers; it does pull level e."""
        pulled = []
        walk = Cone.face_walk

        def recorded(cone):
            for k, level in enumerate(walk(cone)):
                pulled.append(k)
                yield level
        monkeypatch.setattr(Cone, "face_walk", recorded)
        answered = 0
        for inst in suite_and_fixtures():
            p, f = inst.pair, inst.contraction
            if f.target.rays and relative_triviality(p, f) is not None:
                pulled.clear()
                base_lct_infimum(p, f, 1)
                assert max(pulled) == f.target.rank, inst.name
                answered += 1
        assert answered


class TestFibers:
    def test_general_fiber_of_ruling(self):
        data = general_fiber_and_split(ruling(fan_ladder(2)))
        assert data.kernel_basis == ((0, 1),)
        assert data.fiber_fan.rays == ((-1,), (1,))
        assert len(data.fiber_fan.max_cones) == 2
        assert data.split_section is None

    def test_product_projection_fiber(self):
        data = general_fiber_and_split(fixture("x2xp1").contraction)
        assert data.kernel_basis == ((1, 0, 0), (0, 1, 0))
        assert fans_isomorphic_under(IntMatrix.identity(2),
                                     data.fiber_fan, fan_ladder(2))

    def test_fiber_over_point_is_the_whole_fan(self):
        f = validate_contraction(fan_p2(), fan_point(), IntMatrix(0, 2, ()))
        data = general_fiber_and_split(f)
        assert fans_isomorphic_under(IntMatrix.identity(2),
                                     data.fiber_fan, fan_p2())
        assert data.split_section == ()

    def test_split_over_trivial_target_fan(self):
        src = Fan.from_rays_and_cones(2, [(0, 1), (0, -1)], [(0,), (1,)])
        tgt = Fan.make(1, [Cone.zero(1)])
        f = validate_contraction(src, tgt, x_proj())
        data = general_fiber_and_split(f)
        assert data.fiber_fan.rays == ((-1,), (1,))
        assert data.split_section == ((1, 0),)

    def test_fiber_support_matches_the_source_on_the_kernel_box(self):
        for inst in suite_and_fixtures():
            f = inst.contraction
            assert fiber_support_disagreements(f, general_fiber_and_split(f), 2) == [], \
                inst.name

    def test_multiplicities_on_the_ladder(self):
        for k in (2, 3, 5):
            f = ruling(fan_ladder(k))
            assert fiber_multiplicities_over(f, (1,)) == [((k, 1), k)]
            assert fiber_multiplicities_over(f, (-1,)) == [((-1, 0), 1)]

    def test_multiplicities_trivial_on_F2(self):
        f = ruling(fan_hirzebruch(2))
        assert fiber_multiplicities_over(f, (1,)) == [((1, 0), 1)]

    def test_table_matches_the_scan_over_the_suite(self):
        """Each target ray's entry is the scan's, and a source ray whose
        image is zero, or on no target ray, is under no target ray: the
        suite has the first kind, the two blow-ups the second."""
        kinds = set()
        for f in ([inst.contraction for inst in suite_and_fixtures()]
                  + [blowdown(), twice_blown_up_p2xp1()]):
            table = f.ray_multiplicities
            assert {w: table[w] for w in f.target.rays} == rays_over_scan(f), f
            for w in f.target.rays:
                assert fiber_multiplicities_over(f, w) == table[w], f
            listed = {v for w in f.target.rays for v, _ in table[w]}
            for v in f.source.rays:
                u = f.image_of(v)
                if not any(positive_multiple(u, w) for w in f.target.rays):
                    kinds.add(any(u))
                    assert v not in listed, (f, v)
        assert kinds == {False, True}

    def test_multiplicity_needs_a_target_ray(self):
        with pytest.raises(NotATargetRayError):
            fiber_multiplicities_over(ruling(fan_ladder(2)), (2,))


class TestLct:
    def test_full_boundary_threshold_zero(self):
        res = lct_over_direction(full_pair(fan_ladder(2)), ruling(fan_ladder(2)), (1,))
        assert res.t == 0
        assert res.witness == (2, 1)

    def test_trivial_boundary_on_X2(self):
        p = zero_pair(fan_ladder(2))
        f = ruling(fan_ladder(2))
        assert lct_over_direction(p, f, (1,)).t == Fraction(1, 2)
        assert lct_over_direction(p, f, (-1,)).t == 1

    def test_ladder_threshold(self):
        p = zero_pair(fan_ladder(3))
        res = lct_over_direction(p, ruling(fan_ladder(3)), (1,))
        assert res.t == Fraction(1, 3)
        assert res.witness == (3, 1)

    def test_threefold_diagonal_direction(self):
        f = fixture("x2xp1_to_p1xp1").contraction
        res = lct_over_direction(zero_pair(f.source), f, (1, 1))
        assert res.t == Fraction(3, 2)
        assert res.witness == (2, 1, 2)

    def test_box_oracle_agreement(self):
        f = fixture("x2xp1_to_p1xp1").contraction
        p = zero_pair(f.source)
        for w in [(1, 0), (0, 1), (1, 1), (-1, 1), (1, -2)]:
            assert lct_over_direction(p, f, w).t == lct_box_oracle(p, f, w, 8)

    def test_direction_outside_image(self):
        src = Fan.from_rays_and_cones(2, [(0, 1), (0, -1)], [(0,), (1,)])
        tgt = Fan.make(1, [Cone.zero(1)])
        f = validate_contraction(src, tgt, x_proj())
        with pytest.raises(DirectionOutsideImageError):
            lct_over_direction(zero_pair(src), f, (1,))

    def test_direction_must_be_primitive(self):
        p = zero_pair(fan_ladder(2))
        with pytest.raises(NotPrimitiveError):
            lct_over_direction(p, ruling(fan_ladder(2)), (2,))

    def test_pair_and_contraction_must_share_the_source(self):
        with pytest.raises(ValueError):
            lct_over_direction(zero_pair(fan_hirzebruch(2)), ruling(fan_ladder(2)), (1,))

    @pytest.mark.parametrize("name, w", [("x2", (1, 0)), ("x2xp1_to_p1xp1", (1,))])
    def test_a_direction_of_the_wrong_length_is_refused(self, name, w):
        fx = fixture(name)
        with pytest.raises(ValueError):
            lct_over_direction(fx.pair, fx.contraction, w)

    def test_a_tie_across_piece_denominators_keeps_the_least_witness(self):
        """Over (1,), the rays (1,1) and (1,-1) both give a/m = 1, from
        pieces with denominators 2 and 3, compared in integers."""
        src = Fan.from_rays_and_cones(2, [(0, 1), (1, 1), (1, -1), (0, -1), (-1, 0)],
                                      [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
        coeffs = {(0, 1): Fraction(1, 2), (0, -1): Fraction(1, 3)}
        p = build_pair(src, BoundaryData(tuple(coeffs.get(r, Fraction(0)) for r in src.rays)))
        f = ruling(src)
        assert p.a_function.scale == 6
        res = lct_over_direction(p, f, (1,))
        assert (res.t, res.witness) == (1, (1, -1))
        assert lct_box_oracle(p, f, (1,), 3) == scan_lct(p, f, (1,), 3) == 1


def skew_ruling():
    """A ruling by pi = (2 3): every pivot block of pi has |det| > 1."""
    src = Fan.from_rays_and_cones(
        2, [(1, -1), (3, -2), (-1, 1), (-3, 2)],
        [(0, 1), (1, 2), (2, 3), (3, 0)])
    return validate_contraction(src, fan_p1(), IntMatrix.from_rows([[2, 3]]))


def ruling_with_pivot_det_3():
    """A ruling by pi = (3 4): its echelon has the pivot block (3), and the
    m with pi(u) = m on the fibre line u_1 = y are the class of 4y mod 3."""
    src = Fan.from_rays_and_cones(
        2, [(1, -1), (4, -3), (-1, 1), (-4, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)])
    return validate_contraction(src, fan_p1(), IntMatrix.from_rows([[3, 4]]))


def negated_skew_ruling():
    """The skew ruling composed with -1 on the line: pi = (-2 -3), whose
    echelon has the pivot block (-2), of negative determinant."""
    return validate_contraction(skew_ruling().source, fan_p1(),
                                IntMatrix.from_rows([[-2, -3]]))


def threefold_over_swapped_quadric():
    """The x2xp1_to_p1xp1 fixture with the target coordinates swapped: the
    echelon of pi takes its rows in the order (1, 0)."""
    f = fixture("x2xp1_to_p1xp1").contraction
    return validate_contraction(f.source, f.target,
                                IntMatrix.from_rows([[0, 0, 1], [1, 0, 0]]))


def blowdown():
    blown = star_subdivide(fan_p2(), (1, 1))
    return validate_contraction(blown, fan_p2(), IntMatrix.identity(2))


def rank4_over_the_line():
    """X_2 x X_2 over the line by its first coordinate: three free
    coordinates, so the oracle tabulates each row over a product of three."""
    src = product_fan(fan_ladder(2), fan_ladder(2))
    return validate_contraction(src, fan_p1(), IntMatrix.from_rows([[1, 0, 0, 0]]))


def twice_blown_up_p2xp1():
    """P^2 x P^1 blown up at (1,1,1), then at (1,0,-1), onto P^2 x P^1 by
    the identity: a rank-3 target, so a direction has two equations."""
    base = product_fan(fan_p2(), fan_p1())
    src = star_subdivide(star_subdivide(base, (1, 1, 1)), (1, 0, -1))
    return validate_contraction(src, base, IntMatrix.identity(3))


def over_a_lone_ray():
    """The plane fan of the first quadrant and the lone ray (-1, 0), over P^1
    by x + y: the lone ray's cone has an equation, y = 0, which the box
    oracle must read as well as its inequality."""
    src = Fan.from_rays_and_cones(2, [(1, 0), (0, 1), (-1, 0)], [[0, 1], [2]])
    return validate_contraction(src, fan_p1(), IntMatrix.from_rows([[1, 1]]))


def on_a_wall_beside_a_lone_ray():
    """The half y >= 0 of (P^1)^3 and the lone ray (0, -1, 0), over
    P^1 x P^1 by (x, y), with coefficient 1/2 on (1, 0, 0).  The direction
    (1, 0) lies only on the wall between the target cones <(1, 0), (0, 1)>
    and <(1, 0), (0, -1)>: the source cones over it are kept through the
    first alone, and the lone ray's cone, carried by the second and by
    <(-1, 0), (0, -1)>, through the second alone, though none of its
    points lies over (1, 0).  The least a/m, 1/2, is at (1, 0, 0)."""
    src = Fan.from_rays_and_cones(
        3, [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1), (0, 0, -1), (0, -1, 0)],
        [[0, 2, 3], [0, 2, 4], [1, 2, 3], [1, 2, 4], [5]])
    f = validate_contraction(src, product_fan(fan_p1(), fan_p1()),
                             IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]]))
    coeffs = tuple(Fraction(int(r == (1, 0, 0)), 2) for r in src.rays)
    return build_pair(src, BoundaryData(coeffs)), f


def constant_boundary(fan, c):
    return BoundaryData(tuple(Fraction(c) for _ in fan.rays))


def on_zero_pair(f):
    return zero_pair(f.source), f


def ruling_with_constant_boundary(k, c):
    f = ruling(fan_ladder(k))
    return build_pair(f.source, constant_boundary(f.source, c),
                      allow_subpair=True), f


def negative_log_discrepancy(f):
    """Coefficient 3/2 everywhere, so a < 0 at every ray; build_pair
    refuses it, but the oracle has to order negative values all the same.
    Then a/m keeps falling as the box grows."""
    return ToricPair(f.source, constant_boundary(f.source, Fraction(3, 2)),
                     is_subpair=True), f


def below_a_wall():
    """(P^1)^3 over its first coordinate, with coefficient 3/2 on (0, 1, 0),
    so a = x - y/2 + |z| where x, y >= 0: the least a/m of the box,
    1 - box/2, lies at (1, box, 0) alone, inside the wall between the cones
    on (0, 0, 1) and on (0, 0, -1)."""
    src = product_fan(fan_p1(), product_fan(fan_p1(), fan_p1()))
    f = validate_contraction(src, fan_p1(), IntMatrix.from_rows([[1, 0, 0]]))
    coeffs = tuple(Fraction(3, 2) if r == (0, 1, 0) else Fraction(0) for r in src.rays)
    return ToricPair(src, BoundaryData(coeffs), is_subpair=True), f


EDGE_CASES = {
    "negative direction": lambda: on_zero_pair(fixture("x2xp1_to_p1xp1").contraction),
    "birational": lambda: on_zero_pair(blowdown()),
    "pivot det 2": lambda: on_zero_pair(skew_ruling()),
    "pivot det 3": lambda: on_zero_pair(ruling_with_pivot_det_3()),
    "pivot det 3, negative log discrepancy":
        lambda: negative_log_discrepancy(ruling_with_pivot_det_3()),
    "least point inside a wall": below_a_wall,
    "negative pivot det": lambda: on_zero_pair(negated_skew_ruling()),
    "negative pivot det, negative log discrepancy":
        lambda: negative_log_discrepancy(negated_skew_ruling()),
    "swapped target coordinates": lambda: on_zero_pair(threefold_over_swapped_quadric()),
    "pieces with denominators": lambda: ruling_with_constant_boundary(3, Fraction(1, 3)),
    "subpair": lambda: ruling_with_constant_boundary(3, Fraction(-1, 3)),
    "negative log discrepancy": lambda: negative_log_discrepancy(ruling(fan_ladder(2))),
    "pivot det 2, negative log discrepancy": lambda: negative_log_discrepancy(skew_ruling()),
    "no point in the box": lambda: on_zero_pair(fixture("x2xp1_to_p1xp1").contraction),
    "rank 4": lambda: on_zero_pair(rank4_over_the_line()),
    "rank 4, negative log discrepancy": lambda: negative_log_discrepancy(rank4_over_the_line()),
    "rank-3 target": lambda: on_zero_pair(twice_blown_up_p2xp1()),
    "lower-dimensional maximal cone": lambda: on_zero_pair(over_a_lone_ray()),
    "direction on a wall between two target cones": on_a_wall_beside_a_lone_ray,
}


class TestBoxOracles:
    """The integer, fibre-restricted oracles against the plain scans."""

    def test_lct_oracle_matches_the_scan_over_the_suite(self):
        for inst in contraction_suite():
            boxes = (4, 8) if inst.pair.fan.rank == 2 else (4,)
            for w in inst.contraction.target.rays:
                for box in boxes:
                    assert (lct_box_oracle(inst.pair, inst.contraction, w, box)
                            == scan_lct(inst.pair, inst.contraction, w, box)), \
                        (inst.name, w, box)

    def test_delta_oracle_matches_the_unfiltered_scan_over_the_suite(self):
        for inst in contraction_suite():
            f = inst.contraction
            if f.target.rays:
                assert (fibration._delta_box_oracle(inst.pair, f, 4)
                        == scan_delta(inst.pair, f, 4)), inst.name

    def test_delta_oracle_reads_every_cone_whose_image_holds_w(self):
        # over (1,) the first cone is <(0,-1),(2,1)>; the ray (1,1), with
        # a = 0, lies only in the later cones over (1,)
        f = ruling(star_subdivide(fan_ladder(2), (1, 1)))
        p = build_pair(f.source, BoundaryData(
            tuple(int(r == (1, 1)) for r in f.source.rays)))
        assert fibration._delta_box_oracle(p, f, 2) == 0
        assert scan_delta(p, f, 2) == 0

    @pytest.mark.parametrize("case, w, box, value", [
        ("negative direction", (1, -2), 6, Fraction(5, 2)),
        ("negative direction", (-1, -1), 6, Fraction(2)),
        ("birational", (1, 1), 4, Fraction(1)),
        ("birational", (2, 1), 4, Fraction(2)),
        ("pivot det 2", (1,), 6, Fraction(1)),
        ("pivot det 2", (-1,), 6, Fraction(1)),
        ("pieces with denominators", (1,), 6, Fraction(2, 9)),
        ("subpair", (1,), 6, Fraction(4, 9)),
        ("negative log discrepancy", (1,), 3, Fraction(-2)),
        ("negative log discrepancy", (1,), 6, Fraction(-7, 2)),
        ("negative log discrepancy", (-1,), 6, Fraction(-7, 2)),
        ("pivot det 2, negative log discrepancy", (1,), 1, Fraction(-3, 4)),
        ("pivot det 2, negative log discrepancy", (1,), 2, Fraction(-1)),
        ("no point in the box", (2, 3), 1, None),
        ("negative pivot det", (1,), 6, Fraction(1)),
        ("negative pivot det", (-1,), 6, Fraction(1)),
        ("negative pivot det, negative log discrepancy", (-1,), 1, Fraction(-3, 4)),
        ("negative pivot det, negative log discrepancy", (-1,), 2, Fraction(-1)),
        ("swapped target coordinates", (-2, 1), 6, Fraction(5, 2)),
        ("swapped target coordinates", (-1, -1), 6, Fraction(2)),
        ("rank 4", (1,), 2, Fraction(1, 2)),
        ("rank 4", (1,), 3, Fraction(1, 2)),
        ("rank 4, negative log discrepancy", (1,), 2, Fraction(-7, 2)),
        ("rank 4, negative log discrepancy", (-1,), 3, Fraction(-5)),
        ("pivot det 3", (1,), 6, Fraction(1)),
        ("pivot det 3", (-1,), 6, Fraction(1)),
        ("pivot det 3, negative log discrepancy", (1,), 1, Fraction(-2, 3)),
        ("pivot det 3, negative log discrepancy", (1,), 2, Fraction(-3, 4)),
        ("pivot det 3, negative log discrepancy", (1,), 5, Fraction(-1)),
        ("pivot det 3, negative log discrepancy", (-1,), 6, Fraction(-1)),
        ("least point inside a wall", (1,), 2, Fraction(0)),
        ("least point inside a wall", (1,), 3, Fraction(-1, 2)),
        ("lower-dimensional maximal cone", (1,), 1, Fraction(1)),
        ("lower-dimensional maximal cone", (1,), 2, Fraction(1)),
        ("lower-dimensional maximal cone", (1,), 6, Fraction(1)),
        ("lower-dimensional maximal cone", (-1,), 1, Fraction(1)),
        ("lower-dimensional maximal cone", (-1,), 2, Fraction(1)),
        ("lower-dimensional maximal cone", (-1,), 6, Fraction(1)),
        ("direction on a wall between two target cones", (1, 0), 2, Fraction(1, 2)),
        ("direction on a wall between two target cones", (1, 0), 6, Fraction(1, 2)),
    ])
    def test_edge_cases_match_the_scan(self, case, w, box, value):
        p, f = EDGE_CASES[case]()
        assert lct_box_oracle(p, f, w, box) == value
        assert scan_lct(p, f, w, box) == value

    def test_a_zero_direction_is_refused(self):
        with pytest.raises(NotPrimitiveError):
            lct_box_oracle(zero_pair(fan_ladder(2)), ruling(fan_ladder(2)), (0,), 4)

    def test_a_non_primitive_direction_is_refused(self):
        fx = fixture("x2")
        with pytest.raises(NotPrimitiveError):
            lct_box_oracle(fx.pair, fx.contraction, (3,), 6)

    @pytest.mark.parametrize("name, w", [("x2", (1, 0)), ("x2xp1_to_p1xp1", (1,))])
    def test_a_direction_of_the_wrong_length_is_refused(self, name, w):
        fx = fixture(name)
        with pytest.raises(ValueError):
            lct_box_oracle(fx.pair, fx.contraction, w, 4)

    def test_a_pair_of_another_fan_is_refused(self):
        with pytest.raises(ValueError, match="another fan than the pair's"):
            lct_box_oracle(fixture("x2").pair, fixture("x3").contraction, (1,), 4)

    @pytest.mark.parametrize("w", [(1, 1, 1), (1, 0, -1), (0, 1, 1), (0, -1, 2), (-1, 2, 1),
                                   (2, -1, -1)])
    def test_rank_3_target_thresholds_match_the_scan(self, w):
        p, f = EDGE_CASES["rank-3 target"]()
        t = lct_over_direction(p, f, w).t
        assert t == scan_lct(p, f, w, 2) == lct_box_oracle(p, f, w, 2)


class TestAdjunction:
    def test_full_boundary_descends_to_full_boundary(self):
        p = full_pair(fan_ladder(2))
        f = ruling(fan_ladder(2))
        assert relative_triviality(p, f) == (0, 0)
        data = discriminant_divisor(p, f)
        assert data.discriminant.coeffs == (1, 1)
        assert data.moduli_class == (0, 0)

    def test_half_anticanonical_member_on_X2(self):
        fan = fan_ladder(2)
        p = build_pair(fan, ladder_boundary(fan, 2))
        f = ruling(fan)
        data = discriminant_divisor(p, f)
        assert data.descended_class == (0, 0)
        assert data.discriminant.coeff_at((1,)) == Fraction(1, 2)
        assert data.discriminant.coeff_at((-1,)) == 0
        assert data.moduli_class == (0, Fraction(3, 2))

    def test_third_anticanonical_member_on_the_ladder(self):
        fan = fan_ladder(3)
        p = build_pair(fan, ladder_boundary(fan, 3))
        data = discriminant_divisor(p, ruling(fan))
        assert data.discriminant.coeff_at((1,)) == Fraction(2, 3)
        assert data.moduli_class == (0, Fraction(4, 3))

    def test_canonical_class_alone_does_not_descend(self):
        p = zero_pair(fan_ladder(2))
        f = ruling(fan_ladder(2))
        assert relative_triviality(p, f) is None
        with pytest.raises(NotRelativelyTrivialError):
            discriminant_divisor(p, f)

    def test_witnesses_carry_the_thresholds(self):
        fan = fan_ladder(2)
        data = discriminant_divisor(build_pair(fan, ladder_boundary(fan, 2)), ruling(fan))
        table = {w: (u, t) for w, u, t in data.witnesses}
        assert table[(1,)] == ((2, 1), Fraction(1, 2))


class TestBaseInfimum:
    def test_half_anticanonical_on_X2(self):
        fan = fan_ladder(2)
        res = base_lct_infimum(build_pair(fan, ladder_boundary(fan, 2)), ruling(fan), box=4)
        assert res.delta == Fraction(1, 2)
        assert res.witness_direction == (1,)
        assert res.exact and res.oracle_delta == Fraction(1, 2)

    def test_full_boundary_gives_zero(self):
        res = base_lct_infimum(full_pair(fan_ladder(2)), ruling(fan_ladder(2)), box=4)
        assert res.delta == 0
        assert res.witness_direction == (-1,)
        assert res.exact

    def test_ladder_infimum(self):
        fan = fan_ladder(3)
        p = build_pair(fan, ladder_boundary(fan, 3))
        res = base_lct_infimum(p, ruling(fan), box=4)
        assert res.delta == Fraction(1, 3)
        assert res.witness_direction == (1,)
        assert res.exact

    def test_threefold_over_the_quadric_surface(self):
        f = fixture("x2xp1_to_p1xp1").contraction
        res = base_lct_infimum(build_pair(f.source, ladder_boundary(f.source, 2)), f, box=5)
        assert res.delta == Fraction(1, 2)
        assert res.witness_direction == (1, 0)
        assert res.exact

    @pytest.mark.parametrize("b, delta", [(0, 1), (Fraction(1, 2), Fraction(1, 2)),
                                          (Fraction(1, 3), Fraction(2, 3))])
    def test_a_rank_3_target_reads_faces_up_to_dimension_3(self, b, delta):
        f = twice_blown_up_p2xp1()
        p = crepant_transfer(build_pair(f.target, constant_boundary(f.target, b)), f.source)
        res = base_lct_infimum(p, f, box=3)
        assert (res.delta, res.witness_direction, res.exact) == (delta, (-1, -1, 0), True)

    def test_a_birational_contraction_reads_its_top_faces(self):
        f = blowdown()
        p = crepant_transfer(build_pair(f.target, constant_boundary(f.target, Fraction(1, 3))),
                             f.source)
        res = base_lct_infimum(p, f, box=4)
        assert (res.delta, res.witness_direction, res.exact) == (Fraction(2, 3), (-1, -1), True)

    def test_delta_can_sit_inside_a_top_face(self):
        """P(1,1,3) over itself: (0,-1) lies inside the maximal cone
        <(-1,-3),(1,0)>, a face of dimension e = 2, and a(0,-1) = 2/3 is
        below the 1 at every ray."""
        fan = weighted_plane_fan(1, 1, 3)
        f = validate_contraction(fan, fan, IntMatrix.identity(2))
        res = base_lct_infimum(zero_pair(fan), f, box=4)
        assert (res.delta, res.witness_direction, res.exact) == (Fraction(2, 3), (0, -1), True)

    def test_requires_relative_triviality(self):
        with pytest.raises(NotRelativelyTrivialError):
            base_lct_infimum(zero_pair(fan_ladder(2)), ruling(fan_ladder(2)), box=4)

    def test_more_box_directions_than_the_budget_are_refused(self):
        """x2 has a rank-one target: box 50000 gives 100001 directions,
        refused before any work."""
        fx = fixture("x2")
        start = time.perf_counter()
        with pytest.raises(DocumentError) as exc:
            base_lct_infimum(fx.pair, fx.contraction, box=50000)
        assert time.perf_counter() - start < 1
        assert str(exc.value) == ("--box 50000 gives 100001 oracle directions, "
                                  "more than the 100000 allowed")


class TestScanBudgetHeadroom:
    """The budget refuses nothing the catalog builds: at 1% of it, every
    fan of the suite and the fixtures still validates, and base_lct_infimum
    still runs at box 12, the largest box of the tests, over the largest
    target rank (two, so 25^2 = 625 directions)."""

    @pytest.fixture
    def one_percent(self, monkeypatch):
        monkeypatch.setattr(toricfib.fan, "SCAN_BUDGET", toricfib.fan.SCAN_BUDGET // 100)

    def test_every_fan_validates_within_one_percent_of_the_pair_budget(self, one_percent):
        for inst in suite_and_fixtures():
            validate_fan(inst.pair.fan)
            validate_fan(inst.contraction.target)

    def test_box_12_is_within_one_percent_of_the_direction_budget(self, one_percent):
        instances = suite_and_fixtures()
        rank = max(inst.contraction.target.rank for inst in instances)
        for inst in instances:
            if inst.contraction.target.rank == rank:
                assert base_lct_infimum(inst.pair, inst.contraction, box=12).exact, inst.name


class TestFanoAndMfs:
    def test_ladder_rulings_are_mori_fiber_spaces(self):
        for k in (2, 3, 4):
            p = zero_pair(fan_ladder(k))
            f = ruling(fan_ladder(k))
            assert is_fano_contraction(p, f)
            assert is_mori_fiber_space(p, f)

    def test_F2_ruling(self):
        assert is_mori_fiber_space(zero_pair(fan_hirzebruch(2)), ruling(fan_hirzebruch(2)))

    def test_P2_over_a_point(self):
        f = validate_contraction(fan_p2(), fan_point(), IntMatrix(0, 2, ()))
        assert is_mori_fiber_space(zero_pair(fan_p2()), f)

    def test_del_pezzo_over_a_point_has_rank_two(self):
        f1 = fan_hirzebruch(1)
        f = validate_contraction(f1, fan_point(), IntMatrix(0, 2, ()))
        assert is_fano_contraction(zero_pair(f1), f)
        assert not is_mori_fiber_space(zero_pair(f1), f)

    def test_blowdown_is_fano_but_not_a_fiber_space(self):
        blown = star_subdivide(fan_p2(), (1, 1))
        f = validate_contraction(blown, fan_p2(), IntMatrix.identity(2))
        p = zero_pair(blown)
        assert is_fano_contraction(p, f)
        assert not is_mori_fiber_space(p, f)

    def test_non_simplicial_source_rejected(self):
        qc = fan_quadric_cone()
        f = validate_contraction(qc, fan_point(), IntMatrix(0, 3, ()))
        with pytest.raises(NotSimplicialError):
            is_fano_contraction(zero_pair(qc), f)

    @pytest.mark.parametrize("verdict", [is_fano_contraction, is_mori_fiber_space])
    def test_a_pair_on_another_fan_is_refused(self, verdict):
        with pytest.raises(ValueError, match="another fan than the pair's"):
            verdict(fixture("x2").pair, fixture("x3").contraction)

    def test_fano_reads_the_contracted_walls(self):
        """A consistency check, since the walls are the program's own
        (Fan.walls): over every simplicial instance, the contraction is Fano
        exactly when -K bends strictly across each wall whose two cones
        share a target carrier (in_cone_carriers), with the bends of
        Gauss-Jordan pieces read by Cone.contains (contains_bends)."""
        for inst in suite_and_fixtures():
            fan, f = inst.pair.fan, inst.contraction
            if not classify_fan(fan).simplicial:
                continue
            carriers = in_cone_carriers(f)
            bends = contains_bends(fan, gauss_jordan_pieces(fan, [-1] * len(fan.rays)))
            expected = all(bend > 0 for (_, i, j), (_, bend) in zip(fan.walls, bends)
                           if carriers[i] & carriers[j])
            assert is_fano_contraction(inst.pair, f) == expected, inst.name


class TestTower:
    def tower(self):
        g = fixture("x2xp1_to_x2").contraction
        return g.source, g, ruling(fan_ladder(2))

    def test_full_boundary_tower(self):
        src, g, h = self.tower()
        report = tower_consistency_check(full_pair(src), g, h)
        assert report.consistent
        assert all(t == 0 for _, t, _ in report.entries)

    def test_half_boundary_tower(self):
        src, g, h = self.tower()
        p = build_pair(src, BoundaryData(
            tuple(Fraction(1, 2) for _ in src.rays)))
        report = tower_consistency_check(p, g, h)
        assert report.consistent
        table = {w: t for w, t, _ in report.entries}
        assert table[(1,)] == Fraction(1, 4)

    def test_generic_parts_rejected(self):
        src, g, h = self.tower()
        with pytest.raises(ValueError):
            tower_consistency_check(build_pair(src, ladder_boundary(src, 2)), g, h)

    def test_non_composable_rejected(self):
        src, g, h = self.tower()
        with pytest.raises(ValueError):
            tower_consistency_check(full_pair(src), h, g)
