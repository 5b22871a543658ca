"""Randomized algebra checks: factorizations, kernels, exact scaling laws."""

import ast
import math
import re
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st
from reference import (
    box_complete,
    contains_bends,
    facet_tree_faces,
    gauss_jordan_det,
    gauss_jordan_pieces,
    gauss_jordan_rank,
    gauss_jordan_solve,
    group_points,
    in_cone,
    pairwise_fan_offense,
    positive_multiple,
    pulled_back,
    rank_of,
    rref_class_reduce,
    saturation_basis,
    saturation_cartier_index,
    scan_mld,
    smith_kernel_basis,
    subset_extreme_rays,
)

import toricfib
from toricfib.catalog import (
    contraction_suite,
    fan_hirzebruch,
    fan_ladder,
    fan_p1,
    fan_p2,
    fan_p112,
    fixture,
)
from toricfib.divisors import (
    InvariantDivisor,
    SupportFunction,
    cartier_index,
    class_reduce,
    classes_equal,
    is_cartier,
    is_nef,
    wall_bends,
)
from toricfib.errors import InvalidFanError
from toricfib.fan import (
    Cone,
    Fan,
    classify_fan,
    product_fan,
    star_subdivide,
    validate_fan,
)
from toricfib.fibration import (
    _direction_rows,
    lct_box_oracle,
    lct_over_direction,
)
from toricfib.lattice import (
    IntMatrix,
    dot,
    echelon,
    is_zero_vec,
    kernel_basis,
    primitive_part,
    snf_decompose,
    vec_scale,
)
from toricfib.pair import (
    BoundaryData,
    average_boundary,
    build_pair,
    has_terminal_singularities,
    mld_and_eps_check,
)
from toricfib.serialize import fan_from_doc, fan_to_doc, fraction_from_text, fraction_to_text

entries = st.integers(min_value=-9, max_value=9)


def as_fractions(sol):
    """The program's solve (y, d) as the Fractions y / d, the references'
    format; None stays None."""
    return None if sol is None else tuple(Fraction(x, sol[1]) for x in sol[0])


def fraction_pieces(sf):
    """The integer pieces of a SupportFunction, each over its scale."""
    return tuple(tuple(Fraction(x, sf.scale) for x in p) for p in sf.pieces)


@st.composite
def int_matrices(draw):
    nrows = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    rows = [tuple(draw(entries) for _ in range(ncols)) for _ in range(nrows)]
    return IntMatrix.from_rows(rows, ncols=ncols)


FAN_POOL = (fan_p2(), fan_p112(), fan_hirzebruch(2), fan_ladder(3))


# two smooth planar cones in rank 3 meeting in a ray, across one wall: on
# the pivot coordinates each has determinant 2, so a piece can have a
# denominator 2 that the lattice points of its cone's span never see
BENT_PLANES = Fan.from_rays_and_cones(3, [(1, 0, 1), (0, 2, 1), (-1, 0, 1)], [[0, 1], [1, 2]])


@st.composite
def fan_and_coeffs(draw, low=-1, pool=FAN_POOL):
    fan = draw(st.sampled_from(pool))
    coeffs = tuple(
        draw(st.fractions(min_value=low, max_value=1, max_denominator=6))
        for _ in fan.rays)
    return fan, coeffs


@st.composite
def small_systems(draw):
    """A matrix with 1-6 rows, 1-5 columns and entries in [-3, 3], and a
    right-hand side: the image of a rational vector, so consistent, or
    drawn at random."""
    nrows = draw(st.integers(1, 6))
    ncols = draw(st.integers(1, 5))
    small = st.integers(-3, 3)
    m = IntMatrix.from_rows([draw(st.tuples(*[small] * ncols)) for _ in range(nrows)],
                            ncols=ncols)
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        return m, m.apply(draw(st.tuples(*[fractions] * ncols)))
    return m, tuple(draw(fractions) for _ in range(nrows))


class TestEchelonAgainstGaussJordan:

    @given(small_systems())
    @settings(deadline=None, max_examples=300)
    def test_echelon_contract(self, system):
        m, rhs = system
        ech = echelon(m)
        assert len(ech.cols) == gauss_jordan_rank(m)
        # the leftmost pivots are the lexicographically first column basis
        assert ech.cols == next(
            (p for p in combinations(range(m.ncols), len(ech.cols))
             if gauss_jordan_rank(IntMatrix.from_cols([m.col(j) for j in p], nrows=m.nrows))
             == len(p)))
        block = IntMatrix.from_rows([[m.rows[i][c] for c in ech.cols] for i in ech.rows],
                                    ncols=len(ech.cols))
        k = len(ech.cols)
        assert (IntMatrix.from_rows(ech.adj, ncols=k) @ block
                == IntMatrix.from_rows([vec_scale(ech.det, r)
                                        for r in IntMatrix.identity(k).rows], ncols=k))
        assert as_fractions(ech.solve(rhs)) == gauss_jordan_solve(m, rhs)


class TestSmithForm:

    @given(int_matrices())
    @settings(deadline=None)
    def test_decomposition_contract(self, m):
        U, D, V = snf_decompose(m)
        assert U @ m @ V == D
        assert abs(gauss_jordan_det(U)) == 1
        assert abs(gauss_jordan_det(V)) == 1
        for i, row in enumerate(D.rows):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        diag = [D.rows[i][i] for i in range(min(m.nrows, m.ncols)) if D.rows[i][i]]
        assert all(d > 0 for d in diag)
        assert all(b % a == 0 for a, b in zip(diag, diag[1:]))

    @given(int_matrices())
    @settings(deadline=None)
    def test_kernel_complements_the_rank(self, m):
        ker = kernel_basis(m)
        assert all(is_zero_vec(m.apply(v)) for v in ker)
        assert gauss_jordan_rank(m) + len(ker) == m.ncols


@st.composite
def shaped_matrices(draw):
    """A matrix with 0 to 5 rows, 0 to 5 columns and entries in [-9, 9],
    square in one draw of three."""
    nrows = draw(st.integers(0, 5))
    ncols = nrows if draw(st.integers(0, 2)) == 0 else draw(st.integers(0, 5))
    return IntMatrix.from_rows([tuple(draw(entries) for _ in range(ncols))
                                for _ in range(nrows)], ncols=ncols)


class TestLatticeAgainstReferences:

    @given(shaped_matrices())
    @settings(deadline=None, max_examples=300)
    def test_rank_and_det_match_gauss_jordan(self, m):
        assert m.rank() == gauss_jordan_rank(m)
        if m.nrows == m.ncols:
            assert m.det() == gauss_jordan_det(m)
        else:
            with pytest.raises(ValueError):
                m.det()

    @given(shaped_matrices())
    @settings(deadline=None, max_examples=300)
    def test_hermite_kernel_matches_the_smith_kernel(self, m):
        assert kernel_basis(m) == smith_kernel_basis(m)


@st.composite
def small_vectors(draw):
    rank = draw(st.integers(2, 4))
    coord = st.integers(-2, 2)
    vectors = draw(st.lists(st.tuples(*[coord] * rank), max_size=6))
    return rank, vectors


class TestHullAgainstCaratheodory:

    @given(small_vectors())
    @settings(deadline=None, max_examples=150)
    def test_hull_matches_membership(self, data):
        rank, vectors = data
        prim = sorted({primitive_part(v)[0] for v in vectors if any(v)})
        if any(in_cone(prim, tuple(-x for x in p)) for p in prim):
            with pytest.raises(InvalidFanError):
                Cone.hull(rank, vectors)
            return
        cone = Cone.hull(rank, vectors)
        assert list(cone.gens) == [
            p for p in prim if not in_cone([q for q in prim if q != p], p)]
        dim = rank_of(cone.gens, rank)
        assert cone.dim == dim
        if len(cone.gens) == dim:
            _, d, _ = snf_decompose(IntMatrix.from_rows(cone.gens, ncols=rank))
            assert cone.multiplicity() == math.prod(d.rows[i][i] for i in range(dim))
        else:
            assert cone.multiplicity() is None
        assert len(cone.equations) == rank - dim
        assert all(dot(e, g) == 0 for e in cone.equations for g in cone.gens)
        tight_sets = set()
        for a in cone.inequalities:
            assert all(dot(a, g) >= 0 for g in cone.gens)
            tight = tuple(g for g in cone.gens if dot(a, g) == 0)
            assert rank_of(tight, rank) == dim - 1
            tight_sets.add(tight)
        assert len(tight_sets) == len(cone.inequalities)
        for x in product(range(-2, 3), repeat=rank):
            assert not cone.contains(x) or in_cone(cone.gens, x, dim)


@st.composite
def small_cones(draw, rank):
    """Cone.hull of at most five lexicographically positive vectors in
    [-2, 2]^rank, which span a pointed cone, under a random sign change of
    the coordinates: the zero cone, rays and other small cones."""
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    vectors = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), max_size=5))
    lex = [v if v > (0,) * rank else tuple(-x for x in v) for v in vectors]
    return Cone.hull(rank, [tuple(s * x for s, x in zip(signs, v)) for v in lex])


@st.composite
def spread_cones(draw, rank, d):
    """Cone.hull of d + 2 or d + 3 distinct vectors v with entries in
    [1, 3], which lie in the open positive orthant of Z^d, each placed as
    (v, L v) for a random L with entries in [-1, 1], under a random order
    and signs of the coordinates: a cone of dimension d, with equations
    when d < rank, and mostly with more rays than d."""
    inner = draw(st.lists(st.tuples(*[st.integers(1, 3)] * d),
                          min_size=d + 2, max_size=d + 3, unique=True))
    lift = draw(st.lists(st.tuples(*[st.integers(-1, 1)] * d),
                         min_size=rank - d, max_size=rank - d))
    order = draw(st.permutations(range(rank)))
    signs = draw(st.tuples(*[st.sampled_from((1, -1))] * rank))
    vectors = [v + tuple(dot(row, v) for row in lift) for v in inner]
    return Cone.hull(rank, [tuple(s * v[i] for s, i in zip(signs, order)) for v in vectors])


def pointed_cones(rank):
    """A pointed cone of the given rank: in six draws of eight a spread
    cone of full dimension, so that most cones of rank 3 and up have more
    rays than a simplex; in one a spread cone of dimension rank - 1; and
    in one a small cone."""
    return st.sampled_from(("full",) * 6 + ("flat", "small")).flatmap(
        lambda shape: small_cones(rank) if shape == "small"
        else spread_cones(rank, rank if shape == "full" else max(rank - 1, 1)))


@st.composite
def section_cases(draw):
    rank = draw(st.integers(1, 4))
    e = draw(st.integers(1, rank))
    pi = IntMatrix.from_rows(
        draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=e, max_size=e)),
        ncols=rank)
    return draw(pointed_cones(rank)), draw(small_cones(rank)), pi, draw(small_cones(e))


@st.composite
def direction_cases(draw):
    """A pointed cone, pi onto a target of rank 1 to 3 and a primitive
    direction w of the target, whose leading entries may be zero and whose
    first nonzero entry may be negative."""
    e = draw(st.integers(1, 3))
    rank = draw(st.integers(e, 4))
    pi = IntMatrix.from_rows(
        draw(st.lists(st.tuples(*[st.integers(-2, 2)] * rank), min_size=e, max_size=e)),
        ncols=rank)
    # nonzero by construction: one entry, at a drawn coordinate, is nonzero
    w = list(draw(st.tuples(*[st.integers(-2, 2)] * e)))
    w[draw(st.integers(0, e - 1))] = draw(st.sampled_from((-2, -1, 1, 2)))
    return draw(pointed_cones(rank)), pi, primitive_part(w)[0]


class TestDoubleDescriptionAgainstSubsets:

    @given(section_cases())
    @settings(deadline=None, max_examples=150)
    def test_sections_and_intersections_match_the_subset_search(self, case):
        cone, other, pi, target = case
        rank = cone.rank
        rays, lineality = subset_extreme_rays(
            rank, cone.equations + other.equations,
            cone.inequalities + other.inequalities)
        assert not lineality
        assert list(cone.intersect(other).gens) == rays
        eqs, ineqs = pulled_back(pi, target)
        rays, lineality = subset_extreme_rays(
            rank, cone.equations + tuple(eqs), cone.inequalities + tuple(ineqs))
        assert not lineality
        assert cone.cut(eqs, ineqs) == rays

    @given(st.integers(1, 4).flatmap(pointed_cones))
    @settings(deadline=None, max_examples=150)
    def test_cached_masks_mark_the_tight_inequalities(self, cone):
        """The masks Cone.cut starts from: bit i of a generator's mask is
        set exactly when the i-th inequality is tight on it."""
        assert [g for g, _ in cone._tight] == list(cone.gens)
        for g, z in cone._tight:
            assert all((z >> i & 1) == (dot(a, g) == 0) for i, a in enumerate(cone.inequalities))
            assert z >> len(cone.inequalities) == 0

    @given(spread_cones(4, 3), pointed_cones(4))
    @settings(deadline=None, max_examples=150)
    def test_a_cut_from_the_cached_masks_matches_a_cut_from_scratch(self, cone, other):
        """Cone.cut starts from the cone's rays and the masks Cone.hull
        cached, and takes an equation as one step: on cones with an
        equation and more rays than their dimension, cut by the rows of a
        second cone, it agrees with a cut of the same rays, whose masks are
        made afresh, by each equation e taken as e and -e."""
        eqs, ineqs = other.equations, other.inequalities
        both_sides = tuple(r for e in eqs for r in (e, tuple(-x for x in e)))
        assert cone.cut(eqs, ineqs) == Cone(4, cone.gens).cut((), ineqs + both_sides)

    @given(direction_cases())
    @settings(deadline=None, max_examples=200)
    def test_direction_rows_cut_the_section_over_the_direction(self, case):
        """lct's candidates, the rays of the cut by _direction_rows with
        pi(r) = m w, m > 0, are those of the section by the direction cone,
        and every ray of the cut maps onto the line through w."""
        cone, pi, w = case
        _, eqs = _direction_rows(pi, w)
        cut = cone.cut(eqs, ())
        images = [pi.apply(r) for r in cut]
        assert all(u[a] * w[b] == u[b] * w[a]
                   for u in images for a, b in combinations(range(len(w)), 2))

        def over_w(rays):
            return [r for r in rays if positive_multiple(pi.apply(r), w)]

        section = cone.cut(*pulled_back(pi, Cone(len(w), (w,))))
        assert over_w(cut) == over_w(section)
        rays, lineality = subset_extreme_rays(
            cone.rank, cone.equations + tuple(eqs), cone.inequalities)
        assert not lineality
        assert cut == rays


@st.composite
def cone_systems(draw):
    """A cone of rank 1 to 4 and values at its generators: the values of
    a rational covector, so consistent, or drawn at random."""
    rank = draw(st.integers(1, 4))
    cone = draw(pointed_cones(rank))
    fractions = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    if draw(st.booleans()):
        x = draw(st.tuples(*[fractions] * rank))
        return cone, [dot(x, g) for g in cone.gens]
    return cone, [draw(fractions) for _ in cone.gens]


class TestSupportFunctionAgainstGaussJordan:

    @given(cone_systems())
    @settings(deadline=None, max_examples=300)
    def test_cone_solve_matches_solve_rational(self, system):
        cone, values = system
        rows = IntMatrix.from_rows(cone.gens, ncols=cone.rank)
        assert as_fractions(cone.solve(values)) == gauss_jordan_solve(rows, values)
        assert cone.span == saturation_basis(cone.gens, cone.rank)

    def test_suite_fans_match_the_gauss_jordan_reference(self):
        """Every source and target fan of the suite: the anticanonical
        class is Q-Cartier on each of them."""
        for inst in contraction_suite():
            pair = inst.pair
            assert fraction_pieces(pair.a_function) == gauss_jordan_pieces(
                pair.fan, [1 - c for c in pair.boundary.ray_coeffs]), inst.name
            for fan in (inst.contraction.source, inst.contraction.target):
                anti = InvariantDivisor.anticanonical(fan)
                pieces = gauss_jordan_pieces(fan, [-1] * len(fan.rays))
                sf = SupportFunction.for_divisor(anti)
                assert fraction_pieces(sf) == pieces, inst.name
                index = saturation_cartier_index(fan, pieces)
                bends = contains_bends(fan, pieces)
                assert cartier_index(sf) == index, inst.name
                scaled = [(w, Fraction(b, sf.scale)) for w, b in wall_bends(sf)]
                assert scaled == bends, inst.name
                assert is_cartier(anti) == (index == 1), inst.name
                assert is_nef(anti) == all(b >= 0 for _, b in bends), inst.name

    @given(fan_and_coeffs(pool=FAN_POOL + (BENT_PLANES,)))
    @settings(deadline=None, max_examples=200)
    def test_index_and_bends_of_rational_divisors(self, data):
        """Coefficients with denominators up to 6, so the pieces have
        different denominators, and on BENT_PLANES some denominator of a
        piece is invisible on its span."""
        fan, coeffs = data
        sf = SupportFunction.for_divisor(InvariantDivisor.make(fan, coeffs))
        pieces = gauss_jordan_pieces(fan, [-c for c in coeffs])
        assert fraction_pieces(sf) == pieces
        assert cartier_index(sf) == saturation_cartier_index(fan, pieces)
        bends = [(w, Fraction(b, sf.scale)) for w, b in wall_bends(sf)]
        assert bends == contains_bends(fan, pieces)


class TestHilbertCandidatesAgainstTheGroup:

    @given(st.integers(1, 4).flatmap(lambda rank: st.one_of(
        pointed_cones(rank), st.integers(1, rank).flatmap(lambda d: spread_cones(rank, d)))))
    @settings(deadline=None, max_examples=150)
    def test_candidates_match_the_fraction_enumeration(self, cone):
        """Pointed and spread cones of ranks 1 to 4: simplices and cones
        with more rays than their dimension, of full and lower dimension."""
        assert cone.hilbert_candidates == group_points(cone)

    def test_suite_cones_match_the_fraction_enumeration(self):
        """Every maximal cone of the suite's fans, and the image cone of
        every source maximal cone."""
        for inst in contraction_suite():
            f = inst.contraction
            images = tuple(Cone.hull(f.target.rank, [f.image_of(g) for g in c.gens])
                           for c in f.source.max_cones)
            for cone in f.source.max_cones + f.target.max_cones + images:
                assert cone.hilbert_candidates == group_points(cone), (inst.name, cone)


class TestFacesAgainstFacetTree:

    @given(st.integers(1, 4).flatmap(pointed_cones))
    @settings(deadline=None, max_examples=150)
    def test_faces_match_facets_of_facets(self, cone):
        faces = [(f.dim, f.gens) for level in cone.face_levels for f in level]
        assert faces == facet_tree_faces(cone)

    @given(st.integers(1, 4).flatmap(lambda rank: st.one_of(
        pointed_cones(rank), st.integers(1, rank).flatmap(lambda d: spread_cones(rank, d)))))
    @settings(deadline=None, max_examples=150)
    def test_face_levels_are_the_faces_by_dimension(self, cone):
        """Level k is the faces of dimension k, also for cones of lower
        dimension than their rank, and the levels satisfy Euler's relation."""
        faces = facet_tree_faces(cone)
        assert [[f.gens for f in level] for level in cone.face_levels] == [
            [gens for dim, gens in faces if dim == k] for k in range(cone.dim + 1)]
        if cone.dim >= 1:
            assert sum((-1) ** k * len(level) for k, level in enumerate(cone.face_levels)) == 0


def suite_fans():
    """The distinct source and target fans of contraction_suite()."""
    return list(dict.fromkeys(fan for inst in contraction_suite()
                              for fan in (inst.contraction.source, inst.contraction.target)))


@st.composite
def complete_fans(draw, ranks=(0, 1, 2, 3)):
    """A complete suite fan, maybe times another, star subdivided at up to
    two small primitive points.  Rank 4 is left to the scan over the suite:
    the box scan of a subdivided rank-4 product takes a good part of a
    second."""
    pool = [f for f in suite_fans() if classify_fan(f).complete]
    fan = draw(st.sampled_from([f for f in pool if f.rank in ranks]))
    others = [f for f in pool if fan.rank + f.rank in ranks]
    if others and draw(st.booleans()):
        fan = product_fan(fan, draw(st.sampled_from(others)))
    for _ in range(draw(st.integers(0, 2)) if fan.rank else 0):
        v = draw(st.tuples(*[st.integers(-2, 2)] * fan.rank).filter(any))
        fan = star_subdivide(fan, primitive_part(v)[0])
    return fan


# six rays winding twice around the plane, consecutive ones spanning the
# cones: each ray has its two cones on opposite sides and the walls
# connect, but every point lies in two cones
WINDING = Fan.from_rays_and_cones(2, [(1, 0), (-1, 1), (-1, -2), (1, 1), (-1, 0), (1, -2)],
                                  [(k, (k + 1) % 6) for k in range(6)])


@st.composite
def moved_ray_fans(draw):
    """A complete plane fan with one ray moved across the wall after it, onto
    the sum of the next two rays: the plane between the next ray and the
    moved one is covered three times, the rest once."""
    fan = draw(complete_fans(ranks=(2,)))
    rays = sorted(fan.rays, key=lambda r: math.atan2(r[1], r[0]))
    n = len(rays)
    k = draw(st.integers(0, n - 1))
    rays[k] = primitive_part(tuple(x + y for x, y in zip(rays[(k + 1) % n], rays[(k + 2) % n])))[0]
    try:
        return Fan.from_rays_and_cones(2, rays, [(i, (i + 1) % n) for i in range(n)])
    except InvalidFanError:
        assume(False)  # the moved ray is opposite its other neighbour


def not_fans():
    """Sets of cones that are not fans: the double winding, a moved ray,
    and each of them times P^1."""
    planar = st.one_of(st.just(WINDING), moved_ray_fans())
    return st.one_of(planar, planar.map(lambda f: product_fan(f, fan_p1())))


def fan_verdicts(fan):
    """classify_fan's complete flag and validate_fan's message (None when it
    accepts), each with what the pairwise intersections and the box scan
    say it should be."""
    offense = pairwise_fan_offense(fan)
    complete = offense is None and box_complete(fan, 2 if fan.rank <= 2 else 1)
    try:
        validate_fan(fan)
        message = None
    except InvalidFanError as exc:
        message = str(exc)
    return (classify_fan(fan).complete, message), (complete, offense)


class TestCompletenessAgainstBoxes:

    @given(complete_fans())
    @settings(deadline=None, max_examples=40)
    def test_complete_fans_are_complete_and_valid(self, fan):
        """Suite fans, their products and star subdivisions."""
        got, want = fan_verdicts(fan)
        assert got == want == (True, None), fan

    @given(not_fans())
    @settings(deadline=None, max_examples=40)
    def test_cones_that_are_not_fans_are_incomplete_and_refused(self, fan):
        """validate_fan refuses them with the first pairwise offense, and
        so does fan_from_doc, reading them as a document."""
        got, want = fan_verdicts(fan)
        assert got == want, fan
        assert want[0] is False and want[1] is not None, fan
        with pytest.raises(InvalidFanError) as exc:
            fan_from_doc(fan_to_doc(fan))
        assert str(exc.value) == want[1], fan

    def test_classify_matches_the_box_scan_over_the_suite(self):
        fans = suite_fans()
        assert len(fans) == 47
        for fan in fans:
            assert classify_fan(fan).complete == box_complete(fan, 2 if fan.rank <= 2 else 1), fan

    def test_a_fan_missing_a_cone_is_incomplete(self):
        """Drop each maximal cone of each complete suite fan of rank 2 and
        up: the sum of its rays lies in no remaining cone."""
        for fan in suite_fans():
            if fan.rank < 2 or not classify_fan(fan).complete:
                continue
            for i, dropped in enumerate(fan.max_cones):
                rest = Fan.make(fan.rank, fan.max_cones[:i] + fan.max_cones[i + 1:])
                assert not classify_fan(rest).complete, (fan, dropped)
                x = tuple(map(sum, zip(*dropped.gens)))
                assert not any(in_cone(c.gens, x) for c in rest.max_cones), (fan, dropped)


class TestPrimitivePart:

    @given(st.lists(entries, min_size=1, max_size=4).filter(
        lambda v: any(x != 0 for x in v)))
    def test_recovers_the_vector(self, v):
        p, k = primitive_part(tuple(v))
        assert k >= 1
        assert vec_scale(k, p) == tuple(v)
        assert primitive_part(p) == (p, 1)

    @given(st.lists(entries, min_size=1, max_size=4).filter(
        lambda v: any(x != 0 for x in v)), st.integers(1, 6))
    def test_scaling_moves_into_the_multiplier(self, v, c):
        p, k = primitive_part(tuple(v))
        assert primitive_part(vec_scale(c, tuple(v))) == (p, c * k)


class TestLogDiscrepancyFunction:

    @given(fan_and_coeffs(), st.integers(0, 5), st.integers(0, 5))
    @settings(deadline=None)
    def test_linear_on_every_cone(self, fc, s, t):
        fan, coeffs = fc
        pair = build_pair(fan, BoundaryData(coeffs), allow_subpair=True)
        for cone in fan.max_cones:
            g1, g2 = cone.gens[0], cone.gens[-1]
            u = tuple(s * x + t * y for x, y in zip(g1, g2))
            a = pair.a_function
            assert a.value(u) == s * a.value(g1) + t * a.value(g2)

    @given(fan_and_coeffs(low=0),
           st.fractions(min_value=0, max_value=1, max_denominator=6),
           st.integers(0, 5), st.integers(0, 5))
    @settings(deadline=None)
    def test_averaging_scales_the_function(self, fc, alpha, s, t):
        fan, coeffs = fc
        pair = build_pair(fan, BoundaryData(coeffs))
        mixed = build_pair(fan, average_boundary(pair.boundary, fan, alpha))
        cone = fan.max_cones[0]
        u = tuple(s * x + t * y for x, y in zip(cone.gens[0], cone.gens[-1]))
        assert mixed.a_function.value(u) == alpha * pair.a_function.value(u)


class TestDivisorClasses:

    @given(fan_and_coeffs())
    @settings(deadline=None)
    def test_reduction_is_a_canonical_form(self, fc):
        fan, coeffs = fc
        red = class_reduce(fan, coeffs)
        assert classes_equal(fan, coeffs, red)
        assert class_reduce(fan, red) == red

    @given(fan_and_coeffs())
    @settings(deadline=None)
    def test_reduction_matches_the_rref_reference(self, fc):
        fan, coeffs = fc
        assert class_reduce(fan, coeffs) == rref_class_reduce(fan, coeffs)


class TestRationalText:

    @given(st.fractions())
    def test_round_trip(self, x):
        assert fraction_from_text(fraction_to_text(x)) == x


class TestThresholdAgainstSearch:

    @given(st.integers(2, 4),
           st.fractions(min_value=0, max_value=1, max_denominator=4))
    @settings(deadline=None, max_examples=25)
    def test_exact_threshold_matches_box_search(self, k, c):
        f = fixture(f"x{k}").contraction
        pair = build_pair(f.source, BoundaryData(tuple(c for _ in f.source.rays)))
        for w in ((1,), (-1,)):
            exact = lct_over_direction(pair, f, w)
            assert lct_box_oracle(pair, f, w, box=8) == exact.t


class TestMldAgainstScan:

    @given(fan_and_coeffs())
    @settings(deadline=None, max_examples=50)
    def test_exact_mld_matches_box_scan(self, fc):
        fan, coeffs = fc
        pair = build_pair(fan, BoundaryData(coeffs), allow_subpair=True)
        res = mld_and_eps_check(pair, 1)
        value, point = scan_mld(pair, 12)
        assert res.mld_toric == value
        if value > 0:
            assert res.witness == point
        else:
            # the witness of a zero minimum is the least ray with a = 0,
            # where the scan finds the least point, often a multiple of one
            assert res.witness in fan.rays
            assert pair.a_function.value(res.witness) == 0

    def test_a_negative_echelon_determinant_gives_a_positive_denominator(self):
        """The rows (1,2), (3,4) have echelon determinant -2: the solve
        answers over a positive denominator, and the mld of a cone on them,
        a = u_2 / 4, matches the scan."""
        m = IntMatrix.from_rows([[1, 2], [3, 4]])
        assert echelon(m).det < 0
        assert echelon(m).solve((1, 0)) == ((-4, 3), 2)
        fan = Fan.from_rays_and_cones(2, [(1, 2), (3, 4)], [(0, 1)])
        assert fan.max_cones[0].solve((Fraction(1, 2), 1)) == ((0, 1), 4)
        pair = build_pair(fan, BoundaryData((Fraction(1, 2), Fraction(0))))
        assert pair.a_function.scale == 4
        res = mld_and_eps_check(pair, 0)
        assert (res.mld_toric, res.witness) == scan_mld(pair, 4) == (Fraction(1, 2), (1, 2))

    def test_exact_mld_bounds_box_scan_over_the_suite(self):
        box = {2: 12, 3: 4, 4: 3}
        for inst in contraction_suite():
            fan = inst.pair.fan
            for pair in (inst.pair, build_pair(fan, BoundaryData.zero(fan))):
                res = mld_and_eps_check(pair, 1)
                value, _ = scan_mld(pair, box[fan.rank])
                assert value >= res.mld_toric, inst.name
                if max(abs(x) for x in res.witness) <= box[fan.rank]:
                    assert value == res.mld_toric, inst.name

    def test_terminal_verdict_matches_box_scan_over_the_suite(self):
        box = {2: 4, 3: 2, 4: 2}
        for inst in contraction_suite():
            fan = inst.pair.fan
            variety = build_pair(fan, BoundaryData.zero(fan))
            off_rays, _ = scan_mld(variety, box[fan.rank], skip=fan.rays)
            assert has_terminal_singularities(fan) == (off_rays > 1), inst.name


# the private toricfib names a test module may import: a property of
# Cone.cut feeds it the equations lct builds
PRIVATE_IMPORTS_ALLOWED = {"_direction_rows"}


class TestReferenceModule:

    def test_test_modules_import_no_private_name_outside_the_allowlist(self):
        """No module under tests/ imports a private toricfib name other
        than those of PRIVATE_IMPORTS_ALLOWED."""
        for path in sorted(Path(__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("toricfib"):
                    private = {a.name for a in node.names if a.name.startswith("_")}
                    assert private <= PRIVATE_IMPORTS_ALLOWED, (path.name, private)

    def test_each_reference_names_what_it_checks_and_borrows_no_private_name(self):
        """Every public function of reference.py opens its docstring with
        "Checks" and names that resolve in toricfib, and reference.py
        imports no private name from toricfib."""
        tree = ast.parse(Path(__file__).with_name("reference.py").read_text())
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module.startswith("toricfib"):
                assert not [a.name for a in node.names if a.name.startswith("_")], node.module
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                doc = ast.get_docstring(node) or ""
                assert doc.startswith("Checks "), node.name
                for name in re.split(r",\s*|\s+and\s+", doc.removeprefix("Checks ").split(":")[0]):
                    obj = toricfib
                    for part in name.split("."):
                        assert hasattr(obj, part), (node.name, name)
                        obj = getattr(obj, part)
