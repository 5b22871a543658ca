"""Rational polyhedral cones and fans, with exact dual descriptions.

A cone is stored by its primitive extremal generators, lexicographically
sorted, and caches one echelon of its generator rows.  Its dimension, its
facet description (integer equations and inequalities), its multiplicity,
the group behind its Hilbert candidates and the linear pieces of support
functions are all read off an echelon, in integers: a piece is an integer
covector over one positive denominator, and least_value minimizes such
forms in integers, building a Fraction only for its answer.  Rays are
read off equations and inequalities by one double description cut, in
which an equation is one step: the facets of a cone start it from the
simplicial cone dual to the pivot rows of one echelon, and Cone.cut from
the cone's own rays and their tight masks, off which Cone.face_levels
reads the faces too.  All cones in this package are strongly convex;
fans are maximal cones in a lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import combinations, product

from .errors import (
    DocumentError,
    InvalidFanError,
    NotInSupportError,
    NotPrimitiveError,
    NotUnimodularError,
)
from .lattice import (
    Echelon,
    IntMatrix,
    Vec,
    _placed,
    dot,
    echelon,
    is_primitive,
    is_zero_vec,
    kernel_basis,
    primitive_part,
    vec_scale,
)


def _cut(cone, done: int, equations, inequalities) -> list[Vec]:
    """Sorted extreme rays of a pointed cone cut by e.x = 0 for each
    equation e and then by a.x >= 0 for each inequality a, one double
    description step per row.

    cone holds the primitive extreme rays of {x : b.x >= 0 for the done
    rows b}, each with its bit mask of tight rows among them, as
    Cone._tight gives; rows tight on every ray may be left out.  A step
    by a row keeps the rays tight on it, and for an inequality those
    positive on it too.  Each pair p, q with a.p > 0 > a.q that spans a
    two-dimensional face adds the primitive part of (a.p) q - (a.q) p,
    where that face meets a.x = 0.  The pair spans such a face exactly
    when no third ray is tight on every row both are tight on: the
    combinatorial adjacency test (Fukuda and Prodon, 1996).
    """
    steps = [(e, True) for e in equations] + [(a, False) for a in inequalities]
    for a, equation in steps:
        bit = 1 << done
        done += 1
        vals = [dot(a, r) for r, _ in cone]
        kept = [(r, z | bit if v == 0 else z) for (r, z), v in zip(cone, vals)
                if v == 0 or (v > 0 and not equation)]
        pos = [(r, z, v) for (r, z), v in zip(cone, vals) if v > 0]
        neg = [(r, z, v) for (r, z), v in zip(cone, vals) if v < 0]
        for (p, zp, vp), (q, zq, vq) in product(pos, neg):
            common = zp & zq
            if sum(z & common == common for _, z in cone) == 2:
                ray = tuple(vp * y - vq * x for x, y in zip(p, q))
                kept.append((primitive_part(ray)[0], common | bit))
        cone = kept
    return sorted(r for r, _ in cone)


def _dual_description(ech: Echelon) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
    """Equations and facet inequalities of the cone spanned by the rows g
    of ech.m, read off their echelon: pivot columns P, block B with adj B
    = det I.  Each free column f gives one equation, the primitive part of
    x_f = |det|, x_P = -sign(det) adj G[rows, f]: it vanishes on the
    independent rows, hence on their span.  As B is invertible, the g_P
    are coordinates on the span; the facet normals are the extreme rays
    of the dual cone in them, placed on P.  B adj = det I, so the pivot
    rows bound a simplicial cone whose ray positive on row i alone is
    sign(det) adj[:, i]; the other rows cut it.  The inequalities are sorted.
    """
    rank, cols = ech.m.ncols, ech.cols
    sign = 1 if ech.det > 0 else -1
    eqs = []
    for f in (j for j in range(rank) if j not in cols):
        col = [ech.m.rows[i][f] for i in ech.rows]
        x_p = [-sign * dot(a, col) for a in ech.adj]
        eqs.append(primitive_part(_placed(rank, cols + (f,), x_p + [abs(ech.det)]))[0])
    seed = [(primitive_part(vec_scale(sign, a))[0], (1 << len(cols)) - 1 - (1 << i))
            for i, a in enumerate(zip(*ech.adj))]
    rest = [[g[c] for c in cols] for k, g in enumerate(ech.m.rows) if k not in ech.rows]
    rays = _cut(seed, len(cols), (), rest)
    return tuple(eqs), tuple(sorted(_placed(rank, cols, n) for n in rays))


@dataclass(frozen=True)
class Cone:
    """Strongly convex rational cone, canonically presented."""

    rank: int
    gens: tuple[Vec, ...]

    @staticmethod
    def hull(rank: int, vectors) -> Cone:
        """Cone spanned by arbitrary lattice vectors; reduces to extremal
        primitive generators and checks strong convexity.

        The inequalities span the dual cone, so the cone contains a line
        exactly when some primitive input is tight on all of them.  An
        input then spans a ray exactly when no other input is tight on
        every inequality it is tight on, the adjacency idea of _cut.
        When every input is a ray, the inputs are the generators, and the
        cone keeps their echelon and tight masks as well as its dual
        description.
        """
        vectors = [tuple(int(x) for x in v) for v in vectors]
        prim = sorted({primitive_part(v)[0] for v in vectors if not is_zero_vec(v)})
        if not prim:
            return Cone(rank, tuple())
        ech = echelon(IntMatrix.from_rows(prim, ncols=rank))
        eqs, ineqs = _dual_description(ech)
        tight = [sum(1 << i for i, a in enumerate(ineqs) if dot(a, p) == 0) for p in prim]
        if (1 << len(ineqs)) - 1 in tight:
            raise InvalidFanError(f"cone spanned by {prim} contains a line")
        rays = tuple(p for p, z in zip(prim, tight)
                     if sum(y & z == z for y in tight) == 1)
        cone = Cone(rank, rays)
        cone.__dict__["_dual"] = (eqs, ineqs)
        if len(rays) == len(prim):
            cone.__dict__["_echelon"] = ech
            cone.__dict__["_tight"] = tuple(zip(prim, tight))
        return cone

    @staticmethod
    def zero(rank: int) -> Cone:
        return Cone(rank, tuple())

    @cached_property
    def _dual(self) -> tuple[tuple[Vec, ...], tuple[Vec, ...]]:
        return _dual_description(self._echelon)

    @cached_property
    def _tight(self) -> tuple[tuple[Vec, int], ...]:
        """Each generator with the mask of its tight inequalities, bit i for the i-th."""
        return tuple((g, sum(1 << i for i, a in enumerate(self.inequalities) if dot(a, g) == 0))
                     for g in self.gens)

    def cut(self, equations, inequalities) -> list[Vec]:
        """Sorted extreme rays of the cone cut by e.x = 0 for each equation e
        and a.x >= 0 for each inequality a, from its rays and tight masks."""
        return _cut(self._tight, len(self.inequalities), equations, inequalities)

    @property
    def equations(self) -> tuple[Vec, ...]:
        return self._dual[0]

    @property
    def inequalities(self) -> tuple[Vec, ...]:
        return self._dual[1]

    @property
    def dim(self) -> int:
        return len(self._echelon.cols)

    @cached_property
    def span(self) -> list[Vec]:
        """HNF basis of the lattice points of the linear span: the kernel
        of the equations, the standard basis when there are none."""
        if not self.equations:
            return list(IntMatrix.identity(self.rank).rows)
        return kernel_basis(IntMatrix.from_rows(self.equations, ncols=self.rank))

    @cached_property
    def _echelon(self) -> Echelon:
        return echelon(IntMatrix.from_rows(self.gens, ncols=self.rank))

    def solve(self, values) -> tuple[Vec, int] | None:
        """The covector x with x.g = value at each generator g, zero off the
        pivot columns, as integers over the least positive denominator, or
        None when there is none: read off the cached echelon of the
        generator rows."""
        return self._echelon.solve(values)

    def contains(self, v) -> bool:
        return (all(dot(e, v) == 0 for e in self.equations)
                and all(dot(a, v) >= 0 for a in self.inequalities))

    @cached_property
    def facets(self) -> tuple[Cone, ...]:
        """The facets, sorted by generators: the rays of a face are the
        rays of the cone tight on its inequality."""
        return tuple(sorted((Cone(self.rank, tuple(g for g in self.gens if dot(a, g) == 0))
                             for a in self.inequalities), key=lambda c: c.gens))

    @cached_property
    def face_levels(self) -> tuple[tuple[Cone, ...], ...]:
        """The faces by dimension, level k sorted by generators.  A face is the
        set of generators tight on every inequality its generators share, and
        the faces covering F are the inclusion-minimal such closures of F plus
        one generator (Kaibel and Pfetsch, 2002), as bit masks of generators."""
        def closure(tight):
            return sum(1 << k for k, (_, z) in enumerate(self._tight) if z & tight == tight)

        def covers(face, tight):
            up = {closure(tight & z): tight & z
                  for i, (_, z) in enumerate(self._tight) if not face >> i & 1}
            return [(h, t) for h, t in up.items() if not any(o & h == o != h for o in up)]

        levels = [{0: (1 << len(self.inequalities)) - 1}]
        while (1 << len(self.gens)) - 1 not in levels[-1]:
            levels.append(dict(c for face, t in levels[-1].items() for c in covers(face, t)))
        return tuple(tuple(self if gens == self.gens else Cone(self.rank, gens) for gens in sorted(
            tuple(g for k, g in enumerate(self.gens) if h >> k & 1) for h in level))
            for level in levels)

    def intersect(self, other: Cone) -> Cone:
        if self.rank != other.rank:
            raise ValueError("rank mismatch")
        return Cone(self.rank, tuple(self.cut(other.equations, other.inequalities)))

    def is_face_of(self, other: Cone) -> bool:
        if not all(other.contains(g) for g in self.gens):
            return False
        tight = [a for a in other.inequalities
                 if all(dot(a, g) == 0 for g in self.gens)]
        face_gens = [g for g in other.gens
                     if all(dot(a, g) == 0 for a in tight)]
        return set(face_gens) == set(self.gens)

    @property
    def is_simplex(self) -> bool:
        return len(self.gens) == self.dim

    def multiplicity(self) -> int | None:
        """Index of the sublattice generated by the rays of a simplex cone
        inside the lattice points of its span; None for non-simplex cones.
        Projected injectively onto the pivot columns, the rays and the HNF
        basis of the span are square: the index is |det| over the product
        of the HNF pivots, which sit on the same leftmost columns."""
        if not self.is_simplex:
            return None
        return abs(self._echelon.det) // math.prod(
            next(x for x in b if x) for b in self.span)

    @property
    def is_smooth(self) -> bool:
        return self.is_simplex and self.multiplicity() == 1

    def _triangulation(self) -> list[tuple[Vec, ...]]:
        """Generator tuples of a triangulation that adds no rays: the
        simplices of each facet missing the first ray, joined to that ray."""
        if self.is_simplex:
            return [self.gens]
        apex = self.gens[0]
        return [s + (apex,) for f in self.facets if apex not in f.gens
                for s in f._triangulation()]

    @cached_property
    def hilbert_candidates(self) -> tuple[Vec, ...]:
        """Sorted lattice points of the cone that include its Hilbert basis.

        These are the rays plus, for each simplex G (as columns) of a
        triangulation adding no rays, the nonzero points G l with 0 <= l_i
        < 1.  The l form the group (saturated span lattice)/<v_i>, of order
        d = |det| of G's echelon, kept as residues d l mod d: the closure
        under addition of the adj b mod d over a span basis b, since
        G adj b = det b (a group, so the sign of det does not matter).  The
        points are G (d l) // d.  A linear function >= 0 on the cone takes
        its minimum over nonzero lattice points at one of these points.
        """
        out = set(self.gens)
        for simplex in self._triangulation():
            gmat = IntMatrix.from_cols(simplex, nrows=self.rank)
            ech = echelon(gmat)
            d = abs(ech.det)
            steps = [tuple(dot(a, [b[i] for i in ech.rows]) % d for a in ech.adj)
                     for b in self.span]
            group = {(0,) * len(simplex)}
            frontier = list(group)
            while frontier:
                lam = frontier.pop()
                for step in steps:
                    nxt = tuple((x + y) % d for x, y in zip(lam, step))
                    if nxt not in group:
                        group.add(nxt)
                        frontier.append(nxt)
            out.update(tuple(x // d for x in gmat.apply(lam)) for lam in group if any(lam))
        return tuple(sorted(out))

    def __repr__(self):
        return f"Cone{list(self.gens)}"


def least_value(forms) -> tuple[Fraction, Vec]:
    """Least value of linear forms over the nonzero lattice points of
    their cones, with a witness, for (cone, form, d) triples: an integer
    form over a positive denominator d, >= 0 on its cone.  A zero cone adds
    nothing.

    A form vanishing at a generator makes the least value 0, witnessed by
    the least such generator (the points reaching 0 may have no least one,
    as for zero generators (-1, 0) and (0, 1)).  Otherwise each form is
    positive on its cone off the origin, so it is least only at Hilbert
    basis elements, which are among Cone.hilbert_candidates, and the
    witness is the lexicographically least point reaching the value: the
    minimum is taken in integers per cone, and one Fraction over d is
    built per cone.
    """
    forms = list(forms)
    zeros = [g for cone, form, _ in forms for g in cone.gens if dot(form, g) == 0]
    if zeros:
        return Fraction(0), min(zeros)
    least = [(d, min((dot(form, p), p) for p in cone.hilbert_candidates))
             for cone, form, d in forms if cone.gens]
    return min((Fraction(v, d), p) for d, (v, p) in least)


@dataclass(frozen=True)
class Fan:
    rank: int
    max_cones: tuple[Cone, ...]

    @staticmethod
    def make(rank: int, cones) -> Fan:
        uniq = sorted({c.gens: c for c in cones}.values(), key=lambda c: c.gens)
        return Fan(rank, tuple(uniq))

    @staticmethod
    def from_rays_and_cones(rank: int, rays, cone_indices) -> Fan:
        """Build from a primitive ray list and per-cone ray index lists."""
        rays = [tuple(int(x) for x in r) for r in rays]
        for r in rays:
            if is_zero_vec(r) or not is_primitive(r):
                raise NotPrimitiveError(f"ray {r} is not primitive")
        cones = []
        for idx in cone_indices:
            gens = [rays[i] for i in idx]
            c = Cone.hull(rank, gens)
            if set(c.gens) != set(gens):
                raise InvalidFanError(
                    f"cone generators {sorted(gens)} are not extremal (reduce to {list(c.gens)})")
            cones.append(c)
        return Fan.make(rank, cones)

    @cached_property
    def rays(self) -> tuple[Vec, ...]:
        out = set()
        for c in self.max_cones:
            out.update(c.gens)
        return tuple(sorted(out))

    @cached_property
    def ray_index(self) -> dict[Vec, int]:
        return {r: i for i, r in enumerate(self.rays)}

    @cached_property
    def classification(self) -> FanClassification:
        """Whether the fan is simplicial, smooth and complete, once per fan."""
        return FanClassification(all(c.is_simplex for c in self.max_cones),
                                 all(c.is_smooth for c in self.max_cones),
                                 _is_complete(self))

    def support_contains(self, v) -> bool:
        return any(c.contains(v) for c in self.max_cones)

    @cached_property
    def facet_owners(self) -> tuple[tuple[Cone, tuple[int, ...]], ...]:
        """Each facet of a maximal cone, sorted by generators, with the
        indices of the maximal cones it is a facet of."""
        owners: dict[tuple, tuple[Cone, list[int]]] = {}
        for i, c in enumerate(self.max_cones):
            for f in c.facets:
                owners.setdefault(f.gens, (f, []))[1].append(i)
        return tuple((f, tuple(idx)) for _, (f, idx) in sorted(owners.items()))

    @cached_property
    def walls(self) -> tuple[tuple[Cone, int, int], ...]:
        """Facets shared by exactly two maximal cones, with the cone indices."""
        return tuple((f, *idx) for f, idx in self.facet_owners if len(idx) == 2)

    def __repr__(self):
        return f"Fan(rank {self.rank}, {len(self.max_cones)} maximal cones, rays {list(self.rays)})"


# the most steps an enumeration may take: the pairs of maximal cones that
# validate_fan intersects, the box directions, (2 box + 1)^rank, that a
# delta oracle scans
SCAN_BUDGET = 10 ** 5


def within_budget(count: int, message: str) -> None:
    """Refuses, before it starts, an enumeration of count steps over
    SCAN_BUDGET: a DocumentError of the message, naming the count, and the budget."""
    if count > SCAN_BUDGET:
        raise DocumentError(f"{message}, more than the {SCAN_BUDGET} allowed")


def validate_fan(fan: Fan) -> None:
    """Check the fan axioms; raises InvalidFanError naming the first offense.
    A complete fan (see _is_complete) passes on its walls alone, in time
    linear in them; any other has each pair of its cones intersected, at
    most SCAN_BUDGET pairs."""
    if fan.rank < 0:
        raise InvalidFanError("negative rank")
    if not fan.max_cones:
        raise InvalidFanError("fan has no cones")
    for c in fan.max_cones:
        if c.rank != fan.rank:
            raise InvalidFanError(f"cone {c} lives in rank {c.rank}, fan in rank {fan.rank}")
    if not fan.classification.complete:
        pairs = math.comb(len(fan.max_cones), 2)
        within_budget(pairs, f"the fan is not complete and has {pairs} pairs "
                             "of maximal cones to check")
        for ci, cj in combinations(fan.max_cones, 2):
            inter = ci.intersect(cj)
            if inter.gens == ci.gens or inter.gens == cj.gens:
                raise InvalidFanError(
                    f"listed maximal cone is contained in another: {ci} vs {cj}")
            if not inter.is_face_of(ci) or not inter.is_face_of(cj):
                raise InvalidFanError(
                    f"intersection of {ci} and {cj} is not a face of each")


@dataclass(frozen=True)
class FanClassification:
    simplicial: bool
    smooth: bool
    complete: bool


def classify_fan(fan: Fan) -> FanClassification:
    return fan.classification


def _is_complete(fan: Fan) -> bool:
    """Exact completeness in one pass over the walls: the fan is pure and
    full-dimensional, each facet of a maximal cone is a facet of exactly two,
    on opposite sides of it, and the sum of the first cone's generators lies
    in exactly one maximal cone.  Crossing a facet then trades one owner for
    the other, so all points off the facets lie in equally many cones, and
    near that sum in one: the cones cover the space once, which makes them
    a complete fan (Cox, Little and Schenck, Toric Varieties, 2011, ch. 3)."""
    cones = fan.max_cones
    if not cones or any(c.dim != fan.rank for c in cones):
        return False
    for wall, idx in fan.facet_owners:
        if len(idx) != 2:
            return False
        a, b = (cones[i] for i in idx)
        normal = next(n for n in b.inequalities if all(dot(n, g) == 0 for g in wall.gens))
        if dot(normal, next(g for g in a.gens if g not in wall.gens)) >= 0:
            return False
    inside = tuple(map(sum, zip(*cones[0].gens)))
    return sum(c.contains(inside) for c in cones) == 1


def star_subdivide(fan: Fan, u: Vec) -> Fan:
    """Star subdivision of the fan at a primitive lattice point of its support."""
    u = tuple(int(x) for x in u)
    if is_zero_vec(u) or not is_primitive(u):
        raise NotPrimitiveError(f"{u} is not a primitive lattice vector")
    if not fan.support_contains(u):
        raise NotInSupportError(f"{u} is outside the fan support")
    new_cones: list[Cone] = []
    for c in fan.max_cones:
        if not c.contains(u):
            new_cones.append(c)
            continue
        for f in c.facets:
            if not f.contains(u):
                new_cones.append(Cone.hull(fan.rank, f.gens + (u,)))
    out = Fan.make(fan.rank, new_cones)
    validate_fan(out)
    return out


def fans_isomorphic_under(m: IntMatrix, f1: Fan, f2: Fan) -> bool:
    """Whether the unimodular map m sends the cones of f1 onto those of f2."""
    if m.nrows != m.ncols or not m.is_unimodular():
        raise NotUnimodularError("the comparison map must be unimodular")
    if f1.rank != m.ncols or f2.rank != m.nrows:
        raise NotUnimodularError("rank mismatch with the comparison map")
    images = set()
    for c in f1.max_cones:
        img = Cone.hull(f2.rank, [m.apply(g) for g in c.gens])
        images.add(img.gens)
    return images == {c.gens for c in f2.max_cones}


def product_fan(f1: Fan, f2: Fan) -> Fan:
    """Fan of the product: pairwise sums of embedded maximal cones."""
    rank = f1.rank + f2.rank
    cones = []
    for c1 in f1.max_cones:
        for c2 in f2.max_cones:
            gens = [g + (0,) * f2.rank for g in c1.gens]
            gens += [(0,) * f1.rank + g for g in c2.gens]
            cones.append(Cone.hull(rank, gens))
    return Fan.make(rank, cones)
