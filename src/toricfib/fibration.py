"""Toric contractions and adjunction over codimension-one points.

A contraction is a surjective lattice map sending every source cone into
some target cone and hitting every target ray from a source ray.  It
caches the target cones carrying each source cone, and the fibre
multiplicities over the codimension-one points: the m with pi(v) = m w
for the source rays v over each primitive image w.  On top sit the fiber
computations, the lc threshold over a divisorial direction, the
discriminant/moduli data of the canonical bundle formula, and the exact
infimum of thresholds over all divisorial directions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import islice, product

from .divisors import InvariantDivisor, SupportFunction, class_reduce, ray_matrix, wall_bends
from .errors import (
    ConeNotMappedError,
    DirectionOutsideImageError,
    FinitePartError,
    NotATargetRayError,
    NotPrimitiveError,
    NotRelativelyTrivialError,
    NotSimplicialError,
    RayNotDominatedError,
    ToricError,
)
from .fan import Cone, Fan, classify_fan, least_value, within_budget
from .lattice import (
    IntMatrix,
    Sublattice,
    Vec,
    dot,
    echelon,
    is_primitive,
    is_zero_vec,
    kernel_basis,
    primitive_part,
    split_extension,
)
from .pair import (
    BoundaryData,
    ToricPair,
    _on_pair_fan,
    build_pair,
    wall_relation_vector,
)


@dataclass(frozen=True)
class ToricContraction:
    source: Fan
    target: Fan
    pi: IntMatrix

    def image_of(self, v) -> Vec:
        return self.pi.apply(v)

    @cached_property
    def cone_carriers(self) -> tuple[frozenset[int], ...]:
        """For each source maximal cone, the indices of the target maximal
        cones containing the images of all its generators: each source
        ray's image is tested against each target cone once, and the sets
        of a cone's rays are intersected."""
        targets = self.target.max_cones
        over = {v: frozenset(i for i, t in enumerate(targets) if t.contains(self.image_of(v)))
                for v in self.source.rays}
        every = frozenset(range(len(targets)))
        return tuple(every.intersection(*(over[g] for g in c.gens))
                     for c in self.source.max_cones)

    @cached_property
    def contracted_wall_indices(self) -> tuple[int, ...]:
        """Walls whose two adjacent cones map into one target cone: the
        corresponding invariant curves are contracted by the morphism."""
        carriers = self.cone_carriers
        return tuple(k for k, (_, i, j) in enumerate(self.source.walls)
                     if carriers[i] & carriers[j])

    @cached_property
    def ray_multiplicities(self) -> dict[Vec, list[tuple[Vec, int]]]:
        """Each primitive w with pi(v) = m w, m > 0, for some source ray v,
        mapped to those (v, m) in ray order: the fibre multiplicities."""
        table: dict[Vec, list[tuple[Vec, int]]] = {}
        for v in self.source.rays:
            if not is_zero_vec(u := self.image_of(v)):
                w, m = primitive_part(u)
                table.setdefault(w, []).append((v, m))
        return table

    def __repr__(self):
        return (f"ToricContraction(rank {self.source.rank} -> rank "
                f"{self.target.rank})")


def validate_contraction(src: Fan, tgt: Fan, pi: IntMatrix) -> ToricContraction:
    """Check the contraction axioms.

    Raises FinitePartError carrying the image sublattice when pi is not
    surjective, ConeNotMappedError naming the first cone whose image fits
    in no target cone, and RayNotDominatedError when some target ray has
    no source ray over it.
    """
    if pi.nrows != tgt.rank or pi.ncols != src.rank:
        raise ValueError("projection shape does not match the fans")
    image = Sublattice(tgt.rank, [pi.col(j) for j in range(pi.ncols)])
    if image.rank < tgt.rank:
        raise FinitePartError("lattice map is not surjective (infinite index)",
                              image=image, index=None)
    idx = image.index()
    if idx != 1:
        raise FinitePartError(
            f"lattice map has image of finite index {idx}", image=image, index=idx)
    f = ToricContraction(src, tgt, pi)
    for c, carriers in zip(src.max_cones, f.cone_carriers):
        if not carriers:
            raise ConeNotMappedError(
                f"image of {c} lies in no target cone")
    for w in tgt.rays:
        if w not in f.ray_multiplicities:
            raise RayNotDominatedError(
                f"no source ray lies over the target ray {w}")
    return f


@dataclass(frozen=True)
class FiberData:
    fiber_fan: Fan
    kernel_basis: tuple[Vec, ...]
    split_section: tuple[Vec, ...] | None


def general_fiber_and_split(f: ToricContraction) -> FiberData:
    """Fan of the general fiber, in coordinates on the saturated kernel.

    The fiber fan consists of the source cones lying inside the kernel
    subspace.  When the target fan is trivial (only the zero cone), the
    contraction is a product and a section basis is returned as well.
    """
    ker = kernel_basis(f.pi)
    sub = Sublattice(f.source.rank, ker)
    rank = len(ker)
    # pi maps a maximal cone into a strongly convex cone, so its meet with
    # ker pi is the face spanned by its generators with zero image; the
    # fiber fan's cones are the maximal ones among these faces
    faces = dict.fromkeys(tuple(g for g in c.gens if is_zero_vec(f.image_of(g)))
                          for c in f.source.max_cones)
    inner = []
    for gens in faces:
        coords = [sub.coordinates_of(g) for g in gens]
        if None in coords:
            raise RuntimeError(f"fiber cone {gens} leaves the kernel lattice")
        inner.append(Cone.hull(rank, coords))
    maximal = [c for c in inner
               if not any(set(c.gens) < set(o.gens) for o in inner)]
    fiber = Fan.make(rank, maximal if maximal else [Cone.zero(rank)])
    split = None
    if all(not t.gens for t in f.target.max_cones):
        section = split_extension(f.pi)
        split = tuple(section.col(j) for j in range(section.ncols))
    return FiberData(fiber, tuple(ker), split)


def fiber_multiplicities_over(f: ToricContraction, w) -> list[tuple[Vec, int]]:
    """Source rays over a target ray with their multiplicities."""
    w = tuple(int(x) for x in w)
    if w not in f.target.rays:
        raise NotATargetRayError(f"{w} is not a ray of the target fan")
    return list(f.ray_multiplicities.get(w, ()))


@dataclass(frozen=True)
class LctResult:
    t: Fraction
    witness: Vec


def lct_over_direction(pair: ToricPair, f: ToricContraction, w) -> LctResult:
    """Largest t such that the pair stays lc after adding t times the
    fiber divisor over the direction w, over the generic point of w.

    Equals the minimum of a(r)/m(r) over extremal rays r of the cones
    sigma cap pi^{-1}(R>=0 w) with pi(r) = m(r) w, m(r) > 0.  Extremal
    rays suffice because a is linear on each cone and nonnegative on the
    m = 0 part.  Witness ties break lexicographically.  ValueError when w
    is not of the target's rank, or when the pair lives on another fan
    than the contraction's source.
    """
    _on_pair_fan(pair.fan, f.source)
    w = _direction(f, w)
    sf = pair.a_function
    found = _least_ratio(_over(f, w, zip(pair.fan.max_cones, sf.pieces)), sf.scale, f, w)
    if found is None:
        raise DirectionOutsideImageError(
            f"no divisorial direction of the source lies over {w}")
    return LctResult(*found)


def _direction(f: ToricContraction, w) -> Vec:
    w = tuple(int(x) for x in w)
    if len(w) != f.target.rank:
        raise ValueError(f"direction {w} is not of the target rank {f.target.rank}")
    if is_zero_vec(w) or not is_primitive(w):
        raise NotPrimitiveError(f"direction {w} must be a primitive vector")
    return w


def _over(f: ToricContraction, w: Vec, items) -> list:
    """The items, one per source maximal cone in order, of the cones with
    a carrier holding w: the one filter of the cones over w, for the exact
    lct, its box oracle and the delta oracle.  A cone sigma with no such
    carrier has no u with pi(u) = m w, m > 0: pi(sigma) lies in every
    carrier of sigma."""
    holding = frozenset(i for i, t in enumerate(f.target.max_cones) if t.contains(w))
    return [item for item, carriers in zip(items, f.cone_carriers) if carriers & holding]


def _direction_rows(pi: IntMatrix, w: Vec) -> tuple[int, list[Vec]]:
    """The first nonzero coordinate j of w, and the equations of pi^-1(R w):
    w_j pi_i - w_i pi_j for i != j."""
    j = next(k for k, x in enumerate(w) if x)
    return j, [tuple(w[j] * x - w[i] * y for x, y in zip(row, pi.rows[j]))
               for i, row in enumerate(pi.rows) if i != j]


def _least_ratio(cones_and_pieces, scale: int, f: ToricContraction,
                 w: Vec) -> tuple[Fraction, Vec] | None:
    """Least a(r)/m(r), with its witness r, over the rays r of the sections
    cone cap pi^-1(R>=0 w) with pi(r) = m(r) w, m(r) > 0, for (cone, piece)
    pairs of SupportFunction, the integer pieces over its scale; None
    when no section has such a ray.  Both callers pass only the cones that
    can meet pi^-1(Z>0 w), those with a carrier holding w (_over); the
    section of any other cone has no ray with m > 0.  w must be primitive.
    Those are the rays with m > 0 of cone cap pi^-1(R w), each cone cut
    once by the equations of _direction_rows: the cut by sign(w_j) pi_j >= 0
    only adds rays with m = 0, and on the cut m = pi_j(r) / w_j.  Ratios
    compare by cross-multiplication, ties to least r."""
    j, equations = _direction_rows(f.pi, w)
    found = ((dot(piece, r), m, r) for cone, piece in cones_and_pieces
             for r in cone.cut(equations, ()) if (m := dot(f.pi.rows[j], r) // w[j]) > 0)
    best = next(found, None)
    for a, m, r in found:
        if (a * best[1], r) < (best[0] * m, best[2]):
            best = a, m, r
    return None if best is None else (Fraction(best[0], best[1] * scale), best[2])


def lct_box_oracle(pair: ToricPair, f: ToricContraction, w, box: int) -> Fraction | None:
    """Brute-force check value: min of a(u)/m over all lattice points u of
    the source support with coordinates at most box and pi(u) = m*w, m > 0.

    Only the fibre pi^-1(Z>0 w) is scanned, in integers.  Split the
    columns of pi into the e pivot columns P of its echelon, with D =
    |det P| and Q = D P^-1 integral, read off the echelon's adjugate, and
    free columns F.  The point with free coordinates y and
    pi(u) = m w has pivot coordinates u_P = (m Qw - QF y) / D, so D times
    a linear form at u is m alpha + gamma . y, with integers alpha and
    gamma fixed by the form.  Each distinct gamma is tabulated once over
    every y of the box, in the order of product; from those tables, one
    list per distinct row gives, for every y, a bound on m, and the
    bounds give the interval of m that put u_P in the box, and the
    intervals that put u in each maximal cone, cut out by the cone's
    equations and inequalities.  The m that make u_P integral are one
    residue class mod D / gcd(D, Qw), found once for each line y.  Only
    the cones with a carrier holding w are read (_over): pi maps any
    other cone into a target cone without w, so none of its points lies
    in the fibre.  The scan then goes cone by cone: each such cone reads
    only the lines where its interval is not empty, from the least m of the class
    in its interval, with its integer piece of SupportFunction over its
    scale, and a/m is compared by cross-multiplication.  A point on a
    face shared by several cones is read in each of them, with the same
    a, since a is continuous on a fan.  Every point of the box in the
    fibre is still visited.  w must be primitive, and the pair on the
    contraction's source.
    """
    _on_pair_fan(pair.fan, f.source)
    w = _direction(f, w)
    d, e = pair.fan.rank, f.target.rank
    cols = f.pi.cols()
    ech = echelon(f.pi)
    pivots = ech.cols
    free = [j for j in range(d) if j not in pivots]
    det = abs(ech.det)
    sign = 1 if ech.det > 0 else -1

    def q_apply(v):
        """Q v: adj P[rows] = det I, so Q = sign(det) adj on v's rows in
        pivot order."""
        return tuple(sign * dot(a, [v[i] for i in ech.rows]) for a in ech.adj)

    qw = q_apply(w)
    qf = [q_apply(cols[j]) for j in free]

    def form(row):
        """(alpha, gamma) with D row.u = m alpha + gamma.y."""
        head = [row[j] for j in pivots]
        return dot(head, qw), tuple(det * row[j] - dot(head, c)
                                    for j, c in zip(free, qf))

    tables = {}

    def table(gamma):
        """gamma.y for every y of the box, in the order of product: one
        list comprehension per free coordinate, the last varying fastest."""
        if gamma not in tables:
            beta = [0]
            for g in gamma:
                steps = [g * k for k in range(-box, box + 1)]
                beta = [b + s for b in beta for s in steps]
            tables[gamma] = beta
        return tables[gamma]

    # |pi_j(u)| <= |pi_j|_1 box bounds m; the valid m repeat mod step
    top = min(sum(map(abs, f.pi.rows[j])) * box // abs(x)
              for j, x in enumerate(w) if x)
    step = det // math.gcd(det, *qw)

    bounds = {}

    def narrow(rows, lo, hi):
        """Narrow the interval [lo[i], hi[i]] of m at each y to the m with
        m alpha + gamma.y + const >= 0 for every row (alpha, gamma, const):
        one list of bounds per distinct row, kept in bounds for the call,
        since adjacent cones share their wall's rows, then one max over the
        lower bounds and one min over the upper; hi 0 marks an empty
        interval, as m > 0."""
        lows, highs = [lo], [hi]
        for row in rows:
            if row not in bounds:
                alpha, gamma, const = row
                beta = table(gamma)
                if alpha > 0:
                    bounds[row] = [-((b + const) // alpha) for b in beta]
                elif alpha < 0:
                    bounds[row] = [(b + const) // -alpha for b in beta]
                else:
                    bounds[row] = [top if b + const >= 0 else 0 for b in beta]
            (lows if row[0] > 0 else highs).append(bounds[row])
        return (list(map(max, *lows)) if len(lows) > 1 else lo,
                list(map(min, *highs)) if len(highs) > 1 else hi)

    # D u_j for each pivot coordinate j, and the box rows D box -+ D u_j >= 0
    coords = [form(row) for row in (IntMatrix.identity(d).rows[j] for j in pivots)]
    box_rows = [(s * alpha, tuple(s * g for g in gamma), det * box)
                for alpha, gamma in coords for s in (1, -1)]
    n = (2 * box + 1) ** (d - e)
    lo, hi = narrow(box_rows, [1] * n, [top] * n)
    # the m that make u_P integral on a line y are one class mod step, or
    # none: its least member, found once for each set of shifts gamma.y mod D
    alphas = [alpha for alpha, _ in coords]
    found = {}

    def residue(shifts):
        return next((m for m in range(step) if all(
            (m * alpha + b) % det == 0 for alpha, b in zip(alphas, shifts))), None)
    residues = [found[k] if k in found else found.setdefault(k, residue(k))
                for k in zip(*([b % det for b in table(gamma)] for _, gamma in coords))]
    sf = pair.a_function
    best_a, best_m = None, 1
    for cone, piece in _over(f, w, zip(pair.fan.max_cones, sf.pieces)):
        # an equation bounds m from both sides, as the box rows do
        rows = [(s * alpha, tuple(s * g for g in gamma), 0)
                for alpha, gamma in map(form, cone.equations) for s in (1, -1)]
        rows += [(*form(a), 0) for a in cone.inequalities]
        c_lo, c_hi = narrow(rows, lo, hi)
        alpha, gamma = form(piece)
        for low, high, r, b in zip(c_lo, c_hi, residues, table(gamma)):
            if r is None or low > high:
                continue
            for m in range(low + (r - low) % step, high + 1, step):
                val = m * alpha + b
                if best_a is None or val * best_m < best_a * m:
                    best_a, best_m = val, m
    return None if best_a is None else Fraction(best_a, best_m * sf.scale * det)


def relative_triviality(pair: ToricPair, f: ToricContraction):
    """Target class D_Z with (K+B)-class = (divisorial pullback of D_Z)-class.

    The pullback of the invariant divisor at a target ray w is
    sum of m_v D_v over the source rays v with pi(v) = m_v w.  Returns the
    coefficient vector of D_Z over the target rays, or None when the class
    equation has no solution.
    """
    _on_pair_fan(pair.fan, f.source)
    n = len(pair.fan.rays)
    cols = []
    for w in f.target.rays:
        col = [0] * n
        for v, m in f.ray_multiplicities.get(w, ()):
            col[pair.fan.ray_index[v]] = m
        cols.append(col)
    princ = ray_matrix(pair.fan)
    for j in range(princ.ncols):
        cols.append(list(princ.col(j)))
    sol = echelon(IntMatrix.from_cols(cols, nrows=n)).solve(pair.pair_class_vector())
    if sol is None:
        return None
    y, d = sol
    return tuple(Fraction(x, d) for x in y[: len(f.target.rays)])


def _descended_class(pair: ToricPair, f: ToricContraction):
    """relative_triviality, refusing a pair class that is no pullback."""
    if (descended := relative_triviality(pair, f)) is None:
        raise NotRelativelyTrivialError("the pair class is not a pullback from the target")
    return descended


@dataclass(frozen=True)
class AdjunctionData:
    discriminant: InvariantDivisor
    moduli_class: tuple[Fraction, ...]
    witnesses: tuple[tuple[Vec, Vec, Fraction], ...]  # (target ray, u*, lct)
    descended_class: tuple[Fraction, ...]


def discriminant_divisor(pair: ToricPair, f: ToricContraction) -> AdjunctionData:
    """Canonical bundle formula data over every invariant divisor of the
    target: discriminant coefficient 1 - lct at each target ray, and the
    moduli class = descended class - canonical class - discriminant class
    in the ray presentation of the target class group."""
    descended = _descended_class(pair, f)
    coeffs = []
    witnesses = []
    for w in f.target.rays:
        res = lct_over_direction(pair, f, w)
        coeffs.append(1 - res.t)
        witnesses.append((w, res.witness, res.t))
    disc = InvariantDivisor.make(f.target, coeffs)
    moduli = tuple(d + 1 - c for d, c in zip(descended, coeffs))
    return AdjunctionData(disc, class_reduce(f.target, moduli),
                          tuple(witnesses), descended)


@dataclass(frozen=True)
class DeltaResult:
    delta: Fraction
    witness_direction: Vec
    exact: bool
    oracle_delta: Fraction | None


def base_lct_infimum(pair: ToricPair, f: ToricContraction, box: int) -> DeltaResult:
    """Exact infimum of lct over all primitive divisorial directions of
    the target, beside the box oracle's, whose (2 box + 1)^e directions
    are counted first, within fan.SCAN_BUDGET.

    For each face F of a maximal source cone on which pi is injective,
    the log discrepancy transports to a linear functional g_F on pi(F),
    an integer form over d times the scale of the pieces; the infimum is
    fan.least_value of the g_F over the cones pi(F).  Such a face has
    dimension at most e, the rank of the target, so the walk of each
    cone's faces (Cone.face_walk) stops after level e.
    """
    count = (2 * box + 1) ** f.target.rank
    within_budget(count, f"--box {box} gives {count} oracle directions")
    _descended_class(pair, f)
    if not f.target.rays:
        raise DirectionOutsideImageError(
            "the target has no divisorial directions")
    e = f.target.rank
    faces = {}
    sf = pair.a_function
    for cone, piece in zip(pair.fan.max_cones, sf.pieces):
        # pi is injective on no face of dimension above e
        for k, level in enumerate(islice(cone.face_walk(), 1, e + 1), 1):
            for face in level:
                if face.gens in faces:
                    continue
                images = [f.image_of(g) for g in face.gens]
                ech = echelon(IntMatrix.from_rows(images, ncols=e))
                if len(ech.cols) != k:
                    continue
                g_f = ech.solve([dot(piece, g) for g in face.gens])
                if g_f is None:
                    raise RuntimeError(f"no linear function on the image of {face}")
                faces[face.gens] = (Cone.hull(e, images), g_f[0], g_f[1] * sf.scale)
    delta, witness = least_value(faces.values())
    oracle = _delta_box_oracle(pair, f, box)
    return DeltaResult(delta, witness, oracle == delta, oracle)


def _delta_box_oracle(pair: ToricPair, f: ToricContraction, box: int) -> Fraction | None:
    """Least lct over the primitive directions w of the target with
    coordinates at most box, each read off the cones over w (_over)."""
    sf = pair.a_function
    cones = list(zip(pair.fan.max_cones, sf.pieces))
    best = None
    for w in product(range(-box, box + 1), repeat=f.target.rank):
        if is_zero_vec(w) or not is_primitive(w):
            continue
        found = _least_ratio(_over(f, w, cones), sf.scale, f, w)
        if found is not None and (best is None or found[0] < best):
            best = found[0]
    return best


def is_fano_contraction(pair: ToricPair, f: ToricContraction) -> bool:
    """Whether the anticanonical divisor is relatively ample: its support
    function bends strictly across every wall that f contracts, and the
    walls f does not contract are not read."""
    if not classify_fan(pair.fan).simplicial:
        raise NotSimplicialError("Fano contraction checks need a simplicial source")
    _on_pair_fan(pair.fan, f.source)
    bends = wall_bends(SupportFunction.for_divisor(InvariantDivisor.anticanonical(pair.fan)))
    return all(bends[i][1] > 0 for i in f.contracted_wall_indices)


def relative_picard_rank_one(pair: ToricPair, f: ToricContraction) -> bool:
    """Whether the curve classes of the walls f contracts span a line."""
    fan = pair.fan
    _on_pair_fan(fan, f.source)
    cls = classify_fan(fan)
    if not cls.simplicial:
        raise NotSimplicialError("Picard rank computations require a simplicial fan")
    if not cls.complete:
        raise ToricError("Picard rank computations require a complete fan")
    rows = [wall_relation_vector(fan, i) for i in f.contracted_wall_indices]
    if not rows:
        return False
    return IntMatrix.from_rows(rows, ncols=len(fan.rays)).rank() == 1


def is_mori_fiber_space(pair: ToricPair, f: ToricContraction) -> bool:
    """Fano contraction with a positive dimension drop and relative
    Picard rank one."""
    if not is_fano_contraction(pair, f):
        return False
    if f.source.rank <= f.target.rank:
        return False
    return relative_picard_rank_one(pair, f)


@dataclass(frozen=True)
class TowerReport:
    entries: tuple[tuple[Vec, Fraction, Fraction], ...]
    consistent: bool


def tower_consistency_check(pair: ToricPair, g: ToricContraction,
                            h: ToricContraction) -> TowerReport:
    """Adjunction in stages versus in one step.

    For the invariant-boundary pair on the source of g, the lc threshold
    over each ray of the final target must agree between the composite
    contraction and the intermediate pair (V, discriminant of g).
    """
    if pair.boundary.generic:
        raise ValueError("the tower check works with invariant boundaries")
    if g.target != h.source:
        raise ValueError("the contractions do not compose")
    composite = validate_contraction(g.source, h.target, h.pi @ g.pi)
    mid_coeffs = [1 - lct_over_direction(pair, g, w).t for w in g.target.rays]
    mid_pair = build_pair(g.target, BoundaryData(tuple(mid_coeffs)),
                          allow_subpair=True)
    entries = []
    for w in h.target.rays:
        t_direct = lct_over_direction(pair, composite, w).t
        t_staged = lct_over_direction(mid_pair, h, w).t
        entries.append((w, t_direct, t_staged))
    return TowerReport(tuple(entries),
                       all(a == b for _, a, b in entries))
