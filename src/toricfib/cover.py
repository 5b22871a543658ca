"""Finite toric covers from finite-index sublattices.

Reading the same fan in a sublattice N' of finite index presents the
original variety as a quotient of the cover by N/N'.  The cover carries
the crepant pullback of any pair (the a-function is unchanged as a
function on the vector space), and for a Mori fiber space whose general
fiber has Picard rank one there is a distinguished bounded cover whose
general fiber is projective space.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import (
    NonPositiveRelationError,
    NotMFSError,
    WrongRayCountError,
)
from .fan import Cone, Fan, classify_fan, fans_isomorphic_under
from .fibration import (
    ToricContraction,
    general_fiber_and_split,
    is_mori_fiber_space,
    validate_contraction,
)
from .lattice import (
    IntMatrix,
    Sublattice,
    kernel_basis,
    primitive_part,
    split_extension,
    vec_scale,
)
from .pair import ToricPair, _crepant_on


@dataclass(frozen=True)
class CoverData:
    sublattice: Sublattice
    degree: int
    cover_fan: Fan
    inclusion: IntMatrix  # columns express the cover basis in the old lattice


def quotient_by_sublattice(fan: Fan, sub: Sublattice) -> CoverData:
    """The cover determined by a finite-index sublattice: same cones, ray
    generators re-primitivized in N', presented in a basis of N'."""
    if sub.ambient_rank != fan.rank:
        raise ValueError("sublattice lives in a different lattice")
    degree = sub.index()
    cones = []
    for c in fan.max_cones:
        gens = []
        for g in c.gens:
            k = sub.lattice_length_of(g)
            gens.append(sub.coordinates_of(vec_scale(k, g)))
        cones.append(Cone.hull(fan.rank, gens))
    cover = Fan.make(fan.rank, cones)
    if len(cover.max_cones) != len(fan.max_cones):
        raise RuntimeError(f"the cover of {fan} merges maximal cones")
    incl = IntMatrix.from_cols(sub.basis, nrows=fan.rank)
    return CoverData(sub, degree, cover, incl)


def crepant_pullback_pair(pair: ToricPair, cover: CoverData) -> ToricPair:
    """Pull a pair back along the cover so the log canonical classes match.

    A cover ray r sits at the point i(r) = k*v of the pair's space, v an
    old ray and k its lattice length, so it gets the coefficient
    1 - a(i(r)) = 1 - k*(1 - b_v); this can be negative, so the result may
    be a sub-pair.  Generic member classes pull back the same way, scaling
    each ray multiplicity by k.
    """
    points = [cover.inclusion.apply(r) for r in cover.cover_fan.rays]
    if any(primitive_part(p)[0] not in pair.fan.ray_index for p in points):
        raise ValueError("cover does not come from the pair's fan")
    return _crepant_on(pair, cover.cover_fan, points)


def fiber_relation_vector(fiber_fan: Fan) -> tuple[int, ...]:
    """The positive primitive relation among the rays of a complete
    simplicial fan with rank+1 rays (Picard rank one)."""
    rays = fiber_fan.rays
    if len(rays) != fiber_fan.rank + 1:
        raise WrongRayCountError(
            f"expected {fiber_fan.rank + 1} rays, found {len(rays)}")
    ker = kernel_basis(IntMatrix.from_cols(rays, nrows=fiber_fan.rank))
    if len(ker) != 1:
        raise NonPositiveRelationError(
            "ray generators do not satisfy a unique relation")
    q = ker[0]
    if all(x < 0 for x in q):
        q = tuple(-x for x in q)
    if any(x <= 0 for x in q):
        raise NonPositiveRelationError(
            f"ray relation {q} is not positive (Picard rank exceeds one)")
    return q


@dataclass(frozen=True)
class CoverReport:
    degree: int
    relation: tuple[int, ...]
    fiber_is_projective_space: bool
    cover_simplicial: bool


def _projective_fan(r: int) -> Fan:
    rays = [tuple(1 if i == j else 0 for j in range(r)) for i in range(r)]
    rays.append(tuple(-1 for _ in range(r)))
    cones = [Cone.hull(r, [rays[i] for i in range(r + 1) if i != drop])
             for drop in range(r + 1)]
    return Fan.make(r, cones)


def pr_cover(f: ToricContraction, pair: ToricPair) -> tuple[CoverData, CoverReport]:
    """The finite cover trivializing the fiber relation of a Mori fiber
    space: the sublattice spanned by q_1 v_1, ..., q_r v_r and a section
    basis of the base, where sum q_i v_i = 0 is the fiber ray relation.
    The cover's general fiber is checked against the projective-space fan
    under e_i -> q_i v_i."""
    if not is_mori_fiber_space(pair, f):
        raise NotMFSError("the distinguished cover needs a Mori fiber space")
    d = f.source.rank
    data = general_fiber_and_split(f)
    q = fiber_relation_vector(data.fiber_fan)
    r = data.fiber_fan.rank
    kernel = IntMatrix.from_cols(data.kernel_basis)
    src_rays = [kernel.apply(ray) for ray in data.fiber_fan.rays]
    gens = [vec_scale(qi, v) for qi, v in zip(q[:r], src_rays[:r])]
    section = split_extension(f.pi)
    gens += [section.col(j) for j in range(section.ncols)]
    cover = quotient_by_sublattice(f.source, Sublattice(d, gens))
    cover_f = validate_contraction(cover.cover_fan, f.target,
                                   f.pi @ cover.inclusion)
    cover_fiber = general_fiber_and_split(cover_f)
    fiber_sub = Sublattice(r + f.target.rank, cover_fiber.kernel_basis)
    psi_cols = []
    for qi, v in zip(q[:r], src_rays[:r]):
        upstairs = cover.sublattice.coordinates_of(vec_scale(qi, v))
        psi_cols.append(fiber_sub.coordinates_of(upstairs))
    psi = IntMatrix.from_cols(psi_cols, nrows=r)
    is_pr = fans_isomorphic_under(psi, _projective_fan(r), cover_fiber.fiber_fan)
    report = CoverReport(cover.degree, q, is_pr,
                         classify_fan(cover.cover_fan).simplicial)
    return cover, report

