"""Log pairs on toric fans.

A pair is a fan together with boundary data: rational coefficients on the
invariant prime divisors plus "generic members", formal general members of
base-point-free classes carrying a coefficient.  The log-discrepancy
function of the pair is the piecewise linear function with value
1 - coefficient at each ray; generic members never contribute along
invariant valuations (their base loci are empty), entering only through
the bookkeeping minimum 1 - b and through divisor-class arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property

from .divisors import (
    Coeffs,
    InvariantDivisor,
    SupportFunction,
    cartier_index,
    is_principal_class,
    wall_bends,
)
from .errors import (
    AlphaOutOfRangeError,
    CoefficientOutOfRangeError,
    NotSimplicialError,
    ToricError,
)
from .fan import Fan, least_value
from .lattice import IntMatrix, Vec, dot, kernel_basis


@dataclass(frozen=True)
class GenericMember:
    """General member of a base-point-free class, with weight coeff."""

    coeff: Fraction
    rep: InvariantDivisor


@dataclass(frozen=True)
class BoundaryData:
    ray_coeffs: Coeffs
    generic: tuple[GenericMember, ...] = ()

    @staticmethod
    def zero(fan: Fan) -> BoundaryData:
        return BoundaryData(tuple(Fraction(0) for _ in fan.rays))

    @staticmethod
    def full(fan: Fan) -> BoundaryData:
        """The reduced invariant boundary: coefficient one at every ray."""
        return BoundaryData(tuple(Fraction(1) for _ in fan.rays))


@dataclass(frozen=True)
class ToricPair:
    fan: Fan
    boundary: BoundaryData
    is_subpair: bool

    @cached_property
    def a_function(self) -> SupportFunction:
        """Log discrepancy as a piecewise linear function: 1 - coeff at rays."""
        return SupportFunction.for_values(
            self.fan, [1 - c for c in self.boundary.ray_coeffs])

    def pair_class_vector(self) -> Coeffs:
        """Ray-coefficient class vector of (canonical divisor + boundary)."""
        vec = [c - 1 for c in self.boundary.ray_coeffs]
        for gm in self.boundary.generic:
            vec = [x + gm.coeff * m for x, m in zip(vec, gm.rep.coeffs)]
        return tuple(vec)

    def is_log_calabi_yau(self) -> bool:
        return is_principal_class(self.fan, self.pair_class_vector())


def _on_pair_fan(fan: Fan, other: Fan) -> None:
    """Refuses a divisor or contraction on another fan than the pair's."""
    if other != fan:
        raise ValueError("divisor or contraction lives on another fan than the pair's")


def build_pair(fan: Fan, boundary: BoundaryData, allow_subpair: bool = False) -> ToricPair:
    """Validate boundary data against the fan and assemble the pair.

    Coefficients must stay <= 1 so the log discrepancy is nonnegative at
    the rays; negative coefficients are accepted only with allow_subpair.
    Each generic member must carry weight in [0,1] and an integral Cartier
    nef representative (the base-point-freeness certificate); both
    certificates are read off one support function of the representative.
    """
    coeffs = tuple(Fraction(c) for c in boundary.ray_coeffs)
    if len(coeffs) != len(fan.rays):
        raise ValueError("one boundary coefficient per ray is required")
    for ray, c in zip(fan.rays, coeffs):
        if c > 1:
            raise CoefficientOutOfRangeError(
                f"coefficient {c} at ray {ray} exceeds 1")
        if c < 0 and not allow_subpair:
            raise CoefficientOutOfRangeError(
                f"negative coefficient {c} at ray {ray} (pass allow_subpair to accept)")
    generic = []
    for gm in boundary.generic:
        b = Fraction(gm.coeff)
        if not 0 <= b <= 1:
            raise CoefficientOutOfRangeError(
                f"generic member weight {b} is outside [0,1]")
        _on_pair_fan(fan, gm.rep.fan)
        sf = SupportFunction.for_divisor(gm.rep) if gm.rep.is_integral() else None
        if sf is None or cartier_index(sf) != 1:
            raise ToricError(
                "generic member class must be an integral Cartier divisor")
        if any(bend < 0 for _, bend in wall_bends(sf)):
            raise ToricError("generic member class must be nef")
        generic.append(GenericMember(b, gm.rep))
    data = BoundaryData(coeffs, tuple(generic))
    pair = ToricPair(fan, data, is_subpair=any(c < 0 for c in coeffs))
    pair.a_function  # force the Q-Cartier check now
    return pair


def log_discrepancy_at(pair: ToricPair, u) -> Fraction:
    """Value of the a-function at a lattice point of the support."""
    return pair.a_function.value(u)


@dataclass(frozen=True)
class MldResult:
    mld_toric: Fraction
    eps_lc: bool
    witness: Vec
    generic_floor: Fraction | None


def mld_and_eps_check(pair: ToricPair, eps) -> MldResult:
    """Minimal log discrepancy over invariant valuations, with an eps-lc
    verdict that also honors the 1 - b floor of each generic member.

    The toric minimum is fan.least_value of the integer pieces of a over
    their cones, each over the function's scale.
    """
    eps = Fraction(eps)
    fan = pair.fan
    if not fan.rays:
        raise ToricError("the minimum needs at least one ray")
    sf = pair.a_function
    best, witness = least_value(
        (cone, piece, sf.scale) for cone, piece in zip(fan.max_cones, sf.pieces))
    floor = min((1 - gm.coeff for gm in pair.boundary.generic), default=None)
    overall = best if floor is None else min(best, floor)
    return MldResult(best, overall >= eps, witness, floor)


def has_terminal_singularities(fan: Fan) -> bool:
    """No exceptional invariant valuation with log discrepancy <= 1: the
    only nonzero lattice points u of the support with a_X(u) <= 1 are the
    rays themselves.  With a_X = 1 at every ray, a point breaking this
    exists exactly when some Hilbert basis element off the rays has
    a_X <= 1, and those elements are among the parallelepiped points of
    Cone.hilbert_candidates.  With a_X = P / L over the integer pieces P
    and their scale L, a_X(u) > 1 reads P.u > L."""
    sf = SupportFunction.for_values(fan, [1] * len(fan.rays))
    return all(dot(piece, pt) > sf.scale
               for cone, piece in zip(fan.max_cones, sf.pieces)
               for pt in cone.hilbert_candidates if pt not in cone.gens)


def wall_relation_vector(fan: Fan, wall_index: int) -> Vec:
    """The curve class of a wall of a simplicial fan, as the coefficient
    vector of the integer relation among the rays of its two adjacent
    maximal cones, normalized positive on the two off-wall rays."""
    wall, i, j = fan.walls[wall_index]
    involved = sorted(set(fan.max_cones[i].gens) | set(fan.max_cones[j].gens))
    ker = kernel_basis(IntMatrix.from_cols(involved, nrows=fan.rank))
    if len(ker) != 1:
        raise NotSimplicialError(
            "wall relation requires simplicial adjacent cones")
    rel = ker[0]
    off = [k for k, g in enumerate(involved) if g not in wall.gens]
    if any(rel[k] == 0 for k in off):
        raise NotSimplicialError("degenerate wall relation")
    if rel[off[0]] < 0:
        rel = tuple(-x for x in rel)
    out = [0] * len(fan.rays)
    for g, c in zip(involved, rel):
        out[fan.ray_index[g]] += c
    return tuple(out)


def average_boundary(boundary: BoundaryData, delta_fan: Fan, alpha) -> BoundaryData:
    """Weighted average with the reduced invariant boundary:
    alpha * boundary + (1 - alpha) * (full boundary); generic weights are
    scaled by alpha and vanishing members dropped."""
    alpha = Fraction(alpha)
    if not 0 <= alpha <= 1:
        raise AlphaOutOfRangeError(f"averaging weight {alpha} is outside [0,1]")
    if len(boundary.ray_coeffs) != len(delta_fan.rays):
        raise ValueError("boundary does not match the fan")
    coeffs = tuple(alpha * c + (1 - alpha) for c in boundary.ray_coeffs)
    generic = tuple(replace(gm, coeff=alpha * gm.coeff)
                    for gm in boundary.generic if alpha * gm.coeff > 0)
    return BoundaryData(coeffs, generic)


def _crepant_on(pair: ToricPair, fan: Fan, points) -> ToricPair:
    """The pair read on a fan whose rays sit at the given points of the
    pair's space: coefficient 1 - a(p) and generic class -phi_D(p) at each,
    so the a-function and the classes are unchanged as functions there."""
    coeffs = tuple(1 - pair.a_function.value(p) for p in points)
    sf_reps = [SupportFunction.for_divisor(gm.rep) for gm in pair.boundary.generic]
    generic = tuple(
        GenericMember(gm.coeff, InvariantDivisor.make(fan, [-sf.value(p) for p in points]))
        for gm, sf in zip(pair.boundary.generic, sf_reps))
    return build_pair(fan, BoundaryData(coeffs, generic), allow_subpair=True)


def crepant_transfer(pair: ToricPair, refined: Fan) -> ToricPair:
    """The same pair on a refinement of its fan: new ray coefficients are
    1 - a(ray), so the a-function is unchanged as a function on the space."""
    return _crepant_on(pair, refined, refined.rays)
