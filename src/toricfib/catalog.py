"""Built-in fixtures and generated instance families.

Every named instance, fixture or family member, comes from one table of
builders and is built once per process; the public functions return
fresh lists of the shared, immutable instances.

Boundaries are synthesized as (1/m) times a general member of -mK with m
the smallest Cartier multiple of the anticanonical class, floored at 2 so
the generic coefficient stays below one.  The pair class vector then
vanishes, which makes K + B relatively trivial over every contraction of
the fan.  Fans whose anticanonical class is not nef have no base-point-
free certificate and fall back to the reduced invariant boundary.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, partial

from .cover import quotient_by_sublattice
from .divisors import InvariantDivisor, SupportFunction, cartier_index, wall_bends
from .errors import UnknownFamilyError
from .fan import Cone, Fan, product_fan, star_subdivide
from .fibration import validate_contraction
from .lattice import IntMatrix, Sublattice, is_primitive, primitive_part, snf_decompose
from .pair import BoundaryData, GenericMember, build_pair
from .serialize import Instance


def fan_point() -> Fan:
    return Fan.make(0, [Cone.zero(0)])


def fan_p1() -> Fan:
    return Fan.from_rays_and_cones(1, [(1,), (-1,)], [(0,), (1,)])


def fan_p2() -> Fan:
    return Fan.from_rays_and_cones(
        2, [(1, 0), (0, 1), (-1, -1)], [(0, 1), (1, 2), (2, 0)])


def fan_p112() -> Fan:
    return Fan.from_rays_and_cones(
        2, [(1, 0), (0, 1), (-1, -2)], [(0, 1), (1, 2), (2, 0)])


def fan_hirzebruch(k: int) -> Fan:
    """Rays (1,0),(0,1),(-1,k),(0,-1); k = 2 is the F2 fixture."""
    return Fan.from_rays_and_cones(
        2, [(1, 0), (0, 1), (-1, k), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)])


def fan_ladder(k: int) -> Fan:
    """Rays (k,1),(0,1),(-1,0),(0,-1); the x-projection is a fibration
    with multiplicity k over the positive direction."""
    return Fan.from_rays_and_cones(
        2, [(k, 1), (0, 1), (-1, 0), (0, -1)],
        [(0, 1), (1, 2), (2, 3), (3, 0)])


def fan_quadric_cone() -> Fan:
    """Cone over a quadric: a single non-simplicial maximal cone."""
    return Fan.from_rays_and_cones(
        3, [(0, 0, 1), (1, 0, 1), (0, 1, 1), (1, 1, 1)], [(0, 1, 2, 3)])


def weighted_plane_fan(a: int, b: int, c: int) -> Fan:
    """Complete rank-two fan whose rays satisfy a*v0 + b*v1 + c*v2 = 0.

    A unimodular map sends the weight vector to a coordinate direction;
    the rays are the images of the standard basis in the complement.
    """
    u, d, _ = snf_decompose(IntMatrix.from_cols([(a, b, c)]))
    if d.rows[0][0] != 1:
        raise ValueError("weights must be coprime")
    rays = [primitive_part((u.rows[1][i], u.rows[2][i]))[0] for i in range(3)]
    return Fan.from_rays_and_cones(2, rays, [(0, 1), (1, 2), (2, 0)])


_FIBER_PLANES = {"p2": fan_p2, "p112": fan_p112}


def fan_twisted(fiber: str, m: int, a: int, b: int) -> Fan:
    """Rank-three fan fibered over the line: the cones of a complete
    plane fan lifted once through the apex (a,b,m) and once through
    (0,0,-1).  The last-coordinate projection has multiplicity m over
    the positive direction and 1 over the negative one."""
    if not is_primitive((a, b, m)):
        raise ValueError("the apex (a,b,m) must be primitive")
    plane = _FIBER_PLANES[fiber]()
    rays = [r + (0,) for r in plane.rays] + [(a, b, m), (0, 0, -1)]
    up, down = len(rays) - 2, len(rays) - 1
    cones = []
    for c in plane.max_cones:
        base = tuple(rays.index(g + (0,)) for g in c.gens)
        cones.append(base + (up,))
        cones.append(base + (down,))
    return Fan.from_rays_and_cones(3, rays, cones)


def point_map(rank: int) -> IntMatrix:
    return IntMatrix(0, rank, ())


def x_proj() -> IntMatrix:
    return IntMatrix.from_rows([[1, 0]])


def last_coordinate_proj(rank: int) -> IntMatrix:
    return IntMatrix.from_rows([[0] * (rank - 1) + [1]])


def synthesize_boundary(fan: Fan) -> BoundaryData:
    """General-member boundary making the pair class vector vanish."""
    anti = InvariantDivisor.anticanonical(fan)
    sf = SupportFunction.for_divisor(anti)
    if any(bend < 0 for _, bend in wall_bends(sf)):
        return BoundaryData.full(fan)
    m = max(cartier_index(sf), 2)
    member = GenericMember(Fraction(1, m), anti.scale(m))
    return BoundaryData(tuple(Fraction(0) for _ in fan.rays), (member,))


def ladder_boundary(fan: Fan, k: int) -> BoundaryData:
    """Weight 1/k on a general member of -kK, the multiple matching the
    fibration multiplicity of the ladder fans."""
    member = GenericMember(
        Fraction(1, k), InvariantDivisor.anticanonical(fan).scale(k))
    return BoundaryData(tuple(Fraction(0) for _ in fan.rays), (member,))


def _ladder(k: int) -> tuple:
    fan = fan_ladder(k)
    return fan, fan_p1(), x_proj(), ladder_boundary(fan, k)


def _over_p1(fan: Fan) -> tuple:
    """A rank-three fan over the line by its last coordinate."""
    return fan, fan_p1(), last_coordinate_proj(3)


def _quotient(fan: Fan, gens, *base) -> tuple:
    """The quotient of fan by the sublattice gens span, over the point or
    over the (target, map) base of fan composed with the cover."""
    cover = quotient_by_sublattice(fan, Sublattice(fan.rank, gens))
    if not base:
        return (cover.cover_fan,)
    target, pi = base
    return cover.cover_fan, target, pi @ cover.inclusion


_WPS_TRIPLES = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 2, 5),
                (2, 3, 5))

_TWISTED = (
    ("p2", 2, 1, 1), ("p2", 3, 1, 2), ("p2", 3, 2, 1), ("p2", 4, 1, 3),
    ("p2", 5, 1, 2), ("p2", 6, 1, 5), ("p2", 7, 1, 2),
    ("p112", 2, 1, 1), ("p112", 3, 1, 1), ("p112", 4, 1, 1),
    ("p112", 5, 2, 1), ("p112", 6, 1, 3), ("p112", 7, 2, 1),
)

# name -> builder of (fan, target, map, boundary); the target and map
# default to the point, the boundary to synthesize_boundary(fan).
_FIXTURES = {
    "p1": lambda: (fan_p1(),),
    "p2": lambda: (fan_p2(),),
    "p112": lambda: (fan_p112(),),
    "qc3": lambda: (fan_quadric_cone(),),
    "f2": lambda: (fan_hirzebruch(2), fan_p1(), x_proj()),
    **{f"x{k}": partial(_ladder, k) for k in (2, 3, 4, 5)},
    "p2xp1": lambda: _over_p1(product_fan(fan_p2(), fan_p1())),
    "p112xp1": lambda: _over_p1(product_fan(fan_p112(), fan_p1())),
    "x2xp1": lambda: _over_p1(product_fan(fan_ladder(2), fan_p1())),
    "x2xp1_to_x2": lambda: (product_fan(fan_ladder(2), fan_p1()), fan_ladder(2),
                            IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])),
    "x2xp1_to_p1xp1": lambda: (product_fan(fan_ladder(2), fan_p1()),
                               product_fan(fan_p1(), fan_p1()),
                               IntMatrix.from_rows([[1, 0, 0], [0, 0, 1]])),
    "twisted3": lambda: _over_p1(fan_twisted("p2", 3, 1, 2)),
    "x2xx2": lambda: (product_fan(fan_ladder(2), fan_ladder(2)),
                      product_fan(fan_p1(), fan_p1()),
                      IntMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0]])),
}
_LADDERS = {f"ladder_k{k}": partial(_ladder, k) for k in range(2, 13)}
_WPS = {"wps_%d_%d_%d" % t: (lambda t=t: (weighted_plane_fan(*t),))
        for t in _WPS_TRIPLES}
_HIRZEBRUCH = {f"hirzebruch_{k}": (lambda k=k: (fan_hirzebruch(k), fan_p1(), x_proj()))
               for k in range(4)}
_SUBDIVISIONS = {
    "subdiv_p2_1_1": lambda: (star_subdivide(fan_p2(), (1, 1)),),
    "subdiv_p2_1_2": lambda: (star_subdivide(fan_p2(), (1, 2)),),
    "subdiv_x2_1_1": lambda: (star_subdivide(fan_ladder(2), (1, 1)), fan_p1(),
                              x_proj()),
}
_QUOTIENTS = {
    "quot_fake_p2": lambda: _quotient(fan_p2(), [(1, 2), (0, 3)]),
    "quot_x2_index2": lambda: _quotient(fan_ladder(2), [(1, 0), (0, 2)],
                                        fan_p1(), x_proj()),
    "quot_p112_index2": lambda: _quotient(fan_p112(), [(1, 1), (0, 2)]),
}
_TWISTS = {"twisted_%s_%d_%d_%d" % t: (lambda t=t: _over_p1(fan_twisted(*t)))
           for t in _TWISTED}

# The one name table: all 57 named instances.
_BUILDERS = {
    **_FIXTURES, **_LADDERS, **_WPS, **_HIRZEBRUCH,
    "f2xp1": lambda: _over_p1(product_fan(fan_hirzebruch(2), fan_p1())),
    **_SUBDIVISIONS, **_QUOTIENTS, **_TWISTS,
}

# family -> its names, in report order; the fixtures count as a family here
# but not in FAMILY_NAMES, which the experiments range over.
_FAMILIES = {
    "fixtures": tuple(_FIXTURES),
    "ladder": tuple(_LADDERS),
    "wps": tuple(_WPS),
    "hirzebruch": tuple(_HIRZEBRUCH),
    "products": ("p2xp1", "p112xp1", "x2xp1", "f2xp1", "x2xx2"),
    "subdivisions": tuple(_SUBDIVISIONS),
    "quotients": tuple(_QUOTIENTS),
    "twisted": tuple(_TWISTS),
}

FIXTURE_NAMES = _FAMILIES["fixtures"]
FAMILY_NAMES = tuple(spec for spec in _FAMILIES if spec != "fixtures")


@cache
def _build(name: str) -> Instance:
    """The named instance, built and validated once per process."""
    def assemble(fan, target=None, pi=None, boundary=None):
        if target is None:
            target, pi = fan_point(), point_map(fan.rank)
        f = validate_contraction(fan, target, pi)
        if boundary is None:
            boundary = synthesize_boundary(fan)
        return Instance(build_pair(fan, boundary), f, name)
    return assemble(*_BUILDERS[name]())


def fixture(name: str) -> Instance:
    """The named fixture."""
    if name not in FIXTURE_NAMES:
        raise UnknownFamilyError(f"unknown fixture {name!r}")
    return _build(name)


def builtin_fixtures() -> list[Instance]:
    return generate_family("fixtures")


def generate_family(spec: str) -> list[Instance]:
    """Instances of a named family, or the fixtures for "fixtures"; every
    instance validates on build."""
    if spec not in _FAMILIES:
        raise UnknownFamilyError(f"unknown family {spec!r}")
    return [_build(name) for name in _FAMILIES[spec]]


def contraction_suite() -> list[Instance]:
    """Fixture and family instances in dimensions two to four, one per
    name.  The experiment harness and the verification suite iterate
    over this list."""
    names = dict.fromkeys(name for names in _FAMILIES.values() for name in names)
    return [inst for inst in map(_build, names) if inst.pair.fan.rank >= 2]
