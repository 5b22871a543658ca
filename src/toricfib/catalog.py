"""Built-in fixtures and generated instance families.

Boundaries are synthesized as (1/m) times a general member of -mK with m
the smallest Cartier multiple of the anticanonical class, floored at 2 so
the generic coefficient stays below one.  The pair class vector then
vanishes, which makes K + B relatively trivial over every contraction of
the fan.  Fans whose anticanonical class is not nef have no base-point-
free certificate and fall back to the reduced invariant boundary.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .cover import quotient_by_sublattice
from .divisors import InvariantDivisor, SupportFunction, cartier_index, is_nef
from .errors import UnknownFamilyError
from .fan import Cone, Fan, product_fan, star_subdivide
from .fibration import ToricContraction, validate_contraction
from .lattice import IntMatrix, Sublattice, gcd_of, primitive_part, snf_decompose
from .pair import BoundaryData, GenericMember, ToricPair, build_pair
from .serialize import Instance, instance_to_doc


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
    if gcd_of([a, b, m]) != 1:
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
    if not is_nef(anti):
        return BoundaryData.full(fan)
    m = max(cartier_index(SupportFunction.for_divisor(anti)), 2)
    member = GenericMember(Fraction(1, m), anti.scale(m))
    return BoundaryData(tuple(Fraction(0) for _ in fan.rays), (member,))


def ladder_boundary(fan: Fan, k: int) -> BoundaryData:
    """Weight 1/k on a general member of -kK, the multiple matching the
    fibration multiplicity of the ladder fans."""
    member = GenericMember(
        Fraction(1, k), InvariantDivisor.anticanonical(fan).scale(k))
    return BoundaryData(tuple(Fraction(0) for _ in fan.rays), (member,))


@dataclass(frozen=True)
class Fixture:
    name: str
    fan: Fan
    pair: ToricPair
    contraction: ToricContraction

    def instance(self) -> Instance:
        return Instance(self.pair, self.contraction, self.name)

    def document(self) -> dict:
        return instance_to_doc(self.instance())


def _instance(name, fan, target, pi, boundary=None) -> Instance:
    f = validate_contraction(fan, target, pi)
    if boundary is None:
        boundary = synthesize_boundary(fan)
    return Instance(build_pair(fan, boundary), f, name)


# name -> builder of (fan, target, map, boundary); the target and map
# default to the point, the boundary to synthesize_boundary(fan).
_FIXTURES = {
    "p1": lambda: (fan_p1(),),
    "p2": lambda: (fan_p2(),),
    "p112": lambda: (fan_p112(),),
    "qc3": lambda: (fan_quadric_cone(),),
    "f2": lambda: (fan_hirzebruch(2), fan_p1(), x_proj()),
    **{f"x{k}": (lambda k=k: (fan_ladder(k), fan_p1(), x_proj(),
                              ladder_boundary(fan_ladder(k), k)))
       for k in (2, 3, 4, 5)},
    "p2xp1": lambda: (product_fan(fan_p2(), fan_p1()), fan_p1(),
                      last_coordinate_proj(3)),
    "p112xp1": lambda: (product_fan(fan_p112(), fan_p1()), fan_p1(),
                        last_coordinate_proj(3)),
    "x2xp1": lambda: (product_fan(fan_ladder(2), fan_p1()), fan_p1(),
                      last_coordinate_proj(3)),
    "x2xp1_to_x2": lambda: (product_fan(fan_ladder(2), fan_p1()), fan_ladder(2),
                            IntMatrix.from_rows([[1, 0, 0], [0, 1, 0]])),
    "x2xp1_to_p1xp1": lambda: (product_fan(fan_ladder(2), fan_p1()),
                               product_fan(fan_p1(), fan_p1()),
                               IntMatrix.from_rows([[1, 0, 0], [0, 0, 1]])),
    "twisted3": lambda: (fan_twisted("p2", 3, 1, 2), fan_p1(),
                         last_coordinate_proj(3)),
    "x2xx2": lambda: (product_fan(fan_ladder(2), fan_ladder(2)),
                      product_fan(fan_p1(), fan_p1()),
                      IntMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0]])),
}


def builtin_fixtures() -> list[Fixture]:
    return [fixture(name) for name in _FIXTURES]


def fixture(name: str) -> Fixture:
    """Build the named fixture alone."""
    if name not in _FIXTURES:
        raise UnknownFamilyError(f"unknown fixture {name!r}")
    return _make_fixture(name, *_FIXTURES[name]())


def _make_fixture(name, fan, target=None, pi=None, boundary=None) -> Fixture:
    if target is None:
        target, pi = fan_point(), point_map(fan.rank)
    inst = _instance(name, fan, target, pi, boundary)
    return Fixture(name, fan, inst.pair, inst.contraction)


FAMILY_NAMES = ("ladder", "wps", "hirzebruch", "products", "subdivisions",
                "quotients", "twisted")

_WPS_TRIPLES = ((1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 3), (1, 2, 5),
                (2, 3, 5))

_TWISTED = (
    ("p2", 2, 1, 1), ("p2", 3, 1, 2), ("p2", 3, 2, 1), ("p2", 4, 1, 3),
    ("p2", 5, 1, 2), ("p2", 6, 1, 5), ("p2", 7, 1, 2),
    ("p112", 2, 1, 1), ("p112", 3, 1, 1), ("p112", 4, 1, 1),
    ("p112", 5, 2, 1), ("p112", 6, 1, 3), ("p112", 7, 2, 1),
)


def generate_family(spec: str) -> list[Instance]:
    """Instances of a named family; every instance validates on build."""
    if spec == "ladder":
        return [_instance(f"ladder_k{k}", fan_ladder(k), fan_p1(), x_proj(),
                          ladder_boundary(fan_ladder(k), k))
                for k in range(2, 13)]
    if spec == "wps":
        return [_instance("wps_%d_%d_%d" % t, weighted_plane_fan(*t),
                          fan_point(), point_map(2))
                for t in _WPS_TRIPLES]
    if spec == "hirzebruch":
        return [_instance(f"hirzebruch_{k}", fan_hirzebruch(k), fan_p1(),
                          x_proj())
                for k in range(4)]
    if spec == "products":
        planes = [("p2", fan_p2()), ("p112", fan_p112()),
                  ("x2", fan_ladder(2)), ("f2", fan_hirzebruch(2))]
        out = [_instance(f"{n}xp1", product_fan(f, fan_p1()), fan_p1(),
                         last_coordinate_proj(3))
               for n, f in planes]
        out.append(_instance(
            "x2xx2", product_fan(fan_ladder(2), fan_ladder(2)),
            product_fan(fan_p1(), fan_p1()),
            IntMatrix.from_rows([[1, 0, 0, 0], [0, 0, 1, 0]])))
        return out
    if spec == "subdivisions":
        jobs = [("subdiv_p2_1_1", fan_p2(), (1, 1), None, None),
                ("subdiv_p2_1_2", fan_p2(), (1, 2), None, None),
                ("subdiv_x2_1_1", fan_ladder(2), (1, 1), fan_p1(), x_proj())]
        out = []
        for name, fan, u, target, pi in jobs:
            refined = star_subdivide(fan, u)
            if target is None:
                target, pi = fan_point(), point_map(refined.rank)
            out.append(_instance(name, refined, target, pi))
        return out
    if spec == "quotients":
        jobs = [("quot_fake_p2", fan_p2(), [(1, 2), (0, 3)], None, None),
                ("quot_x2_index2", fan_ladder(2), [(1, 0), (0, 2)],
                 fan_p1(), x_proj()),
                ("quot_p112_index2", fan_p112(), [(1, 1), (0, 2)], None, None)]
        out = []
        for name, fan, gens, target, pi in jobs:
            cover = quotient_by_sublattice(fan, Sublattice(fan.rank, gens))
            if target is None:
                target, pi_new = fan_point(), point_map(fan.rank)
            else:
                pi_new = pi @ cover.inclusion
            out.append(_instance(name, cover.cover_fan, target, pi_new))
        return out
    if spec == "twisted":
        return [_instance("twisted_%s_%d_%d_%d" % t, fan_twisted(*t),
                          fan_p1(), last_coordinate_proj(3))
                for t in _TWISTED]
    raise UnknownFamilyError(f"unknown family {spec!r}")


def contraction_suite() -> list[Instance]:
    """Fixture and family instances in dimensions two to four, one per
    name.  The experiment harness and the verification suite iterate
    over this list."""
    out = []
    seen = set()

    def push(inst):
        if inst.name not in seen:
            seen.add(inst.name)
            out.append(inst)

    for fx in builtin_fixtures():
        if fx.fan.rank >= 2:
            push(fx.instance())
    for fam in FAMILY_NAMES:
        for inst in generate_family(fam):
            push(inst)
    return out
