"""Invariant divisors on a fan and their piecewise linear support data.

Coefficient vectors are aligned with fan.rays.  The support function of a
divisor takes the value -coefficient at each ray; a divisor is Q-Cartier
when a linear piece exists on every maximal cone, and nef when the pieces
bend the right way across every wall.  The pieces are integer covectors
over one common denominator, and a Fraction is built only for a value
handed out; coefficients and their class arithmetic stay in Fraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NotInSupportError, NotQCartierError
from .fan import Cone, Fan
from .lattice import IntMatrix, Vec, dot, echelon, vec_scale

Coeffs = tuple[Fraction, ...]


def _as_fraction_tuple(values) -> Coeffs:
    return tuple(Fraction(x) for x in values)


@dataclass(frozen=True)
class InvariantDivisor:
    fan: Fan
    coeffs: Coeffs

    @staticmethod
    def make(fan: Fan, values) -> InvariantDivisor:
        coeffs = _as_fraction_tuple(values)
        if len(coeffs) != len(fan.rays):
            raise ValueError("one coefficient per ray is required")
        return InvariantDivisor(fan, coeffs)

    @staticmethod
    def from_ray_map(fan: Fan, mapping) -> InvariantDivisor:
        """Divisor with the given coefficients at the named rays, zero elsewhere."""
        mapping = {tuple(k): Fraction(v) for k, v in dict(mapping).items()}
        unknown = set(mapping) - set(fan.rays)
        if unknown:
            raise ValueError(f"not rays of the fan: {sorted(unknown)}")
        return InvariantDivisor(
            fan, tuple(mapping.get(r, Fraction(0)) for r in fan.rays))

    @staticmethod
    def canonical(fan: Fan) -> InvariantDivisor:
        return InvariantDivisor(fan, tuple(Fraction(-1) for _ in fan.rays))

    @staticmethod
    def anticanonical(fan: Fan) -> InvariantDivisor:
        return InvariantDivisor(fan, tuple(Fraction(1) for _ in fan.rays))

    def coeff_at(self, ray) -> Fraction:
        return self.coeffs[self.fan.ray_index[tuple(ray)]]

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def scale(self, r) -> InvariantDivisor:
        r = Fraction(r)
        return InvariantDivisor(self.fan, tuple(r * c for c in self.coeffs))

    def __add__(self, other: InvariantDivisor) -> InvariantDivisor:
        if self.fan != other.fan:
            raise ValueError("divisors live on different fans")
        return InvariantDivisor(
            self.fan, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: InvariantDivisor) -> InvariantDivisor:
        return self + other.scale(-1)

    def __repr__(self):
        return f"InvariantDivisor({dict(zip(self.fan.rays, self.coeffs))})"


@dataclass(frozen=True)
class SupportFunction:
    """Piecewise linear function on the fan support, one covector per
    maximal cone: the pieces are integer covectors over scale, their least
    positive common denominator.  On cones of less than full dimension,
    only a piece's restriction to the cone span is meaningful."""

    fan: Fan
    scale: int
    pieces: tuple[Vec, ...]

    @staticmethod
    def for_values(fan: Fan, ray_values) -> SupportFunction:
        """Piecewise linear extension of prescribed values at the rays;
        raises NotQCartierError when some cone admits no linear piece.
        Each piece comes from the cone's cached integer solve."""
        vals = _as_fraction_tuple(ray_values)
        if len(vals) != len(fan.rays):
            raise ValueError("one value per ray is required")
        at_ray = dict(zip(fan.rays, vals))
        sols = []
        for cone in fan.max_cones:
            sol = cone.solve([at_ray[g] for g in cone.gens])
            if sol is None:
                raise NotQCartierError(
                    f"no linear piece matches the ray values on {cone}")
            sols.append(sol)
        scale = math.lcm(*(d for _, d in sols))
        return SupportFunction(fan, scale, tuple(vec_scale(scale // d, y) for y, d in sols))

    @staticmethod
    def for_divisor(div: InvariantDivisor) -> SupportFunction:
        return SupportFunction.for_values(div.fan, [-c for c in div.coeffs])

    def value(self, v) -> Fraction:
        for cone, piece in zip(self.fan.max_cones, self.pieces):
            if cone.contains(v):
                return Fraction(sum(x * y for x, y in zip(piece, v)), self.scale)
        raise NotInSupportError(f"{tuple(v)} is outside the fan support")


def cartier_index(sf: SupportFunction) -> int:
    """Smallest k >= 1 such that k times the function is integer-valued on
    the lattice points of every cone span: scale over the gcd of scale and
    the integer pieces' values on the span bases."""
    L = sf.scale
    return L // math.gcd(L, *(dot(piece, b) for cone, piece in zip(sf.fan.max_cones, sf.pieces)
                              for b in cone.span))


def is_cartier(div: InvariantDivisor) -> bool:
    return div.is_integral() and cartier_index(SupportFunction.for_divisor(div)) == 1


def wall_bends(sf: SupportFunction) -> list[tuple[Cone, int]]:
    """Convexity defect across each wall: nonnegative everywhere means the
    function is the support function of a relatively nef divisor class.
    Each is an integer over the positive scale of the integer pieces, so
    it has the sign of the defect."""
    out = []
    for wall, i, j in sf.fan.walls:
        other = next(g for g in sf.fan.max_cones[j].gens if g not in wall.gens)
        out.append((wall, dot(sf.pieces[i], other) - dot(sf.pieces[j], other)))
    return out


def is_nef(div: InvariantDivisor) -> bool:
    """Convexity of the support function across every wall.  For complete
    fans this is nefness of the divisor."""
    return all(b >= 0 for _, b in wall_bends(SupportFunction.for_divisor(div)))


def is_ample(div: InvariantDivisor) -> bool:
    """Strict convexity across every wall, and at least one wall off rank
    0; ampleness on a complete fan.  Every divisor on the point is ample."""
    bends = wall_bends(SupportFunction.for_divisor(div))
    return (bool(bends) or div.fan.rank == 0) and all(b > 0 for _, b in bends)


def ray_matrix(fan: Fan) -> IntMatrix:
    """Rows are the rays; principal divisors are exactly its column span."""
    return IntMatrix.from_rows(list(fan.rays), ncols=fan.rank)


def is_principal_class(fan: Fan, coeffs) -> bool:
    vec = _as_fraction_tuple(coeffs)
    return echelon(ray_matrix(fan)).solve(vec) is not None


def class_reduce(fan: Fan, coeffs) -> Coeffs:
    """Canonical representative of a coefficient vector modulo principal
    divisors: the entries at the pivot rays, the leftmost rays whose
    entries determine a principal divisor, are cleared to zero by
    subtracting the principal divisor that agrees with the vector there.

    With R the ray matrix and adj B = det I on its block B at the pivot
    rays and independent coordinates of the echelon of R^T, that divisor
    is m(v) = mu . v_rows at each ray v, with mu = adj^T vec_pivots / det.
    """
    vec = _as_fraction_tuple(coeffs)
    if len(vec) != len(fan.rays):
        raise ValueError("one coefficient per ray is required")
    ech = echelon(ray_matrix(fan).transpose())
    mu = [sum(a * vec[c] for a, c in zip(col, ech.cols)) / ech.det
          for col in zip(*ech.adj)]
    return tuple(x - sum(m * r[i] for m, i in zip(mu, ech.rows))
                 for x, r in zip(vec, fan.rays))


def classes_equal(fan: Fan, coeffs_a, coeffs_b) -> bool:
    return class_reduce(fan, coeffs_a) == class_reduce(fan, coeffs_b)
