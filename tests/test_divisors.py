"""Divisors, support functions, Cartier indices, class arithmetic."""

from fractions import Fraction

import pytest

from toricfib.catalog import fan_hirzebruch, fan_p1, fan_p2, fan_p112, fan_quadric_cone
from toricfib.divisors import (
    InvariantDivisor,
    SupportFunction,
    cartier_index,
    class_reduce,
    classes_equal,
    is_ample,
    is_cartier,
    is_nef,
    is_principal_class,
    wall_bends,
)
from toricfib.errors import NotInSupportError, NotQCartierError
from toricfib.fan import Fan


class TestSupportFunction:
    def test_anticanonical_on_P2(self):
        f = fan_p2()
        sf = SupportFunction.for_divisor(InvariantDivisor.anticanonical(f))
        for r in f.rays:
            assert sf.value(r) == -1
        # linear on each cone: midpoint of two rays of one cone
        assert sf.value((1, 1)) == -2

    def test_value_outside_support_raises(self):
        f = Fan.from_rays_and_cones(2, [(1, 0), (0, 1)], [(0, 1)])
        sf = SupportFunction.for_divisor(InvariantDivisor.anticanonical(f))
        with pytest.raises(NotInSupportError):
            sf.value((-1, 0))

    def test_non_q_cartier_detected(self):
        f = fan_quadric_cone()
        d = InvariantDivisor.from_ray_map(f, {(0, 0, 1): 1})
        with pytest.raises(NotQCartierError):
            SupportFunction.for_divisor(d)

    def test_q_cartier_on_quadric_cone(self):
        # the anticanonical values are linear on the cone over the square
        f = fan_quadric_cone()
        sf = SupportFunction.for_divisor(InvariantDivisor.anticanonical(f))
        assert sf.value((1, 1, 2)) == -2


class TestCartier:
    def test_anticanonical_P2_cartier(self):
        assert is_cartier(InvariantDivisor.anticanonical(fan_p2()))

    def test_singular_ray_divisor_index_two(self):
        f = fan_p112()
        d = InvariantDivisor.from_ray_map(f, {(-1, -2): 1})
        assert not is_cartier(d)
        assert cartier_index(SupportFunction.for_divisor(d)) == 2
        assert is_cartier(d.scale(2))

    def test_anticanonical_P112_cartier(self):
        assert is_cartier(InvariantDivisor.anticanonical(fan_p112()))


class TestPositivity:
    def test_anticanonical_P2_ample(self):
        d = InvariantDivisor.anticanonical(fan_p2())
        assert is_nef(d) and is_ample(d)

    def test_bends_of_anticanonical_P2(self):
        sf = SupportFunction.for_divisor(InvariantDivisor.anticanonical(fan_p2()))
        assert sorted(b for _, b in wall_bends(sf)) == [3, 3, 3]

    def test_principal_divisor_has_zero_bends(self):
        f = fan_p2()
        # divisor of the first coordinate character
        d = InvariantDivisor.make(f, [dot_first(r) for r in f.rays])
        sf = SupportFunction.for_divisor(d)
        assert all(b == 0 for _, b in wall_bends(sf))
        assert is_nef(d) and not is_ample(d)

    def test_antieffective_not_nef(self):
        d = InvariantDivisor.anticanonical(fan_p2()).scale(-1)
        assert not is_nef(d)

    def test_hirzebruch_two_fiber_class_nef_not_ample(self):
        f = fan_hirzebruch(2)
        fiber = InvariantDivisor.from_ray_map(f, {(1, 0): 1})
        assert is_nef(fiber) and not is_ample(fiber)


def dot_first(ray):
    return ray[0]


class TestClassGroup:
    def test_principal_class_recognized(self):
        f = fan_p2()
        d = InvariantDivisor.make(f, [dot_first(r) for r in f.rays])
        assert is_principal_class(f, d.coeffs)
        assert not is_principal_class(
            f, InvariantDivisor.from_ray_map(f, {(1, 0): 1}).coeffs)

    def test_all_ray_classes_agree_on_P2(self):
        f = fan_p2()
        vecs = [InvariantDivisor.from_ray_map(f, {r: 1}).coeffs for r in f.rays]
        assert classes_equal(f, vecs[0], vecs[1])
        assert classes_equal(f, vecs[1], vecs[2])
        assert class_reduce(f, vecs[0]) == class_reduce(f, vecs[2])

    def test_reduce_is_idempotent_and_projects_principal(self):
        f = fan_p2()
        d = InvariantDivisor.make(f, [dot_first(r) for r in f.rays])
        assert class_reduce(f, d.coeffs) == (0, 0, 0)
        red = class_reduce(f, (1, 2, 3))
        assert class_reduce(f, red) == red

    def test_degree_on_P1(self):
        f = fan_p1()
        assert class_reduce(f, (1, 1)) == class_reduce(f, (0, 2))
        anti = InvariantDivisor.anticanonical(f)
        assert class_reduce(f, anti.coeffs) == (0, 2)

    def test_weighted_classes(self):
        # ray weights on this fan are (1, 2, 1): the two weight-one ray
        # divisors agree, the weight-two one is their double
        f = fan_p112()
        a = InvariantDivisor.from_ray_map(f, {(1, 0): 1}).coeffs
        b = InvariantDivisor.from_ray_map(f, {(0, 1): 1}).coeffs
        c = InvariantDivisor.from_ray_map(f, {(-1, -2): 1}).coeffs
        assert classes_equal(f, a, c)
        assert not classes_equal(f, a, b)
        assert classes_equal(f, b, tuple(x + y for x, y in zip(a, c)))


class TestArithmetic:
    def test_add_sub_scale(self):
        f = fan_p2()
        k = InvariantDivisor.canonical(f)
        anti = InvariantDivisor.anticanonical(f)
        assert (k + anti).coeffs == (0, 0, 0)
        assert (anti - anti).coeffs == (0, 0, 0)
        assert anti.scale(Fraction(1, 2)).coeffs == (Fraction(1, 2),) * 3

    def test_coeff_at(self):
        f = fan_p112()
        d = InvariantDivisor.from_ray_map(f, {(-1, -2): Fraction(2, 3)})
        assert d.coeff_at((-1, -2)) == Fraction(2, 3)
        assert d.coeff_at((1, 0)) == 0

    def test_is_integral(self):
        f = fan_p2()
        assert InvariantDivisor.anticanonical(f).is_integral()
        assert not InvariantDivisor.anticanonical(f).scale(Fraction(1, 2)).is_integral()
