"""Round trips and shape validation for the JSON document layer."""

import json
import re
from fractions import Fraction

import pytest

from toricfib.catalog import fan_ladder, fan_p1, fan_p2, fixture, x_proj
from toricfib.divisors import InvariantDivisor
from toricfib.errors import (
    CoefficientOutOfRangeError,
    DocumentError,
    FinitePartError,
    InvalidFanError,
)
from toricfib.fibration import validate_contraction
from toricfib.lattice import Sublattice
from toricfib.pair import BoundaryData, GenericMember, build_pair
from toricfib.serialize import (
    Instance,
    contraction_from_doc,
    contraction_to_doc,
    fan_from_doc,
    fan_to_doc,
    fraction_from_text,
    fraction_to_text,
    instance_from_doc,
    instance_to_doc,
    load_document,
    pair_from_doc,
    pair_to_doc,
    parse_text,
    quotient_from_doc,
    quotient_to_doc,
    to_json_text,
)


def ruling(fan):
    return validate_contraction(fan, fan_p1(), x_proj())


class TestFractionText:

    def test_integer_renders_bare(self):
        assert fraction_to_text(Fraction(3)) == "3"
        assert fraction_to_text(Fraction(-2, 4)) == "-1/2"

    def test_parse_round_trip(self):
        for text in ["0", "7/3", "-5", "-1/2"]:
            assert fraction_to_text(fraction_from_text(text)) == text

    def test_float_rejected(self):
        with pytest.raises(DocumentError):
            fraction_from_text(0.5)

    def test_garbage_rejected(self):
        with pytest.raises(DocumentError):
            fraction_from_text("abc")
        with pytest.raises(DocumentError):
            fraction_from_text("1/0")


class TestFanDocs:

    def test_round_trip(self):
        fan = fan_ladder(2)
        doc = fan_to_doc(fan)
        assert fan_from_doc(doc) == fan
        assert fan_to_doc(fan_from_doc(doc)) == doc

    def test_json_text_stable(self):
        doc = fan_to_doc(fan_p2())
        text = to_json_text(doc)
        assert json.loads(text) == doc
        assert to_json_text(fan_to_doc(fan_from_doc(json.loads(text)))) == text

    def test_missing_key(self):
        doc = fan_to_doc(fan_p1())
        del doc["rank"]
        with pytest.raises(DocumentError):
            fan_from_doc(doc)

    def test_bad_rank(self):
        doc = fan_to_doc(fan_p1())
        doc["rank"] = "1"
        with pytest.raises(DocumentError):
            fan_from_doc(doc)

    def test_cone_index_out_of_range(self):
        doc = fan_to_doc(fan_p1())
        doc["max_cones"] = [[0], [5]]
        with pytest.raises(DocumentError):
            fan_from_doc(doc)

    def test_non_integer_ray(self):
        doc = fan_to_doc(fan_p1())
        doc["rays"] = [[1], [True]]
        with pytest.raises(DocumentError):
            fan_from_doc(doc)

    @pytest.mark.parametrize("rays, cones, message", [
        ([[1, 0], [0, 1], [-1, -1], [0, 1], [1, 0]], [[0, 1], [1, 2], [2, 0]],
         "ray [0, 1] is listed twice"),
        ([[1, 0], [0, 1], [-1, -1]], [[0, 1], [1, 2], [2, 0], [2, 1], [1, 0]],
         "cone [2, 1] lists the rays of cone [1, 2] again"),
    ], ids=["ray", "cone"])
    def test_the_first_repeat_is_named(self, rays, cones, message):
        with pytest.raises(DocumentError, match=re.escape(message)):
            fan_from_doc({"rank": 2, "rays": rays, "max_cones": cones})

    @pytest.mark.parametrize("cones", [[[0], [1], []], [[], [0], [1]]], ids=["last", "first"])
    def test_a_zero_cone_beside_others_is_an_invalid_fan(self, cones):
        """The zero cone lies in every other cone: refused on read, with
        the message validate_fan gives, wherever [] is listed."""
        with pytest.raises(InvalidFanError) as exc:
            fan_from_doc({"rank": 1, "rays": [[1], [-1]], "max_cones": cones})
        assert str(exc.value) == "listed maximal cone is contained in another: Cone[] vs Cone[(-1,)]"

    def test_a_lone_zero_cone_reads(self):
        doc = {"rank": 2, "rays": [], "max_cones": [[]]}
        assert fan_to_doc(fan_from_doc(doc)) == doc

    def test_a_zero_cone_beside_more_pairs_than_the_budget_is_a_document_error(self):
        """449 cones, [] and the 448 of the half-plane on the rays (1, k):
        the pair budget refuses before any pair is intersected."""
        doc = {"rank": 2, "rays": [[1, k] for k in range(449)],
               "max_cones": [[k, k + 1] for k in range(448)] + [[]]}
        with pytest.raises(DocumentError) as exc:
            fan_from_doc(doc)
        assert str(exc.value) == ("the fan is not complete and has 100576 pairs of maximal "
                                  "cones to check, more than the 100000 allowed")

    def test_rays_nested_too_deeply(self):
        deep = "[" * 5000 + "]" * 5000
        with pytest.raises(DocumentError, match="nested too deeply"):
            parse_text(f'{{"rank": 2, "rays": {deep}, "max_cones": [[0]]}}')


class TestPairDocs:

    def test_zero_boundary_round_trip(self):
        pair = build_pair(fan_ladder(2), BoundaryData.zero(fan_ladder(2)))
        doc = pair_to_doc(pair)
        assert pair_from_doc(doc) == pair
        assert pair_to_doc(pair_from_doc(doc)) == doc
        assert "generic" not in doc["boundary"]

    def test_generic_member_round_trip(self):
        pair = fixture("x2").pair
        doc = pair_to_doc(pair)
        back = pair_from_doc(doc)
        assert back == pair
        assert back.boundary.generic[0].coeff == Fraction(1, 2)
        assert pair_to_doc(back) == doc

    def test_subpair_round_trip(self):
        fan = fan_ladder(2)
        coeffs = (Fraction(-1), Fraction(0), Fraction(0), Fraction(0))
        pair = build_pair(fan, BoundaryData(coeffs), allow_subpair=True)
        back = pair_from_doc(pair_to_doc(pair))
        assert back == pair
        assert back.is_subpair

    def test_sparse_coeff_map(self):
        doc = pair_to_doc(build_pair(fan_ladder(2), BoundaryData.zero(fan_ladder(2))))
        doc["boundary"]["coeffs"] = {"1": "1/2"}
        pair = pair_from_doc(doc)
        assert pair.boundary.ray_coeffs == (0, Fraction(1, 2), 0, 0)

    def test_coefficient_keys_index_the_listed_rays(self):
        # the document lists the rays of P2 out of sorted order; key 0 is (1, 0)
        fan = fan_p2()
        doc = {"fan": {"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
                       "max_cones": [[0, 1], [1, 2], [2, 0]]},
               "boundary": {"coeffs": {"0": "1/2"},
                            "generic": [{"b": "1/3", "class": {"coeffs": {"0": "1"}}}]}}
        rep = InvariantDivisor.make(fan, [0, 0, 1])
        assert fan.rays[2] == (1, 0)
        assert pair_from_doc(doc) == build_pair(fan, BoundaryData(
            (0, 0, Fraction(1, 2)), (GenericMember(Fraction(1, 3), rep),)))

    def test_bad_coeff_key(self):
        doc = pair_to_doc(build_pair(fan_ladder(2), BoundaryData.zero(fan_ladder(2))))
        doc["boundary"]["coeffs"] = {"x": "1"}
        with pytest.raises(DocumentError):
            pair_from_doc(doc)
        doc["boundary"]["coeffs"] = {"9": "1"}
        with pytest.raises(DocumentError):
            pair_from_doc(doc)

    def test_float_coeff_rejected(self):
        text = to_json_text(
            pair_to_doc(build_pair(fan_ladder(2), BoundaryData.zero(fan_ladder(2)))))
        text = text.replace('"0": "0"', '"0": 0.5', 1)
        with pytest.raises(DocumentError):
            parse_text(text)

    def test_math_errors_are_not_document_errors(self):
        # coefficient 2 parses fine as a document, then fails pair validation
        doc = pair_to_doc(build_pair(fan_ladder(2), BoundaryData.zero(fan_ladder(2))))
        doc["boundary"]["coeffs"] = {"0": "2"}
        with pytest.raises(CoefficientOutOfRangeError):
            pair_from_doc(doc)


class TestContractionDocs:

    def test_round_trip(self):
        f = ruling(fan_ladder(2))
        doc = contraction_to_doc(f)
        back = contraction_from_doc(doc)
        assert back == f
        assert contraction_to_doc(back) == doc

    def test_validation_errors_propagate(self):
        doc = contraction_to_doc(ruling(fan_ladder(2)))
        doc["pi"] = [[2, 0]]
        with pytest.raises(FinitePartError):
            contraction_from_doc(doc)

    def test_shape_mismatch(self):
        doc = contraction_to_doc(ruling(fan_ladder(2)))
        doc["pi"] = [[1, 0], [0, 1]]
        with pytest.raises(DocumentError):
            contraction_from_doc(doc)

    def test_ragged_matrix(self):
        doc = contraction_to_doc(ruling(fan_ladder(2)))
        doc["pi"] = [[1, 0], [0]]
        with pytest.raises(DocumentError):
            contraction_from_doc(doc)


class TestInstanceDocs:

    def test_round_trip_with_name(self):
        inst = fixture("x2")
        doc = instance_to_doc(inst)
        assert instance_from_doc(doc) == inst
        assert instance_to_doc(instance_from_doc(doc)) == doc
        assert doc["name"] == "x2"

    def test_name_defaults_empty(self):
        x2 = fixture("x2")
        doc = instance_to_doc(Instance(x2.pair, x2.contraction))
        assert "name" not in doc
        assert instance_from_doc(doc).name == ""

    def test_fan_mismatch(self):
        doc = {
            "pair": pair_to_doc(build_pair(fan_p2(), BoundaryData.zero(fan_p2()))),
            "contraction": contraction_to_doc(ruling(fan_ladder(2))),
        }
        with pytest.raises(DocumentError):
            instance_from_doc(doc)

    def test_non_string_name(self):
        x2 = fixture("x2")
        doc = instance_to_doc(Instance(x2.pair, x2.contraction))
        doc["name"] = 3
        with pytest.raises(DocumentError):
            instance_from_doc(doc)

    def test_a_source_written_as_the_pair_fan_is_that_fan(self):
        """As written, and with a key beside rank, rays and max_cones, a
        list nested 600 deep, in both fans or in the source only:
        fan_from_doc reads none of it, so it is not compared."""
        x2 = fixture("x2")
        deep = []
        for _ in range(599):
            deep = [deep]
        pair_fan, source = ("pair", "fan"), ("contraction", "source")
        for noted in ((), (pair_fan, source), (source,)):
            doc = Instance(x2.pair, x2.contraction).document()
            for outer, inner in noted:
                doc[outer][inner]["note"] = deep
            inst = load_document(doc)
            assert inst.contraction.source is inst.pair.fan, noted

    def test_a_source_with_its_rays_in_another_order_loads(self):
        x2 = fixture("x2")
        doc = Instance(x2.pair, x2.contraction).document()
        source = doc["contraction"]["source"]
        order = list(range(len(source["rays"])))[::-1]
        source["max_cones"] = [[order.index(i) for i in c] for c in source["max_cones"]]
        source["rays"] = [source["rays"][i] for i in order]
        assert source != doc["pair"]["fan"]
        inst = load_document(doc)
        assert inst.contraction.source == inst.pair.fan

    @pytest.mark.parametrize("change", ["drop a cone", "float rank"])
    def test_a_source_that_differs_from_the_pair_fan_is_refused(self, change):
        x2 = fixture("x2")
        doc = Instance(x2.pair, x2.contraction).document()
        source = doc["contraction"]["source"]
        if change == "drop a cone":
            source["max_cones"].pop()
            message = "pair fan and contraction source disagree"
        else:
            source["rank"] = 2.0
            message = "bad rank 2.0"
        with pytest.raises(DocumentError, match=message):
            load_document(doc)


class TestQuotientDocs:

    def test_round_trip(self):
        fan = fan_p1()
        sub = Sublattice(1, [(2,)])
        doc = quotient_to_doc(fan, sub)
        back_fan, back_sub = quotient_from_doc(doc)
        assert back_fan == fan
        assert back_sub.basis == sub.basis
        assert quotient_to_doc(back_fan, back_sub) == doc

    def test_generator_length_checked(self):
        doc = quotient_to_doc(fan_p1(), Sublattice(1, [(2,)]))
        doc["sublattice"] = [[2, 0]]
        with pytest.raises(DocumentError):
            quotient_from_doc(doc)


class TestLoadDocument:

    def test_sniffs_each_shape(self):
        pair, f = fixture("x2").pair, fixture("x2").contraction
        fan = pair.fan
        assert load_document(fan_to_doc(fan)) == fan
        assert load_document(pair_to_doc(pair)) == pair
        assert load_document(contraction_to_doc(f)) == f
        assert load_document(instance_to_doc(Instance(pair, f))) == Instance(pair, f)
        got = load_document(quotient_to_doc(fan_p1(), Sublattice(1, [(2,)])))
        assert got[0] == fan_p1()
        assert got[1].basis == [(2,)]

    def test_unrecognized_shape(self):
        with pytest.raises(DocumentError):
            load_document({"foo": 1})
        with pytest.raises(DocumentError):
            load_document([1, 2])

    def test_parse_text_rejects_bad_json(self):
        with pytest.raises(DocumentError):
            parse_text("{not json")

    def test_parse_text_full_instance(self):
        inst = fixture("x2")
        assert parse_text(to_json_text(instance_to_doc(inst))) == inst
