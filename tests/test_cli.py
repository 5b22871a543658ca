"""Exit codes, report payloads, and output modes of the command line driver."""

import argparse
import io
import json
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st
from reference import argparse_reader

from toricfib.catalog import FIXTURE_NAMES, fan_p1, fixture, generate_family
from toricfib.cli import COMMANDS, main
from toricfib.fan import Fan, product_fan
from toricfib.pair import BoundaryData, build_pair
from toricfib.lattice import Sublattice, primitive_part
from toricfib.serialize import (
    Instance,
    contraction_to_doc,
    fan_to_doc,
    instance_to_doc,
    pair_to_doc,
    quotient_to_doc,
    to_json_text,
)


@pytest.fixture
def run(capsys):
    def invoke(argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return invoke


@pytest.fixture
def write_doc(tmp_path):
    def write(name, doc):
        path = tmp_path / name
        path.write_text(to_json_text(doc) if isinstance(doc, dict) else doc)
        return str(path)
    return write


# six rays winding twice around the plane, consecutive ones spanning the
# cones: every facet has two owners and the walls connect, yet it is no fan
WINDING = {"rank": 2, "rays": [[1, 0], [-1, 1], [-1, -2], [1, 1], [-1, 0], [1, -2]],
           "max_cones": [[k, (k + 1) % 6] for k in range(6)]}


@pytest.fixture
def x2_instance(write_doc):
    return write_doc("x2.json", instance_to_doc(fixture("x2")))


def with_zero_cone(kind: str, zero_cone: bool) -> dict:
    """A document of the kind, with the zero cone [] listed beside its
    other cones or not: P^1 as a fan or a pair, or x2, with [] added to
    its source cones, as an instance, a pair or a bare contraction."""
    if kind in ("fan", "pair"):
        fan = {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]] + [[]] * zero_cone}
        return fan if kind == "fan" else {"fan": fan, "boundary": {"coeffs": {"0": "1/2"}}}
    doc = instance_to_doc(fixture("x2"))
    if zero_cone:
        doc["pair"]["fan"]["max_cones"].append([])
        doc["contraction"]["source"]["max_cones"].append([])
    return {"instance": doc, "x2 pair": doc["pair"], "contraction": doc["contraction"]}[kind]


ZERO_CONE_KINDS = ["fan", "pair", "instance", "x2 pair", "contraction"]


# two cones of the plane overlapping in their interiors
OVERLAP = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 2], [-1, 1]], "max_cones": [[0, 1], [2, 3]]}


def assert_every_command_gives(run, path, at, result, direction="1"):
    """Every command that reads a document, in text and with --json, ends
    in result: an (exit code, stdout, stderr) triple, or the path of a
    reference document whose triple for the same command it matches."""
    for command in COMMANDS:
        if command == "catalog":
            continue
        extra = {"lct": ["--direction", direction], "subdivide": ["--at", at]}.get(command, [])
        for mode in ([], ["--json"]):
            expected = (result if isinstance(result, tuple)
                        else run([command, "--input", result, *extra, *mode]))
            assert run([command, "--input", path, *extra, *mode]) == expected, (command, mode)


# P^2 and P(1,1,2), each with rays (-1, -c), (0, 1), (1, 0)
P2 = {"rank": 2, "rays": [[-1, -1], [0, 1], [1, 0]], "max_cones": [[0, 1], [0, 2], [1, 2]]}
P112 = {**P2, "rays": [[-1, -2], [0, 1], [1, 0]]}


class TestExitCodes:

    def test_missing_file(self, run):
        code, _, err = run(["mld", "--input", "/no/such/file.json"])
        assert code == 2
        assert "error:" in err

    def test_unparseable_json(self, run, write_doc):
        code, _, err = run(["mld", "--input", write_doc("bad.json", "{")])
        assert code == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00x", b"[" * 100000 + b"]" * 100000],
                             ids=["not utf-8", "nested 100000 deep"])
    def test_unreadable_text_is_a_document_error(self, run, tmp_path, content):
        path = tmp_path / "doc.json"
        path.write_bytes(content)
        code, out, err = run(["mld", "--input", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "Traceback" not in err

    def test_unrecognized_shape(self, run, write_doc):
        code, _, err = run(["mld", "--input", write_doc("odd.json", {"foo": 1})])
        assert code == 2

    def test_overlapping_cones_fail_validation(self, run, write_doc):
        doc = {"rank": 2, "rays": [[1, 0], [0, 1], [1, 1]],
               "max_cones": [[0, 1], [0, 2]]}
        code, _, err = run(["validate", "--input", write_doc("broken.json", doc)])
        assert code == 1
        assert "(1, 1)" in err

    @pytest.mark.parametrize("command", ["validate", "classify"])
    def test_an_integer_past_the_digit_limit_is_a_document_error(self, run, write_doc,
                                                                 command):
        text = '{"rank": 1, "rays": [[1%s], [-1]], "max_cones": [[0], [1]]}' % ("0" * 5000)
        code, out, err = run([command, "--input", write_doc("long.json", text)])
        assert code == 2
        assert out == ""
        assert err == ("error: invalid JSON: Exceeds the limit (4300 digits) for integer "
                       "string conversion: value has 5001 digits\n")

    def test_a_double_winding_fails_validation_by_its_pairs(self, run, write_doc):
        code, out, err = run(["validate", "--input", write_doc("winding.json", WINDING)])
        assert (code, out) == (1, "")
        assert err == ("error: intersection of Cone[(-1, -2), (-1, 1)] and "
                       "Cone[(-1, 0), (1, -2)] is not a face of each\n")

    def test_a_double_winding_times_p1_fails_validation_by_its_pairs(self, run, write_doc):
        plane = Fan.from_rays_and_cones(2, WINDING["rays"], WINDING["max_cones"])
        doc = fan_to_doc(product_fan(plane, fan_p1()))
        code, out, err = run(["validate", "--input", write_doc("winding3.json", doc)])
        assert (code, out) == (1, "")
        assert err == ("error: intersection of Cone[(-1, -2, 0), (-1, 1, 0), (0, 0, -1)] and "
                       "Cone[(-1, 0, 0), (0, 0, -1), (1, -2, 0)] is not a face of each\n")

    def test_zero_direction_is_a_math_error(self, run, x2_instance):
        code, _, err = run(["lct", "--input", x2_instance, "--direction", "0"])
        assert code == 1
        assert "primitive" in err

    def test_unknown_family(self, run):
        code, _, err = run(["catalog", "--family", "nope", "--json"])
        assert code == 2
        assert err == "error: unknown family 'nope'\n"

    def test_experiment_without_a_base_direction_is_a_usage_error(self, run):
        """Every wps instance lies over the point, so the monotonicity
        experiment has no instance to draw from."""
        code, out, err = run(["catalog", "--family", "wps",
                              "--experiment", "monotonicity"])
        assert code == 2
        assert out == ""
        assert err == "error: the selected families have no positive-dimensional bases\n"

    def test_tiny_oracle_box_is_a_usage_error(self, run):
        code, _, err = run(["catalog", "--experiment", "delta", "--box", "3"])
        assert code == 2

    @pytest.mark.parametrize("command", ["validate", "classify", "mld"])
    def test_ray_longer_than_the_rank_is_a_document_error(self, run, write_doc,
                                                          command):
        doc = {"rank": 2, "rays": [[1, 0, 0], [0, 1, 0]], "max_cones": [[0, 1]]}
        code, _, err = run([command, "--input", write_doc("wide.json", doc)])
        assert code == 2
        assert err.startswith("error:") and "coordinates" in err

    @pytest.mark.parametrize("name, argv", [
        ("x2", ["lct", "--direction", "1,0"]),
        ("x2", ["fiber", "--direction", "1,0"]),
        ("p2", ["subdivide", "--at", "1,1,1"]),
    ])
    def test_vector_of_the_wrong_length_is_a_usage_error(self, run, write_doc,
                                                         name, argv):
        path = write_doc(f"{name}.json", instance_to_doc(fixture(name)))
        command, flag, value = argv
        code, _, err = run([command, "--input", path, flag, value])
        assert code == 2
        assert err.startswith(f"error: {flag} needs")

    @pytest.mark.parametrize("argv", [
        ["mld", "--input", "unread.json", "--epsilon", "1/0"],
        ["catalog", "--experiment", "delta", "--alpha", "1/0"],
    ])
    def test_zero_denominator_is_a_usage_error(self, run, argv):
        code, _, err = run(argv)
        assert code == 2
        assert "expected a rational" in err

    @pytest.mark.parametrize("box", ["0", "-1"])
    def test_empty_oracle_box_is_a_usage_error(self, run, x2_instance, box):
        code, out, err = run(["base-inf", "--input", x2_instance, f"--box={box}"])
        assert code == 2
        assert out == ""
        assert err == f"error: --box must be at least 1, got {box}\n"

    def test_oracle_box_over_the_direction_budget_is_a_usage_error(self, run,
                                                                    x2_instance):
        """x2 has a rank-one target: box 50000 gives 100001 directions."""
        code, out, err = run(["base-inf", "--input", x2_instance, "--box=50000"])
        assert code == 2
        assert out == ""
        assert err == ("error: --box 50000 gives 100001 oracle directions, "
                       "more than the 100000 allowed\n")

    def test_delta_experiment_box_over_the_direction_budget_is_a_usage_error(self, run):
        """products has a rank-two target: box 158 gives 317^2 = 100489
        directions, refused before any scan."""
        code, out, err = run(["catalog", "--experiment", "delta",
                              "--family", "products", "--box", "158"])
        assert code == 2
        assert out == ""
        assert err == ("error: --box 158 gives 100489 oracle directions, "
                       "more than the 100000 allowed\n")

    @pytest.mark.parametrize("argv", [
        ["validate"], ["subdivide", "--at", "1,1"], ["classify"], ["mld"],
        ["lct", "--direction", "1"], ["adjunction"], ["base-inf"], ["fiber"],
        ["mfs-check"], ["cover"], ["quotient"],
    ], ids=lambda argv: argv[0])
    def test_an_incomplete_fan_over_the_pair_budget_is_a_usage_error(self, run, write_doc,
                                                                     argv):
        """448 cones of the half-plane on the rays (1, k): 448 * 447 / 2 =
        100128 pairs, refused as the document is read, before any pair is
        intersected."""
        doc = {"rank": 2, "rays": [[1, k] for k in range(449)],
               "max_cones": [[k, k + 1] for k in range(448)]}
        path = write_doc("fan448.json", doc)
        start = time.perf_counter()
        code, out, err = run([argv[0], "--input", path, *argv[1:]])
        assert time.perf_counter() - start < 1
        assert code == 2
        assert out == ""
        assert err == ("error: the fan is not complete and has 100128 pairs of maximal "
                       "cones to check, more than the 100000 allowed\n")

    @pytest.mark.parametrize("argv", [
        ["validate"], ["classify"], ["mld"], ["lct", "--direction", "1"],
        ["adjunction"], ["base-inf"], ["fiber"], ["mfs-check"], ["cover"],
        ["quotient"], ["subdivide", "--at", "1,1"],
    ], ids=lambda argv: argv[0])
    def test_rays_that_are_not_a_list_are_a_document_error(self, run, write_doc,
                                                           argv):
        doc = {"rank": 2, "rays": 5, "max_cones": [[0]]}
        command, *extra = argv
        code, _, err = run([command, "--input", write_doc("odd.json", doc), *extra])
        assert code == 2
        assert err == "error: 'rays' must be a list, got 5\n"

    @pytest.mark.parametrize("doc, message", [
        ({"rank": 2, "rays": [[1, 0]], "max_cones": 0}, "'max_cones' must be a list"),
        ({"rank": True, "rays": [[1]], "max_cones": [[0]]}, "bad rank True"),
        ({"fan": {"rank": 1, "rays": [[1]], "max_cones": [[0]]}, "sublattice": 2},
         "'sublattice' must be a list"),
        ({"fan": {"rank": 1, "rays": [[1]], "max_cones": [[0]]},
          "boundary": {"coeffs": {}, "generic": 1}}, "'generic' must be a list"),
        ({"fan": P2, "boundary": {"coeffs": {"00": "1/2"}}}, "bad ray index '00'"),
        ({"fan": P2, "boundary": {"coeffs": {"+0": "1/2"}}}, "bad ray index '+0'"),
        ({"fan": P2, "boundary": {"coeffs": {" 0 ": "1/2"}}}, "bad ray index ' 0 '"),
        ({"fan": P2, "boundary": {"coeffs": {"0_0": "1/2"}}}, "bad ray index '0_0'"),
        ({"fan": P2, "boundary": {"coeffs": {"0": "1/2", "00": "1/3"}}},
         "bad ray index '00'"),
        ({"fan": P2, "boundary": {"coeffs": {"00": "1/3", "0": "1/2"}}},
         "bad ray index '00'"),
        ({"fan": P2, "boundary": {"coeffs": {"None": "1/2"}}}, "bad ray index 'None'"),
        ({"fan": P2, "boundary": {"coeffs": []}}, "coefficient map expected"),
        ({"source": P2, "target": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
          "pi": {}}, "matrix expected"),
    ], ids=["max_cones", "rank", "sublattice", "generic", "key 00", "key +0", "key 0 spaced",
            "key 0_0", "0 then 00", "00 then 0", "key None", "coeffs list",
            "pi object"])
    def test_fields_of_the_wrong_type_are_document_errors(self, run, write_doc,
                                                          doc, message):
        code, _, err = run(["validate", "--input", write_doc("odd.json", doc)])
        assert code == 2
        assert err.startswith(f"error: {message}")

    @pytest.mark.parametrize("doc, message", [
        ({"rank": 2, "rays": [[1, 0]], "max_cones": [[]]},
         "error: ray [1, 0] is in no maximal cone\n"),
        ({"rank": 2, "rays": [[1, 0], [0, 1]], "max_cones": [[0, 0, 1]]},
         "error: cone [0, 0, 1] lists ray index 0 twice\n"),
        ({"rank": 1, "rays": [[1], [1], [-1]], "max_cones": [[0], [1], [2]]},
         "error: ray [1] is listed twice\n"),
        ({"rank": 2, "rays": [[1, 0], [0, 1], [-1, -1]],
          "max_cones": [[0, 1], [1, 0], [1, 2], [2, 0]]},
         "error: cone [1, 0] lists the rays of cone [0, 1] again\n"),
    ], ids=["unused ray", "repeated index", "repeated ray", "repeated cone"])
    def test_a_fan_that_loses_a_listed_ray_is_a_document_error(self, run, write_doc,
                                                              doc, message):
        code, out, err = run(["validate", "--input", write_doc("lossy.json", doc)])
        assert code == 2
        assert out == ""
        assert err == message

    @pytest.mark.parametrize("kind", ZERO_CONE_KINDS)
    def test_a_zero_cone_beside_others_ends_in_an_exit_code(self, run, write_doc, kind):
        """The zero cone lies in every other cone: every command refuses
        the document as it is read, exit 1, with the message validate
        gives, and answers on the document without it."""
        path = write_doc("zero.json", with_zero_cone(kind, True))
        first = "Cone[(-1,)]" if kind in ("fan", "pair") else "Cone[(-1, 0), (0, -1)]"
        message = f"error: listed maximal cone is contained in another: Cone[] vs {first}\n"
        at = "1" if kind in ("fan", "pair") else "1,1"
        assert_every_command_gives(run, path, at, (1, "", message))
        without = write_doc("plain.json", with_zero_cone(kind, False))
        assert run(["mld", "--input", without, "--json"])[0] == 0

    def test_an_unread_deep_key_changes_no_command(self, run, write_doc):
        """A list nested 600 deep under a key no reader reads, in the pair's
        fan and the contraction source, changes no exit code or output."""
        doc = instance_to_doc(fixture("x2xp1_to_p1xp1"))
        plain = write_doc("plain.json", json.dumps(doc))
        deep = []
        for _ in range(599):
            deep = [deep]
        doc["pair"]["fan"]["note"] = doc["contraction"]["source"]["note"] = deep
        noted = write_doc("noted.json", json.dumps(doc))
        assert_every_command_gives(run, noted, "1,1,1", plain, direction="1,0")

    @pytest.mark.parametrize("doc, message", [
        (OVERLAP, "intersection of Cone[(-1, 1), (1, 2)] and Cone[(0, 1), (1, 0)] "
                  "is not a face of each"),
        (WINDING, "intersection of Cone[(-1, -2), (-1, 1)] and Cone[(-1, 0), (1, -2)] "
                  "is not a face of each"),
    ], ids=["overlap", "winding"])
    def test_cones_that_are_not_a_fan_are_refused_by_every_command(self, run, write_doc,
                                                                   doc, message):
        """A set of cones that is no fan has no variety: every command
        refuses it as it is read, exit 1, with the message validate gives."""
        path = write_doc("notfan.json", doc)
        assert_every_command_gives(run, path, "1,1", (1, "", f"error: {message}\n"))

    @pytest.mark.parametrize("command, doc, message", [
        ("validate", {"rank": 2, "rays": [], "max_cones": []}, "fan has no cones"),
        ("mld", {"rank": 2, "rays": [], "max_cones": [[]]},
         "the minimum needs at least one ray"),
        ("mld", {"rank": 2, "rays": [], "max_cones": []}, "fan has no cones"),
        ("mld", {"fan": P2, "boundary": {"coeffs": {}, "generic": [
            {"b": "1/2", "class": {"coeffs": {"0": "1/2"}}}]}},
         "generic member class must be an integral Cartier divisor"),
        ("mld", {"fan": P112, "boundary": {"coeffs": {}, "generic": [
            {"b": "1/2", "class": {"coeffs": {"2": "1"}}}]}},
         "generic member class must be an integral Cartier divisor"),
    ], ids=["validate no cones", "mld no rays", "mld no cones", "generic not integral",
            "generic integral, not Cartier"])
    def test_refusals_of_the_mathematics_are_math_errors(self, run, write_doc,
                                                         command, doc, message):
        code, out, err = run([command, "--input", write_doc("refused.json", doc)])
        assert (code, out) == (1, "")
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command", ["validate", "quotient"])
    def test_infinite_index_sublattice_is_a_math_error(self, run, write_doc, command):
        doc = quotient_to_doc(fixture("p2").pair.fan, Sublattice(2, []))
        code, out, err = run([command, "--input", write_doc("q.json", doc)])
        assert code == 1
        assert out == ""
        assert err == "error: sublattice has infinite index\n"

    def test_mld_on_a_quotient_names_every_kind_it_takes(self, run, write_doc):
        doc = quotient_to_doc(fixture("p2").pair.fan, Sublattice(2, [[1, 0], [0, 2]]))
        code, out, err = run(["mld", "--input", write_doc("q.json", doc)])
        assert code == 2
        assert out == ""
        assert err == ("error: this command needs a pair, fan, instance or "
                       "contraction document\n")

    def test_subdivide_on_a_quotient_names_every_kind_it_takes(self, run, write_doc):
        doc = quotient_to_doc(fixture("p2").pair.fan, Sublattice(2, [[1, 0], [0, 2]]))
        code, out, err = run(["subdivide", "--input", write_doc("q.json", doc),
                              "--at", "1,1"])
        assert code == 2
        assert out == ""
        assert err == ("error: this command needs a pair, fan, instance or "
                       "contraction document\n")

    def test_no_subcommand(self, run):
        code, _, _ = run([])
        assert code == 2


@st.composite
def fuzzed_documents(draw):
    """A fan or pair document of rank 1-3 with at most 5 rays, entries in
    [-2, 2], and random cone index lists, with a point to subdivide at.
    Rays no cone lists are dropped, so most documents get past the
    document checks to the cones themselves."""
    rank = draw(st.integers(1, 3))
    vector = st.lists(st.integers(-2, 2), min_size=rank, max_size=rank)
    rays = draw(st.lists(vector, min_size=1, max_size=5, unique_by=tuple))
    cones = draw(st.lists(st.lists(st.integers(0, len(rays) - 1), min_size=1,
                                   max_size=rank + 1, unique=True),
                          min_size=1, max_size=4, unique_by=frozenset))
    used = sorted({i for c in cones for i in c})
    doc = {"rank": rank, "rays": [rays[i] for i in used],
           "max_cones": [[used.index(i) for i in c] for c in cones]}
    if draw(st.booleans()):
        coeffs = st.sampled_from(["0", "1/2", "1", "-1/3", "3/2"])
        doc = {"fan": doc, "boundary": {"coeffs": {str(i): draw(coeffs)
                                                   for i in range(len(used))}}}
    return doc, ",".join(map(str, draw(vector)))


@st.composite
def fuzzed_instance_documents(draw):
    """A fixture instance document with one mutation: an entry of pi, a
    target ray, a source ray (in the pair and the contraction alike) or a
    boundary coefficient; or a quotient document of a fixture fan by a
    random sublattice.  With a target vector and a source vector."""
    inst = fixture(draw(st.sampled_from(FIXTURE_NAMES)))
    doc = instance_to_doc(inst)
    rank, target_rank = inst.pair.fan.rank, inst.contraction.target.rank
    entry = st.integers(-2, 2)
    kind = draw(st.sampled_from(["pi", "target", "source", "coeffs", "quotient"]))
    contraction = doc["contraction"]
    if kind == "quotient":
        gens = draw(st.lists(st.lists(st.integers(-3, 3), min_size=rank, max_size=rank),
                             max_size=rank + 1))
        doc = {"fan": doc["pair"]["fan"], "sublattice": gens}
    elif kind == "coeffs":
        coeffs = doc["pair"]["boundary"]["coeffs"]
        key = draw(st.sampled_from(sorted(coeffs) or ["0"]))
        coeffs[key] = draw(st.sampled_from(["0", "1/2", "1", "-1/3", "3/2", "2"]))
    else:
        rows = {"pi": contraction["pi"], "target": contraction["target"]["rays"],
                "source": doc["pair"]["fan"]["rays"]}[kind]
        if rows and rows[0]:
            i = draw(st.integers(0, len(rows) - 1))
            rows[i][draw(st.integers(0, len(rows[i]) - 1))] = draw(entry)
        if kind == "source":
            contraction["source"] = doc["pair"]["fan"]
    direction, at = (draw(st.lists(entry, min_size=n, max_size=n))
                     for n in (max(target_rank, 1), rank))
    return doc, ",".join(map(str, direction)), ",".join(map(str, at))


class TestFuzzedDocuments:

    @given(fuzzed_documents())
    @settings(deadline=None, max_examples=100)
    def test_every_command_ends_in_an_exit_code(self, tmp_path_factory, data):
        doc, at = data
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(to_json_text(doc))
        for argv in (["validate"], ["classify"], ["mld"], ["subdivide", "--at", at]):
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([argv[0], "--input", str(path), *argv[1:]])
            assert code in (0, 1, 2), (argv, doc)

    @given(fuzzed_instance_documents())
    @settings(deadline=None, max_examples=40)
    def test_every_command_ends_in_an_exit_code_on_instances(self, tmp_path_factory, data):
        doc, direction, at = data
        path = tmp_path_factory.mktemp("fuzz") / "doc.json"
        path.write_text(to_json_text(doc))
        calls = [[c] for c in ("validate", "classify", "mld", "adjunction", "fiber",
                               "mfs-check", "cover", "quotient")]
        calls += [["lct", "--direction", direction], ["fiber", "--direction", direction],
                  ["base-inf", "--box", "2"], ["subdivide", "--at", at]]
        for argv in calls:
            with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
                code = main([argv[0], "--input", str(path), *argv[1:]])
            assert code in (0, 1, 2), (argv, doc)


COMMAND_HELP = {
    "validate": "check a document and the fan axioms",
    "classify": "simplicial / smooth / complete flags of a fan",
    "mld": "minimal log discrepancy and eps-lc verdict",
    "lct": "lc threshold over a divisorial direction of the base",
    "adjunction": "discriminant and moduli data over the base",
    "base-inf": "infimum of lc thresholds over all base directions",
    "fiber": "general fiber data, or multiplicities over a direction",
    "mfs-check": "Fano contraction and Mori fiber space verdicts",
    "cover": "finite cover splitting off a projective-space fiber",
    "quotient": "quotient of a fan by a finite-index sublattice",
    "subdivide": "star subdivision, transporting a pair crepantly",
    "catalog": "list or emit built-in instances, or run an experiment",
}

COMMAND_OPTIONS = {
    "mld": ["--epsilon"], "lct": ["--direction"], "base-inf": ["--box"],
    "fiber": ["--direction"], "subdivide": ["--at"],
    "catalog": ["--family", "--experiment", "--epsilon", "--alpha", "--box", "--seed"],
}

REQUIRED = {"lct": ["--direction", "1"], "subdivide": ["--at", "1,1"]}


class TestHelpAndUsage:
    """The help and usage text of every command, whichever subparsers a
    call builds."""

    @pytest.fixture(autouse=True)
    def wide(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "200")

    @pytest.mark.parametrize("command", list(COMMAND_HELP))
    def test_command_help_lists_its_options(self, run, command):
        code, out, _ = run([command, "-h"])
        assert code == 0
        assert out.startswith(f"usage: toricfib {command} [-h] [--json] [--out OUT]")
        own = COMMAND_OPTIONS.get(command, [])
        for flag in ["--json", "--out"] + ([] if command == "catalog" else ["--input"]) + own:
            assert f"  {flag}" in out, flag

    def test_top_level_help_lists_every_command(self, run):
        code, out, _ = run(["-h"])
        assert code == 0
        for command, line in COMMAND_HELP.items():
            assert re.search(rf"^ +{re.escape(command)} +{re.escape(line)}$", out, re.M), command

    @pytest.mark.parametrize("command", list(COMMAND_HELP))
    def test_extra_argument_shows_every_command(self, run, command):
        code, out, err = run([command, "--input", "doc.json", *REQUIRED.get(command, []),
                              "extra"])
        assert code == 2
        assert out == ""
        usage = "usage: toricfib [-h] {" + ",".join(COMMAND_HELP) + "} ...\n"
        assert err.startswith(usage)
        assert "error: unrecognized arguments:" in err

    def test_unknown_command_names_the_argument(self, run):
        code, _, err = run(["bogus", "--input", "doc.json"])
        assert code == 2
        assert "error: argument command: invalid choice: 'bogus'" in err


# tokens that make a command line malformed, or read only by argparse
ODD_TOKENS = ["-h", "--help", "--inp", "--dir", "--js", "--json=1", "--", "extra", "-1,0",
              "--input", "--box", "--family", "--bogus", "-x", "--input=", "--at=-1,1", "bogus"]
FLAG_VALUES = ["doc.json", "1", "0", "1,0", "1,-1", "2/5", "1/0", "x", "", "multiplicity",
               "delta", "bogus", "1.5", " 3", "a=b"]
DASHED_VALUES = ["-1", "-1,0", "-1/2", "-.5", "-", "-x", "--json", "--box"]


@st.composite
def command_lines(draw):
    """A command, drawn the more often the more flags it has, or an unknown
    one; then its own flags in any order and with repeats, each with a
    value after a space or an = (--json also bare), half the time a value
    its type and choices take and a quarter of the time one starting with
    a minus; and up to two odd tokens anywhere:
    abbreviations, help flags, stray values, values starting with a minus."""
    weighted = [name for name, (_, _, arguments) in COMMANDS.items()
                for _ in range(1 + len(arguments))]
    command = draw(st.sampled_from(["bogus", *weighted]))
    arguments = {"--json": {}, "--out": {}}
    if command in COMMANDS:
        arguments.update(COMMANDS[command][2])
    argv = [command]
    for flag in draw(st.lists(st.sampled_from(list(arguments)), max_size=5)):
        keywords = arguments[flag]
        fits = keywords.get("choices") or (["1", "-1", "2"] if "type" in keywords else ["doc.json"])
        value = draw(st.sampled_from([fits, fits, FLAG_VALUES, DASHED_VALUES][draw(st.integers(0, 3))]))
        forms = [[flag, value], [f"{flag}={value}"]]
        argv += draw(st.sampled_from([[flag], *forms] if flag == "--json" else forms))
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.sampled_from(ODD_TOKENS)))
    return argv


class Handled(Exception):
    """Carries the namespace main hands to a handler."""


def hand_over(args):
    raise Handled(args)


class TestReadingArgv:

    def test_main_reads_argv_as_argparse_does(self):
        """Where argparse accepts argv, main hands its handler argparse's
        namespace; where argparse refuses it, main exits with argparse's
        code, stdout and stderr and calls no handler."""
        with pytest.MonkeyPatch.context() as patch:
            for name, (help_line, _, arguments) in list(COMMANDS.items()):
                patch.setitem(COMMANDS, name, (help_line, hand_over, arguments))
            reference = argparse_reader()

            @given(command_lines())
            @settings(deadline=None, max_examples=400)
            def check(argv):
                namespace, code, out, err = reference(argv)
                stdout, stderr = io.StringIO(), io.StringIO()
                try:
                    with redirect_stdout(stdout), redirect_stderr(stderr):
                        got = main(argv)
                except Handled as handled:
                    got = handled.args[0]
                if namespace is not None:
                    assert got == namespace, argv
                else:
                    assert (got, stdout.getvalue(), stderr.getvalue()) == (code, out, err), argv
            check()


class TestWorkPerCall:
    """Guards on the work of a command line call, counted by wrapping."""

    def test_argparse_is_built_only_for_help_and_errors(self, run, write_doc, monkeypatch):
        """No parser for the calls of the cli_calls benchmark; at least one
        for help, an abbreviation, a vector after a space, an unknown
        command and a missing required flag, which argparse reports."""
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(parser)
            init(parser, *args, **kwargs)
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)

        def parsers(argv):
            built.clear()
            run(argv)
            return len(built)
        inst = fixture("x2xp1_to_p1xp1")
        path = write_doc("x.json", instance_to_doc(inst))
        calls = [[command, "--input", path, "--json"]
                 for command in ("validate", "classify", "mld", "fiber", "adjunction", "base-inf")]
        for w in inst.contraction.target.rays:
            direction = f"--direction={','.join(map(str, w))}"
            calls += [[command, "--input", path, "--json", direction] for command in ("lct", "fiber")]
        calls += [["catalog", "--experiment", experiment, "--seed", "1", "--json"]
                  for experiment in ("multiplicity", "delta", "monotonicity")]
        assert {tuple(argv): parsers(argv) for argv in calls} == {tuple(argv): 0 for argv in calls}
        for argv in (["-h"], ["lct", "-h"], ["lct", "--inp", path, "--direction=1,0"],
                     ["lct", "--input", path, "--direction", "-1,0"], ["bogus", "--input", path]):
            assert parsers(argv) >= 1, argv
        for command, flag in (("lct", "--direction"), ("subdivide", "--at")):
            built.clear()
            code, out, err = run([command, "--input", path])
            assert built, command
            assert (code, out) == (2, "")
            assert f"the following arguments are required: {flag}" in err


class TestReports:

    def test_adjunction_payload(self, run, write_doc):
        inst = generate_family("ladder")[0]
        assert inst.name == "ladder_k2"
        path = write_doc("k2.json", instance_to_doc(inst))
        code, out, _ = run(["adjunction", "--input", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["discriminant"] == [{"coeff": "0", "ray": [-1]},
                                       {"coeff": "1/2", "ray": [1]}]
        assert doc["moduli_class"] == ["0", "3/2"]
        assert doc["moduli_degree"] == "3/2"
        assert doc["descended_class"] == ["0", "0"]
        assert {"ray": [1], "source_ray": [2, 1], "t": "1/2"} in doc["witnesses"]

    def test_validate_a_bare_contraction(self, run, write_doc):
        path = write_doc("x2c.json", contraction_to_doc(fixture("x2").contraction))
        code, out, _ = run(["validate", "--input", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "contraction"
        assert [fan["role"] for fan in doc["fans"]] == ["source", "target"]

    @pytest.mark.parametrize("argv", [["classify"], ["mld"], ["lct"], ["adjunction"],
                                      ["base-inf", "--box", "2"], ["fiber"],
                                      ["fiber", "--direction"], ["mfs-check"], ["cover"],
                                      ["subdivide", "--at"]])
    def test_a_bare_contraction_reads_as_the_zero_boundary_instance(self, run, write_doc,
                                                                     argv):
        """lct and fiber --direction take the first target ray, and skip
        the fixtures with none; subdivide takes the primitive part of the
        sum of the first cone's rays."""
        for name in FIXTURE_NAMES:
            f = fixture(name).contraction
            rest = argv[1:]
            if argv[0] == "lct" or rest == ["--direction"]:
                if not f.target.rays:
                    continue
                rest = ["--direction", ",".join(map(str, f.target.rays[0]))]
            if rest == ["--at"]:
                at = primitive_part(tuple(map(sum, zip(*f.source.max_cones[0].gens))))[0]
                rest = ["--at", ",".join(map(str, at))]
            zero = Instance(build_pair(f.source, BoundaryData.zero(f.source)), f, name)
            bare = write_doc(f"{name}_bare.json", contraction_to_doc(f))
            whole = write_doc(f"{name}_zero.json", instance_to_doc(zero))
            for mode in ([], ["--json"]):
                assert (run([argv[0], "--input", bare, *rest, *mode])
                        == run([argv[0], "--input", whole, *rest, *mode])), (name, mode)

    def test_mld_on_a_bare_fan(self, run, write_doc):
        path = write_doc("p112.json", fan_to_doc(fixture("p112").pair.fan))
        code, out, _ = run(["mld", "--input", path, "--epsilon", "1", "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["mld"] == "1"
        assert doc["eps_lc"] is True
        assert doc["generic_floor"] is None

    def test_boundary_keys_index_the_listed_rays(self, run, write_doc):
        doc = {"fan": {"rank": 1, "rays": [[1], [-1]], "max_cones": [[0], [1]]},
               "boundary": {"coeffs": {"0": "1/2"}}}
        code, out, _ = run(["mld", "--input", write_doc("p1.json", doc), "--json"])
        assert code == 0
        assert json.loads(out)["mld"] == "1/2"
        assert json.loads(out)["witness"] == [1]

    def test_mld_reports_the_generic_floor(self, run, write_doc):
        path = write_doc("k2p.json", pair_to_doc(fixture("x2").pair))
        code, out, _ = run(["mld", "--input", path, "--json"])
        doc = json.loads(out)
        assert doc["generic_floor"] == "1/2"
        assert doc["eps_lc"] is False

    def test_lct_and_base_infimum(self, run, x2_instance):
        code, out, _ = run(["lct", "--input", x2_instance,
                            "--direction", "1", "--json"])
        assert code == 0
        assert json.loads(out) == {"direction": [1], "t": "1/2",
                                   "witness": [2, 1]}
        code, out, _ = run(["base-inf", "--input", x2_instance, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["delta"] == "1/2"
        assert doc["witness_direction"] == [1]
        assert doc["exact"] is True

    def test_cover_report_shape_is_fixed(self, run, write_doc):
        path = write_doc("cov.json",
                         instance_to_doc(fixture("p112xp1")))
        code, out, _ = run(["cover", "--input", path, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"degree", "sublattice", "fiber_is_projective_space"}
        assert doc["degree"] == 2
        assert doc["fiber_is_projective_space"] is True

    def test_cover_sublattices_are_pinned(self, run, write_doc):
        """The sublattice of every fixture that has a cover: its generators
        include a section of pi from a Smith form."""
        got = {}
        for name in FIXTURE_NAMES:
            code, out, _ = run(["cover", "--json", "--input",
                                write_doc(f"{name}.json", instance_to_doc(fixture(name)))])
            if code == 0:
                got[name] = json.loads(out)["sublattice"]
        identity = {2: [[1, 0], [0, 1]], 3: [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
        assert got == {
            "p1": [[1]], "p2": identity[2], "p112": [[1, 0], [0, 2]],
            "f2": identity[2], "x2": identity[2], "x3": identity[2], "x4": identity[2],
            "x5": identity[2], "p2xp1": identity[3], "p112xp1": [[1, 0, 0], [0, 2, 0], [0, 0, 1]],
            "x2xp1_to_x2": identity[3], "x2xp1_to_p1xp1": identity[3], "twisted3": identity[3]}

    def test_fiber_reports(self, run, x2_instance):
        code, out, _ = run(["fiber", "--input", x2_instance, "--json"])
        data = json.loads(out)
        assert data["fiber_fan"]["rays"] == [[-1], [1]]
        assert data["kernel_basis"] == [[0, 1]]
        assert data["split_section"] is None
        code, out, _ = run(["fiber", "--input", x2_instance,
                            "--direction", "1", "--json"])
        assert json.loads(out)["max_multiplicity"] == 2

    def test_quotient_recovers_the_cover(self, run, write_doc):
        doc = quotient_to_doc(fixture("p2").pair.fan,
                              Sublattice(2, [(1, 2), (0, 3)]))
        code, out, _ = run(["quotient", "--input", write_doc("q.json", doc),
                            "--json"])
        assert code == 0
        data = json.loads(out)
        assert data["degree"] == 3
        assert data["cover_fan"]["rays"] == [[-3, 1], [0, 1], [3, -2]]
        assert data["inclusion"] == [[1, 0], [2, 3]]

    def test_subdivide_emits_a_loadable_pair(self, run, write_doc):
        fan = fixture("p2").pair.fan
        path = write_doc("p2pair.json",
                         pair_to_doc(build_pair(fan, BoundaryData.zero(fan))))
        code, out, _ = run(["subdivide", "--input", path, "--at", "1,1",
                            "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["fan"]["rays"] == [[-1, -1], [0, 1], [1, 0], [1, 1]]
        assert doc["boundary"]["coeffs"]["3"] == "-1"

    @pytest.mark.parametrize("name, argv", [
        ("x2", ["subdivide", "--at", "-1,-1"]),
        ("x2xp1_to_p1xp1", ["lct", "--direction", "-1,0"]),
        ("x2xp1_to_p1xp1", ["fiber", "--direction", "-1,0"]),
    ])
    def test_negative_vector_after_a_space(self, run, write_doc, name, argv):
        path = write_doc(f"{name}.json", instance_to_doc(fixture(name)))
        command, flag, value = argv
        spaced = run([command, "--input", path, flag, value, "--json"])
        joined = run([command, "--input", path, f"{flag}={value}", "--json"])
        assert spaced[0] == 0, spaced[2]
        assert spaced == joined

    def test_classify(self, run, write_doc):
        path = write_doc("p112fan.json", fan_to_doc(fixture("p112").pair.fan))
        code, out, _ = run(["classify", "--input", path, "--json"])
        doc = json.loads(out)
        assert (doc["simplicial"], doc["smooth"], doc["complete"]) == \
            (True, False, True)

    def test_classify_a_double_winding_as_incomplete(self, run, write_doc):
        """The winding cones are no fan, so classify refuses them as they are
        read, as validate does; classify_fan still reads them as incomplete
        (tests/test_properties.py)."""
        code, out, err = run(["classify", "--input", write_doc("winding.json", WINDING),
                              "--json"])
        assert (code, out) == (1, "")
        assert err == ("error: intersection of Cone[(-1, -2), (-1, 1)] and "
                       "Cone[(-1, 0), (1, -2)] is not a face of each\n")

    def test_validate_instance(self, run, x2_instance):
        code, out, _ = run(["validate", "--input", x2_instance, "--json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "instance"
        assert doc["valid"] is True


# the report fields that hold an exact rational, or a list of them
RATIONAL_FIELDS = {"mld", "epsilon", "generic_floor", "t", "coeff", "moduli_class",
                   "moduli_degree", "descended_class", "delta", "oracle_delta",
                   "alpha", "low", "high", "min_over_eps_lc"}


def report_leaves(value, key=None):
    """(key, value) for each number, string, bool or null of a parsed
    report, with the key of the nearest enclosing object."""
    if isinstance(value, dict):
        for k, item in value.items():
            yield from report_leaves(item, k)
    elif isinstance(value, list):
        for item in value:
            yield from report_leaves(item, key)
    else:
        yield key, value


def json_report_calls(write_doc):
    """Every command on the fixture documents: lct and fiber over each
    target ray, base-inf at box 2, subdivide at the primitive part of the
    sum of a cone's rays and quotient on a quotient document of the fan;
    then the three experiments, at their defaults and on the ladders at
    epsilon 1/2."""
    for name in FIXTURE_NAMES:
        inst = fixture(name)
        fan, target = inst.pair.fan, inst.contraction.target
        path = write_doc(f"{name}.json", instance_to_doc(inst))
        basis = [tuple(2 if i == j == fan.rank - 1 else int(i == j)
                       for j in range(fan.rank)) for i in range(fan.rank)]
        quotient = write_doc(f"{name}_quotient.json",
                             quotient_to_doc(fan, Sublattice(fan.rank, basis)))
        at = primitive_part(tuple(map(sum, zip(*fan.max_cones[0].gens))))[0]
        yield ["quotient", "--input", quotient]
        for argv in (["validate"], ["classify"], ["mld"], ["fiber"], ["mfs-check"],
                     ["cover"], ["subdivide", "--at", ",".join(map(str, at))]):
            yield [argv[0], "--input", path, *argv[1:]]
        if target.rays:
            yield ["adjunction", "--input", path]
            yield ["base-inf", "--input", path, "--box", "2"]
        for w in target.rays:
            direction = f"--direction={','.join(map(str, w))}"
            yield ["lct", "--input", path, direction]
            yield ["fiber", "--input", path, direction]
    for experiment in ("multiplicity", "delta", "monotonicity"):
        yield ["catalog", "--experiment", experiment]
        yield ["catalog", "--experiment", experiment, "--family", "ladder", "--epsilon", "1/2"]


class TestRationalFields:

    def test_every_rational_is_written_once_as_text(self, run, write_doc):
        """Each rational field of a --json report is a "p/q" (or "p")
        string or null, never a JSON number, and no report holds a float."""
        seen, passed = set(), 0
        for argv in json_report_calls(write_doc):
            code, out, err = run([*argv, "--json"])
            assert code in (0, 1), (argv, err)
            if code:
                continue
            passed += 1
            for key, leaf in report_leaves(json.loads(out)):
                assert not isinstance(leaf, float), (argv, key, leaf)
                if key in RATIONAL_FIELDS and leaf is not None:
                    assert isinstance(leaf, str) and re.fullmatch(r"-?\d+(/\d+)?", leaf), \
                        (argv, key, leaf)
                    seen.add(key)
        assert passed > 150
        assert seen == RATIONAL_FIELDS


class TestCatalogCommand:

    def test_bare_listing(self, run):
        code, out, _ = run(["catalog", "--json"])
        doc = json.loads(out)
        assert "ladder" in doc["families"]
        assert "twisted3" in doc["fixtures"]

    def test_family_dump_is_loadable(self, run):
        code, out, _ = run(["catalog", "--family", "ladder", "--json"])
        doc = json.loads(out)
        assert len(doc["instances"]) == 11
        assert all({"pair", "contraction", "name"} <= set(i)
                   for i in doc["instances"])

    def test_fixture_dump(self, run):
        code, out, _ = run(["catalog", "--family", "fixtures", "--json"])
        assert len(json.loads(out)["instances"]) == 16

    def test_multiplicity_experiment(self, run):
        code, out, _ = run(["catalog", "--experiment", "multiplicity",
                            "--family", "ladder", "--epsilon", "2/5", "--json"])
        assert code == 0
        assert json.loads(out)["max_over_eps_lc"] == 5

    def test_delta_experiment(self, run):
        code, out, _ = run(["catalog", "--experiment", "delta",
                            "--family", "ladder", "--epsilon", "2/5",
                            "--alpha", "1/2", "--json"])
        assert json.loads(out)["min_over_eps_lc"] == "1/10"


# the documents and calls run under python -O: every --input-only command
# on x2, the commands that take more than --input, and the catalog
OPTIMIZED_DOCS = {
    "x2": lambda: instance_to_doc(fixture("x2")),
    "p2_quotient": lambda: quotient_to_doc(fixture("p2").pair.fan,
                                           Sublattice(2, [(1, 2), (0, 3)])),
}
OPTIMIZED_CALLS = [pytest.param("x2", [command], id=command)
                   for command in ("mld", "base-inf", "adjunction", "fiber",
                                   "mfs-check", "validate", "classify", "cover")]
OPTIMIZED_CALLS += [
    pytest.param("x2", ["lct", "--direction", "1"], id="lct"),
    pytest.param("x2", ["subdivide", "--at", "1,1"], id="subdivide"),
    pytest.param("p2_quotient", ["quotient"], id="quotient"),
    pytest.param(None, ["catalog"], id="catalog"),
    pytest.param(None, ["catalog", "--experiment", "multiplicity", "--family", "ladder"],
                 id="catalog-multiplicity"),
]


# runs each command line of a JSON list on stdin through main, in one process
OPTIMIZED_RUNNER = """
import io, json, sys
from contextlib import redirect_stdout
from toricfib.cli import main
reports = []
for argv in json.load(sys.stdin):
    out = io.StringIO()
    with redirect_stdout(out):
        reports.append([main(argv), out.getvalue()])
json.dump({"optimize": sys.flags.optimize, "reports": reports}, sys.stdout)
"""


@pytest.fixture(scope="module")
def optimized_reports(tmp_path_factory):
    """Each OPTIMIZED_CALLS command line, with its document written out,
    and the exit code and stdout of main under one python -O process."""
    folder = tmp_path_factory.mktemp("optimized")
    calls = []
    for param in OPTIMIZED_CALLS:
        doc, argv = param.values
        if doc is not None:
            path = folder / f"{doc}.json"
            path.write_text(to_json_text(OPTIMIZED_DOCS[doc]()))
            argv = [argv[0], "--input", str(path), *argv[1:]]
        calls.append(argv)
    proc = subprocess.run([sys.executable, "-O", "-c", OPTIMIZED_RUNNER],
                          input=json.dumps(calls), capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["optimize"] == 1
    return {param.id: (argv, *report)
            for param, argv, report in zip(OPTIMIZED_CALLS, calls, result["reports"])}


class TestOutputModes:

    def test_text_mode_is_flat_key_value(self, run, x2_instance):
        code, out, _ = run(["mfs-check", "--input", x2_instance])
        assert code == 0
        assert out == "fano_contraction: true\nmori_fiber_space: true\n"

    def test_out_file_matches_stdout(self, run, x2_instance, tmp_path):
        _, out, _ = run(["adjunction", "--input", x2_instance, "--json"])
        dest = tmp_path / "report.json"
        code, silent, _ = run(["adjunction", "--input", x2_instance,
                               "--json", "--out", str(dest)])
        assert code == 0
        assert silent == ""
        assert dest.read_text() == out

    def test_json_output_is_deterministic(self, run, x2_instance):
        _, first, _ = run(["adjunction", "--input", x2_instance, "--json"])
        _, second, _ = run(["adjunction", "--input", x2_instance, "--json"])
        assert first == second

    @pytest.mark.parametrize("doc, argv", OPTIMIZED_CALLS)
    def test_optimized_python_gives_the_same_report(self, run, optimized_reports,
                                                    request, doc, argv):
        # python -O strips assert statements; every check must survive it
        argv, optimized_code, optimized_out = optimized_reports[request.node.callspec.id]
        code, out, _ = run(argv)
        assert code == optimized_code == 0
        assert optimized_out == out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "toricfib.cli", "catalog"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert "families:" in proc.stdout
