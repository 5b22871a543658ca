"""JSON documents for fans, pairs, contractions, and quotient data.

Rationals travel as "p/q" strings (plain "p" for integers), never as
floats.  Every object is checked here, as it is read: each fan by
validate_fan, each sublattice for finite index, each contraction by
validate_contraction.  Document shape errors, and a fan that is not
complete with more pairs of cones than fan.SCAN_BUDGET, raise
DocumentError; mathematical errors found while validating the parsed
objects propagate as ToricError.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

from .divisors import InvariantDivisor
from .errors import DocumentError
from .fan import Fan, validate_fan
from .fibration import ToricContraction, validate_contraction
from .lattice import IntMatrix, Sublattice
from .pair import BoundaryData, GenericMember, ToricPair, build_pair


def fraction_to_text(x) -> str:
    return str(Fraction(x))


def fraction_from_text(s) -> Fraction:
    if isinstance(s, float):
        raise DocumentError(f"rational expected, got float {s!r}")
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as exc:
        raise DocumentError(f"bad rational {s!r}") from exc


def _int_vector(item) -> tuple[int, ...]:
    if not isinstance(item, (list, tuple)) or not all(
            isinstance(x, int) and not isinstance(x, bool) for x in item):
        raise DocumentError(f"integer vector expected, got {item!r}")
    return tuple(item)


def _require(doc: dict, key: str):
    if not isinstance(doc, dict) or key not in doc:
        raise DocumentError(f"missing key {key!r}")
    return doc[key]


def _require_list(doc: dict, key: str) -> list:
    value = _require(doc, key)
    if not isinstance(value, (list, tuple)):
        raise DocumentError(f"{key!r} must be a list, got {value!r}")
    return value


def fan_to_doc(fan: Fan) -> dict:
    return {
        "rank": fan.rank,
        "rays": [list(r) for r in fan.rays],
        "max_cones": [[fan.ray_index[g] for g in c.gens] for c in fan.max_cones],
    }


def fan_from_doc(doc: dict) -> Fan:
    rank = _require(doc, "rank")
    if not isinstance(rank, int) or isinstance(rank, bool) or rank < 0:
        raise DocumentError(f"bad rank {rank!r}")
    rays = [_int_vector(r) for r in _require_list(doc, "rays")]
    first: dict = {}
    for i, r in enumerate(rays):
        if len(r) != rank:
            raise DocumentError(f"ray {list(r)} has {len(r)} coordinates, the rank is {rank}")
        if first.setdefault(r, i) != i:
            raise DocumentError(f"ray {list(r)} is listed twice")
    cones: dict = {}
    for c in _require_list(doc, "max_cones"):
        idx = _int_vector(c)
        if any(i < 0 or i >= len(rays) for i in idx):
            raise DocumentError(f"cone {c!r} references a missing ray")
        repeated = next((i for i in idx if idx.count(i) > 1), None)
        if repeated is not None:
            raise DocumentError(f"cone {c!r} lists ray index {repeated} twice")
        if (earlier := cones.get(frozenset(idx))) is not None:
            raise DocumentError(f"cone {c!r} lists the rays of cone {list(earlier)} again")
        cones[frozenset(idx)] = idx
    fan = Fan.from_rays_and_cones(rank, rays, cones.values())
    unused = next((r for r in rays if r not in fan.ray_index), None)
    if unused is not None:
        raise DocumentError(f"ray {list(unused)} is in no maximal cone")
    validate_fan(fan)
    return fan


def _coeff_map_to_doc(coeffs) -> dict:
    return {str(i): fraction_to_text(c) for i, c in enumerate(coeffs)}


def _coeff_map_from_doc(doc, positions) -> tuple[Fraction, ...]:
    """Coefficients on the sorted rays of a fan from a map keyed by the
    index of a ray in the document, written as str(i); document ray i is
    sorted ray positions[i]."""
    if not isinstance(doc, dict):
        raise DocumentError("coefficient map expected")
    out = [Fraction(0)] * len(positions)
    for key, val in doc.items():
        try:
            i = int(key)
        except ValueError as exc:
            raise DocumentError(f"bad ray index {key!r}") from exc
        if str(i) != key:
            raise DocumentError(f"bad ray index {key!r}")
        if i < 0 or i >= len(positions):
            raise DocumentError(f"ray index {key} out of range")
        out[positions[i]] = fraction_from_text(val)
    return tuple(out)


def pair_to_doc(pair: ToricPair) -> dict:
    boundary = {"coeffs": _coeff_map_to_doc(pair.boundary.ray_coeffs)}
    if pair.boundary.generic:
        boundary["generic"] = [
            {"b": fraction_to_text(gm.coeff),
             "class": {"coeffs": _coeff_map_to_doc(gm.rep.coeffs)}}
            for gm in pair.boundary.generic]
    return {"fan": fan_to_doc(pair.fan), "boundary": boundary}


def pair_from_doc(doc: dict) -> ToricPair:
    fdoc = _require(doc, "fan")
    fan = fan_from_doc(fdoc)
    positions = [fan.ray_index[tuple(r)] for r in fdoc["rays"]]
    bdoc = _require(doc, "boundary")
    coeffs = _coeff_map_from_doc(_require(bdoc, "coeffs"), positions)
    generic = []
    for g in _require_list(bdoc, "generic") if "generic" in bdoc else ():
        b = fraction_from_text(_require(g, "b"))
        cdoc = _require(g, "class")
        rep = InvariantDivisor.make(
            fan, _coeff_map_from_doc(_require(cdoc, "coeffs"), positions))
        generic.append(GenericMember(b, rep))
    return build_pair(fan, BoundaryData(coeffs, tuple(generic)),
                      allow_subpair=True)


def matrix_to_doc(m: IntMatrix) -> list:
    return [list(r) for r in m.rows]


def matrix_from_doc(doc, ncols: int) -> IntMatrix:
    if not isinstance(doc, list):
        raise DocumentError("matrix expected")
    rows = [_int_vector(r) for r in doc]
    if any(len(r) != ncols for r in rows):
        raise DocumentError(f"matrix rows must all have length {ncols}")
    return IntMatrix.from_rows(rows, ncols=ncols)


def contraction_to_doc(f: ToricContraction) -> dict:
    return {
        "source": fan_to_doc(f.source),
        "target": fan_to_doc(f.target),
        "pi": matrix_to_doc(f.pi),
    }


def contraction_from_doc(doc: dict) -> ToricContraction:
    return _contraction_from(fan_from_doc(_require(doc, "source")), doc)


def _contraction_from(src: Fan, doc: dict) -> ToricContraction:
    """The contraction of the document doc out of the already read source."""
    tgt = fan_from_doc(_require(doc, "target"))
    pi = matrix_from_doc(_require(doc, "pi"), ncols=src.rank)
    if pi.nrows != tgt.rank:
        raise DocumentError("projection shape does not match the fans")
    return validate_contraction(src, tgt, pi)


@dataclass(frozen=True)
class Instance:
    """A pair together with a contraction of its fan."""

    pair: ToricPair
    contraction: ToricContraction
    name: str = ""

    def document(self) -> dict:
        return instance_to_doc(self)


def instance_to_doc(inst: Instance) -> dict:
    doc = {"pair": pair_to_doc(inst.pair),
           "contraction": contraction_to_doc(inst.contraction)}
    if inst.name:
        doc["name"] = inst.name
    return doc


def _same_value(a, b) -> bool:
    """Equal, with the same type at every place: 2 and 2.0 or true differ.
    b is a checked fan field, nested at most 3 deep, and so is the recursion."""
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(_same_value, a, b))
    return a == b


def instance_from_doc(doc: dict) -> Instance:
    """The instance of doc.  A contraction source whose rank, rays and
    max_cones, the keys fan_from_doc reads, are written exactly as the
    pair's fan's is that fan, and is not read a second time."""
    pair = pair_from_doc(_require(doc, "pair"))
    cdoc = _require(doc, "contraction")
    sdoc = _require(cdoc, "source")
    fdoc = doc["pair"]["fan"]
    same = isinstance(sdoc, dict) and all(
        _same_value(sdoc.get(k), fdoc[k]) for k in ("rank", "rays", "max_cones"))
    f = _contraction_from(pair.fan if same else fan_from_doc(sdoc), cdoc)
    if pair.fan != f.source:
        raise DocumentError("pair fan and contraction source disagree")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise DocumentError("instance name must be a string")
    return Instance(pair, f, name)


def quotient_to_doc(fan: Fan, sub: Sublattice) -> dict:
    return {"fan": fan_to_doc(fan),
            "sublattice": [list(b) for b in sub.basis]}


def quotient_from_doc(doc: dict) -> tuple[Fan, Sublattice]:
    fan = fan_from_doc(_require(doc, "fan"))
    gens = [_int_vector(g) for g in _require_list(doc, "sublattice")]
    if any(len(g) != fan.rank for g in gens):
        raise DocumentError("sublattice generators have the wrong length")
    sub = Sublattice(fan.rank, gens)
    sub.index()  # refuses a sublattice of infinite index
    return fan, sub


def load_document(doc):
    """Sniff a parsed JSON object by shape.

    Returns a Fan, ToricPair, ToricContraction, Instance, or the
    (Fan, Sublattice) tuple of a quotient document.
    """
    if not isinstance(doc, dict):
        raise DocumentError("document must be a JSON object")
    if "pair" in doc and "contraction" in doc:
        return instance_from_doc(doc)
    if "pi" in doc:
        return contraction_from_doc(doc)
    if "sublattice" in doc:
        return quotient_from_doc(doc)
    if "boundary" in doc:
        return pair_from_doc(doc)
    if "max_cones" in doc:
        return fan_from_doc(doc)
    raise DocumentError("unrecognized document shape")


def parse_text(text: str):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:  # an integer longer than Python's int-string limit
        raise DocumentError(f"invalid JSON: {str(exc).split(';')[0]}") from exc
    except RecursionError as exc:
        raise DocumentError("invalid JSON: nested too deeply") from exc
    return load_document(doc)


def to_json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
