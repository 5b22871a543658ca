"""Command line driver.

Every subcommand reads JSON documents, computes exact rational reports,
and writes them as indented JSON (--json) or indented text.  Exit codes:
0 on success, 1 when the mathematics rejects the input (a ToricError),
2 on unreadable or malformed documents and bad usage.
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields, is_dataclass
from fractions import Fraction
from pathlib import Path

from .catalog import FAMILY_NAMES, FIXTURE_NAMES, generate_family
from .cover import pr_cover, quotient_by_sublattice
from .errors import DocumentError, ToricError, UnknownFamilyError
from .experiments import (
    ExperimentConfig,
    config_instances,
    run_delta_experiment,
    run_monotonicity_experiment,
    run_multiplicity_experiment,
)
from .fan import Fan, classify_fan, star_subdivide
from .fibration import (
    ToricContraction,
    base_lct_infimum,
    discriminant_divisor,
    fiber_multiplicities_over,
    general_fiber_and_split,
    is_fano_contraction,
    is_mori_fiber_space,
    lct_over_direction,
)
from .pair import BoundaryData, ToricPair, build_pair, crepant_transfer, mld_and_eps_check
from .serialize import (
    Instance,
    fan_to_doc,
    fraction_to_text,
    instance_to_doc,
    pair_to_doc,
    parse_text,
    to_json_text,
)


def _load(path: str):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    return parse_text(text)


def _need_fan(obj) -> Fan:
    if isinstance(obj, Fan):
        return obj
    if isinstance(obj, ToricPair):
        return obj.fan
    if isinstance(obj, Instance):
        return obj.pair.fan
    if isinstance(obj, ToricContraction):
        return obj.source
    raise DocumentError("this command needs a fan document")


def _need_pair(obj) -> ToricPair:
    if isinstance(obj, ToricPair):
        return obj
    if isinstance(obj, (Instance, ToricContraction)):
        return _need_instance(obj).pair
    if isinstance(obj, Fan):
        return build_pair(obj, BoundaryData.zero(obj))
    raise DocumentError(
        "this command needs a pair, fan, instance or contraction document")


def _need_instance(obj) -> Instance:
    """An instance document, or a bare contraction taken with the empty
    boundary on its source."""
    if isinstance(obj, Instance):
        return obj
    if isinstance(obj, ToricContraction):
        return Instance(build_pair(obj.source, BoundaryData.zero(obj.source)), obj)
    raise DocumentError("this command needs an instance (pair + contraction) document")


def _vector(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}")


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"expected a rational p/q, got {text!r}")


def _sized(vector: tuple[int, ...], rank: int, flag: str) -> tuple[int, ...]:
    """The vector, checked to have one coordinate per lattice direction."""
    if len(vector) != rank:
        raise DocumentError(
            f"{flag} needs {rank} coordinates, got {len(vector)}")
    return vector


def _plain(value):
    """Report data: each Fraction as its "p/q" text, each tuple as a list
    and each dataclass as the dict of its fields, in field order."""
    if isinstance(value, Fraction):
        return fraction_to_text(value)
    if is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, dict):
        return {key: _plain(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(item) for item in value]
    return value


def _flat(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    return str(value)


def _is_nested(value) -> bool:
    if isinstance(value, dict):
        return bool(value)
    if isinstance(value, list):
        return any(isinstance(v, dict) for v in value)
    return False


def _render_into(value, prefix: str, lines: list) -> None:
    if isinstance(value, dict):
        for key, item in value.items():
            if _is_nested(item):
                lines.append(f"{prefix}{key}:")
                _render_into(item, prefix + "  ", lines)
            else:
                lines.append(f"{prefix}{key}: {_flat(item)}")
    else:
        for item in value:
            if _is_nested(item) or isinstance(item, dict):
                lines.append(f"{prefix}-")
                _render_into(item, prefix + "  ", lines)
            else:
                lines.append(f"{prefix}- {_flat(item)}")


def _emit(args, payload) -> None:
    report = _plain(payload)
    if args.json:
        text = to_json_text(report)
    else:
        lines: list = []
        _render_into(report, "", lines)
        text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)


def _fan_report(role: str, fan: Fan) -> dict:
    return {"role": role, "rank": fan.rank, "rays": len(fan.rays),
            "max_cones": len(fan.max_cones)}


def cmd_validate(args) -> dict:
    obj = _load(args.input)
    if isinstance(obj, Fan):
        kind, reports = "fan", [_fan_report("fan", obj)]
    elif isinstance(obj, ToricPair):
        kind, reports = "pair", [_fan_report("fan", obj.fan)]
    elif isinstance(obj, ToricContraction):
        kind = "contraction"
        reports = [_fan_report("source", obj.source),
                   _fan_report("target", obj.target)]
    elif isinstance(obj, Instance):
        kind = "instance"
        reports = [_fan_report("source", obj.pair.fan),
                   _fan_report("target", obj.contraction.target)]
    else:
        fan, sub = obj
        kind = "quotient"
        reports = [_fan_report("fan", fan)]
        reports[0]["sublattice_rank"] = len(sub.basis)
    return {"kind": kind, "valid": True, "fans": reports}


def cmd_classify(args) -> dict:
    fan = _need_fan(_load(args.input))
    cls = classify_fan(fan)
    return {"rank": fan.rank, "rays": fan.rays,
            "simplicial": cls.simplicial, "smooth": cls.smooth,
            "complete": cls.complete}


def cmd_mld(args) -> dict:
    pair = _need_pair(_load(args.input))
    res = mld_and_eps_check(pair, args.epsilon)
    return {"mld": res.mld_toric, "epsilon": args.epsilon, "eps_lc": res.eps_lc,
            "witness": res.witness, "generic_floor": res.generic_floor}


def cmd_lct(args) -> dict:
    inst = _need_instance(_load(args.input))
    direction = _sized(args.direction, inst.contraction.target.rank, "--direction")
    res = lct_over_direction(inst.pair, inst.contraction, direction)
    return {"direction": args.direction, "t": res.t, "witness": res.witness}


def cmd_adjunction(args) -> dict:
    inst = _need_instance(_load(args.input))
    adj = discriminant_divisor(inst.pair, inst.contraction)
    target = inst.contraction.target
    return {
        "discriminant": [{"ray": w, "coeff": c}
                         for w, c in zip(target.rays, adj.discriminant.coeffs)],
        "moduli_class": adj.moduli_class,
        "moduli_degree": sum(adj.moduli_class, Fraction(0)),
        "descended_class": adj.descended_class,
        "witnesses": [{"ray": w, "source_ray": u, "t": t} for w, u, t in adj.witnesses],
    }


def cmd_base_inf(args) -> dict:
    if args.box < 1:
        raise DocumentError(f"--box must be at least 1, got {args.box}")
    inst = _need_instance(_load(args.input))
    res = base_lct_infimum(inst.pair, inst.contraction, args.box)
    return {"delta": res.delta, "witness_direction": res.witness_direction,
            "box": args.box, "oracle_delta": res.oracle_delta, "exact": res.exact}


def cmd_fiber(args) -> dict:
    inst = _need_instance(_load(args.input))
    f = inst.contraction
    if args.direction is not None:
        mults = fiber_multiplicities_over(
            f, _sized(args.direction, f.target.rank, "--direction"))
        return {"direction": args.direction,
                "fibers": [{"ray": v, "multiplicity": m} for v, m in mults],
                "max_multiplicity": max(m for _, m in mults)}
    data = general_fiber_and_split(f)
    return {"fiber_fan": fan_to_doc(data.fiber_fan), "kernel_basis": data.kernel_basis,
            "split_section": data.split_section}


def cmd_mfs_check(args) -> dict:
    inst = _need_instance(_load(args.input))
    return {"fano_contraction": is_fano_contraction(inst.pair, inst.contraction),
            "mori_fiber_space": is_mori_fiber_space(inst.pair, inst.contraction)}


def cmd_cover(args) -> dict:
    inst = _need_instance(_load(args.input))
    data, report = pr_cover(inst.contraction, inst.pair)
    return {"degree": report.degree, "sublattice": data.sublattice.basis,
            "fiber_is_projective_space": report.fiber_is_projective_space}


def cmd_quotient(args) -> dict:
    obj = _load(args.input)
    if not isinstance(obj, tuple):
        raise DocumentError("this command needs a quotient (fan + sublattice) document")
    fan, sub = obj
    data = quotient_by_sublattice(fan, sub)
    return {"degree": data.degree, "cover_fan": fan_to_doc(data.cover_fan),
            "inclusion": data.inclusion.rows}


def cmd_subdivide(args) -> dict:
    obj = _load(args.input)
    if isinstance(obj, Fan):
        return fan_to_doc(star_subdivide(obj, _sized(args.at, obj.rank, "--at")))
    pair = _need_pair(obj)
    refined = star_subdivide(pair.fan, _sized(args.at, pair.fan.rank, "--at"))
    return pair_to_doc(crepant_transfer(pair, refined))


def _experiment_config(args) -> ExperimentConfig:
    families = (args.family,) if args.family else FAMILY_NAMES
    try:
        return ExperimentConfig(epsilon=args.epsilon, alpha=args.alpha,
                                box=args.box, families=families,
                                seed=args.seed)
    except ValueError as exc:
        raise DocumentError(str(exc))


def cmd_catalog(args):
    if args.experiment == "multiplicity":
        return run_multiplicity_experiment(_experiment_config(args))
    if args.experiment == "delta":
        return run_delta_experiment(_experiment_config(args))
    if args.experiment == "monotonicity":
        cfg = _experiment_config(args)
        if not any(inst.contraction.target.rays for inst in config_instances(cfg)):
            raise DocumentError("the selected families have no positive-dimensional bases")
        return run_monotonicity_experiment(cfg)
    if not args.family:
        return {"fixtures": FIXTURE_NAMES, "families": FAMILY_NAMES}
    try:
        instances = generate_family(args.family)
    except UnknownFamilyError as exc:
        raise DocumentError(str(exc))
    return {"instances": [instance_to_doc(inst) for inst in instances]}


class _Parser(argparse.ArgumentParser):
    """Reads a comma-separated vector with a leading minus, such as -1,0,
    as a value.  Plain argparse takes only negative numbers as values and
    reads --direction -1,0 as a flag missing its argument."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(,-?\d+)*$|^-\d*\.\d+$")


_INPUT = ("--input", {"required": True, "help": "input JSON document"})

# each command: its help line, its handler and its own arguments
COMMANDS = {
    "validate": ("check a document and the fan axioms", cmd_validate, [_INPUT]),
    "classify": ("simplicial / smooth / complete flags of a fan", cmd_classify, [_INPUT]),
    "mld": ("minimal log discrepancy and eps-lc verdict", cmd_mld,
            [_INPUT, ("--epsilon", {"type": _fraction, "default": Fraction(1)})]),
    "lct": ("lc threshold over a divisorial direction of the base", cmd_lct,
            [_INPUT, ("--direction", {"type": _vector, "required": True,
                                      "help": "target lattice vector, comma-separated"})]),
    "adjunction": ("discriminant and moduli data over the base", cmd_adjunction, [_INPUT]),
    "base-inf": ("infimum of lc thresholds over all base directions", cmd_base_inf,
                 [_INPUT, ("--box", {"type": int, "default": 4, "help": "oracle box half-width; "
                           "exact: the face walk agrees with the exact lct on its directions"})]),
    "fiber": ("general fiber data, or multiplicities over a direction", cmd_fiber,
              [_INPUT, ("--direction", {"type": _vector, "default": None})]),
    "mfs-check": ("Fano contraction and Mori fiber space verdicts", cmd_mfs_check, [_INPUT]),
    "cover": ("finite cover splitting off a projective-space fiber", cmd_cover, [_INPUT]),
    "quotient": ("quotient of a fan by a finite-index sublattice", cmd_quotient, [_INPUT]),
    "subdivide": ("star subdivision, transporting a pair crepantly", cmd_subdivide,
                  [_INPUT, ("--at", {"type": _vector, "required": True,
                                     "help": "primitive lattice point, comma-separated"})]),
    "catalog": ("list or emit built-in instances, or run an experiment", cmd_catalog,
                [("--family", {"help": "one family name, or 'fixtures'"}),
                 ("--experiment", {"choices": ("multiplicity", "delta", "monotonicity")}),
                 ("--epsilon", {"type": _fraction, "default": Fraction(1)}),
                 ("--alpha", {"type": _fraction, "default": Fraction(1, 2)}),
                 ("--box", {"type": int, "default": 4}),
                 ("--seed", {"type": int, "default": 0})]),
}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, built only for help and usage errors:
    main reads a well-formed call with _read_argv."""
    parser = _Parser(
        prog="toricfib",
        description="exact invariants of toric pairs and contractions")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, handler, arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=help_line)
        p.add_argument("--json", action="store_true",
                       help="emit JSON instead of indented text")
        p.add_argument("--out", help="write the report to this file")
        for flag, keywords in arguments:
            p.add_argument(flag, **keywords)
        p.set_defaults(handler=handler)
    return parser


def _read_argv(argv) -> argparse.Namespace | None:
    """The namespace argparse gives a command followed by its own long
    flags, each as --flag value, --flag=value or --json; None for anything
    else (-h, an abbreviation, a stray token, a value starting with -, a
    bad or missing value), which argparse reads and reports."""
    if not argv or argv[0] not in COMMANDS:
        return None
    _, handler, arguments = COMMANDS[argv[0]]
    options = {"--out": {}, **dict(arguments)}
    values = {flag: keywords.get("default") for flag, keywords in options.items()}
    as_json = False
    tokens = iter(argv[1:])
    for token in tokens:
        if token == "--json":
            as_json = True
            continue
        flag, equals, text = token.partition("=")
        if flag not in options:
            return None
        if not equals:
            text = next(tokens, None)
            if text is None or text.startswith("-"):
                return None
        keywords = options[flag]
        try:
            values[flag] = keywords.get("type", str)(text)
        except (argparse.ArgumentTypeError, ValueError):
            return None
        if "choices" in keywords and values[flag] not in keywords["choices"]:
            return None
    if any(keywords.get("required") and values[flag] is None for flag, keywords in arguments):
        return None
    return argparse.Namespace(command=argv[0], handler=handler, json=as_json, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        try:
            args = _build_parser().parse_args(argv)
        except SystemExit as exc:
            return exc.code if isinstance(exc.code, int) else 2
    try:
        payload = args.handler(args)
        _emit(args, payload)
    except (DocumentError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ToricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
