"""Command line front end.

Instances travel as JSON files; every number crossing the interface is
an exact string (decimal or p/q), never binary floating point.  Reports
carry each value twice: the exact rational, and a readable decimal
approximation (DECIMAL_PLACES = 12 places, truncated) in a sibling
*_decimal field.

Exit codes: 0 success, 2 parse or usage failure (including an argument
out of range and an output file that cannot be written), 3 enumeration
guard exceeded, 4 mechanism/space mismatch, 141 stdout closed before
the output was written (the console script only).
The environment variable FLG_GUARD, a positive integer, overrides the
default enumeration guard of 10^7 for every subcommand.
The parser is built on the first main call and reused for the rest of
the process; FLG_GUARD, and every module name a handler calls, are
still read on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from .core import (
    OBJECTIVES,
    Deterministic,
    Instance,
    Line,
    Outcome,
    line_instance,
    metric_instance,
    parse_scalar,
)
from .instances import FAMILY_KINDS, RandomFamily
from .mechanisms import MechanismMismatch, parse_mechanism
from .solver import DEFAULT_GUARD, GuardExceeded, evaluate, optimal
from .verify import (
    DEFAULT_GRID_POINTS,
    REPLAY_CONSTRUCTIONS,
    _misreport_count,
    find_group_deviation,
    iter_sweep,
    joint_misreport_count,
    replay_lower_bound,
)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_GUARD = 3
EXIT_MISMATCH = 4
# what a shell reports for a process that SIGPIPE ended, 128 + 13
EXIT_PIPE = 141

DECIMAL_PLACES = 12


class InstanceParseError(ValueError):
    """Malformed instance file or malformed exact number."""


# ---------------------------------------------------------------------------
# exact serialization


def decimal_string(value: Fraction) -> str:
    """Decimal rendering of an exact rational to DECIMAL_PLACES places,
    truncated toward zero."""
    sign = "-" if value < 0 else ""
    whole, rem = divmod(abs(value.numerator), value.denominator)
    if rem == 0:
        return f"{sign}{whole}"
    digits = rem * 10**DECIMAL_PLACES // value.denominator
    frac = str(digits).rjust(DECIMAL_PLACES, "0").rstrip("0")
    return f"{sign}{whole}.{frac}" if frac else f"{sign}{whole}"


def put_scalar(payload: dict, key: str, value) -> None:
    """Store a ratio or cost under key plus key_decimal."""
    if isinstance(value, Fraction):
        payload[key] = str(value)
        payload[key + "_decimal"] = decimal_string(value)
    else:
        payload[key] = "inf"
        payload[key + "_decimal"] = "inf"


def _parse_exact(value, what: str) -> Fraction:
    if isinstance(value, float):
        raise InstanceParseError(
            f"{what}: floats are not exact, write the value as a string"
        )
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise InstanceParseError(f"{what}: expected an exact number, got {value!r}")
    try:
        return parse_scalar(value)
    except ValueError as exc:
        raise InstanceParseError(f"{what}: {exc}") from None


def _parse_index(value, what: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise InstanceParseError(f"{what}: expected an integer index, got {value!r}")
    return value


def instance_from_json(obj) -> Instance:
    """Parse the instance file schema; unknown fields are rejected."""
    if not isinstance(obj, dict):
        raise InstanceParseError("instance file must hold a JSON object")
    space = obj.get("space")
    if space == "line":
        required = {"space", "agents", "candidates", "k"}
    elif space == "metric":
        required = {"space", "points", "matrix", "agents", "candidates", "k"}
    else:
        raise InstanceParseError(f'space must be "line" or "metric", got {space!r}')
    if set(obj) != required:
        unknown = sorted(set(obj) - required)
        missing = sorted(required - set(obj))
        detail = []
        if unknown:
            detail.append(f"unknown fields {unknown}")
        if missing:
            detail.append(f"missing fields {missing}")
        raise InstanceParseError("; ".join(detail))
    k = _parse_index(obj["k"], "k")
    if not isinstance(obj["agents"], list) or not isinstance(obj["candidates"], list):
        raise InstanceParseError("agents and candidates must be arrays")
    try:
        if space == "line":
            agents = [_parse_exact(x, f"agents[{i}]") for i, x in enumerate(obj["agents"])]
            candidates = [
                _parse_exact(y, f"candidates[{i}]") for i, y in enumerate(obj["candidates"])
            ]
            return line_instance(agents, candidates, k)
        p = _parse_index(obj["points"], "points")
        matrix = obj["matrix"]
        if not isinstance(matrix, list) or len(matrix) != p or any(
            not isinstance(row, list) or len(row) != p for row in matrix
        ):
            raise InstanceParseError(f"matrix must be a {p}x{p} array")
        rows = [
            [_parse_exact(entry, f"matrix[{i}][{j}]") for j, entry in enumerate(row)]
            for i, row in enumerate(matrix)
        ]
        agents = [_parse_index(x, f"agents[{i}]") for i, x in enumerate(obj["agents"])]
        candidates = [
            _parse_index(y, f"candidates[{i}]") for i, y in enumerate(obj["candidates"])
        ]
        return metric_instance(rows, agents, candidates, k)
    except ValueError as exc:
        if isinstance(exc, InstanceParseError):
            raise
        raise InstanceParseError(str(exc)) from None


def _locations(instance: Instance, locations) -> list:
    """Points as an instance file writes them: exact strings on the line, indices on a metric."""
    if isinstance(instance.space, Line):
        return [str(x) for x in locations]
    return list(locations)


def instance_to_json(instance: Instance) -> dict:
    space = instance.space
    if isinstance(space, Line):
        payload = {"space": "line"}
    else:
        matrix = [[str(d) for d in row] for row in space.matrix]
        payload = {"space": "metric", "points": space.size, "matrix": matrix}
    payload["agents"] = _locations(instance, instance.agents)
    payload["candidates"] = _locations(instance, instance.candidates)
    payload["k"] = instance.k
    return payload


def load_instance(path: str) -> Instance:
    try:
        with open(path, encoding="utf-8") as handle:
            obj = json.load(handle)
    except OSError as exc:
        raise InstanceParseError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceParseError(f"invalid JSON in {path}: {exc}") from None
    return instance_from_json(obj)


def outcome_json(instance: Instance, outcome: Outcome) -> dict:
    if isinstance(outcome, Deterministic):
        return {
            "type": "deterministic",
            "selection": list(outcome.selection),
            "locations": _locations(instance, map(instance.candidate, outcome.selection)),
        }
    support = []
    for det, prob in outcome.support:
        entry = {
            "selection": list(det.selection),
            "locations": _locations(instance, map(instance.candidate, det.selection)),
        }
        put_scalar(entry, "probability", prob)
        support.append(entry)
    return {"type": "randomized", "support": support}


# ---------------------------------------------------------------------------
# commands


def cmd_solve(args, guard: int) -> int:
    instance = load_instance(args.instance)
    result = optimal(instance, args.objective, guard)
    payload = {
        "command": "solve",
        "objective": args.objective,
        "n": instance.n,
        "m": instance.m,
        "k": instance.k,
        "optimal_selections": [list(det.selection) for det in result.all_best],
    }
    put_scalar(payload, "optimal_value", result.value)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_run(args, guard: int) -> int:
    instance = load_instance(args.instance)
    mechanism = parse_mechanism(args.mechanism)
    outcome = mechanism.apply(instance)
    payload = {
        "command": "run",
        "mechanism": mechanism.label(),
        "outcome": outcome_json(instance, outcome),
    }
    for objective in OBJECTIVES:
        result = evaluate(instance, outcome, objective, guard)
        for key, value in zip(("cost", "optimal", "ratio"), result):
            put_scalar(payload, f"{key}_{objective}", value)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_verify(args, guard: int) -> int:
    instance = load_instance(args.instance)
    mechanism = parse_mechanism(args.mechanism)
    witness = find_group_deviation(instance, mechanism, args.group_max, args.grid, guard)
    if witness is None:
        tried = _misreport_count(instance, args.grid)[0] - 1
        payload = {
            "command": "verify",
            "mechanism": mechanism.label(),
            "result": "none",
            "searched": {
                "agents": instance.n,
                "grid_points": args.grid,
                "misreports_per_agent": [tried] * instance.n,
                "max_coalition": args.group_max,
                "joint_misreports": joint_misreport_count(instance.n, tried, args.group_max),
            },
        }
    else:
        costs = []
        for agent, before, after in zip(
            witness.coalition, witness.costs_before, witness.costs_after
        ):
            entry = {"agent": agent}
            put_scalar(entry, "before", before)
            put_scalar(entry, "after", after)
            costs.append(entry)
        payload = {
            "command": "verify",
            "mechanism": mechanism.label(),
            "result": "witness",
            "coalition": list(witness.coalition),
            "misreports": _locations(instance, witness.misreports),
            "outcome_before": outcome_json(instance, witness.outcome_before),
            "outcome_after": outcome_json(instance, witness.outcome_after),
            "costs": costs,
        }
    print(json.dumps(payload, indent=2))
    return EXIT_OK


def cmd_sweep(args, guard: int) -> int:
    family = RandomFamily(args.family, args.n, args.m, args.k, args.seed)
    mechanism = parse_mechanism(args.mechanism)
    lines = ["index,n,m,k,mech_cost,opt_cost,ratio"]
    # every instance of a family has its n, m and k
    sizes = f"{family.n},{family.m},{family.k}"
    worst = None
    for row in iter_sweep(family, mechanism, args.objective, args.count, guard):
        lines.append(f"{row.index},{sizes},{row.mechanism_cost},{row.optimal_cost},{row.ratio}")
        if worst is None or row.ratio > worst:
            worst = row.ratio
    lines.append(f"max,,,,,,{'n/a' if worst is None else worst}")
    text = "\n".join(lines) + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8", newline="") as handle:
                handle.write(text)
        except OSError as exc:
            print(f"cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_PARSE
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_replay(args, guard: int) -> int:
    mechanism = parse_mechanism(args.mechanism)
    eps = _parse_exact(args.epsilon, "--epsilon")
    report = replay_lower_bound(
        args.construction, mechanism, eps=eps, far=_parse_exact(args.L, "--L"), guard=guard
    )
    payload = {
        "command": "replay",
        "construction": args.construction,
        "mechanism": mechanism.label(),
    }
    put_scalar(payload, "epsilon", eps)
    if report.far is not None:
        put_scalar(payload, "far", report.far)
    put_scalar(payload, "bound", report.bound)
    payload["outcome_base"] = outcome_json(report.instance_base, report.outcome_base)
    payload["outcome_shifted"] = outcome_json(report.instance_shifted, report.outcome_shifted)
    put_scalar(payload, "ratio_base", report.ratio_base)
    put_scalar(payload, "ratio_shifted", report.ratio_shifted)
    payload["beats_bound"] = report.beats_bound
    manipulation = {"agent": report.manipulator, "misreport": str(report.misreport)}
    put_scalar(manipulation, "cost_truthful", report.cost_truthful)
    put_scalar(manipulation, "cost_misreport", report.cost_misreport)
    put_scalar(manipulation, "margin", report.margin)
    payload["manipulation"] = manipulation
    payload["sp_violation"] = report.sp_violation
    if report.far_missing_base is not None:
        put_scalar(payload, "far_missing_base", report.far_missing_base)
        put_scalar(payload, "far_missing_shifted", report.far_missing_shifted)
    print(json.dumps(payload, indent=2))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flgames",
        description="Facility location games with candidate locations: "
        "exact mechanisms, optima, and falsification.",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    solve = sub.add_parser("solve", help="exact optimum of an instance file")
    solve.add_argument("instance")
    solve.add_argument("--objective", choices=OBJECTIVES, required=True)
    solve.set_defaults(handler=cmd_solve)

    run = sub.add_parser("run", help="run a mechanism on an instance file")
    run.add_argument("instance")
    run.add_argument("--mechanism", required=True)
    run.set_defaults(handler=cmd_run)

    verify = sub.add_parser("verify", help="search for profitable misreports")
    verify.add_argument("instance")
    verify.add_argument("--mechanism", required=True)
    verify.add_argument("--group-max", type=int, default=1)
    verify.add_argument("--grid", type=int, default=DEFAULT_GRID_POINTS)
    verify.set_defaults(handler=cmd_verify)

    sweep = sub.add_parser("sweep", help="ratio sweep over a random family (CSV)")
    sweep.add_argument("--family", choices=FAMILY_KINDS, required=True)
    sweep.add_argument("--n", type=int, required=True)
    sweep.add_argument("--m", type=int, required=True)
    sweep.add_argument("--k", type=int, default=1)
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--mechanism", required=True)
    sweep.add_argument("--objective", choices=OBJECTIVES, required=True)
    sweep.add_argument("--count", type=int, required=True)
    sweep.add_argument("--out")
    sweep.set_defaults(handler=cmd_sweep)

    replay = sub.add_parser("replay", help="run a lower-bound construction")
    replay.add_argument("--construction", choices=REPLAY_CONSTRUCTIONS, required=True)
    replay.add_argument("--mechanism", required=True)
    replay.add_argument("--epsilon", required=True)
    replay.add_argument("--L", default="1000")
    replay.set_defaults(handler=cmd_replay)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # parse_args leaves the parser as it was, so one serves every call
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_PARSE
    guard = DEFAULT_GUARD
    raw_guard = os.environ.get("FLG_GUARD")
    if raw_guard:
        try:
            guard = int(raw_guard)
        except ValueError:
            guard = 0  # reported below with the other non-positive values
        if guard <= 0:
            print(f"FLG_GUARD must be a positive integer, got {raw_guard!r}", file=sys.stderr)
            return EXIT_PARSE
    try:
        return args.handler(args, guard)
    except InstanceParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except GuardExceeded as exc:
        print(f"guard exceeded: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except MechanismMismatch as exc:
        print(f"mechanism mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except ValueError as exc:
        # an argument the library rejects, e.g. --group-max above n
        print(f"invalid argument: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout; as Python's signal docs advise ("Note
        # on SIGPIPE"), point stdout at devnull so that the interpreter's
        # final flush does not raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_PIPE
    sys.exit(code)


if __name__ == "__main__":
    entry()
