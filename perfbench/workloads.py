"""The benchmark's four workloads, their inputs and their output checks.

A workload is a list of entries.  An entry is one kind of operation (a
rule on a random family, one CLI subcommand) with a pool of inputs made
from the seed.  The op stream visits the entries in a fixed interleaved
cycle and each entry's pool in order; every pool is exactly
``weight * cycles`` long, so all pools end together and one pass over
them is a fixed, repeatable sequence of ops.

Family seeds are ``base + SEED_STRIDE * seed``: seed 0 gives exactly the
acceptance gate's seeds (A4: 0, A5: 201-204, A8: 17).

Every op's output is checked by an invariant that holds on any seed and
is encoded canonically for the run's digest.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable, NamedTuple, Optional

SEED_STRIDE = 1000


@dataclass
class Entry:
    """One kind of op.  ``run`` is the timed call into the library;
    ``check`` returns a failure message or None; ``encode`` gives the
    canonical bytes hashed into the digest; ``truthful`` holds, for ops
    that search for deviations, the truthful outcome of each pool item
    (filled only for traced runs)."""

    label: str
    weight: int
    pool: list
    run: Callable
    check: Callable
    encode: Callable
    truthful_of: Optional[Callable] = None
    truthful: list = field(default_factory=list)


@dataclass
class Plan:
    """A workload's entries, how many cycles make one pass over every
    pool, and the latency percentile reported as its tail.  The tail is
    fixed per workload, so runs of different speed report the same
    percentile; it falls in the upper part of the slowest entry's
    latencies, with more than 20 samples beyond it in a default run, so
    that the few slowest inputs of one seed do not set it."""

    entries: list
    cycles: int
    tail_percentile: float

    def cycle_order(self) -> list:
        """Entry indices of one cycle, interleaved round robin."""
        order = []
        for turn in range(max(entry.weight for entry in self.entries)):
            order.extend(e for e, entry in enumerate(self.entries) if turn < entry.weight)
        return order


def family_seed(base: int, seed: int) -> int:
    return base + SEED_STRIDE * seed


def canon_outcome(outcome) -> str:
    if hasattr(outcome, "selection"):
        return "D" + ",".join(map(str, outcome.selection))
    return "R" + ";".join(
        ",".join(map(str, det.selection)) + "@" + str(prob) for det, prob in outcome.support
    )


def canon_witness(witness) -> bytes:
    if witness is None:
        return b"none"
    return "|".join(
        (
            ",".join(map(str, witness.coalition)),
            ",".join(map(str, witness.misreports)),
            canon_outcome(witness.outcome_before),
            canon_outcome(witness.outcome_after),
            ",".join(map(str, witness.costs_before)),
            ",".join(map(str, witness.costs_after)),
        )
    ).encode()


def replay_witness(lib, instance, rule, coalition, misreports, costs_before, costs_after):
    """Recompute a deviation on the validated instance path: every
    member's cost at its true location must match the reported costs and
    strictly drop.  Returns a failure message or None, and the truthful
    and shifted outcomes."""
    truthful = rule.apply(instance)
    agents = list(instance.agents)
    for i, report in zip(coalition, misreports):
        agents[i - 1] = report
    shifted = rule.apply(instance.replace_agents(agents))
    for i, before, after in zip(coalition, costs_before, costs_after):
        cost_before = lib.core.outcome_agent_cost(instance, truthful, i)
        cost_after = lib.core.outcome_agent_cost(instance, shifted, i)
        if (cost_before, cost_after) != (before, after) or not cost_after < cost_before:
            return f"witness cost of agent {i} does not strictly drop", (truthful, shifted)
    return None, (truthful, shifted)


def _family(lib, kind, n, m, k, base, seed):
    return lib.instances.RandomFamily(kind, n=n, m=m, k=k, seed=family_seed(base, seed))


def _instances(lib, family, count):
    return [lib.instances.random_instance(family, index) for index in range(count)]


# ---------------------------------------------------------------------------
# ratio-sweep: one op = one verify.iter_sweep row (generate, apply, cost, optimal)

# (label, kind, n, m, k, base seed, rule, objective, proven bound, weight)
RATIO_ENTRIES = (
    ("line k=1 leftmost mc", "line-uniform", 5, 4, 1, 0, "leftmost", "mc", 3, 11),
    ("line k=2 two-extremes mc", "line-uniform", 5, 4, 2, 0, "two-extremes", "mc", 3, 11),
    ("line k=2 two-extremes sc", "line-uniform", 5, 4, 2, 0, "two-extremes", "sc", 7, 11),
    ("metric dictator mc", "metric-closure", 4, 3, 1, 0, "dictator:1", "mc", 3, 11),
    ("line n=20 m=12 k=2 two-extremes sc", "line-uniform", 20, 12, 2, 0, "two-extremes", "sc", 37, 1),
    ("metric n=8 m=8 dictator mc", "metric-closure", 8, 8, 1, 0, "dictator:1", "mc", 3, 1),
)
RATIO_CYCLES = 260


class _SweepRows:
    """Hands out the rows of one iter_sweep generator; index 0 starts a
    new generator, so each pass over the pool re-runs the sweep."""

    def __init__(self, lib, family, rule, objective, count):
        self.lib, self.family, self.rule = lib, family, rule
        self.objective, self.count = objective, count
        self.rows = None

    def __call__(self, index):
        if index == 0:
            self.rows = self.lib.verify.iter_sweep(
                self.family, self.rule, self.objective, self.count
            )
        return next(self.rows)


def ratio_sweep(lib, seed: int, workdir: Path) -> Plan:
    entries = []
    for label, kind, n, m, k, base, rule, objective, bound, weight in RATIO_ENTRIES:
        count = weight * RATIO_CYCLES
        family = _family(lib, kind, n, m, k, base, seed)

        def check(index, row, bound=bound):
            if row.index != index:
                return f"row {row.index} where {index} was due"
            if not 1 <= row.ratio <= bound:
                return f"ratio {row.ratio} outside [1, {bound}]"
            return None

        entries.append(
            Entry(
                label,
                weight,
                list(range(count)),
                _SweepRows(lib, family, lib.mechanisms.parse_mechanism(rule), objective, count),
                check,
                lambda index, row: (
                    f"{row.index},{row.mechanism_cost},{row.optimal_cost},{row.ratio}".encode()
                ),
            )
        )
    return Plan(entries, RATIO_CYCLES, 99.5)


# ---------------------------------------------------------------------------
# unilateral-search and coalition-search: one op = one find_*_deviation call


def _search_entries(lib, rules, families, search) -> list:
    entries = []
    for family_name, rule_text, strategyproof in rules:
        instance_pool = families[family_name]
        rule = lib.mechanisms.parse_mechanism(rule_text)

        def check(instance, witness, rule=rule, strategyproof=strategyproof):
            if witness is None:
                return None
            if strategyproof:
                return f"{rule.label()} is strategyproof but a witness was returned"
            failure, outcomes = replay_witness(
                lib, instance, rule, witness.coalition, witness.misreports,
                witness.costs_before, witness.costs_after,
            )
            if failure is None and outcomes != (witness.outcome_before, witness.outcome_after):
                failure = "witness outcomes do not replay"
            return failure

        entries.append(
            Entry(
                f"{family_name} {rule_text}",
                1,
                instance_pool,
                lambda instance, rule=rule: search(instance, rule),
                check,
                lambda instance, witness: canon_witness(witness),
                truthful_of=lambda instance, rule=rule: rule.apply(instance),
            )
        )
    return entries


UNILATERAL_CYCLES = 100
# (family, rule, strategyproof); `mean` is the manipulable strawman
UNILATERAL_RULES = (
    ("line k=1", "leftmost", True),
    ("line k=1", "dictator:1", True),
    ("line k=1", "median", True),
    ("line k=1", "rd", True),
    ("line k=2", "two-extremes", True),
    ("line k=1", "mean", False),
    ("metric", "rd", True),
)


def unilateral_search(lib, seed: int, workdir: Path) -> Plan:
    count = UNILATERAL_CYCLES
    families = {
        "line k=1": _instances(lib, _family(lib, "line-uniform", 5, 4, 1, 201, seed), count),
        "line k=2": _instances(lib, _family(lib, "line-uniform", 5, 4, 2, 202, seed), count),
        "metric": _instances(lib, _family(lib, "metric-closure", 4, 3, 1, 0, seed), count),
    }

    def search(instance, rule):
        return lib.verify.find_unilateral_deviation(instance, rule)

    return Plan(_search_entries(lib, UNILATERAL_RULES, families, search), count, 98)


COALITION_CYCLES = 30
COALITION_RULES = (
    ("line k=1", "leftmost", True),
    ("line k=1", "dictator:1", True),
    ("line k=2", "two-extremes", True),
)


def coalition_search(lib, seed: int, workdir: Path) -> Plan:
    count = COALITION_CYCLES
    families = {
        "line k=1": _instances(lib, _family(lib, "line-uniform", 4, 3, 1, 203, seed), count),
        "line k=2": _instances(lib, _family(lib, "line-uniform", 4, 3, 2, 204, seed), count),
    }

    def search(instance, rule):
        return lib.verify.find_group_deviation(instance, rule, max_coalition=3, grid_points=3)

    return Plan(_search_entries(lib, COALITION_RULES, families, search), count, 90)


# ---------------------------------------------------------------------------
# cli-commands: one op = one in-process flgames.cli.main(argv), stdout captured

CLI_CYCLES = 48
REPLAY_CASES = (
    ("single-randomized", "rd"),
    ("single-deterministic", "leftmost"),
    ("two-deterministic", "two-extremes"),
    ("two-randomized", "two-extremes"),
)


class CliOutput(NamedTuple):
    code: int
    stdout: str


@dataclass
class CliItem:
    argv: list
    instance: object = None
    rule: object = None
    expected: object = None
    out_path: Optional[Path] = None


def cli_commands(lib, seed: int, workdir: Path) -> Plan:
    cli, parse = lib.cli, lib.mechanisms.parse_mechanism
    count = CLI_CYCLES
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"perfbench:cli:{seed}")

    def write(name, instance):
        path = workdir / name
        path.write_text(json.dumps(cli.instance_to_json(instance)), encoding="utf-8")
        return str(path)

    metric = _instances(lib, _family(lib, "metric-closure", 4, 3, 1, 0, seed), count)
    line = _instances(lib, _family(lib, "line-uniform", 5, 4, 1, 201, seed), count)
    small = _instances(lib, _family(lib, "line-uniform", 4, 3, 1, 203, seed), count)
    # seed 0 starts from the gate's 1/10; any eps in (0, 1) keeps the trap
    trap_eps = [Fraction(1, 10)] + [Fraction(rng.randrange(1, 10**6), 10**6) for _ in range(count - 1)]
    replay_eps = [Fraction(1, 10)] + [Fraction(rng.randrange(1, 10**6), 10**6) for _ in range(count - 1)]

    def run(item):
        stdout, stderr = io.StringIO(), io.StringIO()
        with redirect_stdout(stdout), redirect_stderr(stderr):
            code = lib.cli.main(item.argv)
        return CliOutput(code, stdout.getvalue())

    def encode(item, output):
        data = f"{output.code}\n{output.stdout}".encode()
        if item.out_path is not None:
            data += item.out_path.read_bytes()
        return data

    def checked(inner):
        def check(item, output):
            if output.code != 0:
                return f"exit code {output.code} for {item.argv[0]}"
            if item.out_path is not None:
                return inner(item, None)
            try:
                payload = json.loads(output.stdout)
            except json.JSONDecodeError:
                return f"{item.argv[0]} printed no JSON"
            return inner(item, payload)

        return check

    def check_solve(item, payload):
        if payload.get("optimal_value") != str(item.expected):
            return f"solve printed {payload.get('optimal_value')}, optimum is {item.expected}"
        return None

    def check_run(item, payload):
        ratio_mc = Fraction(payload["ratio_mc"])
        if not 1 <= ratio_mc <= 3 or Fraction(payload["ratio_sc"]) < 1:
            return f"run ratios {payload['ratio_mc']}, {payload['ratio_sc']} out of range"
        return None

    def check_witness(item, payload):
        if payload.get("result") != "witness":
            return "the mean trap produced no witness"
        costs = payload["costs"]
        failure, _ = replay_witness(
            lib, item.instance, item.rule, payload["coalition"],
            [Fraction(r) for r in payload["misreports"]],
            [Fraction(c["before"]) for c in costs],
            [Fraction(c["after"]) for c in costs],
        )
        return failure

    def check_clean(item, payload):
        if payload.get("result") != "none":
            return f"{item.rule.label()} is group strategyproof but verify found a witness"
        return None

    def check_sweep(item, payload):
        rows = list(csv.reader(io.StringIO(item.out_path.read_text(encoding="utf-8"))))
        body, footer = rows[1:-1], rows[-1]
        ratios = [Fraction(row[6]) for row in body]
        if len(body) != 200 or not all(1 <= r <= 7 for r in ratios):
            return "sweep rows missing or ratio outside [1, 7]"
        if footer[0] != "max" or Fraction(footer[6]) != max(ratios):
            return "sweep footer does not hold the maximum ratio"
        return None

    def check_replay(item, payload):
        if payload.get("command") != "replay" or payload.get("sp_violation") is not False:
            return "replay of a strategyproof rule reported a violation"
        return None

    solve, run_items, witness, clean, group, sweep, replay = ([] for _ in range(7))
    for q in range(count):
        solve.append(
            CliItem(
                ["solve", write(f"metric-{q}.json", metric[q]), "--objective", "mc"],
                expected=lib.solver.optimal(metric[q], "mc").value,
            )
        )
        run_items.append(CliItem(["run", write(f"line-{q}.json", line[q]), "--mechanism", "leftmost"]))
        trap = lib.instances.build_paper_instance(
            lib.instances.PaperConstruction("single-lb-I", eps=trap_eps[q])
        )
        witness.append(
            CliItem(
                ["verify", write(f"trap-{q}.json", trap), "--mechanism", "mean"],
                instance=trap,
                rule=parse("mean"),
            )
        )
        clean.append(
            CliItem(
                ["verify", str(workdir / f"line-{q}.json"), "--mechanism", "leftmost"],
                instance=line[q],
                rule=parse("leftmost"),
            )
        )
        group.append(
            CliItem(
                ["verify", write(f"small-{q}.json", small[q]), "--mechanism", "dictator:1",
                 "--group-max", "2", "--grid", "9"],
                instance=small[q],
                rule=parse("dictator:1"),
            )
        )
        out_path = workdir / f"sweep-{q}.csv"
        sweep.append(
            CliItem(
                ["sweep", "--family", "line-uniform", "--n", "5", "--m", "4",
                 "--seed", str(family_seed(17 + q, seed)),
                 "--mechanism", "two-extremes", "--k", "2", "--objective", "sc",
                 "--count", "200", "--out", str(out_path)],
                out_path=out_path,
            )
        )
        construction, rule_text = REPLAY_CASES[q % len(REPLAY_CASES)]
        replay.append(
            CliItem(
                ["replay", "--construction", construction, "--mechanism", rule_text,
                 "--epsilon", str(replay_eps[q])]
            )
        )

    def truthful(item):
        return item.rule.apply(item.instance)

    specs = (
        ("solve", solve, check_solve, None),
        ("run", run_items, check_run, None),
        ("verify witness", witness, check_witness, truthful),
        ("verify clean", clean, check_clean, truthful),
        ("verify group-max 2", group, check_clean, truthful),
        ("sweep --out", sweep, check_sweep, None),
        ("replay", replay, check_replay, None),
    )
    entries = [
        Entry(label, 1, pool, run, checked(check), encode, truthful_of=truth)
        for label, pool, check, truth in specs
    ]
    return Plan(entries, count, 98)


WORKLOADS = {
    "ratio-sweep": ratio_sweep,
    "unilateral-search": unilateral_search,
    "coalition-search": coalition_search,
    "cli-commands": cli_commands,
}
