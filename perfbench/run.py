"""flgames benchmark: four closed-loop workloads run from one
single-threaded process, with every output checked.

    python3 perfbench/run.py --workload ratio-sweep --seed 0 --seconds 28 --trace 0
    python3 perfbench/run.py --workload all           # every workload, one table

With ``--trace 0`` the run sends ops for ``--seconds`` seconds and at
least one full pass over the inputs, stopping at a cycle boundary, and
prints the end-to-end metrics, every time scaled to a reference host
speed (see ``reference_ns``).  Its ``setup_s`` is the median of five
set-ups, each a fresh process timed from its start to the point where
its first op could run (interpreter start, import, input generation,
one warm-up op per entry); they run one at a time, spread over the run,
outside the timed ops.  With ``--trace 1`` it runs one fixed pass over
the inputs untraced and the same pass traced, so its counts repeat
exactly, and prints the per-layer metrics.  The last line of stdout is
one JSON object; a readable summary goes to stderr, and details and
spans go to ``.bench_out/`` at the repository root.  The exit code is 1
when any op failed its check.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter_ns  # noqa: E402
from types import SimpleNamespace  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
DIGESTS = Path(__file__).resolve().parent / "digests.json"

SETUP_REPEATS = 5
# On a shared host this process's speed swings by up to 1.8x in episodes
# of seconds to minutes, which no run length averages out.  Every timed
# figure is therefore scaled to a reference host speed: the speed at which
# reference_ns() takes REFERENCE_NS, about this loop's time on an idle
# 2-vCPU VM with Python 3.11.  The loop runs at every cycle boundary and
# around every set-up, so the scale follows the host's swings.
REFERENCE_NS = 1_000_000
MODULES = ("core", "instances", "mechanisms", "solver", "verify", "cli")

END_TO_END_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_us": "us",
    "op_tail_us": "us",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}


def load_library() -> SimpleNamespace:
    """Import the package from this checkout's src/."""
    package = importlib.import_module("flgames")
    if Path(package.__file__).resolve().parent != (SRC / "flgames").resolve():
        raise SystemExit(f"flgames was imported from {package.__file__}, not from {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"flgames.{m}") for m in MODULES})


def reference_ns() -> int:
    """Time one run of a fixed loop of exact arithmetic, the kind of work
    the library does; the yardstick of the host's current speed."""
    began = perf_counter_ns()
    total, step = Fraction(0), Fraction(1, 3)
    for i in range(1, 200):
        total += step * i - Fraction(i, 7)
        if total > 100:
            total -= 100
    return perf_counter_ns() - began


def monotonic() -> float:
    """A clock shared by every process on the host, so a child's set-up
    can be timed from before its parent spawned it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def probe_setup(args) -> tuple[float, float]:
    """Set the workload up in a fresh process; its time from spawn to
    the point where the first op could run, at reference speed and as
    measured."""
    yardstick = [reference_ns() for _ in range(3)]
    spawned = monotonic()
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        stdout=subprocess.PIPE, text=True, check=False, timeout=120,
    )
    if done.returncode != 0:
        raise SystemExit(f"perfbench: the set-up process exited with {done.returncode}")
    measured = float(done.stdout.split()[-1]) - spawned
    yardstick += [reference_ns() for _ in range(3)]
    return measured * REFERENCE_NS / statistics.median(yardstick), measured


@dataclass
class PassResult:
    ops: int = 0
    busy_ns: int = 0
    wall_s: float = 0.0
    latencies_ns: list = field(default_factory=list)
    failures: list = field(default_factory=list)
    digest: str = ""
    digest_ops: int = 0
    op_entry: list = field(default_factory=list)
    reference_ns: list = field(default_factory=list)  # at each cycle boundary


class Stream:
    """The op stream of one plan: entries in cycle order, each entry's
    pool in order.  The first pass's outputs form the digest; every later
    visit of an item must reproduce its first-pass output exactly."""

    def __init__(self, plan):
        self.plan = plan
        self.order = plan.cycle_order()
        self.pass_ops = len(self.order) * plan.cycles

    def warm_up(self) -> None:
        for entry in self.plan.entries:
            entry.run(entry.pool[0])

    def run(self, seconds=None, ops=None, tracer=None, between=None) -> PassResult:
        """Run ``ops`` ops, or whole cycles for ``seconds`` seconds and at
        least one pass, so the digest always covers a full pass.  At each
        cycle boundary of a timed run, ``between(elapsed)`` may do untimed
        work and returns its duration, which extends the run."""
        entries = self.plan.entries
        first = [[None] * len(entry.pool) for entry in entries]
        visits = [0] * len(entries)
        digest = hashlib.sha256()
        result = PassResult()
        order, cycle = self.order, len(self.order)
        began = time.perf_counter()
        op = 0
        while True:
            if op % cycle == 0:
                result.reference_ns.append(reference_ns())
                if ops is None:
                    if op >= self.pass_ops and time.perf_counter() - began >= seconds:
                        break
                    if between is not None:
                        began += between(time.perf_counter() - began)
            if op == ops:
                if op % cycle:
                    result.reference_ns.append(reference_ns())
                break
            e = order[op % cycle]
            entry = entries[e]
            index = visits[e] % len(entry.pool)
            visits[e] += 1
            item = entry.pool[index]
            error = None
            if tracer is not None:
                span = tracer.begin_op(op)
            t0 = perf_counter_ns()
            try:
                output = entry.run(item)
            except Exception as exc:  # an op that raises is a failed op
                error = f"{type(exc).__name__}: {exc}"
            t1 = perf_counter_ns()

            if tracer is not None:
                tracer.end_op(span, entry.truthful[index] if entry.truthful else None)
                if error is None:
                    tracer.stdout_bytes += len(getattr(output, "stdout", ""))
            result.latencies_ns.append(t1 - t0)
            result.busy_ns += t1 - t0
            result.op_entry.append(e)
            code = b"error"
            if error is None:
                try:
                    error = entry.check(item, output)
                    code = hashlib.sha256(entry.encode(item, output)).digest()
                except Exception as exc:  # malformed output is a failed op
                    error = f"output check raised {type(exc).__name__}: {exc}"
            if first[e][index] is None:
                first[e][index] = code
            elif first[e][index] != code and error is None:
                error = "output differs from the first pass over this input"
            if op < self.pass_ops:
                digest.update(code)
                result.digest_ops += 1
            if error is not None:
                result.failures.append(f"op {op} ({entry.label}): {error}")
            op += 1
        result.ops = op
        result.wall_s = time.perf_counter() - began
        result.digest = digest.hexdigest()
        return result


def nearest_rank(latencies_ns: list, percentile: float) -> tuple[int, int]:
    """Nearest-rank percentile, and the samples beyond it."""
    ordered = sorted(latencies_ns)
    rank = max(1, math.ceil(percentile / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def at_reference_speed(result: PassResult, cycle: int) -> list:
    """Each op's latency scaled to reference speed by the median yardstick
    time at the four cycle boundaries nearest its cycle; the median keeps
    one interrupted yardstick run from skewing a cycle."""
    refs = result.reference_ns
    scale = [
        REFERENCE_NS / statistics.median(refs[max(0, c - 1):c + 3]) for c in range(len(refs) - 1)
    ]
    return [ns * scale[i // cycle] for i, ns in enumerate(result.latencies_ns)]


def time_metrics(latencies_ns: list, tail_percentile: float) -> tuple[dict, int]:
    """The end-to-end time metrics of a run's latencies, and the samples
    beyond its tail."""
    tail_ns, beyond = nearest_rank(latencies_ns, tail_percentile)
    return {
        "ops_per_s": len(latencies_ns) / (sum(latencies_ns) / 1e9),
        "op_p50_us": statistics.median(latencies_ns) / 1e3,
        "op_tail_us": tail_ns / 1e3,
    }, beyond


def expected_digest(workload: str, seed: int):
    """(ops, digest) recorded for this seed, or None."""
    recorded = json.loads(DIGESTS.read_text(encoding="utf-8")).get(workload, {}).get(str(seed))
    return (recorded["ops"], recorded["digest"]) if recorded else None


def digest_failure(result: PassResult, expected) -> tuple[str, bool]:
    """Status text and whether the digest contradicts the expectation."""
    if expected is None:
        return "no recorded digest for this seed", False
    ops, digest = expected
    if result.digest_ops != ops:
        return f"not compared: recorded over {ops} ops, run covered {result.digest_ops}", False
    if result.digest != digest:
        return f"MISMATCH: expected {digest}", True
    return "matches the recorded digest", False


def run_workload(args, workdir: Path) -> tuple[dict, dict]:
    from tracing import Tracer
    from workloads import WORKLOADS

    stream = Stream(WORKLOADS[args.workload](load_library(), args.seed, workdir))
    stream.warm_up()
    first_op_s = time.perf_counter() - _STARTED
    plan = stream.plan
    gc.collect()

    # A timed run's set-ups are spread evenly over the run, so their median
    # does not hinge on the host's state in one instant; any not yet due
    # when the ops end (all of them in an --ops run) follow the ops.
    setups = []
    due = [args.seconds * k / SETUP_REPEATS for k in range(SETUP_REPEATS)]

    def between(elapsed):
        if not due or elapsed < due[0]:
            return 0.0
        due.pop(0)
        paused = time.perf_counter()
        setups.append(probe_setup(args))
        return time.perf_counter() - paused

    expected = expected_digest(args.workload, args.seed)
    details = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "process_start_to_first_op_s": first_op_s,
        "pass_ops": stream.pass_ops,
    }

    if not args.trace:
        result = stream.run(seconds=args.seconds, ops=args.ops, between=between)
        setups += [probe_setup(args) for _ in due]
        passes = [result]
        metrics, beyond = time_metrics(at_reference_speed(result, len(stream.order)), plan.tail_percentile)
        as_measured, _ = time_metrics(result.latencies_ns, plan.tail_percentile)
        metrics["setup_s"] = statistics.median(scaled for scaled, _ in setups)
        as_measured["setup_s"] = statistics.median(measured for _, measured in setups)
        metrics["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
        details.update(
            tail_percentile=plan.tail_percentile,
            tail_samples_beyond=beyond,
            samples=len(result.latencies_ns),
            busy_s=result.busy_ns / 1e9,
            wall_s=result.wall_s,
            as_measured=as_measured,
            reference_us_median=statistics.median(result.reference_ns) / 1e3,
            setup_runs_s=[list(pair) for pair in setups],
        )
    else:
        ops = args.ops or stream.pass_ops
        untraced = stream.run(ops=ops)
        tracer = Tracer()
        for entry in plan.entries:
            if entry.truthful_of is not None:
                entry.truthful = [entry.truthful_of(item) for item in entry.pool]
        tracer.install()
        traced = stream.run(ops=ops, tracer=tracer)
        passes = [untraced, traced]
        details["traced_digest"] = traced.digest
        if traced.digest != untraced.digest:
            traced.failures.append("traced pass digest differs from the untraced pass")
        metrics = tracer.layer_metrics(traced.ops, untraced.busy_ns)
        labels = [entry.label for entry in plan.entries]
        details["per_entry_us_per_op"] = tracer.per_entry_us(traced.op_entry, labels)
        details["spans"] = len(tracer.start)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.tsv.gz"
        tracer.write(spans_path)
        details["spans_file"] = str(spans_path.relative_to(ROOT))

    result = passes[0]
    status, mismatch = digest_failure(result, expected)
    attempted = sum(p.ops for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = attempted if mismatch else len(failures)
    details.update(
        attempted=attempted,
        failed=failed,
        failed_ops_frac=failed / attempted,
        digest=result.digest,
        digest_ops=result.digest_ops,
        digest_status=status,
        failures=failures[:20],
        metrics=metrics,
    )
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, details


def print_summary(details: dict) -> None:
    err = sys.stderr
    print(
        f"perfbench {details['workload']} seed={details['seed']} trace={details['trace']}: "
        f"{details['attempted']} ops, failed {details['failed']} "
        f"(failed_ops_frac {details['failed_ops_frac']:g}); "
        f"digest {details['digest'][:16]} over {details['digest_ops']} ops, {details['digest_status']}",
        file=err,
    )
    for failure in details["failures"]:
        print(f"  FAILED {failure}", file=err)
    for name, metric in details["metrics"].items():
        extra = ""
        if name == "op_tail_us":
            extra = (
                f"  (p{details['tail_percentile']:g}, {details['tail_samples_beyond']} "
                f"samples beyond it, {details['samples']} samples)"
            )
            if details["tail_samples_beyond"] < 10:
                extra += "  fewer than 10 samples beyond: run longer"
        if name == "setup_s":
            extra = f"  (median of {len(details['setup_runs_s'])} set-ups in fresh processes)"
        print(f"  {name:42s} {metric['value']:>14.6g} {metric['unit']}{extra}", file=err)
    if "as_measured" in details:
        print(f"  as measured, at a median yardstick time of {details['reference_us_median']:.6g} us "
              f"(reference {REFERENCE_NS / 1e3:g} us):", file=err)
        for name, value in details["as_measured"].items():
            print(f"  {name:42s} {value:>14.6g} {END_TO_END_UNITS[name]}", file=err)
    table = details.get("per_entry_us_per_op")
    if table:
        layers = ("instances.generate", "mechanisms.apply", "core.cost", "solver.optimal")
        print(f"  {'us per op by entry':36s}  gen      apply    cost     opt", file=err)
        for label, row in table.items():
            cells = "".join(f"{row.get(layer, 0.0):9.1f}" for layer in layers)
            print(f"  {label:36s}{cells}", file=err)


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    from workloads import WORKLOADS

    failed = False
    rows = []
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        summary = json.loads(lines[-1]) if lines else None
        if done.returncode != 0 or summary is None or not summary["correct"]:
            failed = True
        if summary is None:
            rows.append((workload, "no result", "", f"exit {done.returncode}"))
            continue
        frac = summary["failed"] / summary["attempted"]
        rows.append((workload, "failed_ops_frac", f"{frac:.6g}", "frac"))
        for name, metric in summary["metrics"].items():
            rows.append((workload, name, f"{metric['value']:.6g}", metric["unit"]))
    for row in rows:
        print(f"{row[0]:18s} {row[1]:42s} {row[2]:>14s} {row[3]}")
    return 1 if failed else 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, help="run exactly this many ops instead of --seconds")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flgames" / "__init__.py").is_file():
        print(f"perfbench: no flgames package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)} or all",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.setup_probe:
            # a set-up process: report when its first op could run, then stop
            from workloads import WORKLOADS

            Stream(WORKLOADS[args.workload](load_library(), args.seed, workdir)).warm_up()
            print(monotonic())
            return 0
        summary, details = run_workload(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=2) + "\n", encoding="utf-8"
    )
    print_summary(details)
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
