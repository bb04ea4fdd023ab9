"""Acceptance-gate report: run tests/test_acceptance.py once and record,
for each of A1-A8, PASS/FAIL, seconds, budget and headroom, together
with the commit, Python version, nproc and the seeds each check uses.

    python3 perfbench/acceptance.py [--out FILE]

This is not a benchmark workload and the benchmark command never runs
it.  Labels, budgets and seeds are read from the gate's own source, so
the report follows the gate when it changes.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import re
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GATE = ROOT / "tests" / "test_acceptance.py"
OUT = ROOT / ".bench_out"


def _constant(node):
    return node.value if isinstance(node, ast.Constant) else None


def gate_checks(source: str) -> list[dict]:
    """Label, budget and seeds of every @acceptance test in the gate."""
    checks = []
    for node in ast.parse(source).body:
        if not isinstance(node, ast.FunctionDef):
            continue
        for decorator in node.decorator_list:
            if isinstance(decorator, ast.Call) and getattr(decorator.func, "id", "") == "acceptance":
                break
        else:
            continue
        budget = next((_constant(k.value) for k in decorator.keywords if k.arg == "budget"), None)
        seeds = []
        for sub in ast.walk(node):
            if isinstance(sub, ast.keyword) and sub.arg == "seed" and isinstance(_constant(sub.value), int):
                seeds.append(sub.value.value)
            if isinstance(sub, ast.List):
                for flag, value in zip(sub.elts, sub.elts[1:]):
                    if _constant(flag) == "--seed" and isinstance(_constant(value), str):
                        seeds.append(int(value.value))
        checks.append(
            {
                "test": node.name,
                "label": _constant(decorator.args[0]),
                "budget_s": budget,
                "seeds": list(dict.fromkeys(seeds)),
            }
        )
    return checks


def commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_gate(junit: Path) -> tuple[str, dict, float]:
    """Run the gate once; return its stdout, junit cases by name, wall s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    began = time.monotonic()
    done = subprocess.run(
        [sys.executable, "-m", "pytest", str(GATE), "-s", "-q", f"--junitxml={junit}"],
        cwd=ROOT, env=env, capture_output=True, text=True, check=False,
    )
    wall = time.monotonic() - began
    cases = {case.get("name"): case for case in ET.parse(junit).getroot().iter("testcase")}
    return done.stdout, cases, wall


def report(checks: list[dict], stdout: str, cases: dict) -> list[dict]:
    results = []
    for check in checks:
        case = cases.get(check["test"])
        # pytest -q prefixes progress dots to the gate's own lines
        line = re.search(rf"{re.escape(check['label'])}: (PASS|FAIL)(?: \(([\d.]+)s\))?", stdout)
        status = line.group(1) if line else "FAIL"
        failure = case.find("failure") if case is not None else None
        budget_miss = failure is not None and re.search(
            r"budget \S+s exceeded: ([\d.]+)s", failure.get("message", "") + (failure.text or "")
        )
        if line and line.group(2):
            seconds, source = float(line.group(2)), "gate"
        elif budget_miss:
            seconds, source = float(budget_miss.group(1)), "gate"
        else:
            seconds, source = float(case.get("time")) if case is not None else None, "pytest"
        budget = check["budget_s"]
        results.append(
            dict(
                check,
                result=status,
                seconds=seconds,
                seconds_source=source,
                headroom_s=None if budget is None or seconds is None else budget - seconds,
                headroom_frac=None if budget is None or seconds is None else (budget - seconds) / budget,
            )
        )
    return results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=OUT / "acceptance.json")
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    checks = gate_checks(GATE.read_text(encoding="utf-8"))
    stdout, cases, wall = run_gate(OUT / "acceptance-junit.xml")
    (OUT / "acceptance-stdout.txt").write_text(stdout, encoding="utf-8")
    results = report(checks, stdout, cases)
    payload = {
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "gate": str(GATE.relative_to(ROOT)),
        "wall_s": wall,
        "checks": results,
    }
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    for row in results:
        budget = "-" if row["budget_s"] is None else f"{row['budget_s']:g}s"
        headroom = "-" if row["headroom_s"] is None else f"{row['headroom_s']:+.2f}s"
        print(f"{row['label']:50s} {row['result']:4s} {row['seconds']:8.2f}s budget {budget:>6s} "
              f"headroom {headroom:>8s} seeds {row['seeds']}")
    print(f"commit {payload['commit'][:12]} python {payload['python']} nproc {payload['nproc']}; "
          f"written to {args.out}")
    return 0 if all(row["result"] == "PASS" for row in results) else 1


if __name__ == "__main__":
    sys.exit(main())
