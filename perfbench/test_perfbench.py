"""The benchmark's own tests.

    python3 -m pytest perfbench/test_perfbench.py -q

Short fixed-op runs repeat their call counts and digest exactly, tracing
does not change any output, a wrong expected digest is reported as
failed ops, the printed metrics are the ones BENCHMARK.json declares,
and a directory without the program makes the benchmark fail without a
result.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

RUN = Path(__file__).resolve().parent / "run.py"
ROOT = RUN.parent.parent
# ops per short run: at least one op of every entry
SHORT_OPS = {"ratio-sweep": 60, "unilateral-search": 14, "coalition-search": 3, "cli-commands": 14}
SEED = 3


def bench(workload, trace, *extra, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", str(SEED),
         "--ops", str(SHORT_OPS[workload]), "--trace", str(trace), *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def outcome(workload, trace, *extra, root=ROOT):
    done = bench(workload, trace, *extra, cwd=root, script=root / RUN.parent.name / RUN.name)
    summary = json.loads(done.stdout.strip().splitlines()[-1])
    details_path = root / ".bench_out" / f"{workload}-seed{SEED}-trace{trace}.json"
    return done.returncode, summary, json.loads(details_path.read_text(encoding="utf-8"))


def copy_benchmark(root):
    """A checkout holding BENCHMARK.json and a copy of the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(RUN.parent, root / RUN.parent.name, ignore=shutil.ignore_patterns("__pycache__"))
    return root


def counts(metrics):
    return {
        name: metric["value"]
        for name, metric in metrics.items()
        if metric["unit"] in ("count", "calls/op", "B/op") or name.endswith("outcome_frac")
    }


@pytest.mark.parametrize("workload", sorted(SHORT_OPS))
def test_short_runs_repeat_counts_and_digest(workload):
    code, summary, plain = outcome(workload, 0)
    assert code == 0 and summary["correct"] and summary["failed"] == 0
    _, first, traced = outcome(workload, 1)
    _, second, again = outcome(workload, 1)
    assert first["correct"] and second["correct"]
    assert counts(first["metrics"]) == counts(second["metrics"])
    assert traced["traced_digest"] == again["traced_digest"] == plain["digest"]
    assert plain["digest_ops"] == SHORT_OPS[workload]


def test_wrong_expected_digest_fails_every_op(tmp_path):
    root = copy_benchmark(tmp_path)
    (root / "src").symlink_to(ROOT / "src", target_is_directory=True)
    wrong = {"ratio-sweep": {str(SEED): {"ops": SHORT_OPS["ratio-sweep"], "digest": "0" * 64}}}
    (root / RUN.parent.name / "digests.json").write_text(json.dumps(wrong), encoding="utf-8")
    code, summary, details = outcome("ratio-sweep", 0, root=root)
    assert code == 1
    assert not summary["correct"]
    assert summary["failed"] == summary["attempted"] > 0
    assert details["digest_status"].startswith("MISMATCH")


def test_metrics_match_the_benchmark_declaration():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    _, plain, _ = outcome("coalition-search", 0)
    _, traced, _ = outcome("coalition-search", 1)
    for summary, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        units = {metric["name"]: metric["unit"] for metric in declared[kind]}
        assert {name: m["unit"] for name, m in summary["metrics"].items()} == units


def test_fails_without_the_program(tmp_path):
    copy_benchmark(tmp_path)
    done = bench("ratio-sweep", 0, cwd=tmp_path, script=tmp_path / RUN.parent.name / RUN.name)
    assert done.returncode != 0
    assert not done.stdout.strip()
