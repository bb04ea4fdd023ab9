import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from flgames import cli, verify
from flgames.cli import (
    EXIT_GUARD,
    EXIT_MISMATCH,
    EXIT_OK,
    EXIT_PARSE,
    InstanceParseError,
    decimal_string,
    instance_from_json,
    instance_to_json,
    main,
    put_scalar,
)
from flgames.core import line_instance, metric_instance
from flgames.mechanisms import LEFTMOST, TWO_EXTREMES
from flgames.solver import INFINITE_RATIO, GuardExceeded

from strategies import LB_BASE, build

GOLDEN = Path(__file__).parent / "data" / "golden_line_n5_m4_seed42_idx3.json"
LB_SHIFTED = build("single-lb-I-prime", eps=F(1, 10))

METRIC_JSON = {
    "space": "metric",
    "points": 3,
    "matrix": [["0", "1", "2"], ["1", "0", "1"], ["2", "1", "0"]],
    "agents": [1, 2],
    "candidates": [3],
    "k": 1,
}


def write_instance(tmp_path, obj, name="inst.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


# ---------------------------------------------------------------------------
# serialization helpers


def test_decimal_string():
    assert decimal_string(F(3)) == "3"
    assert decimal_string(F(1, 2)) == "0.5"
    assert decimal_string(F(-1, 8)) == "-0.125"
    assert decimal_string(F(1, 3)) == "0.333333333333"
    assert decimal_string(F(30, 11)) == "2.727272727272"  # truncated, not rounded
    assert decimal_string(F(41, 22)) == "1.863636363636"
    assert decimal_string(F(0)) == "0"


def test_put_scalar_handles_the_infinite_marker():
    payload = {}
    put_scalar(payload, "ratio", INFINITE_RATIO)
    assert payload == {"ratio": "inf", "ratio_decimal": "inf"}


def test_instance_json_round_trip_line():
    inst = line_instance((F(1, 3), F(-2)), (0, F(5, 2)), k=2)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_json_round_trip_metric():
    inst = metric_instance(((0, 1, 2), (1, 0, 1), (2, 1, 0)), (1, 2), (3,), k=1)
    assert instance_from_json(instance_to_json(inst)) == inst


def test_instance_json_rejections():
    good = instance_to_json(LB_BASE)
    with pytest.raises(InstanceParseError, match="unknown fields"):
        instance_from_json({**good, "extra": 1})
    with pytest.raises(InstanceParseError, match="missing fields"):
        instance_from_json({key: good[key] for key in good if key != "k"})
    with pytest.raises(InstanceParseError, match="floats are not exact"):
        instance_from_json({**good, "agents": [0.9, "11/10"]})
    with pytest.raises(InstanceParseError):
        instance_from_json({**good, "agents": ["not-a-number", "11/10"]})
    for bad in (None, ["9/10"], {"x": "9/10"}):
        with pytest.raises(InstanceParseError, match="expected an exact number"):
            instance_from_json({**good, "agents": [bad, "11/10"]})
    with pytest.raises(InstanceParseError, match="expected an exact number"):
        instance_from_json({**METRIC_JSON, "points": 1, "matrix": [[None]]})
    for key in ("agents", "candidates"):
        with pytest.raises(InstanceParseError, match="must be arrays"):
            instance_from_json({**good, key: "0"})
    with pytest.raises(InstanceParseError, match="space"):
        instance_from_json({**good, "space": "plane"})
    with pytest.raises(InstanceParseError):
        instance_from_json([])
    with pytest.raises(InstanceParseError, match="matrix"):
        instance_from_json({**METRIC_JSON, "matrix": [["0", "1"], ["1", "0"]]})
    with pytest.raises(InstanceParseError, match="integer index"):
        instance_from_json({**METRIC_JSON, "agents": ["1", 2]})
    # domain validation surfaces as a parse error too
    with pytest.raises(InstanceParseError):
        instance_from_json({**good, "k": 0})


# ---------------------------------------------------------------------------
# solve / run


def test_solve_reports_exact_optimum(tmp_path, capsys):
    path = write_instance(tmp_path, instance_to_json(LB_SHIFTED))
    code, payload = run_json(capsys, ["solve", path, "--objective", "mc"])
    assert code == EXIT_OK
    assert payload["optimal_selections"] == [[2]]
    assert payload["optimal_value"] == "11/10"
    assert payload["optimal_value_decimal"] == "1.1"
    assert (payload["n"], payload["m"], payload["k"]) == (2, 2, 1)


def test_run_deterministic_mechanism(tmp_path, capsys):
    path = write_instance(tmp_path, instance_to_json(LB_SHIFTED))
    code, payload = run_json(capsys, ["run", path, "--mechanism", "leftmost"])
    assert code == EXIT_OK
    assert payload["outcome"] == {
        "type": "deterministic",
        "selection": [1],
        "locations": ["0"],
    }
    assert payload["cost_mc"] == "3"
    assert payload["ratio_mc"] == "30/11"
    assert payload["ratio_mc_decimal"] == "2.727272727272"
    assert payload["ratio_sc"] == "13/7"  # sc optimum is 21/10 at the right candidate


def test_run_randomized_mechanism(tmp_path, capsys):
    path = write_instance(tmp_path, instance_to_json(LB_SHIFTED))
    code, payload = run_json(capsys, ["run", path, "--mechanism", "rd"])
    assert code == EXIT_OK
    outcome = payload["outcome"]
    assert outcome["type"] == "randomized"
    assert [entry["selection"] for entry in outcome["support"]] == [[1], [2]]
    assert all(entry["probability"] == "1/2" for entry in outcome["support"])
    assert all(entry["probability_decimal"] == "0.5" for entry in outcome["support"])
    assert payload["ratio_mc"] == "41/22"


def test_run_metric_instance(tmp_path, capsys):
    path = write_instance(tmp_path, METRIC_JSON)
    code, payload = run_json(capsys, ["run", path, "--mechanism", "dictator:2"])
    assert code == EXIT_OK
    # metric locations are point ids, not coordinates
    assert payload["outcome"]["locations"] == [3]
    assert payload["cost_sc"] == "3"


# ---------------------------------------------------------------------------
# verify


def test_verify_finds_the_strawman_witness(tmp_path, capsys):
    path = write_instance(tmp_path, instance_to_json(LB_BASE))
    code, payload = run_json(capsys, ["verify", path, "--mechanism", "mean"])
    assert code == EXIT_OK
    assert payload["result"] == "witness"
    assert payload["coalition"] == [2]
    assert payload["misreports"] == ["23/20"]
    assert payload["outcome_before"]["selection"] == [1]
    assert payload["outcome_after"]["selection"] == [2]
    assert payload["costs"] == [
        {
            "agent": 2,
            "before": "11/10",
            "before_decimal": "1.1",
            "after": "9/10",
            "after_decimal": "0.9",
        }
    ]


@pytest.mark.parametrize(
    "instance, flags, searched",
    [
        pytest.param(
            instance_to_json(LB_BASE),
            ["--mechanism", "leftmost"],
            {
                "agents": 2,
                "grid_points": 41,
                "misreports_per_agent": [44, 44],
                "max_coalition": 1,
                "joint_misreports": 88,
            },
            id="line",
        ),
        # a grid other than the default: the size is that of the set searched
        pytest.param(
            instance_to_json(LB_BASE),
            ["--mechanism", "leftmost", "--grid", "9", "--group-max", "2"],
            {
                "agents": 2,
                "grid_points": 9,
                "misreports_per_agent": [12, 12],
                "max_coalition": 2,
                "joint_misreports": 168,
            },
            id="line-grid-9",
        ),
        # a metric space searches its 3 points, whatever the grid: each
        # agent tries the 2 it does not sit on, so 2 + 2 + 2 * 2 joint reports
        pytest.param(
            METRIC_JSON,
            ["--mechanism", "dictator:1", "--grid", "7", "--group-max", "2"],
            {
                "agents": 2,
                "grid_points": 7,
                "misreports_per_agent": [2, 2],
                "max_coalition": 2,
                "joint_misreports": 8,
            },
            id="metric",
        ),
        # the k = 1 metric instance the CI's console-script step searches
        pytest.param(
            json.loads((GOLDEN.parent / "metric_n3_m2_k1.json").read_text()),
            ["--mechanism", "rd", "--group-max", "2"],
            {
                "agents": 3,
                "grid_points": 41,
                "misreports_per_agent": [4, 4, 4],
                "max_coalition": 2,
                "joint_misreports": 60,
            },
            id="metric-file",
        ),
    ],
)
def test_verify_clean_mechanism_reports_search_size(tmp_path, capsys, instance, flags, searched):
    path = write_instance(tmp_path, instance)
    code, payload = run_json(capsys, ["verify", path, *flags])
    assert code == EXIT_OK
    assert payload["result"] == "none"
    assert payload["searched"] == searched


def test_clean_verify_builds_its_misreport_set_once(capsys, monkeypatch):
    """The searched block reads the count the search checked against the
    guard, so a clean verify builds the grid once, for the search."""
    built = []
    real = verify._line_grid
    monkeypatch.setattr(verify, "_line_grid", lambda *args: built.append(1) or real(*args))
    argv = ["verify", str(GOLDEN), "--mechanism", "leftmost", "--group-max", "2", "--grid", "9"]
    code, payload = run_json(capsys, argv)
    assert code == EXIT_OK and payload["result"] == "none"
    assert len(built) == 1
    tried = len(verify.misreport_set(instance_from_json(json.loads(GOLDEN.read_text())), 9)) - 1
    assert payload["searched"]["misreports_per_agent"] == [tried] * 5


def test_verify_group_flag(tmp_path, capsys):
    # resists every single lie, falls to the pair
    trap = line_instance((F(13, 8), F(15, 8), -4, -4), (0, 2), k=1)
    path = write_instance(tmp_path, instance_to_json(trap))
    code, payload = run_json(
        capsys, ["verify", path, "--mechanism", "mean", "--group-max", "2", "--grid", "41"]
    )
    assert code == EXIT_OK
    assert payload["result"] == "witness"
    assert payload["coalition"] == [1, 2]
    assert payload["misreports"] == ["22/5", "8"]
    code, payload = run_json(capsys, ["verify", path, "--mechanism", "mean"])
    assert payload["result"] == "none"


# ---------------------------------------------------------------------------
# sweep


def test_sweep_csv_shape_and_determinism(tmp_path, capsys):
    argv = [
        "sweep",
        "--family",
        "line-uniform",
        "--n",
        "3",
        "--m",
        "3",
        "--seed",
        "5",
        "--mechanism",
        "leftmost",
        "--objective",
        "mc",
        "--count",
        "10",
    ]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    lines = first.splitlines()
    assert lines[0] == "index,n,m,k,mech_cost,opt_cost,ratio"
    assert len(lines) == 12  # header, 10 rows, footer
    assert lines[1].startswith("0,3,3,1,")
    assert lines[-1].startswith("max,,,,,,")
    worst = F(lines[-1].rsplit(",", 1)[1])
    ratios = [F(line.rsplit(",", 1)[1]) for line in lines[1:-1]]
    assert worst == max(ratios)
    assert worst >= 1


def test_sweep_out_file_matches_stdout(tmp_path, capsys):
    argv = [
        "sweep",
        "--family",
        "metric-closure",
        "--n",
        "3",
        "--m",
        "2",
        "--seed",
        "9",
        "--mechanism",
        "dictator:1",
        "--objective",
        "sc",
        "--count",
        "5",
    ]
    assert main(argv) == EXIT_OK
    stdout_text = capsys.readouterr().out
    out = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == stdout_text


def test_sweep_empty_footer(capsys):
    argv = [
        "sweep",
        "--family",
        "line-uniform",
        "--n",
        "3",
        "--m",
        "3",
        "--mechanism",
        "leftmost",
        "--objective",
        "mc",
        "--count",
        "0",
    ]
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == "index,n,m,k,mech_cost,opt_cost,ratio\nmax,,,,,,n/a\n"


@pytest.mark.parametrize("out", [None, "rows.csv"], ids=["stdout", "out-file"])
@pytest.mark.parametrize("stop", ["guard", "third-row"])
def test_sweep_that_fails_writes_nothing(tmp_path, capsys, monkeypatch, out, stop):
    """sweep writes its CSV once, after the last row, so a sweep that
    fails, on its first row or a later one, leaves stdout empty and
    creates no --out file."""
    argv = ["sweep", "--family", "line-uniform", "--n", "3", "--m", "3"]
    argv += ["--mechanism", "leftmost", "--objective", "mc", "--count", "5"]
    if stop == "guard":
        monkeypatch.setenv("FLG_GUARD", "2")  # the 3 candidates exceed it
    else:
        real = cli.iter_sweep

        def two_rows_then_guard(*args):
            rows = real(*args)
            yield next(rows)
            yield next(rows)
            raise GuardExceeded("stopped after two rows")

        monkeypatch.setattr(cli, "iter_sweep", two_rows_then_guard)
    if out is not None:
        argv += ["--out", str(tmp_path / out)]
    assert main(argv) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("guard exceeded: ")
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# replay


def test_replay_strawman_violation(capsys):
    code, payload = run_json(
        capsys,
        [
            "replay",
            "--construction",
            "single-deterministic",
            "--mechanism",
            "mean",
            "--epsilon",
            "1/10",
        ],
    )
    assert code == EXIT_OK
    assert payload["bound"] == "3"
    assert payload["ratio_shifted"] == "1"
    assert payload["beats_bound"] is True
    assert payload["manipulation"]["agent"] == 2
    assert payload["manipulation"]["misreport"] == "3"
    assert payload["manipulation"]["margin"] == "1/5"
    assert payload["sp_violation"] is True
    assert "far" not in payload


def test_replay_two_facility_reports_far_mass(capsys):
    code, payload = run_json(
        capsys,
        [
            "replay",
            "--construction",
            "two-deterministic",
            "--mechanism",
            "two-extremes",
            "--epsilon",
            "1/10",
        ],
    )
    assert code == EXIT_OK
    assert payload["far"] == "1000"
    assert payload["ratio_shifted"] == "30/11"
    assert payload["far_missing_base"] == "0"
    assert payload["far_missing_shifted"] == "0"
    assert payload["sp_violation"] is False


REPLAY_PAYLOADS = {
    ("two-randomized", "two-extremes"): {
        "command": "replay",
        "construction": "two-randomized",
        "mechanism": "two-extremes",
        "epsilon": "1/10",
        "epsilon_decimal": "0.1",
        "far": "1000",
        "far_decimal": "1000",
        "bound": "2",
        "bound_decimal": "2",
        "outcome_base": {"type": "deterministic", "selection": [1, 3], "locations": ["0", "1000"]},
        "outcome_shifted": {
            "type": "deterministic",
            "selection": [1, 3],
            "locations": ["0", "1000"],
        },
        "ratio_base": "1",
        "ratio_base_decimal": "1",
        "ratio_shifted": "30/11",
        "ratio_shifted_decimal": "2.727272727272",
        "beats_bound": False,
        "manipulation": {
            "agent": 2,
            "misreport": "3",
            "cost_truthful": "11/10",
            "cost_truthful_decimal": "1.1",
            "cost_misreport": "11/10",
            "cost_misreport_decimal": "1.1",
            "margin": "0",
            "margin_decimal": "0",
        },
        "sp_violation": False,
        "far_missing_base": "0",
        "far_missing_base_decimal": "0",
        "far_missing_shifted": "0",
        "far_missing_shifted_decimal": "0",
    },
    ("single-randomized", "rd"): {
        "command": "replay",
        "construction": "single-randomized",
        "mechanism": "rd",
        "epsilon": "1/10",
        "epsilon_decimal": "0.1",
        "bound": "2",
        "bound_decimal": "2",
        "outcome_base": {
            "type": "randomized",
            "support": [
                {"selection": [1], "locations": ["0"], "probability": "1/2",
                 "probability_decimal": "0.5"},
                {"selection": [2], "locations": ["2"], "probability": "1/2",
                 "probability_decimal": "0.5"},
            ],
        },
        "outcome_shifted": {
            "type": "randomized",
            "support": [
                {"selection": [1], "locations": ["0"], "probability": "1/2",
                 "probability_decimal": "0.5"},
                {"selection": [2], "locations": ["2"], "probability": "1/2",
                 "probability_decimal": "0.5"},
            ],
        },
        "ratio_base": "1",
        "ratio_base_decimal": "1",
        "ratio_shifted": "41/22",
        "ratio_shifted_decimal": "1.863636363636",
        "beats_bound": True,
        "manipulation": {
            "agent": 2,
            "misreport": "3",
            "cost_truthful": "1",
            "cost_truthful_decimal": "1",
            "cost_misreport": "1",
            "cost_misreport_decimal": "1",
            "margin": "0",
            "margin_decimal": "0",
        },
        "sp_violation": False,
    },
}


@pytest.mark.parametrize("construction, mechanism", list(REPLAY_PAYLOADS))
def test_replay_prints_the_whole_payload(capsys, construction, mechanism):
    """Every key, in order, and every value, nested ones included."""
    argv = ["replay", "--construction", construction, "--mechanism", mechanism, "--epsilon", "1/10"]
    assert main(argv) == EXIT_OK
    expected = REPLAY_PAYLOADS[construction, mechanism]
    assert capsys.readouterr().out == json.dumps(expected, indent=2) + "\n"


# ---------------------------------------------------------------------------
# pinned output bytes: sha256 of the whole stdout, recorded once, so an
# exact speed-up of costs, optima or draws must keep every byte


def stdout_sha256(capsys, argv):
    assert main(argv) == EXIT_OK
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


PINNED_SWEEPS = {
    "line-k2-two-extremes-sc": (
        ["--family", "line-uniform", "--k", "2", "--mechanism", "two-extremes", "--objective", "sc"],
        "8dcacd0a872b5bbc670ba6fc9fa5f9693cd6038849d55d3730aaaa3fb05b4d6a",
    ),
    "line-k2-two-extremes-mc": (
        ["--family", "line-uniform", "--k", "2", "--mechanism", "two-extremes", "--objective", "mc"],
        "6fed0f457abc278d84fb06ad9f8d6e1008f7d909379d64c8bcfdebdd720eedd2",
    ),
    "line-n20-m12-k2-two-extremes-sc": (
        ["--family", "line-uniform", "--n", "20", "--m", "12", "--k", "2"]
        + ["--mechanism", "two-extremes", "--objective", "sc"],
        "ad00bb434ae14fc467945be809da5408b33aabe4ab1360e0bc8f0f819a5e1f57",
    ),
    "line-n20-m12-k2-two-extremes-mc": (
        ["--family", "line-uniform", "--n", "20", "--m", "12", "--k", "2"]
        + ["--mechanism", "two-extremes", "--objective", "mc"],
        "a70aa5b727d8a01ec7486e94c361b2ec6be1c2e2cafc065f69d8468fc3e2f064",
    ),
    "line-n1-k2-two-extremes-mc": (
        ["--family", "line-uniform", "--n", "1", "--k", "2"]
        + ["--mechanism", "two-extremes", "--objective", "mc"],
        "e6bcc00dbfae27886da04498c724735ecdc5eac81fdc927396fdbb0273e1706f",
    ),
    "line-n1-k2-two-extremes-sc": (
        ["--family", "line-uniform", "--n", "1", "--k", "2"]
        + ["--mechanism", "two-extremes", "--objective", "sc"],
        "e6bcc00dbfae27886da04498c724735ecdc5eac81fdc927396fdbb0273e1706f",
    ),
    "line-k1-leftmost-mc": (
        ["--family", "line-uniform", "--mechanism", "leftmost", "--objective", "mc"],
        "61e67d2098eadd320e424f8cff5a53cb1fdcab748d21f657704e8a2bc739e0fe",
    ),
    "line-k1-rd-sc": (
        ["--family", "line-uniform", "--mechanism", "rd", "--objective", "sc"],
        "94192f6fa3284f10b9666faac7cb717a1b04b79ae0ed24e499dc06b7d227f7b0",
    ),
    "metric-dictator-mc": (
        ["--family", "metric-closure", "--mechanism", "dictator:1", "--objective", "mc"],
        "4fafaeacd071347ac6169d9d96c2aba6752ccd9fbee07327c494e4797f3d39a9",
    ),
}


@pytest.mark.parametrize("case", list(PINNED_SWEEPS))
def test_sweep_csv_bytes_are_pinned(capsys, case):
    """200 rows at seed 17, at n=5, m=4 unless a case sets --n and --m;
    the first case is A8's sweep."""
    flags, digest = PINNED_SWEEPS[case]
    argv = ["sweep", "--n", "5", "--m", "4", "--seed", "17", "--count", "200"] + flags
    assert stdout_sha256(capsys, argv) == digest


PINNED_RUNS = {
    "leftmost": "a75de8610e66720668d44364447127285f240fe581f0d261812fe1dd102c90bb",
    "dictator:1": "7a6caabd8296939b0ec415280a675eec909f338435478fec9e9f1caade534f42",
    "median": "73adbc98b6c1439dc47f76c60fa2ee5c4e459ab9a0d5c83e2e2d19484a8d313e",
    "rd": "13df928e392b6cd6ef3074b0d5ee22929446f9e891d389807451aca72dcba4ad",
    "wpv:1/5,1/5,1/5,1/5,1/5": "a32b357eeb3823bba386a346e0d489137bd09c590d5e0834738ddb280042d652",
    "mean": "38f77e86b5e5938abb098a14b8fc307aae41acf2786ef7267aa6615f3a44c81c",
    "two-extremes": "5fe7d6bcba3c3719f0278b8d6a9fbcfcc6a8b56fc0c73a56ad2403fd6b5acf7f",
}


@pytest.mark.parametrize("mechanism", list(PINNED_RUNS))
def test_run_json_bytes_are_pinned(tmp_path, capsys, mechanism):
    """Every rule on the golden line instance; two-extremes on its copy
    with k=2."""
    path = str(GOLDEN)
    if mechanism == "two-extremes":
        obj = json.loads(GOLDEN.read_text(encoding="utf-8"))
        path = write_instance(tmp_path, dict(obj, k=2))
    assert stdout_sha256(capsys, ["run", path, "--mechanism", mechanism]) == PINNED_RUNS[mechanism]


PINNED_REPLAYS = {
    ("single-deterministic", "leftmost"): "8b016944c12835673cc6d9f6fda1b077a7068ed670d9a5c6853ae36840221335",
    ("single-deterministic", "dictator:1"): "88256ce7ae29e32f936042e4532d071b28c30441052fc7938d10ed7d5712e2e3",
    ("single-deterministic", "median"): "0ac359a2291038311a0136b7156fced1cfc265b0b3db548d631f3253bbdaa2f1",
    ("single-deterministic", "rd"): "463b2d2c839c1658726036203830f835b165c54fc1687c1705adb7a0bb7ad92d",
    ("single-deterministic", "wpv:1/2,1/2"): "cf8e5b3d74caf68e3d4acebc273e635854abd5a6287e462f6eb0fec0b71001a3",
    ("single-deterministic", "mean"): "6a8ae0a9827b0c3fd8e3ce8d2014ffd6f0b7e1265a4d1891e5dcde5d04bce3c5",
    ("single-randomized", "leftmost"): "c12b4f6fdcd3cfdbe3939133ed8499cd65e261f60ea4c0af05cc32b9e99135b0",
    ("single-randomized", "dictator:1"): "d61395758113efd8141dc2b191d42f9e0135a018df254ffe81af9d84282c0bd3",
    ("single-randomized", "median"): "c2369e294414c3f30aaa1eadd04ee1374ea9278eb0fc0be2333c825b93c464b2",
    ("single-randomized", "rd"): "39809f804c3e0655759366d6a20f40c3623162c71106a5b7c09497a494591b48",
    ("single-randomized", "wpv:1/2,1/2"): "8b1bbc87cc546a92cfe22b138a120fd2ba28f79064a98c7a1d9bb0a4c6bb2364",
    ("single-randomized", "mean"): "7c04b79f343a52a720b830b0be330409597f2f1e301e07ef6d5e13945acd420d",
    ("two-deterministic", "two-extremes"): "b7556af8cc7319726320f96c79238c9afab0b70ebc4e7f9a8a71d306bd119b58",
    ("two-randomized", "two-extremes"): "c74a0f5dc4de3fb37d5b7c4795998c6955e0d52ded81c70114d30121f89b513e",
}


@pytest.mark.parametrize("construction, mechanism", list(PINNED_REPLAYS))
def test_replay_json_bytes_are_pinned(capsys, construction, mechanism):
    """Every rule on each construction whose facility count it opens."""
    argv = ["replay", "--construction", construction, "--mechanism", mechanism, "--epsilon", "1/10"]
    assert stdout_sha256(capsys, argv) == PINNED_REPLAYS[construction, mechanism]


# ---------------------------------------------------------------------------
# exit codes


def test_exit_parse_on_bad_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["solve", missing, "--objective", "mc"]) == EXIT_PARSE
    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{", encoding="utf-8")
    assert main(["solve", str(bad_json), "--objective", "mc"]) == EXIT_PARSE
    floats = write_instance(
        tmp_path,
        {"space": "line", "agents": [0.5], "candidates": ["1"], "k": 1},
        "floats.json",
    )
    assert main(["solve", floats, "--objective", "mc"]) == EXIT_PARSE
    capsys.readouterr()


def test_exit_parse_on_usage_errors(capsys):
    assert main(["solve"]) == EXIT_PARSE  # missing instance path
    assert main(["fly"]) == EXIT_PARSE  # unknown subcommand
    # families draw on one fixed grid on [0, 1], so sweep takes no range
    sweep = SWEEP_ARGS + ["--n", "2", "--objective", "mc", "--count", "1"]
    assert main(sweep + ["--low", "0"]) == EXIT_PARSE
    capsys.readouterr()


SWEEP_ARGS = ["sweep", "--family", "line-uniform", "--m", "2", "--mechanism", "leftmost"]


# explicit ids, so that removing a case cannot hand its id to another
@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(
            ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "0"], id="argv0"
        ),
        pytest.param(  # n is 2
            ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "3"], id="argv1"
        ),
        pytest.param(["verify", "{path}", "--mechanism", "leftmost", "--grid", "-1"], id="argv2"),
        pytest.param(SWEEP_ARGS + ["--n", "0", "--objective", "mc", "--count", "1"], id="argv3"),
        pytest.param(SWEEP_ARGS + ["--n", "2", "--objective", "mc", "--count", "-3"], id="argv4"),
        pytest.param(
            ["replay", "--construction", "single-deterministic", "--mechanism", "leftmost",
             "--epsilon", "3/2"],
            id="argv5",
        ),
        pytest.param(
            ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "0", "--grid", "2000000"],
            id="argv6",
        ),
        pytest.param(
            ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "3", "--grid", "2000000"],
            id="argv7",
        ),
    ],
)
def test_exit_parse_on_out_of_range_arguments(tmp_path, capsys, monkeypatch, argv):
    """An argument out of range is refused before any misreport is built,
    whatever the grid."""
    scaled = []
    real = verify._line_grid
    monkeypatch.setattr(verify, "_line_grid", lambda *args: scaled.append(1) or real(*args))
    path = write_instance(tmp_path, instance_to_json(LB_BASE))
    assert main([arg.replace("{path}", path) for arg in argv]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("invalid argument: ")
    assert captured.err.count("\n") == 1
    assert scaled == []


@pytest.mark.parametrize("target", ["missing/dir/rows.csv", "."])
def test_sweep_out_unwritable_path_exits_parse(tmp_path, capsys, target):
    out = str(tmp_path / target)  # "." names the directory itself
    argv = SWEEP_ARGS + ["--n", "2", "--objective", "mc", "--count", "2", "--out", out]
    assert main(argv) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"cannot write {out}: ")
    assert captured.err.count("\n") == 1


def test_exit_guard(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, instance_to_json(LB_BASE))
    monkeypatch.setenv("FLG_GUARD", "1")
    assert main(["solve", path, "--objective", "mc"]) == EXIT_GUARD
    assert main(["verify", path, "--mechanism", "leftmost"]) == EXIT_GUARD
    capsys.readouterr()
    replay = ["replay", "--construction", "two-deterministic", "--mechanism", "two-extremes"]
    assert main(replay + ["--epsilon", "1/10"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard exceeded: 6 candidate multisets exceed the guard of 1\n"
    monkeypatch.setenv("FLG_GUARD", "not-a-number")
    assert main(["solve", path, "--objective", "mc"]) == EXIT_PARSE
    capsys.readouterr()


def test_verify_refuses_a_grid_past_the_guard_before_building_it(tmp_path, capsys, monkeypatch):
    """The misreport set is counted exactly before it is built, so once
    n * (|set| - 1) exceeds the guard no grid point is built."""
    scaled = []
    real = verify._line_grid
    monkeypatch.setattr(verify, "_line_grid", lambda *args: scaled.append(1) or real(*args))
    path = write_instance(tmp_path, instance_to_json(LB_BASE))  # n = 2
    monkeypatch.setenv("FLG_GUARD", "10")
    # |set| is the grid plus the 4 locations less those on it: 300004, 9, 10
    for grid in ("300000", "7", "6"):
        assert main(["verify", path, "--mechanism", "leftmost", "--grid", grid]) == EXIT_GUARD
    assert scaled == []
    assert capsys.readouterr().err == "".join(
        f"guard exceeded: {count} joint misreports exceed the guard of 10\n"
        for count in (600006, 16, 18)
    )
    # 2 of the 4 locations are on a 4-point grid: 2 * 5 = 10 is within the guard
    assert main(["verify", path, "--mechanism", "leftmost", "--grid", "4"]) == EXIT_OK
    assert scaled
    assert json.loads(capsys.readouterr().out)["searched"]["joint_misreports"] == 10
    # a metric space searches its points, whatever the grid
    metric_path = write_instance(tmp_path, METRIC_JSON, "metric.json")
    assert main(["verify", metric_path, "--mechanism", "dictator:1", "--grid", "300000"]) == EXIT_OK
    capsys.readouterr()


def test_verify_refuses_a_coalition_grid_past_the_guard_before_building_it(capsys, monkeypatch):
    """Coalitions of up to --group-max agents try
    sum over s of comb(n, s) * (|set| - 1)**s joint reports, so the set
    is refused unbuilt once that exceeds the guard."""
    scaled = []
    real = verify._line_grid
    monkeypatch.setattr(verify, "_line_grid", lambda *args: scaled.append(1) or real(*args))
    monkeypatch.setenv("FLG_GUARD", "1000000")
    # n = 5 and |set| = 200009: 5 * 200008 + 10 * 200008**2 joint reports
    argv = ["verify", str(GOLDEN), "--mechanism", "leftmost", "--group-max", "2", "--grid", "200000"]
    message = "400033000680 joint misreports exceed the guard of 1000000"
    assert main(argv) == EXIT_GUARD
    assert capsys.readouterr().err == f"guard exceeded: {message}\n"
    # the library search and the set pass the coalition size to the same count
    instance = instance_from_json(json.loads(GOLDEN.read_text()))
    with pytest.raises(GuardExceeded, match=f"^{message}$"):
        verify.find_group_deviation(
            instance, LEFTMOST, max_coalition=2, grid_points=200000, guard=10**6
        )
    with pytest.raises(GuardExceeded, match=f"^{message}$"):
        verify.misreport_set(instance, 200000, guard=10**6, max_coalition=2)
    assert scaled == []


def test_verify_refuses_a_cut_past_the_guard(tmp_path, capsys, monkeypatch):
    """The deterministic cut enumerates comb(m + k - 1, k) candidate
    multisets under the same guard as the exact optimum."""
    obj = {
        "space": "line",
        "agents": ["1/3", "2/3"],
        "candidates": [f"{j}/50" for j in range(50)],
        "k": 2,
    }
    path = write_instance(tmp_path, obj)
    monkeypatch.setenv("FLG_GUARD", "1000")
    # 2 * 54 = 108 joint reports are within the guard, comb(51, 2) = 1275
    # multisets are not
    assert main(["verify", path, "--mechanism", "two-extremes", "--grid", "3"]) == EXIT_GUARD
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "guard exceeded: 1275 candidate multisets exceed the guard of 1000\n"
    with pytest.raises(GuardExceeded, match="^1275 candidate multisets exceed the guard of 1000$"):
        verify.find_group_deviation(
            instance_from_json(obj), TWO_EXTREMES, grid_points=3, guard=1000
        )


def test_python_m_output_is_the_same_bytes_under_any_hash_seed(capsys):
    """`python -m flgames` in fresh processes under two hash seeds prints
    the bytes the in-process main prints: A8's sweep, a metric-closure
    sweep, and a verify of the golden instance."""
    commands = [
        ["sweep", "--family", "line-uniform", "--n", "5", "--m", "4", "--seed", "17"]
        + ["--mechanism", "two-extremes", "--k", "2", "--objective", "sc", "--count", "200"],
        ["sweep", "--family", "metric-closure", "--n", "4", "--m", "3", "--seed", "17"]
        + ["--mechanism", "dictator:1", "--objective", "mc", "--count", "200"],
        ["verify", str(GOLDEN), "--mechanism", "mean"],
    ]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    for argv in commands:
        assert main(argv) == EXIT_OK
        expected = capsys.readouterr().out.encode()
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-m", "flgames", *argv], env=env, capture_output=True, timeout=120
            )
            assert done.returncode == EXIT_OK, done.stderr
            assert done.stdout == expected, (argv, seed)


def test_package_runs_on_the_standard_library_alone(capsys):
    """Under `python -I -S` (no site-packages, no PYTHON* variables) with
    only src added to sys.path, flgames and its CLI import, without
    building the parser, and solve the golden instance; hypothesis is
    not importable there, so the isolation is real."""
    script = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "try:\n"
        "    import hypothesis\n"
        "except ImportError:\n"
        "    pass\n"
        "else:\n"
        "    sys.exit('hypothesis is importable')\n"
        "import flgames\n"
        "import flgames.cli\n"
        "if flgames.cli._parser.cache_info().currsize:\n"
        "    sys.exit('the parser was built at import')\n"
        "sys.exit(flgames.cli.main(['solve', sys.argv[2], '--objective', 'mc']))\n"
    )
    argv = ["solve", str(GOLDEN), "--objective", "mc"]
    assert main(argv) == EXIT_OK
    expected = capsys.readouterr().out.encode()
    src = str(Path(__file__).resolve().parents[1] / "src")
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-c", script, src, str(GOLDEN)],
        capture_output=True,
        timeout=120,
    )
    assert done.returncode == EXIT_OK, done.stderr
    assert done.stdout == expected


def test_exit_parse_on_nonpositive_guard(tmp_path, capsys, monkeypatch):
    path = write_instance(tmp_path, instance_to_json(LB_BASE))
    for raw in ("0", "-5"):
        monkeypatch.setenv("FLG_GUARD", raw)
        assert main(["solve", path, "--objective", "mc"]) == EXIT_PARSE
        assert f"FLG_GUARD must be a positive integer, got {raw!r}" in capsys.readouterr().err


def test_exit_mismatch(tmp_path, capsys):
    metric_path = write_instance(tmp_path, METRIC_JSON)
    assert main(["run", metric_path, "--mechanism", "leftmost"]) == EXIT_MISMATCH
    line_path = write_instance(tmp_path, instance_to_json(LB_BASE), "line.json")
    assert main(["run", line_path, "--mechanism", "nope"]) == EXIT_MISMATCH
    assert main(["run", line_path, "--mechanism", "two-extremes"]) == EXIT_MISMATCH  # k=1
    capsys.readouterr()


# ---------------------------------------------------------------------------
# one parser per process

SUBCOMMANDS = ("solve", "run", "verify", "sweep", "replay")


def test_help_after_earlier_calls_is_a_fresh_parsers_bytes(capsys, monkeypatch):
    """Once main has parsed a usage error and a valid command, `--help`
    of flgames and of each subcommand prints what a freshly built parser
    prints (compared with a fresh build, since the layout differs across
    Python versions)."""
    monkeypatch.setenv("COLUMNS", "100")
    cli._parser.cache_clear()
    assert main(["fly"]) == EXIT_PARSE
    assert main(["solve", str(GOLDEN), "--objective", "mc"]) == EXIT_OK
    capsys.readouterr()
    for argv in (["--help"], *([sub, "--help"] for sub in SUBCOMMANDS)):
        with pytest.raises(SystemExit) as exc:
            cli.build_parser().parse_args(argv)
        assert exc.value.code == 0
        expected = capsys.readouterr().out
        assert expected.startswith("usage: flgames")
        assert main(argv) == EXIT_OK
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (expected, ""), argv


def test_reusing_the_parser_leaves_no_state(tmp_path, capsys, monkeypatch):
    """Repeated and mixed calls print what single calls print, options
    fall back to their defaults, and the parser is built once."""
    cli._parser.cache_clear()
    built = []
    real = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or real())
    solve = ["solve", str(GOLDEN), "--objective", "mc"]
    assert main(solve) == EXIT_OK
    first = capsys.readouterr().out
    assert main(solve) == EXIT_OK
    assert capsys.readouterr().out == first

    assert main(["solve"]) == EXIT_PARSE
    usage = capsys.readouterr()
    assert usage.out == "" and usage.err.startswith("usage: flgames solve")

    verify_args = ["verify", str(GOLDEN), "--mechanism", "leftmost"]
    code, payload = run_json(capsys, verify_args + ["--group-max", "2", "--grid", "9"])
    assert (code, payload["searched"]["max_coalition"]) == (EXIT_OK, 2)
    code, payload = run_json(capsys, verify_args)
    assert (code, payload["searched"]["max_coalition"]) == (EXIT_OK, 1)

    sweep = ["sweep", "--family", "line-uniform", "--n", "3", "--m", "2"]
    sweep += ["--mechanism", "leftmost", "--objective", "mc", "--count", "2"]
    out = tmp_path / "rows.csv"
    assert main(sweep + ["--out", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert main(sweep) == EXIT_OK
    assert capsys.readouterr().out == out.read_text(encoding="utf-8")

    for _ in range(10):
        assert main(solve) == EXIT_OK
    assert capsys.readouterr().out == first * 10
    assert main(["solve"]) == EXIT_PARSE
    assert capsys.readouterr() == ("", usage.err)
    assert built == [1]
