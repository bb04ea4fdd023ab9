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
from flgames.instances import PaperConstruction, build_paper_instance
from flgames.mechanisms import LEFTMOST, TWO_EXTREMES
from flgames.solver import INFINITE_RATIO, GuardExceeded

GOLDEN = Path(__file__).parent / "data" / "golden_line_n5_m4_seed42_idx3.json"
LB_SHIFTED = build_paper_instance(PaperConstruction("single-lb-I-prime", eps=F(1, 10)))
LB_BASE = build_paper_instance(PaperConstruction("single-lb-I", eps=F(1, 10)))

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
    ],
)
def test_verify_clean_mechanism_reports_search_size(tmp_path, capsys, instance, flags, searched):
    path = write_instance(tmp_path, instance)
    code, payload = run_json(capsys, ["verify", path, *flags])
    assert code == EXIT_OK
    assert payload["result"] == "none"
    assert payload["searched"] == searched


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
    capsys.readouterr()


SWEEP_ARGS = ["sweep", "--family", "line-uniform", "--m", "2", "--mechanism", "leftmost"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "0"],
        ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "3"],  # n is 2
        ["verify", "{path}", "--mechanism", "leftmost", "--grid", "-1"],
        SWEEP_ARGS + ["--n", "0", "--objective", "mc", "--count", "1"],
        SWEEP_ARGS + ["--n", "2", "--low", "2", "--high", "1", "--objective", "mc", "--count", "1"],
        SWEEP_ARGS + ["--n", "2", "--objective", "mc", "--count", "-3"],
        ["replay", "--construction", "single-deterministic", "--mechanism", "leftmost",
         "--epsilon", "3/2"],
        ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "0", "--grid", "2000000"],
        ["verify", "{path}", "--mechanism", "leftmost", "--group-max", "3", "--grid", "2000000"],
    ],
)
def test_exit_parse_on_out_of_range_arguments(tmp_path, capsys, monkeypatch, argv):
    """An argument out of range is refused before any misreport is built,
    whatever the grid."""
    scaled = []
    real = verify.scale_to_integers
    monkeypatch.setattr(verify, "scale_to_integers", lambda values: scaled.append(1) or real(values))
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
    monkeypatch.setenv("FLG_GUARD", "not-a-number")
    assert main(["solve", path, "--objective", "mc"]) == EXIT_PARSE
    capsys.readouterr()


def test_verify_refuses_a_grid_past_the_guard_before_building_it(tmp_path, capsys, monkeypatch):
    """Every agent tries at least grid - 1 reports, so once n * (grid - 1)
    exceeds the guard no grid point is built."""
    scaled = []
    real = verify.scale_to_integers
    monkeypatch.setattr(verify, "scale_to_integers", lambda values: scaled.append(1) or real(values))
    path = write_instance(tmp_path, instance_to_json(LB_BASE))  # n = 2
    monkeypatch.setenv("FLG_GUARD", "10")
    for grid in ("300000", "7"):  # 2 * 6 = 12 > 10
        assert main(["verify", path, "--mechanism", "leftmost", "--grid", grid]) == EXIT_GUARD
    assert scaled == []
    # 2 * 5 = 10 is within the bound: the grid is built, and the search's
    # own count of 2 * 9 reports refuses it
    assert main(["verify", path, "--mechanism", "leftmost", "--grid", "6"]) == EXIT_GUARD
    assert scaled
    assert capsys.readouterr().err.count("guard exceeded: ") == 3
    # a metric space searches its points, whatever the grid
    metric_path = write_instance(tmp_path, METRIC_JSON, "metric.json")
    assert main(["verify", metric_path, "--mechanism", "dictator:1", "--grid", "300000"]) == EXIT_OK
    capsys.readouterr()


def test_verify_refuses_a_coalition_grid_past_the_guard_before_building_it(capsys, monkeypatch):
    """Coalitions of up to --group-max agents try at least
    sum over s of comb(n, s) * (grid - 1)**s joint reports, so the grid
    is refused unbuilt once that exceeds the guard."""
    scaled = []
    real = verify.scale_to_integers
    monkeypatch.setattr(verify, "scale_to_integers", lambda values: scaled.append(1) or real(values))
    monkeypatch.setenv("FLG_GUARD", "1000000")
    # n = 5: 5 * 199999 is within the guard, 10 * 199999**2 more is not
    argv = ["verify", str(GOLDEN), "--mechanism", "leftmost", "--group-max", "2", "--grid", "200000"]
    assert main(argv) == EXIT_GUARD
    assert capsys.readouterr().err == "guard exceeded: 200000-point grid exceeds the guard of 1000000\n"
    # the library search passes its coalition size to the same bound
    instance = instance_from_json(json.loads(GOLDEN.read_text()))
    with pytest.raises(GuardExceeded, match="^200000-point grid exceeds the guard of 1000000$"):
        verify.find_group_deviation(
            instance, LEFTMOST, max_coalition=2, grid_points=200000, guard=10**6
        )
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
    only src added to sys.path, flgames and its CLI import and solve the
    golden instance; hypothesis is not importable there, so the
    isolation is real."""
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
