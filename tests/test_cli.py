"""CLI behavior: reports, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from mevsearch.cli import main

DATA = Path(__file__).parent.parent / "demos" / "data"
WAD = 10**18


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


def invoke(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


def test_mev_on_counterexample_scenario(runner):
    result = invoke(runner, ["mev", "--scenario", str(DATA / "two_amm_counterexample.json")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    best = int(doc["best_value"])
    assert abs(best - 123 * WAD) <= 123 * WAD * 5 // 100
    assert best > 76 * WAD
    assert doc["alpha"] is not None


def test_optimize_insert_emits_curve(runner, tmp_path):
    result = invoke(
        runner,
        [
            "optimize-insert",
            "--scenario",
            str(DATA / "two_amm_counterexample.json"),
            "--samples",
            "16",
            "--out",
            str(tmp_path),
        ],
    )
    assert result.exit_code == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert abs(int(doc["best_value"]) - 123 * WAD) <= 123 * WAD * 5 // 100
    curve = (tmp_path / "profit_curve.csv").read_text().strip().splitlines()
    assert curve[0] == "alpha,profit"
    assert len(curve) >= 16


def test_compose_check_exit_code(runner):
    result = runner.invoke(main, ["compose-check", "--scenario", str(DATA / "pricebet_compose.json")])
    assert result.exit_code == 2
    doc = json.loads(result.output)
    assert doc["status"] == "not composable (witness found)"
    assert int(doc["mev_after"]) - int(doc["mev_before"]) >= 100


def test_spread_deterministic_across_workers(runner, tmp_path):
    from mevsearch.corpus import make_spread_instance
    from mevsearch.scenario import save_scenario

    scenario = make_spread_instance(11, 0, 6)
    path = tmp_path / "scn.json"
    save_scenario(scenario, path)
    outputs = [
        invoke(runner, ["spread", "--scenario", str(path), "--workers", str(w)]).output
        for w in (1, 2, 1, 2)
    ]
    assert len(set(outputs)) == 1


def test_replay_ok_and_corrupted(runner, tmp_path):
    args = [
        "replay",
        "--scenario", str(DATA / "pair_scenario.json"),
        "--log", str(DATA / "pair_log.csv"),
        "--expected", str(DATA / "pair_expected.json"),
    ]
    good = runner.invoke(main, args)
    assert good.exit_code == 0
    doc = json.loads(good.output)
    assert doc["ok"] and all(d["within"] for d in doc["diffs"])

    wrong = json.loads((DATA / "pair_expected.json").read_text())
    wrong["pair"]["reserve_x"] = str(int(wrong["pair"]["reserve_x"]) + 10**21)
    bad_path = tmp_path / "expected.json"
    bad_path.write_text(json.dumps(wrong))
    bad = runner.invoke(main, args[:-1] + [str(bad_path)])
    assert bad.exit_code == 1


def test_wmev_closed_form(runner):
    result = invoke(
        runner,
        [
            "wmev",
            "--scenario", str(DATA / "wmev_scenario.json"),
            "--hash-fraction", "1/2",
            "--increment", "2",
            "--horizon", "64",
        ],
    )
    assert result.exit_code == 0
    doc = json.loads(result.output)
    num, den = map(int, doc["wmev"].split("/"))
    assert abs(num / den - 2) < 1e-9


def test_gen_corpus_byte_identical(runner, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        result = invoke(runner, ["gen-corpus", "--seed", "7", "--count", "4", "--txs", "8", "--out", str(out)])
        assert result.exit_code == 0
    files1 = sorted(out1.iterdir())
    files2 = sorted(out2.iterdir())
    assert [f.name for f in files1] == [f.name for f in files2]
    for f1, f2 in zip(files1, files2):
        assert f1.read_bytes() == f2.read_bytes()


def test_installed_entry_point_runs():
    result = subprocess.run(
        [sys.executable, "-m", "mevsearch.cli", "--help"], capture_output=True, text=True
    )
    assert result.returncode == 0
    for command in ("replay", "mev", "spread", "compose-check", "optimize-insert", "wmev", "gen-corpus"):
        assert command in result.stdout


def test_mev_output_byte_identical(runner, tmp_path):
    from mevsearch.corpus import make_spread_instance
    from mevsearch.scenario import save_scenario

    scenario = make_spread_instance(13, 1, 5)
    path = tmp_path / "scn.json"
    save_scenario(scenario, path)
    a = invoke(runner, ["mev", "--scenario", str(path), "--seed", "3"]).output
    b = invoke(runner, ["mev", "--scenario", str(path), "--seed", "3"]).output
    assert a == b


def test_mev_empty_mempool_is_zero(runner):
    result = invoke(runner, ["mev", "--scenario", str(DATA / "wmev_scenario.json")])
    assert result.exit_code == 0
    doc = json.loads(result.output)
    assert doc["best_value"] == "0"


def test_wmev_reports_cost_separately(runner):
    result = invoke(
        runner,
        [
            "wmev",
            "--scenario", str(DATA / "wmev_scenario.json"),
            "--hash-fraction", "1/2",
            "--increment", "2",
            "--mining-cost", "1",
        ],
    )
    doc = json.loads(result.output)
    assert doc["mining_cost"] == "1"
    num, den = map(int, doc["net_of_cost"].split("/"))
    assert abs(num / den - 1.0) < 1e-9  # 2 - 1


def test_invalid_scenario_is_a_one_line_error(tmp_path):
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "liquidation.json").read_text())
    doc["schema_version"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "mevsearch.cli", "mev", "--scenario", str(path)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: $.schema_version: unsupported version 2\n"


def test_spread_on_randomized_multiblock_scenario_is_a_one_line_error(runner, tmp_path):
    from mevsearch.cli import EXIT_BAD_INPUT
    from mevsearch.corpus import make_spread_instance
    from mevsearch.scenario import save_scenario

    path = tmp_path / "scn.json"
    save_scenario(make_spread_instance(11, 0, 4), path)
    doc = json.loads(path.read_text())
    doc["miner"]["k"] = 2
    doc["budget"]["mode"] = "randomized"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["spread", "--scenario", str(path)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr.startswith("error: value_spread over k > 1 blocks")
    assert result.stderr.count("\n") == 1


def test_open_size_templates_over_k_blocks_is_a_one_line_error(runner):
    from mevsearch.cli import EXIT_BAD_INPUT

    args = ["mev", "--scenario", str(DATA / "two_amm_counterexample.json"), "--k", "2"]
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stderr == "error: insertion sizing searches single-block spaces (k = 1)\n"


def test_seed_and_budget_overrides_keep_the_rest_of_the_budget():
    from mevsearch.cli import _apply_overrides
    from mevsearch.corpus import make_spread_instance
    from mevsearch.ordering import SearchBudget

    scenario = make_spread_instance(11, 0, 4)
    scenario.budget = SearchBudget(mode="randomized", max_paths=50, seed=1, tractability_threshold=3)
    out = _apply_overrides(scenario, 5, 7, None, None, None, None)
    assert out.budget == SearchBudget(mode="randomized", max_paths=7, seed=5, tractability_threshold=3)
