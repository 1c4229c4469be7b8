"""CLI behavior: reports, determinism, exit codes."""

import json
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from mevsearch.cli import main
from mevsearch.scenario import load_scenario

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


def test_sizing_that_inserts_nothing_reports_no_alpha_and_no_curve(runner, tmp_path):
    # With no user trade and both pools at one price, every inserted round
    # trip loses its fees: the best skeleton inserts nothing.
    doc = json.loads((DATA / "two_amm_counterexample.json").read_text())
    doc["mempool"] = []
    sushi, uni = doc["contracts"]
    uni["reserve_x"], uni["reserve_y"] = sushi["reserve_x"], sushi["reserve_y"]
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["mev", "--scenario", str(path)])
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["alpha"] is None and report["best_value"] == "0"
    out = tmp_path / "out"
    result = invoke(runner, ["optimize-insert", "--scenario", str(path), "--out", str(out)])
    assert result.exit_code == 0
    assert json.loads((out / "report.json").read_text()) == json.loads(result.output)
    assert sorted(p.name for p in out.iterdir()) == ["report.json"]


def test_compose_check_exit_code(runner):
    from mevsearch.cli import EXIT_NOT_COMPOSABLE

    # --epsilon takes N as well as N/D; with no MEV before the deploy, no
    # epsilon makes the bet composable
    for extra, epsilon in (([], "0/1"), (["--epsilon", "1"], "1/1")):
        args = ["compose-check", "--scenario", str(DATA / "pricebet_compose.json"), *extra]
        result = runner.invoke(main, args)
        # distinct from click's usage-error code 2
        assert result.exit_code == EXIT_NOT_COMPOSABLE == 4
        doc = json.loads(result.output)
        assert doc["epsilon"] == epsilon
        assert doc["status"] == "not composable (witness found)"
        assert int(doc["mev_after"]) - int(doc["mev_before"]) >= 100


def test_optimize_insert_curve_matches_search_when_user_tx_fails(runner, tmp_path):
    # With 1 wei of COMP the user's sell fails and is censored-by-failure;
    # the curve and the sizing step must agree on that.
    from mevsearch.insertion import InsertionProblem, evaluate_alpha
    from mevsearch.metrics import PlayerDelta
    from mevsearch.scenario import load_scenario

    doc = json.loads((DATA / "two_amm_counterexample.json").read_text())
    (user,) = (acct for acct in doc["accounts"] if acct != "miner")
    doc["accounts"][user]["COMP"] = "1"
    path = tmp_path / "one_wei.json"
    path.write_text(json.dumps(doc))
    result = invoke(runner, ["optimize-insert", "--scenario", str(path), "--out", str(tmp_path / "out")])
    assert result.exit_code == 0
    report = json.loads(result.output)
    rows = (tmp_path / "out" / "profit_curve.csv").read_text().splitlines()[1:]
    assert len(rows) == 64
    assert any(not row.endswith(",") for row in rows)

    scenario = load_scenario(path)
    state = scenario.initial_state()
    space = scenario.space()
    objective = PlayerDelta.from_state(frozenset(("miner",)), scenario.get_valuation(), state)
    items = {tx.label: tx for tx in space.mempool + space.templates}
    skeleton = tuple(items[label] for label in report["best_ordering"])
    problem = InsertionProblem(
        state, skeleton, *scenario.insertion_bounds, objective, space.fee_policy()
    )
    assert evaluate_alpha(problem, int(report["alpha"])) == int(report["best_value"])


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


def test_spread_forks_above_the_crossover_with_the_one_worker_output(runner, tmp_path, monkeypatch):
    import os

    from mevsearch import ordering
    from mevsearch.corpus import make_spread_instance
    from mevsearch.scenario import save_scenario

    scenario = make_spread_instance(900, 2, 10, n_pools=2, fee_bps=30, whale_txs=2)
    state = scenario.initial_state()
    tree = ordering._Tree(
        scenario.space(), ordering._FULL, frozenset({scenario.beneficiary}), state.contracts
    )
    assert tree.count_offers() > ordering.FORK_CROSSOVER
    path = tmp_path / "scn.json"
    save_scenario(scenario, path)
    forks = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    # two usable CPUs on any host, so that 2 workers fork one
    monkeypatch.setattr(ordering, "_usable_cpus", lambda: 2)
    outputs = {}
    for w in (1, 2):
        del forks[:]
        result = invoke(runner, ["spread", "--scenario", str(path), "--workers", str(w)])
        assert result.exit_code == 0
        outputs[w] = result.output
        assert len(forks) == w - 1
    assert outputs[2] == outputs[1]
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


def test_mev_k0_is_a_one_line_error(runner):
    from mevsearch.cli import EXIT_BAD_INPUT

    result = runner.invoke(main, ["mev", "--scenario", str(DATA / "liquidation.json"), "--k", "0"])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: k must be >= 1\n"


def test_a_search_deeper_than_the_recursion_limit_is_a_one_line_error(runner, tmp_path):
    # k past the recursion limit fails before the per-block tables of length
    # k are built, whether k comes from the option or from the scenario.
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "liquidation.json").read_text())
    doc["miner"]["k"] = "1000000000000"
    path = tmp_path / "huge_k.json"
    path.write_text(json.dumps(doc))
    for args in (
        ["mev", "--scenario", str(DATA / "liquidation.json"), "--k", "1000"],
        ["mev", "--scenario", str(DATA / "liquidation.json"), "--k", "1000000000000"],
        ["mev", "--scenario", str(path)],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == EXIT_BAD_INPUT
        assert result.stdout == ""
        assert result.stderr == (
            "error: the search nests deeper than the recursion limit of "
            f"{sys.getrecursionlimit()} frames; lower k or the number of transactions\n"
        )


def test_insertion_sizing_deeper_than_the_recursion_limit_is_a_one_line_error(runner, tmp_path):
    # Insertion sizing raises a bare RecursionError, which the CLI reports
    # itself: 1,100 size-1 user swaps in a fixed order around the two open
    # templates nest the capped count past the limit.
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "two_amm_counterexample.json").read_text())
    user = doc["mempool"][0]
    doc["mempool"] = [dict(user, amount="1", label=f"u{i}") for i in range(1_100)]
    doc["miner"]["flags"]["reorder"] = False
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["mev", "--scenario", str(path)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == (
        "error: the search nests deeper than the recursion limit of "
        f"{sys.getrecursionlimit()} frames; lower k or the number of transactions\n"
    )


def test_open_size_templates_over_k_blocks_is_a_one_line_error(runner):
    from mevsearch.cli import EXIT_BAD_INPUT

    args = ["mev", "--scenario", str(DATA / "two_amm_counterexample.json"), "--k", "2"]
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stderr == "error: insertion sizing searches single-block spaces (k = 1)\n"


def test_pool_fee_of_the_whole_input_is_a_one_line_error(runner, tmp_path):
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "two_amm_counterexample.json").read_text())
    doc["contracts"][1]["fee_bps"] = 10_000
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["mev", "--scenario", str(path)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: $.contracts[1].fee_bps: value 10000 above maximum 9999\n"


@pytest.mark.parametrize("command", ["mev", "optimize-insert"])
def test_an_insertion_size_beyond_a_word_is_a_one_line_error(runner, tmp_path, command):
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "two_amm_counterexample.json").read_text())
    path = tmp_path / "scn.json"
    doc["insertion_bounds"]["alpha_max"] = str(2**256 - 1)
    path.write_text(json.dumps(doc))
    assert runner.invoke(main, [command, "--scenario", str(path)]).exit_code == 0
    doc["insertion_bounds"]["alpha_max"] = str(10**400)
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, "--scenario", str(path)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == (
        f"error: $.insertion_bounds.alpha_max: value {10**400} above maximum {2**256 - 1}\n"
    )


def test_wrong_shaped_scenario_section_is_a_one_line_error(runner, tmp_path):
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "liquidation.json").read_text())
    doc["budget"] = []
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["mev", "--scenario", str(path)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: $.budget: expected a JSON object\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ('{"pair": ', "$: invalid JSON: Expecting value: line 1 column 10 (char 9)"),
        ('{"pair": {"reserve_x": "abc"}}', "$.pair.reserve_x: not a decimal integer: 'abc'"),
        ('{"pair": {"reserve_x": null}}', "$.pair.reserve_x: expected a decimal string, got None"),
        ('{"pair": []}', "$.pair: expected a JSON object"),
        ('["pair"]', "$: expected a JSON object"),
        ("[" * 100_000 + "]" * 100_000, "$: JSON nests deeper than the recursion limit"),
    ],
    ids=["invalid_json", "not_an_integer", "null", "venue_not_an_object", "not_an_object", "too_deep"],
)
def test_bad_expected_snapshot_is_a_one_line_error(runner, tmp_path, text, message):
    from mevsearch.cli import EXIT_BAD_INPUT

    path = tmp_path / "expected.json"
    path.write_text(text)
    args = [
        "replay",
        "--scenario", str(DATA / "pair_scenario.json"),
        "--log", str(DATA / "pair_log.csv"),
        "--expected", str(path),
    ]
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == f"error: {message}\n"


@pytest.mark.parametrize("option, value", [("--increment", "abc"), ("--mining-cost", "1.5")])
def test_wmev_integer_options_are_usage_errors(runner, option, value):
    args = ["wmev", "--scenario", str(DATA / "wmev_scenario.json"), "--hash-fraction", "1/2", option, value]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert f"Invalid value for '{option}'" in result.stderr


def test_seed_and_budget_overrides_keep_the_rest_of_the_budget():
    from mevsearch.cli import _apply_overrides
    from mevsearch.corpus import make_spread_instance
    from mevsearch.ordering import SearchBudget

    scenario = make_spread_instance(11, 0, 4)
    scenario.budget = SearchBudget(mode="randomized", max_paths=50, seed=1, tractability_threshold=3)
    out = _apply_overrides(scenario, 5, 7, None, None, None, None)
    assert out.budget == SearchBudget(mode="randomized", max_paths=7, seed=5, tractability_threshold=3)


def test_insert_override_matches_the_library(runner):
    from mevsearch.metrics import ev

    args = ["mev", "--scenario", str(DATA / "liquidation.json"), "--insert", "off"]
    doc = json.loads(invoke(runner, args).output)
    scenario = load_scenario(DATA / "liquidation.json")
    scenario.allow_insert = False
    report = ev(
        scenario.player(), scenario.space(), scenario.initial_state(),
        scenario.get_valuation(), scenario.budget,
    )
    assert (doc["best_value"], doc["best_ordering"]) == ("0", ["push-down", "push-up"])
    assert (int(doc["best_value"]), tuple(doc["best_ordering"])) == (
        report.best_value, report.best_ordering
    )


def test_valuation_override_matches_the_library(runner, tmp_path):
    from mevsearch.metrics import ORACLE_PRICED, PRIMARY_ONLY, Valuation, ev

    # liquidation.json with DAI as the primary token: the miner's 900 ETH of
    # collateral is then worth 1,800 priced and nothing counted alone.
    doc = json.loads((DATA / "liquidation.json").read_text())
    for token in doc["tokens"]:
        token["primary"] = token["id"] == "DAI"
    doc["valuation"]["prices"] = {"ETH": {"num": "2", "den": "1"}}
    path = tmp_path / "scn.json"
    path.write_text(json.dumps(doc))
    scenario = load_scenario(path)
    values = {}
    for option, mode in (("primary", PRIMARY_ONLY), ("oracle", ORACLE_PRICED)):
        out = json.loads(invoke(runner, ["mev", "--scenario", str(path), "--valuation", option]).output)
        valuation = Valuation(primary="DAI", mode=mode, prices=scenario.get_valuation().prices)
        report = ev(
            scenario.player(), scenario.space(), scenario.initial_state(), valuation, scenario.budget
        )
        assert (int(out["best_value"]), tuple(out["best_ordering"])) == (
            report.best_value, report.best_ordering
        )
        values[option] = report.best_value
    assert values == {"primary": 0, "oracle": 1_800}


@pytest.mark.parametrize(
    "section, index, key",
    [
        ("mempool", 0, "venue"),
        ("mempool", 0, "actor"),
        ("mempool", 0, "token_in"),
        ("contracts", 0, "id"),
        ("contracts", 1, "token_x"),
        ("contracts", 0, "price_source"),
        ("tokens", 0, "id"),
    ],
)
def test_non_string_id_is_a_one_line_error(runner, tmp_path, section, index, key):
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "liquidation.json").read_text())
    assert key in doc[section][index]
    doc[section][index][key] = []
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(main, ["mev", "--scenario", str(path)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr.startswith(f"error: $.{section}[")
    assert result.stderr.endswith(f".{key}: expected a string, got []\n")
    assert result.stderr.count("\n") == 1


UTF16_BOM = b"\xff\xfe"


@pytest.mark.parametrize("which", ["scenario", "log", "expected"])
def test_input_that_is_not_utf8_is_a_one_line_error(runner, tmp_path, which):
    from mevsearch.cli import EXIT_BAD_INPUT

    files = {
        "scenario": DATA / "pair_scenario.json",
        "log": DATA / "pair_log.csv",
        "expected": DATA / "pair_expected.json",
    }
    bad = tmp_path / files[which].name
    bad.write_bytes(UTF16_BOM + files[which].read_bytes())
    files[which] = bad
    args = ["replay"] + [arg for name, path in files.items() for arg in (f"--{name}", str(path))]
    result = runner.invoke(main, args)
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert "not UTF-8 text" in result.stderr
    assert result.stderr.count("\n") == 1


def test_negative_log_cell_is_a_one_line_error(runner, tmp_path):
    from mevsearch.cli import EXIT_BAD_INPUT

    lines = (DATA / "pair_log.csv").read_text().splitlines(keepends=True)
    assert ",u0,TKN,158611016607348817167," in lines[1]
    lines[1] = lines[1].replace(",158611016607348817167,", ",-5,")
    log = tmp_path / "pair_log.csv"
    log.write_text("".join(lines))
    result = runner.invoke(main, [
        "replay", "--scenario", str(DATA / "pair_scenario.json"), "--log", str(log),
        "--expected", str(DATA / "pair_expected.json"),
    ])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: line 2: column 'amount_in': value -5 below minimum 0\n"


def _set(doc, path, value):
    *parents, last = path
    for key in parents:
        doc = doc[key]
    doc[last] = value


@pytest.mark.parametrize(
    "name, path, where",
    [
        ("liquidation.json", ("miner", "flags", "censor"), "$.miner.flags.censor"),
        ("liquidation.json", ("miner", "charge_fees"), "$.miner.charge_fees"),
        ("liquidation.json", ("tokens", 0, "primary"), "$.tokens[0].primary"),
        ("liquidation.json", ("contracts", 0, "efficient_auction"), "$.contracts[0].efficient_auction"),
        ("pricebet_compose.json", ("new_contract", "settled"), "$.new_contract.settled"),
        ("two_amm_counterexample.json", ("miner", "templates", 0, "exact_out"), "$.miner.templates[0].exact_out"),
    ],
)
def test_non_boolean_flag_is_a_one_line_error(runner, tmp_path, name, path, where):
    # bool("false") is True: a quoted false once switched censoring on.
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / name).read_text())
    _set(doc, path, "false")
    scn = tmp_path / name
    scn.write_text(json.dumps(doc))
    result = runner.invoke(main, ["mev", "--scenario", str(scn)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == f"error: {where}: expected true or false, got 'false'\n"


@pytest.mark.parametrize("command", ["mev", "optimize-insert"])
def test_budget_mode_typo_is_a_one_line_error(runner, tmp_path, command):
    from mevsearch.cli import EXIT_BAD_INPUT

    doc = json.loads((DATA / "two_amm_counterexample.json").read_text())
    doc["budget"]["mode"] = "exhaustiv"
    scn = tmp_path / "typo.json"
    scn.write_text(json.dumps(doc))
    result = runner.invoke(main, [command, "--scenario", str(scn)])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: unknown budget mode: 'exhaustiv'\n"


def test_budget_of_zero_paths_is_a_one_line_error(runner):
    from mevsearch.cli import EXIT_BAD_INPUT

    result = runner.invoke(main, ["mev", "--scenario", str(DATA / "liquidation.json"), "--budget", "0"])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: budget max_paths must be >= 1, got 0\n"


def test_negative_seed_is_a_one_line_error(runner):
    from mevsearch.cli import EXIT_BAD_INPUT

    result = runner.invoke(main, ["mev", "--scenario", str(DATA / "liquidation.json"), "--seed", "-1"])
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: budget seed must be >= 0, got -1\n"


def test_gen_corpus_with_a_negative_seed_writes_no_scenario(runner, tmp_path):
    from mevsearch.cli import EXIT_BAD_INPUT

    out = tmp_path / "corpus"
    result = runner.invoke(
        main, ["gen-corpus", "--seed", "-1", "--count", "1", "--txs", "3", "--out", str(out)]
    )
    assert result.exit_code == EXIT_BAD_INPUT
    assert result.stdout == ""
    assert result.stderr == "error: budget seed must be >= 0, got -1\n"
    assert not list(tmp_path.glob("**/scenario_*.json"))


@pytest.mark.parametrize(
    "args",
    [
        ["wmev", "--scenario", str(DATA / "wmev_scenario.json"), "--hash-fraction", "1/2", "--k", "3"],
        ["optimize-insert", "--scenario", str(DATA / "two_amm_counterexample.json"), "--seed", "1"],
    ],
    ids=["wmev_k", "optimize_insert_seed"],
)
def test_removed_options_are_usage_errors(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "no such option" in result.stderr.lower() and args[-2] in result.stderr


@pytest.mark.parametrize(
    "args, option",
    [
        (["mev", "--scenario", str(DATA / "liquidation.json"), "--workers", "-4"], "--workers"),
        (["spread", "--scenario", str(DATA / "liquidation.json"), "--workers", "0"], "--workers"),
        (["compose-check", "--scenario", str(DATA / "pricebet_compose.json"), "--workers", "-2"], "--workers"),
        (["gen-corpus", "--seed", "7", "--count", "-1"], "--count"),
        (["gen-corpus", "--seed", "7", "--txs", "-1"], "--txs"),
        (
            [
                "replay",
                "--scenario", str(DATA / "pair_scenario.json"),
                "--log", str(DATA / "pair_log.csv"),
                "--expected", str(DATA / "pair_expected.json"),
                "--tolerance", "-1",
            ],
            "--tolerance",
        ),
        (
            ["optimize-insert", "--scenario", str(DATA / "two_amm_counterexample.json"), "--samples", "1"],
            "--samples",
        ),
        (
            ["wmev", "--scenario", str(DATA / "wmev_scenario.json"), "--hash-fraction", "1/2",
             "--horizon", "0"],
            "--horizon",
        ),
    ],
    ids=[
        "mev_workers", "spread_workers", "compose_check_workers", "gen_corpus_count",
        "gen_corpus_txs", "replay_tolerance", "optimize_insert_samples", "wmev_horizon",
    ],
)
def test_out_of_range_integer_options_are_usage_errors(runner, tmp_path, args, option):
    out = tmp_path / "out"
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert "Invalid value for" in result.stderr and option in result.stderr
    assert not out.exists()


@pytest.mark.parametrize("option, value", [("--budget", "1"), ("--seed", "3")])
def test_search_options_on_insertion_sizing_are_usage_errors(runner, tmp_path, option, value):
    # insertion sizing reads no search budget, so mev rejects the options
    # that would override it rather than ignore them
    out = tmp_path / "out"
    args = ["mev", "--scenario", str(DATA / "two_amm_counterexample.json"), option, value]
    result = runner.invoke(main, [*args, "--out", str(out)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert f"{option} does not apply to insertion sizing" in result.stderr
    assert not out.exists()
