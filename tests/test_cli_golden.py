"""Byte-identical CLI output on the demo scenarios.

Each case runs one CLI command and compares its stdout and exit code, byte
for byte, with the copy saved under ``tests/golden/``.  The cases are the
README commands on ``demos/data/``, worker/k/censor variants of them, and
``mev``/``spread`` on a small seeded corpus.  Randomized-budget copies of
corpus scenario 0 and of ``liquidation.json`` reach the exact fold of a
budget whose counted space fits (at 1 and 2 workers), the sampler and the
greedy multi-block search.

To re-record after a change that is meant to alter output:

    PYTHONPATH=src python tests/test_cli_golden.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from mevsearch.cli import main

ROOT = Path(__file__).parent.parent
DATA = ROOT / "demos" / "data"
GOLDEN = Path(__file__).parent / "golden"
EXIT_CODES = GOLDEN / "exit_codes.json"

CORPUS_COUNT = 5
# Randomized budgets laid over corpus scenario 0: (name, max_paths, threshold).
RANDOMIZED = (
    ("capped", 400_000, 9),  # the count (96) fits far under the cap: exact
    ("overcap", 100, 9),  # the count (96) just fits: exact
    ("overflow", 50, 9),  # the count (96) is over the cap: sampling
    ("sampled", 200, 0),  # straight to sampling
)


def _cases(work: Path) -> dict[str, list[str]]:
    d = str(DATA)
    two_amm = f"{d}/two_amm_counterexample.json"
    liq = f"{d}/liquidation.json"
    bet = f"{d}/pricebet_compose.json"
    cases = {
        "mev_two_amm": ["mev", "--scenario", two_amm],
        "optimize_insert_two_amm": ["optimize-insert", "--scenario", two_amm, "--out", str(work / "curve")],
        "compose_check_pricebet": ["compose-check", "--scenario", bet],
        "compose_check_pricebet_workers2": ["compose-check", "--scenario", bet, "--workers", "2"],
        "wmev_closed_form": ["wmev", "--scenario", f"{d}/wmev_scenario.json",
                             "--hash-fraction", "1/2", "--increment", "2"],
        "replay_pair": ["replay", "--scenario", f"{d}/pair_scenario.json",
                        "--log", f"{d}/pair_log.csv", "--expected", f"{d}/pair_expected.json"],
        "gen_corpus_seed7": ["gen-corpus", "--seed", "7", "--count", "100", "--txs", "8",
                             "--out", str(work / "gen")],
        "mev_empty_mempool": ["mev", "--scenario", f"{d}/wmev_scenario.json"],
        "mev_liquidation": ["mev", "--scenario", liq],
        "mev_liquidation_workers2": ["mev", "--scenario", liq, "--workers", "2"],
        "mev_liquidation_k2": ["mev", "--scenario", liq, "--k", "2"],
        "mev_liquidation_k2_workers2": ["mev", "--scenario", liq, "--k", "2", "--workers", "2"],
        "mev_liquidation_censor_on": ["mev", "--scenario", liq, "--censor", "on"],
    }
    corpus = work / "corpus"
    for i in range(CORPUS_COUNT):
        scn = str(corpus / f"scenario_{i:03d}.json")
        cases[f"spread_corpus{i}"] = ["spread", "--scenario", scn, "--beneficiary", "whale"]
        cases[f"mev_corpus{i}"] = ["mev", "--scenario", scn]
    scn0 = str(corpus / "scenario_000.json")
    cases["spread_corpus0_workers2"] = ["spread", "--scenario", scn0, "--workers", "2"]
    cases["spread_corpus0_censor_on"] = ["spread", "--scenario", scn0, "--censor", "on"]
    cases["mev_corpus0_k2"] = ["mev", "--scenario", scn0, "--k", "2"]
    cases["mev_corpus0_k2_workers2"] = ["mev", "--scenario", scn0, "--k", "2", "--workers", "2"]
    cases["mev_corpus0_censor_on_workers2"] = ["mev", "--scenario", scn0, "--censor", "on", "--workers", "2"]
    for name, _, _ in RANDOMIZED:
        scn = str(work / f"{name}.json")
        cases[f"spread_{name}"] = ["spread", "--scenario", scn]
        cases[f"mev_{name}_k2"] = ["mev", "--scenario", scn, "--k", "2"]
    cases["spread_capped_workers2"] = ["spread", "--scenario", str(work / "capped.json"),
                                       "--workers", "2"]
    liq_randomized = str(work / "liquidation_randomized.json")
    cases["mev_liquidation_randomized"] = ["mev", "--scenario", liq_randomized]
    cases["mev_liquidation_randomized_workers2"] = ["mev", "--scenario", liq_randomized,
                                                    "--workers", "2"]
    return cases


def _prepare(work: Path) -> None:
    """Write the seeded corpus and its randomized-budget copies."""
    result = CliRunner().invoke(
        main, ["gen-corpus", "--seed", "7", "--count", str(CORPUS_COUNT), "--txs", "6",
               "--out", str(work / "corpus")]
    )
    assert result.exit_code == 0, result.output
    doc = json.loads((work / "corpus" / "scenario_000.json").read_text())
    for name, max_paths, threshold in RANDOMIZED:
        doc["budget"] = {"mode": "randomized", "max_paths": max_paths, "seed": 5,
                         "tractability_threshold": threshold}
        (work / f"{name}.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    # liquidation.json's trees do not compile, so they fold on the State path.
    doc = json.loads((DATA / "liquidation.json").read_text())
    doc["budget"] = {"mode": "randomized", "max_paths": 400_000, "seed": 5,
                     "tractability_threshold": 9}
    (work / "liquidation_randomized.json").write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _run(args: list[str]) -> tuple[str, int]:
    result = CliRunner().invoke(main, args, catch_exceptions=False)
    out = result.stdout
    if args[0] == "gen-corpus":
        # the output directory is the caller's choice, not part of the result
        out = "".join(line for line in out.splitlines(keepends=True) if '"out":' not in line)
    return out, result.exit_code


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    _prepare(path)
    return path


def _case_names() -> list[str]:
    return sorted(_cases(Path()))


@pytest.mark.parametrize("name", _case_names())
def test_cli_output_matches_golden(work, name):
    out, code = _run(_cases(work)[name])
    assert code == json.loads(EXIT_CODES.read_text())[name]
    assert out == (GOLDEN / f"{name}.out").read_text()


def record(work: Path) -> None:
    GOLDEN.mkdir(exist_ok=True)
    codes = {}
    for name, args in sorted(_cases(work).items()):
        out, codes[name] = _run(args)
        (GOLDEN / f"{name}.out").write_text(out)
    EXIT_CODES.write_text(json.dumps(codes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _prepare(Path(tmp))
        record(Path(tmp))
    sys.exit(0)
