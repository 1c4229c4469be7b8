"""Command-line interface.

Every subcommand reads scenario/log files, runs the corresponding analysis,
and prints one machine-readable JSON report (amounts as decimal strings, keys
sorted) so identical inputs, seed and worker count produce byte-identical
output.  ``--out DIR`` additionally writes the report and any CSV plot data.

Exit codes:

- 0: success.
- 1: ``replay`` found a field diff beyond its tolerance, or a subcommand
  rejected its arguments (``Error: ...`` on stderr).
- 2: ``compose-check`` found a violation witness, or the command line is
  malformed (click's usage error).
- 3: a scenario, event log or snapshot is invalid, or the search cannot run
  on it (``error: ...``, one line on stderr).
"""

from __future__ import annotations

import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .compose import check_composability
from .corpus import gen_corpus
from .eventlog import load_expected, read_event_log, replay_validate
from .insertion import has_unresolved_amount, profit_curve, search_with_insertion, InsertionProblem
from .metrics import MinerModel, PlayerDelta, Valuation, ev, k_mev, value_spread, wmev
from .scenario import ParseError, Scenario, dumps_canonical, load_scenario, save_scenario
from .state import ScenarioError

EXIT_BAD_INPUT = 3  # see the module docstring for every exit code


def _fraction_arg(text: str, name: str) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError):
        raise click.BadParameter(f"{name} must look like N or N/D") from None


def _on_off(value: str | None) -> bool | None:
    if value is None:
        return None
    if value not in ("on", "off"):
        raise click.BadParameter("expected 'on' or 'off'")
    return value == "on"


def _apply_overrides(scenario: Scenario, seed, budget, k, censor, insert, valuation) -> Scenario:
    if seed is not None:
        scenario.budget = replace(scenario.budget, seed=seed)
    if budget is not None:
        scenario.budget = replace(scenario.budget, max_paths=budget)
    if k is not None:
        scenario.k = k
    if censor is not None:
        scenario.allow_censor = censor
    if insert is not None:
        scenario.allow_insert = insert
    if valuation is not None:
        mode = "primary_only" if valuation == "primary" else "oracle_priced"
        base = scenario.get_valuation()
        scenario.valuation = Valuation(primary=base.primary, mode=mode, prices=base.prices)
    return scenario


def _report_int(value: int) -> str:
    return str(value)


def _emit(report: dict, out: str | None, csvs: dict[str, list[str]] | None = None) -> None:
    text = dumps_canonical(report)
    click.echo(text, nl=False)
    if out:
        out_dir = Path(out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "report.json").write_text(text)
        for name, rows in (csvs or {}).items():
            (out_dir / name).write_text("\n".join(rows) + "\n")


def _ev_report_json(report) -> dict:
    doc = {
        "best_value": _report_int(report.best_value),
        "best_ordering": list(report.best_ordering),
        "paths_explored": report.paths_explored,
        "exhaustive": report.exhaustive,
    }
    if report.worst_value is not None:
        doc["worst_value"] = _report_int(report.worst_value)
        doc["worst_ordering"] = list(report.worst_ordering or ())
    if report.paths_total is not None:
        doc["paths_total"] = report.paths_total
    return doc


scenario_option = click.option("--scenario", "scenario_path", required=True, type=click.Path(exists=True))
seed_option = click.option("--seed", type=int, default=None, help="Override the scenario's search seed.")
workers_option = click.option("--workers", type=int, default=1, show_default=True)
budget_option = click.option("--budget", type=int, default=None, help="Override max explored paths.")
k_option = click.option("--k", type=int, default=None, help="Override the number of blocks.")
censor_option = click.option("--censor", type=str, default=None, metavar="on|off")
insert_option = click.option("--insert", type=str, default=None, metavar="on|off")
valuation_option = click.option(
    "--valuation", type=click.Choice(["primary", "oracle"]), default=None
)
out_option = click.option("--out", type=click.Path(), default=None, help="Directory for report/CSV output.")


class _Main(click.Group):
    """Reports invalid input as one line on stderr, never as a traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (ParseError, ScenarioError) as e:
            click.echo(f"error: {e}", err=True)
            ctx.exit(EXIT_BAD_INPUT)


@click.group(cls=_Main)
@click.version_option(__version__)
def main() -> None:
    """Deterministic DeFi ordering-search toolkit."""


@main.command()
@scenario_option
@click.option("--log", "log_path", required=True, type=click.Path(exists=True))
@click.option("--expected", "expected_path", required=True, type=click.Path(exists=True))
@click.option("--tolerance", type=int, default=1, show_default=True, help="Base units per applied swap.")
@out_option
def replay(scenario_path, log_path, expected_path, tolerance, out):
    """Replay an event log and diff the final state against a snapshot."""
    scenario = load_scenario(scenario_path)
    records = read_event_log(log_path)
    expected = load_expected(expected_path)
    report = replay_validate(
        scenario.initial_state(), records, expected, amm_tolerance_per_swap=tolerance
    )
    doc = {
        "ok": report.ok,
        "records": len(records),
        "failures": [
            {"index": f.index, "kind": f.record.kind, "reason": f.reason} for f in report.failures
        ],
        "swap_counts": dict(sorted(report.swap_counts.items())),
        "diffs": [
            {
                "venue": d.venue,
                "field": d.field,
                "actual": _report_int(d.actual),
                "expected": _report_int(d.expected),
                "abs_diff": _report_int(d.abs_diff),
                "rel_diff": None if d.rel_diff is None else f"{d.rel_diff.numerator}/{d.rel_diff.denominator}",
                "tolerance": _report_int(d.tolerance),
                "within": d.within,
            }
            for d in report.diffs
        ],
    }
    _emit(doc, out)
    if not report.ok:
        sys.exit(1)


@main.command()
@scenario_option
@seed_option
@workers_option
@budget_option
@k_option
@censor_option
@insert_option
@valuation_option
@out_option
def mev(scenario_path, seed, workers, budget, k, censor, insert, valuation, out):
    """Best extractable value for the scenario's miner."""
    scenario = _apply_overrides(
        load_scenario(scenario_path), seed, budget, k, _on_off(censor), _on_off(insert), valuation
    )
    state = scenario.initial_state()
    space = scenario.space()
    val = scenario.get_valuation()
    player = scenario.player()
    doc: dict
    if any(has_unresolved_amount(tx) for tx in space.templates):
        if scenario.insertion_bounds is None:
            raise click.ClickException("scenario has open templates but no insertion_bounds")
        objective = PlayerDelta.from_state(player.accounts, val, state)
        result = search_with_insertion(
            space, scenario.budget, objective, state, *scenario.insertion_bounds
        )
        doc = _ev_report_json(result.report)
        doc["alpha"] = None if result.alpha is None else _report_int(result.alpha)
    elif scenario.k > 1:
        report = k_mev(player, state, space, scenario.k, val, scenario.budget, workers=workers)
        doc = _ev_report_json(report)
    else:
        report = ev(player, space, state, val, scenario.budget, workers=workers)
        doc = _ev_report_json(report)
    doc["miner"] = scenario.miner_account
    doc["seed"] = scenario.budget.seed
    doc["workers"] = workers
    _emit(doc, out)


@main.command()
@scenario_option
@click.option("--beneficiary", type=str, default=None)
@seed_option
@workers_option
@budget_option
@censor_option
@valuation_option
@out_option
def spread(scenario_path, beneficiary, seed, workers, budget, censor, valuation, out):
    """Best-minus-worst ordering value for one account (bribery bound)."""
    scenario = _apply_overrides(
        load_scenario(scenario_path), seed, budget, None, _on_off(censor), None, valuation
    )
    who = beneficiary or scenario.beneficiary
    if not who:
        raise click.ClickException("no beneficiary: pass --beneficiary or set it in the scenario")
    result = value_spread(
        who,
        scenario.space(),
        scenario.initial_state(),
        scenario.get_valuation(),
        scenario.budget,
        workers=workers,
    )
    doc = {
        "beneficiary": who,
        "b_high": _report_int(result.b_high),
        "b_low": _report_int(result.b_low),
        "spread": _report_int(result.spread),
        "best_ordering": list(result.best_ordering),
        "worst_ordering": list(result.worst_ordering),
        "paths_explored": result.paths_explored,
        "exhaustive": result.exhaustive,
    }
    _emit(doc, out)


@main.command("compose-check")
@scenario_option
@click.option("--epsilon", type=str, default=None, metavar="N/D")
@seed_option
@workers_option
@budget_option
@censor_option
@insert_option
@valuation_option
@out_option
def compose_check(scenario_path, epsilon, seed, workers, budget, censor, insert, valuation, out):
    """epsilon-composability of the scenario's new contract."""
    scenario = _apply_overrides(
        load_scenario(scenario_path), seed, budget, None, _on_off(censor), _on_off(insert), valuation
    )
    if scenario.new_contract is None:
        raise click.ClickException("scenario has no new_contract section")
    eps = _fraction_arg(epsilon, "--epsilon") if epsilon is not None else scenario.epsilon
    verdict = check_composability(
        scenario.initial_state(),
        scenario.new_contract[0],
        scenario.new_contract[1],
        scenario.player(),
        eps,
        scenario.space(),
        scenario.get_valuation(),
        scenario.budget,
        workers=workers,
    )
    doc = {
        "contract": scenario.new_contract[0],
        "epsilon": f"{eps.numerator}/{eps.denominator}",
        "mev_before": _report_int(verdict.mev_before),
        "mev_after": _report_int(verdict.mev_after),
        "composable": verdict.composable,
        "status": verdict.status,
        "witness": None if verdict.witness is None else list(verdict.witness),
    }
    _emit(doc, out)
    if not verdict.composable:
        sys.exit(2)


@main.command("optimize-insert")
@scenario_option
@seed_option
@click.option("--samples", type=int, default=64, show_default=True, help="Profit-curve grid size.")
@valuation_option
@out_option
def optimize_insert(scenario_path, seed, samples, valuation, out):
    """Optimize the miner templates' shared trade size; emit the profit curve."""
    scenario = _apply_overrides(load_scenario(scenario_path), seed, None, None, None, None, valuation)
    if scenario.insertion_bounds is None:
        raise click.ClickException("scenario has no insertion_bounds section")
    space = scenario.space()
    if not any(has_unresolved_amount(tx) for tx in space.templates):
        raise click.ClickException("no template has an unresolved amount")
    state = scenario.initial_state()
    val = scenario.get_valuation()
    objective = PlayerDelta.from_state(frozenset((scenario.miner_account,)), val, state)
    result = search_with_insertion(
        space, scenario.budget, objective, state, *scenario.insertion_bounds
    )
    doc = _ev_report_json(result.report)
    doc["alpha"] = None if result.alpha is None else _report_int(result.alpha)

    csvs = None
    if result.alpha is not None:
        items = {tx.label: tx for tx in space.mempool + space.templates}
        skeleton = tuple(items[lbl] for lbl in result.report.best_ordering)
        problem = InsertionProblem(
            state, skeleton, *scenario.insertion_bounds, objective, space.fee_policy()
        )
        rows = ["alpha,profit"]
        rows += [
            f"{alpha},{'' if profit is None else profit}" for alpha, profit in profit_curve(problem, samples)
        ]
        csvs = {"profit_curve.csv": rows}
    _emit(doc, out, csvs)


@main.command()
@scenario_option
@click.option("--horizon", type=int, default=64, show_default=True)
@click.option("--hash-fraction", "hash_fraction", type=str, default=None, metavar="N/D")
@click.option("--increment", type=str, default=None, help="Constant per-block value (closed-form model).")
@click.option("--mining-cost", "mining_cost", type=str, default="0",
              help="Operating cost to report alongside the value (base units).")
@seed_option
@budget_option
@k_option
@censor_option
@insert_option
@valuation_option
@out_option
def wmev_cmd(scenario_path, horizon, hash_fraction, increment, mining_cost, seed, budget, k,
             censor, insert, valuation, out):
    """Probability-weighted MEV over a block horizon."""
    scenario = _apply_overrides(
        load_scenario(scenario_path), seed, budget, k, _on_off(censor), _on_off(insert), valuation
    )
    if hash_fraction is None:
        raise click.ClickException("--hash-fraction is required")
    f = _fraction_arg(hash_fraction, "--hash-fraction")
    player = MinerModel(
        accounts=frozenset((scenario.miner_account,)),
        hash_fraction=f,
        per_block_increment=None if increment is None else int(increment),
    )
    result = wmev(
        player,
        scenario.initial_state(),
        scenario.space(),
        horizon,
        scenario.get_valuation(),
        scenario.budget,
        mining_cost=int(mining_cost),
    )
    doc = {
        "horizon": horizon,
        "hash_fraction": f"{f.numerator}/{f.denominator}",
        "wmev": f"{result.total.numerator}/{result.total.denominator}",
        "mining_cost": str(result.mining_cost),
        "net_of_cost": f"{result.net_of_cost.numerator}/{result.net_of_cost.denominator}",
        "tail_bound": None
        if result.tail_bound is None
        else f"{result.tail_bound.numerator}/{result.tail_bound.denominator}",
    }
    rows = ["k,p_k,k_mev"]
    for i, (p, v) in enumerate(zip(result.probabilities, result.per_block_mev), start=1):
        rows.append(f"{i},{p.numerator}/{p.denominator},{v}")
    _emit(doc, out, {"wmev_series.csv": rows})


main.add_command(wmev_cmd, "wmev")


@main.command("gen-corpus")
@click.option("--seed", type=int, required=True)
@click.option("--count", type=int, default=100, show_default=True)
@click.option("--txs", type=int, default=8, show_default=True)
@click.option("--out", type=click.Path(), required=True)
def gen_corpus_cmd(seed, count, txs, out):
    """Write a seeded random scenario suite (byte-identical per seed)."""
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for i, scenario in enumerate(gen_corpus(seed, count, txs)):
        save_scenario(scenario, out_dir / f"scenario_{i:03d}.json")
    click.echo(dumps_canonical({"count": count, "seed": seed, "txs": txs, "out": str(out_dir)}), nl=False)


if __name__ == "__main__":
    main()
