"""End-to-end runs of every CLI subcommand on the packaged chain, in-process.

Each subcommand runs once per module into its own directory; the tests then
read the files it wrote.
"""
import csv
import json
import shutil

import pytest

from semistatic import cli
from semistatic.claims import claim_payout
from semistatic.instruments import acquisition_cost

PORTFOLIO_HEADER = ["instrument", "position"]


@pytest.fixture(autouse=True, scope="module")
def packaged_defaults():
    # the default configuration, whatever the environment names
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(cli.CONFIG_ENV_VAR, raising=False)
        yield


@pytest.fixture(scope="module")
def run(tmp_path_factory):
    """Runs ``semistatic <argv>`` once per distinct argv; returns (exit code, out dir)."""
    done = {}

    def invoke(*argv):
        if argv not in done:
            out = tmp_path_factory.mktemp("out")
            done[argv] = (cli.main([*argv, "--out", str(out)]), out)
        return done[argv]

    return invoke


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def as_dict(rows):
    return {name: float(value) for name, value in rows[1:]}


@pytest.fixture(scope="module")
def quotes():
    config = cli.load_config()
    return {q.id: q for q in cli.ingest_quotes(cli.packaged_chain_path(), config.maturities).quotes}


def test_optimize_writes_portfolio_payout_and_summary(run, quotes):
    code, out = run("optimize")
    assert code == 0
    rows = read_csv(out / "optimize_portfolio.csv")
    assert rows[0] == PORTFOLIO_HEADER
    assert rows[1][0] == "cash"
    assert [r[0] for r in rows[2 : 2 + len(quotes)]] == list(quotes)
    # the whole wealth is spent: cash plus the quotes' acquisition cost
    positions = as_dict(rows)
    spent = positions["cash"] + sum(acquisition_cost(q, positions[qid]) for qid, q in quotes.items())
    wealth = cli.load_config().agent.initial_wealth
    assert spent == pytest.approx(wealth, rel=1e-9)
    payout = read_csv(out / "optimize_payout.csv")
    assert payout[0] == ["x1", "x2", "payout"]
    summary = read_json(out / "optimize_summary.json")
    assert summary["status"] == "optimal"
    assert summary["grid_points"] == len(payout) - 1


def test_price_report(run):
    code, out = run("price")
    assert code == 0
    report = read_json(out / "price_report.json")
    assert set(report["prices"]) == {"subhedge", "buyer", "seller", "superhedge"}
    assert all(leg["status"] == "optimal" for leg in report["legs"].values())
    assert report["flags"]["ordering_ok"]
    assert report["flags"]["arbitrage_detected"] is False


def test_price_report_bytes_repeat(run, tmp_path):
    _, out = run("price")
    assert cli.main(["price", "--out", str(tmp_path)]) == 0
    assert (tmp_path / "price_report.json").read_bytes() == (out / "price_report.json").read_bytes()


def test_hedge_writes_positions_and_errors(run, quotes):
    code, out = run("hedge")
    assert code == 0
    rows = read_csv(out / "hedge_portfolio.csv")
    assert rows[0] == ["instrument", "base", "with_claim", "hedge"]
    assert rows[1][0] == "cash"
    assert [r[0] for r in rows[2 : 2 + len(quotes)]] == list(quotes)
    for row in rows[1:]:
        base, loaded, hedge = (float(v) for v in row[1:])
        assert hedge == pytest.approx(loaded - base, rel=1e-12, abs=1e-9)
    errors = read_csv(out / "hedge_error.csv")
    assert errors[0] == ["x1", "x2", "hedge_payout", "claim_payout", "error"]
    config = cli.load_config()
    size = config.claim_units * config.claim.contract_size
    for row in errors[1:]:
        x1, x2, hedge, owed, error = (float(v) for v in row)
        assert owed == size * claim_payout(config.claim, (x1, x2))
        assert error == pytest.approx(hedge - owed, rel=1e-12, abs=1e-9)


@pytest.mark.parametrize("side", ["superhedge", "subhedge"])
def test_hedging_bounds_match_price_report(run, side):
    code, out = run(side)
    assert code == 0
    summary = read_json(out / f"{side}_summary.json")
    assert summary["side"] == side
    assert summary["status"] == "optimal"
    rows = read_csv(out / f"{side}_portfolio.csv")
    assert rows[0] == PORTFOLIO_HEADER
    assert rows[1][0] == "cash"
    _, price_out = run("price")
    band = read_json(price_out / "price_report.json")["prices"][side]
    assert summary["cost"] == pytest.approx(band, rel=1e-9)


def test_arbitrage_expectations(run):
    code, out = run("arbitrage", "--expect", "none")
    assert code == 0
    summary = read_json(out / "arbitrage_summary.json")
    assert summary["found"] is False
    assert not (out / "arbitrage_strategy.csv").exists()
    code, _ = run("arbitrage", "--expect", "found")
    assert code == 2


def test_arbitrage_strategy_on_crossed_chain(tmp_path):
    # a second quote on the May 2350 call bids above the chain's ask of 56.65
    chain = tmp_path / "crossed.csv"
    shutil.copyfile(cli.packaged_chain_path(), chain)
    with open(chain, "a") as fh:
        fh.write("SPX US 5/19/2017 C2350 Index,call,5.0,60.0,61.0,5.0\n")
    out = tmp_path / "out"
    code = cli.main(["arbitrage", "--quotes", str(chain), "--expect", "found", "--out", str(out)])
    assert code == 0
    assert read_json(out / "arbitrage_summary.json")["found"] is True
    rows = read_csv(out / "arbitrage_strategy.csv")
    assert rows[0] == PORTFOLIO_HEADER
    assert rows[1][0] == "cash"
    assert as_dict(rows)["SPX US 5/19/2017 C2350 Index#2"] < 0


def test_simulate_writes_one_row_per_path(run):
    code, out = run("simulate", "--paths", "200")
    assert code == 0
    rows = read_csv(out / "simulate_wealth.csv")
    assert rows[0] == ["x1", "x2", "terminal_wealth"]
    assert len(rows) == 201


def test_schema_violation_exits_1_with_json_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"agent": {"risk_aversion": -1.0}}))
    code = cli.main(["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert not (tmp_path / "price_report.json").exists()
