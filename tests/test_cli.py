"""End-to-end runs of every CLI subcommand on the packaged chain, in-process.

Each subcommand runs once per module into its own directory; the tests then
read the files it wrote.
"""
import copy
import csv
import dataclasses
import json
import pathlib
import shutil

import pytest
from hypothesis import example, given, settings, strategies as st

from semistatic import cli
from semistatic.claims import (
    ClaimKind,
    asian_call,
    knockout_call,
    load_claim_table,
    lookback_call,
    lookback_digital,
    vanilla_call,
)
from semistatic.instruments import OptionKind
from semistatic.solver import SolveSettings

from oracles import CONFIG_VALIDATOR, acquisition_cost, claim_payout

PORTFOLIO_HEADER = ["instrument", "position"]
GOLDEN = pathlib.Path(__file__).parent / "golden"
GOLDEN_REL = 1e-9


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


@pytest.mark.parametrize("flags", [(), ("--exclude-strike",)], ids=["chain", "exclude-strike"])
@pytest.mark.parametrize("side", ["superhedge", "subhedge"])
def test_hedging_bounds_match_price_report(run, side, flags):
    # each command prices on the hedging set that ``price`` uses
    code, out = run(side, *flags)
    assert code == 0
    summary = read_json(out / f"{side}_summary.json")
    assert summary["side"] == side
    assert summary["status"] == "optimal"
    rows = read_csv(out / f"{side}_portfolio.csv")
    assert rows[0] == PORTFOLIO_HEADER
    assert rows[1][0] == "cash"
    _, price_out = run("price", *flags)
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


@pytest.fixture(scope="module")
def crossed_chain(tmp_path_factory):
    # a second quote on the May 2350 call bids above the chain's ask of 56.65
    chain = tmp_path_factory.mktemp("chain") / "crossed.csv"
    shutil.copyfile(cli.packaged_chain_path(), chain)
    with open(chain, "a") as fh:
        fh.write("SPX US 5/19/2017 C2350 Index,call,5.0,60.0,61.0,5.0\n")
    return str(chain)


def test_arbitrage_strategy_on_crossed_chain(run, crossed_chain):
    code, out = run("arbitrage", "--quotes", crossed_chain, "--expect", "found")
    assert code == 0
    assert read_json(out / "arbitrage_summary.json")["found"] is True
    rows = read_csv(out / "arbitrage_strategy.csv")
    assert rows[0] == PORTFOLIO_HEADER
    assert rows[1][0] == "cash"
    assert as_dict(rows)["SPX US 5/19/2017 C2350 Index#2"] < 0


def test_exclude_strike_drops_the_claim_quote_with_claim(run, quotes):
    # optimize and simulate hedge the claim on the hedging set that ``price`` uses
    config = cli.load_config()
    claim_quotes = [qid for qid, q in quotes.items() if q.kind is OptionKind.CALL
                    and q.strike == config.claim.strike and q.maturity == config.model.periods]
    assert claim_quotes
    kept = {flags: [r[0] for r in read_csv(run("optimize", "--with-claim", *flags)[1]
                                          / "optimize_portfolio.csv")]
            for flags in ((), ("--exclude-strike",))}
    assert set(claim_quotes) <= set(kept[()])
    assert set(kept[("--exclude-strike",)]) == set(kept[()]) - set(claim_quotes)
    wealth = {flags: (run("simulate", "--with-claim", "--paths", "200", *flags)[1]
                      / "simulate_wealth.csv").read_bytes()
              for flags in ((), ("--exclude-strike",))}
    assert wealth[()] != wealth[("--exclude-strike",)]


def test_simulate_writes_one_row_per_path(run):
    code, out = run("simulate", "--paths", "200")
    assert code == 0
    rows = read_csv(out / "simulate_wealth.csv")
    assert rows[0] == ["x1", "x2", "terminal_wealth"]
    assert len(rows) == 201


@pytest.mark.parametrize("argv", [
    ("optimize",),
    ("hedge",),
    ("superhedge",),
    ("subhedge",),
    ("simulate", "--paths", "200"),
    ("arbitrage", "--quotes", None, "--expect", "found"),
], ids=["optimize", "hedge", "superhedge", "subhedge", "simulate", "arbitrage"])
def test_csv_numbers_round_trip(run, crossed_chain, argv):
    # every number is written as repr(float), so it reads back to the same float
    _, out = run(*(crossed_chain if arg is None else arg for arg in argv))
    files = sorted(out.glob("*.csv"))
    assert files
    for path in files:
        rows = read_csv(path)
        numeric = [i for i, name in enumerate(rows[0]) if name != "instrument"]
        for row in rows[1:]:
            for i in numeric:
                assert row[i] == repr(float(row[i])), (path.name, row)


def write_chain(path, tickers, prices="5.0,50.0,51.0,5.0"):
    path.write_text("".join(f"{ticker},call,{prices}\n" for ticker in tickers))
    return path


def test_ingest_gives_every_quote_its_own_id(tmp_path):
    x, y = "SPX US 5/19/2017 C2350 Index", "SPX US 5/19/2017 C2400 Index"
    chain = write_chain(tmp_path / "repeats.csv", [x, f"{x}#2", x, x, y, y, y])
    ids = [q.id for q in cli.ingest_quotes(chain, cli.load_config().maturities).quotes]
    # a repeat skips an id the chain already spells out
    assert ids == [x, f"{x}#2", f"{x}#3", f"{x}#4", y, f"{y}#2", f"{y}#3"]


@pytest.mark.parametrize("ticker, prices", [
    ("SPX US 5/19/2017 C2350 Index", "5.0,nan,51.0,5.0"),
    ("SPX US 5/19/2017 Cinf Index", "5.0,1.0,2.0,5.0"),
    ("SPX US 5/19/2017 C2350 Index", "5.0,50.0,51.0,inf"),
], ids=["nan-bid", "inf-strike", "inf-quantity"])
def test_ingest_rejects_non_finite_numbers(tmp_path, ticker, prices):
    chain = write_chain(tmp_path / "chain.csv", [ticker], prices)
    result = cli.ingest_quotes(chain, cli.load_config().maturities)
    assert result.quotes == []
    assert [lineno for lineno, _ in result.rejected] == [1]
    assert "finite" in result.rejected[0][1]


def test_chain_with_every_row_rejected_exits_1(tmp_path, capsys):
    chain = write_chain(tmp_path / "chain.csv", ["SPX US 5/19/2017 X2350 Index"] * 2)
    code = cli.main(["price", "--quotes", str(chain), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValueError"
    assert str(chain) in error["message"] and "all 2 quote rows rejected" in error["message"]
    assert not (tmp_path / "price_report.json").exists()


def test_chain_of_only_a_header_prices_without_quotes(tmp_path):
    chain = tmp_path / "header.csv"
    chain.write_text("ticker,type,bid_qty,bid_price,ask_price,ask_qty\n")
    assert cli.main(["price", "--quotes", str(chain), "--out", str(tmp_path)]) == 0
    assert (tmp_path / "price_report.json").exists()


@pytest.mark.parametrize("kind", list(ClaimKind), ids=lambda kind: kind.value)
def test_config_builds_each_variant_as_its_factory(tmp_path, kind):
    # barrier and payout_level off their defaults: a kind that does not read
    # one must not carry it
    table = tmp_path / "table.csv"
    table.write_text("x1,x2,payout\n2300,2400,12.5\n")
    factories = {
        ClaimKind.VANILLA_CALL: lambda: vanilla_call(2300.0, 50.0),
        ClaimKind.KNOCKOUT_CALL: lambda: knockout_call(2300.0, 2450.0, 50.0),
        ClaimKind.ASIAN_CALL: lambda: asian_call(2300.0, 50.0),
        ClaimKind.LOOKBACK_CALL: lambda: lookback_call(2300.0, 50.0),
        ClaimKind.LOOKBACK_DIGITAL: lambda: lookback_digital(2300.0, 7.5, 50.0),
        ClaimKind.CUSTOM: lambda: load_claim_table(table, contract_size=50.0),
    }
    config = tmp_path / "claim.json"
    config.write_text(json.dumps({"claim": {
        "variant": kind.value, "strike": 2300.0, "barrier": 2450.0, "payout_level": 7.5,
        "contract_size": 50.0, "table_path": str(table),
    }}))
    assert cli.load_config(config).claim == factories[kind]()


def test_schema_violation_exits_1_with_json_error(tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"agent": {"risk_aversion": -1.0}}))
    code = cli.main(["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert not (tmp_path / "price_report.json").exists()


@pytest.mark.parametrize("constant", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_config_number_exits_1(tmp_path, capsys, constant):
    # json parses these constants and the schema's "number" passes them
    config = tmp_path / "bad.json"
    config.write_text('{"claim": {"strike": %s}}' % constant)
    code = cli.main(["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert constant in error["message"]
    assert not (tmp_path / "price_report.json").exists()


def test_nu_the_grid_cannot_represent_exits_1(tmp_path, capsys):
    # at nu = 0.2 the one-month period's gamma shape is 0.42: the density is
    # unbounded where the index stays put, and those grid points took a mass
    # of 0.998 (raw_mass 2,012) before the config rejected it
    config = tmp_path / "nu.json"
    config.write_text(json.dumps({"model": {"nu": 0.2}}))
    code = cli.main(["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert "config.model.nu" in error["message"] and "2 * min(dt)" in error["message"]
    assert not (tmp_path / "price_report.json").exists()


@pytest.mark.parametrize("data, third, needle", [
    ({"market": {"truncation": [[1000.0, 3000.0]]}}, False, "truncation pair per period"),
    ({"model": {"horizons": [0.0833, 0.1667, 0.25]}}, False, "truncation pair per period"),
    ({"market": {"maturities": ["4/21/2017", "5/19/2017", "6/16/2017"]}}, True,
     "past the model's 2 periods"),
], ids=["one-truncation-pair", "three-horizons", "third-maturity-quote"])
def test_horizon_mismatch_exits_1_with_json_error(tmp_path, capsys, data, third, needle):
    # each of these ended in an IndexError traceback, with no JSON error
    config = tmp_path / "horizons.json"
    config.write_text(json.dumps(data))
    args = ["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)]
    if third:
        chain = tmp_path / "chain.csv"
        chain.write_text(pathlib.Path(cli.packaged_chain_path()).read_text()
                         + "SPX US 6/16/2017 C2350 Index,call,5.0,50.0,51.0,5.0\n")
        args += ["--quotes", str(chain)]
    assert cli.main(args) == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValueError"
    assert needle in error["message"]
    assert not (tmp_path / "price_report.json").exists()


def test_non_positive_contract_size_exits_1(tmp_path, capsys):
    config = tmp_path / "size.json"
    config.write_text(json.dumps({"claim": {"contract_size": -100.0}}))
    code = cli.main(["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert "config.claim.contract_size" in error["message"]


def test_nu_just_below_the_bound_loads(tmp_path):
    bound = 2.0 / 12.0  # twice the default one-month period
    config = tmp_path / "nu.json"
    config.write_text(json.dumps({"model": {"nu": bound * (1.0 - 1e-9)}}))
    assert cli.load_config(config).model.nu == bound * (1.0 - 1e-9)
    config.write_text(json.dumps({"model": {"nu": bound}}))
    with pytest.raises(cli.ValidationError, match="config.model.nu"):
        cli.load_config(config)


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_flag_outside_the_schema_exits_1(tmp_path, capsys, value):
    # a flag overrides the config after the file's own checks; it must pass
    # the same schema, and a float flag can also parse to nan or inf
    code = cli.main(["price", "--delta-pct", value, "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert "market.delta_pct" in error["message"]
    assert not (tmp_path / "price_report.json").exists()


@pytest.mark.parametrize("section, key, value", [
    ("solver", "max_iter", 200.0),
    ("grid", "density_nodes", 400.0),
])
def test_integral_float_for_an_integer_exits_1(tmp_path, capsys, section, key, value):
    # JSON Schema takes 200.0 for an integer; range() does not
    data = {section: {key: value}}
    assert CONFIG_VALIDATOR.is_valid(data)
    config = tmp_path / "count.json"
    config.write_text(json.dumps(data))
    code = cli.main(["price", "--config", str(config), "--json-errors", "--out", str(tmp_path)])
    assert code == 1
    error = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert error["error"] == "ValidationError"
    assert f"config.{section}.{key}" in error["message"]
    assert not (tmp_path / "price_report.json").exists()


@pytest.mark.parametrize("schema", [
    {"type": "object", "required": ["agent"]},
    {"properties": {"x": {"type": "number", "maximum": 1.0}}},
    {"type": "array", "items": {"type": "string", "pattern": "^[0-9]"}},
    {"type": ["float"]},
    {"additionalProperties": {"type": "number"}},
], ids=["required", "maximum", "pattern", "unknown-type", "additional-schema"])
def test_schema_rule_the_validator_does_not_read_raises(schema):
    # CONFIG_SCHEMA is checked at import: an edit the validator would skip fails there
    with pytest.raises(ValueError, match="^schema at config"):
        cli._check_schema(schema)


def _schema_paths(schema, path=()):
    """Every place the schema describes: object properties, and item 0 of arrays."""
    for key, spec in schema.get("properties", {}).items():
        yield path + (key,)
        yield from _schema_paths(spec, path + (key,))
    if "items" in schema:
        yield path + (0,)
        yield from _schema_paths(schema["items"], path + (0,))


SECTIONS = [(section,) for section in cli.CONFIG_SCHEMA["properties"]]
MUTATION_PATHS = (list(_schema_paths(cli.CONFIG_SCHEMA))
                  + [("unknown",), ("strike_step",)]
                  + [path + ("unknown",) for path in SECTIONS])
NUMBERS = st.one_of(
    st.integers(-100, 1000),
    st.floats(-1e4, 1e4),
    st.sampled_from([0, 0.0, -0.0, 1e-300, -1e-300, 15, 16, 15.5, 16.0, 200.0]),
    st.floats(),
)
SCALARS = st.one_of(
    NUMBERS, st.booleans(), st.none(), st.text(max_size=3),
    st.sampled_from([kind.value for kind in ClaimKind] + ["Knockout_Call", "barrier", ""]),
)
VALUES = st.one_of(
    NUMBERS,
    SCALARS,
    st.lists(NUMBERS, max_size=4),
    st.lists(st.lists(NUMBERS, max_size=4), max_size=3),
    st.recursive(SCALARS, lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=3), inner, max_size=2),
    ), max_leaves=5),
)


def _has_place(node, key):
    """Whether ``node[key]`` is a place in a JSON object or a non-empty array."""
    if isinstance(node, dict):
        return isinstance(key, str)
    return isinstance(node, list) and isinstance(key, int) and key < len(node)


def _set_at(config, path, value):
    """Put ``value`` at ``path`` of ``config``; a path through a value that an
    earlier mutation replaced is left alone."""
    node = config
    for key in path[:-1]:
        if not _has_place(node, key):
            return
        node = node.get(key) if isinstance(node, dict) else node[key]
    if _has_place(node, path[-1]):
        node[path[-1]] = value


@st.composite
def mutated_configs(draw):
    """The default configuration with one to three places replaced, or a top
    level that is no object."""
    if draw(st.integers(0, 9)) == 0:
        return draw(VALUES.filter(lambda v: not isinstance(v, dict)))
    config = copy.deepcopy(cli.DEFAULT_CONFIG)
    for _ in range(draw(st.integers(1, 3))):
        _set_at(config, draw(st.sampled_from(MUTATION_PATHS)), draw(VALUES))
    return config


def _integral_float_for_integer(value, schema):
    """Whether ``value`` puts an integral float where ``schema`` asks for an integer."""
    if schema.get("type") == "integer" and isinstance(value, float) and value.is_integer():
        return True
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        return any(_integral_float_for_integer(v, properties[k]) for k, v in value.items()
                   if k in properties)
    if isinstance(value, list) and "items" in schema:
        return any(_integral_float_for_integer(v, schema["items"]) for v in value)
    return False


@settings(max_examples=400, deadline=None)
@given(config=mutated_configs())
@example(config={"agent": {"initial_wealth": "100000"}})                     # wrong type
@example(config={"agent": {"risk_aversion": True}})                         # bool for a number
@example(config={"model": {"sigma": 0.0}})                                  # out of range
@example(config={"grid": {"density_nodes": 15}})                            # below the minimum
@example(config={"claim": {"units": 1.0, "notional": 2.0}})                 # unknown key
@example(config={"market": {"truncation": [[1000.0, 3000.0, 4000.0]]}})     # pair too long
@example(config={"market": {"truncation": [[1000.0]]}})                     # pair too short
@example(config={"claim": {"table_path": None}})                            # null table path
@example(config={"claim": {"variant": "digital"}})                          # not in the enum
@example(config=[{"agent": {}}])                                            # top level no object
@example(config={"solver": {"max_iter": 200.0}})                            # integral float
def test_validator_accepts_what_json_schema_accepts(config):
    try:
        cli._validate(config, cli.CONFIG_SCHEMA)
        accepted = True
    except cli.ValidationError as exc:
        accepted = False
        assert str(exc).startswith("config")
    if _integral_float_for_integer(config, cli.CONFIG_SCHEMA):
        # the one disagreement: JSON Schema counts 200.0 as an integer
        assert not accepted
    else:
        assert accepted == CONFIG_VALIDATOR.is_valid(config)


def test_every_config_key_is_read():
    # a key the schema accepts but load_config never reads is silently
    # ignored: every key has a default, or is a SolveSettings field
    solver_fields = {f.name for f in dataclasses.fields(SolveSettings)}
    for section, spec in cli.CONFIG_SCHEMA["properties"].items():
        for key in spec["properties"]:
            known = solver_fields if section == "solver" else cli.DEFAULT_CONFIG[section]
            assert key in known, f"{section}.{key}"


def test_unread_config_key_exits_1(tmp_path):
    config = tmp_path / "step.json"
    config.write_text(json.dumps({"grid": {"strike_step": 5}}))
    assert cli.main(["price", "--config", str(config), "--out", str(tmp_path)]) == 1


# ---------------------------------------------------------------------------
# golden outputs: what the optimum fixes uniquely, at GOLDEN_REL.  Positions
# and simulated wealth are not pinned: an LP optimum's positions need not be
# unique.  Payouts are wealth-sized numbers and their differences, so they
# are pinned at GOLDEN_REL of the wealth as well.
# ---------------------------------------------------------------------------

def assert_close(got, want, rel=GOLDEN_REL, abs_tol=0.0):
    if isinstance(want, float) and not isinstance(got, bool):
        assert got == pytest.approx(want, rel=rel, abs=abs_tol)
    else:
        assert got == want


def test_price_report_matches_golden(run):
    _, out = run("price")
    got, want = read_json(out / "price_report.json"), read_json(GOLDEN / "price_report.json")
    assert got["prices"].keys() == want["prices"].keys()
    for side, price in want["prices"].items():
        assert_close(got["prices"][side], price)
    assert got["flags"] == want["flags"]
    assert {leg: diag["status"] for leg, diag in got["legs"].items()} == {
        leg: diag["status"] for leg, diag in want["legs"].items()
    }


@pytest.mark.parametrize("argv, name", [
    (("optimize",), "optimize_summary.json"),
    (("superhedge",), "superhedge_summary.json"),
    (("subhedge",), "subhedge_summary.json"),
    (("arbitrage", "--expect", "none"), "arbitrage_summary.json"),
], ids=["optimize", "superhedge", "subhedge", "arbitrage"])
def test_summary_matches_golden(run, argv, name):
    _, out = run(*argv)
    got, want = read_json(out / name), read_json(GOLDEN / name)
    for counts in ("outer_iterations", "newton_iterations"):
        got.pop(counts, None)
        want.pop(counts, None)
    assert got.keys() == want.keys()
    # the least wealth of an arbitrage-free chain's zero claim is 0 up to the
    # LP gap rule, gap_tol * (1 + |w0|), which no relative tolerance expresses
    w0 = want.get("min_uniform_slack", 0.0)
    slack_tol = {"min_uniform_slack": cli.load_config().solver.gap_tol * (1.0 + abs(w0))}
    for key, value in want.items():
        assert_close(got[key], value, abs_tol=slack_tol.get(key, 0.0))


@pytest.mark.parametrize("argv, name", [
    (("optimize",), "optimize_payout.csv"),
    (("hedge",), "hedge_error.csv"),
], ids=["optimize_payout", "hedge_error"])
def test_surface_matches_golden(run, argv, name):
    _, out = run(*argv)
    got, want = read_csv(out / name), read_csv(GOLDEN / name)
    assert got[0] == want[0]
    assert len(got) == len(want)
    periods = sum(1 for column in want[0] if column.startswith("x"))
    wealth = cli.load_config().agent.initial_wealth
    for got_row, want_row in zip(got[1:], want[1:]):
        assert got_row[:periods] == want_row[:periods]
        for g, w in zip(got_row[periods:], want_row[periods:]):
            assert_close(float(g), float(w), abs_tol=GOLDEN_REL * wealth)
