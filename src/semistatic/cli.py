"""Batch front end: quote ingestion, JSON configuration, and subcommands for
optimization, pricing, hedging, super/subhedging, arbitrage search and path
simulation.  Inputs are CSV and JSON; outputs are plot-ready CSV surfaces and
JSON reports, byte-identical across runs for a fixed seed.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import re
import sys
from dataclasses import dataclass, field
from importlib import resources

import numpy as np

from .claims import Claim, ClaimKind, configured_claim
from .galerkin import claim_liability, strategy_factors
from .instruments import OptionKind, Quote
from .pricing import (
    AgentSpec,
    Market,
    SolverFailure,
    _assemble,
    _hedging_market,
    _optima,
    _optimum,
    _portfolio,
    find_arbitrage,
    price_report,
    subhedge_cost,
    superhedge_cost,
    write_json,
)
from .scenario import VGParams, check_nu, simulate_paths
from .solver import SolveSettings

CONFIG_ENV_VAR = "SEMISTATIC_CONFIG"

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "agent": {
            "type": "object",
            "properties": {
                "initial_wealth": {"type": "number", "exclusiveMinimum": 0, "default": 100000.0},
                "risk_aversion": {"type": "number", "exclusiveMinimum": 0, "default": 2.0},
            },
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": {
                "theta": {"type": "number", "default": 0.0},
                "sigma": {"type": "number", "exclusiveMinimum": 0, "default": 0.1206},
                "nu": {"type": "number", "exclusiveMinimum": 0, "default": 0.0031},
                "spot": {"type": "number", "exclusiveMinimum": 0, "default": 2360.0},
                "horizons": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                    "default": [1.0 / 12.0, 2.0 / 12.0],
                },
            },
            "additionalProperties": False,
        },
        "market": {
            "type": "object",
            "properties": {
                "lot_size": {"type": "number", "exclusiveMinimum": 0, "default": 100.0},
                "delta_pct": {"type": "number", "minimum": 0, "default": 0.0},
                "frictionless": {"type": "boolean", "default": True},
                "truncation": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                    "default": [[1000.0, 3000.0], [1000.0, 3000.0]],
                },
                "maturities": {
                    "type": "array",
                    "items": {"type": "string"},
                    "default": ["4/21/2017", "5/19/2017"],
                },
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "density_nodes": {"type": "integer", "minimum": 16, "default": 400},
            },
            "additionalProperties": False,
        },
        # no defaults here: an unset key keeps its SolveSettings default
        "solver": {
            "type": "object",
            "properties": {
                "grad_tol": {"type": "number"},
                "gap_tol": {"type": "number"},
                "max_iter": {"type": "integer"},
            },
            "additionalProperties": False,
        },
        "claim": {
            "type": "object",
            "properties": {
                "variant": {
                    "enum": [kind.value for kind in ClaimKind],
                    "default": ClaimKind.KNOCKOUT_CALL.value,
                },
                "strike": {"type": "number", "default": 2350.0},
                "barrier": {"type": "number", "default": 2400.0},
                "payout_level": {"type": "number", "default": 10.0},
                "contract_size": {"type": "number", "exclusiveMinimum": 0, "default": 100.0},
                "units": {"type": "number", "default": 1.0},
                "table_path": {"type": ["string", "null"], "default": None},
            },
            "additionalProperties": False,
        },
        "flags": {
            "type": "object",
            "properties": {
                "exclude_claim_strike": {"type": "boolean", "default": False},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}


class ValidationError(ValueError):
    """A configuration that ``CONFIG_SCHEMA`` rejects; the message names where."""


# The JSON types of the schema's "type" keyword.  An integer is a JSON integer
# literal: 200.0 is a number but no count, where JSON Schema would take it.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    "null": lambda v: v is None,
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float)) and not isinstance(v, bool),
}
_SCHEMA_KEYWORDS = {"type", "enum", "minimum", "exclusiveMinimum", "properties",
                    "additionalProperties", "items", "minItems", "maxItems", "default"}


def _check_schema(schema: dict, path: str = "config") -> None:
    """Raise ValueError on a schema that ``_validate`` would not fully check:
    an unknown keyword or type, or an ``additionalProperties`` other than false."""
    types = schema.get("type", [])
    unknown = set(schema) - _SCHEMA_KEYWORDS
    unknown |= set([types] if isinstance(types, str) else types) - set(_JSON_TYPES)
    if unknown:
        raise ValueError(f"schema at {path}: {sorted(unknown)} not interpreted")
    if schema.get("additionalProperties", False) is not False:
        raise ValueError(f"schema at {path}: only additionalProperties false is interpreted")
    for key, spec in schema.get("properties", {}).items():
        _check_schema(spec, f"{path}.{key}")
    if "items" in schema:
        _check_schema(schema["items"], f"{path}[]")


def _validate(value, schema: dict, path: str = "config") -> None:
    """Raise ValidationError, naming the path, where ``value`` breaks ``schema``."""
    def reject(why):
        raise ValidationError(f"{path}: {value!r} {why}")

    types = schema.get("type")
    names = [types] if isinstance(types, str) else types
    if names is not None and not any(_JSON_TYPES[name](value) for name in names):
        reject(f"is not of type {' or '.join(names)}")
    if "enum" in schema and value not in schema["enum"]:
        reject(f"is not one of {schema['enum']}")
    if _JSON_TYPES["number"](value):
        if "minimum" in schema and value < schema["minimum"]:
            reject(f"is less than the minimum {schema['minimum']}")
        if "exclusiveMinimum" in schema and value <= schema["exclusiveMinimum"]:
            reject(f"is not greater than {schema['exclusiveMinimum']}")
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key, item in value.items():
            if key in properties:
                _validate(item, properties[key], f"{path}.{key}")
            elif schema.get("additionalProperties") is False:
                raise ValidationError(f"{path}: unknown key {key!r}")
    if isinstance(value, list):
        if not schema.get("minItems", 0) <= len(value) <= schema.get("maxItems", len(value)):
            reject(f"has {len(value)} items, not {schema.get('minItems', 0)} to "
                   f"{schema.get('maxItems', 'any')}")
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(item, schema["items"], f"{path}[{i}]")


_check_schema(CONFIG_SCHEMA)


def _defaults(schema: dict) -> dict:
    """The default configuration: every ``default`` of an object schema's
    properties, nested as the objects are."""
    return {
        key: _defaults(spec) if spec.get("type") == "object" else spec["default"]
        for key, spec in schema["properties"].items()
        if spec.get("type") == "object" or "default" in spec
    }


DEFAULT_CONFIG = _defaults(CONFIG_SCHEMA)

_TICKER_RE = re.compile(
    r"^SPX US (?P<date>\d{1,2}/\d{1,2}/\d{4}) (?P<kindstrike>\S+) Index(?:#.*)?$"
)


@dataclass
class IngestResult:
    quotes: list[Quote] = field(default_factory=list)
    rejected: list[tuple[int, str]] = field(default_factory=list)


def parse_ticker(ticker: str, maturities) -> tuple[OptionKind, float, int]:
    """Decompose ``SPX US <M/D/YYYY> <C|P><strike> Index`` into kind, strike and
    the period index of the maturity date."""
    match = _TICKER_RE.match(ticker.strip())
    if not match:
        raise ValueError(f"unrecognized ticker format: {ticker!r}")
    kindstrike = match.group("kindstrike")
    letter, body = kindstrike[0], kindstrike[1:]
    if letter == "C":
        kind = OptionKind.CALL
    elif letter == "P":
        kind = OptionKind.PUT
    else:
        raise ValueError(f"invalid option kind token {kindstrike!r} in {ticker!r}")
    try:
        strike = float(body)
    except ValueError:
        raise ValueError(f"invalid strike token {kindstrike!r} in {ticker!r}") from None
    date = match.group("date")
    try:
        period = list(maturities).index(date) + 1
    except ValueError:
        raise ValueError(f"unknown maturity date {date!r} in {ticker!r}") from None
    return kind, strike, period


def ingest_quotes(csv_path, maturities) -> IngestResult:
    """Parse a quote chain CSV with columns
    ticker, type, bid_qty, bid_price, ask_price, ask_qty (quantities in
    contracts).  Malformed rows are rejected individually with a message."""
    result = IngestResult()
    seen: dict[str, int] = {}
    taken: set[str] = set()
    with open(csv_path, newline="") as fh:
        reader = csv.reader(fh)
        for lineno, row in enumerate(reader, start=1):
            if not row or row[0].strip().lower() == "ticker":
                continue
            try:
                if len(row) < 6:
                    raise ValueError(f"expected 6 columns, got {len(row)}")
                ticker = row[0].strip()
                kind, strike, period = parse_ticker(ticker, maturities)
                declared = row[1].strip().lower()
                if declared and declared != kind.value:
                    raise ValueError(
                        f"type column {row[1]!r} contradicts ticker kind {kind.value!r}"
                    )
                bid_qty, bid, ask, ask_qty = (float(v) for v in row[2:6])
                # repeats of a ticker count up from #2, past any id already taken
                count = seen.get(ticker, 0) + 1
                quote_id = ticker if count == 1 else f"{ticker}#{count}"
                while quote_id in taken:
                    count += 1
                    quote_id = f"{ticker}#{count}"
                seen[ticker] = count
                taken.add(quote_id)
                result.quotes.append(
                    Quote(
                        id=quote_id,
                        kind=kind,
                        strike=strike,
                        maturity=period,
                        bid_price=bid,
                        ask_price=ask,
                        bid_qty=bid_qty,
                        ask_qty=ask_qty,
                    )
                )
            except (ValueError, IndexError) as exc:
                result.rejected.append((lineno, str(exc)))
    return result


def _merge(base: dict, override: dict) -> dict:
    out = dict(base)
    for key, value in override.items():
        if isinstance(value, dict) and isinstance(out.get(key), dict):
            out[key] = _merge(out[key], value)
        else:
            out[key] = value
    return out


@dataclass
class RunConfig:
    agent: AgentSpec
    model: VGParams
    lot_size: float
    delta_pct: float | None
    truncation: tuple
    maturities: tuple
    density_nodes: int
    solver: SolveSettings
    claim: Claim
    claim_units: float
    exclude_claim_strike: bool


def _reject_non_finite(name):
    """JSON's ``NaN``, ``Infinity`` and ``-Infinity`` are no config numbers."""
    raise ValidationError(f"non-finite number {name} in the config")


def _built(section, build, *args, **kwargs):
    """``build(*args, **kwargs)``, whose ValueError becomes a ValidationError
    naming the config ``section`` it was built from."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise ValidationError(f"config.{section}: {exc}") from None


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load, schema-validate and materialize a run configuration.  ``path``
    falls back to the environment override, then packaged defaults.

    The file is checked against ``CONFIG_SCHEMA`` by ``_validate``, which
    reads the keywords ``type``, ``enum``, ``minimum``, ``exclusiveMinimum``,
    ``properties``, ``additionalProperties: false``, ``items``, ``minItems``
    and ``maxItems``; ``default`` fills ``DEFAULT_CONFIG``.  ``overrides``,
    one section -> key -> value map as the CLI flags give it, are checked
    against the same schema and, like the file, may hold no non-finite
    number.  A variance-gamma ``nu`` that ``scenario.check_nu`` rejects is
    rejected too, and so is a value that the model, agent, solver or claim
    rejects, by its section.  A rejected file or override raises
    ``ValidationError``.
    """
    data = {}
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path) as fh:
            data = json.load(fh, parse_constant=_reject_non_finite)
    _validate(data, CONFIG_SCHEMA)
    merged = _merge(DEFAULT_CONFIG, data)
    if overrides:
        _validate(overrides, CONFIG_SCHEMA)
        for section, values in overrides.items():
            for key, value in values.items():
                if isinstance(value, float) and not np.isfinite(value):
                    raise ValidationError(f"config.{section}.{key}: non-finite number {value!r}")
        merged = _merge(merged, overrides)

    spec = merged["model"]
    model = _built("model", VGParams, **(spec | {"horizons": tuple(spec["horizons"])}))
    try:
        check_nu(model)
    except ValueError as exc:
        raise ValidationError(f"config.model.nu: {exc}") from None
    delta = None if merged["market"]["frictionless"] else merged["market"]["delta_pct"]

    return RunConfig(
        agent=_built("agent", AgentSpec, **merged["agent"]),
        model=model,
        lot_size=merged["market"]["lot_size"],
        delta_pct=delta,
        truncation=tuple(tuple(t) for t in merged["market"]["truncation"]),
        maturities=tuple(merged["market"]["maturities"]),
        density_nodes=merged["grid"]["density_nodes"],
        solver=_built("solver", SolveSettings, **merged["solver"]),
        claim=_built("claim", configured_claim, merged["claim"]),
        claim_units=merged["claim"]["units"],
        exclude_claim_strike=merged["flags"]["exclude_claim_strike"],
    )


def packaged_chain_path() -> str:
    return str(resources.files("semistatic").joinpath("data", "synthetic_chain.csv"))


def _market(config: RunConfig, quotes_path=None) -> Market:
    path = quotes_path or packaged_chain_path()
    result = ingest_quotes(path, config.maturities)
    for lineno, message in result.rejected:
        print(f"warning: row {lineno} rejected: {message}", file=sys.stderr)
    if result.rejected and not result.quotes:
        raise ValueError(f"{path}: all {len(result.rejected)} quote rows rejected")
    return Market(
        quotes=tuple(result.quotes),
        model=config.model,
        lot_size=config.lot_size,
        truncation=config.truncation,
        density_nodes=config.density_nodes,
    )


def _write_csv(path, header, rows) -> None:
    """``header``, then one line per row: names as given, numbers as
    ``repr(float)``, which reads back to the same float."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([c if isinstance(c, str) else repr(float(c)) for c in row] for row in rows)


def _write_surface(path, points, columns: dict) -> None:
    """One row per path of ``points`` (M, T): its levels x1..xT, then the
    value there of each named column."""
    header = [f"x{t + 1}" for t in range(points.shape[1])] + list(columns)
    _write_csv(path, header, np.column_stack([points, *columns.values()]))


def _agent_leg(market: Market, grid, config: RunConfig, terms):
    """The configured agent's program on ``market``: the strategy space on
    ``grid`` against ``terms`` at the agent's wealth and risk scale."""
    agent = config.agent
    return _assemble(market, grid, config.delta_pct).leg(terms, agent.initial_wealth, agent.kappa)


def _write_portfolio(path, rows) -> None:
    _write_csv(path, ["instrument", "position"], rows)


def _cmd_optimize(config, market, outdir, args) -> int:
    terms = [(config.claim, config.claim_units)] if args.with_claim else []
    hedging = _hedging_market(market, config.claim, config.exclude_claim_strike)
    grid = hedging.grid_for(terms)
    program = _agent_leg(hedging, grid, config, terms)
    solution = _optimum(program, config.solver)
    _write_portfolio(
        os.path.join(outdir, "optimize_portfolio.csv"),
        _portfolio(program, solution.x, program.budget),
    )
    _write_surface(
        os.path.join(outdir, "optimize_payout.csv"),
        grid.points,
        {"payout": program.portfolio_payout(solution.x)},
    )
    summary = {
        "log_objective": solution.log_objective,
        "objective": solution.objective,
        "status": solution.status,
        "outer_iterations": solution.outer_iterations,
        "newton_iterations": solution.newton_iterations,
        "delta_pct": config.delta_pct,
        "quotes": len(hedging.quotes),
        "grid_points": grid.size,
    }
    write_json(os.path.join(outdir, "optimize_summary.json"), summary)
    return 0


def _cmd_price(config, market, outdir, args) -> int:
    report = price_report(
        market,
        config.agent,
        config.claim,
        units=config.claim_units,
        delta_pct=config.delta_pct,
        exclude_claim_quote=config.exclude_claim_strike,
        settings=config.solver,
    )
    report.to_json(os.path.join(outdir, "price_report.json"))
    return 0


def _cmd_hedge(config, market, outdir, args) -> int:
    hedging = _hedging_market(market, config.claim, config.exclude_claim_strike)
    terms = [(config.claim, config.claim_units)]
    grid = hedging.grid_for(terms)
    base_prog = _agent_leg(hedging, grid, config, [])
    with_prog = base_prog.leg(terms, base_prog.budget)
    # two legs of one space, so one layout: their rows pair up in order
    base, loaded = _optima([base_prog, with_prog], config.solver)
    rows = [(name, b, held, held - b) for (name, b), (_, held) in
            zip(_portfolio(base_prog, base.x, base_prog.budget),
                _portfolio(with_prog, loaded.x, with_prog.budget))]
    _write_csv(os.path.join(outdir, "hedge_portfolio.csv"),
               ["instrument", "base", "with_claim", "hedge"], rows)

    hedge_payout = with_prog.portfolio_payout(loaded.x) - base_prog.portfolio_payout(base.x)
    claim_payout = claim_liability(terms, grid)
    _write_surface(
        os.path.join(outdir, "hedge_error.csv"),
        grid.points,
        {"hedge_payout": hedge_payout, "claim_payout": claim_payout,
         "error": hedge_payout - claim_payout},
    )
    return 0


def _cmd_superhedge(config, market, outdir, args, side="superhedge") -> int:
    fn = superhedge_cost if side == "superhedge" else subhedge_cost
    hedging = _hedging_market(market, config.claim, config.exclude_claim_strike)
    cost, rows, solution = fn(hedging, config.claim, config.claim_units, config.delta_pct,
                              settings=config.solver)
    summary = {
        "side": side,
        "cost": cost,
        "status": solution.status,
        "claim": config.claim.label,
        "units": config.claim_units,
        "truncation": [list(t) for t in market.truncation or ()],
    }
    write_json(os.path.join(outdir, f"{side}_summary.json"), summary)
    _write_portfolio(os.path.join(outdir, f"{side}_portfolio.csv"), rows)
    return 0


def _cmd_arbitrage(config, market, outdir, args) -> int:
    report = find_arbitrage(
        market, config.agent.initial_wealth, config.delta_pct, settings=config.solver
    )
    summary = {
        "found": report.found,
        "expected_excess": report.expected_excess,
        "min_uniform_slack": report.min_uniform_slack,
        "payout_floor": report.payout_floor if report.found else None,
        "delta_pct": config.delta_pct,
    }
    write_json(os.path.join(outdir, "arbitrage_summary.json"), summary)
    if report.strategy is not None:
        _write_portfolio(os.path.join(outdir, "arbitrage_strategy.csv"), report.strategy)
    expect = args.expect
    if expect == "any":
        return 0
    if (expect == "found") != report.found:
        return 2
    return 0


def _cmd_simulate(config, market, outdir, args) -> int:
    terms = [(config.claim, config.claim_units)] if args.with_claim else []
    hedging = _hedging_market(market, config.claim, config.exclude_claim_strike)
    program = _agent_leg(hedging, hedging.grid_for(terms), config, terms)
    solution = _optimum(program, config.solver)
    paths = simulate_paths(config.model, args.paths, args.seed)
    # out-of-sample wealth: the budget less the strategy's loss rows on the
    # paths, so cash is the budget less the acquisition cost as in every portfolio file
    levels = [paths[:, [t]] for t in range(paths.shape[1])]
    names, factors, _ = strategy_factors(hedging.quotes, levels, hedging.model.spot,
                                         config.delta_pct)
    held = dict(zip(program.layout.names, solution.x))
    wealth = program.budget - factors.product(np.array([held.get(name, 0.0) for name in names]))
    _write_surface(os.path.join(outdir, "simulate_wealth.csv"), paths, {"terminal_wealth": wealth})
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"JSON config path (or ${CONFIG_ENV_VAR})")
    common.add_argument("--quotes", help="quote chain CSV (defaults to the packaged chain)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--delta-pct", type=float, default=None,
                        help="proportional index transaction cost, percent")
    common.add_argument("--frictionless", action="store_true",
                        help="force the perfectly liquid index model")
    common.add_argument("--exclude-strike", action="store_true",
                        help="drop the quote matching the claim from the hedging set")
    common.add_argument("--json-errors", action="store_true",
                        help="emit errors as JSON on stderr")

    parser = argparse.ArgumentParser(
        prog="semistatic",
        description="Semi-static hedging, indifference pricing and hedging-cost bounds "
        "on a quoted option chain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("optimize", "simulate"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--with-claim", action="store_true",
                       help="include the configured claim as a sold liability")
        if name == "simulate":
            p.add_argument("--paths", type=int, default=10000)
            p.add_argument("--seed", type=int, default=1, help="simulation seed")
    sub.add_parser("price", parents=[common])
    sub.add_parser("hedge", parents=[common])
    sub.add_parser("superhedge", parents=[common])
    sub.add_parser("subhedge", parents=[common])
    arb = sub.add_parser("arbitrage", parents=[common])
    arb.add_argument("--expect", choices=("any", "none", "found"), default="any")
    return parser


_COMMANDS = {
    "optimize": _cmd_optimize,
    "price": _cmd_price,
    "hedge": _cmd_hedge,
    "superhedge": lambda c, m, o, a: _cmd_superhedge(c, m, o, a, "superhedge"),
    "subhedge": lambda c, m, o, a: _cmd_superhedge(c, m, o, a, "subhedge"),
    "arbitrage": _cmd_arbitrage,
    "simulate": _cmd_simulate,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        overrides: dict = {}
        if args.delta_pct is not None:
            overrides["market"] = {"delta_pct": args.delta_pct, "frictionless": False}
        if args.frictionless:
            overrides.setdefault("market", {})["frictionless"] = True
        if args.exclude_strike:
            overrides["flags"] = {"exclude_claim_strike": True}
        config = load_config(args.config, overrides)
        market = _market(config, args.quotes)
        os.makedirs(args.out, exist_ok=True)
        return _COMMANDS[args.command](config, market, args.out, args)
    except (SolverFailure,) as exc:
        _report_error(args, "solver", str(exc))
        return 2
    except (ValueError, OSError, KeyError) as exc:
        _report_error(args, type(exc).__name__, str(exc))
        return 1


def _report_error(args, kind, message) -> None:
    if getattr(args, "json_errors", False):
        print(json.dumps({"error": kind, "message": message}, sort_keys=True), file=sys.stderr)
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
