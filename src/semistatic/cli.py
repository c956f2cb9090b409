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

import jsonschema
import numpy as np

from . import claims as claims_mod
from .claims import Claim
from .galerkin import AssembledProgram, claim_liability
from .instruments import OptionKind, Quote
from .pricing import (
    AgentSpec,
    HedgePortfolio,
    Market,
    SolverFailure,
    _assemble,
    _portfolio,
    find_arbitrage,
    price_report,
    subhedge_cost,
    superhedge_cost,
)
from .scenario import VGParams, simulate_paths
from .solver import SolveSettings, minimize

CONFIG_ENV_VAR = "SEMISTATIC_CONFIG"

CONFIG_SCHEMA = {
    "type": "object",
    "properties": {
        "agent": {
            "type": "object",
            "properties": {
                "initial_wealth": {"type": "number", "exclusiveMinimum": 0},
                "risk_aversion": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "model": {
            "type": "object",
            "properties": {
                "theta": {"type": "number"},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "nu": {"type": "number", "exclusiveMinimum": 0},
                "spot": {"type": "number", "exclusiveMinimum": 0},
                "horizons": {
                    "type": "array",
                    "items": {"type": "number", "exclusiveMinimum": 0},
                    "minItems": 1,
                },
            },
            "additionalProperties": False,
        },
        "market": {
            "type": "object",
            "properties": {
                "lot_size": {"type": "number", "exclusiveMinimum": 0},
                "delta_pct": {"type": "number", "minimum": 0},
                "frictionless": {"type": "boolean"},
                "truncation": {
                    "type": "array",
                    "items": {
                        "type": "array",
                        "items": {"type": "number"},
                        "minItems": 2,
                        "maxItems": 2,
                    },
                },
                "maturities": {"type": "array", "items": {"type": "string"}},
            },
            "additionalProperties": False,
        },
        "grid": {
            "type": "object",
            "properties": {
                "density_nodes": {"type": "integer", "minimum": 16},
                "strike_step": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
        "solver": {
            "type": "object",
            "properties": {
                "grad_tol": {"type": "number"},
                "barrier_reduction": {"type": "number"},
                "max_outer": {"type": "integer"},
                "max_newton": {"type": "integer"},
                "gap_tol": {"type": "number"},
            },
            "additionalProperties": False,
        },
        "claim": {
            "type": "object",
            "properties": {
                "variant": {
                    "enum": [
                        "vanilla_call",
                        "knockout_call",
                        "asian_call",
                        "lookback_call",
                        "lookback_digital",
                        "custom",
                    ]
                },
                "strike": {"type": "number"},
                "barrier": {"type": "number"},
                "payout_level": {"type": "number"},
                "contract_size": {"type": "number"},
                "units": {"type": "number"},
                "table_path": {"type": ["string", "null"]},
            },
            "additionalProperties": False,
        },
        "flags": {
            "type": "object",
            "properties": {
                "exclude_claim_strike": {"type": "boolean"},
            },
            "additionalProperties": False,
        },
    },
    "additionalProperties": False,
}

DEFAULT_CONFIG = {
    "agent": {"initial_wealth": 100000.0, "risk_aversion": 2.0},
    "model": {
        "theta": 0.0,
        "sigma": 0.1206,
        "nu": 0.0031,
        "spot": 2360.0,
        "horizons": [1.0 / 12.0, 2.0 / 12.0],
    },
    "market": {
        "lot_size": 100.0,
        "delta_pct": 0.0,
        "frictionless": True,
        "truncation": [[1000.0, 3000.0], [1000.0, 3000.0]],
        "maturities": ["4/21/2017", "5/19/2017"],
    },
    "grid": {"density_nodes": 400},
    "solver": {},
    "claim": {
        "variant": "knockout_call",
        "strike": 2350.0,
        "barrier": 2400.0,
        "payout_level": 10.0,
        "contract_size": 100.0,
        "units": 1.0,
        "table_path": None,
    },
    "flags": {"exclude_claim_strike": False},
}

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
                count = seen.get(ticker, 0)
                seen[ticker] = count + 1
                quote_id = ticker if count == 0 else f"{ticker}#{count + 1}"
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
    raw: dict


def load_config(path=None, overrides: dict | None = None) -> RunConfig:
    """Load, schema-validate and materialize a run configuration.  ``path``
    falls back to the environment override, then packaged defaults."""
    data = {}
    if path is None:
        path = os.environ.get(CONFIG_ENV_VAR)
    if path:
        with open(path) as fh:
            data = json.load(fh)
    jsonschema.validate(data, CONFIG_SCHEMA)
    merged = _merge(DEFAULT_CONFIG, data)
    if overrides:
        merged = _merge(merged, overrides)

    model = VGParams(
        theta=merged["model"]["theta"],
        sigma=merged["model"]["sigma"],
        nu=merged["model"]["nu"],
        spot=merged["model"]["spot"],
        horizons=tuple(merged["model"]["horizons"]),
    )
    agent = AgentSpec(
        initial_wealth=merged["agent"]["initial_wealth"],
        risk_aversion=merged["agent"]["risk_aversion"],
    )
    delta = None if merged["market"]["frictionless"] else merged["market"]["delta_pct"]
    settings = SolveSettings(**merged["solver"])

    spec = merged["claim"]
    variant = spec["variant"]
    size = spec.get("contract_size", 100.0)
    if variant == "custom":
        if not spec.get("table_path"):
            raise ValueError("custom claim needs table_path in the configuration")
        claim = claims_mod.load_claim_table(spec["table_path"], contract_size=size)
    elif variant == "vanilla_call":
        claim = claims_mod.vanilla_call(spec["strike"], size)
    elif variant == "knockout_call":
        claim = claims_mod.knockout_call(spec["strike"], spec["barrier"], size)
    elif variant == "asian_call":
        claim = claims_mod.asian_call(spec["strike"], size)
    elif variant == "lookback_call":
        claim = claims_mod.lookback_call(spec["strike"], size)
    else:
        claim = claims_mod.lookback_digital(spec["strike"], spec.get("payout_level", 10.0), size)

    return RunConfig(
        agent=agent,
        model=model,
        lot_size=merged["market"]["lot_size"],
        delta_pct=delta,
        truncation=tuple(tuple(t) for t in merged["market"]["truncation"]),
        maturities=tuple(merged["market"]["maturities"]),
        density_nodes=merged["grid"]["density_nodes"],
        solver=settings,
        claim=claim,
        claim_units=spec.get("units", 1.0),
        exclude_claim_strike=merged["flags"]["exclude_claim_strike"],
        raw=merged,
    )


def packaged_chain_path() -> str:
    return str(resources.files("semistatic").joinpath("data", "synthetic_chain.csv"))


def _market(config: RunConfig, quotes_path=None) -> Market:
    path = quotes_path or packaged_chain_path()
    result = ingest_quotes(path, config.maturities)
    for lineno, message in result.rejected:
        print(f"warning: row {lineno} rejected: {message}", file=sys.stderr)
    return Market(
        quotes=tuple(result.quotes),
        model=config.model,
        lot_size=config.lot_size,
        truncation=config.truncation,
        density_nodes=config.density_nodes,
    )


def _write_surface(path, grid, values, header) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{t + 1}" for t in range(grid.periods)] + [header])
        for i in range(grid.size):
            writer.writerow([repr(float(v)) for v in grid.points[i]] + [repr(float(values[i]))])


def _portfolio_rows(portfolio: HedgePortfolio):
    """(instrument, position) rows: cash, every quote in chain order, dynamic legs."""
    return [("cash", portfolio.cash), *portfolio.positions.items(), *portfolio.dynamic.items()]


def _write_portfolio(path, portfolio: HedgePortfolio) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instrument", "position"])
        for name, value in _portfolio_rows(portfolio):
            writer.writerow([name, repr(float(value))])


def _solve_program(program: AssembledProgram, settings: SolveSettings):
    solution = minimize(program, settings)
    if solution.status in ("infeasible", "unbounded"):
        raise SolverFailure(f"optimization ended with status {solution.status}")
    return solution


def _cmd_optimize(config, market, outdir, args) -> int:
    terms = [(config.claim, config.claim_units)] if args.with_claim else []
    grid = market.grid_for(terms)
    program = _assemble(market, terms, config.agent, grid, None, config.delta_pct)
    solution = _solve_program(program, config.solver)
    _write_portfolio(
        os.path.join(outdir, "optimize_portfolio.csv"),
        _portfolio(program, solution.x, program.budget),
    )
    _write_surface(
        os.path.join(outdir, "optimize_payout.csv"),
        grid,
        program.portfolio_payout(solution.x),
        "payout",
    )
    summary = {
        "log_objective": solution.log_objective,
        "objective": solution.objective,
        "status": solution.status,
        "outer_iterations": solution.outer_iterations,
        "newton_iterations": solution.newton_iterations,
        "delta_pct": config.delta_pct,
        "quotes": len(market.quotes),
        "grid_points": grid.size,
    }
    _dump_json(os.path.join(outdir, "optimize_summary.json"), summary)
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
    hedging = market
    if config.exclude_claim_strike:
        hedging = market.without_quote(
            OptionKind.CALL, config.claim.strike, config.model.periods
        )
    terms = [(config.claim, config.claim_units)]
    grid = hedging.grid_for(terms)
    base_prog = _assemble(hedging, [], config.agent, grid, None, config.delta_pct)
    with_prog = _assemble(hedging, terms, config.agent, grid, None, config.delta_pct)
    base = _solve_program(base_prog, config.solver)
    loaded = _solve_program(with_prog, config.solver)

    base_held = dict(_portfolio_rows(_portfolio(base_prog, base.x, base_prog.budget)))
    with open(os.path.join(outdir, "hedge_portfolio.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["instrument", "base", "with_claim", "hedge"])
        for name, held in _portfolio_rows(_portfolio(with_prog, loaded.x, with_prog.budget)):
            b = base_held.get(name, 0.0)
            writer.writerow([name, repr(float(b)), repr(float(held)), repr(float(held - b))])

    hedge_payout = with_prog.portfolio_payout(loaded.x) - base_prog.portfolio_payout(base.x)
    claim_payout = claim_liability(terms, grid)
    with open(os.path.join(outdir, "hedge_error.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{t + 1}" for t in range(grid.periods)]
            + ["hedge_payout", "claim_payout", "error"]
        )
        for i in range(grid.size):
            writer.writerow(
                [repr(float(v)) for v in grid.points[i]]
                + [repr(float(hedge_payout[i])), repr(float(claim_payout[i])),
                   repr(float(hedge_payout[i] - claim_payout[i]))]
            )
    return 0


def _cmd_superhedge(config, market, outdir, args, side="superhedge") -> int:
    fn = superhedge_cost if side == "superhedge" else subhedge_cost
    cost, portfolio, solution = fn(
        market, config.claim, config.claim_units, config.delta_pct, settings=config.solver
    )
    summary = {
        "side": side,
        "cost": cost,
        "status": solution.status,
        "claim": config.claim.label,
        "units": config.claim_units,
        "truncation": [list(t) for t in market.truncation or ()],
    }
    _dump_json(os.path.join(outdir, f"{side}_summary.json"), summary)
    if portfolio is None:
        return 2
    _write_portfolio(os.path.join(outdir, f"{side}_portfolio.csv"), portfolio)
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
    _dump_json(os.path.join(outdir, "arbitrage_summary.json"), summary)
    if report.found and report.strategy is not None:
        _write_portfolio(os.path.join(outdir, "arbitrage_strategy.csv"), report.strategy)
    expect = args.expect
    if expect == "any":
        return 0
    if (expect == "found") != report.found:
        return 2
    return 0


def _cmd_simulate(config, market, outdir, args) -> int:
    terms = [(config.claim, config.claim_units)] if args.with_claim else []
    grid = market.grid_for(terms)
    program = _assemble(market, terms, config.agent, grid, None, config.delta_pct)
    solution = _solve_program(program, config.solver)
    paths = simulate_paths(config.model, args.paths, args.seed)
    wealth = _terminal_wealth(program, solution.x, market, config, terms, paths)
    with open(os.path.join(outdir, "simulate_wealth.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"x{t + 1}" for t in range(paths.shape[1])] + ["terminal_wealth"]
        )
        for i in range(paths.shape[0]):
            writer.writerow([repr(float(v)) for v in paths[i]] + [repr(float(wealth[i]))])
    return 0


def _terminal_wealth(program, y, market, config, terms, paths) -> np.ndarray:
    """Out-of-sample terminal wealth of the solved strategy on simulated paths.

    Rebuilds the loss-argument rows on the sample paths through the same
    assembler used for the grid; wealth is the budget less the rows, so its
    cash is the budget less the acquisition cost, as in every portfolio file.
    """
    from .scenario import QuadratureGrid

    n = paths.shape[0]
    sample_grid = QuadratureGrid(
        spot=market.model.spot,
        node_sets=tuple(np.unique(paths[:, t]) for t in range(paths.shape[1])),
        points=paths,
        point_index=np.zeros_like(paths, dtype=int),
        weights=np.full(n, 1.0 / n),
        density=np.ones(n),
        masses=np.full(n, 1.0 / n),
        raw_mass=1.0,
        truncation=tuple((0.0, np.inf) for _ in range(paths.shape[1])),
    )
    sample_prog = _assemble(market, terms, config.agent, sample_grid, None, config.delta_pct)
    full = np.zeros(sample_prog.variable_count)
    name_to_value = dict(zip(program.layout.names, y))
    for i, name in enumerate(sample_prog.layout.names):
        full[i] = name_to_value.get(name, 0.0)
    return sample_prog.portfolio_payout(full)


def _dump_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, sort_keys=True, indent=1)


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help=f"JSON config path (or ${CONFIG_ENV_VAR})")
    common.add_argument("--quotes", help="quote chain CSV (defaults to the packaged chain)")
    common.add_argument("--out", default=".", help="output directory")
    common.add_argument("--seed", type=int, default=1, help="simulation seed")
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
    except (ValueError, OSError, KeyError, jsonschema.ValidationError) as exc:
        _report_error(args, type(exc).__name__, str(exc))
        return 1


def _report_error(args, kind, message) -> None:
    if getattr(args, "json_errors", False):
        print(json.dumps({"error": kind, "message": message}, sort_keys=True), file=sys.stderr)
    else:
        print(f"error ({kind}): {message}", file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
