"""One benchmark child: sets a workload up in a fresh interpreter, prices it,
and writes what it measured to ``<out>/result.json`` for run.py.

    python3 perfbench/child.py '<json spec>'

The spec names the workload, the seed, the mode ("full" prices the workload;
"probe" stops at the first pricing call, to sample set-up time), whether to
trace, and the output directory.  The child records the CLOCK_MONOTONIC time
of its first pricing call; run.py subtracts the time it spawned the child, so
set-up time includes interpreter start and the package import.
"""
from __future__ import annotations

import ctypes
import json
import os
import sys
import time
import traceback

import tracer as tracing

DEFAULT_SEED = 20170321  # qty_seed of the packaged chain and the golden prices
CLAIMS_PER_CHILD = {"desk-price": 1, "dense-chain": 1, "friction-book": 2}
DENSE_STRIKES = tuple(float(k) for k in range(1500, 2501, 25))
FRICTION_OVERRIDES = {"market": {"delta_pct": 0.1, "frictionless": False}}


class SetupDone(BaseException):
    """Raised at the first pricing call of a probe child.  A BaseException, so
    the CLI's own error handling does not swallow it."""


class ReportClock:
    """Times every pricing call; the first call also marks the end of set-up."""

    def __init__(self, probe: bool):
        self.probe = probe
        self.walls: list[float] = []
        self.setup_end = None

    def wrap(self, price_report):
        def timed(*args, **kwargs):
            if self.setup_end is None:
                self.setup_end = time.monotonic()
                if self.probe:
                    raise SetupDone
            start = time.perf_counter()
            report = price_report(*args, **kwargs)
            self.walls.append(time.perf_counter() - start)
            return report

        return timed


def _blas_info() -> dict:
    """Thread counts and configuration of the OpenBLAS copies loaded by numpy
    (64-bit interface, symbol suffix ``64_``) and scipy, read through ctypes."""
    info = {"blas_threads_numpy": None, "blas_threads_scipy": None, "openblas": []}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for path in libs:
        lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        for key, suffix in (("blas_threads_numpy", "64_"), ("blas_threads_scipy", "")):
            getter = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if getter is None or config is None:
                continue
            getter.argtypes, getter.restype = [], ctypes.c_int
            config.argtypes, config.restype = [], ctypes.c_char_p
            info[key] = getter()
            info["openblas"].append(config().decode())
    return info


def _install_tracer(tracer):
    """Wrap the package's public entry points and the solver's Cholesky calls."""
    import scipy.linalg

    from semistatic import cli, galerkin, pricing, solver

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "semistatic"]

    def program_shape(args, kwargs, result):
        program = args[0]
        return {"M": program.rows.shape[0], "n": program.rows.shape[1]}

    def assembled(args, kwargs, result):
        return {"M": result.rows.shape[0], "n": result.rows.shape[1],
                "dropped": len(result.layout.dropped)}

    tracer.wrap(cli.load_config, "cli.config", modules)
    tracer.wrap(cli.ingest_quotes, "cli.ingest", modules)
    fixtures = sys.modules.get("semistatic.fixtures")
    if fixtures is not None:
        tracer.wrap(fixtures.synthetic_chain, "cli.ingest", modules)
    tracer.wrap(pricing.PriceReport.to_json, "cli.write", [pricing.PriceReport])
    tracer.wrap(pricing.price_report, "pricing.report", modules)
    tracer.wrap(pricing.Market.grid_for, "scenario.grid", [pricing.Market],
                lambda a, k, r: {"points": int(r.size)})
    tracer.wrap(galerkin.assemble_frictionless, "galerkin.assemble", modules, assembled)
    tracer.wrap(galerkin.assemble_transaction_cost, "galerkin.assemble", modules, assembled)
    tracer.wrap(solver.minimize, "solver.minimize", modules, program_shape)
    tracer.wrap(solver.solve_lp, "solver.solve_lp", modules, program_shape)
    tracer.wrap(solver.feasibility_start, "solver.feasibility_start", modules, program_shape)
    tracer.wrap(scipy.linalg.cho_factor, "solver.cho_factor", [scipy.linalg])
    tracer.wrap(scipy.linalg.cho_solve, "solver.cho_solve", [scipy.linalg])


def _run_desk(clock, out) -> list[str]:
    """A cold ``semistatic price`` on the packaged chain with the default config."""
    from semistatic import cli

    original = cli.price_report
    cli.price_report = clock.wrap(original)
    try:
        code = cli.main(["price", "--out", out])
    finally:
        cli.price_report = original
    if code != 0:
        raise RuntimeError(f"semistatic price exited with {code}")
    return [os.path.join(out, "price_report.json")]


def _run_book(workload, seed, clock, out) -> list[str]:
    """In-process reports on a generated chain, one per claim of the book."""
    from semistatic import cli, fixtures, knockout_call, lookback_digital, pricing

    if workload == "dense-chain":
        config = cli.load_config()
        chain = fixtures.synthetic_chain(config.model, strikes=DENSE_STRIKES,
                                         maturities=config.maturities, qty_seed=seed)
        claims = [config.claim]
    else:
        config = cli.load_config(None, FRICTION_OVERRIDES)
        chain = fixtures.synthetic_chain(config.model, maturities=config.maturities,
                                         qty_seed=seed)
        claims = [knockout_call(2350.0, 2400.0), lookback_digital(2400.0)]
    market = pricing.Market(
        quotes=tuple(chain),
        model=config.model,
        lot_size=config.lot_size,
        truncation=config.truncation,
        density_nodes=config.density_nodes,
    )
    price = clock.wrap(pricing.price_report)
    paths = []
    for index, claim in enumerate(claims):
        report = price(market, config.agent, claim, units=config.claim_units,
                       delta_pct=config.delta_pct,
                       exclude_claim_quote=config.exclude_claim_strike,
                       settings=config.solver)
        paths.append(os.path.join(out, f"report-{index}.json"))
        report.to_json(paths[-1])
    return paths


def main() -> int:
    spec = json.loads(sys.argv[1])
    result = {"errors": [], "reports": []}
    tracer = tracing.Tracer() if spec["trace"] else None
    if tracer is not None:
        result["tracer_self_test"] = tracing.self_test()

    started = time.perf_counter()
    import semistatic.cli  # noqa: F401  (timed: the package import)
    if spec["workload"] != "desk-price":
        import semistatic.fixtures  # noqa: F401
    imported = time.perf_counter()

    clock = ReportClock(probe=spec["mode"] == "probe")
    if tracer is not None:
        tracer.record("cli.import", started, imported)
        _install_tracer(tracer)
    try:
        if spec["workload"] == "desk-price":
            result["reports"] = _run_desk(clock, spec["out"])
        else:
            result["reports"] = _run_book(spec["workload"], spec["seed"], clock, spec["out"])
    except SetupDone:
        pass
    except Exception:
        result["errors"].append(traceback.format_exc())
    finally:
        if tracer is not None:
            result["tracer_restored"] = tracer.restore()

    # read after the run, so that none of it counts as set-up
    result["package"] = os.path.abspath(semistatic.__file__)
    result.update(_blas_info())
    result["nproc"] = len(os.sched_getaffinity(0))
    import numpy
    import scipy

    result["versions"] = {"numpy": numpy.__version__, "scipy": scipy.__version__}
    result["wealth"] = semistatic.cli.load_config().agent.initial_wealth
    result["setup_end"] = clock.setup_end
    result["report_walls"] = clock.walls
    if tracer is not None and not result["errors"]:
        result["tracer_additive"] = tracing.check_additive(tracer.spans)
        reports = []
        for path in result["reports"]:
            with open(path) as fh:
                reports.append(json.load(fh))
        result["layers"] = tracing.layer_metrics(tracer.spans, reports)
        with open(os.path.join(spec["out"], "spans.json"), "w") as fh:
            json.dump([span.to_dict() for span in tracer.spans], fh)
    with open(os.path.join(spec["out"], "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
