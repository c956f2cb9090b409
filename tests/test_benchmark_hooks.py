"""The benchmark's trace hooks still wrap the package's entry points.

``perfbench/child.py`` times a report by wrapping the public functions it
calls; a refactor that renames one, or stops calling it through the module
binding, would silently empty a traced run's per-layer metrics.
"""
import collections
import pathlib

from semistatic import cli, pricing

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def test_traced_report_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    monkeypatch.delenv(cli.CONFIG_ENV_VAR, raising=False)
    import tracer as tracing
    from child import _install_tracer

    config = cli.load_config()
    market = cli._market(config)
    trace = tracing.Tracer()
    _install_tracer(trace)
    try:
        report = pricing.price_report(market, config.agent, config.claim,
                                      units=config.claim_units, delta_pct=config.delta_pct,
                                      settings=config.solver)
    finally:
        restored = trace.restore()
    assert restored

    spans = trace.spans
    reports = [i for i, span in enumerate(spans) if span.name == "pricing.report"]
    assert len(reports) == 1

    def inside_report(index):
        parent = spans[index].parent
        while parent is not None and parent != reports[0]:
            parent = spans[parent].parent
        return parent == reports[0]

    counts = collections.Counter(s.name for i, s in enumerate(spans) if inside_report(i))
    # one grid and one program for the five legs and the zero claim's LP,
    # which decides the arbitrage flag; no phase-1.  The legs are solved as
    # two stacks through solver.solve_legs, which the tracer does not wrap,
    # so no solver span times a leg
    assert counts["scenario.grid"] == 1
    assert counts["galerkin.assemble"] == 1
    assert counts["solver.minimize"] == 0
    assert counts["solver.solve_lp"] == 0
    assert counts["solver.feasibility_start"] == 0

    # the per-leg counts still come from the report
    metrics = tracing.layer_metrics(spans, [report.to_dict()])
    for leg in tracing.LEGS:
        assert metrics[f"solver.{leg}.newton"] == report.legs[leg]["newton_iterations"] > 0
    assert metrics["pricing.report_s"] > 0

    # the assembly counts are read off the program assemble_* returns: the
    # report's space, built here on its own
    terms = pricing._claim_terms(config.agent, config.claim, config.claim_units)
    space = pricing._assemble(market, market.grid_for(terms), config.delta_pct)
    assert metrics["galerkin.variables"] == space.variable_count
    assert metrics["galerkin.dropped"] == len(space.layout.dropped) > 0
