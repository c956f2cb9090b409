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
    traced_lp, lp_solutions = pricing.solve_lp, []

    def spy(program, settings=None):
        lp_solutions.append(traced_lp(program, settings))
        return lp_solutions[-1]

    pricing.solve_lp = spy
    try:
        report = pricing.price_report(market, config.agent, config.claim,
                                      units=config.claim_units, delta_pct=config.delta_pct,
                                      settings=config.solver)
    finally:
        pricing.solve_lp = traced_lp
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
    # which decides the arbitrage flag; no phase-1
    assert counts["scenario.grid"] == 1
    assert counts["galerkin.assemble"] == 1
    assert counts["solver.minimize"] == 3
    assert counts["solver.solve_lp"] == 3
    assert counts["solver.feasibility_start"] == 0

    # the tracer times the first two LPs as the super- and subhedging legs
    superhedge, subhedge, _ = lp_solutions
    assert (superhedge.objective, -subhedge.objective) == (report.superhedge, report.subhedge)
    metrics = tracing.layer_metrics(spans, [report.to_dict()])
    assert metrics["solver.superhedge.s"] > 0 and metrics["solver.subhedge.s"] > 0
