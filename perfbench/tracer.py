"""In-memory span tracer for the benchmark's traced runs.

Wrappers are installed from the benchmark's side, around the calls into the
package's public functions; nothing inside the package is edited.  A span
records its name, start, end, parent and a few attributes read from the
call's arguments or result.  Spans stay in memory until the child writes them
out at the end of its run.

Only the standard library is imported here, so that importing the tracer
does not load numpy before the child times the package import.
"""
from __future__ import annotations

import functools
import time

LEGS = ("baseline", "seller", "buyer", "superhedge", "subhedge")
# price_report solves its legs in this order: three exponential-sum programs
# through minimize, then the super- and subhedging LPs through solve_lp, then
# the arbitrage phase-1 through feasibility_start.
EXP_LEGS, LP_LEGS = LEGS[:3], LEGS[3:]
SOLVER_ENTRIES = ("solver.minimize", "solver.solve_lp", "solver.feasibility_start")


class Span:
    __slots__ = ("name", "start", "end", "parent", "attrs")

    def __init__(self, name, start, parent, end=None, attrs=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "attrs": self.attrs}


class Tracer:
    """Records nested spans of wrapped calls; ``restore`` undoes every wrap."""

    def __init__(self):
        self.spans: list[Span] = []
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def record(self, name, start, end, **attrs) -> None:
        """Add a span for an interval timed outside any wrapper."""
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, start, parent, end, attrs))

    def _traced(self, original, name, describe):
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            span = Span(name, 0.0, tracer._open[-1] if tracer._open else None)
            tracer.spans.append(span)
            tracer._open.append(index)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._open.pop()
            if describe is not None:
                span.attrs = describe(args, kwargs, result)
            return result

        return traced

    def wrap(self, original, name, owners, describe=None) -> None:
        """Replace every binding of ``original`` in ``owners`` (modules or
        classes) by one traced wrapper.  ``describe(args, kwargs, result)``
        returns the span's attributes."""
        traced = self._traced(original, name, describe)
        found = False
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                if value is original:
                    setattr(owner, attr, traced)
                    self._patches.append((owner, attr, original))
                    found = True
        if not found:
            raise LookupError(f"no binding of {name} found to wrap")

    def restore(self) -> bool:
        """Put every original function back; True when all are in place."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        ok = all(vars(owner)[attr] is original for owner, attr, original in self._patches)
        self._patches.clear()
        return ok


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo, hi = max(child.start, reach, span.start), min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def _ancestor(spans, index, names):
    """Nearest strict ancestor of span ``index`` whose name is in ``names``."""
    parent = spans[index].parent
    while parent is not None:
        if spans[parent].name in names:
            return parent
        parent = spans[parent].parent
    return None


def check_additive(spans, root_name="pricing.report", tol=1e-6) -> bool:
    """Self times inside each ``root_name`` span add up to its duration."""
    selfs = self_times(spans)
    for index, span in enumerate(spans):
        if span.name != root_name:
            continue
        total = selfs[index] + sum(
            selfs[i] for i in range(len(spans)) if _ancestor(spans, i, {root_name}) == index
        )
        if abs(total - span.duration) > tol:
            return False
    return True


def self_test() -> bool:
    """Trace a toy call tree and check nesting, self-time additivity and that
    the wrappers restore the originals."""

    class Toy:
        @staticmethod
        def leaf(n):
            return sum(range(n))

        @staticmethod
        def root():
            return Toy.leaf(20000) + Toy.leaf(10000)

    leaf, root = vars(Toy)["leaf"], vars(Toy)["root"]
    tracer = Tracer()
    tracer.wrap(leaf, "toy.leaf", [Toy])
    tracer.wrap(root, "toy.root", [Toy])
    value = Toy.root()
    restored = tracer.restore()
    names = [s.name for s in tracer.spans]
    return (
        restored
        and vars(Toy)["leaf"] is leaf
        and vars(Toy)["root"] is root
        and value == sum(range(20000)) + sum(range(10000))
        and names == ["toy.root", "toy.leaf", "toy.leaf"]
        and [s.parent for s in tracer.spans] == [None, 0, 0]
        and check_additive(tracer.spans, "toy.root", tol=1e-9)
    )


def layer_metrics(spans, reports) -> dict:
    """Per-layer numbers of one traced child.

    ``reports`` holds the report dicts in the order their ``pricing.report``
    spans were opened.  Report-level layers are averaged over the reports;
    the ``cli.*`` set-up layers are totals for the child.
    """
    selfs = self_times(spans)
    report_ids = [i for i, s in enumerate(spans) if s.name == "pricing.report"]
    if len(report_ids) != len(reports) or not reports:
        raise ValueError(f"{len(report_ids)} report spans for {len(reports)} reports")
    owner = [_ancestor(spans, i, {"pricing.report"}) for i in range(len(spans))]

    def total(name):
        return sum(s.duration for s in spans if s.name == name)

    out = {
        "cli.import_s": total("cli.import"),
        "cli.config_s": total("cli.config"),
        "cli.ingest_s": total("cli.ingest"),
        "cli.write_s": total("cli.write"),
    }
    sums: dict[str, float] = {}

    def add(key, value):
        sums[key] = sums.get(key, 0.0) + value

    for rid, report in zip(report_ids, reports):
        mine = [i for i in range(len(spans)) if owner[i] == rid]
        add("pricing.report_s", spans[rid].duration)
        add("pricing.self_s", selfs[rid])
        grids = [spans[i] for i in mine if spans[i].name == "scenario.grid"]
        add("scenario.grid_s", sum(s.duration for s in grids))
        add("scenario.grid_calls", len(grids))
        add("scenario.grid_points", sum(s.attrs["points"] for s in grids))
        programs = [spans[i] for i in mine if spans[i].name == "galerkin.assemble"]
        add("galerkin.assemble_s", sum(s.duration for s in programs))
        add("galerkin.assemble_calls", len(programs))
        add("galerkin.variables", max((s.attrs["n"] for s in programs), default=0))
        add("galerkin.dropped", max((s.attrs["dropped"] for s in programs), default=0))
        add("galerkin.rows_mb", max((s.attrs["M"] * s.attrs["n"] * 8 / 1e6 for s in programs),
                                    default=0.0))
        factors = [spans[i] for i in mine if spans[i].name == "solver.cho_factor"]
        add("solver.factor_s", sum(s.duration for s in factors))
        add("solver.factor_calls", len(factors))
        add("solver.solve_s", sum(spans[i].duration for i in mine if spans[i].name == "solver.cho_solve"))

        # legs are the solver entries called by price_report itself, not the
        # phase-1 a solver entry may run inside its own leg
        entries = {name: [i for i in mine if spans[i].name == name
                          and _ancestor(spans, i, set(SOLVER_ENTRIES) | {"pricing.report"}) == rid]
                   for name in SOLVER_ENTRIES}
        legs = dict(zip(EXP_LEGS, entries["solver.minimize"]))
        legs.update(zip(LP_LEGS, entries["solver.solve_lp"]))
        leg_seconds, newtons, gflop = 0.0, 0, 0.0
        for leg in LEGS:
            diag = report["legs"][leg]
            seconds = spans[legs[leg]].duration if leg in legs else 0.0
            add(f"solver.{leg}.s", seconds)
            add(f"solver.{leg}.newton", diag["newton_iterations"])
            add(f"solver.{leg}.stages", diag["outer_iterations"])
            add(f"solver.{leg}.kkt", diag["kkt_residual"])
            leg_seconds += seconds
            newtons += diag["newton_iterations"]
            if leg in legs:
                attrs = spans[legs[leg]].attrs
                gflop += diag["newton_iterations"] * 2.0 * attrs["M"] * attrs["n"] ** 2 / 1e9
        add("solver.phase1.s", sum(spans[i].duration for i in entries["solver.feasibility_start"]))
        add("solver.s_per_newton", leg_seconds / newtons if newtons else 0.0)
        add("solver.hess_gflop_computed", gflop)

    out.update({key: value / len(reports) for key, value in sums.items()})
    return out
