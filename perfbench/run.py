"""Benchmark of the package's unit of work, the price report.

    python3 perfbench/run.py --workload desk-price --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout.  Every child is a fresh interpreter
started from here, one after another, with ``src`` on its path and without
the BLAS threading variables, so it runs at the program's own default thread
count.  Children are started until the next one would end past ``--seconds``
(at least one, or one untraced and one traced with ``--trace 1``).

With ``--trace 0`` the last line of output is a JSON object with the
end-to-end metrics; with ``--trace 1`` it carries the per-layer metrics of a
traced child, and the tracing overhead against an untraced one.  The line
before it holds the run's details: the samples, BLAS threads, versions,
the prices and the determinism check.  The run exits 1 when a report fails
a check, 2 when it cannot run at all.  See README.md beside this file.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from child import CLAIMS_PER_CHILD, DEFAULT_SEED  # noqa: E402

PROBES = 4  # set-up-only children per untraced run, beside the full ones
BLAS_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_LIMIT_S = 170.0  # a child still running this long after the start is killed
GOLDEN_RTOL = 1e-6
ORDER_TOL = 1e-6  # times initial wealth, as in price_report's ordering flag


class Child:
    """What run.py measured of one finished child process."""

    def __init__(self, kind, spawned, exited, status, usage, result):
        self.kind = kind
        self.wall = exited - spawned
        self.status = status
        self.cpu = usage.ru_utime + usage.ru_stime
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.result = result or {"errors": ["child wrote no result"], "reports": []}
        self.setup = None
        if result and result.get("setup_end") is not None:
            self.setup = result["setup_end"] - spawned


def _child_env(root) -> dict:
    env = dict(os.environ)
    for name in BLAS_VARIABLES + ("SEMISTATIC_CONFIG",):
        env.pop(name, None)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _spawn(root, rundir, tag, kind, workload, seed, deadline) -> Child:
    out = os.path.join(rundir, tag)
    os.makedirs(out)
    spec = json.dumps({"workload": workload, "seed": seed, "trace": kind == "traced", "out": out,
                       "mode": "probe" if kind == "probe" else "full"})
    spawned = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "child.py"), spec],
        cwd=root, env=_child_env(root), stdin=subprocess.DEVNULL, stdout=sys.stderr,
    )
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    exited = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    path = os.path.join(out, "result.json")
    if os.path.exists(path):
        with open(path) as fh:
            result = json.load(fh)
    return Child(kind, spawned, exited, proc.returncode, usage, result)


def _schedule(root, rundir, workload, seed, seconds, trace) -> list[Child]:
    start = time.monotonic()
    end, limit = start + seconds, start + RUN_LIMIT_S
    children = []
    if not trace:
        for k in range(PROBES):
            children.append(_spawn(root, rundir, f"probe-{k}", "probe", workload, seed, limit))
    longest = 0.0
    k = 0
    while True:
        kind = "traced" if trace and k % 2 else "full"
        child = _spawn(root, rundir, f"{kind}-{k}", kind, workload, seed, limit)
        children.append(child)
        longest = max(longest, child.wall)
        k += 1
        failed = child.status != 0 or child.result["errors"]
        if failed or (k >= (2 if trace else 1) and time.monotonic() + longest > end):
            return children


def _golden(workload, seed):
    with open(os.path.join(HERE, "golden.json")) as fh:
        entry = json.load(fh)[workload]
    if entry["seed"] is not None and entry["seed"] != seed:
        return None
    return entry["prices"]


def _check_report(doc, wealth, golden) -> list[str]:
    """Every way a report can fail, as messages; empty when it passes."""
    problems = []
    for leg, diag in sorted(doc["legs"].items()):
        if diag["status"] != "optimal":
            problems.append(f"leg {leg} ended {diag['status']}")
    prices = doc["prices"]
    if not all(isinstance(v, (int, float)) and math.isfinite(v) for v in prices.values()):
        problems.append(f"non-finite price in {prices}")
        return problems
    tol = ORDER_TOL * wealth
    sub, buyer, seller, sup = (prices[k] for k in ("subhedge", "buyer", "seller", "superhedge"))
    if not (sub <= buyer + tol and buyer <= seller + tol and seller <= sup + tol):
        problems.append(f"prices out of order: {prices}")
    if doc["flags"].get("arbitrage_detected") is not False:
        problems.append(f"arbitrage_detected is {doc['flags'].get('arbitrage_detected')}")
    if golden is not None:
        expected = golden.get(doc["claim"])
        if expected is None:
            problems.append(f"no golden prices for {doc['claim']}")
        else:
            for key, value in expected.items():
                if abs(prices[key] - value) > GOLDEN_RTOL * abs(value):
                    problems.append(f"{key} {prices[key]!r} differs from golden {value!r}")
    return problems


def _check(children, workload, seed):
    """Check every priced child's reports; returns (attempted, failed, details)."""
    golden = _golden(workload, seed)
    attempted = failed = 0
    problems = []
    by_claim: dict[str, set] = {}
    prices = {}
    for child in children:
        if child.kind == "probe":
            if child.status != 0 or child.setup is None or child.result["errors"]:
                problems.append(f"probe failed: {child.result['errors']}")
            continue
        expected = CLAIMS_PER_CHILD[workload]
        attempted += expected
        result = child.result
        if child.status != 0 or result["errors"] or len(result["reports"]) != expected:
            failed += expected
            problems.append(f"child exited {child.status}: {result['errors']}")
            continue
        if child.kind == "traced" and not (result["tracer_self_test"] and result["tracer_restored"]
                                           and result["tracer_additive"]):
            problems.append("tracer check failed: " + json.dumps(
                {k: result[k] for k in ("tracer_self_test", "tracer_restored", "tracer_additive")}))
        for path in result["reports"]:
            with open(path, "rb") as fh:
                raw = fh.read()
            doc = json.loads(raw)
            by_claim.setdefault(doc["claim"], set()).add(raw)
            prices[doc["claim"]] = doc["prices"]
            found = _check_report(doc, result["wealth"], golden)
            if found:
                failed += 1
                problems.extend(f"{doc['claim']}: {p}" for p in found)
    compared = sum(c.kind != "probe" for c in children)
    identical = all(len(raws) == 1 for raws in by_claim.values())
    if not identical:
        # same workload, seed and thread count must give the same bytes
        failed += sum(len(raws) - 1 for raws in by_claim.values())
        problems.append("report bytes differ between children of one run")
    details = {
        "golden_checked": golden is not None,
        "determinism": {"children_compared": compared, "identical": identical},
        "prices": prices,
        "problems": problems,
    }
    return attempted, failed, details


def _end_to_end(children, attempted, failed) -> dict:
    full = [c for c in children if c.kind == "full" and c.result.get("report_walls")]
    walls = [w for c in full for w in c.result["report_walls"]]
    setups = [c.setup for c in children if c.setup is not None]
    if not walls or not setups:
        return {}
    return {
        "report_s": statistics.median(walls),
        "wall_s": statistics.median(c.wall for c in full),
        "setup_s": statistics.median(setups),
        "cpu_s": statistics.median(c.cpu for c in full),
        "peak_rss_mb": statistics.median(c.rss_mb for c in full),
        "ok_rate": (attempted - failed) / attempted,
    }


def _per_layer(children) -> dict:
    traced = [c for c in children if c.kind == "traced" and "layers" in c.result]
    untraced = [w for c in children if c.kind == "full" for w in c.result["report_walls"]]
    if not traced or not untraced:
        return {}
    out = {key: statistics.median(c.result["layers"][key] for c in traced)
           for key in traced[0].result["layers"]}
    first = traced[0].result
    out["env.blas_threads_numpy"] = first["blas_threads_numpy"]
    out["env.blas_threads_scipy"] = first["blas_threads_scipy"]
    out["env.nproc"] = first["nproc"]
    traced_walls = [w for c in traced for w in c.result["report_walls"]]
    out["trace.overhead_s"] = statistics.median(traced_walls) - statistics.median(untraced)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLAIMS_PER_CHILD))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help="qty_seed of the generated chain (desk-price has a fixed chain)")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "semistatic", "__init__.py")):
        print("error: run from the root of a checkout with src/semistatic", file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    os.makedirs(os.path.join(root, ".perfbench_run"), exist_ok=True)
    rundir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=os.path.join(root, ".perfbench_run"))
    try:
        children = _schedule(root, rundir, args.workload, args.seed, args.seconds, bool(args.trace))
        attempted, failed, details = _check(children, args.workload, args.seed)
        spans = os.path.join(rundir, "traced-1", "spans.json")
        if os.path.exists(spans):  # kept for inspection; later runs overwrite it
            shutil.copy(spans, os.path.join(root, ".perfbench_run", f"spans-{args.workload}.json"))
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    values = _per_layer(children) if args.trace else _end_to_end(children, attempted, failed)
    packages = {c.result.get("package") for c in children} - {None}
    outside = [p for p in packages if not p.startswith(os.path.join(root, "src") + os.sep)]
    if outside:
        details["problems"].append(f"package imported from outside the checkout: {outside}")
    if set(values) != set(units):
        details["problems"].append(f"metrics {sorted(set(units) ^ set(values))} missing or extra")
    first = next((c.result for c in children if "blas_threads_numpy" in c.result), {})
    details.update({
        "workload": args.workload,
        "seed": args.seed,
        "children": {kind: sum(c.kind == kind for c in children)
                     for kind in ("probe", "full", "traced")},
        "samples": {
            "report_s": [w for c in children if c.kind == "full"
                         for w in c.result.get("report_walls", ())],
            "setup_s": [c.setup for c in children if c.setup is not None],
        },
        "blas_threads": {k: first.get(k) for k in ("blas_threads_numpy", "blas_threads_scipy")},
        "nproc": first.get("nproc"),
        "openblas": first.get("openblas"),
        "versions": first.get("versions"),
    })
    correct = failed == 0 and not details["problems"]
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values.get(name, 0.0), "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
