"""Benchmark of the repro cross-layer flow: one workload per invocation.

Usage (from the repository root)::

    python3 perfbench/run.py --workload memory-mc --seed 1 --seconds 15 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with tracing
off: set-up time over fresh processes, then units of the workload until
``--seconds`` of measured time have passed.  With ``--trace 1`` it runs
the same untraced phase, then a fixed number of traced units, each
after an untraced twin, and reports the per-layer metrics and the
tracing overhead.  Every unit's
outputs are checked, and a digest of the simulated outputs is printed;
it is identical for one seed across runs and between the traced and
untraced phases.  All times are host time.  The last line of standard
output is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Where unit directories live: one fixed path inside the checkout.
WORK = os.path.join(ROOT, ".perfbench_work")
#: Fresh processes timed from start to ready for ``setup_s``.
SETUP_PROBES = 3
#: Units each run measures at least, and traced units of a traced run
#: (at least one per distinct unit input).
MIN_UNITS = 3
TRACED_UNITS = 2

with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    BENCHMARK = json.load(_handle)
#: Name -> unit of the metrics each kind of run reports.
UNITS = {
    kind: {metric["name"]: metric["unit"] for metric in BENCHMARK[kind]}
    for kind in ("end_to_end", "per_layer")
}
with open(os.path.join(HERE, "metrics.json")) as _handle:
    CATALOGUE = json.load(_handle)


def fail(message: str) -> None:
    """Abort without a result line."""
    print("perfbench: %s" % message, file=sys.stderr)
    sys.exit(2)


def load_workloads():
    if not os.path.isdir(os.path.join(SRC, "repro")):
        fail("no repro package under %s" % SRC)
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import workloads

    return workloads


def probe_setup(workload: str, seed: int) -> None:
    """Child side of a set-up sample: import, warm up, say ready."""
    module = load_workloads()
    bench = module.WORKLOADS[workload](seed, os.path.join(WORK, "probe"))
    bench.warm_up()
    print("ready", flush=True)


def setup_samples(workload: str, seed: int) -> list:
    """Process start -> ready, timed from the parent, once per probe."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--probe-setup",
             "--workload", workload, "--seed", str(seed)],
            stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        if line.strip() != "ready" or code != 0:
            fail("set-up probe failed (exit %s)" % code)
        samples.append(ready - start)
    return samples


def check_catalogue() -> None:
    """Fail when metrics.json and BENCHMARK.json name different things."""
    layers = {name for group in CATALOGUE["layers"] for name in group["metrics"]}
    for what, ours, theirs in (
        ("workloads", set(CATALOGUE["workload_units"]),
         {workload["name"] for workload in BENCHMARK["workloads"]}),
        ("end-to-end metrics", set(CATALOGUE["end_to_end"]),
         set(UNITS["end_to_end"])),
        ("per-layer metrics", layers, set(UNITS["per_layer"])),
    ):
        if ours != theirs:
            fail("%s of metrics.json and BENCHMARK.json differ: %s"
                 % (what, sorted(ours ^ theirs)))


def run_unit(bench, index: int):
    """One unit, started from a collected heap so that the collector
    runs at the same points in every unit."""
    gc.collect()
    return bench.run_unit(index)


def run_units(bench, seconds: float) -> list:
    """Units until ``seconds`` of measured time.

    A run covers every distinct unit input at least once.
    """
    units = []
    measured = 0.0
    minimum = max(MIN_UNITS, bench.period)
    while len(units) < minimum or measured < seconds:
        unit = run_unit(bench, len(units))
        units.append(unit)
        measured += unit.measured
    return units


def digest(units, period: int) -> str:
    """Hash of the simulated outputs of every distinct unit input."""
    text = json.dumps([unit.rows for unit in units[:period]],
                      separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def check(units, reference, label: str) -> list:
    """Unit problems, and outputs that differ from ``reference``'s."""
    problems = []
    period = len(reference)
    for index, unit in enumerate(units):
        problems += ["%s unit %d: %s" % (label, index, p) for p in unit.problems]
        if unit.rows != reference[index % period].rows:
            problems.append("%s unit %d: outputs differ from untraced unit %d"
                            % (label, index, index % period))
    return problems


def intervals(units) -> list:
    return [
        later - earlier
        for unit in units
        for earlier, later in zip(unit.completions, unit.completions[1:])
    ]


def marginal_ms(units) -> float:
    """Median over units of (campaign return - first completion) per point."""
    return 1e3 * statistics.median(
        (u.campaign_end - u.completions[0]) / (len(u.completions) - 1)
        for u in units
    )


def end_to_end(units, setup: list) -> dict:
    """The gated metrics of an untraced run.

    The timings are means over the whole run, not medians: the host
    switches between two speeds 1.5-1.8x apart for seconds at a time,
    and a median snaps to whichever speed held most units, while a
    mean weighs both by the time they held.
    """
    attempted = sum(unit.attempted for unit in units)
    failed = sum(unit.failed for unit in units)
    values = {
        "setup_s": statistics.median(setup),
        "points_per_s": sum(len(u.completions) for u in units)
        / sum(u.wall for u in units),
        "fixed_s": statistics.fmean(u.completions[0] - u.start for u in units),
        "readback_s": statistics.fmean(unit.readback_s for unit in units),
        "ok_ratio": (attempted - failed) / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return values


def per_layer(workload, tracer_spans, worker_spans, traced, paired) -> tuple:
    """Per-layer metrics of the traced units, and problems found.

    ``paired[i]`` is the untraced twin run just before ``traced[i]``.
    """
    from tracing import self_times

    stats = {}
    durations = {}
    ops = {}
    hellos = []
    for spans in [tracer_spans] + worker_spans:
        selfs = self_times(spans)
        for span in spans:
            span_id, name, start, end, _, _, value = span
            entry = stats.setdefault(name, [0, 0.0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += selfs[span_id]
            entry[2] += end - start
            if isinstance(value, (int, float)):
                entry[3] += value
            durations.setdefault(name, []).append(end - start)
            if name == "dse.net.handle_message":
                ops[value] = ops.get(value, 0) + 1
                if value == "hello":
                    hellos.append(start)

    def calls(name):
        return stats.get(name, [0])[0]

    def self_s(name):
        return stats.get(name, [0, 0.0])[1]

    def total_s(name):
        return stats.get(name, [0, 0.0, 0.0])[2]

    def value(name):
        return stats.get(name, [0, 0.0, 0.0, 0.0])[3]

    def ratio(numerator, denominator):
        return numerator / denominator if denominator else 0.0

    points = sum(len(unit.completions) for unit in traced)
    ready = [
        min(t for t in hellos if unit.start <= t <= unit.end) - unit.start
        for unit in traced
        if any(unit.start <= t <= unit.end for t in hellos)
    ]
    def cost(units):
        return sum(unit.measured for unit in units)

    metrics = {
        "trace.overhead_pct": 100.0 * (cost(traced) / cost(paired) - 1.0),
        "vaet.ecc_point.useful_ratio": ratio(value("vaet.explore"),
                                             calls("vaet.ecc_point")),
        "core.llg_run.us_per_step": 1e6 * ratio(self_s("core.llg_run"),
                                                value("core.llg_run")),
        "core.llg_run_batch.us_per_row_step": 1e6 * ratio(
            self_s("core.llg_run_batch"), value("core.llg_run_batch")),
        "spice.transient.us_per_step": 1e6 * ratio(
            self_s("spice.transient"), value("spice.transient")),
        "cells.characterize.ms_per_cell": 1e3 * ratio(
            total_s("cells.characterize"), calls("cells.characterize")),
        "dse.runner.self_ms_per_point": 1e3 * ratio(self_s("dse.campaign"),
                                                    points),
        "dse.cache.hit_ratio": ratio(value("dse.cache_get"),
                                     calls("dse.cache_get")),
        "dse.analytics.build_report_ms": 1e3 * ratio(
            total_s("dse.analytics.build_report"),
            calls("dse.analytics.build_report")),
        "dse.net.worker_ready_s": statistics.median(ready) if ready else 0.0,
        "dse.executor.wait_ms_per_point": 1e3 * ratio(
            total_s("dse.executor.wait"), points),
        "dse.net.round_trip_us": 1e6 * statistics.median(
            durations["dse.net.request"]) if "dse.net.request" in durations
        else 0.0,
        "dse.net.leases_per_result": ratio(ops.get("lease", 0),
                                           ops.get("result", 0)),
    }
    problems = []
    for group in CATALOGUE["layers"]:
        for name, span in group["metrics"].items():
            if name not in metrics:
                suffix = name[len(span) + 1:]
                if suffix == "calls":
                    metrics[name] = calls(span)
                elif suffix == "self_ms":
                    metrics[name] = 1e3 * self_s(span)
                elif suffix == "us_per_call":
                    metrics[name] = 1e6 * ratio(self_s(span), calls(span))
                else:
                    raise KeyError("no rule for per-layer metric %s" % name)
            if span and workload in group["calls_on"] and not calls(span):
                problems.append("traced run: %s has no calls (metric %s)"
                                % (span, name))
    return metrics, problems


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in BENCHMARK["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args()
    check_catalogue()
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return

    # A terminated run still stops its worker processes and cleans up.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    module = load_workloads()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(WORK, ignore_errors=True)
    try:
        setup = [] if args.trace else setup_samples(args.workload, args.seed)
        bench = module.WORKLOADS[args.workload](args.seed, workdir)
        bench.warm_up()
        bench.prepare()
        units = run_units(bench, args.seconds)
        reference = units[:bench.period]
        problems = check(units, reference, "untraced")
        print("digest %s seed=%d %s"
              % (args.workload, args.seed, digest(units, bench.period)))
        if args.trace:
            from tracing import PATCHES, Tracer, load_spans

            tracer = Tracer()
            bench.span_dir = os.path.join(workdir, "spans")
            os.makedirs(bench.span_dir)
            # Traced units alternate with untraced twins of the same
            # inputs, so machine drift cancels out of the overhead.
            traced, paired = [], []
            for index in range(max(TRACED_UNITS, bench.period)):
                paired.append(run_unit(bench, index))
                bench.tracer = tracer
                tracer.install(PATCHES)
                try:
                    traced.append(run_unit(bench, index))
                finally:
                    tracer.uninstall()
                    bench.tracer = None
            problems += check(paired + traced, reference, "traced phase")
            worker_spans = [
                load_spans(os.path.join(bench.span_dir, name))
                for name in sorted(os.listdir(bench.span_dir))
            ]
            metrics, layer_problems = per_layer(
                args.workload, tracer.spans, worker_spans, traced, paired
            )
            problems += layer_problems
            kind = "per_layer"
            measured = units + paired + traced
        else:
            metrics = end_to_end(units, setup)
            kind = "end_to_end"
            measured = units
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    for index, unit in enumerate(units):
        print("unit %d: wall %.4f s, first %.4f s, last %.4f s, end %.4f s,"
              " readback %.4f s (mean of %d), %d points"
              % (index, unit.wall, unit.completions[0] - unit.start,
                 unit.completions[-1] - unit.start,
                 unit.campaign_end - unit.start, unit.readback_s,
                 len(unit.readbacks), len(unit.completions)))
    gaps = intervals(units)
    print("units %d, points %d, completion intervals %d (p90 has %d beyond)"
          % (len(units), sum(len(u.completions) for u in units), len(gaps),
             len(gaps) - int(0.9 * len(gaps))))
    for name, value in (
        ("point_ms_p50", 1e3 * statistics.median(gaps)),
        ("point_ms_p90", 1e3 * statistics.quantiles(gaps, n=10)[8]),
        ("marginal_ms_per_point", marginal_ms(units)),
    ):
        print("%-40s %14.6g ms (not gated)" % (name, value))
    for problem in problems:
        print("CHECK FAILED: %s" % problem)
    result = {}
    for name, unit in UNITS[kind].items():
        result[name] = {"value": metrics[name], "unit": unit}
        print("%-40s %14.6g %s" % (name, metrics[name], unit))
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(unit.attempted for unit in measured),
        "failed": sum(unit.failed for unit in measured),
        "metrics": result,
    }))


if __name__ == "__main__":
    main()
