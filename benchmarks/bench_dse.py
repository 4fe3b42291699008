"""Benchmark the repro.dse campaign engine: wall-clock + cache hit rate.

The fast smoke path (default) runs a 24-point memory campaign cold and
warm, asserting the warm-cache replay is >= 5x faster with identical
records, then measures **journal-append throughput and resume latency**
at 10^4 synthetic points — demonstrating the JSONL journal's O(1)
per-point appends against the legacy whole-file-rewrite (O(n) per
point, O(n^2) per campaign).  The slow path scales the campaign to the
216-point grid of ``examples/dse_campaign.py``.  Everything records a
JSON artefact under benchmarks/output/.

Runs two ways:

* under pytest (the benchmark fixtures), as part of the full suite;
* as a plain script for CI artefact capture — no pytest needed::

      PYTHONPATH=src python benchmarks/bench_dse.py --smoke
      PYTHONPATH=src python benchmarks/bench_dse.py --full
      PYTHONPATH=src python benchmarks/bench_dse.py --snapshot BENCH_dse.json

The ``--snapshot`` mode combines journal throughput, per-event
lease-fold cost (watermark vs whole-history replay), the analytics
report-build fold, the four-way executor comparison and the
scalar-vs-vector evaluator timing into one JSON document — ``BENCH_dse.json`` at the repo root is such a
snapshot, and ``benchmarks/compare_bench.py`` **gates CI** on it: a
>30% wrong-direction drift in any tracked metric fails the build
(``REPRO_BENCH_NO_GATE=1`` downgrades the gate to a report).

``REPRO_DSE_WORKERS`` bounds the worker pool in both modes (CI runners
set it to the vCPU count for deterministic pool sizes).
"""

import argparse
import json
import os
import statistics
import sys
import tempfile
import time

try:
    import pytest
except ImportError:  # script mode works without pytest installed
    pytest = None

sys.path.insert(0, os.path.dirname(__file__))
from artifacts import save_artifact  # noqa: E402

from repro.dse import (  # noqa: E402
    SELFTEST_TARGET,
    CampaignRunner,
    CampaignState,
    Job,
    JobResult,
    LeaseTable,
    NetworkExecutor,
    ParameterSpace,
    ProcessPoolExecutor,
    ResultCache,
    SerialExecutor,
    WorkerPullExecutor,
    WorkQueue,
    campaign_key,
    default_workers,
    explore_memory,
)
from repro.dse.executors import read_lease_events  # noqa: E402


def _campaign(space, cache_dir, **settings):
    cold = explore_memory(space, cache_dir=str(cache_dir), **settings)
    warm = explore_memory(space, cache_dir=str(cache_dir), **settings)
    return cold, warm


def smoke_space() -> ParameterSpace:
    """24 points: shape x word x reliability x node."""
    space = ParameterSpace()
    space.add("subarray_rows", [128, 256, 512])
    space.add("word_bits", [128, 256])
    space.add("wer_target", [1e-9, 1e-12])
    space.add("node_nm", [45, 65])
    return space


def full_space() -> ParameterSpace:
    """The 216-point grid of examples/dse_campaign.py."""
    space = ParameterSpace()
    space.add("subarray_rows", [128, 256, 512])
    space.add("subarray_cols", [128, 256, 512])
    space.add("word_bits", [128, 256])
    space.add("wer_target", [1e-9, 1e-12, 1e-15])
    space.add("max_ecc_bits", [2, 3])
    space.add("node_nm", [45, 65])
    return space


SMOKE_SETTINGS = dict(num_words=200, error_population=10_000)
FULL_SETTINGS = dict(num_words=400, error_population=30_000)

if pytest is not None:
    _slow = pytest.mark.slow
    # Every test in this module is a benchmark: ``pytest -m bench``
    # selects exactly these, ``-m "not bench"`` keeps the tiers lean.
    pytestmark = pytest.mark.bench
else:
    def _slow(fn):
        return fn


def _check_and_save(name, space, cold, warm):
    assert warm.cache_hits == len(warm.outcomes) - len(warm.errors())
    assert cold.records() == warm.records()
    speedup = cold.elapsed / max(warm.elapsed, 1e-9)
    assert speedup >= 5.0, "warm cache replay only %.1fx faster" % speedup
    summary = {
        "points": space.size,
        "cold_wall_s": cold.elapsed,
        "warm_wall_s": warm.elapsed,
        "warm_speedup": speedup,
        "warm_cache_hit_rate": warm.cache_stats["hit_rate"],
        "feasible": len(cold.records()),
        "errors": len(cold.errors()),
        "pareto_size": len(cold.pareto()),
    }
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


# -- journal throughput --------------------------------------------------


def _decile_medians(samples):
    """Median per-point seconds over the first and last 10% of samples."""
    window = max(1, len(samples) // 10)
    return statistics.median(samples[:window]), statistics.median(samples[-window:])


def _legacy_rewrite(path, payload):
    """The PR-2 journal write, reproduced byte-for-byte for comparison:
    re-dump the *entire* completed map atomically on every point."""
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def journal_bench(points=10_000, legacy_points=1_000):
    """Append-throughput + resume-latency comparison at synthetic scale.

    Returns a JSON-ready summary.  The key number is *flatness*: the
    ratio of the last-decile to first-decile median per-point journal
    time.  The JSONL journal stays near 1 (O(1) appends, compaction
    included); the legacy rewrite grows with the number of points
    already journaled.
    """
    key = campaign_key({"kind": "journal-bench", "points": points})
    jobs = [Job("bench-journal", {"i": i}) for i in range(points)]

    with tempfile.TemporaryDirectory(prefix="bench-journal-") as workdir:
        path = os.path.join(workdir, "journal.jsonl")
        state = CampaignState.open(path, key, total=points)
        jsonl_times = []
        for job in jobs:
            outcome = JobResult(job=job, ok=True, result=None, elapsed=1e-3)
            tick = time.perf_counter()
            state.record(outcome)
            jsonl_times.append(time.perf_counter() - tick)
        state.close()

        tick = time.perf_counter()
        resumed = CampaignState.load(path)
        resume_load_s = time.perf_counter() - tick
        assert resumed.done == points

        legacy = os.path.join(workdir, "checkpoint.json")
        completed = {}
        legacy_times = []
        for job in jobs[:legacy_points]:
            completed[job.key] = {"ok": True, "error": None, "elapsed": 1e-3}
            payload = {
                "version": 1, "campaign_key": key, "total": points,
                "meta": {}, "created": 0.0, "updated": 0.0,
                "completed": completed,
            }
            tick = time.perf_counter()
            _legacy_rewrite(legacy, payload)
            legacy_times.append(time.perf_counter() - tick)

    jsonl_first, jsonl_last = _decile_medians(jsonl_times)
    legacy_first, legacy_last = _decile_medians(legacy_times)
    return {
        "points": points,
        "jsonl_total_s": sum(jsonl_times),
        "jsonl_us_per_point_first_decile": jsonl_first * 1e6,
        "jsonl_us_per_point_last_decile": jsonl_last * 1e6,
        "jsonl_flatness": jsonl_last / jsonl_first,
        "resume_load_s": resume_load_s,
        "legacy_points": legacy_points,
        "legacy_total_s": sum(legacy_times),
        "legacy_us_per_point_first_decile": legacy_first * 1e6,
        "legacy_us_per_point_last_decile": legacy_last * 1e6,
        "legacy_growth": legacy_last / legacy_first,
        "jsonl_speedup_at_tail": legacy_last / jsonl_last,
    }


def _check_and_save_journal(name, summary):
    # Near-flat JSONL appends vs a legacy cost that grows with journal
    # size: generous bounds so CI noise cannot flake the assertion.
    assert summary["jsonl_flatness"] < 10.0, (
        "JSONL append cost grew %.1fx across the campaign"
        % summary["jsonl_flatness"]
    )
    assert summary["legacy_growth"] > summary["jsonl_flatness"]
    assert summary["legacy_growth"] > 3.0
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_journal_append_throughput(tmp_path):
    """Fast tier-1 path: O(1) appends visible even at reduced scale."""
    summary = journal_bench(points=2_000, legacy_points=400)
    _check_and_save_journal("dse_journal_bench.json", summary)


@_slow
def test_journal_append_throughput_full():
    """The 10^4-point scale of the acceptance criteria."""
    summary = journal_bench(points=10_000, legacy_points=1_000)
    _check_and_save_journal("dse_journal_bench.json", summary)
    assert summary["points"] >= 10_000


# -- lease-fold cost -----------------------------------------------------


def lease_fold_bench(events=10_000, legacy_folds=50):
    """Per-event lease-fold cost as a claim journal grows.

    After every appended claim event the coordinator re-folds the lease
    journals (it does this at least once per point).  The applied
    watermark makes that fold incremental — only the journal's new tail
    is parsed and applied — so per-event cost stays flat no matter how
    long the campaign has been running.  The legacy comparison replays
    the *whole* journal through :meth:`LeaseTable.replay` each time,
    which is the pre-watermark behaviour: O(journal length) per fold.
    """
    summary = {"events": events, "legacy_folds": legacy_folds}

    with tempfile.TemporaryDirectory(prefix="bench-fold-") as workdir:
        queue = WorkQueue(workdir)
        queue.ensure()
        path = queue.lease_path("bench")
        watermark_times = []
        with open(path, "a", encoding="utf-8") as journal:
            for i in range(events):
                journal.write(json.dumps({
                    "event": "claim", "task": "task-%d" % i,
                    "worker": "bench", "ttl": 3600.0,
                    "t": float(i), "seq": i,
                }) + "\n")
                journal.flush()
                tick = time.perf_counter()
                queue.lease_table()
                watermark_times.append(time.perf_counter() - tick)
        assert queue.fold_stats["full_refolds"] == 0, (
            "synthetic in-order tail triggered %d full refolds"
            % queue.fold_stats["full_refolds"]
        )
        assert queue.fold_stats["events_folded"] == events
        assert len(queue.lease_table().leases) == events

        # A fresh coordinator folding the whole history once (resume).
        cold = WorkQueue(workdir)
        tick = time.perf_counter()
        cold_table = cold.lease_table()
        summary["cold_fold_s"] = time.perf_counter() - tick
        assert len(cold_table.leases) == events

        legacy_times = []
        for _ in range(legacy_folds):
            tick = time.perf_counter()
            LeaseTable.replay(read_lease_events(path))
            legacy_times.append(time.perf_counter() - tick)

    first, last = _decile_medians(watermark_times)
    summary.update({
        "watermark_total_s": sum(watermark_times),
        "watermark_us_per_event_first_decile": first * 1e6,
        "watermark_us_per_event_last_decile": last * 1e6,
        "watermark_flatness": last / first,
        "full_refolds": 0,
    })
    # The legacy loop replays a fully grown journal, so instead of a
    # growth curve we report its (flat, large) per-fold cost against
    # the watermark's per-event cost at the same journal size.
    legacy_per_fold = statistics.median(legacy_times)
    summary.update({
        "legacy_s_per_fold": legacy_per_fold,
        "watermark_speedup_at_tail": legacy_per_fold / max(last, 1e-9),
    })
    return summary


def _check_and_save_lease_fold(name, summary):
    # Flat incremental folds (generous bound: CI noise must not flake
    # it) and a whole-history replay that is orders of magnitude more
    # expensive per fold at the same journal length.
    assert summary["watermark_flatness"] < 10.0, (
        "watermark fold cost grew %.1fx across the campaign"
        % summary["watermark_flatness"]
    )
    assert summary["full_refolds"] == 0
    assert summary["watermark_speedup_at_tail"] > 10.0, (
        "whole-history replay only %.1fx the incremental fold"
        % summary["watermark_speedup_at_tail"]
    )
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_lease_fold_flatness():
    """Fast tier-1 path: flat incremental folds at reduced scale."""
    summary = lease_fold_bench(events=2_000, legacy_folds=50)
    _check_and_save_lease_fold("dse_lease_fold_bench.json", summary)


@_slow
def test_lease_fold_flatness_full():
    """The 10^4-event scale of the acceptance criteria."""
    summary = lease_fold_bench(events=10_000, legacy_folds=50)
    _check_and_save_lease_fold("dse_lease_fold_bench.json", summary)
    assert summary["events"] >= 10_000


# -- analytics report build ----------------------------------------------


def analytics_bench(points=5_000, workers=2):
    """Wall-clock to fold a synthetic campaign into a CampaignReport.

    Synthesises a campaign directory the way a real run writes one —
    ``started`` + ``done`` journal events through ``CampaignState``
    (compaction disabled so the full event tail survives), one cache
    row per point feeding the Pareto join, and per-worker claim
    journals — then times one :func:`repro.dse.analytics.build_report`
    over it.  At ``points=5_000`` the journal holds 10^4+ events; the
    report must fold them (latency percentiles, worker utilization,
    rates, Pareto evolution) in under a second, or ``analyze`` stops
    being a thing you casually point at a live campaign.
    """
    from repro.dse.analytics import build_report

    summary = {"points": points, "workers": workers}
    with tempfile.TemporaryDirectory(prefix="bench-analytics-") as camp:
        key = campaign_key({"kind": "analytics-bench", "points": points})
        state = CampaignState.open(
            os.path.join(camp, "journal.jsonl"), key, total=points,
            meta={"kind": "selftest",
                  "objectives": [["lat", "min"], ["energy", "min"]]},
            compact_threshold=0,
        )
        cache = ResultCache(os.path.join(camp, "cache"))
        jobs = [Job("bench-analytics", {"i": i}) for i in range(points)]
        state.record_started([job.key for job in jobs])
        for i, job in enumerate(jobs):
            # Coarse pseudo-random objectives: plenty of front churn.
            cache.put(job.key, {
                "target": job.target,
                "spec": dict(job.spec),
                "result": {"lat": float((i * 37) % 101),
                           "energy": float((i * 53) % 97)},
                "elapsed": 1e-3,
            })
            state.record(JobResult(
                job=job, ok=True, result=None, elapsed=1e-3,
            ))
        state.close()

        leases_dir = os.path.join(camp, "work", "leases")
        os.makedirs(leases_dir)
        for w in range(workers):
            path = os.path.join(leases_dir, "w%d.jsonl" % w)
            with open(path, "w", encoding="utf-8") as journal:
                seq = 0
                for i in range(w, points, workers):
                    for offset, kind in ((0.0, "claim"), (0.5, "done")):
                        seq += 1
                        journal.write(json.dumps({
                            "event": kind, "task": "%s-0" % jobs[i].key,
                            "worker": "w%d" % w, "ttl": 60.0,
                            "t": float(i) + offset, "seq": seq,
                        }) + "\n")

        tick = time.perf_counter()
        report = build_report(camp)
        build_s = time.perf_counter() - tick

        assert report.events > 2 * points  # begin + started + done each
        assert report.status["done"] == points
        assert report.latency is not None
        assert report.latency["count"] == points
        assert len(report.workers) == workers
        assert report.pareto and report.pareto[-1].completed == points
        summary.update({
            "events": report.events,
            "cache_rows": points,
            "report_build_s": build_s,
            "events_per_s": report.events / max(build_s, 1e-9),
            "pareto_samples": len(report.pareto),
        })
    return summary


def _check_and_save_analytics(name, summary):
    # The read-side acceptance bar: a 10^4-event report folds in
    # well under a second (sub-linear headroom for CI noise).
    assert summary["report_build_s"] < 1.0, (
        "report build took %.2fs over %d events"
        % (summary["report_build_s"], summary["events"])
    )
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_analytics_report_build():
    """Fast tier-1 path: report fold at reduced event scale."""
    summary = analytics_bench(points=1_000)
    _check_and_save_analytics("dse_analytics_bench.json", summary)


@_slow
def test_analytics_report_build_full():
    """The 10^4-event scale of the acceptance criteria."""
    summary = analytics_bench(points=5_000)
    _check_and_save_analytics("dse_analytics_bench.json", summary)
    assert summary["events"] >= 10_000


# -- executor comparison -------------------------------------------------


def executor_bench(points=24, sleep_s=0.05, workers=2):
    """Serial vs pool vs worker-pull vs network wall-clock, same jobs.

    Synthetic sleeping points isolate the executors' dispatch overhead
    from Monte-Carlo noise: with evaluation cost pinned at ``sleep_s``,
    serial wall-clock is ~``points * sleep_s`` and any parallel backend
    divides it by its effective worker count (worker-pull and network
    additionally pay per-process startup once, plus filesystem polling
    or a TCP round-trip per point).
    """
    jobs = [
        Job(SELFTEST_TARGET, {"x": i, "sleep_s": sleep_s}) for i in range(points)
    ]
    summary = {"points": points, "sleep_s": sleep_s, "workers": workers}

    def timed(name, runner):
        tick = time.perf_counter()
        results = runner.run(jobs)
        wall = time.perf_counter() - tick
        assert all(r.ok for r in results), "executor %s failed a point" % name
        summary["%s_wall_s" % name] = wall
        return wall

    serial = timed("serial", CampaignRunner(workers=1, executor=SerialExecutor()))
    pool = timed(
        "pool", CampaignRunner(workers=workers,
                               executor=ProcessPoolExecutor(workers)),
    )
    with tempfile.TemporaryDirectory(prefix="bench-pull-") as campaign_dir:
        executor = WorkerPullExecutor(
            campaign_dir, spawn_workers=workers, lease_ttl=10.0, poll=0.01,
            timeout=300,
        )
        try:
            pull = timed(
                "worker_pull", CampaignRunner(workers=workers, executor=executor)
            )
        finally:
            executor.close()
    with tempfile.TemporaryDirectory(prefix="bench-net-") as campaign_dir:
        executor = NetworkExecutor(
            campaign_dir, spawn_workers=workers, lease_ttl=10.0, poll=0.01,
            timeout=300,
        )
        try:
            network = timed(
                "network", CampaignRunner(workers=workers, executor=executor)
            )
        finally:
            executor.close()
    summary["pool_speedup"] = serial / max(pool, 1e-9)
    summary["worker_pull_speedup"] = serial / max(pull, 1e-9)
    summary["network_speedup"] = serial / max(network, 1e-9)
    return summary


def _check_and_save_executors(name, summary):
    # Sanity only — worker-pull pays interpreter startup for its
    # spawned processes, so absolute speedups are hardware-dependent;
    # the artefact records them, the assertions guard correctness.
    import multiprocessing

    assert summary["serial_wall_s"] >= summary["points"] * summary["sleep_s"]
    # The pool-beats-serial claim only holds where pool startup is
    # cheap (fork) and the workload amortises it (>= 1 s serially);
    # under spawn (macOS/Windows) or at smoke scale it is recorded,
    # not asserted.
    baseline = summary["points"] * summary["sleep_s"]
    if multiprocessing.get_start_method() == "fork" and baseline >= 1.0:
        assert summary["pool_speedup"] > 1.0
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_executor_comparison():
    """Fast tier-1 path: all four executors agree and are measured."""
    summary = executor_bench(points=12, sleep_s=0.02)
    assert "network_wall_s" in summary
    _check_and_save_executors("dse_executor_bench.json", summary)


# -- evaluator fast path -------------------------------------------------


def evaluator_bench(points=4, scalar_points=2,
                    num_words=200, error_population=10_000):
    """Per-point wall-clock of the real memory evaluator, both paths.

    Times :func:`repro.dse.campaign.evaluate_memory_point` on the
    production VAET-STT evaluator with the vectorised kernels and again
    inside :func:`repro.vaet.reference.installed`, which swaps in the
    cell-at-a-time reference kernels.  The scalar side runs fewer
    points — it is the slow path by construction — and medians keep
    single-point noise out of the ratio.
    """
    from repro.dse.campaign import evaluate_memory_point
    from repro.nvsim import MemoryConfig
    from repro.vaet.explorer import DesignConstraints
    from repro.vaet.reference import installed

    def spec(seed):
        return {
            "node_nm": 45,
            "config": MemoryConfig().to_dict(),
            "constraints": DesignConstraints().to_dict(),
            "num_words": num_words,
            "error_population": error_population,
            "seed": seed,
        }

    def timed(count):
        times = []
        for k in range(count):
            tick = time.perf_counter()
            outcome = evaluate_memory_point(spec(2018 + k), 0)
            times.append(time.perf_counter() - tick)
            assert "feasible" in outcome
        return statistics.median(times)

    vector = timed(points)
    with installed():
        scalar = timed(scalar_points)
    return {
        "points": points,
        "scalar_points": scalar_points,
        "num_words": num_words,
        "error_population": error_population,
        "vector_s_per_point": vector,
        "scalar_s_per_point": scalar,
        "vector_speedup": scalar / max(vector, 1e-9),
    }


def _check_and_save_evaluator(name, summary):
    # The tentpole acceptance bar: the vectorised kernels must beat the
    # scalar reference by an order of magnitude on the real evaluator.
    # Measured ~50x on a dev box; 10x leaves headroom for CI noise.
    assert summary["vector_speedup"] >= 10.0, (
        "vector fast path only %.1fx the scalar reference"
        % summary["vector_speedup"]
    )
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_evaluator_fast_path():
    """Fast tier-1 path: vector evaluator >= 10x the scalar reference."""
    summary = evaluator_bench(points=3, scalar_points=2)
    _check_and_save_evaluator("dse_evaluator_bench.json", summary)


# -- chaos guard overhead ------------------------------------------------


def chaos_guard_bench(fires=200_000, evaluator_points=3):
    """Disabled-fault-plane guard cost against a real evaluation.

    Production campaigns pay the chaos hooks' disabled path on every
    seam crossing — one module-global read plus a ``None`` check (see
    :func:`repro.dse.chaos.fire`).  This times that guard directly,
    then expresses a whole point's worth of crossings (generously
    counted) as a percentage of one real memory-evaluator call.
    """
    from repro.dse import chaos
    from repro.dse.campaign import evaluate_memory_point
    from repro.nvsim import MemoryConfig
    from repro.vaet.explorer import DesignConstraints

    assert chaos.active() is None, "chaos must stay disabled in benchmarks"
    tick = time.perf_counter()
    for _ in range(fires):
        chaos.fire("evaluate", target="bench-guard", seed=0)
    guard_s = (time.perf_counter() - tick) / fires

    spec = {
        "node_nm": 45,
        "config": MemoryConfig().to_dict(),
        "constraints": DesignConstraints().to_dict(),
        "num_words": 100,
        "error_population": 5_000,
        "seed": 2018,
    }
    times = []
    for k in range(evaluator_points):
        tick = time.perf_counter()
        outcome = evaluate_memory_point(spec, k)
        times.append(time.perf_counter() - tick)
        assert "feasible" in outcome
    evaluator_s = statistics.median(times)

    # One point crosses the evaluate seam once and the persistence
    # seams (journal append/appended/atomic, cache.put, lease/queue)
    # a handful of times; 8 is a generous over-count.
    hooks_per_point = 8
    return {
        "fires": fires,
        "guard_ns_per_fire": guard_s * 1e9,
        "hooks_per_point": hooks_per_point,
        "evaluator_s_per_point": evaluator_s,
        "chaos_guard_overhead_pct":
            100.0 * guard_s * hooks_per_point / max(evaluator_s, 1e-9),
    }


def _check_and_save_chaos_guard(name, summary):
    # The robustness acceptance bar: a *disabled* fault plane must be
    # free — under 2% of one real evaluation even with every seam
    # crossing over-counted.
    assert summary["chaos_guard_overhead_pct"] < 2.0, (
        "disabled chaos guard costs %.3f%% of an evaluation"
        % summary["chaos_guard_overhead_pct"]
    )
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_chaos_guard_overhead():
    """Fast tier-1 path: the disabled fault plane costs <2% per point."""
    summary = chaos_guard_bench(fires=50_000)
    _check_and_save_chaos_guard("dse_chaos_guard_bench.json", summary)


# -- sampler budget efficiency -------------------------------------------

#: Toy objective for the sampler comparison: a discrete bowl on a
#: side x side grid with its optimum off-centre.  Points are encoded as
#: a single selftest ``x`` so every sampler's evaluations flow through
#: the real job/runner machinery.
SAMPLER_SIDE = 16
SAMPLER_OPTIMUM = (11, 3)
SAMPLER_TARGET = 1.0  # within one grid step of the optimum


def _sampler_score(px, py):
    dx, dy = px - SAMPLER_OPTIMUM[0], py - SAMPLER_OPTIMUM[1]
    return float(dx * dx + dy * dy)


def sampler_bench(batch=8, rounds=8, candidates=256, seed=0,
                  proposal_side=32, proposal_rounds=12):
    """Evaluations-to-target of every sampler, plus proposal throughput.

    All four samplers get the identical budget (``batch * rounds``
    points of the same bowl), scored through ``CampaignRunner`` on the
    selftest evaluator — so the comparison includes the job hashing and
    dispatch each sampler's points really pay.  Grid and LHS are the
    static baselines (scan order / one stratified draw); adaptive and
    surrogate are the model-driven samplers.  Every quantity is seeded
    and deterministic except the proposal throughput, which times the
    surrogate's model/rank loop on a free evaluator over a
    ``proposal_side``-squared space.
    """
    from repro.dse import AdaptiveSampler, SurrogateSampler, evaluations_to_target

    space = ParameterSpace()
    space.add("x", list(range(SAMPLER_SIDE)))
    space.add("y", list(range(SAMPLER_SIDE)))
    runner = CampaignRunner(workers=1)
    budget = batch * rounds

    def score_points(points):
        jobs = [
            Job(SELFTEST_TARGET, {"x": p["x"] * SAMPLER_SIDE + p["y"]})
            for p in points
        ]
        scores = []
        for outcome in runner.run(jobs):
            assert outcome.ok
            encoded = outcome.result["value"] // 2  # selftest returns 2*x
            px, py = divmod(encoded, SAMPLER_SIDE)
            scores.append(_sampler_score(px, py))
        return scores

    def static_evals(points):
        for spent, score in enumerate(score_points(points), start=1):
            if score <= SAMPLER_TARGET:
                return spent
        return None

    missed = budget + 1  # sentinel: target not reached within budget
    grid_evals = static_evals(list(space.grid())[:budget])
    lhs_evals = static_evals(space.sample(budget, seed=seed))
    adaptive_trace = AdaptiveSampler(
        space, batch=batch, rounds=rounds, seed=seed
    ).run(score_points)
    surrogate_trace = SurrogateSampler(
        space, batch=batch, rounds=rounds, candidates=candidates, seed=seed
    ).run(score_points)

    # Proposal throughput: a free evaluator isolates the model fit and
    # candidate ranking from evaluation cost.
    big = ParameterSpace()
    big.add("x", list(range(proposal_side)))
    big.add("y", list(range(proposal_side)))

    def free_evaluate(points):
        return [_sampler_score(p["x"], p["y"]) for p in points]

    proposer = SurrogateSampler(
        big, batch=16, rounds=proposal_rounds, candidates=1024, seed=seed
    )
    tick = time.perf_counter()
    proposal_trace = proposer.run(free_evaluate)
    proposal_wall = time.perf_counter() - tick

    return {
        "side": SAMPLER_SIDE,
        "budget": budget,
        "target": SAMPLER_TARGET,
        "grid_evals_to_target": grid_evals or missed,
        "lhs_evals_to_target": lhs_evals or missed,
        "adaptive_evals_to_target":
            evaluations_to_target(adaptive_trace, SAMPLER_TARGET) or missed,
        "surrogate_evals_to_target":
            evaluations_to_target(surrogate_trace, SAMPLER_TARGET) or missed,
        "surrogate_best_score": surrogate_trace.best_score,
        "proposal_points": proposal_trace.evaluations,
        "proposal_wall_s": proposal_wall,
        "proposals_per_s": proposal_trace.evaluations / max(proposal_wall, 1e-9),
    }


def _check_and_save_sampler(name, summary):
    # The tentpole acceptance bar: the surrogate reaches the target
    # band within budget, in fewer evaluations than blind LHS.
    assert summary["surrogate_evals_to_target"] <= summary["budget"]
    assert (
        summary["surrogate_evals_to_target"] < summary["lhs_evals_to_target"]
    ), "surrogate needed %d evaluations, LHS %d" % (
        summary["surrogate_evals_to_target"], summary["lhs_evals_to_target"]
    )
    save_artifact(name, json.dumps(summary, indent=2))
    return summary


def test_sampler_efficiency():
    """Fast tier-1 path: surrogate beats LHS to the target band."""
    summary = sampler_bench()
    _check_and_save_sampler("dse_sampler_bench.json", summary)


def test_dse_campaign_smoke(benchmark, tmp_path):
    """Fast tier-1 path: 24 points, reduced Monte Carlo effort."""
    space = smoke_space()
    assert space.size == 24

    def compute():
        return _campaign(space, tmp_path / "smoke", **SMOKE_SETTINGS)

    cold, warm = benchmark.pedantic(compute, rounds=1, iterations=1)
    _check_and_save("dse_campaign_smoke.json", space, cold, warm)


@_slow
def test_dse_campaign_full(benchmark, tmp_path):
    """The 200+-point campaign of the acceptance criteria."""
    space = full_space()
    assert space.size == 216

    def compute():
        return _campaign(space, tmp_path / "full", **FULL_SETTINGS)

    cold, warm = benchmark.pedantic(compute, rounds=1, iterations=1)
    summary = _check_and_save("dse_campaign_full.json", space, cold, warm)
    assert summary["points"] >= 200


def main(argv=None) -> int:
    """Script mode: run the smoke or full campaign, save the artefact."""
    parser = argparse.ArgumentParser(
        description="repro.dse campaign benchmark (JSON artefact capture)."
    )
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument(
        "--smoke", action="store_true",
        help="24-point campaign, reduced Monte Carlo effort (default)",
    )
    mode.add_argument(
        "--full", action="store_true", help="216-point campaign"
    )
    mode.add_argument(
        "--executors", action="store_true",
        help="executor comparison only (serial vs pool vs 2-worker "
             "worker-pull vs network wall-clock on synthetic points)",
    )
    mode.add_argument(
        "--evaluator", action="store_true",
        help="evaluator fast-path comparison only (vectorised vs "
             "repro.vaet.reference kernels, per-point wall-clock on "
             "the real memory evaluator)",
    )
    mode.add_argument(
        "--samplers", action="store_true",
        help="sampler comparison only (grid/LHS/adaptive/surrogate "
             "evaluations-to-target on the selftest bowl, plus "
             "surrogate proposal throughput)",
    )
    mode.add_argument(
        "--analytics", action="store_true",
        help="analytics report-build only (one build_report fold over "
             "a synthetic 10^4-event campaign directory)",
    )
    mode.add_argument(
        "--snapshot", metavar="PATH", nargs="?", const="BENCH_dse.json",
        help="write the combined perf snapshot (journal throughput, "
             "lease-fold cost, executor comparison, evaluator fast "
             "path, sampler efficiency) to PATH (default: "
             "BENCH_dse.json)",
    )
    args = parser.parse_args(argv)

    if args.samplers:
        print("samplers: grid vs LHS vs adaptive vs surrogate on the "
              "%dx%d selftest bowl" % (SAMPLER_SIDE, SAMPLER_SIDE))
        summary = _check_and_save_sampler(
            "dse_sampler_bench.json", sampler_bench()
        )
        print(json.dumps(summary, indent=2))
        return 0

    if args.analytics:
        print("analytics: one build_report fold over a synthetic "
              "10^4-event campaign directory")
        summary = _check_and_save_analytics(
            "dse_analytics_bench.json", analytics_bench(points=5_000)
        )
        print(json.dumps(summary, indent=2))
        return 0

    if args.evaluator:
        print("evaluator: vectorised vs scalar-reference per-point "
              "wall-clock on the real memory evaluator")
        summary = _check_and_save_evaluator(
            "dse_evaluator_bench.json",
            evaluator_bench(points=4, scalar_points=2),
        )
        print(json.dumps(summary, indent=2))
        return 0

    if args.executors:
        print("executors: 24 sleeping points, "
              "serial vs pool vs worker-pull vs network")
        summary = _check_and_save_executors(
            "dse_executor_bench.json",
            executor_bench(points=24, sleep_s=0.05, workers=2),
        )
        print(json.dumps(summary, indent=2))
        return 0

    if args.snapshot:
        print("snapshot: journal @ 10^4 points, lease fold @ 10^4 events, "
              "analytics report @ 10^4 events, executors on 24 sleeping "
              "points, evaluator fast path, sampler efficiency, chaos "
              "guard overhead")
        snapshot = {
            "analytics": _check_and_save_analytics(
                "dse_analytics_bench.json", analytics_bench(points=5_000)
            ),
            "sampler": _check_and_save_sampler(
                "dse_sampler_bench.json", sampler_bench()
            ),
            "journal": _check_and_save_journal(
                "dse_journal_bench.json",
                journal_bench(points=10_000, legacy_points=1_000),
            ),
            "lease_fold": _check_and_save_lease_fold(
                "dse_lease_fold_bench.json",
                lease_fold_bench(events=10_000, legacy_folds=50),
            ),
            "executors": _check_and_save_executors(
                "dse_executor_bench.json",
                executor_bench(points=24, sleep_s=0.05, workers=2),
            ),
            "evaluator": _check_and_save_evaluator(
                "dse_evaluator_bench.json",
                evaluator_bench(points=4, scalar_points=2),
            ),
            "chaos_guard": _check_and_save_chaos_guard(
                "dse_chaos_guard_bench.json", chaos_guard_bench()
            ),
        }
        with open(args.snapshot, "w", encoding="utf-8") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print("snapshot written to %s" % args.snapshot)
        return 0

    if args.full:
        name, space, settings = "dse_campaign_full.json", full_space(), FULL_SETTINGS
    else:
        name, space, settings = (
            "dse_campaign_smoke.json", smoke_space(), SMOKE_SETTINGS,
        )
    print(
        "campaign: %d points, %d worker(s) (%s)"
        % (
            space.size,
            default_workers(),
            "REPRO_DSE_WORKERS" if os.environ.get("REPRO_DSE_WORKERS")
            else "cpu count",
        )
    )
    with tempfile.TemporaryDirectory(prefix="bench-dse-") as cache_dir:
        cold, warm = _campaign(space, cache_dir, **settings)
    summary = _check_and_save(name, space, cold, warm)
    print(json.dumps(summary, indent=2))

    print("journal: %d synthetic points (JSONL) vs %d (legacy rewrite)"
          % (10_000, 1_000))
    journal_summary = _check_and_save_journal(
        "dse_journal_bench.json",
        journal_bench(points=10_000, legacy_points=1_000),
    )
    print(json.dumps(journal_summary, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
