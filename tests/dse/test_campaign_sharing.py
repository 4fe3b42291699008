"""Sibling sharing: constraint variants of one organisation share state.

Inside a run, memory points that differ only in their reliability
constraints evaluate against one :class:`~repro.vaet.estimator.VAETSTT`
kept in the run's :class:`~repro.dse.runner.EvaluationSession`.  These
tests pin that sharing never changes a result, that it happens once per
organisation per run, and that it stays inside the run that made it.
"""

import threading
from collections import OrderedDict

import pytest

from repro.dse import (
    NetworkExecutor,
    ParameterSpace,
    explore_memory,
    run_memory_campaign,
    run_network_worker,
)
from repro.dse.executors import (
    ProcessPoolExecutor,
    SerialExecutor,
    WorkQueue,
    run_worker,
)
from repro.dse.jobs import Job
from repro.dse.campaign import (
    SHARED_TOOL_WINDOW,
    _session_tool,
    evaluate_memory_batch,
    evaluate_memory_point,
)
from repro.dse.runner import (
    EvaluationSession,
    current_session,
    register_target,
)
from repro.nvsim.config import MemoryConfig
from repro.pdk.kit import ProcessDesignKit
from repro.vaet import ecc
from repro.vaet.error_rates import ErrorRateAnalysis
from repro.vaet.estimator import VAETSTT
from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer
from repro.vaet.variation_model import SCALAR_REFERENCE_ENV

SETTINGS = dict(num_words=60, error_population=2000)


def _space():
    """2 organisations x 2 nodes x 4 constraint variants (16 points)."""
    return (
        ParameterSpace()
        .add("subarray_rows", [128, 256])
        .add("wer_target", [1e-9, 1e-12])
        .add("max_ecc_bits", [1, 2])
        .add("node_nm", [45, 65])
    )


def _spec(rows=256, node=45, seed=2018, **constraints):
    return {
        "node_nm": node,
        "config": MemoryConfig(word_bits=16, subarray_rows=rows).to_dict(),
        "constraints": DesignConstraints(**constraints).to_dict(),
        "num_words": 60,
        "error_population": 2000,
        "seed": seed,
    }


@pytest.fixture
def constructions(monkeypatch):
    """Count VAETSTT constructions, by organisation."""
    built = []
    original = VAETSTT.__init__

    def counting(self, pdk, config, *args, **kwargs):
        built.append(config)
        original(self, pdk, config, *args, **kwargs)

    monkeypatch.setattr(VAETSTT, "__init__", counting)
    return built


@pytest.fixture
def budget_solves(monkeypatch):
    """Count per-bit WER budget solves, by argument."""
    solved = []
    original = ecc.per_bit_budget

    def counting(*args):
        solved.append(args)
        return original(*args)

    monkeypatch.setattr(ecc, "per_bit_budget", counting)
    return solved


def _bare(result):
    """Bare per-job evaluation of every job of a campaign result."""
    return [evaluate_memory_point(job.spec, job.seed) for job in result.jobs]


class TestSharedResultsAreExact:
    def test_serial_campaign_equals_bare_calls(self, tmp_path):
        result = run_memory_campaign(
            _space(), str(tmp_path / "camp"), workers=1, **SETTINGS
        )
        assert all(outcome.ok for outcome in result.outcomes)
        assert [o.result for o in result.outcomes] == _bare(result)

    def test_content_seeded_campaign_equals_bare_calls(self):
        # seed=None: each point's Monte Carlo seed is its content seed,
        # so no two points share an organisation key at all.
        result = explore_memory(_space(), seed=None, workers=1, **SETTINGS)
        assert [o.result for o in result.outcomes] == _bare(result)

    def test_pool_campaign_equals_bare_calls(self):
        result = explore_memory(_space(), workers=2, **SETTINGS)
        assert [o.result for o in result.outcomes] == _bare(result)

    def test_batched_campaign_equals_bare_calls(self):
        result = explore_memory(_space(), workers=1, batch_size=4, **SETTINGS)
        assert [o.result for o in result.outcomes] == _bare(result)

    def test_deadline_child_equals_bare_calls(self):
        # Reaped points run in a forked child: nothing the child builds
        # reaches the parent's session, and nothing changes.
        space = ParameterSpace().add("wer_target", [1e-9, 1e-12])
        result = explore_memory(space, workers=1, deadline=120, **SETTINGS)
        assert [o.result for o in result.outcomes] == _bare(result)

    def test_batch_twin_called_bare_equals_pointwise(self):
        specs = [_spec(wer_target=1e-9), _spec(wer_target=1e-12)]
        outcomes = evaluate_memory_batch(specs, [0, 0])
        assert [o[1] for o in outcomes] == [
            evaluate_memory_point(spec, 0) for spec in specs
        ]


class TestSharingScope:
    def test_one_construction_per_organisation(self, tmp_path, constructions):
        run_memory_campaign(
            _space(), str(tmp_path / "camp"), workers=1, **SETTINGS
        )
        # 2 subarray heights x 2 nodes; 4 constraint variants each.
        assert len(constructions) == 4

    def test_second_campaign_constructs_again(self, tmp_path, constructions):
        for name in ("first", "second"):
            run_memory_campaign(
                _space(), str(tmp_path / name), workers=1, **SETTINGS
            )
        assert len(constructions) == 8

    def test_bare_calls_never_share(self, constructions):
        assert current_session() is None
        spec = _spec()
        first = evaluate_memory_point(spec, 0)
        assert evaluate_memory_point(spec, 0) == first
        assert len(constructions) == 2

    def test_session_is_current_only_while_evaluating(self, tmp_path):
        seen = []
        run_memory_campaign(
            ParameterSpace().add("wer_target", [1e-9, 1e-12]),
            str(tmp_path / "camp"), workers=1,
            progress=lambda progress: seen.append(current_session()),
            **SETTINGS,
        )
        assert seen == [None, None]
        assert current_session() is None

    def test_lru_window_bounds_kept_organisations(self, constructions):
        session = EvaluationSession()
        rows = [64, 128, 256, 512]
        with session.active():
            for row in rows:
                evaluate_memory_point(_spec(rows=row), 0)
            tools = session.memo("vaet-tools", OrderedDict)
            assert len(tools) == SHARED_TOOL_WINDOW
            # The newest organisations are kept; the oldest were evicted
            # and rebuild on their next visit.
            evaluate_memory_point(_spec(rows=rows[-1]), 0)
            assert len(constructions) == len(rows)
            evaluate_memory_point(_spec(rows=rows[0]), 0)
            assert len(constructions) == len(rows) + 1
            assert len(tools) == SHARED_TOOL_WINDOW

    def test_key_separates_seed_population_and_kernels(self, monkeypatch):
        session = EvaluationSession()
        config = MemoryConfig(word_bits=16)
        monkeypatch.setattr(
            "repro.dse.campaign.SHARED_TOOL_WINDOW", 8, raising=True
        )
        base = _session_tool(session, 45, config, 1, 2000)
        assert _session_tool(session, 45, config, 1, 2000) is base
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        assert _session_tool(session, 45, config, 1, 2000) is not base
        monkeypatch.delenv(SCALAR_REFERENCE_ENV)
        others = [
            _session_tool(session, 65, config, 1, 2000),
            _session_tool(session, 45, config, 2, 2000),
            _session_tool(session, 45, config, 1, 3000),
            _session_tool(
                session, 45, MemoryConfig(word_bits=32), 1, 2000
            ),
        ]
        assert all(other is not base for other in others)


class TestToolContract:
    def test_mismatched_tool_is_refused(self):
        pdk = ProcessDesignKit.for_node(45)
        config = MemoryConfig(word_bits=16)
        tool = VAETSTT(pdk, config, seed=1, error_population=2000)
        explorer = DesignSpaceExplorer(
            pdk, config, num_words=60, error_population=2000
        )
        with pytest.raises(ValueError):
            explorer.evaluate(config, seed=2, tool=tool)
        with pytest.raises(ValueError):
            explorer.evaluate(MemoryConfig(word_bits=32), seed=1, tool=tool)

    def test_solves_are_memoised_on_the_tool(self, monkeypatch):
        solves = []
        original = ErrorRateAnalysis.read_margin

        def counting(self, rer_target):
            solves.append(rer_target)
            return original(self, rer_target)

        monkeypatch.setattr(ErrorRateAnalysis, "read_margin", counting)
        tool = VAETSTT(
            ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16),
            error_population=2000,
        )
        # An unreachable target raises on every call, solved once.
        for _ in range(2):
            with pytest.raises(ValueError):
                tool.read_margin(1.5)
        assert tool.read_margin(1e-9) is tool.read_margin(1e-9)
        assert solves == [1.5, 1e-9]
        assert tool.ecc_point(0, 1e-12) is tool.ecc_point(0, 1e-12)
        assert tool.estimate(60) is tool.estimate(60)

    def test_memo_keys_the_kernel_choice(self, monkeypatch):
        tool = VAETSTT(
            ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16),
            error_population=2000,
        )
        fast = tool.read_margin(1e-9)
        monkeypatch.setenv(SCALAR_REFERENCE_ENV, "1")
        assert tool.read_margin(1e-9) is not fast


class TestBudgetSolves:
    def test_solved_once_per_argument_per_run(
        self, tmp_path, budget_solves
    ):
        run_memory_campaign(
            _space(), str(tmp_path / "camp"), workers=1, **SETTINGS
        )
        assert budget_solves
        assert len(budget_solves) == len(set(budget_solves))

    def test_no_solve_survives_the_run(
        self, tmp_path, budget_solves, monkeypatch
    ):
        # Count the work inside each solve too, so a memo below
        # per_bit_budget that outlives the run would show.
        probes = []
        original = ecc.block_failure_probability

        def counting(*args):
            probes.append(args)
            return original(*args)

        monkeypatch.setattr(ecc, "block_failure_probability", counting)
        run_memory_campaign(
            _space(), str(tmp_path / "first"), workers=1, **SETTINGS
        )
        first, first_probes = list(budget_solves), list(probes)
        run_memory_campaign(
            _space(), str(tmp_path / "second"), workers=1, **SETTINGS
        )
        assert budget_solves == first + first
        assert first_probes and probes == first_probes + first_probes

    def test_bare_calls_solve_from_scratch(self, budget_solves):
        spec = _spec(max_ecc_bits=1)
        evaluate_memory_point(spec, 0)
        first = list(budget_solves)
        evaluate_memory_point(spec, 0)
        assert first and budget_solves == first + first


PROBE = "test-session-probe"


def _probe(spec, seed):
    """Reports the session the evaluation ran in (None outside one)."""
    session = current_session()
    return {"session": None if session is None else id(session)}


register_target(PROBE, _probe)


def _probe_jobs(count=3):
    return [Job(PROBE, {"k": k}) for k in range(count)]


class TestEveryExecutorEvaluatesInASession:
    def test_serial_imap_shares_one_session(self):
        sessions = {
            outcome[1]["session"]
            for _, outcome in SerialExecutor().imap(_probe_jobs())
        }
        assert len(sessions) == 1 and None not in sessions

    def test_pool_workers_open_a_session(self):
        outcomes = list(ProcessPoolExecutor(workers=2).imap(_probe_jobs()))
        assert all(outcome[1]["session"] is not None for _, outcome in outcomes)

    def test_pull_worker_shares_one_session(self, tmp_path):
        queue = WorkQueue(str(tmp_path))
        queue.ensure()
        tids = [queue.publish(job) for job in _probe_jobs()]
        assert run_worker(str(tmp_path), once=True) == len(tids)
        sessions = {queue.read_result(tid)[1]["session"] for tid in tids}
        assert len(sessions) == 1 and None not in sessions
        assert current_session() is None

    def test_network_worker_shares_one_session(self, tmp_path):
        executor = NetworkExecutor(
            str(tmp_path / "camp"), poll=0.01, timeout=60
        )
        worker = threading.Thread(
            target=run_network_worker,
            args=(executor.address,),
            kwargs=dict(worker_id="probe", poll=0.01),
            daemon=True,
        )
        worker.start()
        try:
            outcomes = list(executor.imap(_probe_jobs()))
        finally:
            executor.close()
            worker.join(timeout=15)
        assert not worker.is_alive()
        sessions = {outcome[1]["session"] for _, outcome in outcomes}
        assert len(sessions) == 1 and None not in sessions
