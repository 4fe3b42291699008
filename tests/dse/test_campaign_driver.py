"""The one campaign driver behind the four campaign entry points.

Pins the campaign keys existing journals were written under (so they
stay resumable), the options the merged entry points reject, and the
system-campaign options (retry, batching, model samplers with a
journal) that reach MAGPIE cells through the same loop as memory
points.
"""

import json
import os
import threading

import pytest

from repro.dse import (
    SYSTEM_TARGET,
    CampaignState,
    Job,
    ParameterSpace,
    RetryPolicy,
    explore_memory,
    explore_system,
    run_memory_campaign,
    run_system_campaign,
)
from repro.dse import runner as runner_module
from repro.dse.__main__ import load_spec, main
from repro.dse.campaign import evaluate_system_point
from repro.dse.checkpoint import JOURNAL_NAME
from repro.magpie.scenarios import Scenario

SETTINGS = dict(num_words=200, error_population=10_000, workers=1)
SYSTEM_GRID = dict(
    workloads=["bodytrack"], scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT]
)


def _space():
    return ParameterSpace().add("subarray_rows", [128, 256]).add(
        "wer_target", [1e-9, 1e-12]
    )


def _journal_key(campaign_dir) -> str:
    return CampaignState.load(os.path.join(str(campaign_dir), JOURNAL_NAME)).key


class TestCampaignKeysPinned:
    """Keys measured on journals written before the entry points merged."""

    def test_memory_grid(self, tmp_path):
        run_memory_campaign(_space(), str(tmp_path), **SETTINGS)
        assert _journal_key(tmp_path) == (
            "a28b511f638b69bd666165c54d95032d304e7fc7572a0c5ed6c0b80ffda2ee98"
        )

    def test_memory_ladder(self, tmp_path):
        run_memory_campaign(_space(), str(tmp_path), fidelity="ladder", **SETTINGS)
        assert _journal_key(tmp_path) == (
            "4303cb879c6d464e2d28e12d227dae9553898f30285c2637ab6818823d41c308"
        )

    def test_memory_adaptive(self, tmp_path):
        run_memory_campaign(
            _space(), str(tmp_path), sampler="adaptive",
            sampler_options=dict(batch=2, rounds=1, seed=0), **SETTINGS,
        )
        assert _journal_key(tmp_path) == (
            "ba9f1071cbbcc664fa7cdb6fd512c09df6ac3bd562e7cad9cf48b1c32f8fa2bf"
        )

    def test_system_grid(self, tmp_path):
        run_system_campaign(str(tmp_path), workers=1, **SYSTEM_GRID)
        assert _journal_key(tmp_path) == (
            "47018262588ca0e57740fab220016c2640b15889dadc1e8835ca521843f0599a"
        )

    def test_system_model_sampler_keys_differ_from_grid(self, tmp_path):
        run_system_campaign(
            str(tmp_path), workers=1, sampler="adaptive",
            sampler_options=dict(batch=1, rounds=1, seed=0), **SYSTEM_GRID,
        )
        assert _journal_key(tmp_path) != (
            "47018262588ca0e57740fab220016c2640b15889dadc1e8835ca521843f0599a"
        )


class TestMergedOptionsRejected:
    """Options one entry point accepts and another makes meaningless."""

    @pytest.mark.parametrize("fidelity", ["low", "ladder"])
    def test_system_fidelity(self, tmp_path, fidelity):
        with pytest.raises(ValueError, match="memory campaigns only"):
            explore_system(fidelity=fidelity, **SYSTEM_GRID)
        with pytest.raises(ValueError, match="memory campaigns only"):
            run_system_campaign(str(tmp_path), fidelity=fidelity, **SYSTEM_GRID)
        assert os.listdir(str(tmp_path)) == []

    @pytest.mark.parametrize(
        "option", [dict(resume=True), dict(retry_failed=True), dict(workers_dirs=["x"])]
    )
    def test_journal_options_need_a_campaign_dir(self, option):
        with pytest.raises(ValueError, match="need a campaign_dir"):
            explore_memory(_space(), **option, **SETTINGS)
        with pytest.raises(ValueError, match="need a campaign_dir"):
            explore_system(**option, **SYSTEM_GRID)

    def test_system_samples(self):
        with pytest.raises(ValueError, match="memory campaigns only"):
            explore_system(samples=1, **SYSTEM_GRID)

    def test_cache_dir_with_campaign_dir(self, tmp_path):
        campaign_dir = str(tmp_path / "campaign")
        cache_dir = str(tmp_path / "cache")
        with pytest.raises(ValueError, match="cache_dir"):
            run_memory_campaign(
                _space(), campaign_dir, cache_dir=cache_dir, **SETTINGS
            )
        with pytest.raises(ValueError, match="cache_dir"):
            run_system_campaign(campaign_dir, cache_dir=cache_dir, **SYSTEM_GRID)
        assert os.listdir(str(tmp_path)) == []


class TestExecutorReleasedOnBadOptions:
    def test_named_executor_closed_when_runner_rejects_options(self, tmp_path):
        before = threading.active_count()
        with pytest.raises(ValueError, match="batch_size"):
            run_memory_campaign(
                _space(), str(tmp_path), executor="network", batch_size=-1,
                **SETTINGS,
            )
        assert threading.active_count() == before  # no server thread left


class SystemCalls:
    """Content keys of the system cells evaluated in this process.

    The first evaluation of a cell whose scenario is in ``fail_first``
    raises, as a transient simulator fault would.
    """

    def __init__(self):
        self.keys = []
        self.fail_first = set()

    def __call__(self, spec, seed):
        key = Job(SYSTEM_TARGET, spec).key
        first = key not in self.keys
        self.keys.append(key)
        if first and spec["scenario"] in self.fail_first:
            raise OSError("transient simulator fault")
        return evaluate_system_point(spec, seed)


@pytest.fixture
def system_calls(monkeypatch):
    calls = SystemCalls()
    monkeypatch.setitem(runner_module._TARGETS, SYSTEM_TARGET, calls)
    return calls


class TestSystemCampaignParity:
    """System campaigns take the options memory campaigns always had."""

    def test_retry_recovers_transient_cell(self, system_calls):
        reference = explore_system(workers=1, **SYSTEM_GRID).records()
        system_calls.keys.clear()
        system_calls.fail_first.add(Scenario.FULL_L2_STT.value)
        result = explore_system(
            workers=1, retry=RetryPolicy(max_attempts=2, backoff=0.0),
            **SYSTEM_GRID,
        )
        assert result.records() == reference
        assert len(system_calls.keys) == 3  # the flaky cell ran twice

    def test_transient_cell_without_retry_fails_fast(self, system_calls):
        system_calls.fail_first.add(Scenario.FULL_L2_STT.value)
        with pytest.raises(RuntimeError, match="transient simulator fault"):
            explore_system(workers=1, **SYSTEM_GRID)

    def test_batch_size_matches_unbatched(self):
        plain = explore_system(workers=1, **SYSTEM_GRID)
        batched = explore_system(workers=1, batch_size=2, **SYSTEM_GRID)
        assert batched.records() == plain.records()

    def test_adaptive_kill_resume(self, tmp_path, system_calls):
        kwargs = dict(
            workloads=["bodytrack", "canneal"],
            scenarios=[Scenario.FULL_SRAM, Scenario.FULL_L2_STT],
            workers=1, sampler="adaptive",
            sampler_options=dict(batch=2, rounds=2, seed=0),
        )
        reference = run_system_campaign(str(tmp_path / "ref"), **kwargs)
        assert reference.adaptive is not None

        class Killed(Exception):
            pass

        def bomb(event):
            if event.done == 2:
                raise Killed()

        campaign_dir = str(tmp_path / "killed")
        with pytest.raises(Killed):
            run_system_campaign(campaign_dir, progress=bomb, **kwargs)
        finished = set(
            CampaignState.load(os.path.join(campaign_dir, JOURNAL_NAME)).completed
        )
        assert finished  # the kill landed mid-campaign

        system_calls.keys.clear()
        resumed = run_system_campaign(campaign_dir, resume=True, **kwargs)
        assert not finished & set(system_calls.keys)  # zero re-evaluations
        assert resumed.records() == reference.records()
        assert list(resumed.results) == list(reference.results)
        assert resumed.adaptive.best_score == reference.adaptive.best_score
        assert resumed.cache_stats["hits"] >= len(finished)


class TestCliSharesTheDriverChecks:
    """The CLI's spec validation and budgets come from the driver's code."""

    def _spec(self, tmp_path, **spec):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        return str(path)

    def test_spec_errors_name_the_spec(self, tmp_path):
        path = self._spec(tmp_path, kind="system", fidelity="low")
        with pytest.raises(SystemExit) as caught:
            load_spec(path)
        assert str(caught.value) == (
            "spec %s: fidelity='low' applies to memory campaigns only" % path
        )

    @pytest.mark.parametrize(
        "sampler, budget",
        [("adaptive", "<= 32 jobs (4 rounds x 8 batch)"),
         ("surrogate", "<= 48 jobs (6 rounds x 8 batch)")],
    )
    def test_describe_reads_default_budget_from_sampler(
        self, tmp_path, capsys, sampler, budget
    ):
        path = self._spec(
            tmp_path, kind="memory", axes={"subarray_rows": [128, 256]},
            sampler=sampler,
        )
        assert main(["describe", path]) == 0
        assert "%-11s%s" % (sampler + ":", budget) in capsys.readouterr().out

    def test_describe_rejects_bad_sampler_options(self, tmp_path):
        path = self._spec(
            tmp_path, kind="memory", axes={"subarray_rows": [128, 256]},
            sampler="adaptive", sampler_options={"rounds": 0},
        )
        with pytest.raises(SystemExit, match="bad sampler_options"):
            main(["describe", path])
