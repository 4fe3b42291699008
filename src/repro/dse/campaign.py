"""High-level campaigns: wire VAET-STT, NVSim and MAGPIE into the engine.

Two built-in evaluators register with the runner:

* ``"vaet-memory"`` — one memory-level design point: rebuild the PDK and
  :class:`~repro.nvsim.config.MemoryConfig` from the spec, run the
  variation-aware ECC/margin/disturb optimisation of
  :class:`~repro.vaet.explorer.DesignSpaceExplorer`, return the winning
  :class:`~repro.vaet.explorer.DesignPoint` as a dict.
* ``"magpie-system"`` — one (workload, scenario) cell of the MAGPIE
  grid: rebuild the SoC from serialised memory records, simulate, return
  the gem5-stats-style report text (the Fig. 10 file-parser artefact).

Everything an evaluator needs travels in the spec as plain JSON, so jobs
pickle cheaply, hash stably, and replay identically from cache.

One private driver runs every campaign.  Each kind supplies a plan —
its :class:`~repro.dse.space.ParameterSpace` (the memory axes, or the
workload x scenario grid), a points -> jobs builder, a record
extractor, its part of the campaign signature — and the driver builds
the cache, executor and runner, opens the journal when the campaign has
a directory, and feeds every batch (the static grid/LHS list, each
ladder stage, each model-sampler round) through one ``execute``
closure.

:func:`run_memory_campaign` and :func:`run_system_campaign` pin a
campaign to a directory holding the result cache plus a
:class:`~repro.dse.checkpoint.CampaignState` journal, so a campaign
killed after N of M points continues with ``resume=True`` exactly where
it stopped — zero re-evaluation of the N finished points.
:func:`explore_memory` and :func:`explore_system` are the same calls
without a directory.  Both kinds accept ``sampler="adaptive"`` to spend
the evaluation budget successively zooming onto the objective-promising
region instead of covering the whole grid, or ``sampler="surrogate"``
to drive it with a TPE-style density model.  Memory campaigns
additionally accept ``sampler="lhs"``, and ``fidelity="ladder"``, which
screens the space with the cheap analytic NVSim estimate and
re-evaluates only the frontier band at full Monte-Carlo fidelity (see
:mod:`repro.dse.fidelity`).  ``MagpieFlow.run`` is the serial,
uncached system campaign over a flow's own memory records.
"""

import enum
import os
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.dse.adaptive import AdaptiveSampler, AdaptiveTrace, score_records
from repro.dse.cache import ResultCache
from repro.dse.checkpoint import (
    CampaignState,
    campaign_key,
    journal_path,
    run_checkpointed,
)
from repro.dse.executors import CACHE_DIR_NAME, make_executor
from repro.dse.fidelity import (
    FIDELITY_MODES,
    FidelityTrace,
    lowfi_twin,
    run_ladder,
)
from repro.dse.jobs import Job, JobResult
from repro.dse.shard import merge_caches
from repro.dse.pareto import ObjectiveSpec, pareto_front
from repro.dse.retry import RetryPolicy
from repro.dse.runner import (
    MEMORY_TARGET,
    SYSTEM_TARGET,
    CampaignRunner,
    EvaluationSession,
    ProgressCallback,
    current_session,
    isolated_call,
    register_batch_target,
    register_target,
)
from repro.dse.space import ParameterSpace

#: Samplers the campaign entry points understand.
SAMPLERS = ("grid", "lhs", "adaptive", "surrogate")

#: The model-driven samplers (propose/evaluate loops over rounds, as
#: opposed to the static grid/LHS point lists).
MODEL_SAMPLERS = ("adaptive", "surrogate")

#: Samplers each campaign kind accepts.
_KIND_SAMPLERS = {"memory": SAMPLERS, "system": ("grid",) + MODEL_SAMPLERS}

#: MemoryConfig field names an axis may override.
_CONFIG_FIELDS = (
    "rows", "cols", "word_bits", "banks",
    "subarray_rows", "subarray_cols", "memory_type", "cell",
)
#: DesignConstraints field names an axis may override.
_CONSTRAINT_FIELDS = ("wer_target", "rer_target", "disturb_budget", "max_ecc_bits")
#: Spec-level knobs an axis may override.
_SPEC_FIELDS = ("node_nm", "num_words", "error_population", "seed")


def _json_value(value):
    """Coerce axis values to JSON-ready form (enums by value)."""
    if isinstance(value, enum.Enum):
        return value.value
    return value


# -- evaluators (run inside workers) ------------------------------------


#: Array organisations whose VAET-STT state one evaluation session
#: keeps, least recently used out first.  A grid enumerates its axes
#: last-fastest, so the reliability-constraint variants of one
#: organisation sit within a window of (product of the axis sizes after
#: them); the shipped grids put only ``node_nm`` (2 values) there.  Each
#: kept organisation holds its sampled error-rate population, ~19 MB at
#: the default 200k cells.
SHARED_TOOL_WINDOW = 2


def _session_pdk(session, node_nm: int):
    """The session's PDK for a node (built once per session)."""
    from repro.pdk.kit import ProcessDesignKit

    pdks = session.memo("pdk", dict)
    if node_nm not in pdks:
        pdks[node_nm] = ProcessDesignKit.for_node(node_nm)
    return pdks[node_nm]


def _session_tool(session, node_nm: int, config, mc_seed: int, population: int):
    """The session's :class:`~repro.vaet.estimator.VAETSTT` for one
    organisation, from a :data:`SHARED_TOOL_WINDOW`-sized LRU.

    The key is everything the tool's results depend on except the
    reliability constraints: node, organisation, Monte Carlo seed and
    population.  All the session's tools share one memo of per-bit WER
    budget solves, which depend on the word width and targets only.
    """
    from repro.vaet.estimator import VAETSTT

    tools = session.memo("vaet-tools", OrderedDict)
    key = (node_nm, config, mc_seed, population)
    if key in tools:
        tools.move_to_end(key)
        return tools[key]
    tools[key] = VAETSTT(
        _session_pdk(session, node_nm), config, seed=mc_seed,
        error_population=population,
        budgets=session.memo("per-bit-budgets", dict),
    )
    while len(tools) > SHARED_TOOL_WINDOW:
        tools.popitem(last=False)
    return tools[key]


def _evaluate_memory(spec: Mapping, seed: int) -> Dict:
    """The memory-point evaluation body.

    The PDK and the organisation's VAET-STT tool come from the current
    :class:`~repro.dse.runner.EvaluationSession`; outside one, from a
    fresh session, so the point evaluates from scratch.  The result is
    the same.
    """
    from repro.nvsim.config import MemoryConfig
    from repro.vaet.explorer import DesignConstraints, DesignSpaceExplorer

    config = MemoryConfig.from_dict(spec["config"])
    constraints = DesignConstraints.from_dict(spec["constraints"])
    node = int(spec["node_nm"])
    population = int(spec.get("error_population", 200_000))
    chosen_seed = spec.get("seed")
    mc_seed = seed if chosen_seed is None else int(chosen_seed)
    session = current_session() or EvaluationSession()
    explorer = DesignSpaceExplorer(
        _session_pdk(session, node),
        config,
        constraints,
        num_words=int(spec.get("num_words", 1500)),
        error_population=population,
    )
    point = explorer.evaluate(
        config, seed=mc_seed,
        tool=_session_tool(session, node, config, mc_seed, population),
    )
    if point is None:
        return {"feasible": False, "point": None}
    return {"feasible": True, "point": point.to_dict()}


def evaluate_memory_point(spec: Mapping, seed: int) -> Dict:
    """Evaluate one memory-level design point from its spec.

    Args:
        spec: See :func:`memory_point_spec`.
        seed: Runner-derived content seed, used when the spec's own
            ``seed`` is None (campaign mode); an explicit spec seed wins
            (legacy sweeps pin 2018 for bit-identical tables).

    Returns:
        ``{"feasible": bool, "point": DesignPoint dict | None}``.
    """
    return _evaluate_memory(spec, seed)


def evaluate_memory_batch(
    specs: Sequence[Mapping], seeds: Sequence[int]
) -> List[Tuple]:
    """Batched twin of :func:`evaluate_memory_point`.

    Evaluates a chunk of points in one worker invocation inside the
    current :class:`~repro.dse.runner.EvaluationSession` (or, called
    bare, one opened for the chunk), so the chunk shares the per-node
    :class:`~repro.pdk.kit.ProcessDesignKit` — PDK construction
    re-derives the whole hybrid model and dominates small-point
    overhead — and each organisation's VAET-STT state.  Each point
    keeps its own failure isolation: the returned list holds one
    ``(ok, result, error, elapsed)`` outcome per point, identical to
    what the scalar path would produce for the same ``(spec, seed)``.
    """
    session = current_session() or EvaluationSession()
    with session.active():
        return [
            isolated_call(_evaluate_memory, spec, seed)
            for spec, seed in zip(specs, seeds)
        ]


def evaluate_system_point(spec: Mapping, seed: int) -> Dict:
    """Evaluate one (workload, scenario) MAGPIE cell from its spec.

    The memory-level records arrive pre-computed in the spec (they are
    shared by every cell of a campaign), so workers only pay for the
    system simulation.

    Returns:
        ``{"report": str}`` — the gem5-stats-style activity report.
    """
    from repro.archsim.memtech import MemoryTechnology
    from repro.archsim.simulator import simulate
    from repro.archsim.soc import SoCConfig
    from repro.archsim.workloads import WorkloadDescriptor
    from repro.magpie.scenarios import Scenario, build_scenario

    base = SoCConfig.from_dict(spec["soc"])
    sram = MemoryTechnology.from_dict(spec["sram"])
    stt = MemoryTechnology.from_dict(spec["stt"])
    scenario = Scenario(spec["scenario"])
    workload = WorkloadDescriptor.from_dict(spec["workload"])
    soc = build_scenario(scenario, sram, stt, base)
    report = simulate(soc, workload)
    return {"report": report.render()}


register_target(MEMORY_TARGET, evaluate_memory_point)
register_target(SYSTEM_TARGET, evaluate_system_point)
register_batch_target(MEMORY_TARGET, evaluate_memory_batch)


# -- spec builders ------------------------------------------------------


def memory_point_spec(explorer, config, seed: Optional[int] = 2018) -> Dict:
    """Spec for one config under a ``DesignSpaceExplorer``'s settings.

    Args:
        explorer: The :class:`~repro.vaet.explorer.DesignSpaceExplorer`
            whose PDK/constraints/sampling settings apply.
        config: The :class:`~repro.nvsim.config.MemoryConfig` to score.
        seed: Monte Carlo seed; the default pins the historic tool seed
            so legacy sweeps reproduce; None defers to the content seed.
    """
    return {
        "node_nm": explorer.pdk.tech.node_nm,
        "config": config.to_dict(),
        "constraints": explorer.constraints.to_dict(),
        "num_words": explorer.num_words,
        "error_population": explorer.error_population,
        "seed": seed,
    }


def system_point_spec(flow, workload, scenario) -> Dict:
    """Spec for one (workload, scenario) cell of a ``MagpieFlow`` grid."""
    sram, stt = flow.memory_records()
    return {
        "node_nm": flow.node_nm,
        "wer_target": flow.wer_target,
        "soc": flow.base.to_dict(),
        "sram": sram.to_dict(),
        "stt": stt.to_dict(),
        "scenario": scenario.value,
        "workload": workload.to_dict(),
    }


def sweep_points(jobs: Sequence[Job], runner: Optional[CampaignRunner] = None):
    """Run memory jobs and return the feasible ``DesignPoint`` list.

    The compatibility path under
    :meth:`~repro.vaet.explorer.DesignSpaceExplorer.sweep_subarrays`:
    serial by default, infeasible points dropped, evaluator failures
    re-raised (the historic sweep propagated exceptions).
    """
    from repro.vaet.explorer import DesignPoint

    engine = runner if runner is not None else CampaignRunner(workers=1)
    points = []
    for outcome in engine.run(jobs):
        if not outcome.ok:
            raise RuntimeError("sweep job failed: %s" % outcome.error)
        if outcome.result["feasible"]:
            points.append(DesignPoint.from_dict(outcome.result["point"]))
    return points


# -- campaign entry points ----------------------------------------------


def _memory_record(job: Job, outcome: JobResult) -> Optional[Dict]:
    """Flat record (spec axes + metrics + EDP) of one feasible outcome."""
    if not (outcome.ok and outcome.result.get("feasible")):
        return None
    point = dict(outcome.result["point"])
    row = dict(point.pop("config"))
    row["node_nm"] = job.spec["node_nm"]
    row["wer_target"] = job.spec["constraints"]["wer_target"]
    row.update(point)
    row["edp_proxy"] = row["write_latency"] * row["write_energy"]
    row["key"] = job.key
    return row


def _memory_jobs(
    points: Iterable[Mapping],
    base_config,
    constraints,
    node_nm: int,
    num_words: int,
    error_population: int,
    seed: Optional[int],
) -> List[Job]:
    """Memory-level jobs for design points (axis-name -> value dicts)."""
    jobs = []
    for point in points:
        config_dict = base_config.to_dict()
        constraint_dict = constraints.to_dict()
        spec = {
            "node_nm": node_nm,
            "num_words": num_words,
            "error_population": error_population,
            "seed": seed,
        }
        for name, value in point.items():
            value = _json_value(value)
            if name in _CONFIG_FIELDS:
                config_dict[name] = value
            elif name in _CONSTRAINT_FIELDS:
                constraint_dict[name] = value
            elif name in _SPEC_FIELDS:
                spec[name] = value
            else:
                raise ValueError(
                    "axis %r maps to no MemoryConfig/DesignConstraints/"
                    "spec field; known: %s"
                    % (
                        name,
                        sorted(_CONFIG_FIELDS + _CONSTRAINT_FIELDS + _SPEC_FIELDS),
                    )
                )
        spec["config"] = config_dict
        spec["constraints"] = constraint_dict
        jobs.append(Job(MEMORY_TARGET, spec))
    return jobs


def _space_signature(space: ParameterSpace) -> List:
    """JSON-ready axis summary for campaign signatures / journals."""
    return [
        [axis.name, [_json_value(value) for value in axis.values]]
        for axis in space.axes
    ]


def _make_sampler(name: str, space, sampler_options):
    """Build the model-driven sampler behind ``sampler="adaptive"/"surrogate"``."""
    options = dict(sampler_options or {})
    if name == "surrogate":
        from repro.dse.surrogate import SurrogateSampler

        return SurrogateSampler(space, **options)
    return AdaptiveSampler(space, **options)


@dataclass
class MemoryCampaignResult:
    """Outcome of :func:`explore_memory` / :func:`run_memory_campaign`.

    Attributes:
        jobs: Submitted jobs, in point order.
        outcomes: Per-job results (aligned with ``jobs``).
        elapsed: Campaign wall-clock [s].
        cache_stats: Cache session counters (None when uncached).
        adaptive: Sampler trace when the campaign ran a model-driven
            sampler (``"adaptive"`` zoom or ``"surrogate"`` TPE).
        quarantined: Job keys whose retry budget is exhausted (flaky
            points) — excluded from :meth:`records` and therefore from
            Pareto ranking.
        fidelity: Screening trace when the campaign ran
            ``fidelity="ladder"`` (see :mod:`repro.dse.fidelity`);
            ``jobs``/``outcomes`` then hold only the promoted
            high-fidelity evaluations.
    """

    jobs: List[Job]
    outcomes: List[JobResult]
    elapsed: float
    cache_stats: Optional[Dict] = None
    adaptive: Optional[AdaptiveTrace] = None
    quarantined: List[str] = field(default_factory=list)
    fidelity: Optional[FidelityTrace] = None

    def records(self) -> List[Dict]:
        """Feasible points as flat dicts: spec axes + metrics + EDP.

        Quarantined (flaky) points are excluded even if an earlier
        attempt left a result behind — a point the campaign cannot
        evaluate reliably must not anchor a Pareto frontier.
        """
        blocked = set(self.quarantined)
        rows = []
        for job, outcome in zip(self.jobs, self.outcomes):
            if job.key in blocked:
                continue
            row = _memory_record(job, outcome)
            if row is not None:
                rows.append(row)
        return rows

    def screening_records(self) -> List[Dict]:
        """Low-fidelity screening rows of a ``fidelity="ladder"`` run.

        Empty for single-fidelity campaigns.  The calibration harness
        joins these against :meth:`records` to measure the analytic
        model's error distribution.
        """
        if self.fidelity is None:
            return []
        return self.fidelity.records(_memory_record)

    def errors(self) -> List[JobResult]:
        """Failed outcomes (failure isolation keeps them out of records)."""
        return [outcome for outcome in self.outcomes if not outcome.ok]

    def infeasible(self) -> int:
        """Count of points that met no constraint-satisfying design."""
        return sum(
            1 for o in self.outcomes if o.ok and not o.result.get("feasible")
        )

    @property
    def cache_hits(self) -> int:
        return sum(1 for o in self.outcomes if o.from_cache)

    def pareto(
        self,
        objectives: Sequence[ObjectiveSpec] = (
            "write_latency", "write_energy", "area",
        ),
    ) -> List[Dict]:
        """Non-dominated records under the given objectives."""
        return pareto_front(self.records(), objectives)


def _system_row(cell: Tuple[str, object], result) -> Dict:
    """Flat record of one (kernel, Scenario) cell's ``ScenarioResult``."""
    energy = result.energy.total_energy
    return {
        "workload": cell[0],
        "scenario": cell[1].value,
        "exec_time": result.energy.exec_time,
        "energy": energy,
        "edp": energy * result.energy.exec_time,
    }


@dataclass
class SystemCampaignResult:
    """Outcome of :func:`explore_system` / :func:`run_system_campaign`.

    Attributes:
        results: (kernel, Scenario) -> ``ScenarioResult`` grid (the
            evaluated subset, for model-sampled campaigns).
        elapsed: Campaign wall-clock [s].
        cache_stats: Cache session counters (None when uncached).
        adaptive: Sampler trace when the campaign ran a model-driven
            sampler.
    """

    results: Dict
    elapsed: float
    cache_stats: Optional[Dict] = None
    adaptive: Optional[AdaptiveTrace] = None

    def records(self) -> List[Dict]:
        """Grid cells as flat dicts with exec time, energy and EDP."""
        return [_system_row(cell, result) for cell, result in self.results.items()]

    def pareto(
        self, objectives: Sequence[ObjectiveSpec] = ("exec_time", "energy")
    ) -> List[Dict]:
        """Non-dominated grid cells under the given objectives."""
        return pareto_front(self.records(), objectives)


def _static_points(
    space: ParameterSpace,
    sampler: str,
    samples: Optional[int],
    sample_seed: int,
) -> List[Dict]:
    """Grid or LHS point list for the non-adaptive samplers."""
    if sampler == "lhs" and samples is None:
        raise ValueError('sampler="lhs" requires samples')
    if samples is not None:
        return space.sample(samples, seed=sample_seed)
    return list(space.grid())


def validate_options(kind: str, sampler: str = "grid", fidelity: str = "high") -> None:
    """Reject a sampler or fidelity mode a campaign kind cannot run.

    The one check behind every campaign entry point and the CLI's spec
    validation.

    Raises:
        ValueError: An unknown sampler or fidelity mode, a non-default
            fidelity on a system campaign, or a ladder/low fidelity
            under a model-driven sampler.
    """
    samplers = _KIND_SAMPLERS[kind]
    if sampler not in samplers:
        raise ValueError(
            "unknown sampler %r; %s campaigns support %s" % (sampler, kind, samplers)
        )
    if fidelity not in FIDELITY_MODES:
        raise ValueError(
            "unknown fidelity %r; known: %s" % (fidelity, FIDELITY_MODES)
        )
    if fidelity != "high" and kind != "memory":
        raise ValueError("fidelity=%r applies to memory campaigns only" % (fidelity,))
    if fidelity != "high" and sampler in MODEL_SAMPLERS:
        raise ValueError(
            'fidelity=%r requires a static sampler ("grid"/"lhs"); '
            "model-driven samplers budget their own evaluations" % (fidelity,)
        )


@dataclass(frozen=True)
class _Plan:
    """What one campaign kind hands the driver (:func:`_drive`).

    Attributes:
        kind: ``"memory"`` or ``"system"``; selects the allowed samplers.
        space: The axes the samplers draw points from.
        build_jobs: points -> jobs.
        record: (job, outcome) -> flat scoreable record, or None.
        signature: The kind's part of the campaign signature.
        objectives: Default scoring objectives.
        result: Builds the campaign result from the keyword arguments
            ``jobs``, ``outcomes``, ``elapsed``, ``cache_stats``,
            ``adaptive``, ``fidelity`` and ``quarantined``.
    """

    kind: str
    space: ParameterSpace
    build_jobs: Callable[[Iterable[Mapping]], List[Job]]
    record: Callable[[Job, JobResult], Optional[Dict]]
    signature: Dict
    objectives: Tuple
    result: Callable


def _campaign_cache(campaign_dir: str, workers_dirs) -> ResultCache:
    """The campaign's shared cache, pre-merged with worker-local stores.

    ``workers_dirs`` (cache or shard directories written by workers
    that could not mount the campaign directory) are folded in first,
    so the run aggregates everything already evaluated elsewhere.
    """
    cache = ResultCache(os.path.join(campaign_dir, CACHE_DIR_NAME))
    if workers_dirs:
        merge_caches(cache, workers_dirs)
    return cache


def _campaign_executor(executor, campaign_dir, workers, executor_options):
    """Resolve the ``executor=`` argument of the campaign entry points.

    Returns ``(executor instance or None, close_when_done)`` — a name
    string builds a fresh executor this campaign owns (and must close);
    an instance passes through and stays the caller's to manage.
    """
    if executor is None:
        return None, False
    built = make_executor(
        executor,
        campaign_dir=campaign_dir,
        workers=workers,
        **dict(executor_options or {}),
    )
    return built, built is not executor


def _drive(
    plan: _Plan,
    campaign_dir: Optional[str],
    resume: bool = False,
    retry_failed: bool = False,
    cache_dir: Optional[str] = None,
    workers: Optional[int] = None,
    sampler: str = "grid",
    sampler_options: Optional[Dict] = None,
    samples: Optional[int] = None,
    sample_seed: int = 0,
    objectives: Optional[Sequence[ObjectiveSpec]] = None,
    retry: Optional[RetryPolicy] = None,
    progress: Optional[ProgressCallback] = None,
    executor=None,
    executor_options: Optional[Dict] = None,
    workers_dirs: Optional[Sequence[str]] = None,
    batch_size: Optional[int] = None,
    deadline: Optional[float] = None,
    fidelity: str = "high",
    promote_ranks: int = 1,
):
    """The one campaign loop behind every entry point.

    Every batch of jobs — the static grid/LHS list, each ladder stage,
    each model-sampler round — goes through one ``execute`` closure:
    the runner alone, or with a ``campaign_dir`` the journaled
    :func:`~repro.dse.checkpoint.run_checkpointed`.  The options are
    documented on :func:`run_memory_campaign`.
    """
    validate_options(plan.kind, sampler, fidelity)
    if campaign_dir is None and (resume or retry_failed or workers_dirs):
        raise ValueError("resume, retry_failed and workers_dirs need a campaign_dir")
    if campaign_dir is not None and cache_dir is not None:
        raise ValueError(
            "cache_dir conflicts with campaign_dir, which holds the campaign's cache"
        )
    if samples is not None and plan.kind != "memory":
        raise ValueError("samples (LHS) applies to memory campaigns only")
    objectives = plan.objectives if objectives is None else objectives
    signature = dict(plan.signature)
    if plan.kind == "memory" or sampler != "grid":
        # Plain system grids never stamped these, so leaving them out
        # keeps those journals' campaign keys (and resumability).
        signature.update(
            samples=samples,
            sample_seed=sample_seed,
            sampler=sampler,
            sampler_options=dict(sampler_options or {}),
            objectives=[list(o) if isinstance(o, tuple) else o for o in objectives],
        )
    if fidelity != "high":
        # Only non-default modes stamp the signature, so campaign keys
        # (and therefore resumability) of existing journals are stable.
        signature.update(fidelity=fidelity, promote_ranks=promote_ranks)
    static: List[Job] = []
    if sampler not in MODEL_SAMPLERS:
        static = plan.build_jobs(_static_points(plan.space, sampler, samples, sample_seed))
        if fidelity == "low":
            static = [lowfi_twin(job) for job in static]
    if campaign_dir is not None:
        cache = _campaign_cache(campaign_dir, workers_dirs)
    else:
        cache = ResultCache(cache_dir) if cache_dir is not None else None
    engine, owns_executor = _campaign_executor(
        executor, campaign_dir, workers, executor_options
    )
    runner = state = None
    planned = 0
    evaluated: Dict[str, Tuple[Job, JobResult]] = {}

    def execute(jobs):
        nonlocal planned
        if state is None:
            return runner.run(jobs, progress=progress, retry=retry)
        # The journal's total grows as model rounds and ladder
        # promotions become known.
        planned += len(jobs)
        state.total = max(state.total, planned)
        return run_checkpointed(
            jobs, runner, state, retry_failed=retry_failed,
            retry=retry, progress=progress,
        )

    def evaluate(points):
        batch = plan.build_jobs(points)
        outcomes = execute(batch)
        for job, outcome in zip(batch, outcomes):
            evaluated.setdefault(job.key, (job, outcome))
        rows = [plan.record(job, outcome) for job, outcome in zip(batch, outcomes)]
        return score_records(rows, objectives)

    trace = ladder = None
    start = time.perf_counter()
    try:
        runner = CampaignRunner(
            workers=workers, cache=cache, executor=engine,
            batch_size=batch_size, deadline=deadline,
        )
        if campaign_dir is not None:
            state = CampaignState.open(
                journal_path(campaign_dir, prefer_existing=resume),
                campaign_key(signature), total=len(static),
                resume=resume, meta=signature,
            )
        if sampler in MODEL_SAMPLERS:
            trace = _make_sampler(sampler, plan.space, sampler_options).run(evaluate)
            jobs = [job for job, _ in evaluated.values()]
            outcomes = [outcome for _, outcome in evaluated.values()]
        elif fidelity == "ladder":
            jobs, outcomes, ladder = run_ladder(
                static, execute, plan.record, objectives,
                promote_ranks=promote_ranks,
            )
        else:
            jobs, outcomes = static, execute(static)
    finally:
        try:
            if owns_executor:
                engine.close()
        finally:
            if state is not None:
                state.close()
    return plan.result(
        jobs=jobs, outcomes=outcomes, elapsed=time.perf_counter() - start,
        cache_stats=cache.stats() if cache is not None else None,
        adaptive=trace, fidelity=ladder,
        quarantined=sorted(state.quarantined) if state is not None else [],
    )


def _memory_plan(
    space, base_config, constraints, node_nm, num_words, error_population, seed
) -> _Plan:
    """The memory-level (VAET-STT) campaign plan."""
    from repro.nvsim.config import PAPER_ARRAY
    from repro.vaet.explorer import DesignConstraints

    base_config = PAPER_ARRAY if base_config is None else base_config
    constraints = DesignConstraints() if constraints is None else constraints
    settings = dict(
        node_nm=node_nm, num_words=num_words,
        error_population=error_population, seed=seed,
    )
    return _Plan(
        kind="memory",
        space=space,
        build_jobs=lambda points: _memory_jobs(
            points, base_config, constraints, **settings
        ),
        record=_memory_record,
        signature=dict(
            kind="memory", axes=_space_signature(space),
            base_config=base_config.to_dict(),
            constraints=constraints.to_dict(), **settings,
        ),
        objectives=("edp_proxy",),
        result=MemoryCampaignResult,
    )


def _system_cell(flow, job: Job, outcome: JobResult):
    """``((kernel, Scenario), ScenarioResult)`` of one system outcome.

    Raises:
        RuntimeError: On a failed cell (system campaigns keep the
            historic fail-fast contract of ``MagpieFlow.run``).
    """
    from repro.archsim.stats import ActivityReport
    from repro.magpie.flow import ScenarioResult
    from repro.magpie.scenarios import Scenario
    from repro.mcpat.components import estimate_energy

    name, scenario = job.spec["workload"]["name"], Scenario(job.spec["scenario"])
    if not outcome.ok:
        raise RuntimeError(
            "MAGPIE job (%s, %s) failed: %s" % (name, scenario.value, outcome.error)
        )
    report = ActivityReport.parse(outcome.result["report"])
    energy = estimate_energy(flow.build_soc(scenario), report)
    return (name, scenario), ScenarioResult(
        scenario=scenario, report=report, energy=energy
    )


def _system_plan(flow, workloads=None, scenarios=None) -> _Plan:
    """The system-level (MAGPIE) campaign plan over a flow's grid.

    The space is the workload x scenario grid; every cell's job carries
    the flow's memory-level records, computed once per flow.

    Raises:
        KeyError: On unknown kernel names or scenario values.
    """
    from repro.archsim.workloads import PARSEC_KERNELS
    from repro.magpie.scenarios import Scenario

    names, chosen = flow.validate_grid(workloads, scenarios)
    values = [scenario.value for scenario in chosen]

    def build_jobs(points):
        return [
            Job(SYSTEM_TARGET, system_point_spec(
                flow, PARSEC_KERNELS[point["workload"]], Scenario(point["scenario"])
            ))
            for point in points
        ]

    def result(jobs, outcomes, elapsed, cache_stats, adaptive, **_):
        cells = dict(_system_cell(flow, j, o) for j, o in zip(jobs, outcomes))
        return SystemCampaignResult(
            results=cells, elapsed=elapsed, cache_stats=cache_stats,
            adaptive=adaptive,
        )

    return _Plan(
        kind="system",
        space=ParameterSpace([("workload", names), ("scenario", values)]),
        build_jobs=build_jobs,
        record=lambda job, outcome: _system_row(*_system_cell(flow, job, outcome)),
        signature={
            "kind": "system",
            "workloads": names,
            "scenarios": values,
            "node_nm": flow.node_nm,
            "wer_target": flow.wer_target,
            "base": flow.base.to_dict(),
        },
        objectives=("edp",),
        result=result,
    )


def explore_memory(space: ParameterSpace, **options) -> MemoryCampaignResult:
    """Run a memory-level (VAET-STT) campaign over a parameter space.

    :func:`run_memory_campaign` without a campaign directory: no
    journal, and a result cache only when ``cache_dir`` is given.
    ``resume``, ``retry_failed`` and ``workers_dirs`` need a directory
    and are rejected here.  A ``retry`` policy re-runs failed points
    with reseeded RNG streams, without quarantine bookkeeping.
    """
    return run_memory_campaign(space, None, **options)


def run_memory_campaign(
    space: ParameterSpace,
    campaign_dir: Optional[str],
    resume: bool = False,
    retry_failed: bool = False,
    base_config=None,
    constraints=None,
    node_nm: int = 45,
    num_words: int = 1500,
    error_population: int = 200_000,
    seed: Optional[int] = 2018,
    **options,
) -> MemoryCampaignResult:
    """Resumable memory-level (VAET-STT) campaign: cache + journal in a directory.

    Axis names map onto :class:`MemoryConfig` fields, ``DesignConstraints``
    fields, or the spec-level knobs ``node_nm`` / ``num_words`` /
    ``error_population`` / ``seed``.  Invalid combinations (e.g. a
    subarray taller than the array) become per-point error records, not
    campaign aborts.

    ``campaign_dir`` holds the result cache (``cache/``) and the
    append-only JSONL journal (``journal.jsonl``; legacy
    ``checkpoint.json`` files are upgraded transparently on resume),
    both written as results arrive.  A campaign killed after N of M
    points continues with ``resume=True``: the N finished points come
    back as cache/journal hits (zero re-evaluation) and the results are
    identical to an uninterrupted run.  With ``campaign_dir=None`` the
    campaign is :func:`explore_memory`.

    Args:
        space: The axes to sweep.
        campaign_dir: Campaign home, created on first write; None runs
            without a journal.
        resume: Continue an existing journal instead of starting fresh.
            Refuses a journal whose signature (axes + settings +
            sampler) differs from this call's.
        retry_failed: Re-run points the journal marks failed instead of
            replaying their recorded errors (quarantined points are
            released first).
        base_config: Starting organisation (default: the paper array).
        constraints: Baseline reliability constraints.
        node_nm: Default PDK node when no ``node_nm`` axis is given.
        num_words / error_population: Monte Carlo sampling effort.
        seed: Spec seed for every point (None = per-point content seed).

    Keyword options (shared with :func:`run_system_campaign`):
        cache_dir: Result cache path for a campaign without a
            directory (a ``campaign_dir`` holds its own cache).
        workers: Pool size (None = ``REPRO_DSE_WORKERS`` or CPU count).
        sampler: ``"grid"`` (default), ``"lhs"`` (requires ``samples``),
            ``"adaptive"`` — successive-halving zoom onto the region
            best under ``objectives`` (see :mod:`repro.dse.adaptive`) —
            or ``"surrogate"`` — TPE-style density-ratio model over the
            full space (see :mod:`repro.dse.surrogate`).
        sampler_options: ``AdaptiveSampler`` overrides (batch, rounds,
            keep, margin, seed) or ``SurrogateSampler`` overrides
            (batch, rounds, gamma, candidates, smoothing, init_rounds,
            seed).
        samples: If set, latin-hypercube sample this many points instead
            of the full grid.
        sample_seed: LHS permutation seed.
        objectives: Scoring objectives over the feasible records
            (Pareto dominance ranks when more than one; default
            ``("edp_proxy",)``).
        retry: Optional :class:`~repro.dse.retry.RetryPolicy` — failed
            points re-run with reseeded RNG streams, each retry is
            journaled (the budget spans resumes), and budget-exhausted
            points are quarantined.
        progress: Per-point streaming callback (one
            :class:`~repro.dse.runner.Progress` snapshot per completed
            point; model-sampled campaigns restart the count each
            round).
        executor: Execution backend: ``"serial"``, ``"pool"``,
            ``"worker-pull"`` (points are leased to independent
            ``python -m repro.dse worker`` processes sharing this
            directory — see :mod:`repro.dse.executors`), ``"network"``
            (an embedded campaign server leases points over TCP to
            ``worker --connect`` processes with no shared mount — see
            :mod:`repro.dse.net`), or an
            :class:`~repro.dse.executors.Executor` instance.  The
            executor changes *where* points evaluate, never the journal
            format, the campaign signature, or the results.
        executor_options: Extra keyword arguments for a named executor
            (``spawn_workers``, ``lease_ttl``, ``timeout``, ...).
        workers_dirs: Cache/shard directories written elsewhere (e.g.
            by workers without access to this directory) to merge into
            the campaign cache before running.
        batch_size: Evaluate up to this many points per worker
            invocation (every executor honours it: pool workers chunk,
            pull/network workers lease chunks, and memory points share
            the PDK across a chunk).  Like the executor, it changes
            *how* points evaluate, never the journal format, the
            campaign signature, or the results — a resumed campaign may
            freely change it.
        deadline: Per-evaluation wall-clock budget [s]; evaluations
            still running past it are reaped and journaled as timeout
            failures (retryable / quarantinable under ``retry``,
            counted by ``status``).  A scheduling knob like
            ``batch_size`` — outside the content key and the campaign
            signature, so a resumed campaign may freely change it.
        fidelity: ``"high"`` (default) — every point pays the full
            Monte-Carlo evaluation; ``"low"`` — every point uses the
            analytic NVSim-class estimate only (quick sweeps,
            calibration); ``"ladder"`` — screen every point at low
            fidelity, then re-evaluate only the frontier band at high
            fidelity (see :mod:`repro.dse.fidelity`).  Static samplers
            and memory campaigns only.  Fidelity is part of every job's
            content key *and* (for non-default modes) the campaign
            signature, so screens and confirms journal and resume
            independently and a ladder campaign never mixes with a
            plain one in the same directory.
        promote_ranks: Ladder promotion depth — low-fidelity Pareto
            ranks up to this value (under ``objectives``) advance to
            the Monte-Carlo stage.

    Raises:
        ValueError: An option :func:`validate_options` rejects;
            ``resume``, ``retry_failed`` or ``workers_dirs`` without a
            ``campaign_dir``; ``cache_dir`` with one; ``samples`` on a
            system campaign.
    """
    plan = _memory_plan(
        space, base_config, constraints, node_nm, num_words, error_population, seed
    )
    return _drive(
        plan, campaign_dir, resume=resume, retry_failed=retry_failed, **options
    )


def explore_system(
    workloads: Optional[Iterable[str]] = None,
    scenarios: Optional[Iterable] = None,
    **options,
) -> SystemCampaignResult:
    """Run a system-level (MAGPIE) campaign over a kernel x scenario grid.

    :func:`run_system_campaign` without a campaign directory, as
    :func:`explore_memory` is to :func:`run_memory_campaign`.
    """
    return run_system_campaign(None, workloads, scenarios, **options)


def run_system_campaign(
    campaign_dir: Optional[str],
    workloads: Optional[Iterable[str]] = None,
    scenarios: Optional[Iterable] = None,
    node_nm: int = 45,
    base=None,
    wer_target: float = 1e-9,
    **options,
) -> SystemCampaignResult:
    """Resumable system-level (MAGPIE) campaign: cache + journal in a directory.

    Every completed cell of the kernel x scenario grid is journaled as
    it lands; ``resume=True`` finishes a killed campaign without
    re-simulating completed cells (they replay from the cache).  A
    ``retry`` policy re-runs failed cells (journaled, budget spans
    resumes) before the grid's fail-fast contract raises
    ``RuntimeError``.

    Args:
        campaign_dir: Campaign home; None runs without a journal
            (:func:`explore_system`).
        workloads / scenarios: Grid axes (defaults: all kernels, all
            four paper scenarios).
        node_nm / base / wer_target: ``MagpieFlow`` settings; the memory
            level runs once and its records are shared by every cell.
        **options: As in :func:`run_memory_campaign`, except that
            ``sampler`` is ``"grid"`` (default, the full cross
            product), ``"adaptive"`` or ``"surrogate"`` (evaluate only
            the cells the sampler proposes), ``objectives`` default to
            ``("edp",)``, and ``samples`` and a non-default
            ``fidelity`` are rejected.
    """
    from repro.magpie.flow import MagpieFlow

    flow = MagpieFlow(node_nm=node_nm, base=base, wer_target=wer_target)
    return _drive(_system_plan(flow, workloads, scenarios), campaign_dir, **options)
