"""The benchmark's four workloads, driven through the public API.

Every workload is a sequence of *units* that repeat the same inputs:
a unit is one cold campaign (or, for ``device``, one node's
characterisation block) followed by a read-back of what it produced.
Inputs are a pure function of the workload seed, so a unit's outputs
are identical across units, runs and processes for one seed.  Each
unit directory is created fresh under the benchmark's work directory,
so every run writes to the same filesystem.
"""

import contextlib
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Optional

#: Monte-Carlo knobs of the full-fidelity memory evaluator.
NUM_WORDS = 200
ERROR_POPULATION = 10_000
#: Network executor result-scan period [s].  Short, so completions
#: reach the progress callback as they land rather than in scan bursts.
NET_POLL = 0.002
NET_WORKERS = 2
#: Seconds a spawned worker may idle or stay disconnected before exiting.
NET_WORKER_TIMEOUT = 300
#: Significant digits kept in the output digest.
DIGEST_DIGITS = 10


@dataclass
class Unit:
    """Timestamps (``time.perf_counter``) and outputs of one unit."""

    start: float
    completions: List[float]
    campaign_end: float
    end: float
    #: Duration of each repeat of the unit's read-back [s].
    readbacks: List[float]
    attempted: int
    failed: int
    rows: List[list]
    problems: List[str] = field(default_factory=list)

    @property
    def wall(self) -> float:
        return self.end - self.start

    @property
    def readback_s(self) -> float:
        """Mean read-back repeat."""
        return statistics.fmean(self.readbacks)

    @property
    def measured(self) -> float:
        """Timed seconds of the unit: cold phase plus every read-back."""
        return self.wall + sum(self.readbacks)


def sig(value) -> str:
    """``value`` with :data:`DIGEST_DIGITS` significant digits."""
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    return "%.*g" % (DIGEST_DIGITS, float(value))


class Clock:
    """Progress callback recording every completion's timestamp."""

    def __init__(self):
        self.times: List[float] = []
        self.failed = 0

    def __call__(self, progress) -> None:
        self.times.append(time.perf_counter())
        self.failed = progress.failed


class Workload:
    """Common unit loop plumbing; subclasses define the unit."""

    name = ""
    #: Units with distinct inputs; unit ``i`` repeats unit ``i % period``.
    period = 1
    #: Times each unit repeats its read-back, which leaves the unit
    #: directory unchanged; short read-backs repeat more.
    readback_repeats = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = int(seed)
        self.workdir = workdir
        self.rng = random.Random("%s/%d" % (self.name, self.seed))
        #: Tracer of the traced run, or None (tracing off).
        self.tracer = None
        #: Directory traced network workers write their spans to.
        self.span_dir: Optional[str] = None

    def fresh_dir(self, label: str) -> str:
        path = os.path.join(self.workdir, label)
        shutil.rmtree(path, ignore_errors=True)
        os.makedirs(path)
        return path

    def call(self, span: str, fn: Callable, *args, **kwargs):
        """Call ``fn``, inside a span when the run is traced."""
        if self.tracer is None:
            return fn(*args, **kwargs)
        return self.tracer.span(span, fn, *args, **kwargs)

    def untraced(self):
        """Context in which the output checks run unrecorded."""
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.pause()

    def progress(self, clock: Clock) -> Callable:
        if self.tracer is None:
            return clock
        tracer = self.tracer
        return lambda progress: tracer.span("bench.progress", clock, progress)

    def read_back(self, fn: Callable):
        """Call ``fn`` :attr:`readback_repeats` times.

        Returns the last result and the duration of every call.
        """
        times = []
        for _ in range(self.readback_repeats):
            start = time.perf_counter()
            result = fn()
            times.append(time.perf_counter() - start)
        return result, times

    def warm_up(self) -> None:
        """One untimed pass over the workload's path (part of set-up)."""
        raise NotImplementedError

    def prepare(self) -> None:
        """Reference data the output checks need (not part of set-up)."""

    def run_unit(self, index: int) -> Unit:
        raise NotImplementedError


# -- memory campaigns -------------------------------------------------------


def _memory_checks(unit_dir: str, result, warm, report, total: int) -> List[str]:
    from repro.dse import InvariantChecker

    problems = []
    outcomes = result.outcomes
    if len(outcomes) != total:
        problems.append("done %d != total %d" % (len(outcomes), total))
    failed = [o for o in outcomes if not o.ok]
    if failed or result.quarantined:
        problems.append(
            "%d failed, %d quarantined: %s"
            % (len(failed), len(result.quarantined),
               failed[0].error.splitlines()[0] if failed else "")
        )
    violations = InvariantChecker(unit_dir).check()
    if violations:
        problems.append("invariants: %s" % "; ".join(violations))
    for row in result.records():
        for key in ("write_latency", "read_latency", "write_energy",
                    "read_energy", "area"):
            value = row[key]
            if not (math.isfinite(value) and value > 0):
                problems.append("record %s has %s=%r" % (row["key"], key, value))
    if warm.records() != result.records():
        problems.append("read-back records differ from the cold records")
    if warm.cache_hits != total:
        problems.append("read-back served %d of %d from the cache"
                        % (warm.cache_hits, total))
    if report.status["done"] != total:
        problems.append("report counts %d done of %d"
                        % (report.status["done"], total))
    return problems


def _memory_rows(result) -> List[list]:
    rows = []
    for job, outcome in sorted(zip(result.jobs, result.outcomes),
                               key=lambda pair: pair[0].key):
        point = (outcome.result or {}).get("point") or {}
        rows.append([job.key, bool((outcome.result or {}).get("feasible"))] + [
            sig(point.get(key)) for key in (
                "ecc_bits", "write_latency", "read_latency",
                "write_energy", "read_energy", "area", "read_disturb_ok",
            )
        ])
    return rows


class MemoryWorkload(Workload):
    """A serial memory campaign: cold run, then warm re-run + report.

    The grid is fixed, so every seed costs the same; the seed sets the
    campaign's Monte-Carlo seed, which enters every point's spec and
    therefore its content key.  Every axis lists the paper's reference
    value first, so each campaign starts on the same reference array.
    """

    fidelity = "high"
    axes: list = []

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        from repro.dse import ParameterSpace

        self.space = ParameterSpace(self.axes)
        self.mc_seed = self.rng.randrange(2 ** 31)

    def campaign(self, unit_dir: str, space=None, **kwargs):
        from repro.dse import campaign

        return campaign.run_memory_campaign(
            space or self.space, unit_dir, seed=self.mc_seed,
            num_words=NUM_WORDS, error_population=ERROR_POPULATION,
            executor="serial", workers=1, fidelity=self.fidelity, **kwargs
        )

    def warm_up(self) -> None:
        from repro.dse import ParameterSpace, analytics

        first = ParameterSpace(
            [(axis.name, axis.values[:1]) for axis in self.space.axes]
        )
        unit_dir = self.fresh_dir("warm-up")
        self.campaign(unit_dir, space=first)
        analytics.build_report(unit_dir)
        shutil.rmtree(unit_dir, ignore_errors=True)

    def run_unit(self, index: int) -> Unit:
        from repro.dse import analytics

        unit_dir = self.fresh_dir("unit")
        clock = Clock()
        start = time.perf_counter()
        result = self.call("dse.campaign", self.campaign, unit_dir,
                           progress=self.progress(clock))
        campaign_end = time.perf_counter()
        (warm, report), readbacks = self.read_back(lambda: (
            self.call("dse.readback", self.campaign, unit_dir, resume=True),
            self.call("dse.readback", analytics.build_report, unit_dir),
        ))
        total = len(result.jobs)
        with self.untraced():
            problems = _memory_checks(unit_dir, result, warm, report, total)
            rows = _memory_rows(result)
        return Unit(
            start=start, completions=clock.times, campaign_end=campaign_end,
            end=campaign_end, readbacks=readbacks, attempted=total,
            failed=sum(1 for o in result.outcomes if not o.ok)
            + len(result.quarantined),
            rows=rows, problems=problems,
        )


class MemoryMC(MemoryWorkload):
    """Full Monte-Carlo fidelity over a 96-point 6-axis grid."""

    name = "memory-mc"
    readback_repeats = 8
    axes = [
        ("subarray_rows", [256, 64, 1024]),
        ("subarray_cols", [256, 512]),
        ("word_bits", [64, 32]),
        ("wer_target", [1e-9, 1e-12]),
        ("max_ecc_bits", [1, 2]),
        ("node_nm", [45, 65]),
    ]


class MemoryScreen(MemoryWorkload):
    """Low-fidelity (analytic NVSim) screen of a 600-point 6-axis grid."""

    name = "memory-screen"
    fidelity = "low"
    readback_repeats = 3
    axes = [
        ("subarray_rows", [256, 32, 64, 512, 1024]),
        ("subarray_cols", [256, 32, 128, 512, 1024]),
        ("word_bits", [64, 16, 128]),
        ("wer_target", [1e-9, 1e-12]),
        ("max_ecc_bits", [1, 3]),
        ("node_nm", [45, 65]),
    ]


# -- system campaigns over the network executor ------------------------------


def _system_rows(result) -> List[list]:
    return [
        [row["workload"], row["scenario"], sig(row["exec_time"]),
         sig(row["energy"]), sig(row["edp"])]
        for row in sorted(result.records(),
                          key=lambda r: (r["workload"], r["scenario"]))
    ]


class SystemNet(Workload):
    """MAGPIE kernel x scenario grids through the network executor."""

    name = "system-net"

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        nodes = [45, 65, self.rng.choice([45, 65])]
        targets = self.rng.sample([1e-6, 1e-9, 1e-12, 1e-15], len(nodes))
        #: (node, WER target) of each campaign; units cycle through them.
        self.grids = list(zip(nodes, targets))
        self.period = len(self.grids)
        self.references: Dict[int, List[list]] = {}

    def warm_up(self) -> None:
        from repro.dse import campaign

        node, wer = self.grids[0]
        unit_dir = self.fresh_dir("warm-up")
        campaign.run_system_campaign(
            unit_dir, workloads=["x264"], scenarios=["Full-L2-STT-MRAM"],
            node_nm=node, wer_target=wer, executor="serial", workers=1,
        )
        shutil.rmtree(unit_dir, ignore_errors=True)

    def prepare(self) -> None:
        """Serial reference records of every grid, plus one network
        round trip so the first timed unit starts warm."""
        from repro.dse import campaign

        for index, (node, wer) in enumerate(self.grids):
            unit_dir = self.fresh_dir("reference")
            result = campaign.run_system_campaign(
                unit_dir, node_nm=node, wer_target=wer,
                executor="serial", workers=1,
            )
            self.references[index] = _system_rows(result)
        shutil.rmtree(os.path.join(self.workdir, "reference"),
                      ignore_errors=True)
        self._network_campaign(self.fresh_dir("warm-up"), self.grids[0],
                               Clock(), workloads=["x264"],
                               span_label="warm-up")
        shutil.rmtree(os.path.join(self.workdir, "warm-up"),
                      ignore_errors=True)

    def _worker_command(self, address, span_label: str) -> List[str]:
        """The ``NetworkExecutor._spawn_command`` line, launched by hand."""
        args = [
            "worker", "--connect", "%s:%d" % address,
            "--poll", str(max(NET_POLL, 0.01)),
            "--idle-timeout", str(NET_WORKER_TIMEOUT),
            "--reconnect-timeout", str(NET_WORKER_TIMEOUT),
        ]
        if self.tracer is None or self.span_dir is None:
            return [sys.executable, "-m", "repro.dse"] + args
        entry = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "worker_entry.py")
        return [sys.executable, entry,
                os.path.join(self.span_dir, span_label + ".json")] + args

    def _network_campaign(self, unit_dir, grid, clock, span_label,
                          workloads=None):
        """Run one grid; returns (result, campaign_end, end)."""
        import repro
        from repro.dse import campaign
        from repro.dse.net import NetworkExecutor

        node, wer = grid
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(repro.__file__))
        executor = NetworkExecutor(unit_dir, spawn_workers=0, poll=NET_POLL)
        procs = []
        try:
            for k in range(NET_WORKERS):
                command = self._worker_command(
                    executor.address, "%s-%d" % (span_label, k)
                )
                procs.append(subprocess.Popen(
                    command, env=env, stdout=subprocess.DEVNULL
                ))
            # The campaign call waits until both workers are connected,
            # so worker start-up never overlaps the marginal phase.
            deadline = time.monotonic() + NET_WORKER_TIMEOUT
            while executor.server.connection_count < NET_WORKERS:
                if time.monotonic() > deadline or any(
                    proc.poll() is not None for proc in procs
                ):
                    raise RuntimeError("network workers did not connect")
                time.sleep(NET_POLL)
            result = self.call(
                "dse.campaign", campaign.run_system_campaign, unit_dir,
                workloads=workloads, node_nm=node, wer_target=wer,
                executor=executor, progress=self.progress(clock),
            )
            campaign_end = time.perf_counter()
        finally:
            executor.close()
            for proc in procs:
                try:
                    proc.wait(timeout=60)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.wait()
        codes = [proc.returncode for proc in procs]
        if any(codes):
            raise RuntimeError("network worker exit codes %s" % codes)
        return result, campaign_end, time.perf_counter()

    def run_unit(self, index: int) -> Unit:
        from repro.dse import InvariantChecker, analytics, campaign

        grid_index = index % len(self.grids)
        node, wer = self.grids[grid_index]
        unit_dir = self.fresh_dir("unit")
        clock = Clock()
        start = time.perf_counter()
        result, campaign_end, end = self._network_campaign(
            unit_dir, (node, wer), clock, span_label="unit-%d" % index
        )
        (warm, _), readbacks = self.read_back(lambda: (
            self.call(
                "dse.readback", campaign.run_system_campaign, unit_dir,
                node_nm=node, wer_target=wer, resume=True, workers=1,
            ),
            self.call("dse.readback", analytics.build_report, unit_dir),
        ))
        problems = []
        with self.untraced():
            rows = _system_rows(result)
            if rows != self.references[grid_index]:
                problems.append("network records differ from the serial run "
                                "of grid %s" % ((node, wer),))
            if _system_rows(warm) != rows:
                problems.append("read-back records differ from the cold records")
            violations = InvariantChecker(unit_dir).check()
            if violations:
                problems.append("invariants: %s" % "; ".join(violations))
        return Unit(
            start=start, completions=clock.times, campaign_end=campaign_end,
            end=end, readbacks=readbacks, attempted=len(rows),
            failed=clock.failed, rows=rows, problems=problems,
        )


# -- device physics ------------------------------------------------------------


#: Thermal ensemble size and integration settings of the LLG ensembles.
ENSEMBLE = 64
LLG_STEP = 2e-12
LLG_PULSE = 1e-9
#: A compact-model write pulse: ``PULSE_SLICES`` ``advance`` calls of
#: ``SLICE`` seconds each, as a circuit simulator would step it.
PULSE_SLICES = 5
SLICE = 0.1e-9
#: (subarray rows, subarray cols) of the paper array each read-back
#: card is estimated at.
READBACK_ARRAYS = [
    (rows, cols)
    for rows in (32, 64, 128, 256, 512, 1024)
    for cols in (64, 128, 256, 512)
]
#: Fields of each read-back estimate that enter the digest.
ESTIMATE_FIELDS = ("read_latency", "write_latency", "read_energy",
                   "write_energy", "leakage_power", "area")


class Device(Workload):
    """Device physics: one unit per node, one point per CMOS corner.

    A point characterises the bit cell at its corner, integrates one
    thermal switching ensemble and one compact-model write pulse, so
    every point does the same amount of work.  Units alternate between
    the 45 and 65 nm nodes; the seed sets the LLG RNG seeds and jitters
    the drive currents.
    """

    name = "device"
    period = 2
    readback_repeats = 4

    def __init__(self, seed: int, workdir: str):
        super().__init__(seed, workdir)
        rng = self.rng
        #: Ensemble currents, one per corner, as ascending multiples of
        #: -I_c0 (the P -> AP direction).
        self.ensemble_scales = [
            base * rng.uniform(0.97, 1.03) for base in (5.0, 8.0, 11.0, 14.0, 17.0)
        ]
        self.pulse_scales = [rng.uniform(10.0, 20.0) for _ in range(5)]
        self.llg_seed = rng.randrange(2 ** 31)

    def warm_up(self) -> None:
        from repro.cells import characterize
        from repro.pdk.kit import ProcessDesignKit

        pdk = ProcessDesignKit.for_node(45)
        characterize.characterize_cell(pdk)
        self._ensemble(pdk, self.ensemble_scales[0], duration=10 * LLG_STEP)
        self._pulse(pdk, self.pulse_scales[0], self.llg_seed)

    def _initials(self, pdk):
        import numpy as np

        from repro.core.llg import thermal_equilibrium_angle

        rng = np.random.default_rng(self.llg_seed)
        delta = pdk.switching_model().stability.delta
        theta = np.array(
            [thermal_equilibrium_angle(delta, rng) for _ in range(ENSEMBLE)]
        )
        phi = rng.uniform(0.0, 2.0 * math.pi, ENSEMBLE)
        return np.stack([
            np.sin(theta) * np.cos(phi),
            np.sin(theta) * np.sin(phi),
            np.cos(theta),
        ], axis=1)

    def _ensemble(self, pdk, scale: float, duration: float = LLG_PULSE):
        """Thermal switching ensemble at ``-scale * I_c0``.

        Every current starts from the same initial states and noise
        seed, so switching probability is compared on common draws.
        """
        from repro.core import llg

        config = llg.LLGConfig(
            material=pdk.free_layer, geometry=pdk.memory_pillar,
            current=-scale * pdk.switching_model().critical_current,
            temperature=300.0, timestep=LLG_STEP, seed=self.llg_seed,
        )
        return llg.MacrospinLLG(config).run_batch(
            self._initials(pdk), duration, record_every=50
        )

    def _pulse(self, pdk, scale: float, seed: int) -> float:
        """Final cos(theta) after a write pulse at ``-scale * I_c0``."""
        from repro.core import compact

        model = compact.PhysicalMTJModel(
            pdk.free_layer, pdk.memory_pillar, pdk.barrier, seed=seed
        )
        current = -scale * pdk.switching_model().critical_current
        for _ in range(PULSE_SLICES):
            model.advance(current, SLICE)
        return model.state.cos_angle

    def run_unit(self, index: int) -> Unit:
        import numpy as np

        from repro.cells import cellconfig, characterize
        from repro.nvsim.config import PAPER_ARRAY
        from repro.nvsim.estimator import NVSimEstimator
        from repro.pdk.corners import CornerName
        from repro.pdk.kit import ProcessDesignKit

        node = (45, 65)[index % 2]
        unit_dir = self.fresh_dir("unit")
        times: List[float] = []
        points = []
        start = time.perf_counter()
        for k, corner in enumerate(CornerName):
            pdk = ProcessDesignKit.for_node(node, cmos_corner=corner)
            card = characterize.characterize_cell(pdk)
            path = os.path.join(unit_dir, "cell-%s.cfg" % corner.value)
            with open(path, "w") as handle:
                handle.write(card.render())
            ensemble = self._ensemble(pdk, self.ensemble_scales[k])
            cos_angle = self._pulse(pdk, self.pulse_scales[k], self.llg_seed + k)
            points.append((corner.value, pdk, path, card, ensemble, cos_angle))
            times.append(time.perf_counter())
        end = time.perf_counter()

        def read_back():
            """Each corner's cell-configuration file, parsed and fed to
            the array model with that corner's PDK, at every
            organisation of READBACK_ARRAYS."""
            parsed, estimates = [], []
            for _, pdk, path, _, _, _ in points:
                with open(path) as handle:
                    config = cellconfig.CellConfig.parse(handle.read())
                parsed.append(config)
                estimates.append([
                    NVSimEstimator(pdk, replace(
                        PAPER_ARRAY, subarray_rows=rows, subarray_cols=cols
                    ), config).estimate()
                    for rows, cols in READBACK_ARRAYS
                ])
            return parsed, estimates

        (parsed, estimates), readbacks = self.read_back(read_back)

        problems: List[str] = []
        rows: List[list] = []
        probabilities = []
        for k, (corner, _, path, card, ensemble, cos_angle) in enumerate(points):
            scale = self.ensemble_scales[k]
            if parsed[k] != card:
                problems.append("%s card does not read back equal" % corner)
            values = [getattr(estimate, name) for estimate in estimates[k]
                      for name in ESTIMATE_FIELDS]
            if not all(math.isfinite(v) and v > 0 for v in values):
                problems.append("%s card gives a non-positive array estimate"
                                % corner)
            if not (card.switching_current > 2.0 * card.critical_current
                    and 0.1e-9 < card.switching_delay < 6e-9
                    and card.read_energy < 0.1 * card.write_energy
                    and card.read_current < card.switching_current):
                problems.append("%s card fails the physical sanity bounds"
                                % corner)
            norms = np.linalg.norm(ensemble.magnetization, axis=2)
            if not np.all(np.abs(norms - 1.0) < 1e-9):
                problems.append("LLG rows leave the unit sphere at %.2f I_c0"
                                % scale)
            probabilities.append(float(np.mean(ensemble.switched)))
            if not (math.isfinite(cos_angle) and -1.0 <= cos_angle <= 1.0):
                problems.append("pulse at %s left cos=%r" % (corner, cos_angle))
            rows.append([node, corner, sig(scale), sig(probabilities[-1]),
                         sig(cos_angle)] + [
                sig(value) for value in card.as_dict().values()
            ] + [sig(value) for value in values])
        if any(b < a for a, b in zip(probabilities, probabilities[1:])):
            problems.append("switching probability falls as |I| grows: %s"
                            % probabilities)
        return Unit(
            start=start, completions=times, campaign_end=end, end=end,
            readbacks=readbacks, attempted=len(times), failed=0,
            rows=rows, problems=problems,
        )


WORKLOADS = {
    cls.name: cls for cls in (MemoryMC, MemoryScreen, SystemNet, Device)
}
