"""In-memory span tracer installed around the repro package's layers.

A span records a name, start and end (``time.perf_counter``, which is
CLOCK_MONOTONIC and therefore comparable across processes on one
host), its parent span in the same thread, the design point it serves
and an optional number (steps, rows x steps, a cache-hit flag, ...).
Spans stay in memory and are written out only when a run ends.

Wrappers replace the attribute each caller resolves at call time: a
class attribute, or a module global looked up by the calling module.
A name that a module bound with a top-level ``from ... import`` keeps
the unwrapped function, so each wrapper below names the module whose
global the caller actually reads.
"""

import contextlib
import functools
import importlib
import json
import threading
import time
from typing import Callable, Dict, List, Optional, Sequence, Tuple


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: List[Tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0
        self._patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def paused(self) -> bool:
        return getattr(self._local, "paused", False)

    @contextlib.contextmanager
    def pause(self):
        """Call through every wrapper of this thread without recording."""
        self._local.paused = True
        try:
            yield
        finally:
            self._local.paused = False

    def begin(self, name: str, point=None) -> list:
        """Start a span; returns the mutable record :meth:`end` closes."""
        stack = self._stack()
        with self._lock:
            span_id = self._next_id
            self._next_id += 1
        parent = stack[-1] if stack else None
        if point is None and parent is not None:
            point = parent[4]
        record = [span_id, name, time.perf_counter(), None,
                  point, None if parent is None else parent[0], None]
        stack.append(record)
        return record

    def end(self, record: list, value=None) -> None:
        record[3] = time.perf_counter()
        record[6] = value
        stack = self._stack()
        if stack and stack[-1] is record:
            stack.pop()
        with self._lock:
            self.spans.append(tuple(record))

    def span(self, name: str, fn: Callable, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        record = self.begin(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.end(record)

    # -- wrapping -------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             value: Optional[Callable] = None,
             point: Optional[Callable] = None) -> Callable:
        """A traced twin of ``fn``.

        ``value(args, kwargs, result)`` gives the span's number;
        ``point(args, kwargs)`` names the design point the call serves.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            record = tracer.begin(
                name, None if point is None else point(args, kwargs)
            )
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.end(
                    record,
                    None if value is None else value(args, kwargs, result),
                )

        return traced

    def wrap_generator(self, name: str, fn: Callable) -> Callable:
        """Trace each ``next()`` of the generator ``fn`` returns.

        The span covers only the time the consumer is blocked inside
        the generator, never the consumer's own work between items.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            try:
                while True:
                    record = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(record)
                    yield item
            finally:
                inner.close()

        return traced

    def install(self, patches: Sequence["Patch"]) -> None:
        """Replace every patched attribute with its traced twin."""
        for patch in patches:
            owner, attr = patch.resolve()
            own = attr in vars(owner)
            raw = vars(owner)[attr] if own else getattr(owner, attr)
            if isinstance(raw, classmethod):
                replacement = classmethod(
                    self.wrap(patch.name, raw.__func__, patch.value)
                )
            elif patch.generator:
                replacement = self.wrap_generator(patch.name, raw)
            else:
                replacement = self.wrap(
                    patch.name, raw, patch.value, patch.point
                )
            setattr(owner, attr, replacement)
            self._patched.append((owner, attr, raw if own else None))

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attr, raw = self._patched.pop()
            if raw is None:  # was inherited: drop the override
                delattr(owner, attr)
            else:
                setattr(owner, attr, raw)

    # -- export ---------------------------------------------------------

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump([list(span) for span in self.spans], handle)


class Patch:
    """One wrapped attribute: ``module:Owner.attr`` or ``module:attr``."""

    def __init__(self, name: str, target: str,
                 value: Optional[Callable] = None,
                 point: Optional[Callable] = None,
                 generator: bool = False):
        self.name = name
        self.target = target
        self.value = value
        self.point = point
        self.generator = generator

    def resolve(self) -> Tuple[object, str]:
        module_name, _, path = self.target.partition(":")
        owner = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        return owner, parts[-1]


# -- span numbers ---------------------------------------------------------


def _steps(duration: float, timestep: float) -> int:
    return max(1, int(round(duration / timestep)))


def _llg_steps(args, kwargs, result):
    """Integration steps of ``MacrospinLLG.run(initial, duration)``."""
    duration = args[2] if len(args) > 2 else kwargs["duration"]
    return _steps(duration, args[0].config.timestep)


def _llg_row_steps(args, kwargs, result):
    """Rows x steps of ``MacrospinLLG.run_batch(initials, duration)``."""
    initials = args[1] if len(args) > 1 else kwargs["initials"]
    return len(initials) * _llg_steps(args, kwargs, result)


def _transient_steps(args, kwargs, result):
    return _steps(kwargs["stop_time"], kwargs["timestep"])


def _found(args, kwargs, result):
    """1 for a cache hit or a chosen design point, else 0."""
    return 0 if result is None else 1


def _op(args, kwargs, result):
    message = args[1] if len(args) > 1 else kwargs.get("message", {})
    return message.get("op") if isinstance(message, dict) else None


def _payload_point(args, kwargs):
    payload = args[0]
    return "%x" % int(payload[2])


#: Every layer boundary the traced run records.
PATCHES = [
    # core
    Patch("core.llg_run", "repro.core.llg:MacrospinLLG.run", _llg_steps),
    Patch("core.llg_run_batch", "repro.core.llg:MacrospinLLG.run_batch",
          _llg_row_steps),
    # pdk
    Patch("pdk.for_node", "repro.pdk.kit:ProcessDesignKit.for_node"),
    # spice + cells (characterize binds ``transient`` at import time)
    Patch("spice.transient", "repro.cells.characterize:transient",
          _transient_steps),
    Patch("cells.characterize", "repro.cells.characterize:characterize_cell"),
    # nvsim
    Patch("nvsim.estimate", "repro.nvsim.estimator:NVSimEstimator.estimate"),
    # vaet
    Patch("vaet.explore", "repro.vaet.explorer:DesignSpaceExplorer.evaluate",
          _found),
    Patch("vaet.mc_estimate", "repro.vaet.estimator:VAETSTT.estimate"),
    Patch("vaet.error_rates", "repro.vaet.estimator:VAETSTT.error_rates"),
    Patch("vaet.read_disturb", "repro.vaet.estimator:VAETSTT.read_disturb"),
    Patch("vaet.read_disturb",
          "repro.vaet.read_disturb:ReadDisturbAnalysis.max_read_period"),
    Patch("vaet.sample_cells",
          "repro.vaet.variation_model:VariationModel.sample_cells"),
    Patch("vaet.read_margin",
          "repro.vaet.error_rates:ErrorRateAnalysis.read_margin"),
    Patch("vaet.ecc_point", "repro.vaet.ecc:ECCAnalysis.point"),
    Patch("vaet.per_bit_budget", "repro.vaet.ecc:per_bit_budget"),
    # system level (campaign.py imports these inside the function bodies)
    Patch("magpie.memory_records", "repro.magpie.flow:MagpieFlow.memory_records"),
    Patch("archsim.simulate", "repro.archsim.simulator:simulate"),
    Patch("mcpat.estimate_energy", "repro.mcpat.components:estimate_energy"),
    # dse engine
    Patch("dse.evaluate", "repro.dse.runner:_execute_plain",
          point=_payload_point),
    Patch("dse.content_key", "repro.dse.jobs:content_key"),
    Patch("dse.cache_get", "repro.dse.cache:ResultCache.get", _found),
    Patch("dse.cache_put", "repro.dse.cache:ResultCache.put"),
    Patch("dse.journal_append", "repro.dse.journal:JsonlJournal.append"),
    Patch("dse.analytics.build_report", "repro.dse.analytics:build_report"),
    Patch("dse.pareto", "repro.dse.analytics:update_front"),
    Patch("dse.pareto", "repro.dse.analytics:hypervolume_proxy"),
    Patch("dse.pareto", "repro.dse.analytics:objective_bounds"),
    Patch("dse.executor.wait", "repro.dse.net.server:NetworkExecutor.imap",
          generator=True),
    Patch("dse.net.handle_message",
          "repro.dse.net.server:CampaignServer.handle_message", _op),
    Patch("dse.net.request", "repro.dse.net.protocol:Connection.request", _op),
]


def load_spans(path: str) -> List[Tuple]:
    with open(path) as handle:
        return [tuple(span) for span in json.load(handle)]


def self_times(spans: Sequence[Tuple]) -> Dict[int, float]:
    """Span id -> duration minus the part its child spans cover.

    Children nest inside their parent on one thread, so they never
    overlap and their durations add up to the covered part.
    """
    child_total: Dict[int, float] = {}
    for span in spans:
        parent = span[5]
        if parent is not None:
            child_total[parent] = child_total.get(parent, 0.0) + (span[3] - span[2])
    return {
        span[0]: (span[3] - span[2]) - child_total.get(span[0], 0.0)
        for span in spans
    }
