"""Variation-aware design-space exploration.

Sec. III: VAET-STT is "an early stage design exploration tool for
STT-MRAM, which considers process variation, stochastic switching and
reliability requirements in its analysis and memory configuration
optimization"; Sec. IV-B adds "optimization settings (e.g. buffer
design optimization) and various design constraints to facilitate a
variation-aware design space exploration before the fabrication of the
actual memory chip."

The explorer sweeps organisation knobs (subarray shape, ECC strength)
under reliability constraints (target WER/RER, read-disturb budget)
and reports the latency/energy/area frontier.
"""

from dataclasses import dataclass, replace
from typing import Iterable, List, Optional, Sequence

from repro.nvsim.config import MemoryConfig
from repro.pdk.kit import ProcessDesignKit
from repro.utils.serde import check_known_fields
from repro.utils.table import Table
from repro.vaet.estimator import VAETSTT


@dataclass(frozen=True)
class DesignConstraints:
    """Reliability constraints of the exploration.

    Attributes:
        wer_target: Per-word write error target after ECC.
        rer_target: Per-word read error target.
        disturb_budget: Per-word read-disturb budget per access.  The
            disturb tail is dominated by weak (low-Delta) cells, so the
            practical budget sits orders of magnitude above the WER/RER
            targets; scrubbing plus the write-path ECC absorbs it.
        max_ecc_bits: Largest correction capability considered.
    """

    wer_target: float = 1e-15
    rer_target: float = 1e-15
    disturb_budget: float = 1e-4
    max_ecc_bits: int = 3

    def to_dict(self) -> dict:
        """Stable JSON-ready representation (cache-key safe)."""
        return {
            "wer_target": self.wer_target,
            "rer_target": self.rer_target,
            "disturb_budget": self.disturb_budget,
            "max_ecc_bits": self.max_ecc_bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignConstraints":
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: On unknown keys.
        """
        check_known_fields(cls, data)
        return cls(**data)


@dataclass(frozen=True)
class DesignPoint:
    """One evaluated configuration.

    Attributes:
        config: The memory organisation.
        ecc_bits: Chosen ECC correction capability.
        write_latency: Margined write latency meeting the WER target [s].
        read_latency: Margined read latency meeting the RER target [s].
        write_energy: Mean variation-aware write energy [J].
        read_energy: Mean variation-aware read energy [J].
        area: Macro area including ECC storage overhead [m^2].
        read_disturb_ok: Whether the margined read period respects the
            disturb budget.
    """

    config: MemoryConfig
    ecc_bits: int
    write_latency: float
    read_latency: float
    write_energy: float
    read_energy: float
    area: float
    read_disturb_ok: bool

    @property
    def edp_proxy(self) -> float:
        """Latency x energy figure of merit (write-dominated)."""
        return self.write_latency * self.write_energy

    def to_dict(self) -> dict:
        """Stable JSON-ready representation (crosses process/cache
        boundaries in ``repro.dse`` campaigns)."""
        return {
            "config": self.config.to_dict(),
            "ecc_bits": self.ecc_bits,
            "write_latency": float(self.write_latency),
            "read_latency": float(self.read_latency),
            "write_energy": float(self.write_energy),
            "read_energy": float(self.read_energy),
            "area": float(self.area),
            "read_disturb_ok": bool(self.read_disturb_ok),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        """Inverse of :meth:`to_dict`.

        Raises:
            ValueError: On unknown keys.
        """
        check_known_fields(cls, data)
        values = dict(data)
        values["config"] = MemoryConfig.from_dict(values["config"])
        return cls(**values)


class DesignSpaceExplorer:
    """Sweep subarray shapes and ECC strengths under constraints.

    Args:
        pdk: Hybrid PDK.
        base_config: Organisation to perturb.
        constraints: Reliability constraints.
        num_words: Monte Carlo word count per evaluation.
        error_population: Margin-solver cell population per evaluation.
    """

    def __init__(
        self,
        pdk: ProcessDesignKit,
        base_config: MemoryConfig,
        constraints: DesignConstraints = DesignConstraints(),
        num_words: int = 1500,
        error_population: int = 200_000,
    ):
        self.pdk = pdk
        self.base_config = base_config
        self.constraints = constraints
        self.num_words = num_words
        self.error_population = error_population

    def evaluate(
        self,
        config: MemoryConfig,
        seed: Optional[int] = None,
        tool: Optional[VAETSTT] = None,
    ) -> Optional[DesignPoint]:
        """Evaluate one configuration; None if it cannot meet targets.

        Args:
            config: The organisation to evaluate.
            seed: Explicit Monte Carlo seed (defaults to the VAET-STT
                tool seed, preserving historic sweep outputs).
            tool: The organisation's VAET-STT tool, to reuse its
                memoised analyses across reliability constraints; by
                default a fresh one is built.  Results are identical
                either way.

        Raises:
            ValueError: If ``tool`` was built for another organisation,
                seed or population.
        """
        if tool is None:
            seeding = {} if seed is None else {"seed": seed}
            tool = VAETSTT(
                self.pdk, config, error_population=self.error_population,
                **seeding,
            )
        elif (
            tool.config != config
            or (seed is not None and tool.seed != seed)
            or tool.error_population != self.error_population
        ):
            raise ValueError(
                "tool was built for another organisation, seed or population"
            )
        estimate = tool.estimate(num_words=self.num_words)
        constraints = self.constraints
        # The read margin and the disturb budget do not depend on the
        # ECC strength — solve them once, outside the t sweep.
        try:
            read = tool.read_margin(constraints.rer_target)
        except ValueError:
            return None
        disturb = tool.read_disturb()
        period_cap = disturb.max_read_period(constraints.disturb_budget)
        disturb_ok = read.sense_time <= period_cap
        best: Optional[DesignPoint] = None
        for t in range(constraints.max_ecc_bits + 1):
            try:
                point = tool.ecc_point(t, constraints.wer_target)
            except ValueError:
                continue
            area = estimate.nominal.area * (1.0 + point.storage_overhead)
            candidate = DesignPoint(
                config=config,
                ecc_bits=t,
                write_latency=point.total_latency,
                read_latency=read.total_latency,
                write_energy=estimate.write_energy.mean,
                read_energy=estimate.read_energy.mean,
                area=area,
                read_disturb_ok=disturb_ok,
            )
            if best is None or candidate.write_latency < best.write_latency:
                best = candidate
        return best

    def sweep_subarrays(
        self,
        subarray_rows_options: Sequence[int] = (128, 256, 512),
        runner=None,
    ) -> List[DesignPoint]:
        """Evaluate the base config at several subarray heights.

        The sweep is a thin wrapper over the :mod:`repro.dse` engine:
        each height becomes a content-hashed job, so a caching/parallel
        :class:`repro.dse.runner.CampaignRunner` can be passed in to
        reuse prior evaluations.  The default serial runner reproduces
        the historic sequential sweep exactly.

        Args:
            subarray_rows_options: Subarray heights to evaluate.
            runner: Optional ``CampaignRunner`` (serial, uncached by
                default).
        """
        from repro.dse.campaign import memory_point_spec, sweep_points
        from repro.dse.jobs import Job
        from repro.dse.runner import MEMORY_TARGET

        jobs = []
        for rows in subarray_rows_options:
            if rows > self.base_config.rows:
                continue
            config = replace(self.base_config, subarray_rows=rows)
            jobs.append(Job(MEMORY_TARGET, memory_point_spec(self, config)))
        return sweep_points(jobs, runner=runner)

    @staticmethod
    def render(points: Iterable[DesignPoint]) -> str:
        """Tabulate a sweep result."""
        table = Table(
            [
                "subarray",
                "ecc_t",
                "write_lat (ns)",
                "read_lat (ns)",
                "write_E (pJ)",
                "area (mm^2)",
                "disturb_ok",
            ],
            title="VAET-STT design space exploration",
        )
        for point in points:
            table.add_row(
                [
                    "%dx%d" % (point.config.subarray_rows, point.config.subarray_cols),
                    point.ecc_bits,
                    point.write_latency * 1e9,
                    point.read_latency * 1e9,
                    point.write_energy * 1e12,
                    point.area * 1e6,
                    point.read_disturb_ok,
                ]
            )
        return table.render()
