"""MAGPIE: the cross-layer hybrid-memory evaluation flow (Fig. 10).

"MAGPIE is built upon three mature and popular tools: the gem5
full-system simulator, the McPAT and VAET-STT power/energy and area
estimation tools ... MAGPIE promotes a script-oriented approach that
assists a designer in the design and evaluation tasks."

The flow wires every layer of this repository together:

1. **PDK** (circuit level)   — device parameters for the chosen node;
2. **VAET-STT** (memory level) — variation-aware latency/energy/leakage
   of the STT-MRAM L2 macro; NVSim for the SRAM reference;
3. **archsim** (system level) — big.LITTLE runs per kernel/scenario,
   serialised through the gem5-stats text format and re-parsed (the
   "File Parser" boxes are real steps, as in the flow diagram);
4. **mcpat** — component energy roll-up, EDP.
"""

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Tuple

from repro.archsim.memtech import MemoryTechnology
from repro.archsim.simulator import simulate
from repro.archsim.soc import SoCConfig
from repro.archsim.stats import ActivityReport
from repro.archsim.workloads import PARSEC_KERNELS, WorkloadDescriptor
from repro.magpie.scenarios import Scenario, build_scenario
from repro.mcpat.components import EnergyBreakdown, estimate_energy
from repro.nvsim.config import CellKind, MemoryConfig
from repro.nvsim.estimator import NVSimEstimator
from repro.pdk.kit import ProcessDesignKit
from repro.vaet.estimator import VAETSTT

#: L2 cache line size in bits (64-byte lines).
L2_LINE_BITS = 512


@dataclass
class ScenarioResult:
    """One (kernel, scenario) evaluation.

    Attributes:
        scenario: The evaluated scenario.
        report: Parsed activity report.
        energy: Component energy breakdown.
    """

    scenario: Scenario
    report: ActivityReport
    energy: EnergyBreakdown


class MagpieFlow:
    """Script-oriented cross-layer evaluation flow.

    Args:
        node_nm: CMOS node for the whole platform (45 in the paper's
            illustration).
        base: Optional platform override (core counts, SRAM L2 sizes).
        wer_target: Reliability target the STT-MRAM L2 write path is
            margined for (sets its write latency through VAET-STT).
    """

    def __init__(
        self,
        node_nm: int = 45,
        base: Optional[SoCConfig] = None,
        wer_target: float = 1e-9,
    ):
        self.node_nm = node_nm
        self.pdk = ProcessDesignKit.for_node(node_nm)
        self.base = base or SoCConfig.full_sram()
        self.wer_target = wer_target
        self._memory_records: Dict[float, Tuple[MemoryTechnology, MemoryTechnology]] = {}

    # -- memory level ---------------------------------------------------

    def memory_records(self) -> Tuple[MemoryTechnology, MemoryTechnology]:
        """(SRAM L2, STT-MRAM L2) macro records from the memory level.

        The STT record is variation-aware: its write latency carries the
        VAET-STT margin for the flow's WER target and ECC t=1, its
        energies are the Monte-Carlo means; the SRAM record comes from
        the plain NVSim path.  Cached per WER target — this is the
        expensive stage, and reconfiguring ``wer_target`` on a live flow
        must not serve records margined for the old target.
        """
        if self.wer_target in self._memory_records:
            return self._memory_records[self.wer_target]
        array = MemoryConfig(
            rows=1024, cols=1024, word_bits=L2_LINE_BITS,
            subarray_rows=256, subarray_cols=256,
        )
        # SRAM reference macro.
        sram_estimator = NVSimEstimator(
            self.pdk, replace(array, cell=CellKind.SRAM)
        )
        sram = sram_estimator.estimate()
        megabit_to_mb = 8.0  # 1 MiB = 8 of these 1 Mb arrays.
        sram_record = MemoryTechnology(
            label="sram",
            read_latency=sram.read_latency,
            write_latency=sram.write_latency,
            read_energy=sram.read_energy,
            write_energy=sram.write_energy,
            leakage_per_mb=sram.leakage_power * megabit_to_mb,
            area_per_mb=sram.area * megabit_to_mb,
        )
        # STT-MRAM macro through VAET-STT.
        tool = VAETSTT(self.pdk, array)
        estimate = tool.estimate(num_words=1500)
        ecc_point = tool.ecc().point(1, self.wer_target)
        read_margin = tool.error_rates().read_margin(min(self.wer_target, 1e-9))
        stt_record = MemoryTechnology(
            label="stt-mram",
            read_latency=read_margin.total_latency,
            write_latency=ecc_point.total_latency,
            read_energy=estimate.read_energy.mean,
            write_energy=estimate.write_energy.mean,
            leakage_per_mb=estimate.nominal.leakage_power * megabit_to_mb,
            area_per_mb=estimate.nominal.area * megabit_to_mb,
        )
        self._memory_records[self.wer_target] = (sram_record, stt_record)
        return self._memory_records[self.wer_target]

    # -- system level ---------------------------------------------------

    def build_soc(self, scenario: Scenario) -> SoCConfig:
        """Instantiate the platform for one scenario."""
        sram_record, stt_record = self.memory_records()
        return build_scenario(scenario, sram_record, stt_record, self.base)

    def run_one(self, workload: WorkloadDescriptor, scenario: Scenario) -> ScenarioResult:
        """Evaluate one kernel under one scenario.

        The activity report round-trips through its text serialisation,
        mirroring the gem5-stats -> file-parser handoff of Fig. 10.
        """
        soc = self.build_soc(scenario)
        raw_report = simulate(soc, workload)
        report = ActivityReport.parse(raw_report.render())
        energy = estimate_energy(soc, report)
        return ScenarioResult(scenario=scenario, report=report, energy=energy)

    def run(
        self,
        workloads: Optional[Iterable[str]] = None,
        scenarios: Optional[Iterable[Scenario]] = None,
        progress=None,
    ) -> Dict[Tuple[str, Scenario], ScenarioResult]:
        """Evaluate a kernel x scenario grid.

        The grid is a serial, uncached :mod:`repro.dse` system campaign
        over this flow's memory-level records: each (kernel, scenario)
        cell is a content-hashed job, evaluated in grid order, which
        reproduces the historic cell-by-cell outputs exactly.

        Args:
            workloads: Parsec kernel names (default: all, sorted).
            scenarios: Scenario members or their string values
                (default: all).
            progress: Optional per-cell streaming callback (see
                ``repro.dse.runner.Progress``).

        Raises:
            KeyError: On unknown kernel names or scenario values.
        """
        from repro.dse.campaign import _drive, _system_plan

        plan = _system_plan(self, workloads, scenarios)
        return _drive(plan, None, workers=1, progress=progress).results

    def validate_grid(
        self,
        workloads: Optional[Iterable[str]] = None,
        scenarios: Optional[Iterable[Scenario]] = None,
    ) -> Tuple[List[str], List[Scenario]]:
        """Validated (kernel names, Scenario list) grid axes.

        The single source of kernel/scenario validation, shared with the
        ``repro.dse`` system campaigns.

        Raises:
            KeyError: On unknown kernel names or scenario values.
        """
        names = list(workloads) if workloads is not None else sorted(PARSEC_KERNELS)
        for name in names:
            if name not in PARSEC_KERNELS:
                raise KeyError(
                    "unknown kernel %r; available: %s" % (name, sorted(PARSEC_KERNELS))
                )
        return names, self._validate_scenarios(scenarios)

    @staticmethod
    def _validate_scenarios(
        scenarios: Optional[Iterable[Scenario]],
    ) -> List[Scenario]:
        """Normalise a scenario iterable, mirroring the kernel check."""
        if scenarios is None:
            return list(Scenario)
        chosen: List[Scenario] = []
        for scenario in scenarios:
            if isinstance(scenario, Scenario):
                chosen.append(scenario)
                continue
            try:
                chosen.append(Scenario(scenario))
            except ValueError:
                raise KeyError(
                    "unknown scenario %r; available: %s"
                    % (scenario, sorted(s.value for s in Scenario))
                )
        return chosen
