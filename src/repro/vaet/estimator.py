"""VAET-STT top level: the variation-aware memory estimator.

Produces the Table 1 comparison — nominal (NVSim) values next to the
mean and standard deviation of the variation-aware distributions — and
bundles the margin, ECC and read-disturb analyses behind one object.

"The results show that the variation-aware latency and energy values
are significantly higher than those of the nominal case, highlighting
the importance of variation-aware analysis." (Sec. III)
"""

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.cells.cellconfig import CellConfig
from repro.nvsim.config import MemoryConfig
from repro.nvsim.estimator import NVSimEstimator
from repro.nvsim.result import MemoryEstimate
from repro.pdk.kit import ProcessDesignKit
from repro.utils.table import Table
from repro.vaet.distributions import DistributionSummary, summarize
from repro.vaet.ecc import ECCAnalysis, ECCPoint
from repro.vaet.error_rates import ErrorRateAnalysis, ReadMarginResult
from repro.vaet.montecarlo import MonteCarloEngine
from repro.vaet.read_disturb import ReadDisturbAnalysis
from repro.vaet.variation_model import VariationModel


@dataclass(frozen=True)
class VariationAwareEstimate:
    """Nominal + distribution estimate of one memory macro (Table 1).

    Attributes:
        nominal: The variation-unaware NVSim estimate.
        write_latency: Distribution of word write latency.
        write_energy: Distribution of word write energy.
        read_latency: Distribution of word read latency.
        read_energy: Distribution of word read energy.
    """

    nominal: MemoryEstimate
    write_latency: DistributionSummary
    write_energy: DistributionSummary
    read_latency: DistributionSummary
    read_energy: DistributionSummary

    def render(self, title: str = "VAET-STT estimate") -> str:
        """Render the Table-1-style nominal / mu / sigma table."""
        table = Table(["metric", "nominal", "mu", "sigma"], title=title)
        rows = [
            ("write latency (ns)", self.nominal.write_latency, self.write_latency, 1e9),
            ("write energy (pJ)", self.nominal.write_energy, self.write_energy, 1e12),
            ("read latency (ns)", self.nominal.read_latency, self.read_latency, 1e9),
            ("read energy (pJ)", self.nominal.read_energy, self.read_energy, 1e12),
        ]
        for label, nominal, dist, scale in rows:
            table.add_row(
                [label, nominal * scale, dist.mean * scale, dist.std * scale]
            )
        return table.render()


def _memoised(memo: Dict[tuple, tuple], key: tuple, compute: Callable[[], object]):
    """``compute()`` memoised under ``key``.

    A ValueError (a target the array cannot reach) is memoised too and
    raised again on every hit.
    """
    if key not in memo:
        try:
            memo[key] = (True, compute())
        except ValueError as exc:
            memo[key] = (False, str(exc))
    ok, value = memo[key]
    if not ok:
        raise ValueError(value)
    return value


class VAETSTT:
    """Variation Aware Estimator Tool for STT-MRAM (paper ref. [6]).

    Every analysis and solve is memoised on the tool, so one instance
    serves any number of reliability targets over the same array and
    samples and solves each only once.

    Args:
        pdk: Hybrid PDK at the node under study.
        config: Memory organisation.
        cell_config: Optional characterised bit cell.
        seed: Monte Carlo seed (fixed for reproducible tables).
        error_population: Cell population sampled by the margin solver.
            The default reproduces the paper tables; DSE campaigns dial
            it down for throughput.
        budgets: Memo of per-bit WER budget solves for the ECC study
            (see :class:`~repro.vaet.ecc.ECCAnalysis`); pass one dict to
            several tools to share the solves between them.
    """

    def __init__(
        self,
        pdk: ProcessDesignKit,
        config: MemoryConfig,
        cell_config: Optional[CellConfig] = None,
        seed: int = 2018,
        error_population: int = 200_000,
        budgets: Optional[Dict[tuple, float]] = None,
    ):
        self.pdk = pdk
        self.config = config
        self.nvsim = NVSimEstimator(pdk, config, cell_config)
        self.variation = VariationModel(pdk, self.nvsim.subarray)
        self._leaf_timing = self.nvsim.subarray.timing()
        self._bank_timing = self.nvsim.bank.timing()
        self.engine = MonteCarloEngine(
            self.variation, self._leaf_timing, self._bank_timing, config.word_bits
        )
        self.seed = seed
        self.error_population = error_population
        self._error_analyses: dict = {}
        self._ecc_analyses: dict = {}
        self._disturb_analyses: dict = {}
        self._budgets = budgets
        self._results: Dict[tuple, tuple] = {}

    def estimate(
        self, num_words: int = 4000, seed: Optional[int] = None
    ) -> VariationAwareEstimate:
        """Monte Carlo the Table-1 distributions.

        Args:
            num_words: Sampled word count.
            seed: Explicit RNG seed for this estimate; defaults to the
                tool seed so existing tables are bit-identical.

        Memoised per (``num_words``, seed).
        """
        key = self.seed if seed is None else seed
        return _memoised(
            self._results, ("estimate", num_words, key),
            lambda: self._sample_estimate(num_words, key),
        )

    def _sample_estimate(self, num_words: int, seed: int) -> VariationAwareEstimate:
        rng = np.random.default_rng(seed)
        writes = self.engine.sample_writes(rng, num_words)
        reads = self.engine.sample_reads(rng, num_words)
        return VariationAwareEstimate(
            nominal=self.nvsim.estimate(),
            write_latency=summarize(writes.latency),
            write_energy=summarize(writes.energy),
            read_latency=summarize(reads.latency),
            read_energy=summarize(reads.energy),
        )

    def error_rates(self, seed: Optional[int] = None) -> ErrorRateAnalysis:
        """The Fig. 7 margin solver (cached per seed — sampling is heavy)."""
        key = self.seed if seed is None else seed
        if key not in self._error_analyses:
            self._error_analyses[key] = ErrorRateAnalysis(
                self.engine, population=self.error_population, seed=key
            )
        return self._error_analyses[key]

    def ecc(self) -> ECCAnalysis:
        """The Fig. 8 ECC study (cached per seed, like the margin solver)."""
        key = self.seed
        if key not in self._ecc_analyses:
            self._ecc_analyses[key] = ECCAnalysis(
                self.error_rates(), budgets=self._budgets
            )
        return self._ecc_analyses[key]

    def read_margin(self, rer_target: float) -> ReadMarginResult:
        """The margin solver's read margin at the tool seed, memoised
        per target.

        Raises:
            ValueError: If the target is unreachable (also memoised).
        """
        return _memoised(
            self._results, ("read", rer_target),
            lambda: self.error_rates().read_margin(rer_target),
        )

    def ecc_point(self, correct_bits: int, wer_target: float) -> ECCPoint:
        """One point of the ECC study at the tool seed, memoised per
        (``correct_bits``, ``wer_target``).

        Raises:
            ValueError: If the target is unreachable (also memoised).
        """
        return _memoised(
            self._results, ("ecc", correct_bits, wer_target),
            lambda: self.ecc().point(correct_bits, wer_target),
        )

    def read_disturb(self) -> ReadDisturbAnalysis:
        """The Fig. 9 read-disturb study (cached per seed — its
        per-cell dwell-time pass over the population is heavy)."""
        key = self.seed
        if key not in self._disturb_analyses:
            self._disturb_analyses[key] = ReadDisturbAnalysis(self.error_rates())
        return self._disturb_analyses[key]
