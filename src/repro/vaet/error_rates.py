"""Error-rate driven timing margins (Fig. 7).

"Due to the high value of sigma for the latencies, a large timing
margin is required to keep the error rates within acceptable limits"
and "for lower values of target error rates, high timing margins are
required" (Sec. III).

Writes: the per-cell WER envelope WER(t) = (pi^2 Delta / 4) e^(-2 r t)
is averaged over the sampled process population (each cell has its own
Delta and rate r), union-bounded over the word, and inverted for the
pulse width that meets the target.  The average is dominated by the
weak-cell tail — exactly the effect VAET-STT exists to capture.

Reads: sensing fails when the developed differential at the sense
instant is below the latch offset.  Longer sensing develops more
signal, so RER falls with read period; the Gaussian signal/offset
budget gives RER(t) in closed form.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize
from scipy.special import ndtr

from repro.nvsim.subarray import SENSE_MARGIN
from repro.vaet.montecarlo import MonteCarloEngine
from repro.vaet.variation_model import CellSamples


@dataclass(frozen=True)
class WriteMarginResult:
    """Write-latency solve for one WER target.

    Attributes:
        wer_target: Per-word write error rate target.
        pulse_width: Required per-phase pulse width [s].
        total_latency: Overhead + two margined phases [s].
    """

    wer_target: float
    pulse_width: float
    total_latency: float


@dataclass(frozen=True)
class ReadMarginResult:
    """Read-latency solve for one RER target.

    Attributes:
        rer_target: Per-word read error rate target.
        sense_time: Required signal development time [s].
        total_latency: Overhead + develop + regeneration [s].
    """

    rer_target: float
    sense_time: float
    total_latency: float


class ErrorRateAnalysis:
    """WER/RER timing-margin solver bound to one Monte Carlo engine."""

    def __init__(self, engine: MonteCarloEngine, population: int = 200_000,
                 seed: int = 2018):
        self.engine = engine
        rng = np.random.default_rng(seed)
        self.cells: CellSamples = engine.variation.sample_cells(rng, population)
        self._rates = engine.variation.switching_rates(self.cells)
        self._signals = engine.variation.read_signal_currents(self.cells)
        # Pulse-independent factors, hoisted so the margin solvers (tens
        # of word_wer/word_rer evaluations per brentq call) only pay for
        # one exp/ndtr pass over the population per iteration.
        self._switching = self._rates > 0.0
        self._stuck_fraction = float(np.mean(self._rates <= 0.0))
        self._envelope = (math.pi ** 2) * self.cells.delta / 4.0
        self._nominal_signal = float(np.median(self._signals))
        cdv = engine.leaf.sense.develop_time * self._nominal_signal
        # C such that t_nom develops dV across the nominal cell.
        self._capacitance_equiv = cdv / SENSE_MARGIN
        self._developed_per_second = self._signals / self._capacitance_equiv

    # -- writes -------------------------------------------------------

    def mean_cell_wer(self, pulse_width: float) -> float:
        """Population-mean per-cell WER (no word union bound).

        The shared write-error kernel: cells with zero precessional
        rate (delivered current below I_c0) contribute WER 1 — they
        dominate once the sampled population is large enough to contain
        them.  Also the per-bit WER the ECC layer budgets against.
        """
        if pulse_width <= 0.0:
            return 1.0
        return self._mean_cell_wer(pulse_width)

    def _mean_cell_wer(self, pulse_width: float) -> float:
        """The :meth:`mean_cell_wer` kernel for a positive pulse width."""
        per_cell = self._envelope * np.exp(-2.0 * self._rates * pulse_width)
        per_cell = np.where(self._switching, np.minimum(per_cell, 1.0), 1.0)
        return float(np.mean(per_cell))

    def word_wer(self, pulse_width) -> float:
        """Expected per-word WER at a per-phase pulse width.

        Population-averaged per-cell WER, union-bounded over the word.
        Accepts a scalar pulse width (returns a float) or an array of
        pulse widths (returns an array, one WER per pulse — the batch
        fast path evaluates the whole sweep in one broadcast).
        """
        if np.ndim(pulse_width) > 0:
            return self._word_wer_batch(np.asarray(pulse_width, dtype=float))
        mean_wer = self.mean_cell_wer(float(pulse_width))
        return min(1.0, max(mean_wer * self.engine.word_bits, 1e-300))

    def _word_wer_batch(self, pulse_widths: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`word_wer` over an array of pulse widths."""
        pulses = pulse_widths[:, None]
        per_cell = self._envelope[None, :] * np.exp(
            -2.0 * self._rates[None, :] * pulses
        )
        per_cell = np.where(
            self._switching[None, :], np.minimum(per_cell, 1.0), 1.0
        )
        mean_wer = np.where(
            pulse_widths > 0.0, np.mean(per_cell, axis=1), 1.0
        )
        return np.minimum(
            1.0, np.maximum(mean_wer * self.engine.word_bits, 1e-300)
        )

    def write_margin(self, wer_target: float) -> WriteMarginResult:
        """Solve the pulse width for a per-word WER target.

        Raises:
            ValueError: If the target is unreachable (stuck-cell floor —
                the population contains sub-critical cells whose WER no
                pulse width can fix; that is ECC's job, Fig. 8).
        """
        if not 0.0 < wer_target < 1.0:
            raise ValueError("WER target must be in (0, 1)")
        floor = self._stuck_fraction * self.engine.word_bits
        if wer_target <= floor:
            raise ValueError(
                "WER target %.1e below the stuck-cell floor %.1e; "
                "requires error correction" % (wer_target, floor)
            )

        def gap(log_pulse: float) -> float:
            wer = max(self.word_wer(math.exp(log_pulse)), 1e-299)
            return math.log(wer) - math.log(wer_target)

        lo, hi = math.log(10e-12), math.log(1e-6)
        pulse = math.exp(optimize.brentq(gap, lo, hi, xtol=1e-4))
        total = self.engine._overhead + 2.0 * pulse
        return WriteMarginResult(wer_target, pulse, total)

    # -- reads ----------------------------------------------------------

    def word_rer(self, sense_time, offset_sigma: float = None) -> float:
        """Expected per-word RER for a given development time.

        The developed differential of bit i is I_i * t / C; it must beat
        a Gaussian latch offset.  RER_bit = Q((I_i t / C - 0) / sigma_os)
        ... evaluated per sampled cell and union-bounded over the word.
        Accepts a scalar sense time (returns a float) or an array of
        sense times (returns an array, one RER per time).
        """
        sigma = offset_sigma if offset_sigma is not None else SENSE_MARGIN / 3.0
        if np.ndim(sense_time) > 0:
            return self._word_rer_batch(np.asarray(sense_time, dtype=float), sigma)
        if sense_time <= 0.0:
            return 1.0
        return min(1.0, self._mean_cell_rer(sense_time, sigma) * self.engine.word_bits)

    def _mean_cell_rer(self, sense_time: float, sigma: float) -> float:
        """Population-mean per-cell RER at a positive sense time."""
        # ndtr(-x) is scipy's own norm.sf(x) without the distribution
        # dispatch overhead (stats._norm_sf(x) = _norm_cdf(-x)).
        per_cell = ndtr(-(self._developed_per_second * sense_time / sigma))
        return float(np.mean(per_cell))

    def _word_rer_batch(self, sense_times: np.ndarray, sigma: float) -> np.ndarray:
        """Vectorised :meth:`word_rer` over an array of sense times."""
        developed = self._developed_per_second[None, :] * sense_times[:, None]
        per_cell = ndtr(-(developed / sigma))
        mean_rer = np.where(
            sense_times > 0.0, np.mean(per_cell, axis=1), 1.0
        )
        return np.minimum(1.0, mean_rer * self.engine.word_bits)

    def read_margin(self, rer_target: float) -> ReadMarginResult:
        """Solve the sense time for a per-word RER target."""
        if not 0.0 < rer_target < 1.0:
            raise ValueError("RER target must be in (0, 1)")

        def gap(log_time: float) -> float:
            return math.log(
                max(self.word_rer(math.exp(log_time)), 1e-300)
            ) - math.log(rer_target)

        lo, hi = math.log(1e-12), math.log(1e-6)
        sense_time = math.exp(optimize.brentq(gap, lo, hi, xtol=1e-4))
        regen = self.engine.leaf.sense.delay - self.engine.leaf.sense.develop_time
        total = self.engine._overhead + sense_time + regen
        return ReadMarginResult(rer_target, sense_time, total)
