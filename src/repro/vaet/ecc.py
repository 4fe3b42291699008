"""ECC trade-off analysis (Fig. 8).

"Another approach is to reduce the timing margin and employ appropriate
Error Correcting Codes (ECCs) to correct errors in the tail of the
distribution ... compared to the case with no ECC (0-bit correction),
there is a drastic improvement in latency by using an ECC with one-bit
error correction.  However, the improvement in latency for higher bit
error correction is comparatively less."

Model: a t-error-correcting BCH code over the data word tolerates up to
t failed bits per codeword, so the *per-bit* WER budget relaxes from
~target/n (t=0, union bound) to the p solving P[Binom(n, p) > t] =
target — orders of magnitude looser.  The looser per-bit budget
shortens the pulse; the decoder adds a latency and storage tax that
grows with t, producing the diminishing returns of Fig. 8.
"""

import math
from dataclasses import dataclass
from typing import Dict, List, Optional

from scipy import optimize, stats

from repro.vaet.error_rates import ErrorRateAnalysis


def bch_parity_bits(data_bits: int, correct_bits: int) -> int:
    """Parity bits of a binary BCH code correcting ``correct_bits``.

    r ~ m * t with m = ceil(log2(n+1)); exact for the narrow-sense
    binary BCH family used by memory controllers.
    """
    if correct_bits == 0:
        return 0
    m = max(1, math.ceil(math.log2(data_bits + 1)))
    return m * correct_bits


def block_failure_probability(codeword_bits: int, per_bit_wer: float,
                              correct_bits: int) -> float:
    """P[more than ``correct_bits`` of ``codeword_bits`` fail]."""
    if per_bit_wer <= 0.0:
        return 0.0
    if per_bit_wer >= 1.0:
        return 1.0
    return float(stats.binom.sf(correct_bits, codeword_bits, per_bit_wer))


def per_bit_budget(codeword_bits: int, correct_bits: int, target: float) -> float:
    """Per-bit WER allowed so the block failure stays below ``target``.

    Solved on log10(p) with bisection; the Poisson small-p approximation
    P ~ (n p)^(t+1) / (t+1)! seeds the bracket.

    Raises:
        ValueError: On a non-physical target.
    """
    if not 0.0 < target < 1.0:
        raise ValueError("target must be in (0, 1)")

    def gap(log_p: float) -> float:
        p = 10.0 ** log_p
        probability = block_failure_probability(codeword_bits, p, correct_bits)
        return math.log10(max(probability, 1e-300)) - math.log10(target)

    lo, hi = -30.0, -0.01
    if gap(lo) > 0.0:
        raise ValueError("target unreachable even at per-bit WER 1e-30")
    return 10.0 ** optimize.brentq(gap, lo, hi, xtol=1e-6)


@dataclass(frozen=True)
class ECCPoint:
    """One point of the ECC-vs-latency trade (one bar of Fig. 8).

    Attributes:
        correct_bits: Correction capability t.
        codeword_bits: Data + parity bits written per access.
        per_bit_wer: Relaxed per-bit WER budget.
        pulse_width: Required per-phase write pulse [s].
        decoder_latency: Encode+decode pipeline latency [s].
        total_latency: Full write latency including ECC logic [s].
        storage_overhead: Parity bits / data bits.
    """

    correct_bits: int
    codeword_bits: int
    per_bit_wer: float
    pulse_width: float
    decoder_latency: float
    total_latency: float
    storage_overhead: float


class ECCAnalysis:
    """Write-latency vs ECC strength study over one array.

    Args:
        analysis: The array's margin solver.
        budgets: Memo of :func:`per_bit_budget` solves, keyed by its
            arguments.  The solve is pure in them, so one dict may be
            shared by the analyses of several arrays; by default each
            analysis keeps its own.
    """

    def __init__(self, analysis: ErrorRateAnalysis,
                 budgets: Optional[Dict[tuple, float]] = None):
        self.analysis = analysis
        self.engine = analysis.engine
        self.budgets = {} if budgets is None else budgets
        self._floor: Optional[float] = None

    def stuck_floor(self) -> float:
        """Population-mean per-cell WER no pulse can beat (1 s pulse:
        only stuck cells remain), computed once."""
        if self._floor is None:
            self._floor = self.analysis.mean_cell_wer(1.0)
        return self._floor

    def _pulse_for_per_bit_wer(self, per_bit: float) -> float:
        """Invert the population-mean per-cell WER for a pulse width."""
        mean_wer = self.analysis.mean_cell_wer

        floor = self.stuck_floor()
        if per_bit <= floor:
            raise ValueError(
                "per-bit WER %.1e below stuck-cell floor %.1e" % (per_bit, floor)
            )

        def gap(log_pulse: float) -> float:
            wer = max(mean_wer(math.exp(log_pulse)), 1e-299)
            return math.log(wer) - math.log(per_bit)

        lo, hi = math.log(5e-12), math.log(0.9)
        return math.exp(optimize.brentq(gap, lo, hi, xtol=1e-4))

    def decoder_latency(self, correct_bits: int, codeword_bits: int) -> float:
        """Pipeline latency of the BCH encoder/corrector [s].

        t = 0: wire-through.  t = 1 (Hamming): one syndrome XOR tree.
        t > 1: Berlekamp-Massey-style correction, ~2t extra GF stages.
        """
        if correct_bits == 0:
            return 0.0
        fo4 = self.engine.variation.pdk.tech.gate_delay_fo4
        tree_depth = math.ceil(math.log2(codeword_bits))
        syndrome = tree_depth * fo4
        correction = 2.0 * correct_bits * 3.0 * fo4
        return syndrome + correction

    def point(self, correct_bits: int, target_wer: float) -> ECCPoint:
        """Evaluate one correction capability at a block-failure target."""
        if correct_bits < 0:
            raise ValueError("correction capability must be non-negative")
        data_bits = self.engine.word_bits
        parity = bch_parity_bits(data_bits, correct_bits)
        codeword = data_bits + parity
        budget = (codeword, correct_bits, target_wer)
        if budget not in self.budgets:
            self.budgets[budget] = per_bit_budget(*budget)
        per_bit = self.budgets[budget]
        pulse = self._pulse_for_per_bit_wer(per_bit)
        decode = self.decoder_latency(correct_bits, codeword)
        total = self.engine._overhead + 2.0 * pulse + decode
        return ECCPoint(
            correct_bits=correct_bits,
            codeword_bits=codeword,
            per_bit_wer=per_bit,
            pulse_width=pulse,
            decoder_latency=decode,
            total_latency=total,
            storage_overhead=parity / data_bits,
        )

    def sweep(self, max_correct_bits: int, target_wer: float) -> List[ECCPoint]:
        """The Fig. 8 sweep: t = 0 .. max_correct_bits."""
        return [self.point(t, target_wer) for t in range(max_correct_bits + 1)]
