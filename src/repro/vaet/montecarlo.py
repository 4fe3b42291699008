"""Monte Carlo engine for word-level write/read statistics.

Writes: a word completes when its slowest bit has switched; two-phase
row writes double the pulse stage.  Reads: the word is sensed in
parallel and completes when the weakest-signal bit has developed the
required margin.  Both are sampled fully vectorised; the word
reductions have cell-at-a-time references in :mod:`repro.vaet.reference`.
"""

from dataclasses import dataclass

import numpy as np

from repro.nvsim.bank import BankTiming
from repro.nvsim.subarray import SubarrayTiming
from repro.vaet.variation_model import VariationModel

#: Completion time charged to a word holding a non-switching cell [s].
STUCK_WORD_TIME = 100e-9


@dataclass
class WriteSamples:
    """Word-level write Monte Carlo output.

    Attributes:
        latency: Per-word write completion latency [s] (overhead + two
            self-timed phases).
        energy: Per-word write energy [J] at the margined pulse.
        cell_times: Raw per-cell switching times (flattened) [s].
    """

    latency: np.ndarray
    energy: np.ndarray
    cell_times: np.ndarray


@dataclass
class ReadSamples:
    """Word-level read Monte Carlo output.

    Attributes:
        latency: Per-word read latency [s].
        energy: Per-word read energy [J].
        signal_currents: Raw per-cell sense signals (flattened) [A].
    """

    latency: np.ndarray
    energy: np.ndarray
    signal_currents: np.ndarray


class MonteCarloEngine:
    """Word-level sampler bound to one array configuration.

    Args:
        variation: The per-cell variation model.
        subarray_timing: Nominal leaf timing (supplies the RC overheads
            that ride on every access).
        bank_timing: Nominal bank overhead (decoder, H-tree).
        word_bits: Bits per access word.
    """

    def __init__(
        self,
        variation: VariationModel,
        subarray_timing: SubarrayTiming,
        bank_timing: BankTiming,
        word_bits: int,
    ):
        self.variation = variation
        self.leaf = subarray_timing
        self.bank = bank_timing
        self.word_bits = word_bits
        tech = variation.pdk.tech
        self._vdd = tech.vdd
        self._overhead = (
            self.bank.overhead_delay
            + self.leaf.wordline_delay
            + self.leaf.bitline_delay
        )
        self._periphery_energy = (
            self.bank.decoder.energy + self.bank.htree_energy
        )
        self._active_subarrays = variation.subarray.config.active_subarrays

    def sample_writes(
        self, rng: np.random.Generator, num_words: int, margin_sigmas: float = 2.0
    ) -> WriteSamples:
        """Sample ``num_words`` word writes.

        Latency: overhead + 2 x (max switching time over the word's
        bits) — the self-timed completion of the two write phases.
        Energy: every bit is driven for the *margined* pulse (mean
        completion + ``margin_sigmas`` sigma), since an open-loop array
        cannot cut power per bit the instant it happens to switch.
        """
        cells = self.variation.sample_cells(rng, num_words * self.word_bits)
        times = self.variation.sample_switching_times(cells, rng)
        currents = self.variation.delivered_write_current(cells)
        word_max, word_current = self._write_words(times, currents, num_words)
        latency = self._overhead + 2.0 * word_max
        applied_pulse = 2.0 * (
            float(np.mean(word_max)) + margin_sigmas * float(np.std(word_max))
        )
        # The /2 reflects that each bit conducts in only one of the two
        # phases (half the bits per phase on average).
        energy = self._periphery_energy + word_current * self._vdd * applied_pulse / 2.0
        return WriteSamples(latency=latency, energy=energy, cell_times=times)

    def _write_words(self, times, currents, num_words: int):
        """Per-word write reduction: the slowest switching time (the
        window cap for a word holding a stuck cell) and summed current."""
        matrix = times.reshape(num_words, self.word_bits)
        stuck = ~np.isfinite(matrix)
        word_max = np.where(stuck, 0.0, matrix).max(axis=1)
        word_max = np.where(stuck.any(axis=1), STUCK_WORD_TIME, word_max)
        return word_max, currents.reshape(num_words, self.word_bits).sum(axis=1)

    def sample_reads(
        self, rng: np.random.Generator, num_words: int
    ) -> ReadSamples:
        """Sample ``num_words`` word reads.

        The sense develop time of each bit is C_bl * dV / I_signal with
        the per-cell signal current; the word completes on the slowest
        bit, plus the regeneration time.
        """
        from repro.nvsim.subarray import READ_BIAS

        cells = self.variation.sample_cells(rng, num_words * self.word_bits)
        signals = self.variation.read_signal_currents(cells)
        # Recompute develop time per cell from the same capacitance the
        # nominal model used: t_nom = C dV / I_nom => C dV = t_nom * I_nom.
        nominal_signal = float(np.median(signals))
        cdv = self.leaf.sense.develop_time * nominal_signal
        develop = cdv / np.maximum(signals, 1e-9)
        read_currents = READ_BIAS / (
            cells.resistance_p
            + self.variation._fixed_path_r / np.sqrt(cells.drive_strength)
        )
        word_develop, word_current = self._read_words(
            develop, read_currents, num_words
        )
        regen = self.leaf.sense.delay - self.leaf.sense.develop_time
        latency = self._overhead + word_develop + regen

        # Energy: mirror the nominal decomposition (periphery + wordline
        # + per-bit bitline swing + sense static) and add the per-cell
        # conduction term, which scales with the word's develop time.
        bit_energy = word_current * READ_BIAS * np.maximum(word_develop, 0.0)
        subarray = self.variation.subarray
        wordline = self._active_subarrays * subarray.wordline_energy()
        bitline_swing = (
            self.word_bits
            * subarray.bitline.capacitance
            * READ_BIAS
            * self._vdd
        )
        sense_static = self.word_bits * self.leaf.sense.energy
        energy = (
            self._periphery_energy + wordline + bitline_swing + sense_static + bit_energy
        )
        return ReadSamples(latency=latency, energy=energy, signal_currents=signals)

    def _read_words(self, develop, currents, num_words: int):
        """Per-word read reduction: the slowest develop time and summed
        current."""
        shape = (num_words, self.word_bits)
        return (develop.reshape(shape).max(axis=1),
                currents.reshape(shape).sum(axis=1))
