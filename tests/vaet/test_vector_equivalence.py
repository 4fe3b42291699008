"""Scalar-reference vs vectorised VAET-STT kernels (``repro.vaet.reference``).

The tentpole guarantee of the batch fast path: the vectorised kernels
in ``variation_model`` / ``montecarlo`` / ``error_rates`` are pinned
against the cell-at-a-time reference kernels of
:mod:`repro.vaet.reference`, swapped in with its ``installed()``
context manager.

Equivalence comes in two strengths, matching what numpy can promise:

* **bit-identical RNG streams** — the scalar reference consumes the
  ``Generator`` stream in exactly the same order and quantity as one
  vectorised draw, so the generator state after sampling is equal and
  the raw draws are the same numbers;
* **last-ulp numerics** — array ufunc loops (SIMD) may round a rare
  element differently than their scalar counterparts, so derived
  columns agree to tight relative tolerance (~1e-13), and word-level
  aggregates (numpy pairwise sums vs ``math.fsum``) to ~1e-12.

Run by the ``vector-equivalence`` CI job across python/numpy corners.
"""

import math

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT
from repro.vaet.error_rates import ErrorRateAnalysis
from repro.vaet.reference import _KERNELS, installed

#: Last-ulp tolerance for per-cell derived columns (array-vs-scalar
#: ufunc rounding) and word aggregates (pairwise sum vs fsum).
COLUMN_RTOL = 1e-13
AGGREGATE_RTOL = 1e-12

CELLS = 400
WORDS = 25


@pytest.fixture(scope="module")
def tool():
    # Narrow words keep the scalar (python-loop) reference fast while
    # still exercising word reductions over multiple bits.
    return VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16))


@pytest.fixture(scope="module")
def analysis(tool):
    return ErrorRateAnalysis(tool.engine, population=CELLS, seed=7)


def _columns(cells):
    return {
        "diameter": cells.diameter,
        "delta": cells.delta,
        "critical_current": cells.critical_current,
        "resistance_p": cells.resistance_p,
        "resistance_ap_write": cells.resistance_ap_write,
        "drive_strength": cells.drive_strength,
        "rate_prefactor": cells.rate_prefactor,
    }


class TestInstalled:
    def test_restores_every_kernel_when_the_block_raises(self):
        originals = [vars(owner)[name] for owner, name, _ in _KERNELS]
        with pytest.raises(RuntimeError, match="boom"):
            with installed():
                for (owner, name, kernel), original in zip(_KERNELS, originals):
                    assert vars(owner)[name] is kernel is not original
                raise RuntimeError("boom")
        for (owner, name, _), original in zip(_KERNELS, originals):
            assert vars(owner)[name] is original, name

    def test_vector_path_unchanged_after_the_block(self, tool):
        before = tool.engine.sample_writes(np.random.default_rng(5), WORDS)
        with installed():
            tool.engine.sample_writes(np.random.default_rng(5), WORDS)
        after = tool.engine.sample_writes(np.random.default_rng(5), WORDS)
        np.testing.assert_array_equal(before.latency, after.latency)
        np.testing.assert_array_equal(before.energy, after.energy)
        np.testing.assert_array_equal(before.cell_times, after.cell_times)


class TestCellSampling:
    def test_rng_streams_bit_identical(self, tool):
        """Both paths consume exactly the same generator stream."""
        rng_vec = np.random.default_rng(11)
        tool.variation.sample_cells(rng_vec, CELLS)
        rng_ref = np.random.default_rng(11)
        with installed():
            tool.variation.sample_cells(rng_ref, CELLS)
        assert rng_vec.bit_generator.state == rng_ref.bit_generator.state
        # And the *next* draws coincide, so downstream sampling stays
        # aligned across the two paths.
        assert rng_vec.standard_normal() == rng_ref.standard_normal()

    def test_cell_columns_agree_to_last_ulp(self, tool):
        vector = tool.variation.sample_cells(np.random.default_rng(12), CELLS)
        with installed():
            reference = tool.variation.sample_cells(
                np.random.default_rng(12), CELLS
            )
        for name, column in _columns(vector).items():
            np.testing.assert_allclose(
                column, _columns(reference)[name], rtol=COLUMN_RTOL,
                err_msg="column %s diverged" % name,
            )

    def test_switching_times_agree(self, tool):
        rng = np.random.default_rng(13)
        cells = tool.variation.sample_cells(rng, CELLS)
        vector = tool.variation.sample_switching_times(cells, rng)
        with installed():
            rng = np.random.default_rng(13)
            cells = tool.variation.sample_cells(rng, CELLS)
            reference = tool.variation.sample_switching_times(cells, rng)
        finite = np.isfinite(vector)
        assert np.array_equal(finite, np.isfinite(reference))
        np.testing.assert_allclose(
            vector[finite], reference[finite], rtol=AGGREGATE_RTOL
        )


class TestMonteCarloEngine:
    def _samples(self, tool, method):
        vector = getattr(tool.engine, method)(np.random.default_rng(21), WORDS)
        with installed():
            reference = getattr(tool.engine, method)(
                np.random.default_rng(21), WORDS
            )
        return vector, reference

    def test_sample_writes_equivalent(self, tool):
        vector, reference = self._samples(tool, "sample_writes")
        np.testing.assert_allclose(
            vector.latency, reference.latency, rtol=AGGREGATE_RTOL
        )
        np.testing.assert_allclose(
            vector.energy, reference.energy, rtol=AGGREGATE_RTOL
        )
        finite = np.isfinite(vector.cell_times)
        assert np.array_equal(finite, np.isfinite(reference.cell_times))
        np.testing.assert_allclose(
            vector.cell_times[finite],
            reference.cell_times[finite],
            rtol=AGGREGATE_RTOL,
        )

    def test_sample_reads_equivalent(self, tool):
        vector, reference = self._samples(tool, "sample_reads")
        np.testing.assert_allclose(
            vector.latency, reference.latency, rtol=AGGREGATE_RTOL
        )
        np.testing.assert_allclose(
            vector.energy, reference.energy, rtol=AGGREGATE_RTOL
        )
        np.testing.assert_allclose(
            vector.signal_currents,
            reference.signal_currents,
            rtol=COLUMN_RTOL,
        )


class TestErrorRates:
    PULSES = (2e-9, 5e-9, 12e-9, 40e-9)
    SENSE_TIMES = (0.2e-9, 0.5e-9, 1.5e-9, 4e-9)

    def test_mean_cell_wer_matches_reference(self, analysis):
        fast = [analysis.mean_cell_wer(pulse) for pulse in self.PULSES]
        with installed():
            reference = [analysis.mean_cell_wer(pulse) for pulse in self.PULSES]
            assert analysis.mean_cell_wer(0.0) == 1.0
        np.testing.assert_allclose(fast, reference, rtol=AGGREGATE_RTOL)

    def test_word_wer_matches_reference(self, analysis):
        fast = [analysis.word_wer(pulse) for pulse in self.PULSES]
        with installed():
            reference = [analysis.word_wer(pulse) for pulse in self.PULSES]
        np.testing.assert_allclose(fast, reference, rtol=AGGREGATE_RTOL)

    def test_word_rer_matches_reference(self, analysis):
        fast = [analysis.word_rer(t) for t in self.SENSE_TIMES]
        with installed():
            reference = [analysis.word_rer(t) for t in self.SENSE_TIMES]
        np.testing.assert_allclose(fast, reference, rtol=AGGREGATE_RTOL)

    def test_word_wer_batch_matches_scalar_calls(self, analysis):
        pulses = np.array(self.PULSES)
        batch = analysis.word_wer(pulses)
        assert isinstance(batch, np.ndarray) and batch.shape == pulses.shape
        scalars = [analysis.word_wer(float(pulse)) for pulse in pulses]
        np.testing.assert_allclose(batch, scalars, rtol=AGGREGATE_RTOL)

    def test_word_rer_batch_matches_scalar_calls(self, analysis):
        times = np.array(self.SENSE_TIMES)
        batch = analysis.word_rer(times)
        assert isinstance(batch, np.ndarray) and batch.shape == times.shape
        scalars = [analysis.word_rer(float(t)) for t in times]
        np.testing.assert_allclose(batch, scalars, rtol=AGGREGATE_RTOL)

    def test_batch_handles_nonpositive_entries(self, analysis):
        batch = analysis.word_wer(np.array([0.0, -1e-9, 5e-9]))
        assert batch[0] == 1.0 and batch[1] == 1.0 and batch[2] < 1.0
        rer = analysis.word_rer(np.array([0.0, 1e-9]))
        assert rer[0] == 1.0 and rer[1] < 1.0

    def test_margin_solves_agree(self, analysis):
        """The brentq margin solves land on the same pulse both ways."""
        fast = analysis.write_margin(1e-6)
        with installed():
            reference = analysis.write_margin(1e-6)
        # brentq xtol 1e-4 in log space bounds the solver spread.
        assert fast.pulse_width == pytest.approx(
            reference.pulse_width, rel=1e-3
        )
        assert math.isfinite(fast.total_latency)
