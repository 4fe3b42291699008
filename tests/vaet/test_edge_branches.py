"""Edge branches of the error-rate and Monte-Carlo kernels.

Unit tests for paths the campaign-level suites do not reach: stuck
(non-switching) cells through both the vectorised and reference
(:mod:`repro.vaet.reference`) WER kernels, margin-solver input
validation, the read-margin solve, and the stuck-bit cap inside the
reference write reduction.
"""

import numpy as np
import pytest

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT, reference
from repro.vaet.error_rates import ErrorRateAnalysis

POPULATION = 200


@pytest.fixture(scope="module")
def tool():
    return VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16))


@pytest.fixture(scope="module")
def analysis(tool):
    return ErrorRateAnalysis(tool.engine, population=POPULATION, seed=11)


class TestStuckCells:
    STUCK = 3

    @pytest.fixture
    def stuck(self, analysis, monkeypatch):
        # Force a handful of non-switching cells: the sampled 45 nm
        # population is healthy, but the stuck branch must still count
        # each such cell at WER 1 in both kernels.
        switching = analysis._switching.copy()
        switching[: self.STUCK] = False
        monkeypatch.setattr(analysis, "_switching", switching)
        return analysis

    def test_scalar_matches_vector_with_stuck_cells(self, stuck):
        fast = stuck.mean_cell_wer(20e-9)
        with reference.installed():
            slow = stuck.mean_cell_wer(20e-9)
        assert fast == pytest.approx(slow, rel=1e-12)
        assert fast >= self.STUCK / POPULATION

    def test_long_pulse_floors_at_stuck_fraction(self, stuck):
        # Healthy cells decay to ~0 WER at a millisecond pulse; only
        # the stuck cells remain, each contributing exactly 1.
        assert stuck.mean_cell_wer(1e-3) == pytest.approx(
            self.STUCK / POPULATION, rel=1e-6
        )


class TestMarginValidation:
    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 2.0])
    def test_write_margin_rejects_bad_target(self, analysis, target):
        with pytest.raises(ValueError, match="WER target"):
            analysis.write_margin(target)

    @pytest.mark.parametrize("target", [0.0, 1.0, -0.5, 2.0])
    def test_read_margin_rejects_bad_target(self, analysis, target):
        with pytest.raises(ValueError, match="RER target"):
            analysis.read_margin(target)


class TestReadMargin:
    def test_solves_the_rer_target(self, analysis):
        result = analysis.read_margin(1e-6)
        assert result.rer_target == 1e-6
        assert 1e-12 <= result.sense_time <= 1e-6
        # brentq runs at xtol 1e-4 in log space; the solved sense time
        # must land the word RER on the target well within that.
        assert analysis.word_rer(result.sense_time) == pytest.approx(
            1e-6, rel=1e-2
        )
        assert result.total_latency > result.sense_time

    def test_word_rer_nonpositive_time_is_certain_error(self, analysis):
        assert analysis.word_rer(0.0) == 1.0
        assert analysis.word_rer(-1e-9) == 1.0


class TestScalarWriteReduction:
    def test_stuck_bit_caps_word_latency(self, tool):
        engine = tool.engine
        bits = engine.word_bits
        times = np.full(2 * bits, 5e-9)
        times[3] = np.inf  # word 0 contains a stuck bit
        currents = np.full(2 * bits, 50e-6)
        word_max, word_current = reference.write_words(engine, times, currents, 2)
        np.testing.assert_array_equal(word_max, [100e-9, 5e-9])
        np.testing.assert_allclose(word_current, bits * 50e-6, rtol=1e-12)
        # The vectorised reduction agrees on the same per-cell samples.
        fast_max, fast_current = engine._write_words(times, currents, 2)
        np.testing.assert_array_equal(fast_max, word_max)
        np.testing.assert_allclose(fast_current, word_current, rtol=1e-12)

    def test_matches_vector_reduction_on_stuck_words(self, tool):
        # The vectorised sample_writes caps stuck words at the same
        # 100 ns window; drive both reductions from identical per-cell
        # samples by pinning the RNG seed.
        vector = tool.engine.sample_writes(np.random.default_rng(3), 40)
        with reference.installed():
            slow = tool.engine.sample_writes(np.random.default_rng(3), 40)
        np.testing.assert_allclose(
            vector.latency, slow.latency, rtol=1e-12
        )
