"""Property tests for the monotonicity the VAET root solves rely on.

``write_margin``, ``read_margin``, ``ECCAnalysis._pulse_for_per_bit_wer``
and ``per_bit_budget`` invert their kernels with a bracketed root
solve on a log scale.  A bracket holds one root only if the kernel is
monotone over it, so these properties pin the direction of each
kernel over the whole bracket, on a small sampled population.
"""

import functools
import math

from hypothesis import given, settings, strategies as st

from repro.nvsim import MemoryConfig
from repro.pdk import ProcessDesignKit
from repro.vaet import VAETSTT
from repro.vaet.ecc import block_failure_probability, per_bit_budget
from repro.vaet.error_rates import ErrorRateAnalysis

#: Cells in the sampled population (small: the properties are
#: elementwise, so population size does not change what they test).
CELLS = 2000

#: ``per_bit_budget`` solves log10(p) to this tolerance (its brentq
#: ``xtol``); two solves can land on either side of the true root.
BUDGET_XTOL = 1e-6


@functools.lru_cache(maxsize=1)
def _analysis() -> ErrorRateAnalysis:
    tool = VAETSTT(ProcessDesignKit.for_node(45), MemoryConfig(word_bits=16))
    return ErrorRateAnalysis(tool.engine, population=CELLS, seed=11)


def _log_uniform(low: float, high: float):
    """Floats spread evenly over decades of [low, high]."""
    return st.floats(math.log(low), math.log(high)).map(math.exp)


#: Pulse widths across the write solvers' brackets (5 ps .. 1 s).
pulses = _log_uniform(5e-12, 1.0)
#: Sense times across the read solver's bracket (1 ps .. 1 us).
sense_times = _log_uniform(1e-12, 1e-6)
#: Block-failure targets reachable inside the budget solver's bracket
#: (per-bit WER >= 1e-30) for every codeword drawn below.
targets = _log_uniform(1e-25, 0.5)


@settings(deadline=None, max_examples=60)
@given(pulses, pulses)
def test_mean_cell_wer_non_increasing_in_pulse_width(a, b):
    short, long = sorted((a, b))
    analysis = _analysis()
    assert analysis.mean_cell_wer(long) <= analysis.mean_cell_wer(short)


@settings(deadline=None, max_examples=60)
@given(sense_times, sense_times)
def test_word_rer_non_increasing_in_sense_time(a, b):
    short, long = sorted((a, b))
    analysis = _analysis()
    assert analysis.word_rer(long) <= analysis.word_rer(short)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(8, 300),
    st.integers(0, 6),
    _log_uniform(1e-30, 0.9),
    _log_uniform(1e-30, 0.9),
)
def test_block_failure_non_decreasing_in_per_bit_wer(codeword, t, a, b):
    low, high = sorted((a, b))
    assert block_failure_probability(codeword, low, t) <= (
        block_failure_probability(codeword, high, t)
    )


@settings(deadline=None, max_examples=60)
@given(st.integers(16, 300), st.integers(0, 4), targets, targets)
def test_per_bit_budget_non_decreasing_in_target(codeword, t, a, b):
    strict, loose = sorted((a, b))
    tight_budget = math.log10(per_bit_budget(codeword, t, strict))
    loose_budget = math.log10(per_bit_budget(codeword, t, loose))
    assert tight_budget <= loose_budget + 2 * BUDGET_XTOL
