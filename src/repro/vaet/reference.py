"""Cell-at-a-time reference kernels for VAET-STT (the test oracle).

Each function mirrors one vectorised kernel of ``variation_model``,
``montecarlo`` or ``error_rates`` and takes the object whose kernel it
mirrors as its first argument, so :func:`installed` can put it on the
class in the kernel's place.  Public methods keep their input guards
and scalar/array dispatch; only the per-population kernels behind them
are swapped.

The references draw every variation source as sequential scalar draws,
which a ``Generator`` produces from exactly the same stream elements as
one vectorised draw, so random streams stay bit-identical.  Per-cell
numerics agree to the last ulp (array ufunc loops may round a rare
element differently than their scalar counterparts) and word or
population aggregates (``math.fsum`` against numpy's pairwise sums) to
~1e-12.

Not a production path: ``tests/vaet/test_vector_equivalence.py`` pins
the vectorised kernels against these, and ``benchmarks/bench_dse.py``
times the whole memory evaluator on them for the gated
``vector_speedup``.
"""

import contextlib
import math

import numpy as np
from scipy.special import ndtr

from repro.utils.constants import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    GILBERT_GYROMAGNETIC,
    HBAR,
)
from repro.vaet.error_rates import ErrorRateAnalysis
from repro.vaet.montecarlo import STUCK_WORD_TIME, MonteCarloEngine
from repro.vaet.variation_model import CellSamples, VariationModel


def sample_cells(model: VariationModel, rng: np.random.Generator,
                 size: int) -> CellSamples:
    """:meth:`VariationModel.sample_cells`, one cell at a time.

    Each variation source is consumed as ``size`` sequential scalar
    draws, in the vectorised kernel's order, and the per-cell physics
    uses the same ufuncs, in the same operation order, one element at
    a time.
    """
    mtj_var = model.pdk.variation.mtj
    material = model._material
    ra_sigma = mtj_var.ra_thickness_sensitivity * mtj_var.mgo_thickness_sigma_rel
    d_draws = [rng.normal(0.0, mtj_var.diameter_sigma_rel) for _ in range(size)]
    ra_draws = [rng.normal(0.0, ra_sigma) for _ in range(size)]
    tmr_draws = [rng.normal(0.0, mtj_var.tmr_sigma_rel) for _ in range(size)]
    strength_draws = [rng.normal(0.0, model._strength_sigma) for _ in range(size)]
    rows = []
    for d_draw, ra_draw, tmr_draw, strength_draw in zip(
        d_draws, ra_draws, tmr_draws, strength_draws
    ):
        diameter = model._d0 * np.maximum(0.3, 1.0 + d_draw)
        hk = model._hk_eff(diameter)
        delta = model._delta(diameter, hk)
        area = math.pi * (diameter / 2.0) ** 2
        r_p = model._ra * np.exp(ra_draw) / area
        tmr = model._tmr_nominal * np.maximum(0.2, 1.0 + tmr_draw)
        tmr_write = tmr / (1.0 + (model._write_bias / model._vh) ** 2)
        rows.append((
            diameter,
            delta,
            4.0 * ELEMENTARY_CHARGE * material.damping * delta * BOLTZMANN
            * model.temperature / (HBAR * material.polarization),
            r_p,
            r_p * (1.0 + tmr_write),
            np.maximum(0.3, 1.0 + strength_draw),
            material.damping * GILBERT_GYROMAGNETIC * np.maximum(hk, 0.0)
            / (1.0 + material.damping ** 2),
        ))
    # One row per cell, transposed into the CellSamples columns.
    return CellSamples(*np.array(rows, dtype=float).reshape(size, 7).T.copy())


def theta0_squared(model: VariationModel, cells: CellSamples,
                   rng: np.random.Generator) -> np.ndarray:
    """:meth:`VariationModel._theta0_squared`, one draw per call."""
    return np.array([
        rng.exponential(1.0 / np.maximum(delta, 1.0)) for delta in cells.delta
    ])


def _words(engine: MonteCarloEngine, num_words: int):
    """The flat cell indices of each sampled word."""
    bits = engine.word_bits
    return [range(w * bits, (w + 1) * bits) for w in range(num_words)]


def write_words(engine: MonteCarloEngine, times, currents, num_words: int):
    """:meth:`MonteCarloEngine._write_words`, one word at a time."""
    words = _words(engine, num_words)
    word_max = [
        STUCK_WORD_TIME if any(not math.isfinite(times[i]) for i in word)
        else max(times[i] for i in word)
        for word in words
    ]
    word_current = [math.fsum(currents[i] for i in word) for word in words]
    return np.array(word_max, dtype=float), np.array(word_current, dtype=float)


def read_words(engine: MonteCarloEngine, develop, currents, num_words: int):
    """:meth:`MonteCarloEngine._read_words`, one word at a time."""
    words = _words(engine, num_words)
    word_develop = [max(develop[i] for i in word) for word in words]
    word_current = [math.fsum(currents[i] for i in word) for word in words]
    return np.array(word_develop, dtype=float), np.array(word_current, dtype=float)


def mean_cell_wer(analysis: ErrorRateAnalysis, pulse_width: float) -> float:
    """:meth:`ErrorRateAnalysis._mean_cell_wer`, one cell at a time."""
    terms = [
        min(envelope * math.exp(-2.0 * rate * pulse_width), 1.0) if switching
        else 1.0
        for envelope, rate, switching in zip(
            analysis._envelope, analysis._rates, analysis._switching
        )
    ]
    return math.fsum(terms) / len(terms)


def mean_cell_rer(analysis: ErrorRateAnalysis, sense_time: float,
                  sigma: float) -> float:
    """:meth:`ErrorRateAnalysis._mean_cell_rer`, one cell at a time."""
    terms = [
        float(ndtr(-(developed * sense_time / sigma)))
        for developed in analysis._developed_per_second
    ]
    return math.fsum(terms) / len(terms)


#: (class, attribute, reference) for every kernel :func:`installed` swaps.
_KERNELS = (
    (VariationModel, "sample_cells", sample_cells),
    (VariationModel, "_theta0_squared", theta0_squared),
    (MonteCarloEngine, "_write_words", write_words),
    (MonteCarloEngine, "_read_words", read_words),
    (ErrorRateAnalysis, "_mean_cell_wer", mean_cell_wer),
    (ErrorRateAnalysis, "_mean_cell_rer", mean_cell_rer),
)


@contextlib.contextmanager
def installed():
    """Run the block on the reference kernels.

    Every kernel is restored to the exact object it was before, also
    when the block raises.
    """
    originals = [(owner, name, vars(owner)[name]) for owner, name, _ in _KERNELS]
    try:
        for owner, name, kernel in _KERNELS:
            setattr(owner, name, kernel)
        yield
    finally:
        for owner, name, original in originals:
            setattr(owner, name, original)
