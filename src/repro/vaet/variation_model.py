"""Vectorised per-cell variation sampling for VAET-STT.

Sec. III: "the impact of process variation on the magnetic devices
exacerbates the stochastic switching behavior of the MTJ".  Three
variation sources are sampled jointly, all vectorised with numpy so a
10^6-cell Monte Carlo runs in milliseconds:

* **magnetic CD** — pillar diameter spread shifts area, H_k,eff, Delta
  and hence I_c0 per cell;
* **MgO thickness** — lognormal RA factor shifts both resistance states
  (correlated), changing the delivered write current and read signal;
* **CMOS mismatch** — driver/access strength factor from Pelgrom V_th
  spread, changing the delivered current;

plus the *stochastic* (not process) initial-angle draw per write event,
which is what gives even one fixed cell a switching-time distribution.
Cell-at-a-time references for the sampling kernels, used to pin these
against, live in :mod:`repro.vaet.reference`.
"""

import math
from dataclasses import dataclass

import numpy as np

from repro.nvsim.subarray import SubarrayModel
from repro.pdk.kit import ProcessDesignKit
from repro.utils.constants import (
    BOLTZMANN,
    ELEMENTARY_CHARGE,
    GILBERT_GYROMAGNETIC,
    HBAR,
    MU_0,
    ROOM_TEMPERATURE,
)


def oblate_demag_factor_vec(aspect: np.ndarray) -> np.ndarray:
    """Vectorised axial demag factor of an oblate spheroid (m > 1)."""
    m = np.asarray(aspect, dtype=float)
    q = m * m - 1.0
    return (m * m / q) * (1.0 - np.arcsin(np.sqrt(q) / m) / np.sqrt(q))


@dataclass
class CellSamples:
    """Arrays of per-cell physical parameters (all same length).

    Attributes:
        diameter: Pillar diameters [m].
        delta: Thermal stability factors [-].
        critical_current: I_c0 per cell [A].
        resistance_p: Parallel resistance at low bias [ohm].
        resistance_ap_write: AP resistance at the write bias [ohm].
        drive_strength: CMOS path strength factor (1 = nominal).
        rate_prefactor: alpha*gamma0*Hk/(1+alpha^2) per cell [1/s]
            (multiply by (I/Ic0 - 1) for the precessional rate).
    """

    diameter: np.ndarray
    delta: np.ndarray
    critical_current: np.ndarray
    resistance_p: np.ndarray
    resistance_ap_write: np.ndarray
    drive_strength: np.ndarray
    rate_prefactor: np.ndarray

    def __len__(self) -> int:
        return len(self.diameter)


class VariationModel:
    """Joint sampler of process + stochastic variation for one PDK.

    Args:
        pdk: Hybrid PDK (carries the node-scaled sigma values).
        subarray: Array context (path resistances, write bias).
        temperature: Operating temperature [K].
    """

    def __init__(
        self,
        pdk: ProcessDesignKit,
        subarray: SubarrayModel,
        temperature: float = ROOM_TEMPERATURE,
    ):
        self.pdk = pdk
        self.subarray = subarray
        self.temperature = temperature
        material = pdk.free_layer
        self._material = material
        self._thickness = pdk.memory_pillar.free_layer_thickness
        self._d0 = pdk.memory_pillar.diameter
        # Fixed (CMOS + wire) series resistance of the write path.
        transport = pdk.mtj_transport()
        bias = 0.5 * pdk.tech.vdd
        self._fixed_path_r = (
            subarray._mtj_path_resistance(True, bias)
            - transport.state_resistance(True, bias)
        )
        self._write_bias = bias
        self._tmr_nominal = pdk.barrier.tmr_zero_bias
        self._vh = pdk.barrier.tmr_half_voltage
        self._ra = pdk.barrier.resistance_area_product
        # Combined CMOS current-strength sigma: Pelgrom Vth on the two
        # series devices -> relative drive shift via the alpha-power law.
        cmos = pdk.variation.cmos
        tech = pdk.tech
        vth_sigma = cmos.vth_sigma(4.0 * tech.min_width_um, tech.node_nm * 1e-3)
        overdrive = tech.vdd - tech.vth_n
        alpha = tech.velocity_saturation_alpha
        self._strength_sigma = math.hypot(
            alpha * vth_sigma / overdrive, cmos.k_prime_sigma_rel
        )

    # -- per-cell physics, vectorised ----------------------------------

    def _hk_eff(self, diameter: np.ndarray) -> np.ndarray:
        material = self._material
        t = self._thickness
        interface = 2.0 * material.interfacial_anisotropy / (MU_0 * material.ms * t)
        nz = oblate_demag_factor_vec(diameter / t)
        nx = (1.0 - nz) / 2.0
        return interface - (nz - nx) * material.ms

    def _delta(self, diameter: np.ndarray, hk: np.ndarray) -> np.ndarray:
        material = self._material
        k_eff = 0.5 * MU_0 * material.ms * np.maximum(hk, 1.0)
        wall = math.pi * np.sqrt(material.exchange_stiffness / k_eff)
        d_eff = np.minimum(diameter, wall)
        volume = math.pi * (d_eff / 2.0) ** 2 * self._thickness
        barrier = 0.5 * MU_0 * material.ms * np.maximum(hk, 0.0) * volume
        return barrier / (BOLTZMANN * self.temperature)

    def sample_cells(self, rng: np.random.Generator, size: int) -> CellSamples:
        """Draw ``size`` independent cell instances."""
        mtj_var = self.pdk.variation.mtj
        material = self._material
        diameter = self._d0 * np.maximum(
            0.3, 1.0 + rng.normal(0.0, mtj_var.diameter_sigma_rel, size)
        )
        hk = self._hk_eff(diameter)
        delta = self._delta(diameter, hk)
        ic0 = (
            4.0
            * ELEMENTARY_CHARGE
            * material.damping
            * delta
            * BOLTZMANN
            * self.temperature
            / (HBAR * material.polarization)
        )
        area = math.pi * (diameter / 2.0) ** 2
        ra_sigma = mtj_var.ra_thickness_sensitivity * mtj_var.mgo_thickness_sigma_rel
        ra = self._ra * np.exp(rng.normal(0.0, ra_sigma, size))
        r_p = ra / area
        tmr = self._tmr_nominal * np.maximum(
            0.2, 1.0 + rng.normal(0.0, mtj_var.tmr_sigma_rel, size)
        )
        tmr_write = tmr / (1.0 + (self._write_bias / self._vh) ** 2)
        r_ap_write = r_p * (1.0 + tmr_write)
        strength = np.maximum(
            0.3, 1.0 + rng.normal(0.0, self._strength_sigma, size)
        )
        rate_prefactor = (
            material.damping
            * GILBERT_GYROMAGNETIC
            * np.maximum(hk, 0.0)
            / (1.0 + material.damping ** 2)
        )
        return CellSamples(
            diameter=diameter,
            delta=delta,
            critical_current=ic0,
            resistance_p=r_p,
            resistance_ap_write=r_ap_write,
            drive_strength=strength,
            rate_prefactor=rate_prefactor,
        )

    # -- write events ---------------------------------------------------

    def delivered_write_current(self, cells: CellSamples) -> np.ndarray:
        """Write current delivered to each cell [A]."""
        path = cells.resistance_ap_write + self._fixed_path_r / cells.drive_strength
        return self.pdk.tech.vdd / path

    def switching_rates(self, cells: CellSamples) -> np.ndarray:
        """Precessional amplification rate per cell [1/s].

        Cells whose delivered current falls below I_c0 get rate 0 (they
        will not switch in any bounded window — the deep WER tail).
        """
        current = self.delivered_write_current(cells)
        overdrive = current / cells.critical_current
        return cells.rate_prefactor * np.maximum(overdrive - 1.0, 0.0)

    def sample_switching_times(
        self, cells: CellSamples, rng: np.random.Generator
    ) -> np.ndarray:
        """One stochastic switching time per cell [s].

        t = ln(pi / (2 theta_0)) / rate with theta_0^2 ~ Exp(1/Delta)
        (the thermal initial-angle distribution).  Non-switching cells
        (rate 0) return +inf.
        """
        rates = self.switching_rates(cells)
        theta0 = np.sqrt(np.maximum(self._theta0_squared(cells, rng), 1e-12))
        log_term = np.log(np.maximum(math.pi / 2.0 / theta0, 1.0 + 1e-9))
        with np.errstate(divide="ignore"):
            times = np.where(rates > 0.0, log_term / np.maximum(rates, 1e-30), np.inf)
        return times

    def _theta0_squared(self, cells: CellSamples, rng: np.random.Generator) -> np.ndarray:
        """One thermal initial-angle draw theta_0^2 ~ Exp(1/Delta) per cell."""
        return rng.exponential(1.0 / np.maximum(cells.delta, 1.0))

    # -- read events ------------------------------------------------------

    def read_signal_currents(self, cells: CellSamples) -> np.ndarray:
        """Differential sense current (cell vs midpoint reference) [A].

        The read path sees roughly half the log-mismatch of the write
        path: the write drivers are two minimum-ish devices in series,
        while the read column shares a larger biased access path whose
        mismatch partially averages out.
        """
        from repro.nvsim.subarray import READ_BIAS

        tmr_read = self._tmr_nominal / (1.0 + (READ_BIAS / self._vh) ** 2)
        r_ap = cells.resistance_p * (1.0 + tmr_read)
        read_strength = np.sqrt(cells.drive_strength)
        fixed = self._fixed_path_r / read_strength
        i_p = READ_BIAS / (cells.resistance_p + fixed)
        i_ap = READ_BIAS / (r_ap + fixed)
        return 0.5 * (i_p - i_ap)
