"""Information branch: carrier delivery, photodiode capture, noise and rate.

The frequency-doubled carrier exits the cavity through the output mirror,
is steered by a dichroic mirror and collection lens onto a photodiode behind
a hemispherical concentrator.  The channel quality is expressed as a spectral
efficiency R_b = 0.5*log2(1 + SNR) with the received-intensity SNR
(gamma*P)^2 / (2*pi*e*sigma^2) of an intensity-modulated optical link.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .constants import E_CHARGE, K_BOLTZMANN


@dataclass(frozen=True)
class ConcentratorSpec:
    """Photodiode capture optics: detector area a_pd [m^2], concentrator
    semi-angle field of view psi_c [rad], internal refractive index n_c,
    surface transmittance t_s, incidence angle psi [rad]."""

    a_pd: float
    psi_c: float
    n_c: float
    t_s: float
    psi: float

    def __post_init__(self) -> None:
        if not 0.0 < self.a_pd < math.inf:
            raise ValueError("a_pd must be positive and finite")
        if not 0.0 < self.psi_c <= math.pi / 2.0:
            raise ValueError("psi_c must be in (0, pi/2]")
        if not 1.0 <= self.n_c < math.inf:
            raise ValueError("n_c must be >= 1 and finite")
        if not 0.0 < self.t_s <= 1.0:
            raise ValueError("t_s must be in (0, 1]")
        if not 0.0 <= self.psi < math.inf:
            raise ValueError("psi must be non-negative and finite")
        try:  # concentrator_gain divides n_c**2 by sin(psi_c)**2
            powers = (self.n_c**2, math.sin(self.psi_c) ** 2)
        except OverflowError:
            powers = (math.inf,)
        if not all(0.0 < x < math.inf for x in powers):
            raise ValueError("n_c**2 and sin(psi_c)**2 must be positive and finite")


@dataclass(frozen=True)
class NoiseSpec:
    """Receiver noise model: bandwidth b [Hz], temperature t [K], load
    resistance r_il [Ohm], background photocurrent i_bk [A], photodiode
    responsivity gamma [A/W]."""

    b: float
    t: float
    r_il: float
    i_bk: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("b", "t", "r_il", "i_bk", "gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be positive and finite")


def concentrator_gain(spec: ConcentratorSpec) -> float:
    """Optical gain n_c^2/sin^2(psi_c) inside the field of view, else 0."""
    if spec.psi > spec.psi_c:
        return 0.0
    return spec.n_c**2 / math.sin(spec.psi_c) ** 2


def effective_area(spec: ConcentratorSpec) -> float:
    """Effective collection area a_pd * t_s * gain * cos(psi); 0 outside the FOV."""
    if spec.psi > spec.psi_c:
        return 0.0
    return spec.a_pd * spec.t_s * concentrator_gain(spec) * math.cos(spec.psi)


def pd_capture_ratio(a_eff: float, a_o: float) -> float:
    """Fraction of the beam cross-section a_o captured: min(a_eff/a_o, 1)."""
    if not a_o > 0.0:
        raise ValueError("beam cross-section a_o must be positive")
    return min(a_eff / a_o, 1.0)


def received_it_power(
    p_c: float,
    gamma_pd: float,
    gamma_l4: float,
    r_m5_2nu: float,
    gamma_m2_2nu: float,
    gamma_l2: float,
    gamma_air: float,
    gamma_g_eom: float,
    gamma_l1: float,
) -> float:
    """Carrier power reaching the photodiode through the doubled-frequency chain.

    Factors, in beam order from the crystal: modulator/gain-body transmittance
    gamma_g_eom, lens L1, output mirror transmittance at the doubled frequency
    gamma_m2_2nu, lens L2, air, dichroic reflectivity r_m5_2nu, lens L4, and
    the capture ratio gamma_pd at the detector.
    """
    if p_c < 0.0:
        raise ValueError("p_c must be non-negative")
    return (
        gamma_pd
        * gamma_l4
        * r_m5_2nu
        * gamma_m2_2nu
        * gamma_l2
        * gamma_air
        * gamma_g_eom
        * gamma_l1
        * p_c
    )


def noise_variance(spec: NoiseSpec, p_recv_it: float) -> float:
    """Receiver current noise variance [A^2]: shot + thermal.

    sigma^2 = 2*e*(gamma*P + i_bk)*b + 4*k*t*b/r_il
    """
    if p_recv_it < 0.0:
        raise ValueError("p_recv_it must be non-negative")
    shot = 2.0 * E_CHARGE * (spec.gamma * p_recv_it + spec.i_bk) * spec.b
    thermal = 4.0 * K_BOLTZMANN * spec.t * spec.b / spec.r_il
    return shot + thermal


def achievable_rate(spec: NoiseSpec, p_recv_it: float) -> float:
    """Spectral efficiency [bit/s/Hz]: 0.5*log2(1 + (gamma*P)^2/(2*pi*e*sigma^2))."""
    if p_recv_it < 0.0:
        raise ValueError("p_recv_it must be non-negative")
    if p_recv_it == 0.0:
        return 0.0
    signal = spec.gamma * p_recv_it
    snr = signal * signal / (2.0 * math.pi * math.e * noise_variance(spec, p_recv_it))
    # log1p keeps a weak carrier's rate: 1 + snr rounds to 1 for snr < 2**-53
    return 0.5 * math.log1p(snr) / math.log(2.0)
