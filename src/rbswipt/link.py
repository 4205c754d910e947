"""End-to-end link evaluation: pump power in, charging power and rate out.

`evaluate_link` chains the stages: cavity stability and mode shape,
steady-state intracavity powers with frequency doubling, delivery of the
fundamental to the photovoltaic receiver (power channel), delivery of the
doubled carrier to the photodiode (information channel), maximum-power-point
charging, and the achievable rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import it_channel, optics, pv, resonator
from .params import SystemParams


@dataclass(frozen=True)
class LinkResult:
    """End-to-end operating point for one parameter set."""

    p_recv_pt: float  # power received by the photovoltaic cell [W]
    p_recv_it: float  # power received by the photodiode [W]
    p_hat_charge: float  # maximum charging power [W]
    r_b: float  # achievable rate [bit/s/Hz]
    v_mpp: float  # charging voltage at the maximum power point [V]
    eta_shg: float  # converged doubling efficiency
    status: str  # 'ok' | 'unstable' | 'below_threshold'


def _dark_result(status: str, eta_shg: float = 0.0) -> LinkResult:
    return LinkResult(p_recv_pt=0.0, p_recv_it=0.0, p_hat_charge=0.0,
                      r_b=0.0, v_mpp=0.0, eta_shg=eta_shg, status=status)


def evaluate_link(params: SystemParams) -> LinkResult:
    """Evaluate the full transfer chain for one configuration."""
    geom = params.geometry
    # a marginal cavity confines no Gaussian mode either, so it is dark too
    if optics.stability_check(geom) != "stable":
        return _dark_result("unstable")

    gain = params.gain
    w0 = optics.beam_radius(geom, gain.a_g, gain.lam, 0.0).w
    gamma_diff = resonator.resolve_gamma_diff(params.loss, geom, gain.a_g, gain.lam)
    sol = resonator.solve_intracavity(gain, params.shg, params.loss,
                                      params.p_in, w0, gamma_diff, geom.d)
    if sol.status != "lasing":
        return _dark_result(sol.status, eta_shg=sol.eta_shg)

    gamma_air = resonator.air_transmittance(params.alpha_air, geom.d)

    # power channel: fundamental leakage through the output coupler
    p_recv_pt = pv.received_pt_power(sol, gamma_pv=params.gamma_pv,
                                     gamma_l3=params.gamma_l3,
                                     gamma_m5_nu=params.gamma_m5_nu,
                                     r_m2=params.r_m2,
                                     gamma_l2=params.gamma_l2,
                                     gamma_air=gamma_air)
    i_ph = pv.photo_current(params.pv, p_recv_pt)
    op = pv.mppt(params.pv, i_ph)

    # information channel: doubled carrier back through the cavity to the detector
    gamma_pd = params.gamma_pd
    if isinstance(gamma_pd, str):  # 'auto' -> concentrator capture model
        spot = optics.beam_radius(geom, gain.a_g, gain.lam, geom.z_pv)
        a_o = math.pi * spot.w ** 2
        gamma_pd = it_channel.pd_capture_ratio(
            it_channel.effective_area(params.concentrator), a_o)
    p_recv_it = it_channel.received_it_power(
        sol.p_c, gamma_pd=gamma_pd, gamma_l4=params.gamma_l4,
        r_m5_2nu=params.r_m5_2nu, gamma_m2_2nu=params.gamma_m2_2nu,
        gamma_l2=params.gamma_l2, gamma_air=gamma_air,
        gamma_g_eom=params.gamma_g_eom, gamma_l1=params.gamma_l1)
    r_b = it_channel.achievable_rate(params.noise, p_recv_it)

    return LinkResult(p_recv_pt=p_recv_pt, p_recv_it=p_recv_it,
                      p_hat_charge=op.p_charge, r_b=r_b, v_mpp=op.v_charge,
                      eta_shg=sol.eta_shg, status="ok")
