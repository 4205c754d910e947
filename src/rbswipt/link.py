"""End-to-end link evaluation: pump power in, charging power and rate out.

`evaluate_link` composes three stages.  The cavity stage, `_cavity_stage`,
reads only the geometry, gain, loss and crystal specs (`_CAVITY_SPECS`):

1. cavity stability (an unstable or marginal cavity is dark);
2. the diffraction factor and the equivalent reflectances at eta = 0;
3. the lasing threshold at eta = 0.

It returns the dark result of an unstable cavity, or (gamma_diff, threshold).
`_dark` then makes the one dark decision from that result and the pump (stage
4, the threshold comparison).  Only a point that lases reaches `_lasing_stage`,
which reads the whole parameter record:

5. the cavity mode, solved once, its radius w0 at the doubling crystal, and
   the intracavity powers with frequency doubling;
6. delivery of the fundamental to the photovoltaic receiver (power channel)
   and maximum-power-point charging;
7. delivery of the doubled carrier to the photodiode (information channel),
   whose capture reads the same mode's spot, and the achievable rate.

The threshold comes before the mode because it does not depend on w0: a dark
point pays only for the tests that make it dark.  A sweep composes the three
stages itself (see `sweep`), so that a dark row needs no parameter record.
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


# a dark link delivers nothing and converts nothing, whatever the reason
_UNSTABLE = LinkResult(p_recv_pt=0.0, p_recv_it=0.0, p_hat_charge=0.0,
                       r_b=0.0, v_mpp=0.0, eta_shg=0.0, status="unstable")
_BELOW_THRESHOLD = LinkResult(p_recv_pt=0.0, p_recv_it=0.0, p_hat_charge=0.0,
                              r_b=0.0, v_mpp=0.0, eta_shg=0.0, status="below_threshold")


# the spec objects the cavity stage reads
_CAVITY_SPECS = ("geometry", "gain", "loss", "shg")


def _cavity_stage(geometry: optics.CavityGeometry, gain: resonator.GainMediumSpec,
                  loss: resonator.LossBudget,
                  shg: resonator.SHGSpec) -> LinkResult | tuple[float, float]:
    """Stages 1-3: the dark result of an unstable cavity, else the resolved
    diffraction factor and the threshold pump."""
    # a marginal cavity confines no Gaussian mode either, so it is dark too
    if optics.stability_check(geometry) != "stable":
        return _UNSTABLE

    gamma_diff = resonator.resolve_gamma_diff(loss, geometry, gain.a_g, gain.lam)
    r1, r2 = resonator.equivalent_reflectances(loss, shg, gain, 0.0, geometry.d, gamma_diff)
    return gamma_diff, resonator.lasing_threshold(gain, r1, r2)


def _dark(cavity: LinkResult | tuple[float, float], p_in: float) -> LinkResult | None:
    """Stage 4, the one dark decision: the shared dark result of the cavity
    stage's result `cavity` pumped with `p_in`, or None if it lases."""
    if isinstance(cavity, LinkResult):
        return cavity
    return _BELOW_THRESHOLD if p_in <= cavity[1] else None


def _lasing_stage(gamma_diff: float, params: SystemParams) -> LinkResult:
    """Stages 5-7 of a point that lases, with the cavity stage's `gamma_diff`."""
    geom, gain = params.geometry, params.gain
    mode = optics.cavity_mode(geom, gain.a_g, gain.lam)
    w0 = optics.beam_radius(mode, 0.0)
    sol = resonator.solve_intracavity(gain, params.shg, params.loss,
                                      params.p_in, w0, gamma_diff, geom.d)
    gamma_air = resonator.air_transmittance(params.alpha_air, geom.d)

    # power channel: fundamental leakage through the output coupler
    p_recv_pt = pv.received_pt_power(sol.p2, gamma_pv=params.gamma_pv,
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
        a_o = math.pi * optics.beam_radius(mode, geom.z_pv) ** 2
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


def evaluate_link(params: SystemParams) -> LinkResult:
    """Evaluate the full transfer chain for one configuration."""
    cavity = _cavity_stage(params.geometry, params.gain, params.loss, params.shg)
    return _dark(cavity, params.p_in) or _lasing_stage(cavity[0], params)
