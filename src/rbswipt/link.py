"""End-to-end link evaluation: pump power in, charging power and rate out.

`evaluate_link` composes two stages with one comparison between them.  Both
stages read one mapping of field names and spec attributes to their values, a
record's `vars`.  The cavity stage, `_cavity_stage`, reads of it only the
geometry, gain, loss and crystal specs:

1. cavity stability (an unstable or marginal cavity is dark);
2. the diffraction factor and the equivalent reflectances at eta = 0;
3. the lasing threshold at eta = 0.

It returns (dark result, gamma_diff, threshold) for every cavity, with an
infinite threshold for an unstable one, as for an opaque one.  Stage 4, the one
dark decision, is a comparison: a point is dark exactly when its pump is at
most the threshold.  Only a point that lases reaches `_lasing_stage`, which
reads the spec objects and the pump by name:

5. the cavity mode, solved once, its radius w0 at the doubling crystal, and
   the intracavity powers with frequency doubling;
6. delivery of the fundamental to the photovoltaic receiver along
   `pv.PowerPath` (power channel) and maximum-power-point charging;
7. delivery of the doubled carrier to the photodiode along
   `it_channel.CarrierPath` (information channel), whose capture reads the
   same mode's spot, and the achievable rate.

The threshold comes before the mode because it does not depend on w0: a dark
point pays only for the tests that make it dark.  `evaluate_rows` runs the
same stages over the rows of a one-field sweep on one copy of the base's
mapping: a row writes its value and rebuilds, in place, only the specs that
read it, and a field the cavity stage does not read (`_CAVITY_FIELDS`; `l_s`,
`d_eff` and `n0` among them) shares the base's cavity stage.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import it_channel, optics, pv, resonator
from .params import _READERS, _SPECS, SystemParams


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


# the fields the cavity stage reads, through the geometry, gain, loss and
# crystal specs: at eta = 0 it reads of the crystal only gamma_shg
_CAVITY_FIELDS = frozenset(("gamma_shg", *_SPECS["geometry"][1], *_SPECS["gain"][1],
                            *_SPECS["loss"][1]))


def _cavity_stage(specs: dict) -> tuple[LinkResult, float, float]:
    """Stages 1-3: the dark result, the resolved diffraction factor and the
    threshold pump; a point is dark exactly when its pump is at most the
    threshold, which is infinite for an unstable cavity.  `specs` maps each
    field and each spec attribute of `params._SPECS` to its value, as a
    record's `vars` does."""
    geometry, gain, loss = specs["geometry"], specs["gain"], specs["loss"]
    # a marginal cavity confines no Gaussian mode either, so it is dark too
    if optics.stability_check(geometry) != "stable":
        return _UNSTABLE, math.nan, math.inf

    gamma_diff = resonator.resolve_gamma_diff(loss, geometry, gain.a_g, gain.lam)
    r1, r2 = resonator.equivalent_reflectances(loss, specs["shg"], gain, 0.0, geometry.d,
                                               gamma_diff)
    return _BELOW_THRESHOLD, gamma_diff, resonator.lasing_threshold(gain, r1, r2)


def _lasing_stage(gamma_diff: float, specs: dict) -> LinkResult:
    """Stages 5-7 of a point that lases, with the cavity stage's `gamma_diff`;
    `specs` is the cavity stage's mapping, and also gives the pump `p_in`."""
    geom, gain, loss = specs["geometry"], specs["gain"], specs["loss"]
    mode = optics.cavity_mode(geom, gain.a_g, gain.lam)
    w0 = optics.beam_radius(mode, 0.0)
    sol = resonator.solve_intracavity(gain, specs["shg"], loss, specs["p_in"], w0, gamma_diff,
                                      geom.d)
    gamma_air = resonator.air_transmittance(loss.alpha_air, geom.d)

    # power channel: fundamental leakage through the output coupler
    p_recv_pt = pv.received_pt_power(sol.p2, specs["power_path"], loss, gamma_air)
    i_ph = pv.photo_current(specs["pv"], p_recv_pt)
    op = pv.mppt(specs["pv"], i_ph)

    # information channel: doubled carrier back through the cavity to the detector
    path = specs["carrier_path"]
    gamma_pd = path.gamma_pd
    if isinstance(gamma_pd, str):  # 'auto' -> concentrator capture model
        a_o = math.pi * optics.beam_radius(mode, geom.z_pv) ** 2
        gamma_pd = it_channel.pd_capture_ratio(
            it_channel.effective_area(specs["concentrator"]), a_o)
    p_recv_it = it_channel.received_it_power(sol.p_c, gamma_pd, path, loss, gamma_air)
    r_b = it_channel.achievable_rate(specs["noise"], p_recv_it)

    return LinkResult(p_recv_pt=p_recv_pt, p_recv_it=p_recv_it,
                      p_hat_charge=op.p_charge, r_b=r_b, v_mpp=op.v_charge,
                      eta_shg=sol.eta_shg, status="ok")


def evaluate_link(params: SystemParams) -> LinkResult:
    """Evaluate the full transfer chain for one configuration."""
    specs = vars(params)
    dark, gamma_diff, threshold = _cavity_stage(specs)
    return dark if params.p_in <= threshold else _lasing_stage(gamma_diff, specs)


def evaluate_rows(base: SystemParams, name: str, values) -> list[LinkResult]:
    """`evaluate_link` of `base` with field `name` set to each of `values`, in
    order.  One copy of `vars(base)` serves every row: a row writes its value
    and rebuilds each spec that reads `name` through its validating
    constructor, in `params._SPECS` order, from arguments read from `base`
    once, so the stages see the mapping of `dataclasses.replace(base,
    **{name: value})`.  `p_in`, which no spec reads, is written as it is, so
    the caller bounds it."""
    specs = dict(vars(base))
    builds = []  # (attr, class, argument list, the slot of `name` in it)
    for attr in _READERS[name]:
        cls, names = _SPECS[attr]
        builds.append((attr, cls, [specs[f] for f in names], names.index(name)))
    shared = None if name in _CAVITY_FIELDS else _cavity_stage(specs)
    results = []
    for value in values:
        specs[name] = value
        for attr, cls, args, slot in builds:
            args[slot] = value
            specs[attr] = cls(*args)
        dark, gamma_diff, threshold = shared or _cavity_stage(specs)
        results.append(dark if specs["p_in"] <= threshold
                       else _lasing_stage(gamma_diff, specs))
    return results
